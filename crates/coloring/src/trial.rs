//! The mother algorithm — Theorem 1.1 / Algorithm 1 of the paper.
//!
//! Every node `v` with input color `i` locally derives the trial sequence
//! `s_i(x) = (x mod k, p_i(x))`, `x = 0..q-1`, from the shared
//! [`SequenceFamily`] and consumes it in batches of `k` trials, one batch per
//! round:
//!
//! * an *active* (not yet colored) node broadcasts its input color — that is
//!   all a neighbour needs to reconstruct the node's entire current batch,
//!   which is what makes the algorithm a CONGEST algorithm;
//! * a trial is *d-proper* in a round if at most `d` neighbours try the same
//!   pair in that round or are already permanently colored with it;
//! * the node adopts the first d-proper trial of its batch, announces the
//!   adopted color in the next round, orients the monochromatic edges as
//!   prescribed by the paper (towards already-colored neighbours; ties within
//!   a round broken from smaller to larger input color), records the batch
//!   index as its partition part, and halts.
//!
//! The proof of Theorem 1.1 guarantees that at most `2·f·Δ/(d+1) < q` trials
//! can ever be blocked, so every node terminates within `R = ⌈q/k⌉` batches.
//! The driver [`run`] enforces this with a round cap and verifies nothing
//! silently: parameter errors, improper inputs and non-termination are
//! reported as [`ColoringError`]s.

use std::sync::Arc;

use dcme_algebra::logstar::bits_for;
use dcme_algebra::sequence::{SequenceFamily, SequenceParams, Trial};
use dcme_congest::{
    ExecutionMode, Inbox, MessageSize, NodeAlgorithm, NodeContext, Outbox, RunMetrics, Simulator,
    SimulatorConfig, Topology,
};
use dcme_graphs::coloring::{Coloring, OrientedColoring, PartitionedColoring};
use dcme_graphs::verify;

use crate::error::ColoringError;

/// Configuration of one run of the mother algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialConfig {
    /// Defect tolerance `d` (0 for proper colorings).
    pub d: u32,
    /// Batch size `k >= 1`: the number of colors tried per round.
    pub k: u64,
    /// Executor selection for the simulator.
    pub mode: ExecutionMode,
}

impl TrialConfig {
    /// A proper-coloring configuration (`d = 0`) with batch size `k`.
    pub fn proper(k: u64) -> Self {
        Self {
            d: 0,
            k,
            mode: ExecutionMode::Sequential,
        }
    }

    /// A defective/outdegree configuration with tolerance `d` and batch size `k`.
    pub fn defective(d: u32, k: u64) -> Self {
        Self {
            d,
            k,
            mode: ExecutionMode::Sequential,
        }
    }

    /// Selects the parallel executor with the given number of threads.
    pub fn parallel(mut self, threads: usize) -> Self {
        self.mode = ExecutionMode::Parallel { threads };
        self
    }
}

/// The result of one run of the mother algorithm.
#[derive(Debug, Clone)]
pub struct TrialOutcome {
    /// Coloring, orientation of monochromatic edges, and partition parts.
    pub result: PartitionedColoring,
    /// Round / message / bandwidth accounting of the run.
    pub metrics: RunMetrics,
    /// The derived Theorem 1.1 parameters (`Z`, `f`, `q`, `X`, `R`).
    pub params: SequenceParams,
}

impl TrialOutcome {
    /// Convenience accessor for the produced coloring.
    pub fn coloring(&self) -> &Coloring {
        &self.result.oriented.coloring
    }
}

/// Messages exchanged by Algorithm 1.
///
/// An active node announces its input color; a freshly colored node announces
/// the adopted (encoded) color once.  Both fit in `O(log m + log kΔ) =
/// O(log n)` bits, respecting CONGEST.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialMessage {
    /// "I am still uncolored and my input color is `input_color`."
    Active {
        /// the sender's input color
        input_color: u64,
    },
    /// "I permanently adopted the encoded color `color`."
    Adopted {
        /// the sender's encoded output color
        color: u64,
    },
}

impl MessageSize for TrialMessage {
    fn bit_size(&self) -> u64 {
        1 + match self {
            TrialMessage::Active { input_color } => bits_for(input_color + 1) as u64,
            TrialMessage::Adopted { color } => bits_for(color + 1) as u64,
        }
    }
}

impl dcme_congest::WireMessage for TrialMessage {
    fn encode(&self, w: &mut dcme_congest::BitWriter) -> u8 {
        match self {
            TrialMessage::Active { input_color } => {
                w.write_bits(0, 1);
                dcme_congest::wire::write_color(w, *input_color);
            }
            TrialMessage::Adopted { color } => {
                w.write_bits(1, 1);
                dcme_congest::wire::write_color(w, *color);
            }
        }
        0
    }

    fn decode(
        r: &mut dcme_congest::BitReader<'_>,
        bits: u16,
        _aux: u8,
    ) -> Result<Self, dcme_congest::WireError> {
        let tag = r.read_bits(1)?;
        let value = dcme_congest::wire::read_color(r, bits as u32 - 1)?;
        Ok(if tag == 0 {
            TrialMessage::Active { input_color: value }
        } else {
            TrialMessage::Adopted { color: value }
        })
    }
}

/// Per-node output of the algorithm.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrialNodeOutput {
    /// Encoded adopted color (`slot * q + value`), or `None` if the node did
    /// not finish (only possible if the round cap was hit).
    pub color: Option<u64>,
    /// The batch index in which the color was adopted.
    pub iteration: u64,
    /// Ports towards which monochromatic edges are oriented (outgoing).
    pub out_ports: Vec<usize>,
}

/// The per-node state machine implementing Algorithm 1.
#[derive(Clone)]
pub struct TrialNode {
    family: Arc<SequenceFamily>,
    input_color: u64,
    /// Coefficients of the node's own polynomial `p_i`, derived once.
    own_coeffs: Box<[u64]>,
    /// Ports of neighbours that are already permanently colored, with their
    /// adopted trial, in announcement order (each port announces once).
    colored_neighbors: Vec<(usize, Trial)>,
    /// Per-round scratch of the conflict scan in `receive`: the `f + 1`
    /// polynomial coefficients of every neighbour active this round, packed
    /// back to back (at most `Δ·(f + 1)` words).
    active_coeffs: Vec<u64>,
    /// The adopted trial and the iteration in which it was adopted.
    adopted: Option<(Trial, u64)>,
    /// Whether the adopted color has been announced (the node halts right
    /// after processing the announce round).
    announced: bool,
    /// Outgoing orientation ports.
    out_ports: Vec<usize>,
    /// Ports of neighbours that announced the *same* color in the same
    /// announce round (same-iteration ties); the driver keeps only the
    /// orientation from the smaller to the larger input color.
    pending_tie_ports: Vec<usize>,
    halted: bool,
}

impl TrialNode {
    /// Creates the state machine for a node with the given input color.
    ///
    /// # Panics
    ///
    /// Panics if `input_color` is outside the family's input palette.
    pub fn new(family: Arc<SequenceFamily>, input_color: u64) -> Self {
        let mut own_coeffs = vec![0u64; family.params().f as usize + 1].into_boxed_slice();
        family.coefficients(input_color, &mut own_coeffs);
        Self {
            family,
            input_color,
            own_coeffs,
            colored_neighbors: Vec::new(),
            active_coeffs: Vec::new(),
            adopted: None,
            announced: false,
            out_ports: Vec::new(),
            pending_tie_ports: Vec::new(),
            halted: false,
        }
    }

    fn q(&self) -> u64 {
        self.family.params().q
    }
}

impl NodeAlgorithm for TrialNode {
    type Message = TrialMessage;
    type Output = TrialNodeOutput;

    fn init(&mut self, _ctx: &NodeContext) {}

    fn send(&mut self, _ctx: &NodeContext) -> Outbox<TrialMessage> {
        if let Some((trial, _)) = self.adopted {
            if !self.announced {
                self.announced = true;
                return Outbox::Broadcast(TrialMessage::Adopted {
                    color: trial.encode(self.q()),
                });
            }
            // Unreachable: the node halts at the end of its announce round.
            return Outbox::Silent;
        }
        Outbox::Broadcast(TrialMessage::Active {
            input_color: self.input_color,
        })
    }

    fn receive(&mut self, ctx: &NodeContext, inbox: &Inbox<'_, TrialMessage>) {
        let q = self.q();

        // Record neighbours that announced a permanent color this round.
        // A port announces at most once over the whole run, so appending
        // never duplicates.
        for (port, msg) in inbox.iter() {
            if let TrialMessage::Adopted { color } = msg {
                self.colored_neighbors
                    .push((port, Trial::decode(*color, q)));
            }
        }

        if self.announced {
            // Announce round: record same-iteration ties.  A neighbour that
            // announces the same color in this very round adopted it in the
            // same iteration; the paper orients such an edge from the smaller
            // to the larger input color.  Both endpoints record the tie here
            // and the driver keeps only the orientation out of the smaller
            // input color.
            let (my_trial, _) = self.adopted.expect("announced implies adopted");
            for (port, msg) in inbox.iter() {
                if let TrialMessage::Adopted { color } = msg {
                    if Trial::decode(*color, q) == my_trial {
                        self.pending_tie_ports.push(port);
                    }
                }
            }
            self.halted = true;
            return;
        }

        // Active round: the current iteration is the simulator round.
        let iteration = ctx.round;
        let params = *self.family.params();
        if iteration >= params.rounds {
            // Theory guarantees this cannot happen; if it does, stay active
            // so the driver's round cap reports non-termination.
            return;
        }

        // Every active neighbour's polynomial, as coefficients: its whole
        // current batch is determined by them.
        let width = params.f as usize + 1;
        self.active_coeffs.clear();
        for (_, msg) in inbox.iter() {
            if let TrialMessage::Active { input_color } = msg {
                let at = self.active_coeffs.len();
                self.active_coeffs.resize(at + width, 0);
                self.family
                    .coefficients(*input_color, &mut self.active_coeffs[at..]);
            }
        }

        // Slot-aligned scan.  The slots `x mod k` are pairwise distinct
        // within a batch, so a neighbour's batch can contain our trial at
        // position `x` only as its own trial at `x`: one evaluation per
        // active neighbour counts the same-round conflicts of that trial
        // exactly, and the first position with at most `d` conflicts in
        // all is the first d-proper trial of the batch.  Each neighbour
        // blocks at most `f` positions (Lemma 2.1), so the scan ends after
        // a few; a position is dropped once it has more than `d`.
        let field = params.field();
        let d = params.d as usize;
        let start = iteration * params.k;
        let end = (start + params.k).min(params.q);
        for x in start..end {
            let trial = Trial {
                slot: x % params.k,
                value: field.horner(&self.own_coeffs, x),
            };
            let mut conflicts = self
                .colored_neighbors
                .iter()
                .filter(|&&(_, t)| t == trial)
                .count();
            for coeffs in self.active_coeffs.chunks_exact(width) {
                if conflicts > d {
                    break;
                }
                conflicts += usize::from(field.horner(coeffs, x) == trial.value);
            }
            if conflicts <= d {
                // Adopt.  Orient edges towards neighbours already colored
                // with the same pair.
                self.adopted = Some((trial, iteration));
                self.out_ports = self
                    .colored_neighbors
                    .iter()
                    .filter(|&&(_, t)| t == trial)
                    .map(|&(port, _)| port)
                    .collect();
                break;
            }
        }
    }

    fn is_halted(&self) -> bool {
        self.halted
    }

    fn output(&self) -> TrialNodeOutput {
        match self.adopted {
            Some((trial, iteration)) => TrialNodeOutput {
                color: Some(trial.encode(self.q())),
                iteration,
                out_ports: self
                    .out_ports
                    .iter()
                    .copied()
                    .chain(self.pending_tie_ports.iter().copied())
                    .collect(),
            },
            None => TrialNodeOutput::default(),
        }
    }
}

impl dcme_congest::mc::CheckableAlgorithm for TrialNode {
    fn committed_color(&self) -> Option<u64> {
        self.adopted.map(|(trial, _)| trial.encode(self.q()))
    }
}

/// Runs Algorithm 1 on `topology` with the given proper input coloring.
///
/// Returns the coloring, the orientation of monochromatic edges, the
/// partition into parts `P_j`, the run metrics, and the derived parameters.
///
/// # Errors
///
/// * [`ColoringError::InputSizeMismatch`] if the coloring does not cover the
///   graph,
/// * [`ColoringError::ImproperInput`] if the input coloring is not proper,
/// * [`ColoringError::Params`] if `(Δ, m, d, k)` violate Theorem 1.1's
///   preconditions,
/// * [`ColoringError::DidNotTerminate`] if some node failed to adopt a color
///   within the theoretical round bound (would indicate an implementation
///   bug — the accompanying tests assert this never happens).
pub fn run(
    topology: &Topology,
    input: &Coloring,
    config: TrialConfig,
) -> Result<TrialOutcome, ColoringError> {
    let params =
        SequenceParams::derive(topology.max_degree(), input.palette(), config.d, config.k)?;
    run_with_params(topology, input, params, config.mode)
}

/// The checks [`run_with_params`] makes before simulating: the input
/// coloring covers the graph, its palette is the parameters' `m`, and it is
/// proper.
pub(crate) fn check_input(
    topology: &Topology,
    input: &Coloring,
    params: &SequenceParams,
) -> Result<(), ColoringError> {
    if input.len() != topology.num_nodes() {
        return Err(ColoringError::InputSizeMismatch {
            nodes: topology.num_nodes(),
            colors: input.len(),
        });
    }
    if params.m != input.palette() {
        return Err(ColoringError::InvalidParameter {
            reason: format!(
                "parameters were derived for m = {} but the input palette is {}",
                params.m,
                input.palette()
            ),
        });
    }
    verify::check_proper(topology, input).map_err(ColoringError::ImproperInput)
}

/// Runs Algorithm 1 with explicitly supplied [`SequenceParams`].
///
/// This is the entry point for parameterizations that do not come from
/// [`SequenceParams::derive`], most notably the tight single-round Linial
/// step of Remark 2.2 ([`SequenceParams::derive_one_shot`]).  The parameters'
/// `m` must equal the input coloring's palette.
pub fn run_with_params(
    topology: &Topology,
    input: &Coloring,
    params: SequenceParams,
    mode: ExecutionMode,
) -> Result<TrialOutcome, ColoringError> {
    check_input(topology, input, &params)?;

    let family = Arc::new(SequenceFamily::new(params));

    let nodes: Vec<TrialNode> = (0..topology.num_nodes())
        .map(|v| TrialNode::new(Arc::clone(&family), input.color(v)))
        .collect();

    // Every node adopts within `R` batches and needs one extra round to
    // announce; add a tiny slack for the simulator's termination check.
    let round_cap = params.rounds + 2;
    let sim = Simulator::with_config(
        topology,
        SimulatorConfig {
            max_rounds: round_cap,
            mode,
        },
    );
    let outcome = sim.run(nodes);

    let mut colors = Vec::with_capacity(topology.num_nodes());
    let mut partition = Vec::with_capacity(topology.num_nodes());
    let mut out_neighbors: Vec<Vec<usize>> = vec![Vec::new(); topology.num_nodes()];

    for (v, out) in outcome.outputs.iter().enumerate() {
        let Some(color) = out.color else {
            return Err(ColoringError::DidNotTerminate { round_cap });
        };
        colors.push(color);
        partition.push(out.iteration);
        for &port in &out.out_ports {
            out_neighbors[v].push(topology.neighbor_at(v, port));
        }
    }

    // Same-iteration ties were recorded by *both* endpoints (each saw the
    // other's announcement); keep only the orientation from the smaller to
    // the larger input color, as prescribed by the paper.
    for v in 0..topology.num_nodes() {
        out_neighbors[v].retain(|&u| {
            // An out-edge to an already-colored neighbour (different
            // iteration) is always kept; a same-iteration tie is kept only by
            // the endpoint with the smaller input color.
            if partition[u] == partition[v] && colors[u] == colors[v] {
                input.color(v) < input.color(u)
            } else {
                true
            }
        });
        out_neighbors[v].sort_unstable();
        out_neighbors[v].dedup();
    }

    let coloring = Coloring::new(colors, params.encoded_colors());
    let result = PartitionedColoring {
        oriented: OrientedColoring {
            coloring,
            out_neighbors,
        },
        partition,
    };

    Ok(TrialOutcome {
        result,
        metrics: outcome.metrics,
        params,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcme_graphs::generators;
    use dcme_graphs::verify::{
        check_defective, check_outdegree_orientation, check_palette, check_partition_degree,
        check_proper,
    };

    fn ids(n: usize) -> Coloring {
        Coloring::from_ids(n)
    }

    #[test]
    fn proper_coloring_on_ring_with_k1() {
        let g = generators::ring(32);
        let input = ids(32);
        let out = run(&g, &input, TrialConfig::proper(1)).unwrap();
        check_proper(&g, out.coloring()).unwrap();
        check_palette(out.coloring(), out.params.color_bound()).unwrap();
        // Round bound: R batches + 1 announce round.
        assert!(out.metrics.rounds <= out.params.rounds + 1);
    }

    #[test]
    fn proper_coloring_on_regular_graph_for_various_k() {
        let g = generators::random_regular(120, 8, 3);
        let m = 120u64;
        let input = ids(120);
        for k in [1u64, 2, 4, 8, 16, 64] {
            let out = run(&g, &input, TrialConfig::proper(k)).unwrap();
            check_proper(&g, out.coloring()).unwrap();
            assert!(
                out.metrics.rounds <= out.params.rounds + 1,
                "k={k}: rounds {} > bound {}",
                out.metrics.rounds,
                out.params.rounds + 1
            );
            assert!(out.coloring().palette() <= out.params.color_bound());
            let _ = m;
        }
    }

    #[test]
    fn rounds_shrink_as_k_grows() {
        let g = generators::random_regular(200, 16, 5);
        let input = ids(200);
        let slow = run(&g, &input, TrialConfig::proper(1)).unwrap();
        let fast = run(&g, &input, TrialConfig::proper(64)).unwrap();
        assert!(fast.metrics.rounds < slow.metrics.rounds);
        assert!(fast.params.color_bound() > slow.params.color_bound());
    }

    #[test]
    fn defective_coloring_respects_defect_and_partition() {
        let g = generators::random_regular(150, 12, 9);
        let input = ids(150);
        let d = 3u32;
        let out = run(&g, &input, TrialConfig::defective(d, 1)).unwrap();
        // Theorem 1.1 (1): orientation with outdegree at most d.
        check_outdegree_orientation(&g, &out.result.oriented, d as usize).unwrap();
        // Theorem 1.1 (2): each part induces degree at most d within a class.
        check_partition_degree(&g, &out.result, d as usize).unwrap();
        // One-round variant (k = X) has a single part, so the coloring itself
        // is d-defective.
        let one_round = run(&g, &input, TrialConfig::defective(d, out.params.x)).unwrap();
        assert!(one_round.metrics.rounds <= 2);
        check_defective(&g, one_round.coloring(), d as usize).unwrap();
    }

    #[test]
    fn single_batch_equals_linial_one_round() {
        let g = generators::random_regular(100, 6, 1);
        let input = ids(100);
        // First derive params to learn X, then run with k = X.
        let params = SequenceParams::derive(g.max_degree(), 100, 0, 1).unwrap();
        let out = run(&g, &input, TrialConfig::proper(params.x)).unwrap();
        // One batch plus the announce round.
        assert!(out.metrics.rounds <= 2);
        check_proper(&g, out.coloring()).unwrap();
    }

    #[test]
    fn improper_input_is_rejected() {
        let g = generators::ring(4);
        let bad = Coloring::new(vec![0, 0, 1, 2], 4);
        let err = run(&g, &bad, TrialConfig::proper(1)).unwrap_err();
        assert!(matches!(err, ColoringError::ImproperInput(_)));
    }

    #[test]
    fn size_mismatch_is_rejected() {
        let g = generators::ring(4);
        let short = Coloring::new(vec![0, 1], 4);
        assert!(matches!(
            run(&g, &short, TrialConfig::proper(1)),
            Err(ColoringError::InputSizeMismatch { .. })
        ));
    }

    #[test]
    fn parallel_executor_matches_sequential() {
        let g = generators::gnp(80, 0.1, 17);
        let input = ids(80);
        let seq = run(&g, &input, TrialConfig::proper(4)).unwrap();
        let par = run(&g, &input, TrialConfig::proper(4).parallel(4)).unwrap();
        assert_eq!(seq.result, par.result);
        assert_eq!(seq.metrics.rounds, par.metrics.rounds);
    }

    #[test]
    fn message_sizes_respect_congest() {
        let g = generators::random_regular(256, 8, 2);
        let input = ids(256);
        let out = run(&g, &input, TrialConfig::proper(8)).unwrap();
        let report = dcme_congest::BandwidthReport::check(256, &out.metrics, 4);
        assert!(report.within_congest, "{report}");
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = generators::empty(5);
        let out = run(&g, &ids(5), TrialConfig::proper(1)).unwrap();
        check_proper(&g, out.coloring()).unwrap();

        let g = generators::complete(2);
        let out = run(&g, &ids(2), TrialConfig::proper(1)).unwrap();
        check_proper(&g, out.coloring()).unwrap();
    }

    #[test]
    fn message_size_accounting() {
        let m = TrialMessage::Active { input_color: 255 };
        assert_eq!(m.bit_size(), 1 + 8);
        let m = TrialMessage::Adopted { color: 0 };
        assert_eq!(m.bit_size(), 2);
    }
}
