//! Color-class elimination: from `C` colors down to `Δ+1`, one class per round.
//!
//! The paper observes (Section 1.1) that the `k = 1` run of the mother
//! algorithm produces an `O(Δ)`-coloring in `O(Δ)` rounds, and that "we can
//! use an additional `O(Δ)` rounds in each of which we remove a single color
//! class to transform it into a `(Δ+1)`-coloring".  This module is that
//! standard color-class elimination, implemented as a CONGEST algorithm:
//!
//! * in round `t`, nodes whose current color is `Δ+1+t` (an independent set,
//!   because the coloring is proper) recolor to the smallest color in
//!   `[Δ+1]` not used by any neighbour;
//! * every node broadcasts its current color every round, so the nodes being
//!   recolored always see up-to-date neighbourhoods;
//! * after `C - (Δ+1)` rounds no color `≥ Δ+1` remains and everybody halts.

use dcme_algebra::logstar::bits_for;
use dcme_congest::{
    ExecutionMode, Inbox, MessageSize, NodeAlgorithm, NodeContext, Outbox, RunMetrics, Simulator,
    SimulatorConfig, Topology,
};
use dcme_graphs::coloring::Coloring;
use dcme_graphs::verify;

use crate::error::ColoringError;

/// Message: the sender's current color.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CurrentColor(pub u64);

impl MessageSize for CurrentColor {
    fn bit_size(&self) -> u64 {
        bits_for(self.0 + 1) as u64
    }
}

impl dcme_congest::WireMessage for CurrentColor {
    fn encode(&self, w: &mut dcme_congest::BitWriter) -> u8 {
        dcme_congest::wire::write_color(w, self.0);
        0
    }

    fn decode(
        r: &mut dcme_congest::BitReader<'_>,
        bits: u16,
        _aux: u8,
    ) -> Result<Self, dcme_congest::WireError> {
        dcme_congest::wire::read_color(r, bits as u32).map(CurrentColor)
    }
}

/// Per-node state machine of the elimination schedule.
struct EliminationNode {
    color: u64,
    /// Target palette size (usually `Δ+1`).
    target: u64,
    /// Number of rounds to run: `max(0, C - target)`.
    total_rounds: u64,
    rounds_done: u64,
}

impl NodeAlgorithm for EliminationNode {
    type Message = CurrentColor;
    type Output = u64;

    fn init(&mut self, _ctx: &NodeContext) {}

    fn send(&mut self, _ctx: &NodeContext) -> Outbox<CurrentColor> {
        Outbox::Broadcast(CurrentColor(self.color))
    }

    fn receive(&mut self, ctx: &NodeContext, inbox: &Inbox<'_, CurrentColor>) {
        // Round t eliminates color class `target + t`.
        let eliminated = self.target + ctx.round;
        if self.color == eliminated {
            // `deg(v)` neighbours leave one of the colors `0..=deg(v)` free,
            // so mark the heard colors below that bound (and the target):
            // the first clear bit is the smallest free color.
            let bound = self.target.min(ctx.degree as u64 + 1);
            let mut heard = vec![0u64; bound.div_ceil(64) as usize];
            for (_, &CurrentColor(c)) in inbox.iter() {
                if c < bound {
                    heard[(c / 64) as usize] |= 1 << (c % 64);
                }
            }
            let free = (heard.iter().enumerate())
                .find(|(_, &word)| word != u64::MAX)
                .map(|(i, word)| 64 * i as u64 + word.trailing_ones() as u64)
                .filter(|&c| c < bound)
                .expect("a node has at most Δ neighbours, so [Δ+1] has a free color");
            self.color = free;
        }
        self.rounds_done += 1;
    }

    fn is_halted(&self) -> bool {
        self.rounds_done >= self.total_rounds
    }

    fn output(&self) -> u64 {
        self.color
    }
}

/// Reduces a proper `C`-coloring to a proper `target`-coloring in
/// `max(0, C - target)` rounds by eliminating one color class per round.
///
/// `target` must be at least `Δ+1`.
pub fn reduce_to_target(
    topology: &Topology,
    input: &Coloring,
    target: u64,
    mode: ExecutionMode,
) -> Result<(Coloring, RunMetrics), ColoringError> {
    if input.len() != topology.num_nodes() {
        return Err(ColoringError::InputSizeMismatch {
            nodes: topology.num_nodes(),
            colors: input.len(),
        });
    }
    if target < topology.max_degree() as u64 + 1 {
        return Err(ColoringError::InvalidParameter {
            reason: format!(
                "elimination target {target} is below Δ+1 = {}",
                topology.max_degree() + 1
            ),
        });
    }
    verify::check_proper(topology, input).map_err(ColoringError::ImproperInput)?;

    let total_rounds = input.palette().saturating_sub(target);
    if total_rounds == 0 {
        return Ok((input.clone(), RunMetrics::default()));
    }

    let nodes: Vec<EliminationNode> = (0..topology.num_nodes())
        .map(|v| EliminationNode {
            color: input.color(v),
            target,
            total_rounds,
            rounds_done: 0,
        })
        .collect();

    let sim = Simulator::with_config(
        topology,
        SimulatorConfig {
            max_rounds: total_rounds + 1,
            mode,
        },
    );
    let outcome = sim.run(nodes);
    let coloring = Coloring::new(outcome.outputs, target);
    Ok((coloring, outcome.metrics))
}

/// Reduces a proper coloring to a `(Δ+1)`-coloring by class elimination.
pub fn delta_plus_one_by_elimination(
    topology: &Topology,
    input: &Coloring,
    mode: ExecutionMode,
) -> Result<(Coloring, RunMetrics), ColoringError> {
    reduce_to_target(topology, input, topology.max_degree() as u64 + 1, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcme_graphs::generators;

    #[test]
    fn eliminates_down_to_delta_plus_one() {
        let g = generators::random_regular(100, 6, 1);
        let input = Coloring::from_ids(100);
        let (out, metrics) =
            delta_plus_one_by_elimination(&g, &input, ExecutionMode::Sequential).unwrap();
        verify::check_proper(&g, &out).unwrap();
        assert_eq!(out.palette(), g.max_degree() as u64 + 1);
        assert_eq!(metrics.rounds, 100 - (g.max_degree() as u64 + 1));
    }

    #[test]
    fn already_small_palette_is_a_noop() {
        let g = generators::ring(10);
        let input = Coloring::new(vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 2], 3);
        let (out, metrics) =
            delta_plus_one_by_elimination(&g, &input, ExecutionMode::Sequential).unwrap();
        assert_eq!(out, input);
        assert_eq!(metrics.rounds, 0);
    }

    #[test]
    fn rejects_target_below_delta_plus_one() {
        let g = generators::complete(5);
        let input = Coloring::from_ids(5);
        assert!(matches!(
            reduce_to_target(&g, &input, 3, ExecutionMode::Sequential),
            Err(ColoringError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn rejects_improper_input() {
        let g = generators::ring(4);
        let bad = Coloring::new(vec![5, 5, 6, 7], 8);
        assert!(matches!(
            delta_plus_one_by_elimination(&g, &bad, ExecutionMode::Sequential),
            Err(ColoringError::ImproperInput(_))
        ));
    }

    #[test]
    fn complete_graph_keeps_all_colors() {
        // K_5 needs 5 = Δ+1 colors; elimination from IDs is a no-op palette-wise.
        let g = generators::complete(5);
        let input = Coloring::from_ids(5);
        let (out, _) =
            delta_plus_one_by_elimination(&g, &input, ExecutionMode::Sequential).unwrap();
        verify::check_proper(&g, &out).unwrap();
        assert_eq!(out.distinct_colors(), 5);
    }

    #[test]
    fn custom_target_above_delta_plus_one() {
        let g = generators::random_regular(80, 4, 9);
        let input = Coloring::from_ids(80);
        let (out, metrics) = reduce_to_target(&g, &input, 10, ExecutionMode::Sequential).unwrap();
        verify::check_proper(&g, &out).unwrap();
        assert!(out.palette() == 10);
        assert_eq!(metrics.rounds, 70);
    }

    #[test]
    fn parallel_mode_matches_sequential() {
        let g = generators::gnp(60, 0.1, 4);
        let input = Coloring::from_ids(60);
        let (a, _) = delta_plus_one_by_elimination(&g, &input, ExecutionMode::Sequential).unwrap();
        let (b, _) =
            delta_plus_one_by_elimination(&g, &input, ExecutionMode::Parallel { threads: 4 })
                .unwrap();
        assert_eq!(a, b);
    }
}
