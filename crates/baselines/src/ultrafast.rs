//! The \[HNT21\] *Ultrafast Distributed Coloring of High Degree Graphs*
//! (arXiv:2105.04700) structure, as a `(Δ+1)`-coloring baseline.
//!
//! The paper's round structure — not its `O(log³ log n)` analysis — is what
//! is reproduced here, phase for phase:
//!
//! 1. **Slack generation** (round 0): each node independently participates
//!    with constant probability and tries one uniform color from `[Δ+1]`.
//!    Same-colored neighbour pairs "burn" a color together, creating
//!    permanent slack for everyone adjacent to the pair.  The observations
//!    of this round also drive the almost-clique-style bucketing
//!    ([`crate::rand_primitives::classify_slack`]): a node that witnessed a repeat
//!    is provably next to slack and keeps gambling; a node whose sampled
//!    neighbourhood was rainbow-like is treated as an almost-clique member.
//! 2. **Synchronized color trials** (rounds `1..T`, `T = O(log log n)`):
//!    slack-blessed nodes draw a sparsified candidate batch
//!    ([`crate::rand_primitives::sample_candidates`]) and try its first free
//!    color; ties are symmetric (all proposers of a contested color fail),
//!    exactly the TryColor step whose per-round success probability the
//!    slack argument amplifies.
//! 3. **Fallback** (dense nodes immediately; everyone from round `T`):
//!    the deterministic low-slack completion — propose the smallest free
//!    color, lose only to a smaller-id proposer of the same color.  A
//!    fallback proposal also outranks every same-round random trial, so
//!    the fallback set always makes progress (its id-minimum succeeds every
//!    round), which bounds the run unconditionally — the randomized phases
//!    only ever *accelerate* termination, they cannot endanger it.
//!
//! All randomness is drawn from the stateless `(seed, node, round)` streams
//! of [`crate::rand_primitives::round_rng`], so a fixed seed produces bit-identical
//! runs on every executor and transport backend (pinned by
//! `tests/executor_equivalence.rs`).

use dcme_algebra::logstar::{bits_for, ceil_log2};
use dcme_congest::{
    ExecutionMode, Inbox, MessageSize, NodeAlgorithm, NodeContext, Outbox, RunMetrics, Simulator,
    SimulatorConfig, Topology,
};
use dcme_graphs::coloring::Coloring;
use dcme_graphs::verify;
use rand::distr::Bernoulli;
use rand::RngExt;

use crate::bitset::ColorSet;
use crate::rand_primitives::{
    classify_slack, round_rng, sample_candidates, uniform_free_color, Bucket, TryColorCore,
};

/// Participation probability of the slack-generation round.
const SLACK_PARTICIPATION: f64 = 0.25;

/// Size of the sparsified candidate batch of a synchronized trial.
const TRIAL_CANDIDATES: usize = 4;

/// Messages of the ultrafast structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UltrafastMessage {
    /// A random color trial (slack generation or synchronized trial);
    /// contested trials fail symmetrically.
    Try {
        /// the tried color
        color: u64,
    },
    /// A finalised color announcement.
    Adopt {
        /// the adopted color
        color: u64,
    },
    /// A deterministic fallback proposal; outranks every same-round `Try`
    /// and loses only to a smaller-id fallback proposal of the same color.
    Fallback {
        /// the proposed color
        color: u64,
        /// the sender's unique id (smaller wins)
        id: u64,
    },
}

impl MessageSize for UltrafastMessage {
    fn bit_size(&self) -> u64 {
        2 + match self {
            UltrafastMessage::Try { color } | UltrafastMessage::Adopt { color } => {
                bits_for(color + 1) as u64
            }
            UltrafastMessage::Fallback { color, id } => {
                bits_for(color + 1) as u64 + bits_for(id + 1) as u64
            }
        }
    }
}

impl dcme_congest::WireMessage for UltrafastMessage {
    fn encode(&self, w: &mut dcme_congest::BitWriter) -> u8 {
        match self {
            UltrafastMessage::Try { color } => {
                w.write_bits(0, 2);
                dcme_congest::wire::write_color(w, *color);
                0
            }
            UltrafastMessage::Adopt { color } => {
                w.write_bits(1, 2);
                dcme_congest::wire::write_color(w, *color);
                0
            }
            // Two variable-width fields: the color width travels in the aux
            // framing byte so the decoder knows where to split the payload.
            UltrafastMessage::Fallback { color, id } => {
                w.write_bits(2, 2);
                dcme_congest::wire::write_color(w, *color);
                dcme_congest::wire::write_color(w, *id);
                dcme_congest::wire::color_width(*color) as u8
            }
        }
    }

    fn decode(
        r: &mut dcme_congest::BitReader<'_>,
        bits: u16,
        aux: u8,
    ) -> Result<Self, dcme_congest::WireError> {
        let tag = r.read_bits(2)?;
        let rest = bits as u32 - 2;
        match tag {
            0 | 1 => {
                let color = dcme_congest::wire::read_color(r, rest)?;
                Ok(if tag == 0 {
                    UltrafastMessage::Try { color }
                } else {
                    UltrafastMessage::Adopt { color }
                })
            }
            2 => {
                let color_bits = aux as u32;
                if color_bits == 0 || color_bits >= rest {
                    return Err(dcme_congest::WireError::BadLength {
                        len: color_bits as usize,
                        limit: rest.saturating_sub(1) as usize,
                    });
                }
                let color = dcme_congest::wire::read_color(r, color_bits)?;
                let id = dcme_congest::wire::read_color(r, rest - color_bits)?;
                Ok(UltrafastMessage::Fallback { color, id })
            }
            other => Err(dcme_congest::WireError::BadTag(other)),
        }
    }
}

/// What a node broadcast this round (drives the asymmetric conflict rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SentKind {
    Nothing,
    Try,
    Fallback,
}

/// The round index from which every still-active node runs the fallback:
/// 1 slack-generation round plus an `O(log log n)` synchronized-trial phase.
pub fn trial_phase_end(n: usize) -> u64 {
    let lg = u64::from(ceil_log2(n as u64 + 2));
    1 + 4 + 2 * u64::from(ceil_log2(lg + 2))
}

/// A generous unconditional round cap: the trial phases plus a worst-case
/// sequential fallback chain (one finalisation per two rounds) plus the
/// announce slack.  Real runs finish orders of magnitude earlier.
pub fn round_cap(n: usize) -> u64 {
    trial_phase_end(n) + 2 * n as u64 + 16
}

/// The per-node state machine of the ultrafast structure.
#[derive(Clone)]
pub struct UltrafastNode {
    seed: u64,
    id: u64,
    palette: u64,
    trials_end: u64,
    bucket: Bucket,
    sent: SentKind,
    core: TryColorCore,
}

impl UltrafastNode {
    /// Creates the state machine; everything else (id, palette `Δ+1`, phase
    /// lengths) is derived from the [`NodeContext`] in `init`, so one
    /// constructor works on every executor and in every worker process.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            id: 0,
            palette: 1,
            trials_end: 1,
            bucket: Bucket::Sparse,
            sent: SentKind::Nothing,
            core: TryColorCore::new(),
        }
    }

    fn smallest_free(&self) -> u64 {
        self.core
            .blocked
            .find_first_free(self.palette)
            .expect("a [Δ+1] palette cannot be exhausted by < Δ+1 finalised neighbours")
    }
}

impl NodeAlgorithm for UltrafastNode {
    type Message = UltrafastMessage;
    type Output = Option<u64>;

    fn init(&mut self, ctx: &NodeContext) {
        self.id = ctx.node as u64;
        self.palette = u64::from(ctx.max_degree) + 1;
        self.trials_end = trial_phase_end(ctx.n);
    }

    fn send(&mut self, ctx: &NodeContext) -> Outbox<UltrafastMessage> {
        if let Some(color) = self.core.take_announcement() {
            self.sent = SentKind::Nothing;
            return Outbox::Broadcast(UltrafastMessage::Adopt { color });
        }
        if self.core.finalized.is_some() {
            // Unreachable: the node halts at the end of its announce round.
            return Outbox::Silent;
        }
        let mut rng = round_rng(self.seed, self.id, ctx.round);
        if ctx.round == 0 {
            // Phase 1: slack generation.
            let participates = rng.sample(
                Bernoulli::new(SLACK_PARTICIPATION).expect("constant probability is valid"),
            );
            if !participates {
                self.core.clear_proposal();
                self.sent = SentKind::Nothing;
                return Outbox::Silent;
            }
            let color = self.core.propose(rng.random_range(0..self.palette));
            self.sent = SentKind::Try;
            Outbox::Broadcast(UltrafastMessage::Try { color })
        } else if ctx.round < self.trials_end && self.bucket == Bucket::Sparse {
            // Phase 2: synchronized trial over a sparsified candidate batch.
            let color = sample_candidates(&mut rng, self.palette, TRIAL_CANDIDATES)
                .into_iter()
                .find(|&c| !self.core.blocked.contains(c))
                .unwrap_or_else(|| {
                    uniform_free_color(&mut rng, self.palette, &self.core.blocked)
                        .expect("a [Δ+1] palette always has a free color")
                });
            self.core.propose(color);
            self.sent = SentKind::Try;
            Outbox::Broadcast(UltrafastMessage::Try { color })
        } else {
            // Phase 3: deterministic fallback for low-slack nodes.
            let color = self.core.propose(self.smallest_free());
            self.sent = SentKind::Fallback;
            Outbox::Broadcast(UltrafastMessage::Fallback { color, id: self.id })
        }
    }

    fn receive(&mut self, ctx: &NodeContext, inbox: &Inbox<'_, UltrafastMessage>) {
        if self.core.retire_after_announce() {
            return;
        }
        // Branchless verdict accumulation: the proposal and what-we-sent
        // become comparison masks hoisted out of the loop, and every
        // message contributes `hit & rank` bits to one accumulator
        // instead of steering its own conditional chain.  A fallback
        // proposal outranks every random trial; contested random trials
        // fail symmetrically; competing fallbacks break the tie by id.
        let key = self.core.proposal_key();
        let sent_try = u64::from(self.sent == SentKind::Try);
        let sent_fallback = u64::from(self.sent == SentKind::Fallback);
        let mut beaten = 0u64;
        let (mut tried, mut distinct) = (0usize, 0usize);
        // Only round 0 reads it; `ColorSet::new` allocates nothing.
        let mut seen_round0 = if ctx.round == 0 {
            ColorSet::with_palette(self.palette)
        } else {
            ColorSet::new()
        };
        for (_, msg) in inbox.iter() {
            match msg {
                UltrafastMessage::Adopt { color } => {
                    beaten |= self.core.block_mask(*color);
                }
                UltrafastMessage::Try { color } => {
                    if ctx.round == 0 {
                        tried += 1;
                        distinct += usize::from(seen_round0.insert(*color));
                    }
                    beaten |= u64::from(*color == key) & sent_try;
                }
                UltrafastMessage::Fallback { color, id } => {
                    let outranked = sent_try | (sent_fallback & u64::from(*id < self.id));
                    beaten |= u64::from(*color == key) & outranked;
                }
            }
        }
        if ctx.round == 0 {
            self.bucket = classify_slack(tried, distinct);
        }
        self.core.observe_round(beaten);
    }

    fn is_halted(&self) -> bool {
        self.core.halted()
    }

    fn output(&self) -> Option<u64> {
        self.core.finalized
    }
}

impl dcme_congest::mc::CheckableAlgorithm for UltrafastNode {
    fn committed_color(&self) -> Option<u64> {
        self.core.finalized
    }
}

/// Result of an ultrafast run.
#[derive(Debug, Clone)]
pub struct UltrafastOutcome {
    /// The computed `(Δ+1)`-coloring.
    pub coloring: Coloring,
    /// Round/message accounting.
    pub metrics: RunMetrics,
}

/// Runs the ultrafast `(Δ+1)`-coloring with the given seed.
///
/// # Panics
///
/// Panics only if the unconditional [`round_cap`] is exceeded, which the
/// fallback phase's guaranteed progress makes impossible short of an
/// implementation bug (the postcondition check would catch an improper
/// output the same way).
pub fn ultrafast_coloring(topology: &Topology, seed: u64, mode: ExecutionMode) -> UltrafastOutcome {
    let n = topology.num_nodes();
    let palette = u64::from(topology.max_degree()) + 1;
    let nodes: Vec<UltrafastNode> = (0..n).map(|_| UltrafastNode::new(seed)).collect();
    let sim = Simulator::with_config(
        topology,
        SimulatorConfig {
            max_rounds: round_cap(n).max(32),
            mode,
        },
    );
    let outcome = sim.run(nodes);
    let colors: Vec<u64> = outcome
        .outputs
        .iter()
        .map(|c| c.expect("ultrafast coloring exceeded its unconditional round cap"))
        .collect();
    let coloring = Coloring::new(colors, palette);
    verify::check_proper(topology, &coloring).expect("ultrafast coloring must be proper");
    UltrafastOutcome {
        coloring,
        metrics: outcome.metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcme_graphs::generators;

    #[test]
    fn produces_a_proper_delta_plus_one_coloring_quickly() {
        let g = generators::random_regular(300, 10, 11);
        let out = ultrafast_coloring(&g, 42, ExecutionMode::Sequential);
        verify::check_proper(&g, &out.coloring).unwrap();
        assert!(out.coloring.palette() <= u64::from(g.max_degree()) + 1);
        // Far under the unconditional cap: the trials + fallback converge
        // in a few dozen rounds on graphs this size.
        assert!(out.metrics.rounds <= 80, "rounds {}", out.metrics.rounds);
    }

    #[test]
    fn fixed_seed_runs_are_bit_identical() {
        let g = generators::gnp(200, 0.04, 9);
        let a = ultrafast_coloring(&g, 7, ExecutionMode::Sequential);
        let b = ultrafast_coloring(&g, 7, ExecutionMode::Sequential);
        assert_eq!(a.coloring.colors(), b.coloring.colors());
        assert_eq!(a.metrics.rounds, b.metrics.rounds);
        assert_eq!(a.metrics.messages, b.metrics.messages);
        assert_eq!(a.metrics.total_bits, b.metrics.total_bits);
    }

    #[test]
    fn different_seeds_still_produce_proper_colorings() {
        let g = generators::random_regular(150, 8, 3);
        for seed in 0..5 {
            let out = ultrafast_coloring(&g, seed, ExecutionMode::Sequential);
            verify::check_proper(&g, &out.coloring).unwrap();
        }
    }

    #[test]
    fn survives_adversarial_small_graphs() {
        for g in [
            generators::complete(12),
            generators::star(20),
            generators::path(40),
            generators::empty(5),
        ] {
            let out = ultrafast_coloring(&g, 5, ExecutionMode::Sequential);
            verify::check_proper(&g, &out.coloring).unwrap();
        }
    }

    #[test]
    fn parallel_executor_matches_sequential() {
        let g = generators::random_regular(120, 6, 21);
        let seq = ultrafast_coloring(&g, 3, ExecutionMode::Sequential);
        let par = ultrafast_coloring(&g, 3, ExecutionMode::Parallel { threads: 4 });
        assert_eq!(seq.coloring.colors(), par.coloring.colors());
        assert_eq!(seq.metrics.rounds, par.metrics.rounds);
        assert_eq!(seq.metrics.messages, par.metrics.messages);
    }

    #[test]
    fn phase_schedule_grows_doubly_logarithmically() {
        assert!(trial_phase_end(10) <= trial_phase_end(1 << 20));
        assert!(
            trial_phase_end(1 << 20) <= 16,
            "trials phase must stay O(log log n)-sized"
        );
        assert!(round_cap(100) > trial_phase_end(100));
    }

    #[test]
    fn message_size_accounting() {
        assert_eq!(UltrafastMessage::Try { color: 255 }.bit_size(), 2 + 8);
        assert_eq!(UltrafastMessage::Adopt { color: 0 }.bit_size(), 3);
        assert_eq!(
            UltrafastMessage::Fallback { color: 3, id: 7 }.bit_size(),
            2 + 2 + 3
        );
    }
}
