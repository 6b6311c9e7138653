//! A bounded model checker for CONGEST algorithms under message faults.
//!
//! Randomized fault injection ([`crate::faults`]) samples the schedule
//! space; this module **exhausts** it on tiny instances, dslab-mp-style:
//! every way of placing up to `max_faults` message faults (drop, duplicate,
//! one-round delay) into every round of an execution is explored, depth
//! first, and the coloring invariants are checked after every round —
//!
//! * **properness**: no two adjacent nodes ever hold the same committed
//!   color ([`Violation::ImproperEdge`]), which subsumes "no node halts
//!   with a conflicting neighbor" since committed colors are checked the
//!   round they appear;
//! * **bounded termination**: every node halts within `max_rounds`
//!   ([`Violation::NoTermination`], when the configuration requires it).
//!
//! # State-space bounds
//!
//! The explorer is exhaustive only because the instances are tiny:
//! [`check`] enforces `n ≤ `[`MC_MAX_NODES`]` = 8` nodes and
//! `max_rounds ≤ `[`MC_MAX_ROUNDS`]` = 6` rounds.  With `m` directed
//! messages per round the branching factor is `(1 + faults) ^ m` per round,
//! tamed by the fault budget: exploration proceeds by **iterative
//! deepening** over the number of faults (budget `0`, then `1`, …, up to
//! `max_faults`), so the first counterexample found uses the *minimum*
//! number of faults that can violate an invariant — a minimal trace.  An
//! execution ceiling ([`McConfig::max_executions`]) converts runaway spaces
//! into an explicit [`McVerdict::ExecutionBudgetExhausted`] instead of a
//! hung test.
//!
//! # Determinism and replay
//!
//! The checker routes no message itself.  Each explored schedule is one
//! [`ShardedExecutor`] run ([`InProcess`], [`DeliveryMode::Async`]) over
//! the graph cut one node per shard, so every edge crosses the fault layer
//! ([`FaultyTransport`]), which takes each message's fate from the
//! schedule's faults, keyed by `(round, slot)`.  Committed colors are
//! recorded after `init` and after each `receive`.  A run is a function of
//! the graph, the algorithm and its faults, so a counterexample trace (a
//! list of [`FaultAction`]s) replays exactly with [`replay`], which runs it
//! through the same function as [`check`].  One explored schedule costs
//! one run from round 0 of at most `max_rounds` rounds, with a shard
//! thread spawned for each node but the first: up to 7 threads per run.
//!
//! Delayed and duplicated messages arrive exactly **one round late**
//! (`max_delay = 1` in the fault-plan vocabulary); longer delays add
//! nothing on instances this small and would square the branching factor.
//!
//! # Search order
//!
//! Each message of a run is a *position*; positions are ordered by round,
//! then sender, then receiving slot.  The search is depth first: at each
//! position no fault comes before [`McFault::Drop`], [`McFault::Duplicate`]
//! and [`McFault::Delay`] (each if allowed and the budget has a fault
//! left), and the last position is varied first.  The next schedule keeps
//! the faults before that position and re-runs from round 0.  A schedule
//! that breaks properness is reported from the first round that shows a
//! violation, in [`check_coloring`]'s scan order, and counts no execution;
//! every other schedule counts one, and one that reaches the round bound
//! with a node running counts it before [`Violation::NoTermination`].
//!
//! The [`fixtures`] module ships a pair of tiny greedy coloring algorithms
//! — one intentionally unprotected, one hardened — that pin the explorer's
//! soundness in both directions: it must find the seeded violation and
//! must pass the hardened variant under the same budget.

use std::sync::{Arc, Mutex};

use crate::algorithm::{Inbox, NodeAlgorithm, NodeContext, Outbox};
use crate::executor::{DeliveryMode, ShardedExecutor};
use crate::faults::{check_coloring, FaultKind, FaultyTransport, InvariantViolation, Script};
use crate::sharded::ShardedTopology;
use crate::simulator::{Simulator, SimulatorConfig};
use crate::topology::TopologyView;
use crate::transport::InProcess;

/// Hard ceiling on instance size: exhaustive exploration is only honest on
/// graphs at most this large.
pub const MC_MAX_NODES: usize = 8;

/// Hard ceiling on explored rounds.
pub const MC_MAX_ROUNDS: u64 = 6;

/// An algorithm the model checker can interrogate mid-run: a
/// [`NodeAlgorithm`] that exposes the color it has irrevocably committed
/// to (as opposed to [`NodeAlgorithm::output`], which is only meaningful
/// at termination).  Its runs must be deterministic: the checker re-runs
/// every schedule from round 0.
pub trait CheckableAlgorithm: NodeAlgorithm {
    /// The color this node has committed to, if any.  Once `Some`, it must
    /// never change — the properness invariant is checked against it after
    /// every round.
    fn committed_color(&self) -> Option<u64>;
}

/// A fault the explorer can inject into one message delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum McFault {
    /// The message is not delivered.
    Drop,
    /// The message is delivered now *and* a stale copy arrives next round.
    Duplicate,
    /// The message is withheld and arrives one round late instead.
    Delay,
}

/// One injected fault, fully located: enough to replay the execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultAction {
    /// The round in which the faulted message was sent.
    pub round: u64,
    /// The destination inbox slot (a directed edge's receiving port).
    pub slot: u32,
    /// The sending node.
    pub sender: u32,
    /// The receiving node (the owner of `slot`).
    pub receiver: u32,
    /// The injected fault.
    pub kind: McFault,
}

impl std::fmt::Display for FaultAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "r{}: {:?} message {}→{} (slot {})",
            self.round, self.kind, self.sender, self.receiver, self.slot
        )
    }
}

/// A violated invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// Two adjacent nodes committed the same color.
    ImproperEdge {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
        /// The shared committed color.
        color: u64,
    },
    /// Some node had not halted when the round bound was reached.
    NoTermination {
        /// The bound that was hit.
        rounds: u64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::ImproperEdge { u, v, color } => {
                write!(f, "adjacent nodes {u} and {v} committed color {color}")
            }
            Violation::NoTermination { rounds } => {
                write!(f, "not all nodes halted within {rounds} rounds")
            }
        }
    }
}

/// A minimal counterexample: the violation plus the fault trace that
/// produces it (deliveries not listed are fault-free).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// What broke.
    pub violation: Violation,
    /// The minimal fault placement that breaks it, in injection order.
    pub trace: Vec<FaultAction>,
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "violation: {}", self.violation)?;
        writeln!(f, "minimal fault trace ({} fault(s)):", self.trace.len())?;
        for a in &self.trace {
            writeln!(f, "  {a}")?;
        }
        Ok(())
    }
}

/// The explorer's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McVerdict {
    /// Every explored execution kept every invariant.
    Pass {
        /// Number of complete executions explored.
        executions: u64,
    },
    /// An invariant broke; the counterexample uses the minimum number of
    /// faults that can break it (iterative deepening over the budget).
    Violated(Counterexample),
    /// The execution ceiling was hit before the space was exhausted — the
    /// verdict is inconclusive and the instance should be shrunk.
    ExecutionBudgetExhausted {
        /// Executions completed before giving up.
        executions: u64,
    },
}

/// Exploration bounds and the fault classes the adversary may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McConfig {
    /// Round bound (≤ [`MC_MAX_ROUNDS`]); executions still running at this
    /// bound are checked for [`Violation::NoTermination`].
    pub max_rounds: u64,
    /// Fault budget per execution; iterative deepening explores budgets
    /// `0..=max_faults` in order.
    pub max_faults: u32,
    /// Whether the adversary may drop messages.
    pub allow_drop: bool,
    /// Whether the adversary may duplicate messages.
    pub allow_duplicate: bool,
    /// Whether the adversary may delay messages (by one round).
    pub allow_delay: bool,
    /// Whether failing to halt within `max_rounds` is a violation.
    pub require_termination: bool,
    /// Ceiling on complete executions before the search gives up.
    pub max_executions: u64,
}

impl Default for McConfig {
    fn default() -> Self {
        Self {
            max_rounds: MC_MAX_ROUNDS,
            max_faults: 1,
            allow_drop: true,
            allow_duplicate: true,
            allow_delay: true,
            require_termination: true,
            max_executions: 200_000,
        }
    }
}

/// A node under the checker: the algorithm, and the color it had committed
/// to after `init` and after each of its `receive` calls, its output.
struct Watched<A> {
    node: A,
    colors: Vec<Option<u64>>,
}

impl<A: CheckableAlgorithm> NodeAlgorithm for Watched<A> {
    type Message = A::Message;
    type Output = Vec<Option<u64>>;

    fn init(&mut self, ctx: &NodeContext) {
        self.node.init(ctx);
        self.colors.push(self.node.committed_color());
    }

    fn send(&mut self, ctx: &NodeContext) -> Outbox<A::Message> {
        self.node.send(ctx)
    }

    fn receive(&mut self, ctx: &NodeContext, inbox: &Inbox<'_, A::Message>) {
        self.node.receive(ctx, inbox);
        self.colors.push(self.node.committed_color());
    }

    fn is_halted(&self) -> bool {
        self.node.is_halted()
    }

    fn output(&self) -> Vec<Option<u64>> {
        self.colors.clone()
    }
}

/// Checks the bounds that keep the checker exhaustive, and cuts `topology`
/// into one node per shard.
fn cut(topology: &impl TopologyView, config: &McConfig) -> ShardedTopology {
    let n = topology.num_nodes();
    assert!(
        n <= MC_MAX_NODES,
        "the model checker is exhaustive only up to {MC_MAX_NODES} nodes, got {n}"
    );
    assert!(
        config.max_rounds <= MC_MAX_ROUNDS,
        "the model checker explores at most {MC_MAX_ROUNDS} rounds, got {}",
        config.max_rounds
    );
    ShardedTopology::one_node_per_shard(topology)
}

/// Runs one schedule: `mk`'s nodes on `cut` for up to `config.max_rounds`
/// rounds, with the faults of `trace` placed by `(round, slot)` and every
/// other message delivered in its round.  Returns every message the run
/// sent, in position order, and its verdict: the first round's properness
/// violation; else [`Violation::NoTermination`] if a node was still running
/// at the bound and `config` requires termination; else none.
fn run<A: CheckableAlgorithm>(
    cut: &ShardedTopology,
    mk: impl Fn() -> Vec<A>,
    trace: &[FaultAction],
    config: &McConfig,
) -> (Vec<(u64, u32, u32)>, Option<Violation>) {
    let fate = |kind| match kind {
        McFault::Drop => FaultKind::Dropped,
        McFault::Duplicate => FaultKind::Duplicated,
        McFault::Delay => FaultKind::Delayed { rounds: 1 },
    };
    let script = Arc::new(Mutex::new(Script {
        // Reversed, so that the first action at a `(round, slot)` counts.
        faults: trace
            .iter()
            .rev()
            .map(|a| ((a.round, a.slot), fate(a.kind)))
            .collect(),
        sent: Vec::new(),
    }));
    let nodes = mk().into_iter().map(|node| Watched {
        node,
        colors: Vec::new(),
    });
    let layer = FaultyTransport::scripted(Arc::clone(&script), InProcess);
    let sim = SimulatorConfig {
        max_rounds: config.max_rounds,
        ..SimulatorConfig::default()
    };
    let outcome = Simulator::with_config(cut, sim).run_with_executor(
        nodes.collect(),
        &ShardedExecutor::with_transport(layer).with_delivery(DeliveryMode::Async),
    );
    let colors = outcome.outputs;
    let improper = (0..outcome.metrics.rounds as usize).find_map(|round| {
        let committed: Vec<_> = colors
            .iter()
            .map(|c| c[(round + 1).min(c.len() - 1)])
            .collect();
        match check_coloring(cut, &committed, false)? {
            InvariantViolation::ImproperEdge { u, v, color } => {
                Some(Violation::ImproperEdge { u, v, color })
            }
            InvariantViolation::Unfinished { .. } => None,
        }
    });
    let unfinished = outcome.metrics.hit_round_cap && config.require_termination;
    let violation = improper.or(unfinished.then_some(Violation::NoTermination {
        rounds: config.max_rounds,
    }));
    let mut sent = std::mem::take(&mut script.lock().unwrap_or_else(|e| e.into_inner()).sent);
    sent.sort();
    (sent, violation)
}

/// Moves `fates`, one per position of the last run, to the next schedule
/// in search order (see the [module docs](self)): the last position whose
/// fate can advance takes its next fate, and the positions after it go.
/// Returns `false` once every schedule of `budget` faults or fewer has run.
fn advance(fates: &mut Vec<Option<McFault>>, budget: u32, config: &McConfig) -> bool {
    let kinds = [
        (McFault::Drop, config.allow_drop),
        (McFault::Duplicate, config.allow_duplicate),
        (McFault::Delay, config.allow_delay),
    ];
    while let Some(fate) = fates.pop() {
        if fate.is_none() && fates.iter().flatten().count() as u32 >= budget {
            continue;
        }
        if let Some(&(next, _)) = kinds
            .iter()
            .find(|&&(k, allowed)| allowed && Some(k) > fate)
        {
            fates.push(Some(next));
            return true;
        }
    }
    false
}

/// Exhaustively explores every placement of up to `config.max_faults`
/// faults on executions of the algorithm built by `mk`, on `topology`
/// (`n ≤ `[`MC_MAX_NODES`], `max_rounds ≤ `[`MC_MAX_ROUNDS`] — enforced by
/// panic, since violating the bounds silently would fake exhaustiveness).
///
/// Iterative deepening over the fault budget guarantees that a
/// [`McVerdict::Violated`] counterexample uses the minimum number of
/// faults able to break an invariant.
pub fn check<T: TopologyView, A: CheckableAlgorithm, F: Fn() -> Vec<A>>(
    topology: &T,
    mk: F,
    config: &McConfig,
) -> McVerdict {
    let cut = cut(topology, config);
    let mut executions = 0;
    for budget in 0..=config.max_faults {
        // The last run's messages, and the schedule's fates for a prefix
        // of them: every later message runs fault-free.
        let (mut positions, mut fates) = (Vec::new(), Vec::new());
        loop {
            let placed = positions.iter().zip(&fates);
            let trace: Vec<FaultAction> = placed
                .filter_map(|(&(round, sender, slot), &fate)| {
                    Some(FaultAction {
                        round,
                        slot,
                        sender,
                        // In the cut, the shard owning a slot is its node.
                        receiver: cut.shard_of_slot(slot as usize) as u32,
                        kind: fate?,
                    })
                })
                .collect();
            let (sent, violation) = run(&cut, &mk, &trace, config);
            if !matches!(violation, Some(Violation::ImproperEdge { .. })) {
                executions += 1;
                if executions > config.max_executions {
                    return McVerdict::ExecutionBudgetExhausted { executions };
                }
            }
            if let Some(violation) = violation {
                return McVerdict::Violated(Counterexample { violation, trace });
            }
            assert!(
                sent.starts_with(&positions[..fates.len()]),
                "a re-run sent other messages before its first new fate: \
                 the algorithm must be deterministic"
            );
            fates.resize(sent.len(), None);
            positions = sent;
            if !advance(&mut fates, budget, config) {
                break;
            }
        }
    }
    McVerdict::Pass { executions }
}

/// Re-executes one run deterministically, injecting exactly the faults of
/// `trace` (matched by `(round, slot, kind)`), and returns the first
/// violation — [`check`]'s counterexamples reproduce under `replay` with
/// the same violation, which the determinism tests pin.
pub fn replay<T: TopologyView, A: CheckableAlgorithm, F: Fn() -> Vec<A>>(
    topology: &T,
    mk: F,
    trace: &[FaultAction],
    config: &McConfig,
) -> Option<Violation> {
    run(&cut(topology, config), mk, trace, config).1
}

pub mod fixtures {
    //! Tiny greedy coloring algorithms that pin the explorer's soundness.
    //!
    //! [`GreedyUnprotected`] is fault-free correct but **intentionally
    //! unprotected**: a single dropped message makes two adjacent nodes
    //! commit the same color, so the explorer must find a one-fault
    //! counterexample.  [`GreedyRobust`] hardens the same algorithm with
    //! persistent per-port knowledge, idempotent re-announcement and a
    //! halting grace period, and must pass under the same budget.

    use super::CheckableAlgorithm;
    use crate::algorithm::{Inbox, MessageSize, NodeAlgorithm, NodeContext, Outbox};
    use crate::wire::{color_width, read_color, write_color, BitReader, BitWriter, WireError};

    /// The two-message vocabulary of the greedy fixtures.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum GreedyMessage {
        /// "I have not decided yet; my identifier is `id`."
        Undecided {
            /// The sender's unique identifier.
            id: u64,
        },
        /// "I have committed to `color`."
        Decided {
            /// The committed color.
            color: u64,
        },
    }

    impl MessageSize for GreedyMessage {
        fn bit_size(&self) -> u64 {
            1 + match self {
                GreedyMessage::Undecided { id } => color_width(*id) as u64,
                GreedyMessage::Decided { color } => color_width(*color) as u64,
            }
        }
    }

    impl crate::wire::WireMessage for GreedyMessage {
        fn encode(&self, w: &mut BitWriter) -> u8 {
            match self {
                GreedyMessage::Undecided { id } => {
                    w.write_bits(0, 1);
                    write_color(w, *id);
                }
                GreedyMessage::Decided { color } => {
                    w.write_bits(1, 1);
                    write_color(w, *color);
                }
            }
            0
        }

        fn decode(r: &mut BitReader<'_>, bits: u16, _aux: u8) -> Result<Self, WireError> {
            let tag = r.read_bits(1)?;
            let value = read_color(r, bits as u32 - 1)?;
            Ok(if tag == 0 {
                GreedyMessage::Undecided { id: value }
            } else {
                GreedyMessage::Decided { color: value }
            })
        }
    }

    /// Greedy coloring by local identifier order, with **single-shot**
    /// announcements: correct when every message arrives, broken by one
    /// drop.  An undecided node broadcasts its identifier; it commits to
    /// the smallest free color in any round where it hears no smaller
    /// undecided identifier; it announces the color once and halts.
    ///
    /// Two failure modes, both reachable with one fault:
    /// a dropped `Undecided` unblocks a larger neighbor into deciding in
    /// the same round with the same free-color view, and a dropped
    /// `Decided` leaves the neighborhood unaware a color is taken.
    #[derive(Debug, Clone, Default)]
    pub struct GreedyUnprotected {
        id: u64,
        decided: Option<u64>,
        announced: bool,
        taken: u64,
    }

    impl GreedyUnprotected {
        /// One undecided, unannounced node.
        pub fn new() -> Self {
            Self::default()
        }
    }

    fn first_free(taken: u64) -> u64 {
        (0..64).find(|c| taken & (1 << c) == 0).expect("free color") as u64
    }

    impl NodeAlgorithm for GreedyUnprotected {
        type Message = GreedyMessage;
        type Output = Option<u64>;

        fn init(&mut self, ctx: &NodeContext) {
            self.id = ctx.node as u64;
        }

        fn send(&mut self, _ctx: &NodeContext) -> Outbox<GreedyMessage> {
            match self.decided {
                None => Outbox::Broadcast(GreedyMessage::Undecided { id: self.id }),
                Some(color) if !self.announced => {
                    self.announced = true;
                    Outbox::Broadcast(GreedyMessage::Decided { color })
                }
                Some(_) => Outbox::Silent,
            }
        }

        fn receive(&mut self, _ctx: &NodeContext, inbox: &Inbox<'_, GreedyMessage>) {
            let mut blocked = false;
            for (_, m) in inbox.iter() {
                match m {
                    GreedyMessage::Undecided { id } if *id < self.id => blocked = true,
                    GreedyMessage::Undecided { .. } => {}
                    GreedyMessage::Decided { color } => self.taken |= 1 << color,
                }
            }
            if self.decided.is_none() && !blocked {
                self.decided = Some(first_free(self.taken));
            }
        }

        fn is_halted(&self) -> bool {
            self.announced
        }

        fn output(&self) -> Option<u64> {
            self.decided
        }
    }

    impl CheckableAlgorithm for GreedyUnprotected {
        fn committed_color(&self) -> Option<u64> {
            self.decided
        }
    }

    /// What a [`GreedyRobust`] node knows about one port's neighbor.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum PortKnowledge {
        Unknown,
        Active(u64),
        Done(u64),
    }

    /// The hardened greedy coloring: same identifier-order rule as
    /// [`GreedyUnprotected`], made fault- and reorder-tolerant by
    ///
    /// * **persistent per-port knowledge** — a port is `Unknown` until its
    ///   neighbor is heard, so a dropped message blocks (delays) instead
    ///   of unblocking;
    /// * **idempotent re-announcement** — every round re-broadcasts the
    ///   current state, and `Done` knowledge is sticky, so duplicates and
    ///   stale copies change nothing;
    /// * **a halting grace period** — a node does not halt until it has
    ///   broadcast its `Decided` color at least `grace + 1` times *and*
    ///   all its ports are `Done`, so up to `grace` dropped announcements
    ///   per edge cannot strand a neighbor: at least one announcement gets
    ///   through before the sender goes silent.
    ///
    /// Declares [`NodeAlgorithm::tolerates_async_delivery`], and must pass
    /// the explorer whenever the fault budget is at most `grace`.
    #[derive(Debug, Clone)]
    pub struct GreedyRobust {
        id: u64,
        grace: u64,
        decided: Option<u64>,
        ports: Vec<PortKnowledge>,
        announcements: u64,
        halted: bool,
    }

    impl GreedyRobust {
        /// A node that makes `grace` extra announcements before halting;
        /// pick `grace ≥` the adversary's fault budget.
        pub fn new(grace: u64) -> Self {
            Self {
                id: 0,
                grace,
                decided: None,
                ports: Vec::new(),
                announcements: 0,
                halted: false,
            }
        }
    }

    impl NodeAlgorithm for GreedyRobust {
        type Message = GreedyMessage;
        type Output = Option<u64>;

        fn init(&mut self, ctx: &NodeContext) {
            self.id = ctx.node as u64;
            self.ports = vec![PortKnowledge::Unknown; ctx.degree];
        }

        fn send(&mut self, _ctx: &NodeContext) -> Outbox<GreedyMessage> {
            match self.decided {
                None => Outbox::Broadcast(GreedyMessage::Undecided { id: self.id }),
                Some(color) => {
                    self.announcements += 1;
                    Outbox::Broadcast(GreedyMessage::Decided { color })
                }
            }
        }

        fn receive(&mut self, _ctx: &NodeContext, inbox: &Inbox<'_, GreedyMessage>) {
            for (p, m) in inbox.iter() {
                match m {
                    // Done is sticky: a stale Undecided arriving after the
                    // neighbor's color is known must not reopen the port.
                    GreedyMessage::Undecided { id } => {
                        if !matches!(self.ports[p], PortKnowledge::Done(_)) {
                            self.ports[p] = PortKnowledge::Active(*id);
                        }
                    }
                    GreedyMessage::Decided { color } => {
                        self.ports[p] = PortKnowledge::Done(*color);
                    }
                }
            }
            if self.decided.is_none() {
                let blocked = self.ports.iter().any(|k| match k {
                    PortKnowledge::Unknown => true,
                    PortKnowledge::Active(id) => *id < self.id,
                    PortKnowledge::Done(_) => false,
                });
                if !blocked {
                    let taken = self.ports.iter().fold(0u64, |acc, k| match k {
                        PortKnowledge::Done(c) => acc | (1 << c),
                        _ => acc,
                    });
                    self.decided = Some(first_free(taken));
                }
            }
            let all_done = self
                .ports
                .iter()
                .all(|k| matches!(k, PortKnowledge::Done(_)));
            if self.decided.is_some() && all_done && self.announcements > self.grace {
                self.halted = true;
            }
        }

        fn is_halted(&self) -> bool {
            self.halted
        }

        fn output(&self) -> Option<u64> {
            self.decided
        }

        fn tolerates_async_delivery(&self) -> bool {
            true
        }
    }

    impl CheckableAlgorithm for GreedyRobust {
        fn committed_color(&self) -> Option<u64> {
            self.decided
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::{GreedyRobust, GreedyUnprotected};
    use super::*;
    use crate::topology::Topology;

    fn path2() -> Topology {
        Topology::from_edges(2, &[(0, 1)]).unwrap()
    }

    fn triangle() -> Topology {
        Topology::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn mc_fault_free_greedy_passes_at_budget_zero() {
        let config = McConfig {
            max_faults: 0,
            ..McConfig::default()
        };
        for g in [path2(), triangle()] {
            let n = g.num_nodes();
            let verdict = check(&g, || vec![GreedyUnprotected::new(); n], &config);
            assert!(matches!(verdict, McVerdict::Pass { executions: 1 }));
        }
    }

    #[test]
    fn mc_unprotected_greedy_breaks_with_one_fault_and_replays() {
        let g = path2();
        let config = McConfig::default();
        let mk = || vec![GreedyUnprotected::new(); 2];
        let verdict = check(&g, mk, &config);
        let McVerdict::Violated(ce) = verdict else {
            panic!("expected a violation, got {verdict:?}");
        };
        assert_eq!(
            ce.trace.len(),
            1,
            "one fault suffices, so the minimal trace has one action"
        );
        assert!(matches!(
            ce.violation,
            Violation::ImproperEdge { u: 0, v: 1, .. }
        ));
        // The trace replays to the identical violation.
        assert_eq!(replay(&g, mk, &ce.trace, &config), Some(ce.violation));
        // And the zero-fault replay is clean.
        assert_eq!(replay(&g, mk, &[], &config), None);
    }

    #[test]
    fn mc_unprotected_greedy_breaks_on_the_triangle_too() {
        let g = triangle();
        let mk = || vec![GreedyUnprotected::new(); 3];
        let verdict = check(&g, mk, &McConfig::default());
        let McVerdict::Violated(ce) = verdict else {
            panic!("expected a violation, got {verdict:?}");
        };
        assert_eq!(ce.trace.len(), 1);
        assert_eq!(
            replay(&g, mk, &ce.trace, &McConfig::default()),
            Some(ce.violation)
        );
    }

    #[test]
    fn mc_robust_greedy_passes_under_the_same_budget() {
        for g in [path2(), triangle()] {
            let n = g.num_nodes();
            let verdict = check(&g, || vec![GreedyRobust::new(1); n], &McConfig::default());
            assert!(
                matches!(verdict, McVerdict::Pass { .. }),
                "robust greedy must survive one fault on {n} nodes, got {verdict:?}"
            );
        }
    }

    #[test]
    fn mc_execution_ceiling_is_an_explicit_verdict() {
        let config = McConfig {
            max_executions: 3,
            max_faults: 2,
            ..McConfig::default()
        };
        let verdict = check(&triangle(), || vec![GreedyRobust::new(2); 3], &config);
        assert!(matches!(
            verdict,
            McVerdict::ExecutionBudgetExhausted { executions: 4 }
        ));
    }

    #[test]
    #[should_panic(expected = "exhaustive only up to")]
    fn mc_rejects_oversized_instances() {
        let g = Topology::from_edges(9, &[(0, 1)]).unwrap();
        let _ = check(
            &g,
            || vec![GreedyUnprotected::new(); 9],
            &McConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn mc_rejects_oversized_round_bounds() {
        let config = McConfig {
            max_rounds: 7,
            ..McConfig::default()
        };
        let _ = check(&path2(), || vec![GreedyUnprotected::new(); 2], &config);
    }
}
