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
//! The explorer injects faults directly at the delivery step of a
//! single-threaded round loop — no transport, no threads — so a
//! counterexample trace (a list of [`FaultAction`]s) replays exactly with
//! [`replay`]: same graph, same algorithm constructor, same trace, same
//! violation.
//!
//! Delayed and duplicated messages arrive exactly **one round late**
//! (`max_delay = 1` in the fault-plan vocabulary); longer delays add
//! nothing on instances this small and would square the branching factor.
//!
//! The [`fixtures`] module ships a pair of tiny greedy coloring algorithms
//! — one intentionally unprotected, one hardened — that pin the explorer's
//! soundness in both directions: it must find the seeded violation and
//! must pass the hardened variant under the same budget.

use crate::algorithm::{Inbox, NodeAlgorithm, NodeContext, Outbox, PortSlots};
use crate::topology::TopologyView;

/// Hard ceiling on instance size: exhaustive exploration is only honest on
/// graphs at most this large.
pub const MC_MAX_NODES: usize = 8;

/// Hard ceiling on explored rounds.
pub const MC_MAX_ROUNDS: u64 = 6;

/// An algorithm the model checker can interrogate mid-run: a cloneable
/// [`NodeAlgorithm`] that exposes the color it has irrevocably committed
/// to (as opposed to [`NodeAlgorithm::output`], which is only meaningful
/// at termination).
pub trait CheckableAlgorithm: NodeAlgorithm + Clone {
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

/// One branch's mutable execution state.
struct World<A: CheckableAlgorithm> {
    nodes: Vec<A>,
    /// Stale copies in flight: `(delivery round, slot, sender, message)`.
    carry: Vec<(u64, usize, u32, A::Message)>,
    trace: Vec<FaultAction>,
}

impl<A: CheckableAlgorithm> Clone for World<A> {
    fn clone(&self) -> Self {
        Self {
            nodes: self.nodes.clone(),
            carry: self.carry.clone(),
            trace: self.trace.clone(),
        }
    }
}

/// One round's messages, one per directed edge, as `(slot, sender,
/// message)`.
type Sent<M> = Vec<(usize, u32, M)>;

enum Flow {
    Clean,
    Found(Counterexample),
    Exhausted,
}

struct Search<'a, T: TopologyView> {
    topology: &'a T,
    config: &'a McConfig,
    contexts: Vec<NodeContext>,
    /// `slot_owner[s]` is the node whose port range contains slot `s`.
    slot_owner: Vec<u32>,
    executions: u64,
}

impl<T: TopologyView> Search<'_, T> {
    /// Counts one complete execution against the ceiling.
    fn leaf(&mut self) -> Flow {
        self.executions += 1;
        if self.executions > self.config.max_executions {
            Flow::Exhausted
        } else {
            Flow::Clean
        }
    }

    fn committed_violation<A: CheckableAlgorithm>(&self, nodes: &[A]) -> Option<Violation> {
        for v in 0..nodes.len() {
            if let Some(c) = nodes[v].committed_color() {
                for p in 0..self.topology.degree(v) {
                    let u = self.topology.neighbor_at(v, p);
                    if u > v && nodes[u].committed_color() == Some(c) {
                        return Some(Violation::ImproperEdge {
                            u: v,
                            v: u,
                            color: c,
                        });
                    }
                }
            }
        }
        None
    }

    fn explore_round<A: CheckableAlgorithm>(
        &mut self,
        mut world: World<A>,
        round: u64,
        budget_left: u32,
    ) -> Flow {
        if world.nodes.iter().all(|n| n.is_halted()) {
            return self.leaf();
        }
        if round >= self.config.max_rounds {
            let flow = self.leaf();
            if !matches!(flow, Flow::Clean) {
                return flow;
            }
            if self.config.require_termination {
                return Flow::Found(Counterexample {
                    violation: Violation::NoTermination { rounds: round },
                    trace: std::mem::take(&mut world.trace),
                });
            }
            return Flow::Clean;
        }
        // The send phase is fault-independent, so it runs once, before the
        // branch point; only delivery decisions are explored.
        let (active, msgs) = self.send(&mut world.nodes, round);
        let mut chosen: Vec<Option<McFault>> = Vec::with_capacity(msgs.len());
        self.explore_decisions(&world, round, &active, &msgs, &mut chosen, budget_left)
    }

    /// Enumerates the fault assignment for this round's messages, depth
    /// first, fault-free deliveries before faulted ones.
    fn explore_decisions<A: CheckableAlgorithm>(
        &mut self,
        world: &World<A>,
        round: u64,
        active: &[usize],
        msgs: &[(usize, u32, A::Message)],
        chosen: &mut Vec<Option<McFault>>,
        budget_left: u32,
    ) -> Flow {
        if chosen.len() == msgs.len() {
            return self.apply_and_continue(world, round, active, msgs, chosen, budget_left);
        }
        chosen.push(None);
        let flow = self.explore_decisions(world, round, active, msgs, chosen, budget_left);
        chosen.pop();
        if !matches!(flow, Flow::Clean) {
            return flow;
        }
        if budget_left > 0 {
            for (kind, allowed) in [
                (McFault::Drop, self.config.allow_drop),
                (McFault::Duplicate, self.config.allow_duplicate),
                (McFault::Delay, self.config.allow_delay),
            ] {
                if !allowed {
                    continue;
                }
                chosen.push(Some(kind));
                let flow =
                    self.explore_decisions(world, round, active, msgs, chosen, budget_left - 1);
                chosen.pop();
                if !matches!(flow, Flow::Clean) {
                    return flow;
                }
            }
        }
        Flow::Clean
    }

    fn apply_and_continue<A: CheckableAlgorithm>(
        &mut self,
        world: &World<A>,
        round: u64,
        active: &[usize],
        msgs: &[(usize, u32, A::Message)],
        chosen: &[Option<McFault>],
        budget_left: u32,
    ) -> Flow {
        let mut child = world.clone();
        if let Some(violation) = self.step(&mut child, round, active, msgs, chosen) {
            return Flow::Found(Counterexample {
                violation,
                trace: std::mem::take(&mut child.trace),
            });
        }
        self.explore_round(child, round + 1, budget_left)
    }

    /// The initial world: `mk`'s nodes, initialised, with nothing in flight.
    fn start<A: CheckableAlgorithm>(&self, mk: &impl Fn() -> Vec<A>) -> World<A> {
        let mut nodes = mk();
        assert_eq!(
            nodes.len(),
            self.topology.num_nodes(),
            "need exactly one algorithm instance per node"
        );
        for (v, node) in nodes.iter_mut().enumerate() {
            node.init(&self.contexts[v]);
        }
        World {
            nodes,
            carry: Vec::new(),
            trace: Vec::new(),
        }
    }

    /// The send step of one round: the active nodes, and every message they
    /// send.
    fn send<A: CheckableAlgorithm>(
        &self,
        nodes: &mut [A],
        round: u64,
    ) -> (Vec<usize>, Sent<A::Message>) {
        let active: Vec<usize> = (0..nodes.len())
            .filter(|&v| !nodes[v].is_halted())
            .collect();
        let mut msgs = Vec::new();
        for &v in &active {
            let ctx = NodeContext {
                round,
                ..self.contexts[v]
            };
            let row = self.topology.dest_slots(v);
            match nodes[v].send(&ctx) {
                Outbox::Silent => {}
                Outbox::Broadcast(m) => {
                    msgs.extend(row.iter().map(|&slot| (slot as usize, v as u32, m.clone())));
                }
                Outbox::PerPort(list) => {
                    msgs.extend(
                        list.into_iter()
                            .map(|(p, m)| (row[p] as usize, v as u32, m)),
                    );
                }
            }
        }
        (active, msgs)
    }

    /// The rest of one round, with one fault decision per message of
    /// `msgs`: delivers the messages, recording each fault in the world's
    /// trace, runs the receive step, and checks properness.  The explorer
    /// clones the world before each step; replay does not.
    fn step<A: CheckableAlgorithm>(
        &self,
        world: &mut World<A>,
        round: u64,
        active: &[usize],
        msgs: &[(usize, u32, A::Message)],
        chosen: &[Option<McFault>],
    ) -> Option<Violation> {
        let mut slots: Vec<Option<A::Message>> = (0..self.topology.num_directed_edges())
            .map(|_| None)
            .collect();
        // Stale copies scheduled for this round land first, so a fresh
        // message over the same edge wins the slot (newest-wins, matching
        // the async delivery mode of the executors).
        let mut rest = Vec::new();
        for (r, slot, sender, msg) in world.carry.drain(..) {
            if r == round {
                slots[slot] = Some(msg);
            } else {
                rest.push((r, slot, sender, msg));
            }
        }
        world.carry = rest;
        for (i, (slot, sender, msg)) in msgs.iter().enumerate() {
            let action = |kind| FaultAction {
                round,
                slot: *slot as u32,
                sender: *sender,
                receiver: self.slot_owner[*slot],
                kind,
            };
            match chosen[i] {
                None => slots[*slot] = Some(msg.clone()),
                Some(McFault::Drop) => world.trace.push(action(McFault::Drop)),
                Some(McFault::Duplicate) => {
                    slots[*slot] = Some(msg.clone());
                    world.carry.push((round + 1, *slot, *sender, msg.clone()));
                    world.trace.push(action(McFault::Duplicate));
                }
                Some(McFault::Delay) => {
                    world.carry.push((round + 1, *slot, *sender, msg.clone()));
                    world.trace.push(action(McFault::Delay));
                }
            }
        }
        for &v in active {
            let ctx = NodeContext {
                round,
                ..self.contexts[v]
            };
            let mine = PortSlots::new(&slots[self.topology.port_range(v)]);
            world.nodes[v].receive(&ctx, &Inbox::from_slots(&mine));
        }
        self.committed_violation(&world.nodes)
    }
}

fn make_search<'a, T: TopologyView>(topology: &'a T, config: &'a McConfig) -> Search<'a, T> {
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
    let contexts: Vec<NodeContext> = (0..n)
        .map(|v| NodeContext {
            node: v,
            degree: topology.degree(v),
            n,
            max_degree: topology.max_degree(),
            round: 0,
        })
        .collect();
    let mut slot_owner = vec![0u32; topology.num_directed_edges()];
    for v in 0..n {
        for s in topology.port_range(v) {
            slot_owner[s] = v as u32;
        }
    }
    Search {
        topology,
        config,
        contexts,
        slot_owner,
        executions: 0,
    }
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
    let mut search = make_search(topology, config);
    for budget in 0..=config.max_faults {
        let world = search.start(&mk);
        match search.explore_round(world, 0, budget) {
            Flow::Clean => {}
            Flow::Found(ce) => return McVerdict::Violated(ce),
            Flow::Exhausted => {
                return McVerdict::ExecutionBudgetExhausted {
                    executions: search.executions,
                }
            }
        }
    }
    McVerdict::Pass {
        executions: search.executions,
    }
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
    let search = make_search(topology, config);
    let mut world = search.start(&mk);
    for round in 0..config.max_rounds {
        if world.nodes.iter().all(|n| n.is_halted()) {
            return None;
        }
        let (active, msgs) = search.send(&mut world.nodes, round);
        let chosen: Vec<Option<McFault>> = msgs
            .iter()
            .map(|(slot, _, _)| {
                trace
                    .iter()
                    .find(|a| a.round == round && a.slot == *slot as u32)
                    .map(|a| a.kind)
            })
            .collect();
        if let Some(v) = search.step(&mut world, round, &active, &msgs, &chosen) {
            return Some(v);
        }
    }
    if world.nodes.iter().any(|n| !n.is_halted()) {
        return Some(Violation::NoTermination {
            rounds: config.max_rounds,
        });
    }
    None
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
