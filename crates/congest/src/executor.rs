//! The round engine: one round kernel behind the [`Executor`] seam, and the
//! drivers that run it.
//!
//! The [`Simulator`](crate::Simulator) owns the *what* of a run (topology,
//! node state machines, metrics); an [`Executor`] owns the *how* of driving
//! the synchronous send → deliver → receive loop.
//!
//! # One kernel
//!
//! Every round of every run is executed by a crate-private `ShardKernel`:
//! one shard's nodes, contexts and inbox slots, one broadcast value per
//! node of a range around its own nodes (see "The zero-allocation round
//! loop" below), the lists of slots and values filled this round, its
//! compact active list and counters.  It runs a round in three calls —
//!
//! 1. **send + route**: clear the slots and values filled last round, ask
//!    every active node for its outbox, and route each message through the
//!    sender's row of the destination table (a shard's
//!    [`dest_row`](ShardTopologyView::dest_row), or a whole graph's
//!    [`dest_slots`](TopologyView::dest_slots)).  A sender's row ascends,
//!    so its ports into one shard are one run of it.  A broadcast with a
//!    run in the sender's own shard is stored once, as the sender's value,
//!    and is staged once per other shard it reaches, with that run
//!    ([`Transport::stage_broadcast`]).  A per-port message is one load in
//!    the row: into the shard's own slot, or staged for the shard owning it
//!    ([`Transport::stage`]).  Drivers with a transport then flush the
//!    staging, timed;
//! 2. **deliver**: take the [`Entry`]s other shards routed here from a
//!    drain the driver passes in: a per-port entry into its slot, a
//!    broadcast entry once, as the sender's value if the kernel keeps one
//!    for the sender, else into every slot of the sender's run in this
//!    shard (found by binary search on the sender's row, which also checks
//!    that the run is not empty);
//! 3. **receive + compact**: hand every active node its inbox — a
//!    zero-copy [`Inbox`] view whose port `p` yields the node's slot `p` if
//!    a message landed there, else the value of the neighbour behind `p` if
//!    the kernel keeps one for it (read from the node's source row,
//!    [`ShardTopologyView::source_row`] or [`TopologyView::neighbor_row`])
//!    — and drop the nodes that halted from the active list.
//!
//! So one rule holds for every driver: a broadcast arrives as a value in
//! every kernel that keeps one for its sender, and every other message
//! arrives in a slot.  A kernel keeps values for its own nodes always, and
//! in one process for the other nodes its ports lead to when it can afford
//! them; wire entries (which a transport stages per edge) and per-port
//! messages always land in slots.
//!
//! The kernel is the only place the engine calls [`NodeAlgorithm::send`] and
//! [`NodeAlgorithm::receive`], takes the phase, flush and drain timings
//! ([`PhaseTimings`]: send = clear + compute + intra-shard routing, deliver
//! = cross-shard drain, receive = receive + compaction) and builds the
//! per-shard trace events.  [`TraceSink::enabled`] is read once per kernel,
//! so an untraced run constructs no events.
//!
//! # Three drivers
//!
//! * [`SequentialExecutor`] runs one kernel over the whole graph on the
//!   caller's thread, with no barriers.  The graph is its only shard, so
//!   every broadcast is stored as a value and every per-port message is
//!   routed straight into a slot, found in the view's own destination table
//!   ([`TopologyView::dest_slots`]), the table every topology type stores.
//! * [`ShardedExecutor`] runs one kernel per shard of a
//!   [`ShardedTopology`], each on its own thread, and moves cross-shard
//!   messages through a pluggable [`Transport`] (see the protocol below).
//!   [`ExecutionMode::Parallel`](crate::ExecutionMode::Parallel) selects it
//!   on a `threads`-shard topology built from the simulator's view.
//! * [`serve_shard_with`](crate::transport::serve_shard_with) runs one
//!   kernel per worker process over that worker's
//!   [`ShardSliceTopology`](crate::sharded::ShardSliceTopology), with the
//!   round decided by coordinator frames.
//!
//! All drivers are required to be *bit-for-bit equivalent*: same outputs,
//! same metrics (up to wall-clock timings and backend-describing transport
//! counters), regardless of thread, shard or process count.  Tests assert
//! this against an independent reference loop.
//!
//! # The zero-allocation round loop
//!
//! Inbox slots live in the [`RoundState`] arena: a flat, CSR-indexed vector
//! with one slot per directed edge, allocated once per run.  A message from
//! `v` over port `p` lands in the slot of the reverse port at the receiving
//! endpoint.  Each kernel owns a contiguous sub-range of the arena (its
//! shard's nodes' slots), and one broadcast value per node of a range,
//! allocated once per kernel.  The range is the shard's own nodes, widened
//! to every node its ports lead to when the kernel's view holds those
//! nodes' rows (in one process, not in a worker process) and the widening
//! adds at most one value per eight of the shard's slots.  Source rows
//! ascend, so one pass over their ends finds the range.  A broadcast from
//! `v` writes one value in each kernel that keeps one for `v`, not one slot
//! per port, and the receivers read it where they would have read their
//! slots: the paper's elimination stage, whose nodes broadcast every round
//! and compute one compare, is almost all such delivery.  A dense graph in
//! few shards keeps a value for every node in every kernel; a sparse graph
//! in many shards, whose remote senders reach a shard through about one
//! port each and span the graph, keeps its own nodes' values only, and its
//! cross-shard broadcasts land in slots.  The kernel clears only the slots
//! and values it filled (its two lists), so quiet rounds cost `O(active)`
//! rather than `O(n + m)`; its active list shrinks as nodes halt, so
//! halted nodes stop costing even an `is_halted()` check per round.
//!
//! # Sharded barrier protocol
//!
//! The [`ShardedExecutor`] spawns one thread per shard; thread `w` owns,
//! exclusively and lock-free, the slice of inbox slots of shard `w`'s
//! nodes and its kernel's values, so **every write to a slot or value is
//! performed by the thread that owns it**, and shard `w`'s [`Transport`]
//! endpoint, so staging a cross-shard message takes no lock.  A coordinator
//! on the calling thread decides rounds.  Per round all parties cross four
//! barriers:
//!
//! 1. **A** — the coordinator has published the round number or the stop
//!    flag.  Each thread runs its kernel's send step: intra-shard messages
//!    go straight into its own values and slots, cross-shard messages are
//!    staged on its endpoint (`Transport::stage_broadcast` once per
//!    broadcasting sender and destination shard, `Transport::stage` per
//!    per-port message), then flushed (`Transport::flush`: the in-process
//!    backend hands each destination its staging buffer, which holds one
//!    entry per broadcast; the socket backend seals one wire frame per
//!    destination shard, which encodes every edge).
//! 2. **B** — every message is routed.  Each thread drains every `x → w`
//!    channel into its own slots and values (`Transport::drain`): a
//!    broadcast entry becomes the sender's value in `w`, or fills the
//!    sender's slots there if `w` keeps no value for it.  The barriers
//!    order the in-process handoffs: `x` hands its `x → w` buffer over
//!    before B, `w` takes it after B, and `x` stages into it again only
//!    after the next A.
//! 3. **C** — every slot and value of the round is in place.  Each thread
//!    runs its kernel's receive step and publishes its active count.
//! 4. **D** — the coordinator sums the counts and decides the next round.
//!
//! A panic in any phase (algorithm code or delivery validation) poisons the
//! protocol at the next barrier, so all parties unwind together and the
//! original panic is re-thrown — never a deadlocked barrier.  Per-shard
//! counters are merged into [`RunMetrics`] in shard order when the run ends,
//! so the totals are deterministic; `RunMetrics::shard_phase_nanos` keeps
//! the per-shard phase times and `RunMetrics::{intra,cross}_shard_messages`
//! the split, counted per edge however the transport groups its entries.
//! The coordinator's own barrier-to-barrier windows (A→B, B→C, C→D) are
//! the run's `RunMetrics::phase_nanos`.
//!
//! Under [`DeliveryMode::Strict`] (the default) a second write to a slot,
//! or a second value from one sender, in one round is a CONGEST violation
//! and panics; under [`DeliveryMode::Async`] — used by fault-injected runs
//! whose transport may deliver stale, duplicated or delayed copies — the
//! slot or value keeps the **most recently drained** message and each
//! overwritten slot or value counts once in `RunMetrics::stale_overwrites`.

use std::any::Any;
use std::convert::Infallible;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::algorithm::{Inbox, MessageSize, NodeAlgorithm, NodeContext, Outbox};
use crate::metrics::{PhaseTimings, RunMetrics};
use crate::sharded::{ShardTopologyView, ShardedTopology};
use crate::topology::{NodeId, Topology, TopologyView};
use crate::trace::{TraceEvent, TracePhase, TraceSink};
use crate::transport::{
    Entry, InProcess, Transport, TransportBuilder, TransportError, TransportMessage,
};

/// The reusable per-run slot arena of the round engine: one inbox slot per
/// directed edge, CSR-indexed (node `v`'s ports occupy
/// `topology.port_range(v)`), allocated once per run and recycled every
/// round.  See the [module docs](self) for how drivers split it by shard.
#[derive(Debug)]
pub struct RoundState<M> {
    slots: Vec<Option<M>>,
}

impl<M> Default for RoundState<M> {
    fn default() -> Self {
        Self { slots: Vec::new() }
    }
}

impl<M: MessageSize + Clone> RoundState<M> {
    /// Creates an arena pre-sized for `topology`: one inbox slot per
    /// directed edge.
    pub fn new(topology: &impl TopologyView) -> Self {
        Self {
            slots: (0..topology.num_directed_edges()).map(|_| None).collect(),
        }
    }
}

/// A strategy for driving the synchronous round loop on a topology
/// representation `T`.
///
/// The trait is generic over [`TopologyView`] so a strategy can either work
/// with any representation ([`SequentialExecutor`] implements `Executor<T>`
/// for every `T: TopologyView`) or demand a specific one
/// ([`ShardedExecutor`] implements only `Executor<ShardedTopology>`,
/// because it needs the shard layout).
///
/// Implementations must uphold the engine contract:
///
/// * rounds are globally synchronous — all sends of round `r` complete
///   before any receive;
/// * the result is bit-for-bit identical to [`SequentialExecutor`] (outputs
///   and all metrics except wall-clock [`PhaseTimings`]);
/// * on return, `metrics.rounds`, `metrics.hit_round_cap`,
///   `metrics.active_per_round` and `metrics.phase_nanos` are filled in;
/// * `tracer` is observed **out-of-band** (see [`crate::trace`]): the
///   executor reports run / round / phase / shard events into it but must
///   never let the sink influence the run — attaching any sink leaves
///   outputs and metrics bit-for-bit unchanged.  When
///   [`TraceSink::enabled`] is `false` (the [`crate::trace::NoTrace`]
///   default) no events are constructed at all.
pub trait Executor<T: TopologyView = Topology> {
    /// Drives `nodes` (already initialised) to completion or to `max_rounds`.
    #[allow(clippy::too_many_arguments)]
    fn drive<A: NodeAlgorithm>(
        &self,
        topology: &T,
        nodes: &mut [A],
        contexts: &[NodeContext],
        state: &mut RoundState<A::Message>,
        max_rounds: u64,
        metrics: &mut RunMetrics,
        tracer: &dyn TraceSink,
    );
}

/// One shard's share of the round engine — the kernel every driver runs
/// (see the [module docs](self)).
///
/// `nodes`, `contexts` and `slots` are exactly the shard's nodes, contexts
/// and inbox slots; indices into them are global ids minus `node_base` and
/// global slots minus `slot_base`.  `values` holds one broadcast value per
/// node of [`value_nodes`] (the shard's nodes, perhaps widened to the
/// nodes its ports lead to), indexed by global id minus `value_base`.  `L`
/// says how the shard, its messages' destinations and its ports' sources
/// are looked up in `T`.
pub(crate) struct ShardKernel<'a, A: NodeAlgorithm, T: ?Sized, L> {
    topology: &'a T,
    lookup: PhantomData<L>,
    shard: usize,
    nodes: &'a mut [A],
    contexts: &'a [NodeContext],
    node_base: NodeId,
    slots: &'a mut [Option<A::Message>],
    slot_base: usize,
    /// The message each node of [`value_nodes`] broadcast into the shard
    /// this round, for its neighbours in the shard to pull.
    values: Vec<Option<A::Message>>,
    value_base: NodeId,
    delivery: DeliveryMode,
    /// Shard-local indices of the slots filled this round.
    touched: Vec<usize>,
    /// Indices into `values` of the values set this round.
    broadcast: Vec<usize>,
    /// Global ids of the shard's still-active nodes, ascending.
    active: Vec<NodeId>,
    report: ShardReport,
    tracer: &'a dyn TraceSink,
    traced: bool,
}

impl<'a, A: NodeAlgorithm, T: ?Sized, L: ShardLookup<T>> ShardKernel<'a, A, T, L> {
    /// A kernel for `shard` of `topology`, with an empty active list (see
    /// [`ShardKernel::admit`]).
    pub(crate) fn new(
        topology: &'a T,
        shard: usize,
        nodes: &'a mut [A],
        contexts: &'a [NodeContext],
        slots: &'a mut [Option<A::Message>],
        delivery: DeliveryMode,
        tracer: &'a dyn TraceSink,
    ) -> Self {
        let node_range = L::nodes(topology, shard);
        let slot_range = L::slots(topology, shard);
        let value_range = value_nodes::<T, L>(topology, shard);
        assert_eq!(nodes.len(), node_range.len(), "one node per shard node");
        assert_eq!(contexts.len(), node_range.len(), "one context per node");
        assert_eq!(slots.len(), slot_range.len(), "one slot per shard port");
        Self {
            topology,
            lookup: PhantomData,
            shard,
            nodes,
            contexts,
            node_base: node_range.start,
            slots,
            slot_base: slot_range.start,
            values: (0..value_range.len()).map(|_| None).collect(),
            value_base: value_range.start,
            delivery,
            touched: Vec::new(),
            broadcast: Vec::new(),
            active: Vec::new(),
            report: ShardReport::default(),
            tracer,
            traced: tracer.enabled(),
        }
    }

    /// Fills the active list with the shard's nodes that have not halted
    /// and returns its length.  Separate from [`ShardKernel::new`] because
    /// `is_halted` is algorithm code, which a threaded driver runs under its
    /// panic guard.
    pub(crate) fn admit(&mut self) -> usize {
        let (nodes, base) = (&*self.nodes, self.node_base);
        self.active.clear();
        self.active.extend(
            (0..nodes.len())
                .filter(|&i| !nodes[i].is_halted())
                .map(|i| base + i),
        );
        self.active.len()
    }

    /// The counters accumulated so far.
    pub(crate) fn report(&self) -> &ShardReport {
        &self.report
    }

    /// The send step: clears the slots and values filled last round, asks
    /// every active node for its outbox and routes each message.  A
    /// broadcast becomes the sender's value if any of its ports lead into
    /// this shard, and is staged once per other shard its ports reach, with
    /// that shard's run of the sender's destination-table row.  A per-port
    /// message goes into this shard's own slot, or to `stage` when another
    /// shard owns the slot.  Every message is charged here, at its sender
    /// and per edge (see the accounting semantics in [`crate::algorithm`]).
    ///
    /// # Panics
    ///
    /// Panics if an outbox names a nonexistent port or sends two messages
    /// over the same port in one round (the CONGEST model allows one
    /// message per edge per round).
    pub(crate) fn send_route<X: CrossShard<A::Message> + ?Sized>(
        &mut self,
        round: u64,
        stage: &mut X,
    ) {
        self.phase_start(round, TracePhase::Send);
        let (m0, b0, c0) = (
            self.report.messages,
            self.report.total_bits,
            self.report.cross,
        );
        let t = Instant::now();
        let (shard, node_base) = (self.shard, self.node_base);
        let own = self.slot_base..self.slot_base + self.slots.len();
        send_and_route::<A, T, L, X>(
            self.topology,
            shard,
            round,
            self.nodes,
            self.contexts,
            node_base,
            &self.active,
            &own,
            self.slots,
            &mut self.touched,
            &mut self.values,
            self.value_base,
            &mut self.broadcast,
            &mut self.report,
            stage,
        );
        self.report.intra += (self.report.messages - m0) - (self.report.cross - c0);
        let nanos = t.elapsed().as_nanos() as u64;
        self.report.timings.send += nanos;
        self.phase_end(round, TracePhase::Send, nanos);
        if self.traced {
            self.tracer.emit(&TraceEvent::ShardRound {
                round,
                shard,
                messages: self.report.messages - m0,
                bits: self.report.total_bits - b0,
                cross: self.report.cross - c0,
            });
        }
    }

    /// Times the driver's `flush` of the messages this round staged for
    /// other shards; `flush` returns the wire bytes it sealed.
    pub(crate) fn flush<E>(
        &mut self,
        round: u64,
        flush: impl FnOnce() -> Result<u64, E>,
    ) -> Result<(), E> {
        let t = Instant::now();
        let wire_bytes = flush()?;
        let nanos = t.elapsed().as_nanos() as u64;
        self.report.wire_bytes += wire_bytes;
        self.report.flush_nanos += nanos;
        if self.traced {
            self.tracer.emit(&TraceEvent::ShardFlush {
                round,
                shard: self.shard,
                wire_bytes,
                nanos,
            });
        }
        Ok(())
    }

    /// The deliver step: `drain` receives a sink and feeds it every
    /// [`Entry`] other shards routed here this round.  The sink writes an
    /// [`Entry::Port`] into its slot, and an [`Entry::Broadcast`] once, as
    /// the sender's value, if the kernel keeps values for the sender (see
    /// [`value_nodes`]), else into each slot of the sender's run of its
    /// [`dest_row`](ShardTopologyView::dest_row) that this shard owns (found
    /// by binary search on the ascending row).  Both follow the kernel's
    /// [`DeliveryMode`], and both are listed for the next send step to
    /// clear.
    ///
    /// # Errors
    ///
    /// Returns `drain`'s error, or, for the first entry this shard cannot
    /// place, [`TransportError::SlotOutsideShard`] (a per-port entry for a
    /// slot it does not own: entries decoded from outside bytes can name
    /// any slot) or [`TransportError::BroadcastOutsideShard`] (a broadcast
    /// from a node with no port into the shard).
    ///
    /// # Panics
    ///
    /// Under [`DeliveryMode::Strict`], panics when a slot or a value is
    /// written twice in one round.
    pub(crate) fn deliver<E: From<TransportError>>(
        &mut self,
        round: u64,
        drain: impl FnOnce(&mut dyn FnMut(Entry<A::Message>)) -> Result<(), E>,
    ) -> Result<(), E> {
        self.phase_start(round, TracePhase::Deliver);
        let s0 = self.report.stale_overwrites;
        let t = Instant::now();
        let (topology, shard, delivery) = (self.topology, self.shard, self.delivery);
        let own = self.slot_base..self.slot_base + self.slots.len();
        let value_base = self.value_base;
        let mut stray = None;
        let Self {
            slots,
            touched,
            values,
            broadcast,
            report,
            ..
        } = self;
        // The one fill rule, for a slot and for a value alike.
        let mut put =
            |cells: &mut [Option<A::Message>], filled: &mut Vec<usize>, i, sender, msg| {
                match delivery {
                    DeliveryMode::Strict => fill(cells, i, msg, sender, filled),
                    // Newest wins: transports drain stale copies before the
                    // current round's messages.
                    DeliveryMode::Async => {
                        if cells[i].replace(msg).is_some() {
                            report.stale_overwrites += 1;
                        } else {
                            filled.push(i);
                        }
                    }
                }
            };
        drain(&mut |entry| match entry {
            Entry::Port { slot, sender, msg } => {
                if own.contains(&(slot as usize)) {
                    let i = slot as usize - own.start;
                    put(slots, touched, i, sender as usize, msg);
                } else {
                    stray.get_or_insert(TransportError::SlotOutsideShard { shard, slot });
                }
            }
            Entry::Broadcast { sender, msg } => {
                let v = sender as usize;
                let run = L::dest_row(topology, v).map_or(&[][..], |row| {
                    let start = row.partition_point(|&s| (s as usize) < own.start);
                    let len = row[start..].partition_point(|&s| (s as usize) < own.end);
                    &row[start..start + len]
                });
                if run.is_empty() {
                    stray.get_or_insert(TransportError::BroadcastOutsideShard { shard, sender });
                } else if v.wrapping_sub(value_base) < values.len() {
                    put(values, broadcast, v - value_base, v, msg);
                } else {
                    for &slot in run {
                        put(slots, touched, slot as usize - own.start, v, msg.clone());
                    }
                }
            }
        })?;
        if let Some(e) = stray {
            return Err(e.into());
        }
        let nanos = t.elapsed().as_nanos() as u64;
        self.report.timings.deliver += nanos;
        if self.traced {
            self.tracer.emit(&TraceEvent::ShardDrain {
                round,
                shard: self.shard,
                nanos,
                stale: self.report.stale_overwrites - s0,
            });
        }
        self.phase_end(round, TracePhase::Deliver, nanos);
        Ok(())
    }

    /// The receive step: hands every active node its inbox — its own slots,
    /// backed by the values the kernel keeps for its neighbours — then
    /// drops the nodes that halted from the active list; returns how many
    /// remain.
    pub(crate) fn receive_compact(&mut self, round: u64) -> usize {
        self.phase_start(round, TracePhase::Receive);
        let t = Instant::now();
        let (shard, node_base, slot_base) = (self.shard, self.node_base, self.slot_base);
        let value_base = self.value_base;
        let Self {
            topology,
            nodes,
            contexts,
            slots,
            values,
            active,
            ..
        } = self;
        for &v in active.iter() {
            let ctx = NodeContext {
                round,
                ..contexts[v - node_base]
            };
            let r = L::port_range(topology, shard, v);
            let own = &slots[r.start - slot_base..r.end - slot_base];
            let inbox = Inbox::pulled(own, L::source_row(topology, v), values, value_base);
            nodes[v - node_base].receive(&ctx, &inbox);
        }
        active.retain(|&v| !nodes[v - node_base].is_halted());
        let nanos = t.elapsed().as_nanos() as u64;
        self.report.timings.receive += nanos;
        self.phase_end(round, TracePhase::Receive, nanos);
        self.active.len()
    }

    /// Ends the run: clears the slots filled in the final round — the
    /// touched list dies with the kernel, so a reused arena would otherwise
    /// replay them as phantom messages — and returns the shard's counters.
    /// The values die with the kernel too.
    pub(crate) fn finish(self) -> ShardReport {
        for i in self.touched {
            self.slots[i] = None;
        }
        self.report
    }

    fn phase_start(&self, round: u64, phase: TracePhase) {
        if self.traced {
            self.tracer.emit(&TraceEvent::PhaseStart {
                round,
                shard: self.shard,
                phase,
            });
        }
    }

    fn phase_end(&self, round: u64, phase: TracePhase, nanos: u64) {
        if self.traced {
            self.tracer.emit(&TraceEvent::PhaseEnd {
                round,
                shard: self.shard,
                phase,
                nanos,
            });
        }
    }
}

/// The loops of [`ShardKernel::send_route`]: clear the slots and values
/// filled last round, then ask every active node for its outbox and route
/// each message: a broadcast into `values`, a per-port message into this
/// shard's slot range `own`, or either to `stage`.
///
/// Every message's slot is read from the sender's destination-table row.
/// The row ascends, so a broadcast's ports into each shard are one run of
/// it: for the own shard the run is charged and the message stored once,
/// as the sender's value, and for any other shard it is staged once.
///
/// A function of its own, never inlined, on purpose: with the topology and
/// every buffer as separate reference arguments the compiler knows none of
/// them aliases another, and keeps the topology's tables in registers.
/// Inlined into the kernel, whose fields it reaches through `self`, it
/// reloaded them for every message, and the paper's Δ+1 pipeline ran about
/// a fifth slower.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn send_and_route<A, T, L, X>(
    topology: &T,
    shard: usize,
    round: u64,
    nodes: &mut [A],
    contexts: &[NodeContext],
    node_base: NodeId,
    active: &[NodeId],
    own: &core::ops::Range<usize>,
    slots: &mut [Option<A::Message>],
    touched: &mut Vec<usize>,
    values: &mut [Option<A::Message>],
    value_base: NodeId,
    broadcast: &mut Vec<usize>,
    report: &mut ShardReport,
    stage: &mut X,
) where
    A: NodeAlgorithm,
    T: ?Sized,
    L: ShardLookup<T>,
    X: CrossShard<A::Message> + ?Sized,
{
    for i in touched.drain(..) {
        slots[i] = None;
    }
    for i in broadcast.drain(..) {
        values[i] = None;
    }
    for &v in active {
        let ctx = NodeContext {
            round,
            ..contexts[v - node_base]
        };
        let own_row = || L::dest_row(topology, v).expect("a shard holds its nodes' rows");
        match nodes[v - node_base].send(&ctx) {
            Outbox::Silent => {}
            Outbox::Broadcast(msg) => {
                let (bits, mut row) = (msg.bit_size(), own_row());
                while let Some(&first) = row.first() {
                    let to = L::shard_of_slot(topology, first as usize);
                    let end = L::slots(topology, to).end;
                    let (run, rest) = row.split_at(row.partition_point(|&s| (s as usize) < end));
                    row = rest;
                    report.record(run.len() as u64, bits);
                    if to == shard {
                        values[v - value_base] = Some(msg.clone());
                        broadcast.push(v - value_base);
                    } else {
                        report.cross += run.len() as u64;
                        stage.broadcast(to, v as u32, msg.clone(), run);
                    }
                }
            }
            Outbox::PerPort(list) => {
                let row = own_row();
                for (p, msg) in list {
                    assert!(p < row.len(), "node {v} sent on nonexistent port {p}");
                    let dest = row[p] as usize;
                    report.record(1, msg.bit_size());
                    if own.contains(&dest) {
                        fill(slots, dest - own.start, msg, v, touched);
                    } else {
                        report.cross += 1;
                        let to = L::shard_of_slot(topology, dest);
                        stage.port(to, dest as u32, v as u32, msg);
                    }
                }
            }
        }
    }
}

/// Writes `msg` into the kernel-owned cell `i` — an inbox slot or a
/// broadcast value — and lists it in `filled`, enforcing the one message
/// per edge per round CONGEST contract.
fn fill<M>(cells: &mut [Option<M>], i: usize, msg: M, sender: NodeId, filled: &mut Vec<usize>) {
    let cell = &mut cells[i];
    assert!(
        cell.is_none(),
        "node {sender} sent two messages over the same port in one round"
    );
    *cell = Some(msg);
    filled.push(i);
}

/// A kernel keeps at most one value beyond its own nodes for every this many
/// of its slots (see [`value_nodes`]).
const SLOTS_PER_VALUE: usize = 8;

/// The nodes whose broadcasts `shard`'s kernel keeps as values: its own
/// nodes, widened to every node a port of the shard leads to if the view
/// holds their rows ([`ShardLookup::row_nodes`]) and the widening adds at
/// most one value per [`SLOTS_PER_VALUE`] slots of the shard.  Source rows
/// ascend, so their ends bound those nodes in one pass.  A broadcast from
/// outside the range lands in slots.  So a sparse graph cut into many
/// shards, whose remote senders reach a shard through about one port each
/// and span the graph, costs no more memory than one value per own node.
fn value_nodes<T: ?Sized, L: ShardLookup<T>>(
    topology: &T,
    shard: usize,
) -> core::ops::Range<NodeId> {
    let own = L::nodes(topology, shard);
    let rows = L::row_nodes(topology);
    let (mut lo, mut hi) = (own.start, own.end);
    for v in own.clone() {
        let row = L::source_row(topology, v);
        if let (Some(&first), Some(&last)) = (row.first(), row.last()) {
            lo = lo.min(first as usize);
            hi = hi.max(last as usize + 1);
        }
    }
    let reach = lo.max(rows.start)..hi.min(rows.end);
    if (reach.len() - own.len()) * SLOTS_PER_VALUE <= L::slots(topology, shard).len() {
        reach
    } else {
        own
    }
}

/// How a [`ShardKernel`] finds its shard in a topology `T`, and the global
/// slots the messages of node `v` land in.  The lookups take the topology
/// as an argument, so the routing loop holds the topology itself, not a
/// wrapper around it.
pub(crate) trait ShardLookup<T: ?Sized> {
    /// The shard's node range.
    fn nodes(topology: &T, shard: usize) -> core::ops::Range<NodeId>;
    /// The shard's slot range.
    fn slots(topology: &T, shard: usize) -> core::ops::Range<usize>;
    /// The global slot range of `v`'s own inbox.
    fn port_range(topology: &T, shard: usize, v: NodeId) -> core::ops::Range<usize>;
    /// The nodes whose rows `T` holds (see
    /// [`ShardTopologyView::row_nodes`]), the shard's among them: the widest
    /// range a kernel keeps values for.
    fn row_nodes(topology: &T) -> core::ops::Range<NodeId>;
    /// The destination-table row of node `v` (see
    /// [`ShardTopologyView::dest_row`]), or `None` if `v` is outside
    /// [`ShardLookup::row_nodes`].
    fn dest_row(topology: &T, v: NodeId) -> Option<&[u32]>;
    /// The source row of `v`, a node of the shard: the neighbour behind
    /// each of its ports (see [`ShardTopologyView::source_row`]).
    fn source_row(topology: &T, v: NodeId) -> &[u32];
    /// The shard owning global slot `slot`.
    fn shard_of_slot(topology: &T, slot: usize) -> usize;
}

/// One shard of a [`ShardTopologyView`], routed through its
/// [`dest_row`](ShardTopologyView::dest_row)s.
pub(crate) struct ShardRows;

impl<T: ShardTopologyView + ?Sized> ShardLookup<T> for ShardRows {
    fn nodes(topology: &T, shard: usize) -> core::ops::Range<NodeId> {
        topology.shard_nodes(shard)
    }

    fn slots(topology: &T, shard: usize) -> core::ops::Range<usize> {
        topology.shard_slots(shard)
    }

    #[inline]
    fn port_range(topology: &T, shard: usize, v: NodeId) -> core::ops::Range<usize> {
        topology.port_range_from(shard, v)
    }

    fn row_nodes(topology: &T) -> core::ops::Range<NodeId> {
        topology.row_nodes()
    }

    #[inline]
    fn dest_row(topology: &T, v: NodeId) -> Option<&[u32]> {
        topology.dest_row(v)
    }

    #[inline]
    fn source_row(topology: &T, v: NodeId) -> &[u32] {
        topology
            .source_row(v)
            .expect("a shard holds its nodes' rows")
    }

    #[inline]
    fn shard_of_slot(topology: &T, slot: usize) -> usize {
        topology.shard_of_slot(slot)
    }
}

/// Any [`TopologyView`] as one shard owning every node and slot, for the
/// single-threaded driver, routed through the view's
/// [`dest_slots`](TopologyView::dest_slots) rows.
struct WholeGraph;

impl<T: TopologyView + ?Sized> ShardLookup<T> for WholeGraph {
    fn nodes(topology: &T, _shard: usize) -> core::ops::Range<NodeId> {
        0..topology.num_nodes()
    }

    fn slots(topology: &T, _shard: usize) -> core::ops::Range<usize> {
        0..topology.num_directed_edges()
    }

    #[inline]
    fn port_range(topology: &T, _shard: usize, v: NodeId) -> core::ops::Range<usize> {
        topology.port_range(v)
    }

    fn row_nodes(topology: &T) -> core::ops::Range<NodeId> {
        0..topology.num_nodes()
    }

    #[inline]
    fn dest_row(topology: &T, v: NodeId) -> Option<&[u32]> {
        Some(topology.dest_slots(v))
    }

    #[inline]
    fn source_row(topology: &T, v: NodeId) -> &[u32] {
        topology.neighbor_row(v)
    }

    #[inline]
    fn shard_of_slot(_topology: &T, _slot: usize) -> usize {
        0
    }
}

/// Where a kernel's send step puts the messages whose slot another shard
/// owns: any [`Transport`] endpoint, or a remote worker's relay frame
/// builders.
pub(crate) trait CrossShard<M> {
    /// One message of an `Outbox::PerPort` list, for `slot` of shard `to`.
    fn port(&mut self, to: usize, slot: u32, sender: u32, msg: M);
    /// `sender`'s broadcast for shard `to`: `dests` is the run of its
    /// destination-table row in `to`'s slots.
    fn broadcast(&mut self, to: usize, sender: u32, msg: M, dests: &[u32]);
}

impl<M: TransportMessage, X: Transport<M>> CrossShard<M> for X {
    #[inline]
    fn port(&mut self, to: usize, slot: u32, sender: u32, msg: M) {
        self.stage(to, slot, sender, msg);
    }

    #[inline]
    fn broadcast(&mut self, to: usize, sender: u32, msg: M, dests: &[u32]) {
        self.stage_broadcast(to, sender, msg, dests);
    }
}

/// The single-threaded driver's transport: its only shard owns every slot,
/// so nothing is staged and nothing drains.
struct OneShard;

impl<M: TransportMessage> Transport<M> for OneShard {
    fn stage(&mut self, _: usize, _: u32, _: u32, _: M) {
        unreachable!("the only shard owns every slot")
    }

    fn flush(&mut self, _round: u64) -> u64 {
        0
    }

    fn drain(
        &mut self,
        _round: u64,
        _sink: &mut dyn FnMut(Entry<M>),
    ) -> Result<(), TransportError> {
        Ok(())
    }
}

/// The single-threaded driver: one kernel over the whole graph, on the
/// caller's thread, with no barriers.  It reports no shard split
/// (`RunMetrics::{intra,cross}_shard_messages` stay 0).
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialExecutor;

impl<T: TopologyView> Executor<T> for SequentialExecutor {
    fn drive<A: NodeAlgorithm>(
        &self,
        topology: &T,
        nodes: &mut [A],
        contexts: &[NodeContext],
        state: &mut RoundState<A::Message>,
        max_rounds: u64,
        metrics: &mut RunMetrics,
        tracer: &dyn TraceSink,
    ) {
        let traced = tracer.enabled();
        if traced {
            tracer.emit(&TraceEvent::RunStart {
                nodes: nodes.len(),
                shards: 1,
            });
        }
        let mut kernel = ShardKernel::<_, _, WholeGraph>::new(
            topology,
            0,
            nodes,
            contexts,
            &mut state.slots,
            DeliveryMode::Strict,
            tracer,
        );
        let mut active = kernel.admit();
        let mut round: u64 = 0;
        while active > 0 {
            if round >= max_rounds {
                metrics.hit_round_cap = true;
                break;
            }
            metrics.active_per_round.push(active);
            if traced {
                tracer.emit(&TraceEvent::RoundStart { round, active });
            }
            let t0 = kernel.report().timings.total();
            kernel.send_route(round, &mut OneShard);
            kernel
                .deliver(round, |_| Ok::<(), TransportError>(()))
                .expect("the only shard drains nothing");
            active = kernel.receive_compact(round);
            if traced {
                tracer.emit(&TraceEvent::RoundEnd {
                    round,
                    active,
                    nanos: kernel.report().timings.total() - t0,
                });
            }
            round += 1;
        }
        let report = kernel.finish();
        metrics.rounds = round;
        metrics.messages += report.messages;
        metrics.total_bits += report.total_bits;
        metrics.max_message_bits = metrics.max_message_bits.max(report.max_message_bits);
        metrics.phase_nanos = report.timings;
        if traced {
            tracer.emit(&TraceEvent::RunEnd { rounds: round });
        }
    }
}

/// The threaded driver: one kernel per shard of a [`ShardedTopology`], each
/// on its own thread with exclusive, lock-free ownership of its shard's
/// inbox slots; cross-shard messages travel through a pluggable
/// [`Transport`] backend.  See the [module docs](self) for the barrier
/// protocol.  Bit-for-bit equivalent to [`SequentialExecutor`] on the same
/// topology (outputs and all logical counters; `wire_bytes_sent` /
/// `transport_flush_nanos` describe the backend and are exempt, like
/// wall-clock timings).
///
/// The default backend is [`InProcess`] (in-memory staging buffers);
/// [`ShardedExecutor::with_transport`] selects another, e.g.
/// [`SocketLoopback`](crate::transport::SocketLoopback) to push every
/// cross-shard message through a wire-encoded kernel socket.
///
/// This executor is tied to `ShardedTopology` (it implements only
/// `Executor<ShardedTopology>`): the shard layout *is* its parallelisation
/// strategy, so it takes no thread-count parameter — the topology's shard
/// count decides.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardedExecutor<B: TransportBuilder = InProcess> {
    builder: B,
    delivery: DeliveryMode,
}

/// How the deliver step treats a message arriving at an already-occupied
/// inbox slot, or a second broadcast value from one sender.
///
/// In the fault-free CONGEST model at most one message crosses an edge per
/// round, so an occupied slot can only mean an algorithm bug —
/// [`DeliveryMode::Strict`] therefore panics.  A fault-injecting transport
/// (see [`crate::faults`]) deliberately breaks that assumption: it may
/// deliver a stale copy carried across a round boundary *and* the fresh
/// message of the current round over the same edge.  [`DeliveryMode::Async`]
/// models an asynchronous link for exactly that case: the slot keeps the
/// most recently drained message (transports drain stale copies before
/// fresh ones, so "newest wins") and every overwrite is counted in
/// [`RunMetrics::stale_overwrites`](crate::RunMetrics::stale_overwrites).
/// An in-process broadcast entry that the receiving kernel keeps as the
/// sender's value is one value however many ports it reaches, so a second
/// one from the same sender replaces the value and counts once.
/// Algorithms declare whether they tolerate this regime via
/// [`NodeAlgorithm::tolerates_async_delivery`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DeliveryMode {
    /// Barrier-synchronous delivery: a second write to a slot or value
    /// panics (the fault-free CONGEST contract).
    #[default]
    Strict,
    /// Asynchronous delivery: a second write replaces the slot's message
    /// or the sender's value and is counted as one stale overwrite.
    Async,
}

impl ShardedExecutor<InProcess> {
    /// Creates the executor with the in-process (shared-memory) transport.
    pub fn new() -> Self {
        Self {
            builder: InProcess,
            delivery: DeliveryMode::Strict,
        }
    }
}

impl<B: TransportBuilder> ShardedExecutor<B> {
    /// Creates the executor over an explicit transport backend.
    pub fn with_transport(builder: B) -> Self {
        Self {
            builder,
            delivery: DeliveryMode::Strict,
        }
    }

    /// Selects the delivery mode (strict by default); see [`DeliveryMode`].
    pub fn with_delivery(mut self, delivery: DeliveryMode) -> Self {
        self.delivery = delivery;
        self
    }
}

/// One kernel's accounting.  Threaded drivers merge the reports **in shard
/// order**, so every total in [`RunMetrics`] is deterministic; the remote
/// worker protocol in [`crate::transport`] ships it in its Output frame.
#[derive(Debug, Default)]
pub(crate) struct ShardReport {
    pub(crate) messages: u64,
    pub(crate) total_bits: u64,
    pub(crate) max_message_bits: u64,
    pub(crate) intra: u64,
    pub(crate) cross: u64,
    pub(crate) wire_bytes: u64,
    pub(crate) flush_nanos: u64,
    pub(crate) syscall_batches: u64,
    pub(crate) stale_overwrites: u64,
    pub(crate) timings: PhaseTimings,
}

impl ShardReport {
    /// Charges `count` messages of `bits` bits each.
    fn record(&mut self, count: u64, bits: u64) {
        self.messages += count;
        self.total_bits += count * bits;
        self.max_message_bits = self.max_message_bits.max(bits);
    }
}

/// Per-round signals published by the coordinator before barrier A.
struct RoundSignal {
    round: AtomicU64,
    stop: AtomicBool,
}

/// Barrier synchronisation with panic poisoning.
///
/// Every phase body runs inside [`PhaseSync::guard`]; a panic is captured,
/// the protocol is flagged as poisoned, and the panicking party still
/// reaches its next barrier.  The first captured payload is re-thrown to
/// the caller by [`PhaseSync::rethrow`].
///
/// The barrier is hand-rolled (generation-counted mutex + condvar) rather
/// than [`std::sync::Barrier`] because the poison verdict must be decided
/// **at the instant a crossing completes** and stamped into that
/// generation.  Reading an atomic flag *after* a standard barrier crossing
/// is racy: a descheduled party could perform its read only after a later
/// phase has already poisoned the protocol, see a different verdict than
/// its peers, and exit early — leaving the remaining parties deadlocked at
/// the next crossing.  With a per-generation verdict every party of a
/// crossing observes the same decision no matter when it wakes, so all
/// parties always exit at the same crossing.
struct PhaseSync {
    state: Mutex<SyncState>,
    cvar: Condvar,
    parties: usize,
    poisoned: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

struct SyncState {
    /// Parties that have arrived at the current crossing.
    arrived: usize,
    /// Completed-crossings counter.
    generation: u64,
    /// Poison verdict of the most recently completed crossing.
    verdict_poisoned: bool,
}

impl PhaseSync {
    fn new(parties: usize) -> Self {
        Self {
            state: Mutex::new(SyncState {
                arrived: 0,
                generation: 0,
                verdict_poisoned: false,
            }),
            cvar: Condvar::new(),
            parties,
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
        }
    }

    /// Runs one phase body, capturing a panic instead of unwinding through
    /// the protocol.  `AssertUnwindSafe` is sound here because after a
    /// poisoning panic the possibly-inconsistent node/arena state is never
    /// touched again: every party exits at the next barrier and the panic
    /// is re-thrown.
    fn guard(&self, body: impl FnOnce()) {
        if self.poisoned.load(Ordering::SeqCst) {
            return;
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
            let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
            if slot.is_none() {
                *slot = Some(payload);
            }
            self.poisoned.store(true, Ordering::SeqCst);
        }
    }

    /// Crosses the barrier; returns `false` if the protocol was poisoned
    /// when the crossing completed.  The verdict is stamped per generation,
    /// so every party of one crossing gets the same answer and all parties
    /// exit the protocol at the same crossing.
    fn sync(&self) -> bool {
        // No user code runs under this lock, so it cannot be poisoned; the
        // `unwrap_or_else` is belt and braces.
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let generation = st.generation;
        st.arrived += 1;
        if st.arrived == self.parties {
            st.arrived = 0;
            st.generation += 1;
            st.verdict_poisoned = self.poisoned.load(Ordering::SeqCst);
            let verdict = st.verdict_poisoned;
            drop(st);
            self.cvar.notify_all();
            !verdict
        } else {
            while st.generation == generation {
                st = self.cvar.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            // `verdict_poisoned` still belongs to our generation: the next
            // crossing cannot complete (and overwrite it) before this party
            // calls `sync` again.
            !st.verdict_poisoned
        }
    }

    /// Re-throws the first captured panic, if any.
    fn rethrow(&self) {
        let payload = self.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl<B: TransportBuilder> Executor<ShardedTopology> for ShardedExecutor<B> {
    fn drive<A: NodeAlgorithm>(
        &self,
        topology: &ShardedTopology,
        nodes: &mut [A],
        contexts: &[NodeContext],
        state: &mut RoundState<A::Message>,
        max_rounds: u64,
        metrics: &mut RunMetrics,
        tracer: &dyn TraceSink,
    ) {
        let shard_count = topology.num_shards();
        assert_eq!(
            state.slots.len(),
            topology.num_directed_edges(),
            "arena must be pre-sized for this topology"
        );
        if tracer.enabled() {
            tracer.emit(&TraceEvent::RunStart {
                nodes: nodes.len(),
                shards: shard_count,
            });
        }

        let signal = RoundSignal {
            round: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        };
        let sync = PhaseSync::new(shard_count + 1);
        let endpoints = self
            .builder
            .build::<A::Message>(topology)
            .unwrap_or_else(|e| panic!("failed to build the cross-shard transport: {e}"));
        assert_eq!(
            endpoints.len(),
            shard_count,
            "one transport endpoint per shard"
        );
        let active_counts: Vec<AtomicUsize> =
            (0..shard_count).map(|_| AtomicUsize::new(0)).collect();
        let reports: Vec<Mutex<ShardReport>> = (0..shard_count)
            .map(|_| Mutex::new(ShardReport::default()))
            .collect();

        std::thread::scope(|scope| {
            // Hand each thread what it owns: its transport endpoint and the
            // exclusive slices of its shard's nodes, contexts and inbox
            // slots (consecutive by the flat slot contract, so a
            // split_at_mut chain suffices).
            let mut rest_slots: &mut [Option<A::Message>] = &mut state.slots;
            let mut rest_nodes: &mut [A] = nodes;
            let mut rest_ctxs: &[NodeContext] = contexts;
            for (s, transport) in endpoints.into_iter().enumerate() {
                let (my_slots, tail) = rest_slots.split_at_mut(topology.shard_slots(s).len());
                rest_slots = tail;
                let (my_nodes, tail) = rest_nodes.split_at_mut(topology.shard_nodes(s).len());
                rest_nodes = tail;
                let (my_ctxs, tail) = rest_ctxs.split_at(topology.shard_nodes(s).len());
                rest_ctxs = tail;
                let (signal, sync) = (&signal, &sync);
                let (active_count, report) = (&active_counts[s], &reports[s]);
                let delivery = self.delivery;
                scope.spawn(move || {
                    if tracer.enabled() {
                        tracer.emit(&TraceEvent::WorkerStart { shard: s });
                    }
                    let kernel = ShardKernel::<_, _, ShardRows>::new(
                        topology, s, my_nodes, my_ctxs, my_slots, delivery, tracer,
                    );
                    let done = run_shard_thread(kernel, signal, sync, transport, active_count);
                    *report.lock().unwrap_or_else(|e| e.into_inner()) = done;
                    if tracer.enabled() {
                        tracer.emit(&TraceEvent::WorkerEnd { shard: s });
                    }
                });
            }
            sharded_coordinate(&signal, &sync, &active_counts, max_rounds, metrics, tracer);
        });

        for report in &reports {
            let r = report.lock().unwrap_or_else(|e| e.into_inner());
            metrics.messages += r.messages;
            metrics.total_bits += r.total_bits;
            metrics.max_message_bits = metrics.max_message_bits.max(r.max_message_bits);
            metrics.intra_shard_messages += r.intra;
            metrics.cross_shard_messages += r.cross;
            metrics.wire_bytes_sent += r.wire_bytes;
            metrics.transport_flush_nanos += r.flush_nanos;
            metrics.syscall_batches += r.syscall_batches;
            metrics.stale_overwrites += r.stale_overwrites;
            metrics.shard_phase_nanos.push(r.timings);
        }
        if tracer.enabled() {
            tracer.emit(&TraceEvent::RunEnd {
                rounds: metrics.rounds,
            });
        }
        sync.rethrow();
    }
}

/// One shard thread of the barrier protocol (see the [module docs](self)):
/// runs `kernel` between the coordinator's barriers and returns its report.
fn run_shard_thread<A: NodeAlgorithm, X: Transport<A::Message>>(
    mut kernel: ShardKernel<'_, A, ShardedTopology, ShardRows>,
    signal: &RoundSignal,
    sync: &PhaseSync,
    mut transport: X,
    active_count: &AtomicUsize,
) -> ShardReport {
    sync.guard(|| active_count.store(kernel.admit(), Ordering::SeqCst));
    if sync.sync() {
        // ready barrier crossed: initial active counts are published
        loop {
            if !sync.sync() || signal.stop.load(Ordering::SeqCst) {
                break; // A: round decision published
            }
            let round = signal.round.load(Ordering::SeqCst);
            sync.guard(|| {
                kernel.send_route(round, &mut transport);
                kernel
                    .flush(round, || Ok::<u64, Infallible>(transport.flush(round)))
                    .unwrap_or_else(|never| match never {});
            });
            if !sync.sync() {
                break; // B: all routing staged and flushed
            }
            sync.guard(|| {
                kernel
                    .deliver(round, |sink| transport.drain(round, sink))
                    .unwrap_or_else(|e| panic!("cross-shard transport failed: {e}"));
            });
            if !sync.sync() {
                break; // C: every slot of this round is in place
            }
            sync.guard(|| active_count.store(kernel.receive_compact(round), Ordering::SeqCst));
            if !sync.sync() {
                break; // D: all receives done — coordinator decides
            }
        }
    }
    let mut report = kernel.finish();
    report.syscall_batches = transport.syscall_batches();
    report
}

/// The coordinator half of the sharded protocol: decides rounds from the
/// published active counts and attributes the barrier-to-barrier windows to
/// the engine phases (A→B send + intra-shard routing, B→C cross-shard
/// drain, C→D receive).
fn sharded_coordinate(
    signal: &RoundSignal,
    sync: &PhaseSync,
    active_counts: &[AtomicUsize],
    max_rounds: u64,
    metrics: &mut RunMetrics,
    tracer: &dyn TraceSink,
) {
    let traced = tracer.enabled();
    let mut round: u64 = 0;
    if sync.sync() {
        // ready: initial active counts are published
        loop {
            let mut proceed = false;
            sync.guard(|| {
                let total: usize = active_counts.iter().map(|c| c.load(Ordering::SeqCst)).sum();
                if total == 0 {
                    signal.stop.store(true, Ordering::SeqCst);
                } else if round >= max_rounds {
                    metrics.hit_round_cap = true;
                    signal.stop.store(true, Ordering::SeqCst);
                } else {
                    metrics.active_per_round.push(total);
                    if traced {
                        tracer.emit(&TraceEvent::RoundStart {
                            round,
                            active: total,
                        });
                    }
                    signal.round.store(round, Ordering::SeqCst);
                    proceed = true;
                }
            });
            if !sync.sync() {
                break; // A
            }
            if !proceed {
                break;
            }

            let t = Instant::now();
            if !sync.sync() {
                break; // B: send + intra-shard routing window
            }
            let send_d = t.elapsed().as_nanos() as u64;
            metrics.phase_nanos.send += send_d;

            let t = Instant::now();
            if !sync.sync() {
                break; // C: cross-shard drain window
            }
            let deliver_d = t.elapsed().as_nanos() as u64;
            metrics.phase_nanos.deliver += deliver_d;

            let t = Instant::now();
            if !sync.sync() {
                break; // D: receive window
            }
            let receive_d = t.elapsed().as_nanos() as u64;
            metrics.phase_nanos.receive += receive_d;
            if traced {
                // Threads stored their post-compaction counts before D and
                // won't store again until the next round's receive guard
                // (which needs this coordinator at A first) — race-free.
                let remaining: usize = active_counts.iter().map(|c| c.load(Ordering::SeqCst)).sum();
                tracer.emit(&TraceEvent::RoundEnd {
                    round,
                    active: remaining,
                    nanos: send_d + deliver_d + receive_d,
                });
            }

            round += 1;
        }
    }
    metrics.rounds = round;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Port;

    /// Broadcasts its id once and keeps every `(port, message)` it heard.
    #[derive(Default)]
    struct Announce {
        id: u64,
        heard: Option<Vec<(Port, u64)>>,
    }

    impl NodeAlgorithm for Announce {
        type Message = u64;
        type Output = u64;

        fn init(&mut self, ctx: &NodeContext) {
            self.id = ctx.node as u64;
        }

        fn send(&mut self, _ctx: &NodeContext) -> Outbox<u64> {
            Outbox::Broadcast(self.id)
        }

        fn receive(&mut self, _ctx: &NodeContext, inbox: &Inbox<'_, u64>) {
            self.heard = Some(inbox.iter().map(|(p, &m)| (p, m)).collect());
        }

        fn is_halted(&self) -> bool {
            self.heard.is_some()
        }

        fn output(&self) -> u64 {
            self.id
        }
    }

    /// One broadcast round on a ring of 64 in four shards, driven kernel by
    /// kernel over [`InProcess`].  The ports of shards 1 and 2 lead one node
    /// past each end of their range, so those kernels keep values for the
    /// two and take their broadcasts as values: no slot is filled.  The
    /// edge 63–0 makes the ports of shards 0 and 3 span the ring, more
    /// values than their 32 slots afford, so they keep values for their own
    /// nodes only, and each remote neighbour's broadcast fills a slot.
    #[test]
    fn a_kernel_takes_remote_broadcasts_as_values_when_it_can_afford_them() {
        let (n, shards) = (64, 4);
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = ShardedTopology::from_topology(&Topology::from_edges(n, &edges).unwrap(), shards);
        let g = g.unwrap();
        let mut nodes: Vec<Announce> = (0..n).map(|_| Announce::default()).collect();
        let contexts: Vec<NodeContext> = (0..n)
            .map(|node| NodeContext {
                node,
                degree: 2,
                n,
                max_degree: 2,
                round: 0,
            })
            .collect();
        for (node, ctx) in nodes.iter_mut().zip(&contexts) {
            node.init(ctx);
        }
        let mut state = RoundState::new(&g);
        let (mut rest_nodes, mut rest_slots) = (&mut nodes[..], &mut state.slots[..]);
        let mut kernels = Vec::new();
        for s in 0..shards {
            let (own_nodes, tail) = rest_nodes.split_at_mut(g.shard_nodes(s).len());
            rest_nodes = tail;
            let (own_slots, tail) = rest_slots.split_at_mut(g.shard_slots(s).len());
            rest_slots = tail;
            kernels.push(ShardKernel::<_, _, ShardRows>::new(
                &g,
                s,
                own_nodes,
                &contexts[g.shard_nodes(s)],
                own_slots,
                DeliveryMode::Strict,
                &crate::trace::NoTrace,
            ));
        }
        let mut endpoints = InProcess.build::<u64>(&g).unwrap();
        for (kernel, endpoint) in kernels.iter_mut().zip(&mut endpoints) {
            kernel.admit();
            kernel.send_route(0, endpoint);
            endpoint.flush(0);
        }
        for (kernel, endpoint) in kernels.iter_mut().zip(&mut endpoints) {
            kernel.deliver(0, |sink| endpoint.drain(0, sink)).unwrap();
        }
        // Per shard: the nodes it keeps values for, and the slots filled.
        let want = [(0..16, 2), (15..33, 0), (31..49, 0), (48..64, 2)];
        for (kernel, (kept, filled)) in kernels.iter().zip(want) {
            let s = kernel.shard;
            let base = kernel.value_base;
            assert_eq!(base..base + kernel.values.len(), kept, "shard {s}");
            // Every node broadcast, so every value is set.
            assert_eq!(kernel.broadcast.len(), kept.len(), "shard {s}");
            assert_eq!(kernel.touched.len(), filled, "shard {s}");
        }
        for kernel in &mut kernels {
            assert_eq!(kernel.receive_compact(0), 0);
        }
        drop(kernels);
        // Every receiver heard each neighbour on exactly the port behind
        // which it sits, as a value or from a slot alike.
        for (v, node) in nodes.iter().enumerate() {
            let want: Vec<(Port, u64)> = (0..2).map(|p| (p, g.neighbor_at(v, p) as u64)).collect();
            assert_eq!(node.heard, Some(want), "node {v}");
        }
    }
}
