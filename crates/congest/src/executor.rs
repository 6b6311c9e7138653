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
//! one shard's nodes and inbox slots, one broadcast value per node of a
//! range around its own nodes (see "Slots and values" below), the lists of
//! the slots' mark words and the values set this round, its compact active
//! list and counters.  It runs a round in three steps —
//!
//! 1. **send + route**: clear the slots and values set last round, ask
//!    every active node for its outbox, and route each message through the
//!    sender's row of the destination table
//!    ([`dest_row`](ShardTopologyView::dest_row)).  A sender's row ascends,
//!    so its ports into one shard are one run of it.  A broadcast with a
//!    run in the sender's own shard is stored once, as the sender's value,
//!    and is staged once per other shard it reaches, with that run
//!    ([`Transport::stage_broadcast`]).  A per-port message is one load in
//!    the row: into the shard's own slot, or staged for the shard owning it
//!    ([`Transport::stage`]).  The staging is then flushed, timed;
//! 2. **deliver**: take the [`Entry`]s other shards routed here from the
//!    driver's drain: a per-port entry into its slot, a broadcast entry
//!    once, as the sender's value if the kernel keeps one for the sender,
//!    else into every slot of the sender's run in this shard (found by
//!    binary search on the sender's row, which also checks that the run is
//!    not empty);
//! 3. **receive + compact**: hand every active node its inbox — a
//!    zero-copy [`Inbox`] view whose port `p` yields the node's slot `p` if
//!    its presence bit is set, else the value of the neighbour behind `p` if
//!    the kernel keeps one for it (read from the node's source row,
//!    [`ShardTopologyView::source_row`]) — and drop the nodes that halted
//!    from the active list.
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
//! ([`PhaseTimings`]: send = clear + compute +
//! intra-shard routing, deliver = cross-shard drain, receive = receive +
//! compaction) and builds the per-shard trace events.  It counts into a
//! [`RunMetrics`] of its own, which its driver adds to the run's.
//! [`TraceSink::enabled`] is read once per kernel, so an untraced run
//! constructs no events.
//!
//! # One round loop, three drivers
//!
//! `ShardKernel::run` is the engine's only round loop.  Per round it asks
//! its driver's `RoundSync` for the round (or the stop), runs the send
//! step into the sync's stage (a [`Transport`] endpoint), flushes, waits
//! until every shard has flushed, delivers what the sync drains, waits
//! until every shard has delivered, then receives and compacts.  The
//! drivers differ only in their sync:
//!
//! * [`SequentialExecutor`] runs one kernel on the caller's thread, as a
//!   one-party run of the in-process barriers, over the [`Topology`] behind
//!   its view ([`TopologyView::whole`]): a `Topology` is one shard owning
//!   every node and slot, so every broadcast is stored as a value and every
//!   per-port message is routed straight into a slot; its stage holds
//!   nothing.
//! * [`ShardedExecutor`] runs one kernel per shard of a
//!   [`ShardedTopology`], shard 0 on the caller's thread and every other
//!   shard on a thread of its own, and moves cross-shard messages through a
//!   pluggable [`Transport`] (see the protocol below).
//!   [`ExecutionMode::Parallel`](crate::ExecutionMode::Parallel) selects it
//!   on a `threads`-shard topology built from the simulator's view.
//! * [`serve_shard_with`](crate::transport::serve_shard_with) runs one
//!   kernel per worker process over that worker's
//!   [`ShardSliceTopology`](crate::sharded::ShardSliceTopology): the round
//!   comes in a coordinator frame after the worker's vote, and data frames
//!   cross a [`WorkerMesh`](crate::transport::WorkerMesh).
//!
//! One halting rule decides every run: `Rounds` stops at zero active nodes,
//! sets `RunMetrics::hit_round_cap` at the round cap, records
//! `RunMetrics::active_per_round` and the round count, and emits the run
//! and round trace events.  Every in-process party applies it to the
//! summed active counts, and the multi-process coordinator
//! ([`coordinate_traced`](crate::transport::coordinate_traced)) applies it
//! to the summed votes.
//!
//! All drivers are required to be *bit-for-bit equivalent*: same outputs,
//! same metrics (up to wall-clock timings and backend-describing transport
//! counters), regardless of thread, shard or process count.  Tests assert
//! this against an independent reference loop.
//!
//! # Slots and values
//!
//! Each kernel owns its shard's inbox slots, one per port of the shard's
//! nodes, indexed by the flat slot contract ([`TopologyView::port_range`];
//! a shard's range is [`ShardTopologyView::shard_slots`]).  They are a
//! [`PortSlots`]: a plain message per slot and a presence bit per slot in
//! `u64` mark words, so a slot costs the message's size and one bit, not an
//! `Option` tag padded to the message's alignment.  A message from `v` over
//! port `p` lands in the slot of the reverse port at the receiving endpoint
//! and sets its bit.  The slots are allocated the first time one is
//! filled — by a per-port message into the own shard, a wire or fault
//! entry, or a broadcast from a node the kernel keeps no value for — each a
//! copy of that message, so a kernel that fills none never allocates them,
//! and its receivers read no slot.
//!
//! The kernel also keeps one broadcast value per node of a range, allocated
//! once per kernel: the shard's own nodes, widened to every node its ports
//! lead to when the kernel's view holds those nodes' rows (in one process,
//! not in a worker process) and the widening adds at most one value per
//! eight of the shard's slots.  Source rows ascend, so one pass over their
//! ends finds the range.  A broadcast from `v` writes one value in each
//! kernel that keeps one for `v`, not one slot per port, and the receivers
//! read it through their source rows: the paper's elimination stage, whose
//! nodes broadcast every round and compute one compare, is almost all such
//! delivery.  A dense graph in few shards keeps a value for every node in
//! every kernel and allocates no slot; a sparse graph in many shards, whose
//! remote senders reach a shard through about one port each and span the
//! graph, keeps its own nodes' values only, and its cross-shard broadcasts
//! land in slots.  A value stays an `Option`, and the values set are listed
//! by index: values marked like the slots took less memory but made the
//! receive step slower.
//!
//! A node's [`NodeContext`] is built where the kernel calls the node, from
//! its id, the length of its port range and the view's `n` and Δ; no run
//! stores one per node.  The kernel clears only what it set: the mark
//! words its fills dirtied, zeroed whole, and the values it lists, so quiet
//! rounds cost `O(active)` rather than `O(n + m)`, and no slot's message is
//! touched; its active list shrinks as nodes halt, so halted nodes stop
//! costing even an `is_halted()` check per round.  Slots and values die
//! with the kernel, so no run can hear another's messages.
//!
//! # Sharded barrier protocol
//!
//! The [`ShardedExecutor`] runs one party per shard; party `w` owns,
//! exclusively and lock-free, its kernel's inbox slots and values, so
//! **every write to a slot or value is performed by the thread that owns
//! it**, and shard `w`'s [`Transport`]
//! endpoint, so staging a cross-shard message takes no lock.  There is no
//! coordinator: every party decides each round itself, from the active
//! counts all parties publish.  Per round all parties cross three
//! barriers:
//!
//! 1. **D** — every party has published its active count (the run's first
//!    crossing plays D for the counts before round 0).  Each party sums the
//!    counts and applies the halting rule; all reach the same decision.
//!    Each runs its kernel's send step: intra-shard messages go straight
//!    into its own values and slots, cross-shard messages are staged on its
//!    endpoint (`Transport::stage_broadcast` once per broadcasting sender
//!    and destination shard, `Transport::stage` per per-port message), then
//!    flushed (`Transport::flush`: the in-process backend hands each
//!    destination its staging buffer, which holds one entry per broadcast;
//!    the socket backend seals one wire frame per destination shard, which
//!    encodes every edge).
//! 2. **B** — every message is routed.  Each party drains every `x → w`
//!    channel into its own slots and values (`Transport::drain`): a
//!    broadcast entry becomes the sender's value in `w`, or fills the
//!    sender's slots there if `w` keeps no value for it.  The barriers
//!    order the in-process handoffs: `x` hands its `x → w` buffer over
//!    before B, `w` takes it after B, and `x` stages into it again only
//!    after the next D.
//! 3. **C** — every slot and value of the round is in place.  Each party
//!    runs its kernel's receive step and publishes its new active count.
//!
//! No count is read while it changes: every party reads the counts after D
//! and before B, and a party stores its count again only after the next C.
//!
//! Each party runs under one `catch_unwind`.  A party that panics
//! (algorithm code or delivery validation) poisons the protocol and crosses
//! exactly one more barrier, the one its peers wait at, so all parties stop
//! at that crossing and the original panic is re-thrown — never a
//! deadlocked barrier.  When the run ends, each shard's counters are added
//! to the run's [`RunMetrics`] in shard order, every counter by its
//! registry rule (the same function adds a remote worker's), so the totals
//! are deterministic; `RunMetrics::shard_phase_nanos` keeps the per-shard
//! phase times and `RunMetrics::{intra,cross}_shard_messages` the split,
//! counted per edge however the transport groups its entries.  Shard 0's
//! windows between crossings (D→B, B→C, C→D) are the run's
//! `RunMetrics::phase_nanos`, and only shard 0's `Rounds` records the run
//! shape and traces it.
//!
//! Under [`DeliveryMode::Strict`] (the default) a second write to a slot
//! (its bit already set), or a second value from one sender, in one round
//! is a CONGEST violation and panics, once the drain has returned; under
//! [`DeliveryMode::Async`] — used by fault-injected runs
//! whose transport may deliver stale, duplicated or delayed copies — the
//! slot or value keeps the **most recently drained** message and each
//! overwritten slot or value counts once in `RunMetrics::stale_overwrites`.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::algorithm::{Inbox, MessageSize, NodeAlgorithm, NodeContext, Outbox, PortSlots};
use crate::metrics::{PhaseTimings, RunMetrics};
use crate::sharded::{ShardTopologyView, ShardedTopology};
use crate::topology::{NodeId, Topology, TopologyView};
use crate::trace::{NoTrace, TraceEvent, TracePhase, TraceSink};
use crate::transport::{
    Entry, InProcess, Transport, TransportBuilder, TransportError, TransportMessage,
};

/// A strategy for driving the synchronous round loop on a topology
/// representation `T`.
///
/// The trait is generic over [`TopologyView`] so a strategy can either work
/// with any representation ([`SequentialExecutor`] implements `Executor<T>`
/// for every `T: TopologyView`, and runs on the [`Topology`] behind it) or
/// demand a specific one
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
    fn drive<A: NodeAlgorithm>(
        &self,
        topology: &T,
        nodes: &mut [A],
        max_rounds: u64,
        metrics: &mut RunMetrics,
        tracer: &dyn TraceSink,
    );
}

/// One shard's share of the round engine — the kernel every driver runs
/// (see the [module docs](self)).
///
/// `nodes` are exactly the shard's nodes, indexed by global id minus
/// `node_base`.  `slots` holds one slot per global slot of `own`, indexed
/// by global slot minus `own.start`, allocated on its first fill.
/// `values` holds one broadcast value per node of
/// [`value_nodes`] (the shard's nodes, perhaps widened to the nodes its
/// ports lead to), indexed by global id minus `value_base`.  The kernel
/// reads its shard, its messages' destinations and its ports' sources from
/// the view `V`: a [`ShardedTopology`], a worker's
/// [`ShardSliceTopology`](crate::sharded::ShardSliceTopology), or, for the
/// single-threaded driver, a [`Topology`] as its only shard.
pub(crate) struct ShardKernel<'a, A: NodeAlgorithm, V: ShardTopologyView> {
    topology: &'a V,
    shard: usize,
    nodes: &'a mut [A],
    node_base: NodeId,
    /// What every node's context shares: `n` and Δ (node, degree and round
    /// are set per call).
    context: NodeContext,
    /// The shard's global slot range.
    own: core::ops::Range<usize>,
    /// The shard's inbox slots: none allocated until the first is filled.
    slots: PortSlots<A::Message>,
    /// The message each node of [`value_nodes`] broadcast into the shard
    /// this round, for its neighbours in the shard to pull.
    values: Vec<Option<A::Message>>,
    value_base: NodeId,
    delivery: DeliveryMode,
    /// Indices into `values` of the values set this round; sized to the
    /// value count at construction.
    broadcast: Vec<u32>,
    /// Global ids of the shard's still-active nodes, ascending.
    active: Vec<NodeId>,
    /// The shard's counters and phase timings.
    report: RunMetrics,
    tracer: &'a dyn TraceSink,
    traced: bool,
}

impl<'a, A: NodeAlgorithm, V: ShardTopologyView> ShardKernel<'a, A, V> {
    /// A kernel for `shard` of `topology`; [`ShardKernel::run`] runs it.
    pub(crate) fn new(
        topology: &'a V,
        shard: usize,
        nodes: &'a mut [A],
        delivery: DeliveryMode,
        tracer: &'a dyn TraceSink,
    ) -> Self {
        let node_range = topology.shard_nodes(shard);
        let value_range = value_nodes(topology, shard);
        assert_eq!(nodes.len(), node_range.len(), "one node per shard node");
        let own = topology.shard_slots(shard);
        Self {
            topology,
            shard,
            nodes,
            node_base: node_range.start,
            context: NodeContext {
                node: 0,
                degree: 0,
                n: topology.num_nodes(),
                max_degree: topology.max_degree(),
                round: 0,
            },
            slots: PortSlots::unfilled(own.len()),
            own,
            values: (0..value_range.len()).map(|_| None).collect(),
            value_base: value_range.start,
            delivery,
            broadcast: Vec::with_capacity(value_range.len()),
            active: Vec::new(),
            report: RunMetrics::default(),
            tracer,
            traced: tracer.enabled(),
        }
    }

    /// Runs the kernel's rounds under `sync` until it decides to stop, and
    /// returns the shard's counters: the engine's only round loop.  Per
    /// round it asks `sync` for the round, sends and routes into `sync`'s
    /// stage, flushes, waits until every shard has flushed, delivers what
    /// `sync` drains, waits until every shard has delivered, then receives
    /// and compacts, and the count of nodes still active goes to the next
    /// decision.
    ///
    /// # Errors
    ///
    /// Returns the first error of `sync`, or of the deliver step (see
    /// [`ShardKernel::deliver`]).
    pub(crate) fn run<S: RoundSync<A::Message>>(
        mut self,
        sync: &mut S,
    ) -> Result<RunMetrics, S::Error> {
        let mut active = self.admit();
        while let Some(round) = sync.decide(active)? {
            self.send_route(round, sync.stage());
            self.flush(round, || sync.flush(round))?;
            sync.flushed()?;
            self.deliver(round, |sink| sync.drain(round, sink))?;
            sync.drained()?;
            active = self.receive_compact(round);
        }
        self.report.syscall_batches = sync.stage().syscall_batches();
        Ok(self.report)
    }

    /// Fills the active list with the shard's nodes that have not halted
    /// and returns its length.
    fn admit(&mut self) -> usize {
        let (nodes, base) = (&*self.nodes, self.node_base);
        self.active.clear();
        self.active.extend(
            (0..nodes.len())
                .filter(|&i| !nodes[i].is_halted())
                .map(|i| base + i),
        );
        self.active.len()
    }

    /// The send step: clears the slots and values set last round, asks
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
    fn send_route<X: Transport<A::Message>>(&mut self, round: u64, stage: &mut X) {
        self.phase_start(round, TracePhase::Send);
        let (m0, b0, c0) = (
            self.report.messages,
            self.report.total_bits,
            self.report.cross_shard_messages,
        );
        let t = Instant::now();
        let shard = self.shard;
        send_and_route(
            self.topology,
            shard,
            NodeContext {
                round,
                ..self.context
            },
            self.nodes,
            self.node_base,
            &self.active,
            &self.own,
            &mut self.slots,
            &mut self.values,
            self.value_base,
            &mut self.broadcast,
            &mut self.report,
            stage,
        );
        let cross = self.report.cross_shard_messages - c0;
        self.report.intra_shard_messages += (self.report.messages - m0) - cross;
        let nanos = t.elapsed().as_nanos() as u64;
        self.report.phase_nanos.send += nanos;
        self.phase_end(round, TracePhase::Send, nanos);
        if self.traced {
            self.tracer.emit(&TraceEvent::ShardRound {
                round,
                shard,
                messages: self.report.messages - m0,
                bits: self.report.total_bits - b0,
                cross,
            });
        }
    }

    /// Times the driver's `flush` of the messages this round staged for
    /// other shards; `flush` returns the wire bytes it sealed.
    fn flush<E>(&mut self, round: u64, flush: impl FnOnce() -> Result<u64, E>) -> Result<(), E> {
        let t = Instant::now();
        let wire_bytes = flush()?;
        let nanos = t.elapsed().as_nanos() as u64;
        self.report.wire_bytes_sent += wire_bytes;
        self.report.transport_flush_nanos += nanos;
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
    /// [`DeliveryMode`]; a slot is marked, and a value listed, for the
    /// next send step to clear.
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
    /// written twice in one round, naming the first sender that wrote one
    /// again.  The sink only records it: the panic comes once `drain` has
    /// returned, and only if neither `drain` nor a misplaced entry failed,
    /// because a wire drain delivers while its shard still owes its peers
    /// bytes and must not unwind then.
    fn deliver<E: From<TransportError>>(
        &mut self,
        round: u64,
        drain: impl FnOnce(&mut dyn FnMut(Entry<A::Message>)) -> Result<(), E>,
    ) -> Result<(), E> {
        self.phase_start(round, TracePhase::Deliver);
        let s0 = self.report.stale_overwrites;
        let t = Instant::now();
        let (topology, shard, delivery) = (self.topology, self.shard, self.delivery);
        let value_base = self.value_base;
        let (mut stray, mut twice) = (None, None);
        let Self {
            own,
            slots,
            values,
            broadcast,
            report,
            ..
        } = self;
        let own = &*own;
        // The one rule for a second message into a slot or a value in one
        // round, which `again` says this write was.
        let mut check = |again: bool, sender: u32| {
            if again {
                match delivery {
                    DeliveryMode::Strict => {
                        twice.get_or_insert(sender);
                    }
                    // Newest wins: transports drain stale copies before the
                    // current round's messages.
                    DeliveryMode::Async => report.stale_overwrites += 1,
                }
            }
        };
        drain(&mut |entry| match entry {
            Entry::Port { slot, sender, msg } => {
                if own.contains(&(slot as usize)) {
                    check(slots.fill(slot as usize - own.start, msg), sender);
                } else {
                    stray.get_or_insert(TransportError::SlotOutsideShard { shard, slot });
                }
            }
            Entry::Broadcast { sender, msg } => {
                let v = sender as usize;
                let run = topology.dest_row(v).map_or(&[][..], |row| {
                    let start = row.partition_point(|&s| (s as usize) < own.start);
                    let len = row[start..].partition_point(|&s| (s as usize) < own.end);
                    &row[start..start + len]
                });
                if run.is_empty() {
                    stray.get_or_insert(TransportError::BroadcastOutsideShard { shard, sender });
                } else if v.wrapping_sub(value_base) < values.len() {
                    let i = v - value_base;
                    let again = values[i].replace(msg).is_some();
                    if !again {
                        broadcast.push(i as u32);
                    }
                    check(again, sender);
                } else {
                    for &slot in run {
                        check(slots.fill(slot as usize - own.start, msg.clone()), sender);
                    }
                }
            }
        })?;
        if let Some(e) = stray {
            return Err(e.into());
        }
        if let Some(sender) = twice {
            panic!("node {sender} sent two messages over the same port in one round");
        }
        let nanos = t.elapsed().as_nanos() as u64;
        self.report.phase_nanos.deliver += nanos;
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
    fn receive_compact(&mut self, round: u64) -> usize {
        self.phase_start(round, TracePhase::Receive);
        let t = Instant::now();
        let (shard, node_base, value_base) = (self.shard, self.node_base, self.value_base);
        let Self {
            topology,
            nodes,
            context,
            own,
            slots,
            values,
            active,
            ..
        } = self;
        for &v in active.iter() {
            let r = topology.port_range_from(shard, v);
            let ctx = NodeContext {
                node: v,
                degree: r.len(),
                round,
                ..*context
            };
            let inbox = Inbox::pulled(
                slots,
                r.start - own.start..r.end - own.start,
                topology
                    .source_row(v)
                    .expect("a shard holds its nodes' rows"),
                values,
                value_base,
            );
            nodes[v - node_base].receive(&ctx, &inbox);
        }
        active.retain(|&v| !nodes[v - node_base].is_halted());
        let nanos = t.elapsed().as_nanos() as u64;
        self.report.phase_nanos.receive += nanos;
        self.phase_end(round, TracePhase::Receive, nanos);
        self.active.len()
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
/// set last round, then ask every active node for its outbox, under its
/// context (`shared`, with the node's id and degree), and route each
/// message: a broadcast into `values`, a per-port message into this shard's
/// slot range `own`, or either to `stage`.
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
fn send_and_route<A, V, X>(
    topology: &V,
    shard: usize,
    shared: NodeContext,
    nodes: &mut [A],
    node_base: NodeId,
    active: &[NodeId],
    own: &core::ops::Range<usize>,
    slots: &mut PortSlots<A::Message>,
    values: &mut [Option<A::Message>],
    value_base: NodeId,
    broadcast: &mut Vec<u32>,
    report: &mut RunMetrics,
    stage: &mut X,
) where
    A: NodeAlgorithm,
    V: ShardTopologyView,
    X: Transport<A::Message>,
{
    slots.clear();
    for i in broadcast.drain(..) {
        values[i as usize] = None;
    }
    for &v in active {
        let row = topology.dest_row(v).expect("a shard holds its nodes' rows");
        let ctx = NodeContext {
            node: v,
            degree: row.len(),
            ..shared
        };
        match nodes[v - node_base].send(&ctx) {
            Outbox::Silent => {}
            Outbox::Broadcast(msg) => {
                let (bits, mut rest) = (msg.bit_size(), row);
                while let Some(&first) = rest.first() {
                    let to = topology.shard_of_slot(first as usize);
                    let end = topology.shard_slots(to).end;
                    let (run, tail) = rest.split_at(rest.partition_point(|&s| (s as usize) < end));
                    rest = tail;
                    report.record(run.len() as u64, bits);
                    if to == shard {
                        values[v - value_base] = Some(msg.clone());
                        broadcast.push((v - value_base) as u32);
                    } else {
                        report.cross_shard_messages += run.len() as u64;
                        stage.stage_broadcast(to, v as u32, msg.clone(), run);
                    }
                }
            }
            Outbox::PerPort(list) => {
                for (p, msg) in list {
                    assert!(p < row.len(), "node {v} sent on nonexistent port {p}");
                    let dest = row[p] as usize;
                    report.record(1, msg.bit_size());
                    if own.contains(&dest) {
                        assert!(
                            !slots.fill(dest - own.start, msg),
                            "node {v} sent two messages over the same port in one round"
                        );
                    } else {
                        report.cross_shard_messages += 1;
                        let to = topology.shard_of_slot(dest);
                        stage.stage(to, dest as u32, v as u32, msg);
                    }
                }
            }
        }
    }
}

/// A kernel keeps at most one value beyond its own nodes for every this many
/// of its slots (see [`value_nodes`]).
const SLOTS_PER_VALUE: usize = 8;

/// The nodes whose broadcasts `shard`'s kernel keeps as values: its own
/// nodes, widened to every node a port of the shard leads to if the view
/// holds their rows ([`ShardTopologyView::row_nodes`]) and the widening
/// adds at most one value per [`SLOTS_PER_VALUE`] slots of the shard.
/// Source rows ascend, so their ends bound those nodes in one pass.  A
/// broadcast from outside the range lands in slots.  So a sparse graph cut
/// into many shards, whose remote senders reach a shard through about one
/// port each and span the graph, costs no more memory than one value per
/// own node.
fn value_nodes(topology: &impl ShardTopologyView, shard: usize) -> core::ops::Range<NodeId> {
    let own = topology.shard_nodes(shard);
    let rows = topology.row_nodes();
    let (mut lo, mut hi) = (own.start, own.end);
    for v in own.clone() {
        let row = topology
            .source_row(v)
            .expect("a shard holds its nodes' rows");
        if let (Some(&first), Some(&last)) = (row.first(), row.last()) {
            lo = lo.min(first as usize);
            hi = hi.max(last as usize + 1);
        }
    }
    let reach = lo.max(rows.start)..hi.min(rows.end);
    if (reach.len() - own.len()) * SLOTS_PER_VALUE <= topology.shard_slots(shard).len() {
        reach
    } else {
        own
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

/// How a kernel's rounds are decided and its cross-shard messages moved:
/// the seam between [`ShardKernel::run`] and its driver.  In one process a
/// [`Party`] decides at a barrier; a worker process decides by the
/// coordinator's frames (`Frames` in [`crate::transport`]).
pub(crate) trait RoundSync<M: TransportMessage> {
    /// The endpoint the send step stages cross-shard messages into.
    type Stage: Transport<M>;
    /// Why a run stops before its end.
    type Error: From<TransportError>;

    /// Publishes this shard's count of active nodes and returns the round
    /// to run next, or `None` once the run is over.
    fn decide(&mut self, active: usize) -> Result<Option<u64>, Self::Error>;

    /// The stage of the send step.
    fn stage(&mut self) -> &mut Self::Stage;

    /// Flushes what the send step of `round` staged; returns the wire
    /// bytes it sealed.
    fn flush(&mut self, round: u64) -> Result<u64, Self::Error>;

    /// Waits until every shard has flushed the round.
    fn flushed(&mut self) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Feeds `sink` every entry other shards routed to this one in `round`.
    fn drain(&mut self, round: u64, sink: &mut dyn FnMut(Entry<M>)) -> Result<(), Self::Error>;

    /// Waits until every shard has delivered the round.
    fn drained(&mut self) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// The halting rule, and the run shape it leaves: every driver decides its
/// rounds here (see the [module docs](self)).  A run stops when no node is
/// active, or at `max_rounds` with `RunMetrics::hit_round_cap` set.  The
/// lead records `active_per_round` and emits the run and round trace
/// events; a follower reaches the same decisions and records nothing.
pub(crate) struct Rounds<'t> {
    max_rounds: u64,
    /// The rounds started so far.
    started: u64,
    lead: bool,
    active_per_round: Vec<usize>,
    hit_round_cap: bool,
    tracer: &'t dyn TraceSink,
    traced: bool,
    /// When the running round started, for its `RoundEnd`.
    clock: Instant,
}

impl<'t> Rounds<'t> {
    /// The lead of a run of `nodes` nodes in `shards` shards; emits
    /// `RunStart`.
    pub(crate) fn lead(
        nodes: usize,
        shards: usize,
        max_rounds: u64,
        tracer: &'t dyn TraceSink,
    ) -> Self {
        let traced = tracer.enabled();
        if traced {
            tracer.emit(&TraceEvent::RunStart { nodes, shards });
        }
        Self {
            max_rounds,
            started: 0,
            lead: true,
            active_per_round: Vec::new(),
            hit_round_cap: false,
            tracer,
            traced,
            clock: Instant::now(),
        }
    }

    /// A party that reaches the lead's decisions and records nothing.
    fn follow(max_rounds: u64) -> Self {
        Self {
            lead: false,
            traced: false,
            ..Self::lead(0, 0, max_rounds, &NoTrace)
        }
    }

    /// The rounds started so far: the round the next decision would start.
    pub(crate) fn next(&self) -> u64 {
        self.started
    }

    /// Applies the halting rule to `active`, the count of active nodes
    /// summed over every shard, and returns the round to run next, or
    /// `None` to stop.  Ends the round before, if any, in the trace.
    pub(crate) fn decide(&mut self, active: usize) -> Option<u64> {
        if self.traced && self.started > 0 {
            self.tracer.emit(&TraceEvent::RoundEnd {
                round: self.started - 1,
                active,
                nanos: self.clock.elapsed().as_nanos() as u64,
            });
        }
        if active == 0 {
            return None;
        }
        if self.started >= self.max_rounds {
            self.hit_round_cap = true;
            return None;
        }
        let round = self.started;
        self.started += 1;
        if self.lead {
            self.active_per_round.push(active);
        }
        if self.traced {
            self.tracer.emit(&TraceEvent::RoundStart { round, active });
            self.clock = Instant::now();
        }
        Some(round)
    }

    /// Ends the run: writes the round count, the cap flag and
    /// `active_per_round` into `metrics`, and emits `RunEnd`.
    pub(crate) fn finish(self, metrics: &mut RunMetrics) {
        metrics.rounds = self.started;
        metrics.hit_round_cap = self.hit_round_cap;
        metrics.active_per_round = self.active_per_round;
        if self.traced {
            self.tracer.emit(&TraceEvent::RunEnd {
                rounds: self.started,
            });
        }
    }
}

/// The single-threaded driver: one kernel over the whole graph, on the
/// caller's thread, run as the only party of the in-process barriers.  It
/// reports no shard split (`RunMetrics::{intra,cross}_shard_messages` stay
/// 0, `RunMetrics::shard_phase_nanos` stays empty) and no transport
/// (`RunMetrics::transport_flush_nanos` stays 0), and its `phase_nanos` are
/// its kernel's.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialExecutor;

impl<T: TopologyView> Executor<T> for SequentialExecutor {
    fn drive<A: NodeAlgorithm>(
        &self,
        topology: &T,
        nodes: &mut [A],
        max_rounds: u64,
        metrics: &mut RunMetrics,
        tracer: &dyn TraceSink,
    ) {
        let mut rounds = Rounds::lead(nodes.len(), 1, max_rounds, tracer);
        let sync = PhaseSync::new(1);
        let kernel = ShardKernel::new(topology.whole(), 0, nodes, DeliveryMode::Strict, tracer);
        let done = Party::new(&sync, 0, OneShard, &mut rounds, false).run(kernel);
        sync.rethrow();
        if let Some((mut report, _)) = done {
            report.intra_shard_messages = 0;
            report.transport_flush_nanos = 0;
            metrics.merge(&report);
        }
        rounds.finish(metrics);
    }
}

/// The threaded driver: one kernel per shard of a [`ShardedTopology`], each
/// on a thread of its own (shard 0's on the caller's) with exclusive,
/// lock-free ownership of its shard's inbox slots; cross-shard messages
/// travel through a pluggable [`Transport`] backend.  See the [module
/// docs](self) for the barrier protocol.  Bit-for-bit equivalent to [`SequentialExecutor`] on the same
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

/// Barrier synchronisation with panic poisoning, and the active counts the
/// parties publish.
///
/// A party that panics records its payload with [`PhaseSync::poison`] and
/// still crosses its next barrier; the first payload is re-thrown to the
/// caller by [`PhaseSync::rethrow`].
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
    /// Each party's count of active nodes, stored before it crosses D.
    counts: Vec<AtomicUsize>,
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
            counts: (0..parties).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Poisons the protocol with a party's panic; the first payload is the
    /// one re-thrown.
    fn poison(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(payload);
        }
        self.poisoned.store(true, Ordering::SeqCst);
    }

    /// Crosses the barrier; returns `false` if the protocol was poisoned
    /// when the crossing completed.  The verdict is stamped per generation,
    /// so every party of one crossing gets the same answer and all parties
    /// exit the protocol at the same crossing.
    fn cross(&self) -> bool {
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
            // calls `cross` again.
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

/// Why an in-process party stops before the run ends.
enum Stop {
    /// A party panicked, and the protocol is poisoned.
    Poisoned,
    /// This party's transport failed, or delivered an entry the shard
    /// cannot place.
    Transport(TransportError),
}

impl From<TransportError> for Stop {
    fn from(e: TransportError) -> Self {
        Stop::Transport(e)
    }
}

/// One party of the in-process barrier protocol (see the [module
/// docs](self)): its shard, its transport endpoint, its `Rounds`, and, if
/// it is timed (shard 0), the windows between its crossings.
struct Party<'p, 't, X> {
    sync: &'p PhaseSync,
    shard: usize,
    transport: X,
    rounds: &'p mut Rounds<'t>,
    /// The time between crossings, by the phase it covers, and the last
    /// crossing.
    windows: Option<(PhaseTimings, Option<Instant>)>,
}

impl<'p, 't, X> Party<'p, 't, X> {
    fn new(
        sync: &'p PhaseSync,
        shard: usize,
        transport: X,
        rounds: &'p mut Rounds<'t>,
        timed: bool,
    ) -> Self {
        Self {
            sync,
            shard,
            transport,
            rounds,
            windows: timed.then(|| (PhaseTimings::default(), None)),
        }
    }

    /// Runs `kernel` to the end of the run, under one `catch_unwind`, and
    /// returns its counters and this party's windows
    /// (zero unless timed), or `None` if a party panicked.  A party that
    /// panics poisons the protocol and crosses exactly one more barrier,
    /// the one its peers wait at, so every party stops there.
    /// `AssertUnwindSafe` is sound because after a poisoning panic the
    /// possibly-inconsistent node state is never touched again: the driver
    /// re-throws the panic.
    fn run<A, V>(mut self, kernel: ShardKernel<'_, A, V>) -> Option<(RunMetrics, PhaseTimings)>
    where
        A: NodeAlgorithm,
        V: ShardTopologyView,
        X: Transport<A::Message>,
    {
        let ran = catch_unwind(AssertUnwindSafe(|| match kernel.run(&mut self) {
            Ok(report) => Some(report),
            Err(Stop::Poisoned) => None,
            Err(Stop::Transport(e)) => panic!("cross-shard transport failed: {e}"),
        }));
        match ran {
            Ok(report) => report.map(|r| (r, self.windows.map(|(w, _)| w).unwrap_or_default())),
            Err(payload) => {
                self.sync.poison(payload);
                self.sync.cross();
                None
            }
        }
    }

    /// Crosses the next barrier and, if timed, adds the time since the
    /// last crossing to the window `phase` picks.
    fn cross(&mut self, phase: fn(&mut PhaseTimings) -> &mut u64) -> Result<(), Stop> {
        let crossed = self.sync.cross();
        if let Some((windows, last)) = &mut self.windows {
            let now = Instant::now();
            if let Some(t) = last.replace(now) {
                *phase(windows) += (now - t).as_nanos() as u64;
            }
        }
        if crossed {
            Ok(())
        } else {
            Err(Stop::Poisoned)
        }
    }
}

impl<M: TransportMessage, X: Transport<M>> RoundSync<M> for Party<'_, '_, X> {
    type Stage = X;
    type Error = Stop;

    /// Stores this party's count, crosses D (C→D is the receive window),
    /// and applies the halting rule to every party's count.
    fn decide(&mut self, active: usize) -> Result<Option<u64>, Stop> {
        self.sync.counts[self.shard].store(active, Ordering::SeqCst);
        self.cross(|w| &mut w.receive)?;
        let total = self
            .sync
            .counts
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .sum();
        Ok(self.rounds.decide(total))
    }

    fn stage(&mut self) -> &mut X {
        &mut self.transport
    }

    fn flush(&mut self, round: u64) -> Result<u64, Stop> {
        Ok(self.transport.flush(round))
    }

    /// Crosses B (D→B is the send window).
    fn flushed(&mut self) -> Result<(), Stop> {
        self.cross(|w| &mut w.send)
    }

    fn drain(&mut self, round: u64, sink: &mut dyn FnMut(Entry<M>)) -> Result<(), Stop> {
        Ok(self.transport.drain(round, sink)?)
    }

    /// Crosses C (B→C is the deliver window).
    fn drained(&mut self) -> Result<(), Stop> {
        self.cross(|w| &mut w.deliver)
    }
}

impl<B: TransportBuilder> Executor<ShardedTopology> for ShardedExecutor<B> {
    fn drive<A: NodeAlgorithm>(
        &self,
        topology: &ShardedTopology,
        nodes: &mut [A],
        max_rounds: u64,
        metrics: &mut RunMetrics,
        tracer: &dyn TraceSink,
    ) {
        let shard_count = topology.num_shards();
        let mut lead = Rounds::lead(nodes.len(), shard_count, max_rounds, tracer);
        let endpoints = self
            .builder
            .build::<A::Message>(topology)
            .unwrap_or_else(|e| panic!("failed to build the cross-shard transport: {e}"));
        assert_eq!(
            endpoints.len(),
            shard_count,
            "one transport endpoint per shard"
        );
        let sync = PhaseSync::new(shard_count);
        let delivery = self.delivery;
        let party = |s, nodes, transport, rounds: &mut Rounds<'_>| {
            if tracer.enabled() {
                tracer.emit(&TraceEvent::WorkerStart { shard: s });
            }
            let kernel = ShardKernel::new(topology, s, nodes, delivery, tracer);
            let done = Party::new(&sync, s, transport, rounds, s == 0).run(kernel);
            if tracer.enabled() {
                tracer.emit(&TraceEvent::WorkerEnd { shard: s });
            }
            done
        };

        // Hand each party what it owns: its transport endpoint and the
        // exclusive slice of its shard's nodes.  Shard 0 runs on this
        // thread, every other shard on a thread of its own.
        let mut rest: &mut [A] = nodes;
        let mut shares = Vec::with_capacity(shard_count);
        for (s, transport) in endpoints.into_iter().enumerate() {
            let (mine, tail) = rest.split_at_mut(topology.shard_nodes(s).len());
            rest = tail;
            shares.push((s, mine, transport));
        }
        let mut shares = shares.into_iter();
        let (_, nodes0, transport0) = shares.next().expect("a sharded topology has a shard");
        let done: Vec<_> = std::thread::scope(|scope| {
            let party = &party;
            let others: Vec<_> = shares
                .map(|(s, nodes, transport)| {
                    scope.spawn(move || {
                        let mut rounds = Rounds::follow(max_rounds);
                        party(s, nodes, transport, &mut rounds)
                    })
                })
                .collect();
            let first = party(0, nodes0, transport0, &mut lead);
            std::iter::once(first)
                .chain(
                    others
                        .into_iter()
                        .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))),
                )
                .collect()
        });
        sync.rethrow();

        for (s, (report, windows)) in done.into_iter().flatten().enumerate() {
            if s == 0 {
                metrics.phase_nanos = windows;
            }
            metrics.add_shard(&report);
        }
        lead.finish(metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Port;

    /// Broadcasts its id once, or sends it over `port` only, and keeps
    /// every `(port, message)` it heard.
    #[derive(Default)]
    struct Announce {
        id: u64,
        port: Option<Port>,
        heard: Option<Vec<(Port, u64)>>,
    }

    impl NodeAlgorithm for Announce {
        type Message = u64;
        type Output = u64;

        fn init(&mut self, ctx: &NodeContext) {
            self.id = ctx.node as u64;
        }

        fn send(&mut self, _ctx: &NodeContext) -> Outbox<u64> {
            match self.port {
                Some(p) => Outbox::PerPort(vec![(p, self.id)]),
                None => Outbox::Broadcast(self.id),
            }
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

    /// `n` initialised announcers on a ring, each of degree 2; `port_of`
    /// picks the nodes that send over one port instead of broadcasting.
    fn ring_announcers(n: usize, port_of: impl Fn(usize) -> Option<Port>) -> Vec<Announce> {
        (0..n)
            .map(|node| {
                let mut a = Announce {
                    port: port_of(node),
                    ..Announce::default()
                };
                a.init(&NodeContext {
                    node,
                    degree: 2,
                    n,
                    max_degree: 2,
                    round: 0,
                });
                a
            })
            .collect()
    }

    /// Per shard, after one round: the nodes its kernel keeps values for,
    /// the values set, the slots filled and the slots allocated.
    type KernelState = (core::ops::Range<NodeId>, usize, usize, usize);

    fn kernel_state<A: NodeAlgorithm, V: ShardTopologyView>(
        k: &ShardKernel<'_, A, V>,
    ) -> KernelState {
        let kept = k.value_base..k.value_base + k.values.len();
        (
            kept,
            k.broadcast.len(),
            k.slots.filled(),
            k.slots.allocated(),
        )
    }

    /// Runs one round of `nodes` on `g`, kernel by kernel over
    /// [`InProcess`], and returns every kernel's [`KernelState`].
    fn one_sharded_round(g: &ShardedTopology, nodes: &mut [Announce]) -> Vec<KernelState> {
        let mut rest = nodes;
        let mut kernels = Vec::new();
        for s in 0..g.num_shards() {
            let (own, tail) = rest.split_at_mut(g.shard_nodes(s).len());
            rest = tail;
            kernels.push(ShardKernel::new(g, s, own, DeliveryMode::Strict, &NoTrace));
        }
        let mut endpoints = InProcess.build::<u64>(g).unwrap();
        for (kernel, endpoint) in kernels.iter_mut().zip(&mut endpoints) {
            kernel.admit();
            kernel.send_route(0, endpoint);
            endpoint.flush(0);
        }
        for (kernel, endpoint) in kernels.iter_mut().zip(&mut endpoints) {
            kernel.deliver(0, |sink| endpoint.drain(0, sink)).unwrap();
        }
        let states = kernels.iter().map(kernel_state).collect();
        for kernel in &mut kernels {
            assert_eq!(kernel.receive_compact(0), 0);
        }
        states
    }

    /// Runs one round of `nodes` on `g` in the single-threaded driver's
    /// kernel and returns its [`KernelState`].
    fn one_whole_round(g: &Topology, nodes: &mut [Announce]) -> KernelState {
        let mut kernel = ShardKernel::new(g, 0, nodes, DeliveryMode::Strict, &NoTrace);
        kernel.admit();
        kernel.send_route(0, &mut OneShard);
        kernel.deliver(0, |sink| OneShard.drain(0, sink)).unwrap();
        let state = kernel_state(&kernel);
        assert_eq!(kernel.receive_compact(0), 0);
        state
    }

    /// What every node of the ring `g` heard when each of its neighbours
    /// but `quiet` sent it its id.
    fn heard_on_ring(g: &impl TopologyView, quiet: &[(NodeId, NodeId)]) -> Heard {
        (0..g.num_nodes())
            .map(|v| {
                (0..2)
                    .map(|p| (p, g.neighbor_at(v, p)))
                    .filter(|&(_, u)| !quiet.contains(&(u, v)))
                    .map(|(p, u)| (p, u as u64))
                    .collect()
            })
            .collect()
    }

    /// What each node heard: its `(port, message)` pairs in port order.
    type Heard = Vec<Vec<(Port, u64)>>;

    fn heard(nodes: &[Announce]) -> Heard {
        nodes.iter().map(|a| a.heard.clone().unwrap()).collect()
    }

    /// One broadcast round on a ring of 64 in four shards, driven kernel by
    /// kernel over [`InProcess`].  The ports of shards 1 and 2 lead one node
    /// past each end of their range, so those kernels keep values for the
    /// two and take their broadcasts as values: no slot is filled, and none
    /// is allocated.  The edge 63–0 makes the ports of shards 0 and 3 span
    /// the ring, more values than their 32 slots afford, so they keep
    /// values for their own nodes only, and each remote neighbour's
    /// broadcast fills a slot: the first fill allocates all 32.
    #[test]
    fn a_kernel_takes_remote_broadcasts_as_values_when_it_can_afford_them() {
        let (n, shards) = (64, 4);
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = ShardedTopology::from_topology(&Topology::from_edges(n, &edges).unwrap(), shards);
        let g = g.unwrap();
        let mut nodes = ring_announcers(n, |_| None);
        // Per shard: the nodes it keeps values for, the values set (every
        // node broadcast), the slots filled and the slots allocated.
        let want = [
            (0..16, 16, 2, 32),
            (15..33, 18, 0, 0),
            (31..49, 18, 0, 0),
            (48..64, 16, 2, 32),
        ];
        assert_eq!(one_sharded_round(&g, &mut nodes), want);
        // Every receiver heard each neighbour on exactly the port behind
        // which it sits, as a value or from a slot alike.
        assert_eq!(heard(&nodes), heard_on_ring(&g, &[]));

        // One per-port message into its own shard makes shard 1 allocate
        // its 32 slots, and fills one; the other kernels are as before.
        let mut nodes = ring_announcers(n, |v| (v == 20).then_some(0));
        let mut want = want;
        want[1] = (15..33, 17, 1, 32);
        assert_eq!(one_sharded_round(&g, &mut nodes), want);
        assert_eq!(heard(&nodes), heard_on_ring(&g, &[(20, 21)]));
    }

    /// The single-threaded driver's kernel keeps a value for every node, so
    /// a broadcast-only round allocates no slot; one per-port message
    /// allocates every slot of the graph and fills one.
    #[test]
    fn a_single_threaded_kernel_allocates_slots_on_the_first_per_port_message() {
        let n = 8;
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = Topology::from_edges(n, &edges).unwrap();
        let mut nodes = ring_announcers(n, |_| None);
        assert_eq!(one_whole_round(&g, &mut nodes), (0..n, n, 0, 0));
        assert_eq!(heard(&nodes), heard_on_ring(&g, &[]));

        // Node 3 sends over port 0 only, to node 2.
        let mut nodes = ring_announcers(n, |v| (v == 3).then_some(0));
        assert_eq!(one_whole_round(&g, &mut nodes), (0..n, n - 1, 1, 2 * n));
        assert_eq!(heard(&nodes), heard_on_ring(&g, &[(3, 4)]));
    }

    /// A ring of 50 has 100 slots, node `v`'s ports at slots `2v` and
    /// `2v + 1`, whose presence bits fill one mark word and 36 bits of a
    /// second.
    const MARKED_RING: usize = 50;

    /// Runs the deliver step of round 0 in the single-threaded kernel over
    /// the ring of [`MARKED_RING`] announcers, none of which sent: `slots`
    /// feeds the drain `(slot, message)` entries from node 7.  Then every
    /// node receives and halts, and round 1's send step clears the slots.
    /// Returns, after the deliver step and after the clear, the slots
    /// filled and allocated, the stale overwrites counted, and what every
    /// node heard.
    fn deliver_into_marks(
        delivery: DeliveryMode,
        slots: &[(u32, u64)],
    ) -> ([(usize, usize); 2], u64, Heard) {
        let n = MARKED_RING;
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = Topology::from_edges(n, &edges).unwrap();
        let mut nodes = ring_announcers(n, |_| None);
        let mut kernel = ShardKernel::new(&g, 0, &mut nodes, delivery, &NoTrace);
        kernel.admit();
        let feed = |sink: &mut dyn FnMut(Entry<u64>)| {
            for &(slot, msg) in slots {
                sink(Entry::Port {
                    slot,
                    sender: 7,
                    msg,
                });
            }
            Ok::<_, TransportError>(())
        };
        kernel.deliver(0, feed).unwrap();
        let delivered = (kernel.slots.filled(), kernel.slots.allocated());
        assert_eq!(kernel.receive_compact(0), 0);
        kernel.send_route(1, &mut OneShard);
        let cleared = (kernel.slots.filled(), kernel.slots.allocated());
        assert!(Inbox::pulled(&kernel.slots, 0..2 * n, &[], &[], 0).is_empty());
        let stale = kernel.report.stale_overwrites;
        drop(kernel);
        ([delivered, cleared], stale, heard(&nodes))
    }

    /// What every node of the ring of [`MARKED_RING`] hears when `slots`
    /// hold these messages and no other slot or value does.
    fn heard_from_slots(slots: &[(u32, u64)]) -> Heard {
        (0..MARKED_RING)
            .map(|v| {
                (0..2)
                    .filter_map(|p| {
                        let slot = (2 * v + p) as u32;
                        slots
                            .iter()
                            .find(|&&(s, _)| s == slot)
                            .map(|&(_, m)| (p, m))
                    })
                    .collect()
            })
            .collect()
    }

    /// Fills at the first and last bit of the first mark word, the first of
    /// the second and the last slot, in the partial second word: each
    /// message reaches exactly the node and port of its slot, and the next
    /// round's clear unmarks every slot and keeps the allocation.
    #[test]
    fn marked_slots_fill_across_mark_words_and_clear_the_next_round() {
        let slots = [(0, 10), (63, 11), (64, 12), (99, 13)];
        let (counts, stale, heard) = deliver_into_marks(DeliveryMode::Strict, &slots);
        assert_eq!(counts, [(4, 100), (0, 100)]);
        assert_eq!(stale, 0);
        assert_eq!(heard, heard_from_slots(&slots));
    }

    #[test]
    #[should_panic(expected = "node 7 sent two messages over the same port in one round")]
    fn a_strict_kernel_rejects_a_second_fill_of_one_slot() {
        deliver_into_marks(DeliveryMode::Strict, &[(64, 1), (99, 2), (64, 3)]);
    }

    /// Under `Async` a second fill of one slot keeps the newer message and
    /// counts one stale overwrite.
    #[test]
    fn an_async_kernel_counts_a_second_fill_of_one_slot_once() {
        let (counts, stale, heard) =
            deliver_into_marks(DeliveryMode::Async, &[(64, 1), (99, 2), (64, 3)]);
        assert_eq!(counts, [(2, 100), (0, 100)]);
        assert_eq!(stale, 1);
        assert_eq!(heard, heard_from_slots(&[(64, 3), (99, 2)]));
    }
}
