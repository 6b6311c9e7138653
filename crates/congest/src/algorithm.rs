//! The per-node algorithm interface.
//!
//! A distributed algorithm is a state machine replicated at every node.  Per
//! synchronous round the simulator
//!
//! 1. asks every *active* node for its outgoing messages ([`NodeAlgorithm::send`]),
//! 2. delivers all messages along the edges,
//! 3. hands every active node its inbox ([`NodeAlgorithm::receive`]).
//!
//! A node signals termination through [`NodeAlgorithm::is_halted`]; a halted
//! node neither sends nor receives (its last messages of the round in which
//! it halted are still delivered).  When all nodes have halted, the round in
//! which the last node halted is the measured round complexity.
//!
//! # Accounting for messages sent to halted nodes
//!
//! Neighbours of a halted node generally cannot know it has halted, so they
//! may keep transmitting to it.  The engine charges **every transmitted
//! message** to [`RunMetrics`](crate::RunMetrics) — including messages
//! addressed to halted receivers, which occupy the wire exactly like any
//! other CONGEST message — but a halted receiver simply discards them: its
//! `receive` is never invoked again, so its state and output are unaffected.
//! This "charge the sender, discard at the sleeping receiver" semantics is a
//! deliberate, documented choice (pinned by a regression test): round and
//! bandwidth complexity measure what the *network* carries, not what
//! receivers choose to read.
//!
//! Nodes address neighbours exclusively through *ports* — they never learn
//! neighbour identifiers unless a neighbour announces its own, which mirrors
//! the LOCAL/CONGEST assumption that nodes "are unaware of the IDs of their
//! neighbors" (Section 1.1 of the paper).

use crate::topology::Port;

/// Bit-size accounting for CONGEST bandwidth checks.
///
/// Every message type used with the simulator reports how many bits it would
/// occupy on the wire.  The simulator records the maximum over all messages
/// of a run so experiments can assert the `O(log n)` CONGEST bound.
pub trait MessageSize {
    /// The number of bits this message occupies on the wire.
    fn bit_size(&self) -> u64;
}

impl MessageSize for u64 {
    fn bit_size(&self) -> u64 {
        64 - self.leading_zeros() as u64
    }
}

impl MessageSize for () {
    fn bit_size(&self) -> u64 {
        1
    }
}

/// Read-only per-node information available in every round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeContext {
    /// The node's own identifier (usable as an input color / unique ID).
    pub node: usize,
    /// The node's degree (number of ports).
    pub degree: usize,
    /// The global number of nodes `n` (global knowledge, as in the paper).
    pub n: usize,
    /// The global maximum degree `Δ` (global knowledge).
    pub max_degree: u32,
    /// The current round, starting at 0 for the first send/receive exchange.
    pub round: u64,
}

/// What a node wants to transmit in one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outbox<M> {
    /// Send nothing this round.
    Silent,
    /// Send the same message over every port (the common case for the
    /// paper's algorithms: announce your input color / your adopted color).
    Broadcast(M),
    /// Send distinct messages over selected ports.
    PerPort(Vec<(Port, M)>),
}

impl<M> Outbox<M> {
    /// True if nothing is sent.
    pub fn is_silent(&self) -> bool {
        matches!(self, Outbox::Silent) || matches!(self, Outbox::PerPort(v) if v.is_empty())
    }
}

/// The messages a node received in one round, indexed by the port on which
/// they arrived.
///
/// An inbox is a zero-copy *view* into the engine's per-run [`RoundState`]
/// arena: one slot per port, `Some(msg)` if a message arrived on that port
/// this round.  Because the CONGEST model allows at most one message per
/// edge per round, a slot per port is always enough (the engine rejects
/// algorithms that try to send twice over the same port in one round).
///
/// [`RoundState`]: crate::executor::RoundState
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inbox<'a, M> {
    slots: &'a [Option<M>],
}

impl<'a, M> Inbox<'a, M> {
    /// Creates an inbox viewing one slot per port (`slots[p]` holds the
    /// message that arrived on port `p`, if any).
    pub fn from_slots(slots: &'a [Option<M>]) -> Self {
        Self { slots }
    }

    /// An empty inbox.
    pub fn empty() -> Self {
        Self { slots: &[] }
    }

    /// Iterator over `(port, message)` pairs in port order.
    pub fn iter(&self) -> impl Iterator<Item = (Port, &'a M)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(p, m)| m.as_ref().map(|m| (p, m)))
    }

    /// The contiguous per-port slot slice backing this inbox (`slots[p]`
    /// holds port `p`'s message, if any) — straight out of the executor's
    /// CSR slot arena.  Batched receive loops scan this directly (e.g.
    /// `inbox.slots().iter().flatten()` when ports don't matter): one
    /// linear pass over adjacent memory the compiler can unroll and
    /// vectorise, where [`iter`](Self::iter)'s filter-map chain would
    /// re-branch per slot.
    pub fn slots(&self) -> &'a [Option<M>] {
        self.slots
    }

    /// The message that arrived on `port`, if any.
    pub fn from_port(&self, port: Port) -> Option<&'a M> {
        self.slots.get(port)?.as_ref()
    }

    /// Number of messages received.
    ///
    /// This scans the node's port slots, so it costs `O(deg(v))`; prefer a
    /// single [`Inbox::iter`] pass over repeated `len()` calls.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|m| m.is_some()).count()
    }

    /// Whether no message was received.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|m| m.is_none())
    }
}

/// The per-node state machine of a distributed algorithm.
///
/// Implementations must be deterministic functions of their explicit state
/// for runs to be reproducible and executor-independent (the parallel and
/// sequential executors are required to produce identical outputs).
pub trait NodeAlgorithm: Send {
    /// The message type exchanged over edges.
    ///
    /// `Send + Sync` are required because the threaded driver hands
    /// messages between shard threads through a transport they all share
    /// ([`TransportMessage`](crate::transport::TransportMessage)); message
    /// types are plain data in practice, so the bound is automatic.
    ///
    /// [`WireMessage`](crate::wire::WireMessage) is required because in
    /// CONGEST a message is, by definition, a bounded bit string on a wire:
    /// every message type must say how it is encoded, which is what lets
    /// the socket transports run any algorithm across real sockets and
    /// lets the bandwidth tests check the recorded
    /// [`MessageSize::bit_size`] against actual encoded bits.
    type Message: Clone + Send + Sync + MessageSize + crate::wire::WireMessage;
    /// The node's final output (e.g. its color).
    type Output: Clone + Send;

    /// Called once before round 0 with the node's static context.
    fn init(&mut self, ctx: &NodeContext);

    /// Produces this round's outgoing messages.
    fn send(&mut self, ctx: &NodeContext) -> Outbox<Self::Message>;

    /// Consumes this round's incoming messages and updates local state.
    fn receive(&mut self, ctx: &NodeContext, inbox: &Inbox<'_, Self::Message>);

    /// Whether this node has terminated (produced its final output).
    fn is_halted(&self) -> bool;

    /// The node's output.  Only meaningful once [`Self::is_halted`] is true,
    /// or when the simulator stops the run at its round cap.
    fn output(&self) -> Self::Output;

    /// Whether this algorithm's invariants survive **stale or reordered**
    /// message delivery — the async-round execution mode used by
    /// fault-injected runs
    /// ([`DeliveryMode::Async`](crate::executor::DeliveryMode)), where a
    /// message may cross a round boundary and a port slot keeps the most
    /// recently arrived message instead of panicking on a second write.
    ///
    /// The default is `false`: synchronous CONGEST algorithms are allowed to
    /// assume every round-`r` message arrives at the round-`r` barrier, and
    /// the fault harness uses this declaration to classify an invariant
    /// violation as *expected under the declared model* rather than a bug.
    /// Override to `true` only for algorithms that are explicitly
    /// self-stabilizing against reordering (e.g. ones that re-announce
    /// state every round and treat messages idempotently).
    fn tolerates_async_delivery(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inbox_views_slots_in_port_order() {
        let slots = [Some("a"), None, Some("c"), Some("d")];
        let inbox = Inbox::from_slots(&slots);
        let collected: Vec<_> = inbox.iter().map(|(p, m)| (p, *m)).collect();
        assert_eq!(collected, vec![(0, "a"), (2, "c"), (3, "d")]);
        assert_eq!(inbox.from_port(2), Some(&"c"));
        assert_eq!(inbox.from_port(1), None);
        assert_eq!(inbox.from_port(7), None);
        assert_eq!(inbox.len(), 3);
        assert!(!inbox.is_empty());
        assert!(Inbox::<u64>::empty().is_empty());
        assert_eq!(Inbox::<u64>::empty().len(), 0);
    }

    #[test]
    fn outbox_silence() {
        assert!(Outbox::<u64>::Silent.is_silent());
        assert!(Outbox::<u64>::PerPort(vec![]).is_silent());
        assert!(!Outbox::Broadcast(3u64).is_silent());
        assert!(!Outbox::PerPort(vec![(0, 1u64)]).is_silent());
    }

    #[test]
    fn u64_message_size_is_bit_length() {
        assert_eq!(0u64.bit_size(), 0);
        assert_eq!(1u64.bit_size(), 1);
        assert_eq!(255u64.bit_size(), 8);
        assert_eq!(256u64.bit_size(), 9);
        assert_eq!(().bit_size(), 1);
    }
}
