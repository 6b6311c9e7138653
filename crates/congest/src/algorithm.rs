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
/// An inbox is a zero-copy *view* into the round engine's buffers.  Port
/// `p` yields
///
/// * the message in the node's inbox slot for `p` — one slot per port in
///   the engine's per-run [`RoundState`] arena — if one landed there: every
///   message from another shard, and every per-port message;
/// * else the *broadcast value* of the neighbour behind `p`, if the kernel
///   running this node runs that neighbour too.  A broadcast reaches the
///   sender's own shard as one value, which each receiver pulls through its
///   row of neighbours, instead of one slot written per edge.
///
/// Because the CONGEST model allows at most one message per edge per round,
/// a port yields at most one message (the engine rejects algorithms that try
/// to send twice over the same port in one round).
///
/// [`RoundState`]: crate::executor::RoundState
#[derive(Debug)]
pub struct Inbox<'a, M> {
    slots: &'a [Option<M>],
    /// The neighbour behind each port; empty when no values are pulled.
    neighbors: &'a [u32],
    /// The broadcast values of nodes `value_base..value_base + values.len()`.
    values: &'a [Option<M>],
    value_base: usize,
}

// Not derived: a derive would demand `M: Copy`, and the view copies only
// references.
impl<M> Clone for Inbox<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Inbox<'_, M> {}

impl<'a, M> Inbox<'a, M> {
    /// Creates an inbox viewing one slot per port (`slots[p]` holds the
    /// message that arrived on port `p`, if any).
    pub fn from_slots(slots: &'a [Option<M>]) -> Self {
        Self::pulled(slots, &[], &[], 0)
    }

    /// An inbox whose port `p` yields `slots[p]`, else the value of the
    /// neighbour `neighbors[p]`, if it is one of the nodes `values` holds,
    /// from `value_base` on.
    pub(crate) fn pulled(
        slots: &'a [Option<M>],
        neighbors: &'a [u32],
        values: &'a [Option<M>],
        value_base: usize,
    ) -> Self {
        Self {
            slots,
            neighbors,
            values,
            value_base,
        }
    }

    /// An empty inbox.
    pub fn empty() -> Self {
        Self::from_slots(&[])
    }

    /// Iterator over `(port, message)` pairs in port order.
    pub fn iter(&self) -> impl Iterator<Item = (Port, &'a M)> {
        let inbox = *self;
        (0..inbox.slots.len()).filter_map(move |p| inbox.from_port(p).map(|m| (p, m)))
    }

    /// The message that arrived on `port`, if any.
    #[inline]
    pub fn from_port(&self, port: Port) -> Option<&'a M> {
        match self.slots.get(port)? {
            Some(msg) => Some(msg),
            None => {
                let u = *self.neighbors.get(port)? as usize;
                self.values.get(u.wrapping_sub(self.value_base))?.as_ref()
            }
        }
    }

    /// Number of messages received.
    ///
    /// This scans the node's ports, so it costs `O(deg(v))`; prefer a
    /// single [`Inbox::iter`] pass over repeated `len()` calls.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether no message was received.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
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
    fn pulled_inbox_agrees_with_a_slot_inbox() {
        // The kernel runs nodes 4..8; node 5 broadcast, node 6 stayed
        // silent.  Port 0's message sits in its slot, ports 1 and 2 lead to
        // nodes 5 and 6, and ports 3 and 4 to nodes 2 and 9, outside it.
        let values = [Some("four"), Some("five"), None, Some("seven")];
        let slots = [Some("slot"), None, None, None, None];
        let pulled = Inbox::pulled(&slots, &[3, 5, 6, 2, 9], &values, 4);
        let reference = Inbox::from_slots(&[Some("slot"), Some("five"), None, None, None]);
        assert!(pulled.iter().eq(reference.iter()));
        for p in 0..7 {
            assert_eq!(pulled.from_port(p), reference.from_port(p), "port {p}");
        }
        assert_eq!((pulled.len(), pulled.is_empty()), (2, false));
        assert_eq!((reference.len(), reference.is_empty()), (2, false));
        let silent = Inbox::pulled(&[None, None], &[6, 9], &values, 4);
        assert_eq!((silent.len(), silent.is_empty()), (0, true));
        // The iterator borrows the engine's buffers, not the view.
        let ports: Vec<_> = {
            let inbox = Inbox::pulled(&slots, &[3, 5, 6, 2, 9], &values, 4);
            inbox.iter()
        }
        .map(|(p, _)| p)
        .collect();
        assert_eq!(ports, vec![0, 1]);
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
