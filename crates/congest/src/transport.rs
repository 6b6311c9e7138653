//! The cross-shard transport subsystem.
//!
//! The [`ShardedExecutor`](crate::executor::ShardedExecutor) moves
//! cross-shard messages through a [`Transport`]: a round-framed channel
//! between shards that is **staged** during the send phase, **flushed** at
//! the send barrier and **drained** before delivery completes.  A
//! [`TransportBuilder`] makes one endpoint per shard, and each shard's
//! thread or process owns its endpoint outright, so staging a message takes
//! no lock.  Three backends ship today:
//!
//! * [`InProcess`] — each shard stages into plain per-destination `Vec`s it
//!   owns.  A buffer changes hands twice per round: the sender's flush
//!   hands it to the receiver, whose drain empties it and keeps it as its
//!   own staging buffer towards that sender.  Messages move as Rust values;
//!   nothing is encoded.  A broadcast is one [`Entry::Broadcast`] per
//!   destination shard, not one entry per cut edge.  The receiving kernel
//!   stores it once, as the sender's value, which its receivers pull
//!   through their neighbour rows, or, if it keeps no value for the sender,
//!   writes it into each of the sender's slots in its shard.
//! * [`SocketLoopback`] — every shard pair is connected by a real socket
//!   (Unix-domain or TCP loopback) and every cross-shard message crosses it
//!   through the [`wire`](crate::wire) codec: length-prefixed,
//!   round-sequenced frames of bit-exact payloads, one entry per edge, a
//!   broadcast encoded once per destination shard.  Each shard's endpoint
//!   is a [`WorkerMesh`], the same endpoint a worker process drives.  Same
//!   process, real kernel wire — this is what makes the CONGEST bandwidth
//!   accounting verifiable against actual encoded bytes.
//! * The **remote protocol** ([`serve_shard_with`] / [`coordinate`]) — one
//!   process per shard plus a coordinator.  The coordinator carries only
//!   control frames over blocking links (TCP in the `exp_worker` binary):
//!   it ships each worker a [`ShardPlan`] ([`write_plan`]) and the peer
//!   address list ([`write_peers`]), tallies the halting votes
//!   ([`FrameKind::Vote`]) and merges the per-shard counters.  Each worker
//!   builds only its own
//!   [`ShardSliceTopology`](crate::sharded::ShardSliceTopology) — no
//!   process ever materialises the full graph — and exchanges data frames
//!   with the other workers over a direct [`WorkerMesh`].
//!
//! # Round framing
//!
//! Per round, shard `w` seals **one data frame per other shard** — empty if
//! no message crossed that pair — so a receiver always knows how many frames
//! to expect and every frame is stamped with its round
//! ([`FrameHeader::expect`] rejects out-of-sequence frames).  `flush`
//! returns the sealed frame bytes, which the executor accumulates into
//! [`RunMetrics::wire_bytes_sent`](crate::RunMetrics::wire_bytes_sent);
//! the time spent flushing lands in
//! [`RunMetrics::transport_flush_nanos`](crate::RunMetrics::transport_flush_nanos).
//!
//! # Deadlock discipline of the socket drain
//!
//! One nonblocking drain, [`WorkerMesh`]'s, serves shard threads
//! ([`SocketLoopback`]) and worker processes alike.  All shards drain
//! concurrently, so a naive "write everything, then read everything"
//! ordering can deadlock once frames outgrow the kernel socket buffers.
//! Each link reads into one fixed window ([`FrameBuffer`]) and decodes its
//! peer's frame there as the bytes arrive ([`DataDecoder`]): the header
//! (kind, round, shard pair) once its prefix is in — a late, duplicate or
//! out-of-round frame is a typed [`TransportError`], not a panic — then
//! every entry that is whole.  The drain runs two strictly ordered steps:
//!
//! 1. finish writing its own sealed frames, and between write attempts
//!    read and decode at most one window per link, so peers are never
//!    blocked on a full buffer;
//! 2. read and decode until every peer's frame is done.
//!
//! A pass over every peer that makes no progress spins (with `yield_now`)
//! for a few passes, then parks in one blocking call on one stalled link,
//! bounded by the read/write timeouts set when the link was created.
//!
//! Nothing may fail or panic while this shard still owes its peers bytes,
//! or a peer could be stranded mid-write.  So a decode error met in step 1
//! is held on its link until the writes are done, and that link's later
//! bytes are read and dropped meanwhile; the kernel's CONGEST double-send
//! check records its first offender in the sink and panics only after the
//! drain returns.  By then every byte this shard owes is handed to the
//! kernel, so an error (returned to the driver, which aborts the run) or
//! the panic unwinds without stranding a peer.  A link's own failure — its
//! peer closed its end, or an I/O call failed — is a typed
//! [`TransportError::PeerClosed`] or [`TransportError::Io`] naming the peer
//! and the round, in either step; one that `flush`'s opportunistic write
//! meets is kept on the link and returned by that round's drain.

use std::io::{Read, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::algorithm::{MessageSize, NodeAlgorithm, NodeContext};
use crate::executor::{DeliveryMode, RoundSync, Rounds, ShardKernel};
use crate::metrics::{PhaseTimings, RunMetrics};
use crate::sharded::{ShardPlan, ShardTopologyView, ShardedTopology};
use crate::simulator::RunOutcome;
use crate::trace::{
    decode_stamped, encode_stamped, ChromeTraceSink, NoTrace, StampedRecorder, TraceEvent,
    TraceSink,
};
use crate::wire::{
    get_u16, get_u32, get_u64, put_u16, put_u32, put_u64, read_frame, seal_frame, write_frame,
    DataDecoder, DataFrameBuilder, Frame, FrameBuffer, FrameHeader, FrameKind, WireError,
    WireMessage, FRAME_PREFIX_BYTES,
};

/// The pseudo shard index of the coordinator in remote frames.
pub const COORDINATOR: u16 = u16::MAX;

/// Frames address shards as `u16`, and [`COORDINATOR`] reserves `u16::MAX`,
/// so wire-facing backends support at most this many shards.
pub const MAX_WIRE_SHARDS: usize = u16::MAX as usize;

/// Whether `e`, met on a link, says the peer at its other end closed it.
fn peer_closed(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::{
        BrokenPipe, ConnectionAborted, ConnectionReset, UnexpectedEof, WriteZero,
    };
    matches!(
        e.kind(),
        UnexpectedEof | WriteZero | BrokenPipe | ConnectionReset | ConnectionAborted
    )
}

/// Reads the next frame from the control link to `peer`, a shard or the
/// [`COORDINATOR`], in `round`: a failed read names the peer and the
/// round, and says so when the peer closed the link.
fn read_control(link: &mut impl Read, peer: u16, round: u64) -> std::io::Result<Frame> {
    read_frame(link).map_err(|e| {
        let peer = match peer {
            COORDINATOR => "the coordinator".to_string(),
            shard => format!("shard {shard}"),
        };
        let what = if peer_closed(&e) {
            format!("{peer} closed its control link in round {round}")
        } else {
            format!("the control link to {peer} failed in round {round}: {e}")
        };
        std::io::Error::new(e.kind(), what)
    })
}

/// Rejects shard layouts the `u16` frame addressing cannot represent.
fn check_wire_shard_count(shards: usize) -> std::io::Result<()> {
    if shards >= MAX_WIRE_SHARDS {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("{shards} shards exceed the wire limit of {} (u16 addressing, u16::MAX reserved for the coordinator)", MAX_WIRE_SHARDS - 1),
        ));
    }
    Ok(())
}

/// A checked failure surfaced by [`Transport::drain`] or by the delivery
/// that consumes it: the bytes arrived, but they are not the one
/// well-formed data frame of the round this shard pair owes, or an entry
/// in it names a slot the receiving shard does not own or a broadcasting
/// sender with no port into it.
///
/// This is how a **late, duplicate or out-of-round frame** manifests: a
/// frame stamped with round `r' != r` sitting at the front of the inbound
/// buffer when the round-`r` deliver barrier drains it.  The validation is
/// an explicit, typed error at the transport seam (the executor still
/// aborts the run on it — through its poison barriers — but callers driving
/// a transport directly can observe and test the failure).
///
/// A mesh link's I/O failures are typed too, and name the peer shard and
/// the round: [`TransportError::PeerClosed`] when the peer closed its end,
/// [`TransportError::Io`] for any other failed call.  A failure that
/// `flush`'s opportunistic write meets is kept on the link and returned by
/// that round's `drain`.  A peer that stalls without closing is not yet
/// detected: no wait of the drain has a deadline.
#[derive(Debug)]
#[non_exhaustive]
pub enum TransportError {
    /// A frame failed wire-level validation: malformed framing, or a header
    /// stamped with the wrong round or shard pair
    /// ([`crate::wire::WireError::RoundMismatch`] is the late/duplicate-frame
    /// case).
    Wire(crate::wire::WireError),
    /// The peer sent a well-formed frame of the wrong kind for this phase
    /// of the protocol.
    Protocol(String),
    /// A decoded data entry names an inbox slot the receiving shard does
    /// not own, so no slot of the shard can take it (a forged or misrouted
    /// frame).
    SlotOutsideShard {
        /// The receiving shard.
        shard: usize,
        /// The slot the entry names.
        slot: u32,
    },
    /// A broadcast entry names a sender with no port into the receiving
    /// shard, so it reaches no slot of it.
    BroadcastOutsideShard {
        /// The receiving shard.
        shard: usize,
        /// The sender the entry names.
        sender: u32,
    },
    /// The peer shard closed its end of the link (a read met the end of
    /// the stream, or a write a closed or reset connection).
    PeerClosed {
        /// The peer that closed its end.
        shard: usize,
        /// The round the link failed in.
        round: u64,
    },
    /// Another I/O call on the link to a peer shard failed.
    Io {
        /// The peer at the other end of the link.
        shard: usize,
        /// The round the link failed in.
        round: u64,
        /// The failed call's error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Wire(e) => write!(f, "wire-level frame validation failed: {e}"),
            TransportError::Protocol(msg) => write!(f, "transport protocol violated: {msg}"),
            TransportError::SlotOutsideShard { shard, slot } => write!(
                f,
                "a data entry for slot {slot} reached shard {shard}, which does not own that slot"
            ),
            TransportError::BroadcastOutsideShard { shard, sender } => write!(
                f,
                "a broadcast entry from node {sender} reached shard {shard}, which it has no port into"
            ),
            TransportError::PeerClosed { shard, round } => {
                write!(f, "shard {shard} closed its mesh link in round {round}")
            }
            TransportError::Io {
                shard,
                round,
                source,
            } => write!(
                f,
                "the mesh link to shard {shard} failed in round {round}: {source}"
            ),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Wire(e) => Some(e),
            TransportError::Io { source, .. } => Some(source),
            TransportError::Protocol(_)
            | TransportError::SlotOutsideShard { .. }
            | TransportError::BroadcastOutsideShard { .. }
            | TransportError::PeerClosed { .. } => None,
        }
    }
}

impl From<crate::wire::WireError> for TransportError {
    fn from(e: crate::wire::WireError) -> Self {
        TransportError::Wire(e)
    }
}

impl From<TransportError> for std::io::Error {
    fn from(e: TransportError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// The bounds a message type needs to cross a shard boundary: the engine
/// bounds of [`NodeAlgorithm::Message`] plus a wire codec.
///
/// Blanket-implemented; every `NodeAlgorithm::Message` qualifies.
pub trait TransportMessage: Clone + Send + Sync + MessageSize + WireMessage {}

impl<T: Clone + Send + Sync + MessageSize + WireMessage> TransportMessage for T {}

/// One cross-shard entry, as a [`Transport`] delivers it to the receiving
/// shard's kernel.
///
/// Each kind is its own variant; no slot value marks a broadcast.  Wire
/// decoders only ever yield [`Entry::Port`]: a broadcast entry exists only
/// between the kernels of one process, each of which holds every node's
/// row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry<M> {
    /// One message for one inbox slot.
    Port {
        /// The destination's global inbox slot.
        slot: u32,
        /// The sending node.
        sender: u32,
        /// The message.
        msg: M,
    },
    /// One broadcast for the receiving shard: the kernel stores `msg` once,
    /// as `sender`'s value, which every node of the shard behind one of
    /// `sender`'s ports reads, or, if it keeps no value for `sender`,
    /// writes it into each slot of the shard that `sender` has a port
    /// into.  Either way `sender` must have one (checked on its
    /// [`ShardTopologyView::dest_row`]).
    Broadcast {
        /// The sending node.
        sender: u32,
        /// The message.
        msg: M,
    },
}

/// One shard's end of a round-framed cross-shard channel (see the
/// [module docs](self)).
///
/// A [`TransportBuilder`] makes one endpoint per shard, and the shard's
/// driver owns it: it stages every message its shard sends to another
/// shard, flushes once per round, then drains once per round.  Across
/// shards the driver upholds one order: every shard's flush of round `r`
/// happens before any shard drains round `r`, and every drain of round `r`
/// before any shard stages for round `r + 1`.  The threaded driver's
/// barriers give that order; a wire endpoint also gets it by waiting for
/// its peers' frames.
pub trait Transport<M: TransportMessage>: Send {
    /// Stages one message of an `Outbox::PerPort` list for shard `to`:
    /// `slot` is the destination's global inbox slot, `sender` the sending
    /// node.  Delivered as one [`Entry::Port`].
    fn stage(&mut self, to: usize, slot: u32, sender: u32, msg: M);

    /// Stages `sender`'s broadcast for shard `to`, once per round and
    /// destination shard: `dests` is the run of `sender`'s
    /// [`dest_row`](ShardTopologyView::dest_row) that lies in `to`'s
    /// slots, ascending, one slot per port.
    ///
    /// The default stages one entry per slot of `dests`, in port order, so
    /// a backend that inspects every edge (the fault layer) sees exactly
    /// the per-edge stream, and its entries land in slots.  [`WorkerMesh`]
    /// writes the same per-edge entries but encodes the message once.
    /// [`InProcess`] keeps one [`Entry::Broadcast`] instead, which lands as
    /// one value wherever the receiving kernel keeps one for the sender.
    fn stage_broadcast(&mut self, to: usize, sender: u32, msg: M, dests: &[u32]) {
        for &slot in dests {
            self.stage(to, slot, sender, msg.clone());
        }
    }

    /// Seals this round's staged batches at the send barrier; returns the
    /// wire bytes this flush produced (0 for in-memory backends).
    fn flush(&mut self, round: u64) -> u64;

    /// Delivers every entry addressed to this shard for `round` to `sink`,
    /// within one sender shard in staging order.  Entries of different
    /// sender shards may interleave: [`WorkerMesh`] decodes each peer's
    /// frame as its bytes arrive.  A slot is only ever written from one
    /// sender, so the order across sender shards changes nothing the
    /// kernel keeps.  The receiving kernel writes an [`Entry::Port`] into
    /// its slot and an [`Entry::Broadcast`] into the sender's value, or
    /// into the sender's slots if it keeps no value for the sender.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] when an inbound frame fails validation —
    /// a malformed frame, or a **late/duplicate frame** stamped with a round
    /// other than `round` (wire-facing backends only; in-memory backends
    /// cannot fail).  The executor treats any error as fatal for the run and
    /// unwinds through its poison barriers.
    fn drain(&mut self, round: u64, sink: &mut dyn FnMut(Entry<M>)) -> Result<(), TransportError>;

    /// The number of kernel write batches this endpoint has issued so far —
    /// one per successful `write(2)` syscall on its outbound peer links.
    /// This is the observable for frame coalescing: many small messages
    /// sealed into one frame and flushed in one write count as **one**
    /// batch.  In-memory backends never enter the kernel, so the default
    /// is 0.  Scheduling-dependent (how often a write is split by a full
    /// socket buffer varies run to run), so it is reported in
    /// [`RunMetrics`] but exempt from bit-for-bit
    /// equivalence checks, like the flush timing counters.
    fn syscall_batches(&self) -> u64 {
        0
    }
}

/// Builds the [`Transport`] endpoints for a concrete message type at run
/// start.
///
/// The executor is configured with a builder (not a transport) because the
/// message type is chosen per run by the algorithm, while the backend choice
/// is an executor-level decision.
pub trait TransportBuilder: Sync {
    /// The endpoint type this builder produces.
    type Transport<M: TransportMessage>: Transport<M>;

    /// Builds one endpoint per shard of `topology`, in shard order.
    fn build<M: TransportMessage>(
        &self,
        topology: &ShardedTopology,
    ) -> std::io::Result<Vec<Self::Transport<M>>>;
}

// ---------------------------------------------------------------------------
// In-process backend
// ---------------------------------------------------------------------------

/// The in-memory transport backend: messages stay Rust values and move
/// through per-shard-pair staging buffers.  This is the
/// [`ShardedExecutor`](crate::executor::ShardedExecutor)'s default and is
/// bit-for-bit the pre-transport behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InProcess;

/// Entries staged from one shard for another.
type Staged<M> = Vec<Entry<M>>;

/// One shard's endpoint of the [`InProcess`] backend.
///
/// The shard stages into `out[to]`, a buffer it owns: one [`Entry::Port`]
/// per per-port message and one [`Entry::Broadcast`] per broadcasting
/// sender, so a buffer holds at most one entry per sender and round for a
/// broadcast workload, however many edges cross the cut, and the receiver
/// stores each broadcast as one value where it keeps one for the sender.
/// Its flush swaps each buffer into the pair's handoff cell; the receiver's
/// drain swaps it out again, empties it and keeps it, capacity and all, as
/// its own staging buffer towards that sender.  So the `S·(S−1)` buffers
/// circulate among the `S·(S−1)` ordered pairs, a cell is locked twice per
/// round rather than once per message, and staging stops allocating once
/// the buffers have grown to round size.
#[derive(Debug)]
pub struct InProcessTransport<M> {
    shard: usize,
    /// This shard's staging buffer per destination shard; the own entry
    /// stays empty.
    out: Vec<Staged<M>>,
    /// The handoff cells every endpoint shares: `cells[from * S + to]`
    /// holds `from`'s buffer for `to` from `from`'s flush until `to`'s
    /// drain, and an empty `Vec` otherwise.
    cells: Arc<[Mutex<Staged<M>>]>,
}

/// Swaps `buf` with the contents of a handoff cell.  No code that can panic
/// runs while the lock is held, so the lock is never poisoned.
fn swap_with_cell<M>(cell: &Mutex<Staged<M>>, buf: &mut Staged<M>) {
    std::mem::swap(&mut *cell.lock().expect("handoff cell lock"), buf);
}

impl<M: TransportMessage> Transport<M> for InProcessTransport<M> {
    fn stage(&mut self, to: usize, slot: u32, sender: u32, msg: M) {
        self.out[to].push(Entry::Port { slot, sender, msg });
    }

    fn stage_broadcast(&mut self, to: usize, sender: u32, msg: M, _dests: &[u32]) {
        self.out[to].push(Entry::Broadcast { sender, msg });
    }

    fn flush(&mut self, _round: u64) -> u64 {
        let shards = self.out.len();
        for (to, buf) in self.out.iter_mut().enumerate() {
            if to != self.shard {
                swap_with_cell(&self.cells[self.shard * shards + to], buf);
            }
        }
        0 // nothing to seal: values move as they are
    }

    fn drain(&mut self, _round: u64, sink: &mut dyn FnMut(Entry<M>)) -> Result<(), TransportError> {
        let shards = self.out.len();
        for (from, buf) in self.out.iter_mut().enumerate() {
            if from == self.shard {
                continue;
            }
            swap_with_cell(&self.cells[from * shards + self.shard], buf);
            buf.drain(..).for_each(&mut *sink);
        }
        Ok(())
    }
}

impl TransportBuilder for InProcess {
    type Transport<M: TransportMessage> = InProcessTransport<M>;

    fn build<M: TransportMessage>(
        &self,
        topology: &ShardedTopology,
    ) -> std::io::Result<Vec<InProcessTransport<M>>> {
        let shards = topology.num_shards();
        let cells: Arc<[Mutex<Staged<M>>]> = (0..shards * shards)
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        Ok((0..shards)
            .map(|shard| InProcessTransport {
                shard,
                out: (0..shards).map(|_| Vec::new()).collect(),
                cells: Arc::clone(&cells),
            })
            .collect())
    }
}

// ---------------------------------------------------------------------------
// Socket-loopback backend
// ---------------------------------------------------------------------------

/// Socket family of a [`SocketLoopback`] mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopbackKind {
    #[cfg(unix)]
    Unix,
    Tcp,
}

/// Builds a full socket mesh between the shards of one process: every shard
/// pair gets a kernel socket, and every cross-shard message crosses it wire
/// encoded.  Use [`SocketLoopback::unix`] for Unix-domain socketpairs or
/// [`SocketLoopback::tcp`] for TCP over `127.0.0.1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SocketLoopback {
    kind: LoopbackKind,
}

impl SocketLoopback {
    /// A mesh of Unix-domain socketpairs (no filesystem paths involved).
    #[cfg(unix)]
    pub fn unix() -> Self {
        Self {
            kind: LoopbackKind::Unix,
        }
    }

    /// A mesh of TCP connections over `127.0.0.1` (ephemeral ports).
    pub fn tcp() -> Self {
        Self {
            kind: LoopbackKind::Tcp,
        }
    }
}

/// One endpoint of a loopback socket, either family.
#[derive(Debug)]
enum LoopbackStream {
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
    Tcp(std::net::TcpStream),
}

/// How long one blocked readiness wait may last before the drain loop
/// re-sweeps every peer.  Waits normally end much earlier — the kernel
/// wakes the reader the moment bytes arrive — the timeout only bounds a
/// wait on the wrong peer, preserving the liveness the old spin loop had.
const READINESS_WAIT: std::time::Duration = std::time::Duration::from_micros(100);

/// How many fruitless full sweeps the drain loop spins through (with
/// `yield_now`) before it parks in a blocked readiness wait.  Short stalls
/// — the common case, a peer is a few instructions from its own flush —
/// resolve within the spin and never pay a mode-switch syscall; only a
/// genuinely long stall (the peer is still computing its send phase) falls
/// through to the kernel-parked wait that frees the core for that peer.
const SPIN_PASSES: u32 = 64;

impl LoopbackStream {
    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            LoopbackStream::Unix(s) => s.set_nonblocking(nonblocking),
            LoopbackStream::Tcp(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// Bounds both directions' blocking calls by [`READINESS_WAIT`] — the
    /// park window of [`PeerLink::wait_in`] / [`PeerLink::wait_out`].  The
    /// timeouts only apply in blocking mode, so they are set once, when the
    /// link is created.
    fn set_park_timeouts(&self) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            LoopbackStream::Unix(s) => {
                s.set_read_timeout(Some(READINESS_WAIT))?;
                s.set_write_timeout(Some(READINESS_WAIT))
            }
            LoopbackStream::Tcp(s) => {
                s.set_read_timeout(Some(READINESS_WAIT))?;
                s.set_write_timeout(Some(READINESS_WAIT))
            }
        }
    }
}

impl Read for LoopbackStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            LoopbackStream::Unix(s) => s.read(buf),
            LoopbackStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for LoopbackStream {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            LoopbackStream::Unix(s) => s.write(bytes),
            LoopbackStream::Tcp(s) => s.write(bytes),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            LoopbackStream::Unix(s) => s.flush(),
            LoopbackStream::Tcp(s) => s.flush(),
        }
    }
}

/// Whether a nonblocking or park-bounded call ended without an error to
/// report: it would block, its park window passed, or a signal cut it
/// short.
fn retry_later(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    matches!(e.kind(), WouldBlock | TimedOut | Interrupted)
}

/// One [`WorkerMesh`] link: a duplex stream that carries this shard's
/// frames to `peer` and `peer`'s frames back.  The outbound frame is built
/// where the socket writes it from; the inbound one is read into one fixed
/// window and decoded there as its bytes arrive, so the link holds one
/// window of it, whatever its length.
///
/// Its calls return the stream's `io::Error`s; the drain turns them into
/// typed [`TransportError`]s naming `peer` and the round.
#[derive(Debug)]
struct PeerLink {
    peer: u16,
    stream: LoopbackStream,
    /// This round's data frame for `peer`, built in place: its entries as
    /// they are staged, then, sealed, the bytes the socket writes from.
    batch: DataFrameBuilder,
    /// How many bytes of the sealed frame the socket has taken.
    out_pos: usize,
    /// Inbound bytes: one fixed read window.
    inbox: FrameBuffer,
    /// `peer`'s data frame for the round being drained, decoded from
    /// `inbox` as its bytes arrive.
    frame: DataDecoder,
    /// The first failure `flush`'s opportunistic write met, which this
    /// round's drain returns, or a decode error of the drain's step 1,
    /// held until this shard's writes are done.
    failed: Option<TransportError>,
    /// Kernel write batches issued on this link (one per successful
    /// `write` syscall) — the coalescing evidence behind the
    /// `syscall_batches` run metric.
    writes: u64,
}

impl PeerLink {
    /// Wraps a connected stream to `peer`: sets its park timeouts and
    /// leaves it nonblocking.
    fn new(peer: u16, stream: LoopbackStream) -> std::io::Result<Self> {
        stream.set_park_timeouts()?;
        stream.set_nonblocking(true)?;
        Ok(Self {
            peer,
            stream,
            batch: DataFrameBuilder::new(),
            out_pos: 0,
            inbox: FrameBuffer::new(),
            frame: DataDecoder::new(),
            failed: None,
            writes: 0,
        })
    }

    /// The typed error for `source`, met on this link in `round`:
    /// [`TransportError::PeerClosed`] if it says the peer closed its end,
    /// else [`TransportError::Io`].
    fn failure(&self, round: u64, source: std::io::Error) -> TransportError {
        let shard = self.peer as usize;
        if peer_closed(&source) {
            TransportError::PeerClosed { shard, round }
        } else {
            TransportError::Io {
                shard,
                round,
                source,
            }
        }
    }

    /// Writes once from the sealed frame's pending bytes; true if the
    /// socket took any.  Once it has taken the whole frame, the builder is
    /// cleared for the next round.
    fn write_some(&mut self) -> std::io::Result<bool> {
        let pending = &self.batch.sealed()[self.out_pos..];
        if pending.is_empty() {
            return Ok(false);
        }
        let n = match self.stream.write(pending) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => n,
            Err(e) if retry_later(&e) => return Ok(false),
            Err(e) => return Err(e),
        };
        self.out_pos += n;
        self.writes += 1;
        if self.write_done() {
            self.batch.clear();
            self.out_pos = 0;
        }
        Ok(true)
    }

    /// Reads once into the window; true if bytes arrived.
    fn read_some(&mut self) -> std::io::Result<bool> {
        match self.inbox.read_from(&mut self.stream) {
            Ok(0) => Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(_) => Ok(true),
            Err(e) if retry_later(&e) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Nonblocking write pass over the pending bytes; true if it progressed.
    fn pump_out(&mut self) -> std::io::Result<bool> {
        let mut progressed = false;
        while self.write_some()? {
            progressed = true;
        }
        Ok(progressed)
    }

    fn write_done(&self) -> bool {
        self.out_pos == self.batch.sealed().len()
    }

    /// Decodes what the window holds of `peer`'s data frame for `round`
    /// into `sink`, one [`Entry::Port`] per entry: bytes from outside the
    /// process never make a broadcast entry, and the receiving kernel
    /// range-checks every slot they name.  True once the frame is done.
    fn decode<M: WireMessage>(
        &mut self,
        round: u64,
        me: u16,
        sink: &mut dyn FnMut(Entry<M>),
    ) -> Result<bool, TransportError> {
        let peer = self.peer;
        let check = |header: FrameHeader| {
            if header.kind != FrameKind::Data {
                return Err(TransportError::Protocol(format!(
                    "expected a data frame from shard {peer}, got a {:?} frame",
                    header.kind
                )));
            }
            Ok(header.expect(round, peer, me)?)
        };
        let mut port = |slot, sender, msg| sink(Entry::Port { slot, sender, msg });
        let used = self.frame.decode(self.inbox.unread(), check, &mut port)?;
        self.inbox.consume(used);
        Ok(self.frame.is_done())
    }

    /// Blocks (bounded by [`READINESS_WAIT`]) until this link has inbound
    /// bytes, reading whatever arrives; true if bytes arrived.  The kernel
    /// parks the thread and wakes it on arrival — the poll-based
    /// replacement for spinning through `yield_now` while a peer computes.
    fn wait_in(&mut self) -> std::io::Result<bool> {
        self.stream.set_nonblocking(false)?;
        let read = self.read_some();
        self.stream.set_nonblocking(true)?;
        read
    }

    /// Blocks (bounded by [`READINESS_WAIT`]) until this link's socket can
    /// absorb more of the pending outbound bytes; true if any were written.
    fn wait_out(&mut self) -> std::io::Result<bool> {
        self.stream.set_nonblocking(false)?;
        let written = self.write_some();
        self.stream.set_nonblocking(true)?;
        written
    }
}

/// Sweeps every link with `pass` until none is pending — the spin-then-park
/// loop of both [`WorkerMesh`] drain steps.  `pass` reports whether it made
/// progress on a link and whether the link is done.  A sweep without
/// progress yields the CPU; after [`SPIN_PASSES`] of them in a row the
/// drain parks on one pending link with `park` instead, so on an
/// oversubscribed machine it stops competing with the very peer it waits
/// for.  The parked link is the first pending one at or after `rotor`
/// (else the first pending one), and `rotor` moves past it, so one slow
/// peer cannot starve the others' readiness.  A failed park is the link's
/// typed error in `round`.
fn spin_then_park(
    links: &mut [PeerLink],
    rotor: &mut usize,
    round: u64,
    park: fn(&mut PeerLink) -> std::io::Result<bool>,
    mut pass: impl FnMut(&mut PeerLink) -> Result<(bool, bool), TransportError>,
) -> Result<(), TransportError> {
    let mut idle: u32 = 0;
    loop {
        let (mut progressed, mut first, mut next) = (false, None, None);
        for (i, link) in links.iter_mut().enumerate() {
            let (moved, done) = pass(link)?;
            progressed |= moved;
            if !done {
                first.get_or_insert(i);
                if i >= *rotor {
                    next.get_or_insert(i);
                }
            }
        }
        let Some(stalled) = next.or(first) else {
            return Ok(());
        };
        if progressed {
            idle = 0;
        } else {
            idle += 1;
            if idle < SPIN_PASSES {
                std::thread::yield_now();
            } else {
                let link = &mut links[stalled];
                park(link).map_err(|e| link.failure(round, e))?;
                *rotor = stalled + 1;
            }
        }
    }
}

impl TransportBuilder for SocketLoopback {
    type Transport<M: TransportMessage> = WorkerMesh;

    fn build<M: TransportMessage>(
        &self,
        topology: &ShardedTopology,
    ) -> std::io::Result<Vec<WorkerMesh>> {
        let shards = topology.num_shards();
        check_wire_shard_count(shards)?;
        let mut meshes: Vec<WorkerMesh> = (0..shards)
            .map(|me| WorkerMesh {
                me: me as u16,
                links: Vec::with_capacity(shards.saturating_sub(1)),
            })
            .collect();
        let listener = match self.kind {
            LoopbackKind::Tcp => Some(std::net::TcpListener::bind("127.0.0.1:0")?),
            #[cfg(unix)]
            LoopbackKind::Unix => None,
        };
        // Pairs in lexicographic order push every shard's links in ascending
        // peer order, as `WorkerMesh` requires.
        for a in 0..shards {
            for b in a + 1..shards {
                let (ea, eb) = match self.kind {
                    #[cfg(unix)]
                    LoopbackKind::Unix => {
                        let (x, y) = std::os::unix::net::UnixStream::pair()?;
                        (LoopbackStream::Unix(x), LoopbackStream::Unix(y))
                    }
                    LoopbackKind::Tcp => {
                        let listener = listener.as_ref().expect("tcp listener");
                        let connect = std::net::TcpStream::connect(listener.local_addr()?)?;
                        let (accept, _) = listener.accept()?;
                        connect.set_nodelay(true)?;
                        accept.set_nodelay(true)?;
                        (LoopbackStream::Tcp(connect), LoopbackStream::Tcp(accept))
                    }
                };
                meshes[a].links.push(PeerLink::new(b as u16, ea)?);
                meshes[b].links.push(PeerLink::new(a as u16, eb)?);
            }
        }
        Ok(meshes)
    }
}

// ---------------------------------------------------------------------------
// The scale-out handshake: shard plans and peer lists on the wire
// ---------------------------------------------------------------------------

/// Chunk size for [`Topology`](FrameKind::Topology) frames carrying a
/// serialized [`ShardPlan`].  The plan's degree header is `4n` bytes, which
/// at `n = 10^8` exceeds [`MAX_FRAME_BODY`](crate::wire::MAX_FRAME_BODY),
/// so plans always ship as a numbered chunk sequence.
const PLAN_CHUNK_BYTES: usize = 32 << 20;

/// Ships a [`ShardPlan`] to one worker as a sequence of
/// [`Topology`](FrameKind::Topology) frames (payload:
/// `[seq u32][total u32][chunk bytes]`), so a worker can build its
/// [`ShardSliceTopology`](crate::sharded::ShardSliceTopology) without the
/// coordinator ever shipping (or holding) the full graph.
///
/// # Errors
///
/// Propagates link I/O failures.
pub fn write_plan<L: Write>(link: &mut L, plan: &ShardPlan, to: u16) -> std::io::Result<()> {
    let bytes = plan.to_bytes();
    let total = bytes.len().div_ceil(PLAN_CHUNK_BYTES) as u32;
    for (seq, chunk) in bytes.chunks(PLAN_CHUNK_BYTES).enumerate() {
        // Built in place behind room for the prefix, and written in one call.
        let mut frame = Vec::with_capacity(FRAME_PREFIX_BYTES + 8 + chunk.len());
        frame.resize(FRAME_PREFIX_BYTES, 0);
        put_u32(&mut frame, seq as u32);
        put_u32(&mut frame, total);
        frame.extend_from_slice(chunk);
        let header = FrameHeader {
            kind: FrameKind::Topology,
            round: 0,
            from: COORDINATOR,
            to,
        };
        seal_frame(&mut frame, header);
        link.write_all(&frame)?;
    }
    link.flush()
}

/// Receives and validates the chunked [`ShardPlan`] of [`write_plan`].
///
/// # Errors
///
/// Propagates link I/O failures; out-of-sequence chunks and plans that fail
/// [`ShardPlan::from_bytes`] validation surface as `io::Error`.
pub fn read_plan<L: Read>(link: &mut L, me: u16) -> std::io::Result<ShardPlan> {
    let mut bytes: Vec<u8> = Vec::new();
    let mut next: u32 = 0;
    loop {
        let frame = read_frame(link)?;
        if frame.header.kind != FrameKind::Topology {
            return Err(protocol_error("expected a Topology frame"));
        }
        frame.header.expect(0, COORDINATOR, me)?;
        let seq = get_u32(&frame.payload, 0)?;
        let total = get_u32(&frame.payload, 4)?;
        if total == 0 || seq != next || seq >= total {
            return Err(protocol_error("Topology chunks out of sequence"));
        }
        if bytes.is_empty() {
            // The first chunk's payload becomes the plan's bytes: a plan of
            // one chunk is held once.
            bytes = frame.payload;
            bytes.drain(..8);
        } else {
            bytes.extend_from_slice(&frame.payload[8..]);
        }
        next += 1;
        if next == total {
            break;
        }
    }
    ShardPlan::from_bytes(&bytes).map_err(std::io::Error::from)
}

/// Validates a mesh peer list against the run's shard count: exactly one
/// address per shard, every shard present exactly once.
///
/// This is the shard-count/host-list mismatch gate — a short, long,
/// duplicated or out-of-range list is a typed [`TransportError`] *before*
/// any worker starts dialing, never a hang.
///
/// # Errors
///
/// [`TransportError::Protocol`] describing the mismatch.
pub fn validate_peer_list(peers: &[(u16, String)], shards: usize) -> Result<(), TransportError> {
    if peers.len() != shards {
        return Err(TransportError::Protocol(format!(
            "peer list names {} workers but the run has {shards} shards",
            peers.len()
        )));
    }
    let mut seen = vec![false; shards];
    for &(shard, _) in peers {
        let slot = seen.get_mut(shard as usize).ok_or_else(|| {
            TransportError::Protocol(format!(
                "peer list names shard {shard}, outside the run's {shards} shards"
            ))
        })?;
        if *slot {
            return Err(TransportError::Protocol(format!(
                "peer list names shard {shard} twice"
            )));
        }
        *slot = true;
    }
    Ok(())
}

/// Encodes a peer list as a [`Peers`](FrameKind::Peers) frame payload:
/// `[count u32]` then per peer `[shard u16][len u16][utf8 address]`.
fn peers_payload(peers: &[(u16, String)]) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u32(&mut payload, peers.len() as u32);
    for (shard, addr) in peers {
        put_u16(&mut payload, *shard);
        put_u16(
            &mut payload,
            u16::try_from(addr.len()).expect("peer address exceeds u16 bytes"),
        );
        payload.extend_from_slice(addr.as_bytes());
    }
    payload
}

/// Writes a peer list as one [`Peers`](FrameKind::Peers) frame.
///
/// Workers announce their own listen address to the coordinator as a
/// single-entry list; the coordinator broadcasts the assembled full list
/// back so every worker can dial its mesh.
///
/// # Errors
///
/// Propagates link I/O failures.
pub fn write_peers<L: Write>(
    link: &mut L,
    from: u16,
    to: u16,
    peers: &[(u16, String)],
) -> std::io::Result<()> {
    write_frame(
        link,
        FrameHeader {
            kind: FrameKind::Peers,
            round: 0,
            from,
            to,
        },
        &peers_payload(peers),
    )?;
    link.flush()
}

/// Decodes the peer list of a [`Peers`](FrameKind::Peers) frame.
///
/// # Errors
///
/// [`TransportError`] on a wrong frame kind, truncated or trailing payload
/// bytes, or a non-UTF-8 address.
pub fn parse_peers(frame: &Frame) -> Result<Vec<(u16, String)>, TransportError> {
    if frame.header.kind != FrameKind::Peers {
        return Err(TransportError::Protocol(format!(
            "expected a Peers frame, got a {:?} frame",
            frame.header.kind
        )));
    }
    let p = &frame.payload;
    let count = get_u32(p, 0)? as usize;
    let mut peers = Vec::with_capacity(count.min(1024));
    let mut at = 4usize;
    for _ in 0..count {
        let shard = get_u16(p, at)?;
        let len = get_u16(p, at + 2)? as usize;
        let body = p.get(at + 4..at + 4 + len).ok_or(WireError::Truncated {
            needed: at + 4 + len,
            got: p.len(),
        })?;
        let addr = std::str::from_utf8(body).map_err(|_| {
            TransportError::Protocol(format!("peer address of shard {shard} is not valid UTF-8"))
        })?;
        peers.push((shard, addr.to_string()));
        at += 4 + len;
    }
    if at != p.len() {
        return Err(TransportError::Wire(WireError::TrailingBytes(p.len() - at)));
    }
    Ok(peers)
}

/// Reads one frame off the link and decodes it as the peer list of
/// [`write_peers`], checking the expected sender/receiver pair.
///
/// # Errors
///
/// Propagates link I/O failures; decode failures surface as `io::Error`.
pub fn read_peers<L: Read>(
    link: &mut L,
    from: u16,
    to: u16,
) -> std::io::Result<Vec<(u16, String)>> {
    let frame = read_frame(link)?;
    let peers = parse_peers(&frame).map_err(std::io::Error::from)?;
    frame.header.expect(0, from, to)?;
    Ok(peers)
}

// ---------------------------------------------------------------------------
// The direct worker↔worker data mesh
// ---------------------------------------------------------------------------

/// One shard's endpoint of a full socket mesh: a link to every other
/// shard, carrying the per-round data frames, and the one nonblocking
/// drain (see the [module docs](self)).
///
/// Worker processes connect it with [`WorkerMesh::connect`] and serve over
/// it ([`serve_shard_with`]), so the coordinator only paces rounds;
/// [`SocketLoopback`] builds one per shard thread over socketpairs or TCP
/// loopback.  Either way it is a [`Transport`]: per round it seals one data
/// frame per peer — empty if nothing crossed that pair, so receivers always
/// know how many frames to expect — and drains with the two-step
/// spin-then-park discipline, which is deadlock-free once every shard's
/// sealed bytes are handed to the kernel.
#[derive(Debug)]
pub struct WorkerMesh {
    me: u16,
    /// One link per other shard, in ascending peer order: the link to shard
    /// `p` is `links[p]` below `me` and `links[p - 1]` above it.
    links: Vec<PeerLink>,
}

impl WorkerMesh {
    /// Connects the full mesh for shard `me` of a `shards`-shard run.
    ///
    /// `peers` maps every shard (including `me`) to a dialable address;
    /// `listener` is the socket `me` published in that list.  Every worker
    /// *dials* the listed addresses of all lower shard indices (announcing
    /// its own shard index as a 2-byte handshake) and *accepts* one
    /// connection from each higher index, validating the announced indices.
    ///
    /// # Errors
    ///
    /// Rejects invalid peer lists ([`validate_peer_list`]) and handshakes
    /// announcing unexpected or duplicate shard indices, and propagates
    /// socket failures.
    pub fn connect(
        me: u16,
        shards: usize,
        peers: &[(u16, String)],
        listener: &std::net::TcpListener,
    ) -> std::io::Result<Self> {
        check_wire_shard_count(shards)?;
        validate_peer_list(peers, shards).map_err(std::io::Error::from)?;
        let mut streams: Vec<(u16, std::net::TcpStream)> =
            Vec::with_capacity(shards.saturating_sub(1));
        for &(shard, ref addr) in peers {
            if shard >= me {
                continue;
            }
            let mut stream = std::net::TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.write_all(&me.to_le_bytes())?;
            stream.flush()?;
            streams.push((shard, stream));
        }
        let higher = peers.iter().filter(|&&(shard, _)| shard > me).count();
        for _ in 0..higher {
            let (mut stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut id = [0u8; 2];
            stream.read_exact(&mut id)?;
            let shard = u16::from_le_bytes(id);
            if shard <= me || (shard as usize) >= shards {
                return Err(protocol_error(&format!(
                    "mesh handshake announced unexpected shard {shard}"
                )));
            }
            if streams.iter().any(|&(s, _)| s == shard) {
                return Err(protocol_error(&format!(
                    "two mesh connections announced shard {shard}"
                )));
            }
            streams.push((shard, stream));
        }
        streams.sort_by_key(|&(shard, _)| shard);
        Ok(Self {
            me,
            links: streams
                .into_iter()
                .map(|(shard, stream)| PeerLink::new(shard, LoopbackStream::Tcp(stream)))
                .collect::<std::io::Result<_>>()?,
        })
    }

    /// Returns the first failure a link holds: a failed write of `flush`,
    /// or a decode error of the drain's step 1.
    fn take_failure(&mut self) -> Result<(), TransportError> {
        let failed = self.links.iter_mut().find_map(|link| link.failed.take());
        failed.map_or(Ok(()), Err)
    }

    /// The link to shard `to`.
    fn link_to(&mut self, to: usize) -> &mut PeerLink {
        debug_assert_ne!(to, self.me as usize, "a shard stages nothing for itself");
        &mut self.links[to - usize::from(to > self.me as usize)]
    }
}

impl<M: TransportMessage> Transport<M> for WorkerMesh {
    fn stage(&mut self, to: usize, slot: u32, sender: u32, msg: M) {
        self.link_to(to).batch.push(slot, sender, &msg);
    }

    /// Encodes the broadcast once for shard `to` and repeats its entry once
    /// per slot of `dests`: the bytes the default's per-slot `stage` would
    /// write.
    fn stage_broadcast(&mut self, to: usize, sender: u32, msg: M, dests: &[u32]) {
        self.link_to(to).batch.push_run(dests, sender, &msg);
    }

    /// Seals one frame per peer and writes what each socket takes now; a
    /// failed write is kept on its link for this round's drain to return.
    fn flush(&mut self, round: u64) -> u64 {
        let mut bytes = 0;
        for link in &mut self.links {
            debug_assert!(link.write_done(), "previous round's frame still pending");
            bytes += link.batch.seal(round, self.me, link.peer).len() as u64;
            // Opportunistic write so the drain has less to do.
            if let Err(e) = link.pump_out() {
                link.failed = Some(link.failure(round, e));
            }
        }
        bytes
    }

    /// The two-step drain of the [module docs](self): finish this shard's
    /// writes while reading and decoding at most one window per link and
    /// pass, then read and decode until every peer's frame is done.
    ///
    /// # Errors
    ///
    /// A late, duplicate or out-of-round frame, a malformed one, or a
    /// non-data frame on a mesh connection, is a typed [`TransportError`];
    /// so is a peer that closed its end ([`TransportError::PeerClosed`]) or
    /// another failed I/O call ([`TransportError::Io`]), this round's flush
    /// included.
    fn drain(&mut self, round: u64, sink: &mut dyn FnMut(Entry<M>)) -> Result<(), TransportError> {
        self.take_failure()?;
        let (me, mut rotor) = (self.me, 0);
        for link in &mut self.links {
            link.frame = DataDecoder::new();
        }

        // Step 1: hand every byte we owe to the kernel.  Between write
        // attempts each link reads once into its window and decodes what is
        // whole, so no peer ever stalls on a full buffer waiting for us.  A
        // decode error is held on its link, whose later bytes are read and
        // dropped, until the writes are done.  A sweep without progress
        // means some peer's socket buffer is full while that peer computes:
        // after a short spin, park in a bounded blocking write on one
        // stalled link, letting the kernel wake us the moment space frees
        // up.
        spin_then_park(
            &mut self.links,
            &mut rotor,
            round,
            PeerLink::wait_out,
            |link| {
                let wrote = link.pump_out().map_err(|e| link.failure(round, e))?;
                let mut read = false;
                if !link.frame.is_done() {
                    read = link.read_some().map_err(|e| link.failure(round, e))?;
                    if link.failed.is_none() {
                        link.failed = link.decode(round, me, sink).err();
                    }
                    if link.failed.is_some() {
                        link.inbox.consume(link.inbox.unread().len());
                    }
                }
                Ok((wrote | read, link.write_done()))
            },
        )?;
        self.take_failure()?;

        // Step 2: every byte we owe is handed over, so read and decode
        // until every peer's frame is done; any error now returns at once.
        // The parks are bounded blocking reads on one unfinished link: the
        // kernel wakes us the instant its bytes arrive.
        spin_then_park(
            &mut self.links,
            &mut rotor,
            round,
            PeerLink::wait_in,
            |link| {
                let mut read = false;
                while !link.decode(round, me, sink)? {
                    if !link.read_some().map_err(|e| link.failure(round, e))? {
                        return Ok((read, false));
                    }
                    read = true;
                }
                Ok((read, true))
            },
        )
    }

    fn syscall_batches(&self) -> u64 {
        self.links.iter().map(|link| link.writes).sum()
    }
}

// ---------------------------------------------------------------------------
// The remote (multi-process) protocol
// ---------------------------------------------------------------------------

/// Optional behaviours of a worker's round loop ([`serve_shard_with`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeOptions {
    /// Emit a [`Stats`](FrameKind::Stats) telemetry frame every this many
    /// rounds (immediately before that round's vote).  `0` — the default —
    /// never sends one, keeping the wire protocol byte-identical to
    /// pre-telemetry workers.
    pub stats_every: u64,
    /// Capture this worker's trace events ([`TraceEvent`], stamped against
    /// the worker's own monotonic origin at its `WorkerStart`) and ship
    /// them to the coordinator as one final
    /// [`Trace`](FrameKind::Trace) frame, immediately before the
    /// [`Output`](FrameKind::Output) frame.  Strictly out-of-band, like
    /// `stats_every`: round decisions, outputs and merged counters are
    /// byte-identical either way.  `false` (the default) sends nothing and
    /// captures nothing.
    pub trace: bool,
}

/// One worker's periodic telemetry snapshot, carried by a
/// [`Stats`](FrameKind::Stats) frame.
///
/// Strictly out-of-band: the coordinator renders it (or ignores it) without
/// any effect on round decisions, outputs or merged metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// The reporting shard.
    pub shard: usize,
    /// Rounds completed by the worker so far.
    pub round: u64,
    /// The shard's active node count after its latest receive phase.
    pub active: u64,
    /// Cumulative wire bytes the worker has sent.
    pub wire_bytes: u64,
    /// The worker process's peak RSS at snapshot time, in bytes (0 when
    /// unavailable; see [`crate::metrics::process_peak_rss_bytes`]).
    pub peak_rss_bytes: u64,
    /// Wall-clock nanoseconds since the worker entered its round loop.
    pub elapsed_nanos: u64,
}

impl WorkerStats {
    /// Round throughput since the worker started, in rounds per second.
    pub fn round_rate(&self) -> f64 {
        if self.elapsed_nanos == 0 {
            0.0
        } else {
            self.round as f64 * 1e9 / self.elapsed_nanos as f64
        }
    }
}

fn write_stats(link: &mut impl Write, from: u16, stats: &WorkerStats) -> std::io::Result<()> {
    let mut payload = Vec::with_capacity(40);
    for v in [
        stats.round,
        stats.active,
        stats.wire_bytes,
        stats.peak_rss_bytes,
        stats.elapsed_nanos,
    ] {
        put_u64(&mut payload, v);
    }
    write_frame(
        link,
        FrameHeader {
            kind: FrameKind::Stats,
            round: stats.round,
            from,
            to: COORDINATOR,
        },
        &payload,
    )?;
    Ok(())
}

fn parse_stats(frame: &Frame) -> std::io::Result<WorkerStats> {
    let p = &frame.payload;
    Ok(WorkerStats {
        shard: frame.header.from as usize,
        round: get_u64(p, 0)?,
        active: get_u64(p, 8)?,
        wire_bytes: get_u64(p, 16)?,
        peak_rss_bytes: get_u64(p, 24)?,
        elapsed_nanos: get_u64(p, 32)?,
    })
}

/// Appends a worker's final [`Output`](FrameKind::Output) frame payload to
/// `payload`: every [`RunMetrics::COUNTERS`] value of `shard` in registry
/// order and its `phase_nanos` (`send`, `deliver`, `receive`), all `u64`;
/// then a `u32` count and one `[node u32][bits u16][aux u8][payload]` entry
/// per output, for the consecutive nodes from `first_node` on.  A worker
/// appends it behind room for the frame prefix, so the frame is built in
/// place.
pub fn encode_output_payload<O: WireMessage>(
    payload: &mut Vec<u8>,
    shard: &RunMetrics,
    first_node: usize,
    outputs: impl ExactSizeIterator<Item = O>,
) {
    // Reserved once: the counters, phase times and count, and per output
    // its 7 header bytes and its size in memory, which bounds what the
    // outputs here (`u64`s and small enums of them) encode to.
    let entry = 7 + std::mem::size_of::<O>();
    payload.reserve((RunMetrics::COUNTERS.len() + 3) * 8 + 4 + outputs.len() * entry);
    for c in RunMetrics::COUNTERS {
        put_u64(payload, (c.get)(shard));
    }
    let t = shard.phase_nanos;
    for v in [t.send, t.deliver, t.receive] {
        put_u64(payload, v);
    }
    put_u32(payload, outputs.len() as u32);
    let mut w = crate::wire::BitWriter::new();
    for (i, out) in outputs.enumerate() {
        w.clear();
        let aux = out.encode(&mut w);
        let bits = u16::try_from(w.bits_written()).expect("output exceeds u16 bits");
        put_u32(payload, (first_node + i) as u32);
        payload.extend_from_slice(&bits.to_le_bytes());
        payload.push(aux);
        payload.extend_from_slice(w.as_bytes());
    }
}

/// Decodes a payload written by [`encode_output_payload`]: returns the
/// shard's counters and `phase_nanos`, and hands each `(node, output)`
/// entry to `output`.
///
/// # Errors
///
/// A truncated or malformed payload, or the first error `output` returns.
pub fn decode_output_payload<O: WireMessage>(
    p: &[u8],
    mut output: impl FnMut(usize, O) -> std::io::Result<()>,
) -> std::io::Result<RunMetrics> {
    let mut shard = RunMetrics::default();
    let mut at = 0;
    for c in RunMetrics::COUNTERS {
        *(c.get_mut)(&mut shard) = get_u64(p, at)?;
        at += 8;
    }
    shard.phase_nanos = PhaseTimings {
        send: get_u64(p, at)?,
        deliver: get_u64(p, at + 8)?,
        receive: get_u64(p, at + 16)?,
    };
    let count = get_u32(p, at + 24)?;
    at += 28;
    for _ in 0..count {
        let node = get_u32(p, at)? as usize;
        let bits = get_u16(p, at + 4)?;
        let aux = *p
            .get(at + 6)
            .ok_or_else(|| protocol_error("truncated output entry"))?;
        let nbytes = (bits as usize).div_ceil(8);
        let body = p
            .get(at + 7..at + 7 + nbytes)
            .ok_or_else(|| protocol_error("truncated output payload"))?;
        output(node, crate::wire::decode_payload::<O>(bits, aux, body)?)?;
        at += 7 + nbytes;
    }
    if at != p.len() {
        return Err(protocol_error("trailing bytes after the output entries"));
    }
    Ok(shard)
}

/// Serves one shard of a simulation over a blocking link to the coordinator
/// — the worker-process half of the multi-process backend (the `exp_worker`
/// binary is a thin wrapper around this) — exchanging data frames with the
/// other workers over `mesh`.
///
/// `topology` only needs the [`ShardTopologyView`] surface, so a worker can
/// serve from a [`ShardSliceTopology`](crate::sharded::ShardSliceTopology)
/// it built for its own shard without ever materialising the full graph.
///
/// `nodes` holds exactly the state machines of `topology.shard_nodes(shard)`
/// in node order; they are initialised here with their global contexts, so
/// every process derives identical state from identical inputs.
///
/// The worker runs its kernel's round loop with the rounds decided by
/// frames: it votes ([`Vote`](FrameKind::Vote), the shard's active count)
/// and reads the coordinator's [`RoundStart`](FrameKind::RoundStart), which
/// starts the next round or stops the run; per round it fills its own inbox
/// slots directly for intra-shard traffic, wire-encodes cross-shard
/// messages into one data frame per destination shard, flushes them over
/// the mesh, and reads the other shards' frames into its slots.  On stop it
/// sends one [`Output`](FrameKind::Output) frame carrying its counters
/// (including its peak RSS) and its nodes' wire-encoded outputs.
///
/// With a nonzero [`ServeOptions::stats_every`] the worker additionally
/// emits a [`Stats`](FrameKind::Stats) frame every `k` rounds, immediately
/// before that round's vote on the same ordered link — pure telemetry that
/// changes no round decision, output or merged counter.
///
/// # Errors
///
/// Propagates link I/O failures and protocol violations as `io::Error`.  A
/// failed read of a `RoundStart` names the coordinator and the round, and
/// says so when the coordinator closed the link.
///
/// # Panics
///
/// Panics on CONGEST contract violations by the algorithm (double-send on a
/// port), exactly like the in-process executors.
pub fn serve_shard_with<A: NodeAlgorithm, L: Read + Write, T: ShardTopologyView>(
    link: &mut L,
    topology: &T,
    shard: usize,
    mut nodes: Vec<A>,
    mesh: WorkerMesh,
    opts: &ServeOptions,
) -> std::io::Result<()>
where
    A::Output: WireMessage,
{
    let node_range = topology.shard_nodes(shard);
    assert_eq!(
        nodes.len(),
        node_range.len(),
        "need exactly one algorithm instance per shard node"
    );
    let n = topology.num_nodes();
    check_wire_shard_count(topology.num_shards())?;
    let me = shard as u16;

    let max_degree = topology.max_degree();
    for (v, node) in node_range.clone().zip(nodes.iter_mut()) {
        node.init(&NodeContext {
            node: v,
            degree: topology.port_range_from(shard, v).len(),
            n,
            max_degree,
            round: 0,
        });
    }

    // Trace capture is strictly local until the final Trace frame: the
    // recorder's epoch is this worker's monotonic origin (the documented
    // clock-alignment anchor), taken at its WorkerStart.
    let capture = opts.trace.then(StampedRecorder::new);
    let tracer: &dyn TraceSink = match &capture {
        Some(cap) => cap,
        None => &NoTrace,
    };
    if let Some(cap) = &capture {
        cap.emit(&TraceEvent::WorkerStart { shard });
    }
    let kernel = ShardKernel::new(topology, shard, &mut nodes, DeliveryMode::Strict, tracer);
    let mut frames = Frames {
        link: &mut *link,
        mesh,
        me,
        next: 0,
        stats_every: opts.stats_every,
        epoch: Instant::now(),
        wire_bytes: 0,
    };
    let mut report = kernel.run(&mut frames)?;
    let round = frames.next;

    // The captured trace ships as one out-of-band frame ahead of the
    // Output frame on the same ordered link, mirroring how Stats frames
    // precede Votes — the coordinator merges (or discards) it without any
    // effect on the run.
    if let Some(cap) = &capture {
        cap.emit(&TraceEvent::WorkerEnd { shard });
        write_frame(
            link,
            FrameHeader {
                kind: FrameKind::Trace,
                round,
                from: me,
                to: COORDINATOR,
            },
            &encode_stamped(&cap.take()),
        )?;
    }
    report.peak_rss_bytes = crate::metrics::process_peak_rss_bytes();
    let outputs = nodes.iter().map(|node| node.output());
    // Built in place behind room for the prefix, and written in one call.
    let mut frame = vec![0; FRAME_PREFIX_BYTES];
    encode_output_payload(&mut frame, &report, node_range.start, outputs);
    let header = FrameHeader {
        kind: FrameKind::Output,
        round,
        from: me,
        to: COORDINATOR,
    };
    seal_frame(&mut frame, header);
    link.write_all(&frame)?;
    link.flush()?;
    Ok(())
}

/// A worker process's rounds, decided by the coordinator's frames: the
/// [`RoundSync`] of [`serve_shard_with`].  Data crosses the mesh, whose
/// drain waits for every peer's frame, so the waits between steps are
/// no-ops.
struct Frames<'l, L> {
    link: &'l mut L,
    mesh: WorkerMesh,
    me: u16,
    /// The round the next `RoundStart` is stamped with: the rounds run.
    next: u64,
    stats_every: u64,
    /// When the worker entered its round loop, for the Stats frames.
    epoch: Instant,
    /// The wire bytes flushed so far, for the Stats frames.
    wire_bytes: u64,
}

impl<M: TransportMessage, L: Read + Write> RoundSync<M> for Frames<'_, L> {
    type Stage = WorkerMesh;
    type Error = std::io::Error;

    /// Writes the Stats frame when one is due, then the vote, then reads
    /// the coordinator's `RoundStart`.
    fn decide(&mut self, active: usize) -> std::io::Result<Option<u64>> {
        let round = self.next;
        if self.stats_every > 0 && round > 0 && round % self.stats_every == 0 {
            let stats = WorkerStats {
                shard: self.me as usize,
                round,
                active: active as u64,
                wire_bytes: self.wire_bytes,
                peak_rss_bytes: crate::metrics::process_peak_rss_bytes(),
                elapsed_nanos: self.epoch.elapsed().as_nanos() as u64,
            };
            write_stats(self.link, self.me, &stats)?;
        }
        write_vote(self.link, round, self.me, active as u64)?;
        let frame = read_control(self.link, COORDINATOR, round)?;
        if frame.header.kind != FrameKind::RoundStart {
            return Err(protocol_error("expected a RoundStart frame"));
        }
        frame.header.expect(round, COORDINATOR, self.me)?;
        let stop = *frame
            .payload
            .first()
            .ok_or_else(|| protocol_error("RoundStart frame missing its stop flag"))?
            != 0;
        if stop {
            return Ok(None);
        }
        self.next += 1;
        Ok(Some(round))
    }

    fn stage(&mut self) -> &mut WorkerMesh {
        &mut self.mesh
    }

    fn flush(&mut self, round: u64) -> std::io::Result<u64> {
        let bytes = Transport::<M>::flush(&mut self.mesh, round);
        self.wire_bytes += bytes;
        Ok(bytes)
    }

    fn drain(&mut self, round: u64, sink: &mut dyn FnMut(Entry<M>)) -> std::io::Result<()> {
        Ok(Transport::<M>::drain(&mut self.mesh, round, sink)?)
    }
}

/// Parameters of a [`coordinate`] run.
///
/// The coordinator never needs the graph itself — only its global shape —
/// so in a scale-out run it can drive workers that each built their own
/// [`ShardSliceTopology`](crate::sharded::ShardSliceTopology) without any
/// process materialising the full topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordinateSpec {
    /// Total node count, for output reassembly.
    pub num_nodes: usize,
    /// Number of shards (= workers).
    pub shards: usize,
    /// Round cap, after which the run stops with
    /// [`RunMetrics::hit_round_cap`] set.
    pub max_rounds: u64,
    /// When true, incoming [`Stats`](FrameKind::Stats) telemetry frames are
    /// rendered as `heartbeat:` lines on stderr.  Stats frames are consumed
    /// (and validated) either way, so a worker running with a nonzero
    /// [`ServeOptions::stats_every`] works against a silent coordinator.
    pub progress: bool,
}

/// Drives a multi-process run from the coordinator side: one blocking link
/// per shard worker (in any order — workers are identified by the shard
/// index of their initial vote).
///
/// The workers exchange data frames among themselves over their mesh, so
/// the coordinator carries only control frames: it tallies the halting
/// votes to decide rounds by the in-process executors' rule, and finally
/// merges the per-shard counters (in shard order, so totals are
/// deterministic) and reassembles the node outputs.
///
/// `O` is the workers' output type ([`NodeAlgorithm::Output`] with a wire
/// codec).
///
/// # Errors
///
/// Propagates link I/O failures and protocol violations as `io::Error`.  A
/// failed read after the initial votes names the shard and the round, and
/// says so when the shard closed its link.
pub fn coordinate<O: WireMessage, L: Read + Write>(
    links: Vec<L>,
    spec: &CoordinateSpec,
) -> std::io::Result<RunOutcome<O>> {
    coordinate_traced(links, spec, None)
}

/// [`coordinate`] with remote trace capture: the full-surface entry point.
///
/// With `trace` set, the coordinator records its own engine-track events
/// (`RunStart`/`RoundStart`/`RoundEnd`/`RunEnd`, pid 0 in the rendered
/// file) into the sink and merges every worker's final
/// [`Trace`](FrameKind::Trace) blob into it via
/// [`ChromeTraceSink::ingest_stamped`], yielding one Perfetto-loadable
/// trace with a named track per worker — see the clock-alignment rule in
/// the [`ChromeTraceSink`] docs.  Workers only ship a blob when they run
/// with [`ServeOptions::trace`]; either side may enable tracing alone
/// (an unconsumed-side mismatch is tolerated: unexpected Trace frames are
/// validated and discarded, and a `None` sink merely drops the blobs), and
/// the run itself — rounds, outputs, merged counters — is bit-for-bit
/// identical in every combination.
///
/// # Errors
///
/// Propagates link I/O failures and protocol violations (including a
/// malformed Trace payload) as `io::Error`.
pub fn coordinate_traced<O: WireMessage, L: Read + Write>(
    links: Vec<L>,
    spec: &CoordinateSpec,
    trace: Option<&ChromeTraceSink>,
) -> std::io::Result<RunOutcome<O>> {
    let shards = spec.shards;
    check_wire_shard_count(shards)?;
    if links.len() != shards {
        return Err(protocol_error("need exactly one link per shard"));
    }

    // Identify each link by the shard index of its initial vote.
    let mut by_shard: Vec<Option<(L, u64)>> = Vec::with_capacity(shards);
    by_shard.resize_with(shards, || None);
    for mut link in links {
        let frame = read_frame(&mut link)?;
        if frame.header.kind != FrameKind::Vote || frame.header.round != 0 {
            return Err(protocol_error("expected an initial vote frame"));
        }
        let shard = frame.header.from as usize;
        let active = parse_vote(&frame)?;
        let slot = by_shard
            .get_mut(shard)
            .ok_or_else(|| protocol_error("vote from an out-of-range shard"))?;
        if slot.is_some() {
            return Err(protocol_error("two links voted for the same shard"));
        }
        *slot = Some((link, active));
    }
    let mut links: Vec<L> = Vec::with_capacity(shards);
    let mut counts: Vec<u64> = Vec::with_capacity(shards);
    for slot in by_shard {
        let (link, active) = slot.ok_or_else(|| protocol_error("a shard never connected"))?;
        links.push(link);
        counts.push(active);
    }

    let mut metrics = RunMetrics::default();
    let tracer: &dyn TraceSink = match trace {
        Some(sink) => sink,
        None => &NoTrace,
    };
    let mut rounds = Rounds::lead(spec.num_nodes, shards, spec.max_rounds, tracer);
    loop {
        let round = rounds.next();
        let stop = rounds.decide(counts.iter().sum::<u64>() as usize).is_none();
        for (s, link) in links.iter_mut().enumerate() {
            write_frame(
                link,
                FrameHeader {
                    kind: FrameKind::RoundStart,
                    round,
                    from: COORDINATOR,
                    to: s as u16,
                },
                &[u8::from(stop)],
            )?;
            link.flush()?;
        }
        if stop {
            break;
        }

        // --- Tally the halting votes --------------------------------------
        let t = Instant::now();
        for (s, link) in links.iter_mut().enumerate() {
            // A worker may precede its vote with one out-of-band Stats
            // frame; the link is ordered, so telemetry can only appear here.
            let frame = loop {
                let frame = read_control(link, s as u16, round)?;
                if frame.header.kind != FrameKind::Stats {
                    break frame;
                }
                frame.header.expect(round + 1, s as u16, COORDINATOR)?;
                let stats = parse_stats(&frame)?;
                if spec.progress {
                    eprintln!(
                        "heartbeat: shard {} round {} active {} wire_bytes {} rss_bytes {} \
                         {:.1} rounds/s",
                        stats.shard,
                        stats.round,
                        stats.active,
                        stats.wire_bytes,
                        stats.peak_rss_bytes,
                        stats.round_rate(),
                    );
                }
            };
            if frame.header.kind != FrameKind::Vote {
                return Err(protocol_error("expected a vote frame"));
            }
            frame.header.expect(round + 1, s as u16, COORDINATOR)?;
            counts[s] = parse_vote(&frame)?;
        }
        metrics.phase_nanos.receive += t.elapsed().as_nanos() as u64;
    }
    let round = rounds.next();

    // --- Merge the final reports in shard order ---------------------------
    let mut outputs: Vec<Option<O>> = Vec::with_capacity(spec.num_nodes);
    outputs.resize_with(spec.num_nodes, || None);
    for (s, link) in links.iter_mut().enumerate() {
        // A traced worker precedes its Output with one out-of-band Trace
        // blob; the ordered link means it can only appear here.  The blob
        // is validated either way and merged only when a sink is attached.
        let frame = loop {
            let frame = read_control(link, s as u16, round)?;
            if frame.header.kind != FrameKind::Trace {
                break frame;
            }
            frame.header.expect(round, s as u16, COORDINATOR)?;
            let events = decode_stamped(&frame.payload)
                .map_err(|e| protocol_error(&format!("malformed trace blob: {e}")))?;
            if let Some(sink) = trace {
                sink.ingest_stamped(&events);
            }
        };
        if frame.header.kind != FrameKind::Output {
            return Err(protocol_error("expected an output frame"));
        }
        frame.header.expect(round, s as u16, COORDINATOR)?;
        let shard = decode_output_payload::<O>(&frame.payload, |node, out| {
            let slot = outputs
                .get_mut(node)
                .ok_or_else(|| protocol_error("output for an out-of-range node"))?;
            if slot.replace(out).is_some() {
                return Err(protocol_error("two outputs for one node"));
            }
            Ok(())
        })?;
        metrics.add_shard(&shard);
    }
    let outputs: Vec<O> = outputs
        .into_iter()
        .enumerate()
        .map(|(v, o)| o.ok_or_else(|| protocol_error(&format!("no output for node {v}"))))
        .collect::<Result<_, _>>()?;
    rounds.finish(&mut metrics);
    Ok(RunOutcome { outputs, metrics })
}

fn write_vote(link: &mut impl Write, round: u64, from: u16, active: u64) -> std::io::Result<()> {
    write_frame(
        link,
        FrameHeader {
            kind: FrameKind::Vote,
            round,
            from,
            to: COORDINATOR,
        },
        &active.to_le_bytes(),
    )?;
    link.flush()
}

fn parse_vote(frame: &Frame) -> std::io::Result<u64> {
    get_u64(&frame.payload, 0).map_err(Into::into)
}

fn protocol_error(msg: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("transport protocol: {msg}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{Inbox, Outbox};
    use crate::executor::ShardedExecutor;
    use crate::simulator::Simulator;
    use crate::topology::Topology;

    /// Gossip with per-node ttl: broadcasts `id + round`, digests what it
    /// hears, halts after `ttl` rounds.
    #[derive(Clone)]
    struct Gossip {
        id: u64,
        ttl: u64,
        digest: u64,
        rounds_done: u64,
    }

    impl Gossip {
        fn new(ttl: u64) -> Self {
            Self {
                id: 0,
                ttl,
                digest: 0,
                rounds_done: 0,
            }
        }
    }

    impl NodeAlgorithm for Gossip {
        type Message = u64;
        type Output = u64;

        fn init(&mut self, ctx: &NodeContext) {
            self.id = ctx.node as u64;
        }

        fn send(&mut self, ctx: &NodeContext) -> Outbox<u64> {
            Outbox::Broadcast(self.id + ctx.round)
        }

        fn receive(&mut self, _ctx: &NodeContext, inbox: &Inbox<'_, u64>) {
            for (p, m) in inbox.iter() {
                self.digest = self
                    .digest
                    .wrapping_mul(31)
                    .wrapping_add(*m)
                    .wrapping_add(p as u64);
            }
            self.rounds_done += 1;
        }

        fn is_halted(&self) -> bool {
            self.rounds_done >= self.ttl
        }

        fn output(&self) -> u64 {
            self.digest
        }
    }

    fn ring(n: usize) -> Topology {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Topology::from_edges(n, &edges).unwrap()
    }

    fn mk(n: usize) -> Vec<Gossip> {
        (0..n).map(|v| Gossip::new(ttl(v))).collect()
    }

    fn assert_logically_equal(a: &RunOutcome<u64>, b: &RunOutcome<u64>, what: &str) {
        assert_eq!(a.outputs, b.outputs, "{what}: outputs");
        assert_eq!(a.metrics.rounds, b.metrics.rounds, "{what}: rounds");
        assert_eq!(a.metrics.messages, b.metrics.messages, "{what}: messages");
        assert_eq!(a.metrics.total_bits, b.metrics.total_bits, "{what}: bits");
        assert_eq!(
            a.metrics.max_message_bits, b.metrics.max_message_bits,
            "{what}: max bits"
        );
        assert_eq!(
            a.metrics.active_per_round, b.metrics.active_per_round,
            "{what}: active"
        );
        assert_eq!(
            a.metrics.hit_round_cap, b.metrics.hit_round_cap,
            "{what}: cap"
        );
    }

    #[test]
    fn socket_loopback_matches_sequential_unix_and_tcp() {
        let n = 23;
        let dense = ring(n);
        let seq = Simulator::new(&dense).run(mk(n));
        for shards in [2, 3] {
            let g = ShardedTopology::from_topology(&dense, shards).unwrap();
            #[cfg(unix)]
            {
                let out = Simulator::new(&g).run_with_executor(
                    mk(n),
                    &ShardedExecutor::with_transport(SocketLoopback::unix()),
                );
                assert_logically_equal(&seq, &out, "unix loopback");
                assert!(
                    out.metrics.wire_bytes_sent > 0,
                    "frames must cross the wire"
                );
                assert_eq!(
                    out.metrics.intra_shard_messages + out.metrics.cross_shard_messages,
                    out.metrics.messages
                );
            }
            let out = Simulator::new(&g).run_with_executor(
                mk(n),
                &ShardedExecutor::with_transport(SocketLoopback::tcp()),
            );
            assert_logically_equal(&seq, &out, "tcp loopback");
            assert!(out.metrics.wire_bytes_sent > 0);
        }
    }

    #[test]
    fn socket_loopback_wire_bytes_are_deterministic() {
        let n = 17;
        let dense = ring(n);
        let g = ShardedTopology::from_topology(&dense, 3).unwrap();
        let run = || {
            Simulator::new(&g)
                .run_with_executor(
                    mk(n),
                    &ShardedExecutor::with_transport(SocketLoopback::tcp()),
                )
                .metrics
        };
        let (a, b) = (run(), run());
        assert_eq!(a.wire_bytes_sent, b.wire_bytes_sent);
        assert_eq!(a.cross_shard_messages, b.cross_shard_messages);
    }

    #[test]
    fn in_process_transport_reports_zero_wire_bytes() {
        let n = 12;
        let dense = ring(n);
        let g = ShardedTopology::from_topology(&dense, 2).unwrap();
        let out = Simulator::new(&g).run_with_executor(mk(n), &ShardedExecutor::new());
        assert_eq!(out.metrics.wire_bytes_sent, 0);
        assert!(out.metrics.cross_shard_messages > 0);
    }

    /// Runs gossip with node `v`'s ttl `ttl(v)` on `dense` in `shards`
    /// worker threads standing in for worker processes: each builds its own
    /// slice from the plan and serves it over a socketpair to the
    /// coordinator and a TCP loopback mesh to the other workers.
    #[cfg(unix)]
    fn run_remote(
        dense: &Topology,
        shards: usize,
        max_rounds: u64,
        ttl: impl Fn(usize) -> u64 + Sync,
        opts: ServeOptions,
        sink: Option<&ChromeTraceSink>,
    ) -> RunOutcome<u64> {
        let n = dense.num_nodes();
        let stream = |emit: &mut dyn FnMut(usize, usize)| {
            for (u, v) in dense.edges() {
                emit(u, v);
            }
        };
        let plan = ShardPlan::from_edge_stream(n, shards, stream).unwrap();
        // Every mesh listener is bound before any worker dials, so the peer
        // list is complete up front and dials land in the backlog.
        let listeners: Vec<std::net::TcpListener> = (0..shards)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let peers: Vec<(u16, String)> = listeners
            .iter()
            .enumerate()
            .map(|(s, l)| (s as u16, l.local_addr().unwrap().to_string()))
            .collect();
        let (links, ends): (Vec<_>, Vec<_>) = (0..shards)
            .map(|_| std::os::unix::net::UnixStream::pair().unwrap())
            .unzip();
        std::thread::scope(|scope| {
            for (shard, (mut link, listener)) in ends.into_iter().zip(listeners).enumerate() {
                let (plan, peers, ttl) = (plan.clone(), &peers, &ttl);
                scope.spawn(move || {
                    let slice = crate::sharded::ShardSliceTopology::build(plan, shard, stream)
                        .expect("slice build");
                    let mesh = WorkerMesh::connect(shard as u16, shards, peers, &listener)
                        .expect("mesh connect");
                    let nodes = slice
                        .shard_nodes(shard)
                        .map(|v| Gossip::new(ttl(v)))
                        .collect();
                    serve_shard_with(&mut link, &slice, shard, nodes, mesh, &opts).expect("worker");
                });
            }
            let spec = CoordinateSpec {
                num_nodes: n,
                shards,
                max_rounds,
                progress: false,
            };
            coordinate_traced::<u64, _>(links, &spec, sink).expect("coordinator")
        })
    }

    /// The ttl schedule of [`mk`].
    fn ttl(v: usize) -> u64 {
        1 + (v as u64 % 5)
    }

    /// Telemetry is out-of-band: a run whose workers emit a Stats frame
    /// every single round produces outputs and logical counters identical
    /// to the sequential reference — the coordinator consumes the frames
    /// without letting them near a round decision.
    #[cfg(unix)]
    #[test]
    fn stats_frames_are_out_of_band() {
        let dense = ring(19);
        let seq = Simulator::new(&dense).run(mk(19));
        let opts = ServeOptions {
            stats_every: 1,
            ..ServeOptions::default()
        };
        let out = run_remote(&dense, 3, 1_000_000, ttl, opts, None);
        assert_logically_equal(&seq, &out, "remote+stats");
    }

    /// Trace capture is strictly out-of-band: the run is bit-for-bit
    /// identical whether neither, either or both sides enable tracing, and
    /// when both do, the merged sink holds the engine track plus one named
    /// per-worker track with that worker's shipped events.
    #[cfg(unix)]
    #[test]
    fn trace_frames_are_out_of_band() {
        let (n, shards) = (19, 3);
        let dense = ring(n);
        let seq = Simulator::new(&dense).run(mk(n));
        let run = |worker_trace: bool, coord_trace: bool| {
            let sink = coord_trace.then(ChromeTraceSink::new);
            let opts = ServeOptions {
                stats_every: 0,
                trace: worker_trace,
            };
            let out = run_remote(&dense, shards, 1_000_000, ttl, opts, sink.as_ref());
            (out, sink)
        };

        let (baseline, _) = run(false, false);
        assert_logically_equal(&seq, &baseline, "untraced remote");
        for (worker_trace, coord_trace) in [(true, false), (false, true), (true, true)] {
            let (out, sink) = run(worker_trace, coord_trace);
            assert_logically_equal(&baseline, &out, "traced remote");
            assert_eq!(
                baseline.metrics.wire_bytes_sent, out.metrics.wire_bytes_sent,
                "trace frames must never count as data-plane wire bytes"
            );
            let Some(sink) = sink else { continue };
            let mut buf = Vec::new();
            sink.write_json(&mut buf).expect("render merged trace");
            let text = String::from_utf8(buf).expect("utf8 trace");
            assert!(text.contains("\"name\":\"engine\""), "engine track named");
            assert!(text.contains("run_start"), "coordinator events present");
            if worker_trace {
                for shard in 0..shards {
                    assert!(
                        text.contains(&format!("\"name\":\"shard {shard}\"")),
                        "worker track {shard} named in the merged file"
                    );
                }
                assert!(text.contains("worker_start"), "worker events merged");
            } else {
                assert!(
                    !text.contains("worker_start"),
                    "no worker events without worker-side capture"
                );
            }
        }
    }

    #[test]
    fn worker_stats_round_rate() {
        let stats = WorkerStats {
            round: 100,
            elapsed_nanos: 2_000_000_000,
            ..WorkerStats::default()
        };
        assert!((stats.round_rate() - 50.0).abs() < 1e-9);
        assert_eq!(WorkerStats::default().round_rate(), 0.0);
    }

    /// The remote protocol: workers build only their own shard slice from
    /// the plan, exchange data frames peer-to-peer over TCP, and the
    /// coordinator — driving control frames only — relays zero data bytes
    /// and reports the shard split and the workers' peak RSS.
    #[cfg(unix)]
    #[test]
    fn mesh_protocol_matches_sequential_and_relays_nothing() {
        let n = 19;
        let dense = ring(n);
        let seq = Simulator::new(&dense).run(mk(n));
        for shards in [1, 2, 3] {
            let out = run_remote(
                &dense,
                shards,
                1_000_000,
                ttl,
                ServeOptions::default(),
                None,
            );
            assert_logically_equal(&seq, &out, "mesh");
            assert_eq!(
                out.metrics.relayed_data_bytes, 0,
                "the coordinator relays no data"
            );
            assert_eq!(
                out.metrics.intra_shard_messages + out.metrics.cross_shard_messages,
                out.metrics.messages
            );
            assert_eq!(out.metrics.shard_phase_nanos.len(), shards);
            assert!(
                out.metrics.peak_rss_bytes > 0,
                "workers must report their peak RSS"
            );
            if shards > 1 {
                assert!(out.metrics.wire_bytes_sent > 0);
                assert!(
                    out.metrics.syscall_batches > 0,
                    "mesh links must report their kernel write batches"
                );
            }
        }
    }

    #[cfg(unix)]
    #[test]
    fn remote_protocol_respects_the_round_cap() {
        let n = 9;
        let out = run_remote(&ring(n), 2, 4, |_| u64::MAX, ServeOptions::default(), None);
        assert_eq!(out.metrics.rounds, 4);
        assert!(out.metrics.hit_round_cap);
        assert_eq!(out.metrics.active_per_round, vec![n; 4]);
    }

    /// The two socket-loopback endpoints of a 2-shard ring, for forging raw
    /// frames onto the 0→1 wire.
    #[cfg(unix)]
    fn forged_pair() -> Vec<WorkerMesh> {
        let dense = ring(8);
        let g = ShardedTopology::from_topology(&dense, 2).unwrap();
        SocketLoopback::unix().build::<u64>(&g).unwrap()
    }

    /// Writes raw bytes from shard 0's endpoint to shard 1, bypassing the
    /// staging and sealing path entirely.  The forged frames are small, so
    /// the nonblocking socket takes them whole.
    #[cfg(unix)]
    fn forge(shard0: &mut WorkerMesh, bytes: &[u8]) {
        shard0.links[0].stream.write_all(bytes).expect("forge");
    }

    /// One frame of `kind` from shard 0 to shard 1, length prefix included.
    #[cfg(unix)]
    fn frame(kind: FrameKind, round: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let header = FrameHeader {
            kind,
            round,
            from: 0,
            to: 1,
        };
        crate::wire::frame_into(&mut out, header, payload);
        out
    }

    /// The satellite fix pinned: a frame stamped with a future round sitting
    /// on the wire at the round-0 barrier is a checked [`TransportError`]
    /// (`WireError::RoundMismatch`), not a panic.
    #[cfg(unix)]
    #[test]
    fn out_of_round_frame_is_a_checked_transport_error() {
        let mut t = forged_pair();
        forge(&mut t[0], &frame(FrameKind::Data, 5, &0u32.to_le_bytes()));
        let err = Transport::<u64>::drain(&mut t[1], 0, &mut |_| {
            panic!("nothing must be delivered from an out-of-round frame")
        })
        .expect_err("out-of-round frame must be rejected");
        match err {
            TransportError::Wire(crate::wire::WireError::RoundMismatch { expected, got }) => {
                assert_eq!((expected, got), (0, 5));
            }
            other => panic!("expected a RoundMismatch, got {other}"),
        }
    }

    /// A peer that closes its end of the link mid-round is a typed error
    /// naming it and the round, never a panic: when it closes after shard
    /// 0's flush, the drain's read meets the end of the stream; when it
    /// closes before, the flush's write fails, and the drain returns that.
    #[cfg(unix)]
    #[test]
    fn a_peer_closing_mid_round_is_a_checked_transport_error() {
        for close_before_flush in [false, true] {
            let mut t = forged_pair();
            let shard1 = t.pop().expect("shard 1's endpoint");
            let mut shard0 = t.pop().expect("shard 0's endpoint");
            Transport::<u64>::stage(&mut shard0, 1, 9, 3, 7);
            if close_before_flush {
                drop(shard1);
                Transport::<u64>::flush(&mut shard0, 3);
            } else {
                Transport::<u64>::flush(&mut shard0, 3);
                drop(shard1);
            }
            let err = Transport::<u64>::drain(&mut shard0, 3, &mut |_| {
                panic!("nothing must be delivered from a closed link")
            })
            .expect_err("a closed link must be an error");
            assert!(
                matches!(err, TransportError::PeerClosed { shard: 1, round: 3 }),
                "closed before the flush: {close_before_flush}: {err}"
            );
            assert_eq!(err.to_string(), "shard 1 closed its mesh link in round 3");
        }
    }

    /// A closed control link stops the run with an error that names its
    /// peer and the round.  The stand-ins write their side of the protocol
    /// ahead and then close their end for writing.  Shard 1 votes for rounds
    /// 0 and 1 only, so the coordinator stops in round 1; a coordinator that
    /// starts round 0 only stops a worker in round 1.
    #[cfg(unix)]
    #[test]
    fn a_closed_control_link_names_its_peer_and_the_round() {
        use std::net::Shutdown;
        use std::os::unix::net::UnixStream;
        let (links, ends): (Vec<_>, Vec<_>) = (0..2).map(|_| UnixStream::pair().unwrap()).unzip();
        for (shard, (mut end, rounds)) in ends.iter().zip([3, 2]).enumerate() {
            for round in 0..rounds {
                write_vote(&mut end, round, shard as u16, 1).unwrap();
            }
        }
        ends[1].shutdown(Shutdown::Write).unwrap();
        let spec = CoordinateSpec {
            num_nodes: 2,
            shards: 2,
            max_rounds: 10,
            progress: false,
        };
        let err = coordinate::<u64, _>(links, &spec).expect_err("shard 1 closed its link");
        assert_eq!(
            err.to_string(),
            "shard 1 closed its control link in round 1"
        );

        let g = ShardedTopology::from_topology(&ring(4), 1).unwrap();
        let mesh = SocketLoopback::unix().build::<u64>(&g).unwrap().pop();
        let (mut coordinator, mut link) = UnixStream::pair().unwrap();
        let start = FrameHeader {
            kind: FrameKind::RoundStart,
            round: 0,
            from: COORDINATOR,
            to: 0,
        };
        write_frame(&mut coordinator, start, &[0]).unwrap();
        coordinator.shutdown(Shutdown::Write).unwrap();
        let nodes = (0..4).map(|_| Gossip::new(3)).collect();
        let opts = ServeOptions::default();
        let err = serve_shard_with(&mut link, &g, 0, nodes, mesh.unwrap(), &opts)
            .expect_err("the coordinator closed its link");
        assert_eq!(
            err.to_string(),
            "the coordinator closed its control link in round 1"
        );
    }

    /// The shard-count/host-list mismatch gate: every malformed peer list —
    /// short, out-of-range, duplicated — is a typed [`TransportError`]
    /// before any mesh connection is dialed, never a hang.
    #[test]
    fn malformed_peer_lists_are_checked_transport_errors() {
        let ok = |s: u16| (s, format!("127.0.0.1:{}", 9000 + s));
        validate_peer_list(&[ok(0), ok(1), ok(2)], 3).expect("a complete list validates");

        let short = validate_peer_list(&[ok(0), ok(1)], 3).expect_err("short list");
        assert!(
            matches!(&short, TransportError::Protocol(m) if m.contains("2 workers")
                && m.contains("3 shards")),
            "unexpected error: {short}"
        );
        let long = validate_peer_list(&[ok(0), ok(1), ok(2), ok(3)], 3).expect_err("long list");
        assert!(matches!(long, TransportError::Protocol(_)));
        let out_of_range = validate_peer_list(&[ok(0), ok(1), ok(7)], 3).expect_err("shard 7");
        assert!(
            matches!(&out_of_range, TransportError::Protocol(m) if m.contains("shard 7")),
            "unexpected error: {out_of_range}"
        );
        let duplicate = validate_peer_list(&[ok(0), ok(1), ok(1)], 3).expect_err("duplicate shard");
        assert!(
            matches!(&duplicate, TransportError::Protocol(m) if m.contains("twice")),
            "unexpected error: {duplicate}"
        );
    }

    /// Peer lists survive the wire round trip, and forged `Peers` frames —
    /// truncated entries, trailing bytes, non-UTF-8 addresses, wrong kind —
    /// are typed errors, not panics.
    #[test]
    fn forged_peer_frames_are_checked_transport_errors() {
        let peers = vec![
            (0u16, "127.0.0.1:9000".to_string()),
            (1u16, "[::1]:9001".to_string()),
        ];
        let mut wire = Vec::new();
        write_peers(&mut wire, COORDINATOR, 1, &peers).unwrap();
        let frame = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(parse_peers(&frame).expect("round trip"), peers);

        let header = FrameHeader {
            kind: FrameKind::Peers,
            round: 0,
            from: COORDINATOR,
            to: 1,
        };
        // Entry count says one peer, but the entry bytes are missing.
        let mut truncated = Vec::new();
        put_u32(&mut truncated, 1);
        let err = parse_peers(&Frame {
            header,
            payload: truncated,
        })
        .expect_err("truncated entry");
        assert!(matches!(err, TransportError::Wire(_)));

        // A valid single entry followed by stray trailing bytes.
        let mut trailing = peers_payload(&peers[..1]);
        trailing.push(0xEE);
        let err = parse_peers(&Frame {
            header,
            payload: trailing,
        })
        .expect_err("trailing bytes");
        assert!(matches!(
            err,
            TransportError::Wire(WireError::TrailingBytes(1))
        ));

        // A shard whose address bytes are not UTF-8.
        let mut bad_utf8 = Vec::new();
        put_u32(&mut bad_utf8, 1);
        put_u16(&mut bad_utf8, 0);
        put_u16(&mut bad_utf8, 2);
        bad_utf8.extend_from_slice(&[0xFF, 0xFE]);
        let err = parse_peers(&Frame {
            header,
            payload: bad_utf8,
        })
        .expect_err("non-UTF-8 address");
        assert!(
            matches!(&err, TransportError::Protocol(m) if m.contains("UTF-8")),
            "unexpected error: {err}"
        );

        // The right payload under the wrong frame kind.
        let err = parse_peers(&Frame {
            header: FrameHeader {
                kind: FrameKind::Data,
                ..header
            },
            payload: peers_payload(&peers),
        })
        .expect_err("wrong kind");
        assert!(matches!(err, TransportError::Protocol(_)));
    }

    /// A shard plan round-trips through the chunked `Topology` frame
    /// sequence regardless of chunk boundaries.
    #[test]
    fn plans_round_trip_through_chunked_topology_frames() {
        let n = 57;
        let plan = ShardPlan::from_edge_stream(n, 4, |emit| {
            for i in 0..n {
                emit(i, (i + 1) % n);
            }
        })
        .unwrap();
        let mut wire = Vec::new();
        write_plan(&mut wire, &plan, 2).unwrap();
        let got = read_plan(&mut wire.as_slice(), 2).expect("plan round trip");
        assert_eq!(got, plan);

        // A worker expecting a different shard index rejects the frames.
        read_plan(&mut wire.as_slice(), 3).expect_err("wrong destination shard");
    }

    /// A duplicated round-0 frame drains cleanly at round 0 — and the stale
    /// copy left on the wire surfaces as a checked error at the round-1
    /// barrier instead of being silently delivered as round-1 traffic.
    #[cfg(unix)]
    #[test]
    fn duplicate_frame_surfaces_at_the_next_round_barrier() {
        let mut t = forged_pair();
        // Two identical round-0 frames: the original and its duplicate.
        let original = frame(FrameKind::Data, 0, &0u32.to_le_bytes());
        forge(&mut t[0], &original);
        forge(&mut t[0], &original);
        Transport::<u64>::drain(&mut t[1], 0, &mut |_| {}).expect("round 0 drains the original");
        let err = Transport::<u64>::drain(&mut t[1], 1, &mut |_| {
            panic!("the stale duplicate must not be delivered")
        })
        .expect_err("duplicate frame must be rejected at the next barrier");
        match err {
            TransportError::Wire(crate::wire::WireError::RoundMismatch { expected, got }) => {
                assert_eq!((expected, got), (1, 0));
            }
            other => panic!("expected a RoundMismatch, got {other}"),
        }
    }

    /// Serves shard 1 of a two-shard ring against a stand-in coordinator
    /// that starts round 0, with `forged` arriving on shard 0's end of a
    /// loopback mesh as its data frame, and returns the error the worker
    /// stops with.
    #[cfg(unix)]
    fn serve_forged_frame(forged: &[u8]) -> std::io::Error {
        let g = ShardedTopology::from_topology(&ring(8), 2).unwrap();
        let mut ends = SocketLoopback::unix().build::<u64>(&g).unwrap();
        let shard1 = ends.pop().expect("shard 1's endpoint");
        let mut shard0 = ends.pop().expect("shard 0's endpoint");
        let (mut coordinator, mut link) = std::os::unix::net::UnixStream::pair().unwrap();
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let nodes: Vec<Gossip> = g.shard_nodes(1).map(|_| Gossip::new(3)).collect();
                let opts = ServeOptions::default();
                serve_shard_with(&mut link, &g, 1, nodes, shard1, &opts)
            });
            let vote = read_frame(&mut coordinator).expect("initial vote");
            assert_eq!(vote.header.kind, FrameKind::Vote);
            let start = FrameHeader {
                kind: FrameKind::RoundStart,
                round: 0,
                from: COORDINATOR,
                to: 1,
            };
            write_frame(&mut coordinator, start, &[0]).expect("round start");
            forge(&mut shard0, forged);
            // A worker that accepted the frame now fails on the closed link
            // instead of waiting for the next round forever.
            coordinator
                .shutdown(std::net::Shutdown::Both)
                .expect("close the coordinator link");
            worker
                .join()
                .expect("worker thread")
                .expect_err("a forged frame must stop the worker")
        })
    }

    /// A data frame from shard 0 to shard 1 with one entry, for `slot`.
    #[cfg(unix)]
    fn one_entry_frame(slot: u32) -> Vec<u8> {
        let mut batch = DataFrameBuilder::new();
        batch.push(slot, 0, &7u64);
        batch.seal(0, 0, 1).to_vec()
    }

    /// [`InProcess`], except that shard `w` delivers each broadcast entry
    /// from `sender` once as from every node of `senders(w, sender)`, in
    /// order: forged or duplicated entries.
    #[derive(Clone)]
    struct Resent<F>(F);

    struct ResentEndpoint<M, F> {
        shard: usize,
        senders: F,
        inner: InProcessTransport<M>,
    }

    impl<M, F> Transport<M> for ResentEndpoint<M, F>
    where
        M: TransportMessage,
        F: Fn(usize, u32) -> Vec<u32> + Send,
    {
        fn stage(&mut self, to: usize, slot: u32, sender: u32, msg: M) {
            self.inner.stage(to, slot, sender, msg);
        }

        fn stage_broadcast(&mut self, to: usize, sender: u32, msg: M, dests: &[u32]) {
            self.inner.stage_broadcast(to, sender, msg, dests);
        }

        fn flush(&mut self, round: u64) -> u64 {
            self.inner.flush(round)
        }

        fn drain(
            &mut self,
            round: u64,
            sink: &mut dyn FnMut(Entry<M>),
        ) -> Result<(), TransportError> {
            let (shard, senders) = (self.shard, &self.senders);
            self.inner.drain(round, &mut |entry| match entry {
                Entry::Broadcast { sender, msg } => {
                    for sender in senders(shard, sender) {
                        let msg = msg.clone();
                        sink(Entry::Broadcast { sender, msg });
                    }
                }
                entry => sink(entry),
            })
        }
    }

    impl<F: Fn(usize, u32) -> Vec<u32> + Clone + Send + Sync> TransportBuilder for Resent<F> {
        type Transport<M: TransportMessage> = ResentEndpoint<M, F>;

        fn build<M: TransportMessage>(
            &self,
            topology: &ShardedTopology,
        ) -> std::io::Result<Vec<ResentEndpoint<M, F>>> {
            let endpoints = InProcess.build::<M>(topology)?.into_iter().enumerate();
            Ok(endpoints
                .map(|(shard, inner)| ResentEndpoint {
                    shard,
                    senders: self.0.clone(),
                    inner,
                })
                .collect())
        }
    }

    fn panic_message(run: std::thread::Result<RunOutcome<u64>>) -> String {
        let payload = run.expect_err("the run must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn a_broadcast_from_a_node_without_ports_into_the_shard_is_a_checked_error() {
        let g = ShardedTopology::from_topology(&ring(8), 2).unwrap();
        assert_eq!(g.shard_nodes(1), 4..8);
        // Node 5's neighbours are 4 and 6, both in shard 1; node 100 does
        // not exist.  Shard 0 receives every broadcast entry as from them.
        for forged in [5, 100] {
            let senders = move |shard, sender| vec![if shard == 0 { forged } else { sender }];
            let executor = ShardedExecutor::with_transport(Resent(senders));
            let run =
                std::panic::catch_unwind(|| Simulator::new(&g).run_with_executor(mk(8), &executor));
            let want = TransportError::BroadcastOutsideShard {
                shard: 0,
                sender: forged,
            };
            let message = panic_message(run);
            assert!(message.contains(&want.to_string()), "{message}");
        }
    }

    /// A broadcast entry drained twice is a second message over each of the
    /// sender's ports.  On `K_12` in two shards each kernel keeps a value
    /// for every node, so the entry, which reaches six ports, replaces one
    /// value and counts once under [`DeliveryMode::Async`].
    #[test]
    fn a_broadcast_entry_drained_twice_panics_under_strict_and_counts_once_under_async() {
        let n = 12;
        let edges: Vec<_> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |w| (u, w)))
            .collect();
        let g = ShardedTopology::from_topology(&Topology::from_edges(n, &edges).unwrap(), 2);
        let g = g.unwrap();
        let twice = |_, sender| vec![sender, sender];
        let executor = ShardedExecutor::with_transport(Resent(twice));
        let run =
            std::panic::catch_unwind(|| Simulator::new(&g).run_with_executor(mk(n), &executor));
        let message = panic_message(run);
        assert!(
            message.contains("two messages over the same port"),
            "{message}"
        );

        let entries = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let counted = Arc::clone(&entries);
        let twice = move |_, sender| {
            counted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            vec![sender, sender]
        };
        let executor =
            ShardedExecutor::with_transport(Resent(twice)).with_delivery(DeliveryMode::Async);
        let run = Simulator::new(&g).run_with_executor(mk(n), &executor);
        let once = Simulator::new(&g).run_with_executor(mk(n), &ShardedExecutor::new());
        let entries = entries.load(std::sync::atomic::Ordering::Relaxed);
        assert!(entries > 0);
        assert_eq!(run.metrics.stale_overwrites, entries);
        assert_logically_equal(&run, &once, "async, every broadcast entry twice");
    }

    /// Forged frames reaching a worker over the mesh are typed errors,
    /// never panics: an entry whose slot lies below or above the receiving
    /// shard's slots, and a non-data frame where a data frame is owed.
    #[cfg(unix)]
    #[test]
    fn forged_relay_and_mesh_frames_are_checked_transport_errors() {
        let own = ShardedTopology::from_topology(&ring(8), 2)
            .unwrap()
            .shard_slots(1);
        for slot in [own.start as u32 - 1, own.end as u32] {
            let err = serve_forged_frame(&one_entry_frame(slot)).to_string();
            assert!(
                err.contains(&format!("slot {slot} ")) && err.contains("shard 1"),
                "slot {slot}: unexpected error: {err}"
            );
        }
        let vote = frame(FrameKind::Vote, 0, &0u64.to_le_bytes());
        let err = serve_forged_frame(&vote).to_string();
        assert!(
            err.contains("expected a data frame from shard 0, got a Vote frame"),
            "unexpected error: {err}"
        );
    }

    /// Runs `run` on its own thread and waits at most a minute for it, so a
    /// deadlocked drain fails the test instead of hanging it.
    fn within_deadline<T: Send + 'static>(
        what: &str,
        run: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let _ = tx.send(run());
        });
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(out) => out,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("{what} did not finish within 60 s: the drain deadlocked")
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(handle.join().expect_err("the run sent no result"))
            }
        }
    }

    /// A circulant on `n` nodes whose shifts `n/4 + 1` and `n/2 − 1` put
    /// about three quarters of its edges across any cut into two or three
    /// shards, so a round's frames run to many read windows.
    fn circulant(n: usize) -> Topology {
        let edges: Vec<(usize, usize)> = [n / 4 + 1, n / 2 - 1]
            .into_iter()
            .flat_map(|shift| (0..n).map(move |i| (i, (i + shift) % n)))
            .collect();
        Topology::from_edges(n, &edges).unwrap()
    }

    /// What one [`Watched`] endpoint saw: the most times one of its drains
    /// switched from one sending shard's entries to another's, and the
    /// receive memory of each of its links when it was dropped.
    type Watch = (usize, Vec<usize>);

    /// A socket-loopback backend whose endpoints report a [`Watch`] each
    /// when the run drops them.
    #[derive(Clone)]
    struct Watched {
        backend: SocketLoopback,
        seen: Arc<Mutex<Vec<Watch>>>,
    }

    struct WatchedEndpoint {
        inner: WorkerMesh,
        /// Each shard's first node, to tell an entry's sending shard.
        starts: Vec<usize>,
        switches: usize,
        seen: Arc<Mutex<Vec<Watch>>>,
    }

    impl<M: TransportMessage> Transport<M> for WatchedEndpoint {
        fn stage(&mut self, to: usize, slot: u32, sender: u32, msg: M) {
            Transport::<M>::stage(&mut self.inner, to, slot, sender, msg);
        }

        fn stage_broadcast(&mut self, to: usize, sender: u32, msg: M, dests: &[u32]) {
            Transport::<M>::stage_broadcast(&mut self.inner, to, sender, msg, dests);
        }

        fn flush(&mut self, round: u64) -> u64 {
            Transport::<M>::flush(&mut self.inner, round)
        }

        fn drain(
            &mut self,
            round: u64,
            sink: &mut dyn FnMut(Entry<M>),
        ) -> Result<(), TransportError> {
            let (starts, mut last, mut switches) = (&self.starts, None, 0);
            let drained = Transport::<M>::drain(&mut self.inner, round, &mut |entry| {
                if let Entry::Port { sender, .. } = entry {
                    let from = starts.partition_point(|&s| s <= sender as usize);
                    switches += usize::from(last.replace(from).is_some_and(|l| l != from));
                }
                sink(entry)
            });
            self.switches = self.switches.max(switches);
            drained
        }
    }

    impl Drop for WatchedEndpoint {
        fn drop(&mut self) {
            let memory = self.inner.links.iter().map(|l| l.inbox.capacity());
            let watch = (self.switches, memory.collect());
            // A poisoned lock means a run already failed; a panic in drop
            // would abort the test process instead of reporting it.
            if let Ok(mut seen) = self.seen.lock() {
                seen.push(watch);
            }
        }
    }

    impl TransportBuilder for Watched {
        type Transport<M: TransportMessage> = WatchedEndpoint;

        fn build<M: TransportMessage>(
            &self,
            topology: &ShardedTopology,
        ) -> std::io::Result<Vec<WatchedEndpoint>> {
            let starts: Vec<usize> = (0..topology.num_shards())
                .map(|s| topology.shard_nodes(s).start)
                .collect();
            let endpoints = self.backend.build::<M>(topology)?.into_iter();
            Ok(endpoints
                .map(|inner| WatchedEndpoint {
                    inner,
                    starts: starts.clone(),
                    switches: 0,
                    seen: Arc::clone(&self.seen),
                })
                .collect())
        }
    }

    /// Runs gossip on `dense` in `shards` shard threads over `backend`,
    /// watched, within the deadline; returns the outcome and every
    /// endpoint's [`Watch`].
    fn run_watched(
        what: &str,
        dense: &Arc<Topology>,
        shards: usize,
        backend: SocketLoopback,
    ) -> (RunOutcome<u64>, Vec<Watch>) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let watched = Watched {
            backend,
            seen: Arc::clone(&seen),
        };
        let dense = Arc::clone(dense);
        let out = within_deadline(what, move || {
            let n = dense.num_nodes();
            let g = ShardedTopology::from_topology(&*dense, shards).unwrap();
            Simulator::new(&g).run_with_executor(mk(n), &ShardedExecutor::with_transport(watched))
        });
        let watches = std::mem::take(&mut *seen.lock().expect("watch lock"));
        assert_eq!(watches.len(), shards, "{what}: one watch per endpoint");
        (out, watches)
    }

    /// Frames larger than a kernel socket buffer, under TCP and Unix
    /// loopback, drain without deadlocking and match the sequential
    /// executor.  Two graphs in two shards:
    ///
    /// * a ring plus the chords `i — i + n/2 − 1` on 40 000 nodes: nearly
    ///   every chord crosses the cut, so a round's frame overfills a Unix
    ///   socketpair and the drain takes its write-stall path (and
    ///   sometimes parks);
    /// * the [`circulant`] on 2·10^5 nodes, whose round's frame runs to
    ///   megabytes and spans many read windows.
    ///
    /// Whatever a frame's length, every link's receive buffer holds
    /// exactly one read window after the run.  Loopback TCP buffers grow
    /// past the frame; those runs check the outputs and that bound only.
    #[test]
    fn frames_larger_than_a_socket_buffer_drain_without_deadlock() {
        let chords = |n: usize| -> Topology {
            let edges: Vec<(usize, usize)> = (0..n)
                .map(|i| (i, (i + 1) % n))
                .chain((0..n / 2).map(|i| (i, i + n / 2 - 1)))
                .collect();
            Topology::from_edges(n, &edges).unwrap()
        };
        for (dense, windows) in [(chords(40_000), 1), (circulant(200_000), 16)] {
            let n = dense.num_nodes();
            let seq = Simulator::new(&dense).run(mk(n));
            let dense = Arc::new(dense);
            let mut backends = vec![("tcp loopback", SocketLoopback::tcp())];
            #[cfg(unix)]
            backends.push(("unix loopback", SocketLoopback::unix()));
            for (what, backend) in backends {
                let (out, watches) = run_watched(what, &dense, 2, backend);
                assert_logically_equal(&seq, &out, what);
                let frame = out.metrics.wire_bytes_sent / (2 * out.metrics.rounds);
                assert!(
                    frame > windows * crate::wire::READ_WINDOW as u64,
                    "{what}, n = {n}: the average frame must span {windows} read windows"
                );
                for (_, memory) in &watches {
                    assert_eq!(memory, &[crate::wire::READ_WINDOW], "{what}, n = {n}");
                }
            }
        }
    }

    /// In three shards over Unix socketpairs, each shard's frames for both
    /// peers outgrow the socket buffers, so its drain reads the two
    /// peers' frames a window at a time and their entries interleave.  The
    /// run still matches the sequential executor.
    #[cfg(unix)]
    #[test]
    fn entries_of_two_peers_interleave_and_match_the_sequential_executor() {
        let dense = circulant(40_000);
        let seq = Simulator::new(&dense).run(mk(dense.num_nodes()));
        let what = "three unix shards";
        let (out, watches) = run_watched(what, &Arc::new(dense), 3, SocketLoopback::unix());
        assert_logically_equal(&seq, &out, what);
        assert!(
            watches.iter().any(|&(switches, _)| switches > 1),
            "no drain interleaved its peers' entries: {watches:?}"
        );
    }

    /// Serves shard 1 of the [`circulant`] on 40 000 nodes in two shards,
    /// whose round-0 frame for shard 0 outgrows a Unix socketpair, against
    /// a stand-in coordinator that starts round 0, with `forged` arriving
    /// from shard 0 as its data frame.  The test drains shard 0's end of
    /// the mesh meanwhile: it returns once shard 1 has written its whole
    /// frame.  Returns the entries shard 0 received, the entries shard 1
    /// owed it, and how the worker ended.
    #[cfg(unix)]
    fn serve_forged_while_owing(
        forged: Vec<u8>,
    ) -> (usize, usize, std::thread::Result<std::io::Result<()>>) {
        within_deadline("a worker owing a large frame", move || {
            let dense = circulant(40_000);
            let g = ShardedTopology::from_topology(&dense, 2).unwrap();
            let cut = g.shard_nodes(1).start;
            let owed = dense
                .edges()
                .filter(|&(u, v)| (u < cut) != (v < cut))
                .count();
            let mut ends = SocketLoopback::unix().build::<u64>(&g).unwrap();
            let shard1 = ends.pop().expect("shard 1's endpoint");
            let mut shard0 = ends.pop().expect("shard 0's endpoint");
            let (mut coordinator, mut link) = std::os::unix::net::UnixStream::pair().unwrap();
            std::thread::scope(|scope| {
                let worker = scope.spawn(|| {
                    let nodes: Vec<Gossip> = g.shard_nodes(1).map(|_| Gossip::new(3)).collect();
                    let opts = ServeOptions::default();
                    serve_shard_with(&mut link, &g, 1, nodes, shard1, &opts)
                });
                read_frame(&mut coordinator).expect("initial vote");
                let start = FrameHeader {
                    kind: FrameKind::RoundStart,
                    round: 0,
                    from: COORDINATOR,
                    to: 1,
                };
                write_frame(&mut coordinator, start, &[0]).expect("round start");
                forge(&mut shard0, &forged);
                let mut got = 0;
                Transport::<u64>::drain(&mut shard0, 0, &mut |_| got += 1)
                    .expect("shard 1 writes its whole frame before it fails");
                coordinator
                    .shutdown(std::net::Shutdown::Both)
                    .expect("close the coordinator link");
                (got, owed, worker.join())
            })
        })
    }

    /// A shard that meets a malformed frame, or a double send under
    /// [`DeliveryMode::Strict`], while it still owes its peer a frame
    /// larger than the socket buffers, fails only after its writes are
    /// done: its peer receives the whole frame, and both sides finish.
    #[cfg(unix)]
    #[test]
    fn a_failure_met_while_owing_a_frame_waits_for_the_writes() {
        let slot = ShardedTopology::from_topology(&circulant(40_000), 2)
            .unwrap()
            .shard_slots(1)
            .start as u32;
        // A frame whose count claims one entry more than its body holds.
        let mut short = one_entry_frame(slot);
        short[FRAME_PREFIX_BYTES] = 2;
        let (got, owed, worker) = serve_forged_while_owing(short);
        assert_eq!(got, owed);
        let err = worker
            .expect("the worker returns")
            .expect_err("a malformed frame");
        assert!(err.to_string().contains("truncated input"), "{err}");

        let mut twice = DataFrameBuilder::new();
        twice.push(slot, 0, &7u64);
        twice.push(slot, 0, &8u64);
        let (got, owed, worker) = serve_forged_while_owing(twice.seal(0, 0, 1).to_vec());
        assert_eq!(got, owed);
        let payload = worker.expect_err("a double send panics");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            message.contains("node 0 sent two messages over the same port"),
            "{message}"
        );
    }
}
