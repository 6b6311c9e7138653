//! A synchronous message-passing simulator for the LOCAL and CONGEST models.
//!
//! The algorithms of *Distributed Graph Coloring Made Easy* are stated in the
//! classical synchronous models of distributed computing [Lin92, Pel00]:
//!
//! * the network is an undirected graph `G = (V, E)` with maximum degree `Δ`;
//! * computation proceeds in synchronous rounds; per round every node may
//!   send one message over each incident edge, receive the messages of its
//!   neighbours, and perform arbitrary local computation;
//! * in the **LOCAL** model messages are unbounded, in the **CONGEST** model
//!   they carry at most `O(log n)` bits;
//! * nodes initially know only their own identifier / input color, the
//!   global parameters (`n`, `Δ`, `m`, …), and the *ports* to their
//!   neighbours — not the neighbours' identifiers.
//!
//! This crate is that model, made executable:
//!
//! * [`topology::Topology`] — the immutable communication graph with port
//!   numbering,
//! * [`algorithm::NodeAlgorithm`] — the per-node state machine interface
//!   (init / send / receive / output),
//! * [`simulator::Simulator`] — the synchronous round engine, generic over
//!   the topology representation via [`topology::TopologyView`],
//! * [`sharded::ShardedTopology`] — the same CSR, cut into contiguous
//!   node-range shards, with streaming construction for `n ≥ 10^7`
//!   workloads,
//! * [`executor::Executor`] — the round-loop strategy seam: one round
//!   kernel over one topology trait ([`sharded::ShardTopologyView`], which a
//!   `Topology` implements as one shard), run by a single-threaded driver
//!   ([`executor::SequentialExecutor`]), one thread per shard
//!   ([`executor::ShardedExecutor`]) or one process per shard
//!   ([`transport::serve_shard_with`]), whose kernels allocate inbox
//!   slots ([`algorithm::PortSlots`], one presence bit each) only when a
//!   round fills one, all producing identical results,
//! * [`metrics::RunMetrics`] and [`bandwidth`] — round, message and bit
//!   accounting so experiments can check the CONGEST `O(log n)`-bit bound,
//!   plus a JSON-lines writer ([`metrics::JsonLinesWriter`]) for
//!   machine-readable experiment rows,
//! * [`wire`] — the binary wire codec: bit-exact message payloads
//!   ([`wire::WireMessage`]) in length-prefixed, round-sequenced frames,
//! * [`transport`] — the cross-shard transport seam behind the
//!   [`executor::ShardedExecutor`]: in-process staging queues
//!   ([`transport::InProcess`]), a wire-encoded socket mesh
//!   ([`transport::SocketLoopback`]), and the multi-process
//!   coordinator/worker protocol ([`transport::coordinate`] /
//!   [`transport::serve_shard_with`]) over a worker mesh
//!   ([`transport::WorkerMesh`]),
//! * [`faults`] — deterministic fault injection at the transport seam
//!   ([`faults::FaultyTransport`]): seed-driven drop, duplication, delay
//!   and partition windows with a replayable event log, plus the
//!   async-delivery execution mode ([`executor::DeliveryMode`]) faulted
//!   runs require,
//! * [`mc`] — a bounded model checker that exhaustively explores message
//!   fault placements on tiny instances and reports minimal counterexample
//!   traces against the coloring invariants,
//! * [`trace`] — the out-of-band observability seam ([`trace::TraceSink`]):
//!   per-round / per-phase / per-shard trace events emitted by every
//!   executor and the fault injector, with a Chrome-trace sink
//!   ([`trace::ChromeTraceSink`], loadable in Perfetto) and a per-round
//!   time-series sink ([`trace::RoundSeries`]); attaching a sink never
//!   changes outputs or metrics,
//! * [`json`] — a minimal JSON parser ([`json::JsonValue`]) so the
//!   hand-rolled JSONL rows and trace files can be read back and validated
//!   without real `serde`.
//!
//! The simulator is deterministic: given the same topology and the same
//! (deterministic) node algorithms it always produces the same outputs,
//! regardless of which executor is used.  Fault-injected runs stay
//! deterministic: every fault decision is a pure function of the
//! `(seed, fault-plan)` pair.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod bandwidth;
mod csr;
pub mod executor;
pub mod faults;
pub mod json;
pub mod mc;
pub mod metrics;
pub mod sharded;
pub mod simulator;
pub mod topology;
pub mod trace;
pub mod transport;
pub mod wire;

pub use algorithm::{Inbox, MessageSize, NodeAlgorithm, NodeContext, Outbox, PortSlots};
pub use bandwidth::BandwidthReport;
pub use executor::{DeliveryMode, Executor, SequentialExecutor, ShardedExecutor};
pub use faults::{
    run_faulty, FaultEvent, FaultKind, FaultPlan, FaultyRun, FaultyTransport, InvariantViolation,
};
pub use json::{JsonError, JsonValue};
pub use mc::{CheckableAlgorithm, Counterexample, McConfig, McFault, McVerdict, Violation};
pub use metrics::{
    process_peak_rss_bytes, Counter, Gate, JsonLinesWriter, Merge, PhaseTimings, RunMetrics,
};
pub use sharded::{ShardPlan, ShardSliceTopology, ShardTopologyView, ShardedTopology};
pub use simulator::{ExecutionMode, RunOutcome, Simulator, SimulatorConfig};
pub use topology::{BallScratch, NodeId, Port, Topology, TopologyError, TopologyView};
pub use trace::{
    decode_stamped, encode_stamped, ChromeTraceSink, Fanout, NoTrace, RecordingSink, RoundRow,
    RoundSeries, RowField, SeriesSummary, StampedRecorder, TraceEvent, TracePhase, TraceSink,
};
pub use transport::{
    coordinate, coordinate_traced, decode_output_payload, encode_output_payload, serve_shard_with,
    CoordinateSpec, Entry, InProcess, ServeOptions, SocketLoopback, Transport, TransportBuilder,
    TransportError, TransportMessage, WorkerMesh, WorkerStats,
};
pub use wire::{BitReader, BitWriter, WireError, WireMessage};
