//! Per-round tracing: the out-of-band observability seam of the engine.
//!
//! Every equivalence guarantee in this crate is stated over *outputs and
//! logical counters*; a run's internal shape — how fast the active set
//! drains, which shard's receive phase is the straggler, when the transport
//! flushed — was invisible until now.  This module adds a [`TraceSink`]
//! seam that the executors, the transport layer and the fault injector
//! report into, **strictly out-of-band**: sinks observe the run, they can
//! never influence it, so attaching one leaves every output and metric
//! bit-for-bit unchanged (asserted in `tests/executor_equivalence.rs`).
//!
//! # Cost model
//!
//! The default sink is [`NoTrace`]: [`TraceSink::enabled`] returns `false`
//! and every executor hoists that check out of its round loop, so a
//! disabled run performs **no event construction, no allocation and no
//! synchronization** on behalf of tracing — the per-*message* hot path is
//! never instrumented at all (events are per round × shard, a vanishing
//! fraction of the work).  Enabled sinks pay one mutex lock per event.
//!
//! # Event taxonomy
//!
//! [`TraceEvent`] covers five families, all `Copy` and stack-only:
//!
//! * **run lifecycle** — `RunStart` / `RunEnd`;
//! * **round lifecycle** — `RoundStart` / `RoundEnd` (with the round's
//!   wall-clock nanos and active-set size);
//! * **phases** — `PhaseStart` / `PhaseEnd` per engine phase per shard,
//!   plus the per-shard transport points `ShardFlush` / `ShardDrain` and
//!   the per-shard per-round traffic summary `ShardRound`;
//! * **faults** — one `Fault` per injected event of a
//!   [`FaultyTransport`](crate::faults::FaultyTransport), mirroring its
//!   replayable log;
//! * **workers** — `WorkerStart` / `WorkerEnd` lifecycle of the sharded
//!   executor's per-shard workers.
//!
//! # Shipped sinks
//!
//! * [`RoundSeries`] — accumulates one [`RoundRow`] per round (wall-clock,
//!   active set, message/bit/cross-shard traffic, wire bytes) and
//!   serializes them as JSONL rows beside the existing
//!   [`RunMetrics`](crate::RunMetrics) rows, plus p50/p95/max round-time
//!   summaries.
//! * [`ChromeTraceSink`] — records Chrome trace-event JSON (one process
//!   track per shard, phase slices, counter tracks) loadable directly in
//!   Perfetto or `chrome://tracing`; see the `exp_trace` binary.
//! * [`RecordingSink`] — keeps the raw events for tests.
//! * [`Fanout`] — feeds several sinks at once.

use std::sync::Mutex;
use std::time::Instant;

use crate::faults::FaultKind;
use crate::json::JsonValue;
use crate::metrics::{json_escape_into, Gate, JsonLinesWriter};

/// An engine phase, as seen by phase-level trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// Clearing last round's slots, asking active nodes for their outboxes
    /// and routing each message into the shard's own slots or onto the
    /// cross-shard transport.
    Send,
    /// Draining messages other shards routed here into the shard's slots.
    Deliver,
    /// Handing inboxes to active nodes and compacting the active set.
    Receive,
}

impl TracePhase {
    /// Stable lower-case name, used as the slice name in trace files.
    pub fn name(self) -> &'static str {
        match self {
            TracePhase::Send => "send",
            TracePhase::Deliver => "deliver",
            TracePhase::Receive => "receive",
        }
    }
}

/// One out-of-band observation of a run.  Stack-only (`Copy`), so emitting
/// an event never allocates.
///
/// `shard` is the reporting shard for sharded runs; the single-threaded
/// driver reports as shard 0.  All durations are nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A run began: node count and shard count (1 for unsharded executors).
    RunStart {
        /// Number of nodes in the topology.
        nodes: usize,
        /// Number of shards (1 for the single-threaded driver).
        shards: usize,
    },
    /// A run finished after `rounds` synchronous rounds.
    RunEnd {
        /// Rounds executed.
        rounds: u64,
    },
    /// A round was admitted with `active` nodes still running.
    RoundStart {
        /// The round number (0-based).
        round: u64,
        /// Active nodes at the start of the round.
        active: usize,
    },
    /// A round completed; `active` is the post-compaction count.
    RoundEnd {
        /// The round number (0-based).
        round: u64,
        /// Active nodes remaining after the round.
        active: usize,
        /// Wall-clock nanoseconds the round took.
        nanos: u64,
    },
    /// A phase began on a shard.
    PhaseStart {
        /// The round number.
        round: u64,
        /// The reporting shard.
        shard: usize,
        /// Which phase.
        phase: TracePhase,
    },
    /// A phase completed on a shard, taking `nanos` wall-clock nanoseconds.
    PhaseEnd {
        /// The round number.
        round: u64,
        /// The reporting shard.
        shard: usize,
        /// Which phase.
        phase: TracePhase,
        /// Wall-clock nanoseconds spent in the phase.
        nanos: u64,
    },
    /// A shard flushed its staged cross-shard batches at the send barrier.
    ShardFlush {
        /// The round number.
        round: u64,
        /// The flushing shard.
        shard: usize,
        /// Wire bytes the flush produced (0 for in-memory backends).
        wire_bytes: u64,
        /// Wall-clock nanoseconds the flush took.
        nanos: u64,
    },
    /// A shard drained its incoming cross-shard channels.
    ShardDrain {
        /// The round number.
        round: u64,
        /// The draining shard.
        shard: usize,
        /// Wall-clock nanoseconds the drain took.
        nanos: u64,
        /// Async-delivery slot overwrites during this drain (a stale copy
        /// was replaced by a fresher message; always 0 in strict mode).
        stale: u64,
    },
    /// Per-shard traffic summary of one round (charged at the sender).
    ShardRound {
        /// The round number.
        round: u64,
        /// The sending shard.
        shard: usize,
        /// Messages this shard sent this round.
        messages: u64,
        /// Bits this shard sent this round.
        bits: u64,
        /// How many of those messages crossed a shard boundary.
        cross: u64,
    },
    /// A fault was injected on the `from → to` shard channel; mirrors the
    /// [`FaultLog`](crate::faults::FaultyTransport::log) entry.
    Fault {
        /// The round the fault decision was made in.
        round: u64,
        /// Sending shard of the affected message.
        from: usize,
        /// Receiving shard of the affected message.
        to: usize,
        /// What the fault did.
        kind: FaultKind,
    },
    /// A sharded worker thread started serving its shard.
    WorkerStart {
        /// The shard the worker owns.
        shard: usize,
    },
    /// A sharded worker thread finished (all rounds done or poisoned).
    WorkerEnd {
        /// The shard the worker owned.
        shard: usize,
    },
}

/// A sink for out-of-band trace events.
///
/// Implementations must be `Sync` — the sharded executor's workers emit
/// concurrently — and must treat events as *observations only*: a sink can
/// never feed information back into the run, which is what keeps traced and
/// untraced runs bit-for-bit identical.
///
/// Executors hoist [`TraceSink::enabled`] out of their loops, so a sink
/// that reports `false` (the [`NoTrace`] default) costs nothing per round.
pub trait TraceSink: Sync {
    /// Whether this sink wants events at all.  Checked once per run (and
    /// hoisted out of hot loops); `false` skips event construction
    /// entirely.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event.  May be called concurrently from worker threads;
    /// events from one shard arrive in order, events of different shards
    /// interleave nondeterministically (they are concurrent in reality).
    fn emit(&self, event: &TraceEvent);
}

/// The default sink: tracing disabled, every emission skipped.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTrace;

impl TraceSink for NoTrace {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&self, _event: &TraceEvent) {}
}

/// Feeds every event to several sinks (skipping disabled ones).
pub struct Fanout<'a> {
    sinks: &'a [&'a dyn TraceSink],
}

impl std::fmt::Debug for Fanout<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fanout")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl<'a> Fanout<'a> {
    /// A fanout over `sinks`; disabled members are skipped per event.
    pub fn new(sinks: &'a [&'a dyn TraceSink]) -> Self {
        Self { sinks }
    }
}

impl TraceSink for Fanout<'_> {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn emit(&self, event: &TraceEvent) {
        for sink in self.sinks {
            if sink.enabled() {
                sink.emit(event);
            }
        }
    }
}

/// A sink that simply keeps every event — the test instrument.
#[derive(Debug, Default)]
pub struct RecordingSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl RecordingSink {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the recorded events, leaving the recorder empty.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for RecordingSink {
    fn emit(&self, event: &TraceEvent) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(*event);
    }
}

/// A sink that stamps every event with nanoseconds since its own monotonic
/// epoch — the capture half of remote trace shipping.
///
/// The epoch is taken at construction, so a recorder created when a worker
/// starts serving gives the per-worker timeline of the documented
/// clock-alignment rule: timestamps are meaningful *within* the recorder's
/// own track, and the merge ([`ChromeTraceSink::ingest_stamped`]) places
/// every origin at merged time 0.
#[derive(Debug)]
pub struct StampedRecorder {
    epoch: Instant,
    events: Mutex<Vec<(u64, TraceEvent)>>,
}

impl Default for StampedRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl StampedRecorder {
    /// An empty recorder; its epoch (timestamp 0) is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Takes the stamped events, leaving the recorder empty (the epoch is
    /// kept).
    pub fn take(&self) -> Vec<(u64, TraceEvent)> {
        std::mem::take(&mut self.events.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for StampedRecorder {
    fn emit(&self, event: &TraceEvent) {
        let at_nanos = self.epoch.elapsed().as_nanos() as u64;
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((at_nanos, *event));
    }
}

// ---------------------------------------------------------------------------
// Stamped-event wire codec: the payload of a `Trace` control frame
// ---------------------------------------------------------------------------

const EV_RUN_START: u8 = 0;
const EV_RUN_END: u8 = 1;
const EV_ROUND_START: u8 = 2;
const EV_ROUND_END: u8 = 3;
const EV_PHASE_START: u8 = 4;
const EV_PHASE_END: u8 = 5;
const EV_SHARD_FLUSH: u8 = 6;
const EV_SHARD_DRAIN: u8 = 7;
const EV_SHARD_ROUND: u8 = 8;
const EV_FAULT: u8 = 9;
const EV_WORKER_START: u8 = 10;
const EV_WORKER_END: u8 = 11;

fn phase_tag(phase: TracePhase) -> u8 {
    match phase {
        TracePhase::Send => 0,
        TracePhase::Deliver => 1,
        TracePhase::Receive => 2,
    }
}

fn phase_from_tag(tag: u8) -> Result<TracePhase, String> {
    match tag {
        0 => Ok(TracePhase::Send),
        1 => Ok(TracePhase::Deliver),
        2 => Ok(TracePhase::Receive),
        other => Err(format!("unknown trace phase tag {other}")),
    }
}

fn fault_tag(kind: FaultKind) -> (u8, u64) {
    match kind {
        FaultKind::Dropped => (0, 0),
        FaultKind::Duplicated => (1, 0),
        FaultKind::Delayed { rounds } => (2, rounds),
        FaultKind::Retransmitted => (3, 0),
        FaultKind::PartitionDropped => (4, 0),
        FaultKind::PartitionDeferred { until_round } => (5, until_round),
    }
}

fn fault_from_tag(tag: u8, arg: u64) -> Result<FaultKind, String> {
    match tag {
        0 => Ok(FaultKind::Dropped),
        1 => Ok(FaultKind::Duplicated),
        2 => Ok(FaultKind::Delayed { rounds: arg }),
        3 => Ok(FaultKind::Retransmitted),
        4 => Ok(FaultKind::PartitionDropped),
        5 => Ok(FaultKind::PartitionDeferred { until_round: arg }),
        other => Err(format!("unknown fault kind tag {other}")),
    }
}

/// Serializes a stamped event stream as the payload of a
/// [`Trace`](crate::wire::FrameKind::Trace) control frame: `[count: u32
/// LE]`, then per event `[at_nanos: u64 LE][tag: u8]` followed by the
/// variant's fields (u64 LE numbers; phases and fault kinds as one tag
/// byte, fault kinds with one u64 argument).
///
/// Timestamps are nanoseconds since the *capturing* process's own
/// monotonic origin (its [`StampedRecorder`] epoch); see
/// [`ChromeTraceSink::ingest_stamped`] for the alignment rule applied on
/// merge.
pub fn encode_stamped(events: &[(u64, TraceEvent)]) -> Vec<u8> {
    use crate::wire::{put_u32, put_u64};
    let mut out = Vec::with_capacity(4 + events.len() * 40);
    put_u32(&mut out, u32::try_from(events.len()).expect("event count"));
    for &(at_nanos, event) in events {
        put_u64(&mut out, at_nanos);
        match event {
            TraceEvent::RunStart { nodes, shards } => {
                out.push(EV_RUN_START);
                put_u64(&mut out, nodes as u64);
                put_u64(&mut out, shards as u64);
            }
            TraceEvent::RunEnd { rounds } => {
                out.push(EV_RUN_END);
                put_u64(&mut out, rounds);
            }
            TraceEvent::RoundStart { round, active } => {
                out.push(EV_ROUND_START);
                put_u64(&mut out, round);
                put_u64(&mut out, active as u64);
            }
            TraceEvent::RoundEnd {
                round,
                active,
                nanos,
            } => {
                out.push(EV_ROUND_END);
                put_u64(&mut out, round);
                put_u64(&mut out, active as u64);
                put_u64(&mut out, nanos);
            }
            TraceEvent::PhaseStart {
                round,
                shard,
                phase,
            } => {
                out.push(EV_PHASE_START);
                put_u64(&mut out, round);
                put_u64(&mut out, shard as u64);
                out.push(phase_tag(phase));
            }
            TraceEvent::PhaseEnd {
                round,
                shard,
                phase,
                nanos,
            } => {
                out.push(EV_PHASE_END);
                put_u64(&mut out, round);
                put_u64(&mut out, shard as u64);
                out.push(phase_tag(phase));
                put_u64(&mut out, nanos);
            }
            TraceEvent::ShardFlush {
                round,
                shard,
                wire_bytes,
                nanos,
            } => {
                out.push(EV_SHARD_FLUSH);
                put_u64(&mut out, round);
                put_u64(&mut out, shard as u64);
                put_u64(&mut out, wire_bytes);
                put_u64(&mut out, nanos);
            }
            TraceEvent::ShardDrain {
                round,
                shard,
                nanos,
                stale,
            } => {
                out.push(EV_SHARD_DRAIN);
                put_u64(&mut out, round);
                put_u64(&mut out, shard as u64);
                put_u64(&mut out, nanos);
                put_u64(&mut out, stale);
            }
            TraceEvent::ShardRound {
                round,
                shard,
                messages,
                bits,
                cross,
            } => {
                out.push(EV_SHARD_ROUND);
                put_u64(&mut out, round);
                put_u64(&mut out, shard as u64);
                put_u64(&mut out, messages);
                put_u64(&mut out, bits);
                put_u64(&mut out, cross);
            }
            TraceEvent::Fault {
                round,
                from,
                to,
                kind,
            } => {
                let (tag, arg) = fault_tag(kind);
                out.push(EV_FAULT);
                put_u64(&mut out, round);
                put_u64(&mut out, from as u64);
                put_u64(&mut out, to as u64);
                out.push(tag);
                put_u64(&mut out, arg);
            }
            TraceEvent::WorkerStart { shard } => {
                out.push(EV_WORKER_START);
                put_u64(&mut out, shard as u64);
            }
            TraceEvent::WorkerEnd { shard } => {
                out.push(EV_WORKER_END);
                put_u64(&mut out, shard as u64);
            }
        }
    }
    out
}

/// Parses a payload produced by [`encode_stamped`] back into the stamped
/// event stream.  Every malformed input — truncation, an unknown event,
/// phase or fault tag, trailing bytes — is reported as an error, never a
/// panic (the payload crosses a process boundary).
pub fn decode_stamped(payload: &[u8]) -> Result<Vec<(u64, TraceEvent)>, String> {
    struct Cursor<'a> {
        buf: &'a [u8],
        at: usize,
    }
    impl Cursor<'_> {
        fn u8(&mut self) -> Result<u8, String> {
            let b = *self
                .buf
                .get(self.at)
                .ok_or_else(|| "truncated trace payload".to_string())?;
            self.at += 1;
            Ok(b)
        }
        fn u64(&mut self) -> Result<u64, String> {
            let bytes = self
                .buf
                .get(self.at..self.at + 8)
                .ok_or_else(|| "truncated trace payload".to_string())?;
            self.at += 8;
            Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
        }
        fn shard(&mut self) -> Result<usize, String> {
            usize::try_from(self.u64()?).map_err(|_| "oversized shard index".to_string())
        }
    }
    let mut c = Cursor {
        buf: payload,
        at: 0,
    };
    let count = {
        let bytes = c
            .buf
            .get(0..4)
            .ok_or_else(|| "truncated trace payload".to_string())?;
        c.at = 4;
        u32::from_le_bytes(bytes.try_into().expect("4 bytes")) as usize
    };
    // Cheap bound: every event costs at least 9 bytes (stamp + tag).
    if count > payload.len() / 9 + 1 {
        return Err(format!("trace event count {count} exceeds the payload"));
    }
    let mut events = Vec::with_capacity(count);
    for _ in 0..count {
        let at_nanos = c.u64()?;
        let tag = c.u8()?;
        let event = match tag {
            EV_RUN_START => TraceEvent::RunStart {
                nodes: c.shard()?,
                shards: c.shard()?,
            },
            EV_RUN_END => TraceEvent::RunEnd { rounds: c.u64()? },
            EV_ROUND_START => TraceEvent::RoundStart {
                round: c.u64()?,
                active: c.shard()?,
            },
            EV_ROUND_END => TraceEvent::RoundEnd {
                round: c.u64()?,
                active: c.shard()?,
                nanos: c.u64()?,
            },
            EV_PHASE_START => TraceEvent::PhaseStart {
                round: c.u64()?,
                shard: c.shard()?,
                phase: phase_from_tag(c.u8()?)?,
            },
            EV_PHASE_END => TraceEvent::PhaseEnd {
                round: c.u64()?,
                shard: c.shard()?,
                phase: phase_from_tag(c.u8()?)?,
                nanos: c.u64()?,
            },
            EV_SHARD_FLUSH => TraceEvent::ShardFlush {
                round: c.u64()?,
                shard: c.shard()?,
                wire_bytes: c.u64()?,
                nanos: c.u64()?,
            },
            EV_SHARD_DRAIN => TraceEvent::ShardDrain {
                round: c.u64()?,
                shard: c.shard()?,
                nanos: c.u64()?,
                stale: c.u64()?,
            },
            EV_SHARD_ROUND => TraceEvent::ShardRound {
                round: c.u64()?,
                shard: c.shard()?,
                messages: c.u64()?,
                bits: c.u64()?,
                cross: c.u64()?,
            },
            EV_FAULT => TraceEvent::Fault {
                round: c.u64()?,
                from: c.shard()?,
                to: c.shard()?,
                kind: {
                    let tag = c.u8()?;
                    let arg = c.u64()?;
                    fault_from_tag(tag, arg)?
                },
            },
            EV_WORKER_START => TraceEvent::WorkerStart { shard: c.shard()? },
            EV_WORKER_END => TraceEvent::WorkerEnd { shard: c.shard()? },
            other => return Err(format!("unknown trace event tag {other}")),
        };
        events.push((at_nanos, event));
    }
    if c.at != payload.len() {
        return Err("trailing bytes after the trace events".to_string());
    }
    Ok(events)
}

/// One row of the per-round time series accumulated by [`RoundSeries`].
///
/// Traffic counters are summed over all shards that reported the round;
/// `wall_nanos` is the engine's round wall-clock (coordinator-measured for
/// threaded executors).  Every field but `round`, the row's key, is
/// declared once in [`RoundRow::FIELDS`], which drives the JSON rows and
/// the regression gate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundRow {
    /// The round number (0-based).
    pub round: u64,
    /// Active nodes at the start of the round.
    pub active: u64,
    /// Wall-clock nanoseconds the round took.
    pub wall_nanos: u64,
    /// Messages sent in the round (all shards).
    pub messages: u64,
    /// Bits sent in the round (all shards).
    pub bits: u64,
    /// Messages that crossed a shard boundary.
    pub cross_messages: u64,
    /// Wire bytes flushed by the transport (0 for in-memory backends).
    pub wire_bytes: u64,
    /// Messages dropped by the fault layer this round (including partition
    /// drops), mirroring [`RunMetrics::faults_dropped`](crate::RunMetrics).
    pub dropped: u64,
    /// Messages duplicated by the fault layer this round.
    pub duplicated: u64,
    /// Messages delayed past a round boundary this round (including
    /// partition deferrals).
    pub delayed: u64,
    /// Fault decisions masked by the retransmission overlay this round.
    pub retransmitted: u64,
    /// Async-delivery stale slot overwrites observed this round.
    pub stale_overwrites: u64,
}

/// One field of [`RoundRow`], as [`RoundRow::FIELDS`] declares it.
#[derive(Clone, Copy)]
pub struct RowField {
    /// The field's name, which is also its JSON key.
    pub key: &'static str,
    /// How the regression gate compares it round by round.
    pub gate: Gate,
    /// Reads the field.
    pub get: fn(&RoundRow) -> u64,
    /// The field.
    pub get_mut: fn(&mut RoundRow) -> &mut u64,
}

/// Declares [`RoundRow::FIELDS`], one `field: Gate;` line per field, and
/// checks that every field of [`RoundRow`] but `round` is declared.
macro_rules! row_fields {
    ($($key:ident: $gate:ident;)*) => {
        impl RoundRow {
            /// Every field but `round`, in the order JSON rows list them.
            pub const FIELDS: &'static [RowField] = &[$(RowField {
                key: stringify!($key),
                gate: Gate::$gate,
                get: |r| r.$key,
                get_mut: |r| &mut r.$key,
            }),*];
        }

        // Fails to compile ("pattern requires `..`") when a field is
        // neither in the table nor the row's key.
        const _: fn(RoundRow) = |r| {
            let RoundRow { round: _, $($key: _,)* } = r;
        };
    };
}

row_fields! {
    active: Exact;
    wall_nanos: Noisy;
    messages: Exact;
    bits: Exact;
    cross_messages: Exact;
    wire_bytes: Exact;
    dropped: Exact;
    duplicated: Exact;
    delayed: Exact;
    retransmitted: Exact;
    stale_overwrites: Exact;
}

impl RoundRow {
    /// Renders the row as one JSON object, tagged `"kind":"round_series"`
    /// so consumers can tell it apart from `RunMetrics` rows in a shared
    /// JSONL stream: the label, `round`, then every field of
    /// [`RoundRow::FIELDS`].  Fields are only ever added, matching the JSONL
    /// schema contract in `dcme_bench`.
    pub fn to_json(&self, label: &str) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"kind\":\"round_series\",\"label\":\"");
        json_escape_into(&mut out, label);
        out.push_str(&format!("\",\"round\":{}", self.round));
        for f in Self::FIELDS {
            out.push_str(&format!(",\"{}\":{}", f.key, (f.get)(self)));
        }
        out.push('}');
        out
    }

    /// Parses a row emitted by [`RoundRow::to_json`] back into the label
    /// and the row.  Unknown keys are ignored and missing fields default
    /// to 0 or an empty label (the add-only schema contract); a wrong or
    /// missing `kind` tag is an error, and so is a present field of the
    /// wrong type, which the error names.
    pub fn from_json(line: &str) -> Result<(String, RoundRow), String> {
        let v = JsonValue::parse(line).map_err(|e| e.to_string())?;
        if v.get("kind").and_then(JsonValue::as_str) != Some("round_series") {
            return Err("not a round_series row (missing kind tag)".to_string());
        }
        let label = v.member("label", "a string", |l| l.as_str().map(str::to_string))?;
        let u = |key| v.member(key, "a u64", JsonValue::as_u64);
        let mut row = RoundRow {
            round: u("round")?,
            ..RoundRow::default()
        };
        for f in Self::FIELDS {
            *(f.get_mut)(&mut row) = u(f.key)?;
        }
        Ok((label, row))
    }
}

/// Round-time distribution summary of a [`RoundSeries`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeriesSummary {
    /// Number of rounds observed.
    pub rounds: u64,
    /// Median round wall-clock, nanoseconds.
    pub p50_nanos: u64,
    /// 95th-percentile round wall-clock, nanoseconds.
    pub p95_nanos: u64,
    /// Slowest round wall-clock, nanoseconds.
    pub max_nanos: u64,
}

impl SeriesSummary {
    /// Summarises the round times `nanos`.  Percentiles use the
    /// nearest-rank method (`⌈p·n⌉`-th smallest), so the degenerate inputs
    /// are well defined: an empty list is all zeros with `rounds == 0`, a
    /// single round reports that round's time for every statistic, and two
    /// rounds report the *lower* value as p50 (the median never exceeds
    /// the 95th percentile).
    pub fn of(mut nanos: Vec<u64>) -> SeriesSummary {
        if nanos.is_empty() {
            return SeriesSummary::default();
        }
        nanos.sort_unstable();
        // Nearest rank: the ⌈p·n⌉-th smallest sample (1-based), clamped
        // into range — monotone in p, exact at p = 1.0.
        let pick = |p: f64| {
            let rank = (p * nanos.len() as f64).ceil() as usize;
            nanos[rank.clamp(1, nanos.len()) - 1]
        };
        SeriesSummary {
            rounds: nanos.len() as u64,
            p50_nanos: pick(0.50),
            p95_nanos: pick(0.95),
            max_nanos: *nanos.last().expect("nonempty"),
        }
    }
}

/// A sink accumulating the per-round time series: one [`RoundRow`] per
/// round, merged across shards, serializable as JSONL beside
/// [`RunMetrics`](crate::RunMetrics) rows.
#[derive(Debug)]
pub struct RoundSeries {
    rows: Mutex<Vec<RoundRow>>,
}

impl Default for RoundSeries {
    fn default() -> Self {
        Self::new()
    }
}

impl RoundSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self {
            rows: Mutex::new(Vec::new()),
        }
    }

    /// A copy of the accumulated rows, in round order.
    pub fn rows(&self) -> Vec<RoundRow> {
        self.rows.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// p50/p95/max of the round wall-clock times observed so far, by
    /// [`SeriesSummary::of`]'s rule.
    pub fn summary(&self) -> SeriesSummary {
        let rows = self.rows.lock().unwrap_or_else(|e| e.into_inner());
        SeriesSummary::of(rows.iter().map(|r| r.wall_nanos).collect())
    }

    /// Appends every row to a JSONL sink, tagged with `label`.
    pub fn write_jsonl<W: std::io::Write>(
        &self,
        label: &str,
        out: &mut JsonLinesWriter<W>,
    ) -> std::io::Result<()> {
        for row in self.rows() {
            out.append_raw(&row.to_json(label))?;
        }
        Ok(())
    }

    fn with_row(&self, round: u64, f: impl FnOnce(&mut RoundRow)) {
        let mut rows = self.rows.lock().unwrap_or_else(|e| e.into_inner());
        let idx = round as usize;
        while rows.len() <= idx {
            let round = rows.len() as u64;
            rows.push(RoundRow {
                round,
                ..RoundRow::default()
            });
        }
        f(&mut rows[idx]);
    }
}

impl TraceSink for RoundSeries {
    fn emit(&self, event: &TraceEvent) {
        match *event {
            TraceEvent::RoundStart { round, active } => {
                self.with_row(round, |r| r.active = active as u64);
            }
            TraceEvent::RoundEnd { round, nanos, .. } => {
                self.with_row(round, |r| r.wall_nanos = nanos);
            }
            TraceEvent::ShardRound {
                round,
                messages,
                bits,
                cross,
                ..
            } => {
                self.with_row(round, |r| {
                    r.messages += messages;
                    r.bits += bits;
                    r.cross_messages += cross;
                });
            }
            TraceEvent::ShardFlush {
                round, wire_bytes, ..
            } => {
                self.with_row(round, |r| r.wire_bytes += wire_bytes);
            }
            TraceEvent::ShardDrain { round, stale, .. } => {
                self.with_row(round, |r| r.stale_overwrites += stale);
            }
            TraceEvent::Fault { round, kind, .. } => {
                // Same binning as `RunMetrics::faults_*` (see
                // `faults::run_faulty`): partition drops count as drops,
                // partition deferrals as delays.
                self.with_row(round, |r| match kind {
                    FaultKind::Dropped | FaultKind::PartitionDropped => r.dropped += 1,
                    FaultKind::Duplicated => r.duplicated += 1,
                    FaultKind::Delayed { .. } | FaultKind::PartitionDeferred { .. } => {
                        r.delayed += 1
                    }
                    FaultKind::Retransmitted => r.retransmitted += 1,
                });
            }
            _ => {}
        }
    }
}

/// An event stamped with its emission time (µs since the sink's epoch).
#[derive(Debug, Clone, Copy)]
struct Stamped {
    at_us: f64,
    event: TraceEvent,
}

/// A sink recording Chrome trace-event JSON — the format Perfetto and
/// `chrome://tracing` load natively.
///
/// Track layout: pid 0 is the engine (round slices + an `active_nodes`
/// counter track); pid `s + 1` is shard `s` (phase slices, flush/drain
/// slices, per-shard traffic counters, fault instants).  Durations come
/// from the engine's own phase timers; begin timestamps are reconstructed
/// as `emission time − duration`, which is exact because every duration is
/// measured immediately before its event is emitted.
///
/// Write the collected trace with [`ChromeTraceSink::write_json`]; the
/// `exp_trace` binary in `dcme_bench` is the command-line front end.
///
/// # Merged remote traces and the clock-alignment rule
///
/// A multi-process run has no shared clock.  The merge contract
/// ([`ChromeTraceSink::ingest_stamped`], used by
/// [`coordinate_traced`](crate::transport::coordinate_traced)) is:
/// **every track keeps its own monotonic origin, and every origin is
/// placed at merged time 0.**  The engine track's origin is this sink's
/// construction (the coordinator creates it just before pacing rounds);
/// each worker track's origin is that worker's [`StampedRecorder`] epoch,
/// taken at its `WorkerStart`.  Durations and within-track orderings are
/// therefore exact; cross-track offsets are bounded by connection-setup
/// skew (workers start serving within milliseconds of the coordinator's
/// round 0) and are *not* corrected — the trace shows per-track truth, not
/// a synthesized global order.
#[derive(Debug)]
pub struct ChromeTraceSink {
    epoch: Instant,
    inner: Mutex<ChromeInner>,
}

#[derive(Debug)]
struct ChromeInner {
    events: Vec<Stamped>,
    shards: usize,
}

impl Default for ChromeTraceSink {
    fn default() -> Self {
        Self::new()
    }
}

impl ChromeTraceSink {
    /// An empty trace; the epoch (trace time 0) is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            inner: Mutex::new(ChromeInner {
                events: Vec::new(),
                shards: 0,
            }),
        }
    }

    /// Number of events collected so far.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .events
            .len()
    }

    /// Whether no events have been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merges an externally captured stamped event stream — a remote
    /// worker's [`Trace`](crate::wire::FrameKind::Trace) blob, or a
    /// [`StampedRecorder`] take — into this trace.
    ///
    /// Timestamps are nanoseconds since the *source's* own monotonic
    /// origin and are used as-is: per the clock-alignment rule (see the
    /// [type docs](ChromeTraceSink)), every origin lands at merged time 0.
    /// Shard-bearing events grow the named per-shard track set, so a
    /// merged trace names one track per worker even when this sink never
    /// saw an engine `RunStart`.
    pub fn ingest_stamped(&self, events: &[(u64, TraceEvent)]) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        for &(at_nanos, event) in events {
            match event {
                TraceEvent::RunStart { shards, .. } => {
                    inner.shards = inner.shards.max(shards);
                }
                TraceEvent::WorkerStart { shard }
                | TraceEvent::WorkerEnd { shard }
                | TraceEvent::PhaseStart { shard, .. }
                | TraceEvent::PhaseEnd { shard, .. }
                | TraceEvent::ShardFlush { shard, .. }
                | TraceEvent::ShardDrain { shard, .. }
                | TraceEvent::ShardRound { shard, .. } => {
                    inner.shards = inner.shards.max(shard + 1);
                }
                _ => {}
            }
            inner.events.push(Stamped {
                at_us: at_nanos as f64 / 1000.0,
                event,
            });
        }
    }

    /// Re-emits every collected event, in collection order, into another
    /// sink — e.g. to derive a [`RoundSeries`] from an already-merged
    /// trace.  Stamps are not carried over ([`TraceSink::emit`] has no
    /// time parameter); sinks that re-stamp will see replay time.
    pub fn replay_into(&self, sink: &dyn TraceSink) {
        if !sink.enabled() {
            return;
        }
        let events: Vec<TraceEvent> = {
            let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.events.iter().map(|st| st.event).collect()
        };
        for event in &events {
            sink.emit(event);
        }
    }

    /// Serializes the collected events as a Chrome trace-event JSON object
    /// (`{"displayTimeUnit":"ms","traceEvents":[...]}`), loadable in
    /// Perfetto / `chrome://tracing`.
    pub fn write_json<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        w.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        let mut first = true;
        let sep = |w: &mut W, first: &mut bool| -> std::io::Result<()> {
            if *first {
                *first = false;
                Ok(())
            } else {
                w.write_all(b",")
            }
        };
        // Process-name metadata: one named track per pid.
        sep(w, &mut first)?;
        w.write_all(
            b"{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":0,\"tid\":0,\"args\":{\"name\":\"engine\"}}",
        )?;
        for s in 0..inner.shards.max(1) {
            sep(w, &mut first)?;
            write!(
                w,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"shard {s}\"}}}}",
                s + 1
            )?;
        }
        for st in &inner.events {
            let at = st.at_us;
            match st.event {
                TraceEvent::RunStart { nodes, shards } => {
                    sep(w, &mut first)?;
                    write!(
                        w,
                        "{{\"name\":\"run_start\",\"ph\":\"i\",\"ts\":{at:.3},\"pid\":0,\"tid\":0,\"s\":\"g\",\"args\":{{\"nodes\":{nodes},\"shards\":{shards}}}}}"
                    )?;
                }
                TraceEvent::RunEnd { rounds } => {
                    sep(w, &mut first)?;
                    write!(
                        w,
                        "{{\"name\":\"run_end\",\"ph\":\"i\",\"ts\":{at:.3},\"pid\":0,\"tid\":0,\"s\":\"g\",\"args\":{{\"rounds\":{rounds}}}}}"
                    )?;
                }
                TraceEvent::RoundStart { round, active } => {
                    sep(w, &mut first)?;
                    write!(
                        w,
                        "{{\"name\":\"active_nodes\",\"ph\":\"C\",\"ts\":{at:.3},\"pid\":0,\"tid\":0,\"args\":{{\"active\":{active}}}}}",
                    )?;
                    let _ = round;
                }
                TraceEvent::RoundEnd {
                    round,
                    active,
                    nanos,
                } => {
                    let dur = nanos as f64 / 1000.0;
                    sep(w, &mut first)?;
                    write!(
                        w,
                        "{{\"name\":\"round\",\"cat\":\"round\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{dur:.3},\"pid\":0,\"tid\":0,\"args\":{{\"round\":{round},\"active_after\":{active}}}}}",
                        at - dur
                    )?;
                }
                TraceEvent::PhaseStart { .. } => {}
                TraceEvent::PhaseEnd {
                    round,
                    shard,
                    phase,
                    nanos,
                } => {
                    let dur = nanos as f64 / 1000.0;
                    sep(w, &mut first)?;
                    write!(
                        w,
                        "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{dur:.3},\"pid\":{},\"tid\":0,\"args\":{{\"round\":{round}}}}}",
                        phase.name(),
                        at - dur,
                        shard + 1
                    )?;
                }
                TraceEvent::ShardFlush {
                    round,
                    shard,
                    wire_bytes,
                    nanos,
                } => {
                    let dur = nanos as f64 / 1000.0;
                    sep(w, &mut first)?;
                    write!(
                        w,
                        "{{\"name\":\"flush\",\"cat\":\"transport\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{dur:.3},\"pid\":{},\"tid\":0,\"args\":{{\"round\":{round},\"wire_bytes\":{wire_bytes}}}}}",
                        at - dur,
                        shard + 1
                    )?;
                }
                TraceEvent::ShardDrain {
                    round,
                    shard,
                    nanos,
                    stale,
                } => {
                    let dur = nanos as f64 / 1000.0;
                    sep(w, &mut first)?;
                    write!(
                        w,
                        "{{\"name\":\"drain\",\"cat\":\"transport\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{dur:.3},\"pid\":{},\"tid\":0,\"args\":{{\"round\":{round},\"stale\":{stale}}}}}",
                        at - dur,
                        shard + 1
                    )?;
                }
                TraceEvent::ShardRound {
                    round,
                    shard,
                    messages,
                    bits,
                    cross,
                } => {
                    sep(w, &mut first)?;
                    write!(
                        w,
                        "{{\"name\":\"traffic\",\"ph\":\"C\",\"ts\":{at:.3},\"pid\":{},\"tid\":0,\"args\":{{\"messages\":{messages},\"bits\":{bits},\"cross\":{cross}}}}}",
                        shard + 1
                    )?;
                    let _ = round;
                }
                TraceEvent::Fault {
                    round,
                    from,
                    to,
                    kind,
                } => {
                    sep(w, &mut first)?;
                    write!(
                        w,
                        "{{\"name\":\"{}\",\"cat\":\"fault\",\"ph\":\"i\",\"ts\":{at:.3},\"pid\":{},\"tid\":0,\"s\":\"p\",\"args\":{{\"round\":{round},\"to\":{to}}}}}",
                        fault_name(kind),
                        from + 1
                    )?;
                }
                TraceEvent::WorkerStart { shard } => {
                    sep(w, &mut first)?;
                    write!(
                        w,
                        "{{\"name\":\"worker_start\",\"ph\":\"i\",\"ts\":{at:.3},\"pid\":{},\"tid\":0,\"s\":\"p\"}}",
                        shard + 1
                    )?;
                }
                TraceEvent::WorkerEnd { shard } => {
                    sep(w, &mut first)?;
                    write!(
                        w,
                        "{{\"name\":\"worker_end\",\"ph\":\"i\",\"ts\":{at:.3},\"pid\":{},\"tid\":0,\"s\":\"p\"}}",
                        shard + 1
                    )?;
                }
            }
        }
        w.write_all(b"]}")
    }
}

/// The stable trace name of a fault kind.
fn fault_name(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Dropped => "fault_dropped",
        FaultKind::Duplicated => "fault_duplicated",
        FaultKind::Delayed { .. } => "fault_delayed",
        FaultKind::Retransmitted => "fault_retransmitted",
        FaultKind::PartitionDropped => "fault_partition_dropped",
        FaultKind::PartitionDeferred { .. } => "fault_partition_deferred",
    }
}

impl TraceSink for ChromeTraceSink {
    fn emit(&self, event: &TraceEvent) {
        let at_us = self.epoch.elapsed().as_nanos() as f64 / 1000.0;
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let TraceEvent::RunStart { shards, .. } = *event {
            inner.shards = inner.shards.max(shards);
        }
        inner.events.push(Stamped {
            at_us,
            event: *event,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_trace_is_disabled() {
        assert!(!NoTrace.enabled());
        NoTrace.emit(&TraceEvent::RunEnd { rounds: 1 }); // must be a no-op
    }

    #[test]
    fn recording_sink_keeps_events_in_order() {
        let rec = RecordingSink::new();
        assert!(rec.is_empty());
        rec.emit(&TraceEvent::RunStart {
            nodes: 3,
            shards: 1,
        });
        rec.emit(&TraceEvent::RunEnd { rounds: 2 });
        assert_eq!(rec.len(), 2);
        let events = rec.take();
        assert_eq!(
            events,
            vec![
                TraceEvent::RunStart {
                    nodes: 3,
                    shards: 1
                },
                TraceEvent::RunEnd { rounds: 2 },
            ]
        );
        assert!(rec.is_empty());
    }

    #[test]
    fn fanout_feeds_enabled_sinks_and_skips_disabled_ones() {
        let a = RecordingSink::new();
        let b = RecordingSink::new();
        let off = NoTrace;
        let sinks: [&dyn TraceSink; 3] = [&a, &off, &b];
        let fan = Fanout::new(&sinks);
        assert!(fan.enabled());
        fan.emit(&TraceEvent::RunEnd { rounds: 7 });
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);

        let only_off: [&dyn TraceSink; 1] = [&off];
        assert!(!Fanout::new(&only_off).enabled());
    }

    #[test]
    fn round_series_accumulates_and_summarizes() {
        let series = RoundSeries::new();
        // Round 1 reported before round 0 ever gets a start — rows grow.
        series.emit(&TraceEvent::RoundStart {
            round: 0,
            active: 5,
        });
        series.emit(&TraceEvent::ShardRound {
            round: 0,
            shard: 0,
            messages: 4,
            bits: 40,
            cross: 1,
        });
        series.emit(&TraceEvent::ShardRound {
            round: 0,
            shard: 1,
            messages: 6,
            bits: 60,
            cross: 2,
        });
        series.emit(&TraceEvent::ShardFlush {
            round: 0,
            shard: 1,
            wire_bytes: 99,
            nanos: 5,
        });
        series.emit(&TraceEvent::RoundEnd {
            round: 0,
            active: 3,
            nanos: 1000,
        });
        series.emit(&TraceEvent::RoundStart {
            round: 1,
            active: 3,
        });
        series.emit(&TraceEvent::RoundEnd {
            round: 1,
            active: 0,
            nanos: 3000,
        });
        let rows = series.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0],
            RoundRow {
                round: 0,
                active: 5,
                wall_nanos: 1000,
                messages: 10,
                bits: 100,
                cross_messages: 3,
                wire_bytes: 99,
                ..RoundRow::default()
            }
        );
        assert_eq!(rows[1].active, 3);
        let s = series.summary();
        assert_eq!(s.rounds, 2);
        assert_eq!(s.max_nanos, 3000);
        assert!(s.p50_nanos == 1000 || s.p50_nanos == 3000);
        assert_eq!(s.p95_nanos, 3000);
    }

    #[test]
    fn round_row_json_round_trips() {
        // A complete literal on purpose: a new field breaks this test
        // until the JSON round trip carries it.
        let row = RoundRow {
            round: 3,
            active: 17,
            wall_nanos: 12345,
            messages: 99,
            bits: 1980,
            cross_messages: 7,
            wire_bytes: 512,
            dropped: 2,
            duplicated: 1,
            delayed: 4,
            retransmitted: 3,
            stale_overwrites: 5,
        };
        let line = row.to_json("trace \"x\"");
        let (label, parsed) = RoundRow::from_json(&line).unwrap();
        assert_eq!(label, "trace \"x\"");
        assert_eq!(parsed, row);
        // A RunMetrics row must be rejected (wrong kind).
        assert!(RoundRow::from_json("{\"label\":\"x\",\"rounds\":1}").is_err());
    }

    #[test]
    fn round_series_jsonl_lines_parse_back() {
        let series = RoundSeries::new();
        series.emit(&TraceEvent::RoundStart {
            round: 0,
            active: 2,
        });
        series.emit(&TraceEvent::RoundEnd {
            round: 0,
            active: 0,
            nanos: 10,
        });
        let mut out = JsonLinesWriter::new(Vec::new());
        series.write_jsonl("lbl", &mut out).unwrap();
        let buf = String::from_utf8(out.into_inner()).unwrap();
        let lines: Vec<&str> = buf.lines().collect();
        assert_eq!(lines.len(), 1);
        let (label, row) = RoundRow::from_json(lines[0]).unwrap();
        assert_eq!(label, "lbl");
        assert_eq!(row.active, 2);
        assert_eq!(row.wall_nanos, 10);
    }

    #[test]
    fn summary_percentiles_are_pinned_on_tiny_series() {
        let end = |round: u64, nanos: u64| TraceEvent::RoundEnd {
            round,
            active: 0,
            nanos,
        };
        // 0 rows: all zeros, rounds == 0.
        let series = RoundSeries::new();
        assert_eq!(series.summary(), SeriesSummary::default());
        // 1 row: every statistic is that round's time.
        series.emit(&end(0, 700));
        assert_eq!(
            series.summary(),
            SeriesSummary {
                rounds: 1,
                p50_nanos: 700,
                p95_nanos: 700,
                max_nanos: 700,
            }
        );
        // 2 rows: p50 is the *lower* value (nearest rank), p95/max the
        // higher — the median never exceeds the tail.
        series.emit(&end(1, 300));
        assert_eq!(
            series.summary(),
            SeriesSummary {
                rounds: 2,
                p50_nanos: 300,
                p95_nanos: 700,
                max_nanos: 700,
            }
        );
    }

    #[test]
    fn round_series_bins_faults_and_stale_overwrites() {
        let series = RoundSeries::new();
        let fault = |round, kind| TraceEvent::Fault {
            round,
            from: 0,
            to: 1,
            kind,
        };
        series.emit(&fault(0, FaultKind::Dropped));
        series.emit(&fault(0, FaultKind::PartitionDropped));
        series.emit(&fault(0, FaultKind::Duplicated));
        series.emit(&fault(1, FaultKind::Delayed { rounds: 2 }));
        series.emit(&fault(1, FaultKind::PartitionDeferred { until_round: 9 }));
        series.emit(&fault(1, FaultKind::Retransmitted));
        series.emit(&TraceEvent::ShardDrain {
            round: 1,
            shard: 0,
            nanos: 10,
            stale: 3,
        });
        let rows = series.rows();
        assert_eq!(rows[0].dropped, 2);
        assert_eq!(rows[0].duplicated, 1);
        assert_eq!(rows[1].delayed, 2);
        assert_eq!(rows[1].retransmitted, 1);
        assert_eq!(rows[1].stale_overwrites, 3);
        // The counters survive the JSONL round trip.
        let (_, parsed) = RoundRow::from_json(&rows[1].to_json("x")).unwrap();
        assert_eq!(parsed, rows[1]);
    }

    #[test]
    fn stamped_codec_round_trips_every_event_kind() {
        let events: Vec<(u64, TraceEvent)> = vec![
            (
                0,
                TraceEvent::RunStart {
                    nodes: 10,
                    shards: 3,
                },
            ),
            (5, TraceEvent::WorkerStart { shard: 2 }),
            (
                10,
                TraceEvent::RoundStart {
                    round: 0,
                    active: 10,
                },
            ),
            (
                15,
                TraceEvent::PhaseStart {
                    round: 0,
                    shard: 1,
                    phase: TracePhase::Send,
                },
            ),
            (
                20,
                TraceEvent::PhaseEnd {
                    round: 0,
                    shard: 1,
                    phase: TracePhase::Receive,
                    nanos: 5,
                },
            ),
            (
                25,
                TraceEvent::ShardFlush {
                    round: 0,
                    shard: 1,
                    wire_bytes: 64,
                    nanos: 7,
                },
            ),
            (
                30,
                TraceEvent::ShardDrain {
                    round: 0,
                    shard: 1,
                    nanos: 3,
                    stale: 1,
                },
            ),
            (
                35,
                TraceEvent::ShardRound {
                    round: 0,
                    shard: 1,
                    messages: 9,
                    bits: 90,
                    cross: 4,
                },
            ),
            (
                40,
                TraceEvent::Fault {
                    round: 0,
                    from: 1,
                    to: 2,
                    kind: FaultKind::Delayed { rounds: 3 },
                },
            ),
            (
                41,
                TraceEvent::Fault {
                    round: 0,
                    from: 2,
                    to: 1,
                    kind: FaultKind::PartitionDeferred { until_round: 8 },
                },
            ),
            (
                45,
                TraceEvent::RoundEnd {
                    round: 0,
                    active: 4,
                    nanos: 50,
                },
            ),
            (50, TraceEvent::WorkerEnd { shard: 2 }),
            (55, TraceEvent::RunEnd { rounds: 1 }),
        ];
        let payload = encode_stamped(&events);
        assert_eq!(decode_stamped(&payload).unwrap(), events);
    }

    #[test]
    fn stamped_codec_rejects_malformed_payloads() {
        // Truncated at every prefix length: error, never a panic.
        let events = vec![(7u64, TraceEvent::WorkerStart { shard: 1 })];
        let payload = encode_stamped(&events);
        for len in 0..payload.len() {
            assert!(decode_stamped(&payload[..len]).is_err(), "prefix {len}");
        }
        // Trailing garbage.
        let mut padded = payload.clone();
        padded.push(0);
        assert!(decode_stamped(&padded).is_err());
        // Unknown event tag.
        let mut bad = payload.clone();
        bad[12] = 200;
        assert!(decode_stamped(&bad).is_err());
        // Absurd count.
        let mut huge = payload;
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_stamped(&huge).is_err());
    }

    #[test]
    fn ingest_stamped_names_worker_tracks_and_keeps_origins() {
        let sink = ChromeTraceSink::new();
        // A worker blob whose own origin is its WorkerStart: merged
        // timestamps come out exactly as stamped.
        sink.ingest_stamped(&[
            (0, TraceEvent::WorkerStart { shard: 2 }),
            (
                4_000,
                TraceEvent::PhaseEnd {
                    round: 0,
                    shard: 2,
                    phase: TracePhase::Send,
                    nanos: 1_000,
                },
            ),
            (9_000, TraceEvent::WorkerEnd { shard: 2 }),
        ]);
        let mut buf = Vec::new();
        sink.write_json(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let v = JsonValue::parse(&text).expect("valid JSON");
        let events = v.get("traceEvents").and_then(JsonValue::as_array).unwrap();
        // Tracks 0..=2 are named even though no engine RunStart was seen.
        assert!(text.contains("\"name\":\"shard 2\""));
        let slice = events
            .iter()
            .find(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .expect("the ingested phase slice");
        // ts = stamp − duration = 4µs − 1µs.
        assert_eq!(slice.get("ts").and_then(JsonValue::as_f64), Some(3.0));
        assert_eq!(slice.get("pid").and_then(JsonValue::as_u64), Some(3));

        // Replay feeds a derived sink the same events, minus stamps.
        let rec = RecordingSink::new();
        sink.replay_into(&rec);
        assert_eq!(rec.len(), 3);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_per_shard_tracks() {
        let sink = ChromeTraceSink::new();
        sink.emit(&TraceEvent::RunStart {
            nodes: 10,
            shards: 2,
        });
        sink.emit(&TraceEvent::RoundStart {
            round: 0,
            active: 10,
        });
        sink.emit(&TraceEvent::PhaseEnd {
            round: 0,
            shard: 0,
            phase: TracePhase::Send,
            nanos: 2500,
        });
        sink.emit(&TraceEvent::ShardFlush {
            round: 0,
            shard: 1,
            wire_bytes: 64,
            nanos: 700,
        });
        sink.emit(&TraceEvent::ShardDrain {
            round: 0,
            shard: 1,
            nanos: 300,
            stale: 0,
        });
        sink.emit(&TraceEvent::Fault {
            round: 0,
            from: 0,
            to: 1,
            kind: FaultKind::Dropped,
        });
        sink.emit(&TraceEvent::RoundEnd {
            round: 0,
            active: 0,
            nanos: 4000,
        });
        sink.emit(&TraceEvent::RunEnd { rounds: 1 });
        assert_eq!(sink.len(), 8);

        let mut buf = Vec::new();
        sink.write_json(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let v = JsonValue::parse(&text).expect("trace must be valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        let mut pids = std::collections::BTreeSet::new();
        let mut nonzero_slices = 0;
        for e in events {
            assert!(e.get("ph").and_then(JsonValue::as_str).is_some());
            assert!(e.get("ts").and_then(JsonValue::as_f64).is_some());
            let pid = e.get("pid").and_then(JsonValue::as_u64).expect("pid");
            pids.insert(pid);
            if e.get("ph").and_then(JsonValue::as_str) == Some("X")
                && e.get("dur").and_then(JsonValue::as_f64).unwrap_or(0.0) > 0.0
            {
                nonzero_slices += 1;
            }
        }
        // One engine track + one track per shard.
        assert!(pids.contains(&0) && pids.contains(&1) && pids.contains(&2));
        assert!(
            nonzero_slices >= 3,
            "send/flush/drain/round slices expected"
        );
        // Fault instants land on the sending shard's track.
        assert!(text.contains("\"fault_dropped\""));
    }
}
