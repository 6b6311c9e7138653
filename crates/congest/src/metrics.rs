//! Round, message and bandwidth accounting for simulator runs.
//!
//! # Accounting semantics
//!
//! Every *transmitted* message is charged, when its sender's shard routes
//! it, with its [`MessageSize::bit_size`](crate::MessageSize::bit_size) —
//! including messages addressed to nodes that have already halted.  A
//! halted receiver discards such messages unread (its state and output are
//! unaffected), but the wire was used, so round/bandwidth complexity counts
//! them.  See the [`crate::algorithm`] docs for the rationale; a simulator
//! regression test pins this behaviour.
//!
//! # The counter registry
//!
//! Every `u64` counter of [`RunMetrics`] is declared once, in the
//! `counters!` table below: its field name (also its JSON key), its
//! [`Merge`] rule and its [`Gate`] class.  [`RunMetrics::COUNTERS`] drives
//! [`RunMetrics::merge`], the JSON rows, the remote worker's Output frame
//! ([`encode_output_payload`](crate::transport::encode_output_payload)) and
//! the regression gate (`dcme_bench::diff`).  The five run-shape fields —
//! `rounds`, `hit_round_cap`, `active_per_round`, `phase_nanos` and
//! `shard_phase_nanos` — have their rules written out by hand.  A new
//! counter needs its field, one line in the table and the code that
//! increments it; a field in neither list fails to compile.
//! [`RoundRow`](crate::RoundRow) has a table of its own.

use serde::{Deserialize, Serialize};

use crate::json::JsonValue;

/// Cumulative wall-clock time spent in each engine phase over a whole run,
/// in nanoseconds.
///
/// Filled in by every [`Executor`](crate::executor::Executor), with the
/// same meaning for every driver of the round kernel.  A single-threaded
/// run reports its one kernel's times; the threaded driver reports shard
/// 0's windows between barrier crossings, so they include the (small,
/// constant) barrier overhead and the slowest shard.  Timings are
/// *measurements*, not semantics: the equivalence guarantee between
/// executors covers every other metric field but not these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Time spent clearing last round's slots, asking active nodes for
    /// their outboxes and routing messages within the shard (plus staging
    /// and flushing cross-shard ones, for the threaded driver's windows).
    pub send: u64,
    /// Time spent draining cross-shard messages into the shard's slots and
    /// values (near zero for a single-threaded run, which has no other
    /// shard).
    pub deliver: u64,
    /// Time spent handing inboxes to active nodes (plus active-set
    /// compaction).
    pub receive: u64,
}

impl PhaseTimings {
    /// Total engine time across all phases, in nanoseconds.
    pub fn total(&self) -> u64 {
        self.send + self.deliver + self.receive
    }

    fn add(&mut self, other: &PhaseTimings) {
        self.send += other.send;
        self.deliver += other.deliver;
        self.receive += other.receive;
    }

    fn json_into(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"send\":{},\"deliver\":{},\"receive\":{}}}",
            self.send, self.deliver, self.receive
        ));
    }

    /// `None` unless `v` is an object whose present `send`, `deliver` and
    /// `receive` are `u64`s (a missing one reads 0).
    fn from_json(v: &JsonValue) -> Option<PhaseTimings> {
        v.as_object()?;
        let u = |key| v.get(key).map_or(Some(0), JsonValue::as_u64);
        Some(PhaseTimings {
            send: u("send")?,
            deliver: u("deliver")?,
            receive: u("receive")?,
        })
    }
}

/// Aggregate metrics of one simulator run.
///
/// `rounds` is the number of synchronous rounds that were executed before
/// every node had halted (or the cap was reached); this is the quantity every
/// theorem of the paper bounds.  Each kernel of a run counts into a
/// `RunMetrics` of its own, which its driver adds to the run's (see the
/// [module docs](self) for the counter registry).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Number of synchronous rounds executed.
    pub rounds: u64,
    /// Total number of point-to-point messages delivered.
    pub messages: u64,
    /// Total number of bits transmitted (sum of message sizes).
    pub total_bits: u64,
    /// The largest single message observed, in bits.
    pub max_message_bits: u64,
    /// Whether the run stopped because the round cap was hit rather than
    /// because every node halted.
    pub hit_round_cap: bool,
    /// Per-round count of nodes that were still active at the start of the
    /// round (useful to see how fast the algorithm "drains").
    pub active_per_round: Vec<usize>,
    /// Cumulative wall-clock time per engine phase (send / deliver /
    /// receive), in nanoseconds.  The transport's sealing and flushing
    /// time is not in it: that is [`RunMetrics::transport_flush_nanos`].
    pub phase_nanos: PhaseTimings,
    /// Messages delivered within the sender's shard.  Attributed by the
    /// sharded drivers (`intra + cross == messages` there); zero for the
    /// single-threaded driver, which reports no shard split.
    pub intra_shard_messages: u64,
    /// Messages that crossed a shard boundary through a transport.
    /// Attributed by the sharded drivers; zero for the single-threaded one.
    pub cross_shard_messages: u64,
    /// Per-shard cumulative phase times, indexed by shard.  Filled by the
    /// sharded drivers (empty for the single-threaded one); like
    /// [`RunMetrics::phase_nanos`] these are measurements, exempt from the
    /// executor-equivalence guarantee.
    pub shard_phase_nanos: Vec<PhaseTimings>,
    /// Total bytes of sealed wire frames the cross-shard transport produced
    /// (length prefixes and frame headers included).  Zero for in-memory
    /// backends, which move messages as Rust values; deterministic for a
    /// given socket backend, but backend-specific — so, like the wall-clock
    /// timings, exempt from the executor-equivalence guarantee.
    pub wire_bytes_sent: u64,
    /// Cumulative wall-clock time the transport spent sealing and flushing
    /// frames at the send barrier, in nanoseconds (summed across shards).
    /// Measured inside the transport, so it lies outside
    /// [`RunMetrics::phase_nanos`].
    pub transport_flush_nanos: u64,
    /// Number of kernel write batches the cross-shard transport issued — one
    /// per successful `write(2)` syscall, summed across shards.  Many small
    /// messages sealed into one frame and handed to the kernel together
    /// count as **one** batch, so this is the observable for frame
    /// coalescing.  Zero for in-memory backends; scheduling-dependent for
    /// socket backends (a full socket buffer splits a write), so — like the
    /// timing counters — exempt from the executor-equivalence guarantee.
    pub syscall_batches: u64,
    /// Cross-shard messages dropped by an injected fault (including
    /// partition drops).  Zero unless the run used a
    /// [`FaultyTransport`](crate::faults::FaultyTransport).
    pub faults_dropped: u64,
    /// Cross-shard messages duplicated by an injected fault (the extra,
    /// stale copy crosses the next round boundary).
    pub faults_duplicated: u64,
    /// Cross-shard messages delayed across a round boundary by an injected
    /// fault (including partition-deferred deliveries).
    pub faults_delayed: u64,
    /// Injected losses or delays masked by the retransmission layer: the
    /// message was still delivered in its own round, as a reliable
    /// transport's retries would before the round barrier closes.
    pub faults_retransmitted: u64,
    /// Inbox slots and broadcast values overwritten during async-round
    /// delivery ([`DeliveryMode::Async`](crate::executor::DeliveryMode)): a
    /// stale or duplicate message arrived on a port that already held this
    /// round's message, or a second in-process broadcast entry from one
    /// sender replaced the value the receiving kernel keeps for it, counted
    /// once however many ports it reaches (newest-wins semantics).  Zero in
    /// strict lock-step runs.
    pub stale_overwrites: u64,
    /// Peak resident-set size of the run, in bytes: the largest `VmHWM` any
    /// participating worker process reported (see
    /// [`process_peak_rss_bytes`]).  A high-water mark, so [`RunMetrics::merge`]
    /// takes the **max**, not the sum.  Filled by the remote worker
    /// protocol (each worker's Output frame carries its own high-water
    /// mark) and the experiment harness; the in-process executors leave it
    /// 0, since threads sharing one address space have no per-shard RSS and
    /// the process-wide value would break byte-identical metric replays.
    /// Zero also on platforms without `/proc/self/status`.  A measurement,
    /// exempt from the executor-equivalence guarantee.
    pub peak_rss_bytes: u64,
    /// Bytes of data frames the remote coordinator relayed between workers.
    /// Always 0: workers exchange data frames directly over their mesh, and
    /// the coordinator of [`coordinate`](crate::transport::coordinate)
    /// carries only control frames.  Kept because the JSON rows only ever
    /// add keys.
    pub relayed_data_bytes: u64,
}

/// How two values of one counter combine when runs or shards merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// Added: a count over the whole run.
    Sum,
    /// The larger one is kept: a largest size or a high-water mark.
    Max,
}

/// How the regression gate (`exp_diff --check`) treats a counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// A pure function of the workload, pinned bit for bit by the
    /// executor-equivalence guarantee: any increase is a regression.
    Exact,
    /// Depends on the host and the scheduler: reported, and gated only on
    /// request, with a looser threshold.
    Noisy,
}

/// One `u64` counter of [`RunMetrics`], as the registry declares it.
#[derive(Clone, Copy)]
pub struct Counter {
    /// The field's name, which is also its JSON key.
    pub key: &'static str,
    /// How two runs' or shards' values combine.
    pub merge: Merge,
    /// How the regression gate treats it.
    pub gate: Gate,
    /// Reads the counter.
    pub get: fn(&RunMetrics) -> u64,
    /// The counter's field.
    pub get_mut: fn(&mut RunMetrics) -> &mut u64,
}

/// Declares [`RunMetrics::COUNTERS`], one `field: Merge, Gate;` line per
/// counter, and checks that every field of [`RunMetrics`] is declared.
macro_rules! counters {
    ($($key:ident: $merge:ident, $gate:ident;)*) => {
        impl RunMetrics {
            /// Every `u64` counter, in the order JSON rows, the Output frame
            /// and the gate's report list them.
            pub const COUNTERS: &'static [Counter] = &[$(Counter {
                key: stringify!($key),
                merge: Merge::$merge,
                gate: Gate::$gate,
                get: |m| m.$key,
                get_mut: |m| &mut m.$key,
            }),*];
        }

        // Fails to compile ("pattern requires `..`") when a field is
        // neither a counter in the table nor one of the run-shape fields,
        // whose rules are written out by hand.
        const _: fn(RunMetrics) = |m| {
            let RunMetrics {
                rounds: _,
                hit_round_cap: _,
                active_per_round: _,
                phase_nanos: _,
                shard_phase_nanos: _,
                $($key: _,)*
            } = m;
        };
    };
}

counters! {
    messages: Sum, Exact;
    total_bits: Sum, Exact;
    max_message_bits: Max, Exact;
    intra_shard_messages: Sum, Exact;
    cross_shard_messages: Sum, Exact;
    wire_bytes_sent: Sum, Exact;
    transport_flush_nanos: Sum, Noisy;
    syscall_batches: Sum, Noisy;
    faults_dropped: Sum, Exact;
    faults_duplicated: Sum, Exact;
    faults_delayed: Sum, Exact;
    faults_retransmitted: Sum, Exact;
    stale_overwrites: Sum, Exact;
    peak_rss_bytes: Max, Noisy;
    relayed_data_bytes: Sum, Exact;
}

impl RunMetrics {
    /// Records one delivered message of the given size.
    pub fn record_message(&mut self, bits: u64) {
        self.record(1, bits);
    }

    /// Records `count` delivered messages of `bits` bits each.
    pub(crate) fn record(&mut self, count: u64, bits: u64) {
        self.messages += count;
        self.total_bits += count * bits;
        self.max_message_bits = self.max_message_bits.max(bits);
    }

    /// Merges another metrics object into this one (used by multi-phase
    /// pipelines to combine per-stage counters): every counter by its
    /// [`Merge`] rule, and the phase timings summed, per shard index for
    /// `shard_phase_nanos`.  `rounds`, `hit_round_cap` and
    /// `active_per_round` describe one run and are left alone; pipelines
    /// account rounds themselves.
    pub fn merge(&mut self, other: &RunMetrics) {
        self.merge_counters(other);
        self.phase_nanos.add(&other.phase_nanos);
        if self.shard_phase_nanos.len() < other.shard_phase_nanos.len() {
            self.shard_phase_nanos
                .resize(other.shard_phase_nanos.len(), PhaseTimings::default());
        }
        for (mine, theirs) in self
            .shard_phase_nanos
            .iter_mut()
            .zip(&other.shard_phase_nanos)
        {
            mine.add(theirs);
        }
    }

    /// Adds one shard's kernel counters to a sharded run: every counter by
    /// its [`Merge`] rule, and the shard's `phase_nanos` appended to
    /// `shard_phase_nanos`.  The threaded driver and the remote coordinator
    /// add their shards in shard order, so every total is deterministic.
    pub(crate) fn add_shard(&mut self, shard: &RunMetrics) {
        self.merge_counters(shard);
        self.shard_phase_nanos.push(shard.phase_nanos);
    }

    fn merge_counters(&mut self, other: &RunMetrics) {
        for c in Self::COUNTERS {
            let (a, b) = ((c.get)(self), (c.get)(other));
            *(c.get_mut)(self) = match c.merge {
                Merge::Sum => a + b,
                Merge::Max => a.max(b),
            };
        }
    }

    /// Average message size in bits (0 if no messages were sent).
    pub fn mean_message_bits(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.total_bits as f64 / self.messages as f64
        }
    }

    /// Renders the metrics as one JSON object tagged with `label`: the
    /// label, `rounds` and `hit_round_cap`, every counter in registry
    /// order, then `active_per_round` and the timings.  The keys are the
    /// struct's field names (the vendored `serde` is a marker-only stub).
    pub fn to_json(&self, label: &str) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\"label\":\"");
        json_escape_into(&mut out, label);
        out.push_str(&format!(
            "\",\"rounds\":{},\"hit_round_cap\":{}",
            self.rounds, self.hit_round_cap
        ));
        for c in Self::COUNTERS {
            out.push_str(&format!(",\"{}\":{}", c.key, (c.get)(self)));
        }
        out.push_str(",\"active_per_round\":[");
        for (i, a) in self.active_per_round.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&a.to_string());
        }
        out.push_str("],\"phase_nanos\":");
        self.phase_nanos.json_into(&mut out);
        out.push_str(",\"shard_phase_nanos\":[");
        for (i, t) in self.shard_phase_nanos.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            t.json_into(&mut out);
        }
        out.push_str("]}");
        out
    }

    /// Parses one JSONL row produced by [`RunMetrics::to_json`] back into
    /// `(label, metrics)`.
    ///
    /// A missing field defaults to zero, false or empty (rows stay
    /// parseable across versions that only add fields); a present field of
    /// the wrong type is an error that names its key, and so is a missing
    /// `label` or a line that is not a JSON object.
    pub fn from_json(line: &str) -> Result<(String, RunMetrics), String> {
        let v = JsonValue::parse(line).map_err(|e| e.to_string())?;
        if v.as_object().is_none() {
            return Err("metrics row is not a JSON object".into());
        }
        let label = v
            .get("label")
            .and_then(|l| l.as_str())
            .ok_or("metrics row has no \"label\" string")?
            .to_string();
        let u = |key| v.member(key, "a u64", JsonValue::as_u64);
        let timings = "a {send, deliver, receive} object";
        let mut metrics = RunMetrics {
            rounds: u("rounds")?,
            hit_round_cap: v.member("hit_round_cap", "a bool", JsonValue::as_bool)?,
            active_per_round: v.member("active_per_round", "an array of u64s", |x| {
                let xs = x.as_array()?.iter();
                xs.map(|a| a.as_u64().map(|a| a as usize)).collect()
            })?,
            phase_nanos: v.member("phase_nanos", timings, PhaseTimings::from_json)?,
            shard_phase_nanos: v.member("shard_phase_nanos", "an array of timings", |x| {
                x.as_array()?.iter().map(PhaseTimings::from_json).collect()
            })?,
            ..RunMetrics::default()
        };
        for c in Self::COUNTERS {
            *(c.get_mut)(&mut metrics) = u(c.key)?;
        }
        Ok((label, metrics))
    }
}

/// Peak resident-set size (high-water mark) of the **current process**, in
/// bytes.
///
/// Reads the `VmHWM` line of `/proc/self/status` (reported in kB).  Returns
/// 0 when the file or the line is unavailable (non-Linux platforms), so
/// callers can store the value unconditionally — a zero simply means "not
/// measured", never "no memory used".  This feeds
/// [`RunMetrics::peak_rss_bytes`], the observable behind the scale-out
/// claim that a mesh worker never materializes shards it does not own.
pub fn process_peak_rss_bytes() -> u64 {
    let status = match std::fs::read_to_string("/proc/self/status") {
        Ok(s) => s,
        Err(_) => return 0,
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb.saturating_mul(1024);
        }
    }
    0
}

/// Appends `s` to `out` with JSON string escaping applied (quotes,
/// backslashes, control characters) — **without** the surrounding quotes.
///
/// Shared by every hand-rolled JSON emitter in the workspace (this module,
/// `dcme_bench`'s table rows) so the escaping rules live in one place until
/// real `serde` replaces them.
pub fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Appends [`RunMetrics`] rows to any `Write` sink as [JSON
/// lines](https://jsonlines.org) — one self-contained JSON object per line,
/// so experiment binaries can accumulate machine-readable results across
/// runs (`exp_* --jsonl out.jsonl`, or `DCME_METRICS_JSONL=out.jsonl` for
/// the benches) and post-process them with standard tooling.
#[derive(Debug)]
pub struct JsonLinesWriter<W: std::io::Write> {
    inner: W,
}

impl<W: std::io::Write> JsonLinesWriter<W> {
    /// Wraps a sink; rows are appended with [`JsonLinesWriter::append`].
    pub fn new(inner: W) -> Self {
        Self { inner }
    }

    /// Writes one `label`-tagged metrics row, newline-terminated.
    pub fn append(&mut self, label: &str, metrics: &RunMetrics) -> std::io::Result<()> {
        self.inner.write_all(metrics.to_json(label).as_bytes())?;
        self.inner.write_all(b"\n")
    }

    /// Writes one pre-rendered JSON object (for callers with their own row
    /// shape, e.g. table rows), newline-terminated.
    pub fn append_raw(&mut self, json_object: &str) -> std::io::Result<()> {
        self.inner.write_all(json_object.as_bytes())?;
        self.inner.write_all(b"\n")
    }

    /// Unwraps the sink (flushing is the sink's business).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge() {
        let mut a = RunMetrics::default();
        a.record_message(10);
        a.record_message(20);
        assert_eq!(a.messages, 2);
        assert_eq!(a.total_bits, 30);
        assert_eq!(a.max_message_bits, 20);
        assert!((a.mean_message_bits() - 15.0).abs() < 1e-9);

        let mut b = RunMetrics::default();
        b.record_message(40);
        b.phase_nanos = PhaseTimings {
            send: 5,
            deliver: 7,
            receive: 11,
        };
        a.merge(&b);
        assert_eq!(a.messages, 3);
        assert_eq!(a.total_bits, 70);
        assert_eq!(a.max_message_bits, 40);
        assert_eq!(a.phase_nanos, b.phase_nanos);
        assert_eq!(a.phase_nanos.total(), 23);
    }

    #[test]
    fn empty_metrics_mean_is_zero() {
        assert_eq!(RunMetrics::default().mean_message_bits(), 0.0);
    }

    #[test]
    fn merge_combines_shard_attribution() {
        let mut a = RunMetrics {
            intra_shard_messages: 3,
            cross_shard_messages: 1,
            shard_phase_nanos: vec![PhaseTimings {
                send: 1,
                deliver: 2,
                receive: 3,
            }],
            ..RunMetrics::default()
        };
        let b = RunMetrics {
            intra_shard_messages: 5,
            cross_shard_messages: 7,
            shard_phase_nanos: vec![
                PhaseTimings {
                    send: 10,
                    deliver: 20,
                    receive: 30,
                },
                PhaseTimings {
                    send: 100,
                    deliver: 200,
                    receive: 300,
                },
            ],
            ..RunMetrics::default()
        };
        a.merge(&b);
        assert_eq!(a.intra_shard_messages, 8);
        assert_eq!(a.cross_shard_messages, 8);
        assert_eq!(a.shard_phase_nanos.len(), 2);
        assert_eq!(a.shard_phase_nanos[0].send, 11);
        assert_eq!(a.shard_phase_nanos[1].receive, 300);
    }

    /// Fills every counter with a distinct multiple of `scale` (the
    /// run-shape fields are the caller's).
    fn every_counter(mut m: RunMetrics, scale: u64) -> RunMetrics {
        for (i, c) in RunMetrics::COUNTERS.iter().enumerate() {
            *(c.get_mut)(&mut m) = (i as u64 + 2) * scale;
        }
        m
    }

    /// Every counter merges by its registry rule, whether runs merge or a
    /// sharded run adds its shards, and the run-shape fields by theirs.
    #[test]
    fn merge_handles_every_field() {
        let mk = |scale: u64| {
            let shape = RunMetrics {
                rounds: 11 * scale,
                hit_round_cap: scale > 1,
                active_per_round: vec![scale as usize],
                phase_nanos: PhaseTimings {
                    send: 5 * scale,
                    deliver: 7 * scale,
                    receive: 9 * scale,
                },
                shard_phase_nanos: vec![PhaseTimings {
                    send: scale,
                    deliver: 2 * scale,
                    receive: 3 * scale,
                }],
                ..RunMetrics::default()
            };
            every_counter(shape, scale)
        };
        let mut a = mk(1);
        a.merge(&mk(10));
        let mut run = RunMetrics::default();
        run.add_shard(&mk(1));
        run.add_shard(&mk(10));
        for (i, c) in RunMetrics::COUNTERS.iter().enumerate() {
            let base = i as u64 + 2;
            let expected = match c.merge {
                Merge::Sum => 11 * base,
                Merge::Max => 10 * base,
            };
            assert_eq!((c.get)(&a), expected, "{} merges by {:?}", c.key, c.merge);
            assert_eq!((c.get)(&run), expected, "{} adds by {:?}", c.key, c.merge);
        }
        let maxed: Vec<&str> = RunMetrics::COUNTERS
            .iter()
            .filter(|c| c.merge == Merge::Max)
            .map(|c| c.key)
            .collect();
        assert_eq!(maxed, ["max_message_bits", "peak_rss_bytes"]);
        // Rounds, the cap flag and the per-round drain profile belong to a
        // single run, not a multi-phase pipeline sum (pipelines account
        // rounds themselves); the timings add up, per shard index.
        assert_eq!(a.rounds, 11);
        assert!(!a.hit_round_cap);
        assert_eq!(a.active_per_round, vec![1]);
        assert_eq!(
            a.phase_nanos,
            PhaseTimings {
                send: 55,
                deliver: 77,
                receive: 99,
            }
        );
        assert_eq!(
            a.shard_phase_nanos,
            vec![PhaseTimings {
                send: 11,
                deliver: 22,
                receive: 33,
            }]
        );
        // A sharded run keeps each shard's own timings, in shard order.
        let timings = vec![mk(1).phase_nanos, mk(10).phase_nanos];
        assert_eq!(run.shard_phase_nanos, timings);
    }

    #[test]
    fn json_line_is_complete_and_escaped() {
        let mut m = RunMetrics::default();
        m.record_message(10);
        m.rounds = 2;
        m.active_per_round = vec![3, 1];
        m.intra_shard_messages = 1;
        m.wire_bytes_sent = 77;
        m.transport_flush_nanos = 88;
        m.syscall_batches = 99;
        m.shard_phase_nanos = vec![PhaseTimings {
            send: 4,
            deliver: 5,
            receive: 6,
        }];
        let line = m.to_json("ring \"q\"\\n=3");
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"label\":\"ring \\\"q\\\"\\\\n=3\""));
        assert!(line.contains("\"rounds\":2"));
        assert!(line.contains("\"hit_round_cap\":false"));
        assert!(line.contains("\"active_per_round\":[3,1]"));
        for c in RunMetrics::COUNTERS {
            assert!(line.contains(&format!("\"{}\":{},", c.key, (c.get)(&m))));
        }
        assert!(line.contains("\"syscall_batches\":99"));
        assert!(line.contains("\"shard_phase_nanos\":[{\"send\":4,\"deliver\":5,\"receive\":6}]"));
        // Balanced braces/brackets — a cheap well-formedness check given the
        // workspace has no JSON parser to round-trip with.
        assert_eq!(line.matches('{').count(), line.matches('}').count(),);
        assert_eq!(line.matches('[').count(), line.matches(']').count());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_probe_reports_a_plausible_high_water_mark() {
        let rss = process_peak_rss_bytes();
        assert!(rss > 0, "VmHWM should be readable on Linux");
        assert_eq!(rss % 1024, 0, "VmHWM is reported in whole kilobytes");
    }

    /// Round-trip regression: a row in which **every** field is nonzero
    /// and every counter distinct must come back field-for-field identical.
    #[test]
    fn json_round_trip_preserves_every_field() {
        let shape = RunMetrics {
            rounds: 11,
            hit_round_cap: true,
            active_per_round: vec![3, 1],
            phase_nanos: PhaseTimings {
                send: 5,
                deliver: 7,
                receive: 9,
            },
            shard_phase_nanos: vec![
                PhaseTimings {
                    send: 1,
                    deliver: 2,
                    receive: 3,
                },
                PhaseTimings {
                    send: 4,
                    deliver: 5,
                    receive: 6,
                },
            ],
            ..RunMetrics::default()
        };
        let mut m = every_counter(shape, 7);
        m.peak_rss_bytes = u64::MAX; // survives the lossless u64 path
        let label = "ring \"q\"\\n=3";
        let (back_label, back) = RunMetrics::from_json(&m.to_json(label)).unwrap();
        assert_eq!(back_label, label);
        assert_eq!(back, m);
    }

    #[test]
    fn from_json_rejects_garbage_and_defaults_missing_fields() {
        assert!(RunMetrics::from_json("not json").is_err());
        assert!(RunMetrics::from_json("[1,2]").is_err());
        assert!(RunMetrics::from_json("{\"rounds\":1}").is_err(), "no label");
        let (label, m) = RunMetrics::from_json("{\"label\":\"x\",\"rounds\":4}").unwrap();
        assert_eq!(label, "x");
        assert_eq!(m.rounds, 4);
        assert_eq!(m.messages, 0);
        assert!(!m.hit_round_cap);
    }

    #[test]
    fn from_json_names_a_present_field_of_the_wrong_type() {
        for (key, value) in [
            ("messages", "\"201230\""),
            ("messages", "-1"),
            ("rounds", "7.0"),
            ("peak_rss_bytes", "18446744073709551616"),
            ("hit_round_cap", "1"),
            ("active_per_round", "[3,-1]"),
            ("active_per_round", "{}"),
            ("phase_nanos", "[1,2,3]"),
            ("phase_nanos", "{\"send\":\"1\"}"),
            ("shard_phase_nanos", "[{\"send\":1},2]"),
        ] {
            let line = format!("{{\"label\":\"x\",\"{key}\":{value}}}");
            let err = RunMetrics::from_json(&line).unwrap_err();
            assert!(err.contains(&format!("\"{key}\"")), "{line}: {err}");
        }
    }

    #[test]
    fn jsonl_writer_appends_newline_terminated_rows() {
        let mut w = JsonLinesWriter::new(Vec::new());
        w.append("a", &RunMetrics::default()).unwrap();
        w.append("b", &RunMetrics::default()).unwrap();
        w.append_raw("{\"custom\":true}").unwrap();
        let buf = String::from_utf8(w.into_inner()).unwrap();
        let lines: Vec<&str> = buf.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"label\":\"a\""));
        assert!(lines[1].contains("\"label\":\"b\""));
        assert_eq!(lines[2], "{\"custom\":true}");
        assert!(buf.ends_with('\n'));
    }
}
