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

use serde::{Deserialize, Serialize};

/// Cumulative wall-clock time spent in each engine phase over a whole run,
/// in nanoseconds.
///
/// Filled in by every [`Executor`](crate::executor::Executor), with the
/// same meaning for every driver of the round kernel.  A single-threaded
/// run reports its one kernel's times; the threaded driver's coordinator
/// measures the windows between barrier crossings, so they include the
/// (small, constant) barrier overhead and the slowest shard.  Timings are
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
}

/// Aggregate metrics of one simulator run.
///
/// `rounds` is the number of synchronous rounds that were executed before
/// every node had halted (or the cap was reached); this is the quantity every
/// theorem of the paper bounds.
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
    /// receive), in nanoseconds.
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
    /// Bytes of data frames the remote coordinator relayed between workers
    /// (length prefixes and frame headers included).  Nonzero only for the
    /// star-relay data plane of [`coordinate`](crate::transport::coordinate);
    /// the direct worker↔worker mesh keeps this at 0 — the observable for
    /// the control-vs-data plane split.
    pub relayed_data_bytes: u64,
}

impl RunMetrics {
    /// Records one delivered message of the given size.
    pub fn record_message(&mut self, bits: u64) {
        self.messages += 1;
        self.total_bits += bits;
        if bits > self.max_message_bits {
            self.max_message_bits = bits;
        }
    }

    /// Merges another metrics object into this one (used by multi-phase
    /// pipelines to combine per-stage counters).
    pub fn merge(&mut self, other: &RunMetrics) {
        self.messages += other.messages;
        self.total_bits += other.total_bits;
        self.max_message_bits = self.max_message_bits.max(other.max_message_bits);
        self.phase_nanos.send += other.phase_nanos.send;
        self.phase_nanos.deliver += other.phase_nanos.deliver;
        self.phase_nanos.receive += other.phase_nanos.receive;
        self.intra_shard_messages += other.intra_shard_messages;
        self.cross_shard_messages += other.cross_shard_messages;
        self.wire_bytes_sent += other.wire_bytes_sent;
        self.transport_flush_nanos += other.transport_flush_nanos;
        self.syscall_batches += other.syscall_batches;
        self.faults_dropped += other.faults_dropped;
        self.faults_duplicated += other.faults_duplicated;
        self.faults_delayed += other.faults_delayed;
        self.faults_retransmitted += other.faults_retransmitted;
        self.stale_overwrites += other.stale_overwrites;
        self.peak_rss_bytes = self.peak_rss_bytes.max(other.peak_rss_bytes);
        self.relayed_data_bytes += other.relayed_data_bytes;
        if self.shard_phase_nanos.len() < other.shard_phase_nanos.len() {
            self.shard_phase_nanos
                .resize(other.shard_phase_nanos.len(), PhaseTimings::default());
        }
        for (mine, theirs) in self
            .shard_phase_nanos
            .iter_mut()
            .zip(&other.shard_phase_nanos)
        {
            mine.send += theirs.send;
            mine.deliver += theirs.deliver;
            mine.receive += theirs.receive;
        }
    }

    /// Total engine time *including* the transport flush, in nanoseconds.
    ///
    /// [`PhaseTimings::total`] covers only the three engine phases (send /
    /// deliver / receive); the time the cross-shard transport spends sealing
    /// and flushing frames at the send barrier is accounted separately in
    /// [`RunMetrics::transport_flush_nanos`] — it is measured *inside* the
    /// transport, not inside any phase window, both for the in-process
    /// socket backends and for remote workers (whose Output frames carry
    /// flush time in its own counter).  Socket-run totals that only look at
    /// `phase_nanos.total()` therefore under-report; this accessor is the
    /// documented sum to quote instead.
    pub fn total_with_transport(&self) -> u64 {
        self.phase_nanos.total() + self.transport_flush_nanos
    }

    /// Average message size in bits (0 if no messages were sent).
    pub fn mean_message_bits(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.total_bits as f64 / self.messages as f64
        }
    }

    /// Renders the metrics as one JSON object tagged with `label`.
    ///
    /// This is the first concrete serialization format of the workspace (the
    /// vendored `serde` is a marker-only stub, so the encoding is written
    /// out by hand; when real `serde` lands this becomes a derive).  The
    /// field names match the struct fields one-to-one, so rows stay parseable
    /// across versions that only add fields.
    pub fn to_json(&self, label: &str) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"label\":\"");
        json_escape_into(&mut out, label);
        out.push('"');
        out.push_str(&format!(",\"rounds\":{}", self.rounds));
        out.push_str(&format!(",\"messages\":{}", self.messages));
        out.push_str(&format!(",\"total_bits\":{}", self.total_bits));
        out.push_str(&format!(",\"max_message_bits\":{}", self.max_message_bits));
        out.push_str(&format!(",\"hit_round_cap\":{}", self.hit_round_cap));
        out.push_str(&format!(
            ",\"intra_shard_messages\":{}",
            self.intra_shard_messages
        ));
        out.push_str(&format!(
            ",\"cross_shard_messages\":{}",
            self.cross_shard_messages
        ));
        out.push_str(&format!(",\"wire_bytes_sent\":{}", self.wire_bytes_sent));
        out.push_str(&format!(
            ",\"transport_flush_nanos\":{}",
            self.transport_flush_nanos
        ));
        out.push_str(&format!(",\"syscall_batches\":{}", self.syscall_batches));
        out.push_str(&format!(",\"faults_dropped\":{}", self.faults_dropped));
        out.push_str(&format!(
            ",\"faults_duplicated\":{}",
            self.faults_duplicated
        ));
        out.push_str(&format!(",\"faults_delayed\":{}", self.faults_delayed));
        out.push_str(&format!(
            ",\"faults_retransmitted\":{}",
            self.faults_retransmitted
        ));
        out.push_str(&format!(",\"stale_overwrites\":{}", self.stale_overwrites));
        out.push_str(&format!(",\"peak_rss_bytes\":{}", self.peak_rss_bytes));
        out.push_str(&format!(
            ",\"relayed_data_bytes\":{}",
            self.relayed_data_bytes
        ));
        out.push_str(",\"active_per_round\":[");
        for (i, a) in self.active_per_round.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&a.to_string());
        }
        out.push(']');
        out.push_str(",\"phase_nanos\":");
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
    /// The inverse of the hand-rolled encoder, so schema drift between the
    /// two fails a round-trip test instead of silently corrupting analyses.
    /// Missing numeric/boolean fields default to zero/false (rows stay
    /// parseable across versions that only add fields); a missing `label`
    /// or a line that is not a JSON object is an error.
    pub fn from_json(line: &str) -> Result<(String, RunMetrics), String> {
        let v = crate::json::JsonValue::parse(line).map_err(|e| e.to_string())?;
        if v.as_object().is_none() {
            return Err("metrics row is not a JSON object".into());
        }
        let label = v
            .get("label")
            .and_then(|l| l.as_str())
            .ok_or("metrics row has no \"label\" string")?
            .to_string();
        let u = |key: &str| v.get(key).and_then(|x| x.as_u64()).unwrap_or(0);
        let timings = |x: &crate::json::JsonValue| PhaseTimings {
            send: x.get("send").and_then(|n| n.as_u64()).unwrap_or(0),
            deliver: x.get("deliver").and_then(|n| n.as_u64()).unwrap_or(0),
            receive: x.get("receive").and_then(|n| n.as_u64()).unwrap_or(0),
        };
        let metrics = RunMetrics {
            rounds: u("rounds"),
            messages: u("messages"),
            total_bits: u("total_bits"),
            max_message_bits: u("max_message_bits"),
            hit_round_cap: v
                .get("hit_round_cap")
                .and_then(|x| x.as_bool())
                .unwrap_or(false),
            active_per_round: v
                .get("active_per_round")
                .and_then(|x| x.as_array())
                .map(|xs| {
                    xs.iter()
                        .map(|x| x.as_u64().unwrap_or(0) as usize)
                        .collect()
                })
                .unwrap_or_default(),
            phase_nanos: v.get("phase_nanos").map(&timings).unwrap_or_default(),
            intra_shard_messages: u("intra_shard_messages"),
            cross_shard_messages: u("cross_shard_messages"),
            shard_phase_nanos: v
                .get("shard_phase_nanos")
                .and_then(|x| x.as_array())
                .map(|xs| xs.iter().map(&timings).collect())
                .unwrap_or_default(),
            wire_bytes_sent: u("wire_bytes_sent"),
            transport_flush_nanos: u("transport_flush_nanos"),
            syscall_batches: u("syscall_batches"),
            faults_dropped: u("faults_dropped"),
            faults_duplicated: u("faults_duplicated"),
            faults_delayed: u("faults_delayed"),
            faults_retransmitted: u("faults_retransmitted"),
            stale_overwrites: u("stale_overwrites"),
            peak_rss_bytes: u("peak_rss_bytes"),
            relayed_data_bytes: u("relayed_data_bytes"),
        };
        Ok((label, metrics))
    }
}

impl PhaseTimings {
    fn json_into(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"send\":{},\"deliver\":{},\"receive\":{}}}",
            self.send, self.deliver, self.receive
        ));
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

    /// Exhaustiveness regression for [`RunMetrics::merge`]: every field is
    /// nonzero on both sides and the expected result is spelled out as a
    /// **complete struct literal** (no `..Default::default()`), so adding a
    /// field to `RunMetrics` without deciding its merge semantics fails to
    /// compile here, and forgetting the `merge` line fails the assertion.
    #[test]
    fn merge_handles_every_field() {
        let mk = |scale: u64| RunMetrics {
            rounds: 11 * scale,
            messages: 2 * scale,
            total_bits: 30 * scale,
            max_message_bits: 20 * scale,
            hit_round_cap: scale > 1,
            active_per_round: vec![scale as usize],
            phase_nanos: PhaseTimings {
                send: 5 * scale,
                deliver: 7 * scale,
                receive: 9 * scale,
            },
            intra_shard_messages: 3 * scale,
            cross_shard_messages: 4 * scale,
            shard_phase_nanos: vec![PhaseTimings {
                send: scale,
                deliver: 2 * scale,
                receive: 3 * scale,
            }],
            wire_bytes_sent: 100 * scale,
            transport_flush_nanos: 200 * scale,
            syscall_batches: 300 * scale,
            faults_dropped: 13 * scale,
            faults_duplicated: 17 * scale,
            faults_delayed: 19 * scale,
            faults_retransmitted: 23 * scale,
            stale_overwrites: 29 * scale,
            peak_rss_bytes: 31 * scale,
            relayed_data_bytes: 37 * scale,
        };
        let mut a = mk(1);
        a.merge(&mk(10));
        let expected = RunMetrics {
            // Deliberately untouched by merge: rounds, the cap flag and the
            // per-round drain profile belong to a single run, not a
            // multi-phase pipeline sum (pipelines account rounds themselves).
            rounds: 11,
            hit_round_cap: false,
            active_per_round: vec![1],
            // Summed.
            messages: 22,
            total_bits: 330,
            phase_nanos: PhaseTimings {
                send: 55,
                deliver: 77,
                receive: 99,
            },
            intra_shard_messages: 33,
            cross_shard_messages: 44,
            wire_bytes_sent: 1100,
            transport_flush_nanos: 2200,
            syscall_batches: 3300,
            faults_dropped: 143,
            faults_duplicated: 187,
            faults_delayed: 209,
            faults_retransmitted: 253,
            stale_overwrites: 319,
            relayed_data_bytes: 407,
            // Maxed.
            max_message_bits: 200,
            peak_rss_bytes: 310,
            // Summed per shard index.
            shard_phase_nanos: vec![PhaseTimings {
                send: 11,
                deliver: 22,
                receive: 33,
            }],
        };
        assert_eq!(a, expected);
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
        assert!(line.contains("\"messages\":1"));
        assert!(line.contains("\"total_bits\":10"));
        assert!(line.contains("\"hit_round_cap\":false"));
        assert!(line.contains("\"active_per_round\":[3,1]"));
        assert!(line.contains("\"intra_shard_messages\":1"));
        assert!(line.contains("\"cross_shard_messages\":0"));
        assert!(line.contains("\"wire_bytes_sent\":77"));
        assert!(line.contains("\"transport_flush_nanos\":88"));
        assert!(line.contains("\"syscall_batches\":99"));
        assert!(line.contains("\"faults_dropped\":0"));
        assert!(line.contains("\"faults_duplicated\":0"));
        assert!(line.contains("\"faults_delayed\":0"));
        assert!(line.contains("\"faults_retransmitted\":0"));
        assert!(line.contains("\"stale_overwrites\":0"));
        assert!(line.contains("\"peak_rss_bytes\":0"));
        assert!(line.contains("\"relayed_data_bytes\":0"));
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
    /// (complete struct literal, so new fields must join the round-trip or
    /// fail to compile here) must come back field-for-field identical.
    #[test]
    fn json_round_trip_preserves_every_field() {
        let m = RunMetrics {
            rounds: 11,
            messages: 2,
            total_bits: 30,
            max_message_bits: 20,
            hit_round_cap: true,
            active_per_round: vec![3, 1],
            phase_nanos: PhaseTimings {
                send: 5,
                deliver: 7,
                receive: 9,
            },
            intra_shard_messages: 3,
            cross_shard_messages: 4,
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
            wire_bytes_sent: 100,
            transport_flush_nanos: 200,
            syscall_batches: 300,
            faults_dropped: 13,
            faults_duplicated: 17,
            faults_delayed: 19,
            faults_retransmitted: 23,
            stale_overwrites: 29,
            peak_rss_bytes: u64::MAX, // survives the lossless u64 path
            relayed_data_bytes: 37,
        };
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
    fn total_with_transport_adds_flush_time() {
        let m = RunMetrics {
            phase_nanos: PhaseTimings {
                send: 5,
                deliver: 7,
                receive: 11,
            },
            transport_flush_nanos: 100,
            ..RunMetrics::default()
        };
        assert_eq!(m.phase_nanos.total(), 23);
        assert_eq!(m.total_with_transport(), 123);
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
