//! Per-layer numbers read back from a Chrome trace — the merged file of
//! `exp_worker --trace`, or a `ChromeTraceSink` attached in-process — with
//! `dcme_congest::json`.

use std::collections::{BTreeMap, BTreeSet};

use dcme_congest::{JsonValue, RoundSeries, SeriesSummary, TraceEvent, TraceSink};

/// What the round and shard slices of one trace say.
#[derive(Debug, Default)]
pub struct TraceStats {
    /// The engine's round slices, summarized as `RoundSeries` does.
    pub rounds: SeriesSummary,
    /// Σ over rounds of the busiest shard's phase time ÷ Σ over rounds of
    /// the mean shard's (1 = balanced).
    pub shard_imbalance: f64,
    /// Drain time summed per shard, of the shard that drained longest, in
    /// seconds.
    pub drain_s: f64,
}

/// Reads the `traceEvents` of a Chrome trace.
pub fn analyse(text: &str) -> Result<TraceStats, String> {
    let root = JsonValue::parse(text).map_err(|e| format!("trace is not JSON: {e}"))?;
    let events = root
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("trace has no traceEvents array")?;
    let series = RoundSeries::new();
    // Phase time per (round, shard track) and drain time per shard track,
    // both in microseconds.
    let mut work: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut drain: BTreeMap<u64, f64> = BTreeMap::new();
    for e in events {
        if e.get("ph").and_then(JsonValue::as_str) != Some("X") {
            continue;
        }
        let dur_us = e.get("dur").and_then(JsonValue::as_f64).unwrap_or(0.0);
        let pid = e.get("pid").and_then(JsonValue::as_u64).unwrap_or(0);
        let round = e
            .get("args")
            .and_then(|a| a.get("round"))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        match e.get("name").and_then(JsonValue::as_str) {
            Some("round") => series.emit(&TraceEvent::RoundEnd {
                round,
                active: 0,
                nanos: (dur_us * 1e3) as u64,
            }),
            Some("send" | "deliver" | "receive") => {
                *work.entry((round, pid)).or_default() += dur_us
            }
            Some("drain") => *drain.entry(pid).or_default() += dur_us,
            _ => {}
        }
    }
    let shards = work
        .keys()
        .map(|&(_, pid)| pid)
        .collect::<BTreeSet<_>>()
        .len();
    let mut busiest: BTreeMap<u64, f64> = BTreeMap::new();
    for (&(round, _), &us) in &work {
        let max = busiest.entry(round).or_default();
        *max = max.max(us);
    }
    let total: f64 = work.values().sum();
    let shard_imbalance = if total > 0.0 {
        busiest.values().sum::<f64>() * shards as f64 / total
    } else {
        1.0
    };
    Ok(TraceStats {
        rounds: series.summary(),
        shard_imbalance,
        drain_s: drain.values().fold(0.0_f64, |a, &b| a.max(b)) / 1e6,
    })
}
