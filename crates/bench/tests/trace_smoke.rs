//! End-to-end smoke of the tracing subsystem: `exp_trace` must emit
//! well-formed Chrome trace-event JSON (one process track per shard,
//! nonzero phase slices) plus per-round series rows that parse back
//! field-for-field, a `--progress` multi-process `exp_worker` run must
//! render worker heartbeat lines on stderr, and a `--trace` run must
//! merge every worker's shipped Trace frame into one Perfetto-loadable
//! file, without perturbing `--verify`.

use std::process::Command;

use dcme_congest::{JsonValue, RoundRow, RunMetrics};

/// Parses a Chrome trace file and returns, per pid: is it named, how many
/// nonzero-duration slices it has, and how many `worker_start` instants
/// and `"fault"`-category instants the whole file carries.
struct TraceShape {
    named_pids: std::collections::BTreeSet<u64>,
    pids: std::collections::BTreeSet<u64>,
    nonzero_slices_by_pid: std::collections::BTreeMap<u64, usize>,
    worker_starts: usize,
    fault_instants: usize,
}

fn trace_shape(text: &str) -> TraceShape {
    let doc = JsonValue::parse(text).expect("trace file must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("top-level traceEvents array");
    let mut shape = TraceShape {
        named_pids: Default::default(),
        pids: Default::default(),
        nonzero_slices_by_pid: Default::default(),
        worker_starts: 0,
        fault_instants: 0,
    };
    for ev in events {
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph field");
        assert!(ev.get("ts").and_then(|t| t.as_f64()).is_some(), "ts field");
        let pid = ev.get("pid").and_then(|p| p.as_u64()).expect("pid field");
        shape.pids.insert(pid);
        if ph == "M" {
            shape.named_pids.insert(pid);
        }
        if ph == "X" && ev.get("dur").and_then(|d| d.as_f64()).unwrap_or(0.0) > 0.0 {
            *shape.nonzero_slices_by_pid.entry(pid).or_default() += 1;
        }
        if ev.get("name").and_then(|n| n.as_str()) == Some("worker_start") {
            shape.worker_starts += 1;
        }
        if ev.get("cat").and_then(|c| c.as_str()) == Some("fault") {
            shape.fault_instants += 1;
        }
    }
    shape
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dcme_trace_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn exp_trace_emits_wellformed_chrome_trace_json() {
    let dir = tmp_dir("chrome");
    let trace = dir.join("trace.json");
    let shards = 3;
    let out = Command::new(env!("CARGO_BIN_EXE_exp_trace"))
        .args([
            "--n",
            "600",
            "--shards",
            &shards.to_string(),
            "--graph",
            "circulant4",
            "--tail",
            "6",
            "--mode",
            "sharded",
            "--out",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("spawn exp_trace");
    assert!(
        out.status.success(),
        "exp_trace failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&trace).unwrap();
    let doc = JsonValue::parse(&text).expect("trace file must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("top-level traceEvents array");
    assert!(!events.is_empty(), "empty trace");

    let mut pids = std::collections::BTreeSet::new();
    let mut named_tracks = std::collections::BTreeSet::new();
    let mut nonzero_slices = 0usize;
    for ev in events {
        // Every event carries the Chrome trace-event required fields.
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph field");
        assert!(ev.get("ts").and_then(|t| t.as_f64()).is_some(), "ts field");
        let pid = ev.get("pid").and_then(|p| p.as_u64()).expect("pid field");
        pids.insert(pid);
        if ph == "M" {
            named_tracks.insert(pid);
        }
        if ph == "X" && ev.get("dur").and_then(|d| d.as_f64()).unwrap_or(0.0) > 0.0 {
            nonzero_slices += 1;
        }
    }
    // One track per shard plus the engine track, each with process_name
    // metadata so Perfetto labels them.
    let expected: std::collections::BTreeSet<u64> = (0..=shards).collect();
    assert_eq!(pids, expected, "one pid per shard plus the engine");
    assert_eq!(named_tracks, expected, "every track is named");
    assert!(
        nonzero_slices > 0,
        "trace must contain nonzero-duration phase slices"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exp_trace_series_rows_round_trip() {
    let dir = tmp_dir("series");
    let trace = dir.join("trace.json");
    let series = dir.join("rounds.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_exp_trace"))
        .args([
            "--n",
            "400",
            "--shards",
            "2",
            "--graph",
            "ring",
            "--tail",
            "5",
            "--mode",
            "seq",
            "--out",
            trace.to_str().unwrap(),
            "--series",
            series.to_str().unwrap(),
            "--label",
            "smoke",
        ])
        .output()
        .expect("spawn exp_trace");
    assert!(
        out.status.success(),
        "exp_trace failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&series).unwrap();
    let mut lines = text.lines();
    // First row: the RunMetrics line. Parsing it back and re-serializing
    // must reproduce the emitted line byte for byte — field-for-field
    // round-trip of the whole schema.
    let metrics_line = lines.next().expect("metrics row");
    let (label, metrics) = RunMetrics::from_json(metrics_line).expect("parse metrics row");
    assert_eq!(label, "smoke");
    assert_eq!(metrics.to_json(&label), metrics_line, "metrics round-trip");

    // Remaining rows: one per round, in order, consistent with the
    // engine's own active-set profile — and round-tripping likewise.
    let rows: Vec<(String, RoundRow)> = lines
        .map(|line| RoundRow::from_json(line).expect("parse series row"))
        .collect();
    assert_eq!(rows.len() as u64, metrics.rounds, "one row per round");
    let mut messages = 0;
    for (i, (row_label, row)) in rows.iter().enumerate() {
        assert_eq!(row_label, "smoke");
        assert_eq!(row.round, i as u64);
        assert_eq!(
            row.active as usize, metrics.active_per_round[i],
            "active-set mismatch at round {i}"
        );
        assert_eq!(row.to_json(row_label), text.lines().nth(i + 1).unwrap());
        messages += row.messages;
    }
    assert_eq!(messages, metrics.messages, "per-round messages must sum up");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn progress_coordinator_renders_worker_heartbeats() {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_worker"))
        .args([
            "--n",
            "600",
            "--shards",
            "2",
            "--graph",
            "circulant4",
            "--tail",
            "7",
            "--progress",
            "--stats-every",
            "1",
            "--verify",
        ])
        .output()
        .expect("spawn exp_worker");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "exp_worker --progress failed\nstdout: {stdout}\nstderr: {stderr}"
    );
    // Telemetry is out-of-band: the run still verifies bit-for-bit.
    assert!(stdout.contains("verify: OK"), "missing verify in: {stdout}");
    for shard in 0..2 {
        assert!(
            stderr.contains(&format!("heartbeat: shard {shard} ")),
            "missing shard {shard} heartbeat in stderr: {stderr}"
        );
    }
    assert!(
        stderr.contains("rounds/s"),
        "heartbeat lines must carry a round rate: {stderr}"
    );
}

/// The remote trace capture end to end: a multi-process `exp_worker
/// --trace` run produces one merged Chrome trace with the engine track plus
/// one named, slice-bearing track per worker process, while the run itself
/// still verifies bit-for-bit against the sequential executor.
#[test]
fn exp_worker_trace_merges_one_track_per_worker_process() {
    let dir = tmp_dir("remote");
    let shards = 2u64;
    let trace = dir.join("remote.trace.json");
    let out = Command::new(env!("CARGO_BIN_EXE_exp_worker"))
        .args(["--n", "600", "--shards", &shards.to_string()])
        .args(["--graph", "circulant4", "--tail", "6", "--verify"])
        .args(["--trace", trace.to_str().unwrap()])
        .output()
        .expect("spawn exp_worker");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exp_worker --trace failed\nstdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Tracing is out-of-band: the traced run still verifies.
    assert!(stdout.contains("verify: OK"), "missing verify in: {stdout}");

    let shape = trace_shape(&std::fs::read_to_string(&trace).unwrap());
    let expected: std::collections::BTreeSet<u64> = (0..=shards).collect();
    assert_eq!(shape.pids, expected, "engine pid plus one pid per worker");
    assert_eq!(shape.named_pids, expected, "every track is named");
    assert_eq!(
        shape.worker_starts, shards as usize,
        "one worker_start per shipped worker blob"
    );
    for worker_pid in 1..=shards {
        assert!(
            shape
                .nonzero_slices_by_pid
                .get(&worker_pid)
                .copied()
                .unwrap_or(0)
                > 0,
            "worker pid {worker_pid} has no nonzero-duration slices"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Fault instants survive the same merge path remote traces use: a seeded
/// [`dcme_congest::FaultyTransport`] run captured with a
/// [`dcme_congest::StampedRecorder`], shipped through the stamped codec
/// and ingested into a [`dcme_congest::ChromeTraceSink`], renders
/// `"cat":"fault"` instants on the faulting shard's track.
#[test]
fn fault_instants_survive_the_stamped_merge_path() {
    use dcme_bench::workloads;
    use dcme_congest::{
        decode_stamped, encode_stamped, ChromeTraceSink, DeliveryMode, FaultPlan, FaultyTransport,
        InProcess, RoundSeries, ShardedExecutor, Simulator, SimulatorConfig,
    };
    use std::sync::Arc;

    let n = 400;
    let shards = 2;
    let g = workloads::build_graph("circulant4", n, shards, 7).expect("graph");
    let recorder = Arc::new(dcme_congest::StampedRecorder::new());
    let plan = FaultPlan::none(11).with_drop(80).with_retransmission();
    let builder = FaultyTransport::new(plan, InProcess).with_tracer(recorder.clone());
    Simulator::with_config(
        &g,
        SimulatorConfig {
            max_rounds: 1_000_000,
            ..SimulatorConfig::default()
        },
    )
    .run_with_executor(
        workloads::gossip_nodes(0..n, 6),
        &ShardedExecutor::with_transport(builder).with_delivery(DeliveryMode::Async),
    );

    let stamped = recorder.take();
    assert!(!stamped.is_empty(), "the tracer recorded no fault events");
    // The same wire blob a remote worker would ship, then the same merge.
    let decoded = decode_stamped(&encode_stamped(&stamped)).expect("codec round-trip");
    assert_eq!(decoded, stamped, "stamped events survive the codec");
    let chrome = ChromeTraceSink::new();
    chrome.ingest_stamped(&decoded);
    let mut buf = Vec::new();
    chrome.write_json(&mut buf).expect("render merged trace");
    let shape = trace_shape(&String::from_utf8(buf).expect("utf8 trace"));
    assert!(
        shape.fault_instants > 0,
        "merged trace carries no fault instants"
    );
    // The fault binning reaches the per-round series through replay, too.
    let series = RoundSeries::new();
    chrome.replay_into(&series);
    let faults: u64 = series
        .rows()
        .iter()
        .map(|r| r.dropped + r.retransmitted)
        .sum();
    assert!(faults > 0, "replayed series rows carry no fault counts");
}
