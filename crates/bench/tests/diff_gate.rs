//! End-to-end smoke of the regression gate: the `exp_diff` binary must
//! report a self-diff as unchanged (exit 0 under `--check`), name exactly
//! the perturbed rows of a doctored candidate (exit 1), and hold the
//! committed `baselines/metrics-baseline.jsonl` to the parse/self-diff
//! invariants CI relies on.

use std::collections::BTreeMap;
use std::process::Command;

use dcme_bench::diff::{diff, RunFile, Tolerance};
use dcme_congest::{JsonValue, RoundRow, RunMetrics};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dcme_diff_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small synthetic experiment file: two labelled metrics rows, one with
/// a round series.
fn sample_jsonl() -> String {
    let mut text = String::new();
    let mut m = RunMetrics {
        rounds: 3,
        messages: 1200,
        total_bits: 9600,
        max_message_bits: 8,
        cross_shard_messages: 300,
        wire_bytes_sent: 4000,
        syscall_batches: 12,
        ..RunMetrics::default()
    };
    m.active_per_round = vec![400, 300, 200];
    text.push_str(&m.to_json("smoke/a"));
    text.push('\n');
    m.messages = 800;
    text.push_str(&m.to_json("smoke/b"));
    text.push('\n');
    for round in 0..3u64 {
        let row = RoundRow {
            round,
            active: 400 - round * 100,
            wall_nanos: 1000 + round,
            messages: 400,
            bits: 3200,
            cross_messages: 100,
            wire_bytes: 1300,
            ..RoundRow::default()
        };
        text.push_str(&row.to_json("smoke/a"));
        text.push('\n');
    }
    text
}

fn run_diff(before: &std::path::Path, after: &std::path::Path) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_diff"))
        .args([before.to_str().unwrap(), after.to_str().unwrap(), "--check"])
        .output()
        .expect("spawn exp_diff");
    (
        out.status.success(),
        format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        ),
    )
}

#[test]
fn self_diff_passes_and_perturbation_is_reported_exactly() {
    let dir = tmp_dir("gate");
    let base = dir.join("base.jsonl");
    std::fs::write(&base, sample_jsonl()).unwrap();

    let (ok, report) = run_diff(&base, &base);
    assert!(ok, "self-diff must pass --check:\n{report}");
    assert!(report.contains("verdict: unchanged"), "{report}");
    assert!(report.contains("check: OK"), "{report}");

    // Perturb one counter and one series row; the report must name both
    // exactly and the gate must fire.
    let doctored = sample_jsonl()
        .replace("\"messages\":1200", "\"messages\":1201")
        .replace("\"round\":2,\"active\":200", "\"round\":2,\"active\":201");
    let cand = dir.join("cand.jsonl");
    std::fs::write(&cand, doctored).unwrap();
    let (ok, report) = run_diff(&base, &cand);
    assert!(!ok, "perturbed candidate must fail --check:\n{report}");
    assert!(
        report.contains("| messages | yes | 1200 | 1201 | +1 |"),
        "exact counter row missing:\n{report}"
    );
    assert!(
        report.contains("round 2: active 200 -> 201"),
        "exact changed round missing:\n{report}"
    );
    assert!(report.contains("check: REGRESSED"), "{report}");

    // Losing a label gates; gaining one does not.
    let shrunk: String = sample_jsonl()
        .lines()
        .filter(|l| !l.contains("smoke/b"))
        .map(|l| format!("{l}\n"))
        .collect();
    let partial = dir.join("partial.jsonl");
    std::fs::write(&partial, shrunk).unwrap();
    let (ok, report) = run_diff(&base, &partial);
    assert!(!ok, "lost coverage must fail --check:\n{report}");
    assert!(report.contains("only in baseline"), "{report}");
    let (ok, report) = run_diff(&partial, &base);
    assert!(ok, "new coverage must pass --check:\n{report}");
    assert!(report.contains("only in candidate"), "{report}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A report-only counter that rose past its threshold is named as such,
/// and a passing check prints no `REGRESSED` anywhere.
#[test]
fn report_only_rows_past_the_threshold_are_not_called_regressions() {
    let dir = tmp_dir("report_only");
    let base = dir.join("base.jsonl");
    std::fs::write(&base, sample_jsonl()).unwrap();
    let noisy = sample_jsonl().replacen(
        "\"transport_flush_nanos\":0,",
        "\"transport_flush_nanos\":9062,",
        1,
    );
    let cand = dir.join("cand.jsonl");
    std::fs::write(&cand, noisy).unwrap();
    let (ok, report) = run_diff(&base, &cand);
    assert!(ok, "a report-only rise must pass --check:\n{report}");
    assert!(report.contains("check: OK"), "{report}");
    assert!(
        report.contains(
            "| transport_flush_nanos | no | 0 | 9062 | +9062 | above +20% (report-only) |"
        ),
        "report-only row missing:\n{report}"
    );
    assert!(!report.contains("REGRESSED"), "{report}");
    std::fs::remove_dir_all(&dir).ok();
}

fn committed_baseline() -> (std::path::PathBuf, String) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../baselines/metrics-baseline.jsonl");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed baseline {}: {e}", path.display()));
    (path, text)
}

/// A JSON object's members as a key-sorted map, so two renderings compare
/// by keys and values whatever their key order.
fn members(line: &str) -> BTreeMap<String, JsonValue> {
    JsonValue::parse(line)
        .expect("valid JSON")
        .as_object()
        .expect("an object")
        .iter()
        .cloned()
        .collect()
}

/// The committed baseline itself: parseable, label-complete, re-rendered
/// with every committed key and value, and clean under self-diff — the
/// invariants the CI regression-gate step assumes.
#[test]
fn committed_baseline_parses_and_self_diffs_clean() {
    let (_, text) = committed_baseline();
    for line in text.lines() {
        let (label, m) = RunMetrics::from_json(line).expect("committed row must parse");
        assert_eq!(members(&m.to_json(&label)), members(line), "{label}");
    }
    let file = RunFile::parse(&text).expect("committed baseline must parse");
    assert!(
        file.metrics.len() >= 10,
        "baseline should cover the smoke-bench labels, found {}",
        file.metrics.len()
    );
    for label in [
        "ring/n20000/seq",
        "circulant4/n20000/shards4/socket-tcp",
        "exp_worker/circulant4/n20000/shards4/mesh",
    ] {
        assert!(
            file.metrics.contains_key(label),
            "baseline is missing the {label} row"
        );
    }
    let report = diff(&file, &file, &Tolerance::default());
    assert!(!report.regressed(), "baseline must self-diff clean");
}

/// A malformed value in a candidate fails the gate with an error naming its
/// line and key; it is never read as 0, which would pass as "improved".
#[test]
fn malformed_candidate_values_fail_the_gate() {
    let (path, text) = committed_baseline();
    let mut candidate = text.clone();
    for (label, key, from, to) in [
        ("ring/n20000/seq", "messages", "201230,", "\"201230\","),
        ("ring/n20000/sharded4", "messages", "201230,", "-1,"),
        ("luby/n400/d8", "rounds", "7,", "7.0,"),
    ] {
        let row = format!("\"label\":\"{label}\"");
        let line = text.lines().find(|l| l.contains(&row)).unwrap();
        let bad = line.replacen(&format!("\"{key}\":{from}"), &format!("\"{key}\":{to}"), 1);
        assert_ne!(bad, line, "{label} has no {key}:{from}");
        let err = RunFile::parse(&bad).unwrap_err();
        let named = format!("line 1: \"{key}\" is not a u64");
        assert!(err.contains(&named), "{label}: {err}");
        candidate = candidate.replacen(line, &bad, 1);
    }
    let dir = tmp_dir("malformed");
    let cand = dir.join("cand.jsonl");
    std::fs::write(&cand, candidate).unwrap();
    let (ok, report) = run_diff(&path, &cand);
    assert!(!ok, "a malformed candidate must fail --check:\n{report}");
    assert!(
        report.contains("line 1: \"messages\" is not a u64"),
        "{report}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
