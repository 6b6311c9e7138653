//! The run-diff engine: compares two JSONL experiment files
//! ([`dcme_congest::RunMetrics`] rows plus optional `"kind":"round_series"`
//! rows), matched by label, and renders per-counter deltas with typed
//! verdicts — the analysis half of the regression gate behind
//! `exp_diff --check`.
//!
//! # What gates and what merely reports
//!
//! Each counter's class is declared once, beside the field, in the
//! registries of `dcme_congest`: [`RunMetrics::COUNTERS`] for metrics rows
//! and [`RoundRow::FIELDS`] for round-series rows, each entry with its
//! [`Gate`].  The engine compares every declared counter in that order,
//! after `rounds` and `hit_round_cap` and before `phase_total_nanos` (the
//! sum of `phase_nanos`), and a run's `active_per_round` schedule:
//!
//! * **[`Gate::Exact`] counters** (and `rounds`, `hit_round_cap` and the
//!   schedule) are pure functions of the workload — the
//!   executor-equivalence guarantee pins them bit-for-bit across
//!   machines.  These **gate**: any increase beyond the tolerance is
//!   [`Verdict::Regressed`].
//! * **[`Gate::Noisy`] counters** (and `phase_total_nanos`) depend on the
//!   kernel, the scheduler and the host — a committed baseline cannot pin
//!   them across machines.  These are **report-only** by default (a
//!   report-only row past its threshold reads `above +N% (report-only)`,
//!   never `REGRESSED`); [`Tolerance::gate_noisy`] opts them into the gate
//!   with their own (looser) threshold for same-machine A/B runs.
//!
//! Round-series rows diff per round on their exact fields; the noisy
//! `wall_nanos` never gates and is summarized as a p50/p95/max shift
//! instead.
//!
//! Lower is better for every gated counter, so a decrease is
//! [`Verdict::Improved`], equality (or an increase within tolerance) is
//! [`Verdict::Unchanged`], and an increase beyond tolerance is
//! [`Verdict::Regressed`] carrying the threshold that fired.  A label
//! present in the baseline but missing from the candidate is a regression
//! (lost coverage); a label only in the candidate is new coverage and
//! never gates.
//!
//! Files may contain repeated labels (appended runs): the **last** row per
//! label wins, and the last series row per `(label, round)` wins —
//! matching "rerun and re-append" workflows.

use std::collections::BTreeMap;

use dcme_congest::{Gate, JsonValue, RoundRow, RunMetrics, SeriesSummary};

/// What the gate permits before calling a counter increase a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Allowed fractional increase on deterministic counters
    /// (`0.0` = exact, the default: these are bit-pinned by the
    /// executor-equivalence guarantee, so any growth is real).
    pub counters: f64,
    /// Also gate the machine-dependent [`Gate::Noisy`] counters and the
    /// phase timings?  Off by default so a committed baseline stays robust
    /// across machines.
    pub gate_noisy: bool,
    /// Allowed fractional increase on noisy counters when
    /// [`Tolerance::gate_noisy`] is set (default 20%).
    pub noisy: f64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            counters: 0.0,
            gate_noisy: false,
            noisy: 0.20,
        }
    }
}

/// The typed outcome of one counter (or one run) comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// The counter decreased (lower is better for every gated counter).
    Improved,
    /// Equal, or increased within the permitted tolerance.
    Unchanged,
    /// Increased beyond the permitted tolerance.
    Regressed {
        /// The fractional increase that was permitted when the gate fired.
        allowed: f64,
    },
}

impl Verdict {
    /// Is this verdict a gate failure?
    pub fn is_regression(self) -> bool {
        matches!(self, Verdict::Regressed { .. })
    }

    fn of(before: u64, after: u64, allowed: f64) -> Verdict {
        if after == before {
            Verdict::Unchanged
        } else if after < before {
            Verdict::Improved
        } else if (after as f64) <= (before as f64) * (1.0 + allowed) {
            Verdict::Unchanged
        } else {
            Verdict::Regressed { allowed }
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Improved => write!(f, "improved"),
            Verdict::Unchanged => write!(f, "unchanged"),
            Verdict::Regressed { allowed } => {
                write!(f, "REGRESSED (allowed +{:.0}%)", allowed * 100.0)
            }
        }
    }
}

/// One counter's before/after pair with its verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterDelta {
    /// The [`RunMetrics`] field name (or `phase_total_nanos`).
    pub name: &'static str,
    /// Baseline value.
    pub before: u64,
    /// Candidate value.
    pub after: u64,
    /// Does this counter participate in the regression gate?
    pub gated: bool,
    /// The comparison outcome.
    pub verdict: Verdict,
}

/// One round whose deterministic per-round fields differ, with exactly the
/// fields that changed as `(name, before, after)` triples.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundDelta {
    /// The 0-based round number.
    pub round: u64,
    /// The changed fields (never empty, never includes `wall_nanos`).
    pub fields: Vec<(&'static str, u64, u64)>,
}

/// The per-round comparison of one label's round series.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesDiff {
    /// The baseline series' round count and wall-time percentiles (the
    /// percentiles are report-only, never gate).
    pub wall_before: SeriesSummary,
    /// The candidate series' round count and wall-time percentiles.
    pub wall_after: SeriesSummary,
    /// Exactly the rounds whose deterministic fields differ.  A round
    /// present on only one side diffs against an all-zero row.  Non-empty
    /// is a gate failure.
    pub changed_rounds: Vec<RoundDelta>,
}

/// The comparison of one label present in both files.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDiff {
    /// The shared run label.
    pub label: String,
    /// Every counter's before/after/verdict, in schema order.
    pub counters: Vec<CounterDelta>,
    /// First index where the `active_per_round` schedules diverge
    /// (or `min(len)` on a pure length mismatch).  `Some` gates.
    pub active_mismatch: Option<usize>,
    /// Present when both files carry series rows for this label.
    pub series: Option<SeriesDiff>,
    /// Set when exactly one side has series rows (report-only).
    pub series_note: Option<String>,
}

impl RunDiff {
    /// Did any gated comparison of this run fail?
    pub fn regressed(&self) -> bool {
        self.counters
            .iter()
            .any(|c| c.gated && c.verdict.is_regression())
            || self.active_mismatch.is_some()
            || self
                .series
                .as_ref()
                .is_some_and(|s| !s.changed_rounds.is_empty())
    }
}

/// One parsed JSONL experiment file: the last [`RunMetrics`] row per label
/// and the last series row per `(label, round)`.
#[derive(Debug, Clone, Default)]
pub struct RunFile {
    /// Metrics rows by label (keep-last).
    pub metrics: BTreeMap<String, RunMetrics>,
    /// Series rows by label, then round (keep-last).
    pub series: BTreeMap<String, BTreeMap<u64, RoundRow>>,
}

impl RunFile {
    /// Parses JSONL text, classifying each line by shape: round-series
    /// rows by their `"kind":"round_series"` tag, metrics rows by their
    /// `"label"`, and table rows (neither) ignored.  Malformed JSON, or a
    /// series or metrics row that does not parse (a counter that is not a
    /// `u64`, say), is an error carrying the 1-based line number.
    pub fn parse(text: &str) -> Result<RunFile, String> {
        let mut out = RunFile::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let at = |e: String| format!("line {}: {e}", i + 1);
            let v = JsonValue::parse(line).map_err(|e| at(e.to_string()))?;
            if v.get("kind").and_then(JsonValue::as_str) == Some("round_series") {
                let (label, row) = RoundRow::from_json(line).map_err(at)?;
                out.series.entry(label).or_default().insert(row.round, row);
            } else if v.get("label").is_some() {
                let (label, m) = RunMetrics::from_json(line).map_err(at)?;
                out.metrics.insert(label, m);
            }
        }
        Ok(out)
    }
}

/// The full comparison of two [`RunFile`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Per-label comparisons, label-sorted.
    pub runs: Vec<RunDiff>,
    /// Labels only the baseline has — lost coverage, gates.
    pub only_before: Vec<String>,
    /// Labels only the candidate has — new coverage, never gates.
    pub only_after: Vec<String>,
}

impl DiffReport {
    /// Did any gated comparison fail anywhere?
    pub fn regressed(&self) -> bool {
        !self.only_before.is_empty() || self.runs.iter().any(RunDiff::regressed)
    }

    /// The whole report's verdict: [`Verdict::Regressed`] if anything
    /// gated fired, [`Verdict::Improved`] if at least one gated counter
    /// improved and nothing regressed, [`Verdict::Unchanged`] otherwise.
    pub fn verdict(&self) -> Verdict {
        if self.regressed() {
            return Verdict::Regressed { allowed: 0.0 };
        }
        let improved = self.runs.iter().any(|r| {
            r.counters
                .iter()
                .any(|c| c.gated && c.verdict == Verdict::Improved)
        });
        if improved {
            Verdict::Improved
        } else {
            Verdict::Unchanged
        }
    }

    /// Renders the report as a markdown document: one table per label
    /// listing the counters whose values changed (all-unchanged labels get
    /// a single line), the series summary shift and the exact changed
    /// rounds.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("# Run diff\n\n");
        out.push_str(&format!(
            "- runs compared: {}\n- verdict: {}\n",
            self.runs.len(),
            self.verdict(),
        ));
        if !self.only_before.is_empty() {
            out.push_str(&format!(
                "- only in baseline (lost coverage, REGRESSED): {}\n",
                self.only_before.join(", ")
            ));
        }
        if !self.only_after.is_empty() {
            out.push_str(&format!(
                "- only in candidate (new coverage): {}\n",
                self.only_after.join(", ")
            ));
        }
        for run in &self.runs {
            out.push_str(&format!("\n## {}\n\n", run.label));
            let changed: Vec<&CounterDelta> = run
                .counters
                .iter()
                .filter(|c| c.before != c.after)
                .collect();
            if changed.is_empty() {
                out.push_str("all counters unchanged\n");
            } else {
                out.push_str("| counter | gated | baseline | candidate | delta | verdict |\n");
                out.push_str("|---|---|---:|---:|---:|---|\n");
                for c in changed {
                    // A report-only row never gates, so it is never called
                    // a regression.
                    let verdict = match c.verdict {
                        Verdict::Regressed { allowed } if !c.gated => {
                            format!("above +{:.0}% (report-only)", allowed * 100.0)
                        }
                        verdict => verdict.to_string(),
                    };
                    out.push_str(&format!(
                        "| {} | {} | {} | {} | {:+} | {} |\n",
                        c.name,
                        if c.gated { "yes" } else { "no" },
                        c.before,
                        c.after,
                        c.after as i128 - c.before as i128,
                        verdict,
                    ));
                }
            }
            if let Some(at) = run.active_mismatch {
                out.push_str(&format!(
                    "\nactive_per_round schedules diverge at round {at} (REGRESSED)\n"
                ));
            }
            if let Some(s) = &run.series {
                out.push_str(&format!(
                    "\nseries: {} -> {} rounds; wall p50 {} -> {} ns, p95 {} -> {} ns, \
                     max {} -> {} ns (report-only)\n",
                    s.wall_before.rounds,
                    s.wall_after.rounds,
                    s.wall_before.p50_nanos,
                    s.wall_after.p50_nanos,
                    s.wall_before.p95_nanos,
                    s.wall_after.p95_nanos,
                    s.wall_before.max_nanos,
                    s.wall_after.max_nanos,
                ));
                if s.changed_rounds.is_empty() {
                    out.push_str("series rows unchanged\n");
                } else {
                    out.push_str(&format!(
                        "{} changed round(s) (REGRESSED):\n",
                        s.changed_rounds.len()
                    ));
                    for r in &s.changed_rounds {
                        let fields: Vec<String> = r
                            .fields
                            .iter()
                            .map(|(name, b, a)| format!("{name} {b} -> {a}"))
                            .collect();
                        out.push_str(&format!("- round {}: {}\n", r.round, fields.join(", ")));
                    }
                }
            }
            if let Some(note) = &run.series_note {
                out.push_str(&format!("\n{note}\n"));
            }
        }
        out
    }
}

/// Every counter of one metrics row, in report order, with its gate class:
/// the run-shape counters around the registry's.
fn counter_values(m: &RunMetrics) -> Vec<(&'static str, u64, Gate)> {
    let mut values = vec![
        ("rounds", m.rounds, Gate::Exact),
        ("hit_round_cap", m.hit_round_cap as u64, Gate::Exact),
    ];
    values.extend(
        RunMetrics::COUNTERS
            .iter()
            .map(|c| (c.key, (c.get)(m), c.gate)),
    );
    values.push(("phase_total_nanos", m.phase_nanos.total(), Gate::Noisy));
    values
}

/// The exact per-round fields (everything but `round` and `wall_nanos`).
fn row_fields(r: &RoundRow) -> impl Iterator<Item = (&'static str, u64)> + '_ {
    RoundRow::FIELDS
        .iter()
        .filter(|f| f.gate == Gate::Exact)
        .map(move |f| (f.key, (f.get)(r)))
}

fn diff_series(before: &BTreeMap<u64, RoundRow>, after: &BTreeMap<u64, RoundRow>) -> SeriesDiff {
    let mut rounds: Vec<u64> = before.keys().chain(after.keys()).copied().collect();
    rounds.sort_unstable();
    rounds.dedup();
    let zero = RoundRow::default();
    let mut changed_rounds = Vec::new();
    for round in rounds {
        let b = before.get(&round).unwrap_or(&zero);
        let a = after.get(&round).unwrap_or(&zero);
        let fields: Vec<(&'static str, u64, u64)> = row_fields(b)
            .zip(row_fields(a))
            .filter(|((_, bv), (_, av))| bv != av)
            .map(|((name, bv), (_, av))| (name, bv, av))
            .collect();
        if !fields.is_empty() {
            changed_rounds.push(RoundDelta { round, fields });
        }
    }
    let wall = |rows: &BTreeMap<u64, RoundRow>| {
        SeriesSummary::of(rows.values().map(|r| r.wall_nanos).collect())
    };
    SeriesDiff {
        wall_before: wall(before),
        wall_after: wall(after),
        changed_rounds,
    }
}

/// Compares two parsed files label by label.
pub fn diff(before: &RunFile, after: &RunFile, tol: &Tolerance) -> DiffReport {
    let mut runs = Vec::new();
    let mut only_before = Vec::new();
    for (label, b) in &before.metrics {
        let Some(a) = after.metrics.get(label) else {
            only_before.push(label.clone());
            continue;
        };
        let counters = counter_values(b)
            .into_iter()
            .zip(counter_values(a))
            .map(|((name, bv, gate), (_, av, _))| {
                let deterministic = gate == Gate::Exact;
                let gated = deterministic || tol.gate_noisy;
                let allowed = if deterministic {
                    tol.counters
                } else {
                    tol.noisy
                };
                CounterDelta {
                    name,
                    before: bv,
                    after: av,
                    gated,
                    verdict: if gated {
                        Verdict::of(bv, av, allowed)
                    } else {
                        // Report-only counters still get a readable verdict
                        // against the noisy threshold; it never gates.
                        Verdict::of(bv, av, tol.noisy)
                    },
                }
            })
            .collect();
        let active_mismatch = if b.active_per_round == a.active_per_round {
            None
        } else {
            Some(
                b.active_per_round
                    .iter()
                    .zip(&a.active_per_round)
                    .position(|(x, y)| x != y)
                    .unwrap_or_else(|| b.active_per_round.len().min(a.active_per_round.len())),
            )
        };
        let (series, series_note) = match (before.series.get(label), after.series.get(label)) {
            (Some(b), Some(a)) => (Some(diff_series(b, a)), None),
            (Some(_), None) => (
                None,
                Some("series rows only in baseline (not compared)".to_string()),
            ),
            (None, Some(_)) => (
                None,
                Some("series rows only in candidate (not compared)".to_string()),
            ),
            (None, None) => (None, None),
        };
        runs.push(RunDiff {
            label: label.clone(),
            counters,
            active_mismatch,
            series,
            series_note,
        });
    }
    let only_after = after
        .metrics
        .keys()
        .filter(|l| !before.metrics.contains_key(*l))
        .cloned()
        .collect();
    DiffReport {
        runs,
        only_before,
        only_after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_file() -> String {
        let mut m = RunMetrics {
            rounds: 8,
            messages: 40232,
            total_bits: 401408,
            max_message_bits: 11,
            intra_shard_messages: 2738,
            cross_shard_messages: 37494,
            wire_bytes_sent: 483751,
            syscall_batches: 48,
            peak_rss_bytes: 3_600_384,
            ..RunMetrics::default()
        };
        m.active_per_round = vec![2000, 1717, 1434];
        let mut text = String::new();
        text.push_str(&m.to_json("run/a"));
        text.push('\n');
        m.messages = 9600;
        m.active_per_round = vec![600, 600];
        text.push_str(&m.to_json("run/b"));
        text.push('\n');
        // A table row: valid JSON without "label" — classified and ignored.
        text.push_str("{\"table\":\"ET: transports\",\"rounds\":\"8\"}\n");
        for (round, wall) in [(0u64, 700u64), (1, 300), (2, 450)] {
            let row = RoundRow {
                round,
                active: 2000 - round * 300,
                wall_nanos: wall,
                messages: 8000,
                bits: 79812,
                cross_messages: 7458,
                wire_bytes: 96145,
                ..RoundRow::default()
            };
            text.push_str(&row.to_json("run/a"));
            text.push('\n');
        }
        text
    }

    #[test]
    fn parse_classifies_rows_and_rejects_garbage() {
        let file = RunFile::parse(&sample_file()).expect("parse");
        assert_eq!(file.metrics.len(), 2, "two labelled metrics rows");
        assert_eq!(file.series["run/a"].len(), 3, "three series rows");
        assert!(!file.series.contains_key("run/b"));
        let err = RunFile::parse("{\"label\":\"x\"}\nnot json\n").unwrap_err();
        assert!(err.contains("line 2"), "error names the line: {err}");
    }

    #[test]
    fn self_diff_is_unchanged_everywhere() {
        let file = RunFile::parse(&sample_file()).expect("parse");
        let report = diff(&file, &file, &Tolerance::default());
        assert_eq!(report.runs.len(), 2);
        assert!(!report.regressed());
        assert_eq!(report.verdict(), Verdict::Unchanged);
        for run in &report.runs {
            assert!(run.counters.iter().all(|c| c.verdict == Verdict::Unchanged));
            assert_eq!(run.active_mismatch, None);
            if let Some(s) = &run.series {
                assert!(s.changed_rounds.is_empty());
            }
        }
        assert!(report.to_markdown().contains("all counters unchanged"));
    }

    #[test]
    fn perturbed_counters_and_rows_are_reported_exactly() {
        let base = RunFile::parse(&sample_file()).expect("parse");
        let mut cand = base.clone();
        cand.metrics.get_mut("run/a").unwrap().messages += 5;
        cand.metrics.get_mut("run/b").unwrap().wire_bytes_sent -= 100;
        let row = cand.series.get_mut("run/a").unwrap().get_mut(&1).unwrap();
        row.bits = 80000;
        row.wall_nanos = 999; // never gates, never listed

        let report = diff(&base, &cand, &Tolerance::default());
        assert!(report.regressed());
        let a = &report.runs[0];
        let messages = a.counters.iter().find(|c| c.name == "messages").unwrap();
        assert_eq!(
            (messages.before, messages.after),
            (40232, 40237),
            "exact before/after"
        );
        assert!(messages.verdict.is_regression());
        let changed = &a.series.as_ref().unwrap().changed_rounds;
        assert_eq!(changed.len(), 1, "exactly the perturbed row");
        assert_eq!(changed[0].round, 1);
        assert_eq!(changed[0].fields, vec![("bits", 79812, 80000)]);

        // run/b only improved — its wire bytes dropped.
        let b = &report.runs[1];
        assert!(!b.regressed());
        let wire = b
            .counters
            .iter()
            .find(|c| c.name == "wire_bytes_sent")
            .unwrap();
        assert_eq!(wire.verdict, Verdict::Improved);

        let md = report.to_markdown();
        assert!(
            md.contains("| messages | yes | 40232 | 40237 | +5 |"),
            "{md}"
        );
        assert!(md.contains("round 1: bits 79812 -> 80000"), "{md}");
    }

    #[test]
    fn tolerance_and_noisy_gating_behave() {
        let base = RunFile::parse(&sample_file()).expect("parse");
        let mut cand = base.clone();
        {
            let m = cand.metrics.get_mut("run/a").unwrap();
            m.wire_bytes_sent += m.wire_bytes_sent / 20; // +5%
            m.peak_rss_bytes *= 2; // noisy, huge jump
        }
        // Exact gate: +5% on a deterministic counter fires.
        assert!(diff(&base, &cand, &Tolerance::default()).regressed());
        // 10% slack absorbs it; the noisy doubling still doesn't gate.
        let loose = Tolerance {
            counters: 0.10,
            ..Tolerance::default()
        };
        assert!(!diff(&base, &cand, &loose).regressed());
        // Opting noisy counters in catches the doubling.
        let strict = Tolerance {
            counters: 0.10,
            gate_noisy: true,
            noisy: 0.20,
        };
        let report = diff(&base, &cand, &strict);
        assert!(report.regressed());
        let rss = report.runs[0]
            .counters
            .iter()
            .find(|c| c.name == "peak_rss_bytes")
            .unwrap();
        assert!(rss.gated && rss.verdict.is_regression());
    }

    #[test]
    fn coverage_changes_gate_asymmetrically() {
        let base = RunFile::parse(&sample_file()).expect("parse");
        let mut shrunk = base.clone();
        shrunk.metrics.remove("run/b");
        let report = diff(&base, &shrunk, &Tolerance::default());
        assert_eq!(report.only_before, vec!["run/b".to_string()]);
        assert!(report.regressed(), "lost coverage gates");
        // The mirror direction — new labels — never gates.
        let report = diff(&shrunk, &base, &Tolerance::default());
        assert_eq!(report.only_after, vec!["run/b".to_string()]);
        assert!(!report.regressed());
    }

    #[test]
    fn active_schedule_divergence_is_located() {
        let base = RunFile::parse(&sample_file()).expect("parse");
        let mut cand = base.clone();
        cand.metrics.get_mut("run/a").unwrap().active_per_round[2] = 9;
        let report = diff(&base, &cand, &Tolerance::default());
        assert_eq!(report.runs[0].active_mismatch, Some(2));
        assert!(report.regressed());
    }
}
