//! The run-diff tool: compares two JSONL experiment files
//! ([`dcme_congest::RunMetrics`] rows plus `"kind":"round_series"` rows,
//! matched by label) and renders the per-counter / per-round markdown
//! report of [`dcme_bench::diff`] — with `--check`, exits nonzero on any
//! regression, which is the CI gate against the committed
//! `baselines/metrics-baseline.jsonl`.
//!
//! Deterministic counters gate exactly by default (they are bit-pinned by
//! the executor-equivalence guarantee, so the committed baseline holds on
//! any machine); scheduling-dependent counters and the timings are
//! reported but only gate with `--gate-noisy`.  Each counter's class is
//! declared in the counter registry (`dcme_congest::RunMetrics::COUNTERS`,
//! see `dcme_bench::diff`).  A row that does not parse — a counter that is
//! not a `u64`, say — exits 1 with its line number.
//!
//! ```sh
//! # Capture a candidate and gate it against the committed baseline:
//! DCME_METRICS_JSONL=/tmp/candidate.jsonl cargo bench -p dcme_bench ...
//! cargo run -p dcme_bench --bin exp_diff -- \
//!     baselines/metrics-baseline.jsonl /tmp/candidate.jsonl --check
//! ```

use dcme_bench::diff::{diff, RunFile, Tolerance};

struct Args {
    before: std::path::PathBuf,
    after: std::path::PathBuf,
    check: bool,
    tolerance: Tolerance,
}

fn usage() -> ! {
    eprintln!(
        "usage: exp_diff BASELINE.jsonl CANDIDATE.jsonl [--check] [--tolerance PCT] \
         [--gate-noisy PCT]\n\
         \x20      --check        exit 1 if any gated counter regressed\n\
         \x20      --tolerance    allowed % increase on deterministic counters (default 0)\n\
         \x20      --gate-noisy   also gate machine-dependent counters, with this % slack"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut files = Vec::new();
    let mut check = false;
    let mut tolerance = Tolerance::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut pct = |name: &str| -> f64 {
            it.next()
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|p| *p >= 0.0)
                .unwrap_or_else(|| {
                    eprintln!("{name} needs a non-negative percentage");
                    usage()
                })
                / 100.0
        };
        match flag.as_str() {
            "--check" => check = true,
            "--tolerance" => tolerance.counters = pct("--tolerance"),
            "--gate-noisy" => {
                tolerance.gate_noisy = true;
                tolerance.noisy = pct("--gate-noisy");
            }
            f if f.starts_with("--") => usage(),
            _ => files.push(std::path::PathBuf::from(flag)),
        }
    }
    let [before, after] = <[_; 2]>::try_from(files).unwrap_or_else(|_| usage());
    Args {
        before,
        after,
        check,
        tolerance,
    }
}

fn main() {
    let args = parse_args();
    let load = |path: &std::path::Path| -> RunFile {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("exp_diff: {}: {e}", path.display());
            std::process::exit(1);
        });
        RunFile::parse(&text).unwrap_or_else(|e| {
            eprintln!("exp_diff: {}: {e}", path.display());
            std::process::exit(1);
        })
    };
    let report = diff(&load(&args.before), &load(&args.after), &args.tolerance);
    print!("{}", report.to_markdown());
    if args.check {
        if report.regressed() {
            eprintln!("check: REGRESSED");
            std::process::exit(1);
        }
        eprintln!("check: OK");
    }
}
