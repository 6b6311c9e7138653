//! Experiment harness: workload definitions, per-experiment runners and table
//! formatting.
//!
//! Every theorem/claim of the paper has one experiment (E1–E12, see DESIGN.md
//! for the index).  Each runner in [`experiments`] produces a [`table::Table`]
//! whose rows are exactly what `exp_all --only ID` prints and what
//! EXPERIMENTS.md records; the Criterion benches in `benches/` reuse the
//! same runners on smaller instances to track wall-clock performance of the
//! simulator + algorithms.  The transport backends get their own table
//! ([`experiments::transport_backends`], `exp_all --only ET`), the
//! randomized baselines their fixed-seed cross-executor table
//! ([`experiments::eb_randomized_baselines`], `exp_all --only EB`)
//! and wall-clock bench (`baselines_randomized`,
//! `BASELINES_RANDOMIZED_SMOKE=1` for CI), the fault-injection survival
//! matrix its table and replay tool
//! ([`experiments::ef_fault_injection`], `exp_faults`, `FAULTS_SMOKE=1`
//! for CI, `--replay '<plan-spec>'` to reproduce a recorded run), and the
//! multi-process socket backend its own binary (`exp_worker`, which both
//! coordinates and serves, with data frames on a direct worker↔worker mesh
//! — see its `--help`).
//!
//! # The JSON-lines schema
//!
//! Two row shapes are emitted, both one self-contained JSON object per line:
//!
//! **Table rows** (`exp_all --jsonl PATH`, or `exp_faults`): every cell of
//! every table, keyed by its column header plus a `"table"` tag.  Cells are
//! strings (rows are self-describing, not typed):
//!
//! ```json
//! {"table":"ET: transport backends ...","graph":"ring(n=600)","backend":"sharded+socket(tcp)",
//!  "rounds":"8","messages":"9600","cross-shard":"24","wire bytes":"4310","flush ms":"0.11"}
//! ```
//!
//! **RunMetrics rows** (`DCME_METRICS_JSONL=PATH` for the `engine_*`
//! benches, or any [`dcme_congest::JsonLinesWriter::append`] caller): the
//! fields of one [`dcme_congest::RunMetrics`], keyed by the struct's field
//! names and tagged with a `"label"`: `rounds` and `hit_round_cap`, then
//! every counter of the counter registry
//! ([`dcme_congest::RunMetrics::COUNTERS`]) in its order, then the
//! per-round schedule and the timings:
//!
//! ```json
//! {"label":"ring/n20000/sharded4","rounds":16,"hit_round_cap":false,"messages":833568,
//!  "total_bits":12015224,"max_message_bits":15,"intra_shard_messages":833540,
//!  "cross_shard_messages":28,"wire_bytes_sent":3584,"transport_flush_nanos":113917,
//!  "syscall_batches":96,"faults_dropped":0,"faults_duplicated":0,"faults_delayed":0,
//!  "faults_retransmitted":0,"stale_overwrites":0,
//!  "peak_rss_bytes":0,"relayed_data_bytes":0,
//!  "active_per_round":[20000,…],"phase_nanos":{"send":…,"deliver":…,"receive":…},
//!  "shard_phase_nanos":[{…},…]}
//! ```
//!
//! `syscall_batches` counts the kernel write batches the cross-shard socket
//! transport issued (one per successful `write(2)`; a whole round's frames
//! coalesced into one write count once).  Zero for in-memory backends, and —
//! like the two timing counters — scheduling-dependent, so exempt from the
//! executor-equivalence guarantee.
//!
//! `phase_nanos` covers only the three engine phases; the transport's frame
//! sealing and flushing time, measured inside the transport, lies outside
//! it, in `transport_flush_nanos`.
//!
//! **Round-series rows** (`exp_trace --series PATH`, or any
//! [`dcme_congest::RoundSeries::write_jsonl`] caller): one row per round of
//! one run, tagged `"kind":"round_series"` to keep the shapes distinguishable
//! in a shared file:
//!
//! ```json
//! {"kind":"round_series","label":"circulant4/n2000/sharded4","round":3,"active":1480,
//!  "wall_nanos":52114,"messages":5920,"bits":88800,"cross_messages":12,"wire_bytes":1536}
//! ```
//!
//! Both row shapes round-trip: [`dcme_congest::RunMetrics::from_json`] and
//! [`dcme_congest::RoundRow::from_json`] parse emitted lines back (pinned by
//! field-for-field equality tests), so schema drift fails loudly instead of
//! silently corrupting analyses.  A missing key reads as zero, but a present
//! value of the wrong type (a counter that is not a `u64`) is an error that
//! names the key.
//!
//! `relayed_data_bytes` counted the data-frame bytes a multi-process
//! coordinator forwarded between workers on the relay plane, which is
//! gone: workers exchange data frames peer-to-peer, so it is always `0`,
//! and the key stays because keys are only added.  `peak_rss_bytes` is the
//! maximum per-process high-water RSS (`VmHWM`) across the coordinator and
//! the worker processes of an `exp_worker` run — a measurement, `0` for
//! in-process executors (threads share one address space, and a
//! process-wide value would break byte-identical metric replays) and on
//! platforms without `/proc/self/status`.
//!
//! Keys are only ever **added**, never renamed or removed (`wire_bytes_sent` and
//! `transport_flush_nanos` arrived with the transport subsystem,
//! `syscall_batches` with the overlapped socket drain, the five
//! `faults_*`/`stale_overwrites` counters with the fault-injection harness
//! — see [`experiments::ef_fault_injection`] and the `exp_faults` binary —
//! `relayed_data_bytes`/`peak_rss_bytes` with the scale-out data
//! mesh, and the per-round fault counters on round-series rows with the
//! run-diff engine; `hit_round_cap` moved up beside `rounds` when the
//! counter registry came), so rows stay parseable across versions;
//! consumers must ignore unknown keys and must not rely on key order.
//!
//! # The committed baseline and the regression gate
//!
//! `baselines/metrics-baseline.jsonl` (repo root) is a checked-in file of
//! exactly these rows, captured from the CI-sized smoke benches
//! (`ENGINE_SCALING_SMOKE=1` / `ENGINE_SHARDING_SMOKE=1` /
//! `ENGINE_TRANSPORT_SMOKE=1` with `DCME_METRICS_JSONL` set).  The
//! [`diff`] module compares a fresh capture against it, matched by label:
//! the counters whose registry entry says [`dcme_congest::Gate::Exact`],
//! with `rounds`, `hit_round_cap` and the `active_per_round` schedule,
//! must match **exactly** — they are pinned by the executor-equivalence
//! guarantee, so the committed file is machine-independent — while the
//! [`dcme_congest::Gate::Noisy`] counters and the timings are reported but
//! never gate by default.  Each comparison yields a typed
//! [`diff::Verdict`]: `Improved` (the counter went down), `Unchanged`
//! (equal, or within the configured [`diff::Tolerance`]), or
//! `Regressed` carrying the threshold that fired.  `exp_diff
//! BASELINE CANDIDATE --check` renders the markdown report and exits
//! nonzero on any regression — the CI ratchet.  After an intentional
//! change (an algorithm or wire-format improvement shifts the
//! deterministic counters), re-capture and re-commit the baseline in the
//! same PR, with the diff report in the PR description.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod experiments;
pub mod table;
pub mod workloads;

pub use table::Table;
