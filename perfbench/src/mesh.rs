//! `gossip-mesh2`: `StaggeredGossip` on a 2·10^6-node random 4-regular
//! circulant, run by `exp_worker --mesh --shards 2` — two worker processes
//! plus a coordinator over TCP loopback.  The benchmark only spawns the
//! binary and reads back what it writes (`--jsonl`, `--trace`).

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use dcme_bench::workloads;
use dcme_congest::{RunMetrics, ShardPlan, ShardSliceTopology};

use crate::spans::Spans;
use crate::{engine_layers, trace, Counts, Sample, Workload, OUT_DIR};

const N: usize = 2_000_000;
const SHARDS: usize = 2;
const GRAPH: &str = "circulant4";
/// A run that takes longer has hung; it is killed and counted as failed.
const DEADLINE: Duration = Duration::from_secs(60);

/// The share of edges the two-shard cut may carry (see [`graph_seed`]).
const CUT_SHARE: std::ops::Range<f64> = 0.47..0.53;

#[derive(Debug)]
pub struct Gossip {
    exe: PathBuf,
    /// The benchmark seed, naming output files.
    seed: u64,
    /// The seed `exp_worker` builds the circulant from.
    graph_seed: u64,
    /// Counters of the one `--verify` run, which every sample must repeat.
    reference: Counts,
}

/// The graph seed for benchmark seed `seed`: the first candidate of a
/// sequence that starts at `seed` whose two-shard cut carries 47–53% of the
/// edges.  A circulant's two random shifts put anywhere from 0 to 100% of
/// its edges across the cut, and that share sets most of the transport
/// work, so without this runs on different seeds would not be comparable.
fn graph_seed(seed: u64) -> Result<u64, String> {
    let mut candidate = seed;
    loop {
        let stream = || workloads::graph_stream(GRAPH, N, candidate);
        let plan = ShardPlan::from_edge_stream(N, SHARDS, stream()?).map_err(|e| e.to_string())?;
        let cut = plan.shard_nodes(0).end;
        let (mut cross, mut all) = (0u64, 0u64);
        stream()?(&mut |u, v| {
            cross += u64::from((u < cut) != (v < cut));
            all += 1;
        });
        if CUT_SHARE.contains(&(cross as f64 / all.max(1) as f64)) {
            return Ok(candidate);
        }
        candidate = candidate.wrapping_add(0x9E37_79B9_7F4A_7C15);
    }
}

impl Gossip {
    /// Picks the graph and makes the `--verify` run, with the `exp_worker`
    /// at `exe`, whose counters every sample must repeat.
    pub fn new(seed: u64, exe: PathBuf) -> Result<Self, String> {
        let mut gossip = Self {
            exe,
            seed,
            graph_seed: graph_seed(seed)?,
            reference: Counts::default(),
        };
        let jsonl = gossip.file("reference.jsonl");
        gossip.spawn(&["--verify", "--jsonl", &jsonl])?;
        let m = read_metrics(Path::new(&jsonl))?;
        gossip.reference = counts(&m);
        Ok(gossip)
    }

    fn file(&self, suffix: &str) -> String {
        format!("{OUT_DIR}/gossip-mesh2-seed{}-{suffix}", self.seed)
    }

    /// Runs the coordinator with the workload's parameters plus `extra`
    /// and waits for it (it waits for its workers) or kills it at the
    /// deadline.
    fn spawn(&self, extra: &[&str]) -> Result<(), String> {
        let (n, shards) = (N.to_string(), SHARDS.to_string());
        let seed = self.graph_seed.to_string();
        let start = Instant::now();
        let mut child = Command::new(&self.exe)
            .args([
                "--n", &n, "--shards", &shards, "--graph", GRAPH, "--seed", &seed,
            ])
            .arg("--mesh")
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", self.exe.display()))?;
        let status = loop {
            if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                break status;
            }
            if start.elapsed() > DEADLINE {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("exp_worker ran past {DEADLINE:?} and was killed"));
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        if status.success() {
            Ok(())
        } else {
            Err(format!("exp_worker exited with {status}"))
        }
    }

    /// The coordinator's plan build and one worker's slice build, called
    /// here as `exp_worker` calls them, each in its own span.
    fn plan_and_slice(&self, id: u32, spans: &mut Spans) -> Result<(), String> {
        let stream = || workloads::graph_stream(GRAPH, N, self.graph_seed);
        let s = spans.open(id, "sharded.plan", None);
        let plan = ShardPlan::from_edge_stream(N, SHARDS, stream()?).map_err(|e| e.to_string());
        spans.close(s);
        let s = spans.open(id, "sharded.slice", None);
        let slice = ShardSliceTopology::build(plan?, 0, stream()?).map_err(|e| e.to_string());
        spans.close(s);
        slice.map(drop)
    }
}

/// Builds the repository's `exp_worker` (a no-op when it is up to date) and
/// returns its path.
pub fn build_exp_worker() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["--manifest-path", "Cargo.toml", "-p", "dcme_bench"])
        .args(["--bin", "exp_worker"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building exp_worker failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    Ok(target.join("release").join("exp_worker"))
}

/// The run's merged metrics: the last row `exp_worker --jsonl` appended.
fn read_metrics(path: &Path) -> Result<RunMetrics, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let line = text
        .lines()
        .last()
        .ok_or("exp_worker wrote no metrics row")?;
    let (_, m) = RunMetrics::from_json(line)?;
    if m.hit_round_cap {
        return Err("hit the round cap".into());
    }
    Ok(m)
}

fn counts(m: &RunMetrics) -> Counts {
    Counts {
        named: vec![
            ("rounds", m.rounds),
            ("messages", m.messages),
            ("total_bits", m.total_bits),
            ("max_message_bits", m.max_message_bits),
            ("cross_shard_messages", m.cross_shard_messages),
            ("wire_bytes", m.wire_bytes_sent),
            ("relayed_bytes", m.relayed_data_bytes),
        ],
        active_per_round: m.active_per_round.clone(),
    }
}

impl Workload for Gossip {
    fn describe(&self) -> String {
        format!(
            "exp_worker --mesh --shards {SHARDS} --graph {GRAPH} --n {N} --seed {} \
             (StaggeredGossip, tail 12, TCP loopback)",
            self.graph_seed
        )
    }

    fn reference(&self) -> Option<Counts> {
        Some(self.reference.clone())
    }

    fn sample(&mut self, id: u32, traced: bool, spans: &mut Spans) -> Sample {
        let jsonl = self.file("sample.jsonl");
        let trace_file = self.file("trace.json");
        let _ = std::fs::remove_file(&jsonl);
        let mut extra = vec!["--jsonl", jsonl.as_str()];
        if traced {
            extra.extend(["--trace", trace_file.as_str()]);
        }

        let root = spans.open(id, "sample", None);
        let s = spans.open(id, "remote.run", Some(root));
        let ran = self.spawn(&extra);
        spans.close(s);
        let s = spans.open(id, "verify.check", Some(root));
        let checked = ran.and_then(|()| read_metrics(Path::new(&jsonl)));
        let verify_s = spans.close(s);
        let wall_s = spans.close(root);

        let mut sample = Sample {
            wall_s,
            verify_s,
            ..Sample::default()
        };
        let m = match checked {
            Ok(m) => m,
            Err(e) => {
                sample.failure = Some(e);
                return sample;
            }
        };
        sample.counts = counts(&m);
        sample.peak_rss_bytes = m.peak_rss_bytes;
        if traced {
            sample.layers = engine_layers(&m);
            let analysed = std::fs::read_to_string(&trace_file)
                .map_err(|e| format!("{trace_file}: {e}"))
                .and_then(|text| trace::analyse(&text));
            match analysed.and_then(|t| self.plan_and_slice(id, spans).map(|()| t)) {
                Ok(t) => sample.layers.extend([
                    ("executor.round_p50_ms", t.rounds.p50_nanos as f64 / 1e6),
                    ("executor.round_max_ms", t.rounds.max_nanos as f64 / 1e6),
                    ("executor.shard_imbalance", t.shard_imbalance),
                    ("transport.drain_s", t.drain_s),
                ]),
                Err(e) => sample.failure = Some(e),
            }
        }
        sample
    }

    fn setup_only(&mut self) -> Option<Result<f64, String>> {
        let start = Instant::now();
        Some(
            self.spawn(&["--max-rounds", "0"])
                .map(|()| start.elapsed().as_secs_f64()),
        )
    }
}
