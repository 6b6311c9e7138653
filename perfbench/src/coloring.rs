//! The two in-process workloads: the paper's Δ+1 pipeline on the sequential
//! executor (`delta1-seq`) and HNT Ultrafast on two shard threads
//! (`hnt-threads2`).  Both run in this process, so every layer is timed
//! around a direct call into the library.

use dcme_baselines::ultrafast::{self, UltrafastNode};
use dcme_coloring::trial::{self, TrialConfig};
use dcme_coloring::{elimination, linial, pipeline, ColoringError};
use dcme_congest::{
    process_peak_rss_bytes, ChromeTraceSink, ExecutionMode, Fanout, RoundSeries, RunMetrics,
    ShardedExecutor, ShardedTopology, Simulator, SimulatorConfig, Topology, TraceSink,
};
use dcme_graphs::{generators, verify, Coloring};

use crate::spans::{Open, Spans};
use crate::{engine_layers, trace, Counts, Sample, Workload};

/// Degree of both workloads' random regular graphs.
const DEGREE: usize = 16;

/// Checks that `c` is a proper coloring of `g` within Δ+1 colors and
/// returns how many distinct colors it uses.
fn verify_coloring(g: &Topology, c: &Coloring) -> Result<u64, String> {
    verify::check_proper(g, c).map_err(|e| e.to_string())?;
    verify::check_palette(c, u64::from(g.max_degree()) + 1).map_err(|e| e.to_string())?;
    Ok(c.distinct_colors() as u64)
}

fn counts(m: &RunMetrics, colors: u64) -> Counts {
    Counts {
        named: vec![
            ("rounds", m.rounds),
            ("messages", m.messages),
            ("total_bits", m.total_bits),
            ("cross_shard_messages", m.cross_shard_messages),
            ("colors", colors),
        ],
        active_per_round: m.active_per_round.clone(),
    }
}

/// `delta1-seq`: Linial → mother algorithm k=1 → class elimination on
/// `random_regular(20000, 16, seed)`, sequential executor.
#[derive(Debug)]
pub struct Delta1 {
    seed: u64,
    /// The pipeline's coloring, which the traced stage-by-stage run must
    /// reproduce.
    pipeline_colors: Option<Vec<u64>>,
}

impl Delta1 {
    const N: usize = 20_000;

    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            pipeline_colors: None,
        }
    }
}

/// The pipeline's three stages called one by one, as
/// `pipeline::delta_plus_one` composes them, each in its own span.
/// Returns the coloring, the merged metrics and the node-rounds.
fn staged(
    g: &Topology,
    id: u32,
    root: Open,
    spans: &mut Spans,
) -> Result<(Coloring, RunMetrics, u64), ColoringError> {
    let s = spans.open(id, "coloring.linial", Some(root));
    let lin = linial::delta_squared_from_ids(g, None)?;
    spans.close(s);
    let s = spans.open(id, "coloring.trial", Some(root));
    let config = TrialConfig {
        d: 0,
        k: 1,
        mode: ExecutionMode::Sequential,
    };
    let tr = trial::run(g, &lin.coloring, config)?;
    spans.close(s);
    let s = spans.open(id, "coloring.elimination", Some(root));
    let compact = tr.coloring().compacted();
    let (coloring, em) =
        elimination::delta_plus_one_by_elimination(g, &compact, ExecutionMode::Sequential)?;
    spans.close(s);

    let mut metrics = RunMetrics::default();
    for m in [&lin.metrics, &tr.metrics, &em] {
        metrics.merge(m);
    }
    metrics.rounds = lin.total_rounds + tr.metrics.rounds + em.rounds;
    // Linial's merged metrics keep no per-round profile, so node-rounds
    // cover the trial and elimination stages.
    let node_rounds: usize = tr
        .metrics
        .active_per_round
        .iter()
        .chain(&em.active_per_round)
        .sum();
    Ok((coloring, metrics, node_rounds as u64))
}

impl Workload for Delta1 {
    fn describe(&self) -> String {
        format!(
            "pipeline::delta_plus_one on generators::random_regular(n={}, d={DEGREE}), \
             sequential executor",
            Self::N
        )
    }

    fn sample(&mut self, id: u32, traced: bool, spans: &mut Spans) -> Sample {
        let root = spans.open(id, "sample", None);
        let s = spans.open(id, "graphs.build", Some(root));
        let g = generators::random_regular(Self::N, DEGREE, self.seed);
        let setup_s = spans.close(s);
        let run = if traced {
            staged(&g, id, root, spans).map(|(c, m, nr)| (c, m, Some(nr)))
        } else {
            let s = spans.open(id, "coloring.pipeline", Some(root));
            let r = pipeline::delta_plus_one(&g).map(|r| (r.coloring, r.metrics, None));
            spans.close(s);
            r
        };
        let s = spans.open(id, "verify.check", Some(root));
        let checked = run
            .map_err(|e| e.to_string())
            .and_then(|(c, m, nr)| verify_coloring(&g, &c).map(|colors| (c, m, nr, colors)));
        let verify_s = spans.close(s);
        let wall_s = spans.close(root);

        let mut sample = Sample {
            wall_s,
            setup_s: Some(setup_s),
            verify_s,
            peak_rss_bytes: process_peak_rss_bytes(),
            ..Sample::default()
        };
        match checked {
            Ok((c, m, node_rounds, colors)) => {
                sample.counts = counts(&m, colors);
                match (node_rounds, &self.pipeline_colors) {
                    (None, _) => self.pipeline_colors = Some(c.colors().to_vec()),
                    (Some(_), Some(p)) if p.as_slice() != c.colors() => {
                        sample.failure = Some("staged coloring differs from the pipeline's".into())
                    }
                    _ => {}
                }
                if let Some(node_rounds) = node_rounds {
                    sample.layers = engine_layers(&m);
                    sample.layers.extend([
                        ("executor.node_rounds", node_rounds as f64),
                        ("executor.shard_imbalance", 1.0),
                        ("coloring.colors", colors as f64),
                    ]);
                }
            }
            Err(e) => sample.failure = Some(e),
        }
        sample
    }
}

/// `hnt-threads2`: HNT `UltrafastNode` (seed 1) on
/// `random_regular(200000, 16, seed)`, sharded two ways and run by
/// `ShardedExecutor` (two shard threads, `InProcess` transport).
#[derive(Debug)]
pub struct Hnt {
    seed: u64,
}

impl Hnt {
    const N: usize = 200_000;
    const SHARDS: usize = 2;
    const ALGORITHM_SEED: u64 = 1;

    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl Workload for Hnt {
    fn describe(&self) -> String {
        format!(
            "UltrafastNode(seed {}) on generators::random_regular(n={}, d={DEGREE}), \
             ShardedTopology::from_topology({}) under ShardedExecutor::new()",
            Self::ALGORITHM_SEED,
            Self::N,
            Self::SHARDS
        )
    }

    fn sample(&mut self, id: u32, traced: bool, spans: &mut Spans) -> Sample {
        let series = RoundSeries::new();
        let chrome = ChromeTraceSink::new();
        let sinks: [&dyn TraceSink; 2] = [&series, &chrome];
        let fanout = Fanout::new(&sinks);

        let root = spans.open(id, "sample", None);
        let s = spans.open(id, "graphs.build", Some(root));
        let g = generators::random_regular(Self::N, DEGREE, self.seed);
        let mut setup_s = spans.close(s);
        let s = spans.open(id, "sharded.build", Some(root));
        let sharded = ShardedTopology::from_topology(&g, Self::SHARDS);
        setup_s += spans.close(s);
        let run = sharded.map_err(|e| e.to_string()).map(|sh| {
            let s = spans.open(id, "engine", Some(root));
            let nodes: Vec<UltrafastNode> = (0..Self::N)
                .map(|_| UltrafastNode::new(Self::ALGORITHM_SEED))
                .collect();
            let config = SimulatorConfig {
                max_rounds: ultrafast::round_cap(Self::N).max(32),
                mode: ExecutionMode::Sequential,
            };
            let sim = Simulator::with_config(&sh, config);
            let sim = if traced {
                sim.with_tracer(&fanout)
            } else {
                sim
            };
            let out = sim.run_with_executor(nodes, &ShardedExecutor::new());
            spans.close(s);
            out
        });
        let s = spans.open(id, "verify.check", Some(root));
        let checked = run.and_then(|out| {
            if out.metrics.hit_round_cap {
                return Err("hit the round cap".to_string());
            }
            let colors: Vec<u64> = out
                .outputs
                .iter()
                .map(|c| c.ok_or("a node ended uncolored"))
                .collect::<Result<_, _>>()?;
            let bound = colors.iter().max().map_or(1, |&c| c + 1);
            let c = Coloring::new(colors, bound);
            verify_coloring(&g, &c).map(|colors| (out.metrics, colors))
        });
        let verify_s = spans.close(s);
        let wall_s = spans.close(root);

        let mut sample = Sample {
            wall_s,
            setup_s: Some(setup_s),
            verify_s,
            peak_rss_bytes: process_peak_rss_bytes(),
            ..Sample::default()
        };
        match checked {
            Ok((m, colors)) => {
                sample.counts = counts(&m, colors);
                if traced {
                    sample.layers = engine_layers(&m);
                    let summary = series.summary();
                    let mut json = Vec::new();
                    chrome
                        .write_json(&mut json)
                        .expect("writing to a Vec cannot fail");
                    match trace::analyse(&String::from_utf8_lossy(&json)) {
                        Ok(t) => sample.layers.extend([
                            ("executor.round_p50_ms", summary.p50_nanos as f64 / 1e6),
                            ("executor.round_max_ms", summary.max_nanos as f64 / 1e6),
                            ("executor.shard_imbalance", t.shard_imbalance),
                            ("transport.drain_s", t.drain_s),
                            ("coloring.colors", colors as f64),
                        ]),
                        Err(e) => sample.failure = Some(e),
                    }
                }
            }
            Err(e) => sample.failure = Some(e),
        }
        sample
    }
}
