//! The per-claim experiment runners (E1–E12).
//!
//! Each function builds its workloads, runs the algorithm(s), verifies the
//! outputs, and returns a [`Table`] whose rows mirror the claim being
//! reproduced.  See DESIGN.md for the experiment index and EXPERIMENTS.md for
//! the recorded paper-vs-measured comparison.

use dcme_algebra::logstar::log_star;
use dcme_baselines as baselines;
use dcme_coloring::{
    chopping, corollary, fast, linial, pipeline, reduction, ruling, trial, TrialConfig,
};
use dcme_congest::{BandwidthReport, ExecutionMode, Topology};
use dcme_graphs::coloring::Coloring;
use dcme_graphs::{generators, verify};

use crate::table::Table;

/// Scale knob: `quick` keeps every workload small enough for CI / Criterion;
/// `full` uses the sizes recorded in EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small instances (seconds).
    Quick,
    /// The sizes recorded in EXPERIMENTS.md.
    Full,
}

impl Scale {
    fn pick(self, quick: usize, full: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

fn ids(n: usize) -> Coloring {
    Coloring::from_ids(n)
}

/// E1 — Theorem 1.1 / Corollary 1.2 (2): the `k` ↔ rounds/colors trade-off.
pub fn e1_tradeoff(scale: Scale) -> Table {
    let mut t = Table::new(
        "E1: O(kΔ) colors in O(Δ/k) rounds (Theorem 1.1 / Corollary 1.2(2))",
        &[
            "graph",
            "Δ",
            "k",
            "rounds",
            "bound ⌈q/k⌉+1",
            "colors used",
            "color bound kX",
        ],
    );
    let n = scale.pick(300, 2000);
    for delta in [16usize, 32] {
        let g = generators::random_regular(n, delta, 7);
        let input = ids(n);
        let mut k = 1u64;
        loop {
            let out = trial::run(&g, &input, TrialConfig::proper(k)).expect("E1 run");
            verify::check_proper(&g, out.coloring()).expect("E1 proper");
            t.push_row(vec![
                format!("regular(n={n},d={delta})"),
                g.max_degree().to_string(),
                k.to_string(),
                out.metrics.rounds.to_string(),
                (out.params.rounds + 1).to_string(),
                out.coloring().distinct_colors().to_string(),
                out.params.color_bound().to_string(),
            ]);
            if k >= out.params.x {
                break;
            }
            k *= 4;
        }
    }
    t
}

/// E2 — Corollary 1.2 (1): Linial's one-round color reduction.
pub fn e2_linial_step(scale: Scale) -> Table {
    let mut t = Table::new(
        "E2: Linial color reduction in one round (Corollary 1.2(1))",
        &["graph", "Δ", "m (input)", "rounds", "colors out", "256·Δ²"],
    );
    let n = scale.pick(400, 4000);
    for delta in [4usize, 8, 16, 32] {
        let g = generators::random_regular(n, delta, 3);
        let input = ids(n);
        let out = corollary::linial_color_reduction(&g, &input).expect("E2 run");
        verify::check_proper(&g, out.coloring()).expect("E2 proper");
        let d = g.max_degree() as u64;
        t.push_row(vec![
            format!("regular(n={n},d={delta})"),
            d.to_string(),
            input.palette().to_string(),
            out.metrics.rounds.to_string(),
            out.params.encoded_colors().to_string(),
            (256 * d * d).to_string(),
        ]);
    }
    t
}

/// E3 — Corollary 1.2 (3): Δ² colors in O(1) rounds.
pub fn e3_delta_squared(scale: Scale) -> Table {
    let mut t = Table::new(
        "E3: Δ² colors in O(1) rounds (Corollary 1.2(3))",
        &["graph", "Δ", "m (input)", "rounds", "color bound", "Δ²"],
    );
    let n = scale.pick(300, 1500);
    for delta in [8usize, 16, 32] {
        let g = generators::random_regular(n, delta, 5);
        let d = g.max_degree() as u64;
        let m = (d.pow(4)).max(n as u64);
        let input = Coloring::from_identifiers(&(0..n as u64).collect::<Vec<_>>(), m);
        let out = corollary::delta_squared_coloring(&g, &input).expect("E3 run");
        verify::check_proper(&g, out.coloring()).expect("E3 proper");
        t.push_row(vec![
            format!("regular(n={n},d={delta})"),
            d.to_string(),
            m.to_string(),
            out.metrics.rounds.to_string(),
            out.params.color_bound().to_string(),
            (d * d).to_string(),
        ]);
    }
    t
}

/// E4 — Corollary 1.2 (4): β-outdegree colorings.
pub fn e4_outdegree(scale: Scale) -> Table {
    let mut t = Table::new(
        "E4: β-outdegree O(Δ/β) coloring in O(Δ/β) rounds (Corollary 1.2(4))",
        &[
            "graph",
            "Δ",
            "β",
            "rounds",
            "max outdegree",
            "colors",
            "color bound",
        ],
    );
    let n = scale.pick(300, 2000);
    let delta = 32usize;
    let g = generators::random_regular(n, delta, 11);
    let input = ids(n);
    for beta in [1u32, 2, 4, 8, 16] {
        let out = corollary::outdegree_coloring(&g, &input, beta).expect("E4 run");
        verify::check_outdegree_orientation(&g, &out.result.oriented, beta as usize)
            .expect("E4 orientation");
        t.push_row(vec![
            format!("regular(n={n},d={delta})"),
            g.max_degree().to_string(),
            beta.to_string(),
            out.metrics.rounds.to_string(),
            out.result.oriented.max_outdegree().to_string(),
            out.coloring().distinct_colors().to_string(),
            out.params.color_bound().to_string(),
        ]);
    }
    t
}

/// E5 — Corollary 1.2 (5)/(6): d-defective colorings.
pub fn e5_defective(scale: Scale) -> Table {
    let mut t = Table::new(
        "E5: d-defective O((Δ/d)²) colorings (Corollary 1.2(5) one round, (6) multi round)",
        &[
            "graph",
            "Δ",
            "d",
            "variant",
            "rounds",
            "max defect",
            "colors",
            "(Δ/d)²",
        ],
    );
    let n = scale.pick(300, 2000);
    let delta = 32usize;
    let g = generators::random_regular(n, delta, 13);
    let input = ids(n);
    let dd = g.max_degree() as u64;
    for d in [2u32, 4, 8, 16] {
        let one = corollary::defective_one_round(&g, &input, d).expect("E5 one-round");
        verify::check_defective(&g, one.coloring(), d as usize).expect("E5 defect");
        t.push_row(vec![
            format!("regular(n={n},d={delta})"),
            dd.to_string(),
            d.to_string(),
            "one-round (5)".into(),
            one.metrics.rounds.to_string(),
            verify::max_defect(&g, one.coloring()).to_string(),
            one.coloring().distinct_colors().to_string(),
            ((dd / d as u64).pow(2)).to_string(),
        ]);
        let (pair, multi) = corollary::defective_multi_round(&g, &input, d).expect("E5 multi");
        verify::check_defective(&g, &pair, d as usize).expect("E5 defect multi");
        t.push_row(vec![
            format!("regular(n={n},d={delta})"),
            dd.to_string(),
            d.to_string(),
            "multi-round (6)".into(),
            multi.metrics.rounds.to_string(),
            verify::max_defect(&g, &pair).to_string(),
            pair.distinct_colors().to_string(),
            ((dd / d as u64).pow(2)).to_string(),
        ]);
    }
    t
}

/// E6 — the (Δ+1)-coloring pipelines vs. the baselines.
pub fn e6_delta_plus_one(scale: Scale) -> Table {
    let mut t = Table::new(
        "E6: (Δ+1)-coloring end to end — paper pipelines vs baselines",
        &["graph", "Δ", "algorithm", "rounds", "colors", "proper"],
    );
    let n = scale.pick(250, 1500);
    let workloads = vec![
        generators::random_regular(n, 8, 17),
        generators::random_regular(n, 16, 18),
        generators::gnp(n, 12.0 / n as f64, 19),
    ];
    for g in &workloads {
        let name = format!("n={} Δ={}", g.num_nodes(), g.max_degree());
        let delta = g.max_degree() as u64;

        let simple = pipeline::delta_plus_one(g).expect("E6 simple pipeline");
        t.push_row(vec![
            name.clone(),
            delta.to_string(),
            "paper: linial + k=1 trial + elimination".into(),
            simple.total_rounds().to_string(),
            simple.coloring.distinct_colors().to_string(),
            verify::check_proper(g, &simple.coloring)
                .is_ok()
                .to_string(),
        ]);

        let sched = pipeline::delta_plus_one_scheduled(g, None, ExecutionMode::Sequential)
            .expect("E6 scheduled pipeline");
        t.push_row(vec![
            name.clone(),
            delta.to_string(),
            "paper: linial + β-outdegree schedule".into(),
            sched.total_rounds().to_string(),
            sched.coloring.distinct_colors().to_string(),
            verify::check_proper(g, &sched.coloring).is_ok().to_string(),
        ]);

        let input = ids(g.num_nodes());
        let kw = baselines::kuhn_wattenhofer(g, &input).expect("E6 KW");
        t.push_row(vec![
            name.clone(),
            delta.to_string(),
            "baseline: Kuhn-Wattenhofer halving".into(),
            kw.rounds.to_string(),
            kw.coloring.distinct_colors().to_string(),
            verify::check_proper(g, &kw.coloring).is_ok().to_string(),
        ]);

        let (li, li_metrics) =
            baselines::locally_iterative_reduction(g, &input, ExecutionMode::Sequential);
        t.push_row(vec![
            name.clone(),
            delta.to_string(),
            "baseline: locally-iterative (folklore)".into(),
            li_metrics.rounds.to_string(),
            li.distinct_colors().to_string(),
            verify::check_proper(g, &li).is_ok().to_string(),
        ]);

        let luby = baselines::luby_coloring(g, 1, ExecutionMode::Sequential);
        t.push_row(vec![
            name.clone(),
            delta.to_string(),
            "baseline: randomized trials".into(),
            luby.metrics.rounds.to_string(),
            luby.coloring.distinct_colors().to_string(),
            verify::check_proper(g, &luby.coloring).is_ok().to_string(),
        ]);

        let uf = baselines::ultrafast_coloring(g, 1, ExecutionMode::Sequential);
        t.push_row(vec![
            name.clone(),
            delta.to_string(),
            "baseline: HNT ultrafast (randomized)".into(),
            uf.metrics.rounds.to_string(),
            uf.coloring.distinct_colors().to_string(),
            verify::check_proper(g, &uf.coloring).is_ok().to_string(),
        ]);

        let d1 = baselines::degree_plus_one_coloring(g, 1, ExecutionMode::Sequential);
        t.push_row(vec![
            name.clone(),
            delta.to_string(),
            "baseline: D1LC degree+1 lists (randomized)".into(),
            d1.metrics.rounds.to_string(),
            d1.coloring.distinct_colors().to_string(),
            verify::check_proper(g, &d1.coloring).is_ok().to_string(),
        ]);

        let greedy = baselines::greedy_coloring(g, None);
        t.push_row(vec![
            name,
            delta.to_string(),
            "reference: sequential greedy".into(),
            "0 (sequential)".into(),
            greedy.distinct_colors().to_string(),
            verify::check_proper(g, &greedy).is_ok().to_string(),
        ]);
    }
    t
}

/// E7 — Theorem 1.3 / Corollary 1.4: the √ trade-off vs. the linear one.
pub fn e7_fast(scale: Scale) -> Table {
    let mut t = Table::new(
        "E7: O(Δ^{1+ε}) colors in O(Δ^{1/2-ε/2}) rounds (Theorem 1.3) vs the linear trade-off",
        &[
            "graph",
            "Δ",
            "ε",
            "rounds (Thm 1.3)",
            "colors (Thm 1.3)",
            "rounds (Cor 1.2(2))",
            "colors (Cor 1.2(2))",
        ],
    );
    let n = scale.pick(300, 1200);
    for delta in [16usize, 32, 64] {
        let g = generators::random_regular(n, delta, 23);
        let d = g.max_degree() as u64;
        let m = d.pow(4).max(n as u64);
        let input = Coloring::from_identifiers(&(0..n as u64).collect::<Vec<_>>(), m);
        for eps in [0.25f64, 0.5] {
            let fast_out =
                fast::fast_coloring(&g, &input, eps, ExecutionMode::Sequential).expect("E7 fast");
            verify::check_proper(&g, &fast_out.coloring).expect("E7 proper");
            // The linear-trade-off comparator with a matching color budget
            // k ≈ Δ^ε.
            let k = (f64::from(g.max_degree()).powf(eps).round() as u64).max(1);
            let lin = trial::run(&g, &input, TrialConfig::proper(k)).expect("E7 linear");
            t.push_row(vec![
                format!("regular(n={n},d={delta})"),
                d.to_string(),
                format!("{eps}"),
                fast_out.total_rounds().to_string(),
                fast_out.coloring.distinct_colors().to_string(),
                lin.metrics.rounds.to_string(),
                lin.coloring().distinct_colors().to_string(),
            ]);
        }
    }
    t
}

/// E8 — Theorem 1.5: (2, r)-ruling sets vs. the O(Δ^{2/r}) baseline.
pub fn e8_ruling(scale: Scale) -> Table {
    let mut t = Table::new(
        "E8: (2,r)-ruling sets — Theorem 1.5 vs the O(Δ^{2/r}) baseline",
        &[
            "graph",
            "Δ",
            "r",
            "algorithm",
            "sweep rounds",
            "total rounds",
            "set size",
            "radius ok",
        ],
    );
    let n = scale.pick(300, 1200);
    for delta in [16usize, 32] {
        let g = generators::random_regular(n, delta, 29);
        for r in [2usize, 3] {
            let new = ruling::ruling_set(&g, r).expect("E8 improved");
            verify::check_ruling_set(&g, &new.in_set, r).expect("E8 radius");
            t.push_row(vec![
                format!("regular(n={n},d={delta})"),
                g.max_degree().to_string(),
                r.to_string(),
                "Theorem 1.5".into(),
                new.rounds.to_string(),
                new.total_rounds().to_string(),
                new.set_size.to_string(),
                "true".into(),
            ]);
            let base = ruling::ruling_set_baseline(&g, r).expect("E8 baseline");
            let ok = verify::check_ruling_set(&g, &base.in_set, r).is_ok();
            t.push_row(vec![
                format!("regular(n={n},d={delta})"),
                g.max_degree().to_string(),
                r.to_string(),
                "baseline (Linial + Lemma 3.2)".into(),
                base.rounds.to_string(),
                base.total_rounds().to_string(),
                base.set_size.to_string(),
                ok.to_string(),
            ]);
        }
    }
    t
}

/// E9 — Lemma 4.1 / Theorem 1.6: one-round color reduction and its tightness.
pub fn e9_one_round(scale: Scale) -> Table {
    let mut t = Table::new(
        "E9: one-round color reduction (Lemma 4.1) and tightness (Theorem 1.6)",
        &["case", "Δ", "m", "k (threshold)", "result"],
    );
    // (a) Algorithm 2 at the threshold on real graphs.
    let n = scale.pick(300, 1500);
    for delta in [8usize, 16] {
        let g = generators::random_regular(n, delta, 31);
        let d = g.max_degree();
        for k in [1u64, 2, 3, 4] {
            let m = reduction::required_input_colors(k, d);
            let base = linial::delta_squared_from_ids(&g, None)
                .expect("E9 seed")
                .coloring;
            let input = if base.palette() > m {
                dcme_coloring::elimination::reduce_to_target(
                    &g,
                    &base,
                    m,
                    ExecutionMode::Sequential,
                )
                .expect("E9 shrink")
                .0
            } else {
                base.with_palette(m)
            };
            let out = reduction::one_round_reduction(&g, &input, ExecutionMode::Sequential)
                .expect("E9 reduce");
            verify::check_proper(&g, &out.coloring).expect("E9 proper");
            t.push_row(vec![
                format!("Algorithm 2 on regular(n={n},d={delta})"),
                d.to_string(),
                m.to_string(),
                k.to_string(),
                format!(
                    "removed {} colors in {} round(s), palette {} -> {}",
                    out.removed,
                    out.metrics.rounds,
                    m,
                    out.coloring.palette()
                ),
            ]);
        }
    }
    // (b) Exhaustive tightness for tiny Δ.
    for (delta, m) in [(2u32, 4u64), (2, 5), (3, 6)] {
        let k = reduction::max_reducible(m, delta);
        let (achievable, impossible) = reduction::lower_bound(delta, m, 3_000_000);
        t.push_row(vec![
            "exhaustive 1-round search".into(),
            delta.to_string(),
            m.to_string(),
            k.to_string(),
            format!(
                "m-k = {} colors achievable: {:?}; m-k-1 = {} impossible: {:?}",
                m - k,
                achievable,
                m - k - 1,
                impossible
            ),
        ]);
    }
    t
}

/// E10 — Observation 5.1: the chopping overhead.
pub fn e10_chopping(scale: Scale) -> Table {
    let mut t = Table::new(
        "E10: color-space chopping overhead (Observation 5.1)",
        &[
            "graph",
            "Δ",
            "ε",
            "m (input)",
            "iterations",
            "expected ⌈log_{1+ε}(m/(Δ+1))⌉",
            "parallel rounds",
            "final colors",
        ],
    );
    let n = scale.pick(300, 1200);
    let g = generators::random_regular(n, 12, 37);
    let input = ids(n);
    for eps in [0.5f64, 1.0, 2.0] {
        let out = chopping::reduce_by_chopping(&g, &input, eps, &chopping::default_reducer)
            .expect("E10 chop");
        verify::check_proper(&g, &out.coloring).expect("E10 proper");
        t.push_row(vec![
            format!("regular(n={n},d=12)"),
            g.max_degree().to_string(),
            format!("{eps}"),
            input.palette().to_string(),
            out.iterations.to_string(),
            chopping::expected_iterations(input.palette(), g.max_degree(), eps).to_string(),
            out.parallel_rounds.to_string(),
            out.coloring.distinct_colors().to_string(),
        ]);
    }
    t
}

/// E11 — Linial: O(Δ²) colors in O(log* n) rounds from unique identifiers.
pub fn e11_logstar(scale: Scale) -> Table {
    let mut t = Table::new(
        "E11: O(Δ²) colors in O(log* n) rounds from IDs (Linial)",
        &[
            "graph",
            "Δ",
            "n",
            "log* n",
            "iterations",
            "total rounds",
            "final colors",
            "256·Δ²",
        ],
    );
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![1 << 8, 1 << 10, 1 << 12],
        Scale::Full => vec![1 << 8, 1 << 12, 1 << 16, 1 << 20],
    };
    for &n in &sizes {
        for (name, g) in [
            ("ring", generators::ring(n)),
            ("regular(d=8)", generators::random_regular(n, 8, 41)),
        ] {
            let out = linial::delta_squared_from_ids(&g, None).expect("E11 run");
            verify::check_proper(&g, &out.coloring).expect("E11 proper");
            let d = g.max_degree() as u64;
            t.push_row(vec![
                name.into(),
                d.to_string(),
                n.to_string(),
                log_star(n as u64).to_string(),
                out.iterations.to_string(),
                out.total_rounds.to_string(),
                out.coloring.palette().to_string(),
                (256 * d * d).to_string(),
            ]);
        }
    }
    t
}

/// E12 — CONGEST bandwidth: maximum message size across the main algorithms.
pub fn e12_bandwidth(scale: Scale) -> Table {
    let mut t = Table::new(
        "E12: CONGEST feasibility — maximum message size vs c·log2(n)",
        &[
            "algorithm",
            "n",
            "Δ",
            "max message bits",
            "allowed (4·log2 n)",
            "within CONGEST",
        ],
    );
    let n = scale.pick(400, 4000);
    let g = generators::random_regular(n, 16, 43);
    let input = ids(n);

    let runs: Vec<(&str, dcme_congest::RunMetrics)> = vec![
        (
            "trial k=1 (Cor 1.2(2))",
            trial::run(&g, &input, TrialConfig::proper(1))
                .expect("E12")
                .metrics,
        ),
        (
            "Linial one-shot (Cor 1.2(1))",
            corollary::linial_color_reduction(&g, &input)
                .expect("E12")
                .metrics,
        ),
        (
            "(Δ+1) pipeline",
            pipeline::delta_plus_one(&g).expect("E12").metrics,
        ),
        ("one-round reduction (Lemma 4.1)", {
            let seed = linial::delta_squared_from_ids(&g, None)
                .expect("E12")
                .coloring;
            reduction::one_round_reduction(&g, &seed, ExecutionMode::Sequential)
                .expect("E12")
                .metrics
        }),
    ];
    for (name, metrics) in runs {
        let report = BandwidthReport::check(n, &metrics, 4);
        t.push_row(vec![
            name.into(),
            n.to_string(),
            g.max_degree().to_string(),
            report.max_message_bits.to_string(),
            report.allowed_bits.to_string(),
            report.within_congest.to_string(),
        ]);
    }
    t
}

/// ET — transport backends: the sharded engine under the in-process
/// staging queues vs. the wire-codec'd socket loopback, with the sequential
/// executor as the bit-for-bit reference.  The socket rows carry the new
/// transport counters (`wire_bytes_sent`, `transport_flush_nanos`), so
/// `exp_all --jsonl` records them machine-readably.
pub fn transport_backends(scale: Scale) -> Table {
    use dcme_congest::{SequentialExecutor, ShardedExecutor, Simulator, SocketLoopback};

    let mut t = Table::new(
        "ET: transport backends — in-process vs wire-codec'd socket loopback",
        &[
            "graph",
            "backend",
            "rounds",
            "messages",
            "cross-shard",
            "wire bytes",
            "flush ms",
        ],
    );
    let n = scale.pick(600, 20_000);
    let shards = 3;
    let tail = 9;
    for family in ["ring", "circulant4"] {
        let g = crate::workloads::build_graph(family, n, shards, 11).expect("ET graph");
        let mk = || crate::workloads::gossip_nodes(0..n, tail);
        let reference = Simulator::new(&g).run_with_executor(mk(), &SequentialExecutor);
        let mut runs = vec![
            ("sequential", reference.metrics.clone()),
            (
                "sharded+inproc",
                Simulator::new(&g)
                    .run_with_executor(mk(), &ShardedExecutor::new())
                    .metrics,
            ),
            (
                "sharded+socket(tcp)",
                Simulator::new(&g)
                    .run_with_executor(
                        mk(),
                        &ShardedExecutor::with_transport(SocketLoopback::tcp()),
                    )
                    .metrics,
            ),
        ];
        #[cfg(unix)]
        runs.push((
            "sharded+socket(unix)",
            Simulator::new(&g)
                .run_with_executor(
                    mk(),
                    &ShardedExecutor::with_transport(SocketLoopback::unix()),
                )
                .metrics,
        ));
        for (backend, metrics) in &runs {
            // The backends must agree on every logical counter; the wire
            // counters are what this table is about.
            assert_eq!(metrics.rounds, reference.metrics.rounds, "{backend}");
            assert_eq!(metrics.messages, reference.metrics.messages, "{backend}");
            assert_eq!(
                metrics.total_bits, reference.metrics.total_bits,
                "{backend}"
            );
            t.push_row(vec![
                format!("{family}(n={n})"),
                backend.to_string(),
                metrics.rounds.to_string(),
                metrics.messages.to_string(),
                metrics.cross_shard_messages.to_string(),
                metrics.wire_bytes_sent.to_string(),
                format!("{:.2}", metrics.transport_flush_nanos as f64 / 1e6),
            ]);
        }
    }
    t
}

/// EB — the randomized baselines across executors and transport backends:
/// for a fixed seed, the HNT ultrafast structure and the D1LC degree+1 list
/// coloring must produce identical colorings, round counts and message
/// counters on the sequential and sharded executors, under both the
/// in-process staging queues and the wire-codec'd socket loopback.  The
/// runner *asserts* the bit-for-bit agreement before reporting each row, so
/// a diverging backend fails the experiment instead of printing a lie.
pub fn eb_randomized_baselines(scale: Scale) -> Table {
    use dcme_baselines::degree_plus_one::DegreePlusOneNode;
    use dcme_baselines::ultrafast::UltrafastNode;
    use dcme_congest::{
        NodeAlgorithm, RunOutcome, SequentialExecutor, ShardedExecutor, ShardedTopology, Simulator,
        SimulatorConfig, SocketLoopback,
    };

    let mut t = Table::new(
        "EB: randomized baselines — fixed-seed bit-exactness across executors and transports",
        &[
            "graph",
            "algorithm",
            "backend",
            "rounds",
            "messages",
            "total bits",
            "colors",
            "matches seq",
        ],
    );

    /// Runs `mk()` on every backend and asserts each run is bit-identical
    /// to the sequential reference — the outputs (the coloring itself) and
    /// every logical counter; returns the per-backend metrics.
    fn backends<A, F>(
        g: &Topology,
        shards: usize,
        cap: u64,
        mk: F,
    ) -> Vec<(&'static str, dcme_congest::RunMetrics)>
    where
        A: NodeAlgorithm<Output = Option<u64>>,
        F: Fn() -> Vec<A>,
    {
        let config = SimulatorConfig {
            max_rounds: cap,
            mode: ExecutionMode::Sequential,
        };
        let sharded = ShardedTopology::from_topology(g, shards).expect("EB shardable");
        let reference: RunOutcome<Option<u64>> =
            Simulator::with_config(g, config).run_with_executor(mk(), &SequentialExecutor);
        let mut runs = vec![
            (
                "sharded+inproc",
                Simulator::with_config(&sharded, config)
                    .run_with_executor(mk(), &ShardedExecutor::new()),
            ),
            (
                "sharded+socket(tcp)",
                Simulator::with_config(&sharded, config).run_with_executor(
                    mk(),
                    &ShardedExecutor::with_transport(SocketLoopback::tcp()),
                ),
            ),
        ];
        #[cfg(unix)]
        runs.push((
            "sharded+socket(unix)",
            Simulator::with_config(&sharded, config).run_with_executor(
                mk(),
                &ShardedExecutor::with_transport(SocketLoopback::unix()),
            ),
        ));
        let mut rows = vec![("sequential", reference.metrics.clone())];
        for (backend, run) in runs {
            assert_eq!(run.outputs, reference.outputs, "{backend} outputs");
            assert_eq!(run.metrics.rounds, reference.metrics.rounds, "{backend}");
            assert_eq!(
                run.metrics.messages, reference.metrics.messages,
                "{backend}"
            );
            assert_eq!(
                run.metrics.total_bits, reference.metrics.total_bits,
                "{backend}"
            );
            assert_eq!(
                run.metrics.max_message_bits, reference.metrics.max_message_bits,
                "{backend}"
            );
            rows.push((backend, run.metrics));
        }
        rows
    }

    let n = scale.pick(220, 1200);
    let seed = 7u64;
    let shards = 3;
    let workloads = vec![
        ("regular(d=10)", generators::random_regular(n, 10, 47)),
        ("gnp(λ=8)", generators::gnp(n, 8.0 / n as f64, 48)),
    ];
    for (gname, g) in &workloads {
        let graph = format!("{gname} n={n}");
        for alg in ["HNT ultrafast", "D1LC degree+1"] {
            let (runs, colors) = if alg == "HNT ultrafast" {
                let cap = dcme_baselines::ultrafast::round_cap(n);
                let runs = backends(g, shards, cap, || {
                    (0..n).map(|_| UltrafastNode::new(seed)).collect()
                });
                (
                    runs,
                    baselines::ultrafast_coloring(g, seed, ExecutionMode::Sequential)
                        .coloring
                        .distinct_colors(),
                )
            } else {
                let cap = dcme_baselines::degree_plus_one::round_cap(n);
                let runs = backends(g, shards, cap, || {
                    (0..n).map(|_| DegreePlusOneNode::new(seed)).collect()
                });
                (
                    runs,
                    baselines::degree_plus_one_coloring(g, seed, ExecutionMode::Sequential)
                        .coloring
                        .distinct_colors(),
                )
            };
            for (backend, metrics) in &runs {
                t.push_row(vec![
                    graph.clone(),
                    alg.into(),
                    backend.to_string(),
                    metrics.rounds.to_string(),
                    metrics.messages.to_string(),
                    metrics.total_bits.to_string(),
                    colors.to_string(),
                    "true".into(),
                ]);
            }
        }
    }
    t
}

/// EF — invariant survival under injected message faults: every algorithm
/// (the paper pipeline, both randomized baselines, and the two model-checker
/// fixtures) against every fault class, with the outcome classified as
/// `holds` or `violated: …` and the run's fault counters alongside.  Every
/// row's plan column is a replayable `FaultPlan` spec: feed it back through
/// `exp_faults --replay` (or `FaultPlan::from_spec`) to reproduce the run
/// bit for bit.
pub fn ef_fault_injection(scale: Scale) -> Table {
    use std::sync::Arc;

    use dcme_algebra::sequence::{SequenceFamily, SequenceParams};
    use dcme_baselines::degree_plus_one::{self, DegreePlusOneNode};
    use dcme_baselines::ultrafast::{self, UltrafastNode};
    use dcme_coloring::trial::TrialNode;
    use dcme_congest::faults::{check_coloring, run_faulty, FaultPlan};
    use dcme_congest::mc::fixtures::{GreedyRobust, GreedyUnprotected};
    use dcme_congest::{InProcess, NodeAlgorithm, RunMetrics, ShardedTopology};
    use dcme_graphs::coloring::Coloring;
    use dcme_graphs::generators;

    let mut t = Table::new(
        "EF: fault injection — invariant survival by algorithm × fault class",
        &[
            "algorithm",
            "faults",
            "plan",
            "verdict",
            "rounds",
            "dropped",
            "duplicated",
            "delayed",
            "retransmitted",
            "stale",
        ],
    );

    /// One faulted run, classified: `Ok` row fields on invariant survival,
    /// the violation rendered otherwise.
    fn classify<A, F>(
        g: &ShardedTopology,
        mk: F,
        plan: &FaultPlan,
        cap: u64,
        colors_of: impl Fn(&[A::Output]) -> Vec<Option<u64>>,
    ) -> (String, RunMetrics)
    where
        A: NodeAlgorithm,
        F: Fn() -> Vec<A>,
    {
        let run = run_faulty(g, mk(), plan, InProcess, cap);
        let colors = colors_of(&run.outcome.outputs);
        let verdict = match check_coloring(g, &colors, true) {
            None => "holds".to_string(),
            Some(v) => format!("violated: {v}"),
        };
        (verdict, run.outcome.metrics)
    }

    let seed = 2024;
    let classes: Vec<(&str, FaultPlan)> = vec![
        ("none", FaultPlan::none(seed)),
        ("drop", FaultPlan::none(seed).with_drop(150)),
        (
            "drop+retransmit",
            FaultPlan::none(seed).with_drop(150).with_retransmission(),
        ),
        ("duplicate", FaultPlan::none(seed).with_duplication(150)),
        ("delay", FaultPlan::none(seed).with_delay(150, 3)),
        (
            "partition+retransmit",
            FaultPlan::none(seed)
                .with_partition(0, 1, 1, 4)
                .with_retransmission(),
        ),
    ];

    let n = scale.pick(24, 96);
    let g = generators::ring(n);
    let sharded = ShardedTopology::from_topology(&g, 4).expect("EF graph");
    // The greedy fixtures run one node per shard so the fault layer sees
    // every edge of their smaller ring.
    let fn_ = scale.pick(12, 16);
    let fg = generators::ring(fn_);
    let fsharded = ShardedTopology::from_topology(&fg, fn_).expect("EF fixture graph");

    let input = Coloring::from_ids(n);
    let params = SequenceParams::derive(g.max_degree(), input.palette(), 0, 1).expect("EF params");
    let family = Arc::new(SequenceFamily::new(params));
    let trial_cap = params.rounds + 10;

    for (class, plan) in &classes {
        let rows: Vec<(&str, String, RunMetrics)> = vec![
            {
                let fam = Arc::clone(&family);
                let (v, m) = classify(
                    &sharded,
                    || {
                        (0..n)
                            .map(|v| TrialNode::new(Arc::clone(&fam), input.color(v)))
                            .collect::<Vec<_>>()
                    },
                    plan,
                    trial_cap,
                    |outs| outs.iter().map(|o| o.color).collect(),
                );
                ("trial (paper)", v, m)
            },
            {
                let (v, m) = classify(
                    &sharded,
                    || (0..n).map(|_| UltrafastNode::new(seed)).collect::<Vec<_>>(),
                    plan,
                    ultrafast::round_cap(n) + 8,
                    |outs| outs.to_vec(),
                );
                ("ultrafast (HNT)", v, m)
            },
            {
                let (v, m) = classify(
                    &sharded,
                    || {
                        (0..n)
                            .map(|_| DegreePlusOneNode::new(seed))
                            .collect::<Vec<_>>()
                    },
                    plan,
                    degree_plus_one::round_cap(n) + 8,
                    |outs| outs.to_vec(),
                );
                ("degree+1 (D1LC)", v, m)
            },
            {
                let (v, m) = classify(
                    &fsharded,
                    || vec![GreedyUnprotected::new(); fn_],
                    plan,
                    64,
                    |outs| outs.to_vec(),
                );
                ("greedy-unprotected", v, m)
            },
            {
                let (v, m) = classify(
                    &fsharded,
                    || vec![GreedyRobust::new(4); fn_],
                    plan,
                    64,
                    |outs| outs.to_vec(),
                );
                ("greedy-robust", v, m)
            },
        ];
        for (algo, verdict, m) in rows {
            t.push_row(vec![
                algo.to_string(),
                class.to_string(),
                plan.to_spec(),
                verdict,
                m.rounds.to_string(),
                m.faults_dropped.to_string(),
                m.faults_duplicated.to_string(),
                m.faults_delayed.to_string(),
                m.faults_retransmitted.to_string(),
                m.stale_overwrites.to_string(),
            ]);
        }
    }
    t
}

/// An experiment's runner: builds its table at the given scale.
pub type Runner = fn(Scale) -> Table;

/// Every experiment as `(id, runner)`, in the order [`run_all`] runs them;
/// the id is the one its table's title starts with (`exp_all --only ID`).
pub const EXPERIMENTS: &[(&str, Runner)] = &[
    ("E1", e1_tradeoff),
    ("E2", e2_linial_step),
    ("E3", e3_delta_squared),
    ("E4", e4_outdegree),
    ("E5", e5_defective),
    ("E6", e6_delta_plus_one),
    ("E7", e7_fast),
    ("E8", e8_ruling),
    ("E9", e9_one_round),
    ("E10", e10_chopping),
    ("E11", e11_logstar),
    ("E12", e12_bandwidth),
    ("ET", transport_backends),
    ("EB", eb_randomized_baselines),
    ("EF", ef_fault_injection),
];

/// Runs every experiment at the given scale and returns the tables in order.
pub fn run_all(scale: Scale) -> Vec<Table> {
    EXPERIMENTS.iter().map(|(_, run)| run(scale)).collect()
}

/// Helper shared by the experiment binaries: parse `--full` from the argv.
pub fn scale_from_args() -> Scale {
    if std::env::args().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Quick
    }
}

/// Helper shared by the experiment binaries: parse `--jsonl PATH` from the
/// argv.  When present, binaries append every table row as a JSON-lines
/// record to `PATH` (via [`Table::to_jsonl`] and
/// [`dcme_congest::JsonLinesWriter`]) in addition to printing markdown.
pub fn jsonl_path_from_args() -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--jsonl" {
            return args.next().map(std::path::PathBuf::from);
        }
    }
    None
}

/// Appends every row of `tables` to the JSON-lines file at `path` (created
/// if missing), as the experiment binaries do for `--jsonl`.
pub fn append_tables_jsonl(path: &std::path::Path, tables: &[Table]) -> std::io::Result<()> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut writer = dcme_congest::JsonLinesWriter::new(file);
    for table in tables {
        for line in table.to_jsonl().lines() {
            writer.append_raw(line)?;
        }
    }
    Ok(())
}

/// Needed by E12 and tests: a tiny smoke check that a topology is usable.
pub fn smoke(topology: &Topology) -> bool {
    topology.num_nodes() > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_experiments_produce_rows() {
        // The cheap experiments run in a few hundred milliseconds each; the
        // expensive ones are covered by the binaries and integration tests.
        assert!(!e2_linial_step(Scale::Quick).rows.is_empty());
        assert!(!e4_outdegree(Scale::Quick).rows.is_empty());
        assert!(!e5_defective(Scale::Quick).rows.is_empty());
        assert!(!e12_bandwidth(Scale::Quick).rows.is_empty());
        let et = transport_backends(Scale::Quick);
        assert!(!et.rows.is_empty());
        // Every socket row must have crossed real wire bytes.
        for row in et.rows.iter().filter(|r| r[1].contains("socket")) {
            assert_ne!(row[5], "0", "socket backend sent no wire bytes: {row:?}");
        }
    }

    #[test]
    fn fault_injection_table_covers_the_matrix() {
        let ef = ef_fault_injection(Scale::Quick);
        // 6 fault classes × 5 algorithms.
        assert_eq!(ef.rows.len(), 6 * 5);
        // Fault-free rows and the true masking class (retransmission
        // delivers drops in their own round) must hold their invariants,
        // and the async-tolerant hardened fixture must hold everywhere.
        // Partition windows defer traffic even with retransmission — that
        // is reordering, which non-tolerant algorithms may legitimately
        // fail under; those rows are reported, not asserted.
        for row in &ef.rows {
            if row[1] == "none" || row[1] == "drop+retransmit" || row[0] == "greedy-robust" {
                assert_eq!(row[3], "holds", "row {row:?}");
            }
        }
        // The unprotected fixture exists to be broken.
        assert!(
            ef.rows
                .iter()
                .any(|r| r[0] == "greedy-unprotected" && r[3].starts_with("violated")),
            "the unprotected fixture must break under some fault class"
        );
        // Every row's plan column must round-trip through the spec parser.
        for row in &ef.rows {
            dcme_congest::FaultPlan::from_spec(&row[2]).expect("replayable plan spec");
        }
    }

    #[test]
    fn randomized_baselines_table_reports_every_backend() {
        // The runner itself asserts the fixed-seed bit-exactness; here we
        // additionally pin that every backend row made it into the table.
        let eb = eb_randomized_baselines(Scale::Quick);
        let backends = if cfg!(unix) { 4 } else { 3 };
        // 2 graphs × 2 algorithms × backends.
        assert_eq!(eb.rows.len(), 2 * 2 * backends);
        assert!(eb.rows.iter().all(|r| r[7] == "true"));
    }

    #[test]
    fn smoke_helper() {
        assert!(smoke(&generators::ring(4)));
    }
}
