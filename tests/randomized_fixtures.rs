//! Fixed-seed regression fixtures for the randomized baselines and the
//! paper's deterministic algorithms.
//!
//! The raw-speed pass (bitset palettes, branchless cores) must be
//! bit-for-bit invisible: these fixtures pin ultrafast / degree+1
//! outputs, round counts, message counts and bit totals to the values
//! recorded on the pre-optimisation `HashSet`-based implementation.
//! Any drift in the RNG draw sequence or conflict-resolution order
//! shows up here as a hard failure with the diverging fixture named.
//!
//! The second table pins the mother algorithm (Algorithm 1) and the
//! presets built on it — coloring, partition, orientation, rounds,
//! messages and bits — to the values recorded on the pooled-batch
//! conflict scan, before the slot-aligned early-exit scan replaced it.

use dcme_baselines::degree_plus_one::{self, DegreePlusOneNode};
use dcme_baselines::ultrafast::{self, UltrafastNode};
use dcme_coloring::trial::{self, TrialConfig, TrialOutcome};
use dcme_coloring::{corollary, linial, pipeline};
use dcme_congest::{
    ExecutionMode, NodeAlgorithm, RunMetrics, RunOutcome, Simulator, SimulatorConfig, Topology,
};
use dcme_graphs::{generators, Coloring};

/// One recorded run: (fixture name, rounds, messages, total_bits, output digest).
type Fixture = (&'static str, u64, u64, u64, u64);

/// FNV-1a over a sequence of words, order-sensitive.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        h ^= w.wrapping_add(1);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the finished color assignment, order-sensitive.
fn digest(outputs: &[Option<u64>]) -> u64 {
    fnv(outputs
        .iter()
        .map(|out| out.expect("fixture runs must finish within the round cap")))
}

/// Fails with the current values, ready to paste, unless `got` matches.
fn assert_fixtures(expected: &[Fixture], got: &[Fixture]) {
    if expected != got {
        let mut listing = String::new();
        for (name, r, m, b, d) in got {
            listing.push_str(&format!("    (\"{name}\", {r}, {m}, {b}, {d:#018x}),\n"));
        }
        panic!("fixture drift; current values:\n{listing}");
    }
}

fn graphs() -> Vec<(&'static str, Topology)> {
    vec![
        ("ring64", generators::ring(64)),
        ("rr48d4", generators::random_regular(48, 4, 7)),
        ("star33", generators::star(33)),
        ("grid6x8", generators::grid(6, 8, true)),
    ]
}

fn run<A: NodeAlgorithm<Output = Option<u64>>>(
    g: &Topology,
    cap: u64,
    nodes: Vec<A>,
) -> RunOutcome<Option<u64>> {
    let config = SimulatorConfig {
        max_rounds: cap,
        mode: ExecutionMode::Sequential,
    };
    Simulator::with_config(g, config).run(nodes)
}

fn record() -> Vec<Fixture> {
    let mut got = Vec::new();
    for (gname, g) in graphs() {
        let n = g.num_nodes();
        for seed in [11u64, 42] {
            let uf = run(
                &g,
                ultrafast::round_cap(n),
                (0..n).map(|_| UltrafastNode::new(seed)).collect::<Vec<_>>(),
            );
            let name: &'static str =
                Box::leak(format!("ultrafast/{gname}/seed{seed}").into_boxed_str());
            got.push((
                name,
                uf.metrics.rounds,
                uf.metrics.messages,
                uf.metrics.total_bits,
                digest(&uf.outputs),
            ));
            let d1 = run(
                &g,
                degree_plus_one::round_cap(n),
                (0..n)
                    .map(|_| DegreePlusOneNode::new(seed))
                    .collect::<Vec<_>>(),
            );
            let name: &'static str = Box::leak(format!("d1lc/{gname}/seed{seed}").into_boxed_str());
            got.push((
                name,
                d1.metrics.rounds,
                d1.metrics.messages,
                d1.metrics.total_bits,
                digest(&d1.outputs),
            ));
        }
    }
    got
}

/// Recorded on the pre-optimisation implementation (HashSet palettes,
/// per-port contains loops) — the raw-speed pass must reproduce these
/// exactly.
const EXPECTED: &[Fixture] = &[
    ("ultrafast/ring64/seed11", 6, 354, 1214, 0xe02376e3d9a43bd1),
    ("d1lc/ring64/seed11", 6, 314, 1686, 0x422014c1045ad1a6),
    ("ultrafast/ring64/seed42", 7, 344, 1200, 0xd5801b6b205a73e3),
    ("d1lc/ring64/seed42", 5, 324, 1716, 0xecf2187692cf6838),
    ("ultrafast/rr48d4/seed11", 8, 540, 2144, 0x010c3579fdff0476),
    ("d1lc/rr48d4/seed11", 5, 484, 2927, 0x78af8e2f53db69da),
    ("ultrafast/rr48d4/seed42", 7, 520, 1992, 0x022ccff340bc6c38),
    ("d1lc/rr48d4/seed42", 6, 457, 2598, 0xf56e99886d25df8a),
    ("ultrafast/star33/seed11", 4, 134, 647, 0xbd6873d509fb8a07),
    ("d1lc/star33/seed11", 2, 132, 636, 0x23a85b5bfc8f2a03),
    ("ultrafast/star33/seed42", 3, 132, 926, 0x25fea8e0720cfc2d),
    ("d1lc/star33/seed42", 2, 132, 702, 0x6b5e6539c5a50294),
    ("ultrafast/grid6x8/seed11", 6, 576, 2468, 0xe96bc0a3a2bdfef9),
    ("d1lc/grid6x8/seed11", 6, 476, 2720, 0x79070a7a4a02bf78),
    ("ultrafast/grid6x8/seed42", 7, 544, 2308, 0xb0241944076caa9e),
    ("d1lc/grid6x8/seed42", 5, 480, 2720, 0xcc65cf611da4fb8c),
];

#[test]
fn fixed_seed_runs_match_pre_optimisation_recordings() {
    assert_fixtures(EXPECTED, &record());
}

/// Digest of a mother-algorithm run: every node's color and part, then
/// every node's out-neighbour list (length first, so lists cannot blur).
fn trial_digest(out: &TrialOutcome) -> u64 {
    let r = &out.result;
    let colors = r.oriented.coloring.colors().iter().copied();
    let parts = r.partition.iter().copied();
    let outs = r
        .oriented
        .out_neighbors
        .iter()
        .flat_map(|ns| std::iter::once(ns.len() as u64).chain(ns.iter().map(|&u| u as u64)));
    fnv(colors.chain(parts).chain(outs))
}

fn paper_fixture(name: String, m: &RunMetrics, digest: u64) -> Fixture {
    let name: &'static str = Box::leak(name.into_boxed_str());
    (name, m.rounds, m.messages, m.total_bits, digest)
}

fn paper_graphs() -> Vec<(&'static str, Topology)> {
    vec![
        ("rr60d6", generators::random_regular(60, 6, 3)),
        ("rr90d9", generators::random_regular(90, 9, 5)),
        ("gnp70", generators::gnp(70, 0.1, 9)),
    ]
}

fn record_paper() -> Vec<Fixture> {
    let mut got = Vec::new();
    for (gname, g) in paper_graphs() {
        let ids = Coloring::from_ids(g.num_nodes());
        let out = corollary::linial_color_reduction(&g, &ids).unwrap();
        got.push(paper_fixture(
            format!("linial-step/{gname}"),
            &out.metrics,
            trial_digest(&out),
        ));
        for k in [1u64, 3] {
            for d in [0u32, 2] {
                let config = TrialConfig::defective(d, k);
                let out = trial::run(&g, &ids, config).unwrap();
                got.push(paper_fixture(
                    format!("trial/{gname}/k{k}d{d}"),
                    &out.metrics,
                    trial_digest(&out),
                ));
            }
        }
        let out = corollary::defective_one_round(&g, &ids, 2).unwrap();
        got.push(paper_fixture(
            format!("defective-one-round/{gname}/d2"),
            &out.metrics,
            trial_digest(&out),
        ));
        let out = corollary::outdegree_coloring(&g, &ids, 2).unwrap();
        got.push(paper_fixture(
            format!("outdegree/{gname}/beta2"),
            &out.metrics,
            trial_digest(&out),
        ));
    }
    // Linial's iteration only makes progress once n is well above
    // (fΔ)², so the larger graphs go through the iterated reduction and
    // the whole Δ+1 pipeline as well.
    let larger = [
        ("ring4096", generators::ring(4096)),
        ("rr2000d8", generators::random_regular(2000, 8, 11)),
    ];
    for (gname, g) in paper_graphs().into_iter().chain(larger) {
        let lin = linial::delta_squared_from_ids(&g, None).unwrap();
        let words = lin.coloring.colors().iter().copied();
        let trace = lin.palette_trace.iter().copied();
        got.push(paper_fixture(
            format!("linial-iterated/{gname}"),
            &lin.metrics,
            fnv(words.chain(trace).chain([lin.iterations])),
        ));
        let res = pipeline::delta_plus_one(&g).unwrap();
        got.push(paper_fixture(
            format!("delta-plus-one/{gname}"),
            &res.metrics,
            fnv(res.coloring.colors().iter().copied()),
        ));
    }
    got
}

/// Recorded on the pooled-batch conflict scan of `TrialNode::receive`
/// (every active neighbour's whole batch gathered, then counted per own
/// trial) and the iterated Linial reduction that simulated its final,
/// discarded step.
const PAPER_EXPECTED: &[Fixture] = &[
    ("linial-step/rr60d6", 2, 696, 4157, 0xa337f8b223f441fb),
    ("trial/rr60d6/k1d0", 4, 1067, 6125, 0xc3d4178aa11d6b6d),
    ("trial/rr60d6/k1d2", 3, 1044, 5866, 0xbea35a3b77bf97c6),
    ("trial/rr60d6/k3d0", 2, 696, 4590, 0x4f4fb022332f80f5),
    ("trial/rr60d6/k3d2", 2, 696, 4475, 0xdb70889761a22fb4),
    (
        "defective-one-round/rr60d6/d2",
        2,
        696,
        4475,
        0xdb70889761a22fb4,
    ),
    ("outdegree/rr60d6/beta2", 3, 1044, 5866, 0xbea35a3b77bf97c6),
    ("linial-step/rr90d9", 2, 1532, 10197, 0x8b829668f7113ff6),
    ("trial/rr90d9/k1d0", 4, 2332, 14733, 0x24d0c8589a090580),
    ("trial/rr90d9/k1d2", 3, 2298, 14021, 0xe0e18ecca71b340b),
    ("trial/rr90d9/k3d0", 2, 1532, 11139, 0xeec6a072c8e0edca),
    ("trial/rr90d9/k3d2", 2, 1532, 10401, 0xffed2cbcbc862c87),
    (
        "defective-one-round/rr90d9/d2",
        2,
        1532,
        10401,
        0xffed2cbcbc862c87,
    ),
    ("outdegree/rr90d9/beta2", 3, 2298, 14021, 0xe0e18ecca71b340b),
    ("linial-step/gnp70", 2, 1116, 7468, 0x7b84a4cece84c85a),
    ("trial/gnp70/k1d0", 4, 1702, 10381, 0xd89e048aa23ec418),
    ("trial/gnp70/k1d2", 3, 1674, 9733, 0x343087280b3b3f3a),
    ("trial/gnp70/k3d0", 3, 1124, 7990, 0x8c54be89d00465ab),
    ("trial/gnp70/k3d2", 2, 1116, 7386, 0xec19c546a230797a),
    (
        "defective-one-round/gnp70/d2",
        2,
        1116,
        7386,
        0xec19c546a230797a,
    ),
    ("outdegree/gnp70/beta2", 3, 1674, 9733, 0x343087280b3b3f3a),
    ("linial-iterated/rr60d6", 0, 0, 0, 0x18c6d1ab7f176e6b),
    (
        "delta-plus-one/rr60d6",
        32,
        10811,
        33639,
        0x7594aa0d3b008543,
    ),
    ("linial-iterated/rr90d9", 0, 0, 0, 0x0cbf66d6876a98ee),
    (
        "delta-plus-one/rr90d9",
        50,
        37568,
        123348,
        0x6e9027f6347adc70,
    ),
    ("linial-iterated/gnp70", 0, 0, 0, 0x1df049a0d67a9da2),
    ("delta-plus-one/gnp70", 46, 25138, 89806, 0x20ca93d98d8b4dae),
    (
        "linial-iterated/ring4096",
        4,
        32768,
        228630,
        0x64bc230eadd6874b,
    ),
    (
        "delta-plus-one/ring4096",
        11,
        90112,
        408172,
        0x0069221a01017707,
    ),
    (
        "linial-iterated/rr2000d8",
        2,
        31920,
        289162,
        0x4a0f7d1e0eaa2ff2,
    ),
    (
        "delta-plus-one/rr2000d8",
        66,
        1005984,
        4362209,
        0xef66841b6e9285f8,
    ),
];

#[test]
fn paper_algorithms_match_pooled_scan_recordings() {
    assert_fixtures(PAPER_EXPECTED, &record_paper());
}
