//! Property-based integration tests: the paper's invariants must hold for
//! arbitrary random workloads and parameters, not just the hand-picked ones.

use proptest::prelude::*;

use dcme_algebra::sequence::{SequenceFamily, SequenceParams, Trial};
use dcme_coloring::trial::TrialOutcome;
use dcme_coloring::{corollary, reduction, trial, TrialConfig};
use dcme_congest::{ExecutionMode, Topology};
use dcme_graphs::{coloring::Coloring, generators, verify};

/// An oracle for Algorithm 1 built only from [`SequenceFamily::batch`] and
/// the run's outputs.  A node `v` in part `r` must hold the first trial of
/// its batch `r` with at most `d` conflicts.  The conflicts of a trial are
/// the neighbours still active in batch `r` (part ≥ r) whose batch `r`
/// contains it, plus the neighbours colored with it in an earlier batch
/// (part < r).  `batch` yields the short last batch when `k` does not
/// divide `q`, and the whole sequence in one batch when `k > q`.
fn check_first_d_proper_trial(
    g: &Topology,
    input: &Coloring,
    out: &TrialOutcome,
) -> Result<(), TestCaseError> {
    let params = out.params;
    let fam = SequenceFamily::new(params);
    let colors = out.coloring().colors();
    let parts = &out.result.partition;
    for v in 0..g.num_nodes() {
        let r = parts[v];
        let (active, colored): (Vec<usize>, Vec<usize>) =
            g.neighbors(v).partition(|&u| parts[u] >= r);
        let active: Vec<Vec<Trial>> = active
            .into_iter()
            .map(|u| fam.batch(input.color(u), r))
            .collect();
        let first = fam.batch(input.color(v), r).into_iter().find(|t| {
            let same_round = active.iter().filter(|b| b.contains(t)).count();
            let earlier = colored
                .iter()
                .filter(|&&u| colors[u] == t.encode(params.q))
                .count();
            same_round + earlier <= params.d as usize
        });
        prop_assert_eq!(
            first.map(|t| t.encode(params.q)),
            Some(colors[v]),
            "node {} in part {} (k = {}, q = {}, d = {})",
            v,
            r,
            params.k,
            params.q,
            params.d
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 1.1 on random G(n, p): proper output, round bound, palette
    /// bound, and CONGEST feasibility — for arbitrary k.
    #[test]
    fn trial_coloring_invariants(
        n in 20usize..120,
        p in 0.02f64..0.25,
        seed in 0u64..1000,
        k in 1u64..64,
    ) {
        let g = generators::gnp(n, p, seed);
        let ids = Coloring::from_ids(n);
        let out = trial::run(&g, &ids, TrialConfig::proper(k)).unwrap();
        prop_assert!(verify::check_proper(&g, out.coloring()).is_ok());
        prop_assert!(verify::check_palette(out.coloring(), out.params.color_bound()).is_ok());
        prop_assert!(out.metrics.rounds <= out.params.rounds + 1);
        let report = dcme_congest::BandwidthReport::check(n, &out.metrics, 6);
        prop_assert!(report.within_congest);
        // Unless k is 1 or q, it does not divide the prime q: the last
        // batch is short.
        check_first_d_proper_trial(&g, &ids, &out)?;
        // k = 1 as well, where blocking by already-colored neighbours is
        // common (a random k mostly finishes in the first batch).
        let one = trial::run(&g, &ids, TrialConfig::proper(1)).unwrap();
        check_first_d_proper_trial(&g, &ids, &one)?;
    }

    /// The defective variant: defect ≤ d for the one-round setting and a
    /// valid orientation + partition for k = 1 (Theorem 1.1 (1) and (2)).
    #[test]
    fn defective_and_outdegree_invariants(
        n in 30usize..100,
        d_frac in 1u32..4,
        seed in 0u64..500,
    ) {
        let g = generators::random_regular(n, 12, seed);
        let ids = Coloring::from_ids(n);
        let delta = g.max_degree();
        prop_assume!(delta >= 4);
        let d = (delta / (d_frac + 1)).max(1);

        let one = corollary::defective_one_round(&g, &ids, d).unwrap();
        prop_assert!(verify::check_defective(&g, one.coloring(), d as usize).is_ok());
        // k = X > q: one batch holding the whole sequence.
        prop_assert!(one.params.k > one.params.q);
        check_first_d_proper_trial(&g, &ids, &one)?;

        let out = corollary::outdegree_coloring(&g, &ids, d).unwrap();
        prop_assert!(verify::check_outdegree_orientation(&g, &out.result.oriented, d as usize).is_ok());
        prop_assert!(verify::check_partition_degree(&g, &out.result, d as usize).is_ok());
        check_first_d_proper_trial(&g, &ids, &out)?;
    }

    /// Trial sequences: distinct input colors never collide in more than f
    /// positions (the combinatorial heart of the round bound).
    #[test]
    fn sequence_collision_invariant(
        delta in 2u32..24,
        d in 0u32..4,
        a in 0u64..2000,
        b in 0u64..2000,
    ) {
        prop_assume!(d < delta);
        let m = 2048u64;
        prop_assume!(a < m && b < m && a != b);
        let params = SequenceParams::derive(delta, m, d, 1).unwrap();
        let fam = SequenceFamily::new(params);
        prop_assert!(fam.collision_count(a, b) <= params.f as usize);
    }

    /// The one-round reduction of Lemma 4.1 always produces a proper coloring
    /// with exactly `max_reducible` fewer palette entries.
    #[test]
    fn one_round_reduction_invariant(
        n in 40usize..120,
        d in 4usize..10,
        seed in 0u64..300,
        extra in 2u64..40,
    ) {
        let g = generators::random_regular(n, d, seed);
        let delta = g.max_degree();
        prop_assume!(delta >= 2);
        let m = delta as u64 + 1 + extra;
        prop_assume!(m <= n as u64);
        // Build a proper m-coloring by greedy + spreading the ids.
        let base = dcme_coloring::linial::delta_squared_from_ids(&g, None).unwrap().coloring;
        let input = if base.palette() > m {
            dcme_coloring::elimination::reduce_to_target(&g, &base, m, ExecutionMode::Sequential)
                .unwrap().0
        } else {
            base.with_palette(m)
        };
        let k = reduction::max_reducible(m, delta);
        let out = reduction::one_round_reduction(&g, &input, ExecutionMode::Sequential).unwrap();
        prop_assert!(verify::check_proper(&g, &out.coloring).is_ok());
        prop_assert_eq!(out.removed, k);
        prop_assert_eq!(out.coloring.palette(), m - k);
    }

    /// Theorem 1.6 threshold sanity: the required-input-colors formula is
    /// monotone in k up to its cap and max_reducible inverts it.
    #[test]
    fn threshold_consistency(delta in 2u32..64, m in 3u64..4096) {
        let k = reduction::max_reducible(m, delta);
        if k > 0 {
            prop_assert!(m >= reduction::required_input_colors(k, delta));
        }
        if k < (delta as u64).saturating_sub(1).min((delta as u64 + 3) / 2) {
            prop_assert!(m < reduction::required_input_colors(k + 1, delta));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The bitset palette (`ColorSet`) against a `HashSet<u64>` reference
    /// model: random op sequences over palettes up to 4096 colors must agree
    /// on membership, free-color counts, first-free and nth-free selection
    /// (the word-scan/popcount paths the randomized baselines now run on).
    ///
    /// The vendored proptest stub only generates integer ranges, so the op
    /// sequence itself is derived from a seeded `StdRng` inside the test.
    #[test]
    fn color_set_matches_hashset_model(
        seed in 0u64..5_000,
        palette in 1u64..4096,
    ) {
        use dcme_baselines::bitset::ColorSet;
        use dcme_baselines::rand_primitives::round_rng;
        use rand::RngExt;
        use std::collections::HashSet;

        let mut rng = round_rng(seed, 0xB175E7, palette);
        let mut set = ColorSet::with_palette(palette);
        let mut model: HashSet<u64> = HashSet::new();
        for step in 0..400u32 {
            match rng.random_range(0..6u32) {
                // Insert, occasionally past the palette edge: D1LC blocks
                // colors from neighbours whose lists are longer than its own,
                // so growth beyond the presized words must stay correct.
                0 | 1 => {
                    let c = rng.random_range(0..palette + palette / 2 + 1);
                    prop_assert_eq!(set.insert(c), model.insert(c), "insert {} at step {}", c, step);
                }
                2 => {
                    let c = rng.random_range(0..palette + palette / 2 + 1);
                    prop_assert_eq!(set.contains(c), model.contains(&c), "contains {} at step {}", c, step);
                }
                3 => {
                    let blocked_below = model.iter().filter(|&&c| c < palette).count() as u64;
                    prop_assert_eq!(set.count_below(palette), blocked_below);
                    prop_assert_eq!(set.count_free(palette), palette - blocked_below);
                }
                4 => {
                    let first = (0..palette).find(|c| !model.contains(c));
                    prop_assert_eq!(set.find_first_free(palette), first);
                }
                _ => {
                    let free: Vec<u64> = (0..palette).filter(|c| !model.contains(c)).collect();
                    // In range, at the edge, and past the end.
                    for n in [0, free.len() as u64 / 2, free.len().saturating_sub(1) as u64, free.len() as u64] {
                        prop_assert_eq!(set.nth_free(palette, n), free.get(n as usize).copied());
                    }
                }
            }
            if step == 200 {
                set.clear();
                model.clear();
            }
        }
    }
}
