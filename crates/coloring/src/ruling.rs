//! Ruling sets: Lemma 3.2 and Theorem 1.5.
//!
//! A `(2, r)`-ruling set is an independent set `S` such that every vertex has
//! a member of `S` within hop distance `r`.  Lemma 3.2 (\[KMW18\]) turns any
//! `C`-coloring into a `(2, ⌈log_B C⌉)`-ruling set in `O(B log_B C)` rounds;
//! Theorem 1.5 balances the cost of *computing* the coloring (via
//! Theorem 1.3) against the cost of *using* it, obtaining
//! `O(Δ^{2/(r+2)}) + log* n` rounds — an improvement over the previous
//! `O(Δ^{2/r}) + log* n` bound, which we also implement as the baseline
//! (same lemma, but fed with Linial's `O(Δ²)`-coloring).
//!
//! The block algorithm implemented here is the classic recursive sparsification:
//! per level the current candidate set is swept through `B` color blocks, one
//! round per block; a candidate joins the next level's candidate set iff no
//! neighbour joined earlier in the sweep.  Every level shrinks the effective
//! palette by a factor `B` and increases the domination radius by one, so
//! after `⌈log_B C⌉` levels the surviving candidates form an independent set
//! that rules the whole graph at distance `⌈log_B C⌉`.  Round accounting is
//! `B` rounds per level, exactly as in Lemma 3.2.

use dcme_congest::Topology;
use dcme_graphs::coloring::Coloring;
use dcme_graphs::verify;

use crate::error::ColoringError;
use crate::fast;
use crate::linial;

/// Result of a ruling-set computation.
#[derive(Debug, Clone)]
pub struct RulingSetOutcome {
    /// Membership vector of the ruling set.
    pub in_set: Vec<bool>,
    /// Domination radius actually guaranteed (number of sparsification levels).
    pub radius: usize,
    /// Rounds charged for the sparsification sweeps (`B` per level).
    pub rounds: u64,
    /// Rounds spent computing the coloring that seeded the sparsification
    /// (0 when the caller supplied the coloring).
    pub coloring_rounds: u64,
    /// Size of the returned set.
    pub set_size: usize,
}

impl RulingSetOutcome {
    /// Total rounds: seeding coloring plus sparsification.
    pub fn total_rounds(&self) -> u64 {
        self.coloring_rounds + self.rounds
    }
}

/// Lemma 3.2: from a proper `C`-coloring, computes a `(2, ⌈log_B C⌉)`-ruling
/// set in `O(B · log_B C)` rounds.
pub fn ruling_set_from_coloring(
    topology: &Topology,
    coloring: &Coloring,
    b: u64,
) -> Result<RulingSetOutcome, ColoringError> {
    if b < 2 {
        return Err(ColoringError::InvalidParameter {
            reason: format!("block parameter B = {b} must be at least 2"),
        });
    }
    if coloring.len() != topology.num_nodes() {
        return Err(ColoringError::InputSizeMismatch {
            nodes: topology.num_nodes(),
            colors: coloring.len(),
        });
    }
    verify::check_proper(topology, coloring).map_err(ColoringError::ImproperInput)?;

    let n = topology.num_nodes();
    let mut candidate: Vec<bool> = vec![true; n];
    // The effective color of each candidate, living in a palette that shrinks
    // by a factor B per level.
    let mut color: Vec<u64> = (0..n).map(|v| coloring.color(v)).collect();
    let mut palette = coloring.palette().max(1);
    let mut rounds = 0u64;
    let mut radius = 0usize;

    while palette > 1 {
        let block_size = palette.div_ceil(b);
        // One sweep: blocks 0..B processed sequentially, one round each.
        let mut joined: Vec<bool> = vec![false; n];
        let blocks_this_level = palette.div_ceil(block_size);
        for block in 0..blocks_this_level {
            rounds += 1;
            // A candidate in this block joins iff no neighbour has joined in
            // an earlier block of this sweep (or earlier in this very round —
            // same-block neighbours are resolved in the *next* level because
            // their within-block colors still differ).
            let lo = block * block_size;
            let hi = (lo + block_size).min(palette);
            let snapshot = joined.clone();
            for v in 0..n {
                if candidate[v] && color[v] >= lo && color[v] < hi {
                    let blocked = topology.neighbors(v).any(|u| snapshot[u]);
                    if !blocked {
                        joined[v] = true;
                    }
                }
            }
        }
        // Next level: survivors keep their within-block color.
        for v in 0..n {
            if candidate[v] && joined[v] {
                color[v] %= block_size;
            }
            candidate[v] = candidate[v] && joined[v];
        }
        palette = block_size;
        radius += 1;
        if palette <= 1 {
            break;
        }
    }

    // After the final level every surviving candidate has the same effective
    // color (palette 1); surviving neighbours were eliminated level by level,
    // except possibly same-color pairs in the very last block sweep — finish
    // with one more sequential round over the final singleton palette.
    let mut in_set = candidate;
    // Resolve any residual adjacent pairs deterministically (lowest id wins);
    // this corresponds to the final single-color sweep round.
    rounds += 1;
    for v in 0..n {
        if in_set[v] && topology.neighbors(v).any(|u| u < v && in_set[u]) {
            in_set[v] = false;
        }
    }

    let set_size = in_set.iter().filter(|&&x| x).count();
    verify::check_ruling_set(topology, &in_set, radius.max(1))
        .map_err(ColoringError::PostconditionFailed)?;

    Ok(RulingSetOutcome {
        in_set,
        radius: radius.max(1),
        rounds,
        coloring_rounds: 0,
        set_size,
    })
}

/// Theorem 1.5: a `(2, r)`-ruling set in `O(Δ^{2/(r+2)}) + log* n` rounds.
///
/// Computes the `O(Δ^{1+ε})`-coloring of Theorem 1.3 with `ε = (r-2)/(r+2)`
/// and applies Lemma 3.2 with `B ≈ C^{1/r}`.
pub fn ruling_set(topology: &Topology, r: usize) -> Result<RulingSetOutcome, ColoringError> {
    if r < 2 {
        return Err(ColoringError::InvalidParameter {
            reason: format!("Theorem 1.5 requires r >= 2, got {r}"),
        });
    }
    // Seed: Linial O(Δ²) coloring from the identifiers (log* n rounds) …
    let lin = linial::delta_squared_from_ids(topology, None)?;
    // … then the Theorem 1.3 coloring with ε = (r-2)/(r+2).
    let epsilon = (r as f64 - 2.0) / (r as f64 + 2.0);
    let fast_out = fast::fast_coloring(
        topology,
        &lin.coloring,
        epsilon,
        dcme_congest::ExecutionMode::Sequential,
    )?;
    let coloring = fast_out.coloring.compacted();
    let seed_rounds = lin.total_rounds + fast_out.total_rounds();

    let b = block_parameter(coloring.palette(), r);
    let mut out = ruling_set_from_coloring(topology, &coloring, b)?;
    out.coloring_rounds = seed_rounds;
    if out.radius > r {
        return Err(ColoringError::PostconditionFailed(
            dcme_graphs::verify::Violation::NotDominated { node: 0, radius: r },
        ));
    }
    Ok(out)
}

/// The SEW13-style baseline: the same Lemma 3.2, but seeded with Linial's
/// `O(Δ²)`-coloring only, giving `O(Δ^{2/r}) + log* n` rounds.
pub fn ruling_set_baseline(
    topology: &Topology,
    r: usize,
) -> Result<RulingSetOutcome, ColoringError> {
    if r < 1 {
        return Err(ColoringError::InvalidParameter {
            reason: "r must be at least 1".into(),
        });
    }
    let lin = linial::delta_squared_from_ids(topology, None)?;
    let coloring = lin.coloring.compacted();
    let b = block_parameter(coloring.palette(), r);
    let mut out = ruling_set_from_coloring(topology, &coloring, b)?;
    out.coloring_rounds = lin.total_rounds;
    Ok(out)
}

/// An `(α, r)`-ruling set via the power graph `G^{α-1}` (LOCAL model only, as
/// in the paper's remark after Theorem 1.5).
pub fn alpha_ruling_set(
    topology: &Topology,
    alpha: usize,
    r: usize,
) -> Result<RulingSetOutcome, ColoringError> {
    if alpha < 2 {
        return Err(ColoringError::InvalidParameter {
            reason: "alpha must be at least 2 (alpha = 2 is the ordinary case)".into(),
        });
    }
    let power = topology.power(alpha - 1);
    let lin = linial::delta_squared_from_ids(&power, None)?;
    let coloring = lin.coloring.compacted();
    let b = block_parameter(coloring.palette(), r.max(1));
    let mut out = ruling_set_from_coloring(&power, &coloring, b)?;
    out.coloring_rounds = lin.total_rounds;
    // Independence in G^{alpha-1} means pairwise distance >= alpha in G; the
    // domination radius in G is at most (alpha-1) * radius.
    out.radius *= alpha - 1;
    verify::check_ruling_set(topology, &out.in_set, out.radius)
        .map_err(ColoringError::PostconditionFailed)?;
    Ok(out)
}

/// Picks `B` such that the block sparsification of a `C`-color palette needs
/// at most `r` levels, i.e. `B ≈ C^{1/r}` (at least 2).
pub fn block_parameter(palette: u64, r: usize) -> u64 {
    let c = palette.max(2) as f64;
    let mut b = (c.powf(1.0 / r as f64).ceil() as u64).max(2);
    loop {
        // Simulate the level count including the ceil-division rounding the
        // sweep actually performs.
        let mut p = palette.max(1);
        let mut levels = 0usize;
        while p > 1 {
            p = p.div_ceil(b);
            levels += 1;
        }
        if levels <= r {
            return b;
        }
        b += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcme_graphs::generators;

    #[test]
    fn block_parameter_covers_palette() {
        for c in [2u64, 10, 100, 1000, 4096] {
            for r in 1..6usize {
                let b = block_parameter(c, r);
                assert!((b as u128).pow(r as u32) >= c as u128, "c={c} r={r} b={b}");
            }
        }
    }

    #[test]
    fn lemma_3_2_on_ring_with_id_coloring() {
        let g = generators::ring(64);
        let coloring = Coloring::from_ids(64);
        let out = ruling_set_from_coloring(&g, &coloring, 4).unwrap();
        verify::check_ruling_set(&g, &out.in_set, out.radius).unwrap();
        assert!(out.set_size >= 1);
        // radius <= ceil(log_4 64) = 3.
        assert!(out.radius <= 3);
        // rounds <= B per level (+ final sweep round).
        assert!(out.rounds <= 4 * 3 + 1);
    }

    #[test]
    fn theorem_1_5_ruling_sets_for_various_r() {
        let g = generators::random_regular(300, 12, 5);
        for r in [2usize, 3, 4] {
            let out = ruling_set(&g, r).unwrap();
            verify::check_ruling_set(&g, &out.in_set, r).unwrap();
            assert!(out.radius <= r, "r={r} radius={}", out.radius);
            assert!(out.set_size >= 1);
        }
    }

    #[test]
    fn baseline_uses_more_sparsification_rounds_for_same_radius() {
        // The baseline seeds Lemma 3.2 with an O(Δ²)-coloring, the improved
        // algorithm with an O(Δ^{1+ε})-coloring; for the same r the improved
        // algorithm's B (and hence its sweep rounds) is no larger.
        let g = generators::random_regular(400, 16, 8);
        let r = 2;
        let improved = ruling_set(&g, r).unwrap();
        let baseline = ruling_set_baseline(&g, r).unwrap();
        verify::check_ruling_set(&g, &baseline.in_set, baseline.radius).unwrap();
        assert!(improved.rounds <= baseline.rounds);
    }

    #[test]
    fn rejects_bad_parameters() {
        let g = generators::ring(8);
        let c = Coloring::from_ids(8);
        assert!(matches!(
            ruling_set_from_coloring(&g, &c, 1),
            Err(ColoringError::InvalidParameter { .. })
        ));
        assert!(matches!(
            ruling_set(&g, 1),
            Err(ColoringError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn alpha_ruling_set_spreads_members_apart() {
        let g = generators::ring(48);
        let out = alpha_ruling_set(&g, 3, 2).unwrap();
        verify::check_ruling_set(&g, &out.in_set, out.radius).unwrap();
        // Independence in G^2: members are at pairwise distance >= 3 on the ring.
        let members: Vec<usize> = (0..48).filter(|&v| out.in_set[v]).collect();
        for w in members.windows(2) {
            assert!(w[1] - w[0] >= 3);
        }
    }

    #[test]
    fn ruling_set_on_disconnected_graph() {
        let g = generators::disjoint_cliques(4, 5);
        let coloring = Coloring::from_ids(20);
        let out = ruling_set_from_coloring(&g, &coloring, 3).unwrap();
        verify::check_ruling_set(&g, &out.in_set, out.radius).unwrap();
        // Every clique needs exactly one member.
        assert_eq!(out.set_size, 4);
    }
}
