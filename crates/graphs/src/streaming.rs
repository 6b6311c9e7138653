//! Streaming builders for [`ShardedTopology`]: graph families that are
//! emitted edge-by-edge, shard-by-shard, **never materializing a global
//! `Vec<(NodeId, NodeId)>`**.
//!
//! The dense constructors in [`generators`](crate::generators) collect an
//! edge list and hand it to `Topology::from_edges`; at `n ≥ 10^7` that
//! transient list dwarfs the final CSR.  The builders here instead describe each family as a *replayable
//! edge stream* consumed twice by
//! [`ShardedTopology::from_edge_stream`] (degree pass + fill pass), so peak
//! memory is the compact sharded CSR itself.  Randomized families re-seed
//! their RNG inside the stream closure, making the two passes — and any two
//! builds with the same seed — emit identical edges.
//!
//! Two families deviate deliberately from their dense counterparts:
//!
//! * [`random_regular`] samples a **random circulant** graph (each node `i`
//!   is joined to `i ± s` for `d/2` distinct random shifts `s`) rather than
//!   the pairing model, which needs an `O(n·d)` stub permutation and
//!   edge dedup.  The result is exactly `d`-regular, which is what the
//!   experiments need from the family (a given `Δ`), and it streams in
//!   `O(d)` state.
//! * [`gnp`] draws the same `G(n, p)` distribution as the dense generator
//!   but enumerates present edges directly by geometric skips, costing
//!   `O(m)` draws instead of `O(n²)` Bernoulli trials (it produces a
//!   different — equally distributed — sample for a given seed).

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use dcme_congest::{ShardedTopology, TopologyError};

/// The replayable edge stream of a cycle on `n >= 3` nodes.
///
/// Every `*_stream` builder here returns a closure that emits the family's
/// full edge list on each call, always in the same order — the contract
/// [`ShardedTopology::from_edge_stream`] (two passes) and
/// [`ShardSliceTopology::build`](dcme_congest::ShardSliceTopology::build)
/// (a worker replaying a coordinator's
/// [`ShardPlan`](dcme_congest::ShardPlan)) both rely on.
pub fn ring_stream(n: usize) -> impl FnMut(&mut dyn FnMut(usize, usize)) + Clone {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    move |emit| {
        for i in 0..n {
            emit(i, (i + 1) % n);
        }
    }
}

/// A cycle on `n >= 3` nodes, in `shards` shards.
///
/// Streaming counterpart of [`generators::ring`](crate::generators::ring):
/// identical structure, identical port numbering.
pub fn ring(n: usize, shards: usize) -> Result<ShardedTopology, TopologyError> {
    ShardedTopology::from_edge_stream(n, shards, ring_stream(n))
}

/// A `w × h` grid (torus with `wrap = true`), in `shards` shards.
///
/// Streaming counterpart of [`generators::grid`](crate::generators::grid):
/// identical structure, identical port numbering.
pub fn grid(
    w: usize,
    h: usize,
    wrap: bool,
    shards: usize,
) -> Result<ShardedTopology, TopologyError> {
    ShardedTopology::from_edge_stream(w * h, shards, grid_stream(w, h, wrap))
}

/// The replayable edge stream of [`grid`] (see [`ring_stream`] for the
/// replay contract).
pub fn grid_stream(
    w: usize,
    h: usize,
    wrap: bool,
) -> impl FnMut(&mut dyn FnMut(usize, usize)) + Clone {
    assert!(w >= 1 && h >= 1);
    let id = move |x: usize, y: usize| y * w + x;
    move |emit| {
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    emit(id(x, y), id(x + 1, y));
                } else if wrap && w > 2 {
                    emit(id(x, y), id(0, y));
                }
                if y + 1 < h {
                    emit(id(x, y), id(x, y + 1));
                } else if wrap && h > 2 {
                    emit(id(x, y), id(x, 0));
                }
            }
        }
    }
}

/// A random `d`-regular circulant graph on `n` nodes, in `shards` shards:
/// node `i` is adjacent to `(i ± s) mod n` for `d/2` distinct shifts drawn
/// uniformly from `1..=(n-1)/2`.
///
/// Exactly `d`-regular (`d` must be even, `d/2 ≤ (n-1)/2`), deterministic
/// per seed, and streamed in `O(d)` generator state — see the
/// [module docs](self) for why this replaces the pairing model at scale.
pub fn random_regular(
    n: usize,
    d: usize,
    seed: u64,
    shards: usize,
) -> Result<ShardedTopology, TopologyError> {
    ShardedTopology::from_edge_stream(n, shards, random_regular_stream(n, d, seed))
}

/// The replayable edge stream of [`random_regular`] (see [`ring_stream`]
/// for the replay contract): the shifts are drawn once, up front, so every
/// replay emits the identical circulant.
pub fn random_regular_stream(
    n: usize,
    d: usize,
    seed: u64,
) -> impl FnMut(&mut dyn FnMut(usize, usize)) + Clone {
    assert!(
        d >= 2 && d % 2 == 0,
        "circulant degree must be even and >= 2"
    );
    let half = d / 2;
    let max_shift = (n.saturating_sub(1)) / 2;
    assert!(
        half <= max_shift,
        "need d/2 <= (n-1)/2 distinct shifts (n={n}, d={d})"
    );
    // Draw d/2 distinct shifts; d is tiny compared to n, so rejection
    // converges immediately.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shifts: Vec<usize> = Vec::with_capacity(half);
    while shifts.len() < half {
        let s = 1 + (rng.next_u64() as usize) % max_shift;
        if !shifts.contains(&s) {
            shifts.push(s);
        }
    }
    move |emit| {
        for i in 0..n {
            for &s in &shifts {
                emit(i, (i + s) % n);
            }
        }
    }
}

/// Erdős–Rényi `G(n, p)` on `n` nodes, in `shards` shards, via geometric
/// skip-sampling over the lexicographic pair order (`O(m)` RNG draws).
///
/// Same distribution as [`generators::gnp`](crate::generators::gnp) but a
/// different sample per seed (see the [module docs](self)).
pub fn gnp(n: usize, p: f64, seed: u64, shards: usize) -> Result<ShardedTopology, TopologyError> {
    ShardedTopology::from_edge_stream(n, shards, gnp_stream(n, p, seed))
}

/// The replayable edge stream of [`gnp`] (see [`ring_stream`] for the
/// replay contract): the RNG is re-seeded inside the closure, so every
/// replay draws the identical sample.
pub fn gnp_stream(n: usize, p: f64, seed: u64) -> impl FnMut(&mut dyn FnMut(usize, usize)) + Clone {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    move |emit| {
        if n < 2 || p <= 0.0 {
            return;
        }
        // Walk the pairs (u, v), u < v, in lexicographic order; between
        // consecutive present edges the number of absent pairs is
        // geometric with parameter p.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut u = 0usize;
        // Offset of the next candidate pair within u's row (v = u + 1 + col).
        let mut col = 0usize;
        let advance = |u: &mut usize, col: &mut usize, by: usize| {
            *col += by;
            while *u + 1 < n && *col >= n - 1 - *u {
                *col -= n - 1 - *u;
                *u += 1;
            }
        };
        if p >= 1.0 {
            // Every pair is present; no skipping (and ln(1-p) is -inf).
            while u + 1 < n {
                emit(u, u + 1 + col);
                advance(&mut u, &mut col, 1);
            }
            return;
        }
        let denom = (1.0 - p).ln();
        let skip = |rng: &mut StdRng| -> usize {
            // Uniform in (0, 1]: never ln(0).
            let x = ((rng.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
            (x.ln() / denom) as usize
        };
        let first = skip(&mut rng);
        advance(&mut u, &mut col, first);
        while u + 1 < n {
            emit(u, u + 1 + col);
            let gap = skip(&mut rng);
            advance(&mut u, &mut col, 1 + gap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use dcme_congest::{Topology, TopologyView};

    /// Asserts the streamed sharded graph has the exact port-numbered
    /// structure of a dense topology.
    fn assert_same_structure(dense: &Topology, sharded: &ShardedTopology) {
        assert_eq!(sharded.num_nodes(), dense.num_nodes());
        assert_eq!(sharded.num_directed_edges(), dense.num_directed_edges());
        assert_eq!(TopologyView::max_degree(sharded), dense.max_degree());
        for v in dense.nodes() {
            assert_eq!(TopologyView::degree(sharded, v), dense.degree(v));
            assert_eq!(TopologyView::port_range(sharded, v), dense.port_range(v));
            for p in 0..dense.degree(v) {
                assert_eq!(
                    TopologyView::neighbor_at(sharded, v, p),
                    dense.neighbor_at(v, p)
                );
                assert_eq!(
                    TopologyView::reverse_port(sharded, v, p),
                    dense.reverse_port(v, p)
                );
            }
        }
    }

    #[test]
    fn streamed_ring_matches_dense_ring() {
        for shards in [1, 2, 5] {
            let sharded = ring(23, shards).unwrap();
            assert_same_structure(&generators::ring(23), &sharded);
        }
    }

    #[test]
    fn streamed_grid_matches_dense_grid() {
        for wrap in [false, true] {
            let sharded = grid(5, 4, wrap, 3).unwrap();
            assert_same_structure(&generators::grid(5, 4, wrap), &sharded);
        }
    }

    #[test]
    fn circulant_is_exactly_d_regular_and_deterministic() {
        let a = random_regular(101, 6, 9, 4).unwrap();
        let b = random_regular(101, 6, 9, 4).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.num_edges(), 101 * 6 / 2);
        assert_eq!(TopologyView::max_degree(&a), 6);
        for v in 0..101 {
            assert_eq!(TopologyView::degree(&a, v), 6);
        }
        // Port symmetry holds (the structural invariant every topology
        // representation must satisfy).
        for v in 0..101 {
            for p in 0..6 {
                let u = TopologyView::neighbor_at(&a, v, p);
                let rp = TopologyView::reverse_port(&a, v, p);
                assert_eq!(TopologyView::neighbor_at(&a, u, rp), v);
            }
        }
        assert_ne!(random_regular(101, 6, 10, 4).unwrap(), a, "seed matters");
    }

    #[test]
    fn gnp_extremes_and_determinism() {
        assert_eq!(gnp(20, 0.0, 1, 2).unwrap().num_edges(), 0);
        let complete = gnp(12, 1.0, 1, 3).unwrap();
        assert_eq!(complete.num_edges(), 12 * 11 / 2);
        assert_same_structure(&generators::complete(12), &complete);
        let a = gnp(60, 0.1, 5, 2).unwrap();
        assert_eq!(a, gnp(60, 0.1, 5, 2).unwrap());
        // Edge count lands in a generous band around p · n(n-1)/2 = 177.
        assert!((60..350).contains(&a.num_edges()), "{}", a.num_edges());
    }

    /// Every `*_stream` closure must emit the identical edge sequence on
    /// every call — the replay contract a remote worker depends on when it
    /// rebuilds its shard slice from the coordinator's plan.
    #[test]
    fn stream_builders_replay_identically() {
        fn edges_of(mut stream: impl FnMut(&mut dyn FnMut(usize, usize))) -> Vec<(usize, usize)> {
            let mut edges = Vec::new();
            stream(&mut |u, v| edges.push((u, v)));
            edges
        }
        type BoxedStream = Box<dyn FnMut(&mut dyn FnMut(usize, usize))>;
        let mut streams: Vec<BoxedStream> = vec![
            Box::new(ring_stream(17)),
            Box::new(grid_stream(4, 5, true)),
            Box::new(random_regular_stream(41, 4, 7)),
            Box::new(gnp_stream(40, 0.15, 3)),
        ];
        for stream in &mut streams {
            let first = edges_of(&mut *stream);
            let second = edges_of(&mut *stream);
            assert!(!first.is_empty());
            assert_eq!(first, second);
        }
    }

    #[test]
    fn tiny_graphs_do_not_panic() {
        assert_eq!(gnp(1, 0.5, 0, 1).unwrap().num_edges(), 0);
        assert_eq!(gnp(0, 0.5, 0, 1).unwrap().num_nodes(), 0);
        let g = ring(3, 8).unwrap();
        assert_eq!(g.num_shards(), 8);
        assert_eq!(g.num_edges(), 3);
    }
}
