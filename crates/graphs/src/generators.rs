//! Synthetic graph families with controlled size and maximum degree.
//!
//! The paper's guarantees are worst-case over all graphs of maximum degree
//! `Δ`; the experiment harness exercises them on the families below.  All
//! randomized constructions take an explicit seed so runs are reproducible.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use dcme_congest::{NodeId, Topology};

/// A cycle on `n >= 3` nodes (Δ = 2) — the classical hard instance for
/// Linial's lower bound.
pub fn ring(n: usize) -> Topology {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    let edges: Vec<(NodeId, NodeId)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    Topology::from_edges(n, &edges).expect("ring edges are valid")
}

/// A path on `n >= 1` nodes.
pub fn path(n: usize) -> Topology {
    let edges: Vec<(NodeId, NodeId)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
    Topology::from_edges(n, &edges).expect("path edges are valid")
}

/// The empty graph on `n` nodes (no edges).
pub fn empty(n: usize) -> Topology {
    Topology::from_edges(n, &[]).expect("empty graph is valid")
}

/// The complete graph `K_n` (Δ = n-1) — forces a (Δ+1)-coloring to use every
/// color.
pub fn complete(n: usize) -> Topology {
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push((u, v));
        }
    }
    Topology::from_edges(n, &edges).expect("complete graph edges are valid")
}

/// The complete bipartite graph `K_{a,b}`.
pub fn complete_bipartite(a: usize, b: usize) -> Topology {
    let mut edges = Vec::with_capacity(a * b);
    for u in 0..a {
        for v in 0..b {
            edges.push((u, a + v));
        }
    }
    Topology::from_edges(a + b, &edges).expect("bipartite edges are valid")
}

/// A star with one centre and `leaves` leaves (Δ = leaves).
pub fn star(leaves: usize) -> Topology {
    let edges: Vec<(NodeId, NodeId)> = (1..=leaves).map(|v| (0, v)).collect();
    Topology::from_edges(leaves + 1, &edges).expect("star edges are valid")
}

/// A `w × h` grid; with `wrap = true` it becomes a torus (Δ = 4).
pub fn grid(w: usize, h: usize, wrap: bool) -> Topology {
    assert!(w >= 1 && h >= 1);
    let id = |x: usize, y: usize| y * w + x;
    let mut edges = Vec::new();
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                edges.push((id(x, y), id(x + 1, y)));
            } else if wrap && w > 2 {
                edges.push((id(x, y), id(0, y)));
            }
            if y + 1 < h {
                edges.push((id(x, y), id(x, y + 1)));
            } else if wrap && h > 2 {
                edges.push((id(x, y), id(x, 0)));
            }
        }
    }
    Topology::from_edges(w * h, &edges).expect("grid edges are valid")
}

/// `count` disjoint cliques of `size` nodes each.
pub fn disjoint_cliques(count: usize, size: usize) -> Topology {
    let mut edges = Vec::new();
    for c in 0..count {
        let base = c * size;
        for u in 0..size {
            for v in (u + 1)..size {
                edges.push((base + u, base + v));
            }
        }
    }
    Topology::from_edges(count * size, &edges).expect("clique edges are valid")
}

/// A caterpillar: a spine path of `spine` nodes, each with `legs` pendant
/// leaves (Δ = legs + 2).
pub fn caterpillar(spine: usize, legs: usize) -> Topology {
    assert!(spine >= 1);
    let n = spine + spine * legs;
    let mut edges = Vec::new();
    for s in 0..spine.saturating_sub(1) {
        edges.push((s, s + 1));
    }
    for s in 0..spine {
        for l in 0..legs {
            edges.push((s, spine + s * legs + l));
        }
    }
    Topology::from_edges(n, &edges).expect("caterpillar edges are valid")
}

/// Erdős–Rényi `G(n, p)`: every pair is an edge independently with
/// probability `p`.
pub fn gnp(n: usize, p: f64, seed: u64) -> Topology {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random_bool(p) {
                edges.push((u, v));
            }
        }
    }
    Topology::from_edges(n, &edges).expect("gnp edges are valid")
}

/// A random `d`-regular-ish graph via the configuration/pairing model.
///
/// Every node gets `d` stubs; stubs are matched uniformly at random, and
/// self-loops / multi-edges are discarded, so the result has maximum degree
/// at most `d` and most nodes have degree exactly `d`.  (True uniform
/// `d`-regular sampling is not needed: the experiments only need graphs of
/// a given maximum degree.)  If `n·d` is odd, the last stub stays unpaired.
///
/// The edge list is built without a global sort: the pairs are bucketed by
/// their smaller endpoint, and each bucket (at most `d` entries) is sorted
/// on its own, which lists the edges sorted and puts the copies of a
/// multi-edge next to each other.
///
/// # Panics
///
/// If `d >= n`, or if `n` exceeds `u32::MAX`.
pub fn random_regular(n: usize, d: usize, seed: u64) -> Topology {
    assert!(d < n, "degree must be smaller than n");
    let n32 = u32::try_from(n).expect("random_regular takes at most u32::MAX nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stubs: Vec<u32> = Vec::with_capacity(n * d);
    stubs.extend((0..n32).flat_map(|v| std::iter::repeat(v).take(d)));
    stubs.shuffle(&mut rng);
    // Bucket the non-loop pairs by their smaller endpoint (a counting sort):
    // `larger[start[u]..start[u + 1]]` holds the other ends of `u`'s pairs.
    let pairs = || {
        (stubs.chunks_exact(2))
            .filter(|pair| pair[0] != pair[1])
            .map(|pair| (pair[0].min(pair[1]) as usize, pair[0].max(pair[1])))
    };
    let mut start = vec![0usize; n + 1];
    for (u, _) in pairs() {
        start[u + 1] += 1;
    }
    for u in 0..n {
        start[u + 1] += start[u];
    }
    let mut larger = vec![0u32; start[n]];
    let mut next = start.clone();
    for (u, w) in pairs() {
        larger[next[u]] = w;
        next[u] += 1;
    }
    drop((stubs, next));
    // Each bucket holds at most `d` entries: sorted one by one, they list the
    // edges in the order a global sort would, so copies are adjacent.
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(start[n]);
    for u in 0..n {
        let bucket = &mut larger[start[u]..start[u + 1]];
        bucket.sort_unstable();
        edges.extend(bucket.iter().map(|&w| (u, w as NodeId)));
    }
    edges.dedup();
    drop((larger, start));
    Topology::from_edges(n, &edges).expect("pairing-model edges are valid")
}

/// A uniformly random labelled tree on `n` nodes via random attachment.
pub fn random_tree(n: usize, seed: u64) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for v in 1..n {
        let parent = rng.random_range(0..v);
        edges.push((parent, v));
    }
    Topology::from_edges(n, &edges).expect("tree edges are valid")
}

/// A Barabási–Albert preferential-attachment graph: each new node attaches
/// to `m` existing nodes chosen proportionally to degree.  Produces a
/// heavy-tailed degree distribution (useful to stress the dependence on Δ
/// rather than on the average degree).
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Topology {
    assert!(m >= 1 && n > m, "need n > m >= 1");
    let mut rng = StdRng::seed_from_u64(seed);
    // Target list: every endpoint of every edge appears once, so sampling a
    // uniform element of `targets` is degree-proportional sampling.
    let mut targets: Vec<NodeId> = (0..=m).collect();
    let mut edges: Vec<(NodeId, NodeId)> = (0..m).map(|v| (v, m)).collect();
    for (u, v) in &edges {
        targets.push(*u);
        targets.push(*v);
    }
    for v in (m + 1)..n {
        let mut chosen = std::collections::HashSet::new();
        while chosen.len() < m {
            chosen.insert(targets[rng.random_range(0..targets.len())]);
        }
        // Iterate in sorted order: HashSet order is randomized per process,
        // and the order feeds back into `targets` (and hence into every
        // later degree-proportional draw), which silently broke the
        // seed-determinism contract every other generator upholds.
        let mut chosen: Vec<NodeId> = chosen.into_iter().collect();
        chosen.sort_unstable();
        for &t in &chosen {
            edges.push((t, v));
            targets.push(t);
            targets.push(v);
        }
    }
    // `targets` holds only older nodes, so each node joins `m` distinct
    // older ones: no self-loop, no duplicate, and `from_edges` sorts rows.
    Topology::from_edges(n, &edges).expect("BA edges are valid")
}

/// A declarative description of a workload graph, used by the experiment
/// harness so configurations can be serialized and reported in tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GraphFamily {
    /// Cycle on `n` nodes.
    Ring {
        /// number of nodes
        n: usize,
    },
    /// Path on `n` nodes.
    Path {
        /// number of nodes
        n: usize,
    },
    /// Complete graph on `n` nodes.
    Complete {
        /// number of nodes
        n: usize,
    },
    /// Complete bipartite graph.
    CompleteBipartite {
        /// left side size
        a: usize,
        /// right side size
        b: usize,
    },
    /// 2D grid or torus.
    Grid {
        /// width
        w: usize,
        /// height
        h: usize,
        /// whether to wrap around (torus)
        wrap: bool,
    },
    /// Disjoint cliques.
    DisjointCliques {
        /// number of cliques
        count: usize,
        /// clique size
        size: usize,
    },
    /// Caterpillar tree.
    Caterpillar {
        /// spine length
        spine: usize,
        /// pendant leaves per spine node
        legs: usize,
    },
    /// Erdős–Rényi random graph.
    Gnp {
        /// number of nodes
        n: usize,
        /// edge probability
        p: f64,
        /// RNG seed
        seed: u64,
    },
    /// Pairing-model random regular graph.
    RandomRegular {
        /// number of nodes
        n: usize,
        /// target degree
        d: usize,
        /// RNG seed
        seed: u64,
    },
    /// Uniform random tree.
    RandomTree {
        /// number of nodes
        n: usize,
        /// RNG seed
        seed: u64,
    },
    /// Barabási–Albert preferential attachment.
    BarabasiAlbert {
        /// number of nodes
        n: usize,
        /// edges per new node
        m: usize,
        /// RNG seed
        seed: u64,
    },
}

impl GraphFamily {
    /// Builds the topology described by this family.
    pub fn build(&self) -> Topology {
        match *self {
            GraphFamily::Ring { n } => ring(n),
            GraphFamily::Path { n } => path(n),
            GraphFamily::Complete { n } => complete(n),
            GraphFamily::CompleteBipartite { a, b } => complete_bipartite(a, b),
            GraphFamily::Grid { w, h, wrap } => grid(w, h, wrap),
            GraphFamily::DisjointCliques { count, size } => disjoint_cliques(count, size),
            GraphFamily::Caterpillar { spine, legs } => caterpillar(spine, legs),
            GraphFamily::Gnp { n, p, seed } => gnp(n, p, seed),
            GraphFamily::RandomRegular { n, d, seed } => random_regular(n, d, seed),
            GraphFamily::RandomTree { n, seed } => random_tree(n, seed),
            GraphFamily::BarabasiAlbert { n, m, seed } => barabasi_albert(n, m, seed),
        }
    }

    /// A short human-readable name for tables.
    pub fn name(&self) -> String {
        match *self {
            GraphFamily::Ring { n } => format!("ring(n={n})"),
            GraphFamily::Path { n } => format!("path(n={n})"),
            GraphFamily::Complete { n } => format!("K_{n}"),
            GraphFamily::CompleteBipartite { a, b } => format!("K_{{{a},{b}}}"),
            GraphFamily::Grid { w, h, wrap } => {
                format!("{}grid({w}x{h})", if wrap { "torus-" } else { "" })
            }
            GraphFamily::DisjointCliques { count, size } => {
                format!("cliques({count}x{size})")
            }
            GraphFamily::Caterpillar { spine, legs } => format!("caterpillar({spine},{legs})"),
            GraphFamily::Gnp { n, p, .. } => format!("gnp(n={n},p={p})"),
            GraphFamily::RandomRegular { n, d, .. } => format!("regular(n={n},d={d})"),
            GraphFamily::RandomTree { n, .. } => format!("tree(n={n})"),
            GraphFamily::BarabasiAlbert { n, m, .. } => format!("ba(n={n},m={m})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_degrees() {
        let g = ring(10);
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.num_edges(), 10);
        assert_eq!(g.max_degree(), 2);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn path_and_empty() {
        let g = path(5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(path(1).num_edges(), 0);
        assert_eq!(empty(7).max_degree(), 0);
    }

    #[test]
    fn complete_graph_properties() {
        let g = complete(6);
        assert_eq!(g.num_edges(), 15);
        assert_eq!(g.max_degree(), 5);
        for u in 0..6 {
            for v in 0..6 {
                assert_eq!(g.are_adjacent(u, v), u != v);
            }
        }
    }

    #[test]
    fn bipartite_and_star() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.num_edges(), 12);
        assert_eq!(g.max_degree(), 4);
        let s = star(9);
        assert_eq!(s.max_degree(), 9);
        assert_eq!(s.degree(5), 1);
    }

    #[test]
    fn grid_and_torus_degrees() {
        let g = grid(4, 5, false);
        assert_eq!(g.num_nodes(), 20);
        assert_eq!(g.max_degree(), 4);
        let t = grid(4, 5, true);
        for v in t.nodes() {
            assert_eq!(t.degree(v), 4);
        }
    }

    #[test]
    fn disjoint_cliques_have_no_cross_edges() {
        let g = disjoint_cliques(3, 4);
        assert_eq!(g.num_nodes(), 12);
        assert_eq!(g.num_edges(), 3 * 6);
        assert!(!g.are_adjacent(0, 4));
        assert!(g.are_adjacent(0, 3));
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn caterpillar_degrees() {
        let g = caterpillar(5, 3);
        assert_eq!(g.num_nodes(), 5 + 15);
        // Interior spine nodes: 2 spine neighbours + 3 legs.
        assert_eq!(g.max_degree(), 5);
    }

    #[test]
    fn gnp_is_reproducible_and_respects_probability_extremes() {
        let a = gnp(30, 0.2, 42);
        let b = gnp(30, 0.2, 42);
        assert_eq!(a, b);
        assert_eq!(gnp(20, 0.0, 1).num_edges(), 0);
        assert_eq!(gnp(20, 1.0, 1).num_edges(), 190);
    }

    #[test]
    fn random_regular_respects_max_degree() {
        for seed in 0..5 {
            let g = random_regular(100, 8, seed);
            assert!(g.max_degree() <= 8);
            // The pairing model loses only a few edges to collisions.
            assert!(g.num_edges() >= 100 * 8 / 2 - 40);
        }
    }

    #[test]
    #[should_panic(expected = "at most u32::MAX nodes")]
    fn random_regular_rejects_more_nodes_than_u32_holds() {
        random_regular(u32::MAX as usize + 1, 1, 0);
    }

    #[test]
    fn random_tree_is_a_tree() {
        let g = random_tree(50, 7);
        assert_eq!(g.num_edges(), 49);
        // Connectivity: BFS from 0 reaches everything.
        assert_eq!(g.ball(0, 50).len(), 50);
    }

    #[test]
    fn barabasi_albert_builds_connected_heavy_tail() {
        let g = barabasi_albert(200, 3, 11);
        assert_eq!(g.num_nodes(), 200);
        assert!(g.num_edges() >= 3 * 196);
        assert_eq!(g.ball(0, 200).len(), 200);
        assert!(g.max_degree() as usize > 6);
    }

    #[test]
    fn family_build_matches_direct_constructors() {
        let fam = GraphFamily::Ring { n: 12 };
        assert_eq!(fam.build(), ring(12));
        assert!(fam.name().contains("ring"));
        let fam = GraphFamily::RandomRegular {
            n: 40,
            d: 5,
            seed: 3,
        };
        assert_eq!(fam.build(), random_regular(40, 5, 3));
    }
}
