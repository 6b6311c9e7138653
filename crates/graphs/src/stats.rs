//! Graph statistics reported alongside experiment results.

use serde::{Deserialize, Serialize};

use dcme_congest::Topology;

/// Summary statistics of a workload graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Number of nodes.
    pub n: usize,
    /// Number of undirected edges.
    pub m: usize,
    /// Maximum degree Δ.
    pub max_degree: u32,
    /// Minimum degree.
    pub min_degree: u32,
    /// Average degree `2m / n`.
    pub avg_degree: f64,
    /// Number of connected components.
    pub components: usize,
}

impl GraphStats {
    /// Computes statistics for a topology.
    pub fn compute(topology: &Topology) -> Self {
        let n = topology.num_nodes();
        let m = topology.num_edges();
        let degrees: Vec<usize> = (0..n).map(|v| topology.degree(v)).collect();
        let max_degree = degrees.iter().copied().max().unwrap_or(0) as u32;
        let min_degree = degrees.iter().copied().min().unwrap_or(0) as u32;
        let avg_degree = if n == 0 {
            0.0
        } else {
            2.0 * m as f64 / n as f64
        };
        Self {
            n,
            m,
            max_degree,
            min_degree,
            avg_degree,
            components: count_components(topology),
        }
    }
}

/// Counts connected components by repeated BFS.
pub fn count_components(topology: &Topology) -> usize {
    let n = topology.num_nodes();
    let mut visited = vec![false; n];
    let mut components = 0;
    for start in 0..n {
        if visited[start] {
            continue;
        }
        components += 1;
        let mut queue = std::collections::VecDeque::new();
        visited[start] = true;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for w in topology.neighbors(u) {
                if !visited[w] {
                    visited[w] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    components
}

/// The degree histogram: `hist[d]` = number of nodes of degree `d`.
pub fn degree_histogram(topology: &Topology) -> Vec<usize> {
    let mut hist = vec![0usize; topology.max_degree() as usize + 1];
    for v in topology.nodes() {
        hist[topology.degree(v)] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn stats_on_ring() {
        let g = generators::ring(10);
        let s = GraphStats::compute(&g);
        assert_eq!(s.n, 10);
        assert_eq!(s.m, 10);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.min_degree, 2);
        assert!((s.avg_degree - 2.0).abs() < 1e-12);
        assert_eq!(s.components, 1);
    }

    #[test]
    fn stats_on_disjoint_cliques() {
        let g = generators::disjoint_cliques(4, 3);
        let s = GraphStats::compute(&g);
        assert_eq!(s.components, 4);
        assert_eq!(s.max_degree, 2);
    }

    #[test]
    fn degree_histogram_on_star() {
        let g = generators::star(5);
        let hist = degree_histogram(&g);
        assert_eq!(hist[1], 5);
        assert_eq!(hist[5], 1);
        assert_eq!(hist.iter().sum::<usize>(), 6);
    }

    #[test]
    fn empty_graph_stats() {
        let g = generators::empty(3);
        let s = GraphStats::compute(&g);
        assert_eq!(s.components, 3);
        assert_eq!(s.avg_degree, 0.0);
        assert_eq!(s.max_degree, 0);
    }
}
