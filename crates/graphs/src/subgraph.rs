//! Induced subgraphs with node re-indexing.
//!
//! Several algorithms of the paper run "on each color class in parallel"
//! (Theorem 1.3) or "on the graph induced by V_i" (the MT20-style schedule).
//! In a real network those are the same nodes physically; in the simulator we
//! extract the induced subgraph, run on it, and map the results back.

use dcme_congest::{NodeId, Topology};

/// An induced subgraph together with the mapping back to the host graph.
#[derive(Debug, Clone)]
pub struct InducedSubgraph {
    /// The subgraph topology over re-indexed nodes `0..k`.
    pub topology: Topology,
    /// `original[i]` is the host-graph node that subgraph node `i` represents.
    pub original: Vec<NodeId>,
}

impl InducedSubgraph {
    /// Extracts the subgraph of `host` induced by `nodes`.
    ///
    /// Duplicate entries in `nodes` are ignored; the subgraph nodes are
    /// numbered in ascending order of their original ids.
    pub fn extract(host: &Topology, nodes: &[NodeId]) -> Self {
        let mut original: Vec<NodeId> = nodes.to_vec();
        original.sort_unstable();
        original.dedup();
        let mut index_of = vec![usize::MAX; host.num_nodes()];
        for (i, &v) in original.iter().enumerate() {
            index_of[v] = i;
        }
        let mut edges = Vec::new();
        for (i, &v) in original.iter().enumerate() {
            for u in host.neighbors(v) {
                let j = index_of[u];
                if j != usize::MAX && i < j {
                    edges.push((i, j));
                }
            }
        }
        let topology =
            Topology::from_edges(original.len(), &edges).expect("induced edges are valid");
        Self { topology, original }
    }

    /// Number of nodes in the subgraph.
    pub fn len(&self) -> usize {
        self.original.len()
    }

    /// Whether the subgraph is empty.
    pub fn is_empty(&self) -> bool {
        self.original.is_empty()
    }

    /// Maps a subgraph node back to the host graph.
    pub fn to_host(&self, sub_node: NodeId) -> NodeId {
        self.original[sub_node]
    }

    /// Scatters per-subgraph-node values into a host-sized vector, leaving
    /// other positions untouched.
    pub fn scatter<T: Clone>(&self, values: &[T], host_values: &mut [T]) {
        assert_eq!(values.len(), self.original.len());
        for (i, &v) in self.original.iter().enumerate() {
            host_values[v] = values[i].clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn extract_from_ring() {
        let g = generators::ring(6);
        let sub = InducedSubgraph::extract(&g, &[0, 1, 2, 4]);
        assert_eq!(sub.len(), 4);
        // Edges 0-1, 1-2 survive; 4 is isolated within the subgraph.
        assert_eq!(sub.topology.num_edges(), 2);
        assert_eq!(sub.to_host(3), 4);
        assert!(sub.topology.are_adjacent(0, 1));
        assert!(!sub.topology.are_adjacent(2, 3));
    }

    #[test]
    fn duplicates_are_ignored_and_scatter_works() {
        let g = generators::path(5);
        let sub = InducedSubgraph::extract(&g, &[3, 1, 3, 1]);
        assert_eq!(sub.len(), 2);
        assert!(!sub.is_empty());
        let mut host = vec![0u64; 5];
        sub.scatter(&[7, 9], &mut host);
        assert_eq!(host, vec![0, 7, 0, 9, 0]);
    }

    #[test]
    fn empty_selection() {
        let g = generators::path(3);
        let sub = InducedSubgraph::extract(&g, &[]);
        assert!(sub.is_empty());
        assert_eq!(sub.topology.num_nodes(), 0);
    }
}
