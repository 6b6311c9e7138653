//! Output types shared by all coloring algorithms.
//!
//! * [`Coloring`] — a plain color assignment `V → [palette]`.
//! * [`OrientedColoring`] — a (possibly improper) coloring together with an
//!   orientation of the monochromatic edges, as produced by Theorem 1.1 (1)
//!   and required for β-outdegree / arbdefective colorings.
//! * [`PartitionedColoring`] — a coloring together with the partition index
//!   `P_j` of Theorem 1.1 (2) (the iteration in which each node committed).

use serde::{Deserialize, Serialize};

use dcme_congest::{NodeId, Topology};

/// A color assignment for every node, with an explicit palette size.
///
/// Colors are `u64` values in `[0, palette)`.  The palette records the bound
/// the producing algorithm *guarantees*, which may be larger than the number
/// of colors actually used (e.g. Theorem 1.1 guarantees `k·X` but typically
/// uses fewer).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Coloring {
    colors: Vec<u64>,
    palette: u64,
}

impl Coloring {
    /// Creates a coloring from per-node colors and a palette bound.
    ///
    /// # Panics
    ///
    /// Panics if any color is `>= palette`.
    pub fn new(colors: Vec<u64>, palette: u64) -> Self {
        for (v, &c) in colors.iter().enumerate() {
            assert!(c < palette, "node {v} has color {c} >= palette {palette}");
        }
        Self { colors, palette }
    }

    /// The identity coloring in which node `v` has color `v` — the "unique
    /// IDs as input coloring" starting point of Linial's algorithm.
    pub fn from_ids(n: usize) -> Self {
        Self {
            colors: (0..n as u64).collect(),
            palette: n as u64,
        }
    }

    /// Builds an input coloring from arbitrary (not necessarily dense)
    /// identifiers from a universe of size `universe`.
    pub fn from_identifiers(ids: &[u64], universe: u64) -> Self {
        Self::new(ids.to_vec(), universe)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// Whether the coloring is empty (zero nodes).
    pub fn is_empty(&self) -> bool {
        self.colors.is_empty()
    }

    /// The color of node `v`.
    #[inline]
    pub fn color(&self, v: NodeId) -> u64 {
        self.colors[v]
    }

    /// The palette bound.
    pub fn palette(&self) -> u64 {
        self.palette
    }

    /// All per-node colors, indexed by node.
    pub fn colors(&self) -> &[u64] {
        &self.colors
    }

    /// The number of *distinct* colors actually used.
    pub fn distinct_colors(&self) -> usize {
        let mut seen: Vec<u64> = self.colors.clone();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// The largest color value used (None for an empty graph).
    pub fn max_color(&self) -> Option<u64> {
        self.colors.iter().copied().max()
    }

    /// Replaces the palette bound with a smaller one.
    ///
    /// # Panics
    ///
    /// Panics if some node's color exceeds the new bound.
    pub fn with_palette(self, palette: u64) -> Self {
        Self::new(self.colors, palette)
    }

    /// Renames colors to a dense range `0..distinct_colors()`, preserving
    /// color classes.  Useful before feeding a coloring to an algorithm whose
    /// round/color bounds depend on the palette size `m`.
    pub fn compacted(&self) -> Self {
        let mut sorted: Vec<u64> = self.colors.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let remap = |c: u64| sorted.binary_search(&c).unwrap() as u64;
        let colors: Vec<u64> = self.colors.iter().map(|&c| remap(c)).collect();
        let palette = sorted.len() as u64;
        Self { colors, palette }
    }

    /// Groups nodes by color: returns, for each distinct color in ascending
    /// order, the list of nodes having it.
    pub fn color_classes(&self) -> Vec<(u64, Vec<NodeId>)> {
        let mut map: std::collections::BTreeMap<u64, Vec<NodeId>> =
            std::collections::BTreeMap::new();
        for (v, &c) in self.colors.iter().enumerate() {
            map.entry(c).or_default().push(v);
        }
        map.into_iter().collect()
    }
}

/// A coloring together with an orientation of its monochromatic edges.
///
/// `out_neighbors[v]` lists the endpoints of monochromatic edges oriented
/// *away from* `v`.  Every monochromatic edge must be oriented in exactly one
/// direction; [`crate::verify::check_outdegree_orientation`] checks this.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrientedColoring {
    /// The underlying (possibly improper) coloring.
    pub coloring: Coloring,
    /// Monochromatic out-neighbours per node.
    pub out_neighbors: Vec<Vec<NodeId>>,
}

impl OrientedColoring {
    /// The maximum outdegree over all nodes (the β of a β-outdegree coloring).
    pub fn max_outdegree(&self) -> usize {
        self.out_neighbors
            .iter()
            .map(|o| o.len())
            .max()
            .unwrap_or(0)
    }

    /// Collects all oriented (monochromatic) edges as `(from, to)` pairs.
    pub fn oriented_edges(&self) -> Vec<(NodeId, NodeId)> {
        self.out_neighbors
            .iter()
            .enumerate()
            .flat_map(|(v, outs)| outs.iter().map(move |&u| (v, u)))
            .collect()
    }
}

/// A coloring with the Theorem 1.1 partition information.
///
/// `partition[v]` is the index `j` of the batch/iteration in which `v`
/// committed to its color; Theorem 1.1 (2) guarantees that inside one color
/// class, each part `P_j` induces a subgraph of maximum degree at most `d`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionedColoring {
    /// The underlying coloring plus orientation (Theorem 1.1 outputs both).
    pub oriented: OrientedColoring,
    /// Iteration index in which each node committed.
    pub partition: Vec<u64>,
}

impl PartitionedColoring {
    /// The number of nonempty parts.
    pub fn num_parts(&self) -> usize {
        let mut parts: Vec<u64> = self.partition.clone();
        parts.sort_unstable();
        parts.dedup();
        parts.len()
    }

    /// The largest partition index used.
    pub fn max_part(&self) -> u64 {
        self.partition.iter().copied().max().unwrap_or(0)
    }

    /// Derives the `d`-defective coloring of Corollary 1.2 (6): each node is
    /// recolored with the pair `(color, partition index)` encoded as a single
    /// color `color · (max_part+1) + part`.
    pub fn pair_coloring(&self) -> Coloring {
        let parts = self.max_part() + 1;
        let palette = self.oriented.coloring.palette() * parts;
        let colors = self
            .oriented
            .coloring
            .colors()
            .iter()
            .zip(&self.partition)
            .map(|(&c, &p)| c * parts + p)
            .collect();
        Coloring::new(colors, palette.max(1))
    }
}

/// Computes the *defect* of a coloring on a topology: for each node, the
/// number of neighbours sharing its color; returns the per-node vector.
pub fn defect_vector(topology: &Topology, coloring: &Coloring) -> Vec<usize> {
    (0..topology.num_nodes())
        .map(|v| {
            topology
                .neighbors(v)
                .filter(|&u| coloring.color(u) == coloring.color(v))
                .count()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Topology {
        Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    #[should_panic(expected = "palette")]
    fn rejects_color_out_of_palette() {
        let _ = Coloring::new(vec![0, 5], 3);
    }

    #[test]
    fn ids_coloring() {
        let c = Coloring::from_ids(5);
        assert_eq!(c.palette(), 5);
        assert_eq!(c.distinct_colors(), 5);
        assert_eq!(c.color(3), 3);
    }

    #[test]
    fn compaction_preserves_classes() {
        let c = Coloring::new(vec![10, 40, 10, 99], 100);
        let d = c.compacted();
        assert_eq!(d.palette(), 3);
        assert_eq!(d.color(0), d.color(2));
        assert_ne!(d.color(0), d.color(1));
        assert_eq!(d.distinct_colors(), 3);
        assert_eq!(d.max_color(), Some(2));
    }

    #[test]
    fn color_classes_grouping() {
        let c = Coloring::new(vec![1, 0, 1, 2], 3);
        let classes = c.color_classes();
        assert_eq!(classes, vec![(0, vec![1]), (1, vec![0, 2]), (2, vec![3])]);
    }

    #[test]
    fn defect_vector_counts_same_colored_neighbors() {
        let g = path4();
        let c = Coloring::new(vec![0, 0, 1, 1], 2);
        assert_eq!(defect_vector(&g, &c), vec![1, 1, 1, 1]);
        let proper = Coloring::new(vec![0, 1, 0, 1], 2);
        assert_eq!(defect_vector(&g, &proper), vec![0, 0, 0, 0]);
    }

    #[test]
    fn oriented_coloring_outdegree() {
        let oriented = OrientedColoring {
            coloring: Coloring::new(vec![0, 0, 0], 1),
            out_neighbors: vec![vec![1, 2], vec![], vec![1]],
        };
        assert_eq!(oriented.max_outdegree(), 2);
        let mut edges = oriented.oriented_edges();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 2), (2, 1)]);
    }

    #[test]
    fn pair_coloring_combines_color_and_part() {
        let oriented = OrientedColoring {
            coloring: Coloring::new(vec![0, 1, 0, 1], 2),
            out_neighbors: vec![vec![], vec![], vec![], vec![]],
        };
        let pc = PartitionedColoring {
            oriented,
            partition: vec![0, 0, 1, 1],
        };
        assert_eq!(pc.num_parts(), 2);
        assert_eq!(pc.max_part(), 1);
        let pair = pc.pair_coloring();
        assert_eq!(pair.palette(), 4);
        // Distinct (color, part) pairs must stay distinct.
        assert_eq!(pair.distinct_colors(), 4);
    }
}
