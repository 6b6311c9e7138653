//! Machine-checked postconditions for every algorithm output.
//!
//! The paper proves its guarantees; the reproduction *checks* them after
//! every run.  Each checker returns a `Result<(), Violation>` whose error
//! pinpoints the offending vertex/edge so test failures are actionable.

use dcme_congest::{NodeId, Topology};

use crate::coloring::{defect_vector, Coloring, OrientedColoring, PartitionedColoring};

/// A violated postcondition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two adjacent nodes share a color in a supposedly proper coloring.
    MonochromaticEdge {
        /// first endpoint
        u: NodeId,
        /// second endpoint
        v: NodeId,
        /// the shared color
        color: u64,
    },
    /// A node exceeds the allowed defect.
    DefectExceeded {
        /// the node
        node: NodeId,
        /// its measured defect
        defect: usize,
        /// the allowed defect
        allowed: usize,
    },
    /// A node exceeds the allowed outdegree.
    OutdegreeExceeded {
        /// the node
        node: NodeId,
        /// its measured outdegree
        outdegree: usize,
        /// the allowed outdegree
        allowed: usize,
    },
    /// A monochromatic edge is not oriented (or oriented twice).
    BadOrientation {
        /// first endpoint
        u: NodeId,
        /// second endpoint
        v: NodeId,
        /// how many orientations this edge received
        times_oriented: usize,
    },
    /// An oriented edge is not actually monochromatic or not an edge at all.
    SpuriousOrientation {
        /// claimed source
        u: NodeId,
        /// claimed target
        v: NodeId,
    },
    /// Inside one color class, one part of the partition induces a subgraph
    /// of too-high degree.
    PartDegreeExceeded {
        /// the node
        node: NodeId,
        /// its color
        color: u64,
        /// its part
        part: u64,
        /// measured degree within (color, part)
        degree: usize,
        /// allowed degree
        allowed: usize,
    },
    /// Two adjacent nodes are both in a supposedly independent set.
    NotIndependent {
        /// first endpoint
        u: NodeId,
        /// second endpoint
        v: NodeId,
    },
    /// A node has no ruling-set member within the promised radius.
    NotDominated {
        /// the undominated node
        node: NodeId,
        /// the promised radius
        radius: usize,
    },
    /// The number of colors exceeds the promised palette.
    PaletteExceeded {
        /// colors actually used / maximum color + 1
        used: u64,
        /// promised bound
        allowed: u64,
    },
    /// A node's color is not in its list (for list-coloring checks).
    ColorNotInList {
        /// the node
        node: NodeId,
        /// the offending color
        color: u64,
    },
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Violation::MonochromaticEdge { u, v, color } => {
                write!(f, "edge ({u},{v}) is monochromatic with color {color}")
            }
            Violation::DefectExceeded {
                node,
                defect,
                allowed,
            } => write!(f, "node {node} has defect {defect} > {allowed}"),
            Violation::OutdegreeExceeded {
                node,
                outdegree,
                allowed,
            } => write!(f, "node {node} has outdegree {outdegree} > {allowed}"),
            Violation::BadOrientation {
                u,
                v,
                times_oriented,
            } => write!(
                f,
                "monochromatic edge ({u},{v}) oriented {times_oriented} times (expected 1)"
            ),
            Violation::SpuriousOrientation { u, v } => {
                write!(f, "orientation ({u},{v}) is not a monochromatic edge")
            }
            Violation::PartDegreeExceeded {
                node,
                color,
                part,
                degree,
                allowed,
            } => write!(
                f,
                "node {node} (color {color}, part {part}) has within-part degree {degree} > {allowed}"
            ),
            Violation::NotIndependent { u, v } => {
                write!(f, "adjacent nodes {u} and {v} are both in the set")
            }
            Violation::NotDominated { node, radius } => {
                write!(f, "node {node} has no set member within distance {radius}")
            }
            Violation::PaletteExceeded { used, allowed } => {
                write!(f, "coloring uses color values up to {used} > allowed {allowed}")
            }
            Violation::ColorNotInList { node, color } => {
                write!(f, "node {node} output color {color} not in its list")
            }
        }
    }
}

impl std::error::Error for Violation {}

/// Checks that a coloring is proper: no edge is monochromatic.
pub fn check_proper(topology: &Topology, coloring: &Coloring) -> Result<(), Violation> {
    for (u, v) in topology.edges() {
        if coloring.color(u) == coloring.color(v) {
            return Err(Violation::MonochromaticEdge {
                u,
                v,
                color: coloring.color(u),
            });
        }
    }
    Ok(())
}

/// Checks that a coloring is `d`-defective: every node has at most `d`
/// neighbours of its own color.
pub fn check_defective(
    topology: &Topology,
    coloring: &Coloring,
    d: usize,
) -> Result<(), Violation> {
    for (node, defect) in defect_vector(topology, coloring).into_iter().enumerate() {
        if defect > d {
            return Err(Violation::DefectExceeded {
                node,
                defect,
                allowed: d,
            });
        }
    }
    Ok(())
}

/// Checks that the coloring uses colors strictly below `allowed`.
pub fn check_palette(coloring: &Coloring, allowed: u64) -> Result<(), Violation> {
    match coloring.max_color() {
        Some(max) if max >= allowed => Err(Violation::PaletteExceeded {
            used: max + 1,
            allowed,
        }),
        _ => Ok(()),
    }
}

/// Checks a β-outdegree coloring: every monochromatic edge is oriented in
/// exactly one direction, no spurious orientations exist, and every node's
/// outdegree is at most `beta`.
pub fn check_outdegree_orientation(
    topology: &Topology,
    oriented: &OrientedColoring,
    beta: usize,
) -> Result<(), Violation> {
    let coloring = &oriented.coloring;
    // Outdegree bound + spurious orientations.
    for (v, outs) in oriented.out_neighbors.iter().enumerate() {
        if outs.len() > beta {
            return Err(Violation::OutdegreeExceeded {
                node: v,
                outdegree: outs.len(),
                allowed: beta,
            });
        }
        for &u in outs {
            if !topology.are_adjacent(u, v) || coloring.color(u) != coloring.color(v) {
                return Err(Violation::SpuriousOrientation { u: v, v: u });
            }
        }
    }
    // Every monochromatic edge oriented exactly once.
    for (u, v) in topology.edges() {
        if coloring.color(u) != coloring.color(v) {
            continue;
        }
        let forward = oriented.out_neighbors[u]
            .iter()
            .filter(|&&w| w == v)
            .count();
        let backward = oriented.out_neighbors[v]
            .iter()
            .filter(|&&w| w == u)
            .count();
        if forward + backward != 1 {
            return Err(Violation::BadOrientation {
                u,
                v,
                times_oriented: forward + backward,
            });
        }
    }
    Ok(())
}

/// Checks Theorem 1.1 (2): within each color class, each part `P_j` induces a
/// subgraph of maximum degree at most `d`.
pub fn check_partition_degree(
    topology: &Topology,
    partitioned: &PartitionedColoring,
    d: usize,
) -> Result<(), Violation> {
    let coloring = &partitioned.oriented.coloring;
    for v in topology.nodes() {
        let degree = topology
            .neighbors(v)
            .filter(|&u| {
                coloring.color(u) == coloring.color(v)
                    && partitioned.partition[u] == partitioned.partition[v]
            })
            .count();
        if degree > d {
            return Err(Violation::PartDegreeExceeded {
                node: v,
                color: coloring.color(v),
                part: partitioned.partition[v],
                degree,
                allowed: d,
            });
        }
    }
    Ok(())
}

/// Checks that `set` is an independent set of the topology.
pub fn check_independent(topology: &Topology, set: &[bool]) -> Result<(), Violation> {
    assert_eq!(set.len(), topology.num_nodes());
    for (u, v) in topology.edges() {
        if set[u] && set[v] {
            return Err(Violation::NotIndependent { u, v });
        }
    }
    Ok(())
}

/// Checks that `set` is a `(2, r)`-ruling set: independent, and every node
/// has a set member within hop distance `r`.
pub fn check_ruling_set(topology: &Topology, set: &[bool], r: usize) -> Result<(), Violation> {
    check_independent(topology, set)?;
    // Multi-source BFS from all set members.
    let n = topology.num_nodes();
    let mut dist = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for v in 0..n {
        if set[v] {
            dist[v] = 0;
            queue.push_back(v);
        }
    }
    while let Some(u) = queue.pop_front() {
        for w in topology.neighbors(u) {
            if dist[w] == usize::MAX {
                dist[w] = dist[u] + 1;
                queue.push_back(w);
            }
        }
    }
    for (v, &d) in dist.iter().enumerate() {
        if d > r {
            return Err(Violation::NotDominated { node: v, radius: r });
        }
    }
    Ok(())
}

/// Checks a list coloring: the coloring is proper and every node's color is a
/// member of its list.
pub fn check_list_coloring(
    topology: &Topology,
    coloring: &Coloring,
    lists: &[Vec<u64>],
) -> Result<(), Violation> {
    check_proper(topology, coloring)?;
    for v in topology.nodes() {
        if !lists[v].contains(&coloring.color(v)) {
            return Err(Violation::ColorNotInList {
                node: v,
                color: coloring.color(v),
            });
        }
    }
    Ok(())
}

/// Computes the maximum defect of a coloring (0 for proper colorings).
pub fn max_defect(topology: &Topology, coloring: &Coloring) -> usize {
    defect_vector(topology, coloring)
        .into_iter()
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn path4() -> Topology {
        generators::path(4)
    }

    #[test]
    fn proper_check_detects_conflicts() {
        let g = path4();
        let good = Coloring::new(vec![0, 1, 0, 1], 2);
        assert!(check_proper(&g, &good).is_ok());
        let bad = Coloring::new(vec![0, 0, 1, 0], 2);
        assert_eq!(
            check_proper(&g, &bad),
            Err(Violation::MonochromaticEdge {
                u: 0,
                v: 1,
                color: 0
            })
        );
    }

    #[test]
    fn defective_check_threshold() {
        let g = generators::star(4);
        // Centre and all leaves share color 0: centre defect = 4, leaves 1.
        let c = Coloring::new(vec![0; 5], 1);
        assert!(check_defective(&g, &c, 4).is_ok());
        assert!(matches!(
            check_defective(&g, &c, 3),
            Err(Violation::DefectExceeded {
                node: 0,
                defect: 4,
                allowed: 3
            })
        ));
        assert_eq!(max_defect(&g, &c), 4);
    }

    #[test]
    fn palette_check() {
        let c = Coloring::new(vec![0, 7], 8);
        assert!(check_palette(&c, 8).is_ok());
        assert!(check_palette(&c, 7).is_err());
    }

    #[test]
    fn orientation_check_accepts_valid_and_rejects_invalid() {
        let g = generators::path(3); // 0-1-2
        let coloring = Coloring::new(vec![0, 0, 0], 1);
        let valid = OrientedColoring {
            coloring: coloring.clone(),
            out_neighbors: vec![vec![1], vec![2], vec![]],
        };
        assert!(check_outdegree_orientation(&g, &valid, 1).is_ok());
        // Outdegree bound violated with beta = 0.
        assert!(matches!(
            check_outdegree_orientation(&g, &valid, 0),
            Err(Violation::OutdegreeExceeded { .. })
        ));
        // Missing orientation for edge (1, 2).
        let missing = OrientedColoring {
            coloring: coloring.clone(),
            out_neighbors: vec![vec![1], vec![], vec![]],
        };
        assert!(matches!(
            check_outdegree_orientation(&g, &missing, 2),
            Err(Violation::BadOrientation {
                u: 1,
                v: 2,
                times_oriented: 0
            })
        ));
        // Orientation of a non-monochromatic edge is spurious.
        let spurious = OrientedColoring {
            coloring: Coloring::new(vec![0, 1, 0], 2),
            out_neighbors: vec![vec![1], vec![], vec![]],
        };
        assert!(matches!(
            check_outdegree_orientation(&g, &spurious, 2),
            Err(Violation::SpuriousOrientation { .. })
        ));
    }

    #[test]
    fn partition_degree_check() {
        let g = generators::complete(4);
        let coloring = Coloring::new(vec![0, 0, 0, 0], 1);
        let oriented = OrientedColoring {
            coloring,
            out_neighbors: vec![vec![1, 2, 3], vec![2, 3], vec![3], vec![]],
        };
        // Two parts of two nodes each: within-part degree is 1.
        let pc = PartitionedColoring {
            oriented,
            partition: vec![0, 0, 1, 1],
        };
        assert!(check_partition_degree(&g, &pc, 1).is_ok());
        assert!(matches!(
            check_partition_degree(&g, &pc, 0),
            Err(Violation::PartDegreeExceeded { .. })
        ));
    }

    #[test]
    fn independent_and_ruling_set_checks() {
        let g = generators::ring(6);
        let mis = vec![true, false, true, false, true, false];
        assert!(check_independent(&g, &mis).is_ok());
        assert!(check_ruling_set(&g, &mis, 1).is_ok());

        let sparse = vec![true, false, false, false, false, false];
        assert!(check_independent(&g, &sparse).is_ok());
        assert!(check_ruling_set(&g, &sparse, 3).is_ok());
        assert_eq!(
            check_ruling_set(&g, &sparse, 2),
            Err(Violation::NotDominated { node: 3, radius: 2 })
        );

        let clash = vec![true, true, false, false, false, false];
        assert!(matches!(
            check_ruling_set(&g, &clash, 3),
            Err(Violation::NotIndependent { u: 0, v: 1 })
        ));
    }

    #[test]
    fn list_coloring_check() {
        let g = path4();
        let lists = vec![vec![0, 1], vec![1, 2], vec![0, 3], vec![1]];
        let ok = Coloring::new(vec![0, 2, 3, 1], 4);
        assert!(check_list_coloring(&g, &ok, &lists).is_ok());
        let not_in_list = Coloring::new(vec![1, 2, 3, 0], 4);
        assert!(matches!(
            check_list_coloring(&g, &not_in_list, &lists),
            Err(Violation::ColorNotInList { node: 3, color: 0 })
        ));
    }

    #[test]
    fn violation_display_is_informative() {
        let v = Violation::MonochromaticEdge {
            u: 1,
            v: 2,
            color: 7,
        };
        assert!(format!("{v}").contains("monochromatic"));
        let v = Violation::NotDominated { node: 3, radius: 2 };
        assert!(format!("{v}").contains("distance 2"));
    }
}
