//! Sequential greedy coloring — the `(Δ+1)` color-count reference.

use dcme_congest::Topology;
use dcme_graphs::coloring::Coloring;

/// Colors the graph greedily in the given vertex order (or `0..n` if `None`),
/// assigning each vertex the smallest color unused by its already-colored
/// neighbours.  Uses at most `Δ+1` colors.
pub fn greedy_coloring(topology: &Topology, order: Option<&[usize]>) -> Coloring {
    let n = topology.num_nodes();
    let default_order: Vec<usize> = (0..n).collect();
    let order = order.unwrap_or(&default_order);
    assert_eq!(order.len(), n, "order must be a permutation of the nodes");

    let mut colors: Vec<Option<u64>> = vec![None; n];
    for &v in order {
        let used: std::collections::HashSet<u64> =
            topology.neighbors(v).filter_map(|u| colors[u]).collect();
        let c = (0..).find(|c| !used.contains(c)).expect("infinite palette");
        colors[v] = Some(c);
    }
    let colors: Vec<u64> = colors.into_iter().map(|c| c.unwrap()).collect();
    let palette =
        (topology.max_degree() as u64 + 1).max(colors.iter().copied().max().unwrap_or(0) + 1);
    Coloring::new(colors, palette)
}

/// A degeneracy (smallest-last) ordering: repeatedly remove a minimum-degree
/// vertex; coloring greedily in the reverse removal order uses at most
/// `degeneracy + 1` colors.
pub fn smallest_last_order(topology: &Topology) -> Vec<usize> {
    let n = topology.num_nodes();
    let mut degree: Vec<usize> = (0..n).map(|v| topology.degree(v)).collect();
    let mut removed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let v = (0..n)
            .filter(|&v| !removed[v])
            .min_by_key(|&v| degree[v])
            .expect("nodes remain");
        removed[v] = true;
        order.push(v);
        for u in topology.neighbors(v) {
            if !removed[u] {
                degree[u] -= 1;
            }
        }
    }
    order.reverse();
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcme_graphs::{generators, verify};

    #[test]
    fn greedy_is_proper_and_within_delta_plus_one() {
        for g in [
            generators::ring(21),
            generators::complete(7),
            generators::random_regular(200, 10, 3),
            generators::gnp(100, 0.1, 9),
        ] {
            let c = greedy_coloring(&g, None);
            verify::check_proper(&g, &c).unwrap();
            assert!(c.distinct_colors() as u64 <= g.max_degree() as u64 + 1);
        }
    }

    #[test]
    fn smallest_last_helps_on_trees() {
        let g = generators::random_tree(200, 5);
        let order = smallest_last_order(&g);
        let c = greedy_coloring(&g, Some(&order));
        verify::check_proper(&g, &c).unwrap();
        // Trees are 1-degenerate: 2 colors suffice with the smallest-last order.
        assert!(c.distinct_colors() <= 2);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn order_must_cover_all_nodes() {
        let g = generators::ring(5);
        let _ = greedy_coloring(&g, Some(&[0, 1]));
    }
}
