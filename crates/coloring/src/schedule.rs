//! The outdegree-coloring schedule (Section 3.1 of the paper).
//!
//! All sublinear-in-Δ `(Δ+1)`-coloring algorithms [Bar16, FHK16, BEG18, MT20]
//! follow the same high-level scheme, and the paper's contribution is a
//! simpler algorithm for its first step:
//!
//! 1. compute a `β`-outdegree `z`-coloring with `z = O(Δ/β)` colors — here
//!    via Corollary 1.2 (4), i.e. the mother algorithm with `d = β`, `k = 1`;
//! 2. use its color classes `V_1, …, V_z` as a *schedule*: process the
//!    classes one after the other, and when class `V_i` is processed every
//!    node of `V_i` picks a final color from `[Δ+1]` that none of its
//!    already-finalised neighbours holds (a list-coloring problem on
//!    `G[V_i]`).
//!
//! [`scheduled_delta_plus_one`] implements the full scheme; the inner list
//! coloring is the priority routine of [`crate::list`] (see DESIGN.md for the
//! substitution of MT20's 2-round list step).

use dcme_congest::{ExecutionMode, RunMetrics, Topology};
use dcme_graphs::coloring::Coloring;
use dcme_graphs::subgraph::InducedSubgraph;
use dcme_graphs::verify;

use crate::corollary;
use crate::error::ColoringError;
use crate::list;

/// Result of the scheduled `(Δ+1)`-coloring.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// The final proper coloring with at most `Δ+1` colors.
    pub coloring: Coloring,
    /// Number of schedule classes `z = O(Δ/β)`.
    pub num_classes: usize,
    /// Rounds spent computing the β-outdegree schedule.
    pub schedule_rounds: u64,
    /// Rounds spent in the per-class list-coloring steps (summed over the
    /// sequentially processed classes).
    pub class_rounds: u64,
    /// Merged message accounting (schedule + all classes).
    pub metrics: RunMetrics,
}

impl ScheduleOutcome {
    /// Total rounds: schedule + class processing.
    pub fn total_rounds(&self) -> u64 {
        self.schedule_rounds + self.class_rounds
    }
}

/// Computes a proper coloring with palette `target ≥ Δ+1` using the
/// β-outdegree schedule.
///
/// `input` must be a proper coloring (it doubles as the tie-break priority
/// inside a class).  With `β = Θ(√Δ)` and an `O(Δ²)`-color input this is the
/// structure of the `O(√Δ)`-round `O(Δ)`-coloring of Theorem 3.1.
pub fn scheduled_coloring(
    topology: &Topology,
    input: &Coloring,
    beta: u32,
    target: u64,
    mode: ExecutionMode,
) -> Result<ScheduleOutcome, ColoringError> {
    let delta = topology.max_degree() as u64;
    if target < delta + 1 {
        return Err(ColoringError::InvalidParameter {
            reason: format!("schedule target {target} is below Δ+1 = {}", delta + 1),
        });
    }
    if topology.num_nodes() == 0 {
        return Ok(ScheduleOutcome {
            coloring: Coloring::new(Vec::new(), target),
            num_classes: 0,
            schedule_rounds: 0,
            class_rounds: 0,
            metrics: RunMetrics::default(),
        });
    }
    // Degenerate graphs (Δ = 0 or 1): the defect parameter β must satisfy
    // β ≤ Δ-1, so fall back to a direct greedy (a single trivial class).
    let beta = beta.min(topology.max_degree().saturating_sub(1));

    // Step 1: the schedule.
    let schedule = corollary::outdegree_coloring(topology, input, beta)?;
    let schedule_classes = schedule.coloring().color_classes();
    let mut metrics = RunMetrics::default();
    metrics.merge(&schedule.metrics);
    let schedule_rounds = schedule.metrics.rounds;

    // Step 2: process classes in order; each node picks a color from
    // `[target]` avoiding its already-finalised neighbours.
    let n = topology.num_nodes();
    let mut final_color: Vec<Option<u64>> = vec![None; n];
    let mut class_rounds = 0u64;

    for (_, class_nodes) in &schedule_classes {
        let sub = InducedSubgraph::extract(topology, class_nodes);
        // Build lists: allowed = [target] minus already-finalised neighbours.
        let lists: Vec<Vec<u64>> = sub
            .original
            .iter()
            .map(|&v| {
                let forbidden: std::collections::HashSet<u64> = topology
                    .neighbors(v)
                    .filter_map(|u| final_color[u])
                    .collect();
                (0..target).filter(|c| !forbidden.contains(c)).collect()
            })
            .collect();
        let priorities: Vec<u64> = sub.original.iter().map(|&v| input.color(v)).collect();
        let out = list::list_coloring(&sub.topology, &lists, &priorities, mode)?;
        class_rounds += out.metrics.rounds;
        metrics.merge(&out.metrics);
        for (i, &v) in sub.original.iter().enumerate() {
            final_color[v] = Some(out.coloring.color(i));
        }
    }

    let colors: Vec<u64> = final_color
        .into_iter()
        .map(|c| c.expect("every node belongs to exactly one schedule class"))
        .collect();
    let coloring = Coloring::new(colors, target);
    verify::check_proper(topology, &coloring).map_err(ColoringError::PostconditionFailed)?;
    metrics.rounds = schedule_rounds + class_rounds;

    Ok(ScheduleOutcome {
        coloring,
        num_classes: schedule_classes.len(),
        schedule_rounds,
        class_rounds,
        metrics,
    })
}

/// The `(Δ+1)`-coloring via the β-outdegree schedule (`target = Δ+1`).
///
/// `beta = None` selects the paper's `β = Θ(√Δ)` choice.
pub fn scheduled_delta_plus_one(
    topology: &Topology,
    input: &Coloring,
    beta: Option<u32>,
    mode: ExecutionMode,
) -> Result<ScheduleOutcome, ColoringError> {
    let delta = topology.max_degree();
    let beta = beta.unwrap_or_else(|| (f64::from(delta).sqrt().ceil() as u32).max(1));
    scheduled_coloring(topology, input, beta, delta as u64 + 1, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcme_graphs::generators;

    #[test]
    fn schedule_produces_delta_plus_one_coloring() {
        let g = generators::random_regular(150, 12, 3);
        let input = Coloring::from_ids(150);
        let out = scheduled_delta_plus_one(&g, &input, None, ExecutionMode::Sequential).unwrap();
        verify::check_proper(&g, &out.coloring).unwrap();
        assert!(out.coloring.palette() <= g.max_degree() as u64 + 1);
        assert!(out.num_classes >= 1);
        assert_eq!(out.total_rounds(), out.schedule_rounds + out.class_rounds);
    }

    #[test]
    fn larger_beta_means_fewer_classes() {
        let g = generators::random_regular(200, 16, 5);
        let input = Coloring::from_ids(200);
        let small =
            scheduled_delta_plus_one(&g, &input, Some(1), ExecutionMode::Sequential).unwrap();
        let large =
            scheduled_delta_plus_one(&g, &input, Some(8), ExecutionMode::Sequential).unwrap();
        assert!(large.num_classes <= small.num_classes);
        assert!(large.schedule_rounds <= small.schedule_rounds);
    }

    #[test]
    fn works_on_complete_graph() {
        let g = generators::complete(9);
        let input = Coloring::from_ids(9);
        let out = scheduled_delta_plus_one(&g, &input, None, ExecutionMode::Sequential).unwrap();
        verify::check_proper(&g, &out.coloring).unwrap();
        assert_eq!(out.coloring.distinct_colors(), 9);
    }

    #[test]
    fn works_on_low_degree_graphs() {
        for g in [
            generators::ring(20),
            generators::path(20),
            generators::star(6),
        ] {
            let input = Coloring::from_ids(g.num_nodes());
            let out =
                scheduled_delta_plus_one(&g, &input, None, ExecutionMode::Sequential).unwrap();
            verify::check_proper(&g, &out.coloring).unwrap();
            assert!(out.coloring.palette() <= g.max_degree() as u64 + 1);
        }
    }

    #[test]
    fn custom_target_palette() {
        let g = generators::random_regular(100, 8, 2);
        let input = Coloring::from_ids(100);
        let out = scheduled_coloring(&g, &input, 2, 20, ExecutionMode::Sequential).unwrap();
        assert_eq!(out.coloring.palette(), 20);
        verify::check_proper(&g, &out.coloring).unwrap();
        assert!(matches!(
            scheduled_coloring(&g, &input, 2, 3, ExecutionMode::Sequential),
            Err(ColoringError::InvalidParameter { .. })
        ));
    }
}
