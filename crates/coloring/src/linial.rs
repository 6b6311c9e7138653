//! Linial's `O(Δ²)`-coloring in `O(log* n)` rounds.
//!
//! Linial's algorithm treats the unique identifiers as an input coloring with
//! `m = n` colors and repeatedly applies the one-round color reduction
//! (Corollary 1.2 (1), i.e. the mother algorithm with `k = X`, `d = 0`),
//! shrinking the palette from `m` to `O(Δ² poly log m)` per step.  After
//! `O(log* n)` steps the palette stabilises at `O(Δ²)` and further steps make
//! no progress.
//!
//! [`delta_squared_from_ids`] iterates the reduction until it stops making
//! progress (or a target palette is reached) and reports the number of
//! iterations, which the experiments compare against `log* n`.  Whether a
//! step makes progress is a function of its parameters alone, so the fixed
//! point is detected before simulating the step, not after.

use dcme_algebra::logstar::log_star;
use dcme_algebra::sequence::SequenceParams;
use dcme_congest::{ExecutionMode, RunMetrics, Topology};
use dcme_graphs::coloring::Coloring;

use crate::error::ColoringError;
use crate::trial;

/// The result of the iterated Linial reduction.
#[derive(Debug, Clone)]
pub struct LinialOutcome {
    /// The final proper coloring with `O(Δ²)` colors.
    pub coloring: Coloring,
    /// Number of one-round reduction steps executed.
    pub iterations: u64,
    /// Sum of the simulator rounds over all steps (≈ 2 · iterations because
    /// each one-batch run spends one extra announce round).
    pub total_rounds: u64,
    /// Merged message accounting over all steps.
    pub metrics: RunMetrics,
    /// `log* n` of the starting palette, for comparison in experiment tables.
    pub log_star_n: u32,
    /// The palette after every step (starting with the input palette).
    pub palette_trace: Vec<u64>,
}

/// Iterates Corollary 1.2 (1) starting from unique identifiers until the
/// palette stops shrinking (or drops below `target`, if given).
///
/// The returned coloring is proper with `O(Δ²)` colors; the number of
/// iterations is `O(log* n)`.
pub fn delta_squared_from_ids(
    topology: &Topology,
    target: Option<u64>,
) -> Result<LinialOutcome, ColoringError> {
    let ids = Coloring::from_ids(topology.num_nodes());
    reduce_iteratively(topology, &ids, target)
}

/// Iterates Corollary 1.2 (1) starting from an arbitrary proper input
/// coloring until the palette stops shrinking (or drops below `target`).
pub fn reduce_iteratively(
    topology: &Topology,
    input: &Coloring,
    target: Option<u64>,
) -> Result<LinialOutcome, ColoringError> {
    let mut current = input.clone();
    let mut iterations = 0u64;
    let mut total_rounds = 0u64;
    let mut metrics = RunMetrics::default();
    let mut palette_trace = vec![current.palette()];
    let log_star_n = log_star(input.palette());

    loop {
        if let Some(t) = target {
            if current.palette() <= t {
                break;
            }
        }
        // The parameters of Corollary 1.2 (1), as
        // `corollary::linial_color_reduction` derives them.
        let params = SequenceParams::derive_one_shot(topology.max_degree(), current.palette())?;
        if params.encoded_colors() >= current.palette() {
            // No further progress: we have reached the O(Δ²) fixed point.
            // The step is not simulated, but its input is still checked, so
            // an improper coloring is rejected rather than returned.
            trial::check_input(topology, &current, &params)?;
            break;
        }
        let step = trial::run_with_params(topology, &current, params, ExecutionMode::Sequential)?;
        iterations += 1;
        total_rounds += step.metrics.rounds;
        metrics.merge(&step.metrics);
        current = step.coloring().clone();
        palette_trace.push(current.palette());

        // Defensive cap: the palette shrinks at least geometrically above the
        // fixed point, so log* n + a few iterations always suffice.
        if iterations > 64 {
            return Err(ColoringError::DidNotTerminate {
                round_cap: iterations,
            });
        }
    }
    metrics.rounds = total_rounds;

    Ok(LinialOutcome {
        coloring: current,
        iterations,
        total_rounds,
        metrics,
        log_star_n,
        palette_trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcme_graphs::generators;
    use dcme_graphs::verify;

    #[test]
    fn ring_reaches_small_palette_in_logstar_like_iterations() {
        let g = generators::ring(1 << 12);
        let out = delta_squared_from_ids(&g, None).unwrap();
        verify::check_proper(&g, &out.coloring).unwrap();
        // Δ = 2: the fixed point is a constant-size palette, far below n.
        assert!(out.coloring.palette() < 200);
        // Iterations are log*-ish: single digits even for n = 4096.
        assert!(out.iterations <= 6, "iterations = {}", out.iterations);
        assert!(out.palette_trace.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn regular_graph_reaches_delta_squared_ballpark() {
        let g = generators::random_regular(2000, 8, 11);
        let out = delta_squared_from_ids(&g, None).unwrap();
        verify::check_proper(&g, &out.coloring).unwrap();
        let delta = g.max_degree() as u64;
        // O(Δ²) with the paper's constants (≤ 256 Δ² after the last step,
        // usually ~(12Δ)² here).
        assert!(out.coloring.palette() <= 256 * delta * delta);
        assert!(out.iterations >= 1);
        assert!(out.total_rounds <= 2 * out.iterations + 2);
    }

    #[test]
    fn target_stops_early() {
        let g = generators::random_regular(500, 6, 3);
        let loose = delta_squared_from_ids(&g, Some(u64::MAX)).unwrap();
        assert_eq!(loose.iterations, 0);
        assert_eq!(loose.coloring.palette(), 500);

        let strict = delta_squared_from_ids(&g, None).unwrap();
        assert!(strict.coloring.palette() < 500);
    }

    #[test]
    fn improper_input_is_rejected_even_at_the_fixed_point() {
        // Δ = 2 and 3 input colors: the one-shot palette (25) does not
        // shrink the input, so no step runs — the input must still be
        // checked, not returned as a proper "fixed point".
        let g = generators::ring(8);
        let bad = Coloring::new(vec![0, 0, 1, 2, 0, 1, 0, 1], 3);
        let err = reduce_iteratively(&g, &bad, None).unwrap_err();
        assert!(matches!(err, ColoringError::ImproperInput(_)), "{err:?}");
        // The `target` exit happens before any check, as it always has.
        let out = reduce_iteratively(&g, &bad, Some(3)).unwrap();
        assert_eq!(out.iterations, 0);
        assert_eq!(out.coloring, bad);
        // A short input is rejected at the fixed point too.
        let short = Coloring::new(vec![0, 1, 2], 3);
        assert!(matches!(
            reduce_iteratively(&g, &short, None),
            Err(ColoringError::InputSizeMismatch { .. })
        ));
    }

    #[test]
    fn iterating_from_existing_coloring() {
        let g = generators::gnp(300, 0.05, 5);
        let start = Coloring::from_ids(300);
        let out = reduce_iteratively(&g, &start, None).unwrap();
        verify::check_proper(&g, &out.coloring).unwrap();
        assert_eq!(out.palette_trace[0], 300);
        assert_eq!(
            out.palette_trace.last().copied().unwrap(),
            out.coloring.palette()
        );
    }
}
