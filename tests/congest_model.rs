//! Integration tests for the CONGEST model guarantees: message sizes,
//! executor equivalence, and round accounting across algorithms.

use std::sync::Arc;

use dcme_algebra::sequence::{SequenceFamily, SequenceParams};
use dcme_coloring::trial::TrialNode;
use dcme_coloring::{corollary, pipeline, reduction, trial, TrialConfig};
use dcme_congest::{
    BandwidthReport, ExecutionMode, RecordingSink, Simulator, SimulatorConfig, TraceEvent,
    TracePhase,
};
use dcme_graphs::{coloring::Coloring, generators};

#[test]
fn every_main_algorithm_respects_the_congest_bandwidth_bound() {
    let n = 1024;
    let g = generators::random_regular(n, 16, 7);
    let ids = Coloring::from_ids(n);

    let metrics = [
        trial::run(&g, &ids, TrialConfig::proper(1))
            .unwrap()
            .metrics,
        trial::run(&g, &ids, TrialConfig::proper(64))
            .unwrap()
            .metrics,
        trial::run(&g, &ids, TrialConfig::defective(4, 1))
            .unwrap()
            .metrics,
        corollary::linial_color_reduction(&g, &ids).unwrap().metrics,
        pipeline::delta_plus_one(&g).unwrap().metrics,
    ];
    for (i, m) in metrics.iter().enumerate() {
        let report = BandwidthReport::check(n, m, 4);
        assert!(report.within_congest, "algorithm {i}: {report}");
    }
}

#[test]
fn one_round_algorithms_really_use_one_round() {
    let n = 512;
    let g = generators::random_regular(n, 8, 3);
    let ids = Coloring::from_ids(n);

    // Linial's reduction: one batch + the announce round.
    let lin = corollary::linial_color_reduction(&g, &ids).unwrap();
    assert!(lin.metrics.rounds <= 2);

    // Lemma 4.1: exactly one round.
    let seed = dcme_coloring::linial::delta_squared_from_ids(&g, None)
        .unwrap()
        .coloring;
    let red = reduction::one_round_reduction(&g, &seed, ExecutionMode::Sequential).unwrap();
    assert_eq!(red.metrics.rounds, 1);

    // Corollary 1.2(5): one batch + announce.
    let def = corollary::defective_one_round(&g, &ids, 2).unwrap();
    assert!(def.metrics.rounds <= 2);
}

#[test]
fn round_bound_of_theorem_1_1_holds_across_k_and_d() {
    let g = generators::gnp(400, 0.05, 11);
    let ids = Coloring::from_ids(400);
    for k in [1u64, 3, 17, 200] {
        for d in [0u32, 1, 3] {
            let out = trial::run(
                &g,
                &ids,
                TrialConfig {
                    d,
                    k,
                    mode: ExecutionMode::Sequential,
                },
            )
            .unwrap();
            assert!(
                out.metrics.rounds <= out.params.rounds + 1,
                "k={k} d={d}: rounds {} exceed bound {}",
                out.metrics.rounds,
                out.params.rounds + 1
            );
        }
    }
}

#[test]
fn parallel_executor_is_deterministic_across_thread_counts() {
    let g = generators::barabasi_albert(400, 3, 5);
    let ids = Coloring::from_ids(400);
    let reference = trial::run(&g, &ids, TrialConfig::proper(4)).unwrap();
    for threads in [1usize, 2, 4, 8] {
        let par = trial::run(&g, &ids, TrialConfig::proper(4).parallel(threads)).unwrap();
        assert_eq!(par.result, reference.result, "threads = {threads}");
        assert_eq!(par.metrics.rounds, reference.metrics.rounds);
        assert_eq!(par.metrics.messages, reference.metrics.messages);
    }
}

#[test]
fn pooled_executor_matches_sequential_on_ring_random_and_star() {
    // The equivalence guarantee for `ExecutionMode::Parallel` (the
    // threaded driver): bit-for-bit identical to the sequential run on
    // topologies with very different degree profiles (constant,
    // concentrated, and a hub whose degree equals n - 1).
    let cases = [
        ("ring", generators::ring(257)),
        ("random", generators::gnp(300, 0.03, 23)),
        ("star", generators::star(199)),
    ];
    for (name, g) in cases {
        let ids = Coloring::from_ids(g.num_nodes());
        let seq = trial::run(&g, &ids, TrialConfig::proper(2)).unwrap();
        for threads in [1usize, 3, 8] {
            let par = trial::run(&g, &ids, TrialConfig::proper(2).parallel(threads)).unwrap();
            assert_eq!(par.result, seq.result, "{name}, threads = {threads}");
            assert_eq!(par.metrics.rounds, seq.metrics.rounds, "{name}");
            assert_eq!(par.metrics.messages, seq.metrics.messages, "{name}");
            assert_eq!(par.metrics.total_bits, seq.metrics.total_bits, "{name}");
            assert_eq!(
                par.metrics.max_message_bits, seq.metrics.max_message_bits,
                "{name}"
            );
            assert_eq!(
                par.metrics.active_per_round, seq.metrics.active_per_round,
                "{name}"
            );
        }
    }
}

#[test]
fn engine_reports_phase_timings() {
    // The phase clocks are the observability surface the engine_scaling
    // bench relies on; make sure real runs populate them.
    let g = generators::random_regular(256, 6, 3);
    let ids = Coloring::from_ids(256);
    let params = SequenceParams::derive(g.max_degree(), ids.palette(), 0, 2).unwrap();
    let family = Arc::new(SequenceFamily::new(params));
    for config in [TrialConfig::proper(2), TrialConfig::proper(2).parallel(2)] {
        let nodes: Vec<TrialNode> = (0..g.num_nodes())
            .map(|v| TrialNode::new(Arc::clone(&family), ids.color(v)))
            .collect();
        let sink = RecordingSink::new();
        let sim_config = SimulatorConfig {
            max_rounds: params.rounds + 2,
            mode: config.mode,
        };
        let out = Simulator::with_config(&g, sim_config)
            .with_tracer(&sink)
            .run(nodes);
        let p = out.metrics.phase_nanos;
        assert!(p.send > 0, "send phase should accumulate time");
        assert!(p.receive > 0, "receive phase should accumulate time");
        assert_eq!(p.total(), p.send + p.deliver + p.receive);
        if config.mode == ExecutionMode::Sequential {
            // One shard drains nothing, so its deliver phase is two
            // back-to-back clock reads, which a coarse clock can make equal;
            // it must still be entered and timed once per round.
            let events = sink.take();
            let delivers = events.iter().filter(|e| {
                matches!(
                    e,
                    TraceEvent::PhaseEnd {
                        phase: TracePhase::Deliver,
                        ..
                    }
                )
            });
            assert_eq!(delivers.count() as u64, out.metrics.rounds);
        } else {
            assert!(p.deliver > 0, "deliver phase should accumulate time");
        }
    }
}

#[test]
fn message_volume_scales_with_edges_times_rounds() {
    let g = generators::random_regular(300, 10, 13);
    let ids = Coloring::from_ids(300);
    let out = trial::run(&g, &ids, TrialConfig::proper(1)).unwrap();
    // Every active node broadcasts once per round over each incident edge, so
    // the message count is at most 2 |E| rounds.
    let upper = 2 * g.num_edges() as u64 * out.metrics.rounds;
    assert!(out.metrics.messages <= upper);
    assert!(out.metrics.messages > 0);
    assert!(out.metrics.mean_message_bits() > 0.0);
}
