//! Distributed-correctness tests under injected message faults.
//!
//! Two layers, one fault model:
//!
//! * **Randomized fault injection** (`dcme_congest::faults`) — proptest
//!   drives random fault plans against random graph families for the paper
//!   pipeline and both randomized baselines.  Every run must either keep
//!   the coloring invariants or fail with a *classified, replayable*
//!   counterexample (`InvariantViolation` plus the byte-identical event
//!   log a second run of the same `(seed, plan)` reproduces) — never a
//!   panic, never a silently wrong coloring.
//! * **Exhaustive schedule exploration** (`dcme_congest::mc`) — the
//!   bounded model checker walks *every* fault placement on tiny
//!   instances, each as one sharded engine run through the same fault
//!   layer, one node per shard.  The `mc_`-prefixed tests are the CI
//!   smoke: the checker must find the seeded violation in the
//!   intentionally unprotected fixture (and replay it), and must pass the
//!   hardened fixture and the paper pipeline under the same bounds; one
//!   table pins its exact verdicts on small instances.

use std::sync::Arc;

use proptest::prelude::*;

use dcme_algebra::sequence::{SequenceFamily, SequenceParams};
use dcme_baselines::degree_plus_one::{self, DegreePlusOneNode};
use dcme_baselines::ultrafast::{self, UltrafastNode};
use dcme_coloring::trial::TrialNode;
use dcme_congest::faults::{check_coloring, render_log, run_faulty, FaultPlan, InvariantViolation};
use dcme_congest::mc::fixtures::{GreedyRobust, GreedyUnprotected};
use dcme_congest::mc::{self, McConfig, McVerdict, Violation};
use dcme_congest::{InProcess, ShardedTopology, Topology};
use dcme_graphs::coloring::Coloring;
use dcme_graphs::generators;

/// The graph families the fault harness is pinned on (the same four as the
/// executor-equivalence suite).
fn build_graph(family: usize, size: usize, seed: u64) -> Topology {
    match family {
        0 => generators::ring(size.max(3)),
        1 => generators::random_regular(size.max(10), 4, seed),
        2 => generators::star(size.max(2)),
        _ => {
            let w = 2 + size % 7;
            generators::grid(w, size.div_ceil(w).max(1), size % 2 == 0)
        }
    }
}

/// Builds the paper pipeline's per-node state machines for an identity
/// input coloring (always proper, palette `n`), plus its round cap.
fn trial_nodes(g: &Topology) -> (Vec<TrialNode>, u64) {
    let n = g.num_nodes();
    let input = Coloring::from_ids(n);
    let params = SequenceParams::derive(g.max_degree(), input.palette(), 0, 1)
        .expect("identity coloring satisfies Theorem 1.1 preconditions");
    let family = Arc::new(SequenceFamily::new(params));
    let nodes = (0..n)
        .map(|v| TrialNode::new(Arc::clone(&family), input.color(v)))
        .collect();
    (nodes, params.rounds + 2)
}

/// Asserts that one faulted run of a baseline either kept the coloring
/// invariants or failed in the classified, replayable way: the violation
/// is typed, the algorithm never claimed async tolerance, and rerunning
/// the identical `(seed, plan)` reproduces the identical outputs and the
/// byte-identical event log.
fn assert_classified_or_clean<A, F>(
    g: &ShardedTopology,
    mk: F,
    plan: &FaultPlan,
    cap: u64,
    colors_of: impl Fn(&[A::Output]) -> Vec<Option<u64>>,
) -> Option<InvariantViolation>
where
    A: dcme_congest::NodeAlgorithm,
    A::Output: Clone + PartialEq + std::fmt::Debug,
    F: Fn() -> Vec<A>,
{
    let run = run_faulty(g, mk(), plan, InProcess, cap);
    let colors = colors_of(&run.outcome.outputs);
    let verdict = check_coloring(g, &colors, true);
    if let Some(v) = &verdict {
        // A violation must be replayable from (seed, plan) alone: the
        // second run reproduces outputs, metrics counters and event log
        // byte for byte.
        let again = run_faulty(g, mk(), plan, InProcess, cap);
        assert_eq!(
            run.outcome.outputs, again.outcome.outputs,
            "violation {v} must replay deterministically"
        );
        assert_eq!(
            render_log(&run.events),
            render_log(&again.events),
            "event logs must be byte-identical across replays"
        );
        assert!(
            !run.declared_tolerant || plan.retransmit,
            "async-tolerant algorithm violated an invariant under {}: {v}",
            plan.to_spec()
        );
    }
    verdict
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random fault plans × graph families × both randomized baselines:
    /// never a panic, never an unclassified wrong answer.  Retransmission
    /// masks every fault class, so retransmitting runs must additionally
    /// be invariant-clean.
    #[test]
    fn baselines_survive_or_fail_classified(
        family in 0usize..4,
        size in 8usize..32,
        graph_seed in 0u64..200,
        plan_seed in 0u64..1000,
        drop in 0u16..250,
        dup in 0u16..250,
        delay in 0u16..250,
        retransmit_bit in 0u8..2,
        shards in 2usize..5,
    ) {
        let g = build_graph(family, size, graph_seed);
        let n = g.num_nodes();
        let sharded = ShardedTopology::from_topology(&g, shards).expect("shardable");
        let mut plan = FaultPlan::none(plan_seed)
            .with_drop(drop)
            .with_duplication(dup)
            .with_delay(delay, 3);
        let retransmit = retransmit_bit == 1;
        if retransmit {
            plan = plan.with_retransmission();
        }
        let ultra = assert_classified_or_clean(
            &sharded,
            || (0..n).map(|_| UltrafastNode::new(plan_seed)).collect::<Vec<_>>(),
            &plan,
            ultrafast::round_cap(n),
            |outs| outs.to_vec(),
        );
        let dpo = assert_classified_or_clean(
            &sharded,
            || (0..n).map(|_| DegreePlusOneNode::new(plan_seed)).collect::<Vec<_>>(),
            &plan,
            degree_plus_one::round_cap(n),
            |outs| outs.to_vec(),
        );
        if retransmit {
            prop_assert!(ultra.is_none(), "retransmission must mask faults: {:?}", ultra);
            prop_assert!(dpo.is_none(), "retransmission must mask faults: {:?}", dpo);
        }
    }

    /// The paper pipeline under random fault plans: same contract.
    #[test]
    fn paper_pipeline_survives_or_fails_classified(
        family in 0usize..4,
        size in 8usize..24,
        graph_seed in 0u64..100,
        plan_seed in 0u64..1000,
        drop in 0u16..200,
        delay in 0u16..200,
        retransmit_bit in 0u8..2,
        shards in 2usize..5,
    ) {
        let g = build_graph(family, size, graph_seed);
        let sharded = ShardedTopology::from_topology(&g, shards).expect("shardable");
        let mut plan = FaultPlan::none(plan_seed).with_drop(drop).with_delay(delay, 2);
        let retransmit = retransmit_bit == 1;
        if retransmit {
            plan = plan.with_retransmission();
        }
        let (_, cap) = trial_nodes(&g);
        let verdict = assert_classified_or_clean(
            &sharded,
            || trial_nodes(&g).0,
            &plan,
            // Slack beyond the theoretical bound: drops can stall batches.
            cap + 8,
            |outs| outs.iter().map(|o| o.color).collect(),
        );
        if retransmit {
            prop_assert!(verdict.is_none(), "retransmission must mask faults: {:?}", verdict);
        }
    }
}

/// The headline acceptance criterion: the paper pipeline passes all
/// invariant checks under drop + reorder (delay) + duplication once
/// retransmission is enabled, and produces exactly the fault-free
/// coloring.
#[test]
fn paper_pipeline_is_exact_under_drop_and_reorder_with_retransmission() {
    let g = generators::ring(24);
    let sharded = ShardedTopology::from_topology(&g, 4).unwrap();
    let (_, cap) = trial_nodes(&g);

    let clean = run_faulty(
        &sharded,
        trial_nodes(&g).0,
        &FaultPlan::none(7),
        InProcess,
        cap,
    );
    let plan = FaultPlan::none(7)
        .with_drop(200)
        .with_duplication(150)
        .with_delay(200, 2)
        .with_retransmission();
    let masked = run_faulty(&sharded, trial_nodes(&g).0, &plan, InProcess, cap);

    assert!(
        masked.outcome.metrics.faults_retransmitted > 0,
        "plan must fire"
    );
    assert_eq!(masked.outcome.metrics.faults_dropped, 0);
    assert_eq!(masked.outcome.metrics.faults_delayed, 0);
    let colors: Vec<Option<u64>> = masked.outcome.outputs.iter().map(|o| o.color).collect();
    assert_eq!(check_coloring(&sharded, &colors, true), None);
    assert_eq!(
        clean.outcome.outputs, masked.outcome.outputs,
        "retransmission must reproduce the fault-free run exactly"
    );
}

/// A partition window heals once the window closes (with retransmission):
/// the run still terminates with a proper coloring.
#[test]
fn partition_window_heals_with_retransmission() {
    let g = generators::ring(16);
    let sharded = ShardedTopology::from_topology(&g, 4).unwrap();
    let n = g.num_nodes();
    let plan = FaultPlan::none(3)
        .with_partition(0, 1, 0, 3)
        .with_retransmission();
    let run = run_faulty(
        &sharded,
        (0..n).map(|_| UltrafastNode::new(3)).collect::<Vec<_>>(),
        &plan,
        InProcess,
        ultrafast::round_cap(n) + 8,
    );
    assert!(
        run.outcome.metrics.faults_delayed > 0,
        "window must defer traffic"
    );
    assert_eq!(check_coloring(&sharded, &run.outcome.outputs, true), None);
}

/// The unprotected fixture breaks under plain transport-level drops too —
/// and the break replays from `(seed, plan)` alone.  The first violating
/// seed is found by deterministic scan, so the test is stable.
#[test]
fn transport_level_drops_break_the_unprotected_fixture_replayably() {
    let g = generators::ring(12);
    // One node per shard makes every ring edge cross-shard, so the fault
    // layer sees all of the traffic.
    let sharded = ShardedTopology::from_topology(&g, 12).unwrap();
    let n = g.num_nodes();
    let mk = || vec![GreedyUnprotected::new(); n];
    let found = (0..200u64).find(|&seed| {
        let plan = FaultPlan::none(seed).with_drop(400);
        let run = run_faulty(&sharded, mk(), &plan, InProcess, 64);
        let colors: Vec<Option<u64>> = run.outcome.outputs.clone();
        matches!(
            check_coloring(&sharded, &colors, false),
            Some(InvariantViolation::ImproperEdge { .. })
        )
    });
    let seed = found.expect("some drop seed must break the unprotected greedy");
    let plan = FaultPlan::none(seed).with_drop(400);
    let a = run_faulty(&sharded, mk(), &plan, InProcess, 64);
    let b = run_faulty(&sharded, mk(), &plan, InProcess, 64);
    assert!(!a.declared_tolerant);
    assert_eq!(a.outcome.outputs, b.outcome.outputs);
    assert_eq!(render_log(&a.events), render_log(&b.events));
    assert!(!a.events.is_empty());
}

// ---------------------------------------------------------------------------
// Model-checker smoke (run in CI as `cargo test --test fault_injection mc_`).
// ---------------------------------------------------------------------------

/// The checker must find the seeded known-violation fixture: one fault
/// suffices to break the unprotected greedy, the trace is minimal, and it
/// replays to the identical violation.
#[test]
fn mc_finds_and_replays_the_seeded_violation() {
    let g = Topology::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
    let mk = || vec![GreedyUnprotected::new(); 3];
    let config = McConfig::default();
    let McVerdict::Violated(ce) = mc::check(&g, mk, &config) else {
        panic!("the unprotected fixture must violate under one fault");
    };
    assert_eq!(
        ce.trace.len(),
        1,
        "iterative deepening yields a minimal trace"
    );
    assert!(matches!(ce.violation, Violation::ImproperEdge { .. }));
    assert_eq!(mc::replay(&g, mk, &ce.trace, &config), Some(ce.violation));
    assert_eq!(
        mc::replay(&g, mk, &[], &config),
        None,
        "fault-free replay is clean"
    );
}

/// `replay` reads `require_termination` as `check` does: a run that hits
/// the round bound is a violation only if termination is required.
#[test]
fn mc_replay_reports_no_termination_only_when_required() {
    let g = Topology::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
    let mk = || vec![GreedyRobust::new(1); 3];
    let config = McConfig {
        max_rounds: 2,
        max_faults: 0,
        require_termination: false,
        ..McConfig::default()
    };
    assert_eq!(
        mc::check(&g, mk, &config),
        McVerdict::Pass { executions: 1 }
    );
    assert_eq!(mc::replay(&g, mk, &[], &config), None);
    let required = McConfig {
        require_termination: true,
        ..config
    };
    assert_eq!(
        mc::replay(&g, mk, &[], &required),
        Some(Violation::NoTermination { rounds: 2 })
    );
}

/// The hardened fixture passes exhaustively under the same budget.  (The
/// triangle is the largest fixture whose hardened run plus one fault of
/// slack fits the 6-round exploration bound.)
#[test]
fn mc_passes_the_hardened_fixture() {
    let g = Topology::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
    let verdict = mc::check(&g, || vec![GreedyRobust::new(1); 3], &McConfig::default());
    assert!(
        matches!(verdict, McVerdict::Pass { .. }),
        "hardened greedy must survive every one-fault schedule, got {verdict:?}"
    );
}

/// The paper pipeline explores cleanly fault-free (budget 0 is still an
/// exhaustive statement: *no* zero-fault schedule breaks it), and keeps
/// properness under every single-duplicate schedule — duplicates are the
/// one fault class Algorithm 1's announcements are idempotent against.
#[test]
fn mc_paper_pipeline_keeps_invariants_in_bounds() {
    let g = generators::ring(6);
    let mk = || trial_nodes(&g).0;
    let fault_free = McConfig {
        max_faults: 0,
        ..McConfig::default()
    };
    assert!(
        matches!(mc::check(&g, mk, &fault_free), McVerdict::Pass { .. }),
        "paper pipeline must pass the exhaustive fault-free check"
    );
    let one_duplicate = McConfig {
        max_faults: 1,
        allow_drop: false,
        allow_delay: false,
        // Termination within MC_MAX_ROUNDS is not part of this claim;
        // properness of every committed color is.
        require_termination: false,
        ..McConfig::default()
    };
    assert!(
        matches!(mc::check(&g, mk, &one_duplicate), McVerdict::Pass { .. }),
        "paper pipeline properness must survive any single duplicate"
    );
}

/// The randomized baselines keep properness under every single-duplicate
/// schedule as well.
#[test]
fn mc_baselines_keep_properness_under_one_duplicate() {
    let g = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
    let config = McConfig {
        max_faults: 1,
        allow_drop: false,
        allow_delay: false,
        require_termination: false,
        ..McConfig::default()
    };
    let ultra = mc::check(
        &g,
        || (0..4).map(|_| UltrafastNode::new(11)).collect::<Vec<_>>(),
        &config,
    );
    assert!(
        matches!(ultra, McVerdict::Pass { .. }),
        "ultrafast: {ultra:?}"
    );
    let dpo = mc::check(
        &g,
        || {
            (0..4)
                .map(|_| DegreePlusOneNode::new(11))
                .collect::<Vec<_>>()
        },
        &config,
    );
    assert!(matches!(dpo, McVerdict::Pass { .. }), "degree+1: {dpo:?}");
}

/// The exact verdict of the checker on a table of small instances: the
/// violated edge and its one-fault trace where the unprotected fixture
/// breaks, and the execution count where a run passes.  These pin the
/// search order (positions by round, then sender, then receiving slot; at
/// each position no fault before drop, duplicate and delay; the last
/// position varied first) and how executions are counted.
#[test]
fn mc_verdicts_are_pinned_on_small_instances() {
    use mc::{Counterexample, FaultAction, McFault};

    let triangle = Topology::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
    let path = Topology::from_edges(2, &[(0, 1)]).unwrap();
    let star = generators::star(4);
    // Hub 4 comes last, so the edge-balanced cut of `from_topology` would
    // keep edge 0–1 inside one shard.
    let bowtie =
        Topology::from_edges(5, &[(0, 1), (0, 4), (1, 4), (2, 3), (2, 4), (3, 4)]).unwrap();
    let claw = Topology::from_edges(4, &[(0, 3), (1, 3), (2, 3)]).unwrap();
    let square = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();

    let default = McConfig::default();
    let delays_only = McConfig {
        allow_drop: false,
        allow_duplicate: false,
        ..McConfig::default()
    };
    let fault_free = McConfig {
        max_faults: 0,
        ..McConfig::default()
    };
    let one_duplicate = McConfig {
        max_faults: 1,
        allow_drop: false,
        allow_delay: false,
        require_termination: false,
        ..McConfig::default()
    };
    let two_faults_three_runs = McConfig {
        max_faults: 2,
        max_executions: 3,
        ..McConfig::default()
    };

    let unprotected = |g: &Topology, config: &McConfig| {
        let n = g.num_nodes();
        mc::check(g, || vec![GreedyUnprotected::new(); n], config)
    };
    let robust = |g: &Topology, grace: u64, config: &McConfig| {
        let n = g.num_nodes();
        mc::check(g, || vec![GreedyRobust::new(grace); n], config)
    };
    let violated = |(u, v, color): (usize, usize, u64), round, kind, slot, sender, receiver| {
        McVerdict::Violated(Counterexample {
            violation: Violation::ImproperEdge { u, v, color },
            trace: vec![FaultAction {
                round,
                slot,
                sender,
                receiver,
                kind,
            }],
        })
    };
    let pass = |executions| McVerdict::Pass { executions };
    let ring6 = generators::ring(6);
    let pipeline = || trial_nodes(&ring6).0;

    let cases = [
        (
            "unprotected triangle",
            unprotected(&triangle, &default),
            violated((1, 2, 1), 2, McFault::Drop, 5, 1, 2),
        ),
        (
            "unprotected triangle, delays only",
            unprotected(&triangle, &delays_only),
            violated((1, 2, 1), 2, McFault::Delay, 5, 1, 2),
        ),
        (
            "unprotected path",
            unprotected(&path, &default),
            violated((0, 1, 0), 1, McFault::Drop, 1, 0, 1),
        ),
        (
            "unprotected star(4)",
            unprotected(&star, &default),
            violated((0, 4, 0), 1, McFault::Drop, 7, 0, 4),
        ),
        (
            "unprotected bowtie",
            unprotected(&bowtie, &default),
            violated((2, 3, 0), 1, McFault::Drop, 6, 2, 3),
        ),
        (
            "unprotected bowtie, delays only",
            unprotected(&bowtie, &delays_only),
            violated((2, 3, 0), 1, McFault::Delay, 6, 2, 3),
        ),
        ("robust triangle", robust(&triangle, 1, &default), pass(80)),
        ("robust path", robust(&path, 1, &default), pass(23)),
        ("robust bowtie", robust(&bowtie, 1, &default), pass(158)),
        ("unprotected claw", unprotected(&claw, &default), pass(47)),
        ("robust claw", robust(&claw, 1, &default), pass(65)),
        (
            "unprotected triangle, no faults",
            unprotected(&triangle, &fault_free),
            pass(1),
        ),
        (
            "pipeline ring(6), no faults",
            mc::check(&ring6, pipeline, &fault_free),
            pass(1),
        ),
        (
            "pipeline ring(6), one duplicate",
            mc::check(&ring6, pipeline, &one_duplicate),
            pass(38),
        ),
        (
            "ultrafast 4-cycle, one duplicate",
            mc::check(
                &square,
                || (0..4).map(|_| UltrafastNode::new(11)).collect::<Vec<_>>(),
                &one_duplicate,
            ),
            pass(22),
        ),
        (
            "degree+1 4-cycle, one duplicate",
            mc::check(
                &square,
                || {
                    (0..4)
                        .map(|_| DegreePlusOneNode::new(11))
                        .collect::<Vec<_>>()
                },
                &one_duplicate,
            ),
            pass(24),
        ),
        (
            "robust(2) triangle, two faults, three executions",
            robust(&triangle, 2, &two_faults_three_runs),
            McVerdict::ExecutionBudgetExhausted { executions: 4 },
        ),
    ];
    for (name, got, want) in cases {
        assert_eq!(got, want, "{name}");
    }
}
