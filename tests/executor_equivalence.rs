//! Property-based executor equivalence: on random topologies with random
//! halting schedules, every driver of the round kernel — the
//! single-threaded driver on `Topology` and on a multi-shard
//! `ShardedTopology`, `ExecutionMode::Parallel`, and the threaded driver
//! under **every transport backend** (in-process staging queues and the
//! wire-codec'd socket loopback) — must produce the outputs, round counts
//! and message accounting of an independent reference loop.
//!
//! This is the engine contract stated in `dcme_congest::executor`: every
//! `Executor` is bit-for-bit equivalent (all metrics except wall-clock
//! phase timings and the backend-describing transport counters
//! `wire_bytes_sent` / `transport_flush_nanos`).  Since every driver runs
//! the same kernel, none of them can serve as the reference:
//! [`reference_run`] below is the synchronous round written out plainly,
//! sharing no code with the engine beyond the public model types.

use proptest::prelude::*;

use dcme_baselines::degree_plus_one::{self, DegreePlusOneNode};
use dcme_baselines::ultrafast::{self, UltrafastNode};
use dcme_congest::{
    ExecutionMode, FaultPlan, FaultyTransport, Inbox, MessageSize, NodeAlgorithm, NodeContext,
    Outbox, RecordingSink, RunMetrics, RunOutcome, ShardedExecutor, ShardedTopology, Simulator,
    SimulatorConfig, SocketLoopback, Topology, TopologyView, TraceEvent, TransportBuilder,
};
use dcme_graphs::generators;

/// The independent oracle: one untraced synchronous round loop.  Each
/// round every active node's outbox is staged, the staged messages are
/// delivered through `neighbor_at` / `reverse_port` / `port_range`, every
/// active node receives, and halted nodes leave the active list.
fn reference_run<A: NodeAlgorithm>(
    g: &impl TopologyView,
    mut nodes: Vec<A>,
    max_rounds: u64,
) -> RunOutcome<A::Output> {
    let n = g.num_nodes();
    let ctx = |node, round| NodeContext {
        node,
        degree: g.degree(node),
        n,
        max_degree: g.max_degree(),
        round,
    };
    for (v, node) in nodes.iter_mut().enumerate() {
        node.init(&ctx(v, 0));
    }
    let mut metrics = RunMetrics::default();
    let mut active: Vec<usize> = (0..n).filter(|&v| !nodes[v].is_halted()).collect();
    let mut round = 0;
    while !active.is_empty() {
        if round == max_rounds {
            metrics.hit_round_cap = true;
            break;
        }
        metrics.active_per_round.push(active.len());
        let staged: Vec<(usize, Outbox<A::Message>)> = active
            .iter()
            .map(|&v| (v, nodes[v].send(&ctx(v, round))))
            .collect();
        let mut slots: Vec<Option<A::Message>> = vec![None; g.num_directed_edges()];
        for (v, outbox) in staged {
            let sent: Vec<(usize, A::Message)> = match outbox {
                Outbox::Silent => Vec::new(),
                Outbox::Broadcast(m) => (0..g.degree(v)).map(|p| (p, m.clone())).collect(),
                Outbox::PerPort(list) => list,
            };
            for (p, m) in sent {
                assert!(p < g.degree(v), "node {v} sent on nonexistent port {p}");
                metrics.record_message(m.bit_size());
                let u = g.neighbor_at(v, p);
                let slot = &mut slots[g.port_range(u).start + g.reverse_port(v, p)];
                assert!(slot.is_none(), "node {v} sent twice over port {p}");
                *slot = Some(m);
            }
        }
        for &v in &active {
            nodes[v].receive(&ctx(v, round), &Inbox::from_slots(&slots[g.port_range(v)]));
        }
        active.retain(|&v| !nodes[v].is_halted());
        round += 1;
    }
    metrics.rounds = round;
    let outputs = nodes.iter().map(|a| a.output()).collect();
    RunOutcome { outputs, metrics }
}

/// Asserts `run` reproduces the oracle's outputs and every logical
/// counter, field by field.
fn assert_matches_oracle<O: PartialEq + std::fmt::Debug>(
    name: &str,
    oracle: &RunOutcome<O>,
    run: &RunOutcome<O>,
) -> Result<(), TestCaseError> {
    let (want, got) = (&oracle.metrics, &run.metrics);
    prop_assert_eq!(&oracle.outputs, &run.outputs, "{} outputs diverged", name);
    prop_assert_eq!(want.rounds, got.rounds, "{} rounds", name);
    prop_assert_eq!(want.messages, got.messages, "{} messages", name);
    prop_assert_eq!(want.total_bits, got.total_bits, "{} bits", name);
    prop_assert_eq!(
        want.max_message_bits,
        got.max_message_bits,
        "{} max bits",
        name
    );
    prop_assert_eq!(
        &want.active_per_round,
        &got.active_per_round,
        "{} active sets",
        name
    );
    prop_assert_eq!(want.hit_round_cap, got.hit_round_cap, "{} cap", name);
    Ok(())
}

/// Runs `mk()` with a round cap of `cap` on every driver: the
/// single-threaded driver on `g` and on a `shards`-shard copy,
/// `ExecutionMode::Parallel { threads }`, and the threaded driver over the
/// in-process and the Unix-socket transports.
fn every_driver<A: NodeAlgorithm>(
    g: &Topology,
    shards: usize,
    threads: usize,
    cap: u64,
    mk: impl Fn() -> Vec<A>,
) -> Vec<(&'static str, RunOutcome<A::Output>)> {
    let sharded = ShardedTopology::from_topology(g, shards).expect("shardable topology");
    let config = |mode| SimulatorConfig {
        max_rounds: cap,
        mode,
    };
    let seq = config(ExecutionMode::Sequential);
    vec![
        ("seq", Simulator::with_config(g, seq).run(mk())),
        (
            "seq on shards",
            Simulator::with_config(&sharded, seq).run(mk()),
        ),
        (
            "parallel",
            Simulator::with_config(g, config(ExecutionMode::Parallel { threads })).run(mk()),
        ),
        (
            "sharded+inproc",
            Simulator::with_config(&sharded, seq).run_with_executor(mk(), &ShardedExecutor::new()),
        ),
        (
            "sharded+socket",
            Simulator::with_config(&sharded, seq).run_with_executor(
                mk(),
                &ShardedExecutor::with_transport(SocketLoopback::unix()),
            ),
        ),
    ]
}

/// A deterministic workload with a per-node halting schedule: node `v`
/// broadcasts `id + round` while active, folds everything it hears into a
/// running digest, and halts after `ttl(v)` rounds — so active sets shrink
/// raggedly across worker chunk and shard boundaries.
#[derive(Clone)]
struct ScheduledGossip {
    id: u64,
    ttl: u64,
    digest: u64,
    rounds_done: u64,
}

impl ScheduledGossip {
    fn new(ttl: u64) -> Self {
        Self {
            id: 0,
            ttl,
            digest: 0,
            rounds_done: 0,
        }
    }
}

impl NodeAlgorithm for ScheduledGossip {
    type Message = u64;
    type Output = u64;

    fn init(&mut self, ctx: &NodeContext) {
        self.id = ctx.node as u64;
    }

    fn send(&mut self, ctx: &NodeContext) -> Outbox<u64> {
        Outbox::Broadcast(self.id + ctx.round)
    }

    fn receive(&mut self, _ctx: &NodeContext, inbox: &Inbox<'_, u64>) {
        for (p, m) in inbox.iter() {
            self.digest = self
                .digest
                .wrapping_mul(31)
                .wrapping_add(*m)
                .wrapping_add(p as u64);
        }
        self.rounds_done += 1;
    }

    fn is_halted(&self) -> bool {
        self.rounds_done >= self.ttl
    }

    fn output(&self) -> u64 {
        self.digest
    }
}

/// Derives a ragged-but-deterministic halting schedule from one seed.
fn schedule(n: usize, seed: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|v| 1 + (v.wrapping_mul(seed | 1).wrapping_add(seed >> 3)) % 9)
        .collect()
}

fn run_with_mode(g: &Topology, ttls: &[u64], mode: ExecutionMode) -> RunOutcome<u64> {
    let config = SimulatorConfig {
        max_rounds: 1_000_000,
        mode,
    };
    let nodes: Vec<ScheduledGossip> = ttls.iter().map(|&t| ScheduledGossip::new(t)).collect();
    Simulator::with_config(g, config).run(nodes)
}

fn run_sharded<B: TransportBuilder>(
    g: &Topology,
    ttls: &[u64],
    shards: usize,
    transport: B,
) -> RunOutcome<u64> {
    let sharded = ShardedTopology::from_topology(g, shards).expect("shardable topology");
    let nodes: Vec<ScheduledGossip> = ttls.iter().map(|&t| ScheduledGossip::new(t)).collect();
    Simulator::new(&sharded).run_with_executor(nodes, &ShardedExecutor::with_transport(transport))
}

/// The four graph families the equivalence guarantee is pinned on
/// (ISSUE/DESIGN: ring, random, star, grid) — parameterized by a size knob.
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

/// Runs one seeded randomized baseline on every driver and asserts each
/// run is bit-identical to the oracle — the engine contract applied to
/// *randomized* algorithms, which holds because their randomness is drawn
/// from stateless `(seed, node, round)` streams, never from execution
/// history.
fn assert_randomized_equivalence<A, F>(
    g: &Topology,
    shards: usize,
    threads: usize,
    cap: u64,
    mk: F,
) -> Result<(), TestCaseError>
where
    A: NodeAlgorithm<Output = Option<u64>>,
    F: Fn() -> Vec<A>,
{
    let oracle = reference_run(g, mk(), cap);
    prop_assert!(
        oracle.outputs.iter().all(Option::is_some),
        "randomized baseline must finish within its unconditional cap"
    );
    for (name, run) in every_driver(g, shards, threads, cap, mk) {
        assert_matches_oracle(name, &oracle, &run)?;
    }
    Ok(())
}

/// Asserts a traced run is bit-for-bit identical to its untraced twin on
/// the same executor and transport: outputs and every logical counter,
/// including the deterministic per-backend wire-byte count.  This is the
/// out-of-band contract of `dcme_congest::trace` — sinks observe, they
/// never influence.
fn assert_tracing_invisible(name: &str, plain: &RunOutcome<u64>, traced: &RunOutcome<u64>) {
    assert_eq!(&plain.outputs, &traced.outputs, "{name} outputs diverged");
    assert_eq!(plain.metrics.rounds, traced.metrics.rounds, "{name} rounds");
    assert_eq!(
        plain.metrics.messages, traced.metrics.messages,
        "{name} messages"
    );
    assert_eq!(
        plain.metrics.total_bits, traced.metrics.total_bits,
        "{name} bits"
    );
    assert_eq!(
        plain.metrics.max_message_bits, traced.metrics.max_message_bits,
        "{name} max bits"
    );
    assert_eq!(
        plain.metrics.active_per_round, traced.metrics.active_per_round,
        "{name} active sets"
    );
    assert_eq!(
        plain.metrics.hit_round_cap, traced.metrics.hit_round_cap,
        "{name} cap"
    );
    assert_eq!(
        plain.metrics.intra_shard_messages, traced.metrics.intra_shard_messages,
        "{name} intra-shard"
    );
    assert_eq!(
        plain.metrics.cross_shard_messages, traced.metrics.cross_shard_messages,
        "{name} cross-shard"
    );
    assert_eq!(
        plain.metrics.wire_bytes_sent, traced.metrics.wire_bytes_sent,
        "{name} wire bytes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random topology × random halting schedule × every driver: outputs,
    /// round counts and all accounting metrics match the oracle bit for
    /// bit.
    #[test]
    fn all_executors_agree(
        family in 0usize..4,
        size in 8usize..80,
        graph_seed in 0u64..500,
        ttl_seed in 0u64..1000,
        threads in 1usize..5,
        shards in 1usize..6,
    ) {
        let g = build_graph(family, size, graph_seed);
        let ttls = schedule(g.num_nodes(), ttl_seed);
        let mk = || ttls.iter().map(|&t| ScheduledGossip::new(t)).collect::<Vec<_>>();
        let oracle = reference_run(&g, mk(), 1_000_000);
        let runs = every_driver(&g, shards, threads, 1_000_000, mk);
        for (name, run) in &runs {
            assert_matches_oracle(name, &oracle, run)?;
        }

        // Shard attribution: the single-threaded driver reports no split;
        // the sharded drivers attribute every message to exactly one side
        // of a shard boundary, and one shard ⇒ no cross-shard traffic.
        for (name, run) in &runs {
            let m = &run.metrics;
            let shard_count = match *name {
                "seq" | "seq on shards" => 0,
                "parallel" => threads,
                _ => shards,
            };
            prop_assert_eq!(m.shard_phase_nanos.len(), shard_count, "{} shards", name);
            if shard_count == 0 {
                prop_assert_eq!(m.intra_shard_messages + m.cross_shard_messages, 0);
            } else {
                prop_assert_eq!(m.intra_shard_messages + m.cross_shard_messages, m.messages);
            }
            if shard_count == 1 {
                prop_assert_eq!(m.cross_shard_messages, 0);
            }
        }
        // Transport counters describe the backend: the in-memory queues
        // move no wire bytes; the socket mesh seals one frame per shard
        // pair per round, so any multi-shard round produces real bytes.
        let (inproc, sock) = (&runs[3].1.metrics, &runs[4].1.metrics);
        prop_assert_eq!(inproc.wire_bytes_sent, 0);
        prop_assert_eq!(sock.wire_bytes_sent > 0, shards > 1 && sock.rounds > 0);
    }

    /// Seeded randomized baselines (HNT ultrafast, D1LC degree+1): on random
    /// topologies, fixed-seed runs on every driver and transport backend
    /// are bit-for-bit identical to the oracle (the ISSUE 5 acceptance
    /// criterion, as a property).
    #[test]
    fn randomized_baselines_agree_across_executors_and_transports(
        family in 0usize..4,
        size in 8usize..48,
        graph_seed in 0u64..200,
        algo_seed in 0u64..1000,
        threads in 1usize..4,
        shards in 1usize..5,
    ) {
        let g = build_graph(family, size, graph_seed);
        let n = g.num_nodes();
        assert_randomized_equivalence(&g, shards, threads, ultrafast::round_cap(n), || {
            (0..n).map(|_| UltrafastNode::new(algo_seed)).collect::<Vec<_>>()
        })?;
        assert_randomized_equivalence(&g, shards, threads, degree_plus_one::round_cap(n), || {
            (0..n).map(|_| DegreePlusOneNode::new(algo_seed)).collect::<Vec<_>>()
        })?;
    }

    /// Zero-fault regression: wrapping any transport in a `FaultyTransport`
    /// with an **empty** fault plan must be bit-for-bit invisible — same
    /// outputs, rounds, messages, bit accounting *and wire bytes* as the
    /// unwrapped backend.  The fault layer may only cost when a plan fires.
    #[test]
    fn empty_fault_plan_is_bit_for_bit_invisible(
        family in 0usize..4,
        size in 8usize..48,
        graph_seed in 0u64..200,
        ttl_seed in 0u64..1000,
        plan_seed in 0u64..1000,
        shards in 1usize..6,
    ) {
        let g = build_graph(family, size, graph_seed);
        let ttls = schedule(g.num_nodes(), ttl_seed);
        let plan = FaultPlan::none(plan_seed);
        prop_assert!(plan.is_empty());

        let pairs = [
            (
                run_sharded(&g, &ttls, shards, dcme_congest::InProcess),
                run_sharded(
                    &g,
                    &ttls,
                    shards,
                    FaultyTransport::new(plan.clone(), dcme_congest::InProcess),
                ),
            ),
            (
                run_sharded(&g, &ttls, shards, SocketLoopback::unix()),
                run_sharded(
                    &g,
                    &ttls,
                    shards,
                    FaultyTransport::new(plan.clone(), SocketLoopback::unix()),
                ),
            ),
        ];
        let seq = run_with_mode(&g, &ttls, ExecutionMode::Sequential);
        for (plain, faulty) in &pairs {
            prop_assert_eq!(&seq.outputs, &faulty.outputs, "outputs vs sequential");
            prop_assert_eq!(&plain.outputs, &faulty.outputs, "outputs vs unwrapped");
            prop_assert_eq!(plain.metrics.rounds, faulty.metrics.rounds, "rounds");
            prop_assert_eq!(plain.metrics.messages, faulty.metrics.messages, "messages");
            prop_assert_eq!(plain.metrics.total_bits, faulty.metrics.total_bits, "bits");
            prop_assert_eq!(
                plain.metrics.wire_bytes_sent,
                faulty.metrics.wire_bytes_sent,
                "wire bytes"
            );
            prop_assert_eq!(
                &plain.metrics.active_per_round,
                &faulty.metrics.active_per_round,
                "active sets"
            );
            prop_assert_eq!(faulty.metrics.faults_dropped, 0);
            prop_assert_eq!(faulty.metrics.faults_duplicated, 0);
            prop_assert_eq!(faulty.metrics.faults_delayed, 0);
            prop_assert_eq!(faulty.metrics.faults_retransmitted, 0);
            prop_assert_eq!(faulty.metrics.stale_overwrites, 0);
        }
    }

    /// Scale-out construction contract: the coordinator's counting pass
    /// (`ShardPlan`) plus each worker's restricted single-shard build
    /// (`ShardSliceTopology`) reproduces the full `ShardedTopology` exactly
    /// — same plan, and per shard the same CSR slice, `dest_slot` remap and
    /// reverse ports — across random graph families and shard counts.  This
    /// is the invariant that lets mesh-mode workers rebuild only their own
    /// shard from the shared edge stream.
    #[test]
    fn restricted_shard_construction_matches_full_build(
        family in 0usize..4,
        size in 8usize..80,
        graph_seed in 0u64..500,
        shards in 1usize..6,
    ) {
        let g = build_graph(family, size, graph_seed);
        let full = ShardedTopology::from_topology(&g, shards).expect("shardable topology");
        let plan = full.plan();
        let streamed = dcme_congest::ShardPlan::from_edge_stream(g.num_nodes(), shards, |emit| {
            for (u, v) in g.edges() {
                emit(u, v);
            }
        })
        .expect("plan from stream");
        prop_assert_eq!(&streamed, &plan, "streamed plan diverged from full build");
        for shard in 0..shards {
            let slice = dcme_congest::ShardSliceTopology::build(plan.clone(), shard, |emit| {
                for (u, v) in g.edges() {
                    emit(u, v);
                }
            })
            .expect("restricted build");
            prop_assert_eq!(&slice, &full.shard_slice(shard), "slice {} diverged", shard);
        }
    }

    /// Observability regression: attaching a recording `TraceSink` to any
    /// executor × transport combination must be bit-for-bit invisible —
    /// identical outputs, rounds and every logical counter — while the
    /// sink itself observes a full run (lifecycle events bracket the
    /// stream and every round is reported).
    #[test]
    fn attached_trace_sink_is_bit_for_bit_invisible(
        family in 0usize..4,
        size in 8usize..48,
        graph_seed in 0u64..200,
        ttl_seed in 0u64..1000,
        threads in 1usize..4,
        shards in 1usize..5,
    ) {
        let g = build_graph(family, size, graph_seed);
        let ttls = schedule(g.num_nodes(), ttl_seed);
        let sharded = ShardedTopology::from_topology(&g, shards).expect("shardable topology");
        let mk = || ttls.iter().map(|&t| ScheduledGossip::new(t)).collect::<Vec<_>>();
        let config = |mode| SimulatorConfig { max_rounds: 1_000_000, mode };

        let mut sinks = Vec::new();
        for mode in [ExecutionMode::Sequential, ExecutionMode::Parallel { threads }] {
            let name = if mode == ExecutionMode::Sequential { "seq" } else { "parallel" };
            let sink = RecordingSink::new();
            let plain = run_with_mode(&g, &ttls, mode);
            let traced = Simulator::with_config(&g, config(mode))
                .with_tracer(&sink)
                .run(mk());
            assert_tracing_invisible(name, &plain, &traced);
            sinks.push((name, traced.metrics.rounds, sink));
        }
        {
            let sink = RecordingSink::new();
            let plain = run_sharded(&g, &ttls, shards, dcme_congest::InProcess);
            let traced = Simulator::new(&sharded)
                .with_tracer(&sink)
                .run_with_executor(mk(), &ShardedExecutor::new());
            assert_tracing_invisible("sharded+inproc", &plain, &traced);
            sinks.push(("sharded+inproc", traced.metrics.rounds, sink));
        }
        {
            let sink = RecordingSink::new();
            let plain = run_sharded(&g, &ttls, shards, SocketLoopback::unix());
            let traced = Simulator::new(&sharded).with_tracer(&sink).run_with_executor(
                mk(),
                &ShardedExecutor::with_transport(SocketLoopback::unix()),
            );
            assert_tracing_invisible("sharded+socket", &plain, &traced);
            sinks.push(("sharded+socket", traced.metrics.rounds, sink));
        }

        for (name, rounds, sink) in &sinks {
            prop_assert!(!sink.is_empty(), "{} emitted no events", name);
            let events = sink.take();
            prop_assert!(
                matches!(events.first(), Some(TraceEvent::RunStart { .. })),
                "{} stream must open with RunStart", name
            );
            prop_assert!(
                matches!(events.last(), Some(TraceEvent::RunEnd { rounds: r }) if r == rounds),
                "{} stream must close with RunEnd({})", name, rounds
            );
            let starts = events
                .iter()
                .filter(|e| matches!(e, TraceEvent::RoundStart { .. }))
                .count() as u64;
            prop_assert_eq!(starts, *rounds, "{}: one RoundStart per round", name);
            // The sharded streams additionally carry the worker lifecycle:
            // exactly one start and one end per shard.
            if name.starts_with("sharded") {
                let ws = events
                    .iter()
                    .filter(|e| matches!(e, TraceEvent::WorkerStart { .. }))
                    .count();
                let we = events
                    .iter()
                    .filter(|e| matches!(e, TraceEvent::WorkerEnd { .. }))
                    .count();
                prop_assert_eq!(ws, shards, "{}: WorkerStart per shard", name);
                prop_assert_eq!(we, shards, "{}: WorkerEnd per shard", name);
            }
        }
    }

    /// The round cap stops every driver at the oracle's round with the cap
    /// flag set — also under sharding.
    #[test]
    fn round_cap_agrees_across_executors(
        size in 8usize..40,
        cap in 1u64..6,
        shards in 1usize..5,
        threads in 1usize..4,
    ) {
        let g = generators::ring(size.max(3));
        let ttls = vec![u64::MAX; g.num_nodes()]; // never halts on its own
        let mk = || ttls.iter().map(|&t| ScheduledGossip::new(t)).collect::<Vec<_>>();
        let oracle = reference_run(&g, mk(), cap);
        prop_assert!(oracle.metrics.hit_round_cap);
        prop_assert_eq!(oracle.metrics.rounds, cap);
        for (name, run) in every_driver(&g, shards, threads, cap, mk) {
            assert_matches_oracle(name, &oracle, &run)?;
        }
    }
}
