//! Property-based executor equivalence: on random topologies with random
//! halting schedules, every driver of the round kernel — the
//! single-threaded driver on `Topology` and on a multi-shard
//! `ShardedTopology`, `ExecutionMode::Parallel`, the threaded driver
//! under **every transport backend** (in-process staging queues and the
//! wire-codec'd socket loopback), and the worker-process driver (worker
//! threads on a TCP mesh, paced by the coordinator) — must produce the
//! outputs, round counts and message accounting of an independent
//! reference loop.
//!
//! This is the engine contract stated in `dcme_congest::executor`: every
//! `Executor` is bit-for-bit equivalent (all metrics except wall-clock
//! phase timings and the backend-describing transport counters
//! `wire_bytes_sent` / `transport_flush_nanos`).  Since every driver runs
//! the same kernel, none of them can serve as the reference:
//! [`reference_run`] below is the synchronous round written out plainly,
//! sharing no code with the engine beyond the public model types.
//!
//! The topology builders get the same treatment: [`oracle_from_edges`] is
//! the plain `usize` CSR builder (hash-set duplicate check, binary-searched
//! reverse ports), and every generator, the sharded builds and the worker
//! slices must reproduce it port for port.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use dcme_baselines::degree_plus_one::{self, DegreePlusOneNode};
use dcme_baselines::ultrafast::{self, UltrafastNode};
use dcme_congest::transport::InProcessTransport;
use dcme_congest::{
    coordinate, serve_shard_with, CoordinateSpec, Entry, ExecutionMode, FaultPlan, FaultyTransport,
    InProcess, Inbox, MessageSize, NodeAlgorithm, NodeContext, Outbox, PortSlots, RecordingSink,
    RunMetrics, RunOutcome, ServeOptions, ShardPlan, ShardSliceTopology, ShardTopologyView,
    ShardedExecutor, ShardedTopology, Simulator, SimulatorConfig, SocketLoopback, Topology,
    TopologyError, TopologyView, TraceEvent, Transport, TransportBuilder, TransportError,
    TransportMessage, WireMessage, WorkerMesh,
};
use dcme_graphs::generators::{self, GraphFamily};
use dcme_graphs::{streaming, InducedSubgraph};

/// The reference CSR: rows sorted by neighbour id, as every topology of the
/// engine numbers its ports, built the plain way.
struct Oracle {
    offsets: Vec<usize>,
    adjacency: Vec<usize>,
    reverse_port: Vec<usize>,
    num_edges: usize,
}

/// Builds the [`Oracle`] of a valid edge list: a hash set rejects
/// duplicates, rows are filled by degree count and sorted, and each reverse
/// port is a binary search of the neighbour's row.
fn oracle_from_edges(n: usize, edges: &[(usize, usize)]) -> Oracle {
    let mut seen = HashSet::with_capacity(edges.len());
    for &(u, v) in edges {
        assert!(u < n && v < n && u != v, "invalid edge ({u}, {v})");
        assert!(
            seen.insert((u.min(v), u.max(v))),
            "duplicate edge ({u}, {v})"
        );
    }
    drop(seen);
    let mut offsets = vec![0; n + 1];
    for &(u, v) in edges {
        offsets[u + 1] += 1;
        offsets[v + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let mut adjacency = vec![0; 2 * edges.len()];
    let mut cursor = offsets[..n].to_vec();
    for &(u, v) in edges {
        adjacency[cursor[u]] = v;
        cursor[u] += 1;
        adjacency[cursor[v]] = u;
        cursor[v] += 1;
    }
    for v in 0..n {
        adjacency[offsets[v]..offsets[v + 1]].sort_unstable();
    }
    let mut reverse_port = vec![0; adjacency.len()];
    for v in 0..n {
        for i in offsets[v]..offsets[v + 1] {
            let u = adjacency[i];
            reverse_port[i] = adjacency[offsets[u]..offsets[u + 1]]
                .binary_search(&v)
                .expect("undirected edge must appear in both lists");
        }
    }
    let num_edges = edges.len();
    Oracle {
        offsets,
        adjacency,
        reverse_port,
        num_edges,
    }
}

impl Oracle {
    fn port_range(&self, v: usize) -> core::ops::Range<usize> {
        self.offsets[v]..self.offsets[v + 1]
    }

    /// The global slot a message `v` sends over port `p` lands in.
    fn dest_slot(&self, v: usize, p: usize) -> usize {
        let i = self.offsets[v] + p;
        self.offsets[self.adjacency[i]] + self.reverse_port[i]
    }

    /// Asserts `g` (with `num_edges` undirected edges) is the oracle's graph
    /// port for port: neighbours, reverse ports, destination slots, port
    /// ranges, edge count and maximum degree.
    fn assert_same(&self, name: &str, g: &impl TopologyView, num_edges: usize) {
        let n = self.offsets.len() - 1;
        assert_eq!(g.num_nodes(), n, "{name}: nodes");
        assert_eq!(num_edges, self.num_edges, "{name}: edges");
        assert_eq!(g.num_directed_edges(), 2 * self.num_edges, "{name}: slots");
        let max_degree = (0..n).map(|v| self.port_range(v).len()).max();
        assert_eq!(
            g.max_degree() as usize,
            max_degree.unwrap_or(0),
            "{name}: Δ"
        );
        for v in 0..n {
            assert_eq!(g.port_range(v), self.port_range(v), "{name}: v={v}");
            assert_eq!(g.dest_slots(v).len(), g.degree(v), "{name}: v={v}");
            for (p, i) in self.port_range(v).enumerate() {
                let want = self.dest_slot(v, p);
                assert_eq!(g.dest_slots(v)[p] as usize, want, "{name}: ({v}, {p})");
                assert_eq!(g.neighbor_at(v, p), self.adjacency[i], "{name}: ({v}, {p})");
                assert_eq!(
                    g.reverse_port(v, p),
                    self.reverse_port[i],
                    "{name}: ({v}, {p})"
                );
            }
        }
    }

    /// Asserts a sharded build is the oracle's graph, and that the rows the
    /// sharded drivers route through are its destination table.
    fn assert_same_sharded(&self, name: &str, g: &ShardedTopology) {
        self.assert_same(name, g, g.num_edges());
        for v in 0..TopologyView::num_nodes(g) {
            assert_eq!(g.dest_row(v), Some(g.dest_slots(v)), "{name}: v={v}");
            for p in 0..g.degree(v) {
                assert_eq!(
                    g.dest_slot(v, p),
                    self.dest_slot(v, p),
                    "{name}: ({v}, {p})"
                );
            }
        }
    }

    /// Asserts a worker slice routes every port of its shard as the oracle.
    fn assert_same_slice(&self, name: &str, slice: &ShardSliceTopology) {
        let s = slice.shard();
        for v in slice.shard_nodes(s) {
            assert_eq!(
                slice.port_range_from(s, v),
                self.port_range(v),
                "{name}: v={v}"
            );
            for p in 0..slice.degree_from(s, v) {
                let want = self.dest_slot(v, p);
                assert_eq!(slice.dest_slot_from(s, v, p), want, "{name}: ({v}, {p})");
            }
        }
    }
}

/// The edge list `generators::random_regular` had before the linear
/// builder: shuffled stub pairs, the first copy of each edge kept by a hash
/// set.
fn pairing_model_edges(n: usize, d: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat(v).take(d)).collect();
    stubs.shuffle(&mut rng);
    let mut seen = HashSet::new();
    (stubs.chunks_exact(2))
        .map(|pair| (pair[0].min(pair[1]), pair[0].max(pair[1])))
        .filter(|&(u, v)| u != v && seen.insert((u, v)))
        .collect()
}

/// The independent oracle: one untraced synchronous round loop.  Each
/// round every active node's outbox is staged, the staged messages are
/// delivered into the receiver's port at which the sender sits in its
/// sorted row (found by binary search, as [`oracle_from_edges`] finds it,
/// not read from the engine's destination table), every active node
/// receives, and halted nodes leave the active list.
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
    let rows: Vec<Vec<usize>> = (0..n)
        .map(|u| (0..g.degree(u)).map(|q| g.neighbor_at(u, q)).collect())
        .collect();
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
                let rp = rows[u]
                    .binary_search(&v)
                    .expect("v is in its neighbour's row");
                let slot = &mut slots[g.port_range(u).start + rp];
                assert!(slot.is_none(), "node {v} sent twice over port {p}");
                *slot = Some(m);
            }
        }
        for &v in &active {
            let mine = PortSlots::new(&slots[g.port_range(v)]);
            nodes[v].receive(&ctx(v, round), &Inbox::from_slots(&mine));
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

/// Asserts a sharded driver's split: one phase timing per shard, and every
/// message on exactly one side of a shard boundary (none across one shard).
fn assert_shard_split(m: &RunMetrics, shards: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(m.shard_phase_nanos.len(), shards, "shard timings");
    prop_assert_eq!(m.intra_shard_messages + m.cross_shard_messages, m.messages);
    if shards == 1 {
        prop_assert_eq!(m.cross_shard_messages, 0);
    }
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

/// Runs `mk()` with a round cap of `cap` on the worker-process driver: one
/// thread per shard standing in for a worker process, each building its
/// slice of `g` from the plan and serving it over a socketpair to the
/// coordinator and a TCP loopback mesh to the other workers.
fn remote_run<A: NodeAlgorithm>(
    g: &Topology,
    shards: usize,
    cap: u64,
    mk: impl Fn() -> Vec<A>,
) -> RunOutcome<A::Output>
where
    A::Output: WireMessage,
{
    let n = g.num_nodes();
    let stream = |emit: &mut dyn FnMut(usize, usize)| {
        for (u, v) in g.edges() {
            emit(u, v);
        }
    };
    let plan = ShardPlan::from_edge_stream(n, shards, stream).expect("a valid edge stream");
    let mut nodes = mk();
    let mut shares: Vec<Vec<A>> = (0..shards)
        .rev()
        .map(|s| nodes.split_off(plan.shard_nodes(s).start))
        .collect();
    shares.reverse();
    // Every mesh listener is bound before any worker dials.
    let listeners: Vec<std::net::TcpListener> = (0..shards)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind a mesh listener"))
        .collect();
    let peers: Vec<(u16, String)> = listeners
        .iter()
        .enumerate()
        .map(|(s, l)| (s as u16, l.local_addr().unwrap().to_string()))
        .collect();
    let (links, ends): (Vec<_>, Vec<_>) = (0..shards)
        .map(|_| std::os::unix::net::UnixStream::pair().expect("a socketpair"))
        .unzip();
    std::thread::scope(|scope| {
        let workers = ends.into_iter().zip(listeners).zip(shares).enumerate();
        for (shard, ((mut link, listener), nodes)) in workers {
            let (plan, peers) = (plan.clone(), &peers);
            scope.spawn(move || {
                let slice = ShardSliceTopology::build(plan, shard, stream).expect("slice build");
                let mesh = WorkerMesh::connect(shard as u16, shards, peers, &listener)
                    .expect("mesh connect");
                let opts = ServeOptions::default();
                serve_shard_with(&mut link, &slice, shard, nodes, mesh, &opts).expect("worker");
            });
        }
        let spec = CoordinateSpec {
            num_nodes: n,
            shards,
            max_rounds: cap,
            progress: false,
        };
        coordinate::<A::Output, _>(links, &spec).expect("coordinator")
    })
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

/// What a [`MixedSender`] does in one round.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Action {
    Silent,
    Broadcast,
    /// Distinct payloads on these ports.
    Ports(Vec<usize>),
}

/// SplitMix64 finalisers chained over `words`.
fn mix(words: [u64; 4]) -> u64 {
    words.iter().fold(0x9E37_79B9_7F4A_7C15, |h, &w| {
        let mut z = (h ^ w).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    })
}

/// The seeded action of node `v`, of degree `degree`, in `round`: silent,
/// a broadcast, or distinct payloads on a seeded subset of its ports.
fn action(seed: u64, v: usize, round: u64, degree: usize) -> Action {
    match mix([seed, v as u64, round, u64::MAX]) % 3 {
        0 => Action::Silent,
        1 => Action::Broadcast,
        _ => Action::Ports(
            (0..degree)
                .filter(|&p| mix([seed, v as u64, round, p as u64]) % 2 == 0)
                .collect(),
        ),
    }
}

/// A workload that sends both outbox kinds: each round a node takes its
/// seeded [`action`], so per-port messages and broadcasts cross the same
/// shard pair in one round.  Folds what it hears into a digest and halts
/// after `ttl` rounds, like [`ScheduledGossip`].
#[derive(Clone)]
struct MixedSender {
    seed: u64,
    inner: ScheduledGossip,
}

impl MixedSender {
    fn new(seed: u64, ttl: u64) -> Self {
        Self {
            seed,
            inner: ScheduledGossip::new(ttl),
        }
    }
}

impl NodeAlgorithm for MixedSender {
    type Message = u64;
    type Output = u64;

    fn init(&mut self, ctx: &NodeContext) {
        self.inner.init(ctx);
    }

    fn send(&mut self, ctx: &NodeContext) -> Outbox<u64> {
        match action(self.seed, ctx.node, ctx.round, ctx.degree) {
            Action::Silent => Outbox::Silent,
            Action::Broadcast => self.inner.send(ctx),
            Action::Ports(ports) => Outbox::PerPort(
                ports
                    .into_iter()
                    .map(|p| {
                        (
                            p,
                            mix([self.seed, self.inner.id, ctx.round, p as u64]) >> 40,
                        )
                    })
                    .collect(),
            ),
        }
    }

    fn receive(&mut self, ctx: &NodeContext, inbox: &Inbox<'_, u64>) {
        self.inner.receive(ctx, inbox);
    }

    fn is_halted(&self) -> bool {
        self.inner.is_halted()
    }

    fn output(&self) -> u64 {
        self.inner.output()
    }
}

/// Runs a [`MixedSender`] and folds every [`NodeContext`] field it is
/// handed, in `init`, `send` and `receive`, into its output: a driver that
/// derives a node's id, degree, `n`, Δ or round other than the reference
/// loop does changes the output.
#[derive(Clone)]
struct ContextEcho {
    inner: MixedSender,
    folded: u64,
}

impl ContextEcho {
    fn new(seed: u64, ttl: u64) -> Self {
        Self {
            inner: MixedSender::new(seed, ttl),
            folded: 0,
        }
    }

    /// Folds the context of one call of `step` (0 init, 1 send, 2 receive).
    fn fold(&mut self, step: u64, ctx: &NodeContext) {
        let fields = [
            ctx.node as u64,
            ctx.degree as u64,
            ctx.n as u64,
            u64::from(ctx.max_degree),
            ctx.round,
        ];
        for (i, field) in fields.into_iter().enumerate() {
            self.folded = mix([self.folded, step, i as u64, field]);
        }
    }
}

impl NodeAlgorithm for ContextEcho {
    type Message = u64;
    type Output = u64;

    fn init(&mut self, ctx: &NodeContext) {
        self.fold(0, ctx);
        self.inner.init(ctx);
    }

    fn send(&mut self, ctx: &NodeContext) -> Outbox<u64> {
        self.fold(1, ctx);
        self.inner.send(ctx)
    }

    fn receive(&mut self, ctx: &NodeContext, inbox: &Inbox<'_, u64>) {
        self.fold(2, ctx);
        self.inner.receive(ctx, inbox);
    }

    fn is_halted(&self) -> bool {
        self.inner.is_halted()
    }

    fn output(&self) -> u64 {
        self.folded ^ self.inner.output()
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

/// Entries one endpoint handled in one round, as `(broadcast, per-port)`
/// pairs: staged towards other shards, and drained from them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct EntryCounts {
    staged: (u64, u64),
    drained: (u64, u64),
}

/// [`InProcess`], with every endpoint logging its [`EntryCounts`] per round.
#[derive(Clone, Default)]
struct CountingInProcess {
    log: Arc<Mutex<BTreeMap<(u64, usize), EntryCounts>>>,
}

struct CountingEndpoint<M> {
    shard: usize,
    staged: (u64, u64),
    log: Arc<Mutex<BTreeMap<(u64, usize), EntryCounts>>>,
    inner: InProcessTransport<M>,
}

impl<M: TransportMessage> Transport<M> for CountingEndpoint<M> {
    fn stage(&mut self, to: usize, slot: u32, sender: u32, msg: M) {
        self.staged.1 += 1;
        self.inner.stage(to, slot, sender, msg);
    }

    fn stage_broadcast(&mut self, to: usize, sender: u32, msg: M, dests: &[u32]) {
        self.staged.0 += 1;
        self.inner.stage_broadcast(to, sender, msg, dests);
    }

    fn flush(&mut self, round: u64) -> u64 {
        let mut log = self.log.lock().unwrap();
        log.entry((round, self.shard)).or_default().staged = std::mem::take(&mut self.staged);
        self.inner.flush(round)
    }

    fn drain(&mut self, round: u64, sink: &mut dyn FnMut(Entry<M>)) -> Result<(), TransportError> {
        let mut drained = (0, 0);
        let result = self.inner.drain(round, &mut |entry| {
            match entry {
                Entry::Broadcast { .. } => drained.0 += 1,
                Entry::Port { .. } => drained.1 += 1,
            }
            sink(entry);
        });
        self.log
            .lock()
            .unwrap()
            .entry((round, self.shard))
            .or_default()
            .drained = drained;
        result
    }
}

impl TransportBuilder for CountingInProcess {
    type Transport<M: TransportMessage> = CountingEndpoint<M>;

    fn build<M: TransportMessage>(
        &self,
        topology: &ShardedTopology,
    ) -> std::io::Result<Vec<CountingEndpoint<M>>> {
        Ok(InProcess
            .build::<M>(topology)?
            .into_iter()
            .enumerate()
            .map(|(shard, inner)| CountingEndpoint {
                shard,
                staged: (0, 0),
                log: Arc::clone(&self.log),
                inner,
            })
            .collect())
    }
}

/// Runs `mk()` on `g` cut into `shards` under [`CountingInProcess`] and
/// asserts, per round and endpoint, one broadcast entry per broadcasting
/// sender and other shard among its neighbours and one per-port entry per
/// per-port message across the cut, both staged and drained; and that
/// outputs and logical counters, `cross_shard_messages` per edge included,
/// match the reference loop.  `act(v, round)` is node `v`'s action in a
/// round it is active, and `ttls[v]` its number of active rounds.
fn assert_one_entry_per_destination_shard<A: NodeAlgorithm<Output = u64>>(
    name: &str,
    g: &Topology,
    shards: usize,
    ttls: &[u64],
    mk: impl Fn() -> Vec<A>,
    act: impl Fn(usize, u64) -> Action,
) -> Result<(), TestCaseError> {
    let sharded = ShardedTopology::from_topology(g, shards).expect("shardable topology");
    let counting = CountingInProcess::default();
    let executor = ShardedExecutor::with_transport(counting.clone());
    let run = Simulator::new(&sharded).run_with_executor(mk(), &executor);
    assert_matches_oracle(name, &reference_run(g, mk(), 1_000_000), &run)?;

    let mut want = BTreeMap::new();
    let mut cross = 0;
    for round in 0..run.metrics.rounds {
        for s in 0..shards {
            want.insert((round, s), EntryCounts::default());
        }
        for v in (0..g.num_nodes()).filter(|&v| round < ttls[v]) {
            let from = sharded.shard_of(v);
            let shard_at = |p| sharded.shard_of(g.neighbor_at(v, p));
            let ports = match act(v, round) {
                Action::Silent => continue,
                Action::Broadcast => {
                    let others: BTreeSet<usize> = (0..g.degree(v))
                        .map(shard_at)
                        .filter(|&t| t != from)
                        .collect();
                    want.get_mut(&(round, from)).unwrap().staged.0 += others.len() as u64;
                    for t in others {
                        want.get_mut(&(round, t)).unwrap().drained.0 += 1;
                    }
                    (0..g.degree(v)).collect()
                }
                Action::Ports(ports) => {
                    for &p in &ports {
                        let t = shard_at(p);
                        if t != from {
                            want.get_mut(&(round, from)).unwrap().staged.1 += 1;
                            want.get_mut(&(round, t)).unwrap().drained.1 += 1;
                        }
                    }
                    ports
                }
            };
            cross += ports.into_iter().filter(|&p| shard_at(p) != from).count() as u64;
        }
    }
    let got = counting.log.lock().unwrap().clone();
    prop_assert_eq!(&got, &want, "{}: entries per round and endpoint", name);
    prop_assert_eq!(run.metrics.cross_shard_messages, cross, "{} cross", name);
    Ok(())
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
            if shard_count == 0 {
                prop_assert_eq!(m.shard_phase_nanos.len(), 0, "{} shards", name);
                prop_assert_eq!(m.intra_shard_messages + m.cross_shard_messages, 0);
            } else {
                assert_shard_split(m, shard_count)?;
            }
        }
        // Transport counters describe the backend: the in-memory queues
        // move no wire bytes; the socket mesh seals one frame per shard
        // pair per round, so any multi-shard round produces real bytes.
        let (inproc, sock) = (&runs[3].1.metrics, &runs[4].1.metrics);
        prop_assert_eq!(inproc.wire_bytes_sent, 0);
        prop_assert_eq!(sock.wire_bytes_sent > 0, shards > 1 && sock.rounds > 0);

        // The worker-process driver, with its shard split.
        let remote = remote_run(&g, shards, 1_000_000, mk);
        assert_matches_oracle("remote", &oracle, &remote)?;
        assert_shard_split(&remote.metrics, shards)?;

        // Per-port messages next to broadcasts: both entry kinds cross the
        // same shard pairs in one round, on every driver and transport.
        // Each node folds every context it is handed into its output, so a
        // driver must also derive each node's id, degree, `n`, Δ and round
        // as the reference loop does.
        let mixed = || ttls.iter().map(|&t| ContextEcho::new(ttl_seed, t)).collect::<Vec<_>>();
        let oracle = reference_run(&g, mixed(), 1_000_000);
        for (name, run) in &every_driver(&g, shards, threads, 1_000_000, mixed) {
            assert_matches_oracle(name, &oracle, run)?;
        }
        let remote = remote_run(&g, shards, 1_000_000, mixed);
        assert_matches_oracle("remote", &oracle, &remote)?;
        assert_shard_split(&remote.metrics, shards)?;
    }

    /// The in-process transport carries one entry per broadcasting sender
    /// and destination shard, and one per per-port message across the cut,
    /// on random graphs cut into one to six shards.
    #[test]
    fn broadcasts_stage_one_entry_per_destination_shard(
        family in 0usize..4,
        size in 8usize..80,
        graph_seed in 0u64..500,
        seed in 0u64..1000,
        shards in 1usize..7,
    ) {
        let g = build_graph(family, size, graph_seed);
        let ttls = schedule(g.num_nodes(), seed);
        let degree = |v| g.degree(v);
        assert_one_entry_per_destination_shard(
            "mixed",
            &g,
            shards,
            &ttls,
            || ttls.iter().map(|&t| MixedSender::new(seed, t)).collect::<Vec<_>>(),
            |v, round| action(seed, v, round, degree(v)),
        )?;
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

    /// Scale-out construction contract: the `Topology`, its sharded copy and
    /// that copy re-cut to another shard count are the oracle's graph,
    /// destination table included, and the coordinator's counting pass
    /// (`ShardPlan`) plus each worker's restricted single-shard build
    /// (`ShardSliceTopology`) reproduces it exactly — same plan, and per
    /// shard the same port ranges and destination rows — across random
    /// graph families and shard counts.  This is the invariant that lets
    /// mesh-mode workers rebuild only their own shard from the shared edge
    /// stream.
    #[test]
    fn restricted_shard_construction_matches_full_build(
        family in 0usize..4,
        size in 8usize..80,
        graph_seed in 0u64..500,
        shards in 1usize..6,
    ) {
        let g = build_graph(family, size, graph_seed);
        let full = ShardedTopology::from_topology(&g, shards).expect("shardable topology");
        let recut = ShardedTopology::from_topology(&full, shards % 5 + 1).expect("re-cut");
        let oracle = oracle_from_edges(g.num_nodes(), &g.edges().collect::<Vec<_>>());
        oracle.assert_same("topology", &g, g.num_edges());
        oracle.assert_same_sharded("full build", &full);
        oracle.assert_same_sharded("re-cut", &recut);
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
        cap in 0u64..6,
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
        assert_matches_oracle("remote", &oracle, &remote_run(&g, shards, cap, mk))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One error contract for every builder.  Self-loops, out-of-range
    /// endpoints and duplicates (either orientation) injected into a small
    /// random edge list make `Topology::from_edges` and
    /// `ShardedTopology::from_edge_stream` return the same `Result` — the
    /// first out-of-range endpoint or self-loop in stream order, otherwise
    /// the lexicographically smallest duplicated edge — and every worker
    /// slice reports the same out-of-range endpoint or self-loop.
    #[test]
    fn every_builder_reports_the_same_error(
        n in 3usize..12,
        graph_seed in 0u64..1_000_000,
        defects in 0usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(graph_seed);
        let mut clean = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                if rng.random_bool(0.3) {
                    clean.push(if rng.random_bool(0.5) { (u, v) } else { (v, u) });
                }
            }
        }
        clean.shuffle(&mut rng);
        let mut edges = clean.clone();
        for _ in 0..defects {
            let (a, far) = (rng.random_range(0..n), n + rng.random_range(0..3usize));
            let defect = match (rng.random_range(0..4usize), clean.is_empty()) {
                (0, _) | (3, true) => (a, a),
                (1, _) => (a, far),
                (2, _) => (far, a),
                _ => {
                    let (u, v) = clean[rng.random_range(0..clean.len())];
                    if rng.random_bool(0.5) { (u, v) } else { (v, u) }
                }
            };
            edges.insert(rng.random_range(0..edges.len() + 1), defect);
        }
        let stream = |emit: &mut dyn FnMut(usize, usize)| {
            for &(u, v) in &edges {
                emit(u, v);
            }
        };
        let dense = Topology::from_edges(n, &edges);
        for shards in 1..=3 {
            let sharded = ShardedTopology::from_edge_stream(n, shards, stream);
            match &dense {
                Ok(g) => prop_assert_eq!(sharded, ShardedTopology::from_topology(g, shards)),
                Err(e) => prop_assert_eq!(sharded.err(), Some(e.clone()), "{} shards", shards),
            }
            if let Err(e @ (TopologyError::NodeOutOfRange { .. } | TopologyError::SelfLoop(_))) =
                &dense
            {
                let plan = ShardPlan::from_edge_stream(n, shards, |emit| {
                    for &(u, v) in &clean {
                        emit(u, v);
                    }
                })
                .expect("plan of the clean edges");
                for s in 0..shards {
                    let slice = ShardSliceTopology::build(plan.clone(), s, stream);
                    prop_assert_eq!(slice.err(), Some(e.clone()), "slice {} of {}", s, shards);
                }
            }
        }
    }
}

/// The error contract on inputs with several defects: the first invalid
/// endpoint or self-loop in stream order wins, else the smallest duplicate.
/// Four shards of three nodes: node 0 reaches the first node of each other
/// shard, node 1 talks only to node 2 in its own shard, and node 11 is
/// isolated.  Every shard stages exactly the entries its senders owe.
#[test]
fn hand_built_cut_stages_one_entry_per_destination_shard() {
    let edges = [
        (0, 3),
        (0, 6),
        (0, 9),
        (1, 2),
        (3, 4),
        (4, 5),
        (6, 7),
        (7, 8),
        (9, 10),
    ];
    let g = Topology::from_edges(12, &edges).unwrap();
    let sharded = ShardedTopology::from_topology(&g, 4).unwrap();
    let layout: Vec<_> = (0..4).map(|s| sharded.shard_nodes(s)).collect();
    assert_eq!(layout, [0..3, 3..6, 6..9, 9..12]);
    let shards_of = |v: usize| -> BTreeSet<usize> {
        let row = sharded.dest_row(v).unwrap();
        row.iter()
            .map(|&slot| sharded.shard_of_slot(slot as usize))
            .collect()
    };
    assert_eq!(shards_of(0), BTreeSet::from([1, 2, 3]));
    assert_eq!(shards_of(1), BTreeSet::from([0]));
    assert!(shards_of(11).is_empty());

    let ttls = [4; 12];
    assert_one_entry_per_destination_shard(
        "hand-built broadcasts",
        &g,
        4,
        &ttls,
        || (0..12).map(|_| ScheduledGossip::new(4)).collect::<Vec<_>>(),
        |_, _| Action::Broadcast,
    )
    .unwrap();
    for seed in 0..16 {
        assert_one_entry_per_destination_shard(
            "hand-built mixed",
            &g,
            4,
            &ttls,
            || {
                (0..12)
                    .map(|_| MixedSender::new(seed, 4))
                    .collect::<Vec<_>>()
            },
            |v, round| action(seed, v, round, g.degree(v)),
        )
        .unwrap();
    }
}

#[test]
fn inputs_with_several_defects_report_the_same_error() {
    let cases = [
        (
            5,
            vec![(3, 4), (3, 4), (0, 1), (1, 0)],
            TopologyError::DuplicateEdge(0, 1),
        ),
        (6, vec![(0, 1), (1, 0), (5, 5)], TopologyError::SelfLoop(5)),
        (
            6,
            vec![(0, 1), (1, 0), (2, 9)],
            TopologyError::NodeOutOfRange { node: 9, n: 6 },
        ),
    ];
    for (n, edges, want) in cases {
        assert_eq!(Topology::from_edges(n, &edges).err(), Some(want.clone()));
        for shards in 1..=3 {
            let stream = |emit: &mut dyn FnMut(usize, usize)| {
                edges.iter().for_each(|&(u, v)| emit(u, v));
            };
            let got = ShardedTopology::from_edge_stream(n, shards, stream).err();
            assert_eq!(got, Some(want.clone()), "{shards} shards");
        }
    }
}

proptest! {
    /// `random_regular` is the pairing model replayed independently, port
    /// for port, at any size, degree and seed: the drawn degree (odd `n·d`
    /// leaves one stub unpaired) and the densest one, `d = n − 1`.
    #[test]
    fn random_regular_is_the_pairing_model(
        n in 2usize..121,
        d in 1usize..n,
        seed in 0u64..u64::MAX,
    ) {
        for d in [d, n - 1] {
            let g = generators::random_regular(n, d, seed);
            let name = format!("random_regular({n}, {d}, {seed})");
            oracle_from_edges(n, &pairing_model_edges(n, d, seed)).assert_same(
                &name,
                &g,
                g.num_edges(),
            );
        }
    }
}

/// Every generator family at two sizes and seeds, `delta1-seq`'s inputs, a
/// power graph and an induced subgraph are, port for port, the oracle's
/// build of their edges.  `random_regular` is checked against its pairing
/// model replayed independently, the derived graphs against edge sets
/// found from the oracle's rows.
#[test]
fn every_generator_matches_the_oracle() {
    for (size, seed) in [(40usize, 3u64), (300, 11)] {
        let families = [
            GraphFamily::Ring { n: size },
            GraphFamily::Path { n: size },
            GraphFamily::Complete { n: size / 8 + 3 },
            GraphFamily::CompleteBipartite {
                a: size / 10 + 1,
                b: size / 6 + 2,
            },
            GraphFamily::Grid {
                w: size / 10 + 2,
                h: 7,
                wrap: size > 100,
            },
            GraphFamily::DisjointCliques {
                count: 3,
                size: size / 20 + 3,
            },
            GraphFamily::Caterpillar {
                spine: size / 4,
                legs: 3,
            },
            GraphFamily::Gnp {
                n: size,
                p: 0.1,
                seed,
            },
            GraphFamily::RandomRegular {
                n: size,
                d: 6,
                seed,
            },
            GraphFamily::RandomTree { n: size, seed },
            GraphFamily::BarabasiAlbert {
                n: size,
                m: 3,
                seed,
            },
        ];
        for family in families {
            let g = family.build();
            let edges = match family {
                GraphFamily::RandomRegular { n, d, seed } => pairing_model_edges(n, d, seed),
                _ => g.edges().collect(),
            };
            oracle_from_edges(g.num_nodes(), &edges).assert_same(&family.name(), &g, g.num_edges());
        }
    }
    for seed in [17, 23] {
        let g = generators::random_regular(20_000, 16, seed);
        let name = format!("random_regular(20000, 16, {seed})");
        oracle_from_edges(20_000, &pairing_model_edges(20_000, 16, seed)).assert_same(
            &name,
            &g,
            g.num_edges(),
        );
    }

    let g = generators::random_regular(300, 4, 5);
    let base = oracle_from_edges(300, &g.edges().collect::<Vec<_>>());
    let row = |v: usize| &base.adjacency[base.port_range(v)];
    let mut square = BTreeSet::new();
    for v in 0..300 {
        for &u in row(v) {
            for &w in std::iter::once(&u).chain(row(u)) {
                if v < w {
                    square.insert((v, w));
                }
            }
        }
    }
    let g2 = g.power(2);
    let square: Vec<_> = square.into_iter().collect();
    oracle_from_edges(300, &square).assert_same("power(2)", &g2, g2.num_edges());

    let picked: Vec<usize> = (0..300).filter(|v| v % 3 != 1).collect();
    let index = |v: usize| picked.binary_search(&v).ok();
    let mut induced = Vec::new();
    for (i, &v) in picked.iter().enumerate() {
        induced.extend(
            row(v)
                .iter()
                .filter_map(|&u| index(u))
                .filter(|&j| i < j)
                .map(|j| (i, j)),
        );
    }
    let sub = InducedSubgraph::extract(&g, &picked);
    oracle_from_edges(picked.len(), &induced).assert_same(
        "induced",
        &sub.topology,
        sub.topology.num_edges(),
    );
}

/// The benchmark's inputs at full scale, destination tables included:
/// `hnt-threads2`'s graphs, their two-shard copies and those re-cut to
/// three shards, and both worker slices of `gossip-mesh2`'s circulant
/// (graph seed 7).  The benchmark pins rounds, messages and colors, which
/// would not notice permuted ports; this does.
#[test]
#[ignore = "benchmark scale; CI runs it in release"]
fn benchmark_inputs_match_the_oracle() {
    let n = 200_000;
    for seed in [71, 89] {
        let g = generators::random_regular(n, 16, seed);
        let oracle = oracle_from_edges(n, &pairing_model_edges(n, 16, seed));
        let name = format!("random_regular({n}, 16, {seed})");
        oracle.assert_same(&name, &g, g.num_edges());
        let sharded = ShardedTopology::from_topology(&g, 2).expect("shardable topology");
        oracle.assert_same_sharded(&format!("{name} in 2 shards"), &sharded);
        let recut = ShardedTopology::from_topology(&sharded, 3).expect("re-cut");
        oracle.assert_same_sharded(&format!("{name} re-cut to 3 shards"), &recut);
    }

    let n = 2_000_000;
    let stream = streaming::random_regular_stream(n, 4, 7);
    let mut edges = Vec::new();
    stream.clone()(&mut |u, v| edges.push((u, v)));
    let oracle = oracle_from_edges(n, &edges);
    drop(edges);
    let plan = ShardPlan::from_edge_stream(n, 2, stream.clone()).expect("plan");
    for shard in 0..2 {
        let slice = ShardSliceTopology::build(plan.clone(), shard, stream.clone()).expect("slice");
        oracle.assert_same_slice(&format!("circulant4 slice {shard}"), &slice);
    }
}
