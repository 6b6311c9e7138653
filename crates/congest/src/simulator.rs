//! The synchronous round engine.
//!
//! [`Simulator::run`] drives a vector of per-node state machines (one
//! [`NodeAlgorithm`] instance per vertex) through synchronous rounds until
//! every node has halted or a configurable round cap is reached.  The round
//! loop itself is delegated to an [`Executor`]; every executor runs the same
//! round kernel (see [`crate::executor`]), so the choice changes only how
//! many threads share the work:
//!
//! * [`ExecutionMode::Sequential`] → [`SequentialExecutor`]: one kernel over
//!   the whole graph on the calling thread.
//! * [`ExecutionMode::Parallel`] → [`ShardedExecutor`]: the graph is split
//!   into `threads` shards and each shard's kernel runs on its own thread.
//!   Because a round's sends depend only on state from the previous round
//!   and receives only touch node-local state, the result is bit-for-bit
//!   identical to the sequential run (asserted by unit and integration
//!   tests).
//! * [`Simulator::run_with_executor`] takes an explicit strategy, e.g. a
//!   [`ShardedExecutor`] over a socket transport on a
//!   [`ShardedTopology`] the caller built.
//!
//! The engine also performs CONGEST accounting: every transmitted message is
//! charged its [`crate::MessageSize::bit_size`] — including messages addressed to
//! halted receivers, which discard them; see [`crate::algorithm`] for the
//! accounting semantics — and the largest message of the run is reported in
//! [`RunMetrics::max_message_bits`].  Per-phase wall-clock totals are
//! reported in [`RunMetrics::phase_nanos`].
//!
//! Rounds are barrier-synchronous by default.  A sharded run can relax
//! this with [`crate::executor::DeliveryMode::Async`], under which late
//! (delayed or duplicated) cross-shard messages from a
//! [`crate::faults::FaultyTransport`] are accepted newest-wins instead of
//! panicking; algorithms opt in via
//! [`NodeAlgorithm::tolerates_async_delivery`].  See [`crate::faults`] for
//! the fault model and [`crate::mc`] for the exhaustive schedule explorer
//! built on the same semantics.

use crate::algorithm::{NodeAlgorithm, NodeContext};
use crate::executor::{Executor, SequentialExecutor, ShardedExecutor};
use crate::metrics::RunMetrics;
use crate::sharded::ShardedTopology;
use crate::topology::{Topology, TopologyView};
use crate::trace::{NoTrace, TraceSink};

/// How rounds are executed.
///
/// This is the declarative configuration surface; each variant maps to an
/// [`Executor`] implementation (`Sequential` → [`SequentialExecutor`],
/// `Parallel` → [`ShardedExecutor`] on a `threads`-shard
/// [`ShardedTopology`]).  Use [`Simulator::run_with_executor`] to supply a
/// custom strategy directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Process nodes one after another on the calling thread.
    #[default]
    Sequential,
    /// Split the graph into `threads` shards and process each on its own
    /// thread.  The shard topology is built from the simulator's view at
    /// the start of every run.
    Parallel {
        /// Number of shard threads (at least 1).
        threads: usize,
    },
}

/// Configuration of a simulator run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimulatorConfig {
    /// Hard cap on the number of rounds; prevents runaway algorithms.
    pub max_rounds: u64,
    /// Executor selection.
    pub mode: ExecutionMode,
}

impl Default for SimulatorConfig {
    fn default() -> Self {
        Self {
            max_rounds: 1_000_000,
            mode: ExecutionMode::Sequential,
        }
    }
}

/// The result of a run: one output per node plus the run metrics.
#[derive(Debug, Clone)]
pub struct RunOutcome<O> {
    /// Per-node outputs, indexed by node id.
    pub outputs: Vec<O>,
    /// Round/message/bit accounting.
    pub metrics: RunMetrics,
}

/// The synchronous round engine for a fixed topology.
///
/// Generic over the topology representation: the default `T = Topology` is
/// the single-arena CSR; pass a
/// [`ShardedTopology`] to run on the node-range sharded representation (any
/// executor works on it; the [`ShardedExecutor`] additionally exploits the
/// shard layout via [`Simulator::run_with_executor`]).
pub struct Simulator<'a, T: TopologyView = Topology> {
    topology: &'a T,
    config: SimulatorConfig,
    tracer: &'a dyn TraceSink,
}

impl<'a, T: TopologyView> Simulator<'a, T> {
    /// Creates a simulator with the default (sequential) configuration.
    pub fn new(topology: &'a T) -> Self {
        Self {
            topology,
            config: SimulatorConfig::default(),
            tracer: &NoTrace,
        }
    }

    /// Creates a simulator with an explicit configuration.
    pub fn with_config(topology: &'a T, config: SimulatorConfig) -> Self {
        Self {
            topology,
            config,
            tracer: &NoTrace,
        }
    }

    /// Attaches a [`TraceSink`] that receives out-of-band trace events from
    /// every run started on this simulator.
    ///
    /// Tracing never changes outputs or metrics; the default [`NoTrace`]
    /// sink is zero-cost on the hot path.
    pub fn with_tracer(mut self, tracer: &'a dyn TraceSink) -> Self {
        self.tracer = tracer;
        self
    }

    /// The topology this simulator runs on.
    pub fn topology(&self) -> &T {
        self.topology
    }

    /// Runs the algorithm to completion (or to the round cap) with the
    /// executor selected by the configuration's [`ExecutionMode`].
    ///
    /// `nodes` must contain exactly one state machine per vertex, indexed by
    /// node id.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the number of vertices, or if an
    /// algorithm violates the port contract (sends on a nonexistent port, or
    /// twice over the same port in one round).  In
    /// [`ExecutionMode::Parallel`], also panics if the graph exceeds the
    /// `u32` indices of [`ShardedTopology`].
    pub fn run<A: NodeAlgorithm>(&self, nodes: Vec<A>) -> RunOutcome<A::Output> {
        match self.config.mode {
            ExecutionMode::Sequential => self.run_with_executor(nodes, &SequentialExecutor),
            ExecutionMode::Parallel { threads } => {
                let sharded = ShardedTopology::from_topology(self.topology, threads.max(1))
                    .unwrap_or_else(|e| {
                        panic!("cannot shard the graph for {threads} threads: {e}")
                    });
                Simulator {
                    topology: &sharded,
                    config: self.config,
                    tracer: self.tracer,
                }
                .run_with_executor(nodes, &ShardedExecutor::new())
            }
        }
    }

    /// Runs the algorithm under an explicit [`Executor`] strategy.
    ///
    /// This is the seam execution backends plug into without touching
    /// [`Simulator::run`] callers — a [`ShardedExecutor`] over an explicit
    /// transport is driven this way (it implements
    /// `Executor<ShardedTopology>` only).  The
    /// configuration's [`ExecutionMode`] is ignored; its `max_rounds` still
    /// applies.
    ///
    /// # Panics
    ///
    /// Same contract as [`Simulator::run`].
    pub fn run_with_executor<A: NodeAlgorithm, E: Executor<T>>(
        &self,
        mut nodes: Vec<A>,
        executor: &E,
    ) -> RunOutcome<A::Output> {
        let n = self.topology.num_nodes();
        assert_eq!(
            nodes.len(),
            n,
            "need exactly one algorithm instance per node"
        );

        let max_degree = self.topology.max_degree();
        for (v, node) in nodes.iter_mut().enumerate() {
            node.init(&NodeContext {
                node: v,
                degree: self.topology.degree(v),
                n,
                max_degree,
                round: 0,
            });
        }

        let mut metrics = RunMetrics::default();
        executor.drive(
            self.topology,
            &mut nodes,
            self.config.max_rounds,
            &mut metrics,
            self.tracer,
        );

        let outputs = nodes.iter().map(|a| a.output()).collect();
        RunOutcome { outputs, metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{Inbox, Outbox};
    use crate::topology::Topology;

    /// A toy algorithm: every node broadcasts its id for `ttl` rounds and
    /// records the sum of everything it heard, then halts.
    #[derive(Debug, Clone)]
    struct GossipSum {
        id: u64,
        ttl: u64,
        heard: u64,
        rounds_done: u64,
    }

    impl GossipSum {
        fn new(ttl: u64) -> Self {
            Self {
                id: 0,
                ttl,
                heard: 0,
                rounds_done: 0,
            }
        }
    }

    impl NodeAlgorithm for GossipSum {
        type Message = u64;
        type Output = u64;

        fn init(&mut self, ctx: &NodeContext) {
            self.id = ctx.node as u64;
        }

        fn send(&mut self, _ctx: &NodeContext) -> Outbox<u64> {
            Outbox::Broadcast(self.id)
        }

        fn receive(&mut self, _ctx: &NodeContext, inbox: &Inbox<'_, u64>) {
            for (_, m) in inbox.iter() {
                self.heard += *m;
            }
            self.rounds_done += 1;
        }

        fn is_halted(&self) -> bool {
            self.rounds_done >= self.ttl
        }

        fn output(&self) -> u64 {
            self.heard
        }
    }

    fn triangle() -> Topology {
        Topology::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    fn parallel_config(threads: usize) -> SimulatorConfig {
        SimulatorConfig {
            max_rounds: 1_000_000,
            mode: ExecutionMode::Parallel { threads },
        }
    }

    /// Asserts bit-for-bit equivalence of the sequential run, the
    /// `Parallel { threads }` run and explicit sharded runs (shard counts
    /// 1–3) on one workload.
    fn assert_equivalent(g: &Topology, ttls: &[u64], threads: usize) {
        let mk = |n: usize, ttls: &[u64]| -> Vec<GossipSum> {
            (0..n).map(|v| GossipSum::new(ttls[v])).collect()
        };
        let n = g.num_nodes();
        let seq = Simulator::new(g).run(mk(n, ttls));
        let par = Simulator::with_config(g, parallel_config(threads)).run(mk(n, ttls));
        assert_eq!(seq.outputs, par.outputs, "threads={threads}");
        assert_eq!(seq.metrics.rounds, par.metrics.rounds);
        assert_eq!(seq.metrics.messages, par.metrics.messages);
        assert_eq!(seq.metrics.total_bits, par.metrics.total_bits);
        assert_eq!(seq.metrics.max_message_bits, par.metrics.max_message_bits);
        assert_eq!(seq.metrics.active_per_round, par.metrics.active_per_round);
        assert_eq!(seq.metrics.hit_round_cap, par.metrics.hit_round_cap);
        // `Parallel` runs one shard thread per requested thread.
        assert_eq!(par.metrics.shard_phase_nanos.len(), threads.max(1));
        for shards in [1, 2, 3] {
            let sg = crate::sharded::ShardedTopology::from_topology(g, shards).unwrap();
            let out = Simulator::new(&sg)
                .run_with_executor(mk(n, ttls), &crate::executor::ShardedExecutor::new());
            assert_eq!(seq.outputs, out.outputs, "shards={shards}");
            assert_eq!(seq.metrics.rounds, out.metrics.rounds, "shards={shards}");
            assert_eq!(seq.metrics.messages, out.metrics.messages);
            assert_eq!(seq.metrics.total_bits, out.metrics.total_bits);
            assert_eq!(seq.metrics.max_message_bits, out.metrics.max_message_bits);
            assert_eq!(seq.metrics.active_per_round, out.metrics.active_per_round);
            assert_eq!(seq.metrics.hit_round_cap, out.metrics.hit_round_cap);
            // The sharded executor fully attributes every message.
            assert_eq!(
                out.metrics.intra_shard_messages + out.metrics.cross_shard_messages,
                out.metrics.messages,
                "shards={shards}"
            );
            assert_eq!(out.metrics.shard_phase_nanos.len(), shards);
            if shards == 1 {
                assert_eq!(out.metrics.cross_shard_messages, 0);
            }
        }
    }

    #[test]
    fn gossip_on_triangle_counts_rounds_and_messages() {
        let g = triangle();
        let sim = Simulator::new(&g);
        let nodes: Vec<GossipSum> = (0..3).map(|_| GossipSum::new(2)).collect();
        let outcome = sim.run(nodes);
        assert_eq!(outcome.metrics.rounds, 2);
        // Each round every node broadcasts to 2 neighbours: 6 messages/round.
        assert_eq!(outcome.metrics.messages, 12);
        assert!(!outcome.metrics.hit_round_cap);
        // Node v hears both neighbours each of the 2 rounds: node 0 hears
        // ids 1 and 2, node 1 hears 0 and 2, node 2 hears 0 and 1.
        assert_eq!(outcome.outputs[0], 6);
        assert_eq!(outcome.outputs[1], 4);
        assert_eq!(outcome.outputs[2], 2);
        assert_eq!(outcome.metrics.active_per_round, vec![3, 3]);
    }

    #[test]
    fn round_cap_is_respected() {
        let g = triangle();
        let sim = Simulator::with_config(
            &g,
            SimulatorConfig {
                max_rounds: 3,
                mode: ExecutionMode::Sequential,
            },
        );
        let nodes: Vec<GossipSum> = (0..3).map(|_| GossipSum::new(u64::MAX)).collect();
        let outcome = sim.run(nodes);
        assert_eq!(outcome.metrics.rounds, 3);
        assert!(outcome.metrics.hit_round_cap);
    }

    #[test]
    fn round_cap_is_respected_by_the_pool() {
        let g = triangle();
        let sim = Simulator::with_config(
            &g,
            SimulatorConfig {
                max_rounds: 3,
                mode: ExecutionMode::Parallel { threads: 2 },
            },
        );
        let nodes: Vec<GossipSum> = (0..3).map(|_| GossipSum::new(u64::MAX)).collect();
        let outcome = sim.run(nodes);
        assert_eq!(outcome.metrics.rounds, 3);
        assert!(outcome.metrics.hit_round_cap);
    }

    #[test]
    fn parallel_matches_sequential() {
        // Ring of 64 nodes, uniform ttl.
        let n = 64;
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = Topology::from_edges(n, &edges).unwrap();
        assert_equivalent(&g, &vec![5; n], 4);
    }

    #[test]
    fn pool_handles_staggered_halting() {
        // Nodes halt at staggered rounds, exercising active-set compaction
        // in every shard.
        let n = 61; // prime, so shards cut across the ttl pattern
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = Topology::from_edges(n, &edges).unwrap();
        let ttls: Vec<u64> = (0..n).map(|v| 1 + (v as u64 * 7) % 13).collect();
        for threads in [1, 2, 3, 8] {
            assert_equivalent(&g, &ttls, threads);
        }
        // The drain is really visible in the metrics: active counts strictly
        // shrink to the max ttl.
        let seq =
            Simulator::new(&g).run((0..n).map(|v| GossipSum::new(ttls[v])).collect::<Vec<_>>());
        assert_eq!(seq.metrics.rounds, 13);
        assert_eq!(seq.metrics.active_per_round.len(), 13);
        assert!(seq
            .metrics
            .active_per_round
            .windows(2)
            .all(|w| w[1] <= w[0]));
        assert!(*seq.metrics.active_per_round.last().unwrap() < n);
    }

    #[test]
    fn pool_with_more_threads_than_nodes() {
        let g = triangle();
        assert_equivalent(&g, &[2, 2, 2], 16);
    }

    #[test]
    fn pool_with_one_thread() {
        let n = 10;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = Topology::from_edges(n, &edges).unwrap();
        assert_equivalent(&g, &vec![3; n], 1);
    }

    #[test]
    fn pool_on_empty_graph() {
        let g = Topology::from_edges(0, &[]).unwrap();
        let outcome = Simulator::with_config(&g, parallel_config(4)).run(Vec::<GossipSum>::new());
        assert_eq!(outcome.metrics.rounds, 0);
        assert_eq!(outcome.metrics.messages, 0);
        assert!(outcome.outputs.is_empty());
    }

    #[test]
    fn pool_on_edgeless_graph() {
        // Nodes but no edges: every node runs its rounds hearing nothing.
        let g = Topology::from_edges(5, &[]).unwrap();
        assert_equivalent(&g, &[1, 2, 3, 4, 5], 2);
    }

    #[test]
    fn zero_round_algorithm_terminates_immediately() {
        #[derive(Clone)]
        struct Immediate;
        impl NodeAlgorithm for Immediate {
            type Message = u64;
            type Output = ();
            fn init(&mut self, _ctx: &NodeContext) {}
            fn send(&mut self, _ctx: &NodeContext) -> Outbox<u64> {
                Outbox::Silent
            }
            fn receive(&mut self, _ctx: &NodeContext, _inbox: &Inbox<'_, u64>) {}
            fn is_halted(&self) -> bool {
                true
            }
            fn output(&self) {}
        }
        let g = triangle();
        for config in [SimulatorConfig::default(), parallel_config(2)] {
            let outcome =
                Simulator::with_config(&g, config).run(vec![Immediate, Immediate, Immediate]);
            assert_eq!(outcome.metrics.rounds, 0);
            assert_eq!(outcome.metrics.messages, 0);
        }
    }

    #[test]
    #[should_panic(expected = "one algorithm instance per node")]
    fn mismatched_node_count_panics() {
        let g = triangle();
        let _ = Simulator::new(&g).run(vec![GossipSum::new(1)]);
    }

    #[test]
    fn messages_to_halted_nodes_are_charged_but_discarded() {
        // Path 0 - 1.  Node 0 halts after 1 round; node 1 keeps broadcasting
        // for 3 rounds.  The CONGEST accounting charges node 1's later
        // messages (the wire is used) but node 0's state stays frozen.
        let g = Topology::from_edges(2, &[(0, 1)]).unwrap();
        for config in [SimulatorConfig::default(), parallel_config(2)] {
            let outcome =
                Simulator::with_config(&g, config).run(vec![GossipSum::new(1), GossipSum::new(3)]);
            assert_eq!(outcome.metrics.rounds, 3);
            // Round 0: both broadcast (2 messages).  Rounds 1 and 2: only
            // node 1 broadcasts, to the now-halted node 0 (1 message each) —
            // charged, per the documented semantics.
            assert_eq!(outcome.metrics.messages, 4);
            // Node 0 heard node 1 exactly once (round 0) and discarded the
            // rest; node 1 heard node 0 exactly once (round 0, before the
            // halt took effect for the next round).
            assert_eq!(outcome.outputs[0], 1);
            assert_eq!(outcome.outputs[1], 0);
            assert_eq!(outcome.metrics.active_per_round, vec![2, 1, 1]);
        }
    }

    #[test]
    fn per_port_messages_are_routed_correctly() {
        /// Sends its id only on port 0 for one round; records what it heard.
        #[derive(Clone)]
        struct PortZero {
            id: u64,
            heard: Vec<(usize, u64)>,
            done: bool,
        }
        impl NodeAlgorithm for PortZero {
            type Message = u64;
            type Output = Vec<(usize, u64)>;
            fn init(&mut self, ctx: &NodeContext) {
                self.id = ctx.node as u64;
            }
            fn send(&mut self, ctx: &NodeContext) -> Outbox<u64> {
                if ctx.degree > 0 {
                    Outbox::PerPort(vec![(0, self.id)])
                } else {
                    Outbox::Silent
                }
            }
            fn receive(&mut self, _ctx: &NodeContext, inbox: &Inbox<'_, u64>) {
                self.heard = inbox.iter().map(|(p, m)| (p, *m)).collect();
                self.done = true;
            }
            fn is_halted(&self) -> bool {
                self.done
            }
            fn output(&self) -> Vec<(usize, u64)> {
                self.heard.clone()
            }
        }

        // Path 0 - 1 - 2.  Port 0 of node 0 is node 1; port 0 of node 1 is
        // node 0; port 0 of node 2 is node 1.
        let g = Topology::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let nodes = (0..3)
            .map(|_| PortZero {
                id: 0,
                heard: vec![],
                done: false,
            })
            .collect::<Vec<_>>();
        let outcome = Simulator::new(&g).run(nodes);
        // Node 1 hears node 0 on port 0 and node 2 on port 1.
        assert_eq!(outcome.outputs[1], vec![(0, 0), (1, 2)]);
        // Node 0 hears node 1 (which sent only on its port 0, towards node 0).
        assert_eq!(outcome.outputs[0], vec![(0, 1)]);
        // Node 2 hears nothing: node 1's port 0 points to node 0.
        assert_eq!(outcome.outputs[2], vec![]);
    }

    /// Broadcasts twice over the same port in one round — a CONGEST model
    /// violation the engine must reject.
    #[derive(Clone)]
    struct DoubleSend;
    impl NodeAlgorithm for DoubleSend {
        type Message = u64;
        type Output = ();
        fn init(&mut self, _ctx: &NodeContext) {}
        fn send(&mut self, _ctx: &NodeContext) -> Outbox<u64> {
            Outbox::PerPort(vec![(0, 1), (0, 2)])
        }
        fn receive(&mut self, _ctx: &NodeContext, _inbox: &Inbox<'_, u64>) {}
        fn is_halted(&self) -> bool {
            false
        }
        fn output(&self) {}
    }

    #[test]
    #[should_panic(expected = "two messages over the same port")]
    fn duplicate_port_send_is_rejected() {
        let g = Topology::from_edges(2, &[(0, 1)]).unwrap();
        let _ = Simulator::new(&g).run(vec![DoubleSend, DoubleSend]);
    }

    /// Panics in `send` at round 1 on one node; the threaded driver must
    /// propagate the panic instead of deadlocking at a barrier.
    #[derive(Clone)]
    struct PanicsAtRoundOne;
    impl NodeAlgorithm for PanicsAtRoundOne {
        type Message = u64;
        type Output = ();
        fn init(&mut self, _ctx: &NodeContext) {}
        fn send(&mut self, ctx: &NodeContext) -> Outbox<u64> {
            if ctx.round == 1 && ctx.node == 2 {
                panic!("algorithm exploded");
            }
            Outbox::Broadcast(ctx.node as u64)
        }
        fn receive(&mut self, _ctx: &NodeContext, _inbox: &Inbox<'_, u64>) {}
        fn is_halted(&self) -> bool {
            false
        }
        fn output(&self) {}
    }

    #[test]
    #[should_panic(expected = "algorithm exploded")]
    fn pool_propagates_algorithm_panics() {
        let n = 8;
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = Topology::from_edges(n, &edges).unwrap();
        let _ = Simulator::with_config(&g, parallel_config(3))
            .run((0..n).map(|_| PanicsAtRoundOne).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "two messages over the same port")]
    fn pool_propagates_delivery_panics() {
        let g = Topology::from_edges(2, &[(0, 1)]).unwrap();
        let _ = Simulator::with_config(&g, parallel_config(2)).run(vec![DoubleSend, DoubleSend]);
    }

    #[test]
    fn phase_timings_are_recorded() {
        use crate::trace::{RecordingSink, TraceEvent, TracePhase};
        let g = triangle();
        for config in [SimulatorConfig::default(), parallel_config(2)] {
            let sink = RecordingSink::new();
            let outcome = Simulator::with_config(&g, config)
                .with_tracer(&sink)
                .run((0..3).map(|_| GossipSum::new(50)).collect::<Vec<_>>());
            let p = outcome.metrics.phase_nanos;
            // 50 rounds of real work: each phase must have accumulated time.
            assert!(p.send > 0 && p.receive > 0);
            assert!(p.total() >= p.send);
            if config.mode == ExecutionMode::Sequential {
                // One shard drains nothing, so its deliver phase is two
                // back-to-back clock reads, which a coarse clock can make
                // equal; it must still be entered and timed every round.
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
                assert_eq!(delivers.count() as u64, outcome.metrics.rounds);
            } else {
                assert!(p.deliver > 0);
            }
        }
    }

    #[test]
    fn sharded_round_cap_and_empty_graph() {
        use crate::executor::ShardedExecutor;
        use crate::sharded::ShardedTopology;
        let g = ShardedTopology::from_topology(&triangle(), 2).unwrap();
        let sim = Simulator::with_config(
            &g,
            SimulatorConfig {
                max_rounds: 3,
                mode: ExecutionMode::Sequential, // ignored by the seam
            },
        );
        let out = sim.run_with_executor(
            (0..3).map(|_| GossipSum::new(u64::MAX)).collect::<Vec<_>>(),
            &ShardedExecutor::new(),
        );
        assert_eq!(out.metrics.rounds, 3);
        assert!(out.metrics.hit_round_cap);

        let empty = ShardedTopology::from_edge_stream(0, 3, |_| {}).unwrap();
        let out = Simulator::new(&empty)
            .run_with_executor(Vec::<GossipSum>::new(), &ShardedExecutor::new());
        assert_eq!(out.metrics.rounds, 0);
        assert!(out.outputs.is_empty());
    }

    #[test]
    fn sharded_attributes_cross_vs_intra_messages() {
        use crate::executor::ShardedExecutor;
        use crate::sharded::ShardedTopology;
        // A 6-ring in 2 shards of 3 nodes: per round, each shard's interior
        // node talks only intra-shard, the two border nodes each send one
        // message across — 4 cross + 8 intra per round.
        let n = 6;
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let dense = Topology::from_edges(n, &edges).unwrap();
        let g = ShardedTopology::from_topology(&dense, 2).unwrap();
        assert_eq!(g.shard_nodes(0), 0..3);
        let out = Simulator::new(&g).run_with_executor(
            (0..n).map(|_| GossipSum::new(2)).collect::<Vec<_>>(),
            &ShardedExecutor::new(),
        );
        assert_eq!(out.metrics.rounds, 2);
        assert_eq!(out.metrics.messages, 24);
        assert_eq!(out.metrics.cross_shard_messages, 8);
        assert_eq!(out.metrics.intra_shard_messages, 16);
    }

    #[test]
    #[should_panic(expected = "algorithm exploded")]
    fn sharded_propagates_algorithm_panics() {
        use crate::executor::ShardedExecutor;
        use crate::sharded::ShardedTopology;
        let n = 8;
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let dense = Topology::from_edges(n, &edges).unwrap();
        let g = ShardedTopology::from_topology(&dense, 3).unwrap();
        let _ = Simulator::new(&g).run_with_executor(
            (0..n).map(|_| PanicsAtRoundOne).collect::<Vec<_>>(),
            &ShardedExecutor::new(),
        );
    }

    #[test]
    #[should_panic(expected = "two messages over the same port")]
    fn sharded_propagates_delivery_panics() {
        use crate::executor::ShardedExecutor;
        use crate::sharded::ShardedTopology;
        let dense = Topology::from_edges(2, &[(0, 1)]).unwrap();
        let g = ShardedTopology::from_topology(&dense, 2).unwrap();
        let _ = Simulator::new(&g)
            .run_with_executor(vec![DoubleSend, DoubleSend], &ShardedExecutor::new());
    }

    #[cfg(unix)]
    #[test]
    fn duplicate_port_send_across_the_cut_is_rejected() {
        use crate::executor::ShardedExecutor;
        use crate::sharded::ShardedTopology;
        use crate::transport::SocketLoopback;
        let dense = Topology::from_edges(2, &[(0, 1)]).unwrap();
        let g = ShardedTopology::from_topology(&dense, 2).unwrap();
        assert_eq!(g.shard_nodes(1), 1..2, "the edge crosses the cut");
        let in_process = || {
            Simulator::new(&g)
                .run_with_executor(vec![DoubleSend, DoubleSend], &ShardedExecutor::new());
        };
        let socket = || {
            Simulator::new(&g).run_with_executor(
                vec![DoubleSend, DoubleSend],
                &ShardedExecutor::with_transport(SocketLoopback::unix()),
            );
        };
        let runs: [&dyn Fn(); 2] = [&in_process, &socket];
        for run in runs {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .expect_err("a double send must panic");
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                message.contains("two messages over the same port"),
                "{message}"
            );
        }
    }

    #[test]
    fn sharded_run_leaves_a_clean_arena_for_reuse() {
        // Regression: a run's kernels own its inbox slots and values and
        // drop them when it ends, so a second run on the same topology
        // starts with empty inboxes, whatever the first left in flight.
        use crate::executor::{Executor, SequentialExecutor, ShardedExecutor};
        use crate::sharded::ShardedTopology;

        /// Never sends; records how many messages arrived in its one round.
        #[derive(Clone)]
        struct HearOnce {
            heard: usize,
            done: bool,
        }
        impl NodeAlgorithm for HearOnce {
            type Message = u64;
            type Output = usize;
            fn init(&mut self, _ctx: &NodeContext) {}
            fn send(&mut self, _ctx: &NodeContext) -> Outbox<u64> {
                Outbox::Silent
            }
            fn receive(&mut self, _ctx: &NodeContext, inbox: &Inbox<'_, u64>) {
                self.heard = inbox.len();
                self.done = true;
            }
            fn is_halted(&self) -> bool {
                self.done
            }
            fn output(&self) -> usize {
                self.heard
            }
        }

        let dense = Topology::from_edges(2, &[(0, 1)]).unwrap();
        let g = ShardedTopology::from_topology(&dense, 2).unwrap();

        // Run 1 (sharded): both nodes broadcast in their final round.
        let mut gossips: Vec<GossipSum> = (0..2).map(|_| GossipSum::new(1)).collect();
        for (v, node) in gossips.iter_mut().enumerate() {
            node.init(&NodeContext {
                node: v,
                degree: 1,
                n: 2,
                max_degree: 1,
                round: 0,
            });
        }
        let mut metrics = RunMetrics::default();
        ShardedExecutor::new().drive(&g, &mut gossips, 1000, &mut metrics, &NoTrace);
        assert_eq!(metrics.messages, 2);

        // Run 2, on the same topology under either driver: pure listeners
        // must hear *nothing*.
        let listeners = || {
            vec![
                HearOnce {
                    heard: 0,
                    done: false
                };
                2
            ]
        };
        let (mut seq, mut par) = (listeners(), listeners());
        SequentialExecutor.drive(&g, &mut seq, 1000, &mut RunMetrics::default(), &NoTrace);
        ShardedExecutor::new().drive(&g, &mut par, 1000, &mut RunMetrics::default(), &NoTrace);
        let heard = |nodes: &[HearOnce]| nodes.iter().map(HearOnce::output).collect::<Vec<_>>();
        assert_eq!(
            [heard(&seq), heard(&par)],
            [[0, 0], [0, 0]],
            "stale messages leaked from the previous sharded run"
        );
    }

    #[test]
    fn pooled_executor_runs_on_a_sharded_topology() {
        // `Parallel` re-shards whatever view the simulator holds, so a
        // 3-shard topology runs on 2 shard threads without the caller
        // building anything.
        let n = 12;
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let dense = Topology::from_edges(n, &edges).unwrap();
        let g = ShardedTopology::from_topology(&dense, 3).unwrap();
        let mk = || (0..n).map(|_| GossipSum::new(3)).collect::<Vec<_>>();
        let seq = Simulator::new(&dense).run(mk());
        let par = Simulator::with_config(&g, parallel_config(2)).run(mk());
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.metrics.messages, par.metrics.messages);
        assert_eq!(par.metrics.shard_phase_nanos.len(), 2);
    }

    #[test]
    fn custom_executor_seam_accepts_an_explicit_strategy() {
        let g = triangle();
        let sharded = ShardedTopology::from_topology(&g, 2).unwrap();
        let via_seam = Simulator::new(&sharded).run_with_executor(
            (0..3).map(|_| GossipSum::new(2)).collect::<Vec<_>>(),
            &ShardedExecutor::new(),
        );
        let via_mode = Simulator::with_config(&g, parallel_config(2))
            .run((0..3).map(|_| GossipSum::new(2)).collect::<Vec<_>>());
        assert_eq!(via_seam.outputs, via_mode.outputs);
        assert_eq!(via_seam.metrics.messages, via_mode.metrics.messages);
        assert_eq!(
            via_seam.metrics.cross_shard_messages,
            via_mode.metrics.cross_shard_messages
        );
    }
}
