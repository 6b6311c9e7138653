//! Scaling of the round engine itself, independent of any coloring
//! algorithm (`engine_scaling`).
//!
//! The workload is a gossip algorithm with *staggered* halting: most nodes
//! halt after a handful of rounds while a small fraction (1 in 97) keeps
//! broadcasting for a long tail of rounds.  This exercises exactly the two
//! costs the zero-allocation round engine removes — per-round buffer
//! allocation proportional to `n`, and per-round thread spawning — because
//! during the tail almost every node is halted, so an engine that still pays
//! `O(n)` per round is dominated by overhead rather than useful work.
//!
//! The `seq` rows time the single-threaded driver.  The `par*` rows time
//! `ExecutionMode::Parallel { threads }`, i.e. the threaded driver on a
//! `threads`-shard `ShardedTopology` — including the per-run build of that
//! shard topology from the `Topology`.
//!
//! Run the full-size configuration (`n = 100_000`) with `cargo bench --bench
//! engine_scaling`; set `ENGINE_SCALING_SMOKE=1` (as CI does) for a
//! seconds-sized smoke run on `n = 2_000`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcme_congest::{
    ExecutionMode, Inbox, NodeAlgorithm, NodeContext, Outbox, Simulator, SimulatorConfig,
};
use dcme_graphs::generators;

/// Gossip with staggered halts: node `v` broadcasts its id every round and
/// halts after `ttl(v)` rounds, where most nodes get a small ttl and every
/// 97th node keeps going for `tail` rounds.
#[derive(Clone)]
struct StaggeredGossip {
    id: u64,
    ttl: u64,
    tail: u64,
    heard: u64,
    rounds_done: u64,
}

impl StaggeredGossip {
    fn new(tail: u64) -> Self {
        Self {
            id: 0,
            ttl: 0,
            tail,
            heard: 0,
            rounds_done: 0,
        }
    }
}

impl NodeAlgorithm for StaggeredGossip {
    type Message = u64;
    type Output = u64;

    fn init(&mut self, ctx: &NodeContext) {
        self.id = ctx.node as u64;
        self.ttl = if ctx.node % 97 == 0 {
            self.tail
        } else {
            2 + (self.id % 7)
        };
    }

    fn send(&mut self, _ctx: &NodeContext) -> Outbox<u64> {
        Outbox::Broadcast(self.id)
    }

    fn receive(&mut self, _ctx: &NodeContext, inbox: &Inbox<'_, u64>) {
        for (_, m) in inbox.iter() {
            self.heard = self.heard.wrapping_add(*m);
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

fn engine_scaling(c: &mut Criterion) {
    let smoke = std::env::var_os("ENGINE_SCALING_SMOKE").is_some();
    let (n, tail, samples) = if smoke {
        (2_000usize, 16u64, 3usize)
    } else {
        (100_000usize, 64u64, 5usize)
    };

    let graphs = [
        ("ring", generators::ring(n)),
        ("random8", generators::random_regular(n, 8, 7)),
    ];
    let modes = [
        ("seq", ExecutionMode::Sequential),
        ("par1", ExecutionMode::Parallel { threads: 1 }),
        ("par2", ExecutionMode::Parallel { threads: 2 }),
        ("par4", ExecutionMode::Parallel { threads: 4 }),
    ];

    let mut group = c.benchmark_group("engine_scaling");
    group.sample_size(samples);
    for (graph_name, g) in &graphs {
        for (mode_name, mode) in modes {
            let id = BenchmarkId::new(format!("{graph_name}/n{n}"), mode_name);
            group.bench_with_input(id, &mode, |b, &mode| {
                b.iter(|| {
                    let nodes: Vec<StaggeredGossip> =
                        (0..n).map(|_| StaggeredGossip::new(tail)).collect();
                    let sim = Simulator::with_config(
                        g,
                        SimulatorConfig {
                            max_rounds: 1_000_000,
                            mode,
                        },
                    );
                    sim.run(nodes)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, engine_scaling);
criterion_main!(benches);
