//! In-process vs socket-loopback transport on the `engine_sharding` graph
//! family (`engine_transport`).
//!
//! Same graphs and staggered-halting gossip workload as `engine_sharding`
//! (streamed ring + random 4-regular circulant), but the variable is the
//! **cross-shard transport backend** of the [`ShardedExecutor`]: the
//! in-process staging queues against a full mesh of loopback sockets where
//! every cross-shard message is wire-encoded (`dcme_congest::wire`),
//! length-prefix framed, flushed at the send barrier and decoded by the
//! receiving shard.  Outputs are cross-checked bit for bit between the
//! backends before timing starts.
//!
//! The multi-process backend is benched too, as the `mp-mesh` row: the
//! `exp_worker` binary with one worker **process** per shard, data frames
//! exchanged over the direct worker↔worker mesh.  Before timing, the bench
//! asserts the scale-out contract on the circulant: the coordinator relays
//! **zero** data bytes, and the workers move real ones.
//!
//! Run the full configuration (`n = 10^6`, 8 shards) with `cargo bench
//! --bench engine_transport`; set `ENGINE_TRANSPORT_SMOKE=1` (as CI does)
//! for a seconds-sized run on `n = 20_000`, 4 shards.  Set
//! `DCME_METRICS_JSONL=path.jsonl` to append one machine-readable
//! [`RunMetrics`] row per configuration — socket rows include the
//! `wire_bytes_sent` / `transport_flush_nanos` transport counters, and the
//! `exp_worker` subprocess (which inherits the variable) appends its own
//! row with the per-process `peak_rss_bytes`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcme_bench::workloads;
use dcme_congest::{
    JsonLinesWriter, RunMetrics, RunOutcome, ShardedExecutor, ShardedTopology, Simulator,
    SimulatorConfig, SocketLoopback, TopologyView,
};

/// The transport backends under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    InProcess,
    SocketUnix,
    SocketTcp,
}

impl Backend {
    fn name(self) -> &'static str {
        match self {
            Backend::InProcess => "inproc",
            Backend::SocketUnix => "socket-unix",
            Backend::SocketTcp => "socket-tcp",
        }
    }
}

fn run(g: &ShardedTopology, tail: u64, backend: Backend) -> RunOutcome<u64> {
    let nodes = workloads::gossip_nodes(0..g.num_nodes(), tail);
    let sim = Simulator::with_config(
        g,
        SimulatorConfig {
            max_rounds: 1_000_000,
            ..SimulatorConfig::default()
        },
    );
    match backend {
        Backend::InProcess => sim.run_with_executor(nodes, &ShardedExecutor::new()),
        Backend::SocketUnix => {
            #[cfg(unix)]
            {
                sim.run_with_executor(
                    nodes,
                    &ShardedExecutor::with_transport(SocketLoopback::unix()),
                )
            }
            #[cfg(not(unix))]
            unreachable!("unix backend is only benched on unix")
        }
        Backend::SocketTcp => sim.run_with_executor(
            nodes,
            &ShardedExecutor::with_transport(SocketLoopback::tcp()),
        ),
    }
}

/// One coordinator + `shards` worker-process run of the circulant gossip
/// via the `exp_worker` binary; returns the printed `(wire_bytes,
/// relayed_bytes)` counters.  The child inherits `DCME_METRICS_JSONL`, so
/// its metric row (with per-process peak RSS) lands in the same sink.
fn run_multiprocess(n: usize, shards: usize, tail: u64) -> (u64, u64) {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_exp_worker"));
    cmd.args([
        "--n",
        &n.to_string(),
        "--shards",
        &shards.to_string(),
        "--graph",
        "circulant4",
        "--tail",
        &tail.to_string(),
        "--seed",
        "7",
    ]);
    let out = cmd.output().expect("run exp_worker");
    assert!(
        out.status.success(),
        "exp_worker failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let field = |key: &str| -> u64 {
        stdout
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("missing {key}= in: {stdout}"))
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric {key}= in: {stdout}"))
    };
    (field("wire_bytes"), field("relayed_bytes"))
}

fn engine_transport(c: &mut Criterion) {
    let smoke = std::env::var_os("ENGINE_TRANSPORT_SMOKE").is_some();
    let (n, tail, samples, shards) = if smoke {
        (20_000usize, 8u64, 2usize, 4usize)
    } else {
        (1_000_000usize, 16u64, 3usize, 8usize)
    };
    let backends: &[Backend] = if cfg!(unix) {
        &[Backend::InProcess, Backend::SocketUnix, Backend::SocketTcp]
    } else {
        &[Backend::InProcess, Backend::SocketTcp]
    };

    let graphs = [
        (
            "ring",
            workloads::build_graph("ring", n, shards, 7).expect("streamed ring"),
        ),
        (
            "circulant4",
            workloads::build_graph("circulant4", n, shards, 7).expect("streamed circulant"),
        ),
    ];

    let mut jsonl = std::env::var_os("DCME_METRICS_JSONL").map(|path| {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("open DCME_METRICS_JSONL sink");
        JsonLinesWriter::new(file)
    });
    let mut record = |label: &str, metrics: &RunMetrics| {
        if let Some(w) = jsonl.as_mut() {
            w.append(label, metrics).expect("append jsonl row");
        }
    };

    // Cross-check once per (graph, backend): every backend must agree with
    // the in-process executor bit for bit on outputs and logical counters,
    // and socket backends must have pushed real bytes through the wire.
    for (graph_name, g) in &graphs {
        let reference = run(g, tail, Backend::InProcess);
        record(
            &format!("{graph_name}/n{n}/shards{shards}/inproc"),
            &reference.metrics,
        );
        for &backend in backends.iter().filter(|&&b| b != Backend::InProcess) {
            let out = run(g, tail, backend);
            assert_eq!(
                reference.outputs,
                out.outputs,
                "{} diverged on {graph_name}",
                backend.name()
            );
            assert_eq!(reference.metrics.messages, out.metrics.messages);
            assert_eq!(reference.metrics.total_bits, out.metrics.total_bits);
            assert_eq!(
                reference.metrics.cross_shard_messages,
                out.metrics.cross_shard_messages
            );
            assert!(
                out.metrics.wire_bytes_sent > 0,
                "socket backend must move real wire bytes"
            );
            record(
                &format!("{graph_name}/n{n}/shards{shards}/{}", backend.name()),
                &out.metrics,
            );
        }
    }

    // The scale-out gate (checked once, before timing): on the circulant,
    // every data frame crosses the wire once, worker to worker, and the
    // coordinator relays no data byte.
    let (mesh_wire, mesh_relayed) = run_multiprocess(n, shards, tail);
    assert!(mesh_wire > 0, "the workers must move real wire bytes");
    assert_eq!(mesh_relayed, 0, "the coordinator must relay no data bytes");

    let mut group = c.benchmark_group("engine_transport");
    group.sample_size(samples);
    for (graph_name, g) in &graphs {
        for &backend in backends {
            let id = BenchmarkId::new(format!("{graph_name}/n{n}"), backend.name());
            group.bench_with_input(id, &backend, |b, &backend| {
                b.iter(|| run(g, tail, backend));
            });
        }
    }
    let id = BenchmarkId::new(format!("circulant4/n{n}/multiproc"), "mp-mesh");
    group.bench_with_input(id, &(), |b, _| {
        b.iter(|| run_multiprocess(n, shards, tail));
    });
    group.finish();
}

criterion_group!(benches, engine_transport);
criterion_main!(benches);
