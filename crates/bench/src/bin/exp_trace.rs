//! Trace producer: runs one experiment config with the tracing sinks
//! attached and writes a Chrome trace-event JSON file (loadable in
//! [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`) plus an
//! optional per-round time-series JSONL.
//!
//! The trace shows one process track per shard (plus pid 0 for the engine):
//! phase slices (`send` / `deliver` / `receive`), per-shard flush and drain
//! slices, an `active_nodes` counter track and per-shard traffic counters —
//! the round-by-round structure the paper's claims are about, which the
//! end-of-run aggregates of `RunMetrics` cannot show.
//!
//! Tracing is strictly out-of-band: the run's outputs and logical metrics
//! are bit-for-bit identical with and without the sinks (pinned by the
//! equivalence regression in `tests/executor_equivalence.rs`).
//!
//! ```sh
//! # A 4-shard socket run, traced:
//! cargo run -p dcme_bench --release --bin exp_trace -- \
//!     --n 2000 --shards 4 --mode socket --out trace.json --series rounds.jsonl
//! # then load trace.json in https://ui.perfetto.dev
//! ```

use std::io::Write;

use dcme_bench::workloads;
use dcme_congest::{
    ChromeTraceSink, Fanout, JsonLinesWriter, RoundSeries, SequentialExecutor, ShardedExecutor,
    Simulator, SimulatorConfig, SocketLoopback, TraceSink,
};

struct Args {
    n: usize,
    shards: usize,
    graph: String,
    tail: u64,
    seed: u64,
    max_rounds: u64,
    mode: String,
    out: std::path::PathBuf,
    series: Option<std::path::PathBuf>,
    label: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: exp_trace [--n N] [--shards S] [--graph ring|circulant4] [--tail T] \
         [--seed SEED] [--max-rounds R] [--mode seq|sharded|socket|mesh] \
         [--out TRACE.json] [--series ROUNDS.jsonl] [--label LABEL]\n\
         \x20      --mode mesh runs the worker protocol in-process over TCP loopback\n\
         \x20      with the direct worker-to-worker data mesh, merging each worker's\n\
         \x20      shipped Trace frame into the engine track (one pid per worker)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        n: 2000,
        shards: 4,
        graph: "circulant4".to_string(),
        tail: 8,
        seed: 7,
        max_rounds: 1_000_000,
        mode: "sharded".to_string(),
        out: "trace.json".into(),
        series: None,
        label: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--n" => args.n = value("--n").parse().unwrap_or_else(|_| usage()),
            "--shards" => args.shards = value("--shards").parse().unwrap_or_else(|_| usage()),
            "--graph" => args.graph = value("--graph"),
            "--tail" => args.tail = value("--tail").parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--max-rounds" => {
                args.max_rounds = value("--max-rounds").parse().unwrap_or_else(|_| usage())
            }
            "--mode" => args.mode = value("--mode"),
            "--out" => args.out = value("--out").into(),
            "--series" => args.series = Some(value("--series").into()),
            "--label" => args.label = Some(value("--label")),
            _ => usage(),
        }
    }
    if !matches!(args.mode.as_str(), "seq" | "sharded" | "socket" | "mesh") {
        eprintln!("unknown --mode {:?}", args.mode);
        usage()
    }
    args
}

fn main() {
    let args = parse_args();
    if let Err(e) = run(&args) {
        eprintln!("exp_trace: {e}");
        std::process::exit(1);
    }
}

/// The `mesh` mode: the full worker protocol run in-process — one thread
/// per shard serving over TCP loopback with the direct worker↔worker data
/// mesh, each shipping its captured trace as a final `Trace` frame that
/// [`dcme_congest::transport::coordinate_traced`] merges into the engine
/// track.  Returns the merged sink and the run outcome; the per-round
/// series is rebuilt afterwards by replaying the merged events.
fn run_mesh(args: &Args) -> std::io::Result<(ChromeTraceSink, dcme_congest::RunOutcome<u64>)> {
    use dcme_congest::{transport, ShardPlan, ShardSliceTopology, ShardTopologyView};
    use std::net::{TcpListener, TcpStream};

    let shards = args.shards;
    let stream =
        workloads::graph_stream(&args.graph, args.n, args.seed).map_err(std::io::Error::other)?;
    let plan = ShardPlan::from_edge_stream(args.n, shards, stream)
        .map_err(|e| std::io::Error::other(e.to_string()))?;

    // Bind every mesh listener before any worker dials, so the peer list
    // is complete up front and every dial lands in a live backlog.
    let listeners: Vec<TcpListener> = (0..shards)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<std::io::Result<_>>()?;
    let peer_list: Vec<(u16, String)> = listeners
        .iter()
        .enumerate()
        .map(|(s, l)| Ok((s as u16, l.local_addr()?.to_string())))
        .collect::<std::io::Result<_>>()?;
    let control = TcpListener::bind("127.0.0.1:0")?;
    let control_addr = control.local_addr()?;

    let chrome = ChromeTraceSink::new();
    let outcome = std::thread::scope(|scope| -> std::io::Result<_> {
        for (shard, listener) in listeners.into_iter().enumerate() {
            let plan = plan.clone();
            let peer_list = peer_list.clone();
            let (graph, n, tail) = (args.graph.clone(), args.n, args.tail);
            scope.spawn(move || -> std::io::Result<()> {
                let mut link = TcpStream::connect(control_addr)?;
                link.set_nodelay(true)?;
                let stream =
                    workloads::graph_stream(&graph, n, args.seed).map_err(std::io::Error::other)?;
                let slice = ShardSliceTopology::build(plan, shard, stream)
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
                let mesh =
                    transport::WorkerMesh::connect(shard as u16, shards, &peer_list, &listener)?;
                let nodes = workloads::gossip_nodes(slice.shard_nodes(shard), tail);
                transport::serve_shard_with(
                    &mut link,
                    &slice,
                    shard,
                    nodes,
                    mesh,
                    &transport::ServeOptions {
                        stats_every: 0,
                        trace: true,
                    },
                )
            });
        }
        let mut links = Vec::with_capacity(shards);
        while links.len() < shards {
            let (stream, _) = control.accept()?;
            stream.set_nodelay(true)?;
            links.push(stream);
        }
        let spec = transport::CoordinateSpec {
            num_nodes: args.n,
            shards,
            max_rounds: args.max_rounds,
            progress: false,
        };
        transport::coordinate_traced::<u64, _>(links, &spec, Some(&chrome))
    })?;
    Ok((chrome, outcome))
}

fn run(args: &Args) -> std::io::Result<()> {
    if args.mode == "mesh" {
        return run_and_report_mesh(args);
    }
    let g = workloads::build_graph(&args.graph, args.n, args.shards, args.seed)
        .map_err(std::io::Error::other)?;
    let nodes = workloads::gossip_nodes(0..args.n, args.tail);
    let label = args.label.clone().unwrap_or_else(|| {
        format!(
            "exp_trace/{}/n{}/shards{}/{}",
            args.graph, args.n, args.shards, args.mode
        )
    });

    let chrome = ChromeTraceSink::new();
    let series = RoundSeries::new();
    let sinks: [&dyn TraceSink; 2] = [&chrome, &series];
    let fanout = Fanout::new(&sinks);
    let sim = Simulator::with_config(
        &g,
        SimulatorConfig {
            max_rounds: args.max_rounds,
            ..SimulatorConfig::default()
        },
    )
    .with_tracer(&fanout);

    let t = std::time::Instant::now();
    let outcome = match args.mode.as_str() {
        "seq" => sim.run_with_executor(nodes, &SequentialExecutor),
        "sharded" => sim.run_with_executor(nodes, &ShardedExecutor::new()),
        "socket" => sim.run_with_executor(
            nodes,
            &ShardedExecutor::with_transport(SocketLoopback::tcp()),
        ),
        _ => unreachable!("validated in parse_args"),
    };
    let wall = t.elapsed();

    let mut out = std::io::BufWriter::new(std::fs::File::create(&args.out)?);
    chrome.write_json(&mut out)?;
    out.flush()?;

    if let Some(path) = &args.series {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut w = JsonLinesWriter::new(file);
        // The RunMetrics row and the per-round rows side by side, same
        // label: the `"kind"` tag keeps the shapes distinguishable.
        w.append(&label, &outcome.metrics)?;
        series.write_jsonl(&label, &mut w)?;
    }

    let summary = series.summary();
    println!(
        "{label}: rounds={} messages={} trace_events={} round_nanos_p50={} p95={} max={} \
         wall_ms={:.0} -> {}",
        outcome.metrics.rounds,
        outcome.metrics.messages,
        chrome.len(),
        summary.p50_nanos,
        summary.p95_nanos,
        summary.max_nanos,
        wall.as_secs_f64() * 1e3,
        args.out.display(),
    );
    Ok(())
}

/// Drives [`run_mesh`], then writes the merged trace, rebuilds the
/// per-round series by replaying the merged events, and prints the same
/// summary line as the in-process modes.
fn run_and_report_mesh(args: &Args) -> std::io::Result<()> {
    let label = args.label.clone().unwrap_or_else(|| {
        format!(
            "exp_trace/{}/n{}/shards{}/mesh",
            args.graph, args.n, args.shards
        )
    });
    let t = std::time::Instant::now();
    let (chrome, outcome) = run_mesh(args)?;
    let wall = t.elapsed();

    let mut out = std::io::BufWriter::new(std::fs::File::create(&args.out)?);
    chrome.write_json(&mut out)?;
    out.flush()?;

    // The round series is rebuilt from the merged trace: the coordinator's
    // RoundStart/RoundEnd rows plus every worker's per-shard deltas, all
    // arriving through the same sink the in-process modes feed live.
    let series = RoundSeries::new();
    chrome.replay_into(&series);

    if let Some(path) = &args.series {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut w = JsonLinesWriter::new(file);
        w.append(&label, &outcome.metrics)?;
        series.write_jsonl(&label, &mut w)?;
    }

    let summary = series.summary();
    println!(
        "{label}: rounds={} messages={} trace_events={} round_nanos_p50={} p95={} max={} \
         wall_ms={:.0} -> {}",
        outcome.metrics.rounds,
        outcome.metrics.messages,
        chrome.len(),
        summary.p50_nanos,
        summary.p95_nanos,
        summary.max_nanos,
        wall.as_secs_f64() * 1e3,
        args.out.display(),
    );
    Ok(())
}
