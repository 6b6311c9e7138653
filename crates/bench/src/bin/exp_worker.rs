//! The multi-process transport runner: a coordinator that drives **one
//! worker process per shard** across process boundaries, every cross-shard
//! message wire-encoded over TCP.
//!
//! Without `--worker`, the binary is the coordinator: it binds a loopback
//! TCP listener, spawns (or, with `--hosts`, waits for) one worker per
//! shard, paces the rounds ([`dcme_congest::transport::coordinate`]) and
//! prints the merged [`RunMetrics`].  With `--worker SHARD --connect ADDR`
//! it serves exactly one shard and exits.
//!
//! Every worker builds **only its own shard slice**
//! ([`dcme_congest::ShardSliceTopology`]) by replaying the deterministic
//! edge stream of the named graph family against the run's
//! [`dcme_congest::ShardPlan`] — no process ever materializes the full
//! graph (the coordinator computes just the plan).
//!
//! Data frames travel over a direct worker↔worker TCP mesh: each worker
//! announces its listen address, receives the plan plus the full peer list
//! from the coordinator, connects to its peers and exchanges data frames
//! peer-to-peer; the coordinator carries only the
//! RoundStart/Vote/Output control frames (`relayed_data_bytes` is always
//! 0).  `--mesh` is accepted for older command lines and changes nothing.
//!
//! For multi-host runs, start the coordinator with `--hosts FILE` (one
//! worker address per line, shard order; the shard-count/host-list match
//! is validated up front — a mismatch is a typed error, never a hang) and
//! each worker with `--worker SHARD --connect COORD --listen ADDR
//! [--advertise HOST]`.
//!
//! Live telemetry: with `--progress` every worker emits a `Stats` control
//! frame every k rounds (default 64; `--stats-every K` overrides, and also
//! works without `--progress` for silent collection), which the coordinator
//! renders as `heartbeat:` lines on stderr — per-worker round progress,
//! active count, wire bytes, peak RSS and round rate, so a stalled
//! multi-hour mesh run shows *which* worker stopped voting.
//!
//! Remote tracing: with `--trace FILE` every worker captures its own trace
//! events against a local monotonic clock and ships them to the coordinator
//! as one final `Trace` control frame; the coordinator merges them with its
//! own engine-track events into a single Chrome-trace file (one named
//! `pid` per worker, loadable in Perfetto).  Tracing rides strictly
//! out-of-band — a traced run stays bit-for-bit identical to an untraced
//! one.
//!
//! Every process derives the same topology and workload deterministically
//! from the shared arguments, so the run is bit-for-bit comparable to an
//! in-process sequential run — which `--verify` checks end to end.
//!
//! ```sh
//! # 4 worker processes over a 200k-node random 4-regular circulant:
//! cargo run -p dcme_bench --release --bin exp_worker
//! # CI-sized smoke with verification against the sequential executor:
//! cargo run -p dcme_bench --release --bin exp_worker -- \
//!     --n 4000 --shards 2 --graph circulant4 --verify
//! ```

use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, ExitStatus, Stdio};

use dcme_bench::workloads;
use dcme_congest::{
    transport, JsonLinesWriter, RunMetrics, ShardPlan, ShardSliceTopology, ShardTopologyView,
    Simulator, SimulatorConfig,
};

/// Shared run parameters; every worker re-derives the topology from these.
#[derive(Debug, Clone)]
struct Params {
    n: usize,
    shards: usize,
    graph: String,
    tail: u64,
    seed: u64,
    max_rounds: u64,
    stats_every: u64,
}

struct Args {
    params: Params,
    worker: Option<usize>,
    connect: Option<String>,
    listen: String,
    advertise: Option<String>,
    hosts: Option<std::path::PathBuf>,
    verify: bool,
    jsonl: Option<std::path::PathBuf>,
    progress: bool,
    trace: Option<std::path::PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: exp_worker [--n N] [--shards S] [--graph ring|circulant4] [--tail T] \
         [--seed SEED] [--max-rounds R] [--hosts FILE] [--listen ADDR] \
         [--verify] [--jsonl PATH] [--progress] [--stats-every K] [--trace FILE]\n\
         \x20      exp_worker --worker SHARD --connect HOST:PORT [--listen ADDR] \
         [--advertise HOST] <same run parameters>\n\
         \x20      workers exchange data frames over a direct mesh; --mesh is accepted\n\
         \x20      and changes nothing;\n\
         \x20      --progress renders worker Stats frames as stderr heartbeat lines\n\
         \x20      (implies --stats-every 64 unless set explicitly);\n\
         \x20      --trace FILE writes one merged Chrome trace (engine track + one track\n\
         \x20      per worker process) the coordinator assembles from Trace control frames"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        params: Params {
            n: 200_000,
            shards: 4,
            graph: "circulant4".to_string(),
            tail: 12,
            seed: 7,
            max_rounds: 1_000_000,
            stats_every: 0,
        },
        worker: None,
        connect: None,
        listen: "127.0.0.1:0".to_string(),
        advertise: None,
        hosts: None,
        verify: false,
        jsonl: None,
        progress: false,
        trace: None,
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
            "--n" => args.params.n = value("--n").parse().unwrap_or_else(|_| usage()),
            "--shards" => {
                args.params.shards = value("--shards").parse().unwrap_or_else(|_| usage())
            }
            "--graph" => args.params.graph = value("--graph"),
            "--tail" => args.params.tail = value("--tail").parse().unwrap_or_else(|_| usage()),
            "--seed" => args.params.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--max-rounds" => {
                args.params.max_rounds = value("--max-rounds").parse().unwrap_or_else(|_| usage())
            }
            "--mesh" => {}
            "--worker" => args.worker = Some(value("--worker").parse().unwrap_or_else(|_| usage())),
            "--connect" => args.connect = Some(value("--connect")),
            "--listen" => args.listen = value("--listen"),
            "--advertise" => args.advertise = Some(value("--advertise")),
            "--hosts" => args.hosts = Some(value("--hosts").into()),
            "--verify" => args.verify = true,
            "--jsonl" => args.jsonl = Some(value("--jsonl").into()),
            "--progress" => args.progress = true,
            "--stats-every" => {
                args.params.stats_every = value("--stats-every").parse().unwrap_or_else(|_| usage())
            }
            "--trace" => args.trace = Some(value("--trace").into()),
            _ => usage(),
        }
    }
    // A worker index past the shard count names no shard: reject it before
    // anything connects.
    if let Some(shard) = args.worker.filter(|&shard| shard >= args.params.shards) {
        eprintln!(
            "exp_worker: --worker {shard} is out of range for --shards {}",
            args.params.shards
        );
        usage()
    }
    // `--progress` without an explicit cadence picks a default one.
    if args.progress && args.params.stats_every == 0 {
        args.params.stats_every = 64;
    }
    args
}

fn main() {
    let args = parse_args();
    let jsonl = args
        .jsonl
        .clone()
        .or_else(|| std::env::var_os("DCME_METRICS_JSONL").map(Into::into));
    let result = match args.worker {
        Some(shard) => run_worker(
            &args.params,
            shard,
            args.connect.as_deref(),
            &args.listen,
            args.advertise.as_deref(),
            args.trace.is_some(),
        ),
        None => run_coordinator(
            &args.params,
            args.hosts.as_deref(),
            &args.listen,
            args.verify,
            jsonl.as_deref(),
            args.progress,
            args.trace.as_deref(),
        ),
    };
    if let Err(e) = result {
        eprintln!("exp_worker: {e}");
        std::process::exit(1);
    }
}

/// Builds this worker's shard slice by replaying the family's edge stream
/// against `plan` — the only topology this process ever holds.
fn build_slice(
    params: &Params,
    plan: ShardPlan,
    shard: usize,
) -> std::io::Result<ShardSliceTopology> {
    let stream = workloads::graph_stream(&params.graph, params.n, params.seed)
        .map_err(std::io::Error::other)?;
    ShardSliceTopology::build(plan, shard, stream)
        .map_err(|e| std::io::Error::other(format!("restricted shard build failed: {e}")))
}

/// Worker mode: connect to the coordinator, serve one shard, exit.  With
/// `traced` the worker captures its trace events and ships them to the
/// coordinator as one final Trace frame (the coordinator owns the file).
fn run_worker(
    params: &Params,
    shard: usize,
    connect: Option<&str>,
    listen: &str,
    advertise: Option<&str>,
    traced: bool,
) -> std::io::Result<()> {
    let addr = connect.unwrap_or_else(|| {
        eprintln!("--worker requires --connect HOST:PORT");
        usage()
    });
    let mut link = TcpStream::connect(addr)?;
    link.set_nodelay(true)?;
    let me = shard as u16;

    // Mesh handshake: announce the mesh listen address, receive the
    // coordinator's plan and the full peer list, build only this shard's
    // slice, then connect to the other workers.
    let listener = TcpListener::bind(listen)?;
    let bound = listener.local_addr()?;
    let announced = match advertise {
        Some(host) => format!("{host}:{}", bound.port()),
        None => bound.to_string(),
    };
    transport::write_peers(&mut link, me, transport::COORDINATOR, &[(me, announced)])?;
    let plan = transport::read_plan(&mut link, me)?;
    if plan.num_nodes() != params.n || plan.num_shards() != params.shards {
        return Err(std::io::Error::other(format!(
            "coordinator plan ({} nodes, {} shards) disagrees with this worker's parameters ({}, {})",
            plan.num_nodes(),
            plan.num_shards(),
            params.n,
            params.shards,
        )));
    }
    let peers = transport::read_peers(&mut link, transport::COORDINATOR, me)?;
    let slice = build_slice(params, plan, shard)?;
    let mesh = transport::WorkerMesh::connect(me, params.shards, &peers, &listener)?;
    let nodes = workloads::gossip_nodes(slice.shard_nodes(shard), params.tail);
    transport::serve_shard_with(
        &mut link,
        &slice,
        shard,
        nodes,
        mesh,
        &transport::ServeOptions {
            stats_every: params.stats_every,
            trace: traced,
        },
    )
}

/// Reads a hosts file: one worker address per line (shard order), blank
/// lines and `#` comments ignored — validated against the shard count
/// before anything listens or dials, so a mismatch is a typed error
/// instead of a hang.
fn read_hosts(path: &std::path::Path, shards: usize) -> std::io::Result<Vec<(u16, String)>> {
    let text = std::fs::read_to_string(path)?;
    let hosts: Vec<(u16, String)> = text
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .enumerate()
        .map(|(shard, line)| (shard as u16, line.to_string()))
        .collect();
    transport::validate_peer_list(&hosts, shards).map_err(std::io::Error::from)?;
    Ok(hosts)
}

/// Coordinator mode: spawn (or await) one worker process per shard and run
/// the simulation across the process boundary.  Holds the `ShardPlan` —
/// never the graph itself (`--verify` excepted).
fn run_coordinator(
    params: &Params,
    hosts: Option<&std::path::Path>,
    listen: &str,
    verify: bool,
    jsonl: Option<&std::path::Path>,
    progress: bool,
    trace: Option<&std::path::Path>,
) -> std::io::Result<()> {
    let hosts = hosts
        .map(|path| read_hosts(path, params.shards))
        .transpose()?;
    let listener = TcpListener::bind(listen)?;
    let addr = listener.local_addr()?;

    let mut children: Vec<Child> = Vec::new();
    if let Some(hosts) = &hosts {
        println!(
            "awaiting {} externally started workers on {addr} (hosts: {})",
            params.shards,
            hosts
                .iter()
                .map(|(_, h)| h.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
    } else {
        let exe = std::env::current_exe()?;
        for shard in 0..params.shards {
            let mut cmd = Command::new(&exe);
            cmd.args([
                "--worker",
                &shard.to_string(),
                "--connect",
                &addr.to_string(),
                "--n",
                &params.n.to_string(),
                "--shards",
                &params.shards.to_string(),
                "--graph",
                &params.graph,
                "--tail",
                &params.tail.to_string(),
                "--seed",
                &params.seed.to_string(),
            ]);
            if params.stats_every > 0 {
                cmd.args(["--stats-every", &params.stats_every.to_string()]);
            }
            if trace.is_some() {
                // Workers only need the *flag* — the path stays with the
                // coordinator, which assembles the merged file.  Any
                // non-empty value turns capture on.
                cmd.args(["--trace", "-"]);
            }
            children.push(cmd.stdin(Stdio::null()).spawn()?);
        }
    }

    // Links arrive in arbitrary order; `coordinate` sorts them out by the
    // shard index of each worker's initial vote.  The accept loop is
    // nonblocking so a worker that dies before connecting (bad args, OOM)
    // is reported instead of hanging the coordinator forever.
    listener.set_nonblocking(true)?;
    let mut links = Vec::with_capacity(params.shards);
    while links.len() < params.shards {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true)?;
                links.push(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                for child in children.iter_mut() {
                    if let Some(status) = child.try_wait()? {
                        return Err(std::io::Error::other(format!(
                            "a worker process exited with {status} before connecting"
                        )));
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    listener.set_nonblocking(false)?;

    mesh_handshake(params, &mut links)?;

    let spec = transport::CoordinateSpec {
        num_nodes: params.n,
        shards: params.shards,
        max_rounds: params.max_rounds,
        progress,
    };
    let trace_sink = trace.map(|_| dcme_congest::ChromeTraceSink::new());
    let t = std::time::Instant::now();
    let outcome = transport::coordinate_traced::<u64, _>(links, &spec, trace_sink.as_ref());
    let wall = t.elapsed();
    // Reap every worker, then report the coordinator's own error, which
    // names the shard and the round, ahead of any worker's exit status.
    let mut statuses = Vec::with_capacity(children.len());
    for mut child in children {
        statuses.push(child.wait()?);
    }
    let mut outcome = with_worker_failures(outcome, &statuses)?;
    // Fold the coordinator's own high-water mark in (max-merge semantics).
    outcome.metrics.peak_rss_bytes = outcome
        .metrics
        .peak_rss_bytes
        .max(dcme_congest::process_peak_rss_bytes());

    let label = format!(
        "exp_worker/{}/n{}/shards{}/mesh",
        params.graph, params.n, params.shards,
    );
    println!(
        "{label}: rounds={} messages={} cross_shard={} wire_bytes={} relayed_bytes={} \
         peak_rss_bytes={} flush_ms={:.2} wall_ms={:.0}",
        outcome.metrics.rounds,
        outcome.metrics.messages,
        outcome.metrics.cross_shard_messages,
        outcome.metrics.wire_bytes_sent,
        outcome.metrics.relayed_data_bytes,
        outcome.metrics.peak_rss_bytes,
        outcome.metrics.transport_flush_nanos as f64 / 1e6,
        wall.as_secs_f64() * 1e3,
    );
    if let Some(path) = jsonl {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        JsonLinesWriter::new(file).append(&label, &outcome.metrics)?;
    }
    if let (Some(path), Some(sink)) = (trace, &trace_sink) {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        sink.write_json(&mut file)?;
        println!(
            "trace: {} (engine track + {} worker tracks, load in Perfetto)",
            path.display(),
            params.shards,
        );
    }

    if verify {
        let g = workloads::build_graph(&params.graph, params.n, params.shards, params.seed)
            .map_err(std::io::Error::other)?;
        let reference = Simulator::with_config(
            &g,
            SimulatorConfig {
                max_rounds: params.max_rounds,
                ..SimulatorConfig::default()
            },
        )
        .run(workloads::gossip_nodes(0..params.n, params.tail));
        check_equal(&reference.metrics, &outcome.metrics)?;
        if reference.outputs != outcome.outputs {
            return Err(std::io::Error::other(
                "multi-process outputs diverged from the sequential executor",
            ));
        }
        println!("verify: OK (bit-for-bit vs sequential executor)");
    }
    Ok(())
}

/// The coordinator half of the mesh handshake: collect every worker's
/// announced listen address, validate the assembled peer list, then ship
/// each worker the shard plan and the full list.
fn mesh_handshake(params: &Params, links: &mut [TcpStream]) -> std::io::Result<()> {
    let shards = params.shards;
    let mut announced: Vec<Option<String>> = vec![None; shards];
    let mut link_shards: Vec<u16> = Vec::with_capacity(links.len());
    for link in links.iter_mut() {
        let frame = dcme_congest::wire::read_frame(link)?;
        let shard = frame.header.from;
        let entries = transport::parse_peers(&frame).map_err(std::io::Error::from)?;
        let slot = announced.get_mut(shard as usize).ok_or_else(|| {
            std::io::Error::other(format!(
                "mesh announce from shard {shard}, outside the run's {shards} shards"
            ))
        })?;
        match entries.as_slice() {
            [(s, addr)] if *s == shard && slot.is_none() => *slot = Some(addr.clone()),
            _ => {
                return Err(std::io::Error::other(format!(
                    "malformed mesh announce from shard {shard}"
                )))
            }
        }
        link_shards.push(shard);
    }
    let peer_list: Vec<(u16, String)> = announced
        .into_iter()
        .enumerate()
        .map(|(shard, addr)| {
            addr.map(|a| (shard as u16, a))
                .ok_or_else(|| std::io::Error::other(format!("shard {shard} never announced")))
        })
        .collect::<Result<_, _>>()?;
    transport::validate_peer_list(&peer_list, shards).map_err(std::io::Error::from)?;

    // The plan is the only piece of the topology the coordinator computes:
    // one counting pass over the edge stream, O(n) memory.
    let stream = workloads::graph_stream(&params.graph, params.n, params.seed)
        .map_err(std::io::Error::other)?;
    let plan = ShardPlan::from_edge_stream(params.n, shards, stream)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    for (link, &to) in links.iter_mut().zip(&link_shards) {
        transport::write_plan(link, &plan, to)?;
        transport::write_peers(link, transport::COORDINATOR, to, &peer_list)?;
    }
    Ok(())
}

/// The run's result once every worker is reaped: the coordinator's own
/// result if every worker succeeded, else an error that adds each failed
/// worker's shard (the coordinator spawns worker `s` for shard `s`) and
/// exit status to the coordinator's error, e.g. `shard 1: signal: 9
/// (SIGKILL)`.
fn with_worker_failures<T>(run: std::io::Result<T>, statuses: &[ExitStatus]) -> std::io::Result<T> {
    let failed: Vec<String> = statuses
        .iter()
        .enumerate()
        .filter(|(_, status)| !status.success())
        .map(|(shard, status)| format!("shard {shard}: {status}"))
        .collect();
    if failed.is_empty() {
        return run;
    }
    let workers = format!("worker processes failed: {}", failed.join(", "));
    Err(std::io::Error::other(match run {
        Ok(_) => workers,
        Err(e) => format!("{e}; {workers}"),
    }))
}

fn check_equal(seq: &RunMetrics, multi: &RunMetrics) -> std::io::Result<()> {
    let pairs = [
        ("rounds", seq.rounds, multi.rounds),
        ("messages", seq.messages, multi.messages),
        ("total_bits", seq.total_bits, multi.total_bits),
        (
            "max_message_bits",
            seq.max_message_bits,
            multi.max_message_bits,
        ),
    ];
    for (name, a, b) in pairs {
        if a != b {
            return Err(std::io::Error::other(format!(
                "multi-process {name} diverged: sequential {a} vs multi-process {b}"
            )));
        }
    }
    if seq.active_per_round != multi.active_per_round {
        return Err(std::io::Error::other("active_per_round diverged"));
    }
    Ok(())
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::os::unix::process::ExitStatusExt;

    #[test]
    fn failed_workers_are_named_by_shard_and_exit_status() {
        // Raw wait statuses: success, exit code 1, and killed by SIGKILL.
        let [ok, exit_1, killed] = [0, 256, 9].map(ExitStatus::from_raw);
        assert_eq!(with_worker_failures(Ok(7), &[ok, ok]).unwrap(), 7);
        let err = with_worker_failures(Ok(7), &[exit_1, killed]).unwrap_err();
        let failed =
            "worker processes failed: shard 0: exit status: 1, shard 1: signal: 9 (SIGKILL)";
        assert_eq!(err.to_string(), failed);
        let lost = std::io::Error::other("shard 1 closed its control link in round 5");
        let err = with_worker_failures::<()>(Err(lost), &[ok, killed]).unwrap_err();
        let failed = "shard 1 closed its control link in round 5; \
                      worker processes failed: shard 1: signal: 9 (SIGKILL)";
        assert_eq!(err.to_string(), failed);
    }
}
