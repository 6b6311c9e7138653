//! The repository benchmark: three closed-loop workloads (one client; the
//! next sample starts once the previous one is finished and verified),
//! measured end to end and per layer from outside the program.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload delta1-seq --seed 17 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.  A stamped copy
//! (machine fingerprint and run config) goes to `.bench_out/`, and with
//! `--trace 1` so do the spans.  The exit code is 1 when any sample failed
//! verification or any pinned count differs.  See README.md.

mod coloring;
mod machine;
mod mesh;
mod spans;
mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dcme_congest::{PhaseTimings, RunMetrics};

use spans::Spans;

/// Where results, span files and `exp_worker` outputs go.
pub const OUT_DIR: &str = ".bench_out";

/// Timed samples a run takes at least, however short `--seconds` is.
const MIN_SAMPLES: u32 = 3;

/// The deterministic counters of one sample.  Every sample of a run must
/// repeat them exactly, and where the seed is pinned they must equal the
/// pins.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub named: Vec<(&'static str, u64)>,
    pub active_per_round: Vec<usize>,
}

impl Counts {
    fn get(&self, name: &str) -> Option<u64> {
        self.named.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// What one closed-loop sample measured.
#[derive(Debug, Default)]
pub struct Sample {
    /// From input generation (or spawning the coordinator) to verified
    /// output, in seconds.
    pub wall_s: f64,
    /// Graph plus shard build; `None` where set-up is timed by separate
    /// set-up-only runs.
    pub setup_s: Option<f64>,
    pub verify_s: f64,
    /// Highest `VmHWM` of any process in the sample.
    pub peak_rss_bytes: u64,
    pub counts: Counts,
    /// Why the sample failed verification, if it did.
    pub failure: Option<String>,
    /// Per-layer values read from the program's counters and traces
    /// (traced samples only).
    pub layers: BTreeMap<&'static str, f64>,
}

pub trait Workload {
    /// The inputs and configuration, for the result stamp.
    fn describe(&self) -> String;
    /// Generates the input, runs it and verifies the output.
    fn sample(&mut self, id: u32, traced: bool, spans: &mut Spans) -> Sample;
    /// Counters known before the first sample, from a reference run.
    fn reference(&self) -> Option<Counts> {
        None
    }
    /// Times one set-up-only run, for workloads whose samples cannot
    /// separate set-up from the rounds.
    fn setup_only(&mut self) -> Option<Result<f64, String>> {
        None
    }
}

/// A workload's name, seeds and pinned counters.
struct Spec {
    name: &'static str,
    /// The seed used while tuning, and the default.
    seed: u64,
    /// A second seed, kept out of tuning, to check a claim on.
    held_out_seed: u64,
    pins: &'static [(u64, &'static [(&'static str, u64)])],
}

const WORKLOADS: &[Spec] = &[
    Spec {
        name: "delta1-seq",
        seed: 17,
        held_out_seed: 23,
        pins: &[
            (
                17,
                &[("rounds", 89), ("messages", 27_201_305), ("colors", 17)],
            ),
            (
                23,
                &[("rounds", 89), ("messages", 27_203_682), ("colors", 17)],
            ),
        ],
    },
    Spec {
        name: "hnt-threads2",
        seed: 71,
        held_out_seed: 89,
        pins: &[
            (71, &[("rounds", 13), ("messages", 11_740_723)]),
            (89, &[("rounds", 13), ("messages", 11_710_229)]),
        ],
    },
    Spec {
        name: "gossip-mesh2",
        seed: 7,
        held_out_seed: 13,
        pins: &[
            (
                7,
                &[
                    ("rounds", 12),
                    ("messages", 40_577_300),
                    ("cross_shard_messages", 19_989_543),
                    ("wire_bytes", 279_186_688),
                    ("relayed_bytes", 0),
                ],
            ),
            (
                13,
                &[
                    ("rounds", 12),
                    ("messages", 40_577_300),
                    ("cross_shard_messages", 20_219_811),
                    ("wire_bytes", 282_410_440),
                    ("relayed_bytes", 0),
                ],
            ),
        ],
    },
];

const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("msgs_per_s", "msg/s"),
    ("peak_rss_mb", "MB"),
    ("rounds", "count"),
];

const PER_LAYER: &[(&str, &str)] = &[
    ("graphs.build_s", "s"),
    ("sharded.build_s", "s"),
    ("sharded.plan_s", "s"),
    ("sharded.slice_s", "s"),
    ("remote.spawn_gather_s", "s"),
    ("coloring.linial_s", "s"),
    ("coloring.trial_s", "s"),
    ("coloring.elimination_s", "s"),
    ("coloring.colors", "count"),
    ("executor.send_s", "s"),
    ("executor.deliver_s", "s"),
    ("executor.receive_s", "s"),
    ("executor.ns_per_msg", "ns"),
    ("executor.round_p50_ms", "ms"),
    ("executor.round_max_ms", "ms"),
    ("executor.shard_imbalance", "ratio"),
    ("executor.cross_frac", "ratio"),
    ("executor.node_rounds", "count"),
    ("transport.flush_s", "s"),
    ("transport.drain_s", "s"),
    ("transport.syscall_batches", "count"),
    ("transport.msgs_per_syscall", "msg"),
    ("wire.bytes", "B"),
    ("wire.bytes_per_msg", "B/msg"),
    ("verify.check_s", "s"),
    ("verify.failed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload delta1-seq|hnt-threads2|gossip-mesh2 \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("missing value for {flag}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a number of seconds, not {}",
            args.seconds
        ));
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2)
    });
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1)
        }
    }
}

/// The median of `v` (0 for none), sorting it in place.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Layers every workload reads from its merged `RunMetrics`.
pub fn engine_layers(m: &RunMetrics) -> BTreeMap<&'static str, f64> {
    // The remote coordinator does not split its rounds into phases (it
    // books them all as receive); the slowest shard's phases stand in.
    let phases = if m.phase_nanos.send == 0 && !m.shard_phase_nanos.is_empty() {
        m.shard_phase_nanos
            .iter()
            .fold(PhaseTimings::default(), |a, t| PhaseTimings {
                send: a.send.max(t.send),
                deliver: a.deliver.max(t.deliver),
                receive: a.receive.max(t.receive),
            })
    } else {
        m.phase_nanos
    };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    BTreeMap::from([
        ("executor.send_s", phases.send as f64 / 1e9),
        ("executor.deliver_s", phases.deliver as f64 / 1e9),
        ("executor.receive_s", phases.receive as f64 / 1e9),
        (
            "executor.ns_per_msg",
            ratio(m.phase_nanos.total(), m.messages),
        ),
        (
            "executor.cross_frac",
            ratio(m.cross_shard_messages, m.messages),
        ),
        (
            "executor.node_rounds",
            m.active_per_round.iter().sum::<usize>() as f64,
        ),
        ("transport.flush_s", m.transport_flush_nanos as f64 / 1e9),
        ("transport.syscall_batches", m.syscall_batches as f64),
        (
            "transport.msgs_per_syscall",
            ratio(m.cross_shard_messages, m.syscall_batches),
        ),
        ("wire.bytes", m.wire_bytes_sent as f64),
        (
            "wire.bytes_per_msg",
            ratio(m.wire_bytes_sent, m.cross_shard_messages),
        ),
    ])
}

/// Why `counts` is wrong, if it is: it must equal the run's reference and
/// every pin.
fn check(counts: &Counts, reference: Option<&Counts>, pins: &[(&str, u64)]) -> Option<String> {
    if let Some(r) = reference.filter(|r| *r != counts) {
        return Some(format!(
            "counters {:?} differ from the reference {:?}",
            counts.named, r.named
        ));
    }
    pins.iter().find_map(|&(name, want)| {
        let got = counts.get(name);
        (got != Some(want)).then(|| format!("pinned {name} = {want}, measured {got:?}"))
    })
}

/// Everything one run's closed loop observed.
struct Measured {
    /// The timed samples (not the warm-up), each marked traced or not.
    samples: Vec<(bool, Sample)>,
    /// Wall times of the set-up-only runs that succeeded.
    setups: Vec<f64>,
    setup_runs: usize,
    failures: Vec<String>,
    /// The counters every sample had to repeat.
    reference: Counts,
    spans: Spans,
}

impl Measured {
    /// Runs, warm-up and set-up-only runs included.
    fn attempted(&self) -> usize {
        self.samples.len() + 1 + self.setup_runs
    }

    fn of(&self, traced: bool) -> Vec<&Sample> {
        self.samples
            .iter()
            .filter(|s| s.0 == traced)
            .map(|s| &s.1)
            .collect()
    }

    fn setup_s(&self) -> f64 {
        if self.setups.is_empty() {
            median_of(&self.of(false), |s| s.setup_s.unwrap_or(0.0))
        } else {
            median(&mut self.setups.clone())
        }
    }
}

fn median_of(samples: &[&Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    median(&mut samples.iter().map(|s| f(s)).collect::<Vec<_>>())
}

/// The closed loop.  Sample 0 warms caches and, without a reference run,
/// fixes the counters later samples must repeat; its timings are not used.
/// With `--trace 1`, traced and untraced samples alternate after it.  A
/// set-up-only run follows every second sample, where the workload has one.
fn measure(workload: &mut dyn Workload, args: &Args, pins: &[(&str, u64)]) -> Measured {
    let mut m = Measured {
        samples: Vec::new(),
        setups: Vec::new(),
        setup_runs: 0,
        failures: Vec::new(),
        reference: Counts::default(),
        spans: Spans::new(),
    };
    let mut reference = workload.reference();
    let mut measuring: Option<Instant> = None;
    let budget = Duration::from_secs_f64(args.seconds);
    let min_samples = MIN_SAMPLES * (1 + u32::from(args.trace));
    for id in 0u32.. {
        if measuring.is_some_and(|start| start.elapsed() >= budget) && id > min_samples {
            break;
        }
        let traced = args.trace && id > 0 && id % 2 == 0;
        m.spans.record(traced);
        let mut sample = workload.sample(id, traced, &mut m.spans);
        m.spans.record(false);
        if sample.failure.is_none() {
            sample.failure = check(&sample.counts, reference.as_ref(), pins);
        }
        match &sample.failure {
            Some(e) => m.failures.push(format!("sample {id}: {e}")),
            None if reference.is_none() => reference = Some(sample.counts.clone()),
            None => {}
        }
        if let Some(setup) = (id % 2 == 1).then(|| workload.setup_only()).flatten() {
            m.setup_runs += 1;
            match setup {
                Ok(s) => m.setups.push(s),
                Err(e) => m
                    .failures
                    .push(format!("set-up run after sample {id}: {e}")),
            }
        }
        if id > 0 {
            m.samples.push((traced, sample));
        }
        measuring.get_or_insert_with(Instant::now);
    }
    m.reference = reference.unwrap_or_default();
    m
}

fn end_to_end(m: &Measured) -> BTreeMap<&'static str, f64> {
    let untraced = m.of(false);
    let setup_s = m.setup_s();
    let messages = m.reference.get("messages").unwrap_or(0) as f64;
    let engine = |s: &Sample| s.wall_s - s.setup_s.unwrap_or(setup_s) - s.verify_s;
    BTreeMap::from([
        ("wall_s", median_of(&untraced, |s| s.wall_s)),
        ("setup_s", setup_s),
        ("msgs_per_s", median_of(&untraced, |s| messages / engine(s))),
        (
            "peak_rss_mb",
            median_of(&untraced, |s| s.peak_rss_bytes as f64 / 1e6),
        ),
        ("rounds", m.reference.get("rounds").unwrap_or(0) as f64),
    ])
}

fn per_layer(m: &Measured) -> BTreeMap<&'static str, f64> {
    let traced = m.of(true);
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in &traced {
        for (&name, &v) in &s.layers {
            layers.entry(name).or_default().push(v);
        }
    }
    let mut values: BTreeMap<&'static str, f64> = layers
        .into_iter()
        .map(|(name, mut v)| (name, median(&mut v)))
        .collect();
    // The layers the benchmark calls directly are its spans' self times.
    for (span, secs) in m.spans.self_times() {
        let name = format!("{span}_s");
        if let Some(&(known, _)) = PER_LAYER.iter().find(|(n, _)| *n == name) {
            values.insert(known, secs);
        }
    }
    if !m.setups.is_empty() {
        let built = values.get("sharded.plan_s").unwrap_or(&0.0)
            + values.get("sharded.slice_s").unwrap_or(&0.0);
        values.insert("remote.spawn_gather_s", m.setup_s() - built);
    }
    values.insert(
        "verify.failed_frac",
        m.failures.len() as f64 / m.attempted() as f64,
    );
    let wall = |of: &[&Sample]| median_of(of, |s| s.wall_s);
    values.insert(
        "trace.overhead_frac",
        wall(&traced) / wall(&m.of(false)) - 1.0,
    );
    values
}

fn run(args: &Args) -> Result<bool, String> {
    let spec = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or(format!("unknown workload {:?}\n{USAGE}", args.workload))?;
    let seed = args.seed.unwrap_or(spec.seed);
    let pins = spec
        .pins
        .iter()
        .find(|(s, _)| *s == seed)
        .map_or(&[][..], |(_, p)| *p);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    // Every workload builds `exp_worker`, so that a checkout's first
    // invocation, whichever workload it runs, builds everything.
    let exe = mesh::build_exp_worker()?;
    let mut workload: Box<dyn Workload> = match spec.name {
        "delta1-seq" => Box::new(coloring::Delta1::new(seed)),
        "hnt-threads2" => Box::new(coloring::Hnt::new(seed)),
        _ => Box::new(mesh::Gossip::new(seed, exe)?),
    };

    let m = measure(workload.as_mut(), args, pins);
    for f in &m.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    let (metrics, values) = if args.trace {
        (PER_LAYER, per_layer(&m))
    } else {
        (END_TO_END, end_to_end(&m))
    };
    let (attempted, failed) = (m.attempted(), m.failures.len());
    let correct = failed == 0;
    let value = |name: &str| values.get(name).copied().filter(|v| v.is_finite());
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics
            .iter()
            .map(|&(name, unit)| {
                let v = value(name).unwrap_or(0.0);
                format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
            })
            .collect::<Vec<_>>()
            .join(",")
    );

    // The stamp: machine, config, counters and every sample's wall time.
    let (untraced, traced) = (m.of(false).len(), m.of(true).len());
    let role = match seed {
        s if s == spec.seed => "tuning",
        s if s == spec.held_out_seed => "held-out",
        _ => "other",
    };
    let config = format!(
        "{{\"workload\":\"{}\",\"inputs\":\"{}\",\"seed\":{seed},\"seed_role\":\"{role}\",\
         \"seconds\":{},\"trace\":{},\"samples\":{untraced},\"traced_samples\":{traced},\
         \"setup_runs\":{}}}",
        spec.name,
        workload.describe(),
        args.seconds,
        u8::from(args.trace),
        m.setup_runs,
    );
    let machine = machine::fingerprint();
    let counts: Vec<String> = m
        .reference
        .named
        .iter()
        .map(|(name, v)| format!("\"{name}\":{v}"))
        .collect();
    let walls: Vec<String> = m
        .samples
        .iter()
        .map(|(traced, s)| format!("{{\"traced\":{traced},\"wall_s\":{}}}", s.wall_s))
        .collect();
    let stem = format!(
        "{OUT_DIR}/{}-seed{seed}-trace{}",
        spec.name,
        u8::from(args.trace)
    );
    let write = |path: String, body: String| {
        std::fs::write(&path, body).map_err(|e| format!("{path}: {e}"))
    };
    write(
        format!("{stem}.json"),
        format!(
            "{{\"machine\":{machine},\"config\":{config},\"counts\":{{{}}},\"samples\":[{}],\
             \"result\":{result}}}\n",
            counts.join(","),
            walls.join(",")
        ),
    )?;
    if args.trace {
        write(
            format!("{stem}-spans.json"),
            format!(
                "{{\"machine\":{machine},\"config\":{config},\"spans\":{}}}\n",
                m.spans.to_json()
            ),
        )?;
    }

    println!("perfbench {} seed {seed} ({role})", spec.name);
    println!("machine {machine}");
    println!("config  {config}");
    for &(name, unit) in metrics {
        let n = match name {
            "setup_s" | "remote.spawn_gather_s" if !m.setups.is_empty() => m.setups.len(),
            "rounds" | "verify.failed_frac" => attempted,
            "trace.overhead_frac" => traced + untraced,
            _ if args.trace => traced,
            _ => untraced,
        };
        let v = value(name).unwrap_or(0.0);
        println!("  {name:<28} {v:>16.6} {unit:<6} n={n}");
    }
    if args.trace {
        println!("self time per traced sample (median):");
        for (span, secs) in m.spans.self_times() {
            println!("  {span:<28} {secs:>16.6} s");
        }
    }
    println!("{result}");
    Ok(correct)
}
