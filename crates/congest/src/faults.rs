//! Deterministic fault injection at the cross-shard transport seam.
//!
//! Every executor in this crate is lock-step and loss-free, which only ever
//! exercises the happy path of a CONGEST algorithm.  This module turns the
//! [`Transport`] seam into an adversary:
//! [`FaultyTransport`] wraps any inner transport backend and applies
//! **seed-driven, fully reproducible** faults to the cross-shard messages
//! that pass through it —
//!
//! * **drop** — the message never arrives;
//! * **duplication** — a second, stale copy arrives one round late;
//! * **delay** — the message is carried across `1..=max_delay` round
//!   boundaries and arrives stale;
//! * **partition windows** — a shard pair exchanges nothing for a span of
//!   rounds (messages are dropped, or deferred to the window's end when
//!   retransmission is on);
//! * **retransmission** — a reliable-channel overlay that masks drop,
//!   duplication and delay (the message is delivered in its own round and
//!   the masked fault is logged as [`FaultKind::Retransmitted`]).
//!
//! Every decision is a pure function of `(plan.seed, round, shard pair,
//! staging index)`, so a failing run replays from the `(seed, fault-plan)`
//! pair alone — no event log needs to be shipped, although one is recorded
//! ([`FaultEvent`]) so that two runs can be compared byte for byte (the
//! determinism gate) and counterexamples can be reported with their exact
//! fault placement.
//!
//! Faulted runs must use [`DeliveryMode::Async`]
//! (see [`run_faulty`], which selects it automatically): stale copies
//! crossing a round boundary violate the one-message-per-edge-per-round
//! contract that [`DeliveryMode::Strict`] enforces by panicking.
//!
//! # Scope: the transport seam
//!
//! Faults apply to **cross-shard** messages only — intra-shard messages
//! never reach the transport (workers write them straight into their own
//! inbox slots).  To subject *every* edge of a graph to faults, shard the
//! topology so no edge is intra-shard (e.g. one node per shard on tiny
//! instances, or use enough shards that the cross-shard fraction is large).
//! The exhaustive explorer in [`crate::mc`] cuts its tiny instances one
//! node per shard, so that every edge crosses this layer, and places its
//! faults by a script instead of the seeded draw.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::executor::{DeliveryMode, ShardedExecutor};
use crate::sharded::ShardedTopology;
use crate::simulator::{RunOutcome, Simulator, SimulatorConfig};
use crate::topology::TopologyView;
use crate::trace::{TraceEvent, TraceSink};
use crate::transport::{Entry, Transport, TransportBuilder, TransportError, TransportMessage};
use crate::NodeAlgorithm;

/// Domain-separation constant for the fault decision stream (arbitrary odd
/// 64-bit constant, fixed forever for replay stability).
const FAULT_STREAM: u64 = 0x9e6c_63d1_7ab3_5b97;

/// The 64-bit finalizer of splitmix64: a bijective avalanche mixer.  Same
/// construction as the stateless per-`(seed, node, round)` streams the
/// randomized baselines use, duplicated here because `dcme_congest` sits
/// below them in the crate graph.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The deterministic per-message decision word: a pure function of the plan
/// seed, the round, the directed shard pair and the message's staging index
/// within that pair and round.
fn decision_word(seed: u64, round: u64, pair: u64, seq: u32) -> u64 {
    mix(mix(mix(mix(seed ^ FAULT_STREAM) ^ round) ^ pair) ^ seq as u64)
}

/// A symmetric shard-pair partition over a half-open round window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// One side of the partitioned pair.
    pub a: u16,
    /// The other side.
    pub b: u16,
    /// First partitioned round (inclusive).
    pub from_round: u64,
    /// First round after the window (exclusive).
    pub until_round: u64,
}

impl PartitionWindow {
    fn covers(&self, x: u16, y: u16, round: u64) -> bool {
        let pair = (self.a.min(self.b), self.a.max(self.b));
        (x.min(y), x.max(y)) == pair && (self.from_round..self.until_round).contains(&round)
    }
}

/// A complete, self-describing fault schedule.  Together with the graph and
/// the algorithm seed, a `FaultPlan` determines a faulted run bit for bit —
/// it round-trips through a compact spec string
/// ([`FaultPlan::to_spec`] / [`FaultPlan::from_spec`]) so counterexamples
/// can be replayed from a single CLI token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the per-message decision stream.
    pub seed: u64,
    /// Per-mille probability that a message is dropped.
    pub drop_per_mille: u16,
    /// Per-mille probability that a message is duplicated (the copy arrives
    /// one round late).
    pub dup_per_mille: u16,
    /// Per-mille probability that a message is delayed.
    pub delay_per_mille: u16,
    /// Maximum delay in rounds (each delayed message is carried across
    /// `1..=max_delay` round boundaries); `0` is treated as `1`.
    pub max_delay: u64,
    /// Whether the reliable-channel overlay masks drop/duplication/delay
    /// (and turns partition drops into deferrals).
    pub retransmit: bool,
    /// Shard-pair partition windows.
    pub partitions: Vec<PartitionWindow>,
}

impl FaultPlan {
    /// The empty plan: no faults, [`DeliveryMode::Strict`] semantics — a
    /// run through it is bit-for-bit identical to the unwrapped transport.
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            drop_per_mille: 0,
            dup_per_mille: 0,
            delay_per_mille: 0,
            max_delay: 1,
            retransmit: false,
            partitions: Vec::new(),
        }
    }

    /// Sets the drop probability (per mille).
    pub fn with_drop(mut self, per_mille: u16) -> Self {
        self.drop_per_mille = per_mille;
        self
    }

    /// Sets the duplication probability (per mille).
    pub fn with_duplication(mut self, per_mille: u16) -> Self {
        self.dup_per_mille = per_mille;
        self
    }

    /// Sets the delay probability (per mille) and the maximum delay.
    pub fn with_delay(mut self, per_mille: u16, max_delay: u64) -> Self {
        self.delay_per_mille = per_mille;
        self.max_delay = max_delay.max(1);
        self
    }

    /// Enables the reliable-channel (retransmission) overlay.
    pub fn with_retransmission(mut self) -> Self {
        self.retransmit = true;
        self
    }

    /// Adds a symmetric partition window between shards `a` and `b` over
    /// rounds `[from_round, until_round)`.
    pub fn with_partition(mut self, a: u16, b: u16, from_round: u64, until_round: u64) -> Self {
        self.partitions.push(PartitionWindow {
            a,
            b,
            from_round,
            until_round,
        });
        self
    }

    /// Whether the plan can never perturb a run (no fault class enabled).
    pub fn is_empty(&self) -> bool {
        self.drop_per_mille == 0
            && self.dup_per_mille == 0
            && self.delay_per_mille == 0
            && self.partitions.is_empty()
    }

    /// Whether the directed pair `from → to` is partitioned in `round`.
    pub fn is_partitioned(&self, from: u16, to: u16, round: u64) -> bool {
        self.partitions.iter().any(|w| w.covers(from, to, round))
    }

    /// The first round strictly after `round` in which `from → to` is not
    /// partitioned (where a deferred message can be delivered).
    fn partition_clear_round(&self, from: u16, to: u16, round: u64) -> u64 {
        let mut r = round + 1;
        while self.is_partitioned(from, to, r) {
            r += 1;
        }
        r
    }

    /// The seeded draw for the `seq`-th message staged from shard `from` to
    /// shard `to` in `round`: a pure function of them and the plan.  `None`
    /// delivers the message in its round.
    fn draw(&self, round: u64, from: u16, to: u16, seq: u32) -> Option<FaultKind> {
        if self.is_partitioned(from, to, round) {
            return Some(if self.retransmit {
                FaultKind::PartitionDeferred {
                    until_round: self.partition_clear_round(from, to, round),
                }
            } else {
                FaultKind::PartitionDropped
            });
        }
        let pair = ((from as u64) << 16) | to as u64;
        let word = decision_word(self.seed, round, pair, seq);
        let roll = (word % 1000) as u32;
        let drop_at = self.drop_per_mille as u32;
        let dup_at = drop_at + self.dup_per_mille as u32;
        let delay_at = dup_at + self.delay_per_mille as u32;
        if roll < delay_at && self.retransmit {
            // The overlay masks whatever fault was rolled.
            Some(FaultKind::Retransmitted)
        } else if roll < drop_at {
            Some(FaultKind::Dropped)
        } else if roll < dup_at {
            Some(FaultKind::Duplicated)
        } else if roll < delay_at {
            let rounds = 1 + (word >> 32) % self.max_delay.max(1);
            Some(FaultKind::Delayed { rounds })
        } else {
            None
        }
    }

    /// Renders the plan as a compact, order-stable spec string, e.g.
    /// `seed=42;drop=100;dup=0;delay=50/2;retransmit=1;part=0-1@2..5`.
    pub fn to_spec(&self) -> String {
        let mut s = format!(
            "seed={};drop={};dup={};delay={}/{};retransmit={}",
            self.seed,
            self.drop_per_mille,
            self.dup_per_mille,
            self.delay_per_mille,
            self.max_delay,
            u8::from(self.retransmit),
        );
        if !self.partitions.is_empty() {
            s.push_str(";part=");
            for (i, w) in self.partitions.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{}-{}@{}..{}",
                    w.a, w.b, w.from_round, w.until_round
                ));
            }
        }
        s
    }

    /// Parses a spec string produced by [`FaultPlan::to_spec`] (unknown or
    /// missing keys default to "off").
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::none(0);
        for field in spec.split(';').filter(|f| !f.is_empty()) {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("fault spec field without '=': {field:?}"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad fault spec field {field:?}: {e}");
            match key {
                "seed" => plan.seed = value.parse().map_err(|e| bad(&e))?,
                "drop" => plan.drop_per_mille = value.parse().map_err(|e| bad(&e))?,
                "dup" => plan.dup_per_mille = value.parse().map_err(|e| bad(&e))?,
                "delay" => {
                    let (p, d) = value
                        .split_once('/')
                        .ok_or_else(|| bad(&"expected per_mille/max_delay"))?;
                    plan.delay_per_mille = p.parse().map_err(|e| bad(&e))?;
                    plan.max_delay = d.parse::<u64>().map_err(|e| bad(&e))?.max(1);
                }
                "retransmit" => plan.retransmit = value == "1",
                "part" => {
                    for w in value.split(',').filter(|w| !w.is_empty()) {
                        let (pair, rounds) = w
                            .split_once('@')
                            .ok_or_else(|| bad(&"expected a-b@from..until"))?;
                        let (a, b) = pair
                            .split_once('-')
                            .ok_or_else(|| bad(&"expected a-b@from..until"))?;
                        let (from, until) = rounds
                            .split_once("..")
                            .ok_or_else(|| bad(&"expected a-b@from..until"))?;
                        plan.partitions.push(PartitionWindow {
                            a: a.parse().map_err(|e| bad(&e))?,
                            b: b.parse().map_err(|e| bad(&e))?,
                            from_round: from.parse().map_err(|e| bad(&e))?,
                            until_round: until.parse().map_err(|e| bad(&e))?,
                        });
                    }
                }
                other => return Err(format!("unknown fault spec key {other:?}")),
            }
        }
        Ok(plan)
    }
}

/// What happened to one cross-shard message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// The message was dropped and never arrives.
    Dropped,
    /// An extra, stale copy of the message arrives one round late (the
    /// original arrives normally).
    Duplicated,
    /// The message arrives `rounds` round boundaries late.
    Delayed {
        /// How many round boundaries the message crosses.
        rounds: u64,
    },
    /// A drop/duplication/delay decision was masked by the retransmission
    /// overlay: the message arrives normally, in its own round.
    Retransmitted,
    /// The message was dropped because its shard pair is partitioned.
    PartitionDropped,
    /// The message was deferred past a partition window (retransmission
    /// on): it arrives, stale, in `until_round`.
    PartitionDeferred {
        /// The round in which the deferred message is delivered.
        until_round: u64,
    },
}

/// One entry of the fault event log: a fully located fault decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultEvent {
    /// The round in which the message was sent.
    pub round: u64,
    /// The sending shard.
    pub from: u16,
    /// The receiving shard.
    pub to: u16,
    /// The message's staging index within `(from, to, round)`.
    pub seq: u32,
    /// The destination inbox slot (identifies the receiving edge port).
    pub slot: u32,
    /// The sending node.
    pub sender: u32,
    /// What happened.
    pub kind: FaultKind,
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "r{} {}→{} #{} slot {} from node {}: {:?}",
            self.round, self.from, self.to, self.seq, self.slot, self.sender, self.kind
        )
    }
}

/// Renders an event log as one line per event — the canonical form the
/// determinism gate compares byte for byte.
pub fn render_log(events: &[FaultEvent]) -> String {
    let mut s = String::new();
    for e in events {
        s.push_str(&e.to_string());
        s.push('\n');
    }
    s
}

/// A shared handle onto a [`FaultyTransport`]'s event log, cloneable before
/// the builder moves into an executor.
#[derive(Debug, Clone, Default)]
pub struct FaultLog {
    events: Arc<Mutex<Vec<FaultEvent>>>,
}

impl FaultLog {
    /// Takes the recorded events, sorted into the canonical
    /// `(round, from, to, seq)` order (worker interleaving makes the raw
    /// append order nondeterministic; the sorted log is byte-stable).
    pub fn take(&self) -> Vec<FaultEvent> {
        let mut events =
            std::mem::take(&mut *self.events.lock().unwrap_or_else(|e| e.into_inner()));
        events.sort();
        events
    }

    fn push(&self, e: FaultEvent) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(e);
    }
}

/// An optional shared [`TraceSink`] the fault layer mirrors its event log
/// into, as [`TraceEvent::Fault`] emissions.  `None` (the default) costs one
/// branch per *logged fault*, never per message.
#[derive(Clone, Default)]
struct FaultTracer(Option<Arc<dyn TraceSink + Send + Sync>>);

impl std::fmt::Debug for FaultTracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("FaultTracer")
            .field(&self.0.as_ref().map(|_| "dyn TraceSink"))
            .finish()
    }
}

impl FaultTracer {
    fn emit(&self, e: &FaultEvent) {
        if let Some(t) = &self.0 {
            if t.enabled() {
                t.emit(&TraceEvent::Fault {
                    round: e.round,
                    from: e.from as usize,
                    to: e.to as usize,
                    kind: e.kind,
                });
            }
        }
    }
}

/// The model checker's fates ([`crate::mc`]): the fault placed on the
/// message into each `(round, slot)`, every other message delivered in its
/// round, and every message the layer asked about, from every shard, as
/// `(round, sender, slot)`.
#[derive(Debug, Default)]
pub(crate) struct Script {
    pub(crate) faults: BTreeMap<(u64, u32), FaultKind>,
    pub(crate) sent: Vec<(u64, u32, u32)>,
}

/// A [`TransportBuilder`] that wraps any inner backend with the
/// seed-deterministic fault layer described in the [module docs](self).
///
/// With an empty plan the layer is a pure pass-through: it forwards every
/// staged message in its exact staging order, so runs are bit-for-bit
/// identical to the unwrapped backend (outputs, rounds, messages, wire
/// bytes) — pinned by the zero-fault regression in
/// `tests/executor_equivalence.rs`.
#[derive(Debug, Clone, Default)]
pub struct FaultyTransport<B: TransportBuilder = crate::transport::InProcess> {
    plan: FaultPlan,
    /// Takes the plan's place when set.
    script: Option<Arc<Mutex<Script>>>,
    inner: B,
    log: FaultLog,
    tracer: FaultTracer,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none(0)
    }
}

impl<B: TransportBuilder> FaultyTransport<B> {
    /// Wraps `inner` with the faults of `plan`.
    pub fn new(plan: FaultPlan, inner: B) -> Self {
        Self {
            plan,
            script: None,
            inner,
            log: FaultLog::default(),
            tracer: FaultTracer::default(),
        }
    }

    /// Wraps `inner` with the faults `script` places.
    pub(crate) fn scripted(script: Arc<Mutex<Script>>, inner: B) -> Self {
        Self {
            script: Some(script),
            ..Self::new(FaultPlan::default(), inner)
        }
    }

    /// A handle onto the event log, to keep after the builder moves into a
    /// [`ShardedExecutor`].
    pub fn log(&self) -> FaultLog {
        self.log.clone()
    }

    /// Mirrors every logged fault decision into `tracer` as a
    /// [`TraceEvent::Fault`], in addition to the event log.
    ///
    /// The sink is shared (`Arc`) because the builder is cloned into worker
    /// threads; like every trace seam, it is strictly out-of-band — the
    /// fault decisions, the log and the run outcome are unaffected.
    pub fn with_tracer(mut self, tracer: Arc<dyn TraceSink + Send + Sync>) -> Self {
        self.tracer = FaultTracer(Some(tracer));
        self
    }
}

impl<B: TransportBuilder> TransportBuilder for FaultyTransport<B> {
    type Transport<M: TransportMessage> = FaultyLayer<B::Transport<M>, M>;

    fn build<M: TransportMessage>(
        &self,
        topology: &ShardedTopology,
    ) -> std::io::Result<Vec<Self::Transport<M>>> {
        let shards = topology.num_shards();
        Ok(self
            .inner
            .build::<M>(topology)?
            .into_iter()
            .enumerate()
            .map(|(shard, inner)| FaultyLayer {
                shard,
                plan: self.plan.clone(),
                script: self.script.clone(),
                log: self.log.clone(),
                tracer: self.tracer.clone(),
                pend: (0..shards).map(|_| Vec::new()).collect(),
                future: (0..shards).map(|_| BTreeMap::new()).collect(),
                inner,
            })
            .collect())
    }
}

/// Messages held for one destination shard: `(slot, sender, message)`.
type Staged<M> = Vec<(u32, u32, M)>;

/// Deferred deliveries of one shard pair, keyed by the round they land in.
type FutureCell<M> = BTreeMap<u64, Staged<M>>;

/// One shard's endpoint of the fault layer produced by [`FaultyTransport`],
/// wrapping that shard's inner endpoint.  Holds each round's staged
/// messages back until `flush`, where the per-message fault decisions are
/// taken, from the plan's seeded draw or from a script of placements;
/// delayed/duplicated copies wait in a per-destination future map keyed by
/// their delivery round.
#[derive(Debug)]
pub struct FaultyLayer<T, M> {
    shard: usize,
    plan: FaultPlan,
    script: Option<Arc<Mutex<Script>>>,
    log: FaultLog,
    tracer: FaultTracer,
    /// This round's staged messages per destination shard.
    pend: Vec<Staged<M>>,
    /// Scheduled stale deliveries per destination shard, keyed by delivery
    /// round.
    future: Vec<FutureCell<M>>,
    inner: T,
}

impl<T: Transport<M>, M: TransportMessage> Transport<M> for FaultyLayer<T, M> {
    fn stage(&mut self, to: usize, slot: u32, sender: u32, msg: M) {
        self.pend[to].push((slot, sender, msg));
    }

    fn flush(&mut self, round: u64) -> u64 {
        let from = self.shard;
        for to in 0..self.pend.len() {
            if to == from {
                continue;
            }
            // Stale copies scheduled for this round go to the inner
            // transport *before* this round's fresh messages, so that under
            // async delivery the fresh message wins any slot collision.
            for (slot, sender, msg) in self.future[to].remove(&round).into_iter().flatten() {
                self.inner.stage(to, slot, sender, msg);
            }
            let staged = std::mem::take(&mut self.pend[to]);
            for (seq, (slot, sender, msg)) in staged.into_iter().enumerate() {
                let seq = seq as u32;
                let Some(kind) = self.fate(round, to as u16, seq, slot, sender) else {
                    self.inner.stage(to, slot, sender, msg);
                    continue;
                };
                match kind {
                    FaultKind::Dropped | FaultKind::PartitionDropped => {}
                    FaultKind::Duplicated => {
                        self.schedule(to, round + 1, slot, sender, msg.clone());
                        self.inner.stage(to, slot, sender, msg);
                    }
                    FaultKind::Delayed { rounds } => {
                        self.schedule(to, round + rounds, slot, sender, msg)
                    }
                    FaultKind::PartitionDeferred { until_round } => {
                        self.schedule(to, until_round, slot, sender, msg)
                    }
                    FaultKind::Retransmitted => self.inner.stage(to, slot, sender, msg),
                }
                self.record(FaultEvent {
                    round,
                    from: from as u16,
                    to: to as u16,
                    seq,
                    slot,
                    sender,
                    kind,
                });
            }
        }
        self.inner.flush(round)
    }

    fn drain(&mut self, round: u64, sink: &mut dyn FnMut(Entry<M>)) -> Result<(), TransportError> {
        self.inner.drain(round, sink)
    }

    fn syscall_batches(&self) -> u64 {
        self.inner.syscall_batches()
    }
}

impl<T, M> FaultyLayer<T, M> {
    /// The layer's one per-message decision: what becomes of the `seq`-th
    /// message staged for shard `to` in `round`, sent by `sender` into
    /// `slot`.  `None` delivers it in its round.
    fn fate(&self, round: u64, to: u16, seq: u32, slot: u32, sender: u32) -> Option<FaultKind> {
        let Some(script) = &self.script else {
            return self.plan.draw(round, self.shard as u16, to, seq);
        };
        let mut script = script.lock().unwrap_or_else(|e| e.into_inner());
        script.sent.push((round, sender, slot));
        script.faults.get(&(round, slot)).copied()
    }

    /// Logs one fault decision and mirrors it to the attached trace sink.
    fn record(&self, e: FaultEvent) {
        self.tracer.emit(&e);
        self.log.push(e);
    }

    fn schedule(&mut self, to: usize, round: u64, slot: u32, sender: u32, msg: M) {
        self.future[to]
            .entry(round)
            .or_default()
            .push((slot, sender, msg));
    }
}

/// The result of a fault-injected run: the run outcome (with the fault
/// counters of [`RunMetrics`](crate::RunMetrics) filled in), the canonical sorted event log,
/// and whether every node declared async-delivery tolerance.
#[derive(Debug)]
pub struct FaultyRun<O> {
    /// Outputs and metrics of the run.
    pub outcome: RunOutcome<O>,
    /// The sorted fault event log (see [`render_log`]).
    pub events: Vec<FaultEvent>,
    /// Whether all nodes returned `true` from
    /// [`NodeAlgorithm::tolerates_async_delivery`] — used by the fault
    /// harness to classify an invariant violation as expected (the
    /// algorithm never claimed to survive this regime) or as a bug.
    pub declared_tolerant: bool,
}

/// Runs `nodes` on `topology` under the faults of `plan`, over `inner` as
/// the underlying backend.  Selects [`DeliveryMode::Async`] exactly when
/// the plan is non-empty, records the sorted event log, and fills the
/// fault counters of [`RunMetrics`](crate::RunMetrics) from it.
pub fn run_faulty<A: NodeAlgorithm, B: TransportBuilder>(
    topology: &ShardedTopology,
    nodes: Vec<A>,
    plan: &FaultPlan,
    inner: B,
    max_rounds: u64,
) -> FaultyRun<A::Output> {
    let declared_tolerant = nodes.iter().all(|n| n.tolerates_async_delivery());
    let delivery = if plan.is_empty() {
        DeliveryMode::Strict
    } else {
        DeliveryMode::Async
    };
    let builder = FaultyTransport::new(plan.clone(), inner);
    let log = builder.log();
    let config = SimulatorConfig {
        max_rounds,
        ..SimulatorConfig::default()
    };
    let mut outcome = Simulator::with_config(topology, config).run_with_executor(
        nodes,
        &ShardedExecutor::with_transport(builder).with_delivery(delivery),
    );
    let events = log.take();
    for e in &events {
        match e.kind {
            FaultKind::Dropped | FaultKind::PartitionDropped => outcome.metrics.faults_dropped += 1,
            FaultKind::Duplicated => outcome.metrics.faults_duplicated += 1,
            FaultKind::Delayed { .. } | FaultKind::PartitionDeferred { .. } => {
                outcome.metrics.faults_delayed += 1
            }
            FaultKind::Retransmitted => outcome.metrics.faults_retransmitted += 1,
        }
    }
    FaultyRun {
        outcome,
        events,
        declared_tolerant,
    }
}

/// A violated coloring invariant, located for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantViolation {
    /// Two adjacent nodes ended with the same color.
    ImproperEdge {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
        /// The shared color.
        color: u64,
    },
    /// A node produced no color (only reported when completeness is
    /// required, i.e. the run was expected to terminate).
    Unfinished {
        /// The uncolored node.
        node: usize,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::ImproperEdge { u, v, color } => {
                write!(f, "adjacent nodes {u} and {v} share color {color}")
            }
            InvariantViolation::Unfinished { node } => {
                write!(f, "node {node} finished without a color")
            }
        }
    }
}

/// Checks a coloring for properness (and, if `require_all`, completeness):
/// the invariant every fault-injection harness in this repo asserts.
pub fn check_coloring<T: TopologyView>(
    topology: &T,
    colors: &[Option<u64>],
    require_all: bool,
) -> Option<InvariantViolation> {
    for v in 0..topology.num_nodes() {
        match colors[v] {
            None if require_all => return Some(InvariantViolation::Unfinished { node: v }),
            None => {}
            Some(c) => {
                for p in 0..topology.degree(v) {
                    let u = topology.neighbor_at(v, p);
                    if u > v && colors[u] == Some(c) {
                        return Some(InvariantViolation::ImproperEdge {
                            u: v,
                            v: u,
                            color: c,
                        });
                    }
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{Inbox, NodeContext, Outbox};
    use crate::topology::Topology;
    use crate::transport::InProcess;

    /// Gossip with per-node ttl, as in the transport tests.
    #[derive(Clone)]
    struct Gossip {
        id: u64,
        ttl: u64,
        digest: u64,
        rounds_done: u64,
    }

    impl NodeAlgorithm for Gossip {
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

        fn tolerates_async_delivery(&self) -> bool {
            true
        }
    }

    fn ring(n: usize) -> Topology {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Topology::from_edges(n, &edges).unwrap()
    }

    fn mk(n: usize) -> Vec<Gossip> {
        (0..n)
            .map(|_| Gossip {
                id: 0,
                ttl: 6,
                digest: 0,
                rounds_done: 0,
            })
            .collect()
    }

    #[test]
    fn spec_round_trips() {
        let plan = FaultPlan::none(42)
            .with_drop(100)
            .with_delay(50, 3)
            .with_retransmission()
            .with_partition(0, 1, 2, 5)
            .with_partition(1, 2, 0, 4);
        let spec = plan.to_spec();
        assert_eq!(FaultPlan::from_spec(&spec).unwrap(), plan);
        assert_eq!(
            spec,
            "seed=42;drop=100;dup=0;delay=50/3;retransmit=1;part=0-1@2..5,1-2@0..4"
        );
        let empty = FaultPlan::none(7);
        assert_eq!(FaultPlan::from_spec(&empty.to_spec()).unwrap(), empty);
        assert!(FaultPlan::from_spec("drop=x").is_err());
        assert!(FaultPlan::from_spec("mystery=1").is_err());
        assert!(FaultPlan::from_spec("part=0-1@2").is_err());
    }

    #[test]
    fn empty_plan_is_a_pass_through() {
        let dense = ring(12);
        let g = ShardedTopology::from_topology(&dense, 3).unwrap();
        let plain = Simulator::new(&g).run_with_executor(mk(12), &ShardedExecutor::new());
        let faulty = run_faulty(&g, mk(12), &FaultPlan::none(9), InProcess, 1_000_000);
        assert!(faulty.events.is_empty());
        assert_eq!(plain.outputs, faulty.outcome.outputs);
        assert_eq!(plain.metrics.messages, faulty.outcome.metrics.messages);
        assert_eq!(plain.metrics.rounds, faulty.outcome.metrics.rounds);
        assert_eq!(faulty.outcome.metrics.faults_dropped, 0);
        assert_eq!(faulty.outcome.metrics.stale_overwrites, 0);
    }

    /// One faulted run with the wall-clock timings zeroed: they are the one
    /// exemption from byte-identity, as everywhere else in the
    /// executor-equivalence contract.
    fn timeless_run<B: TransportBuilder>(
        g: &ShardedTopology,
        plan: &FaultPlan,
        inner: B,
    ) -> FaultyRun<u64> {
        let mut r = run_faulty(g, mk(g.num_nodes()), plan, inner, 1_000_000);
        r.outcome.metrics.phase_nanos = Default::default();
        r.outcome.metrics.shard_phase_nanos.clear();
        r.outcome.metrics.transport_flush_nanos = 0;
        r
    }

    /// A plan replays byte for byte, and over the socket backend too: the
    /// fault layer takes the same decisions in the same order on every
    /// backend, and every backend drains senders in the same order.
    #[test]
    fn identical_plans_yield_byte_identical_logs_and_metrics() {
        let dense = ring(14);
        let g = ShardedTopology::from_topology(&dense, 4).unwrap();
        let plan = FaultPlan::none(1234)
            .with_drop(150)
            .with_duplication(100)
            .with_delay(100, 2)
            .with_partition(0, 2, 1, 3);
        let (a, b) = (
            timeless_run(&g, &plan, InProcess),
            timeless_run(&g, &plan, InProcess),
        );
        assert!(!a.events.is_empty(), "plan must actually fire");
        assert_eq!(render_log(&a.events), render_log(&b.events));
        assert_eq!(a.outcome.outputs, b.outcome.outputs);
        assert_eq!(
            a.outcome.metrics.to_json("determinism"),
            b.outcome.metrics.to_json("determinism")
        );
        #[cfg(unix)]
        {
            let mut s = timeless_run(&g, &plan, crate::transport::SocketLoopback::unix());
            assert_eq!(render_log(&a.events), render_log(&s.events));
            assert_eq!(a.outcome.outputs, s.outcome.outputs);
            // The wire counters describe the backend; every other counter,
            // `stale_overwrites` included, is logical.
            assert!(s.outcome.metrics.wire_bytes_sent > 0);
            s.outcome.metrics.wire_bytes_sent = 0;
            s.outcome.metrics.syscall_batches = 0;
            assert_eq!(
                a.outcome.metrics.to_json("determinism"),
                s.outcome.metrics.to_json("determinism")
            );
        }
    }

    #[test]
    fn retransmission_masks_drop_and_delay() {
        let dense = ring(14);
        let g = ShardedTopology::from_topology(&dense, 4).unwrap();
        let plan = FaultPlan::none(77).with_drop(200).with_delay(200, 3);
        let masked = run_faulty(
            &g,
            mk(14),
            &plan.clone().with_retransmission(),
            InProcess,
            1_000_000,
        );
        let clean = run_faulty(&g, mk(14), &FaultPlan::none(77), InProcess, 1_000_000);
        assert!(masked.outcome.metrics.faults_retransmitted > 0);
        assert_eq!(masked.outcome.metrics.faults_dropped, 0);
        assert_eq!(masked.outcome.metrics.faults_delayed, 0);
        assert_eq!(
            masked.outcome.outputs, clean.outcome.outputs,
            "a fully retransmitted run behaves like a fault-free one"
        );
    }

    #[test]
    fn partitions_drop_or_defer_by_retransmission() {
        let dense = ring(8);
        let g = ShardedTopology::from_topology(&dense, 2).unwrap();
        let plan = FaultPlan::none(5).with_partition(0, 1, 0, 2);
        let dropped = run_faulty(&g, mk(8), &plan, InProcess, 1_000_000);
        assert!(dropped.outcome.metrics.faults_dropped > 0);
        assert_eq!(dropped.outcome.metrics.faults_delayed, 0);
        let deferred = run_faulty(
            &g,
            mk(8),
            &plan.clone().with_retransmission(),
            InProcess,
            1_000_000,
        );
        assert!(deferred.outcome.metrics.faults_delayed > 0);
        assert_eq!(deferred.outcome.metrics.faults_dropped, 0);
        assert!(deferred
            .events
            .iter()
            .all(|e| matches!(e.kind, FaultKind::PartitionDeferred { until_round: 2 })));
    }

    #[test]
    fn duplicates_arrive_stale_and_are_counted_as_overwrites() {
        let dense = ring(10);
        let g = ShardedTopology::from_topology(&dense, 5).unwrap();
        let plan = FaultPlan::none(31).with_duplication(1000);
        let run = run_faulty(&g, mk(10), &plan, InProcess, 1_000_000);
        assert!(run.outcome.metrics.faults_duplicated > 0);
        assert!(
            run.outcome.metrics.stale_overwrites > 0,
            "every duplicated copy collides with the next round's fresh message"
        );
        assert!(run.declared_tolerant);
    }

    #[test]
    fn coloring_checker_locates_violations() {
        let g = ring(4);
        assert_eq!(
            check_coloring(&g, &[Some(0), Some(1), Some(0), Some(1)], true),
            None
        );
        assert_eq!(
            check_coloring(&g, &[Some(0), Some(0), Some(1), Some(1)], false),
            Some(InvariantViolation::ImproperEdge {
                u: 0,
                v: 1,
                color: 0
            })
        );
        assert_eq!(
            check_coloring(&g, &[Some(0), None, Some(0), Some(1)], true),
            Some(InvariantViolation::Unfinished { node: 1 })
        );
        assert_eq!(
            check_coloring(&g, &[Some(0), None, Some(0), Some(1)], false),
            None
        );
    }
}
