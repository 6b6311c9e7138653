//! Node-range shards of the port-numbered communication graph, for
//! `n ≥ 10^7` graphs and shard-parallel execution.
//!
//! [`ShardedTopology`] is a [`Topology`] cut into `S` contiguous node-range
//! *shards*.  It adds two things:
//!
//! * **Streaming construction** — [`ShardedTopology::from_edge_stream`]
//!   consumes the edge list as a replayable *stream* (two passes: degree
//!   counting, then the row fill of the crate's one CSR builder), so no
//!   global `Vec<(NodeId, NodeId)>` is ever materialised; with a
//!   [`ShardPlan`], a worker builds only its own shard
//!   ([`ShardSliceTopology::build`]).
//! * **Shard ownership** — every shard owns a contiguous range of nodes
//!   *and* the contiguous range of inbox slots of exactly those nodes, so
//!   the [`ShardedExecutor`](crate::executor::ShardedExecutor) can give each
//!   worker thread exclusive, lock-free ownership of one shard's slots and
//!   exchange only cross-shard messages through staging queues.
//!
//! # Shard layout
//!
//! Nodes are split into `S` contiguous ranges chosen to balance
//! `deg(v) + 1` (directed edges plus active-set weight) across shards:
//!
//! ```text
//! nodes:  [0 ─────────┬──────────┬───────────── n)
//!          shard 0    shard 1    shard 2
//! slots:  [0 ─────────┬──────────┬───────────── 2m)
//!          slots of    slots of   slots of
//!          shard 0's   shard 1's  shard 2's
//!          nodes       nodes      nodes
//! ```
//!
//! Because the flat slot contract of [`TopologyView`] assigns slot ranges
//! in ascending node order, the shard's node range induces its slot range;
//! both are recorded in prefix arrays (`node_start` / `slot_start`), and
//! every [`TopologyView`] query goes straight to the [`Topology`].
//!
//! # The destination table
//!
//! Delivering a message sent by `v` over port `p` requires the *global
//! slot* of the receiving endpoint, `port_range(u).start + reverse_port(v,
//! p)` for the neighbour `u` behind `p`.  The crate's one CSR stores it as
//! a `u32` per directed edge ([`TopologyView::dest_slots`]), written by the
//! builder's reverse pass, and the flat slot contract does not depend on
//! the cut, so sharding a built graph copies the table as it is.  Senders
//! either write the slot directly (intra-shard per-port messages) or
//! enqueue the pair `(slot, message)` for the owning worker (cross-shard).
//! A node's row of the table ascends, so its ports into one shard are one
//! run of it ([`ShardTopologyView::dest_row`]): an in-process broadcast
//! crosses to that shard as one entry.  Each kernel that keeps a value for
//! the sender (its own shard's always) stores it once, and each receiver
//! pulls it through its *source row* ([`ShardTopologyView::source_row`]:
//! the neighbour behind each port); any other kernel writes it into the
//! sender's run of slots there.  A worker slice stores both rows of its
//! own shard's nodes only ([`ShardTopologyView::row_nodes`]), and its
//! cross-shard messages arrive from the wire, one entry per edge, into
//! slots.

use serde::{Deserialize, Serialize};

use crate::csr::{self, RankedRows, INDEX_LIMIT};
use crate::topology::{NodeId, Port, Topology, TopologyError, TopologyView};
use crate::wire::{get_u32, get_u64, put_u32, put_u64, WireError};

/// The result of construction **pass 1** over an edge stream: validated
/// shard boundaries plus the full per-node degree header.
///
/// This is the compact *topology header* of the scale-out protocol.  The
/// coordinator runs pass 1 exactly once, ships the plan as `Topology` wire
/// frames (via [`ShardPlan::to_bytes`]), and each worker combines the plan
/// with its own replay of the edge stream to build just its shard's slice
/// ([`ShardSliceTopology::build`]) — no process ever materialises the whole
/// CSR.  [`ShardedTopology::from_edge_stream`] feeds the same plan into
/// pass 2 ([`ShardedTopology::from_plan`]), so restricted and full builds
/// agree bit for bit.
///
/// Serialized size is `24 + 16(S + 1) + 4n` bytes: the degree array
/// dominates, and is exactly what makes every destination slot
/// reconstructible locally without shipping `O(m)` edge data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    n: usize,
    num_edges: usize,
    max_degree: u32,
    /// Shard `s` owns nodes `node_start[s]..node_start[s + 1]`.
    node_start: Vec<usize>,
    /// Shard `s` owns flat slots `slot_start[s]..slot_start[s + 1]`.
    slot_start: Vec<usize>,
    /// Degree of every node — the header that lets any worker recompute any
    /// node's port-range start with one local prefix sum.
    degree: Vec<u32>,
}

impl ShardPlan {
    /// Runs construction pass 1: validates the stream's endpoints, counts
    /// degrees and chooses shard boundaries balancing `deg(v) + 1` weight.
    ///
    /// `stream` is invoked exactly **once** here; combine the plan with
    /// further replays via [`ShardedTopology::from_plan`] (full build) or
    /// [`ShardSliceTopology::build`] (one shard only).
    ///
    /// # Errors
    ///
    /// Exactly the pass-1 subset of
    /// [`ShardedTopology::from_edge_stream`]'s errors:
    /// [`TopologyError::ShardCountZero`],
    /// [`TopologyError::NodeRangeOverflow`],
    /// [`TopologyError::NodeOutOfRange`] and [`TopologyError::SelfLoop`]
    /// (duplicate edges are caught in pass 2, which sorts the port lists).
    pub fn from_edge_stream<F>(
        n: usize,
        num_shards: usize,
        stream: F,
    ) -> Result<Self, TopologyError>
    where
        F: FnMut(&mut dyn FnMut(NodeId, NodeId)),
    {
        if num_shards == 0 {
            return Err(TopologyError::ShardCountZero);
        }
        let (degree, num_edges) = csr::count_degrees(n, stream)?;
        Ok(Self::cut(degree, num_edges, num_shards))
    }

    /// Chooses the boundaries of `num_shards` shards of a graph with these
    /// degrees, balancing `deg(v) + 1` per shard.
    fn cut(degree: Vec<u32>, num_edges: usize, num_shards: usize) -> Self {
        let n = degree.len();
        // The weight deg(v) + 1 balances both slot ownership (delivery
        // work) and node ownership (send/receive work); the +1 also keeps
        // the split sensible on edgeless graphs.
        let total_weight = 2 * num_edges + n;
        let mut node_start = Vec::with_capacity(num_shards + 1);
        let mut slot_start = Vec::with_capacity(num_shards + 1);
        node_start.push(0);
        slot_start.push(0);
        let mut acc_weight: usize = 0;
        let mut acc_slots: usize = 0;
        let mut next_cut = 1usize;
        for (v, &d) in degree.iter().enumerate() {
            acc_weight += d as usize + 1;
            acc_slots += d as usize;
            // Close shard `next_cut - 1` once its fair share of weight is
            // reached; several cuts can land on one node for tiny graphs.
            while next_cut < num_shards && acc_weight * num_shards >= next_cut * total_weight {
                node_start.push(v + 1);
                slot_start.push(acc_slots);
                next_cut += 1;
            }
        }
        // Degenerate graphs (or more shards than weight): pad with empty
        // shards at the end.
        while node_start.len() < num_shards {
            node_start.push(n);
            slot_start.push(2 * num_edges);
        }
        node_start.push(n);
        slot_start.push(2 * num_edges);

        let max_degree = degree.iter().copied().max().unwrap_or(0);
        Self {
            n,
            num_edges,
            max_degree,
            node_start,
            slot_start,
            degree,
        }
    }

    /// Number of nodes of the planned graph.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of shards `S`.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.node_start.len() - 1
    }

    /// Number of undirected edges the stream emitted.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Maximum degree Δ.
    #[inline]
    pub fn max_degree(&self) -> u32 {
        self.max_degree
    }

    /// The contiguous node range owned by shard `s`.
    #[inline]
    pub fn shard_nodes(&self, s: usize) -> core::ops::Range<NodeId> {
        self.node_start[s]..self.node_start[s + 1]
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.degree[v] as usize
    }

    /// Serializes the plan into the payload bytes of `Topology` wire frames
    /// (little-endian, fixed layout — see the struct docs for the size).
    pub fn to_bytes(&self) -> Vec<u8> {
        let s = self.num_shards();
        let mut out = Vec::with_capacity(24 + 16 * (s + 1) + 4 * self.n);
        put_u64(&mut out, self.n as u64);
        put_u64(&mut out, self.num_edges as u64);
        put_u32(&mut out, self.max_degree);
        put_u32(&mut out, s as u32);
        for &x in &self.node_start {
            put_u64(&mut out, x as u64);
        }
        for &x in &self.slot_start {
            put_u64(&mut out, x as u64);
        }
        for &d in &self.degree {
            put_u32(&mut out, d);
        }
        out
    }

    /// Decodes a plan serialized by [`ShardPlan::to_bytes`], re-validating
    /// every structural invariant (lengths, monotone boundaries, degree
    /// sums) so a corrupted or forged frame is reported as a [`WireError`],
    /// never trusted.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let n = get_u64(bytes, 0)? as usize;
        let num_edges = get_u64(bytes, 8)? as usize;
        let max_degree = get_u32(bytes, 16)?;
        let s = get_u32(bytes, 20)? as usize;
        if n > INDEX_LIMIT {
            return Err(WireError::BadLength {
                len: n,
                limit: INDEX_LIMIT,
            });
        }
        if s == 0 {
            return Err(WireError::BadLength { len: 0, limit: 0 });
        }
        // Length check before any O(n)/O(S) allocation: the input itself
        // bounds what we allocate.
        let expected = 24 + 16 * (s + 1) + 4 * n;
        if bytes.len() < expected {
            return Err(WireError::Truncated {
                needed: expected,
                got: bytes.len(),
            });
        }
        if bytes.len() > expected {
            return Err(WireError::TrailingBytes(bytes.len() - expected));
        }
        let mut at = 24;
        let mut node_start = Vec::with_capacity(s + 1);
        for _ in 0..=s {
            node_start.push(get_u64(bytes, at)? as usize);
            at += 8;
        }
        let mut slot_start = Vec::with_capacity(s + 1);
        for _ in 0..=s {
            slot_start.push(get_u64(bytes, at)? as usize);
            at += 8;
        }
        let mut degree = Vec::with_capacity(n);
        for _ in 0..n {
            degree.push(get_u32(bytes, at)?);
            at += 4;
        }
        // Structural invariants: boundaries are monotone prefix arrays that
        // cover [0, n) / [0, 2m), 2m fits the u32 slots as in every pass-1
        // plan, and the slot widths equal the degree sums of the node ranges
        // they claim.
        let ok_bounds = node_start[0] == 0
            && slot_start[0] == 0
            && node_start[s] == n
            && num_edges <= INDEX_LIMIT / 2
            && 2 * num_edges == slot_start[s]
            && node_start.windows(2).all(|w| w[0] <= w[1])
            && slot_start.windows(2).all(|w| w[0] <= w[1]);
        if !ok_bounds {
            return Err(WireError::NonCanonical);
        }
        // Every boundary sitting at node `v` must cut the slot space at
        // the degree prefix sum (several can, for empty shards).
        let mut acc: usize = 0;
        let mut k = 0usize;
        for (v, &d) in degree.iter().enumerate() {
            while k <= s && node_start[k] == v {
                if slot_start[k] != acc {
                    return Err(WireError::NonCanonical);
                }
                k += 1;
            }
            acc += d as usize;
        }
        while k <= s && node_start[k] == n {
            if slot_start[k] != acc {
                return Err(WireError::NonCanonical);
            }
            k += 1;
        }
        if k != s + 1 || degree.iter().copied().max().unwrap_or(0) != max_degree {
            return Err(WireError::NonCanonical);
        }
        Ok(Self {
            n,
            num_edges,
            max_degree,
            node_start,
            slot_start,
            degree,
        })
    }
}

/// A port-numbered communication graph cut into node-range shards (see the
/// [module docs](self) for the layout).
///
/// Implements [`TopologyView`], so it runs under every executor; the
/// [`ShardedExecutor`](crate::executor::ShardedExecutor) additionally
/// exploits the shard structure for parallel delivery.
///
/// # Examples
///
/// ```
/// use dcme_congest::{ShardedTopology, TopologyView};
/// // A triangle, split into 2 shards.
/// let g = ShardedTopology::from_edge_stream(3, 2, |emit| {
///     emit(0, 1);
///     emit(1, 2);
///     emit(2, 0);
/// })
/// .unwrap();
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_shards(), 2);
/// assert_eq!(g.num_directed_edges(), 6);
/// assert_eq!(g.degree(1), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardedTopology {
    topology: Topology,
    /// Shard `s` owns nodes `node_start[s]..node_start[s + 1]` (length
    /// `S + 1`, ascending, `node_start[S] == n`).
    node_start: Vec<usize>,
    /// Shard `s` owns flat slots `slot_start[s]..slot_start[s + 1]`.
    slot_start: Vec<usize>,
}

impl ShardedTopology {
    /// Builds a sharded topology from a replayable edge stream.
    ///
    /// `stream` is invoked exactly **twice** and must emit the same sequence
    /// of undirected edges on both invocations (pass 1 counts degrees and
    /// chooses shard boundaries, pass 2 fills the rows).  Deterministic
    /// generators satisfy this by construction; randomized ones by
    /// re-seeding their RNG inside the closure.
    ///
    /// Peak memory is the final CSR plus `O(n)` scratch — the edge list is
    /// never materialised.
    ///
    /// # Errors
    ///
    /// * [`TopologyError::ShardCountZero`] if `num_shards == 0`;
    /// * [`TopologyError::NodeRangeOverflow`] if `n` or the directed-edge
    ///   count exceeds `u32::MAX`;
    /// * [`TopologyError::NodeOutOfRange`] / [`TopologyError::SelfLoop`] /
    ///   [`TopologyError::DuplicateEdge`] exactly as
    ///   [`Topology::from_edges`] reports them: the first out-of-range
    ///   endpoint or self-loop in stream order, otherwise the
    ///   lexicographically smallest edge emitted twice.
    pub fn from_edge_stream<F>(
        n: usize,
        num_shards: usize,
        mut stream: F,
    ) -> Result<Self, TopologyError>
    where
        F: FnMut(&mut dyn FnMut(NodeId, NodeId)),
    {
        let plan = ShardPlan::from_edge_stream(n, num_shards, &mut stream)?;
        Self::from_plan(&plan, stream)
    }

    /// Construction **pass 2**: builds every row, sorted, with its row of
    /// the destination table, given a pass-1 [`ShardPlan`] and one more
    /// replay of the same edge stream.
    ///
    /// This is the full-build counterpart of [`ShardSliceTopology::build`];
    /// [`ShardedTopology::from_edge_stream`] is the convenience wrapper
    /// running both passes.
    ///
    /// # Errors
    ///
    /// * [`TopologyError::PlanMismatch`] if the replay does not emit exactly
    ///   the edges the plan counted;
    /// * otherwise [`TopologyError::DuplicateEdge`] for the
    ///   lexicographically smallest edge the stream emits twice.
    pub fn from_plan<F>(plan: &ShardPlan, stream: F) -> Result<Self, TopologyError>
    where
        F: FnMut(&mut dyn FnMut(NodeId, NodeId)),
    {
        let csr = csr::build(&plan.degree, 0..plan.n, Some, 0..plan.n, stream)?;
        Ok(Self {
            topology: Topology::from_csr(csr, plan.num_edges),
            node_start: plan.node_start.clone(),
            slot_start: plan.slot_start.clone(),
        })
    }

    /// Shards an already-built topology view — a [`Topology`], or another
    /// `ShardedTopology` to re-shard it (used by
    /// [`ExecutionMode::Parallel`](crate::ExecutionMode::Parallel), and for
    /// workloads whose graph already fits in one arena).
    ///
    /// The flat slot contract does not depend on the cut, so the
    /// [`Topology`] behind the view ([`TopologyView::whole`]) is cloned as
    /// it is: no replay, no sort.  The result is structurally identical to
    /// the source — same port numbering, same flat slots — and runs are
    /// bit-for-bit reproducible across the representations.
    ///
    /// # Errors
    ///
    /// [`TopologyError::ShardCountZero`] and
    /// [`TopologyError::NodeRangeOverflow`] as in
    /// [`ShardedTopology::from_edge_stream`]; the view itself is trusted,
    /// as every in-crate view is validated when built.
    pub fn from_topology(
        topology: &impl TopologyView,
        num_shards: usize,
    ) -> Result<Self, TopologyError> {
        if num_shards == 0 {
            return Err(TopologyError::ShardCountZero);
        }
        let g = topology.whole();
        let (n, slots) = (g.num_nodes(), g.num_directed_edges());
        if let Some(value) = [n, slots].into_iter().find(|&x| x > INDEX_LIMIT) {
            let limit = INDEX_LIMIT;
            return Err(TopologyError::NodeRangeOverflow { value, limit });
        }
        let degree = (0..n).map(|v| g.degree(v) as u32).collect();
        let plan = ShardPlan::cut(degree, g.num_edges(), num_shards);
        Ok(Self {
            topology: g.clone(),
            node_start: plan.node_start,
            slot_start: plan.slot_start,
        })
    }

    /// Number of shards `S`.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.node_start.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.topology.num_edges()
    }

    /// The contiguous node range owned by shard `s`.
    #[inline]
    pub fn shard_nodes(&self, s: usize) -> core::ops::Range<NodeId> {
        self.node_start[s]..self.node_start[s + 1]
    }

    /// The contiguous flat-slot range owned by shard `s` (the inbox slots of
    /// exactly the nodes in [`ShardedTopology::shard_nodes`]).
    #[inline]
    pub fn shard_slots(&self, s: usize) -> core::ops::Range<usize> {
        self.slot_start[s]..self.slot_start[s + 1]
    }

    /// The shard owning node `v`.
    #[inline]
    pub fn shard_of(&self, v: NodeId) -> usize {
        self.node_start.partition_point(|&s| s <= v) - 1
    }

    /// The shard owning flat slot `slot`.
    #[inline]
    pub fn shard_of_slot(&self, slot: usize) -> usize {
        self.slot_start.partition_point(|&s| s <= slot) - 1
    }

    /// The global inbox slot that a message sent by `v` over port `p` lands
    /// in — one lookup in `v`'s row of the destination table.
    #[inline]
    pub fn dest_slot(&self, v: NodeId, p: Port) -> usize {
        self.topology.dest_slots(v)[p] as usize
    }

    /// Reconstructs the pass-1 [`ShardPlan`] this topology was (or could
    /// have been) built from — boundaries, degree header and all.
    ///
    /// Used by the scale-out coordinator when the full graph happens to be
    /// in memory anyway (e.g. `--verify` runs) and by the equivalence tests
    /// comparing restricted against full construction.
    pub fn plan(&self) -> ShardPlan {
        let g = &self.topology;
        ShardPlan {
            n: g.num_nodes(),
            num_edges: g.num_edges(),
            max_degree: g.max_degree(),
            node_start: self.node_start.clone(),
            slot_start: self.slot_start.clone(),
            degree: g.nodes().map(|v| g.degree(v) as u32).collect(),
        }
    }

    /// Extracts shard `s` as a standalone [`ShardSliceTopology`] — the
    /// reference answer that [`ShardSliceTopology::build`] must reproduce
    /// without ever holding the other shards.
    pub fn shard_slice(&self, s: usize) -> ShardSliceTopology {
        let slots = self.shard_slots(s);
        let ends = self.shard_nodes(s).map(|v| self.topology.port_range(v).end);
        let g = &self.topology;
        ShardSliceTopology {
            n: g.num_nodes(),
            max_degree: g.max_degree(),
            node_start: self.node_start.clone(),
            slot_start: self.slot_start.clone(),
            shard: s,
            offsets: std::iter::once(slots.start)
                .chain(ends)
                .map(|o| o - slots.start)
                .collect(),
            neighbors: self
                .shard_nodes(s)
                .flat_map(|v| g.neighbor_row(v))
                .copied()
                .collect(),
            dest: self
                .shard_nodes(s)
                .flat_map(|v| g.dest_slots(v))
                .copied()
                .collect(),
        }
    }
}

/// One shard's complete topology view, built **without holding any other
/// shard's rows**: the worker-side product of the scale-out construction
/// split.
///
/// Holds the plan's shape — `n`, Δ and the `O(S)` node and slot
/// boundaries, not its `O(n)` degree header, which only the build reads —
/// plus the owned shard's `O(m/S)` rows: each own node's neighbours in port
/// order (its [`source_row`](ShardTopologyView::source_row)) and its row of
/// the destination table — all the round kernel reads.  It is identical
/// to the corresponding shard of the full [`ShardedTopology`] build — the
/// equivalence proptest pins this — so a mesh worker serving it is
/// indistinguishable on the wire from one holding the whole graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSliceTopology {
    n: usize,
    max_degree: u32,
    /// Shard `s` owns nodes `node_start[s]..node_start[s + 1]`.
    node_start: Vec<usize>,
    /// Shard `s` owns flat slots `slot_start[s]..slot_start[s + 1]`.
    slot_start: Vec<usize>,
    shard: usize,
    /// The ports of the shard's `i`-th node are `offsets[i]..offsets[i + 1]`,
    /// counted from the shard's first slot.
    offsets: Vec<usize>,
    /// For each of those ports, the neighbour behind it.
    neighbors: Vec<u32>,
    /// For each of those ports, the global slot of the receiving endpoint.
    dest: Vec<u32>,
}

impl ShardSliceTopology {
    /// Builds shard `shard`'s slice from a pass-1 plan plus replays of the
    /// same edge stream.
    ///
    /// `stream` is invoked exactly **twice**: the first replay validates
    /// and counts every edge and marks the shard's *frontier* (the remote
    /// neighbours of its nodes) in a rank bitmap; the second is the row fill
    /// of the crate's one CSR builder, holding only the rows of the shard's
    /// nodes and of its frontier.  Peak memory is `O(n)` for the plan plus
    /// `O(m/S + frontier)`, never the full `O(m)` CSR.  The frontier's rows
    /// give where each sender ranks among the *receiver's* sorted
    /// neighbours, and the plan's degree header where the receiver's slots
    /// start: together, the destination slot of every own port, without
    /// shipping any remote CSR data.
    ///
    /// # Errors
    ///
    /// * [`TopologyError::ShardOutOfRange`] if the plan has no shard
    ///   `shard`;
    /// * [`TopologyError::NodeOutOfRange`] / [`TopologyError::SelfLoop`] on
    ///   invalid edges, exactly as [`Topology::from_edges`] reports them
    ///   (checked for the whole stream, as in the full build);
    /// * [`TopologyError::EdgeCountMismatch`] if the first replay does not
    ///   emit as many edges as the plan counted, checked before any row is
    ///   allocated;
    /// * [`TopologyError::PlanMismatch`] if the replays do not match the
    ///   plan's degree header, or each other;
    /// * [`TopologyError::DuplicateEdge`] for duplicates involving an owned
    ///   or frontier node (remote-only duplicates are the remote shards'
    ///   responsibility).
    pub fn build<F>(plan: ShardPlan, shard: usize, mut stream: F) -> Result<Self, TopologyError>
    where
        F: FnMut(&mut dyn FnMut(NodeId, NodeId)),
    {
        if shard >= plan.num_shards() {
            let shards = plan.num_shards();
            return Err(TopologyError::ShardOutOfRange { shard, shards });
        }
        let n = plan.n;
        let own = plan.shard_nodes(shard);

        // --- Replay 1: validate, and hold the shard's and frontier's rows
        let mut words = vec![0u64; n.div_ceil(64)];
        let mut hold = |v: NodeId| words[v / 64] |= 1 << (v % 64);
        own.clone().for_each(&mut hold);
        let (mut first_error, mut streamed) = (None, 0);
        stream(&mut |u, v| {
            if first_error.is_some() {
                return;
            }
            if let Err(e) = csr::check_edge(n, u, v) {
                first_error = Some(e);
                return;
            }
            streamed += 1;
            if own.contains(&u) != own.contains(&v) {
                hold(u);
                hold(v);
            }
        });
        if let Some(e) = first_error {
            return Err(e);
        }
        // The plan's degrees sum to twice its edge count, so once the stream
        // has as many edges, the rows `csr::build` sizes from the plan are
        // bounded by what the stream emits.
        if streamed != plan.num_edges {
            let planned = plan.num_edges;
            return Err(TopologyError::EdgeCountMismatch { planned, streamed });
        }
        let held = RankedRows::new(words);

        // --- Replay 2: the one CSR builder over the held rows -------------
        let row = |v| held.row(v);
        let csr = csr::build(&plan.degree, held.nodes(), row, own.clone(), stream)?;
        let first_own = held.nodes().take_while(|&u| u < own.start).count();
        let own_offsets = &csr.offsets[first_own..=first_own + own.len()];
        let own_ports = own_offsets[0]..own_offsets[own.len()];
        Ok(Self {
            offsets: own_offsets.iter().map(|&o| o - own_offsets[0]).collect(),
            neighbors: csr.neighbors[own_ports].to_vec(),
            // The degree header is dropped here: no lookup reads it.
            n: plan.n,
            max_degree: plan.max_degree,
            node_start: plan.node_start,
            slot_start: plan.slot_start,
            shard,
            dest: csr.dest,
        })
    }

    /// The shard index this slice owns.
    #[inline]
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The ports of node `v`, counted from the shard's first slot; `None` if
    /// `v` is not a node of the shard.
    #[inline]
    fn own_ports(&self, v: NodeId) -> Option<core::ops::Range<usize>> {
        let i = v.checked_sub(self.node_start[self.shard])?;
        Some(*self.offsets.get(i)?..*self.offsets.get(i + 1)?)
    }
}

/// The topology surface the round kernel needs — everything it and the
/// remote worker protocol touch (see [`crate::executor`]), abstracted so a
/// shard can run on the full [`ShardedTopology`], on a worker's own
/// [`ShardSliceTopology`], or, for the single-threaded driver, on a
/// [`Topology`]: one shard that owns every node and slot.
///
/// [`port_range_from`](Self::port_range_from) takes the caller's shard
/// explicitly, the shard the kernel's node `v` belongs to; a slice only
/// answers for the shard it owns and `debug_assert`s that.  A node's degree
/// is the length of that range, and the slot its port `p` sends to is entry
/// `p` of its [`dest_row`](Self::dest_row).
pub trait ShardTopologyView {
    /// Total node count of the global graph.
    fn num_nodes(&self) -> usize;
    /// Number of shards `S`.
    fn num_shards(&self) -> usize;
    /// Maximum degree Δ of the global graph.
    fn max_degree(&self) -> u32;
    /// The contiguous node range owned by shard `s`.
    fn shard_nodes(&self, s: usize) -> core::ops::Range<NodeId>;
    /// The contiguous flat-slot range owned by shard `s`.
    fn shard_slots(&self, s: usize) -> core::ops::Range<usize>;
    /// The shard owning flat slot `slot`.
    fn shard_of_slot(&self, slot: usize) -> usize;
    /// The global flat-slot range of `v`'s own inbox, `v` in `shard`.
    fn port_range_from(&self, shard: usize, v: NodeId) -> core::ops::Range<usize>;
    /// The nodes whose rows the view holds: every node of a [`Topology`] or
    /// a [`ShardedTopology`], and the own shard's nodes of a
    /// [`ShardSliceTopology`].  A kernel keeps broadcast values for its own
    /// nodes and for some of these: a broadcast from a node outside them,
    /// whose row it cannot read, never arrives as a value.
    fn row_nodes(&self) -> core::ops::Range<NodeId>;
    /// The destination-table row of node `v`, whichever shard owns it: the
    /// global inbox slot each of its ports lands in, in port order.  Ports
    /// are sorted by neighbour and shards are contiguous node ranges, so the
    /// row ascends and the ports into any one shard form one run of it.
    /// `None` exactly when `v` is outside [`row_nodes`](Self::row_nodes).
    fn dest_row(&self, v: NodeId) -> Option<&[u32]>;
    /// The source row of node `v`: the neighbour behind each of its ports,
    /// in port order — the node whose messages arrive on that port.  `None`
    /// exactly when [`dest_row`](Self::dest_row) is.
    fn source_row(&self, v: NodeId) -> Option<&[u32]>;
}

impl ShardTopologyView for ShardedTopology {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.topology.num_nodes()
    }

    #[inline]
    fn num_shards(&self) -> usize {
        ShardedTopology::num_shards(self)
    }

    #[inline]
    fn max_degree(&self) -> u32 {
        self.topology.max_degree()
    }

    #[inline]
    fn shard_nodes(&self, s: usize) -> core::ops::Range<NodeId> {
        ShardedTopology::shard_nodes(self, s)
    }

    #[inline]
    fn shard_slots(&self, s: usize) -> core::ops::Range<usize> {
        ShardedTopology::shard_slots(self, s)
    }

    #[inline]
    fn shard_of_slot(&self, slot: usize) -> usize {
        ShardedTopology::shard_of_slot(self, slot)
    }

    #[inline]
    fn port_range_from(&self, shard: usize, v: NodeId) -> core::ops::Range<usize> {
        debug_assert_eq!(self.shard_of(v), shard);
        self.topology.port_range(v)
    }

    #[inline]
    fn row_nodes(&self) -> core::ops::Range<NodeId> {
        0..self.topology.num_nodes()
    }

    #[inline]
    fn dest_row(&self, v: NodeId) -> Option<&[u32]> {
        self.topology.dest_row(v)
    }

    #[inline]
    fn source_row(&self, v: NodeId) -> Option<&[u32]> {
        self.topology.source_row(v)
    }
}

impl ShardTopologyView for ShardSliceTopology {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.n
    }

    #[inline]
    fn num_shards(&self) -> usize {
        self.node_start.len() - 1
    }

    #[inline]
    fn max_degree(&self) -> u32 {
        self.max_degree
    }

    #[inline]
    fn shard_nodes(&self, s: usize) -> core::ops::Range<NodeId> {
        self.node_start[s]..self.node_start[s + 1]
    }

    #[inline]
    fn shard_slots(&self, s: usize) -> core::ops::Range<usize> {
        self.slot_start[s]..self.slot_start[s + 1]
    }

    #[inline]
    fn shard_of_slot(&self, slot: usize) -> usize {
        self.slot_start.partition_point(|&s| s <= slot) - 1
    }

    #[inline]
    fn port_range_from(&self, shard: usize, v: NodeId) -> core::ops::Range<usize> {
        debug_assert_eq!(shard, self.shard, "a slice only serves its own shard");
        let i = v - self.node_start[self.shard];
        let base = self.slot_start[self.shard];
        base + self.offsets[i]..base + self.offsets[i + 1]
    }

    #[inline]
    fn row_nodes(&self) -> core::ops::Range<NodeId> {
        self.shard_nodes(self.shard)
    }

    #[inline]
    fn dest_row(&self, v: NodeId) -> Option<&[u32]> {
        self.own_ports(v).map(|ports| &self.dest[ports])
    }

    #[inline]
    fn source_row(&self, v: NodeId) -> Option<&[u32]> {
        self.own_ports(v).map(|ports| &self.neighbors[ports])
    }
}

impl TopologyView for ShardedTopology {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.topology.num_nodes()
    }

    #[inline]
    fn num_directed_edges(&self) -> usize {
        self.topology.num_directed_edges()
    }

    #[inline]
    fn max_degree(&self) -> u32 {
        self.topology.max_degree()
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        self.topology.degree(v)
    }

    #[inline]
    fn neighbor_row(&self, v: NodeId) -> &[u32] {
        TopologyView::neighbor_row(&self.topology, v)
    }

    #[inline]
    fn dest_slots(&self, v: NodeId) -> &[u32] {
        self.topology.dest_slots(v)
    }

    #[inline]
    fn port_range(&self, v: NodeId) -> core::ops::Range<usize> {
        self.topology.port_range(v)
    }

    fn whole(&self) -> &Topology {
        &self.topology
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    /// Asserts the sharded and dense representations describe the exact
    /// same port-numbered graph (same flat slot contract included).
    fn assert_same_structure(dense: &Topology, sharded: &ShardedTopology) {
        assert_eq!(TopologyView::num_nodes(sharded), dense.num_nodes());
        assert_eq!(sharded.num_edges(), dense.num_edges());
        assert_eq!(sharded.num_directed_edges(), dense.num_directed_edges());
        assert_eq!(TopologyView::max_degree(sharded), dense.max_degree());
        for v in dense.nodes() {
            assert_eq!(TopologyView::degree(sharded, v), dense.degree(v), "v={v}");
            assert_eq!(
                TopologyView::port_range(sharded, v),
                dense.port_range(v),
                "v={v}"
            );
            for p in 0..dense.degree(v) {
                assert_eq!(
                    TopologyView::neighbor_at(sharded, v, p),
                    dense.neighbor_at(v, p)
                );
                assert_eq!(
                    TopologyView::reverse_port(sharded, v, p),
                    dense.reverse_port(v, p)
                );
                let u = dense.neighbor_at(v, p);
                let rp = dense.reverse_port(v, p);
                assert_eq!(sharded.dest_slot(v, p), dense.port_range(u).start + rp);
            }
        }
    }

    /// Asserts that `view` answers as shard `s` of `full`: the nodes and
    /// slots of every shard, the owner of every slot, and the port range and
    /// rows of every node of `s`.  It holds no other row, and none past the
    /// last node.  A worker's slice is such a view, and so is the
    /// [`Topology`] behind a one-shard cut, which the single-threaded driver
    /// runs on.
    fn assert_shard_view(full: &ShardedTopology, view: &dyn ShardTopologyView, s: usize) {
        assert_eq!(view.num_shards(), full.num_shards());
        for t in 0..full.num_shards() {
            assert_eq!(view.shard_nodes(t), full.shard_nodes(t), "shard {t}");
            assert_eq!(view.shard_slots(t), full.shard_slots(t), "shard {t}");
        }
        for slot in 0..full.num_directed_edges() {
            assert_eq!(view.shard_of_slot(slot), full.shard_of_slot(slot), "{slot}");
        }
        let (own, n) = (full.shard_nodes(s), TopologyView::num_nodes(full));
        assert_eq!(view.row_nodes(), own);
        for v in 0..n {
            let held = own.contains(&v);
            assert_eq!(view.dest_row(v), full.dest_row(v).filter(|_| held), "{v}");
            assert_eq!(
                view.source_row(v),
                full.source_row(v).filter(|_| held),
                "{v}"
            );
            if held {
                let ports = ShardTopologyView::port_range_from(full, s, v);
                assert_eq!(view.port_range_from(s, v), ports, "{v}");
            }
        }
        assert_eq!((view.dest_row(n), view.source_row(n)), (None, None));
    }

    fn ring_edges(n: usize) -> Vec<(NodeId, NodeId)> {
        (0..n).map(|i| (i, (i + 1) % n)).collect()
    }

    #[test]
    fn matches_dense_topology_for_every_shard_count() {
        let edges = ring_edges(13);
        let dense = Topology::from_edges(13, &edges).unwrap();
        for s in [1, 2, 3, 5, 13, 20] {
            let sharded = ShardedTopology::from_topology(&dense, s).unwrap();
            assert_eq!(sharded.num_shards(), s);
            assert_same_structure(&dense, &sharded);
        }
    }

    #[test]
    fn shard_ranges_partition_nodes_and_slots() {
        let edges = ring_edges(17);
        let dense = Topology::from_edges(17, &edges).unwrap();
        let g = ShardedTopology::from_topology(&dense, 4).unwrap();
        let mut node_cover = 0;
        let mut slot_cover = 0;
        for s in 0..g.num_shards() {
            let nodes = g.shard_nodes(s);
            let slots = g.shard_slots(s);
            assert_eq!(nodes.start, node_cover);
            assert_eq!(slots.start, slot_cover);
            node_cover = nodes.end;
            slot_cover = slots.end;
            for v in nodes {
                assert_eq!(g.shard_of(v), s);
                let pr = TopologyView::port_range(&g, v);
                assert!(pr.start >= g.shard_slots(s).start && pr.end <= g.shard_slots(s).end);
                for slot in pr {
                    assert_eq!(g.shard_of_slot(slot), s);
                }
            }
        }
        assert_eq!(node_cover, 17);
        assert_eq!(slot_cover, g.num_directed_edges());
    }

    #[test]
    fn streaming_construction_matches_from_topology() {
        let edges = ring_edges(9);
        let dense = Topology::from_edges(9, &edges).unwrap();
        let via_stream = ShardedTopology::from_edge_stream(9, 3, |emit| {
            for &(u, v) in &edges {
                emit(u, v);
            }
        })
        .unwrap();
        let via_topology = ShardedTopology::from_topology(&dense, 3).unwrap();
        assert_eq!(via_stream, via_topology);
        // Re-cutting copies the table as it is: the slots do not depend on
        // the cut.
        let recut = ShardedTopology::from_topology(&via_topology, 2).unwrap();
        assert_eq!(recut, ShardedTopology::from_topology(&dense, 2).unwrap());
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn dest_slot_past_the_degree_panics() {
        let g = ShardedTopology::from_edge_stream(9, 2, mixed_stream(9)).unwrap();
        // Node 0 has four ports; a fifth would be node 1's first entry.
        let _ = g.dest_slot(0, 4);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn slice_dest_slot_past_the_degree_panics() {
        let plan = ShardPlan::from_edge_stream(9, 2, mixed_stream(9)).unwrap();
        let slice = ShardSliceTopology::build(plan, 0, mixed_stream(9)).unwrap();
        let _ = slice.dest_row(0).unwrap()[4];
    }

    #[test]
    fn star_hub_weight_is_handled() {
        // A star concentrates all edges at node 0: shard 0 gets the hub,
        // later shards share the leaves; the structure must still match.
        let edges: Vec<_> = (1..=40).map(|v| (0, v)).collect();
        let dense = Topology::from_edges(41, &edges).unwrap();
        for s in [2, 3, 8] {
            let sharded = ShardedTopology::from_topology(&dense, s).unwrap();
            assert_same_structure(&dense, &sharded);
        }
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let g = ShardedTopology::from_edge_stream(0, 3, |_| {}).unwrap();
        assert_eq!(TopologyView::num_nodes(&g), 0);
        assert_eq!(g.num_directed_edges(), 0);
        let g = ShardedTopology::from_edge_stream(5, 2, |_| {}).unwrap();
        assert_eq!(TopologyView::num_nodes(&g), 5);
        assert_eq!(TopologyView::max_degree(&g), 0);
        for v in 0..5 {
            assert_eq!(TopologyView::degree(&g, v), 0);
        }
        for n in [0, 5] {
            let one = ShardedTopology::from_edge_stream(n, 1, |_| {}).unwrap();
            assert_shard_view(&one, one.whole(), 0);
        }
    }

    #[test]
    fn rejects_invalid_streams() {
        assert_eq!(
            ShardedTopology::from_edge_stream(3, 0, |_| {}),
            Err(TopologyError::ShardCountZero)
        );
        assert!(matches!(
            ShardedTopology::from_edge_stream(3, 2, |emit| emit(0, 3)),
            Err(TopologyError::NodeOutOfRange { node: 3, n: 3 })
        ));
        assert!(matches!(
            ShardedTopology::from_edge_stream(3, 2, |emit| emit(1, 1)),
            Err(TopologyError::SelfLoop(1))
        ));
        assert!(matches!(
            ShardedTopology::from_edge_stream(3, 2, |emit| {
                emit(0, 1);
                emit(1, 0);
            }),
            Err(TopologyError::DuplicateEdge(0, 1))
        ));
    }

    #[test]
    fn restricted_build_rejects_a_shard_outside_the_plan() {
        let plan = ShardPlan::from_edge_stream(9, 2, mixed_stream(9)).unwrap();
        assert_eq!(
            ShardSliceTopology::build(plan, 2, mixed_stream(9)),
            Err(TopologyError::ShardOutOfRange {
                shard: 2,
                shards: 2
            })
        );
    }

    #[test]
    fn rejects_node_range_overflow() {
        assert!(matches!(
            ShardedTopology::from_edge_stream(INDEX_LIMIT + 1, 2, |_| {}),
            Err(TopologyError::NodeRangeOverflow { .. })
        ));
    }

    /// The edge stream of a small random-circulant-like graph, replayable.
    fn mixed_stream(n: usize) -> impl FnMut(&mut dyn FnMut(NodeId, NodeId)) + Copy {
        move |emit: &mut dyn FnMut(NodeId, NodeId)| {
            for i in 0..n {
                emit(i, (i + 1) % n);
                if n > 5 {
                    emit(i, (i + n / 2 - 1) % n);
                }
            }
        }
    }

    #[test]
    fn plan_serialization_round_trips_and_rejects_corruption() {
        let plan = ShardPlan::from_edge_stream(23, 4, mixed_stream(23)).unwrap();
        let bytes = plan.to_bytes();
        assert_eq!(bytes.len(), 24 + 16 * 5 + 4 * 23);
        assert_eq!(ShardPlan::from_bytes(&bytes).unwrap(), plan);
        // Truncation, trailing garbage and structural lies are all errors.
        assert!(matches!(
            ShardPlan::from_bytes(&bytes[..bytes.len() - 1]),
            Err(WireError::Truncated { .. })
        ));
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            ShardPlan::from_bytes(&long),
            Err(WireError::TrailingBytes(1))
        ));
        let mut forged = bytes.clone();
        forged[16] ^= 1; // max_degree no longer matches the degree header
        assert_eq!(ShardPlan::from_bytes(&forged), Err(WireError::NonCanonical));
        let mut forged = bytes;
        let deg_at = 24 + 16 * 5;
        forged[deg_at] = forged[deg_at].wrapping_add(1); // degree sum off by one
        assert_eq!(ShardPlan::from_bytes(&forged), Err(WireError::NonCanonical));
        // 2 · 2^63 edges wraps to the slot count 0 of an edgeless plan.
        let mut forged = ShardPlan::from_edge_stream(2, 1, |_| {})
            .unwrap()
            .to_bytes();
        forged[8..16].copy_from_slice(&(1u64 << 63).to_le_bytes());
        assert_eq!(ShardPlan::from_bytes(&forged), Err(WireError::NonCanonical));
        // Consistent, but 2^32 slots: past the u32 limit no pass 1 exceeds.
        let mut forged = ShardPlan::from_edge_stream(2, 1, |emit| emit(0, 1))
            .unwrap()
            .to_bytes();
        forged[8..16].copy_from_slice(&(1u64 << 31).to_le_bytes());
        forged[16..20].copy_from_slice(&(1u32 << 31).to_le_bytes());
        forged[48..56].copy_from_slice(&(1u64 << 32).to_le_bytes());
        forged[56..60].copy_from_slice(&(1u32 << 31).to_le_bytes());
        forged[60..64].copy_from_slice(&(1u32 << 31).to_le_bytes());
        assert_eq!(ShardPlan::from_bytes(&forged), Err(WireError::NonCanonical));
    }

    #[test]
    fn slice_build_checks_the_edge_count_before_the_row_fill() {
        let complete = |emit: &mut dyn FnMut(NodeId, NodeId)| {
            for u in 0..64 {
                (u + 1..64).for_each(|v| emit(u, v));
            }
        };
        let plan = ShardPlan::from_edge_stream(64, 2, complete).unwrap();
        let mut replays = 0;
        let err = ShardSliceTopology::build(plan, 1, |emit| {
            replays += 1;
            assert_eq!(replays, 1, "replayed past the edge-count check");
            emit(0, 1);
        });
        let (planned, streamed) = (64 * 63 / 2, 1);
        assert_eq!(
            err,
            Err(TopologyError::EdgeCountMismatch { planned, streamed })
        );
    }

    #[test]
    fn restricted_build_matches_every_shard_of_the_full_build() {
        for (n, shards) in [(9, 1), (9, 3), (23, 4), (23, 7), (40, 5)] {
            let full = ShardedTopology::from_edge_stream(n, shards, mixed_stream(n)).unwrap();
            let plan = ShardPlan::from_edge_stream(n, shards, mixed_stream(n)).unwrap();
            assert_eq!(plan, full.plan(), "n={n} shards={shards}");
            for s in 0..shards {
                let slice = ShardSliceTopology::build(plan.clone(), s, mixed_stream(n)).unwrap();
                assert_eq!(slice, full.shard_slice(s), "n={n} shards={shards} s={s}");
                // The trait surface agrees too (what the worker round loop
                // actually consumes).
                assert_shard_view(&full, &slice, s);
                for v in ShardTopologyView::shard_nodes(&slice, s) {
                    let own = slice.dest_row(v).expect("a slice holds its shard's rows");
                    assert_eq!(own.len(), slice.port_range_from(s, v).len());
                    for (p, &slot) in own.iter().enumerate() {
                        assert_eq!(slot as usize, full.dest_slot(v, p));
                    }
                    let row = full.dest_row(v).expect("the full build holds every row");
                    assert!(row.windows(2).all(|w| w[0] < w[1]), "row {v} ascends");
                    let sources = TopologyView::neighbor_row(&full, v);
                    assert_eq!(full.source_row(v), Some(sources));
                }
            }
            if shards == 1 {
                assert_shard_view(&full, full.whole(), 0);
            }
            assert_eq!(full.row_nodes(), 0..n);
            assert_eq!(full.dest_row(n), None);
            assert_eq!(full.source_row(n), None);
        }
    }

    #[test]
    fn restricted_build_rejects_streams_that_do_not_match_the_plan() {
        let plan = ShardPlan::from_edge_stream(9, 2, mixed_stream(9)).unwrap();
        assert_eq!(plan.num_edges(), 18);
        let miscount = |streamed| {
            let planned = 18;
            Err(TopologyError::EdgeCountMismatch { planned, streamed })
        };
        // A replay with an extra or a missing edge miscounts.
        let err = ShardSliceTopology::build(plan.clone(), 0, |emit| {
            mixed_stream(9)(emit);
            emit(0, 4);
        });
        assert_eq!(err, miscount(19));
        let skip_first = |emit: &mut dyn FnMut(NodeId, NodeId)| {
            let mut skipped = false;
            mixed_stream(9)(&mut |u, v| {
                if !skipped {
                    skipped = true;
                } else {
                    emit(u, v);
                }
            });
        };
        assert_eq!(
            ShardSliceTopology::build(plan.clone(), 0, skip_first),
            miscount(17)
        );
        // One edge moved: the count holds, and some node's degree does not.
        for shard in 0..2 {
            let err = ShardSliceTopology::build(plan.clone(), shard, |emit| {
                skip_first(emit);
                emit(0, 4);
            });
            assert!(matches!(err, Err(TopologyError::PlanMismatch { .. })));
        }
        // Invalid edges are still reported as such, not as mismatches.
        assert!(matches!(
            ShardSliceTopology::build(plan, 0, |emit| emit(3, 3)),
            Err(TopologyError::SelfLoop(3))
        ));
        // The full pass-2 rebuild checks the same contract.
        let plan = ShardPlan::from_edge_stream(9, 2, mixed_stream(9)).unwrap();
        let err = ShardedTopology::from_plan(&plan, |emit| {
            mixed_stream(9)(emit);
            emit(0, 4);
        });
        assert!(matches!(err, Err(TopologyError::PlanMismatch { .. })));
    }
}
