//! Edge-partitioned sharded topology for `n ≥ 10^7` graphs.
//!
//! [`ShardedTopology`] stores the same port-numbered communication graph as
//! [`Topology`], but partitioned into `S` contiguous node-range *shards*,
//! each holding its own CSR slice.  The representation is built for two
//! things the single-arena [`Topology`] cannot do at the
//! `n ≥ 10^7` scale the ROADMAP targets:
//!
//! * **Streaming construction** — [`ShardedTopology::from_edge_stream`]
//!   consumes the edge list as a replayable *stream* (two passes: degree
//!   counting, then CSR fill), so peak memory is the final CSR itself; no
//!   global `Vec<(NodeId, NodeId)>` or hash-set of edges is ever
//!   materialised.
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
//! Because the flat slot contract of
//! [`TopologyView`] assigns slot ranges in
//! ascending node order, the shard's node range induces its slot range; both
//! are recorded in prefix arrays (`node_start` / `slot_start`).
//!
//! # The cross-shard port remap table
//!
//! Delivering a message sent by `v` over port `p` requires the *global slot*
//! of the receiving endpoint — which generally lives in another shard's CSR.
//! Each shard therefore precomputes, for every outgoing directed edge, the
//! destination slot ([`ShardedTopology::dest_slot`]): senders never chase
//! another shard's offsets at delivery time, they look up one `u32` and
//! either write the slot directly (intra-shard) or enqueue the pair
//! `(slot, message)` for the owning worker (cross-shard).
//!
//! # Compact indexing
//!
//! Neighbour ids, reverse ports and destination slots are stored as `u32`
//! (half the memory of the `usize`-based [`Topology`] —
//! the difference between fitting a `10^7`-node graph in RAM or not).
//! Graphs whose node count or directed-edge count exceeds `u32::MAX` are
//! rejected with [`TopologyError::NodeRangeOverflow`].
//!
//! [`Topology`]: crate::Topology

use serde::{Deserialize, Serialize};

use crate::topology::{NodeId, Port, TopologyError, TopologyView};
use crate::wire::{get_u32, get_u64, put_u32, put_u64, WireError};

/// The largest node count / directed-edge count the compact `u32`
/// representation can index.
const INDEX_LIMIT: usize = u32::MAX as usize;

/// One shard's CSR slice: the adjacency of a contiguous node range.
///
/// All offsets are *local* (relative to the shard's first slot); global
/// slots are `slot_start[s] + local`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct ShardCsr {
    /// Local CSR offsets: the ports of the shard's `i`-th node occupy local
    /// slots `offsets[i]..offsets[i + 1]`.
    offsets: Vec<usize>,
    /// Neighbour (global) node ids, sorted per node.
    adjacency: Vec<u32>,
    /// For each outgoing directed edge, the port at which the sender appears
    /// in the receiver's port list.
    reverse_port: Vec<u32>,
    /// The port remap table: for each outgoing directed edge, the *global*
    /// inbox slot of the receiving endpoint.
    dest_slot: Vec<u32>,
}

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
/// dominates, and is exactly what makes every remap table reconstructible
/// locally without shipping `O(m)` edge data.
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
        mut stream: F,
    ) -> Result<Self, TopologyError>
    where
        F: FnMut(&mut dyn FnMut(NodeId, NodeId)),
    {
        if num_shards == 0 {
            return Err(TopologyError::ShardCountZero);
        }
        if n > INDEX_LIMIT {
            return Err(TopologyError::NodeRangeOverflow {
                value: n,
                limit: INDEX_LIMIT,
            });
        }

        // --- Pass 1: validate endpoints, count degrees ------------------
        let mut degree: Vec<u32> = vec![0; n];
        let mut num_edges: usize = 0;
        let mut first_error: Option<TopologyError> = None;
        stream(&mut |u: NodeId, v: NodeId| {
            if first_error.is_some() {
                return;
            }
            if u >= n || v >= n {
                let node = if u >= n { u } else { v };
                first_error = Some(TopologyError::NodeOutOfRange { node, n });
                return;
            }
            if u == v {
                first_error = Some(TopologyError::SelfLoop(u));
                return;
            }
            if 2 * (num_edges + 1) > INDEX_LIMIT {
                first_error = Some(TopologyError::NodeRangeOverflow {
                    value: 2 * (num_edges + 1),
                    limit: INDEX_LIMIT,
                });
                return;
            }
            degree[u] += 1;
            degree[v] += 1;
            num_edges += 1;
        });
        if let Some(e) = first_error {
            return Err(e);
        }

        // --- Shard boundaries: balance deg(v) + 1 per shard -------------
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
        for (v, &d) in degree.iter().enumerate().take(n) {
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
        Ok(Self {
            n,
            num_edges,
            max_degree,
            node_start,
            slot_start,
            degree,
        })
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
        // cover [0, n) / [0, 2m), and the slot widths equal the degree sums
        // of the node ranges they claim.
        let ok_bounds = node_start[0] == 0
            && slot_start[0] == 0
            && node_start[s] == n
            && slot_start[s] == 2 * num_edges
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

/// An edge-partitioned, port-numbered communication graph (see the
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
    n: usize,
    num_edges: usize,
    max_degree: u32,
    /// Shard `s` owns nodes `node_start[s]..node_start[s + 1]` (length
    /// `S + 1`, ascending, `node_start[S] == n`).
    node_start: Vec<usize>,
    /// Shard `s` owns flat slots `slot_start[s]..slot_start[s + 1]`.
    slot_start: Vec<usize>,
    shards: Vec<ShardCsr>,
}

impl ShardedTopology {
    /// Builds a sharded topology from a replayable edge stream.
    ///
    /// `stream` is invoked exactly **twice** and must emit the same sequence
    /// of undirected edges on both invocations (pass 1 counts degrees and
    /// chooses shard boundaries, pass 2 fills the per-shard CSR slices).
    /// Deterministic generators satisfy this by construction; randomized
    /// ones by re-seeding their RNG inside the closure.
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
    ///   [`Topology::from_edges`](crate::Topology::from_edges) reports them.
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

    /// Construction **pass 2**: fills every shard's CSR slice, sorts port
    /// lists and precomputes the remap tables, given a pass-1 [`ShardPlan`]
    /// and one more replay of the same edge stream.
    ///
    /// This is the full-build counterpart of [`ShardSliceTopology::build`];
    /// [`ShardedTopology::from_edge_stream`] is the convenience wrapper
    /// running both passes.
    ///
    /// # Errors
    ///
    /// * [`TopologyError::DuplicateEdge`] if the stream emits an undirected
    ///   edge twice;
    /// * [`TopologyError::PlanMismatch`] if the replay does not emit exactly
    ///   the edges the plan counted.
    pub fn from_plan<F>(plan: &ShardPlan, mut stream: F) -> Result<Self, TopologyError>
    where
        F: FnMut(&mut dyn FnMut(NodeId, NodeId)),
    {
        let n = plan.n;
        let num_shards = plan.num_shards();
        let node_start = plan.node_start.clone();
        let slot_start = plan.slot_start.clone();
        let degree = &plan.degree;

        // --- Local CSR offsets per shard --------------------------------
        let mut shards: Vec<ShardCsr> = Vec::with_capacity(num_shards);
        for s in 0..num_shards {
            let nodes = node_start[s]..node_start[s + 1];
            let mut offsets = Vec::with_capacity(nodes.len() + 1);
            offsets.push(0usize);
            for v in nodes {
                offsets.push(offsets.last().unwrap() + degree[v] as usize);
            }
            let slots = offsets[offsets.len() - 1];
            shards.push(ShardCsr {
                offsets,
                adjacency: vec![0u32; slots],
                reverse_port: vec![0u32; slots],
                dest_slot: vec![0u32; slots],
            });
        }

        // --- Pass 2: fill adjacency -------------------------------------
        // `cursor[v]` is the next free port of `v`; an edge beyond the
        // degree the plan recorded means the replay diverged.
        let shard_of = |node_start: &[usize], v: NodeId| -> usize {
            node_start.partition_point(|&s| s <= v) - 1
        };
        let mut cursor: Vec<u32> = vec![0; n];
        let mut mismatch: Option<NodeId> = None;
        stream(&mut |u: NodeId, v: NodeId| {
            if mismatch.is_some() {
                return;
            }
            for (a, b) in [(u, v), (v, u)] {
                if a >= n || cursor[a] >= degree[a] {
                    mismatch = Some(if a >= n { u.max(v) } else { a });
                    return;
                }
                let s = shard_of(&node_start[..=num_shards], a);
                let local = shards[s].offsets[a - node_start[s]] + cursor[a] as usize;
                shards[s].adjacency[local] = b as u32;
                cursor[a] += 1;
            }
        });
        if let Some(node) = mismatch {
            return Err(TopologyError::PlanMismatch { node });
        }
        if let Some(v) = (0..n).find(|&v| cursor[v] != degree[v]) {
            return Err(TopologyError::PlanMismatch { node: v });
        }

        // --- Sort per-node port lists, reject duplicate edges ------------
        for s in 0..num_shards {
            for i in 0..node_start[s + 1] - node_start[s] {
                let (lo, hi) = (shards[s].offsets[i], shards[s].offsets[i + 1]);
                let ports = &mut shards[s].adjacency[lo..hi];
                ports.sort_unstable();
                if let Some(w) = ports.windows(2).find(|w| w[0] == w[1]) {
                    let v = node_start[s] + i;
                    let u = w[0] as usize;
                    return Err(TopologyError::DuplicateEdge(v.min(u), v.max(u)));
                }
            }
        }

        // --- Reverse ports + the cross-shard port remap table ------------
        for s in 0..num_shards {
            for i in 0..node_start[s + 1] - node_start[s] {
                let v = node_start[s] + i;
                for local in shards[s].offsets[i]..shards[s].offsets[i + 1] {
                    let u = shards[s].adjacency[local] as usize;
                    let su = shard_of(&node_start[..=num_shards], u);
                    let u_local = u - node_start[su];
                    let (lo, hi) = (shards[su].offsets[u_local], shards[su].offsets[u_local + 1]);
                    let rp = shards[su].adjacency[lo..hi]
                        .binary_search(&(v as u32))
                        .expect("undirected edge must appear in both port lists");
                    let dest = slot_start[su] + lo + rp;
                    // Borrow dance: `shards[s]` and `shards[su]` may alias.
                    let shard = &mut shards[s];
                    shard.reverse_port[local] = rp as u32;
                    shard.dest_slot[local] = dest as u32;
                }
            }
        }

        Ok(Self {
            n,
            num_edges: plan.num_edges,
            max_degree: plan.max_degree,
            node_start,
            slot_start,
            shards,
        })
    }

    /// Shards an already-built topology view — a
    /// [`Topology`](crate::Topology), or another `ShardedTopology` to
    /// re-shard it (used by
    /// [`ExecutionMode::Parallel`](crate::ExecutionMode::Parallel), and for
    /// workloads whose graph already fits in one arena).
    ///
    /// Port lists are rebuilt sorted by neighbour id, as both in-crate
    /// representations store them, so the result is structurally identical
    /// to the source: same port numbering, same flat slot contract, and
    /// runs are bit-for-bit reproducible across the representations.
    ///
    /// # Errors
    ///
    /// [`TopologyError::ShardCountZero`] and
    /// [`TopologyError::NodeRangeOverflow`] as in
    /// [`ShardedTopology::from_edge_stream`]; the edge list itself is
    /// already validated.
    pub fn from_topology(
        topology: &impl TopologyView,
        num_shards: usize,
    ) -> Result<Self, TopologyError> {
        Self::from_edge_stream(topology.num_nodes(), num_shards, |emit| {
            for v in 0..topology.num_nodes() {
                for p in 0..topology.degree(v) {
                    let u = topology.neighbor_at(v, p);
                    if v < u {
                        emit(v, u);
                    }
                }
            }
        })
    }

    /// Number of shards `S`.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
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
    /// in — one lookup in the precomputed port remap table.
    #[inline]
    pub fn dest_slot(&self, v: NodeId, p: Port) -> usize {
        self.dest_slot_from(self.shard_of(v), v, p)
    }

    /// [`ShardedTopology::dest_slot`] with the sender's shard already known
    /// — the sharded executor's per-message hot path, where `v` always
    /// belongs to the calling worker's shard, skips the `shard_of` search.
    #[inline]
    pub fn dest_slot_from(&self, shard: usize, v: NodeId, p: Port) -> usize {
        debug_assert_eq!(self.shard_of(v), shard);
        let csr = &self.shards[shard];
        let local = csr.offsets[v - self.node_start[shard]] + p;
        csr.dest_slot[local] as usize
    }

    /// Degree of `v` with its shard already known (see
    /// [`ShardedTopology::dest_slot_from`]).
    #[inline]
    pub fn degree_from(&self, shard: usize, v: NodeId) -> usize {
        debug_assert_eq!(self.shard_of(v), shard);
        let csr = &self.shards[shard];
        let i = v - self.node_start[shard];
        csr.offsets[i + 1] - csr.offsets[i]
    }

    #[inline]
    fn locate(&self, v: NodeId) -> (&ShardCsr, usize) {
        let s = self.shard_of(v);
        (&self.shards[s], v - self.node_start[s])
    }

    /// Reconstructs the pass-1 [`ShardPlan`] this topology was (or could
    /// have been) built from — boundaries, degree header and all.
    ///
    /// Used by the scale-out coordinator when the full graph happens to be
    /// in memory anyway (e.g. `--verify` runs) and by the equivalence tests
    /// comparing restricted against full construction.
    pub fn plan(&self) -> ShardPlan {
        let mut degree = vec![0u32; self.n];
        for (s, csr) in self.shards.iter().enumerate() {
            for (i, d) in csr.offsets.windows(2).enumerate() {
                degree[self.node_start[s] + i] = (d[1] - d[0]) as u32;
            }
        }
        ShardPlan {
            n: self.n,
            num_edges: self.num_edges,
            max_degree: self.max_degree,
            node_start: self.node_start.clone(),
            slot_start: self.slot_start.clone(),
            degree,
        }
    }

    /// Extracts shard `s` as a standalone [`ShardSliceTopology`] — the
    /// reference answer that [`ShardSliceTopology::build`] must reproduce
    /// without ever holding the other shards.
    pub fn shard_slice(&self, s: usize) -> ShardSliceTopology {
        ShardSliceTopology {
            plan: self.plan(),
            shard: s,
            csr: self.shards[s].clone(),
        }
    }
}

/// One shard's complete topology view, built **without materialising any
/// other shard's CSR**: the worker-side product of the scale-out
/// construction split.
///
/// Holds the `O(n)` [`ShardPlan`] plus the owned shard's `O(m/S)` CSR slice
/// (adjacency, reverse ports and the precomputed `dest_slot` remap).  The
/// slice is bit-for-bit identical to the corresponding shard of the full
/// [`ShardedTopology`] build — the equivalence proptest pins this — so a
/// mesh worker serving it is indistinguishable on the wire from one holding
/// the whole graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSliceTopology {
    plan: ShardPlan,
    shard: usize,
    csr: ShardCsr,
}

impl ShardSliceTopology {
    /// Builds shard `shard`'s slice from a pass-1 plan plus replays of the
    /// same edge stream.
    ///
    /// `stream` is invoked exactly **twice**, but both passes only *retain*
    /// data about the shard's own nodes and their direct neighbours (the
    /// *frontier*): peak memory is `O(n)` for the plan plus `O(m/S +
    /// frontier)` for the slice, never the full `O(m)` CSR.
    ///
    /// The frontier adjacency is needed because `dest_slot[(v, p)]` is the
    /// receiver's slot, which depends on where the sender ranks among the
    /// *receiver's* sorted neighbours; rebuilding the frontier's port lists
    /// locally (pass B) avoids shipping any remote CSR data.
    ///
    /// # Errors
    ///
    /// * [`TopologyError::NodeOutOfRange`] / [`TopologyError::SelfLoop`] on
    ///   invalid edges (checked for the whole stream, as in the full build);
    /// * [`TopologyError::DuplicateEdge`] for duplicates involving an owned
    ///   or frontier node (remote-only duplicates are the remote shards'
    ///   responsibility);
    /// * [`TopologyError::PlanMismatch`] if the replay does not match the
    ///   plan's degree header.
    pub fn build<F>(plan: ShardPlan, shard: usize, mut stream: F) -> Result<Self, TopologyError>
    where
        F: FnMut(&mut dyn FnMut(NodeId, NodeId)),
    {
        assert!(
            shard < plan.num_shards(),
            "shard index {shard} out of range for {} shards",
            plan.num_shards()
        );
        let n = plan.n;
        let lo = plan.node_start[shard];
        let hi = plan.node_start[shard + 1];

        // --- Local CSR offsets from the plan's degree header -------------
        let mut offsets = Vec::with_capacity(hi - lo + 1);
        offsets.push(0usize);
        for v in lo..hi {
            offsets.push(offsets.last().unwrap() + plan.degree[v] as usize);
        }
        let slots = *offsets.last().unwrap();

        // --- Pass A: own nodes' adjacency (validating every edge) --------
        let mut adjacency = vec![0u32; slots];
        let mut cursor = vec![0u32; hi - lo];
        let mut first_error: Option<TopologyError> = None;
        stream(&mut |u: NodeId, v: NodeId| {
            if first_error.is_some() {
                return;
            }
            if u >= n || v >= n {
                let node = if u >= n { u } else { v };
                first_error = Some(TopologyError::NodeOutOfRange { node, n });
                return;
            }
            if u == v {
                first_error = Some(TopologyError::SelfLoop(u));
                return;
            }
            for (a, b) in [(u, v), (v, u)] {
                if a >= lo && a < hi {
                    let i = a - lo;
                    if offsets[i] + cursor[i] as usize >= offsets[i + 1] {
                        first_error = Some(TopologyError::PlanMismatch { node: a });
                        return;
                    }
                    adjacency[offsets[i] + cursor[i] as usize] = b as u32;
                    cursor[i] += 1;
                }
            }
        });
        if let Some(e) = first_error.take() {
            return Err(e);
        }
        if let Some(i) = (0..hi - lo).find(|&i| cursor[i] as usize != plan.degree(lo + i)) {
            return Err(TopologyError::PlanMismatch { node: lo + i });
        }

        // --- Sort own port lists, reject duplicates ----------------------
        for i in 0..hi - lo {
            let ports = &mut adjacency[offsets[i]..offsets[i + 1]];
            ports.sort_unstable();
            if let Some(w) = ports.windows(2).find(|w| w[0] == w[1]) {
                let v = lo + i;
                let u = w[0] as usize;
                return Err(TopologyError::DuplicateEdge(v.min(u), v.max(u)));
            }
        }

        // --- The frontier: remote endpoints of the shard's edges ---------
        let mut frontier: Vec<u32> = adjacency
            .iter()
            .copied()
            .filter(|&u| (u as usize) < lo || (u as usize) >= hi)
            .collect();
        frontier.sort_unstable();
        frontier.dedup();

        // --- Pass B: rebuild the frontier's own port lists ---------------
        let mut fr_off = Vec::with_capacity(frontier.len() + 1);
        fr_off.push(0usize);
        for &u in &frontier {
            fr_off.push(fr_off.last().unwrap() + plan.degree(u as usize));
        }
        let mut fr_adj = vec![0u32; *fr_off.last().unwrap()];
        let mut fr_cursor = vec![0u32; frontier.len()];
        stream(&mut |u: NodeId, v: NodeId| {
            if first_error.is_some() {
                return;
            }
            for (a, b) in [(u, v), (v, u)] {
                if (a < lo || a >= hi) && a < n {
                    if let Ok(fi) = frontier.binary_search(&(a as u32)) {
                        if fr_off[fi] + fr_cursor[fi] as usize >= fr_off[fi + 1] {
                            first_error = Some(TopologyError::PlanMismatch { node: a });
                            return;
                        }
                        fr_adj[fr_off[fi] + fr_cursor[fi] as usize] = b as u32;
                        fr_cursor[fi] += 1;
                    }
                }
            }
        });
        if let Some(e) = first_error.take() {
            return Err(e);
        }
        if let Some(fi) =
            (0..frontier.len()).find(|&fi| fr_off[fi] + fr_cursor[fi] as usize != fr_off[fi + 1])
        {
            return Err(TopologyError::PlanMismatch {
                node: frontier[fi] as usize,
            });
        }
        for fi in 0..frontier.len() {
            let ports = &mut fr_adj[fr_off[fi]..fr_off[fi + 1]];
            ports.sort_unstable();
            if let Some(w) = ports.windows(2).find(|w| w[0] == w[1]) {
                let v = frontier[fi] as usize;
                let u = w[0] as usize;
                return Err(TopologyError::DuplicateEdge(v.min(u), v.max(u)));
            }
        }

        // --- Global port-range starts of the frontier --------------------
        // One monotone sweep over the plan's degree header: the flat slot
        // of `u`'s first port is `slot_start[su] +` (degree sum of `su`'s
        // nodes before `u`).
        let mut fr_port_start = vec![0usize; frontier.len()];
        {
            let mut fi = 0usize;
            for su in 0..plan.num_shards() {
                if fi >= frontier.len() {
                    break;
                }
                let su_hi = plan.node_start[su + 1];
                if (frontier[fi] as usize) >= su_hi {
                    continue;
                }
                let mut acc = plan.slot_start[su];
                let mut v = plan.node_start[su];
                while fi < frontier.len() && (frontier[fi] as usize) < su_hi {
                    let u = frontier[fi] as usize;
                    while v < u {
                        acc += plan.degree[v] as usize;
                        v += 1;
                    }
                    fr_port_start[fi] = acc;
                    fi += 1;
                }
            }
        }

        // --- Reverse ports + dest_slot, all from local data --------------
        let mut reverse_port = vec![0u32; slots];
        let mut dest_slot = vec![0u32; slots];
        for i in 0..hi - lo {
            let v = lo + i;
            for local in offsets[i]..offsets[i + 1] {
                let u = adjacency[local] as usize;
                let (rp, dest) = if u >= lo && u < hi {
                    let j = u - lo;
                    let (ulo, uhi) = (offsets[j], offsets[j + 1]);
                    let rp = adjacency[ulo..uhi]
                        .binary_search(&(v as u32))
                        .expect("undirected edge must appear in both port lists");
                    (rp, plan.slot_start[shard] + ulo + rp)
                } else {
                    let fi = frontier
                        .binary_search(&(u as u32))
                        .expect("remote neighbour is in the frontier by construction");
                    let rp = match fr_adj[fr_off[fi]..fr_off[fi + 1]].binary_search(&(v as u32)) {
                        Ok(rp) => rp,
                        // Pass A saw edge (v, u) but pass B did not: the
                        // replay diverged between invocations.
                        Err(_) => return Err(TopologyError::PlanMismatch { node: u }),
                    };
                    (rp, fr_port_start[fi] + rp)
                };
                reverse_port[local] = rp as u32;
                dest_slot[local] = dest as u32;
            }
        }

        Ok(Self {
            plan,
            shard,
            csr: ShardCsr {
                offsets,
                adjacency,
                reverse_port,
                dest_slot,
            },
        })
    }

    /// The pass-1 plan the slice was built from.
    #[inline]
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The shard index this slice owns.
    #[inline]
    pub fn shard(&self) -> usize {
        self.shard
    }
}

/// The topology surface the round kernel needs — everything it and the
/// remote worker protocol touch (see [`crate::executor`]), abstracted so a
/// shard can run on the full [`ShardedTopology`], on a worker's own
/// [`ShardSliceTopology`], or, for the single-threaded driver, on any
/// [`TopologyView`] taken as one shard.
///
/// The `*_from` accessors take the caller's shard explicitly (the hot-path
/// contract of [`ShardedTopology::dest_slot_from`]); a slice implementation
/// only answers for the shard it owns and `debug_assert`s that.
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
    /// Degree of `v`, which must belong to `shard`.
    fn degree_from(&self, shard: usize, v: NodeId) -> usize;
    /// The global inbox slot a message sent by `v` (of `shard`) over port
    /// `p` lands in.
    fn dest_slot_from(&self, shard: usize, v: NodeId, p: Port) -> usize;
    /// The global flat-slot range of `v`'s own inbox, `v` in `shard`.
    fn port_range_from(&self, shard: usize, v: NodeId) -> core::ops::Range<usize>;
}

impl ShardTopologyView for ShardedTopology {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.n
    }

    #[inline]
    fn num_shards(&self) -> usize {
        ShardedTopology::num_shards(self)
    }

    #[inline]
    fn max_degree(&self) -> u32 {
        self.max_degree
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
    fn degree_from(&self, shard: usize, v: NodeId) -> usize {
        ShardedTopology::degree_from(self, shard, v)
    }

    #[inline]
    fn dest_slot_from(&self, shard: usize, v: NodeId, p: Port) -> usize {
        ShardedTopology::dest_slot_from(self, shard, v, p)
    }

    #[inline]
    fn port_range_from(&self, shard: usize, v: NodeId) -> core::ops::Range<usize> {
        debug_assert_eq!(self.shard_of(v), shard);
        let csr = &self.shards[shard];
        let i = v - self.node_start[shard];
        let base = self.slot_start[shard];
        base + csr.offsets[i]..base + csr.offsets[i + 1]
    }
}

impl ShardTopologyView for ShardSliceTopology {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.plan.n
    }

    #[inline]
    fn num_shards(&self) -> usize {
        self.plan.num_shards()
    }

    #[inline]
    fn max_degree(&self) -> u32 {
        self.plan.max_degree
    }

    #[inline]
    fn shard_nodes(&self, s: usize) -> core::ops::Range<NodeId> {
        self.plan.shard_nodes(s)
    }

    #[inline]
    fn shard_slots(&self, s: usize) -> core::ops::Range<usize> {
        self.plan.slot_start[s]..self.plan.slot_start[s + 1]
    }

    #[inline]
    fn shard_of_slot(&self, slot: usize) -> usize {
        self.plan.slot_start.partition_point(|&s| s <= slot) - 1
    }

    #[inline]
    fn degree_from(&self, shard: usize, v: NodeId) -> usize {
        debug_assert_eq!(shard, self.shard, "a slice only serves its own shard");
        let i = v - self.plan.node_start[self.shard];
        self.csr.offsets[i + 1] - self.csr.offsets[i]
    }

    #[inline]
    fn dest_slot_from(&self, shard: usize, v: NodeId, p: Port) -> usize {
        debug_assert_eq!(shard, self.shard, "a slice only serves its own shard");
        let local = self.csr.offsets[v - self.plan.node_start[self.shard]] + p;
        self.csr.dest_slot[local] as usize
    }

    #[inline]
    fn port_range_from(&self, shard: usize, v: NodeId) -> core::ops::Range<usize> {
        debug_assert_eq!(shard, self.shard, "a slice only serves its own shard");
        let i = v - self.plan.node_start[self.shard];
        let base = self.plan.slot_start[self.shard];
        base + self.csr.offsets[i]..base + self.csr.offsets[i + 1]
    }
}

impl TopologyView for ShardedTopology {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.n
    }

    #[inline]
    fn num_directed_edges(&self) -> usize {
        2 * self.num_edges
    }

    #[inline]
    fn max_degree(&self) -> u32 {
        self.max_degree
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        let (shard, i) = self.locate(v);
        shard.offsets[i + 1] - shard.offsets[i]
    }

    #[inline]
    fn neighbor_at(&self, v: NodeId, p: Port) -> NodeId {
        let (shard, i) = self.locate(v);
        shard.adjacency[shard.offsets[i] + p] as NodeId
    }

    #[inline]
    fn reverse_port(&self, v: NodeId, p: Port) -> Port {
        let (shard, i) = self.locate(v);
        shard.reverse_port[shard.offsets[i] + p] as Port
    }

    #[inline]
    fn port_range(&self, v: NodeId) -> core::ops::Range<usize> {
        let s = self.shard_of(v);
        let shard = &self.shards[s];
        let i = v - self.node_start[s];
        let base = self.slot_start[s];
        base + shard.offsets[i]..base + shard.offsets[i + 1]
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
                for v in ShardTopologyView::shard_nodes(&slice, s) {
                    assert_eq!(
                        slice.port_range_from(s, v),
                        ShardTopologyView::port_range_from(&full, s, v)
                    );
                    for p in 0..slice.degree_from(s, v) {
                        assert_eq!(slice.dest_slot_from(s, v, p), full.dest_slot(v, p));
                    }
                }
            }
        }
    }

    #[test]
    fn restricted_build_rejects_streams_that_do_not_match_the_plan() {
        let plan = ShardPlan::from_edge_stream(9, 2, mixed_stream(9)).unwrap();
        // A replay with an extra edge overflows some node's planned degree.
        let err = ShardSliceTopology::build(plan.clone(), 0, |emit| {
            mixed_stream(9)(emit);
            emit(0, 4);
        });
        assert!(matches!(err, Err(TopologyError::PlanMismatch { .. })));
        // A replay with a missing edge leaves a cursor short.
        let err = ShardSliceTopology::build(plan.clone(), 0, |emit| {
            let mut skipped = false;
            mixed_stream(9)(&mut |u, v| {
                if !skipped {
                    skipped = true;
                } else {
                    emit(u, v);
                }
            });
        });
        assert!(matches!(err, Err(TopologyError::PlanMismatch { .. })));
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
