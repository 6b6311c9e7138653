//! The immutable communication graph with port numbering.
//!
//! Nodes are integers `0..n`.  Each node sees its incident edges as *ports*
//! `0..deg(v)`; the port numbering is what a LOCAL/CONGEST node actually has
//! access to (it does **not** know which node sits behind a port unless that
//! node tells it).  The topology additionally precomputes, for every port
//! `(v, p)`, the inbox slot at which its neighbour receives `v`'s messages
//! (the *destination table*), so the simulator delivers a message with one
//! lookup.
//!
//! [`Topology`] stores the crate's one CSR layout: `u32` neighbours and
//! destination slots, made in linear time by the builder every topology
//! type shares (no hashing, no search).  So a graph has at most `u32::MAX`
//! nodes and directed edges.

use serde::{Deserialize, Serialize};

use crate::csr::{self, Csr};
use crate::sharded::ShardTopologyView;

/// Identifier of a node: a dense index in `0..n`.
pub type NodeId = usize;

/// A port of a node: an index in `0..deg(v)` identifying one incident edge.
pub type Port = usize;

/// Errors produced when constructing a [`Topology`], a
/// [`ShardedTopology`](crate::sharded::ShardedTopology) or a
/// [`ShardSliceTopology`](crate::sharded::ShardSliceTopology).
///
/// The enum is `#[non_exhaustive]`: construction helpers may learn to report
/// new failure modes without a breaking change, so downstream `match`es need
/// a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologyError {
    /// An edge endpoint is `>= n`.
    NodeOutOfRange {
        /// the offending endpoint
        node: NodeId,
        /// the number of nodes
        n: usize,
    },
    /// A self-loop `(v, v)` was supplied.
    SelfLoop(NodeId),
    /// The same undirected edge was supplied twice.
    DuplicateEdge(NodeId, NodeId),
    /// A sharded construction was asked for zero shards.
    ShardCountZero,
    /// The graph exceeds the compact index range every topology stores
    /// (node ids and directed-edge slots are `u32`).
    NodeRangeOverflow {
        /// the node count or directed-edge count that does not fit
        value: usize,
        /// the largest representable value
        limit: usize,
    },
    /// An edge stream replay disagrees with the pass-1
    /// [`ShardPlan`](crate::ShardPlan) it is being combined with: some node
    /// saw more or fewer edges than the plan's degree header recorded.
    PlanMismatch {
        /// the first node whose streamed degree differs from the plan
        node: NodeId,
    },
    /// An edge stream replay emits a different number of edges than the
    /// pass-1 [`ShardPlan`](crate::ShardPlan) counted (no node is named:
    /// the count is checked before any degree is).
    EdgeCountMismatch {
        /// the plan's edge count
        planned: usize,
        /// the edges the replay emitted
        streamed: usize,
    },
    /// A shard slice was asked for a shard the plan does not have.
    ShardOutOfRange {
        /// the requested shard index
        shard: usize,
        /// the plan's shard count
        shards: usize,
    },
}

impl core::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TopologyError::NodeOutOfRange { node, n } => {
                write!(f, "edge endpoint {node} out of range for n={n}")
            }
            TopologyError::SelfLoop(v) => write!(f, "self-loop at node {v}"),
            TopologyError::DuplicateEdge(u, v) => write!(f, "duplicate edge ({u}, {v})"),
            TopologyError::ShardCountZero => write!(f, "shard count must be at least 1"),
            TopologyError::NodeRangeOverflow { value, limit } => {
                write!(
                    f,
                    "graph too large for the compact topology representation \
                     ({value} exceeds the u32 index limit {limit})"
                )
            }
            TopologyError::PlanMismatch { node } => {
                write!(
                    f,
                    "edge stream does not replay the shard plan: degree of \
                     node {node} disagrees with the plan's degree header"
                )
            }
            TopologyError::EdgeCountMismatch { planned, streamed } => {
                write!(
                    f,
                    "edge stream does not replay the shard plan: it emits \
                     {streamed} edges, the plan counted {planned}"
                )
            }
            TopologyError::ShardOutOfRange { shard, shards } => {
                write!(f, "shard index {shard} out of range for {shards} shards")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// The read-only topology interface the [`Simulator`](crate::Simulator) and
/// every [`Executor`](crate::executor::Executor) are written against.
///
/// [`Topology`] (one global CSR) and
/// [`ShardedTopology`](crate::sharded::ShardedTopology) (the same CSR cut
/// into node-range shards) both implement this trait, so both run under
/// either.  The round kernel itself reads a
/// [`ShardTopologyView`]: the sharded driver's `ShardedTopology`, or the
/// single-threaded driver's [`whole`](TopologyView::whole) `Topology`, one
/// shard that owns every node and slot.
///
/// # The flat slot contract
///
/// `port_range(v)` maps node `v`'s ports into a single flat index space of
/// size [`num_directed_edges`](TopologyView::num_directed_edges): slot
/// `port_range(v).start + p` belongs to the directed edge arriving at
/// `(v, p)`.  The ranges of distinct nodes are disjoint, cover
/// `0..num_directed_edges()`, and are **ascending in `v`** — which is what
/// lets a sharded executor hand each worker ownership of one contiguous
/// slot sub-range.
pub trait TopologyView: Sync {
    /// Number of nodes `n`.
    fn num_nodes(&self) -> usize;

    /// Number of directed edges (`2 ·` undirected edges) — the size of any
    /// flat per-port buffer, such as the round engine's inbox slots.
    fn num_directed_edges(&self) -> usize;

    /// Maximum degree `Δ`.
    fn max_degree(&self) -> u32;

    /// Degree of node `v`.
    fn degree(&self, v: NodeId) -> usize;

    /// Node `v`'s neighbours, in port order (ascending): entry `p` is the
    /// node whose messages arrive on `v`'s port `p`.
    fn neighbor_row(&self, v: NodeId) -> &[u32];

    /// The neighbour of `v` behind port `p`.
    fn neighbor_at(&self, v: NodeId, p: Port) -> NodeId {
        self.neighbor_row(v)[p] as NodeId
    }

    /// Node `v`'s row of the destination table: for each of its ports, in
    /// port order, the flat slot at which the neighbour behind it receives
    /// `v`'s messages.  Ports are sorted by neighbour, so the row ascends.
    fn dest_slots(&self, v: NodeId) -> &[u32];

    /// The port at which `v` appears in the port list of its neighbour
    /// behind port `p`, derived from the destination table.
    fn reverse_port(&self, v: NodeId, p: Port) -> Port {
        self.dest_slots(v)[p] as usize - self.port_range(self.neighbor_at(v, p)).start
    }

    /// The flat slot range of node `v`'s ports (see the trait docs for the
    /// indexing contract).
    fn port_range(&self, v: NodeId) -> core::ops::Range<usize>;

    /// The [`Topology`] behind the view: the view itself, or the graph a
    /// [`ShardedTopology`](crate::sharded::ShardedTopology) cuts into
    /// shards.  The single-threaded driver runs on it as one shard.
    fn whole(&self) -> &Topology;
}

/// An undirected communication graph in compressed adjacency form.
///
/// # Examples
///
/// ```
/// use dcme_congest::Topology;
/// // A triangle.
/// let g = Topology::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.max_degree(), 2);
/// assert_eq!(g.degree(0), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    /// Row `v` is node `v`'s sorted neighbour list, with its row of the
    /// destination table.
    csr: Csr,
    num_edges: usize,
    max_degree: u32,
}

impl Topology {
    /// Builds a topology from an undirected edge list.
    ///
    /// Edges may be given in either orientation; self-loops and duplicate
    /// edges are rejected.
    ///
    /// # Errors
    ///
    /// [`TopologyError::NodeRangeOverflow`] if `n` or `2 · edges.len()`
    /// exceeds `u32::MAX`; otherwise the first out-of-range endpoint
    /// ([`TopologyError::NodeOutOfRange`]) or self-loop
    /// ([`TopologyError::SelfLoop`]) in list order; otherwise the
    /// lexicographically smallest edge given twice
    /// ([`TopologyError::DuplicateEdge`]).
    /// [`ShardedTopology::from_edge_stream`](crate::ShardedTopology::from_edge_stream)
    /// reports errors the same way.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, TopologyError> {
        let stream = |emit: &mut dyn FnMut(NodeId, NodeId)| {
            for &(u, v) in edges {
                emit(u, v);
            }
        };
        let (degree, num_edges) = csr::count_degrees(n, stream)?;
        let csr = csr::build(&degree, 0..n, Some, 0..n, stream)?;
        Ok(Self::from_csr(csr, num_edges))
    }

    /// Wraps the full build of [`csr::build`] (every row held and own).
    pub(crate) fn from_csr(csr: Csr, num_edges: usize) -> Self {
        let max_degree = csr.offsets.windows(2).map(|w| w[1] - w[0]).max();
        Self {
            csr,
            num_edges,
            max_degree: max_degree.unwrap_or(0) as u32,
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.csr.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of directed edges (`2 · num_edges`) — the size of any flat
    /// per-port buffer, such as the round engine's inbox slots.
    #[inline]
    pub fn num_directed_edges(&self) -> usize {
        self.csr.neighbors.len()
    }

    /// The CSR index range of node `v`'s ports: slot `port_range(v).start + p`
    /// of a flat per-port buffer belongs to `(v, p)`.
    ///
    /// This is the indexing contract shared by the round engine's inbox
    /// slots (see [`crate::executor`]) and by the node-range shards of a
    /// [`ShardedTopology`](crate::sharded::ShardedTopology).
    #[inline]
    pub fn port_range(&self, v: NodeId) -> core::ops::Range<usize> {
        self.csr.offsets[v]..self.csr.offsets[v + 1]
    }

    /// Maximum degree `Δ`.
    #[inline]
    pub fn max_degree(&self) -> u32 {
        self.max_degree
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.csr.offsets[v + 1] - self.csr.offsets[v]
    }

    #[inline]
    fn row(&self, v: NodeId) -> &[u32] {
        &self.csr.neighbors[self.port_range(v)]
    }

    /// Node `v`'s row of `table`, the neighbours or the destination table,
    /// or `None` past the last node.
    #[inline]
    fn held_row<'t>(&self, v: NodeId, table: &'t [u32]) -> Option<&'t [u32]> {
        let end = *self.csr.offsets.get(v + 1)?;
        Some(&table[self.csr.offsets[v]..end])
    }

    /// The neighbours of `v`, in port order (ascending).
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> impl ExactSizeIterator<Item = NodeId> + Clone + '_ {
        self.row(v).iter().map(|&u| u as NodeId)
    }

    /// The neighbour of `v` behind port `p`.
    #[inline]
    pub fn neighbor_at(&self, v: NodeId, p: Port) -> NodeId {
        self.row(v)[p] as NodeId
    }

    /// Node `v`'s row of the destination table: for each port `p`, the flat
    /// slot `port_range(u).start + reverse_port(v, p)` at which the
    /// neighbour `u` behind it receives `v`'s messages.
    #[inline]
    pub fn dest_slots(&self, v: NodeId) -> &[u32] {
        &self.csr.dest[self.port_range(v)]
    }

    /// The port at which `v` appears in the port list of its neighbour behind
    /// port `p` (i.e. the port on which that neighbour receives `v`'s
    /// messages).
    #[inline]
    pub fn reverse_port(&self, v: NodeId, p: Port) -> Port {
        TopologyView::reverse_port(self, v, p)
    }

    /// The port of `u` in `v`'s list, if `u` and `v` are adjacent.
    pub fn port_of(&self, v: NodeId, u: NodeId) -> Option<Port> {
        self.row(v).binary_search(&u32::try_from(u).ok()?).ok()
    }

    /// Whether `u` and `v` are adjacent.
    pub fn are_adjacent(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        self.port_of(v, u).is_some()
    }

    /// Iterator over all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.num_nodes()).flat_map(move |v| {
            self.neighbors(v)
                .filter(move |&u| v < u)
                .map(move |u| (v, u))
        })
    }

    /// Iterator over all node identifiers.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.num_nodes()
    }

    /// The set of nodes within hop distance at most `r` of `v` (including `v`).
    ///
    /// Used by the ruling-set verifier and by power-graph constructions.
    /// Allocates a fresh [`BallScratch`] per call; callers that query many
    /// balls of the same graph should reuse one scratch via
    /// [`Topology::ball_into`].
    pub fn ball(&self, v: NodeId, r: usize) -> Vec<NodeId> {
        let mut scratch = BallScratch::default();
        let mut out = Vec::new();
        self.ball_into(&mut scratch, v, r, &mut out);
        out
    }

    /// Writes the ball of radius `r` around `v` into `out` (cleared first),
    /// reusing `scratch` across calls.
    ///
    /// The scratch marks visited nodes with a per-call epoch instead of
    /// re-allocating (or re-zeroing) an `n`-sized visited buffer per call,
    /// so querying all `n` balls of a graph costs `O(n)` allocation total
    /// rather than `O(n²)`.
    pub fn ball_into(&self, scratch: &mut BallScratch, v: NodeId, r: usize, out: &mut Vec<NodeId>) {
        out.clear();
        let epoch = scratch.begin(self.num_nodes());
        scratch.mark[v] = epoch;
        scratch.dist[v] = 0;
        scratch.queue.push_back(v);
        out.push(v);
        while let Some(u) = scratch.queue.pop_front() {
            if scratch.dist[u] == r {
                continue;
            }
            for w in self.neighbors(u) {
                if scratch.mark[w] != epoch {
                    scratch.mark[w] = epoch;
                    scratch.dist[w] = scratch.dist[u] + 1;
                    out.push(w);
                    scratch.queue.push_back(w);
                }
            }
        }
    }

    /// Builds the power graph `G^p`: same vertex set, an edge between any two
    /// distinct vertices at hop distance at most `p` in `G`.
    ///
    /// The paper uses `G^{α-1}` to lift (2, r)-ruling sets to (α, r)-ruling
    /// sets in the LOCAL model.
    pub fn power(&self, p: usize) -> Topology {
        assert!(p >= 1, "power must be at least 1");
        let mut edges = Vec::new();
        let mut scratch = BallScratch::default();
        let mut ball = Vec::new();
        for v in self.nodes() {
            self.ball_into(&mut scratch, v, p, &mut ball);
            for &u in &ball {
                if v < u {
                    edges.push((v, u));
                }
            }
        }
        Topology::from_edges(self.num_nodes(), &edges)
            .expect("power graph edges are valid by construction")
    }
}

impl TopologyView for Topology {
    #[inline]
    fn num_nodes(&self) -> usize {
        Topology::num_nodes(self)
    }

    #[inline]
    fn num_directed_edges(&self) -> usize {
        Topology::num_directed_edges(self)
    }

    #[inline]
    fn max_degree(&self) -> u32 {
        Topology::max_degree(self)
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        Topology::degree(self, v)
    }

    #[inline]
    fn neighbor_row(&self, v: NodeId) -> &[u32] {
        self.row(v)
    }

    #[inline]
    fn dest_slots(&self, v: NodeId) -> &[u32] {
        Topology::dest_slots(self, v)
    }

    #[inline]
    fn port_range(&self, v: NodeId) -> core::ops::Range<usize> {
        Topology::port_range(self, v)
    }

    fn whole(&self) -> &Topology {
        self
    }
}

/// A `Topology` is one shard that owns every node and every slot: the view
/// the single-threaded driver runs its kernel on.
impl ShardTopologyView for Topology {
    fn num_nodes(&self) -> usize {
        Topology::num_nodes(self)
    }

    fn num_shards(&self) -> usize {
        1
    }

    fn max_degree(&self) -> u32 {
        Topology::max_degree(self)
    }

    fn shard_nodes(&self, _s: usize) -> core::ops::Range<NodeId> {
        0..Topology::num_nodes(self)
    }

    #[inline]
    fn shard_slots(&self, _s: usize) -> core::ops::Range<usize> {
        0..Topology::num_directed_edges(self)
    }

    #[inline]
    fn shard_of_slot(&self, _slot: usize) -> usize {
        0
    }

    #[inline]
    fn port_range_from(&self, _shard: usize, v: NodeId) -> core::ops::Range<usize> {
        Topology::port_range(self, v)
    }

    fn row_nodes(&self) -> core::ops::Range<NodeId> {
        0..Topology::num_nodes(self)
    }

    #[inline]
    fn dest_row(&self, v: NodeId) -> Option<&[u32]> {
        self.held_row(v, &self.csr.dest)
    }

    #[inline]
    fn source_row(&self, v: NodeId) -> Option<&[u32]> {
        self.held_row(v, &self.csr.neighbors)
    }
}

/// Reusable BFS scratch for [`Topology::ball_into`].
///
/// Visited state is tracked by stamping nodes with a monotonically
/// increasing epoch, so reusing the scratch across calls costs no clearing:
/// a new call just bumps the epoch, invalidating all previous stamps at
/// once.  Buffers grow to `n` on first use and are then recycled.
#[derive(Debug, Default)]
pub struct BallScratch {
    /// Epoch at which each node was last visited.
    mark: Vec<u64>,
    /// BFS distance, valid only where `mark[v]` equals the current epoch.
    dist: Vec<usize>,
    /// Current epoch (incremented per call).
    epoch: u64,
    /// BFS frontier queue (drained empty by every call).
    queue: std::collections::VecDeque<NodeId>,
}

impl BallScratch {
    /// Starts a new traversal over `n` nodes; returns the fresh epoch.
    fn begin(&mut self, n: usize) -> u64 {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
            self.dist.resize(n, 0);
        }
        self.epoch += 1;
        self.queue.clear();
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology {
        Topology::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn rejects_invalid_edges() {
        assert!(matches!(
            Topology::from_edges(3, &[(0, 3)]),
            Err(TopologyError::NodeOutOfRange { node: 3, n: 3 })
        ));
        assert!(matches!(
            Topology::from_edges(3, &[(1, 1)]),
            Err(TopologyError::SelfLoop(1))
        ));
        assert!(matches!(
            Topology::from_edges(3, &[(0, 1), (1, 0)]),
            Err(TopologyError::DuplicateEdge(0, 1))
        ));
        assert!(matches!(
            Topology::from_edges(u32::MAX as usize + 1, &[]),
            Err(TopologyError::NodeRangeOverflow { .. })
        ));
    }

    #[test]
    fn empty_graph() {
        let g = Topology::from_edges(5, &[]).unwrap();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        for v in 0..5 {
            assert_eq!(g.degree(v), 0);
        }
    }

    #[test]
    fn neighbors_are_sorted_and_ports_consistent() {
        let g = Topology::from_edges(5, &[(4, 0), (4, 2), (4, 1), (1, 0)]).unwrap();
        assert!(g.neighbors(4).eq([0, 1, 2]));
        assert!(g.neighbors(0).eq([1, 4]));
        // Port consistency: the reverse of the reverse port is the original.
        for v in g.nodes() {
            for p in 0..g.degree(v) {
                let u = g.neighbor_at(v, p);
                let rp = g.reverse_port(v, p);
                assert_eq!(g.neighbor_at(u, rp), v);
                assert_eq!(g.reverse_port(u, rp), p);
            }
        }
    }

    #[test]
    fn csr_port_ranges_partition_the_directed_edges() {
        let g = Topology::from_edges(5, &[(4, 0), (4, 2), (4, 1), (1, 0)]).unwrap();
        assert_eq!(g.num_directed_edges(), 8);
        let mut covered = 0;
        for v in g.nodes() {
            let r = g.port_range(v);
            assert_eq!(r.len(), g.degree(v));
            assert_eq!(r.start, covered);
            covered = r.end;
        }
        assert_eq!(covered, g.num_directed_edges());
    }

    #[test]
    fn degrees_and_adjacency() {
        let g = triangle();
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.are_adjacent(0, 1));
        assert!(g.are_adjacent(1, 2));
        assert!(!g.are_adjacent(0, 0));
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn ball_and_power_graph_on_path() {
        // Path 0-1-2-3-4
        let g = Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let mut b = g.ball(0, 2);
        b.sort_unstable();
        assert_eq!(b, vec![0, 1, 2]);
        let g2 = g.power(2);
        assert!(g2.are_adjacent(0, 2));
        assert!(g2.are_adjacent(0, 1));
        assert!(!g2.are_adjacent(0, 3));
        assert_eq!(g2.max_degree(), 4); // middle vertex reaches everything
    }

    #[test]
    fn power_one_is_identity() {
        let g = triangle();
        let g1 = g.power(1);
        assert_eq!(g.num_edges(), g1.num_edges());
        for (u, v) in g.edges() {
            assert!(g1.are_adjacent(u, v));
        }
    }

    #[test]
    fn ball_scratch_is_reusable_across_nodes_and_graphs() {
        let g = Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let mut scratch = BallScratch::default();
        let mut out = Vec::new();
        for v in g.nodes() {
            for r in 0..3 {
                g.ball_into(&mut scratch, v, r, &mut out);
                let mut fresh = g.ball(v, r);
                out.sort_unstable();
                fresh.sort_unstable();
                assert_eq!(out, fresh, "v={v} r={r}");
            }
        }
        // The same scratch serves a different (smaller) graph.
        let h = triangle();
        h.ball_into(&mut scratch, 1, 1, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn topology_view_matches_inherent_methods() {
        let g = Topology::from_edges(5, &[(4, 0), (4, 2), (4, 1), (1, 0)]).unwrap();
        let view: &dyn TopologyView = &g;
        assert_eq!(view.num_nodes(), 5);
        assert_eq!(view.num_directed_edges(), 8);
        assert_eq!(view.max_degree(), 3);
        for v in g.nodes() {
            assert_eq!(view.degree(v), g.degree(v));
            assert_eq!(view.port_range(v), g.port_range(v));
            assert_eq!(view.dest_slots(v), g.dest_slots(v));
            assert!(view
                .neighbor_row(v)
                .iter()
                .map(|&u| u as NodeId)
                .eq(g.neighbors(v)));
            for p in 0..g.degree(v) {
                assert_eq!(view.neighbor_at(v, p), g.neighbor_at(v, p));
                assert_eq!(view.reverse_port(v, p), g.reverse_port(v, p));
            }
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn reverse_port_past_the_degree_panics() {
        // Node 1 has two ports; a third would be node 2's first entry.
        let _ = triangle().reverse_port(1, 2);
    }

    #[test]
    fn error_display_covers_sharding_variants() {
        let e = TopologyError::ShardCountZero;
        assert!(e.to_string().contains("at least 1"));
        let e = TopologyError::NodeRangeOverflow {
            value: 1 << 33,
            limit: u32::MAX as usize,
        };
        assert!(e.to_string().contains("u32 index limit"));
    }
}
