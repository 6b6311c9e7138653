//! The one CSR layout every topology type stores, and its one builder.
//!
//! A build holds the *rows* of some nodes, ascending: every node, or a
//! worker's shard plus its remote neighbours.  Given the degrees, [`build`]
//! runs in linear time with no hashing and no search: one replay of the
//! edge stream fills the rows; each row is sorted and adjacent duplicates
//! are rejected; one pass over the rows in ascending node order fills the
//! *destination table* of the *own* rows: for every port `(w, p)`, the
//! global inbox slot its messages land in.
//!
//! # The destination pass
//!
//! Each own node `w` keeps a cursor `c[w]`, its first port without a slot.
//! When own node `w` turns up at position `j` of `u`'s row, `u` is the
//! smallest neighbour of `w` not met yet, so it sits behind port `c[w]++`,
//! and `w` is `u`'s port `j`: that port's slot is `u`'s first global slot
//! plus `j`.  This *push* jumps to `w`'s row, and the pass makes one per
//! edge, not one per port:
//!
//! * an edge from a held node outside the own range to an own node is
//!   pushed from the outside node's row;
//! * an edge between own nodes `u < w` is handled at `u`'s row only.  The
//!   cursor the push reads is `w`'s port for `u`, so `u`'s port `j` gets
//!   the own range's first global slot plus that cursor, written along
//!   `u`'s row, and `w`'s row skips the edge.
//!
//! One loop serves full builds and worker slices.  A sorted own row lists
//! the neighbours below the own range first, whose rows come earlier, then
//! the own ones, then those above the range, whose rows come later.  Its
//! own neighbours below `u` push into `c[u]` before `u`'s row is reached,
//! and `c[u]` advances once per entry written from `u`'s row, so the
//! pushes from the rows above the range continue in port order.  Every
//! cursor advances once per held neighbour, as with a push per port, so a
//! neighbour the build does not hold leaves its node's cursor short.
//!
//! The table is what every driver routes through, one load per message,
//! and the reverse port is derived from it: the slot minus the neighbour's
//! first slot.

use crate::topology::{NodeId, TopologyError};

/// The largest node count and directed-edge count a `u32` index can hold.
pub(crate) const INDEX_LIMIT: usize = u32::MAX as usize;

/// Row `r` keeps its node's neighbours, ascending (port order), at
/// `neighbors[offsets[r]..offsets[r + 1]]`; `dest` covers the own rows'
/// ports only, from the first: for each, the global inbox slot at which the
/// neighbour behind it receives the row's node's messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Csr {
    pub(crate) offsets: Vec<usize>,
    pub(crate) neighbors: Vec<u32>,
    pub(crate) dest: Vec<u32>,
}

/// A node set as a bitmap, with the member count before each 64-node word:
/// a member's row is its rank, a popcount away.
pub(crate) struct RankedRows {
    words: Vec<u64>,
    before: Vec<u32>,
}

impl RankedRows {
    /// Ranks the set whose node `v` is bit `v % 64` of `words[v / 64]`.
    pub(crate) fn new(words: Vec<u64>) -> Self {
        let before = words
            .iter()
            .scan(0, |seen, w| {
                Some(std::mem::replace(seen, *seen + w.count_ones()))
            })
            .collect();
        Self { words, before }
    }

    /// The rank of `v`, if it is a member.
    #[inline]
    pub(crate) fn row(&self, v: NodeId) -> Option<usize> {
        let (word, bit) = (self.words[v / 64], 1u64 << (v % 64));
        (word & bit != 0).then(|| (self.before[v / 64] + (word & (bit - 1)).count_ones()) as usize)
    }

    /// The members, ascending.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = NodeId> + Clone + '_ {
        (0..64 * self.words.len()).filter(|&v| self.words[v / 64] >> (v % 64) & 1 == 1)
    }
}

/// The first defect of edge `(u, v)` of an `n`-node graph: an out-of-range
/// endpoint (`u` before `v`), else a self-loop.
pub(crate) fn check_edge(n: usize, u: NodeId, v: NodeId) -> Result<(), TopologyError> {
    if let Some(node) = [u, v].into_iter().find(|&x| x >= n) {
        return Err(TopologyError::NodeOutOfRange { node, n });
    }
    if u == v {
        return Err(TopologyError::SelfLoop(u));
    }
    Ok(())
}

/// Validates every edge `stream` emits and counts the degrees of nodes
/// `0..n`, and the edges.  Fails on `n` or the directed-edge count past
/// [`INDEX_LIMIT`], else on the first defect in stream order.
pub(crate) fn count_degrees<F>(n: usize, mut stream: F) -> Result<(Vec<u32>, usize), TopologyError>
where
    F: FnMut(&mut dyn FnMut(NodeId, NodeId)),
{
    let overflow = |value| TopologyError::NodeRangeOverflow {
        value,
        limit: INDEX_LIMIT,
    };
    if n > INDEX_LIMIT {
        return Err(overflow(n));
    }
    let (mut degree, mut num_edges, mut first_error) = (vec![0u32; n], 0, None);
    stream(&mut |u, v| {
        if first_error.is_some() {
            return;
        }
        if let Err(e) = check_edge(n, u, v) {
            first_error = Some(e);
        } else if 2 * num_edges + 2 > INDEX_LIMIT {
            first_error = Some(overflow(2 * num_edges + 2));
        } else {
            degree[u] += 1;
            degree[v] += 1;
            num_edges += 1;
        }
    });
    first_error.map_or(Ok((degree, num_edges)), Err)
}

/// Builds the rows of the `held` nodes (ascending; `row` maps a node to
/// its row, if held) of the graph `stream` emits, whose node `v` has degree
/// `degree[v]`, with the destination table of the node range `own`, all of
/// whose neighbours are held, filled once per edge (see the
/// [module docs](self)).  A node's global slots follow every smaller node's,
/// held or not: their first is the prefix sum of `degree`.  Fails
/// with [`TopologyError::PlanMismatch`] if the stream does not emit exactly
/// `degree[v]` valid edges at a held node `v`, or gives an own node a
/// neighbour not held; else with the smallest
/// [`TopologyError::DuplicateEdge`] whose smaller endpoint is held.
pub(crate) fn build<F>(
    degree: &[u32],
    held: impl Iterator<Item = NodeId> + Clone,
    row: impl Fn(NodeId) -> Option<usize>,
    own: core::ops::Range<NodeId>,
    mut stream: F,
) -> Result<Csr, TopologyError>
where
    F: FnMut(&mut dyn FnMut(NodeId, NodeId)),
{
    let mut offsets = vec![0];
    offsets.extend(held.clone().scan(0, |end, v| {
        *end += degree[v] as usize;
        Some(*end)
    }));
    let mut neighbors = vec![0u32; offsets[offsets.len() - 1]];
    let mut cursor = offsets[..offsets.len() - 1].to_vec();
    let mut mismatch = None;
    stream(&mut |u, v| {
        if mismatch.is_some() {
            return;
        }
        if check_edge(degree.len(), u, v).is_err() {
            mismatch = Some(u.max(v));
            return;
        }
        for (a, b) in [(u, v), (v, u)] {
            if let Some(r) = row(a) {
                if cursor[r] == offsets[r + 1] {
                    mismatch = Some(a);
                    return;
                }
                neighbors[cursor[r]] = b as u32;
                cursor[r] += 1;
            }
        }
    });
    if let Some(node) = mismatch {
        return Err(TopologyError::PlanMismatch { node });
    }
    for (r, v) in held.clone().enumerate() {
        if cursor[r] != offsets[r + 1] {
            return Err(TopologyError::PlanMismatch { node: v });
        }
        let list = &mut neighbors[offsets[r]..offsets[r + 1]];
        list.sort_unstable();
        if let Some(pair) = list.windows(2).find(|pair| pair[0] == pair[1]) {
            let u = pair[0] as NodeId;
            return Err(TopologyError::DuplicateEdge(v.min(u), v.max(u)));
        }
    }

    let first = held.clone().take_while(|&u| u < own.start).count();
    let own_offsets = &offsets[first..=first + own.len()];
    let base = own_offsets[0];
    let own_slot: usize = degree[..own.start].iter().map(|&d| d as usize).sum();
    let mut next: Vec<usize> = own_offsets.iter().map(|&o| o - base).collect();
    let mut dest = vec![0u32; next[own.len()]];
    let (mut first_slot, mut summed) = (0, 0);
    for (r, u) in held.enumerate() {
        first_slot += degree[summed..u].iter().map(|&d| d as usize).sum::<usize>();
        summed = u;
        let u_own = own.contains(&u);
        for (j, &w) in neighbors[offsets[r]..offsets[r + 1]].iter().enumerate() {
            let w = w as NodeId;
            // An own-own edge is handled at its smaller endpoint's row.
            if !own.contains(&w) || (u_own && w < u) {
                continue;
            }
            let c = next[w - own.start];
            dest[c] = (first_slot + j) as u32;
            next[w - own.start] += 1;
            if u_own {
                dest[offsets[r] - base + j] = (own_slot + c) as u32;
                next[u - own.start] += 1;
            }
        }
    }
    // A neighbour the build does not hold leaves its own node short.
    if let Some(i) = (0..own.len()).find(|&i| next[i] != own_offsets[i + 1] - base) {
        let node = own.start + i;
        return Err(TopologyError::PlanMismatch { node });
    }
    Ok(Csr {
        offsets,
        neighbors,
        dest,
    })
}
