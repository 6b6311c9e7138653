//! Shared machinery of the randomized comparison baselines
//! ([`crate::ultrafast`] and [`crate::degree_plus_one`]).
//!
//! Everything here exists to make *randomized* CONGEST algorithms behave
//! like first-class citizens of the engine, which demands executor
//! independence: the sequential and sharded executors (and the socket
//! transports underneath them) must produce **bit-identical** runs
//! for a fixed seed.  The engine guarantees that only for algorithms that
//! are deterministic functions of their explicit state, so all randomness is
//! drawn from *stateless per-round streams*: [`round_rng`] derives a fresh
//! generator from `(seed, node, round)` alone, never from execution history.
//! A node's round-`r` coin flips are therefore the same no matter which
//! executor ran rounds `0..r`, how its inbox slots were delivered, or which
//! process hosts its shard.
//!
//! On top of the streams, the module provides the sampling steps both
//! baseline papers build from:
//!
//! * [`uniform_free_color`] — the TryColor primitive: a uniform draw from a
//!   palette minus the colors already taken by finalised neighbours
//!   (rejection sampling with a dense-palette fallback, so it is `O(1)`
//!   expected and always exact);
//! * [`sample_candidates`] — palette sparsification: a small uniform batch
//!   of *distinct* candidate colors, the \[HNT21\]/\[HKNT22\] trick of
//!   trying a sparse random sub-palette instead of the full list;
//! * [`classify_slack`] / [`Bucket`] — a one-round, CONGEST-feasible proxy
//!   for the papers' almost-clique decomposition: a node that observes a
//!   *repeated* color among its neighbours' slack-generation samples has
//!   witnessed permanent slack (two neighbours burning one color) and is
//!   bucketed [`Bucket::Sparse`]; a node whose sampled neighbourhood looks
//!   rainbow-like (clique-ish) is [`Bucket::Dense`].  The real ACD needs
//!   `Ω(log n)`-round neighbourhood probing; this proxy is the honest
//!   one-round version and is documented as such in DESIGN.md;
//! * [`slack`] — the slack of a node in the \[HNT21\] sense: palette size
//!   minus competitors;
//! * [`TryColorCore`] — the propose / conflict / finalise / announce / halt
//!   state machine every trial-based algorithm repeats ([`crate::luby`]
//!   predates it and keeps its inline copy as the independently-written
//!   reference).

use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

use crate::bitset::ColorSet;

/// SplitMix64's avalanche: a bijective mixer with full 64-bit diffusion.
fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of the `(seed, node, round)` stream: each coordinate is mixed
/// through a full avalanche before the next is folded in, so streams of
/// adjacent nodes / rounds share no visible structure.
pub fn stream_seed(seed: u64, node: u64, round: u64) -> u64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15;
    z = avalanche(z.wrapping_add(node.wrapping_mul(0xD1B5_4A32_D192_ED03)));
    z = avalanche(z.wrapping_add(round.wrapping_mul(0xA0B4_28DB_7CE5_4705)));
    avalanche(z)
}

/// A fresh generator for one node's coin flips in one round — a pure
/// function of `(seed, node, round)`, which is what makes the randomized
/// baselines executor- and transport-independent (see the module docs).
pub fn round_rng(seed: u64, node: u64, round: u64) -> StdRng {
    StdRng::seed_from_u64(stream_seed(seed, node, round))
}

/// The slack of a node: how many more colors its palette holds than it has
/// competitors (uncolored neighbours) plus already-burned colors.  Positive
/// slack is what lets random trials succeed with constant probability.
pub fn slack(palette: u64, active_neighbors: usize, blocked: usize) -> i64 {
    palette as i64 - active_neighbors as i64 - blocked as i64
}

/// A uniform draw from `[0, palette) \ blocked`, or `None` if no color is
/// free.
///
/// Rejection-samples the palette (fast while the free fraction is large)
/// and falls back to rank-indexing the free set in place
/// ([`ColorSet::nth_free`], no allocation), so the draw is exactly
/// uniform over the free colors in every regime.  The draw sequence is
/// bit-identical to the historical `HashSet` + materialised-`Vec`
/// implementation: the rejection loop consumes the same draws, and the
/// fallback's `nth_free(palette, i)` is exactly `free[i]` of the sorted
/// free list it used to build.
pub fn uniform_free_color<R: RngCore>(
    rng: &mut R,
    palette: u64,
    blocked: &ColorSet,
) -> Option<u64> {
    if palette == 0 {
        return None;
    }
    let free = blocked.count_free(palette);
    if free == 0 {
        return None;
    }
    for _ in 0..64 {
        let c = rng.random_range(0..palette);
        if !blocked.contains(c) {
            return Some(c);
        }
    }
    blocked.nth_free(palette, rng.random_range(0..free))
}

/// Palette sparsification: `min(k, palette)` *distinct* colors drawn
/// uniformly from `[0, palette)`, in sampling order.
///
/// Rejection-samples until the batch is full; a (probabilistically
/// negligible, but deterministic-budget) failure to fill the batch is
/// topped up with the smallest unsampled colors so the function always
/// returns exactly `min(k, palette)` candidates.
pub fn sample_candidates<R: RngCore>(rng: &mut R, palette: u64, k: usize) -> Vec<u64> {
    // The batch size is capped at the palette size up front — the loop
    // below is purely a rejection budget, never the size bound.
    let want = (k as u64).min(palette) as usize;
    let mut out = Vec::with_capacity(want);
    let mut seen = ColorSet::with_palette(palette);
    let mut budget = 32 * want;
    while out.len() < want && budget > 0 {
        budget -= 1;
        let c = rng.random_range(0..palette);
        if seen.insert(c) {
            out.push(c);
        }
    }
    let mut c = 0;
    while out.len() < want {
        if seen.insert(c) {
            out.push(c);
        }
        c += 1;
    }
    out
}

/// The almost-clique-decomposition-style bucket of a node (see the module
/// docs for what this one-round proxy does and does not capture).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bucket {
    /// Observed slack (a repeated color among neighbour samples, or too few
    /// samples to call the neighbourhood clique-like): keep running
    /// synchronized random trials.
    Sparse,
    /// Rainbow-like sampled neighbourhood (every sample distinct): likely an
    /// almost-clique member with little slack; switch to the deterministic
    /// fallback immediately instead of wasting trial rounds.
    Dense,
}

/// Buckets a node from its slack-generation observations: `tried` neighbour
/// samples, `distinct` distinct colors among them.
pub fn classify_slack(tried: usize, distinct: usize) -> Bucket {
    debug_assert!(distinct <= tried);
    if tried >= 2 && distinct == tried {
        Bucket::Dense
    } else {
        Bucket::Sparse
    }
}

/// The propose → conflict → finalise → announce → halt core every
/// trial-based coloring algorithm shares.
///
/// The lifecycle per node: while undecided, each round [`propose`] a color
/// (the caller picks it — that is where the algorithms differ) and
/// broadcast it; in the receive step, [`block`] every color a neighbour
/// announced as final and [`resolve`] against the observed conflicts.  Once
/// finalised, [`take_announcement`] yields the color to broadcast exactly
/// once, and [`retire_after_announce`] halts the node at the end of its
/// announce round (mirroring the engine's "a halted node's last messages
/// are still delivered" semantics).
///
/// [`propose`]: TryColorCore::propose
/// [`block`]: TryColorCore::block
/// [`resolve`]: TryColorCore::resolve
/// [`take_announcement`]: TryColorCore::take_announcement
/// [`retire_after_announce`]: TryColorCore::retire_after_announce
#[derive(Debug, Clone, Default)]
pub struct TryColorCore {
    /// Colors permanently taken by finalised neighbours (a word-bitmap;
    /// see [`ColorSet`] for why it may hold colors past the palette).
    pub blocked: ColorSet,
    /// This round's proposal, if any.
    pub proposal: Option<u64>,
    /// The permanently adopted color.
    pub finalized: Option<u64>,
    announced: bool,
    halted: bool,
}

impl TryColorCore {
    /// A fresh, undecided core.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records this round's proposal and returns it (for the outbox).
    pub fn propose(&mut self, color: u64) -> u64 {
        self.proposal = Some(color);
        color
    }

    /// Withdraws the proposal (a round in which the node stays silent).
    pub fn clear_proposal(&mut self) {
        self.proposal = None;
    }

    /// Marks `color` permanently taken by a neighbour; returns `true` if it
    /// collides with this round's proposal (the proposal is then beaten).
    pub fn block(&mut self, color: u64) -> bool {
        self.blocked.insert(color);
        self.proposal == Some(color)
    }

    /// The proposal as a branchless comparison key: the proposed color, or
    /// `u64::MAX` (outside every palette) when the node is silent.  Lets a
    /// receive loop test `color == key` with a plain integer compare
    /// instead of an `Option` match per message.
    #[inline]
    pub fn proposal_key(&self) -> u64 {
        self.proposal.unwrap_or(u64::MAX)
    }

    /// Branchless [`block`](Self::block): inserts `color` and returns the
    /// collision verdict as a `0`/`1` mask to `|=` into an accumulator.
    #[inline]
    pub fn block_mask(&mut self, color: u64) -> u64 {
        self.blocked.insert(color);
        u64::from(color == self.proposal_key())
    }

    /// Ends the round from an accumulated beaten mask (any non-zero bit ⇒
    /// beaten): resolves the proposal and clears it — the batched
    /// equivalent of `resolve(beaten); clear_proposal()`.
    pub fn observe_round(&mut self, beaten_mask: u64) {
        self.resolve(beaten_mask != 0);
        self.clear_proposal();
    }

    /// Ends the round: an unbeaten proposal becomes the final color.
    pub fn resolve(&mut self, beaten: bool) {
        if !beaten {
            if let Some(c) = self.proposal {
                self.finalized = Some(c);
            }
        }
    }

    /// The color to announce — `Some` exactly once, in the first send after
    /// finalising.
    pub fn take_announcement(&mut self) -> Option<u64> {
        match self.finalized {
            Some(c) if !self.announced => {
                self.announced = true;
                Some(c)
            }
            _ => None,
        }
    }

    /// Halts the node if its announcement is out; call first in `receive`
    /// and return early on `true`.
    pub fn retire_after_announce(&mut self) -> bool {
        if self.announced {
            self.halted = true;
        }
        self.halted
    }

    /// Whether the node has halted.
    pub fn halted(&self) -> bool {
        self.halted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn color_set(colors: impl IntoIterator<Item = u64>) -> ColorSet {
        let mut s = ColorSet::new();
        for c in colors {
            s.insert(c);
        }
        s
    }

    #[test]
    fn round_streams_are_deterministic_and_distinct() {
        for (node, round) in [(0u64, 0u64), (0, 1), (1, 0), (17, 3)] {
            let a: Vec<u64> = {
                let mut r = round_rng(42, node, round);
                (0..8).map(|_| r.next_u64()).collect()
            };
            let b: Vec<u64> = {
                let mut r = round_rng(42, node, round);
                (0..8).map(|_| r.next_u64()).collect()
            };
            assert_eq!(a, b, "stream ({node},{round}) must be reproducible");
        }
        // Neighbouring coordinates give unrelated streams.
        assert_ne!(stream_seed(42, 0, 0), stream_seed(42, 0, 1));
        assert_ne!(stream_seed(42, 0, 0), stream_seed(42, 1, 0));
        assert_ne!(stream_seed(42, 0, 0), stream_seed(43, 0, 0));
    }

    #[test]
    fn free_color_is_never_blocked_and_none_when_exhausted() {
        let mut rng = round_rng(7, 0, 0);
        let blocked = color_set([0, 2, 4]);
        for _ in 0..200 {
            let c = uniform_free_color(&mut rng, 6, &blocked).unwrap();
            assert!(c < 6 && !blocked.contains(c));
        }
        let all = color_set(0..6);
        assert_eq!(uniform_free_color(&mut rng, 6, &all), None);
        assert_eq!(uniform_free_color(&mut rng, 0, &ColorSet::new()), None);
    }

    #[test]
    fn free_color_dense_fallback_stays_uniform_over_the_free_set() {
        // 1 free color in 1000: rejection nearly always fails its budget,
        // forcing the nth_free rank-indexed path.
        let blocked = color_set((0..1000).filter(|&c| c != 123));
        let mut rng = round_rng(3, 1, 2);
        for _ in 0..20 {
            assert_eq!(uniform_free_color(&mut rng, 1000, &blocked), Some(123));
        }
    }

    /// The historical `HashSet` + materialised-`Vec` implementations, kept
    /// verbatim as the draw-sequence reference for the bitset rewrite.
    mod reference {
        use super::HashSet;
        use rand::{RngCore, RngExt};

        pub fn uniform_free_color<R: RngCore>(
            rng: &mut R,
            palette: u64,
            blocked: &HashSet<u64>,
        ) -> Option<u64> {
            if palette == 0 {
                return None;
            }
            let blocked_in = blocked.iter().filter(|&&c| c < palette).count() as u64;
            if blocked_in >= palette {
                return None;
            }
            for _ in 0..64 {
                let c = rng.random_range(0..palette);
                if !blocked.contains(&c) {
                    return Some(c);
                }
            }
            let free: Vec<u64> = (0..palette).filter(|c| !blocked.contains(c)).collect();
            Some(free[rng.random_range(0..free.len())])
        }

        pub fn sample_candidates<R: RngCore>(rng: &mut R, palette: u64, k: usize) -> Vec<u64> {
            let want = (k as u64).min(palette) as usize;
            let mut out = Vec::with_capacity(want);
            let mut seen = HashSet::with_capacity(want);
            for _ in 0..32 * want {
                if out.len() == want {
                    break;
                }
                let c = rng.random_range(0..palette);
                if seen.insert(c) {
                    out.push(c);
                }
            }
            let mut c = 0;
            while out.len() < want {
                if seen.insert(c) {
                    out.push(c);
                }
                c += 1;
            }
            out
        }
    }

    /// The bitset rewrite must be draw-for-draw identical to the old
    /// `HashSet` implementation: same results *and* the shared generator
    /// left in the same state (i.e. the same number of draws consumed),
    /// across sparse, dense and exhausted palettes for seeds 0..32.
    #[test]
    fn bitset_draw_sequence_matches_the_hashset_reference() {
        for seed in 0..32u64 {
            for (palette, blocked_n) in [
                (1u64, 0u64),
                (7, 3),
                (64, 60),
                (100, 99),
                (1000, 997),
                (65, 0),
            ] {
                // A seed-dependent blocked set with `blocked_n` members.
                let mut pick = round_rng(seed ^ 0xB10C, 0, palette);
                let mut old_blocked = HashSet::new();
                let mut new_blocked = ColorSet::new();
                while (old_blocked.len() as u64) < blocked_n {
                    let c = pick.random_range(0..palette);
                    if old_blocked.insert(c) {
                        new_blocked.insert(c);
                    }
                }

                let mut old_rng = round_rng(seed, 1, 2);
                let mut new_rng = round_rng(seed, 1, 2);
                for _ in 0..40 {
                    assert_eq!(
                        reference::uniform_free_color(&mut old_rng, palette, &old_blocked),
                        uniform_free_color(&mut new_rng, palette, &new_blocked),
                        "seed {seed} palette {palette} blocked {blocked_n}"
                    );
                }
                for k in [1usize, 3, 8, 64] {
                    assert_eq!(
                        reference::sample_candidates(&mut old_rng, palette, k),
                        sample_candidates(&mut new_rng, palette, k),
                        "seed {seed} palette {palette} k {k}"
                    );
                }
                // Same draw counts: the streams stay aligned to the end.
                assert_eq!(old_rng.next_u64(), new_rng.next_u64());
            }
        }
    }

    #[test]
    fn observe_round_mirrors_resolve_and_clear() {
        let mut batched = TryColorCore::new();
        batched.propose(4);
        assert_eq!(batched.proposal_key(), 4);
        let mut mask = 0u64;
        mask |= batched.block_mask(2);
        mask |= u64::from(3 == batched.proposal_key());
        assert_eq!(mask, 0);
        mask |= batched.block_mask(4);
        assert_eq!(mask, 1);
        batched.observe_round(mask);
        assert_eq!(batched.finalized, None, "a blocked proposal is beaten");
        assert_eq!(batched.proposal, None);
        assert!(batched.blocked.contains(2) && batched.blocked.contains(4));

        batched.propose(7);
        batched.observe_round(0);
        assert_eq!(batched.finalized, Some(7));
        // A silent node's key collides with nothing in any palette.
        assert_eq!(TryColorCore::new().proposal_key(), u64::MAX);
    }

    #[test]
    fn candidate_batches_are_distinct_and_sized() {
        let mut rng = round_rng(11, 5, 9);
        for (palette, k) in [(100u64, 4usize), (3, 10), (1, 1), (64, 64)] {
            let batch = sample_candidates(&mut rng, palette, k);
            assert_eq!(batch.len() as u64, (k as u64).min(palette));
            let distinct: HashSet<u64> = batch.iter().copied().collect();
            assert_eq!(distinct.len(), batch.len(), "candidates must be distinct");
            assert!(batch.iter().all(|&c| c < palette));
        }
    }

    #[test]
    fn slack_and_bucketing() {
        assert_eq!(slack(9, 4, 2), 3);
        assert_eq!(slack(4, 4, 1), -1);
        assert_eq!(classify_slack(0, 0), Bucket::Sparse);
        assert_eq!(classify_slack(1, 1), Bucket::Sparse);
        assert_eq!(classify_slack(5, 4), Bucket::Sparse); // a repeat ⇒ slack
        assert_eq!(classify_slack(5, 5), Bucket::Dense); // rainbow ⇒ clique-ish
    }

    #[test]
    fn try_color_core_lifecycle() {
        let mut core = TryColorCore::new();
        assert_eq!(core.take_announcement(), None);
        assert!(!core.retire_after_announce());

        core.propose(3);
        assert!(core.block(3), "blocking the proposal beats it");
        core.resolve(true);
        assert_eq!(core.finalized, None);

        core.propose(5);
        assert!(!core.block(4));
        core.resolve(false);
        assert_eq!(core.finalized, Some(5));
        assert_eq!(core.take_announcement(), Some(5));
        assert_eq!(core.take_announcement(), None, "announce exactly once");
        assert!(core.retire_after_announce());
        assert!(core.halted());
    }
}
