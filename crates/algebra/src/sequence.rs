//! Trial sequences for the mother algorithm (Theorem 1.1).
//!
//! Given the graph parameters `Δ`, the input-coloring size `m`, the defect
//! parameter `d` and the batch size `k`, Theorem 1.1 fixes
//!
//! * `Z = Δ / (d + 1)` (integer division, clamped to ≥ 1),
//! * `f = ⌈log_Z m⌉` — the polynomial degree bound,
//! * a prime `q` with `2fZ < q < 4fZ` (Equation (1)),
//! * `X = 4 · Z · f` — the sequence-domain bound used to state the number of
//!   output colors `k · X`,
//! * `R = ⌈q / k⌉` — the number of batches, i.e. the round bound.
//!
//! For input color `i`, the trial sequence is
//! `s_i(x) = (x mod k, p_i(x))` for `x = 0, …, q-1`, where `p_i` is the
//! `i`-th polynomial of degree ≤ f over `F_q` in lexicographic order.  The
//! sequence is consumed in `R` consecutive batches of `k` trials each (the
//! last batch may be shorter).
//!
//! The key combinatorial property (proved in the paper and asserted by the
//! tests here) is that two distinct input colors produce sequences that
//! collide — same batch index *and* same trial pair — in at most `f`
//! positions, and a fixed adopted color can collide with at most `f` later
//! trials of any neighbour.

use serde::{Deserialize, Serialize};

use crate::field::Fq;
use crate::poly::Polynomial;
use crate::primes;

/// A single color trial: the pair `(slot, value) = (x mod k, p_i(x))`.
///
/// The *output color* adopted by a node is exactly the trial pair it kept;
/// the encoded color index is `slot * q + value`, which lies in `[k · q] ⊆ [k · X]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Trial {
    /// First coordinate `x mod k` (the position inside the batch).
    pub slot: u64,
    /// Second coordinate `p_i(x) mod q`.
    pub value: u64,
}

impl Trial {
    /// Encodes the trial as a single color index in `[k * q]`.
    pub fn encode(&self, q: u64) -> u64 {
        self.slot * q + self.value
    }

    /// Decodes a color index back into a trial pair.
    pub fn decode(color: u64, q: u64) -> Self {
        Trial {
            slot: color / q,
            value: color % q,
        }
    }
}

/// Errors arising from invalid Theorem 1.1 parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamError {
    /// `m` must be at least 1.
    EmptyPalette,
    /// `k` must be at least 1.
    ZeroBatch,
    /// The defect parameter must satisfy `0 <= d <= Δ - 1` (for `Δ >= 1`).
    DefectTooLarge {
        /// requested defect
        d: u32,
        /// maximum degree
        delta: u32,
    },
    /// The derived field is too small to host one polynomial per input color.
    ///
    /// This is the regime the paper's Remark ("the condition d = Δ^ε") rules
    /// out: when `Δ/d = O(1)` and `m` is large, `q^(f+1) < m` can occur only
    /// through arithmetic mistakes, but we keep the check for safety.
    FieldTooSmall {
        /// the derived field size
        q: u64,
        /// the derived degree bound
        f: u64,
        /// the number of input colors
        m: u64,
    },
}

impl core::fmt::Display for ParamError {
    fn fmt(&self, fmt: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ParamError::EmptyPalette => write!(fmt, "input palette size m must be >= 1"),
            ParamError::ZeroBatch => write!(fmt, "batch size k must be >= 1"),
            ParamError::DefectTooLarge { d, delta } => {
                write!(
                    fmt,
                    "defect d={d} must be <= Δ-1={}",
                    delta.saturating_sub(1)
                )
            }
            ParamError::FieldTooSmall { q, f, m } => write!(
                fmt,
                "field of size {q} with degree bound {f} has too few polynomials for m={m} colors"
            ),
        }
    }
}

impl std::error::Error for ParamError {}

/// The derived parameters of Theorem 1.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SequenceParams {
    /// Maximum degree `Δ` of the graph.
    pub delta: u32,
    /// Number of input colors `m`.
    pub m: u64,
    /// Defect tolerance `d` (0 for proper colorings).
    pub d: u32,
    /// Batch size `k >= 1`.
    pub k: u64,
    /// `Z = max(1, Δ / (d+1))`.
    pub z: u64,
    /// Degree bound `f = max(1, ⌈log_Z m⌉)`.
    pub f: u64,
    /// Field size: a prime in `(2fZ, 4fZ)`.
    pub q: u64,
    /// `X = 4 Z f` — the domain bound; note `q < X`.
    pub x: u64,
    /// `R = ⌈q / k⌉` — number of batches (round bound for the main loop).
    pub rounds: u64,
}

impl SequenceParams {
    /// Derives the Theorem 1.1 parameters from `(Δ, m, d, k)`.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] if the inputs violate the theorem's
    /// preconditions (`m >= 1`, `k >= 1`, `0 <= d <= Δ-1`).
    ///
    /// # Examples
    ///
    /// ```
    /// use dcme_algebra::SequenceParams;
    /// // Linial-style setting: proper coloring (d = 0), m = Δ^4.
    /// let p = SequenceParams::derive(16, 16u64.pow(4), 0, 1).unwrap();
    /// assert_eq!(p.z, 16);
    /// assert!(p.q > 2 * p.f * p.z && p.q < 4 * p.f * p.z);
    /// ```
    pub fn derive(delta: u32, m: u64, d: u32, k: u64) -> Result<Self, ParamError> {
        if m == 0 {
            return Err(ParamError::EmptyPalette);
        }
        if k == 0 {
            return Err(ParamError::ZeroBatch);
        }
        if delta > 0 && d > delta.saturating_sub(1) {
            return Err(ParamError::DefectTooLarge { d, delta });
        }
        // Z = ⌈Δ/(d+1)⌉.  The proof of Theorem 1.1 charges at most
        // 2·f·Δ/(d+1) blocked trials and needs this to stay below q > 2fZ,
        // so Z must upper-bound the real ratio Δ/(d+1): round it up.  For
        // degenerate graphs (Δ = 0) use Z = 1 so isolated vertices still get
        // a valid (trivial) sequence.
        let z = (delta as u64).div_ceil(d as u64 + 1).max(1);
        let f = ceil_log(m, z).max(1);
        let q = primes::bertrand_prime(f, z);
        let x = 4 * z * f;
        debug_assert!(q < x || x <= 2, "Equation (1) guarantees q < 4fZ = X");
        // One distinct *non-constant* polynomial per input color must exist:
        // m <= q^(f+1) - q (constants are excluded, see SequenceFamily::polynomial).
        let capacity = (q as u128).checked_pow((f + 1) as u32);
        match capacity {
            Some(cap) if (m as u128) <= cap - q as u128 => {}
            Some(_) => return Err(ParamError::FieldTooSmall { q, f, m }),
            // Overflowing u128 means the capacity is astronomically large.
            None => {}
        }
        let rounds = q.div_ceil(k);
        Ok(Self {
            delta,
            m,
            d,
            k,
            z,
            f,
            q,
            x,
            rounds,
        })
    }

    /// The tight single-round (Linial-step) parameters of Remark 2.2.
    ///
    /// For the special case `k = X`, `d = 0` — one batch containing the whole
    /// sequence — the proof of Theorem 1.1 only needs `q > f·Δ` (each of the
    /// at most `Δ` neighbours blocks at most `f` of the `q` trials, and there
    /// are no already-colored neighbours in a single round).  Searching for
    /// the smallest prime satisfying this gives a palette of `q² ≈ (fΔ)²`
    /// instead of `(4fΔ)²`, which is what makes the iterated Linial reduction
    /// actually shrink the palette for moderate `n`.
    pub fn derive_one_shot(delta: u32, m: u64) -> Result<Self, ParamError> {
        if m == 0 {
            return Err(ParamError::EmptyPalette);
        }
        let delta64 = (delta as u64).max(1);
        let mut q = primes::next_prime(delta64 + 2);
        loop {
            let f = ceil_log(m, q).max(1);
            if q > f * delta64 {
                return Ok(Self {
                    delta,
                    m,
                    d: 0,
                    k: q,
                    z: delta64,
                    f,
                    q,
                    x: q,
                    rounds: 1,
                });
            }
            q = primes::next_prime(q + 1);
        }
    }

    /// The field `F_q` the sequences are built over.
    pub fn field(&self) -> Fq {
        Fq::new_unchecked(self.q)
    }

    /// Upper bound `k · X` on the number of output colors stated by
    /// Theorem 1.1.  The encoded colors actually lie in `[k · q] ⊆ [k · X]`.
    pub fn color_bound(&self) -> u64 {
        self.k * self.x
    }

    /// Number of colors actually addressable by encoded trials (`k · q`).
    pub fn encoded_colors(&self) -> u64 {
        self.k * self.q
    }

    /// Maximum number of *blocked* trials a node can ever experience:
    /// `2 f Δ / (d+1) = 2 f Z` (each neighbour blocks at most `f` trials
    /// while active and at most `f` trials after committing).  The proof of
    /// Theorem 1.1 relies on this being strictly smaller than `q`.
    pub fn blocked_bound(&self) -> u64 {
        2 * self.f * self.z
    }
}

/// Ceiling of `log_base(value)` with the conventions needed here:
/// `ceil_log(1, _) = 0`, and a base of 0 or 1 falls back to `log_2`.
pub fn ceil_log(value: u64, base: u64) -> u64 {
    if value <= 1 {
        return 0;
    }
    let base = base.max(2);
    let mut acc: u128 = 1;
    let mut exp = 0u64;
    while acc < value as u128 {
        acc *= base as u128;
        exp += 1;
    }
    exp
}

/// The family of trial sequences for a fixed parameter set.
///
/// A `SequenceFamily` is a *pure function* of the parameters: every node
/// constructs the identical family locally, which is what makes the CONGEST
/// implementation possible (nodes only ever need to announce their input
/// color and adopted colors).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SequenceFamily {
    params: SequenceParams,
}

impl SequenceFamily {
    /// Builds the family for the given parameters.
    pub fn new(params: SequenceParams) -> Self {
        Self { params }
    }

    /// Convenience constructor deriving the parameters first.
    pub fn derive(delta: u32, m: u64, d: u32, k: u64) -> Result<Self, ParamError> {
        Ok(Self::new(SequenceParams::derive(delta, m, d, k)?))
    }

    /// The parameters of this family.
    pub fn params(&self) -> &SequenceParams {
        &self.params
    }

    /// The polynomial assigned to input color `color`.
    ///
    /// Input colors are mapped to the lexicographically ordered *non-constant*
    /// polynomials of degree at most `f`.  Skipping the constant polynomials
    /// matters for the defective case (`d > 0`): the proof of Theorem 1.1
    /// charges each permanently colored neighbour at most `f` conflicts via
    /// Lemma 2.1, which requires the node's own polynomial to differ from the
    /// constant equal to the neighbour's adopted value — a constant `p_v`
    /// would be blocked on its entire sequence once more than `d` neighbours
    /// adopt that value.  There are `q^{f+1} - q ≥ q^f ≥ m` non-constant
    /// polynomials, so the mapping stays injective.
    ///
    /// # Panics
    ///
    /// Panics if `color >= m`.
    pub fn polynomial(&self, color: u64) -> Polynomial {
        let mut coeffs = vec![0u64; self.params.f as usize + 1];
        self.coefficients(color, &mut coeffs);
        Polynomial::new(self.params.field(), coeffs)
    }

    /// Writes the `f + 1` coefficients `a_0, …, a_f` of
    /// [`polynomial(color)`](Self::polynomial) into `out` without
    /// allocating — the one color → polynomial mapping, shared by
    /// `polynomial` and the conflict scan of Algorithm 1, which evaluates
    /// the coefficients with [`Fq::horner`].
    ///
    /// # Panics
    ///
    /// Panics if `color >= m` or `out.len() != f + 1`.
    pub fn coefficients(&self, color: u64, out: &mut [u64]) {
        assert!(
            color < self.params.m,
            "input color {color} out of range [0, {})",
            self.params.m
        );
        assert_eq!(out.len() as u64, self.params.f + 1, "need f + 1 slots");
        // Constant polynomials have lexicographic indices that are multiples
        // of q^f (all digits except the leading/constant coefficient are 0).
        let c = color as u128;
        let index = match (self.params.q as u128).checked_pow(self.params.f as u32) {
            Some(block) => {
                let per_block = block - 1;
                (c / per_block) * block + (c % per_block) + 1
            }
            // q^f exceeds u128: every valid color index is far below the
            // first non-zero constant polynomial, so shifting by one suffices.
            None => c + 1,
        };
        Polynomial::write_lex_coefficients(self.params.field(), index as u64, out);
    }

    /// The `x`-th trial of input color `color`: `(x mod k, p_color(x))`.
    pub fn trial(&self, color: u64, x: u64) -> Trial {
        debug_assert!(x < self.params.q);
        let p = self.polynomial(color);
        Trial {
            slot: x % self.params.k,
            value: p.eval(x),
        }
    }

    /// The full sequence of trials for `color` (length `q`).
    pub fn sequence(&self, color: u64) -> Vec<Trial> {
        let p = self.polynomial(color);
        (0..self.params.q)
            .map(|x| Trial {
                slot: x % self.params.k,
                value: p.eval(x),
            })
            .collect()
    }

    /// The `batch`-th batch (0-based) of trials for `color`.
    ///
    /// Batches have size `k`, except possibly the last one which has size
    /// `q - k⌊q/k⌋` as described in the paper.
    pub fn batch(&self, color: u64, batch: u64) -> Vec<Trial> {
        assert!(batch < self.params.rounds, "batch index out of range");
        let p = self.polynomial(color);
        let start = batch * self.params.k;
        let end = (start + self.params.k).min(self.params.q);
        (start..end)
            .map(|x| Trial {
                slot: x % self.params.k,
                value: p.eval(x),
            })
            .collect()
    }

    /// Number of batches `R`.
    pub fn num_batches(&self) -> u64 {
        self.params.rounds
    }

    /// Counts positions `x` on which the sequences of two colors produce the
    /// *identical* trial pair.  For distinct colors this is at most `f`
    /// (Lemma 2.1), which is the quantity the proof of Theorem 1.1 charges
    /// per neighbour.
    pub fn collision_count(&self, color_a: u64, color_b: u64) -> usize {
        let pa = self.polynomial(color_a);
        let pb = self.polynomial(color_b);
        (0..self.params.q)
            .filter(|&x| pa.eval(x) == pb.eval(x))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn derive_rejects_bad_inputs() {
        assert_eq!(
            SequenceParams::derive(8, 0, 0, 1),
            Err(ParamError::EmptyPalette)
        );
        assert_eq!(
            SequenceParams::derive(8, 10, 0, 0),
            Err(ParamError::ZeroBatch)
        );
        assert!(matches!(
            SequenceParams::derive(8, 10, 8, 1),
            Err(ParamError::DefectTooLarge { .. })
        ));
    }

    #[test]
    fn derived_prime_satisfies_equation_1() {
        for delta in [2u32, 4, 8, 16, 32, 64] {
            for d in [0u32, 1, delta / 4, delta / 2] {
                if delta > 0 && d > delta - 1 {
                    continue;
                }
                let m = (delta as u64).pow(4).max(2);
                let p = SequenceParams::derive(delta, m, d, 1).unwrap();
                assert!(2 * p.f * p.z < p.q && p.q < 4 * p.f * p.z);
                assert_eq!(p.x, 4 * p.z * p.f);
                assert!(p.blocked_bound() < p.q, "proof requires 2fZ < q");
            }
        }
    }

    #[test]
    fn one_shot_params_satisfy_remark_2_2() {
        for delta in [2u32, 4, 8, 16, 64] {
            for m in [16u64, 1000, 1 << 20] {
                let p = SequenceParams::derive_one_shot(delta, m).unwrap();
                assert!(primes::is_prime(p.q));
                // The single-round blocked-trials bound: q > f·Δ.
                assert!(
                    p.q > p.f * delta as u64,
                    "delta={delta} m={m}: q={} f={}",
                    p.q,
                    p.f
                );
                // One distinct polynomial per input color.
                assert!((p.q as u128).pow((p.f + 1) as u32) >= m as u128);
                assert_eq!(p.rounds, 1);
                assert_eq!(p.k, p.q);
            }
        }
    }

    #[test]
    fn one_shot_palette_shrinks_for_moderate_inputs() {
        // The whole point of the tighter constants: one step from n = 4096
        // identifiers on a ring (Δ = 2) already lands well below n.
        let p = SequenceParams::derive_one_shot(2, 4096).unwrap();
        assert!(p.encoded_colors() < 4096, "palette {}", p.encoded_colors());
        let p = SequenceParams::derive_one_shot(8, 2000).unwrap();
        assert!(p.encoded_colors() < 2000);
    }

    #[test]
    fn isolated_vertices_get_trivial_params() {
        let p = SequenceParams::derive(0, 5, 0, 1).unwrap();
        assert_eq!(p.z, 1);
        assert!(p.q >= 2);
    }

    #[test]
    fn sequence_length_and_batching() {
        let fam = SequenceFamily::derive(8, 4096, 0, 3).unwrap();
        let q = fam.params().q;
        let seq = fam.sequence(7);
        assert_eq!(seq.len() as u64, q);
        let mut reassembled = Vec::new();
        for b in 0..fam.num_batches() {
            reassembled.extend(fam.batch(7, b));
        }
        assert_eq!(reassembled, seq);
        // All but the last batch have size exactly k.
        for b in 0..fam.num_batches() - 1 {
            assert_eq!(fam.batch(7, b).len() as u64, fam.params().k);
        }
    }

    #[test]
    fn coefficients_are_distinct_and_non_constant() {
        // Both parameterizations; the one-shot field has m = q^f = 25, so
        // its last color is mapped past the constant polynomial a_0 = 1.
        for fam in [
            SequenceFamily::derive(8, 4096, 0, 3).unwrap(),
            SequenceFamily::new(SequenceParams::derive_one_shot(2, 25).unwrap()),
        ] {
            let p = fam.params();
            let mut seen = std::collections::HashSet::new();
            let mut coeffs = vec![0u64; p.f as usize + 1];
            for color in 0..p.m {
                fam.coefficients(color, &mut coeffs);
                assert!(coeffs[1..].iter().any(|&c| c != 0), "constant p_{color}");
                assert!(seen.insert(coeffs.clone()), "p_{color} repeats");
            }
        }
    }

    #[test]
    fn trials_in_one_batch_have_distinct_slots() {
        let fam = SequenceFamily::derive(16, 65536, 0, 5).unwrap();
        for b in 0..fam.num_batches() {
            let batch = fam.batch(3, b);
            let slots: std::collections::HashSet<u64> = batch.iter().map(|t| t.slot).collect();
            assert_eq!(slots.len(), batch.len(), "slots within a batch must differ");
        }
    }

    #[test]
    fn collision_bound_holds_for_sampled_pairs() {
        let fam = SequenceFamily::derive(8, 4096, 0, 2).unwrap();
        let f = fam.params().f as usize;
        for a in (0..4096u64).step_by(311) {
            for b in (1..4096u64).step_by(487) {
                if a == b {
                    continue;
                }
                assert!(
                    fam.collision_count(a, b) <= f,
                    "colors {a},{b} collide too often"
                );
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let q = 23;
        for slot in 0..5u64 {
            for value in 0..q {
                let t = Trial { slot, value };
                assert_eq!(Trial::decode(t.encode(q), q), t);
            }
        }
    }

    #[test]
    fn encoded_colors_fit_in_bound() {
        let fam = SequenceFamily::derive(16, 16u64.pow(4), 0, 4).unwrap();
        let q = fam.params().q;
        for color in (0..fam.params().m).step_by(1000) {
            for t in fam.sequence(color) {
                assert!(t.encode(q) < fam.params().encoded_colors());
                assert!(fam.params().encoded_colors() <= fam.params().color_bound());
            }
        }
    }

    #[test]
    fn ceil_log_small_cases() {
        assert_eq!(ceil_log(1, 10), 0);
        assert_eq!(ceil_log(2, 2), 1);
        assert_eq!(ceil_log(9, 3), 2);
        assert_eq!(ceil_log(10, 3), 3);
        assert_eq!(ceil_log(27, 3), 3);
        assert_eq!(ceil_log(28, 3), 4);
        // base < 2 falls back to log_2
        assert_eq!(ceil_log(8, 1), 3);
    }

    proptest! {
        #[test]
        fn prop_ceil_log_is_minimal_exponent(value in 1u64..1_000_000, base in 2u64..16) {
            let e = ceil_log(value, base);
            prop_assert!((base as u128).pow(e as u32) >= value as u128);
            if e > 0 {
                prop_assert!((base as u128).pow((e - 1) as u32) < value as u128);
            }
        }

        #[test]
        fn prop_distinct_colors_collide_at_most_f_times(
            delta in 2u32..20,
            a in 0u64..500,
            b in 0u64..500,
        ) {
            prop_assume!(a != b);
            let m = 512u64;
            let fam = SequenceFamily::derive(delta, m, 0, 1).unwrap();
            prop_assume!(a < m && b < m);
            prop_assert!(fam.collision_count(a, b) <= fam.params().f as usize);
        }

        #[test]
        fn prop_params_round_bound(delta in 1u32..64, k in 1u64..40) {
            let m = (delta as u64).pow(2).max(2);
            let p = SequenceParams::derive(delta, m, 0, k).unwrap();
            prop_assert_eq!(p.rounds, p.q.div_ceil(k));
            // Round bound claimed by the paper: R = ceil(X/k) and q < X.
            prop_assert!(p.rounds <= p.x.div_ceil(k));
        }
    }
}
