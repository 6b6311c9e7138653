//! Dense polynomials over a prime field.
//!
//! The trial-sequence construction assigns the `i`-th input color the `i`-th
//! polynomial of degree at most `f` over `F_q` in *lexicographic order of the
//! coefficient tuple* `(a_0, …, a_f)`.  Because every node knows `m`, `f`
//! and `q`, every node derives the same polynomial for a given input color
//! without any communication — this is exactly how the paper argues the
//! CONGEST implementation (a node only ever sends its input color).
//!
//! Lemma 2.1 of the paper (two distinct polynomials of degree ≤ f agree on at
//! most `max(f1,f2)` points) is what bounds the number of blocked trials; the
//! property is exercised directly by the tests and property tests here.

use serde::{Deserialize, Serialize};

use crate::field::Fq;

/// A polynomial over `F_q`, stored as coefficients `a_0 + a_1 x + … + a_f x^f`.
///
/// Trailing zero coefficients are allowed (the paper's family `P^f_q`
/// includes *all* polynomials of degree at most `f`, not just those of exact
/// degree `f`), so two `Polynomial` values are equal iff their coefficient
/// vectors are equal after padding with zeros.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Polynomial {
    field: Fq,
    coeffs: Vec<u64>,
}

impl Polynomial {
    /// Creates a polynomial from coefficients `a_0, a_1, …` (low to high).
    ///
    /// Coefficients are reduced modulo `q`.
    pub fn new(field: Fq, coeffs: Vec<u64>) -> Self {
        let coeffs = coeffs.into_iter().map(|c| field.reduce(c)).collect();
        Self { field, coeffs }
    }

    /// The zero polynomial of formal degree bound `f` (i.e. `f + 1` zero
    /// coefficients).
    pub fn zero(field: Fq, f: usize) -> Self {
        Self {
            field,
            coeffs: vec![0; f + 1],
        }
    }

    /// The underlying field.
    pub fn field(&self) -> Fq {
        self.field
    }

    /// The coefficient slice (low to high).
    pub fn coefficients(&self) -> &[u64] {
        &self.coeffs
    }

    /// The formal degree bound: number of coefficients minus one.
    pub fn degree_bound(&self) -> usize {
        self.coeffs.len().saturating_sub(1)
    }

    /// The exact degree: index of the highest non-zero coefficient, or `None`
    /// for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.iter().rposition(|&c| c != 0)
    }

    /// Evaluates the polynomial at `x` by Horner's rule.
    ///
    /// # Examples
    ///
    /// ```
    /// use dcme_algebra::{Fq, Polynomial};
    /// let f = Fq::new(7).unwrap();
    /// // p(x) = 1 + 2x + 3x^2
    /// let p = Polynomial::new(f, vec![1, 2, 3]);
    /// assert_eq!(p.eval(0), 1);
    /// assert_eq!(p.eval(2), (1 + 4 + 12) % 7);
    /// ```
    pub fn eval(&self, x: u64) -> u64 {
        self.field.horner(&self.coeffs, self.field.reduce(x))
    }

    /// The number of points of `F_q` on which `self` and `other` agree.
    ///
    /// By Lemma 2.1 this is at most `max(deg self, deg other)` for distinct
    /// polynomials.
    pub fn agreement_count(&self, other: &Polynomial) -> usize {
        assert_eq!(self.field, other.field, "polynomials over different fields");
        self.field
            .elements()
            .filter(|&x| self.eval(x) == other.eval(x))
            .count()
    }

    /// Builds the polynomial with lexicographic index `index` among all
    /// polynomials of degree at most `f` over `F_q`.
    ///
    /// The coefficient tuple `(a_0, …, a_f)` is the base-`q` representation
    /// of `index` with `a_0` as the **most significant** digit, matching the
    /// paper's "order the tuples lexicographically" convention.  There are
    /// `q^(f+1)` such polynomials; `index` must be smaller than that.
    ///
    /// # Panics
    ///
    /// Panics if `index >= q^(f+1)`.
    pub fn from_lex_index(field: Fq, f: usize, index: u64) -> Self {
        let mut coeffs = vec![0u64; f + 1];
        Self::write_lex_coefficients(field, index, &mut coeffs);
        Self { field, coeffs }
    }

    /// Writes the coefficients of the polynomial with lexicographic index
    /// `index` into `out` — the allocation-free core of
    /// [`Polynomial::from_lex_index`], with degree bound `f = out.len() - 1`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= q^(f+1)` (the parameter derivation in
    /// [`crate::sequence`] guarantees `m <= q^(f+1)`).
    pub(crate) fn write_lex_coefficients(field: Fq, index: u64, out: &mut [u64]) {
        let q = field.size();
        if let Some(cap) = q.checked_pow(out.len() as u32) {
            assert!(
                index < cap,
                "polynomial index {index} out of range for q={q}, f={}",
                out.len().saturating_sub(1)
            );
        }
        let mut rest = index;
        // Fill from least significant digit = a_f upward so that a_0 is the
        // most significant digit of `index` in base q.
        for digit in out.iter_mut().rev() {
            *digit = rest % q;
            rest /= q;
        }
    }

    /// The lexicographic index of this polynomial among all polynomials with
    /// the same degree bound, inverse of [`Polynomial::from_lex_index`].
    pub fn lex_index(&self) -> u64 {
        let q = self.field.size();
        let mut index = 0u64;
        for &c in &self.coeffs {
            index = index * q + c;
        }
        index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn field(q: u64) -> Fq {
        Fq::new(q).unwrap()
    }

    #[test]
    fn eval_matches_naive() {
        let f = field(13);
        let p = Polynomial::new(f, vec![3, 0, 7, 1]);
        for x in 0..13 {
            let naive = (3 + 7 * x * x + x * x * x) % 13;
            assert_eq!(p.eval(x), naive);
        }
    }

    #[test]
    fn degree_ignores_trailing_zeros() {
        let f = field(5);
        let p = Polynomial::new(f, vec![1, 2, 0, 0]);
        assert_eq!(p.degree(), Some(1));
        assert_eq!(p.degree_bound(), 3);
        assert_eq!(Polynomial::zero(f, 4).degree(), None);
    }

    #[test]
    fn lex_index_roundtrip_exhaustive_small() {
        let f = field(3);
        let deg = 2usize;
        for index in 0..27u64 {
            let p = Polynomial::from_lex_index(f, deg, index);
            assert_eq!(p.lex_index(), index);
            assert_eq!(p.coefficients().len(), deg + 1);
        }
    }

    #[test]
    fn lex_index_is_injective() {
        let f = field(5);
        let deg = 2usize;
        let mut seen = std::collections::HashSet::new();
        for index in 0..125u64 {
            let p = Polynomial::from_lex_index(f, deg, index);
            assert!(
                seen.insert(p.coefficients().to_vec()),
                "duplicate at {index}"
            );
        }
    }

    #[test]
    fn lex_order_matches_tuple_order() {
        // Index 0 must be the all-zero tuple and index 1 must differ only in
        // the last coefficient (a_f), i.e. a_0 is the most significant digit.
        let f = field(7);
        let p0 = Polynomial::from_lex_index(f, 3, 0);
        let p1 = Polynomial::from_lex_index(f, 3, 1);
        assert_eq!(p0.coefficients(), &[0, 0, 0, 0]);
        assert_eq!(p1.coefficients(), &[0, 0, 0, 1]);
        let p7 = Polynomial::from_lex_index(f, 3, 7);
        assert_eq!(p7.coefficients(), &[0, 0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lex_index_out_of_range_panics() {
        let f = field(3);
        let _ = Polynomial::from_lex_index(f, 1, 9);
    }

    #[test]
    fn lemma_2_1_distinct_polynomials_agree_on_few_points() {
        // Exhaustive check of Lemma 2.1 for q = 11, f = 2.
        let f = field(11);
        let deg = 2usize;
        let total = 11u64.pow(3);
        for i in 0..total {
            // Sampling all pairs is 1.7M comparisons; restrict j to a stride
            // to keep the test fast while still covering many pairs.
            for j in ((i + 1)..total).step_by(97) {
                let pi = Polynomial::from_lex_index(f, deg, i);
                let pj = Polynomial::from_lex_index(f, deg, j);
                let agree = pi.agreement_count(&pj);
                assert!(
                    agree <= deg,
                    "polynomials {i} and {j} agree on {agree} > {deg} points"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn prop_eval_linearity(a in 0u64..97, b in 0u64..97, x in 0u64..97) {
            // (a + b x) evaluated must equal a + b*x mod 97.
            let f = field(97);
            let p = Polynomial::new(f, vec![a, b]);
            prop_assert_eq!(p.eval(x), (a + b * x) % 97);
        }

        #[test]
        fn prop_lex_roundtrip(q in prop::sample::select(vec![2u64, 3, 5, 7, 11, 13]),
                              fdeg in 0usize..4,
                              raw in 0u64..10_000) {
            let field = Fq::new(q).unwrap();
            let cap = q.pow((fdeg + 1) as u32);
            let index = raw % cap;
            let p = Polynomial::from_lex_index(field, fdeg, index);
            prop_assert_eq!(p.lex_index(), index);
        }

        #[test]
        fn prop_lemma_2_1(q in prop::sample::select(vec![13u64, 17, 19, 23]),
                          i in 0u64..1000, j in 0u64..1000) {
            let fdeg = 2usize;
            let field = Fq::new(q).unwrap();
            let cap = q.pow((fdeg + 1) as u32);
            let (i, j) = (i % cap, j % cap);
            prop_assume!(i != j);
            let pi = Polynomial::from_lex_index(field, fdeg, i);
            let pj = Polynomial::from_lex_index(field, fdeg, j);
            prop_assert!(pi.agreement_count(&pj) <= fdeg);
        }
    }
}
