//! Prime-field arithmetic.
//!
//! [`Fq`] is a tiny value type describing the prime field `F_q` together with
//! the modular operations the polynomial evaluation in Algorithm 1 needs.
//! Field elements are represented as canonical `u64` residues in `[0, q)`.
//!
//! The fields used by the coloring algorithms are small (the prime `q` is
//! `Θ(Δ · log_Z m)`, comfortably below `2^32` for every realistic parameter
//! choice), so all arithmetic is done in `u128` intermediates and reduced,
//! which is both simple and overflow-free.

use serde::{Deserialize, Serialize};

use crate::primes;

/// A prime field `F_q` of size `q`.
///
/// The type only stores the modulus; elements are plain `u64` values reduced
/// modulo `q`.  All operations debug-assert that the operands are canonical
/// residues.
///
/// # Examples
///
/// ```
/// use dcme_algebra::Fq;
///
/// let f = Fq::new(7).unwrap();
/// assert_eq!(f.add(5, 4), 2);
/// assert_eq!(f.mul(3, 5), 1);
/// assert_eq!(f.pow(3, 6), 1); // Fermat: a^(q-1) = 1
/// assert_eq!(f.inv(3).unwrap(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Fq {
    q: u64,
}

/// Errors returned by [`Fq`] constructors and operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldError {
    /// The requested modulus is not a prime number.
    NotPrime(u64),
    /// Division or inversion by zero.
    ZeroInverse,
}

impl core::fmt::Display for FieldError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FieldError::NotPrime(q) => write!(f, "{q} is not prime"),
            FieldError::ZeroInverse => write!(f, "attempted to invert zero"),
        }
    }
}

impl std::error::Error for FieldError {}

impl Fq {
    /// Creates the field `F_q`, verifying that `q` is prime.
    pub fn new(q: u64) -> Result<Self, FieldError> {
        if primes::is_prime(q) {
            Ok(Self { q })
        } else {
            Err(FieldError::NotPrime(q))
        }
    }

    /// Creates the field without the primality check.
    ///
    /// Intended for callers that have already obtained `q` from
    /// [`primes::prime_in_range`] or similar; the debug build still checks.
    pub fn new_unchecked(q: u64) -> Self {
        debug_assert!(primes::is_prime(q), "modulus must be prime");
        Self { q }
    }

    /// The field size `q`.
    #[inline]
    pub fn size(&self) -> u64 {
        self.q
    }

    /// Reduces an arbitrary integer into the canonical residue range.
    #[inline]
    pub fn reduce(&self, x: u64) -> u64 {
        x % self.q
    }

    /// Addition in `F_q`.
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        let s = a + b;
        if s >= self.q {
            s - self.q
        } else {
            s
        }
    }

    /// Subtraction in `F_q`.
    #[inline]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        if a >= b {
            a - b
        } else {
            a + self.q - b
        }
    }

    /// Negation in `F_q`.
    #[inline]
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.q);
        if a == 0 {
            0
        } else {
            self.q - a
        }
    }

    /// Multiplication in `F_q`.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        ((a as u128 * b as u128) % self.q as u128) as u64
    }

    /// Exponentiation by squaring.
    pub fn pow(&self, mut base: u64, mut exp: u64) -> u64 {
        debug_assert!(base < self.q);
        let mut acc = 1u64 % self.q;
        base %= self.q;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Multiplicative inverse via Fermat's little theorem.
    pub fn inv(&self, a: u64) -> Result<u64, FieldError> {
        if a % self.q == 0 {
            return Err(FieldError::ZeroInverse);
        }
        Ok(self.pow(a, self.q - 2))
    }

    /// Division `a / b` in `F_q`.
    pub fn div(&self, a: u64, b: u64) -> Result<u64, FieldError> {
        Ok(self.mul(a, self.inv(b)?))
    }

    /// Evaluates `a_0 + a_1 x + … + a_f x^f` at the residue `x` by Horner's
    /// rule, with the coefficients given low to high.
    #[inline]
    pub fn horner(&self, coeffs: &[u64], x: u64) -> u64 {
        coeffs
            .iter()
            .rev()
            .fold(0, |acc, &c| self.add(self.mul(acc, x), c))
    }

    /// Iterator over all field elements `0, 1, …, q-1`.
    pub fn elements(&self) -> impl Iterator<Item = u64> {
        0..self.q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_rejects_composites() {
        assert_eq!(Fq::new(1), Err(FieldError::NotPrime(1)));
        assert_eq!(Fq::new(4), Err(FieldError::NotPrime(4)));
        assert_eq!(Fq::new(100), Err(FieldError::NotPrime(100)));
        assert!(Fq::new(2).is_ok());
        assert!(Fq::new(101).is_ok());
    }

    #[test]
    fn add_sub_roundtrip() {
        let f = Fq::new(13).unwrap();
        for a in f.elements() {
            for b in f.elements() {
                let s = f.add(a, b);
                assert_eq!(f.sub(s, b), a);
                assert_eq!(f.add(f.neg(a), a), 0);
            }
        }
    }

    #[test]
    fn mul_matches_naive() {
        let f = Fq::new(31).unwrap();
        for a in f.elements() {
            for b in f.elements() {
                assert_eq!(f.mul(a, b), (a * b) % 31);
            }
        }
    }

    #[test]
    fn fermat_inverse() {
        let f = Fq::new(97).unwrap();
        for a in 1..97 {
            let inv = f.inv(a).unwrap();
            assert_eq!(f.mul(a, inv), 1, "a={a}");
        }
        assert_eq!(f.inv(0), Err(FieldError::ZeroInverse));
    }

    #[test]
    fn pow_agrees_with_repeated_multiplication() {
        let f = Fq::new(11).unwrap();
        for base in f.elements() {
            let mut acc = 1;
            for e in 0..20u64 {
                assert_eq!(f.pow(base, e), acc);
                acc = f.mul(acc, base);
            }
        }
    }

    #[test]
    fn division_is_mul_by_inverse() {
        let f = Fq::new(17).unwrap();
        for a in f.elements() {
            for b in 1..17 {
                let d = f.div(a, b).unwrap();
                assert_eq!(f.mul(d, b), a);
            }
        }
    }

    #[test]
    fn two_element_field() {
        let f = Fq::new(2).unwrap();
        assert_eq!(f.add(1, 1), 0);
        assert_eq!(f.mul(1, 1), 1);
        assert_eq!(f.inv(1).unwrap(), 1);
    }
}
