//! Test polynomials / lookup tables for programmable bootstrapping.
//!
//! The test polynomial `TP` "stores all function values of any function
//! f(m)" (§II-A). With one bit of padding (messages encoded as `m/2p`,
//! living in the half-torus), the blind rotation lands the accumulator on
//! the coefficient block of `f(m)`; the half-block pre-rotation below
//! absorbs symmetric noise without a negacyclic sign flip.

use morphling_math::{Polynomial, Torus32, TorusScalar};

use crate::error::TfheError;

/// A lookup table for programmable bootstrapping over `Z_p`.
#[derive(Clone, Debug, PartialEq)]
pub struct Lut {
    poly: Polynomial<Torus32>,
    plaintext_modulus: u64,
}

impl Lut {
    /// Build the test polynomial for `f : Z_p → Z_p` at polynomial size
    /// `N`, with the standard padding-bit encoding (`m ↦ m/2p`).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a power of two, or `p > N/2`.
    pub fn from_fn(poly_size: usize, p: u64, f: impl FnMut(u64) -> u64) -> Self {
        match Self::try_from_fn(poly_size, p, f) {
            Ok(lut) => lut,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`from_fn`](Self::from_fn).
    ///
    /// # Errors
    ///
    /// [`TfheError::PlaintextModulusNotPowerOfTwo`] or
    /// [`TfheError::PlaintextModulusTooLarge`].
    pub(crate) fn try_from_fn(
        poly_size: usize,
        p: u64,
        mut f: impl FnMut(u64) -> u64,
    ) -> Result<Self, TfheError> {
        Self::try_from_torus_fn(poly_size, p, |m| Torus32::encode(f(m) % p, 2 * p))
    }

    /// Build a test polynomial whose output values are arbitrary torus
    /// elements (e.g. re-scaled constants for gate bootstrapping).
    ///
    /// # Errors
    ///
    /// [`TfheError::PlaintextModulusNotPowerOfTwo`] if `p` is not a power
    /// of two; [`TfheError::PlaintextModulusTooLarge`] if `p > N/2`.
    pub fn try_from_torus_fn(
        poly_size: usize,
        p: u64,
        mut f: impl FnMut(u64) -> Torus32,
    ) -> Result<Self, TfheError> {
        if !p.is_power_of_two() {
            return Err(TfheError::PlaintextModulusNotPowerOfTwo { modulus: p });
        }
        if p as usize > poly_size / 2 {
            return Err(TfheError::PlaintextModulusTooLarge {
                modulus: p,
                poly_size,
            });
        }
        let box_size = poly_size / p as usize;
        let blocks = Polynomial::from_fn(poly_size, |j| f((j / box_size) as u64));
        // Pre-rotate by half a block so that ±half-box noise around each
        // block center stays inside the block (no negacyclic wrap at m=0).
        let poly = blocks.monomial_mul(-((box_size / 2) as i64));
        Ok(Self {
            poly,
            plaintext_modulus: p,
        })
    }

    /// The identity LUT (a plain noise-resetting bootstrap).
    pub fn identity(poly_size: usize, p: u64) -> Self {
        Self::from_fn(poly_size, p, |m| m)
    }

    /// The constant `+1/8` test polynomial used by gate bootstrapping: the
    /// blind rotation turns it into `+1/8` for phases in `(0, 1/2)` and
    /// `−1/8` for phases in `(−1/2, 0)`.
    pub(crate) fn bool_gate(poly_size: usize) -> Self {
        let eighth = Torus32::from_f64(0.125);
        Self {
            poly: Polynomial::from_fn(poly_size, |_| eighth),
            plaintext_modulus: 2,
        }
    }

    /// The test polynomial (already pre-rotated).
    pub fn polynomial(&self) -> &Polynomial<Torus32> {
        &self.poly
    }

    /// The plaintext modulus `p` this LUT expects.
    pub fn plaintext_modulus(&self) -> u64 {
        self.plaintext_modulus
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_lut_blocks_hold_the_encoded_value() {
        let p = 4u64;
        let n = 64;
        let lut = Lut::identity(n, p);
        // Undo the pre-rotation and check the block structure.
        let blocks = lut.polynomial().monomial_mul((n / p as usize / 2) as i64);
        let box_size = n / p as usize;
        for m in 0..p {
            for j in 0..box_size {
                assert_eq!(
                    blocks[m as usize * box_size + j],
                    Torus32::encode(m, 2 * p),
                    "m={m} j={j}"
                );
            }
        }
    }

    #[test]
    fn bool_gate_is_constant() {
        let lut = Lut::bool_gate(32);
        for j in 0..32 {
            assert_eq!(lut.polynomial()[j], Torus32::from_f64(0.125));
        }
    }

    #[test]
    fn from_fn_applies_the_function() {
        let lut = Lut::from_fn(64, 4, |m| (m * 3) % 4);
        let blocks = lut.polynomial().monomial_mul(8);
        assert_eq!(blocks[0], Torus32::encode(0, 8));
        assert_eq!(blocks[16], Torus32::encode(3, 8));
        assert_eq!(blocks[32], Torus32::encode(2, 8));
        assert_eq!(blocks[48], Torus32::encode(1, 8));
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn rejects_oversized_modulus() {
        let _ = Lut::identity(64, 64);
    }
}
