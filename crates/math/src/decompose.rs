//! Signed gadget decomposition (the paper's Decomposition Unit, §V-A.1).
//!
//! The decomposition of a torus element `x` with base `β = 2^b` and level
//! `l` produces digits `d_1, …, d_l ∈ [-β/2, β/2)` such that
//! `Σ_i d_i · q/β^i` is the closest approximation of `x` representable with
//! `b·l` bits, i.e. `|Σ_i d_i q/β^i − x| ≤ q / (2 β^l)` on the torus.
//!
//! Hardware-wise this is bit-slicing plus rounding, which is why the paper's
//! decomposition unit costs almost no area (Table IV).

use crate::poly::Polynomial;
use crate::torus::TorusScalar;

/// Parameters of a signed gadget decomposition: base `β = 2^base_log` and
/// number of levels `l`.
///
/// # Example
///
/// ```
/// use morphling_math::{DecompParams, SignedDecomposer, Torus32, TorusScalar};
///
/// let params = DecompParams::new(8, 2); // β = 2^8, l = 2
/// let dec = SignedDecomposer::<Torus32>::new(params);
/// let digits = dec.decompose_scalar(Torus32::from_f64(0.3));
/// assert_eq!(digits.len(), 2);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DecompParams {
    base_log: u32,
    level: usize,
}

impl DecompParams {
    /// Create decomposition parameters.
    ///
    /// # Panics
    ///
    /// Panics if `base_log == 0` or `level == 0`.
    pub fn new(base_log: u32, level: usize) -> Self {
        assert!(base_log > 0, "decomposition base must be at least 2");
        assert!(level > 0, "decomposition level must be at least 1");
        Self { base_log, level }
    }

    /// `log2 β`.
    #[inline]
    pub fn base_log(&self) -> u32 {
        self.base_log
    }

    /// The base `β` itself.
    #[inline]
    pub fn base(&self) -> u64 {
        1u64 << self.base_log
    }

    /// The number of levels `l`.
    #[inline]
    pub fn level(&self) -> usize {
        self.level
    }

    /// Total number of significant bits kept, `b·l`.
    #[inline]
    pub fn total_bits(&self) -> u32 {
        self.base_log * self.level as u32
    }
}

/// A signed decomposer for a particular torus width.
///
/// Construction validates that `b·l` fits in the torus word, so
/// decomposition itself is panic-free.
#[derive(Clone, Copy, Debug)]
pub struct SignedDecomposer<T> {
    params: DecompParams,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: TorusScalar> SignedDecomposer<T> {
    /// Create a decomposer.
    ///
    /// # Panics
    ///
    /// Panics if `base_log * level` exceeds the torus width.
    pub fn new(params: DecompParams) -> Self {
        assert!(
            params.total_bits() <= T::BITS,
            "decomposition keeps {} bits but the torus has only {}",
            params.total_bits(),
            T::BITS
        );
        Self {
            params,
            _marker: std::marker::PhantomData,
        }
    }

    /// The decomposition parameters.
    #[inline]
    pub fn params(&self) -> DecompParams {
        self.params
    }

    /// Decompose a single torus element into `level` balanced digits,
    /// most-significant first (digit `i` carries weight `q/β^(i+1)`).
    pub fn decompose_scalar(&self, x: T) -> Vec<i64> {
        let mut digits = vec![0i64; self.params.level];
        self.decompose_scalar_into(x, &mut digits);
        digits
    }

    /// [`decompose_scalar`](Self::decompose_scalar) into a caller-owned
    /// digit buffer — the allocation-free core the hot path uses.
    ///
    /// # Panics
    ///
    /// Panics if `digits.len() != level`.
    pub fn decompose_scalar_into(&self, x: T, digits: &mut [i64]) {
        let b = self.params.base_log;
        let l = self.params.level;
        assert_eq!(digits.len(), l, "digit buffer length must equal the level");
        let total = b * l as u32;
        // Round to the closest multiple of q / β^l (round-half-up), then
        // take the top `total` bits as an unsigned integer.
        let raw = x.to_u64();
        let rounded: u64 = if total == T::BITS {
            raw
        } else {
            let drop = T::BITS - total;
            let half = 1u64 << (drop - 1);
            // Wrap within the torus word before shifting down.
            let wrapped = if T::BITS == 64 {
                raw.wrapping_add(half)
            } else {
                (raw + half) & ((1u64 << T::BITS) - 1)
            };
            wrapped >> drop
        };

        // Balanced (signed) digit extraction, least-significant first with
        // carry propagation, then reversed to most-significant first.
        let beta = 1u64 << b;
        let half_beta = beta >> 1;
        let mut carry: u64 = 0;
        let mut rest = rounded;
        for i in (0..l).rev() {
            let digit = (rest & (beta - 1)) + carry;
            rest >>= b;
            if digit >= half_beta {
                // A digit of β/2 or more is re-expressed as digit − β with a
                // carry into the next (more significant) digit. β/2 itself
                // maps to −β/2: digits end up in [−β/2, β/2).
                digits[i] = digit as i64 - beta as i64;
                carry = 1;
            } else {
                digits[i] = digit as i64;
                carry = 0;
            }
        }
        // A final carry out of the most significant digit corresponds to a
        // full wrap of the torus (adds q), which is 0 mod q — drop it.
    }

    /// Recompose digits back to the torus: `Σ_i d_i · q/β^(i+1)`.
    pub fn recompose_scalar(&self, digits: &[i64]) -> T {
        assert_eq!(digits.len(), self.params.level, "digit count mismatch");
        let b = self.params.base_log;
        let mut acc = T::ZERO;
        for (i, &d) in digits.iter().enumerate() {
            // Weight of level i is q/β^(i+1) = 2^(BITS - b(i+1)); the shift
            // is always in [0, BITS) because b(i+1) ≥ 1.
            let weight_shift = T::BITS - b * (i as u32 + 1);
            let unit = T::from_u64(1u64 << weight_shift);
            acc += unit.scalar_mul(d);
        }
        acc
    }

    /// Decompose every coefficient of a polynomial, returning `level`
    /// digit-polynomials, most-significant level first — exactly the stream
    /// the paper's decomposition unit feeds to the pipelined FFT.
    pub fn decompose_poly(&self, p: &Polynomial<T>) -> Vec<Polynomial<i64>> {
        let mut out = vec![Polynomial::zero(p.len()); self.params.level];
        self.decompose_poly_into(p, &mut out);
        out
    }

    /// [`decompose_poly`](Self::decompose_poly) into caller-owned digit
    /// polynomials, allocation-free — the decomposition unit of the
    /// blind-rotation hot path.
    ///
    /// Bit-identical to [`decompose_scalar_into`]
    /// (Self::decompose_scalar_into) per coefficient, but with no carry
    /// chain: adding `β/2` at every level before slicing turns each
    /// balanced digit into an independent shift-mask-subtract,
    /// `d_i = ((x̃ + Σ_j (β/2)·β^j) >> b·(l−1−i)) mod β − β/2` (balanced
    /// digits in `[−β/2, β/2)` are unique mod `β^l`, so this is the digit
    /// the carry chain produces, dropped top carry included). The loops
    /// run level-outer over whole polynomials with no branch inside, which
    /// is what lets the compiler vectorize them.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != level` or any digit polynomial's size
    /// differs from `p.len()`.
    pub fn decompose_poly_into(&self, p: &Polynomial<T>, out: &mut [Polynomial<i64>]) {
        let b = self.params.base_log;
        let l = self.params.level;
        assert_eq!(out.len(), l, "digit polynomial count must equal the level");
        let total = b * l as u32;
        // Rounding to the closest multiple of q / β^l (round-half-up), as
        // `decompose_scalar_into` does: add half of what is dropped, wrap
        // within the torus word, shift down.
        let (drop, half) = match T::BITS - total {
            0 => (0, 0),
            drop => (drop, 1u64 << (drop - 1)),
        };
        let word_mask = u64::MAX >> (64 - T::BITS);
        let beta_mask = (1u64 << b) - 1;
        let half_beta = 1u64 << (b - 1);
        let offset = (0..l as u32).fold(0u64, |acc, j| acc | (half_beta << (b * j)));
        for (i, dp) in out.iter_mut().enumerate() {
            assert_eq!(dp.len(), p.len(), "digit polynomial size mismatch");
            let shift = b * (l - 1 - i) as u32;
            for (d, &c) in dp.coeffs_mut().iter_mut().zip(p.coeffs()) {
                let rounded = (c.to_u64().wrapping_add(half) & word_mask) >> drop;
                let digit = (rounded.wrapping_add(offset) >> shift) & beta_mask;
                *d = digit as i64 - half_beta as i64;
            }
        }
    }

    /// The worst-case absolute rounding error of the decomposition, as a
    /// fraction of the torus: `1 / (2 β^l)` (or 0 when `b·l` covers the
    /// whole word).
    pub fn max_error(&self) -> f64 {
        if self.params.total_bits() >= T::BITS {
            0.0
        } else {
            0.5 / (self.params.base() as f64).powi(self.params.level as i32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::torus::{Torus32, Torus64};

    fn torus_distance(a: f64, b: f64) -> f64 {
        let d = (a - b).rem_euclid(1.0);
        d.min(1.0 - d)
    }

    #[test]
    fn digits_are_balanced() {
        let dec = SignedDecomposer::<Torus32>::new(DecompParams::new(4, 3));
        let beta_half = 8i64;
        for raw in [
            0u32,
            1,
            0xFFFF_FFFF,
            0x8000_0000,
            0x7FFF_FFFF,
            0x1234_5678,
            0xDEAD_BEEF,
        ] {
            for d in dec.decompose_scalar(Torus32::from_raw(raw)) {
                assert!(
                    (-beta_half..beta_half).contains(&d),
                    "digit {d} out of range for {raw:#x}"
                );
            }
        }
    }

    #[test]
    fn recompose_error_is_bounded() {
        let dec = SignedDecomposer::<Torus32>::new(DecompParams::new(6, 3));
        let bound = dec.max_error() + 1e-12;
        for raw in (0..1000u32).map(|i| i.wrapping_mul(0x9E37_79B9)) {
            let x = Torus32::from_raw(raw);
            let digits = dec.decompose_scalar(x);
            let back = dec.recompose_scalar(&digits);
            let err = torus_distance(x.to_f64(), back.to_f64());
            assert!(err <= bound, "x={raw:#x} err={err} bound={bound}");
        }
    }

    #[test]
    fn full_width_decomposition_is_exact() {
        let dec = SignedDecomposer::<Torus32>::new(DecompParams::new(8, 4));
        for raw in [0u32, 1, 0x8000_0000, 0xFFFF_FFFF, 0xCAFE_BABE] {
            let x = Torus32::from_raw(raw);
            assert_eq!(
                dec.recompose_scalar(&dec.decompose_scalar(x)),
                x,
                "raw={raw:#x}"
            );
        }
    }

    #[test]
    fn zero_decomposes_to_zero_digits() {
        let dec = SignedDecomposer::<Torus32>::new(DecompParams::new(8, 2));
        assert_eq!(dec.decompose_scalar(Torus32::ZERO), vec![0, 0]);
    }

    #[test]
    fn poly_decomposition_matches_scalar() {
        let dec = SignedDecomposer::<Torus32>::new(DecompParams::new(7, 2));
        let p = Polynomial::from_fn(8, |j| {
            Torus32::from_raw((j as u32).wrapping_mul(0x0135_7924))
        });
        let digit_polys = dec.decompose_poly(&p);
        assert_eq!(digit_polys.len(), 2);
        for (j, &c) in p.iter().enumerate() {
            let digits = dec.decompose_scalar(c);
            for (i, dp) in digit_polys.iter().enumerate() {
                assert_eq!(dp[j], digits[i]);
            }
        }
    }

    #[test]
    fn torus64_decomposition_error_bounded() {
        let dec = SignedDecomposer::<Torus64>::new(DecompParams::new(10, 4));
        let bound = dec.max_error() + 1e-15;
        for i in 0..200u64 {
            let x = Torus64::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let back = dec.recompose_scalar(&dec.decompose_scalar(x));
            let err = torus_distance(x.to_f64(), back.to_f64());
            assert!(err <= bound, "i={i} err={err}");
        }
    }

    #[test]
    fn into_variants_match_allocating_paths() {
        let dec = SignedDecomposer::<Torus32>::new(DecompParams::new(6, 3));
        let p = Polynomial::from_fn(16, |j| {
            Torus32::from_raw((j as u32).wrapping_mul(0x9E37_79B9))
        });
        let mut out = vec![Polynomial::zero(16); 3];
        dec.decompose_poly_into(&p, &mut out);
        assert_eq!(dec.decompose_poly(&p), out);
        let x = Torus32::from_raw(0xDEAD_BEEF);
        let mut digits = [0i64; 3];
        dec.decompose_scalar_into(x, &mut digits);
        assert_eq!(digits.to_vec(), dec.decompose_scalar(x));
    }

    #[test]
    #[should_panic(expected = "count must equal")]
    fn poly_into_rejects_wrong_level_count() {
        let dec = SignedDecomposer::<Torus32>::new(DecompParams::new(6, 3));
        let p = Polynomial::<Torus32>::zero(8);
        let mut out = vec![Polynomial::zero(8); 2];
        dec.decompose_poly_into(&p, &mut out);
    }

    #[test]
    #[should_panic(expected = "keeps")]
    fn rejects_too_many_bits() {
        let _ = SignedDecomposer::<Torus32>::new(DecompParams::new(8, 5));
    }

    #[test]
    fn half_base_digit_maps_to_negative_half() {
        // x = 0.5 with β=2, l=1: digit must be -1 (not +1), carry dropped.
        let dec = SignedDecomposer::<Torus32>::new(DecompParams::new(1, 1));
        assert_eq!(dec.decompose_scalar(Torus32::HALF), vec![-1]);
    }
}
