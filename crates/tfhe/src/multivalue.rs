//! Multi-value bootstrapping: one blind rotation, many LUT outputs.
//!
//! Morphling's organizing principle is transform-domain reuse — pay for
//! one expensive transform, harvest many results from it. The blind
//! rotation is the expensive transform of TFHE itself (n external
//! products), and the multi-value technique of Carpov–Izabachène–
//! Mollimard reuses *it*: factor every test polynomial `TP_i` as
//!
//! ```text
//! TP_i = v_i · w        with  w = 2^(t−1) · (1 + X + … + X^(N−1))
//! ```
//!
//! blind-rotate the **common** factor `w` once, then recover each LUT's
//! rotated accumulator by the cheap sparse product `v_i ⊙ ACC` (a handful
//! of shifted scalar-multiply-accumulates per GLWE component). The
//! identity making this work in the negacyclic ring `Z[X]/(X^N + 1)` is
//!
//! ```text
//! (1 − X) · u = 2       with  u = 1 + X + … + X^(N−1),
//! ```
//!
//! so with `d_i = TP_i · (1 − X)` (computed over **exact signed
//! integers**, not wrapping torus words — halving a wrapped value would
//! leave a 2^31-per-coefficient ambiguity) and `t = min_j ν₂(d_i[j])`:
//! `v_i = d_i / 2^t` and `v_i · w = d_i · u / 2 = TP_i` exactly mod 2^32.
//!
//! The factorization needs every `d_i[j]` even (`t ≥ 1`); LUTs built by
//! [`Lut::from_fn`] always satisfy this (their coefficients are multiples
//! of the encoding step `2^(32−log2 2p)`), while adversarial raw-torus
//! LUTs may not — [`MultiLutPlan::build`] then returns `None` and callers
//! fall back to one rotation per LUT.
//!
//! The price of reuse is noise: the derived accumulator carries `v_i ⊙ e`
//! instead of `e`, amplifying the rotation noise by up to
//! `Σ_j |v_i[j]|`, the factor's weight. Outputs therefore
//! decode identically to a plain bootstrap but are **not** bit-identical
//! to it; the deterministic reference for bit-level tests is
//! `ServerKey::try_programmable_bootstrap_many_separate`, which pays one
//! rotation per LUT of the *same* common factor.

use morphling_math::{Polynomial, Torus32, TorusScalar};

use crate::glwe::GlweCiphertext;
use crate::lut::Lut;

/// A factorization of `k` test polynomials through one common
/// accumulator: `TP_i = v_i · w` with `w` constant across the batch.
///
/// Build once per multi-LUT bootstrap with [`build`](Self::build),
/// blind-rotate [`common`](Self::common), then [`derive`](Self::derive)
/// each LUT's accumulator from the rotated result.
#[derive(Clone, Debug)]
pub struct MultiLutPlan {
    /// `w = 2^(t−1) · (1 + X + … + X^(N−1))`.
    common: Polynomial<Torus32>,
    /// Sparse `v_i` as `(degree, coefficient)` pairs, one list per LUT.
    factors: Vec<Vec<(usize, i64)>>,
    /// The extracted power of two `t` (`≥ 1`).
    shift: u32,
}

impl MultiLutPlan {
    /// Factor `luts` through a common accumulator, or `None` if no
    /// power of two can be extracted (some `TP_i · (1 − X)` coefficient
    /// is odd) or the LUTs disagree on polynomial size.
    ///
    /// Returns `None` for an empty iterator — there is nothing to plan.
    pub fn build<'a, I>(luts: I) -> Option<Self>
    where
        I: IntoIterator<Item = &'a Lut>,
    {
        let luts: Vec<&Lut> = luts.into_iter().collect();
        let first = luts.first()?;
        let n = first.polynomial().len();
        if luts.iter().any(|l| l.polynomial().len() != n) {
            return None;
        }
        // d_i = TP_i · (1 − X) over exact signed integers: subtracting
        // X·TP in the negacyclic ring gives d[0] = c[0] + c[N−1] and
        // d[j] = c[j] − c[j−1]. These are the true integer coefficients
        // (|c| < 2^32 keeps them inside i64), so the halving below is
        // exact rather than a wrapping guess.
        let diffs: Vec<Vec<i64>> = luts
            .iter()
            .map(|lut| {
                let c = lut.polynomial().coeffs();
                (0..n)
                    .map(|j| {
                        if j == 0 {
                            c[0].into_raw() as i64 + c[n - 1].into_raw() as i64
                        } else {
                            c[j].into_raw() as i64 - c[j - 1].into_raw() as i64
                        }
                    })
                    .collect()
            })
            .collect();
        let shift = diffs
            .iter()
            .flatten()
            .filter(|&&d| d != 0)
            .map(|d| d.trailing_zeros())
            .min()
            // All-zero LUTs: any shift works, every factor is empty.
            .unwrap_or(1)
            .min(32);
        if shift == 0 {
            return None;
        }
        let factors = diffs
            .iter()
            .map(|d| {
                d.iter()
                    .enumerate()
                    .filter(|(_, &v)| v != 0)
                    .map(|(j, &v)| (j, v >> shift))
                    .collect()
            })
            .collect();
        let coeff = Torus32::from_raw(1u32 << (shift - 1));
        Some(Self {
            common: Polynomial::from_fn(n, |_| coeff),
            factors,
            shift,
        })
    }

    /// The common test polynomial `w` to blind-rotate once.
    pub fn common(&self) -> &Polynomial<Torus32> {
        &self.common
    }

    /// Number of LUTs in the plan.
    pub fn len(&self) -> usize {
        self.factors.len()
    }

    /// Whether the plan covers zero LUTs.
    pub fn is_empty(&self) -> bool {
        self.factors.is_empty()
    }

    /// The extracted power of two `t` (always in `1..=32`).
    pub fn shift(&self) -> u32 {
        self.shift
    }

    /// Derive LUT `i`'s rotated accumulator: `v_i ⊙ acc`, the sparse
    /// negacyclic integer-polynomial product applied to every GLWE
    /// component. `O(N · nnz(v_i))` wrapping adds — no transform.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `acc`'s polynomial size differs
    /// from the plan's.
    pub fn derive(&self, i: usize, acc: &GlweCiphertext) -> GlweCiphertext {
        let n = self.common.len();
        assert_eq!(acc.poly_size(), n, "accumulator size mismatch");
        let factor = &self.factors[i];
        let comps = acc
            .components()
            .map(|src| {
                let mut dst = Polynomial::<Torus32>::zero(n);
                for &(j, v) in factor {
                    // dst += v · X^j · src  (X^N = −1 flips the wrap).
                    for (idx, &s) in src.iter().enumerate() {
                        let (out, wrapped) = if idx + j < n {
                            (idx + j, false)
                        } else {
                            (idx + j - n, true)
                        };
                        dst[out] += s.scalar_mul(if wrapped { -v } else { v });
                    }
                }
                dst
            })
            .collect();
        GlweCiphertext::from_components(comps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MultiLutPlan {
        /// `Σ_j |v_i[j]|` — the worst-case factor by which deriving LUT `i`
        /// amplifies the common accumulator's rotation noise.
        fn factor_weight(&self, i: usize) -> u64 {
            self.factors[i].iter().map(|&(_, v)| v.unsigned_abs()).sum()
        }
    }

    #[test]
    fn derived_trivial_accumulator_reconstructs_each_lut_exactly() {
        // v_i · w must equal TP_i *bit for bit*: deriving from a trivial
        // encryption of w alone has to reproduce the test polynomial.
        let n = 64;
        let luts = [
            Lut::identity(n, 4),
            Lut::from_fn(n, 4, |m| (3 * m + 1) % 4),
            Lut::from_fn(n, 8, |m| m / 2),
            Lut::bool_gate(n),
        ];
        let plan = MultiLutPlan::build(luts.iter()).expect("all step-aligned");
        assert!(plan.shift() >= 1);
        let acc = GlweCiphertext::trivial(plan.common().clone(), 2);
        for (i, lut) in luts.iter().enumerate() {
            let derived = plan.derive(i, &acc);
            assert_eq!(derived.body(), lut.polynomial(), "lut {i}");
            for mask in derived.masks() {
                assert_eq!(mask, &Polynomial::zero(n), "lut {i} masks stay zero");
            }
        }
    }

    #[test]
    fn derivation_commutes_with_rotation() {
        // v_i ⊙ (X^r · ACC) = X^r · (v_i ⊙ ACC): deriving after the blind
        // rotation is the same as rotating the derived accumulator.
        let n = 32;
        let lut = Lut::from_fn(n, 4, |m| (m + 2) % 4);
        let plan = MultiLutPlan::build([&lut]).expect("plan");
        let acc = GlweCiphertext::trivial(plan.common().clone(), 1);
        for r in [1i64, 7, 31, 32, 45] {
            assert_eq!(
                plan.derive(0, &acc.monomial_mul(r)),
                plan.derive(0, &acc).monomial_mul(r),
                "r={r}"
            );
        }
    }

    #[test]
    fn odd_raw_lut_cannot_be_factored() {
        // A LUT with an odd coefficient step leaves no power of two to
        // extract; the plan must refuse rather than halve inexactly.
        let n = 32;
        let odd = Lut::try_from_torus_fn(n, 2, |m| Torus32::from_raw(if m == 0 { 1 } else { 0 }))
            .unwrap();
        assert!(MultiLutPlan::build([&odd]).is_none());
        // And one bad LUT poisons the whole batch (t is global).
        let good = Lut::identity(n, 4);
        assert!(MultiLutPlan::build([&good, &odd]).is_none());
    }

    #[test]
    fn zero_lut_gets_an_empty_factor() {
        let n = 32;
        let zero = Lut::try_from_torus_fn(n, 2, |_| Torus32::ZERO).unwrap();
        let plan = MultiLutPlan::build([&zero]).expect("zero LUT is trivially factorable");
        assert_eq!(plan.factor_weight(0), 0);
        let acc = GlweCiphertext::trivial(plan.common().clone(), 1);
        assert_eq!(plan.derive(0, &acc), GlweCiphertext::zero(1, n));
    }

    #[test]
    fn mismatched_sizes_and_empty_input_yield_no_plan() {
        assert!(MultiLutPlan::build([]).is_none());
        let a = Lut::identity(32, 4);
        let b = Lut::identity(64, 4);
        assert!(MultiLutPlan::build([&a, &b]).is_none());
    }

    #[test]
    fn factor_weight_bounds_are_small_for_function_luts() {
        // from_fn LUTs change value only at box boundaries, so the sparse
        // factor stays a handful of small entries — the reason derived
        // noise stays comfortably inside the decoding margin.
        let n = 256;
        let lut = Lut::from_fn(n, 4, |m| (3 * m + 1) % 4);
        let plan = MultiLutPlan::build([&lut]).expect("plan");
        assert!(
            plan.factors[0].len() <= 8,
            "sparse: {}",
            plan.factors[0].len()
        );
        assert!(
            plan.factor_weight(0) <= 32,
            "weight {}",
            plan.factor_weight(0)
        );
    }
}
