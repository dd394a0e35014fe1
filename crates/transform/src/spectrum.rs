//! Transform-domain data: the values Morphling keeps inside the VPE
//! POLY-ACC registers and the Private-A2 buffer.

use std::ops::{Add, AddAssign};

use morphling_math::Complex64;

use crate::fft::slot;
use crate::simd::{cmul_add, Aligned, Isa, Kernel, Simd};

/// The negacyclic spectrum of a size-`N` real polynomial: its `N/2`
/// evaluations at the odd `2N`-th roots of unity `e^(-iπ(4m+1)/N)`.
///
/// Stored planar — all real parts, then all imaginary parts — so that the
/// transform kernel and the multiply-accumulate below are straight vector
/// loops along the point axis, and **in the order the forward transform's
/// butterflies leave the points in** (a fixed permutation, a function of
/// `N` alone: see [`FftPlan`](crate::FftPlan)), which is the order the
/// inverse reads them in. Everything between the two transforms is
/// pointwise and never needs to know; [`point`](Self::point) finds
/// evaluation point `m` for those who do.
///
/// Spectra form a module: they can be added (IFFT linearity — the heart of
/// *output* transform-domain reuse, §IV-B) and multiplied pointwise
/// (polynomial multiplication — what a VPE lane computes).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Spectrum {
    /// `re[0..points]` followed by `im[0..points]`.
    planes: Aligned,
}

impl Spectrum {
    /// A zero spectrum for polynomials of size `n` (stores `n/2` points).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two of at least 2.
    pub fn zero(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "polynomial size must be a power of two ≥ 2"
        );
        Self {
            planes: Aligned::zeroed(n),
        }
    }

    /// Number of evaluation points, `N/2`.
    #[inline]
    pub fn points(&self) -> usize {
        self.planes.len() / 2
    }

    /// The polynomial size `N` this spectrum represents (`2 ×` points).
    #[inline]
    pub fn poly_len(&self) -> usize {
        self.planes.len()
    }

    /// The real parts of the evaluation points, in stored order.
    #[inline]
    pub fn re(&self) -> &[f64] {
        &self.planes[..self.planes.len() / 2]
    }

    /// The imaginary parts of the evaluation points, in stored order.
    #[inline]
    pub fn im(&self) -> &[f64] {
        &self.planes[self.planes.len() / 2..]
    }

    /// Both planes, mutably, in stored order: `(re, im)`.
    #[inline]
    pub fn planes_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        let points = self.planes.len() / 2;
        self.planes.split_at_mut(points)
    }

    /// Evaluation point `m`: the value at `e^(-iπ(4m+1)/N)`.
    #[inline]
    pub fn point(&self, m: usize) -> Complex64 {
        let at = slot(self.points(), m);
        Complex64::new(self.re()[at], self.im()[at])
    }

    /// Reset every point to zero in place — how POLY-ACC-REG is cleared
    /// between accumulations, without reallocating the register file.
    pub fn set_zero(&mut self) {
        self.planes.fill(0.0);
    }

    /// Pointwise product — polynomial multiplication in the transform
    /// domain (one VPE pass over the `N/2` elements).
    #[must_use]
    pub fn pointwise_mul(&self, rhs: &Self) -> Self {
        assert_eq!(
            self.planes.len(),
            rhs.planes.len(),
            "spectrum size mismatch"
        );
        // Pointwise: in stored order, whatever it is.
        let at = |s: &Self, i: usize| Complex64::new(s.re()[i], s.im()[i]);
        let product = (0..self.points()).map(|i| at(self, i) * at(rhs, i));
        let (re, im): (Vec<f64>, Vec<f64>) = product.map(|v| (v.re, v.im)).unzip();
        Self {
            planes: re.into_iter().chain(im).collect(),
        }
    }

    /// Multiply-accumulate: `self += a * b` pointwise. This is exactly the
    /// VPE inner loop with POLY-ACC-REG as `self` (§V-A.2), and the
    /// external product's hot loop: it runs on the vector ISA the CPU
    /// offers, as four fused multiply-adds per point (`acc.re + a.re·b.re`
    /// then `− a.im·b.im`, `acc.im + a.re·b.im` then `+ a.im·b.re`, each
    /// rounded once, as a multiply-accumulator does) on every one of them,
    /// so its bits do not depend on that choice — and differ in the last
    /// place from `acc + a * b` in `Complex64`'s unfused operators.
    pub fn mul_acc(&mut self, a: &Self, b: &Self) {
        assert_eq!(self.planes.len(), a.planes.len(), "spectrum size mismatch");
        assert_eq!(self.planes.len(), b.planes.len(), "spectrum size mismatch");
        Simd::detect(self.points()).run(MulAcc { acc: self, a, b });
    }
}

struct MulAcc<'a> {
    acc: &'a mut Spectrum,
    a: &'a Spectrum,
    b: &'a Spectrum,
}

impl Kernel for MulAcc<'_> {
    type Out = ();

    #[inline(always)]
    fn run<I: Isa>(self, isa: I) {
        let (acc_re, acc_im) = self.acc.planes_mut();
        let (acc_re, acc_im) = (isa.blocks_mut(acc_re), isa.blocks_mut(acc_im));
        let (a_re, a_im) = (isa.blocks(self.a.re()), isa.blocks(self.a.im()));
        let (b_re, b_im) = (isa.blocks(self.b.re()), isa.blocks(self.b.im()));
        let acc = acc_re.iter_mut().zip(acc_im);
        for (((acc, a_re), a_im), (b_re, b_im)) in
            acc.zip(a_re).zip(a_im).zip(b_re.iter().zip(b_im))
        {
            let sum = cmul_add::<I, false>(
                isa,
                (isa.load(acc.0), isa.load(acc.1)),
                (isa.load(a_re), isa.load(a_im)),
                (isa.load(b_re), isa.load(b_im)),
            );
            isa.store(acc.0, sum.0);
            isa.store(acc.1, sum.1);
        }
    }
}

impl Add for &Spectrum {
    type Output = Spectrum;
    fn add(self, rhs: &Spectrum) -> Spectrum {
        let mut sum = self.clone();
        sum += rhs;
        sum
    }
}

impl AddAssign<&Spectrum> for Spectrum {
    fn add_assign(&mut self, rhs: &Spectrum) {
        assert_eq!(
            self.planes.len(),
            rhs.planes.len(),
            "spectrum size mismatch"
        );
        for (a, &b) in self.planes.iter_mut().zip(rhs.planes.iter()) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Spectrum {
        /// Build from evaluation points: `values[m]` at `e^(-iπ(4m+1)/N)`
        /// (must be `N/2` points of a size-`N` polynomial).
        pub(crate) fn from_values(values: Vec<Complex64>) -> Self {
            let points = values.len();
            assert!(
                points.is_power_of_two(),
                "spectrum length must be a power of two"
            );
            let mut planes: Aligned = std::iter::repeat_n(0.0, 2 * points).collect();
            for (m, v) in values.iter().enumerate() {
                let at = slot(points, m);
                (planes[at], planes[points + at]) = (v.re, v.im);
            }
            Self { planes }
        }
    }

    #[test]
    fn zero_has_half_the_points() {
        assert_eq!(Spectrum::zero(64).points(), 32);
        assert_eq!(Spectrum::zero(64).poly_len(), 64);
    }

    #[test]
    fn planes_round_trip_points() {
        let values = vec![Complex64::new(1.0, 2.0), Complex64::new(-1.0, 0.5)];
        let s = Spectrum::from_values(values.clone());
        assert_eq!((s.re(), s.im()), (&[1.0, -1.0][..], &[2.0, 0.5][..]));
        assert_eq!((0..2).map(|m| s.point(m)).collect::<Vec<_>>(), values);
    }

    #[test]
    fn planes_start_on_a_cache_line_and_clones_realign() {
        // Odd-sized allocations in between, so that the allocator hands
        // the planes every offset within a line it can.
        let mut kept: Vec<(Vec<u8>, Spectrum)> = Vec::new();
        for i in 0..64usize {
            let pad = vec![0u8; 8 + 24 * i];
            let n = 2usize << (i % 11);
            let source = if i % 2 == 0 {
                Spectrum::zero(n)
            } else {
                Spectrum::from_values((0..n / 2).map(|m| Complex64::new(m as f64, -1.5)).collect())
            };
            let copy = source.clone();
            assert_eq!(copy, source);
            for s in [&source, &copy] {
                assert_eq!(s.re().as_ptr() as usize % 64, 0, "n={n} #{i}");
                assert_eq!((s.re().len(), s.im().len()), (n / 2, n / 2));
            }
            kept.push((pad, copy));
        }
        assert_eq!(Spectrum::default().poly_len(), 0);
        assert_eq!(
            format!("{:?}", Spectrum::zero(2)),
            "Spectrum { planes: [0.0, 0.0] }"
        );
    }

    #[test]
    fn mul_acc_matches_mul_then_add() {
        let a = Spectrum::from_values(vec![Complex64::new(1.0, 2.0), Complex64::new(-1.0, 0.5)]);
        let b = Spectrum::from_values(vec![Complex64::new(0.0, 1.0), Complex64::new(3.0, -2.0)]);
        let mut acc = Spectrum::zero(4);
        acc.mul_acc(&a, &b);
        assert_eq!(acc, a.pointwise_mul(&b));
        acc.mul_acc(&a, &b);
        let doubled = &a.pointwise_mul(&b) + &a.pointwise_mul(&b);
        assert_eq!(acc, doubled);
    }

    /// The per-point reference: `acc ← acc + a · b`, fused as the scalar
    /// reference of the transform fuses it.
    fn mul_acc_reference(acc: &mut [Complex64], a: &Spectrum, b: &Spectrum) {
        for (m, v) in acc.iter_mut().enumerate() {
            *v = crate::fft::mul_add_fused(*v, a.point(m), b.point(m));
        }
    }

    fn bits(s: &Spectrum) -> Vec<u64> {
        s.planes.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn mul_acc_is_bit_identical_on_every_isa() {
        // Awkward values on purpose: signed zeros, a subnormal, a huge
        // magnitude, products whose difference cancels — and, below,
        // points where fusing changes the answer.
        let awkward = [0.0, -0.0, 5e-324, -1.5, 3.0e300, 1.0 / 3.0, -7.25, 1e-160];
        for points in [4usize, 8, 64, 1024] {
            let mk = |salt: usize| {
                Spectrum::from_values(
                    (0..points)
                        .map(|m| {
                            Complex64::new(
                                awkward[(m * 3 + salt) % awkward.len()],
                                awkward[(m * 5 + 2 * salt + 1) % awkward.len()],
                            )
                        })
                        .collect(),
                )
            };
            let (mut a, mut b, mut start) = (mk(0), mk(1), mk(2));
            // Three points on which a product rounded before it is added
            // and a product fused into the sum part ways: one whose
            // second product rounds to the first (unfused: zero; fused:
            // the residual), one near 2^52 (the fused sum sees the half the
            // rounded product lost), one whose product overflows on its
            // own and not in the sum.
            let eps = f64::EPSILON;
            let crafted = [
                ((0.0, 0.0), (1.0, 1.0 + eps), (1.0, 1.0 - eps / 2.0)),
                ((0.5, 0.0), (4_503_599_627_370_497.0, 0.0), (1.0 + eps, 0.0)),
                ((-1.0e308, 0.0), (1.5e154, 0.0), (1.5e154, 0.0)),
            ];
            for (m, (s, x, w)) in crafted.into_iter().enumerate() {
                for (spec, v) in [(&mut start, s), (&mut a, x), (&mut b, w)] {
                    let (re, im) = spec.planes_mut();
                    (re[slot(points, m)], im[slot(points, m)]) = v;
                }
            }
            let mut want: Vec<Complex64> = (0..points).map(|m| start.point(m)).collect();
            mul_acc_reference(&mut want, &a, &b);
            // The reference fuses, and these inputs show it: a kernel
            // that fused where the reference does not (or the reverse)
            // could not pass by luck.
            for (m, fused) in want.iter().enumerate().take(crafted.len()) {
                let unfused = start.point(m) + a.point(m) * b.point(m);
                assert_ne!(fused.re.to_bits(), unfused.re.to_bits(), "point {m}");
            }
            assert_eq!(want[0].re, -eps / 2.0 + eps * eps / 2.0);
            assert_eq!(want[1].re, 4_503_599_627_370_499.0);
            assert!(want[2].re.is_finite());
            let want = bits(&Spectrum::from_values(want));

            for (name, simd) in Simd::every(points) {
                let mut acc = start.clone();
                simd.run(MulAcc {
                    acc: &mut acc,
                    a: &a,
                    b: &b,
                });
                assert_eq!(bits(&acc), want, "{name}, {points} points");
            }
        }
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mismatched_sizes_panic() {
        let _ = Spectrum::zero(8).pointwise_mul(&Spectrum::zero(16));
    }
}
