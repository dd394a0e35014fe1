//! The transform kernel: one planar polynomial, vectorized along its
//! coefficient axis, plus the scalar AoS reference it is tested against.
//!
//! Both are the decimation-in-time radix-2 network over one twiddle ROM
//! (the hardware's Twiddle-Buffer; §V-A.3's multi-delay-commutator
//! pipeline is its streaming form, timed separately in
//! [`crate::pipeline`]). The reference ([`FftPlan::forward`] /
//! [`FftPlan::inverse`]) walks it one stage and one complex point at a
//! time. The kernel (`FftPlan::transform`) fuses two stages per pass
//! (radix-2²), folds the bit-reversal into the first pass and lets the
//! caller fold its own pre- and post-processing (negacyclic twist, untwist
//! and rounding) into the first and last — but per element it performs
//! *exactly* the reference's f64 operation sequence, so the two agree bit
//! for bit on every input.
//!
//! That sequence is written in `mul` and the fused multiply-add (the
//! VPE's multiply-accumulator), each rounded once: a butterfly is
//! `lo = a + b·w` as two nested fused operations per component and
//! `hi = 2a − lo` as one — six where the unfused form takes ten.
//! [`butterfly_fused`] states it in scalars, on `f64::mul_add`.

use morphling_math::Complex64;

use crate::simd::{cmul_add, Aligned, Isa, Simd, C};

/// A reusable FFT plan for one transform size.
///
/// Construction precomputes the twiddle factors and the block permutation
/// and picks the vector ISA from CPU detection; the transforms then run
/// allocation-free on caller buffers.
///
/// Conventions: `forward` computes `X_k = Σ_j x_j e^(-2πi jk/n)` (no
/// scaling); `inverse` computes `x_j = (1/n) Σ_k X_k e^(+2πi jk/n)`.
///
/// [`forward`](Self::forward) and [`inverse`](Self::inverse) are the
/// scalar **reference**: the hot paths of this workspace go through
/// [`NegacyclicFft`](crate::NegacyclicFft), whose kernel is tested
/// bit-identical to them.
///
/// # Example
///
/// ```
/// use morphling_math::Complex64;
/// use morphling_transform::FftPlan;
///
/// let plan = FftPlan::new(8);
/// let mut data: Vec<Complex64> = (0..8).map(|j| Complex64::new(j as f64, 0.0)).collect();
/// let original = data.clone();
/// plan.forward(&mut data);
/// plan.inverse(&mut data);
/// for (a, b) in data.iter().zip(&original) {
///     assert!((*a - *b).abs() < 1e-9);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct FftPlan {
    n: usize,
    // Planar twiddle ROM: the stage with half-block size h keeps
    // e^(-2πi k / 2h), k < h, at index h + k (index 0 is unused).
    tw_re: Aligned,
    tw_im: Aligned,
    // Which four-point block the kernel's first pass finishes at step r:
    // bitrev(r) over log2(n) − 2 bits, for r < n/4.
    rev4: Vec<u32>,
    simd: Simd,
}

/// Bit-reverse `i` within `bits` bits.
fn bit_reverse(i: usize, bits: u32) -> usize {
    if bits == 0 {
        0
    } else {
        i.reverse_bits() >> (usize::BITS - bits)
    }
}

impl FftPlan {
    /// Create a plan for transforms of `n` points.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or is zero.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n > 0,
            "FFT size must be a positive power of two, got {n}"
        );
        let mut tw = vec![Complex64::ZERO; n];
        let mut half = 1usize;
        while half < n {
            let step = -std::f64::consts::TAU / (2 * half) as f64;
            for k in 0..half {
                tw[half + k] = Complex64::from_polar_unit(step * k as f64);
            }
            half *= 2;
        }
        let quarter_bits = n.trailing_zeros().saturating_sub(2);
        Self {
            n,
            tw_re: tw.iter().map(|w| w.re).collect(),
            tw_im: tw.iter().map(|w| w.im).collect(),
            rev4: (0..n / 4)
                .map(|r| bit_reverse(r, quarter_bits) as u32)
                .collect(),
            simd: Simd::detect(n / 4),
        }
    }

    /// Transform size.
    ///
    /// No `is_empty` companion: the constructor rejects `n == 0`, so a
    /// plan is never empty and the method could only ever lie.
    #[inline]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.n
    }

    /// In-place forward FFT (scalar reference).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the plan size.
    pub fn forward(&self, data: &mut [Complex64]) {
        self.reference(data, false);
    }

    /// In-place inverse FFT including the `1/n` scaling (scalar
    /// reference).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the plan size.
    pub fn inverse(&self, data: &mut [Complex64]) {
        self.reference(data, true);
        let scale = 1.0 / self.n as f64;
        for v in data.iter_mut() {
            *v = v.scale(scale);
        }
    }

    fn reference(&self, data: &mut [Complex64], inverse: bool) {
        assert_eq!(data.len(), self.n, "buffer size does not match FFT plan");
        let bits = self.n.trailing_zeros();
        for i in 0..self.n {
            let j = bit_reverse(i, bits);
            if i < j {
                data.swap(i, j);
            }
        }
        let mut half = 1usize;
        while half < self.n {
            for start in (0..self.n).step_by(2 * half) {
                for k in 0..half {
                    let w = Complex64::new(self.tw_re[half + k], self.tw_im[half + k]);
                    let w = if inverse { w.conj() } else { w };
                    let (lo, hi) = butterfly_fused(data[start + k], data[start + k + half], w);
                    data[start + k] = lo;
                    data[start + k + half] = hi;
                }
            }
            half *= 2;
        }
    }

    /// The ISA this plan's kernel runs on.
    pub(crate) fn simd(&self) -> Simd {
        self.simd
    }

    /// The kernel: an unscaled `n`-point transform (`INV` conjugates the
    /// twiddles) of the planar sequence `source` yields, worked in place
    /// in `re`/`im`, whose results go to `sink`.
    ///
    /// Both ends see the sequence as `P` parts, its four quarters (of two
    /// points: `P = 2`, each one) — the runs the first pass reads and the
    /// last pass writes side by side — so that each can cut its own planes
    /// once ([`parts`]) and index them with the counters it is handed,
    /// bounds checks gone.
    /// `source(k)` returns points `k·LANES..(k + 1)·LANES` of every
    /// quarter and is called once per `k`, in order, by the first pass —
    /// all four at once, which spreads the fixed cost of a call over four
    /// vectors (the external product's MAC gathers from two dozen
    /// arrays). `sink(re, im, t, k, vr, vi)` receives those points of
    /// quarter `t` once each, from the last pass, with the blocks of the
    /// work planes they were computed in: [`store_back`] writes them there
    /// (`re`/`im` then hold the result); any other sink may leave the
    /// planes as scratch and put its output elsewhere.
    ///
    /// `isa` must be the one [`Self::simd`] dispatches to.
    #[inline(always)]
    pub(crate) fn transform<I: Isa, const INV: bool, const P: usize>(
        &self,
        isa: I,
        re: &mut [f64],
        im: &mut [f64],
        source: impl Fn(usize) -> [C<I>; P],
        mut sink: impl FnMut(&mut Plane<I>, &mut Plane<I>, usize, usize, I::V, I::V),
    ) {
        let n = re.len();
        assert!(
            P == n.min(4) && n == self.n && im.len() == n,
            "work planes do not match the FFT plan"
        );
        if P == 2 {
            // Two points, their own bit reversal, a lane each: one butterfly.
            let (x, w) = (source(0), self.twiddle_splat(isa, 1));
            let (lo, hi) = butterfly2::<I, INV>(isa, x[0], x[1], w);
            let (re, im) = (isa.blocks_mut(re), isa.blocks_mut(im));
            sink(&mut re[0], &mut im[0], 0, 0, lo.0, lo.1);
            sink(&mut re[1], &mut im[1], 1, 0, hi.0, hi.1);
            return;
        }
        self.first_pass::<I, INV, P>(isa, re, im, source);
        // Stages with half-block sizes h = 4, 4h, …, n/2 remain; the last
        // pass hands its results to the sink.
        let mut h = 4;
        while 8 * h <= n {
            if h < I::LANES {
                // The first pass left runs of four points, half an
                // eight-lane vector; n ≥ 4·LANES, so a later pass feeds
                // the sink.
                let half = isa.half();
                self.radix4_pass::<I::Half, INV>(half, re, im, h, store_back(half));
            } else {
                self.radix4_pass::<I, INV>(isa, re, im, h, store_back(isa));
            }
            h *= 4;
        }
        if h == n {
            // Four points, a lane each: the first pass was the transform.
            let (re, im) = (isa.blocks_mut(re), isa.blocks_mut(im));
            for (t, (re, im)) in re.iter_mut().zip(im).enumerate() {
                let (vr, vi) = (isa.load(re), isa.load(im));
                sink(re, im, t, 0, vr, vi);
            }
        } else if 2 * h == n {
            // The last stage on its own, when the stage count is odd:
            // quarter s meets quarter s + 2.
            self.radix2_pass::<I, INV>(isa, re, im, 0, &mut sink);
            self.radix2_pass::<I, INV>(isa, re, im, 1, &mut sink);
        } else {
            self.radix4_pass::<I, INV>(isa, re, im, h, sink);
        }
    }

    /// Twiddle `at` of the ROM in every lane.
    #[inline(always)]
    fn twiddle_splat<I: Isa>(&self, isa: I, at: usize) -> C<I> {
        (isa.splat(self.tw_re[at]), isa.splat(self.tw_im[at]))
    }

    /// Input, bit reversal and stages 0–1 in one pass. After the
    /// reversal, block `b` (points `4b..4b + 4`) holds source points
    /// `r, r + n/2, r + n/4, r + 3n/4` with `r = bitrev(b)`; walking `r`
    /// instead of `b` makes all four reads contiguous runs, and the
    /// transposing store puts each finished block where it belongs.
    #[inline(always)]
    fn first_pass<I: Isa, const INV: bool, const P: usize>(
        &self,
        isa: I,
        re: &mut [f64],
        im: &mut [f64],
        source: impl Fn(usize) -> [C<I>; P],
    ) {
        // Stage 0's twiddle and stage 1's two, the same for every block.
        let w = [
            self.twiddle_splat(isa, 1),
            self.twiddle_splat(isa, 2),
            self.twiddle_splat(isa, 3),
        ];
        let (re, _) = re.as_chunks_mut::<4>();
        let (im, _) = im.as_chunks_mut::<4>();
        for (k, pos) in isa.blocks(&self.rev4).iter().enumerate() {
            let x = source(k);
            let y = butterfly4::<I, INV>(isa, [x[0], x[2], x[1], x[3]], w);
            isa.scatter4(re, pos, [y[0].0, y[1].0, y[2].0, y[3].0]);
            isa.scatter4(im, pos, [y[0].1, y[1].1, y[2].1, y[3].1]);
        }
    }

    /// The stages with half-block sizes `h` and `2h`, fused, in every run
    /// of `4h` points; `sink` gets the quarter of its run and the vector
    /// within it that each output is.
    #[inline(always)]
    fn radix4_pass<I: Isa, const INV: bool>(
        &self,
        isa: I,
        re: &mut [f64],
        im: &mut [f64],
        h: usize,
        mut sink: impl FnMut(&mut Plane<I>, &mut Plane<I>, usize, usize, I::V, I::V),
    ) {
        let m = h / I::LANES;
        // Stage h's twiddles, then stage 2h's for k and for k + h.
        let tw_re = parts::<_, 3>(isa.blocks(&self.tw_re[h..4 * h]), m);
        let tw_im = parts::<_, 3>(isa.blocks(&self.tw_im[h..4 * h]), m);
        for (re, im) in re.chunks_exact_mut(4 * h).zip(im.chunks_exact_mut(4 * h)) {
            let re = parts_mut::<_, 4>(isa.blocks_mut(re), m);
            let im = parts_mut::<_, 4>(isa.blocks_mut(im), m);
            for k in 0..m {
                let x = [
                    (isa.load(&re[0][k]), isa.load(&im[0][k])),
                    (isa.load(&re[1][k]), isa.load(&im[1][k])),
                    (isa.load(&re[2][k]), isa.load(&im[2][k])),
                    (isa.load(&re[3][k]), isa.load(&im[3][k])),
                ];
                let w = [
                    (isa.load(&tw_re[0][k]), isa.load(&tw_im[0][k])),
                    (isa.load(&tw_re[1][k]), isa.load(&tw_im[1][k])),
                    (isa.load(&tw_re[2][k]), isa.load(&tw_im[2][k])),
                ];
                let y = butterfly4::<I, INV>(isa, x, w);
                sink(&mut re[0][k], &mut im[0][k], 0, k, y[0].0, y[0].1);
                sink(&mut re[1][k], &mut im[1][k], 1, k, y[1].0, y[1].1);
                sink(&mut re[2][k], &mut im[2][k], 2, k, y[2].0, y[2].1);
                sink(&mut re[3][k], &mut im[3][k], 3, k, y[3].0, y[3].1);
            }
        }
    }

    /// Stage `n/2` for the points of quarter `s` and those of quarter
    /// `s + 2`, `n/2` further on. Called with each `s`, not looping over
    /// it: a sink handed a variable quarter would check its bounds again.
    #[inline(always)]
    fn radix2_pass<I: Isa, const INV: bool>(
        &self,
        isa: I,
        re: &mut [f64],
        im: &mut [f64],
        s: usize,
        sink: &mut impl FnMut(&mut Plane<I>, &mut Plane<I>, usize, usize, I::V, I::V),
    ) {
        let (n, m) = (re.len(), re.len() / 4 / I::LANES);
        let tw_re = parts::<_, 2>(isa.blocks(&self.tw_re[n / 2..]), m)[s];
        let tw_im = parts::<_, 2>(isa.blocks(&self.tw_im[n / 2..]), m)[s];
        let mut re = parts_mut::<_, 4>(isa.blocks_mut(re), m);
        let mut im = parts_mut::<_, 4>(isa.blocks_mut(im), m);
        let [re_a, re_b] = re.get_disjoint_mut([s, s + 2]).expect("s is 0 or 1");
        let [im_a, im_b] = im.get_disjoint_mut([s, s + 2]).expect("s is 0 or 1");
        for k in 0..m {
            let a = (isa.load(&re_a[k]), isa.load(&im_a[k]));
            let b = (isa.load(&re_b[k]), isa.load(&im_b[k]));
            let w = (isa.load(&tw_re[k]), isa.load(&tw_im[k]));
            let (lo, hi) = butterfly2::<I, INV>(isa, a, b, w);
            sink(&mut re_a[k], &mut im_a[k], s, k, lo.0, lo.1);
            sink(&mut re_b[k], &mut im_b[k], s + 2, k, hi.0, hi.1);
        }
    }
}

/// `s` as `P` runs of `len` elements each: the one length check (it
/// panics) of every access a pass then makes with indices below `len`.
#[inline(always)]
pub(crate) fn parts<T, const P: usize>(s: &[T], len: usize) -> [&[T]; P] {
    assert_eq!(s.len(), P * len, "a plane does not match the transform");
    // Plain loops here and below: a closure handed to `array::from_fn`
    // is compiled with it, outside the caller's `target_feature` frame.
    let mut out = [s; P];
    for (p, part) in out.iter_mut().enumerate() {
        *part = &s[p * len..(p + 1) * len];
    }
    out
}

/// [`parts`], to store into.
#[inline(always)]
pub(crate) fn parts_mut<T, const P: usize>(s: &mut [T], len: usize) -> [&mut [T]; P] {
    assert_eq!(s.len(), P * len, "a plane does not match the transform");
    let mut out: [&mut [T]; P] = std::array::from_fn(|_| Default::default());
    let mut rest = s;
    for part in &mut out {
        let (head, tail) = rest.split_at_mut(len);
        (*part, rest) = (head, tail);
    }
    out
}

/// A vector's worth of a work plane.
type Plane<I> = <I as Isa>::Block<f64>;

/// The sink that keeps a transform's output in its work planes.
#[inline(always)]
#[allow(clippy::type_complexity)] // a sink's signature, spelled once more
pub(crate) fn store_back<I: Isa>(
    isa: I,
) -> impl FnMut(&mut Plane<I>, &mut Plane<I>, usize, usize, I::V, I::V) {
    #[inline(always)]
    move |re, im, _, _, vr, vi| {
        isa.store(re, vr);
        isa.store(im, vi);
    }
}

/// `acc + x · w` as the kernel accumulates (`simd::cmul_add`): four fused
/// operations, `x.re`'s products first (`Complex64`'s own operators keep
/// their unfused meaning).
pub(crate) fn mul_add_fused(acc: Complex64, x: Complex64, w: Complex64) -> Complex64 {
    let (re, im) = (x.re.mul_add(w.re, acc.re), x.re.mul_add(w.im, acc.im));
    Complex64::new((-x.im).mul_add(w.im, re), x.im.mul_add(w.re, im))
}

/// The reference butterfly: `lo = a + b·w`, then `hi = 2a − lo` — which is
/// `a − b·w` up to the rounding `lo` already carries.
fn butterfly_fused(a: Complex64, b: Complex64, w: Complex64) -> (Complex64, Complex64) {
    let lo = mul_add_fused(a, b, w);
    let hi = Complex64::new(2.0f64.mul_add(a.re, -lo.re), 2.0f64.mul_add(a.im, -lo.im));
    (lo, hi)
}

/// [`butterfly_fused`] on vectors; `INV` conjugates `w`.
#[inline(always)]
fn butterfly2<I: Isa, const INV: bool>(isa: I, a: C<I>, b: C<I>, w: C<I>) -> (C<I>, C<I>) {
    let lo = cmul_add::<I, INV>(isa, a, b, w);
    let two = isa.splat(2.0);
    (
        lo,
        (isa.mul_sub(two, a.0, lo.0), isa.mul_sub(two, a.1, lo.1)),
    )
}

/// Two consecutive stages on the points `k, k+h, k+2h, k+3h` of a
/// `4h`-block: `w = [stage-h twiddle k, stage-2h twiddle k, stage-2h
/// twiddle k+h]`. The same butterflies the reference runs, in an order
/// that keeps all four points in registers.
#[inline(always)]
fn butterfly4<I: Isa, const INV: bool>(isa: I, x: [C<I>; 4], w: [C<I>; 3]) -> [C<I>; 4] {
    let (a0, a1) = butterfly2::<I, INV>(isa, x[0], x[1], w[0]);
    let (a2, a3) = butterfly2::<I, INV>(isa, x[2], x[3], w[0]);
    let (y0, y2) = butterfly2::<I, INV>(isa, a0, a2, w[1]);
    let (y1, y3) = butterfly2::<I, INV>(isa, a1, a3, w[2]);
    [y0, y1, y2, y3]
}

#[cfg(test)]
/// `x · w` as the kernel twists (`simd::cmul`): two products, and the
/// second product of each component fused into the sum. The scalar
/// reference of every in-crate identity suite; the copies outside the
/// crate (`tests/properties.rs`, the `transform_batch` bench) are each
/// held to the kernel by an identity assertion of their own.
pub(crate) fn mul_fused(x: Complex64, w: Complex64) -> Complex64 {
    Complex64::new(
        (-x.im).mul_add(w.im, x.re * w.re),
        x.im.mul_add(w.re, x.re * w.im),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::naive_dft;
    use crate::simd::Kernel;

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((*x - *y).abs() < tol, "mismatch at {i}: {x:?} vs {y:?}");
        }
    }

    fn ramp(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|j| Complex64::new(j as f64 + 1.0, (j as f64) * 0.5 - 1.0))
            .collect()
    }

    #[test]
    fn matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 16, 64, 256] {
            let input = ramp(n);
            let mut fft_out = input.clone();
            FftPlan::new(n).forward(&mut fft_out);
            let dft_out = naive_dft(&input);
            assert_close(&fft_out, &dft_out, 1e-7 * n as f64);
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        for n in [2usize, 8, 128, 1024] {
            let input = ramp(n);
            let mut data = input.clone();
            let plan = FftPlan::new(n);
            plan.forward(&mut data);
            plan.inverse(&mut data);
            assert_close(&data, &input, 1e-8 * n as f64);
        }
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let n = 32;
        let mut data = vec![Complex64::ZERO; n];
        data[0] = Complex64::ONE;
        FftPlan::new(n).forward(&mut data);
        for v in &data {
            assert!((*v - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn linearity() {
        let n = 64;
        let plan = FftPlan::new(n);
        let a = ramp(n);
        let b: Vec<Complex64> = (0..n)
            .map(|j| Complex64::new((j * j % 17) as f64, -(j as f64)))
            .collect();
        let mut sum: Vec<Complex64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        plan.forward(&mut sum);
        let mut fa = a.clone();
        let mut fb = b.clone();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        let expect: Vec<Complex64> = fa.iter().zip(&fb).map(|(&x, &y)| x + y).collect();
        assert_close(&sum, &expect, 1e-8);
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 128;
        let input = ramp(n);
        let mut freq = input.clone();
        FftPlan::new(n).forward(&mut freq);
        let time_energy: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f64 = freq.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-6 * time_energy);
    }

    /// The kernel as a plain FFT: planar input in, planar output out,
    /// `1/n` applied by the sink on the inverse as `FftPlan::inverse` does.
    /// `P`: the parts its ends see, `n.min(4)`.
    struct Plain<'a, const INV: bool, const P: usize> {
        plan: &'a FftPlan,
        input: &'a [Complex64],
    }

    impl<const INV: bool, const P: usize> Kernel for Plain<'_, INV, P> {
        type Out = Vec<Complex64>;

        #[inline(always)]
        fn run<I: Isa>(self, isa: I) -> Vec<Complex64> {
            let n = self.plan.len();
            let m = n / P / I::LANES;
            let in_re: Vec<f64> = self.input.iter().map(|z| z.re).collect();
            let in_im: Vec<f64> = self.input.iter().map(|z| z.im).collect();
            let in_re = parts::<_, P>(isa.blocks(&in_re), m);
            let in_im = parts::<_, P>(isa.blocks(&in_im), m);
            let (mut re, mut im) = (vec![f64::NAN; n], vec![f64::NAN; n]);
            let (mut out_re, mut out_im) = (vec![f64::NAN; n], vec![f64::NAN; n]);
            {
                let mut out_re = parts_mut::<_, P>(isa.blocks_mut(&mut out_re), m);
                let mut out_im = parts_mut::<_, P>(isa.blocks_mut(&mut out_im), m);
                let scale = isa.splat(1.0 / n as f64);
                self.plan.transform::<I, INV, P>(
                    isa,
                    &mut re,
                    &mut im,
                    #[inline(always)]
                    |k| {
                        let mut x = [(isa.splat(0.0), isa.splat(0.0)); P];
                        for (t, x) in x.iter_mut().enumerate() {
                            *x = (isa.load(&in_re[t][k]), isa.load(&in_im[t][k]));
                        }
                        x
                    },
                    #[inline(always)]
                    |_, _, t, k, vr, vi| {
                        let (vr, vi) = if INV {
                            (isa.mul(vr, scale), isa.mul(vi, scale))
                        } else {
                            (vr, vi)
                        };
                        isa.store(&mut out_re[t][k], vr);
                        isa.store(&mut out_im[t][k], vi);
                    },
                );
            }
            out_re
                .into_iter()
                .zip(out_im)
                .map(|(r, i)| Complex64::new(r, i))
                .collect()
        }
    }

    fn bits(data: &[Complex64]) -> Vec<(u64, u64)> {
        data.iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    /// Random points salted with the values that expose a kernel taking a
    /// shortcut the reference does not: signed zeros (a skipped trivial
    /// twiddle multiply flips them), subnormals, magnitudes around 2^52
    /// and 2^63 where f64 spacing reaches and passes one, and neighbours
    /// of one and of 2^52, on which a product rounded before it is added
    /// and a product fused into the sum part ways.
    fn awkward_points(n: usize, seed: u64) -> Vec<Complex64> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const SALT: [f64; 13] = [
            1.0 + f64::EPSILON,
            1.0 - f64::EPSILON / 2.0,
            4_503_599_627_370_497.0,
            0.0,
            -0.0,
            5e-324,
            -2.0e-308,
            4_503_599_627_370_496.5,
            -4_503_599_627_370_497.0,
            9_223_372_036_854_775_808.0,
            -1.8e19,
            0.5,
            -1.5,
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pick = || {
            if rng.gen_range(0..4) == 0 {
                SALT[rng.gen_range(0..SALT.len())]
            } else {
                rng.gen_range(-1.0e6..1.0e6)
            }
        };
        (0..n).map(|_| Complex64::new(pick(), pick())).collect()
    }

    #[test]
    fn kernel_is_bit_identical_to_the_reference_on_every_isa() {
        for log_n in 1..=12 {
            let n = 1usize << log_n;
            let plan = &FftPlan::new(n);
            for seed in 0..4 {
                let input = &awkward_points(n, seed + 100 * log_n);
                let mut forward = input.clone();
                plan.forward(&mut forward);
                let mut inverse = input.clone();
                plan.inverse(&mut inverse);
                for (name, simd) in Simd::every(n / 4) {
                    // The ends of the two-point transform see its points.
                    let got = match n {
                        2 => simd.run(Plain::<false, 2> { plan, input }),
                        _ => simd.run(Plain::<false, 4> { plan, input }),
                    };
                    assert_eq!(bits(&got), bits(&forward), "forward n={n} {name}");
                    let got = match n {
                        2 => simd.run(Plain::<true, 2> { plan, input }),
                        _ => simd.run(Plain::<true, 4> { plan, input }),
                    };
                    assert_eq!(bits(&got), bits(&inverse), "inverse n={n} {name}");
                }
            }
        }
    }

    /// The network the reference ran before it fused: `Complex64`'s own
    /// operators, every product and sum rounded on its own.
    fn unfused_forward(plan: &FftPlan, data: &mut [Complex64]) {
        let n = plan.len();
        for i in 0..n {
            let j = bit_reverse(i, n.trailing_zeros());
            if i < j {
                data.swap(i, j);
            }
        }
        let mut half = 1usize;
        while half < n {
            for start in (0..n).step_by(2 * half) {
                for k in 0..half {
                    let w = Complex64::new(plan.tw_re[half + k], plan.tw_im[half + k]);
                    let (a, b) = (data[start + k], data[start + k + half] * w);
                    (data[start + k], data[start + k + half]) = (a + b, a - b);
                }
            }
            half *= 2;
        }
    }

    #[test]
    fn the_reference_fuses_and_the_awkward_points_show_it() {
        // One butterfly where a product rounded before the sum and a
        // product fused into it part ways: the second product of the real
        // part is 1 + 2^-53 − 2^-105, which rounds to the first (1), so the
        // unfused difference is zero and the fused one is the residual…
        let (eps, one) = (f64::EPSILON, Complex64::new(1.0, 0.0));
        let b = Complex64::new(1.0, 1.0 + eps);
        let w = Complex64::new(1.0, 1.0 - eps / 2.0);
        let (lo, _) = butterfly_fused(Complex64::ZERO, b, w);
        assert_eq!(((b * w).re, lo.re), (0.0, -eps / 2.0 + eps * eps / 2.0));
        // …one near 2^52, where the fused sum sees the half the rounded
        // product lost…
        let big = Complex64::new(4_503_599_627_370_497.0, 0.0);
        let (lo, _) = butterfly_fused(Complex64::new(0.5, 0.0), big, one.scale(1.0 + eps));
        let unfused = Complex64::new(0.5, 0.0) + big * one.scale(1.0 + eps);
        assert_eq!(
            (unfused.re, lo.re),
            (4_503_599_627_370_498.0, 4_503_599_627_370_499.0)
        );
        // …and one whose product overflows on its own and not in the sum.
        let huge = Complex64::new(1.5e154, 0.0);
        let acc = Complex64::new(-1.0e308, 0.0);
        assert_eq!((acc + huge * huge).re, f64::INFINITY);
        assert_eq!(
            mul_add_fused(acc, huge, huge).re,
            1.5e154f64.mul_add(1.5e154, -1.0e308)
        );
        assert!(mul_add_fused(acc, huge, huge).re.is_finite());
        // So the identity suite cannot be passed by a kernel that fuses
        // where the reference does not, or the reverse: on its own inputs
        // the two networks differ, at every size.
        for log_n in 2..=12 {
            let n = 1usize << log_n;
            let plan = FftPlan::new(n);
            let differing = (0..4).filter(|seed| {
                let input = awkward_points(n, seed + 100 * log_n);
                let (mut fused, mut unfused) = (input.clone(), input);
                plan.forward(&mut fused);
                unfused_forward(&plan, &mut unfused);
                bits(&fused) != bits(&unfused)
            });
            assert_eq!(differing.count(), 4, "n={n}");
        }
    }

    #[test]
    fn plans_pick_an_isa_their_size_can_fill() {
        struct Lanes;
        impl Kernel for Lanes {
            type Out = usize;
            fn run<I: Isa>(self, _: I) -> usize {
                I::LANES
            }
        }
        assert!(matches!(FftPlan::new(8).simd(), Simd::Narrow));
        assert!(!matches!(FftPlan::new(16).simd(), Simd::Narrow));
        for log_n in 1..=12 {
            let n = 1usize << log_n;
            let simd = FftPlan::new(n).simd();
            let lanes = simd.run(Lanes);
            // The first pass walks a quarter of the points a vector at a
            // time.
            assert!(lanes <= (n / 4).max(1), "n={n}: {}", simd.name());
        }
    }

    #[test]
    fn the_twiddle_rom_starts_on_a_cache_line() {
        for n in [2usize, 16, 64, 1024] {
            let plan = FftPlan::new(n);
            for rom in [&plan.tw_re, &plan.tw_im, &plan.clone().tw_re] {
                assert_eq!((rom.len(), rom.as_ptr() as usize % 64), (n, 0), "n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_size() {
        let _ = FftPlan::new(12);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn rejects_wrong_buffer() {
        let plan = FftPlan::new(8);
        let mut data = vec![Complex64::ZERO; 4];
        plan.forward(&mut data);
    }
}
