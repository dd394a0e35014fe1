//! The negacyclic transform, folded (Klemsa).
//!
//! A size-`N` real polynomial multiplied in `R[X]/(X^N + 1)` is diagonalized
//! by evaluation at the odd `2N`-th roots of unity. For one real
//! polynomial, conjugate symmetry lets an `N/2`-point complex FFT produce
//! the `N/2` independent evaluation points — "the N-point FFT calculation
//! using only one N/2-point FFT unit". The paper's other trick, the
//! merge-split FFT (two real polynomials through one `N`-point FFT,
//! §V-A.3), halves FFT-unit occupancy in hardware and is modelled there
//! (`morphling-core`'s `ArchConfig::merge_split`); in software it lost to
//! folding and was retired.
//!
//! Every entry point is the one kernel of [`crate::fft`] with a different
//! first and last pass: the fold rides on the pass that reads
//! the coefficients — the twist is in the forward network's twiddles —
//! and the untwist, `1/n` scaling and rounding on the pass that writes
//! them. The external product goes one step further on each side
//! (`forward_digit_into`, `inverse_mac_add_into`): the pass that reads
//! also decomposes, or multiply-accumulates; the pass that writes also
//! adds into the accumulator.

use morphling_math::{DecompParams, Polynomial, Torus32};

use crate::batch::{BatchScratch, PolyBatch, SpectrumBatch};
use crate::fft::{parts, parts_mut, FftPlan};
use crate::simd::{cache_line_offset, cmul, cmul_add, DigitOf, Isa, Kernel, C, SPARE};
use crate::spectrum::Spectrum;

/// Negacyclic transform engine for polynomials of one size `N`.
///
/// Evaluation at the odd `2N`-th roots of unity diagonalizes the product
/// in `R[X]/(X^N + 1)`; one real polynomial takes an `N/2`-point complex
/// FFT (folding) — see the [crate documentation](crate). All methods are
/// `&self` and allocation costs are limited to the output buffers, so one
/// engine can be shared (it is `Send + Sync`).
#[derive(Clone, Debug)]
pub struct NegacyclicFft {
    n: usize,
    /// `N/2` points over `Y^(N/2) = −i`.
    half_plan: FftPlan,
}

/// A coefficient the forward transform reads, as the `f64` it enters as.
trait Widen: Copy + 'static {
    fn widen(self) -> f64;
}

impl Widen for i64 {
    #[inline(always)]
    fn widen(self) -> f64 {
        self as f64
    }
}

/// The centered signed representative (the standard TFHE convention —
/// keeping magnitudes ≤ q/2 preserves f64 precision).
impl Widen for Torus32 {
    #[inline(always)]
    fn widen(self) -> f64 {
        self.to_signed() as f64
    }
}

/// The real coefficients the forward transform reads, a vector at a
/// time: `widen` returns the coefficients of one block as `f64`.
trait Coefficients {
    type Elem: 'static;
    fn elems(&self) -> &[Self::Elem];
    fn widen<I: Isa>(&self, isa: I, block: &I::Block<Self::Elem>) -> I::V;
}

impl<E: Widen> Coefficients for [E] {
    type Elem = E;
    #[inline(always)]
    fn elems(&self) -> &[E] {
        self
    }
    #[inline(always)]
    fn widen<I: Isa>(&self, isa: I, block: &I::Block<E>) -> I::V {
        isa.widen(block, E::widen)
    }
}

/// One gadget-decomposition level of a torus polynomial: the digit
/// polynomial, computed as it is read.
struct Digits<'a> {
    coeffs: &'a [Torus32],
    digit: DigitOf,
}

impl Coefficients for Digits<'_> {
    type Elem = Torus32;
    #[inline(always)]
    fn elems(&self) -> &[Torus32] {
        self.coeffs
    }
    #[inline(always)]
    fn widen<I: Isa>(&self, isa: I, block: &I::Block<Torus32>) -> I::V {
        isa.widen(
            block,
            #[inline(always)]
            |x| f64::from(self.digit.of(x)),
        )
    }
}

/// The spectrum points the inverse transform reads, in stored order, as
/// the source of its first pass (see `FftPlan::run_inverse`).
trait Points: Copy {
    fn source<I: Isa>(self, isa: I) -> impl Fn(usize, usize, &mut [C<I>]);
}

/// The vectors `at`, `at + stride`, … of `plane`, `count` of them: one
/// length check for what a source then loads with `i·stride`, `i < count`.
#[inline(always)]
fn strided<T>(plane: &[T], at: usize, stride: usize, count: usize) -> &[T] {
    &plane[at..at + (count - 1) * stride + 1]
}

impl Points for &Spectrum {
    #[inline(always)]
    fn source<I: Isa>(self, isa: I) -> impl Fn(usize, usize, &mut [C<I>]) {
        let (re, im) = (isa.blocks(self.re()), isa.blocks(self.im()));
        #[inline(always)]
        move |at, stride, out| {
            let re = strided(re, at, stride, out.len());
            let im = strided(im, at, stride, out.len());
            for (i, x) in out.iter_mut().enumerate() {
                *x = (isa.load(&re[i * stride]), isa.load(&im[i * stride]));
            }
        }
    }
}

/// `0 + Σ_r digits[r] · rows[r][column]`, pointwise: what
/// [`Spectrum::set_zero`] followed by one [`Spectrum::mul_acc`] per row,
/// in row order, leaves in the accumulator — computed as it is read.
#[derive(Clone, Copy)]
struct Mac<'a> {
    digits: &'a [Spectrum],
    rows: &'a [Vec<Spectrum>],
    column: usize,
}

impl Points for Mac<'_> {
    /// Row outer, vector inner: what it costs to find a row's planes —
    /// there is nowhere to keep them cut between calls — is paid once
    /// per band.
    #[inline(always)]
    fn source<I: Isa>(self, isa: I) -> impl Fn(usize, usize, &mut [C<I>]) {
        #[inline(always)]
        move |at, stride, out| {
            out.fill((isa.splat(0.0), isa.splat(0.0)));
            for (digit, row) in self.digits.iter().zip(self.rows) {
                let (d, b) = (digit, &row[self.column]);
                let cut = |plane| strided(isa.blocks(plane), at, stride, out.len());
                let (d, b) = ([cut(d.re()), cut(d.im())], [cut(b.re()), cut(b.im())]);
                for (i, acc) in out.iter_mut().enumerate() {
                    let x = (isa.load(&d[0][i * stride]), isa.load(&d[1][i * stride]));
                    let w = (isa.load(&b[0][i * stride]), isa.load(&b[1][i * stride]));
                    *acc = cmul_add::<I, false>(isa, *acc, x, w);
                }
            }
        }
    }
}

/// A coefficient type the inverse transform writes; with `ADD` it adds
/// into what is there instead of overwriting it.
trait Output: Copy + 'static {
    fn put<I: Isa, const ADD: bool>(isa: I, dst: &mut I::Block<Self>, v: I::V);
}

/// Rounded to the nearest integer and wrapped into the 32-bit torus
/// (where addition wraps too).
impl Output for Torus32 {
    #[inline(always)]
    fn put<I: Isa, const ADD: bool>(isa: I, dst: &mut I::Block<Torus32>, v: I::V) {
        isa.round_wrap_put::<ADD>(dst, v);
    }
}

/// Two work planes of `n` points each inside `scratch`, starting on a
/// cache line; `scratch` grows to the largest request seen (and the 7
/// elements that leaves room for) and stays there. Contents are
/// unspecified: the kernel's first pass overwrites every point.
fn work_planes(scratch: &mut Vec<f64>, n: usize) -> (&mut [f64], &mut [f64]) {
    if scratch.len() < 2 * n + SPARE {
        scratch.resize(2 * n + SPARE, 0.0);
    }
    let start = cache_line_offset(scratch);
    scratch[start..start + 2 * n].split_at_mut(n)
}

impl NegacyclicFft {
    /// Create an engine for size-`n` polynomials.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or `n < 4`.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 4,
            "polynomial size must be a power of two ≥ 4, got {n}"
        );
        Self {
            n,
            half_plan: FftPlan::new(n / 2),
        }
    }

    /// Polynomial size `N`.
    #[inline]
    pub fn poly_len(&self) -> usize {
        self.n
    }

    /// The vector ISA CPU detection gave this size's kernel — `"one-lane"`,
    /// `"portable"`, `"avx2"` or `"avx512"` — for a measurement to name
    /// what it ran on. Results do not depend on it and nothing sets it.
    pub fn isa(&self) -> &'static str {
        self.half_plan.simd().name()
    }

    /// Forward transform of an integer (digit) polynomial.
    pub fn forward_int(&self, p: &Polynomial<i64>) -> Spectrum {
        let mut out = Spectrum::zero(self.n);
        self.forward_int_into(p, &mut out);
        out
    }

    /// [`forward_int`](Self::forward_int) into a caller-owned spectrum —
    /// allocation-free: the digits are widened to `f64` on the fly by the
    /// kernel's first pass, and the rest runs in place in `out`.
    ///
    /// # Panics
    ///
    /// Panics if `p.len() != N` or the output spectrum size differs.
    pub fn forward_int_into(&self, p: &Polynomial<i64>, out: &mut Spectrum) {
        self.forward_folded(p.coeffs(), p.len(), out);
    }

    /// Forward transform of a torus polynomial, using the centered signed
    /// representative of each coefficient.
    pub fn forward_torus(&self, p: &Polynomial<Torus32>) -> Spectrum {
        let mut out = Spectrum::zero(self.n);
        self.forward_folded(p.coeffs(), p.len(), &mut out);
        out
    }

    /// Forward transform of level `level` (most significant first) of the
    /// gadget decomposition of `p`: the kernel's first pass slices each
    /// digit out of the torus word as it reads it, so the digit polynomial
    /// is never stored. Bit-identical to
    /// `SignedDecomposer::decompose_poly_into` followed by
    /// [`forward_int_into`](Self::forward_int_into) on that level.
    ///
    /// # Panics
    ///
    /// Panics if `p.len() != N`, the output spectrum size differs,
    /// `decomp` keeps more than 32 bits or `level >= decomp.level()`.
    pub fn forward_digit_into(
        &self,
        p: &Polynomial<Torus32>,
        decomp: DecompParams,
        level: usize,
        out: &mut Spectrum,
    ) {
        let digits = Digits {
            coeffs: p.coeffs(),
            digit: DigitOf::new(decomp, level),
        };
        self.forward_folded(&digits, p.len(), out);
    }

    fn forward_folded(
        &self,
        coeffs: &(impl Coefficients + ?Sized),
        len: usize,
        out: &mut Spectrum,
    ) {
        assert_eq!(len, self.n, "polynomial size must equal the engine size");
        assert_eq!(out.poly_len(), self.n, "output spectrum size mismatch");
        // The transform's ends see its quarters, or its two points at N = 4.
        let (simd, fft) = (self.half_plan.simd(), self);
        match self.n {
            4 => simd.run(ForwardFolded::<_, 2> { fft, coeffs, out }),
            _ => simd.run(ForwardFolded::<_, 4> { fft, coeffs, out }),
        }
    }

    /// Inverse transform, rounding each coefficient to the nearest integer
    /// and wrapping into the 32-bit torus.
    pub fn inverse_torus(&self, spectrum: &Spectrum) -> Polynomial<Torus32> {
        let mut out = Polynomial::zero(self.n);
        self.inverse_torus_into(spectrum, &mut out, &mut Vec::new());
        out
    }

    /// [`inverse_torus`](Self::inverse_torus) into a caller-owned
    /// polynomial. `scratch` is the kernel's work area (the software Coef
    /// buffer): it grows to `N + 7` values on first use (two planes that
    /// start on a cache line) and is reused across calls without
    /// reallocating.
    ///
    /// # Panics
    ///
    /// Panics if the spectrum or output polynomial size differs from the
    /// engine size.
    pub fn inverse_torus_into(
        &self,
        spectrum: &Spectrum,
        out: &mut Polynomial<Torus32>,
        scratch: &mut Vec<f64>,
    ) {
        assert_eq!(spectrum.poly_len(), self.n, "spectrum size mismatch");
        self.inverse_folded::<false>(spectrum, out, scratch);
    }

    /// `acc += round(IFFT(Σ_r digits[r] · rows[r][column]))`, one output
    /// component of an external product: the multiply-accumulate is the
    /// kernel's first pass, the rounding and the torus addition its last,
    /// so neither the summed spectrum nor the product polynomial is ever
    /// stored. Bit-identical to [`Spectrum::set_zero`], one
    /// [`Spectrum::mul_acc`]`(&digits[r], &rows[r][column])` per row in
    /// order, [`inverse_torus_into`](Self::inverse_torus_into) (whose
    /// `scratch` this takes) and a coefficient-wise addition into `acc`.
    ///
    /// # Panics
    ///
    /// Panics if `digits` and `rows` differ in length, a row has no
    /// `column`, or any spectrum or `acc` differs from the engine size.
    pub fn inverse_mac_add_into(
        &self,
        digits: &[Spectrum],
        rows: &[Vec<Spectrum>],
        column: usize,
        acc: &mut Polynomial<Torus32>,
        scratch: &mut Vec<f64>,
    ) {
        assert_eq!(digits.len(), rows.len(), "one digit spectrum per row");
        for (digit, row) in digits.iter().zip(rows) {
            let size = (digit.poly_len(), row[column].poly_len());
            assert_eq!(size, (self.n, self.n), "row spectrum size mismatch");
        }
        let mac = Mac {
            digits,
            rows,
            column,
        };
        self.inverse_folded::<true>(mac, acc, scratch);
    }

    /// `ADD`: add into `out`.
    fn inverse_folded<const ADD: bool>(
        &self,
        spectrum: impl Points,
        out: &mut Polynomial<Torus32>,
        scratch: &mut Vec<f64>,
    ) {
        assert_eq!(out.len(), self.n, "output polynomial size mismatch");
        let out = out.coeffs_mut();
        let (simd, fft) = (self.half_plan.simd(), self);
        match self.n {
            4 => simd.run(InverseFolded::<_, _, ADD, 2> {
                fft,
                spectrum,
                out,
                scratch,
            }),
            _ => simd.run(InverseFolded::<_, _, ADD, 4> {
                fft,
                spectrum,
                out,
                scratch,
            }),
        }
    }

    /// [`forward_int_into`](Self::forward_int_into) for every polynomial
    /// of a batch.
    ///
    /// # Panics
    ///
    /// Panics if the batch size or the output shape disagree with the
    /// engine.
    pub fn forward_int_batch_into(&self, batch: &PolyBatch<i64>, out: &mut SpectrumBatch) {
        assert_eq!(
            out.lanes(),
            batch.lanes(),
            "output batch lane count mismatch"
        );
        for (p, s) in batch.polys().iter().zip(out.spectra_mut()) {
            self.forward_int_into(p, s);
        }
    }

    /// [`inverse_torus_into`](Self::inverse_torus_into) for every spectrum
    /// of a batch.
    ///
    /// # Panics
    ///
    /// Panics if the spectrum batch or the output shape disagree with the
    /// engine.
    pub fn inverse_torus_batch_into(
        &self,
        spec: &SpectrumBatch,
        out: &mut PolyBatch<Torus32>,
        scratch: &mut BatchScratch,
    ) {
        assert_eq!(
            out.lanes(),
            spec.lanes(),
            "output batch lane count mismatch"
        );
        for (s, p) in spec.spectra().iter().zip(out.polys_mut()) {
            self.inverse_torus_into(s, p, scratch.planes());
        }
    }
}

/// Folded forward: point `j < N/2` enters as `c_j − i·c_(j+N/2)`, the
/// residue of the polynomial modulo `Y^(N/2) + i`.
/// `P`: the parts the transform's first pass sees (`FftPlan::run_forward`).
struct ForwardFolded<'a, C: ?Sized, const P: usize> {
    fft: &'a NegacyclicFft,
    coeffs: &'a C,
    out: &'a mut Spectrum,
}

impl<C: Coefficients + ?Sized, const P: usize> Kernel for ForwardFolded<'_, C, P> {
    type Out = ();

    #[inline(always)]
    fn run<I: Isa>(self, isa: I) {
        let Self { fft, coeffs, out } = self;
        let (re, im) = out.planes_mut();
        let (half, m) = (re.len(), re.len() / P / I::LANES);
        let (lo, hi) = coeffs.elems().split_at(half);
        let lo = parts::<_, P>(isa.blocks(lo), m);
        let hi = parts::<_, P>(isa.blocks(hi), m);
        fft.half_plan.run_forward::<I, P>(
            isa,
            re,
            im,
            #[inline(always)]
            |k| {
                let mut x = [(isa.splat(0.0), isa.splat(0.0)); P];
                for t in 0..P {
                    x[t] = (
                        coeffs.widen(isa, &lo[t][k]),
                        isa.neg(coeffs.widen(isa, &hi[t][k])),
                    );
                }
                x
            },
        );
    }
}

/// Folded inverse: output point `j < N/2`, scaled by `2/N` and untwisted
/// by `ζ^(-j)`, carries coefficient `j` in its real part and `j + N/2` in
/// its negated imaginary part.
struct InverseFolded<'a, S, T, const ADD: bool, const P: usize> {
    fft: &'a NegacyclicFft,
    spectrum: S,
    out: &'a mut [T],
    scratch: &'a mut Vec<f64>,
}

impl<S: Points, T: Output, const ADD: bool, const P: usize> Kernel
    for InverseFolded<'_, S, T, ADD, P>
{
    type Out = ();

    #[inline(always)]
    fn run<I: Isa>(self, isa: I) {
        let Self { fft, spectrum, .. } = self;
        let half = fft.n / 2;
        let (out_lo, out_hi) = self.out.split_at_mut(half);
        let (re, im) = work_planes(self.scratch, half);
        let m = re.len() / P / I::LANES;
        let (untwist_re, untwist_im) = fft.half_plan.untwist_planes();
        let untwist_re = parts::<_, P>(isa.blocks(untwist_re), m);
        let untwist_im = parts::<_, P>(isa.blocks(untwist_im), m);
        let mut out_lo = parts_mut::<_, P>(isa.blocks_mut(out_lo), m);
        let mut out_hi = parts_mut::<_, P>(isa.blocks_mut(out_hi), m);
        let scale = isa.splat(1.0 / half as f64);
        fft.half_plan.run_inverse::<I, P>(
            isa,
            re,
            im,
            spectrum.source(isa),
            #[inline(always)]
            |_, _, t, k, vr, vi| {
                // The reference scales first (`FftPlan::inverse`), then
                // untwists.
                let untwist = (isa.load(&untwist_re[t][k]), isa.load(&untwist_im[t][k]));
                let u = cmul(isa, (isa.mul(vr, scale), isa.mul(vi, scale)), untwist);
                T::put::<I, ADD>(isa, &mut out_lo[t][k], u.0);
                T::put::<I, ADD>(isa, &mut out_hi[t][k], isa.neg(u.1));
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::naive_negacyclic_eval;
    use crate::fft::{point_at, slot};
    use crate::simd::{round_wrap_u32, Simd};
    use morphling_math::negacyclic::mul_int_torus32;
    use morphling_math::Complex64;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_spec_close(a: &Spectrum, b: &Spectrum, tol: f64) {
        for m in 0..a.points() {
            let (x, y) = (a.point(m), b.point(m));
            assert!((x - y).abs() < tol, "point {m}: {x:?} vs {y:?}");
        }
    }

    /// Unrounded `f64` coefficients in and out: the kernel with nothing
    /// folded into its ends, for the identity tests and the precision
    /// probes.
    impl Widen for f64 {
        #[inline(always)]
        fn widen(self) -> f64 {
            self
        }
    }

    impl Output for f64 {
        #[inline(always)]
        fn put<I: Isa, const ADD: bool>(isa: I, dst: &mut I::Block<f64>, v: I::V) {
            const { assert!(!ADD, "unrounded coefficients are written, never added to") };
            isa.store(dst, v);
        }
    }

    /// The folded forward of real coefficients on the detected ISA.
    fn forward_real(fft: &NegacyclicFft, coeffs: &[f64]) -> Spectrum {
        let mut out = Spectrum::zero(fft.n);
        forward_on(fft.half_plan.simd(), fft, coeffs, &mut out);
        out
    }

    /// The folded inverse, unrounded, on the detected ISA.
    fn inverse_real(fft: &NegacyclicFft, spectrum: &Spectrum) -> Vec<f64> {
        let mut out = vec![0.0; fft.n];
        let simd = fft.half_plan.simd();
        inverse_on::<_, _, false>(simd, fft, spectrum, &mut out[..], &mut Vec::new());
        out
    }

    /// `digits · t` through the transform domain: forward both, multiply
    /// pointwise, invert.
    fn product(
        fft: &NegacyclicFft,
        digits: &Polynomial<i64>,
        t: &Polynomial<Torus32>,
    ) -> Polynomial<Torus32> {
        fft.inverse_torus(&fft.forward_int(digits).pointwise_mul(&fft.forward_torus(t)))
    }

    #[test]
    fn forward_matches_naive_evaluation() {
        let n = 32;
        let fft = NegacyclicFft::new(n);
        let coeffs: Vec<f64> = (0..n).map(|j| ((j * 7 + 3) % 23) as f64 - 11.0).collect();
        let spec = forward_real(&fft, &coeffs);
        let oracle = Spectrum::from_values(naive_negacyclic_eval(&coeffs));
        assert_spec_close(&spec, &oracle, 1e-8);
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let n = 64;
        let fft = NegacyclicFft::new(n);
        let coeffs: Vec<f64> = (0..n).map(|j| (j as f64) * 3.5 - 100.0).collect();
        let back = inverse_real(&fft, &forward_real(&fft, &coeffs));
        for (a, b) in coeffs.iter().zip(&back) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn into_variants_overwrite_dirty_buffers() {
        let n = 64;
        let fft = NegacyclicFft::new(n);
        let mut rng = StdRng::seed_from_u64(15);
        let p = Polynomial::from_fn(n, |_| rng.gen_range(-64i64..64));
        let q = Polynomial::from_fn(n, |_| rng.gen_range(-64i64..64));
        let t = Polynomial::from_fn(n, |_| Torus32::from_raw(rng.gen()));
        // One dirty scratch through every call.
        let mut scratch = vec![f64::NAN; 3];

        let mut spec = fft.forward_int(&q);
        fft.forward_int_into(&p, &mut spec);
        assert_eq!(spec, fft.forward_int(&p));

        let mut out = t.clone();
        for s in [&spec, &fft.forward_torus(&t)] {
            fft.inverse_torus_into(s, &mut out, &mut scratch);
            assert_eq!(out, fft.inverse_torus(s));
        }
    }

    #[test]
    fn tables_and_work_planes_start_on_a_cache_line() {
        // Every plane a pass loads from or stores to starts on a line —
        // a vector as wide as a line then touches one — and so any two of
        // them are a whole number of lines apart. That second half is the
        // 4 KiB alias trap, pinned: a load whose address matches an
        // earlier store's in its low twelve bits waits for that store
        // until the full addresses are compared, and two planes walked in
        // step that sit 4096·k + 16 bytes apart put every next-iteration
        // load of one just behind the last store to the other (a
        // prototype of this kernel lost a third of its middle passes to
        // two `Vec`s placed so). Whole lines apart, a vector of one plane
        // aliases at worst the *same* vector of another: the one whose
        // store its own iteration has already waited for.
        let lines_apart = |planes: &[&[f64]], what: &str| {
            for plane in planes {
                let from_first = (plane.as_ptr() as usize).abs_diff(planes[0].as_ptr() as usize);
                assert!(
                    (plane.as_ptr() as usize).is_multiple_of(64) && from_first.is_multiple_of(64),
                    "{what}"
                );
            }
        };
        let mut kept = Vec::new();
        for (i, n) in [16usize, 256, 2048, 128, 4096].into_iter().enumerate() {
            let fft = NegacyclicFft::new(n);
            let odd_sized = vec![0u8; 8 + 24 * i];
            let spectrum = forward_real(&fft, &vec![1.0; n]);
            let copy = fft.clone();
            for plan in [&fft.half_plan, &copy.half_plan] {
                let mut planes = vec![spectrum.re(), spectrum.im()];
                planes.extend(plan.tables());
                assert_eq!(planes.len(), 10);
                lines_apart(&planes, &format!("n={n}"));
            }
            kept.push((odd_sized, spectrum));
        }
        // One scratch through growing, shrinking and regrowing requests,
        // from whatever the allocator hands out after odd-sized
        // allocations.
        for i in 0..16usize {
            let mut scratch = vec![f64::NAN; i];
            for n in [8usize, 1024, 16, 2048] {
                let (re, im) = work_planes(&mut scratch, n);
                lines_apart(&[re, im], &format!("n={n} #{i}"));
                assert_eq!((re.len(), im.len()), (n, n));
            }
            // The largest request and the spare 7, no more.
            assert_eq!(scratch.len(), 2 * 2048 + 7);
            kept.push((vec![0u8; 8 + 24 * i], Spectrum::zero(2)));
        }
    }

    #[test]
    fn transform_product_matches_exact_oracle() {
        let n = 256;
        let fft = NegacyclicFft::new(n);
        let mut rng = StdRng::seed_from_u64(13);
        // Realistic external-product operands: small signed digits times a
        // full-range torus polynomial.
        let digits = Polynomial::from_fn(n, |_| rng.gen_range(-32i64..32));
        let t = Polynomial::from_fn(n, |_| Torus32::from_raw(rng.gen()));
        assert_eq!(product(&fft, &digits, &t), mul_int_torus32(&digits, &t));
    }

    #[test]
    fn spectral_accumulation_matches_sum_of_products() {
        // Accumulate 12 products in the transform domain (what POLY-ACC-REG
        // does for (k+1)·l_b = 12) and compare one IFFT against the exact sum.
        let n = 128;
        let fft = NegacyclicFft::new(n);
        let mut rng = StdRng::seed_from_u64(14);
        let mut acc_spec = Spectrum::zero(n);
        let mut acc_exact = Polynomial::<Torus32>::zero(n);
        for _ in 0..12 {
            let digits = Polynomial::from_fn(n, |_| rng.gen_range(-16i64..16));
            let t = Polynomial::from_fn(n, |_| Torus32::from_raw(rng.gen()));
            acc_spec.mul_acc(&fft.forward_int(&digits), &fft.forward_torus(&t));
            acc_exact += &mul_int_torus32(&digits, &t);
        }
        assert_eq!(fft.inverse_torus(&acc_spec), acc_exact);
    }

    #[test]
    fn works_at_all_paper_sizes() {
        for n in [512usize, 1024, 2048, 4096] {
            let fft = NegacyclicFft::new(n);
            let mut rng = StdRng::seed_from_u64(n as u64);
            let digits = Polynomial::from_fn(n, |_| rng.gen_range(-8i64..8));
            let t = Polynomial::from_fn(n, |_| Torus32::from_raw(rng.gen()));
            assert_eq!(
                product(&fft, &digits, &t),
                mul_int_torus32(&digits, &t),
                "n={n}"
            );
        }
    }

    #[test]
    fn the_smallest_engine_takes_every_entry_point() {
        // N = 4: the folded paths run a two-point transform, whose ends
        // see two parts instead of four quarters.
        use morphling_math::SignedDecomposer;
        let n = 4;
        let fft = NegacyclicFft::new(n);
        assert_eq!(fft.isa(), "one-lane");
        let mut rng = StdRng::seed_from_u64(4);
        let decomp = DecompParams::new(8, 3);
        for _ in 0..32 {
            let digits = Polynomial::from_fn(n, |_| rng.gen_range(-128i64..128));
            let more = Polynomial::from_fn(n, |_| rng.gen_range(-128i64..128));
            let t = Polynomial::from_fn(n, |_| Torus32::from_raw(rng.gen()));
            let exact = mul_int_torus32(&digits, &t);
            assert_eq!(product(&fft, &digits, &t), exact);

            let as_f64: Vec<f64> = digits.iter().map(|&c| c as f64).collect();
            assert_eq!(forward_real(&fft, &as_f64), fft.forward_int(&digits));
            let back = inverse_real(&fft, &fft.forward_int(&digits));
            let as_torus = digits.map(|&c| Torus32::from_raw(c as u32));
            assert_eq!(round_all(&back), as_torus.coeffs());

            // The digit-slicing forward pass against decompose-then-transform.
            let mut levels = vec![Polynomial::<i64>::zero(n); 3];
            SignedDecomposer::<Torus32>::new(decomp).decompose_poly_into(&t, &mut levels);
            let mut sliced = Spectrum::zero(n);
            for (level, want) in levels.iter().enumerate() {
                fft.forward_digit_into(&t, decomp, level, &mut sliced);
                assert_eq!(sliced, fft.forward_int(want), "level {level}");
            }

            // The MAC-sourced inverse against its staged composition.
            let specs = [fft.forward_int(&digits), fft.forward_int(&more)];
            let rows = vec![vec![fft.forward_torus(&t)], vec![fft.forward_torus(&exact)]];
            let (mut fused, mut staged) = (vec![t.clone()], vec![t.clone()]);
            fft.inverse_mac_add_into(&specs, &rows, 0, &mut fused[0], &mut Vec::new());
            staged_mac_add(&fft, &specs, &rows, &mut staged);
            assert_eq!(fused, staged);
        }
    }

    #[test]
    fn batch_entry_points_run_the_kernel_per_lane() {
        let n = 64;
        let fft = NegacyclicFft::new(n);
        let mut rng = StdRng::seed_from_u64(77);
        let mut scratch = BatchScratch::new();
        for lanes in [1usize, 3, 8] {
            let digits: Vec<Polynomial<i64>> = (0..lanes)
                .map(|_| Polynomial::from_fn(n, |_| rng.gen_range(-64i64..64)))
                .collect();
            let mut fwd = SpectrumBatch::zero(n, lanes);
            fft.forward_int_batch_into(&PolyBatch::from_polys(&digits), &mut fwd);
            let mut inv = PolyBatch::<Torus32>::zero(n, lanes);
            fft.inverse_torus_batch_into(&fwd, &mut inv, &mut scratch);
            for (lane, d) in digits.iter().enumerate() {
                assert_eq!(fwd.spectra()[lane], fft.forward_int(d), "lane {lane}");
                assert_eq!(
                    inv.polys()[lane],
                    fft.inverse_torus(&fwd.spectra()[lane]),
                    "lane {lane}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "must equal the engine size")]
    fn batch_size_mismatch_is_rejected() {
        let fft = NegacyclicFft::new(64);
        let batch = PolyBatch::<i64>::zero(32, 2);
        fft.forward_int_batch_into(&batch, &mut SpectrumBatch::zero(64, 2));
    }

    #[test]
    fn negacyclic_wraparound_sign() {
        // X^(N-1) · X = X^N = -1.
        let n = 16;
        let fft = NegacyclicFft::new(n);
        let mut a = Polynomial::<i64>::zero(n);
        a[n - 1] = 1;
        let mut b = Polynomial::<Torus32>::zero(n);
        b[1] = Torus32::from_raw(1 << 16);
        let prod = product(&fft, &a, &b);
        assert_eq!(prod[0], Torus32::from_raw(0u32.wrapping_sub(1 << 16)));
        for j in 1..n {
            assert_eq!(prod[j], Torus32::ZERO, "j={j}");
        }
    }

    // --- Kernel identity: every entry point, on every ISA this CPU can
    // run, against the scalar schedule it replaced (AoS `Complex64`
    // arithmetic around `FftPlan::{forward, inverse}`), bit for bit. ---

    /// The folded forward kernel on `simd`, as `forward_folded` runs it on
    /// the detected ISA: the ends of the `N = 4` transform see two parts.
    fn forward_on<C: Coefficients + ?Sized>(
        simd: Simd,
        fft: &NegacyclicFft,
        coeffs: &C,
        out: &mut Spectrum,
    ) {
        match fft.n {
            4 => simd.run(ForwardFolded::<_, 2> { fft, coeffs, out }),
            _ => simd.run(ForwardFolded::<_, 4> { fft, coeffs, out }),
        }
    }

    /// The folded inverse kernel on `simd`, as `inverse_folded` runs it.
    fn inverse_on<S: Points, T: Output, const ADD: bool>(
        simd: Simd,
        fft: &NegacyclicFft,
        spectrum: S,
        out: &mut [T],
        scratch: &mut Vec<f64>,
    ) {
        match fft.n {
            4 => simd.run(InverseFolded::<_, _, ADD, 2> {
                fft,
                spectrum,
                out,
                scratch,
            }),
            _ => simd.run(InverseFolded::<_, _, ADD, 4> {
                fft,
                spectrum,
                out,
                scratch,
            }),
        }
    }

    /// A spectrum holding `values` as they are, in stored order.
    fn stored(values: &[Complex64]) -> Spectrum {
        let mut spec = Spectrum::zero(2 * values.len());
        let (re, im) = spec.planes_mut();
        for (i, v) in values.iter().enumerate() {
            (re[i], im[i]) = (v.re, v.im);
        }
        spec
    }

    /// The values a spectrum holds, in stored order.
    fn as_stored(spec: &Spectrum) -> Vec<Complex64> {
        let points = spec.re().iter().zip(spec.im());
        points.map(|(&re, &im)| Complex64::new(re, im)).collect()
    }

    fn reference_forward(fft: &NegacyclicFft, c: &[f64]) -> Spectrum {
        let half = fft.n / 2;
        let mut vals: Vec<Complex64> = (0..half)
            .map(|j| Complex64::new(c[j], -c[j + half]))
            .collect();
        fft.half_plan.forward(&mut vals);
        stored(&vals)
    }

    /// Unrounded coefficients of the folded inverse.
    fn reference_inverse(fft: &NegacyclicFft, spec: &Spectrum) -> Vec<f64> {
        let half = fft.n / 2;
        let mut buf = as_stored(spec);
        fft.half_plan.inverse(&mut buf);
        let mut out = vec![0.0; fft.n];
        for j in 0..half {
            out[j] = buf[j].re;
            out[j + half] = -buf[j].im;
        }
        out
    }

    fn spectrum_bits(s: &Spectrum) -> Vec<u64> {
        s.re().iter().chain(s.im()).map(|x| x.to_bits()).collect()
    }

    fn round_all(v: &[f64]) -> Vec<Torus32> {
        v.iter()
            .map(|&x| Torus32::from_raw(round_wrap_u32(x)))
            .collect()
    }

    const SIZES: [usize; 11] = [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

    /// Spectra whose inverse must round awkwardly. A constant real
    /// spectrum `c` inverts to exactly `c` at coefficient 0 (every
    /// butterfly on that path multiplies by the unit twiddle and adds
    /// equal halves), a constant imaginary one to exactly `−c` at
    /// coefficient N/2 — so `c = k + ½` puts an exact tie of either sign
    /// in front of the rounding step, where `f64::round` (half away from
    /// zero) and the hardware rounding instruction (half to even)
    /// disagree. The rest: signed zeros, subnormals, magnitudes around
    /// 2^51–2^53 where the fast conversion's range ends, and — release
    /// builds only, since `round_wrap_u32` debug-asserts the documented
    /// bound — at and beyond 2^63, where it must take the exact-residue
    /// path.
    fn awkward_spectra(n: usize, rng: &mut StdRng) -> Vec<Spectrum> {
        let constant =
            |re: f64, im: f64| Spectrum::from_values(vec![Complex64::new(re, im); n / 2]);
        let mut out = vec![
            constant(0.5, -0.5),
            constant(-0.5, 0.5),
            constant(1.5, 2.5),
            constant(-2.5, -1.5),
            constant(4_194_304.5, -8_388_607.5),
            constant(0.499_999_999_999_999_94, -0.499_999_999_999_999_94),
            constant(0.0, -0.0),
            constant(5e-324, -2.0e-308),
            constant(2_251_799_813_685_247.5, -2_251_799_813_685_248.0),
            constant(4_503_599_627_370_496.0, 9_007_199_254_740_992.0),
        ];
        if !cfg!(debug_assertions) {
            out.push(constant(9_223_372_036_854_775_808.0 + 10_240.0, -1.8e19));
            out.push(constant(-3.0e25, 7.0e30));
        }
        let scales = [1.0, 1.0e6, 4.0e15];
        for scale in scales {
            out.push(Spectrum::from_values(
                (0..n / 2)
                    .map(|_| {
                        Complex64::new(
                            rng.gen_range(-1.0..1.0) * scale,
                            rng.gen_range(-1.0..1.0) * scale,
                        )
                    })
                    .collect(),
            ));
        }
        out
    }

    #[test]
    fn the_stored_order_is_a_function_of_n_alone_on_every_isa() {
        let mut rng = StdRng::seed_from_u64(64);
        for n in SIZES {
            let fft = NegacyclicFft::new(n);
            let half = n / 2;
            let root = |m: usize| {
                Complex64::from_polar_unit(-std::f64::consts::PI * (4 * m + 1) as f64 / n as f64)
            };
            // X evaluates to the sample points themselves.
            let mut x = vec![0.0; n];
            x[1] = 1.0;
            let digits = Polynomial::from_fn(n, |_| rng.gen_range(-128i64..128));
            let t = Polynomial::from_fn(n, |_| Torus32::from_raw(rng.gen()));
            let exact = mul_int_torus32(&digits, &t);
            let mut stored = Vec::new();
            for (name, simd) in fft.half_plan.every_simd() {
                let mut spec = Spectrum::zero(n);
                forward_on(simd, &fft, &x[..], &mut spec);
                let mut found = vec![false; half];
                for (at, v) in as_stored(&spec).into_iter().enumerate() {
                    // ζ^(4m+1) is (4m+1)/2N of a turn clockwise.
                    let turns = (-v.im).atan2(v.re).rem_euclid(std::f64::consts::TAU)
                        / std::f64::consts::TAU;
                    let m = ((turns * 2.0 * n as f64 - 1.0) / 4.0).round() as usize % half;
                    assert!((v - root(m)).abs() < 1e-12, "n={n} {name} slot {at}: {v:?}");
                    assert!(
                        !std::mem::replace(&mut found[m], true),
                        "n={n} {name} m={m}"
                    );
                    assert_eq!((slot(half, m), point_at(half, at)), (at, m), "n={n} {name}");
                    assert_eq!(spec.point(m), v, "n={n} {name} m={m}");
                }
                stored.push(spectrum_bits(&spec));

                let (mut a, mut b) = (Spectrum::zero(n), Spectrum::zero(n));
                forward_on(simd, &fft, digits.coeffs(), &mut a);
                forward_on(simd, &fft, t.coeffs(), &mut b);
                let mut product = vec![Torus32::HALF; n];
                let spectrum = &a.pointwise_mul(&b);
                inverse_on::<_, _, false>(simd, &fft, spectrum, &mut product[..], &mut Vec::new());
                assert_eq!(product, exact.coeffs(), "n={n} {name}");
            }
            assert!(stored.windows(2).all(|w| w[0] == w[1]), "n={n}");
            assert_eq!(stored.len() > 1, half >= 64, "n={n}");
        }
    }

    #[test]
    fn forward_kernels_are_bit_identical_to_the_scalar_schedule() {
        let mut rng = StdRng::seed_from_u64(2024);
        for n in SIZES {
            let fft = NegacyclicFft::new(n);
            let ints = Polynomial::from_fn(n, |j| match j % 7 {
                0 => 0,
                1 => i64::MAX,
                2 => i64::MIN,
                _ => rng.gen_range(-(1i64 << 40)..(1i64 << 40)),
            });
            let torus = Polynomial::from_fn(n, |_| Torus32::from_raw(rng.gen()));
            let reals: Vec<f64> = (0..n)
                .map(|j| match j % 8 {
                    0 => -0.0,
                    1 => 5e-324,
                    2 => 9_223_372_036_854_775_808.0,
                    3 => -2.0e-308,
                    4 => 4_503_599_627_370_496.5,
                    5 => -9.3e18,
                    _ => rng.gen_range(-1.0e9..1.0e9),
                })
                .collect();
            let as_f64 = |p: &Polynomial<i64>| p.iter().map(|&c| c as f64).collect::<Vec<_>>();
            let torus_f64: Vec<f64> = torus.iter().map(|c| c.to_signed() as f64).collect();

            for (name, simd) in fft.half_plan.every_simd() {
                let run = |coeffs: &dyn Fn(&mut Spectrum)| {
                    let mut out = Spectrum::from_values(vec![Complex64::new(f64::NAN, 1.0); n / 2]);
                    coeffs(&mut out);
                    spectrum_bits(&out)
                };
                let got = run(&|out| forward_on(simd, &fft, ints.coeffs(), out));
                assert_eq!(
                    got,
                    spectrum_bits(&reference_forward(&fft, &as_f64(&ints))),
                    "int n={n} {name}"
                );
                let got = run(&|out| forward_on(simd, &fft, torus.coeffs(), out));
                assert_eq!(
                    got,
                    spectrum_bits(&reference_forward(&fft, &torus_f64)),
                    "torus n={n} {name}"
                );
                let got = run(&|out| forward_on(simd, &fft, &reals[..], out));
                assert_eq!(
                    got,
                    spectrum_bits(&reference_forward(&fft, &reals)),
                    "real n={n} {name}"
                );
            }
        }
    }

    #[test]
    fn inverse_kernels_are_bit_identical_to_the_scalar_schedule() {
        let mut rng = StdRng::seed_from_u64(4202);
        for n in SIZES {
            let fft = NegacyclicFft::new(n);
            let spectra = awkward_spectra(n, &mut rng);
            for (i, spec) in spectra.iter().enumerate() {
                let want_real = reference_inverse(&fft, spec);
                let want_torus = round_all(&want_real);
                for (name, simd) in fft.half_plan.every_simd() {
                    let mut real = vec![f64::NAN; n];
                    inverse_on::<_, _, false>(simd, &fft, spec, &mut real[..], &mut Vec::new());
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&real), bits(&want_real), "real #{i} n={n} {name}");
                    let mut torus = vec![Torus32::HALF; n];
                    inverse_on::<_, _, false>(simd, &fft, spec, &mut torus[..], &mut Vec::new());
                    assert_eq!(torus, want_torus, "torus #{i} n={n} {name}");
                }
            }
        }
    }

    #[test]
    fn constant_spectra_put_exact_ties_before_the_rounding_step() {
        // The premise of `awkward_spectra`, checked: otherwise the tie
        // cases above would silently test nothing.
        let fft = NegacyclicFft::new(64);
        let spec = Spectrum::from_values(vec![Complex64::new(2.5, -0.5); 32]);
        let real = inverse_real(&fft, &spec);
        assert_eq!((real[0], real[32]), (2.5, 0.5));
        let torus = fft.inverse_torus(&spec);
        assert_eq!((torus[0].into_raw(), torus[32].into_raw()), (3, 1));
        let spec = Spectrum::from_values(vec![Complex64::new(-2.5, 0.5); 32]);
        let torus = fft.inverse_torus(&spec);
        assert_eq!(
            (torus[0].into_raw(), torus[32].into_raw()),
            (0u32.wrapping_sub(3), 0u32.wrapping_sub(1))
        );
    }

    #[test]
    fn every_isa_rounds_like_round_wrap_u32() {
        // The rounding step alone, on values no transform output is
        // needed to reach: ties, the last value below one half, the edges
        // of the fast conversion's range, the saturating-cast hazard, and
        // non-finite values.
        let mut values = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.499_999_999_999_999_94,
            -0.499_999_999_999_999_94,
            0.500_000_000_000_000_1,
            34_359_738_375.0,
            -34_359_738_375.0,
            -1.25,
            2_251_799_813_685_247.5,
            2_251_799_813_685_248.0,
            -2_251_799_813_685_248.5,
            4_503_599_627_370_495.5,
            4_503_599_627_370_497.0,
            -9_007_199_254_740_993.0,
            9.2e18,
            -9.2e18,
            5e-324,
        ];
        if !cfg!(debug_assertions) {
            values.extend([
                9_223_372_036_854_775_808.0 + 10_240.0,
                -(9_223_372_036_854_775_808.0 + 10_240.0),
                1.0e30,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
            ]);
        }
        while values.len() % 8 != 0 {
            values.push(7.5);
        }
        struct RoundAll<'a, const ADD: bool>(&'a [f64]);
        impl<const ADD: bool> Kernel for RoundAll<'_, ADD> {
            type Out = Vec<Torus32>;
            #[inline(always)]
            fn run<I: Isa>(self, isa: I) -> Vec<Torus32> {
                let mut out = vec![Torus32::HALF; self.0.len()];
                for (out, v) in isa.blocks_mut(&mut out).iter_mut().zip(isa.blocks(self.0)) {
                    isa.round_wrap_put::<ADD>(out, isa.load(v));
                }
                out
            }
        }
        // Rotate so that every value visits every lane, and so that
        // in-range and out-of-range values share a vector.
        for shift in 0..8 {
            values.rotate_left(shift);
            let want = round_all(&values);
            let want_added: Vec<Torus32> = want.iter().map(|&r| Torus32::HALF + r).collect();
            for (name, simd) in Simd::every(8) {
                let put = simd.run(RoundAll::<false>(&values));
                assert_eq!(put, want, "{name} shift {shift}");
                let added = simd.run(RoundAll::<true>(&values));
                assert_eq!(added, want_added, "add {name} shift {shift}");
            }
        }
    }

    // --- The fused external-product pipeline against the staged
    // composition of the public stage functions it replaces. ---

    /// `acc[u] += round(IFFT(Σ_r digits[r]·rows[r][u]))` the staged way:
    /// clear, one `mul_acc` per row, inverse, add.
    fn staged_mac_add(
        fft: &NegacyclicFft,
        digits: &[Spectrum],
        rows: &[Vec<Spectrum>],
        acc: &mut [Polynomial<Torus32>],
    ) {
        let mut sum = Spectrum::from_values(vec![Complex64::new(f64::NAN, 1.0); fft.n / 2]);
        let mut product = Polynomial::zero(fft.n);
        for (u, acc_u) in acc.iter_mut().enumerate() {
            sum.set_zero();
            for (digit, row) in digits.iter().zip(rows) {
                sum.mul_acc(digit, &row[u]);
            }
            fft.inverse_torus_into(&sum, &mut product, &mut Vec::new());
            *acc_u += &product;
        }
    }

    fn fused_mac_add(
        fft: &NegacyclicFft,
        simd: Simd,
        digits: &[Spectrum],
        rows: &[Vec<Spectrum>],
        acc: &mut [Polynomial<Torus32>],
    ) {
        // One dirty scratch through every call.
        let mut scratch = vec![f64::NAN; 3];
        for (column, acc_u) in acc.iter_mut().enumerate() {
            let mac = Mac {
                digits,
                rows,
                column,
            };
            inverse_on::<_, _, true>(simd, fft, mac, acc_u.coeffs_mut(), &mut scratch);
        }
    }

    #[test]
    fn fused_external_product_is_bit_identical_to_the_staged_composition() {
        use morphling_math::SignedDecomposer;
        let mut rng = StdRng::seed_from_u64(1606);
        let random_poly =
            |n: usize, rng: &mut StdRng| Polynomial::from_fn(n, |_| Torus32::from_raw(rng.gen()));
        // (k, l_b, log2 β): the paper's shapes, two full-width gadgets
        // (b·l = 32: nothing is dropped) and a one-level one.
        let shapes = [
            (1usize, 1usize, 16u32),
            (1, 2, 16),
            (1, 3, 8),
            (2, 2, 8),
            (2, 3, 7),
            (3, 3, 10),
        ];
        for n in [256usize, 512, 1024, 2048, 4096] {
            let fft = NegacyclicFft::new(n);
            for (k, l, b) in shapes {
                let decomp = DecompParams::new(b, l);
                let decomposer = SignedDecomposer::<Torus32>::new(decomp);
                let rows: Vec<Vec<Spectrum>> = (0..(k + 1) * l)
                    .map(|_| {
                        (0..=k)
                            .map(|_| fft.forward_torus(&random_poly(n, &mut rng)))
                            .collect()
                    })
                    .collect();
                let start: Vec<_> = (0..=k).map(|_| random_poly(n, &mut rng)).collect();
                let rotations = [1, n - 1, n, 2 * n - 1, rng.gen_range(1..2 * n)];

                // The chain the staged way, keeping every step's digit
                // spectra and accumulator.
                let mut acc = start.clone();
                let mut digit_polys = vec![Polynomial::<i64>::zero(n); l];
                let mut steps = Vec::new();
                for a_tilde in rotations {
                    let mut digits = Vec::new();
                    for comp in &acc {
                        let lambda = comp.monomial_mul_minus_one(a_tilde as i64);
                        decomposer.decompose_poly_into(&lambda, &mut digit_polys);
                        digits.extend(digit_polys.iter().map(|d| fft.forward_int(d)));
                    }
                    staged_mac_add(&fft, &digits, &rows, &mut acc);
                    steps.push((digits, acc.clone()));
                }

                for (name, simd) in fft.half_plan.every_simd() {
                    let mut acc = start.clone();
                    let mut digits = vec![Spectrum::zero(n); (k + 1) * l];
                    for (a_tilde, (want_digits, want_acc)) in rotations.iter().zip(&steps) {
                        for (comp, specs) in acc.iter().zip(digits.chunks_mut(l)) {
                            let lambda = comp.monomial_mul_minus_one(*a_tilde as i64);
                            for (level, out) in specs.iter_mut().enumerate() {
                                let digits = Digits {
                                    coeffs: lambda.coeffs(),
                                    digit: DigitOf::new(decomp, level),
                                };
                                forward_on(simd, &fft, &digits, out);
                            }
                        }
                        let at = format!("n={n} k={k} l={l} b={b} ã={a_tilde} {name}");
                        for (got, want) in digits.iter().zip(want_digits) {
                            assert_eq!(spectrum_bits(got), spectrum_bits(want), "forward {at}");
                        }
                        fused_mac_add(&fft, simd, &digits, &rows, &mut acc);
                        assert_eq!(&acc, want_acc, "accumulator {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn fused_mac_inverse_matches_staged_on_awkward_spectra() {
        // The spectra that stress the rounding step, fed through the MAC:
        // times one (each tie, signed zero and out-of-range magnitude
        // reaches the rounding step as the plain inverse sees it), times
        // minus one and i, and summed over several rows.
        let mut rng = StdRng::seed_from_u64(6061);
        for n in [256usize, 1024, 4096] {
            let fft = NegacyclicFft::new(n);
            let awkward = awkward_spectra(n, &mut rng);
            let constant =
                |re: f64, im: f64| vec![Spectrum::from_values(vec![Complex64::new(re, im); n / 2])];
            let start: Vec<_> = (0..1)
                .map(|_| Polynomial::from_fn(n, |_| Torus32::from_raw(rng.gen())))
                .collect();
            for (i, spec) in awkward.iter().enumerate() {
                let cases: [(Vec<Spectrum>, Vec<Vec<Spectrum>>); 4] = [
                    (vec![spec.clone()], vec![constant(1.0, 0.0)]),
                    (vec![spec.clone()], vec![constant(-1.0, -0.0)]),
                    (vec![spec.clone()], vec![constant(0.0, 1.0)]),
                    (
                        vec![spec.clone(), awkward[(i + 1) % awkward.len()].clone()],
                        vec![constant(1.0, 0.0), constant(0.0, -0.0)],
                    ),
                ];
                for (c, (digits, rows)) in cases.iter().enumerate() {
                    let mut want = start.clone();
                    staged_mac_add(&fft, digits, rows, &mut want);
                    for (name, simd) in fft.half_plan.every_simd() {
                        let mut got = start.clone();
                        fused_mac_add(&fft, simd, digits, rows, &mut got);
                        assert_eq!(got, want, "#{i} case {c} n={n} {name}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_isa_slices_digits_like_the_scalar_decomposer() {
        use morphling_math::SignedDecomposer;
        struct DigitsOf<'a>(&'a [Torus32], DigitOf);
        impl Kernel for DigitsOf<'_> {
            type Out = Vec<u64>;
            #[inline(always)]
            fn run<I: Isa>(self, isa: I) -> Vec<u64> {
                let mut out = vec![f64::NAN; self.0.len()];
                let digits = Digits {
                    coeffs: self.0,
                    digit: self.1,
                };
                for (out, x) in isa.blocks_mut(&mut out).iter_mut().zip(isa.blocks(self.0)) {
                    isa.store(out, digits.widen(isa, x));
                }
                out.into_iter().map(f64::to_bits).collect()
            }
        }
        let mut rng = StdRng::seed_from_u64(3232);
        for b in 1..=32u32 {
            for l in 1..=(32 / b) as usize {
                let decomp = DecompParams::new(b, l);
                let decomposer = SignedDecomposer::<Torus32>::new(decomp);
                let kept = b * l as u32;
                let half_beta = 1u32 << (b - 1);
                // β/2 − 1 and β/2 in every kept field: the longest carry
                // chain stops, or runs, through all of them.
                let below =
                    (0..l as u32).fold(0u32, |x, j| x | ((half_beta - 1) << (32 - kept + b * j)));
                let at = (0..l as u32).fold(0u32, |x, j| x | (half_beta << (32 - kept + b * j)));
                let mut raws = vec![
                    0,
                    1,
                    1 << 31,
                    (1 << 31) - 1,
                    u32::MAX,
                    below,
                    at,
                    0x7F7F_7F7F,
                    0x8080_8080,
                ];
                if kept < 32 {
                    // Either side of the rounding boundary of what is
                    // dropped, alone and on top of a pending carry chain.
                    let half = 1u32 << (31 - kept);
                    raws.extend([
                        half - 1,
                        half,
                        below | (half - 1),
                        below | half,
                        u32::MAX - half,
                    ]);
                }
                raws.extend((0..16).map(|_| rng.gen::<u32>()));
                while raws.len() % 8 != 0 {
                    raws.push(rng.gen());
                }
                // Rotate so that every value visits every lane.
                for shift in 0..8 {
                    raws.rotate_left(shift);
                    let xs: Vec<Torus32> = raws.iter().map(|&r| Torus32::from_raw(r)).collect();
                    let mut digits = vec![0i64; l];
                    for level in 0..l {
                        let want: Vec<u64> = xs
                            .iter()
                            .map(|&x| {
                                decomposer.decompose_scalar_into(x, &mut digits);
                                (digits[level] as f64).to_bits()
                            })
                            .collect();
                        for (name, simd) in Simd::every(8) {
                            assert_eq!(
                                simd.run(DigitsOf(&xs, DigitOf::new(decomp, level))),
                                want,
                                "b={b} l={l} level={level} {name}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// How far from an integer the transform leaves a coefficient before
    /// it is rounded — the whole f64 error of an external product, since
    /// everything after the rounding is integer arithmetic: one
    /// `mul_acc` accumulation of `rows` (digit polynomial in ±β/2) ·
    /// (full-range torus polynomial) products, inverted unrounded, against
    /// the exact negacyclic sum. Half a unit would flip a ciphertext bit.
    #[test]
    fn pre_rounding_error_leaves_margin_at_every_functional_set() {
        // (set, N, rows = (k+1)·l_b, β/2, functional) of the paper's sets.
        let shapes = [
            ("I", 1024usize, 4usize, 1i64 << 7, true),
            ("II", 1024, 6, 1 << 6, true),
            ("III", 2048, 6, 1 << 7, true),
            ("B", 1024, 6, 1 << 7, true),
            ("C", 512, 12, 1 << 6, true),
            ("IV", 2048, 2, 1 << 15, false),
            ("A", 4096, 2, 1 << 15, false),
        ];
        let mut rng = StdRng::seed_from_u64(2022);
        for (set, n, rows, half_beta, functional) in shapes {
            let fft = NegacyclicFft::new(n);
            let (mut max, mut sum_sq) = (0.0f64, 0.0f64);
            let trials = 4;
            for _ in 0..trials {
                let mut acc = Spectrum::zero(n);
                let mut exact = vec![0i128; n];
                for _ in 0..rows {
                    let d = Polynomial::from_fn(n, |_| rng.gen_range(-half_beta..=half_beta));
                    let t = Polynomial::from_fn(n, |_| Torus32::from_raw(rng.gen()));
                    acc.mul_acc(&fft.forward_int(&d), &fft.forward_torus(&t));
                    for (i, &di) in d.iter().enumerate() {
                        for (j, tj) in t.iter().enumerate() {
                            let term = i128::from(di) * i128::from(tj.to_signed());
                            if i + j < n {
                                exact[i + j] += term;
                            } else {
                                exact[i + j - n] -= term;
                            }
                        }
                    }
                }
                for (got, want) in inverse_real(&fft, &acc).iter().zip(&exact) {
                    // Integer part apart: `want` may pass 2^53.
                    let err = (got.trunc() as i128 - want) as f64 + got.fract();
                    max = max.max(err.abs());
                    sum_sq += err * err;
                }
            }
            let rms = (sum_sq / (trials * n) as f64).sqrt();
            println!(
                "pre-rounding error, set {set} (N={n}, {rows} rows, β/2={half_beta}): \
                 max {max:.4} rms {rms:.5}{}",
                if functional {
                    ""
                } else {
                    " (not functional on this torus: printed only)"
                }
            );
            assert!(!functional || max < 0.125, "set {set}: max |err| = {max}");
        }
    }

    /// The inverse of a torus polynomial's forward transform gives the
    /// polynomial back, bit for bit, at every size and on every ISA —
    /// what lets a key held as spectra only derive its coefficients. The
    /// worst distance from the integer before rounding is printed beside
    /// the external product's.
    #[test]
    fn pre_rounding_inverse_of_forward_torus_is_exact() {
        let mut rng = StdRng::seed_from_u64(4096);
        for n in SIZES {
            let fft = NegacyclicFft::new(n);
            let extremes = [0x7FFF_FFFF, 0x8000_0000];
            let polys = [
                (
                    "uniform",
                    Polynomial::from_fn(n, |_| Torus32::from_raw(rng.gen())),
                ),
                ("all 0x8000_0000", Polynomial::from_fn(n, |_| Torus32::HALF)),
                // ±2^31 as the centred representative reaches it.
                (
                    "alternating ±2^31",
                    Polynomial::from_fn(n, |j| Torus32::from_raw(extremes[j % 2])),
                ),
            ];
            let mut worst = 0.0f64;
            for (name, simd) in fft.half_plan.every_simd() {
                for (kind, p) in &polys {
                    let mut spec = Spectrum::zero(n);
                    forward_on(simd, &fft, p.coeffs(), &mut spec);
                    let mut real = vec![0.0; n];
                    inverse_on::<_, _, false>(simd, &fft, &spec, &mut real[..], &mut Vec::new());
                    for (got, want) in real.iter().zip(p.iter()) {
                        worst = worst.max((got - f64::from(want.to_signed())).abs());
                    }
                    let mut back = vec![Torus32::ZERO; n];
                    inverse_on::<_, _, false>(simd, &fft, &spec, &mut back[..], &mut Vec::new());
                    assert_eq!(back, p.coeffs(), "n={n} {name} {kind}");
                }
            }
            println!("pre-rounding error, torus round trip (N={n}): max {worst:.2e}");
            assert!(worst < 0.125, "n={n}: max |err| = {worst}");
        }
    }

    #[test]
    fn round_wrap_is_exact_for_large_in_range_values() {
        // 2^35 + 7 ≡ 7 (mod 2^32): the fast path must wrap, not clamp.
        assert_eq!(round_wrap_u32(34_359_738_375.0), 7);
        assert_eq!(round_wrap_u32(-34_359_738_375.0), 0u32.wrapping_sub(7));
        assert_eq!(round_wrap_u32(-1.25), 0xFFFF_FFFF);
    }

    // 2^63 + 5·2^11 is exactly representable (the f64 ULP at 2^63 is 2^11)
    // and ≡ 10240 (mod 2^32). The old saturating cast returned 0xFFFF_FFFF.
    const OUT_OF_RANGE: f64 = 9_223_372_036_854_775_808.0 + 10_240.0;

    #[cfg(not(debug_assertions))]
    #[test]
    fn round_wrap_regression_out_of_range_wraps_exactly() {
        assert_eq!(round_wrap_u32(OUT_OF_RANGE), 10_240);
        assert_eq!(round_wrap_u32(-OUT_OF_RANGE), 0u32.wrapping_sub(10_240));
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn round_wrap_out_of_range_is_the_euclidean_residue() {
        // What the bits say against what `%` on integer-valued f64 says
        // (exact, but a libm call): every exponent from 2^63 up, both
        // signs, mantissas with low, high and scattered bits.
        const TWO_32: f64 = 4_294_967_296.0;
        let mut rng = StdRng::seed_from_u64(63);
        for exponent in 63..=1023u64 {
            let mut mantissas = vec![0, 1, 5 << 9, (1 << 52) - 1, 1 << 51, 0xFFFF_FFFF];
            mantissas.extend((0..8).map(|_| rng.gen::<u64>() >> 12));
            for mantissa in mantissas {
                let x = f64::from_bits(((exponent + 1023) << 52) | mantissa);
                for v in [x, -x] {
                    assert_eq!(round_wrap_u32(v), v.rem_euclid(TWO_32) as u32, "{v:e}");
                }
            }
        }
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(round_wrap_u32(v), 0, "{v}");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "magnitude bound")]
    fn round_wrap_regression_out_of_range_asserts_in_debug() {
        let _ = round_wrap_u32(OUT_OF_RANGE);
    }
}
