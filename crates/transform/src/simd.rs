//! The vector ISA under the transform kernel.
//!
//! The kernel in [`crate::fft`] and the spectrum MAC are written once,
//! generically over [`Isa`]: a fixed-width vector of `f64` lanes laid
//! along the *coefficient axis* of one planar polynomial. Three
//! implementations exist; [`Simd::detect`] picks the widest one the CPU
//! has (`is_x86_feature_detected!`) and the run length can fill, when a
//! plan is built:
//!
//! - [`Portable<L>`]: plain `[f64; L]` arithmetic (`L = 4` normally,
//!   `L = 1` for transforms too short to fill a vector);
//! - [`avx2::Avx2`]: four lanes of `std::arch` AVX2;
//! - [`avx512::Avx512`]: eight lanes of `std::arch` AVX-512 (F + DQ),
//!   loaded from planes that start on a cache line ([`Aligned`]).
//!
//! **Results never depend on the ISA.** Every operation here is a
//! correctly rounded IEEE-754 `mul`, negate or fused multiply-add
//! per lane (`f64::mul_add` on the portable path, `vfmadd` and its kin in
//! the frames: one rounding either way) — no reassociation, and a product
//! fused with a sum exactly where the scalar reference fuses it — so each
//! lane replays the reference's operation sequence bit for bit, and the
//! one inexact-looking step, rounding to the torus, reproduces
//! [`round_wrap_u32`] exactly (see [`Isa::round_wrap_put`]).
//!
//! **Memory is checked once per pass**: a kernel cuts each plane into
//! whole vectors ([`Isa::blocks`]) and loads and stores a [`Isa::Block`]
//! at a time, so the inner loops carry no bounds checks.
//!
//! `unsafe` is confined to the [`avx2`] and [`avx512`] submodules.

use morphling_math::{sampling, DecompParams, Torus32, TorusScalar};

/// One level of the signed gadget decomposition of a [`Torus32`], as the
/// carry-free closed form of `SignedDecomposer::decompose_poly_into`:
/// adding `β/2` at every kept level (and half of what is dropped) before
/// slicing makes each balanced digit an independent
/// add-shift-mask-subtract of the 32-bit word. Wrapping `u32` arithmetic
/// suffices: the sliced field always lies below bit 32.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DigitOf {
    bias: u32,
    shift: u32,
    mask: u32,
    half_beta: u32,
}

impl DigitOf {
    /// Digit `level` (most significant first) of `decomp`.
    ///
    /// # Panics
    ///
    /// Panics if `decomp` keeps more than 32 bits or has no such level.
    pub(crate) fn new(decomp: DecompParams, level: usize) -> Self {
        let (b, l) = (decomp.base_log(), decomp.level());
        assert!(
            decomp.total_bits() <= 32 && level < l,
            "decomposition level {level} of {decomp:?} does not fit a 32-bit torus"
        );
        // β/2 at the bottom of every kept level (bit 31 − b·i, i < l), and
        // the rounding half just below the lowest one (i = l, if any).
        let bias = (0..=l as u32)
            .filter_map(|i| 31u32.checked_sub(b * i))
            .fold(0u32, |acc, bit| acc | (1 << bit));
        Self {
            bias,
            shift: 32 - b * (level as u32 + 1),
            mask: u32::MAX >> (32 - b),
            half_beta: 1 << (b - 1),
        }
    }

    #[inline(always)]
    pub(crate) fn of(self, x: Torus32) -> i32 {
        let field = (x.into_raw().wrapping_add(self.bias) >> self.shift) & self.mask;
        field.wrapping_sub(self.half_beta) as i32
    }
}

/// What a plane is over-allocated by, in elements, so that it can start on
/// a 64-byte boundary wherever the allocator put it.
pub(crate) const SPARE: usize = 64 / size_of::<f64>() - 1;

/// How many elements into `buf` the first cache line starts. Where
/// vectors are as wide as a line, every load from an unaligned plane
/// straddles two of them; results do not depend on the answer.
pub(crate) fn cache_line_offset(buf: &[f64]) -> usize {
    // `align_offset` may decline to answer (`usize::MAX`).
    buf.as_ptr().align_offset(64).min(SPARE)
}

/// A plane of `f64` (or several, back to back) that starts on a cache
/// line: every buffer the kernels load vectors from. Collected from its
/// values, which are `buf[start..]`; a clone is aligned afresh.
#[derive(Default)]
pub(crate) struct Aligned {
    buf: Vec<f64>,
    start: usize,
}

impl FromIterator<f64> for Aligned {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        // The spare room in front, then the values move down to the line.
        let mut buf: Vec<f64> = std::iter::repeat_n(0.0, SPARE).chain(iter).collect();
        let start = cache_line_offset(&buf);
        buf.copy_within(SPARE.., start);
        buf.truncate(buf.len() - (SPARE - start));
        Self { buf, start }
    }
}

impl std::ops::Deref for Aligned {
    type Target = [f64];
    #[inline(always)]
    fn deref(&self) -> &[f64] {
        &self.buf[self.start..]
    }
}

impl std::ops::DerefMut for Aligned {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.buf[self.start..]
    }
}

impl Clone for Aligned {
    fn clone(&self) -> Self {
        self.iter().copied().collect()
    }
}

impl PartialEq for Aligned {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Aligned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// `s` as the `L`-element vectors it holds; panics if there is a rest.
#[inline(always)]
fn as_blocks<T, const L: usize>(s: &[T]) -> &[[T; L]] {
    let (blocks, rest) = s.as_chunks();
    assert!(rest.is_empty(), "a plane must be whole vectors");
    blocks
}

#[inline(always)]
fn as_blocks_mut<T, const L: usize>(s: &mut [T]) -> &mut [[T; L]] {
    let (blocks, rest) = s.as_chunks_mut();
    assert!(rest.is_empty(), "a plane must be whole vectors");
    blocks
}

/// A vector of [`Isa::LANES`] consecutive `f64` elements and the exact
/// lane-wise operations the kernels need.
pub(crate) trait Isa: Copy {
    /// The vector register type.
    type V: Copy;
    /// Where a vector lives in memory: `[T; LANES]`.
    type Block<T: 'static>: AsRef<[T]> + 'static;
    /// Elements per vector.
    const LANES: usize;

    /// Eight vectors holding `LANES` rows of eight columns, row by row
    /// (a row is `8 / LANES` vectors), become the eight columns, a vector
    /// each; `BACK`: the columns become the rows again.
    fn transpose<const BACK: bool>(self, band: [C<Self>; 8]) -> [C<Self>; 8];
    /// `s` as the vectors it holds, back to back: the one length check of
    /// everything a pass then loads from it. Panics if `LANES` does not
    /// divide its length.
    fn blocks<T: 'static>(self, s: &[T]) -> &[Self::Block<T>];
    fn blocks_mut<T: 'static>(self, s: &mut [T]) -> &mut [Self::Block<T>];
    fn splat(self, x: f64) -> Self::V;
    /// Lane `i` is `f(i)`.
    fn lanes(self, f: impl FnMut(usize) -> f64) -> Self::V;
    /// Lane `i` is `f(src[i])` — how integer and torus coefficients are
    /// widened.
    #[inline(always)]
    fn widen<T: Copy + 'static>(self, src: &Self::Block<T>, f: impl Fn(T) -> f64) -> Self::V {
        let src = src.as_ref();
        self.lanes(
            #[inline(always)]
            |i| f(src[i]),
        )
    }
    fn load(self, src: &Self::Block<f64>) -> Self::V;
    fn store(self, dst: &mut Self::Block<f64>, v: Self::V);
    fn mul(self, a: Self::V, b: Self::V) -> Self::V;
    fn neg(self, a: Self::V) -> Self::V;
    /// `a·b + c`, rounded once.
    fn mul_add(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// `a·b − c`, rounded once (a sign flip is exact).
    #[inline(always)]
    fn mul_sub(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V {
        self.mul_add(a, b, self.neg(c))
    }
    /// `c − a·b`, rounded once.
    #[inline(always)]
    fn neg_mul_add(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V {
        self.mul_add(self.neg(a), b, c)
    }
    /// `dst[i] = round_wrap_u32(v[i])`, exactly — or, with `ADD`,
    /// `dst[i] += round_wrap_u32(v[i])` on the torus (wrapping).
    fn round_wrap_put<const ADD: bool>(self, dst: &mut Self::Block<Torus32>, v: Self::V);
}

/// A complex vector, split: `(re, im)`.
pub(crate) type C<I> = (<I as Isa>::V, <I as Isa>::V);

/// Complex product `a · b` on split re/im vectors: two multiplies, and
/// the second product of each component fused into the sum.
#[inline(always)]
pub(crate) fn cmul<I: Isa>(isa: I, a: C<I>, b: C<I>) -> C<I> {
    (
        isa.neg_mul_add(a.1, b.1, isa.mul(a.0, b.0)),
        isa.mul_add(a.1, b.0, isa.mul(a.0, b.1)),
    )
}

/// `acc + x · w` in four fused operations, `x.re`'s products first — the
/// multiply-accumulate, and the half of a butterfly that adds. `CONJ`
/// conjugates `w` by the choice of operation, not by negating it.
#[inline(always)]
pub(crate) fn cmul_add<I: Isa, const CONJ: bool>(isa: I, acc: C<I>, x: C<I>, w: C<I>) -> C<I> {
    let re = isa.mul_add(x.0, w.0, acc.0);
    if CONJ {
        let im = isa.neg_mul_add(x.0, w.1, acc.1);
        (isa.mul_add(x.1, w.1, re), isa.mul_add(x.1, w.0, im))
    } else {
        let im = isa.mul_add(x.0, w.1, acc.1);
        (isa.neg_mul_add(x.1, w.1, re), isa.mul_add(x.1, w.0, im))
    }
}

/// A computation written once over [`Isa`] and run on whichever
/// implementation [`Simd`] selected.
pub(crate) trait Kernel {
    type Out;
    /// Implementations are `#[inline(always)]` so that the AVX2 and
    /// AVX-512 instantiations are compiled inside the `target_feature`
    /// frames of [`avx2::Avx2::run`] and [`avx512::Avx512::run`].
    fn run<I: Isa>(self, isa: I) -> Self::Out;
}

/// The ISA a plan runs on, chosen once from CPU detection.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Simd {
    /// One lane: for runs shorter than a vector.
    Narrow,
    Portable,
    /// Eight portable lanes: the control flow of the widest ISA, for the
    /// identity tests of a host without it.
    #[cfg(test)]
    Portable8,
    #[cfg(target_arch = "x86_64")]
    Avx2(avx2::Avx2),
    #[cfg(target_arch = "x86_64")]
    Avx512(avx512::Avx512),
}

impl Simd {
    /// The widest available ISA whose vectors tile runs of `width`
    /// elements (`width` is a power of two).
    pub(crate) fn detect(width: usize) -> Self {
        if width < 4 {
            return Self::Narrow;
        }
        #[cfg(target_arch = "x86_64")]
        if let Some(isa) = avx512::Avx512::detect().filter(|_| width >= 8) {
            return Self::Avx512(isa);
        }
        #[cfg(target_arch = "x86_64")]
        if let Some(isa) = avx2::Avx2::detect() {
            return Self::Avx2(isa);
        }
        Self::Portable
    }

    /// What a measurement names the ISA it ran on by.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Self::Narrow => "one-lane",
            Self::Portable => "portable",
            #[cfg(test)]
            Self::Portable8 => "portable8",
            #[cfg(target_arch = "x86_64")]
            Self::Avx2(_) => "avx2",
            #[cfg(target_arch = "x86_64")]
            Self::Avx512(_) => "avx512",
        }
    }

    /// Every ISA this CPU can run on runs of `width` elements, named: what
    /// the identity tests iterate instead of trusting detection.
    #[cfg(test)]
    pub(crate) fn every(width: usize) -> Vec<(&'static str, Self)> {
        let mut all = vec![Self::Narrow];
        if width >= 4 {
            all.push(Self::Portable);
            #[cfg(target_arch = "x86_64")]
            all.extend(avx2::Avx2::detect().map(Self::Avx2));
        }
        if width >= 8 {
            all.push(Self::Portable8);
            #[cfg(target_arch = "x86_64")]
            all.extend(avx512::Avx512::detect().map(Self::Avx512));
        }
        all.into_iter().map(|simd| (simd.name(), simd)).collect()
    }

    #[inline]
    pub(crate) fn run<K: Kernel>(self, k: K) -> K::Out {
        match self {
            Self::Narrow => k.run(Portable::<1>),
            Self::Portable => k.run(Portable::<4>),
            #[cfg(test)]
            Self::Portable8 => k.run(Portable::<8>),
            #[cfg(target_arch = "x86_64")]
            Self::Avx2(isa) => isa.run(k),
            #[cfg(target_arch = "x86_64")]
            Self::Avx512(isa) => isa.run(k),
        }
    }
}

/// The key switch's inner loop, `out ← out − d·row` on the 32-bit torus: for
/// each row of `rows` and each accumulator of `outs` (`width` words each,
/// back to back), with `d` from `digits`, row-major; other shapes panic.
pub fn sub_scaled_rows(outs: &mut [Torus32], digits: &[i32], rows: &[Torus32], width: usize) {
    assert_eq!(outs.len() / width * (rows.len() / width), digits.len());
    Simd::detect(width).run(SubScaledRows(outs, digits, rows, width));
}

/// [`sub_scaled_rows`] as a kernel: plain wrapping loops — exact on any ISA,
/// in any row order — which the compiler vectorizes at its frame's width.
struct SubScaledRows<'a>(&'a mut [Torus32], &'a [i32], &'a [Torus32], usize);

impl Kernel for SubScaledRows<'_> {
    type Out = ();
    #[inline(always)]
    fn run<I: Isa>(self, _isa: I) {
        let Self(outs, digits, rows, width) = self;
        let of_rows = digits.chunks_exact(outs.len() / width);
        for (row, ds) in rows.chunks_exact(width).zip(of_rows) {
            for (out, &d) in outs.chunks_exact_mut(width).zip(ds) {
                for (o, k) in out.iter_mut().zip(row) {
                    *o -= k.scalar_mul(i64::from(d));
                }
            }
        }
    }
}

/// Gaussian torus noise, `morphling_math::sampling`'s lane code
/// (`gaussian_torus_from_uniforms`) run in the widest frame this CPU has.
pub fn gaussian_torus_fill(out: &mut [Torus32], std: f64, uniforms: &[[f64; 2]]) {
    Simd::detect(out.len()).run(GaussianFill(out, std, uniforms));
}

struct GaussianFill<'a>(&'a mut [Torus32], f64, &'a [[f64; 2]]);

impl Kernel for GaussianFill<'_> {
    type Out = ();
    #[inline(always)]
    fn run<I: Isa>(self, _isa: I) {
        sampling::gaussian_torus_from_uniforms(self.0, self.1, self.2);
    }
}

/// Round an f64 to the nearest integer (half away from zero) and wrap
/// into `u32` (mod 2³²).
///
/// Magnitudes stay ≪ 2^63 for all supported parameter sets, so the fast
/// cast through `i64` is exact and wrapping to `u32` reduces mod q. Rust
/// float→int casts *saturate* rather than wrap, so a value at or beyond
/// 2^63 must not take that path — it would silently collapse to
/// `0xFFFF_FFFF` instead of its mod-2³² residue. Out-of-range values trip
/// the `debug_assert` in debug builds and are reduced exactly, from their
/// bits, in release builds — without a call, so that the vector kernels,
/// which fall back to this function a lane at a time, keep their
/// registers across the branch that never happens.
#[inline(always)]
pub(crate) fn round_wrap_u32(v: f64) -> u32 {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    let r = v.round();
    debug_assert!(
        r.abs() < TWO_63,
        "round_wrap_u32: |{r}| is outside the documented 2^63 magnitude bound"
    );
    if r.abs() < TWO_63 {
        r as i64 as u32
    } else {
        // |r| = m·2^e with a 53-bit m and e ≥ 11: below 2^32 it has the
        // low bits of m shifted up, and nothing once e ≥ 32 — which takes
        // in ±∞ and NaN, as 0.
        let bits = r.to_bits();
        let e = ((bits >> 52) & 0x7ff) as u32 - 1075;
        let low = if e < 32 { (bits as u32) << e } else { 0 };
        if r < 0.0 {
            low.wrapping_neg()
        } else {
            low
        }
    }
}

/// `[f64; L]` arithmetic — the fallback on every target and the narrow
/// path on all of them.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Portable<const L: usize>;

impl<const L: usize> Isa for Portable<L> {
    type V = [f64; L];
    type Block<T: 'static> = [T; L];
    const LANES: usize = L;

    #[inline(always)]
    fn transpose<const BACK: bool>(self, band: [C<Self>; 8]) -> [C<Self>; 8] {
        let mut out = band;
        for col in 0..8 {
            for row in 0..L {
                // Where the rows keep element (row, col).
                let (vector, lane) = (row * (8 / L) + col / L, col % L);
                if BACK {
                    out[vector].0[lane] = band[col].0[row];
                    out[vector].1[lane] = band[col].1[row];
                } else {
                    out[col].0[row] = band[vector].0[lane];
                    out[col].1[row] = band[vector].1[lane];
                }
            }
        }
        out
    }
    #[inline(always)]
    fn blocks<T: 'static>(self, s: &[T]) -> &[[T; L]] {
        as_blocks(s)
    }
    #[inline(always)]
    fn blocks_mut<T: 'static>(self, s: &mut [T]) -> &mut [[T; L]] {
        as_blocks_mut(s)
    }
    #[inline(always)]
    fn splat(self, x: f64) -> [f64; L] {
        [x; L]
    }
    #[inline(always)]
    fn lanes(self, f: impl FnMut(usize) -> f64) -> [f64; L] {
        std::array::from_fn(f)
    }
    #[inline(always)]
    fn load(self, src: &[f64; L]) -> [f64; L] {
        *src
    }
    #[inline(always)]
    fn store(self, dst: &mut [f64; L], v: [f64; L]) {
        *dst = v;
    }
    #[inline(always)]
    fn mul(self, a: [f64; L], b: [f64; L]) -> [f64; L] {
        std::array::from_fn(|i| a[i] * b[i])
    }
    #[inline(always)]
    fn neg(self, a: [f64; L]) -> [f64; L] {
        a.map(|x| -x)
    }
    #[inline(always)]
    fn mul_add(self, a: [f64; L], b: [f64; L], c: [f64; L]) -> [f64; L] {
        std::array::from_fn(|i| a[i].mul_add(b[i], c[i]))
    }
    #[inline(always)]
    fn round_wrap_put<const ADD: bool>(self, dst: &mut [Torus32; L], v: [f64; L]) {
        for (slot, x) in dst.iter_mut().zip(v) {
            let rounded = Torus32::from_raw(round_wrap_u32(x));
            *slot = if ADD { *slot + rounded } else { rounded };
        }
    }
}

/// The AVX2 implementation — with [`avx512`], the crate's only `unsafe`
/// code.
///
/// Soundness rests on one invariant: an [`Avx2`](avx2::Avx2) value can
/// only be obtained from [`Avx2::detect`](avx2::Avx2::detect), which
/// returns one only after `is_x86_feature_detected!` of `avx2` and of
/// `fma`. Every intrinsic call below is therefore executed on a CPU that
/// has the instruction; every memory access is to a whole
/// [`Block`](Isa::Block), an array behind a reference.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod avx2 {
    use std::arch::x86_64::*;

    use morphling_math::Torus32;

    use super::{as_blocks, as_blocks_mut, round_wrap_u32, Isa, Kernel, C};

    /// Proof that the running CPU has AVX2 and FMA (the field is private:
    /// the only constructor is [`Avx2::detect`]).
    #[derive(Clone, Copy, Debug)]
    pub(crate) struct Avx2(());

    impl Avx2 {
        /// Both features or no token: the frame issues `vfmadd`, which an
        /// AVX2 CPU without FMA would fault on.
        pub(crate) fn detect() -> Option<Self> {
            (is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
                .then_some(Self(()))
        }

        /// Run `k` with AVX2 and FMA code generation enabled for
        /// everything inlined into it.
        #[inline]
        pub(crate) fn run<K: Kernel>(self, k: K) -> K::Out {
            #[target_feature(enable = "avx2,fma")]
            fn frame<K: Kernel>(isa: Avx2, k: K) -> K::Out {
                k.run(isa)
            }
            // SAFETY: `self` exists, so `detect` saw AVX2 and FMA on this
            // CPU.
            unsafe { frame(self, k) }
        }
    }

    /// Largest f64 below one half: `trunc(x + copysign(C, x))` is
    /// `x.round()` (half away from zero) for every finite `x`.
    pub(super) const BELOW_HALF: f64 = 0.499_999_999_999_999_94;
    /// 2^52 + 2^51: adding it to an integer `|r| < 2^51` leaves `r`'s
    /// two's-complement low bits in the low mantissa bits.
    pub(super) const MAGIC: f64 = 6_755_399_441_055_744.0;
    pub(super) const TWO_51: f64 = 2_251_799_813_685_248.0;

    /// The 4×4 transpose of four rows.
    #[inline(always)]
    fn transpose4(_: Avx2, y: [__m256d; 4]) -> [__m256d; 4] {
        // SAFETY: AVX2 is available (see the module invariant); these are
        // register shuffles.
        unsafe {
            let t0 = _mm256_unpacklo_pd(y[0], y[1]);
            let t1 = _mm256_unpackhi_pd(y[0], y[1]);
            let t2 = _mm256_unpacklo_pd(y[2], y[3]);
            let t3 = _mm256_unpackhi_pd(y[2], y[3]);
            [
                _mm256_permute2f128_pd(t0, t2, 0x20),
                _mm256_permute2f128_pd(t1, t3, 0x20),
                _mm256_permute2f128_pd(t0, t2, 0x31),
                _mm256_permute2f128_pd(t1, t3, 0x31),
            ]
        }
    }

    impl Isa for Avx2 {
        type V = __m256d;
        type Block<T: 'static> = [T; 4];
        const LANES: usize = 4;

        #[inline(always)]
        fn transpose<const BACK: bool>(self, band: [C<Self>; 8]) -> [C<Self>; 8] {
            // Four rows of two vectors: the left halves are a 4×4 matrix
            // whose transpose is columns 0–3, the right halves 4–7.
            let mut out = band;
            for half in 0..2 {
                let (mut re, mut im) = ([self.splat(0.0); 4], [self.splat(0.0); 4]);
                for i in 0..4 {
                    (re[i], im[i]) = band[if BACK { 4 * half + i } else { 2 * i + half }];
                }
                let (re, im) = (transpose4(self, re), transpose4(self, im));
                for i in 0..4 {
                    out[if BACK { 2 * i + half } else { 4 * half + i }] = (re[i], im[i]);
                }
            }
            out
        }
        #[inline(always)]
        fn blocks<T: 'static>(self, s: &[T]) -> &[[T; 4]] {
            as_blocks(s)
        }
        #[inline(always)]
        fn blocks_mut<T: 'static>(self, s: &mut [T]) -> &mut [[T; 4]] {
            as_blocks_mut(s)
        }
        #[inline(always)]
        fn splat(self, x: f64) -> __m256d {
            // SAFETY: AVX2 is available (see the module invariant).
            unsafe { _mm256_set1_pd(x) }
        }
        #[inline(always)]
        fn lanes(self, f: impl FnMut(usize) -> f64) -> __m256d {
            self.load(&std::array::from_fn(f))
        }
        #[inline(always)]
        fn load(self, src: &[f64; 4]) -> __m256d {
            // SAFETY: AVX2 is available; `src` is four readable f64.
            unsafe { _mm256_loadu_pd(src.as_ptr()) }
        }
        #[inline(always)]
        fn store(self, dst: &mut [f64; 4], v: __m256d) {
            // SAFETY: AVX2 is available; `dst` is four writable f64.
            unsafe { _mm256_storeu_pd(dst.as_mut_ptr(), v) }
        }
        #[inline(always)]
        fn mul(self, a: __m256d, b: __m256d) -> __m256d {
            // SAFETY: AVX2 is available.
            unsafe { _mm256_mul_pd(a, b) }
        }
        #[inline(always)]
        fn neg(self, a: __m256d) -> __m256d {
            // SAFETY: AVX2 is available. Flipping the sign bit is f64 `-x`.
            unsafe { _mm256_xor_pd(a, _mm256_set1_pd(-0.0)) }
        }
        #[inline(always)]
        fn mul_add(self, a: __m256d, b: __m256d, c: __m256d) -> __m256d {
            // SAFETY: FMA is available: `detect` saw `fma`, not only `avx2`.
            unsafe { _mm256_fmadd_pd(a, b, c) }
        }
        #[inline(always)]
        fn mul_sub(self, a: __m256d, b: __m256d, c: __m256d) -> __m256d {
            // SAFETY: FMA is available: `detect` saw `fma`, not only `avx2`.
            unsafe { _mm256_fmsub_pd(a, b, c) }
        }
        #[inline(always)]
        fn neg_mul_add(self, a: __m256d, b: __m256d, c: __m256d) -> __m256d {
            // SAFETY: FMA is available: `detect` saw `fma`, not only `avx2`.
            // `vfnmadd` is `−(a·b) + c`, rounded once.
            unsafe { _mm256_fnmadd_pd(a, b, c) }
        }
        #[inline(always)]
        fn round_wrap_put<const ADD: bool>(self, dst: &mut [Torus32; 4], v: __m256d) {
            let mut raw = [0u32; 4];
            // SAFETY: AVX2 is available; `raw` is 16 writable bytes.
            let in_range = unsafe {
                let sign = _mm256_set1_pd(-0.0);
                let nudge = _mm256_or_pd(_mm256_set1_pd(BELOW_HALF), _mm256_and_pd(v, sign));
                let r = _mm256_round_pd(
                    _mm256_add_pd(v, nudge),
                    _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC,
                );
                // Not-less-than, unordered: also true for NaN.
                let big = _mm256_cmp_pd(
                    _mm256_andnot_pd(sign, r),
                    _mm256_set1_pd(TWO_51),
                    _CMP_NLT_UQ,
                );
                let bits = _mm256_castpd_si256(_mm256_add_pd(r, _mm256_set1_pd(MAGIC)));
                let low =
                    _mm256_permutevar8x32_epi32(bits, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
                _mm_storeu_si128(raw.as_mut_ptr().cast(), _mm256_castsi256_si128(low));
                _mm256_movemask_pd(big) == 0
            };
            if !in_range {
                let mut lanes = [0.0f64; 4];
                self.store(&mut lanes, v);
                for (r, x) in raw.iter_mut().zip(lanes) {
                    *r = round_wrap_u32(x);
                }
            }
            for (slot, r) in dst.iter_mut().zip(raw) {
                let rounded = Torus32::from_raw(r);
                *slot = if ADD { *slot + rounded } else { rounded };
            }
        }
    }
}

/// The AVX-512 implementation: [`avx2`]'s discipline at twice the width.
///
/// An [`Avx512`](avx512::Avx512) value can only be obtained from
/// [`Avx512::detect`](avx512::Avx512::detect), which returns one only
/// after `is_x86_feature_detected!` of `avx512f` and `avx512dq` on top of
/// what an [`Avx2`](avx2::Avx2) token stands for (AVX2 and FMA). Every
/// intrinsic call below, 512 or 256 bits wide, is therefore executed on a
/// CPU that has the instruction; every memory access is to a whole
/// [`Block`](Isa::Block), an array behind a reference.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod avx512 {
    use std::arch::x86_64::*;

    use morphling_math::Torus32;

    use super::avx2::{Avx2, BELOW_HALF, MAGIC, TWO_51};
    use super::{as_blocks, as_blocks_mut, round_wrap_u32, Isa, Kernel, C};

    /// Proof that the running CPU has AVX-512 F and DQ, AVX2 and FMA (the
    /// field is private: the only constructor is [`Avx512::detect`]).
    #[derive(Clone, Copy, Debug)]
    pub(crate) struct Avx512(());

    impl Avx512 {
        pub(crate) fn detect() -> Option<Self> {
            Avx2::detect()?;
            (is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq"))
                .then_some(Self(()))
        }

        /// Run `k` with AVX-512 code generation enabled for everything
        /// inlined into it: every feature `detect` saw, by name (the
        /// rounding step stores 256 bits).
        #[inline]
        pub(crate) fn run<K: Kernel>(self, k: K) -> K::Out {
            #[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
            fn frame<K: Kernel>(isa: Avx512, k: K) -> K::Out {
                k.run(isa)
            }
            // SAFETY: `self` exists, so `detect` saw all four on this CPU.
            unsafe { frame(self, k) }
        }
    }

    /// The 8×8 transpose of eight rows: pairs of rows interleaved, then
    /// the 128-bit quarters of four registers transposed in two rounds.
    #[inline(always)]
    fn transpose8(_: Avx512, r: [__m512d; 8]) -> [__m512d; 8] {
        // SAFETY: AVX-512F is available (see the module invariant); these
        // are register shuffles.
        unsafe {
            // Quarter q of t[2i] holds column 2q of rows 2i, 2i + 1; of
            // t[2i + 1], column 2q + 1.
            let mut t = r;
            for i in 0..4 {
                t[2 * i] = _mm512_unpacklo_pd(r[2 * i], r[2 * i + 1]);
                t[2 * i + 1] = _mm512_unpackhi_pd(r[2 * i], r[2 * i + 1]);
            }
            let mut out = r;
            for odd in 0..2 {
                // Quarters 0, 2 of two registers, then 1, 3.
                let u0 = _mm512_shuffle_f64x2::<0x88>(t[odd], t[2 + odd]);
                let u1 = _mm512_shuffle_f64x2::<0xdd>(t[odd], t[2 + odd]);
                let u2 = _mm512_shuffle_f64x2::<0x88>(t[4 + odd], t[6 + odd]);
                let u3 = _mm512_shuffle_f64x2::<0xdd>(t[4 + odd], t[6 + odd]);
                out[odd] = _mm512_shuffle_f64x2::<0x88>(u0, u2);
                out[4 + odd] = _mm512_shuffle_f64x2::<0xdd>(u0, u2);
                out[2 + odd] = _mm512_shuffle_f64x2::<0x88>(u1, u3);
                out[6 + odd] = _mm512_shuffle_f64x2::<0xdd>(u1, u3);
            }
            out
        }
    }

    impl Isa for Avx512 {
        type V = __m512d;
        type Block<T: 'static> = [T; 8];
        const LANES: usize = 8;

        #[inline(always)]
        fn transpose<const BACK: bool>(self, band: [C<Self>; 8]) -> [C<Self>; 8] {
            // Eight rows of one vector: its own inverse.
            let (mut re, mut im) = ([self.splat(0.0); 8], [self.splat(0.0); 8]);
            for i in 0..8 {
                (re[i], im[i]) = band[i];
            }
            let (re, im) = (transpose8(self, re), transpose8(self, im));
            let mut out = band;
            for i in 0..8 {
                out[i] = (re[i], im[i]);
            }
            out
        }
        #[inline(always)]
        fn blocks<T: 'static>(self, s: &[T]) -> &[[T; 8]] {
            as_blocks(s)
        }
        #[inline(always)]
        fn blocks_mut<T: 'static>(self, s: &mut [T]) -> &mut [[T; 8]] {
            as_blocks_mut(s)
        }
        #[inline(always)]
        fn splat(self, x: f64) -> __m512d {
            // SAFETY: AVX-512F is available (see the module invariant).
            unsafe { _mm512_set1_pd(x) }
        }
        #[inline(always)]
        fn lanes(self, f: impl FnMut(usize) -> f64) -> __m512d {
            self.load(&std::array::from_fn(f))
        }
        #[inline(always)]
        fn load(self, src: &[f64; 8]) -> __m512d {
            // SAFETY: AVX-512F is available; `src` is eight readable f64.
            unsafe { _mm512_loadu_pd(src.as_ptr()) }
        }
        #[inline(always)]
        fn store(self, dst: &mut [f64; 8], v: __m512d) {
            // SAFETY: AVX-512F is available; `dst` is eight writable f64.
            unsafe { _mm512_storeu_pd(dst.as_mut_ptr(), v) }
        }
        #[inline(always)]
        fn mul(self, a: __m512d, b: __m512d) -> __m512d {
            // SAFETY: AVX-512F is available.
            unsafe { _mm512_mul_pd(a, b) }
        }
        #[inline(always)]
        fn neg(self, a: __m512d) -> __m512d {
            // SAFETY: AVX-512DQ is available. A sign-bit flip is f64 `-x`.
            unsafe { _mm512_xor_pd(a, _mm512_set1_pd(-0.0)) }
        }
        #[inline(always)]
        fn mul_add(self, a: __m512d, b: __m512d, c: __m512d) -> __m512d {
            // SAFETY: AVX-512F is available; its fused forms are part of F.
            unsafe { _mm512_fmadd_pd(a, b, c) }
        }
        #[inline(always)]
        fn mul_sub(self, a: __m512d, b: __m512d, c: __m512d) -> __m512d {
            // SAFETY: AVX-512F is available; its fused forms are part of F.
            unsafe { _mm512_fmsub_pd(a, b, c) }
        }
        #[inline(always)]
        fn neg_mul_add(self, a: __m512d, b: __m512d, c: __m512d) -> __m512d {
            // SAFETY: AVX-512F is available; its fused forms are part of F.
            // `vfnmadd` is `−(a·b) + c`, rounded once.
            unsafe { _mm512_fnmadd_pd(a, b, c) }
        }
        #[inline(always)]
        fn round_wrap_put<const ADD: bool>(self, dst: &mut [Torus32; 8], v: __m512d) {
            let mut raw = [0u32; 8];
            // SAFETY: AVX-512F and DQ are available; `raw` is 32 writable
            // bytes. The steps are `Avx2`'s: `roundscale` with no scale
            // and toward zero is `trunc`.
            let in_range = unsafe {
                let sign = _mm512_set1_pd(-0.0);
                let nudge = _mm512_or_pd(_mm512_set1_pd(BELOW_HALF), _mm512_and_pd(v, sign));
                let r = _mm512_roundscale_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(
                    _mm512_add_pd(v, nudge),
                );
                // Not-less-than, unordered: also set for NaN.
                let big = _mm512_cmp_pd_mask::<_CMP_NLT_UQ>(
                    _mm512_andnot_pd(sign, r),
                    _mm512_set1_pd(TWO_51),
                );
                let bits = _mm512_castpd_si512(_mm512_add_pd(r, _mm512_set1_pd(MAGIC)));
                _mm256_storeu_si256(raw.as_mut_ptr().cast(), _mm512_cvtepi64_epi32(bits));
                big == 0
            };
            if !in_range {
                let mut lanes = [0.0f64; 8];
                self.store(&mut lanes, v);
                for (r, x) in raw.iter_mut().zip(lanes) {
                    *r = round_wrap_u32(x);
                }
            }
            for (slot, r) in dst.iter_mut().zip(raw) {
                let rounded = Torus32::from_raw(r);
                *slot = if ADD { *slot + rounded } else { rounded };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What CI prints (`--nocapture`) so that a runner without an ISA
    /// says so in its log: the identity suites in `fft.rs`,
    /// `negacyclic.rs` and `spectrum.rs`, and the integer kernel's below,
    /// iterate this list.
    #[test]
    fn identity_suites_cover_every_isa_of_this_cpu() {
        let names: Vec<&str> = Simd::every(8).into_iter().map(|(name, _)| name).collect();
        println!("identity ran on: {}", names.join(", "));
        assert_eq!(names[..2], ["one-lane", "portable"]);
        assert!(names.contains(&"portable8"));
        // What detection picks is on the list, and narrower runs get a
        // narrower ISA.
        assert!(names.contains(&Simd::detect(8).name()));
        assert!(names.contains(&Simd::detect(4).name()));
        assert!(!["portable8", "avx512"].contains(&Simd::detect(4).name()));
        assert_eq!(Simd::detect(2).name(), "one-lane");
        assert!(Simd::every(4).iter().all(|(name, _)| *name != "avx512"));
    }

    #[test]
    fn sub_scaled_rows_is_exact_on_every_isa() {
        // Rows of 593 words (the paper sets' n + 1: odd, so every vector
        // width leaves a tail), of 16 and of 3 (shorter than any vector);
        // digits where the balanced decomposition turns, for β = 2⁵ and
        // for the widest base there is; two rows, the second with the
        // digits in another order.
        let of_first = [0, 1, -1, 16, -16, 15, i32::MAX, i32::MIN];
        let digits: Vec<i32> = of_first
            .iter()
            .chain(of_first.iter().rev())
            .copied()
            .collect();
        for width in [593usize, 16, 3] {
            let word = |i: usize| Torus32::from_raw((i as u32).wrapping_mul(0x9E37_79B9) ^ 0x5bd1);
            let rows: Vec<Torus32> = (0..2 * width).map(word).collect();
            let start: Vec<Torus32> = (0..of_first.len() * width).map(|i| word(i + 7)).collect();
            // The same algebra on raw words: one wrapping multiply and
            // one wrapping subtraction per word and row.
            let mut want = start.clone();
            for (row, of_row) in rows.chunks(width).zip(digits.chunks(of_first.len())) {
                for (out, &d) in want.chunks_mut(width).zip(of_row) {
                    for (o, k) in out.iter_mut().zip(row) {
                        let scaled = k.into_raw().wrapping_mul(d as u32);
                        *o = Torus32::from_raw(o.into_raw().wrapping_sub(scaled));
                    }
                }
            }
            let ran_on: Vec<&str> = Simd::every(width)
                .into_iter()
                .map(|(name, simd)| {
                    let mut outs = start.clone();
                    simd.run(SubScaledRows(&mut outs, &digits, &rows, width));
                    assert_eq!(outs, want, "{name} width={width}");
                    name
                })
                .collect();
            println!(
                "integer kernel, rows of {width}, ran on: {}",
                ran_on.join(", ")
            );
            // What detection picks, through the public entry point.
            let mut outs = start.clone();
            sub_scaled_rows(&mut outs, &digits, &rows, width);
            assert_eq!(outs, want, "detected, width={width}");
        }
    }

    #[test]
    #[should_panic(expected = "left == right")]
    fn sub_scaled_rows_wants_one_digit_per_row_and_accumulator() {
        sub_scaled_rows(&mut [Torus32::ZERO; 5], &[1, 2], &[Torus32::ZERO; 3], 3);
    }

    /// The spelling the Gaussian kernel replaced: glibc's `ln`, `sin` and
    /// `cos`, and `rem_euclid` (`fmod`) onto the torus.
    fn libm_pair(std: f64, [u1, u2]: [f64; 2]) -> [Torus32; 2] {
        let radius = (-2.0 * u1.ln()).sqrt();
        let (sin, cos) = (std::f64::consts::TAU * u2).sin_cos();
        [radius * cos, radius * sin].map(|d| {
            let scaled = ((std * d).rem_euclid(1.0) * 2f64.powi(32)).round();
            Torus32::from_raw(scaled as u64 as u32)
        })
    }

    #[test]
    fn gaussian_noise_is_the_libm_spelling_on_every_isa() {
        use rand::{rngs::StdRng, SeedableRng};
        // Every noise std of a `ParamSet`, LWE and GLWE, Test to Set C.
        const STDS: [i32; 8] = [15, 16, 17, 20, 26, 27, 28, 30];
        let (per_std, chunk) = (
            if cfg!(debug_assertions) {
                1 << 20
            } else {
                1 << 24
            },
            1 << 16,
        );
        let mut isas = vec![];
        for e in STDS {
            let std = 2f64.powi(-e);
            let mut rng = StdRng::seed_from_u64(e as u64);
            for _ in 0..per_std / chunk {
                let uniforms = sampling::box_muller_uniforms(chunk, &mut rng);
                let want: Vec<Torus32> = uniforms.iter().flat_map(|&u| libm_pair(std, u)).collect();
                isas = Simd::every(8)
                    .into_iter()
                    .map(|(name, simd)| {
                        let mut got = vec![Torus32::ZERO; chunk];
                        simd.run(GaussianFill(&mut got, std, &uniforms));
                        let differ = got.iter().zip(&want).filter(|(a, b)| a != b).count();
                        assert_eq!(differ, 0, "{name}, std 2^-{e}: samples differ from libm's");
                        name
                    })
                    .collect();
            }
        }
        println!(
            "gaussian kernel, {per_std} samples at each of {} stds, ran on: {}",
            STDS.len(),
            isas.join(", ")
        );
        // An odd length, and what detection picks.
        let uniforms = sampling::box_muller_uniforms(17, &mut StdRng::seed_from_u64(1));
        let mut got = [Torus32::ZERO; 17];
        gaussian_torus_fill(&mut got, 2f64.powi(-20), &uniforms);
        let want: Vec<Torus32> = uniforms
            .iter()
            .flat_map(|&u| libm_pair(2f64.powi(-20), u))
            .collect();
        assert_eq!(got, want[..17]);
    }

    #[test]
    fn bands_transpose_distinct_values_on_every_isa_and_back() {
        /// Loads a band from its eight vectors, transposes it, stores it.
        struct Transpose<'a, const BACK: bool>(&'a [f64], &'a [f64]);
        impl<const BACK: bool> Kernel for Transpose<'_, BACK> {
            type Out = (Vec<f64>, Vec<f64>);
            #[inline(always)]
            fn run<I: Isa>(self, isa: I) -> Self::Out {
                let (re, im) = (isa.blocks(self.0), isa.blocks(self.1));
                let mut band = [(isa.splat(0.0), isa.splat(0.0)); 8];
                for (i, v) in band.iter_mut().enumerate() {
                    *v = (isa.load(&re[i]), isa.load(&im[i]));
                }
                let band = isa.transpose::<BACK>(band);
                let (mut out_re, mut out_im) = (vec![f64::NAN; re.len() * I::LANES], vec![]);
                out_im.clone_from(&out_re);
                for (i, v) in band.iter().enumerate() {
                    isa.store(&mut isa.blocks_mut(&mut out_re)[i], v.0);
                    isa.store(&mut isa.blocks_mut(&mut out_im)[i], v.1);
                }
                (out_re, out_im)
            }
        }
        for (name, simd) in Simd::every(8) {
            // Lanes rows of eight columns; element (row, col) is 8·row + col.
            struct Lanes;
            impl Kernel for Lanes {
                type Out = usize;
                fn run<I: Isa>(self, _: I) -> usize {
                    I::LANES
                }
            }
            let lanes = simd.run(Lanes);
            let rows: Vec<f64> = (0..8 * lanes).map(|i| i as f64).collect();
            let columns: Vec<f64> = (0..8 * lanes)
                .map(|i| (i % lanes * 8 + i / lanes) as f64)
                .collect();
            let negated = |v: &[f64]| -> Vec<f64> { v.iter().map(|x| -x - 0.5).collect() };
            let got = simd.run(Transpose::<false>(&rows, &negated(&rows)));
            assert_eq!(got, (columns.clone(), negated(&columns)), "{name}");
            let got = simd.run(Transpose::<true>(&columns, &negated(&columns)));
            assert_eq!(got, (rows.clone(), negated(&rows)), "back, {name}");
        }
    }

    #[test]
    fn aligned_planes_hold_their_values_on_a_cache_line() {
        let collected: Aligned = (0..37).map(f64::from).collect();
        let want: Vec<f64> = (0..37).map(f64::from).collect();
        let mut copy = collected.clone();
        let zeros: Aligned = std::iter::repeat_n(0.0, 5).collect();
        for plane in [&collected, &copy, &zeros, &std::iter::empty().collect()] {
            assert_eq!(plane.as_ptr() as usize % 64, 0);
        }
        assert_eq!((&collected[..], &copy[..]), (&want[..], &want[..]));
        assert_eq!(copy, collected);
        copy[36] = -1.0;
        assert_ne!(copy, collected);
        assert_eq!(&zeros[..], &[0.0; 5]);
        assert!(Aligned::default().is_empty());
        assert_eq!(format!("{zeros:?}"), "[0.0, 0.0, 0.0, 0.0, 0.0]");
    }
}
