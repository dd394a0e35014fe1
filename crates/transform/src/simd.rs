//! The vector ISA under the transform kernel.
//!
//! The kernel in [`crate::fft`] and the spectrum MAC are written once,
//! generically over [`Isa`]: a fixed-width vector of `f64` lanes laid
//! along the *coefficient axis* of one planar polynomial. Two
//! implementations exist:
//!
//! - [`Portable<L>`]: plain `[f64; L]` arithmetic (`L = 4` normally,
//!   `L = 1` for transforms too short to fill a vector);
//! - [`avx2::Avx2`]: `std::arch` AVX2, selected by
//!   `is_x86_feature_detected!` when a plan is built.
//!
//! **Results never depend on the ISA.** Every operation here is an exact
//! IEEE-754 `add`/`sub`/`mul`/negate per lane — no fused multiply-add, no
//! reassociation — so each lane replays the scalar reference's operation
//! sequence bit for bit, and the one inexact-looking step, rounding to the
//! torus, reproduces [`round_wrap_u32`] exactly (see
//! [`Isa::round_wrap_store`]).
//!
//! `unsafe` is confined to the [`avx2`] submodule.

use morphling_math::{DecompParams, Torus32};

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

/// A vector of [`Isa::LANES`] consecutive `f64` elements and the exact
/// lane-wise operations the kernels need.
pub(crate) trait Isa: Copy {
    /// The vector register type.
    type V: Copy;
    /// Elements per vector. Every slice length and offset handed to the
    /// kernels is a multiple of this.
    const LANES: usize;

    fn splat(self, x: f64) -> Self::V;
    /// Lane `i` is `f(i)` — how integer and torus coefficients are widened.
    fn lanes(self, f: impl FnMut(usize) -> f64) -> Self::V;
    fn load(self, src: &[f64], at: usize) -> Self::V;
    /// Lane `i` is `digit.of(src[at + i]) as f64`.
    fn load_digits(self, src: &[Torus32], at: usize, digit: DigitOf) -> Self::V;
    fn store(self, dst: &mut [f64], at: usize, v: Self::V);
    fn add(self, a: Self::V, b: Self::V) -> Self::V;
    fn sub(self, a: Self::V, b: Self::V) -> Self::V;
    fn mul(self, a: Self::V, b: Self::V) -> Self::V;
    fn neg(self, a: Self::V) -> Self::V;
    /// Transposing store: lane `i` of `y[0..4]` lands in the four
    /// consecutive slots starting at `dst[pos[i]]` (`pos` has `LANES`
    /// entries).
    fn scatter4(self, dst: &mut [f64], pos: &[u32], y: [Self::V; 4]);
    /// `dst[at + i] = round_wrap_u32(v[i])`, exactly — or, with `ADD`,
    /// `dst[at + i] += round_wrap_u32(v[i])` on the torus (wrapping).
    fn round_wrap_put<const ADD: bool>(self, dst: &mut [Torus32], at: usize, v: Self::V);
}

/// Complex product `a · b` on split re/im vectors: the operation sequence
/// of `Complex64::mul`, `(a.re·b.re − a.im·b.im, a.re·b.im + a.im·b.re)`.
#[inline(always)]
pub(crate) fn cmul<I: Isa>(isa: I, a: (I::V, I::V), b: (I::V, I::V)) -> (I::V, I::V) {
    (
        isa.sub(isa.mul(a.0, b.0), isa.mul(a.1, b.1)),
        isa.add(isa.mul(a.0, b.1), isa.mul(a.1, b.0)),
    )
}

/// A computation written once over [`Isa`] and run on whichever
/// implementation [`Simd`] selected.
pub(crate) trait Kernel {
    type Out;
    /// Implementations are `#[inline(always)]` so that the AVX2
    /// instantiation is compiled inside the `target_feature` frame of
    /// [`avx2::Avx2::run`].
    fn run<I: Isa>(self, isa: I) -> Self::Out;
}

/// The ISA a plan runs on, chosen once from CPU detection.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Simd {
    /// One lane: for runs shorter than a vector.
    Narrow,
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2(avx2::Avx2),
}

impl Simd {
    /// The widest available ISA whose vectors tile runs of `width`
    /// elements (`width` is a power of two).
    pub(crate) fn detect(width: usize) -> Self {
        if width < 4 {
            return Self::Narrow;
        }
        #[cfg(target_arch = "x86_64")]
        if let Some(isa) = avx2::Avx2::detect() {
            return Self::Avx2(isa);
        }
        Self::Portable
    }

    /// Every ISA this CPU can run on runs of `width` elements, named: what
    /// the identity tests iterate instead of trusting detection.
    #[cfg(test)]
    pub(crate) fn every(width: usize) -> Vec<(&'static str, Self)> {
        let mut all = vec![("one lane", Self::Narrow)];
        if width >= 4 {
            all.push(("portable", Self::Portable));
            #[cfg(target_arch = "x86_64")]
            all.extend(avx2::Avx2::detect().map(|isa| ("avx2", Self::Avx2(isa))));
        }
        all
    }

    #[inline]
    pub(crate) fn run<K: Kernel>(self, k: K) -> K::Out {
        match self {
            Self::Narrow => k.run(Portable::<1>),
            Self::Portable => k.run(Portable::<4>),
            #[cfg(target_arch = "x86_64")]
            Self::Avx2(isa) => isa.run(k),
        }
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
/// the `debug_assert` in debug builds and take an exact `rem_euclid`
/// reduction in release builds (`%` on integer-valued f64 is exact).
pub(crate) fn round_wrap_u32(v: f64) -> u32 {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    const TWO_32: f64 = 4_294_967_296.0;
    let r = v.round();
    debug_assert!(
        r.abs() < TWO_63,
        "round_wrap_u32: |{r}| is outside the documented 2^63 magnitude bound"
    );
    if r.abs() < TWO_63 {
        r as i64 as u32
    } else {
        // Checked fallback: exact mod-2^32 residue (NaN saturates to 0).
        r.rem_euclid(TWO_32) as u32
    }
}

/// `[f64; L]` arithmetic — the fallback on every target and the narrow
/// path on all of them.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Portable<const L: usize>;

impl<const L: usize> Isa for Portable<L> {
    type V = [f64; L];
    const LANES: usize = L;

    #[inline(always)]
    fn splat(self, x: f64) -> [f64; L] {
        [x; L]
    }
    #[inline(always)]
    fn lanes(self, f: impl FnMut(usize) -> f64) -> [f64; L] {
        std::array::from_fn(f)
    }
    #[inline(always)]
    fn load(self, src: &[f64], at: usize) -> [f64; L] {
        let s = &src[at..at + L];
        std::array::from_fn(|i| s[i])
    }
    #[inline(always)]
    fn load_digits(self, src: &[Torus32], at: usize, digit: DigitOf) -> [f64; L] {
        let s = &src[at..at + L];
        std::array::from_fn(|i| f64::from(digit.of(s[i])))
    }
    #[inline(always)]
    fn store(self, dst: &mut [f64], at: usize, v: [f64; L]) {
        dst[at..at + L].copy_from_slice(&v);
    }
    #[inline(always)]
    fn add(self, a: [f64; L], b: [f64; L]) -> [f64; L] {
        std::array::from_fn(|i| a[i] + b[i])
    }
    #[inline(always)]
    fn sub(self, a: [f64; L], b: [f64; L]) -> [f64; L] {
        std::array::from_fn(|i| a[i] - b[i])
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
    fn scatter4(self, dst: &mut [f64], pos: &[u32], y: [[f64; L]; 4]) {
        for (i, &p) in pos[..L].iter().enumerate() {
            let block = &mut dst[p as usize..p as usize + 4];
            for (slot, row) in block.iter_mut().zip(&y) {
                *slot = row[i];
            }
        }
    }
    #[inline(always)]
    fn round_wrap_put<const ADD: bool>(self, dst: &mut [Torus32], at: usize, v: [f64; L]) {
        for (slot, x) in dst[at..at + L].iter_mut().zip(v) {
            let rounded = Torus32::from_raw(round_wrap_u32(x));
            *slot = if ADD { *slot + rounded } else { rounded };
        }
    }
}

/// The AVX2 implementation — the crate's only `unsafe` code.
///
/// Soundness rests on one invariant: an [`Avx2`](avx2::Avx2) value can
/// only be obtained from [`Avx2::detect`](avx2::Avx2::detect), which
/// returns one only after `is_x86_feature_detected!("avx2")`. Every
/// intrinsic call below is therefore executed on a CPU that has the
/// instruction; every memory access goes through a bounds-checked slice
/// first.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod avx2 {
    use std::arch::x86_64::*;

    use morphling_math::Torus32;

    use super::{round_wrap_u32, DigitOf, Isa, Kernel};

    /// Proof that the running CPU has AVX2 (the field is private: the
    /// only constructor is [`Avx2::detect`]).
    #[derive(Clone, Copy, Debug)]
    pub(crate) struct Avx2(());

    impl Avx2 {
        pub(crate) fn detect() -> Option<Self> {
            is_x86_feature_detected!("avx2").then_some(Self(()))
        }

        /// Run `k` with AVX2 code generation enabled for everything
        /// inlined into it.
        #[inline]
        pub(crate) fn run<K: Kernel>(self, k: K) -> K::Out {
            #[target_feature(enable = "avx2")]
            fn frame<K: Kernel>(isa: Avx2, k: K) -> K::Out {
                k.run(isa)
            }
            // SAFETY: `self` exists, so `detect` saw AVX2 on this CPU.
            unsafe { frame(self, k) }
        }
    }

    /// Largest f64 below one half: `trunc(x + copysign(C, x))` is
    /// `x.round()` (half away from zero) for every finite `x`.
    const BELOW_HALF: f64 = 0.499_999_999_999_999_94;
    /// 2^52 + 2^51: adding it to an integer `|r| < 2^51` leaves `r`'s
    /// two's-complement low bits in the low mantissa bits.
    const MAGIC: f64 = 6_755_399_441_055_744.0;
    const TWO_51: f64 = 2_251_799_813_685_248.0;

    impl Isa for Avx2 {
        type V = __m256d;
        const LANES: usize = 4;

        #[inline(always)]
        fn splat(self, x: f64) -> __m256d {
            // SAFETY: AVX2 is available (see the module invariant).
            unsafe { _mm256_set1_pd(x) }
        }
        #[inline(always)]
        fn lanes(self, f: impl FnMut(usize) -> f64) -> __m256d {
            let a: [f64; 4] = std::array::from_fn(f);
            // SAFETY: AVX2 is available; `a` is four readable f64.
            unsafe { _mm256_loadu_pd(a.as_ptr()) }
        }
        #[inline(always)]
        fn load(self, src: &[f64], at: usize) -> __m256d {
            let s = &src[at..at + 4];
            // SAFETY: AVX2 is available; `s` is four readable f64.
            unsafe { _mm256_loadu_pd(s.as_ptr()) }
        }
        #[inline(always)]
        fn load_digits(self, src: &[Torus32], at: usize, digit: DigitOf) -> __m256d {
            let s = &src[at..at + 4];
            let raw = [s[0], s[1], s[2], s[3]].map(Torus32::into_raw);
            // SAFETY: AVX2 is available; `raw` is 16 readable bytes. The
            // integer steps are `DigitOf::of` per 32-bit lane, and the
            // conversion of an `i32` to `f64` is exact.
            unsafe {
                let x = _mm_loadu_si128(raw.as_ptr().cast());
                let biased = _mm_add_epi32(x, _mm_set1_epi32(digit.bias as i32));
                let field = _mm_and_si128(
                    _mm_srl_epi32(biased, _mm_cvtsi32_si128(digit.shift as i32)),
                    _mm_set1_epi32(digit.mask as i32),
                );
                _mm256_cvtepi32_pd(_mm_sub_epi32(field, _mm_set1_epi32(digit.half_beta as i32)))
            }
        }
        #[inline(always)]
        fn store(self, dst: &mut [f64], at: usize, v: __m256d) {
            let d = &mut dst[at..at + 4];
            // SAFETY: AVX2 is available; `d` is four writable f64.
            unsafe { _mm256_storeu_pd(d.as_mut_ptr(), v) }
        }
        #[inline(always)]
        fn add(self, a: __m256d, b: __m256d) -> __m256d {
            // SAFETY: AVX2 is available.
            unsafe { _mm256_add_pd(a, b) }
        }
        #[inline(always)]
        fn sub(self, a: __m256d, b: __m256d) -> __m256d {
            // SAFETY: AVX2 is available.
            unsafe { _mm256_sub_pd(a, b) }
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
        fn scatter4(self, dst: &mut [f64], pos: &[u32], y: [__m256d; 4]) {
            // SAFETY: AVX2 is available; these are register shuffles.
            let rows = unsafe {
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
            };
            for (&p, row) in pos[..4].iter().zip(rows) {
                self.store(dst, p as usize, row);
            }
        }
        #[inline(always)]
        fn round_wrap_put<const ADD: bool>(self, dst: &mut [Torus32], at: usize, v: __m256d) {
            let out = &mut dst[at..at + 4];
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
                self.store(&mut lanes, 0, v);
                raw = lanes.map(round_wrap_u32);
            }
            for (slot, r) in out.iter_mut().zip(raw) {
                let rounded = Torus32::from_raw(r);
                *slot = if ADD { *slot + rounded } else { rounded };
            }
        }
    }
}
