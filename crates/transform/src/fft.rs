//! The transform kernel: one planar polynomial, vectorized along its
//! coefficient axis, plus the scalar AoS reference it is tested against.
//!
//! A plan takes `n` complex points between the ring `C[Y]/(Y^n + i)` —
//! the residue of the folded negacyclic transform — and the values at its
//! `n` roots, and it **never reorders**:
//!
//! - the **forward** is the merged Cooley–Tukey network: `Y^2h − ω²`
//!   splits into `Y^h − ω` and `Y^h + ω`, so a stage is one butterfly
//!   `lo = a + b·ω`, `hi = a − b·ω` per pair with one twiddle per *block*
//!   — the negacyclic twist lives in the twiddles, there is no twist pass
//!   — natural order in, the order the butterflies leave out;
//! - the **inverse** is the decimation-in-time network of the plain
//!   inverse DFT, which wants exactly that order in and leaves natural
//!   order out, followed by the `1/n` scaling and the untwist.
//!
//! That order ([`slot`]) is a function of `n` alone, the same on every
//! ISA: point `m` at index `bitrev(m)`, and from `n = 64` on every run of
//! 64 stored as the transpose of the 8×8 matrix it is — the last three
//! stages work across the registers of transposed bands, and nothing
//! transposes them back.
//!
//! Both networks are written once as the scalar reference
//! ([`FftPlan::forward`] / [`FftPlan::inverse`]: one stage and one point
//! at a time) and once as the kernel (`run_forward` / `run_inverse`),
//! which fuses stages into passes and lets the caller fold its own
//! reading and writing into the first and last one. Per element the
//! kernel performs *exactly* the reference's f64 operation sequence —
//! `mul` and the fused multiply-add, each rounded once: a butterfly is
//! `lo = a + b·w` as two nested fused operations per component and
//! `hi = 2a − lo` as one ([`butterfly_fused`]) — so the two agree bit for
//! bit on every input.

use morphling_math::Complex64;

use crate::simd::{cmul_add, Aligned, Isa, Simd, C};

/// The points of a tile. Shorter transforms are the scalar reference
/// itself, on one lane, and store plain bit-reversed order.
const TILE: usize = 64;

/// A reusable plan for one transform size.
///
/// Construction precomputes the twiddle tables and picks the vector ISA
/// from CPU detection; the transforms then run allocation-free on caller
/// buffers.
///
/// [`new`](Self::new) plans the folded negacyclic transform of `n`
/// complex points: with `θ = e^(-iπ/2n)`, [`forward`](Self::forward)
/// computes `X_m = Σ_j x_j θ^(j(4m+1))` — the values of `Σ x_j Y^j` at the
/// roots of `Y^n = −i` — stored in the order the butterflies leave them in
/// ([`Spectrum::point`](crate::Spectrum::point) finds point `m`), and
/// [`inverse`](Self::inverse) takes that order back to `x`.
///
/// Both are the scalar **reference**: the hot paths of this workspace go
/// through [`NegacyclicFft`](crate::NegacyclicFft), whose kernel is tested
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
    // Forward twiddles, planar: the stage with `2^s` blocks keeps block
    // q's at index 2^s + q (index 0 is unused).
    fw: [Aligned; 2],
    // The last three forward stages' twiddles again, as a transposed band
    // reads them: per tile seven runs of eight — half-block 4; 2, twice;
    // 1, four times — lane r of each for the tile's r-th run of eight
    // points.
    tile: [Aligned; 2],
    // Inverse twiddle ROM, conjugated as it is used: the stage with
    // half-block size h keeps e^(-2πi k / 2h), k < h, at index h + k.
    tw: [Aligned; 2],
    // θ^(-j) for j < n.
    untwist: [Aligned; 2],
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

/// Between the index the butterflies of a `points`-point transform leave
/// a point at and the slot that stores it, either way: the same below a
/// tile; from there on its two lowest octal digits swapped, which is where
/// an element of a run of 64 is once the run's 8×8 matrix is transposed.
fn tiled(points: usize, index: usize) -> usize {
    if points < TILE {
        index
    } else {
        (index & !63) | ((index & 7) << 3) | ((index >> 3) & 7)
    }
}

/// Where a transform of `points` points stores point `m`.
pub(crate) fn slot(points: usize, m: usize) -> usize {
    tiled(points, bit_reverse(m, points.trailing_zeros()))
}

/// `(re, im)` planes of a twiddle table.
fn planes(v: &[Complex64]) -> [Aligned; 2] {
    [
        v.iter().map(|w| w.re).collect(),
        v.iter().map(|w| w.im).collect(),
    ]
}

impl FftPlan {
    /// Create a plan for the folded negacyclic transform of `n` points
    /// (a real polynomial of size `2n`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or is zero.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n > 0,
            "FFT size must be a positive power of two, got {n}"
        );
        // Point m is the value at θ^(1 + 4m), θ = e^(-2πi/4n): the roots of
        // Y^n = −i. Exponents stay below 2n, angles within half a turn.
        let theta = |e: usize| {
            Complex64::from_polar_unit(-std::f64::consts::TAU * e as f64 / (4 * n) as f64)
        };
        // Block q of the stage with half-block h holds the residue modulo
        // Y^2h − θ^(2h·(1 + 4·bitrev(q))): its twiddle is the root.
        let mut fw = vec![Complex64::ZERO; n];
        for s in 0..n.trailing_zeros() {
            let (blocks, half) = (1usize << s, n >> (s + 1));
            for q in 0..blocks {
                fw[blocks + q] = theta(half * (1 + 4 * bit_reverse(q, s)));
            }
        }
        let mut tile = Vec::new();
        for run in (0..n / 8).step_by(8).filter(|_| n >= TILE) {
            for (half, of_run) in [(4, 0), (2, 0), (2, 1), (1, 0), (1, 1), (1, 2), (1, 3)] {
                // A run of eight is 4/half blocks of this stage.
                let block = |r: usize| n / (2 * half) + (run + r) * (4 / half) + of_run;
                tile.extend((0..8).map(|r| fw[block(r)]));
            }
        }
        let mut tw = vec![Complex64::ZERO; n];
        let mut half = 1usize;
        while half < n {
            let step = -std::f64::consts::TAU / (2 * half) as f64;
            for k in 0..half {
                tw[half + k] = Complex64::from_polar_unit(step * k as f64);
            }
            half *= 2;
        }
        let untwist: Vec<Complex64> = (0..n).map(|j| theta(j).conj()).collect();
        Self {
            n,
            fw: planes(&fw),
            tile: planes(&tile),
            tw: planes(&tw),
            untwist: planes(&untwist),
            simd: if n < TILE {
                Simd::Narrow
            } else {
                Simd::detect(8)
            },
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

    /// In-place forward transform (scalar reference): natural order in,
    /// stored order out.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the plan size.
    pub fn forward(&self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.n, "buffer size does not match FFT plan");
        let (mut blocks, mut half) = (1usize, self.n / 2);
        while half > 0 {
            for (q, block) in data.chunks_exact_mut(2 * half).enumerate() {
                let w = Complex64::new(self.fw[0][blocks + q], self.fw[1][blocks + q]);
                for k in 0..half {
                    (block[k], block[k + half]) = butterfly_fused(block[k], block[k + half], w);
                }
            }
            (blocks, half) = (2 * blocks, half / 2);
        }
        transpose_tiles(data);
    }

    /// In-place inverse transform (scalar reference), the `1/n` scaling
    /// and the untwist included: stored order in, natural order out.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the plan size.
    pub fn inverse(&self, data: &mut [Complex64]) {
        self.inverse_unscaled(data);
        let scale = 1.0 / self.n as f64;
        for (j, v) in data.iter_mut().enumerate() {
            let untwist = Complex64::new(self.untwist[0][j], self.untwist[1][j]);
            *v = mul_fused(v.scale(scale), untwist);
        }
    }

    /// The inverse's butterflies alone: the decimation-in-time network.
    fn inverse_unscaled(&self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.n, "buffer size does not match FFT plan");
        transpose_tiles(data);
        let mut half = 1usize;
        while half < self.n {
            for block in data.chunks_exact_mut(2 * half) {
                for k in 0..half {
                    let w = Complex64::new(self.tw[0][half + k], -self.tw[1][half + k]);
                    (block[k], block[k + half]) = butterfly_fused(block[k], block[k + half], w);
                }
            }
            half *= 2;
        }
    }

    /// `θ^(-j)` for `j < n`, planar: what a kernel's last pass multiplies
    /// output point `j` by.
    pub(crate) fn untwist_planes(&self) -> (&[f64], &[f64]) {
        (&self.untwist[0], &self.untwist[1])
    }

    /// The ISA this plan's kernel runs on.
    pub(crate) fn simd(&self) -> Simd {
        self.simd
    }

    /// How a kernel fuses the stages with half-blocks of 8 and up, of
    /// which there are `log2(n) − 3`: how many the band pass takes on top
    /// of its own three — those whose pairs of rows a band of `LANES` rows
    /// holds, leaving two at least — and whether what is left to the
    /// passes that fuse two is odd. What a pass fuses moves no bit.
    #[inline(always)]
    fn fusing<I: Isa>(&self) -> (usize, bool) {
        let vertical = self.n.trailing_zeros() as usize - 3;
        let absorbed = (I::LANES.trailing_zeros() as usize).min(vertical - 2);
        (absorbed, (vertical - absorbed) % 2 == 1)
    }

    /// The forward kernel: the transform of the planar sequence `source`
    /// yields, into `re`/`im`, in stored order.
    ///
    /// `source(k)` returns points `k·LANES..(k + 1)·LANES` of each of the
    /// sequence's `P` parts, its four quarters (of two points: `P = 2`,
    /// each one) — the runs the first pass reads side by side — and is
    /// called once per `k`, in order; a source cuts its own planes once
    /// ([`parts`]) and indexes them with the counter it is handed, bounds
    /// checks gone.
    ///
    /// `isa` must be the one [`Self::simd`] dispatches to.
    #[inline(always)]
    pub(crate) fn run_forward<I: Isa, const P: usize>(
        &self,
        isa: I,
        re: &mut [f64],
        im: &mut [f64],
        source: impl Fn(usize) -> [C<I>; P],
    ) {
        let n = self.check::<I, P>(re, im);
        if n < TILE {
            let (re_b, im_b) = (isa.blocks_mut(re), isa.blocks_mut(im));
            for k in 0..n / P {
                for (t, x) in source(k).into_iter().enumerate() {
                    isa.store(&mut re_b[t * (n / P) + k], x.0);
                    isa.store(&mut im_b[t * (n / P) + k], x.1);
                }
            }
            return self.reference_in_planes(re, im, Self::forward);
        }
        // Stages 0 and 1, reading; then one on its own if an odd number is
        // left, and two a pass down to those the bands take.
        let (absorbed, odd) = self.fusing::<I>();
        self.pass::<I, false, false>(
            isa,
            re,
            im,
            n / 4,
            #[inline(always)]
            |k, _| {
                let x = source(k);
                [x[0], x[1], x[2], x[3]]
            },
            store_back(isa),
        );
        let mut quarter = n / 16;
        if odd {
            self.pass::<I, false, true>(isa, re, im, quarter, loaded::<I>, store_back(isa));
            quarter /= 2;
        }
        while quarter > 4 << absorbed {
            self.pass::<I, false, false>(isa, re, im, quarter, loaded::<I>, store_back(isa));
            quarter /= 4;
        }
        self.forward_bands(isa, re, im, absorbed);
    }

    /// The inverse kernel: the unscaled decimation-in-time network over
    /// the points `source` yields in stored order, worked in the scratch
    /// planes `re`/`im`, whose results go to `sink`.
    ///
    /// `source(at, stride, out)` fills `out` with the stored sequence's
    /// vectors `at`, `at + stride`, … — a band at a time, which spreads
    /// the fixed cost of a call over eight vectors (the external product's
    /// MAC gathers from two dozen arrays). `sink(re, im, t, k, vr, vi)`
    /// receives points `k·LANES..(k + 1)·LANES` of part `t` (parts as
    /// [`run_forward`](Self::run_forward)'s) once each, from the last
    /// pass, with the blocks of the work planes they were computed in.
    ///
    /// `isa` must be the one [`Self::simd`] dispatches to.
    #[inline(always)]
    pub(crate) fn run_inverse<I: Isa, const P: usize>(
        &self,
        isa: I,
        re: &mut [f64],
        im: &mut [f64],
        source: impl Fn(usize, usize, &mut [C<I>]),
        mut sink: impl FnMut(&mut Plane<I>, &mut Plane<I>, usize, usize, I::V, I::V),
    ) {
        let n = self.check::<I, P>(re, im);
        if n < TILE {
            let mut points = [(isa.splat(0.0), isa.splat(0.0)); TILE];
            source(0, 1, &mut points[..n]);
            let (re_b, im_b) = (isa.blocks_mut(re), isa.blocks_mut(im));
            for (x, (re, im)) in points.iter().zip(re_b.iter_mut().zip(im_b)) {
                isa.store(re, x.0);
                isa.store(im, x.1);
            }
            self.reference_in_planes(re, im, Self::inverse_unscaled);
            let (re_b, im_b) = (isa.blocks_mut(re), isa.blocks_mut(im));
            for (at, (re, im)) in re_b.iter_mut().zip(im_b).enumerate() {
                let (vr, vi) = (isa.load(re), isa.load(im));
                sink(re, im, at / (n / P), at % (n / P), vr, vi);
            }
            return;
        }
        // The bands' stages; then one on its own if an odd number is left,
        // and two a pass, the last of which feeds the sink.
        let (absorbed, odd) = self.fusing::<I>();
        self.inverse_bands(isa, re, im, absorbed, source);
        let mut quarter = 8 << absorbed;
        if odd {
            self.pass::<I, true, true>(isa, re, im, quarter / 2, loaded::<I>, store_back(isa));
            quarter *= 2;
        }
        while 4 * quarter < n {
            self.pass::<I, true, false>(isa, re, im, quarter, loaded::<I>, store_back(isa));
            quarter *= 4;
        }
        self.pass::<I, true, false>(isa, re, im, quarter, loaded::<I>, sink);
    }

    /// The size checks of both kernels.
    #[inline(always)]
    fn check<I: Isa, const P: usize>(&self, re: &[f64], im: &[f64]) -> usize {
        let n = re.len();
        assert!(
            P == n.min(4) && n == self.n && im.len() == n && (n >= TILE || I::LANES == 1),
            "work planes or ISA do not match the FFT plan"
        );
        n
    }

    /// The scalar reference `run` on planar data, below a tile.
    fn reference_in_planes(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        run: fn(&Self, &mut [Complex64]),
    ) {
        let mut data = [Complex64::ZERO; TILE];
        let data = &mut data[..self.n];
        for (v, (re, im)) in data.iter_mut().zip(re.iter().zip(&*im)) {
            *v = Complex64::new(*re, *im);
        }
        run(self, data);
        for (v, (re, im)) in data.iter().zip(re.iter_mut().zip(im)) {
            (*re, *im) = (v.re, v.im);
        }
    }

    /// One pass over the work planes: in every run of `4·quarter` points,
    /// the butterflies of two consecutive stages — of one, with `SINGLE` —
    /// on its four quarters ([`butterfly4`]). `source(k, x)` is what
    /// enters for the points `x` loaded at vector `k` of the quarters;
    /// `sink` gets the quarter and the vector within it that each output
    /// is. The forward's run is one block of its first stage, one twiddle
    /// a butterfly pair; the inverse's twiddles are a ROM vector each.
    #[inline(always)]
    fn pass<I: Isa, const INV: bool, const SINGLE: bool>(
        &self,
        isa: I,
        re: &mut [f64],
        im: &mut [f64],
        quarter: usize,
        source: impl Fn(usize, [C<I>; 4]) -> [C<I>; 4],
        mut sink: impl FnMut(&mut Plane<I>, &mut Plane<I>, usize, usize, I::V, I::V),
    ) {
        let m = quarter / I::LANES;
        // Half-block `quarter`'s twiddles, then the next stage's for k and
        // for k + quarter.
        let rom_re = parts::<_, 3>(isa.blocks(&self.tw[0][quarter..4 * quarter]), m);
        let rom_im = parts::<_, 3>(isa.blocks(&self.tw[1][quarter..4 * quarter]), m);
        let of_runs = re
            .chunks_exact_mut(4 * quarter)
            .zip(im.chunks_exact_mut(4 * quarter));
        for (q, (re, im)) in of_runs.enumerate() {
            let block = self.n / (4 * quarter) + q;
            let fw = (&self.fw[0][block..2 * block + 2], &self.fw[1][block..]);
            let of_block = [
                splat(isa, fw, 0),
                splat(isa, fw, block),
                splat(isa, fw, block + 1),
            ];
            let re = parts_mut::<_, 4>(isa.blocks_mut(re), m);
            let im = parts_mut::<_, 4>(isa.blocks_mut(im), m);
            for k in 0..m {
                let x = [
                    (isa.load(&re[0][k]), isa.load(&im[0][k])),
                    (isa.load(&re[1][k]), isa.load(&im[1][k])),
                    (isa.load(&re[2][k]), isa.load(&im[2][k])),
                    (isa.load(&re[3][k]), isa.load(&im[3][k])),
                ];
                let w = if INV {
                    [
                        (isa.load(&rom_re[0][k]), isa.load(&rom_im[0][k])),
                        (isa.load(&rom_re[1][k]), isa.load(&rom_im[1][k])),
                        (isa.load(&rom_re[2][k]), isa.load(&rom_im[2][k])),
                    ]
                } else {
                    of_block
                };
                let y = butterfly4::<I, INV, SINGLE>(isa, source(k, x), w);
                sink(&mut re[0][k], &mut im[0][k], 0, k, y[0].0, y[0].1);
                sink(&mut re[1][k], &mut im[1][k], 1, k, y[1].0, y[1].1);
                sink(&mut re[2][k], &mut im[2][k], 2, k, y[2].0, y[2].1);
                sink(&mut re[3][k], &mut im[3][k], 3, k, y[3].0, y[3].1);
            }
        }
    }

    /// The forward's last pass, a band at a time — eight consecutive
    /// vectors, `LANES` rows of a tile's 8×8 matrix: the `absorbed` stages
    /// still pairing whole rows (half-block `8·d`: row `a` meets `a + d`,
    /// one twiddle per block), one transpose, and the last three stages
    /// across the registers that now hold a column each, with a lane per
    /// run of eight — stored where the transposed tile has them, which is
    /// where its other bands are still to be read: a tile of several is
    /// put together on the stack.
    #[inline(always)]
    fn forward_bands<I: Isa>(&self, isa: I, re: &mut [f64], im: &mut [f64], absorbed: usize) {
        let (n, l, g) = (self.n, I::LANES, 8 / I::LANES);
        let tiles = re.chunks_exact_mut(TILE).zip(im.chunks_exact_mut(TILE));
        let tables = (self.tile[0].chunks_exact(56)).zip(self.tile[1].chunks_exact(56));
        let (mut done_re, mut done_im) = ([0.0; TILE], [0.0; TILE]);
        for (b, ((re_tile, im_tile), (tw_re, tw_im))) in tiles.zip(tables).enumerate() {
            let (tw_re, tw_im) = (isa.blocks(tw_re), isa.blocks(tw_im));
            for band in 0..g {
                let (re, im) = (isa.blocks_mut(re_tile), isa.blocks_mut(im_tile));
                let mut v = [(isa.splat(0.0), isa.splat(0.0)); 8];
                for (i, v) in v.iter_mut().enumerate() {
                    *v = (isa.load(&re[8 * band + i]), isa.load(&im[8 * band + i]));
                }
                // Calls spelled out, here and below: a loop over the stages
                // is not always unrolled, and then the band lives in memory.
                // Row a of the band is row band·l + a of the tile, which is
                // 4/d blocks of the stage that pairs rows d apart.
                let rows = |d: usize| n / (16 * d) + (8 * b + band * l) / (2 * d)..n;
                if absorbed > 2 {
                    stage::<I, false>(isa, &mut v, 4 * g, splats(isa, &self.fw, rows(4)));
                }
                if absorbed > 1 {
                    stage::<I, false>(isa, &mut v, 2 * g, splats(isa, &self.fw, rows(2)));
                }
                if absorbed > 0 {
                    stage::<I, false>(isa, &mut v, g, splats(isa, &self.fw, rows(1)));
                }
                let mut v = isa.transpose::<false>(v);
                let columns = (tw_re, tw_im, g, band);
                stage::<I, false>(isa, &mut v, 4, loads(isa, columns, 0));
                stage::<I, false>(isa, &mut v, 2, loads(isa, columns, 1));
                stage::<I, false>(isa, &mut v, 1, loads(isa, columns, 3));
                let (to_re, to_im) = match g {
                    1 => (re, im),
                    _ => (isa.blocks_mut(&mut done_re), isa.blocks_mut(&mut done_im)),
                };
                for (c, v) in v.iter().enumerate() {
                    isa.store(&mut to_re[c * g + band], v.0);
                    isa.store(&mut to_im[c * g + band], v.1);
                }
            }
            if g > 1 {
                re_tile.copy_from_slice(&done_re);
                im_tile.copy_from_slice(&done_im);
            }
        }
    }

    /// The inverse's first pass, [`forward_bands`](Self::forward_bands)
    /// backwards: a band of columns from the source, the three stages with
    /// constant twiddles across its registers, one transpose, `absorbed`
    /// stages more between the rows it then holds.
    #[inline(always)]
    fn inverse_bands<I: Isa>(
        &self,
        isa: I,
        re: &mut [f64],
        im: &mut [f64],
        absorbed: usize,
        source: impl Fn(usize, usize, &mut [C<I>]),
    ) {
        let g = 8 / I::LANES;
        // Half-blocks up to 32: the ROM's first 64 twiddles. Twiddle k of
        // the stage with half-block h is the ROM's h + k: one to a register
        // while a register is one point of several runs, a ROM vector each
        // once it is part of one run.
        let (rom_re, rom_im) = (isa.blocks(&self.tw[0]), isa.blocks(&self.tw[1]));
        let tiles = re.chunks_exact_mut(TILE).zip(im.chunks_exact_mut(TILE));
        for (b, (re, im)) in tiles.enumerate() {
            let (re, im) = (isa.blocks_mut(re), isa.blocks_mut(im));
            for band in 0..g {
                let mut v = [(isa.splat(0.0), isa.splat(0.0)); 8];
                source(8 * g * b + band, g, &mut v);
                stage::<I, true>(isa, &mut v, 1, splats(isa, &self.tw, 1..8));
                stage::<I, true>(isa, &mut v, 2, splats(isa, &self.tw, 2..8));
                stage::<I, true>(isa, &mut v, 4, splats(isa, &self.tw, 4..8));
                let mut v = isa.transpose::<true>(v);
                let rows = (&rom_re[..8 * g], &rom_im[..8 * g], 1, 0);
                if absorbed > 0 {
                    stage::<I, true>(isa, &mut v, g, loads(isa, rows, g));
                }
                if absorbed > 1 {
                    stage::<I, true>(isa, &mut v, 2 * g, loads(isa, rows, 2 * g));
                }
                if absorbed > 2 {
                    stage::<I, true>(isa, &mut v, 4 * g, loads(isa, rows, 4 * g));
                }
                for (i, v) in v.iter().enumerate() {
                    isa.store(&mut re[8 * band + i], v.0);
                    isa.store(&mut im[8 * band + i], v.1);
                }
            }
        }
    }
}

/// Every run of 64 of `data` as the transpose of the 8×8 matrix it is —
/// between the order the butterflies leave and the stored one, either way.
fn transpose_tiles(data: &mut [Complex64]) {
    for tile in data.chunks_exact_mut(TILE) {
        for index in 0..TILE {
            if index < tiled(TILE, index) {
                tile.swap(index, tiled(TILE, index));
            }
        }
    }
}

/// One butterfly stage on a band: vector `x` meets `x + s`, for the four
/// `x` without bit `s`, under twiddle `w(k)` — the pair's place among its
/// block's, `x mod s`, on the way back (`INV`); its block, `x / 2s`, on
/// the way out.
#[inline(always)]
fn stage<I: Isa, const INV: bool>(isa: I, v: &mut [C<I>; 8], s: usize, w: impl Fn(usize) -> C<I>) {
    for i in 0..4 {
        let x = i + (i & !(s - 1));
        let k = if INV { x & (s - 1) } else { x / (2 * s) };
        (v[x], v[x + s]) = butterfly2::<I, INV>(isa, v[x], v[x + s], w(k));
    }
}

/// Twiddle `at` of planar `(re, im)` tables in every lane.
#[inline(always)]
fn splat<I: Isa>(isa: I, w: (&[f64], &[f64]), at: usize) -> C<I> {
    (isa.splat(w.0[at]), isa.splat(w.1[at]))
}

/// The twiddles in `range` of planar tables, one to a register.
#[inline(always)]
fn splats<'a, I: Isa + 'a>(
    isa: I,
    table: &'a [Aligned; 2],
    range: std::ops::Range<usize>,
) -> impl Fn(usize) -> C<I> + 'a {
    let w = (&table[0][range.clone()], &table[1][range]);
    #[inline(always)]
    move |k| splat(isa, w, k)
}

/// Twiddle vectors of planar `(re, im, stride, offset)` tables from
/// vector `first·stride` on: number `k` is `stride` vectors, of which a
/// band takes the one at `offset`.
#[inline(always)]
fn loads<'a, I: Isa + 'a>(
    isa: I,
    (re, im, stride, offset): (&'a [Plane<I>], &'a [Plane<I>], usize, usize),
    first: usize,
) -> impl Fn(usize) -> C<I> + 'a {
    #[inline(always)]
    move |k| {
        let at = (first + k) * stride + offset;
        (isa.load(&re[at]), isa.load(&im[at]))
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

/// The sink that keeps a pass's output in its work planes.
#[inline(always)]
#[allow(clippy::type_complexity)] // a sink's signature, spelled once more
fn store_back<I: Isa>(
    isa: I,
) -> impl FnMut(&mut Plane<I>, &mut Plane<I>, usize, usize, I::V, I::V) {
    #[inline(always)]
    move |re, im, _, _, vr, vi| {
        isa.store(re, vr);
        isa.store(im, vi);
    }
}

/// The source of a pass that works on what its planes hold.
#[inline(always)]
fn loaded<I: Isa>(_: usize, x: [C<I>; 4]) -> [C<I>; 4] {
    x
}

/// `acc + x · w` as the kernel accumulates (`simd::cmul_add`): four fused
/// operations, `x.re`'s products first (`Complex64`'s own operators keep
/// their unfused meaning).
pub(crate) fn mul_add_fused(acc: Complex64, x: Complex64, w: Complex64) -> Complex64 {
    let (re, im) = (x.re.mul_add(w.re, acc.re), x.re.mul_add(w.im, acc.im));
    Complex64::new((-x.im).mul_add(w.im, re), x.im.mul_add(w.re, im))
}

/// `x · w` as the kernel untwists (`simd::cmul`): two products, and the
/// second product of each component fused into the sum.
fn mul_fused(x: Complex64, w: Complex64) -> Complex64 {
    Complex64::new(
        (-x.im).mul_add(w.im, x.re * w.re),
        x.im.mul_add(w.re, x.re * w.im),
    )
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

/// Two consecutive stages on the four quarters `x` of a run, kept in
/// registers: the same butterflies the reference runs. The inverse pairs
/// neighbours under `w[0]`, then the sums under `w[1]` and the differences
/// under `w[2]`; the forward pairs quarter t with t + 2 under `w[0]`, then
/// 0 with 1 under `w[1]` and 2 with 3 under `w[2]`. `SINGLE`: the stage
/// that pairs t with t + 2 alone.
#[inline(always)]
fn butterfly4<I: Isa, const INV: bool, const SINGLE: bool>(
    isa: I,
    x: [C<I>; 4],
    w: [C<I>; 3],
) -> [C<I>; 4] {
    let bf = butterfly2::<I, INV>;
    if INV {
        let ((a0, a1), (a2, a3)) = match SINGLE {
            true => ((x[0], x[1]), (x[2], x[3])),
            false => (bf(isa, x[0], x[1], w[0]), bf(isa, x[2], x[3], w[0])),
        };
        let ((y0, y2), (y1, y3)) = (bf(isa, a0, a2, w[1]), bf(isa, a1, a3, w[2]));
        [y0, y1, y2, y3]
    } else {
        let ((a0, a2), (a1, a3)) = (bf(isa, x[0], x[2], w[0]), bf(isa, x[1], x[3], w[0]));
        if SINGLE {
            return [a0, a1, a2, a3];
        }
        let ((y0, y1), (y2, y3)) = (bf(isa, a0, a1, w[1]), bf(isa, a2, a3, w[2]));
        [y0, y1, y2, y3]
    }
}

/// Which point a transform of `points` points stores at `slot`.
#[cfg(test)]
pub(crate) fn point_at(points: usize, slot: usize) -> usize {
    bit_reverse(tiled(points, slot), points.trailing_zeros())
}

#[cfg(test)]
impl FftPlan {
    /// Every ISA of this CPU the kernel could run on at this size, named:
    /// what the identity tests iterate instead of trusting detection.
    pub(crate) fn every_simd(&self) -> Vec<(&'static str, Simd)> {
        Simd::every(if self.n < TILE { 1 } else { 8 })
    }

    /// Every table a pass loads from, both planes of each.
    pub(crate) fn tables(&self) -> Vec<&[f64]> {
        let tables = [&self.fw, &self.tile, &self.tw, &self.untwist];
        tables
            .iter()
            .flat_map(|t| t.iter().map(|p| &p[..]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// `Σ_j x_j θ^(j(1 + 4m))`, `θ = e^(-2πi/4n)`, for every `m`, in
    /// natural order: the O(n²) oracle of the plan.
    fn naive_values(input: &[Complex64]) -> Vec<Complex64> {
        let n = input.len();
        (0..n)
            .map(|m| {
                let mut acc = Complex64::ZERO;
                for (j, &x) in input.iter().enumerate() {
                    let turns = (j * (1 + 4 * m)) as f64 / (4 * n) as f64;
                    acc += x * Complex64::from_polar_unit(-std::f64::consts::TAU * turns);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn forward_matches_naive_evaluation_through_the_slot_map() {
        for n in [1usize, 2, 4, 8, 16, 64, 128, 256] {
            let input = ramp(n);
            let mut out = input.clone();
            FftPlan::new(n).forward(&mut out);
            let natural: Vec<Complex64> = (0..n).map(|m| out[slot(n, m)]).collect();
            assert_close(&natural, &naive_values(&input), 1e-7 * n as f64);
        }
    }

    #[test]
    fn the_slot_map_is_a_permutation_and_point_at_inverts_it() {
        for log_n in 0..=12 {
            let n = 1usize << log_n;
            let mut seen = vec![false; n];
            for m in 0..n {
                let at = slot(n, m);
                assert!(!std::mem::replace(&mut seen[at], true), "n={n} m={m}");
                assert_eq!(point_at(n, at), m, "n={n}");
            }
        }
        // Plain bit reversal below a tile; from there on, tiles transposed.
        assert_eq!(
            (0..8).map(|m| slot(8, m)).collect::<Vec<_>>(),
            [0, 4, 2, 6, 1, 5, 3, 7]
        );
        assert_eq!((slot(64, 1), slot(64, 8), slot(128, 1)), (4, 32, 64));
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
        let energy = |z: &Complex64| z.re * z.re + z.im * z.im;
        let time_energy: f64 = input.iter().map(energy).sum();
        let freq_energy: f64 = freq.iter().map(energy).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-6 * time_energy);
    }

    /// The kernel between planar input and planar output, as
    /// `FftPlan::forward` / `FftPlan::inverse` (`INV`) transform AoS data:
    /// `1/n` and the untwist applied by the inverse's sink.
    /// `P`: the parts its ends see, `n.min(4)`.
    struct Plain<'a, const INV: bool, const P: usize> {
        plan: &'a FftPlan,
        input: &'a [Complex64],
    }

    impl<const INV: bool, const P: usize> Kernel for Plain<'_, INV, P> {
        type Out = Vec<Complex64>;

        #[inline(always)]
        fn run<I: Isa>(self, isa: I) -> Vec<Complex64> {
            let plan = self.plan;
            let n = plan.len();
            let m = n / P / I::LANES;
            let in_re: Vec<f64> = self.input.iter().map(|z| z.re).collect();
            let in_im: Vec<f64> = self.input.iter().map(|z| z.im).collect();
            let (mut re, mut im) = (vec![f64::NAN; n], vec![f64::NAN; n]);
            if INV {
                let (in_re, in_im) = (isa.blocks(&in_re), isa.blocks(&in_im));
                let (mut out_re, mut out_im) = (vec![f64::NAN; n], vec![f64::NAN; n]);
                {
                    let mut out_re = parts_mut::<_, P>(isa.blocks_mut(&mut out_re), m);
                    let mut out_im = parts_mut::<_, P>(isa.blocks_mut(&mut out_im), m);
                    let untwist_re = parts::<_, P>(isa.blocks(&plan.untwist[0]), m);
                    let untwist_im = parts::<_, P>(isa.blocks(&plan.untwist[1]), m);
                    let scale = isa.splat(1.0 / n as f64);
                    plan.run_inverse::<I, P>(
                        isa,
                        &mut re,
                        &mut im,
                        #[inline(always)]
                        |at, stride, out| {
                            for (i, x) in out.iter_mut().enumerate() {
                                let from = at + i * stride;
                                *x = (isa.load(&in_re[from]), isa.load(&in_im[from]));
                            }
                        },
                        #[inline(always)]
                        |_, _, t, k, vr, vi| {
                            let w = (isa.load(&untwist_re[t][k]), isa.load(&untwist_im[t][k]));
                            let scaled = (isa.mul(vr, scale), isa.mul(vi, scale));
                            let u = crate::simd::cmul(isa, scaled, w);
                            isa.store(&mut out_re[t][k], u.0);
                            isa.store(&mut out_im[t][k], u.1);
                        },
                    );
                }
                (re, im) = (out_re, out_im);
            } else {
                let in_re = parts::<_, P>(isa.blocks(&in_re), m);
                let in_im = parts::<_, P>(isa.blocks(&in_im), m);
                plan.run_forward::<I, P>(
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
                );
            }
            re.into_iter()
                .zip(im)
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
            let ran_on: Vec<&str> = plan.every_simd().iter().map(|(name, _)| *name).collect();
            // Every ISA of the CPU from a tile up; one lane below.
            assert_eq!(n < TILE, ran_on == ["one-lane"], "n={n}: {ran_on:?}");
            for seed in 0..4 {
                let input = &awkward_points(n, seed + 100 * log_n);
                let mut forward = input.clone();
                plan.forward(&mut forward);
                let mut inverse = input.clone();
                plan.inverse(&mut inverse);
                for (name, simd) in plan.every_simd() {
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
        let (mut blocks, mut half) = (1usize, plan.len() / 2);
        while half > 0 {
            for (q, block) in data.chunks_exact_mut(2 * half).enumerate() {
                let w = Complex64::new(plan.fw[0][blocks + q], plan.fw[1][blocks + q]);
                for k in 0..half {
                    let (a, b) = (block[k], block[k + half] * w);
                    (block[k], block[k + half]) = (a + b, a - b);
                }
            }
            (blocks, half) = (2 * blocks, half / 2);
        }
        transpose_tiles(data);
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
    fn plans_run_one_lane_below_a_tile_and_the_widest_isa_from_there() {
        for log_n in 0..=12 {
            let n = 1usize << log_n;
            let name = FftPlan::new(n).simd().name();
            if n < TILE {
                assert_eq!(name, "one-lane", "n={n}");
            } else {
                assert_eq!(name, Simd::detect(8).name(), "n={n}");
            }
        }
    }

    #[test]
    fn every_table_starts_on_a_cache_line() {
        for n in [2usize, 16, 64, 1024] {
            let plan = FftPlan::new(n);
            let copy = plan.clone();
            for plan in [&plan, &copy] {
                let tile = if n < TILE { 0 } else { 7 * n / 8 };
                let tables = [
                    (&plan.fw, n),
                    (&plan.tile, tile),
                    (&plan.tw, n),
                    (&plan.untwist, n),
                ];
                for (planes, len) in tables {
                    for table in planes {
                        assert_eq!(
                            (table.len(), table.as_ptr() as usize % 64),
                            (len, 0),
                            "n={n}"
                        );
                    }
                }
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
