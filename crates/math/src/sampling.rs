//! Randomness: uniform torus masks, binary secret keys, and modular
//! Gaussian noise.
//!
//! All sampling goes through [`rand::Rng`] so tests can use seeded
//! deterministic generators.
//!
//! Gaussian noise is Box–Muller on arithmetic of this module's own:
//! fdlibm's `ln` and its `sin`/`cos` kernels, written branch-free so that a
//! polynomial's worth is computed a vector of lanes at a time. Key
//! generation is mostly this: a GLWE row draws its uniforms
//! ([`box_muller_uniforms`]) and fills its noise through
//! `morphling_transform::gaussian_torus_fill`, which compiles
//! [`gaussian_torus_from_uniforms`] in the widest vector frame the CPU
//! has; LWE and key-switching rows call [`gaussian_torus`], the same
//! arithmetic one sample at a time. There is no second sampler. The libm
//! spelling it replaced (glibc's `ln`, `sin`, `cos` and `fmod`) lives on in
//! the tests as the reference: the lane code is within one ulp of glibc
//! and differs in about 13% of `(ln, sin, cos)` triples, and rounding to
//! the 32-bit torus absorbed every such difference tested — at each std
//! a parameter set uses, on every ISA frame (the transform crate's
//! `gaussian_noise_is_the_libm_spelling_on_every_isa`). That is measured,
//! not proven; seeded keys are pinned bit for bit by `morphling-tfhe`'s
//! golden digests.

use rand::Rng;

use crate::poly::Polynomial;
use crate::torus::TorusScalar;

/// Sample a uniformly random torus element (an LWE/GLWE mask coefficient).
pub fn uniform_torus<T: TorusScalar, R: Rng + ?Sized>(rng: &mut R) -> T {
    T::from_u64(rng.gen::<u64>())
}

/// Sample a uniformly random torus polynomial of size `n`.
pub fn uniform_torus_poly<T: TorusScalar, R: Rng + ?Sized>(n: usize, rng: &mut R) -> Polynomial<T> {
    Polynomial::from_fn(n, |_| uniform_torus(rng))
}

/// Sample a uniform binary vector (a secret key in `B^n = {0,1}^n`).
pub fn binary_vector<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<i64> {
    (0..n).map(|_| i64::from(rng.gen::<bool>())).collect()
}

/// Sample a binary polynomial (a GLWE secret-key component in `B_N[X]`).
pub fn binary_poly<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Polynomial<i64> {
    Polynomial::from_fn(n, |_| i64::from(rng.gen::<bool>()))
}

/// Sample a zero-mean Gaussian on the torus with standard deviation `std`
/// (expressed as a fraction of the torus, e.g. `2^-25`), rounded to the
/// nearest representable element.
///
/// One Box–Muller transform per call, of which the cosine half is kept; a
/// polynomial's worth keeps both, through [`box_muller_uniforms`] and
/// [`gaussian_torus_from_uniforms`].
pub fn gaussian_torus<T: TorusScalar, R: Rng + ?Sized>(std: f64, rng: &mut R) -> T {
    T::from_f64(std * box_muller(uniform_pair(rng))[0])
}

/// The uniforms of the `⌈n/2⌉` Box–Muller transforms that `n` Gaussian
/// samples take, drawn in the order [`gaussian_torus`] draws them: per
/// transform `u1` (redrawn until it exceeds `f64::EPSILON`, so that its
/// logarithm is finite), then `u2`.
pub fn box_muller_uniforms<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<[f64; 2]> {
    (0..n.div_ceil(2)).map(|_| uniform_pair(rng)).collect()
}

fn uniform_pair<R: Rng + ?Sized>(rng: &mut R) -> [f64; 2] {
    let u1: f64 = loop {
        let u = rng.gen::<f64>();
        if u > f64::EPSILON {
            break u;
        }
    };
    [u1, rng.gen()]
}

/// Fill `out` with Gaussian torus samples of standard deviation `std`, two
/// per transform of `uniforms` ([`box_muller_uniforms`]`(out.len(), ..)`):
/// the cosine half, then the sine half; an odd length drops the last sine.
///
/// Branch-free lane code: `#[inline(always)]`, so that it is compiled at
/// the vector width of whatever frame it is inlined into —
/// `morphling_transform::gaussian_torus_fill` runs it in the widest one
/// the CPU has. Every step is one IEEE-754 operation or an exact bit
/// manipulation, so the result does not depend on that width.
///
/// # Panics
///
/// Panics unless there is one pair of uniforms per two samples.
#[inline(always)]
pub fn gaussian_torus_from_uniforms<T: TorusScalar>(
    out: &mut [T],
    std: f64,
    uniforms: &[[f64; 2]],
) {
    assert_eq!(
        uniforms.len(),
        out.len().div_ceil(2),
        "one pair of uniforms per two samples"
    );
    let (pairs, odd) = out.as_chunks_mut::<2>();
    for (pair, &u) in pairs.iter_mut().zip(uniforms) {
        let [a, b] = box_muller(u);
        *pair = [T::from_f64(std * a), T::from_f64(std * b)];
    }
    if let [last] = odd {
        *last = T::from_f64(std * box_muller(uniforms[uniforms.len() - 1])[0]);
    }
}

/// Two independent standard normal deviates from the uniforms `u1` in
/// `(ε, 1)` and `u2` in `[0, 1)`: radius `√(−2 ln u1)` times the cosine and
/// the sine of the angle `2π·u2`.
#[inline(always)]
fn box_muller([u1, u2]: [f64; 2]) -> [f64; 2] {
    let radius = (-2.0 * ln(u1)).sqrt();
    let [sin, cos] = sin_cos(std::f64::consts::TAU * u2);
    [radius * cos, radius * sin]
}

/// `ln x` for a normal, positive, finite `x`: fdlibm's `e_log.c` without
/// its branches. The reduction `x = 2^k·(1 + f)` with `1 + f` in
/// `[√2/2, √2)` and the polynomial in `s = f/(2 + f)` are fdlibm's; its
/// `k = 0` forms are the general ones with `k = 0` (exactly: `0 − y` is
/// `−y`), its shortcut for `|f| < 2^-20` is left out (the polynomial is as
/// accurate there), and of its two final forms a select keeps one.
#[inline(always)]
fn ln(x: f64) -> f64 {
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    const LG: [f64; 7] = [
        f64::from_bits(0x3fe5_5555_5555_5593),
        f64::from_bits(0x3fd9_9999_9997_fa04),
        f64::from_bits(0x3fd2_4924_9422_9359),
        f64::from_bits(0x3fcc_71c5_1d8e_78af),
        f64::from_bits(0x3fc7_4664_96cb_03de),
        f64::from_bits(0x3fc3_9a09_d078_c69f),
        f64::from_bits(0x3fc2_f112_df3e_5244),
    ];
    let bits = x.to_bits();
    // The high word, its exponent and its top 20 mantissa bits.
    let high = (bits >> 32) as i64;
    let hx = high & 0x000f_ffff;
    // Whether the mantissa is at least √2 (then x/2 is normalized instead).
    let i = (hx + 0x95f64) & 0x10_0000;
    let k = (high >> 20) - 1023 + (i >> 20);
    let m = f64::from_bits((((hx | (i ^ 0x3ff0_0000)) as u64) << 32) | (bits & 0xffff_ffff));
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let dk = k as f64;
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG[1] + w * (LG[3] + w * LG[5]));
    let t2 = z * (LG[0] + w * (LG[2] + w * (LG[4] + w * LG[6])));
    let r = t2 + t1;
    let hfsq = 0.5 * f * f;
    // Mantissas in this band keep the f²/2 term apart.
    let apart = ((hx - 0x6147a) | (0x6b851 - hx)) > 0;
    let with_hfsq = hfsq - (s * (hfsq + r) + dk * LN2_LO);
    let without = s * (f - r) - dk * LN2_LO;
    dk * LN2_HI - ((if apart { with_hfsq } else { without }) - f)
}

/// `[sin θ, cos θ]` for `θ` in `[0, 2π)`: a two-step Cody–Waite reduction
/// by `π/2` (fdlibm's `e_rem_pio2.c`, its second round always taken: `π/2`
/// to 33 + 33 + 53 bits, ample for a `θ` this small), the fdlibm kernels
/// `k_sin.c` and `k_cos.c` (in their branch-free FreeBSD form) on the
/// remainder `y0 + y1`, and the quadrant applied by selects and sign flips.
#[inline(always)]
fn sin_cos(theta: f64) -> [f64; 2] {
    const INV_PIO2: f64 = f64::from_bits(0x3fe4_5f30_6dc9_c883);
    const PIO2_1: f64 = f64::from_bits(0x3ff9_21fb_5440_0000);
    const PIO2_2: f64 = f64::from_bits(0x3dd0_b461_1a60_0000);
    const PIO2_2T: f64 = f64::from_bits(0x3ba3_198a_2e03_7073);
    const S: [f64; 6] = [
        f64::from_bits(0xbfc5_5555_5555_5549),
        f64::from_bits(0x3f81_1111_1110_f8a6),
        f64::from_bits(0xbf2a_01a0_19c1_61d5),
        f64::from_bits(0x3ec7_1de3_57b1_fe7d),
        f64::from_bits(0xbe5a_e5e6_8a2b_9ceb),
        f64::from_bits(0x3de5_d93a_5acf_d57c),
    ];
    const C: [f64; 6] = [
        f64::from_bits(0x3fa5_5555_5555_554c),
        f64::from_bits(0xbf56_c16c_16c1_5177),
        f64::from_bits(0x3efa_01a0_19cb_1590),
        f64::from_bits(0xbe92_7e4f_809c_52ad),
        f64::from_bits(0x3e21_ee9e_bdb4_b1c4),
        f64::from_bits(0xbda8_fae9_be88_38d4),
    ];
    // θ = n·π/2 + y0 + y1 with |y0| ≤ π/4 (n·PIO2_1 and n·PIO2_2 are
    // exact); n is θ·2/π rounded by adding 1.5·2^52, as musl's
    // `__rem_pio2` does, and read from the low mantissa bits.
    const TO_INT: f64 = 1.5 / f64::EPSILON;
    let rounded = theta * INV_PIO2 + TO_INT;
    let n = rounded.to_bits() as i32;
    let fnn = rounded - TO_INT;
    let t = theta - fnn * PIO2_1;
    let w = fnn * PIO2_2;
    let r = t - w;
    let w = fnn * PIO2_2T - ((t - r) - w);
    let y0 = r - w;
    let y1 = (r - y0) - w;

    let z = y0 * y0;
    let w = z * z;
    let rs = S[1] + z * (S[2] + z * S[3]) + z * w * (S[4] + z * S[5]);
    let v = z * y0;
    let sin = y0 - ((z * (0.5 * y1 - v * rs) - y1) - v * S[0]);
    let rc = z * (C[0] + z * (C[1] + z * C[2])) + w * w * (C[3] + z * (C[4] + z * C[5]));
    let hz = 0.5 * z;
    let one_hz = 1.0 - hz;
    let cos = one_hz + (((1.0 - one_hz) - hz) + (z * rc - y0 * y1));

    // Quadrant n: odd ones swap sine and cosine; the sine is negative in
    // quadrants 2 and 3, the cosine in 1 and 2.
    let (s, c) = if n & 1 == 0 { (sin, cos) } else { (cos, sin) };
    [negate_if_bit_1(s, n), negate_if_bit_1(c, n + 1)]
}

/// `x`, negated (a sign flip, exact) if bit 1 of `q` is set.
#[inline(always)]
fn negate_if_bit_1(x: f64, q: i32) -> f64 {
    f64::from_bits(x.to_bits() ^ (((q & 2) as u64) << 62))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::torus::Torus32;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn binary_vectors_are_binary() {
        let mut rng = StdRng::seed_from_u64(1);
        for &v in &binary_vector(1000, &mut rng) {
            assert!(v == 0 || v == 1);
        }
    }

    #[test]
    fn binary_vector_is_roughly_balanced() {
        let mut rng = StdRng::seed_from_u64(2);
        let ones: i64 = binary_vector(10_000, &mut rng).iter().sum();
        assert!((3500..6500).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn gaussian_has_expected_spread() {
        let mut rng = StdRng::seed_from_u64(3);
        let std = 2f64.powi(-10);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| gaussian_torus::<Torus32, _>(std, &mut rng).to_f64_signed())
            .collect();
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        let var: f64 =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        assert!(
            mean.abs() < 5.0 * std / (samples.len() as f64).sqrt() + 1e-9,
            "mean = {mean}"
        );
        let ratio = var.sqrt() / std;
        assert!((0.95..1.05).contains(&ratio), "std ratio = {ratio}");
    }

    /// The libm spelling the sampler replaced, kept as its reference: one
    /// transform, drawn as [`gaussian_torus`] draws it, on glibc's `ln`,
    /// `sin` and `cos`, reduced to the torus through `rem_euclid` (`fmod`).
    fn libm_pair<R: Rng + ?Sized>(std: f64, rng: &mut R) -> [Torus32; 2] {
        let u1: f64 = loop {
            let u = rng.gen::<f64>();
            if u > f64::EPSILON {
                break u;
            }
        };
        let u2: f64 = rng.gen();
        let radius = (-2.0 * u1.ln()).sqrt();
        let (sin, cos) = (std::f64::consts::TAU * u2).sin_cos();
        [radius * cos, radius * sin].map(|d| {
            let scaled = ((std * d).rem_euclid(1.0) * 2f64.powi(32)).round();
            Torus32::from_raw(scaled as u64 as u32)
        })
    }

    /// `n` samples the way a GLWE row's noise is made.
    fn gaussian_poly<R: Rng + ?Sized>(n: usize, std: f64, rng: &mut R) -> Vec<Torus32> {
        let uniforms = box_muller_uniforms(n, rng);
        let mut out = vec![Torus32::ZERO; n];
        gaussian_torus_from_uniforms(&mut out, std, &uniforms);
        out
    }

    #[test]
    fn gaussian_poly_keeps_both_deviates_and_they_are_independent() {
        let mut rng = StdRng::seed_from_u64(8);
        let std = 2f64.powi(-10);
        let n = 32_768;
        let p = gaussian_poly(n, std, &mut rng);
        assert_eq!(p.len(), n);
        // The one odd size: the transform's second deviate is dropped.
        assert_eq!(gaussian_poly(1, std, &mut rng).len(), 1);
        let x: Vec<f64> = p.iter().map(|c| c.to_f64_signed() / std).collect();
        let var = x.iter().map(|v| v * v).sum::<f64>() / n as f64;
        assert!(
            (0.95..1.05).contains(&var.sqrt()),
            "std ratio = {}",
            var.sqrt()
        );
        // The cosine and sine halves of one transform, and neighbours
        // across two, are uncorrelated.
        for lag in [1usize, 2] {
            let pairs = x.iter().zip(&x[lag..]);
            let cov = pairs.map(|(a, b)| a * b).sum::<f64>() / (n - lag) as f64;
            assert!(cov.abs() < 0.03, "lag {lag}: covariance {cov}");
        }
    }

    #[test]
    fn a_polynomial_draws_what_its_libm_pairs_draw_in_their_order() {
        // Half the uniform draws of one deviate per call: after n
        // coefficients the stream is where ⌈n/2⌉ transforms leave it, and
        // the coefficients are theirs, cosine half first.
        let std = 2f64.powi(-10);
        for n in [1usize, 2, 3, 15, 16, 17, 2048] {
            let (mut a, mut b) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
            let p = gaussian_poly(n, std, &mut a);
            let want: Vec<Torus32> = (0..n.div_ceil(2))
                .flat_map(|_| libm_pair(std, &mut b))
                .take(n)
                .collect();
            assert_eq!(p, want, "n = {n}");
            let next = b.gen::<u64>();
            assert_eq!(a.gen::<u64>(), next, "n = {n}");
            // The scalar sampler draws one transform per call.
            let mut c = StdRng::seed_from_u64(9);
            for _ in 0..n.div_ceil(2) {
                let _: Torus32 = gaussian_torus(std, &mut c);
            }
            assert_eq!(c.gen::<u64>(), next, "n = {n}");
        }
    }

    #[test]
    fn a_rejected_u1_is_redrawn_before_its_u2() {
        /// Hands out its script, then one half after another.
        struct Scripted(Vec<u64>);
        impl rand::RngCore for Scripted {
            fn next_u32(&mut self) -> u32 {
                self.next_u64() as u32
            }
            fn next_u64(&mut self) -> u64 {
                if self.0.is_empty() {
                    1 << 63
                } else {
                    self.0.remove(0)
                }
            }
        }
        // u = (x >> 11)·2^-53: 0 and ε itself are rejected, 2ε is not.
        let (zero, eps, two_eps) = (0, 2 << 11, 4 << 11);
        let u = box_muller_uniforms(3, &mut Scripted(vec![zero, eps, two_eps, 7 << 11]));
        assert_eq!(u, [[2.0 * f64::EPSILON, 7.0 * 2f64.powi(-53)], [0.5, 0.5]]);
    }

    #[test]
    fn the_scalar_sampler_matches_the_libm_spelling() {
        // Every noise std of a parameter set, 2^-15 … 2^-30, and a wide one.
        let draws = if cfg!(debug_assertions) {
            20_000
        } else {
            1 << 20
        };
        for e in [10, 15, 16, 17, 20, 26, 27, 28, 30] {
            let std = 2f64.powi(-e);
            let (mut a, mut b) = (
                StdRng::seed_from_u64(e as u64),
                StdRng::seed_from_u64(e as u64),
            );
            for i in 0..draws {
                let got: Torus32 = gaussian_torus(std, &mut a);
                assert_eq!(got, libm_pair(std, &mut b)[0], "std 2^-{e}, draw {i}");
            }
        }
    }

    #[test]
    fn lane_arithmetic_is_within_one_ulp_of_libm() {
        let draws = if cfg!(debug_assertions) {
            100_000
        } else {
            1 << 22
        };
        let ulps = |a: f64, b: f64| {
            assert_eq!(a.is_sign_negative(), b.is_sign_negative(), "{a} vs {b}");
            a.to_bits().abs_diff(b.to_bits())
        };
        let mut rng = StdRng::seed_from_u64(10);
        let (mut differ, mut any) = ([0u64; 3], 0);
        for _ in 0..draws {
            let [u1, u2] = uniform_pair(&mut rng);
            let theta = std::f64::consts::TAU * u2;
            let [sin, cos] = sin_cos(theta);
            let off = [
                ulps(ln(u1), u1.ln()),
                ulps(sin, theta.sin()),
                ulps(cos, theta.cos()),
            ];
            for (d, o) in differ.iter_mut().zip(off) {
                assert!(o <= 1, "u = [{u1:e}, {u2:e}]: {off:?} ulps off libm");
                *d += o;
            }
            any += u64::from(off != [0; 3]);
        }
        let rate = |d: u64| 100.0 * d as f64 / draws as f64;
        println!(
            "f64 level: {:.1}% of {draws} (ln, sin, cos) differ from libm (ln {:.1}%, sin {:.1}%, cos {:.1}%), by one ulp, none further",
            rate(any),
            rate(differ[0]),
            rate(differ[1]),
            rate(differ[2])
        );
        // Where the reduction and the quadrant select turn.
        for theta in [
            0.0,
            1e-300,
            std::f64::consts::FRAC_PI_4,
            std::f64::consts::FRAC_PI_2,
            std::f64::consts::PI,
            3.0 * std::f64::consts::FRAC_PI_2,
            std::f64::consts::TAU - 1e-15,
        ] {
            let [sin, cos] = sin_cos(theta);
            assert!(
                ulps(sin, theta.sin()) <= 1 && ulps(cos, theta.cos()) <= 1,
                "θ = {theta}"
            );
        }
        // Powers of two, the ends of the domain, the √2 turn, and where
        // fdlibm's shortcut for |f| < 2^-20 would have run.
        for x in [
            f64::EPSILON * 2.0,
            0.5,
            0.25,
            1.0 - f64::EPSILON / 2.0,
            std::f64::consts::FRAC_1_SQRT_2,
            0.5 + 2f64.powi(-40),
            0.5 - 2f64.powi(-40),
            2f64.powi(-30) * (1.0 + 2f64.powi(-25)),
        ] {
            assert!(ulps(ln(x), x.ln()) <= 1, "x = {x}");
        }
    }

    #[test]
    fn uniform_torus_poly_has_requested_size() {
        let mut rng = StdRng::seed_from_u64(4);
        let p: Polynomial<Torus32> = uniform_torus_poly(64, &mut rng);
        assert_eq!(p.len(), 64);
    }

    #[test]
    fn seeded_sampling_is_deterministic() {
        let a: Polynomial<Torus32> = uniform_torus_poly(16, &mut StdRng::seed_from_u64(7));
        let b: Polynomial<Torus32> = uniform_torus_poly(16, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn uniform_torus32_covers_high_bits() {
        let mut rng = StdRng::seed_from_u64(5);
        let any_high = (0..100)
            .map(|_| uniform_torus::<Torus32, _>(&mut rng))
            .any(|t| t.into_raw() > u32::MAX / 2);
        assert!(any_high);
    }
}
