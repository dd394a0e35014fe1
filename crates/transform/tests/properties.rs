//! Property-based tests: the FFT path must agree exactly with the integer
//! oracle under realistic TFHE operand distributions, and — through the
//! public API, on whichever ISA this CPU selected — bit for bit with the
//! scalar reference, [`FftPlan::forward`] / [`FftPlan::inverse`] between a
//! fold and an unfold.
//!
//! The identity tests that name each ISA (one-lane, portable, AVX2,
//! AVX-512, and eight portable lanes for hosts without the last) call
//! the kernels through crate-private entry points and therefore live in
//! the crate (`src/fft.rs`, `src/negacyclic.rs`, `src/spectrum.rs`); there
//! is deliberately no public switch to force an ISA from here.

use morphling_math::negacyclic::mul_int_torus32;
use morphling_math::{Complex64, DecompParams, Polynomial, SignedDecomposer, Torus32};
use morphling_transform::{
    BatchScratch, FftPlan, NegacyclicFft, PolyBatch, Spectrum, SpectrumBatch,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn digit_poly(rng: &mut StdRng, n: usize, half_beta: i64) -> Polynomial<i64> {
    Polynomial::from_fn(n, |_| rng.gen_range(-half_beta..half_beta))
}

fn torus_poly(rng: &mut StdRng, n: usize) -> Polynomial<Torus32> {
    Polynomial::from_fn(n, |_| Torus32::from_raw(rng.gen()))
}

/// `d · t` through the transform domain: forward both, multiply
/// pointwise, invert.
fn product(
    fft: &NegacyclicFft,
    d: &Polynomial<i64>,
    t: &Polynomial<Torus32>,
) -> Polynomial<Torus32> {
    fft.inverse_torus(&fft.forward_int(d).pointwise_mul(&fft.forward_torus(t)))
}

#[test]
fn fft_product_is_exact_n256() {
    let mut rng = StdRng::seed_from_u64(0x7F7_0001);
    for case in 0..64 {
        let (d, t) = (digit_poly(&mut rng, 256, 64), torus_poly(&mut rng, 256));
        let fft = NegacyclicFft::new(256);
        let want = mul_int_torus32(&d, &t);
        assert_eq!(product(&fft, &d, &t), want, "case {case}: d={d:?} t={t:?}");
    }
}

#[test]
fn fft_product_is_exact_n1024_base_2_6() {
    // Paper set I/II digit range (β up to 2^6).
    let mut rng = StdRng::seed_from_u64(0x7F7_0002);
    for case in 0..64 {
        let (d, t) = (digit_poly(&mut rng, 1024, 32), torus_poly(&mut rng, 1024));
        let fft = NegacyclicFft::new(1024);
        let want = mul_int_torus32(&d, &t);
        assert_eq!(product(&fft, &d, &t), want, "case {case}: d={d:?} t={t:?}");
    }
}

#[test]
fn accumulated_external_product_shape_is_exact() {
    // (k+1)·l_b = 16 accumulated products at N=512, k=3-style worst case.
    let mut cases = StdRng::seed_from_u64(0x7F7_0003);
    for case in 0..64 {
        let seed: u64 = cases.gen();
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 512;
        let fft = NegacyclicFft::new(n);
        let mut acc_spec = Spectrum::zero(n);
        let mut acc_exact = Polynomial::<Torus32>::zero(n);
        for _ in 0..16 {
            let d = Polynomial::from_fn(n, |_| rng.gen_range(-8i64..8));
            let t = Polynomial::from_fn(n, |_| Torus32::from_raw(rng.gen()));
            acc_spec.mul_acc(&fft.forward_int(&d), &fft.forward_torus(&t));
            acc_exact += &mul_int_torus32(&d, &t);
        }
        let got = fft.inverse_torus(&acc_spec);
        assert_eq!(got, acc_exact, "case {case}: seed={seed:#x}");
    }
}

#[test]
fn spectrum_addition_is_ifft_linear() {
    let mut rng = StdRng::seed_from_u64(0x7F7_0004);
    for case in 0..64 {
        let (d1, d2) = (digit_poly(&mut rng, 64, 100), digit_poly(&mut rng, 64, 100));
        let fft = NegacyclicFft::new(64);
        let sum_spec = &fft.forward_int(&d1) + &fft.forward_int(&d2);
        let sum = Polynomial::from_fn(64, |j| Torus32::from_raw((d1[j] + d2[j]) as u32));
        let got = fft.inverse_torus(&sum_spec);
        assert_eq!(got, sum, "case {case}: d1={d1:?} d2={d2:?}");
    }
}

#[test]
fn batch_entry_points_equal_the_per_polynomial_calls() {
    let mut rng = StdRng::seed_from_u64(0x7F7_0005);
    let n = 128;
    for case in 0..64 {
        let all_ds: Vec<_> = (0..8).map(|_| digit_poly(&mut rng, n, 64)).collect();
        let lanes = rng.gen_range(1usize..9);
        let ds = &all_ds[..lanes];
        let fft = NegacyclicFft::new(n);
        let mut fwd = SpectrumBatch::zero(n, lanes);
        fft.forward_int_batch_into(&PolyBatch::from_polys(ds), &mut fwd);
        let mut inv = PolyBatch::<Torus32>::zero(n, lanes);
        fft.inverse_torus_batch_into(&fwd, &mut inv, &mut BatchScratch::new());
        for (lane, d) in ds.iter().enumerate() {
            let at = format!("case {case}: lane {lane} of {lanes}, d={d:?}");
            let spectrum = &fwd.spectra()[lane];
            assert_eq!(spectrum, &fft.forward_int(d), "{at}");
            assert_eq!(&inv.polys()[lane], &fft.inverse_torus(spectrum), "{at}");
        }
    }
}

#[test]
fn fused_external_product_equals_the_staged_stages() {
    // One CMUX step `acc += G ⊡ (X^ã·acc − acc)` both ways: the two
    // streaming passes against decompose → forward → clear + MAC →
    // inverse → add, every stage a public function with its own
    // buffer. Sizes start below one vector, so the short-transform
    // fallbacks of the fused passes are covered too.
    const SHAPES: [(usize, usize, u32); 6] = [
        (1, 1, 16),
        (1, 2, 16),
        (1, 3, 8),
        (2, 2, 8),
        (2, 3, 7),
        (3, 3, 10),
    ];
    let mut cases = StdRng::seed_from_u64(0x7F7_0006);
    for case in 0..64 {
        let seed: u64 = cases.gen();
        let log_n = cases.gen_range(2u32..=11);
        let shape = SHAPES[cases.gen_range(0..SHAPES.len())];
        let mut rng = StdRng::seed_from_u64(seed);
        let (n, (k, l, b)) = (1usize << log_n, shape);
        let fft = NegacyclicFft::new(n);
        let decomp = DecompParams::new(b, l);
        let mut random = || Polynomial::from_fn(n, |_| Torus32::from_raw(rng.gen()));
        let rows: Vec<Vec<Spectrum>> = (0..(k + 1) * l)
            .map(|_| (0..=k).map(|_| fft.forward_torus(&random())).collect())
            .collect();
        let acc: Vec<Polynomial<Torus32>> = (0..=k).map(|_| random()).collect();
        let a_tilde = rng.gen_range(1..2 * n as i64);
        let lambda: Vec<_> = acc
            .iter()
            .map(|c| c.monomial_mul_minus_one(a_tilde))
            .collect();

        let mut digit_polys = vec![Polynomial::<i64>::zero(n); (k + 1) * l];
        for (c, digits) in lambda.iter().zip(digit_polys.chunks_mut(l)) {
            SignedDecomposer::<Torus32>::new(decomp).decompose_poly_into(c, digits);
        }
        let staged_digits: Vec<Spectrum> = digit_polys.iter().map(|d| fft.forward_int(d)).collect();
        let mut staged = acc.clone();
        for (u, acc_u) in staged.iter_mut().enumerate() {
            let mut sum = Spectrum::zero(n);
            for (digit, row) in staged_digits.iter().zip(&rows) {
                sum.mul_acc(digit, &row[u]);
            }
            *acc_u += &fft.inverse_torus(&sum);
        }

        let mut fused_digits = vec![Spectrum::zero(n); (k + 1) * l];
        for (c, specs) in lambda.iter().zip(fused_digits.chunks_mut(l)) {
            for (level, spec) in specs.iter_mut().enumerate() {
                fft.forward_digit_into(c, decomp, level, spec);
            }
        }
        let at = format!("case {case}: seed={seed:#x} n={n} {shape:?}");
        for (got, want) in fused_digits.iter().zip(&staged_digits) {
            assert_eq!(bits(got.re()), bits(want.re()), "{at}");
            assert_eq!(bits(got.im()), bits(want.im()), "{at}");
        }
        let mut fused = acc;
        let mut scratch = Vec::new();
        for (u, acc_u) in fused.iter_mut().enumerate() {
            fft.inverse_mac_add_into(&fused_digits, &rows, u, acc_u, &mut scratch);
        }
        assert_eq!(fused, staged, "{at}");
    }
}

#[test]
fn selected_kernel_is_bit_identical_to_the_scalar_reference() {
    // Every power-of-two polynomial size, through the public entry
    // points: integer coefficients salted with the ends of `i64` and
    // zero; spectrum points salted with signed zeros, subnormals and
    // magnitudes where f64 spacing reaches one. A kernel that skips a
    // trivial twiddle multiply, reassociates, or fuses a multiply-add
    // where the reference does not (or the reverse) shows up here as a
    // flipped bit.
    let mut cases = StdRng::seed_from_u64(0x7F7_0007);
    for case in 0..64 {
        let seed: u64 = cases.gen();
        let mut rng = StdRng::seed_from_u64(seed);
        for log_n in 2..=12 {
            let n = 1usize << log_n;
            let fft = NegacyclicFft::new(n);
            let salt = [i64::MIN, i64::MAX, 0];
            let ints = Polynomial::from_fn(n, |_| {
                if rng.gen_range(0..4) == 0 {
                    salt[rng.gen_range(0..salt.len())]
                } else {
                    rng.gen_range(-(1i64 << 40)..1i64 << 40)
                }
            });
            let as_f64: Vec<f64> = ints.iter().map(|&c| c as f64).collect();
            let want = reference_forward(n, &as_f64);
            let got = fft.forward_int(&ints);
            let at = format!("case {case}: seed={seed:#x} n={n}");
            assert_eq!(bits(got.re()), bits(&want.0), "{at}: forward re");
            assert_eq!(bits(got.im()), bits(&want.1), "{at}: forward im");

            // Points in whatever order a spectrum stores them: the inverse
            // of both reads that order. Rounded as the kernel rounds below
            // 2^63, which these magnitudes stay under.
            let salt = [0.0, -0.0, 5e-324, -2.0e-308, 4_503_599_627_370_496.5];
            let reals: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.gen_range(0..4) == 0 {
                        salt[rng.gen_range(0..salt.len())]
                    } else {
                        rng.gen_range(-1.0e9..1.0e9)
                    }
                })
                .collect();
            let mut spectrum = Spectrum::zero(n);
            let (re, im) = spectrum.planes_mut();
            re.copy_from_slice(&reals[..n / 2]);
            im.copy_from_slice(&reals[n / 2..]);
            let want: Vec<Torus32> = reference_inverse(n, &spectrum)
                .iter()
                .map(|x| Torus32::from_raw(x.round() as i64 as u32))
                .collect();
            let got = fft.inverse_torus(&spectrum);
            assert_eq!(got.coeffs(), &want[..], "{at}: inverse");
        }
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The folded forward transform as scalar AoS arithmetic: fold, then the
/// reference network. Returns the `(re, im)` planes, in stored order.
fn reference_forward(n: usize, c: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let half = n / 2;
    let mut vals: Vec<Complex64> = (0..half)
        .map(|j| Complex64::new(c[j], -c[j + half]))
        .collect();
    FftPlan::new(half).forward(&mut vals);
    vals.iter().map(|v| (v.re, v.im)).unzip()
}

/// The folded inverse as scalar AoS arithmetic: the reference inverse
/// (network, scaling, untwist) of the stored points, then unfold.
fn reference_inverse(n: usize, spectrum: &Spectrum) -> Vec<f64> {
    let half = n / 2;
    let stored = spectrum.re().iter().zip(spectrum.im());
    let mut buf: Vec<Complex64> = stored.map(|(&re, &im)| Complex64::new(re, im)).collect();
    FftPlan::new(half).inverse(&mut buf);
    let mut out = vec![0.0; n];
    for j in 0..half {
        out[j] = buf[j].re;
        out[j + half] = -buf[j].im;
    }
    out
}
