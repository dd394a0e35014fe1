//! The transform kernel against the scalar reference it replaced.
//!
//! At the paper's polynomial sizes N ∈ {512, 1024, 2048}:
//!
//! - `reference`: the folded negacyclic transform as scalar AoS
//!   arithmetic — fold in `Complex64`, then [`FftPlan::forward`] /
//!   [`FftPlan::inverse`], the radix-2 networks one stage and one point at
//!   a time (the inverse with its scaling and untwist), then round. This
//!   is the schedule every kernel result is tested bit-identical to.
//! - `kernel`: [`NegacyclicFft`] — the same arithmetic, planar,
//!   vectorized along the coefficient axis, two to six stages per pass,
//!   fold and rounding folded into the first and last pass.
//!
//! Measured for one polynomial, forward and inverse. Outputs are asserted
//! equal before timing.
//!
//! Then one whole CMUX step `ACC ← ACC + G ⊡ (X^ã·ACC − ACC)` at the Set
//! III shape (k = 1, l_b = 3, β = 2^8), two ways that must agree bit for
//! bit: `staged`, the composition of the public stage functions with
//! every intermediate in a buffer of its own (each stage also timed
//! alone), and `fused`, the two streaming passes the external product
//! runs ([`NegacyclicFft::forward_digit_into`],
//! [`NegacyclicFft::inverse_mac_add_into`]) — against one hot GGSW and
//! against a ring of them larger than the L2 cache. The staged sum minus
//! the fused whole is the inter-stage memory traffic the fusion removes.
//!
//! Each size is timed directly and the results land in
//! `BENCH_transform.json` (committed; CI regenerates and
//! checks, within the run, that the fused CMUX is no slower than the
//! staged one at N ≥ 1024 and that the staged CMUX's forward and inverse
//! stages — its transforms — stay the share of the whole hot staged CMUX
//! they were in the committed file: the scalar reference pays a libm
//! `fma` per operation without hardware FMA in the target features, so
//! "kernel ≥ reference" would pass a kernel several times slower), with
//! the vector ISA the kernel ran on as `"isa"`. A failed write exits
//! non-zero.

use std::time::Instant;

use morphling_math::{Complex64, DecompParams, Polynomial, SignedDecomposer, Torus32};
use morphling_transform::{FftPlan, NegacyclicFft, Spectrum};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The scalar schedule, with its own staging buffer.
struct Reference {
    n: usize,
    plan: FftPlan,
    buf: Vec<Complex64>,
}

impl Reference {
    fn new(n: usize) -> Self {
        Self {
            n,
            plan: FftPlan::new(n / 2),
            buf: vec![Complex64::ZERO; n / 2],
        }
    }

    /// The spectrum of `p`, in stored order.
    fn forward(&mut self, p: &Polynomial<i64>) -> &[Complex64] {
        let half = self.n / 2;
        let c = p.coeffs();
        for j in 0..half {
            self.buf[j] = Complex64::new(c[j] as f64, -(c[j + half] as f64));
        }
        self.plan.forward(&mut self.buf);
        &self.buf
    }

    fn inverse(&mut self, spectrum: &Spectrum, out: &mut Polynomial<Torus32>) {
        let half = self.n / 2;
        let stored = spectrum.re().iter().zip(spectrum.im());
        for (slot, (&re, &im)) in self.buf.iter_mut().zip(stored) {
            *slot = Complex64::new(re, im);
        }
        self.plan.inverse(&mut self.buf);
        for j in 0..half {
            let u = self.buf[j];
            out[j] = Torus32::from_raw(u.re.round() as i64 as u32);
            out[j + half] = Torus32::from_raw((-u.im).round() as i64 as u32);
        }
    }
}

/// Set III's gadget and GLWE dimension.
const BASE_LOG: u32 = 8;
const LEVEL: usize = 3;
const GLWE_DIM: usize = 1;
/// GGSWs in the streamed ring: 64 × 192 KB at N = 2048, beyond L2.
const RING: usize = 64;

type Ggsw = Vec<Vec<Spectrum>>;

/// The buffers of one CMUX step, staged and fused alike.
struct Cmux {
    fft: NegacyclicFft,
    decomp: DecompParams,
    acc: Vec<Polynomial<Torus32>>,
    lambda: Vec<Polynomial<Torus32>>,
    digit_polys: Vec<Polynomial<i64>>,
    digit_spectra: Vec<Spectrum>,
    acc_spectra: Vec<Spectrum>,
    product: Vec<Polynomial<Torus32>>,
    scratch: Vec<f64>,
}

impl Cmux {
    fn new(n: usize, rng: &mut StdRng) -> Self {
        let comps = GLWE_DIM + 1;
        Self {
            fft: NegacyclicFft::new(n),
            decomp: DecompParams::new(BASE_LOG, LEVEL),
            acc: (0..comps)
                .map(|_| Polynomial::from_fn(n, |_| Torus32::from_raw(rng.gen())))
                .collect(),
            lambda: vec![Polynomial::zero(n); comps],
            digit_polys: vec![Polynomial::zero(n); comps * LEVEL],
            digit_spectra: vec![Spectrum::zero(n); comps * LEVEL],
            acc_spectra: vec![Spectrum::zero(n); comps],
            product: vec![Polynomial::zero(n); comps],
            scratch: Vec::new(),
        }
    }

    fn rotate(&mut self, a_tilde: i64) {
        for (acc, lambda) in self.acc.iter().zip(&mut self.lambda) {
            acc.monomial_mul_minus_one_into(a_tilde, lambda);
        }
    }

    fn decompose(&mut self) {
        let decomposer = SignedDecomposer::<Torus32>::new(self.decomp);
        for (lambda, digits) in self.lambda.iter().zip(self.digit_polys.chunks_mut(LEVEL)) {
            decomposer.decompose_poly_into(lambda, digits);
        }
    }

    fn forward(&mut self) {
        for (p, s) in self.digit_polys.iter().zip(&mut self.digit_spectra) {
            self.fft.forward_int_into(p, s);
        }
    }

    fn mac(&mut self, ggsw: &Ggsw) {
        for s in &mut self.acc_spectra {
            s.set_zero();
        }
        for (digit, row) in self.digit_spectra.iter().zip(ggsw) {
            for (acc_u, row_u) in self.acc_spectra.iter_mut().zip(row) {
                acc_u.mul_acc(digit, row_u);
            }
        }
    }

    fn inverse(&mut self) {
        for (s, p) in self.acc_spectra.iter().zip(&mut self.product) {
            self.fft.inverse_torus_into(s, p, &mut self.scratch);
        }
    }

    fn add(&mut self) {
        for (acc, p) in self.acc.iter_mut().zip(&self.product) {
            *acc += p;
        }
    }

    fn staged(&mut self, ggsw: &Ggsw, a_tilde: i64) {
        self.rotate(a_tilde);
        self.decompose();
        self.forward();
        self.mac(ggsw);
        self.inverse();
        self.add();
    }

    fn fused(&mut self, ggsw: &Ggsw, a_tilde: i64) {
        self.rotate(a_tilde);
        for (lambda, specs) in self.lambda.iter().zip(self.digit_spectra.chunks_mut(LEVEL)) {
            for (level, spec) in specs.iter_mut().enumerate() {
                self.fft
                    .forward_digit_into(lambda, self.decomp, level, spec);
            }
        }
        for (u, acc) in self.acc.iter_mut().enumerate() {
            self.fft
                .inverse_mac_add_into(&self.digit_spectra, ggsw, u, acc, &mut self.scratch);
        }
    }
}

/// What one CMUX costs, in ns: each staged stage alone against a hot
/// GGSW, then the staged and the fused whole, hot and streamed.
struct CmuxTimes {
    stages: [(&'static str, f64); 6],
    staged_hot: f64,
    fused_hot: f64,
    staged_streamed: f64,
    fused_streamed: f64,
    /// The staged CMUX's `forward` and `inverse` stages alone — one forward
    /// kernel per digit polynomial, one inverse per GLWE component — timed
    /// in the same alternating rounds as the wholes.
    transforms_hot: f64,
}

fn time_cmux(n: usize, rng: &mut StdRng) -> CmuxTimes {
    let mut cmux = Cmux::new(n, rng);
    let random_ggsw = |cmux: &Cmux, rng: &mut StdRng| -> Ggsw {
        (0..(GLWE_DIM + 1) * LEVEL)
            .map(|_| {
                (0..=GLWE_DIM)
                    .map(|_| {
                        let t = Polynomial::from_fn(n, |_| Torus32::from_raw(rng.gen()));
                        cmux.fft.forward_torus(&t)
                    })
                    .collect()
            })
            .collect()
    };
    let hot = random_ggsw(&cmux, rng);
    let ring: Vec<Ggsw> = (0..RING).map(|_| hot.clone()).collect();

    // Same bits both ways over a chain of steps, or the comparison means
    // nothing.
    let start = cmux.acc.clone();
    for a_tilde in [3, n as i64 + 1, 2 * n as i64 - 1] {
        cmux.staged(&hot, a_tilde);
    }
    let want = std::mem::replace(&mut cmux.acc, start);
    for a_tilde in [3, n as i64 + 1, 2 * n as i64 - 1] {
        cmux.fused(&hot, a_tilde);
    }
    assert_eq!(
        cmux.acc, want,
        "n={n}: fused CMUX must equal the staged one"
    );

    let (runs, rounds) = (200u32, 9usize);
    let stages = [
        ("rotate", time_ns(|| cmux.rotate(3), runs, rounds)),
        ("decompose", time_ns(|| cmux.decompose(), runs, rounds)),
        ("forward", time_ns(|| cmux.forward(), runs, rounds)),
        ("mac", time_ns(|| cmux.mac(&hot), runs, rounds)),
        ("inverse", time_ns(|| cmux.inverse(), runs, rounds)),
        ("add", time_ns(|| cmux.add(), runs, rounds)),
    ];
    // Staged and fused in alternating rounds, so that a slow spell of a
    // shared host falls on both alike — and on the transforms alone, which
    // CI holds to their share of the hot staged CMUX.
    let mut at = 0usize;
    let mut whole: [Vec<f64>; 5] = Default::default();
    for _ in 0..rounds {
        for (which, samples) in whole.iter_mut().enumerate() {
            let t0 = Instant::now();
            for _ in 0..runs {
                at = (at + 1) % RING;
                match which {
                    0 => cmux.staged(&hot, 3),
                    1 => cmux.fused(&hot, 3),
                    2 => cmux.staged(&ring[at], 3),
                    3 => cmux.fused(&ring[at], 3),
                    _ => {
                        cmux.forward();
                        cmux.inverse();
                    }
                }
            }
            samples.push(t0.elapsed().as_nanos() as f64 / f64::from(runs));
        }
    }
    let [staged_hot, fused_hot, staged_streamed, fused_streamed, transforms_hot] =
        whole.map(|mut samples| {
            samples.sort_by(f64::total_cmp);
            samples[rounds / 2]
        });
    CmuxTimes {
        stages,
        staged_hot,
        fused_hot,
        staged_streamed,
        fused_streamed,
        transforms_hot,
    }
}

/// Median over `rounds` of the ns per call of `op`, `runs` calls a round.
fn time_ns(mut op: impl FnMut(), runs: u32, rounds: usize) -> f64 {
    let mut samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..runs {
                op();
            }
            t0.elapsed().as_nanos() as f64 / f64::from(runs)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[rounds / 2]
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2024);

    let mut entries = Vec::new();
    let mut min_speedup = f64::INFINITY;
    for n in [512usize, 1024, 2048] {
        let fft = NegacyclicFft::new(n);
        let mut reference = Reference::new(n);
        // Set III digit range (β = 2^7) against a uniform torus polynomial.
        let digits = Polynomial::from_fn(n, |_| rng.gen_range(-64i64..64));
        let t = Polynomial::from_fn(n, |_| Torus32::from_raw(rng.gen()));
        let mut spectrum = Spectrum::zero(n);
        let mut scratch = Vec::new();
        let mut product = Spectrum::zero(n);
        product.mul_acc(&fft.forward_int(&digits), &fft.forward_torus(&t));
        let (mut out, mut out_ref) = (Polynomial::zero(n), Polynomial::zero(n));

        // Same bits both ways, or the comparison means nothing.
        fft.forward_int_into(&digits, &mut spectrum);
        let want = reference.forward(&digits);
        assert!(
            (0..n / 2).all(|i| (spectrum.re()[i], spectrum.im()[i]) == (want[i].re, want[i].im)),
            "n={n}: forward kernel must equal the reference"
        );
        fft.inverse_torus_into(&product, &mut out, &mut scratch);
        reference.inverse(&product, &mut out_ref);
        assert_eq!(
            out, out_ref,
            "n={n}: inverse kernel must equal the reference"
        );

        let (runs, rounds) = (200u32, 9usize);
        let ref_fwd = time_ns(
            || {
                std::hint::black_box(reference.forward(std::hint::black_box(&digits)));
            },
            runs,
            rounds,
        );
        let ker_fwd = time_ns(
            || fft.forward_int_into(std::hint::black_box(&digits), &mut spectrum),
            runs,
            rounds,
        );
        let ref_inv = time_ns(
            || reference.inverse(std::hint::black_box(&product), &mut out_ref),
            runs,
            rounds,
        );
        let ker_inv = time_ns(
            || fft.inverse_torus_into(std::hint::black_box(&product), &mut out, &mut scratch),
            runs,
            rounds,
        );
        let (s_fwd, s_inv) = (ref_fwd / ker_fwd, ref_inv / ker_inv);
        min_speedup = min_speedup.min(s_fwd).min(s_inv);
        println!(
            "transform_kernel/n{n}: forward {ref_fwd:.0} → {ker_fwd:.0} ns ({s_fwd:.2}x), \
             inverse {ref_inv:.0} → {ker_inv:.0} ns ({s_inv:.2}x)"
        );
        let cmux = time_cmux(n, &mut rng);
        let stage_sum: f64 = cmux.stages.iter().map(|(_, ns)| ns).sum();
        let stages: Vec<String> = cmux
            .stages
            .iter()
            .map(|(name, ns)| format!("{name} {ns:.0}"))
            .collect();
        let s_cmux = cmux.staged_hot / cmux.fused_hot;
        // What one CMUX's transforms cost beside the hot staged CMUX of
        // the same rounds, whose other stages (rotate, decompose, MAC,
        // add) are plain loops that calibrate the host: the guard that
        // "kernel ≥ reference" stopped being when the reference began to
        // pay a libm `fma` per operation.
        let transform_share = cmux.transforms_hot / cmux.staged_hot;
        println!(
            "cmux/n{n}: stages [{}] sum {stage_sum:.0} ns; hot staged {:.0} → fused {:.0} ns \
             ({s_cmux:.2}x); streamed staged {:.0} → fused {:.0} ns ({:.2}x); \
             transforms {transform_share:.2} of the hot staged CMUX",
            stages.join(", "),
            cmux.staged_hot,
            cmux.fused_hot,
            cmux.staged_streamed,
            cmux.fused_streamed,
            cmux.staged_streamed / cmux.fused_streamed,
        );
        entries.push(format!(
            "    {{\"poly_size\": {n}, \"runs\": {}, \
             \"reference_forward_ns\": {ref_fwd:.1}, \"kernel_forward_ns\": {ker_fwd:.1}, \
             \"speedup_forward\": {s_fwd:.3}, \
             \"reference_inverse_ns\": {ref_inv:.1}, \"kernel_inverse_ns\": {ker_inv:.1}, \
             \"speedup_inverse\": {s_inv:.3}, \
             \"transform_share_of_staged_cmux\": {transform_share:.3}, \
             \"cmux_stage_sum_ns\": {stage_sum:.1}, \
             \"staged_cmux_ns\": {:.1}, \"fused_cmux_ns\": {:.1}, \"speedup_cmux\": {s_cmux:.3}, \
             \"staged_cmux_streamed_ns\": {:.1}, \"fused_cmux_streamed_ns\": {:.1}}}",
            runs as usize * rounds,
            cmux.staged_hot,
            cmux.fused_hot,
            cmux.staged_streamed,
            cmux.fused_streamed,
        ));
    }

    // Every size above gets the same ISA from detection.
    let isa = NegacyclicFft::new(2048).isa();
    println!("transform_kernel: measured on {isa}");
    let json = format!(
        "{{\n  \"bench\": \"transform_kernel\",\n  \"isa\": \"{isa}\",\n  \"min_speedup_one_poly\": {min_speedup:.3},\n  \"entries\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    if let Err(e) = std::fs::write("BENCH_transform.json", json) {
        eprintln!("could not write BENCH_transform.json: {e}");
        std::process::exit(1);
    }
}
