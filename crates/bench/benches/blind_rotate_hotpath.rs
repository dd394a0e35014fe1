//! Hot-path ablation for the zero-allocation blind rotation.
//!
//! Three tiers of the same dataflow, all bit-identical:
//!
//! - `seed`: the original hot path — signed decomposition allocates a
//!   fresh digit vector per *coefficient* (N allocations per component
//!   per CMUX), plus fresh spectra and ciphertexts per step;
//! - `allocating`: the current allocating API ([`rotate_cmux`] chain) —
//!   per-step buffers, but the per-coefficient vectors are gone;
//! - `workspace`: [`blind_rotate_assign`] through a warm
//!   [`BootstrapWorkspace`] — zero heap allocations in steady state (the
//!   software analogue of the paper's fixed POLY-ACC-REG / Coef-buffer
//!   register files; nothing is "allocated" per CMUX in hardware).
//!
//! Two shapes are measured: the `Test` set (N = 256) and an
//! allocation-dominated N = 64 variant. Besides the criterion group, the
//! bench times each tier directly and writes `BENCH_hotpath.json` (CI
//! archives it) with ns per full blind rotation and the speedups.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use morphling_math::{Polynomial, SignedDecomposer, Torus32, TorusScalar};
use morphling_tfhe::{
    blind_rotate_assign, BootstrapKey, BootstrapWorkspace, ClientKey, ExternalProductEngine,
    GlweCiphertext, ParamSet, TfheParams,
};
use morphling_transform::Spectrum;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Fixture {
    label: &'static str,
    engine: ExternalProductEngine,
    decomposer: SignedDecomposer<Torus32>,
    bsk: BootstrapKey,
    acc0: GlweCiphertext,
    mask: Vec<u64>,
}

fn fixture(label: &'static str, params: TfheParams) -> Fixture {
    let mut rng = StdRng::seed_from_u64(4242);
    let ck = ClientKey::generate(params.clone(), &mut rng);
    let bsk = BootstrapKey::generate(&ck, &mut rng);
    let engine = ExternalProductEngine::new(&params);
    let decomposer = SignedDecomposer::new(params.bsk_decomp);
    let tp = Polynomial::from_fn(params.poly_size, |j| Torus32::encode((j % 4) as u64, 8));
    let acc0 = GlweCiphertext::trivial(tp, params.glwe_dim);
    // Nonzero exponents so every step runs a real external product.
    let mask: Vec<u64> = (1..=params.lwe_dim as u64)
        .map(|i| 1 + (i * 97) % (params.two_n() - 1))
        .collect();
    Fixture {
        label,
        engine,
        decomposer,
        bsk,
        acc0,
        mask,
    }
}

/// The seed's hot path, reproduced through today's public API: the signed
/// decomposition runs coefficient by coefficient, each call returning a
/// freshly allocated digit vector — N heap allocations per component per
/// CMUX step — and every intermediate (digit polys, spectra, accumulator
/// spectra, output components) is built from scratch each step.
fn seed_rotation(f: &Fixture) -> GlweCiphertext {
    let l = f.decomposer.params().level();
    let n = f.acc0.poly_size();
    let k1 = f.acc0.dim() + 1;
    let fft = f.engine.fft();
    let mut acc = f.acc0.clone();
    for (i, &a_tilde) in f.mask.iter().enumerate() {
        if a_tilde == 0 {
            continue;
        }
        let lambda = acc.monomial_mul_minus_one(a_tilde as i64);
        let bsk_i = f.bsk.fourier(i);
        let mut digit_polys: Vec<Polynomial<i64>> = Vec::with_capacity(k1 * l);
        for comp in lambda.components() {
            let mut polys = vec![Polynomial::zero(n); l];
            for j in 0..n {
                let digits = f.decomposer.decompose_scalar(comp[j]);
                for (dp, &d) in polys.iter_mut().zip(&digits) {
                    dp[j] = d;
                }
            }
            digit_polys.extend(polys);
        }
        let mut spectra = Vec::with_capacity(digit_polys.len());
        let mut chunks = digit_polys.chunks_exact(2);
        for pair in &mut chunks {
            let (mut s0, mut s1) = (Spectrum::zero(n), Spectrum::zero(n));
            fft.forward_pair_int_into(&pair[0], &pair[1], &mut s0, &mut s1, &mut Vec::new());
            spectra.push(s0);
            spectra.push(s1);
        }
        if let [last] = chunks.remainder() {
            spectra.push(fft.forward_int(last));
        }
        let mut acc_spec: Vec<Spectrum> = (0..k1).map(|_| Spectrum::zero(n)).collect();
        for (r, ds) in spectra.iter().enumerate() {
            let row = bsk_i.row(r);
            for (u, a) in acc_spec.iter_mut().enumerate() {
                a.mul_acc(ds, &row[u]);
            }
        }
        let mut comps = Vec::with_capacity(k1);
        let mut it = acc_spec.chunks_exact(2);
        for pair in &mut it {
            let (mut p0, mut p1) = (Polynomial::zero(n), Polynomial::zero(n));
            fft.inverse_pair_torus_into(&pair[0], &pair[1], &mut p0, &mut p1, &mut Vec::new());
            comps.push(p0);
            comps.push(p1);
        }
        if let [last] = it.remainder() {
            comps.push(fft.inverse_torus(last));
        }
        acc = acc.add(&GlweCiphertext::from_components(comps));
    }
    acc
}

/// The current allocating API: per-step buffers, no per-coefficient ones.
fn allocating_rotation(f: &Fixture) -> GlweCiphertext {
    let mut acc = f.acc0.clone();
    for (i, &a_tilde) in f.mask.iter().enumerate() {
        if a_tilde == 0 {
            continue;
        }
        acc = f.engine.rotate_cmux(f.bsk.fourier(i), &acc, a_tilde as i64);
    }
    acc
}

fn workspace_rotation(f: &Fixture, ws: &mut BootstrapWorkspace) -> GlweCiphertext {
    let mut acc = f.acc0.clone();
    blind_rotate_assign(&f.engine, &f.bsk, &mut acc, &f.mask, ws);
    acc
}

/// Time `runs` full blind rotations of `op`, returning ns per rotation.
fn time_ns(mut op: impl FnMut() -> GlweCiphertext, runs: u32) -> f64 {
    let t0 = Instant::now();
    for _ in 0..runs {
        std::hint::black_box(op());
    }
    t0.elapsed().as_nanos() as f64 / f64::from(runs)
}

fn bench(c: &mut Criterion) {
    let small = {
        // The Test shape shrunk to N = 64: same gadget, same LWE
        // dimension, an FFT small enough that allocation dominates.
        let mut p = ParamSet::Test.params();
        p.poly_size = 64;
        p
    };
    let fixtures = [
        fixture("test_n256", ParamSet::Test.params()),
        fixture("small_n64", small),
    ];

    let mut g = c.benchmark_group("blind_rotate_hotpath");
    g.sample_size(10);
    let mut entries = Vec::new();
    let mut best_speedup = 0.0f64;
    for f in &fixtures {
        let n = f.acc0.poly_size();
        let mut ws = f.engine.workspace(f.acc0.dim());
        // Warm every path (FFT twiddles, workspace scratch) before
        // measuring, and hold the tiers to their bit-identity contract.
        let reference = seed_rotation(f);
        assert_eq!(reference, allocating_rotation(f), "tiers must agree");
        assert_eq!(
            reference,
            workspace_rotation(f, &mut ws),
            "tiers must agree"
        );

        g.bench_with_input(BenchmarkId::new("seed", n), &f, |b, f| {
            b.iter(|| seed_rotation(std::hint::black_box(f)))
        });
        g.bench_with_input(BenchmarkId::new("allocating", n), &f, |b, f| {
            b.iter(|| allocating_rotation(std::hint::black_box(f)))
        });
        {
            let ws = &mut ws;
            g.bench_with_input(BenchmarkId::new("workspace", n), &f, |b, f| {
                b.iter(|| workspace_rotation(std::hint::black_box(f), ws))
            });
        }

        // Direct measurement for the JSON artifact (criterion's reporting
        // is console-only in the vendored harness). Interleave the tiers
        // so slow drift in machine load hits all three alike.
        let (runs, rounds) = (10u32, 5u32);
        let (mut seed_ns, mut alloc_ns, mut ws_ns) = (0.0, 0.0, 0.0);
        for _ in 0..rounds {
            seed_ns += time_ns(|| seed_rotation(f), runs);
            alloc_ns += time_ns(|| allocating_rotation(f), runs);
            ws_ns += time_ns(|| workspace_rotation(f, &mut ws), runs);
        }
        let (seed_ns, alloc_ns, ws_ns) = (
            seed_ns / f64::from(rounds),
            alloc_ns / f64::from(rounds),
            ws_ns / f64::from(rounds),
        );
        let vs_seed = seed_ns / ws_ns;
        let vs_alloc = alloc_ns / ws_ns;
        best_speedup = best_speedup.max(vs_seed);
        println!(
            "blind_rotate_hotpath/{}: seed {seed_ns:.0} ns, allocating {alloc_ns:.0} ns, \
             workspace {ws_ns:.0} ns per rotation; speedup {vs_seed:.2}x vs seed, \
             {vs_alloc:.2}x vs allocating",
            f.label
        );
        entries.push(format!(
            "    {{\"label\": \"{}\", \"poly_size\": {n}, \"glwe_dim\": {}, \
             \"lwe_dim\": {}, \"runs\": {}, \
             \"seed_ns_per_rotation\": {seed_ns:.1}, \
             \"allocating_ns_per_rotation\": {alloc_ns:.1}, \
             \"workspace_ns_per_rotation\": {ws_ns:.1}, \
             \"speedup_vs_seed\": {vs_seed:.3}, \"speedup_vs_allocating\": {vs_alloc:.3}}}",
            f.label,
            f.acc0.dim(),
            f.mask.len(),
            runs * rounds
        ));
    }
    g.finish();

    let json = format!(
        "{{\n  \"bench\": \"blind_rotate_hotpath\",\n  \"speedup\": {best_speedup:.3},\n  \"entries\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    if let Err(e) = std::fs::write("BENCH_hotpath.json", json) {
        eprintln!("could not write BENCH_hotpath.json: {e}");
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
