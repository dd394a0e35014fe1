//! Multi-value bootstrapping: k LUTs of one input for one blind rotation.
//!
//! The common-factor plan ([`MultiLutPlan`](morphling_tfhe::MultiLutPlan))
//! rotates a shared accumulator once and derives every LUT's output from
//! it with a cheap sparse MAC, so k outputs cost one rotation plus k
//! derivations instead of k full rotations. This bench pins the amortized
//! per-LUT speedup:
//!
//! - `fused`: [`ServerKey::try_programmable_bootstrap_many_with`] — one
//!   rotation, k extractions;
//! - `separate`: [`ServerKey::try_programmable_bootstrap_many_separate`]
//!   — the same derivation paying one rotation per LUT (bit-identical to
//!   `fused` by construction, which the bench asserts before timing).
//!
//! Each shape is timed directly and the results land in
//! `BENCH_multivalue.json` (CI validates and archives it) with ns per LUT
//! and the `amortized_speedup` at k = 4. A failed write exits non-zero.

use std::time::Instant;

use morphling_tfhe::{ClientKey, Lut, LweCiphertext, ParamSet, ServerKey};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Fixture {
    server: ServerKey,
    ct: LweCiphertext,
    luts: Vec<Lut>,
}

fn fixture() -> Fixture {
    let mut rng = StdRng::seed_from_u64(4343);
    let params = ParamSet::Test.params();
    let ck = ClientKey::generate(params.clone(), &mut rng);
    let server = ServerKey::new(&ck, &mut rng);
    let ct = ck.encrypt(2, &mut rng);
    let p = params.plaintext_modulus;
    // Eight distinct small-range LUTs — the shapes applications fan out
    // (comparisons, clamps, affine relabelings).
    let luts: Vec<Lut> = (0..8)
        .map(|i| {
            let i = i as u64;
            Lut::from_fn(params.poly_size, p, move |m| match i % 4 {
                0 => (m + i) % p,
                1 => u64::from(m > i % 3),
                2 => m / 2,
                _ => (3 * m + i) % p,
            })
        })
        .collect();
    Fixture { server, ct, luts }
}

/// Time `runs` evaluations of `op`, returning ns per evaluation.
fn time_ns(mut op: impl FnMut() -> Vec<LweCiphertext>, runs: u32) -> f64 {
    let t0 = Instant::now();
    for _ in 0..runs {
        std::hint::black_box(op());
    }
    t0.elapsed().as_nanos() as f64 / f64::from(runs)
}

fn main() {
    let f = fixture();

    let mut entries = Vec::new();
    let mut k4_speedup = 0.0f64;
    for k in [1usize, 2, 4, 8] {
        let luts = &f.luts[..k];
        // Hold the two paths to their bit-identity contract before timing.
        let fused = f
            .server
            .try_programmable_bootstrap_many_with(&f.ct, luts, &mut f.server.workspace())
            .unwrap();
        let separate = f
            .server
            .try_programmable_bootstrap_many_separate(&f.ct, luts)
            .unwrap();
        assert_eq!(fused, separate, "k={k}: paths must be bit-identical");

        // Interleave the two paths so machine-load drift hits both alike.
        let (runs, rounds) = (10u32, 5u32);
        let (mut fused_ns, mut separate_ns) = (0.0, 0.0);
        for _ in 0..rounds {
            fused_ns += time_ns(
                || {
                    f.server
                        .try_programmable_bootstrap_many_with(
                            &f.ct,
                            luts,
                            &mut f.server.workspace(),
                        )
                        .unwrap()
                },
                runs,
            );
            separate_ns += time_ns(
                || {
                    f.server
                        .try_programmable_bootstrap_many_separate(&f.ct, luts)
                        .unwrap()
                },
                runs,
            );
        }
        let fused_ns = fused_ns / f64::from(rounds);
        let separate_ns = separate_ns / f64::from(rounds);
        let per_lut_fused = fused_ns / k as f64;
        let per_lut_separate = separate_ns / k as f64;
        let speedup = separate_ns / fused_ns;
        if k == 4 {
            k4_speedup = speedup;
        }
        println!(
            "multivalue_bootstrap/k{k}: fused {per_lut_fused:.0} ns/LUT, \
             separate {per_lut_separate:.0} ns/LUT; amortized speedup {speedup:.2}x"
        );
        entries.push(format!(
            "    {{\"k\": {k}, \"runs\": {}, \
             \"fused_ns_per_lut\": {per_lut_fused:.1}, \
             \"separate_ns_per_lut\": {per_lut_separate:.1}, \
             \"fused_ns_total\": {fused_ns:.1}, \
             \"separate_ns_total\": {separate_ns:.1}, \
             \"amortized_speedup\": {speedup:.3}}}",
            runs * rounds
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"multivalue_bootstrap\",\n  \"amortized_speedup\": {k4_speedup:.3},\n  \"entries\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    if let Err(e) = std::fs::write("BENCH_multivalue.json", json) {
        eprintln!("could not write BENCH_multivalue.json: {e}");
        std::process::exit(1);
    }
}
