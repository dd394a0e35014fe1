//! Ablation (DESIGN.md decision #2): negacyclic polynomial multiplication
//! backends — exact integer schoolbook vs FFT vs merge-split pairing —
//! at the paper's polynomial sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use morphling_math::{negacyclic, Polynomial, Torus32};
use morphling_transform::{NegacyclicFft, NegacyclicNtt, Spectrum};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let mut g = c.benchmark_group("poly_mul");
    for n in [512usize, 1024, 2048] {
        let digits = Polynomial::from_fn(n, |_| rng.gen_range(-64i64..64));
        let digits2 = Polynomial::from_fn(n, |_| rng.gen_range(-64i64..64));
        let t = Polynomial::from_fn(n, |_| Torus32::from_raw(rng.gen()));
        let fft = NegacyclicFft::new(n);
        let ntt = NegacyclicNtt::new(n);
        g.bench_with_input(BenchmarkId::new("fft", n), &n, |b, _| {
            b.iter(|| fft.mul_int_torus(std::hint::black_box(&digits), &t))
        });
        g.bench_with_input(BenchmarkId::new("ntt_exact", n), &n, |b, _| {
            b.iter(|| ntt.mul_int_torus(std::hint::black_box(&digits), &t))
        });
        g.bench_with_input(BenchmarkId::new("forward_single", n), &n, |b, _| {
            b.iter(|| fft.forward_int(std::hint::black_box(&digits)))
        });
        let (mut s1, mut s2, mut scratch) = (Spectrum::zero(n), Spectrum::zero(n), Vec::new());
        g.bench_with_input(
            BenchmarkId::new("forward_merge_split_pair", n),
            &n,
            |b, _| {
                b.iter(|| {
                    fft.forward_pair_int_into(
                        std::hint::black_box(&digits),
                        &digits2,
                        &mut s1,
                        &mut s2,
                        &mut scratch,
                    )
                })
            },
        );
        if n <= 1024 {
            g.bench_with_input(BenchmarkId::new("exact_schoolbook", n), &n, |b, _| {
                b.iter(|| negacyclic::mul_int_torus32(std::hint::black_box(&digits), &t))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
