//! Fig 1: operation/memory/time breakdown of bootstrapping at the 128-bit
//! configuration. Prints the regenerated figure data, then measures the
//! real stage split (blind rotation vs key switch) of our CPU
//! implementation at the Fig 1 parameters.

use criterion::{criterion_group, criterion_main, Criterion};
use morphling_tfhe::{BootstrapOptions, ClientKey, Lut, ParamSet, ServerKey};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench(c: &mut Criterion) {
    println!("{}", morphling_bench::fig1_report());

    let mut rng = StdRng::seed_from_u64(1);
    let params = ParamSet::Fig1.params();
    let ck = ClientKey::generate(params.clone(), &mut rng);
    let sk = ServerKey::new(&ck, &mut rng);
    let ct = ck.encrypt(1, &mut rng);
    let lut = Lut::identity(params.poly_size, params.plaintext_modulus);

    let mut g = c.benchmark_group("fig1");
    g.sample_size(10);
    let no_ks = |ct| {
        sk.bootstrap_with_options(ct, &lut, BootstrapOptions::new().keyswitch(false))
            .expect("bootstrap without the key switch")
    };
    g.bench_function("cpu_blind_rotation_and_extract", |b| {
        b.iter(|| no_ks(std::hint::black_box(&ct)))
    });
    let extracted = no_ks(&ct);
    g.bench_function("cpu_key_switch", |b| {
        b.iter(|| {
            sk.key_switch_key()
                .key_switch(std::hint::black_box(&extracted))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
