//! Table VI: application execution time (XG-Boost, DeepCNN, VGG-9) on
//! Morphling vs the CPU baseline — plus a live encrypted decision-tree
//! inference on the functional substrate.

use criterion::{criterion_group, criterion_main, Criterion};
use morphling_apps::functional::DecisionTree;
use morphling_apps::runtime::InferenceDriver;
use morphling_apps::{models, runtime, xgboost::XgBoostModel};
use morphling_tfhe::{ClientKey, ParamSet, ServerKey};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench(c: &mut Criterion) {
    println!("{}", morphling_bench::table6_report());

    let rt = runtime::AppRuntime::paper_default();
    let mut g = c.benchmark_group("table6");
    g.bench_function("estimate_all_apps", |b| {
        b.iter(|| {
            let apps = [
                XgBoostModel::paper_benchmark().workload(),
                models::deep_cnn(20).workload(),
                models::deep_cnn(50).workload(),
                models::deep_cnn(100).workload(),
                models::vgg9().workload(),
            ];
            apps.map(|w| runtime::estimate(std::hint::black_box(&w), &rt).speedup())
        })
    });

    // A real encrypted tree inference: one fused wave of one request
    // (2 comparison rotations + the leaf lookup).
    g.sample_size(10);
    let mut rng = StdRng::seed_from_u64(3);
    let ck = ClientKey::generate(ParamSet::TestMedium.params(), &mut rng);
    let sk = ServerKey::new(&ck, &mut rng);
    let driver = InferenceDriver::new(&sk, &sk);
    let tree = DecisionTree {
        root: (0, 4),
        left: (1, 2),
        right: (1, 6),
        leaves: [0, 1, 2, 3],
    };
    let feats = vec![ck.encrypt(3, &mut rng), ck.encrypt(5, &mut rng)];
    g.bench_function("encrypted_tree_inference", |b| {
        b.iter(|| {
            driver
                .classify_tree_wave_fused(std::hint::black_box(&tree), std::slice::from_ref(&feats))
                .expect("bare server key")
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
