//! End-to-end private inference: an encrypted decision tree and an
//! encrypted quantized MLP (the functional cores of the paper's XG-Boost
//! and DeepCNN workloads), plus the projected Table VI execution times for
//! the full-size models on the accelerator.
//!
//! ```text
//! cargo run --release --example private_inference
//! ```

use morphling_repro::apps::functional::{DecisionTree, MlpModel};
use morphling_repro::apps::runtime::InferenceDriver;
use morphling_repro::apps::{models, runtime, xgboost::XgBoostModel};
use morphling_repro::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::slice;

/// One line of per-inference cost, read off the engine that ran them.
fn print_cost(engine: &BootstrapEngine, inferences: u64) {
    let stats = engine.stats();
    println!(
        "  per inference: {} blind rotations, {} extractions ({:.1} BS/s per core)",
        stats.bootstraps / inferences,
        stats.extractions / inferences,
        stats.bootstraps_per_core_sec()
    );
}

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let params = ParamSet::TestMedium.params();
    let client = ClientKey::generate(params, &mut rng);
    let server = std::sync::Arc::new(ServerKey::builder().build(&client, &mut rng));
    // One persistent worker pool serves every wave below — the software
    // analogue of Morphling's always-resident bootstrapping cores.
    let engine = BootstrapEngine::new(std::sync::Arc::clone(&server));
    let driver = InferenceDriver::new(&server, &engine);

    // 1. Encrypted decision tree (XG-Boost's primitive): both children
    //    test feature 1, so its three comparisons share two rotations.
    println!("encrypted decision tree (fused wave, one request each):");
    let tree = DecisionTree {
        root: (0, 4),
        left: (1, 2),
        right: (1, 6),
        leaves: [0, 1, 2, 3],
    };
    let inputs = [(2u64, 1u64), (2, 5), (6, 3), (6, 7)];
    for (x0, x1) in inputs {
        let feats = vec![client.encrypt(x0, &mut rng), client.encrypt(x1, &mut rng)];
        let outs = driver
            .classify_tree_wave_fused(&tree, slice::from_ref(&feats))
            .expect("engine");
        let class = client.decrypt(&outs[0]);
        println!("  features ({x0}, {x1}) → class {class}");
        assert_eq!(class, tree.classify_clear(&[x0, x1]));
    }
    print_cost(&engine, inputs.len() as u64);

    // 2. Encrypted quantized MLP (DeepCNN's primitive), its ReLUs and
    //    decision batched through a pool on its own key.
    println!("\nencrypted 2-2-1 MLP (one request each):");
    let mut rng2 = StdRng::seed_from_u64(12);
    let params16 = ParamSet::TestMedium.params().with_plaintext_modulus(16);
    let client16 = ClientKey::generate(params16, &mut rng2);
    let server16 = std::sync::Arc::new(ServerKey::builder().build(&client16, &mut rng2));
    let engine16 = BootstrapEngine::new(std::sync::Arc::clone(&server16));
    let driver16 = InferenceDriver::new(&server16, &engine16);
    let model = MlpModel::demo();
    let inputs = [(0u64, 0u64), (1, 3), (3, 1), (3, 3)];
    for (x0, x1) in inputs {
        let pair = (
            client16.encrypt(x0, &mut rng2),
            client16.encrypt(x1, &mut rng2),
        );
        let outs = driver16
            .infer_mlp_wave(&model, slice::from_ref(&pair))
            .expect("engine");
        let class = client16.decrypt(&outs[0]);
        println!("  input ({x0}, {x1}) → class {class}");
        assert_eq!(class, model.infer_clear(x0, x1));
    }
    print_cost(&engine16, inputs.len() as u64);

    // 3. Full-size Table VI projections on the accelerator.
    println!("\nprojected full-model execution (Table VI):");
    let rt = runtime::AppRuntime::paper_default();
    let workloads = [
        (
            "XG-Boost (100 trees, depth 6)",
            XgBoostModel::paper_benchmark().workload(),
        ),
        ("DeepCNN-20", models::deep_cnn(20).workload()),
        ("DeepCNN-100", models::deep_cnn(100).workload()),
        ("VGG-9", models::vgg9().workload()),
    ];
    for (name, w) in workloads {
        let est = runtime::estimate(&w, &rt);
        println!(
            "  {:<30} Morphling {:>7.3} s | CPU {:>8.2} s | speedup {:>4.0}x",
            name,
            est.morphling_seconds,
            est.cpu_seconds,
            est.speedup()
        );
    }
    println!("\nall encrypted results matched plaintext ✓");
}
