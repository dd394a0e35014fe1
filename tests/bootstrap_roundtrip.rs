//! Root-crate integration coverage for the bare `cargo test` entry point:
//! a full encrypt → programmable-bootstrap → decrypt round trip (plain,
//! workspace, and engine paths) and an accelerator-simulator smoke test,
//! all through the umbrella re-exports.

use std::sync::Arc;

use morphling_repro::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Encrypt → PBS → decrypt through every serving path the crate offers:
/// the plain `ServerKey` call, the caller-owned-workspace call (which must
/// be bit-identical), and the persistent `BootstrapEngine` pool.
#[test]
fn bootstrap_round_trip_across_all_paths() {
    let mut rng = StdRng::seed_from_u64(11);
    let params = ParamSet::Test.params();
    let client = ClientKey::generate(params.clone(), &mut rng);
    let server = Arc::new(ServerKey::builder().build(&client, &mut rng));
    let lut = Lut::from_fn(params.poly_size, 4, |m| (3 * m) % 4);

    let cts: Vec<_> = (0..4).map(|m| client.encrypt(m, &mut rng)).collect();

    // Plain path.
    let plain: Vec<_> = cts
        .iter()
        .map(|ct| server.programmable_bootstrap(ct, &lut))
        .collect();
    for (m, out) in plain.iter().enumerate() {
        assert_eq!(client.decrypt(out), (3 * m as u64) % 4, "plain m={m}");
    }

    // Workspace path: one warm workspace across the whole batch,
    // bit-identical outputs.
    let mut ws = server.workspace();
    for (ct, want) in cts.iter().zip(&plain) {
        let opts = BootstrapOptions::new().workspace(&mut ws);
        let out = server
            .bootstrap_with_options(ct, &lut, opts)
            .expect("workspace bootstrap");
        assert_eq!(&out, want, "workspace path diverged from plain path");
    }

    // Engine path: the worker pool (each worker holds its own long-lived
    // workspace) returns the same ciphertexts in order, through the
    // unified `Bootstrapper` batch API.
    let engine = BootstrapEngine::builder()
        .workers(2)
        .build(Arc::clone(&server))
        .expect("nonzero workers");
    let req = BatchRequest::shared(cts.clone(), lut.clone());
    let pooled = engine.try_bootstrap_batch(&req).expect("engine batch");
    assert_eq!(pooled, plain, "engine path diverged from plain path");
    assert_eq!(engine.stats().bootstraps, 4);
    assert!(engine.stats().mean_bootstrap_time().is_some());

    // Dispatcher path: the dynamic-batching front-end coalesces the same
    // requests and returns the same bits.
    let dispatcher = Dispatcher::new(Arc::clone(&server));
    let dispatched = dispatcher
        .try_bootstrap_batch(&req)
        .expect("dispatcher batch");
    assert_eq!(dispatched, plain, "dispatcher path diverged");
    assert_eq!(dispatcher.stats().completed, 4);
}

/// The accelerator model answers through the umbrella: a simulated
/// bootstrap batch at a paper parameter set reports nonzero throughput,
/// and reuse never slows it down.
#[test]
fn simulator_smoke_through_umbrella() {
    let params = ParamSet::I.params();
    let sim = Simulator::new(ArchConfig::morphling_default());
    let run = sim.bootstrap_batch(&params, 16);
    let tput = run.throughput_bs_per_s();
    assert!(tput > 0.0, "simulated throughput must be positive");

    let no_reuse = Simulator::new(ArchConfig::morphling_default().with_reuse(ReuseMode::NoReuse))
        .bootstrap_batch(&params, 16)
        .throughput_bs_per_s();
    assert!(
        tput >= no_reuse,
        "reuse must not reduce throughput ({tput} vs {no_reuse})"
    );
}
