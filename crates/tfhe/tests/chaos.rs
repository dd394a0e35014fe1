//! Seeded chaos harness for the self-healing [`BootstrapEngine`].
//!
//! Each scenario installs a deterministic [`FaultPlan`] (worker panics,
//! wedged jobs rescued by the watchdog, silently corrupted outputs caught
//! by the sanity check) and asserts the **survival contract**:
//!
//! - every returned output is bit-identical to the fault-free reference
//!   (the sequential [`Bootstrapper`] path on the bare [`ServerKey`]);
//! - the engine ends the run `Healthy` or `Degraded`, never hung;
//! - the fault counters and the event journal actually recorded the
//!   injected faults (the run was a real chaos run, not a silent no-op);
//! - a zero-rate plan is a bit-for-bit no-op.
//!
//! All seeds are fixed, so CI failures replay locally. These are threaded
//! smokes of the engine's shell; the contracts its supervisor keeps under
//! every fault mix are a 1 000-seed virtual-time sweep in `engine.rs`.

use std::sync::Arc;
use std::time::Duration;

use morphling_math::TorusScalar;

use morphling_tfhe::faults::{corrupt_ciphertext, fault_key};
use morphling_tfhe::{
    noise, BatchRequest, BootstrapEngine, Bootstrapper, ClientKey, EngineHealth, Event, EventKind,
    FaultInjector, FaultPlan, FaultSite, Lut, LweCiphertext, ParamSet, ServerKey, TfheError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup(seed: u64) -> (ClientKey, Arc<ServerKey>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ck = ClientKey::generate(ParamSet::Test.params(), &mut rng);
    let sk = Arc::new(ServerKey::new(&ck, &mut rng));
    (ck, sk, rng)
}

/// The fault and recovery incidents in the engine's journal: everything
/// but the job spans.
fn incidents(engine: &BootstrapEngine) -> Vec<Event> {
    let mut events = engine.journal().events();
    events.retain(|e| !matches!(e.kind, EventKind::Job { .. }));
    events
}

/// Shared-LUT batch through any [`Bootstrapper`] backend.
fn bb(
    backend: &impl Bootstrapper,
    cts: &[LweCiphertext],
    lut: &Lut,
) -> Result<Vec<LweCiphertext>, TfheError> {
    backend.try_bootstrap_batch(&BatchRequest::shared(cts.to_vec(), lut.clone()))
}

fn batch(ck: &ClientKey, rng: &mut StdRng, n: usize) -> Vec<morphling_tfhe::LweCiphertext> {
    (0..n).map(|m| ck.encrypt(m as u64 % 4, rng)).collect()
}

/// Scenario 1: workers panic mid-job at a 25% rate. The engine must
/// catch every panic, respawn the worker loop, retry the failed chunks,
/// and still return the fault-free bits.
#[test]
fn chaos_worker_panics_survive_bit_identical() {
    let (ck, sk, mut rng) = setup(9001);
    let lut = Lut::identity(sk.params().poly_size, 4);
    let cts = batch(&ck, &mut rng, 16);
    let reference = bb(&*sk, &cts, &lut).expect("reference");

    let engine = BootstrapEngine::builder()
        .workers(3)
        .chunk_size(2)
        .respawn_budget(64)
        .max_retries(8)
        .fault_plan(FaultPlan::seeded(0xC0FFEE).with_worker_panic(0.25))
        .build(Arc::clone(&sk))
        .expect("spawn pool");

    let out = bb(&engine, &cts, &lut).expect("survive panics");
    assert_eq!(out, reference, "survivors must be bit-identical");

    let stats = engine.stats();
    assert!(stats.panics > 0, "the plan must actually fire");
    assert_eq!(stats.respawns, stats.panics);
    // No watchdog, so every panic was a live attempt's: one retry each.
    assert_eq!(stats.retries, stats.panics);
    assert_eq!(stats.health, EngineHealth::Healthy, "budget 64 never spent");
    assert!(
        !incidents(&engine).is_empty(),
        "the journal must record the incidents"
    );
}

/// Scenario 2: jobs wedge (sleep far past the watchdog timeout) at a 30%
/// rate. The watchdog must declare them wedged, re-dispatch, and the late
/// duplicate replies must be deduplicated without corrupting order.
#[test]
fn chaos_wedged_jobs_are_rescued_by_the_watchdog() {
    let (ck, sk, mut rng) = setup(9002);
    let lut = Lut::identity(sk.params().poly_size, 4);
    let cts = batch(&ck, &mut rng, 8);
    let reference = bb(&*sk, &cts, &lut).expect("reference");

    let engine = BootstrapEngine::builder()
        .workers(3)
        .chunk_size(1)
        .max_retries(16)
        .job_timeout(Duration::from_millis(250))
        .fault_plan(FaultPlan::seeded(0xBEEF).with_wedged_job(0.3, Duration::from_millis(1500)))
        .build(Arc::clone(&sk))
        .expect("spawn pool");

    let out = bb(&engine, &cts, &lut).expect("survive wedges");
    assert_eq!(out, reference, "survivors must be bit-identical");

    let stats = engine.stats();
    assert!(stats.watchdog_timeouts > 0, "the watchdog must have fired");
    assert!(stats.retries > 0);
    assert_eq!(stats.panics, 0, "wedges are not panics");
    assert_eq!(stats.health, EngineHealth::Healthy, "no worker retired");
}

/// Scenario 3: outputs are silently corrupted (message flipped, shape
/// intact) at a 30% rate. An output sanity check against the reference
/// must catch every corruption and drive retries until clean bits come
/// back.
#[test]
fn chaos_corrupted_outputs_are_caught_by_the_sanity_check() {
    let (ck, sk, mut rng) = setup(9003);
    let lut = Lut::identity(sk.params().poly_size, 4);
    let cts = batch(&ck, &mut rng, 12);
    let reference = bb(&*sk, &cts, &lut).expect("reference");

    let check_ref = reference.clone();
    let engine = BootstrapEngine::builder()
        .workers(2)
        .chunk_size(3)
        .max_retries(16)
        .fault_plan(FaultPlan::seeded(0xDEAD).with_corrupt_output(0.3))
        .output_check(move |i, ct| ct == &check_ref[i])
        .build(Arc::clone(&sk))
        .expect("spawn pool");

    let out = bb(&engine, &cts, &lut).expect("survive corruption");
    assert_eq!(out, reference, "only clean bits may be returned");

    let stats = engine.stats();
    assert!(stats.check_failures > 0, "the check must have fired");
    assert!(stats.retries > 0);
    assert_eq!(stats.health, EngineHealth::Healthy);
}

/// A worker bootstraps its chunk as a whole (one fetch of each `BSK_i`
/// for all of it), but faults stay keyed per ciphertext and attempt: the
/// outcomes are exactly those the stateless injector predicts for
/// `fault_key(batch, i)`, whatever the chunking.
#[test]
fn chaos_fault_keys_stay_per_ciphertext_on_the_chunked_path() {
    let (ck, sk, mut rng) = setup(9008);
    let lut = Lut::identity(sk.params().poly_size, 4);
    let cts = batch(&ck, &mut rng, 12);
    let reference = bb(&*sk, &cts, &lut).expect("reference");

    // Corruption with no output check installed: precisely the predicted
    // ciphertexts of the first batch come back tampered.
    let plan = FaultPlan::seeded(0xABCD).with_corrupt_output(0.4);
    let oracle = FaultInjector::new(plan);
    let engine = BootstrapEngine::builder()
        .workers(2)
        .chunk_size(4)
        .fault_plan(plan)
        .build(Arc::clone(&sk))
        .expect("spawn pool");
    let out = bb(&engine, &cts, &lut).expect("unchecked corruption is not an error");
    let mut tampered = 0;
    for (i, (got, clean)) in out.iter().zip(&reference).enumerate() {
        let hit = oracle.fires(FaultSite::CorruptOutput, fault_key(0, i), 0);
        tampered += usize::from(hit);
        let want = if hit {
            corrupt_ciphertext(clean)
        } else {
            clean.clone()
        };
        assert_eq!(*got, want, "ciphertext {i} (predicted tampered: {hit})");
    }
    assert!(
        (1..12).contains(&tampered),
        "the plan must hit some ciphertexts and spare others, hit {tampered}"
    );

    // Panics: a chunk's attempt dies iff the panic site of one of its
    // ciphertexts fires for that attempt, and is retried until none does.
    let plan = FaultPlan::seeded(0x5EED).with_worker_panic(0.2);
    let oracle = FaultInjector::new(plan);
    let predicted: usize = (0..12)
        .step_by(4)
        .map(|start| {
            (0u32..)
                .take_while(|&attempt| {
                    (start..start + 4)
                        .any(|i| oracle.fires(FaultSite::WorkerPanic, fault_key(0, i), attempt))
                })
                .count()
        })
        .sum();
    assert!(predicted > 0, "the plan must actually fire");
    let engine = BootstrapEngine::builder()
        .workers(2)
        .chunk_size(4)
        .respawn_budget(64)
        .max_retries(32)
        .fault_plan(plan)
        .build(Arc::clone(&sk))
        .expect("spawn pool");
    let out = bb(&engine, &cts, &lut).expect("survive panics");
    assert_eq!(out, reference);
    assert_eq!(engine.stats().panics, predicted as u64);
}

/// A zero-rate plan must be indistinguishable from no plan at all:
/// identical outputs, zero fault counters, empty journal, Healthy.
#[test]
fn chaos_zero_rate_plan_is_a_noop() {
    let (ck, sk, mut rng) = setup(9004);
    let lut = Lut::identity(sk.params().poly_size, 4);
    let cts = batch(&ck, &mut rng, 10);

    let plain = BootstrapEngine::builder()
        .workers(2)
        .chunk_size(2)
        .build(Arc::clone(&sk))
        .expect("spawn pool");
    let chaos = BootstrapEngine::builder()
        .workers(2)
        .chunk_size(2)
        .fault_plan(FaultPlan::none())
        .build(Arc::clone(&sk))
        .expect("spawn pool");

    let a = bb(&plain, &cts, &lut).expect("plain");
    let b = bb(&chaos, &cts, &lut).expect("zero-rate");
    assert_eq!(a, b, "zero-rate plan must not change a single bit");
    assert_eq!(a, bb(&*sk, &cts, &lut).expect("reference"));

    let stats = chaos.stats();
    assert_eq!(
        (
            stats.panics,
            stats.retries,
            stats.watchdog_timeouts,
            stats.check_failures
        ),
        (0, 0, 0, 0)
    );
    assert!(incidents(&chaos).is_empty());
    assert_eq!(stats.health, EngineHealth::Healthy);
}

/// A pool whose every worker dies (panic rate 1.0, zero respawns) must
/// fail fast with an error — and subsequent submissions must return
/// `EngineShutDown` instead of hanging.
#[test]
fn chaos_full_pool_death_errors_instead_of_hanging() {
    let (ck, sk, mut rng) = setup(9005);
    let lut = Lut::identity(sk.params().poly_size, 4);
    let cts = batch(&ck, &mut rng, 4);

    let engine = BootstrapEngine::builder()
        .workers(2)
        .respawn_budget(0)
        .max_retries(2)
        .fault_plan(FaultPlan::seeded(0xF00D).with_worker_panic(1.0))
        .build(Arc::clone(&sk))
        .expect("spawn pool");

    // Each worker panics once and retires, so no chunk spends its retries:
    // the reply that retires the last one fails the batch, and the pool is
    // already dead when the call returns.
    let err = bb(&engine, &cts, &lut).expect_err("a fully dead pool cannot serve");
    assert_eq!(err, TfheError::EngineShutDown);
    assert_eq!(engine.health(), EngineHealth::Failed);
    assert_eq!(
        bb(&engine, &cts, &lut).err(),
        Some(TfheError::EngineShutDown)
    );
    let events = incidents(&engine);
    assert!(events.len() >= 2, "both workers journaled their demise");
}

/// Shutdown must be idempotent, and submissions after shutdown must
/// error — the degraded-mode contract's terminal state.
#[test]
fn chaos_shutdown_is_idempotent_and_terminal() {
    let (ck, sk, mut rng) = setup(9006);
    let lut = Lut::identity(sk.params().poly_size, 4);
    let cts = batch(&ck, &mut rng, 3);
    let mut engine = BootstrapEngine::builder()
        .workers(2)
        .build(Arc::clone(&sk))
        .expect("spawn pool");
    bb(&engine, &cts, &lut).expect("healthy batch");
    engine.shutdown();
    engine.shutdown();
    engine.shutdown();
    assert_eq!(engine.health(), EngineHealth::Failed);
    assert_eq!(
        bb(&engine, &cts, &lut).err(),
        Some(TfheError::EngineShutDown)
    );
}

/// Monte-Carlo validation of [`noise::failure_probability`]: encrypt many
/// ciphertexts under a deliberately noisy parameter set and compare the
/// empirical decode-failure fraction against the analytic `erfc` model.
#[test]
fn chaos_failure_probability_matches_measured_errors() {
    let mut params = ParamSet::Test.params();
    // Inflate the fresh-encryption noise until the analytic model predicts
    // a ~10% failure rate: margin/(σ√2) ≈ 1.16 at p = 4.
    params.lwe_noise_std = 0.038;
    let p = params.plaintext_modulus;
    let predicted = noise::failure_probability(params.lwe_noise_std, p);
    assert!(
        (0.05..0.20).contains(&predicted),
        "test setup: predicted {predicted}"
    );

    let mut rng = StdRng::seed_from_u64(9007);
    let ck = ClientKey::generate(params.clone(), &mut rng);
    let margin = noise::decryption_margin(p);
    let trials = 4000;
    let failures = (0..trials)
        .filter(|i| {
            let m = i % p;
            let ct = ck.encrypt(m, &mut rng);
            let intended = morphling_math::Torus32::encode(m, 2 * p);
            noise::measured_error(&ck, &ct, intended).abs() >= margin
        })
        .count();
    let empirical = failures as f64 / trials as f64;
    // Binomial std at p≈0.1, n=4000 is ≈0.5%; allow 4σ plus model slack.
    assert!(
        (empirical - predicted).abs() < 0.03,
        "empirical {empirical} vs predicted {predicted}"
    );
}
