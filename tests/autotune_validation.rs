//! End-to-end run of the simulator-in-the-loop autotuner: the loop the
//! `report autotune` subcommand runs, asserted as a test.
//!
//! Calibrate a [`ServiceModel`] from a live engine run, search the
//! serving-config space for a load/SLO derived from that calibration (so
//! the target adapts to debug vs release builds and fast vs slow hosts),
//! build the recommended stack — `ServingConfig::build_engine` +
//! `Dispatcher::from_config` — and replay the *same seeded arrival
//! schedule* the search scored through the real dispatcher.
//!
//! The search runs the dispatcher's own batching policy on virtual time
//! (DESIGN.md §15), so there is no second model of it to hold against
//! the wall clock. Everything asserted here holds at any host speed: the
//! search is deterministic and feasible, and the real stack accounts for
//! every request, computes every result correctly and never forms a
//! batch larger than the recommendation allows. How *fast* the real
//! stack served is for the benchmark spine (`serve_open_set1`) to gate.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use morphling_repro::prelude::*;
use morphling_repro::tfhe::autotune::{autotune, replay_open_loop};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The recommended engine, with every output it returns decrypted and
/// compared with the expected plaintext on the way out.
struct Checked {
    engine: BootstrapEngine,
    client: ClientKey,
    expect: u64,
    correct: AtomicU64,
    wrong: AtomicU64,
}

impl Bootstrapper for Checked {
    fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
        let outs = self.engine.try_bootstrap_batch(req)?;
        for out in &outs {
            let tally = if self.client.decrypt(out) == self.expect {
                &self.correct
            } else {
                &self.wrong
            };
            tally.fetch_add(1, Ordering::Relaxed);
        }
        Ok(outs)
    }
}

#[test]
fn recommended_config_meets_its_slo_on_the_real_dispatcher() {
    let mut rng = StdRng::seed_from_u64(0xCA11B);
    let params = ParamSet::Test.params();
    let p = params.plaintext_modulus;
    let ck = ClientKey::generate(params.clone(), &mut rng);
    let sk = Arc::new(ServerKey::new(&ck, &mut rng));
    let lut = Arc::new(Lut::identity(params.poly_size, p));
    let message = 1 % p;
    let ct = ck.encrypt(message, &mut rng);

    // Calibrate from a live engine: warm one wave (transform tables,
    // thread wake-up), then measure a clean one.
    let workers = 2usize;
    let engine = BootstrapEngine::builder()
        .workers(workers)
        .build(Arc::clone(&sk))
        .expect("nonzero workers");
    let wave: Vec<_> = (0..workers * 2).map(|_| ct.clone()).collect();
    engine
        .try_bootstrap_batch(&BatchRequest::shared(
            wave[..workers].to_vec(),
            (*lut).clone(),
        ))
        .expect("warm-up wave");
    engine.reset_stats();
    engine
        .try_bootstrap_batch(&BatchRequest::shared(wave, (*lut).clone()))
        .expect("calibration wave");
    let stats = engine.stats();
    drop(engine);
    let model = ServiceModel::from_engine_stats(&stats).expect("bootstraps were measured");
    let bootstrap = Duration::from_nanos(model.bootstrap_ns);

    // A target stated in bootstrap times, so it is the same search at any
    // host speed: at most 30% of one core's throughput, p99 at 10
    // bootstrap times or more.
    let rate = (0.3 / bootstrap.as_secs_f64()).min(500.0);
    let slo = (bootstrap * 10).max(Duration::from_millis(20));
    let mut req = AutotuneRequest::new(SloTarget {
        rate_per_s: rate,
        p99: slo,
    });
    req.max_workers = workers;
    req.requests = 256;
    let tuned = autotune(&model, &req).expect("search over a valid space");
    assert!(
        tuned.slo_met,
        "a 30%-of-capacity load must be feasible: {:?}",
        tuned.predicted
    );
    assert!(tuned.predicted.p99_latency <= slo);
    let again = autotune(&model, &req).expect("same search");
    assert_eq!(again.recommended, tuned.recommended);
    assert_eq!(again.predicted, tuned.predicted);
    assert_eq!(again.trajectory, tuned.trajectory);

    // Build the recommended stack through the unified config API and
    // replay the exact arrival schedule the search scored, about 32
    // arrivals at least and 150 at most.
    let backend = Arc::new(Checked {
        engine: tuned
            .recommended
            .build_engine(Arc::clone(&sk))
            .expect("recommended config validates"),
        client: ck,
        expect: message,
        correct: AtomicU64::new(0),
        wrong: AtomicU64::new(0),
    });
    let dispatcher = Dispatcher::from_config(&tuned.recommended, Arc::clone(&backend))
        .expect("recommended config validates");
    let replay_requests = ((rate * 5.0) as usize).clamp(32, 150);
    let spec = LoadSpec {
        rate_per_s: rate,
        requests: replay_requests,
        seed: req.seed,
        deadline: Some(slo),
    };
    let measured = replay_open_loop(&dispatcher, &spec, &ct, &lut).expect("replay completes");

    // Every request is accounted for. A slow moment on the host may cost
    // a request its deadline; it may not lose one or compute one wrong.
    let refused = measured.rejected + measured.shed;
    assert_eq!(
        measured.completed + measured.expired + refused + measured.failed,
        replay_requests as u64,
        "conservation: {measured:?}"
    );
    assert_eq!(measured.submitted + refused, replay_requests as u64);
    assert_eq!(measured.failed, 0, "no backend errors: {measured:?}");
    assert_eq!(backend.wrong.load(Ordering::Relaxed), 0);
    assert_eq!(backend.correct.load(Ordering::Relaxed), measured.completed);

    // The real batcher kept to the recommended batch cap.
    assert_eq!(
        measured.batches >= 1,
        measured.completed >= 1,
        "{measured:?}"
    );
    let mut batch_sizes: HashMap<u64, usize> = HashMap::new();
    for span in dispatcher.spans() {
        *batch_sizes.entry(span.batch).or_default() += 1;
    }
    assert!(
        batch_sizes
            .values()
            .all(|&n| n <= tuned.recommended.max_batch_size),
        "batch larger than max_batch_size {}: {batch_sizes:?}",
        tuned.recommended.max_batch_size
    );
}

#[test]
fn recommended_config_survives_a_serialization_round_trip() {
    // The capacity-planning artifact (`autotune_config.json`) is the
    // recommended config's own JSON; it must reload into an identical,
    // valid config that builds a working dispatcher.
    let model = ServiceModel::new(Duration::from_millis(1));
    let tuned = autotune(
        &model,
        &AutotuneRequest::new(SloTarget {
            rate_per_s: 100.0,
            p99: Duration::from_millis(25),
        }),
    )
    .expect("synthetic search");
    let reloaded = ServingConfig::from_json(&tuned.recommended.to_json()).expect("own JSON parses");
    assert_eq!(reloaded, tuned.recommended);
    reloaded
        .validate()
        .expect("recommendations are always valid");
}
