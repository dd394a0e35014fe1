//! Threaded smoke for the dynamic-batching [`Dispatcher`].
//!
//! The serving contract's accounting — every request resolves exactly
//! once, the counters add up, sheds and refusals mint no id, retries stay
//! in budget, breaker transitions reconcile with the journal — is checked
//! over 1 000 seeds on virtual time, in-crate (`policy.rs`,
//! `a_thousand_seeds_keep_every_contract`). What is left here needs real
//! threads or real ciphertexts, one seed each:
//!
//! - **degraded mode is lossless**: with a killed primary behind a
//!   [`FailoverBootstrapper`], every request is still served bit-identically
//!   by a fallback tier, and the breaker/journal counters agree;
//! - **shutdown drains**: everything already accepted completes;
//! - **a blocked `submit` wakes** once the full queue has room;
//! - **budgets stop at the deadline**: a request through dispatcher →
//!   failover → a dead engine costs a bounded number of worker panics.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use morphling_tfhe::journal;
use morphling_tfhe::{
    BatchRequest, BootstrapEngine, Bootstrapper, BreakerConfig, ClientKey, Dispatcher,
    FailoverBootstrapper, FaultPlan, Lut, LweCiphertext, ParamSet, RetryConfig, ServerKey,
    ServingConfig, TfheError, Who,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn setup(seed: u64) -> (ClientKey, Arc<ServerKey>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ck = ClientKey::generate(ParamSet::Test.params(), &mut rng);
    let sk = Arc::new(ServerKey::builder().build(&ck, &mut rng));
    (ck, sk, rng)
}

/// A backend that blocks on a gate: lets the test wedge the batcher
/// deterministically and fill the queue to the brim.
struct GatedBackend {
    inner: Arc<ServerKey>,
    gate: Mutex<mpsc::Receiver<()>>,
}

impl Bootstrapper for GatedBackend {
    fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
        let gate = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        gate.recv().map_err(|_| TfheError::EngineShutDown)?;
        self.inner.try_bootstrap_batch(req)
    }
}

/// A `submit` that found the queue full blocks, and gets in — and is
/// served bit-identically — once the batcher makes room.
#[test]
fn dispatch_chaos_a_blocked_submit_wakes_when_the_queue_has_room() {
    let (ck, sk, mut rng) = setup(0xB10C);
    let lut = Arc::new(Lut::identity(sk.params().poly_size, 4));
    let (open, gate) = mpsc::channel();
    let backend = GatedBackend {
        inner: Arc::clone(&sk),
        gate: Mutex::new(gate),
    };
    let config = ServingConfig::builder()
        .max_batch_size(1)
        .max_linger(Duration::ZERO)
        .queue_capacity(1)
        .build()
        .expect("valid serving knobs");
    let dispatcher = Dispatcher::from_config(&config, backend).expect("validated above");

    let cts: Vec<_> = (0..3).map(|m| ck.encrypt(m, &mut rng)).collect();
    let submit = |i: usize| dispatcher.submit(cts[i].clone(), Arc::clone(&lut), None);
    // The first request wedges in the backend, the second fills the queue.
    let first = submit(0).expect("first submit");
    while dispatcher.stats().batches == 0 {
        std::thread::yield_now();
    }
    let second = submit(1).expect("second submit");
    let refused = dispatcher.try_submit(cts[2].clone(), Arc::clone(&lut), None);
    assert_eq!(refused.err(), Some(TfheError::QueueFull { capacity: 1 }));
    std::thread::scope(|s| {
        let blocked = s.spawn(|| submit(2).expect("admitted once there is room"));
        for _ in 0..3 {
            open.send(()).expect("backend alive");
        }
        let tickets = [first, second, blocked.join().expect("submitter")];
        for (ct, t) in cts.iter().zip(tickets) {
            let expected = sk.programmable_bootstrap(ct, &lut);
            assert_eq!(t.wait().expect("served"), expected);
        }
    });
    let stats = dispatcher.stats();
    assert_eq!(
        (stats.submitted, stats.completed, stats.rejected),
        (3, 3, 1)
    );
}

/// Shutdown while requests are still queued: drain semantics — everything
/// already accepted completes; nothing hangs.
#[test]
fn dispatch_chaos_shutdown_drains_without_loss() {
    let (ck, sk, mut rng) = setup(0xD0E5);
    let poly = sk.params().poly_size;
    let lut = Arc::new(Lut::identity(poly, 4));
    let config = ServingConfig::builder()
        .max_batch_size(8)
        .max_linger(Duration::from_millis(50))
        .build()
        .expect("valid serving knobs");
    let mut dispatcher =
        Dispatcher::from_config(&config, Arc::clone(&sk)).expect("validated above");

    let tickets: Vec<_> = (0..6u64)
        .map(|m| {
            let ct = ck.encrypt(m % 4, &mut rng);
            let expected = sk.programmable_bootstrap(&ct, &lut);
            let t = dispatcher
                .submit(ct, Arc::clone(&lut), None)
                .expect("submit");
            (expected, t)
        })
        .collect();
    dispatcher.shutdown();
    for (expected, t) in tickets {
        assert_eq!(t.wait().expect("drained on shutdown"), expected);
    }
    // Post-shutdown submissions are refused, not hung.
    assert_eq!(
        dispatcher.submit(ck.encrypt(0, &mut rng), lut, None).err(),
        Some(TfheError::DispatcherShutDown)
    );
}

/// Killed primary behind a failover stack: workers panic or wedge on
/// every job and never respawn, the primary breaker opens (helped by the
/// engine's own health reading `Failed`), and the sequential fallback
/// serves **every** request bit-identically — zero loss, with the stats
/// counters matching the stack's and the dispatcher's journals event for
/// event.
#[test]
fn dispatch_chaos_killed_primary_fails_over_with_zero_loss() {
    let seed = 0x0FA1_10E4;
    let (ck, sk, mut rng) = setup(seed ^ 0x00D5);
    let poly = sk.params().poly_size;
    let lut = Arc::new(Lut::from_fn(poly, 4, |m| (m + 1) % 4));

    // Primary: one worker, no respawn budget, every job either panics or
    // wedges past the watchdog — dead on first contact.
    let engine = BootstrapEngine::builder()
        .workers(1)
        .respawn_budget(0)
        .max_retries(0)
        .job_timeout(Duration::from_millis(50))
        // Panic rate 1.0: every job that survives its wedge site still
        // panics, so the primary never serves — only the *mix* of
        // JobTimedOut vs WorkerPanicked varies with the seed.
        .fault_plan(
            FaultPlan::seeded(seed)
                .with_worker_panic(1.0)
                .with_wedged_job(0.5, Duration::from_millis(150)),
        )
        .build(Arc::clone(&sk))
        .expect("spawn pool");
    let primary_breaker = BreakerConfig {
        min_samples: 2,
        failure_threshold: 0.5,
        // Long cooldown: once open, the primary stays benched for the
        // rest of the run — this test is about the fallback path.
        cooldown: Duration::from_secs(60),
        ..BreakerConfig::default()
    };
    let stack = Arc::new(
        FailoverBootstrapper::builder()
            .tier("engine", engine, primary_breaker)
            .tier("server", Arc::clone(&sk), BreakerConfig::default())
            .build()
            .expect("two tiers"),
    );

    let config = ServingConfig::builder()
        .max_batch_size(4)
        .max_linger(Duration::from_millis(1))
        .build()
        .expect("valid serving knobs");
    let dispatcher = Dispatcher::from_config(&config, Arc::clone(&stack)).expect("validated above");

    let total = 24u64;
    let mut tickets = Vec::with_capacity(total as usize);
    for i in 0..total {
        let ct = ck.encrypt(i % 4, &mut rng);
        let expected = sk.programmable_bootstrap(&ct, &lut);
        let t = dispatcher
            .submit(ct, Arc::clone(&lut), None)
            .expect("admission stays open: failover absorbs the outage");
        tickets.push((expected, t));
        if rng.gen_range(0..3u32) == 0 {
            std::thread::sleep(Duration::from_micros(rng.gen_range(0..300)));
        }
    }

    for (i, (expected, t)) in tickets.into_iter().enumerate() {
        let got = t
            .wait()
            .unwrap_or_else(|e| panic!("request {i} was lost to the outage: {e}"));
        assert_eq!(
            got, expected,
            "request {i} must be bit-identical to the healthy reference"
        );
    }

    let stats = dispatcher.stats();
    assert_eq!(stats.completed, total, "zero lost requests");
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.shed, 0, "the dispatcher itself never sheds");
    assert!(stack.failovers() >= 1, "traffic must fail over");
    // Only the fallback actually served batches.
    let served = stack.served();
    assert_eq!(served[0].0, "engine");
    assert_eq!(served[0].1, 0, "the dead primary served nothing");
    assert!(served[1].1 >= 1, "the fallback carried the load");

    // Counters must match the journals, event for event.
    let mut events = stack.journal().events();
    events.extend(dispatcher.resilience_journal().events());
    let dropped = stack.journal().dropped() + dispatcher.resilience_journal().dropped();
    assert_eq!(dropped, 0, "the journals hold every event");
    let count = |label: &str| events.iter().filter(|e| e.kind.label() == label).count() as u64;
    assert_eq!(stack.failovers(), count("failover"));
    assert_eq!(stats.retries, count("retry"));
    assert_eq!(stats.shed, count("shed"));
    // The killed primary tripped its breaker and stayed benched.
    let engine = Who::Scope("engine".into());
    let mut breaker = events.iter().filter(|e| e.who == engine);
    let last = breaker.rfind(|e| e.kind.label().starts_with("breaker_"));
    let last = last.map(|e| e.kind.label());
    assert_eq!(
        last,
        Some("breaker_open"),
        "the primary's breaker must stay open"
    );
}

/// Notes when each call to the engine behind it starts.
struct Stamped {
    engine: Arc<BootstrapEngine>,
    starts: Mutex<Vec<u64>>,
}

impl Bootstrapper for Stamped {
    fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
        let mut starts = self.starts.lock().unwrap_or_else(|e| e.into_inner());
        starts.push(journal::now());
        drop(starts);
        self.engine.try_bootstrap_batch(req)
    }
}

/// One request with a 2 ms deadline through every layer that has a
/// budget — the dispatcher's two retries, a failover stack, an engine with
/// three chunk re-dispatches whose every job panics. The budgets used to
/// multiply (32 panics, the last engine call 35 ms late); the request's
/// deadline bounds them now.
#[test]
fn dispatch_chaos_budgets_stop_at_the_deadline() {
    let (ck, sk, mut rng) = setup(0xDEAD);
    let lut = Arc::new(Lut::identity(sk.params().poly_size, 4));
    let engine = BootstrapEngine::builder()
        .workers(1)
        .respawn_budget(64)
        .fault_plan(FaultPlan::seeded(7).with_worker_panic(1.0))
        .build(Arc::clone(&sk))
        .expect("spawn pool");
    let stamped = Arc::new(Stamped {
        engine: Arc::new(engine),
        starts: Mutex::new(Vec::new()),
    });
    let stack = FailoverBootstrapper::builder()
        .tier("engine", Arc::clone(&stamped), BreakerConfig::default())
        .build()
        .expect("one tier");
    let config = ServingConfig::builder()
        .max_batch_size(1)
        .max_linger(Duration::ZERO)
        .retry(RetryConfig::new(2))
        .build()
        .expect("valid serving knobs");
    let dispatcher = Dispatcher::from_config(&config, stack).expect("validated above");

    let deadline = Instant::now() + Duration::from_millis(2);
    let ticket = dispatcher
        .submit(ck.encrypt(1, &mut rng), lut, Some(deadline))
        .expect("submit");
    let err = ticket.wait().expect_err("every job panics");
    let late = journal::now();
    assert!(
        matches!(
            err,
            TfheError::WorkerPanicked { .. } | TfheError::DeadlineExceeded
        ),
        "got {err}"
    );
    // Three dispatcher attempts of four engine attempts each, at most.
    let stats = stamped.engine.stats();
    assert!(stats.panics <= 12, "{} worker panics", stats.panics);
    // No engine call started after the deadline, to the millisecond.
    let deadline_ns = late.saturating_sub(deadline.elapsed().as_nanos() as u64);
    let starts = stamped.starts.lock().expect("no panic holds it").clone();
    assert_eq!(starts.len() as u64, stats.batches);
    for start in starts {
        assert!(start <= deadline_ns + 1_000_000, "a call at {start} ns");
    }
}
