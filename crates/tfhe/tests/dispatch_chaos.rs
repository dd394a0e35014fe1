//! Threaded smoke for the dynamic-batching [`Dispatcher`].
//!
//! The serving contract's accounting — every request resolves exactly
//! once, the counters add up, sheds and refusals mint no id, retries stay
//! in budget, breaker transitions reconcile with the journal — is checked
//! over 1 000 seeds on virtual time, in-crate (`policy.rs`,
//! `a_thousand_seeds_keep_every_contract`). What is left here needs real
//! threads or real ciphertexts, one seed each:
//!
//! - **degraded mode is lossless**: with a killed primary as a
//!   [`Dispatcher`]'s first backend tier, every request is still served
//!   bit-identically by its fallback tier, and the breaker/journal
//!   counters agree;
//! - **shutdown drains**: everything already accepted completes;
//! - **a blocked `submit` wakes** once the full queue has room;
//! - **budgets stop at the deadline**: a request through dispatcher → a
//!   dead engine costs a bounded number of worker panics;
//! - **two batchers lose nothing**: with `workers(2)` two calls run at
//!   once over a backend that fails calls retryably and malformed
//!   requests permanently, and every ticket resolves once, to its own
//!   output or an error, with the counters matching both journals; a
//!   backend that panics on one call strands no ticket, closes admission,
//!   and the surviving batcher drains the queue.
//!
//! The two-batcher cases read `MORPHLING_CHAOS_SEED` (CI sweeps 1..=3);
//! the others run one fixed seed each.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use morphling_tfhe::{faults, journal};
use morphling_tfhe::{
    BatchRequest, BootstrapEngine, Bootstrapper, BreakerConfig, ClientKey, Dispatcher,
    DispatcherBuilder, FaultPlan, Lut, LweCiphertext, ParamSet, RetryConfig, ServerKey,
    ServingConfig, TenantId, TfheError, Ticket, Who,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Base seed, overridable via `MORPHLING_CHAOS_SEED` (CI sweeps 1..=3).
fn chaos_seed(default: u64) -> u64 {
    std::env::var("MORPHLING_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map(|s| s.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ default)
        .unwrap_or(default)
}

fn setup(seed: u64) -> (ClientKey, Arc<ServerKey>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ck = ClientKey::generate(ParamSet::Test.params(), &mut rng);
    let sk = Arc::new(ServerKey::new(&ck, &mut rng));
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

/// Killed primary tier: workers panic or wedge on every job and never
/// respawn, the primary's breaker opens (helped by the engine's own health
/// reading `Failed`), and the sequential fallback tier serves **every**
/// request bit-identically — zero loss, with the stats counters matching
/// the dispatcher's resilience journal event for event.
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
    let breaker = BreakerConfig {
        min_samples: 2,
        failure_threshold: 0.5,
        // Long cooldown: once open, the primary stays benched for the
        // rest of the run — this test is about the fallback path.
        cooldown: Duration::from_secs(60),
        ..BreakerConfig::default()
    };
    let config = ServingConfig::builder()
        .max_batch_size(4)
        .max_linger(Duration::from_millis(1))
        .breaker(breaker)
        .build()
        .expect("valid serving knobs");
    let dispatcher = DispatcherBuilder::from_config(&config)
        .expect("validated above")
        .fallback("server", Arc::clone(&sk))
        .build(engine);

    let total = 24u64;
    let mut tickets = Vec::with_capacity(total as usize);
    for i in 0..total {
        let ct = ck.encrypt(i % 4, &mut rng);
        let expected = sk.programmable_bootstrap(&ct, &lut);
        let t = dispatcher
            .submit(ct, Arc::clone(&lut), None)
            .expect("admission stays open: failover absorbs the outage");
        tickets.push((expected, t));
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
    assert!(stats.failovers >= 1, "traffic must fail over");
    // Only the fallback actually served batches: the engine is tier 0.
    let served = &stats.served_by_tier;
    assert_eq!(served.len(), 2);
    assert_eq!(served[0], 0, "the dead primary served nothing");
    assert!(served[1] >= 1, "the fallback carried the load");

    // Counters must match the journal, event for event.
    let events = dispatcher.resilience_journal().events();
    let dropped = dispatcher.resilience_journal().dropped();
    assert_eq!(dropped, 0, "the journal holds every event");
    let count = |label: &str| events.iter().filter(|e| e.kind.label() == label).count() as u64;
    assert_eq!(stats.failovers, count("failover"));
    assert_eq!(stats.retries, count("retry"));
    assert_eq!(stats.shed, count("shed"));
    // The killed primary tripped its breaker and stayed benched; tier 0
    // journals under the dispatcher's scope.
    let engine = Who::Scope("dispatcher".into());
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
/// budget — the dispatcher's two retries and its breaker-guarded tier, an
/// engine with three chunk re-dispatches whose every job panics. The budgets used to
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
    let config = ServingConfig::builder()
        .max_batch_size(1)
        .max_linger(Duration::ZERO)
        .retry(RetryConfig::new(2))
        .breaker(BreakerConfig::default())
        .build()
        .expect("valid serving knobs");
    let dispatcher =
        Dispatcher::from_config(&config, Arc::clone(&stamped)).expect("validated above");

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

/// A server key behind a seeded fault plan: call `n` answers a retryable
/// fault when the plan says so, panics if it is `panic_at`, and the first
/// call waits (up to 5 s) for a second one to start, so that two batchers
/// are seen in flight at once. It counts the calls running at once.
struct TwoAtOnce {
    inner: Arc<ServerKey>,
    seed: u64,
    rate: f64,
    panic_at: Option<u64>,
    calls: AtomicU64,
    /// Calls running now, and the most ever.
    running: Mutex<(u64, u64)>,
    second: Condvar,
}

impl TwoAtOnce {
    fn new(inner: &Arc<ServerKey>, seed: u64, rate: f64, panic_at: Option<u64>) -> Self {
        Self {
            inner: Arc::clone(inner),
            seed,
            rate,
            panic_at,
            calls: AtomicU64::new(0),
            running: Mutex::new((0, 0)),
            second: Condvar::new(),
        }
    }

    fn most_at_once(&self) -> u64 {
        self.running.lock().unwrap_or_else(|e| e.into_inner()).1
    }
}

impl Bootstrapper for TwoAtOnce {
    fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
        let call = self.calls.fetch_add(1, Ordering::SeqCst);
        let mut running = self.running.lock().unwrap_or_else(|e| e.into_inner());
        running.0 += 1;
        running.1 = running.1.max(running.0);
        self.second.notify_all();
        if call == 0 {
            let patience = Duration::from_secs(5);
            let waited = self
                .second
                .wait_timeout_while(running, patience, |r| r.1 < 2);
            running = waited.unwrap_or_else(|e| e.into_inner()).0;
        }
        drop(running);
        let answer = if Some(call) == self.panic_at {
            None
        } else if faults::decide(self.seed, 0x2BA7, call, 0, self.rate) {
            Some(Err(TfheError::WorkerPanicked { worker: 0 }))
        } else {
            Some(self.inner.try_bootstrap_batch(req))
        };
        self.running.lock().unwrap_or_else(|e| e.into_inner()).0 -= 1;
        answer.unwrap_or_else(|| panic!("backend bug (injected by the test)"))
    }
}

/// Two batchers over a backend that fails a seeded third of its calls
/// retryably, with three tenants, malformed requests among them and a few
/// cancellations: no ticket is lost or answered twice, and the counts are
/// the outcomes and the journals'.
#[test]
fn dispatch_chaos_two_batchers_account_for_every_ticket() {
    let seed = chaos_seed(0x2BA7_C4A0);
    let (ck, sk, mut rng) = setup(seed);
    let lut = Arc::new(Lut::from_fn(sk.params().poly_size, 4, |m| (m + 1) % 4));
    let backend = Arc::new(TwoAtOnce::new(&sk, seed, 0.3, None));
    let config = ServingConfig::builder()
        .workers(2)
        .max_batch_size(4)
        .max_linger(Duration::from_micros(200))
        .retry(RetryConfig::new(2))
        .build()
        .expect("valid serving knobs");
    let dispatcher = Dispatcher::from_config(&config, Arc::clone(&backend)).expect("validated");

    // `None` expects an error: a malformed request fails alone, and a
    // fault past the retry budget fails its batch.
    let mut sent: Vec<(Option<LweCiphertext>, Ticket)> = Vec::new();
    for i in 0..48u64 {
        let tenant = TenantId::new(rng.gen_range(0..3));
        let malformed = rng.gen_bool(0.05);
        let ct = match malformed {
            true => LweCiphertext::trivial(morphling_math::Torus32::from_raw(0), 4),
            false => ck.encrypt(i % 4, &mut rng),
        };
        let expected = (!malformed).then(|| sk.programmable_bootstrap(&ct, &lut));
        let ticket = dispatcher.submit_for(tenant, ct, Arc::clone(&lut), None);
        let ticket = ticket.expect("admission stays open");
        if rng.gen_bool(0.1) {
            ticket.cancel();
        }
        sent.push((expected, ticket));
    }
    let (mut completed, mut failed, mut cancelled) = (BTreeSet::new(), 0u64, 0u64);
    for (i, (expected, ticket)) in sent.into_iter().enumerate() {
        let id = ticket.id();
        match (ticket.wait_timeout(Duration::from_secs(20)), expected) {
            (Ok(out), Some(want)) => {
                assert_eq!(out, want, "request {i} got another request's output");
                assert!(completed.insert(id), "request {i} answered twice");
            }
            (Err(TfheError::Cancelled), _) => cancelled += 1,
            (Err(TfheError::WorkerPanicked { .. }), _) => failed += 1,
            (Err(TfheError::LweDimensionMismatch { .. }), None) => failed += 1,
            (got, _) => panic!("request {i}: unexpected outcome {got:?}"),
        }
    }
    assert_eq!(backend.most_at_once(), 2, "two batches ran at once");
    let stats = dispatcher.stats();
    assert_eq!(stats.submitted, 48);
    assert_eq!(
        (
            stats.completed,
            stats.failed,
            stats.cancelled,
            stats.expired
        ),
        (completed.len() as u64, failed, cancelled, 0)
    );
    // The request journal spans each completion once; its batches are the
    // ones served.
    let spans = dispatcher.spans();
    let ids: BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
    assert_eq!((spans.len(), ids), (completed.len(), completed));
    let batches: BTreeSet<u64> = spans.iter().map(|s| s.batch).collect();
    assert_eq!(batches.len() as u64, stats.served_by_tier[0]);
    let events = dispatcher.resilience_journal().events();
    let retries = events.iter().filter(|e| e.kind.label() == "retry").count() as u64;
    assert_eq!(stats.retries, retries);
}

/// A backend that panics on one call under two batchers: that call's
/// tickets fail, admission closes, the other batcher drains the queue, and
/// no ticket is stranded.
#[test]
fn dispatch_chaos_two_batchers_survive_a_panicking_call() {
    let seed = chaos_seed(0x0DEA_D2B7);
    let (ck, sk, mut rng) = setup(seed);
    let lut = Arc::new(Lut::identity(sk.params().poly_size, 4));
    let panic_at = seed % 4 + 1;
    let backend = Arc::new(TwoAtOnce::new(&sk, seed, 0.0, Some(panic_at)));
    let config = ServingConfig::builder()
        .workers(2)
        .max_batch_size(2)
        .max_linger(Duration::ZERO)
        .build()
        .expect("valid serving knobs");
    let dispatcher = Dispatcher::from_config(&config, Arc::clone(&backend)).expect("validated");
    let mut sent = Vec::new();
    for i in 0..24u64 {
        let ct = ck.encrypt(i % 4, &mut rng);
        let expected = sk.programmable_bootstrap(&ct, &lut);
        match dispatcher.submit_for(TenantId::new(i % 3), ct, Arc::clone(&lut), None) {
            Ok(ticket) => sent.push((expected, ticket)),
            Err(e) => assert_eq!(e, TfheError::DispatcherShutDown),
        }
    }
    let mut lost = 0;
    for (i, (expected, ticket)) in sent.iter().enumerate() {
        match ticket.wait_timeout(Duration::from_secs(20)) {
            Ok(out) => assert_eq!(out, *expected, "request {i}"),
            Err(TfheError::DispatcherShutDown) => lost += 1,
            Err(other) => panic!("request {i}: {other}"),
        }
    }
    let ct = ck.encrypt(0, &mut rng);
    let refused = dispatcher.submit(ct, Arc::clone(&lut), None).err();
    assert_eq!(
        refused,
        Some(TfheError::DispatcherShutDown),
        "admission closed"
    );
    // Only the members of the call that panicked went unserved: the other
    // batcher drained what was queued.
    let stats = dispatcher.stats();
    assert_eq!(stats.failed, 0, "nothing was left for the exit guard");
    assert_eq!(stats.submitted, sent.len() as u64);
    assert_eq!(stats.completed + lost, stats.submitted);
    assert!(
        (1..=2).contains(&lost),
        "{lost} lost to one call of at most 2"
    );
}
