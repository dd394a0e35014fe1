//! Seeded chaos harness for the dynamic-batching [`Dispatcher`].
//!
//! Random interleavings of submissions, cancellations, and deadlines —
//! over a fault-injected [`BootstrapEngine`] backend — must uphold the
//! serving contract:
//!
//! - **no request is lost**: every ticket resolves (success, cancelled,
//!   expired, or failed) and the counters account for every submission;
//! - **no request is corrupted or reordered**: every success is
//!   bit-identical to the sequential [`ServerKey`] reference for *that*
//!   request;
//! - **backpressure is loud**: a full queue surfaces as
//!   [`TfheError::QueueFull`] on `try_submit`, never a silent drop;
//! - **degraded mode is lossless**: with a killed primary behind a
//!   [`FailoverBootstrapper`], every request is still served bit-identically
//!   by a fallback tier, and the breaker/journal counters agree;
//! - **breaker transitions lose nothing**: across open → half-open →
//!   close cycles no ticket is lost or resolved twice.
//!
//! All seeds are fixed, so CI failures replay locally. The resilience
//! tests also honor `MORPHLING_CHAOS_SEED` so CI can sweep several seeds.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use morphling_tfhe::{
    BatchRequest, BootstrapEngine, Bootstrapper, BreakerState, CircuitBreaker, ClientKey,
    Dispatcher, DispatcherBuilder, FailoverBootstrapper, FaultPlan, Journal, Lut, LweCiphertext,
    ParamSet, RetryConfig, ServerKey, ServingConfig, TfheError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Base seed, overridable via `MORPHLING_CHAOS_SEED` (CI sweeps 1..=3).
/// The override is mixed with the per-test default so two tests never
/// collapse onto the same stream.
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
    let sk = Arc::new(ServerKey::builder().build(&ck, &mut rng));
    (ck, sk, rng)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Normal,
    Cancelled,
    PastDeadline,
}

/// Random submit / cancel / deadline interleavings over a worker pool
/// that panics 15% of the time (and self-heals). Every ticket must
/// resolve, successes must be bit-identical to the sequential reference,
/// and the dispatcher counters must add up to exactly the submissions.
#[test]
fn dispatch_chaos_accounts_for_every_request() {
    let (ck, sk, mut rng) = setup(0xD15A);
    let poly = sk.params().poly_size;
    let lut = Arc::new(Lut::from_fn(poly, 4, |m| (m + 1) % 4));

    let engine = BootstrapEngine::builder()
        .workers(2)
        .chunk_size(2)
        .respawn_budget(256)
        .max_retries(8)
        .retry_backoff(Duration::from_micros(100))
        .fault_plan(FaultPlan::seeded(0xFA57).with_worker_panic(0.15))
        .build(Arc::clone(&sk))
        .expect("spawn pool");

    let config = ServingConfig::builder()
        .max_batch_size(4)
        .max_linger(Duration::from_millis(2))
        .queue_capacity(64)
        .build()
        .expect("valid serving knobs");
    let dispatcher = Dispatcher::from_config(&config, engine).expect("validated above");

    let total = 40usize;
    let mut tickets = Vec::with_capacity(total);
    for i in 0..total {
        let m = i as u64 % 4;
        let ct = ck.encrypt(m, &mut rng);
        let expected = sk.programmable_bootstrap(&ct, &lut);
        let kind = match rng.gen_range(0..10u32) {
            0 => Kind::Cancelled,
            1 => Kind::PastDeadline,
            _ => Kind::Normal,
        };
        let deadline = match kind {
            // Already in the past: must expire, never execute late.
            Kind::PastDeadline => Some(Instant::now() - Duration::from_millis(5)),
            _ => None,
        };
        let ticket = dispatcher
            .submit(ct, Arc::clone(&lut), deadline)
            .expect("queue has room for the whole run");
        if kind == Kind::Cancelled {
            ticket.cancel();
        }
        tickets.push((kind, expected, ticket));
        // Occasionally pause so batches form at varied sizes.
        if rng.gen_range(0..4u32) == 0 {
            std::thread::sleep(Duration::from_micros(rng.gen_range(0..400)));
        }
    }

    let mut completed = 0u64;
    let mut cancelled = 0u64;
    let mut expired = 0u64;
    let mut failed = 0u64;
    for (kind, expected, ticket) in tickets {
        match ticket.wait() {
            Ok(out) => {
                assert_eq!(
                    out, expected,
                    "a served request must be bit-identical to the reference"
                );
                assert_ne!(kind, Kind::PastDeadline, "expired work must not run");
                completed += 1;
            }
            Err(TfheError::Cancelled) => {
                assert_eq!(kind, Kind::Cancelled, "only cancelled requests may say so");
                cancelled += 1;
            }
            Err(TfheError::DeadlineExceeded) => {
                assert_eq!(kind, Kind::PastDeadline, "only stale requests may expire");
                expired += 1;
            }
            Err(e) => {
                // The fault-injected backend may exhaust retries; that is
                // a loud failure, which the contract permits — losing the
                // request silently is what it forbids.
                assert_eq!(kind, Kind::Normal, "unexpected error {e} for {kind:?}");
                failed += 1;
            }
        }
    }

    let stats = dispatcher.stats();
    assert_eq!(stats.submitted, total as u64);
    assert_eq!(stats.rejected, 0);
    assert_eq!(
        stats.completed + stats.cancelled + stats.expired + stats.failed,
        stats.submitted,
        "every submission must be accounted for: {stats:?}"
    );
    assert_eq!(stats.completed, completed);
    assert_eq!(stats.cancelled, cancelled);
    assert_eq!(stats.expired, expired);
    assert_eq!(stats.failed, failed);
    assert!(stats.batches > 0);
    assert!(stats.mean_batch_size >= 1.0);
    // The journal covers exactly the requests that reached a batch.
    assert_eq!(dispatcher.request_journal().dropped(), 0);
    assert_eq!(dispatcher.spans().len() as u64, stats.batched);
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

/// Fill the bounded queue while the batcher is wedged in the backend:
/// `try_submit` must report [`TfheError::QueueFull`] with the configured
/// capacity, and once the gate opens every accepted request must still
/// complete bit-identically.
#[test]
fn dispatch_chaos_backpressure_is_loud_and_lossless() {
    let (ck, sk, mut rng) = setup(0xB10C);
    let poly = sk.params().poly_size;
    let lut = Arc::new(Lut::identity(poly, 4));
    let (open, gate) = mpsc::channel();
    let backend = GatedBackend {
        inner: Arc::clone(&sk),
        gate: Mutex::new(gate),
    };

    let capacity = 3usize;
    let config = ServingConfig::builder()
        .max_batch_size(1)
        .max_linger(Duration::ZERO)
        .queue_capacity(capacity)
        .build()
        .expect("valid serving knobs");
    let dispatcher = Dispatcher::from_config(&config, backend).expect("validated above");

    // First request is popped by the batcher and wedges in the backend.
    let first_ct = ck.encrypt(1, &mut rng);
    let first_expected = sk.programmable_bootstrap(&first_ct, &lut);
    let first = dispatcher
        .submit(first_ct, Arc::clone(&lut), None)
        .expect("first submit");
    // Wait until the batcher has actually taken it out of the queue.
    let deadline = Instant::now() + Duration::from_secs(5);
    while dispatcher.spans().is_empty() && first.try_wait().is_none() {
        assert!(Instant::now() < deadline, "batcher never picked up work");
        if dispatcher.stats().batches > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    // Now fill the queue to capacity behind the wedged batch...
    let mut queued = Vec::new();
    for m in 0..capacity as u64 {
        let ct = ck.encrypt(m % 4, &mut rng);
        let expected = sk.programmable_bootstrap(&ct, &lut);
        let t = loop {
            match dispatcher.try_submit(ct.clone(), Arc::clone(&lut), None) {
                Ok(t) => break t,
                // The batcher may still be between queue and gate; retry.
                Err(TfheError::QueueFull { .. }) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        };
        queued.push((expected, t));
        if queued.len() == capacity {
            break;
        }
    }

    // ...and the next try_submit must refuse, loudly, with the capacity.
    let overflow = dispatcher.try_submit(ck.encrypt(0, &mut rng), Arc::clone(&lut), None);
    assert_eq!(
        overflow.err(),
        Some(TfheError::QueueFull { capacity }),
        "a full queue must backpressure"
    );

    // Open the gate for every wedged + queued batch and drain.
    for _ in 0..(capacity + 2) {
        let _ = open.send(());
    }
    assert_eq!(
        first.wait().expect("first request completes"),
        first_expected
    );
    for (expected, t) in queued {
        assert_eq!(t.wait().expect("queued request completes"), expected);
    }
    let stats = dispatcher.stats();
    assert_eq!(stats.rejected, 1, "exactly one overflow was refused");
    assert_eq!(stats.completed, capacity as u64 + 1);
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
/// every job and never respawn, the primary breaker opens (helped by its
/// `EngineHealthHandle` probe reading `Failed`), and the sequential
/// fallback serves **every** request bit-identically — zero loss, with
/// the stats counters matching the resilience journal event for event.
#[test]
fn dispatch_chaos_killed_primary_fails_over_with_zero_loss() {
    let seed = chaos_seed(0x0FA1_10E4);
    let (ck, sk, mut rng) = setup(seed ^ 0x00D5);
    let poly = sk.params().poly_size;
    let lut = Arc::new(Lut::from_fn(poly, 4, |m| (m + 1) % 4));

    let journal = Arc::new(Journal::new());
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
    let health = engine.health_handle();
    let primary_breaker = Arc::new(
        CircuitBreaker::builder()
            .name("engine")
            .min_samples(2)
            .failure_threshold(0.5)
            // Long cooldown: once open, the primary stays benched for the
            // rest of the run — this test is about the fallback path.
            .cooldown(Duration::from_secs(60))
            .health_probe(move || health.health())
            .journal(Arc::clone(&journal))
            .build(),
    );
    let stack = Arc::new(
        FailoverBootstrapper::builder()
            .tier_with_breaker("engine", engine, Arc::clone(&primary_breaker))
            .tier("server", Arc::clone(&sk))
            .retry_policy(
                RetryConfig::new(1)
                    .with_base_backoff(Duration::from_micros(50))
                    .with_jitter(0.5, seed),
            )
            .journal(Arc::clone(&journal))
            .build()
            .expect("two tiers"),
    );

    let config = ServingConfig::builder()
        .max_batch_size(4)
        .max_linger(Duration::from_millis(1))
        .build()
        .expect("valid serving knobs");
    let dispatcher = DispatcherBuilder::from_config(&config)
        .expect("validated above")
        .resilience_journal(Arc::clone(&journal))
        .build(Arc::clone(&stack));

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
    // The killed primary tripped its breaker and stayed benched...
    assert!(primary_breaker.opens() >= 1, "breaker must open");
    assert_eq!(primary_breaker.state(), BreakerState::Open);
    assert!(stack.failovers() >= 1, "traffic must fail over");
    // ...and only the fallback actually served batches.
    let served = stack.served();
    assert_eq!(served[0].0, "engine");
    assert_eq!(served[0].1, 0, "the dead primary served nothing");
    assert!(served[1].1 >= 1, "the fallback carried the load");

    // Counters must match the journal, event for event.
    let events = journal.events();
    assert_eq!(journal.dropped(), 0, "the journal holds every event");
    let count = |label: &str| events.iter().filter(|e| e.kind.label() == label).count() as u64;
    assert_eq!(stack.failovers(), count("failover"));
    assert_eq!(stack.retries() + stats.retries, count("retry"));
    assert_eq!(stats.shed, count("shed"));
    assert_eq!(
        primary_breaker.opens() + stack.breaker(1).expect("fallback tier").opens(),
        count("breaker_open")
    );
    assert!(count("breaker_open") >= 1);
}

/// A backend that fails its first `fail_first` calls with a retryable
/// fault, then heals and delegates to the sequential reference.
struct SickThenHealed {
    inner: Arc<ServerKey>,
    fail_first: u64,
    calls: AtomicU64,
}

impl Bootstrapper for SickThenHealed {
    fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
        if self.calls.fetch_add(1, Ordering::SeqCst) < self.fail_first {
            return Err(TfheError::WorkerPanicked { worker: 99 });
        }
        self.inner.try_bootstrap_batch(req)
    }
}

/// Full breaker life-cycle under load: a sick backend trips the
/// dispatcher's breaker open, shed submissions fail fast with
/// [`TfheError::Overloaded`], half-open probes are admitted after the
/// cooldown, and once the backend heals the breaker closes again. Across
/// all of it: every admitted ticket resolves exactly once, ticket ids are
/// unique, and the counters reconcile with the journal.
#[test]
fn dispatch_chaos_breaker_cycle_loses_no_tickets() {
    let seed = chaos_seed(0xC1BC);
    let (ck, sk, mut rng) = setup(seed ^ 0xBEEF);
    let poly = sk.params().poly_size;
    let lut = Arc::new(Lut::identity(poly, 4));

    let journal = Arc::new(Journal::new());
    let cooldown = Duration::from_millis(20);
    let breaker = Arc::new(
        CircuitBreaker::builder()
            .name("serving")
            .window(8)
            .min_samples(2)
            .failure_threshold(0.5)
            .cooldown(cooldown)
            .journal(Arc::clone(&journal))
            .build(),
    );
    // 2..=4 failing calls: enough to trip the breaker, and (for seeds
    // where it exceeds 2) enough that the first half-open probe fails and
    // re-opens it, exercising the reopen edge too.
    let fail_first = 2 + seed % 3;
    let config = ServingConfig::builder()
        .max_batch_size(1) // one backend call per request: exact accounting
        .max_linger(Duration::ZERO)
        .build()
        .expect("valid serving knobs");
    let dispatcher = DispatcherBuilder::from_config(&config)
        .expect("validated above")
        .circuit_breaker(Arc::clone(&breaker))
        .resilience_journal(Arc::clone(&journal))
        .build(SickThenHealed {
            inner: Arc::clone(&sk),
            fail_first,
            calls: AtomicU64::new(0),
        });

    let mut ids = HashSet::new();
    let mut shed = 0u64;
    let mut completed = 0u64;
    let mut failed = 0u64;
    for i in 0..40u64 {
        let ct = ck.encrypt(i % 4, &mut rng);
        match dispatcher.submit(ct.clone(), Arc::clone(&lut), None) {
            Ok(t) => {
                assert!(ids.insert(t.id()), "ticket ids must be unique");
                // Resolve immediately: exactly-once, success or loud fault.
                match t.wait() {
                    Ok(out) => {
                        // The reference is computed after admission: a
                        // debug-build bootstrap outlasts the cooldown, and
                        // computing it first would let every open breaker
                        // cool down unobserved.
                        let expected = sk.programmable_bootstrap(&ct, &lut);
                        assert_eq!(out, expected, "served requests stay bit-identical");
                        completed += 1;
                    }
                    Err(TfheError::WorkerPanicked { worker: 99 }) => failed += 1,
                    Err(e) => panic!("unexpected resolution for request {i}: {e}"),
                }
            }
            Err(TfheError::Overloaded { .. }) => {
                // Shed fast-fail: no ticket was minted, nothing to lose.
                shed += 1;
                std::thread::sleep(cooldown / 4);
            }
            Err(e) => panic!("unexpected admission error for request {i}: {e}"),
        }
        if rng.gen_range(0..4u32) == 0 {
            std::thread::sleep(Duration::from_micros(rng.gen_range(0..200)));
        }
    }

    // Drive the cycle to completion: after the cooldown, half-open probes
    // are admitted; the backend has healed, so a probe must eventually
    // close the breaker.
    let deadline = Instant::now() + Duration::from_secs(10);
    while breaker.state() != BreakerState::Closed {
        assert!(
            Instant::now() < deadline,
            "breaker never closed: {:?}",
            breaker.state()
        );
        let ct = ck.encrypt(1, &mut rng);
        let expected = sk.programmable_bootstrap(&ct, &lut);
        match dispatcher.submit(ct, Arc::clone(&lut), None) {
            Ok(t) => {
                assert!(ids.insert(t.id()), "probe ticket ids must be unique");
                match t.wait() {
                    Ok(out) => {
                        assert_eq!(out, expected);
                        completed += 1;
                    }
                    Err(TfheError::WorkerPanicked { worker: 99 }) => failed += 1,
                    Err(e) => panic!("unexpected probe resolution: {e}"),
                }
            }
            Err(TfheError::Overloaded { .. }) => {
                shed += 1;
                std::thread::sleep(cooldown / 2);
            }
            Err(e) => panic!("unexpected probe admission error: {e}"),
        }
    }

    let stats = dispatcher.stats();
    // Exactly-once accounting: every minted ticket resolved exactly once,
    // sheds never minted a ticket.
    assert_eq!(stats.submitted, ids.len() as u64);
    assert_eq!(stats.completed + stats.failed, stats.submitted);
    assert_eq!(stats.completed, completed);
    assert_eq!(stats.failed, failed);
    assert_eq!(stats.shed, shed);
    assert!(shed >= 1, "an open breaker must shed at least once");
    // The breaker went through the full cycle and the journal agrees.
    assert!(breaker.opens() >= 1);
    assert!(breaker.closes() >= 1);
    assert_eq!(breaker.state(), BreakerState::Closed);
    let events = journal.events();
    assert_eq!(journal.dropped(), 0, "the journal holds every event");
    let count = |label: &str| events.iter().filter(|e| e.kind.label() == label).count() as u64;
    assert_eq!(count("breaker_open"), breaker.opens());
    assert_eq!(count("breaker_close"), breaker.closes());
    assert_eq!(count("shed"), stats.shed);
    assert!(count("breaker_half_open") >= 1, "probes must be journaled");
}
