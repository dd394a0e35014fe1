//! The event journal under the two conditions it exists for: a sick
//! service flooding it, and several components built at different times
//! writing one timeline.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use morphling_tfhe::journal::JOURNAL_CAPACITY;
use morphling_tfhe::{
    BatchRequest, Bootstrapper, BreakerConfig, ClientKey, Dispatcher, DispatcherBuilder, Event,
    EventKind, Journal, KeyStore, KeyStoreBootstrapper, Lut, LweCiphertext, MemoryBackend,
    ParamSet, RetryConfig, ServerKey, ServingConfig, TenantId, TfheError, Who,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Returns each input once per output it owes — until it is made sick,
/// and then fails every call retryably.
#[derive(Default)]
struct Echo {
    sick: AtomicBool,
}

impl Echo {
    fn sick() -> Self {
        Self {
            sick: AtomicBool::new(true),
        }
    }
}

impl Bootstrapper for Echo {
    fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
        if self.sick.load(Ordering::SeqCst) {
            return Err(TfheError::WorkerPanicked { worker: 0 });
        }
        let mut out = Vec::with_capacity(req.output_len());
        for (i, ct) in req.ciphertexts().iter().enumerate() {
            out.extend(std::iter::repeat_with(|| ct.clone()).take(req.output_count(i)));
        }
        Ok(out)
    }
}

fn dummy_ct(tag: u32) -> LweCiphertext {
    LweCiphertext::trivial(morphling_math::Torus32::from_raw(tag), 4)
}

/// A breaker that its first failure opens, whatever came before, and
/// that nothing closes again within the test.
const BRITTLE: BreakerConfig = BreakerConfig {
    window: 1,
    failure_threshold: 1.0,
    min_samples: 1,
    cooldown: Duration::from_secs(3600),
    probes_to_close: 1,
};

/// `journal` holds at most its capacity, its newest events are the flood,
/// and `dropped` accounts exactly for the rest of `recorded`.
fn assert_bounded(journal: &Journal, recorded: u64, flood: &str) {
    let events = journal.events();
    assert_eq!(events.len(), JOURNAL_CAPACITY);
    assert_eq!(events.len() as u64 + journal.dropped(), recorded);
    assert!(events.iter().all(|e| e.kind.label() == flood));
}

const FLOOD: u64 = 100_000;

#[test]
fn a_flood_of_refusals_is_bounded_and_evicts_no_request_span() {
    let config = ServingConfig::builder()
        .max_batch_size(4)
        .breaker(BRITTLE)
        .build()
        .unwrap();
    let backend = Arc::new(Echo::default());
    let dispatcher = Dispatcher::from_config(&config, Arc::clone(&backend)).unwrap();
    let lut = Arc::new(Lut::identity(256, 4));
    let served: Vec<_> = (0..8)
        .map(|i| dispatcher.submit(dummy_ct(i), Arc::clone(&lut), None))
        .collect();
    for ticket in served {
        ticket.unwrap().wait().unwrap();
    }
    let spans = dispatcher.spans();
    assert_eq!(spans.len(), 8);

    // The backend falls sick: the next request fails and opens the
    // breaker.
    backend.sick.store(true, Ordering::SeqCst);
    let failed = dispatcher.submit(dummy_ct(8), Arc::clone(&lut), None);
    let failed = failed.unwrap().wait();
    assert_eq!(failed, Err(TfheError::WorkerPanicked { worker: 0 }));
    let journal = dispatcher.resilience_journal();
    for i in 0..FLOOD {
        let refused = dispatcher.try_submit(dummy_ct(i as u32), Arc::clone(&lut), None);
        assert!(matches!(refused, Err(TfheError::Overloaded { .. })));
    }
    assert_eq!(dispatcher.stats().shed, FLOOD);
    // One `breaker_open`, then the sheds.
    assert_bounded(journal, 1 + FLOOD, "shed");
    assert_eq!(dispatcher.spans(), spans, "request spans survive the flood");
    assert_eq!(dispatcher.request_journal().dropped(), 0);
}

#[test]
fn serving_from_the_second_tier_is_bounded() {
    // One request per batch, each tier behind a brittle breaker: the
    // fallback never fails, so its breaker never opens.
    let config = ServingConfig::builder()
        .max_batch_size(1)
        .max_linger(Duration::ZERO)
        .breaker(BRITTLE)
        .build()
        .unwrap();
    let dispatcher = DispatcherBuilder::from_config(&config)
        .unwrap()
        .fallback("fallback", Echo::default())
        .build(Echo::sick());
    let lut = Arc::new(Lut::identity(256, 4));
    for _ in 0..FLOOD / 1_000 {
        let tickets: Vec<_> = (0..1_000)
            .map(|i| dispatcher.submit(dummy_ct(i), Arc::clone(&lut), None))
            .collect();
        for (i, ticket) in (0..).zip(tickets) {
            assert_eq!(ticket.unwrap().wait().unwrap(), dummy_ct(i));
        }
    }
    assert_eq!(dispatcher.stats().served_by_tier[1], FLOOD);
    // The first request's `breaker_open` and `failover`, then a
    // `tier_skipped` per further request.
    assert_bounded(dispatcher.resilience_journal(), 1 + FLOOD, "tier_skipped");
}

/// Fails its first call with a retryable fault, then serves through the
/// key store.
struct FailsOnce {
    inner: KeyStoreBootstrapper,
    calls: AtomicU64,
}

impl Bootstrapper for FailsOnce {
    fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
        if self.calls.fetch_add(1, Ordering::SeqCst) == 0 {
            return Err(TfheError::WorkerPanicked { worker: 0 });
        }
        self.inner.try_bootstrap_batch(req)
    }
}

#[test]
fn components_built_apart_write_one_timeline() {
    let mut rng = StdRng::seed_from_u64(0x71AE);
    let params = ParamSet::Test.params();
    let ck = ClientKey::generate(params.clone(), &mut rng);
    let tenant = TenantId::new(3);
    let backend = Arc::new(MemoryBackend::new());
    backend.insert_server_key(tenant, &ServerKey::new(&ck, &mut rng));

    // The dispatcher and the key store are 50 ms older than the request.
    let config = ServingConfig::builder()
        .max_batch_size(1)
        .retry(RetryConfig::new(1).with_base_backoff(Duration::ZERO))
        .build()
        .unwrap();
    let store = Arc::new(KeyStore::new(backend, u64::MAX));
    let backend = FailsOnce {
        inner: KeyStoreBootstrapper::new(Arc::clone(&store)),
        calls: AtomicU64::new(0),
    };
    let dispatcher = Dispatcher::from_config(&config, backend).unwrap();
    std::thread::sleep(Duration::from_millis(50));

    // One request: enqueued, the backend failed its first batch, the
    // dispatcher put it back in the queue, the batch that served it
    // started, the key store pinned the tenant's key and released it, the
    // batch ended. (The span reports the run that served the request; what
    // it spent failing is queue wait.)
    let lut = Arc::new(Lut::from_fn(params.poly_size, 4, |m| (m + 1) % 4));
    let ticket = dispatcher
        .submit_for(tenant, ck.encrypt(2, &mut rng), lut, None)
        .unwrap();
    assert_eq!(ck.decrypt(&ticket.wait().unwrap()), 3);

    let mut timeline: Vec<Event> = dispatcher.resilience_journal().events();
    timeline.extend(dispatcher.request_journal().events());
    timeline.extend(store.journal().events());
    let at = |label: &str| {
        let mut hits = timeline.iter().filter(|e| e.kind.label() == label);
        let hit = hits.next().unwrap_or_else(|| panic!("no {label} event"));
        assert!(hits.next().is_none(), "more than one {label} event");
        hit
    };
    let request = at("request");
    let EventKind::Request { exec_ns, .. } = request.kind else {
        unreachable!("labelled request");
    };
    let batch_start = request.at_ns + request.dur_ns;
    assert_eq!(at("retry").who, Who::Scope("dispatcher".into()));
    assert_eq!(at("pin").who, Who::Tenant(3));
    let happened = [
        ("enqueue", request.at_ns),
        ("retry", at("retry").at_ns),
        ("batch start", batch_start),
        ("miss", at("miss").at_ns),
        ("pin", at("pin").at_ns),
        ("unpin", at("unpin").at_ns),
        ("batch end", batch_start + exec_ns),
    ];
    for pair in happened.windows(2) {
        assert!(pair[0].1 <= pair[1].1, "{pair:?} out of order");
    }
}
