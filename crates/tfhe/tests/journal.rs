//! The event journal under the two conditions it exists for: a sick
//! service flooding it, and the components of one serving stack, built at
//! different times, writing one timeline into it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use morphling_tfhe::journal::JOURNAL_CAPACITY;
use morphling_tfhe::{
    BatchRequest, BootstrapEngine, Bootstrapper, BreakerConfig, ClientKey, Dispatcher,
    DispatcherBuilder, Event, EventKind, Journal, KeyStore, KeyStoreBootstrapper, Lut,
    LweCiphertext, MemoryBackend, ParamSet, RetryConfig, ServerKey, ServingConfig, TenantId,
    TfheError, Who,
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

/// `journal` keeps the capacity of each flood, `(label, recorded)`, and
/// `dropped` accounts exactly for the rest of them; returns the labels of
/// what else it keeps, in record order.
fn assert_bounded(journal: &Journal, floods: &[(&str, u64)]) -> Vec<&'static str> {
    let events = journal.events();
    let flooded = |label| floods.iter().any(|&(flood, _)| flood == label);
    for &(flood, _) in floods {
        let kept = events.iter().filter(|e| e.kind.label() == flood).count();
        assert_eq!(kept, JOURNAL_CAPACITY, "{flood}");
    }
    let recorded: u64 = floods.iter().map(|&(_, n)| n).sum();
    let overwritten = recorded - (floods.len() * JOURNAL_CAPACITY) as u64;
    assert_eq!(journal.dropped(), overwritten);
    let labels = events.iter().map(|e| e.kind.label());
    labels.filter(|&label| !flooded(label)).collect()
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
    let journal = dispatcher.journal();
    for i in 0..FLOOD {
        let refused = dispatcher.try_submit(dummy_ct(i as u32), Arc::clone(&lut), None);
        assert!(matches!(refused, Err(TfheError::Overloaded { .. })));
    }
    assert_eq!(dispatcher.stats().shed, FLOOD);
    // The spans, one `breaker_open`, then the sheds: only sheds go.
    let kept = assert_bounded(journal, &[("shed", FLOOD)]);
    assert_eq!(
        kept,
        [["request"; 8].as_slice(), &["breaker_open"]].concat()
    );
    assert_eq!(dispatcher.spans(), spans, "request spans survive the flood");
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
    // A span per request; the first request's `breaker_open` and
    // `failover`, then a `tier_skipped` per further request. The two
    // floods turn over their own rings, and the first incidents stay.
    let floods = [("request", FLOOD), ("tier_skipped", FLOOD - 1)];
    let kept = assert_bounded(dispatcher.journal(), &floods);
    assert_eq!(kept, ["breaker_open", "failover"]);
    let spans = dispatcher.spans();
    assert_eq!(
        spans.last().map(|s| s.id),
        Some(FLOOD - 1),
        "the newest stay"
    );
}

/// Fails its first call with a retryable fault, then serves through
/// `inner`, whose journal it is.
struct FailsOnce<B> {
    inner: B,
    calls: AtomicU64,
}

impl<B> FailsOnce<B> {
    fn new(inner: B) -> Self {
        let calls = AtomicU64::new(0);
        Self { inner, calls }
    }
}

impl<B: Bootstrapper> Bootstrapper for FailsOnce<B> {
    fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
        if self.calls.fetch_add(1, Ordering::SeqCst) == 0 {
            return Err(TfheError::WorkerPanicked { worker: 0 });
        }
        self.inner.try_bootstrap_batch(req)
    }

    fn journal(&self) -> Option<&Arc<Journal>> {
        self.inner.journal()
    }
}

/// Retry once, at once.
fn retry_once() -> ServingConfig {
    ServingConfig::builder()
        .max_batch_size(1)
        .retry(RetryConfig {
            base_backoff: Duration::ZERO,
            ..RetryConfig::new(1)
        })
        .build()
        .unwrap()
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
    let store = Arc::new(KeyStore::new(backend, u64::MAX));
    let backend = FailsOnce::new(KeyStoreBootstrapper::new(Arc::clone(&store)));
    let dispatcher = Dispatcher::from_config(&retry_once(), backend).unwrap();
    assert!(std::ptr::eq(dispatcher.journal(), store.journal()));
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

    let timeline = dispatcher.journal().events();
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

#[test]
fn an_engine_stack_journals_each_job_inside_its_batch() {
    let mut rng = StdRng::seed_from_u64(0x71AF);
    let params = ParamSet::Test.params();
    let ck = ClientKey::generate(params.clone(), &mut rng);
    let sk = Arc::new(ServerKey::new(&ck, &mut rng));
    let engine = BootstrapEngine::builder().workers(1).build(sk).unwrap();
    let engine = Arc::new(engine);
    let dispatcher = Dispatcher::from_config(&retry_once(), FailsOnce::new(Arc::clone(&engine)));
    let dispatcher = dispatcher.unwrap();
    assert!(std::ptr::eq(
        dispatcher.journal(),
        BootstrapEngine::journal(&engine)
    ));

    let lut = Arc::new(Lut::from_fn(params.poly_size, 4, |m| (m + 1) % 4));
    let tickets: Vec<_> = (0..3)
        .map(|m| dispatcher.submit(ck.encrypt(m, &mut rng), Arc::clone(&lut), None))
        .collect();
    for (m, ticket) in (0..).zip(tickets) {
        assert_eq!(ck.decrypt(&ticket.unwrap().wait().unwrap()), (m + 1) % 4);
    }

    // One stream: the dispatcher's retry and spans, the engine's jobs.
    let events = dispatcher.journal().events();
    let count = |label: &str| events.iter().filter(|e| e.kind.label() == label).count();
    assert_eq!((count("retry"), count("request"), count("job")), (1, 3, 3));
    for span in dispatcher.spans() {
        let (start, end) = (span.exec_start, span.exec_start + span.exec);
        let inside = |e: &&Event| {
            let (at, dur) = (
                Duration::from_nanos(e.at_ns),
                Duration::from_nanos(e.dur_ns),
            );
            e.who == Who::Worker(0) && start <= at && at + dur <= end
        };
        assert_eq!(events.iter().filter(inside).count(), 1, "{span:?}");
    }
}

#[test]
fn two_dispatchers_over_one_store_read_only_their_own_spans() {
    let mut rng = StdRng::seed_from_u64(0x71B0);
    let params = ParamSet::Test.params();
    let ck = ClientKey::generate(params.clone(), &mut rng);
    let tenant = TenantId::new(1);
    let backend = Arc::new(MemoryBackend::new());
    backend.insert_server_key(tenant, &ServerKey::new(&ck, &mut rng));
    let keys = KeyStoreBootstrapper::new(Arc::new(KeyStore::new(backend, u64::MAX)));
    let first = Dispatcher::new(keys.clone());
    let second = Dispatcher::new(keys.clone());
    // The first claims the store's journal; the second keeps its own, and
    // so does a dispatcher in front of the first.
    assert!(std::ptr::eq(first.journal(), keys.store().journal()));
    assert!(!std::ptr::eq(second.journal(), keys.store().journal()));
    let first = Arc::new(first);
    let front = Dispatcher::new(Arc::clone(&first));
    assert!(!std::ptr::eq(front.journal(), Dispatcher::journal(&first)));
    // A journal a dispatcher made for itself is taken as well.
    let alone = Arc::new(Dispatcher::new(Echo::default()));
    let front = Dispatcher::new(Arc::clone(&alone));
    assert!(!std::ptr::eq(front.journal(), Dispatcher::journal(&alone)));

    let lut = Arc::new(Lut::from_fn(params.poly_size, 4, |m| (m + 1) % 4));
    for (dispatcher, n) in [(&*first, 2), (&second, 3)] {
        for m in 0..n {
            let ct = ck.encrypt(m, &mut rng);
            let ticket = dispatcher.submit_for(tenant, ct, Arc::clone(&lut), None);
            assert_eq!(ck.decrypt(&ticket.unwrap().wait().unwrap()), (m + 1) % 4);
        }
    }
    let ids = |d: &Dispatcher| d.spans().iter().map(|s| s.id).collect::<Vec<_>>();
    assert_eq!((ids(&first), ids(&second)), (vec![0, 1], vec![0, 1, 2]));
}
