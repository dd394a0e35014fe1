//! One conformance suite, four backends.
//!
//! Every [`Bootstrapper`] implementation — the sequential [`ServerKey`],
//! the persistent [`BootstrapEngine`] pool, the dynamic-batching [`Dispatcher`], and
//! a dispatcher over breaker-guarded fallback tiers — must satisfy the same
//! contract:
//!
//! - shared-LUT batches are **bit-identical** to the exact
//!   [`oracle`], element for element, in submission order;
//! - batches with a list of one LUT per ciphertext route ciphertext `i`
//!   through the LUT its list names and stay bit-identical;
//! - fanout batches (several LUTs per ciphertext, one blind rotation
//!   each via multi-value bootstrapping) flatten outputs in input order
//!   and stay bit-identical to the oracle;
//! - the empty batch is `Ok(vec![])`;
//! - malformed inputs (foreign-key ciphertexts) surface as errors, never
//!   panics or silent corruption.
//!
//! A backend that passes here is a drop-in replacement for any other. An
//! item that differs from the oracle is reported with the blind-rotation
//! step and GLWE component where it first leaves it
//! ([`oracle::first_divergence`]).

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use morphling_tfhe::{
    oracle, BatchRequest, BootstrapEngine, Bootstrapper, BreakerConfig, ClientKey, Dispatcher,
    DispatcherBuilder, FaultPlan, Lut, LweCiphertext, ParamSet, ServerKey, ServingConfig,
    TfheError, Who,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Fixture {
    client: ClientKey,
    server: Arc<ServerKey>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xC04F);
        let client = ClientKey::generate(ParamSet::Test.params(), &mut rng);
        let server = Arc::new(ServerKey::new(&client, &mut rng));
        Fixture { client, server }
    })
}

fn encrypt_batch(n: usize, seed: u64) -> Vec<LweCiphertext> {
    let f = fixture();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|m| f.client.encrypt(m as u64 % 4, &mut rng))
        .collect()
}

/// Holds `backend`'s outputs for `req`, a `shape` request, to the
/// oracle's, bit for bit; an item that differs names the step and GLWE
/// component where its rotation first leaves the oracle.
fn assert_matches_oracle<B: Bootstrapper>(
    backend: &B,
    name: &str,
    shape: &str,
    req: &BatchRequest,
) {
    let server = &fixture().server;
    let want = oracle::bootstrap(server, req).expect("the oracle's outputs");
    let got = backend
        .try_bootstrap_batch(req)
        .unwrap_or_else(|e| panic!("{name}: {shape} batch failed: {e}"));
    assert_eq!(got.len(), want.len(), "{name}: {shape} output count");
    let mut at = 0;
    for item in 0..req.len() {
        let outputs = at..at + req.output_count(item);
        assert!(
            got[outputs.clone()] == want[outputs.clone()],
            "{name}: {shape} item {item} differs from the oracle; first divergence \
             (step, GLWE component): {:?}",
            oracle::first_divergence(server, req, item)
        );
        at = outputs.end;
    }
}

/// The full conformance contract, run against one backend.
fn assert_conforms<B: Bootstrapper>(backend: &B, name: &str) {
    let f = fixture();
    let poly = f.server.params().poly_size;

    let lut = Lut::from_fn(poly, 4, |m| (3 * m + 1) % 4);
    let cts = encrypt_batch(7, 0xA11CE);
    let req = BatchRequest::shared(cts.clone(), lut.clone());
    assert_matches_oracle(backend, name, "shared-LUT", &req);

    // Lists of one: alternating identity / affine tables.
    let luts = vec![Lut::identity(poly, 4), lut];
    let lists: Vec<Vec<usize>> = (0..cts.len()).map(|i| vec![i % 2]).collect();
    let req = BatchRequest::fanned_out(cts, luts, lists).expect("valid lists of one");
    assert_matches_oracle(backend, name, "lists of one", &req);

    // Fanout: multi-value requests (several LUTs per ciphertext) flatten
    // in input order — the per-input derivation is deterministic, so
    // every backend is bit-identical regardless of how it chunks the
    // batch.
    let cts = encrypt_batch(5, 0xFA11);
    let luts = vec![
        Lut::identity(poly, 4),
        Lut::from_fn(poly, 4, |m| (3 * m + 1) % 4),
        Lut::from_fn(poly, 4, |m| m / 2),
    ];
    let map = vec![vec![0, 1, 2], vec![1], vec![2, 0], vec![0], vec![1, 2]];
    let req = BatchRequest::fanned_out(cts, luts, map).expect("valid fanout request");
    assert_eq!(req.output_len(), 9);
    assert_matches_oracle(backend, name, "fanout", &req);

    // The empty batch is a no-op, not an error.
    let empty = BatchRequest::shared(Vec::new(), Lut::identity(poly, 4));
    assert_eq!(
        backend.try_bootstrap_batch(&empty),
        Ok(Vec::new()),
        "{name}: empty batch must be Ok(vec![])"
    );

    // Ciphertexts from a foreign key (wrong LWE dimension) must surface
    // as an error — no panic, no silent garbage.
    let mut rng = StdRng::seed_from_u64(0xBAD);
    let foreign_ck = ClientKey::generate(ParamSet::TestMedium.params(), &mut rng);
    let foreign = vec![foreign_ck.encrypt(1, &mut rng)];
    let req = BatchRequest::shared(foreign, Lut::identity(poly, 4));
    assert!(
        backend.try_bootstrap_batch(&req).is_err(),
        "{name}: foreign-key ciphertexts must be rejected"
    );
}

#[test]
fn server_key_conforms() {
    assert_conforms(&*fixture().server, "ServerKey");
}

#[test]
fn bootstrap_engine_conforms() {
    let engine = BootstrapEngine::builder()
        .workers(2)
        .chunk_size(2)
        .build(Arc::clone(&fixture().server))
        .expect("spawn pool");
    assert_conforms(&engine, "BootstrapEngine");
}

#[test]
fn dispatcher_conforms() {
    let config = ServingConfig::builder()
        .max_batch_size(4)
        .max_linger(std::time::Duration::from_millis(1))
        .build()
        .expect("valid serving knobs");
    let dispatcher =
        Dispatcher::from_config(&config, Arc::clone(&fixture().server)).expect("validated above");
    assert_conforms(&dispatcher, "Dispatcher");
}

/// A dispatcher over `primary`, with the sequential reference as its one
/// fallback tier, `"server"`, and a default breaker on each tier; a batch
/// of up to `batch` forms whole before it flushes.
fn tiered(primary: BootstrapEngine, batch: usize) -> Dispatcher {
    let config = ServingConfig::builder()
        .max_batch_size(batch)
        .max_linger(Duration::from_secs(1))
        .breaker(BreakerConfig::default())
        .build()
        .expect("valid serving knobs");
    DispatcherBuilder::from_config(&config)
        .expect("validated above")
        .fallback("server", Arc::clone(&fixture().server))
        .build(primary)
}

#[test]
fn tiered_dispatcher_conforms() {
    let f = fixture();
    let engine = BootstrapEngine::builder()
        .workers(2)
        .build(Arc::clone(&f.server))
        .expect("spawn pool");
    let config = ServingConfig::builder()
        .max_batch_size(4)
        .max_linger(Duration::from_millis(1))
        .breaker(BreakerConfig::default())
        .build()
        .expect("valid serving knobs");
    let dispatcher = DispatcherBuilder::from_config(&config)
        .expect("validated above")
        .fallback("sequential", Arc::clone(&f.server))
        .build(engine);
    assert_conforms(&dispatcher, "tiered Dispatcher");
    // A healthy stack never leaves its primary.
    assert_eq!(dispatcher.stats().failovers, 0);
}

/// The degraded-mode contract: with the primary seeded to die on first
/// contact, the dispatcher's output must be **bit-identical** to what the
/// healthy primary would have produced — failover is invisible except in
/// latency, because every backend computes the same function.
#[test]
fn failover_with_dead_primary_matches_healthy_reference() {
    let f = fixture();
    let poly = f.server.params().poly_size;
    // Primary: every job panics, one worker, no respawn budget — killed
    // on first contact, EngineShutDown from then on (both retryable).
    let engine = BootstrapEngine::builder()
        .workers(1)
        .respawn_budget(0)
        .max_retries(0)
        .fault_plan(FaultPlan::seeded(0xDEAD).with_worker_panic(1.0))
        .build(Arc::clone(&f.server))
        .expect("spawn pool");
    let dispatcher = tiered(engine, 6);

    let lut = Lut::from_fn(poly, 4, |m| (3 * m + 1) % 4);
    let cts = encrypt_batch(6, 0xF01D);
    let req = BatchRequest::shared(cts, lut);
    let want = f
        .server
        .try_bootstrap_batch(&req)
        .expect("healthy reference");
    let got = dispatcher
        .try_bootstrap_batch(&req)
        .expect("fallback must serve");
    assert_eq!(
        got, want,
        "degraded-mode output must be bit-identical to the healthy primary"
    );
    let stats = dispatcher.stats();
    assert!(stats.failovers >= 1, "the dead primary was failed over");
    let served = stats.served_by_tier;
    assert_eq!(served[0], 0, "dead primary served nothing");
    assert_eq!(served[1], 1, "fallback served the batch");
    let events = dispatcher.resilience_journal().events();
    assert!(events.iter().any(|e| e.kind.label() == "failover"));
}

/// A tier over an engine that is already shut down is benched on the
/// first request — its breaker reads the engine's own health when the
/// batch is routed, with nothing wired — and the engine is never called.
#[test]
fn a_tier_over_a_shut_down_engine_is_benched_on_the_first_request() {
    let f = fixture();
    let mut engine = BootstrapEngine::builder()
        .workers(1)
        .build(Arc::clone(&f.server))
        .expect("spawn pool");
    engine.shutdown();
    let dispatcher = tiered(engine, 3);

    let lut = Lut::identity(f.server.params().poly_size, 4);
    let req = BatchRequest::shared(encrypt_batch(3, 0x5D0E), lut);
    let want = f.server.try_bootstrap_batch(&req).expect("reference");
    assert_eq!(dispatcher.try_bootstrap_batch(&req), Ok(want));
    // The engine is tier 0, which journals under the dispatcher's scope.
    let engine_tier = Who::Scope("dispatcher".into());
    let events: Vec<_> = dispatcher
        .resilience_journal()
        .events()
        .into_iter()
        .map(|e| (e.who, e.kind.label()))
        .collect();
    assert_eq!(
        events,
        [
            (engine_tier.clone(), "breaker_open"),
            (engine_tier, "tier_skipped")
        ]
    );
    let stats = dispatcher.stats();
    assert_eq!(stats.failovers, 0);
    let served = stats.served_by_tier;
    assert_eq!((served[0], served[1]), (0, 1), "the engine served nothing");
}

/// Tenant-keyed dispatch conformance: a mixed-tenant workload pushed
/// through a [`Dispatcher`] over a [`KeyStore`]-backed bootstrapper must
/// be **bit-identical, per tenant**, to calling that tenant's
/// [`ServerKey`] directly — the cache, the affinity batching, and the
/// eviction machinery are invisible in the outputs. The store's budget
/// covers only two of the three tenants, so the run actually exercises
/// eviction and reload mid-workload.
#[test]
fn tenant_keyed_dispatch_matches_direct_server_keys() {
    use morphling_tfhe::{KeyStore, KeyStoreBootstrapper, MemoryBackend, TenantId};

    let params = ParamSet::Test.params();
    let poly = params.poly_size;
    let mut rng = StdRng::seed_from_u64(0x7E4A);
    let backend = Arc::new(MemoryBackend::new());
    let mut tenants = Vec::new();
    for t in 0..3u64 {
        let ck = ClientKey::generate(params.clone(), &mut rng);
        let sk = Arc::new(ServerKey::new(&ck, &mut rng));
        backend.insert_server_key(TenantId::new(t), &sk);
        tenants.push((ck, sk));
    }
    // Room for two resident keys: the third tenant forces eviction.
    let one_key = params.bsk_total_bytes_fourier() + params.ksk_total_bytes();
    let store = Arc::new(KeyStore::new(backend, 2 * one_key));
    let config = ServingConfig::builder()
        .max_batch_size(4)
        .max_linger(std::time::Duration::from_millis(1))
        .build()
        .expect("valid serving knobs");
    let dispatcher = DispatcherBuilder::from_config(&config)
        .expect("validated above")
        .key_store(Arc::clone(&store))
        .build(KeyStoreBootstrapper::new(Arc::clone(&store)));

    let lut = Arc::new(Lut::from_fn(poly, 4, |m| (3 * m + 1) % 4));
    // Interleave tenants across two passes so evicted keys get reloaded.
    let mut pending = Vec::new();
    for round in 0..2u64 {
        for (t, (ck, sk)) in tenants.iter().enumerate() {
            for m in 0..4u64 {
                let ct = ck.encrypt((m + round) % 4, &mut rng);
                let want = sk.programmable_bootstrap(&ct, &lut);
                let ticket = dispatcher
                    .submit_for(TenantId::new(t as u64), ct, Arc::clone(&lut), None)
                    .expect("queue has room");
                pending.push((t, want, ticket));
            }
        }
    }
    for (t, want, ticket) in pending {
        let got = ticket.wait().expect("tenant-keyed request must serve");
        assert_eq!(
            got, want,
            "tenant {t}: dispatched output must be bit-identical to its own key"
        );
    }

    // Per-tenant stats cover the whole workload, and the store's key
    // counters reconcile with its journal.
    let stats = dispatcher.stats();
    assert_eq!(stats.per_tenant.len(), 3);
    for (t, s) in stats.per_tenant.iter().enumerate() {
        assert_eq!(s.tenant, t as u64);
        assert_eq!(s.completed, 8, "tenant {t}");
        assert!(s.p50_latency <= s.p99_latency);
    }
    let events = store.journal().events();
    assert_eq!(
        store.journal().dropped(),
        0,
        "the journal holds every event"
    );
    let count = |label: &str| events.iter().filter(|e| e.kind.label() == label).count() as u64;
    let ks = store.stats();
    assert_eq!(ks.hits, count("hit"));
    assert_eq!(ks.misses, count("miss"));
    assert_eq!(ks.evictions, count("evict"));
    assert!(
        ks.evictions >= 1,
        "three tenants over a two-key budget must evict"
    );
    assert_eq!(count("pin"), count("unpin"), "all pins released");
}

/// Malformed requests are caught at construction, uniformly for every
/// backend ([`BatchRequest::fanned_out`] is the single validation point).
#[test]
fn builder_rejects_malformed_requests() {
    let f = fixture();
    let poly = f.server.params().poly_size;
    let cts = encrypt_batch(3, 0x5EED);

    // Ciphertexts but no LUT.
    assert_eq!(
        BatchRequest::fanned_out(cts.clone(), Vec::new(), vec![vec![0]; 3]).err(),
        Some(TfheError::NoLutProvided)
    );
    // Fewer lists than ciphertexts.
    assert!(matches!(
        BatchRequest::fanned_out(
            cts.clone(),
            vec![Lut::identity(poly, 4)],
            vec![vec![0], vec![0]],
        ),
        Err(TfheError::FanoutLengthMismatch { .. })
    ));
    // Empty fanout list: a ciphertext must map to at least one LUT.
    assert!(matches!(
        BatchRequest::fanned_out(
            cts.clone(),
            vec![Lut::identity(poly, 4)],
            vec![vec![0], vec![], vec![0]],
        ),
        Err(TfheError::EmptyFanout { input: 1 })
    ));
    // Fanout index out of range.
    assert!(matches!(
        BatchRequest::fanned_out(
            cts,
            vec![Lut::identity(poly, 4)],
            vec![vec![0], vec![1], vec![0]],
        ),
        Err(TfheError::LutIndexOutOfRange { .. })
    ));
}
