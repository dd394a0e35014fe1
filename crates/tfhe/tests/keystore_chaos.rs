//! Seeded chaos harness for the multi-tenant [`KeyStore`].
//!
//! Threads hammer a byte-budgeted store with more tenants than the
//! budget fits, while a fault-injecting backend corrupts blobs on load.
//! The store's contract under that pressure:
//!
//! - **pinned keys are never evicted**: replaying the journal, every
//!   tenant's pin/unpin balance is exactly zero at each of its evict
//!   events (the store only victimizes keys with no outstanding pins,
//!   and [`PinnedKey`]'s drop journals the unpin *before* releasing);
//! - **corruption is loud and transient**: a corrupted blob surfaces as
//!   [`TfheError::KeyCorrupted`] to that caller and the store stays
//!   serviceable — later loads of the same tenant can succeed;
//! - **an impossible budget is an error, not a livelock**: a budget
//!   smaller than one key fails every `get` with
//!   [`TfheError::KeyBudgetExceeded`] promptly (a hang here is caught
//!   by the CI timeout);
//! - **counters and journal reconcile**: hits/misses/loads/evictions
//!   match the journal's event counts, and resident bytes equal loaded
//!   minus evicted bytes.
//!
//! All seeds are fixed, so CI failures replay locally. Tests honor
//! `MORPHLING_CHAOS_SEED` so CI can sweep several seeds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use morphling_tfhe::faults;
use morphling_tfhe::keystore::{
    KeyBackend, KeyStore, KeyStoreBootstrapper, MemoryBackend, TenantId,
};
use morphling_tfhe::{
    ClientKey, DispatcherBuilder, Event, EventKind, Lut, ParamSet, ServerKey, ServingConfig,
    TfheError, TfheParams, Who,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// Serialized-key footprint of one `ParamSet::Test` server key, the
/// store's accounting unit.
fn one_key_bytes(params: &TfheParams) -> u64 {
    params.bsk_total_bytes_fourier() + params.ksk_total_bytes()
}

/// Generate `n` tenants' keys into a fresh in-memory backend. Returns
/// the backend and the client keys (index = tenant id).
fn populate(n: u64, rng: &mut StdRng) -> (Arc<MemoryBackend>, Vec<ClientKey>) {
    let params = ParamSet::Test.params();
    let backend = Arc::new(MemoryBackend::new());
    let mut clients = Vec::new();
    for t in 0..n {
        let ck = ClientKey::generate(params.clone(), rng);
        let sk = ServerKey::new(&ck, rng);
        backend.insert_server_key(TenantId::new(t), &sk);
        clients.push(ck);
    }
    (backend, clients)
}

/// The store's whole journal — the replays below are only proofs if
/// nothing was overwritten.
fn whole_journal(store: &KeyStore) -> Vec<Event> {
    let events = store.journal().events();
    assert_eq!(store.journal().dropped(), 0, "the journal overflowed");
    events
}

/// Replay the journal and panic if any tenant is evicted while its
/// pin/unpin balance is nonzero. Returns the number of evict events.
fn assert_no_pinned_eviction(store: &KeyStore) -> usize {
    let mut balance: std::collections::HashMap<u64, i64> = std::collections::HashMap::new();
    let mut evictions = 0;
    for (i, e) in whole_journal(store).iter().enumerate() {
        let Who::Tenant(tenant) = e.who else {
            panic!("journal event {i} names no tenant: {e:?}");
        };
        match e.kind {
            EventKind::Pin => *balance.entry(tenant).or_default() += 1,
            EventKind::Unpin => *balance.entry(tenant).or_default() -= 1,
            EventKind::Evict { .. } => {
                evictions += 1;
                let b = balance.get(&tenant).copied().unwrap_or(0);
                assert_eq!(
                    b, 0,
                    "journal event {i}: tenant {tenant} evicted with pin balance {b}"
                );
            }
            _ => {}
        }
    }
    evictions
}

/// Counters must be derivable from the journal: same event counts, and
/// resident bytes = loaded − evicted bytes.
fn assert_counters_reconcile(store: &KeyStore) {
    let events = whole_journal(store);
    let count = |label: &str| events.iter().filter(|e| e.kind.label() == label).count() as u64;
    let stats = store.stats();
    assert_eq!(stats.hits, count("hit"), "hits vs journal");
    assert_eq!(stats.misses, count("miss"), "misses vs journal");
    assert_eq!(stats.loads, count("load"), "loads vs journal");
    assert_eq!(stats.evictions, count("evict"), "evictions vs journal");
    assert_eq!(count("pin"), count("unpin"), "all pins released");
    let loaded: u64 = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Load { bytes } => Some(bytes),
            _ => None,
        })
        .sum();
    let evicted: u64 = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Evict { bytes } => Some(bytes),
            _ => None,
        })
        .sum();
    assert_eq!(stats.bytes_resident, loaded - evicted, "bytes vs journal");
    assert_eq!(
        stats.resident_keys,
        stats.loads - stats.evictions,
        "resident keys vs loads − evictions"
    );
}

/// Five tenants fighting over a two-key budget from eight threads:
/// every serve succeeds, evictions happen constantly, and the journal
/// proves no pinned key was ever a victim.
#[test]
fn eviction_races_never_evict_pinned_keys() {
    let seed = chaos_seed(0xE51C);
    let mut rng = StdRng::seed_from_u64(seed);
    const TENANTS: u64 = 5;
    let (backend, _clients) = populate(TENANTS, &mut rng);
    let params = ParamSet::Test.params();
    let store = Arc::new(KeyStore::new(backend, 2 * one_key_bytes(&params)));

    const THREADS: u64 = 8;
    const OPS: u64 = 32;
    let served = AtomicU64::new(0);
    let budget_raced = AtomicU64::new(0);
    std::thread::scope(|s| {
        for thread in 0..THREADS {
            let store = Arc::clone(&store);
            let served = &served;
            let budget_raced = &budget_raced;
            s.spawn(move || {
                for op in 0..OPS {
                    let draw = faults::unit_sample(seed, 0x7E4A, thread, op as u32);
                    let tenant = TenantId::new((draw * TENANTS as f64) as u64 % TENANTS);
                    match store.get(tenant) {
                        Ok(pinned) => {
                            // Hold the pin across a short seeded window
                            // so evictors race against live pins, then
                            // release.
                            std::hint::black_box(pinned.params().poly_size);
                            let hold = faults::unit_sample(seed, 0x4F1D, thread, op as u32);
                            std::thread::sleep(Duration::from_micros((hold * 150.0) as u64));
                            served.fetch_add(1, Ordering::SeqCst);
                        }
                        // When every resident is pinned, a load must
                        // fail loudly rather than wait on a pin (that
                        // way lies livelock) — a legal chaos outcome.
                        Err(TfheError::KeyBudgetExceeded { .. }) => {
                            budget_raced.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(other) => panic!("t{thread} op{op}: {other}"),
                    }
                }
            });
        }
    });

    let evictions = assert_no_pinned_eviction(&store);
    assert!(evictions > 0, "5 tenants over a 2-key budget must evict");
    assert_counters_reconcile(&store);
    let stats = store.stats();
    let served = served.load(Ordering::SeqCst);
    let budget_raced = budget_raced.load(Ordering::SeqCst);
    assert_eq!(served + budget_raced, THREADS * OPS, "no serve lost");
    assert!(served > budget_raced, "most serves should land");
    assert_eq!(stats.hits + stats.misses, THREADS * OPS);
    assert_eq!(
        stats.load_failures, budget_raced,
        "failures all budget races"
    );
    assert!(stats.bytes_resident <= store.budget_bytes(), "over budget");
}

/// A backend that deterministically flips one payload byte on a
/// seeded fraction of loads — a disk or wire corruption stand-in.
struct CorruptingBackend {
    inner: Arc<MemoryBackend>,
    seed: u64,
    rate: f64,
    attempts: AtomicU64,
}

impl KeyBackend for CorruptingBackend {
    fn load(&self, tenant: TenantId) -> Result<Vec<u8>, TfheError> {
        let mut blob = self.inner.load(tenant)?;
        let attempt = self.attempts.fetch_add(1, Ordering::SeqCst);
        if faults::decide(self.seed, 0xC0_44BE, attempt, 0, self.rate) {
            let mid = blob.len() / 2;
            blob[mid] ^= 0x40;
        }
        Ok(blob)
    }
}

/// Corrupted loads surface as typed errors to the caller that hit
/// them, never wedge the load slot, and leave the store able to serve
/// the same tenant on a later, clean load.
#[test]
fn corrupt_loads_surface_typed_errors_and_do_not_wedge() {
    let seed = chaos_seed(0xC044);
    let mut rng = StdRng::seed_from_u64(seed);
    const TENANTS: u64 = 3;
    let (memory, _clients) = populate(TENANTS, &mut rng);
    let params = ParamSet::Test.params();
    let backend = Arc::new(CorruptingBackend {
        inner: memory,
        seed,
        rate: 0.25,
        attempts: AtomicU64::new(0),
    });
    // Two-key budget over three tenants: constant reloads keep the
    // corrupting path hot instead of hiding behind cache hits.
    let store = Arc::new(KeyStore::new(backend, 2 * one_key_bytes(&params)));

    const THREADS: u64 = 6;
    const OPS: u64 = 24;
    let served: Vec<AtomicU64> = (0..TENANTS).map(|_| AtomicU64::new(0)).collect();
    let corrupted = AtomicU64::new(0);
    std::thread::scope(|s| {
        for thread in 0..THREADS {
            let store = Arc::clone(&store);
            let served = &served;
            let corrupted = &corrupted;
            s.spawn(move || {
                for op in 0..OPS {
                    let draw = faults::unit_sample(seed, 0x7E4B, thread, op as u32);
                    let tenant = (draw * TENANTS as f64) as u64 % TENANTS;
                    match store.get(TenantId::new(tenant)) {
                        Ok(pinned) => {
                            assert_eq!(pinned.tenant().raw(), tenant);
                            served[tenant as usize].fetch_add(1, Ordering::SeqCst);
                        }
                        Err(TfheError::KeyCorrupted { .. }) => {
                            corrupted.fetch_add(1, Ordering::SeqCst);
                        }
                        // A load can also lose the budget race while
                        // other tenants hold pins — loud, typed, fine.
                        Err(TfheError::KeyBudgetExceeded { .. }) => {}
                        Err(other) => panic!("t{thread} op{op}: unexpected error {other}"),
                    }
                }
            });
        }
    });

    // Every op resolved (the scope joined); the interesting outcomes
    // both actually happened, and corruption never took a tenant down
    // for good.
    assert!(
        corrupted.load(Ordering::SeqCst) > 0,
        "rate 0.25 never fired"
    );
    for (t, count) in served.iter().enumerate() {
        assert!(
            count.load(Ordering::SeqCst) > 0,
            "tenant {t} was never served despite transient corruption"
        );
    }
    let stats = store.stats();
    assert!(
        stats.load_failures >= corrupted.load(Ordering::SeqCst),
        "every surfaced corruption is a counted load failure"
    );
    let corrupt_events = whole_journal(&store)
        .iter()
        .filter(|e| e.kind.label() == "corrupt")
        .count() as u64;
    assert_eq!(
        corrupt_events,
        corrupted.load(Ordering::SeqCst),
        "journal corrupt events vs surfaced KeyCorrupted errors"
    );
    assert_no_pinned_eviction(&store);
}

/// A budget that cannot fit even one key must fail every serve with
/// [`TfheError::KeyBudgetExceeded`] immediately — not retry, not spin,
/// not evict-nothing forever. The test completing at all is the
/// anti-livelock assertion; the CI timeout is the backstop.
#[test]
fn budget_below_one_key_is_a_loud_error_not_a_livelock() {
    let seed = chaos_seed(0xB0D6);
    let mut rng = StdRng::seed_from_u64(seed);
    let (backend, _clients) = populate(2, &mut rng);
    let params = ParamSet::Test.params();
    let store = Arc::new(KeyStore::new(backend, one_key_bytes(&params) / 2));

    std::thread::scope(|s| {
        for thread in 0..4u64 {
            let store = Arc::clone(&store);
            s.spawn(move || {
                for op in 0..4u64 {
                    match store.get(TenantId::new((thread + op) % 2)) {
                        Ok(_) => panic!("t{thread} op{op}: a half-key budget can never serve"),
                        Err(TfheError::KeyBudgetExceeded { .. }) => {}
                        Err(other) => {
                            panic!("t{thread} op{op}: want KeyBudgetExceeded, got {other}")
                        }
                    }
                }
            });
        }
    });

    let stats = store.stats();
    assert_eq!(stats.resident_keys, 0, "nothing can be resident");
    assert_eq!(stats.bytes_resident, 0);
    assert_eq!(stats.load_failures, 16, "every get failed at publish");
}

/// End-to-end: a dispatcher serving three tenants through a keystore
/// with a corrupting backend loses nothing — every submission resolves
/// as a bit-correct completion or a typed failure, and the dispatcher's
/// key-cache counters agree with the store's journal.
#[test]
fn dispatcher_over_chaotic_keystore_loses_nothing() {
    let seed = chaos_seed(0xD15C);
    let mut rng = StdRng::seed_from_u64(seed);
    const TENANTS: u64 = 3;
    let (memory, clients) = populate(TENANTS, &mut rng);
    let params = ParamSet::Test.params();
    let backend = Arc::new(CorruptingBackend {
        inner: memory,
        seed,
        rate: 0.2,
        attempts: AtomicU64::new(0),
    });
    let store = Arc::new(KeyStore::new(backend, 2 * one_key_bytes(&params)));
    let config = ServingConfig::builder()
        .max_batch_size(4)
        .max_linger(Duration::from_millis(1))
        .build()
        .expect("valid serving knobs");
    let d = DispatcherBuilder::from_config(&config)
        .expect("validated above")
        .key_store(Arc::clone(&store))
        .build(KeyStoreBootstrapper::new(Arc::clone(&store)));

    let lut = Arc::new(Lut::from_fn(params.poly_size, 4, |m| (m + 1) % 4));
    let mut tickets = Vec::new();
    for round in 0..4u64 {
        for t in 0..TENANTS {
            let m = (round + t) % 4;
            let ct = clients[t as usize].encrypt(m, &mut rng);
            tickets.push((
                t,
                (m + 1) % 4,
                d.submit_for(TenantId::new(t), ct, Arc::clone(&lut), None)
                    .unwrap(),
            ));
        }
    }
    let submitted = tickets.len() as u64;
    let mut completed = 0u64;
    let mut failed = 0u64;
    for (t, want, ticket) in tickets {
        match ticket.wait() {
            Ok(out) => {
                assert_eq!(
                    clients[t as usize].decrypt(&out),
                    want,
                    "tenant {t}: completed result must be bit-correct"
                );
                completed += 1;
            }
            Err(TfheError::KeyCorrupted { .. }) | Err(TfheError::KeyBudgetExceeded { .. }) => {
                failed += 1;
            }
            Err(other) => panic!("tenant {t}: unexpected error {other}"),
        }
    }
    assert_eq!(completed + failed, submitted, "no ticket lost");

    let stats = d.stats();
    assert_eq!(stats.completed, completed);
    assert_eq!(stats.failed, failed);
    assert_eq!(stats.submitted, submitted);
    let ks = store.stats();
    assert_eq!(stats.key_hits, ks.hits);
    assert_eq!(stats.key_misses, ks.misses);
    assert_eq!(stats.key_evictions, ks.evictions);
    assert_eq!(stats.key_bytes_resident, ks.bytes_resident);
    assert_no_pinned_eviction(&store);
    assert_counters_reconcile(&store);
}
