//! Threaded smoke of the multi-tenant [`KeyStore`] under a dispatcher,
//! with a fault-injecting backend that corrupts blobs on load.
//!
//! The cache's own contracts — pinned keys are never evicted, the budget
//! holds, a failed load never wedges its slot, an impossible budget is a
//! loud error, counters match the journal — are swept over 1 000 seeds on
//! virtual time in `keystore::tests`. This file checks that the threaded
//! shell around that cache loses nothing end to end.
//!
//! The seed is fixed, so a failure replays locally; `MORPHLING_CHAOS_SEED`
//! overrides it so CI can sweep several.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use morphling_tfhe::faults;
use morphling_tfhe::keystore::{
    KeyBackend, KeyStore, KeyStoreBootstrapper, MemoryBackend, TenantId,
};
use morphling_tfhe::{
    ClientKey, DispatcherBuilder, EventKind, Lut, ParamSet, ServerKey, ServingConfig, TfheError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Base seed, overridable via `MORPHLING_CHAOS_SEED` (CI sweeps 1..=3).
fn chaos_seed(default: u64) -> u64 {
    std::env::var("MORPHLING_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map(|s| s.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ default)
        .unwrap_or(default)
}

/// A backend that deterministically flips one payload byte on a
/// seeded fraction of loads — a disk or wire corruption stand-in.
struct CorruptingBackend {
    inner: MemoryBackend,
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

/// A dispatcher serving three tenants through a two-key store with a
/// corrupting backend loses nothing: every submission resolves as a
/// bit-correct completion or a typed failure, and the dispatcher's
/// key-cache counters agree with the store's stats and journal.
#[test]
fn dispatcher_over_chaotic_keystore_loses_nothing() {
    let seed = chaos_seed(0xD15C);
    let mut rng = StdRng::seed_from_u64(seed);
    const TENANTS: u64 = 3;
    let params = ParamSet::Test.params();
    let inner = MemoryBackend::new();
    let clients: Vec<ClientKey> = (0..TENANTS)
        .map(|t| {
            let ck = ClientKey::generate(params.clone(), &mut rng);
            inner.insert_server_key(TenantId::new(t), &ServerKey::new(&ck, &mut rng));
            ck
        })
        .collect();
    let backend = Arc::new(CorruptingBackend {
        inner,
        seed,
        rate: 0.2,
        attempts: AtomicU64::new(0),
    });
    let one_key = params.bsk_total_bytes_fourier() + params.ksk_total_bytes();
    let budget = 2 * one_key;
    let store = Arc::new(KeyStore::new(backend, budget));
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
            let ticket = d.submit_for(TenantId::new(t), ct, Arc::clone(&lut), None);
            tickets.push((t, (m + 1) % 4, ticket.unwrap()));
        }
    }
    let submitted = tickets.len() as u64;
    let (mut completed, mut failed) = (0u64, 0u64);
    for (t, want, ticket) in tickets {
        match ticket.wait() {
            Ok(out) => {
                assert_eq!(clients[t as usize].decrypt(&out), want, "tenant {t}");
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
    assert_eq!(
        (stats.submitted, stats.completed, stats.failed),
        (submitted, completed, failed)
    );
    let ks = store.stats();
    assert!(ks.bytes_resident <= budget, "over budget");
    // The journal holds every transition, and its counts are the counters.
    let events = store.journal().events();
    assert_eq!(store.journal().dropped(), 0, "the journal overflowed");
    let count = |label: &str| events.iter().filter(|e| e.kind.label() == label).count() as u64;
    let counted = [count("hit"), count("miss"), count("load"), count("evict")];
    assert_eq!(counted, [ks.hits, ks.misses, ks.loads, ks.evictions]);
    assert_eq!(count("pin"), count("unpin"), "every pin released");
    let resident: i128 = (events.iter())
        .map(|e| match e.kind {
            EventKind::Load { bytes } => bytes as i128,
            EventKind::Evict { bytes } => -(bytes as i128),
            _ => 0,
        })
        .sum();
    assert_eq!(
        resident, ks.bytes_resident as i128,
        "loaded − evicted bytes"
    );
}
