//! Process-global caches of transform engines keyed by polynomial size.
//!
//! Hot paths (key generation, encryption, bootstrapping, key
//! deserialization) must not rebuild twiddle tables — nothing in this
//! crate constructs a [`NegacyclicFft`] except [`fft_for`] — and the
//! [`BootstrapEngine`](crate::BootstrapEngine)'s
//! worker pool must *share* one engine per size across threads — Morphling
//! itself banks one set of transform twiddles for all 16 bootstrapping
//! cores. The caches are therefore `Arc`-based and global (a
//! `OnceLock<RwLock<HashMap>>` per transform kind), not thread-local:
//! every thread that asks for size `N` gets a handle to the same
//! immutable engine, built exactly once.
//!
//! Reads (the steady state) take only the `RwLock` read lock; the write
//! lock is taken once per distinct polynomial size for the lifetime of
//! the process.
//!
//! The caches recover from lock poisoning: a thread that panics while
//! holding a cache lock (e.g. an injected chaos fault landing inside a
//! builder) must not take the process-global cache down with it. Cached
//! values are insert-only `Arc`s, so the worst a poisoned write can leave
//! behind is a missing entry — safe to rebuild.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

use morphling_transform::{NegacyclicFft, NegacyclicNtt};

type Cache<T> = OnceLock<RwLock<HashMap<usize, Arc<T>>>>;

static FFT_CACHE: Cache<NegacyclicFft> = OnceLock::new();
static NTT_CACHE: Cache<NegacyclicNtt> = OnceLock::new();

fn get_or_build<T>(cache: &Cache<T>, n: usize, build: impl FnOnce(usize) -> T) -> Arc<T> {
    let lock = cache.get_or_init(|| RwLock::new(HashMap::new()));
    let read = lock.read().unwrap_or_else(|poisoned| {
        lock.clear_poison();
        poisoned.into_inner()
    });
    if let Some(engine) = read.get(&n) {
        return Arc::clone(engine);
    }
    drop(read);
    let mut map = lock.write().unwrap_or_else(|poisoned| {
        lock.clear_poison();
        poisoned.into_inner()
    });
    // Double-checked: another thread may have built it between our read
    // and write lock acquisitions.
    Arc::clone(map.entry(n).or_insert_with(|| Arc::new(build(n))))
}

/// Fetch (or build) the process-wide FFT engine for polynomial size `n`.
pub(crate) fn fft_for(n: usize) -> Arc<NegacyclicFft> {
    get_or_build(&FFT_CACHE, n, NegacyclicFft::new)
}

/// Fetch (or build) the process-wide NTT engine for polynomial size `n`:
/// the multiplier of the exact oracle
/// ([`external_product`](crate::external_product), and through it
/// [`MulBackend::Exact`](crate::MulBackend::Exact)).
pub(crate) fn ntt_for(n: usize) -> Arc<NegacyclicNtt> {
    get_or_build(&NTT_CACHE, n, NegacyclicNtt::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_returns_same_engine() {
        let a = fft_for(64);
        let b = fft_for(64);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(fft_for(128).poly_len(), 128);
    }

    #[test]
    fn cache_is_shared_across_threads() {
        let here = fft_for(64);
        let there = std::thread::spawn(|| fft_for(64)).join().expect("no panic");
        assert!(
            Arc::ptr_eq(&here, &there),
            "global cache must hand every thread the same engine"
        );
    }

    #[test]
    fn ntt_cache_returns_same_engine() {
        let a = ntt_for(64);
        let b = ntt_for(64);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn poisoned_cache_lock_recovers() {
        // Warm an entry, then poison the lock by panicking while holding
        // the write guard — the cache must keep serving (and keep its
        // existing entries) instead of propagating the poison forever.
        let before = fft_for(64);
        let poison = std::thread::spawn(|| {
            let lock = FFT_CACHE.get_or_init(|| RwLock::new(HashMap::new()));
            let _guard = lock.write().unwrap_or_else(|p| p.into_inner());
            panic!("poison the transform cache on purpose");
        })
        .join();
        assert!(poison.is_err(), "the poisoning thread must have panicked");
        let after = fft_for(64);
        assert!(
            Arc::ptr_eq(&before, &after),
            "recovered cache must still hold the pre-poison entry"
        );
        // New sizes still build after recovery.
        assert_eq!(fft_for(256).poly_len(), 256);
    }

    #[test]
    fn server_keys_of_one_size_share_the_cached_plan() {
        use crate::{ClientKey, ParamSet, ServerKey};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xFF7);
        let params = ParamSet::Test.params();
        let cached = fft_for(params.poly_size);
        let keys: Vec<ServerKey> = (0..2)
            .map(|_| ServerKey::new(&ClientKey::generate(params.clone(), &mut rng), &mut rng))
            .collect();
        for key in &keys {
            assert!(
                std::ptr::eq(key.fft(), &*cached),
                "every key of one N must compute with the one cached engine"
            );
        }
    }

    #[test]
    fn keystore_cold_load_builds_no_plan() {
        use crate::{ClientKey, KeyStore, MemoryBackend, ParamSet, ServerKey, TenantId};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xFF8);
        let params = ParamSet::Test.params();
        let sk = ServerKey::new(&ClientKey::generate(params.clone(), &mut rng), &mut rng);
        let backend = Arc::new(MemoryBackend::new());
        backend.insert_server_key(TenantId::new(1), &sk);
        let cached = fft_for(params.poly_size);
        let store = KeyStore::new(backend, u64::MAX);
        let loaded = store.get(TenantId::new(1)).expect("cold load");
        assert_eq!(store.stats().loads, 1);
        assert!(
            std::ptr::eq(loaded.fft(), &*cached),
            "a deserialized key must compute with the engine that was already cached"
        );
    }

    #[test]
    fn only_this_module_constructs_transform_engines() {
        // The contract above, checked where it can be: an engine built
        // for a conversion and dropped again leaves no pointer to
        // compare, so read the sources.
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        for entry in std::fs::read_dir(src).expect("crate sources") {
            let path = entry.expect("directory entry").path();
            if path.file_name().is_some_and(|name| name == "fft_cache.rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("source file");
            assert!(
                !text.contains("NegacyclicFft::new("),
                "{} builds its own transform engine; use fft_cache::fft_for",
                path.display()
            );
        }
    }

    #[test]
    fn concurrent_first_access_builds_once() {
        // Hammer an uncommon size from many threads; every handle must
        // alias a single allocation.
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| fft_for(512)))
            .collect();
        let engines: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect();
        for e in &engines[1..] {
            assert!(Arc::ptr_eq(&engines[0], e));
        }
    }
}
