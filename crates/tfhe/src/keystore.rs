//! Multi-tenant server-key management: a byte-budget LRU cache over a
//! pluggable storage backend, with load-coalescing and pinning.
//!
//! Morphling's throughput case rests on keeping the bootstrapping key
//! resident — BSKs are tens of MB and the key working set is the scarce
//! resource (Fig 1: ≈100 MB in the transform domain at 128-bit
//! parameters). A service fronting *millions* of tenants cannot keep a
//! key per tenant resident; it needs exactly what an accelerator's HBM
//! controller needs: a budgeted cache with eviction, and a guarantee that
//! a key feeding an in-flight batch is never evicted out from under it.
//!
//! The pieces:
//!
//! - [`KeyBackend`]: where serialized keys live ([`MemoryBackend`] for
//!   tests, [`DirBackend`] for a key directory on disk). Blobs use the
//!   checksummed wire format of [`crate::serialize`].
//! - [`KeyStore`]: the cache. `get(tenant)` returns a [`PinnedKey`] —
//!   a clone-cheap handle that holds a pin for its lifetime. Concurrent
//!   misses for one tenant coalesce into a single backend load (the same
//!   double-checked discipline as the crate's transform-engine cache,
//!   plus a condvar because backend loads are slow and fallible).
//! - Eviction: strict LRU over *unpinned* residents. A key that cannot
//!   fit even after evicting every unpinned resident fails loudly with
//!   [`TfheError::KeyBudgetExceeded`] — never a livelock, never thrash.
//! - [`KeyStoreBootstrapper`]: adapts a store to the [`Bootstrapper`]
//!   trait by resolving [`BatchRequest::tenant`] through the cache and
//!   holding the pin for the duration of the batch.
//!
//! Every cache transition is an [`Event`] under [`Who::Tenant`] in the
//! store's [`journal`](KeyStore::journal), so the shared Chrome-trace
//! export can render a track per tenant and tests can reconcile counters
//! against events.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};

use crate::bootstrapper::{BatchRequest, Bootstrapper};
use crate::error::TfheError;
use crate::journal::{Event, EventKind, Journal, Who};
use crate::lwe::LweCiphertext;
use crate::serialize::deserialize_server_key;
use crate::server::ServerKey;

/// Mutex guard that shrugs off poisoning: key-cache bookkeeping stays
/// usable even if a panicking thread died mid-update (same policy as the
/// dispatcher's counters).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Identifies one tenant's key material in a [`KeyStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(u64);

impl TenantId {
    /// Wrap a raw tenant number.
    pub const fn new(id: u64) -> Self {
        Self(id)
    }

    /// The raw tenant number.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

impl From<u64> for TenantId {
    fn from(id: u64) -> Self {
        Self(id)
    }
}

/// Where serialized server keys live. Implementations must be cheap to
/// share across threads; `load` may be slow (disk, network) — the store
/// never holds its cache lock across a `load`.
pub trait KeyBackend: Send + Sync {
    /// Fetch the serialized [`ServerKey`] blob for `tenant`.
    ///
    /// # Errors
    ///
    /// [`TfheError::KeyNotFound`] if the backend has no blob for this
    /// tenant; [`TfheError::KeyCorrupted`] if the blob cannot be read.
    fn load(&self, tenant: TenantId) -> Result<Vec<u8>, TfheError>;
}

/// An in-memory backend: a map of serialized blobs (tests, seeding,
/// single-process serving).
#[derive(Default)]
pub struct MemoryBackend {
    blobs: RwLock<HashMap<u64, Vec<u8>>>,
}

impl MemoryBackend {
    /// An empty backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store a raw serialized blob for `tenant` (replacing any previous
    /// one).
    pub fn insert(&self, tenant: TenantId, blob: Vec<u8>) {
        self.blobs
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(tenant.raw(), blob);
    }

    /// Serialize `key` and store it for `tenant`.
    pub fn insert_server_key(&self, tenant: TenantId, key: &ServerKey) {
        self.insert(tenant, crate::serialize::serialize_server_key(key));
    }
}

impl KeyBackend for MemoryBackend {
    fn load(&self, tenant: TenantId) -> Result<Vec<u8>, TfheError> {
        self.blobs
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&tenant.raw())
            .cloned()
            .ok_or(TfheError::KeyNotFound {
                tenant: tenant.raw(),
            })
    }
}

/// A directory-backed backend: one `tenant-<id>.key` file per tenant.
#[derive(Clone, Debug)]
pub struct DirBackend {
    root: PathBuf,
}

impl DirBackend {
    /// Serve keys from `root` (created on first `store` if missing).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self { root: root.into() }
    }

    /// The file path holding `tenant`'s blob.
    pub fn path_for(&self, tenant: TenantId) -> PathBuf {
        self.root.join(format!("tenant-{}.key", tenant.raw()))
    }

    /// Write a serialized blob for `tenant`.
    ///
    /// # Errors
    ///
    /// [`TfheError::KeyCorrupted`] wrapping the I/O failure, if any.
    pub fn store(&self, tenant: TenantId, blob: &[u8]) -> Result<(), TfheError> {
        std::fs::create_dir_all(&self.root).map_err(|e| TfheError::KeyCorrupted {
            detail: format!("cannot create key directory {}: {e}", self.root.display()),
        })?;
        std::fs::write(self.path_for(tenant), blob).map_err(|e| TfheError::KeyCorrupted {
            detail: format!("cannot write key for {tenant}: {e}"),
        })
    }

    /// Serialize `key` and write it for `tenant`.
    ///
    /// # Errors
    ///
    /// Same as [`store`](Self::store).
    pub fn store_server_key(&self, tenant: TenantId, key: &ServerKey) -> Result<(), TfheError> {
        self.store(tenant, &crate::serialize::serialize_server_key(key))
    }
}

impl KeyBackend for DirBackend {
    fn load(&self, tenant: TenantId) -> Result<Vec<u8>, TfheError> {
        match std::fs::read(self.path_for(tenant)) {
            Ok(blob) => Ok(blob),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(TfheError::KeyNotFound {
                tenant: tenant.raw(),
            }),
            Err(e) => Err(TfheError::KeyCorrupted {
                detail: format!("cannot read key for {tenant}: {e}"),
            }),
        }
    }
}

/// Journal one cache transition of `tenant`'s entry, stamped now.
fn record(journal: &Journal, tenant: TenantId, kind: EventKind) {
    journal.record(Event::instant(Who::Tenant(tenant.raw()), kind));
}

/// A snapshot of the store's counters (all monotonic except
/// `bytes_resident`/`resident_keys`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KeyStoreStats {
    /// Serves satisfied by a resident key.
    pub hits: u64,
    /// Serves that had to load (or join a load in flight).
    pub misses: u64,
    /// Completed backend loads.
    pub loads: u64,
    /// Backend loads that failed (missing or corrupt blobs).
    pub load_failures: u64,
    /// Keys evicted to make room.
    pub evictions: u64,
    /// Bytes currently resident.
    pub bytes_resident: u64,
    /// Keys currently resident.
    pub resident_keys: u64,
}

/// A resident cache entry.
struct Resident {
    key: Arc<ServerKey>,
    bytes: u64,
    last_used: u64,
    pins: Arc<AtomicUsize>,
}

enum Entry {
    /// A load is in flight; waiters sleep on the store condvar.
    Loading,
    Ready(Resident),
}

struct Inner {
    map: HashMap<u64, Entry>,
    /// LRU clock: bumped on every touch.
    tick: u64,
    bytes: u64,
}

/// A byte-budget LRU cache of deserialized [`ServerKey`]s over a
/// [`KeyBackend`].
///
/// ```
/// use std::sync::Arc;
/// use morphling_tfhe::{ClientKey, KeyStore, MemoryBackend, ParamSet, ServerKey, TenantId};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let ck = ClientKey::generate(ParamSet::Test.params(), &mut rng);
/// let sk = ServerKey::new(&ck, &mut rng);
///
/// let backend = Arc::new(MemoryBackend::new());
/// backend.insert_server_key(TenantId::new(1), &sk);
/// let store = KeyStore::new(backend, 64 << 20);
/// let pinned = store.get(TenantId::new(1)).unwrap();
/// assert_eq!(pinned.params().poly_size, 256);
/// ```
pub struct KeyStore {
    backend: Arc<dyn KeyBackend>,
    budget: u64,
    inner: Mutex<Inner>,
    loaded: Condvar,
    /// Shared with every outstanding [`PinnedKey`]: pins outlive `get`
    /// calls, so unpin events need a handle of their own.
    journal: Arc<Journal>,
    hits: AtomicU64,
    misses: AtomicU64,
    loads: AtomicU64,
    load_failures: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for KeyStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyStore")
            .field("budget", &self.budget)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// Resident-size accounting for one key: the transform-domain BSK plus
/// the KSK — the working set the paper's Fig 1 is about.
pub fn server_key_bytes(key: &ServerKey) -> u64 {
    key.bootstrap_key().fourier_bytes() + key.key_switch_key().bytes()
}

impl KeyStore {
    /// A store serving from `backend` under `budget_bytes` of resident
    /// key material.
    pub fn new(backend: Arc<dyn KeyBackend>, budget_bytes: u64) -> Self {
        Self {
            backend,
            budget: budget_bytes,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                bytes: 0,
            }),
            loaded: Condvar::new(),
            journal: Arc::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            load_failures: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// The journaled cache transitions (`hit`, `miss`, `load`, `evict`,
    /// `pin`, `unpin`, `corrupt`), each under its [`Who::Tenant`].
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> KeyStoreStats {
        let (bytes_resident, resident_keys) = {
            let inner = lock(&self.inner);
            let keys = inner
                .map
                .values()
                .filter(|e| matches!(e, Entry::Ready(_)))
                .count() as u64;
            (inner.bytes, keys)
        };
        KeyStoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            load_failures: self.load_failures.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes_resident,
            resident_keys,
        }
    }

    /// Serve `tenant`'s key, loading (and possibly evicting) as needed.
    /// The returned [`PinnedKey`] holds a pin: the key cannot be evicted
    /// until every pin is dropped.
    ///
    /// Concurrent misses for the same tenant coalesce: exactly one
    /// caller performs the backend load and deserialization; the rest
    /// wait and share the result (or observe the same failure and
    /// retry-or-fail on their own).
    ///
    /// # Errors
    ///
    /// [`TfheError::KeyNotFound`] / [`TfheError::KeyCorrupted`] from the
    /// backend or deserializer; [`TfheError::KeyBudgetExceeded`] if the
    /// key cannot fit even after evicting every unpinned resident.
    pub fn get(&self, tenant: TenantId) -> Result<PinnedKey, TfheError> {
        let t = tenant.raw();
        // Phase 1: hit, join an in-flight load, or claim the load slot.
        {
            let mut inner = lock(&self.inner);
            loop {
                match inner.map.get(&t) {
                    Some(Entry::Ready(_)) => {
                        inner.tick += 1;
                        let tick = inner.tick;
                        let Some(Entry::Ready(r)) = inner.map.get_mut(&t) else {
                            unreachable!("entry vanished while locked");
                        };
                        r.last_used = tick;
                        let pinned = self.pin(tenant, r);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        record(&self.journal, tenant, EventKind::Hit);
                        return Ok(pinned);
                    }
                    Some(Entry::Loading) => {
                        // Coalesce: sleep until the loader resolves this
                        // entry (Ready or removed), then re-check.
                        inner = self
                            .loaded
                            .wait(inner)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    None => {
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        record(&self.journal, tenant, EventKind::Miss);
                        inner.map.insert(t, Entry::Loading);
                        break;
                    }
                }
            }
        }
        // Phase 2: we own the Loading slot — do the slow work unlocked.
        let loaded = self
            .backend
            .load(tenant)
            .and_then(|blob| deserialize_server_key(&blob));
        let key = match loaded {
            Ok(key) => Arc::new(key),
            Err(e) => {
                self.load_failures.fetch_add(1, Ordering::Relaxed);
                if matches!(e, TfheError::KeyCorrupted { .. }) {
                    record(&self.journal, tenant, EventKind::Corrupt);
                }
                let mut inner = lock(&self.inner);
                inner.map.remove(&t);
                self.loaded.notify_all();
                return Err(e);
            }
        };
        let need = server_key_bytes(&key);
        // Phase 3: make room and publish.
        let mut inner = lock(&self.inner);
        if let Err(e) = self.evict_for(&mut inner, need) {
            inner.map.remove(&t);
            self.loaded.notify_all();
            self.load_failures.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        inner.tick += 1;
        let tick = inner.tick;
        let mut resident = Resident {
            key,
            bytes: need,
            last_used: tick,
            pins: Arc::new(AtomicUsize::new(0)),
        };
        let pinned = self.pin(tenant, &mut resident);
        inner.bytes += need;
        inner.map.insert(t, Entry::Ready(resident));
        self.loads.fetch_add(1, Ordering::Relaxed);
        record(&self.journal, tenant, EventKind::Load { bytes: need });
        self.loaded.notify_all();
        Ok(pinned)
    }

    /// Take a pin on `r` and build the guard.
    fn pin(&self, tenant: TenantId, r: &mut Resident) -> PinnedKey {
        r.pins.fetch_add(1, Ordering::SeqCst);
        record(&self.journal, tenant, EventKind::Pin);
        PinnedKey {
            key: Arc::clone(&r.key),
            pins: Arc::clone(&r.pins),
            tenant,
            journal: Arc::clone(&self.journal),
        }
    }

    /// Evict LRU unpinned residents until `need` more bytes fit the
    /// budget. Fails loudly — never waits on a pin (that way lies
    /// livelock when the pin holder is itself waiting on this load).
    fn evict_for(&self, inner: &mut Inner, need: u64) -> Result<(), TfheError> {
        if need > self.budget {
            return Err(TfheError::KeyBudgetExceeded {
                budget: self.budget,
                need,
            });
        }
        while inner.bytes + need > self.budget {
            let victim = inner
                .map
                .iter()
                .filter_map(|(&t, e)| match e {
                    Entry::Ready(r) if r.pins.load(Ordering::SeqCst) == 0 => Some((t, r.last_used)),
                    _ => None,
                })
                .min_by_key(|&(_, last_used)| last_used)
                .map(|(t, _)| t);
            let Some(victim) = victim else {
                // Everything resident is pinned (or loading): evicting
                // nothing more can ever free the bytes, so fail now.
                return Err(TfheError::KeyBudgetExceeded {
                    budget: self.budget.saturating_sub(inner.bytes),
                    need,
                });
            };
            if let Some(Entry::Ready(r)) = inner.map.remove(&victim) {
                inner.bytes -= r.bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
                let evict = EventKind::Evict { bytes: r.bytes };
                record(&self.journal, TenantId::new(victim), evict);
            }
        }
        Ok(())
    }
}

/// A pinned, resident server key: dereferences to [`ServerKey`] and
/// holds its pin until dropped — the store will not evict the key while
/// any `PinnedKey` for it is alive.
pub struct PinnedKey {
    key: Arc<ServerKey>,
    pins: Arc<AtomicUsize>,
    tenant: TenantId,
    journal: Arc<Journal>,
}

impl PinnedKey {
    /// The tenant this key serves.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The shared key handle (outlives the pin — cloning the `Arc` does
    /// NOT extend eviction protection).
    pub fn key(&self) -> &Arc<ServerKey> {
        &self.key
    }
}

impl std::ops::Deref for PinnedKey {
    type Target = ServerKey;

    fn deref(&self) -> &ServerKey {
        &self.key
    }
}

impl Drop for PinnedKey {
    fn drop(&mut self) {
        // Journal BEFORE releasing the pin: the store only evicts at pin
        // count zero, and every count-zero observation happens after the
        // release below — so in journal order, every tenant's pin/unpin
        // balance is exactly zero at each of its evict events. Chaos
        // tests reconstruct that balance to prove pinned keys are never
        // evicted.
        record(&self.journal, self.tenant, EventKind::Unpin);
        self.pins.fetch_sub(1, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for PinnedKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinnedKey")
            .field("tenant", &self.tenant)
            .finish_non_exhaustive()
    }
}

/// Adapts a [`KeyStore`] to the [`Bootstrapper`] trait: each batch is
/// served by the key of its [`BatchRequest::tenant`], pinned for the
/// duration of the call. Requests without a tenant fall back to the
/// configured default key, or fail with [`TfheError::NoTenantProvided`].
#[derive(Clone, Debug)]
pub struct KeyStoreBootstrapper {
    store: Arc<KeyStore>,
    default: Option<Arc<ServerKey>>,
}

impl KeyStoreBootstrapper {
    /// Serve every batch through `store` (no default key: tenant-less
    /// requests fail).
    pub fn new(store: Arc<KeyStore>) -> Self {
        Self {
            store,
            default: None,
        }
    }

    /// Serve tenant-less requests with `key` instead of failing.
    pub fn with_default(mut self, key: Arc<ServerKey>) -> Self {
        self.default = Some(key);
        self
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<KeyStore> {
        &self.store
    }
}

impl Bootstrapper for KeyStoreBootstrapper {
    fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
        match req.tenant() {
            Some(tenant) => {
                // The pin lives across the whole batch: eviction of this
                // key is impossible while the bootstraps run.
                let pinned = self.store.get(tenant)?;
                pinned.try_bootstrap_batch(req)
            }
            None => match &self.default {
                Some(key) => key.try_bootstrap_batch(req),
                None => Err(TfheError::NoTenantProvided),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::ClientKey;
    use crate::params::ParamSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn seeded_backend(tenants: &[u64], seed: u64) -> (Arc<MemoryBackend>, Vec<ClientKey>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let backend = Arc::new(MemoryBackend::new());
        let mut clients = Vec::new();
        for &t in tenants {
            let ck = ClientKey::generate(ParamSet::Test.params(), &mut rng);
            let sk = ServerKey::new(&ck, &mut rng);
            backend.insert_server_key(TenantId::new(t), &sk);
            clients.push(ck);
        }
        (backend, clients)
    }

    fn one_key_bytes() -> u64 {
        let p = ParamSet::Test.params();
        p.bsk_total_bytes_fourier() + p.ksk_total_bytes()
    }

    #[test]
    fn hit_miss_and_lru_eviction() {
        let (backend, _) = seeded_backend(&[1, 2, 3], 0xA0);
        // Budget for exactly two keys.
        let store = KeyStore::new(backend, 2 * one_key_bytes());
        drop(store.get(TenantId::new(1)).unwrap());
        drop(store.get(TenantId::new(2)).unwrap());
        drop(store.get(TenantId::new(1)).unwrap()); // bump 1's recency
        drop(store.get(TenantId::new(3)).unwrap()); // evicts 2 (LRU)
        let stats = store.stats();
        assert_eq!(stats.loads, 3);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.resident_keys, 2);
        assert_eq!(stats.bytes_resident, 2 * one_key_bytes());
        // Tenant 1 is still a hit; tenant 2 must reload.
        drop(store.get(TenantId::new(1)).unwrap());
        assert_eq!(store.stats().hits, 2);
        drop(store.get(TenantId::new(2)).unwrap());
        assert_eq!(store.stats().loads, 4);
        // The evict event named tenant 2.
        let events = store.journal().events();
        let mut evicts = events.iter().filter(|e| e.kind.label() == "evict");
        assert!(evicts.any(|e| e.who == Who::Tenant(2)));
    }

    #[test]
    fn pinned_keys_are_never_evicted() {
        let (backend, _) = seeded_backend(&[1, 2], 0xA1);
        let store = KeyStore::new(backend, one_key_bytes());
        let pinned = store.get(TenantId::new(1)).unwrap();
        // Loading tenant 2 cannot evict the pinned key: loud failure.
        let err = store.get(TenantId::new(2)).unwrap_err();
        assert!(matches!(err, TfheError::KeyBudgetExceeded { .. }), "{err}");
        assert_eq!(store.stats().evictions, 0);
        drop(pinned);
        // With the pin gone the same load succeeds by evicting tenant 1.
        drop(store.get(TenantId::new(2)).unwrap());
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn key_larger_than_budget_fails_loudly() {
        let (backend, _) = seeded_backend(&[1], 0xA2);
        let store = KeyStore::new(backend, one_key_bytes() - 1);
        let err = store.get(TenantId::new(1)).unwrap_err();
        assert_eq!(
            err,
            TfheError::KeyBudgetExceeded {
                budget: one_key_bytes() - 1,
                need: one_key_bytes(),
            }
        );
        // The Loading slot was cleaned up: a retry fails the same way
        // rather than deadlocking on a stale entry.
        assert!(store.get(TenantId::new(1)).is_err());
    }

    #[test]
    fn missing_and_corrupt_blobs_surface_typed_errors() {
        let (backend, _) = seeded_backend(&[1], 0xA3);
        backend.insert(TenantId::new(9), b"MPHKgarbage".to_vec());
        let store = KeyStore::new(backend, 4 * one_key_bytes());
        assert_eq!(
            store.get(TenantId::new(5)).unwrap_err(),
            TfheError::KeyNotFound { tenant: 5 }
        );
        assert!(matches!(
            store.get(TenantId::new(9)).unwrap_err(),
            TfheError::KeyCorrupted { .. }
        ));
        let stats = store.stats();
        assert_eq!(stats.load_failures, 2);
        assert_eq!(
            store
                .journal()
                .events()
                .iter()
                .filter(|e| e.kind.label() == "corrupt")
                .count(),
            1
        );
        // A good tenant still serves.
        assert!(store.get(TenantId::new(1)).is_ok());
    }

    #[test]
    fn concurrent_misses_coalesce_into_one_load() {
        let (backend, _) = seeded_backend(&[1], 0xA4);
        let store = Arc::new(KeyStore::new(backend, 4 * one_key_bytes()));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    let pinned = store.get(TenantId::new(1)).unwrap();
                    assert_eq!(pinned.tenant(), TenantId::new(1));
                });
            }
        });
        let stats = store.stats();
        assert_eq!(stats.loads, 1, "all misses coalesced into one load");
        assert_eq!(stats.hits + stats.misses, 8);
    }

    #[test]
    fn keystore_bootstrapper_serves_per_tenant_keys() {
        let mut rng = StdRng::seed_from_u64(0xA5);
        let params = ParamSet::Test.params();
        let backend = Arc::new(MemoryBackend::new());
        let mut clients = Vec::new();
        for t in 0..2u64 {
            let ck = ClientKey::generate(params.clone(), &mut rng);
            let sk = ServerKey::new(&ck, &mut rng);
            backend.insert_server_key(TenantId::new(t), &sk);
            clients.push(ck);
        }
        let store = Arc::new(KeyStore::new(backend, 4 * one_key_bytes()));
        let boot = KeyStoreBootstrapper::new(Arc::clone(&store));
        let lut = crate::Lut::from_fn(params.poly_size, 4, |m| (m + 1) % 4);
        for (t, ck) in clients.iter().enumerate() {
            let ct = ck.encrypt(2, &mut rng);
            let req =
                BatchRequest::shared(vec![ct], lut.clone()).with_tenant(TenantId::new(t as u64));
            let out = boot.try_bootstrap_batch(&req).unwrap();
            assert_eq!(ck.decrypt(&out[0]), 3, "tenant {t}");
        }
        // No tenant and no default: typed failure.
        let ct = clients[0].encrypt(1, &mut rng);
        let req = BatchRequest::shared(vec![ct], lut.clone());
        assert_eq!(
            boot.try_bootstrap_batch(&req).unwrap_err(),
            TfheError::NoTenantProvided
        );
        // With a default key, tenant-less requests serve.
        let pinned = store.get(TenantId::new(0)).unwrap();
        let boot = boot.with_default(Arc::clone(pinned.key()));
        let ct = clients[0].encrypt(1, &mut rng);
        let req = BatchRequest::shared(vec![ct], lut);
        let out = boot.try_bootstrap_batch(&req).unwrap();
        assert_eq!(clients[0].decrypt(&out[0]), 2);
    }

    #[test]
    fn dir_backend_round_trips_through_disk() {
        let mut rng = StdRng::seed_from_u64(0xA6);
        let ck = ClientKey::generate(ParamSet::Test.params(), &mut rng);
        let sk = ServerKey::new(&ck, &mut rng);
        let dir = std::env::temp_dir().join(format!("morphling-keystore-{}", std::process::id()));
        let backend = DirBackend::new(&dir);
        backend.store_server_key(TenantId::new(3), &sk).unwrap();
        let store = KeyStore::new(Arc::new(backend.clone()), 4 * one_key_bytes());
        let pinned = store.get(TenantId::new(3)).unwrap();
        let lut = crate::Lut::identity(sk.params().poly_size, 4);
        let ct = ck.encrypt(1, &mut rng);
        assert_eq!(
            pinned.programmable_bootstrap(&ct, &lut),
            sk.programmable_bootstrap(&ct, &lut)
        );
        assert_eq!(
            store.get(TenantId::new(4)).unwrap_err(),
            TfheError::KeyNotFound { tenant: 4 }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_reconciles_with_counters() {
        let (backend, _) = seeded_backend(&[1, 2], 0xA7);
        let store = KeyStore::new(backend, one_key_bytes());
        drop(store.get(TenantId::new(1)).unwrap());
        drop(store.get(TenantId::new(2)).unwrap());
        drop(store.get(TenantId::new(1)).unwrap());
        let events = store.journal().events();
        assert_eq!(
            store.journal().dropped(),
            0,
            "the journal holds every event"
        );
        let count = |label: &str| events.iter().filter(|e| e.kind.label() == label).count() as u64;
        let stats = store.stats();
        assert_eq!(count("hit"), stats.hits);
        assert_eq!(count("miss"), stats.misses);
        assert_eq!(count("load"), stats.loads);
        assert_eq!(count("evict"), stats.evictions);
        assert_eq!(count("pin"), count("unpin"), "all pins released");
        // Timestamps are monotone on the process epoch.
        for w in events.windows(2) {
            assert!(w[0].at_ns <= w[1].at_ns);
        }
    }
}
