//! Multi-tenant server-key management: a byte-budget cache over a
//! pluggable storage backend, with load-coalescing, pinning and eviction
//! by next queued use.
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
//! - `KeyCache`: the cache as plain data on caller time, private to this
//!   module — resident keys with their pins and recency, the budget, the
//!   loads in flight, the [`KeyStoreStats`] — journaling each transition as
//!   an [`Event`] under [`Who::Tenant`] in [`KeyStore::journal`].
//! - [`KeyStore`]: the cache under a mutex and a condvar, with one loader
//!   thread of its own over the backend — the software DMA engine.
//!   `get(tenant)` returns a [`PinnedKey`], which unpins when dropped;
//!   concurrent misses for one tenant share one backend load, done
//!   outside the lock on the loader, so every resident key's memory comes
//!   from one thread however many callers miss. Evicted keys go back to
//!   the loader, which frees them outside the lock and decodes the next
//!   load into one of them: live key memory peaks at the budget plus one
//!   key.
//! - Eviction, over *unpinned* residents only: first those the serving
//!   queue does not name, least recently used first, then the one whose
//!   first queued use is farthest away (Belady over the queue). The
//!   queue's tenant order is what a [`Dispatcher`](crate::Dispatcher)
//!   wired through [`DispatcherBuilder::key_store`](crate::DispatcherBuilder::key_store)
//!   hands over on each flush; without one the list is empty and eviction
//!   is plain LRU. A key that cannot fit even after evicting all of them
//!   fails loudly with [`TfheError::KeyBudgetExceeded`] and evicts
//!   nothing: no livelock.
//! - [`KeyStoreBootstrapper`]: adapts a store to the [`Bootstrapper`]
//!   trait by resolving [`BatchRequest::tenant`] through the cache and
//!   holding the pin for the duration of the batch.

use std::collections::HashMap;
use std::io::Write;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::{self, JoinHandle};

use crate::bootstrapper::{BatchRequest, Bootstrapper};
use crate::error::TfheError;
use crate::journal::{self, Event, EventKind, Journal, Who};
use crate::lwe::LweCiphertext;
use crate::serialize::decode;
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
    pub(crate) fn path_for(&self, tenant: TenantId) -> PathBuf {
        self.root.join(format!("tenant-{}.key", tenant.raw()))
    }

    /// Write a serialized blob for `tenant`, replacing any previous one
    /// whole: the blob goes to a temporary file in the same directory,
    /// named uniquely per writer, which is then renamed over the key. A
    /// concurrent `load` reads the old blob or the new one, never a
    /// prefix of either.
    ///
    /// # Errors
    ///
    /// [`TfheError::KeyCorrupted`] wrapping the I/O failure, if any.
    pub fn store(&self, tenant: TenantId, blob: &[u8]) -> Result<(), TfheError> {
        static WRITES: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(&self.root).map_err(|e| TfheError::KeyCorrupted {
            detail: format!("cannot create key directory {}: {e}", self.root.display()),
        })?;
        let path = self.path_for(tenant);
        let writer = WRITES.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("key.tmp-{}-{writer}", std::process::id()));
        let written = (|| {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(blob)?;
            // The data is durable before the name points at it, so a
            // crash leaves the old key or the new one, not an empty file.
            file.sync_all()?;
            std::fs::rename(&tmp, &path)
        })();
        written.map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            TfheError::KeyCorrupted {
                detail: format!("cannot write key for {tenant}: {e}"),
            }
        })
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

/// A snapshot of the store's counters (all monotonic except
/// `bytes_resident`/`resident_keys`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KeyStoreStats {
    /// `get`s served by a resident key, including callers that waited on
    /// another caller's load and were served by the key it published.
    pub hits: u64,
    /// `get`s that found the key neither resident nor loading, and so
    /// started a load.
    pub misses: u64,
    /// Loads that published their key.
    pub loads: u64,
    /// Loads that did not: a missing or corrupt blob, a panicked backend,
    /// or a key refused at publish time ([`TfheError::KeyBudgetExceeded`]).
    pub load_failures: u64,
    /// Keys evicted to make room.
    pub evictions: u64,
    /// Bytes currently resident.
    pub bytes_resident: u64,
    /// Keys currently resident.
    pub resident_keys: u64,
}

/// What [`KeyCache::lookup`] tells its caller to do.
enum Lookup<K> {
    /// Resident: the key, now pinned for the caller.
    Hit(K),
    /// The caller now owns the load and reports it to [`KeyCache::loaded`].
    Load,
    /// Another caller's load is in flight: look again once it resolves.
    Wait,
}

enum Slot<K> {
    Loading,
    Ready(Resident<K>),
}

struct Resident<K> {
    key: K,
    bytes: u64,
    last_used: u64,
    pins: u32,
}

/// A load's outcome: the key and the bytes it keeps resident, or why not.
type Loaded<K> = Result<(K, u64), TfheError>;

/// The key cache as plain data on caller time: [`KeyStore`] wraps it in a
/// mutex and a condvar, and its tests drive it on virtual time.
struct KeyCache<K> {
    budget: u64,
    slots: HashMap<TenantId, Slot<K>>,
    /// LRU clock: bumped on every touch.
    tick: u64,
    /// The tenants the serving queue will ask for next, in that order.
    queued: Vec<TenantId>,
    stats: KeyStoreStats,
    journal: Arc<Journal>,
}

impl<K: Clone> KeyCache<K> {
    /// An empty cache of `budget` bytes, journaling into `journal`.
    fn new(budget: u64, journal: Arc<Journal>) -> Self {
        Self {
            budget,
            slots: HashMap::new(),
            tick: 0,
            queued: Vec::new(),
            stats: KeyStoreStats::default(),
            journal,
        }
    }

    fn record(&self, now: u64, tenant: TenantId, kinds: impl IntoIterator<Item = EventKind>) {
        let event = |kind| Event::at(now, Who::Tenant(tenant.raw()), kind);
        self.journal.record_all(kinds.into_iter().map(event));
    }

    /// A `get` of `t` at `now`: pin its key, claim its load, or wait.
    fn lookup(&mut self, now: u64, t: TenantId) -> Lookup<K> {
        match self.slots.get_mut(&t) {
            Some(Slot::Ready(r)) => {
                self.tick += 1;
                r.last_used = self.tick;
                r.pins += 1;
                let key = r.key.clone();
                self.stats.hits += 1;
                self.record(now, t, [EventKind::Hit, EventKind::Pin]);
                Lookup::Hit(key)
            }
            Some(Slot::Loading) => Lookup::Wait,
            None => {
                self.slots.insert(t, Slot::Loading);
                self.stats.misses += 1;
                self.record(now, t, [EventKind::Miss]);
                Lookup::Load
            }
        }
    }

    /// Resolve the load of `t` its caller claimed: publish the key pinned
    /// for that caller, evicting unpinned residents to make room into
    /// `evicted` (for the caller to free or reuse outside the lock), or
    /// clear the slot and count the failure — the load's own, or
    /// [`TfheError::KeyBudgetExceeded`] when evicting cannot make room.
    fn loaded(
        &mut self,
        now: u64,
        t: TenantId,
        load: Loaded<K>,
        evicted: &mut Vec<K>,
    ) -> Result<K, TfheError> {
        let made_room = |(key, bytes)| self.evict_for(now, bytes, evicted).map(|()| (key, bytes));
        match load.and_then(made_room) {
            Ok((key, bytes)) => {
                self.tick += 1;
                let resident = Resident {
                    key: key.clone(),
                    bytes,
                    last_used: self.tick,
                    pins: 1,
                };
                self.slots.insert(t, Slot::Ready(resident));
                self.stats.bytes_resident += bytes;
                self.stats.resident_keys += 1;
                self.stats.loads += 1;
                self.record(now, t, [EventKind::Load { bytes }, EventKind::Pin]);
                Ok(key)
            }
            Err(e) => {
                self.slots.remove(&t);
                self.stats.load_failures += 1;
                if matches!(e, TfheError::KeyCorrupted { .. }) {
                    self.record(now, t, [EventKind::Corrupt]);
                }
                Err(e)
            }
        }
    }

    /// Release one pin on `t`'s resident key.
    fn unpin(&mut self, now: u64, t: TenantId) {
        if let Some(Slot::Ready(r)) = self.slots.get_mut(&t) {
            r.pins -= 1;
            self.record(now, t, [EventKind::Unpin]);
        }
    }

    /// Evict unpinned residents into `evicted` until `need` more bytes
    /// fit — those not `queued` first, least recently used first, then the
    /// one queued last — or evict nothing and fail if evicting them all
    /// would not do. Never wait on a pin: its holder may itself be waiting
    /// on this load (livelock).
    fn evict_for(&mut self, now: u64, need: u64, evicted: &mut Vec<K>) -> Result<(), TfheError> {
        let queued = |t| self.queued.iter().position(|&q| q == t);
        let mut unpinned: Vec<(usize, u64, TenantId, u64)> = (self.slots.iter())
            .filter_map(|(&t, slot)| match slot {
                Slot::Ready(r) if r.pins == 0 => {
                    let next_use = queued(t).map_or(0, |i| usize::MAX - i);
                    Some((next_use, r.last_used, t, r.bytes))
                }
                _ => None,
            })
            .collect();
        let evictable: u64 = unpinned.iter().map(|&(.., bytes)| bytes).sum();
        if self.stats.bytes_resident - evictable + need > self.budget {
            let budget = self.budget;
            return Err(TfheError::KeyBudgetExceeded { budget, need });
        }
        unpinned.sort_unstable();
        for (.., t, bytes) in unpinned {
            if self.stats.bytes_resident + need <= self.budget {
                break;
            }
            if let Some(Slot::Ready(r)) = self.slots.remove(&t) {
                evicted.push(r.key);
            }
            self.stats.bytes_resident -= bytes;
            self.stats.resident_keys -= 1;
            self.stats.evictions += 1;
            self.record(now, t, [EventKind::Evict { bytes }]);
        }
        Ok(())
    }
}

/// A byte-budget cache of deserialized [`ServerKey`]s over a
/// [`KeyBackend`]. It evicts by next queued use when a dispatcher hands it
/// its queue's tenant order ([`DispatcherBuilder::key_store`](crate::DispatcherBuilder::key_store)),
/// and by plain LRU otherwise. When several dispatchers share one store,
/// the last flush's order wins: that can cost hits. Its one loader thread
/// runs every backend load and deserialization, and stops when the store
/// is dropped.
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
    /// Shared with the loader and every outstanding [`PinnedKey`], which
    /// unpins through it.
    cache: Arc<Mutex<KeyCache<Arc<ServerKey>>>>,
    /// Notified whenever a load resolves.
    loaded: Arc<Condvar>,
    /// Where a `get` hands the loader the load it claimed; closed when the
    /// store is dropped, which stops the loader.
    claims: Option<Sender<Claim>>,
    loader: Option<JoinHandle<()>>,
    journal: Arc<Journal>,
}

/// A claimed load: the tenant, and where the loader answers with the key
/// pinned for the claimer, or why not, or the panic the load unwound with.
type Claim = (
    TenantId,
    Sender<thread::Result<Result<Arc<ServerKey>, TfheError>>>,
);

impl std::fmt::Debug for KeyStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyStore")
            .field("budget", &self.budget_bytes())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// Resident-size accounting for one key: the transform-domain BSK plus
/// the KSK — the working set the paper's Fig 1 is about. The BSK counts
/// the paper's 8 B per spectrum point; a resident `Spectrum` holds 16 B.
pub fn server_key_bytes(key: &ServerKey) -> u64 {
    key.bootstrap_key().fourier_bytes() + key.key_switch_key().bytes()
}

impl KeyStore {
    /// A store serving from `backend` under `budget_bytes` of resident
    /// key material, each key counted by [`server_key_bytes`].
    pub fn new(backend: Arc<dyn KeyBackend>, budget_bytes: u64) -> Self {
        let journal = Arc::new(Journal::new());
        let cache = KeyCache::new(budget_bytes, Arc::clone(&journal));
        let cache = Arc::new(Mutex::new(cache));
        let loaded = Arc::new(Condvar::new());
        let (claims, queue) = mpsc::channel();
        let (c, l) = (Arc::clone(&cache), Arc::clone(&loaded));
        let loader = thread::spawn(move || load_claims(&*backend, &c, &l, queue));
        Self {
            cache,
            loaded,
            claims: Some(claims),
            loader: Some(loader),
            journal,
        }
    }

    /// The configured byte budget.
    pub(crate) fn budget_bytes(&self) -> u64 {
        lock(&self.cache).budget
    }

    /// The journaled cache transitions (`hit`, `miss`, `load`, `evict`,
    /// `pin`, `unpin`, `corrupt`), each under its [`Who::Tenant`].
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> KeyStoreStats {
        lock(&self.cache).stats
    }

    /// The tenants the serving queue will ask for next, in that order:
    /// what eviction keeps until the next call replaces it.
    pub(crate) fn set_queued(&self, tenants: &[TenantId]) {
        let queued = &mut lock(&self.cache).queued;
        queued.clear();
        queued.extend_from_slice(tenants);
    }

    /// Serve `tenant`'s key, loading (and possibly evicting) as needed.
    /// The returned [`PinnedKey`] holds a pin: the key cannot be evicted
    /// until every pin is dropped.
    ///
    /// Concurrent misses for the same tenant coalesce: one caller claims
    /// the load, which the store's loader thread runs — backend and
    /// deserializer, outside the lock — while that caller waits with the
    /// rest; they share the key or, if the load failed, look again and
    /// claim it themselves. A backend or deserializer that panics fails
    /// the load and resumes the panic in the claiming caller.
    ///
    /// # Errors
    ///
    /// [`TfheError::KeyNotFound`] / [`TfheError::KeyCorrupted`] from the
    /// backend or deserializer; [`TfheError::KeyBudgetExceeded`] if the
    /// key cannot fit even after evicting every unpinned resident.
    pub fn get(&self, tenant: TenantId) -> Result<PinnedKey, TfheError> {
        let mut cache = lock(&self.cache);
        let key = loop {
            match cache.lookup(journal::now(), tenant) {
                Lookup::Hit(key) => break key,
                Lookup::Wait => {
                    cache = (self.loaded.wait(cache)).unwrap_or_else(PoisonError::into_inner);
                }
                Lookup::Load => {
                    drop(cache);
                    let (answer, key) = mpsc::channel();
                    let claims = self.claims.as_ref().expect("a live store has its loader");
                    (claims.send((tenant, answer))).expect("the loader outlives its store");
                    let key = key.recv().expect("the loader answers every claim");
                    break key.unwrap_or_else(|unwound| panic::resume_unwind(unwound))?;
                }
            }
        };
        let cache = Arc::clone(&self.cache);
        Ok(PinnedKey { key, tenant, cache })
    }
}

/// The store's loader thread: run each claimed load in turn — load and
/// deserialize outside the lock, then publish the key pinned for its
/// claimer and answer it — until the store is dropped. A load that
/// unwinds resolves as failed, so the tenant's waiters wake and the next
/// `get` loads again; its panic goes to the claimer. A key refused for
/// room is kept for the next claim, which publishes it unloaded if it is
/// the same tenant's: the retry of a call that waited for room.
/// The keys a load evicts are let go of after its claimer is answered,
/// outside the lock, but for one no one else holds (or a kept refused key
/// the next claim does not take): the spare the next load decodes into.
fn load_claims(
    backend: &dyn KeyBackend,
    cache: &Mutex<KeyCache<Arc<ServerKey>>>,
    loaded: &Condvar,
    claims: Receiver<Claim>,
) {
    let (mut refused, mut spare, mut evicted) = (None, None, Vec::new());
    for (tenant, answer) in claims {
        let load = panic::catch_unwind(AssertUnwindSafe(|| {
            match refused.take() {
                Some((t, kept)) if t == tenant => return kept,
                Some((_, Ok((key, _)))) => spare = spare.take().or_else(|| Arc::into_inner(key)),
                _ => {}
            }
            let key = decode(&backend.load(tenant)?, spare.take())?;
            let bytes = server_key_bytes(&key);
            Ok((Arc::new(key), bytes))
        }));
        // Only the counters see this error: the claimer gets the panic.
        let unwound = Err(TfheError::KeyNotFound {
            tenant: tenant.raw(),
        });
        let publish = load.as_ref().map_or(unwound, Clone::clone);
        let key = lock(cache).loaded(journal::now(), tenant, publish.clone(), &mut evicted);
        loaded.notify_all();
        let full = matches!(key, Err(TfheError::KeyBudgetExceeded { .. }));
        refused = full.then_some((tenant, publish));
        let _ = answer.send(load.map(|_| key));
        for key in evicted.drain(..) {
            spare = spare.take().or_else(|| Arc::into_inner(key));
        }
    }
}

impl Drop for KeyStore {
    fn drop(&mut self) {
        drop(self.claims.take());
        if let Some(loader) = self.loader.take() {
            let _ = loader.join();
        }
    }
}

/// A pinned, resident server key: dereferences to [`ServerKey`] and
/// holds its pin until dropped — the store will not evict the key while
/// any `PinnedKey` for it is alive.
pub struct PinnedKey {
    key: Arc<ServerKey>,
    tenant: TenantId,
    cache: Arc<Mutex<KeyCache<Arc<ServerKey>>>>,
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
        lock(&self.cache).unpin(journal::now(), self.tenant);
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
/// duration of the call. Requests without a tenant fail with
/// [`TfheError::NoTenantProvided`].
///
/// Calls may overlap — a dispatcher's [`workers`](crate::ServingConfig::workers)
/// batchers each pin a key — so a store with room for fewer keys than
/// that serves them in turn: a load refused with
/// [`TfheError::KeyBudgetExceeded`] waits while another of this
/// adapter's calls is running, and tries again once one ends. With no
/// other call left to wait for, the refusal stands.
#[derive(Clone, Debug)]
pub struct KeyStoreBootstrapper {
    store: Arc<KeyStore>,
    calls: Arc<Calls>,
}

/// This adapter's calls, shared by its clones.
#[derive(Debug, Default)]
struct Calls {
    /// Calls running, not counting those waiting for room; and how many
    /// calls have ended.
    state: Mutex<(usize, u64)>,
    /// Notified when a call ends or starts waiting.
    changed: Condvar,
}

impl KeyStoreBootstrapper {
    /// Serve every batch through `store` (tenant-less requests fail).
    pub fn new(store: Arc<KeyStore>) -> Self {
        let calls = Arc::default();
        Self { store, calls }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<KeyStore> {
        &self.store
    }

    /// After a load found no room: wait for another call to end — and so
    /// let go of its pin — and say whether one did; `false` once every
    /// other call waits too, or none runs.
    fn wait_for_room(&self, ended: u64) -> bool {
        let mut state = lock(&self.calls.state);
        state.0 -= 1;
        self.calls.changed.notify_all();
        while state.1 == ended && state.0 > 0 {
            state = (self.calls.changed.wait(state)).unwrap_or_else(PoisonError::into_inner);
        }
        state.0 += 1;
        state.1 != ended
    }
}

/// Ends a call, also when it unwinds: the calls waiting for room look
/// again.
struct Ended<'a>(&'a Calls);

impl Drop for Ended<'_> {
    fn drop(&mut self) {
        let mut state = lock(&self.0.state);
        state.0 -= 1;
        state.1 += 1;
        self.0.changed.notify_all();
    }
}

impl Bootstrapper for KeyStoreBootstrapper {
    fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
        let tenant = req.tenant().ok_or(TfheError::NoTenantProvided)?;
        lock(&self.calls.state).0 += 1;
        let _ended = Ended(&self.calls);
        loop {
            let ended = lock(&self.calls.state).1;
            match self.store.get(tenant) {
                Err(TfheError::KeyBudgetExceeded { .. }) if self.wait_for_room(ended) => {}
                // The pin lives across the whole batch: eviction of this
                // key is impossible while the bootstraps run.
                pinned => return pinned?.try_bootstrap_batch(req),
            }
        }
    }

    fn stack_journal(&self) -> Option<&Arc<Journal>> {
        Some(&self.store.journal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::ClientKey;
    use crate::params::ParamSet;
    use crate::serialize::{deserialize_server_key, serialize_server_key};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        // The evict event named tenant 2, and the shell stamped every event
        // in order on the process clock.
        let events = store.journal().events();
        let mut evicts = events.iter().filter(|e| e.kind.label() == "evict");
        assert!(evicts.any(|e| e.who == Who::Tenant(2)));
        assert!(events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    #[test]
    fn pinned_keys_are_never_evicted() {
        let (backend, _) = seeded_backend(&[1, 2], 0xA1);
        let store = KeyStore::new(backend, one_key_bytes());
        let pinned = store.get(TenantId::new(1)).unwrap();
        // Loading tenant 2 cannot evict the pinned key: loud failure,
        // naming the configured budget.
        assert_eq!(
            store.get(TenantId::new(2)).unwrap_err(),
            TfheError::KeyBudgetExceeded {
                budget: one_key_bytes(),
                need: one_key_bytes(),
            }
        );
        assert_eq!(store.stats().evictions, 0);
        drop(pinned);
        // With the pin gone the same load succeeds by evicting tenant 1.
        drop(store.get(TenantId::new(2)).unwrap());
        assert_eq!(store.stats().evictions, 1);
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

    /// Where each spectrum of `key`'s bootstrapping key lives.
    fn spectrum_addresses(key: &ServerKey) -> Vec<usize> {
        let bsk = key.bootstrap_key();
        (0..bsk.lwe_dim())
            .flat_map(|i| bsk.fourier(i).rows().iter().flatten())
            .map(|s| s.re().as_ptr() as usize)
            .collect()
    }

    /// With room for one key and two tenants taking turns, every load
    /// evicts the other tenant's key, and from the second eviction on
    /// each load decodes into the key the load before it evicted: the
    /// same storage, spectrum for spectrum, holding the new tenant's key.
    #[test]
    fn a_load_decodes_into_the_key_the_load_before_it_evicted() {
        let (backend, _) = seeded_backend(&[0, 1], 0xAA);
        let frames: Vec<Vec<u8>> = (0..2)
            .map(|t| backend.load(TenantId::new(t)).unwrap())
            .collect();
        let store = KeyStore::new(backend, one_key_bytes());
        let mut loaded: Vec<Vec<usize>> = Vec::new();
        for i in 0..6 {
            let pinned = store.get(TenantId::new(i % 2)).unwrap();
            let at = spectrum_addresses(&pinned);
            if i >= 2 {
                assert_eq!(at, loaded[i as usize - 2], "load {i}");
            }
            assert!(
                serialize_server_key(&pinned) == frames[i as usize % 2],
                "load {i}"
            );
            loaded.push(at);
        }
        assert_ne!(loaded[0][0], loaded[1][0]);
        let stats = store.stats();
        assert_eq!((stats.loads, stats.evictions, stats.hits), (6, 5, 0));
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

    /// Panics on its first load, then serves from `inner`.
    struct PanicsOnce {
        inner: Arc<MemoryBackend>,
        panicked: Mutex<bool>,
    }

    impl KeyBackend for PanicsOnce {
        fn load(&self, tenant: TenantId) -> Result<Vec<u8>, TfheError> {
            if !std::mem::replace(&mut *lock(&self.panicked), true) {
                panic!("key backend bug (injected by the test)");
            }
            self.inner.load(tenant)
        }
    }

    #[test]
    fn a_loader_that_unwinds_does_not_wedge_its_tenant() {
        let (inner, _) = seeded_backend(&[1], 0xA8);
        let panicked = Mutex::new(false);
        let backend = Arc::new(PanicsOnce { inner, panicked });
        let store = Arc::new(KeyStore::new(backend, 4 * one_key_bytes()));
        let first = Arc::clone(&store);
        let unwound = std::thread::spawn(move || first.get(TenantId::new(1)).map(drop)).join();
        assert!(unwound.is_err(), "the first load panics");
        let (tx, rx) = std::sync::mpsc::channel();
        let second = Arc::clone(&store);
        let waiter = std::thread::spawn(move || tx.send(second.get(TenantId::new(1)).map(drop)));
        let served = rx.recv_timeout(std::time::Duration::from_secs(5));
        assert_eq!(
            served,
            Ok(Ok(())),
            "a later get loads again instead of waiting"
        );
        waiter.join().unwrap().unwrap();
        let stats = store.stats();
        assert_eq!((stats.misses, stats.loads, stats.load_failures), (2, 1, 1));
    }

    /// Serves from `inner`, noting the tenant and the thread of every
    /// load; the first load of tenant 9 panics.
    struct Recording {
        inner: Arc<MemoryBackend>,
        loads: Mutex<Vec<(u64, thread::ThreadId)>>,
    }

    impl KeyBackend for Recording {
        fn load(&self, tenant: TenantId) -> Result<Vec<u8>, TfheError> {
            let mut loads = lock(&self.loads);
            let first_of_9 = tenant.raw() == 9 && loads.iter().all(|l| l.0 != 9);
            loads.push((tenant.raw(), thread::current().id()));
            drop(loads);
            if first_of_9 {
                panic!("key backend bug (injected by the test)");
            }
            self.inner.load(tenant)
        }
    }

    #[test]
    fn one_loader_thread_runs_every_load_and_stops_with_its_store() {
        let (inner, _) = seeded_backend(&[1, 2, 3, 9], 0xA9);
        let loads = Mutex::new(Vec::new());
        let backend = Arc::new(Recording { inner, loads });
        let store = KeyStore::new(Arc::clone(&backend) as _, 4 * one_key_bytes());
        // Two callers miss on the same cold keys at once.
        let start = std::sync::Barrier::new(2);
        let caller = || {
            start.wait();
            for t in [1, 2, 3, 3, 2, 1] {
                drop(store.get(TenantId::new(t)).unwrap());
            }
            thread::current().id()
        };
        let callers: Vec<thread::ThreadId> = thread::scope(|s| {
            let handles = [s.spawn(caller), s.spawn(caller)];
            handles.map(|h| h.join().unwrap()).to_vec()
        });
        // One load per cold key, all on one thread, neither caller's.
        let seen = lock(&backend.loads).clone();
        let mut tenants: Vec<u64> = seen.iter().map(|l| l.0).collect();
        tenants.sort_unstable();
        assert_eq!(tenants, [1, 2, 3]);
        let loader = seen[0].1;
        assert!(seen.iter().all(|l| l.1 == loader));
        assert!(!callers.contains(&loader));
        assert_eq!(store.stats().loads, 3);
        // A load that panics fails its claim and unwinds its caller; the
        // next `get` loads again, on the same loader.
        let unwound =
            panic::catch_unwind(AssertUnwindSafe(|| store.get(TenantId::new(9)).map(drop)));
        assert!(unwound.is_err(), "the first load of tenant 9 panics");
        drop(store.get(TenantId::new(9)).unwrap());
        let stats = store.stats();
        assert_eq!((stats.misses, stats.loads, stats.load_failures), (5, 4, 1));
        let seen = lock(&backend.loads).clone();
        assert_eq!(seen.len(), 5);
        assert!(seen.iter().all(|l| l.1 == loader));
        // Dropping the store joins its loader, which lets go of the backend.
        drop(store);
        assert_eq!(Arc::strong_count(&backend), 1);
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
        // No tenant: typed failure.
        let ct = clients[0].encrypt(1, &mut rng);
        let req = BatchRequest::shared(vec![ct], lut.clone());
        assert_eq!(
            boot.try_bootstrap_batch(&req).unwrap_err(),
            TfheError::NoTenantProvided
        );
    }

    #[test]
    fn dir_backend_round_trips_through_disk() {
        let mut rng = StdRng::seed_from_u64(0xA6);
        let ck = ClientKey::generate(ParamSet::Test.params(), &mut rng);
        let sk = ServerKey::new(&ck, &mut rng);
        let dir = std::env::temp_dir().join(format!("morphling-keystore-{}", std::process::id()));
        let backend = DirBackend::new(&dir);
        backend
            .store(
                TenantId::new(3),
                &crate::serialize::serialize_server_key(&sk),
            )
            .unwrap();
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
    fn dir_backend_store_never_tears_a_concurrent_load() {
        // A key rotation replaces the file whole: a load racing 200
        // re-stores of a key reads a complete blob every time.
        let mut rng = StdRng::seed_from_u64(0xA7);
        let ck = ClientKey::generate(ParamSet::Test.params(), &mut rng);
        let blob = crate::serialize::serialize_server_key(&ServerKey::new(&ck, &mut rng));
        let dir = std::env::temp_dir().join(format!("morphling-key-race-{}", std::process::id()));
        let backend = DirBackend::new(&dir);
        let tenant = TenantId::new(5);
        backend.store(tenant, &blob).unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        let (loads, torn) = std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..200 {
                    backend.store(tenant, &blob).unwrap();
                }
                done.store(true, Ordering::Release);
            });
            let (mut loads, mut torn) = (0u32, 0u32);
            loop {
                let loaded = backend
                    .load(tenant)
                    .and_then(|b| deserialize_server_key(&b));
                loads += 1;
                torn += u32::from(loaded.is_err());
                if done.load(Ordering::Acquire) {
                    break (loads, torn);
                }
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(torn, 0, "{torn} of {loads} loads read a torn blob");
    }

    /// One virtual client of the sweep: at most one pin or one load.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Client {
        Idle,
        Waiting(TenantId),
        Loading(TenantId),
        Holding(TenantId),
    }

    /// What the sweep counts: hit, miss, wait, evict, budget refusal,
    /// not found, corrupt, and evictions that plain LRU would not make.
    type Reached = [u64; 8];

    /// A `KeyCache<u64>` driven on virtual time by its clients, beside the
    /// reference model it is checked against after every step.
    struct Sweep {
        seed: u64,
        cache: KeyCache<u64>,
        size: Vec<u64>,
        clients: Vec<Client>,
        /// The model: resident tenants, least recently used first, and the
        /// key each one's load published.
        lru: Vec<TenantId>,
        /// The queued-tenant list the cache holds, as the model sees it.
        queued: Vec<TenantId>,
        keys: HashMap<TenantId, u64>,
        /// Every key a load published, and every key an eviction handed
        /// back to `loaded`'s caller, in order.
        published: Vec<u64>,
        handed_back: Vec<u64>,
        reached: Reached,
        /// After each step: the counters and the pins held.
        steps: Vec<(KeyStoreStats, u64)>,
    }

    impl Sweep {
        fn count(&self, state: Client) -> usize {
            self.clients.iter().filter(|&&c| c == state).count()
        }

        /// Clients in `state` over every tenant.
        fn all(&self, state: fn(TenantId) -> Client) -> u64 {
            let tenants = 0..self.size.len() as u64;
            tenants
                .map(|t| self.count(state(TenantId::new(t))) as u64)
                .sum()
        }

        fn bytes(&self, tenants: &[TenantId]) -> u64 {
            tenants.iter().map(|t| self.size[t.raw() as usize]).sum()
        }

        /// Client `c` looks up `t`: a hit if the model has it resident, a
        /// wait if some client is loading it, else the load.
        fn look(&mut self, now: u64, c: usize, t: TenantId) {
            let loading = self.count(Client::Loading(t)) > 0;
            let resident = self.lru.iter().position(|&u| u == t);
            self.clients[c] = match (self.cache.lookup(now, t), resident) {
                (Lookup::Hit(key), Some(i)) => {
                    assert_eq!(Some(&key), self.keys.get(&t), "seed {}", self.seed);
                    self.lru.remove(i);
                    self.lru.push(t);
                    self.reached[0] += 1;
                    Client::Holding(t)
                }
                (Lookup::Load, None) if !loading => {
                    self.reached[1] += 1;
                    Client::Loading(t)
                }
                (Lookup::Wait, None) if loading => {
                    self.reached[2] += 1;
                    Client::Waiting(t)
                }
                _ => panic!(
                    "seed {}: {t} resident {resident:?}, loading {loading}",
                    self.seed
                ),
            };
        }

        /// Client `c`'s load of `t` completes as `outcome`; then every
        /// waiter on `t` looks again, as the store's condvar wakes them.
        fn resolve(&mut self, now: u64, c: usize, t: TenantId, outcome: u32) {
            let (budget, need) = (self.cache.budget, self.size[t.raw() as usize]);
            let load = match outcome {
                0 => Err(TfheError::KeyNotFound { tenant: t.raw() }),
                1 => Err(TfheError::KeyCorrupted {
                    detail: String::new(),
                }),
                _ => Ok((now, need)),
            };
            let pinned: Vec<TenantId> = (self.lru.iter().copied())
                .filter(|&u| self.count(Client::Holding(u)) > 0)
                .collect();
            let refused = self.bytes(&pinned) + need > budget;
            let mut evicted = Vec::new();
            let got = self.cache.loaded(now, t, load.clone(), &mut evicted);
            self.clients[c] = match (load, got) {
                (Ok(_), Err(e)) => {
                    assert!(evicted.is_empty(), "seed {}", self.seed);
                    assert!(refused, "seed {}: {e}", self.seed);
                    assert_eq!(e, TfheError::KeyBudgetExceeded { budget, need });
                    self.reached[4] += 1;
                    Client::Idle
                }
                (Ok((key, _)), Ok(got)) => {
                    assert!(!refused && got == key, "seed {}", self.seed);
                    // The reference evicts unpinned residents until the
                    // key fits: the least recently used of those not
                    // queued, else the one queued last — and hands each
                    // victim's key back, in that order.
                    let mut victims = Vec::new();
                    while self.bytes(&self.lru) + need > budget {
                        let unpinned: Vec<usize> = (0..self.lru.len())
                            .filter(|&i| !pinned.contains(&self.lru[i]))
                            .collect();
                        let next_use =
                            |i: usize| self.queued.iter().position(|&q| q == self.lru[i]);
                        let victim = match unpinned.iter().find(|&&i| next_use(i).is_none()) {
                            Some(&i) => i,
                            None => *(unpinned.iter().max_by_key(|&&i| next_use(i)))
                                .expect("not refused, so something is unpinned"),
                        };
                        self.reached[7] += u64::from(victim != unpinned[0]);
                        victims.push(self.keys[&self.lru.remove(victim)]);
                        self.reached[3] += 1;
                    }
                    assert_eq!(evicted, victims, "seed {}: keys handed back", self.seed);
                    self.handed_back.append(&mut evicted);
                    self.lru.push(t);
                    self.keys.insert(t, key);
                    self.published.push(key);
                    Client::Holding(t)
                }
                (Err(e), got) => {
                    assert!(evicted.is_empty(), "seed {}", self.seed);
                    assert_eq!(got, Err(e.clone()), "seed {}", self.seed);
                    self.reached[if outcome == 0 { 5 } else { 6 }] += 1;
                    Client::Idle
                }
            };
            for w in 0..self.clients.len() {
                if self.clients[w] == Client::Waiting(t) {
                    self.look(now, w, t);
                }
            }
        }

        /// Every contract of the cache, read off its state.
        fn check(&self) {
            let (cache, seed) = (&self.cache, self.seed);
            let mut by_recency = Vec::new();
            for (i, &size) in self.size.iter().enumerate() {
                let t = TenantId::new(i as u64);
                let held = self.count(Client::Holding(t));
                let loading = self.count(Client::Loading(t));
                let waiting = self.count(Client::Waiting(t));
                match cache.slots.get(&t) {
                    // Its pins are its holders': a pinned key stays.
                    Some(Slot::Ready(r)) => {
                        let entry = (r.pins as usize, loading, waiting, r.bytes, Some(&r.key));
                        let want = (held, 0, 0, size, self.keys.get(&t));
                        assert_eq!(entry, want, "seed {seed}: {t}");
                        by_recency.push((r.last_used, t));
                    }
                    // One load in flight, and only while its loader is.
                    Some(Slot::Loading) => assert_eq!((held, loading), (0, 1), "seed {seed}: {t}"),
                    // Resolving a load released every waiter.
                    None => assert_eq!((held, loading, waiting), (0, 0, 0), "seed {seed}: {t}"),
                }
            }
            // Every key published is resident or was handed back, once:
            // none is dropped inside the cache.
            let mut resident: Vec<u64> = (cache.slots.values())
                .filter_map(|slot| match slot {
                    Slot::Ready(r) => Some(r.key),
                    Slot::Loading => None,
                })
                .collect();
            resident.extend(&self.handed_back);
            resident.sort_unstable();
            let mut published = self.published.clone();
            published.sort_unstable();
            assert_eq!(
                resident, published,
                "seed {seed}: keys resident or handed back"
            );
            // The residents are the model's, after its next-use-then-LRU
            // victims, in the same recency order.
            by_recency.sort_unstable();
            let order: Vec<TenantId> = by_recency.into_iter().map(|(_, t)| t).collect();
            assert_eq!(order, self.lru, "seed {seed}: residents by recency");
            let s = cache.stats;
            let bytes = self.bytes(&self.lru);
            assert!(bytes <= cache.budget, "seed {seed}: over budget");
            // What the counters are documented to count.
            let r = self.reached;
            let unresolved = s.misses - s.loads - s.load_failures;
            let got = [s.bytes_resident, s.resident_keys, s.hits, s.misses];
            let want = [bytes, order.len() as u64, r[0], r[1]];
            assert_eq!(got, want, "seed {seed}");
            let got = [s.evictions, s.load_failures, unresolved];
            let want = [r[3], r[4] + r[5] + r[6], self.all(Client::Loading)];
            assert_eq!(got, want, "seed {seed}");
        }
    }

    /// A queued-tenant list as a flush hands it over: empty a third of the
    /// time, else distinct tenants in random order — some not resident,
    /// some not tenants of the sweep at all.
    fn queued(rng: &mut StdRng, tenants: u64) -> Vec<TenantId> {
        let mut pool: Vec<TenantId> = (0..tenants + 2).map(TenantId::new).collect();
        let len = if rng.gen_range(0..3) == 0 {
            0
        } else {
            rng.gen_range(1..=pool.len())
        };
        (0..len)
            .map(|_| pool.swap_remove(rng.gen_range(0..pool.len())))
            .collect()
    }

    /// Run one seed: tenants 2–6 with their own key sizes, a budget from
    /// half the smallest key to all of them, 1–8 clients, loads that
    /// complete out of order as `Ok`, `KeyNotFound` or `KeyCorrupted`,
    /// and a fresh queued-tenant list before every step.
    /// Returns the journal and the outcomes reached.
    fn sweep(seed: u64) -> (Vec<Event>, Reached) {
        let mut rng = StdRng::seed_from_u64(0x4B_E7CA ^ seed);
        let tenants = rng.gen_range(2..=6u64);
        let size: Vec<u64> = (0..tenants)
            .map(|_| rng.gen_range(1..=16u64) * 64)
            .collect();
        let smallest = size.iter().min().expect("two tenants or more");
        let budget = rng.gen_range(smallest / 2..=size.iter().sum());
        let journal = Arc::new(Journal::new());
        let mut s = Sweep {
            seed,
            cache: KeyCache::new(budget, Arc::clone(&journal)),
            size,
            clients: vec![Client::Idle; rng.gen_range(1..=8)],
            lru: Vec::new(),
            queued: Vec::new(),
            keys: HashMap::new(),
            published: Vec::new(),
            handed_back: Vec::new(),
            reached: [0; 8],
            steps: Vec::new(),
        };
        for now in 0..rng.gen_range(1..100u64) {
            s.queued = queued(&mut rng, tenants);
            s.cache.queued.clone_from(&s.queued);
            let c = rng.gen_range(0..s.clients.len());
            match s.clients[c] {
                Client::Idle => s.look(now, c, TenantId::new(rng.gen_range(0..tenants))),
                // Woken before the load resolved: still a wait.
                Client::Waiting(t) => s.look(now, c, t),
                Client::Loading(t) => s.resolve(now, c, t, rng.gen_range(0..8)),
                Client::Holding(t) => {
                    s.cache.unpin(now, t);
                    s.clients[c] = Client::Idle;
                }
            }
            s.check();
            s.steps.push((s.cache.stats, s.all(Client::Holding)));
        }
        // The counters equal the journal's event counts after every step
        // (each step journals at its own `now`).
        assert_eq!(journal.dropped(), 0);
        let events = journal.events();
        let mut counted: HashMap<&str, u64> = HashMap::new();
        let mut next = events.iter().peekable();
        for (now, &(stats, held)) in s.steps.iter().enumerate() {
            while let Some(e) = next.next_if(|e| e.at_ns == now as u64) {
                *counted.entry(e.kind.label()).or_default() += 1;
            }
            let n = |label| counted.get(label).copied().unwrap_or(0);
            let want = [stats.hits, stats.misses, stats.loads, stats.evictions, held];
            let got = [
                n("hit"),
                n("miss"),
                n("load"),
                n("evict"),
                n("pin") - n("unpin"),
            ];
            assert_eq!(got, want, "seed {seed}, step {now}");
        }
        assert_eq!(counted.get("corrupt").copied().unwrap_or(0), s.reached[6]);
        (events, s.reached)
    }

    /// The cache's contracts over 1 000 seeds on virtual time (`Sweep::check`
    /// after every step); the seeds reach every outcome, and each replays
    /// exactly.
    #[test]
    fn a_thousand_seeds_keep_every_contract() {
        let mut reached: Reached = [0; 8];
        for seed in 0..1_000 {
            let out = sweep(seed);
            assert!(out == sweep(seed), "seed {seed} did not replay");
            for (sum, n) in reached.iter_mut().zip(out.1) {
                *sum += n;
            }
        }
        assert!(reached.iter().all(|&n| n > 50), "{reached:?}");
    }

    /// The hit rate of `trace` through a cache with room for four one-byte
    /// keys. Each lookup sees the queue's order — the distinct tenants of
    /// the next eight turns — or, without `sees_queue`, an empty list.
    fn hit_rate(trace: &[TenantId], sees_queue: bool) -> f64 {
        let mut cache = KeyCache::new(4, Arc::new(Journal::new()));
        for (i, &t) in trace.iter().enumerate() {
            cache.queued.clear();
            for &u in trace[i + 1..].iter().take(8).filter(|_| sees_queue) {
                if !cache.queued.contains(&u) {
                    cache.queued.push(u);
                }
            }
            let now = i as u64;
            if let Lookup::Load = cache.lookup(now, t) {
                cache.loaded(now, t, Ok((now, 1)), &mut Vec::new()).unwrap();
            }
            cache.unpin(now, t);
        }
        cache.stats.hits as f64 / trace.len() as f64
    }

    /// ROADMAP 5's target, on virtual time: eight tenants take turns with
    /// room for four keys. A strict round robin is every policy's worst
    /// case — next-use eviction reaches Belady's optimum, 3 hits in 7 —
    /// and plain LRU hits nothing on it. With four hot tenants served
    /// every round and the four cold ones taking the fifth turn in
    /// rotation, every reuse is still four tenants away, so LRU still hits
    /// nothing; the queue order keeps the hot keys and hits 3 in 5.
    #[test]
    fn the_queue_order_lifts_round_robin_off_the_lru_floor() {
        let strict: Vec<TenantId> = (0..560).map(|i| TenantId::new(i % 8)).collect();
        let hot_and_cold: Vec<TenantId> = (0..500u64)
            .map(|i| TenantId::new(if i % 5 < 4 { i % 5 } else { 4 + i / 5 % 4 }))
            .collect();
        assert!(hit_rate(&strict, false) == 0.0);
        assert!((hit_rate(&strict, true) - 3.0 / 7.0).abs() < 0.01);
        assert!(hit_rate(&hot_and_cold, false) == 0.0);
        assert!(hit_rate(&hot_and_cold, true) >= 0.5);
    }
}
