//! Deadline-aware dynamic-batching dispatcher — the software analogue of
//! Morphling's SW scheduler.
//!
//! The paper's throughput comes from two places: a fast datapath, and a
//! scheduler that keeps 16 bootstrapping cores saturated with *large
//! batches* formed from an incoming request stream (§V, with the batch
//! size driven by HBM bandwidth). The
//! [`BootstrapEngine`](crate::BootstrapEngine) is the fast
//! datapath; this module is the batch-forming layer in front of it:
//!
//! - callers [`submit`](Dispatcher::submit) individual
//!   `(ciphertext, LUT)` requests, each with an optional deadline, and
//!   get back a [`Ticket`] to wait on; a whole [`BatchRequest`] goes in
//!   as one request per ciphertext, each with its whole LUT list, so the
//!   backend still pays one blind rotation for all of a ciphertext's
//!   outputs;
//! - [`workers`](ServingConfig::workers) batcher threads coalesce queued
//!   requests into micro-batches under a
//!   [`max_batch_size`](ServingConfig::max_batch_size) /
//!   [`max_linger`](ServingConfig::max_linger) policy: a batch is
//!   flushed as soon as it is full, or when its oldest member has waited
//!   `max_linger`, whichever comes first — bounded latency at low load,
//!   full batches at high load — and runs on its batcher while the next
//!   one forms, so up to `workers` batches are in flight at once, the way
//!   each of Morphling's cores works on its own batch. The policy itself —
//!   and admission, and what a failed batch does next — is the pure state
//!   machine in `policy.rs`; the batchers only drive it with the wall
//!   clock, under one lock, and the [autotuner](crate::autotune) drives
//!   the same code with virtual time;
//! - admission runs through a **bounded queue**:
//!   [`try_submit`](Dispatcher::try_submit) rejects with
//!   [`TfheError::QueueFull`] instead of queueing unboundedly
//!   (backpressure), while [`submit`](Dispatcher::submit) blocks until
//!   space frees up;
//! - requests can be [cancelled](Ticket::cancel) while queued, and a
//!   request whose deadline passes before its batch starts is dropped
//!   with [`TfheError::DeadlineExceeded`] rather than doing late work;
//! - [`shutdown`](Dispatcher::shutdown) (also run on `Drop`) closes
//!   admission, **drains** everything already queued, then joins the
//!   batchers — no request is silently lost, and a batcher that dies
//!   (a panicking backend) closes admission on its way out: the others
//!   drain the queue, and the last one out fails what is still held
//!   with [`TfheError::DispatcherShutDown`];
//! - every request's queue/execute timeline is journaled as an
//!   [`EventKind::Request`] span (read back as [`DispatchSpan`]s by
//!   [`Dispatcher::spans`], rendered into the Chrome trace by
//!   `morphling_core::trace`), and [`DispatcherStats`] exposes the serving
//!   core's counts, p50/p95/p99 latency and throughput as one consistent
//!   snapshot — latencies sampled by a fixed-size deterministic reservoir,
//!   so week-long runs keep bounded memory and reproducible percentiles;
//! - multi-tenant serving: a request submitted
//!   [for a tenant](Dispatcher::submit_for) only batches with
//!   *same-tenant* traffic (key affinity), so a
//!   [`KeyStore`]-backed backend
//!   ([`KeyStoreBootstrapper`](crate::KeyStoreBootstrapper)) serves each
//!   micro-batch under exactly one pinned key; [`DispatcherStats`]
//!   breaks latency out [per tenant](TenantDispatchStats); a store wired
//!   in via [`DispatcherBuilder::key_store`] hears the queue's tenant
//!   order on every flush, to evict by next queued use (its
//!   hit/miss/eviction counters stay its own, [`KeyStore::stats`]);
//! - the front-end is fault-aware (see [`crate::resilience`]), and it is
//!   the one layer that retries a *request*: under an optional
//!   [`RetryConfig`](crate::RetryConfig) the members of a batch that hit a
//!   retryable backend fault go back into the queue, ready again after a
//!   jittered backoff — the batcher never sleeps one out, so other
//!   tenants' traffic runs meanwhile, and a cancellation or a deadline
//!   ends the retries; a batch that fails *permanently* is split so each
//!   member runs once alone and only the malformed one sees the error; a
//!   batch that fails retryably runs at once on the next
//!   [fallback](DispatcherBuilder::fallback) tier, and an optional
//!   circuit breaker per tier ([`ServingConfig::breaker`]) benches a sick
//!   one; all of it lands in the stack's [journal](Dispatcher::journal).
//!
//! The backend is anything implementing [`Bootstrapper`], so the same
//! dispatcher fronts a [`ServerKey`](crate::ServerKey) or — the intended
//! production shape — a [`BootstrapEngine`](crate::BootstrapEngine). The
//! dispatcher itself implements [`Bootstrapper`] too, so whole-batch
//! callers and single-request callers share one service.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use morphling_tfhe::{ClientKey, Dispatcher, Lut, ParamSet, ServerKey, ServingConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(11);
//! let params = ParamSet::Test.params();
//! let ck = ClientKey::generate(params.clone(), &mut rng);
//! let sk = Arc::new(ServerKey::new(&ck, &mut rng));
//!
//! let config = ServingConfig::builder().max_batch_size(8).build().unwrap();
//! let dispatcher = Dispatcher::from_config(&config, sk).unwrap();
//! let lut = Arc::new(Lut::from_fn(params.poly_size, 4, |m| (m + 1) % 4));
//! let ticket = dispatcher.submit(ck.encrypt(2, &mut rng), Arc::clone(&lut), None).unwrap();
//! assert_eq!(ck.decrypt(&ticket.wait().unwrap()), 3);
//! ```

// Tighter than the crate-wide `warn`: serving code must never unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};

use crate::bootstrapper::{BatchRequest, Bootstrapper};
use crate::error::TfheError;
use crate::journal::{self, Event, EventKind, Journal, Who};
use crate::keystore::{KeyStore, TenantId};
use crate::lut::Lut;
use crate::lwe::LweCiphertext;
use crate::policy::{Done, Entry, Poll, ServingCore};
use crate::serving::ServingConfig;

/// Ignore a poisoned lock: the core is plain data whose every call leaves
/// it consistent, and the exit guard drains it defensively.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One queued request: one input ciphertext through one or more LUTs
/// (`luts.len()` outputs, in LUT order), one item of the formed batch and
/// a single blind rotation. Its id, tenant (key affinity), enqueue time
/// and deadline travel beside it in the core's [`Entry`].
struct Pending {
    ct: LweCiphertext,
    luts: Box<[Arc<Lut>]>,
    cancelled: Arc<AtomicBool>,
    reply: Sender<Resolution>,
}

// The core builds each batch under the dispatcher's lock, and the usual
// allocator serves a request of up to 1 032 bytes from a per-thread cache
// without taking a lock of its own. A batch of eight stays under that
// only while an entry is 128 bytes; at 136 the submitters found the lock
// taken twice as often and a request through a no-op backend cost
// +0.7 µs (EXPERIMENTS.md "one serving core").
const _: () = assert!(std::mem::size_of::<Entry<Pending>>() <= 128);

/// What the batchers share under the dispatcher's one lock.
struct State {
    /// Admission, queue, forming batch, retries and the breaker's feed
    /// (`policy.rs`), on [`journal::now`]'s nanoseconds.
    core: ServingCore<Pending>,
    /// Batcher threads still running: the last one out fails what is left.
    batchers: usize,
}

struct Shared {
    /// The serving knobs this dispatcher was built from.
    config: ServingConfig,
    state: Mutex<State>,
    /// Where waiting batchers wait: an admission wakes one, and so does a
    /// flush that leaves work behind.
    not_empty: Condvar,
    not_full: Condvar,
    /// The stack's journal: one [`EventKind::Request`] span per completed
    /// request, and the core's retries, sheds and breaker transitions.
    journal: Arc<Journal>,
    /// The key store serving the backend, when the backend is a
    /// [`KeyStoreBootstrapper`](crate::KeyStoreBootstrapper): it hears the
    /// queue's tenant order on every flush, to evict by next queued use.
    key_store: Option<Arc<KeyStore>>,
}

/// What a request resolves to: one output per LUT it was submitted with.
type Resolution = Result<Vec<LweCiphertext>, TfheError>;

impl Pending {
    /// Deliver the request's terminal result. The reply channel holds one
    /// slot and sees one send ever, so this never blocks; a dropped ticket
    /// just discards the send.
    fn resolve(self, result: Resolution) {
        let _ = self.reply.send(result);
    }
}

/// Outcome ticket for one submitted request.
///
/// Hold it to [`wait`](Self::wait) for the result, poll with
/// [`try_wait`](Self::try_wait), or [`cancel`](Self::cancel) the request.
/// Dropping the ticket abandons the result (the request still executes
/// unless cancelled first).
pub struct Ticket {
    id: u64,
    cancelled: Arc<AtomicBool>,
    reply: Receiver<Resolution>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("id", &self.id)
            .field("cancelled", &self.cancelled.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Ticket {
    /// The dispatcher-assigned request id (monotonic per dispatcher).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Request cancellation. Best-effort: a request still queued (or
    /// picked but not yet executing) resolves to
    /// [`TfheError::Cancelled`]; one already executing completes
    /// normally.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Block until the request resolves.
    ///
    /// # Errors
    ///
    /// Whatever the request resolved to — [`TfheError::Cancelled`],
    /// [`TfheError::DeadlineExceeded`], a backend error — or
    /// [`TfheError::DispatcherShutDown`] if the batcher died without
    /// resolving it.
    pub fn wait(self) -> Result<LweCiphertext, TfheError> {
        single(self.outputs())
    }

    /// Every output the request owes, one per LUT it was enqueued with.
    fn outputs(self) -> Resolution {
        self.reply
            .recv()
            .unwrap_or(Err(TfheError::DispatcherShutDown))
    }

    /// Non-blocking poll: `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<Result<LweCiphertext, TfheError>> {
        match self.reply.try_recv() {
            Ok(result) => Some(single(result)),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(TfheError::DispatcherShutDown)),
        }
    }

    /// Bounded [`wait`](Self::wait): block at most `timeout` for the
    /// result. On timeout the request is **still in flight** — the ticket
    /// remains usable (wait again, poll, or [`cancel`](Self::cancel)),
    /// which is what lets a caller stop blocking on a wedged backend
    /// without losing the request. A delivered result is consumed: a
    /// second wait on the same ticket reports
    /// [`TfheError::DispatcherShutDown`].
    ///
    /// # Errors
    ///
    /// [`TfheError::WaitTimedOut`] (retryable) if `timeout` elapses
    /// first; otherwise as [`wait`](Self::wait).
    pub fn wait_timeout(&self, timeout: Duration) -> Result<LweCiphertext, TfheError> {
        match self.reply.recv_timeout(timeout) {
            Ok(result) => single(result),
            Err(RecvTimeoutError::Timeout) => Err(TfheError::WaitTimedOut { timeout }),
            Err(RecvTimeoutError::Disconnected) => Err(TfheError::DispatcherShutDown),
        }
    }
}

/// Unwrap a single-LUT request's resolution: exactly one output. A
/// different shape is a backend contract violation, surfaced as the same
/// dead-service error the batcher uses for malformed backend replies.
fn single(result: Resolution) -> Result<LweCiphertext, TfheError> {
    let mut outs = result?;
    match (outs.pop(), outs.is_empty()) {
        (Some(out), true) => Ok(out),
        _ => Err(TfheError::DispatcherShutDown),
    }
}

/// One request's life through the dispatcher: an
/// [`EventKind::Request`] event, read back. All instants are durations
/// since the process epoch ([`journal::now`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchSpan {
    /// Request id (see [`Ticket::id`]).
    pub id: u64,
    /// Micro-batch this request executed in.
    pub batch: u64,
    /// When the request entered the queue.
    pub enqueued: Duration,
    /// Time spent queued (enqueue → batch execution start).
    pub queued: Duration,
    /// When the batch started executing.
    pub exec_start: Duration,
    /// Batch execution time.
    pub exec: Duration,
}

impl DispatchSpan {
    /// The span a request event describes (`None` for any other kind).
    fn from_event(e: &Event) -> Option<Self> {
        let EventKind::Request { id, batch, exec_ns } = e.kind else {
            return None;
        };
        Some(Self {
            id,
            batch,
            enqueued: Duration::from_nanos(e.at_ns),
            queued: Duration::from_nanos(e.dur_ns),
            exec_start: Duration::from_nanos(e.at_ns + e.dur_ns),
            exec: Duration::from_nanos(exec_ns),
        })
    }
}

/// Aggregate dispatcher metrics (see [`Dispatcher::stats`]), all the
/// serving core's counts. One read is one consistent snapshot: `submitted
/// ≥ completed + failed + cancelled + expired` (equal once everything
/// admitted has resolved) and `batched ≥ completed` hold on every read.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DispatcherStats {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Refusals at admission because the queue was full — final ones
    /// only: a `submit` that waits for room is not rejected.
    pub rejected: u64,
    /// Requests cancelled before execution.
    pub cancelled: u64,
    /// Requests dropped because their deadline passed while queued.
    pub expired: u64,
    /// Requests that completed with a result.
    pub completed: u64,
    /// Requests that resolved to a backend error, or to
    /// [`TfheError::DispatcherShutDown`] when the last batcher's exit failed
    /// what it still held.
    pub failed: u64,
    /// Batches flushed to the backend tiers, counted at flush (before any
    /// call is made): a batch that is retried, or split to isolate a
    /// permanent error, counts each time it runs; a failover does not.
    pub batches: u64,
    /// Members of those batches, counted at flush, once per backend call
    /// they were part of (completed + failed by the backend when nothing
    /// had to run twice).
    pub batched: u64,
    /// Requests put back into the queue after a retryable backend fault
    /// (see [`ServingConfig::retry`]); a batch of n counts n.
    pub retries: u64,
    /// Refusals at admission because the circuit breaker was open (see
    /// [`ServingConfig::breaker`]); `rejected + shed` is every refusal.
    pub shed: u64,
    /// Batches run again at once on a later tier after a retryable fault
    /// (see [`DispatcherBuilder::fallback`]); a failover spends no retry.
    pub failovers: u64,
    /// Batches served by each backend tier, in order: the `build` backend,
    /// then each fallback.
    pub served_by_tier: Vec<u64>,
    /// `batched / batches` — the dynamic-batching figure of merit.
    pub mean_batch_size: f64,
    /// Median end-to-end latency (enqueue → result) of completed requests.
    pub p50_latency: Duration,
    /// 95th-percentile end-to-end latency.
    pub p95_latency: Duration,
    /// 99th-percentile end-to-end latency.
    pub p99_latency: Duration,
    /// Completed bootstraps per second over the first-submit → last-done
    /// window.
    pub throughput_bs: f64,
    /// Per-tenant completion/latency breakdown (ascending tenant id),
    /// for requests submitted with a tenant
    /// ([`Dispatcher::submit_for`] and friends).
    pub per_tenant: Vec<TenantDispatchStats>,
}

/// One tenant's slice of [`DispatcherStats`]: completion count and
/// end-to-end latency percentiles over that tenant's requests only
/// (sampled by the same bounded reservoir as the global percentiles).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantDispatchStats {
    /// The tenant (raw id, see [`TenantId::raw`]).
    pub tenant: u64,
    /// Requests completed for this tenant.
    pub completed: u64,
    /// Median end-to-end latency (enqueue → result).
    pub p50_latency: Duration,
    /// 95th-percentile end-to-end latency.
    pub p95_latency: Duration,
    /// 99th-percentile end-to-end latency.
    pub p99_latency: Duration,
}

/// A backend as the batcher holds it.
type Backend = Arc<dyn Bootstrapper + Send + Sync>;

/// Runtime wiring for a [`Dispatcher`]: what a [`ServingConfig`] cannot
/// carry because it is a live object — a [`key_store`](Self::key_store),
/// [`fallback`](Self::fallback) backends. Every knob, the breaker's
/// included, lives in the config ([`from_config`](Self::from_config));
/// [`Dispatcher::builder`] starts from [`ServingConfig::default`].
#[derive(Clone, Default)]
pub struct DispatcherBuilder {
    config: ServingConfig,
    key_store: Option<Arc<KeyStore>>,
    fallbacks: Vec<(Arc<str>, Backend)>,
}

impl std::fmt::Debug for DispatcherBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fallbacks: Vec<_> = self.fallbacks.iter().map(|(name, _)| name).collect();
        f.debug_struct("DispatcherBuilder")
            .field("config", &self.config)
            .field("key_store", &self.key_store)
            .field("fallbacks", &fallbacks)
            .finish()
    }
}

impl DispatcherBuilder {
    /// Start from an explicit [`ServingConfig`] (e.g. an autotuner
    /// recommendation read back from `autotune_config.json`).
    ///
    /// # Errors
    ///
    /// [`TfheError::InvalidServingConfig`] if `config` fails
    /// [`ServingConfig::validate`].
    pub fn from_config(config: &ServingConfig) -> Result<Self, TfheError> {
        config.validate()?;
        Ok(Self {
            config: config.clone(),
            ..Self::default()
        })
    }

    /// On every flush hand `store` the tenants still queued, next to run
    /// first, so that it evicts the key needed last instead of the least
    /// recently used one; its counters stay its own ([`KeyStore::stats`]).
    /// Batch order and outputs do not change. Pass the same store's
    /// [`KeyStoreBootstrapper`](crate::KeyStoreBootstrapper) as the
    /// `build` backend to actually serve through it. Several dispatchers
    /// may share one store: the last flush's order wins, which can cost
    /// hits; build them over clones of one `KeyStoreBootstrapper`, so that
    /// their batches take turns at a store too small for all at once.
    pub fn key_store(mut self, store: Arc<KeyStore>) -> Self {
        self.key_store = Some(store);
        self
    }

    /// Append a backend tier named `name` behind `build`'s backend and the
    /// fallbacks before it: a batch that those fail retryably, or whose
    /// breakers refuse it, runs here at once, spending no retry. Its
    /// breaker, if [`ServingConfig::breaker`] gives one, reads the backend's
    /// [`Bootstrapper::health`] and benches a `Failed` one uncalled; its
    /// events are journaled under `name`. Every tier must compute the same
    /// function, so that a failover changes only latency.
    pub fn fallback<B>(mut self, name: &str, backend: B) -> Self
    where
        B: Bootstrapper + Send + Sync + 'static,
    {
        self.fallbacks.push((name.into(), Arc::new(backend)));
        self
    }

    /// Spawn [`workers`](ServingConfig::workers) batcher threads over
    /// `backend`, tier 0, and start serving, recording into `backend`'s
    /// [journal](Bootstrapper::journal) unless it has none or another
    /// dispatcher records into it.
    pub fn build<B>(self, backend: B) -> Dispatcher
    where
        B: Bootstrapper + Send + Sync + 'static,
    {
        // The backend's journal, or a fresh one: whichever no dispatcher took.
        let mut journal = backend.journal().cloned().unwrap_or_default();
        while !journal.claim() {
            journal = Arc::default();
        }
        let (names, fallbacks): (Vec<_>, Vec<_>) = self.fallbacks.into_iter().unzip();
        let state = State {
            core: ServingCore::new(&self.config, Arc::clone(&journal), &names),
            batchers: self.config.workers,
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(state),
            config: self.config,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            journal,
            key_store: self.key_store,
        });
        let mut tiers: Vec<Backend> = vec![Arc::new(backend)];
        tiers.extend(fallbacks);
        let tiers: Arc<[Backend]> = tiers.into();
        let batchers = (0..shared.config.workers)
            .map(|_| {
                let (shared, tiers) = (Arc::clone(&shared), Arc::clone(&tiers));
                std::thread::spawn(move || batcher_loop(&shared, &tiers))
            })
            .collect();
        Dispatcher { shared, batchers }
    }
}

/// The dynamic-batching front-end. See the [module docs](self).
pub struct Dispatcher {
    shared: Arc<Shared>,
    batchers: Vec<JoinHandle<()>>,
}

impl Dispatcher {
    /// Default policy plus runtime wiring (a key store, fallbacks); for
    /// other knobs start from [`DispatcherBuilder::from_config`].
    pub fn builder() -> DispatcherBuilder {
        DispatcherBuilder::default()
    }

    /// Wrap `backend` with default policy (batch ≤ 32, linger ≤ 2 ms,
    /// queue 1024).
    pub fn new<B>(backend: B) -> Self
    where
        B: Bootstrapper + Send + Sync + 'static,
    {
        Self::builder().build(backend)
    }

    /// Build a dispatcher from a validated [`ServingConfig`] — the
    /// consumption side of the autotuner loop (`report autotune` emits
    /// the config; this turns it back into a serving front-end).
    ///
    /// `config.workers` batcher threads serve the queue, so up to that
    /// many batches run on `backend` at once; pair with
    /// [`ServingConfig::build_engine`] to size an engine backend by the
    /// same knob. Use
    /// [`DispatcherBuilder::from_config`] to wire in a key store or
    /// fallbacks.
    ///
    /// # Errors
    ///
    /// [`TfheError::InvalidServingConfig`] if `config` fails
    /// [`ServingConfig::validate`] — degenerate knobs (`workers == 0`,
    /// `max_batch_size == 0`, a zero queue) are rejected loudly here
    /// instead of misbehaving deeper in.
    pub fn from_config<B>(config: &ServingConfig, backend: B) -> Result<Self, TfheError>
    where
        B: Bootstrapper + Send + Sync + 'static,
    {
        Ok(DispatcherBuilder::from_config(config)?.build(backend))
    }

    /// Submit one request, blocking while the admission queue is full.
    ///
    /// `deadline` is the latest acceptable *execution start*: if the
    /// batcher has not started the request's batch by then, the request
    /// resolves to [`TfheError::DeadlineExceeded`] instead of running
    /// late. A deadline sooner than the linger window flushes the batch
    /// early.
    ///
    /// # Errors
    ///
    /// [`TfheError::DispatcherShutDown`] after
    /// [`shutdown`](Self::shutdown).
    pub fn submit(
        &self,
        ct: LweCiphertext,
        lut: Arc<Lut>,
        deadline: Option<Instant>,
    ) -> Result<Ticket, TfheError> {
        self.enqueue(ct, vec![lut], None, deadline, true)
    }

    /// [`submit`](Self::submit) on behalf of `tenant`: the batcher only
    /// coalesces this request with batch-mates of the *same* tenant (key
    /// affinity — every formed batch is servable by one tenant's key),
    /// and a [`KeyStoreBootstrapper`](crate::KeyStoreBootstrapper)
    /// backend resolves the tenant's key per batch.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn submit_for(
        &self,
        tenant: TenantId,
        ct: LweCiphertext,
        lut: Arc<Lut>,
        deadline: Option<Instant>,
    ) -> Result<Ticket, TfheError> {
        self.enqueue(ct, vec![lut], Some(tenant), deadline, true)
    }

    /// Non-blocking [`submit`](Self::submit): rejects with
    /// [`TfheError::QueueFull`] instead of waiting — the backpressure
    /// signal for callers that can shed or defer load.
    ///
    /// # Errors
    ///
    /// [`TfheError::QueueFull`] at capacity,
    /// [`TfheError::DispatcherShutDown`] after shutdown.
    pub fn try_submit(
        &self,
        ct: LweCiphertext,
        lut: Arc<Lut>,
        deadline: Option<Instant>,
    ) -> Result<Ticket, TfheError> {
        self.enqueue(ct, vec![lut], None, deadline, false)
    }

    /// [`try_submit`](Self::try_submit) on behalf of `tenant`, with
    /// [`submit_for`](Self::submit_for)'s key-affinity semantics.
    ///
    /// # Errors
    ///
    /// As [`try_submit`](Self::try_submit).
    pub fn try_submit_for(
        &self,
        tenant: TenantId,
        ct: LweCiphertext,
        lut: Arc<Lut>,
        deadline: Option<Instant>,
    ) -> Result<Ticket, TfheError> {
        self.enqueue(ct, vec![lut], Some(tenant), deadline, false)
    }

    fn enqueue(
        &self,
        ct: LweCiphertext,
        luts: Vec<Arc<Lut>>,
        tenant: Option<TenantId>,
        deadline: Option<Instant>,
        block: bool,
    ) -> Result<Ticket, TfheError> {
        let shared = &self.shared;
        let (reply_tx, reply_rx) = channel::bounded(1);
        let cancelled = Arc::new(AtomicBool::new(false));
        let mut item = Pending {
            ct,
            luts: luts.into_boxed_slice(),
            cancelled: Arc::clone(&cancelled),
            reply: reply_tx,
        };
        // Instants before the epoch are 0: expired from the start.
        let deadline_ns = deadline.map(journal::since_epoch);
        let mut state = lock(&shared.state);
        let id = loop {
            // Stamped at admission: a `submit` that blocked on a full
            // queue lingers from when it got in, not from when it was
            // called.
            match (state.core).admit(journal::now(), tenant, deadline_ns, item, block) {
                Ok(id) => break id,
                Err((TfheError::QueueFull { .. }, back)) if block => {
                    item = back;
                    state = (shared.not_full.wait(state)).unwrap_or_else(PoisonError::into_inner);
                }
                Err((why, _)) => return Err(why),
            }
        };
        drop(state);
        shared.not_empty.notify_one();
        Ok(Ticket {
            id,
            cancelled,
            reply: reply_rx,
        })
    }

    /// Aggregate metrics since construction: one consistent snapshot of
    /// the serving core's counts, copied under its lock (sorted for the
    /// percentiles after the lock is dropped). A wired key store's
    /// counters are its own [`KeyStore::stats`].
    pub fn stats(&self) -> DispatcherStats {
        let tally = lock(&self.shared.state).core.tally().clone();
        tally.stats()
    }

    /// The stack's journal ([`DispatcherBuilder::build`]): the backend's
    /// events, a [`Who::Dispatcher`] span per completed request, and under
    /// [`Who::Scope`] — `"dispatcher"` for the front door and the `build`
    /// backend, a [fallback](DispatcherBuilder::fallback)'s name for it —
    /// retries, sheds, and each tier's breaker transitions, skips and
    /// failovers (to it).
    pub fn journal(&self) -> &Journal {
        &self.shared.journal
    }

    /// The request spans of [`journal`](Self::journal), read back as
    /// [`DispatchSpan`]s.
    pub fn spans(&self) -> Vec<DispatchSpan> {
        let events = self.shared.journal.events();
        events.iter().filter_map(DispatchSpan::from_event).collect()
    }

    /// The serving knobs this dispatcher runs under: the caller's config
    /// verbatim, ready to serialize and pin.
    pub fn config(&self) -> &ServingConfig {
        &self.shared.config
    }

    /// Graceful shutdown: close admission, **drain** every request
    /// already queued (each resolves normally), then join the batchers.
    /// Idempotent; also run by `Drop`. Later submissions fail with
    /// [`TfheError::DispatcherShutDown`].
    pub fn shutdown(&mut self) {
        lock(&self.shared.state).core.close();
        // Wake the batchers (to notice the close) and any blocked
        // submitters (to fail fast).
        self.shared.wake_all();
        for handle in self.batchers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Dispatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Dispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatcher")
            .field("max_batch_size", &self.shared.config.max_batch_size)
            .field("max_linger", &self.shared.config.max_linger)
            .field("queue_capacity", &self.shared.config.queue_capacity)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// Whole-batch callers can treat the dispatcher as just another backend:
/// the request is split into individual submissions with no deadline,
/// which the batcher is free to coalesce with traffic from other callers —
/// cross-request batching, the paper's SW-scheduler behavior. Results come
/// back in input order.
impl Bootstrapper for Dispatcher {
    fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
        if req.is_empty() {
            return Ok(Vec::new());
        }
        let luts: Vec<Arc<Lut>> = req.luts().iter().cloned().map(Arc::new).collect();
        // One submission per input, carrying its LUT list, so the batcher
        // keeps an input's LUTs together (one rotation per input
        // downstream) while still coalescing across inputs. The request's
        // tenant rides along on every submission, so key affinity holds
        // across the split.
        let mut tickets = Vec::with_capacity(req.len());
        for (ct, list) in req.ciphertexts().iter().zip(req.lists()) {
            let picked = list.iter().map(|&j| Arc::clone(&luts[j])).collect();
            tickets.push(self.enqueue(ct.clone(), picked, req.tenant(), None, true)?);
        }
        let mut out = Vec::with_capacity(req.output_len());
        let mut first_err = None;
        for ticket in tickets {
            match ticket.outputs() {
                Ok(item) => out.extend(item),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        first_err.map_or(Ok(out), Err)
    }

    fn journal(&self) -> Option<&Arc<Journal>> {
        Some(&self.shared.journal)
    }
}

/// One batcher thread: drive the serving core (`policy.rs`) with the wall
/// clock over `tiers`, beside the dispatcher's other batchers. One clock
/// read per poll; `Flush` routes the batch under the lock and runs it
/// outside — waking a waiting batcher first if work is left, so that it
/// forms the next batch meanwhile — `WaitUntil` — a lingering batch or a
/// retry backing off — becomes a timed wait that a new submission cuts
/// short, and `Idle` waits for a submission or a flush — or, once
/// admission is closed and everything queued has drained, ends the
/// thread. Nothing here sleeps. With a key store wired in, each flush also
/// hands it the queue's tenant order, read under the core's lock and
/// passed on after it is dropped (the two locks never nest), so that the
/// batch's key load evicts what is needed last. A tier's health is read
/// under the core's lock.
fn batcher_loop(shared: &Shared, tiers: &[Backend]) {
    let _fail_leftovers_on_exit = ExitGuard(shared);
    let mut queued = Vec::new();
    let mut state = lock(&shared.state);
    loop {
        let now = journal::now();
        let core = &mut state.core;
        match core.poll(now, |p| p.cancelled.load(Ordering::SeqCst)) {
            Poll::Flush { batch, dropped } => {
                // The 0-based number of a non-empty batch.
                let call = core.tally().batches().saturating_sub(1);
                let health = |tier: usize| tiers[tier].health();
                let routed = (!batch.is_empty()).then(|| core.route(now, batch, None, health));
                if shared.key_store.is_some() {
                    core.queued_tenants(&mut queued);
                }
                let more = core.holds_work();
                drop(state);
                if more {
                    shared.not_empty.notify_one();
                }
                if let Some(store) = &shared.key_store {
                    store.set_queued(&queued);
                }
                shared.not_full.notify_all();
                for (e, why) in dropped {
                    e.item.resolve(Err(why));
                }
                if let Some(done) = routed {
                    execute_batch(shared, tiers, call, done);
                }
                state = lock(&shared.state);
            }
            Poll::WaitUntil(t) => {
                // Joiners left the queue for the forming batch: a
                // submitter blocked on a full queue may fit now.
                shared.not_full.notify_all();
                let wait = Duration::from_nanos(t.saturating_sub(now));
                let woke = shared.not_empty.wait_timeout(state, wait);
                state = woke.unwrap_or_else(PoisonError::into_inner).0;
            }
            Poll::Idle if !core.is_open() => return,
            Poll::Idle => {
                state = (shared.not_empty.wait(state)).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

impl Shared {
    /// Wake every batcher, to look again, and every blocked submitter.
    fn wake_all(&self) {
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// However a batcher thread ends — drained after `shutdown`, or unwinding
/// out of a panicking backend — admission closes, and the other batchers
/// wake to drain what is queued. The last one out leaves nobody waiting on
/// the dispatcher: whatever the core still holds (queued, forming, backing
/// off) fails with [`TfheError::DispatcherShutDown`], and blocked
/// submitters wake to see the closed door. (A batch already handed to the
/// backend unwinds with its batcher; dropping its reply senders reports
/// the same error.)
struct ExitGuard<'a>(&'a Shared);

impl Drop for ExitGuard<'_> {
    fn drop(&mut self) {
        let leftovers = {
            let mut state = lock(&self.0.state);
            state.core.close();
            state.batchers -= 1;
            match state.batchers {
                0 => state.core.take_all(),
                _ => Vec::new(),
            }
        };
        for e in leftovers {
            e.item.resolve(Err(TfheError::DispatcherShutDown));
        }
        self.0.wake_all();
    }
}

/// Run one routed micro-batch (live and single-tenant, as the core
/// flushed it, `batch_id` its number) until the core settles it. Each
/// `Run` is one backend call on the tier it names, its outcome routed back
/// at the clock read that ends it; served members get their outputs and
/// spans (the window of the call that served them), failed ones their
/// error; whoever is to run again is already back in the core.
fn execute_batch(shared: &Shared, tiers: &[Backend], batch_id: u64, mut done: Done<Pending>) {
    let (mut outs, mut exec) = (Vec::new(), (0, 0));
    loop {
        match done {
            Done::Run { tier, batch } => {
                let start = journal::now();
                let outcome = run_as_batch(tiers[tier].as_ref(), &batch).map(|o| outs = o);
                let end = journal::now();
                exec = (start, end.saturating_sub(start));
                let health = |tier: usize| tiers[tier].health();
                let core = &mut lock(&shared.state).core;
                done = core.route(end, batch, Some((tier, outcome)), health);
            }
            Done::Served(batch) => return distribute(shared, batch_id, exec, batch, outs),
            Done::Failed(resolved) => {
                for (e, err) in resolved {
                    e.item.resolve(Err(err));
                }
                return;
            }
        }
    }
}

/// Build a [`BatchRequest`] for `live` (deduplicating LUTs by `Arc`
/// identity) and run it on the backend. Returns the flat output vector:
/// pending `i` owns the next `live[i].luts.len()` outputs in order.
fn run_as_batch(
    backend: &dyn Bootstrapper,
    live: &[Entry<Pending>],
) -> Result<Vec<LweCiphertext>, TfheError> {
    let mut luts: Vec<Arc<Lut>> = Vec::new();
    let mut lists: Vec<Vec<usize>> = Vec::with_capacity(live.len());
    for p in live {
        let mut list = Vec::with_capacity(p.item.luts.len());
        for lut in p.item.luts.iter() {
            let idx = match luts.iter().position(|l| Arc::ptr_eq(l, lut)) {
                Some(idx) => idx,
                None => {
                    luts.push(Arc::clone(lut));
                    luts.len() - 1
                }
            };
            list.push(idx);
        }
        lists.push(list);
    }
    let cts: Vec<LweCiphertext> = live.iter().map(|p| p.item.ct.clone()).collect();
    let owned: Vec<Lut> = luts.iter().map(|l| (**l).clone()).collect();
    let req = BatchRequest::fanned_out(cts, owned, lists)?;
    // The policy forms single-affinity batches, so the batch's tenant
    // is its first member's.
    let req = match live[0].affinity {
        Some(t) => req.with_tenant(t),
        None => req,
    };
    let outs = backend.try_bootstrap_batch(&req)?;
    let expected: usize = live.iter().map(|p| p.item.luts.len()).sum();
    if outs.len() != expected {
        // A backend returning the wrong shape is a contract violation;
        // surface it as a dead-service error rather than misdelivering.
        return Err(TfheError::DispatcherShutDown);
    }
    Ok(outs)
}

/// Journal each member's span and hand it its output. The whole batch
/// shares one execution window, `(start, length)`; each request's queue
/// time runs from its own enqueue to that window's start — for a request
/// that was retried, the window of the run that served it, so what it
/// spent failing and backing off reads as queue wait.
fn distribute(
    shared: &Shared,
    batch_id: u64,
    (exec_start, exec_ns): (u64, u64),
    live: Vec<Entry<Pending>>,
    outs: Vec<LweCiphertext>,
) {
    // One lock for the batch's spans: the backend may be recording too.
    shared.journal.record_all(live.iter().map(|p| Event {
        at_ns: p.enqueued_ns,
        dur_ns: exec_start.saturating_sub(p.enqueued_ns),
        who: Who::Dispatcher,
        kind: EventKind::Request {
            id: p.id,
            batch: batch_id,
            exec_ns,
        },
    }));
    // Slice the flat outputs by each member's LUT count (single-LUT
    // members take exactly one).
    let mut outs = outs.into_iter();
    for p in live {
        let item: Vec<LweCiphertext> = outs.by_ref().take(p.item.luts.len()).collect();
        p.item.resolve(Ok(item));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::ClientKey;
    use crate::params::ParamSet;
    use crate::resilience::RetryConfig;
    use crate::server::ServerKey;
    use crate::serving::ServingConfigBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Echo backend: returns the inputs unchanged, recording each batch's
    /// size and optionally blocking on a gate until released — the
    /// deterministic scaffolding for batching/backpressure tests. Its
    /// first `fail_first` calls answer a retryable fault instead.
    struct EchoBackend {
        fail_first: usize,
        sizes: Mutex<Vec<usize>>,
        /// The tenant each backend call was made for, in call order.
        tenants: Mutex<Vec<Option<u64>>>,
        started: Sender<()>,
        gate: Receiver<()>,
        gated: bool,
    }

    fn echo(gated: bool) -> (Arc<EchoBackend>, Receiver<()>, Sender<()>) {
        echo_failing(gated, 0)
    }

    fn echo_failing(
        gated: bool,
        fail_first: usize,
    ) -> (Arc<EchoBackend>, Receiver<()>, Sender<()>) {
        let (started_tx, started_rx) = channel::unbounded();
        let (gate_tx, gate_rx) = channel::unbounded();
        (
            Arc::new(EchoBackend {
                fail_first,
                sizes: Mutex::new(Vec::new()),
                tenants: Mutex::new(Vec::new()),
                started: started_tx,
                gate: gate_rx,
                gated,
            }),
            started_rx,
            gate_tx,
        )
    }

    impl Bootstrapper for EchoBackend {
        fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
            let call = {
                let mut sizes = lock(&self.sizes);
                sizes.push(req.len());
                sizes.len()
            };
            lock(&self.tenants).push(req.tenant().map(TenantId::raw));
            let _ = self.started.send(());
            if self.gated {
                let _ = self.gate.recv();
            }
            if call <= self.fail_first {
                return Err(TfheError::WorkerPanicked { worker: 0 });
            }
            // Echo each input once per output it owes (fanout-aware).
            let mut out = Vec::with_capacity(req.output_len());
            for (i, ct) in req.ciphertexts().iter().enumerate() {
                out.extend(std::iter::repeat_with(|| ct.clone()).take(req.output_count(i)));
            }
            Ok(out)
        }
    }

    fn dummy_ct(tag: u64) -> LweCiphertext {
        LweCiphertext::trivial(morphling_math::Torus32::from_raw(tag as u32), 4)
    }

    fn dummy_lut() -> Arc<Lut> {
        Arc::new(Lut::identity(256, 4))
    }

    /// A dispatcher over `backend` under `knobs`.
    fn dispatcher<B>(knobs: ServingConfigBuilder, backend: B) -> Dispatcher
    where
        B: Bootstrapper + Send + Sync + 'static,
    {
        Dispatcher::from_config(&knobs.build().unwrap(), backend).unwrap()
    }

    #[test]
    fn coalesces_under_load_and_keeps_request_identity() {
        let (backend, started, gate) = echo(true);
        let d = dispatcher(
            ServingConfig::builder()
                .max_batch_size(4)
                .max_linger(Duration::from_millis(50)),
            Arc::clone(&backend),
        );
        let lut = dummy_lut();
        // First request gets picked up alone and blocks in the backend...
        let t0 = d.submit(dummy_ct(0), Arc::clone(&lut), None).unwrap();
        started.recv().unwrap();
        // ...while seven more pile up behind it.
        let tickets: Vec<Ticket> = (1..8)
            .map(|i| d.submit(dummy_ct(i), Arc::clone(&lut), None).unwrap())
            .collect();
        gate.send(()).unwrap();
        started.recv().unwrap();
        gate.send(()).unwrap();
        started.recv().unwrap();
        gate.send(()).unwrap();
        assert_eq!(t0.wait().unwrap(), dummy_ct(0));
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait().unwrap(), dummy_ct(i as u64 + 1), "i={i}");
        }
        // 8 requests in 3 batches: 1 (the lone first pick) + 4 + 3.
        assert_eq!(lock(&backend.sizes).clone(), vec![1, 4, 3]);
        let stats = d.stats();
        assert_eq!(stats.submitted, 8);
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.batches, 3);
        assert!((stats.mean_batch_size - 8.0 / 3.0).abs() < 1e-9);
    }

    /// Batch membership, by request id, that the core forms on virtual
    /// time when each wave arrives whole, a second after the one before,
    /// and the backend answers at once.
    fn virtual_batches(cfg: &ServingConfig, waves: &[Vec<Option<u64>>]) -> Vec<Vec<u64>> {
        use crate::policy::{drive, Arrival};
        let second = |wave: usize| wave as u64 * 1_000_000_000;
        let arrivals: Vec<Arrival> = (waves.iter().enumerate())
            .flat_map(|(w, wave)| wave.iter().zip(second(w)..))
            .map(|(&tenant, at)| Arrival {
                at,
                affinity: tenant.map(TenantId::new),
                ..Arrival::default()
            })
            .collect();
        let mut batches = Vec::new();
        drive(
            &mut ServingCore::new(cfg, Arc::default(), &[]),
            &arrivals,
            None,
            |_, _, batch| {
                batches.push(batch.iter().map(|e| e.id).collect());
                (0, Ok(()))
            },
            |_, _| crate::EngineHealth::Healthy,
            |_, _, _| {},
        );
        batches
    }

    /// The same waves through the real dispatcher: the gated backend holds
    /// the batcher inside a batch while the next wave queues up whole
    /// behind it, so the event order is the virtual run's exactly.
    fn threaded_batches(cfg: &ServingConfig, waves: &[Vec<Option<u64>>]) -> Vec<Vec<u64>> {
        let (backend, started, gate) = echo(true);
        let d = Dispatcher::from_config(cfg, Arc::clone(&backend)).unwrap();
        let lut = dummy_lut();
        let mut tickets: Vec<Ticket> = Vec::new();
        let mut picked_up = 0;
        for wave in waves {
            for &tenant in wave {
                let ct = dummy_ct(tickets.len() as u64);
                let lut = Arc::clone(&lut);
                tickets.push(match tenant {
                    Some(t) => d.submit_for(TenantId::new(t), ct, lut, None).unwrap(),
                    None => d.submit(ct, lut, None).unwrap(),
                });
            }
            // One batch at a time, stopping inside the wave's last one.
            while picked_up < tickets.len() {
                if picked_up > 0 {
                    gate.send(()).unwrap();
                }
                started.recv().unwrap();
                picked_up += lock(&backend.sizes).last().unwrap();
            }
        }
        gate.send(()).unwrap();
        for t in tickets {
            t.wait().unwrap();
        }
        let mut batches = vec![Vec::new(); d.stats().batches as usize];
        for span in d.spans() {
            batches[span.batch as usize].push(span.id);
        }
        batches
    }

    #[test]
    fn batcher_thread_and_virtual_time_driver_form_the_same_batches() {
        let knobs = |max_batch| {
            ServingConfig::builder()
                .max_batch_size(max_batch)
                .max_linger(Duration::from_millis(20))
                .build()
                .unwrap()
        };
        // The schedule of `coalesces_under_load_and_keeps_request_identity`.
        let waves = [vec![None], vec![None; 7]];
        let batches = virtual_batches(&knobs(4), &waves);
        assert_eq!(batches, [vec![0], vec![1, 2, 3, 4], vec![5, 6, 7]]);
        assert_eq!(threaded_batches(&knobs(4), &waves), batches);
        // Three tenants and tenantless traffic, interleaved.
        let (a, b, c) = (Some(1), Some(2), Some(3));
        let waves = [vec![a], vec![a, b, c, a, b, None, c, a, a, b]];
        let batches = virtual_batches(&knobs(3), &waves);
        let expected: [&[u64]; 6] = [&[0], &[1, 4, 8], &[2, 5, 10], &[3, 7], &[6], &[9]];
        assert_eq!(batches, expected);
        assert_eq!(threaded_batches(&knobs(3), &waves), batches);
    }

    #[test]
    fn two_batchers_keep_two_calls_in_flight() {
        let (backend, started, gate) = echo(true);
        let d = dispatcher(
            ServingConfig::builder()
                .workers(2)
                .max_batch_size(1)
                .max_linger(Duration::ZERO),
            Arc::clone(&backend),
        );
        let lut = dummy_lut();
        let tickets: Vec<Ticket> = (0..3)
            .map(|i| d.submit(dummy_ct(i), Arc::clone(&lut), None).unwrap())
            .collect();
        // Two calls start while neither may finish; the third waits for a
        // batcher.
        let patience = Duration::from_secs(5);
        started.recv_timeout(patience).unwrap();
        started.recv_timeout(patience).unwrap();
        assert!(started.recv_timeout(Duration::from_millis(20)).is_err());
        for _ in 0..3 {
            gate.send(()).unwrap();
        }
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait_timeout(patience).unwrap(), dummy_ct(i as u64));
        }
        assert_eq!(lock(&backend.sizes).clone(), vec![1, 1, 1]);
    }

    #[test]
    fn unbounded_linger_flushes_when_the_batch_fills() {
        // `Duration::MAX` is a valid linger ("wait for a full batch"); the
        // flush time saturates instead of overflowing the clock.
        let (backend, _started, _gate) = echo(false);
        let d = dispatcher(
            ServingConfig::builder()
                .max_batch_size(2)
                .max_linger(Duration::MAX),
            Arc::clone(&backend),
        );
        let lut = dummy_lut();
        let t0 = d.submit(dummy_ct(0), Arc::clone(&lut), None).unwrap();
        let t1 = d.submit(dummy_ct(1), lut, None).unwrap();
        assert_eq!(t0.wait().unwrap(), dummy_ct(0));
        assert_eq!(t1.wait().unwrap(), dummy_ct(1));
        assert_eq!(lock(&backend.sizes).clone(), vec![2]);
    }

    #[test]
    fn a_forming_batch_makes_room_for_a_blocked_submitter() {
        // Members of the forming batch no longer occupy the queue, so a
        // `submit` blocked on a full queue gets in — and joins — while
        // the batch lingers. With an unbounded linger nothing else would
        // ever wake it.
        let (backend, started, gate) = echo(true);
        let d = dispatcher(
            ServingConfig::builder()
                .max_batch_size(3)
                .queue_capacity(2)
                .max_linger(Duration::MAX),
            Arc::clone(&backend),
        );
        let lut = dummy_lut();
        // Hold the batcher inside a first, full batch...
        let patience = Duration::from_secs(5);
        let held: Vec<Ticket> = (0..3)
            .map(|i| d.submit(dummy_ct(i), Arc::clone(&lut), None).unwrap())
            .collect();
        started.recv().unwrap();
        // ...fill the queue behind it, and block one more submitter.
        let queued: Vec<Ticket> = (3..5)
            .map(|i| d.try_submit(dummy_ct(i), Arc::clone(&lut), None).unwrap())
            .collect();
        std::thread::scope(|s| {
            let blocked = s.spawn(|| d.submit(dummy_ct(5), Arc::clone(&lut), None).unwrap());
            // Not a synchronisation: the outcome is the same whether or
            // not the submitter is already waiting when the gate opens;
            // the pause only makes the interesting order the likely one.
            std::thread::sleep(Duration::from_millis(20));
            gate.send(()).unwrap();
            started.recv().unwrap();
            gate.send(()).unwrap();
            let last = blocked.join().unwrap();
            assert_eq!(last.wait_timeout(patience).unwrap(), dummy_ct(5));
        });
        for (i, t) in held.into_iter().chain(queued).enumerate() {
            assert_eq!(t.wait_timeout(patience).unwrap(), dummy_ct(i as u64));
        }
        assert_eq!(lock(&backend.sizes).clone(), vec![3, 3]);
    }

    /// Backend whose first call panics once the gate opens.
    struct PanickingBackend {
        started: Sender<()>,
        gate: Receiver<()>,
    }

    impl Bootstrapper for PanickingBackend {
        fn try_bootstrap_batch(&self, _: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
            let _ = self.started.send(());
            let _ = self.gate.recv();
            panic!("backend bug (injected by the test)");
        }
    }

    #[test]
    fn a_dead_batcher_strands_no_ticket_and_closes_admission() {
        let (started_tx, started) = channel::unbounded();
        let (gate, gate_rx) = channel::unbounded();
        let d = dispatcher(
            ServingConfig::builder().max_batch_size(1),
            PanickingBackend {
                started: started_tx,
                gate: gate_rx,
            },
        );
        let lut = dummy_lut();
        let doomed = d.submit(dummy_ct(0), Arc::clone(&lut), None).unwrap();
        started.recv().unwrap();
        let behind = d.submit(dummy_ct(1), Arc::clone(&lut), None).unwrap();
        gate.send(()).unwrap();
        // The batcher unwinds out of the backend; nobody keeps waiting.
        let patience = Duration::from_secs(2);
        assert_eq!(
            behind.wait_timeout(patience),
            Err(TfheError::DispatcherShutDown)
        );
        assert_eq!(
            doomed.wait_timeout(patience),
            Err(TfheError::DispatcherShutDown)
        );
        assert_eq!(
            d.submit(dummy_ct(2), lut, None).unwrap_err(),
            TfheError::DispatcherShutDown
        );
        // The exit guard failed the queued one; the one in the backend
        // never came back.
        let stats = d.stats();
        assert_eq!((stats.submitted, stats.failed), (2, 1));
    }

    #[test]
    fn every_stats_read_is_one_consistent_snapshot() {
        // Submitters race the batcher — blocking and non-blocking submits,
        // deadlines already past, cancellations — while a reader, released
        // with them, checks the audit on every snapshot it takes.
        let (backend, _started, _gate) = echo(false);
        let d = dispatcher(
            ServingConfig::builder()
                .max_batch_size(4)
                .max_linger(Duration::from_micros(100))
                .queue_capacity(8),
            backend,
        );
        let lut = dummy_lut();
        let (start, done) = (std::sync::Barrier::new(4), AtomicBool::new(false));
        let resolved = |s: &DispatcherStats| s.completed + s.failed + s.cancelled + s.expired;
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                start.wait();
                while !done.load(Ordering::SeqCst) {
                    let s = d.stats();
                    assert!(
                        s.submitted >= resolved(&s) && s.batched >= s.completed,
                        "{s:?}"
                    );
                }
            });
            let submitters: Vec<_> = (0..3u64)
                .map(|k| {
                    let (d, lut, start) = (&d, &lut, &start);
                    scope.spawn(move || {
                        start.wait();
                        let mut tickets = Vec::new();
                        for i in 0..200u64 {
                            let (ct, lut) = (dummy_ct(k * 1000 + i), Arc::clone(lut));
                            let past = Instant::now() - Duration::from_millis(1);
                            tickets.extend(match i % 4 {
                                0 => d.submit(ct, lut, None).ok(),
                                1 => d.try_submit(ct, lut, None).ok(),
                                2 => d.submit(ct, lut, Some(past)).ok(),
                                _ => d.submit(ct, lut, None).inspect(Ticket::cancel).ok(),
                            });
                        }
                        for t in tickets {
                            let _ = t.wait();
                        }
                    })
                })
                .collect();
            for submitter in submitters {
                submitter.join().unwrap();
            }
            done.store(true, Ordering::SeqCst);
            reader.join().unwrap();
        });
        let s = d.stats();
        assert_eq!(
            (s.submitted, s.batched),
            (resolved(&s), s.completed),
            "{s:?}"
        );
        assert!(s.expired > 0, "{s:?}");
    }

    #[test]
    fn try_submit_backpressures_at_capacity() {
        let (backend, started, gate) = echo(true);
        let d = dispatcher(
            ServingConfig::builder().max_batch_size(1).queue_capacity(1),
            Arc::clone(&backend),
        );
        let lut = dummy_lut();
        let t0 = d.submit(dummy_ct(0), Arc::clone(&lut), None).unwrap();
        started.recv().unwrap(); // batcher is now wedged in the backend
        let t1 = d.try_submit(dummy_ct(1), Arc::clone(&lut), None).unwrap();
        let err = d
            .try_submit(dummy_ct(2), Arc::clone(&lut), None)
            .unwrap_err();
        assert_eq!(err, TfheError::QueueFull { capacity: 1 });
        gate.send(()).unwrap();
        started.recv().unwrap();
        gate.send(()).unwrap();
        assert!(t0.wait().is_ok());
        assert!(t1.wait().is_ok());
        let stats = d.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn cancellation_resolves_without_executing() {
        let (backend, started, gate) = echo(true);
        let d = dispatcher(
            ServingConfig::builder().max_batch_size(1),
            Arc::clone(&backend),
        );
        let lut = dummy_lut();
        let t0 = d.submit(dummy_ct(0), Arc::clone(&lut), None).unwrap();
        started.recv().unwrap();
        let t1 = d.submit(dummy_ct(1), Arc::clone(&lut), None).unwrap();
        assert!(t1.try_wait().is_none());
        t1.cancel();
        gate.send(()).unwrap();
        assert!(t0.wait().is_ok());
        assert_eq!(t1.wait().unwrap_err(), TfheError::Cancelled);
        let stats = d.stats();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.completed, 1);
        // The cancelled request never reached the backend.
        assert_eq!(lock(&backend.sizes).clone(), vec![1]);
    }

    #[test]
    fn expired_deadline_drops_the_request() {
        let (backend, started, gate) = echo(true);
        let d = dispatcher(
            ServingConfig::builder().max_batch_size(1),
            Arc::clone(&backend),
        );
        let lut = dummy_lut();
        let t0 = d.submit(dummy_ct(0), Arc::clone(&lut), None).unwrap();
        started.recv().unwrap();
        // Deadline already in the past by the time the batcher gets to it.
        let past = Instant::now() - Duration::from_millis(5);
        let t1 = d.submit(dummy_ct(1), Arc::clone(&lut), Some(past)).unwrap();
        // A generous deadline sails through.
        let future = Instant::now() + Duration::from_secs(60);
        let t2 = d
            .submit(dummy_ct(2), Arc::clone(&lut), Some(future))
            .unwrap();
        gate.send(()).unwrap();
        started.recv().unwrap();
        gate.send(()).unwrap();
        assert!(t0.wait().is_ok());
        assert_eq!(t1.wait().unwrap_err(), TfheError::DeadlineExceeded);
        assert!(t2.wait().is_ok());
        assert_eq!(d.stats().expired, 1);
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let (backend, started, gate) = echo(true);
        let mut d = dispatcher(
            ServingConfig::builder()
                .max_batch_size(2)
                .max_linger(Duration::from_secs(5)),
            Arc::clone(&backend),
        );
        let lut = dummy_lut();
        let tickets: Vec<Ticket> = (0..5)
            .map(|i| d.submit(dummy_ct(i), Arc::clone(&lut), None).unwrap())
            .collect();
        started.recv().unwrap();
        // Release the gate for every remaining batch, then shut down: the
        // queue must drain, not drop.
        for _ in 0..4 {
            let _ = gate.send(());
        }
        d.shutdown();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait().unwrap(), dummy_ct(i as u64), "i={i}");
        }
        assert_eq!(d.stats().completed, 5);
        assert_eq!(
            d.submit(dummy_ct(9), lut, None).unwrap_err(),
            TfheError::DispatcherShutDown
        );
    }

    #[test]
    fn spans_cover_every_completed_request() {
        let (backend, _started, _gate) = echo(false);
        let d = dispatcher(
            ServingConfig::builder()
                .max_batch_size(4)
                .max_linger(Duration::from_millis(1)),
            backend,
        );
        let lut = dummy_lut();
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| d.submit(dummy_ct(i), Arc::clone(&lut), None).unwrap())
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let spans = d.spans();
        assert_eq!(spans.len(), 6);
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..6).collect::<Vec<u64>>());
        for s in &spans {
            assert!(s.exec_start >= s.enqueued, "{s:?}");
        }
        let stats = d.stats();
        assert!(stats.p50_latency <= stats.p95_latency);
        assert!(stats.p95_latency <= stats.p99_latency);
        assert!(stats.throughput_bs > 0.0);
    }

    #[test]
    fn span_journal_is_bounded_and_counts_what_it_drops() {
        use crate::journal::JOURNAL_CAPACITY;
        let (backend, _started, _gate) = echo(false);
        let d = dispatcher(
            ServingConfig::builder()
                .max_batch_size(64)
                .queue_capacity(4096)
                .max_linger(Duration::from_micros(50)),
            backend,
        );
        let lut = dummy_lut();
        let ops = 100_000u64;
        for wave in 0..ops / 1000 {
            let tickets: Vec<Ticket> = (0..1000)
                .map(|i| {
                    d.submit(dummy_ct(wave * 1000 + i), Arc::clone(&lut), None)
                        .unwrap()
                })
                .collect();
            for t in tickets {
                t.wait().unwrap();
            }
        }
        let (spans, stats) = (d.spans(), d.stats());
        assert_eq!(stats.completed, ops);
        assert_eq!(spans.len(), JOURNAL_CAPACITY);
        assert_eq!(spans.len() as u64 + d.journal().dropped(), stats.completed);
        // The newest requests are the ones kept, oldest first.
        assert_eq!(spans.last().map(|s| s.id), Some(ops - 1));
        assert!(spans.windows(2).all(|w| w[0].exec_start <= w[1].exec_start));
    }

    #[test]
    fn a_fanout_item_coalesces_with_singles() {
        let (backend, started, gate) = echo(true);
        let d = dispatcher(
            ServingConfig::builder()
                .max_batch_size(4)
                .max_linger(Duration::from_millis(50)),
            Arc::clone(&backend),
        );
        let lut = dummy_lut();
        let two = vec![(*lut).clone(); 2];
        let item = BatchRequest::fanned_out(vec![dummy_ct(1)], two, vec![vec![0, 1]]).unwrap();
        // Wedge the batcher on a lone single, then queue one two-LUT item
        // and one single: they must form ONE mixed batch.
        let t0 = d.submit(dummy_ct(0), Arc::clone(&lut), None).unwrap();
        started.recv().unwrap();
        std::thread::scope(|s| {
            let many = s.spawn(|| d.try_bootstrap_batch(&item));
            while d.stats().submitted < 2 {
                std::thread::yield_now();
            }
            let t2 = d.submit(dummy_ct(2), lut, None).unwrap();
            gate.send(()).unwrap();
            started.recv().unwrap();
            gate.send(()).unwrap();
            assert_eq!(t0.wait().unwrap(), dummy_ct(0));
            let outs = many.join().unwrap().unwrap();
            assert_eq!(outs, vec![dummy_ct(1), dummy_ct(1)]);
            assert_eq!(t2.wait().unwrap(), dummy_ct(2));
        });
        // Two batches of (1 request) and (2 requests) — the two-LUT item
        // takes one queue slot and counts once toward batch size.
        assert_eq!(lock(&backend.sizes).clone(), vec![1, 2]);
        assert_eq!(d.stats().completed, 3);
    }

    #[test]
    fn fanout_batch_requests_round_trip_through_the_dispatcher() {
        let mut rng = StdRng::seed_from_u64(782);
        let params = ParamSet::Test.params();
        let ck = ClientKey::generate(params.clone(), &mut rng);
        let sk = Arc::new(ServerKey::new(&ck, &mut rng));
        let luts = vec![
            Lut::identity(params.poly_size, 4),
            Lut::from_fn(params.poly_size, 4, |m| (m + 2) % 4),
        ];
        let cts: Vec<_> = (0..3).map(|m| ck.encrypt(m % 4, &mut rng)).collect();
        let req = BatchRequest::fanned_out(cts, luts, vec![vec![0, 1]; 3]).unwrap();
        let want = sk.try_bootstrap_batch(&req).unwrap();
        let d = Dispatcher::new(Arc::clone(&sk));
        assert_eq!(d.try_bootstrap_batch(&req).unwrap(), want);
    }

    #[test]
    fn real_backend_matches_direct_server_key_path() {
        let mut rng = StdRng::seed_from_u64(777);
        let params = ParamSet::Test.params();
        let ck = ClientKey::generate(params.clone(), &mut rng);
        let sk = Arc::new(ServerKey::new(&ck, &mut rng));
        let lut = Lut::from_fn(params.poly_size, 4, |m| (m + 3) % 4);
        let cts: Vec<_> = (0..6).map(|m| ck.encrypt(m % 4, &mut rng)).collect();
        let want = sk
            .try_bootstrap_batch(&BatchRequest::shared(cts.clone(), lut.clone()))
            .unwrap();

        let d = dispatcher(
            ServingConfig::builder()
                .max_batch_size(4)
                .max_linger(Duration::from_millis(5)),
            Arc::clone(&sk),
        );
        let alut = Arc::new(lut);
        let tickets: Vec<Ticket> = cts
            .iter()
            .map(|ct| d.submit(ct.clone(), Arc::clone(&alut), None).unwrap())
            .collect();
        for (i, (t, w)) in tickets.into_iter().zip(&want).enumerate() {
            assert_eq!(&t.wait().unwrap(), w, "i={i}");
        }
    }

    #[test]
    fn dispatcher_is_a_bootstrapper() {
        let mut rng = StdRng::seed_from_u64(778);
        let params = ParamSet::Test.params();
        let ck = ClientKey::generate(params.clone(), &mut rng);
        let sk = Arc::new(ServerKey::new(&ck, &mut rng));
        let plus1 = Lut::from_fn(params.poly_size, 4, |m| (m + 1) % 4);
        let double = Lut::from_fn(params.poly_size, 4, |m| (2 * m) % 4);
        let cts: Vec<_> = (0..4).map(|m| ck.encrypt(m % 4, &mut rng)).collect();
        let lists = vec![vec![0], vec![1], vec![0], vec![1]];
        let req = BatchRequest::fanned_out(cts, vec![plus1, double], lists).unwrap();
        let want = sk.try_bootstrap_batch(&req).unwrap();
        let d = Dispatcher::new(Arc::clone(&sk));
        assert_eq!(d.try_bootstrap_batch(&req).unwrap(), want);
    }

    #[test]
    fn malformed_request_cannot_poison_batch_mates() {
        let mut rng = StdRng::seed_from_u64(779);
        let params = ParamSet::Test.params();
        let ck = ClientKey::generate(params.clone(), &mut rng);
        let sk = Arc::new(ServerKey::new(&ck, &mut rng));
        let lut = Arc::new(Lut::identity(params.poly_size, 4));
        let d = dispatcher(
            ServingConfig::builder()
                .max_batch_size(4)
                .max_linger(Duration::from_millis(100)),
            Arc::clone(&sk),
        );
        // One good request and one with the wrong LWE dimension, lingering
        // into the same micro-batch.
        let good = d
            .submit(ck.encrypt(1, &mut rng), Arc::clone(&lut), None)
            .unwrap();
        let bad = d.submit(dummy_ct(0), Arc::clone(&lut), None).unwrap();
        assert_eq!(ck.decrypt(&good.wait().unwrap()), 1);
        assert!(matches!(
            bad.wait().unwrap_err(),
            TfheError::LweDimensionMismatch { .. }
        ));
        let stats = d.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn wait_timeout_leaves_the_request_in_flight() {
        let (backend, started, gate) = echo(true);
        let d = dispatcher(
            ServingConfig::builder().max_batch_size(1),
            Arc::clone(&backend),
        );
        let t = d.submit(dummy_ct(0), dummy_lut(), None).unwrap();
        started.recv().unwrap(); // backend wedged on the gate
        let err = t.wait_timeout(Duration::from_millis(10)).unwrap_err();
        assert_eq!(
            err,
            TfheError::WaitTimedOut {
                timeout: Duration::from_millis(10)
            }
        );
        assert!(err.is_retryable(), "a bounded wait elapsing is transient");
        // The request is still in flight: release the backend and the
        // same ticket delivers the result.
        gate.send(()).unwrap();
        assert_eq!(t.wait_timeout(Duration::from_secs(5)).unwrap(), dummy_ct(0));
    }

    /// Retry up to three times, 60 ms, then 120 ms, then 150 ms apart.
    fn slow_retry() -> RetryConfig {
        RetryConfig {
            base_backoff: Duration::from_millis(60),
            max_backoff: Duration::from_millis(150),
            jitter: 0.0,
            seed: 0,
            ..RetryConfig::new(3)
        }
    }

    #[test]
    fn a_request_backing_off_does_not_hold_up_another_tenant() {
        let (backend, started, _gate) = echo_failing(false, 1);
        let d = dispatcher(
            ServingConfig::builder()
                .max_linger(Duration::ZERO)
                .retry(slow_retry()),
            Arc::clone(&backend),
        );
        let lut = dummy_lut();
        let sick = d
            .submit_for(TenantId::new(1), dummy_ct(1), Arc::clone(&lut), None)
            .unwrap();
        started.recv().unwrap(); // the call that fails
        let submitted = Instant::now();
        let healthy = d
            .submit_for(TenantId::new(2), dummy_ct(2), lut, None)
            .unwrap();
        assert_eq!(healthy.wait().unwrap(), dummy_ct(2));
        // Served inside the other request's backoff, which is still running.
        assert!(submitted.elapsed() < Duration::from_millis(60));
        assert!(sick.try_wait().is_none());
        assert_eq!(sick.wait().unwrap(), dummy_ct(1));
        let served_for = lock(&backend.tenants).clone();
        assert_eq!(served_for, vec![Some(1), Some(2), Some(1)]);
    }

    #[test]
    fn a_retry_ends_with_its_deadline_or_its_cancellation() {
        let (backend, started, _gate) = echo_failing(false, 4);
        let d = dispatcher(
            ServingConfig::builder()
                .max_batch_size(1)
                .max_linger(Duration::ZERO)
                .retry(slow_retry()),
            Arc::clone(&backend),
        );
        // A deadline that the first backoff outlasts: one call, no retry.
        let deadline = Instant::now() + Duration::from_millis(30);
        let late = d.submit(dummy_ct(0), dummy_lut(), Some(deadline)).unwrap();
        assert_eq!(late.wait().unwrap_err(), TfheError::DeadlineExceeded);
        assert_eq!(lock(&backend.sizes).len(), 1);
        // Cancelled once its first call is under way: not run again.
        let gone = d.submit(dummy_ct(1), dummy_lut(), None).unwrap();
        started.recv().unwrap();
        started.recv().unwrap();
        gone.cancel();
        assert_eq!(gone.wait().unwrap_err(), TfheError::Cancelled);
        assert_eq!(lock(&backend.sizes).len(), 2);
        let stats = d.stats();
        assert_eq!((stats.expired, stats.cancelled, stats.retries), (1, 1, 1));
    }

    #[test]
    fn a_transient_fault_reruns_the_batch_as_a_batch() {
        let once = RetryConfig {
            base_backoff: Duration::ZERO,
            ..RetryConfig::new(1)
        };
        for (retry, calls) in [(once, vec![16, 16]), (RetryConfig::none(), vec![16])] {
            let (backend, _started, _gate) = echo_failing(false, 1);
            let d = dispatcher(
                ServingConfig::builder()
                    .max_batch_size(16)
                    .max_linger(Duration::from_secs(5))
                    .retry(retry),
                Arc::clone(&backend),
            );
            let lut = dummy_lut();
            let tickets: Vec<Ticket> = (0..16)
                .map(|i| d.submit(dummy_ct(i), Arc::clone(&lut), None).unwrap())
                .collect();
            let answers: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
            assert_eq!(lock(&backend.sizes).clone(), calls);
            let stats = d.stats();
            let mut events = d.journal().events();
            events.retain(|e| e.who != Who::Dispatcher);
            if retry.max_retries == 1 {
                // Nobody's fault: all sixteen go round again, together.
                let echoed: Vec<_> = (0..16).map(|i| Ok(dummy_ct(i))).collect();
                assert_eq!(answers, echoed);
                assert_eq!((stats.completed, stats.retries), (16, 16));
                assert_eq!((stats.batches, stats.batched), (2, 32));
                assert_eq!(events.len(), 16);
                assert!(
                    events
                        .iter()
                        .all(|e| e.kind.label() == "retry"
                            && e.who == Who::Scope("dispatcher".into()))
                );
            } else {
                // Without a budget each sees the fault, as a batch of one does.
                let fault = Err(TfheError::WorkerPanicked { worker: 0 });
                assert_eq!(answers, vec![fault; 16]);
                assert_eq!((stats.failed, stats.retries), (16, 0));
                assert!(events.is_empty());
            }
        }
    }

    #[test]
    fn tenant_affinity_forms_single_tenant_batches() {
        let (backend, started, gate) = echo(true);
        let d = dispatcher(
            ServingConfig::builder()
                .max_batch_size(8)
                .max_linger(Duration::from_millis(50)),
            Arc::clone(&backend),
        );
        let lut = dummy_lut();
        let t_a = TenantId::new(1);
        let t_b = TenantId::new(2);
        // Wedge the batcher on a lone tenant-A request...
        let first = d
            .submit_for(t_a, dummy_ct(0), Arc::clone(&lut), None)
            .unwrap();
        started.recv().unwrap();
        // ...then interleave tenants behind it: A B A B A.
        let rest: Vec<Ticket> = [t_a, t_b, t_a, t_b, t_a]
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                d.submit_for(t, dummy_ct(i as u64 + 1), Arc::clone(&lut), None)
                    .unwrap()
            })
            .collect();
        gate.send(()).unwrap(); // flush batch 2: all queued A's
        started.recv().unwrap();
        gate.send(()).unwrap(); // flush batch 3: the B's
        started.recv().unwrap();
        gate.send(()).unwrap();
        first.wait().unwrap();
        for t in rest {
            t.wait().unwrap();
        }
        // Key affinity regrouped the interleaved queue: [A], [A A A], [B B]
        // — never a mixed batch, and B's relative order preserved.
        assert_eq!(lock(&backend.sizes).clone(), vec![1, 3, 2]);
        assert_eq!(
            lock(&backend.tenants).clone(),
            vec![Some(1), Some(1), Some(2)]
        );
        let stats = d.stats();
        assert_eq!(stats.per_tenant.len(), 2);
        assert_eq!(stats.per_tenant[0].tenant, 1);
        assert_eq!(stats.per_tenant[0].completed, 4);
        assert_eq!(stats.per_tenant[1].tenant, 2);
        assert_eq!(stats.per_tenant[1].completed, 2);
        for t in &stats.per_tenant {
            assert!(t.p50_latency <= t.p99_latency);
            assert!(t.p99_latency > Duration::ZERO);
        }
    }

    #[test]
    fn tenantless_and_tenant_traffic_never_share_a_batch() {
        let (backend, started, gate) = echo(true);
        let d = dispatcher(
            ServingConfig::builder()
                .max_batch_size(8)
                .max_linger(Duration::from_millis(50)),
            Arc::clone(&backend),
        );
        let lut = dummy_lut();
        let first = d.submit(dummy_ct(0), Arc::clone(&lut), None).unwrap();
        started.recv().unwrap();
        let anon = d.submit(dummy_ct(1), Arc::clone(&lut), None).unwrap();
        let tenanted = d
            .submit_for(TenantId::new(5), dummy_ct(2), Arc::clone(&lut), None)
            .unwrap();
        gate.send(()).unwrap();
        started.recv().unwrap();
        gate.send(()).unwrap();
        started.recv().unwrap();
        gate.send(()).unwrap();
        first.wait().unwrap();
        anon.wait().unwrap();
        tenanted.wait().unwrap();
        // `None` is its own affinity class: [anon], [anon], [tenant 5].
        assert_eq!(lock(&backend.sizes).clone(), vec![1, 1, 1]);
        assert_eq!(lock(&backend.tenants).clone(), vec![None, None, Some(5)]);
        // Tenantless traffic contributes to global stats only.
        let stats = d.stats();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.per_tenant.len(), 1);
        assert_eq!(stats.per_tenant[0].tenant, 5);
    }

    #[test]
    fn keystore_backed_dispatcher_serves_warm_keys_from_the_cache() {
        use crate::keystore::{KeyStoreBootstrapper, MemoryBackend};

        let mut rng = StdRng::seed_from_u64(0xD15);
        let params = ParamSet::Test.params();
        let backend = Arc::new(MemoryBackend::new());
        let mut clients = Vec::new();
        for t in 0..2u64 {
            let ck = ClientKey::generate(params.clone(), &mut rng);
            let sk = ServerKey::new(&ck, &mut rng);
            backend.insert_server_key(TenantId::new(t), &sk);
            clients.push(ck);
        }
        let budget = 4 * (params.bsk_total_bytes_fourier() + params.ksk_total_bytes());
        let store = Arc::new(KeyStore::new(backend, budget));
        let d = DispatcherBuilder::from_config(
            &ServingConfig::builder()
                .max_batch_size(4)
                .max_linger(Duration::from_millis(1))
                .build()
                .unwrap(),
        )
        .unwrap()
        .key_store(Arc::clone(&store))
        .build(KeyStoreBootstrapper::new(Arc::clone(&store)));
        let lut = Arc::new(Lut::from_fn(params.poly_size, 4, |m| (m + 1) % 4));
        let mut tickets = Vec::new();
        for round in 0..3u64 {
            for (t, ck) in clients.iter().enumerate() {
                let ct = ck.encrypt((round + t as u64) % 4, &mut rng);
                tickets.push((
                    t,
                    (round + t as u64 + 1) % 4,
                    d.submit_for(TenantId::new(t as u64), ct, Arc::clone(&lut), None)
                        .unwrap(),
                ));
            }
        }
        for (t, want, ticket) in tickets {
            let out = ticket.wait().unwrap();
            assert_eq!(clients[t].decrypt(&out), want, "tenant {t}");
        }
        // Second wave against warm keys: both tenants are resident now,
        // so these batches must hit the cache, not reload.
        for (t, ck) in clients.iter().enumerate() {
            let ct = ck.encrypt(0, &mut rng);
            let out = d
                .submit_for(TenantId::new(t as u64), ct, Arc::clone(&lut), None)
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(ck.decrypt(&out), 1, "warm tenant {t}");
        }
        assert_eq!(d.stats().completed, 8);
        // One cold miss per tenant, hits after that, nothing evicted.
        let ks = store.stats();
        assert_eq!(ks.misses, 2);
        assert_eq!(ks.evictions, 0);
        assert!(ks.hits >= 1, "warm batches must hit the cache");
        assert!(ks.bytes_resident > 0);
        // All pins were released once the batches finished.
        let events = store.journal().events();
        let pins = events.iter().filter(|e| e.kind.label() == "pin").count();
        let unpins = events.iter().filter(|e| e.kind.label() == "unpin").count();
        assert_eq!(pins, unpins);
    }

    /// Holds its first load until the test opens the gate.
    struct GatedKeys {
        inner: Arc<crate::keystore::MemoryBackend>,
        entered: Sender<()>,
        gate: Receiver<()>,
        opened: AtomicBool,
    }

    impl crate::keystore::KeyBackend for GatedKeys {
        fn load(&self, tenant: TenantId) -> Result<Vec<u8>, TfheError> {
            if !self.opened.swap(true, Ordering::SeqCst) {
                self.entered.send(()).unwrap();
                self.gate.recv().unwrap();
            }
            self.inner.load(tenant)
        }
    }

    /// Room for two of tenants 1–3's keys, batches of one. Tenant 1's load
    /// holds the batcher while 2, 3 and 1 again queue behind it; tenant 3's
    /// load must then evict 1 (least recently used) or 2 (not queued).
    /// Returns the first evicted tenant and the key hits.
    fn first_eviction(wired: bool) -> (Who, u64) {
        use crate::keystore::{KeyStoreBootstrapper, MemoryBackend};

        let mut rng = StdRng::seed_from_u64(0xD16);
        let params = ParamSet::Test.params();
        let inner = Arc::new(MemoryBackend::new());
        let clients: Vec<ClientKey> = (1..=3)
            .map(|t| {
                let ck = ClientKey::generate(params.clone(), &mut rng);
                inner.insert_server_key(TenantId::new(t), &ServerKey::new(&ck, &mut rng));
                ck
            })
            .collect();
        let (entered, entered_rx) = channel::unbounded();
        let (gate_tx, gate) = channel::unbounded();
        let keys = GatedKeys {
            inner,
            entered,
            gate,
            opened: AtomicBool::new(false),
        };
        let budget = 2 * (params.bsk_total_bytes_fourier() + params.ksk_total_bytes());
        let store = Arc::new(KeyStore::new(Arc::new(keys), budget));
        let config = ServingConfig::builder().max_batch_size(1).build().unwrap();
        let mut builder = DispatcherBuilder::from_config(&config).unwrap();
        if wired {
            builder = builder.key_store(Arc::clone(&store));
        }
        let d = builder.build(KeyStoreBootstrapper::new(Arc::clone(&store)));
        let lut = Arc::new(Lut::from_fn(params.poly_size, 4, |m| (m + 1) % 4));
        let mut submit = |t: u64| {
            let ck = &clients[t as usize - 1];
            let ct = ck.encrypt(t, &mut rng);
            (
                t,
                d.submit_for(TenantId::new(t), ct, Arc::clone(&lut), None)
                    .unwrap(),
            )
        };
        let mut tickets = vec![submit(1)];
        entered_rx.recv().unwrap();
        tickets.extend([2, 3, 1].map(&mut submit));
        gate_tx.send(()).unwrap();
        for (t, ticket) in tickets {
            let out = ticket.wait().unwrap();
            assert_eq!(
                clients[t as usize - 1].decrypt(&out),
                (t + 1) % 4,
                "tenant {t}"
            );
        }
        let events = store.journal().events();
        let mut evicts = events.iter().filter(|e| e.kind.label() == "evict");
        (evicts.next().unwrap().who.clone(), store.stats().hits)
    }

    /// Counts the loads it serves.
    #[derive(Default)]
    struct CountedKeys {
        inner: crate::keystore::MemoryBackend,
        loads: std::sync::atomic::AtomicU64,
    }

    impl crate::keystore::KeyBackend for CountedKeys {
        fn load(&self, tenant: TenantId) -> Result<Vec<u8>, TfheError> {
            self.loads.fetch_add(1, Ordering::SeqCst);
            self.inner.load(tenant)
        }
    }

    #[test]
    fn two_batchers_take_turns_at_a_one_key_store() {
        use crate::keystore::KeyStoreBootstrapper;

        let mut rng = StdRng::seed_from_u64(0xD17);
        let params = ParamSet::Test.params();
        let backend = Arc::new(CountedKeys::default());
        let clients: Vec<ClientKey> = (0..2)
            .map(|t| {
                let ck = ClientKey::generate(params.clone(), &mut rng);
                let sk = ServerKey::new(&ck, &mut rng);
                backend.inner.insert_server_key(TenantId::new(t), &sk);
                ck
            })
            .collect();
        let budget = params.bsk_total_bytes_fourier() + params.ksk_total_bytes();
        let store = Arc::new(KeyStore::new(backend.clone(), budget));
        let config = ServingConfig::builder()
            .workers(2)
            .max_batch_size(4)
            .max_linger(Duration::ZERO)
            .build()
            .unwrap();
        let keys = KeyStoreBootstrapper::new(Arc::clone(&store));
        let d = DispatcherBuilder::from_config(&config)
            .unwrap()
            .key_store(Arc::clone(&store))
            .build(keys.clone());
        // Each tenant's batch pins the one key that fits, so while one
        // runs the other's load finds no room: it waits its turn.
        let lut = Arc::new(Lut::from_fn(params.poly_size, 4, |m| (m + 1) % 4));
        let mut tickets = Vec::new();
        for round in 0..6u64 {
            for (t, ck) in clients.iter().enumerate() {
                let m = (round + t as u64) % 4;
                let ct = ck.encrypt(m, &mut rng);
                let ticket = d.submit_for(TenantId::new(t as u64), ct, Arc::clone(&lut), None);
                tickets.push((t, (m + 1) % 4, ticket.unwrap()));
            }
        }
        for (t, want, ticket) in tickets {
            let out = ticket.wait_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(clients[t].decrypt(&out), want, "tenant {t}");
        }
        assert_eq!(d.stats().completed, 12);
        // A pin nobody will drop while no other call runs: the refusal
        // stands at once, as with one batcher.
        let held = store.get(TenantId::new(0)).unwrap();
        let ct = clients[1].encrypt(0, &mut rng);
        let req = BatchRequest::shared(vec![ct], (*lut).clone()).with_tenant(TenantId::new(1));
        assert_eq!(
            keys.try_bootstrap_batch(&req).unwrap_err(),
            TfheError::KeyBudgetExceeded {
                budget,
                need: budget
            }
        );
        drop(held);
        let out = keys.try_bootstrap_batch(&req).unwrap();
        assert_eq!(clients[1].decrypt(&out[0]), 1);
        // Every load the backend served made its key resident: a refused
        // one was kept for its retry, not read again.
        let loads = backend.loads.load(Ordering::SeqCst);
        assert_eq!(loads, store.stats().loads);
    }

    #[test]
    fn a_wired_store_evicts_the_tenant_the_queue_does_not_name() {
        // Tenant 2 has no queued request when tenant 3 loads: it goes,
        // though tenant 1 is older, and tenant 1's queued request hits.
        assert_eq!(first_eviction(true), (Who::Tenant(2), 1));
        // Without `key_store` the store never hears the queue: plain LRU
        // evicts tenant 1, whose request then loads it again.
        assert_eq!(first_eviction(false), (Who::Tenant(1), 0));
    }

    #[test]
    fn from_config_honors_every_knob() {
        let cfg = ServingConfig::builder()
            .workers(3)
            .max_batch_size(7)
            .max_linger(Duration::from_millis(9))
            .queue_capacity(11)
            .deadline_slack(Duration::from_micros(250))
            .build()
            .unwrap();
        let (backend, _started, _gate) = echo(false);
        let d = Dispatcher::from_config(&cfg, Arc::clone(&backend)).unwrap();
        assert_eq!(d.config(), &cfg);
        // And it actually serves traffic.
        let t = d.submit(dummy_ct(1), dummy_lut(), None).unwrap();
        assert_eq!(t.wait().unwrap(), dummy_ct(1));
    }

    #[test]
    fn from_config_rejects_degenerate_knobs() {
        let cfg = ServingConfig {
            max_batch_size: 0,
            ..Default::default()
        };
        let (backend, _started, _gate) = echo(false);
        let err = Dispatcher::from_config(&cfg, backend).unwrap_err();
        assert!(
            matches!(
                err,
                TfheError::InvalidServingConfig {
                    field: "max_batch_size",
                    ..
                }
            ),
            "got {err:?}"
        );
    }
}
