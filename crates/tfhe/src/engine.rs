//! A persistent, self-healing bootstrap engine: the software analogue of
//! Morphling's always-resident bootstrapping cores, hardened for
//! production serving.
//!
//! Spawning a fresh set of OS threads for every call is fine for one large
//! batch and wasteful for the steady stream of medium batches that
//! inference workloads produce. [`BootstrapEngine`] spawns its worker pool
//! **once** and feeds it through a channel:
//!
//! - workers hold an `Arc<ServerKey>` and stay warm for the engine's
//!   lifetime, sharing the process-global transform caches (one FFT per
//!   polynomial size for the whole pool, the way Morphling banks one set
//!   of twiddles for all 16 cores);
//! - a batch is split into one contiguous chunk per worker, each chunk is
//!   bootstrapped as a whole into a chunk-owned output vector (every key
//!   operand — `BSK_i`, each KSK row — is fetched once per chunk, so the
//!   longest chunks the batch allows give the most reuse), and the chunks
//!   are reassembled in index order — no per-slot locks anywhere on the
//!   result path;
//! - every job is timed, and the engine exposes the totals as
//!   [`EngineStats`] so benches and the CPU cost model can calibrate from
//!   real measurements.
//!
//! # Fault tolerance
//!
//! A serving pool must outlive its faults. The engine's recovery
//! machinery (all policies configurable on the builder):
//!
//! - **Panic isolation + respawn** — every job runs under
//!   `catch_unwind`; a panicking worker reports the failed chunk as
//!   [`TfheError::WorkerPanicked`] (so the submitter retries it
//!   elsewhere) and respawns its receive loop in place, bounded by a
//!   per-worker [respawn budget](BootstrapEngineBuilder::respawn_budget).
//!   A worker that exhausts the budget retires; the pool keeps serving on
//!   the remaining workers (degraded mode).
//! - **Watchdog** — with a [`job_timeout`](BootstrapEngineBuilder::job_timeout)
//!   configured, a chunk that produces no reply in time is presumed
//!   wedged and re-dispatched to another worker; a late reply from the
//!   original worker is deduplicated (bootstrapping is deterministic, so
//!   either copy is bit-identical).
//! - **Bounded chunk re-dispatch** — a chunk that fails transiently
//!   (panic, timeout, failed output check) goes straight back to the pool,
//!   up to [`max_retries`](BootstrapEngineBuilder::max_retries) times.
//!   [`noise_adaptive_retries`](BootstrapEngineBuilder::noise_adaptive_retries)
//!   derives the budget from [`noise::failure_probability`](crate::noise).
//!   This recovers a *chunk inside one call*; retrying a *request*, with
//!   backoff and under its deadline, is the
//!   [`Dispatcher`](crate::dispatch::Dispatcher)'s.
//! - **Output sanity checks** — an optional
//!   [hook](BootstrapEngineBuilder::output_check) vets every output;
//!   failures are retried like any transient fault.
//! - **Degraded-mode serving** — [`EngineHealth`] (`Healthy` /
//!   `Degraded` / `Failed`), exposed via [`EngineStats`] and
//!   [`BootstrapEngine::health`] (also the engine's
//!   [`Bootstrapper::health`], which a failover tier's breaker reads),
//!   tells callers whether the pool is at full strength, serving on
//!   reduced capacity, or dead. Submissions fail fast with
//!   [`TfheError::EngineShutDown`] only at `Failed`.
//!
//! Every executed chunk and every fault and recovery action is an
//! [`Event`] in the engine's [`journal`](BootstrapEngine::journal);
//! `morphling_core::trace` renders it as a Chrome-trace file, so a chaos
//! run produces a readable timeline of what failed and how the engine
//! recovered.
//!
//! Deterministic fault *injection* for tests lives in [`crate::faults`];
//! a zero-rate [`FaultPlan`] (the default) makes every hook a no-op.
//!
//! The API is `Result`-based from day one: all submission paths validate
//! eagerly and return [`TfheError`] instead of panicking.
//!
//! ```
//! use std::sync::Arc;
//! use morphling_tfhe::{
//!     BatchRequest, BootstrapEngine, Bootstrapper, ClientKey, Lut, ParamSet, ServerKey,
//! };
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(9);
//! let params = ParamSet::Test.params();
//! let client = ClientKey::generate(params.clone(), &mut rng);
//! let server = Arc::new(ServerKey::builder().build(&client, &mut rng));
//!
//! let engine = BootstrapEngine::builder().workers(2).build(Arc::clone(&server)).unwrap();
//! let lut = Lut::identity(params.poly_size, 4);
//! let cts: Vec<_> = (0..4).map(|m| client.encrypt(m, &mut rng)).collect();
//! let out = engine.try_bootstrap_batch(&BatchRequest::shared(cts, lut)).unwrap();
//! for (m, ct) in out.iter().enumerate() {
//!     assert_eq!(client.decrypt(ct), m as u64);
//! }
//! assert_eq!(engine.stats().bootstraps, 4);
//! ```

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};

use crate::bootstrapper::{BatchRequest, Bootstrapper};
use crate::error::TfheError;
use crate::faults::{corrupt_ciphertext, fault_key, FaultInjector, FaultPlan, FaultSite};
use crate::journal::{self, Event, EventKind, Journal, Who};
use crate::lwe::LweCiphertext;
use crate::params::TfheParams;
use crate::policy::dur_ns;
use crate::server::ServerKey;
use crate::workspace::BootstrapWorkspace;

/// Liveness-check period for the submit loop when no watchdog timeout is
/// configured: often enough that a dead pool is detected promptly, rare
/// enough to cost nothing.
const LIVENESS_TICK: Duration = Duration::from_millis(100);

/// Split `n` items into `parts` contiguous ranges whose lengths differ by
/// at most one — the default chunk plan, which ordered reassembly relies
/// on being disjoint and ascending.
fn balanced_chunks(n: usize, parts: usize) -> impl Iterator<Item = Range<usize>> {
    let parts = parts.min(n).max(1);
    let base = n / parts;
    let extra = n % parts;
    let mut start = 0;
    (0..parts).map(move |t| {
        let len = base + usize::from(t < extra);
        let range = start..start + len;
        start += len;
        range
    })
}

/// The engine's serving state — the degraded-mode contract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineHealth {
    /// Every spawned worker is alive; full throughput.
    #[default]
    Healthy,
    /// At least one worker retired (respawn budget exhausted) but the
    /// pool still serves on the survivors at reduced throughput.
    Degraded,
    /// No live workers (every worker retired, or the engine shut down);
    /// submissions fail fast with [`TfheError::EngineShutDown`].
    Failed,
}

/// Running totals across everything an engine has executed.
///
/// `busy` sums the wall time each worker spent inside jobs, so
/// `bootstraps / busy` is the **per-core** bootstrap rate — exactly the
/// `single_core_bs_s` input of the CPU cost model — while
/// `bootstraps / (busy / workers)` estimates pool throughput. The fault
/// counters summarize the engine's recovery history; `health` is the
/// degraded-mode state at the instant of the snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Number of worker threads in the pool (as spawned).
    pub workers: usize,
    /// Batches submitted.
    pub batches: u64,
    /// Bootstrap operations completed — one per input ciphertext. A
    /// fanout input counts once no matter how many LUTs it fans out to:
    /// this is the *blind rotation* denominator of the cost model.
    pub bootstraps: u64,
    /// Sample extractions performed — one per produced output. Exceeds
    /// `bootstraps` exactly when fanout batches amortize one rotation
    /// across several LUTs; the `extractions / bootstraps` ratio is the
    /// realized multi-value reuse factor.
    pub extractions: u64,
    /// Total worker time spent executing jobs (summed across workers).
    pub busy: Duration,
    /// Serving state at snapshot time.
    pub health: EngineHealth,
    /// Worker panics caught by the isolation boundary.
    pub panics: u64,
    /// In-place worker respawns after a caught panic.
    pub respawns: u64,
    /// Chunk re-dispatches (after panics, timeouts, or failed checks).
    pub retries: u64,
    /// Chunks the watchdog declared wedged.
    pub watchdog_timeouts: u64,
    /// Outputs rejected by the sanity-check hook.
    pub check_failures: u64,
}

impl EngineStats {
    /// Mean wall time of one bootstrap on one core, if any completed.
    pub fn mean_bootstrap_time(&self) -> Option<Duration> {
        // The count is u64: dividing through f64 avoids the truncating
        // `as u32` cast, which would silently shrink the divisor (and
        // inflate the mean) on any long-lived engine past 2³² bootstraps.
        (self.bootstraps > 0).then(|| self.busy.div_f64(self.bootstraps as f64))
    }

    /// Single-core bootstrap rate (bootstraps per busy-second).
    pub fn bootstraps_per_core_sec(&self) -> f64 {
        let busy_s = self.busy.as_secs_f64();
        if busy_s > 0.0 {
            self.bootstraps as f64 / busy_s
        } else {
            0.0
        }
    }
}

#[derive(Default)]
struct Counters {
    batches: AtomicU64,
    bootstraps: AtomicU64,
    extractions: AtomicU64,
    busy_nanos: AtomicU64,
    panics: AtomicU64,
    respawns: AtomicU64,
    retries: AtomicU64,
    watchdog_timeouts: AtomicU64,
    check_failures: AtomicU64,
    /// Workers still inside their receive loop; 0 means the pool is dead
    /// (every worker retired or the engine shut down) and submissions
    /// must fail fast.
    alive: AtomicUsize,
    /// One [`EventKind::Job`] span per executed chunk (coarse-grained, so
    /// the lock is uncontended relative to the bootstrap work itself) and
    /// one instant per fault or recovery action.
    journal: Journal,
}

/// Decrements the alive-worker count when a worker thread exits — via
/// `Drop` so even an unexpected unwind past the respawn loop is counted
/// out.
struct AliveGuard(Arc<Counters>);

impl Drop for AliveGuard {
    fn drop(&mut self) {
        self.0.alive.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One contiguous chunk of a batch, self-contained: workers never borrow
/// from the submitting call's stack (the crate forbids `unsafe`, so no
/// lifetime laundering), they share the inputs via `Arc` and send owned
/// results back.
struct Job {
    /// Engine-wide batch sequence number (fault-injection key component).
    batch: u64,
    /// Dispatch attempt (0 = first; retries re-roll injected faults).
    attempt: u32,
    req: Arc<BatchRequest>,
    range: Range<usize>,
    reply: Sender<Chunk>,
}

struct Chunk {
    start: usize,
    result: Result<Vec<LweCiphertext>, TfheError>,
}

/// State shared by every worker thread.
struct WorkerShared {
    server: Arc<ServerKey>,
    counters: Arc<Counters>,
    injector: FaultInjector,
}

/// Execute one job's bootstraps, with fault-injection hooks. Runs under
/// `catch_unwind`: an (injected or organic) panic unwinds out of here and
/// is handled by the caller. `ws` is the worker's long-lived
/// [`BootstrapWorkspace`], so a warm worker's blind rotations are
/// allocation-free.
///
/// Faults stay keyed per ciphertext: each one's `WorkerPanic` and
/// `WedgedJob` sites fire, in ciphertext order, before the chunk's work
/// starts, and its `CorruptOutput` site marks that ciphertext's outputs.
/// The chunk then goes through [`ServerKey::try_bootstrap_chunk`] as a
/// whole, whatever its items' LUT lists look like.
fn run_job(
    shared: &WorkerShared,
    job: &Job,
    ws: &mut BootstrapWorkspace,
) -> Result<Vec<LweCiphertext>, TfheError> {
    let injector = &shared.injector;
    let mut corrupt = Vec::with_capacity(job.range.len());
    for i in job.range.clone() {
        let key = fault_key(job.batch, i);
        if injector.fires(FaultSite::WorkerPanic, key, job.attempt) {
            panic!(
                "injected fault: worker panic (batch {} ct {i} attempt {})",
                job.batch, job.attempt
            );
        }
        if injector.fires(FaultSite::WedgedJob, key, job.attempt) {
            std::thread::sleep(injector.plan().wedge);
        }
        corrupt.push(injector.fires(FaultSite::CorruptOutput, key, job.attempt));
    }
    let items = job.req.items(job.range.clone());
    let mut outs = shared.server.try_bootstrap_chunk(&items, ws)?;
    let mut rest = outs.as_mut_slice();
    for ((_, luts), corrupt) in items.iter().zip(corrupt) {
        let (of_item, tail) = rest.split_at_mut(luts.len());
        rest = tail;
        if corrupt {
            for out in of_item {
                *out = corrupt_ciphertext(out);
            }
        }
    }
    Ok(outs)
}

enum WorkerExit {
    /// The job channel closed: the engine is shutting down.
    ChannelClosed,
    /// A job panicked; the worker's state is suspect and the loop
    /// returned for a (budget-gated) respawn.
    Panicked,
}

fn worker_loop(
    worker: usize,
    shared: &WorkerShared,
    rx: &Receiver<Job>,
    ws: &mut BootstrapWorkspace,
) -> WorkerExit {
    while let Ok(job) = rx.recv() {
        let at_ns = journal::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| run_job(shared, &job, ws)));
        let dur_ns = journal::now().saturating_sub(at_ns);
        let counters = &shared.counters;
        counters.busy_nanos.fetch_add(dur_ns, Ordering::Relaxed);
        match outcome {
            Ok(result) => {
                // `bootstraps` counts input ciphertexts (blind rotations);
                // `extractions` counts outputs. They differ only on
                // fanout jobs, where one rotation feeds several LUTs.
                let rotations = result.as_ref().map_or(0, |_| job.range.len());
                let extracted = result.as_ref().map_or(0, Vec::len);
                counters
                    .bootstraps
                    .fetch_add(rotations as u64, Ordering::Relaxed);
                counters
                    .extractions
                    .fetch_add(extracted as u64, Ordering::Relaxed);
                counters.journal.record(Event {
                    at_ns,
                    dur_ns,
                    who: Who::Worker(worker),
                    kind: EventKind::Job {
                        bootstraps: rotations,
                        extractions: extracted,
                    },
                });
                // The submitter may have bailed early; a closed reply
                // channel is not the worker's problem.
                let _ = job.reply.send(Chunk {
                    start: job.range.start,
                    result,
                });
            }
            Err(_) => {
                counters.panics.fetch_add(1, Ordering::Relaxed);
                counters
                    .journal
                    .record(Event::instant(Who::Worker(worker), EventKind::WorkerPanic));
                // Report the chunk as failed so the submitter can retry
                // it immediately (no reply is ever lost to a panic), then
                // hand control to the respawn loop.
                let _ = job.reply.send(Chunk {
                    start: job.range.start,
                    result: Err(TfheError::WorkerPanicked { worker }),
                });
                return WorkerExit::Panicked;
            }
        }
    }
    WorkerExit::ChannelClosed
}

/// Worker thread body: run the receive loop, respawning it in place
/// after each caught panic until the respawn budget is spent. An
/// in-place respawn (a fresh loop over the same channel) has the same
/// recovery semantics as replacing the OS thread — the worker holds no
/// job-local state across iterations — at a fraction of the cost.
fn worker_thread(worker: usize, shared: WorkerShared, rx: Receiver<Job>, respawn_budget: u32) {
    let _alive = AliveGuard(Arc::clone(&shared.counters));
    let mut respawns_left = respawn_budget;
    // One workspace for the worker's whole lifetime: after the first job
    // warms it, every later bootstrap runs allocation-free.
    let mut ws = shared.server.workspace();
    loop {
        match worker_loop(worker, &shared, &rx, &mut ws) {
            WorkerExit::ChannelClosed => break,
            WorkerExit::Panicked => {
                if respawns_left == 0 {
                    shared.counters.journal.record(Event::instant(
                        Who::Worker(worker),
                        EventKind::RespawnExhausted,
                    ));
                    break;
                }
                respawns_left -= 1;
                shared.counters.respawns.fetch_add(1, Ordering::Relaxed);
                shared.counters.journal.record(Event::instant(
                    Who::Worker(worker),
                    EventKind::WorkerRespawn,
                ));
                // The panic may have left the workspace mid-operation;
                // rebuild it so the respawned loop starts from clean state.
                ws = shared.server.workspace();
            }
        }
    }
}

/// Output sanity-check hook: `(batch-relative index, output) → accept?`.
pub type OutputCheck = Arc<dyn Fn(usize, &LweCiphertext) -> bool + Send + Sync>;

/// Configures a [`BootstrapEngine`].
#[derive(Clone, Default)]
#[must_use = "a builder does nothing until .build() is called"]
pub struct BootstrapEngineBuilder {
    workers: Option<usize>,
    chunk_size: Option<usize>,
    job_timeout: Option<Duration>,
    max_retries: Option<u32>,
    respawn_budget: Option<u32>,
    fault_plan: FaultPlan,
    output_check: Option<OutputCheck>,
}

impl std::fmt::Debug for BootstrapEngineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BootstrapEngineBuilder")
            .field("workers", &self.workers)
            .field("chunk_size", &self.chunk_size)
            .field("job_timeout", &self.job_timeout)
            .field("max_retries", &self.max_retries)
            .field("respawn_budget", &self.respawn_budget)
            .field("fault_plan", &self.fault_plan)
            .field(
                "output_check",
                &self.output_check.as_ref().map(|_| "<hook>"),
            )
            .finish()
    }
}

impl BootstrapEngineBuilder {
    /// Default number of retries per chunk.
    pub const DEFAULT_MAX_RETRIES: u32 = 3;
    /// Default respawn budget per worker.
    pub const DEFAULT_RESPAWN_BUDGET: u32 = 2;

    /// Start from the defaults (one worker per available core, automatic
    /// chunking, no watchdog, 3 retries, 2 respawns per worker, no fault
    /// injection).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of worker threads. Defaults to
    /// `std::thread::available_parallelism()`.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n);
        self
    }

    /// Force a fixed chunk size (ciphertexts per job). By default the
    /// engine splits each batch into one chunk per worker, lengths
    /// differing by at most one (16 over 2 workers → 8 + 8, 5 over 4 →
    /// 2 + 1 + 1 + 1): every key operand is fetched once per chunk, so the
    /// longest chunks the batch allows cost the least memory traffic per
    /// bootstrap. A smaller fixed size trades that reuse for shorter jobs
    /// (finer watchdog and retry granularity).
    pub fn chunk_size(mut self, n: usize) -> Self {
        self.chunk_size = Some(n.max(1));
        self
    }

    /// Watchdog timeout per job: a chunk with no reply within this window
    /// is presumed wedged and re-dispatched (up to the retry budget).
    /// Disabled by default — set it comfortably above the worst-case
    /// honest chunk time, or the watchdog will duplicate live work. A
    /// default chunk is `⌈batch / workers⌉` bootstraps long: size the
    /// timeout for that many, not for one.
    pub fn job_timeout(mut self, timeout: Duration) -> Self {
        self.job_timeout = Some(timeout);
        self
    }

    /// Maximum re-dispatches per chunk after transient failures (panics,
    /// watchdog timeouts, failed output checks). Default
    /// [`Self::DEFAULT_MAX_RETRIES`]. A retry re-runs its whole chunk —
    /// by default a worker's full share of the batch.
    pub fn max_retries(mut self, n: u32) -> Self {
        self.max_retries = Some(n);
        self
    }

    /// Derive the retry budget from the parameter set's predicted
    /// per-bootstrap failure probability
    /// ([`noise::failure_probability`](crate::noise::failure_probability)):
    /// enough retries that a noise-induced transient failure surviving
    /// all of them is rarer than 2⁻⁴⁰.
    pub fn noise_adaptive_retries(mut self, params: &TfheParams) -> Self {
        let p_fail = crate::noise::bootstrap_failure_probability(params);
        let budget = crate::faults::retry_budget_for(p_fail, 2f64.powi(-40));
        self.max_retries = Some(budget.clamp(1, 8));
        self
    }

    /// How many times one worker may respawn its receive loop after a
    /// caught panic before retiring. Default
    /// [`Self::DEFAULT_RESPAWN_BUDGET`].
    pub fn respawn_budget(mut self, n: u32) -> Self {
        self.respawn_budget = Some(n);
        self
    }

    /// Install a deterministic fault-injection plan (chaos testing). The
    /// default zero-rate plan injects nothing and costs nothing.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Install an output sanity check: called as `check(index, output)`
    /// for every bootstrap output (batch-relative index); returning
    /// `false` rejects the chunk and triggers a retry.
    pub fn output_check(
        mut self,
        check: impl Fn(usize, &LweCiphertext) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.output_check = Some(Arc::new(check));
        self
    }

    /// Spawn the worker pool.
    ///
    /// # Errors
    ///
    /// [`TfheError::ZeroThreads`] if `workers(0)` was requested.
    pub fn build(self, server: Arc<ServerKey>) -> Result<BootstrapEngine, TfheError> {
        let workers = match self.workers {
            Some(0) => return Err(TfheError::ZeroThreads),
            Some(n) => n,
            None => std::thread::available_parallelism().map_or(1, |n| n.get()),
        };
        let (tx, rx) = channel::unbounded::<Job>();
        let counters = Arc::new(Counters::default());
        counters.alive.store(workers, Ordering::SeqCst);
        let injector = FaultInjector::new(self.fault_plan);
        let respawn_budget = self.respawn_budget.unwrap_or(Self::DEFAULT_RESPAWN_BUDGET);
        let handles = (0..workers)
            .map(|i| {
                let shared = WorkerShared {
                    server: Arc::clone(&server),
                    counters: Arc::clone(&counters),
                    injector,
                };
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("bootstrap-worker-{i}"))
                    .spawn(move || worker_thread(i, shared, rx, respawn_budget))
                    .expect("spawn bootstrap worker")
            })
            .collect();
        Ok(BootstrapEngine {
            server,
            tx: Some(tx),
            handles,
            spawned: workers,
            counters,
            chunk_size: self.chunk_size,
            job_timeout: self.job_timeout,
            max_retries: self.max_retries.unwrap_or(Self::DEFAULT_MAX_RETRIES),
            output_check: self.output_check,
        })
    }
}

/// A persistent, self-healing pool of bootstrap workers fed over a
/// channel — spawn once, submit many batches. The recovery machinery
/// (panic isolation and respawn, watchdog, bounded retry, output checks)
/// is configured on [`BootstrapEngineBuilder`].
pub struct BootstrapEngine {
    server: Arc<ServerKey>,
    /// `Some` until drop; taken there to close the channel and stop the
    /// workers.
    tx: Option<Sender<Job>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Workers spawned at construction (denominator for degraded-mode
    /// detection; `handles` is drained by shutdown).
    spawned: usize,
    counters: Arc<Counters>,
    chunk_size: Option<usize>,
    job_timeout: Option<Duration>,
    max_retries: u32,
    output_check: Option<OutputCheck>,
}

impl std::fmt::Debug for BootstrapEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BootstrapEngine")
            .field("workers", &self.spawned)
            .field("chunk_size", &self.chunk_size)
            .field("job_timeout", &self.job_timeout)
            .field("max_retries", &self.max_retries)
            .field("health", &self.health())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl BootstrapEngine {
    /// Configure worker count, chunking, and fault tolerance before
    /// spawning the pool.
    pub fn builder() -> BootstrapEngineBuilder {
        BootstrapEngineBuilder::new()
    }

    /// Spawn an engine with default settings (one worker per core).
    pub fn new(server: Arc<ServerKey>) -> Self {
        match Self::builder().build(server) {
            Ok(engine) => engine,
            Err(e) => panic!("{e}"),
        }
    }

    /// The shared server key the pool evaluates under.
    pub fn server(&self) -> &Arc<ServerKey> {
        &self.server
    }

    /// Number of worker threads spawned at construction.
    pub fn workers(&self) -> usize {
        self.spawned
    }

    /// Totals since construction (or the last
    /// [`reset_stats`](Self::reset_stats)).
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            workers: self.spawned,
            batches: self.counters.batches.load(Ordering::Relaxed),
            bootstraps: self.counters.bootstraps.load(Ordering::Relaxed),
            extractions: self.counters.extractions.load(Ordering::Relaxed),
            busy: Duration::from_nanos(self.counters.busy_nanos.load(Ordering::Relaxed)),
            health: self.health(),
            panics: self.counters.panics.load(Ordering::Relaxed),
            respawns: self.counters.respawns.load(Ordering::Relaxed),
            retries: self.counters.retries.load(Ordering::Relaxed),
            watchdog_timeouts: self.counters.watchdog_timeouts.load(Ordering::Relaxed),
            check_failures: self.counters.check_failures.load(Ordering::Relaxed),
        }
    }

    /// The degraded-mode state machine: `Healthy` while every spawned
    /// worker is alive, `Degraded` once some (but not all) have retired,
    /// `Failed` when none remain or the engine has shut down.
    pub fn health(&self) -> EngineHealth {
        let alive = self.counters.alive.load(Ordering::SeqCst);
        if self.tx.is_none() || alive == 0 {
            EngineHealth::Failed
        } else if alive < self.spawned {
            EngineHealth::Degraded
        } else {
            EngineHealth::Healthy
        }
    }

    /// Zero the counters and clear the journal (e.g. between bench
    /// warm-up and measurement).
    pub fn reset_stats(&self) {
        self.counters.batches.store(0, Ordering::Relaxed);
        self.counters.bootstraps.store(0, Ordering::Relaxed);
        self.counters.extractions.store(0, Ordering::Relaxed);
        self.counters.busy_nanos.store(0, Ordering::Relaxed);
        self.counters.panics.store(0, Ordering::Relaxed);
        self.counters.respawns.store(0, Ordering::Relaxed);
        self.counters.retries.store(0, Ordering::Relaxed);
        self.counters.watchdog_timeouts.store(0, Ordering::Relaxed);
        self.counters.check_failures.store(0, Ordering::Relaxed);
        self.counters.journal.clear();
    }

    /// The engine's journal since construction or the last
    /// [`reset_stats`](Self::reset_stats): one [`EventKind::Job`] span per
    /// executed chunk ([`Who::Worker`]) and one instant per fault or
    /// recovery action (worker-local ones under [`Who::Worker`], the
    /// submitting side's under [`Who::Engine`]).
    pub fn journal(&self) -> &Journal {
        &self.counters.journal
    }

    /// Workers still running their receive loop. Drops below
    /// [`workers`](Self::workers) when a worker exhausts its respawn
    /// budget; zero means the pool is dead.
    pub fn alive_workers(&self) -> usize {
        self.counters.alive.load(Ordering::SeqCst)
    }

    /// Gracefully stop the pool: close the job channel, join every
    /// worker. Subsequent submissions return
    /// [`TfheError::EngineShutDown`]. Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        drop(self.tx.take());
        for handle in self.handles.drain(..) {
            // A worker that panicked already surfaced as a failed chunk
            // to any in-flight submitter; nothing useful in the payload.
            let _ = handle.join();
        }
    }

    /// The fixed chunk plan of a batch of `n`: disjoint contiguous ranges
    /// in ascending order — one per worker unless a chunk size was forced.
    /// A chunk shares every key fetch among its ciphertexts, so the
    /// default makes chunks as long as the batch allows while still giving
    /// every worker one; [`EngineStats::busy`] against wall time says what
    /// a straggler chunk idles (a few percent, EXPERIMENTS.md).
    fn chunk_plan(&self, n: usize) -> Vec<Range<usize>> {
        match self.chunk_size {
            Some(c) => (0..n).step_by(c).map(|s| s..(s + c).min(n)).collect(),
            None => balanced_chunks(n, self.spawned).collect(),
        }
    }

    /// Flat index of the first output (counting from `out_start`) that
    /// the sanity check rejects, if a check is installed. Indices are
    /// batch-relative *output* positions — they diverge from ciphertext
    /// indices on fanout batches.
    fn rejected_output(&self, out_start: usize, outs: &[LweCiphertext]) -> Option<usize> {
        let check = self.output_check.as_ref()?;
        outs.iter()
            .enumerate()
            .find_map(|(j, ct)| (!check(out_start + j, ct)).then_some(out_start + j))
    }

    fn submit(&self, req: Arc<BatchRequest>) -> Result<Vec<LweCiphertext>, TfheError> {
        let n = req.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        // Fail fast on a dead pool: the channel may still accept sends
        // (queued jobs hold receiver clones), but with zero live workers
        // nothing would ever reply and the submitter would hang.
        let Some(tx) = self.tx.as_ref() else {
            return Err(TfheError::EngineShutDown);
        };
        if self.counters.alive.load(Ordering::SeqCst) == 0 {
            return Err(TfheError::EngineShutDown);
        }
        // Validate eagerly so errors surface here, not inside the pool.
        self.server.validate_request(&req)?;

        // Flat output offset of each ciphertext (identity without fanout):
        // the ordered-assembly and output-check index space.
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut total_outputs = 0usize;
        for i in 0..n {
            out_offsets.push(total_outputs);
            total_outputs += req.output_count(i);
        }
        out_offsets.push(total_outputs);

        // Count only batches that actually reach the pool — rejected
        // submissions must not inflate the calibration denominator. The
        // pre-increment value doubles as the batch's fault-injection id.
        let batch = self.counters.batches.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = channel::unbounded::<Chunk>();

        // Retries re-dispatch a range of the plan verbatim, so the plan
        // (and with it the fault-injection keys) never shifts mid-batch.
        let ranges = self.chunk_plan(n);

        let dispatch = |slot: usize, attempt: u32| -> Result<(), TfheError> {
            let job = Job {
                batch,
                attempt,
                req: Arc::clone(&req),
                range: ranges[slot].clone(),
                reply: reply_tx.clone(),
            };
            tx.send(job).map_err(|_| TfheError::EngineShutDown)
        };

        let mut slots: Vec<Option<Vec<LweCiphertext>>> = vec![None; ranges.len()];
        let mut attempts = vec![0u32; ranges.len()];
        let mut sent_at: Vec<u64> = Vec::with_capacity(ranges.len());
        for slot in 0..ranges.len() {
            dispatch(slot, 0)?;
            sent_at.push(journal::now());
        }
        let mut pending = ranges.len();

        // Re-dispatch `slot` at once after a transient failure. Returns
        // the new attempt number, or `None` if the retry budget is
        // exhausted (caller converts to its error).
        let retry = |slot: usize,
                     attempts: &mut [u32],
                     sent_at: &mut [u64]|
         -> Result<Option<u32>, TfheError> {
            if attempts[slot] >= self.max_retries {
                return Ok(None);
            }
            attempts[slot] += 1;
            let attempt = attempts[slot];
            self.counters.retries.fetch_add(1, Ordering::Relaxed);
            self.counters.journal.record(Event::instant(
                Who::Engine,
                EventKind::ChunkRetry {
                    chunk_start: ranges[slot].start,
                    attempt,
                },
            ));
            dispatch(slot, attempt)?;
            sent_at[slot] = journal::now();
            Ok(Some(attempt))
        };

        // Liveness tick: at most the watchdog timeout, at least often
        // enough to notice a dead pool.
        let tick = self
            .job_timeout
            .map_or(LIVENESS_TICK, |t| t.min(LIVENESS_TICK));

        while pending > 0 {
            match reply_rx.recv_timeout(tick) {
                Ok(reply) => {
                    let Some(slot) = ranges.iter().position(|r| r.start == reply.start) else {
                        continue;
                    };
                    if slots[slot].is_some() {
                        // Late duplicate from a watchdog-rescued worker;
                        // results are deterministic, so drop it.
                        continue;
                    }
                    match reply.result {
                        Ok(outs) => {
                            if let Some(index) =
                                self.rejected_output(out_offsets[ranges[slot].start], &outs)
                            {
                                self.counters.check_failures.fetch_add(1, Ordering::Relaxed);
                                self.counters.journal.record(Event::instant(
                                    Who::Engine,
                                    EventKind::OutputCheckFailed { index },
                                ));
                                if retry(slot, &mut attempts, &mut sent_at)?.is_none() {
                                    return Err(TfheError::OutputCheckFailed { index });
                                }
                                continue;
                            }
                            slots[slot] = Some(outs);
                            pending -= 1;
                        }
                        Err(e @ TfheError::WorkerPanicked { .. }) => {
                            if retry(slot, &mut attempts, &mut sent_at)?.is_none() {
                                return Err(e);
                            }
                        }
                        // Validation errors are deterministic — retrying
                        // would reproduce them, so fail the batch.
                        Err(e) => return Err(e),
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if self.counters.alive.load(Ordering::SeqCst) == 0 {
                        return Err(TfheError::EngineShutDown);
                    }
                    let Some(limit) = self.job_timeout.map(dur_ns) else {
                        continue;
                    };
                    let now = journal::now();
                    for slot in 0..ranges.len() {
                        if slots[slot].is_none() && now.saturating_sub(sent_at[slot]) >= limit {
                            self.counters
                                .watchdog_timeouts
                                .fetch_add(1, Ordering::Relaxed);
                            self.counters.journal.record(Event::instant(
                                Who::Engine,
                                EventKind::WatchdogTimeout {
                                    batch,
                                    chunk_start: ranges[slot].start,
                                },
                            ));
                            if retry(slot, &mut attempts, &mut sent_at)?.is_none() {
                                return Err(TfheError::JobTimedOut {
                                    chunk_start: ranges[slot].start,
                                    attempts: attempts[slot] + 1,
                                });
                            }
                        }
                    }
                }
                // Unreachable while we hold `reply_tx`, but map it
                // defensively rather than hanging.
                Err(RecvTimeoutError::Disconnected) => return Err(TfheError::EngineShutDown),
            }
        }

        // Ordered assembly: slots follow the ascending chunk plan, so
        // flattening restores input order exactly.
        let out: Vec<LweCiphertext> = slots.into_iter().flatten().flatten().collect();
        debug_assert_eq!(out.len(), total_outputs);
        Ok(out)
    }
}

/// The pooled backend: requests route through the persistent self-healing
/// worker pool. [`BatchRequest::deadline`] is ignored — the pool executes
/// immediately (put a
/// [`Dispatcher`](crate::dispatch::Dispatcher) in front for
/// deadline-aware batching).
impl Bootstrapper for BootstrapEngine {
    fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
        self.submit(Arc::new(req.clone()))
    }

    fn health(&self) -> EngineHealth {
        BootstrapEngine::health(self)
    }
}

impl Drop for BootstrapEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::ClientKey;
    use crate::lut::Lut;
    use crate::params::ParamSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Route a shared-LUT batch through the trait surface.
    fn bb(
        b: &impl Bootstrapper,
        cts: &[LweCiphertext],
        lut: &Lut,
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        b.try_bootstrap_batch(&BatchRequest::shared(cts.to_vec(), lut.clone()))
    }

    /// Route a per-item-LUT batch through the trait surface.
    fn bbm(
        b: &impl Bootstrapper,
        cts: &[LweCiphertext],
        luts: &[Lut],
        lut_of: &[usize],
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        b.try_bootstrap_batch(&BatchRequest::per_item(
            cts.to_vec(),
            luts.to_vec(),
            lut_of.to_vec(),
        )?)
    }

    /// `(bootstraps, extractions)` of every job span in the journal.
    fn jobs(engine: &BootstrapEngine) -> Vec<(usize, usize)> {
        let events = engine.journal().events();
        let jobs = events.iter().filter_map(|e| match e.kind {
            EventKind::Job {
                bootstraps,
                extractions,
            } => Some((bootstraps, extractions)),
            _ => None,
        });
        jobs.collect()
    }

    fn setup(seed: u64) -> (ClientKey, Arc<ServerKey>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ck = ClientKey::generate(ParamSet::Test.params(), &mut rng);
        let sk = Arc::new(ServerKey::builder().build(&ck, &mut rng));
        (ck, sk, rng)
    }

    #[test]
    fn engine_matches_sequential_batch() {
        let (ck, sk, mut rng) = setup(700);
        let lut = Lut::from_fn(sk.params().poly_size, 4, |m| (m + 1) % 4);
        let cts: Vec<_> = (0..13).map(|m| ck.encrypt(m % 4, &mut rng)).collect();
        let engine = BootstrapEngine::builder()
            .workers(3)
            .build(Arc::clone(&sk))
            .unwrap();
        let seq = bb(&*sk, &cts, &lut).unwrap();
        let eng = bb(&engine, &cts, &lut).unwrap();
        assert_eq!(seq, eng);
    }

    #[test]
    fn engine_survives_many_batches() {
        let (ck, sk, mut rng) = setup(701);
        let lut = Lut::identity(sk.params().poly_size, 4);
        let engine = BootstrapEngine::builder()
            .workers(2)
            .build(Arc::clone(&sk))
            .unwrap();
        for round in 0..4u64 {
            let cts: Vec<_> = (0..5)
                .map(|m| ck.encrypt((m + round) % 4, &mut rng))
                .collect();
            let out = bb(&engine, &cts, &lut).unwrap();
            for (m, ct) in out.iter().enumerate() {
                assert_eq!(ck.decrypt(ct), (m as u64 + round) % 4, "round={round}");
            }
        }
        let stats = engine.stats();
        assert_eq!(stats.batches, 4);
        assert_eq!(stats.bootstraps, 20);
        assert!(stats.busy > Duration::ZERO);
        assert_eq!(stats.health, EngineHealth::Healthy);
        assert_eq!(stats.panics, 0);
        assert_eq!(stats.retries, 0);
    }

    #[test]
    fn multi_lut_batches_route_each_ciphertext() {
        let (ck, sk, mut rng) = setup(702);
        let n = sk.params().poly_size;
        let luts = [
            Lut::identity(n, 4),
            Lut::from_fn(n, 4, |m| (m + 1) % 4),
            Lut::from_fn(n, 4, |m| 3 - m),
        ];
        let msgs = [0u64, 1, 2, 3, 2, 1];
        let lut_of = [0usize, 1, 2, 0, 1, 2];
        let cts: Vec<_> = msgs.iter().map(|&m| ck.encrypt(m, &mut rng)).collect();
        let engine = BootstrapEngine::builder()
            .workers(2)
            .build(Arc::clone(&sk))
            .unwrap();
        let out = bbm(&engine, &cts, &luts, &lut_of).unwrap();
        let expect = |m: u64, sel: usize| match sel {
            0 => m,
            1 => (m + 1) % 4,
            _ => 3 - m,
        };
        for i in 0..msgs.len() {
            assert_eq!(ck.decrypt(&out[i]), expect(msgs[i], lut_of[i]), "i={i}");
        }
    }

    #[test]
    fn fanout_batches_route_through_the_pool() {
        let (ck, sk, mut rng) = setup(714);
        let n = sk.params().poly_size;
        let luts = vec![
            Lut::identity(n, 4),
            Lut::from_fn(n, 4, |m| (m + 1) % 4),
            Lut::from_fn(n, 4, |m| 3 - m),
        ];
        let cts: Vec<_> = (0..5).map(|m| ck.encrypt(m % 4, &mut rng)).collect();
        let req = BatchRequest::many(cts, luts).unwrap();
        let engine = BootstrapEngine::builder()
            .workers(2)
            .chunk_size(2)
            .build(Arc::clone(&sk))
            .unwrap();
        let out = engine.try_bootstrap_batch(&req).unwrap();
        // Same request through the sequential backend: chunking must not
        // change results or their flattened order.
        assert_eq!(out, sk.try_bootstrap_batch(&req).unwrap());
        assert_eq!(out.len(), 15);
        let stats = engine.stats();
        assert_eq!(stats.bootstraps, 5, "one rotation per input");
        assert_eq!(stats.extractions, 15, "one extraction per output");
        let jobs = jobs(&engine);
        assert_eq!(jobs.iter().map(|j| j.0).sum::<usize>(), 5);
        assert_eq!(jobs.iter().map(|j| j.1).sum::<usize>(), 15);
    }

    #[test]
    fn fanout_output_check_sees_flat_output_indices() {
        let (ck, sk, mut rng) = setup(715);
        let n = sk.params().poly_size;
        let luts = vec![Lut::identity(n, 4), Lut::from_fn(n, 4, |m| (m + 1) % 4)];
        let cts: Vec<_> = (0..3).map(|m| ck.encrypt(m % 4, &mut rng)).collect();
        let req = BatchRequest::many(cts, luts).unwrap();
        // Reject exactly flat output 3 (= input 1's second output): the
        // surfaced index must be in output space, not ciphertext space.
        let engine = BootstrapEngine::builder()
            .workers(1)
            .chunk_size(1)
            .max_retries(1)
            .output_check(|i, _| i != 3)
            .build(Arc::clone(&sk))
            .unwrap();
        assert_eq!(
            engine.try_bootstrap_batch(&req).err(),
            Some(TfheError::OutputCheckFailed { index: 3 })
        );
    }

    #[test]
    fn rejects_bad_inputs_eagerly() {
        let (ck, sk, mut rng) = setup(703);
        let engine = BootstrapEngine::builder()
            .workers(1)
            .build(Arc::clone(&sk))
            .unwrap();
        let good_lut = Lut::identity(sk.params().poly_size, 4);
        let cts = vec![ck.encrypt(1, &mut rng)];

        let wrong_dim = crate::lwe::LweCiphertext::trivial(morphling_math::Torus32::ZERO, 3);
        assert!(matches!(
            bb(&engine, &[wrong_dim], &good_lut),
            Err(TfheError::LweDimensionMismatch { .. })
        ));

        let wrong_lut = Lut::identity(sk.params().poly_size * 2, 4);
        assert!(matches!(
            bb(&engine, &cts, &wrong_lut),
            Err(TfheError::LutSizeMismatch { .. })
        ));

        assert!(matches!(
            bbm(&engine, &cts, std::slice::from_ref(&good_lut), &[1]),
            Err(TfheError::LutIndexOutOfRange { index: 1, luts: 1 })
        ));
        assert!(matches!(
            bbm(&engine, &cts, &[good_lut], &[0, 0]),
            Err(TfheError::LutSelectorLengthMismatch {
                expected: 1,
                got: 2
            })
        ));
    }

    #[test]
    fn zero_workers_is_an_error_and_empty_batch_is_ok() {
        let (_ck, sk, _rng) = setup(704);
        assert_eq!(
            BootstrapEngine::builder()
                .workers(0)
                .build(Arc::clone(&sk))
                .err(),
            Some(TfheError::ZeroThreads)
        );
        let engine = BootstrapEngine::builder().workers(1).build(sk).unwrap();
        let lut = Lut::identity(engine.server().params().poly_size, 4);
        assert_eq!(bb(&engine, &[], &lut).unwrap(), Vec::new());
    }

    #[test]
    fn rejected_batches_do_not_count_toward_stats() {
        let (ck, sk, mut rng) = setup(706);
        let engine = BootstrapEngine::builder()
            .workers(1)
            .build(Arc::clone(&sk))
            .unwrap();
        // Malformed submissions are rejected before dispatch.
        let wrong_lut = Lut::identity(sk.params().poly_size * 2, 4);
        let cts = vec![ck.encrypt(1, &mut rng)];
        assert!(bb(&engine, &cts, &wrong_lut).is_err());
        assert_eq!(engine.stats().batches, 0, "rejected batch was counted");
        // Empty batches never reach the pool either.
        let lut = Lut::identity(sk.params().poly_size, 4);
        assert!(bb(&engine, &[], &lut).is_ok());
        assert_eq!(engine.stats().batches, 0, "empty batch was counted");
        // A dispatched batch counts exactly once.
        bb(&engine, &cts, &lut).unwrap();
        assert_eq!(engine.stats().batches, 1);
    }

    #[test]
    fn dead_pool_is_detected_at_submit_time() {
        let (ck, sk, mut rng) = setup(707);
        let mut engine = BootstrapEngine::builder()
            .workers(2)
            .build(Arc::clone(&sk))
            .unwrap();
        let lut = Lut::identity(sk.params().poly_size, 4);
        let cts = vec![ck.encrypt(1, &mut rng)];
        bb(&engine, &cts, &lut).unwrap();
        assert_eq!(engine.alive_workers(), 2);
        assert_eq!(engine.health(), EngineHealth::Healthy);
        engine.shutdown();
        assert_eq!(engine.alive_workers(), 0);
        assert_eq!(engine.health(), EngineHealth::Failed);
        // It reports so as a backend too, through a reference.
        assert_eq!(Bootstrapper::health(&&engine), EngineHealth::Failed);
        // Submitting to the dead pool errors instead of hanging.
        assert_eq!(
            bb(&engine, &cts, &lut).err(),
            Some(TfheError::EngineShutDown)
        );
        assert_eq!(engine.stats().batches, 1, "failed submit was counted");
        // Shutdown is idempotent.
        engine.shutdown();
    }

    #[test]
    fn job_spans_journal_every_chunk() {
        let (ck, sk, mut rng) = setup(708);
        let lut = Lut::identity(sk.params().poly_size, 4);
        let cts: Vec<_> = (0..6).map(|m| ck.encrypt(m % 4, &mut rng)).collect();
        let engine = BootstrapEngine::builder()
            .workers(2)
            .chunk_size(2)
            .build(Arc::clone(&sk))
            .unwrap();
        bb(&engine, &cts, &lut).unwrap();
        let events = engine.journal().events();
        assert_eq!(events.len(), 3, "one span per 2-ciphertext chunk");
        assert_eq!(jobs(&engine).iter().map(|j| j.0).sum::<usize>(), 6);
        for e in &events {
            assert!(matches!(e.who, Who::Worker(w) if w < 2), "{e:?}");
            assert!(e.dur_ns > 0);
        }
        engine.reset_stats();
        assert!(engine.journal().events().is_empty());
    }

    #[test]
    fn default_plan_is_one_balanced_chunk_per_worker() {
        let (_ck, sk, _rng) = setup(709);
        for workers in 1..=4usize {
            let engine = BootstrapEngine::builder()
                .workers(workers)
                .build(Arc::clone(&sk))
                .unwrap();
            for n in 1..=3 * workers + 1 {
                let plan = engine.chunk_plan(n);
                // Every index exactly once, in order.
                let covered: Vec<usize> = plan.iter().cloned().flatten().collect();
                assert_eq!(
                    covered,
                    (0..n).collect::<Vec<_>>(),
                    "n={n} workers={workers}"
                );
                assert_eq!(plan.len(), workers.min(n), "n={n} workers={workers}");
                let lens: Vec<usize> = plan.iter().map(Range::len).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1, "n={n} workers={workers} lens={lens:?}");
                assert_eq!(*max, n.div_ceil(workers), "n={n} workers={workers}");
            }
        }
        // 16 over 2 → 8 + 8; 5 over 4 → 2 + 1 + 1 + 1; a forced size keeps
        // its meaning.
        let engine = |workers: usize, chunk: Option<usize>| {
            let b = BootstrapEngine::builder().workers(workers);
            chunk
                .map_or(b.clone(), |c| b.chunk_size(c))
                .build(Arc::clone(&sk))
                .unwrap()
        };
        assert_eq!(engine(2, None).chunk_plan(16), [0..8, 8..16]);
        assert_eq!(engine(4, None).chunk_plan(5), [0..2, 2..3, 3..4, 4..5]);
        assert_eq!(engine(2, Some(3)).chunk_plan(7), [0..3, 3..6, 6..7]);
    }

    #[test]
    fn forced_chunk_size_still_orders_results() {
        let (ck, sk, mut rng) = setup(705);
        let lut = Lut::identity(sk.params().poly_size, 4);
        let cts: Vec<_> = (0..7).map(|m| ck.encrypt(m % 4, &mut rng)).collect();
        let engine = BootstrapEngine::builder()
            .workers(4)
            .chunk_size(2)
            .build(Arc::clone(&sk))
            .unwrap();
        let out = bb(&engine, &cts, &lut).unwrap();
        assert_eq!(out, bb(&*sk, &cts, &lut).unwrap());
    }

    #[test]
    fn injected_panics_are_retried_and_respawned() {
        let (ck, sk, mut rng) = setup(710);
        let lut = Lut::identity(sk.params().poly_size, 4);
        let cts: Vec<_> = (0..12).map(|m| ck.encrypt(m % 4, &mut rng)).collect();
        let engine = BootstrapEngine::builder()
            .workers(2)
            .chunk_size(3)
            .respawn_budget(16)
            .max_retries(8)
            .fault_plan(FaultPlan::seeded(4242).with_worker_panic(0.3))
            .build(Arc::clone(&sk))
            .unwrap();
        let out = bb(&engine, &cts, &lut).unwrap();
        assert_eq!(out, bb(&*sk, &cts, &lut).unwrap(), "bit-identical");
        let stats = engine.stats();
        assert!(stats.panics > 0, "seed 4242 must fire at rate 0.3");
        assert_eq!(stats.panics, stats.respawns, "every panic respawned");
        assert_eq!(stats.retries, stats.panics, "every panic retried");
        assert_eq!(stats.health, EngineHealth::Healthy);
        assert!(engine
            .journal()
            .events()
            .iter()
            .any(|e| e.kind == EventKind::WorkerPanic));
    }

    #[test]
    fn exhausted_respawn_budget_degrades_then_fails() {
        let (ck, sk, mut rng) = setup(711);
        let lut = Lut::identity(sk.params().poly_size, 4);
        let cts = vec![ck.encrypt(1, &mut rng)];
        // Every job panics; zero respawns: the single worker dies on the
        // first job and the pool fails — without hanging the submitter.
        let engine = BootstrapEngine::builder()
            .workers(1)
            .respawn_budget(0)
            .max_retries(1)
            .fault_plan(FaultPlan::seeded(1).with_worker_panic(1.0))
            .build(Arc::clone(&sk))
            .unwrap();
        let err = bb(&engine, &cts, &lut).unwrap_err();
        assert!(
            matches!(
                err,
                TfheError::WorkerPanicked { .. } | TfheError::EngineShutDown
            ),
            "got {err:?}"
        );
        // The pool is dead; later submissions fail fast.
        while engine.alive_workers() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(engine.health(), EngineHealth::Failed);
        assert_eq!(
            bb(&engine, &cts, &lut).err(),
            Some(TfheError::EngineShutDown)
        );
    }

    #[test]
    fn output_check_failures_exhaust_into_an_error() {
        let (ck, sk, mut rng) = setup(712);
        let lut = Lut::identity(sk.params().poly_size, 4);
        let cts = vec![ck.encrypt(2, &mut rng)];
        // A check that rejects everything: retries burn out, the caller
        // gets OutputCheckFailed, and the pool stays healthy.
        let engine = BootstrapEngine::builder()
            .workers(1)
            .max_retries(2)
            .output_check(|_, _| false)
            .build(Arc::clone(&sk))
            .unwrap();
        assert_eq!(
            bb(&engine, &cts, &lut).err(),
            Some(TfheError::OutputCheckFailed { index: 0 })
        );
        let stats = engine.stats();
        assert_eq!(stats.check_failures, 3, "initial attempt + 2 retries");
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.health, EngineHealth::Healthy);
    }

    #[test]
    fn mean_bootstrap_time_survives_counts_beyond_u32() {
        assert_eq!(EngineStats::default().mean_bootstrap_time(), None);

        let small = EngineStats {
            bootstraps: 4,
            busy: Duration::from_secs(2),
            ..Default::default()
        };
        assert_eq!(
            small.mean_bootstrap_time(),
            Some(Duration::from_millis(500))
        );

        // 6e9 bootstraps over 600 s of busy time: mean = 100 ns. The old
        // `busy / (bootstraps as u32)` truncated the divisor to
        // 6e9 mod 2³² ≈ 1.7e9 and reported ~353 ns instead.
        let huge = EngineStats {
            bootstraps: 6_000_000_000,
            busy: Duration::from_secs(600),
            ..Default::default()
        };
        let mean = huge.mean_bootstrap_time().unwrap();
        let err_ns = (mean.as_nanos() as i128 - 100).abs();
        assert!(err_ns <= 1, "mean {mean:?} should be ~100ns");
    }

    #[test]
    fn noise_adaptive_retries_are_bounded() {
        let (_, sk, _) = setup(713);
        let b = BootstrapEngine::builder().noise_adaptive_retries(sk.params());
        let engine = b.workers(1).build(sk).unwrap();
        assert!((1..=8).contains(&engine.max_retries));
    }
}
