//! A persistent, self-healing bootstrap engine: the software analogue of
//! Morphling's always-resident bootstrapping cores, hardened for
//! production serving.
//!
//! Spawning a fresh set of OS threads for every call is fine for one large
//! batch and wasteful for the steady stream of medium batches that
//! inference workloads produce. [`BootstrapEngine`] spawns its worker pool
//! **once** and keeps it warm:
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
//! # Fault tolerance, decided on plain data
//!
//! Every decision the pool makes is `Supervisor`'s: crate-private plain
//! data on a caller's `now: u64`, like the serving core (`policy.rs`) and
//! the key cache (`keystore.rs`). It holds the batches in flight, the
//! chunk queue, each worker's respawn budget and the [`EngineStats`]; the
//! engine is one mutex, one condvar and the worker threads around it.
//!
//! - **Panic isolation + respawn** — every job runs under `catch_unwind`;
//!   a panic is a reply like any other: the chunk is retried and the
//!   worker respawns its loop in place, bounded by a per-worker
//!   [respawn budget](BootstrapEngineBuilder::respawn_budget). A worker
//!   that exhausts it retires; the rest keep serving (degraded mode).
//! - **Watchdog** — with a [`job_timeout`](BootstrapEngineBuilder::job_timeout),
//!   a chunk a worker has held that long is presumed wedged and re-queued;
//!   the first copy to reply resolves it and the other is dropped
//!   (bootstrapping is deterministic, so either copy is bit-identical).
//! - **Bounded chunk re-dispatch** — a chunk that fails transiently
//!   (panic, timeout, failed output check) goes straight back to the
//!   queue, up to [`max_retries`](BootstrapEngineBuilder::max_retries)
//!   times;
//!   [`noise_adaptive_retries`](BootstrapEngineBuilder::noise_adaptive_retries)
//!   derives the budget from [`noise::failure_probability`](crate::noise).
//!   This recovers a *chunk inside one call*; retrying a *request*, with
//!   backoff and under its deadline, is the
//!   [`Dispatcher`](crate::dispatch::Dispatcher)'s.
//! - **Output sanity checks** — an optional
//!   [hook](BootstrapEngineBuilder::output_check) vets every output on the
//!   worker that produced it; a rejection is retried like any transient
//!   fault.
//! - **Degraded-mode serving** — [`EngineHealth`] (`Healthy` /
//!   `Degraded` / `Failed`), via [`EngineStats`] and
//!   [`BootstrapEngine::health`] (also the engine's
//!   [`Bootstrapper::health`], which a dispatcher tier's breaker reads). When
//!   the last worker retires, every batch in flight fails with
//!   [`TfheError::EngineShutDown`], as does every later submission.
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
//! let server = Arc::new(ServerKey::new(&client, &mut rng));
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

use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::bootstrapper::{BatchRequest, Bootstrapper};
use crate::error::TfheError;
use crate::faults::{corrupt_ciphertext, fault_key, FaultPlan, FaultSite};
use crate::journal::{self, Event, EventKind, Journal, Who};
use crate::lwe::LweCiphertext;
use crate::params::TfheParams;
use crate::policy::dur_ns;
use crate::server::ServerKey;
use crate::workspace::BootstrapWorkspace;

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
/// `busy` sums the wall time each worker spent inside jobs (an installed
/// output check included), so
/// `bootstraps / busy` is the **per-core** bootstrap rate — exactly the
/// `single_core_bs_s` input of the CPU cost model — while
/// `bootstraps / (busy / workers)` estimates pool throughput. The fault
/// counters summarize the engine's recovery history; `health` is the
/// degraded-mode state at the instant of the snapshot. A snapshot is
/// consistent: every count is the supervisor's, read under one lock.
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

/// One chunk handed to a worker: the batch's request `req`, and which
/// attempt at which of its chunks this is.
#[derive(Debug)]
struct Job<R> {
    /// Engine-wide batch sequence number (fault-injection key component).
    batch: u64,
    chunk: usize,
    /// 0 = first; a retry re-rolls injected faults.
    attempt: u32,
    range: Range<usize>,
    req: R,
    /// When the worker took it, for its busy time and span; the watchdog
    /// reads the chunk's `since`, which a newer attempt has moved on.
    started: u64,
}

/// What one attempt at a chunk came to, as its worker reports it.
#[derive(Debug)]
enum Ran<T> {
    /// The chunk's outputs, and the first (batch-relative) output index
    /// the output check rejected, if it rejected one.
    Done(Vec<T>, Option<usize>),
    /// A deterministic error (a validation error): retrying would
    /// reproduce it, so the batch fails.
    Failed(TfheError),
    /// The job panicked; its worker's state is suspect.
    Panicked,
}

/// What a worker does after its reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fate {
    Continue,
    /// Rebuild its workspace (a panic may have abandoned it mid-operation)
    /// and go on.
    Respawn,
    /// Its respawn budget is spent: leave the pool.
    Retire,
}

#[derive(Debug)]
enum State<T> {
    Queued,
    Running { since: u64 },
    Done(Vec<T>),
}

/// One chunk of a batch in flight.
#[derive(Debug)]
struct Chunk<T> {
    range: Range<usize>,
    /// The attempt queued or running now (0 = first).
    attempt: u32,
    state: State<T>,
}

impl<T> Chunk<T> {
    fn done(&self) -> bool {
        matches!(self.state, State::Done(_))
    }
}

#[derive(Debug)]
struct Batch<R, T> {
    req: R,
    chunks: Vec<Chunk<T>>,
    /// Set once, by the first failure that ends the batch.
    failed: Option<TfheError>,
}

/// The pool's decisions as plain data on caller time: [`BootstrapEngine`]
/// wraps it in a mutex and a condvar, and its tests drive it on virtual
/// time. `R` is what a worker needs to run a chunk, `T` one output.
#[derive(Debug)]
struct Supervisor<R, T> {
    max_retries: u32,
    /// The watchdog's limit, if one is set.
    timeout: Option<u64>,
    /// Per worker: the respawns it has left, `None` once it retired.
    respawns_left: Vec<Option<u32>>,
    /// Shut down: the workers leave once the queue is empty.
    stopped: bool,
    next_batch: u64,
    batches: BTreeMap<u64, Batch<R, T>>,
    /// `(batch, chunk)` in the order workers take them.
    queue: VecDeque<(u64, usize)>,
    stats: EngineStats,
    journal: Arc<Journal>,
}

impl<R: Clone, T> Supervisor<R, T> {
    fn new(
        workers: usize,
        respawn_budget: u32,
        max_retries: u32,
        timeout: Option<u64>,
        journal: Arc<Journal>,
    ) -> Self {
        Self {
            max_retries,
            timeout,
            respawns_left: vec![Some(respawn_budget); workers],
            stopped: false,
            next_batch: 0,
            batches: BTreeMap::new(),
            queue: VecDeque::new(),
            stats: EngineStats {
                workers,
                ..EngineStats::default()
            },
            journal,
        }
    }

    fn record(&self, now: u64, who: Who, kind: EventKind) {
        self.journal.record(Event::at(now, who, kind));
    }

    /// Workers still in the pool; none once it shut down.
    fn alive(&self) -> usize {
        if self.stopped {
            return 0;
        }
        self.respawns_left.iter().flatten().count()
    }

    fn health(&self) -> EngineHealth {
        match self.alive() {
            0 => EngineHealth::Failed,
            n if n < self.respawns_left.len() => EngineHealth::Degraded,
            _ => EngineHealth::Healthy,
        }
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            health: self.health(),
            ..self.stats
        }
    }

    /// Admit a batch of `req` cut into `ranges`: its chunks join the queue.
    fn dispatch(&mut self, req: R, ranges: Vec<Range<usize>>) -> Result<u64, TfheError> {
        if self.alive() == 0 {
            return Err(TfheError::EngineShutDown);
        }
        let id = self.next_batch;
        self.next_batch += 1;
        self.stats.batches += 1;
        self.queue.extend((0..ranges.len()).map(|c| (id, c)));
        let chunks = ranges.into_iter().map(|range| Chunk {
            range,
            attempt: 0,
            state: State::Queued,
        });
        let batch = Batch {
            req,
            chunks: chunks.collect(),
            failed: None,
        };
        self.batches.insert(id, batch);
        Ok(id)
    }

    /// The next queued chunk that still needs a run, now running since
    /// `now`.
    fn take(&mut self, now: u64) -> Option<Job<R>> {
        while let Some((id, c)) = self.queue.pop_front() {
            let Some(batch) = self.batches.get_mut(&id) else {
                continue;
            };
            let chunk = &mut batch.chunks[c];
            if batch.failed.is_some() || !matches!(chunk.state, State::Queued) {
                continue;
            }
            chunk.state = State::Running { since: now };
            return Some(Job {
                batch: id,
                chunk: c,
                attempt: chunk.attempt,
                range: chunk.range.clone(),
                req: batch.req.clone(),
                started: now,
            });
        }
        None
    }

    /// Worker `worker`'s `job` came to `ran` at `now`. A success resolves
    /// its chunk unless a copy already did; a transient failure of the
    /// chunk's current attempt re-queues it; a panic spends the worker's
    /// respawn budget. Returns what the worker does next.
    fn reply(&mut self, now: u64, worker: usize, job: &Job<R>, ran: Ran<T>) -> Fate {
        self.stats.busy += Duration::from_nanos(now.saturating_sub(job.started));
        let mut fate = Fate::Continue;
        if let Ran::Panicked = ran {
            self.stats.panics += 1;
            self.record(now, Who::Worker(worker), EventKind::WorkerPanic);
            let left = &mut self.respawns_left[worker];
            *left = left.and_then(|n| n.checked_sub(1));
            let kind = if left.is_some() {
                self.stats.respawns += 1;
                fate = Fate::Respawn;
                EventKind::WorkerRespawn
            } else {
                fate = Fate::Retire;
                EventKind::RespawnExhausted
            };
            self.record(now, Who::Worker(worker), kind);
        } else {
            // `bootstraps` counts input ciphertexts (blind rotations),
            // `extractions` outputs: they differ only on fanout chunks.
            let (bootstraps, extractions) = match &ran {
                Ran::Done(outs, _) => (job.range.len(), outs.len()),
                _ => (0, 0),
            };
            self.stats.bootstraps += bootstraps as u64;
            self.stats.extractions += extractions as u64;
            let kind = EventKind::Job {
                bootstraps,
                extractions,
            };
            let dur_ns = now.saturating_sub(job.started);
            let span = Event::at(job.started, Who::Worker(worker), kind);
            self.journal.record(Event { dur_ns, ..span });
        }
        if self.alive() == 0 {
            // Nothing would ever run what is queued; a batch whose chunks
            // all resolved keeps its outputs for its submitter.
            for batch in self.batches.values_mut() {
                if !batch.chunks.iter().all(Chunk::done) {
                    batch.failed.get_or_insert(TfheError::EngineShutDown);
                }
            }
            self.queue.clear();
            return fate;
        }
        let Some(batch) = self.batches.get_mut(&job.batch) else {
            return fate;
        };
        let chunk = &mut batch.chunks[job.chunk];
        if batch.failed.is_some() || chunk.done() {
            // Too late: a watchdog copy resolved it, or the batch is over.
            return fate;
        }
        match ran {
            Ran::Done(outs, None) => chunk.state = State::Done(outs),
            // A superseded attempt's failure: the current one is still on.
            _ if job.attempt != chunk.attempt => {}
            Ran::Done(_, Some(index)) => {
                self.stats.check_failures += 1;
                self.record(now, Who::Engine, EventKind::OutputCheckFailed { index });
                let err = TfheError::OutputCheckFailed { index };
                self.retry(now, job.batch, job.chunk, err);
            }
            Ran::Panicked => {
                let err = TfheError::WorkerPanicked { worker };
                self.retry(now, job.batch, job.chunk, err);
            }
            Ran::Failed(e) => batch.failed = Some(e),
        }
        fate
    }

    /// Re-queue chunk `c` of batch `id` after a transient failure, or end
    /// the batch with `err` once the chunk's retries are spent.
    fn retry(&mut self, now: u64, id: u64, c: usize, err: TfheError) {
        let batch = self.batches.get_mut(&id).expect("a live batch");
        let chunk = &mut batch.chunks[c];
        if chunk.attempt >= self.max_retries {
            batch.failed = Some(err);
            return;
        }
        chunk.attempt += 1;
        chunk.state = State::Queued;
        self.queue.push_back((id, c));
        self.stats.retries += 1;
        let kind = EventKind::ChunkRetry {
            chunk_start: chunk.range.start,
            attempt: chunk.attempt,
        };
        self.record(now, Who::Engine, kind);
    }

    /// The watchdog at `now`: every chunk a worker has held for the
    /// timeout or longer is presumed wedged and retried (each one counts
    /// in `watchdog_timeouts`). Returns when it has to look again (`None`:
    /// no timeout, or nothing in flight).
    fn tick(&mut self, now: u64) -> Option<u64> {
        let limit = self.timeout?;
        let (mut wedged, mut next) = (Vec::new(), None::<u64>);
        for (&id, batch) in self.batches.iter().filter(|(_, b)| b.failed.is_none()) {
            for (c, chunk) in batch.chunks.iter().enumerate() {
                let due = match chunk.state {
                    State::Running { since } => since.saturating_add(limit),
                    // Not taken yet: due no sooner than a limit from now.
                    State::Queued => now.saturating_add(limit.max(1)),
                    State::Done(_) => continue,
                };
                if due <= now {
                    wedged.push((id, c));
                } else {
                    next = Some(next.map_or(due, |n| n.min(due)));
                }
            }
        }
        for (id, c) in wedged {
            let batch = &self.batches[&id];
            if batch.failed.is_some() {
                continue;
            }
            let chunk = &batch.chunks[c];
            let (chunk_start, attempts) = (chunk.range.start, chunk.attempt + 1);
            self.stats.watchdog_timeouts += 1;
            let kind = EventKind::WatchdogTimeout {
                batch: id,
                chunk_start,
            };
            self.record(now, Who::Engine, kind);
            let err = TfheError::JobTimedOut {
                chunk_start,
                attempts,
            };
            self.retry(now, id, c, err);
        }
        next
    }

    /// Batch `id`'s result once it has one, its outputs in plan order; the
    /// batch is then forgotten.
    fn finished(&mut self, id: u64) -> Option<Result<Vec<T>, TfheError>> {
        let batch = &self.batches[&id];
        if batch.failed.is_none() && !batch.chunks.iter().all(Chunk::done) {
            return None;
        }
        let batch = self.batches.remove(&id)?;
        if let Some(e) = batch.failed {
            return Some(Err(e));
        }
        let outs = batch.chunks.into_iter().flat_map(|c| match c.state {
            State::Done(outs) => outs,
            _ => unreachable!("every chunk is done"),
        });
        Some(Ok(outs.collect()))
    }
}

type Pool = Supervisor<Arc<BatchRequest>, LweCiphertext>;

/// What the engine and its workers share: the supervisor under its lock,
/// and what a worker needs to run a job.
struct Shared {
    supervisor: Mutex<Pool>,
    /// Notified on every change a thread may wait for: a chunk queued, a
    /// batch finished, the pool stopping.
    changed: Condvar,
    journal: Arc<Journal>,
    server: Arc<ServerKey>,
    plan: FaultPlan,
    output_check: Option<OutputCheck>,
}

impl Shared {
    /// Nothing in a supervisor call panics short of a bug or an allocation
    /// failure, and a worker's own panics are caught outside the lock, so
    /// a poisoned lock is still good to use.
    fn lock(&self) -> MutexGuard<'_, Pool> {
        self.supervisor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Sleep until notified or, with a `timeout`, for that many ns.
    fn wait<'a>(&self, guard: MutexGuard<'a, Pool>, timeout: Option<u64>) -> MutexGuard<'a, Pool> {
        let timeout = Duration::from_nanos(timeout.unwrap_or(u64::MAX));
        let waited = self.changed.wait_timeout(guard, timeout);
        waited.unwrap_or_else(PoisonError::into_inner).0
    }
}

/// Execute one job's bootstraps, with fault-injection hooks, then vet the
/// outputs. Runs under `catch_unwind`: an (injected or organic) panic
/// unwinds out of here and is the caller's to report. `ws` is the worker's
/// long-lived [`BootstrapWorkspace`], so a warm worker's blind rotations
/// are allocation-free.
///
/// Faults stay keyed per ciphertext: each one's `WorkerPanic` and
/// `WedgedJob` sites fire, in ciphertext order, before the chunk's work
/// starts, and its `CorruptOutput` site marks that ciphertext's outputs.
/// The chunk then goes through [`ServerKey::try_bootstrap_chunk`] as a
/// whole, whatever its items' LUT lists look like.
fn run_job(
    shared: &Shared,
    job: &Job<Arc<BatchRequest>>,
    ws: &mut BootstrapWorkspace,
) -> Ran<LweCiphertext> {
    let plan = &shared.plan;
    let mut corrupt = Vec::with_capacity(job.range.len());
    for i in job.range.clone() {
        let key = fault_key(job.batch, i);
        if plan.fires(FaultSite::WorkerPanic, key, job.attempt) {
            panic!(
                "injected fault: worker panic (batch {} ct {i} attempt {})",
                job.batch, job.attempt
            );
        }
        if plan.fires(FaultSite::WedgedJob, key, job.attempt) {
            std::thread::sleep(plan.wedge);
        }
        corrupt.push(plan.fires(FaultSite::CorruptOutput, key, job.attempt));
    }
    let items = job.req.items(job.range.clone());
    let mut outs = match shared.server.try_bootstrap_chunk(&items, ws) {
        Ok(outs) => outs,
        Err(e) => return Ran::Failed(e),
    };
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
    // The check sees batch-relative *output* indices, which run ahead of
    // ciphertext indices on fanout batches.
    let rejected = shared.output_check.as_ref().and_then(|check| {
        let first: usize = (0..job.range.start).map(|i| job.req.output_count(i)).sum();
        (first..)
            .zip(&outs)
            .find_map(|(i, ct)| (!check(i, ct)).then_some(i))
    });
    Ran::Done(outs, rejected)
}

/// Worker thread body: take a job, run it, reply, until the pool stops or
/// the supervisor retires the worker. A respawn is in place — a fresh
/// workspace on the same thread, which has the same recovery semantics
/// as replacing the OS thread (the worker holds no job-local state across
/// jobs) at a fraction of the cost.
fn worker_thread(worker: usize, shared: &Shared) {
    // One workspace for the worker's whole lifetime: after the first job
    // warms it, every later bootstrap runs allocation-free.
    let mut ws = shared.server.workspace();
    loop {
        let job = {
            let mut supervisor = shared.lock();
            loop {
                if let Some(job) = supervisor.take(journal::now()) {
                    break job;
                }
                if supervisor.stopped {
                    return;
                }
                supervisor = shared.wait(supervisor, None);
            }
        };
        let run = catch_unwind(AssertUnwindSafe(|| run_job(shared, &job, &mut ws)));
        // Read before the lock: the job's time excludes waiting for it.
        let now = journal::now();
        let fate = shared
            .lock()
            .reply(now, worker, &job, run.unwrap_or(Ran::Panicked));
        shared.changed.notify_all();
        match fate {
            Fate::Continue => {}
            Fate::Respawn => ws = shared.server.workspace(),
            Fate::Retire => return,
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
    /// of a worker taking it is presumed wedged and re-dispatched (up to
    /// the retry budget); time spent queued behind busy workers does not
    /// count.
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
        let journal = Arc::new(Journal::new());
        let supervisor = Supervisor::new(
            workers,
            self.respawn_budget.unwrap_or(Self::DEFAULT_RESPAWN_BUDGET),
            self.max_retries.unwrap_or(Self::DEFAULT_MAX_RETRIES),
            self.job_timeout.map(dur_ns),
            Arc::clone(&journal),
        );
        let shared = Arc::new(Shared {
            supervisor: Mutex::new(supervisor),
            changed: Condvar::new(),
            journal,
            server,
            plan: self.fault_plan,
            output_check: self.output_check,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bootstrap-worker-{i}"))
                    .spawn(move || worker_thread(i, &shared))
                    .expect("spawn bootstrap worker")
            })
            .collect();
        Ok(BootstrapEngine {
            shared,
            handles,
            chunk_size: self.chunk_size,
        })
    }
}

/// A persistent, self-healing pool of bootstrap workers — spawn once,
/// submit many batches. The recovery machinery (panic isolation and
/// respawn, watchdog, bounded retry, output checks) is configured on
/// [`BootstrapEngineBuilder`].
pub struct BootstrapEngine {
    shared: Arc<Shared>,
    /// Drained by shutdown.
    handles: Vec<std::thread::JoinHandle<()>>,
    chunk_size: Option<usize>,
}

impl std::fmt::Debug for BootstrapEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BootstrapEngine")
            .field("workers", &self.workers())
            .field("chunk_size", &self.chunk_size)
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
        &self.shared.server
    }

    /// Number of worker threads spawned at construction.
    pub fn workers(&self) -> usize {
        self.shared.lock().stats.workers
    }

    /// Totals since construction (or the last
    /// [`reset_stats`](Self::reset_stats)), as one consistent snapshot.
    pub fn stats(&self) -> EngineStats {
        self.shared.lock().stats()
    }

    /// The degraded-mode state machine: `Healthy` while every spawned
    /// worker is alive, `Degraded` once some (but not all) have retired,
    /// `Failed` when none remain or the engine has shut down.
    pub fn health(&self) -> EngineHealth {
        self.shared.lock().health()
    }

    /// Zero the counters and clear the journal, which a dispatcher over the
    /// engine shares (e.g. between bench warm-up and measurement).
    pub fn reset_stats(&self) {
        let mut supervisor = self.shared.lock();
        supervisor.stats = EngineStats {
            workers: supervisor.stats.workers,
            ..EngineStats::default()
        };
        self.shared.journal.clear();
    }

    /// The engine's journal since construction or the last
    /// [`reset_stats`](Self::reset_stats): one [`EventKind::Job`] span per
    /// executed chunk ([`Who::Worker`]) and one instant per fault or
    /// recovery action (worker-local ones under [`Who::Worker`], the
    /// supervisor's decisions about chunks under [`Who::Engine`]).
    pub fn journal(&self) -> &Journal {
        &self.shared.journal
    }

    /// Gracefully stop the pool: let every worker leave, and join them.
    /// Subsequent submissions return [`TfheError::EngineShutDown`].
    /// Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        self.shared.lock().stopped = true;
        self.shared.changed.notify_all();
        for handle in self.handles.drain(..) {
            // A worker's panics were caught and replied; nothing useful in
            // the payload.
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
            None => balanced_chunks(n, self.workers()).collect(),
        }
    }

    /// Queue the batch, then wait for its result, running the watchdog
    /// whenever it is due.
    fn submit(&self, req: Arc<BatchRequest>) -> Result<Vec<LweCiphertext>, TfheError> {
        if req.is_empty() {
            return Ok(Vec::new());
        }
        // Validate eagerly so errors surface here, not inside the pool.
        self.shared.server.validate_request(&req)?;
        let ranges = self.chunk_plan(req.len());
        let mut supervisor = self.shared.lock();
        let batch = supervisor.dispatch(req, ranges)?;
        self.shared.changed.notify_all();
        loop {
            if let Some(result) = supervisor.finished(batch) {
                return result;
            }
            let (now, timeouts) = (journal::now(), supervisor.stats.watchdog_timeouts);
            let due = supervisor.tick(now);
            // Wake the others only for a chunk re-queued or failed: waking
            // them on every tick would keep two submitters waking each other.
            if supervisor.stats.watchdog_timeouts > timeouts {
                self.shared.changed.notify_all();
            }
            let timeout = due.map(|at| at.saturating_sub(now));
            supervisor = self.shared.wait(supervisor, timeout);
        }
    }
}

/// The pooled backend: requests route through the persistent self-healing
/// worker pool, which executes immediately (put a
/// [`Dispatcher`](crate::dispatch::Dispatcher) in front for
/// deadline-aware batching).
impl Bootstrapper for BootstrapEngine {
    fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
        self.submit(Arc::new(req.clone()))
    }

    fn health(&self) -> EngineHealth {
        BootstrapEngine::health(self)
    }

    fn journal(&self) -> Option<&Arc<Journal>> {
        Some(&self.shared.journal)
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

    /// Route a batch with a list of one LUT per ciphertext through the
    /// trait surface.
    fn bbm(
        b: &impl Bootstrapper,
        cts: &[LweCiphertext],
        luts: &[Lut],
        lut_of: &[usize],
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        let lists = lut_of.iter().map(|&j| vec![j]).collect();
        b.try_bootstrap_batch(&BatchRequest::fanned_out(
            cts.to_vec(),
            luts.to_vec(),
            lists,
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
        let sk = Arc::new(ServerKey::new(&ck, &mut rng));
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
        let lists = vec![(0..luts.len()).collect(); cts.len()];
        let req = BatchRequest::fanned_out(cts, luts, lists).unwrap();
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
        let lists = vec![(0..luts.len()).collect(); cts.len()];
        let req = BatchRequest::fanned_out(cts, luts, lists).unwrap();
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
            Err(TfheError::FanoutLengthMismatch {
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
        assert_eq!(engine.shared.lock().alive(), 2);
        assert_eq!(engine.health(), EngineHealth::Healthy);
        engine.shutdown();
        assert_eq!(engine.shared.lock().alive(), 0);
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
        assert_eq!(stats.retries, stats.panics, "every panic retried once");
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
        // Every job panics; zero respawns: the single worker retires on
        // the first job, and the reply that retires it fails the batch —
        // the pool is dead by the time the submitter returns.
        let engine = BootstrapEngine::builder()
            .workers(1)
            .respawn_budget(0)
            .max_retries(1)
            .fault_plan(FaultPlan::seeded(1).with_worker_panic(1.0))
            .build(Arc::clone(&sk))
            .unwrap();
        assert_eq!(
            bb(&engine, &cts, &lut).err(),
            Some(TfheError::EngineShutDown)
        );
        assert_eq!(engine.shared.lock().alive(), 0);
        assert_eq!(engine.health(), EngineHealth::Failed);
        // Later submissions fail fast.
        assert_eq!(
            bb(&engine, &cts, &lut).err(),
            Some(TfheError::EngineShutDown)
        );
        assert_eq!(engine.stats().retries, 0, "a dead pool retries nothing");
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
        assert!((1..=8).contains(&engine.shared.lock().max_retries));
    }

    // The supervisor on virtual time: a pool of virtual workers runs the
    // fault plan's panics, wedges and corruptions against it, and every
    // contract is checked after every step.

    use rand::Rng;
    use std::collections::BTreeMap;

    /// The bit a corrupted output has flipped.
    const FLIP: u64 = 1 << 63;
    /// How much longer a wedged job runs, in virtual ns.
    const WEDGE: u64 = 150;

    /// What a clean run of ciphertexts `range` of batch `batch` outputs.
    fn clean(batch: u64, range: Range<usize>) -> Vec<u64> {
        range.map(|i| (batch << 32) | i as u64).collect()
    }

    #[derive(Debug)]
    enum Worker {
        Idle,
        /// Running `job`, which comes to `ran` at `until`.
        Busy {
            job: Job<()>,
            until: u64,
            ran: Ran<u64>,
        },
        Retired,
    }

    /// What the sweep counts: panics, retirements, watchdog timeouts,
    /// check failures, replies dropped as late or superseded, batches
    /// served, batches failed, dead pools, batches served after their
    /// pool died.
    type Reached = [u64; 9];

    struct Sweep {
        seed: u64,
        sup: Supervisor<(), u64>,
        journal: Arc<Journal>,
        plan: FaultPlan,
        check: bool,
        budget: u32,
        workers: Vec<Worker>,
        /// The model: panicked replies per worker, the chunks resolved and
        /// their outputs, busy time, and the journal's counts so far.
        panics: Vec<u32>,
        resolved: BTreeMap<(u64, usize), Vec<u64>>,
        in_flight: Vec<u64>,
        busy: u64,
        counted: BTreeMap<&'static str, u64>,
        rotations: (u64, u64),
        events: Vec<Event>,
        reached: Reached,
    }

    impl Sweep {
        /// What worker-side `job` comes to, and how long it takes: the
        /// plan's decisions for its ciphertexts at its attempt, as
        /// `run_job` makes them.
        fn run(&self, job: &Job<()>, rng: &mut StdRng) -> (u64, Ran<u64>) {
            let fires = |site, i| self.plan.fires(site, fault_key(job.batch, i), job.attempt);
            let mut range = job.range.clone();
            let wedged = range.clone().any(|i| fires(FaultSite::WedgedJob, i));
            let cost = job.range.len() as u64 * rng.gen_range(1..=3u64) + u64::from(wedged) * WEDGE;
            if range.any(|i| fires(FaultSite::WorkerPanic, i)) {
                return (cost, Ran::Panicked);
            }
            let mut outs = clean(job.batch, job.range.clone());
            for (i, out) in (job.range.start..).zip(&mut outs) {
                if fires(FaultSite::CorruptOutput, i) {
                    *out ^= FLIP;
                }
            }
            let rejected = (job.range.start..)
                .zip(&outs)
                .find_map(|(i, &v)| (self.check && v & FLIP != 0).then_some(i));
            (cost, Ran::Done(outs, rejected))
        }

        /// `(batch, chunk, attempt)` of every chunk a worker may take.
        fn queued(&self) -> Vec<(u64, usize, u32)> {
            let live = self.sup.batches.iter().filter(|(_, b)| b.failed.is_none());
            live.flat_map(|(&id, b)| {
                let chunks = b.chunks.iter().enumerate();
                chunks
                    .filter(|(_, c)| matches!(c.state, State::Queued))
                    .map(move |(c, chunk)| (id, c, chunk.attempt))
            })
            .collect()
        }

        /// Idle worker `w` asks for work: it gets a queued chunk's current
        /// attempt, or nothing only when no chunk is queued.
        fn take(&mut self, now: u64, w: usize, rng: &mut StdRng) {
            let (queued, seed) = (self.queued(), self.seed);
            let Some(job) = self.sup.take(now) else {
                assert!(queued.is_empty(), "seed {seed}: {queued:?} not handed out");
                return;
            };
            let key = (job.batch, job.chunk, job.attempt);
            assert!(queued.contains(&key), "seed {seed}: took {key:?}");
            assert!(
                job.attempt <= self.sup.max_retries,
                "seed {seed}: over budget"
            );
            let (cost, ran) = self.run(&job, rng);
            let until = now + cost;
            self.workers[w] = Worker::Busy { job, until, ran };
        }

        /// The chunk `job` ran, as `(attempt, outputs if resolved)`, while
        /// its batch is live.
        fn chunk(&self, job: &Job<()>) -> Option<(u32, Option<Vec<u64>>)> {
            let batch = self.sup.batches.get(&job.batch)?;
            let chunk = &batch.chunks[job.chunk];
            let outs = match &chunk.state {
                State::Done(outs) => Some(outs.clone()),
                _ => None,
            };
            batch.failed.is_none().then_some((chunk.attempt, outs))
        }

        /// Busy worker `w` replies at `now`.
        fn reply(&mut self, now: u64, w: usize) {
            let Worker::Busy { job, ran, .. } =
                std::mem::replace(&mut self.workers[w], Worker::Idle)
            else {
                unreachable!("only a busy worker replies");
            };
            let seed = self.seed;
            let before = self.chunk(&job);
            let live = matches!(before, Some((attempt, None)) if attempt == job.attempt);
            let success = matches!(ran, Ran::Done(_, None));
            let panicked = matches!(ran, Ran::Panicked);
            let rejected = matches!(ran, Ran::Done(_, Some(_)));
            self.reached[3] += u64::from(live && rejected);
            let counts = (self.sup.stats.retries, self.sup.stats.check_failures);
            let fate = self.sup.reply(now, w, &job, ran);
            self.busy += now - job.started;
            let mut want = Fate::Continue;
            if panicked {
                self.panics[w] += 1;
                self.reached[0] += 1;
                want = if self.panics[w] <= self.budget {
                    Fate::Respawn
                } else {
                    Fate::Retire
                };
            }
            assert_eq!(fate, want, "seed {seed}: worker {w}");
            if fate == Fate::Retire {
                self.workers[w] = Worker::Retired;
                self.reached[1] += 1;
            }
            let after = self.chunk(&job);
            match (&before, &after) {
                // Resolved by this reply: the first and only time, and
                // only by a success (of any attempt: every copy is equal).
                (Some((_, None)), Some((_, Some(outs)))) => {
                    assert!(success, "seed {seed}: resolved by a failure");
                    if self.check {
                        assert_eq!(*outs, clean(job.batch, job.range.clone()), "seed {seed}");
                    }
                    let first = self.resolved.insert((job.batch, job.chunk), outs.clone());
                    assert!(first.is_none(), "seed {seed}: resolved twice");
                }
                // A late copy changes nothing (unless it killed the pool).
                (Some((_, Some(_))), Some(_)) => assert_eq!(before, after, "seed {seed}"),
                _ => {}
            }
            // A live transient failure in a live pool is retried exactly
            // once, or ends its batch once the chunk's retries are spent.
            if live && (panicked || rejected) && self.sup.alive() > 0 {
                let retried = self.sup.stats.retries - counts.0;
                let (attempt, _) = before.expect("a live chunk");
                if attempt < self.sup.max_retries {
                    assert_eq!(retried, 1, "seed {seed}: not retried once");
                    assert_eq!(after, Some((attempt + 1, None)), "seed {seed}");
                } else {
                    assert_eq!(retried, 0, "seed {seed}: retried past budget");
                    assert_eq!(after, None, "seed {seed}: batch not failed");
                }
            }
            if !live && !success {
                let now_counts = (self.sup.stats.retries, self.sup.stats.check_failures);
                assert_eq!(
                    now_counts, counts,
                    "seed {seed}: a dropped reply was acted on"
                );
                self.reached[4] += 1;
            }
        }

        /// The watchdog at `now` times out exactly the chunks held for the
        /// timeout or longer, in order, and retries each once — or fails
        /// its batch once its retries are spent, which spares the batch's
        /// later chunks.
        fn tick(&mut self, now: u64) {
            let (limit, seed) = (self.sup.timeout, self.seed);
            let (mut timeouts, mut retries) = (0, 0);
            for batch in self.sup.batches.values().filter(|b| b.failed.is_none()) {
                for chunk in &batch.chunks {
                    let State::Running { since } = chunk.state else {
                        continue;
                    };
                    if limit.is_some_and(|l| since + l <= now) {
                        timeouts += 1;
                        if chunk.attempt >= self.sup.max_retries {
                            break;
                        }
                        retries += 1;
                    }
                }
            }
            let counts = |s: &EngineStats| (s.watchdog_timeouts, s.retries);
            let before = counts(&self.sup.stats);
            let next = self.sup.tick(now);
            let after = counts(&self.sup.stats);
            let got = (after.0 - before.0, after.1 - before.1);
            assert_eq!(got, (timeouts, retries), "seed {seed}");
            assert!(next.is_none_or(|n| n > now), "seed {seed}");
            assert!(limit.is_some() || next.is_none(), "seed {seed}");
            self.reached[2] += timeouts;
        }

        /// The submitter of batch `id` looks for its result: there once
        /// the batch failed or every chunk resolved, each exactly once.
        fn poll(&mut self, id: u64) {
            let seed = self.seed;
            let batch = &self.sup.batches[&id];
            let chunks = batch.chunks.len();
            let resolved = batch.chunks.iter().all(Chunk::done);
            let over = batch.failed.is_some() || resolved;
            let Some(result) = self.sup.finished(id) else {
                assert!(!over, "seed {seed}: batch {id} is over");
                return;
            };
            assert!(over, "seed {seed}: batch {id} finished early");
            self.in_flight.retain(|&b| b != id);
            let outs: Vec<Vec<u64>> = (0..chunks)
                .filter_map(|c| self.resolved.remove(&(id, c)))
                .collect();
            let dead = self.workers.iter().all(|w| matches!(w, Worker::Retired));
            match result {
                Ok(got) => {
                    assert_eq!(outs.len(), chunks, "seed {seed}: a chunk unresolved");
                    assert_eq!(got, outs.concat(), "seed {seed}: outputs out of order");
                    if self.check {
                        assert_eq!(got, clean(id, 0..got.len()), "seed {seed}");
                    }
                    self.reached[5] += 1;
                    self.reached[8] += u64::from(dead);
                }
                Err(e) => {
                    // Every chunk resolved: the pool dying since changes
                    // nothing.
                    assert!(!resolved, "seed {seed}: batch {id} resolved, got {e:?}");
                    let why = match e {
                        TfheError::WorkerPanicked { .. } => true,
                        TfheError::OutputCheckFailed { .. } => self.check,
                        TfheError::JobTimedOut { .. } => self.sup.timeout.is_some(),
                        TfheError::EngineShutDown => dead,
                        _ => false,
                    };
                    assert!(why, "seed {seed}: batch {id} failed with {e:?}");
                    self.reached[6] += 1;
                }
            }
        }

        /// Every contract that reads off the state, after every step.
        fn check(&mut self) {
            let (s, seed) = (self.sup.stats(), self.seed);
            // Health follows the respawn counts.
            for (w, &p) in self.panics.iter().enumerate() {
                let want = self.budget.checked_sub(p);
                assert_eq!(self.sup.respawns_left[w], want, "seed {seed}: worker {w}");
                let retired = matches!(self.workers[w], Worker::Retired);
                assert_eq!(want.is_none(), retired, "seed {seed}: worker {w}");
            }
            let alive = self.sup.respawns_left.iter().flatten().count();
            let health = match alive {
                0 => EngineHealth::Failed,
                n if n < self.workers.len() => EngineHealth::Degraded,
                _ => EngineHealth::Healthy,
            };
            assert_eq!(s.health, health, "seed {seed}");
            let respawns: u32 = self.panics.iter().map(|&p| p.min(self.budget)).sum();
            let panics: u32 = self.panics.iter().sum();
            assert_eq!(
                (s.panics, s.respawns),
                (panics.into(), respawns.into()),
                "seed {seed}"
            );
            // No chunk has more attempts than the budget, and a resolved
            // chunk holds what resolved it.
            for (&id, batch) in &self.sup.batches {
                for (c, chunk) in batch.chunks.iter().enumerate() {
                    assert!(chunk.attempt <= self.sup.max_retries, "seed {seed}");
                    if let State::Done(outs) = &chunk.state {
                        assert_eq!(Some(outs), self.resolved.get(&(id, c)), "seed {seed}");
                    }
                }
            }
            // The counts equal the journal's.
            let new = self.journal.events();
            self.journal.clear();
            for e in &new {
                *self.counted.entry(e.kind.label()).or_default() += 1;
                if let EventKind::Job {
                    bootstraps,
                    extractions,
                } = e.kind
                {
                    self.rotations.0 += bootstraps as u64;
                    self.rotations.1 += extractions as u64;
                }
            }
            self.events.extend(new);
            let n = |label| self.counted.get(label).copied().unwrap_or(0);
            let got = [
                s.panics,
                s.respawns,
                s.retries,
                s.watchdog_timeouts,
                s.check_failures,
            ];
            let want = [
                n("worker_panic"),
                n("worker_respawn"),
                n("retry"),
                n("watchdog_timeout"),
                n("output_check_failed"),
            ];
            assert_eq!(got, want, "seed {seed}");
            assert_eq!(n("respawn_exhausted"), self.reached[1], "seed {seed}");
            assert_eq!((s.bootstraps, s.extractions), self.rotations, "seed {seed}");
            assert_eq!(s.busy, Duration::from_nanos(self.busy), "seed {seed}");
        }
    }

    /// Run one seed: 1–4 workers with 0–3 respawns each, 0–4 retries, a
    /// watchdog two times in three, an output check half the time, and a
    /// fault plan of panics, wedges and corruptions at 0–30% each; up to
    /// three batches of 1–8 ciphertexts in flight. Random steps, then a
    /// drain that must finish every batch. Returns the journal and the
    /// outcomes reached.
    fn sweep(seed: u64) -> (Vec<Event>, Reached) {
        let mut rng = StdRng::seed_from_u64(0xE9_61AE ^ seed);
        let workers = rng.gen_range(1..=4usize);
        let budget = rng.gen_range(0..=3);
        let max_retries = rng.gen_range(0..=4);
        let timeout = (rng.gen_range(0..3) > 0).then(|| rng.gen_range(20..=60));
        let rate = |rng: &mut StdRng| f64::from(rng.gen_range(0..4u8)) * 0.1;
        let plan = FaultPlan::seeded(seed)
            .with_worker_panic(rate(&mut rng))
            .with_wedged_job(rate(&mut rng), Duration::ZERO)
            .with_corrupt_output(rate(&mut rng));
        let chunk = rng.gen_range(0..=3usize);
        let journal = Arc::new(Journal::new());
        let mut s = Sweep {
            seed,
            sup: Supervisor::new(workers, budget, max_retries, timeout, Arc::clone(&journal)),
            journal,
            plan,
            check: rng.gen(),
            budget,
            workers: (0..workers).map(|_| Worker::Idle).collect(),
            panics: vec![0; workers],
            resolved: BTreeMap::new(),
            in_flight: Vec::new(),
            busy: 0,
            counted: BTreeMap::new(),
            rotations: (0, 0),
            events: Vec::new(),
            reached: [0; 9],
        };
        let mut now = 0;
        let (steps, mut next_id) = (rng.gen_range(10..150), 0);
        for step in 0.. {
            let draining = step >= steps;
            if draining && s.in_flight.is_empty() {
                break;
            }
            assert!(step < steps + 10_000, "seed {seed}: the drain hung");
            now += rng.gen_range(0..=4u64);
            match rng.gen_range(0..5) {
                0 if !draining && s.in_flight.len() < 3 => {
                    let n = rng.gen_range(1..=8);
                    let ranges: Vec<Range<usize>> = match chunk {
                        0 => balanced_chunks(n, workers).collect(),
                        c => (0..n).step_by(c).map(|i| i..(i + c).min(n)).collect(),
                    };
                    match s.sup.dispatch((), ranges) {
                        Ok(id) => {
                            assert_eq!(id, next_id, "seed {seed}");
                            s.in_flight.push(id);
                        }
                        Err(e) => {
                            assert_eq!(e, TfheError::EngineShutDown, "seed {seed}");
                            assert!(s.workers.iter().all(|w| matches!(w, Worker::Retired)));
                            s.reached[7] += 1;
                        }
                    }
                    next_id += 1;
                }
                1 | 2 => {
                    let w = rng.gen_range(0..workers);
                    match s.workers[w] {
                        Worker::Idle => s.take(now, w, &mut rng),
                        Worker::Busy { until, .. } if until <= now => s.reply(now, w),
                        _ => {}
                    }
                }
                3 => s.tick(now),
                _ if !s.in_flight.is_empty() => {
                    let id = s.in_flight[rng.gen_range(0..s.in_flight.len())];
                    s.poll(id);
                }
                _ => {}
            }
            s.check();
        }
        assert_eq!(s.sup.stats.batches, next_id - s.reached[7], "seed {seed}");
        assert!(
            s.resolved.is_empty(),
            "seed {seed}: outputs never collected"
        );
        (s.events, s.reached)
    }

    /// The supervisor's contracts over 1 000 seeds on virtual time
    /// (`Sweep::check` after every step, and the drain finishing every
    /// batch); the seeds reach every outcome, and each replays exactly.
    #[test]
    fn a_thousand_seeds_keep_every_supervisor_contract() {
        let mut reached: Reached = [0; 9];
        for seed in 0..1_000 {
            let out = sweep(seed);
            assert!(out == sweep(seed), "seed {seed} did not replay");
            for (sum, n) in reached.iter_mut().zip(out.1) {
                *sum += n;
            }
        }
        // A batch that resolves just before its pool dies is the rare one.
        let (common, rare) = reached.split_at(8);
        assert!(common.iter().all(|&n| n > 20) && rare[0] > 5, "{reached:?}");
    }
}
