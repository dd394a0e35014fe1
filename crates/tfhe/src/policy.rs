//! The serving core — the paper's §V software scheduler and everything
//! that happens to a request around it — as a pure state machine.
//!
//! [`ServingCore`] owns the front door, the admission queue, the batch
//! being formed, and what a backend outcome does to a batch that ran. It
//! reads no clock, takes no lock of its own and never waits. Time is an
//! argument (`u64` nanoseconds since an epoch the caller picks; every sum
//! and difference saturates), cancellation is a predicate the caller
//! passes, and each decision comes back as a value for the caller to act
//! on. The dispatcher's batcher passes the wall clock and turns
//! [`Poll::WaitUntil`] into a timed wait (`dispatch.rs`); [`drive`], the
//! one virtual-time loop, runs the same code under the autotuner's
//! simulation (`autotune.rs`) and under the tests' scripted backends — so
//! what the autotuner predicts, what the chaos sweep checks and what the
//! dispatcher does cannot drift apart.
//!
//! The rules (DESIGN.md §8 has them as one transition table):
//!
//! - **admission**: a closed door refuses, then the breakers shed — only
//!   while every tier's breaker is cooling down — then a full queue
//!   refuses; only an admitted request gets an id;
//! - a batch is **seeded** by the oldest live, ready request; **joiners**
//!   are the live, ready requests of its affinity class (its tenant;
//!   tenantless is a class of its own), in queue order, up to
//!   `max_batch_size` — so one server key serves the whole batch. Other
//!   classes stay queued in order;
//! - the batch **flushes** when it is full, when no batch it routed is
//!   still running (work-conserving: it waits for joiners only while the
//!   backend is busy), when `flush_at` arrives — its oldest member's
//!   arrival plus `max_linger`, lowered by every member's deadline minus
//!   `deadline_slack` — or when the door is closed (draining);
//! - at flush time **one sweep** over queue and batch hands back every
//!   entry that was cancelled or whose deadline is not after `now` (the
//!   latest acceptable execution *start*: `deadline == now` is too late);
//! - **completion**: success serves the batch. A *permanent* error on
//!   n > 1 members is somebody's fault: they run once more, each alone, at
//!   once and in order, so only the culprit keeps the error. A *retryable*
//!   error is nobody's: the batch runs again at once on the next tier
//!   that admits (a **failover**, which spends no retry); once every tier
//!   has failed or refused, whatever n is, each member within
//!   [`ServingConfig::retry`]'s budget goes back into the queue at its
//!   place in admission order — never refused by `queue_capacity`, not
//!   ready before its backoff ends, expired at once if that would be at
//!   or after its deadline. Such an entry is queue content like any
//!   other: the sweep, [`take_all`](ServingCore::take_all) and a drain
//!   see it, and a drain runs it without waiting out the backoff;
//! - **tiers**: a batch runs on the first of the dispatcher's ordered
//!   backends whose breaker admits it given the backend's
//!   [`health`](crate::Bootstrapper::health), skipping the others; with
//!   none left, the error is the last backend fault, or
//!   [`TfheError::Overloaded`] if no call was made.
//!
//! The core also keeps the serving counts ([`Tally`]), each bumped where
//! the decision it counts is made, so the dispatcher's
//! [`DispatcherStats`] and the autotuner's prediction are one snapshot of
//! one tally: admission counts `submitted`, `shed` and a final queue-full
//! refusal, a flush counts the sweep's drops and the batch it hands out,
//! `route` counts outcomes, failovers, each tier's served batches, retries
//! and latency samples (`now − enqueued`), and `take_all` counts what it
//! hands back as failed.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use crate::dispatch::{DispatcherStats, TenantDispatchStats};
use crate::engine::EngineHealth;
use crate::error::TfheError;
use crate::faults;
use crate::journal::{Event, EventKind, Journal, Who};
use crate::keystore::TenantId;
use crate::resilience::CircuitBreaker;
use crate::serving::ServingConfig;

/// `d` in whole nanoseconds, saturating (a `Duration` holds up to 2^64 s).
pub(crate) fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One admitted request as the core sees it. `item` is the caller's own
/// payload.
#[derive(Clone, Debug)]
pub(crate) struct Entry<T> {
    pub(crate) item: T,
    /// Minted at admission, ascending; also the retry-jitter key.
    pub(crate) id: u64,
    /// Only entries of equal affinity share a batch.
    pub(crate) affinity: Option<TenantId>,
    /// When it was admitted. A retry keeps it: time spent failing and
    /// backing off is queue wait.
    pub(crate) enqueued_ns: u64,
    pub(crate) deadline_ns: Option<u64>,
    /// Retries so far.
    pub(crate) attempt: u32,
    /// Not seeded or joined before this (0 until a retry backs it off).
    pub(crate) ready_at: u64,
}

/// What the caller should do next.
#[derive(Debug)]
pub(crate) enum Poll<T> {
    /// Nothing queued, nothing forming: wait for an
    /// [`admit`](ServingCore::admit).
    Idle,
    /// A batch is forming or a retry is backing off; poll again at this
    /// time or after the next admission, whichever is first.
    WaitUntil(u64),
    /// Hand a non-empty `batch` to [`route`](ServingCore::route) (it can be
    /// empty when the sweep took every member), and resolve each of
    /// `dropped` as tagged: [`TfheError::Cancelled`] or
    /// [`TfheError::DeadlineExceeded`].
    Flush {
        batch: Vec<Entry<T>>,
        dropped: Vec<(Entry<T>, TfheError)>,
    },
}

/// Where a routed batch goes next.
#[derive(Debug)]
pub(crate) enum Done<T> {
    /// Run `batch` on tier `tier` now, and route the answer back.
    Run { tier: usize, batch: Vec<Entry<T>> },
    /// Served: hand each member its output.
    Served(Vec<Entry<T>>),
    /// Failed. Resolve each of these with its error; the other members
    /// went back into the queue or (a permanent error on more than one
    /// member) run next, each alone.
    Failed(Vec<(Entry<T>, TfheError)>),
}

/// Latency samples kept per reservoir. 4096 points give sub-percent
/// error on p99 while bounding memory at 32 KiB per reservoir no matter
/// how long the dispatcher serves.
const LATENCY_RESERVOIR_CAP: usize = 4096;
/// Hash domain separating reservoir replacement decisions from the fault
/// injector's other deterministic draws.
const RESERVOIR_DOMAIN: u64 = 0x7265_7376; // "rsv"

/// Fixed-size latency sample: Algorithm R with the crate's seeded hash
/// ([`faults::unit_sample`]) in place of an RNG, so long-running servers
/// keep bounded memory *and* byte-reproducible percentiles.
///
/// Below capacity the reservoir stores every sample exactly, so
/// percentiles over small runs are identical to the unbounded history
/// the dispatcher used to keep. Past capacity, sample `i` (1-based)
/// replaces a hash-chosen resident with probability `cap / i` — the
/// classic uniform reservoir, minus the nondeterminism.
#[derive(Clone, Default)]
struct LatencyReservoir {
    seed: u64,
    samples: Vec<u64>,
    seen: u64,
}

impl LatencyReservoir {
    fn push(&mut self, ns: u64) {
        self.seen += 1;
        if self.samples.len() < LATENCY_RESERVOIR_CAP {
            self.samples.push(ns);
            return;
        }
        // unit_sample is uniform on [0, 1), so j is uniform on
        // [0, seen); the sample survives iff j lands inside the
        // reservoir — probability cap/seen, exactly Algorithm R.
        let j = (faults::unit_sample(self.seed, RESERVOIR_DOMAIN, self.seen, 0) * self.seen as f64)
            as u64;
        if (j as usize) < self.samples.len() {
            self.samples[j as usize] = ns;
        }
    }

    /// Ascending copy of the resident samples, ready for [`percentile`].
    fn sorted(&self) -> Vec<u64> {
        let mut v = self.samples.clone();
        v.sort_unstable();
        v
    }
}

/// Nearest-rank percentile over an ascending-sorted ns array.
///
/// Uses the zero-based nearest-rank index `ceil((len − 1) · q)`, so the
/// quantile is monotone in `q`, stays within `[min, max]`, is exact on
/// singletons, and — unlike the naive `ceil(len · q)` rank — does not
/// under-report on tiny samples (the p50 of `[a, b]` is `b`, not `a`).
fn percentile(sorted: &[u64], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = (((sorted.len() - 1) as f64) * q.clamp(0.0, 1.0)).ceil() as usize;
    Duration::from_nanos(sorted[idx.min(sorted.len() - 1)])
}

/// The serving counts, each bumped by the [`ServingCore`] call that makes
/// the decision it counts (module docs). A reservoir's `seen` is its
/// completions.
#[derive(Clone, Default)]
pub(crate) struct Tally {
    submitted: u64,
    rejected: u64,
    shed: u64,
    cancelled: u64,
    expired: u64,
    failed: u64,
    batches: u64,
    batched: u64,
    retries: u64,
    failovers: u64,
    /// Batches served, per tier.
    served: Vec<u64>,
    /// First admission and last completion: the throughput window.
    first_ns: Option<u64>,
    last_ns: u64,
    latencies: LatencyReservoir,
    /// By raw tenant id, each seeded with it so that tenants' replacement
    /// patterns decorrelate deterministically.
    per_tenant: BTreeMap<u64, LatencyReservoir>,
}

impl Tally {
    /// A request resolved with `why` without being served.
    fn resolved(&mut self, why: &TfheError) {
        *match why {
            TfheError::Cancelled => &mut self.cancelled,
            TfheError::DeadlineExceeded => &mut self.expired,
            _ => &mut self.failed,
        } += 1;
    }

    /// Backend calls made so far.
    pub(crate) fn batches(&self) -> u64 {
        self.batches
    }

    /// The counts as [`DispatcherStats`].
    pub(crate) fn stats(&self) -> DispatcherStats {
        let completed = self.latencies.seen;
        // First admission to last completion (0 before both).
        let window_ns = (self.first_ns).map_or(0, |first| self.last_ns.saturating_sub(first));
        let ratio = |n: u64, d: f64| if d > 0.0 { n as f64 / d } else { 0.0 };
        let [p50, p95, p99] = quantiles(&self.latencies);
        let per_tenant = self.per_tenant.iter().map(|(&tenant, r)| {
            let [p50_latency, p95_latency, p99_latency] = quantiles(r);
            TenantDispatchStats {
                tenant,
                completed: r.seen,
                p50_latency,
                p95_latency,
                p99_latency,
            }
        });
        DispatcherStats {
            submitted: self.submitted,
            rejected: self.rejected,
            cancelled: self.cancelled,
            expired: self.expired,
            completed,
            failed: self.failed,
            batches: self.batches,
            batched: self.batched,
            retries: self.retries,
            shed: self.shed,
            failovers: self.failovers,
            served_by_tier: self.served.clone(),
            mean_batch_size: ratio(self.batched, self.batches as f64),
            p50_latency: p50,
            p95_latency: p95,
            p99_latency: p99,
            throughput_bs: ratio(completed, window_ns as f64 / 1e9),
            per_tenant: per_tenant.collect(),
        }
    }
}

/// p50, p95 and p99 of a reservoir.
fn quantiles(r: &LatencyReservoir) -> [Duration; 3] {
    let sorted = r.sorted();
    [0.50, 0.95, 0.99].map(|q| percentile(&sorted, q))
}

/// One backend tier: the scope its breaker transitions, skips and
/// failovers are recorded under, and its breaker, which hears one outcome
/// per call to the tier.
#[derive(Clone)]
struct Tier {
    scope: Arc<str>,
    breaker: Option<CircuitBreaker>,
}

#[cfg_attr(test, derive(Clone))]
pub(crate) struct ServingCore<T> {
    cfg: ServingConfig,
    /// In the order they are tried; tier 0's scope, `"dispatcher"`, also
    /// holds the front door's sheds and retries.
    tiers: Vec<Tier>,
    journal: Arc<Journal>,
    /// `false` once shutdown begins: admission closed, queue draining.
    open: bool,
    next_id: u64,
    /// Admitted and waiting, in admission order.
    queue: VecDeque<Entry<T>>,
    /// The batch being formed, in admission order. Members no longer
    /// count against `queue_capacity`.
    forming: Vec<Entry<T>>,
    /// When `forming` flushes even if it is not full.
    flush_at: u64,
    /// Batches routed and not yet served or failed; `forming` waits for
    /// joiners only while this is above zero.
    running: usize,
    /// Members of a batch that failed permanently, each about to run alone.
    isolating: VecDeque<Entry<T>>,
    tally: Tally,
}

impl<T> ServingCore<T> {
    /// A core under `cfg`'s knobs, recording into `journal`, over tier 0
    /// (the dispatcher's `build` backend) and one tier per `fallbacks`
    /// name, each with a breaker from `cfg.breaker`.
    pub(crate) fn new(cfg: &ServingConfig, journal: Arc<Journal>, fallbacks: &[Arc<str>]) -> Self {
        let scopes = std::iter::once("dispatcher".into()).chain(fallbacks.iter().cloned());
        let tier = |scope| Tier {
            scope,
            breaker: cfg.breaker.map(CircuitBreaker::new),
        };
        Self {
            cfg: cfg.clone(),
            tiers: scopes.map(tier).collect(),
            journal,
            open: true,
            next_id: 0,
            queue: VecDeque::new(),
            forming: Vec::new(),
            flush_at: 0,
            running: 0,
            isolating: VecDeque::new(),
            tally: Tally {
                served: vec![0; 1 + fallbacks.len()],
                ..Tally::default()
            },
        }
    }

    /// The serving counts so far.
    pub(crate) fn tally(&self) -> &Tally {
        &self.tally
    }

    /// Record `kind`, if any, under tier `tier`'s scope.
    fn record(&self, tier: usize, at_ns: u64, kind: impl Into<Option<EventKind>>) {
        if let Some(kind) = kind.into() {
            let who = Who::Scope(Arc::clone(&self.tiers[tier].scope));
            self.journal.record(Event::at(at_ns, who, kind));
        }
    }

    pub(crate) fn is_open(&self) -> bool {
        self.open
    }

    /// Close admission for good; what is queued drains.
    pub(crate) fn close(&mut self) {
        self.open = false;
    }

    /// The front door at `now`: admit `item` and mint its id, or hand it
    /// back with the reason — [`TfheError::DispatcherShutDown`] behind a
    /// closed door, [`TfheError::Overloaded`] when it sheds (hinting at the
    /// soonest end of a cooldown),
    /// [`TfheError::QueueFull`] at capacity, a refusal only unless the
    /// caller `waits_for_room` and will offer `item` again.
    pub(crate) fn admit(
        &mut self,
        now: u64,
        affinity: Option<TenantId>,
        deadline_ns: Option<u64>,
        item: T,
        waits_for_room: bool,
    ) -> Result<u64, (TfheError, T)> {
        if !self.open {
            return Err((TfheError::DispatcherShutDown, item));
        }
        // Asking moves no breaker: a tier is admitted, its health read,
        // when a batch is routed to it.
        let cooling = self.tiers.iter().map(|t| t.breaker.as_ref()?.cooling(now));
        if let Some(left) = cooling
            .reduce(|a, b| a.zip(b).map(|(a, b)| a.min(b)))
            .flatten()
        {
            self.record(0, now, EventKind::Shed);
            self.tally.shed += 1;
            let retry_after = Duration::from_nanos(left);
            return Err((TfheError::Overloaded { retry_after }, item));
        }
        let capacity = self.cfg.queue_capacity;
        if self.queue.len() >= capacity {
            self.tally.rejected += u64::from(!waits_for_room);
            return Err((TfheError::QueueFull { capacity }, item));
        }
        let id = self.next_id;
        self.next_id += 1;
        self.tally.submitted += 1;
        self.tally.first_ns.get_or_insert(now);
        self.queue.push_back(Entry {
            item,
            id,
            affinity,
            enqueued_ns: now,
            deadline_ns,
            attempt: 0,
            ready_at: 0,
        });
        Ok(id)
    }

    /// Advance the core to `now`. Only `Flush` removes anything, so a
    /// repeated poll at the same `now` repeats `Idle` / `WaitUntil`.
    pub(crate) fn poll(&mut self, now: u64, is_cancelled: impl Fn(&T) -> bool) -> Poll<T> {
        let draining = !self.open;
        let doom = |e: &Entry<T>| {
            if is_cancelled(&e.item) {
                Some(TfheError::Cancelled)
            } else if e.deadline_ns.is_some_and(|d| d <= now) {
                Some(TfheError::DeadlineExceeded)
            } else {
                None
            }
        };
        // A drain does not wait out a backoff.
        let ready = |e: &Entry<T>| draining || e.ready_at <= now;
        if let Some(alone) = self.isolating.pop_front() {
            return match doom(&alone) {
                Some(why) => self.flush(Vec::new(), vec![(alone, why)]),
                None => self.flush(vec![alone], Vec::new()),
            };
        }
        if self.forming.is_empty() {
            if self.queue.is_empty() {
                return Poll::Idle;
            }
            let oldest = self
                .queue
                .iter()
                .position(|e| doom(e).is_none() && ready(e));
            if let Some(seed) = oldest.and_then(|i| self.queue.remove(i)) {
                self.flush_at = u64::MAX;
                self.join(seed);
            }
        }
        if let Some(affinity) = self.forming.first().map(|member| member.affinity) {
            let mut i = 0;
            while self.forming.len() < self.cfg.max_batch_size && i < self.queue.len() {
                let e = &self.queue[i];
                if e.affinity == affinity && doom(e).is_none() && ready(e) {
                    if let Some(e) = self.queue.remove(i) {
                        self.join(e);
                    }
                } else {
                    i += 1;
                }
            }
            let lingers = self.running > 0 && now < self.flush_at;
            if self.forming.len() < self.cfg.max_batch_size && !draining && lingers {
                return Poll::WaitUntil(self.flush_at.min(self.next_ready(now)));
            }
        } else if !self.queue.iter().any(|e| doom(e).is_some()) {
            // Everything queued is live and backing off; with a doomed
            // entry among them the sweep below hands it back at once.
            return Poll::WaitUntil(self.next_ready(now));
        }
        let mut dropped = Vec::new();
        if self.queue.iter().any(|e| doom(e).is_some()) {
            for e in std::mem::take(&mut self.queue) {
                match doom(&e) {
                    Some(why) => dropped.push((e, why)),
                    None => self.queue.push_back(e),
                }
            }
        }
        let mut batch = Vec::with_capacity(self.forming.len());
        for e in self.forming.drain(..) {
            match doom(&e) {
                Some(why) => dropped.push((e, why)),
                None => batch.push(e),
            }
        }
        self.flush(batch, dropped)
    }

    /// Hand out `batch` and the sweep's `dropped`, counting both.
    fn flush(&mut self, batch: Vec<Entry<T>>, dropped: Vec<(Entry<T>, TfheError)>) -> Poll<T> {
        for (_, why) in &dropped {
            self.tally.resolved(why);
        }
        if !batch.is_empty() {
            self.tally.batches += 1;
            self.tally.batched += batch.len() as u64;
        }
        Poll::Flush { batch, dropped }
    }

    fn join(&mut self, e: Entry<T>) {
        let lingered = e.enqueued_ns.saturating_add(dur_ns(self.cfg.max_linger));
        let slack = dur_ns(self.cfg.deadline_slack);
        let rescue_by = e.deadline_ns.map_or(u64::MAX, |d| d.saturating_sub(slack));
        self.flush_at = self.flush_at.min(lingered).min(rescue_by);
        let place = self.forming.partition_point(|member| member.id < e.id);
        self.forming.insert(place, e);
    }

    /// When the next backoff after `now` ends (`u64::MAX` if none is
    /// running).
    fn next_ready(&self, now: u64) -> u64 {
        let pending = self.queue.iter().map(|e| e.ready_at);
        pending.filter(|&at| at > now).min().unwrap_or(u64::MAX)
    }

    /// Route `batch` at `now`: fresh from a [`poll`](Self::poll) flush
    /// (`ran` is `None`; it runs from then until it is served or failed),
    /// or back from tier `ran.0` with its answer. A
    /// success serves it and a permanent error fails it (module docs); a
    /// retryable fault, or a fresh batch, goes to the first tier from the
    /// failed one down that admits — its health read through `health`.
    /// With none left the retry policy takes the batch, with the last
    /// backend fault or, if no call was made, the last refusal.
    pub(crate) fn route(
        &mut self,
        now: u64,
        batch: Vec<Entry<T>>,
        ran: Option<(usize, Result<(), TfheError>)>,
        health: impl Fn(usize) -> EngineHealth,
    ) -> Done<T> {
        let mut fault = None;
        self.running += usize::from(ran.is_none());
        if let Some((tier, outcome)) = ran {
            // The breaker hears service health only: successes and
            // retryable faults. A permanent error says nothing about the
            // backend.
            let moved = match (&mut self.tiers[tier].breaker, &outcome) {
                (Some(breaker), Ok(())) => breaker.record(now, true),
                (Some(breaker), Err(e)) if e.is_retryable() => breaker.record(now, false),
                _ => None,
            };
            self.record(tier, now, moved);
            match outcome {
                Ok(()) => return self.serve(now, tier, batch),
                Err(e) if !e.is_retryable() => return self.fail(now, batch, e),
                Err(e) => fault = Some((tier, e)),
            }
        }
        let mut refused = TfheError::Overloaded {
            retry_after: Duration::ZERO,
        };
        for tier in fault.as_ref().map_or(0, |(failed, _)| failed + 1)..self.tiers.len() {
            let (admitted, moved) = match &mut self.tiers[tier].breaker {
                Some(breaker) => breaker.admit(now, health(tier)),
                None => (Ok(()), None),
            };
            self.record(tier, now, moved);
            if let Err(overloaded) = admitted {
                self.record(tier, now, EventKind::TierSkipped);
                refused = overloaded;
                continue;
            }
            if let Some((failed, _)) = fault {
                let from = Arc::clone(&self.tiers[failed].scope);
                self.record(tier, now, EventKind::Failover { from });
                self.tally.failovers += 1;
            }
            return Done::Run { tier, batch };
        }
        self.fail(now, batch, fault.map_or(refused, |(_, e)| e))
    }

    /// Tier `tier` served `batch` at `now`.
    fn serve(&mut self, now: u64, tier: usize, batch: Vec<Entry<T>>) -> Done<T> {
        self.running = self.running.saturating_sub(1);
        let t = &mut self.tally;
        t.served[tier] += 1;
        t.last_ns = now;
        for e in &batch {
            let ns = now.saturating_sub(e.enqueued_ns);
            t.latencies.push(ns);
            if let Some(seed) = e.affinity.map(TenantId::raw) {
                let new = || LatencyReservoir {
                    seed,
                    ..Default::default()
                };
                t.per_tenant.entry(seed).or_insert_with(new).push(ns);
            }
        }
        Done::Served(batch)
    }

    /// No tier is left to run `batch`, which failed at `now` with `err`.
    fn fail(&mut self, now: u64, batch: Vec<Entry<T>>, err: TfheError) -> Done<T> {
        self.running = self.running.saturating_sub(1);
        let mut resolved = Vec::new();
        if !err.is_retryable() && batch.len() > 1 {
            self.isolating.extend(batch);
            return Done::Failed(resolved);
        }
        for mut e in batch {
            if !self.cfg.retry.should_retry(&err, e.attempt) {
                resolved.push((e, err.clone()));
                continue;
            }
            let backoff = dur_ns(self.cfg.retry.backoff(e.id, e.attempt + 1));
            let ready_at = now.saturating_add(backoff);
            if e.deadline_ns.is_some_and(|d| d <= ready_at) {
                resolved.push((e, TfheError::DeadlineExceeded));
                continue;
            }
            e.attempt += 1;
            e.ready_at = ready_at;
            self.record(0, now, EventKind::Retry { attempt: e.attempt });
            self.tally.retries += 1;
            let place = self.queue.partition_point(|q| q.id < e.id);
            self.queue.insert(place, e);
        }
        for (_, why) in &resolved {
            self.tally.resolved(why);
        }
        Done::Failed(resolved)
    }

    /// Whether anything is queued or waiting to run alone: work for another
    /// poll once the forming batch has flushed.
    pub(crate) fn holds_work(&self) -> bool {
        !self.queue.is_empty() || !self.isolating.is_empty()
    }

    /// The distinct tenants of what is still held, next to run first, into
    /// `out` (cleared first; it allocates only to grow) — the order in
    /// which the key store will be asked for their keys.
    pub(crate) fn queued_tenants(&self, out: &mut Vec<TenantId>) {
        out.clear();
        let held = self
            .isolating
            .iter()
            .chain(&self.forming)
            .chain(&self.queue);
        for t in held.filter_map(|e| e.affinity) {
            if !out.contains(&t) {
                out.push(t);
            }
        }
    }

    /// Everything still held, next to run first — for a caller that is
    /// going away and must fail what it holds (counted as failed here).
    pub(crate) fn take_all(&mut self) -> Vec<Entry<T>> {
        let mut all: Vec<Entry<T>> = self.isolating.drain(..).collect();
        all.append(&mut self.forming);
        all.extend(self.queue.drain(..));
        self.tally.failed += all.len() as u64;
        all
    }
}

/// One scripted request of a virtual-time run; its index in the script is
/// its `item`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Arrival {
    pub(crate) at: u64,
    pub(crate) affinity: Option<TenantId>,
    pub(crate) deadline: Option<u64>,
    pub(crate) cancel_at: Option<u64>,
}

/// What [`drive`] shows its observer, as it happens. Only the tests'
/// checker looks; the autotuner reads the core's tally after the run.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) enum Step<'a> {
    /// The next arrival of the script was offered, at its own time: its
    /// id, or why not.
    Offered(&'a Result<u64, TfheError>),
    /// What the poll said.
    Polled(&'a Poll<usize>),
    /// Where the core routed a flushed batch, or a batch the backend
    /// answered, at the time it came.
    Routed(&'a Done<usize>),
}

/// The one virtual-time driver: run `core` through `arrivals` (ascending
/// `at`) the way the dispatcher's `workers` batchers drive it, with jumps
/// where they all wait. Every arrival due is offered at its own time —
/// those that come while batches run, before their outcomes are known —
/// then, while a batcher is free, the core is polled; a flushed batch is
/// routed, and each call to a tier keeps its batcher busy for as long as
/// `backend` (given the start time, the tier and the batch) says, its
/// answer routed when it ends (the first to end first) — a failover calls
/// the next tier at once, on the same batcher. A quiet poll jumps to the
/// next arrival, `drain_at`, the poll's wake-up time or the first call's
/// end, whichever is first, and the run ends when nothing is left to wake
/// for. Tier `i` reports `health(t, i)` at time `t`. A request is
/// cancelled from its `cancel_at` on, noticed when a poll looks. `see` is
/// told each step, with the time and the core as it stands.
pub(crate) fn drive(
    core: &mut ServingCore<usize>,
    arrivals: &[Arrival],
    drain_at: Option<u64>,
    mut backend: impl FnMut(u64, usize, &[Entry<usize>]) -> (u64, Result<(), TfheError>),
    health: impl Fn(u64, usize) -> EngineHealth,
    mut see: impl FnMut(u64, &ServingCore<usize>, Step<'_>),
) {
    let (mut t, mut next) = (0u64, 0usize);
    // The calls in flight: when each ends, its tier and batch, and what it
    // will answer.
    let mut running: Vec<(u64, usize, Vec<_>, Result<(), TfheError>)> = Vec::new();
    loop {
        while let Some(a) = arrivals.get(next).filter(|a| a.at <= t) {
            if drain_at.is_some_and(|d| d < a.at) {
                core.close();
            }
            let offered = core.admit(a.at, a.affinity, a.deadline, next, false);
            let offered = offered.map_err(|(why, _)| why);
            see(a.at, core, Step::Offered(&offered));
            next += 1;
        }
        let ended = (0..running.len()).min_by_key(|&i| running[i].0);
        let done = match ended.filter(|&i| running[i].0 <= t).map(|i| {
            let (_, tier, batch, outcome) = running.remove(i);
            core.route(t, batch, Some((tier, outcome)), |i| health(t, i))
        }) {
            Some(failover @ Done::Run { .. }) => failover,
            settled => {
                if let Some(done) = settled {
                    see(t, core, Step::Routed(&done));
                }
                if running.len() >= core.cfg.workers {
                    // Every batcher is busy until the first call ends.
                    t = running.iter().map(|r| r.0).min().unwrap_or(t);
                    continue;
                }
                if drain_at.is_some_and(|d| d <= t) {
                    core.close();
                }
                let polled = core.poll(t, |&i| arrivals[i].cancel_at.is_some_and(|c| c <= t));
                see(t, core, Step::Polled(&polled));
                match polled {
                    Poll::Flush { batch, .. } if batch.is_empty() => continue,
                    Poll::Flush { batch, .. } => core.route(t, batch, None, |i| health(t, i)),
                    quiet => {
                        let wake = [
                            arrivals.get(next).map(|a| a.at),
                            drain_at.filter(|&d| d > t),
                            match quiet {
                                Poll::WaitUntil(at) => Some(at),
                                _ => None,
                            },
                            running.iter().map(|r| r.0).min(),
                        ];
                        match wake.into_iter().flatten().min() {
                            Some(at) => t = at,
                            None => return,
                        }
                        continue;
                    }
                }
            }
        };
        see(t, core, Step::Routed(&done));
        if let Done::Run { tier, batch } = done {
            let (service_ns, outcome) = backend(t, tier, &batch);
            running.push((t.saturating_add(service_ns), tier, batch, outcome));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults;
    use crate::resilience::{BreakerConfig, BreakerState, RetryConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::RefCell;

    const TRANSIENT: TfheError = TfheError::WorkerPanicked { worker: 0 };
    const PERMANENT: TfheError = TfheError::LweDimensionMismatch {
        expected: 16,
        got: 8,
    };

    fn arrival(at: u64, tenant: Option<u64>) -> Arrival {
        Arrival {
            at,
            affinity: tenant.map(TenantId::new),
            ..Arrival::default()
        }
    }

    /// One scripted backend tier. A call that holds a `poison` request
    /// fails permanently; otherwise the tier's call number `i` answers
    /// `script[i]` if there is one, a transient fault with probability
    /// `sick` if it starts before `heal_at`, and success if not. Call `i`
    /// takes `service[i % len]`. Its health reads `Failed` within `down`.
    #[derive(Clone, Debug, Default)]
    struct Backend {
        script: Vec<Option<TfheError>>,
        sick: f64,
        heal_at: u64,
        seed: u64,
        service: Vec<u64>,
        down: std::ops::Range<u64>,
    }

    impl Backend {
        fn health(&self, t: u64) -> EngineHealth {
            match self.down.contains(&t) {
                true => EngineHealth::Failed,
                false => EngineHealth::Healthy,
            }
        }
    }

    /// Everything that happens to the core, on virtual time.
    #[derive(Clone, Debug)]
    struct Schedule {
        cfg: ServingConfig,
        arrivals: Vec<Arrival>,
        /// Arrivals no backend call survives.
        poison: Vec<usize>,
        /// The backend tiers, in the order the core tries them.
        tiers: Vec<Backend>,
        drain_at: Option<u64>,
    }

    fn schedule(cfg: ServingConfig, arrivals: Vec<Arrival>, service: u64) -> Schedule {
        Schedule {
            cfg,
            arrivals,
            poison: Vec::new(),
            tiers: vec![Backend {
                service: vec![service],
                ..Backend::default()
            }],
            drain_at: None,
        }
    }

    /// How a request left.
    #[derive(Clone, Debug, PartialEq)]
    enum Left {
        Completed,
        Failed(TfheError),
        Cancelled,
        Expired,
        Refused(TfheError),
    }

    #[derive(Debug, Default, PartialEq)]
    struct Outcome {
        /// `(start time, members)` of every backend call.
        calls: Vec<(u64, Vec<usize>)>,
        /// The tier of each call.
        tiers: Vec<usize>,
        /// The size of each batch flushed.
        flushed: Vec<usize>,
        /// Batches re-run at once on a later tier, and skips of a tier.
        failovers: u64,
        skips: u64,
        /// Batches served, per tier.
        served: Vec<u64>,
        /// Per arrival: when and how it left.
        left: Vec<Option<(u64, Left)>>,
        /// Re-admissions after a retryable fault.
        retried: usize,
        /// Batches split to isolate a permanent error.
        isolated: usize,
        /// The breaker's `(opens, closes)`, and its state at the end.
        breaker: Option<(u64, u64, BreakerState)>,
        /// Calls started while another was still running.
        overlapped: usize,
    }

    impl Outcome {
        fn who(&self, how: impl Fn(&Left) -> bool) -> Vec<usize> {
            let left = self.left.iter().enumerate();
            let who = left.filter(|(_, l)| l.as_ref().is_some_and(|(_, l)| how(l)));
            who.map(|(i, _)| i).collect()
        }
        fn left_as(&self, how: Left) -> Vec<usize> {
            self.who(|l| *l == how)
        }
        fn failed(&self) -> Vec<usize> {
            self.who(|l| matches!(l, Left::Failed(_)))
        }
        fn shed(&self) -> Vec<usize> {
            self.who(|l| matches!(l, Left::Refused(TfheError::Overloaded { .. })))
        }
        fn sizes(&self) -> Vec<usize> {
            self.calls.iter().map(|(_, m)| m.len()).collect()
        }
    }

    fn knobs(max_batch_size: usize, max_linger: Duration) -> ServingConfig {
        ServingConfig {
            max_batch_size,
            max_linger,
            ..ServingConfig::default()
        }
    }

    fn items<'a>(entries: impl IntoIterator<Item = &'a Entry<usize>>) -> Vec<usize> {
        entries.into_iter().map(|e| e.item).collect()
    }

    /// `(item, attempt)` of a batch's members.
    type Members = Vec<(usize, u32)>;
    /// A tier's answer to a call.
    type Answer = (usize, Result<(), TfheError>);

    fn attempts(entries: &[Entry<usize>]) -> Members {
        entries.iter().map(|e| (e.item, e.attempt)).collect()
    }

    fn breakers(core: &ServingCore<usize>) -> Vec<Option<CircuitBreaker>> {
        core.tiers.iter().map(|tier| tier.breaker.clone()).collect()
    }

    /// The scripted backend and the observer of one run: every rule of the
    /// module docs and every accounting contract of the serving path,
    /// checked step by step.
    struct Checker<'a> {
        s: &'a Schedule,
        out: Outcome,
        /// Arrivals offered, and how many of them got an id.
        offered: usize,
        admitted: u64,
        /// The core as the last step left it, which is how the next poll
        /// finds it: `(item, ready_at)` of the queue, the forming batch,
        /// who is to run alone, next first.
        queue: Vec<(usize, u64)>,
        forming: Vec<usize>,
        alone: Vec<usize>,
        /// Times each request ran.
        runs: Vec<u32>,
        /// The members of a batch a poll just flushed, which the core
        /// routes next.
        routing: Option<Members>,
        /// The calls in flight: when each ends, its members and its answer.
        running: Vec<(u64, Members, Answer)>,
        /// The call the core asked for last: when, on which tier, with
        /// whom, and whether it is a failover.
        asked: Option<(u64, usize, Members, bool)>,
        /// Each tier's breaker as the last step left it.
        breakers: Vec<Option<CircuitBreaker>>,
        /// Completions whose latency samples were last compared.
        sampled: u64,
    }

    impl Checker<'_> {
        fn cancelled(&self, i: usize, t: u64) -> bool {
            self.s.arrivals[i].cancel_at.is_some_and(|c| c <= t)
        }

        fn dead(&self, i: usize, t: u64) -> bool {
            self.cancelled(i, t) || self.s.arrivals[i].deadline.is_some_and(|d| d <= t)
        }

        fn leave(&mut self, i: usize, t: u64, how: Left) {
            assert_eq!(self.out.left[i], None, "request {i} left twice");
            self.out.left[i] = Some((t, how));
        }

        fn call(
            &mut self,
            t: u64,
            tier: usize,
            batch: &[Entry<usize>],
        ) -> (u64, Result<(), TfheError>) {
            let (s, b) = (self.s, &self.s.tiers[tier]);
            // Every call is the one the core asked for, at once.
            let members = attempts(batch);
            let asked = self.asked.take().expect("a call nobody asked for");
            let failover = asked.3;
            assert_eq!(asked, (t, tier, members.clone(), failover));
            let draining = s.drain_at.is_some_and(|d| d <= t);
            for e in batch {
                // A failover goes on with a call that started in time.
                let dead = !failover && self.dead(e.item, t);
                assert!(!dead, "ran dead request {} at {t}", e.item);
                assert!(e.ready_at <= t || draining, "ran {} too early", e.item);
                assert!(e.attempt <= s.cfg.retry.max_retries);
                self.runs[e.item] += 1;
                // On each tier: one first run, one per retry, one alone
                // after a split.
                let tiers = s.tiers.len() as u32;
                assert!(self.runs[e.item] <= tiers * (2 + s.cfg.retry.max_retries));
            }
            let call = self.out.tiers.iter().filter(|&&k| k == tier).count();
            self.out.calls.push((t, items(batch)));
            self.out.tiers.push(tier);
            let outcome = if batch.iter().any(|e| s.poison.contains(&e.item)) {
                Err(PERMANENT)
            } else if let Some(scripted) = b.script.get(call) {
                scripted.clone().map_or(Ok(()), Err)
            } else if t < b.heal_at && faults::unit_sample(b.seed, 0, call as u64, 0) < b.sick {
                Err(TRANSIENT)
            } else {
                Ok(())
            };
            let service = b.service[call % b.service.len()];
            self.out.overlapped += usize::from(self.running.iter().any(|r| r.0 > t));
            let answer = (tier, outcome.clone());
            self.running
                .push((t.saturating_add(service), members, answer));
            (service, outcome)
        }

        fn see(&mut self, t: u64, core: &ServingCore<usize>, step: Step<'_>) {
            // Only routing moves a breaker: the front door only asks.
            if !matches!(step, Step::Routed(_)) {
                assert_eq!(breakers(core), self.breakers, "a breaker moved at {t}");
            }
            match step {
                Step::Offered(Ok(id)) => {
                    assert_eq!(*id, self.admitted, "ids are minted in admission order");
                    assert_eq!(core.queue.back().map(|e| e.item), Some(self.offered));
                    self.admitted += 1;
                    self.offered += 1;
                }
                Step::Offered(Err(why)) => {
                    match why {
                        TfheError::DispatcherShutDown => {
                            assert!(self.s.drain_at.is_some_and(|d| d < t))
                        }
                        TfheError::QueueFull { capacity } => {
                            assert_eq!(*capacity, self.s.cfg.queue_capacity);
                            assert!(core.queue.len() >= *capacity);
                        }
                        shed => {
                            // Every tier's breaker is cooling down; the hint
                            // is the soonest end.
                            let cooling = self.breakers.iter().map(|b| b.as_ref()?.cooling(t));
                            let cooling: Option<Vec<u64>> = cooling.collect();
                            let soonest = cooling.and_then(|c| c.into_iter().min());
                            let retry_after = Duration::from_nanos(soonest.expect("a tier admits"));
                            assert_eq!(*shed, TfheError::Overloaded { retry_after });
                        }
                    }
                    self.leave(self.offered, t, Left::Refused(why.clone()));
                    self.offered += 1;
                }
                Step::Polled(polled) => self.polled(t, core, polled),
                Step::Routed(done) => self.routed(t, core, done),
            }
            self.breakers = breakers(core);
            self.queue = (core.queue.iter().map(|e| (e.item, e.ready_at))).collect();
            self.forming = items(&core.forming);
            self.alone = items(&core.isolating);
            let ids: Vec<u64> = core.queue.iter().map(|e| e.id).collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "queue out of order");
            self.tallied(core);
        }

        /// The core's tally is what the outcome so far implies. The latency
        /// samples are compared as exact multisets (exact at these sizes)
        /// whenever the completions moved; otherwise the equal counts say
        /// that no reservoir changed.
        fn tallied(&mut self, core: &ServingCore<usize>) {
            let (out, arrivals, tally) = (&self.out, &self.s.arrivals, &core.tally);
            // submitted, rejected, shed, completed, failed, cancelled,
            // expired, batches, batched, retries, tenants' completions.
            let mut implied = [0u64; 11];
            implied[0] = self.admitted;
            let (mut first, mut last) = (None, 0);
            for (i, left) in out.left.iter().enumerate().take(self.offered) {
                if !matches!(left, Some((_, Left::Refused(_)))) {
                    first = first.or(Some(arrivals[i].at));
                }
                let Some((at, how)) = left else { continue };
                let k = match how {
                    Left::Refused(TfheError::QueueFull { .. }) => 1,
                    Left::Refused(TfheError::Overloaded { .. }) => 2,
                    Left::Refused(_) => continue,
                    Left::Completed => {
                        last = last.max(*at);
                        implied[10] += u64::from(arrivals[i].affinity.is_some());
                        3
                    }
                    Left::Failed(_) => 4,
                    Left::Cancelled => 5,
                    Left::Expired => 6,
                };
                implied[k] += 1;
            }
            implied[7] = out.flushed.len() as u64;
            implied[8] = out.flushed.iter().map(|&n| n as u64).sum();
            implied[9] = out.retried as u64;
            let counted = [
                tally.submitted,
                tally.rejected,
                tally.shed,
                tally.latencies.seen,
                tally.failed,
                tally.cancelled,
                tally.expired,
                tally.batches,
                tally.batched,
                tally.retries,
                tally.per_tenant.values().map(|r| r.seen).sum(),
            ];
            assert_eq!(counted, implied, "tally against the outcome");
            assert_eq!(
                (tally.failovers, &tally.served),
                (out.failovers, &out.served)
            );
            assert_eq!((tally.first_ns, tally.last_ns), (first, last));
            if tally.latencies.seen == self.sampled {
                return;
            }
            let mut global = Vec::new();
            let mut per_tenant: BTreeMap<u64, (u64, Vec<u64>)> = BTreeMap::new();
            for (i, left) in out.left.iter().enumerate() {
                let Some((at, Left::Completed)) = left else {
                    continue;
                };
                let ns = at - arrivals[i].at;
                global.push(ns);
                if let Some(t) = arrivals[i].affinity {
                    let (seen, samples) = per_tenant.entry(t.raw()).or_default();
                    *seen += 1;
                    samples.push(ns);
                }
            }
            global.sort_unstable();
            per_tenant.values_mut().for_each(|(_, v)| v.sort_unstable());
            assert_eq!(tally.latencies.sorted(), global);
            let sampled = tally
                .per_tenant
                .iter()
                .map(|(&t, r)| (t, (r.seen, r.sorted())));
            assert_eq!(sampled.collect::<BTreeMap<_, _>>(), per_tenant);
            self.sampled = tally.latencies.seen;
        }

        fn polled(&mut self, t: u64, core: &ServingCore<usize>, polled: &Poll<usize>) {
            assert_eq!(!core.open, self.s.drain_at.is_some_and(|d| d <= t));
            let (queue_after, forming_after) = (items(&core.queue), items(&core.forming));
            // Whoever stays queued keeps its place relative to the others.
            let queue_before: Vec<usize> = self.queue.iter().map(|q| q.0).collect();
            let mut rest = queue_before.iter();
            let in_order = queue_after.iter().all(|i| rest.any(|b| b == i));
            assert!(
                in_order,
                "queue reordered: {queue_before:?} -> {queue_after:?}"
            );
            let (flushed, swept) = match polled {
                Poll::Flush { batch, dropped } => (items(batch), dropped.as_slice()),
                _ => (Vec::new(), [].as_slice()),
            };
            if let Some(&alone) = self.alone.first() {
                // A member of a split batch runs alone, before anything
                // else, unless the sweep takes it — and it alone.
                let swept = items(swept.iter().map(|(e, _)| e));
                assert_eq!([flushed.clone(), swept].concat(), [alone], "{polled:?}");
                assert_eq!(
                    (&queue_after, &forming_after),
                    (&queue_before, &self.forming)
                );
            } else {
                self.formed(t, core, polled, &flushed);
            }
            match polled {
                Poll::Flush { batch, .. } => {
                    if !batch.is_empty() {
                        self.out.flushed.push(batch.len());
                        self.routing = Some(attempts(batch));
                    }
                    // One batcher flushes the whole forming batch; with
                    // more, a member run alone leaves it as it was.
                    match self.s.cfg.workers {
                        1 => assert!(forming_after.is_empty()),
                        _ => assert!(forming_after.is_empty() || !self.alone.is_empty()),
                    }
                    let dead_left = queue_after.iter().any(|&i| self.dead(i, t));
                    assert!(
                        !self.alone.is_empty() || !dead_left,
                        "sweep left a dead entry"
                    );
                    assert!(!flushed.is_empty() || !swept.is_empty(), "empty flush");
                    assert!(
                        !flushed.iter().any(|&i| self.dead(i, t)),
                        "flushed the dead"
                    );
                    for (e, why) in swept {
                        assert!(self.dead(e.item, t));
                        // Cancellation wins the tag.
                        let how = match self.cancelled(e.item, t) {
                            true => (TfheError::Cancelled, Left::Cancelled),
                            false => (TfheError::DeadlineExceeded, Left::Expired),
                        };
                        assert_eq!(*why, how.0);
                        self.leave(e.item, t, how.1);
                    }
                }
                quiet => {
                    // Nothing left, so polling again changes nothing.
                    let mut twin = core.clone();
                    let again = twin.poll(t, |&i| self.cancelled(i, t));
                    assert_eq!(format!("{quiet:?}"), format!("{again:?}"));
                    assert_eq!(items(&twin.queue), queue_after);
                    assert_eq!(items(&twin.forming), forming_after);
                }
            }
        }

        /// A poll with nobody to run alone: batch formation.
        fn formed(
            &self,
            t: u64,
            core: &ServingCore<usize>,
            polled: &Poll<usize>,
            flushed: &[usize],
        ) {
            let s = self.s;
            let (cap, draining) = (s.cfg.max_batch_size, !core.open);
            let ready = |&(_, at): &(usize, u64)| draining || at <= t;
            // The batch as it stood when the core decided: what was forming
            // and this poll's joiners (all live, so on a flush they are all
            // in `batch`).
            let mut members = items(&core.forming);
            if let Poll::Flush { .. } = polled {
                members = self.forming.clone();
                members.extend(flushed.iter().filter(|i| !self.forming.contains(i)));
                members.sort_unstable();
            }
            let grew = self.forming.iter().all(|i| members.contains(i));
            assert!(grew, "a forming batch only grows");
            assert!(
                members.len() <= cap,
                "{members:?} over max_batch_size {cap}"
            );
            let backing_off = core.queue.iter().map(|e| e.ready_at).filter(|&at| at > t);
            let next_ready = backing_off.min().unwrap_or(u64::MAX);
            let Some(&oldest) = members.first() else {
                match polled {
                    Poll::Idle => assert!(self.queue.is_empty()),
                    // Nothing to seed and nothing to sweep: every queued
                    // request is backing off.
                    Poll::WaitUntil(at) => {
                        assert!(self.queue.iter().all(|q| !self.dead(q.0, t) && !ready(q)));
                        assert_eq!(*at, next_ready);
                    }
                    Poll::Flush { dropped, .. } => assert!(!dropped.is_empty()),
                }
                return;
            };
            let class = s.arrivals[oldest].affinity;
            if self.forming.is_empty() {
                let mut older = self.queue.iter().take_while(|(i, _)| *i != oldest);
                let none_fit = older.all(|q| self.dead(q.0, t) || !ready(q));
                assert!(none_fit, "seed is the oldest live, ready request");
            }
            let joins = |q: &&(usize, u64)| {
                s.arrivals[q.0].affinity == class && !self.dead(q.0, t) && ready(q)
            };
            let mut passed_over = self.queue.iter().filter(joins);
            let passed_over = passed_over.find(|q| !members.contains(&q.0));
            assert!(
                members.len() == cap || passed_over.is_none(),
                "{passed_over:?} not joined"
            );
            for w in members.windows(2) {
                assert!(w[0] < w[1], "members out of arrival order: {members:?}");
                assert_eq!(s.arrivals[w[1]].affinity, class, "mixed batch {members:?}");
            }
            let slack = dur_ns(s.cfg.deadline_slack);
            let rescue_by = members.iter().filter_map(|&i| s.arrivals[i].deadline);
            let lingered = s.arrivals[oldest]
                .at
                .saturating_add(dur_ns(s.cfg.max_linger));
            let flush_at = rescue_by.fold(lingered, |at, d| at.min(d.saturating_sub(slack)));
            // Work-conserving: a batch lingers only while a call runs.
            let idle = self.running.is_empty();
            let due = members.len() >= cap || draining || flush_at <= t || idle;
            match polled {
                Poll::WaitUntil(at) => {
                    assert!(!due, "full, draining, idle or past flush_at must flush now");
                    assert_eq!(*at, flush_at.min(next_ready));
                }
                Poll::Flush { .. } => assert!(due, "flushed {members:?} early at {t}"),
                Poll::Idle => panic!("idle with {members:?} forming"),
            }
        }

        /// A batch routed: the tier rule replayed on the breakers as the
        /// last step left them, and the core's decision checked against it.
        fn routed(&mut self, t: u64, core: &ServingCore<usize>, done: &Done<usize>) {
            let (s, mut expected) = (self.s, self.breakers.clone());
            // A batch fresh from a flush, or the answer of the call that
            // ended first (the first started, on a tie).
            let (members, ran) = match self.routing.take() {
                Some(members) => (members, None),
                None => {
                    let first = (0..self.running.len()).min_by_key(|&i| self.running[i].0);
                    let first = first.expect("routed a batch from nowhere");
                    let (_, members, answer) = self.running.remove(first);
                    (members, Some(answer))
                }
            };
            let ids: Vec<usize> = members.iter().map(|m| m.0).collect();
            let mut fault = None;
            if let Some((tier, outcome)) = ran {
                // The breaker hears successes and retryable faults only.
                let service = match &outcome {
                    Ok(()) => Some(true),
                    Err(e) => e.is_retryable().then_some(false),
                };
                if let (Some(b), Some(ok)) = (&mut expected[tier], service) {
                    b.record(t, ok);
                }
                match (outcome, done) {
                    (Err(e), _) if e.is_retryable() => fault = Some((tier, e)),
                    (Ok(()), Done::Served(batch)) => {
                        assert_eq!(items(batch), ids);
                        self.out.served[tier] += 1;
                        ids.iter().for_each(|&i| self.leave(i, t, Left::Completed));
                    }
                    // A permanent error never fails over.
                    (Err(e), _) => self.failed(t, core, &ids, &e, done),
                    (Ok(()), done) => panic!("served, and the core said {done:?}"),
                }
                if fault.is_none() {
                    assert_eq!(breakers(core), expected, "breakers after the answer at {t}");
                    return;
                }
            }
            // The tiers after the one that failed, or all of them, are asked
            // in turn, each given its health, until one admits.
            let mut refused = None;
            let from = fault.as_ref().map_or(0, |(tier, _)| tier + 1);
            let chosen = (from..s.tiers.len()).find(|&i| {
                let Some(b) = &mut expected[i] else {
                    return true;
                };
                refused = b.admit(t, s.tiers[i].health(t)).0.err();
                refused.is_none()
            });
            assert_eq!(breakers(core), expected, "breakers after routing at {t}");
            match (chosen, done) {
                (Some(tier), Done::Run { tier: on, batch }) => {
                    assert_eq!(*on, tier, "not the first tier that admits");
                    // At once, and with every attempt unchanged.
                    assert_eq!(attempts(batch), members);
                    self.out.failovers += u64::from(fault.is_some());
                    self.asked = Some((t, tier, members, fault.is_some()));
                }
                // Every tier is down: the last backend fault if a call was
                // made, else the last refusal.
                (None, done) => {
                    let err = fault.map(|(_, e)| e).or(refused).expect("a tier refused");
                    self.failed(t, core, &ids, &err, done);
                }
                (Some(tier), done) => panic!("tier {tier} admits, and the core said {done:?}"),
            }
        }

        /// `members` failed at `t` with `err`, and nothing can run them now.
        fn failed(
            &mut self,
            t: u64,
            core: &ServingCore<usize>,
            members: &[usize],
            err: &TfheError,
            done: &Done<usize>,
        ) {
            let Done::Failed(resolved) = done else {
                panic!("{err:?} became {done:?}");
            };
            let retry = &self.s.cfg.retry;
            let split = !err.is_retryable() && members.len() > 1;
            self.out.isolated += usize::from(split);
            let retried = core.queue.iter().filter(|e| members.contains(&e.item));
            let retried = retried.count();
            self.out.retried += retried;
            if self.s.cfg.workers == 1 {
                // A batch forms only once nothing is left to run alone, so
                // a split finds that list empty.
                let alone = items(&core.isolating);
                assert_eq!(split, alone == members);
                assert_eq!(split, alone.iter().any(|i| members.contains(i)));
            }
            // A split joins the end of the list of those to run alone.
            let mut alone = self.alone.clone();
            if split {
                alone.extend(members);
            }
            assert_eq!(items(&core.isolating), alone);
            // Every member went exactly one way.
            let kept = if split { members.len() } else { retried };
            assert_eq!(resolved.len() + kept, members.len());
            for (e, why) in resolved {
                // Out of budget, or the backoff would outlast the deadline.
                if why == err {
                    assert!(!retry.should_retry(err, e.attempt));
                    self.leave(e.item, t, Left::Failed(why.clone()));
                } else {
                    assert_eq!(*why, TfheError::DeadlineExceeded);
                    let backoff = dur_ns(retry.backoff(e.id, e.attempt + 1));
                    let ends = t.saturating_add(backoff);
                    assert!(e.deadline_ns.is_some_and(|d| d <= ends));
                    self.leave(e.item, t, Left::Expired);
                }
            }
            for e in core.queue.iter().filter(|e| members.contains(&e.item)) {
                assert!((1..=retry.max_retries).contains(&e.attempt));
                let backoff = dur_ns(retry.backoff(e.id, e.attempt));
                assert_eq!(e.ready_at, t.saturating_add(backoff));
                assert_eq!(e.enqueued_ns, self.s.arrivals[e.item].at);
                assert!(e.deadline_ns.is_none_or(|d| d > e.ready_at));
            }
        }
    }

    /// Drive the core through `s` with the one virtual-time driver, under
    /// a [`Checker`], and reconcile what it saw with journal and breakers.
    fn run(s: &Schedule) -> Outcome {
        let journal = Arc::new(Journal::new());
        let fallbacks: Vec<Arc<str>> = (1..s.tiers.len()).map(|i| format!("t{i}").into()).collect();
        let mut core = ServingCore::new(&s.cfg, Arc::clone(&journal), &fallbacks);
        let checker = RefCell::new(Checker {
            s,
            out: Outcome::default(),
            offered: 0,
            admitted: 0,
            queue: Vec::new(),
            forming: Vec::new(),
            alone: Vec::new(),
            runs: vec![0; s.arrivals.len()],
            routing: None,
            running: Vec::new(),
            asked: None,
            breakers: breakers(&core),
            sampled: 0,
        });
        checker.borrow_mut().out.left = vec![None; s.arrivals.len()];
        checker.borrow_mut().out.served = vec![0; s.tiers.len()];
        drive(
            &mut core,
            &s.arrivals,
            s.drain_at,
            |t, tier, batch| checker.borrow_mut().call(t, tier, batch),
            |t, tier| s.tiers[tier].health(t),
            |t, core, step| checker.borrow_mut().see(t, core, step),
        );
        let Checker {
            mut out, admitted, ..
        } = checker.into_inner();

        assert!(
            core.take_all().is_empty(),
            "the run ended with requests held"
        );
        // Conservation: every request left exactly once, and the ones that
        // got an id are the ones that completed, failed, were cancelled or
        // expired.
        assert!(out.left.iter().all(Option::is_some), "{out:?}");
        let refused = out.who(|l| matches!(l, Left::Refused(_))).len() as u64;
        assert_eq!(admitted + refused, s.arrivals.len() as u64);
        // The journal holds every shed, retry, failover, skip and breaker
        // transition, each under its tier's scope.
        assert_eq!(journal.dropped(), 0);
        let events = journal.events();
        let count = |label: &str| events.iter().filter(|e| e.kind.label() == label).count();
        let in_order = events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns);
        assert!(in_order, "journal out of order");
        assert_eq!(count("retry"), out.retried);
        let shed = out.shed().len();
        assert_eq!(count("shed"), shed);
        assert_eq!(count("failover") as u64, out.failovers);
        for (i, tier) in core.tiers.iter().enumerate() {
            let mine = events
                .iter()
                .filter(|e| e.who == Who::Scope(Arc::clone(&tier.scope)));
            let mine: Vec<&EventKind> = mine.map(|e| &e.kind).collect();
            let count = |label| mine.iter().filter(|k| k.label() == label).count() as u64;
            let b = tier.breaker.as_ref();
            let (opens, closes) = b.map_or((0, 0), |b| (b.opens, b.closes));
            let skips = b.map_or(0, |b| b.rejections);
            let counted = [
                count("breaker_open"),
                count("breaker_close"),
                count("tier_skipped"),
            ];
            assert_eq!(counted, [opens, closes, skips], "tier {i}");
            assert!(count("breaker_half_open") >= closes);
            out.skips += skips;
            // A tier is failed over to from a tier before it.
            for kind in mine {
                if let EventKind::Failover { from } = kind {
                    assert!(core.tiers[..i].iter().any(|t| t.scope == *from), "{from}");
                }
            }
        }
        if s.cfg.breaker.is_none() {
            assert_eq!(shed, 0);
        }
        out.breaker = (core.tiers[0].breaker.as_ref()).map(|b| (b.opens, b.closes, b.state));
        out
    }

    fn random_schedule(rng: &mut StdRng) -> Schedule {
        // Zero, a span on the scale of the arrival gaps, or unbounded.
        let span = |rng: &mut StdRng| match rng.gen_range(0..4) {
            0 => Duration::ZERO,
            1 => Duration::MAX,
            _ => Duration::from_nanos(rng.gen_range(1..4_000)),
        };
        let tenants = rng.gen_range(1..=8u64);
        let mut at = 0u64;
        let mut arrivals: Vec<Arrival> = (0..rng.gen_range(1..60))
            .map(|_| {
                at += [0, 0, rng.gen_range(1..50u64), rng.gen_range(50..2_500u64)]
                    [rng.gen_range(0..4usize)];
                Arrival {
                    at,
                    affinity: (!rng.gen_bool(0.2))
                        .then(|| TenantId::new(rng.gen_range(0..tenants))),
                    deadline: rng.gen_bool(0.4).then(|| at + rng.gen_range(0..6_000u64)),
                    cancel_at: rng.gen_bool(0.2).then(|| at + rng.gen_range(0..6_000u64)),
                }
            })
            .collect();
        let poison = (0..arrivals.len()).filter(|_| rng.gen_bool(0.04)).collect();
        let backoff = Duration::from_nanos([0, rng.gen_range(1..3_000)][rng.gen_range(0..2usize)]);
        let max_retries = rng.gen_range(0..=3);
        let max_backoff = backoff * rng.gen_range(1..4);
        let jitter = [0.0, 0.5][rng.gen_range(0..2usize)];
        let retry = RetryConfig {
            max_retries,
            base_backoff: backoff,
            max_backoff,
            jitter,
            seed: rng.gen(),
        };
        let breaker = rng.gen_bool(0.5).then(|| BreakerConfig {
            window: rng.gen_range(2..=8),
            failure_threshold: 0.5,
            min_samples: rng.gen_range(1..=3),
            cooldown: Duration::from_nanos(rng.gen_range(0..5_000)),
            probes_to_close: rng.gen_range(1..=2),
        });
        let drain_at = match rng.gen_range(0..4) {
            0 => Some(0),
            1 => Some(rng.gen_range(0..at + 2)),
            _ => None,
        };
        // Long after the faults have stopped and every backoff has ended,
        // a trickle of healthy traffic: what a breaker needs to recover.
        if drain_at.is_none() {
            let gap = breaker.map_or(0, |b| dur_ns(b.cooldown)) + 10_000;
            arrivals.extend((0..4).map(|i| arrival(at + 1_000_000 + i * gap, None)));
        }
        Schedule {
            cfg: ServingConfig {
                max_batch_size: rng.gen_range(1..=32),
                max_linger: span(rng),
                queue_capacity: rng.gen_range(1..=12),
                deadline_slack: span(rng),
                retry,
                breaker,
                ..ServingConfig::default()
            },
            arrivals,
            poison,
            tiers: (0..rng.gen_range(1..=3))
                .map(|_| Backend {
                    script: Vec::new(),
                    sick: [0.0, 0.3, 0.7][rng.gen_range(0..3usize)],
                    heal_at: rng.gen_range(0..at + 2),
                    seed: rng.gen(),
                    service: (0..7).map(|_| rng.gen_range(0..3_000)).collect(),
                    // Down for a while, or never; up again before the trickle.
                    down: match rng.gen_bool(0.3) {
                        true => rng.gen_range(0..at + 2)..rng.gen_range(at / 2..at + 2),
                        false => 0..0,
                    },
                })
                .collect(),
            drain_at,
        }
    }

    /// The chaos sweep: 1 000 seeds of random arrivals, tenants, deadlines,
    /// cancellations, capacities and drains against 1–3 backend tiers that
    /// each fail transiently, fail permanently on poisoned requests, heal
    /// and read `Failed` for a while, under retry budgets 0–3 with and
    /// without breakers. `run` checks the contracts; this checks that the
    /// seeds reach every way out and that a seed replays exactly.
    #[test]
    fn a_thousand_seeds_keep_every_contract() {
        let mut reached = [0usize; 13];
        for seed in 0..1_000u64 {
            let s = random_schedule(&mut StdRng::seed_from_u64(0x5EED_B47C ^ seed));
            let out = run(&s);
            assert_eq!(out, run(&s), "seed {seed} did not replay");
            let (opens, closes, state) = out.breaker.unwrap_or_default();
            if let (None, Some(b)) = (s.drain_at, s.cfg.breaker) {
                // Calls to tier 0 made of nothing but the healthy trickle:
                // enough of them close its breaker if it had opened.
                let trickle = s.arrivals.len() - 4..;
                let calls = out.calls.iter().zip(&out.tiers);
                let healthy = calls
                    .filter(|((_, m), &tier)| tier == 0 && m.iter().all(|i| trickle.contains(i)));
                if healthy.count() >= b.probes_to_close as usize {
                    assert_eq!(state, BreakerState::Closed, "seed {seed}: healed");
                }
            }
            for (i, left) in out.left.iter().enumerate() {
                // A poisoned request fails permanently, unless no tier
                // admitted its last attempt.
                if let Some((_, Left::Failed(e))) = left {
                    let refused = matches!(e, TfheError::Overloaded { .. });
                    let poisoned = s.poison.contains(&i);
                    assert_eq!(*e == PERMANENT, poisoned && !refused, "seed {seed}: {i}");
                }
            }
            let closed = out.left_as(Left::Refused(TfheError::DispatcherShutDown));
            let tally = [
                out.calls.len(),
                out.left_as(Left::Completed).len(),
                out.failed().len(),
                out.left_as(Left::Cancelled).len(),
                out.left_as(Left::Expired).len(),
                out.who(|l| matches!(l, Left::Refused(TfheError::QueueFull { .. })))
                    .len(),
                closed.len(),
                out.shed().len(),
                out.isolated,
                out.retried,
                opens.min(closes) as usize,
                out.failovers as usize,
                out.skips as usize,
            ];
            for (sum, n) in reached.iter_mut().zip(tally) {
                *sum += n;
            }
        }
        // The generator reaches every way out, not only the happy one.
        assert!(reached.iter().all(|&n| n > 50), "{reached:?}");
    }

    /// The same schedules with two and three batchers, so that calls
    /// overlap: every contract `run` checks still holds, answers routed in
    /// the order the calls end.
    #[test]
    fn a_thousand_seeds_keep_every_contract_on_several_batchers() {
        let mut overlapped = 0;
        for seed in 0..1_000u64 {
            let mut s = random_schedule(&mut StdRng::seed_from_u64(0x5EED_B47C ^ seed));
            s.cfg.workers = 2 + seed as usize % 2;
            let out = run(&s);
            assert_eq!(out, run(&s), "seed {seed} did not replay");
            overlapped += usize::from(out.overlapped > 0);
        }
        assert!(overlapped > 300, "{overlapped} seeds overlapped calls");
    }

    #[test]
    fn two_batchers_serve_two_tenants_at_once() {
        // Tenants 1 and 2 send one request each at t = 0; a call takes
        // 100. One batcher serves them one after the other, two at once.
        let arrivals = vec![arrival(0, Some(1)), arrival(0, Some(2))];
        let one = run(&schedule(knobs(8, Duration::ZERO), arrivals.clone(), 100));
        assert_eq!(one.calls, vec![(0, vec![0]), (100, vec![1])]);
        assert_eq!(one.left[1], Some((200, Left::Completed)));
        let cfg = ServingConfig {
            workers: 2,
            ..knobs(8, Duration::ZERO)
        };
        let two = run(&schedule(cfg, arrivals, 100));
        assert_eq!(two.calls, vec![(0, vec![0]), (0, vec![1])]);
        assert_eq!(two.left[1], Some((100, Left::Completed)));
        assert_eq!((one.overlapped, two.overlapped), (0, 1));
    }

    #[test]
    fn deadline_equal_to_now_is_already_expired() {
        // The batcher is busy with request 0 until t = 100 — exactly
        // request 1's deadline, one short of request 2's.
        let mut arrivals = vec![arrival(0, None), arrival(10, None), arrival(20, None)];
        arrivals[1].deadline = Some(100);
        arrivals[2].deadline = Some(101);
        let out = run(&schedule(knobs(1, Duration::ZERO), arrivals, 100));
        assert_eq!(out.calls, vec![(0, vec![0]), (100, vec![2])]);
        assert_eq!(out.left_as(Left::Expired), vec![1]);
    }

    #[test]
    fn tenant_affinity_forms_single_tenant_batches() {
        // A lone tenant-1 request goes at once on the idle core; while it
        // runs (10 µs), tenants interleave behind it: 1 2 1 2 1.
        let (a, b) = (Some(1), Some(2));
        let mut arrivals = vec![arrival(0, a)];
        let behind = [a, b, a, b, a].into_iter().zip(1_000..);
        arrivals.extend(behind.map(|(t, at)| arrival(at, t)));
        let out = run(&schedule(
            knobs(8, Duration::from_micros(50)),
            arrivals,
            10_000,
        ));
        // Tenant 1's three go together when the first call ends, tenant
        // 2's two after them, in their own order.
        assert_eq!(
            out.calls,
            vec![(0, vec![0]), (10_000, vec![1, 3, 5]), (20_000, vec![2, 4])]
        );
    }

    #[test]
    fn tenantless_and_tenant_traffic_never_share_a_batch() {
        let mut arrivals = vec![
            arrival(0, None),
            arrival(1_000, None),
            arrival(1_001, Some(5)),
        ];
        // Cancelled while queued behind the first call: the sweep hands it
        // back, and the oldest live request seeds the next batch alone.
        arrivals[1].cancel_at = Some(5_000);
        arrivals.push(arrival(1_002, None));
        let out = run(&schedule(
            knobs(8, Duration::from_micros(50)),
            arrivals,
            10_000,
        ));
        assert_eq!(
            out.calls,
            vec![(0, vec![0]), (10_000, vec![2]), (20_000, vec![3])]
        );
        assert_eq!(out.left_as(Left::Cancelled), vec![1]);
    }

    #[test]
    fn queued_tenants_names_each_tenant_once_next_to_run_first() {
        let mut core = ServingCore::new(&knobs(2, Duration::ZERO), Arc::new(Journal::new()), &[]);
        let tenants = [Some(1), Some(1), None, Some(2), Some(1), Some(3)];
        for (i, t) in tenants.into_iter().enumerate() {
            assert!(core.admit(0, t.map(TenantId::new), None, i, false).is_ok());
        }
        let Poll::Flush { batch, .. } = core.poll(0, |_| false) else {
            panic!("a full batch flushes");
        };
        let mut out = Vec::new();
        core.queued_tenants(&mut out);
        // Tenant 1's first two left in the batch; tenantless work is no key.
        assert_eq!(out, [2, 1, 3].map(TenantId::new));
        // A permanent fault splits the batch: its members run next, alone,
        // so their tenant leads the list. The buffer is reused as it is.
        let (ptr, capacity) = (out.as_ptr(), out.capacity());
        assert!(matches!(
            core.route(0, batch, Some((0, Err(PERMANENT))), |_| {
                EngineHealth::Healthy
            }),
            Done::Failed(_)
        ));
        core.queued_tenants(&mut out);
        assert_eq!(out, [1, 2, 3].map(TenantId::new));
        assert_eq!((out.as_ptr(), out.capacity()), (ptr, capacity));
    }

    #[test]
    fn unbounded_linger_saturates_instead_of_overflowing() {
        // `Duration::MAX` is a valid `max_linger`: while request 0's call
        // runs (5 s), the batch waits for its second member however long
        // that takes and flushes when it is full; request 3 waits out the
        // calls that run when it comes, and goes when none is left.
        let s = 1_000_000_000;
        let arrivals = [5, s, 2 * s, 3 * s].map(|at| arrival(at, None));
        let cfg = ServingConfig {
            workers: 2,
            ..knobs(2, Duration::MAX)
        };
        assert_eq!(
            run(&schedule(cfg, arrivals.to_vec(), 5 * s)).calls,
            vec![(5, vec![0]), (2 * s, vec![1, 2]), (7 * s, vec![3])]
        );
    }

    #[test]
    fn a_forming_batch_lingers_only_while_a_call_runs() {
        // An idle core flushes a lone request at its arrival, whatever
        // the linger.
        let out = run(&schedule(
            knobs(8, Duration::MAX),
            vec![arrival(7, None)],
            100,
        ));
        assert_eq!(out.calls, vec![(7, vec![0])]);
        // At two batchers, request 1 comes while request 0's call runs
        // (0–100): it goes when that call ends, not at its flush_at (1 010).
        let two = ServingConfig {
            workers: 2,
            ..knobs(8, Duration::from_nanos(1_000))
        };
        let out = run(&schedule(
            two,
            vec![arrival(0, None), arrival(10, None)],
            100,
        ));
        assert_eq!(out.calls, vec![(0, vec![0]), (100, vec![1])]);
        // While calls run, a full batch goes at once (requests 1 and 2),
        // and so does a deadline rescue, at deadline − slack (request 3).
        let three = ServingConfig {
            workers: 3,
            deadline_slack: Duration::from_nanos(100),
            ..knobs(2, Duration::MAX)
        };
        let mut arrivals = [0, 10, 20, 30].map(|at| arrival(at, None));
        arrivals[3].deadline = Some(600);
        let out = run(&schedule(three, arrivals.to_vec(), 1_000));
        assert_eq!(
            out.calls,
            vec![(0, vec![0]), (20, vec![1, 2]), (500, vec![3])]
        );
    }

    const MS: u64 = 1_000_000;

    /// Retry up to `max_retries` times, 20 ms then 40 ms then 50 ms apart.
    fn retrying(mut cfg: ServingConfig, max_retries: u32) -> ServingConfig {
        cfg.retry = RetryConfig {
            base_backoff: Duration::from_millis(20),
            jitter: 0.0,
            seed: 0,
            ..RetryConfig::new(max_retries)
        };
        cfg
    }

    fn fails(calls: usize, err: &TfheError) -> Vec<Option<TfheError>> {
        vec![Some(err.clone()); calls]
    }

    #[test]
    fn a_request_backing_off_holds_nobody_up() {
        // Tenant 1's request fails at 10 µs and is ready again 20 ms
        // later; tenant 2 arrives at 1 ms and is served at once, while the
        // first waits.
        let cfg = retrying(knobs(8, Duration::from_micros(50)), 3);
        let mut s = schedule(cfg, vec![arrival(0, Some(1)), arrival(MS, Some(2))], 10_000);
        s.tiers[0].script = fails(1, &TRANSIENT);
        let out = run(&s);
        assert_eq!(
            out.calls,
            vec![(0, vec![0]), (MS, vec![1]), (20 * MS + 10_000, vec![0])]
        );
        assert_eq!(out.left[1], Some((MS + 10_000, Left::Completed)));
        assert_eq!(out.left[0], Some((20 * MS + 20_000, Left::Completed)));
        assert_eq!(out.retried, 1);
    }

    #[test]
    fn a_retry_respects_its_request() {
        let cfg = retrying(knobs(1, Duration::ZERO), 3);
        // A 5 ms deadline against a 20 ms backoff: one call, expired the
        // moment it fails.
        let mut late = arrival(0, None);
        late.deadline = Some(5 * MS);
        let mut s = schedule(cfg.clone(), vec![late], 1_000);
        s.tiers[0].script = fails(4, &TRANSIENT);
        let out = run(&s);
        assert_eq!((out.calls.len(), out.retried), (1, 0));
        assert_eq!(out.left[0], Some((1_000, Left::Expired)));
        // Cancelled 5 ms into the backoff: one call, and the next look at
        // the queue — the backoff's end at the latest — says so.
        let mut gone = arrival(0, None);
        gone.cancel_at = Some(5 * MS);
        s.arrivals = vec![gone];
        let out = run(&s);
        assert_eq!((out.calls.len(), out.retried), (1, 1));
        assert_eq!(out.left[0], Some((20 * MS + 1_000, Left::Cancelled)));
        // A budget is spent only while the deadline allows: calls at 0 and
        // at 1.5 + 20 ms, and the 40 ms backoff after that outlasts a
        // 50 ms deadline.
        let mut bounded = arrival(0, None);
        bounded.deadline = Some(50 * MS);
        let mut s = schedule(cfg, vec![bounded], 3 * MS / 2);
        s.tiers[0].script = fails(4, &TRANSIENT);
        let out = run(&s);
        assert_eq!(out.calls, vec![(0, vec![0]), (43 * MS / 2, vec![0])]);
        assert_eq!(out.left[0], Some((23 * MS, Left::Expired)));
    }

    #[test]
    fn a_transient_fault_is_answered_the_same_way_whatever_the_batch() {
        let sixteen: Vec<Arrival> = (0..16).map(|_| arrival(0, None)).collect();
        let all: Vec<usize> = (0..16).collect();
        // Hit once, the batch runs again as a batch.
        let mut s = schedule(retrying(knobs(16, Duration::ZERO), 1), sixteen, 1_000);
        s.tiers[0].script = fails(1, &TRANSIENT);
        let out = run(&s);
        assert_eq!(
            out.calls,
            vec![(0, all.clone()), (20 * MS + 1_000, all.clone())]
        );
        assert_eq!(
            (out.retried, out.left_as(Left::Completed)),
            (16, all.clone())
        );
        // Without a budget all sixteen see the fault, as a batch of one does.
        s.cfg.retry = RetryConfig::none();
        let out = run(&s);
        assert_eq!((out.sizes(), out.failed()), (vec![16], all.clone()));
        s.arrivals.truncate(1);
        let out = run(&s);
        assert_eq!((out.sizes(), out.failed()), (vec![1], vec![0]));
        // A permanent fault is somebody's: each member runs once alone and
        // only the culprit keeps the error.
        let mut s = schedule(knobs(16, Duration::ZERO), s.arrivals.repeat(16), 1_000);
        s.poison = vec![11];
        let out = run(&s);
        assert_eq!(out.sizes(), [vec![16], vec![1; 16]].concat());
        assert_eq!((out.isolated, out.failed()), (1, vec![11]));
        assert_eq!(out.left[11], Some((13_000, Left::Failed(PERMANENT))));
    }

    #[test]
    fn retries_rescue_within_budget_and_surface_the_fault_beyond_it() {
        let zero_backoff = |n| RetryConfig {
            base_backoff: Duration::ZERO,
            ..RetryConfig::new(n)
        };
        let mut s = schedule(knobs(1, Duration::ZERO), vec![arrival(0, None)], 10);
        s.cfg.retry = zero_backoff(3);
        s.tiers[0].script = fails(2, &TRANSIENT);
        let out = run(&s);
        assert_eq!(out.calls, vec![(0, vec![0]), (10, vec![0]), (20, vec![0])]);
        assert_eq!((out.retried, out.left_as(Left::Completed)), (2, vec![0]));
        s.cfg.retry = zero_backoff(1);
        let out = run(&s);
        assert_eq!((out.calls.len(), out.retried), (2, 1));
        assert_eq!(out.left[0], Some((20, Left::Failed(TRANSIENT))));
    }

    #[test]
    fn backpressure_is_loud_and_lossless() {
        // Request 0 keeps the batcher busy for 1 ms; three fill the queue
        // behind it, the fifth is refused, and every accepted one is
        // served once there is room — the sixth included.
        let mut cfg = knobs(1, Duration::ZERO);
        cfg.queue_capacity = 3;
        let arrivals = [0, 10, 20, 30, 40, MS + 10].map(|at| arrival(at, None));
        let out = run(&schedule(cfg, arrivals.to_vec(), MS));
        let full = TfheError::QueueFull { capacity: 3 };
        assert_eq!(out.left_as(Left::Refused(full)), vec![4]);
        assert_eq!(out.left_as(Left::Completed), vec![0, 1, 2, 3, 5]);
    }

    #[test]
    fn breaker_sheds_while_the_backend_is_sick_and_closes_when_it_heals() {
        // One request every 10 µs against a backend whose first three
        // calls fail; two failures open the breaker for 25 µs.
        let mut cfg = knobs(1, Duration::ZERO);
        cfg.breaker = Some(BreakerConfig {
            window: 8,
            min_samples: 2,
            cooldown: Duration::from_micros(25),
            ..BreakerConfig::default()
        });
        let arrivals: Vec<Arrival> = (0..12).map(|i| arrival(i * 10_000, None)).collect();
        let mut s = schedule(cfg, arrivals, 1_000);
        s.tiers[0].script = fails(3, &TRANSIENT);
        let out = run(&s);
        // Open at 11 µs: 20 and 30 are shed, 40 probes and fails (open
        // again at 41 µs), 50 and 60 are shed, 70 probes and closes it.
        assert_eq!(out.failed(), vec![0, 1, 4]);
        assert_eq!(out.shed(), vec![2, 3, 5, 6]);
        assert_eq!(out.left_as(Left::Completed), vec![7, 8, 9, 10, 11]);
        assert_eq!(out.breaker, Some((2, 1, BreakerState::Closed)));
        let hint = Duration::from_nanos(11_000 + 25_000 - 20_000);
        let overloaded = TfheError::Overloaded { retry_after: hint };
        assert_eq!(out.left[2], Some((20_000, Left::Refused(overloaded))));
    }

    #[test]
    fn a_drain_runs_a_backing_off_request_at_once() {
        let mut s = schedule(
            retrying(knobs(1, Duration::ZERO), 1),
            vec![arrival(0, None)],
            1_000,
        );
        s.tiers[0].script = fails(1, &TRANSIENT);
        s.drain_at = Some(5 * MS);
        let out = run(&s);
        assert_eq!(out.calls, vec![(0, vec![0]), (5 * MS, vec![0])]);
        assert_eq!(out.left_as(Left::Completed), vec![0]);
    }

    #[test]
    fn percentile_pinned_definition_on_small_samples() {
        // The regression this pins down: ceil(len·q) under-reported on tiny
        // samples — the old code returned `a` for the median of [a, b].
        assert_eq!(percentile(&[], 0.50), Duration::ZERO);
        assert_eq!(percentile(&[7], 0.0), Duration::from_nanos(7));
        assert_eq!(percentile(&[7], 0.50), Duration::from_nanos(7));
        assert_eq!(percentile(&[7], 1.0), Duration::from_nanos(7));
        assert_eq!(percentile(&[10, 20], 0.50), Duration::from_nanos(20));
        assert_eq!(percentile(&[10, 20, 30], 0.50), Duration::from_nanos(20));
        assert_eq!(percentile(&[10, 20], 0.0), Duration::from_nanos(10));
        assert_eq!(percentile(&[10, 20], 1.0), Duration::from_nanos(20));
        // p95/p99 of a small sample land on the max, never out of bounds.
        assert_eq!(percentile(&[1, 2, 3], 0.99), Duration::from_nanos(3));
    }

    #[test]
    fn reservoir_memory_stays_bounded_across_a_million_pushes() {
        // The regression this pins down: `latencies` was an unbounded
        // Vec<u64>, leaking ~8 bytes per completion for the life of the
        // dispatcher. A week at 10k bootstraps/s is ~48 GB.
        let mut r = LatencyReservoir {
            seed: 42,
            ..Default::default()
        };
        for i in 0..1_000_000u64 {
            r.push(i);
        }
        assert_eq!(r.seen, 1_000_000);
        assert!(r.samples.len() <= LATENCY_RESERVOIR_CAP);
        // Percentiles stay inside the observed range and ordered.
        let s = r.sorted();
        let p50 = percentile(&s, 0.50);
        let p99 = percentile(&s, 0.99);
        assert!(p50 <= p99);
        assert!(p99 <= Duration::from_nanos(999_999));
        // Over a uniform 0..1M stream the sampled median should land
        // near 500k — a loose sanity band, not a statistical test.
        assert!(
            (200_000..800_000).contains(&(p50.as_nanos() as u64)),
            "sampled p50 {p50:?} wildly off a uniform stream's median"
        );
        // Determinism: the same stream reproduces the same reservoir.
        let mut r2 = LatencyReservoir {
            seed: 42,
            ..Default::default()
        };
        for i in 0..1_000_000u64 {
            r2.push(i);
        }
        assert_eq!(r.sorted(), r2.sorted());
    }

    #[test]
    fn reservoir_below_capacity_is_exact() {
        // Small samples must keep every point, so percentiles are
        // identical to the unbounded history the dispatcher used to
        // keep.
        let mut r = LatencyReservoir {
            seed: 7,
            ..Default::default()
        };
        let mut exact: Vec<u64> = Vec::new();
        for i in (0..1000u64).rev() {
            r.push(i * 31);
            exact.push(i * 31);
        }
        exact.sort_unstable();
        assert_eq!(r.sorted(), exact);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(percentile(&r.sorted(), q), percentile(&exact, q));
        }
    }

    mod percentile_properties {
        use super::*;

        #[test]
        fn monotone_in_q_and_bounded() {
            let mut rng = StdRng::seed_from_u64(0xBE7C_0001);
            for case in 0..128 {
                let mut xs: Vec<u64> = (0..16).map(|_| rng.gen_range(0u64..1_000_000)).collect();
                xs.truncate(rng.gen_range(1usize..17));
                xs.sort_unstable();
                let (q1, q2) = (rng.gen_range(0.0f64..1.0), rng.gen_range(0.0f64..1.0));
                let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
                let p_lo = percentile(&xs, lo);
                let p_hi = percentile(&xs, hi);
                let at = format!("case {case}: xs={xs:?} q={lo},{hi}");
                assert!(p_lo <= p_hi, "{at}: percentile not monotone");
                assert!(p_lo >= Duration::from_nanos(xs[0]), "{at}");
                assert!(p_hi <= Duration::from_nanos(*xs.last().unwrap()), "{at}");
            }
        }

        #[test]
        fn exact_on_singletons() {
            let mut rng = StdRng::seed_from_u64(0xBE7C_0002);
            for case in 0..128 {
                let (x, q): (u64, _) = (rng.gen(), rng.gen_range(0.0f64..1.0));
                let got = percentile(&[x], q);
                assert_eq!(got, Duration::from_nanos(x), "case {case}: x={x} q={q}");
            }
        }

        #[test]
        fn extremes_hit_min_and_max() {
            let mut rng = StdRng::seed_from_u64(0xBE7C_0003);
            for case in 0..128 {
                let mut xs: Vec<u64> = (0..8).map(|_| rng.gen_range(0u64..1_000_000)).collect();
                xs.truncate(rng.gen_range(1usize..9));
                xs.sort_unstable();
                let at = format!("case {case}: xs={xs:?}");
                assert_eq!(percentile(&xs, 0.0), Duration::from_nanos(xs[0]), "{at}");
                let max = Duration::from_nanos(*xs.last().unwrap());
                assert_eq!(percentile(&xs, 1.0), max, "{at}");
            }
        }
    }
}
