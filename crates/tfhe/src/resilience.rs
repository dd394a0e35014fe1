//! Service-level resilience: retry policy, circuit breaking, and
//! degraded-mode failover across [`Bootstrapper`] backends.
//!
//! The [`BootstrapEngine`](crate::BootstrapEngine) makes the *engine*
//! survive faults (watchdog, respawn, bounded chunk re-dispatch inside one
//! call); this module makes the *service* survive them. Three pieces
//! compose:
//!
//! - [`RetryConfig`]: the [`Dispatcher`](crate::Dispatcher)'s bounded
//!   re-dispatch of a *request* — the one retry that knows a deadline —
//!   with exponential backoff and **deterministic seeded jitter** (the same
//!   SplitMix64 stream the fault injector uses, so a chaos run's backoff
//!   schedule replays exactly). What is worth retrying is decided by
//!   [`TfheError::is_retryable`] — transient infrastructure faults
//!   (worker panics, wedged jobs, corrupted outputs, dead engines) retry;
//!   permanent request errors (validation) never do.
//! - [`CircuitBreaker`]: a Closed → Open → HalfOpen state machine driven
//!   by a rolling failure-rate window and (optionally) a polled
//!   [`EngineHealth`] probe. While open, admission fails fast with
//!   [`TfheError::Overloaded`] instead of queueing work that will die;
//!   after a cooldown, half-open probe traffic decides between closing
//!   (recovered) and re-opening (still sick).
//! - [`FailoverBootstrapper`]: an ordered list of backends (e.g.
//!   `BootstrapEngine` → `ServerKey`), each behind its own breaker.
//!   Requests are served by the first admitting tier; a tier that fails
//!   retryably is failed over at once — the stack retries nothing — and
//!   when the primary's breaker opens the service *degrades* to the next
//!   tier instead of failing, with half-open probes restoring the primary
//!   once it recovers. Because every [`Bootstrapper`] backend is
//!   bit-identical on the same request (the conformance contract), a
//!   failover is invisible to the caller except in latency.
//!
//! Every retry, breaker transition, and failover is an [`Event`] in a
//! [`Journal`] (shareable across components so their incidents
//! interleave in the order they happened), under a [`Who::Scope`] named
//! after the tier or breaker, and rendered into the Chrome trace by
//! `morphling_core::trace::ExecutionTrace::add_events`.
//!
//! # Degraded-mode serving in one picture
//!
//! ```text
//!            ┌──────────── FailoverBootstrapper ────────────┐
//! request ──▶│ tier 0: BootstrapEngine [breaker: Open]   skip │
//!            │ tier 1: ServerKey       [breaker: Closed] serve│──▶ result
//!            └────────────────────────────────────────────────┘
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::bootstrapper::{BatchRequest, Bootstrapper};
use crate::engine::EngineHealth;
use crate::error::TfheError;
use crate::faults::unit_sample;
use crate::journal::{self, Event, EventKind, Journal, Who};
use crate::lwe::LweCiphertext;
use crate::policy::dur_ns;

/// Hash-domain separator for retry jitter (disjoint from the fault
/// injector's site domains, so jitter never aliases injection decisions).
const JITTER_DOMAIN: u64 = 0x6a_69_74_74;

/// Ignore lock poisoning: resilience state stays consistent across panics
/// (counters are atomics; the window/journal are repaired by later calls).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Retry knobs
// ---------------------------------------------------------------------------

/// Bounded retry with exponential backoff and deterministic seeded jitter,
/// as plain data: the `retry` section of a
/// [`ServingConfig`](crate::ServingConfig), applied by the dispatcher to
/// each request of a batch that failed retryably.
///
/// Backoff for attempt `a` (1-based) is `min(base · 2^(a−1), max)`, scaled
/// by a jitter factor drawn deterministically from `(seed, key, attempt)` —
/// two runs with the same seed and request keys back off identically,
/// which keeps chaos tests reproducible while still de-synchronizing
/// concurrent retriers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryConfig {
    /// Re-dispatches allowed after the first attempt (0 = fail fast; 2
    /// allows three attempts in total).
    pub max_retries: u32,
    /// Backoff before the first retry (doubles per further attempt).
    pub base_backoff: Duration,
    /// Cap on the exponential backoff.
    pub max_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by a factor in
    /// `[1 − jitter, 1]`, drawn deterministically from `seed`.
    pub jitter: f64,
    /// Seed for the deterministic jitter draws.
    pub seed: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        Self::none()
    }
}

impl RetryConfig {
    /// No retries at all — every failure surfaces immediately.
    pub fn none() -> Self {
        Self {
            max_retries: 0,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter: 0.0,
            seed: 0,
        }
    }

    /// Up to `max_retries` re-dispatches, starting from a 200 µs backoff
    /// doubling up to 50 ms, with half-width jitter and seed 0.
    pub fn new(max_retries: u32) -> Self {
        Self {
            max_retries,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(50),
            jitter: 0.5,
            seed: 0,
        }
    }

    /// Set the first-retry backoff (doubles each further attempt).
    #[must_use]
    pub fn with_base_backoff(mut self, base: Duration) -> Self {
        self.base_backoff = base;
        self
    }

    /// Cap the exponential backoff.
    #[must_use]
    pub fn with_max_backoff(mut self, max: Duration) -> Self {
        self.max_backoff = max;
        self
    }

    /// Set the jitter fraction and the seed its draws come from.
    #[must_use]
    pub fn with_jitter(mut self, jitter: f64, seed: u64) -> Self {
        self.jitter = jitter;
        self.seed = seed;
        self
    }

    /// Should a request that failed with `err` after `attempt` completed
    /// retries be retried once more? `true` only for
    /// [retryable](TfheError::is_retryable) faults within budget.
    pub fn should_retry(&self, err: &TfheError, attempt: u32) -> bool {
        err.is_retryable() && attempt < self.max_retries
    }

    /// Backoff before retry `attempt` (1-based) of the request identified
    /// by `key`. Pure function of `(self, key, attempt)`; a `jitter`
    /// outside `[0, 1]` is read as the nearer bound (NaN as 0).
    pub fn backoff(&self, key: u64, attempt: u32) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let shift = attempt.saturating_sub(1).min(16);
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << shift)
            .min(self.max_backoff.max(self.base_backoff));
        let jitter = self.jitter.min(1.0);
        if jitter.is_nan() || jitter <= 0.0 {
            return exp;
        }
        let unit = unit_sample(self.seed, JITTER_DOMAIN, key, attempt);
        exp.mul_f64(1.0 - jitter * unit)
    }
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// The breaker's admission state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Normal service: everything admitted, outcomes feed the window.
    #[default]
    Closed,
    /// Tripped: admission fails fast with [`TfheError::Overloaded`] until
    /// the cooldown elapses.
    Open,
    /// Cooldown elapsed: requests are admitted as probes; enough
    /// successes close the breaker, any failure re-opens it.
    HalfOpen,
}

/// Circuit-breaker knobs in plain-data form: the `breaker` section of a
/// [`ServingConfig`](crate::ServingConfig) (where `Some` means "gate
/// admission behind a fresh breaker built from these knobs") and what a
/// [`CircuitBreakerBuilder`] collects. Runtime-only wiring — a name, a
/// health probe, a shared journal — stays on the builder.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BreakerConfig {
    /// Rolling-window size in outcomes.
    pub window: usize,
    /// Failure fraction of the window that trips the breaker, in `(0, 1]`.
    pub failure_threshold: f64,
    /// Outcomes required in the window before the rate is trusted.
    pub min_samples: usize,
    /// How long an open breaker rejects before admitting probes.
    pub cooldown: Duration,
    /// Consecutive probe successes required to close from half-open.
    pub probes_to_close: u32,
}

impl Default for BreakerConfig {
    /// Window 32, threshold 0.5, min 8 samples, 100 ms cooldown, 1 probe
    /// to close.
    fn default() -> Self {
        Self {
            window: 32,
            failure_threshold: 0.5,
            min_samples: 8,
            cooldown: Duration::from_millis(100),
            probes_to_close: 1,
        }
    }
}

impl BreakerConfig {
    /// A [`CircuitBreakerBuilder`] pre-loaded with these knobs (through
    /// its clamping setters) — add runtime wiring (name, health probe,
    /// shared journal) and `build()`.
    pub fn to_builder(&self) -> CircuitBreakerBuilder {
        CircuitBreaker::builder()
            .window(self.window)
            .failure_threshold(self.failure_threshold)
            .min_samples(self.min_samples)
            .cooldown(self.cooldown)
            .probes_to_close(self.probes_to_close)
    }
}

/// Configures a [`CircuitBreaker`]. All knobs clamp to sane minimums, so
/// [`build`](Self::build) is infallible.
pub struct CircuitBreakerBuilder {
    name: String,
    config: BreakerConfig,
    health: Option<Arc<dyn Fn() -> EngineHealth + Send + Sync>>,
    journal: Option<Arc<Journal>>,
}

impl Default for CircuitBreakerBuilder {
    fn default() -> Self {
        Self {
            name: "breaker".to_string(),
            config: BreakerConfig::default(),
            health: None,
            journal: None,
        }
    }
}

impl std::fmt::Debug for CircuitBreakerBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CircuitBreakerBuilder")
            .field("name", &self.name)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl CircuitBreakerBuilder {
    /// Start from [`BreakerConfig::default`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Name used as the journal scope for this breaker's transitions.
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Rolling-window size in outcomes (clamped to ≥ 1).
    #[must_use]
    pub fn window(mut self, outcomes: usize) -> Self {
        self.config.window = outcomes.max(1);
        self
    }

    /// Failure fraction of the window that trips the breaker (clamped to
    /// `(0, 1]`).
    #[must_use]
    pub fn failure_threshold(mut self, fraction: f64) -> Self {
        self.config.failure_threshold = fraction.clamp(f64::MIN_POSITIVE, 1.0);
        self
    }

    /// Outcomes required in the window before the rate is trusted
    /// (clamped to ≥ 1) — keeps one early failure from tripping a cold
    /// breaker.
    #[must_use]
    pub fn min_samples(mut self, samples: usize) -> Self {
        self.config.min_samples = samples.max(1);
        self
    }

    /// How long an open breaker rejects before admitting probes.
    #[must_use]
    pub fn cooldown(mut self, cooldown: Duration) -> Self {
        self.config.cooldown = cooldown;
        self
    }

    /// Consecutive probe successes required to close from half-open
    /// (clamped to ≥ 1).
    #[must_use]
    pub fn probes_to_close(mut self, probes: u32) -> Self {
        self.config.probes_to_close = probes.max(1);
        self
    }

    /// Poll a health source on admission: a [`EngineHealth::Failed`]
    /// report force-opens the breaker without waiting for the failure
    /// rate to climb (use
    /// [`BootstrapEngine::health_handle`](crate::BootstrapEngine::health_handle)).
    #[must_use]
    pub fn health_probe(
        mut self,
        probe: impl Fn() -> EngineHealth + Send + Sync + 'static,
    ) -> Self {
        self.health = Some(Arc::new(probe));
        self
    }

    /// Journal state transitions into `journal` (shared with other
    /// components so their incidents interleave in record order).
    /// Without this, the breaker creates its own private journal.
    #[must_use]
    pub fn journal(mut self, journal: Arc<Journal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Build the breaker (infallible — every knob clamps).
    pub fn build(self) -> CircuitBreaker {
        CircuitBreaker {
            name: self.name.into(),
            config: self.config,
            health: self.health,
            journal: self.journal.unwrap_or_default(),
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                outcomes: VecDeque::new(),
                failures: 0,
                opened_at: 0,
                probe_successes: 0,
            }),
            opens: AtomicU64::new(0),
            closes: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
        }
    }
}

struct BreakerInner {
    state: BreakerState,
    /// Rolling outcome window; `true` = failure.
    outcomes: VecDeque<bool>,
    failures: usize,
    /// When the breaker last tripped, on [`journal::now`]'s nanoseconds.
    opened_at: u64,
    probe_successes: u32,
}

/// Failure-rate-driven admission gate: Closed → Open → HalfOpen.
///
/// Feed it one [`record`](Self::record) per backend call outcome and ask
/// [`try_acquire`](Self::try_acquire) before each submission. Only
/// *retryable* faults should be recorded as failures — a validation error
/// says nothing about backend health.
pub struct CircuitBreaker {
    name: Arc<str>,
    config: BreakerConfig,
    health: Option<Arc<dyn Fn() -> EngineHealth + Send + Sync>>,
    journal: Arc<Journal>,
    inner: Mutex<BreakerInner>,
    opens: AtomicU64,
    closes: AtomicU64,
    rejections: AtomicU64,
}

impl std::fmt::Debug for CircuitBreaker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CircuitBreaker")
            .field("name", &self.name)
            .field("state", &self.state())
            .field("opens", &self.opens.load(Ordering::Relaxed))
            .field("closes", &self.closes.load(Ordering::Relaxed))
            .field("rejections", &self.rejections.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl CircuitBreaker {
    /// Configure window, threshold, cooldown, and probes before building.
    pub fn builder() -> CircuitBreakerBuilder {
        CircuitBreakerBuilder::new()
    }

    /// A breaker with default policy.
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// The breaker's name (its journal scope).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current state. `Open` is reported until traffic actually probes
    /// it — transitions are driven by [`try_acquire`](Self::try_acquire)
    /// and [`record`](Self::record), not by the clock alone.
    pub fn state(&self) -> BreakerState {
        lock(&self.inner).state
    }

    /// Times the breaker tripped open.
    pub fn opens(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }

    /// Times the breaker closed from half-open (recoveries).
    pub fn closes(&self) -> u64 {
        self.closes.load(Ordering::Relaxed)
    }

    /// Admissions refused while open.
    pub fn rejections(&self) -> u64 {
        self.rejections.load(Ordering::Relaxed)
    }

    /// The journal this breaker's transitions land in.
    pub fn journal(&self) -> &Arc<Journal> {
        &self.journal
    }

    fn journal_transition(&self, at_ns: u64, kind: EventKind) {
        let who = Who::Scope(Arc::clone(&self.name));
        self.journal.record(Event::at(at_ns, who, kind));
    }

    /// Ask to admit one request.
    ///
    /// Closed admits (after polling the health probe, if any — a `Failed`
    /// report force-opens). Open admits nothing until the cooldown
    /// elapses, then transitions to half-open and admits probes. Every
    /// half-open admission is a probe whose [`record`](Self::record)ed
    /// outcome decides the breaker's fate.
    ///
    /// # Errors
    ///
    /// [`TfheError::Overloaded`] while open, with the remaining cooldown
    /// as the retry hint.
    pub fn try_acquire(&self) -> Result<(), TfheError> {
        self.try_acquire_at(journal::now())
    }

    /// [`try_acquire`](Self::try_acquire) at `now` (nanoseconds on
    /// [`journal::now`]'s clock, or on a driver's virtual one).
    pub(crate) fn try_acquire_at(&self, now: u64) -> Result<(), TfheError> {
        let mut inner = lock(&self.inner);
        if inner.state == BreakerState::Closed {
            if let Some(health) = &self.health {
                if health() == EngineHealth::Failed {
                    self.trip(now, &mut inner);
                }
            }
        }
        match inner.state {
            BreakerState::Closed | BreakerState::HalfOpen => Ok(()),
            BreakerState::Open => {
                let cooldown = dur_ns(self.config.cooldown);
                let elapsed = now.saturating_sub(inner.opened_at);
                if elapsed >= cooldown {
                    inner.state = BreakerState::HalfOpen;
                    inner.probe_successes = 0;
                    self.journal_transition(now, EventKind::BreakerHalfOpen);
                    Ok(())
                } else {
                    self.rejections.fetch_add(1, Ordering::Relaxed);
                    Err(TfheError::Overloaded {
                        retry_after: Duration::from_nanos(cooldown - elapsed),
                    })
                }
            }
        }
    }

    /// Report the outcome of one admitted backend call. Record only
    /// service outcomes: successes and *retryable* failures. Permanent
    /// request errors and cancellations are not health signals.
    pub fn record(&self, success: bool) {
        self.record_at(journal::now(), success);
    }

    /// [`record`](Self::record) at `now`, on
    /// [`try_acquire_at`](Self::try_acquire_at)'s clock.
    pub(crate) fn record_at(&self, now: u64, success: bool) {
        let mut inner = lock(&self.inner);
        match inner.state {
            BreakerState::Closed => {
                if inner.outcomes.len() == self.config.window {
                    if let Some(old) = inner.outcomes.pop_front() {
                        if old {
                            inner.failures -= 1;
                        }
                    }
                }
                inner.outcomes.push_back(!success);
                if !success {
                    inner.failures += 1;
                }
                let n = inner.outcomes.len();
                if n >= self.config.min_samples
                    && inner.failures as f64 / n as f64 >= self.config.failure_threshold
                {
                    self.trip(now, &mut inner);
                }
            }
            BreakerState::HalfOpen => {
                if success {
                    inner.probe_successes += 1;
                    if inner.probe_successes >= self.config.probes_to_close {
                        inner.state = BreakerState::Closed;
                        inner.outcomes.clear();
                        inner.failures = 0;
                        inner.probe_successes = 0;
                        self.closes.fetch_add(1, Ordering::Relaxed);
                        self.journal_transition(now, EventKind::BreakerClose);
                    }
                } else {
                    self.trip(now, &mut inner);
                }
            }
            // A late result from before the trip: the window is already
            // condemned, nothing to learn.
            BreakerState::Open => {}
        }
    }

    /// Transition to Open: stamp the cooldown clock, condemn the window.
    fn trip(&self, now: u64, inner: &mut BreakerInner) {
        inner.state = BreakerState::Open;
        inner.opened_at = now;
        inner.outcomes.clear();
        inner.failures = 0;
        inner.probe_successes = 0;
        self.opens.fetch_add(1, Ordering::Relaxed);
        self.journal_transition(now, EventKind::BreakerOpen);
    }
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Failover bootstrapper
// ---------------------------------------------------------------------------

struct Tier {
    name: Arc<str>,
    backend: Arc<dyn Bootstrapper + Send + Sync>,
    breaker: Arc<CircuitBreaker>,
    served: AtomicU64,
}

/// A tier as configured: name, backend, optional caller-supplied breaker.
type TierSpec = (
    String,
    Arc<dyn Bootstrapper + Send + Sync>,
    Option<Arc<CircuitBreaker>>,
);

/// Configures a [`FailoverBootstrapper`]: ordered tiers and where their
/// events go.
#[derive(Default)]
pub struct FailoverBootstrapperBuilder {
    tiers: Vec<TierSpec>,
    journal: Option<Arc<Journal>>,
}

impl std::fmt::Debug for FailoverBootstrapperBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FailoverBootstrapperBuilder")
            .field(
                "tiers",
                &self.tiers.iter().map(|(n, _, _)| n).collect::<Vec<_>>(),
            )
            .finish_non_exhaustive()
    }
}

impl FailoverBootstrapperBuilder {
    /// An empty stack; add tiers in priority order.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a tier with a default breaker (named after the tier,
    /// journaling into the stack's shared journal).
    #[must_use]
    pub fn tier<B>(mut self, name: impl Into<String>, backend: B) -> Self
    where
        B: Bootstrapper + Send + Sync + 'static,
    {
        self.tiers.push((name.into(), Arc::new(backend), None));
        self
    }

    /// Append a tier guarded by a caller-configured breaker (e.g. one
    /// with a [health probe](CircuitBreakerBuilder::health_probe) wired
    /// to the tier's engine).
    #[must_use]
    pub fn tier_with_breaker<B>(
        mut self,
        name: impl Into<String>,
        backend: B,
        breaker: Arc<CircuitBreaker>,
    ) -> Self
    where
        B: Bootstrapper + Send + Sync + 'static,
    {
        self.tiers
            .push((name.into(), Arc::new(backend), Some(breaker)));
        self
    }

    /// Journal events into `journal` instead of a fresh private one —
    /// share it with a dispatcher so both record into one ring.
    #[must_use]
    pub fn journal(mut self, journal: Arc<Journal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Build the stack.
    ///
    /// # Errors
    ///
    /// [`TfheError::NoBackendProvided`] if no tier was added.
    pub fn build(self) -> Result<FailoverBootstrapper, TfheError> {
        if self.tiers.is_empty() {
            return Err(TfheError::NoBackendProvided);
        }
        let journal = self.journal.unwrap_or_default();
        let tiers = self
            .tiers
            .into_iter()
            .map(|(name, backend, breaker)| {
                let breaker = breaker.unwrap_or_else(|| {
                    Arc::new(
                        CircuitBreaker::builder()
                            .name(name.clone())
                            .journal(Arc::clone(&journal))
                            .build(),
                    )
                });
                Tier {
                    name: name.into(),
                    backend,
                    breaker,
                    served: AtomicU64::new(0),
                }
            })
            .collect();
        Ok(FailoverBootstrapper {
            tiers,
            journal,
            failovers: AtomicU64::new(0),
        })
    }
}

/// An ordered stack of [`Bootstrapper`] backends behind per-tier circuit
/// breakers — serve from the best healthy tier, degrade down the list,
/// restore upward via half-open probes. See the [module docs](self).
pub struct FailoverBootstrapper {
    tiers: Vec<Tier>,
    journal: Arc<Journal>,
    failovers: AtomicU64,
}

impl std::fmt::Debug for FailoverBootstrapper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FailoverBootstrapper")
            .field("tiers", &self.tier_names())
            .field("failovers", &self.failovers.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl FailoverBootstrapper {
    /// Start assembling a tier stack.
    pub fn builder() -> FailoverBootstrapperBuilder {
        FailoverBootstrapperBuilder::new()
    }

    /// Tier names in priority order.
    pub fn tier_names(&self) -> Vec<&str> {
        self.tiers.iter().map(|t| &*t.name).collect()
    }

    /// Requests served per tier, in priority order.
    pub fn served(&self) -> Vec<(String, u64)> {
        self.tiers
            .iter()
            .map(|t| (t.name.to_string(), t.served.load(Ordering::Relaxed)))
            .collect()
    }

    /// Requests that moved down at least one tier.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// The breaker guarding tier `index` (priority order).
    pub fn breaker(&self, index: usize) -> Option<&Arc<CircuitBreaker>> {
        self.tiers.get(index).map(|t| &t.breaker)
    }

    /// The shared event journal (tiers' breakers journal here too unless
    /// caller-supplied with their own).
    pub fn journal(&self) -> &Arc<Journal> {
        &self.journal
    }
}

impl Bootstrapper for FailoverBootstrapper {
    fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
        if req.is_empty() {
            return Ok(Vec::new());
        }
        // Prefer reporting a real backend failure over an admission
        // rejection — the former says what is actually wrong.
        let mut last_fault: Option<TfheError> = None;
        let mut last_reject: Option<TfheError> = None;
        let mut failed_from: Option<Arc<str>> = None;
        for tier in &self.tiers {
            let record = |kind| {
                let who = Who::Scope(Arc::clone(&tier.name));
                self.journal.record(Event::instant(who, kind));
            };
            if let Err(e) = tier.breaker.try_acquire() {
                record(EventKind::TierSkipped);
                last_reject = Some(e);
                continue;
            }
            if let Some(from) = failed_from.take() {
                self.failovers.fetch_add(1, Ordering::Relaxed);
                record(EventKind::Failover { from });
            }
            match tier.backend.try_bootstrap_batch(req) {
                Ok(out) => {
                    tier.breaker.record(true);
                    tier.served.fetch_add(1, Ordering::Relaxed);
                    return Ok(out);
                }
                // Nothing is retried here: the next tier gets the
                // request now, and whether the *request* runs again is
                // the dispatcher's call — it knows the deadline.
                Err(e) if e.is_retryable() => {
                    tier.breaker.record(false);
                    last_fault = Some(e);
                    failed_from = Some(Arc::clone(&tier.name));
                }
                // Permanent: the request is at fault; every tier would
                // answer identically, so don't fail over and don't
                // penalize this tier's health.
                Err(e) => return Err(e),
            }
        }
        Err(last_fault
            .or(last_reject)
            .unwrap_or(TfheError::NoBackendProvided))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::Lut;

    fn echo_outputs(req: &BatchRequest) -> Vec<LweCiphertext> {
        let mut out = Vec::with_capacity(req.output_len());
        for (i, ct) in req.ciphertexts().iter().enumerate() {
            out.extend(std::iter::repeat_with(|| ct.clone()).take(req.output_count(i)));
        }
        out
    }

    /// Fails with a retryable fault for the first `fail_first` calls,
    /// then echoes inputs — the deterministic "sick then recovered"
    /// backend.
    struct FlakyBackend {
        fail_first: u64,
        calls: AtomicU64,
    }

    impl FlakyBackend {
        fn new(fail_first: u64) -> Self {
            Self {
                fail_first,
                calls: AtomicU64::new(0),
            }
        }
    }

    impl Bootstrapper for FlakyBackend {
        fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
            let call = self.calls.fetch_add(1, Ordering::SeqCst);
            if call < self.fail_first {
                Err(TfheError::WorkerPanicked { worker: 0 })
            } else {
                Ok(echo_outputs(req))
            }
        }
    }

    /// Always rejects with a permanent validation error.
    struct PermanentlyWrong;

    impl Bootstrapper for PermanentlyWrong {
        fn try_bootstrap_batch(&self, _: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
            Err(TfheError::LweDimensionMismatch {
                expected: 16,
                got: 8,
            })
        }
    }

    fn one_request() -> BatchRequest {
        BatchRequest::shared(
            vec![LweCiphertext::trivial(
                morphling_math::Torus32::from_raw(7),
                4,
            )],
            Lut::identity(64, 4),
        )
    }

    #[test]
    fn retry_policy_honors_taxonomy_and_budget() {
        let p = RetryConfig::new(2);
        let transient = TfheError::WorkerPanicked { worker: 1 };
        let permanent = TfheError::NoLutProvided;
        assert!(p.should_retry(&transient, 0));
        assert!(p.should_retry(&transient, 1));
        assert!(!p.should_retry(&transient, 2), "budget exhausted");
        assert!(!p.should_retry(&permanent, 0), "permanent never retries");
        assert!(!RetryConfig::none().should_retry(&transient, 0));
    }

    #[test]
    fn backoff_doubles_caps_and_jitters_deterministically() {
        let p = RetryConfig::new(8)
            .with_base_backoff(Duration::from_millis(1))
            .with_max_backoff(Duration::from_millis(8))
            .with_jitter(0.0, 0);
        assert_eq!(p.backoff(0, 1), Duration::from_millis(1));
        assert_eq!(p.backoff(0, 2), Duration::from_millis(2));
        assert_eq!(p.backoff(0, 3), Duration::from_millis(4));
        assert_eq!(p.backoff(0, 4), Duration::from_millis(8));
        assert_eq!(p.backoff(0, 7), Duration::from_millis(8), "capped");

        let j = p.with_jitter(0.5, 99);
        let a = j.backoff(5, 2);
        // Deterministic: same (key, attempt) → same backoff; bounded by
        // the un-jittered value and its half.
        assert_eq!(a, j.backoff(5, 2));
        assert!(a <= Duration::from_millis(2));
        assert!(a >= Duration::from_millis(1));
        // Different keys de-synchronize.
        assert_ne!(j.backoff(5, 2), j.backoff(6, 2));
        // Zero-base policies never sleep.
        assert_eq!(RetryConfig::none().backoff(0, 1), Duration::ZERO);
    }

    /// Cooldown of the breakers below, in nanoseconds.
    const COOLDOWN_NS: u64 = 100_000_000;

    fn breaker(min_samples: usize) -> CircuitBreakerBuilder {
        CircuitBreaker::builder()
            .min_samples(min_samples)
            .failure_threshold(0.5)
            .cooldown(Duration::from_nanos(COOLDOWN_NS))
    }

    #[test]
    fn breaker_trips_at_threshold_and_rejects_until_the_cooldown_ends() {
        let b = breaker(4).window(8).build();
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_at(10, true);
        b.record_at(20, false);
        b.record_at(30, true);
        assert_eq!(b.state(), BreakerState::Closed, "below min_samples");
        b.record_at(40, false);
        assert_eq!(b.state(), BreakerState::Open, "2/4 failures at 0.5");
        assert_eq!(b.opens(), 1);
        // Open from 40: refused up to the last nanosecond of the cooldown,
        // with what is left of it as the hint.
        let err = b.try_acquire_at(40 + COOLDOWN_NS - 1).unwrap_err();
        let retry_after = Duration::from_nanos(1);
        assert_eq!(err, TfheError::Overloaded { retry_after });
        assert!(err.is_retryable());
        assert_eq!(b.rejections(), 1);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.try_acquire_at(40 + COOLDOWN_NS).is_ok());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.rejections(), 1);
    }

    #[test]
    fn breaker_recovers_through_half_open_probes() {
        let b = breaker(1).probes_to_close(2).build();
        b.record_at(5, false); // trip
        assert_eq!(b.state(), BreakerState::Open);
        let cooled = 5 + COOLDOWN_NS;
        assert!(b.try_acquire_at(cooled).is_ok());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_at(cooled + 1, true);
        assert_eq!(b.state(), BreakerState::HalfOpen, "needs 2 probes");
        b.record_at(cooled + 2, true);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.closes(), 1);
        // Each transition is stamped with the time it was told.
        let events = b.journal().events();
        let seen: Vec<(u64, &str)> = events.iter().map(|e| (e.at_ns, e.kind.label())).collect();
        assert_eq!(
            seen,
            vec![
                (5, "breaker_open"),
                (cooled, "breaker_half_open"),
                (cooled + 2, "breaker_close")
            ]
        );
    }

    #[test]
    fn half_open_probe_failure_reopens_for_a_full_cooldown() {
        let b = breaker(1).build();
        b.record_at(0, false);
        assert!(b.try_acquire_at(COOLDOWN_NS).is_ok());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_at(COOLDOWN_NS + 7, false);
        assert_eq!(b.state(), BreakerState::Open, "failed probe re-opens");
        assert_eq!(b.opens(), 2);
        // The cooldown runs from the re-trip, not from the first one.
        assert!(b.try_acquire_at(2 * COOLDOWN_NS + 6).is_err());
        assert!(b.try_acquire_at(2 * COOLDOWN_NS + 7).is_ok());
    }

    #[test]
    fn health_probe_failed_forces_open() {
        let b = breaker(8).health_probe(|| EngineHealth::Failed).build();
        let err = b.try_acquire_at(3).unwrap_err();
        let retry_after = Duration::from_nanos(COOLDOWN_NS);
        assert_eq!(err, TfheError::Overloaded { retry_after });
        assert_eq!(b.state(), BreakerState::Open);

        let healthy = CircuitBreaker::builder()
            .health_probe(|| EngineHealth::Degraded)
            .build();
        assert!(healthy.try_acquire().is_ok(), "degraded still serves");
    }

    #[test]
    fn failover_serves_from_fallback_when_primary_fails() {
        let stack = FailoverBootstrapper::builder()
            .tier("primary", FlakyBackend::new(u64::MAX))
            .tier("fallback", FlakyBackend::new(0))
            .build()
            .expect("two tiers");
        let req = one_request();
        let out = stack.try_bootstrap_batch(&req).expect("fallback serves");
        assert_eq!(out.len(), 1);
        assert_eq!(stack.failovers(), 1);
        assert_eq!(stack.served()[0].1, 0);
        assert_eq!(stack.served()[1].1, 1);
        // One call to the primary, none retried in place.
        let events = stack.journal().events();
        let labels: Vec<&str> = events.iter().map(|e| e.kind.label()).collect();
        assert_eq!(labels, ["failover"]);
    }

    #[test]
    fn open_primary_is_skipped_and_probed_back() {
        let stack = FailoverBootstrapper::builder()
            .tier_with_breaker(
                "primary",
                FlakyBackend::new(2),
                Arc::new(
                    CircuitBreaker::builder()
                        .name("primary")
                        .min_samples(2)
                        .failure_threshold(0.5)
                        .cooldown(Duration::ZERO)
                        .build(),
                ),
            )
            .tier("fallback", FlakyBackend::new(0))
            .build()
            .expect("two tiers");
        let req = one_request();
        // Two failing requests trip the primary's breaker (no retries).
        assert_eq!(stack.try_bootstrap_batch(&req).expect("served").len(), 1);
        assert_eq!(stack.try_bootstrap_batch(&req).expect("served").len(), 1);
        assert_eq!(
            stack.breaker(0).expect("tier 0").state(),
            BreakerState::Open
        );
        // Cooldown is zero, so the next request probes the (now healed)
        // primary, succeeds, and closes the breaker — primary restored.
        assert_eq!(stack.try_bootstrap_batch(&req).expect("probe").len(), 1);
        assert_eq!(
            stack.breaker(0).expect("tier 0").state(),
            BreakerState::Closed
        );
        assert_eq!(stack.served()[0].1, 1, "probe served by primary");
        assert_eq!(stack.failovers(), 2);
    }

    #[test]
    fn permanent_errors_do_not_fail_over() {
        let stack = FailoverBootstrapper::builder()
            .tier("primary", PermanentlyWrong)
            .tier("fallback", FlakyBackend::new(0))
            .build()
            .expect("two tiers");
        let err = stack.try_bootstrap_batch(&one_request()).unwrap_err();
        assert!(matches!(err, TfheError::LweDimensionMismatch { .. }));
        assert_eq!(stack.failovers(), 0);
        assert_eq!(
            stack.breaker(0).expect("tier 0").state(),
            BreakerState::Closed,
            "validation errors are not health signals"
        );
    }

    #[test]
    fn all_tiers_down_surfaces_the_backend_fault() {
        let stack = FailoverBootstrapper::builder()
            .tier("a", FlakyBackend::new(u64::MAX))
            .tier("b", FlakyBackend::new(u64::MAX))
            .build()
            .expect("two tiers");
        let err = stack.try_bootstrap_batch(&one_request()).unwrap_err();
        assert_eq!(err, TfheError::WorkerPanicked { worker: 0 });
        assert_eq!(stack.failovers(), 1);
    }

    #[test]
    fn empty_stack_is_rejected_and_empty_batch_is_a_noop() {
        assert_eq!(
            FailoverBootstrapper::builder().build().err(),
            Some(TfheError::NoBackendProvided)
        );
        let stack = FailoverBootstrapper::builder()
            .tier("only", FlakyBackend::new(u64::MAX))
            .build()
            .expect("one tier");
        let empty = BatchRequest::shared(Vec::new(), Lut::identity(64, 4));
        assert_eq!(stack.try_bootstrap_batch(&empty), Ok(Vec::new()));
    }
}
