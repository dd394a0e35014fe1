//! Service-level resilience as plain data: the retry policy and the
//! circuit breaker that the serving core (`policy.rs`) applies on its
//! caller's clock.
//!
//! The [`BootstrapEngine`](crate::BootstrapEngine) makes the *engine*
//! survive faults inside one call; the [`Dispatcher`](crate::Dispatcher)
//! makes the *service* survive them, with two pieces from here:
//!
//! - [`RetryConfig`]: bounded re-dispatch of a *request* — the one retry
//!   that knows a deadline — with exponential backoff and **deterministic
//!   seeded jitter** (the same SplitMix64 stream the fault injector uses,
//!   so a chaos run's backoff schedule replays exactly). What is worth
//!   retrying is decided by [`TfheError::is_retryable`] — transient
//!   infrastructure faults (worker panics, wedged jobs, corrupted outputs,
//!   dead engines) retry; permanent request errors (validation) never do.
//! - [`BreakerConfig`]: the knobs of a Closed → Open → HalfOpen circuit
//!   breaker over a rolling failure-rate window, one per backend tier of
//!   a dispatcher. An open breaker benches its tier (a batch runs on the
//!   next [fallback](crate::DispatcherBuilder::fallback) that admits);
//!   after a cooldown, half-open probes decide between closing
//!   (recovered) and re-opening (still sick).

use std::collections::VecDeque;
use std::time::Duration;

use crate::engine::EngineHealth;
use crate::error::TfheError;
use crate::faults::unit_sample;
use crate::journal::EventKind;
use crate::policy::dur_ns;
use crate::serving::at_least_one;

/// Hash-domain separator for retry jitter (disjoint from the fault
/// injector's site domains, so jitter never aliases injection decisions).
const JITTER_DOMAIN: u64 = 0x6a_69_74_74;

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

    /// Should a request that failed with `err` after `attempt` completed
    /// retries be retried once more? `true` only for
    /// [retryable](TfheError::is_retryable) faults within budget.
    pub(crate) fn should_retry(&self, err: &TfheError, attempt: u32) -> bool {
        err.is_retryable() && attempt < self.max_retries
    }

    /// Backoff before retry `attempt` (1-based) of the request identified
    /// by `key`. Pure function of `(self, key, attempt)`; a `jitter`
    /// outside `[0, 1]` is read as the nearer bound (NaN as 0).
    pub(crate) fn backoff(&self, key: u64, attempt: u32) -> Duration {
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

/// Circuit-breaker knobs, the one way to configure a breaker: the
/// `breaker` section of a [`ServingConfig`](crate::ServingConfig), where
/// `Some` gives each of the dispatcher's backend tiers a breaker.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BreakerConfig {
    /// Rolling-window size in outcomes.
    pub window: usize,
    /// Failure fraction of the window that trips the breaker, in `(0, 1]`.
    pub failure_threshold: f64,
    /// Outcomes required in the window before the rate is trusted; at
    /// most `window`.
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
    /// Reject knobs under which a breaker misbehaves or can never open,
    /// naming the field: a zero `window` / `min_samples` /
    /// `probes_to_close`, `min_samples` above `window` (the window never
    /// holds that many outcomes), or a `failure_threshold` outside
    /// `(0, 1]`.
    pub(crate) fn validate(&self) -> Result<(), TfheError> {
        at_least_one("breaker.window", self.window)?;
        at_least_one("breaker.min_samples", self.min_samples)?;
        at_least_one("breaker.probes_to_close", self.probes_to_close as usize)?;
        if self.min_samples > self.window {
            return Err(TfheError::InvalidServingConfig {
                field: "breaker.min_samples",
                detail: format!(
                    "must not exceed breaker.window ({}), or the breaker can never open (got {})",
                    self.window, self.min_samples
                ),
            });
        }
        let threshold = self.failure_threshold;
        if !threshold.is_finite() || threshold <= 0.0 || threshold > 1.0 {
            return Err(TfheError::InvalidServingConfig {
                field: "breaker.failure_threshold",
                detail: format!("must be a finite fraction in (0, 1] (got {threshold})"),
            });
        }
        Ok(())
    }
}

/// Where a [`CircuitBreaker`] stands.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum BreakerState {
    /// Normal service: everything admitted, outcomes feed the window.
    #[default]
    Closed,
    /// Tripped at `since`: admission fails fast until the cooldown ends.
    Open { since: u64 },
    /// Cooldown over: every admission is a probe; `successes` in a row
    /// so far.
    HalfOpen { successes: u32 },
}

/// A Closed → Open → HalfOpen admission gate over a rolling failure-rate
/// window, as plain data (DESIGN.md §8 has the transition table). Its
/// one owner, the serving core, holds one per backend tier, passes the
/// time in (`u64` ns on the dispatcher's clock, or on a driver's virtual
/// one) and journals the transition each call returns under the tier's
/// scope.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct CircuitBreaker {
    config: BreakerConfig,
    pub(crate) state: BreakerState,
    /// Rolling outcome window; `true` = failure.
    outcomes: VecDeque<bool>,
    failures: usize,
    /// Times it tripped open, closed from half-open, refused a batch.
    pub(crate) opens: u64,
    pub(crate) closes: u64,
    pub(crate) rejections: u64,
}

impl CircuitBreaker {
    /// A closed breaker under `config`, which its owner has validated.
    pub(crate) fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            state: BreakerState::Closed,
            outcomes: VecDeque::with_capacity(config.window),
            failures: 0,
            opens: 0,
            closes: 0,
            rejections: 0,
        }
    }

    /// Ask at `now` to admit one request to a backend reporting `health`,
    /// and say which transition that made, if any.
    ///
    /// Closed admits unless `health` is [`EngineHealth::Failed`], which
    /// trips the breaker and refuses. Open refuses until the cooldown
    /// ends, then turns half-open and admits. Every half-open admission is
    /// a probe whose [`record`](Self::record)ed outcome decides the
    /// breaker's fate. A refusal is [`TfheError::Overloaded`], with what
    /// is left of the cooldown as the retry hint.
    pub(crate) fn admit(
        &mut self,
        now: u64,
        health: EngineHealth,
    ) -> (Result<(), TfheError>, Option<EventKind>) {
        let cooldown = dur_ns(self.config.cooldown);
        let refuse = |left: u64| {
            Err(TfheError::Overloaded {
                retry_after: Duration::from_nanos(left),
            })
        };
        match self.state {
            BreakerState::Closed if health == EngineHealth::Failed => {
                self.rejections += 1;
                (refuse(cooldown), Some(self.trip(now)))
            }
            BreakerState::Closed | BreakerState::HalfOpen { .. } => (Ok(()), None),
            BreakerState::Open { .. } => match self.cooling(now) {
                Some(left) => {
                    self.rejections += 1;
                    (refuse(left), None)
                }
                None => {
                    self.state = BreakerState::HalfOpen { successes: 0 };
                    (Ok(()), Some(EventKind::BreakerHalfOpen))
                }
            },
        }
    }

    /// What is left at `now` of an open breaker's cooldown; `None` once it
    /// would admit, health aside. It moves nothing: the front door asks it.
    pub(crate) fn cooling(&self, now: u64) -> Option<u64> {
        let BreakerState::Open { since } = self.state else {
            return None;
        };
        let cooldown = dur_ns(self.config.cooldown);
        cooldown
            .checked_sub(now.saturating_sub(since))
            .filter(|&left| left > 0)
    }

    /// Hear at `now` the outcome of one admitted backend call, and say
    /// which transition that made, if any. Record only service outcomes:
    /// successes and *retryable* failures — a permanent request error or a
    /// cancellation says nothing about the backend.
    pub(crate) fn record(&mut self, now: u64, ok: bool) -> Option<EventKind> {
        match self.state {
            BreakerState::Closed => {
                if self.outcomes.len() == self.config.window
                    && self.outcomes.pop_front() == Some(true)
                {
                    self.failures -= 1;
                }
                self.outcomes.push_back(!ok);
                self.failures += usize::from(!ok);
                let n = self.outcomes.len();
                let rate = self.failures as f64 / n as f64;
                (n >= self.config.min_samples && rate >= self.config.failure_threshold)
                    .then(|| self.trip(now))
            }
            BreakerState::HalfOpen { successes } if ok => {
                if successes + 1 < self.config.probes_to_close {
                    self.state = BreakerState::HalfOpen {
                        successes: successes + 1,
                    };
                    return None;
                }
                self.state = BreakerState::Closed;
                self.closes += 1;
                Some(EventKind::BreakerClose)
            }
            BreakerState::HalfOpen { .. } => Some(self.trip(now)),
            // A late result from before the trip: the window is already
            // condemned, nothing to learn.
            BreakerState::Open { .. } => None,
        }
    }

    /// Open at `now` and condemn the window.
    fn trip(&mut self, now: u64) -> EventKind {
        self.state = BreakerState::Open { since: now };
        self.outcomes.clear();
        self.failures = 0;
        self.opens += 1;
        EventKind::BreakerOpen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let p = RetryConfig {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
            jitter: 0.0,
            seed: 0,
            ..RetryConfig::new(8)
        };
        assert_eq!(p.backoff(0, 1), Duration::from_millis(1));
        assert_eq!(p.backoff(0, 2), Duration::from_millis(2));
        assert_eq!(p.backoff(0, 3), Duration::from_millis(4));
        assert_eq!(p.backoff(0, 4), Duration::from_millis(8));
        assert_eq!(p.backoff(0, 7), Duration::from_millis(8), "capped");

        let j = RetryConfig {
            jitter: 0.5,
            seed: 99,
            ..p
        };
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
    const HEALTHY: EngineHealth = EngineHealth::Healthy;

    fn breaker(min_samples: usize, window: usize, probes_to_close: u32) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            window,
            failure_threshold: 0.5,
            min_samples,
            cooldown: Duration::from_nanos(COOLDOWN_NS),
            probes_to_close,
        })
    }

    #[test]
    fn breaker_trips_at_threshold_and_rejects_until_the_cooldown_ends() {
        let mut b = breaker(4, 8, 1);
        assert_eq!(b.record(10, true), None);
        assert_eq!(b.record(20, false), None);
        assert_eq!(b.record(30, true), None);
        assert_eq!(b.state, BreakerState::Closed, "below min_samples");
        let tripped = b.record(40, false);
        assert_eq!(tripped, Some(EventKind::BreakerOpen), "2/4 failures at 0.5");
        assert_eq!((b.state, b.opens), (BreakerState::Open { since: 40 }, 1));
        // Open from 40: refused up to the last nanosecond of the cooldown,
        // with what is left of it as the hint.
        let retry_after = Duration::from_nanos(1);
        let refused = (Err(TfheError::Overloaded { retry_after }), None);
        assert_eq!(b.admit(40 + COOLDOWN_NS - 1, HEALTHY), refused);
        assert_eq!(b.rejections, 1);
        let probe = (Ok(()), Some(EventKind::BreakerHalfOpen));
        assert_eq!(b.admit(40 + COOLDOWN_NS, HEALTHY), probe);
        assert_eq!(b.state, BreakerState::HalfOpen { successes: 0 });
        assert_eq!(b.rejections, 1);
    }

    #[test]
    fn breaker_recovers_through_half_open_probes() {
        let mut b = breaker(1, 8, 2);
        let cooled = 5 + COOLDOWN_NS;
        // Each step says which transition it made, for its owner to
        // journal at the time it was told.
        let steps = [
            b.record(5, false),
            b.admit(cooled, HEALTHY).1,
            b.record(cooled + 1, true),
            b.record(cooled + 2, true),
        ];
        let open = EventKind::BreakerOpen;
        let (half_open, close) = (EventKind::BreakerHalfOpen, EventKind::BreakerClose);
        assert_eq!(steps, [Some(open), Some(half_open), None, Some(close)]);
        assert_eq!((b.state, b.opens, b.closes), (BreakerState::Closed, 1, 1));
    }

    #[test]
    fn half_open_probe_failure_reopens_for_a_full_cooldown() {
        let mut b = breaker(1, 8, 1);
        b.record(0, false);
        assert!(b.admit(COOLDOWN_NS, HEALTHY).0.is_ok());
        let reopened = b.record(COOLDOWN_NS + 7, false);
        assert_eq!(
            reopened,
            Some(EventKind::BreakerOpen),
            "failed probe re-opens"
        );
        assert_eq!(b.opens, 2);
        // The cooldown runs from the re-trip, not from the first one.
        assert!(b.admit(2 * COOLDOWN_NS + 6, HEALTHY).0.is_err());
        assert!(b.admit(2 * COOLDOWN_NS + 7, HEALTHY).0.is_ok());
    }

    #[test]
    fn a_failed_backend_trips_a_closed_breaker_on_admission() {
        let mut b = breaker(8, 32, 1);
        let retry_after = Duration::from_nanos(COOLDOWN_NS);
        let tripped = (
            Err(TfheError::Overloaded { retry_after }),
            Some(EventKind::BreakerOpen),
        );
        assert_eq!(b.admit(3, EngineHealth::Failed), tripped);
        assert_eq!(b.state, BreakerState::Open { since: 3 });
        let mut degraded = breaker(8, 32, 1);
        let served = degraded.admit(3, EngineHealth::Degraded);
        assert_eq!(served, (Ok(()), None), "degraded still serves");
    }
}
