//! Deterministic, seeded fault injection for the bootstrap engine.
//!
//! Real TFHE accelerators treat failure as a first-class design input:
//! MATCHA and BTS both budget a per-bootstrap failure probability, and a
//! production serving pool must survive wedged workers, panics, and the
//! occasional corrupted result. This module provides the *injection* half
//! of that story; the recovery half (watchdog, chunk re-dispatch, respawn,
//! degraded mode) lives in [`BootstrapEngine`](crate::BootstrapEngine).
//!
//! Injection is **deterministic**: every decision is a pure function of
//! `(plan seed, fault site, stable key, attempt)`, hashed through
//! SplitMix64. Two runs with the same plan and the same submission
//! sequence inject exactly the same faults, regardless of thread
//! interleaving or chunking — the property the chaos harness relies on to
//! compare a faulted run against its fault-free reference. The `attempt`
//! component makes injected faults *transient*: a retried bootstrap rolls
//! a fresh decision, so bounded retry converges.
//!
//! A [`FaultPlan`] is its own decision oracle: [`FaultPlan::fires`] is a
//! pure function of the plan and its arguments, safe to ask from any
//! thread in any order, so a test predicts the engine's faults by asking
//! the plan it gave the engine. A zero-rate plan (the default) is a
//! guaranteed no-op: every `fires` call short-circuits before hashing, so
//! the hot path costs three float compares per bootstrap.

use std::time::Duration;

use morphling_math::{Torus32, TorusScalar};

use crate::lwe::LweCiphertext;

/// Where a fault can be injected. Each site owns a distinct hash domain
/// so the per-site decision streams are independent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The worker thread panics mid-job (caught by the engine's
    /// `catch_unwind` isolation; costs the worker one respawn).
    WorkerPanic,
    /// The worker wedges: it sleeps for [`FaultPlan::wedge`] before
    /// executing, simulating a stalled core the watchdog must rescue.
    WedgedJob,
    /// The bootstrap output ciphertext is silently corrupted (the message
    /// is flipped by half the torus) — detectable only by an output
    /// sanity check.
    CorruptOutput,
}

impl FaultSite {
    /// Stable per-site hash-domain separator.
    fn domain(self) -> u64 {
        match self {
            FaultSite::WorkerPanic => 0x70_61_6e_69,
            FaultSite::WedgedJob => 0x77_65_64_67,
            FaultSite::CorruptOutput => 0x63_6f_72_72,
        }
    }

    /// Short lower-case label used in trace args and error messages.
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::WorkerPanic => "worker_panic",
            FaultSite::WedgedJob => "wedged_job",
            FaultSite::CorruptOutput => "corrupt_output",
        }
    }
}

/// A seeded fault schedule: per-site rates plus the parameters of each
/// fault's shape. `FaultPlan::default()` injects nothing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for every injection decision.
    pub seed: u64,
    /// Per-bootstrap probability the worker panics.
    pub worker_panic: f64,
    /// Per-bootstrap probability the worker wedges for [`Self::wedge`].
    pub wedged_job: f64,
    /// How long a wedged worker stalls.
    pub wedge: Duration,
    /// Per-bootstrap probability the output ciphertext is corrupted.
    pub corrupt_output: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            worker_panic: 0.0,
            wedged_job: 0.0,
            wedge: Duration::from_millis(50),
            corrupt_output: 0.0,
        }
    }
}

impl FaultPlan {
    /// A plan that injects nothing (identical to `default()`).
    pub fn none() -> Self {
        Self::default()
    }

    /// Start an all-zero plan with the given seed.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Set the worker-panic rate.
    #[must_use]
    pub fn with_worker_panic(mut self, rate: f64) -> Self {
        self.worker_panic = rate;
        self
    }

    /// Set the wedged-job rate and stall duration.
    #[must_use]
    pub fn with_wedged_job(mut self, rate: f64, wedge: Duration) -> Self {
        self.wedged_job = rate;
        self.wedge = wedge;
        self
    }

    /// Set the corrupt-output rate.
    #[must_use]
    pub fn with_corrupt_output(mut self, rate: f64) -> Self {
        self.corrupt_output = rate;
        self
    }

    /// The rate configured for one site.
    pub fn rate(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::WorkerPanic => self.worker_panic,
            FaultSite::WedgedJob => self.wedged_job,
            FaultSite::CorruptOutput => self.corrupt_output,
        }
    }

    /// Deterministic Bernoulli trial: does `site` fire for (`key`,
    /// `attempt`)? `key` must be stable across runs (e.g. `batch << 32 |
    /// ciphertext index`); `attempt` distinguishes retries so injected
    /// faults are transient.
    pub fn fires(&self, site: FaultSite, key: u64, attempt: u32) -> bool {
        decide(self.seed, site.domain(), key, attempt, self.rate(site))
    }
}

/// One deterministic Bernoulli decision: `true` with probability `rate`,
/// as a pure function of `(seed, domain, key, attempt)`: what
/// [`FaultPlan::fires`] asks for each site.
pub fn decide(seed: u64, domain: u64, key: u64, attempt: u32, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    if rate >= 1.0 {
        return true;
    }
    unit_sample(seed, domain, key, attempt) < rate
}

/// Deterministic sample in `[0, 1)` as a pure function of
/// `(seed, domain, key, attempt)` — the uniform variate behind
/// [`decide`], also used by the resilience layer's seeded retry jitter
/// (same determinism contract: identical runs back off identically).
pub(crate) fn unit_sample(seed: u64, domain: u64, key: u64, attempt: u32) -> f64 {
    let h = mix3(
        seed ^ domain.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        key,
        attempt as u64,
    );
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// SplitMix64-style avalanche of three words into one.
fn mix3(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The stable injection key for ciphertext `index` of engine batch
/// `batch` — what keeps decisions independent of chunking and thread
/// interleaving.
pub fn fault_key(batch: u64, index: usize) -> u64 {
    (batch << 32) ^ index as u64
}

/// Silently corrupt a bootstrap output: add half the torus to the body,
/// flipping the encoded message while leaving the ciphertext perfectly
/// well-formed — the worst-case fault an output sanity check must catch.
pub fn corrupt_ciphertext(ct: &LweCiphertext) -> LweCiphertext {
    ct.add_plain(Torus32::from_f64(0.5))
}

/// Smallest retry budget `r` such that `p_fail^(r+1) ≤ target`: how many
/// bounded retries make a transient failure of probability `p_fail` as
/// rare as `target`. Drives the engine's
/// [`noise_adaptive_retries`](crate::BootstrapEngineBuilder::noise_adaptive_retries)
/// policy via [`noise::failure_probability`](crate::noise::failure_probability).
pub(crate) fn retry_budget_for(p_fail: f64, target: f64) -> u32 {
    if p_fail <= 0.0 || target >= 1.0 {
        return 0;
    }
    if p_fail >= 1.0 {
        return u32::MAX;
    }
    // p^(r+1) <= target  ⟺  r+1 >= ln(target)/ln(p)  (both logs negative).
    let needed = (target.ln() / p_fail.ln()).ceil();
    if needed <= 1.0 {
        0
    } else if needed > u32::MAX as f64 {
        u32::MAX
    } else {
        needed as u32 - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_plan_is_noop() {
        let plan = FaultPlan::seeded(42);
        for key in 0..1000 {
            for site in [
                FaultSite::WorkerPanic,
                FaultSite::WedgedJob,
                FaultSite::CorruptOutput,
            ] {
                assert_eq!(plan.rate(site), 0.0);
                assert!(!plan.fires(site, key, 0));
            }
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(1).with_worker_panic(0.5);
        let b = FaultPlan::seeded(1).with_worker_panic(0.5);
        let c = FaultPlan::seeded(2).with_worker_panic(0.5);
        let fire = |plan: &FaultPlan| -> Vec<bool> {
            (0..256)
                .map(|k| plan.fires(FaultSite::WorkerPanic, k, 0))
                .collect()
        };
        assert_eq!(fire(&a), fire(&b), "same seed must replay identically");
        assert_ne!(fire(&a), fire(&c), "different seeds must diverge");
    }

    #[test]
    fn rates_are_respected_statistically() {
        let plan = FaultPlan::seeded(7).with_worker_panic(0.25);
        let n = 20_000;
        let hits = (0..n)
            .filter(|&k| plan.fires(FaultSite::WorkerPanic, k, 0))
            .count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "empirical rate {frac}");
    }

    #[test]
    fn sites_roll_independent_streams() {
        let plan = FaultPlan::seeded(9)
            .with_worker_panic(0.5)
            .with_corrupt_output(0.5);
        let panic: Vec<bool> = (0..256)
            .map(|k| plan.fires(FaultSite::WorkerPanic, k, 0))
            .collect();
        let corrupt: Vec<bool> = (0..256)
            .map(|k| plan.fires(FaultSite::CorruptOutput, k, 0))
            .collect();
        assert_ne!(panic, corrupt, "site streams must not alias");
    }

    #[test]
    fn attempts_reroll_the_decision() {
        let plan = FaultPlan::seeded(11).with_worker_panic(0.5);
        // Some key that fires at attempt 0 must eventually clear on retry.
        let key = (0..1000)
            .find(|&k| plan.fires(FaultSite::WorkerPanic, k, 0))
            .expect("a firing key exists at rate 0.5");
        let clears = (1..32).any(|a| !plan.fires(FaultSite::WorkerPanic, key, a));
        assert!(clears, "retries must be able to clear an injected fault");
    }

    #[test]
    fn corrupt_ciphertext_flips_the_message_but_keeps_shape() {
        let ct = LweCiphertext::trivial(Torus32::from_f64(0.25), 8);
        let bad = corrupt_ciphertext(&ct);
        assert_eq!(bad.dim(), ct.dim());
        assert_ne!(bad.body(), ct.body());
        // Corrupting twice round-trips (±1/2 on the torus is involutive).
        assert_eq!(corrupt_ciphertext(&bad).body(), ct.body());
    }

    #[test]
    fn retry_budget_matches_the_power_law() {
        // 0.1^2 = 1e-2 > 1e-3, 0.1^3 = 1e-3 ≤ 1e-3 → 2 retries.
        assert_eq!(retry_budget_for(0.1, 1e-3), 2);
        assert_eq!(retry_budget_for(0.0, 1e-9), 0);
        assert_eq!(retry_budget_for(0.5, 0.5), 0);
        assert_eq!(retry_budget_for(1.0, 1e-9), u32::MAX);
        // A realistic post-bootstrap failure probability needs few retries.
        assert!(retry_budget_for(1e-5, 1e-12) <= 2);
    }

    #[test]
    fn unit_samples_stay_in_range_and_replay() {
        for k in 0..256 {
            let u = unit_sample(5, 77, k, 1);
            assert!((0.0..1.0).contains(&u), "sample {u} out of range");
            assert_eq!(u, unit_sample(5, 77, k, 1), "samples must replay");
        }
        assert_ne!(
            unit_sample(5, 77, 1, 0),
            unit_sample(6, 77, 1, 0),
            "seed must matter"
        );
    }

    #[test]
    fn fault_keys_separate_batches() {
        assert_ne!(fault_key(0, 5), fault_key(1, 5));
        assert_ne!(fault_key(3, 0), fault_key(3, 1));
    }
}
