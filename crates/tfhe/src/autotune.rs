//! Simulator-in-the-loop autotuning: search the serving-config space for
//! a target arrival rate and p99 SLO.
//!
//! The paper sizes its hardware by running the *same* scheduler inside
//! the cycle-accurate model that runs on the chip (Morphling §V–§VI);
//! this module closes the same loop for the *serving* layer. A
//! [`ServiceModel`] — calibrated from measured [`EngineStats`] (or from
//! the cycle-accurate accelerator simulator in `morphling-core`, which
//! can emit one from a `SimReport`) — supplies batch service times, and
//! `simulate` replays a seeded open-loop arrival process through the
//! [`Dispatcher`]'s serving core **itself**: the state machine in
//! `policy.rs` that the batcher thread drives with the wall clock is
//! driven here with virtual time — by the same loop the chaos sweep uses —
//! and its prediction is the core's own tally as a [`DispatcherStats`], the
//! type and the numbers [`Dispatcher::stats`] reports, so there is no
//! second copy of the policy, of its bookkeeping or of its profile type to
//! keep honest. [`autotune`] grid-searches worker count,
//! `max_batch_size`, `max_linger`, queue depth, and deadline slack over
//! such simulations and emits the cheapest [`ServingConfig`] that meets
//! the SLO — plus the full search [trajectory](SearchPoint), which
//! `morphling_core::trace` renders as an `autotune` track in the Chrome
//! trace.
//!
//! [`replay_open_loop`] is the load generator for checking a
//! recommendation on the real stack: it drives a **real** dispatcher
//! with the *same seeded arrival schedule* the simulation used and
//! returns the dispatcher's [`DispatcherStats`], field for field
//! comparable with [`AutotuneReport::predicted`]. How close measured
//! latency comes to the prediction depends on how well one calibration
//! run captured the host (DESIGN.md §15), so `report autotune --validate`
//! reports both and their ratio, and nothing gates on it.
//!
//! ```
//! use std::time::Duration;
//! use morphling_tfhe::autotune::{autotune, AutotuneRequest, ServiceModel, SloTarget};
//!
//! // 1 ms per bootstrap per worker, measured or assumed.
//! let model = ServiceModel::new(Duration::from_millis(1));
//! let report = autotune(
//!     &model,
//!     &AutotuneRequest::new(SloTarget {
//!         rate_per_s: 200.0,
//!         p99: Duration::from_millis(25),
//!     }),
//! )
//! .unwrap();
//! assert!(report.slo_met);
//! assert!(report.predicted.p99_latency <= Duration::from_millis(25));
//! // `report.recommended` is a ServingConfig: serialize it, pin it,
//! // or build the stack directly via Dispatcher::from_config.
//! ```

use std::cmp::Reverse;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::dispatch::{Dispatcher, DispatcherStats};
use crate::engine::{EngineHealth, EngineStats};
use crate::error::TfheError;
use crate::faults;
use crate::lut::Lut;
use crate::lwe::LweCiphertext;
use crate::policy::{drive, dur_ns, Arrival, ServingCore};
use crate::serving::{at_least_one, ServingConfig};

/// Hash domain separating arrival-time draws from the fault injector's
/// and reservoir's other deterministic streams.
const ARRIVAL_DOMAIN: u64 = 0x6172_7276; // "arrv"

/// Default fixed per-batch overhead assumed by [`ServiceModel::new`]:
/// batcher wake-up, batch assembly, and backend dispatch.
const DEFAULT_BATCH_OVERHEAD_NS: u64 = 50_000;

fn invalid(field: &'static str, detail: String) -> TfheError {
    TfheError::InvalidServingConfig { field, detail }
}

// ---------------------------------------------------------------------------
// Service model
// ---------------------------------------------------------------------------

/// Plain cost model of the backend serving one micro-batch — the knob
/// bridge between measured reality and the queueing simulation. Each of a
/// config's `workers` batchers is one server that runs its batch whole:
/// `batch_overhead_ns + batch × bootstrap_ns`.
///
/// Calibrate it [from engine stats](Self::from_engine_stats) (live
/// measurement), from `morphling-apps`' `CpuModel` (datasheet numbers),
/// or from the cycle-accurate accelerator simulator (`morphling-core`'s
/// `SimReport::service_model`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceModel {
    /// Mean wall time of one bootstrap on one worker, in nanoseconds.
    pub bootstrap_ns: u64,
    /// Fixed per-batch overhead (batcher wake-up, batch assembly,
    /// backend dispatch), in nanoseconds.
    pub batch_overhead_ns: u64,
}

impl ServiceModel {
    /// A model from a single measured (or assumed) per-bootstrap cost,
    /// with the default overhead.
    pub fn new(bootstrap: Duration) -> Self {
        Self {
            bootstrap_ns: dur_ns(bootstrap).max(1),
            batch_overhead_ns: DEFAULT_BATCH_OVERHEAD_NS,
        }
    }

    /// Calibrate from measured [`EngineStats`]: the mean per-core
    /// bootstrap time observed by a live engine. `None` until the engine
    /// has completed at least one bootstrap.
    pub fn from_engine_stats(stats: &EngineStats) -> Option<Self> {
        stats.mean_bootstrap_time().map(Self::new)
    }

    /// Service time of one `batch`-sized micro-batch on one server: the
    /// fixed per-batch overhead plus one bootstrap per member.
    pub(crate) fn batch_service_ns(&self, batch: usize) -> u64 {
        let bootstraps = self.bootstrap_ns.saturating_mul(batch as u64);
        self.batch_overhead_ns.saturating_add(bootstraps)
    }

    /// Sustained throughput ceiling (bootstraps/s) of `workers` servers
    /// each running one bootstrap after another.
    pub fn capacity_bs(&self, workers: usize) -> f64 {
        workers.max(1) as f64 * 1e9 / self.batch_service_ns(1) as f64
    }
}

// ---------------------------------------------------------------------------
// Open-loop load specification
// ---------------------------------------------------------------------------

/// A seeded synthetic open-loop arrival process: `requests` arrivals at
/// mean `rate_per_s`, exponentially-distributed inter-arrival times
/// drawn deterministically from `seed`. The same spec produces the same
/// schedule in the `simulate`d run and in the real
/// [`replay_open_loop`] — prediction and measurement see identical
/// traffic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadSpec {
    /// Mean arrival rate, requests per second.
    pub rate_per_s: f64,
    /// Number of arrivals.
    pub requests: usize,
    /// Seed for the deterministic inter-arrival draws.
    pub seed: u64,
    /// Per-request deadline budget: each request's deadline is its
    /// arrival plus this (the dispatcher's deadline semantics: the
    /// latest acceptable *execution start*). `None` submits without
    /// deadlines.
    pub deadline: Option<Duration>,
}

impl LoadSpec {
    /// An open-loop load of `requests` arrivals at `rate_per_s`, seed 0,
    /// no deadlines.
    pub fn new(rate_per_s: f64, requests: usize) -> Self {
        Self {
            rate_per_s,
            requests,
            seed: 0,
            deadline: None,
        }
    }

    fn validate(&self) -> Result<(), TfheError> {
        if !self.rate_per_s.is_finite() || self.rate_per_s <= 0.0 {
            return Err(invalid(
                "load.rate_per_s",
                format!("must be a positive finite rate (got {})", self.rate_per_s),
            ));
        }
        at_least_one("load.requests", self.requests)
    }

    /// The deterministic arrival schedule, in nanoseconds from the start
    /// of the run. Pure function of `(rate_per_s, requests, seed)`.
    pub(crate) fn arrival_schedule_ns(&self) -> Vec<u64> {
        let mean_gap_ns = 1e9 / self.rate_per_s;
        let mut t = 0.0f64;
        (0..self.requests)
            .map(|i| {
                let u = faults::unit_sample(self.seed, ARRIVAL_DOMAIN, i as u64, 0);
                // u ∈ [0, 1) so 1 − u ∈ (0, 1]: the inverse-CDF draw is
                // finite and non-negative.
                t += -(1.0 - u).ln() * mean_gap_ns;
                t as u64
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Event-driven policy simulation
// ---------------------------------------------------------------------------

/// Replay `spec`'s arrival schedule through the dispatcher's batching
/// policy under `cfg` on virtual time, with batch service times from
/// `model`. Deterministic: same inputs, same stats.
///
/// This is the core's one virtual-time driver (`policy::drive`) with
/// `cfg.workers` batchers, under a backend that never fails and keeps a
/// batcher busy for [`ServiceModel::batch_service_ns`] per batch, every
/// arrival offered as by `try_submit`; the result is the core's tally as the
/// [`DispatcherStats`] that [`Dispatcher::stats`] would report for the
/// same run (latencies exact below 4 096 requests). The core runs `cfg`'s
/// breaker, as the dispatcher does; against a backend that never fails it
/// never opens.
///
/// # Errors
///
/// [`TfheError::InvalidServingConfig`] if `cfg` or `spec` is degenerate.
pub(crate) fn simulate(
    cfg: &ServingConfig,
    model: &ServiceModel,
    spec: &LoadSpec,
) -> Result<DispatcherStats, TfheError> {
    cfg.validate()?;
    spec.validate()?;
    let budget = spec.deadline.map(dur_ns);
    let arrive = |at: u64| Arrival {
        at,
        deadline: budget.map(|b| at.saturating_add(b)),
        ..Arrival::default()
    };
    let arrivals: Vec<Arrival> = spec.arrival_schedule_ns().into_iter().map(arrive).collect();
    let mut core = ServingCore::new(cfg, Arc::default(), &[]);
    let backend = |_, _, batch: &[_]| (model.batch_service_ns(batch.len()), Ok(()));
    drive(
        &mut core,
        &arrivals,
        None,
        backend,
        |_, _| EngineHealth::Healthy,
        |_, _, _| {},
    );
    Ok(core.tally().stats())
}

// ---------------------------------------------------------------------------
// Config-space search
// ---------------------------------------------------------------------------

/// The serving objective: sustain `rate_per_s` with end-to-end p99 at or
/// under `p99`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloTarget {
    /// Open-loop arrival rate to sustain, requests per second.
    pub rate_per_s: f64,
    /// End-to-end p99 latency objective.
    pub p99: Duration,
}

/// Knobs of the search itself (not of the configs being searched).
#[derive(Clone, Debug)]
pub struct AutotuneRequest {
    /// The objective.
    pub target: SloTarget,
    /// Largest worker count to consider.
    pub max_workers: usize,
    /// Simulated arrivals per candidate config.
    pub requests: usize,
    /// Seed for the simulated arrival schedules.
    pub seed: u64,
}

impl AutotuneRequest {
    /// Search up to 8 workers with 512 simulated arrivals per candidate,
    /// seed 0xA77 ("att"), defaults elsewhere.
    pub fn new(target: SloTarget) -> Self {
        Self {
            target,
            max_workers: 8,
            requests: 512,
            seed: 0xA77,
        }
    }
}

/// One evaluated candidate: the config tried and the stats the simulator
/// predicted for it. The ordered list of these is the search trajectory,
/// journaled into the Chrome trace as the `autotune` track.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchPoint {
    /// The config tried: [`ServingConfig::default`] with the five searched
    /// knobs set.
    pub config: ServingConfig,
    /// What the simulator predicted.
    pub predicted: DispatcherStats,
    /// Did this candidate meet the SLO with nothing refused or expired?
    pub feasible: bool,
}

/// The autotuner's verdict: a recommended config, its predicted stats,
/// and the full search trajectory.
#[derive(Clone, Debug)]
pub struct AutotuneReport {
    /// The objective searched for.
    pub target: SloTarget,
    /// The cheapest config that met the SLO — or, when nothing did, the
    /// best-effort config with the lowest predicted p99 (see
    /// [`slo_met`](Self::slo_met)).
    pub recommended: ServingConfig,
    /// The stats the simulator predicts for
    /// [`recommended`](Self::recommended).
    pub predicted: DispatcherStats,
    /// Whether any candidate met the SLO; `false` means
    /// [`recommended`](Self::recommended) is best-effort only.
    pub slo_met: bool,
    /// Every candidate evaluated, in search order.
    pub trajectory: Vec<SearchPoint>,
}

/// Candidate linger windows: scaled to the SLO, so a 10 ms objective is
/// not searched with 2 ms steps meant for a 500 ms one.
fn linger_candidates(slo: Duration) -> Vec<Duration> {
    let mut out = vec![Duration::ZERO, slo / 32, slo / 8, slo / 2];
    out.dedup();
    out
}

/// Candidate deadline slacks: a fixed floor for condvar wake-up jitter,
/// scaled up with the SLO.
fn slack_candidates(slo: Duration) -> Vec<Duration> {
    let mut out = vec![
        Duration::from_micros(100).min(slo / 16),
        Duration::from_micros(500).min(slo / 8),
        slo / 8,
    ];
    out.sort_unstable();
    out.dedup();
    out
}

/// Candidate queue depths: enough to ride out a 2×-SLO burst at the
/// target rate, and a deeper fallback.
fn queue_candidates(target: &SloTarget) -> Vec<usize> {
    let burst = (target.rate_per_s * target.p99.as_secs_f64() * 2.0).ceil() as usize;
    let q0 = burst.clamp(16, 4096);
    let mut out = vec![q0, (q0 * 4).min(4096), 1024];
    out.sort_unstable();
    out.dedup();
    out
}

/// Grid-search the serving-config space against `simulate` for the
/// cheapest config meeting `req.target`, under service costs from
/// `model`.
///
/// Feasibility requires the simulated run to complete **every** request
/// (nothing refused, nothing expired) with p99 at or under the SLO; the
/// simulation carries per-request deadlines equal to the SLO, so the
/// recommended config also bounds late work by construction. Among
/// feasible candidates the search prefers fewer workers, then larger
/// batches (throughput headroom), then lower p99. When nothing is
/// feasible the lowest-(loss, p99) candidate is returned with
/// [`AutotuneReport::slo_met`] `false`.
///
/// # Errors
///
/// [`TfheError::InvalidServingConfig`] on a degenerate target or search
/// request.
pub fn autotune(model: &ServiceModel, req: &AutotuneRequest) -> Result<AutotuneReport, TfheError> {
    if !req.target.rate_per_s.is_finite() || req.target.rate_per_s <= 0.0 {
        return Err(invalid(
            "target.rate_per_s",
            format!(
                "must be a positive finite rate (got {})",
                req.target.rate_per_s
            ),
        ));
    }
    if req.target.p99.is_zero() {
        return Err(invalid("target.p99", "must be a positive duration".into()));
    }
    at_least_one("max_workers", req.max_workers)?;
    at_least_one("requests", req.requests)?;
    let slo = req.target.p99;
    let spec = LoadSpec {
        rate_per_s: req.target.rate_per_s,
        requests: req.requests,
        seed: req.seed,
        deadline: Some(slo),
    };
    let batch_grid = [1usize, 2, 4, 8, 16, 32];
    let lingers = linger_candidates(slo);
    let slacks = slack_candidates(slo);
    let queues = queue_candidates(&req.target);
    let mut trajectory = Vec::new();
    for workers in 1..=req.max_workers {
        for &max_batch_size in &batch_grid {
            for &max_linger in &lingers {
                for &queue_capacity in &queues {
                    for &deadline_slack in &slacks {
                        let config = ServingConfig {
                            workers,
                            max_batch_size,
                            max_linger,
                            queue_capacity,
                            deadline_slack,
                            ..ServingConfig::default()
                        };
                        let predicted = simulate(&config, model, &spec)?;
                        let feasible = lost(&predicted) == 0
                            && predicted.completed == req.requests as u64
                            && predicted.p99_latency <= slo;
                        trajectory.push(SearchPoint {
                            config,
                            predicted,
                            feasible,
                        });
                    }
                }
            }
        }
    }
    // A feasible point prefers fewer workers, then larger batches, then
    // lower p99; a best effort fewer losses, then lower p99. Ties go to
    // the earlier point.
    let rank = |p: &&SearchPoint| {
        let (c, p99) = (&p.config, p.predicted.p99_latency);
        (c.workers, Reverse(c.max_batch_size), p99)
    };
    let loss = |p: &&SearchPoint| (lost(&p.predicted), p.predicted.p99_latency);
    let (winner, slo_met) = match trajectory.iter().filter(|p| p.feasible).min_by_key(rank) {
        Some(point) => (point, true),
        // Every grid has at least one candidate.
        None => (
            trajectory.iter().min_by_key(loss).expect("a candidate"),
            false,
        ),
    };
    Ok(AutotuneReport {
        target: req.target,
        recommended: winner.config.clone(),
        predicted: winner.predicted.clone(),
        slo_met,
        trajectory,
    })
}

/// Requests a run lost: every refusal at admission (`rejected + shed`) and
/// every expiry.
fn lost(stats: &DispatcherStats) -> u64 {
    stats.rejected + stats.shed + stats.expired
}

// ---------------------------------------------------------------------------
// End-to-end validation: replay against the real dispatcher
// ---------------------------------------------------------------------------

/// Drive the **real** `dispatcher` with `spec`'s seeded open-loop load —
/// the same arrival schedule `simulate` used — and return its
/// [`DispatcherStats`] once every admitted request has resolved. Run it
/// against a dispatcher built from [`AutotuneReport::recommended`] to see
/// the recommendation serve real traffic; its `p99_latency` over
/// [`AutotuneReport::predicted`]'s says how well the [`ServiceModel`] was
/// calibrated, not whether the policy was modelled right — both sides run
/// the same policy code and read the same counts.
///
/// Submissions are non-blocking (`try_submit`), so an undersized config
/// sheds load here exactly as it would in production (and as the
/// simulator predicted) instead of distorting the arrival process by
/// blocking. The stats cover the dispatcher's whole life, so pass a
/// **freshly built** dispatcher — prior traffic would pollute them.
///
/// # Errors
///
/// [`TfheError::InvalidServingConfig`] on a degenerate `spec`;
/// [`TfheError::DispatcherShutDown`] if the dispatcher dies mid-replay.
pub fn replay_open_loop(
    dispatcher: &Dispatcher,
    spec: &LoadSpec,
    ct: &LweCiphertext,
    lut: &Arc<Lut>,
) -> Result<DispatcherStats, TfheError> {
    spec.validate()?;
    let schedule = spec.arrival_schedule_ns();
    let mut tickets = Vec::with_capacity(schedule.len());
    let t0 = Instant::now();
    for &offset_ns in &schedule {
        let target = t0 + Duration::from_nanos(offset_ns);
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        let deadline = spec.deadline.map(|b| Instant::now() + b);
        match dispatcher.try_submit(ct.clone(), Arc::clone(lut), deadline) {
            Ok(ticket) => tickets.push(ticket),
            Err(TfheError::QueueFull { .. } | TfheError::Overloaded { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    for ticket in tickets {
        if let Err(TfheError::DispatcherShutDown) = ticket.wait() {
            return Err(TfheError::DispatcherShutDown);
        }
    }
    Ok(dispatcher.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrapper::{BatchRequest, Bootstrapper};
    use morphling_math::Torus32;

    fn model_ms(ms: u64) -> ServiceModel {
        ServiceModel {
            bootstrap_ns: ms * 1_000_000,
            batch_overhead_ns: 0,
        }
    }

    #[test]
    fn arrival_schedule_is_deterministic_and_calibrated() {
        let spec = LoadSpec {
            rate_per_s: 1000.0,
            requests: 4096,
            seed: 7,
            deadline: None,
        };
        let a = spec.arrival_schedule_ns();
        let b = spec.arrival_schedule_ns();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "must be sorted");
        // Mean inter-arrival over 4096 draws lands near 1/rate = 1 ms.
        let mean_ns = *a.last().unwrap() as f64 / a.len() as f64;
        assert!(
            (0.8e6..1.25e6).contains(&mean_ns),
            "mean inter-arrival {mean_ns} ns should be ~1e6"
        );
    }

    #[test]
    fn unbatched_light_load_predicts_pure_service_time() {
        // 1 request/s against a 1 ms bootstrap with no linger: every
        // request executes alone the moment it arrives, so every latency
        // is exactly the batch service time.
        let cfg = ServingConfig::builder()
            .workers(1)
            .max_batch_size(1)
            .max_linger(Duration::ZERO)
            .build()
            .unwrap();
        let model = model_ms(1);
        let spec = LoadSpec::new(1.0, 64);
        let p = simulate(&cfg, &model, &spec).unwrap();
        assert_eq!(p.completed, 64);
        assert_eq!(p.rejected + p.shed, 0);
        assert_eq!(p.expired, 0);
        assert_eq!(p.p50_latency, Duration::from_millis(1));
        assert_eq!(p.p99_latency, Duration::from_millis(1));
        assert!((p.mean_batch_size - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overload_sheds_on_the_bounded_queue() {
        // 10 req/s against a 1-per-second server and a 4-deep queue:
        // most of the load must shed, none may vanish.
        let cfg = ServingConfig::builder()
            .workers(1)
            .max_batch_size(1)
            .max_linger(Duration::ZERO)
            .queue_capacity(4)
            .build()
            .unwrap();
        let model = model_ms(1000);
        let spec = LoadSpec::new(10.0, 100);
        let p = simulate(&cfg, &model, &spec).unwrap();
        assert!(p.rejected + p.shed > 0, "overload must shed: {p:?}");
        assert_eq!(lost(&p) + p.completed, 100, "conservation");
    }

    #[test]
    fn linger_coalesces_batches() {
        // A batch lingers only while another runs, so at two batchers:
        // one batcher's batch waits for joiners while the other's runs.
        let model = model_ms(1);
        let spec = LoadSpec::new(2000.0, 256);
        let no_linger = ServingConfig::builder()
            .workers(2)
            .max_batch_size(16)
            .max_linger(Duration::ZERO)
            .build()
            .unwrap();
        let with_linger = ServingConfig::builder()
            .workers(2)
            .max_batch_size(16)
            .max_linger(Duration::from_millis(4))
            .build()
            .unwrap();
        let a = simulate(&no_linger, &model, &spec).unwrap();
        let b = simulate(&with_linger, &model, &spec).unwrap();
        assert!(
            b.mean_batch_size > a.mean_batch_size,
            "linger must coalesce: {} vs {}",
            b.mean_batch_size,
            a.mean_batch_size
        );
    }

    #[test]
    fn deadlines_expire_instead_of_running_late() {
        // A 1-per-second server at 5 req/s with a 100 ms budget: queued
        // requests blow their deadline and must expire, and the ones
        // that do run must have started within budget.
        let cfg = ServingConfig::builder()
            .workers(1)
            .max_batch_size(1)
            .max_linger(Duration::ZERO)
            .queue_capacity(1024)
            .build()
            .unwrap();
        let model = model_ms(1000);
        let spec = LoadSpec {
            rate_per_s: 5.0,
            requests: 50,
            seed: 3,
            deadline: Some(Duration::from_millis(100)),
        };
        let p = simulate(&cfg, &model, &spec).unwrap();
        assert!(p.expired > 0, "late work must expire: {p:?}");
        assert_eq!(lost(&p) + p.completed, 50, "conservation");
        // An executed request started within budget, so its end-to-end
        // latency is bounded by budget + service time.
        let bound = Duration::from_millis(100) + Duration::from_millis(1000) + cfg.max_linger;
        assert!(p.p99_latency <= bound);
    }

    #[test]
    fn autotune_meets_an_attainable_slo_and_is_deterministic() {
        let model = model_ms(1);
        let req = AutotuneRequest::new(SloTarget {
            rate_per_s: 200.0,
            p99: Duration::from_millis(25),
        });
        let report = autotune(&model, &req).unwrap();
        assert!(report.slo_met, "1 ms bootstraps can serve 200/s @ 25 ms");
        assert!(report.predicted.p99_latency <= Duration::from_millis(25));
        assert_eq!(report.predicted.rejected + report.predicted.shed, 0);
        assert_eq!(report.predicted.expired, 0);
        report.recommended.validate().unwrap();
        assert!(!report.trajectory.is_empty());
        // The trajectory records the winner as a feasible point.
        assert!(report.trajectory.iter().any(|p| p.feasible));
        // Determinism: the whole search replays identically.
        let again = autotune(&model, &req).unwrap();
        assert_eq!(again.recommended, report.recommended);
        assert_eq!(again.predicted, report.predicted);
    }

    #[test]
    fn autotune_reports_unattainable_slo_honestly() {
        // A 100 ms bootstrap cannot give 1 ms p99 at any worker count.
        let model = model_ms(100);
        let report = autotune(
            &model,
            &AutotuneRequest::new(SloTarget {
                rate_per_s: 500.0,
                p99: Duration::from_millis(1),
            }),
        )
        .unwrap();
        assert!(!report.slo_met);
        report.recommended.validate().unwrap();
    }

    #[test]
    fn autotune_scales_workers_with_load() {
        let model = model_ms(10);
        let slo = SloTarget {
            rate_per_s: 50.0,
            p99: Duration::from_millis(60),
        };
        let light = autotune(&model, &AutotuneRequest::new(slo)).unwrap();
        let heavy = autotune(
            &model,
            &AutotuneRequest::new(SloTarget {
                rate_per_s: 400.0,
                ..slo
            }),
        )
        .unwrap();
        assert!(light.slo_met && heavy.slo_met, "both SLOs are attainable");
        assert!(
            heavy.recommended.workers > light.recommended.workers,
            "8x the load needs more workers: {} vs {}",
            heavy.recommended.workers,
            light.recommended.workers
        );
    }

    /// Backend that sleeps a fixed time per batch and echoes its inputs —
    /// a deterministic-cost stand-in for a bootstrap backend.
    struct SleepBackend {
        per_batch: Duration,
    }

    impl Bootstrapper for SleepBackend {
        fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
            std::thread::sleep(self.per_batch);
            let mut out = Vec::with_capacity(req.output_len());
            for (i, ct) in req.ciphertexts().iter().enumerate() {
                out.extend(std::iter::repeat_with(|| ct.clone()).take(req.output_count(i)));
            }
            Ok(out)
        }
    }

    #[test]
    fn replay_open_loop_accounts_for_every_request() {
        let cfg = ServingConfig::builder()
            .workers(1)
            .max_batch_size(8)
            .max_linger(Duration::from_millis(1))
            .queue_capacity(64)
            .build()
            .unwrap();
        let d = Dispatcher::from_config(
            &cfg,
            SleepBackend {
                per_batch: Duration::from_millis(2),
            },
        )
        .unwrap();
        let spec = LoadSpec {
            rate_per_s: 2000.0,
            requests: 60,
            seed: 11,
            deadline: None,
        };
        let ct = LweCiphertext::trivial(Torus32::from_raw(5), 4);
        let lut = Arc::new(Lut::identity(256, 4));
        let m = replay_open_loop(&d, &spec, &ct, &lut).unwrap();
        assert_eq!(
            m.completed + m.expired + m.rejected + m.shed + m.failed,
            60,
            "conservation: {m:?}"
        );
        assert_eq!(m.submitted, 60 - m.rejected - m.shed);
        assert!(m.completed > 0);
        assert!(m.p99_latency >= Duration::from_millis(2));
    }
}
