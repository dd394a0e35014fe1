//! Capacity planning via simulator-in-the-loop autotuning (the serving
//! analogue of the paper's §VI co-simulation): calibrate a
//! [`ServiceModel`] from a live [`BootstrapEngine`] run, grid-search the
//! [`ServingConfig`](morphling_tfhe::ServingConfig) space for a target
//! arrival rate and p99 SLO, then optionally replay the *same* seeded
//! open-loop load through the recommended stack on the real
//! [`Dispatcher`] and report measured next to predicted (DESIGN.md §15:
//! the search already ran the dispatcher's own batching policy, so the
//! ratio says how well the one calibration run captured the host — it is
//! reported, not gated).
//!
//! The `report autotune` subcommand is a thin wrapper over
//! [`run_autotune`]; the JSON writers here define the schemas CI
//! validates (`autotune_config.json` and the `--bench-out` summary).

use std::sync::Arc;
use std::time::{Duration, Instant};

use morphling_core::trace::ExecutionTrace;
use morphling_tfhe::autotune::{
    autotune, replay_open_loop, AutotuneReport, LoadSpec, ServiceModel, SloTarget,
};
use morphling_tfhe::{
    AutotuneRequest, BatchRequest, Bootstrapper, ClientKey, Dispatcher, DispatcherStats,
    EngineStats, Lut, ParamSet, ServerKey, TfheError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Everything a capacity-planning run produced: the calibration
/// measurement, the search verdict, and (when validation ran) the real
/// dispatcher's stats.
pub struct AutotuneOutcome {
    /// Parameter set the calibration engine ran at.
    pub set: ParamSet,
    /// Engine stats the service model was calibrated from.
    pub stats: EngineStats,
    /// The calibrated service model.
    pub model: ServiceModel,
    /// The search verdict (recommended config, predicted stats,
    /// trajectory).
    pub report: AutotuneReport,
    /// Wall time the search took.
    pub search_wall: Duration,
    /// The real dispatcher's stats after replaying the recommended config
    /// through it (`None` when validation was skipped).
    pub measured: Option<DispatcherStats>,
}

impl AutotuneOutcome {
    /// Measured p99 ÷ predicted p99 (`None` when validation was skipped
    /// or nothing was predicted to complete).
    pub fn p99_ratio(&self) -> Option<f64> {
        let measured = self.measured.as_ref()?.p99_latency.as_secs_f64();
        let predicted = self.report.predicted.p99_latency.as_secs_f64();
        (predicted > 0.0).then(|| measured / predicted)
    }
}

/// Calibrate → search → (optionally) validate, all at `set`.
///
/// Calibration bootstraps a warm batch through a `workers`-wide
/// [`BootstrapEngine`] and derives the per-core cost from the engine's
/// own busy counters. The search then looks for the cheapest config
/// sustaining `rate_per_s` at `p99`, considering up to `workers`
/// workers. With `validate`, the recommended config is built into a real
/// engine + dispatcher stack and replayed under the same seeded
/// open-loop load the simulator scored (`validate_requests` arrivals,
/// deadlines equal to the SLO).
pub fn run_autotune(
    set: ParamSet,
    target: SloTarget,
    workers: usize,
    requests: usize,
    validate: Option<usize>,
) -> Result<AutotuneOutcome, TfheError> {
    let mut rng = StdRng::seed_from_u64(0xA77);
    let params = set.params();
    let p = params.plaintext_modulus;
    let ck = ClientKey::generate(params.clone(), &mut rng);
    let sk = Arc::new(ServerKey::new(&ck, &mut rng));
    let lut = Arc::new(Lut::identity(params.poly_size, p));
    let ct = ck.encrypt(1 % p, &mut rng);

    // Calibrate: one warm-up wave, then a measured wave per core.
    let engine = morphling_tfhe::BootstrapEngine::builder()
        .workers(workers)
        .build(Arc::clone(&sk))?;
    let wave: Vec<_> = (0..workers.max(1) * 2).map(|_| ct.clone()).collect();
    let _ = engine.try_bootstrap_batch(&BatchRequest::shared(
        wave[..workers.max(1)].to_vec(),
        (*lut).clone(),
    ))?;
    engine.reset_stats();
    let _ = engine.try_bootstrap_batch(&BatchRequest::shared(wave, (*lut).clone()))?;
    let stats = engine.stats();
    drop(engine);
    let model = ServiceModel::from_engine_stats(&stats).ok_or(TfheError::InvalidServingConfig {
        field: "calibration",
        detail: "engine completed no bootstraps to calibrate from".into(),
    })?;

    // Search.
    let mut req = AutotuneRequest::new(target);
    req.max_workers = workers.max(1);
    req.requests = requests;
    let t0 = Instant::now();
    let report = autotune(&model, &req)?;
    let search_wall = t0.elapsed();

    // Validate: same seed, same rate, deadlines at the SLO, real stack.
    let measured = match validate {
        Some(n) => {
            let engine = report.recommended.build_engine(sk)?;
            let dispatcher = Dispatcher::from_config(&report.recommended, engine)?;
            let spec = LoadSpec {
                rate_per_s: target.rate_per_s,
                requests: n,
                seed: req.seed,
                deadline: Some(target.p99),
            };
            Some(replay_open_loop(&dispatcher, &spec, &ct, &lut)?)
        }
        None => None,
    };
    Ok(AutotuneOutcome {
        set,
        stats,
        model,
        report,
        search_wall,
        measured,
    })
}

/// The `autotune_config.json` payload: exactly the recommended
/// [`ServingConfig`](morphling_tfhe::ServingConfig)'s own serialization,
/// so `ServingConfig::from_json` (and `Dispatcher::from_config`) loads
/// it unchanged.
pub fn config_json(outcome: &AutotuneOutcome) -> String {
    outcome.report.recommended.to_json()
}

/// The `--bench-out` summary CI validates: target, calibration,
/// recommendation (the [`config_json`] text itself), predicted profile,
/// search size, and — when validation ran — the measured profile plus
/// measured ÷ predicted p99. Both are
/// [`DispatcherStats`]; the predicted `shed` and the measured `rejected`
/// are each every refusal at admission (`rejected + shed`).
pub fn bench_json(outcome: &AutotuneOutcome) -> String {
    let (r, p) = (&outcome.report, &outcome.report.predicted);
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"target\": {{\"rate_per_s\": {}, \"p99_ms\": {}}},\n",
        r.target.rate_per_s,
        r.target.p99.as_secs_f64() * 1e3
    ));
    s.push_str(&format!(
        "  \"calibration\": {{\"set\": \"{:?}\", \"bootstrap_us\": {}, \"per_core_bs_s\": {}, \"workers\": {}}},\n",
        outcome.set,
        outcome.model.bootstrap_ns as f64 / 1e3,
        outcome.stats.bootstraps_per_core_sec(),
        outcome.stats.workers
    ));
    s.push_str(&format!("  \"slo_met\": {},\n", r.slo_met));
    s.push_str(&format!(
        "  \"recommended\": {},\n",
        config_json(outcome).replace('\n', "\n  ")
    ));
    s.push_str(&format!(
        "  \"predicted\": {{\"p50_ms\": {}, \"p99_ms\": {}, \"throughput_bs\": {}, \"mean_batch_size\": {}, \"shed\": {}, \"expired\": {}}},\n",
        p.p50_latency.as_secs_f64() * 1e3,
        p.p99_latency.as_secs_f64() * 1e3,
        p.throughput_bs,
        p.mean_batch_size,
        p.rejected + p.shed,
        p.expired
    ));
    s.push_str(&format!(
        "  \"search\": {{\"candidates\": {}, \"wall_ms\": {}}},\n",
        r.trajectory.len(),
        outcome.search_wall.as_secs_f64() * 1e3
    ));
    match &outcome.measured {
        Some(m) => {
            s.push_str(&format!(
                "  \"measured\": {{\"p50_ms\": {}, \"p99_ms\": {}, \"completed\": {}, \"expired\": {}, \"rejected\": {}, \"failed\": {}, \"throughput_bs\": {}}},\n",
                m.p50_latency.as_secs_f64() * 1e3,
                m.p99_latency.as_secs_f64() * 1e3,
                m.completed,
                m.expired,
                m.rejected + m.shed,
                m.failed,
                m.throughput_bs
            ));
        }
        None => s.push_str("  \"measured\": null,\n"),
    }
    match outcome.p99_ratio() {
        Some(ratio) => s.push_str(&format!("  \"p99_ratio\": {ratio}\n")),
        None => s.push_str("  \"p99_ratio\": null\n"),
    }
    s.push('}');
    s
}

/// The Chrome-trace payload for `report autotune --trace`: the search
/// trajectory as an `Autotune` track.
pub fn trace_json(outcome: &AutotuneOutcome) -> String {
    ExecutionTrace::from_autotune(&outcome.report).to_chrome_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_outcome(validate: bool) -> AutotuneOutcome {
        // A synthetic model keeps this test free of key generation; the
        // JSON writers only look at the outcome struct.
        let model = ServiceModel::new(Duration::from_millis(1));
        let target = SloTarget {
            rate_per_s: 100.0,
            p99: Duration::from_millis(30),
        };
        let report = autotune(&model, &AutotuneRequest::new(target)).unwrap();
        AutotuneOutcome {
            set: ParamSet::Test,
            stats: EngineStats {
                workers: 2,
                bootstraps: 10,
                busy: Duration::from_millis(10),
                ..EngineStats::default()
            },
            model,
            report,
            search_wall: Duration::from_millis(12),
            measured: validate.then(|| DispatcherStats {
                p99_latency: Duration::from_millis(4),
                completed: 64,
                ..DispatcherStats::default()
            }),
        }
    }

    #[test]
    fn config_json_round_trips_through_serving_config() {
        let outcome = synthetic_outcome(false);
        let parsed = morphling_tfhe::ServingConfig::from_json(&config_json(&outcome)).unwrap();
        assert_eq!(parsed, outcome.report.recommended);
    }

    #[test]
    fn bench_json_has_the_ci_schema_fields() {
        for validated in [false, true] {
            let json = bench_json(&synthetic_outcome(validated));
            for key in [
                "\"target\"",
                "\"calibration\"",
                "\"slo_met\"",
                "\"recommended\"",
                "\"predicted\"",
                "\"search\"",
                "\"measured\"",
                "\"p99_ratio\"",
            ] {
                assert!(json.contains(key), "missing {key} in {json}");
            }
            assert_eq!(validated, !json.contains("\"p99_ratio\": null"));
        }
    }

    #[test]
    fn trace_json_renders_the_autotune_track() {
        let json = trace_json(&synthetic_outcome(false));
        assert!(json.contains("\"Autotune\""));
        assert!(json.contains("traceEvents"));
    }
}
