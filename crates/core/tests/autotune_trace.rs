//! The cycle-accurate simulator feeds the serving autotuner
//! (`SimReport::service_model`), and the autotuner's search trajectory
//! journals into the Chrome trace as an `Autotune` track.

use std::time::Duration;

use morphling_core::sim::Simulator;
use morphling_core::trace::ExecutionTrace;
use morphling_core::ArchConfig;
use morphling_tfhe::autotune::{autotune, AutotuneRequest, SloTarget};
use morphling_tfhe::ParamSet;

#[test]
fn sim_report_bridges_to_a_consistent_service_model() {
    let sim = Simulator::new(ArchConfig::morphling_default());
    let report = sim.bootstrap_batch(&ParamSet::III.params(), 1);
    let model = report.service_model();
    // The bridged per-bootstrap cost is the report's own latency.
    let latency_ns = (report.latency_ms() * 1e6) as u64;
    assert!(model.bootstrap_ns.abs_diff(latency_ns) <= 1);
    // Run the accelerator's in-flight slots as "workers": capacity must
    // land near the simulator's steady-state throughput. The bridge
    // charges the one-time fill and serial VPU stages to every window,
    // so it reads a little low — never high — and stays within 25%.
    let fleet = Simulator::new(ArchConfig::morphling_default())
        .bootstrap_batch(&ParamSet::III.params(), report.cores);
    let bridged = fleet.service_model().capacity_bs(fleet.cores);
    let simulated = fleet.throughput_bs_per_s();
    assert!(
        bridged <= simulated * 1.01,
        "bridge must not promise more than the simulator: {bridged} vs {simulated}"
    );
    assert!(
        bridged >= simulated * 0.75,
        "bridge too conservative: {bridged} vs {simulated}"
    );
}

#[test]
fn autotune_on_the_simulated_accelerator_meets_a_real_slo() {
    // End-to-end capacity planning against simulated hardware: derive the
    // service model from the cycle-accurate report, then ask for a load
    // comfortably inside the accelerator's capacity.
    let sim = Simulator::new(ArchConfig::morphling_default());
    let report = sim.bootstrap_batch(&ParamSet::III.params(), 16);
    let model = report.service_model();
    let latency = Duration::from_secs_f64(report.latency_ms() / 1e3);
    let mut req = AutotuneRequest::new(SloTarget {
        rate_per_s: model.capacity_bs(16) * 0.25,
        p99: latency * 20,
    });
    req.max_workers = 16;
    req.requests = 256;
    let tuned = autotune(&model, &req).unwrap();
    assert!(tuned.slo_met, "quarter-capacity load must be servable");
    assert!(tuned.predicted.p99_latency <= latency * 20);
    tuned.recommended.validate().unwrap();

    // The search trajectory renders as an `Autotune` track.
    let trace = ExecutionTrace::from_autotune(&tuned);
    assert_eq!(trace.spans().len(), tuned.trajectory.len());
    let json = trace.to_chrome_json();
    assert!(json.contains("\"Autotune\""));
    assert!(json.contains("autotune"));
    assert!(json.contains("predicted_p99_us"));
    // Both feasible and infeasible candidates are journaled.
    assert!(json.contains("\"autotune_infeasible\""));
    assert!(trace.spans().iter().any(|s| s.cat == "autotune"));
}

#[test]
fn autotune_track_merges_with_simulator_traces() {
    let sim = Simulator::new(ArchConfig::morphling_default());
    let report = sim.bootstrap_batch(&ParamSet::III.params(), 4);
    let mut trace = report.to_trace();
    let tuned = autotune(
        &report.service_model(),
        &AutotuneRequest::new(SloTarget {
            rate_per_s: 10.0,
            p99: Duration::from_secs(1),
        }),
    )
    .unwrap();
    let before = trace.spans().len();
    trace.merge(&ExecutionTrace::from_autotune(&tuned));
    assert_eq!(trace.spans().len(), before + tuned.trajectory.len());
    let json = trace.to_chrome_json();
    assert!(json.contains("\"Simulator\"") && json.contains("\"Autotune\""));
}
