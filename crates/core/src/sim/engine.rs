//! The top-level simulator: combines the XPU iteration profile, buffer
//! capacity, HBM bandwidth, and VPU model into latency/throughput reports.

use morphling_tfhe::TfheParams;

use crate::config::ArchConfig;
use crate::sim::buffers::stream_batch_depth;
use crate::sim::hbm::BandwidthDemand;
use crate::sim::vpu::VpuCost;
use crate::sim::xpu::IterProfile;
use crate::trace::ExecutionTrace;

/// Pipeline-fill overhead charged once per bootstrap (FFT fill + VPE +
/// IFFT + write-back), in cycles. Small against `n × iter_cycles`.
const PIPELINE_FILL_CYCLES: u64 = 200;

/// The Morphling performance simulator.
///
/// See the [crate-level example](crate) for a typical call.
#[derive(Clone, Debug)]
pub struct Simulator {
    config: ArchConfig,
}

impl Simulator {
    /// Create a simulator for one architecture configuration.
    pub fn new(config: ArchConfig) -> Self {
        Self { config }
    }

    /// The architecture being simulated.
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// Simulate the steady-state execution of `n_cts` bootstrap operations
    /// (a batch; `n_cts` is rounded up to full in-flight groups).
    pub fn bootstrap_batch(&self, params: &TfheParams, n_cts: usize) -> SimReport {
        let cfg = &self.config;
        let iter = IterProfile::compute(cfg, params);
        let iter_cycles = iter.iter_cycles();
        let n = params.lwe_dim as u64;
        let cores = cfg.bootstrap_cores() as u64;

        // Stream batching from Private-A1 capacity → BSK amortization.
        let stream_batch = stream_batch_depth(cfg, params);

        // Raw (compute-bound) throughput, before memory stalls.
        let raw_throughput = cores as f64 / (n as f64 * iter_cycles as f64 / cfg.clock_hz());

        // Memory stall.
        let demand =
            BandwidthDemand::compute(cfg, params, iter_cycles, stream_batch, raw_throughput);
        let mem_stall = demand.stall_factor(cfg);

        // VPU throughput bound: all in-flight ciphertexts must key-switch
        // within one blind-rotation window.
        let vpu = VpuCost::compute(params);
        let window = n * iter_cycles;
        let vpu_utilization = (vpu.throughput_cycles(cfg) * cores) as f64 / window as f64;

        let stall = mem_stall.max(vpu_utilization).max(1.0);

        // Latency: the blind rotation (stalled), plus the serial MS / SE /
        // KS stages for one ciphertext (KS on one VPU lane group).
        let br_cycles = (n as f64 * iter_cycles as f64 * stall).round() as u64;
        let ms_cycles = vpu
            .mod_switch_macs
            .div_ceil(cfg.vpu_macs_per_cycle().max(1))
            .max(1);
        let se_cycles = vpu
            .sample_extract_words
            .div_ceil((cfg.lanes * cfg.vpu_groups) as u64)
            .max(1);
        let ks_cycles = vpu.ks_latency_cycles(cfg);

        SimReport {
            params_name: params.name,
            n_cts,
            cores: cores as usize,
            iter,
            iter_cycles,
            stream_batch,
            demand,
            stall,
            mem_stall,
            vpu_utilization,
            clock_hz: cfg.clock_hz(),
            br_cycles,
            fill_cycles: PIPELINE_FILL_CYCLES,
            ms_cycles,
            se_cycles,
            ks_cycles,
        }
    }

    /// Wall-clock seconds to run `count` bootstraps with at most
    /// `parallelism` of them independent at any time (dependencies cap the
    /// usable cores) — the application-mapping primitive of Table VI.
    pub fn batch_time_seconds(&self, params: &TfheParams, count: u64, parallelism: u64) -> f64 {
        if count == 0 {
            return 0.0;
        }
        let report = self.bootstrap_batch(params, count as usize);
        // Dependencies cap how many bootstraps can be in flight: each wave
        // of `min(cores, parallelism)` ciphertexts costs one latency window.
        let usable = (self.config.bootstrap_cores() as u64).min(parallelism.max(1));
        count.div_ceil(usable) as f64 * report.latency_seconds()
    }
}

/// The result of simulating one bootstrap batch: latency, throughput, and
/// every intermediate the evaluation figures need.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Parameter-set name.
    pub params_name: &'static str,
    /// Requested batch size.
    pub n_cts: usize,
    /// In-flight ciphertexts ("bootstrapping cores").
    pub cores: usize,
    /// Per-iteration XPU resource occupancy.
    pub iter: IterProfile,
    /// Steady-state iteration period (cycles, unstalled).
    pub iter_cycles: u64,
    /// Realized consecutive-stream batching depth `S`.
    pub stream_batch: usize,
    /// External-bandwidth demands.
    pub demand: BandwidthDemand,
    /// Pipeline stall factor (≥ 1): max of memory and VPU bounds.
    pub stall: f64,
    /// Memory-only stall factor (≥ 1) — the HBM contribution to `stall`,
    /// kept separate so traces can attribute stalls to a cause.
    pub mem_stall: f64,
    /// VPU utilization (fraction of one window).
    pub vpu_utilization: f64,
    /// Clock rate in Hz.
    pub clock_hz: f64,
    /// Blind-rotation cycles (n iterations, stalled).
    pub br_cycles: u64,
    /// One-time pipeline fill.
    pub fill_cycles: u64,
    /// Modulus-switch serial cycles.
    pub ms_cycles: u64,
    /// Sample-extraction serial cycles.
    pub se_cycles: u64,
    /// Key-switch serial cycles (one VPU lane group).
    pub ks_cycles: u64,
}

/// What bounds a simulated bootstrap batch's steady-state throughput.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Bottleneck {
    /// The XPU pipeline runs unstalled — compute-bound (the intended
    /// operating point of the default configuration).
    Compute,
    /// HBM bandwidth (BSK/KSK/LWE traffic) stretches the iteration
    /// period.
    MemoryBandwidth,
    /// The VPU cannot key-switch the in-flight ciphertexts within one
    /// blind-rotation window.
    VpuThroughput,
}

impl Bottleneck {
    /// Short label for trace args and report tables.
    pub fn label(&self) -> &'static str {
        match self {
            Bottleneck::Compute => "compute",
            Bottleneck::MemoryBandwidth => "memory_bandwidth",
            Bottleneck::VpuThroughput => "vpu_throughput",
        }
    }
}

impl SimReport {
    /// Total latency of one bootstrap in cycles.
    pub(crate) fn latency_cycles(&self) -> u64 {
        self.br_cycles + self.fill_cycles + self.ms_cycles + self.se_cycles + self.ks_cycles
    }

    /// Which resource bounds this batch's throughput: the larger of the
    /// memory and VPU stall contributions, or compute if neither stalls
    /// the pipeline.
    pub fn bottleneck(&self) -> Bottleneck {
        if self.stall <= 1.0 {
            Bottleneck::Compute
        } else if self.mem_stall >= self.vpu_utilization {
            Bottleneck::MemoryBandwidth
        } else {
            Bottleneck::VpuThroughput
        }
    }

    /// Render the serial per-ciphertext latency chain (MS → BR → SE → KS)
    /// as an [`ExecutionTrace`], with stall and bottleneck attribution on
    /// the blind-rotation span. Merges cleanly with a scheduler trace
    /// (both use cycle ticks at the same clock).
    pub fn to_trace(&self) -> ExecutionTrace {
        let mut t = ExecutionTrace::new(self.clock_hz / 1e6);
        let vpu = t.track("Simulator", "VPU stages");
        let xpu = t.track("Simulator", "XPU blind rotation");
        let mut cursor = 0u64;
        t.span(vpu, "ModSwitch", "sim", cursor, self.ms_cycles);
        cursor += self.ms_cycles;
        t.span_with_args(
            xpu,
            "BlindRotate",
            "sim",
            cursor,
            self.br_cycles + self.fill_cycles,
            vec![
                ("iter_cycles".into(), self.iter_cycles.to_string()),
                ("stream_batch".into(), self.stream_batch.to_string()),
                ("stall".into(), format!("{:.4}", self.stall)),
                ("mem_stall".into(), format!("{:.4}", self.mem_stall)),
                (
                    "vpu_utilization".into(),
                    format!("{:.4}", self.vpu_utilization),
                ),
                ("bottleneck".into(), self.bottleneck().label().into()),
            ],
        );
        cursor += self.br_cycles + self.fill_cycles;
        t.span(vpu, "SampleExtract", "sim", cursor, self.se_cycles);
        cursor += self.se_cycles;
        t.span(vpu, "KeySwitch", "sim", cursor, self.ks_cycles);
        t
    }

    /// Latency in seconds.
    pub(crate) fn latency_seconds(&self) -> f64 {
        self.latency_cycles() as f64 / self.clock_hz
    }

    /// Latency in milliseconds (the unit of Table V).
    pub fn latency_ms(&self) -> f64 {
        self.latency_seconds() * 1e3
    }

    /// Steady-state throughput in bootstrappings per second (Table V's
    /// BS/s): the in-flight ciphertexts complete every stalled
    /// blind-rotation window.
    pub fn throughput_bs_per_s(&self) -> f64 {
        self.cores as f64 / (self.br_cycles as f64 / self.clock_hz)
    }

    /// Bridge into the serving autotuner: this simulated accelerator as a
    /// [`ServiceModel`](morphling_tfhe::ServiceModel). Each in-flight
    /// core slot is one "worker" — one server of the model — whose
    /// per-bootstrap cost is the full (stalled) per-ciphertext latency;
    /// the hardware completes `cores` bootstraps per window, and there is
    /// no software batch overhead. Pair it with `workers = report.cores` when
    /// autotuning: `capacity_bs(cores)` then reproduces
    /// [`throughput_bs_per_s`](Self::throughput_bs_per_s) up to the
    /// one-time fill/serial stages.
    pub fn service_model(&self) -> morphling_tfhe::ServiceModel {
        morphling_tfhe::ServiceModel {
            bootstrap_ns: ((self.latency_cycles() as f64 / self.clock_hz) * 1e9).ceil() as u64,
            batch_overhead_ns: 0,
        }
    }

    /// Latency fractions per stage — Fig 7-a. Returns
    /// `(ms, xpu_blind_rotation, se, ks)` fractions summing to ≈ 1.
    pub fn latency_breakdown(&self) -> (f64, f64, f64, f64) {
        let total = self.latency_cycles() as f64;
        (
            self.ms_cycles as f64 / total,
            (self.br_cycles + self.fill_cycles) as f64 / total,
            self.se_cycles as f64 / total,
            self.ks_cycles as f64 / total,
        )
    }

    /// Energy per bootstrap in millijoules, given the chip power (e.g.
    /// from [`crate::hwmodel`]): `P / throughput`. The metric that makes
    /// Table V's area/power columns comparable across accelerators.
    pub fn energy_per_bootstrap_mj(&self, chip_power_w: f64) -> f64 {
        chip_power_w / self.throughput_bs_per_s() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphling_tfhe::ParamSet;

    fn sim() -> Simulator {
        Simulator::new(ArchConfig::morphling_default())
    }

    #[test]
    fn table_v_set_i() {
        let r = sim().bootstrap_batch(&ParamSet::I.params(), 16);
        assert!(
            (r.latency_ms() - 0.11).abs() < 0.012,
            "latency {}",
            r.latency_ms()
        );
        let t = r.throughput_bs_per_s();
        assert!((140_000.0..160_000.0).contains(&t), "throughput {t}");
    }

    #[test]
    fn table_v_set_ii() {
        let r = sim().bootstrap_batch(&ParamSet::II.params(), 16);
        assert!(
            (r.latency_ms() - 0.20).abs() < 0.02,
            "latency {}",
            r.latency_ms()
        );
        let t = r.throughput_bs_per_s();
        assert!((72_000.0..86_000.0).contains(&t), "throughput {t}");
    }

    #[test]
    fn table_v_set_iii() {
        let r = sim().bootstrap_batch(&ParamSet::III.params(), 16);
        assert!(
            (r.latency_ms() - 0.38).abs() < 0.03,
            "latency {}",
            r.latency_ms()
        );
        let t = r.throughput_bs_per_s();
        assert!((39_000.0..46_000.0).contains(&t), "throughput {t}");
    }

    #[test]
    fn table_v_set_iv() {
        // Set IV's blind rotation alone is 0.158 ms (= the paper's 0.16);
        // our report also charges the serial KS tail (~0.03 ms), which the
        // paper's pipelined measurement hides — hence the wider tolerance.
        let r = sim().bootstrap_batch(&ParamSet::IV.params(), 16);
        assert!(
            (r.latency_ms() - 0.16).abs() < 0.04,
            "latency {}",
            r.latency_ms()
        );
        let t = r.throughput_bs_per_s();
        assert!((93_000.0..107_000.0).contains(&t), "throughput {t}");
    }

    #[test]
    fn no_stall_at_default_config() {
        for set in [ParamSet::I, ParamSet::II, ParamSet::III, ParamSet::IV] {
            let r = sim().bootstrap_batch(&set.params(), 16);
            assert!(r.stall <= 1.001, "set {:?} stalls by {}", set, r.stall);
            assert!(
                r.vpu_utilization <= 1.0,
                "set {:?} vpu {}",
                set,
                r.vpu_utilization
            );
        }
    }

    #[test]
    fn fig7a_xpu_dominates_latency() {
        for set in [ParamSet::I, ParamSet::II, ParamSet::III, ParamSet::IV] {
            let r = sim().bootstrap_batch(&set.params(), 16);
            let (_, br, _, _) = r.latency_breakdown();
            assert!(
                (0.80..=0.99).contains(&br),
                "set {:?}: br fraction {br}",
                set
            );
        }
    }

    #[test]
    fn xpu_scaling_saturates_beyond_the_multicast_width() {
        // Fig 8-b: linear up to 4 XPUs, then memory-bound.
        let params = ParamSet::A.params();
        let t4 = Simulator::new(ArchConfig::morphling_default())
            .bootstrap_batch(&params, 16)
            .throughput_bs_per_s();
        let t2 = Simulator::new(ArchConfig::morphling_default().with_xpus(2))
            .bootstrap_batch(&params, 8)
            .throughput_bs_per_s();
        let t8 = Simulator::new(ArchConfig::morphling_default().with_xpus(8))
            .bootstrap_batch(&params, 32)
            .throughput_bs_per_s();
        assert!((t4 / t2 - 2.0).abs() < 0.2, "t4/t2 = {}", t4 / t2);
        // Adding XPUs beyond the multicast width does not scale.
        assert!(t8 < 1.3 * t4, "t8 {} vs t4 {}", t8, t4);
    }

    #[test]
    fn small_private_a1_degrades_performance() {
        // Fig 8-a: below 4096 KiB (set A) the stream batch shrinks and the
        // BSK stream overloads the XPU channels.
        let params = ParamSet::A.params();
        let base = Simulator::new(ArchConfig::morphling_default())
            .bootstrap_batch(&params, 16)
            .throughput_bs_per_s();
        let small = Simulator::new(ArchConfig::morphling_default().with_private_a1_kb(1024))
            .bootstrap_batch(&params, 16)
            .throughput_bs_per_s();
        let large = Simulator::new(ArchConfig::morphling_default().with_private_a1_kb(16384))
            .bootstrap_batch(&params, 16)
            .throughput_bs_per_s();
        assert!(small < 0.7 * base, "small {} base {}", small, base);
        assert!(large <= base * 1.05, "large {} base {}", large, base);
    }

    #[test]
    fn bottleneck_attribution_follows_the_binding_bound() {
        // Default config at set I: unstalled → compute-bound.
        let r = sim().bootstrap_batch(&ParamSet::I.params(), 16);
        assert_eq!(r.bottleneck(), Bottleneck::Compute);
        // Starving Private-A1 kills stream batching → the BSK stream
        // overloads the XPU channels → memory-bound.
        let starved = Simulator::new(ArchConfig::morphling_default().with_private_a1_kb(256))
            .bootstrap_batch(&ParamSet::I.params(), 16);
        assert!(starved.stall > 1.0);
        assert_eq!(starved.bottleneck(), Bottleneck::MemoryBandwidth);
    }

    #[test]
    fn report_trace_covers_the_latency_chain() {
        let r = sim().bootstrap_batch(&ParamSet::I.params(), 16);
        let trace = r.to_trace();
        assert_eq!(trace.spans().len(), 4);
        assert_eq!(trace.makespan_ticks(), r.latency_cycles());
        let br = &trace.spans()[1];
        assert!(br.args.iter().any(|(k, _)| k == "bottleneck"));
        assert!(trace.to_chrome_json().contains("BlindRotate"));
    }

    #[test]
    fn batch_time_accounts_for_limited_parallelism() {
        let s = sim();
        let params = ParamSet::I.params();
        let serial = s.batch_time_seconds(&params, 16, 1);
        let parallel = s.batch_time_seconds(&params, 16, 16);
        assert!(
            serial > 10.0 * parallel,
            "serial {serial} parallel {parallel}"
        );
    }
}
