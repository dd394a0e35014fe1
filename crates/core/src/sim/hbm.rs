//! HBM bandwidth accounting (§IV-C, §VI-B).
//!
//! Three traffic classes share one HBM2e stack:
//!
//! - **BSK** (XPU): one `BSK_i` per iteration per multicast cluster,
//!   amortized over the `S` consecutive ACC streams batched in Private-A1
//!   (§IV-C's 64-ciphertext reuse = 4 rows × 4 XPUs × up to 4 streams).
//!   Served by the XPU-priority channels.
//! - **KSK** (VPU): the whole KSK once per 64-ciphertext group (KSK reuse,
//!   §IV-C). Served by the VPU-priority channels.
//! - **LWE I/O**: negligible but accounted.

use morphling_tfhe::TfheParams;

use crate::config::ArchConfig;

/// Bandwidth demands (GB/s) of one steady-state workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BandwidthDemand {
    /// BSK stream demand across all clusters.
    pub bsk_gb_s: f64,
    /// KSK stream demand.
    pub ksk_gb_s: f64,
    /// LWE input/output demand.
    pub lwe_gb_s: f64,
    /// ACC spill traffic (zero unless the BSK-stationary dataflow streams
    /// accumulator ciphertexts through external memory, §IV-B).
    pub acc_spill_gb_s: f64,
}

impl BandwidthDemand {
    /// Compute demand given the iteration period (in cycles), the stream
    /// batching depth `S`, and the achieved bootstrap throughput (BS/s)
    /// *before* memory stalls.
    pub fn compute(
        config: &ArchConfig,
        params: &TfheParams,
        iter_cycles: u64,
        stream_batch: usize,
        raw_throughput: f64,
    ) -> Self {
        let iter_seconds = iter_cycles as f64 / config.clock_hz();
        let bsk_gb_s = config.bsk_clusters() as f64 * params.bsk_iter_bytes_fourier() as f64
            / (stream_batch as f64 * iter_seconds)
            / 1e9;
        // KSK is fetched once per ciphertext group (64 by default — the
        // reuse factor of §IV-C) and streamed while that group key-switches.
        let group = (config.bootstrap_cores() * config.max_stream_batch).max(1) as f64;
        let ksk_gb_s = params.ksk_total_bytes() as f64 * raw_throughput / group / 1e9;
        let lwe_bytes = 2.0 * (params.lwe_dim as f64 + 1.0) * 4.0;
        let lwe_gb_s = lwe_bytes * raw_throughput / 1e9;
        // BSK-stationary keeps BSK resident but must stream the per-
        // iteration accumulator state (transform domain, in + out) of every
        // in-flight ciphertext through HBM — "more ciphertext … additional
        // pressure on the external memory bandwidth" (§IV-B).
        let acc_spill_gb_s = if config.dataflow == crate::config::Dataflow::BskStationary {
            let bytes_per_iter =
                config.bootstrap_cores() as f64 * 2.0 * 2.0 * params.acc_bytes() as f64;
            bytes_per_iter / iter_seconds / 1e9
        } else {
            0.0
        };
        Self {
            bsk_gb_s,
            ksk_gb_s,
            lwe_gb_s,
            acc_spill_gb_s,
        }
    }

    /// Hard ceiling on the stall factor. A channel split that leaves a
    /// traffic class with no bandwidth at all (e.g. every channel
    /// prioritized for the XPU while KSK traffic still flows) would
    /// otherwise divide by zero — or, with float rounding, go negative —
    /// and silently poison every downstream latency. A saturated stall
    /// keeps the report finite and unmistakably pathological.
    pub const MAX_STALL: f64 = 1e6;

    /// The pipeline stall factor: ≥ 1, ≤ [`Self::MAX_STALL`]. BSK
    /// competes for the XPU-priority channels; KSK + LWE compete for the
    /// VPU-priority channels; the whole stack is the final backstop.
    pub(crate) fn stall_factor(&self, config: &ArchConfig) -> f64 {
        let xpu_cap = config.hbm.xpu_priority_gb_s().max(0.0);
        let vpu_cap = (config.hbm.total_gb_s - xpu_cap).max(0.0);
        // A class with demand but zero capacity saturates outright.
        let class_stall = |demand: f64, cap: f64| {
            if demand <= 0.0 {
                1.0
            } else if cap <= 0.0 {
                Self::MAX_STALL
            } else {
                demand / cap
            }
        };
        let xpu_stall = class_stall(self.bsk_gb_s + self.acc_spill_gb_s, xpu_cap);
        let vpu_stall = class_stall(self.ksk_gb_s + self.lwe_gb_s, vpu_cap);
        let total_stall = class_stall(
            self.bsk_gb_s + self.ksk_gb_s + self.lwe_gb_s + self.acc_spill_gb_s,
            config.hbm.total_gb_s,
        );
        xpu_stall
            .max(vpu_stall)
            .max(total_stall)
            .clamp(1.0, Self::MAX_STALL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphling_tfhe::ParamSet;

    #[test]
    fn default_set_i_fits_in_the_priority_channels() {
        let cfg = ArchConfig::morphling_default();
        let d = BandwidthDemand::compute(&cfg, &ParamSet::I.params(), 256, 4, 150_000.0);
        // 32 KiB per iteration over 4 streams × 213 ns ≈ 38 GB/s < 77.5.
        assert!((35.0..42.0).contains(&d.bsk_gb_s), "bsk {}", d.bsk_gb_s);
        assert_eq!(d.stall_factor(&cfg), 1.0);
    }

    #[test]
    fn no_stream_batching_overloads_the_xpu_channels() {
        let cfg = ArchConfig::morphling_default();
        let d = BandwidthDemand::compute(&cfg, &ParamSet::I.params(), 256, 1, 150_000.0);
        assert!(d.bsk_gb_s > 140.0, "bsk {}", d.bsk_gb_s);
        assert!(d.stall_factor(&cfg) > 1.5);
    }

    #[test]
    fn zero_vpu_capacity_saturates_instead_of_diverging() {
        // All eight channels prioritized for the XPU: the VPU classes
        // have zero capacity, so their nonzero KSK/LWE demand must yield
        // the saturated stall — finite, positive, and clamped — rather
        // than an infinity (or, with rounding, a negative value).
        let mut cfg = ArchConfig::morphling_default();
        cfg.hbm.vpu_priority_channels = 0;
        assert!(cfg.hbm.xpu_priority_gb_s() >= cfg.hbm.total_gb_s);
        let d = BandwidthDemand::compute(&cfg, &ParamSet::I.params(), 256, 4, 150_000.0);
        assert!(d.ksk_gb_s > 0.0);
        let stall = d.stall_factor(&cfg);
        assert!(stall.is_finite(), "stall {stall} not finite");
        assert_eq!(stall, BandwidthDemand::MAX_STALL);
        // Zero demand against zero capacity is not a stall at all.
        let idle = BandwidthDemand {
            bsk_gb_s: 0.0,
            ksk_gb_s: 0.0,
            lwe_gb_s: 0.0,
            acc_spill_gb_s: 0.0,
        };
        assert_eq!(idle.stall_factor(&cfg), 1.0);
    }

    #[test]
    fn ksk_demand_reflects_group_reuse() {
        let cfg = ArchConfig::morphling_default();
        let params = ParamSet::I.params();
        let d = BandwidthDemand::compute(&cfg, &params, 256, 4, 150_000.0);
        // 6.3 MB KSK per 64 ciphertexts at 150 kBS/s ≈ 15 GB/s.
        let expect = params.ksk_total_bytes() as f64 * 150_000.0 / 64.0 / 1e9;
        assert!((d.ksk_gb_s - expect).abs() < 1e-6);
        assert!(d.ksk_gb_s < 40.0);
    }
}
