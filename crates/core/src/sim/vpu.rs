//! VPU cost model: the memory-intensive stages (MS, SE, KS) plus P-ALU
//! vector work (§V-B).

use morphling_tfhe::TfheParams;

use crate::config::ArchConfig;

/// Per-ciphertext VPU work, in MAC-equivalent operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VpuCost {
    /// Modulus switching: one multiply-round per mask element + body.
    pub mod_switch_macs: u64,
    /// Sample extraction: pure data movement (words moved, not MACs).
    pub sample_extract_words: u64,
    /// Key switching: `kN · l_k` digit×LWE accumulations of `n+1` words.
    pub key_switch_macs: u64,
}

impl VpuCost {
    /// Compute the per-bootstrap VPU work for `params`.
    pub fn compute(params: &TfheParams) -> Self {
        let n = params.lwe_dim as u64;
        let kn = params.extracted_lwe_dim() as u64;
        let l_k = params.ksk_decomp.level() as u64;
        Self {
            mod_switch_macs: n + 1,
            sample_extract_words: kn + 1,
            key_switch_macs: kn * l_k * (n + 1),
        }
    }

    /// Total MACs per bootstrap on the VPU.
    pub fn total_macs(&self) -> u64 {
        self.mod_switch_macs + self.key_switch_macs
    }

    /// Cycles one lane group takes for this ciphertext's KS (the paper
    /// programs each group independently, one ciphertext slot per group —
    /// this is the *latency* term of the KS stage).
    pub(crate) fn ks_latency_cycles(&self, config: &ArchConfig) -> u64 {
        let group_macs_per_cycle = (config.vpu_lanes_per_group * config.vpu_macs_per_lane) as u64;
        self.key_switch_macs.div_ceil(group_macs_per_cycle.max(1))
    }

    /// Cycles the whole VPU (all groups) needs per ciphertext — the
    /// *throughput* term.
    pub(crate) fn throughput_cycles(&self, config: &ArchConfig) -> u64 {
        self.total_macs()
            .div_ceil(config.vpu_macs_per_cycle().max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphling_tfhe::ParamSet;

    #[test]
    fn set_i_key_switch_mac_count() {
        // kN·l_k·(n+1) = 1024·3·501.
        let c = VpuCost::compute(&ParamSet::I.params());
        assert_eq!(c.key_switch_macs, 1024 * 3 * 501);
    }

    #[test]
    fn vpu_keeps_up_with_the_xpus_on_paper_sets() {
        // The pipelined design requires VPU throughput ≥ XPU throughput:
        // per-ciphertext VPU cycles × in-flight ciphertexts must fit in one
        // blind-rotation window (§V-B "operations apart from blind rotation
        // consume only a minor portion").
        use crate::sim::xpu::IterProfile;
        let cfg = crate::ArchConfig::morphling_default();
        for set in [ParamSet::I, ParamSet::II, ParamSet::III, ParamSet::IV] {
            let params = set.params();
            let window = params.lwe_dim as u64 * IterProfile::compute(&cfg, &params).iter_cycles();
            let vpu =
                VpuCost::compute(&params).throughput_cycles(&cfg) * cfg.bootstrap_cores() as u64;
            assert!(
                vpu <= window,
                "set {}: VPU needs {vpu} cycles but the window is {window}",
                params.name
            );
        }
    }

    #[test]
    fn sample_extract_is_movement_only() {
        let c = VpuCost::compute(&ParamSet::I.params());
        assert_eq!(c.sample_extract_words, 1025);
        // SE contributes no MACs.
        assert_eq!(c.total_macs(), c.mod_switch_macs + c.key_switch_macs);
    }
}
