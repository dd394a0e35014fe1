//! The architecture configuration of a Morphling instance (§IV-A, §VI-B).

use crate::reuse::ReuseMode;

/// Which operand stays resident in the VPE array (§IV-B).
///
/// The paper chooses ACC-output stationary: "The ACC input stationary and
/// the BSK stationary dataflows would require the partial sum of the ACC
/// output to be stored in Private-A1 … we have to store the
/// transform-domain data instead of polynomial data. This choice doubles
/// the memory requirement for the Private-A1 buffer." The simulator models
/// exactly that cost: non-output-stationary dataflows halve the achievable
/// stream batching for a given Private-A1 size.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Dataflow {
    /// Partial sums stay in POLY-ACC-REG inside the VPEs (Morphling).
    #[default]
    OutputStationary,
    /// The ACC input stays; transform-domain partial sums spill to
    /// Private-A1 (2× bytes per ACC).
    InputStationary,
    /// The BSK stays; like input-stationary plus extra external-memory
    /// pressure from streaming more ciphertexts.
    BskStationary,
}

impl Dataflow {
    /// Bytes stored in Private-A1 per ACC ciphertext, relative to the
    /// coefficient-domain polynomial size (transform-domain data is 2×).
    pub(crate) fn acc_bytes_factor(&self) -> u64 {
        match self {
            Dataflow::OutputStationary => 1,
            Dataflow::InputStationary | Dataflow::BskStationary => 2,
        }
    }
}

/// External-memory (HBM2e) configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HbmConfig {
    /// Number of HBM channels (one HBM2e stack has 8).
    pub channels: usize,
    /// Moderate average bandwidth of the whole stack in GB/s (§VI-B: 310).
    pub total_gb_s: f64,
    /// Channels *prioritized* for the VPU's KSK traffic (§VI-B: 6). The
    /// remainder is prioritized for XPU BSK traffic; idle bandwidth is
    /// shared either way.
    pub vpu_priority_channels: usize,
}

impl HbmConfig {
    /// Bandwidth of a single channel in GB/s.
    pub(crate) fn channel_gb_s(&self) -> f64 {
        self.total_gb_s / self.channels as f64
    }

    /// Bandwidth of the XPU-prioritized channels in GB/s.
    pub(crate) fn xpu_priority_gb_s(&self) -> f64 {
        self.channel_gb_s() * (self.channels - self.vpu_priority_channels) as f64
    }
}

/// NoC configuration (§V-D). The Private-A2 → XPU connection is a
/// multicast tree of fixed width: XPUs beyond one multicast group need an
/// independent BSK stream, which is what caps XPU scaling in Fig 8-b.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NocConfig {
    /// Width of one BSK multicast group (§V-D: each Private-A2 bank
    /// multicasts to four XPUs).
    pub bsk_multicast_width: usize,
    /// Chip-wide NoC bandwidth in TB/s (§V-D: 4.8).
    pub bandwidth_tb_s: f64,
}

/// Full architecture description of one Morphling instance.
///
/// [`ArchConfig::morphling_default`] is the paper's configuration; every
/// field is public so the architectural-analysis benches (Fig 7-b, Fig 8)
/// can sweep it.
#[derive(Clone, Debug, PartialEq)]
pub struct ArchConfig {
    /// Number of external product units (paper: 4).
    pub xpus: usize,
    /// VPE array rows per XPU — concurrent ciphertexts per XPU (paper: 4).
    pub vpe_rows: usize,
    /// VPE array columns per XPU (paper: 4; columns ≥ k+1 are idle or used
    /// for flexible mapping).
    pub vpe_cols: usize,
    /// Forward-FFT units per XPU (paper: 2).
    pub ffts_per_xpu: usize,
    /// Inverse-FFT units per XPU (paper: 4).
    pub iffts_per_xpu: usize,
    /// Decomposition units per XPU (paper: 4).
    pub decomp_units_per_xpu: usize,
    /// Datapath lanes: coefficients/complex points processed per cycle by
    /// each unit (paper: 8 — the 256-bit poly / 512-bit transform paths).
    pub lanes: usize,
    /// Whether the merge-split FFT is enabled (two real polynomials per
    /// FFT pass, §V-A.3).
    pub merge_split: bool,
    /// Transform-domain reuse mode of the VPE array.
    pub reuse: ReuseMode,
    /// VPU lane groups (paper: 4).
    pub vpu_groups: usize,
    /// Lanes per VPU group (paper: 32).
    pub vpu_lanes_per_group: usize,
    /// MAC operations per VPU lane per cycle (multiplier + adder per lane).
    pub vpu_macs_per_lane: usize,
    /// Private-A1 buffer capacity in KiB (paper: 4096, 16 banks).
    pub private_a1_kb: usize,
    /// Private-A2 buffer capacity in KiB (paper: 4096, 4 banks) — BSK
    /// double buffer / prefetcher.
    pub private_a2_kb: usize,
    /// Private-B buffer capacity in KiB (paper: 2048, 8 banks).
    pub private_b_kb: usize,
    /// Shared buffer capacity in KiB (paper: 1024, 4 banks).
    pub shared_kb: usize,
    /// Clock frequency in GHz (paper: 1.2).
    pub clock_ghz: f64,
    /// External memory.
    pub hbm: HbmConfig,
    /// Network-on-chip.
    pub noc: NocConfig,
    /// Maximum consecutive ACC streams batched for BSK reuse (§IV-C: up
    /// to 4; the realized depth also depends on Private-A1 capacity).
    pub max_stream_batch: usize,
    /// Which operand stays resident in the VPE array (§IV-B).
    pub dataflow: Dataflow,
}

impl ArchConfig {
    /// The paper's Morphling configuration (§VI-B).
    pub fn morphling_default() -> Self {
        Self {
            xpus: 4,
            vpe_rows: 4,
            vpe_cols: 4,
            ffts_per_xpu: 2,
            iffts_per_xpu: 4,
            decomp_units_per_xpu: 4,
            lanes: 8,
            merge_split: true,
            reuse: ReuseMode::InputOutputReuse,
            vpu_groups: 4,
            vpu_lanes_per_group: 32,
            vpu_macs_per_lane: 4,
            private_a1_kb: 4096,
            private_a2_kb: 4096,
            private_b_kb: 2048,
            shared_kb: 1024,
            clock_ghz: 1.2,
            hbm: HbmConfig {
                channels: 8,
                total_gb_s: 310.0,
                vpu_priority_channels: 6,
            },
            noc: NocConfig {
                bsk_multicast_width: 4,
                bandwidth_tb_s: 4.8,
            },
            max_stream_batch: 4,
            dataflow: Dataflow::default(),
        }
    }

    /// Same resources, different reuse mode (for the Fig 7-b comparison).
    #[must_use]
    pub fn with_reuse(mut self, reuse: ReuseMode) -> Self {
        self.reuse = reuse;
        self
    }

    /// Toggle the merge-split FFT.
    #[must_use]
    pub fn with_merge_split(mut self, enabled: bool) -> Self {
        self.merge_split = enabled;
        self
    }

    /// Change the XPU count (Fig 8-b sweep).
    #[must_use]
    pub fn with_xpus(mut self, xpus: usize) -> Self {
        assert!(xpus >= 1, "at least one XPU is required");
        self.xpus = xpus;
        self
    }

    /// Change the Private-A1 capacity (Fig 8-a sweep).
    #[must_use]
    pub fn with_private_a1_kb(mut self, kb: usize) -> Self {
        assert!(kb >= 1, "Private-A1 must be non-empty");
        self.private_a1_kb = kb;
        self
    }

    /// Change the VPE dataflow (§IV-B ablation).
    #[must_use]
    pub fn with_dataflow(mut self, dataflow: Dataflow) -> Self {
        self.dataflow = dataflow;
        self
    }

    /// Total VPEs in one XPU.
    pub(crate) fn vpes_per_xpu(&self) -> usize {
        self.vpe_rows * self.vpe_cols
    }

    /// Ciphertexts in flight across the chip (`rows × XPUs`) — "16
    /// bootstrapping cores" in the default configuration.
    pub fn bootstrap_cores(&self) -> usize {
        self.vpe_rows * self.xpus
    }

    /// Cycles per second.
    pub fn clock_hz(&self) -> f64 {
        self.clock_ghz * 1e9
    }

    /// Number of independent BSK multicast groups ("clusters") the XPUs
    /// form; each cluster fetches its own BSK stream.
    pub(crate) fn bsk_clusters(&self) -> usize {
        self.xpus.div_ceil(self.noc.bsk_multicast_width)
    }

    /// Total VPU MAC throughput per cycle.
    pub fn vpu_macs_per_cycle(&self) -> u64 {
        (self.vpu_groups * self.vpu_lanes_per_group * self.vpu_macs_per_lane) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_the_paper() {
        let c = ArchConfig::morphling_default();
        assert_eq!(c.bootstrap_cores(), 16);
        // Total I/FFT units on the chip (paper: 24 = 4 × (2+4)).
        assert_eq!(c.xpus * (c.ffts_per_xpu + c.iffts_per_xpu), 24);
        assert_eq!(c.vpes_per_xpu(), 16);
        assert_eq!(c.bsk_clusters(), 1);
        assert_eq!(c.hbm.channels, 8);
        assert!((c.hbm.xpu_priority_gb_s() - 77.5).abs() < 1e-9);
    }

    #[test]
    fn cluster_count_follows_multicast_width() {
        let c = ArchConfig::morphling_default();
        assert_eq!(c.clone().with_xpus(5).bsk_clusters(), 2);
        assert_eq!(c.clone().with_xpus(8).bsk_clusters(), 2);
        assert_eq!(c.with_xpus(9).bsk_clusters(), 3);
    }

    #[test]
    fn builders_update_fields() {
        let c = ArchConfig::morphling_default()
            .with_reuse(crate::ReuseMode::NoReuse)
            .with_merge_split(false)
            .with_private_a1_kb(2048);
        assert_eq!(c.reuse, crate::ReuseMode::NoReuse);
        assert!(!c.merge_split);
        assert_eq!(c.private_a1_kb, 2048);
    }
}
