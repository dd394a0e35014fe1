//! XPU pipeline occupancy per blind-rotation iteration (§V-A).

use morphling_tfhe::TfheParams;

use crate::config::ArchConfig;

/// Per-iteration occupancy (in cycles) of each XPU resource, for one XPU
/// processing `vpe_rows` ciphertexts concurrently.
///
/// The steady-state iteration period is the maximum occupancy: Morphling
/// is a streaming design where the double-pointer rotator keeps a constant
/// stream flowing into the pipelined FFT (§V-C), so no resource idles
/// waiting for another in steady state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IterProfile {
    /// Private-A1 read + rotate occupancy. One physical read serves both
    /// pointers (the rotated view is the same data re-ordered), so the
    /// rotator streams each ACC component once.
    pub rotator: u64,
    /// Decomposition-unit occupancy (dual-ported: ptrA and ptrB streams).
    pub decompose: u64,
    /// Forward-FFT occupancy (merge-split carries 2 polys per pass).
    pub fft: u64,
    /// VPE-array occupancy (pointwise multiply-accumulate passes).
    pub vpe: u64,
    /// Inverse-FFT occupancy.
    pub ifft: u64,
    /// Transform-domain BSK bytes consumed per iteration (per multicast
    /// cluster).
    pub bsk_bytes: u64,
}

impl IterProfile {
    /// Compute the profile for one XPU under `config` running `params`.
    pub fn compute(config: &ArchConfig, params: &TfheParams) -> Self {
        let rows = config.vpe_rows as u64;
        let k1 = (params.glwe_dim + 1) as u64;
        let l_b = params.bsk_decomp.level() as u64;
        let big_n = params.poly_size as u64;
        let lanes = config.lanes as u64;

        // A transform pass streams N/2 complex points at `lanes` per cycle.
        let pass = big_n / 2 / lanes;
        let ms_fwd = if config.merge_split { 2 } else { 1 };
        // Output reuse implies transform-domain accumulation, where the
        // merged inverse also applies; without output reuse each product is
        // inverse-transformed separately (still mergeable in pairs).
        let ms_inv = ms_fwd;

        let fwd_polys = rows
            * config
                .reuse
                .forward_transforms_per_iter(params.glwe_dim, params.bsk_decomp.level());
        let inv_polys = rows
            * config
                .reuse
                .inverse_transforms_per_iter(params.glwe_dim, params.bsk_decomp.level());

        let fft = div_ceil(fwd_polys, config.ffts_per_xpu as u64 * ms_fwd) * pass;
        let ifft = div_ceil(inv_polys, config.iffts_per_xpu as u64 * ms_inv) * pass;

        // Every (digit, BSK-column) pair is one pointwise pass on one VPE.
        let products = rows * k1 * k1 * l_b;
        let vpe = div_ceil(products, config.vpes_per_xpu() as u64) * pass;

        // The decomposition unit reads both pointer streams (2 × lanes
        // coefficients per cycle) and emits all l_b digit streams by
        // bit-slicing, so its occupancy is source-polynomial bound.
        let src_polys = rows * k1;
        let decompose =
            div_ceil(src_polys, config.decomp_units_per_xpu as u64) * (big_n / (2 * lanes));

        // One physical A1 read per ACC coefficient serves both pointers;
        // each bank's port is two vectors wide (the ptrA/ptrB pair), i.e.
        // 2×lanes coefficients per cycle — "maintaining a constant data
        // stream to pipelined-FFT on each cycle" (§V-C).
        let banks_per_xpu = (16 / config.xpus.clamp(1, 16)).max(1) as u64;
        let rotator = src_polys * big_n / (banks_per_xpu * 2 * lanes);

        // BSK_i in the transform domain: (k+1)·l_b × (k+1) polynomials at
        // N/2 points × 8 bytes.
        let bsk_bytes = k1 * l_b * k1 * (big_n / 2) * 8;

        Self {
            rotator,
            decompose,
            fft,
            vpe,
            ifft,
            bsk_bytes,
        }
    }

    /// The steady-state iteration period: the busiest resource.
    pub fn iter_cycles(&self) -> u64 {
        self.rotator
            .max(self.decompose)
            .max(self.fft)
            .max(self.vpe)
            .max(self.ifft)
    }

    /// Which resource bounds the iteration (for reports).
    pub fn bottleneck(&self) -> &'static str {
        let m = self.iter_cycles();
        if m == self.fft {
            "fft"
        } else if m == self.vpe {
            "vpe"
        } else if m == self.ifft {
            "ifft"
        } else if m == self.rotator {
            "rotator"
        } else {
            "decompose"
        }
    }
}

fn div_ceil(a: u64, b: u64) -> u64 {
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reuse::ReuseMode;
    use morphling_tfhe::ParamSet;

    fn profile(set: ParamSet) -> IterProfile {
        IterProfile::compute(&ArchConfig::morphling_default(), &set.params())
    }

    #[test]
    fn set_i_iteration_is_256_cycles_fft_bound() {
        // The number that yields Table V's 0.11 ms: 4 ct × 4 digit polys
        // over 2 merge-split FFTs = 4 passes × 64 cycles.
        let p = profile(ParamSet::I);
        assert_eq!(p.fft, 256);
        assert_eq!(p.iter_cycles(), 256);
        assert_eq!(p.bottleneck(), "fft");
    }

    #[test]
    fn paper_sets_iteration_periods() {
        // Derived in DESIGN.md §2 from Table V latencies.
        assert_eq!(profile(ParamSet::II).iter_cycles(), 384);
        assert_eq!(profile(ParamSet::III).iter_cycles(), 768);
        assert_eq!(profile(ParamSet::IV).iter_cycles(), 256);
        assert_eq!(profile(ParamSet::A).iter_cycles(), 512);
    }

    #[test]
    fn bsk_bytes_per_iteration() {
        // Set I: 8 polynomials × 4 KiB = 32 KiB.
        assert_eq!(profile(ParamSet::I).bsk_bytes, 32 * 1024);
    }

    #[test]
    fn no_reuse_needs_more_fft_time() {
        let cfg = ArchConfig::morphling_default();
        let params = ParamSet::C.params();
        let io = IterProfile::compute(&cfg, &params);
        let none = IterProfile::compute(
            &cfg.clone()
                .with_reuse(ReuseMode::NoReuse)
                .with_merge_split(false),
            &params,
        );
        assert!(none.iter_cycles() > 4 * io.iter_cycles());
    }

    #[test]
    fn merge_split_halves_fft_occupancy() {
        let cfg = ArchConfig::morphling_default();
        let params = ParamSet::B.params();
        let with = IterProfile::compute(&cfg, &params);
        let without = IterProfile::compute(&cfg.with_merge_split(false), &params);
        assert_eq!(without.fft, 2 * with.fft);
    }

    #[test]
    fn a_partial_merge_split_pass_occupies_a_whole_one() {
        // One row at Set III: 6 forward polys over 2 merge-split units is
        // 1.5 passes of N/2/lanes = 128 cycles, so 2; 3 without merge-split.
        let cfg = ArchConfig {
            vpe_rows: 1,
            ..ArchConfig::morphling_default()
        };
        let params = ParamSet::III.params();
        assert_eq!(IterProfile::compute(&cfg, &params).fft, 2 * 128);
        let without = IterProfile::compute(&cfg.with_merge_split(false), &params);
        assert_eq!(without.fft, 3 * 128);
    }

    #[test]
    fn vpe_occupancy_counts_all_products() {
        // Set C: 4 rows × 48 products = 192 over 16 VPEs = 12 passes × 32.
        let p = profile(ParamSet::C);
        assert_eq!(p.vpe, 12 * 32);
    }
}
