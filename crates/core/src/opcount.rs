//! Analytical operation and memory model of TFHE bootstrapping — the data
//! behind the paper's Fig 1 (operation/memory breakdown) and Fig 3
//! (domain-transform reduction).
//!
//! "Operation" follows the paper's definition: a single (real)
//! multiplication. Domain-transform counts follow the CPU execution model
//! (no reuse: every polynomial product transforms its operand and its
//! result), which is how the paper's Fig 1 arrives at I/FFT ≈ 88%.

use morphling_tfhe::TfheParams;

use crate::reuse::ReuseMode;

/// Real multiplications in one `N`-point negacyclic transform (one
/// `N/2`-point complex FFT: `(N/4)·log2(N/2)` butterflies × 4).
pub(crate) fn mults_per_transform(poly_size: usize) -> u64 {
    let half = (poly_size / 2) as u64;
    (half / 2) * u64::from((poly_size as u64 / 2).trailing_zeros()) * 4
}

/// Operation counts (real multiplications) per bootstrapping stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpBreakdown {
    /// Forward/inverse transform multiplications during blind rotation.
    pub transform: u64,
    /// Pointwise (transform-domain) multiplications during blind rotation.
    pub pointwise: u64,
    /// Key-switching multiplications.
    pub key_switch: u64,
    /// Everything else: modulus switching, decomposition rounding, sample
    /// extraction (the paper lumps these as ≈1%).
    pub other: u64,
}

impl OpBreakdown {
    /// Total multiplications.
    pub fn total(&self) -> u64 {
        self.transform + self.pointwise + self.key_switch + self.other
    }
}

/// Fig 1's operation breakdown for one bootstrap on a CPU (no
/// transform-domain reuse, BSK pre-transformed).
pub fn cpu_bootstrap_ops(params: &TfheParams) -> OpBreakdown {
    let n = params.lwe_dim as u64;
    let k1 = (params.glwe_dim + 1) as u64;
    let l_b = params.bsk_decomp.level() as u64;
    let big_n = params.poly_size as u64;
    let per_transform = mults_per_transform(params.poly_size);

    // CPU (Concrete-style) external product: every one of the (k+1)²·l_b
    // polynomial products transforms its input and its output — the
    // no-reuse count of §III.
    let transforms = ReuseMode::NoReuse.transforms_per_bootstrap(
        params.lwe_dim,
        params.glwe_dim,
        params.bsk_decomp.level(),
    );
    let transform = transforms * per_transform;

    // Pointwise complex products: (k+1)²·l_b polys × N/2 points × 4 real
    // mults, per iteration.
    let pointwise = n * k1 * k1 * l_b * (big_n / 2) * 4;

    // Key switch: kN·l_k scalar×LWE accumulations of (n+1) words each.
    let key_switch =
        (params.extracted_lwe_dim() as u64) * params.ksk_decomp.level() as u64 * (n + 1);

    // Modulus switch: one multiply per mask element + body; decomposition
    // and sample extraction are shifts/moves (counted once per coefficient
    // to be conservative, like the paper's ≈1% "others").
    let other = (n + 1) + n * k1 * l_b * big_n / 8;

    OpBreakdown {
        transform,
        pointwise,
        key_switch,
        other,
    }
}

/// Memory footprint (bytes) of the bootstrapping working set, Fig 1 middle
/// panel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryBreakdown {
    /// Bootstrapping key (transform domain).
    pub bsk: u64,
    /// Key-switching key.
    pub ksk: u64,
    /// Accumulator + test polynomial + input/output LWE.
    pub working: u64,
}

/// Fig 1's memory breakdown.
pub fn bootstrap_memory(params: &TfheParams) -> MemoryBreakdown {
    MemoryBreakdown {
        bsk: params.bsk_total_bytes_fourier(),
        ksk: params.ksk_total_bytes(),
        working: 2 * params.acc_bytes()
            + (params.lwe_dim as u64 + 1) * 4
            + (params.extracted_lwe_dim() as u64 + 1) * 4,
    }
}

/// One row of the Fig 3 dataset: transform counts and reductions for a
/// parameter set mapped onto the VPE array.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fig3Row {
    /// `(k, l_b)` of the parameter set.
    pub k_lb: (usize, usize),
    /// Domain transforms per bootstrap without reuse.
    pub no_reuse: u64,
    /// With input reuse.
    pub input_reuse: u64,
    /// With input and output reuse.
    pub input_output_reuse: u64,
}

impl Fig3Row {
    /// Compute the row for one parameter set.
    pub fn for_params(params: &TfheParams) -> Self {
        let (n, k, l) = (params.lwe_dim, params.glwe_dim, params.bsk_decomp.level());
        Self {
            k_lb: (k, l),
            no_reuse: ReuseMode::NoReuse.transforms_per_bootstrap(n, k, l),
            input_reuse: ReuseMode::InputReuse.transforms_per_bootstrap(n, k, l),
            input_output_reuse: ReuseMode::InputOutputReuse.transforms_per_bootstrap(n, k, l),
        }
    }

    /// Reduction of input reuse vs no reuse (fraction).
    pub fn input_reduction(&self) -> f64 {
        1.0 - self.input_reuse as f64 / self.no_reuse as f64
    }

    /// Reduction of input+output reuse vs no reuse (fraction).
    pub fn input_output_reduction(&self) -> f64 {
        1.0 - self.input_output_reuse as f64 / self.no_reuse as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphling_tfhe::ParamSet;

    #[test]
    fn fig1_transform_share_matches_the_paper() {
        // Fig 1: I/FFT ≈ 88% of bootstrap operations at the 128-bit set.
        let ops = cpu_bootstrap_ops(&ParamSet::Fig1.params());
        let f = ops.transform as f64 / ops.total() as f64;
        assert!((0.84..0.92).contains(&f), "transform fraction {f}");
    }

    #[test]
    fn fig1_key_switch_share_is_a_few_percent() {
        // Fig 1: key switching ≈ 1.9% of operations.
        let ops = cpu_bootstrap_ops(&ParamSet::Fig1.params());
        let f = ops.key_switch as f64 / ops.total() as f64;
        assert!((0.005..0.05).contains(&f), "ks fraction {f}");
    }

    #[test]
    fn fig1_memory_matches_the_papers_order() {
        // Fig 1: BSK ≈ 101.4 MB, KSK ≈ 33.8 MB (±2× for format choices).
        let mem = bootstrap_memory(&ParamSet::Fig1.params());
        let bsk_mb = mem.bsk as f64 / 1048576.0;
        let ksk_mb = mem.ksk as f64 / 1048576.0;
        assert!((50.0..200.0).contains(&bsk_mb), "bsk {bsk_mb} MB");
        assert!((17.0..70.0).contains(&ksk_mb), "ksk {ksk_mb} MB");
    }

    #[test]
    fn fig3_rows_match_paper_values() {
        // Set C: 46752 no-reuse transforms; 37.5% / 83.3% reductions.
        let row = Fig3Row::for_params(&ParamSet::C.params());
        assert_eq!(row.no_reuse, 46_752);
        assert!((row.input_reduction() - 0.375).abs() < 1e-9);
        assert!((row.input_output_reduction() - 5.0 / 6.0).abs() < 1e-9);
        // Set A (k=1, l_b=1): 25% input-reuse reduction.
        let row = Fig3Row::for_params(&ParamSet::A.params());
        assert!((row.input_reduction() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn transform_mult_count_formula() {
        // N=1024: 512-point FFT → 256·9·4 = 9216.
        assert_eq!(mults_per_transform(1024), 9216);
    }
}
