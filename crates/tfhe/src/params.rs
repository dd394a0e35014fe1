//! TFHE parameter sets (Table III of the paper, plus fast test sets).
//!
//! The paper specifies `(N, n, k, l_b, λ)` per set and `l_k = 9` for the
//! Fig 1 configuration. It does not publish decomposition bases or noise
//! standard deviations; we take conventional values from the
//! TFHE/Concrete lineage and record them here (see `DESIGN.md` §12).
//! Latency/throughput experiments depend only on `(N, n, k, l_b, l_k)`;
//! correctness tests depend on the rest and pass with these choices.

use morphling_math::DecompParams;

/// Full parameterization of a TFHE instance.
#[derive(Clone, Debug, PartialEq)]
pub struct TfheParams {
    /// Human-readable name (e.g. `"I"`, `"B"`, `"TEST"`).
    pub name: &'static str,
    /// GLWE polynomial size `N`.
    pub poly_size: usize,
    /// LWE dimension `n` (number of blind-rotation iterations).
    pub lwe_dim: usize,
    /// GLWE dimension `k`.
    pub glwe_dim: usize,
    /// Gadget decomposition for the bootstrapping key (base `β`, level `l_b`).
    pub bsk_decomp: DecompParams,
    /// Gadget decomposition for the key-switching key (base, level `l_k`).
    pub ksk_decomp: DecompParams,
    /// LWE noise standard deviation (fraction of the torus).
    pub lwe_noise_std: f64,
    /// GLWE noise standard deviation (fraction of the torus).
    pub glwe_noise_std: f64,
    /// Default plaintext modulus `p` for integer messages (with one bit of
    /// padding; messages live in `[0, p)` encoded into the half-torus).
    pub plaintext_modulus: u64,
    /// Claimed security level in bits (from the paper; informational).
    pub security_bits: u32,
    /// Whether bootstrapping is *functionally* reliable on the 32-bit torus
    /// with these parameters. Sets IV and A use `l_b = 1`, which the paper
    /// evaluates for performance only; on a 32-bit torus their noise budget
    /// is too tight for dependable decryption, so correctness tests skip
    /// them (see DESIGN.md §12).
    pub functional: bool,
}

impl TfheParams {
    /// Number of mask elements after sample extraction (`k·N`), i.e. the
    /// input dimension of the key switch.
    pub fn extracted_lwe_dim(&self) -> usize {
        self.glwe_dim * self.poly_size
    }

    /// `2N`, the modulus the blind rotation switches exponents into.
    pub fn two_n(&self) -> u64 {
        2 * self.poly_size as u64
    }

    /// Polynomial multiplications in one external product:
    /// `(k+1)² · l_b` (§II-B).
    pub(crate) fn polymuls_per_external_product(&self) -> u64 {
        let k1 = (self.glwe_dim + 1) as u64;
        k1 * k1 * self.bsk_decomp.level() as u64
    }

    /// Polynomial multiplications in one full bootstrap
    /// (`n` external products).
    pub fn polymuls_per_bootstrap(&self) -> u64 {
        self.lwe_dim as u64 * self.polymuls_per_external_product()
    }

    /// Size of one `BSK_i` (a single GGSW) in bytes, with coefficients
    /// stored in the *transform domain* as 64-bit complex points — the
    /// format Private-A2 holds (§V-A): `(k+1)·l_b × (k+1)` polynomials at
    /// `N/2` points × 8 bytes.
    pub fn bsk_iter_bytes_fourier(&self) -> u64 {
        let k1 = (self.glwe_dim + 1) as u64;
        let rows = k1 * self.bsk_decomp.level() as u64;
        rows * k1 * (self.poly_size as u64 / 2) * 8
    }

    /// Total bootstrapping-key bytes in the transform domain.
    pub fn bsk_total_bytes_fourier(&self) -> u64 {
        self.lwe_dim as u64 * self.bsk_iter_bytes_fourier()
    }

    /// Total key-switching-key bytes: `kN × l_k` LWE ciphertexts of
    /// `(n+1)` 32-bit words.
    pub fn ksk_total_bytes(&self) -> u64 {
        (self.extracted_lwe_dim() as u64)
            * self.ksk_decomp.level() as u64
            * (self.lwe_dim as u64 + 1)
            * 4
    }

    /// Bytes of one ACC ciphertext (a GLWE: `(k+1)` polynomials of `N`
    /// 32-bit coefficients).
    pub fn acc_bytes(&self) -> u64 {
        (self.glwe_dim as u64 + 1) * self.poly_size as u64 * 4
    }

    /// Return a copy with a different default plaintext modulus.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a power of two ≥ 2.
    #[must_use]
    pub fn with_plaintext_modulus(mut self, p: u64) -> Self {
        assert!(
            p.is_power_of_two() && p >= 2,
            "plaintext modulus must be a power of two ≥ 2"
        );
        self.plaintext_modulus = p;
        self
    }
}

/// Named parameter sets: the paper's Table III (I–IV, A–C), the Fig 1
/// configuration, and fast test sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ParamSet {
    /// Set I: N=1024, n=500, k=1, l_b=2 — 80-bit.
    I,
    /// Set II: N=1024, n=630, k=1, l_b=3 — 110-bit.
    II,
    /// Set III: N=2048, n=592, k=1, l_b=3 — 128-bit.
    III,
    /// Set IV: N=2048, n=742, k=1, l_b=1 — 128-bit (performance-only).
    IV,
    /// Set A: N=4096, n=769, k=1, l_b=1 — 128-bit (performance-only).
    A,
    /// Set B: N=1024, n=497, k=2, l_b=2 — 128-bit.
    B,
    /// Set C: N=512, n=487, k=3, l_b=3 — 128-bit.
    C,
    /// The Fig 1 configuration: N=1024, n=481, k=2, l_b=4, l_k=9 — 128-bit.
    Fig1,
    /// Fast test set: N=256, n=16, k=1 — no security, quick unit tests.
    Test,
    /// Medium test set: N=512, n=64, k=2 — no security, integration tests.
    TestMedium,
}

/// Every Table III set, in paper order (I, II, III, IV, A, B, C).
pub const ALL_PAPER_SETS: [ParamSet; 7] = [
    ParamSet::I,
    ParamSet::II,
    ParamSet::III,
    ParamSet::IV,
    ParamSet::A,
    ParamSet::B,
    ParamSet::C,
];

impl ParamSet {
    /// Materialize the full parameter record.
    pub fn params(self) -> TfheParams {
        match self {
            ParamSet::I => TfheParams {
                name: "I",
                poly_size: 1024,
                lwe_dim: 500,
                glwe_dim: 1,
                bsk_decomp: DecompParams::new(8, 2),
                ksk_decomp: DecompParams::new(5, 3),
                lwe_noise_std: 2f64.powi(-17),
                glwe_noise_std: 2f64.powi(-27),
                plaintext_modulus: 4,
                security_bits: 80,
                functional: true,
            },
            ParamSet::II => TfheParams {
                name: "II",
                poly_size: 1024,
                lwe_dim: 630,
                glwe_dim: 1,
                bsk_decomp: DecompParams::new(7, 3),
                ksk_decomp: DecompParams::new(5, 3),
                lwe_noise_std: 2f64.powi(-16),
                glwe_noise_std: 2f64.powi(-26),
                plaintext_modulus: 4,
                security_bits: 110,
                functional: true,
            },
            ParamSet::III => TfheParams {
                name: "III",
                poly_size: 2048,
                lwe_dim: 592,
                glwe_dim: 1,
                bsk_decomp: DecompParams::new(8, 3),
                ksk_decomp: DecompParams::new(5, 3),
                lwe_noise_std: 2f64.powi(-17),
                glwe_noise_std: 2f64.powi(-28),
                plaintext_modulus: 8,
                security_bits: 128,
                functional: true,
            },
            ParamSet::IV => TfheParams {
                name: "IV",
                poly_size: 2048,
                lwe_dim: 742,
                glwe_dim: 1,
                bsk_decomp: DecompParams::new(16, 1),
                ksk_decomp: DecompParams::new(5, 3),
                lwe_noise_std: 2f64.powi(-17),
                glwe_noise_std: 2f64.powi(-30),
                plaintext_modulus: 4,
                security_bits: 128,
                functional: false,
            },
            ParamSet::A => TfheParams {
                name: "A",
                poly_size: 4096,
                lwe_dim: 769,
                glwe_dim: 1,
                bsk_decomp: DecompParams::new(16, 1),
                ksk_decomp: DecompParams::new(5, 3),
                lwe_noise_std: 2f64.powi(-17),
                glwe_noise_std: 2f64.powi(-30),
                plaintext_modulus: 4,
                security_bits: 128,
                functional: false,
            },
            ParamSet::B => TfheParams {
                name: "B",
                poly_size: 1024,
                lwe_dim: 497,
                glwe_dim: 2,
                bsk_decomp: DecompParams::new(8, 2),
                ksk_decomp: DecompParams::new(5, 3),
                lwe_noise_std: 2f64.powi(-16),
                glwe_noise_std: 2f64.powi(-27),
                plaintext_modulus: 4,
                security_bits: 128,
                functional: true,
            },
            ParamSet::C => TfheParams {
                name: "C",
                poly_size: 512,
                lwe_dim: 487,
                glwe_dim: 3,
                bsk_decomp: DecompParams::new(7, 3),
                ksk_decomp: DecompParams::new(5, 3),
                lwe_noise_std: 2f64.powi(-16),
                glwe_noise_std: 2f64.powi(-26),
                plaintext_modulus: 4,
                security_bits: 128,
                functional: true,
            },
            ParamSet::Fig1 => TfheParams {
                name: "FIG1",
                poly_size: 1024,
                lwe_dim: 481,
                glwe_dim: 2,
                bsk_decomp: DecompParams::new(6, 4),
                ksk_decomp: DecompParams::new(2, 9),
                lwe_noise_std: 2f64.powi(-15),
                glwe_noise_std: 2f64.powi(-26),
                plaintext_modulus: 4,
                security_bits: 128,
                functional: true,
            },
            ParamSet::Test => TfheParams {
                name: "TEST",
                poly_size: 256,
                lwe_dim: 16,
                glwe_dim: 1,
                bsk_decomp: DecompParams::new(6, 3),
                ksk_decomp: DecompParams::new(3, 4),
                lwe_noise_std: 2f64.powi(-20),
                glwe_noise_std: 2f64.powi(-28),
                plaintext_modulus: 4,
                security_bits: 0,
                functional: true,
            },
            ParamSet::TestMedium => TfheParams {
                name: "TEST-M",
                poly_size: 512,
                lwe_dim: 64,
                glwe_dim: 2,
                bsk_decomp: DecompParams::new(6, 3),
                ksk_decomp: DecompParams::new(3, 4),
                lwe_noise_std: 2f64.powi(-20),
                glwe_noise_std: 2f64.powi(-28),
                plaintext_modulus: 8,
                security_bits: 0,
                functional: true,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TfheParams {
        /// Return a copy with all noise disabled — deterministic pipelines
        /// for tests.
        #[must_use]
        pub(crate) fn noiseless(mut self) -> Self {
            self.lwe_noise_std = 0.0;
            self.glwe_noise_std = 0.0;
            self
        }
    }

    #[test]
    fn table_iii_dimensions_match_the_paper() {
        let expect = [
            ("I", 1024, 500, 1, 2, 80),
            ("II", 1024, 630, 1, 3, 110),
            ("III", 2048, 592, 1, 3, 128),
            ("IV", 2048, 742, 1, 1, 128),
            ("A", 4096, 769, 1, 1, 128),
            ("B", 1024, 497, 2, 2, 128),
            ("C", 512, 487, 3, 3, 128),
        ];
        for (set, (name, big_n, n, k, lb, lambda)) in ALL_PAPER_SETS.iter().zip(expect) {
            let p = set.params();
            assert_eq!(p.name, name);
            assert_eq!(p.poly_size, big_n);
            assert_eq!(p.lwe_dim, n);
            assert_eq!(p.glwe_dim, k);
            assert_eq!(p.bsk_decomp.level(), lb);
            assert_eq!(p.security_bits, lambda);
        }
    }

    #[test]
    fn fig1_set_matches_the_caption() {
        // Fig 1 caption: N=1024, n=481, k=2, l_b=4, l_k=9.
        let p = ParamSet::Fig1.params();
        assert_eq!((p.poly_size, p.lwe_dim, p.glwe_dim), (1024, 481, 2));
        assert_eq!(p.bsk_decomp.level(), 4);
        assert_eq!(p.ksk_decomp.level(), 9);
    }

    #[test]
    fn bootstrap_polymul_count_exceeds_ten_thousand_at_128_bit() {
        // The paper's headline: ">10,000 polynomial multiplications" for a
        // single 128-bit bootstrap (its Fig 1 configuration; also true of
        // the higher-k set C).
        for set in [ParamSet::C, ParamSet::Fig1] {
            let p = set.params();
            assert!(
                p.polymuls_per_bootstrap() > 10_000,
                "{}: {}",
                p.name,
                p.polymuls_per_bootstrap()
            );
        }
    }

    #[test]
    fn fig1_memory_footprints_match_the_papers_order() {
        // Fig 1 reports BSK ≈ 101.4 MB and KSK ≈ 33.8 MB for the 128-bit
        // set. Exact bytes depend on the storage format; check the order of
        // magnitude with our fourier format (±2×).
        let p = ParamSet::Fig1.params();
        let bsk_mb = p.bsk_total_bytes_fourier() as f64 / (1024.0 * 1024.0);
        let ksk_mb = p.ksk_total_bytes() as f64 / (1024.0 * 1024.0);
        assert!((50.0..200.0).contains(&bsk_mb), "bsk = {bsk_mb} MB");
        assert!((17.0..70.0).contains(&ksk_mb), "ksk = {ksk_mb} MB");
    }

    #[test]
    fn decomposition_fits_the_32_bit_torus() {
        for set in ALL_PAPER_SETS
            .iter()
            .chain([ParamSet::Fig1, ParamSet::Test].iter())
        {
            let p = set.params();
            assert!(p.bsk_decomp.total_bits() <= 32, "{}", p.name);
            assert!(p.ksk_decomp.total_bits() <= 32, "{}", p.name);
        }
    }

    #[test]
    fn noiseless_builder_zeroes_noise() {
        let p = ParamSet::Test.params().noiseless();
        assert_eq!(p.lwe_noise_std, 0.0);
        assert_eq!(p.glwe_noise_std, 0.0);
    }

    #[test]
    fn external_product_polymul_count() {
        // (k+1)^2 l_b: set C (k=3, l_b=3) → 48.
        assert_eq!(ParamSet::C.params().polymuls_per_external_product(), 48);
    }
}
