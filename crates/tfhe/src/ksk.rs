//! Key switching (Algorithm 1, line 6) — the memory-intensive stage the
//! paper assigns to the VPU with prioritized HBM channels (§IV-C).

use morphling_math::{SignedDecomposer, Torus32, TorusScalar};
use rand::Rng;

use crate::error::TfheError;
use crate::keys::LweSecretKey;
use crate::lwe::LweCiphertext;
use crate::params::TfheParams;

/// A key-switching key: `dim_in × l_k` LWE ciphertexts under the output
/// key, where `KSK_(i,j)` encrypts `s_in_i · q/β^(j+1)`.
#[derive(Clone, Debug)]
pub struct KeySwitchKey {
    /// `rows[i][j]` = KSK for input mask `i`, level `j`.
    rows: Vec<Vec<LweCiphertext>>,
    decomposer: SignedDecomposer<Torus32>,
    dim_out: usize,
}

impl KeySwitchKey {
    /// Generate a KSK from `key_in` (e.g. the extracted `k·N` key) to
    /// `key_out` (the original LWE key), using `params.ksk_decomp` and the
    /// LWE noise level.
    pub fn generate<R: Rng + ?Sized>(
        key_in: &LweSecretKey,
        key_out: &LweSecretKey,
        params: &TfheParams,
        rng: &mut R,
    ) -> Self {
        let decomposer = SignedDecomposer::new(params.ksk_decomp);
        let base_log = params.ksk_decomp.base_log();
        let l = params.ksk_decomp.level();
        let rows = key_in
            .bits()
            .iter()
            .map(|&s| {
                (0..l)
                    .map(|j| {
                        let g = Torus32::from_raw(1u32 << (32 - base_log * (j as u32 + 1)));
                        LweCiphertext::encrypt(g.scalar_mul(s), key_out, params.lwe_noise_std, rng)
                    })
                    .collect()
            })
            .collect();
        Self {
            rows,
            decomposer,
            dim_out: key_out.dim(),
        }
    }

    /// Rebuild from explicit rows (deserialization path).
    ///
    /// # Panics
    ///
    /// Panics if any row's level count or ciphertext dimension disagrees
    /// with `decomp`/`dim_out`.
    pub fn from_rows(
        rows: Vec<Vec<LweCiphertext>>,
        decomp: morphling_math::DecompParams,
        dim_out: usize,
    ) -> Self {
        assert!(
            rows.iter()
                .all(|r| r.len() == decomp.level() && r.iter().all(|c| c.dim() == dim_out)),
            "KSK row shape mismatch"
        );
        Self {
            rows,
            decomposer: SignedDecomposer::new(decomp),
            dim_out,
        }
    }

    /// The KSK rows: `rows()[i][j]` is input mask `i`, level `j`.
    pub fn rows(&self) -> &[Vec<LweCiphertext>] {
        &self.rows
    }

    /// The decomposition parameters (base log + level).
    pub fn decomp_params(&self) -> morphling_math::DecompParams {
        self.decomposer.params()
    }

    /// Input dimension (`k·N` for a post-extraction switch).
    pub fn dim_in(&self) -> usize {
        self.rows.len()
    }

    /// Output dimension `n`.
    pub fn dim_out(&self) -> usize {
        self.dim_out
    }

    /// Decomposition level `l_k`.
    pub fn level(&self) -> usize {
        self.decomposer.params().level()
    }

    /// Total size in bytes (`dim_in · l_k · (dim_out+1)` 32-bit words) —
    /// the KSK traffic the paper's DMA prioritization is about.
    pub fn bytes(&self) -> u64 {
        (self.dim_in() as u64) * (self.level() as u64) * (self.dim_out as u64 + 1) * 4
    }

    /// Switch `ct` (under `key_in`) to the output key:
    /// `c'' = (0, …, 0, b) − Σ_i Σ_j ⟨a_i⟩_j · KSK_(i,j)`.
    ///
    /// # Panics
    ///
    /// Panics if `ct.dim() != dim_in()`; use
    /// [`try_key_switch`](Self::try_key_switch) for a `Result`.
    pub fn key_switch(&self, ct: &LweCiphertext) -> LweCiphertext {
        match self.try_key_switch(ct) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`key_switch`](Self::key_switch).
    ///
    /// # Errors
    ///
    /// [`TfheError::KeySwitchDimensionMismatch`] if `ct.dim() != dim_in()`.
    pub fn try_key_switch(&self, ct: &LweCiphertext) -> Result<LweCiphertext, TfheError> {
        if ct.dim() != self.dim_in() {
            return Err(TfheError::KeySwitchDimensionMismatch {
                expected: self.dim_in(),
                got: ct.dim(),
            });
        }
        // Accumulated in place, `out −= d·KSK_(i,j)` word by word: the
        // output is the only allocation.
        let mut mask = vec![Torus32::ZERO; self.dim_out];
        let mut body = ct.body();
        let mut digits = [0i64; Torus32::BITS as usize];
        let digits = &mut digits[..self.level()];
        for (a_i, row) in ct.mask().iter().zip(&self.rows) {
            self.decomposer.decompose_scalar_into(*a_i, digits);
            for (&d, ksk_ij) in digits.iter().zip(row) {
                if d != 0 {
                    for (o, k) in mask.iter_mut().zip(ksk_ij.mask()) {
                        *o -= k.scalar_mul(d);
                    }
                    body -= ksk_ij.body().scalar_mul(d);
                }
            }
        }
        Ok(LweCiphertext::from_parts(mask, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSet;
    use morphling_math::TorusScalar;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn key_switch_preserves_the_message() {
        let mut rng = StdRng::seed_from_u64(50);
        let params = ParamSet::Test.params();
        let key_in = LweSecretKey::generate(256, &mut rng);
        let key_out = LweSecretKey::generate(params.lwe_dim, &mut rng);
        let ksk = KeySwitchKey::generate(&key_in, &key_out, &params, &mut rng);
        for m in 0..4u64 {
            let mu = Torus32::encode(m, 8);
            let ct = LweCiphertext::encrypt(mu, &key_in, params.lwe_noise_std, &mut rng);
            let switched = ksk.key_switch(&ct);
            assert_eq!(switched.dim(), params.lwe_dim);
            assert_eq!(key_out.phase(&switched).decode(8), m, "m={m}");
        }
    }

    #[test]
    fn in_place_accumulation_equals_the_ciphertext_algebra() {
        // c'' = (0, …, 0, b) − Σ_i Σ_j ⟨a_i⟩_j · KSK_(i,j), spelled with
        // whole-ciphertext operations in the same order.
        let mut rng = StdRng::seed_from_u64(54);
        let params = ParamSet::TestMedium.params();
        let key_in = LweSecretKey::generate(96, &mut rng);
        let key_out = LweSecretKey::generate(params.lwe_dim, &mut rng);
        let ksk = KeySwitchKey::generate(&key_in, &key_out, &params, &mut rng);
        let ct = LweCiphertext::encrypt(Torus32::encode(3, 8), &key_in, 0.0, &mut rng);
        let mut want = LweCiphertext::trivial(ct.body(), ksk.dim_out());
        for (a_i, row) in ct.mask().iter().zip(ksk.rows()) {
            for (d, ksk_ij) in ksk.decomposer.decompose_scalar(*a_i).iter().zip(row) {
                want = want.sub(&ksk_ij.scalar_mul(*d));
            }
        }
        assert_eq!(ksk.key_switch(&ct), want);
    }

    #[test]
    fn key_switch_noise_is_bounded() {
        let mut rng = StdRng::seed_from_u64(51);
        let params = ParamSet::Test.params();
        let key_in = LweSecretKey::generate(256, &mut rng);
        let key_out = LweSecretKey::generate(params.lwe_dim, &mut rng);
        let ksk = KeySwitchKey::generate(&key_in, &key_out, &params, &mut rng);
        let mu = Torus32::from_f64(0.25);
        let mut worst = 0.0f64;
        for _ in 0..20 {
            let ct = LweCiphertext::encrypt(mu, &key_in, params.lwe_noise_std, &mut rng);
            let err = (key_out.phase(&ksk.key_switch(&ct)) - mu)
                .to_f64_signed()
                .abs();
            worst = worst.max(err);
        }
        // Decomposition keeps 12 bits (base 2^3, l=4): rounding error alone
        // is ≤ 256·2^-13; noise adds a little more.
        assert!(worst < 0.05, "worst error {worst}");
    }

    #[test]
    fn ksk_bytes_formula() {
        let mut rng = StdRng::seed_from_u64(52);
        let params = ParamSet::Test.params();
        let key_in = LweSecretKey::generate(params.extracted_lwe_dim(), &mut rng);
        let key_out = LweSecretKey::generate(params.lwe_dim, &mut rng);
        let ksk = KeySwitchKey::generate(&key_in, &key_out, &params, &mut rng);
        assert_eq!(ksk.bytes(), params.ksk_total_bytes());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_wrong_input_dimension() {
        let mut rng = StdRng::seed_from_u64(53);
        let params = ParamSet::Test.params();
        let key_in = LweSecretKey::generate(64, &mut rng);
        let key_out = LweSecretKey::generate(params.lwe_dim, &mut rng);
        let ksk = KeySwitchKey::generate(&key_in, &key_out, &params, &mut rng);
        let ct = LweCiphertext::trivial(Torus32::ZERO, 32);
        let _ = ksk.key_switch(&ct);
    }
}
