//! Key switching (Algorithm 1, line 6) — the memory-intensive stage the
//! paper assigns to the VPU with prioritized HBM channels (§IV-C): a pure
//! stream over the key, which is why the key is one flat buffer in the
//! order the switch reads it and a chunk of ciphertexts shares each pass.

use morphling_math::{DecompParams, SignedDecomposer, Torus32, TorusScalar};
use morphling_transform::sub_scaled_rows;
use rand::Rng;

use crate::error::TfheError;
use crate::keys::LweSecretKey;
use crate::lwe::LweCiphertext;
use crate::params::TfheParams;

/// A key-switching key: `dim_in × l_k` LWE ciphertexts under the output
/// key, where `KSK_(i,j)` encrypts `s_in_i · q/β^(j+1)`.
#[derive(Clone, Debug)]
pub struct KeySwitchKey {
    /// Every `KSK_(i,j)` as `dim_out + 1` words, mask then body, in
    /// streaming order `[i][j]` — byte for byte the wire payload.
    words: Vec<Torus32>,
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
        let base_log = params.ksk_decomp.base_log();
        let l = params.ksk_decomp.level();
        let mut words = Vec::with_capacity(key_in.dim() * l * (key_out.dim() + 1));
        for &s in key_in.bits() {
            for j in 0..l {
                let g = Torus32::from_raw(1u32 << (32 - base_log * (j as u32 + 1)));
                let ct =
                    LweCiphertext::encrypt(g.scalar_mul(s), key_out, params.lwe_noise_std, rng);
                words.extend_from_slice(ct.mask());
                words.push(ct.body());
            }
        }
        Self {
            words,
            decomposer: SignedDecomposer::new(params.ksk_decomp),
            dim_out: key_out.dim(),
        }
    }

    /// The decoder's key: no words until it fills
    /// [`words_mut`](Self::words_mut).
    pub(crate) fn empty(decomp: DecompParams, dim_out: usize) -> Self {
        Self {
            words: Vec::new(),
            decomposer: SignedDecomposer::new(decomp),
            dim_out,
        }
    }

    /// `KSK_(i,j)` — input mask `i`, level `j` — as `dim_out` mask words
    /// followed by the body.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim_in()` or `j >= level()`.
    pub fn row(&self, i: usize, j: usize) -> &[Torus32] {
        assert!(j < self.level(), "KSK level {j} out of range");
        let width = self.dim_out + 1;
        &self.words[(i * self.level() + j) * width..][..width]
    }

    /// The whole key in streaming order: [`row`](Self::row)`(0, 0)`,
    /// `(0, 1)`, … back to back.
    pub(crate) fn words(&self) -> &[Torus32] {
        &self.words
    }

    /// The flat key, for the decoder to refill in place with a whole
    /// number of rows.
    pub(crate) fn words_mut(&mut self) -> &mut Vec<Torus32> {
        &mut self.words
    }

    /// The decomposition parameters (base log + level).
    pub fn decomp_params(&self) -> DecompParams {
        self.decomposer.params()
    }

    /// Input dimension (`k·N` for a post-extraction switch).
    pub fn dim_in(&self) -> usize {
        self.words.len() / (self.level() * (self.dim_out + 1))
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
        self.words.len() as u64 * 4
    }

    /// Switch `ct` (under `key_in`) to the output key:
    /// `c'' = (0, …, 0, b) − Σ_i Σ_j ⟨a_i⟩_j · KSK_(i,j)`.
    ///
    /// # Panics
    ///
    /// Panics if `ct.dim() != dim_in()`;
    /// [`try_key_switch_many`](Self::try_key_switch_many) returns a
    /// `Result`.
    pub fn key_switch(&self, ct: &LweCiphertext) -> LweCiphertext {
        match self.try_key_switch(ct) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`key_switch`](Self::key_switch): a chunk of one through
    /// [`try_key_switch_many`](Self::try_key_switch_many).
    ///
    /// # Errors
    ///
    /// [`TfheError::KeySwitchDimensionMismatch`] if `ct.dim() != dim_in()`.
    pub(crate) fn try_key_switch(&self, ct: &LweCiphertext) -> Result<LweCiphertext, TfheError> {
        let mut out = self.try_key_switch_many(std::slice::from_ref(ct))?;
        Ok(out.swap_remove(0))
    }

    /// Switch a chunk of ciphertexts in one pass over the key, row outer
    /// and ciphertext inner: each `KSK_(i,j)` is fetched once and
    /// subtracted, scaled by that ciphertext's digit, from every
    /// accumulator of the chunk while it is in cache — the key-side twin of
    /// the chunk's `BSK_i` reuse. Torus arithmetic wraps exactly, so every
    /// output is bit-identical to switching its ciphertext alone.
    ///
    /// # Errors
    ///
    /// [`TfheError::KeySwitchDimensionMismatch`] for the first ciphertext
    /// with `dim() != dim_in()`; nothing is switched then.
    pub fn try_key_switch_many(
        &self,
        cts: &[LweCiphertext],
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        if let Some(bad) = cts.iter().find(|ct| ct.dim() != self.dim_in()) {
            return Err(TfheError::KeySwitchDimensionMismatch {
                expected: self.dim_in(),
                got: bad.dim(),
            });
        }
        if cts.is_empty() {
            return Ok(Vec::new());
        }
        let (l, width) = (self.level(), self.dim_out + 1);
        // One accumulator per ciphertext, back to back, starting from
        // `(0, …, 0, b)`.
        let mut outs = vec![Torus32::ZERO; cts.len() * width];
        for (out, ct) in outs.chunks_exact_mut(width).zip(cts) {
            out[self.dim_out] = ct.body();
        }
        // The chunk's digits of input mask `i`, level-major.
        let mut digits = vec![0i32; l * cts.len()];
        let mut of_one = [0i64; Torus32::BITS as usize];
        let of_one = &mut of_one[..l];
        for (i, rows) in self.words.chunks_exact(l * width).enumerate() {
            for (c, ct) in cts.iter().enumerate() {
                self.decomposer.decompose_scalar_into(ct.mask()[i], of_one);
                for (j, &d) in of_one.iter().enumerate() {
                    // Balanced digits lie in [−β/2, β/2) with β ≤ 2³².
                    digits[j * cts.len() + c] = d as i32;
                }
            }
            sub_scaled_rows(&mut outs, &digits, rows, width);
        }
        Ok(outs
            .chunks_exact(width)
            .map(|out| LweCiphertext::from_parts(out[..self.dim_out].to_vec(), out[self.dim_out]))
            .collect())
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

    /// `c'' = (0, …, 0, b) − Σ_i Σ_j ⟨a_i⟩_j · KSK_(i,j)`, spelled with
    /// whole-ciphertext operations in that order.
    fn by_ciphertext_algebra(ksk: &KeySwitchKey, ct: &LweCiphertext) -> LweCiphertext {
        let n = ksk.dim_out();
        let mut want = LweCiphertext::trivial(ct.body(), n);
        for (i, a_i) in ct.mask().iter().enumerate() {
            for (j, d) in ksk.decomposer.decompose_scalar(*a_i).iter().enumerate() {
                let row = ksk.row(i, j);
                let ksk_ij = LweCiphertext::from_parts(row[..n].to_vec(), row[n]);
                want = want.sub(&ksk_ij.scalar_mul(*d));
            }
        }
        want
    }

    #[test]
    fn in_place_accumulation_equals_the_ciphertext_algebra() {
        let mut rng = StdRng::seed_from_u64(54);
        let params = ParamSet::TestMedium.params();
        let key_in = LweSecretKey::generate(96, &mut rng);
        let key_out = LweSecretKey::generate(params.lwe_dim, &mut rng);
        let ksk = KeySwitchKey::generate(&key_in, &key_out, &params, &mut rng);
        let ct = LweCiphertext::encrypt(Torus32::encode(3, 8), &key_in, 0.0, &mut rng);
        assert_eq!(ksk.key_switch(&ct), by_ciphertext_algebra(&ksk, &ct));
    }

    #[test]
    fn a_chunk_switches_like_its_ciphertexts_one_by_one() {
        // Rows of 593 words (the paper sets' n + 1: odd, so every vector
        // width leaves a tail) and of 3 (shorter than any vector); masks
        // built from the digits where the balanced decomposition turns —
        // 0, ±1, −β/2, and β/2, which carries into the level above — then
        // random ones. The kernel itself is checked per ISA in
        // `morphling_transform`; this is the loop around it.
        let mut rng = StdRng::seed_from_u64(55);
        let params = ParamSet::Test.params();
        let beta = params.ksk_decomp.base() as i64;
        let level = params.ksk_decomp.level();
        let turning = [0, 1, -1, -beta / 2, beta / 2];
        let key_in = LweSecretKey::generate(40, &mut rng);
        for dim_out in [592usize, 2] {
            let key_out = LweSecretKey::generate(dim_out, &mut rng);
            let ksk = KeySwitchKey::generate(&key_in, &key_out, &params, &mut rng);
            assert_eq!(
                (ksk.dim_in(), ksk.dim_out(), ksk.level()),
                (40, dim_out, level)
            );
            let cts: Vec<LweCiphertext> = (0..5usize)
                .map(|c| {
                    let mask = (0..key_in.dim())
                        .map(|i| match c {
                            0..=2 => {
                                let digits: Vec<i64> = (0..level)
                                    .map(|j| turning[(i + c * j + j) % turning.len()])
                                    .collect();
                                ksk.decomposer.recompose_scalar(&digits)
                            }
                            _ => morphling_math::sampling::uniform_torus(&mut rng),
                        })
                        .collect();
                    LweCiphertext::from_parts(mask, Torus32::encode(c as u64, 8))
                })
                .collect();
            let seen: std::collections::BTreeSet<i64> = cts
                .iter()
                .flat_map(|ct| ct.mask())
                .flat_map(|a| ksk.decomposer.decompose_scalar(*a))
                .collect();
            assert!([0, 1, -1, -beta / 2].iter().all(|d| seen.contains(d)));
            let chunk = ksk.try_key_switch_many(&cts).unwrap();
            assert_eq!(chunk.len(), cts.len());
            for (c, (ct, out)) in cts.iter().zip(&chunk).enumerate() {
                assert_eq!(out, &ksk.key_switch(ct), "dim_out={dim_out} c={c}");
                assert_eq!(
                    out,
                    &by_ciphertext_algebra(&ksk, ct),
                    "dim_out={dim_out} c={c}"
                );
            }
        }
    }

    #[test]
    fn a_chunk_with_a_misfit_switches_nothing_and_an_empty_one_is_empty() {
        let mut rng = StdRng::seed_from_u64(56);
        let params = ParamSet::Test.params();
        let key_in = LweSecretKey::generate(16, &mut rng);
        let key_out = LweSecretKey::generate(8, &mut rng);
        let ksk = KeySwitchKey::generate(&key_in, &key_out, &params, &mut rng);
        let good = LweCiphertext::trivial(Torus32::ZERO, 16);
        let bad = LweCiphertext::trivial(Torus32::ZERO, 15);
        assert_eq!(
            ksk.try_key_switch_many(&[good, bad]).unwrap_err(),
            TfheError::KeySwitchDimensionMismatch {
                expected: 16,
                got: 15
            }
        );
        assert_eq!(ksk.try_key_switch_many(&[]).unwrap(), Vec::new());
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
