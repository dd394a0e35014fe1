//! Functional + timed co-simulation: execute a *real* programmable
//! bootstrap through the XPU's dataflow — double-pointer rotator reads,
//! decomposition, merge-split forward FFT, VPE multiply-accumulate in the
//! transform domain, paired IFFT — while charging cycles from the
//! iteration profile. The result is verified bit-for-bit against the
//! reference TFHE engine by the tests, which is the strongest form of
//! "the simulator models the machine that computes the right answer".

use morphling_tfhe::{
    modulus_switch, sample_extract, BootstrapKey, ExternalProductEngine, GlweCiphertext, Lut,
    LweCiphertext, TfheParams,
};

use crate::config::ArchConfig;
use crate::sim::buffers::RotatorBuffer;
use crate::sim::xpu::IterProfile;

/// The outcome of one co-simulated bootstrap.
#[derive(Clone, Debug)]
pub struct CosimResult {
    /// The extracted LWE ciphertext (under the `k·N` key; key switching is
    /// the VPU's job and uses the ordinary functional path).
    pub extracted: LweCiphertext,
    /// Cycles charged to the XPU pipeline (`n × iter_cycles` — every
    /// iteration streams through the pipeline even when `ã_i = 0`).
    pub xpu_cycles: u64,
    /// Blind-rotation iterations executed functionally (those with
    /// `ã_i ≠ 0`).
    pub active_iterations: u64,
}

/// The co-simulator: one XPU slice running one ciphertext's blind rotation
/// with the hardware dataflow.
#[derive(Debug)]
pub struct XpuCosim {
    config: ArchConfig,
    engine: ExternalProductEngine,
}

impl XpuCosim {
    /// Build a co-simulator for `config` at `params`' polynomial size.
    pub fn new(config: ArchConfig, params: &TfheParams) -> Self {
        let engine = ExternalProductEngine::new(params);
        Self { config, engine }
    }

    /// Run modulus switch → blind rotation → sample extraction through the
    /// hardware dataflow, charging cycles.
    ///
    /// # Panics
    ///
    /// Panics on parameter mismatches between `ct`, `bsk` and `params`.
    pub fn bootstrap_no_ks(
        &self,
        params: &TfheParams,
        bsk: &BootstrapKey,
        ct: &LweCiphertext,
        lut: &Lut,
    ) -> CosimResult {
        assert_eq!(ct.dim(), params.lwe_dim, "ciphertext dimension mismatch");
        assert_eq!(
            bsk.lwe_dim(),
            params.lwe_dim,
            "bootstrap key dimension mismatch"
        );
        let profile = IterProfile::compute(&self.config, params);
        let iter_cycles = profile.iter_cycles();

        // VPU: modulus switch.
        let (mask, b_tilde) = modulus_switch(ct, params.two_n());

        // Initial accumulator: the LWE-mask unit rotates the test
        // polynomial by −b̃ through the banked rotator.
        let comps: Vec<_> = GlweCiphertext::trivial(lut.polynomial().clone(), params.glwe_dim)
            .components()
            .map(|poly| {
                RotatorBuffer::store(poly, self.config.lanes).read_rotated(-(b_tilde as i64))
            })
            .collect();
        let mut acc = GlweCiphertext::from_components(comps);

        // Blind rotation: n iterations through the XPU pipeline. BSK_i is
        // streamed for every iteration; iterations with ã_i = 0 still flow
        // through the pipeline (and are functional no-ops).
        let mut active = 0u64;
        for (i, &a_tilde) in mask.iter().enumerate() {
            if a_tilde != 0 {
                // ptrA/ptrB: both reads come from the banked Private-A1
                // image of the accumulator; the subtractor in front of the
                // decomposition unit forms Λ = X^ã·ACC − ACC.
                let lambda_comps: Vec<_> = acc
                    .components()
                    .map(|poly| {
                        RotatorBuffer::store(poly, self.config.lanes)
                            .read_rotated_minus_orig(a_tilde as i64)
                    })
                    .collect();
                let lambda = GlweCiphertext::from_components(lambda_comps);
                // Decompose → forward transforms (merge-split pairs) → VPE
                // MACs with the transform-domain BSK → paired IFFTs.
                let delta = self.engine.external_product(bsk.fourier(i), &lambda);
                acc = acc.add(&delta);
                active += 1;
            }
        }

        // SE: data movement only.
        let extracted = sample_extract(&acc);
        CosimResult {
            extracted,
            xpu_cycles: params.lwe_dim as u64 * iter_cycles,
            active_iterations: active,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphling_tfhe::{BootstrapOptions, ClientKey, ParamSet, ServerKey};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cosim_matches_the_reference_engine_and_counts_cycles() {
        let mut rng = StdRng::seed_from_u64(500);
        let params = ParamSet::Test.params();
        let ck = ClientKey::generate(params.clone(), &mut rng);
        let sk = ServerKey::new(&ck, &mut rng);
        let cfg = ArchConfig::morphling_default();
        let cosim = XpuCosim::new(cfg.clone(), &params);
        let lut = Lut::from_fn(params.poly_size, 4, |m| (3 * m) % 4);

        for m in 0..4u64 {
            let ct = ck.encrypt(m, &mut rng);
            let result = cosim.bootstrap_no_ks(&params, sk.bootstrap_key(), &ct, &lut);
            // Functional equivalence with the reference path, bit for bit.
            let reference = sk
                .bootstrap_with_options(&ct, &lut, BootstrapOptions::new().keyswitch(false))
                .expect("reference bootstrap");
            assert_eq!(result.extracted, reference, "m={m}");
            // Timing: exactly n iterations of the profiled pipeline.
            let profile = IterProfile::compute(&cfg, &params);
            assert_eq!(
                result.xpu_cycles,
                params.lwe_dim as u64 * profile.iter_cycles()
            );
            // And the key-switched result decodes correctly.
            let out = sk.key_switch_key().key_switch(&result.extracted);
            assert_eq!(ck.decrypt(&out), (3 * m) % 4, "m={m}");
        }
    }

    #[test]
    fn cosim_charges_cycles_even_for_zero_rotations() {
        let mut rng = StdRng::seed_from_u64(501);
        let params = ParamSet::Test.params();
        let ck = ClientKey::generate(params.clone(), &mut rng);
        let sk = ServerKey::new(&ck, &mut rng);
        let cosim = XpuCosim::new(ArchConfig::morphling_default(), &params);
        let lut = Lut::identity(params.poly_size, 4);
        let ct = ck.encrypt(1, &mut rng);
        let r = cosim.bootstrap_no_ks(&params, sk.bootstrap_key(), &ct, &lut);
        // Some mask exponents are zero with probability ≈ 1/2N each; the
        // cycle count must not depend on them.
        assert!(r.active_iterations <= params.lwe_dim as u64);
        assert_eq!(
            r.xpu_cycles,
            params.lwe_dim as u64
                * IterProfile::compute(&ArchConfig::morphling_default(), &params).iter_cycles()
        );
    }
}
