//! The four bootstrapping stages of Algorithm 1: modulus switching, blind
//! rotation, sample extraction (key switching lives in [`crate::ksk`]).

use morphling_math::{Polynomial, Torus32, TorusScalar};

use crate::bootstrap_key::BootstrapKey;
use crate::external_product::ExternalProductEngine;
use crate::glwe::GlweCiphertext;
use crate::lwe::LweCiphertext;
use crate::workspace::BootstrapWorkspace;

/// Modulus-switch an LWE ciphertext to modulus `2N`: every mask element and
/// the body are rescaled and rounded, `ã_i = ⌊2N·a_i⌉ mod 2N` (Algorithm 1
/// line 1). Returns `(ã, b̃)` as exponents for the blind rotation.
pub fn modulus_switch(ct: &LweCiphertext, two_n: u64) -> (Vec<u64>, u64) {
    let mask = ct.mask().iter().map(|a| a.mod_switch(two_n)).collect();
    (mask, ct.body().mod_switch(two_n))
}

/// Blind rotation (Algorithm 1 lines 2–4) through the transform-domain
/// engine, in place: `n` sequential external products
/// `ACC ← BSK_i ⊡ (X^ã_i · ACC − ACC) + ACC` on `acc`, which must already
/// include the initial `X^(−b̃)` rotation of the test polynomial. With a
/// warm `ws` the whole rotation touches no allocator at all (the software
/// analogue of the paper keeping ACC resident in Private-A1 for the
/// entire bootstrap). This is [`blind_rotate_assign_many`] on one
/// accumulator.
///
/// # Panics
///
/// Panics if `mask_exponents`, `bsk`, `acc`, and `ws` disagree on shape.
pub fn blind_rotate_assign(
    engine: &ExternalProductEngine,
    bsk: &BootstrapKey,
    acc: &mut GlweCiphertext,
    mask_exponents: &[u64],
    ws: &mut BootstrapWorkspace,
) {
    let accs = std::slice::from_mut(acc);
    blind_rotate_assign_many(engine, bsk, accs, &[mask_exponents], ws);
}

/// [`blind_rotate_assign`] for several independent accumulators sharing
/// one bootstrapping key, with the loops interchanged: CMUX step outer,
/// request inner. Every request performs exactly the external products it
/// would perform alone, in the same order, so results are **bit-identical**
/// to rotating each accumulator on its own; what changes is that `BSK_i`
/// — the one operand too large to stay cached across a whole rotation
/// (the Fourier key is ~100 MB at the paper's sets) — is fetched from
/// memory once per step for the whole chunk instead of once per request.
/// This is the paper's batch BSK reuse (§IV-C: consecutive ACC streams
/// share each `BSK_i` while it sits in Private-A2), with the chunk's
/// accumulators playing Private-A1.
///
/// Allocation-free with a warm `ws`. A step whose exponent `ã_i` is 0 is
/// skipped: `X^0 − 1 = 0`, so the external product would add an
/// encryption of zero (hardware still spends the cycles).
///
/// # Panics
///
/// Panics if `accs` and `masks` disagree in length, any mask length
/// differs from the BSK's LWE dimension, or any accumulator's shape
/// disagrees with `ws`.
pub fn blind_rotate_assign_many(
    engine: &ExternalProductEngine,
    bsk: &BootstrapKey,
    accs: &mut [GlweCiphertext],
    masks: &[impl AsRef<[u64]>],
    ws: &mut BootstrapWorkspace,
) {
    assert_eq!(accs.len(), masks.len(), "one mask per accumulator required");
    for mask in masks {
        assert_eq!(
            mask.as_ref().len(),
            bsk.lwe_dim(),
            "mask length must equal the LWE dimension"
        );
    }
    for i in 0..bsk.lwe_dim() {
        let bsk_i = bsk.fourier(i);
        for (acc, mask) in accs.iter_mut().zip(masks) {
            let a_tilde = mask.as_ref()[i];
            if a_tilde != 0 {
                engine.rotate_cmux_into(bsk_i, acc, a_tilde as i64, ws);
            }
        }
    }
}

/// Sample extraction (Algorithm 1 line 5): read the constant coefficient of
/// the final accumulator as an LWE ciphertext under the extracted `k·N`
/// key. Pure data movement — "only memory access and data-regrouping"
/// (§II-B) — which is why the paper gives it to the VPU.
pub fn sample_extract(acc: &GlweCiphertext) -> LweCiphertext {
    let n = acc.poly_size();
    let mut mask = Vec::with_capacity(acc.dim() * n);
    for a in acc.masks() {
        mask.push(a[0]);
        // Extracting coefficient 0: mask entry j (j > 0) is −A_i[N−j]
        // because of the negacyclic wrap.
        for j in 1..n {
            mask.push(-a[n - j]);
        }
    }
    LweCiphertext::from_parts(mask, acc.body()[0])
}

/// Build the initial accumulator: the (pre-rotated) test polynomial as a
/// trivial GLWE, rotated by `X^(−b̃)`.
pub(crate) fn initial_accumulator(
    test_poly: &Polynomial<Torus32>,
    glwe_dim: usize,
    b_tilde: u64,
) -> GlweCiphertext {
    GlweCiphertext::trivial(test_poly.clone(), glwe_dim).monomial_mul(-(b_tilde as i64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{ClientKey, GlweSecretKey};
    use crate::params::ParamSet;
    use morphling_math::sampling;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn modulus_switch_scales_correctly() {
        let ct = LweCiphertext::from_parts(
            vec![Torus32::from_f64(0.5), Torus32::from_f64(0.25)],
            Torus32::from_f64(0.75),
        );
        let (mask, body) = modulus_switch(&ct, 2048);
        assert_eq!(mask, vec![1024, 512]);
        assert_eq!(body, 1536);
    }

    #[test]
    fn sample_extract_phase_matches_glwe_constant_coefficient() {
        let mut rng = StdRng::seed_from_u64(60);
        let params = ParamSet::TestMedium.params();
        let glwe_key = GlweSecretKey::generate(params.glwe_dim, params.poly_size, &mut rng);
        let msg = Polynomial::from_fn(params.poly_size, |j| Torus32::encode((j as u64) % 8, 16));
        let ct = GlweCiphertext::encrypt(&msg, &glwe_key, 0.0, &mut rng);
        let extracted = sample_extract(&ct);
        let lwe_key = glwe_key.to_extracted_lwe_key();
        assert_eq!(lwe_key.phase(&extracted), msg[0]);
    }

    #[test]
    fn sample_extract_after_rotation_reads_other_coefficients() {
        let mut rng = StdRng::seed_from_u64(61);
        let params = ParamSet::TestMedium.params();
        let glwe_key = GlweSecretKey::generate(params.glwe_dim, params.poly_size, &mut rng);
        let msg = Polynomial::from_fn(params.poly_size, |j| Torus32::encode((j as u64) % 8, 16));
        let ct = GlweCiphertext::encrypt(&msg, &glwe_key, 0.0, &mut rng);
        let lwe_key = glwe_key.to_extracted_lwe_key();
        for shift in [1usize, 7, 100] {
            // X^(−shift)·ct brings coefficient `shift` to position 0.
            let rotated = ct.monomial_mul(-(shift as i64));
            let extracted = sample_extract(&rotated);
            assert_eq!(lwe_key.phase(&extracted), msg[shift], "shift={shift}");
        }
    }

    #[test]
    fn blind_rotate_rotates_by_the_masked_phase() {
        // With a noiseless setup, the blind rotation must land the
        // accumulator exactly on X^(Σ ã_i s_i − b̃) · TP ... i.e. rotating by
        // the negative phase.
        let mut rng = StdRng::seed_from_u64(62);
        let params = ParamSet::Test.params().noiseless();
        let ck = ClientKey::generate(params.clone(), &mut rng);
        let bsk = BootstrapKey::generate(&ck, &mut rng);
        let engine = ExternalProductEngine::new(&params);

        // A blocked test polynomial (block size N/4): coefficient j encodes
        // its block index. Blocks absorb the ± few-index modulus-switch
        // rounding error.
        let n = params.poly_size;
        let tp = Polynomial::from_fn(n, |j| Torus32::encode((j / (n / 4)) as u64, 8));

        // Encrypt the torus value 5/16 noiselessly: m̃ ≈ 2N·5/16 lands in
        // the middle of block 2.
        let mu = Torus32::from_f64(5.0 / 16.0);
        let ct = ck.encrypt_torus(mu, &mut rng);
        let (mask, b_tilde) = modulus_switch(&ct, params.two_n());
        let acc0 = initial_accumulator(&tp, params.glwe_dim, b_tilde);
        let mut acc = acc0;
        let mut ws = engine.workspace(params.glwe_dim);
        blind_rotate_assign(&engine, &bsk, &mut acc, &mask, &mut ws);
        let extracted = sample_extract(&acc);
        let phase = ck.glwe_key().to_extracted_lwe_key().phase(&extracted);
        assert_eq!(phase.decode(8), 2);
    }

    #[test]
    fn blind_rotate_assign_equals_the_oracle_chain() {
        // Every step through one reused workspace, a skipped (ã = 0) one
        // among them: the rotation is the oracle's chain bit for bit.
        let mut rng = StdRng::seed_from_u64(64);
        let params = ParamSet::Test.params();
        let ck = ClientKey::generate(params.clone(), &mut rng);
        let sk = crate::ServerKey::new(&ck, &mut rng);
        let engine = ExternalProductEngine::new(&params);
        let tp = Polynomial::from_fn(params.poly_size, |j| Torus32::encode((j % 4) as u64, 8));
        let mut mask: Vec<u64> = (0..params.lwe_dim)
            .map(|_| sampling::uniform_torus::<Torus32, _>(&mut rng).mod_switch(params.two_n()))
            .collect();
        mask[5] = 0;
        let acc0 = initial_accumulator(&tp, params.glwe_dim, 9);
        let want = (mask.iter().enumerate()).fold(acc0.clone(), |acc, (i, &a)| {
            crate::oracle::step(&sk, i, a, &acc)
        });
        let mut acc = acc0;
        let mut ws = engine.workspace(params.glwe_dim);
        blind_rotate_assign(&engine, sk.bootstrap_key(), &mut acc, &mask, &mut ws);
        assert_eq!(acc, want);
    }

    #[test]
    fn blind_rotate_assign_many_is_bit_identical_to_sequential() {
        // k = 1 and k = 2, chunk sizes including the degenerate 1 and an
        // odd count: the interchanged loops must equal one
        // blind_rotate_assign per request bit for bit.
        for set in [ParamSet::Test, ParamSet::TestMedium] {
            let mut rng = StdRng::seed_from_u64(65);
            let params = set.params();
            let ck = ClientKey::generate(params.clone(), &mut rng);
            let bsk = BootstrapKey::generate(&ck, &mut rng);
            let tp = Polynomial::from_fn(params.poly_size, |j| Torus32::encode((j % 4) as u64, 8));
            for batch_len in [1usize, 3, 4] {
                // Distinct masks per request, with zero exponents (skipped
                // steps): one step every request skips, others that only
                // some do.
                let masks: Vec<Vec<u64>> = (0..batch_len)
                    .map(|r| {
                        let mut mask: Vec<u64> = (0..params.lwe_dim)
                            .map(|_| {
                                sampling::uniform_torus::<Torus32, _>(&mut rng)
                                    .mod_switch(params.two_n())
                            })
                            .collect();
                        for at in [0, 3 * r + 1, 7 * r + 4] {
                            mask[at % params.lwe_dim] = 0;
                        }
                        mask
                    })
                    .collect();
                let accs0: Vec<GlweCiphertext> = (0..batch_len)
                    .map(|r| initial_accumulator(&tp, params.glwe_dim, 7 + r as u64))
                    .collect();
                let engine = ExternalProductEngine::new(&params);
                let mut ws = engine.workspace(params.glwe_dim);
                let want: Vec<GlweCiphertext> = accs0
                    .iter()
                    .zip(&masks)
                    .map(|(acc, mask)| {
                        let mut acc = acc.clone();
                        blind_rotate_assign(&engine, &bsk, &mut acc, mask, &mut ws);
                        acc
                    })
                    .collect();
                let mut accs = accs0.clone();
                blind_rotate_assign_many(&engine, &bsk, &mut accs, &masks, &mut ws);
                assert_eq!(accs, want, "set={set:?} batch_len={batch_len}");
            }
        }
    }
}
