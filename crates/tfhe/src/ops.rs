//! Leveled (non-bootstrapped) operations on LWE ciphertexts — the
//! vector/scalar arithmetic Morphling's programmable VPU executes with
//! P-ALU instructions (§V-B). The application layer builds encrypted
//! dot-products and affine layers from these.

use morphling_math::Torus32;

use crate::lwe::LweCiphertext;

/// Weighted sum `Σ w_i · ct_i` of LWE ciphertexts — an encrypted
/// dot-product against plaintext weights (e.g. one output neuron of a
/// linear layer). Noise grows with `Σ w_i²`.
///
/// # Panics
///
/// Panics if lengths differ or `cts` is empty.
pub(crate) fn weighted_sum(cts: &[LweCiphertext], weights: &[i64]) -> LweCiphertext {
    assert_eq!(
        cts.len(),
        weights.len(),
        "weights/ciphertexts length mismatch"
    );
    assert!(!cts.is_empty(), "weighted sum needs at least one term");
    let mut acc = LweCiphertext::trivial(Torus32::ZERO, cts[0].dim());
    for (ct, &w) in cts.iter().zip(weights) {
        if w != 0 {
            acc = acc.add(&ct.scalar_mul(w));
        }
    }
    acc
}

/// Affine combination `Σ w_i · ct_i + bias` with a plaintext torus bias.
pub fn affine(cts: &[LweCiphertext], weights: &[i64], bias: Torus32) -> LweCiphertext {
    weighted_sum(cts, weights).add_plain(bias)
}

/// Sum of ciphertexts (all weights 1).
pub fn sum(cts: &[LweCiphertext]) -> LweCiphertext {
    weighted_sum(cts, &vec![1; cts.len()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::ClientKey;
    use crate::params::ParamSet;
    use morphling_math::TorusScalar;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn weighted_sum_matches_plaintext() {
        let mut rng = StdRng::seed_from_u64(100);
        let params = ParamSet::Test
            .params()
            .with_plaintext_modulus(16)
            .noiseless();
        let ck = ClientKey::generate(params, &mut rng);
        let values = [1u64, 2, 3];
        let weights = [2i64, 1, 3];
        let cts: Vec<_> = values.iter().map(|&v| ck.encrypt(v, &mut rng)).collect();
        let out = weighted_sum(&cts, &weights);
        // 2·1 + 1·2 + 3·3 = 13.
        assert_eq!(ck.decrypt(&out), 13);
    }

    #[test]
    fn affine_adds_the_bias() {
        let mut rng = StdRng::seed_from_u64(101);
        let params = ParamSet::Test
            .params()
            .with_plaintext_modulus(16)
            .noiseless();
        let ck = ClientKey::generate(params, &mut rng);
        let cts = vec![ck.encrypt(3, &mut rng)];
        let out = affine(&cts, &[2], Torus32::encode(5, 32));
        assert_eq!(ck.decrypt(&out), 11);
    }

    #[test]
    fn sum_is_weighted_sum_of_ones() {
        let mut rng = StdRng::seed_from_u64(102);
        let params = ParamSet::Test
            .params()
            .with_plaintext_modulus(16)
            .noiseless();
        let ck = ClientKey::generate(params, &mut rng);
        let cts: Vec<_> = (1..=4u64).map(|v| ck.encrypt(v, &mut rng)).collect();
        assert_eq!(ck.decrypt(&sum(&cts)), 10);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn weighted_sum_validates_lengths() {
        let cts = vec![LweCiphertext::trivial(Torus32::ZERO, 4)];
        let _ = weighted_sum(&cts, &[1, 2]);
    }
}
