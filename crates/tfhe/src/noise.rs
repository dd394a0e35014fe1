//! Noise measurement and prediction utilities.
//!
//! TFHE's correctness argument is statistical: every homomorphic operation
//! grows the ciphertext error, and bootstrapping must reset it below the
//! decryption threshold. These helpers measure actual errors (given the
//! secret key) and predict the dominant variance terms, so tests can assert
//! the implementation stays inside its noise budget.

use morphling_math::{Torus32, TorusScalar};

use crate::keys::ClientKey;
use crate::lwe::LweCiphertext;
use crate::params::TfheParams;

/// Signed torus distance between a ciphertext's phase and the intended
/// message — the realized noise of one sample.
pub fn measured_error(client: &ClientKey, ct: &LweCiphertext, intended: Torus32) -> f64 {
    (client.decrypt_torus(ct) - intended).to_f64_signed()
}

/// Predicted variance added by one external product (one blind-rotation
/// step), dominated by the BSK noise term
/// `(k+1) · l_b · N · (β/2)² · σ_bsk² / 3` plus the gadget rounding term
/// `(1 + k·N) · ε²` with `ε = 1/(2 β^l_b)`.
pub fn external_product_variance(params: &TfheParams) -> f64 {
    let k = params.glwe_dim as f64;
    let n = params.poly_size as f64;
    let l = params.bsk_decomp.level() as f64;
    let beta = params.bsk_decomp.base() as f64;
    let sigma = params.glwe_noise_std;
    let noise_term = (k + 1.0) * l * n * (beta / 2.0) * (beta / 2.0) * sigma * sigma / 3.0;
    let eps = 0.5 / beta.powf(l);
    let rounding_term = (1.0 + k * n) * eps * eps / 12.0;
    noise_term + rounding_term
}

/// Predicted variance of a fresh bootstrap output (before key switching):
/// `n` accumulated external products.
pub fn bootstrap_output_variance(params: &TfheParams) -> f64 {
    params.lwe_dim as f64 * external_product_variance(params)
}

/// Predicted variance added by the key switch:
/// `kN · l_k · E[d²] · σ_lwe²` plus the `kN` rounding term.
pub fn key_switch_variance(params: &TfheParams) -> f64 {
    let kn = params.extracted_lwe_dim() as f64;
    let l = params.ksk_decomp.level() as f64;
    let beta = params.ksk_decomp.base() as f64;
    let digit_ms = beta * beta / 12.0; // E[d²] for balanced digits.
    let noise_term = kn * l * digit_ms * params.lwe_noise_std * params.lwe_noise_std;
    let eps = 0.5 / beta.powf(l);
    let rounding_term = kn * eps * eps / 12.0 * 0.5; // key bits are 0/1 w.p. ½
    noise_term + rounding_term
}

/// Predicted total standard deviation of a freshly bootstrapped, key-
/// switched ciphertext.
pub fn post_bootstrap_std(params: &TfheParams) -> f64 {
    (bootstrap_output_variance(params) + key_switch_variance(params)).sqrt()
}

/// The decryption margin for plaintext modulus `p` with a padding bit:
/// decoding succeeds while `|error| < 1/(4p)`; bootstrapping additionally
/// requires `|error| + MS error < 1/(4p)` at the rotation step.
pub fn decryption_margin(p: u64) -> f64 {
    1.0 / (4.0 * p as f64)
}

/// Complementary error function, via the Abramowitz–Stegun 7.1.26
/// rational approximation (|ε| < 1.5·10⁻⁷) — good enough for failure-rate
/// estimates spanning many orders of magnitude.
pub fn erfc(x: f64) -> f64 {
    let sign_negative = x < 0.0;
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let e = poly * (-x * x).exp();
    if sign_negative {
        2.0 - e
    } else {
        e
    }
}

/// Estimated probability that one decryption (or one PBS landing) misses
/// its margin, given a Gaussian error of standard deviation `sigma` and
/// plaintext modulus `p`: `erfc(margin / (σ√2))`.
pub fn failure_probability(sigma: f64, p: u64) -> f64 {
    if sigma <= 0.0 {
        return 0.0;
    }
    erfc(decryption_margin(p) / (sigma * std::f64::consts::SQRT_2))
}

/// Predicted per-bootstrap failure probability for a parameter set at its
/// default plaintext modulus.
pub fn bootstrap_failure_probability(params: &TfheParams) -> f64 {
    failure_probability(post_bootstrap_std(params), params.plaintext_modulus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSet;
    use crate::server::ServerKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Sample standard deviation of a set of measured errors.
    fn error_std(errors: &[f64]) -> f64 {
        let n = errors.len() as f64;
        let mean = errors.iter().sum::<f64>() / n;
        (errors.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / n).sqrt()
    }

    #[test]
    fn functional_sets_have_noise_budget() {
        // Every set marked `functional` must predict a post-bootstrap noise
        // std at least 4 sigma below the decryption margin.
        for set in crate::params::ALL_PAPER_SETS {
            let p = set.params();
            if !p.functional {
                continue;
            }
            let sigma = post_bootstrap_std(&p);
            let margin = decryption_margin(p.plaintext_modulus);
            assert!(
                sigma * 4.0 < margin,
                "set {}: 4σ = {} exceeds margin {}",
                p.name,
                sigma * 4.0,
                margin
            );
        }
    }

    #[test]
    fn measured_bootstrap_noise_is_within_prediction() {
        let mut rng = StdRng::seed_from_u64(90);
        let params = ParamSet::Test.params();
        let ck = ClientKey::generate(params.clone(), &mut rng);
        let sk = ServerKey::new(&ck, &mut rng);
        let mut errors = Vec::new();
        for _ in 0..12 {
            let ct = ck.encrypt(2, &mut rng);
            let out = sk.bootstrap(&ct);
            errors.push(measured_error(&ck, &out, Torus32::encode(2, 8)));
        }
        let measured = error_std(&errors);
        let predicted = post_bootstrap_std(&params);
        // Measured std should be the same order as predicted (within 8×
        // given only 12 samples) and must not exceed the margin.
        assert!(
            measured < predicted * 8.0,
            "measured {measured} vs predicted {predicted}"
        );
        assert!(measured < decryption_margin(params.plaintext_modulus));
    }

    #[test]
    fn error_std_of_constant_is_zero() {
        assert_eq!(error_std(&[0.5, 0.5, 0.5]), 0.0);
    }

    #[test]
    fn erfc_matches_known_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-6);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
        assert!(erfc(5.0) < 2e-11);
    }

    #[test]
    fn functional_sets_have_low_failure_probability() {
        for set in crate::params::ALL_PAPER_SETS {
            let p = set.params();
            if !p.functional {
                continue;
            }
            let fail = bootstrap_failure_probability(&p);
            assert!(fail < 1e-4, "set {}: failure probability {fail}", p.name);
        }
    }

    #[test]
    fn failure_probability_is_monotone_in_sigma() {
        assert!(failure_probability(1e-3, 4) < failure_probability(1e-2, 4));
        assert_eq!(failure_probability(0.0, 4), 0.0);
    }
}
