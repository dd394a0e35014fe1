//! LWE ciphertexts: `(a_1, …, a_n, b) ∈ T_q^(n+1)` (§II-A).

use morphling_math::{sampling, Torus32, TorusScalar};
use rand::Rng;

use crate::keys::LweSecretKey;

/// An LWE ciphertext over the 32-bit torus.
///
/// The mask `a` and body `b = ⟨a, s⟩ + m + e` are stored as raw torus
/// words — `(n+1)` scalar elements, the paper's in-memory layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LweCiphertext {
    mask: Vec<Torus32>,
    body: Torus32,
}

impl LweCiphertext {
    /// Encrypt a torus message under `key` with Gaussian noise of standard
    /// deviation `noise_std`.
    pub fn encrypt<R: Rng + ?Sized>(
        mu: Torus32,
        key: &LweSecretKey,
        noise_std: f64,
        rng: &mut R,
    ) -> Self {
        let mask: Vec<Torus32> = (0..key.dim())
            .map(|_| sampling::uniform_torus(rng))
            .collect();
        let mut body = mu;
        if noise_std > 0.0 {
            body += sampling::gaussian_torus(noise_std, rng);
        }
        for (&a, &s) in mask.iter().zip(key.bits()) {
            if s == 1 {
                body += a;
            }
        }
        Self { mask, body }
    }

    /// A *trivial* (noiseless, keyless) encryption of `mu`: zero mask. Any
    /// key decrypts it to `mu`. Used for public constants and test
    /// polynomial bodies.
    pub fn trivial(mu: Torus32, dim: usize) -> Self {
        Self {
            mask: vec![Torus32::ZERO; dim],
            body: mu,
        }
    }

    /// Assemble from raw parts (used by sample extraction and the key
    /// switch).
    pub(crate) fn from_parts(mask: Vec<Torus32>, body: Torus32) -> Self {
        Self { mask, body }
    }

    /// LWE dimension `n`.
    pub fn dim(&self) -> usize {
        self.mask.len()
    }

    /// The mask `(a_1, …, a_n)`.
    pub fn mask(&self) -> &[Torus32] {
        &self.mask
    }

    /// The body `b`.
    pub fn body(&self) -> Torus32 {
        self.body
    }

    /// Homomorphic addition: `Enc(m1) + Enc(m2) = Enc(m1 + m2)` (noise
    /// adds).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn add(&self, rhs: &Self) -> Self {
        assert_eq!(self.dim(), rhs.dim(), "LWE dimension mismatch");
        Self {
            mask: self
                .mask
                .iter()
                .zip(&rhs.mask)
                .map(|(&a, &b)| a + b)
                .collect(),
            body: self.body + rhs.body,
        }
    }

    /// Homomorphic subtraction.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn sub(&self, rhs: &Self) -> Self {
        assert_eq!(self.dim(), rhs.dim(), "LWE dimension mismatch");
        Self {
            mask: self
                .mask
                .iter()
                .zip(&rhs.mask)
                .map(|(&a, &b)| a - b)
                .collect(),
            body: self.body - rhs.body,
        }
    }

    /// Homomorphic negation.
    #[must_use]
    pub fn neg(&self) -> Self {
        Self {
            mask: self.mask.iter().map(|&a| -a).collect(),
            body: -self.body,
        }
    }

    /// Multiply by a small signed constant (noise scales by `|k|`).
    #[must_use]
    pub fn scalar_mul(&self, k: i64) -> Self {
        Self {
            mask: self.mask.iter().map(|&a| a.scalar_mul(k)).collect(),
            body: self.body.scalar_mul(k),
        }
    }

    /// Add a plaintext torus constant to the encrypted message (exact, no
    /// noise growth).
    #[must_use]
    pub(crate) fn add_plain(&self, mu: Torus32) -> Self {
        Self {
            mask: self.mask.clone(),
            body: self.body + mu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (LweSecretKey, StdRng) {
        let mut rng = StdRng::seed_from_u64(10);
        let key = LweSecretKey::generate(64, &mut rng);
        (key, rng)
    }

    #[test]
    fn encrypt_decrypt_phase_is_message_plus_small_noise() {
        let (key, mut rng) = setup();
        let mu = Torus32::from_f64(0.25);
        let ct = LweCiphertext::encrypt(mu, &key, 2f64.powi(-20), &mut rng);
        let err = (key.phase(&ct) - mu).to_f64_signed().abs();
        assert!(err < 1e-4, "err = {err}");
    }

    #[test]
    fn trivial_decrypts_under_any_key() {
        let (key, _) = setup();
        let mu = Torus32::from_f64(0.375);
        let ct = LweCiphertext::trivial(mu, key.dim());
        assert_eq!(key.phase(&ct), mu);
    }

    #[test]
    fn homomorphic_add_sub() {
        let (key, mut rng) = setup();
        let m1 = Torus32::from_f64(0.125);
        let m2 = Torus32::from_f64(0.25);
        let c1 = LweCiphertext::encrypt(m1, &key, 0.0, &mut rng);
        let c2 = LweCiphertext::encrypt(m2, &key, 0.0, &mut rng);
        assert_eq!(key.phase(&c1.add(&c2)), m1 + m2);
        assert_eq!(key.phase(&c1.sub(&c2)), m1 - m2);
        assert_eq!(key.phase(&c1.neg()), -m1);
    }

    #[test]
    fn scalar_mul_scales_the_message() {
        let (key, mut rng) = setup();
        let mu = Torus32::from_f64(0.0625);
        let ct = LweCiphertext::encrypt(mu, &key, 0.0, &mut rng);
        assert_eq!(key.phase(&ct.scalar_mul(3)), mu.scalar_mul(3));
    }

    #[test]
    fn add_plain_shifts_only_the_body() {
        let (key, mut rng) = setup();
        let mu = Torus32::from_f64(0.1);
        let shift = Torus32::from_f64(0.2);
        let ct = LweCiphertext::encrypt(mu, &key, 0.0, &mut rng);
        let shifted = ct.add_plain(shift);
        assert_eq!(shifted.mask(), ct.mask());
        assert_eq!(key.phase(&shifted), mu + shift);
    }
}
