//! Secret keys and the client-side API (encrypt/decrypt).

use morphling_math::{sampling, Polynomial, Torus32, TorusScalar};
use morphling_transform::{NegacyclicFft, Spectrum};
use rand::Rng;

use crate::glwe::GlweCiphertext;
use crate::lwe::LweCiphertext;
use crate::params::TfheParams;

/// A binary LWE secret key `s ∈ {0,1}^n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LweSecretKey {
    bits: Vec<i64>,
}

impl LweSecretKey {
    /// Sample a fresh key of dimension `n`.
    pub fn generate<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        Self {
            bits: sampling::binary_vector(n, rng),
        }
    }

    /// Build from explicit bits (each must be 0 or 1).
    ///
    /// # Panics
    ///
    /// Panics if any entry is not 0 or 1.
    pub fn from_bits(bits: Vec<i64>) -> Self {
        assert!(
            bits.iter().all(|&b| b == 0 || b == 1),
            "key bits must be 0 or 1"
        );
        Self { bits }
    }

    /// Key dimension `n`.
    pub fn dim(&self) -> usize {
        self.bits.len()
    }

    /// The key bits.
    pub fn bits(&self) -> &[i64] {
        &self.bits
    }

    /// Compute the phase `b − Σ a_i s_i` of a ciphertext: message plus
    /// noise.
    pub fn phase(&self, ct: &LweCiphertext) -> Torus32 {
        assert_eq!(ct.dim(), self.dim(), "ciphertext/key dimension mismatch");
        let mut acc = ct.body();
        for (&a, &s) in ct.mask().iter().zip(&self.bits) {
            if s == 1 {
                acc -= a;
            }
        }
        acc
    }
}

/// A GLWE secret key: `k` binary polynomials `S_i ∈ B_N[X]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlweSecretKey {
    polys: Vec<Polynomial<i64>>,
}

impl GlweSecretKey {
    /// Sample a fresh key of dimension `k` over size-`N` polynomials.
    pub fn generate<R: Rng + ?Sized>(k: usize, n: usize, rng: &mut R) -> Self {
        Self {
            polys: (0..k).map(|_| sampling::binary_poly(n, rng)).collect(),
        }
    }

    /// Build from explicit key polynomials (deserialization path).
    ///
    /// # Panics
    ///
    /// Panics if `polys` is empty, the polynomials disagree on length, or
    /// any coefficient is not 0 or 1.
    pub fn from_polys(polys: Vec<Polynomial<i64>>) -> Self {
        assert!(!polys.is_empty(), "GLWE key needs at least one polynomial");
        let n = polys[0].len();
        assert!(
            polys.iter().all(|p| p.len() == n),
            "key polynomials must share one length"
        );
        assert!(
            polys
                .iter()
                .all(|p| p.coeffs().iter().all(|&b| b == 0 || b == 1)),
            "key bits must be 0 or 1"
        );
        Self { polys }
    }

    /// GLWE dimension `k`.
    pub fn dim(&self) -> usize {
        self.polys.len()
    }

    /// Polynomial size `N`.
    pub fn poly_size(&self) -> usize {
        self.polys[0].len()
    }

    /// The key polynomials.
    pub fn polys(&self) -> &[Polynomial<i64>] {
        &self.polys
    }

    /// The key polynomials in the transform domain — what an encryption
    /// multiplies its masks by; a caller encrypting many rows under one
    /// key (a GGSW) takes them once.
    pub(crate) fn spectra(&self, fft: &NegacyclicFft) -> Vec<Spectrum> {
        self.polys.iter().map(|s| fft.forward_int(s)).collect()
    }

    /// Compute the phase `B − Σ A_i · S_i` of a GLWE ciphertext.
    pub fn phase(&self, ct: &GlweCiphertext) -> Polynomial<Torus32> {
        assert_eq!(ct.dim(), self.dim(), "ciphertext/key dimension mismatch");
        let mut acc = ct.body().clone();
        for (a, s) in ct.masks().iter().zip(&self.polys) {
            acc -= &morphling_math::negacyclic::mul_int_torus32(s, a);
        }
        acc
    }

    /// Flatten into the LWE key of dimension `k·N` that sample extraction
    /// implicitly switches to (§II-B): the coefficients of each `S_i` in
    /// order.
    pub(crate) fn to_extracted_lwe_key(&self) -> LweSecretKey {
        let mut bits = Vec::with_capacity(self.dim() * self.poly_size());
        for p in &self.polys {
            bits.extend_from_slice(p.coeffs());
        }
        LweSecretKey { bits }
    }
}

/// All client-side secret material for one TFHE instance, together with
/// encryption and decryption.
///
/// The [`crate::ServerKey`] derived from a `ClientKey` holds only *public*
/// key-switching/bootstrapping material and performs all homomorphic
/// computation.
#[derive(Clone, Debug)]
pub struct ClientKey {
    params: TfheParams,
    lwe_key: LweSecretKey,
    glwe_key: GlweSecretKey,
}

impl ClientKey {
    /// Generate fresh LWE and GLWE secret keys for `params`.
    pub fn generate<R: Rng + ?Sized>(params: TfheParams, rng: &mut R) -> Self {
        let lwe_key = LweSecretKey::generate(params.lwe_dim, rng);
        let glwe_key = GlweSecretKey::generate(params.glwe_dim, params.poly_size, rng);
        Self {
            params,
            lwe_key,
            glwe_key,
        }
    }

    /// The parameter set.
    pub fn params(&self) -> &TfheParams {
        &self.params
    }

    /// The LWE secret key (messages are encrypted under this key).
    pub(crate) fn lwe_key(&self) -> &LweSecretKey {
        &self.lwe_key
    }

    /// The GLWE secret key (the bootstrapping key encrypts the LWE key
    /// under this key).
    pub fn glwe_key(&self) -> &GlweSecretKey {
        &self.glwe_key
    }

    /// Encrypt a message `m ∈ Z_p` (p = `params.plaintext_modulus`) with
    /// one bit of padding: the torus value is `m / 2p`.
    pub fn encrypt<R: Rng + ?Sized>(&self, message: u64, rng: &mut R) -> LweCiphertext {
        let p = self.params.plaintext_modulus;
        assert!(
            message < p,
            "message {message} out of range for modulus {p}"
        );
        let mu = Torus32::encode(message, 2 * p);
        self.encrypt_torus(mu, rng)
    }

    /// Encrypt an arbitrary torus value under the LWE key.
    pub(crate) fn encrypt_torus<R: Rng + ?Sized>(&self, mu: Torus32, rng: &mut R) -> LweCiphertext {
        LweCiphertext::encrypt(mu, &self.lwe_key, self.params.lwe_noise_std, rng)
    }

    /// Decrypt to a message in `Z_p` (rounding away noise).
    pub fn decrypt(&self, ct: &LweCiphertext) -> u64 {
        let p = self.params.plaintext_modulus;
        self.lwe_key.phase(ct).decode(2 * p) % p
    }

    /// Decrypt the raw torus phase (message + noise), for noise analysis.
    pub(crate) fn decrypt_torus(&self, ct: &LweCiphertext) -> Torus32 {
        self.lwe_key.phase(ct)
    }

    /// Decrypt a ciphertext produced under the *extracted* `k·N` LWE key
    /// (i.e. after sample extraction, before key switching).
    pub fn decrypt_extracted(&self, ct: &LweCiphertext) -> u64 {
        let p = self.params.plaintext_modulus;
        self.glwe_key.to_extracted_lwe_key().phase(ct).decode(2 * p) % p
    }

    /// Encrypt a boolean with the ±1/8 gate-bootstrapping convention:
    /// `true → +1/8`, `false → −1/8`.
    pub fn encrypt_bool<R: Rng + ?Sized>(&self, bit: bool, rng: &mut R) -> LweCiphertext {
        let mu = if bit {
            Torus32::from_f64(0.125)
        } else {
            Torus32::from_f64(-0.125)
        };
        self.encrypt_torus(mu, rng)
    }

    /// Decrypt a boolean: the phase's sign decides.
    pub fn decrypt_bool(&self, ct: &LweCiphertext) -> bool {
        self.lwe_key.phase(ct).to_f64_signed() > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lwe_encrypt_decrypt_all_messages() {
        let mut rng = StdRng::seed_from_u64(1);
        let ck = ClientKey::generate(ParamSet::Test.params(), &mut rng);
        for m in 0..4 {
            let ct = ck.encrypt(m, &mut rng);
            assert_eq!(ck.decrypt(&ct), m);
        }
    }

    #[test]
    fn bool_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        let ck = ClientKey::generate(ParamSet::Test.params(), &mut rng);
        for bit in [true, false] {
            let ct = ck.encrypt_bool(bit, &mut rng);
            assert_eq!(ck.decrypt_bool(&ct), bit);
        }
    }

    #[test]
    fn extracted_key_flattens_glwe_key() {
        let mut rng = StdRng::seed_from_u64(3);
        let key = GlweSecretKey::generate(2, 8, &mut rng);
        let flat = key.to_extracted_lwe_key();
        assert_eq!(flat.dim(), 16);
        assert_eq!(&flat.bits()[..8], key.polys()[0].coeffs());
        assert_eq!(&flat.bits()[8..], key.polys()[1].coeffs());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn encrypt_rejects_oversized_message() {
        let mut rng = StdRng::seed_from_u64(4);
        let ck = ClientKey::generate(ParamSet::Test.params(), &mut rng);
        let _ = ck.encrypt(4, &mut rng);
    }

    #[test]
    #[should_panic(expected = "must be 0 or 1")]
    fn key_from_bits_validates() {
        let _ = LweSecretKey::from_bits(vec![0, 1, 2]);
    }
}
