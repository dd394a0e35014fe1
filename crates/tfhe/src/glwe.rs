//! GLWE ciphertexts: `(A_1(X), …, A_k(X), B(X)) ∈ T_(q,N)[X]^(k+1)` (§II-A).

use morphling_math::{sampling, Polynomial, Torus32};
use morphling_transform::{gaussian_torus_fill, NegacyclicFft, Spectrum};
use rand::Rng;

use crate::keys::GlweSecretKey;

/// A GLWE ciphertext: `k` mask polynomials plus a body polynomial.
///
/// The blind rotation's accumulator (`ACC` in Algorithm 1) is a value of
/// this type; the paper stores it in the Private-A1 buffer and rotates it
/// with the double-pointer method.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlweCiphertext {
    masks: Vec<Polynomial<Torus32>>,
    body: Polynomial<Torus32>,
}

impl GlweCiphertext {
    /// Encrypt a torus message polynomial under `key` with coefficient-wise
    /// Gaussian noise.
    pub fn encrypt<R: Rng + ?Sized>(
        message: &Polynomial<Torus32>,
        key: &GlweSecretKey,
        noise_std: f64,
        rng: &mut R,
    ) -> Self {
        let fft = crate::fft_cache::fft_for(key.poly_size());
        Self::encrypt_under(message, &key.spectra(&fft), &fft, noise_std, rng)
    }

    /// [`encrypt`](Self::encrypt) under a key already in the transform
    /// domain ([`GlweSecretKey::spectra`]): a GGSW's rows share one.
    pub(crate) fn encrypt_under<R: Rng + ?Sized>(
        message: &Polynomial<Torus32>,
        key: &[Spectrum],
        fft: &NegacyclicFft,
        noise_std: f64,
        rng: &mut R,
    ) -> Self {
        let n = fft.poly_len();
        assert_eq!(message.len(), n, "message size must equal N");
        let masks: Vec<Polynomial<Torus32>> = (0..key.len())
            .map(|_| sampling::uniform_torus_poly(n, rng))
            .collect();
        let mut body = message.clone();
        if noise_std > 0.0 {
            let uniforms = sampling::box_muller_uniforms(n, rng);
            let mut noise = Polynomial::zero(n);
            gaussian_torus_fill(noise.coeffs_mut(), noise_std, &uniforms);
            body += &noise;
        }
        // Binary key × uniform mask is exact through the f64 FFT (products
        // stay far below the 53-bit mantissa, summed over the k masks
        // too); the FFT path keeps key generation fast at N = 1024–4096.
        let mut sum = Spectrum::zero(n);
        for (a, s) in masks.iter().zip(key) {
            sum.mul_acc(s, &fft.forward_torus(a));
        }
        body += &fft.inverse_torus(&sum);
        Self { masks, body }
    }

    /// A trivial (keyless) encryption: zero masks, body = message. Used for
    /// the test polynomial `TP` at the start of the blind rotation.
    pub fn trivial(message: Polynomial<Torus32>, glwe_dim: usize) -> Self {
        let n = message.len();
        Self {
            masks: vec![Polynomial::zero(n); glwe_dim],
            body: message,
        }
    }

    /// The all-zero ciphertext (trivial encryption of 0).
    pub fn zero(glwe_dim: usize, poly_size: usize) -> Self {
        Self::trivial(Polynomial::zero(poly_size), glwe_dim)
    }

    /// Assemble from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if mask and body sizes disagree.
    pub fn from_parts(masks: Vec<Polynomial<Torus32>>, body: Polynomial<Torus32>) -> Self {
        for m in &masks {
            assert_eq!(m.len(), body.len(), "mask/body size mismatch");
        }
        Self { masks, body }
    }

    /// GLWE dimension `k`.
    pub fn dim(&self) -> usize {
        self.masks.len()
    }

    /// Polynomial size `N`.
    pub fn poly_size(&self) -> usize {
        self.body.len()
    }

    /// The mask polynomials `A_1 … A_k`.
    pub fn masks(&self) -> &[Polynomial<Torus32>] {
        &self.masks
    }

    /// The body polynomial `B`.
    pub fn body(&self) -> &Polynomial<Torus32> {
        &self.body
    }

    /// All `k+1` components in order `A_1, …, A_k, B` — the layout the
    /// external product decomposes.
    pub fn components(&self) -> impl Iterator<Item = &Polynomial<Torus32>> {
        self.masks.iter().chain(std::iter::once(&self.body))
    }

    /// Mutable view of the `k+1` components in `A_1, …, A_k, B` order.
    pub(crate) fn components_mut(&mut self) -> impl Iterator<Item = &mut Polynomial<Torus32>> {
        self.masks.iter_mut().chain(std::iter::once(&mut self.body))
    }

    /// Add `comps` (in `A_1, …, A_k, B` order) into this ciphertext —
    /// the final `+ ACC` of Algorithm 1 line 4 as a pass of its own (the
    /// external product's staged reference; the engine adds as it
    /// rounds).
    ///
    /// # Panics
    ///
    /// Panics if `comps.len() != k + 1`.
    #[cfg(test)]
    pub(crate) fn add_assign_components(&mut self, comps: &[Polynomial<Torus32>]) {
        assert_eq!(comps.len(), self.dim() + 1, "component count mismatch");
        for (dst, src) in self.components_mut().zip(comps) {
            *dst += src;
        }
    }

    /// Build from `k+1` components in `A_1, …, A_k, B` order.
    ///
    /// # Panics
    ///
    /// Panics if `comps` is empty.
    pub fn from_components(mut comps: Vec<Polynomial<Torus32>>) -> Self {
        let body = comps
            .pop()
            .expect("at least one component (the body) is required");
        Self::from_parts(comps, body)
    }

    /// Homomorphic addition.
    #[must_use]
    pub fn add(&self, rhs: &Self) -> Self {
        assert_eq!(self.dim(), rhs.dim(), "GLWE dimension mismatch");
        Self {
            masks: self
                .masks
                .iter()
                .zip(&rhs.masks)
                .map(|(a, b)| a + b)
                .collect(),
            body: &self.body + &rhs.body,
        }
    }

    /// Homomorphic subtraction.
    #[must_use]
    pub fn sub(&self, rhs: &Self) -> Self {
        assert_eq!(self.dim(), rhs.dim(), "GLWE dimension mismatch");
        Self {
            masks: self
                .masks
                .iter()
                .zip(&rhs.masks)
                .map(|(a, b)| a - b)
                .collect(),
            body: &self.body - &rhs.body,
        }
    }

    /// Multiply every component by the monomial `X^power` — the ACC
    /// rotation `X^ã · ACC` of the blind rotation, which Morphling
    /// implements with the double-pointer read in Private-A1 (§V-C).
    #[must_use]
    pub fn monomial_mul(&self, power: i64) -> Self {
        Self {
            masks: self.masks.iter().map(|a| a.monomial_mul(power)).collect(),
            body: self.body.monomial_mul(power),
        }
    }

    /// `X^power · self − self`, fused (the `Λ` operand of Algorithm 1
    /// line 4).
    #[must_use]
    pub fn monomial_mul_minus_one(&self, power: i64) -> Self {
        let mut out = Self::zero(self.dim(), self.poly_size());
        self.monomial_mul_minus_one_into(power, &mut out);
        out
    }

    /// [`monomial_mul_minus_one`](Self::monomial_mul_minus_one) into a
    /// caller-owned ciphertext; every coefficient of `out` is overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `out` has a different shape than `self`.
    pub fn monomial_mul_minus_one_into(&self, power: i64, out: &mut Self) {
        assert_eq!(out.dim(), self.dim(), "GLWE dimension mismatch");
        for (src, dst) in self.components().zip(out.components_mut()) {
            src.monomial_mul_minus_one_into(power, dst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphling_math::TorusScalar;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn msg(n: usize, seed: u32) -> Polynomial<Torus32> {
        // Messages on a coarse grid so noise cannot flip them.
        Polynomial::from_fn(n, |j| {
            Torus32::from_raw(((j as u32).wrapping_mul(seed) % 8) << 29)
        })
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let mut rng = StdRng::seed_from_u64(20);
        let key = GlweSecretKey::generate(2, 64, &mut rng);
        let m = msg(64, 7);
        let ct = GlweCiphertext::encrypt(&m, &key, 2f64.powi(-25), &mut rng);
        let phase = key.phase(&ct);
        for j in 0..64 {
            assert_eq!(phase[j].decode(8), m[j].decode(8), "j={j}");
        }
    }

    #[test]
    fn trivial_has_zero_masks() {
        let ct = GlweCiphertext::trivial(msg(32, 3), 2);
        let key = GlweSecretKey::generate(2, 32, &mut StdRng::seed_from_u64(21));
        assert_eq!(key.phase(&ct), msg(32, 3));
    }

    #[test]
    fn homomorphic_add_sub() {
        let mut rng = StdRng::seed_from_u64(22);
        let key = GlweSecretKey::generate(1, 32, &mut rng);
        let m1 = msg(32, 5);
        let m2 = msg(32, 11);
        let c1 = GlweCiphertext::encrypt(&m1, &key, 0.0, &mut rng);
        let c2 = GlweCiphertext::encrypt(&m2, &key, 0.0, &mut rng);
        assert_eq!(key.phase(&c1.add(&c2)), &m1 + &m2);
        assert_eq!(key.phase(&c1.sub(&c2)), &m1 - &m2);
    }

    #[test]
    fn rotation_commutes_with_decryption() {
        let mut rng = StdRng::seed_from_u64(23);
        let key = GlweSecretKey::generate(1, 32, &mut rng);
        let m = msg(32, 9);
        let ct = GlweCiphertext::encrypt(&m, &key, 0.0, &mut rng);
        for a in [0i64, 1, 31, 32, 45, 63] {
            assert_eq!(key.phase(&ct.monomial_mul(a)), m.monomial_mul(a), "a={a}");
        }
    }

    #[test]
    fn monomial_mul_minus_one_into_overwrites_dirty_buffer() {
        let mut rng = StdRng::seed_from_u64(24);
        let key = GlweSecretKey::generate(2, 32, &mut rng);
        let ct = GlweCiphertext::encrypt(&msg(32, 13), &key, 0.0, &mut rng);
        // Start from garbage so any coefficient the in-place path skips
        // would show up as a mismatch.
        let mut out = GlweCiphertext::trivial(msg(32, 17), 2);
        for power in [0i64, 1, 31, 32, 63, 64, 100] {
            ct.monomial_mul_minus_one_into(power, &mut out);
            assert_eq!(out, ct.monomial_mul_minus_one(power), "power={power}");
        }
    }

    #[test]
    fn add_assign_components_matches_add() {
        let mut rng = StdRng::seed_from_u64(25);
        let key = GlweSecretKey::generate(2, 32, &mut rng);
        let a = GlweCiphertext::encrypt(&msg(32, 3), &key, 0.0, &mut rng);
        let b = GlweCiphertext::encrypt(&msg(32, 5), &key, 0.0, &mut rng);
        let comps: Vec<_> = b.components().cloned().collect();
        let mut sum = a.clone();
        sum.add_assign_components(&comps);
        assert_eq!(sum, a.add(&b));
    }

    #[test]
    fn components_roundtrip() {
        let ct = GlweCiphertext::trivial(msg(16, 2), 3);
        let comps: Vec<_> = ct.components().cloned().collect();
        assert_eq!(comps.len(), 4);
        assert_eq!(GlweCiphertext::from_components(comps), ct);
    }
}
