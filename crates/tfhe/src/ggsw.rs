//! GGSW ciphertexts and their transform-domain (Fourier) form (§II-A).
//!
//! A GGSW ciphertext of a small integer `m` is a `(k+1)·l × (k+1)` matrix
//! of torus polynomials: for each component `i ∈ 0..=k` and level
//! `j ∈ 0..l`, the row `(i, j)` is a fresh GLWE encryption of zero with
//! `m · q/β^(j+1)` added to component `i`. The external product of a GGSW
//! with a GLWE ciphertext multiplies the decomposed GLWE (the row vector of
//! eq. (1)) against this matrix (eq. (2)).
//!
//! [`FourierGgsw`] stores every row polynomial as its negacyclic spectrum —
//! the exact format Morphling keeps in the Private-A2 buffer, so that the
//! BSK never needs a forward transform at run time.

use morphling_math::{Polynomial, Torus32, TorusScalar};
use morphling_transform::{NegacyclicFft, Spectrum};
use rand::Rng;

use crate::glwe::GlweCiphertext;
use crate::keys::GlweSecretKey;
use crate::params::TfheParams;

/// A GGSW ciphertext in the coefficient domain: `(k+1)·l` rows, each a
/// GLWE ciphertext.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GgswCiphertext {
    rows: Vec<GlweCiphertext>,
    glwe_dim: usize,
    level: usize,
}

impl GgswCiphertext {
    /// Encrypt a small signed integer `m` (for bootstrapping keys, a key
    /// bit in {0, 1}).
    ///
    /// Uses `params.bsk_decomp` for the gadget and `params.glwe_noise_std`
    /// for the per-row noise.
    pub fn encrypt<R: Rng + ?Sized>(
        m: i64,
        key: &GlweSecretKey,
        params: &TfheParams,
        rng: &mut R,
    ) -> Self {
        let k = key.dim();
        let n = key.poly_size();
        let l = params.bsk_decomp.level();
        let base_log = params.bsk_decomp.base_log();
        let zero = Polynomial::<Torus32>::zero(n);
        // The key enters the transform domain once, not once per row.
        let fft = crate::fft_cache::fft_for(n);
        let key_spectra = key.spectra(&fft);
        let mut rows = Vec::with_capacity((k + 1) * l);
        for comp in 0..=k {
            for level in 0..l {
                let noise = params.glwe_noise_std;
                let mut row = GlweCiphertext::encrypt_under(&zero, &key_spectra, &fft, noise, rng);
                // Gadget element: m · q / β^(level+1) added to component
                // `comp` (a mask for comp < k, the body for comp = k).
                let shift = 32 - base_log * (level as u32 + 1);
                let g = Torus32::from_raw(1u32 << shift).scalar_mul(m);
                let gadget_comp = row.components_mut().nth(comp);
                gadget_comp.expect("comp <= k, and a row has k + 1 components")[0] += g;
                rows.push(row);
            }
        }
        Self {
            rows,
            glwe_dim: k,
            level: l,
        }
    }

    /// The matrix rows in `(component, level)` order — row `i·l + j` holds
    /// component `i`, level `j`.
    pub fn rows(&self) -> &[GlweCiphertext] {
        &self.rows
    }

    /// GLWE dimension `k`.
    pub fn glwe_dim(&self) -> usize {
        self.glwe_dim
    }

    /// Decomposition level `l`.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Polynomial size `N`.
    pub fn poly_size(&self) -> usize {
        self.rows[0].poly_size()
    }

    /// Precompute the transform-domain form (what the accelerator's
    /// Private-A2 buffer holds).
    pub fn to_fourier(&self, fft: &NegacyclicFft) -> FourierGgsw {
        assert_eq!(fft.poly_len(), self.poly_size(), "FFT engine size mismatch");
        let rows = self
            .rows
            .iter()
            .map(|row| row.components().map(|p| fft.forward_torus(p)).collect())
            .collect();
        FourierGgsw {
            rows,
            glwe_dim: self.glwe_dim,
            level: self.level,
            poly_size: self.poly_size(),
        }
    }
}

/// A GGSW ciphertext with every polynomial stored as its negacyclic
/// spectrum. This is the operand format of the VPE array: BSK values flow
/// down the columns already in the transform domain.
#[derive(Clone, Debug)]
pub struct FourierGgsw {
    /// `rows[r][u]` = spectrum of the `u`-th component of row `r`.
    rows: Vec<Vec<Spectrum>>,
    glwe_dim: usize,
    level: usize,
    poly_size: usize,
}

impl FourierGgsw {
    /// `(k+1)·l` rows of `k+1` zero spectra of size `n`.
    pub(crate) fn zeroed(glwe_dim: usize, level: usize, n: usize) -> Self {
        let row = || (0..=glwe_dim).map(|_| Spectrum::zero(n)).collect();
        Self {
            rows: (0..(glwe_dim + 1) * level).map(|_| row()).collect(),
            glwe_dim,
            level,
            poly_size: n,
        }
    }

    /// Every spectrum, row by row.
    pub(crate) fn spectra_mut(&mut self) -> impl Iterator<Item = &mut Spectrum> {
        self.rows.iter_mut().flatten()
    }

    /// The spectra of row `r` (its `k+1` component polynomials).
    pub fn row(&self, r: usize) -> &[Spectrum] {
        &self.rows[r]
    }

    /// Every row, in `(component, level)` order.
    pub(crate) fn rows(&self) -> &[Vec<Spectrum>] {
        &self.rows
    }

    /// Number of rows, `(k+1)·l`.
    pub(crate) fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// GLWE dimension `k`.
    pub fn glwe_dim(&self) -> usize {
        self.glwe_dim
    }

    /// Decomposition level `l`.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Polynomial size `N`.
    pub fn poly_size(&self) -> usize {
        self.poly_size
    }

    /// The coefficient-domain GGSW these spectra are the transform of:
    /// each polynomial inverted and rounded back onto the torus.
    pub(crate) fn to_coefficient(&self, fft: &NegacyclicFft) -> GgswCiphertext {
        assert_eq!(fft.poly_len(), self.poly_size, "FFT engine size mismatch");
        let mut scratch = Vec::new();
        let mut inverse = |s: &Spectrum| {
            let mut p = Polynomial::zero(self.poly_size);
            fft.inverse_torus_into(s, &mut p, &mut scratch);
            p
        };
        let rows = (self.rows.iter())
            .map(|row| {
                let mut polys: Vec<_> = row.iter().map(&mut inverse).collect();
                let body = polys.pop().expect("a row has k + 1 components");
                GlweCiphertext::from_parts(polys, body)
            })
            .collect();
        GgswCiphertext {
            rows,
            glwe_dim: self.glwe_dim,
            level: self.level,
        }
    }

    /// Bytes this ciphertext occupies in the transform domain (8 bytes per
    /// spectrum point) — the Private-A2 footprint of one `BSK_i`.
    pub fn fourier_bytes(&self) -> u64 {
        (self.rows.len() as u64) * (self.glwe_dim as u64 + 1) * (self.poly_size as u64 / 2) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ggsw_shape_matches_definition() {
        let mut rng = StdRng::seed_from_u64(30);
        let params = ParamSet::Test.params();
        let key = GlweSecretKey::generate(params.glwe_dim, params.poly_size, &mut rng);
        let ggsw = GgswCiphertext::encrypt(1, &key, &params, &mut rng);
        // (k+1)·l rows of (k+1) polynomials.
        assert_eq!(
            ggsw.rows().len(),
            (params.glwe_dim + 1) * params.bsk_decomp.level()
        );
        assert_eq!(ggsw.rows()[0].dim(), params.glwe_dim);
    }

    #[test]
    fn ggsw_of_zero_rows_decrypt_to_zero() {
        let mut rng = StdRng::seed_from_u64(31);
        let params = ParamSet::Test.params().noiseless();
        let key = GlweSecretKey::generate(params.glwe_dim, params.poly_size, &mut rng);
        let ggsw = GgswCiphertext::encrypt(0, &key, &params, &mut rng);
        for row in ggsw.rows() {
            let phase = key.phase(row);
            for j in 0..params.poly_size {
                assert_eq!(phase[j], Torus32::ZERO);
            }
        }
    }

    #[test]
    fn ggsw_body_rows_contain_gadget_times_message() {
        let mut rng = StdRng::seed_from_u64(32);
        let params = ParamSet::Test.params().noiseless();
        let key = GlweSecretKey::generate(params.glwe_dim, params.poly_size, &mut rng);
        let ggsw = GgswCiphertext::encrypt(1, &key, &params, &mut rng);
        let k = params.glwe_dim;
        let l = params.bsk_decomp.level();
        let b = params.bsk_decomp.base_log();
        // Body-component rows (comp = k) decrypt to exactly the gadget.
        for level in 0..l {
            let row = &ggsw.rows()[k * l + level];
            let phase = key.phase(row);
            let expect = Torus32::from_raw(1u32 << (32 - b * (level as u32 + 1)));
            assert_eq!(phase[0], expect, "level={level}");
        }
    }

    #[test]
    fn fourier_bytes_matches_params_formula() {
        let mut rng = StdRng::seed_from_u64(33);
        let params = ParamSet::Test.params();
        let key = GlweSecretKey::generate(params.glwe_dim, params.poly_size, &mut rng);
        let fft = crate::fft_cache::fft_for(params.poly_size);
        let fourier = GgswCiphertext::encrypt(1, &key, &params, &mut rng).to_fourier(&fft);
        assert_eq!(fourier.fourier_bytes(), params.bsk_iter_bytes_fourier());
    }
}
