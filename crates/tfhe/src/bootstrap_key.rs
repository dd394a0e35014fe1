//! The bootstrapping key: `n` GGSW encryptions of the LWE key bits.

use morphling_transform::Spectrum;
use rand::Rng;

use crate::fft_cache::fft_for;
use crate::ggsw::{FourierGgsw, GgswCiphertext};
use crate::keys::ClientKey;
use crate::params::TfheParams;

/// `BSK = (BSK_1, …, BSK_n)` where `BSK_i = GGSW(s_i)` under the GLWE key.
///
/// Held in the transform domain only, the form the accelerator's Private-A2
/// buffer streams: each GGSW is transformed as soon as it is sampled or
/// decoded, and its coefficient form is dropped. The wire format and the
/// exact oracle derive it back with [`coefficient`](Self::coefficient).
#[derive(Clone, Debug)]
pub struct BootstrapKey {
    fourier: Vec<FourierGgsw>,
}

impl BootstrapKey {
    /// Generate a bootstrapping key for `client`'s LWE key under its GLWE
    /// key.
    pub fn generate<R: Rng + ?Sized>(client: &ClientKey, rng: &mut R) -> Self {
        let params = client.params();
        let fft = fft_for(params.poly_size);
        let fourier = (client.lwe_key().bits().iter())
            .map(|&s| GgswCiphertext::encrypt(s, client.glwe_key(), params, rng).to_fourier(&fft))
            .collect();
        Self { fourier }
    }

    /// The decoder's key of `params`' shape: zero spectra until it fills
    /// [`spectra_mut`](Self::spectra_mut).
    pub(crate) fn zeroed(params: &TfheParams) -> Self {
        let (k, level, n) = (params.glwe_dim, params.bsk_decomp.level(), params.poly_size);
        let fourier = (0..params.lwe_dim)
            .map(|_| FourierGgsw::zeroed(k, level, n))
            .collect();
        Self { fourier }
    }

    /// Every spectrum in wire order: GGSW, row, component.
    pub(crate) fn spectra_mut(&mut self) -> impl Iterator<Item = &mut Spectrum> {
        self.fourier.iter_mut().flat_map(FourierGgsw::spectra_mut)
    }

    /// Number of GGSWs, equal to the LWE dimension `n`.
    pub fn lwe_dim(&self) -> usize {
        self.fourier.len()
    }

    /// The coefficient-domain `BSK_i` (1-indexed in the paper; 0-indexed
    /// here), derived from its spectra. Exact: the f64 round trip of a
    /// 32-bit torus polynomial stays far below ½ before rounding at every
    /// `N ≤ 4096` (`pre_rounding_inverse_of_forward_torus_is_exact` in the
    /// transform crate).
    pub fn coefficient(&self, i: usize) -> GgswCiphertext {
        let ggsw = &self.fourier[i];
        ggsw.to_coefficient(&fft_for(ggsw.poly_size()))
    }

    /// The transform-domain `BSK_i`.
    pub fn fourier(&self, i: usize) -> &FourierGgsw {
        &self.fourier[i]
    }

    /// Total transform-domain bytes — the working set the paper reports in
    /// Fig 1 (≈100 MB at 128-bit parameters).
    pub fn fourier_bytes(&self) -> u64 {
        self.fourier.iter().map(FourierGgsw::fourier_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bsk_has_one_ggsw_per_key_bit() {
        let mut rng = StdRng::seed_from_u64(70);
        let ck = ClientKey::generate(ParamSet::Test.params(), &mut rng);
        let bsk = BootstrapKey::generate(&ck, &mut rng);
        assert_eq!(bsk.lwe_dim(), ck.params().lwe_dim);
        assert_eq!(bsk.fourier_bytes(), ck.params().bsk_total_bytes_fourier());
    }
}
