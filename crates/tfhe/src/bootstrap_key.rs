//! The bootstrapping key: `n` GGSW encryptions of the LWE key bits.

use rand::Rng;

use crate::fft_cache::fft_for;
use crate::ggsw::{FourierGgsw, GgswCiphertext};
use crate::keys::ClientKey;

/// `BSK = (BSK_1, …, BSK_n)` where `BSK_i = GGSW(s_i)` under the GLWE key.
///
/// Both the coefficient-domain form (for the exact oracle) and the
/// transform-domain form (what the accelerator's Private-A2 buffer streams)
/// are kept.
#[derive(Clone, Debug)]
pub struct BootstrapKey {
    coefficient: Vec<GgswCiphertext>,
    fourier: Vec<FourierGgsw>,
}

impl BootstrapKey {
    /// Generate a bootstrapping key for `client`'s LWE key under its GLWE
    /// key.
    pub fn generate<R: Rng + ?Sized>(client: &ClientKey, rng: &mut R) -> Self {
        let params = client.params();
        let fft = fft_for(params.poly_size);
        let coefficient: Vec<GgswCiphertext> = client
            .lwe_key()
            .bits()
            .iter()
            .map(|&s| GgswCiphertext::encrypt(s, client.glwe_key(), params, rng))
            .collect();
        let fourier = coefficient.iter().map(|g| g.to_fourier(&fft)).collect();
        Self {
            coefficient,
            fourier,
        }
    }

    /// Rebuild from coefficient-domain GGSWs (deserialization path): the
    /// transform-domain form is recomputed, never trusted from the wire.
    ///
    /// # Panics
    ///
    /// Panics if `coefficient` is empty or the GGSWs disagree on shape.
    pub fn from_coefficient(coefficient: Vec<GgswCiphertext>) -> Self {
        assert!(
            !coefficient.is_empty(),
            "bootstrap key needs at least one GGSW"
        );
        let n = coefficient[0].poly_size();
        let k = coefficient[0].glwe_dim();
        let l = coefficient[0].level();
        assert!(
            coefficient
                .iter()
                .all(|g| g.poly_size() == n && g.glwe_dim() == k && g.level() == l),
            "bootstrap key GGSWs must share one shape"
        );
        let fft = fft_for(n);
        let fourier = coefficient.iter().map(|g| g.to_fourier(&fft)).collect();
        Self {
            coefficient,
            fourier,
        }
    }

    /// Number of GGSWs, equal to the LWE dimension `n`.
    pub fn lwe_dim(&self) -> usize {
        self.coefficient.len()
    }

    /// The coefficient-domain `BSK_i` (1-indexed in the paper; 0-indexed
    /// here).
    pub fn coefficient(&self, i: usize) -> &GgswCiphertext {
        &self.coefficient[i]
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
