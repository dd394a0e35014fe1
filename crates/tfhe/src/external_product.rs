//! The external product `GGSW ⊡ GLWE` and the CMUX — the inner loop of the
//! blind rotation (Algorithm 1, line 4) and the paper's most
//! compute-intensive operation (97% of all bootstrapping work, §I).
//!
//! [`ExternalProductEngine`] is the transform-domain path the hardware
//! accelerates, as the XPU's streaming pipeline (§IV–V): decomposition
//! rides on the forward transform's first pass, the multiply-accumulate
//! against the precomputed BSK spectra on the inverse transform's first
//! pass and the rounding and the `+ ACC` on its last. Only the digit
//! spectra are parked in memory between the two. The accumulation order
//! mirrors the VPE array with the ACC-output-stationary dataflow. There
//! is one implementation: the allocating entry point runs it in a
//! workspace of its own. The exact integer-domain step it is held to is
//! the [`oracle`](crate::oracle)'s.

use std::sync::Arc;

use morphling_math::DecompParams;
use morphling_transform::NegacyclicFft;

use crate::fft_cache::fft_for;
use crate::ggsw::FourierGgsw;
use crate::glwe::GlweCiphertext;
use crate::params::TfheParams;
use crate::workspace::BootstrapWorkspace;

/// Transform-domain external-product engine (the software model of one
/// XPU's datapath).
#[derive(Debug)]
pub struct ExternalProductEngine {
    /// The process-wide transform engine for this polynomial size.
    fft: Arc<NegacyclicFft>,
    decomp: DecompParams,
}

impl ExternalProductEngine {
    /// Build an engine for `params`.
    pub fn new(params: &TfheParams) -> Self {
        Self {
            fft: fft_for(params.poly_size),
            decomp: params.bsk_decomp,
        }
    }

    /// The FFT engine (shared with every other component working at the
    /// same polynomial size).
    pub fn fft(&self) -> &NegacyclicFft {
        &self.fft
    }

    /// `ggsw ⊡ ct`: the full external product through the transform
    /// domain, in a workspace of its own.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn external_product(&self, ggsw: &FourierGgsw, ct: &GlweCiphertext) -> GlweCiphertext {
        assert_eq!(ggsw.glwe_dim(), ct.dim(), "GLWE dimension mismatch");
        assert_eq!(ggsw.poly_size(), ct.poly_size(), "polynomial size mismatch");
        let mut ws = self.workspace(ct.dim());
        ws.lambda = ct.clone();
        let mut out = GlweCiphertext::zero(ct.dim(), ct.poly_size());
        self.add_external_product(ggsw, &mut ws, &mut out);
        out
    }

    /// A [`BootstrapWorkspace`] sized for this engine's transform and
    /// gadget, serving accumulators of GLWE dimension `glwe_dim`.
    pub fn workspace(&self, glwe_dim: usize) -> BootstrapWorkspace {
        BootstrapWorkspace::with_shape(glwe_dim, self.fft.poly_len(), self.decomp.level())
    }

    /// The blind-rotation step `ACC ← BSK_i ⊡ (X^ã · ACC − ACC) + ACC`
    /// (Algorithm 1 line 4), in place: the rotate-and-subtract is fused
    /// as the double-pointer read does in hardware, and `acc` is updated
    /// through caller-owned workspace buffers with no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `bsk_i`, `acc`, and `ws` disagree on shape.
    pub fn rotate_cmux_into(
        &self,
        bsk_i: &FourierGgsw,
        acc: &mut GlweCiphertext,
        a_tilde: i64,
        ws: &mut BootstrapWorkspace,
    ) {
        assert_eq!(bsk_i.glwe_dim(), acc.dim(), "GLWE dimension mismatch");
        assert_eq!(
            bsk_i.poly_size(),
            acc.poly_size(),
            "polynomial size mismatch"
        );
        assert!(
            ws.fits(acc.dim(), acc.poly_size()),
            "workspace shape does not match the accumulator"
        );
        acc.monomial_mul_minus_one_into(a_tilde, &mut ws.lambda);
        self.add_external_product(bsk_i, ws, acc);
    }

    /// `acc += ggsw ⊡ ws.lambda` as two streaming passes with only the
    /// digit spectra parked between them. Forward, once per (component,
    /// level): decompose (eq. (1)), widen, fold, twist, transform.
    /// Inverse, once per output component: multiply-accumulate every
    /// digit spectrum against its GGSW row (the ACC-output-stationary
    /// dataflow of the VPE array), transform back, untwist, round, add
    /// into `acc`.
    fn add_external_product(
        &self,
        ggsw: &FourierGgsw,
        ws: &mut BootstrapWorkspace,
        acc: &mut GlweCiphertext,
    ) {
        let l = self.decomp.level();
        assert_eq!(
            ws.digit_spectra.len(),
            ggsw.row_count(),
            "gadget level mismatch"
        );
        for (comp, specs) in ws.lambda.components().zip(ws.digit_spectra.chunks_mut(l)) {
            for (level, spec) in specs.iter_mut().enumerate() {
                self.fft.forward_digit_into(comp, self.decomp, level, spec);
            }
        }
        for (u, acc_u) in acc.components_mut().enumerate() {
            self.fft.inverse_mac_add_into(
                &ws.digit_spectra,
                ggsw.rows(),
                u,
                acc_u,
                &mut ws.scratch,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ggsw::GgswCiphertext;
    use crate::keys::GlweSecretKey;
    use crate::params::ParamSet;
    use morphling_math::{Polynomial, SignedDecomposer, Torus32, TorusScalar};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn coarse_msg(n: usize, seed: u32) -> Polynomial<Torus32> {
        Polynomial::from_fn(n, |j| {
            Torus32::from_raw((((j as u32 * seed) % 4) << 30).wrapping_add(0))
        })
    }

    struct Setup {
        params: TfheParams,
        key: GlweSecretKey,
        rng: StdRng,
    }

    /// `acc += ggsw ⊡ (X^ã·acc − acc)` as the staged composition of the
    /// public stage functions, every intermediate in a buffer of its own:
    /// the reference the fused pipeline must equal bit for bit.
    fn rotate_cmux_staged(
        engine: &ExternalProductEngine,
        ggsw: &FourierGgsw,
        acc: &mut GlweCiphertext,
        a_tilde: i64,
    ) {
        use morphling_transform::Spectrum;
        let (n, l) = (acc.poly_size(), engine.decomp.level());
        let decomposer = SignedDecomposer::<Torus32>::new(engine.decomp);
        let lambda = acc.monomial_mul_minus_one(a_tilde);
        let mut digit_polys = vec![Polynomial::<i64>::zero(n); ggsw.row_count()];
        for (comp, rows) in lambda.components().zip(digit_polys.chunks_mut(l)) {
            decomposer.decompose_poly_into(comp, rows);
        }
        let mut digit_spectra = vec![Spectrum::zero(n); ggsw.row_count()];
        for (p, s) in digit_polys.iter().zip(&mut digit_spectra) {
            engine.fft.forward_int_into(p, s);
        }
        let mut acc_spectra = vec![Spectrum::zero(n); acc.dim() + 1];
        for (r, digit_spec) in digit_spectra.iter().enumerate() {
            for (acc_u, row_u) in acc_spectra.iter_mut().zip(ggsw.row(r)) {
                acc_u.mul_acc(digit_spec, row_u);
            }
        }
        let mut product = vec![Polynomial::zero(n); acc.dim() + 1];
        for (s, p) in acc_spectra.iter().zip(&mut product) {
            engine.fft.inverse_torus_into(s, p, &mut Vec::new());
        }
        acc.add_assign_components(&product);
    }

    fn setup(noiseless: bool) -> Setup {
        let params = if noiseless {
            ParamSet::Test.params().noiseless()
        } else {
            ParamSet::Test.params()
        };
        let mut rng = StdRng::seed_from_u64(40);
        let key = GlweSecretKey::generate(params.glwe_dim, params.poly_size, &mut rng);
        Setup { params, key, rng }
    }

    #[test]
    fn external_product_with_one_preserves_message() {
        let Setup {
            params,
            key,
            mut rng,
        } = setup(false);
        let m = coarse_msg(params.poly_size, 3);
        let ct = GlweCiphertext::encrypt(&m, &key, params.glwe_noise_std, &mut rng);
        let ggsw = GgswCiphertext::encrypt(1, &key, &params, &mut rng);
        let engine = ExternalProductEngine::new(&params);
        let out = engine.external_product(&ggsw.to_fourier(engine.fft()), &ct);
        let phase = key.phase(&out);
        for j in 0..params.poly_size {
            assert_eq!(phase[j].decode(4), m[j].decode(4), "j={j}");
        }
    }

    #[test]
    fn external_product_with_zero_kills_message() {
        let Setup {
            params,
            key,
            mut rng,
        } = setup(false);
        let m = coarse_msg(params.poly_size, 5);
        let ct = GlweCiphertext::encrypt(&m, &key, params.glwe_noise_std, &mut rng);
        let ggsw = GgswCiphertext::encrypt(0, &key, &params, &mut rng);
        let engine = ExternalProductEngine::new(&params);
        let out = engine.external_product(&ggsw.to_fourier(engine.fft()), &ct);
        let phase = key.phase(&out);
        for j in 0..params.poly_size {
            assert_eq!(phase[j].decode(4), 0, "j={j}");
        }
    }

    #[test]
    fn cmux_selects_by_the_encrypted_bit() {
        let Setup {
            params,
            key,
            mut rng,
        } = setup(false);
        let m0 = coarse_msg(params.poly_size, 2);
        let m1 = coarse_msg(params.poly_size, 3);
        let c0 = GlweCiphertext::encrypt(&m0, &key, params.glwe_noise_std, &mut rng);
        let c1 = GlweCiphertext::encrypt(&m1, &key, params.glwe_noise_std, &mut rng);
        let engine = ExternalProductEngine::new(&params);
        for bit in [0i64, 1] {
            let ggsw =
                GgswCiphertext::encrypt(bit, &key, &params, &mut rng).to_fourier(engine.fft());
            // CMUX: `c0 + ggsw ⊡ (c1 − c0)`.
            let selected = c0.add(&engine.external_product(&ggsw, &c1.sub(&c0)));
            let want = if bit == 1 { &m1 } else { &m0 };
            let phase = key.phase(&selected);
            for j in 0..params.poly_size {
                assert_eq!(phase[j].decode(4), want[j].decode(4), "bit={bit} j={j}");
            }
        }
    }

    #[test]
    fn rotate_cmux_rotates_when_bit_is_one() {
        let Setup {
            params,
            key,
            mut rng,
        } = setup(false);
        let m = coarse_msg(params.poly_size, 11);
        let ct = GlweCiphertext::encrypt(&m, &key, params.glwe_noise_std, &mut rng);
        let engine = ExternalProductEngine::new(&params);
        let rot = 37i64;
        for bit in [0i64, 1] {
            let ggsw =
                GgswCiphertext::encrypt(bit, &key, &params, &mut rng).to_fourier(engine.fft());
            let mut out = ct.clone();
            let mut ws = engine.workspace(params.glwe_dim);
            engine.rotate_cmux_into(&ggsw, &mut out, rot, &mut ws);
            let want = if bit == 1 {
                m.monomial_mul(rot)
            } else {
                m.clone()
            };
            let phase = key.phase(&out);
            for j in 0..params.poly_size {
                assert_eq!(phase[j].decode(4), want[j].decode(4), "bit={bit} j={j}");
            }
        }
    }

    #[test]
    fn rotate_cmux_into_is_bit_identical_to_the_staged_reference() {
        // Chained rotations through one reused workspace, k = 1 and
        // k = 2, exponents on both sides of every wrap: each step must
        // equal the staged reference bit for bit — nothing may leak from
        // one external product into the next.
        for set in [ParamSet::Test, ParamSet::TestMedium] {
            let params = set.params();
            let n = params.poly_size as i64;
            let mut rng = StdRng::seed_from_u64(42);
            let key = GlweSecretKey::generate(params.glwe_dim, params.poly_size, &mut rng);
            let m = coarse_msg(params.poly_size, 11);
            let ct = GlweCiphertext::encrypt(&m, &key, params.glwe_noise_std, &mut rng);
            let engine = ExternalProductEngine::new(&params);
            let ggsw = GgswCiphertext::encrypt(1, &key, &params, &mut rng).to_fourier(engine.fft());
            let mut ws = engine.workspace(params.glwe_dim);
            let mut acc = ct.clone();
            for a_tilde in [0, 1, 5, 37, 211, n - 1, n, n + 1, 2 * n - 1] {
                let mut want = acc.clone();
                rotate_cmux_staged(&engine, &ggsw, &mut want, a_tilde);
                engine.rotate_cmux_into(&ggsw, &mut acc, a_tilde, &mut ws);
                assert_eq!(acc, want, "in place, set={set:?} a_tilde={a_tilde}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "workspace shape")]
    fn rotate_cmux_into_rejects_mismatched_workspace() {
        let params = ParamSet::Test.params();
        let mut rng = StdRng::seed_from_u64(43);
        let key = GlweSecretKey::generate(params.glwe_dim, params.poly_size, &mut rng);
        let engine = ExternalProductEngine::new(&params);
        let ggsw = GgswCiphertext::encrypt(1, &key, &params, &mut rng).to_fourier(engine.fft());
        let mut acc = GlweCiphertext::zero(params.glwe_dim, params.poly_size);
        let mut ws = engine.workspace(params.glwe_dim + 1);
        engine.rotate_cmux_into(&ggsw, &mut acc, 3, &mut ws);
    }

    #[test]
    fn works_with_k_greater_than_one() {
        // k = 2 (set-B shape, shrunk): the reuse the paper targets needs
        // k > 1 to shine; make sure the functional layer handles it.
        let params = ParamSet::TestMedium.params();
        let mut rng = StdRng::seed_from_u64(41);
        let key = GlweSecretKey::generate(params.glwe_dim, params.poly_size, &mut rng);
        let m = coarse_msg(params.poly_size, 13);
        let ct = GlweCiphertext::encrypt(&m, &key, params.glwe_noise_std, &mut rng);
        let engine = ExternalProductEngine::new(&params);
        let ggsw = GgswCiphertext::encrypt(1, &key, &params, &mut rng).to_fourier(engine.fft());
        let out = engine.external_product(&ggsw, &ct);
        let phase = key.phase(&out);
        for j in 0..params.poly_size {
            assert_eq!(phase[j].decode(4), m[j].decode(4), "j={j}");
        }
    }
}
