//! The external product `GGSW ⊡ GLWE` and the CMUX — the inner loop of the
//! blind rotation (Algorithm 1, line 4) and the paper's most
//! compute-intensive operation (97% of all bootstrapping work, §I).
//!
//! Two implementations are provided:
//!
//! - [`ExternalProductEngine`]: the transform-domain path the hardware
//!   accelerates — decompose, forward-FFT the digit polynomials (optionally
//!   two at a time via the merge-split FFT), multiply-accumulate against
//!   the precomputed BSK spectra, and inverse-FFT once per output
//!   component. The accumulation order mirrors the VPE array with the
//!   ACC-output-stationary dataflow. There is one implementation: the
//!   allocating entry points run it in a workspace of their own.
//! - [`external_product`] (free function): an exact integer-domain oracle
//!   with no floating point, used to validate the FFT path.

use std::sync::Arc;

use morphling_math::negacyclic::mul_int_torus32;
use morphling_math::{Polynomial, SignedDecomposer, Torus32};
use morphling_transform::NegacyclicFft;

use crate::fft_cache::fft_for;
use crate::ggsw::{FourierGgsw, GgswCiphertext};
use crate::glwe::GlweCiphertext;
use crate::params::TfheParams;
use crate::workspace::BootstrapWorkspace;

/// Transform-domain external-product engine (the software model of one
/// XPU's datapath).
#[derive(Debug)]
pub struct ExternalProductEngine {
    /// The process-wide transform engine for this polynomial size.
    fft: Arc<NegacyclicFft>,
    decomposer: SignedDecomposer<Torus32>,
    merge_split: bool,
}

impl ExternalProductEngine {
    /// Build an engine for `params`, with the merge-split FFT enabled.
    pub fn new(params: &TfheParams) -> Self {
        Self {
            fft: fft_for(params.poly_size),
            decomposer: SignedDecomposer::new(params.bsk_decomp),
            merge_split: true,
        }
    }

    /// Enable or disable the merge-split FFT (functional results are
    /// identical; this exists for the ablation benches).
    #[must_use]
    pub fn with_merge_split(mut self, enabled: bool) -> Self {
        self.merge_split = enabled;
        self
    }

    /// Whether the merge-split FFT is enabled.
    #[inline]
    pub fn merge_split(&self) -> bool {
        self.merge_split
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
        self.external_product_buffers(ggsw, &mut ws);
        GlweCiphertext::from_components(ws.product)
    }

    /// CMUX: `ct0 + ggsw ⊡ (ct1 − ct0)` — selects `ct1` when the GGSW
    /// encrypts 1 and `ct0` when it encrypts 0.
    pub fn cmux(
        &self,
        ggsw: &FourierGgsw,
        ct0: &GlweCiphertext,
        ct1: &GlweCiphertext,
    ) -> GlweCiphertext {
        ct0.add(&self.external_product(ggsw, &ct1.sub(ct0)))
    }

    /// The blind-rotation step: `ACC ← BSK_i ⊡ (X^ã · ACC − ACC) + ACC`
    /// (Algorithm 1 line 4), with the rotate-and-subtract fused as the
    /// double-pointer read does in hardware.
    pub fn rotate_cmux(
        &self,
        bsk_i: &FourierGgsw,
        acc: &GlweCiphertext,
        a_tilde: i64,
    ) -> GlweCiphertext {
        acc.add(&self.external_product(bsk_i, &acc.monomial_mul_minus_one(a_tilde)))
    }

    /// A [`BootstrapWorkspace`] sized for this engine's transform and
    /// gadget, serving accumulators of GLWE dimension `glwe_dim`.
    pub fn workspace(&self, glwe_dim: usize) -> BootstrapWorkspace {
        BootstrapWorkspace::with_shape(
            glwe_dim,
            self.fft.poly_len(),
            self.decomposer.params().level(),
        )
    }

    /// [`rotate_cmux`](Self::rotate_cmux) in place: updates `acc` through
    /// caller-owned workspace buffers and performs no heap allocation.
    /// Bit-identical to the allocating path.
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
        self.external_product_buffers(bsk_i, ws);
        acc.add_assign_components(&ws.product);
    }

    /// `ggsw ⊡ ws.lambda` into `ws.product`, every intermediate staged in
    /// the workspace: decompose (eq. (1)), forward-transform the digit
    /// rows (two per FFT pass under merge-split, §V-A.3),
    /// multiply-accumulate against the GGSW rows with one running spectrum
    /// per output component (the ACC-output-stationary dataflow of the VPE
    /// array), and inverse-transform once per component.
    fn external_product_buffers(&self, ggsw: &FourierGgsw, ws: &mut BootstrapWorkspace) {
        assert_eq!(
            ws.digit_polys.len(),
            ggsw.row_count(),
            "gadget level mismatch"
        );
        let l = self.decomposer.params().level();
        for (comp, rows) in ws.lambda.components().zip(ws.digit_polys.chunks_mut(l)) {
            self.decomposer.decompose_poly_into(comp, rows);
        }

        let scratch = &mut ws.scratch;
        if self.merge_split {
            let mut polys = ws.digit_polys.chunks_exact(2);
            let mut specs = ws.digit_spectra.chunks_exact_mut(2);
            for (pair, out) in (&mut polys).zip(&mut specs) {
                let (s0, s1) = out.split_at_mut(1);
                self.fft
                    .forward_pair_int_into(&pair[0], &pair[1], &mut s0[0], &mut s1[0], scratch);
            }
            if let ([last], [out]) = (polys.remainder(), specs.into_remainder()) {
                self.fft.forward_int_into(last, out);
            }
        } else {
            for (p, s) in ws.digit_polys.iter().zip(ws.digit_spectra.iter_mut()) {
                self.fft.forward_int_into(p, s);
            }
        }

        // Clear POLY-ACC-REG, then stream every row across all k+1 output
        // lanes.
        for s in ws.acc_spectra.iter_mut() {
            s.set_zero();
        }
        for (r, digit_spec) in ws.digit_spectra.iter().enumerate() {
            for (acc_u, row_u) in ws.acc_spectra.iter_mut().zip(ggsw.row(r)) {
                acc_u.mul_acc(digit_spec, row_u);
            }
        }

        if self.merge_split {
            let mut specs = ws.acc_spectra.chunks_exact(2);
            let mut outs = ws.product.chunks_exact_mut(2);
            for (pair, out) in (&mut specs).zip(&mut outs) {
                let (p0, p1) = out.split_at_mut(1);
                self.fft
                    .inverse_pair_torus_into(&pair[0], &pair[1], &mut p0[0], &mut p1[0], scratch);
            }
            if let ([last], [out]) = (specs.remainder(), outs.into_remainder()) {
                self.fft.inverse_torus_into(last, out, scratch);
            }
        } else {
            for (s, p) in ws.acc_spectra.iter().zip(ws.product.iter_mut()) {
                self.fft.inverse_torus_into(s, p, scratch);
            }
        }
    }
}

/// Exact integer-domain external product (correctness oracle).
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn external_product(
    ggsw: &GgswCiphertext,
    ct: &GlweCiphertext,
    params: &TfheParams,
) -> GlweCiphertext {
    assert_eq!(ggsw.glwe_dim(), ct.dim(), "GLWE dimension mismatch");
    let decomposer = SignedDecomposer::<Torus32>::new(params.bsk_decomp);
    let mut digit_polys: Vec<Polynomial<i64>> = Vec::new();
    for comp in ct.components() {
        digit_polys.extend(decomposer.decompose_poly(comp));
    }
    let k1 = ct.dim() + 1;
    let n = ct.poly_size();
    let mut out: Vec<Polynomial<Torus32>> = vec![Polynomial::zero(n); k1];
    for (r, digits) in digit_polys.iter().enumerate() {
        for (u, row_comp) in ggsw.rows()[r].components().enumerate() {
            out[u] += &mul_int_torus32(digits, row_comp);
        }
    }
    GlweCiphertext::from_components(out)
}

/// Exact CMUX built on [`external_product`].
pub fn cmux(
    ggsw: &GgswCiphertext,
    ct0: &GlweCiphertext,
    ct1: &GlweCiphertext,
    params: &TfheParams,
) -> GlweCiphertext {
    ct0.add(&external_product(ggsw, &ct1.sub(ct0), params))
}

/// Exact external product through the NTT backend (O(N log N) and
/// bit-identical to [`external_product`]; the "or NTT" path of §III).
pub fn external_product_ntt(
    ggsw: &GgswCiphertext,
    ct: &GlweCiphertext,
    params: &TfheParams,
    ntt: &morphling_transform::NegacyclicNtt,
) -> GlweCiphertext {
    assert_eq!(ggsw.glwe_dim(), ct.dim(), "GLWE dimension mismatch");
    assert_eq!(ntt.poly_len(), ct.poly_size(), "NTT engine size mismatch");
    let decomposer = SignedDecomposer::<Torus32>::new(params.bsk_decomp);
    let mut digit_polys: Vec<Polynomial<i64>> = Vec::new();
    for comp in ct.components() {
        digit_polys.extend(decomposer.decompose_poly(comp));
    }
    let k1 = ct.dim() + 1;
    let n = ct.poly_size();
    let mut out: Vec<Polynomial<Torus32>> = vec![Polynomial::zero(n); k1];
    for (r, digits) in digit_polys.iter().enumerate() {
        for (u, row_comp) in ggsw.rows()[r].components().enumerate() {
            out[u] += &ntt.mul_int_torus(digits, row_comp);
        }
    }
    GlweCiphertext::from_components(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::GlweSecretKey;
    use crate::params::ParamSet;
    use morphling_math::TorusScalar;
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
    fn fft_path_matches_exact_oracle() {
        let Setup {
            params,
            key,
            mut rng,
        } = setup(false);
        let m = coarse_msg(params.poly_size, 7);
        let ct = GlweCiphertext::encrypt(&m, &key, params.glwe_noise_std, &mut rng);
        let ggsw = GgswCiphertext::encrypt(1, &key, &params, &mut rng);
        let engine = ExternalProductEngine::new(&params);
        let fft_out = engine.external_product(&ggsw.to_fourier(engine.fft()), &ct);
        let exact_out = external_product(&ggsw, &ct, &params);
        // The f64 path may differ by ±1 raw unit from exact integer math;
        // with the TEST base (2^6) it is bit-exact.
        for (a, b) in fft_out.components().zip(exact_out.components()) {
            for j in 0..params.poly_size {
                let d = (a[j] - b[j]).to_signed().abs();
                assert!(d <= 1, "j={j} diff={d}");
            }
        }
    }

    #[test]
    fn merge_split_path_is_equivalent() {
        let Setup {
            params,
            key,
            mut rng,
        } = setup(false);
        let m = coarse_msg(params.poly_size, 9);
        let ct = GlweCiphertext::encrypt(&m, &key, params.glwe_noise_std, &mut rng);
        let ggsw = GgswCiphertext::encrypt(1, &key, &params, &mut rng);
        let with = ExternalProductEngine::new(&params);
        let without = ExternalProductEngine::new(&params).with_merge_split(false);
        let f = ggsw.to_fourier(with.fft());
        let a = with.external_product(&f, &ct);
        let b = without.external_product(&f, &ct);
        for (x, y) in a.components().zip(b.components()) {
            for j in 0..params.poly_size {
                assert!((x[j] - y[j]).to_signed().abs() <= 1, "j={j}");
            }
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
            let selected = engine.cmux(&ggsw, &c0, &c1);
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
            let out = engine.rotate_cmux(&ggsw, &ct, rot);
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
    fn rotate_cmux_into_is_bit_identical_to_allocating_path() {
        // Chained rotations, merge-split on and off, k = 1 and k = 2: a
        // workspace reused across steps must reproduce the allocating
        // path (a fresh workspace per step) bit for bit — nothing may
        // leak from one external product into the next.
        for set in [ParamSet::Test, ParamSet::TestMedium] {
            let params = set.params();
            let mut rng = StdRng::seed_from_u64(42);
            let key = GlweSecretKey::generate(params.glwe_dim, params.poly_size, &mut rng);
            let m = coarse_msg(params.poly_size, 11);
            let ct = GlweCiphertext::encrypt(&m, &key, params.glwe_noise_std, &mut rng);
            for ms in [true, false] {
                let engine = ExternalProductEngine::new(&params).with_merge_split(ms);
                let ggsw =
                    GgswCiphertext::encrypt(1, &key, &params, &mut rng).to_fourier(engine.fft());
                let mut ws = engine.workspace(params.glwe_dim);
                let mut acc = ct.clone();
                for a_tilde in [0i64, 5, 37, 211] {
                    let want = engine.rotate_cmux(&ggsw, &acc, a_tilde);
                    engine.rotate_cmux_into(&ggsw, &mut acc, a_tilde, &mut ws);
                    assert_eq!(acc, want, "set={set:?} ms={ms} a_tilde={a_tilde}");
                }
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
