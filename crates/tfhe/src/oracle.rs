//! The correctness oracle: blind rotation as one exact step.
//!
//! Algorithm 1 line 4 is a single step, `ACC ← BSK_i ⊡ (X^ã·ACC − ACC) +
//! ACC`, taken `n` times from the test polynomial at `X^(−b̃)`, so each
//! step of a rotation can be checked alone. [`step`] writes it literally
//! with no floating point: every product is the two-prime NTT's (the
//! paper's "or NTT" alternative, §III), itself held to the schoolbook in
//! `morphling-transform`. [`bootstrap`] runs the key's one chunk pipeline
//! — modulus switch, [`MultiLutPlan`](crate::MultiLutPlan), extraction,
//! key switch — with that step as the rotation, so a backend is held to
//! it bit for bit, and [`first_divergence`] names the step and the GLWE
//! component where the product's transform-domain step first leaves it.
//! On this 32-bit torus the f64 transform is exact, and the two agree.

use morphling_math::{DecompParams, Polynomial, SignedDecomposer, Torus32};
use morphling_transform::NegacyclicNtt;

use crate::bootstrapper::BatchRequest;
use crate::error::TfheError;
use crate::external_product::ExternalProductEngine;
use crate::fft_cache::ntt_for;
use crate::ggsw::GgswCiphertext;
use crate::glwe::GlweCiphertext;
use crate::lwe::LweCiphertext;
use crate::params::TfheParams;
use crate::server::ServerKey;

/// One blind-rotation step through the NTT: `acc + BSK_i ⊡ (X^ã·acc −
/// acc)`, with `BSK_i` the key's [`coefficient`](crate::BootstrapKey::coefficient)
/// form. Every exponent takes the step, `ã = 0` included.
///
/// # Panics
///
/// Panics if the key's BSK digits (at most `β/2` in magnitude) leave the
/// NTT's exact range at its `N` (`N·(β/2)·2³¹ ≥ 2^58.8`; no
/// [`ParamSet`](crate::ParamSet) does), or if `i` is not below the LWE
/// dimension.
pub fn step(key: &ServerKey, i: usize, a_tilde: u64, acc: &GlweCiphertext) -> GlweCiphertext {
    let params = key.params();
    let (n, decomp) = (params.poly_size, params.bsk_decomp);
    assert!(
        in_range(params),
        "N = {n} with BSK base 2^{} is outside the NTT's exact range",
        decomp.base_log()
    );
    let lambda = acc.monomial_mul_minus_one(a_tilde as i64);
    let bsk_i = key.bootstrap_key().coefficient(i);
    acc.add(&external_product(&bsk_i, &lambda, decomp))
}

/// Whether the BSK digits of `params` (at most `β/2` in magnitude) are
/// inside the NTT's exact range at its `N`.
fn in_range(params: &TfheParams) -> bool {
    NegacyclicNtt::supports(params.poly_size, params.bsk_decomp.base() / 2)
}

/// `ggsw ⊡ ct` in integers: each component's signed gadget digits times
/// the GGSW rows, every product the NTT's.
fn external_product(
    ggsw: &GgswCiphertext,
    ct: &GlweCiphertext,
    decomp: DecompParams,
) -> GlweCiphertext {
    let decomposer = SignedDecomposer::<Torus32>::new(decomp);
    let digits = ct
        .components()
        .flat_map(|comp| decomposer.decompose_poly(comp));
    let ntt = ntt_for(ct.poly_size());
    let mut out = vec![Polynomial::zero(ct.poly_size()); ct.dim() + 1];
    for (digit, row) in digits.zip(ggsw.rows()) {
        for (out_u, row_u) in out.iter_mut().zip(row.components()) {
            *out_u += &ntt.mul_int_torus(&digit, row_u);
        }
    }
    GlweCiphertext::from_components(out)
}

/// `req` through `key` with [`step`] as the blind rotation: what every
/// [`Bootstrapper`](crate::Bootstrapper) over `key` must return, bit for
/// bit, outputs in the same order.
///
/// # Errors
///
/// As the key's own [`try_bootstrap_batch`](crate::Bootstrapper::try_bootstrap_batch).
///
/// # Panics
///
/// As [`step`], outside the NTT's exact range.
pub fn bootstrap(key: &ServerKey, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
    if req.is_empty() {
        return Ok(Vec::new());
    }
    key.validate_request(req)?;
    let extracted = key.extract_chunk(&req.items(0..req.len()), |accs, masks| {
        for (acc, mask) in accs.iter_mut().zip(masks) {
            for (i, &a_tilde) in mask.iter().enumerate() {
                *acc = step(key, i, a_tilde, acc);
            }
        }
    })?;
    key.key_switch_key().try_key_switch_many(&extracted)
}

/// Where item `item` of `req` first leaves the oracle: the item goes
/// through the key's own chunk pipeline, and every accumulator that
/// pipeline rotates — the common factor of the item's LUTs, or one per
/// LUT when they share none — is stepped through the product's
/// [`rotate_cmux_into`](crate::ExternalProductEngine::rotate_cmux_into)
/// and through [`step`] from the same value. The first step whose results
/// differ is returned with the first GLWE component that does — the step
/// that rounded wrongly, not one downstream of it. `None`: every step of
/// every accumulator agrees, and a difference is outside the blind
/// rotation.
///
/// # Panics
///
/// As [`step`]; and if `item` is out of range or its ciphertext or LUTs
/// do not fit the key.
pub fn first_divergence(
    key: &ServerKey,
    req: &BatchRequest,
    item: usize,
) -> Option<(usize, usize)> {
    divergence(key, req, item, product_step(key))
}

/// [`first_divergence`] over any `product` step.
fn divergence(
    key: &ServerKey,
    req: &BatchRequest,
    item: usize,
    mut product: impl FnMut(usize, u64, &mut GlweCiphertext),
) -> Option<(usize, usize)> {
    let mut first = None;
    key.extract_chunk(&req.items(item..item + 1), |accs, masks| {
        first = (accs.iter_mut().zip(masks))
            .find_map(|(acc, mask)| diverge(key, acc, mask, &mut product));
    })
    .expect("the item fits the key");
    first
}

/// The product's step `i` by `ã` on an accumulator, through its own
/// workspace.
pub(crate) fn product_step(key: &ServerKey) -> impl FnMut(usize, u64, &mut GlweCiphertext) + '_ {
    let engine = ExternalProductEngine::new(key.params());
    let mut ws = key.workspace();
    move |i, a_tilde, acc| {
        engine.rotate_cmux_into(key.bootstrap_key().fourier(i), acc, a_tilde as i64, &mut ws)
    }
}

/// The first step and component at which `product` leaves [`step`] on
/// one accumulator, from `acc`.
fn diverge(
    key: &ServerKey,
    acc: &mut GlweCiphertext,
    mask: &[u64],
    mut product: impl FnMut(usize, u64, &mut GlweCiphertext),
) -> Option<(usize, usize)> {
    for (i, &a_tilde) in mask.iter().enumerate() {
        let want = step(key, i, a_tilde, acc);
        product(i, a_tilde, acc);
        let differing = acc
            .components()
            .zip(want.components())
            .position(|(g, w)| g != w);
        if let Some(c) = differing {
            return Some((i, c));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::{initial_accumulator, modulus_switch};
    use crate::keys::{ClientKey, GlweSecretKey};
    use crate::lut::Lut;
    use crate::params::ParamSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (ClientKey, ServerKey, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ck = ClientKey::generate(ParamSet::Test.params(), &mut rng);
        let sk = ServerKey::new(&ck, &mut rng);
        (ck, sk, rng)
    }

    #[test]
    fn every_paper_set_is_inside_the_ntt_range() {
        // IV and A are the largest: 2¹²·2¹⁵·2³¹ = 2⁵⁸ < M/2 ≈ 2^58.8.
        for set in crate::params::ALL_PAPER_SETS.into_iter().chain([
            ParamSet::Fig1,
            ParamSet::Test,
            ParamSet::TestMedium,
        ]) {
            assert!(in_range(&set.params()), "{set:?}");
        }
        let mut wide = ParamSet::I.params();
        wide.bsk_decomp = DecompParams::new(19, 1);
        assert!(!in_range(&wide));
    }

    #[test]
    #[should_panic(expected = "outside the NTT's exact range")]
    fn a_key_outside_the_ntt_range_is_refused() {
        // 2⁵·2²³·2³¹ = 2⁵⁹ ≥ M/2: the product would be wrong, not
        // approximate. The key itself is fine on the transform path.
        let mut rng = StdRng::seed_from_u64(82);
        let mut params = ParamSet::Test.params();
        params.poly_size = 32;
        params.lwe_dim = 3;
        params.bsk_decomp = DecompParams::new(24, 1);
        let ck = ClientKey::generate(params, &mut rng);
        let sk = ServerKey::new(&ck, &mut rng);
        let _ = step(&sk, 0, 1, &GlweCiphertext::zero(1, 32));
    }

    #[test]
    fn the_transform_external_product_is_within_one_unit_of_the_exact_one() {
        let params = ParamSet::Test.params();
        let mut rng = StdRng::seed_from_u64(40);
        let key = GlweSecretKey::generate(params.glwe_dim, params.poly_size, &mut rng);
        let m = Polynomial::from_fn(params.poly_size, |j| {
            Torus32::from_raw(((j as u32 * 7) % 4) << 30)
        });
        let ct = GlweCiphertext::encrypt(&m, &key, params.glwe_noise_std, &mut rng);
        let ggsw = GgswCiphertext::encrypt(1, &key, &params, &mut rng);
        let engine = ExternalProductEngine::new(&params);
        let fft_out = engine.external_product(&ggsw.to_fourier(engine.fft()), &ct);
        let exact_out = external_product(&ggsw, &ct, params.bsk_decomp);
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
    fn first_divergence_names_the_step_and_component_that_went_wrong() {
        let (ck, sk, mut rng) = setup(83);
        let n = sk.params().poly_size;
        let luts = vec![Lut::identity(n, 4), Lut::from_fn(n, 4, |m| (m + 1) % 4)];
        let cts: Vec<_> = (0..2).map(|m| ck.encrypt(m, &mut rng)).collect();
        let req = BatchRequest::fanned_out(cts, luts, vec![vec![1, 0], vec![0]]).unwrap();
        for item in 0..2 {
            assert_eq!(first_divergence(&sk, &req, item), None, "item {item}");
        }
        // The product's step i, wrong in one bit of one coefficient of
        // component c, is named as such.
        let mut product = product_step(&sk);
        let last = sk.params().lwe_dim - 1;
        for (bad, component) in [(0, 0), (3, 1), (last, 0), (last, 1)] {
            let got = divergence(&sk, &req, 1, |i, a_tilde, acc| {
                product(i, a_tilde, acc);
                if i == bad {
                    flip(acc, component);
                }
            });
            assert_eq!(got, Some((bad, component)));
        }
    }

    /// One bit of one coefficient of component `c`.
    fn flip(acc: &mut GlweCiphertext, c: usize) {
        let poly = acc.components_mut().nth(c).unwrap();
        poly[7] = Torus32::from_raw(poly[7].into_raw() ^ 1 << 20);
    }

    #[test]
    fn first_divergence_checks_the_accumulator_a_fanout_item_rotates() {
        let (ck, sk, mut rng) = setup(84);
        let n = sk.params().poly_size;
        let luts = vec![Lut::identity(n, 4), Lut::from_fn(n, 4, |m| (m + 1) % 4)];
        let ct = ck.encrypt(2, &mut rng);
        let lists = vec![vec![1, 0]];
        let req = BatchRequest::fanned_out(vec![ct.clone()], luts.clone(), lists).unwrap();
        // Lists [1, 0] factor: the item rotates their common factor alone.
        let plan = crate::MultiLutPlan::build([&luts[1], &luts[0]]).expect("the LUTs factor");
        let (mask, b_tilde) = modulus_switch(&ct, sk.params().two_n());
        let start = |tp| initial_accumulator(tp, sk.params().glwe_dim, b_tilde);
        let common = start(plan.common());
        let (bad, component) = (5, 1);
        let mut product = product_step(&sk);
        let mut on_common = false;
        let mut corrupt = |i: usize, a_tilde: u64, acc: &mut GlweCiphertext| {
            on_common = if i == 0 { *acc == common } else { on_common };
            product(i, a_tilde, acc);
            if on_common && i == bad {
                flip(acc, component);
            }
        };
        assert_eq!(
            divergence(&sk, &req, 0, &mut corrupt),
            Some((bad, component))
        );
        // Stepping the item's first LUT instead sees nothing wrong.
        let mut acc = start(luts[1].polynomial());
        assert_eq!(diverge(&sk, &mut acc, &mask, &mut corrupt), None);
    }
}
