//! Integration tests: the full TFHE pipeline at realistic (paper)
//! parameter sets.

use morphling_math::{Torus32, TorusScalar};
use morphling_tfhe::{
    cmux, modulus_switch, noise, BootstrapOptions, ClientKey, ExternalProductEngine,
    GlweCiphertext, Lut, LweCiphertext, MulBackend, ParamSet, ServerKey,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Set I (the paper's 80-bit benchmark set, N=1024, n=500): gate
/// bootstrapping works end to end.
#[test]
fn set_i_gate_bootstrapping() {
    let mut rng = StdRng::seed_from_u64(1000);
    let ck = ClientKey::generate(ParamSet::I.params(), &mut rng);
    let sk = ServerKey::new(&ck, &mut rng);
    let a = ck.encrypt_bool(true, &mut rng);
    let b = ck.encrypt_bool(true, &mut rng);
    assert!(!ck.decrypt_bool(&sk.nand(&a, &b)));
    assert!(ck.decrypt_bool(&sk.or(&a, &b)));
}

/// Set I programmable bootstrap with a nontrivial LUT on Z_4.
#[test]
fn set_i_programmable_bootstrap() {
    let mut rng = StdRng::seed_from_u64(1001);
    let params = ParamSet::I.params();
    let ck = ClientKey::generate(params.clone(), &mut rng);
    let sk = ServerKey::new(&ck, &mut rng);
    let lut = Lut::from_fn(params.poly_size, 4, |m| (m * m) % 4);
    for m in 0..4 {
        let ct = ck.encrypt(m, &mut rng);
        assert_eq!(
            ck.decrypt(&sk.programmable_bootstrap(&ct, &lut)),
            (m * m) % 4,
            "m={m}"
        );
    }
}

/// TestMedium (k = 2, the dimension regime where transform-domain reuse
/// matters most): full pipeline with p = 8.
#[test]
fn k2_pipeline_with_p8() {
    let mut rng = StdRng::seed_from_u64(1002);
    let params = ParamSet::TestMedium.params();
    let ck = ClientKey::generate(params.clone(), &mut rng);
    let sk = ServerKey::new(&ck, &mut rng);
    let lut = Lut::from_fn(params.poly_size, 8, |m| (7 - m) % 8);
    for m in 0..8 {
        let ct = ck.encrypt(m, &mut rng);
        assert_eq!(
            ck.decrypt(&sk.programmable_bootstrap(&ct, &lut)),
            (7 - m) % 8,
            "m={m}"
        );
    }
}

/// Noise must stay bounded across a long chain of bootstraps (the whole
/// point of bootstrapping): 10 chained identity bootstraps with additions
/// in between.
#[test]
fn noise_stays_bounded_across_a_chain() {
    let mut rng = StdRng::seed_from_u64(1003);
    let params = ParamSet::Test.params();
    let ck = ClientKey::generate(params.clone(), &mut rng);
    let sk = ServerKey::new(&ck, &mut rng);
    let zero = ck.encrypt(0, &mut rng);
    let mut ct = ck.encrypt(3, &mut rng);
    for hop in 0..10 {
        ct = ct.add(&zero); // leveled op grows noise a little
        ct = sk.bootstrap(&ct); // bootstrap resets it
        assert_eq!(ck.decrypt(&ct), 3, "hop={hop}");
        let err = noise::measured_error(&ck, &ct, Torus32::encode(3, 8)).abs();
        assert!(err < noise::decryption_margin(4), "hop={hop} err={err}");
    }
}

/// Where the `Fft` blind rotation of `ct` first leaves the exact one:
/// every step starts from the exact accumulator, so the answer names the
/// CMUX that rounded wrongly, not the first one downstream of it.
fn first_differing_cmux(sk: &ServerKey, ct: &LweCiphertext, lut: &Lut) -> String {
    let params = sk.params();
    let engine = ExternalProductEngine::new(params);
    let (mask, b_tilde) = modulus_switch(ct, params.two_n());
    let mut acc = GlweCiphertext::trivial(lut.polynomial().clone(), params.glwe_dim)
        .monomial_mul(-(b_tilde as i64));
    for (i, &a_tilde) in mask.iter().enumerate().filter(|(_, &a)| a != 0) {
        let bsk = sk.bootstrap_key();
        let got = engine.rotate_cmux(bsk.fourier(i), &acc, a_tilde as i64);
        let rotated = acc.monomial_mul(a_tilde as i64);
        acc = cmux(&bsk.coefficient(i), &acc, &rotated, params);
        let differing = got
            .components()
            .zip(acc.components())
            .position(|(g, w)| g != w);
        if let Some(c) = differing {
            return format!("first differing CMUX: step {i}, GLWE component {c}");
        }
    }
    "every CMUX equals the exact one: the difference is outside the blind rotation".into()
}

/// Same seed, same bits: the `Exact` backend returns the ciphertexts the
/// `Fft` one does through a PBS of each of `messages` (the f64 transform
/// is exact on the 32-bit torus at these sets — a change of its rounding
/// that costs a ciphertext bit fails here, and says at which CMUX).
fn assert_backends_are_bit_identical(set: ParamSet, messages: &[u64]) {
    let params = set.params();
    let p = params.plaintext_modulus;
    let lut = Lut::from_fn(params.poly_size, p, |m| (m + 1) % p);
    let [(sk, cts, want), (_, _, got)] = [MulBackend::Fft, MulBackend::Exact].map(|backend| {
        let mut rng = StdRng::seed_from_u64(1004);
        let ck = ClientKey::generate(params.clone(), &mut rng);
        let sk = ServerKey::builder().backend(backend).build(&ck, &mut rng);
        let cts: Vec<_> = messages.iter().map(|&m| ck.encrypt(m, &mut rng)).collect();
        let outs: Vec<_> = cts
            .iter()
            .map(|ct| sk.programmable_bootstrap(ct, &lut))
            .collect();
        for (&m, out) in messages.iter().zip(&outs) {
            assert_eq!(ck.decrypt(out), (m + 1) % p, "{set:?} {backend:?} m={m}");
        }
        (sk, cts, outs)
    });
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!(
            g == w,
            "{set:?} m={}: Exact differs from Fft — {}",
            messages[i],
            first_differing_cmux(&sk, &cts[i], &lut)
        );
    }
}

/// The exact (integer oracle) backend and the FFT backend produce the
/// same ciphertexts, bit for bit, through a full PBS.
#[test]
fn exact_and_fft_backends_decode_identically() {
    assert_backends_are_bit_identical(ParamSet::Test, &[0, 1, 2, 3]);
    assert_backends_are_bit_identical(ParamSet::TestMedium, &[1, 6]);
}

/// The same at every functional paper set — k = 2 (B) and k = 3, N = 512
/// (C) included. Minutes in a debug build: the release CI job runs it.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow without optimizations")]
fn paper_set_backends_are_bit_identical() {
    for set in [
        ParamSet::I,
        ParamSet::II,
        ParamSet::III,
        ParamSet::B,
        ParamSet::C,
    ] {
        assert_backends_are_bit_identical(set, &[1, 2]);
    }
}

/// The extracted (pre-key-switch) ciphertext decrypts under the extracted
/// key — i.e. sample extraction and key switching compose correctly.
#[test]
fn pbs_without_ks_is_under_the_extracted_key() {
    let mut rng = StdRng::seed_from_u64(1005);
    let params = ParamSet::Test.params();
    let ck = ClientKey::generate(params.clone(), &mut rng);
    let sk = ServerKey::new(&ck, &mut rng);
    let lut = Lut::identity(params.poly_size, 4);
    let ct = ck.encrypt(2, &mut rng);
    let extracted = sk
        .bootstrap_with_options(&ct, &lut, BootstrapOptions::new().keyswitch(false))
        .expect("bootstrap without the key switch");
    assert_eq!(extracted.dim(), params.extracted_lwe_dim());
    assert_eq!(ck.decrypt_extracted(&extracted), 2);
}

/// An encrypted 4-bit ripple-carry adder built purely from bootstrapped
/// gates — a realistic "many dependent gates" workload.
#[test]
fn four_bit_ripple_carry_adder() {
    let mut rng = StdRng::seed_from_u64(1006);
    let ck = ClientKey::generate(ParamSet::Test.params(), &mut rng);
    let sk = ServerKey::new(&ck, &mut rng);

    let add = |x: u32, y: u32, rng: &mut StdRng| -> u32 {
        let xe: Vec<_> = (0..4)
            .map(|i| ck.encrypt_bool(x >> i & 1 == 1, rng))
            .collect();
        let ye: Vec<_> = (0..4)
            .map(|i| ck.encrypt_bool(y >> i & 1 == 1, rng))
            .collect();
        let mut carry = ck.encrypt_bool(false, rng);
        let mut out = 0u32;
        for i in 0..4 {
            let s = sk.xor(&sk.xor(&xe[i], &ye[i]), &carry);
            let c = sk.or(
                &sk.and(&xe[i], &ye[i]),
                &sk.and(&carry, &sk.xor(&xe[i], &ye[i])),
            );
            carry = c;
            if ck.decrypt_bool(&s) {
                out |= 1 << i;
            }
        }
        out
    };

    for (x, y) in [(3u32, 5u32), (7, 9), (15, 1), (6, 6)] {
        assert_eq!(add(x, y, &mut rng), (x + y) & 0xF, "{x}+{y}");
    }
}
