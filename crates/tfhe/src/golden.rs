//! Known-answer vectors: the output ciphertexts of seeded keys and inputs,
//! through every bootstrap path, and the accumulator along one blind
//! rotation, as committed digests.
//!
//! Ciphertext bits depend on nothing but the seed — not on the host, not
//! on the vector ISA the transform kernel picked, not on how spectra are
//! laid out or which butterfly network produced them — because the f64
//! transform is exact on this torus (`full_pipeline.rs` holds every PBS
//! to the [`oracle`](crate::oracle) bit for bit). That is only ever
//! *compared* between the kernels one host can run; a constant in the
//! tree holds every host, every ISA and every future kernel to the same
//! bits. The step chain says *where* a change first moves a bit: the
//! accumulator's digest after steps 1, 2, 4, …, 2^⌊log₂ n⌋ and n. A change
//! that moves them on purpose (a new sampler, a new noise parameter)
//! re-baselines this table, chain included, and says so; a transform
//! change must pass it unedited.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use morphling_math::Torus32;

use crate::bootstrap::{initial_accumulator, modulus_switch};
use crate::oracle;
use crate::serialize::{fnv1a_words, serialize_server_key};
use crate::{
    BatchRequest, BootstrapEngine, BootstrapOptions, Bootstrapper, ClientKey, GlweCiphertext, Lut,
    LweCiphertext, ParamSet, ServerKey,
};

/// The word-wise FNV of key frames, over `words`.
fn fnv(words: impl Iterator<Item = Torus32>) -> u64 {
    let bytes: Vec<u8> = words.flat_map(|w| w.into_raw().to_le_bytes()).collect();
    fnv1a_words(&bytes)
}

/// [`fnv`] over `mask ‖ body` of every ciphertext in order.
fn digest(cts: &[LweCiphertext]) -> u64 {
    fnv(cts
        .iter()
        .flat_map(|ct| ct.mask().iter().copied().chain([ct.body()])))
}

/// The rotation of `ct` through `lut` with `step` as its step: the
/// [`fnv`] of the accumulator, component by component, after steps 1, 2,
/// 4, …, 2^⌊log₂ n⌋ and n.
fn chain(
    sk: &ServerKey,
    ct: &LweCiphertext,
    lut: &Lut,
    mut step: impl FnMut(usize, u64, &mut GlweCiphertext),
) -> Vec<u64> {
    let (mask, b_tilde) = modulus_switch(ct, sk.params().two_n());
    let mut acc = initial_accumulator(lut.polynomial(), sk.params().glwe_dim, b_tilde);
    let mut chain = Vec::new();
    for (i, &a_tilde) in mask.iter().enumerate() {
        step(i, a_tilde, &mut acc);
        if (i + 1).is_power_of_two() || i + 1 == mask.len() {
            chain.push(fnv(acc.components().flat_map(|c| c.iter().copied())));
        }
    }
    chain
}

/// `[plain, no key switch, multi-value (3 LUTs), tree, engine batch]` at
/// `set`, every output decrypted and checked on the way, the word-wise
/// FNV of the server key's frame, and the step chain of the first plain
/// input, held to the oracle's on the way.
fn digests(set: ParamSet) -> ([u64; 5], u64, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(0x0060_1DE2 + set as u64);
    let params = set.params();
    let (n, p) = (params.poly_size, params.plaintext_modulus);
    let ck = ClientKey::generate(params, &mut rng);
    let sk = Arc::new(ServerKey::new(&ck, &mut rng));
    // A frame ends in the FNV of what precedes it: that is the digest.
    let blob = serialize_server_key(&sk);
    let frame = fnv1a_words(&blob[..blob.len() - 8]);
    let messages = [0, 1, p - 1, 2];
    let cts: Vec<LweCiphertext> = messages.iter().map(|&m| ck.encrypt(m, &mut rng)).collect();
    let luts = vec![
        Lut::from_fn(n, p, |m| (m + 1) % p),
        Lut::from_fn(n, p, |m| (3 * m) % p),
        Lut::identity(n, p),
    ];
    let want = |j: usize, m: u64| [(m + 1) % p, (3 * m) % p, m][j];

    let plain: Vec<_> = (cts.iter())
        .map(|ct| sk.programmable_bootstrap(ct, &luts[0]))
        .collect();
    for (out, &m) in plain.iter().zip(&messages) {
        assert_eq!(ck.decrypt(out), want(0, m), "{set:?} plain m={m}");
    }

    let extracted: Vec<_> = (cts.iter())
        .map(|ct| {
            sk.bootstrap_with_options(ct, &luts[1], BootstrapOptions::new().keyswitch(false))
                .expect("bootstrap without the key switch")
        })
        .collect();
    for (out, &m) in extracted.iter().zip(&messages) {
        assert_eq!(ck.decrypt_extracted(out), want(1, m), "{set:?} no-ks m={m}");
    }

    let mut multi = Vec::new();
    for (ct, &m) in cts.iter().zip(&messages) {
        let outs = sk
            .try_programmable_bootstrap_many_with(ct, &luts, &mut sk.workspace())
            .expect("multi-value");
        for (j, out) in outs.iter().enumerate() {
            assert_eq!(
                ck.decrypt(out),
                want(j, m),
                "{set:?} multi-value m={m} #{j}"
            );
        }
        multi.extend(outs);
    }

    // Two digits in, their sum and their product out.
    let tree_of = [|d: &[u64]| d[0] + d[1], |d: &[u64]| d[0] * d[1]];
    let tree = (sk.try_tree_bootstrap_many(&cts[1..3], &tree_of)).expect("tree bootstrap");
    let (a, b) = (messages[1], messages[2]);
    assert_eq!(ck.decrypt(&tree[0]), (a + b) % p, "{set:?} tree sum");
    assert_eq!(ck.decrypt(&tree[1]), (a * b) % p, "{set:?} tree product");

    // Five ciphertexts over two workers: chunks of three and two.
    let engine = (BootstrapEngine::builder().workers(2))
        .build(Arc::clone(&sk))
        .expect("two workers");
    let batch: Vec<_> = cts.iter().chain(&cts[..1]).cloned().collect();
    let engine_out = engine
        .try_bootstrap_batch(&BatchRequest::shared(batch, luts[0].clone()))
        .expect("engine batch");
    assert_eq!(engine_out[..4], plain[..], "{set:?} engine ≠ sequential");

    let steps = chain(&sk, &cts[0], &luts[0], oracle::product_step(&sk));
    let exact = chain(&sk, &cts[0], &luts[0], |i, a_tilde, acc| {
        *acc = oracle::step(&sk, i, a_tilde, acc)
    });
    assert_eq!(
        steps, exact,
        "{set:?}: the product's step chain left the oracle's"
    );

    let outputs = [&plain, &extracted, &multi, &tree, &engine_out].map(|outs| digest(outs));
    (outputs, frame, steps)
}

/// Holds `set`'s digests to the committed ones, printing both as written
/// here. The frame digest holds the key's wire form: its coefficients are
/// derived from the spectra the key keeps, so they must write the bytes
/// the sampled coefficients did.
fn assert_digests(
    set: ParamSet,
    committed: [u64; 5],
    committed_frame: u64,
    committed_chain: &[u64],
) {
    let (got, frame, steps) = digests(set);
    assert!(
        got == committed,
        "{set:?} [plain, no-ks, multi-value, tree, engine]: got {got:#018X?}, \
         committed {committed:#018X?}"
    );
    assert!(
        frame == committed_frame,
        "{set:?} server key frame: got {frame:#018X}, committed {committed_frame:#018X}"
    );
    assert!(
        steps == committed_chain,
        "{set:?} step chain: got {steps:#018X?}, committed {committed_chain:#018X?}"
    );
}

#[test]
fn golden_digests_at_the_test_sets() {
    assert_digests(
        ParamSet::Test,
        [
            0x6E6C_9053_8A7D_DC6F,
            0xD897_55EB_0CB3_32F2,
            0x3210_40B4_73CA_19B7,
            0xBF5F_82A0_4B8B_EE8C,
            0x9E98_E51A_157C_1CC6,
        ],
        0xD3AB_EA92_DD5D_E6A5,
        &[
            0x41C5_B9C7_8CCD_E589,
            0x7B56_5D13_CECA_2A54,
            0x2356_290A_A0F3_316D,
            0x21D3_C9BE_F92D_B344,
            0xF43B_E45B_9D96_E7D8,
        ],
    );
    assert_digests(
        ParamSet::TestMedium,
        [
            0x850E_9F75_B662_C307,
            0x5784_621F_E555_E4A1,
            0xF97C_16DB_85BD_DB45,
            0x1F0C_8758_64E1_AE35,
            0x26FA_F663_A7BA_5366,
        ],
        0x1D03_76D9_F26D_23E2,
        &[
            0xFC33_222E_5341_5012,
            0x6596_D4DE_8014_F137,
            0xC361_0D4E_C55A_481B,
            0x5BAA_AAA1_B2A9_0A4E,
            0x753F_ADA1_C5B7_F594,
            0x7E75_4025_A94D_73F9,
            0xEC37_76B2_5BE4_8158,
        ],
    );
}

/// Minutes in a debug build: the release CI job runs it.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow without optimizations")]
fn golden_digests_at_set_i() {
    assert_digests(
        ParamSet::I,
        [
            0xD3A8_9B8F_9A8F_3B59,
            0x5463_A859_0863_5286,
            0x6419_77B6_6970_9C93,
            0xF450_C779_BE7C_E102,
            0x685D_F9AC_84F5_C5AF,
        ],
        0x87C6_425E_0703_6C12,
        &[
            0x92B2_3653_C5C2_7C6D,
            0x0182_C627_AC22_44AF,
            0xD5AA_8000_5C15_C8FA,
            0xA422_6B25_4288_9D66,
            0x3626_AB49_DBEF_AD29,
            0xB17B_9AC9_5ABB_307D,
            0xF7D0_0573_5AE5_8948,
            0xF418_AAB3_53BD_5393,
            0x149E_F2D9_84D6_679D,
            0x1F5F_2643_87AB_2AD9,
        ],
    );
}
