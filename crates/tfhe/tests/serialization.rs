//! Wire-format property tests for the five key types.
//!
//! The keystore trusts `morphling_tfhe::serialize` to be a bijection on
//! valid blobs and a loud rejector of everything else. This suite pins
//! both halves:
//!
//! - **round-trip**: serialize → deserialize is the identity for
//!   [`LweSecretKey`], [`GlweSecretKey`], [`BootstrapKey`],
//!   [`KeySwitchKey`], and [`ServerKey`], across random dimensions and
//!   both checked-in parameter sets;
//! - **truncation**: every proper prefix of a valid blob fails with
//!   [`TfheError::KeyCorrupted`] — never a panic, never a silent
//!   partial key;
//! - **corruption**: flipping any single bit of a valid blob fails
//!   (magic, version, kind, length, payload, and checksum bytes are all
//!   covered by the frame's checksum or its field validation);
//! - **versions**: frames are written as version 2 (word-wise checksum)
//!   and version-1 frames (byte-wise FNV-1a) still load, with the same
//!   guarantees.

use std::sync::OnceLock;

use morphling_tfhe::{
    deserialize_bootstrap_key, deserialize_glwe_secret_key, deserialize_key_switch_key,
    deserialize_lwe_secret_key, deserialize_server_key, serialize_bootstrap_key,
    serialize_glwe_secret_key, serialize_key_switch_key, serialize_lwe_secret_key,
    serialize_server_key, ClientKey, GlweSecretKey, KeySwitchKey, LweSecretKey, MulBackend,
    ParamSet, ServerKey, TfheError,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One serialized blob of every key type, generated once (BSK generation
/// dominates the suite's runtime).
fn blobs() -> &'static Vec<(&'static str, Vec<u8>)> {
    static BLOBS: OnceLock<Vec<(&'static str, Vec<u8>)>> = OnceLock::new();
    BLOBS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x5E81);
        let params = ParamSet::Test.params();
        let ck = ClientKey::generate(params.clone(), &mut rng);
        let sk = ServerKey::new(&ck, &mut rng);
        let ksk = KeySwitchKey::generate(
            &ck.glwe_key().to_extracted_lwe_key(),
            ck.lwe_key(),
            &params,
            &mut rng,
        );
        vec![
            ("lwe", serialize_lwe_secret_key(ck.lwe_key())),
            ("glwe", serialize_glwe_secret_key(ck.glwe_key())),
            ("bsk", serialize_bootstrap_key(sk.bootstrap_key())),
            ("ksk", serialize_key_switch_key(&ksk)),
            ("server", serialize_server_key(&sk)),
        ]
    })
}

/// Try to deserialize `bytes` as the key type named by `kind`.
fn try_parse(kind: &str, bytes: &[u8]) -> Result<(), TfheError> {
    match kind {
        "lwe" => deserialize_lwe_secret_key(bytes).map(|_| ()),
        "glwe" => deserialize_glwe_secret_key(bytes).map(|_| ()),
        "bsk" => deserialize_bootstrap_key(bytes).map(|_| ()),
        "ksk" => deserialize_key_switch_key(bytes).map(|_| ()),
        "server" => deserialize_server_key(bytes).map(|_| ()),
        other => unreachable!("unknown kind {other}"),
    }
}

#[test]
fn server_key_round_trips_for_both_test_param_sets() {
    for (seed, set) in [(0x11u64, ParamSet::Test), (0x22, ParamSet::TestMedium)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let ck = ClientKey::generate(set.params(), &mut rng);
        let sk = ServerKey::new(&ck, &mut rng);
        let back = deserialize_server_key(&serialize_server_key(&sk))
            .unwrap_or_else(|e| panic!("{set:?}: {e}"));
        assert_eq!(back.params(), sk.params(), "{set:?}");
        // The rebuilt key computes bit-identically: same bootstrap of
        // the same ciphertext.
        let lut = morphling_tfhe::Lut::identity(sk.params().poly_size, 4);
        let ct = ck.encrypt(2, &mut rng);
        assert_eq!(
            back.programmable_bootstrap(&ct, &lut),
            sk.programmable_bootstrap(&ct, &lut),
            "{set:?}: deserialized key must bootstrap bit-identically"
        );
    }
}

/// `blob` as a version-1 writer framed it (or a damaged version-1 frame
/// resealed): the version field says 1 and the trailer is byte-wise
/// FNV-1a-64 over everything before it.
fn as_version_1(blob: &[u8]) -> Vec<u8> {
    let mut old = blob.to_vec();
    old[4..6].copy_from_slice(&1u16.to_le_bytes());
    let body = old.len() - 8;
    let check = old[..body]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h: u64, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    old[body..].copy_from_slice(&check.to_le_bytes());
    old
}

/// Where a server-key frame keeps what: the frame header is magic 4,
/// version 2, kind 1, payload length 8; the parameter block is name
/// length 1, the name, then 77 bytes of fixed-width fields (`N`, `n`, `k`
/// 8 each, BSK base_log 4, BSK level 8, …), and the backend tag and the
/// two reserved bytes follow it.
fn param_fields_at(blob: &[u8]) -> usize {
    15 + 1 + usize::from(blob[15])
}

/// A server key as earlier writers framed it — version 1, backend tag 1
/// (the FFT path without merge-split) and the merge-split flag set —
/// still loads: both spellings meant the one FFT path there is now, and
/// re-encoding writes the current version and the tag and the flag as
/// zero. Likewise tag 2 (the NTT backend) is the exact backend, written
/// back as tag 3; a tag nobody ever wrote is a corrupted key.
#[test]
fn frames_with_the_retired_transform_flags_still_load() {
    let mut rng = StdRng::seed_from_u64(0x33);
    let ck = ClientKey::generate(ParamSet::Test.params(), &mut rng);
    let sk = ServerKey::new(&ck, &mut rng);
    let blob = serialize_server_key(&sk);
    let tag_at = param_fields_at(&blob) + 77;
    assert_eq!(blob[tag_at..tag_at + 2], [0, 0]);
    assert_eq!(blob[4..6], 2u16.to_le_bytes());
    let mut old = blob.clone();
    old[tag_at] = 1;
    old[tag_at + 1] = 1;
    let old = as_version_1(&old);

    let back = deserialize_server_key(&old).expect("an old frame loads");
    assert_eq!(back.backend(), MulBackend::Fft);
    assert_eq!(serialize_server_key(&back), blob);
    let lut = morphling_tfhe::Lut::from_fn(sk.params().poly_size, 4, |m| (m + 1) % 4);
    for m in 0..4 {
        let out = back.programmable_bootstrap(&ck.encrypt(m, &mut rng), &lut);
        assert_eq!(ck.decrypt(&out), (m + 1) % 4, "m={m}");
    }

    let with_tag = |tag: u8| {
        let mut frame = blob.clone();
        frame[tag_at] = tag;
        deserialize_server_key(&as_version_1(&frame))
    };
    let [ntt, exact] = [2, 3].map(|tag| with_tag(tag).expect("an exact-backend frame loads"));
    assert_eq!(ntt.backend(), MulBackend::Exact);
    assert_eq!(exact.backend(), MulBackend::Exact);
    let reencoded = serialize_server_key(&ntt);
    assert_eq!(reencoded[tag_at], 3);
    assert_eq!(reencoded, serialize_server_key(&exact));
    let ct = ck.encrypt(2, &mut rng);
    let out = ntt.programmable_bootstrap(&ct, &lut);
    assert_eq!(out, exact.programmable_bootstrap(&ct, &lut));
    assert_eq!(out, sk.programmable_bootstrap(&ct, &lut));
    assert!(matches!(with_tag(4), Err(TfheError::KeyCorrupted { .. })));
}

/// A bootstrapping-key frame whose shape header no transform engine
/// exists for (`N = 2` passes the power-of-two test), or whose header
/// counts more polynomials than `usize` holds, is a corrupted key — not a
/// panic in the engine's constructor or in the arithmetic sizing the rows.
#[test]
fn bsk_shape_headers_nothing_can_compute_with_are_rejected() {
    // (GGSW count, k, level, N), then the words the header promises.
    let frame = |shape: [u64; 4], words: usize| {
        let mut blob = b"MPHK\x01\x00\x03".to_vec();
        blob.extend((32 + 4 * words as u64).to_le_bytes());
        blob.extend(shape.iter().flat_map(|v| v.to_le_bytes()));
        blob.resize(blob.len() + 4 * words + 8, 0);
        as_version_1(&blob)
    };
    let well_formed = frame([1, 1, 1, 4], 16);
    assert!(deserialize_bootstrap_key(&well_formed).is_ok());
    for (shape, words) in [
        ([1, 1, 1, 2], 8),
        ([1, 1, 1, 4], 15),
        ([1, 1 << 33, 1 << 33, 4], 16),
        ([1 << 33, 1 << 32, 1, 4], 16),
    ] {
        let err = deserialize_bootstrap_key(&frame(shape, words)).unwrap_err();
        assert!(
            matches!(err, TfheError::KeyCorrupted { .. }),
            "{shape:?}: {err}"
        );
    }
}

/// A server-key frame whose parameter block disagrees with the keys
/// behind it fails where it is loaded, not at its first bootstrap: a BSK
/// of another gadget level than the block says (only `n` and the KSK's
/// dimensions used to be compared), a polynomial size no transform engine
/// exists for, and an exact-backend key whose digits leave the NTT's
/// exact range.
#[test]
fn server_key_frames_that_could_not_bootstrap_are_rejected() {
    let (_, blob) = &blobs()[4];
    let fields = param_fields_at(blob);
    let patched = |at: usize, bytes: &[u8]| {
        let mut bad = blob.clone();
        bad[at..at + bytes.len()].copy_from_slice(bytes);
        deserialize_server_key(&as_version_1(&bad))
    };
    let level_at = fields + 28;
    assert_eq!(blob[level_at..level_at + 8], 3u64.to_le_bytes());
    for (at, value, why) in [
        (
            level_at,
            2u64,
            "BSK shape (n, k, level, N) = (16, 1, 3, 256)",
        ),
        (fields, 2, "not a power of two ≥ 4"),
    ] {
        match patched(at, &value.to_le_bytes()).map(|_| ()) {
            Err(TfheError::KeyCorrupted { detail }) => {
                assert!(detail.contains(why), "unexpected detail: {detail}")
            }
            other => panic!("{why}: must be KeyCorrupted, got {other:?}"),
        }
    }

    // N = 32 with β/2 = 2²³: 2⁵·2²³·2³¹ = 2⁵⁹ is past the NTT's 2^58.8.
    let mut rng = StdRng::seed_from_u64(0x66);
    let mut params = ParamSet::Test.params();
    params.poly_size = 32;
    params.lwe_dim = 3;
    params.bsk_decomp = morphling_math::DecompParams::new(24, 1);
    let ck = ClientKey::generate(params, &mut rng);
    let mut wide = serialize_server_key(&ServerKey::new(&ck, &mut rng));
    assert!(deserialize_server_key(&wide).is_ok(), "fine on the FFT");
    let tag_at = param_fields_at(&wide) + 77;
    wide[tag_at] = 3;
    match deserialize_server_key(&as_version_1(&wide)).map(|_| ()) {
        Err(TfheError::KeyCorrupted { detail }) => {
            assert!(
                detail.contains("exact range"),
                "unexpected detail: {detail}"
            )
        }
        other => panic!("an out-of-range exact key must be KeyCorrupted, got {other:?}"),
    }
}

#[test]
fn every_blob_round_trips_and_rejects_the_empty_input() {
    for (kind, blob) in blobs() {
        assert!(try_parse(kind, blob).is_ok(), "{kind}: round trip");
        assert!(
            try_parse(kind, &as_version_1(blob)).is_ok(),
            "{kind}: version 1"
        );
        assert!(
            matches!(try_parse(kind, &[]), Err(TfheError::KeyCorrupted { .. })),
            "{kind}: empty input must be KeyCorrupted"
        );
    }
}

/// One flipped bit at every byte is rejected, under both checksums. Every
/// byte of the two Test-set secret keys and of a server key shrunk until
/// a quadratic sweep is affordable (it has every field a real one has);
/// the Test-set server key at a stride coprime to the checksum's word, so
/// that every offset within a word and every region of the payload is hit.
#[test]
fn a_flipped_bit_at_every_byte_is_rejected_in_both_versions() {
    let mut rng = StdRng::seed_from_u64(0x44);
    let mut params = ParamSet::Test.params();
    params.poly_size = 32;
    params.lwe_dim = 3;
    let ck = ClientKey::generate(params, &mut rng);
    let small = serialize_server_key(&ServerKey::new(&ck, &mut rng));
    assert!(deserialize_server_key(&small).is_ok());
    let [lwe, glwe, _, _, server] = &blobs()[..] else {
        unreachable!("five blobs")
    };
    let sweeps = [
        (lwe.0, &lwe.1, 1),
        (glwe.0, &glwe.1, 1),
        ("server", &small, 1),
        (server.0, &server.1, 1021),
    ];
    for (kind, blob, stride) in sweeps {
        for blob in [blob.clone(), as_version_1(blob)] {
            for pos in (0..blob.len()).step_by(stride) {
                let mut bad = blob.clone();
                bad[pos] ^= 1 << (pos % 8);
                assert!(
                    matches!(try_parse(kind, &bad), Err(TfheError::KeyCorrupted { .. })),
                    "{kind} v{}: bit {} of byte {pos} flipped and the blob still parsed",
                    blob[4],
                    pos % 8
                );
            }
        }
    }
}

/// The key-switching key's payload is its in-memory layout: decoding it is
/// one bulk read, and what comes back is the generated key row for row.
#[test]
fn flat_decoded_ksk_equals_the_generated_one() {
    let mut rng = StdRng::seed_from_u64(0x55);
    let params = ParamSet::Test.params();
    let ck = ClientKey::generate(params.clone(), &mut rng);
    let ksk = KeySwitchKey::generate(
        &ck.glwe_key().to_extracted_lwe_key(),
        ck.lwe_key(),
        &params,
        &mut rng,
    );
    let blob = serialize_key_switch_key(&ksk);
    // Frame header 15, shape header 28, then the rows; checksum 8.
    let payload = &blob[15 + 28..blob.len() - 8];
    assert_eq!(payload.len() as u64, ksk.bytes());
    let back = deserialize_key_switch_key(&blob).expect("round trip");
    assert_eq!(
        (back.dim_in(), back.dim_out(), back.decomp_params()),
        (ksk.dim_in(), ksk.dim_out(), ksk.decomp_params())
    );
    let mut streamed = payload.chunks_exact(4);
    for i in 0..ksk.dim_in() {
        for j in 0..ksk.level() {
            assert_eq!(back.row(i, j), ksk.row(i, j), "KSK_({i},{j})");
            for (word, bytes) in ksk.row(i, j).iter().zip(&mut streamed) {
                assert_eq!(word.into_raw().to_le_bytes(), bytes, "KSK_({i},{j})");
            }
        }
    }
    let ct = ck.encrypt(1, &mut rng);
    let extracted = morphling_tfhe::LweCiphertext::trivial(ct.body(), ksk.dim_in());
    assert_eq!(back.key_switch(&extracted), ksk.key_switch(&extracted));
}

/// A shape header that disagrees with the bytes behind it — here a frame
/// resealed after its input dimension was changed — is a corrupted key,
/// found before anything is allocated for it, not a panic.
#[test]
fn ksk_header_that_miscounts_its_words_is_rejected() {
    let (_, blob) = &blobs()[3];
    for dim_in in [0u64, 255, 257, 1 << 33, u64::MAX] {
        let mut bad = blob.clone();
        bad[15..23].copy_from_slice(&dim_in.to_le_bytes());
        let err = deserialize_key_switch_key(&as_version_1(&bad)).unwrap_err();
        assert!(
            matches!(err, TfheError::KeyCorrupted { .. }),
            "{dim_in}: {err}"
        );
    }
    // The output dimension sets the row width: the same count of words no
    // longer divides into rows.
    let mut bad = blob.clone();
    bad[23..31].copy_from_slice(&15u64.to_le_bytes());
    assert!(deserialize_key_switch_key(&as_version_1(&bad)).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LWE secret keys of any dimension (including non-multiples of 8,
    /// exercising the bit packer's tail byte) round-trip exactly.
    #[test]
    fn lwe_secret_key_round_trips_any_dim(dim in 1usize..200, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = LweSecretKey::generate(dim, &mut rng);
        let back = deserialize_lwe_secret_key(&serialize_lwe_secret_key(&key))
            .expect("round trip");
        prop_assert_eq!(back.bits(), key.bits());
    }

    /// GLWE secret keys across dimensions and polynomial sizes
    /// round-trip exactly.
    #[test]
    fn glwe_secret_key_round_trips(k in 1usize..4, log_n in 3u32..9, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = GlweSecretKey::generate(k, 1 << log_n, &mut rng);
        let back = deserialize_glwe_secret_key(&serialize_glwe_secret_key(&key))
            .expect("round trip");
        prop_assert_eq!(back.polys(), key.polys());
    }

    /// Every proper prefix of a valid blob is rejected as corrupted —
    /// the length framing and checksum close the truncation hole.
    #[test]
    fn any_truncation_is_rejected(which in 0usize..5, frac in 0.0f64..1.0) {
        let (kind, blob) = &blobs()[which];
        let cut = ((blob.len() - 1) as f64 * frac) as usize;
        prop_assert!(
            matches!(
                try_parse(kind, &blob[..cut]),
                Err(TfheError::KeyCorrupted { .. })
            ),
            "{}: prefix of {} / {} bytes must be rejected",
            kind,
            cut,
            blob.len()
        );
    }

    /// Flipping any single bit of a valid blob is rejected: either a
    /// framing field stops matching or the checksum catches the payload
    /// damage.
    #[test]
    fn any_bitflip_is_rejected(which in 0usize..5, pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let (kind, blob) = &blobs()[which];
        let pos = ((blob.len() - 1) as f64 * pos_frac) as usize;
        let mut bad = blob.clone();
        bad[pos] ^= 1 << bit;
        prop_assert!(
            matches!(
                try_parse(kind, &bad),
                Err(TfheError::KeyCorrupted { .. })
            ),
            "{}: bit {} of byte {} flipped and the blob still parsed",
            kind,
            bit,
            pos
        );
    }

    /// Parsing a blob as the wrong key type fails on the kind byte.
    #[test]
    fn kind_confusion_is_rejected(a in 0usize..5, b in 0usize..5) {
        prop_assume!(a != b);
        let (_, blob) = &blobs()[a];
        let (kind_b, _) = &blobs()[b];
        prop_assert!(matches!(
            try_parse(kind_b, blob),
            Err(TfheError::KeyCorrupted { .. })
        ));
    }
}

/// Damaging exactly the checksum trailer reports a checksum mismatch
/// with both values, the detail an operator needs first.
#[test]
fn checksum_flip_reports_stored_and_computed() {
    let (_, blob) = &blobs()[0];
    let mut bad = blob.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x01;
    match deserialize_lwe_secret_key(&bad) {
        Err(TfheError::KeyCorrupted { detail }) => {
            assert!(
                detail.contains("checksum mismatch"),
                "unexpected detail: {detail}"
            );
        }
        other => panic!("checksum damage must be KeyCorrupted, got {other:?}"),
    }
}
