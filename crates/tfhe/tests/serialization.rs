//! Wire-format property tests for the server-key frame, the one frame
//! there is.
//!
//! The keystore trusts `morphling_tfhe::serialize` to be a bijection on
//! valid blobs and a loud rejector of everything else. This suite pins
//! both halves:
//!
//! - **round-trip**: serialize → deserialize is the identity for
//!   [`ServerKey`] at both checked-in parameter sets;
//! - **embedded keys**: the BSK and KSK decoders inside the frame reject
//!   degenerate shape headers, headers that disagree with their payload,
//!   decomposition parameters out of range and trailing bytes;
//! - **truncation**: every proper prefix of a valid blob fails with
//!   [`TfheError::KeyCorrupted`] — never a panic, never a silent
//!   partial key;
//! - **corruption**: flipping any single bit of a valid blob fails
//!   (magic, version, kind, length, payload, and checksum bytes are all
//!   covered by the frame's checksum or its field validation);
//! - **versions**: frames are written as version 2 (word-wise checksum)
//!   and version-1 frames (byte-wise FNV-1a) still load, with the same
//!   guarantees;
//! - **recycling**: a frame a key store's loader decodes into the key it
//!   last evicted is the key a fresh decode gives, and a bad frame is
//!   rejected all the same.

use std::sync::{Arc, OnceLock};

use morphling_tfhe::keystore::server_key_bytes;
use morphling_tfhe::{
    deserialize_server_key, serialize_server_key, ClientKey, KeyStore, MemoryBackend, ParamSet,
    ServerKey, TenantId, TfheError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The seeded Test-set server key and its frame, generated once (BSK
/// generation dominates the suite's runtime).
fn fixture() -> &'static (ClientKey, ServerKey, Vec<u8>) {
    static FIXTURE: OnceLock<(ClientKey, ServerKey, Vec<u8>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x5E81);
        let ck = ClientKey::generate(ParamSet::Test.params(), &mut rng);
        let sk = ServerKey::new(&ck, &mut rng);
        let blob = serialize_server_key(&sk);
        (ck, sk, blob)
    })
}

/// The Test-set server-key frame.
fn blob() -> &'static Vec<u8> {
    &fixture().2
}

/// Whether `bytes` is rejected as a corrupted key.
fn rejected(bytes: &[u8]) -> bool {
    matches!(
        deserialize_server_key(bytes),
        Err(TfheError::KeyCorrupted { .. })
    )
}

/// The detail of `bytes`' rejection.
fn rejection(bytes: &[u8]) -> String {
    match deserialize_server_key(bytes).map(|_| ()) {
        Err(TfheError::KeyCorrupted { detail }) => detail,
        other => panic!("must be KeyCorrupted, got {other:?}"),
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

/// A `u64` length field of a frame.
fn len_at(blob: &[u8], at: usize) -> usize {
    let mut word = [0; 8];
    word.copy_from_slice(&blob[at..at + 8]);
    u64::from_le_bytes(word) as usize
}

/// The embedded keys of a server-key frame: each sits behind its own
/// length, the BSK's right after the backend tag and the reserved bytes.
fn sections(blob: &[u8]) -> (&[u8], &[u8], &[u8]) {
    let bsk_at = param_fields_at(blob) + 77 + 3;
    let bsk_len = len_at(blob, bsk_at);
    let ksk_at = bsk_at + 8 + bsk_len;
    let ksk_len = len_at(blob, ksk_at);
    (
        &blob[..bsk_at],
        &blob[bsk_at + 8..ksk_at],
        &blob[ksk_at + 8..ksk_at + 8 + ksk_len],
    )
}

/// `blob` with its embedded BSK and KSK payloads replaced, every length
/// field updated to match, resealed as version 1.
fn with_sections(blob: &[u8], bsk: &[u8], ksk: &[u8]) -> Vec<u8> {
    let (head, _, _) = sections(blob);
    let mut frame = head.to_vec();
    for part in [bsk, ksk] {
        frame.extend((part.len() as u64).to_le_bytes());
        frame.extend(part);
    }
    let payload = (frame.len() - 15) as u64;
    frame[7..15].copy_from_slice(&payload.to_le_bytes());
    frame.extend([0; 8]);
    as_version_1(&frame)
}

/// A server key as earlier writers framed it — version 1, backend tag 1
/// (the FFT path without merge-split) and the merge-split flag set —
/// still loads: both spellings meant the one FFT path there is now, and
/// re-encoding writes the current version and the tag and the flag as
/// zero. Likewise tags 2 (the NTT backend) and 3 (the exact one): the
/// key material never depended on the tag, so they load as the same key
/// and write back as tag 0. A tag nobody ever wrote is a corrupted key.
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
    let ct = ck.encrypt(2, &mut rng);
    let out = sk.programmable_bootstrap(&ct, &lut);
    for tag in [2, 3] {
        let key = with_tag(tag).expect("an exact-backend frame loads");
        assert_eq!(serialize_server_key(&key), blob, "tag {tag}");
        assert_eq!(key.programmable_bootstrap(&ct, &lut), out, "tag {tag}");
    }
    assert!(matches!(with_tag(4), Err(TfheError::KeyCorrupted { .. })));
}

/// An embedded bootstrapping key whose shape header no transform engine
/// exists for (`N = 2` passes the power-of-two test), whose header counts
/// more or fewer words than follow it, or more polynomials than `usize`
/// holds, or with bytes left over behind it, is a corrupted key — not a
/// panic in the engine's constructor or in the arithmetic sizing the rows.
#[test]
fn bsk_shape_headers_nothing_can_compute_with_are_rejected() {
    let (_, _, ksk) = sections(blob());
    // (GGSW count, k, level, N), then the words the header promises.
    let frame = |shape: [u64; 4], words: usize| {
        let mut bsk: Vec<u8> = shape.iter().flat_map(|v| v.to_le_bytes()).collect();
        bsk.resize(bsk.len() + 4 * words, 0);
        with_sections(blob(), &bsk, ksk)
    };
    // A well-formed one passes the BSK decoder and is then held to the
    // parameter block, which it does not match.
    let detail = rejection(&frame([1, 1, 1, 4], 16));
    assert!(detail.contains("disagrees with params"), "{detail}");
    for (shape, words, why) in [
        ([1, 1, 1, 2], 8, "BSK shape header is degenerate"),
        ([1, 1, 1, 4], 15, "BSK header"),
        ([1, 1, 1, 4], 17, "BSK header"),
        ([1, 1 << 33, 1 << 33, 4], 16, "BSK header"),
        ([1 << 33, 1 << 32, 1, 4], 16, "BSK header"),
    ] {
        let detail = rejection(&frame(shape, words));
        assert!(detail.contains(why), "{shape:?} {words}: {detail}");
    }
}

/// A server-key frame whose parameter block disagrees with the keys
/// behind it fails where it is loaded, not at its first bootstrap: a BSK
/// of another gadget level than the block says (only `n` and the KSK's
/// dimensions used to be compared), and a polynomial size no transform
/// engine exists for.
#[test]
fn server_key_frames_that_could_not_bootstrap_are_rejected() {
    let blob = blob();
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
}

/// A frame whose parameter block names one KSK decomposition while the
/// embedded KSK carries another is a corrupted key, with both pairs named:
/// the noise model, the retry budget and the key's byte count read the
/// block, the key switch the KSK.
#[test]
fn a_ksk_decomposition_the_parameter_block_disagrees_with_is_rejected() {
    let (_, sk, blob) = fixture();
    let ksk = sk.key_switch_key().decomp_params();
    let (base_log, level) = (ksk.base_log(), ksk.level() as u64);
    let ksk_at = param_fields_at(blob) + 36;
    assert_eq!(blob[ksk_at..ksk_at + 4], base_log.to_le_bytes());
    assert_eq!(blob[ksk_at + 4..ksk_at + 12], level.to_le_bytes());
    for (b, l) in [(base_log + 1, level), (base_log, level - 1), (1, 1)] {
        let mut bad = blob.clone();
        bad[ksk_at..ksk_at + 4].copy_from_slice(&b.to_le_bytes());
        bad[ksk_at + 4..ksk_at + 12].copy_from_slice(&l.to_le_bytes());
        let detail = rejection(&as_version_1(&bad));
        let want = format!("({base_log}, {level}) disagrees with params ({b}, {l})");
        assert!(detail.contains(&want), "({b}, {l}): {detail}");
    }
}

/// A plaintext modulus no LUT can be built over — not a power of two, or
/// below 2 — is a corrupted key where it is loaded, not a panic building
/// the LUT of the first bootstrap through it.
#[test]
fn plaintext_moduli_no_lut_can_encode_are_rejected() {
    let blob = blob();
    let modulus_at = param_fields_at(blob) + 64;
    assert_eq!(blob[modulus_at..modulus_at + 8], 4u64.to_le_bytes());
    for p in [0u64, 1, 3, 6, u64::MAX] {
        let mut bad = blob.clone();
        bad[modulus_at..modulus_at + 8].copy_from_slice(&p.to_le_bytes());
        let detail = rejection(&as_version_1(&bad));
        assert!(detail.contains("plaintext modulus"), "p = {p}: {detail}");
    }
    let mut two = blob.clone();
    two[modulus_at..modulus_at + 8].copy_from_slice(&2u64.to_le_bytes());
    let back = deserialize_server_key(&as_version_1(&two)).expect("p = 2 loads");
    assert_eq!(back.params().plaintext_modulus, 2);
}

/// A frame of another kind (1–4: the two secret keys and the bare BSK and
/// KSK) is rejected as a kind mismatch, in both versions: the kind is
/// read before the checksum is.
#[test]
fn frames_of_the_retired_per_part_kinds_are_rejected() {
    for kind in 1..=4u8 {
        let mut bad = blob().clone();
        bad[6] = kind;
        for frame in [as_version_1(&bad), bad] {
            let detail = rejection(&frame);
            assert!(detail.contains("kind mismatch"), "kind {kind}: {detail}");
        }
    }
}

#[test]
fn every_blob_round_trips_and_rejects_the_empty_input() {
    assert!(deserialize_server_key(blob()).is_ok(), "round trip");
    assert!(
        deserialize_server_key(&as_version_1(blob())).is_ok(),
        "version 1"
    );
    assert!(rejected(&[]), "empty input must be KeyCorrupted");
}

/// One flipped bit at every byte is rejected, under both checksums. Every
/// byte of a server key shrunk until a quadratic sweep is affordable (it
/// has every field a real one has); the Test-set server key at a stride
/// coprime to the checksum's word, so that every offset within a word and
/// every region of the payload is hit.
#[test]
fn a_flipped_bit_at_every_byte_is_rejected_in_both_versions() {
    let mut rng = StdRng::seed_from_u64(0x44);
    let mut params = ParamSet::Test.params();
    params.poly_size = 32;
    params.lwe_dim = 3;
    let ck = ClientKey::generate(params, &mut rng);
    let small = serialize_server_key(&ServerKey::new(&ck, &mut rng));
    assert!(deserialize_server_key(&small).is_ok());
    for (kind, blob, stride) in [("small", &small, 1), ("test", blob(), 1021)] {
        for blob in [blob.clone(), as_version_1(blob)] {
            for pos in (0..blob.len()).step_by(stride) {
                let mut bad = blob.clone();
                bad[pos] ^= 1 << (pos % 8);
                assert!(
                    rejected(&bad),
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
    let (ck, sk, blob) = fixture();
    let ksk = sk.key_switch_key();
    let (_, _, embedded) = sections(blob);
    // Shape header 28, then the rows.
    let payload = &embedded[28..];
    assert_eq!(payload.len() as u64, ksk.bytes());
    let back = deserialize_server_key(blob).expect("round trip");
    let back = back.key_switch_key();
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
    let ct = ck.encrypt(1, &mut StdRng::seed_from_u64(0x55));
    let extracted = morphling_tfhe::LweCiphertext::trivial(ct.body(), ksk.dim_in());
    assert_eq!(back.key_switch(&extracted), ksk.key_switch(&extracted));
}

/// An embedded key-switching key whose shape header disagrees with the
/// bytes behind it — its input dimension changed, or its output
/// dimension, so that the same count of words no longer divides into rows
/// — or whose decomposition is out of range, or with bytes left over
/// behind it, is a corrupted key, found before anything is allocated for
/// it, not a panic.
#[test]
fn ksk_header_that_miscounts_its_words_is_rejected() {
    let (_, bsk, ksk) = sections(blob());
    let patched = |at: usize, bytes: &[u8]| {
        let mut bad = ksk.to_vec();
        bad[at..at + bytes.len()].copy_from_slice(bytes);
        rejection(&with_sections(blob(), bsk, &bad))
    };
    for dim_in in [0u64, 255, 257, 1 << 33, u64::MAX] {
        let detail = patched(0, &dim_in.to_le_bytes());
        assert!(
            detail.contains("KSK header") || detail.contains("implausible"),
            "{dim_in}: {detail}"
        );
    }
    let detail = patched(8, &15u64.to_le_bytes());
    assert!(detail.contains("KSK header"), "{detail}");
    // (base_log, level): a zero base, a base wider than the torus, no
    // level, and digits past 32 bits.
    for (base_log, level) in [(0u32, 2u64), (33, 1), (2, 0), (8, 5)] {
        let mut header = base_log.to_le_bytes().to_vec();
        header.extend(level.to_le_bytes());
        let detail = patched(16, &header);
        assert!(
            detail.contains("KSK decomposition parameters out of range"),
            "({base_log}, {level}): {detail}"
        );
    }
    let mut long = ksk.to_vec();
    long.extend([0; 4]);
    let detail = rejection(&with_sections(blob(), bsk, &long));
    assert!(detail.contains("KSK header"), "{detail}");
    // Bytes behind an embedded key are more than its header counts;
    // bytes behind both keys, or behind the checksum, are left over.
    let mut trailing = bsk.to_vec();
    trailing.push(0);
    let detail = rejection(&with_sections(blob(), &trailing, ksk));
    assert!(detail.contains("BSK header"), "{detail}");
    let mut frame = with_sections(blob(), bsk, ksk);
    let body = frame.len() - 8;
    frame.splice(body..body, [0; 3]);
    frame[7..15].copy_from_slice(&((body + 3 - 15) as u64).to_le_bytes());
    let detail = rejection(&as_version_1(&frame));
    assert!(detail.contains("trailing garbage"), "{detail}");
    let mut after = blob().clone();
    after.push(0);
    assert!(rejection(&after).contains("trailing bytes after checksum"));
}

/// Every proper prefix of a valid blob is rejected as corrupted —
/// the length framing and checksum close the truncation hole.
#[test]
fn any_truncation_is_rejected() {
    let mut rng = StdRng::seed_from_u64(0x5E81_0001);
    let blob = blob();
    for case in 0..64 {
        let frac = rng.gen_range(0.0f64..1.0);
        let cut = ((blob.len() - 1) as f64 * frac) as usize;
        assert!(
            rejected(&blob[..cut]),
            "case {case}: prefix of {cut} / {} bytes must be rejected",
            blob.len()
        );
    }
}

/// Flipping any single bit of a valid blob is rejected: either a
/// framing field stops matching or the checksum catches the payload
/// damage.
#[test]
fn any_bitflip_is_rejected() {
    let mut rng = StdRng::seed_from_u64(0x5E81_0002);
    let blob = blob();
    for case in 0..64 {
        let (pos_frac, bit) = (rng.gen_range(0.0f64..1.0), rng.gen_range(0u8..8));
        let pos = ((blob.len() - 1) as f64 * pos_frac) as usize;
        let mut bad = blob.clone();
        bad[pos] ^= 1 << bit;
        assert!(
            rejected(&bad),
            "case {case}: bit {bit} of byte {pos} flipped and the blob still parsed"
        );
    }
}

/// Damaging exactly the checksum trailer reports a checksum mismatch
/// with both values, the detail an operator needs first.
#[test]
fn checksum_flip_reports_stored_and_computed() {
    let mut bad = blob().clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x01;
    match deserialize_server_key(&bad).map(|_| ()) {
        Err(TfheError::KeyCorrupted { detail }) => {
            assert!(
                detail.contains("checksum mismatch"),
                "unexpected detail: {detail}"
            );
        }
        other => panic!("checksum damage must be KeyCorrupted, got {other:?}"),
    }
}

/// A key store over `frames` (tenant `i` is `frames[i]`) with room for
/// `room` keys' bytes.
fn store_of(frames: &[&[u8]], room: u64) -> (Arc<MemoryBackend>, KeyStore) {
    let backend = Arc::new(MemoryBackend::new());
    for (t, frame) in frames.iter().enumerate() {
        backend.insert(TenantId::new(t as u64), frame.to_vec());
    }
    (Arc::clone(&backend), KeyStore::new(backend, room))
}

/// Where `key`'s first spectrum lives.
fn first_plane(key: &ServerKey) -> usize {
    key.bootstrap_key().fourier(0).row(0)[0].re().as_ptr() as usize
}

/// `got` is `want` spectrum for spectrum and word for word, writes the
/// same frame, and bootstraps a ciphertext of `ck` to the same bits.
fn assert_same_key(got: &ServerKey, want: &ServerKey, ck: &ClientKey, what: &str) {
    assert_eq!(got.params(), want.params(), "{what}");
    let (bsk, fresh) = (got.bootstrap_key(), want.bootstrap_key());
    assert_eq!(bsk.lwe_dim(), fresh.lwe_dim(), "{what}");
    for i in 0..bsk.lwe_dim() {
        let ggsw = fresh.fourier(i);
        for r in 0..(ggsw.glwe_dim() + 1) * ggsw.level() {
            assert!(
                bsk.fourier(i).row(r) == ggsw.row(r),
                "{what}: BSK_{i} row {r}"
            );
        }
    }
    let (ksk, fresh) = (got.key_switch_key(), want.key_switch_key());
    for i in 0..fresh.dim_in() {
        for j in 0..fresh.level() {
            assert_eq!(ksk.row(i, j), fresh.row(i, j), "{what}: KSK_({i},{j})");
        }
    }
    assert_eq!(
        serialize_server_key(got),
        serialize_server_key(want),
        "{what}"
    );
    let lut = morphling_tfhe::Lut::from_fn(want.params().poly_size, 4, |m| (m + 3) % 4);
    let ct = ck.encrypt(1, &mut StdRng::seed_from_u64(0x66));
    let out = got.programmable_bootstrap(&ct, &lut);
    assert_eq!(out, want.programmable_bootstrap(&ct, &lut), "{what}");
    assert_eq!(ck.decrypt(&out), 0, "{what}");
}

/// Tenant B's frame decoded into the storage of tenant A's key, which a
/// store with room for one key evicted, is the key a fresh decode of B's
/// frame gives, at Test and TestMedium.
#[test]
fn a_frame_decoded_into_an_evicted_key_is_the_fresh_decode() {
    for (seed, set) in [(0x77u64, ParamSet::Test), (0x88, ParamSet::TestMedium)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = serialize_server_key(&ServerKey::new(
            &ClientKey::generate(set.params(), &mut rng),
            &mut rng,
        ));
        let ck = ClientKey::generate(set.params(), &mut rng);
        let b = serialize_server_key(&ServerKey::new(&ck, &mut rng));
        let fresh = deserialize_server_key(&b).unwrap();
        // A, then A again under another tenant, which evicts the first:
        // the loader keeps it as its spare, and B is decoded into it.
        let (_, store) = store_of(&[&a, &a, &b], server_key_bytes(&fresh));
        let spare = first_plane(&store.get(TenantId::new(0)).unwrap());
        drop(store.get(TenantId::new(1)).unwrap());
        let got = store.get(TenantId::new(2)).unwrap();
        assert_eq!(
            first_plane(&got),
            spare,
            "{set:?}: decoded into the evicted key"
        );
        assert_same_key(&got, &fresh, &ck, &format!("{set:?}"));
    }
}

/// A spare of other parameters is not decoded into: the frame gets a key
/// of its own shape, the fresh decode's.
#[test]
fn a_spare_of_other_parameters_falls_back_to_a_fresh_decode() {
    let mut rng = StdRng::seed_from_u64(0x99);
    let medium = ServerKey::new(
        &ClientKey::generate(ParamSet::TestMedium.params(), &mut rng),
        &mut rng,
    );
    let a = serialize_server_key(&medium);
    let (ck, _, b) = fixture();
    let fresh = deserialize_server_key(b).unwrap();
    let room = server_key_bytes(&medium).max(server_key_bytes(&fresh));
    let (_, store) = store_of(&[&a, &a, b], room);
    drop(store.get(TenantId::new(0)).unwrap());
    drop(store.get(TenantId::new(1)).unwrap());
    let got = store.get(TenantId::new(2)).unwrap();
    assert_same_key(&got, &fresh, ck, "Test frame over a TestMedium spare");
}

/// Every kind of bad frame is still a corrupted key when the loader holds
/// a spare of the frame's parameters: proper prefixes, flipped bits in
/// both versions, kind confusion and a parameter block the keys disagree
/// with. A good frame loads after each, so each met a spare.
#[test]
fn bad_frames_are_rejected_when_a_spare_is_at_hand() {
    let blob = blob();
    let fresh = deserialize_server_key(blob).unwrap();
    let (backend, store) = store_of(&[blob, blob], server_key_bytes(&fresh));
    let bad = TenantId::new(2);
    let mut turn = 0;
    drop(store.get(TenantId::new(turn)).unwrap());
    let mut rejected_with_a_spare = |frame: Vec<u8>, what: &str| {
        // The other good tenant evicts the resident one, which the loader
        // keeps as its spare; the bad frame is decoded next.
        turn ^= 1;
        drop(store.get(TenantId::new(turn)).unwrap());
        backend.insert(bad, frame);
        match store.get(bad).map(drop) {
            Err(TfheError::KeyCorrupted { .. }) => {}
            other => panic!("{what}: must be KeyCorrupted, got {other:?}"),
        }
    };
    for cut in [
        0,
        7,
        15,
        16,
        200,
        blob.len() / 3,
        blob.len() - 9,
        blob.len() - 1,
    ] {
        rejected_with_a_spare(blob[..cut].to_vec(), &format!("prefix of {cut}"));
    }
    for frame in [blob.clone(), as_version_1(blob)] {
        for pos in (0..frame.len()).step_by(4093) {
            let mut flipped = frame.clone();
            flipped[pos] ^= 1 << (pos % 8);
            rejected_with_a_spare(flipped, &format!("v{} bit flip at {pos}", frame[4]));
        }
    }
    for kind in 1..=4u8 {
        let mut other = blob.clone();
        other[6] = kind;
        rejected_with_a_spare(other, &format!("kind {kind}"));
    }
    let level_at = param_fields_at(blob) + 28;
    let mut level = blob.clone();
    level[level_at..level_at + 8].copy_from_slice(&2u64.to_le_bytes());
    rejected_with_a_spare(as_version_1(&level), "BSK level");
    let (_, _, ksk) = sections(blob);
    let mut shape: Vec<u8> = [1u64, 1, 1, 4]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    shape.resize(shape.len() + 64, 0);
    rejected_with_a_spare(with_sections(blob, &shape, ksk), "BSK shape");
    let ksk_at = param_fields_at(blob) + 36;
    let mut decomp = blob.clone();
    decomp[ksk_at..ksk_at + 4].copy_from_slice(&1u32.to_le_bytes());
    rejected_with_a_spare(as_version_1(&decomp), "KSK decomposition");
    let stats = store.stats();
    assert_eq!(stats.load_failures, stats.misses - stats.loads);
    assert_eq!(stats.loads, stats.evictions + 1);
}
