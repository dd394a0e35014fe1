//! Property tests for the persistent [`BootstrapEngine`]: across random
//! batch sizes, worker counts, and chunkings, the engine must be
//! **bit-identical** to the sequential [`Bootstrapper`] path on the bare
//! [`ServerKey`] — same ciphertexts, not just same decryptions — and its
//! statistics must add up exactly.

use std::sync::{Arc, OnceLock};

use morphling_tfhe::{
    BatchRequest, BootstrapEngine, Bootstrapper, ClientKey, Lut, LweCiphertext, ParallelServerKey,
    ParamSet, ServerKey,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Shared-LUT batch through any [`Bootstrapper`] backend.
fn bb(backend: &impl Bootstrapper, cts: &[LweCiphertext], lut: &Lut) -> Vec<LweCiphertext> {
    backend
        .try_bootstrap_batch(&BatchRequest::shared(cts.to_vec(), lut.clone()))
        .expect("valid batch")
}

/// Key material is expensive; generate once and share across all cases.
struct Fixture {
    client: ClientKey,
    server: Arc<ServerKey>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x9E37);
        let client = ClientKey::generate(ParamSet::Test.params(), &mut rng);
        let server = Arc::new(ServerKey::builder().build(&client, &mut rng));
        Fixture { client, server }
    })
}

fn encrypt_batch(msgs: &[u64]) -> Vec<LweCiphertext> {
    let f = fixture();
    // Fresh deterministic rng per call keeps cases independent of order.
    let mut rng = StdRng::seed_from_u64(msgs.iter().fold(17u64, |a, &m| a.wrapping_mul(31) + m));
    msgs.iter()
        .map(|&m| f.client.encrypt(m % 4, &mut rng))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn engine_is_bit_identical_to_sequential(
        msgs in prop::collection::vec(0u64..4, 17),
        workers in 1usize..5,
        chunk in 1usize..7,
    ) {
        let f = fixture();
        let lut = Lut::from_fn(f.server.params().poly_size, 4, |m| (3 * m + 1) % 4);
        let cts = encrypt_batch(&msgs);
        let engine = BootstrapEngine::builder()
            .workers(workers)
            .chunk_size(chunk)
            .build(Arc::clone(&f.server))
            .expect("workers >= 1");
        let seq = bb(&*f.server, &cts, &lut);
        let eng = bb(&engine, &cts, &lut);
        // Bit-identical, element for element — not merely decrypt-equal.
        prop_assert_eq!(seq, eng);
    }

    #[test]
    fn engine_matches_parallel_baseline_and_counts_exactly(
        sizes in prop::collection::vec(0usize..9, 4),
        workers in 1usize..4,
    ) {
        let f = fixture();
        let lut = Lut::identity(f.server.params().poly_size, 4);
        let engine = BootstrapEngine::builder()
            .workers(workers)
            .build(Arc::clone(&f.server))
            .expect("workers >= 1");
        let mut expected_bootstraps = 0u64;
        for (round, &size) in sizes.iter().enumerate() {
            let msgs: Vec<u64> = (0..size as u64).map(|i| (i + round as u64) % 4).collect();
            let cts = encrypt_batch(&msgs);
            let eng = bb(&engine, &cts, &lut);
            let psk = ParallelServerKey::new(Arc::clone(&f.server), workers.max(2))
                .expect("nonzero threads");
            let par = bb(&psk, &cts, &lut);
            prop_assert_eq!(&eng, &par);
            expected_bootstraps += size as u64;
        }
        let stats = engine.stats();
        // Only batches that actually reach the worker pool count: empty
        // submissions return early and must not inflate the calibration
        // denominator.
        let dispatched = sizes.iter().filter(|&&s| s > 0).count() as u64;
        prop_assert_eq!(stats.batches, dispatched);
        prop_assert_eq!(stats.bootstraps, expected_bootstraps);
        prop_assert_eq!(stats.workers, workers);
        prop_assert!(expected_bootstraps == 0 || stats.busy.as_nanos() > 0);
    }
}

/// The chunk path — a worker advancing its whole chunk's blind rotations
/// step by step so that each `BSK_i` is fetched once — against the
/// one-ciphertext-at-a-time bootstrap it replaced in the engine: chunk
/// sizes 1, 3 and 4, k = 1 and k = 2, a LUT per ciphertext. The bare
/// `ServerKey` batch takes the same path with the batch as one chunk.
#[test]
fn chunked_bootstraps_are_bit_identical_to_one_at_a_time() {
    for set in [ParamSet::Test, ParamSet::TestMedium] {
        let mut rng = StdRng::seed_from_u64(0xC4A2);
        let client = ClientKey::generate(set.params(), &mut rng);
        let server = Arc::new(ServerKey::new(&client, &mut rng));
        let n = server.params().poly_size;
        let luts = vec![Lut::identity(n, 4), Lut::from_fn(n, 4, |m| (3 * m + 1) % 4)];
        let cts: Vec<LweCiphertext> = (0..9).map(|m| client.encrypt(m % 4, &mut rng)).collect();
        let lut_of: Vec<usize> = (0..cts.len()).map(|i| i % 2).collect();
        let one_at_a_time: Vec<LweCiphertext> = cts
            .iter()
            .zip(&lut_of)
            .map(|(ct, &j)| server.programmable_bootstrap(ct, &luts[j]))
            .collect();
        let request = BatchRequest::builder()
            .ciphertexts(cts.clone())
            .luts(luts.clone())
            .selectors(lut_of.clone())
            .build()
            .expect("valid request");
        assert_eq!(
            server
                .try_bootstrap_batch(&request)
                .expect("server key batch"),
            one_at_a_time,
            "server key, set={set:?}"
        );
        for chunk in [1usize, 3, 4] {
            let engine = BootstrapEngine::builder()
                .workers(2)
                .chunk_size(chunk)
                .build(Arc::clone(&server))
                .expect("workers");
            assert_eq!(
                engine.try_bootstrap_batch(&request).expect("engine batch"),
                one_at_a_time,
                "engine, set={set:?} chunk={chunk}"
            );
        }
    }
}

#[test]
fn stats_reset_zeroes_every_counter() {
    let f = fixture();
    let lut = Lut::identity(f.server.params().poly_size, 4);
    let engine = BootstrapEngine::builder()
        .workers(2)
        .build(Arc::clone(&f.server))
        .expect("workers");
    let cts = encrypt_batch(&[1, 2, 3]);
    let _ = bb(&engine, &cts, &lut);
    assert_eq!(engine.stats().bootstraps, 3);
    engine.reset_stats();
    let zeroed = engine.stats();
    assert_eq!(zeroed.batches, 0);
    assert_eq!(zeroed.bootstraps, 0);
    assert_eq!(zeroed.busy.as_nanos(), 0);
    assert_eq!(zeroed.workers, 2);
}
