//! Property tests for the persistent [`BootstrapEngine`]: across random
//! batch sizes, worker counts, and chunkings, the engine must be
//! **bit-identical** to the sequential [`Bootstrapper`] path on the bare
//! [`ServerKey`] — same ciphertexts, not just same decryptions — and its
//! statistics must add up exactly.

use std::sync::{Arc, OnceLock};

use morphling_tfhe::{
    BatchRequest, BootstrapEngine, Bootstrapper, ClientKey, EventKind, Lut, LweCiphertext,
    ParamSet, ServerKey,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
        let server = Arc::new(ServerKey::new(&client, &mut rng));
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

#[test]
fn engine_is_bit_identical_to_sequential() {
    let mut rng = StdRng::seed_from_u64(0xE9_0001);
    for case in 0..6 {
        let msgs: Vec<u64> = (0..17).map(|_| rng.gen_range(0u64..4)).collect();
        let (workers, chunk) = (rng.gen_range(1usize..5), rng.gen_range(1usize..7));
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
        let at = format!("case {case}: msgs={msgs:?} workers={workers} chunk={chunk}");
        assert_eq!(seq, eng, "{at}");
    }
}

#[test]
fn engine_matches_sequential_baseline_and_counts_exactly() {
    let mut rng = StdRng::seed_from_u64(0xE9_0002);
    for case in 0..6 {
        let sizes: Vec<usize> = (0..4).map(|_| rng.gen_range(0usize..9)).collect();
        let workers = rng.gen_range(1usize..4);
        let at = format!("case {case}: sizes={sizes:?} workers={workers}");
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
            assert_eq!(eng, bb(&*f.server, &cts, &lut), "{at}: round {round}");
            expected_bootstraps += size as u64;
        }
        let stats = engine.stats();
        // Only batches that actually reach the worker pool count: empty
        // submissions return early and must not inflate the calibration
        // denominator.
        let dispatched = sizes.iter().filter(|&&s| s > 0).count() as u64;
        assert_eq!(stats.batches, dispatched, "{at}");
        assert_eq!(stats.bootstraps, expected_bootstraps, "{at}");
        assert_eq!(stats.workers, workers, "{at}");
        assert!(
            expected_bootstraps == 0 || stats.busy.as_nanos() > 0,
            "{at}"
        );
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
        let lists: Vec<Vec<usize>> = (0..cts.len()).map(|i| vec![i % 2]).collect();
        let one_at_a_time: Vec<LweCiphertext> = cts
            .iter()
            .zip(&lists)
            .map(|(ct, list)| server.programmable_bootstrap(ct, &luts[list[0]]))
            .collect();
        let request =
            BatchRequest::fanned_out(cts.clone(), luts.clone(), lists).expect("valid request");
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

/// A LUT table with three LUTs that share a factor and two raw-torus ones
/// (odd steps) that share none, and a fanout map over it that mixes list
/// lengths: multi-value items, single-LUT items (the plain bootstrap) and
/// no-common-factor items (one rotation per LUT).
fn mixed_fanout(n: usize, inputs: usize) -> (Vec<Lut>, Vec<Vec<usize>>) {
    let mut luts = vec![
        Lut::identity(n, 4),
        Lut::from_fn(n, 4, |m| (3 * m + 1) % 4),
        Lut::from_fn(n, 4, |m| m / 2),
    ];
    for step in [3u32, 5] {
        let raw = |m: u64| morphling_math::Torus32::from_raw(m as u32 * step + 1);
        luts.push(Lut::try_from_torus_fn(n, 4, raw).expect("p divides N"));
    }
    let lists = [vec![0, 1, 2], vec![1], vec![3, 4], vec![2, 0], vec![0, 3]];
    let map = (0..inputs)
        .map(|i| lists[i % lists.len()].clone())
        .collect();
    (luts, map)
}

/// The default plan, seen from outside: every batch of `n` runs as at most
/// `workers` jobs whose sizes differ by at most one and add up to `n`, and
/// the results equal the sequential backend's — with and without fanout,
/// for every `n` up to three chunks and one more.
#[test]
fn default_plan_is_balanced_and_matches_sequential_for_every_batch_size() {
    let f = fixture();
    let n_poly = f.server.params().poly_size;
    let lut = Lut::from_fn(n_poly, 4, |m| (m + 1) % 4);
    for workers in 1..=3usize {
        let engine = BootstrapEngine::builder()
            .workers(workers)
            .build(Arc::clone(&f.server))
            .expect("workers >= 1");
        for n in 1..=3 * workers + 1 {
            let msgs: Vec<u64> = (0..n as u64).collect();
            let cts = encrypt_batch(&msgs);
            let (luts, map) = mixed_fanout(n_poly, n);
            let requests = [
                BatchRequest::shared(cts.clone(), lut.clone()),
                BatchRequest::fanned_out(cts, luts, map).expect("valid fanout"),
            ];
            for (fanout, request) in requests.iter().enumerate() {
                engine.reset_stats();
                let out = engine.try_bootstrap_batch(request).expect("engine batch");
                let seq = f.server.try_bootstrap_batch(request).expect("sequential");
                assert_eq!(out, seq, "workers={workers} n={n} fanout={fanout}");
                let events = engine.journal().events();
                let jobs: Vec<usize> = events
                    .iter()
                    .filter_map(|e| match e.kind {
                        EventKind::Job { bootstraps, .. } => Some(bootstraps),
                        _ => None,
                    })
                    .collect();
                assert_eq!(jobs.len(), workers.min(n), "workers={workers} n={n}");
                assert_eq!(jobs.iter().sum::<usize>(), n, "workers={workers} n={n}");
                let (min, max) = (jobs.iter().min().unwrap(), jobs.iter().max().unwrap());
                assert!(max - min <= 1, "workers={workers} n={n} jobs={jobs:?}");
                assert_eq!(engine.stats().extractions as usize, request.output_len());
            }
        }
    }
}

/// A fanout chunk — its items' rotations advancing together, its outputs
/// key-switched together — against one multi-value bootstrap per
/// ciphertext, under forced chunk sizes 1 and 3 and the default plan, on
/// every backend that chunks.
#[test]
fn fanout_chunks_are_bit_identical_to_per_ciphertext_multi_value_bootstraps() {
    for set in [ParamSet::Test, ParamSet::TestMedium] {
        let mut rng = StdRng::seed_from_u64(0xFA40);
        let client = ClientKey::generate(set.params(), &mut rng);
        let server = Arc::new(ServerKey::new(&client, &mut rng));
        let cts: Vec<LweCiphertext> = (0..11).map(|m| client.encrypt(m % 4, &mut rng)).collect();
        let (luts, map) = mixed_fanout(server.params().poly_size, cts.len());
        let mut per_ciphertext = Vec::new();
        for (ct, list) in cts.iter().zip(&map) {
            let of_item: Vec<Lut> = list.iter().map(|&j| luts[j].clone()).collect();
            let outs = server
                .try_programmable_bootstrap_many_with(ct, &of_item, &mut server.workspace())
                .expect("multi-value bootstrap");
            if let [lut] = &of_item[..] {
                assert_eq!(outs, [server.programmable_bootstrap(ct, lut)]);
            }
            per_ciphertext.extend(outs);
        }
        let request = BatchRequest::fanned_out(cts, luts, map).expect("valid fanout");
        assert_eq!(
            server.try_bootstrap_batch(&request).expect("server key"),
            per_ciphertext,
            "server key, set={set:?}"
        );
        for chunk in [Some(1usize), Some(3), None] {
            let builder = BootstrapEngine::builder().workers(2);
            let engine = chunk
                .map_or(builder.clone(), |c| builder.chunk_size(c))
                .build(Arc::clone(&server))
                .expect("workers");
            assert_eq!(
                engine.try_bootstrap_batch(&request).expect("engine batch"),
                per_ciphertext,
                "engine, set={set:?} chunk={chunk:?}"
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
