//! Batched and multi-threaded bootstrapping.
//!
//! TFHE bootstraps are embarrassingly parallel across ciphertexts — the
//! very property Morphling's 16 bootstrapping cores exploit, and the
//! reason the paper's CPU baseline runs on a 64-core Xeon. This module
//! provides the per-call software equivalent: the batch is split into one
//! contiguous chunk per thread, each scoped thread bootstraps its chunk as
//! a whole ([`ServerKey::try_bootstrap_chunk`]: every key operand fetched
//! once per chunk), and the chunks' outputs are concatenated in input
//! order. Fanout (multi-value) requests slot in naturally: an input
//! producing `k` outputs owns `k` consecutive output positions.
//!
//! These threads spawn and join on **every call**. For a stream of
//! batches, prefer [`BootstrapEngine`](crate::BootstrapEngine), which
//! keeps a persistent worker pool warm; for a stream of *individual
//! requests*, the [`Dispatcher`](crate::dispatch::Dispatcher) forms the
//! batches for you. This path remains as the zero-state baseline both are
//! benchmarked against, reachable through
//! [`ParallelServerKey`](crate::ParallelServerKey)'s
//! [`Bootstrapper`](crate::Bootstrapper) impl.

use std::ops::Range;

use crate::bootstrapper::{BatchRequest, Bootstrapper};
use crate::error::TfheError;
use crate::lwe::LweCiphertext;
use crate::server::ServerKey;

/// Split `n` items into `parts` contiguous ranges whose lengths differ by
/// at most one: the chunk plan of the engine (one chunk per worker) and of
/// the scoped threads below (one per thread), both of which rely on it for
/// ordered, disjoint output.
pub(crate) fn balanced_chunks(n: usize, parts: usize) -> impl Iterator<Item = Range<usize>> {
    let parts = parts.min(n).max(1);
    let base = n / parts;
    let extra = n % parts;
    let mut start = 0;
    (0..parts).map(move |t| {
        let len = base + usize::from(t < extra);
        let range = start..start + len;
        start += len;
        range
    })
}

/// Run `counts.len()` items across `threads` scoped threads in balanced
/// contiguous chunks and concatenate the chunks' outputs in order. Item
/// `i` owns `counts[i]` consecutive outputs — 1 for a plain bootstrap, `k`
/// for a fanout input evaluated through `k` LUTs; `run_chunk` maps a range
/// of items to their outputs.
///
/// Every chunk's join handle is inspected individually, so a panic is
/// attributed to the chunk (= worker) that actually raised it — this is
/// where `WorkerPanicked { worker }` gets its real index. The first
/// panicking chunk wins; absent panics, the earliest chunk's error wins. A
/// chunk returning the wrong number of outputs surfaces as
/// [`TfheError::OutputCheckFailed`] naming its first item — a silent
/// mismatch would shear every later output out of alignment.
pub(crate) fn run_chunked_scoped<F>(
    counts: &[usize],
    threads: usize,
    run_chunk: F,
) -> Result<Vec<LweCiphertext>, TfheError>
where
    F: Fn(Range<usize>) -> Result<Vec<LweCiphertext>, TfheError> + Sync,
{
    let run_chunk = &run_chunk;
    let joined = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = balanced_chunks(counts.len(), threads)
            .map(|range| {
                scope.spawn(move |_| {
                    let want: usize = counts[range.clone()].iter().sum();
                    let index = range.start;
                    let outputs = run_chunk(range)?;
                    if outputs.len() != want {
                        return Err(TfheError::OutputCheckFailed { index });
                    }
                    Ok(outputs)
                })
            })
            .collect();
        // Join each chunk's handle individually: a panic surfaces as that
        // handle's `Err`, carrying the chunk index with it instead of
        // collapsing every failure onto chunk 0.
        let mut out = Vec::with_capacity(counts.iter().sum());
        let mut first_panic: Option<usize> = None;
        let mut first_error: Option<TfheError> = None;
        for (chunk_idx, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(Ok(outputs)) => out.extend(outputs),
                Ok(Err(e)) => {
                    first_error.get_or_insert(e);
                }
                Err(_) => {
                    first_panic.get_or_insert(chunk_idx);
                }
            }
        }
        match (first_panic, first_error) {
            (Some(worker), _) => Err(TfheError::WorkerPanicked { worker }),
            (None, Some(e)) => Err(e),
            (None, None) => Ok(out),
        }
    });
    // Unreachable in practice — every handle above is joined, so the scope
    // itself cannot re-raise — but keep a safe fallback.
    joined.unwrap_or(Err(TfheError::WorkerPanicked { worker: 0 }))
}

/// The scoped-thread batch bootstrap behind
/// [`ParallelServerKey`](crate::ParallelServerKey): validate once, then
/// fan the request out over `threads` chunks, each through the shared
/// chunk path with a workspace of its own.
pub(crate) fn bootstrap_scoped_parallel(
    server: &ServerKey,
    req: &BatchRequest,
    threads: usize,
) -> Result<Vec<LweCiphertext>, TfheError> {
    if threads == 0 {
        return Err(TfheError::ZeroThreads);
    }
    server.validate_request(req)?;
    if req.is_empty() {
        return Ok(Vec::new());
    }
    if threads == 1 || req.len() <= 1 {
        // Inputs are pre-validated; run the sequential trait path.
        return server.try_bootstrap_batch(req);
    }
    let counts: Vec<usize> = (0..req.len()).map(|i| req.output_count(i)).collect();
    run_chunked_scoped(&counts, threads, |range| {
        server.try_bootstrap_chunk(&req.items(range), &mut server.workspace())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::ClientKey;
    use crate::lut::Lut;
    use crate::params::ParamSet;
    use morphling_math::Torus32;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn balanced_chunks_cover_everything_in_order() {
        for n in [0usize, 1, 5, 8, 13] {
            for parts in [1usize, 2, 3, 8] {
                let ranges: Vec<_> = balanced_chunks(n, parts).collect();
                let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
                assert_eq!(flat, (0..n).collect::<Vec<_>>(), "n={n} parts={parts}");
                if n > 0 {
                    let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                    let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                    assert!(max - min <= 1, "n={n} parts={parts} lens={lens:?}");
                }
            }
        }
    }

    fn tagged(tag: u32) -> LweCiphertext {
        LweCiphertext::trivial(Torus32::from_raw(tag), 4)
    }

    /// A chunk function that maps every item to one `tagged(0)`, after
    /// `check` has seen the item's index.
    fn each_item(
        check: impl Fn(usize) -> Result<(), TfheError> + Sync,
    ) -> impl Fn(Range<usize>) -> Result<Vec<LweCiphertext>, TfheError> + Sync {
        move |range| range.map(|i| check(i).map(|()| tagged(0))).collect()
    }

    #[test]
    fn panics_are_attributed_to_the_real_chunk() {
        // 8 items on 4 threads: chunks 0..2, 2..4, 4..6, 6..8. Panic in
        // item 5 → chunk 2 — the regression the old code collapsed to
        // `worker: 0`.
        for (panic_at, want_chunk) in [(0usize, 0usize), (3, 1), (5, 2), (7, 3)] {
            let got = run_chunked_scoped(
                &[1; 8],
                4,
                each_item(|i| {
                    assert!(i != panic_at, "injected panic at item {i}");
                    Ok(())
                }),
            );
            assert_eq!(
                got.unwrap_err(),
                TfheError::WorkerPanicked { worker: want_chunk },
                "panic_at={panic_at}"
            );
        }
    }

    #[test]
    fn earliest_panicking_chunk_wins() {
        let got = run_chunked_scoped(
            &[1; 8],
            4,
            each_item(|i| {
                assert!(i < 2, "everything past chunk 0 panics");
                Ok(())
            }),
        );
        assert_eq!(got.unwrap_err(), TfheError::WorkerPanicked { worker: 1 });
    }

    #[test]
    fn item_errors_propagate_without_panic_attribution() {
        let got = run_chunked_scoped(
            &[1; 6],
            3,
            each_item(|i| match i {
                4 => Err(TfheError::EngineShutDown),
                _ => Ok(()),
            }),
        );
        assert_eq!(got.unwrap_err(), TfheError::EngineShutDown);
    }

    #[test]
    fn multi_output_items_land_in_flattened_order() {
        // Counts [2, 1, 3, 1] on 2 threads: item i's k-th output carries
        // the tag 10·i + k and must land at the flattened offset even
        // though the chunk boundary falls mid-layout.
        let counts = [2usize, 1, 3, 1];
        let out = run_chunked_scoped(&counts, 2, |range| {
            Ok(range
                .flat_map(|i| (0..counts[i]).map(move |k| tagged((10 * i + k) as u32)))
                .collect())
        })
        .unwrap();
        let tags: Vec<u32> = out.iter().map(|ct| ct.body().into_raw()).collect();
        assert_eq!(tags, vec![0, 1, 10, 20, 21, 22, 30]);
    }

    #[test]
    fn wrong_output_count_is_caught() {
        // Chunks 0..2 and 2..3; item 1 should produce two outputs but
        // yields one, which its chunk (starting at item 0) reports.
        let got = run_chunked_scoped(&[1, 2, 1], 2, each_item(|_| Ok(())));
        assert_eq!(got.unwrap_err(), TfheError::OutputCheckFailed { index: 0 });
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(600);
        let params = ParamSet::Test.params();
        let ck = ClientKey::generate(params.clone(), &mut rng);
        let sk = ServerKey::new(&ck, &mut rng);
        let lut = Lut::from_fn(params.poly_size, 4, |m| (m + 2) % 4);
        let cts: Vec<_> = (0..8).map(|m| ck.encrypt(m % 4, &mut rng)).collect();
        let req = BatchRequest::shared(cts, lut);
        let seq = sk.try_bootstrap_batch(&req).unwrap();
        let par = bootstrap_scoped_parallel(&sk, &req, 4).unwrap();
        assert_eq!(seq.len(), par.len());
        for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
            assert_eq!(a, b, "i={i}");
            assert_eq!(ck.decrypt(a), ((i as u64 % 4) + 2) % 4);
        }
    }

    #[test]
    fn parallel_handles_uneven_chunks() {
        let mut rng = StdRng::seed_from_u64(602);
        let params = ParamSet::Test.params();
        let ck = ClientKey::generate(params.clone(), &mut rng);
        let sk = ServerKey::new(&ck, &mut rng);
        let lut = Lut::identity(params.poly_size, 4);
        // 7 items on 3 threads: chunks of 3/2/2.
        let cts: Vec<_> = (0..7).map(|m| ck.encrypt(m % 4, &mut rng)).collect();
        let req = BatchRequest::shared(cts, lut);
        assert_eq!(
            bootstrap_scoped_parallel(&sk, &req, 3).unwrap(),
            sk.try_bootstrap_batch(&req).unwrap()
        );
    }

    #[test]
    fn parallel_fanout_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(606);
        let params = ParamSet::Test.params();
        let ck = ClientKey::generate(params.clone(), &mut rng);
        let sk = ServerKey::new(&ck, &mut rng);
        let luts = vec![
            Lut::identity(params.poly_size, 4),
            Lut::from_fn(params.poly_size, 4, |m| (3 * m + 1) % 4),
        ];
        let cts: Vec<_> = (0..5).map(|m| ck.encrypt(m % 4, &mut rng)).collect();
        // Mixed fanout widths exercise the flattened-slot bookkeeping.
        let map = vec![vec![0, 1], vec![1], vec![0, 1], vec![0], vec![1, 0]];
        let req = BatchRequest::fanned_out(cts, luts, map).unwrap();
        assert_eq!(req.output_len(), 8);
        let seq = sk.try_bootstrap_batch(&req).unwrap();
        let par = bootstrap_scoped_parallel(&sk, &req, 3).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn single_thread_falls_back_to_sequential() {
        let mut rng = StdRng::seed_from_u64(601);
        let params = ParamSet::Test.params();
        let ck = ClientKey::generate(params.clone(), &mut rng);
        let sk = ServerKey::new(&ck, &mut rng);
        let lut = Lut::identity(params.poly_size, 4);
        let req = BatchRequest::shared(vec![ck.encrypt(1, &mut rng)], lut);
        assert_eq!(bootstrap_scoped_parallel(&sk, &req, 1).unwrap().len(), 1);
    }

    #[test]
    fn zero_threads_is_an_error() {
        let mut rng = StdRng::seed_from_u64(603);
        let params = ParamSet::Test.params();
        let ck = ClientKey::generate(params.clone(), &mut rng);
        let sk = ServerKey::new(&ck, &mut rng);
        let lut = Lut::identity(params.poly_size, 4);
        let req = BatchRequest::shared(Vec::new(), lut);
        assert_eq!(
            bootstrap_scoped_parallel(&sk, &req, 0),
            Err(TfheError::ZeroThreads)
        );
    }
}
