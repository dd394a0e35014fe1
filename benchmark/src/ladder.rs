//! The probe ladder: every layer timed from outside, bottom-up, single
//! threaded, at the workload's own parameter set. Each rung reports the
//! median of up to 31 repetitions after a warm-up call; a rung whose one
//! call takes many milliseconds (a Set III bootstrap is ~0.1 s) repeats
//! as often as [`RUNG_BUDGET_S`] allows, at least [`MIN_REPS`] times.
//!
//! A metric the traced workload already filled from the layer's own
//! counters is left alone; where the workload bypasses a layer, the rung
//! gives that layer's cost at the workload's parameter set.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use morphling_apps::runtime::InferenceDriver;
use morphling_core::reference::TABLE_V_MORPHLING_PAPER;
use morphling_core::sim::Simulator;
use morphling_core::ArchConfig;
use morphling_math::{sampling, Polynomial, SignedDecomposer, Torus32};
use morphling_tfhe::{
    blind_rotate_assign, deserialize_server_key, modulus_switch, sample_extract,
    serialize_server_key, BatchRequest, BootstrapOptions, Bootstrapper, ClientKey, Dispatcher,
    ExternalProductEngine, GlweCiphertext, KeyStore, LweCiphertext, MemoryBackend, ServerKey,
    ServingConfig, TenantId, TfheError,
};
use morphling_transform::{BatchScratch, NegacyclicFft, PolyBatch, Spectrum, SpectrumBatch};

use crate::harness::{median, ms, Cfg, Metrics, Stream, PER_LAYER};
use crate::layers::{dispatch_p50s_ms, engine_busy_ms};
use crate::trace::{self_ms_per_item, SpanLog, Traced};
use crate::workloads::{plus_one_lut, tree_inputs, TREE};

const MAX_REPS: usize = 31;
const MIN_REPS: usize = 3;
const RUNG_BUDGET_S: f64 = 0.6;
const LANES: usize = 8;

/// Per-repetition seconds of each closure in `fs`, run round-robin after
/// one warm-up round. A slow spell of a shared host then falls on all of
/// them alike, so ratios between them, taken per repetition, hold.
fn probe_together(cfg: &Cfg, fs: &mut [&mut dyn FnMut()]) -> Vec<Vec<f64>> {
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let once: f64 = fs.iter_mut().map(|f| time(*f)).sum();
    let reps = if cfg.smoke {
        MIN_REPS
    } else {
        ((fs.len() as f64 * RUNG_BUDGET_S / once.max(1e-9)) as usize).clamp(MIN_REPS, MAX_REPS)
    };
    let mut samples = vec![Vec::with_capacity(reps); fs.len()];
    for _ in 0..reps {
        for (f, s) in fs.iter_mut().zip(&mut samples) {
            s.push(time(*f));
        }
    }
    samples
}

/// Median seconds of `f` after one warm-up call.
fn probe(cfg: &Cfg, mut f: impl FnMut()) -> f64 {
    median(&mut probe_together(cfg, &mut [&mut f])[0])
}

/// Median over repetitions of `part[i] / whole[i]`.
fn median_share(part: &[f64], whole: &[f64]) -> f64 {
    median(
        &mut part
            .iter()
            .zip(whole)
            .map(|(p, w)| p / w)
            .collect::<Vec<_>>(),
    )
}

/// A backend that returns its inputs: what is left of the dispatcher's
/// latency when the bootstraps cost nothing.
struct Noop;

impl Bootstrapper for Noop {
    fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
        Ok(req.ciphertexts().to_vec())
    }
}

/// Walk every rung at `ck`'s parameter set and fill `layers`, keeping
/// what the workload already measured. `serving` is the workload's
/// dispatcher configuration.
pub fn climb(
    cfg: &Cfg,
    ck: &ClientKey,
    sk: &Arc<ServerKey>,
    serving: &ServingConfig,
    layers: &mut Metrics,
) -> Result<(), TfheError> {
    let mut fresh = Metrics::new();
    let params = ck.params().clone();
    let (n, k) = (params.poly_size, params.glwe_dim);
    let level = params.bsk_decomp.level();
    let mut rng = cfg.rng(Stream::Probes, 0);
    let us = |s: f64| s * 1e6;

    // math: one gadget decomposition of a torus polynomial.
    let decomposer = SignedDecomposer::<Torus32>::new(params.bsk_decomp);
    let torus_poly: Polynomial<Torus32> = sampling::uniform_torus_poly(n, &mut rng);
    let mut digits = vec![Polynomial::<i64>::zero(n); level];
    let t = probe(cfg, || {
        decomposer.decompose_poly_into(black_box(&torus_poly), &mut digits)
    });
    fresh.insert("math.decompose_us", us(t));

    // transform: forward of a digit polynomial, inverse of its spectrum,
    // one lane and eight lockstep lanes.
    let fft = NegacyclicFft::new(n);
    let mut spectrum = Spectrum::zero(n);
    let t = probe(cfg, || {
        fft.forward_int_into(black_box(&digits[0]), &mut spectrum)
    });
    fresh.insert("transform.fwd_us_1lane", us(t));
    let fwd_1 = t;
    let (mut back, mut scratch) = (Polynomial::<Torus32>::zero(n), Vec::new());
    let t = probe(cfg, || {
        fft.inverse_torus_into(black_box(&spectrum), &mut back, &mut scratch)
    });
    fresh.insert("transform.inv_us_1lane", us(t));
    let inv_1 = t;
    let lanes: Vec<Polynomial<i64>> = (0..LANES).map(|i| digits[i % level].clone()).collect();
    let poly_batch = PolyBatch::from_polys(&lanes);
    let mut spec_batch = SpectrumBatch::zero(n, LANES);
    let t = probe(cfg, || {
        fft.forward_int_batch_into(black_box(&poly_batch), &mut spec_batch)
    });
    fresh.insert("transform.fwd_us_per_lane_8", us(t) / LANES as f64);
    let (mut back_batch, mut batch_scratch) =
        (PolyBatch::<Torus32>::zero(n, LANES), BatchScratch::new());
    let t = probe(cfg, || {
        fft.inverse_torus_batch_into(black_box(&spec_batch), &mut back_batch, &mut batch_scratch)
    });
    fresh.insert("transform.inv_us_per_lane_8", us(t) / LANES as f64);

    // external product: one CMUX step of the blind rotation.
    let lut = plus_one_lut(ck);
    let ep = ExternalProductEngine::new(&params);
    let bsk = sk.bootstrap_key();
    let mut ws = ep.workspace(k);
    let mut acc = GlweCiphertext::trivial(lut.polynomial().clone(), k);
    let t = probe(cfg, || {
        ep.rotate_cmux_into(bsk.fourier(0), black_box(&mut acc), 3, &mut ws)
    });
    fresh.insert("external_product.cmux_us", us(t));

    // bootstrap: the extraction of one sample.
    let mut extracted = sample_extract(&acc);
    let t = probe(cfg, || extracted = sample_extract(black_box(&acc)));
    fresh.insert("bootstrap.sample_extract_us", us(t));
    let extract = t;

    // bootstrap, ksk, server: the whole rotation, the key switch of the
    // extracted sample back under the small key, and the whole bootstrap,
    // timed together so that the Fig 7a shares are ratios of like with like.
    let ct = ck.encrypt(1, &mut rng);
    let (mask, b_tilde) = modulus_switch(&ct, params.two_n());
    let start =
        GlweCiphertext::trivial(lut.polynomial().clone(), k).monomial_mul(-(b_tilde as i64));
    let mut server_ws = sk.workspace();
    let mut times = probe_together(
        cfg,
        &mut [
            &mut || {
                acc = start.clone();
                blind_rotate_assign(&ep, bsk, black_box(&mut acc), &mask, &mut ws);
            },
            &mut || {
                black_box(sk.key_switch_key().key_switch(black_box(&extracted)));
            },
            &mut || {
                let opts = BootstrapOptions::new().workspace(&mut server_ws);
                black_box(sk.bootstrap_with_options(&ct, &lut, opts)).expect("probe bootstrap");
            },
        ],
    );
    fresh.insert(
        "server.share_blind_rotate",
        median_share(&times[0], &times[2]),
    );
    fresh.insert(
        "server.share_key_switch",
        median_share(&times[1], &times[2]),
    );
    let [blind_rotate, key_switch, pbs] = [0, 1, 2].map(|i| median(&mut times[i]));
    fresh.insert("bootstrap.blind_rotate_ms", blind_rotate * 1e3);
    fresh.insert("ksk.key_switch_ms", key_switch * 1e3);
    fresh.insert("server.pbs_ms", pbs * 1e3);

    // server: without the key switch, three LUTs of one rotation, and
    // eight lockstep lanes.
    let t = probe(cfg, || {
        let opts = BootstrapOptions::new()
            .keyswitch(false)
            .workspace(&mut server_ws);
        black_box(sk.bootstrap_with_options(&ct, &lut, opts)).expect("probe bootstrap");
    });
    fresh.insert("server.pbs_no_ks_ms", t * 1e3);
    let luts = [lut.clone(), lut.clone(), lut.clone()];
    let t = probe(cfg, || {
        black_box(sk.try_programmable_bootstrap_many_with(&ct, &luts, &mut server_ws))
            .expect("probe multi-value bootstrap");
    });
    fresh.insert("server.pbs_many3_ms", t * 1e3);
    let cts: Vec<LweCiphertext> = (0..LANES).map(|_| ck.encrypt(1, &mut rng)).collect();
    let wave = BatchRequest::shared(cts, lut.clone());
    let t = probe(cfg, || {
        black_box(sk.try_bootstrap_batch(&wave)).expect("probe lockstep wave");
    });
    // `blind_rotate_assign_many` is not public: the lockstep rotation is
    // what is left of an 8-lane wave after its probed extractions and
    // key switches.
    fresh.insert(
        "bootstrap.blind_rotate_ms_per_lane_8",
        (t / LANES as f64 - extract - key_switch) * 1e3,
    );
    // The outside-in split of one bootstrap (Fig 1 and Fig 7a of the
    // paper, for this CPU): probe time × calls per bootstrap ÷ PBS time.
    // The 1-lane forward probe is not merge-split, so the transform share
    // is an upper estimate.
    let polymuls = params.polymuls_per_bootstrap() as f64;
    let forwards = polymuls / (k + 1) as f64;
    let inverses = forwards / level as f64;
    fresh.insert(
        "server.share_transform",
        (fwd_1 * forwards + inv_1 * inverses) / pbs,
    );

    // engine: one batch over a pool of `nproc` workers.
    let engine = Arc::new(serving.build_engine(Arc::clone(sk))?);
    let cts: Vec<LweCiphertext> = (0..2 * cfg.nproc)
        .map(|_| ck.encrypt(1, &mut rng))
        .collect();
    engine.try_bootstrap_batch(&BatchRequest::shared(cts, lut.clone()))?;
    fresh.insert("engine.busy_ms_per_bootstrap", engine_busy_ms(&engine));

    // dispatch: the workload's configuration over that engine, then over
    // a backend that costs nothing.
    let lut = Arc::new(lut);
    let through = |dispatcher: &Dispatcher, ops: usize| {
        let t = Instant::now();
        let tickets: Vec<_> = (0..ops)
            .map(|_| dispatcher.submit(ct.clone(), Arc::clone(&lut), None))
            .collect();
        for ticket in tickets {
            ticket?.wait()?;
        }
        Ok::<f64, TfheError>(t.elapsed().as_secs_f64() / ops as f64)
    };
    let dispatcher = Dispatcher::from_config(serving, Arc::clone(&engine))?;
    through(&dispatcher, serving.max_batch_size)?;
    let (queued, exec) = dispatch_p50s_ms(&dispatcher);
    fresh.insert("dispatch.queue_wait_ms_p50", queued);
    fresh.insert("dispatch.exec_ms_p50", exec);
    drop(dispatcher);
    let dispatcher = Dispatcher::from_config(serving, Noop)?;
    let mut per_op: Vec<f64> = Vec::new();
    for _ in 0..if cfg.smoke { MIN_REPS } else { MAX_REPS } {
        per_op.push(through(&dispatcher, 4 * serving.max_batch_size)?);
    }
    fresh.insert("dispatch.noop_us_per_op", us(median(&mut per_op)));
    drop(dispatcher);

    // serialize + keystore: decode one key; serve a tenant that is never
    // resident (two tenants, room for one).
    let blob = serialize_server_key(sk);
    let t = probe(cfg, || {
        black_box(deserialize_server_key(black_box(&blob))).expect("probe decode");
    });
    fresh.insert("serialize.server_key_decode_ms", t * 1e3);
    let backend = Arc::new(MemoryBackend::new());
    backend.insert(TenantId::new(0), blob.clone());
    backend.insert(TenantId::new(1), blob);
    let store = KeyStore::new(backend, morphling_tfhe::keystore::server_key_bytes(sk));
    let mut turn = 0;
    let t = probe(cfg, || {
        turn ^= 1;
        drop(store.get(TenantId::new(turn)).expect("probe cold get"));
    });
    fresh.insert("keystore.cold_get_ms", t * 1e3);

    // apps: the driver's own time around the bootstraps of one small wave.
    let log = SpanLog::new();
    log.set_on(true);
    let backend = Traced {
        inner: &**sk,
        layer: "tfhe.server",
        log: Arc::clone(&log),
    };
    let driver = InferenceDriver::new(sk, &backend);
    let (_, feats) = tree_inputs(ck, 2, &mut rng);
    for _ in 0..MIN_REPS {
        let open = log.enter("apps.runtime");
        log.scope(&open);
        driver.classify_tree_wave_fused(&TREE, &feats)?;
        log.exit(open, feats.len() as u64, feats.len() as u64);
    }
    fresh.insert(
        "apps.self_ms_per_request",
        self_ms_per_item(&log.spans(), "apps.runtime"),
    );

    // core: the cycle-accurate model's prediction for this set, against
    // the paper's Table V row where there is one. Simulated time repeats
    // exactly; host time is what the model costs to run.
    let sim = Simulator::new(ArchConfig::morphling_default());
    let mut host: Vec<f64> = Vec::new();
    let mut bs_per_s = 0.0;
    for _ in 0..MIN_REPS {
        let t = Instant::now();
        bs_per_s = black_box(sim.bootstrap_batch(&params, 16)).throughput_bs_per_s();
        host.push(ms(t.elapsed()));
    }
    fresh.insert("core.sim_bs_per_s", bs_per_s);
    fresh.insert("core.sim_host_ms", median(&mut host));
    let paper = TABLE_V_MORPHLING_PAPER
        .iter()
        .find(|row| row.0 == params.name)
        .map_or(0.0, |row| (bs_per_s - row.2).abs() / row.2);
    fresh.insert("core.sim_rel_err_vs_table5", paper);

    for (name, value) in fresh {
        layers.entry(name).or_insert(value);
    }
    // What is left is a counter of a layer this workload bypasses.
    for (name, _) in PER_LAYER {
        layers.entry(name).or_insert(0.0);
    }
    Ok(())
}
