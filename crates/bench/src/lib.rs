//! Report generators for every table and figure of the Morphling
//! evaluation. Each function returns the regenerated artifact as a
//! formatted table (with the paper's values alongside ours); the `report`
//! binary prints them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod autotune;

use std::fmt::Write as _;
use std::time::Instant;

use morphling_apps::{models, runtime, xgboost::XgBoostModel};
use morphling_core::opcount::{bootstrap_memory, cpu_bootstrap_ops, Fig3Row};
use morphling_core::reference::{
    baselines_for, TABLE_VI_CPU_SECONDS, TABLE_VI_MORPHLING_PAPER, TABLE_V_MORPHLING_PAPER,
};
use morphling_core::sched::{HwScheduler, SwScheduler, Workload};
use morphling_core::sim::Simulator;
use morphling_core::{hwmodel, ArchConfig, ReuseMode};
use morphling_tfhe::{
    BatchRequest, BootstrapEngine, BootstrapOptions, Bootstrapper, ClientKey, EngineStats, Lut,
    ParamSet, ServerKey, TfheParams,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Resolve a Table III set by name.
pub(crate) fn params_by_name(name: &str) -> TfheParams {
    match name {
        "I" => ParamSet::I.params(),
        "II" => ParamSet::II.params(),
        "III" => ParamSet::III.params(),
        "IV" => ParamSet::IV.params(),
        "A" => ParamSet::A.params(),
        "B" => ParamSet::B.params(),
        "C" => ParamSet::C.params(),
        "FIG1" => ParamSet::Fig1.params(),
        _ => panic!("unknown parameter set {name}"),
    }
}

/// Measure our CPU (functional TFHE) bootstrap: returns
/// `(latency_ms, bootstraps_per_second)` for `iters` identity bootstraps
/// at `set`, single-threaded.
pub(crate) fn measure_cpu_bootstrap(set: ParamSet, iters: u32) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(7777);
    let params = set.params();
    let ck = ClientKey::generate(params, &mut rng);
    let sk = ServerKey::new(&ck, &mut rng);
    let ct = ck.encrypt(1, &mut rng);
    // Warm-up.
    let _ = sk.bootstrap(&ct);
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(sk.bootstrap(std::hint::black_box(&ct)));
    }
    let elapsed = start.elapsed().as_secs_f64() / iters as f64;
    (elapsed * 1e3, 1.0 / elapsed)
}

/// Measure our CPU blind rotation + sample extraction and key switch
/// apart: returns `(rotate_ms, key_switch_ms)`, each the mean of `iters`
/// runs at `set`, single-threaded.
pub(crate) fn measure_cpu_stages(set: ParamSet, iters: u32) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(7778);
    let params = set.params();
    let ck = ClientKey::generate(params.clone(), &mut rng);
    let sk = ServerKey::new(&ck, &mut rng);
    let ct = ck.encrypt(1, &mut rng);
    let lut = Lut::identity(params.poly_size, params.plaintext_modulus);
    let rotate = || {
        sk.bootstrap_with_options(&ct, &lut, BootstrapOptions::new().keyswitch(false))
            .expect("bootstrap without the key switch")
    };
    // Warm-up, and the key switch's input.
    let extracted = rotate();
    let mean_ms = |op: &dyn Fn()| {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        start.elapsed().as_secs_f64() * 1e3 / f64::from(iters)
    };
    let rotate_ms = mean_ms(&|| {
        std::hint::black_box(rotate());
    });
    let key_switch_ms = mean_ms(&|| {
        std::hint::black_box(sk.key_switch_key().key_switch(&extracted));
    });
    (rotate_ms, key_switch_ms)
}

/// Measure the persistent [`BootstrapEngine`]'s throughput (BS/s) over a
/// batch, with the pool already warm — the steady-state number a stream
/// of batches sees. Also returns the engine's own [`EngineStats`] so
/// callers can calibrate the CPU cost model from the same run.
pub(crate) fn measure_engine_bootstrap(
    set: ParamSet,
    batch: usize,
    workers: usize,
) -> (f64, EngineStats) {
    let mut rng = StdRng::seed_from_u64(7779);
    let params = set.params();
    let p = params.plaintext_modulus;
    let ck = ClientKey::generate(params.clone(), &mut rng);
    let sk = std::sync::Arc::new(ServerKey::new(&ck, &mut rng));
    let engine = BootstrapEngine::builder()
        .workers(workers)
        .build(sk)
        .expect("nonzero worker count");
    let lut = morphling_tfhe::Lut::identity(params.poly_size, p);
    let cts: Vec<_> = (0..batch)
        .map(|i| ck.encrypt(i as u64 % p, &mut rng))
        .collect();
    // Warm-up one round (first-touch transform tables, thread wake-up).
    let warm = BatchRequest::shared(cts[..workers.min(batch).max(1)].to_vec(), lut.clone());
    let _ = engine.try_bootstrap_batch(&warm);
    engine.reset_stats();
    let start = Instant::now();
    let out = engine
        .try_bootstrap_batch(&BatchRequest::shared(cts, lut))
        .expect("validated batch");
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(out.len(), batch);
    (batch as f64 / elapsed, engine.stats())
}

/// **Fig 1**: operation / memory breakdown of one bootstrap at the 128-bit
/// configuration (N=1024, n=481, k=2, l_b=4, l_k=9). `measured_cpu`
/// adds the time split of our own functional TFHE implementation (slow —
/// a few seconds).
pub fn fig1_report(measured_cpu: bool) -> String {
    let params = ParamSet::Fig1.params();
    let ops = cpu_bootstrap_ops(&params);
    let mem = bootstrap_memory(&params);
    let total = ops.total() as f64;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig 1 — bootstrapping breakdown ({} = N={}, n={}, k={}, l_b={}, l_k={})",
        params.name,
        params.poly_size,
        params.lwe_dim,
        params.glwe_dim,
        params.bsk_decomp.level(),
        params.ksk_decomp.level()
    );
    let _ = writeln!(s, "  operations (multiplications):            paper");
    let _ = writeln!(
        s,
        "    I/FFT         {:>12}  ({:5.1}%)       ~88%",
        ops.transform,
        100.0 * ops.transform as f64 / total
    );
    let _ = writeln!(
        s,
        "    poly-mult     {:>12}  ({:5.1}%)",
        ops.pointwise,
        100.0 * ops.pointwise as f64 / total
    );
    let _ = writeln!(
        s,
        "    key-switch    {:>12}  ({:5.1}%)       ~1.9%",
        ops.key_switch,
        100.0 * ops.key_switch as f64 / total
    );
    let _ = writeln!(
        s,
        "    others        {:>12}  ({:5.1}%)       ~1%",
        ops.other,
        100.0 * ops.other as f64 / total
    );
    let _ = writeln!(s, "  memory:                                  paper");
    let _ = writeln!(
        s,
        "    BSK           {:>9.1} MB                101.4 MB",
        mem.bsk as f64 / 1048576.0
    );
    let _ = writeln!(
        s,
        "    KSK           {:>9.1} MB                 33.8 MB",
        mem.ksk as f64 / 1048576.0
    );
    let _ = writeln!(
        s,
        "    working set   {:>9.3} MB",
        mem.working as f64 / 1048576.0
    );
    if measured_cpu {
        let (rotate_ms, key_switch_ms) = measure_cpu_stages(ParamSet::Fig1, 10);
        let _ = writeln!(s, "  time (measured: our CPU impl, 1 core):   paper");
        for (stage, ms, paper) in [
            ("blind rotation + extraction", rotate_ms, 37.7),
            ("key switch", key_switch_ms, 6.4),
        ] {
            let _ = writeln!(s, "    {stage:<27} {ms:>7.2} ms   {paper:>4.1} ms");
        }
    }
    s
}

/// **Fig 3**: reduction in domain-transform operations per reuse type.
pub fn fig3_report() -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig 3 — domain transforms per bootstrap on the 4x4 VPE array"
    );
    let _ = writeln!(
        s,
        "  set  (k,l_b)   no-reuse   input-reuse (reduction)   in+out-reuse (reduction)"
    );
    for set in [ParamSet::A, ParamSet::B, ParamSet::C] {
        let p = set.params();
        let row = Fig3Row::for_params(&p);
        let _ = writeln!(
            s,
            "  {:>3}  ({},{})    {:>7}    {:>7} ({:4.1}%)          {:>7} ({:4.1}%)",
            p.name,
            row.k_lb.0,
            row.k_lb.1,
            row.no_reuse,
            row.input_reuse,
            100.0 * row.input_reduction(),
            row.input_output_reuse,
            100.0 * row.input_output_reduction(),
        );
    }
    let _ = writeln!(
        s,
        "  paper: up to 46752 transforms; 25–37.5% input reuse; up to 83.3% in+out reuse"
    );
    s
}

/// **Table IV**: area and power breakdown at 28 nm.
pub fn table4_report() -> String {
    let cfg = ArchConfig::morphling_default();
    let b = hwmodel::evaluate(&cfg);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table IV — area/power breakdown (ours | paper total 74.79 mm² / 53.00 W)"
    );
    for row in &b.xpu_detail {
        let _ = writeln!(
            s,
            "  {:<28} {:>7.2} mm²  {:>6.2} W",
            row.component, row.cost.area_mm2, row.cost.power_w
        );
    }
    let xpu = hwmodel::xpu_subtotal(&cfg);
    let _ = writeln!(
        s,
        "  {:<28} {:>7.2} mm²  {:>6.2} W",
        "XPU (subtotal)", xpu.area_mm2, xpu.power_w
    );
    for row in &b.rows {
        let _ = writeln!(
            s,
            "  {:<28} {:>7.2} mm²  {:>6.2} W",
            row.component, row.cost.area_mm2, row.cost.power_w
        );
    }
    let t = b.total();
    let _ = writeln!(
        s,
        "  {:<28} {:>7.2} mm²  {:>6.2} W",
        "Total", t.area_mm2, t.power_w
    );
    s
}

/// **Table V**: bootstrapping latency/throughput across platforms.
/// `measured_cpu` optionally adds a live measurement of our own functional
/// TFHE implementation (slow — a few seconds).
pub fn table5_report(measured_cpu: bool) -> String {
    let sim = Simulator::new(ArchConfig::morphling_default());
    let mut s = String::new();
    let _ = writeln!(s, "Table V — bootstrapping latency and throughput");
    let _ = writeln!(
        s,
        "  {:<24} {:>4}  {:>12} {:>14}",
        "platform", "set", "latency(ms)", "tput(BS/s)"
    );
    for set in ["I", "II", "III", "IV"] {
        for b in baselines_for(set) {
            let _ = writeln!(
                s,
                "  {:<24} {:>4}  {:>12.2} {:>14.0}   [paper baseline]",
                format!("{} ({})", b.system, b.platform),
                b.param_set,
                b.latency_ms,
                b.throughput_bs_s
            );
        }
    }
    if measured_cpu {
        for set in [ParamSet::I, ParamSet::II] {
            let (lat, tput) = measure_cpu_bootstrap(set, 3);
            let _ = writeln!(
                s,
                "  {:<24} {:>4}  {:>12.2} {:>14.1}   [measured: our CPU impl, 1 core]",
                "ours (CPU functional)",
                set.params().name,
                lat,
                tput
            );
        }
        let threads = std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(4);
        let (engine_tput, stats) = measure_engine_bootstrap(ParamSet::I, 2 * threads, threads);
        let _ = writeln!(
            s,
            "  {:<24} {:>4}  {:>12} {:>14.1}   [measured: persistent engine, {threads} workers, {:.1} BS/s per core]",
            "ours (CPU engine)",
            "I",
            "-",
            engine_tput,
            stats.bootstraps_per_core_sec()
        );
    }
    for &(set, paper_lat, paper_tput) in TABLE_V_MORPHLING_PAPER {
        let r = sim.bootstrap_batch(&params_by_name(set), 16);
        let _ = writeln!(
            s,
            "  {:<24} {:>4}  {:>12.2} {:>14.0}   [ours: simulator; paper {paper_lat} ms / {paper_tput} BS/s]",
            "Morphling (ASIC 28nm)",
            set,
            r.latency_ms(),
            r.throughput_bs_per_s()
        );
    }
    s
}

/// **Fig 7-a**: latency breakdown across components.
pub fn fig7a_report() -> String {
    let sim = Simulator::new(ArchConfig::morphling_default());
    let mut s = String::new();
    let _ = writeln!(s, "Fig 7a — latency breakdown (paper: XPU 88–93%)");
    let _ = writeln!(s, "  set    MS        XPU(BR)    SE        KS");
    for set in ["I", "II", "III", "IV"] {
        let r = sim.bootstrap_batch(&params_by_name(set), 16);
        let (ms, br, se, ks) = r.latency_breakdown();
        let _ = writeln!(
            s,
            "  {:>3}   {:6.2}%   {:6.2}%   {:6.2}%   {:6.2}%",
            set,
            ms * 100.0,
            br * 100.0,
            se * 100.0,
            ks * 100.0
        );
    }
    s
}

/// **Fig 7-b**: throughput and speed-up per transform-domain reuse type
/// (same compute resources), sets A/B/C, plus the merge-split FFT bar.
pub fn fig7b_report() -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig 7b — throughput per reuse architecture (speedup vs No-Reuse)"
    );
    let _ = writeln!(
        s,
        "  paper speedups: input 1.3–1.6x; in+out 2.0/2.9/3.9x (A/B/C); +merge-split 1.2–1.3x; total 2.6–5.3x"
    );
    for set in [ParamSet::A, ParamSet::B, ParamSet::C] {
        let params = set.params();
        let tput = |reuse: ReuseMode, ms: bool| {
            Simulator::new(
                ArchConfig::morphling_default()
                    .with_reuse(reuse)
                    .with_merge_split(ms),
            )
            .bootstrap_batch(&params, 16)
            .throughput_bs_per_s()
        };
        let no = tput(ReuseMode::NoReuse, false);
        let input = tput(ReuseMode::InputReuse, false);
        let io = tput(ReuseMode::InputOutputReuse, false);
        let io_ms = tput(ReuseMode::InputOutputReuse, true);
        let _ = writeln!(
            s,
            "  set {:>2}: no-reuse {:>7.0} | input {:>7.0} ({:.2}x) | in+out {:>7.0} ({:.2}x) | +merge-split {:>7.0} ({:.2}x total)",
            params.name, no, input, input / no, io, io / no, io_ms, io_ms / no
        );
    }
    s
}

/// **Fig 8-a**: impact of Private-A1 size on latency/throughput (set A).
pub fn fig8a_report() -> String {
    let params = ParamSet::A.params();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig 8a — Private-A1 sweep (set A; paper: degrades below 4096 KB, stable above)"
    );
    let _ = writeln!(s, "  A1(KB)   streams   latency(ms)   tput(BS/s)");
    for kb in [512usize, 1024, 2048, 3072, 4096, 6144, 8192, 16384] {
        let r = Simulator::new(ArchConfig::morphling_default().with_private_a1_kb(kb))
            .bootstrap_batch(&params, 16);
        let _ = writeln!(
            s,
            "  {:>6}   {:>7}   {:>11.3} {:>12.0}",
            kb,
            r.stream_batch,
            r.latency_ms(),
            r.throughput_bs_per_s()
        );
    }
    s
}

/// **Fig 8-b**: impact of the number of XPUs on throughput (set A).
pub fn fig8b_report() -> String {
    let params = ParamSet::A.params();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig 8b — XPU-count sweep (set A; paper: linear to 4, then memory-bound)"
    );
    let _ = writeln!(s, "  XPUs   cores   tput(BS/s)   stall");
    for xpus in 1..=8usize {
        let r = Simulator::new(ArchConfig::morphling_default().with_xpus(xpus))
            .bootstrap_batch(&params, 4 * xpus);
        let _ = writeln!(
            s,
            "  {:>4}   {:>5}   {:>10.0}   {:>5.2}",
            xpus,
            r.cores,
            r.throughput_bs_per_s(),
            r.stall
        );
    }
    s
}

/// **Table VI**: application execution time, Morphling vs CPU.
pub fn table6_report() -> String {
    let rt = runtime::AppRuntime::paper_default();
    let workloads = vec![
        ("XG-Boost", XgBoostModel::paper_benchmark().workload()),
        ("DeepCNN-20", models::deep_cnn(20).workload()),
        ("DeepCNN-50", models::deep_cnn(50).workload()),
        ("DeepCNN-100", models::deep_cnn(100).workload()),
        ("VGG-9", models::vgg9().workload()),
    ];
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table VI — application execution time (paper speedups 88–144x)"
    );
    let _ = writeln!(
        s,
        "  {:<12} {:>9} {:>13} {:>9}   {:>18} {:>13}",
        "app", "CPU(s)", "Morphling(s)", "speedup", "paper CPU/Morph(s)", "paper speedup"
    );
    for (name, w) in &workloads {
        let est = runtime::estimate(w, &rt);
        let paper_cpu = TABLE_VI_CPU_SECONDS
            .iter()
            .find(|&&(n, _)| n == *name)
            .expect("workload missing from TABLE_VI_CPU_SECONDS")
            .1;
        let paper_m = TABLE_VI_MORPHLING_PAPER
            .iter()
            .find(|&&(n, _)| n == *name)
            .expect("workload missing from TABLE_VI_MORPHLING_PAPER")
            .1;
        let _ = writeln!(
            s,
            "  {:<12} {:>9.2} {:>13.3} {:>8.0}x   {:>8.2} / {:<7.2} {:>12.0}x",
            name,
            est.cpu_seconds,
            est.morphling_seconds,
            est.speedup(),
            paper_cpu,
            paper_m,
            paper_cpu / paper_m
        );
    }
    s
}

/// **Dataflow ablation** (§IV-B): why Morphling is ACC-output stationary.
/// Input-stationary spills transform-domain partial sums into Private-A1
/// (halving stream batching); BSK-stationary additionally streams
/// accumulator state through HBM.
pub fn dataflow_ablation_report() -> String {
    use morphling_core::Dataflow;
    let mut s = String::new();
    let _ = writeln!(s, "Dataflow ablation (§IV-B) — why ACC-output stationary");
    let _ = writeln!(
        s,
        "  set   dataflow             streams   stall   tput(BS/s)"
    );
    for set in [ParamSet::A, ParamSet::B, ParamSet::C] {
        let params = set.params();
        for df in [
            Dataflow::OutputStationary,
            Dataflow::InputStationary,
            Dataflow::BskStationary,
        ] {
            let r = Simulator::new(ArchConfig::morphling_default().with_dataflow(df))
                .bootstrap_batch(&params, 16);
            let _ = writeln!(
                s,
                "  {:>3}   {:<19}  {:>6}   {:>5.2}   {:>10.0}",
                params.name,
                format!("{df:?}"),
                r.stream_batch,
                r.stall,
                r.throughput_bs_per_s()
            );
        }
    }
    s
}

/// **Execution trace** (`report trace <out.json>`): schedule `workload`
/// through the SW → HW scheduler pair with tracing on, merge in the
/// simulator's per-stage latency spans (same cycle time base), and return
/// the combined Chrome-trace JSON (loadable in `chrome://tracing` or
/// Perfetto). See DESIGN.md §"Execution tracing" for the format.
pub(crate) fn scheduler_trace_json(workload: &Workload, set: ParamSet) -> String {
    let cfg = ArchConfig::morphling_default();
    let params = set.params();
    let sw = SwScheduler::new(cfg.clone());
    let hw = HwScheduler::new(cfg.clone());
    let prog = sw.compile(workload, &params);
    let (_, mut trace) = hw.run_traced(&prog, &params);
    let report = Simulator::new(cfg.clone()).bootstrap_batch(&params, cfg.bootstrap_cores());
    trace.merge(&report.to_trace());
    trace.to_chrome_json()
}

/// [`scheduler_trace_json`] for a DeepCNN-X workload at parameter set I —
/// the `report` binary's `--trace` payload.
pub fn deepcnn_trace_json(x: usize) -> String {
    scheduler_trace_json(&models::deep_cnn(x).workload(), ParamSet::I)
}

/// Headline summary (abstract claims).
pub fn summary_report() -> String {
    let sim = Simulator::new(ArchConfig::morphling_default());
    let ours_i = sim
        .bootstrap_batch(&ParamSet::I.params(), 16)
        .throughput_bs_per_s();
    let ours_ii = sim
        .bootstrap_batch(&ParamSet::II.params(), 16)
        .throughput_bs_per_s();
    let cpu = baselines_for("I")
        .find(|r| r.platform == "CPU")
        .expect("CPU baseline missing for set I")
        .throughput_bs_s;
    let nufhe = baselines_for("II")
        .find(|r| r.system == "NuFHE")
        .expect("NuFHE baseline missing for set II")
        .throughput_bs_s;
    let matcha = baselines_for("I")
        .find(|r| r.system == "MATCHA")
        .expect("MATCHA baseline missing for set I")
        .throughput_bs_s;
    let strix = baselines_for("I")
        .find(|r| r.system == "Strix")
        .expect("Strix baseline missing for set I")
        .throughput_bs_s;
    let mut s = String::new();
    let _ = writeln!(s, "Headline claims (abstract)            ours        paper");
    let _ = writeln!(
        s,
        "  peak throughput (set I)        {:>9.0}      147,615 BS/s",
        ours_i
    );
    let _ = writeln!(
        s,
        "  speedup vs CPU (Concrete)      {:>8.0}x        3440x",
        ours_i / cpu
    );
    let _ = writeln!(
        s,
        "  speedup vs GPU (NuFHE, II)     {:>8.0}x         143x",
        ours_ii / nufhe
    );
    let _ = writeln!(
        s,
        "  speedup vs MATCHA              {:>8.1}x         14.7x",
        ours_i / matcha
    );
    let _ = writeln!(
        s,
        "  speedup vs Strix               {:>8.2}x         1.98x",
        ours_i / strix
    );
    // Energy efficiency from the cost model + simulator (supplementary).
    let power = hwmodel::evaluate(&ArchConfig::morphling_default())
        .total()
        .power_w;
    let ours_mj = sim
        .bootstrap_batch(&ParamSet::I.params(), 16)
        .energy_per_bootstrap_mj(power);
    let strix_mj = 77.14 / strix * 1e3;
    let _ = writeln!(
        s,
        "  energy per bootstrap (set I)   {:>7.2} mJ     (Strix: {:.2} mJ)",
        ours_mj, strix_mj
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_report_renders() {
        for report in [
            fig1_report(false),
            fig3_report(),
            table4_report(),
            table5_report(false),
            fig7a_report(),
            fig7b_report(),
            fig8a_report(),
            fig8b_report(),
            table6_report(),
            summary_report(),
        ] {
            assert!(report.lines().count() >= 3, "report too short:\n{report}");
        }
    }

    #[test]
    fn fig3_report_contains_the_46752_datum() {
        assert!(fig3_report().contains("46752"));
    }

    #[test]
    fn trace_json_is_structurally_valid() {
        let json = scheduler_trace_json(&Workload::independent(64).then(32, 10_000), ParamSet::I);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        // Scheduler spans and merged simulator spans both present.
        assert!(json.contains("XPU.BR"));
        assert!(json.contains("BlindRotate"));
        // Structural brace balance, skipping string contents (span names
        // like `DMA.LDBSK [0..500)` carry an unmatched `[`).
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for c in json.chars() {
            match (in_str, esc, c) {
                (true, true, _) => esc = false,
                (true, false, '\\') => esc = true,
                (true, false, '"') => in_str = false,
                (true, ..) => {}
                (false, _, '"') => in_str = true,
                (false, _, '{' | '[') => depth += 1,
                (false, _, '}' | ']') => depth -= 1,
                _ => {}
            }
        }
        assert_eq!(depth, 0, "unbalanced JSON braces");
    }

    #[test]
    fn table4_report_totals() {
        let r = table4_report();
        assert!(r.contains("Total"));
        assert!(r.contains("HBM2e"));
    }
}
