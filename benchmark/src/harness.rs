//! What every workload shares: the run configuration, seeded input
//! streams, failure accounting, the closed-loop round driver, and the
//! seven end-to-end metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// `name → value`; units live in [`END_TO_END`] / [`PER_LAYER`].
pub type Metrics = BTreeMap<&'static str, f64>;

/// The four workloads, with the reason each exists (also in
/// `BENCHMARK.json` and the README).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "offline_set3",
        "closed loop, BootstrapEngine at Set III in 16-ciphertext batches: many-lane transform and external product do >90% of the work",
    ),
    (
        "serve_open_set1",
        "open loop, paced at 12 req/s into Dispatcher over the engine at Set I: few-lane use of the kernels offline_set3 uses many-lane",
    ),
    (
        "serve_closed_tenants_test",
        "closed loop over 8 tenants through KeyStore and Dispatcher at the tiny Test set: dispatch, keystore and serialize dominate",
    ),
    (
        "app_tree_fused_tm",
        "closed loop of fused decision-tree waves at TestMedium: fanout batches, key switch and apps.runtime carry a visible share",
    ),
];

/// End-to-end metric names and units, in print order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("slo_attainment", "ratio"),
    ("success_rate", "ratio"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metric names and units, bottom-up.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("math.decompose_us", "us"),
    ("transform.fwd_us_1lane", "us"),
    ("transform.inv_us_1lane", "us"),
    ("transform.fwd_us_per_lane_8", "us"),
    ("transform.inv_us_per_lane_8", "us"),
    ("external_product.cmux_us", "us"),
    ("bootstrap.blind_rotate_ms", "ms"),
    ("bootstrap.blind_rotate_ms_per_lane_8", "ms"),
    ("bootstrap.sample_extract_us", "us"),
    ("ksk.key_switch_ms", "ms"),
    ("server.pbs_ms", "ms"),
    ("server.pbs_no_ks_ms", "ms"),
    ("server.pbs_many3_ms", "ms"),
    ("server.share_transform", "ratio"),
    ("server.share_blind_rotate", "ratio"),
    ("server.share_key_switch", "ratio"),
    ("engine.busy_ms_per_bootstrap", "ms"),
    ("engine.utilization", "ratio"),
    ("engine.extractions_per_bootstrap", "ratio"),
    ("engine.retries", "count"),
    ("dispatch.queue_wait_ms_p50", "ms"),
    ("dispatch.exec_ms_p50", "ms"),
    ("dispatch.mean_batch_size", "count"),
    ("dispatch.batches", "count"),
    ("dispatch.rejected", "count"),
    ("dispatch.expired", "count"),
    ("dispatch.retries", "count"),
    ("dispatch.noop_us_per_op", "us"),
    ("keystore.hit_rate", "ratio"),
    ("keystore.loads", "count"),
    ("keystore.evictions", "count"),
    ("keystore.bytes_resident", "bytes"),
    ("keystore.cold_get_ms", "ms"),
    ("serialize.server_key_decode_ms", "ms"),
    ("apps.self_ms_per_request", "ms"),
    ("apps.rotations_per_request", "count"),
    ("apps.extractions_per_request", "count"),
    ("core.sim_bs_per_s", "1/s"),
    ("core.sim_rel_err_vs_table5", "ratio"),
    ("core.sim_host_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("bench.gen_late_ms_p95", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.host_speed", "ratio"),
    ("bench.measured_throughput_ops_s", "1/s"),
    ("bench.measured_latency_p50_ms", "ms"),
];

/// One invocation's settings (`--workload` picks the function, the rest
/// is here).
#[derive(Clone, Copy, Debug)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrinks parameter sets and repetitions so all four workloads and
    /// the ladder finish in seconds; for plumbing tests only.
    pub smoke: bool,
    /// Load-generator threads and workers of the program under test.
    pub nproc: usize,
}

/// Independent input streams of one seed.
#[derive(Clone, Copy)]
pub enum Stream {
    Keys = 1,
    Plaintexts = 2,
    Arrivals = 3,
    Tenants = 4,
    Probes = 5,
}

impl Cfg {
    /// The generator of `stream`, sub-stream `lane` (a client thread, a
    /// tenant, a set-up repetition). The seed and the stream are hashed
    /// before they seed the generator: the vendored `StdRng` is SplitMix64
    /// with the seed as its state, so seeds that differ by a multiple of
    /// its increment would give the same sequence a few places apart.
    pub fn rng(&self, stream: Stream, lane: u64) -> StdRng {
        let hash = |x: u64| StdRng::seed_from_u64(x).next_u64();
        StdRng::seed_from_u64(hash(hash(self.seed) ^ ((stream as u64) << 32 | lane)))
    }

    /// Set-up repetitions: many when one set-up is short; a traced run
    /// does not report `setup_s` and sets up once.
    pub fn setup_reps(&self, full: usize) -> usize {
        if self.trace || self.smoke {
            1
        } else {
            full
        }
    }
}

/// Ops sent and how each ended. An op that errors, is refused, or decodes
/// wrong is a failed op and misses its latency limit.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub sent: u64,
    pub correct: u64,
    pub in_slo: u64,
    pub errors: u64,
    pub refused: u64,
    pub wrong: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.sent - self.correct
    }

    /// Count one op that produced an output.
    pub fn decoded(&mut self, ok: bool, latency: Duration, limit: Duration) {
        self.sent += 1;
        if ok {
            self.correct += 1;
            self.in_slo += u64::from(latency <= limit);
        } else {
            self.wrong += 1;
        }
    }

    /// Count `n` ops whose call returned an error.
    pub fn errored(&mut self, n: u64) {
        self.sent += n;
        self.errors += n;
    }

    /// Count `n` ops the program refused to admit.
    pub fn refused(&mut self, n: u64) {
        self.sent += n;
        self.refused += n;
    }

    pub fn add(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.correct += other.correct;
        self.in_slo += other.in_slo;
        self.errors += other.errors;
        self.refused += other.refused;
        self.wrong += other.wrong;
    }

    pub fn line(&self, phase: &str) -> String {
        format!(
            "phase {phase} sent={} succeeded={} failed={} (errors={} refused={} wrong={} late={})",
            self.sent,
            self.correct,
            self.failed(),
            self.errors,
            self.refused,
            self.wrong,
            self.correct - self.in_slo
        )
    }
}

/// The host-speed reference: a fixed floating-point kernel of the
/// benchmark's own, run right after every round of a workload on as many
/// threads as the round kept busy.
///
/// The cores are a slice of a shared machine, and what its other tenants
/// do changes how fast floating-point code runs here from one tenth of a
/// second to the next and from one minute to the next: side by side in
/// one open-loop run, a Set I request took 41 ms where the kernel took
/// 2.9 ms and 55 ms where it took 4.5 ms, and the share of the slow state
/// drifts over minutes. No statistic of the raw times repeats under that
/// (the driver saw the best second of `app_tree_fused_tm` spread 0.27),
/// but a duration divided by the kernel's time next to it does. Over 24 s
/// windows of runs minutes apart, the quartiles of the median duration
/// lay this far apart, as measured and after the correction:
/// `app_tree_fused_tm` 0.16 → 0.04 (20 windows), `offline_set3` 0.13 →
/// 0.07 (20), `serve_closed_tenants_test` 0.25 → 0.04 (4),
/// `serve_open_set1` 0.14 → 0.03 (10). What that takes, as measured:
///
/// - a kernel bound by floating-point throughput over a working set in
///   the second-level cache. Butterflies over 1 MB follow a bootstrap's
///   time (correlation 0.99 over 8 s windows); streaming 32 MB does not
///   react at all, nor does a register-only integer loop;
/// - as many kernels at once as the workload keeps cores busy: two
///   kernels side by side take 5–7 ms where one alone takes 3–4.5, and
///   only the pair follows the two-worker engine, only the single one
///   the tenants pipeline, which runs one batch at a time;
/// - a sample within a tenth of a second of what it corrects: one a
///   second halves the gain, one every four seconds loses it;
/// - the ratio taken round by round, and then the median: on
///   `app_tree_fused_tm` the median round over the median sample spread
///   0.09 where the median ratio spread 0.04. (On `offline_set3`, whose
///   rounds last over a second, it is the other way round, 0.04 and
///   0.07; one rule for all is worth the difference.)
///
/// The kernel is radix-2 butterflies over 65 536 complex doubles, scaled
/// by 1/√2 so the values neither grow nor decay into denormals. It calls
/// nothing in `crates/`, so no change to the program under test moves it.
pub struct HostRef {
    threads: usize,
    /// The CPU time the reference has burnt (each sample's wall time on
    /// each of its threads), for a workload that has to subtract it.
    pub cpu_ms: f64,
}

impl HostRef {
    /// About what one kernel run takes on this host. Durations are scaled
    /// to this speed; only ratios to it are ever used, so on another
    /// machine any constant would do.
    const NOMINAL_MS: f64 = 4.0;
    /// The share of the reference's slowdown, in logarithms, that a
    /// duration is corrected by. Part of every duration (memory traffic,
    /// integer code, lingering, waking a thread) does not slow with the
    /// kernel: the spread was smallest at 0.7 for the open loop and the
    /// set-ups, at 0.85–1.0 for the three closed loops, and within 0.02
    /// of its smallest at 0.8 for all four measured phases (the set-ups
    /// give up 0.05 at most).
    const SHARE: f64 = 0.8;
    const PASSES: usize = 2;
    const POINTS: usize = 1 << 16;

    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            cpu_ms: 0.0,
        }
    }

    fn kernel() -> f64 {
        let n = Self::POINTS;
        let mut re: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut im: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let (c, s) = (0.8_f64, 0.6_f64);
        let scale = std::f64::consts::FRAC_1_SQRT_2;
        let t = Instant::now();
        for _ in 0..Self::PASSES {
            let mut half = n / 2;
            while half >= 1 {
                for base in (0..n).step_by(2 * half) {
                    for j in base..base + half {
                        let (ar, ai, br, bi) = (re[j], im[j], re[j + half], im[j + half]);
                        let (tr, ti) = (br * c - bi * s, br * s + bi * c);
                        re[j] = (ar + tr) * scale;
                        im[j] = (ai + ti) * scale;
                        re[j + half] = (ar - tr) * scale;
                        im[j + half] = (ai - ti) * scale;
                    }
                }
                half /= 2;
            }
        }
        std::hint::black_box((&re, &im));
        ms(t.elapsed())
    }

    /// One sample in ms: the kernel on every thread at once. A parallel
    /// call ends when its slowest worker does, so the slowest thread's
    /// time is the sample. A single kernel runs on the caller's thread.
    fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let time = if self.threads == 1 {
            Self::kernel()
        } else {
            std::thread::scope(|s| {
                let threads: Vec<_> = (0..self.threads).map(|_| s.spawn(Self::kernel)).collect();
                threads
                    .into_iter()
                    .map(|t| t.join().expect("reference thread"))
                    .fold(0.0, f64::max)
            })
        };
        self.cpu_ms += ms(t.elapsed()) * self.threads as f64;
        time
    }

    /// What a duration measured next to a sample is multiplied by to read
    /// as it would at the nominal host speed.
    fn scale(sample_ms: f64) -> f64 {
        (Self::NOMINAL_MS / sample_ms).powf(Self::SHARE)
    }

    /// The factor to nominal speed from one sample taken now.
    pub fn scale_now(&mut self) -> f64 {
        Self::scale(self.sample())
    }

    /// The factor to nominal speed for a round of `wall_s` that has just
    /// ended, from the mean of samples taken for a twentieth of `wall_s`
    /// and at least once: a round of a second gets as much of the
    /// reference as ten rounds of a tenth.
    pub fn scale_after(&mut self, wall_s: f64) -> f64 {
        let t = Instant::now();
        let (mut sum, mut n) = (self.sample(), 1.0);
        while t.elapsed().as_secs_f64() < wall_s / 20.0 {
            sum += self.sample();
            n += 1.0;
        }
        Self::scale(sum / n)
    }
}

/// A rate or a duration over the run as measured, and at the reference's
/// nominal speed (see [`HostRef`]), which repeats on a shared host and is
/// what the end-to-end metric reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timed {
    pub raw: f64,
    pub reported: f64,
}

/// The measured phase of one workload.
#[derive(Debug, Default)]
pub struct Measured {
    pub tally: Tally,
    /// Per-op latency samples as measured (one per call when every call
    /// carries the same number of ops).
    pub latencies_ms: Vec<f64>,
    /// Closed loop: correct ops ÷ wall time of the median round. Open
    /// loop: completed ÷ (last completion − first due time), which the
    /// arrival schedule sets and the host's speed does not.
    pub throughput_ops_s: Timed,
    /// The median op's latency.
    pub latency_p50_ms: Timed,
    /// Process CPU time over the rounds ÷ their correct ops.
    pub cpu_ms_per_op: Timed,
    /// Traced ÷ untraced throughput; only meaningful in a traced run.
    pub trace_overhead_ratio: f64,
}

/// What one workload run produced.
pub struct Report {
    pub setup: Tally,
    pub setup_s: f64,
    pub measured: Measured,
    /// Per-layer metrics (traced run only).
    pub layers: Metrics,
}

impl Report {
    pub fn end_to_end(&self) -> Metrics {
        let m = &self.measured;
        let sent = m.tally.sent.max(1) as f64;
        Metrics::from([
            ("setup_s", self.setup_s),
            ("throughput_ops_s", m.throughput_ops_s.reported),
            ("latency_p50_ms", m.latency_p50_ms.reported),
            ("slo_attainment", m.tally.in_slo as f64 / sent),
            ("success_rate", m.tally.correct as f64 / sent),
            ("cpu_ms_per_op", m.cpu_ms_per_op.reported),
            ("peak_rss_mb", peak_rss_mb()),
        ])
    }
}

/// Run `setup` `reps` times, dropping each state before building the
/// next so `peak_rss_mb` holds one key set, and return the last state
/// with the median set-up time, each at the host's nominal speed. `setup`
/// ends with a verified result.
pub fn median_setup<S>(reps: usize, mut setup: impl FnMut() -> S) -> (S, f64) {
    // Key generation is most of a set-up, and one thread does it.
    let mut host = HostRef::new(1);
    let mut nominal_s = Vec::new();
    let mut state = None;
    for _ in 0..reps.max(1) {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        let wall_s = t.elapsed().as_secs_f64();
        nominal_s.push(wall_s * host.scale_after(wall_s));
    }
    (
        state.expect("at least one set-up ran"),
        median(&mut nominal_s),
    )
}

/// The ops of one closed-loop round.
#[derive(Default)]
pub struct Round {
    pub tally: Tally,
    pub latencies_ms: Vec<f64>,
}

/// Drive fixed-size rounds until `cfg.seconds` have passed (at least
/// two, so a traced run has one of each kind), sampling the host-speed
/// reference on `busy_threads` threads after each. In a traced run odd
/// rounds run with spans on and even rounds with spans off, and
/// `trace_overhead_ratio` is the ratio of their median wall times at
/// nominal speed: the two kinds interleave, so a busy spell falls on both
/// alike.
pub fn run_rounds(
    cfg: &Cfg,
    busy_threads: usize,
    mut round: impl FnMut(u64, bool) -> Round,
) -> Measured {
    let mut host = HostRef::new(busy_threads);
    let mut m = Measured::default();
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let (mut ops_s, mut nominal_ops_s, mut nominal_latencies_ms) =
        (Vec::new(), Vec::new(), Vec::new());
    let (mut cpu, mut nominal_cpu) = (0.0, 0.0);
    let start = Instant::now();
    let mut i = 0u64;
    while i < 2 || start.elapsed().as_secs_f64() < cfg.seconds {
        let traced = cfg.trace && i % 2 == 1;
        let cpu0 = cpu_ms();
        let t = Instant::now();
        let r = round(i, traced);
        let (wall_s, round_cpu) = (t.elapsed().as_secs_f64(), cpu_ms() - cpu0);
        let scale = host.scale_after(wall_s);
        if traced { &mut on } else { &mut off }.push(wall_s * scale);
        ops_s.push(r.tally.correct as f64 / wall_s);
        nominal_ops_s.push(r.tally.correct as f64 / (wall_s * scale));
        nominal_latencies_ms.extend(r.latencies_ms.iter().map(|l| l * scale));
        // Summed, not taken round by round: a round burns a few 10 ms
        // ticks of CPU time.
        cpu += round_cpu;
        nominal_cpu += round_cpu * scale;
        m.tally.add(&r.tally);
        m.latencies_ms.extend(r.latencies_ms);
        i += 1;
    }
    let ops = m.tally.correct.max(1) as f64;
    m.throughput_ops_s = Timed {
        raw: median(&mut ops_s),
        reported: median(&mut nominal_ops_s),
    };
    m.latency_p50_ms = Timed {
        raw: median(&mut m.latencies_ms.clone()),
        reported: median(&mut nominal_latencies_ms),
    };
    m.cpu_ms_per_op = Timed {
        raw: cpu / ops,
        reported: nominal_cpu / ops,
    };
    m.trace_overhead_ratio = if cfg.trace {
        median(&mut off) / median(&mut on)
    } else {
        1.0
    };
    m
}

/// Median (upper of the two middle values on an even count).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).ceil() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Process CPU time (`utime + stime`) in ms from `/proc/self/stat`.
/// Ticks are 10 ms (`CLK_TCK` = 100 on Linux); `/proc/self/schedstat`
/// reads 0 on this kernel.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11) // state is field 3, utime and stime are fields 14 and 15
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 * 10.0
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
