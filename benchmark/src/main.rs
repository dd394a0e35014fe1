//! The benchmark spine of the Morphling reproduction: four workloads,
//! seven end-to-end metrics, and a bottom-up per-layer ladder. See
//! `README.md` beside this package for what each number means.
//!
//! ```text
//! morphling-benchmark --workload W --seed S --seconds T --trace 0|1
//!     one workload in this process; the last line of standard output is
//!     one JSON object (end-to-end metrics, or per-layer metrics with
//!     --trace 1). This is the form BENCHMARK.json names.
//! morphling-benchmark --seed S [--seconds T] [--traced] [--repeat N] [--smoke]
//!     all four workloads, each in a fresh child process; --traced adds a
//!     traced run of each; --repeat N prints the spread of N whole runs
//!     on seeds S, S+1, ...
//! ```

mod harness;
mod ladder;
mod layers;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use harness::{Cfg, Metrics, END_TO_END, PER_LAYER, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`: what a full run measures per
/// workload when `--seconds` is not given.
const RUN_SECONDS: f64 = 30.0;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    traced: bool,
    repeat: usize,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        repeat: 1,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: String| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                args.seconds = Some(value().and_then(|v| v.parse().map_err(|_| bad(v)))?)
            }
            "--trace" => args.trace = value()? == "1",
            "--repeat" => args.repeat = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if matches!(args.seconds, Some(s) if !(s > 0.0 && s <= 120.0)) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 0.5 } else { RUN_SECONDS });
    let outcome = match &args.workload {
        Some(name) => run_one(name, &args, seconds),
        None => run_all(&args, seconds),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            println!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// One workload in this process.
fn run_one(name: &str, args: &Args, seconds: f64) -> Result<(), String> {
    let cfg = Cfg {
        seed: args.seed,
        seconds,
        trace: args.trace,
        smoke: args.smoke,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let (_, why) = WORKLOADS
        .iter()
        .find(|(w, _)| *w == name)
        .ok_or(format!("unknown workload {name}"))?;
    println!(
        "workload {name} seed={} seconds={seconds} trace={} nproc={}",
        cfg.seed,
        u8::from(cfg.trace),
        cfg.nproc
    );
    println!("why {why}");
    let report = match name {
        "offline_set3" => workloads::offline_set3(&cfg),
        "serve_open_set1" => workloads::serve_open_set1(&cfg),
        "serve_closed_tenants_test" => workloads::serve_closed_tenants_test(&cfg),
        _ => workloads::app_tree_fused_tm(&cfg),
    }
    .map_err(|e| e.to_string())?;
    println!("{}", report.setup.line("setup"));
    println!("{}", report.measured.tally.line("measure"));
    let m = &report.measured;
    println!(
        "host speed={:.4} as_measured throughput_ops_s={:.4} latency_p50_ms={:.4} cpu_ms_per_op={:.4}",
        m.latency_p50_ms.reported / m.latency_p50_ms.raw,
        m.throughput_ops_s.raw,
        m.latency_p50_ms.raw,
        m.cpu_ms_per_op.raw
    );

    let (names, values): (&[(&str, &str)], Metrics) = if cfg.trace {
        (&PER_LAYER, report.layers.clone())
    } else {
        (&END_TO_END, report.end_to_end())
    };
    let mut json = Vec::new();
    for (metric, unit) in names {
        let value = values[metric];
        if !value.is_finite() {
            return Err(format!("invalid: {metric} is {value}"));
        }
        println!("metric {metric} {value} {unit}");
        json.push(format!(
            "\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let tally = report.measured.tally;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.wrong == 0,
        tally.sent,
        tally.failed(),
        json.join(", ")
    );
    Ok(())
}

/// `workload → metric → one value per whole run`.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// All four workloads, each in a fresh child process, `args.repeat` times.
fn run_all(args: &Args, seconds: f64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut samples = Samples::new();
    for rep in 0..args.repeat as u64 {
        for (workload, _) in WORKLOADS {
            for trace in [false, true] {
                if trace && !args.traced {
                    continue;
                }
                let mut child = Command::new(&exe);
                child
                    .args(["--workload", workload])
                    .args(["--seed", &(args.seed + rep).to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }]);
                if args.smoke {
                    child.arg("--smoke");
                }
                let out = child.output().map_err(|e| e.to_string())?;
                let text = String::from_utf8_lossy(&out.stdout);
                print!("{text}");
                if !out.status.success() {
                    return Err(format!("{workload} failed: {}", out.status));
                }
                for line in text.lines() {
                    let mut words = line.split(' ');
                    if let (Some("metric"), Some(metric), Some(value)) =
                        (words.next(), words.next(), words.next())
                    {
                        let value = value.parse().map_err(|_| format!("bad line: {line}"))?;
                        samples
                            .entry(workload.to_string())
                            .or_default()
                            .entry(metric.to_string())
                            .or_default()
                            .push(value);
                    }
                }
            }
        }
    }
    if args.repeat > 1 {
        print_spread(&samples);
    }
    Ok(())
}

/// Per workload × end-to-end metric over the repeated runs: median,
/// quartiles (as Python's `statistics.quantiles(values, n=4)`), their
/// distance as a share of the median, and the max/min ratio.
fn print_spread(samples: &Samples) {
    println!("spread workload metric n median q1 q3 iqr/median max/min");
    for (workload, _) in WORKLOADS {
        for (metric, _) in END_TO_END {
            let mut v = samples[workload][metric].clone();
            v.sort_by(f64::total_cmp);
            let quartile = |i: usize| {
                let at = i * (v.len() + 1);
                let j = (at / 4).clamp(1, v.len() - 1);
                let delta = at as f64 / 4.0 - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            let (q1, q2, q3) = (quartile(1), quartile(2), quartile(3));
            println!(
                "spread {workload} {metric} {} {q2:.6} {q1:.6} {q3:.6} {:.4} {:.4}",
                v.len(),
                (q3 - q1) / q2,
                v[v.len() - 1] / v[0]
            );
        }
    }
}
