//! Regenerate the paper's evaluation artifacts and run capacity planning.
//!
//! Subcommands (anything else is a usage error):
//!
//! ```text
//! cargo run -p morphling-bench --release --bin report -- artifacts            # everything
//! cargo run -p morphling-bench --release --bin report -- artifacts fig1 table5 --measure-cpu
//! cargo run -p morphling-bench --release --bin report -- trace trace.json
//! cargo run -p morphling-bench --release --bin report -- autotune --rate 50 --p99 100
//! cargo run -p morphling-bench --release --bin report -- help
//! ```
//!
//! `--measure-cpu` adds live rows measured on this host's CPU: Fig 1's
//! blind rotation + extraction and key switch times, and Table V's
//! bootstrap latency and engine throughput.
//!
//! `autotune` calibrates a service model from a live engine run, searches
//! the serving-config space for the requested open-loop rate (req/s) and
//! p99 SLO (ms), writes the recommended `ServingConfig` to
//! `autotune_config.json` and the run summary to `BENCH_autotune.json`,
//! and with `--validate` replays the recommendation through the real
//! dispatcher and reports measured next to predicted p99 and their
//! ratio (DESIGN.md §15). `--trace <path>` additionally writes the
//! search trajectory as a Chrome-trace `autotune` track.

use std::time::Duration;

use morphling_bench as reports;
use morphling_tfhe::autotune::SloTarget;
use morphling_tfhe::ParamSet;

const ARTIFACTS: &[&str] = &[
    "fig1", "fig3", "table4", "table5", "fig7a", "fig7b", "fig8a", "fig8b", "table6", "dataflow",
    "summary",
];

fn usage() -> String {
    format!(
        "usage: report artifacts [{}] [--measure-cpu]\n\
         \x20      report trace <out.json>\n\
         \x20      report autotune --rate <req/s> --p99 <ms> [--workers <n>] [--requests <n>]\n\
         \x20             [--set <I|II|III|IV|TEST>] [--validate [<n>]] [--no-validate]\n\
         \x20             [--out <config.json>] [--bench-out <bench.json>] [--trace <out.json>]\n\
         \x20      report help",
        ARTIFACTS.join("|")
    )
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{}", usage());
    std::process::exit(2);
}

fn write_or_die(path: &str, payload: &str, what: &str) {
    if let Err(e) = std::fs::write(path, payload) {
        eprintln!("error: cannot write {what} to `{path}`: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {what} ({} bytes) to {path}", payload.len());
}

/// The artifact renderer: positional artifact names (none = all of
/// them), optional `--measure-cpu`.
fn run_artifacts(args: &[String]) {
    let mut measure_cpu = false;
    let mut targets: Vec<&str> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--measure-cpu" => measure_cpu = true,
            flag if flag.starts_with("--") => fail(&format!("unknown flag `{flag}`")),
            target => targets.push(target),
        }
    }
    if let Some(unknown) = targets.iter().find(|t| !ARTIFACTS.contains(t)) {
        fail(&format!(
            "unknown artifact `{unknown}`; known artifacts: {ARTIFACTS:?}"
        ));
    }
    let want = |name: &str| targets.is_empty() || targets.contains(&name);

    // A number must name the ISA it was measured on (every paper size
    // gets the same one).
    let isa = morphling_transform::NegacyclicFft::new(2048).isa();
    println!("transform kernel ISA: {isa}");
    if want("fig1") {
        println!("{}", reports::fig1_report(measure_cpu));
    }
    if want("fig3") {
        println!("{}", reports::fig3_report());
    }
    if want("table4") {
        println!("{}", reports::table4_report());
    }
    if want("table5") {
        println!("{}", reports::table5_report(measure_cpu));
    }
    if want("fig7a") {
        println!("{}", reports::fig7a_report());
    }
    if want("fig7b") {
        println!("{}", reports::fig7b_report());
    }
    if want("fig8a") {
        println!("{}", reports::fig8a_report());
    }
    if want("fig8b") {
        println!("{}", reports::fig8b_report());
    }
    if want("table6") {
        println!("{}", reports::table6_report());
    }
    if want("dataflow") {
        println!("{}", reports::dataflow_ablation_report());
    }
    if want("summary") {
        println!("{}", reports::summary_report());
    }
}

fn parse_set(name: &str) -> ParamSet {
    match name.to_ascii_uppercase().as_str() {
        "I" => ParamSet::I,
        "II" => ParamSet::II,
        "III" => ParamSet::III,
        "IV" => ParamSet::IV,
        "TEST" => ParamSet::Test,
        other => fail(&format!(
            "unknown parameter set `{other}`; use I, II, III, IV, or TEST"
        )),
    }
}

/// `report autotune --rate <req/s> --p99 <ms> [...]`.
fn run_autotune(args: &[String]) {
    let mut rate: Option<f64> = None;
    let mut p99_ms: Option<f64> = None;
    let mut workers = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(4)
        .min(8);
    let mut requests = 256usize;
    let mut set = ParamSet::Test;
    let mut validate: Option<usize> = Some(128);
    let mut out = String::from("autotune_config.json");
    let mut bench_out = String::from("BENCH_autotune.json");
    let mut trace_path: Option<String> = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| match it.next() {
            Some(v) => v.clone(),
            None => fail(&format!("{flag} requires a value")),
        };
        match arg.as_str() {
            "--rate" => {
                rate = Some(
                    value("--rate")
                        .parse()
                        .unwrap_or_else(|_| fail("--rate must be a number (requests per second)")),
                )
            }
            "--p99" => {
                p99_ms = Some(
                    value("--p99")
                        .parse()
                        .unwrap_or_else(|_| fail("--p99 must be a number (milliseconds)")),
                )
            }
            "--workers" => {
                workers = value("--workers")
                    .parse()
                    .unwrap_or_else(|_| fail("--workers must be a positive integer"))
            }
            "--requests" => {
                requests = value("--requests")
                    .parse()
                    .unwrap_or_else(|_| fail("--requests must be a positive integer"))
            }
            "--set" => set = parse_set(&value("--set")),
            "--validate" => {
                // Optional count operand: `--validate 64`.
                validate = Some(match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        let v = it.next().expect("peeked");
                        v.parse()
                            .unwrap_or_else(|_| fail("--validate count must be an integer"))
                    }
                    _ => 128,
                });
            }
            "--no-validate" => validate = None,
            "--out" => out = value("--out"),
            "--bench-out" => bench_out = value("--bench-out"),
            "--trace" => trace_path = Some(value("--trace")),
            flag => fail(&format!("unknown autotune flag `{flag}`")),
        }
    }
    let rate = rate.unwrap_or_else(|| fail("autotune requires --rate <req/s>"));
    let p99_ms = p99_ms.unwrap_or_else(|| fail("autotune requires --p99 <ms>"));
    if !(rate.is_finite() && rate > 0.0) {
        fail("--rate must be positive");
    }
    if !(p99_ms.is_finite() && p99_ms > 0.0) {
        fail("--p99 must be positive");
    }
    let target = SloTarget {
        rate_per_s: rate,
        p99: Duration::from_secs_f64(p99_ms / 1e3),
    };
    eprintln!(
        "autotune: calibrating at set {set:?} with {workers} workers, then searching for \
         {rate} req/s @ p99 <= {p99_ms} ms ..."
    );
    let outcome = match reports::autotune::run_autotune(set, target, workers, requests, validate) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: autotune failed: {e}");
            std::process::exit(1);
        }
    };
    let r = &outcome.report;
    eprintln!(
        "calibrated: {:.1} bootstraps/s per core ({:.2} ms each)",
        1e9 / outcome.model.bootstrap_ns as f64,
        outcome.model.bootstrap_ns as f64 / 1e6
    );
    eprintln!(
        "searched {} candidates in {:.0} ms: slo_met={} → workers={} batch={} linger={:?} \
         queue={} slack={:?} (predicted p99 {:.2} ms)",
        r.trajectory.len(),
        outcome.search_wall.as_secs_f64() * 1e3,
        r.slo_met,
        r.recommended.workers,
        r.recommended.max_batch_size,
        r.recommended.max_linger,
        r.recommended.queue_capacity,
        r.recommended.deadline_slack,
        r.predicted.p99_latency.as_secs_f64() * 1e3
    );
    if let (Some(m), Some(ratio)) = (&outcome.measured, outcome.p99_ratio()) {
        eprintln!(
            "replayed on the real dispatcher: measured p99 {:.2} ms, {ratio:.2}x predicted \
             (completed {}, expired {}, rejected {}, shed {}, failed {})",
            m.p99_latency.as_secs_f64() * 1e3,
            m.completed,
            m.expired,
            m.rejected,
            m.shed,
            m.failed
        );
    }
    write_or_die(
        &out,
        &reports::autotune::config_json(&outcome),
        "serving config",
    );
    write_or_die(
        &bench_out,
        &reports::autotune::bench_json(&outcome),
        "autotune summary",
    );
    if let Some(path) = trace_path {
        write_or_die(
            &path,
            &reports::autotune::trace_json(&outcome),
            "autotune search trace",
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("help") | Some("--help") | Some("-h") => println!("{}", usage()),
        Some("artifacts") => run_artifacts(&args[1..]),
        Some("autotune") => run_autotune(&args[1..]),
        Some("trace") => match args.get(1) {
            Some(path) => {
                write_or_die(path, &reports::deepcnn_trace_json(20), "execution trace");
                eprintln!("open in chrome://tracing or ui.perfetto.dev");
            }
            None => fail("trace requires an output path"),
        },
        Some(unknown) => fail(&format!("unknown subcommand `{unknown}`")),
        None => fail("a subcommand is required"),
    }
}
