//! Execution tracing: a cycle-stamped event journal with per-unit
//! busy/stall counters and Chrome-trace (`chrome://tracing` /
//! [Perfetto](https://ui.perfetto.dev)) JSON export.
//!
//! The trace abstraction is deliberately small and shared by three
//! producers:
//!
//! - the [hardware scheduler](crate::sched::HwScheduler) journals every
//!   dispatched instruction (unit, group, start/end cycle, stall cause);
//! - the [simulator](crate::sim::SimReport) emits its per-stage latency
//!   spans with bottleneck/stall attribution;
//! - the software serving stack — engine, dispatcher, resilience layer,
//!   key store — journals [`Event`]s on one process-wide time base, and
//!   [`ExecutionTrace::add_events`] renders any slice of them.
//!
//! Everything is plain data — no I/O here; the `report` binary writes the
//! JSON produced by [`ExecutionTrace::to_chrome_json`] to disk.

use std::fmt::Write as _;

use morphling_tfhe::{AutotuneReport, Event, EventKind, SearchPoint, Who};

/// Why an instruction did not start the moment it became ready.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Started as soon as it entered the ready queue (no wait at all).
    None,
    /// It was gated by dependency completion (its start equals the cycle
    /// its last dependency finished).
    Dependency,
    /// Its dependencies were done but every engine of its unit class was
    /// occupied — the structural-hazard wait the scoreboard exists to
    /// arbitrate.
    UnitBusy,
}

impl StallCause {
    /// Short lower-case label used in trace args.
    pub fn label(&self) -> &'static str {
        match self {
            StallCause::None => "none",
            StallCause::Dependency => "dependency",
            StallCause::UnitBusy => "unit_busy",
        }
    }
}

/// Identifier of a (process, thread) track inside one trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrackId(usize);

#[derive(Clone, Debug)]
struct Track {
    process: String,
    thread: String,
}

/// One completed span on a track: a named interval in ticks, with
/// optional key/value annotations.
#[derive(Clone, Debug)]
pub struct TraceSpan {
    /// Track the span belongs to.
    pub track: TrackId,
    /// Display name (e.g. `"XPU.BR @g3"`).
    pub name: String,
    /// Category tag (Chrome's `cat` field; used for filtering).
    pub cat: String,
    /// Start time in ticks.
    pub start: u64,
    /// Duration in ticks.
    pub dur: u64,
    /// Extra `args` key/value pairs shown in the trace viewer.
    pub args: Vec<(String, String)>,
}

/// Aggregate busy/stall accounting for one execution unit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UnitCounters {
    /// Instructions (or jobs) executed.
    pub instructions: u64,
    /// Ticks spent executing.
    pub busy: u64,
    /// Ticks instructions spent ready-but-waiting for the unit.
    pub stall: u64,
    /// Parallel engines behind this unit name (2 for the DMA pair).
    pub engines: u64,
}

impl UnitCounters {
    /// Busy fraction of the unit over a makespan, normalized by engine
    /// count so a fully-subscribed multi-engine unit reports 1.0.
    pub fn utilization(&self, makespan: u64) -> f64 {
        if makespan == 0 {
            0.0
        } else {
            self.busy as f64 / (makespan * self.engines.max(1)) as f64
        }
    }
}

/// A cycle-stamped execution journal.
///
/// Ticks are an arbitrary time base; `ticks_per_us` scales them to the
/// microseconds Chrome traces expect (pass `clock_hz / 1e6` for cycle
/// stamps, `1e3` for nanosecond stamps).
#[derive(Clone, Debug)]
pub struct ExecutionTrace {
    ticks_per_us: f64,
    tracks: Vec<Track>,
    spans: Vec<TraceSpan>,
    counters: Vec<(String, UnitCounters)>,
}

impl ExecutionTrace {
    /// Create an empty trace with the given tick → microsecond scale.
    pub fn new(ticks_per_us: f64) -> Self {
        Self {
            ticks_per_us: if ticks_per_us > 0.0 {
                ticks_per_us
            } else {
                1.0
            },
            tracks: Vec::new(),
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Register (or find) the track for `process` / `thread`.
    pub fn track(&mut self, process: &str, thread: &str) -> TrackId {
        if let Some(i) = self
            .tracks
            .iter()
            .position(|t| t.process == process && t.thread == thread)
        {
            return TrackId(i);
        }
        self.tracks.push(Track {
            process: process.to_string(),
            thread: thread.to_string(),
        });
        TrackId(self.tracks.len() - 1)
    }

    /// Append a span.
    pub fn span(&mut self, track: TrackId, name: &str, cat: &str, start: u64, dur: u64) {
        self.span_with_args(track, name, cat, start, dur, Vec::new());
    }

    /// Append a span carrying viewer-visible annotations.
    pub(crate) fn span_with_args(
        &mut self,
        track: TrackId,
        name: &str,
        cat: &str,
        start: u64,
        dur: u64,
        args: Vec<(String, String)>,
    ) {
        self.spans.push(TraceSpan {
            track,
            name: name.to_string(),
            cat: cat.to_string(),
            start,
            dur,
            args,
        });
    }

    /// Record (or replace) the aggregate counters for one unit name.
    pub(crate) fn set_counters(&mut self, unit: &str, counters: UnitCounters) {
        if let Some(slot) = self.counters.iter_mut().find(|(u, _)| u == unit) {
            slot.1 = counters;
        } else {
            self.counters.push((unit.to_string(), counters));
        }
    }

    /// All spans in insertion order.
    pub fn spans(&self) -> &[TraceSpan] {
        &self.spans
    }

    /// Per-unit aggregate counters, in insertion order.
    pub fn counters(&self) -> &[(String, UnitCounters)] {
        &self.counters
    }

    /// Counters for one unit name, if recorded.
    pub(crate) fn unit_counters(&self, unit: &str) -> Option<UnitCounters> {
        self.counters
            .iter()
            .find(|(u, _)| u == unit)
            .map(|(_, c)| *c)
    }

    /// Append every span and counter of `other`, re-homing its tracks
    /// into this trace (tick bases must agree for the result to be
    /// meaningful).
    pub fn merge(&mut self, other: &ExecutionTrace) {
        let mapped: Vec<TrackId> = other
            .tracks
            .iter()
            .map(|t| self.track(&t.process, &t.thread))
            .collect();
        for span in &other.spans {
            let mut span = span.clone();
            span.track = mapped[span.track.0];
            self.spans.push(span);
        }
        for (unit, c) in &other.counters {
            if self.unit_counters(unit).is_none() {
                self.counters.push((unit.clone(), *c));
            }
        }
    }

    /// Render journal [`Event`]s (nanosecond stamps on the process epoch:
    /// build the trace with `ExecutionTrace::new(1e3)`), whichever
    /// journals they came from and in whatever order they were
    /// concatenated:
    ///
    /// | who | kind | track | name | `cat` | args |
    /// |---|---|---|---|---|---|
    /// | `Worker(i)` | `Job` | `BootstrapEngine/worker-i` | `job xN` (`job xN->xM` for a fanout chunk) | `engine` | `bootstraps`, `extractions` |
    /// | `Worker(i)` / `Engine` | fault and recovery instants | `BootstrapEngine/faults` | label | `fault` | `worker`; `batch`, `chunk_start`, `index`, `attempt` |
    /// | `Dispatcher` | `Request` | `Dispatcher/queue`, plus one span per batch on `Dispatcher/execute` | `req ID`, `batch B xN` | `dispatch` | `batch`; `requests` |
    /// | `Scope(name)` | retry, shed, breaker and failover instants | `Resilience/name` | label | `resilience` | `attempt`; `from`, `to` |
    /// | `Tenant(t)` | cache transitions | `KeyStore/tenant-t` | label | `keystore` | `bytes` |
    ///
    /// Instants are one tick wide; an instant's name is its
    /// [`EventKind::label`]. A batch's `execute` span is drawn once, at
    /// the first of the adjacent request events that share its id, `xN`
    /// counting them. Job spans set the `engine-pool` unit counters
    /// (engines = worker tracks seen) and request spans the `dispatcher`
    /// ones (busy = batch execution, stall = queueing).
    pub fn add_events(&mut self, events: &[Event]) {
        let batch_of = |e: &Event| match e.kind {
            EventKind::Request { batch, .. } => Some(batch),
            _ => None,
        };
        let mut pool = UnitCounters::default();
        let mut dispatcher = UnitCounters {
            engines: 1,
            ..UnitCounters::default()
        };
        let mut open_batch = None;
        let arg = |k: &str, v: &dyn ToString| (k.to_string(), v.to_string());
        for (i, e) in events.iter().enumerate() {
            let label = e.kind.label();
            let (process, thread, name, cat, args) = match (&e.who, &e.kind) {
                (
                    Who::Worker(w),
                    EventKind::Job {
                        bootstraps,
                        extractions,
                    },
                ) => {
                    pool.instructions += 1;
                    pool.busy += e.dur_ns;
                    pool.engines = pool.engines.max(*w as u64 + 1);
                    // Multi-value jobs extract more outputs than they
                    // rotate; make that reuse visible in the span name.
                    let name = if extractions != bootstraps {
                        format!("job x{bootstraps}->x{extractions}")
                    } else {
                        format!("job x{bootstraps}")
                    };
                    let args = vec![
                        arg("bootstraps", bootstraps),
                        arg("extractions", extractions),
                    ];
                    (
                        "BootstrapEngine",
                        format!("worker-{w}"),
                        name,
                        "engine",
                        args,
                    )
                }
                (Who::Dispatcher, EventKind::Request { id, batch, exec_ns }) => {
                    dispatcher.instructions += 1;
                    dispatcher.stall += e.dur_ns;
                    if open_batch != Some(*batch) {
                        open_batch = Some(*batch);
                        dispatcher.busy += exec_ns;
                        let mates = events[i..].iter().filter_map(batch_of);
                        let size = mates.take_while(|b| b == batch).count();
                        let execute = self.track("Dispatcher", "execute");
                        self.span_with_args(
                            execute,
                            &format!("batch {batch} x{size}"),
                            "dispatch",
                            e.at_ns + e.dur_ns,
                            (*exec_ns).max(1),
                            vec![arg("requests", &size)],
                        );
                    }
                    let args = vec![arg("batch", batch)];
                    (
                        "Dispatcher",
                        "queue".into(),
                        format!("req {id}"),
                        "dispatch",
                        args,
                    )
                }
                (Who::Tenant(t), kind) => {
                    let args = match kind {
                        EventKind::Load { bytes } | EventKind::Evict { bytes } => {
                            vec![arg("bytes", bytes)]
                        }
                        _ => Vec::new(),
                    };
                    (
                        "KeyStore",
                        format!("tenant-{t}"),
                        label.into(),
                        "keystore",
                        args,
                    )
                }
                (Who::Scope(scope), kind) => {
                    let args = match kind {
                        EventKind::Retry { attempt } => vec![arg("attempt", attempt)],
                        EventKind::Failover { from } => vec![arg("from", from), arg("to", scope)],
                        _ => Vec::new(),
                    };
                    (
                        "Resilience",
                        scope.to_string(),
                        label.into(),
                        "resilience",
                        args,
                    )
                }
                (who, kind) => {
                    let mut args = Vec::new();
                    if let Who::Worker(w) = who {
                        args.push(arg("worker", w));
                    }
                    match kind {
                        EventKind::WatchdogTimeout { batch, chunk_start } => {
                            args.push(arg("batch", batch));
                            args.push(arg("chunk_start", chunk_start));
                        }
                        EventKind::OutputCheckFailed { index } => args.push(arg("index", index)),
                        EventKind::ChunkRetry {
                            chunk_start,
                            attempt,
                        } => {
                            args.push(arg("chunk_start", chunk_start));
                            args.push(arg("attempt", attempt));
                        }
                        _ => {}
                    }
                    (
                        "BootstrapEngine",
                        "faults".into(),
                        label.into(),
                        "fault",
                        args,
                    )
                }
            };
            let track = self.track(process, &thread);
            self.span_with_args(track, &name, cat, e.at_ns, e.dur_ns.max(1), args);
        }
        if pool.instructions > 0 {
            self.set_counters("engine-pool", pool);
        }
        if dispatcher.instructions > 0 {
            self.set_counters("dispatcher", dispatcher);
        }
    }

    /// Journal an autotune search trajectory
    /// ([`autotune`](morphling_tfhe::autotune::autotune)'s evaluated
    /// [`SearchPoint`]s, in search order) as an `Autotune` process with
    /// one `search` track: one span per candidate, 1 µs wide, at 1 µs
    /// pitch, named `wN bM` (workers/batch), `cat` `"autotune"` for
    /// feasible candidates and `"autotune_infeasible"` otherwise, with
    /// every knob and the predicted stats in the args (`shed` is every
    /// refusal, `rejected + shed`). Loading the
    /// trace shows the search walking the config space and the feasible
    /// region lighting up.
    pub(crate) fn add_autotune_trajectory(&mut self, trajectory: &[SearchPoint]) {
        let track = self.track("Autotune", "search");
        for (i, p) in trajectory.iter().enumerate() {
            let (c, stats) = (&p.config, &p.predicted);
            self.span_with_args(
                track,
                &format!("w{} b{}", c.workers, c.max_batch_size),
                if p.feasible {
                    "autotune"
                } else {
                    "autotune_infeasible"
                },
                i as u64,
                1,
                vec![
                    ("workers".into(), c.workers.to_string()),
                    ("max_batch_size".into(), c.max_batch_size.to_string()),
                    ("max_linger_us".into(), c.max_linger.as_micros().to_string()),
                    ("queue_capacity".into(), c.queue_capacity.to_string()),
                    (
                        "deadline_slack_us".into(),
                        c.deadline_slack.as_micros().to_string(),
                    ),
                    (
                        "predicted_p99_us".into(),
                        stats.p99_latency.as_micros().to_string(),
                    ),
                    (
                        "predicted_throughput_bs".into(),
                        format!("{:.1}", stats.throughput_bs),
                    ),
                    (
                        "mean_batch_size".into(),
                        format!("{:.2}", stats.mean_batch_size),
                    ),
                    ("shed".into(), (stats.rejected + stats.shed).to_string()),
                    ("expired".into(), stats.expired.to_string()),
                    ("feasible".into(), p.feasible.to_string()),
                ],
            );
        }
    }

    /// Build a trace holding just an autotune run's search trajectory
    /// (microsecond ticks, one candidate per tick), ready to
    /// [`merge`](Self::merge) with serving traces from the validation
    /// replay.
    pub fn from_autotune(report: &AutotuneReport) -> Self {
        let mut trace = ExecutionTrace::new(1.0);
        trace.add_autotune_trajectory(&report.trajectory);
        trace
    }

    /// Serialize as Chrome trace-event JSON (the `traceEvents` array
    /// format), loadable in `chrome://tracing` and Perfetto. Counters are
    /// attached as instant metadata events so they survive the export.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.spans.len() * 128);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut push_event = |out: &mut String, body: &str| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(body);
        };
        for (i, t) in self.tracks.iter().enumerate() {
            push_event(
                &mut out,
                &format!(
                    "{{\"ph\":\"M\",\"pid\":{i},\"tid\":{i},\"name\":\"process_name\",\
                     \"args\":{{\"name\":{}}}}}",
                    json_string(&t.process)
                ),
            );
            push_event(
                &mut out,
                &format!(
                    "{{\"ph\":\"M\",\"pid\":{i},\"tid\":{i},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":{}}}}}",
                    json_string(&t.thread)
                ),
            );
        }
        for span in &self.spans {
            let pid = span.track.0;
            let ts = span.start as f64 / self.ticks_per_us;
            let dur = span.dur as f64 / self.ticks_per_us;
            let mut body = format!(
                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{pid},\"name\":{},\"cat\":{},\
                 \"ts\":{ts:.4},\"dur\":{dur:.4}",
                json_string(&span.name),
                json_string(&span.cat),
            );
            if !span.args.is_empty() {
                body.push_str(",\"args\":{");
                for (i, (k, v)) in span.args.iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    let _ = write!(body, "{}:{}", json_string(k), json_string(v));
                }
                body.push('}');
            }
            body.push('}');
            push_event(&mut out, &body);
        }
        for (unit, c) in &self.counters {
            push_event(
                &mut out,
                &format!(
                    "{{\"ph\":\"i\",\"pid\":0,\"tid\":0,\"s\":\"g\",\"ts\":0,\
                     \"name\":{},\"args\":{{\"instructions\":{},\"busy_ticks\":{},\
                     \"stall_ticks\":{},\"engines\":{}}}}}",
                    json_string(&format!("counters/{unit}")),
                    c.instructions,
                    c.busy,
                    c.stall,
                    c.engines
                ),
            );
        }
        out.push_str("]}");
        out
    }
}

/// Escape a string as a JSON string literal (with surrounding quotes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ExecutionTrace {
        /// Last tick covered by any span (0 for an empty trace).
        pub(crate) fn makespan_ticks(&self) -> u64 {
            self.spans
                .iter()
                .map(|s| s.start + s.dur)
                .max()
                .unwrap_or(0)
        }
    }

    #[test]
    fn tracks_deduplicate_and_spans_accumulate() {
        let mut t = ExecutionTrace::new(1.0);
        let a = t.track("sched", "XPU");
        let b = t.track("sched", "XPU");
        assert_eq!(a, b);
        t.span(a, "BR", "xpu", 10, 5);
        t.span(a, "BR", "xpu", 20, 5);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.makespan_ticks(), 25);
    }

    #[test]
    fn counters_report_normalized_utilization() {
        let c = UnitCounters {
            instructions: 4,
            busy: 100,
            stall: 10,
            engines: 2,
        };
        assert!((c.utilization(100) - 0.5).abs() < 1e-12);
        assert_eq!(UnitCounters::default().utilization(0), 0.0);
    }

    #[test]
    fn chrome_json_is_well_formed_and_escaped() {
        let mut t = ExecutionTrace::new(2.0);
        let track = t.track("sched \"quoted\"", "XPU");
        t.span_with_args(
            track,
            "BR\n@g0",
            "xpu",
            4,
            2,
            vec![("stall".into(), "none".into())],
        );
        t.set_counters(
            "XPU",
            UnitCounters {
                instructions: 1,
                busy: 2,
                stall: 0,
                engines: 1,
            },
        );
        let json = t.to_chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("BR\\n@g0"));
        assert!(json.contains("\"ts\":2.0000")); // 4 ticks at 2 ticks/us
        assert!(json.contains("counters/XPU"));
        // Balanced braces/brackets — a cheap structural sanity check that
        // catches missed commas or unterminated objects.
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }

    #[test]
    fn merge_rehomes_tracks() {
        let mut a = ExecutionTrace::new(1.0);
        let ta = a.track("p", "t1");
        a.span(ta, "x", "c", 0, 1);
        let mut b = ExecutionTrace::new(1.0);
        let tb = b.track("p", "t2");
        b.span(tb, "y", "c", 5, 1);
        a.merge(&b);
        assert_eq!(a.spans().len(), 2);
        assert_eq!(a.makespan_ticks(), 6);
    }

    /// One event of every kind — two requests sharing a batch, a third
    /// alone, a plain and a fanout job — and what each must render as:
    /// (process, thread, name, `cat`, args).
    #[test]
    fn every_event_kind_renders_on_its_track() {
        type Row = (
            Who,
            EventKind,
            [&'static str; 4],
            Vec<(&'static str, &'static str)>,
        );
        let scope = |name: &str| Who::Scope(name.into());
        let fault = |name| ["BootstrapEngine", "faults", name, "fault"];
        let key = |thread, name| ["KeyStore", thread, name, "keystore"];
        let res = |thread, name| ["Resilience", thread, name, "resilience"];
        let job = |bootstraps, extractions| EventKind::Job {
            bootstraps,
            extractions,
        };
        let request = |id, batch, exec_ns| EventKind::Request { id, batch, exec_ns };
        #[rustfmt::skip]
        let table: Vec<Row> = vec![
            (Who::Worker(0), job(3, 3), ["BootstrapEngine", "worker-0", "job x3", "engine"],
                vec![("bootstraps", "3"), ("extractions", "3")]),
            (Who::Worker(1), job(2, 6), ["BootstrapEngine", "worker-1", "job x2->x6", "engine"],
                vec![("bootstraps", "2"), ("extractions", "6")]),
            (Who::Worker(0), EventKind::WorkerPanic, fault("worker_panic"), vec![("worker", "0")]),
            (Who::Worker(0), EventKind::WorkerRespawn, fault("worker_respawn"), vec![("worker", "0")]),
            (Who::Worker(1), EventKind::RespawnExhausted, fault("respawn_exhausted"),
                vec![("worker", "1")]),
            (Who::Engine, EventKind::WatchdogTimeout { batch: 7, chunk_start: 4 },
                fault("watchdog_timeout"), vec![("batch", "7"), ("chunk_start", "4")]),
            (Who::Engine, EventKind::OutputCheckFailed { index: 5 }, fault("output_check_failed"),
                vec![("index", "5")]),
            (Who::Engine, EventKind::ChunkRetry { chunk_start: 4, attempt: 1 }, fault("retry"),
                vec![("chunk_start", "4"), ("attempt", "1")]),
            (Who::Dispatcher, request(1, 0, 200), ["Dispatcher", "queue", "req 1", "dispatch"],
                vec![("batch", "0")]),
            (Who::Dispatcher, request(2, 0, 200), ["Dispatcher", "queue", "req 2", "dispatch"],
                vec![("batch", "0")]),
            (Who::Dispatcher, request(3, 1, 90), ["Dispatcher", "queue", "req 3", "dispatch"],
                vec![("batch", "1")]),
            (scope("dispatcher"), EventKind::Retry { attempt: 1 }, res("dispatcher", "retry"),
                vec![("attempt", "1")]),
            (scope("engine"), EventKind::BreakerOpen, res("engine", "breaker_open"), vec![]),
            (scope("engine"), EventKind::BreakerHalfOpen, res("engine", "breaker_half_open"), vec![]),
            (scope("engine"), EventKind::BreakerClose, res("engine", "breaker_close"), vec![]),
            (scope("engine"), EventKind::TierSkipped, res("engine", "tier_skipped"), vec![]),
            (scope("fallback"), EventKind::Failover { from: "engine".into() },
                res("fallback", "failover"), vec![("from", "engine"), ("to", "fallback")]),
            (scope("dispatcher"), EventKind::Shed, res("dispatcher", "shed"), vec![]),
            (Who::Tenant(1), EventKind::Hit, key("tenant-1", "hit"), vec![]),
            (Who::Tenant(1), EventKind::Miss, key("tenant-1", "miss"), vec![]),
            (Who::Tenant(1), EventKind::Load { bytes: 4096 }, key("tenant-1", "load"),
                vec![("bytes", "4096")]),
            (Who::Tenant(2), EventKind::Evict { bytes: 4096 }, key("tenant-2", "evict"),
                vec![("bytes", "4096")]),
            (Who::Tenant(1), EventKind::Pin, key("tenant-1", "pin"), vec![]),
            (Who::Tenant(1), EventKind::Unpin, key("tenant-1", "unpin"), vec![]),
            (Who::Tenant(9), EventKind::Corrupt, key("tenant-9", "corrupt"), vec![]),
        ];
        // A kind added to the enum does not compile here until it has a
        // row above.
        let row_of = |kind: &EventKind| match kind {
            EventKind::Job { .. } => 0,
            EventKind::WorkerPanic => 1,
            EventKind::WorkerRespawn => 2,
            EventKind::RespawnExhausted => 3,
            EventKind::WatchdogTimeout { .. } => 4,
            EventKind::OutputCheckFailed { .. } => 5,
            EventKind::ChunkRetry { .. } => 6,
            EventKind::Request { .. } => 7,
            EventKind::Retry { .. } => 8,
            EventKind::BreakerOpen => 9,
            EventKind::BreakerHalfOpen => 10,
            EventKind::BreakerClose => 11,
            EventKind::TierSkipped => 12,
            EventKind::Failover { .. } => 13,
            EventKind::Shed => 14,
            EventKind::Hit => 15,
            EventKind::Miss => 16,
            EventKind::Load { .. } => 17,
            EventKind::Evict { .. } => 18,
            EventKind::Pin => 19,
            EventKind::Unpin => 20,
            EventKind::Corrupt => 21,
        };
        let mut covered: Vec<usize> = table.iter().map(|row| row_of(&row.1)).collect();
        covered.sort_unstable();
        covered.dedup();
        assert_eq!(covered, (0..22).collect::<Vec<_>>());

        // Event `i` starts at tick 100·(i + 1); spans last 50 + i ticks,
        // instants none.
        let events: Vec<Event> = table
            .iter()
            .enumerate()
            .map(|(i, (who, kind, ..))| Event {
                at_ns: 100 * (i as u64 + 1),
                dur_ns: match kind {
                    EventKind::Job { .. } | EventKind::Request { .. } => 50 + i as u64,
                    _ => 0,
                },
                who: who.clone(),
                kind: kind.clone(),
            })
            .collect();
        let mut trace = ExecutionTrace::new(1e3);
        trace.add_events(&events);

        let track = |s: &TraceSpan| {
            let t = &trace.tracks[s.track.0];
            (t.process.clone(), t.thread.clone())
        };
        let (execute, rendered): (Vec<_>, Vec<_>) =
            trace.spans().iter().partition(|s| track(s).1 == "execute");
        assert_eq!(rendered.len(), table.len(), "one span per event");
        for ((span, event), (.., [process, thread, name, cat], args)) in
            rendered.iter().zip(&events).zip(&table)
        {
            assert_eq!(track(span), (process.to_string(), thread.to_string()));
            assert_eq!((span.name.as_str(), span.cat.as_str()), (*name, *cat));
            let want: Vec<(String, String)> = args
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
            assert_eq!(span.args, want, "{name}");
            assert_eq!((span.start, span.dur), (event.at_ns, event.dur_ns.max(1)));
        }
        // One execute span per batch, drawn where its first request's
        // queue span ends, as wide as the batch ran.
        let drawn: Vec<_> = execute
            .iter()
            .map(|s| (s.name.as_str(), s.cat.as_str(), s.start, s.dur, &s.args[..]))
            .collect();
        let requests = |n: &str| [("requests".to_string(), n.to_string())];
        assert_eq!(
            drawn,
            [
                ("batch 0 x2", "dispatch", 900 + 58, 200, &requests("2")[..]),
                ("batch 1 x1", "dispatch", 1100 + 60, 90, &requests("1")[..]),
            ]
        );
        assert!(execute.iter().all(|s| track(s).0 == "Dispatcher"));

        let pool = trace.unit_counters("engine-pool").unwrap();
        assert_eq!(
            (pool.instructions, pool.busy, pool.stall, pool.engines),
            (2, 50 + 51, 0, 2)
        );
        let d = trace.unit_counters("dispatcher").unwrap();
        assert_eq!(
            (d.instructions, d.busy, d.stall, d.engines),
            (3, 200 + 90, 58 + 59 + 60, 1)
        );
        let json = trace.to_chrome_json();
        for needle in [
            "\"BootstrapEngine\"",
            "\"Dispatcher\"",
            "\"Resilience\"",
            "\"KeyStore\"",
            "\"fault\"",
            "\"resilience\"",
            "batch 0 x2",
            "tenant-1",
            "tenant-2",
        ] {
            assert!(json.contains(needle), "{needle} missing from the JSON");
        }
        // No events add nothing — not a span, a track or a counter.
        let before = (
            trace.spans().len(),
            trace.tracks.len(),
            trace.counters.len(),
        );
        trace.add_events(&[]);
        assert_eq!(
            (
                trace.spans().len(),
                trace.tracks.len(),
                trace.counters.len()
            ),
            before
        );
        let mut empty = ExecutionTrace::new(1e3);
        empty.add_events(&[]);
        assert!(empty.spans().is_empty() && empty.counters().is_empty());
    }
}
