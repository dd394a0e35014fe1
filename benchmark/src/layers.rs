//! Reading a layer's public counters (`EngineStats`, `DispatcherStats`,
//! `Dispatcher::spans()`, `KeyStoreStats`) and the benchmark's own spans
//! into per-layer metrics.

use morphling_tfhe::{BootstrapEngine, Dispatcher, KeyStore};

use crate::harness::{median, ms, Metrics};
use crate::trace::{self_ms_per_item, SpanLog};

/// Mean worker time per bootstrap, from the engine's own counters.
pub fn engine_busy_ms(engine: &BootstrapEngine) -> f64 {
    let s = engine.stats();
    s.busy.as_secs_f64() * 1e3 / s.bootstraps.max(1) as f64
}

/// Engine counters as layer metrics; `wall_s` is the time the benchmark
/// spent inside calls that reached the engine.
pub fn engine_layers(layers: &mut Metrics, engine: &BootstrapEngine, wall_s: f64) {
    let s = engine.stats();
    let n = s.bootstraps.max(1) as f64;
    layers.insert("engine.busy_ms_per_bootstrap", engine_busy_ms(engine));
    layers.insert(
        "engine.utilization",
        s.busy.as_secs_f64() / (s.workers as f64 * wall_s.max(1e-9)),
    );
    layers.insert("engine.extractions_per_bootstrap", s.extractions as f64 / n);
    layers.insert("engine.retries", s.retries as f64);
}

/// Median queue wait and batch execution time per request, from the
/// dispatcher's own span journal.
pub fn dispatch_p50s_ms(dispatcher: &Dispatcher) -> (f64, f64) {
    let spans = dispatcher.spans();
    let mut queued: Vec<f64> = spans.iter().map(|s| ms(s.queued)).collect();
    let mut exec: Vec<f64> = spans.iter().map(|s| ms(s.exec)).collect();
    (median(&mut queued), median(&mut exec))
}

/// Dispatcher counters and its span journal as layer metrics; returns
/// the summed batch execution time in seconds.
pub fn dispatch_layers(layers: &mut Metrics, dispatcher: &Dispatcher) -> f64 {
    let s = dispatcher.stats();
    let (queued, exec) = dispatch_p50s_ms(dispatcher);
    layers.insert("dispatch.queue_wait_ms_p50", queued);
    layers.insert("dispatch.exec_ms_p50", exec);
    layers.insert("dispatch.mean_batch_size", s.mean_batch_size);
    layers.insert("dispatch.batches", s.batches as f64);
    layers.insert("dispatch.rejected", s.rejected as f64);
    layers.insert("dispatch.expired", s.expired as f64);
    layers.insert("dispatch.retries", s.retries as f64);
    let mut batches: Vec<(u64, f64)> = dispatcher
        .spans()
        .iter()
        .map(|s| (s.batch, s.exec.as_secs_f64()))
        .collect();
    batches.sort_by_key(|b| b.0);
    batches.dedup_by_key(|b| b.0);
    batches.iter().map(|b| b.1).sum()
}

/// Key-store counters as layer metrics.
pub fn keystore_layers(layers: &mut Metrics, store: &KeyStore) {
    let s = store.stats();
    let gets = (s.hits + s.misses).max(1) as f64;
    layers.insert("keystore.hit_rate", s.hits as f64 / gets);
    layers.insert("keystore.loads", s.loads as f64);
    layers.insert("keystore.evictions", s.evictions as f64);
    layers.insert("keystore.bytes_resident", s.bytes_resident as f64);
}

/// `apps.*` from the spans of traced driver calls over a [`Traced`]
/// backend whose spans carry `backend_layer`.
pub fn apps_layers(layers: &mut Metrics, log: &SpanLog, backend_layer: &str) {
    let spans = log.spans();
    let requests: u64 = spans
        .iter()
        .filter(|s| s.layer == "apps.runtime")
        .map(|s| s.items)
        .sum();
    let (rotations, extractions) = spans
        .iter()
        .filter(|s| s.layer == backend_layer && s.parent != 0)
        .fold((0, 0), |(r, e), s| (r + s.items, e + s.outputs));
    let per = |n: u64| n as f64 / requests.max(1) as f64;
    layers.insert(
        "apps.self_ms_per_request",
        self_ms_per_item(&spans, "apps.runtime"),
    );
    layers.insert("apps.rotations_per_request", per(rotations));
    layers.insert("apps.extractions_per_request", per(extractions));
}
