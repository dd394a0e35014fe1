//! Benchmark-side spans: one per call into a layer's public API, kept in
//! memory and folded into per-layer metrics when the run ends. Nothing
//! inside the program under test is instrumented.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use morphling_tfhe::{BatchRequest, Bootstrapper, LweCiphertext, TfheError};

/// One call into `layer`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 = the load generator).
    pub parent: u64,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Inputs the call carried (ciphertexts, requests).
    pub items: u64,
    /// Outputs it produced.
    pub outputs: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An open span, closed with [`SpanLog::exit`].
pub struct Open {
    id: u64,
    parent: u64,
    layer: &'static str,
    start: Instant,
}

#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    on: AtomicBool,
    /// The open span of the single client thread, so backend calls made
    /// on its behalf can name their cause. 0 when clients run in parallel.
    scope: AtomicU64,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            scope: AtomicU64::new(0),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// Open a span caused by the current scope; `None` while the log is
    /// off.
    pub fn enter(&self, layer: &'static str) -> Option<Open> {
        self.on.load(Ordering::SeqCst).then(|| Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent: self.scope.load(Ordering::SeqCst),
            layer,
            start: Instant::now(),
        })
    }

    /// Make `open` the cause of spans entered until it exits.
    pub fn scope(&self, open: &Option<Open>) {
        if let Some(open) = open {
            self.scope.store(open.id, Ordering::SeqCst);
        }
    }

    pub fn exit(&self, open: Option<Open>, items: u64, outputs: u64) {
        let Some(open) = open else { return };
        let end = Instant::now();
        // Leaving the scoping span restores "no cause".
        let _ = self
            .scope
            .compare_exchange(open.id, 0, Ordering::SeqCst, Ordering::SeqCst);
        self.push(
            open.id,
            open.parent,
            open.layer,
            open.start,
            end,
            items,
            outputs,
        );
    }

    /// Record a finished asynchronous call (submit → result) whose two
    /// ends were observed on different lines of the load generator.
    pub fn record(&self, layer: &'static str, start: Instant, end: Instant) {
        if self.on.load(Ordering::SeqCst) {
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            self.push(id, 0, layer, start, end, 1, 1);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &self,
        id: u64,
        parent: u64,
        layer: &'static str,
        start: Instant,
        end: Instant,
        items: u64,
        outputs: u64,
    ) {
        let span = Span {
            id,
            parent,
            layer,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            items,
            outputs,
        };
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// A [`Bootstrapper`] that records one span per batch call while the log
/// is on, and forwards untouched while it is off.
pub struct Traced<B> {
    pub inner: B,
    pub layer: &'static str,
    pub log: Arc<SpanLog>,
}

impl<B: Bootstrapper> Bootstrapper for Traced<B> {
    fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
        let open = self.log.enter(self.layer);
        let out = self.inner.try_bootstrap_batch(req);
        self.log
            .exit(open, req.len() as u64, req.output_len() as u64);
        out
    }
}

/// Per-request self time of `layer`: each span's duration minus the part
/// its child spans cover, summed, over the items the spans carried.
pub fn self_ms_per_item(spans: &[Span], layer: &str) -> f64 {
    let (mut total, mut items) = (0.0, 0u64);
    for s in spans.iter().filter(|s| s.layer == layer) {
        let children: f64 = spans
            .iter()
            .filter(|c| c.parent == s.id)
            .map(Span::ms)
            .sum();
        total += s.ms() - children;
        items += s.items;
    }
    total / items.max(1) as f64
}
