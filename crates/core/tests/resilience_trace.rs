//! End-to-end resilience trace: drive a dispatcher over two
//! breaker-guarded backend tiers, journal the retry/failover timeline, and write
//! the merged Chrome trace to `CARGO_TARGET_TMPDIR` so CI can archive
//! and validate it alongside the engine chaos trace.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use morphling_core::trace::ExecutionTrace;
use morphling_tfhe::{
    BatchRequest, Bootstrapper, BreakerConfig, ClientKey, DispatcherBuilder, Lut, LweCiphertext,
    ParamSet, RetryConfig, ServerKey, ServingConfig, TfheError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fails its first `fail_first` calls with a retryable fault, then heals
/// and delegates to the sequential reference.
struct FlakyPrimary {
    inner: Arc<ServerKey>,
    fail_first: u64,
    calls: AtomicU64,
}

impl Bootstrapper for FlakyPrimary {
    fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
        if self.calls.fetch_add(1, Ordering::SeqCst) < self.fail_first {
            return Err(TfheError::WorkerPanicked { worker: 7 });
        }
        self.inner.try_bootstrap_batch(req)
    }
}

#[test]
fn resilience_trace_roundtrips_to_disk() {
    let mut rng = StdRng::seed_from_u64(0x7E51);
    let ck = ClientKey::generate(ParamSet::Test.params(), &mut rng);
    let sk = Arc::new(ServerKey::new(&ck, &mut rng));
    let lut = Arc::new(Lut::identity(sk.params().poly_size, 4));

    // The primary fails its first three calls and the fallback its first
    // one: the first batch fails on both tiers and the dispatcher, with a
    // one-retry budget, runs it again; that run and the next fail over to
    // the sequential tier — both event kinds are guaranteed on the
    // timeline.
    let flaky = |fail_first| FlakyPrimary {
        inner: Arc::clone(&sk),
        fail_first,
        calls: AtomicU64::new(0),
    };
    let config = ServingConfig::builder()
        .max_batch_size(4)
        .max_linger(Duration::from_millis(1))
        .retry(RetryConfig {
            base_backoff: Duration::ZERO,
            ..RetryConfig::new(1)
        })
        .breaker(BreakerConfig::default())
        .build()
        .expect("valid serving knobs");
    let dispatcher = DispatcherBuilder::from_config(&config)
        .expect("validated above")
        .fallback("server", flaky(1))
        .build(flaky(3));

    let tickets: Vec<_> = (0..8u64)
        .map(|m| {
            let ct = ck.encrypt(m % 4, &mut rng);
            let expected = sk.programmable_bootstrap(&ct, &lut);
            let t = dispatcher
                .submit(ct, Arc::clone(&lut), None)
                .expect("submit");
            (expected, t)
        })
        .collect();
    for (expected, t) in tickets {
        assert_eq!(
            t.wait().expect("served despite the flaky primary"),
            expected,
            "degraded-mode output must be bit-identical"
        );
    }
    assert!(
        dispatcher.stats().retries >= 1,
        "the failed batch must be retried"
    );
    assert!(
        dispatcher.stats().failovers >= 1,
        "the dispatcher must fail over"
    );

    // The dispatcher's journal — its resilience events and its request
    // spans — in one trace (CI checks every retry against the dispatch
    // spans of the archived trace).
    let mut trace = ExecutionTrace::new(1e3);
    trace.add_events(&dispatcher.journal().events());
    let names: Vec<_> = trace
        .spans()
        .iter()
        .filter(|s| s.cat == "resilience")
        .map(|s| s.name.clone())
        .collect();
    assert!(
        names.iter().any(|n| n == "retry"),
        "trace must carry retry spans: {names:?}"
    );
    assert!(
        names.iter().any(|n| n == "failover"),
        "trace must carry failover spans: {names:?}"
    );
    let json = trace.to_chrome_json();
    let depth = json.chars().fold(0i64, |d, c| match c {
        '{' | '[' => d + 1,
        '}' | ']' => d - 1,
        _ => d,
    });
    assert_eq!(
        depth, 0,
        "resilience trace JSON must be structurally balanced"
    );

    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("resilience_trace.json");
    std::fs::write(&path, &json).expect("write resilience trace");
    assert!(path.metadata().expect("stat").len() > 0);
}
