//! Property tests for the serializable `ServingConfig` API: every valid
//! config survives a JSON round-trip bit-exactly (at the documented
//! microsecond granularity for durations), and no malformed or mutated
//! input can panic the parser — it must fail with a typed error.

use std::time::Duration;

use morphling_tfhe::{BreakerConfig, RetryConfig, ServingConfig, TfheError};
use proptest::prelude::*;

fn retry_strategy() -> impl Strategy<Value = RetryConfig> {
    (
        0u32..16,
        0u64..1_000_000,
        0u64..10_000_000,
        0.0f64..1.0,
        any::<u64>(),
    )
        .prop_map(|(max_retries, base_us, max_us, jitter, seed)| RetryConfig {
            max_retries,
            base_backoff: Duration::from_micros(base_us),
            max_backoff: Duration::from_micros(max_us),
            jitter,
            seed,
        })
}

fn breaker_strategy() -> impl Strategy<Value = BreakerConfig> {
    (
        1usize..512,
        // The validator requires a threshold in (0, 1].
        0.001f64..1.0,
        // ...and `min_samples` in 1..=window.
        0usize..128,
        0u64..60_000_000,
        1u32..8,
    )
        .prop_map(
            |(window, failure_threshold, samples, cooldown_us, probes_to_close)| BreakerConfig {
                window,
                failure_threshold,
                min_samples: 1 + samples % window,
                cooldown: Duration::from_micros(cooldown_us),
                probes_to_close,
            },
        )
}

fn config_strategy() -> impl Strategy<Value = ServingConfig> {
    (
        (
            1usize..64,
            1usize..256,
            0u64..100_000,
            1usize..8192,
            0u64..100_000,
        ),
        retry_strategy(),
        (any::<bool>(), breaker_strategy()),
        (any::<bool>(), 1u64..u64::MAX),
    )
        .prop_map(
            |(
                (workers, max_batch_size, linger_us, queue_capacity, slack_us),
                retry,
                (with_breaker, breaker),
                (with_budget, budget),
            )| {
                ServingConfig {
                    workers,
                    max_batch_size,
                    max_linger: Duration::from_micros(linger_us),
                    queue_capacity,
                    deadline_slack: Duration::from_micros(slack_us),
                    retry,
                    breaker: with_breaker.then_some(breaker),
                    key_budget_bytes: with_budget.then_some(budget),
                }
            },
        )
}

/// A parse outcome may be success or a typed config error — anything
/// else (or a panic, which the harness catches as a test failure) is a
/// bug in the parser.
fn assert_typed_outcome(input: &str) -> Option<ServingConfig> {
    match ServingConfig::from_json(input) {
        Ok(cfg) => Some(cfg),
        Err(TfheError::ConfigCorrupted { .. }) | Err(TfheError::InvalidServingConfig { .. }) => {
            None
        }
        Err(other) => panic!("wrong error type for {input:?}: {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any valid config round-trips through JSON bit-exactly.
    #[test]
    fn json_round_trip_is_lossless(cfg in config_strategy()) {
        prop_assert!(cfg.validate().is_ok(), "strategy must generate valid configs");
        let json = cfg.to_json();
        let back = ServingConfig::from_json(&json).expect("own output must parse");
        prop_assert_eq!(back, cfg);
    }

    /// Serialization is deterministic: same config, same bytes.
    #[test]
    fn serialization_is_deterministic(cfg in config_strategy()) {
        prop_assert_eq!(cfg.to_json(), cfg.to_json());
    }

    /// Truncating valid JSON anywhere never panics: a strict prefix must
    /// fail with the typed corruption error, never a crash.
    #[test]
    fn truncation_never_panics(cfg in config_strategy(), cut in 0usize..2048) {
        let json = cfg.to_json();
        let cut = cut.min(json.len());
        match assert_typed_outcome(&json[..cut]) {
            Some(parsed) => prop_assert_eq!(parsed, cfg),
            None => prop_assert!(cut < json.len(), "full document must parse"),
        }
    }

    /// Splicing a random byte into valid JSON never panics and never
    /// silently yields an *invalid* config.
    #[test]
    fn byte_mutation_never_panics(
        cfg in config_strategy(),
        pos in 0usize..2048,
        byte: u8,
    ) {
        let mut bytes = cfg.to_json().into_bytes();
        let pos = pos % bytes.len();
        bytes[pos] = byte;
        // Invalid UTF-8 can't even reach the parser; skip those splices.
        let Ok(mutated) = String::from_utf8(bytes) else { return };
        // A mutation may keep the document well-formed (e.g. flipping a
        // digit); whatever parses must still validate.
        if let Some(parsed) = assert_typed_outcome(&mutated) {
            prop_assert!(parsed.validate().is_ok());
        }
    }

    /// Arbitrary garbage never panics the parser.
    #[test]
    fn arbitrary_input_never_panics(bytes in prop::collection::vec(any::<u8>(), 64)) {
        let garbage = String::from_utf8_lossy(&bytes);
        let _ = assert_typed_outcome(&garbage);
    }
}

#[test]
fn default_config_round_trips_and_is_stable() {
    let cfg = ServingConfig::default();
    let json = cfg.to_json();
    assert_eq!(ServingConfig::from_json(&json).unwrap(), cfg);
    // The default carries no retry budget, breaker, or key budget.
    assert_eq!(cfg.retry.max_retries, 0);
    assert!(cfg.breaker.is_none());
    assert!(cfg.key_budget_bytes.is_none());
}

#[test]
fn u64_seeds_survive_above_f64_precision() {
    // Seeds above 2^53 are not representable in f64; the parser must
    // keep integer literals exact rather than detouring through floats.
    let mut cfg = ServingConfig::default();
    cfg.retry.seed = (1u64 << 53) + 1;
    cfg.key_budget_bytes = Some(u64::MAX);
    let back = ServingConfig::from_json(&cfg.to_json()).unwrap();
    assert_eq!(back.retry.seed, (1u64 << 53) + 1);
    assert_eq!(back.key_budget_bytes, Some(u64::MAX));
}

#[test]
fn unknown_fields_and_wrong_versions_are_rejected() {
    let cfg = ServingConfig::default();
    let with_unknown = cfg.to_json().replacen("\"workers\"", "\"wrokers\"", 1);
    assert!(matches!(
        ServingConfig::from_json(&with_unknown),
        Err(TfheError::ConfigCorrupted { .. })
    ));
    let wrong_version = cfg
        .to_json()
        .replacen("\"version\": 1", "\"version\": 99", 1);
    assert!(matches!(
        ServingConfig::from_json(&wrong_version),
        Err(TfheError::ConfigCorrupted { .. })
    ));
}

/// The window keeps at most `window` outcomes and the breaker trusts the
/// rate only from `min_samples` on, so `min_samples > window` could never
/// open: a config that says so is refused, not served.
#[test]
fn a_breaker_that_could_never_open_is_rejected() {
    let never_opens = ServingConfig {
        breaker: Some(BreakerConfig {
            window: 4,
            min_samples: 8,
            ..BreakerConfig::default()
        }),
        ..ServingConfig::default()
    };
    match ServingConfig::from_json(&never_opens.to_json()) {
        Err(TfheError::InvalidServingConfig { field, .. }) => {
            assert_eq!(field, "breaker.min_samples")
        }
        other => panic!("expected InvalidServingConfig, got {other:?}"),
    }
    let mut at_the_limit = never_opens;
    at_the_limit.breaker = at_the_limit
        .breaker
        .map(|b| BreakerConfig { window: 8, ..b });
    assert!(ServingConfig::from_json(&at_the_limit.to_json()).is_ok());
}

#[test]
fn degenerate_values_parse_to_typed_validation_errors() {
    let cfg = ServingConfig::default();
    let zero_workers = cfg
        .to_json()
        .replacen("\"workers\": 1", "\"workers\": 0", 1);
    match ServingConfig::from_json(&zero_workers) {
        Err(TfheError::InvalidServingConfig { field, .. }) => assert_eq!(field, "workers"),
        other => panic!("expected InvalidServingConfig, got {other:?}"),
    }
}
