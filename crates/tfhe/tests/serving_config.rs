//! Property tests for the serializable `ServingConfig` API: every valid
//! config survives a JSON round-trip bit-exactly (at the documented
//! microsecond granularity for durations), and no malformed or mutated
//! input can panic the parser — it must fail with a typed error.

use std::time::Duration;

use morphling_tfhe::{BreakerConfig, RetryConfig, ServingConfig, TfheError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_retry(rng: &mut StdRng) -> RetryConfig {
    RetryConfig {
        max_retries: rng.gen_range(0u32..16),
        base_backoff: Duration::from_micros(rng.gen_range(0u64..1_000_000)),
        max_backoff: Duration::from_micros(rng.gen_range(0u64..10_000_000)),
        jitter: rng.gen_range(0.0f64..1.0),
        seed: rng.gen(),
    }
}

fn random_breaker(rng: &mut StdRng) -> BreakerConfig {
    let window = rng.gen_range(1usize..512);
    BreakerConfig {
        window,
        // The validator requires a threshold in (0, 1]...
        failure_threshold: rng.gen_range(0.001f64..1.0),
        // ...and `min_samples` in 1..=window.
        min_samples: 1 + rng.gen_range(0usize..128) % window,
        cooldown: Duration::from_micros(rng.gen_range(0u64..60_000_000)),
        probes_to_close: rng.gen_range(1u32..8),
    }
}

fn random_config(rng: &mut StdRng) -> ServingConfig {
    let workers = rng.gen_range(1usize..64);
    let max_batch_size = rng.gen_range(1usize..256);
    let max_linger = Duration::from_micros(rng.gen_range(0u64..100_000));
    let queue_capacity = rng.gen_range(1usize..8192);
    let deadline_slack = Duration::from_micros(rng.gen_range(0u64..100_000));
    let retry = random_retry(rng);
    let (with_breaker, breaker): (bool, _) = (rng.gen(), random_breaker(rng));
    let (with_budget, budget): (bool, _) = (rng.gen(), rng.gen_range(1u64..u64::MAX));
    ServingConfig {
        workers,
        max_batch_size,
        max_linger,
        queue_capacity,
        deadline_slack,
        retry,
        breaker: with_breaker.then_some(breaker),
        key_budget_bytes: with_budget.then_some(budget),
    }
}

/// A parse outcome may be success or a typed config error — anything
/// else (or a panic, which the harness catches as a test failure) is a
/// bug in the parser.
fn assert_typed_outcome(case: usize, input: &str) -> Option<ServingConfig> {
    match ServingConfig::from_json(input) {
        Ok(cfg) => Some(cfg),
        Err(TfheError::ConfigCorrupted { .. }) | Err(TfheError::InvalidServingConfig { .. }) => {
            None
        }
        Err(other) => panic!("case {case}: wrong error type for {input:?}: {other}"),
    }
}

/// Any valid config round-trips through JSON bit-exactly.
#[test]
fn json_round_trip_is_lossless() {
    let mut rng = StdRng::seed_from_u64(0x5E7_0001);
    for case in 0..256 {
        let cfg = random_config(&mut rng);
        assert!(cfg.validate().is_ok(), "case {case}: invalid {cfg:?}");
        let json = cfg.to_json();
        let back = ServingConfig::from_json(&json).expect("own output must parse");
        assert_eq!(back, cfg, "case {case}: {json}");
    }
}

/// Serialization is deterministic: same config, same bytes.
#[test]
fn serialization_is_deterministic() {
    let mut rng = StdRng::seed_from_u64(0x5E7_0002);
    for case in 0..256 {
        let cfg = random_config(&mut rng);
        assert_eq!(cfg.to_json(), cfg.to_json(), "case {case}: {cfg:?}");
    }
}

/// Truncating valid JSON anywhere never panics: a strict prefix must
/// fail with the typed corruption error, never a crash.
#[test]
fn truncation_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x5E7_0003);
    for case in 0..256 {
        let (cfg, cut) = (random_config(&mut rng), rng.gen_range(0usize..2048));
        let json = cfg.to_json();
        let cut = cut.min(json.len());
        match assert_typed_outcome(case, &json[..cut]) {
            Some(parsed) => assert_eq!(parsed, cfg, "case {case}: cut {cut} of {json}"),
            None => assert!(cut < json.len(), "case {case}: {json} must parse"),
        }
    }
}

/// Splicing a random byte into valid JSON never panics and never
/// silently yields an *invalid* config.
#[test]
fn byte_mutation_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x5E7_0004);
    for case in 0..256 {
        let cfg = random_config(&mut rng);
        let (pos, byte): (usize, u8) = (rng.gen_range(0..2048), rng.gen());
        let mut bytes = cfg.to_json().into_bytes();
        let pos = pos % bytes.len();
        bytes[pos] = byte;
        // Invalid UTF-8 can't even reach the parser; skip those splices.
        let Ok(mutated) = String::from_utf8(bytes) else {
            continue;
        };
        // A mutation may keep the document well-formed (e.g. flipping a
        // digit); whatever parses must still validate.
        if let Some(parsed) = assert_typed_outcome(case, &mutated) {
            assert!(
                parsed.validate().is_ok(),
                "case {case}: byte {byte:#x} at {pos}: {mutated}"
            );
        }
    }
}

/// Arbitrary garbage never panics the parser.
#[test]
fn arbitrary_input_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x5E7_0005);
    for case in 0..256 {
        let bytes: Vec<u8> = (0..64).map(|_| rng.gen()).collect();
        let garbage = String::from_utf8_lossy(&bytes);
        let _ = assert_typed_outcome(case, &garbage);
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
