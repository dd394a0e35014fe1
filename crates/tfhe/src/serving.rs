//! Unified, serializable serving configuration.
//!
//! [`ServingConfig`] is the one owner of the serving knobs — batch size,
//! linger, queue depth and deadline slack of the
//! [`Dispatcher`](crate::Dispatcher), [`RetryConfig`] backoff,
//! circuit-breaker shedding, the [`KeyStore`](crate::KeyStore) byte
//! budget — so there is a single value an autotuner can emit and a
//! deployment can pin: a plain-data struct covering every knob,
//! JSON-serializable without serde ([`to_json`](ServingConfig::to_json)
//! writes one flat shape — numbers, `null`, two flat objects — and
//! [`from_json`](ServingConfig::from_json) reads that shape and no other
//! JSON, following the same no-panic / typed-error conventions as
//! [`crate::serialize`]), validated loudly
//! ([`validate`](ServingConfig::validate)), and consumed directly by
//! [`Dispatcher::from_config`](crate::Dispatcher::from_config).
//!
//! The autotuner ([`crate::autotune`]) searches over these configs and
//! emits the winner; `report autotune` writes it to
//! `autotune_config.json`; a deployment reads it back and builds the
//! serving stack:
//!
//! ```
//! use std::sync::Arc;
//! use morphling_tfhe::{ClientKey, Dispatcher, ParamSet, ServerKey, ServingConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let cfg = ServingConfig::builder()
//!     .workers(2)
//!     .max_batch_size(8)
//!     .max_linger(std::time::Duration::from_millis(1))
//!     .build()
//!     .unwrap();
//! let json = cfg.to_json();
//! let restored = ServingConfig::from_json(&json).unwrap();
//! assert_eq!(cfg, restored);
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let ck = ClientKey::generate(ParamSet::Test.params(), &mut rng);
//! let sk = Arc::new(ServerKey::new(&ck, &mut rng));
//! let dispatcher = Dispatcher::from_config(&restored, sk).unwrap();
//! assert_eq!(dispatcher.config().max_batch_size, 8);
//! ```
//!
//! Durations serialize at **microsecond** granularity (`*_us` fields);
//! sub-microsecond components are truncated by a round trip.

use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use crate::engine::{BootstrapEngine, BootstrapEngineBuilder};
use crate::error::TfheError;
use crate::resilience::{BreakerConfig, RetryConfig};
use crate::server::ServerKey;

/// Wire-format version stamped into (and required from) the JSON form.
pub const SERVING_CONFIG_VERSION: u64 = 1;

/// Reject a zero `n` as the value of `field`.
pub(crate) fn at_least_one(field: &'static str, n: usize) -> Result<(), TfheError> {
    if n == 0 {
        return Err(TfheError::InvalidServingConfig {
            field,
            detail: "must be at least 1 (got 0)".into(),
        });
    }
    Ok(())
}

/// Every serving knob in one plain-data, JSON-serializable value: the
/// type the autotuner emits and
/// [`Dispatcher::from_config`](crate::Dispatcher::from_config) consumes.
/// See the [module docs](self).
#[derive(Clone, Debug, PartialEq)]
pub struct ServingConfig {
    /// How many batches run at once: the dispatcher's batcher threads
    /// ([`Dispatcher::from_config`](crate::Dispatcher::from_config)), the
    /// worker pool of the engine built by
    /// [`build_engine`](Self::build_engine), and the servers of the
    /// autotuner's model. Behind a [`KeyStore`](crate::KeyStore) each
    /// batch in flight pins its tenant's key: a store with room for fewer
    /// keys serves the batches in turn
    /// ([`KeyStoreBootstrapper`](crate::KeyStoreBootstrapper)).
    pub workers: usize,
    /// Flush a batch as soon as it reaches this many requests.
    pub max_batch_size: usize,
    /// Flush a non-full batch once its oldest member has waited this long
    /// while another batch is running; with none running it flushes at
    /// once, so at `workers = 1` no batch lingers.
    pub max_linger: Duration,
    /// Admission-queue depth; beyond it `try_submit` rejects with
    /// [`TfheError::QueueFull`] and `submit` blocks.
    pub queue_capacity: usize,
    /// A deadline-triggered flush starts this much before the deadline
    /// itself, so the request it is rescuing still starts in time despite
    /// condvar wake-up jitter.
    pub deadline_slack: Duration,
    /// Retry policy for retryable backend faults.
    pub retry: RetryConfig,
    /// The dispatcher's admission circuit breaker — the only way to give
    /// it one; `None` admits unconditionally.
    pub breaker: Option<BreakerConfig>,
    /// Byte budget for a tenant [`KeyStore`](crate::KeyStore), when the
    /// deployment serves multi-tenant traffic. Nothing reads it yet:
    /// [`Dispatcher::from_config`](crate::Dispatcher::from_config) builds
    /// no store (a store needs a key *backend*, which is runtime wiring),
    /// [`KeyStore::new`](crate::KeyStore::new) takes the live budget, and
    /// the autotuner does not search it (ROADMAP item 5).
    pub key_budget_bytes: Option<u64>,
}

impl Default for ServingConfig {
    fn default() -> Self {
        // Batch ≤ 32, linger ≤ 2 ms, queue 1024, slack 500 µs, no retry,
        // no breaker.
        Self {
            workers: 1,
            max_batch_size: 32,
            max_linger: Duration::from_millis(2),
            queue_capacity: 1024,
            deadline_slack: Duration::from_micros(500),
            retry: RetryConfig::none(),
            breaker: None,
            key_budget_bytes: None,
        }
    }
}

impl ServingConfig {
    /// Start from the defaults and override knobs fluently.
    pub fn builder() -> ServingConfigBuilder {
        ServingConfigBuilder::new()
    }

    /// Reject degenerate knobs loudly, naming the offending field —
    /// instead of panicking (or silently clamping) deep in the
    /// dispatcher.
    ///
    /// # Errors
    ///
    /// [`TfheError::InvalidServingConfig`] on the first violated
    /// constraint: zero `workers` / `max_batch_size` / `queue_capacity`,
    /// a non-finite or out-of-range `retry.jitter`, a breaker that could
    /// misbehave or never open (a zero `window` / `min_samples` /
    /// `probes_to_close`, `min_samples` above `window`, a
    /// `failure_threshold` outside `(0, 1]`), or a zero key budget.
    pub fn validate(&self) -> Result<(), TfheError> {
        at_least_one("workers", self.workers)?;
        at_least_one("max_batch_size", self.max_batch_size)?;
        at_least_one("queue_capacity", self.queue_capacity)?;
        if !self.retry.jitter.is_finite() || !(0.0..=1.0).contains(&self.retry.jitter) {
            return Err(TfheError::InvalidServingConfig {
                field: "retry.jitter",
                detail: format!(
                    "must be a finite fraction in [0, 1] (got {})",
                    self.retry.jitter
                ),
            });
        }
        if let Some(b) = &self.breaker {
            b.validate()?;
        }
        if self.key_budget_bytes == Some(0) {
            return Err(TfheError::InvalidServingConfig {
                field: "key_budget_bytes",
                detail: "a zero-byte key budget can never hold a key".into(),
            });
        }
        Ok(())
    }

    /// Build a [`BootstrapEngine`] sized by [`workers`](Self::workers)
    /// over `key` — the backend half of the serving stack this config
    /// describes (front it with [`Dispatcher::from_config`]).
    ///
    /// # Errors
    ///
    /// [`TfheError::InvalidServingConfig`] if the config fails
    /// [`validate`](Self::validate); engine spawn errors otherwise.
    ///
    /// [`Dispatcher::from_config`]: crate::Dispatcher::from_config
    pub fn build_engine(&self, key: Arc<ServerKey>) -> Result<BootstrapEngine, TfheError> {
        self.validate()?;
        BootstrapEngineBuilder::new()
            .workers(self.workers)
            .build(key)
    }

    /// Serialize to a human-editable JSON object. Durations are written
    /// as integer microseconds (`*_us`); the result round-trips through
    /// [`from_json`](Self::from_json) exactly for µs-granular durations.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str("{\n");
        s.push_str(&format!("  \"version\": {},\n", SERVING_CONFIG_VERSION));
        s.push_str(&format!("  \"workers\": {},\n", self.workers));
        s.push_str(&format!("  \"max_batch_size\": {},\n", self.max_batch_size));
        s.push_str(&format!(
            "  \"max_linger_us\": {},\n",
            self.max_linger.as_micros()
        ));
        s.push_str(&format!("  \"queue_capacity\": {},\n", self.queue_capacity));
        s.push_str(&format!(
            "  \"deadline_slack_us\": {},\n",
            self.deadline_slack.as_micros()
        ));
        s.push_str(&format!(
            "  \"retry\": {{ \"max_retries\": {}, \"base_backoff_us\": {}, \
             \"max_backoff_us\": {}, \"jitter\": {}, \"seed\": {} }},\n",
            self.retry.max_retries,
            self.retry.base_backoff.as_micros(),
            self.retry.max_backoff.as_micros(),
            self.retry.jitter,
            self.retry.seed,
        ));
        match &self.breaker {
            Some(b) => s.push_str(&format!(
                "  \"breaker\": {{ \"window\": {}, \"failure_threshold\": {}, \
                 \"min_samples\": {}, \"cooldown_us\": {}, \"probes_to_close\": {} }},\n",
                b.window,
                b.failure_threshold,
                b.min_samples,
                b.cooldown.as_micros(),
                b.probes_to_close,
            )),
            None => s.push_str("  \"breaker\": null,\n"),
        }
        match self.key_budget_bytes {
            Some(b) => s.push_str(&format!("  \"key_budget_bytes\": {b}\n")),
            None => s.push_str("  \"key_budget_bytes\": null\n"),
        }
        s.push('}');
        s
    }

    /// Parse a config previously written by [`to_json`](Self::to_json).
    ///
    /// Reads the one shape `to_json` writes, with any whitespace between
    /// tokens: an object whose values are numbers or `null`, where `retry`
    /// and `breaker` are each `null` or a flat object of numbers. Integers
    /// are read exactly (no `f64` detour), so `u64` seeds round-trip.
    /// Follows the crate's deserialization contract (`tfhe::serialize`):
    /// **never panics** on malformed input — every framing, type, or
    /// schema failure (a string, bool or array value, an escaped, unknown
    /// or duplicate key) is a typed [`TfheError::ConfigCorrupted`] — and
    /// the parsed value is [`validate`](Self::validate)d before it is
    /// returned, so a degenerate-but-well-formed config fails with
    /// [`TfheError::InvalidServingConfig`] here rather than misbehaving
    /// later.
    ///
    /// `retry`, `breaker`, and `key_budget_bytes` may be `null` or
    /// omitted (defaulting to no retries / no breaker / no budget), as may
    /// any field inside `retry` or `breaker` (defaulting to
    /// [`RetryConfig::none`] / [`BreakerConfig::default`]); everything
    /// else is required, and unknown fields are rejected.
    ///
    /// # Errors
    ///
    /// [`TfheError::ConfigCorrupted`] on malformed JSON or schema
    /// violations, [`TfheError::InvalidServingConfig`] on degenerate
    /// values.
    pub fn from_json(text: &str) -> Result<Self, TfheError> {
        let mut reader = Reader { text, pos: 0 };
        let mut cfg = Self::default();
        let seen = reader.object("", |r, key| {
            match key {
                "version" => {
                    let version: u64 = r.number(key)?;
                    if version != SERVING_CONFIG_VERSION {
                        return Err(corrupt(format!(
                            "unsupported version {version} (expected {SERVING_CONFIG_VERSION})"
                        )));
                    }
                }
                "workers" => cfg.workers = r.number(key)?,
                "max_batch_size" => cfg.max_batch_size = r.number(key)?,
                "max_linger_us" => cfg.max_linger = Duration::from_micros(r.number(key)?),
                "queue_capacity" => cfg.queue_capacity = r.number(key)?,
                "deadline_slack_us" => cfg.deadline_slack = Duration::from_micros(r.number(key)?),
                "retry" => cfg.retry = r.retry()?,
                "breaker" => cfg.breaker = r.breaker()?,
                "key_budget_bytes" => {
                    cfg.key_budget_bytes = if r.eat("null") {
                        None
                    } else {
                        Some(r.number(key)?)
                    };
                }
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        if !reader.rest().is_empty() {
            return Err(corrupt(format!(
                "trailing characters at byte {}",
                reader.pos
            )));
        }
        let required = [
            "version",
            "workers",
            "max_batch_size",
            "max_linger_us",
            "queue_capacity",
            "deadline_slack_us",
        ];
        if let Some(name) = required.iter().find(|name| !seen.contains(name)) {
            return Err(corrupt(format!("missing field `{name}`")));
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

/// A cursor over the text [`ServingConfig::from_json`] reads; each method
/// skips the whitespace before its token.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Skip whitespace and return what follows it.
    fn rest(&mut self) -> &'a str {
        let rest = &self.text[self.pos..];
        let token = rest.trim_start_matches([' ', '\t', '\n', '\r']);
        self.pos += rest.len() - token.len();
        token
    }

    /// Consume `token` if it comes next.
    fn eat(&mut self, token: &str) -> bool {
        let hit = self.rest().starts_with(token);
        if hit {
            self.pos += token.len();
        }
        hit
    }

    fn expect(&mut self, token: &str) -> Result<(), TfheError> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(corrupt(format!("expected `{token}` at byte {}", self.pos)))
        }
    }

    /// A number as `T`: a `-` or a digit, then the longest run of digits,
    /// signs, `.`, `e` and `E` — parsed whole, so `1.5` is no integer and
    /// `1e999` no `u64`.
    fn number<T: FromStr>(&mut self, key: &str) -> Result<T, TfheError> {
        let rest = self.rest();
        let len = if rest.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
            rest.find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
                .unwrap_or(rest.len())
        } else {
            0
        };
        let raw = &rest[..len];
        let at = self.pos;
        self.pos += len;
        raw.parse().map_err(|_| {
            corrupt(format!(
                "`{key}` must be a number in range (got `{raw}` at byte {at})"
            ))
        })
    }

    /// An object whose every value `field` reads: it is handed each key —
    /// read up to the next quote, since a known one has no escapes — and
    /// returns `false` for an unknown one. Returns the keys, each seen at
    /// most once; `scope` prefixes them in errors.
    fn object(
        &mut self,
        scope: &str,
        mut field: impl FnMut(&mut Self, &str) -> Result<bool, TfheError>,
    ) -> Result<Vec<&'a str>, TfheError> {
        self.expect("{")?;
        let mut seen = Vec::new();
        if self.eat("}") {
            return Ok(seen);
        }
        loop {
            self.expect("\"")?;
            let rest = &self.text[self.pos..];
            let end = rest
                .find('"')
                .ok_or_else(|| corrupt("unterminated key".into()))?;
            let key = &rest[..end];
            self.pos += key.len() + 1;
            if seen.contains(&key) {
                return Err(corrupt(format!("duplicate field `{scope}{key}`")));
            }
            self.expect(":")?;
            if !field(self, key)? {
                return Err(corrupt(format!("unknown field `{scope}{key}`")));
            }
            seen.push(key);
            if !self.eat(",") {
                self.expect("}")?;
                return Ok(seen);
            }
        }
    }

    /// `null` (no retries) or an object over [`RetryConfig::none`].
    fn retry(&mut self) -> Result<RetryConfig, TfheError> {
        let mut retry = RetryConfig::none();
        if !self.eat("null") {
            self.object("retry.", |r, key| {
                match key {
                    "max_retries" => retry.max_retries = r.number(key)?,
                    "base_backoff_us" => retry.base_backoff = Duration::from_micros(r.number(key)?),
                    "max_backoff_us" => retry.max_backoff = Duration::from_micros(r.number(key)?),
                    "jitter" => retry.jitter = r.number(key)?,
                    "seed" => retry.seed = r.number(key)?,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
        }
        Ok(retry)
    }

    /// `null` (no breaker) or an object over [`BreakerConfig::default`].
    fn breaker(&mut self) -> Result<Option<BreakerConfig>, TfheError> {
        if self.eat("null") {
            return Ok(None);
        }
        let mut b = BreakerConfig::default();
        self.object("breaker.", |r, key| {
            match key {
                "window" => b.window = r.number(key)?,
                "failure_threshold" => b.failure_threshold = r.number(key)?,
                "min_samples" => b.min_samples = r.number(key)?,
                "cooldown_us" => b.cooldown = Duration::from_micros(r.number(key)?),
                "probes_to_close" => b.probes_to_close = r.number(key)?,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(Some(b))
    }
}

/// Fluent construction of a validated [`ServingConfig`].
#[derive(Clone, Debug, Default)]
#[must_use = "a builder does nothing until .build() is called"]
pub struct ServingConfigBuilder {
    cfg: ServingConfig,
}

impl ServingConfigBuilder {
    /// Start from [`ServingConfig::default`].
    pub fn new() -> Self {
        Self::default()
    }

    /// See [`ServingConfig::workers`].
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = n;
        self
    }

    /// See [`ServingConfig::max_batch_size`].
    pub fn max_batch_size(mut self, n: usize) -> Self {
        self.cfg.max_batch_size = n;
        self
    }

    /// See [`ServingConfig::max_linger`].
    pub fn max_linger(mut self, linger: Duration) -> Self {
        self.cfg.max_linger = linger;
        self
    }

    /// See [`ServingConfig::queue_capacity`].
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        self.cfg.queue_capacity = cap;
        self
    }

    /// See [`ServingConfig::deadline_slack`].
    pub fn deadline_slack(mut self, slack: Duration) -> Self {
        self.cfg.deadline_slack = slack;
        self
    }

    /// See [`ServingConfig::retry`].
    pub fn retry(mut self, retry: RetryConfig) -> Self {
        self.cfg.retry = retry;
        self
    }

    /// See [`ServingConfig::breaker`].
    pub fn breaker(mut self, breaker: BreakerConfig) -> Self {
        self.cfg.breaker = Some(breaker);
        self
    }

    /// Validate and return the config: degenerate knobs are rejected
    /// loudly here, never clamped.
    ///
    /// # Errors
    ///
    /// As [`ServingConfig::validate`].
    pub fn build(self) -> Result<ServingConfig, TfheError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

fn corrupt(detail: String) -> TfheError {
    TfheError::ConfigCorrupted { detail }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_round_trips_through_json() {
        let cfg = ServingConfig::default();
        let json = cfg.to_json();
        assert_eq!(ServingConfig::from_json(&json).unwrap(), cfg);
    }

    #[test]
    fn fully_populated_config_round_trips() {
        let built = ServingConfig::builder()
            .workers(8)
            .max_batch_size(16)
            .max_linger(Duration::from_micros(1500))
            .queue_capacity(256)
            .deadline_slack(Duration::from_micros(250))
            .retry(RetryConfig {
                max_retries: 3,
                base_backoff: Duration::from_micros(100),
                max_backoff: Duration::from_millis(10),
                jitter: 0.25,
                seed: u64::MAX,
            })
            .breaker(BreakerConfig {
                window: 64,
                failure_threshold: 0.75,
                min_samples: 4,
                cooldown: Duration::from_millis(50),
                probes_to_close: 2,
            })
            .build()
            .unwrap();
        let cfg = ServingConfig {
            key_budget_bytes: Some(1 << 20),
            ..built
        };
        let restored = ServingConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(restored, cfg);
        // u64::MAX survives: the parser keeps raw literals instead of
        // routing integers through f64.
        assert_eq!(restored.retry.seed, u64::MAX);
    }

    #[test]
    fn degenerate_knobs_are_rejected_loudly_by_field() {
        let cases: [(ServingConfig, &str); 4] = [
            (
                ServingConfig {
                    workers: 0,
                    ..ServingConfig::default()
                },
                "workers",
            ),
            (
                ServingConfig {
                    max_batch_size: 0,
                    ..ServingConfig::default()
                },
                "max_batch_size",
            ),
            (
                ServingConfig {
                    queue_capacity: 0,
                    ..ServingConfig::default()
                },
                "queue_capacity",
            ),
            (
                ServingConfig {
                    key_budget_bytes: Some(0),
                    ..ServingConfig::default()
                },
                "key_budget_bytes",
            ),
        ];
        for (cfg, want) in cases {
            match cfg.validate() {
                Err(TfheError::InvalidServingConfig { field, .. }) => {
                    assert_eq!(field, want);
                }
                other => panic!("expected InvalidServingConfig for {want}, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_fractions_are_rejected() {
        let mut cfg = ServingConfig::default();
        cfg.retry.jitter = f64::NAN;
        assert!(matches!(
            cfg.validate(),
            Err(TfheError::InvalidServingConfig {
                field: "retry.jitter",
                ..
            })
        ));
        let cfg = ServingConfig {
            breaker: Some(BreakerConfig {
                failure_threshold: 0.0,
                ..BreakerConfig::default()
            }),
            ..ServingConfig::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(TfheError::InvalidServingConfig {
                field: "breaker.failure_threshold",
                ..
            })
        ));
    }

    #[test]
    fn builder_build_rejects_degenerate_knobs() {
        assert!(matches!(
            ServingConfig::builder().workers(0).build(),
            Err(TfheError::InvalidServingConfig {
                field: "workers",
                ..
            })
        ));
    }

    #[test]
    fn missing_and_unknown_fields_are_schema_errors() {
        let missing = "{ \"version\": 1, \"workers\": 2 }";
        assert!(matches!(
            ServingConfig::from_json(missing),
            Err(TfheError::ConfigCorrupted { .. })
        ));
        let unknown = ServingConfig::default()
            .to_json()
            .replace("\"workers\"", "\"wrokers\"");
        assert!(matches!(
            ServingConfig::from_json(&unknown),
            Err(TfheError::ConfigCorrupted { .. })
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let json = ServingConfig::default()
            .to_json()
            .replace("\"version\": 1", "\"version\": 2");
        match ServingConfig::from_json(&json) {
            Err(TfheError::ConfigCorrupted { detail }) => {
                assert!(detail.contains("version"), "{detail}");
            }
            other => panic!("expected ConfigCorrupted, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_json_is_invalid_not_corrupted() {
        // Well-formed JSON carrying a degenerate knob is a validation
        // error (the schema is fine; the value is not).
        let json = ServingConfig::default()
            .to_json()
            .replace("\"max_batch_size\": 32", "\"max_batch_size\": 0");
        assert!(matches!(
            ServingConfig::from_json(&json),
            Err(TfheError::InvalidServingConfig {
                field: "max_batch_size",
                ..
            })
        ));
    }

    #[test]
    fn malformed_json_never_panics() {
        // One whole config, so that each spliced row differs from a valid
        // document only in a form the schema cannot hold.
        let config = |workers: &str, retry: &str, breaker: &str| {
            format!(
                "{{\"version\": 1, {workers}, \"max_batch_size\": 1, \"max_linger_us\": 0, \
                 \"queue_capacity\": 1, \"deadline_slack_us\": 0, \"retry\": {retry}, \
                 \"breaker\": {breaker}}}"
            )
        };
        let workers = "\"workers\": 1";
        assert!(ServingConfig::from_json(&config(workers, "{}", "{}")).is_ok());
        let spliced = [
            config("\"workers\": \"1\"", "null", "null"),
            config("\"workers\": true", "null", "null"),
            config("\"workers\": [1]", "null", "null"),
            config("\"workers\": {}", "null", "null"),
            config("\"workers\": null", "null", "null"),
            config(workers, "1", "null"),
            config(workers, "\"none\"", "null"),
            config(workers, "[]", "null"),
            config(workers, "null", "1"),
            config(workers, "null", "\"none\""),
            config(workers, "null", "[]"),
            config("\"work\\u0065rs\": 1", "null", "null"),
            config("\"w\u{f6}rkers\": 1", "null", "null"),
            config(workers, "{\"seed\": 1, \"seed\": 1}", "null"),
        ];
        let literal = [
            "",
            "{",
            "}",
            "nul",
            "{\"version\": }",
            "{\"version\": 1,}",
            "{\"version\": 1} trailing",
            "{\"version\": 1e999}",
            "{\"version\": -1}",
            "{\"version\": 1, \"version\": 1}",
            "[1, 2",
            "\"unterminated",
            "{\"a\\q\": 1}",
            "{\"version\": 1, \"workers\": [[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]]}",
        ];
        for text in literal.map(String::from).into_iter().chain(spliced) {
            assert!(
                matches!(
                    ServingConfig::from_json(&text),
                    Err(TfheError::ConfigCorrupted { .. })
                ),
                "input {text:?} must fail with ConfigCorrupted"
            );
        }
    }
}
