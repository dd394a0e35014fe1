//! Unified, serializable serving configuration.
//!
//! [`ServingConfig`] is the one owner of the serving knobs — batch size,
//! linger, queue depth and deadline slack of the
//! [`Dispatcher`](crate::Dispatcher), [`RetryConfig`] backoff,
//! circuit-breaker shedding, the [`KeyStore`](crate::KeyStore) byte
//! budget — so there is a single value an autotuner can emit and a
//! deployment can pin: a plain-data struct covering every knob,
//! JSON-serializable without serde ([`to_json`](ServingConfig::to_json)
//! / [`from_json`](ServingConfig::from_json), following the same
//! no-panic / typed-error conventions as [`crate::serialize`]), validated
//! loudly ([`validate`](ServingConfig::validate)), and consumed directly
//! by [`Dispatcher::from_config`](crate::Dispatcher::from_config).
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
    /// deployment serves multi-tenant traffic. Advisory for
    /// [`Dispatcher::from_config`](crate::Dispatcher::from_config) (a
    /// store needs a key *backend*, which
    /// is runtime wiring); consumed by capacity-planning tooling.
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
    /// Follows the crate's deserialization contract (`tfhe::serialize`):
    /// **never panics** on malformed input — every framing, type, or
    /// schema failure is a typed [`TfheError::ConfigCorrupted`] — and the
    /// parsed value is [`validate`](Self::validate)d before it is
    /// returned, so a degenerate-but-well-formed config fails with
    /// [`TfheError::InvalidServingConfig`] here rather than misbehaving
    /// later.
    ///
    /// `retry`, `breaker`, and `key_budget_bytes` may be `null` or
    /// omitted (defaulting to no retries / no breaker / no budget);
    /// everything else is required, and unknown fields are rejected.
    ///
    /// # Errors
    ///
    /// [`TfheError::ConfigCorrupted`] on malformed JSON or schema
    /// violations, [`TfheError::InvalidServingConfig`] on degenerate
    /// values.
    pub fn from_json(text: &str) -> Result<Self, TfheError> {
        let value = json::parse(text)?;
        let obj = value.as_obj("config")?;
        let mut cfg = Self::default();
        let mut saw_version = false;
        let mut required = RequiredFields::default();
        for (key, v) in obj {
            match key.as_str() {
                "version" => {
                    let version = v.as_u64("version")?;
                    if version != SERVING_CONFIG_VERSION {
                        return Err(corrupt(format!(
                            "unsupported version {version} (expected {SERVING_CONFIG_VERSION})"
                        )));
                    }
                    saw_version = true;
                }
                "workers" => {
                    cfg.workers = v.as_usize("workers")?;
                    required.workers = true;
                }
                "max_batch_size" => {
                    cfg.max_batch_size = v.as_usize("max_batch_size")?;
                    required.max_batch_size = true;
                }
                "max_linger_us" => {
                    cfg.max_linger = Duration::from_micros(v.as_u64("max_linger_us")?);
                    required.max_linger = true;
                }
                "queue_capacity" => {
                    cfg.queue_capacity = v.as_usize("queue_capacity")?;
                    required.queue_capacity = true;
                }
                "deadline_slack_us" => {
                    cfg.deadline_slack = Duration::from_micros(v.as_u64("deadline_slack_us")?);
                    required.deadline_slack = true;
                }
                "retry" => {
                    cfg.retry = match v {
                        json::Json::Null => RetryConfig::none(),
                        other => parse_retry(other)?,
                    };
                }
                "breaker" => {
                    cfg.breaker = match v {
                        json::Json::Null => None,
                        other => Some(parse_breaker(other)?),
                    };
                }
                "key_budget_bytes" => {
                    cfg.key_budget_bytes = match v {
                        json::Json::Null => None,
                        other => Some(other.as_u64("key_budget_bytes")?),
                    };
                }
                unknown => {
                    return Err(corrupt(format!("unknown field `{unknown}`")));
                }
            }
        }
        if !saw_version {
            return Err(corrupt("missing field `version`".into()));
        }
        required.check()?;
        cfg.validate()?;
        Ok(cfg)
    }
}

/// Presence tracking for the required top-level fields of the JSON form.
#[derive(Default)]
struct RequiredFields {
    workers: bool,
    max_batch_size: bool,
    max_linger: bool,
    queue_capacity: bool,
    deadline_slack: bool,
}

impl RequiredFields {
    fn check(&self) -> Result<(), TfheError> {
        let missing = [
            (self.workers, "workers"),
            (self.max_batch_size, "max_batch_size"),
            (self.max_linger, "max_linger_us"),
            (self.queue_capacity, "queue_capacity"),
            (self.deadline_slack, "deadline_slack_us"),
        ]
        .into_iter()
        .find(|(present, _)| !present);
        match missing {
            Some((_, name)) => Err(corrupt(format!("missing field `{name}`"))),
            None => Ok(()),
        }
    }
}

fn parse_retry(v: &json::Json) -> Result<RetryConfig, TfheError> {
    let mut r = RetryConfig::none();
    for (key, v) in v.as_obj("retry")? {
        match key.as_str() {
            "max_retries" => r.max_retries = v.as_u32("retry.max_retries")?,
            "base_backoff_us" => {
                r.base_backoff = Duration::from_micros(v.as_u64("retry.base_backoff_us")?);
            }
            "max_backoff_us" => {
                r.max_backoff = Duration::from_micros(v.as_u64("retry.max_backoff_us")?);
            }
            "jitter" => r.jitter = v.as_f64("retry.jitter")?,
            "seed" => r.seed = v.as_u64("retry.seed")?,
            unknown => return Err(corrupt(format!("unknown field `retry.{unknown}`"))),
        }
    }
    Ok(r)
}

fn parse_breaker(v: &json::Json) -> Result<BreakerConfig, TfheError> {
    let mut b = BreakerConfig::default();
    for (key, v) in v.as_obj("breaker")? {
        match key.as_str() {
            "window" => b.window = v.as_usize("breaker.window")?,
            "failure_threshold" => {
                b.failure_threshold = v.as_f64("breaker.failure_threshold")?;
            }
            "min_samples" => b.min_samples = v.as_usize("breaker.min_samples")?,
            "cooldown_us" => b.cooldown = Duration::from_micros(v.as_u64("breaker.cooldown_us")?),
            "probes_to_close" => b.probes_to_close = v.as_u32("breaker.probes_to_close")?,
            unknown => return Err(corrupt(format!("unknown field `breaker.{unknown}`"))),
        }
    }
    Ok(b)
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

/// Minimal recursive-descent JSON reader, mirroring `tfhe::serialize`'s
/// bounds-checked, never-panicking deserialization style for a text
/// format: every malformed input becomes a typed
/// [`TfheError::ConfigCorrupted`].
mod json {
    use super::corrupt;
    use crate::error::TfheError;

    /// Nesting allowed before the parser refuses (a config is two deep;
    /// this bounds adversarial recursion).
    const MAX_DEPTH: u32 = 16;

    /// A parsed JSON value. Numbers keep their raw literal so `u64`s
    /// round-trip exactly (an `f64` detour would corrupt seeds above
    /// 2⁵³).
    #[derive(Clone, Debug, PartialEq)]
    pub enum Json {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// A number literal, kept raw.
        Num(String),
        /// A string literal, unescaped.
        Str(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object, in source order.
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        pub(crate) fn as_obj(&self, field: &str) -> Result<&[(String, Json)], TfheError> {
            match self {
                Json::Obj(fields) => Ok(fields),
                other => Err(corrupt(format!(
                    "`{field}` must be an object (got {})",
                    other.kind()
                ))),
            }
        }

        pub(crate) fn as_u64(&self, field: &str) -> Result<u64, TfheError> {
            match self {
                Json::Num(raw) => raw.parse::<u64>().map_err(|_| {
                    corrupt(format!(
                        "`{field}` must be a non-negative integer (got {raw})"
                    ))
                }),
                other => Err(corrupt(format!(
                    "`{field}` must be a number (got {})",
                    other.kind()
                ))),
            }
        }

        pub(crate) fn as_u32(&self, field: &str) -> Result<u32, TfheError> {
            let n = self.as_u64(field)?;
            u32::try_from(n)
                .map_err(|_| corrupt(format!("`{field}` does not fit in 32 bits (got {n})")))
        }

        pub(crate) fn as_usize(&self, field: &str) -> Result<usize, TfheError> {
            let n = self.as_u64(field)?;
            usize::try_from(n)
                .map_err(|_| corrupt(format!("`{field}` does not fit in usize (got {n})")))
        }

        pub(crate) fn as_f64(&self, field: &str) -> Result<f64, TfheError> {
            match self {
                Json::Num(raw) => raw
                    .parse::<f64>()
                    .map_err(|_| corrupt(format!("`{field}` must be a number (got {raw})"))),
                other => Err(corrupt(format!(
                    "`{field}` must be a number (got {})",
                    other.kind()
                ))),
            }
        }

        fn kind(&self) -> &'static str {
            match self {
                Json::Null => "null",
                Json::Bool(_) => "a bool",
                Json::Num(_) => "a number",
                Json::Str(_) => "a string",
                Json::Arr(_) => "an array",
                Json::Obj(_) => "an object",
            }
        }
    }

    /// Parse one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, TfheError> {
        let mut cur = Cursor {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = cur.value(0)?;
        cur.skip_ws();
        if cur.pos != cur.bytes.len() {
            return Err(corrupt(format!("trailing characters at byte {}", cur.pos)));
        }
        Ok(value)
    }

    struct Cursor<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Cursor<'_> {
        fn skip_ws(&mut self) {
            while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn eat(&mut self, byte: u8) -> Result<(), TfheError> {
            if self.peek() == Some(byte) {
                self.pos += 1;
                Ok(())
            } else {
                Err(corrupt(format!(
                    "expected `{}` at byte {}",
                    byte as char, self.pos
                )))
            }
        }

        fn eat_literal(&mut self, lit: &str, value: Json) -> Result<Json, TfheError> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(value)
            } else {
                Err(corrupt(format!("invalid literal at byte {}", self.pos)))
            }
        }

        fn value(&mut self, depth: u32) -> Result<Json, TfheError> {
            if depth > MAX_DEPTH {
                return Err(corrupt("nesting too deep".into()));
            }
            self.skip_ws();
            match self.peek() {
                Some(b'{') => self.object(depth),
                Some(b'[') => self.array(depth),
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b'n') => self.eat_literal("null", Json::Null),
                Some(b't') => self.eat_literal("true", Json::Bool(true)),
                Some(b'f') => self.eat_literal("false", Json::Bool(false)),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                Some(c) => Err(corrupt(format!(
                    "unexpected byte `{}` at {}",
                    c as char, self.pos
                ))),
                None => Err(corrupt("unexpected end of input".into())),
            }
        }

        fn object(&mut self, depth: u32) -> Result<Json, TfheError> {
            self.eat(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                if fields.iter().any(|(k, _)| *k == key) {
                    return Err(corrupt(format!("duplicate field `{key}`")));
                }
                self.skip_ws();
                self.eat(b':')?;
                let value = self.value(depth + 1)?;
                fields.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => {
                        return Err(corrupt(format!(
                            "expected `,` or `}}` at byte {}",
                            self.pos
                        )))
                    }
                }
            }
        }

        fn array(&mut self, depth: u32) -> Result<Json, TfheError> {
            self.eat(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(self.value(depth + 1)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(corrupt(format!("expected `,` or `]` at byte {}", self.pos))),
                }
            }
        }

        fn string(&mut self) -> Result<String, TfheError> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            Some(b'r') => out.push('\r'),
                            _ => {
                                return Err(corrupt(format!(
                                    "unsupported escape at byte {}",
                                    self.pos
                                )))
                            }
                        }
                        self.pos += 1;
                    }
                    Some(c) if c < 0x20 => {
                        return Err(corrupt(format!("unescaped control byte at {}", self.pos)))
                    }
                    Some(_) => {
                        // Copy the full UTF-8 scalar starting here.
                        let start = self.pos;
                        self.pos += 1;
                        while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                            self.pos += 1;
                        }
                        match std::str::from_utf8(&self.bytes[start..self.pos]) {
                            Ok(s) => out.push_str(s),
                            Err(_) => {
                                return Err(corrupt(format!("invalid UTF-8 at byte {start}")))
                            }
                        }
                    }
                    None => return Err(corrupt("unterminated string".into())),
                }
            }
        }

        fn number(&mut self) -> Result<Json, TfheError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            let mut saw_digit = false;
            while let Some(c) = self.peek() {
                match c {
                    b'0'..=b'9' => {
                        saw_digit = true;
                        self.pos += 1;
                    }
                    b'.' | b'e' | b'E' | b'+' | b'-' => self.pos += 1,
                    _ => break,
                }
            }
            if !saw_digit {
                return Err(corrupt(format!("invalid number at byte {start}")));
            }
            let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| corrupt(format!("invalid number at byte {start}")))?;
            // Insist the literal is a parseable number now, so `Num` holds
            // a syntactically valid literal and the typed accessors only
            // ever fail on *range*, not shape.
            if raw.parse::<f64>().is_err() {
                return Err(corrupt(format!("invalid number literal `{raw}`")));
            }
            Ok(Json::Num(raw.to_string()))
        }
    }
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
        for text in [
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
        ] {
            assert!(
                matches!(
                    ServingConfig::from_json(text),
                    Err(TfheError::ConfigCorrupted { .. })
                ),
                "input {text:?} must fail with ConfigCorrupted"
            );
        }
    }
}
