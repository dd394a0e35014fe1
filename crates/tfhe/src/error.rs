//! Error types for the fallible (`try_*`) API surface.
//!
//! Every panic in the infallible API corresponds to a variant here; the
//! panicking methods are thin `expect`-style wrappers over the `try_*`
//! methods so the two surfaces can never drift apart.
//!
//! The enum is `#[non_exhaustive]`: downstream `match`es must carry a
//! wildcard arm, which is what lets the resilience layer (and future PRs)
//! add fault taxonomy variants without breaking callers. Every variant is
//! classified by [`TfheError::is_retryable`] into *transient
//! infrastructure faults* (worth retrying / failing over) versus
//! *permanent request errors* (the request itself is wrong; retrying
//! anywhere yields the same answer).

use std::time::Duration;

/// Everything that can go wrong when driving the TFHE evaluation API with
/// mismatched key material, malformed LUTs, or a misconfigured engine.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TfheError {
    /// A ciphertext's LWE dimension does not match what the operation
    /// expects (e.g. feeding a `k·N`-dimension extracted sample to a
    /// bootstrap that wants the small `n`-dimension input).
    LweDimensionMismatch {
        /// The dimension the operation expects.
        expected: usize,
        /// The dimension the ciphertext actually has.
        got: usize,
    },
    /// A key-switch input's dimension does not match the KSK's input
    /// dimension.
    KeySwitchDimensionMismatch {
        /// The KSK's input dimension (`k·N` for a post-extraction switch).
        expected: usize,
        /// The dimension of the ciphertext being switched.
        got: usize,
    },
    /// A LUT was built (or used) with a plaintext modulus that disagrees
    /// with the parameter set's modulus.
    LutModulusMismatch {
        /// The LUT's plaintext modulus.
        lut: u64,
        /// The parameter set's plaintext modulus.
        params: u64,
    },
    /// A LUT plaintext modulus that is not a power of two.
    PlaintextModulusNotPowerOfTwo {
        /// The offending modulus.
        modulus: u64,
    },
    /// A LUT plaintext modulus too large for the polynomial size (needs
    /// `p ≤ N/2` with the padding-bit encoding).
    PlaintextModulusTooLarge {
        /// The offending modulus.
        modulus: u64,
        /// The polynomial size it must fit into.
        poly_size: usize,
    },
    /// A LUT whose test polynomial length disagrees with the parameter
    /// set's polynomial size (it was built for different parameters).
    LutSizeMismatch {
        /// The LUT's polynomial length.
        lut: usize,
        /// The parameter set's polynomial size `N`.
        poly_size: usize,
    },
    /// A parallel batch API was asked to run on zero threads.
    ZeroThreads,
    /// A multi-LUT batch submission referenced a LUT index out of range.
    LutIndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of LUTs supplied with the batch.
        luts: usize,
    },
    /// A multi-LUT batch submission's selector slice length disagrees
    /// with the number of ciphertexts (`lut_of` must name one LUT per
    /// ciphertext).
    LutSelectorLengthMismatch {
        /// The batch size (`cts.len()`).
        expected: usize,
        /// The selector slice length (`lut_of.len()`).
        got: usize,
    },
    /// A fanout batch submission listed no LUTs at all for one of its
    /// inputs — every input of a multi-LUT request must produce at least
    /// one output.
    EmptyFanout {
        /// Index of the input whose LUT list is empty.
        input: usize,
    },
    /// A fanout batch submission's outer list length disagrees with the
    /// number of ciphertexts (`fanout` must name one LUT list per
    /// ciphertext).
    FanoutLengthMismatch {
        /// The batch size (`cts.len()`).
        expected: usize,
        /// The fanout list length (`fanout.len()`).
        got: usize,
    },
    /// A batch request supplied both per-item selectors (`lut_of`) and a
    /// fanout map — the two addressing schemes are mutually exclusive.
    FanoutSelectorConflict,
    /// The bootstrap engine's worker pool has shut down (a worker
    /// panicked or the engine is mid-drop); the submitted batch was not
    /// processed.
    EngineShutDown,
    /// A worker panicked while executing a job. The engine retries these
    /// automatically; callers see the variant only once the retry budget
    /// is exhausted (or from the per-call parallel batch path, which has
    /// no retry loop).
    WorkerPanicked {
        /// Index of the worker thread that panicked.
        worker: usize,
    },
    /// A job exceeded the engine's watchdog timeout on every allowed
    /// attempt — the chunk is presumed wedged beyond recovery.
    JobTimedOut {
        /// Batch-relative index of the first ciphertext in the chunk.
        chunk_start: usize,
        /// Attempts made (initial dispatch plus retries).
        attempts: u32,
    },
    /// A bootstrap output failed the engine's output sanity check on
    /// every allowed attempt.
    OutputCheckFailed {
        /// Batch-relative index of the offending ciphertext.
        index: usize,
    },
    /// A [`BatchRequest`](crate::BatchRequest) was built with ciphertexts
    /// but no LUT at all — there is nothing to bootstrap through.
    NoLutProvided,
    /// The dispatcher's bounded admission queue is full; the request was
    /// rejected without being enqueued (backpressure). Retry later or use
    /// the blocking `submit` path.
    QueueFull {
        /// The queue's capacity at the time of rejection.
        capacity: usize,
    },
    /// Admission was refused by an open circuit breaker: the backend's
    /// recent failure rate (or polled health) says queued work would die.
    /// Fail-fast backpressure — retry after the hinted cooldown.
    Overloaded {
        /// How long until the breaker will consider a half-open probe.
        retry_after: Duration,
    },
    /// A bounded [`Ticket::wait_timeout`](crate::Ticket::wait_timeout)
    /// elapsed before the request resolved. The request is still in
    /// flight; the caller keeps the ticket and may wait again.
    WaitTimedOut {
        /// The timeout that elapsed.
        timeout: Duration,
    },
    /// The request was cancelled via its ticket before execution started.
    Cancelled,
    /// The request's deadline passed while it was still queued; the
    /// dispatcher dropped it instead of starting late work.
    DeadlineExceeded,
    /// The dispatcher has shut down (or its batcher thread died); the
    /// request was not, and will not be, processed.
    DispatcherShutDown,
    /// A serialized key blob failed framing or checksum validation during
    /// deserialization — the bytes are corrupt (or were produced by an
    /// incompatible writer) and no key can be recovered from them.
    KeyCorrupted {
        /// Human-readable description of the first validation failure.
        detail: String,
    },
    /// A [`KeyStore`](crate::KeyStore) backend has no key material for the
    /// requested tenant.
    KeyNotFound {
        /// The tenant whose key is missing.
        tenant: u64,
    },
    /// A key does not fit the [`KeyStore`](crate::KeyStore)'s byte budget
    /// even after evicting every unpinned resident — serving this tenant
    /// would thrash (or livelock waiting on pins), so the load fails loudly
    /// instead.
    KeyBudgetExceeded {
        /// The store's configured byte budget.
        budget: u64,
        /// Bytes the requested key needs.
        need: u64,
    },
    /// A tenant-keyed backend received a request with no tenant attached
    /// and has no default key to fall back on.
    NoTenantProvided,
    /// A [`ServingConfig`](crate::ServingConfig) knob holds a degenerate
    /// value (`workers == 0`, `max_batch_size == 0`, a zero queue depth,
    /// an out-of-range fraction, …). Rejected loudly at
    /// [`validate`](crate::ServingConfig::validate) /
    /// [`Dispatcher::from_config`](crate::Dispatcher::from_config) time
    /// instead of panicking (or silently clamping) deep in the
    /// dispatcher.
    InvalidServingConfig {
        /// The offending field, dotted-path style (`"retry.jitter"`).
        field: &'static str,
        /// What is wrong with its value.
        detail: String,
    },
    /// A serialized [`ServingConfig`](crate::ServingConfig) failed JSON
    /// framing or schema validation during
    /// [`from_json`](crate::ServingConfig::from_json) — the text is
    /// malformed (or was produced by an incompatible writer) and no
    /// config can be recovered from it.
    ConfigCorrupted {
        /// Human-readable description of the first validation failure.
        detail: String,
    },
}

impl TfheError {
    /// `true` for transient infrastructure faults where a retry (same
    /// backend, after backoff) or a failover (the next backend tier) can
    /// plausibly succeed; `false` for permanent errors where the request
    /// itself is at fault and every backend would answer the same way.
    ///
    /// The retryable set is the fault taxonomy the resilience layer acts
    /// on: worker panics, wedged/timed-out jobs, corrupted outputs, dead
    /// or shut-down engines, and load-shedding rejections
    /// ([`QueueFull`](Self::QueueFull), [`Overloaded`](Self::Overloaded),
    /// [`WaitTimedOut`](Self::WaitTimedOut)). Terminal per-request
    /// outcomes ([`Cancelled`](Self::Cancelled),
    /// [`DeadlineExceeded`](Self::DeadlineExceeded)) are deliberate
    /// decisions, not faults, and are never retried.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            Self::WorkerPanicked { .. }
                | Self::JobTimedOut { .. }
                | Self::OutputCheckFailed { .. }
                | Self::EngineShutDown
                | Self::QueueFull { .. }
                | Self::Overloaded { .. }
                | Self::WaitTimedOut { .. }
        )
    }
}

impl std::fmt::Display for TfheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::LweDimensionMismatch { expected, got } => {
                write!(
                    f,
                    "ciphertext dimension mismatch: expected {expected}, got {got}"
                )
            }
            Self::KeySwitchDimensionMismatch { expected, got } => {
                write!(
                    f,
                    "key-switch input dimension mismatch: expected {expected}, got {got}"
                )
            }
            Self::LutModulusMismatch { lut, params } => {
                write!(
                    f,
                    "LUT plaintext modulus {lut} disagrees with parameter set modulus {params}"
                )
            }
            Self::PlaintextModulusNotPowerOfTwo { modulus } => {
                write!(
                    f,
                    "plaintext modulus must be a power of two (got {modulus})"
                )
            }
            Self::PlaintextModulusTooLarge { modulus, poly_size } => {
                write!(
                    f,
                    "plaintext modulus {modulus} too large for polynomial size {poly_size}"
                )
            }
            Self::LutSizeMismatch { lut, poly_size } => {
                write!(f, "LUT polynomial length {lut} disagrees with parameter polynomial size {poly_size}")
            }
            Self::ZeroThreads => write!(f, "at least one thread is required"),
            Self::LutIndexOutOfRange { index, luts } => {
                write!(f, "LUT index {index} out of range for {luts} supplied LUTs")
            }
            Self::LutSelectorLengthMismatch { expected, got } => {
                write!(
                    f,
                    "LUT selector length mismatch: {expected} ciphertexts but {got} selectors"
                )
            }
            Self::EmptyFanout { input } => {
                write!(f, "fanout batch lists no LUTs for input {input}")
            }
            Self::FanoutLengthMismatch { expected, got } => {
                write!(
                    f,
                    "fanout length mismatch: {expected} ciphertexts but {got} fanout entries"
                )
            }
            Self::FanoutSelectorConflict => {
                write!(
                    f,
                    "batch request cannot mix per-item LUT selectors with a fanout map"
                )
            }
            Self::EngineShutDown => {
                write!(f, "bootstrap engine worker pool has shut down")
            }
            Self::WorkerPanicked { worker } => {
                write!(
                    f,
                    "bootstrap worker {worker} panicked while executing a job"
                )
            }
            Self::JobTimedOut {
                chunk_start,
                attempts,
            } => {
                write!(
                    f,
                    "job for chunk starting at {chunk_start} timed out after {attempts} attempts"
                )
            }
            Self::OutputCheckFailed { index } => {
                write!(f, "bootstrap output {index} failed the output sanity check")
            }
            Self::NoLutProvided => {
                write!(f, "batch request has ciphertexts but no LUT")
            }
            Self::QueueFull { capacity } => {
                write!(f, "dispatcher queue full (capacity {capacity})")
            }
            Self::Overloaded { retry_after } => {
                write!(
                    f,
                    "service overloaded (circuit breaker open); retry after {retry_after:?}"
                )
            }
            Self::WaitTimedOut { timeout } => {
                write!(
                    f,
                    "wait timed out after {timeout:?}; request still in flight"
                )
            }
            Self::Cancelled => write!(f, "request cancelled before execution"),
            Self::DeadlineExceeded => {
                write!(f, "request deadline passed while still queued")
            }
            Self::DispatcherShutDown => {
                write!(f, "dispatcher has shut down; request not processed")
            }
            Self::KeyCorrupted { detail } => {
                write!(f, "serialized key is corrupted: {detail}")
            }
            Self::KeyNotFound { tenant } => {
                write!(f, "no key material stored for tenant {tenant}")
            }
            Self::KeyBudgetExceeded { budget, need } => {
                write!(
                    f,
                    "key needs {need} bytes but the store budget is {budget} bytes \
                     (after evicting every unpinned key)"
                )
            }
            Self::NoTenantProvided => {
                write!(
                    f,
                    "request names no tenant and no default key is configured"
                )
            }
            Self::InvalidServingConfig { field, detail } => {
                write!(f, "invalid serving config: `{field}` {detail}")
            }
            Self::ConfigCorrupted { detail } => {
                write!(f, "serialized serving config is corrupted: {detail}")
            }
        }
    }
}

impl std::error::Error for TfheError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_keep_legacy_panic_substrings() {
        // The infallible wrappers panic with these Display strings; tests
        // elsewhere match on the quoted substrings, so they are load-bearing.
        let cases: [(TfheError, &str); 5] = [
            (
                TfheError::LweDimensionMismatch {
                    expected: 16,
                    got: 8,
                },
                "ciphertext dimension mismatch",
            ),
            (
                TfheError::KeySwitchDimensionMismatch {
                    expected: 256,
                    got: 32,
                },
                "key-switch input dimension mismatch",
            ),
            (
                TfheError::PlaintextModulusNotPowerOfTwo { modulus: 3 },
                "must be a power of two",
            ),
            (
                TfheError::PlaintextModulusTooLarge {
                    modulus: 64,
                    poly_size: 64,
                },
                "too large",
            ),
            (TfheError::ZeroThreads, "at least one thread is required"),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn implements_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&TfheError::EngineShutDown);
        takes_err(&TfheError::Overloaded {
            retry_after: Duration::from_millis(10),
        });
    }

    #[test]
    fn retry_taxonomy_separates_faults_from_request_errors() {
        // Transient infrastructure faults: retry/failover can help.
        for e in [
            TfheError::WorkerPanicked { worker: 0 },
            TfheError::JobTimedOut {
                chunk_start: 0,
                attempts: 3,
            },
            TfheError::OutputCheckFailed { index: 2 },
            TfheError::EngineShutDown,
            TfheError::QueueFull { capacity: 8 },
            TfheError::Overloaded {
                retry_after: Duration::from_millis(5),
            },
            TfheError::WaitTimedOut {
                timeout: Duration::from_millis(5),
            },
        ] {
            assert!(e.is_retryable(), "{e} must be retryable");
        }
        // Permanent: the request (or the caller's decision) is at fault.
        for e in [
            TfheError::LweDimensionMismatch {
                expected: 16,
                got: 8,
            },
            TfheError::NoLutProvided,
            TfheError::ZeroThreads,
            TfheError::Cancelled,
            TfheError::DeadlineExceeded,
            TfheError::DispatcherShutDown,
            // Keystore failures: the same bytes / budget / request would
            // fail identically on a retry.
            TfheError::KeyCorrupted {
                detail: "bad checksum".into(),
            },
            TfheError::KeyNotFound { tenant: 7 },
            TfheError::KeyBudgetExceeded {
                budget: 1024,
                need: 4096,
            },
            TfheError::NoTenantProvided,
            // Config failures: the same config text / knob values would
            // fail identically on a retry.
            TfheError::InvalidServingConfig {
                field: "workers",
                detail: "must be at least 1 (got 0)".into(),
            },
            TfheError::ConfigCorrupted {
                detail: "expected `{`".into(),
            },
        ] {
            assert!(!e.is_retryable(), "{e} must not be retryable");
        }
    }

    #[test]
    fn resilience_variants_have_informative_display() {
        let overloaded = TfheError::Overloaded {
            retry_after: Duration::from_millis(25),
        };
        assert!(overloaded.to_string().contains("circuit breaker open"));
        let timed_out = TfheError::WaitTimedOut {
            timeout: Duration::from_secs(1),
        };
        assert!(timed_out.to_string().contains("still in flight"));
    }

    #[test]
    fn config_variants_name_the_offending_field() {
        let invalid = TfheError::InvalidServingConfig {
            field: "max_batch_size",
            detail: "must be at least 1 (got 0)".into(),
        };
        assert!(invalid.to_string().contains("`max_batch_size`"));
        let corrupt = TfheError::ConfigCorrupted {
            detail: "unexpected end of input".into(),
        };
        assert!(corrupt.to_string().contains("unexpected end of input"));
    }
}
