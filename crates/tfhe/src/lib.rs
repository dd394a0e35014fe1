//! A from-scratch functional implementation of the TFHE scheme over the
//! 32-bit discretized torus — the cryptographic substrate of the Morphling
//! reproduction.
//!
//! Everything the paper's Algorithm 1 needs is here:
//!
//! - ciphertext types: [`LweCiphertext`], [`GlweCiphertext`],
//!   [`GgswCiphertext`] (plus the transform-domain [`FourierGgsw`] that the
//!   accelerator stores in its Private-A2 buffer);
//! - key material: [`LweSecretKey`], [`GlweSecretKey`],
//!   [`BootstrapKey`] (n GGSW encryptions of the LWE key bits),
//!   [`KeySwitchKey`];
//! - the four bootstrapping stages: modulus switching, blind rotation
//!   (`n` external products / CMUXes), sample extraction, and key
//!   switching;
//! - [programmable bootstrapping](ServerKey::programmable_bootstrap) with
//!   arbitrary lookup tables ([`Lut`]), and a bootstrapped
//!   [boolean gate API](ServerKey::nand);
//! - [multi-value bootstrapping](ServerKey::try_programmable_bootstrap_many_with)
//!   — k LUTs of one input for a *single* blind rotation via the
//!   common-factor plan ([`MultiLutPlan`]) — and
//!   [tree bootstrapping](ServerKey::try_tree_bootstrap_many) chaining LUT
//!   stages to evaluate wider-input functions;
//! - one blind rotation, through the transform domain the hardware
//!   accelerates, held bit for bit to the correctness [`oracle`]: the
//!   same step written in integers through a two-prime NTT, several times
//!   slower, which names the step and GLWE component where the two part
//!   (on this 32-bit torus they never do);
//! - noise utilities ([`noise`]) that measure and predict ciphertext error;
//! - a persistent, self-healing [`BootstrapEngine`] (watchdog, bounded
//!   chunk re-dispatch, panic isolation with bounded respawn,
//!   degraded-mode serving) plus deterministic seeded fault injection ([`faults`]) for
//!   chaos testing it;
//! - one batch-bootstrap entry point for all of the above: the
//!   [`Bootstrapper`] trait over [`BatchRequest`], implemented by
//!   [`ServerKey`] (sequential), [`BootstrapEngine`] (pooled), and the
//!   deadline-aware dynamic-batching [`Dispatcher`] — the software
//!   analogue of the paper's SW scheduler that keeps the cores fed with
//!   large batches;
//! - service-level [`resilience`] in the dispatcher: [`RetryConfig`]
//!   (bounded backoff with seeded jitter) and [`BreakerConfig`] (a
//!   circuit breaker per backend tier), under which the dispatcher serves
//!   degraded from an ordered backend list — a batch that fails
//!   retryably runs at once on the next
//!   [fallback](DispatcherBuilder::fallback), a tier whose backend reports
//!   itself [failed](Bootstrapper::health) is benched, and half-open
//!   probes restore the primary;
//! - a unified, JSON-serializable [`ServingConfig`] — the one owner of
//!   every serving knob
//!   ([`Dispatcher::from_config`](dispatch::Dispatcher::from_config)
//!   consumes it) — and a simulator-in-the-loop [`autotune`]r that
//!   searches the config space for a target arrival rate and p99 SLO by
//!   running the dispatcher's own batching policy (one crate-private
//!   state machine, `policy.rs`) on virtual time.
//!
//! # Quickstart
//!
//! ```
//! use morphling_tfhe::{ClientKey, ParamSet, ServerKey};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let params = ParamSet::Test.params();
//! let client = ClientKey::generate(params.clone(), &mut rng);
//! let server = ServerKey::new(&client, &mut rng);
//!
//! let a = client.encrypt_bool(true, &mut rng);
//! let b = client.encrypt_bool(false, &mut rng);
//! let c = server.nand(&a, &b);
//! assert!(client.decrypt_bool(&c));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod autotune;
mod bootstrap;
mod bootstrap_key;
mod bootstrapper;
pub mod dispatch;
mod engine;
mod error;
mod external_product;
pub mod faults;
mod fft_cache;
mod ggsw;
mod glwe;
#[cfg(test)]
mod golden;
pub mod journal;
mod keys;
pub mod keystore;
mod ksk;
mod lut;
mod lwe;
mod multivalue;
pub mod noise;
pub mod ops;
pub mod oracle;
mod params;
mod policy;
pub mod radix;
pub mod resilience;
pub mod serialize;
mod server;
pub mod serving;
mod workspace;

pub use autotune::{
    AutotuneReport, AutotuneRequest, LoadSpec, PredictedProfile, SearchPoint, ServiceModel,
    SloTarget,
};
pub use bootstrap::{
    blind_rotate_assign, blind_rotate_assign_many, modulus_switch, sample_extract,
};
pub use bootstrap_key::BootstrapKey;
pub use bootstrapper::{BatchRequest, BatchRequestBuilder, Bootstrapper};
pub use dispatch::{
    DispatchSpan, Dispatcher, DispatcherBuilder, DispatcherStats, MultiTicket, Ticket,
};
pub use engine::{BootstrapEngine, BootstrapEngineBuilder, EngineHealth, EngineStats, OutputCheck};
pub use error::TfheError;
pub use external_product::ExternalProductEngine;
pub use faults::{FaultInjector, FaultPlan, FaultSite};
pub use ggsw::{FourierGgsw, GgswCiphertext};
pub use glwe::GlweCiphertext;
pub use journal::{Event, EventKind, Journal, Who};
pub use keys::{ClientKey, GlweSecretKey, LweSecretKey};
pub use keystore::{
    DirBackend, KeyBackend, KeyStore, KeyStoreBootstrapper, KeyStoreStats, MemoryBackend,
    PinnedKey, TenantId,
};
pub use ksk::KeySwitchKey;
pub use lut::Lut;
pub use lwe::LweCiphertext;
pub use multivalue::MultiLutPlan;
pub use params::{ParamSet, TfheParams, ALL_PAPER_SETS};
pub use resilience::{BreakerConfig, RetryConfig};
pub use serialize::{deserialize_server_key, serialize_server_key};
pub use server::{BootstrapOptions, ServerKey};
pub use serving::{ServingConfig, ServingConfigBuilder};
pub use workspace::BootstrapWorkspace;
