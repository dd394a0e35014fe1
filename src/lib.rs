//! # Morphling — a TFHE accelerator reproduction
//!
//! Umbrella crate for the full reproduction of *Morphling: A
//! Throughput-Maximized TFHE-based Accelerator using Transform-domain
//! Reuse* (HPCA 2024). It re-exports the five member crates:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`math`] | `morphling-math` | torus & negacyclic polynomial arithmetic, gadget decomposition |
//! | [`transform`] | `morphling-transform` | FFT, negacyclic transform, fused external-product passes, exact NTT multiplier |
//! | [`tfhe`] | `morphling-tfhe` | the full TFHE scheme: ciphertexts, keys, programmable bootstrapping, gates |
//! | [`core`] | `morphling-core` | the accelerator: reuse analysis, ISA, schedulers, cycle simulator, cost model |
//! | [`apps`] | `morphling-apps` | evaluation workloads (XG-Boost, DeepCNN, VGG-9) + functional encrypted inference |
//!
//! See the repository `README.md` for a tour, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! ## Quickstart
//!
//! ```
//! use morphling_repro::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let client = ClientKey::generate(ParamSet::Test.params(), &mut rng);
//! let server = ServerKey::new(&client, &mut rng);
//! let a = client.encrypt_bool(true, &mut rng);
//! let b = client.encrypt_bool(true, &mut rng);
//! assert!(!client.decrypt_bool(&server.nand(&a, &b)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use morphling_apps as apps;
pub use morphling_core as core;
pub use morphling_math as math;
pub use morphling_tfhe as tfhe;
pub use morphling_transform as transform;

/// The types nearly every consumer touches, importable in one line:
/// `use morphling_repro::prelude::*;`.
///
/// Client/server key material, the unified [`Bootstrapper`] batch API
/// with its [`BatchRequest`] and every backend — sequential
/// [`ServerKey`], the persistent [`BootstrapEngine`] with its
/// health/fault-plan surface, and the deadline-aware dynamic-batching
/// [`Dispatcher`] — plus the multi-value
/// bootstrapping surface ([`BootstrapOptions`], [`MultiLutPlan`]), the
/// service-resilience layer ([`RetryConfig`],
/// [`BreakerConfig`], the [`DispatcherBuilder`] that appends fallback
/// tiers), the one event [`Journal`] they all record into, the multi-tenant key layer ([`KeyStore`], [`KeyStoreBootstrapper`],
/// [`TenantId`] and the in-memory/directory backends), the unified
/// serving surface ([`ServingConfig`] with [`Dispatcher::from_config`],
/// and the simulator-in-the-loop autotuner's [`ServiceModel`] /
/// [`AutotuneRequest`] / [`SloTarget`]), LUTs and ciphertexts, the
/// paper's parameter sets, and the accelerator simulator. Deeper items
/// (schedulers, radix integers, app models, the wire-format functions in
/// `tfhe::serialize`) stay behind their module paths.
pub mod prelude {
    pub use morphling_core::{sim::Simulator, ArchConfig, ReuseMode};
    pub use morphling_tfhe::{
        AutotuneReport, AutotuneRequest, BatchRequest, BootstrapEngine, BootstrapEngineBuilder,
        BootstrapOptions, BootstrapWorkspace, Bootstrapper, BreakerConfig, ClientKey, DirBackend,
        Dispatcher, DispatcherBuilder, DispatcherStats, EngineHealth, EngineStats, FaultPlan,
        Journal, KeyBackend, KeyStore, KeyStoreBootstrapper, KeyStoreStats, LoadSpec, Lut,
        LweCiphertext, MemoryBackend, MultiLutPlan, ParamSet, RetryConfig, ServerKey, ServiceModel,
        ServingConfig, SloTarget, TenantId, TfheError, TfheParams, Ticket,
    };
}
