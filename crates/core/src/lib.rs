//! The Morphling accelerator model — the paper's primary contribution.
//!
//! Morphling (HPCA 2024) is a throughput-maximized TFHE accelerator built
//! around one observation: domain transforms (FFT/IFFT) are up to 88% of
//! all bootstrapping operations, and a 2D systolic array of vector
//! processing elements (VPEs) can *reuse* transform-domain data so that far
//! fewer transforms are needed. This crate contains everything above the
//! cryptographic substrate:
//!
//! - [`ArchConfig`]: the architecture description (XPUs, VPE array
//!   geometry, FFT/IFFT units, buffer sizes, HBM) with the paper's default
//!   configuration ([`ArchConfig::morphling_default`]).
//! - [`ReuseMode`]: No-Reuse (MATCHA-like), Input-Reuse (Strix-like), and
//!   Input+Output-Reuse (Morphling) — §III, Fig 2.
//! - [`opcount`]: the analytical operation/memory model behind Fig 1 and
//!   Fig 3.
//! - [`isa`]: the custom XPU/VPU/DMA instructions of §V-E.
//! - [`sched`]: the SW-scheduler (batching/tiling of 64-ciphertext groups,
//!   Fig 6) and the HW-scheduler (dependency-driven dispatch).
//! - [`sim`]: the cycle-accurate simulator — XPU pipeline occupancy,
//!   VPU, buffers with the double-pointer rotator, HBM bandwidth
//!   contention — producing the latency/throughput numbers of Tables V–VI
//!   and Figs 7–8.
//! - [`trace`]: execution tracing — a cycle-stamped event journal with
//!   per-unit busy/stall counters and Chrome-trace JSON export, fed by
//!   the scheduler, the simulator, and the software bootstrap engine.
//! - [`hwmodel`]: the 28 nm area/power model (Table IV).
//! - [`reference`](mod@reference): published baseline numbers
//!   (CPU/GPU/FPGA/ASIC rows of Table V) with provenance.
//!
//! # Example: reproduce the headline throughput
//!
//! ```
//! use morphling_core::{ArchConfig, sim::Simulator};
//! use morphling_tfhe::ParamSet;
//!
//! let sim = Simulator::new(ArchConfig::morphling_default());
//! let report = sim.bootstrap_batch(&ParamSet::I.params(), 16);
//! // Paper, Table V: 0.11 ms latency, 147,615 bootstrappings/second.
//! assert!((report.latency_ms() - 0.11).abs() < 0.01);
//! assert!(report.throughput_bs_per_s() > 140_000.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod config;
pub mod hwmodel;
pub mod isa;
pub mod opcount;
pub mod reference;
mod reuse;
pub mod sched;
pub mod sim;
pub mod trace;

pub use config::{ArchConfig, Dataflow, HbmConfig, NocConfig};
pub use reuse::ReuseMode;
