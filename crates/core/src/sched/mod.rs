//! SW-HW co-optimized scheduling (§V-E, Fig 6).
//!
//! The [software scheduler](software::SwScheduler) batches an application's
//! bootstrap demands into 64-ciphertext groups and emits a dependency-
//! annotated [`crate::isa::Program`]; the
//! [hardware scheduler](hardware::HwScheduler) dispatches that program onto
//! the simulated units, overlapping independent groups.

pub mod hardware;
pub mod software;

pub use hardware::{HwScheduler, Scheduled, Timeline, DMA_ENGINES};
pub use software::{SwScheduler, Workload};
