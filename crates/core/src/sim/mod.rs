//! The cycle-accurate Morphling simulator.
//!
//! The simulator models the steady-state pipeline of §IV–V at iteration
//! granularity with explicit per-resource occupancy:
//!
//! - **XPU** ([`xpu`]): per blind-rotation iteration, the decomposition
//!   units, forward-FFT units (with or without merge-split), the VPE array,
//!   and the IFFT units each have an occupancy in cycles; the iteration
//!   period is their maximum (the pipeline is fully overlapped, as the
//!   streaming architecture intends).
//! - **Buffers** ([`buffers`]): Private-A1 capacity determines how many
//!   consecutive ACC streams can share one BSK fetch (§IV-C's third reuse
//!   level); the double-pointer rotator is modeled functionally.
//! - **HBM** ([`hbm`]): BSK traffic is multicast per 4-XPU cluster and
//!   amortized over the batched streams; demand beyond the XPU-priority
//!   channels stalls the pipeline.
//! - **VPU** ([`vpu`]): modulus switch, sample extraction and key switch
//!   cycles; the VPU runs decoupled through the Shared buffer, so it
//!   bounds throughput only if its utilization exceeds 1.
//!
//! [`Simulator::bootstrap_batch`] combines these into the latency /
//! throughput / breakdown report used by every evaluation experiment.

pub mod buffers;
pub mod cosim;
mod engine;
pub mod hbm;
pub mod vpu;
pub mod xpu;

pub use buffers::RotatorBuffer;
pub use cosim::{CosimResult, XpuCosim};
pub use engine::{Bottleneck, SimReport, Simulator};
pub use xpu::IterProfile;
