//! Domain transforms for the Morphling reproduction.
//!
//! The paper identifies domain transforms (FFT/IFFT) as up to 88% of all
//! bootstrapping operations and builds its whole architecture around
//! reducing them. This crate implements the functional transforms:
//!
//! - [`NegacyclicFft`]: the negacyclic ("twisted") transform of Klemsa
//!   that evaluates a real polynomial of size `N` at the odd `2N`-th roots
//!   of unity using a single `N/2`-point complex FFT, and the two fused
//!   passes the external product
//!   runs, [`forward_digit_into`](NegacyclicFft::forward_digit_into)
//!   (decompose → transform) and
//!   [`inverse_mac_add_into`](NegacyclicFft::inverse_mac_add_into)
//!   (multiply-accumulate → inverse → round → add), bit-identical to the
//!   stage-by-stage composition.
//! - [`Spectrum`]: transform-domain data (what Morphling keeps in
//!   POLY-ACC-REG and the Private-A2 buffer), with the pointwise
//!   multiply-accumulate the VPEs perform — stored in the order the
//!   forward butterflies leave the points in.
//! - [`FftPlan`]: the twiddle tables of one transform size, plus the
//!   scalar reference — the same two networks, one stage and one point at
//!   a time — every kernel result is tested against.
//! - [`NegacyclicNtt`]: the exact multiplier — a two-prime CRT NTT, no
//!   floating point — behind `morphling-tfhe`'s exact backend, the oracle
//!   the FFT is held to through whole bootstraps; itself held to the
//!   schoolbook product per multiplication.
//!
//! The paper's merge-split FFT (two real polynomials per `N`-point pass,
//! §V-A.3) is a hardware trick and is modelled there, by `morphling-core`'s
//! `ArchConfig::merge_split`; in software it lost to folding.
//!
//! # One kernel
//!
//! Every transform above is a single kernel (`fft.rs`): one polynomial held
//! planar (a plane of real parts, a plane of imaginary parts), vectorized
//! **along the coefficient axis** — the software image of a VPE row's
//! lanes — and it **never reorders**, as the hardware's streaming FFT
//! units never do. The forward is the merged Cooley–Tukey network over
//! `Y^(N/2) = −i` (the negacyclic twist is in its twiddles, one per
//! block): natural-order coefficients in, spectrum points out in the
//! order its butterflies leave them. The inverse is the decimation-in-time
//! network, which takes exactly that order, with the untwist, scaling and
//! round-to-torus in its last pass; only pointwise work happens in
//! between ([`Spectrum::point`] finds a point for whoever asks). Passes
//! fuse two stages across runs of vectors and up to six on a band of
//! eight vectors held in registers and transposed once. The kernel is
//! written once, generically over a vector type and its lane count
//! (`simd.rs`), and instantiated for portable `[f64; 4]` arithmetic, for
//! AVX2 (four lanes) and for AVX-512 (eight, `std::arch` both); which one
//! runs is decided once, from CPU detection, when a plan is built —
//! [`NegacyclicFft::isa`] names it, nothing sets it. Every plane a vector
//! is loaded from starts on a 64-byte boundary, so that a load as wide as
//! a cache line touches one line and any two planes are whole lines apart.
//!
//! **Bits do not depend on that choice.** Per element, every
//! instantiation performs exactly the f64 operation sequence of the scalar
//! reference — IEEE `mul` and fused multiply-add, each rounded once, a
//! product fused with a sum exactly where the reference (written on
//! `f64::mul_add`) fuses it, and a rounding step that reproduces
//! `f64::round` (half away from zero) where the hardware instruction
//! would round half to even — so kernel output equals
//! [`FftPlan::forward`]/[`FftPlan::inverse`] between a fold and an unfold,
//! bit for bit and in the same stored order, on every input and every ISA
//! (`tests/properties.rs` and the in-crate identity tests). [`PolyBatch`]/[`SpectrumBatch`] and the
//! `*_batch_into` entry points run that same kernel once per lane.
//!
//! `unsafe` is denied crate-wide and allowed in exactly two modules,
//! `simd::avx2` and `simd::avx512`, whose intrinsics are reachable only
//! through a token that CPU detection hands out.
//!
//! # Example: accumulate in the transform domain, invert once
//!
//! ```
//! use morphling_math::{Polynomial, Torus32};
//! use morphling_transform::{NegacyclicFft, Spectrum};
//!
//! let fft = NegacyclicFft::new(64);
//! let mut acc = Spectrum::zero(64);
//! let mut exact = Polynomial::<Torus32>::zero(64);
//! for l in 0..4 {
//!     let digits = Polynomial::from_fn(64, |j| ((j + l) as i64 % 7) - 3);
//!     let t = Polynomial::from_fn(64, |j| Torus32::from_raw(((j * (l + 1)) as u32) << 20));
//!     acc.mul_acc(&fft.forward_int(&digits), &fft.forward_torus(&t));
//!     exact += &morphling_math::negacyclic::mul_int_torus32(&digits, &t);
//! }
//! assert_eq!(fft.inverse_torus(&acc), exact);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod batch;
mod fft;
mod negacyclic;
pub mod ntt;
mod simd;
mod spectrum;

pub use batch::{BatchScratch, PolyBatch, SpectrumBatch};
pub use fft::FftPlan;
pub use negacyclic::NegacyclicFft;
pub use ntt::NegacyclicNtt;
pub use simd::sub_scaled_rows;
pub use spectrum::Spectrum;

// The TFHE crate shares one transform engine per polynomial size across
// its whole bootstrap worker pool (process-global `Arc` cache), so these
// types being `Send + Sync` is a public contract, enforced at compile
// time here: a field change that introduces interior mutability or
// thread-affine state must fail loudly, not poison the pool.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FftPlan>();
    assert_send_sync::<NegacyclicFft>();
    assert_send_sync::<NegacyclicNtt>();
    assert_send_sync::<PolyBatch<i64>>();
    assert_send_sync::<SpectrumBatch>();
    assert_send_sync::<BatchScratch>();
};

// The naive-DFT oracle of the tests, last: CI counts a file up to its
// first `#[cfg(test)]`.
#[cfg(test)]
mod dft;
