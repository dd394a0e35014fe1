//! On-chip buffer models (§V-C): capacity-derived stream batching and the
//! Private-A1 double-pointer rotator.

use morphling_math::{Polynomial, Torus32};
use morphling_tfhe::TfheParams;

use crate::config::ArchConfig;

/// How many consecutive ACC streams fit in Private-A1, bounded by
/// [`ArchConfig::max_stream_batch`]. Each stream needs, per in-flight
/// ciphertext, the ACC itself plus its ping-pong copy, the staging area for
/// the next group, and its LWE masks — modeled as `4 × acc_bytes` (the
/// factor that places the paper's Fig 8-a knee at 4096 KiB for set A).
pub(crate) fn stream_batch_depth(config: &ArchConfig, params: &TfheParams) -> usize {
    // Non-output-stationary dataflows spill transform-domain partial sums
    // to Private-A1, doubling the per-ACC footprint (§IV-B).
    let per_ct = params.acc_bytes() * 4 * config.dataflow.acc_bytes_factor();
    let per_stream = config.bootstrap_cores() as u64 * per_ct;
    let fit = (config.private_a1_kb as u64 * 1024) / per_stream.max(1);
    (fit as usize).clamp(1, config.max_stream_batch)
}

/// Functional model of the Private-A1 **double-pointer rotator** (§V-C).
///
/// The buffer stores ACC polynomials banked `lanes` coefficients wide.
/// A rotation `X^ã · p` is served by a second read pointer plus the
/// reorder unit (for unaligned `ã`) and conditional negation (for the
/// negacyclic wrap) — no data is ever moved. `read_rotated` reproduces the
/// address generation the LWE-mask unit performs and is validated against
/// the algebraic rotation.
#[derive(Clone, Debug)]
pub struct RotatorBuffer {
    /// Coefficients, stored bank-major exactly as written.
    data: Vec<Torus32>,
    lanes: usize,
}

impl RotatorBuffer {
    /// Store a polynomial into the banked buffer.
    pub fn store(poly: &Polynomial<Torus32>, lanes: usize) -> Self {
        assert!(
            lanes >= 1 && poly.len().is_multiple_of(lanes),
            "lanes must divide the polynomial size"
        );
        Self {
            data: poly.coeffs().to_vec(),
            lanes,
        }
    }

    /// Polynomial size `N`.
    pub fn poly_len(&self) -> usize {
        self.data.len()
    }

    /// Read through the first pointer: the original polynomial (ptrA).
    pub fn read(&self) -> Polynomial<Torus32> {
        Polynomial::from_coeffs(self.data.clone())
    }

    /// Read through the second pointer: `X^power · p` (ptrB). The address
    /// unit walks the banks starting at `-power`, and the reorder unit
    /// aligns unaligned vector accesses; coefficients crossing the `X^N`
    /// boundary are negated on the fly.
    pub(crate) fn read_rotated(&self, power: i64) -> Polynomial<Torus32> {
        let n = self.data.len() as i64;
        let two_n = 2 * n;
        let a = power.rem_euclid(two_n);
        let mut out = Vec::with_capacity(self.data.len());
        // Hardware streams output vectors of `lanes` coefficients; the
        // source index for output j is (j - a) mod 2N with negacyclic sign.
        for group in 0..(self.data.len() / self.lanes) {
            for lane in 0..self.lanes {
                let j = (group * self.lanes + lane) as i64;
                let src = (j - a).rem_euclid(two_n);
                let (idx, negate) = if src < n {
                    (src as usize, false)
                } else {
                    ((src - n) as usize, true)
                };
                let v = self.data[idx];
                out.push(if negate { -v } else { v });
            }
        }
        Polynomial::from_coeffs(out)
    }

    /// Fused `X^power · p − p` — the external product operand, produced by
    /// streaming both pointers into the subtractor in front of the
    /// decomposition unit.
    pub fn read_rotated_minus_orig(&self, power: i64) -> Polynomial<Torus32> {
        let rotated = self.read_rotated(power);
        &rotated - &self.read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphling_tfhe::ParamSet;

    fn poly(n: usize) -> Polynomial<Torus32> {
        Polynomial::from_fn(n, |j| {
            Torus32::from_raw((j as u32).wrapping_mul(0x9E37_79B9))
        })
    }

    #[test]
    fn rotated_read_matches_algebraic_rotation() {
        let p = poly(64);
        let buf = RotatorBuffer::store(&p, 8);
        for a in [0i64, 1, 7, 8, 63, 64, 65, 100, 127, 128] {
            assert_eq!(buf.read_rotated(a), p.monomial_mul(a), "a={a}");
        }
    }

    #[test]
    fn fused_rotate_subtract_matches() {
        let p = poly(32);
        let buf = RotatorBuffer::store(&p, 8);
        for a in [1i64, 13, 40, 63] {
            assert_eq!(
                buf.read_rotated_minus_orig(a),
                p.monomial_mul_minus_one(a),
                "a={a}"
            );
        }
    }

    #[test]
    fn unaligned_rotations_are_supported() {
        // ã is arbitrary in [0, 2N); the reorder unit handles non-multiples
        // of the vector width.
        let p = poly(64);
        let buf = RotatorBuffer::store(&p, 8);
        for a in 0..128i64 {
            assert_eq!(buf.read_rotated(a), p.monomial_mul(a), "a={a}");
        }
    }

    #[test]
    fn default_config_batches_four_streams() {
        let cfg = ArchConfig::morphling_default();
        assert_eq!(stream_batch_depth(&cfg, &ParamSet::I.params()), 4);
        assert_eq!(stream_batch_depth(&cfg, &ParamSet::III.params()), 4);
        // Set A's 32 KiB ACCs: exactly 2 streams at 4096 KiB.
        assert_eq!(stream_batch_depth(&cfg, &ParamSet::A.params()), 2);
    }

    #[test]
    fn small_a1_reduces_batching() {
        let cfg = ArchConfig::morphling_default().with_private_a1_kb(1024);
        assert_eq!(stream_batch_depth(&cfg, &ParamSet::A.params()), 1);
    }

    #[test]
    fn a2_window_holds_two_bsk_iterations() {
        // Private-A2 double-buffers one `BSK_i` (the prefetch window of §V-C).
        let window = 2 * ParamSet::I.params().bsk_iter_bytes_fourier();
        assert_eq!(window, 2 * 32 * 1024);
        // The paper's 4 MiB Private-A2 easily covers the window.
        let cfg = ArchConfig::morphling_default();
        assert!(window <= cfg.private_a2_kb as u64 * 1024);
    }
}
