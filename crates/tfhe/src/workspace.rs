//! Reusable scratch buffers for the blind-rotation hot path.
//!
//! The external product is 97% of all bootstrapping work (§I), and the
//! paper's answer is to stream it: the decomposed digits flow through the
//! Coef buffer into the FFT, the per-component accumulators live in
//! POLY-ACC-REG, and the rotating accumulator ciphertext sits in
//! Private-A1. A [`BootstrapWorkspace`] is what the software pipeline
//! still has to park in memory — one allocation at construction, then
//! every CMUX iteration of every bootstrap reuses it. See `DESIGN.md`
//! §6.3 for the buffer-by-buffer mapping.

use morphling_transform::Spectrum;

use crate::glwe::GlweCiphertext;
use crate::params::TfheParams;

/// Caller-owned staging buffers threaded through
/// [`rotate_cmux_into`](crate::ExternalProductEngine::rotate_cmux_into)
/// and [`blind_rotate_assign`](crate::bootstrap::blind_rotate_assign).
///
/// One workspace serves one thread; the
/// [`BootstrapEngine`](crate::BootstrapEngine) gives each worker a
/// long-lived workspace reused across jobs and batches. After the first use no method that
/// takes a workspace heap-allocates (asserted by the
/// `alloc_regression` integration test).
#[derive(Clone, Debug)]
pub struct BootstrapWorkspace {
    /// The forward transforms of the `(k+1)·l_b` digit polynomials of one
    /// decomposed ciphertext (the stream fed across the VPE rows).
    pub(crate) digit_spectra: Vec<Spectrum>,
    /// Staging for `X^ã·ACC − ACC` (the Λ operand of Algorithm 1 line 4).
    pub(crate) lambda: GlweCiphertext,
    /// The inverse transform's work planes (the software Coef buffer):
    /// two of `N/2` points.
    pub(crate) scratch: Vec<f64>,
    glwe_dim: usize,
    poly_size: usize,
    level: usize,
}

impl BootstrapWorkspace {
    /// Size a workspace for `params` (GLWE dimension, polynomial size,
    /// and BSK gadget level).
    pub fn new(params: &TfheParams) -> Self {
        Self::with_shape(params.glwe_dim, params.poly_size, params.bsk_decomp.level())
    }

    /// Size a workspace explicitly: `glwe_dim` = `k`, `poly_size` = `N`,
    /// `level` = `l_b` of the bootstrapping-key gadget.
    ///
    /// # Panics
    ///
    /// Panics if `poly_size` is not a power of two ≥ 4 or `level == 0`.
    pub(crate) fn with_shape(glwe_dim: usize, poly_size: usize, level: usize) -> Self {
        assert!(level > 0, "gadget level must be at least 1");
        Self {
            digit_spectra: vec![Spectrum::zero(poly_size); (glwe_dim + 1) * level],
            lambda: GlweCiphertext::zero(glwe_dim, poly_size),
            scratch: vec![0.0; poly_size],
            glwe_dim,
            poly_size,
            level,
        }
    }

    /// The GLWE dimension `k` this workspace is shaped for.
    #[inline]
    pub fn glwe_dim(&self) -> usize {
        self.glwe_dim
    }

    /// The polynomial size `N` this workspace is shaped for.
    #[inline]
    pub fn poly_size(&self) -> usize {
        self.poly_size
    }

    /// The gadget level `l_b` this workspace is shaped for.
    #[inline]
    pub fn level(&self) -> usize {
        self.level
    }

    /// Whether this workspace fits a ciphertext of the given shape.
    #[inline]
    pub(crate) fn fits(&self, glwe_dim: usize, poly_size: usize) -> bool {
        self.glwe_dim == glwe_dim && self.poly_size == poly_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSet;

    #[test]
    fn shapes_follow_params() {
        let params = ParamSet::TestMedium.params();
        let ws = BootstrapWorkspace::new(&params);
        assert_eq!(ws.glwe_dim(), params.glwe_dim);
        assert_eq!(ws.poly_size(), params.poly_size);
        assert_eq!(ws.level(), params.bsk_decomp.level());
        assert_eq!(
            ws.digit_spectra.len(),
            (params.glwe_dim + 1) * params.bsk_decomp.level()
        );
        assert_eq!(ws.lambda.dim(), params.glwe_dim);
        assert_eq!(ws.scratch.len(), params.poly_size);
        assert!(ws.fits(params.glwe_dim, params.poly_size));
        assert!(!ws.fits(params.glwe_dim + 1, params.poly_size));
    }

    #[test]
    #[should_panic(expected = "level must be")]
    fn rejects_zero_level() {
        let _ = BootstrapWorkspace::with_shape(1, 64, 0);
    }
}
