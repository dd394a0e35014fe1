//! Batches of polynomials and spectra for the `*_batch_into` entry points
//! of [`NegacyclicFft`](crate::NegacyclicFft).
//!
//! A batch is its polynomials side by side, each one contiguous: the
//! transform kernel vectorizes *along* a polynomial, so the batched entry
//! points simply run it once per lane on data that never leaves cache
//! order. (An earlier layout interleaved the lanes — coefficient `j` of
//! every lane adjacent — and ran all lanes in lockstep; that multiplied
//! the kernel's working set by the lane count and lost to the scalar path
//! for batches of fewer than four polynomials. See `DESIGN.md` §10.)

use morphling_math::Polynomial;

use crate::spectrum::Spectrum;

/// A batch of at least one equally-sized polynomials.
#[derive(Clone, Debug, PartialEq)]
pub struct PolyBatch<T> {
    polys: Vec<Polynomial<T>>,
}

impl<T: Copy + Default> PolyBatch<T> {
    /// An all-default batch of `lanes` size-`n` polynomials.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0` or `n == 0`.
    pub fn zero(n: usize, lanes: usize) -> Self {
        assert!(lanes > 0, "a polynomial batch needs at least one lane");
        assert!(n > 0, "polynomial size must be nonzero");
        Self {
            polys: vec![Polynomial::zero(n); lanes],
        }
    }

    /// Pack a slice of polynomials into a batch (one lane each).
    ///
    /// # Panics
    ///
    /// Panics if `polys` is empty or the sizes disagree.
    pub fn from_polys(polys: &[Polynomial<T>]) -> Self {
        assert!(
            !polys.is_empty(),
            "a polynomial batch needs at least one lane"
        );
        assert!(
            polys.iter().all(|p| p.len() == polys[0].len()),
            "polynomial size must match the batch"
        );
        Self {
            polys: polys.to_vec(),
        }
    }

    /// Polynomial size `N`.
    #[inline]
    pub fn poly_len(&self) -> usize {
        self.polys[0].len()
    }

    /// Number of lanes (polynomials) in the batch.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.polys.len()
    }

    /// The polynomials, lane order.
    #[inline]
    pub fn polys(&self) -> &[Polynomial<T>] {
        &self.polys
    }

    pub(crate) fn polys_mut(&mut self) -> &mut [Polynomial<T>] {
        &mut self.polys
    }
}

/// A batch of at least one negacyclic spectra of one polynomial size —
/// the transform-domain half of [`PolyBatch`].
#[derive(Clone, Debug, PartialEq)]
pub struct SpectrumBatch {
    spectra: Vec<Spectrum>,
}

impl SpectrumBatch {
    /// A zero batch of `lanes` spectra for size-`n` polynomials.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0` or `n` is not a power of two ≥ 2.
    pub fn zero(n: usize, lanes: usize) -> Self {
        assert!(lanes > 0, "a spectrum batch needs at least one lane");
        Self {
            spectra: vec![Spectrum::zero(n); lanes],
        }
    }

    /// The polynomial size `N` these spectra represent.
    #[inline]
    pub fn poly_len(&self) -> usize {
        self.spectra[0].poly_len()
    }

    /// Number of lanes (spectra) in the batch.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.spectra.len()
    }

    /// The spectra, lane order.
    #[inline]
    pub fn spectra(&self) -> &[Spectrum] {
        &self.spectra
    }

    pub(crate) fn spectra_mut(&mut self) -> &mut [Spectrum] {
        &mut self.spectra
    }
}

/// The reusable work area of the batched inverse (the software Coef
/// buffer). Grows to the largest request seen and stays there; a warm
/// scratch never reallocates.
#[derive(Clone, Debug, Default)]
pub struct BatchScratch {
    planes: Vec<f64>,
}

impl BatchScratch {
    /// An empty scratch (grows on first use).
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn planes(&mut self) -> &mut Vec<f64> {
        &mut self.planes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poly_batch_keeps_its_lanes_in_order() {
        let polys: Vec<Polynomial<i64>> = (0..3)
            .map(|l| Polynomial::from_fn(8, |j| (l * 100 + j) as i64))
            .collect();
        let b = PolyBatch::from_polys(&polys);
        assert_eq!((b.lanes(), b.poly_len()), (3, 8));
        assert_eq!(b.polys(), &polys[..]);
    }

    #[test]
    fn zero_batches_have_the_requested_shape() {
        let p = PolyBatch::<i64>::zero(16, 5);
        assert_eq!((p.lanes(), p.poly_len()), (5, 16));
        let s = SpectrumBatch::zero(16, 5);
        assert_eq!((s.lanes(), s.poly_len()), (5, 16));
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_poly_batch_is_rejected() {
        let _ = PolyBatch::<i64>::zero(8, 0);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_poly_slice_is_rejected() {
        let _ = PolyBatch::<i64>::from_polys(&[]);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_spectrum_batch_is_rejected() {
        let _ = SpectrumBatch::zero(8, 0);
    }

    #[test]
    #[should_panic(expected = "size must match")]
    fn mismatched_lane_sizes_are_rejected() {
        let _ = PolyBatch::from_polys(&[Polynomial::<i64>::zero(8), Polynomial::zero(16)]);
    }
}
