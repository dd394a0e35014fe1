//! Dense polynomials interpreted in the negacyclic ring `R[X]/(X^N + 1)`.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Neg, Sub, SubAssign};

/// A dense polynomial of degree `< N` with coefficients of type `T`,
/// interpreted in the quotient ring `R[X]/(X^N + 1)` (negacyclic ring).
///
/// `N` must be a power of two; this is validated by every constructor.
/// Morphling packs these coefficients eight at a time into its 256-bit
/// datapath — the simulator models that, while this type is the functional
/// representation.
///
/// # Example
///
/// ```
/// use morphling_math::Polynomial;
///
/// let p = Polynomial::from_coeffs(vec![1i64, 2, 3, 4]);
/// let q = &p + &p;
/// assert_eq!(q.coeffs(), &[2, 4, 6, 8]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Polynomial<T> {
    coeffs: Vec<T>,
}

impl<T: Copy + Default> Polynomial<T> {
    /// The zero polynomial with `n` coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn zero(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "polynomial size must be a power of two, got {n}"
        );
        Self {
            coeffs: vec![T::default(); n],
        }
    }

    /// Build from an explicit coefficient vector (constant term first).
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two.
    pub fn from_coeffs(coeffs: Vec<T>) -> Self {
        assert!(
            coeffs.len().is_power_of_two(),
            "polynomial size must be a power of two, got {}",
            coeffs.len()
        );
        Self { coeffs }
    }

    /// Build by evaluating `f(j)` for each coefficient index `j`.
    pub fn from_fn(n: usize, f: impl FnMut(usize) -> T) -> Self {
        assert!(
            n.is_power_of_two(),
            "polynomial size must be a power of two, got {n}"
        );
        Self {
            coeffs: (0..n).map(f).collect(),
        }
    }

    /// Number of coefficients `N` (the ring degree).
    #[inline]
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// Whether the polynomial has zero length. Always false for a valid
    /// polynomial (N ≥ 1), provided for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Borrow the coefficient slice (constant term first).
    #[inline]
    pub fn coeffs(&self) -> &[T] {
        &self.coeffs
    }

    /// Mutably borrow the coefficient slice.
    #[inline]
    pub fn coeffs_mut(&mut self) -> &mut [T] {
        &mut self.coeffs
    }

    /// Iterate over coefficients.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.coeffs.iter()
    }

    /// Map every coefficient through `f`, producing a polynomial of a
    /// possibly different coefficient type.
    pub fn map<U: Copy + Default>(&self, f: impl FnMut(&T) -> U) -> Polynomial<U> {
        Polynomial {
            coeffs: self.coeffs.iter().map(f).collect(),
        }
    }
}

impl<T> Polynomial<T>
where
    T: Copy + Default + Neg<Output = T>,
{
    /// Multiply by the monomial `X^power` in the negacyclic ring.
    ///
    /// `power` is taken modulo `2N`; exponents in `[N, 2N)` flip the sign of
    /// the wrapped coefficients because `X^N = -1`. This is the *rotation*
    /// the paper performs with the double-pointer method inside the
    /// Private-A1 buffer (§V-C): a shifted read plus conditional negation.
    #[must_use]
    pub fn monomial_mul(&self, power: i64) -> Self {
        let mut out = Self::zero(self.len());
        self.monomial_mul_into(power, &mut out);
        out
    }

    /// [`monomial_mul`](Self::monomial_mul) into a caller-owned
    /// polynomial — every output coefficient is overwritten, so `out`
    /// needs no prior clearing. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub(crate) fn monomial_mul_into(&self, power: i64, out: &mut Self) {
        self.rotate_into(power, out, |rotated, _| rotated);
    }

    /// `out[j] = f(rotated[j], self[j])` with `rotated = X^power · self`:
    /// the rotation as two straight runs — `self[..N−s]` lands on
    /// `out[s..]`, the wrapped `self[N−s..]` on `out[..s]` with its sign
    /// flipped (`X^N = −1`) — so every loop is branch-free.
    #[inline(always)]
    fn rotate_into(&self, power: i64, out: &mut Self, f: impl Fn(T, T) -> T) {
        assert_eq!(out.len(), self.len(), "output polynomial size mismatch");
        let n = self.len();
        let a = power.rem_euclid(2 * n as i64) as usize;
        let (shift, negate_all) = if a < n { (a, false) } else { (a - n, true) };
        let (straight, wrapped) = self.coeffs.split_at(n - shift);
        let (own_low, own_high) = self.coeffs.split_at(shift);
        let (out_low, out_high) = out.coeffs.split_at_mut(shift);
        let run = |out: &mut [T], src: &[T], own: &[T], negate: bool| {
            if negate {
                for ((o, &v), &s) in out.iter_mut().zip(src).zip(own) {
                    *o = f(-v, s);
                }
            } else {
                for ((o, &v), &s) in out.iter_mut().zip(src).zip(own) {
                    *o = f(v, s);
                }
            }
        };
        run(out_high, straight, own_high, negate_all);
        run(out_low, wrapped, own_low, !negate_all);
    }

    /// `X^power * self - self`: the rotate-and-subtract producing the
    /// `Λ_{i-1}` term of the external product (Algorithm 1, line 4).
    #[must_use]
    pub fn monomial_mul_minus_one(&self, power: i64) -> Self
    where
        T: Sub<Output = T>,
    {
        let mut out = Self::zero(self.len());
        self.monomial_mul_minus_one_into(power, &mut out);
        out
    }

    /// [`monomial_mul_minus_one`](Self::monomial_mul_minus_one) into a
    /// caller-owned polynomial — the fused rotate-subtract the hardware's
    /// double-pointer read performs, allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn monomial_mul_minus_one_into(&self, power: i64, out: &mut Self)
    where
        T: Sub<Output = T>,
    {
        self.rotate_into(power, out, |rotated, own| rotated - own);
    }
}

impl<T: Copy + Default> Index<usize> for Polynomial<T> {
    type Output = T;
    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.coeffs[i]
    }
}

impl<T: Copy + Default> IndexMut<usize> for Polynomial<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.coeffs[i]
    }
}

macro_rules! binop_impl {
    ($trait:ident, $method:ident, $op:tt) => {
        impl<'a, T> $trait<&'a Polynomial<T>> for &'a Polynomial<T>
        where
            T: Copy + Default + $trait<Output = T>,
        {
            type Output = Polynomial<T>;
            fn $method(self, rhs: &'a Polynomial<T>) -> Polynomial<T> {
                assert_eq!(self.len(), rhs.len(), "polynomial size mismatch");
                Polynomial {
                    coeffs: self
                        .coeffs
                        .iter()
                        .zip(&rhs.coeffs)
                        .map(|(&a, &b)| a $op b)
                        .collect(),
                }
            }
        }

        impl<T> $trait for Polynomial<T>
        where
            T: Copy + Default + $trait<Output = T>,
        {
            type Output = Polynomial<T>;
            fn $method(self, rhs: Polynomial<T>) -> Polynomial<T> {
                (&self).$method(&rhs)
            }
        }
    };
}

binop_impl!(Add, add, +);
binop_impl!(Sub, sub, -);

impl<T> AddAssign<&Polynomial<T>> for Polynomial<T>
where
    T: Copy + Default + AddAssign,
{
    fn add_assign(&mut self, rhs: &Polynomial<T>) {
        assert_eq!(self.len(), rhs.len(), "polynomial size mismatch");
        for (a, &b) in self.coeffs.iter_mut().zip(&rhs.coeffs) {
            *a += b;
        }
    }
}

impl<T> SubAssign<&Polynomial<T>> for Polynomial<T>
where
    T: Copy + Default + SubAssign,
{
    fn sub_assign(&mut self, rhs: &Polynomial<T>) {
        assert_eq!(self.len(), rhs.len(), "polynomial size mismatch");
        for (a, &b) in self.coeffs.iter_mut().zip(&rhs.coeffs) {
            *a -= b;
        }
    }
}

impl<T> Neg for &Polynomial<T>
where
    T: Copy + Default + Neg<Output = T>,
{
    type Output = Polynomial<T>;
    fn neg(self) -> Polynomial<T> {
        Polynomial {
            coeffs: self.coeffs.iter().map(|&a| -a).collect(),
        }
    }
}

impl<T> Neg for Polynomial<T>
where
    T: Copy + Default + Neg<Output = T>,
{
    type Output = Polynomial<T>;
    fn neg(self) -> Polynomial<T> {
        -&self
    }
}

impl<T: fmt::Debug> fmt::Debug for Polynomial<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Elide the middle of large polynomials to keep Debug usable.
        if self.coeffs.len() <= 8 {
            f.debug_struct("Polynomial")
                .field("coeffs", &self.coeffs)
                .finish()
        } else {
            write!(
                f,
                "Polynomial {{ n: {}, head: {:?}, .. }}",
                self.coeffs.len(),
                &self.coeffs[..4]
            )
        }
    }
}

impl<T: Copy + Default> FromIterator<T> for Polynomial<T> {
    /// Collect coefficients into a polynomial.
    ///
    /// # Panics
    ///
    /// Panics if the number of items is not a power of two.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Self::from_coeffs(iter.into_iter().collect())
    }
}

impl<'a, T> IntoIterator for &'a Polynomial<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.coeffs.iter()
    }
}

impl<T> IntoIterator for Polynomial<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;
    fn into_iter(self) -> Self::IntoIter {
        self.coeffs.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::torus::Torus32;

    fn poly_i64(v: &[i64]) -> Polynomial<i64> {
        Polynomial::from_coeffs(v.to_vec())
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = Polynomial::<i64>::zero(3);
    }

    #[test]
    fn monomial_mul_shifts_and_flips() {
        let p = poly_i64(&[1, 2, 3, 4]);
        // X^1 * p = -4 + x + 2x^2 + 3x^3 (x^4 = -1 wraps the top coeff).
        assert_eq!(p.monomial_mul(1).coeffs(), &[-4, 1, 2, 3]);
        // X^4 = -1 negates everything.
        assert_eq!(p.monomial_mul(4).coeffs(), &[-1, -2, -3, -4]);
        // X^8 = identity.
        assert_eq!(p.monomial_mul(8), p);
        // Negative exponents rotate the other way.
        assert_eq!(p.monomial_mul(-1).coeffs(), &[2, 3, 4, -1]);
    }

    #[test]
    fn monomial_mul_composes() {
        let p = poly_i64(&[5, -7, 11, 13, 0, 2, -3, 1]);
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(
                    p.monomial_mul(a).monomial_mul(b),
                    p.monomial_mul(a + b),
                    "a={a} b={b}"
                );
            }
        }
    }

    #[test]
    fn monomial_mul_into_overwrites_dirty_buffers() {
        let p = poly_i64(&[1, 2, 3, 4]);
        let mut out = poly_i64(&[9, 9, 9, 9]);
        p.monomial_mul_into(5, &mut out);
        assert_eq!(out, p.monomial_mul(5));
        p.monomial_mul_minus_one_into(3, &mut out);
        assert_eq!(out, p.monomial_mul_minus_one(3));
    }

    #[test]
    fn monomial_mul_minus_one_matches_definition() {
        let p = poly_i64(&[1, 2, 3, 4]);
        let d = p.monomial_mul_minus_one(3);
        let expected = &p.monomial_mul(3) - &p;
        assert_eq!(d, expected);
    }

    #[test]
    fn add_sub_neg_roundtrip() {
        let p = poly_i64(&[1, -2, 3, -4]);
        let q = poly_i64(&[10, 20, 30, 40]);
        assert_eq!(&(&p + &q) - &q, p);
        assert_eq!(-(-p.clone()), p);
    }

    #[test]
    fn torus_polynomial_rotation_wraps_sign() {
        let mut p = Polynomial::<Torus32>::zero(4);
        p[3] = Torus32::from_raw(7);
        let r = p.monomial_mul(1);
        assert_eq!(r[0], Torus32::from_raw(0u32.wrapping_sub(7)));
    }

    #[test]
    fn from_fn_and_map() {
        let p = Polynomial::from_fn(8, |j| j as i64);
        let q = p.map(|&c| c * 2);
        assert_eq!(q.coeffs()[7], 14);
    }
}
