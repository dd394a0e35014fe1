//! Exact negacyclic polynomial multiplication.
//!
//! These routines are the *correctness oracle* of the repository: they
//! compute products in `Z_q[X]/(X^N + 1)` exactly (O(N²) schoolbook with
//! wide accumulators), with no floating-point involved. The FFT-based path
//! in `morphling-transform` — the one the hardware accelerates — is tested
//! against them bit-for-bit.

use crate::poly::Polynomial;
use crate::torus::Torus32;

/// Exact negacyclic product of an integer polynomial (e.g. decomposition
/// digits) with a torus polynomial: `digits(X) · t(X) mod (X^N + 1)`.
///
/// This is the external-product building block: in TFHE the left operand is
/// always a small-digit polynomial from the gadget decomposition and the
/// right operand a ciphertext (torus) polynomial.
///
/// # Panics
///
/// Panics if the operand lengths differ.
pub fn mul_int_torus32(digits: &Polynomial<i64>, t: &Polynomial<Torus32>) -> Polynomial<Torus32> {
    let n = digits.len();
    assert_eq!(n, t.len(), "negacyclic product size mismatch");
    let mut acc = vec![0i64; n];
    for (j, &d) in digits.iter().enumerate() {
        if d == 0 {
            continue;
        }
        for (m, &c) in t.iter().enumerate() {
            let k = j + m;
            // Signed representative of the torus coefficient keeps products
            // small; wrapping at the end reduces mod q.
            let prod = d.wrapping_mul(c.to_signed() as i64);
            if k < n {
                acc[k] = acc[k].wrapping_add(prod);
            } else {
                acc[k - n] = acc[k - n].wrapping_sub(prod);
            }
        }
    }
    Polynomial::from_coeffs(
        acc.into_iter()
            .map(|v| Torus32::from_raw(v as u32))
            .collect(),
    )
}

/// Exact negacyclic product of two integer polynomials, with `i128`
/// accumulation. Useful in tests and in the plaintext reference paths of the
/// application models.
///
/// # Panics
///
/// Panics if the operand lengths differ.
pub fn mul_int_int(a: &Polynomial<i64>, b: &Polynomial<i64>) -> Polynomial<i64> {
    let n = a.len();
    assert_eq!(n, b.len(), "negacyclic product size mismatch");
    let mut acc = vec![0i128; n];
    for (j, &x) in a.iter().enumerate() {
        if x == 0 {
            continue;
        }
        for (m, &y) in b.iter().enumerate() {
            let k = j + m;
            let prod = (x as i128) * (y as i128);
            if k < n {
                acc[k] += prod;
            } else {
                acc[k - n] -= prod;
            }
        }
    }
    Polynomial::from_coeffs(acc.into_iter().map(|v| v as i64).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poly(v: &[i64]) -> Polynomial<i64> {
        Polynomial::from_coeffs(v.to_vec())
    }

    #[test]
    fn x_times_x_cubed_is_minus_one() {
        // In Z[X]/(X^4+1): X * X^3 = X^4 = -1.
        let a = poly(&[0, 1, 0, 0]);
        let b = poly(&[0, 0, 0, 1]);
        assert_eq!(mul_int_int(&a, &b).coeffs(), &[-1, 0, 0, 0]);
    }

    #[test]
    fn multiplication_by_one_is_identity() {
        let one = poly(&[1, 0, 0, 0]);
        let b = poly(&[5, -3, 7, 11]);
        assert_eq!(mul_int_int(&one, &b), b);
    }

    #[test]
    fn commutative_for_int_polys() {
        let a = poly(&[3, 1, 4, 1, 5, 9, 2, 6]);
        let b = poly(&[-2, 7, 1, -8, 2, 8, -1, 8]);
        assert_eq!(mul_int_int(&a, &b), mul_int_int(&b, &a));
    }

    #[test]
    fn monomial_product_matches_rotation() {
        let t = Polynomial::from_fn(8, |j| Torus32::from_raw((j as u32 + 1) * 1000));
        for a in 0..8i64 {
            let mut mono = Polynomial::<i64>::zero(8);
            mono[a as usize] = 1;
            assert_eq!(mul_int_torus32(&mono, &t), t.monomial_mul(a), "a={a}");
        }
    }

    #[test]
    fn distributes_over_addition() {
        let d = poly(&[2, -1, 0, 3]);
        let t1 = Polynomial::from_fn(4, |j| {
            Torus32::from_raw(0x1111_1111u32.wrapping_mul(j as u32))
        });
        let t2 = Polynomial::from_fn(4, |j| {
            Torus32::from_raw(0x0F0F_0F0Fu32.wrapping_add(j as u32))
        });
        let lhs = mul_int_torus32(&d, &(&t1 + &t2));
        let rhs = &mul_int_torus32(&d, &t1) + &mul_int_torus32(&d, &t2);
        assert_eq!(lhs, rhs);
    }
}
