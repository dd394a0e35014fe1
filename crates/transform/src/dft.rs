//! The naive O(n²) reference transform, the oracle of the tests (built
//! only for them).

use morphling_math::Complex64;

/// Naive evaluation of a real polynomial at the odd 2N-th roots of unity
/// `e^(-iπ(4m+1)/N)` for `m = 0..N/2` — the exact point set of the
/// negacyclic transform ([`crate::NegacyclicFft`]). O(n²) oracle.
pub(crate) fn naive_negacyclic_eval(coeffs: &[f64]) -> Vec<Complex64> {
    let n = coeffs.len();
    let half = n / 2;
    (0..half)
        .map(|m| {
            let mut acc = Complex64::ZERO;
            for (j, &c) in coeffs.iter().enumerate() {
                let angle = -std::f64::consts::PI * ((4 * m + 1) as f64) * (j as f64) / n as f64;
                acc += Complex64::from_polar_unit(angle).scale(c);
            }
            acc
        })
        .collect()
}

mod tests {
    use super::*;

    #[test]
    fn negacyclic_eval_of_x_is_the_roots() {
        // p(X) = X evaluates to the sample points themselves.
        let mut coeffs = vec![0.0; 8];
        coeffs[1] = 1.0;
        let out = naive_negacyclic_eval(&coeffs);
        for (m, v) in out.iter().enumerate() {
            let angle = -std::f64::consts::PI * ((4 * m + 1) as f64) / 8.0;
            assert!((*v - Complex64::from_polar_unit(angle)).abs() < 1e-9);
        }
    }
}
