//! Randomness: uniform torus masks, binary secret keys, and modular
//! Gaussian noise.
//!
//! All sampling goes through [`rand::Rng`] so tests can use seeded
//! deterministic generators.

use rand::Rng;

use crate::poly::Polynomial;
use crate::torus::TorusScalar;

/// Sample a uniformly random torus element (an LWE/GLWE mask coefficient).
pub fn uniform_torus<T: TorusScalar, R: Rng + ?Sized>(rng: &mut R) -> T {
    T::from_u64(rng.gen::<u64>())
}

/// Sample a uniformly random torus polynomial of size `n`.
pub fn uniform_torus_poly<T: TorusScalar, R: Rng + ?Sized>(n: usize, rng: &mut R) -> Polynomial<T> {
    Polynomial::from_fn(n, |_| uniform_torus(rng))
}

/// Sample a uniform binary vector (a secret key in `B^n = {0,1}^n`).
pub fn binary_vector<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<i64> {
    (0..n).map(|_| i64::from(rng.gen::<bool>())).collect()
}

/// Sample a binary polynomial (a GLWE secret-key component in `B_N[X]`).
pub fn binary_poly<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Polynomial<i64> {
    Polynomial::from_fn(n, |_| i64::from(rng.gen::<bool>()))
}

/// Sample a zero-mean Gaussian on the torus with standard deviation `std`
/// (expressed as a fraction of the torus, e.g. `2^-25`), rounded to the
/// nearest representable element.
///
/// Uses the Box–Muller transform; one normal deviate per call (the
/// transform's second one is dropped: a polynomial's worth goes through
/// [`gaussian_torus_poly`], which keeps both).
pub fn gaussian_torus<T: TorusScalar, R: Rng + ?Sized>(std: f64, rng: &mut R) -> T {
    T::from_f64(std * standard_normal_pair(rng).0)
}

/// Sample a torus polynomial with i.i.d. Gaussian coefficients, two per
/// Box–Muller transform.
pub fn gaussian_torus_poly<T: TorusScalar, R: Rng + ?Sized>(
    n: usize,
    std: f64,
    rng: &mut R,
) -> Polynomial<T> {
    let mut coeffs = Vec::with_capacity(n + 1);
    while coeffs.len() < n {
        let (a, b) = standard_normal_pair(rng);
        coeffs.extend([T::from_f64(std * a), T::from_f64(std * b)]);
    }
    coeffs.truncate(n);
    Polynomial::from_coeffs(coeffs)
}

/// Two independent standard normal deviates via Box–Muller: one radius,
/// the cosine and the sine of one angle.
fn standard_normal_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    // Avoid u1 == 0 which would make ln(0) = -inf.
    let u1: f64 = loop {
        let u = rng.gen::<f64>();
        if u > f64::EPSILON {
            break u;
        }
    };
    let u2: f64 = rng.gen();
    let radius = (-2.0 * u1.ln()).sqrt();
    let (sin, cos) = (std::f64::consts::TAU * u2).sin_cos();
    (radius * cos, radius * sin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::torus::Torus32;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn binary_vectors_are_binary() {
        let mut rng = StdRng::seed_from_u64(1);
        for &v in &binary_vector(1000, &mut rng) {
            assert!(v == 0 || v == 1);
        }
    }

    #[test]
    fn binary_vector_is_roughly_balanced() {
        let mut rng = StdRng::seed_from_u64(2);
        let ones: i64 = binary_vector(10_000, &mut rng).iter().sum();
        assert!((3500..6500).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn gaussian_has_expected_spread() {
        let mut rng = StdRng::seed_from_u64(3);
        let std = 2f64.powi(-10);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| gaussian_torus::<Torus32, _>(std, &mut rng).to_f64_signed())
            .collect();
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        let var: f64 =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        assert!(
            mean.abs() < 5.0 * std / (samples.len() as f64).sqrt() + 1e-9,
            "mean = {mean}"
        );
        let ratio = var.sqrt() / std;
        assert!((0.95..1.05).contains(&ratio), "std ratio = {ratio}");
    }

    #[test]
    fn gaussian_poly_keeps_both_deviates_and_they_are_independent() {
        let mut rng = StdRng::seed_from_u64(8);
        let std = 2f64.powi(-10);
        let n = 32_768;
        let p: Polynomial<Torus32> = gaussian_torus_poly(n, std, &mut rng);
        assert_eq!(p.len(), n);
        // The one odd size: the transform's second deviate is dropped.
        assert_eq!(gaussian_torus_poly::<Torus32, _>(1, std, &mut rng).len(), 1);
        let x: Vec<f64> = p.iter().map(|c| c.to_f64_signed() / std).collect();
        let var = x.iter().map(|v| v * v).sum::<f64>() / n as f64;
        assert!(
            (0.95..1.05).contains(&var.sqrt()),
            "std ratio = {}",
            var.sqrt()
        );
        // The cosine and sine halves of one transform, and neighbours
        // across two, are uncorrelated.
        for lag in [1usize, 2] {
            let pairs = x.iter().zip(&x[lag..]);
            let cov = pairs.map(|(a, b)| a * b).sum::<f64>() / (n - lag) as f64;
            assert!(cov.abs() < 0.03, "lag {lag}: covariance {cov}");
        }
        // Half the uniform draws of one deviate per call: the stream after
        // 16 coefficients is where 8 transforms leave it.
        let (mut a, mut b) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
        let _: Polynomial<Torus32> = gaussian_torus_poly(16, std, &mut a);
        for _ in 0..8 {
            let _: Torus32 = gaussian_torus(std, &mut b);
        }
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn uniform_torus_poly_has_requested_size() {
        let mut rng = StdRng::seed_from_u64(4);
        let p: Polynomial<Torus32> = uniform_torus_poly(64, &mut rng);
        assert_eq!(p.len(), 64);
    }

    #[test]
    fn seeded_sampling_is_deterministic() {
        let a: Polynomial<Torus32> = uniform_torus_poly(16, &mut StdRng::seed_from_u64(7));
        let b: Polynomial<Torus32> = uniform_torus_poly(16, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn uniform_torus32_covers_high_bits() {
        let mut rng = StdRng::seed_from_u64(5);
        let any_high = (0..100)
            .map(|_| uniform_torus::<Torus32, _>(&mut rng))
            .any(|t| t.into_raw() > u32::MAX / 2);
        assert!(any_high);
    }
}
