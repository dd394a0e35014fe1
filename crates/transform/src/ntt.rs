//! Number-theoretic transform backend — the "or NTT" of the paper's §III
//! ("transform domain methods such as FFT- or NTT-based convolution").
//!
//! Unlike the floating-point FFT, the NTT is *exact by construction*: the
//! negacyclic product is computed modulo two 30-bit NTT-friendly primes
//! and reconstructed by the CRT, which covers the coefficient range of
//! TFHE external products as long as `N·max|digit|·2³¹ < M/2 ≈ 2^58.8`
//! ([`NegacyclicNtt::supports`]; `2⁵⁸` at the paper's largest sets, IV and
//! A). It is several times slower than the FFT on CPUs and O(N log N)
//! where the schoolbook `morphling_math::negacyclic::mul_int_torus32` is
//! O(N²): it is the multiplier of `morphling-tfhe`'s `oracle` — the exact
//! step the FFT is held to through a whole bootstrap — and is itself
//! held to the schoolbook per product, here and in `tests/properties.rs`.

use morphling_math::{Polynomial, Torus32};

/// First CRT prime: `119·2²³ + 1` (supports transforms up to 2²³ points).
pub const PRIME_1: u64 = 998_244_353;
/// Second CRT prime: `479·2²¹ + 1`.
pub const PRIME_2: u64 = 1_004_535_809;
/// The CRT modulus `M`: a product is reconstructed exactly while its
/// magnitude stays below `M/2`.
const CRT_MODULUS: u128 = PRIME_1 as u128 * PRIME_2 as u128;

fn mod_pow(mut base: u64, mut exp: u64, p: u64) -> u64 {
    let mut acc = 1u64;
    base %= p;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc * base % p;
        }
        base = base * base % p;
        exp >>= 1;
    }
    acc
}

fn mod_inv(x: u64, p: u64) -> u64 {
    mod_pow(x, p - 2, p)
}

/// A primitive root of the multiplicative group of both primes.
const GENERATOR: u64 = 3;

/// One prime's negacyclic NTT plan: twiddles for the cyclic NTT plus the
/// ψ-powers implementing the negacyclic twist (`ψ² = ω`, `ψ^N = −1`).
#[derive(Clone, Debug)]
struct PrimePlan {
    p: u64,
    n: usize,
    /// ψ^j for j < n.
    psi: Vec<u64>,
    /// ψ^(−j) · n^(−1) for j < n (inverse twist with scaling folded in).
    ipsi_scaled: Vec<u64>,
    /// Per-stage forward twiddles (bit-reversal-free iterative CT layout).
    fwd_tw: Vec<Vec<u64>>,
    /// Per-stage inverse twiddles.
    inv_tw: Vec<Vec<u64>>,
    bit_rev: Vec<u32>,
}

impl PrimePlan {
    fn new(p: u64, n: usize) -> Self {
        assert!(n.is_power_of_two(), "NTT size must be a power of two");
        assert_eq!(
            (p - 1) % (2 * n as u64),
            0,
            "prime does not support 2N-th roots"
        );
        // ψ = g^((p−1)/2N) is a primitive 2N-th root of unity mod p.
        let psi_root = mod_pow(GENERATOR, (p - 1) / (2 * n as u64), p);
        let omega = psi_root * psi_root % p;
        let inv_omega = mod_inv(omega, p);
        let inv_psi = mod_inv(psi_root, p);
        let n_inv = mod_inv(n as u64, p);

        let mut psi = Vec::with_capacity(n);
        let mut ipsi_scaled = Vec::with_capacity(n);
        let mut a = 1u64;
        let mut b = n_inv;
        for _ in 0..n {
            psi.push(a);
            ipsi_scaled.push(b);
            a = a * psi_root % p;
            b = b * inv_psi % p;
        }

        let stages = n.trailing_zeros() as usize;
        let mut fwd_tw = Vec::with_capacity(stages);
        let mut inv_tw = Vec::with_capacity(stages);
        for s in 0..stages {
            let half = 1usize << s;
            let step_f = mod_pow(omega, (n / (2 * half)) as u64, p);
            let step_i = mod_pow(inv_omega, (n / (2 * half)) as u64, p);
            let mut row_f = Vec::with_capacity(half);
            let mut row_i = Vec::with_capacity(half);
            let (mut wf, mut wi) = (1u64, 1u64);
            for _ in 0..half {
                row_f.push(wf);
                row_i.push(wi);
                wf = wf * step_f % p;
                wi = wi * step_i % p;
            }
            fwd_tw.push(row_f);
            inv_tw.push(row_i);
        }
        let shift = (usize::BITS - n.trailing_zeros()) % usize::BITS;
        let bit_rev =
            (0..n as u32).map(|i| if n == 1 { 0 } else { (i as usize).reverse_bits() >> shift } as u32).collect();
        Self {
            p,
            n,
            psi,
            ipsi_scaled,
            fwd_tw,
            inv_tw,
            bit_rev,
        }
    }

    fn permute(&self, data: &mut [u64]) {
        for i in 0..self.n {
            let j = self.bit_rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
    }

    fn butterflies(&self, data: &mut [u64], inverse: bool) {
        let p = self.p;
        let tables = if inverse { &self.inv_tw } else { &self.fwd_tw };
        for (s, tw) in tables.iter().enumerate() {
            let half = 1usize << s;
            let block = half * 2;
            for start in (0..self.n).step_by(block) {
                for k in 0..half {
                    let u = data[start + k];
                    let v = data[start + k + half] * tw[k] % p;
                    data[start + k] = (u + v) % p;
                    data[start + k + half] = (u + p - v) % p;
                }
            }
        }
    }

    /// Forward negacyclic transform of signed coefficients: reduce, twist
    /// by ψ^j, then cyclic NTT.
    fn forward(&self, coeffs: impl Iterator<Item = i64>) -> Vec<u64> {
        let mut data: Vec<u64> = coeffs
            .zip(&self.psi)
            .map(|(c, &t)| c.rem_euclid(self.p as i64) as u64 * t % self.p)
            .collect();
        self.permute(&mut data);
        self.butterflies(&mut data, false);
        data
    }

    /// Inverse: cyclic INTT, then untwist (with 1/n folded in).
    fn inverse(&self, mut data: Vec<u64>) -> Vec<u64> {
        self.permute(&mut data);
        self.butterflies(&mut data, true);
        for (d, &t) in data.iter_mut().zip(&self.ipsi_scaled) {
            *d = *d * t % self.p;
        }
        data
    }

    /// The negacyclic product of two signed polynomials, modulo `p`.
    fn mul(&self, a: impl Iterator<Item = i64>, b: impl Iterator<Item = i64>) -> Vec<u64> {
        let (a, b) = (self.forward(a), self.forward(b));
        self.inverse(a.iter().zip(&b).map(|(&x, &y)| x * y % self.p).collect())
    }
}

/// Exact negacyclic multiplier via a two-prime CRT NTT.
#[derive(Clone, Debug)]
pub struct NegacyclicNtt {
    plan1: PrimePlan,
    plan2: PrimePlan,
}

impl NegacyclicNtt {
    /// Build an engine for size-`n` polynomials.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or exceeds the primes' root
    /// support (2²⁰).
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 4,
            "size must be a power of two ≥ 4"
        );
        assert!(n <= 1 << 20, "size exceeds the primes' 2N-th root support");
        Self {
            plan1: PrimePlan::new(PRIME_1, n),
            plan2: PrimePlan::new(PRIME_2, n),
        }
    }

    /// Polynomial size `N`.
    pub fn poly_len(&self) -> usize {
        self.plan1.n
    }

    /// Whether a size-`n` engine exists and its products with digit
    /// polynomials of magnitude at most `max_digit` are exact: a
    /// coefficient of the true product is at most `N·max_digit·2³¹` in
    /// magnitude (centered torus words), and the CRT reconstructs what
    /// stays below `M/2 ≈ 2^58.8`.
    pub fn supports(n: usize, max_digit: u64) -> bool {
        n.is_power_of_two()
            && (4..=1 << 20).contains(&n)
            && (n as u128 * u128::from(max_digit)) << 31 < CRT_MODULUS / 2
    }

    /// Exact negacyclic product `digits(X) · t(X) mod (X^N + 1)` over the
    /// 32-bit torus — bit-identical to the schoolbook oracle, computed in
    /// O(N log N).
    ///
    /// # Panics
    ///
    /// Panics on a size mismatch, or if a digit is too large for the CRT
    /// range ([`supports`](Self::supports)) — the product would be wrong,
    /// not approximate.
    pub fn mul_int_torus(
        &self,
        digits: &Polynomial<i64>,
        t: &Polynomial<Torus32>,
    ) -> Polynomial<Torus32> {
        let n = self.poly_len();
        assert_eq!(digits.len(), n, "digit polynomial size mismatch");
        assert_eq!(t.len(), n, "torus polynomial size mismatch");
        let max_digit = digits.iter().map(|d| d.unsigned_abs()).max().unwrap_or(0);
        assert!(
            Self::supports(n, max_digit),
            "digit magnitude {max_digit} leaves the CRT range at N = {n}: \
             N·max|digit|·2³¹ must stay below M/2 = {}",
            CRT_MODULUS / 2
        );

        // Centered (signed) representatives keep the true product magnitude
        // below the N·max|digit|·2³¹ < M/2 just checked, so the CRT
        // reconstruction is exact.
        let signed = || t.iter().map(|c| i64::from(c.to_signed()));
        let r1 = self.plan1.mul(digits.iter().copied(), signed());
        let r2 = self.plan2.mul(digits.iter().copied(), signed());

        // CRT: c ≡ r1 (mod p1), c ≡ r2 (mod p2); center into (−M/2, M/2),
        // then reduce mod 2³².
        let p1_inv_mod_p2 = mod_inv(PRIME_1 % PRIME_2, PRIME_2);
        let coeffs = r1
            .iter()
            .zip(&r2)
            .map(|(&a, &b)| {
                let diff = (b + PRIME_2 - a % PRIME_2) % PRIME_2;
                let k = diff * p1_inv_mod_p2 % PRIME_2;
                let c = a as u128 + (k as u128) * (PRIME_1 as u128); // in [0, M)
                let signed: i128 = if c >= CRT_MODULUS / 2 {
                    c as i128 - CRT_MODULUS as i128
                } else {
                    c as i128
                };
                Torus32::from_raw(signed as u32)
            })
            .collect();
        Polynomial::from_coeffs(coeffs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphling_math::negacyclic::mul_int_torus32;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn primes_support_the_required_roots() {
        for n in [512u64, 1024, 2048, 4096] {
            assert_eq!((PRIME_1 - 1) % (2 * n), 0);
            assert_eq!((PRIME_2 - 1) % (2 * n), 0);
        }
    }

    #[test]
    fn mod_pow_and_inv() {
        assert_eq!(mod_pow(3, PRIME_1 - 1, PRIME_1), 1);
        let x = 123_456_789u64;
        assert_eq!(x * mod_inv(x, PRIME_2) % PRIME_2, 1);
    }

    #[test]
    fn ntt_matches_exact_oracle_small() {
        let ntt = NegacyclicNtt::new(16);
        let mut mono = Polynomial::<i64>::zero(16);
        mono[15] = 1;
        let mut t = Polynomial::<Torus32>::zero(16);
        t[1] = Torus32::from_raw(12345);
        // X^15 · X = X^16 = −1.
        let prod = ntt.mul_int_torus(&mono, &t);
        assert_eq!(prod, mul_int_torus32(&mono, &t));
        assert_eq!(prod[0], Torus32::from_raw(0u32.wrapping_sub(12345)));
    }

    #[test]
    fn ntt_is_bit_exact_at_paper_sizes() {
        let mut rng = StdRng::seed_from_u64(400);
        for n in [512usize, 1024, 2048, 4096] {
            let ntt = NegacyclicNtt::new(n);
            // Worst-case digit range of the paper's largest base (2^16/2).
            let digits = Polynomial::from_fn(n, |_| rng.gen_range(-32768i64..32768));
            let t = Polynomial::from_fn(n, |_| Torus32::from_raw(rng.gen()));
            assert_eq!(
                ntt.mul_int_torus(&digits, &t),
                mul_int_torus32(&digits, &t),
                "n={n}"
            );
        }
    }

    /// Past the bound the CRT wraps and the product is silently wrong, so
    /// the multiplier refuses the input.
    #[test]
    #[should_panic(expected = "leaves the CRT range at N = 1024")]
    fn digits_beyond_the_crt_range_are_refused() {
        let n = 1024;
        let digits = Polynomial::from_fn(n, |_| 1i64 << 18);
        let t = Polynomial::from_fn(n, |_| Torus32::from_raw(0x7fff_ffff));
        NegacyclicNtt::new(n).mul_int_torus(&digits, &t);
    }

    #[test]
    fn the_crt_range_ends_where_the_product_stops_being_exact() {
        // N = 1024: 2¹⁷ is the last power of two in range, and at it the
        // input refused above at 2¹⁸ (coefficient N − 1 sums N products of
        // one sign) is still exact.
        assert!(NegacyclicNtt::supports(1024, 1 << 17));
        assert!(!NegacyclicNtt::supports(1024, 1 << 18));
        let digits = Polynomial::from_fn(1024, |_| 1i64 << 17);
        let t = Polynomial::from_fn(1024, |_| Torus32::from_raw(0x7fff_ffff));
        assert_eq!(
            NegacyclicNtt::new(1024).mul_int_torus(&digits, &t),
            mul_int_torus32(&digits, &t)
        );
        // Sizes no engine exists for are not supported at any digit.
        for n in [0, 2, 3, 1000, 1 << 21] {
            assert!(!NegacyclicNtt::supports(n, 0), "n={n}");
        }
    }

    #[test]
    fn ntt_and_fft_agree() {
        let mut rng = StdRng::seed_from_u64(401);
        let n = 1024;
        let ntt = NegacyclicNtt::new(n);
        let fft = crate::NegacyclicFft::new(n);
        let digits = Polynomial::from_fn(n, |_| rng.gen_range(-64i64..64));
        let t = Polynomial::from_fn(n, |_| Torus32::from_raw(rng.gen()));
        let spectrum = fft
            .forward_int(&digits)
            .pointwise_mul(&fft.forward_torus(&t));
        assert_eq!(ntt.mul_int_torus(&digits, &t), fft.inverse_torus(&spectrum));
    }
}
