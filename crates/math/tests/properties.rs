//! Property-based tests for the math substrate.

use morphling_math::negacyclic::{mul_int_int, mul_int_torus32};
use morphling_math::{DecompParams, Polynomial, SignedDecomposer, Torus32, TorusScalar};
use proptest::prelude::*;

fn torus_poly(n: usize) -> impl Strategy<Value = Polynomial<Torus32>> {
    prop::collection::vec(any::<u32>(), n)
        .prop_map(|v| Polynomial::from_coeffs(v.into_iter().map(Torus32::from_raw).collect()))
}

fn int_poly(n: usize, bound: i64) -> impl Strategy<Value = Polynomial<i64>> {
    prop::collection::vec(-bound..bound, n).prop_map(Polynomial::from_coeffs)
}

fn torus_distance(a: f64, b: f64) -> f64 {
    let d = (a - b).rem_euclid(1.0);
    d.min(1.0 - d)
}

proptest! {
    #[test]
    fn torus_add_commutes(a: u32, b: u32) {
        let (a, b) = (Torus32::from_raw(a), Torus32::from_raw(b));
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn torus_add_neg_is_zero(a: u32) {
        let a = Torus32::from_raw(a);
        prop_assert_eq!(a + (-a), Torus32::ZERO);
    }

    #[test]
    fn torus_scalar_mul_distributes(a: u32, b: u32, k in -1000i64..1000) {
        let (a, b) = (Torus32::from_raw(a), Torus32::from_raw(b));
        prop_assert_eq!((a + b).scalar_mul(k), a.scalar_mul(k) + b.scalar_mul(k));
    }

    #[test]
    fn encode_decode_roundtrips(m in 0u64..256, p_log in 1u32..9) {
        let p = 1u64 << p_log;
        let m = m % p;
        prop_assert_eq!(Torus32::encode(m, p).decode(p), m);
    }

    #[test]
    fn mod_switch_error_is_half_step(raw: u32, n_log in 8u32..13) {
        let two_n = 1u64 << (n_log + 1);
        let t = Torus32::from_raw(raw);
        let switched = t.mod_switch(two_n) as f64 / two_n as f64;
        prop_assert!(torus_distance(switched, t.to_f64()) <= 0.5 / two_n as f64 + 1e-12);
    }

    #[test]
    fn rotation_composes(p in torus_poly(16), a in -64i64..64, b in -64i64..64) {
        prop_assert_eq!(p.monomial_mul(a).monomial_mul(b), p.monomial_mul(a + b));
    }

    #[test]
    fn rotation_by_2n_is_identity(p in torus_poly(16)) {
        prop_assert_eq!(p.monomial_mul(32), p);
    }

    #[test]
    fn rotation_preserves_sums_up_to_sign(p in torus_poly(8), a in 0i64..16) {
        // |coefficient multiset| is preserved by rotation (up to negation).
        let r = p.monomial_mul(a);
        let mut orig: Vec<u32> = p.iter().map(|c| c.into_raw().min(c.into_raw().wrapping_neg())).collect();
        let mut rot: Vec<u32> = r.iter().map(|c| c.into_raw().min(c.into_raw().wrapping_neg())).collect();
        orig.sort_unstable();
        rot.sort_unstable();
        prop_assert_eq!(orig, rot);
    }

    #[test]
    fn negacyclic_mul_associates_with_monomials(
        p in int_poly(8, 100),
        q in int_poly(8, 100),
        a in 0i64..16,
    ) {
        // (X^a · p) · q == X^a · (p · q)
        let lhs = mul_int_int(&p.monomial_mul(a), &q);
        let rhs = mul_int_int(&p, &q).monomial_mul(a);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn negacyclic_int_torus_matches_int_int_on_small_values(
        d in int_poly(8, 50),
        t in int_poly(8, 50),
    ) {
        // Embed the small integer poly into the torus (value * 1) and check
        // the torus product agrees with the integer product mod 2^32.
        let t_torus = t.map(|&c| Torus32::from_raw(c as u32));
        let exact = mul_int_int(&d, &t);
        let torus = mul_int_torus32(&d, &t_torus);
        for j in 0..8 {
            prop_assert_eq!(torus[j].into_raw(), exact[j] as u32);
        }
    }

    #[test]
    fn decomposition_error_bounded(raw: u32, b in 1u32..9, l in 1usize..4) {
        prop_assume!(b * l as u32 <= 32);
        let dec = SignedDecomposer::<Torus32>::new(DecompParams::new(b, l));
        let x = Torus32::from_raw(raw);
        let digits = dec.decompose_scalar(x);
        let half_beta = (1i64 << b) / 2;
        for &d in &digits {
            prop_assert!((-half_beta..half_beta).contains(&d));
        }
        let back = dec.recompose_scalar(&digits);
        let err = torus_distance(back.to_f64(), x.to_f64());
        prop_assert!(err <= dec.max_error() + 1e-12, "err={} bound={}", err, dec.max_error());
    }

    #[test]
    fn decomposition_of_negation_negates_digits_recomposition(raw: u32, b in 2u32..8, l in 1usize..4) {
        prop_assume!(b * l as u32 <= 32);
        let dec = SignedDecomposer::<Torus32>::new(DecompParams::new(b, l));
        let x = Torus32::from_raw(raw);
        // decompose(-x) recomposes to -(recompose(decompose(x))) up to the
        // rounding tie direction; check both are within 2*max_error of -x.
        let back_neg = dec.recompose_scalar(&dec.decompose_scalar(-x));
        let err = torus_distance(back_neg.to_f64(), (-x).to_f64());
        prop_assert!(err <= dec.max_error() + 1e-12);
    }

    #[test]
    fn poly_decomposition_is_the_scalar_carry_chain(
        p in torus_poly(16),
        seed: u32,
    ) {
        // The level-outer, carry-free polynomial path against the
        // per-coefficient carry chain, for every gadget that fits the
        // 32-bit torus. Half the coefficients are built to sit on the
        // chain's edges: every digit at β/2 − 1 plus a rounding carry-in
        // (the β/2 → −β/2 wrap rippling through all levels), every digit
        // at β/2, and the all-ones word whose top carry is dropped.
        for b in 1u32..=32 {
            for l in 1usize..=(32 / b) as usize {
                let dec = SignedDecomposer::<Torus32>::new(DecompParams::new(b, l));
                let total = b * l as u32;
                let top = |digits: u64| ((digits << (32 - total)) & 0xFFFF_FFFF) as u32;
                let half_beta = 1u64 << (b - 1);
                let every_digit = |d: u64| (0..l as u32).fold(0u64, |acc, j| acc | (d << (b * j)));
                let round_up = if total < 32 { 1u32 << (31 - total) } else { 0 };
                let edges = [
                    top(every_digit(half_beta - 1)) | round_up,
                    top(every_digit(half_beta)),
                    top(every_digit(half_beta)).wrapping_sub(1),
                    u32::MAX,
                    u32::MAX - round_up,
                    top(every_digit(half_beta - 1)) | round_up.saturating_sub(1),
                    seed,
                    seed.rotate_left(b),
                ];
                let p = Polynomial::from_fn(16, |j| {
                    if j % 2 == 0 { p[j] } else { Torus32::from_raw(edges[j / 2]) }
                });
                let mut out = vec![Polynomial::<i64>::zero(16); l];
                dec.decompose_poly_into(&p, &mut out);
                let mut digits = vec![0i64; l];
                for (j, &c) in p.iter().enumerate() {
                    dec.decompose_scalar_into(c, &mut digits);
                    for (i, dp) in out.iter().enumerate() {
                        prop_assert_eq!(dp[j], digits[i], "b={} l={} x={:#x} level {}", b, l, c.into_raw(), i);
                    }
                }
            }
        }
    }
}
