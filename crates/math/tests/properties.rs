//! Property-based tests for the math substrate.

use morphling_math::negacyclic::{mul_int_int, mul_int_torus32};
use morphling_math::{DecompParams, Polynomial, SignedDecomposer, Torus32, TorusScalar};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn torus_poly(rng: &mut StdRng, n: usize) -> Polynomial<Torus32> {
    Polynomial::from_fn(n, |_| Torus32::from_raw(rng.gen()))
}

fn int_poly(rng: &mut StdRng, n: usize, bound: i64) -> Polynomial<i64> {
    Polynomial::from_fn(n, |_| rng.gen_range(-bound..bound))
}

fn torus_distance(a: f64, b: f64) -> f64 {
    let d = (a - b).rem_euclid(1.0);
    d.min(1.0 - d)
}

#[test]
fn torus_add_commutes() {
    let mut rng = StdRng::seed_from_u64(0x3A7_0001);
    for case in 0..64 {
        let (a, b) = (Torus32::from_raw(rng.gen()), Torus32::from_raw(rng.gen()));
        assert_eq!(a + b, b + a, "case {case}: a={a:?} b={b:?}");
    }
}

#[test]
fn torus_add_neg_is_zero() {
    let mut rng = StdRng::seed_from_u64(0x3A7_0002);
    for case in 0..64 {
        let a = Torus32::from_raw(rng.gen());
        assert_eq!(a + (-a), Torus32::ZERO, "case {case}: a={a:?}");
    }
}

#[test]
fn torus_scalar_mul_distributes() {
    let mut rng = StdRng::seed_from_u64(0x3A7_0003);
    for case in 0..64 {
        let (a, b) = (Torus32::from_raw(rng.gen()), Torus32::from_raw(rng.gen()));
        let k = rng.gen_range(-1000i64..1000);
        let lhs = (a + b).scalar_mul(k);
        let rhs = a.scalar_mul(k) + b.scalar_mul(k);
        assert_eq!(lhs, rhs, "case {case}: a={a:?} b={b:?} k={k}");
    }
}

#[test]
fn encode_decode_roundtrips() {
    let mut rng = StdRng::seed_from_u64(0x3A7_0004);
    for case in 0..64 {
        let (m, p_log) = (rng.gen_range(0u64..256), rng.gen_range(1u32..9));
        let p = 1u64 << p_log;
        let m = m % p;
        let back = Torus32::encode(m, p).decode(p);
        assert_eq!(back, m, "case {case}: m={m} p={p}");
    }
}

#[test]
fn mod_switch_error_is_half_step() {
    let mut rng = StdRng::seed_from_u64(0x3A7_0005);
    for case in 0..64 {
        let (raw, n_log): (u32, _) = (rng.gen(), rng.gen_range(8u32..13));
        let two_n = 1u64 << (n_log + 1);
        let t = Torus32::from_raw(raw);
        let switched = t.mod_switch(two_n) as f64 / two_n as f64;
        let err = torus_distance(switched, t.to_f64());
        let bound = 0.5 / two_n as f64 + 1e-12;
        assert!(err <= bound, "case {case}: raw={raw:#x} 2N={two_n}");
    }
}

#[test]
fn rotation_composes() {
    let mut rng = StdRng::seed_from_u64(0x3A7_0006);
    for case in 0..64 {
        let p = torus_poly(&mut rng, 16);
        let (a, b) = (rng.gen_range(-64i64..64), rng.gen_range(-64i64..64));
        let lhs = p.monomial_mul(a).monomial_mul(b);
        let rhs = p.monomial_mul(a + b);
        assert_eq!(lhs, rhs, "case {case}: p={p:?} a={a} b={b}");
    }
}

#[test]
fn rotation_by_2n_is_identity() {
    let mut rng = StdRng::seed_from_u64(0x3A7_0007);
    for case in 0..64 {
        let p = torus_poly(&mut rng, 16);
        assert_eq!(p.monomial_mul(32), p, "case {case}: p={p:?}");
    }
}

#[test]
fn rotation_preserves_sums_up_to_sign() {
    // |coefficient multiset| is preserved by rotation (up to negation).
    let magnitudes = |q: &Polynomial<Torus32>| {
        let mut m: Vec<u32> = q
            .iter()
            .map(|c| c.into_raw().min(c.into_raw().wrapping_neg()))
            .collect();
        m.sort_unstable();
        m
    };
    let mut rng = StdRng::seed_from_u64(0x3A7_0008);
    for case in 0..64 {
        let (p, a) = (torus_poly(&mut rng, 8), rng.gen_range(0i64..16));
        let rot = magnitudes(&p.monomial_mul(a));
        assert_eq!(magnitudes(&p), rot, "case {case}: p={p:?} a={a}");
    }
}

#[test]
fn negacyclic_mul_associates_with_monomials() {
    let mut rng = StdRng::seed_from_u64(0x3A7_0009);
    for case in 0..64 {
        let (p, q) = (int_poly(&mut rng, 8, 100), int_poly(&mut rng, 8, 100));
        let a = rng.gen_range(0i64..16);
        // (X^a · p) · q == X^a · (p · q)
        let lhs = mul_int_int(&p.monomial_mul(a), &q);
        let rhs = mul_int_int(&p, &q).monomial_mul(a);
        assert_eq!(lhs, rhs, "case {case}: p={p:?} q={q:?} a={a}");
    }
}

#[test]
fn negacyclic_int_torus_matches_int_int_on_small_values() {
    let mut rng = StdRng::seed_from_u64(0x3A7_000A);
    for case in 0..64 {
        let (d, t) = (int_poly(&mut rng, 8, 50), int_poly(&mut rng, 8, 50));
        // Embed the small integer poly into the torus (value * 1) and check
        // the torus product agrees with the integer product mod 2^32.
        let t_torus = t.map(|&c| Torus32::from_raw(c as u32));
        let exact = mul_int_int(&d, &t).map(|&c| Torus32::from_raw(c as u32));
        let torus = mul_int_torus32(&d, &t_torus);
        assert_eq!(torus, exact, "case {case}: d={d:?} t={t:?}");
    }
}

#[test]
fn decomposition_error_bounded() {
    let mut rng = StdRng::seed_from_u64(0x3A7_000B);
    for case in 0..64 {
        let (raw, b, l): (u32, _, _) =
            (rng.gen(), rng.gen_range(1u32..9), rng.gen_range(1usize..4));
        if b * l as u32 > 32 {
            continue;
        }
        let dec = SignedDecomposer::<Torus32>::new(DecompParams::new(b, l));
        let x = Torus32::from_raw(raw);
        let digits = dec.decompose_scalar(x);
        let half_beta = (1i64 << b) / 2;
        let at = format!("case {case}: raw={raw:#x} b={b} l={l}");
        for &d in &digits {
            assert!((-half_beta..half_beta).contains(&d), "{at}: digit {d}");
        }
        let back = dec.recompose_scalar(&digits);
        let err = torus_distance(back.to_f64(), x.to_f64());
        let bound = dec.max_error();
        assert!(err <= bound + 1e-12, "{at}: err={err} bound={bound}");
    }
}

#[test]
fn decomposition_of_negation_negates_digits_recomposition() {
    let mut rng = StdRng::seed_from_u64(0x3A7_000C);
    for case in 0..64 {
        let (raw, b, l): (u32, _, _) =
            (rng.gen(), rng.gen_range(2u32..8), rng.gen_range(1usize..4));
        if b * l as u32 > 32 {
            continue;
        }
        let dec = SignedDecomposer::<Torus32>::new(DecompParams::new(b, l));
        let x = Torus32::from_raw(raw);
        // decompose(-x) recomposes to -(recompose(decompose(x))) up to the
        // rounding tie direction; check both are within 2*max_error of -x.
        let back_neg = dec.recompose_scalar(&dec.decompose_scalar(-x));
        let err = torus_distance(back_neg.to_f64(), (-x).to_f64());
        let at = format!("case {case}: raw={raw:#x} b={b} l={l}");
        assert!(err <= dec.max_error() + 1e-12, "{at}: err={err}");
    }
}

#[test]
fn poly_decomposition_is_the_scalar_carry_chain() {
    let mut rng = StdRng::seed_from_u64(0x3A7_000D);
    for case in 0..64 {
        let (p, seed): (_, u32) = (torus_poly(&mut rng, 16), rng.gen());
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
                    if j % 2 == 0 {
                        p[j]
                    } else {
                        Torus32::from_raw(edges[j / 2])
                    }
                });
                let mut out = vec![Polynomial::<i64>::zero(16); l];
                dec.decompose_poly_into(&p, &mut out);
                let mut digits = vec![0i64; l];
                for (j, &c) in p.iter().enumerate() {
                    dec.decompose_scalar_into(c, &mut digits);
                    for (i, dp) in out.iter().enumerate() {
                        let x = c.into_raw();
                        assert_eq!(
                            dp[j], digits[i],
                            "case {case}: seed={seed:#x} b={b} l={l} x={x:#x} level {i}"
                        );
                    }
                }
            }
        }
    }
}
