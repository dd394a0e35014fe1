//! Discretized-torus scalar types.
//!
//! TFHE works over the real torus `T = R/Z`. Implementations discretize it to
//! `T_q = {0, 1/q, ..., (q-1)/q}` with `q = 2^32` (the paper's datapath) or
//! `q = 2^64`. A torus element is then just a machine word with *wrapping*
//! arithmetic: addition on the torus is addition mod 1, i.e. wrapping integer
//! addition; multiplication between two torus elements is undefined, but a
//! torus element can be scaled by a (signed) integer.

use std::fmt;
use std::ops::{Add, AddAssign, Neg, Sub, SubAssign};

/// Abstraction over the machine word backing a discretized torus element.
///
/// Implemented for [`Torus32`] (the paper's 32-bit coefficients) and
/// [`Torus64`]. This trait is sealed: it exists so that polynomial and
/// ciphertext code in higher crates can be written once for both widths.
pub trait TorusScalar:
    Copy
    + Clone
    + fmt::Debug
    + Default
    + PartialEq
    + Eq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + Send
    + Sync
    + 'static
    + private::Sealed
{
    /// Number of bits in the backing word (i.e. `log2 q`).
    const BITS: u32;

    /// The additive identity `0`.
    const ZERO: Self;

    /// Construct from a real torus value in `[0, 1)` (wrapping outside).
    fn from_f64(x: f64) -> Self;

    /// Convert to the representative real value in `[0, 1)`.
    fn to_f64(self) -> f64;

    /// Convert to the *centered* representative in `[-0.5, 0.5)`.
    fn to_f64_signed(self) -> f64;

    /// Raw value as `u64` (zero-extended for 32-bit).
    fn to_u64(self) -> u64;

    /// Construct from the low bits of a `u64`.
    fn from_u64(raw: u64) -> Self;

    /// Multiply by a signed integer (external Z-module action).
    fn scalar_mul(self, k: i64) -> Self;

    /// Encode a message `m ∈ Z_p` into the torus as `m / p` (p need not
    /// divide q; rounding to the nearest representable value).
    fn encode(message: u64, p: u64) -> Self;

    /// Decode a torus value back to `Z_p` by rounding to the nearest
    /// multiple of `1/p`.
    fn decode(self, p: u64) -> u64;

    /// Modulus-switch to modulus `2N`: returns `round(self * 2N / q)`
    /// reduced mod `2N`. This is the paper's MS step (§II-B).
    fn mod_switch(self, two_n: u64) -> u64;
}

mod private {
    pub trait Sealed {}
    impl Sealed for super::Torus32 {}
    impl Sealed for super::Torus64 {}
}

macro_rules! torus_impl {
    ($name:ident, $raw:ty, $wide:ty, $iwide:ty, $bits:expr, $doc:expr) => {
        #[doc = $doc]
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
        pub struct $name($raw);

        impl $name {
            /// The additive identity.
            pub const ZERO: Self = Self(0);

            /// `1/2` on the torus (the most-significant bit set).
            pub const HALF: Self = Self(1 << ($bits - 1));

            /// Construct from the raw fixed-point representation.
            #[inline]
            pub const fn from_raw(raw: $raw) -> Self {
                Self(raw)
            }

            /// The raw fixed-point representation (numerator of `x/q`).
            #[inline]
            pub const fn into_raw(self) -> $raw {
                self.0
            }

            /// Wrapping addition (torus addition is addition mod 1).
            #[inline]
            pub fn wrapping_add(self, rhs: Self) -> Self {
                Self(self.0.wrapping_add(rhs.0))
            }

            /// Wrapping subtraction.
            #[inline]
            pub fn wrapping_sub(self, rhs: Self) -> Self {
                Self(self.0.wrapping_sub(rhs.0))
            }

            /// Centered signed representative as the signed integer of the
            /// same width: values ≥ q/2 map to negatives.
            #[inline]
            pub fn to_signed(self) -> $iwide {
                self.0 as $iwide
            }
        }

        impl TorusScalar for $name {
            const BITS: u32 = $bits;
            const ZERO: Self = Self(0);

            // Always inlined: the Gaussian sampler's lane code calls it in
            // a vector frame, where an out-of-line call would stop the loop
            // from vectorizing.
            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                // Reduce to [0,1), then scale. `x − ⌊x⌋` is `rem_euclid(1.0)`
                // to the bit but for the sign of a zero (which the scale
                // and round below erase), and unlike `fmod` it vectorizes.
                let frac = x - x.floor();
                // The scale can round up to exactly 2^BITS; wrap that to 0.
                let scaled = (frac * (2.0f64).powi($bits as i32)).round();
                Self(scaled as $wide as $raw)
            }

            #[inline]
            fn to_f64(self) -> f64 {
                self.0 as f64 / (2.0f64).powi($bits as i32)
            }

            #[inline]
            fn to_f64_signed(self) -> f64 {
                (self.0 as $iwide) as f64 / (2.0f64).powi($bits as i32)
            }

            #[inline]
            fn to_u64(self) -> u64 {
                self.0 as u64
            }

            #[inline]
            fn from_u64(raw: u64) -> Self {
                Self(raw as $raw)
            }

            #[inline]
            fn scalar_mul(self, k: i64) -> Self {
                Self((self.0 as $wide).wrapping_mul(k as $wide) as $raw)
            }

            #[inline]
            fn encode(message: u64, p: u64) -> Self {
                assert!(p > 0, "plaintext modulus must be positive");
                let m = message % p;
                if p.is_power_of_two() && p as u128 <= (1u128 << $bits) {
                    // Exact encoding: m * q / p.
                    let shift = $bits - p.trailing_zeros();
                    Self(((m as $wide) << shift) as $raw)
                } else {
                    Self::from_f64(m as f64 / p as f64)
                }
            }

            #[inline]
            fn decode(self, p: u64) -> u64 {
                assert!(p > 0, "plaintext modulus must be positive");
                // round(self * p / q) mod p, computed in 128-bit to stay exact.
                let prod = (self.0 as u128) * (p as u128);
                let half = 1u128 << ($bits - 1);
                (((prod + half) >> $bits) as u64) % p
            }

            #[inline]
            fn mod_switch(self, two_n: u64) -> u64 {
                debug_assert!(two_n.is_power_of_two());
                let prod = (self.0 as u128) * (two_n as u128);
                let half = 1u128 << ($bits - 1);
                (((prod + half) >> $bits) as u64) % two_n
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                self.wrapping_add(rhs)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                *self = self.wrapping_add(rhs);
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                self.wrapping_sub(rhs)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                *self = self.wrapping_sub(rhs);
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(self.0.wrapping_neg())
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(
                    f,
                    concat!(stringify!($name), "({:#x} ~ {:.6})"),
                    self.0,
                    self.to_f64()
                )
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.6}", self.to_f64())
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl fmt::UpperHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::UpperHex::fmt(&self.0, f)
            }
        }

        impl fmt::Binary for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Binary::fmt(&self.0, f)
            }
        }

        impl From<$raw> for $name {
            #[inline]
            fn from(raw: $raw) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for $raw {
            #[inline]
            fn from(t: $name) -> $raw {
                t.0
            }
        }
    };
}

torus_impl!(
    Torus32,
    u32,
    u64,
    i32,
    32,
    "An element of the discretized torus `T_q` with `q = 2^32`, stored as the\n\
     fixed-point numerator. This is the coefficient type of the paper's\n\
     256-bit (eight-element) polynomial datapath."
);

torus_impl!(
    Torus64,
    u64,
    u128,
    i64,
    64,
    "An element of the discretized torus `T_q` with `q = 2^64`. Used for\n\
     headroom experiments; the primary datapath type is [`Torus32`]."
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_wraps_like_the_torus() {
        let a = Torus32::from_f64(0.75);
        let b = Torus32::from_f64(0.5);
        let c = a + b;
        assert!((c.to_f64() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn negation_is_one_minus_x() {
        let a = Torus32::from_f64(0.25);
        assert!(((-a).to_f64() - 0.75).abs() < 1e-9);
        assert_eq!(-Torus32::ZERO, Torus32::ZERO);
    }

    #[test]
    fn encode_decode_roundtrip_all_messages() {
        for p in [2u64, 4, 8, 16, 256] {
            for m in 0..p {
                let t = Torus32::encode(m, p);
                assert_eq!(t.decode(p), m, "p={p} m={m}");
            }
        }
    }

    #[test]
    fn encode_decode_non_power_of_two() {
        for p in [3u64, 5, 10, 100] {
            for m in 0..p {
                let t = Torus64::encode(m, p);
                assert_eq!(t.decode(p), m, "p={p} m={m}");
            }
        }
    }

    #[test]
    fn decode_tolerates_noise_below_half_step() {
        let p = 8u64;
        let m = 5u64;
        let step = 1u32 << (32 - 3); // q/p
        let noise = (step / 2) - 1;
        let noisy = Torus32::encode(m, p) + Torus32::from_raw(noise);
        assert_eq!(noisy.decode(p), m);
        let noisy = Torus32::encode(m, p) - Torus32::from_raw(noise);
        assert_eq!(noisy.decode(p), m);
    }

    #[test]
    fn scalar_mul_matches_repeated_addition() {
        let a = Torus32::from_raw(0x1234_5678);
        let mut sum = Torus32::ZERO;
        for _ in 0..17 {
            sum += a;
        }
        assert_eq!(a.scalar_mul(17), sum);
        assert_eq!(a.scalar_mul(-1), -a);
        assert_eq!(a.scalar_mul(0), Torus32::ZERO);
    }

    #[test]
    fn mod_switch_rounds_to_nearest() {
        let two_n = 2048u64;
        // 0.5 on the torus → N.
        assert_eq!(Torus32::HALF.mod_switch(two_n), 1024);
        // A value just below wrapping rounds to 0 (mod 2N).
        let eps = Torus32::from_raw(u32::MAX);
        assert_eq!(eps.mod_switch(two_n), 0);
    }

    #[test]
    fn from_f64_wraps_negative_values() {
        let a = Torus32::from_f64(-0.25);
        assert!((a.to_f64() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn from_f64_is_the_rem_euclid_spelling_to_the_bit() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // What `from_f64` was: the fractional part through `fmod`.
        let old32 = |x: f64| (x.rem_euclid(1.0) * 2f64.powi(32)).round() as u64 as u32;
        let old64 = |x: f64| (x.rem_euclid(1.0) * 2f64.powi(64)).round() as u128 as u64;
        let two_52 = 2f64.powi(52);
        let edges = [
            0.0,
            -0.0,
            -1.0,
            -2.0,
            -3.0,
            -(2f64.powi(40)),
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            2f64.powi(-60),
            -(2f64.powi(-60)),
            -0.25,
            0.5,
            -0.5,
            1.0 - f64::EPSILON / 2.0,
            -(1.0 - f64::EPSILON / 2.0),
            two_52,
            -two_52,
            two_52 + 1.0,
            -(two_52 + 1.0),
            two_52 - 0.5,
            -(two_52 - 0.5),
            2f64.powi(53),
            -(2f64.powi(64)),
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let mut rng = StdRng::seed_from_u64(11);
        // Random bit patterns, then as many of a magnitude near the torus's.
        let random = (0..1_000_000).map(|i| {
            let bits: u64 = rng.gen();
            let x = f64::from_bits(bits);
            if i % 2 == 0 {
                x
            } else {
                // Exponent within 2^±64 of one.
                f64::from_bits(bits & !(0x7ff << 52) | ((1023 - 64 + (bits >> 52) % 128) << 52))
            }
        });
        for x in edges.into_iter().chain(random) {
            assert_eq!(
                Torus32::from_f64(x).into_raw(),
                old32(x),
                "Torus32 of {x:e}"
            );
            assert_eq!(
                Torus64::from_f64(x).into_raw(),
                old64(x),
                "Torus64 of {x:e}"
            );
        }
    }

    #[test]
    fn signed_representative_is_centered() {
        assert!(Torus32::from_f64(0.75).to_f64_signed() < 0.0);
        assert!((Torus32::from_f64(0.75).to_f64_signed() + 0.25).abs() < 1e-9);
    }

    #[test]
    fn torus64_basics() {
        let a = Torus64::from_f64(0.5);
        assert_eq!(a, Torus64::HALF);
        assert_eq!((a + a), Torus64::ZERO);
    }
}
