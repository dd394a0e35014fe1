//! Multi-ciphertext ("radix") integers — large-precision plaintexts split
//! across several small-parameter ciphertexts.
//!
//! The paper's §I motivates exactly this: "To keep the ciphertext
//! parameter small, the TFHE scheme encrypts large-precision plaintext
//! into multiple ciphertexts \[18\]. From a hardware perspective, the
//! operation can be seen as the computation of multiple small-parameter
//! ciphertexts" — the independent per-digit bootstraps are what Morphling
//! batches across its VPE rows.
//!
//! Encoding (Concrete/TFHE-rs "shortint" style): each digit holds
//! `message_bits` bits of payload inside a plaintext space of
//! `2^(2·message_bits)`, leaving *carry space* above the payload so that a
//! handful of leveled additions cannot overflow before a bootstrap cleans
//! the digit up.

use rand::Rng;

use crate::keys::ClientKey;
use crate::lut::Lut;
use crate::lwe::LweCiphertext;
use crate::server::ServerKey;

/// Parameters of the radix encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RadixSpec {
    /// Payload bits per digit (base = `2^message_bits`).
    pub message_bits: u32,
    /// Number of digits.
    pub digits: usize,
}

impl RadixSpec {
    /// Create a spec.
    ///
    /// # Panics
    ///
    /// Panics if `message_bits == 0` or `digits == 0`; if
    /// `message_bits >= 32` (the digit modulus `2^(2·message_bits)` must
    /// fit in a `u64`); or if `message_bits · digits > 64` (values are
    /// decoded into a `u64` accumulator).
    pub fn new(message_bits: u32, digits: usize) -> Self {
        assert!(message_bits > 0, "digits need at least one payload bit");
        assert!(digits > 0, "at least one digit is required");
        assert!(
            message_bits < 32,
            "message_bits {message_bits} too large: digit modulus 2^(2*message_bits) must fit in u64"
        );
        assert!(
            u64::from(message_bits) * digits as u64 <= 64,
            "total bits {} exceed the 64-bit value range",
            u64::from(message_bits) * digits as u64
        );
        Self {
            message_bits,
            digits,
        }
    }

    /// Digit base `2^message_bits`.
    pub fn base(&self) -> u64 {
        1u64 << self.message_bits
    }

    /// Plaintext modulus per digit (payload + carry space).
    pub fn digit_modulus(&self) -> u64 {
        1u64 << (2 * self.message_bits)
    }

    /// Total representable bits.
    pub fn total_bits(&self) -> u32 {
        self.message_bits * self.digits as u32
    }

    /// Largest representable value.
    pub(crate) fn max_value(&self) -> u64 {
        if self.total_bits() >= 64 {
            u64::MAX
        } else {
            (1u64 << self.total_bits()) - 1
        }
    }
}

/// An encrypted unsigned integer: little-endian digits, each an LWE
/// ciphertext with carry space.
#[derive(Clone, Debug)]
pub struct RadixCiphertext {
    digits: Vec<LweCiphertext>,
    spec: RadixSpec,
}

impl RadixCiphertext {
    /// The encoding parameters.
    pub fn spec(&self) -> RadixSpec {
        self.spec
    }

    /// The digit ciphertexts, least significant first.
    pub fn digits(&self) -> &[LweCiphertext] {
        &self.digits
    }
}

/// Client-side radix encryption/decryption.
pub trait RadixClient {
    /// Encrypt `value` under `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `value` exceeds the representable range, or if the key's
    /// plaintext modulus differs from the spec's digit modulus.
    fn encrypt_radix<R: Rng + ?Sized>(
        &self,
        value: u64,
        spec: RadixSpec,
        rng: &mut R,
    ) -> RadixCiphertext;

    /// Decrypt a radix ciphertext (tolerates unpropagated carries).
    fn decrypt_radix(&self, ct: &RadixCiphertext) -> u64;
}

impl RadixClient for ClientKey {
    fn encrypt_radix<R: Rng + ?Sized>(
        &self,
        value: u64,
        spec: RadixSpec,
        rng: &mut R,
    ) -> RadixCiphertext {
        assert!(value <= spec.max_value(), "value {value} out of range");
        assert_eq!(
            self.params().plaintext_modulus,
            spec.digit_modulus(),
            "client key plaintext modulus must equal the digit modulus (payload + carry)"
        );
        let base = spec.base();
        let mut v = value;
        let digits = (0..spec.digits)
            .map(|_| {
                let d = v % base;
                v /= base;
                self.encrypt(d, rng)
            })
            .collect();
        RadixCiphertext { digits, spec }
    }

    fn decrypt_radix(&self, ct: &RadixCiphertext) -> u64 {
        let base = ct.spec.base();
        // Carries that have not been propagated homomorphically are
        // resolved here during decoding (little-endian scan).
        let mut acc = 0u64;
        let mut carry = 0u64;
        for (i, d) in ct.digits.iter().enumerate() {
            let raw = self.decrypt(d) + carry;
            // Checked shift: digits above the 64-bit accumulator (possible
            // only for hand-built specs bypassing `RadixSpec::new`) are
            // masked away rather than panicking on shift overflow; the top
            // digit of an exactly-64-bit spec wraps into the mask too.
            let shift = u64::from(ct.spec.message_bits) * i as u64;
            if shift < 64 {
                acc = acc.wrapping_add((raw % base).wrapping_shl(shift as u32));
            }
            carry = raw / base;
        }
        acc & ct.spec.max_value()
    }
}

/// Server-side radix arithmetic.
pub trait RadixServer {
    /// Digit-wise homomorphic addition (leveled — fills carry space; call
    /// [`RadixServer::propagate_carries`] before the space overflows).
    fn radix_add(&self, a: &RadixCiphertext, b: &RadixCiphertext) -> RadixCiphertext;

    /// Add a small clear scalar (leveled).
    fn radix_scalar_add(&self, a: &RadixCiphertext, scalar: u64) -> RadixCiphertext;

    /// Propagate carries with bootstraps: after this, every digit is
    /// reduced below the base and noise is fresh. Costs `2` PBS per digit.
    fn propagate_carries(&self, a: &RadixCiphertext) -> RadixCiphertext;

    /// Homomorphic `a ≥ b`, returning an encryption of 0/1 in the digit
    /// space. Requires both inputs carry-propagated. Costs ≈ 2 PBS per
    /// digit.
    fn radix_ge(&self, a: &RadixCiphertext, b: &RadixCiphertext) -> LweCiphertext;

    /// Homomorphic multiplication `a · b mod base^digits`. Requires both
    /// inputs carry-propagated. Digit products are evaluated by packing a
    /// digit pair into one plaintext (`x·base + y < base²` — exactly the
    /// digit modulus) and bootstrapping a product LUT; two carry-
    /// propagation stages keep every accumulator inside the carry space.
    /// Costs ≈ `digits²` product bootstraps plus two propagations.
    fn radix_mul(&self, a: &RadixCiphertext, b: &RadixCiphertext) -> RadixCiphertext;
}

impl RadixServer for ServerKey {
    fn radix_add(&self, a: &RadixCiphertext, b: &RadixCiphertext) -> RadixCiphertext {
        assert_eq!(a.spec, b.spec, "radix spec mismatch");
        let digits = a
            .digits
            .iter()
            .zip(&b.digits)
            .map(|(x, y)| x.add(y))
            .collect();
        RadixCiphertext {
            digits,
            spec: a.spec,
        }
    }

    fn radix_scalar_add(&self, a: &RadixCiphertext, scalar: u64) -> RadixCiphertext {
        assert!(scalar <= a.spec.max_value(), "scalar out of range");
        let base = a.spec.base();
        let p = a.spec.digit_modulus();
        let mut v = scalar;
        let digits = a
            .digits
            .iter()
            .map(|x| {
                let d = v % base;
                v /= base;
                x.add_plain(morphling_math::TorusScalar::encode(d, 2 * p))
            })
            .collect();
        RadixCiphertext {
            digits,
            spec: a.spec,
        }
    }

    fn propagate_carries(&self, a: &RadixCiphertext) -> RadixCiphertext {
        let spec = a.spec;
        let base = spec.base();
        let p = spec.digit_modulus();
        let n_poly = self.params().poly_size;
        let message_lut = Lut::from_fn(n_poly, p, move |x| x % base);
        let carry_lut = Lut::from_fn(n_poly, p, move |x| x / base);
        let mut digits = Vec::with_capacity(spec.digits);
        let mut carry: Option<LweCiphertext> = None;
        for d in &a.digits {
            let with_carry = match &carry {
                Some(c) => d.add(c),
                None => d.clone(),
            };
            digits.push(self.programmable_bootstrap(&with_carry, &message_lut));
            carry = Some(self.programmable_bootstrap(&with_carry, &carry_lut));
        }
        RadixCiphertext { digits, spec }
    }

    fn radix_ge(&self, a: &RadixCiphertext, b: &RadixCiphertext) -> LweCiphertext {
        assert_eq!(a.spec, b.spec, "radix spec mismatch");
        let spec = a.spec;
        let base = spec.base();
        let p = spec.digit_modulus();
        let n_poly = self.params().poly_size;
        // Per-digit three-way comparison: 0 = less, 1 = equal, 2 = greater,
        // computed from the (carry-space-safe) difference x − y + base.
        let cmp_lut = Lut::from_fn(n_poly, p, move |shifted| match shifted.cmp(&base) {
            std::cmp::Ordering::Less => 0,
            std::cmp::Ordering::Equal => 1,
            std::cmp::Ordering::Greater => 2,
        });
        let offset = morphling_math::TorusScalar::encode(base, 2 * p);
        let cmps: Vec<LweCiphertext> = a
            .digits
            .iter()
            .zip(&b.digits)
            .map(|(x, y)| self.programmable_bootstrap(&x.sub(y).add_plain(offset), &cmp_lut))
            .collect();
        // Fold most-significant first: acc ∈ {0 lt, 1 eq, 2 gt};
        // new_acc = acc unless acc == eq, in which case the digit decides.
        let fold_lut = Lut::from_fn(n_poly, p, |packed| {
            let acc = packed / 3 % 3;
            let digit = packed % 3;
            if acc == 1 {
                digit
            } else {
                acc
            }
        });
        let mut acc = cmps.last().expect("at least one digit").clone();
        for c in cmps.iter().rev().skip(1) {
            let packed = acc.scalar_mul(3).add(c);
            acc = self.programmable_bootstrap(&packed, &fold_lut);
        }
        // acc ∈ {0, 1, 2} → ge = acc ≥ 1.
        let ge_lut = Lut::from_fn(n_poly, p, |acc| u64::from(acc >= 1));
        self.programmable_bootstrap(&acc, &ge_lut)
    }

    fn radix_mul(&self, a: &RadixCiphertext, b: &RadixCiphertext) -> RadixCiphertext {
        assert_eq!(a.spec, b.spec, "radix spec mismatch");
        let spec = a.spec;
        let base = spec.base();
        let p = spec.digit_modulus();
        let n_poly = self.params().poly_size;
        // Digit product LUTs over the packed pair (x·base + y).
        let lo_lut = Lut::from_fn(n_poly, p, move |packed| {
            (packed / base) * (packed % base) % base
        });
        let hi_lut = Lut::from_fn(n_poly, p, move |packed| {
            (packed / base) * (packed % base) / base
        });

        let zero = LweCiphertext::trivial(morphling_math::Torus32::ZERO, self.params().lwe_dim);
        let mut lo_cols: Vec<LweCiphertext> = vec![zero.clone(); spec.digits];
        let mut hi_cols: Vec<LweCiphertext> = vec![zero; spec.digits];
        for (i, x) in a.digits.iter().enumerate() {
            for (j, y) in b.digits.iter().enumerate() {
                if i + j >= spec.digits {
                    continue; // overflows past the top digit
                }
                let packed = x.scalar_mul(base as i64).add(y);
                let lo = self.programmable_bootstrap(&packed, &lo_lut);
                lo_cols[i + j] = lo_cols[i + j].add(&lo);
                if i + j + 1 < spec.digits {
                    let hi = self.programmable_bootstrap(&packed, &hi_lut);
                    hi_cols[i + j + 1] = hi_cols[i + j + 1].add(&hi);
                }
            }
        }
        // Stage 1: low halves (each column ≤ digits·(base−1) < base²).
        let stage1 = self.propagate_carries(&RadixCiphertext {
            digits: lo_cols,
            spec,
        });
        // Stage 2: add the high halves onto clean digits and propagate.
        let digits = stage1
            .digits
            .iter()
            .zip(&hi_cols)
            .map(|(d, h)| d.add(h))
            .collect();
        self.propagate_carries(&RadixCiphertext { digits, spec })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ClientKey, ServerKey, StdRng, RadixSpec) {
        let spec = RadixSpec::new(2, 4); // 8-bit integers in 4 base-4 digits
        let mut rng = StdRng::seed_from_u64(300);
        let params = ParamSet::TestMedium
            .params()
            .with_plaintext_modulus(spec.digit_modulus());
        let ck = ClientKey::generate(params, &mut rng);
        let sk = ServerKey::new(&ck, &mut rng);
        (ck, sk, rng, spec)
    }

    #[test]
    fn spec_arithmetic() {
        let spec = RadixSpec::new(2, 4);
        assert_eq!(spec.base(), 4);
        assert_eq!(spec.digit_modulus(), 16);
        assert_eq!(spec.total_bits(), 8);
        assert_eq!(spec.max_value(), 255);
    }

    #[test]
    fn radix_roundtrip() {
        let (ck, _sk, mut rng, spec) = setup();
        for v in [0u64, 1, 77, 128, 255] {
            let ct = ck.encrypt_radix(v, spec, &mut rng);
            assert_eq!(ck.decrypt_radix(&ct), v, "v={v}");
        }
    }

    #[test]
    fn leveled_addition_then_propagation() {
        let (ck, sk, mut rng, spec) = setup();
        for (x, y) in [(13u64, 29u64), (100, 155), (77, 77), (255, 0)] {
            let a = ck.encrypt_radix(x, spec, &mut rng);
            let b = ck.encrypt_radix(y, spec, &mut rng);
            let sum = sk.radix_add(&a, &b);
            // Decodable even before homomorphic carry propagation…
            assert_eq!(ck.decrypt_radix(&sum), (x + y) & 0xFF, "pre-prop {x}+{y}");
            // …and each digit is clean after propagation.
            let clean = sk.propagate_carries(&sum);
            assert_eq!(
                ck.decrypt_radix(&clean),
                (x + y) & 0xFF,
                "post-prop {x}+{y}"
            );
            for d in clean.digits() {
                assert!(ck.decrypt(d) < spec.base(), "digit not reduced");
            }
        }
    }

    #[test]
    fn scalar_addition() {
        let (ck, sk, mut rng, spec) = setup();
        let a = ck.encrypt_radix(200, spec, &mut rng);
        let shifted = sk.radix_scalar_add(&a, 54);
        assert_eq!(ck.decrypt_radix(&shifted), 254);
    }

    #[test]
    fn comparison() {
        let (ck, sk, mut rng, spec) = setup();
        for (x, y) in [(5u64, 5u64), (254, 255), (255, 254), (0, 200), (129, 128)] {
            let a = ck.encrypt_radix(x, spec, &mut rng);
            let b = ck.encrypt_radix(y, spec, &mut rng);
            let ge = sk.radix_ge(&a, &b);
            assert_eq!(ck.decrypt(&ge), u64::from(x >= y), "{x} >= {y}");
        }
    }

    #[test]
    #[should_panic(expected = "must fit in u64")]
    fn spec_rejects_wide_message_bits() {
        // 2·32 = 64-bit shift in `digit_modulus` — rejected at construction
        // instead of overflowing there.
        let _ = RadixSpec::new(32, 1);
    }

    #[test]
    #[should_panic(expected = "64-bit value range")]
    fn spec_rejects_specs_past_64_bits() {
        let _ = RadixSpec::new(2, 33);
    }

    #[test]
    fn boundary_64_bit_spec_round_trips() {
        // Exactly 64 total bits: `max_value` saturates at u64::MAX and the
        // top digit shifts by 62 — the regression site for the old
        // unchecked `<<` in the decrypt accumulation.
        let spec = RadixSpec::new(2, 32);
        assert_eq!(spec.total_bits(), 64);
        assert_eq!(spec.max_value(), u64::MAX);
        let mut rng = StdRng::seed_from_u64(301);
        let params = ParamSet::Test
            .params()
            .with_plaintext_modulus(spec.digit_modulus())
            .noiseless();
        let ck = ClientKey::generate(params, &mut rng);
        for v in [0u64, 1, 0x0123_4567_89AB_CDEF, u64::MAX - 1, u64::MAX] {
            let ct = ck.encrypt_radix(v, spec, &mut rng);
            assert_eq!(ck.decrypt_radix(&ct), v, "v={v:#x}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_value_rejected() {
        let (ck, _sk, mut rng, spec) = setup();
        let _ = ck.encrypt_radix(256, spec, &mut rng);
    }

    #[test]
    fn multiplication() {
        let (ck, sk, mut rng, spec) = setup();
        for (x, y) in [(7u64, 9u64), (15, 17), (0, 123), (250, 3), (255, 255)] {
            let a = ck.encrypt_radix(x, spec, &mut rng);
            let b = ck.encrypt_radix(y, spec, &mut rng);
            let prod = sk.radix_mul(&a, &b);
            assert_eq!(ck.decrypt_radix(&prod), (x * y) & 0xFF, "{x}*{y}");
            for d in prod.digits() {
                assert!(ck.decrypt(d) < spec.base(), "digit not reduced after mul");
            }
        }
    }
}
