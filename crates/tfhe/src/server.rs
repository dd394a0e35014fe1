//! The server key: all public material and homomorphic operations,
//! including programmable bootstrapping and bootstrapped boolean gates.

use morphling_math::{Torus32, TorusScalar};
use rand::Rng;

use crate::bootstrap::{
    blind_rotate_assign_many, initial_accumulator, modulus_switch, sample_extract,
};
use crate::bootstrap_key::BootstrapKey;
use crate::error::TfheError;
use crate::external_product::ExternalProductEngine;
use crate::glwe::GlweCiphertext;
use crate::keys::ClientKey;
use crate::ksk::KeySwitchKey;
use crate::lut::Lut;
use crate::lwe::LweCiphertext;
use crate::multivalue::MultiLutPlan;
use crate::params::TfheParams;
use crate::workspace::BootstrapWorkspace;

/// Per-call knobs for [`ServerKey::bootstrap_with_options`] — the single
/// entry point `programmable_bootstrap` delegates to.
///
/// Defaults match `programmable_bootstrap`: key switch on, a fresh
/// workspace allocated internally.
///
/// ```
/// use morphling_tfhe::{BootstrapOptions, ClientKey, Lut, ParamSet, ServerKey};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let client = ClientKey::generate(ParamSet::Test.params(), &mut rng);
/// let server = ServerKey::new(&client, &mut rng);
/// let lut = Lut::identity(server.params().poly_size, 4);
/// let ct = client.encrypt(2, &mut rng);
/// let mut ws = server.workspace();
/// let out = server
///     .bootstrap_with_options(&ct, &lut, BootstrapOptions::new().workspace(&mut ws))
///     .unwrap();
/// assert_eq!(client.decrypt(&out), 2);
/// ```
#[derive(Debug)]
#[must_use = "options do nothing until passed to bootstrap_with_options"]
pub struct BootstrapOptions<'a> {
    keyswitch: bool,
    workspace: Option<&'a mut BootstrapWorkspace>,
}

impl Default for BootstrapOptions<'_> {
    fn default() -> Self {
        Self {
            keyswitch: true,
            workspace: None,
        }
    }
}

impl<'a> BootstrapOptions<'a> {
    /// The defaults: key switch on, internal workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether to key-switch the extracted sample back to the small LWE
    /// key (`false` leaves the result under the extracted `k·N` key).
    pub fn keyswitch(mut self, on: bool) -> Self {
        self.keyswitch = on;
        self
    }

    /// Route the blind rotation through a caller-owned workspace; with a
    /// warm workspace the blind rotation allocates nothing.
    pub fn workspace(mut self, ws: &'a mut BootstrapWorkspace) -> Self {
        self.workspace = Some(ws);
        self
    }
}

/// One item of a bootstrap chunk: a ciphertext and the LUTs it is
/// evaluated through, in output order. One LUT is a plain bootstrap;
/// several are a multi-value bootstrap (one rotation when they share a
/// factor); none produce nothing.
pub(crate) type ChunkItem<'a> = (&'a LweCiphertext, Vec<&'a Lut>);

/// Public evaluation key material: bootstrapping key, key-switching key,
/// and the transform engine.
///
/// `ServerKey` is `Send + Sync`: one key can drive any number of worker
/// threads (see [`BootstrapEngine`](crate::BootstrapEngine)); the
/// transform engines it uses come from a process-global `Arc` cache.
///
/// See the [crate-level example](crate) for typical usage.
#[derive(Debug)]
pub struct ServerKey {
    params: TfheParams,
    bsk: BootstrapKey,
    ksk: KeySwitchKey,
    engine: ExternalProductEngine,
}

// The engine's worker pool shares one key behind an `Arc`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServerKey>()
};

impl ServerKey {
    /// Derive the server key from a client key: generates the BSK, then
    /// the KSK.
    pub fn new<R: Rng + ?Sized>(client: &ClientKey, rng: &mut R) -> Self {
        let params = client.params().clone();
        let bsk = BootstrapKey::generate(client, rng);
        let ksk = KeySwitchKey::generate(
            &client.glwe_key().to_extracted_lwe_key(),
            client.lwe_key(),
            &params,
            rng,
        );
        Self::from_parts(params, bsk, ksk)
    }

    /// Reassemble a server key from its public parts (deserialization
    /// path): the transform engine is rebuilt locally from `params`.
    pub(crate) fn from_parts(params: TfheParams, bsk: BootstrapKey, ksk: KeySwitchKey) -> Self {
        let engine = ExternalProductEngine::new(&params);
        Self {
            params,
            bsk,
            ksk,
            engine,
        }
    }

    /// The parameter set.
    pub fn params(&self) -> &TfheParams {
        &self.params
    }

    /// The bootstrapping key.
    pub fn bootstrap_key(&self) -> &BootstrapKey {
        &self.bsk
    }

    /// The key-switching key.
    pub fn key_switch_key(&self) -> &KeySwitchKey {
        &self.ksk
    }

    /// Both keys, for the decoder to refill in place.
    pub(crate) fn material_mut(&mut self) -> (&mut BootstrapKey, &mut KeySwitchKey) {
        (&mut self.bsk, &mut self.ksk)
    }

    /// The transform engine this key computes with.
    #[cfg(test)]
    pub(crate) fn fft(&self) -> &morphling_transform::NegacyclicFft {
        self.engine.fft()
    }

    /// Programmable bootstrapping (Algorithm 1): reset the noise of `ct`
    /// while applying `lut`'s function to the message. Returns a ciphertext
    /// under the original key with fresh (bounded) noise.
    ///
    /// # Panics
    ///
    /// Panics if the LUT was built for a different polynomial size, or on
    /// ciphertext dimension mismatch. Use
    /// [`bootstrap_with_options`](Self::bootstrap_with_options) for a
    /// `Result`.
    pub fn programmable_bootstrap(&self, ct: &LweCiphertext, lut: &Lut) -> LweCiphertext {
        match self.bootstrap_with_options(ct, lut, BootstrapOptions::new()) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// A [`BootstrapWorkspace`] sized for this key — allocate once, then
    /// pass to [`bootstrap_with_options`](Self::bootstrap_with_options)
    /// through [`BootstrapOptions::workspace`] for allocation-free
    /// bootstraps.
    pub fn workspace(&self) -> BootstrapWorkspace {
        self.engine.workspace(self.params.glwe_dim)
    }

    /// The configurable single-LUT bootstrap: modulus switch, blind
    /// rotation, sample extraction, and — per [`BootstrapOptions`] — the
    /// final key switch, optionally through a caller-owned workspace. A
    /// chunk of one item with one LUT.
    ///
    /// # Errors
    ///
    /// [`TfheError::LweDimensionMismatch`] if `ct` is not under the small
    /// LWE key; [`TfheError::LutSizeMismatch`] if `lut` was built for a
    /// different polynomial size.
    pub fn bootstrap_with_options(
        &self,
        ct: &LweCiphertext,
        lut: &Lut,
        opts: BootstrapOptions<'_>,
    ) -> Result<LweCiphertext, TfheError> {
        let mut fresh = None;
        let ws = match opts.workspace {
            Some(ws) => ws,
            None => fresh.insert(self.workspace()),
        };
        let mut extracted = self.extract_chunk(&[(ct, vec![lut])], |accs, masks| {
            blind_rotate_assign_many(&self.engine, &self.bsk, accs, masks, ws)
        })?;
        if opts.keyswitch {
            extracted = self.ksk.try_key_switch_many(&extracted)?;
        }
        Ok(extracted.swap_remove(0))
    }

    fn validate_bootstrap_inputs(&self, ct: &LweCiphertext, lut: &Lut) -> Result<(), TfheError> {
        if ct.dim() != self.params.lwe_dim {
            return Err(TfheError::LweDimensionMismatch {
                expected: self.params.lwe_dim,
                got: ct.dim(),
            });
        }
        if lut.polynomial().len() != self.params.poly_size {
            return Err(TfheError::LutSizeMismatch {
                lut: lut.polynomial().len(),
                poly_size: self.params.poly_size,
            });
        }
        Ok(())
    }

    /// Bootstrap a chunk of independent items, each a ciphertext and the
    /// LUTs it goes through (outputs in item order, then LUT order): the
    /// one path behind every bootstrap entry point and every backend. The
    /// chunk's accumulators play Private-A1, and each key operand is
    /// fetched once for all of them — `BSK_i` by
    /// [`blind_rotate_assign_many`], each KSK row by
    /// [`KeySwitchKey::try_key_switch_many`] — the batch reuse of §IV-C.
    /// Every output is bit-identical to bootstrapping its item alone.
    ///
    /// # Errors
    ///
    /// Same as [`bootstrap_with_options`](Self::bootstrap_with_options),
    /// for the first offending item; no item is bootstrapped then.
    pub(crate) fn try_bootstrap_chunk(
        &self,
        items: &[ChunkItem<'_>],
        ws: &mut BootstrapWorkspace,
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        let extracted = self.extract_chunk(items, |accs, masks| {
            blind_rotate_assign_many(&self.engine, &self.bsk, accs, masks, ws)
        })?;
        self.ksk.try_key_switch_many(&extracted)
    }

    /// [`try_bootstrap_chunk`](Self::try_bootstrap_chunk) up to the key
    /// switch, the outputs under the extracted `k·N` key, with `rotate` as
    /// the blind rotation (BR): it takes every accumulator, each at its
    /// `X^(−b̃)·tp`, and its mask exponents. Modulus switch, LUT planning
    /// and extraction stay here whatever rotates: the product passes the
    /// lockstep transform-domain rotation, the [`oracle`](crate::oracle)
    /// its exact step.
    pub(crate) fn extract_chunk(
        &self,
        items: &[ChunkItem<'_>],
        rotate: impl FnOnce(&mut [GlweCiphertext], &[Vec<u64>]),
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        for (ct, luts) in items {
            for lut in luts {
                self.validate_bootstrap_inputs(ct, lut)?;
            }
        }
        let mut accs = Vec::with_capacity(items.len());
        let mut masks = Vec::with_capacity(items.len());
        let mut plans = Vec::with_capacity(items.len());
        for (ct, luts) in items {
            // MS: rescale the ciphertext to exponents mod 2N.
            let (mask, b_tilde) = modulus_switch(ct, self.params.two_n());
            // One LUT has nothing to amortize, and its rotation is the
            // plain bootstrap's. Several share one rotation of their
            // common factor (see [`MultiLutPlan`]) — or, with no common
            // power of two to extract (adversarial raw-torus LUTs), fall
            // back to a rotation each.
            let plan = match luts.len() {
                0 | 1 => None,
                _ => MultiLutPlan::build(luts.iter().copied()),
            };
            let test_polys = match &plan {
                Some(plan) => vec![plan.common()],
                None => luts.iter().map(|lut| lut.polynomial()).collect(),
            };
            for tp in test_polys {
                accs.push(initial_accumulator(tp, self.params.glwe_dim, b_tilde));
                masks.push(mask.clone());
            }
            plans.push(plan);
        }
        rotate(&mut accs, &masks);
        let mut extracted = Vec::with_capacity(items.iter().map(|(_, luts)| luts.len()).sum());
        let mut at = 0;
        for ((_, luts), plan) in items.iter().zip(&plans) {
            match plan {
                Some(plan) => {
                    let derived = (0..luts.len()).map(|i| plan.derive(i, &accs[at]));
                    extracted.extend(derived.map(|acc| sample_extract(&acc)));
                    at += 1;
                }
                None => {
                    extracted.extend(accs[at..at + luts.len()].iter().map(sample_extract));
                    at += luts.len();
                }
            }
        }
        Ok(extracted)
    }

    /// Multi-value bootstrapping through a caller-owned workspace (a
    /// chunk of one item): evaluate `k` LUTs of the same input for **one**
    /// blind rotation. The common factor of every test polynomial is
    /// rotated once; each LUT's accumulator is then derived by a cheap
    /// sparse product and sample-extracted (see [`MultiLutPlan`]).
    ///
    /// Outputs decode identically to `k` plain bootstraps but carry more
    /// noise (amplified by the weight `Σ_j |v_i[j]|` of LUT `i`'s factor);
    /// the bit-identical-but-slow reference is
    /// [`try_programmable_bootstrap_many_separate`](Self::try_programmable_bootstrap_many_separate).
    /// With `k = 1` this is exactly
    /// [`programmable_bootstrap`](Self::programmable_bootstrap); LUTs that
    /// admit no common factor fall back to one rotation per LUT.
    ///
    /// # Errors
    ///
    /// [`TfheError::LweDimensionMismatch`] /
    /// [`TfheError::LutSizeMismatch`] on malformed inputs.
    pub fn try_programmable_bootstrap_many_with(
        &self,
        ct: &LweCiphertext,
        luts: &[Lut],
        ws: &mut BootstrapWorkspace,
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        self.try_bootstrap_chunk(&[(ct, luts.iter().collect())], ws)
    }

    /// The deterministic reference for multi-value bootstrapping: the same
    /// common-factor derivation as
    /// [`try_programmable_bootstrap_many_with`](Self::try_programmable_bootstrap_many_with),
    /// but paying one **full blind rotation per LUT** instead of reusing a
    /// single rotation.
    /// Because the rotation is deterministic, outputs are bit-identical to
    /// the fused path — this is what tests and the `multivalue_bootstrap`
    /// bench compare against. Fewer than two LUTs, or LUTs with no common
    /// factor, share nothing on the fused path either, and take it.
    ///
    /// # Errors
    ///
    /// Same as [`try_programmable_bootstrap_many_with`](Self::try_programmable_bootstrap_many_with).
    pub fn try_programmable_bootstrap_many_separate(
        &self,
        ct: &LweCiphertext,
        luts: &[Lut],
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        for lut in luts {
            self.validate_bootstrap_inputs(ct, lut)?;
        }
        let Some(plan) = MultiLutPlan::build(luts).filter(|_| luts.len() > 1) else {
            return self.try_programmable_bootstrap_many_with(ct, luts, &mut self.workspace());
        };
        let (mask, b_tilde) = modulus_switch(ct, self.params.two_n());
        let common = initial_accumulator(plan.common(), self.params.glwe_dim, b_tilde);
        let mut accs = vec![common; luts.len()];
        let masks = vec![mask; luts.len()];
        let mut ws = self.workspace();
        blind_rotate_assign_many(&self.engine, &self.bsk, &mut accs, &masks, &mut ws);
        let extracted: Vec<LweCiphertext> = accs
            .iter()
            .enumerate()
            .map(|(i, acc)| sample_extract(&plan.derive(i, acc)))
            .collect();
        self.ksk.try_key_switch_many(&extracted)
    }

    /// Tree bootstrapping: evaluate functions `f(m_0, …, m_(d−1))` of `d`
    /// encrypted digits in `Z_p` by chaining LUT stages. Stage 1
    /// re-encodes digit `i` to `m_i · p^(d−1−i) / 2p^d` (one bootstrap
    /// each); the re-encoded ciphertexts **sum** to a single ciphertext of
    /// the combined index `Σ m_i · p^(d−1−i)` in `Z_(p^d)`; stage 2 runs
    /// every function's table through one multi-value bootstrap of that
    /// index — `d` rotations for the index plus **one** rotation for all
    /// outputs.
    ///
    /// Requires `p^d ≤ N/2` so the combined index keeps its padding bit.
    ///
    /// # Errors
    ///
    /// [`TfheError::PlaintextModulusTooLarge`] if `p^d > N/2` (or
    /// overflows); otherwise as [`bootstrap_with_options`](Self::bootstrap_with_options).
    pub fn try_tree_bootstrap_many<F>(
        &self,
        cts: &[LweCiphertext],
        funcs: &[F],
    ) -> Result<Vec<LweCiphertext>, TfheError>
    where
        F: Fn(&[u64]) -> u64,
    {
        let p = self.params.plaintext_modulus;
        let n = self.params.poly_size;
        let d = cts.len();
        // The combined index lives in Z_(p^d) and must keep the padding
        // bit: p^d ≤ N/2.
        let combined = p
            .checked_pow(d as u32)
            .filter(|&c| c as usize <= n / 2)
            .ok_or(TfheError::PlaintextModulusTooLarge {
                modulus: p.saturating_pow(d as u32),
                poly_size: n,
            })?;
        if funcs.is_empty() {
            return Ok(Vec::new());
        }
        if cts.is_empty() {
            // Zero inputs make every function a constant; a trivial
            // encryption carries it with no noise at all.
            return Ok(funcs
                .iter()
                .map(|f| {
                    LweCiphertext::trivial(Torus32::encode(f(&[]) % p, 2 * p), self.params.lwe_dim)
                })
                .collect());
        }
        let mut ws = self.workspace();
        // Stage 1: re-encode digit i onto the p^(d−1−i) rung of the
        // combined torus grid; the outputs sum to the index ciphertext.
        let mut index: Option<LweCiphertext> = None;
        for (i, ct) in cts.iter().enumerate() {
            let scale = combined / p.pow(i as u32 + 1); // p^(d−1−i)
            let lut = Lut::try_from_torus_fn(n, p, |m| Torus32::encode(m * scale, 2 * combined))?;
            let re =
                self.bootstrap_with_options(ct, &lut, BootstrapOptions::new().workspace(&mut ws))?;
            index = Some(match index {
                Some(acc) => acc.add(&re),
                None => re,
            });
        }
        let index = match index {
            Some(ct) => ct,
            // Unreachable: cts is non-empty here.
            None => return Ok(Vec::new()),
        };
        // Stage 2: every output function as a LUT over Z_(p^d), all
        // evaluated from one rotation of the shared index.
        let luts = funcs
            .iter()
            .map(|f| {
                Lut::try_from_torus_fn(n, combined, |m| {
                    let mut digits = vec![0u64; d];
                    let mut rem = m;
                    for slot in digits.iter_mut().rev() {
                        *slot = rem % p;
                        rem /= p;
                    }
                    Torus32::encode(f(&digits) % p, 2 * p)
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.try_programmable_bootstrap_many_with(&index, &luts, &mut ws)
    }

    /// A plain (identity-LUT) bootstrap: refreshes noise, keeps the
    /// message.
    pub fn bootstrap(&self, ct: &LweCiphertext) -> LweCiphertext {
        let lut = Lut::identity(self.params.poly_size, self.params.plaintext_modulus);
        self.programmable_bootstrap(ct, &lut)
    }

    /// Gate bootstrap: blind-rotate the ±1/8 test polynomial and key-switch
    /// back; the result encrypts `+1/8` iff the input phase is positive.
    fn gate_bootstrap(&self, lin: &LweCiphertext) -> LweCiphertext {
        let lut = Lut::bool_gate(self.params.poly_size);
        self.programmable_bootstrap(lin, &lut)
    }

    /// Bootstrapped NAND of two boolean ciphertexts (±1/8 encoding).
    pub fn nand(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        let lin = LweCiphertext::trivial(Torus32::from_f64(0.125), self.params.lwe_dim)
            .sub(a)
            .sub(b);
        self.gate_bootstrap(&lin)
    }

    /// Bootstrapped AND.
    pub fn and(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        let lin = a.add(b).add_plain(Torus32::from_f64(-0.125));
        self.gate_bootstrap(&lin)
    }

    /// Bootstrapped OR.
    pub fn or(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        let lin = a.add(b).add_plain(Torus32::from_f64(0.125));
        self.gate_bootstrap(&lin)
    }

    /// Bootstrapped NOR.
    pub fn nor(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        let lin = a.add(b).add_plain(Torus32::from_f64(0.125)).neg();
        self.gate_bootstrap(&lin)
    }

    /// Bootstrapped XOR.
    pub fn xor(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        let lin = a.add(b).scalar_mul(2).add_plain(Torus32::from_f64(0.25));
        self.gate_bootstrap(&lin)
    }

    /// NOT — a negation, free of bootstrapping (and of noise growth).
    pub fn not(&self, a: &LweCiphertext) -> LweCiphertext {
        a.neg()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ClientKey, ServerKey, StdRng) {
        let mut rng = StdRng::seed_from_u64(80);
        let ck = ClientKey::generate(ParamSet::Test.params(), &mut rng);
        let sk = ServerKey::new(&ck, &mut rng);
        (ck, sk, rng)
    }

    #[test]
    fn identity_bootstrap_preserves_messages() {
        let (ck, sk, mut rng) = setup();
        for m in 0..4 {
            let ct = ck.encrypt(m, &mut rng);
            let boosted = sk.bootstrap(&ct);
            assert_eq!(ck.decrypt(&boosted), m, "m={m}");
        }
    }

    #[test]
    fn programmable_bootstrap_applies_the_lut() {
        let (ck, sk, mut rng) = setup();
        let lut = Lut::from_fn(sk.params().poly_size, 4, |m| (3 * m + 1) % 4);
        for m in 0..4 {
            let ct = ck.encrypt(m, &mut rng);
            let out = sk.programmable_bootstrap(&ct, &lut);
            assert_eq!(ck.decrypt(&out), (3 * m + 1) % 4, "m={m}");
        }
    }

    #[test]
    fn bootstrap_resets_noise() {
        let (ck, sk, mut rng) = setup();
        // Stack additions until the noise is sizable, then bootstrap.
        let ct = ck.encrypt(1, &mut rng);
        let zero = ck.encrypt(0, &mut rng);
        let mut noisy = ct;
        for _ in 0..8 {
            noisy = noisy.add(&zero);
        }
        let refreshed = sk.bootstrap(&noisy);
        assert_eq!(ck.decrypt(&refreshed), 1);
        // The refreshed noise must be below the stacked noise.
        let target = Torus32::encode(1, 8);
        let stacked_err = (ck.decrypt_torus(&noisy) - target).to_f64_signed().abs();
        let fresh_err = (ck.decrypt_torus(&refreshed) - target)
            .to_f64_signed()
            .abs();
        assert!(
            fresh_err < stacked_err.max(1e-3),
            "fresh {fresh_err} vs stacked {stacked_err}"
        );
    }

    #[test]
    fn all_two_input_gates_truth_tables() {
        let (ck, sk, mut rng) = setup();
        let cases = [(false, false), (false, true), (true, false), (true, true)];
        for (x, y) in cases {
            let a = ck.encrypt_bool(x, &mut rng);
            let b = ck.encrypt_bool(y, &mut rng);
            assert_eq!(ck.decrypt_bool(&sk.nand(&a, &b)), !(x && y), "nand {x} {y}");
            assert_eq!(ck.decrypt_bool(&sk.and(&a, &b)), x && y, "and {x} {y}");
            assert_eq!(ck.decrypt_bool(&sk.or(&a, &b)), x || y, "or {x} {y}");
            assert_eq!(ck.decrypt_bool(&sk.nor(&a, &b)), !(x || y), "nor {x} {y}");
            assert_eq!(ck.decrypt_bool(&sk.xor(&a, &b)), x ^ y, "xor {x} {y}");
            assert_eq!(ck.decrypt_bool(&sk.not(&a)), !x, "not {x}");
        }
    }

    #[test]
    fn workspace_bootstrap_is_bit_identical_to_plain_bootstrap() {
        let (ck, sk, mut rng) = setup();
        let lut = Lut::from_fn(sk.params().poly_size, 4, |m| (m + 1) % 4);
        let mut ws = sk.workspace();
        for m in 0..4 {
            let ct = ck.encrypt(m, &mut rng);
            let plain = sk.programmable_bootstrap(&ct, &lut);
            // Reuse the same workspace across all messages — state left
            // over from one bootstrap must not leak into the next.
            let opts = BootstrapOptions::new().workspace(&mut ws);
            let with_ws = sk.bootstrap_with_options(&ct, &lut, opts).unwrap();
            assert_eq!(with_ws, plain, "m={m}");
        }
    }

    #[test]
    fn the_bootstrap_equals_the_oracle() {
        // The same key through the product and the exact oracle: equal
        // ciphertexts, not just equal messages.
        let (ck, sk, mut rng) = setup();
        let cts: Vec<_> = (0..4).map(|m| ck.encrypt(m, &mut rng)).collect();
        let lut = Lut::identity(sk.params().poly_size, sk.params().plaintext_modulus);
        let product: Vec<_> = cts.iter().map(|ct| sk.bootstrap(ct)).collect();
        for (m, out) in product.iter().enumerate() {
            assert_eq!(ck.decrypt(out), m as u64);
        }
        let req = crate::BatchRequest::shared(cts, lut);
        assert_eq!(crate::oracle::bootstrap(&sk, &req), Ok(product));
    }

    #[test]
    fn gates_chain_through_many_levels() {
        // A small circuit: ((a NAND b) XOR c) OR (a AND c), evaluated
        // homomorphically and in the clear.
        let (ck, sk, mut rng) = setup();
        for bits in 0..8u32 {
            let (x, y, z) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
            let a = ck.encrypt_bool(x, &mut rng);
            let b = ck.encrypt_bool(y, &mut rng);
            let c = ck.encrypt_bool(z, &mut rng);
            let out = sk.or(&sk.xor(&sk.nand(&a, &b), &c), &sk.and(&a, &c));
            assert_eq!(
                ck.decrypt_bool(&out),
                (!(x && y) ^ z) || (x && z),
                "bits={bits}"
            );
        }
    }

    #[test]
    fn single_lut_bootstrap_many_is_bit_identical_to_plain() {
        // The k = 1 property: `bootstrap_many(ct, [lut])` takes the plain
        // path, so its one output is bit-for-bit the single-LUT bootstrap.
        let (ck, sk, mut rng) = setup();
        let p = sk.params().plaintext_modulus;
        let lut = Lut::from_fn(sk.params().poly_size, p, |m| (3 * m + 1) % p);
        for m in 0..p {
            let ct = ck.encrypt(m, &mut rng);
            let many = sk
                .try_programmable_bootstrap_many_with(
                    &ct,
                    std::slice::from_ref(&lut),
                    &mut sk.workspace(),
                )
                .unwrap();
            assert_eq!(many.len(), 1);
            assert_eq!(many[0], sk.programmable_bootstrap(&ct, &lut));
        }
    }

    #[test]
    fn multi_value_bootstrap_matches_separate_rotations_and_decodes() {
        let (ck, sk, mut rng) = setup();
        let p = sk.params().plaintext_modulus;
        let n = sk.params().poly_size;
        let luts = vec![
            Lut::identity(n, p),
            Lut::from_fn(n, p, |m| (3 * m + 1) % p),
            Lut::from_fn(n, p, |m| m / 2),
            Lut::from_fn(n, p, |m| u64::from(m >= 2)),
        ];
        for m in 0..p {
            let ct = ck.encrypt(m, &mut rng);
            let fused = sk
                .try_programmable_bootstrap_many_with(&ct, &luts, &mut sk.workspace())
                .unwrap();
            // Bit-identical to the deterministic k-rotation reference...
            let separate = sk
                .try_programmable_bootstrap_many_separate(&ct, &luts)
                .unwrap();
            assert_eq!(fused, separate, "m={m}");
            // ...and decode-equal to k plain programmable bootstraps.
            for (out, lut) in fused.iter().zip(&luts) {
                let plain = sk.programmable_bootstrap(&ct, lut);
                assert_eq!(ck.decrypt(out), ck.decrypt(&plain), "m={m}");
            }
        }
    }

    #[test]
    fn a_chunk_of_mixed_items_equals_each_item_alone() {
        let (ck, sk, mut rng) = setup();
        let p = sk.params().plaintext_modulus;
        let n = sk.params().poly_size;
        let luts = [
            Lut::identity(n, p),
            Lut::from_fn(n, p, |m| (3 * m + 1) % p),
            Lut::from_fn(n, p, |m| m / 2),
        ];
        // Odd raw-torus steps: no power of two to factor out.
        let odd = [3u32, 5].map(|step| {
            Lut::try_from_torus_fn(n, p, |m| Torus32::from_raw(m as u32 * step + 1)).unwrap()
        });
        assert!(MultiLutPlan::build(&odd).is_none());
        let cts: Vec<LweCiphertext> = (0..5).map(|m| ck.encrypt(m % p, &mut rng)).collect();
        let items: Vec<ChunkItem<'_>> = vec![
            (&cts[0], luts.iter().collect()),
            (&cts[1], vec![&luts[1]]),
            (&cts[2], vec![]),
            (&cts[3], odd.iter().collect()),
            (&cts[4], vec![&luts[2], &luts[0]]),
        ];
        let mut ws = sk.workspace();
        let chunk = sk.try_bootstrap_chunk(&items, &mut ws).unwrap();
        let mut alone = sk
            .try_programmable_bootstrap_many_with(&cts[0], &luts, &mut sk.workspace())
            .unwrap();
        // A single-LUT item is the plain bootstrap, bit for bit; an empty
        // list produces nothing; no common factor is a rotation per LUT.
        alone.push(sk.programmable_bootstrap(&cts[1], &luts[1]));
        alone.extend(
            odd.iter()
                .map(|lut| sk.programmable_bootstrap(&cts[3], lut)),
        );
        let last = [luts[2].clone(), luts[0].clone()];
        alone.extend(
            sk.try_programmable_bootstrap_many_with(&cts[4], &last, &mut sk.workspace())
                .unwrap(),
        );
        assert_eq!(chunk, alone);
        assert_eq!(sk.try_bootstrap_chunk(&[], &mut ws).unwrap(), Vec::new());
    }

    #[test]
    fn a_chunk_validates_every_item_before_bootstrapping_any() {
        let (ck, sk, mut rng) = setup();
        let n = sk.params().poly_size;
        let (good, wrong_size) = (Lut::identity(n, 4), Lut::identity(2 * n, 4));
        let ct = ck.encrypt(1, &mut rng);
        let wrong_dim = LweCiphertext::trivial(Torus32::ZERO, 3);
        let mut ws = sk.workspace();
        // The offender is the last LUT of the last (fanout) item.
        let items: Vec<ChunkItem<'_>> =
            vec![(&ct, vec![&good]), (&ct, vec![&good, &good, &wrong_size])];
        assert!(matches!(
            sk.try_bootstrap_chunk(&items, &mut ws),
            Err(TfheError::LutSizeMismatch { .. })
        ));
        let items: Vec<ChunkItem<'_>> = vec![(&ct, vec![&good]), (&wrong_dim, vec![&good, &good])];
        assert!(matches!(
            sk.try_bootstrap_chunk(&items, &mut ws),
            Err(TfheError::LweDimensionMismatch { .. })
        ));
    }

    #[test]
    fn tree_bootstrap_evaluates_two_digit_functions() {
        // Test params: p = 4, N = 256 → p² = 16 ≤ 128, two digits fit.
        let (ck, sk, mut rng) = setup();
        let p = sk.params().plaintext_modulus;
        for m0 in 0..p {
            for m1 in 0..p {
                let cts = vec![ck.encrypt(m0, &mut rng), ck.encrypt(m1, &mut rng)];
                let sum = sk
                    .try_tree_bootstrap_many(&cts, &[|d: &[u64]| (d[0] + d[1]) % 4])
                    .unwrap();
                assert_eq!(ck.decrypt(&sum[0]), (m0 + m1) % 4, "m0={m0} m1={m1}");
                // Several outputs of the same digits share the stage-2
                // rotation through the multi-value path.
                type DigitFn = Box<dyn Fn(&[u64]) -> u64>;
                let funcs: Vec<DigitFn> = vec![
                    Box::new(|d: &[u64]| (d[0] + d[1]) % 4),
                    Box::new(|d: &[u64]| d[0].max(d[1])),
                    Box::new(|d: &[u64]| u64::from(d[0] == d[1])),
                ];
                let outs = sk.try_tree_bootstrap_many(&cts, &funcs).unwrap();
                assert_eq!(ck.decrypt(&outs[0]), (m0 + m1) % 4);
                assert_eq!(ck.decrypt(&outs[1]), m0.max(m1));
                assert_eq!(ck.decrypt(&outs[2]), u64::from(m0 == m1));
            }
        }
    }

    #[test]
    fn tree_bootstrap_rejects_oversized_digit_counts() {
        // p = 4, N = 256: four digits need p⁴ = 256 > N/2 = 128.
        let (ck, sk, mut rng) = setup();
        let cts: Vec<LweCiphertext> = (0..4).map(|m| ck.encrypt(m % 4, &mut rng)).collect();
        assert!(matches!(
            sk.try_tree_bootstrap_many(&cts, &[|d: &[u64]| d[0]]),
            Err(TfheError::PlaintextModulusTooLarge { .. })
        ));
    }
}
