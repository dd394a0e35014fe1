//! An encrypted quantized multi-layer perceptron — the functional heart of
//! the DeepCNN / VGG workloads: leveled (plaintext-weight) dot products
//! between layers, one programmable bootstrap per activation.

use morphling_math::{Torus32, TorusScalar};
use morphling_tfhe::{ops, BatchRequest, Bootstrapper, Lut, LweCiphertext, ServerKey, TfheError};

/// A tiny quantized MLP: 2 inputs → `H` hidden ReLU neurons → binary
/// decision. All weights are small non-negative integers and the value
/// ranges are sized so every intermediate stays inside the plaintext
/// space `[0, p)` — exactly the accumulator-bound reasoning Concrete-ML
/// applies at 8 bits, shrunk to p = 16.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MlpModel {
    /// Hidden-layer weights: `hidden[j] = (w_j0, w_j1, bias_j)`.
    pub hidden: Vec<(i64, i64, u64)>,
    /// Output weights, one per hidden neuron.
    pub output: Vec<i64>,
    /// Decision threshold on the output accumulator.
    pub threshold: u64,
    /// ReLU shift: activation = max(s − shift, 0).
    pub relu_shift: u64,
}

impl MlpModel {
    /// A fixed demo model (hand-picked so that both classes occur).
    pub fn demo() -> Self {
        Self {
            hidden: vec![(2, 1, 0), (1, 2, 1)],
            output: vec![1, 1],
            threshold: 8,
            relu_shift: 3,
        }
    }

    /// Largest value the hidden accumulator can reach for inputs `< x_max`
    /// — must stay below the plaintext modulus.
    pub fn max_hidden_acc(&self, x_max: u64) -> u64 {
        self.hidden
            .iter()
            .map(|&(w0, w1, b)| (w0 as u64 + w1 as u64) * (x_max - 1) + b)
            .max()
            .unwrap_or(0)
    }

    /// Plaintext inference (the reference): returns the class in {0, 1}.
    pub fn infer_clear(&self, x0: u64, x1: u64) -> u64 {
        let mut acc = 0u64;
        for (&(w0, w1, b), &v) in self.hidden.iter().zip(&self.output) {
            let s = (w0 as u64) * x0 + (w1 as u64) * x1 + b;
            let a = s.saturating_sub(self.relu_shift);
            acc += (v as u64) * a;
        }
        u64::from(acc >= self.threshold)
    }

    /// Programmable bootstraps per inference: one ReLU per hidden neuron
    /// plus the final decision.
    pub fn bootstraps_per_inference(&self) -> u64 {
        self.hidden.len() as u64 + 1
    }
}

/// Runs [`MlpModel`]s on encrypted inputs.
#[derive(Debug)]
pub struct EncryptedMlp<'a> {
    server: &'a ServerKey,
}

impl<'a> EncryptedMlp<'a> {
    /// Wrap a server key. The parameter set's plaintext modulus must cover
    /// the model's accumulator range.
    pub fn new(server: &'a ServerKey) -> Self {
        Self { server }
    }

    /// Encrypted inference: leveled affine layers + bootstrapped ReLU +
    /// bootstrapped threshold. Output encrypts the class in {0, 1}.
    pub fn infer(&self, model: &MlpModel, x0: &LweCiphertext, x1: &LweCiphertext) -> LweCiphertext {
        let p = self.server.params().plaintext_modulus;
        let n_poly = self.server.params().poly_size;
        let shift = model.relu_shift;
        let relu = Lut::from_fn(n_poly, p, move |s| s.saturating_sub(shift));
        let inputs = [x0.clone(), x1.clone()];
        let mut acc: Option<LweCiphertext> = None;
        for (&(w0, w1, b), &v) in model.hidden.iter().zip(&model.output) {
            // The bias joins the padded encoding: b / 2p on the torus.
            let s = ops::affine(&inputs, &[w0, w1], Torus32::encode(b, 2 * p));
            let a = self.server.programmable_bootstrap(&s, &relu);
            let term = a.scalar_mul(v);
            acc = Some(match acc {
                Some(prev) => prev.add(&term),
                None => term,
            });
        }
        let acc = acc.expect("at least one hidden neuron");
        let threshold = model.threshold;
        let decide = Lut::from_fn(n_poly, p, move |s| u64::from(s >= threshold));
        self.server.programmable_bootstrap(&acc, &decide)
    }

    /// [`infer`](Self::infer) with all hidden-layer ReLU bootstraps
    /// submitted to any [`Bootstrapper`] backend as one batch — the wave
    /// shape Morphling's scheduler feeds its cores. Works identically
    /// over a [`ServerKey`], a `BootstrapEngine` pool, or a `Dispatcher`; the backend must wrap a server key
    /// derived from the same client key as `self`. Results are
    /// bit-identical to [`infer`](Self::infer).
    ///
    /// # Errors
    ///
    /// Propagates any [`TfheError`] from the backend.
    pub fn infer_batched<B: Bootstrapper + ?Sized>(
        &self,
        backend: &B,
        model: &MlpModel,
        x0: &LweCiphertext,
        x1: &LweCiphertext,
    ) -> Result<LweCiphertext, TfheError> {
        let p = self.server.params().plaintext_modulus;
        let n_poly = self.server.params().poly_size;
        let shift = model.relu_shift;
        let relu = Lut::from_fn(n_poly, p, move |s| s.saturating_sub(shift));
        let inputs = [x0.clone(), x1.clone()];
        // Leveled affine layer for every hidden neuron (no bootstraps)...
        let sums: Vec<LweCiphertext> = model
            .hidden
            .iter()
            .map(|&(w0, w1, b)| ops::affine(&inputs, &[w0, w1], Torus32::encode(b, 2 * p)))
            .collect();
        // ...then one wave of ReLU bootstraps through the backend.
        let activations = backend.try_bootstrap_batch(&BatchRequest::shared(sums, relu))?;
        let acc = activations
            .iter()
            .zip(&model.output)
            .map(|(a, &v)| a.scalar_mul(v))
            .reduce(|acc, term| acc.add(&term))
            .expect("at least one hidden neuron");
        let threshold = model.threshold;
        let decide = Lut::from_fn(n_poly, p, move |s| u64::from(s >= threshold));
        self.server.try_programmable_bootstrap(&acc, &decide)
    }

    /// Inference returning the class **and** a decision margin — how far
    /// the output accumulator sits above the threshold, clamped to
    /// `[0, 3]` — with both LUTs evaluated from *one* blind rotation of
    /// the final accumulator via
    /// [multi-value bootstrapping](ServerKey::try_programmable_bootstrap_many).
    /// A second read of the same accumulator is free where a second
    /// bootstrap used to be the price of the extra output.
    ///
    /// Both outputs decode exactly like their single-LUT counterparts
    /// (the shared-rotation derivation adds bounded noise, absorbed by
    /// the small output ranges).
    ///
    /// # Errors
    ///
    /// Propagates any [`TfheError`] from the bootstrap.
    pub fn infer_with_margin(
        &self,
        model: &MlpModel,
        x0: &LweCiphertext,
        x1: &LweCiphertext,
    ) -> Result<(LweCiphertext, LweCiphertext), TfheError> {
        let p = self.server.params().plaintext_modulus;
        let n_poly = self.server.params().poly_size;
        let shift = model.relu_shift;
        let relu = Lut::from_fn(n_poly, p, move |s| s.saturating_sub(shift));
        let inputs = [x0.clone(), x1.clone()];
        let mut acc: Option<LweCiphertext> = None;
        for (&(w0, w1, b), &v) in model.hidden.iter().zip(&model.output) {
            let s = ops::affine(&inputs, &[w0, w1], Torus32::encode(b, 2 * p));
            let a = self.server.try_programmable_bootstrap(&s, &relu)?;
            let term = a.scalar_mul(v);
            acc = Some(match acc {
                Some(prev) => prev.add(&term),
                None => term,
            });
        }
        let acc = acc.expect("at least one hidden neuron");
        let threshold = model.threshold;
        let decide = Lut::from_fn(n_poly, p, move |s| u64::from(s >= threshold));
        let margin = Lut::from_fn(n_poly, p, move |s| s.saturating_sub(threshold).min(3));
        let mut outs = self
            .server
            .try_programmable_bootstrap_many(&acc, &[decide, margin])?;
        let margin_ct = outs.pop().expect("two outputs for two LUTs");
        let class_ct = outs.pop().expect("two outputs for two LUTs");
        Ok((class_ct, margin_ct))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphling_tfhe::{ClientKey, ParamSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn encrypted_mlp_matches_plaintext_on_all_inputs() {
        let mut rng = StdRng::seed_from_u64(201);
        let params = ParamSet::TestMedium.params().with_plaintext_modulus(16);
        let ck = ClientKey::generate(params, &mut rng);
        let sk = ServerKey::new(&ck, &mut rng);
        let mlp = EncryptedMlp::new(&sk);
        let model = MlpModel::demo();
        assert!(
            model.max_hidden_acc(4) < 16,
            "accumulator must fit the plaintext space"
        );
        let mut classes = [0u64; 2];
        for x0 in 0..4u64 {
            for x1 in 0..4u64 {
                let c0 = ck.encrypt(x0, &mut rng);
                let c1 = ck.encrypt(x1, &mut rng);
                let out = ck.decrypt(&mlp.infer(&model, &c0, &c1));
                assert_eq!(out, model.infer_clear(x0, x1), "x0={x0} x1={x1}");
                classes[out as usize] += 1;
            }
        }
        // Both classes occur — the demo model is not degenerate.
        assert!(classes[0] > 0 && classes[1] > 0);
    }

    #[test]
    fn bootstrap_count() {
        assert_eq!(MlpModel::demo().bootstraps_per_inference(), 3);
    }

    #[test]
    fn batched_inference_is_bit_identical_to_sequential() {
        let mut rng = StdRng::seed_from_u64(202);
        let params = ParamSet::TestMedium.params().with_plaintext_modulus(16);
        let ck = ClientKey::generate(params, &mut rng);
        let sk = std::sync::Arc::new(ServerKey::new(&ck, &mut rng));
        let engine = morphling_tfhe::BootstrapEngine::builder()
            .workers(2)
            .build(std::sync::Arc::clone(&sk))
            .unwrap();
        let mlp = EncryptedMlp::new(&sk);
        let model = MlpModel::demo();
        for (x0, x1) in [(0u64, 0u64), (1, 3), (3, 1), (3, 3)] {
            let c0 = ck.encrypt(x0, &mut rng);
            let c1 = ck.encrypt(x1, &mut rng);
            let seq = mlp.infer(&model, &c0, &c1);
            let bat = mlp.infer_batched(&engine, &model, &c0, &c1).unwrap();
            assert_eq!(seq, bat, "x0={x0} x1={x1}");
            assert_eq!(ck.decrypt(&bat), model.infer_clear(x0, x1));
        }
        // Two hidden ReLUs per inference go through the engine.
        assert_eq!(engine.stats().bootstraps, 4 * 2);
    }

    #[test]
    fn margin_inference_decodes_class_and_distance() {
        let mut rng = StdRng::seed_from_u64(206);
        let params = ParamSet::TestMedium.params().with_plaintext_modulus(16);
        let ck = ClientKey::generate(params, &mut rng);
        let sk = ServerKey::new(&ck, &mut rng);
        let mlp = EncryptedMlp::new(&sk);
        let model = MlpModel::demo();
        for (x0, x1) in [(0u64, 0u64), (1, 3), (3, 1), (3, 3)] {
            let c0 = ck.encrypt(x0, &mut rng);
            let c1 = ck.encrypt(x1, &mut rng);
            let (class, margin) = mlp.infer_with_margin(&model, &c0, &c1).unwrap();
            assert_eq!(
                ck.decrypt(&class),
                model.infer_clear(x0, x1),
                "x0={x0} x1={x1}"
            );
            // Clear margin: accumulator distance above the threshold, ≤ 3.
            let mut acc = 0u64;
            for (&(w0, w1, b), &v) in model.hidden.iter().zip(&model.output) {
                let s = (w0 as u64) * x0 + (w1 as u64) * x1 + b;
                acc += (v as u64) * s.saturating_sub(model.relu_shift);
            }
            let expect = acc.saturating_sub(model.threshold).min(3);
            assert_eq!(ck.decrypt(&margin), expect, "x0={x0} x1={x1}");
        }
    }
}
