//! An encrypted quantized multi-layer perceptron — the functional heart of
//! the DeepCNN / VGG workloads: leveled (plaintext-weight) dot products
//! between layers, one programmable bootstrap per activation. The
//! encrypted wave is
//! [`InferenceDriver::infer_mlp_wave`](crate::runtime::InferenceDriver::infer_mlp_wave);
//! this module holds the model and its plaintext reference.

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

    /// Plaintext inference (the reference): returns the class in {0, 1}.
    ///
    /// # Panics
    ///
    /// If the model has no hidden neuron, or `output` does not hold
    /// exactly one weight per hidden neuron.
    pub fn infer_clear(&self, x0: u64, x1: u64) -> u64 {
        self.assert_shape();
        let mut acc = 0u64;
        for (&(w0, w1, b), &v) in self.hidden.iter().zip(&self.output) {
            let s = (w0 as u64) * x0 + (w1 as u64) * x1 + b;
            let a = s.saturating_sub(self.relu_shift);
            acc += (v as u64) * a;
        }
        u64::from(acc >= self.threshold)
    }

    /// Panics unless there is a hidden neuron and one output weight per
    /// hidden neuron: the layers are zipped, so a short `output` would
    /// silently drop neurons.
    pub(crate) fn assert_shape(&self) {
        assert!(
            !self.hidden.is_empty() && self.output.len() == self.hidden.len(),
            "an MLP needs one output weight per hidden neuron and at least one \
             neuron: {} hidden, {} output weights",
            self.hidden.len(),
            self.output.len()
        );
    }
}
