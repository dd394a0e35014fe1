//! Functional encrypted-inference demos running on the real TFHE
//! substrate — small-scale versions of the Table VI applications that
//! actually compute on ciphertexts (and are verified against plaintext).
//! Each model is one wave over a slice of requests through
//! [`InferenceDriver`](crate::runtime::InferenceDriver); these are the
//! models and their plaintext references.

mod mlp;
mod tree;

pub use mlp::MlpModel;
pub use tree::DecisionTree;
