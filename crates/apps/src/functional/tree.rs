//! Encrypted decision-tree inference — the functional heart of the
//! XG-Boost workload: every threshold comparison is a programmable
//! bootstrap output, and leaf selection is one more (Concrete-ML's
//! oblivious evaluation, shrunk to demo size). The encrypted wave is
//! [`InferenceDriver::classify_tree_wave_fused`](crate::runtime::InferenceDriver::classify_tree_wave_fused);
//! this module holds the tree, its plaintext reference and its LUTs.

use morphling_tfhe::{Lut, TfheParams};

/// A depth-2 binary decision tree over small integer features.
///
/// Node 0 (root) tests `features[f0] ≥ t0`; node 1 is taken when the root
/// is false, node 2 when true. Leaves are indexed by the decision triple.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecisionTree {
    /// `(feature index, threshold)` of the root.
    pub root: (usize, u64),
    /// Left child test (root = 0).
    pub left: (usize, u64),
    /// Right child test (root = 1).
    pub right: (usize, u64),
    /// Leaf classes indexed by `(root, taken-child)`: `[00, 01, 10, 11]`.
    pub leaves: [u64; 4],
}

impl DecisionTree {
    /// Plaintext evaluation (the reference).
    pub fn classify_clear(&self, features: &[u64]) -> u64 {
        let d0 = u64::from(features[self.root.0] >= self.root.1);
        let child = if d0 == 1 { self.right } else { self.left };
        let d1 = u64::from(features[child.0] >= child.1);
        self.leaves[(2 * d0 + d1) as usize]
    }

    /// Distinct features the tree tests, each paired with the node tests
    /// (0 = root, 1 = left, 2 = right) that read it, in first-appearance
    /// order. This is the grouping multi-value bootstrapping exploits:
    /// every test of one feature evaluates from a *single* blind rotation,
    /// so a tree whose children share a feature costs `node_groups().len()`
    /// rotations instead of three.
    pub(crate) fn node_groups(&self) -> Vec<(usize, Vec<usize>)> {
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for (node, &(feat, _)) in [self.root, self.left, self.right].iter().enumerate() {
            match groups.iter_mut().find(|(f, _)| *f == feat) {
                Some((_, nodes)) => nodes.push(node),
                None => groups.push((feat, vec![node])),
            }
        }
        groups
    }

    /// The three node tests `x ↦ [x ≥ threshold]` as LUTs, in node order.
    pub(crate) fn node_luts(&self, params: &TfheParams) -> Vec<Lut> {
        let (n_poly, p) = (params.poly_size, params.plaintext_modulus);
        [self.root, self.left, self.right]
            .iter()
            .map(|&(_, t)| Lut::from_fn(n_poly, p, move |x| u64::from(x >= t)))
            .collect()
    }

    /// The leaf table as a LUT over the packed decision index
    /// `4·d0 + 2·d1 + d2` (node order), reading the child the root picks.
    pub(crate) fn leaf_lut(&self, params: &TfheParams) -> Lut {
        let leaves = self.leaves;
        Lut::from_fn(params.poly_size, params.plaintext_modulus, move |idx| {
            let d0 = (idx >> 2) & 1;
            let taken = if d0 == 1 { idx & 1 } else { (idx >> 1) & 1 };
            leaves[(2 * d0 + taken) as usize]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_groups_fold_shared_features() {
        let shared = DecisionTree {
            root: (0, 4),
            left: (1, 2),
            right: (1, 6),
            leaves: [0, 1, 2, 3],
        };
        assert_eq!(shared.node_groups(), vec![(0, vec![0]), (1, vec![1, 2])]);
        let disjoint = DecisionTree {
            root: (0, 4),
            left: (1, 2),
            right: (2, 6),
            leaves: [0, 1, 2, 3],
        };
        assert_eq!(disjoint.node_groups().len(), 3);
    }
}
