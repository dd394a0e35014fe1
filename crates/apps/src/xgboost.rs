//! The XG-Boost classifier workload (§VI-A): 100 estimators, depth 6.
//!
//! In Concrete-ML's privacy-preserving tree inference, every internal-node
//! threshold comparison on encrypted features is evaluated with one
//! programmable bootstrap (an oblivious evaluation touches all nodes), and
//! the per-tree leaf aggregation adds one more PBS per tree. Comparisons
//! within one depth level are independent; the paper exploits exactly this
//! for batching (§V-E).

use morphling_core::sched::Workload;

/// A gradient-boosted tree ensemble (structure only — the cost model).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XgBoostModel {
    /// Number of estimators (trees).
    pub estimators: u64,
    /// Maximum tree depth.
    pub depth: u32,
}

impl XgBoostModel {
    /// The paper's benchmark model: 100 estimators, depth 6.
    pub fn paper_benchmark() -> Self {
        Self {
            estimators: 100,
            depth: 6,
        }
    }

    /// Internal (decision) nodes per tree: `2^depth − 1`.
    pub(crate) fn nodes_per_tree(&self) -> u64 {
        (1u64 << self.depth) - 1
    }

    /// Total encrypted comparisons (one PBS each) for one inference.
    pub(crate) fn total_comparisons(&self) -> u64 {
        self.estimators * self.nodes_per_tree()
    }

    /// Total bootstraps: comparisons + one aggregation PBS per tree.
    pub fn total_bootstraps(&self) -> u64 {
        self.total_comparisons() + self.estimators
    }

    /// Leveled MACs for leaf-value selection and the final sum.
    pub fn total_macs(&self) -> u64 {
        self.estimators * (1u64 << self.depth) * 2
    }

    /// Scheduling workload: the oblivious comparisons of every depth level
    /// are independent (one level per depth across all trees), followed by
    /// the per-tree aggregation level.
    pub fn workload(&self) -> Workload {
        let mut w = Workload::default();
        let mut nodes_at_depth = 1u64;
        for _ in 0..self.depth {
            w.levels.push((self.estimators * nodes_at_depth, 0));
            nodes_at_depth *= 2;
        }
        w.levels.push((self.estimators, self.total_macs()));
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_counts() {
        let m = XgBoostModel::paper_benchmark();
        assert_eq!(m.nodes_per_tree(), 63);
        assert_eq!(m.total_comparisons(), 6300);
        assert_eq!(m.total_bootstraps(), 6400);
    }

    #[test]
    fn workload_levels_follow_depth() {
        let m = XgBoostModel::paper_benchmark();
        let w = m.workload();
        assert_eq!(w.levels.len(), 7); // 6 depth levels + aggregation
        assert_eq!(w.total_bootstraps(), m.total_bootstraps());
        // Level sizes double per depth: 100, 200, ..., 3200.
        assert_eq!(w.levels[0].0, 100);
        assert_eq!(w.levels[5].0, 3200);
    }
}
