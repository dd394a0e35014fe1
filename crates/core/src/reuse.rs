//! Transform-domain reuse modes (§III, Fig 2).

use std::fmt;

/// How much transform-domain data the VPE array reuses during the external
/// product. The three types of Fig 2, all built with the *same* compute
/// resources so Fig 7-b's comparison is apples-to-apples.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ReuseMode {
    /// Fig 2-a: every VPE performs its own forward and inverse transform.
    /// MATCHA-like.
    NoReuse,
    /// Fig 2-b: the forward transform of the decomposed ACC input is shared
    /// along a VPE row, but every VPE still inverse-transforms its own
    /// output and accumulates in the coefficient domain. Strix-like.
    InputReuse,
    /// Fig 2-c: forward transforms are shared *and* partial sums accumulate
    /// in the transform domain (IFFT linearity), so only `(k+1)` inverse
    /// transforms run per dot product. Morphling. Default.
    #[default]
    InputOutputReuse,
}

impl ReuseMode {
    /// All three modes in Fig 2 order.
    pub const ALL: [ReuseMode; 3] = [
        ReuseMode::NoReuse,
        ReuseMode::InputReuse,
        ReuseMode::InputOutputReuse,
    ];

    /// Forward transforms needed per blind-rotation iteration *per
    /// ciphertext* for GLWE dimension `k` and BSK level `l_b`.
    pub(crate) fn forward_transforms_per_iter(self, k: usize, l_b: usize) -> u64 {
        let k1 = (k + 1) as u64;
        let l = l_b as u64;
        match self {
            // Each of the (k+1) output columns transforms each of the
            // (k+1)·l_b digit polynomials itself.
            ReuseMode::NoReuse => k1 * l * k1,
            // One transform per digit polynomial, shared across columns.
            ReuseMode::InputReuse | ReuseMode::InputOutputReuse => k1 * l,
        }
    }

    /// Inverse transforms needed per blind-rotation iteration per
    /// ciphertext.
    pub(crate) fn inverse_transforms_per_iter(self, k: usize, l_b: usize) -> u64 {
        let k1 = (k + 1) as u64;
        let l = l_b as u64;
        match self {
            // Every polynomial product is inverse-transformed individually
            // and accumulated in the coefficient domain.
            ReuseMode::NoReuse | ReuseMode::InputReuse => k1 * l * k1,
            // Accumulation happens in the transform domain; one IFFT per
            // output component.
            ReuseMode::InputOutputReuse => k1,
        }
    }

    /// Total domain transforms per iteration per ciphertext.
    pub(crate) fn transforms_per_iter(self, k: usize, l_b: usize) -> u64 {
        self.forward_transforms_per_iter(k, l_b) + self.inverse_transforms_per_iter(k, l_b)
    }

    /// Total domain transforms for a full bootstrap (`n` iterations).
    pub(crate) fn transforms_per_bootstrap(self, n: usize, k: usize, l_b: usize) -> u64 {
        n as u64 * self.transforms_per_iter(k, l_b)
    }
}

impl fmt::Display for ReuseMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReuseMode::NoReuse => "No-Reuse",
            ReuseMode::InputReuse => "Input-Reuse",
            ReuseMode::InputOutputReuse => "Input+Output-Reuse",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fractional reduction in domain transforms relative to
    /// [`ReuseMode::NoReuse`] (Fig 3's y-axis).
    fn reduction(mode: ReuseMode, k: usize, l_b: usize) -> f64 {
        let base = ReuseMode::NoReuse.transforms_per_iter(k, l_b) as f64;
        1.0 - mode.transforms_per_iter(k, l_b) as f64 / base
    }

    #[test]
    fn paper_reduction_percentages() {
        // §III: input reuse reduces 25% at (k,l_b)=(1,1) and 37.5% at
        // (3,3); input+output reuse reduces up to 83.3% at (3,3).
        let r = reduction(ReuseMode::InputReuse, 1, 1);
        assert!((r - 0.25).abs() < 1e-9, "{r}");
        let r = reduction(ReuseMode::InputReuse, 3, 3);
        assert!((r - 0.375).abs() < 1e-9, "{r}");
        let r = reduction(ReuseMode::InputOutputReuse, 3, 3);
        assert!((r - 5.0 / 6.0).abs() < 1e-9, "{r}");
    }

    #[test]
    fn fig3_maximum_transform_count() {
        // Fig 3: "bootstrapping could require up to 46752 domain-transform
        // operations" — set C (n=487, k=3, l_b=3), no reuse.
        assert_eq!(
            ReuseMode::NoReuse.transforms_per_bootstrap(487, 3, 3),
            46_752
        );
    }

    #[test]
    fn reuse_never_increases_transforms() {
        for k in 1..=3 {
            for l in 1..=4 {
                let no = ReuseMode::NoReuse.transforms_per_iter(k, l);
                let inp = ReuseMode::InputReuse.transforms_per_iter(k, l);
                let io = ReuseMode::InputOutputReuse.transforms_per_iter(k, l);
                assert!(inp <= no && io <= inp, "k={k} l={l}");
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(
            ReuseMode::InputOutputReuse.to_string(),
            "Input+Output-Reuse"
        );
    }
}
