//! The paper's benchmark networks (§VI-A): DeepCNN-X and VGG-9.

use morphling_core::sched::Workload;

use crate::layers::{Layer, Shape};

/// A feed-forward network: an input shape plus a layer list. Each layer is
/// one scheduling level (its activations are mutually independent; layers
/// are sequentially dependent).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Network {
    /// Model name.
    pub name: String,
    /// Input feature-map shape.
    pub input: Shape,
    /// Layers in order.
    pub layers: Vec<Layer>,
}

impl Network {
    /// Per-layer `(bootstraps, leveled MACs)` in order.
    pub(crate) fn level_costs(&self) -> Vec<(u64, u64)> {
        let mut shape = self.input;
        self.layers
            .iter()
            .map(|l| {
                let cost = (l.bootstraps(shape), l.macs(shape));
                shape = l.output_shape(shape);
                cost
            })
            .collect()
    }

    /// Total programmable bootstraps for one inference.
    pub fn total_bootstraps(&self) -> u64 {
        self.level_costs().iter().map(|&(b, _)| b).sum()
    }

    /// Total leveled MACs for one inference.
    pub fn total_macs(&self) -> u64 {
        self.level_costs().iter().map(|&(_, m)| m).sum()
    }

    /// Convert to a schedulable [`Workload`] (one level per layer; layers
    /// with zero bootstraps fold their MACs into the previous level).
    pub fn workload(&self) -> Workload {
        let mut w = Workload::default();
        for (bootstraps, macs) in self.level_costs() {
            if bootstraps == 0 {
                if let Some(last) = w.levels.last_mut() {
                    last.1 += macs;
                    continue;
                }
            }
            w.levels.push((bootstraps, macs));
        }
        w
    }
}

/// DeepCNN-X (§VI-A): 8×8×1 input; 3×3 conv (2 filters); 3×3 conv
/// (92 filters, stride 2); `x` 1×1 conv layers (92 filters) — each costing
/// 368 ReLUs; a 2×2 conv (16 filters); a 10-neuron FC classifier.
pub fn deep_cnn(x: usize) -> Network {
    let mut layers = vec![
        Layer::Conv2d {
            kernel: 3,
            filters: 2,
            stride: 1,
            padding: 0,
            relu: true,
        },
        Layer::Conv2d {
            kernel: 3,
            filters: 92,
            stride: 2,
            padding: 0,
            relu: true,
        },
    ];
    layers.extend(std::iter::repeat_n(
        Layer::Conv2d {
            kernel: 1,
            filters: 92,
            stride: 1,
            padding: 0,
            relu: true,
        },
        x,
    ));
    layers.push(Layer::Conv2d {
        kernel: 2,
        filters: 16,
        stride: 1,
        padding: 0,
        relu: true,
    });
    layers.push(Layer::Dense {
        neurons: 10,
        relu: false,
    });
    Network {
        name: format!("DeepCNN-{x}"),
        input: Shape::new(8, 8, 1),
        layers,
    }
}

/// VGG-9 (§VI-A): 32×32×3 CIFAR-10 input; six `same`-padded 3×3 conv
/// layers with 64, 64, 128, 128, 256, 256 filters; 2×2 average pooling
/// after the 2nd and 4th conv; FC 512, 512, 10.
pub fn vgg9() -> Network {
    let conv = |filters: usize| Layer::Conv2d {
        kernel: 3,
        filters,
        stride: 1,
        padding: 1,
        relu: true,
    };
    Network {
        name: "VGG-9".to_string(),
        input: Shape::new(32, 32, 3),
        layers: vec![
            conv(64),                   // 32×32×64
            conv(64),                   // 32×32×64
            Layer::AvgPool { size: 2 }, // 16×16×64
            conv(128),                  // 16×16×128
            conv(128),                  // 16×16×128
            Layer::AvgPool { size: 2 }, // 8×8×128
            conv(256),                  // 8×8×256
            conv(256),                  // 8×8×256
            Layer::Dense {
                neurons: 512,
                relu: true,
            },
            Layer::Dense {
                neurons: 512,
                relu: true,
            },
            Layer::Dense {
                neurons: 10,
                relu: false,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::PBS_PER_ACTIVATION;

    /// Output shape of the full network.
    fn output_shape(net: &Network) -> Shape {
        net.layers.iter().fold(net.input, |s, l| l.output_shape(s))
    }

    #[test]
    fn deep_cnn_bootstrap_counts() {
        // 6×6×2 + 2×2×92 + X·(2×2×92) + 1×1×16 activations (none for the
        // final FC): each 1×1 layer costs the paper's "368 ReLU".
        for x in [20usize, 50, 100] {
            let net = deep_cnn(x);
            let acts = 72 + 368 + (x as u64) * 368 + 16;
            assert_eq!(net.total_bootstraps(), acts * PBS_PER_ACTIVATION, "X={x}");
            assert_eq!(output_shape(&net).elements(), 10);
        }
    }

    #[test]
    fn deep_cnn_layer_count() {
        assert_eq!(deep_cnn(20).layers.len(), 24);
        // The bootstrap-free FC folds into the previous level.
        assert_eq!(deep_cnn(20).workload().levels.len(), 23);
    }

    #[test]
    fn vgg9_structure() {
        let net = vgg9();
        assert_eq!(output_shape(&net).elements(), 10);
        // Six conv layers with ReLU + 2 FC ReLUs; ≈ 230k activations.
        let acts = net.total_bootstraps() / PBS_PER_ACTIVATION;
        assert!((200_000..260_000).contains(&acts), "acts = {acts}");
    }

    #[test]
    fn workload_folds_leveled_layers() {
        let net = vgg9();
        // Pools and the last FC have no bootstraps; they fold into the
        // previous level, so levels = layers-with-bootstraps.
        assert_eq!(net.workload().levels.len(), 8);
    }

    #[test]
    fn macs_are_positive_everywhere() {
        for (b, m) in deep_cnn(20).level_costs() {
            assert!(m > 0);
            let _ = b;
        }
    }
}
