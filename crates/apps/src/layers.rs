//! Neural-network layer descriptions and their TFHE cost model.
//!
//! In TFHE-based inference (Concrete-ML style), linear layers (conv /
//! dense / pooling) are *leveled* — plaintext-weight dot products on the
//! VPU — while every activation (ReLU) is a programmable bootstrap. With
//! 8-bit quantization each activation costs [`PBS_PER_ACTIVATION`]
//! bootstraps (the non-linearity plus re-quantization), the factor that
//! makes our DeepCNN columns land on the paper's Table VI numbers.

/// Programmable bootstraps per quantized activation (ReLU + requantize).
pub const PBS_PER_ACTIVATION: u64 = 2;

/// Shape of a feature map: height × width × channels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Height in pixels.
    pub h: usize,
    /// Width in pixels.
    pub w: usize,
    /// Channels.
    pub c: usize,
}

impl Shape {
    /// Construct a shape.
    pub const fn new(h: usize, w: usize, c: usize) -> Self {
        Self { h, w, c }
    }

    /// Total elements.
    pub fn elements(&self) -> u64 {
        (self.h * self.w * self.c) as u64
    }
}

/// One network layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// 2-D convolution with square kernels.
    Conv2d {
        /// Kernel height/width.
        kernel: usize,
        /// Output channels (the paper's "filter size").
        filters: usize,
        /// Stride.
        stride: usize,
        /// Zero-padding ring width (1 for `same` 3×3 convs).
        padding: usize,
        /// Whether a ReLU (bootstrapped) follows.
        relu: bool,
    },
    /// Average pooling (leveled — a plaintext-weighted sum).
    AvgPool {
        /// Pool height/width and stride.
        size: usize,
    },
    /// Fully connected layer.
    Dense {
        /// Output neurons.
        neurons: usize,
        /// Whether a ReLU (bootstrapped) follows.
        relu: bool,
    },
}

impl Layer {
    /// Output shape given the input shape.
    ///
    /// # Panics
    ///
    /// Panics if the layer does not fit the input (kernel larger than the
    /// feature map).
    pub(crate) fn output_shape(&self, input: Shape) -> Shape {
        match *self {
            Layer::Conv2d {
                kernel,
                filters,
                stride,
                padding,
                ..
            } => {
                let (ih, iw) = (input.h + 2 * padding, input.w + 2 * padding);
                assert!(kernel <= ih && kernel <= iw, "kernel larger than input");
                let h = (ih - kernel) / stride + 1;
                let w = (iw - kernel) / stride + 1;
                Shape::new(h, w, filters)
            }
            Layer::AvgPool { size } => Shape::new(input.h / size, input.w / size, input.c),
            Layer::Dense { neurons, .. } => Shape::new(1, 1, neurons),
        }
    }

    /// Bootstraps this layer performs (activations × PBS factor).
    pub fn bootstraps(&self, input: Shape) -> u64 {
        let out = self.output_shape(input);
        match *self {
            Layer::Conv2d { relu, .. } | Layer::Dense { relu, .. } => {
                if relu {
                    out.elements() * PBS_PER_ACTIVATION
                } else {
                    0
                }
            }
            Layer::AvgPool { .. } => 0,
        }
    }

    /// Leveled multiply-accumulate operations (VPU P-ALU work).
    pub fn macs(&self, input: Shape) -> u64 {
        let out = self.output_shape(input);
        match *self {
            Layer::Conv2d { kernel, .. } => out.elements() * (kernel * kernel * input.c) as u64,
            Layer::AvgPool { size } => out.elements() * (size * size) as u64,
            Layer::Dense { .. } => out.elements() * input.elements(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_shapes() {
        // The paper's DeepCNN front end: 8×8×1 → 3×3 conv (2 filters) →
        // 6×6×2 → 3×3 conv stride 2 (92 filters) → 2×2×92.
        let s0 = Shape::new(8, 8, 1);
        let c1 = Layer::Conv2d {
            kernel: 3,
            filters: 2,
            stride: 1,
            padding: 0,
            relu: true,
        };
        let s1 = c1.output_shape(s0);
        assert_eq!(s1, Shape::new(6, 6, 2));
        let c2 = Layer::Conv2d {
            kernel: 3,
            filters: 92,
            stride: 2,
            padding: 0,
            relu: true,
        };
        let s2 = c2.output_shape(s1);
        assert_eq!(s2, Shape::new(2, 2, 92));
        // "requires 368 ReLU" per 1×1 layer: 2×2×92 = 368 activations.
        let c3 = Layer::Conv2d {
            kernel: 1,
            filters: 92,
            stride: 1,
            padding: 0,
            relu: true,
        };
        assert_eq!(c3.output_shape(s2).elements(), 368);
        assert_eq!(c3.bootstraps(s2), 368 * PBS_PER_ACTIVATION);
    }

    #[test]
    fn pooling_is_leveled() {
        let p = Layer::AvgPool { size: 2 };
        let s = Shape::new(32, 32, 64);
        assert_eq!(p.output_shape(s), Shape::new(16, 16, 64));
        assert_eq!(p.bootstraps(s), 0);
        assert_eq!(p.macs(s), 16 * 16 * 64 * 4);
    }

    #[test]
    fn dense_macs_and_bootstraps() {
        let d = Layer::Dense {
            neurons: 10,
            relu: false,
        };
        let s = Shape::new(1, 1, 512);
        assert_eq!(d.macs(s), 5120);
        assert_eq!(d.bootstraps(s), 0);
        let d = Layer::Dense {
            neurons: 512,
            relu: true,
        };
        assert_eq!(d.bootstraps(s), 512 * PBS_PER_ACTIVATION);
    }

    #[test]
    #[should_panic(expected = "kernel larger")]
    fn oversized_kernel_panics() {
        let c = Layer::Conv2d {
            kernel: 5,
            filters: 1,
            stride: 1,
            padding: 0,
            relu: false,
        };
        let _ = c.output_shape(Shape::new(3, 3, 1));
    }
}
