//! The ResNet basic residual block (two 3×3 convolutions with a skip
//! connection), matching the topology of the paper's ResNet-18 (Fig. 3).

use crate::layer::{ForwardCtx, Layer};
use crate::layers::{BatchNorm2d, Conv2d, Relu};
use bdlfi_tensor::{Conv2dSpec, Tensor};
use rand::Rng;

/// A basic residual block: `out = relu(bn2(conv2(relu(bn1(conv1(x))))) + shortcut(x))`.
///
/// When `stride > 1` or the channel count changes, the shortcut is a
/// 1×1 strided convolution followed by batch norm (the standard projection
/// shortcut); otherwise it is the identity.
#[derive(Clone)]
pub struct BasicBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Relu,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    relu2: Relu,
    downsample: Option<(Conv2d, BatchNorm2d)>,
}

impl std::fmt::Debug for BasicBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BasicBlock")
            .field("in_channels", &self.conv1.in_channels())
            .field("out_channels", &self.conv2.out_channels())
            .field("projection_shortcut", &self.downsample.is_some())
            .finish()
    }
}

impl BasicBlock {
    /// Creates a basic block mapping `in_c` channels to `out_c` channels
    /// with the given stride on the first convolution.
    pub fn new<R: Rng + ?Sized>(in_c: usize, out_c: usize, stride: usize, rng: &mut R) -> Self {
        let conv1 = Conv2d::without_bias(
            in_c,
            out_c,
            Conv2dSpec::new(3).with_stride(stride).with_padding(1),
            rng,
        );
        let conv2 = Conv2d::without_bias(out_c, out_c, Conv2dSpec::new(3).with_padding(1), rng);
        let downsample = if stride != 1 || in_c != out_c {
            Some((
                Conv2d::without_bias(in_c, out_c, Conv2dSpec::new(1).with_stride(stride), rng),
                BatchNorm2d::new(out_c),
            ))
        } else {
            None
        };
        BasicBlock {
            conv1,
            bn1: BatchNorm2d::new(out_c),
            relu1: Relu::new(),
            conv2,
            bn2: BatchNorm2d::new(out_c),
            relu2: Relu::new(),
            downsample,
        }
    }

    /// Whether the block uses a projection (1×1 conv) shortcut.
    pub fn has_projection(&self) -> bool {
        self.downsample.is_some()
    }

    /// The first 3×3 convolution.
    pub fn conv1(&self) -> &Conv2d {
        &self.conv1
    }

    /// The batch norm after [`BasicBlock::conv1`].
    pub fn bn1(&self) -> &BatchNorm2d {
        &self.bn1
    }

    /// The second 3×3 convolution.
    pub fn conv2(&self) -> &Conv2d {
        &self.conv2
    }

    /// The batch norm after [`BasicBlock::conv2`].
    pub fn bn2(&self) -> &BatchNorm2d {
        &self.bn2
    }

    /// The projection shortcut (1×1 conv + batch norm), if present.
    pub fn downsample(&self) -> Option<(&Conv2d, &BatchNorm2d)> {
        self.downsample.as_ref().map(|(c, b)| (c, b))
    }

    fn run_child(child: &mut dyn Layer, name: &str, x: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        ctx.push(name);
        let mut y = child.forward(x, ctx);
        ctx.fire(&mut y);
        ctx.pop();
        y
    }
}

impl Layer for BasicBlock {
    fn kind(&self) -> &'static str {
        "basic_block"
    }

    fn forward(&mut self, input: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        let h = Self::run_child(&mut self.conv1, "conv1", input, ctx);
        let h = Self::run_child(&mut self.bn1, "bn1", &h, ctx);
        let h = Self::run_child(&mut self.relu1, "relu1", &h, ctx);
        let h = Self::run_child(&mut self.conv2, "conv2", &h, ctx);
        let z = Self::run_child(&mut self.bn2, "bn2", &h, ctx);

        let shortcut = match self.downsample.as_mut() {
            Some((conv, bn)) => {
                let s = Self::run_child(conv, "down_conv", input, ctx);
                Self::run_child(bn, "down_bn", &s, ctx)
            }
            None => input.clone(),
        };

        let sum = z.add_t(&shortcut);
        let mut out = self.relu2.forward(&sum, ctx);
        ctx.push("relu2");
        ctx.fire(&mut out);
        ctx.pop();
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // Through the final ReLU; the gradient then splits across the sum.
        let d_sum = self.relu2.backward(grad_out);

        // Main path.
        let d = self.bn2.backward(&d_sum);
        let d = self.conv2.backward(&d);
        let d = self.relu1.backward(&d);
        let d = self.bn1.backward(&d);
        let d_main = self.conv1.backward(&d);

        // Shortcut path.
        let d_short = match self.downsample.as_mut() {
            Some((conv, bn)) => {
                let d = bn.backward(&d_sum);
                conv.backward(&d)
            }
            None => d_sum,
        };

        d_main.add_t(&d_short)
    }

    fn visit_params(&self, path: &str, f: &mut dyn FnMut(&str, &crate::params::Param)) {
        let p = |c: &str| crate::params::join_path(path, c);
        self.conv1.visit_params(&p("conv1"), f);
        self.bn1.visit_params(&p("bn1"), f);
        self.conv2.visit_params(&p("conv2"), f);
        self.bn2.visit_params(&p("bn2"), f);
        if let Some((conv, bn)) = &self.downsample {
            conv.visit_params(&p("down_conv"), f);
            bn.visit_params(&p("down_bn"), f);
        }
    }

    fn visit_params_mut(&mut self, path: &str, f: &mut dyn FnMut(&str, &mut crate::params::Param)) {
        let base = path.to_string();
        let p = |c: &str| crate::params::join_path(&base, c);
        self.conv1.visit_params_mut(&p("conv1"), f);
        self.bn1.visit_params_mut(&p("bn1"), f);
        self.conv2.visit_params_mut(&p("conv2"), f);
        self.bn2.visit_params_mut(&p("bn2"), f);
        if let Some((conv, bn)) = self.downsample.as_mut() {
            conv.visit_params_mut(&p("down_conv"), f);
            bn.visit_params_mut(&p("down_bn"), f);
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Mode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_block_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut b = BasicBlock::new(4, 4, 1, &mut rng);
        assert!(!b.has_projection());
        let x = Tensor::rand_normal([2, 4, 8, 8], 0.0, 1.0, &mut rng);
        let y = b.forward(&x, &mut ForwardCtx::new(Mode::Eval));
        assert_eq!(y.dims(), x.dims());
    }

    #[test]
    fn strided_block_downsamples_and_projects() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut b = BasicBlock::new(4, 8, 2, &mut rng);
        assert!(b.has_projection());
        let x = Tensor::rand_normal([2, 4, 8, 8], 0.0, 1.0, &mut rng);
        let y = b.forward(&x, &mut ForwardCtx::new(Mode::Eval));
        assert_eq!(y.dims(), &[2, 8, 4, 4]);
    }

    #[test]
    fn tap_sees_all_child_activations() {
        let mut rng = StdRng::seed_from_u64(43);
        let mut b = BasicBlock::new(2, 4, 2, &mut rng);
        let x = Tensor::rand_normal([1, 2, 4, 4], 0.0, 1.0, &mut rng);
        let mut paths = Vec::new();
        let mut tap = |p: &str, _t: &mut Tensor| paths.push(p.to_string());
        let mut ctx = ForwardCtx::with_tap(Mode::Train, &mut tap);
        b.forward(&x, &mut ctx);
        drop(ctx);
        assert_eq!(
            paths,
            vec![
                "conv1",
                "bn1",
                "relu1",
                "conv2",
                "bn2",
                "down_conv",
                "down_bn",
                "relu2"
            ]
        );
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(44);
        let mut b = BasicBlock::new(2, 2, 1, &mut rng);
        let x = Tensor::rand_normal([2, 2, 4, 4], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal([2, 2, 4, 4], 0.0, 1.0, &mut rng);
        let loss = |b: &mut BasicBlock, x: &Tensor| {
            b.forward(x, &mut ForwardCtx::new(Mode::Train)).dot(&w)
        };
        let _ = loss(&mut b, &x);
        let gx = b.backward(&w);

        let eps = 1e-2f32;
        for idx in [0usize, 17, 31, 63] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fd = (loss(&mut b, &xp) - loss(&mut b, &xm)) / (2.0 * eps);
            assert!(
                (fd - gx.data()[idx]).abs() < 0.1,
                "dx[{idx}] fd={fd} got={}",
                gx.data()[idx]
            );
        }
    }

    #[test]
    fn param_paths_are_structured() {
        let mut rng = StdRng::seed_from_u64(45);
        let b = BasicBlock::new(2, 4, 2, &mut rng);
        let mut paths = Vec::new();
        b.visit_params("block0", &mut |p, _| paths.push(p.to_string()));
        assert!(paths.contains(&"block0.conv1.weight".to_string()));
        assert!(paths.contains(&"block0.down_conv.weight".to_string()));
        assert!(paths.contains(&"block0.bn2.running_var".to_string()));
    }
}
