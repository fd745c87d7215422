//! 2-D convolution layer over NCHW batches (ResNet-18 substrate).

use crate::layer::{ForwardCtx, Layer, Mode};
use crate::params::{join_path, Param};
use bdlfi_tensor::{conv2d, conv2d_backward, Conv2dSpec, Tensor};
use rand::Rng;

/// A 2-D convolution with weight `(out_c, in_c, kh, kw)` and optional bias.
///
/// ResNet convolutions are conventionally bias-free (batch norm follows);
/// use [`Conv2d::without_bias`] for those.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Option<Param>,
    spec: Conv2dSpec,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-uniform weights and zero bias.
    pub fn new<R: Rng + ?Sized>(in_c: usize, out_c: usize, spec: Conv2dSpec, rng: &mut R) -> Self {
        let (kh, kw) = spec.kernel;
        let fan_in = in_c * kh * kw;
        Conv2d {
            weight: Param::new(
                "weight",
                Tensor::kaiming_uniform([out_c, in_c, kh, kw], fan_in, rng),
            ),
            bias: Some(Param::new("bias", Tensor::zeros([out_c]))),
            spec,
            cached_input: None,
        }
    }

    /// Creates a bias-free convolution (the ResNet convention before batch
    /// norm).
    pub fn without_bias<R: Rng + ?Sized>(
        in_c: usize,
        out_c: usize,
        spec: Conv2dSpec,
        rng: &mut R,
    ) -> Self {
        let mut c = Conv2d::new(in_c, out_c, spec, rng);
        c.bias = None;
        c
    }

    /// The convolution geometry.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.weight.value.dim(0)
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.weight.value.dim(1)
    }

    /// The weight tensor `(out_c, in_c, kh, kw)` — read access for the
    /// quantizer.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// The bias tensor `(out_c,)`, if the convolution has one.
    pub fn bias_value(&self) -> Option<&Tensor> {
        self.bias.as_ref().map(|b| &b.value)
    }
}

impl Layer for Conv2d {
    fn kind(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, input: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        if ctx.mode() == Mode::Train {
            self.cached_input = Some(input.clone());
        }
        conv2d(
            input,
            &self.weight.value,
            self.bias.as_ref().map(|b| &b.value),
            self.spec,
        )
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .take()
            // bdlfi-lint: allow(BD010) -- train-mode contract: Trainer::fit always runs forward before backward; the message names the missing cache
            .expect("conv2d backward before train-mode forward");
        let (gi, gw, gb) = conv2d_backward(&input, &self.weight.value, grad_out, self.spec);
        self.weight.grad.add_assign_t(&gw);
        if let Some(b) = self.bias.as_mut() {
            b.grad.add_assign_t(&gb);
        }
        gi
    }

    fn visit_params(&self, path: &str, f: &mut dyn FnMut(&str, &Param)) {
        f(&join_path(path, "weight"), &self.weight);
        if let Some(b) = &self.bias {
            f(&join_path(path, "bias"), b);
        }
    }

    fn visit_params_mut(&mut self, path: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        f(&join_path(path, "weight"), &mut self.weight);
        if let Some(b) = self.bias.as_mut() {
            f(&join_path(path, "bias"), b);
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_geometry() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut c = Conv2d::new(3, 8, Conv2dSpec::new(3).with_padding(1), &mut rng);
        let x = Tensor::rand_normal([2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let y = c.forward(&x, &mut ForwardCtx::new(Mode::Eval));
        assert_eq!(y.dims(), &[2, 8, 8, 8]);
        assert_eq!(c.out_channels(), 8);
        assert_eq!(c.in_channels(), 3);
    }

    #[test]
    fn strided_conv_downsamples() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut c = Conv2d::without_bias(
            4,
            4,
            Conv2dSpec::new(3).with_stride(2).with_padding(1),
            &mut rng,
        );
        let x = Tensor::rand_normal([1, 4, 16, 16], 0.0, 1.0, &mut rng);
        let y = c.forward(&x, &mut ForwardCtx::new(Mode::Eval));
        assert_eq!(y.dims(), &[1, 4, 8, 8]);
    }

    #[test]
    fn without_bias_exposes_only_weight() {
        let mut rng = StdRng::seed_from_u64(7);
        let c = Conv2d::without_bias(2, 2, Conv2dSpec::new(3), &mut rng);
        let mut names = Vec::new();
        c.visit_params("conv1", &mut |p, _| names.push(p.to_string()));
        assert_eq!(names, vec!["conv1.weight"]);
    }

    #[test]
    fn backward_matches_finite_differences_on_weight() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut c = Conv2d::new(2, 3, Conv2dSpec::new(3).with_padding(1), &mut rng);
        let x = Tensor::rand_normal([1, 2, 4, 4], 0.0, 1.0, &mut rng);
        let mut ctx = ForwardCtx::new(Mode::Train);
        let y = c.forward(&x, &mut ctx);
        c.backward(&Tensor::ones(y.dims()));
        let gw = c.weight.grad.clone();

        let eps = 1e-2f32;
        for idx in [0usize, 10, 33] {
            let orig = c.weight.value.data()[idx];
            c.weight.value.data_mut()[idx] = orig + eps;
            let lp = c.forward(&x, &mut ForwardCtx::new(Mode::Eval)).sum();
            c.weight.value.data_mut()[idx] = orig - eps;
            let lm = c.forward(&x, &mut ForwardCtx::new(Mode::Eval)).sum();
            c.weight.value.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gw.data()[idx]).abs() < 0.05,
                "fd={fd} got={}",
                gw.data()[idx]
            );
        }
    }
}
