//! Pooling layers: max pooling and the global-average-pool head.

use crate::layer::{ForwardCtx, Layer, Mode};
use bdlfi_tensor::{
    global_avg_pool, global_avg_pool_backward, maxpool2d, maxpool2d_backward, Pool2dSpec, Tensor,
};

/// Max pooling over NCHW batches.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    spec: Pool2dSpec,
    // Argmax indices and input dims of the last train-mode forward,
    // consumed by backward.
    cached: Option<(Vec<usize>, Vec<usize>)>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with the given window geometry.
    pub fn new(spec: Pool2dSpec) -> Self {
        MaxPool2d { spec, cached: None }
    }

    /// The pooling geometry.
    pub fn spec(&self) -> Pool2dSpec {
        self.spec
    }
}

impl Layer for MaxPool2d {
    fn kind(&self) -> &'static str {
        "maxpool2d"
    }

    fn forward(&mut self, input: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        let (out, argmax) = maxpool2d(input, self.spec);
        if ctx.mode() == Mode::Train {
            self.cached = Some((argmax, input.dims().to_vec()));
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (argmax, dims) = self
            .cached
            .take()
            // bdlfi-lint: allow(BD010) -- train-mode contract: Trainer::fit always runs forward before backward; the message names the missing cache
            .expect("maxpool backward before train-mode forward");
        maxpool2d_backward(grad_out, &argmax, &dims)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Global average pooling `(n, c, h, w) -> (n, c)` — the ResNet-18 head.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    cached_input_dims: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global-average-pool layer.
    pub fn new() -> Self {
        GlobalAvgPool {
            cached_input_dims: None,
        }
    }
}

impl Layer for GlobalAvgPool {
    fn kind(&self) -> &'static str {
        "global_avg_pool"
    }

    fn forward(&mut self, input: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        if ctx.mode() == Mode::Train {
            self.cached_input_dims = Some(input.dims().to_vec());
        }
        global_avg_pool(input)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let dims = self
            .cached_input_dims
            .take()
            // bdlfi-lint: allow(BD010) -- train-mode contract: Trainer::fit always runs forward before backward; the message names the missing cache
            .expect("global_avg_pool backward before train-mode forward");
        global_avg_pool_backward(grad_out, &dims)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_roundtrip() {
        let mut mp = MaxPool2d::new(Pool2dSpec::new(2));
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2]);
        let y = mp.forward(&x, &mut ForwardCtx::new(Mode::Train));
        assert_eq!(y.data(), &[4.0]);
        let gx = mp.backward(&Tensor::from_vec(vec![7.0], [1, 1, 1, 1]));
        assert_eq!(gx.data(), &[0.0, 0.0, 0.0, 7.0]);
    }

    #[test]
    fn gap_forward_and_backward_shapes() {
        let mut gap = GlobalAvgPool::new();
        let x = Tensor::ones([2, 3, 4, 4]);
        let y = gap.forward(&x, &mut ForwardCtx::new(Mode::Train));
        assert_eq!(y.dims(), &[2, 3]);
        assert_eq!(y.data(), &[1.0; 6]);
        let gx = gap.backward(&Tensor::ones([2, 3]));
        assert_eq!(gx.dims(), &[2, 3, 4, 4]);
        assert!((gx.data()[0] - 1.0 / 16.0).abs() < 1e-7);
    }

    #[test]
    fn pool_layers_have_no_params() {
        let mut count = 0;
        MaxPool2d::new(Pool2dSpec::new(2)).visit_params("", &mut |_, _| count += 1);
        GlobalAvgPool::new().visit_params("", &mut |_, _| count += 1);
        assert_eq!(count, 0);
    }
}
