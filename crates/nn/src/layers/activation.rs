//! Smooth activations (sigmoid, tanh) — BDLFI only assumes end-to-end
//! differentiability ("BFI can be used to inject faults into programs
//! other than neural networks, with the only assumption being that of
//! end-to-end differentiability"), so the layer menu is not ReLU-only.

use crate::layer::{ForwardCtx, Layer, Mode};
use bdlfi_tensor::Tensor;

/// Element-wise logistic sigmoid `1 / (1 + e^{-x})`.
#[derive(Debug, Clone, Default)]
pub struct Sigmoid {
    cached_output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Self {
        Sigmoid {
            cached_output: None,
        }
    }
}

impl Layer for Sigmoid {
    fn kind(&self) -> &'static str {
        "sigmoid"
    }

    fn forward(&mut self, input: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        let out = input.map(|x| 1.0 / (1.0 + (-x).exp()));
        if ctx.mode() == Mode::Train {
            self.cached_output = Some(out.clone());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self
            .cached_output
            .take()
            // bdlfi-lint: allow(BD010) -- train-mode contract: Trainer::fit always runs forward before backward; the message names the missing cache
            .expect("sigmoid backward before train-mode forward");
        // dy/dx = y (1 - y)
        grad_out.zip_map(&y, |g, y| g * y * (1.0 - y))
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Element-wise hyperbolic tangent.
#[derive(Debug, Clone, Default)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// Creates a tanh layer.
    pub fn new() -> Self {
        Tanh {
            cached_output: None,
        }
    }
}

impl Layer for Tanh {
    fn kind(&self) -> &'static str {
        "tanh"
    }

    fn forward(&mut self, input: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        let out = input.map(f32::tanh);
        if ctx.mode() == Mode::Train {
            self.cached_output = Some(out.clone());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self
            .cached_output
            .take()
            // bdlfi-lint: allow(BD010) -- train-mode contract: Trainer::fit always runs forward before backward; the message names the missing cache
            .expect("tanh backward before train-mode forward");
        // dy/dx = 1 - y^2
        grad_out.zip_map(&y, |g, y| g * (1.0 - y * y))
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradcheck(layer: &mut dyn Layer, x: &Tensor) {
        let w = Tensor::from_fn(x.dims(), |i| (i.iter().sum::<usize>() % 3) as f32 - 1.0);
        let loss =
            |l: &mut dyn Layer, x: &Tensor| l.forward(x, &mut ForwardCtx::new(Mode::Train)).dot(&w);
        let _ = loss(layer, x);
        let gx = layer.backward(&w);
        let eps = 1e-3f32;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fd = (loss(layer, &xp) - loss(layer, &xm)) / (2.0 * eps);
            assert!(
                (fd - gx.data()[idx]).abs() < 1e-2,
                "d[{idx}] fd={fd} got={}",
                gx.data()[idx]
            );
        }
    }

    #[test]
    fn sigmoid_range_and_midpoint() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(vec![-100.0, 0.0, 100.0], [1, 3]);
        let y = s.forward(&x, &mut ForwardCtx::new(Mode::Eval));
        assert!(y.data()[0] < 1e-6);
        assert!((y.data()[1] - 0.5).abs() < 1e-7);
        assert!(y.data()[2] > 1.0 - 1e-6);
    }

    #[test]
    fn tanh_is_odd_and_bounded() {
        let mut t = Tanh::new();
        let x = Tensor::from_vec(vec![-2.0, 0.0, 2.0], [1, 3]);
        let y = t.forward(&x, &mut ForwardCtx::new(Mode::Eval));
        assert!((y.data()[0] + y.data()[2]).abs() < 1e-7);
        assert_eq!(y.data()[1], 0.0);
        assert!(y.data().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn sigmoid_gradcheck() {
        let x = Tensor::from_vec(vec![0.3, -1.2, 2.0, 0.0, -0.5, 0.9], [2, 3]);
        gradcheck(&mut Sigmoid::new(), &x);
    }

    #[test]
    fn tanh_gradcheck() {
        let x = Tensor::from_vec(vec![0.3, -1.2, 2.0, 0.0, -0.5, 0.9], [2, 3]);
        gradcheck(&mut Tanh::new(), &x);
    }

    #[test]
    fn activations_have_no_params() {
        let mut count = 0;
        Sigmoid::new().visit_params("", &mut |_, _| count += 1);
        Tanh::new().visit_params("", &mut |_, _| count += 1);
        assert_eq!(count, 0);
    }
}
