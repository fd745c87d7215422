//! Rectified linear unit layer.

use crate::layer::{ForwardCtx, Layer, Mode};
use bdlfi_tensor::Tensor;

/// Element-wise `max(0, x)` with the standard subgradient (0 at 0).
#[derive(Debug, Clone, Default)]
pub struct Relu {
    // 1.0 where the input was positive, 0.0 elsewhere.
    mask: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn kind(&self) -> &'static str {
        "relu"
    }

    fn forward(&mut self, input: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        if ctx.mode() == Mode::Train {
            self.mask = Some(input.map(|x| if x > 0.0 { 1.0 } else { 0.0 }));
        }
        input.relu()
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self
            .mask
            .take()
            // bdlfi-lint: allow(BD010) -- train-mode contract: Trainer::fit always runs forward before backward; the message names the missing cache
            .expect("relu backward before train-mode forward");
        grad_out.mul_t(&mask)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_and_backward_masks() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0, -3.0], [2, 2]);
        let y = r.forward(&x, &mut ForwardCtx::new(Mode::Train));
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let g = r.backward(&Tensor::ones([2, 2]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn gradient_at_zero_is_zero() {
        let mut r = Relu::new();
        r.forward(&Tensor::zeros([1, 1]), &mut ForwardCtx::new(Mode::Train));
        assert_eq!(r.backward(&Tensor::ones([1, 1])).data(), &[0.0]);
    }

    #[test]
    fn has_no_params() {
        let r = Relu::new();
        let mut count = 0;
        r.visit_params("", &mut |_, _| count += 1);
        assert_eq!(count, 0);
    }
}
