//! Explicit softmax layer — the paper's output stage (Fig. 1 ①:
//! "FC Layer → Softmax").
//!
//! Training pipelines normally fold the softmax into the cross-entropy
//! loss for numerical stability; this explicit layer exists so inference
//! pipelines can expose the softmax *output* as a fault site (the paper
//! injects into "outputs" too) and so campaigns can read calibrated
//! probabilities directly.

use crate::layer::{ForwardCtx, Layer, Mode};
use bdlfi_tensor::Tensor;

/// Row-wise softmax over `(batch, classes)` logits.
#[derive(Debug, Clone, Default)]
pub struct Softmax {
    cached_output: Option<Tensor>,
}

impl Softmax {
    /// Creates a softmax layer.
    pub fn new() -> Self {
        Softmax {
            cached_output: None,
        }
    }
}

impl Layer for Softmax {
    fn kind(&self) -> &'static str {
        "softmax"
    }

    fn forward(&mut self, input: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        let out = input.softmax_rows();
        if ctx.mode() == Mode::Train {
            self.cached_output = Some(out.clone());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // dL/dx_i = y_i * (g_i - sum_j g_j y_j) per row.
        let mut grad_in = self
            .cached_output
            .take()
            // bdlfi-lint: allow(BD010) -- train-mode contract: Trainer::fit always runs forward before backward; the message names the missing cache
            .expect("softmax backward before train-mode forward");
        // The cached output becomes the input gradient row by row: each
        // row's dot product is taken before the row is overwritten.
        for i in 0..grad_in.dim(0) {
            let gr = grad_out.row(i);
            let yr = grad_in.row_mut(i);
            let dot: f32 = yr.iter().zip(gr.iter()).map(|(a, b)| a * b).sum();
            for (y, &g) in yr.iter_mut().zip(gr.iter()) {
                *y *= g - dot;
            }
        }
        grad_in
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_produces_distributions() {
        let mut s = Softmax::new();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], [2, 3]);
        let y = s.forward(&x, &mut ForwardCtx::new(Mode::Eval));
        for i in 0..2 {
            let sum: f32 = y.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut s = Softmax::new();
        let x = Tensor::from_vec(vec![0.2, -0.7, 1.1, 0.4], [1, 4]);
        let w = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], [1, 4]);
        let loss =
            |s: &mut Softmax, x: &Tensor| s.forward(x, &mut ForwardCtx::new(Mode::Train)).dot(&w);
        let _ = loss(&mut s, &x);
        let gx = s.backward(&w);

        let eps = 1e-3f32;
        for idx in 0..4 {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fd = (loss(&mut s, &xp) - loss(&mut s, &xm)) / (2.0 * eps);
            assert!(
                (fd - gx.data()[idx]).abs() < 1e-3,
                "d[{idx}] fd={fd} got={}",
                gx.data()[idx]
            );
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        // Softmax outputs are constrained to the simplex, so the input
        // gradient has zero row sums.
        let mut s = Softmax::new();
        let x = Tensor::from_vec(vec![0.5, 1.5, -0.5], [1, 3]);
        s.forward(&x, &mut ForwardCtx::new(Mode::Train));
        let g = s.backward(&Tensor::from_vec(vec![1.0, 2.0, 3.0], [1, 3]));
        let sum: f32 = g.data().iter().sum();
        assert!(sum.abs() < 1e-6);
    }
}
