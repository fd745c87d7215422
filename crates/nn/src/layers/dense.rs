//! Fully connected (dense) layer — the layer type of the paper's MLP
//! (Fig. 1 ①: `y₀ = max(0, W₀ᵀ x + b₀)` is [`Dense`] followed by
//! [`crate::layers::Relu`]).

use crate::layer::{ForwardCtx, Layer};
use crate::params::{join_path, Param};
use bdlfi_tensor::{gemm, scratch, Tensor};
use rand::Rng;

/// A fully connected layer computing `y = x · W + b` over row-major batches:
/// input `(n, in)`, weight `(in, out)`, bias `(out,)`, output `(n, out)`.
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with Kaiming-uniform weights and zero bias.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        Dense {
            weight: Param::new(
                "weight",
                Tensor::kaiming_uniform([in_dim, out_dim], in_dim, rng),
            ),
            bias: Param::new("bias", Tensor::zeros([out_dim])),
            cached_input: None,
        }
    }

    /// Creates a dense layer from explicit weight `(in, out)` and bias
    /// `(out,)` tensors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent.
    pub fn from_weights(weight: Tensor, bias: Tensor) -> Self {
        assert_eq!(weight.rank(), 2, "dense weight must be rank 2");
        assert_eq!(
            bias.dims(),
            &[weight.dim(1)],
            "dense bias must match weight columns"
        );
        Dense {
            weight: Param::new("weight", weight),
            bias: Param::new("bias", bias),
            cached_input: None,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.weight.value.dim(0)
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.weight.value.dim(1)
    }

    /// The weight tensor `(in, out)` — read access for the quantizer.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// The bias tensor `(out,)`.
    pub fn bias(&self) -> &Tensor {
        &self.bias.value
    }

    /// Recomputes only the output columns `cols` of `y = x · W + b` into
    /// `out`, a row-major `(n, out_dim)` buffer: entry `(i, c)` for every
    /// `c` in `cols` becomes bit-identical to the same entry of a full
    /// [`Layer::forward`] on the same input, and every other entry is left
    /// as it was.
    ///
    /// This is the sparse-delta evaluator's building block: a fault
    /// confined to weight column `j` (or bias element `j`) perturbs only
    /// output column `j`, so the faulty layer output is the golden output
    /// with the touched columns recomputed — the evaluator hands in a copy
    /// of the golden output and gets the faulty one back. Bit-identity
    /// holds because the blocked GEMM reduces every output element over
    /// `k` in a fixed order that does not depend on which rows or columns
    /// share a call.
    ///
    /// # Panics
    ///
    /// Panics if the input width mismatches, a column index is out of
    /// range, or `out` does not hold `n · out_dim` values.
    pub fn forward_cols(&self, input: &Tensor, cols: &[usize], out: &mut [f32]) {
        assert_eq!(input.rank(), 2, "dense expects a (batch, features) input");
        let (in_dim, out_dim) = (self.in_dim(), self.out_dim());
        assert_eq!(input.dim(1), in_dim, "dense input width mismatch");
        assert!(
            cols.iter().all(|&c| c < out_dim),
            "column index out of range"
        );
        let (n, m) = (input.dim(0), cols.len());
        assert_eq!(out.len(), n * out_dim, "dense output buffer size mismatch");
        if m == 0 {
            return;
        }
        // The column subset and its product live in pooled buffers: the
        // sparse-delta path calls this once per dirty layer and batch.
        let mut wsub = scratch::take(in_dim * m);
        let w = self.weight.value.data();
        for (dst, row) in wsub.chunks_exact_mut(m).zip(w.chunks_exact(out_dim)) {
            for (d, &c) in dst.iter_mut().zip(cols) {
                *d = row[c];
            }
        }
        let mut sub = scratch::take(n * m);
        gemm(n, m, in_dim, input.data(), &wsub, &mut sub);
        let b = self.bias.value.data();
        for (dst, row) in out.chunks_exact_mut(out_dim).zip(sub.chunks_exact(m)) {
            for (&x, &c) in row.iter().zip(cols) {
                dst[c] = x + b[c];
            }
        }
    }
}

impl Layer for Dense {
    fn kind(&self) -> &'static str {
        "dense"
    }

    fn forward(&mut self, input: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        assert_eq!(input.rank(), 2, "dense expects a (batch, features) input");
        assert_eq!(
            input.dim(1),
            self.in_dim(),
            "dense input width {} does not match weight {}",
            input.dim(1),
            self.in_dim()
        );
        if ctx.mode() == crate::layer::Mode::Train {
            self.cached_input = Some(input.clone());
        }
        let mut out = input.matmul(&self.weight.value);
        out.add_row_broadcast_inplace(&self.bias.value);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .take()
            // bdlfi-lint: allow(BD010) -- train-mode contract: Trainer::fit always runs forward before backward; the message names the missing cache
            .expect("dense backward before train-mode forward");
        // dW += xᵀ · dY ; db += column sums of dY ; dX = dY · Wᵀ
        self.weight.grad.add_assign_t(&input.matmul_tn(grad_out));
        self.bias.grad.add_assign_t(&grad_out.sum_axis0());
        grad_out.matmul_nt(&self.weight.value)
    }

    fn visit_params(&self, path: &str, f: &mut dyn FnMut(&str, &Param)) {
        f(&join_path(path, "weight"), &self.weight);
        f(&join_path(path, "bias"), &self.bias);
    }

    fn visit_params_mut(&mut self, path: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        f(&join_path(path, "weight"), &mut self.weight);
        f(&join_path(path, "bias"), &mut self.bias);
    }

    fn with_param_mut(&mut self, path: &str, f: &mut dyn FnMut(&mut Param)) -> bool {
        match path {
            "weight" => f(&mut self.weight),
            "bias" => f(&mut self.bias),
            _ => return false,
        }
        true
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

    fn fixed_dense() -> Dense {
        Dense::from_weights(
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]),
            Tensor::from_vec(vec![0.1, 0.2, 0.3], [3]),
        )
    }

    #[test]
    fn forward_matches_manual_affine() {
        let mut d = fixed_dense();
        let x = Tensor::from_vec(vec![1.0, -1.0], [1, 2]);
        let y = d.forward(&x, &mut ForwardCtx::new(Mode::Eval));
        // y = [1*1 + (-1)*4, 1*2 + (-1)*5, 1*3 + (-1)*6] + bias
        assert_eq!(y.data(), &[-2.9, -2.8, -2.7]);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Tensor::rand_normal([4, 3], 0.0, 1.0, &mut rng);
        let mut ctx = ForwardCtx::new(Mode::Train);
        let y = d.forward(&x, &mut ctx);
        let grad_out = Tensor::ones(y.dims());
        let gx = d.backward(&grad_out);

        let eps = 1e-2f32;
        let loss = |d: &mut Dense, x: &Tensor| d.forward(x, &mut ForwardCtx::new(Mode::Eval)).sum();
        // Input gradient.
        for idx in [0usize, 5, 11] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fd = (loss(&mut d, &xp) - loss(&mut d, &xm)) / (2.0 * eps);
            assert!(
                (fd - gx.data()[idx]).abs() < 1e-2,
                "dx[{idx}] fd={fd} got={}",
                gx.data()[idx]
            );
        }
        // Weight gradient.
        let gw = d.weight.grad.clone();
        for idx in [0usize, 3, 5] {
            let orig = d.weight.value.data()[idx];
            d.weight.value.data_mut()[idx] = orig + eps;
            let lp = loss(&mut d, &x);
            d.weight.value.data_mut()[idx] = orig - eps;
            let lm = loss(&mut d, &x);
            d.weight.value.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gw.data()[idx]).abs() < 5e-2,
                "dw[{idx}] fd={fd} got={}",
                gw.data()[idx]
            );
        }
        // Bias gradient: dL/db_j = batch size for sum loss.
        assert!(d.bias.grad.approx_eq(&Tensor::full([2], 4.0), 1e-4));
    }

    #[test]
    fn eval_mode_does_not_cache() {
        let mut d = fixed_dense();
        let x = Tensor::zeros([1, 2]);
        d.forward(&x, &mut ForwardCtx::new(Mode::Eval));
        assert!(d.cached_input.is_none());
    }

    #[test]
    #[should_panic(expected = "backward before train-mode forward")]
    fn backward_without_forward_panics() {
        fixed_dense().backward(&Tensor::zeros([1, 3]));
    }

    #[test]
    fn visit_params_yields_weight_and_bias() {
        let d = fixed_dense();
        let mut names = Vec::new();
        d.visit_params("fc", &mut |p, _| names.push(p.to_string()));
        assert_eq!(names, vec!["fc.weight", "fc.bias"]);
    }

    #[test]
    #[should_panic(expected = "input width")]
    fn forward_rejects_wrong_width() {
        fixed_dense().forward(&Tensor::zeros([1, 5]), &mut ForwardCtx::new(Mode::Eval));
    }

    #[test]
    fn forward_cols_is_bitwise_identical_to_full_forward() {
        let mut rng = StdRng::seed_from_u64(17);
        // Wide enough to span several GEMM column panels.
        let mut d = Dense::new(33, 70, &mut rng);
        let x = Tensor::rand_normal([19, 33], 0.0, 1.0, &mut rng);
        let full = d.forward(&x, &mut ForwardCtx::new(Mode::Eval));
        for cols in [
            vec![],
            vec![0usize],
            vec![69],
            vec![3, 17, 64],
            (0..70).collect(),
        ] {
            // A NaN canvas shows which entries were written.
            let mut out = vec![f32::NAN; 19 * 70];
            d.forward_cols(&x, &cols, &mut out);
            for i in 0..19 {
                for col in 0..70 {
                    let got = out[i * 70 + col].to_bits();
                    if cols.contains(&col) {
                        assert_eq!(
                            got,
                            full.data()[i * 70 + col].to_bits(),
                            "row {i} col {col}"
                        );
                    } else {
                        assert_eq!(got, f32::NAN.to_bits(), "row {i} col {col} was written");
                    }
                }
            }
        }
    }

    #[test]
    fn gradients_accumulate_across_backwards() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Dense::new(2, 2, &mut rng);
        let x = Tensor::ones([1, 2]);
        let mut ctx = ForwardCtx::new(Mode::Train);
        let y = d.forward(&x, &mut ctx);
        let g = Tensor::ones(y.dims());
        d.backward(&g);
        let after_one = d.weight.grad.clone();
        d.forward(&x, &mut ctx);
        d.backward(&g);
        assert!(d.weight.grad.approx_eq(&after_one.scale(2.0), 1e-6));
    }
}
