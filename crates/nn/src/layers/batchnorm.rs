//! 2-D batch normalisation over NCHW batches.
//!
//! The running statistics are exposed as *frozen* parameters: they are not
//! updated by the optimizer, but they are resident in memory at inference
//! time, which makes them fault sites for BDLFI just like weights.

use crate::layer::{ForwardCtx, Layer, Mode};
use crate::params::{join_path, Param};
use bdlfi_tensor::Tensor;

/// Batch normalisation with learned per-channel scale (`weight`) and shift
/// (`bias`), tracking running statistics for inference.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Param,
    running_var: Param,
    eps: f32,
    momentum: f32,
    // Normalised activations and per-channel inverse std of the last
    // train-mode forward, consumed by backward.
    cached: Option<(Tensor, Tensor)>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps with the
    /// conventional defaults (`eps = 1e-5`, `momentum = 0.1`).
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Param::new("weight", Tensor::ones([channels])),
            beta: Param::new("bias", Tensor::zeros([channels])),
            running_mean: Param::frozen("running_mean", Tensor::zeros([channels])),
            running_var: Param::frozen("running_var", Tensor::ones([channels])),
            eps: 1e-5,
            momentum: 0.1,
            cached: None,
        }
    }

    /// Number of normalised channels.
    pub fn channels(&self) -> usize {
        self.gamma.value.dim(0)
    }

    /// Per-channel `(scale, shift)` of the eval-mode affine transform
    /// `y = scale * x + shift`, for folding this layer into a preceding
    /// convolution: `scale = gamma / sqrt(running_var + eps)`,
    /// `shift = beta - running_mean * scale`.
    pub fn fold_params(&self) -> Vec<(f32, f32)> {
        let g = self.gamma.value.data();
        let b = self.beta.value.data();
        let mu = self.running_mean.value.data();
        let var = self.running_var.value.data();
        (0..self.channels())
            .map(|ch| {
                let scale = g[ch] / (var[ch] + self.eps).sqrt();
                (scale, b[ch] - mu[ch] * scale)
            })
            .collect()
    }

    fn normalize(&self, input: &Tensor, mean: &Tensor, std_inv: &Tensor) -> Tensor {
        let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
        let plane = h * w;
        let mut out = input.clone();
        let g = self.gamma.value.data();
        let b = self.beta.value.data();
        for img in 0..n {
            for ch in 0..c {
                let mu = mean.data()[ch];
                let si = std_inv.data()[ch];
                let (gc, bc) = (g[ch], b[ch]);
                let base = (img * c + ch) * plane;
                for x in &mut out.data_mut()[base..base + plane] {
                    *x = gc * (*x - mu) * si + bc;
                }
            }
        }
        out
    }
}

impl Layer for BatchNorm2d {
    fn kind(&self) -> &'static str {
        "batchnorm2d"
    }

    fn forward(&mut self, input: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        assert_eq!(input.rank(), 4, "batchnorm2d expects an NCHW tensor");
        assert_eq!(input.dim(1), self.channels(), "channel count mismatch");
        match ctx.mode() {
            Mode::Train => {
                let mean = input.mean_per_channel();
                let var = input.var_per_channel(&mean);
                let std_inv = var.map(|v| 1.0 / (v + self.eps).sqrt());

                // Update running statistics with the EMA convention.
                let m = self.momentum;
                self.running_mean.value =
                    self.running_mean.value.scale(1.0 - m).add_t(&mean.scale(m));
                self.running_var.value = self.running_var.value.scale(1.0 - m).add_t(&var.scale(m));

                // Cache normalised activations for backward.
                let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
                let plane = h * w;
                let mut xhat = input.clone();
                for img in 0..n {
                    for ch in 0..c {
                        let mu = mean.data()[ch];
                        let si = std_inv.data()[ch];
                        let base = (img * c + ch) * plane;
                        for x in &mut xhat.data_mut()[base..base + plane] {
                            *x = (*x - mu) * si;
                        }
                    }
                }
                // y = gamma * xhat + beta
                let mut out = xhat.clone();
                let g = self.gamma.value.data();
                let b = self.beta.value.data();
                for img in 0..n {
                    for ch in 0..c {
                        let base = (img * c + ch) * plane;
                        for x in &mut out.data_mut()[base..base + plane] {
                            *x = g[ch] * *x + b[ch];
                        }
                    }
                }
                self.cached = Some((xhat, std_inv));
                out
            }
            Mode::Eval => {
                let std_inv = self.running_var.value.map(|v| 1.0 / (v + self.eps).sqrt());
                self.normalize(input, &self.running_mean.value, &std_inv)
            }
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (xhat, std_inv) = self
            .cached
            .take()
            // bdlfi-lint: allow(BD010) -- train-mode contract: Trainer::fit always runs forward before backward; the message names the missing cache
            .expect("batchnorm backward before train-mode forward");
        let (n, c, h, w) = (xhat.dim(0), xhat.dim(1), xhat.dim(2), xhat.dim(3));
        let plane = h * w;
        let count = (n * plane) as f32;

        // Per-channel reductions: sum(dy), sum(dy * xhat).
        let mut sum_dy = vec![0.0f64; c];
        let mut sum_dy_xhat = vec![0.0f64; c];
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * plane;
                let dy = &grad_out.data()[base..base + plane];
                let xh = &xhat.data()[base..base + plane];
                for (&d, &x) in dy.iter().zip(xh.iter()) {
                    sum_dy[ch] += d as f64;
                    sum_dy_xhat[ch] += (d * x) as f64;
                }
            }
        }
        for ch in 0..c {
            self.beta.grad.data_mut()[ch] += sum_dy[ch] as f32;
            self.gamma.grad.data_mut()[ch] += sum_dy_xhat[ch] as f32;
        }

        // dx = gamma * std_inv / m * (m*dy - sum_dy - xhat * sum_dy_xhat)
        let mut grad_in = grad_out.clone();
        let g = self.gamma.value.data();
        for img in 0..n {
            for ch in 0..c {
                let k = g[ch] * std_inv.data()[ch] / count;
                let sd = sum_dy[ch] as f32;
                let sdx = sum_dy_xhat[ch] as f32;
                let base = (img * c + ch) * plane;
                let xh = &xhat.data()[base..base + plane];
                let gi = &mut grad_in.data_mut()[base..base + plane];
                for (d, &x) in gi.iter_mut().zip(xh.iter()) {
                    *d = k * (count * *d - sd - x * sdx);
                }
            }
        }
        grad_in
    }

    fn visit_params(&self, path: &str, f: &mut dyn FnMut(&str, &Param)) {
        f(&join_path(path, "weight"), &self.gamma);
        f(&join_path(path, "bias"), &self.beta);
        f(&join_path(path, "running_mean"), &self.running_mean);
        f(&join_path(path, "running_var"), &self.running_var);
    }

    fn visit_params_mut(&mut self, path: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        f(&join_path(path, "weight"), &mut self.gamma);
        f(&join_path(path, "bias"), &mut self.beta);
        f(&join_path(path, "running_mean"), &mut self.running_mean);
        f(&join_path(path, "running_var"), &mut self.running_var);
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
    fn train_forward_normalizes_batch() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = StdRng::seed_from_u64(21);
        let x = Tensor::rand_normal([4, 2, 3, 3], 5.0, 2.0, &mut rng);
        let y = bn.forward(&x, &mut ForwardCtx::new(Mode::Train));
        // With gamma=1, beta=0 the output per channel is ~N(0,1).
        let mu = y.mean_per_channel();
        let var = y.var_per_channel(&mu);
        for ch in 0..2 {
            assert!(mu.data()[ch].abs() < 1e-4, "mean {}", mu.data()[ch]);
            assert!(
                (var.data()[ch] - 1.0).abs() < 1e-3,
                "var {}",
                var.data()[ch]
            );
        }
    }

    #[test]
    fn running_stats_track_batch_stats() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::full([2, 1, 2, 2], 10.0);
        for _ in 0..200 {
            bn.forward(&x, &mut ForwardCtx::new(Mode::Train));
        }
        // Constant input: batch mean = 10, var = 0.
        assert!((bn.running_mean.value.data()[0] - 10.0).abs() < 1e-3);
        assert!(bn.running_var.value.data()[0] < 1e-3);
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        bn.running_mean.value = Tensor::from_vec(vec![3.0], [1]);
        bn.running_var.value = Tensor::from_vec(vec![4.0], [1]);
        let x = Tensor::full([1, 1, 1, 2], 7.0);
        let y = bn.forward(&x, &mut ForwardCtx::new(Mode::Eval));
        // (7 - 3)/sqrt(4 + eps) ≈ 2.
        assert!((y.data()[0] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut bn = BatchNorm2d::new(2);
        bn.gamma.value = Tensor::from_vec(vec![1.5, 0.5], [2]);
        bn.beta.value = Tensor::from_vec(vec![0.1, -0.1], [2]);
        let x = Tensor::rand_normal([3, 2, 2, 2], 0.0, 1.0, &mut rng);

        // Weighted-sum loss to get nontrivial gradients.
        let wsum = Tensor::rand_normal([3, 2, 2, 2], 0.0, 1.0, &mut rng);
        let loss = |bn: &mut BatchNorm2d, x: &Tensor| {
            bn.forward(x, &mut ForwardCtx::new(Mode::Train)).dot(&wsum)
        };

        let _ = loss(&mut bn, &x);
        let gx = bn.backward(&wsum);

        let eps = 1e-2f32;
        for idx in [0usize, 7, 13, 23] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fd = (loss(&mut bn, &xp) - loss(&mut bn, &xm)) / (2.0 * eps);
            assert!(
                (fd - gx.data()[idx]).abs() < 0.05,
                "dx[{idx}] fd={fd} got={}",
                gx.data()[idx]
            );
        }
        // Gamma/beta gradients.
        let _ = loss(&mut bn, &x);
        for ch in 0..2 {
            let orig = bn.gamma.value.data()[ch];
            bn.gamma.grad.fill(0.0);
            bn.gamma.value.data_mut()[ch] = orig + eps;
            let lp = loss(&mut bn, &x);
            bn.gamma.value.data_mut()[ch] = orig - eps;
            let lm = loss(&mut bn, &x);
            bn.gamma.value.data_mut()[ch] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            // Recompute analytic gradient fresh.
            bn.gamma.grad.fill(0.0);
            bn.beta.grad.fill(0.0);
            let _ = loss(&mut bn, &x);
            bn.backward(&wsum);
            let got = bn.gamma.grad.data()[ch];
            assert!((fd - got).abs() < 0.05, "dgamma[{ch}] fd={fd} got={got}");
        }
    }

    #[test]
    fn visit_params_exposes_running_stats_as_frozen() {
        let bn = BatchNorm2d::new(3);
        let mut frozen = Vec::new();
        bn.visit_params("bn1", &mut |p, param| {
            if !param.trainable {
                frozen.push(p.to_string());
            }
        });
        assert_eq!(frozen, vec!["bn1.running_mean", "bn1.running_var"]);
    }
}
