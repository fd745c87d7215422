//! Inverted dropout — standard regularisation for the golden-run training
//! of the paper's networks.

use crate::layer::{ForwardCtx, Layer, Mode};
use bdlfi_tensor::Tensor;

/// Tiny cloneable PRNG (SplitMix64): `StdRng` is deliberately not `Clone`
/// in recent `rand`, but dropout layers must clone with their model (one
/// copy per MCMC chain) without sharing state.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }
}

/// Inverted dropout: during training each activation is zeroed with
/// probability `p` and the survivors are scaled by `1/(1-p)`; at inference
/// the layer is the identity.
///
/// The layer owns its RNG (seeded at construction) so that cloned models —
/// one per MCMC chain — do not share mutable randomness.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: SplitMix64,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "drop probability must be in [0, 1)"
        );
        Dropout {
            p,
            rng: SplitMix64(seed),
            mask: None,
        }
    }

    /// The drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn kind(&self) -> &'static str {
        "dropout"
    }

    fn forward(&mut self, input: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        match ctx.mode() {
            Mode::Eval => input.clone(),
            Mode::Train => {
                if self.p == 0.0 {
                    self.mask = Some(Tensor::ones(input.dims()));
                    return input.clone();
                }
                let keep = 1.0 - self.p;
                let scale = 1.0 / keep;
                let rng = &mut self.rng;
                let mask = Tensor::from_vec(
                    (0..input.len())
                        .map(|_| if rng.next_f32() < keep { scale } else { 0.0 })
                        .collect(),
                    input.dims(),
                );
                let out = input.mul_t(&mask);
                self.mask = Some(mask);
                out
            }
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self
            .mask
            .take()
            // bdlfi-lint: allow(BD010) -- train-mode contract: Trainer::fit always runs forward before backward; the message names the missing cache
            .expect("dropout backward before train-mode forward");
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
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], [1, 3]);
        let y = d.forward(&x, &mut ForwardCtx::new(Mode::Eval));
        assert_eq!(y, x);
    }

    #[test]
    fn train_mode_preserves_expectation() {
        let mut d = Dropout::new(0.3, 2);
        let x = Tensor::ones([1, 20_000]);
        let y = d.forward(&x, &mut ForwardCtx::new(Mode::Train));
        // Inverted dropout: E[y] = x.
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
        // Roughly 30% of entries are zero.
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        assert!((zeros as f64 / 20_000.0 - 0.3).abs() < 0.03);
    }

    #[test]
    fn backward_masks_like_forward() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones([1, 100]);
        let y = d.forward(&x, &mut ForwardCtx::new(Mode::Train));
        let g = d.backward(&Tensor::ones([1, 100]));
        // Gradient flows exactly where activations survived.
        for (a, b) in y.data().iter().zip(g.data().iter()) {
            assert_eq!(a == &0.0, b == &0.0);
        }
    }

    #[test]
    fn zero_probability_is_identity_in_train() {
        let mut d = Dropout::new(0.0, 4);
        let x = Tensor::from_vec(vec![1.0, -2.0], [1, 2]);
        let y = d.forward(&x, &mut ForwardCtx::new(Mode::Train));
        assert_eq!(y, x);
    }

    #[test]
    fn clones_do_not_share_rng_state() {
        let mut a = Dropout::new(0.5, 5);
        let mut b = a.clone();
        let x = Tensor::ones([1, 64]);
        let ya = a.forward(&x, &mut ForwardCtx::new(Mode::Train));
        let yb = b.forward(&x, &mut ForwardCtx::new(Mode::Train));
        // Same seed state at clone time -> same mask; advancing one does
        // not advance the other.
        assert_eq!(ya, yb);
        let ya2 = a.forward(&x, &mut ForwardCtx::new(Mode::Train));
        assert_ne!(ya2, yb);
        let yb2 = b.forward(&x, &mut ForwardCtx::new(Mode::Train));
        assert_eq!(ya2, yb2);
    }
}
