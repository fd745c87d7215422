//! Flatten layer: `(n, d1, d2, ...) -> (n, d1*d2*...)`.

use crate::layer::{ForwardCtx, Layer, Mode};
use bdlfi_tensor::Tensor;

/// Flattens all trailing dimensions into one feature axis, preserving the
/// batch dimension.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cached_input_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten {
            cached_input_dims: None,
        }
    }
}

impl Layer for Flatten {
    fn kind(&self) -> &'static str {
        "flatten"
    }

    fn forward(&mut self, input: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        assert!(input.rank() >= 1, "flatten expects a batched tensor");
        if ctx.mode() == Mode::Train {
            self.cached_input_dims = Some(input.dims().to_vec());
        }
        let n = input.dim(0);
        let features = input.len() / n.max(1);
        input.reshape([n, features])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let dims = self
            .cached_input_dims
            .take()
            // bdlfi-lint: allow(BD010) -- train-mode contract: Trainer::fit always runs forward before backward; the message names the missing cache
            .expect("flatten backward before train-mode forward");
        grad_out.reshape(dims)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_shape() {
        let mut f = Flatten::new();
        let x = Tensor::from_fn([2, 3, 2, 2], |i| i[0] as f32);
        let y = f.forward(&x, &mut ForwardCtx::new(Mode::Train));
        assert_eq!(y.dims(), &[2, 12]);
        let gx = f.backward(&y);
        assert_eq!(gx.dims(), x.dims());
        assert_eq!(gx.data(), x.data());
    }
}
