//! Concrete layer implementations.

mod activation;
mod batchnorm;
mod block;
mod conv2d;
mod dense;
mod dropout;
mod flatten;
mod pool;
mod relu;
mod softmax;

pub use activation::{Sigmoid, Tanh};
pub use batchnorm::BatchNorm2d;
pub use block::BasicBlock;
pub use conv2d::Conv2d;
pub use dense::Dense;
pub use dropout::Dropout;
pub use flatten::Flatten;
pub use pool::{GlobalAvgPool, MaxPool2d};
pub use relu::Relu;
pub use softmax::Softmax;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ForwardCtx, Layer, Mode};
    use bdlfi_tensor::{Conv2dSpec, Pool2dSpec, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Every caching layer kind releases its train-mode cache in
    /// `backward`: a second `backward` without a forward in between finds
    /// no cache and panics with the layer's own message, instead of
    /// differentiating the stale batch again.
    #[test]
    fn backward_consumes_the_train_mode_cache() {
        let mut rng = StdRng::seed_from_u64(9);
        let images = Tensor::rand_normal([2, 2, 4, 4], 0.0, 1.0, &mut rng);
        let rows = Tensor::rand_normal([2, 3], 0.0, 1.0, &mut rng);
        let conv = Conv2d::new(2, 3, Conv2dSpec::new(3).with_padding(1), &mut rng);
        let pool = MaxPool2d::new(Pool2dSpec::new(2));
        let table: Vec<(Box<dyn Layer>, &Tensor, &str)> = vec![
            (Box::new(conv), &images, "conv2d"),
            (Box::new(Dense::new(3, 2, &mut rng)), &rows, "dense"),
            (Box::new(BatchNorm2d::new(2)), &images, "batchnorm"),
            (Box::new(Relu::new()), &rows, "relu"),
            (Box::new(Sigmoid::new()), &rows, "sigmoid"),
            (Box::new(Tanh::new()), &rows, "tanh"),
            (Box::new(Softmax::new()), &rows, "softmax"),
            (Box::new(Dropout::new(0.5, 1)), &rows, "dropout"),
            (Box::new(pool), &images, "maxpool"),
            (Box::new(GlobalAvgPool::new()), &images, "global_avg_pool"),
            (Box::new(Flatten::new()), &images, "flatten"),
        ];
        for (mut layer, x, name) in table {
            let y = layer.forward(x, &mut ForwardCtx::new(Mode::Train));
            let g = Tensor::ones(y.dims());
            assert_eq!(layer.backward(&g).dims(), x.dims(), "{name}");
            let Err(payload) = catch_unwind(AssertUnwindSafe(|| layer.backward(&g))) else {
                panic!("{name}: a second backward reused the cache");
            };
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned());
            assert_eq!(
                message.as_deref(),
                Some(format!("{name} backward before train-mode forward").as_str())
            );
        }
    }
}
