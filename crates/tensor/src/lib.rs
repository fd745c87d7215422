//! # bdlfi-tensor
//!
//! Dense `f32` tensor substrate for the BDLFI reproduction ("Towards a
//! Bayesian Approach for Assessing Fault Tolerance of Deep Neural Networks",
//! DSN 2019).
//!
//! The paper's methodology needs nothing more exotic than fast CPU inference
//! over multilayer perceptrons and ResNet-18, so this crate provides exactly
//! that numeric core, built from scratch:
//!
//! * [`Tensor`] — owned, contiguous, row-major `f32` storage with shape
//!   bookkeeping ([`Shape`]);
//! * element-wise arithmetic and broadcasts ([`ops::elementwise`]);
//! * cache-friendly matrix multiplication in the three transpose variants
//!   backpropagation needs ([`ops::matmul`]);
//! * convolution as an im2col GEMM, its forward packing image pixels
//!   straight into GEMM panels, with exact gradients ([`ops::conv`]);
//! * max / global-average pooling ([`ops::pool`]);
//! * reductions and argmax ([`ops::reduce`]);
//! * fault-tolerant softmax ([`ops::softmax`]) that keeps campaign statistics
//!   well-defined when bit flips produce `NaN`/`inf` logits;
//! * RNG initialisers ([`init`]);
//! * integer storage ([`I8Tensor`], [`I32Tensor`]) and the blocked
//!   `i8 × i8 → i32` GEMM ([`ops::qgemm`]) backing the quantized
//!   deployment workload;
//! * the kernel-selector layer ([`kernels`]) that picks a micro-kernel
//!   variant (scalar / autovectorized / AVX2 intrinsics) and cache-block
//!   tile per GEMM shape, overridable with `BDLFI_KERNEL`.
//!
//! # Examples
//!
//! ```
//! use bdlfi_tensor::Tensor;
//!
//! let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]);
//! let x = Tensor::from_vec(vec![3.0, 4.0], [2, 1]);
//! let y = w.matmul(&x);
//! assert_eq!(y.data(), &[3.0, 4.0]);
//! ```

#![warn(missing_docs)]

mod error;
pub mod init;
mod itensor;
pub mod kernels;
pub mod ops;
pub mod scratch;
mod shape;
mod tensor;

pub use error::TensorError;
pub use itensor::{I32Tensor, I8Tensor};
pub use ops::conv::{col2im, conv2d, conv2d_backward, im2col, Conv2dSpec};
pub use ops::gemm::gemm;
pub use ops::pool::{
    global_avg_pool, global_avg_pool_backward, maxpool2d, maxpool2d_backward, Pool2dSpec,
};
pub use ops::qgemm::qgemm;
pub use shape::Shape;
pub use tensor::Tensor;
