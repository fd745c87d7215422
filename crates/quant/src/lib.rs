//! # bdlfi-quant
//!
//! Post-training int8 quantization for the BDLFI reproduction ("Towards a
//! Bayesian Approach for Assessing Fault Tolerance of Deep Neural
//! Networks", DSN 2019) — the quantized-deployment workload.
//!
//! The paper's fault model flips bits in "memory units for storing NN
//! parameters"; deployed networks increasingly store those parameters as
//! int8, where a flipped bit moves a weight by a very different amount than
//! in IEEE-754. This crate opens that workload:
//!
//! * [`quantize_model`] — per-tensor affine post-training quantization of a
//!   trained [`bdlfi_nn::Sequential`]: symmetric int8 weights, asymmetric
//!   int8 activations calibrated by [`Observer`]s over a calibration split,
//!   i32 biases, batch norms folded into their preceding convolutions;
//! * [`QuantModel`] — integer inference on the blocked
//!   `i8 × i8 → i32` GEMM ([`bdlfi_tensor::qgemm`]) with fixed-point
//!   requantization ([`Requant`]), stage-aligned one-to-one with the source
//!   model so prefix-cache cut indices carry over;
//! * representation-aware fault sites ([`QuantModel::sites`]): int8 weight
//!   bytes, i32 bias words and quantization parameters, each tagged with
//!   its [`bdlfi_faults::Repr`] so the fault models flip within the right
//!   word width;
//! * [`QPrefixCache`] — golden boundary activations for incremental suffix
//!   re-inference, bit-identical between cold and resumed runs.

#![warn(missing_docs)]

mod model;
mod observer;
mod qops;
mod qparams;

pub use model::{quantize_model, CalibConfig, QPrefixCache, QuantModel};
pub use observer::{Observer, ObserverKind};
pub use qops::{quantize_weights, quantize_weights_grouped, QBlock, QConv, QDense, QOp, QSlice};
pub use qparams::{
    dequant_acc, requant_channel_into, requant_rows, QParams, Requant, QMAX, QMIN, WMAX,
};
