//! # bdlfi-baseline
//!
//! Traditional random fault injection — the comparator for the BDLFI
//! reproduction ("Towards a Bayesian Approach for Assessing Fault Tolerance
//! of Deep Neural Networks", DSN 2019).
//!
//! Implements the TensorFI / debugger-level style of campaign the paper
//! cites (\[1\], \[3\], \[4\]): single uniformly chosen bit flips per run, SDC
//! rates with frequentist confidence intervals ([`estimator`]), and the
//! Li-et-al.-style per-layer study ([`run_layer_fi`]) whose small-sample
//! depth trends the paper's Fig. 3 challenges.
//!
//! # Examples
//!
//! ```
//! use bdlfi_baseline::{RandomFi, RandomFiConfig};
//! use bdlfi_faults::SiteSpec;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let data = Arc::new(bdlfi_data::gaussian_blobs(50, 2, 0.5, &mut rng));
//! let model = bdlfi_nn::mlp(2, &[8], 2, &mut rng);
//!
//! let fi = RandomFi::new(model, data, &SiteSpec::AllParams);
//! let result = fi.run(&RandomFiConfig { injections: 20, seed: 1, level: 0.95, workers: 0 });
//! assert_eq!(result.injections, 20);
//! ```

#![warn(missing_docs)]

pub mod estimator;
mod exhaustive;
mod layer_fi;
mod random_fi;

pub use estimator::{estimate_proportion, normal_quantile, ProportionEstimate};
pub use exhaustive::{
    run_exhaustive, run_exhaustive_controlled, run_exhaustive_with, BitPositionStats,
    ExhaustiveResult,
};
pub use layer_fi::{run_layer_fi, run_layer_fi_controlled, LayerFiResult, LayerFiStudy};
pub use random_fi::{RandomFi, RandomFiConfig, RandomFiResult};
