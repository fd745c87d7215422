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
//! use bdlfi::RunControl;
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
//! let cfg = RandomFiConfig { injections: 20, seed: 1, level: 0.95, workers: 0 };
//! let result = fi.run(&cfg, &RunControl::new())?;
//! assert_eq!(result.injections, 20);
//! # Ok::<(), bdlfi::EngineError>(())
//! ```

#![warn(missing_docs)]

pub mod estimator;
mod exhaustive;
mod layer_fi;
mod random_fi;

pub use estimator::{estimate_proportion, normal_quantile, ProportionEstimate};
pub use exhaustive::{run_exhaustive, BitPositionStats, ExhaustiveResult};
pub use layer_fi::{run_layer_fi, LayerFiResult, LayerFiStudy};
pub use random_fi::{RandomFi, RandomFiConfig, RandomFiResult};
