//! # bdlfi-bayes
//!
//! Probabilistic-programming substrate for the BDLFI reproduction ("Towards
//! a Bayesian Approach for Assessing Fault Tolerance of Deep Neural
//! Networks", DSN 2019).
//!
//! Rust's PPL ecosystem is thin, so this crate implements from scratch the
//! Bayesian machinery the methodology needs:
//!
//! * [`dist`] — distributions (Bernoulli, Beta, Normal, Uniform, Binomial,
//!   Categorical) with sampling and log-densities;
//! * [`graph`] — a small Bayesian-network DAG, the formalisation of the
//!   paper's per-neuron failure model (Fig. 1 ②);
//! * [`mcmc`] — proposals, the Metropolis–Hastings step, chain runner and
//!   traces;
//! * [`diagnostics`] — split-R̂, effective sample size, Geweke z and Monte
//!   Carlo standard error: the mixing measures behind BDLFI's campaign
//!   *completeness* certification;
//! * [`estimate`] — Beta–Bernoulli conjugate posteriors (credible
//!   intervals on error probabilities) and self-normalised importance
//!   sampling (re-weighting of rare-event accelerated campaigns);
//! * [`seed`] — SplitMix64 per-task seed streams, the deterministic seed
//!   discipline every parallel campaign derives its RNGs from (executed by
//!   `bdlfi::engine::EvalEngine`, which replaced this crate's former
//!   `parallel_map` helper);
//! * [`special`] — log-gamma and the regularised incomplete beta.
//!
//! # Examples
//!
//! ```
//! use bdlfi_bayes::dist::{Distribution, Normal};
//! use bdlfi_bayes::mcmc::{run_chain, ChainConfig, Proposal};
//! use rand::{Rng, SeedableRng};
//!
//! struct Walk;
//! impl Proposal<f64> for Walk {
//!     fn propose(&self, x: &f64, rng: &mut dyn Rng) -> (f64, f64) {
//!         (x + Normal::new(0.0, 1.0).sample(rng), 0.0)
//!     }
//! }
//!
//! let target = Normal::new(2.0, 1.0);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let res = run_chain(
//!     0.0,
//!     &Walk,
//!     &mut |x: &f64| target.log_prob(*x),
//!     &mut |x: &f64| *x,
//!     ChainConfig { burn_in: 200, samples: 2000, thin: 1 },
//!     &mut rng,
//! );
//! assert!((res.trace.mean() - 2.0).abs() < 0.2);
//! ```

#![warn(missing_docs)]

pub mod diagnostics;
pub mod dist;
pub mod estimate;
pub mod graph;
pub mod mcmc;
pub mod seed;
pub mod special;

pub use diagnostics::{
    autocorrelations, ess, ess_slices, geweke_z, mcse, mcse_batch_means, mcse_from_ess,
    mcse_slices, split_rhat, split_rhat_slices,
};
pub use estimate::{self_normalized_estimate, BetaBernoulli};
pub use mcmc::{
    mh_step, run_chain, ChainConfig, ChainResult, IndependenceProposal, MixtureProposal, Proposal,
    Trace, TraceSummary,
};
pub use seed::seed_stream;
