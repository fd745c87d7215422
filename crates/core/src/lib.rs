//! # bdlfi
//!
//! **Bayesian Deep Learning based Fault Injection (BDLFI)** — the primary
//! contribution of "Towards a Bayesian Approach for Assessing Fault
//! Tolerance of Deep Neural Networks" (Banerjee et al., DSN 2019),
//! reproduced in Rust.
//!
//! BDLFI models transient hardware faults as Bernoulli random variables
//! attached to every bit of every stored value of a neural network
//! (per-bit AVF fault model), propagates the resulting uncertainty through
//! the network, and uses Markov Chain Monte Carlo to infer the
//! distribution of classification error at the output. MCMC mixing
//! diagnostics (split-R̂, ESS, MCSE) quantify the *completeness* of the
//! campaign — the point where further injections no longer change the
//! measured hypothesis.
//!
//! # Architecture
//!
//! * [`FaultyModel`] — a golden network bound to an evaluation set and a
//!   fault model over resolved injection sites (paper Fig. 1 ① + ②);
//! * [`FaultWorkload`] / [`QuantFaultyModel`] — the workload abstraction
//!   the campaign drivers run over, and its int8 quantized-deployment
//!   implementation (built on `bdlfi-quant`), with representation-aware
//!   bit flips in int8 weights, i32 biases and f32 scales;
//!   [`GoldenModel`] binds either golden network into its workload, so
//!   every driver has one body for both representations, and
//!   [`FaultWorkload::rescoped`] moves one binding's golden run to each
//!   task's sites;
//! * [`engine`] — the shared fault-evaluation executor: one bounded
//!   worker pool, SplitMix64 per-task seed streams and ordered streaming
//!   sinks that every campaign driver (and the baseline FI drivers) runs
//!   through;
//! * [`proposals`] — MCMC moves over joint fault configurations (prior
//!   refreshes, single-/multi-bit toggles);
//! * [`run_campaign`] — multi-chain inference with completeness
//!   certification (Fig. 1 ③), including the tempered rare-event kernel
//!   with importance re-weighting;
//! * [`run_sweep`] — flip-probability sweeps with two-regime knee
//!   analysis (Figs. 2 and 4);
//! * [`run_layerwise`] — per-layer campaigns and the depth-correlation
//!   test (Fig. 3);
//! * [`shard`] — distributed sharded campaigns: a deterministic shard
//!   planner over the ordered task space, per-shard fingerprinted
//!   journals written by the normal engine path, and a strict merge
//!   verifier that reassembles them byte-for-byte into the
//!   single-process journal;
//! * [`boundary_map`] — per-input-point error-probability maps over a 2-D
//!   feature space (Fig. 1 ③'s boundary finding);
//! * [`attribute_faults`] — error-conditioned posterior over fault
//!   locations (which sites/bits to harden);
//! * [`plan_protection`] — margin-threshold protection domains (the
//!   paper's "regions of the feature space that need more protection").
//!
//! # Examples
//!
//! Every driver has one entry point that takes a [`RunControl`] last and
//! returns a `Result`: [`RunControl::new`] runs to completion without a
//! journal; [`RunControl::with_stop`] adds cooperative cancellation and
//! [`RunControl::checkpointed`] a crash-safe journal to resume from.
//!
//! ```
//! use bdlfi::{CampaignConfig, FaultyModel, RunControl, run_campaign};
//! use bdlfi_faults::{BernoulliBitFlip, SiteSpec};
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let data = Arc::new(bdlfi_data::gaussian_blobs(60, 2, 0.5, &mut rng));
//! let model = bdlfi_nn::mlp(2, &[8], 2, &mut rng);
//!
//! let fm = FaultyModel::new(model, data, &SiteSpec::AllParams,
//!                           Arc::new(BernoulliBitFlip::new(1e-3)));
//! let mut cfg = CampaignConfig::default();
//! cfg.chains = 2;
//! cfg.chain.samples = 20;
//! let report = run_campaign(&fm, &cfg, &RunControl::new())?;
//! assert!(report.mean_error >= 0.0);
//! # Ok::<(), bdlfi::EngineError>(())
//! ```

#![warn(missing_docs)]

mod attribution;
mod boundary;
mod campaign;
pub mod checkpoint;
mod completeness;
mod delta;
pub mod engine;
mod faulty_model;
pub mod formal;
pub mod proposals;
mod report;
pub mod shard;
pub mod stats;
mod sweep;

mod layerwise;
mod protection;
mod workload;

pub use attribution::{attribute_faults, AttributionReport, SiteAttribution};
pub use boundary::{boundary_map, BoundaryConfig, BoundaryMap};
#[allow(deprecated)]
pub use campaign::run_campaign_adaptive_controlled;
pub use campaign::{
    run_campaign, run_campaign_adaptive, run_campaign_shard, CampaignConfig, KernelChoice,
};
pub use checkpoint::{
    fingerprint, journal_fingerprint, read_journal, CheckpointError, CheckpointHeader,
    CheckpointWriter, JournalContents, Replay,
};
pub use completeness::{
    assess, assess_slices, samples_to_certify, CompletenessCriteria, CompletenessReport,
};
pub use delta::{forward_delta_f32, forward_delta_quant, DeltaStats, DENSIFY_THRESHOLD};
pub use engine::{
    CheckpointSpec, CollectSink, EngineError, EvalEngine, EvalSink, RunControl, RunMeta,
    RunObserver, TaskCtx,
};
pub use faulty_model::FaultyModel;
#[allow(deprecated)]
pub use layerwise::run_layerwise_controlled;
pub use layerwise::{
    run_layerwise, run_layerwise_shard, LayerBudget, LayerResult, LayerwiseResult,
};
pub use protection::{plan_protection, run_protection_study, ProtectionPlan, ProtectionStudy};
pub use report::CampaignReport;
pub use shard::{merge_shards, MergeSummary, ShardError, ShardPlan};
pub use sweep::{
    log_spaced_probabilities, run_sweep, run_sweep_shard, KneeAnalysis, SweepPoint, SweepResult,
};
pub use workload::{FaultWorkload, GoldenModel, QuantFaultyModel};
