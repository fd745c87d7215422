//! Protection-domain analysis — the paper's engineering takeaway from the
//! boundary finding: "by analyzing the probability of errors near the
//! boundaries, we can set a threshold on the regions of the feature space
//! that need more protection and verification of correctness."
//!
//! Given a [`BoundaryMap`], this module finds the golden-margin threshold
//! below which inputs should be treated as *protection-required*: runs on
//! those inputs get the expensive mitigations (re-execution, ensembling,
//! range checks), everything else runs fast.

use crate::boundary::{boundary_map, BoundaryConfig, BoundaryMap};
use crate::checkpoint::journal_fingerprint;
use crate::engine::{EngineError, RunControl};
use bdlfi_faults::{FaultModel, SiteSpec};
use bdlfi_nn::Sequential;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A protection recommendation derived from a boundary map.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProtectionPlan {
    /// Inputs whose golden softmax margin is below this threshold should
    /// be protected.
    pub margin_threshold: f64,
    /// Fraction of the analysed input space that falls under protection.
    pub protected_fraction: f64,
    /// Mean fault-induced error probability inside the protected region.
    pub protected_error: f64,
    /// Mean fault-induced error probability outside it.
    pub unprotected_error: f64,
    /// The target the plan was derived for.
    pub target_error: f64,
}

impl ProtectionPlan {
    /// The risk concentration the plan achieves: how much likelier an
    /// error is inside the protected region than outside.
    pub fn concentration(&self) -> f64 {
        self.protected_error / self.unprotected_error.max(1e-12)
    }
}

/// A boundary map together with the protection plan derived from it —
/// the end-to-end "map the feature space, then decide what to protect"
/// study, evaluated through the shared `EvalEngine`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProtectionStudy {
    /// The fault-induced error-probability map the plan was derived from
    /// (its `run_meta` records the engine execution stats).
    pub map: BoundaryMap,
    /// The derived plan, or `None` if no margin threshold reaches the
    /// target.
    pub plan: Option<ProtectionPlan>,
}

/// Maps the feature space under the fault model (through the shared
/// evaluation engine — see [`boundary_map`]) and derives the protection
/// plan for `target_error` in one call. With a journal in `ctl`, the
/// study journals at the underlying boundary-map granularity — one entry
/// per fault sample.
///
/// # Errors
///
/// [`EngineError::Interrupted`] on a cooperative stop, plus journal/sink
/// failures.
///
/// # Panics
///
/// Panics on the same conditions as [`boundary_map`] and
/// [`plan_protection`].
pub fn run_protection_study(
    model: &Sequential,
    spec: &SiteSpec,
    fault_model: Arc<dyn FaultModel>,
    cfg: &BoundaryConfig,
    target_error: f64,
    ctl: &RunControl,
) -> Result<ProtectionStudy, EngineError> {
    // Bind this study's own journal fingerprint before delegating: a
    // protection-study journal must not be resume-compatible with a plain
    // boundary-map journal even though the sampled tasks coincide — the
    // study derives a protection plan from the finished map, so the two
    // runs make different claims about the same bytes.
    let ctl = ctl.or_fingerprint(|| {
        journal_fingerprint("protection_study", "", &(cfg, target_error.to_bits()))
    });
    let map = boundary_map(model, spec, fault_model, cfg, &ctl)?;
    let plan = plan_protection(&map, target_error);
    Ok(ProtectionStudy { map, plan })
}

/// Derives the smallest protection region (by margin thresholding) whose
/// *unprotected* remainder has mean error probability at most
/// `target_error`.
///
/// Returns `None` if even protecting everything but the single
/// highest-margin point cannot reach the target.
///
/// # Panics
///
/// Panics if `target_error` is not in `(0, 1)`.
pub fn plan_protection(map: &BoundaryMap, target_error: f64) -> Option<ProtectionPlan> {
    assert!(
        target_error > 0.0 && target_error < 1.0,
        "target error must be in (0, 1)"
    );
    let n = map.error_prob.len();
    // Sort points by margin ascending: protection regions are prefixes of
    // this order (protect the lowest-margin points first).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| map.margin[a].partial_cmp(&map.margin[b]).unwrap());

    // Suffix means of error probability over the unprotected remainder.
    let mut suffix_sum = vec![0.0f64; n + 1];
    for i in (0..n).rev() {
        suffix_sum[i] = suffix_sum[i + 1] + map.error_prob[order[i]];
    }

    for protected in 0..n {
        let remaining = n - protected;
        let unprotected_mean = suffix_sum[protected] / remaining as f64;
        if unprotected_mean <= target_error {
            let protected_mean = if protected == 0 {
                0.0
            } else {
                (suffix_sum[0] - suffix_sum[protected]) / protected as f64
            };
            let threshold = if protected == 0 {
                0.0
            } else {
                map.margin[order[protected - 1]]
            };
            return Some(ProtectionPlan {
                margin_threshold: threshold,
                protected_fraction: protected as f64 / n as f64,
                protected_error: protected_mean,
                unprotected_error: unprotected_mean,
                target_error,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic map where error probability is exactly a decreasing
    /// function of margin: the ideal case for margin thresholding.
    fn synthetic_map(n: usize) -> BoundaryMap {
        let res = n;
        let margin: Vec<f64> = (0..n * n).map(|i| i as f64 / (n * n) as f64).collect();
        let error_prob: Vec<f64> = margin.iter().map(|m| 0.5 * (1.0 - m)).collect();
        BoundaryMap {
            resolution: res,
            x_range: (-1.0, 1.0),
            y_range: (-1.0, 1.0),
            error_prob,
            golden_pred: vec![0; n * n],
            margin,
            margin_correlation: -1.0,
            run_meta: crate::engine::RunMeta::default(),
        }
    }

    #[test]
    fn loose_target_needs_no_protection() {
        let map = synthetic_map(8);
        let plan = plan_protection(&map, 0.5).unwrap();
        assert_eq!(plan.protected_fraction, 0.0);
        assert_eq!(plan.margin_threshold, 0.0);
    }

    #[test]
    fn tighter_targets_protect_more() {
        let map = synthetic_map(8);
        let loose = plan_protection(&map, 0.3).unwrap();
        let tight = plan_protection(&map, 0.1).unwrap();
        assert!(tight.protected_fraction > loose.protected_fraction);
        assert!(tight.margin_threshold > loose.margin_threshold);
        // Unprotected remainder meets its target in both plans.
        assert!(loose.unprotected_error <= 0.3);
        assert!(tight.unprotected_error <= 0.1);
    }

    #[test]
    fn protection_concentrates_risk() {
        let map = synthetic_map(10);
        let plan = plan_protection(&map, 0.15).unwrap();
        assert!(plan.protected_error > plan.unprotected_error);
        assert!(plan.concentration() > 1.5);
    }

    #[test]
    fn impossible_targets_return_none() {
        let mut map = synthetic_map(4);
        // Uniformly bad map: no margin threshold helps below 0.4.
        for e in &mut map.error_prob {
            *e = 0.5;
        }
        assert!(plan_protection(&map, 0.4).is_none());
    }

    #[test]
    #[should_panic(expected = "target error must be in")]
    fn degenerate_target_rejected() {
        plan_protection(&synthetic_map(4), 0.0);
    }

    #[test]
    fn protection_study_composes_map_and_plan_through_the_engine() {
        use bdlfi_faults::BernoulliBitFlip;
        use bdlfi_nn::{mlp, optim::Sgd, TrainConfig, Trainer};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(44);
        let data = bdlfi_data::gaussian_blobs(200, 3, 0.5, &mut rng);
        let mut model = mlp(2, &[16], 3, &mut rng);
        let mut trainer = Trainer::new(
            Sgd::new(0.1).with_momentum(0.9),
            TrainConfig {
                epochs: 15,
                batch_size: 32,
                ..TrainConfig::default()
            },
        );
        trainer.fit(&mut model, data.inputs(), data.labels(), &mut rng);

        let cfg = BoundaryConfig {
            resolution: 8,
            fault_samples: 30,
            seed: 4,
            ..BoundaryConfig::default()
        };
        let study = run_protection_study(
            &model,
            &SiteSpec::AllParams,
            Arc::new(BernoulliBitFlip::new(2e-3)),
            &cfg,
            0.9,
            &RunControl::new(),
        )
        .unwrap();
        assert_eq!(study.map.error_prob.len(), 64);
        assert_eq!(study.map.run_meta.tasks, 30);
        // A target this loose is always reachable.
        let plan = study.plan.expect("loose target must yield a plan");
        assert!(plan.unprotected_error <= 0.9);
    }
}
