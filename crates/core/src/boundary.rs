//! Decision-boundary error-probability maps — the paper's Fig. 1 ③:
//! "log(Error) Probability Due to Faults" over the 2-D input space,
//! against the original classification boundary. The paper's finding:
//! *the effect of faults is most significant at the decision boundary.*

use crate::campaign::delta_accounted;
use crate::checkpoint::journal_fingerprint;
use crate::engine::{EngineError, EvalEngine, EvalSink, RunControl, RunMeta};
use crate::faulty_model::FaultyModel;
use crate::stats::spearman;
use bdlfi_bayes::BetaBernoulli;
use bdlfi_data::Dataset;
use bdlfi_faults::{FaultModel, SiteSpec};
use bdlfi_nn::Sequential;
use bdlfi_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of a boundary-map study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundaryConfig {
    /// Horizontal extent of the input grid.
    pub x_range: (f32, f32),
    /// Vertical extent of the input grid.
    pub y_range: (f32, f32),
    /// Grid cells per axis (the map has `resolution²` points).
    pub resolution: usize,
    /// Number of fault configurations sampled from the prior.
    pub fault_samples: usize,
    /// RNG seed; fault sample `i` draws from `seed_stream(seed, i)`.
    pub seed: u64,
    /// Worker threads for fault evaluation (0 = all available cores).
    /// Maps are bit-identical at every worker count.
    pub workers: usize,
}

impl Default for BoundaryConfig {
    fn default() -> Self {
        BoundaryConfig {
            x_range: (-5.0, 5.0),
            y_range: (-5.0, 5.0),
            resolution: 40,
            fault_samples: 200,
            seed: 42,
            workers: 0,
        }
    }
}

/// The per-point fault-induced error-probability map over a 2-D input
/// space.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BoundaryMap {
    /// Grid cells per axis.
    pub resolution: usize,
    /// Horizontal extent.
    pub x_range: (f32, f32),
    /// Vertical extent.
    pub y_range: (f32, f32),
    /// Posterior mean (Jeffreys Beta–Bernoulli) of the per-point
    /// probability that faults change the prediction; row-major,
    /// `resolution²` entries, row 0 at `y_range.0`.
    pub error_prob: Vec<f64>,
    /// The golden network's predicted class per grid point.
    pub golden_pred: Vec<usize>,
    /// The golden network's softmax margin (top-1 minus top-2 probability)
    /// per grid point — small margin ⇔ close to the decision boundary.
    pub margin: Vec<f64>,
    /// Spearman correlation between margin and error probability. The
    /// paper's boundary finding corresponds to a strongly *negative*
    /// value: low margin (near the boundary) ⇒ high error probability.
    pub margin_correlation: f64,
    /// Engine execution metadata for the fault-sample fan-out.
    pub run_meta: RunMeta,
}

impl BoundaryMap {
    /// Error probability at grid cell `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if an index exceeds the resolution.
    pub fn at(&self, ix: usize, iy: usize) -> f64 {
        assert!(
            ix < self.resolution && iy < self.resolution,
            "grid index out of range"
        );
        self.error_prob[iy * self.resolution + ix]
    }

    /// Natural log of the error probability (the paper plots log scale).
    pub fn log_error_prob(&self) -> Vec<f64> {
        self.error_prob.iter().map(|p| p.max(1e-12).ln()).collect()
    }

    /// Mean error probability over points whose margin is below / at least
    /// the median margin: `(near_boundary, far_from_boundary)`. The
    /// paper's finding is `near > far`.
    pub fn near_far_split(&self) -> (f64, f64) {
        let mut sorted = self.margin.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        let (mut near, mut far) = (Vec::new(), Vec::new());
        for (m, e) in self.margin.iter().zip(self.error_prob.iter()) {
            if *m < median {
                near.push(*e);
            } else {
                far.push(*e);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        (mean(&near), mean(&far))
    }

    /// Renders the log-error-probability map as ASCII art (darker = more
    /// likely to misclassify under faults), row `resolution-1` (top) first.
    pub fn render_ascii(&self) -> String {
        const SHADES: &[u8] = b" .:-=+*#%@";
        let lo = self
            .error_prob
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .max(1e-12)
            .ln();
        let hi = self
            .error_prob
            .iter()
            .copied()
            .fold(0.0f64, f64::max)
            .max(1e-12)
            .ln();
        let span = (hi - lo).max(1e-9);
        let mut out = String::with_capacity((self.resolution + 1) * self.resolution);
        for iy in (0..self.resolution).rev() {
            for ix in 0..self.resolution {
                let v = (self.at(ix, iy).max(1e-12).ln() - lo) / span;
                let idx = ((v * (SHADES.len() - 1) as f64).round() as usize).min(SHADES.len() - 1);
                out.push(SHADES[idx] as char);
            }
            out.push('\n');
        }
        out
    }
}

/// Computes the fault-induced error-probability map of a trained 2-D
/// classifier.
///
/// Every fault sample evaluates the entire grid in one batched forward
/// pass; the per-point mismatch counts feed Jeffreys Beta–Bernoulli
/// posteriors. With a journal in `ctl`, each fault sample is one entry.
///
/// # Errors
///
/// [`EngineError::Interrupted`] on a cooperative stop (resume with the
/// same config to finish), plus journal/sink failures.
///
/// # Panics
///
/// Panics if the model does not take 2-D inputs, the resolution is < 2, or
/// `fault_samples == 0`.
pub fn boundary_map(
    model: &Sequential,
    spec: &SiteSpec,
    fault_model: Arc<dyn FaultModel>,
    cfg: &BoundaryConfig,
    ctl: &RunControl,
) -> Result<BoundaryMap, EngineError> {
    assert!(cfg.resolution >= 2, "resolution must be at least 2");
    assert!(cfg.fault_samples > 0, "need at least one fault sample");

    // Build the grid as a dataset (labels are dummies; the statistic is
    // mismatch against the golden prediction, not label error).
    let res = cfg.resolution;
    let n = res * res;
    let mut coords = Vec::with_capacity(n * 2);
    for iy in 0..res {
        for ix in 0..res {
            let x = cfg.x_range.0 + (cfg.x_range.1 - cfg.x_range.0) * ix as f32 / (res - 1) as f32;
            let y = cfg.y_range.0 + (cfg.y_range.1 - cfg.y_range.0) * iy as f32 / (res - 1) as f32;
            coords.push(x);
            coords.push(y);
        }
    }
    let grid = Tensor::from_vec(coords, [n, 2]);
    let dataset = Arc::new(Dataset::new(grid, vec![0; n], classes_of(model)));

    let mut fm = FaultyModel::new(model.clone(), dataset, spec, fault_model);
    let golden_pred = fm.golden_preds().to_vec();

    // Softmax margin of the golden run: distance-to-boundary proxy.
    let margin = {
        let logits = fm.eval_logits(
            &bdlfi_faults::FaultConfig::clean(),
            &mut StdRng::seed_from_u64(0),
        );
        let probs = logits.softmax_rows();
        (0..n)
            .map(|i| {
                let row = probs.row(i);
                let mut top = f32::NEG_INFINITY;
                let mut second = f32::NEG_INFINITY;
                for &v in row {
                    if v > top {
                        second = top;
                        top = v;
                    } else if v > second {
                        second = v;
                    }
                }
                f64::from(top - second)
            })
            .collect::<Vec<f64>>()
    };

    // Per-point mismatch counter fed incrementally by the engine — no
    // per-sample result buffering.
    struct MismatchSink {
        counts: Vec<u64>,
    }
    impl EvalSink<Vec<bool>> for MismatchSink {
        fn accept(&mut self, _task_id: usize, mismatch: Vec<bool>) -> Result<(), EngineError> {
            for (count, hit) in self.counts.iter_mut().zip(mismatch) {
                *count += u64::from(hit);
            }
            Ok(())
        }
    }

    // Fan the fault samples out through the engine: each worker owns a
    // clone of the faulty model (sharing the golden prefix cache), and
    // sample `i` draws its configuration and transient faults from the
    // seed stream of task `i` — so the map is worker-count invariant.
    let mut sink = MismatchSink {
        counts: vec![0u64; n],
    };
    let engine = EvalEngine::with_workers(cfg.seed, cfg.workers);
    let ctl = ctl.or_fingerprint(|| journal_fingerprint("boundary_map", "", cfg));
    let run_meta = delta_accounted(&fm, || {
        engine.run_checkpointed(
            cfg.fault_samples,
            || fm.clone(),
            |fm, ctx| {
                let fault_cfg = fm.sample_config(&mut ctx.rng);
                Ok(fm.eval_mismatch(&fault_cfg, &mut ctx.rng))
            },
            &mut sink,
            &ctl,
        )
    })?;
    let mismatch_counts = sink.counts;

    let error_prob: Vec<f64> = mismatch_counts
        .iter()
        .map(|&k| {
            BetaBernoulli::jeffreys()
                .update(k, cfg.fault_samples as u64)
                .mean()
        })
        .collect();
    let margin_correlation = spearman(&margin, &error_prob);

    Ok(BoundaryMap {
        resolution: res,
        x_range: cfg.x_range,
        y_range: cfg.y_range,
        error_prob,
        golden_pred,
        margin,
        margin_correlation,
        run_meta,
    })
}

/// Infers the class count from the model's final dense layer output.
fn classes_of(model: &Sequential) -> usize {
    let mut probe = model.clone();
    probe.predict(&Tensor::zeros([1, 2])).dim(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdlfi_data::gaussian_blobs;
    use bdlfi_faults::BernoulliBitFlip;
    use bdlfi_nn::{mlp, optim::Sgd, TrainConfig, Trainer};

    fn trained_mlp() -> Sequential {
        let mut rng = StdRng::seed_from_u64(33);
        let data = gaussian_blobs(300, 3, 0.5, &mut rng);
        let mut model = mlp(2, &[32], 3, &mut rng);
        let mut trainer = Trainer::new(
            Sgd::new(0.1).with_momentum(0.9),
            TrainConfig {
                epochs: 30,
                batch_size: 32,
                ..TrainConfig::default()
            },
        );
        trainer.fit(&mut model, data.inputs(), data.labels(), &mut rng);
        model
    }

    fn quick_map(model: &Sequential, p: f64) -> BoundaryMap {
        boundary_map(
            model,
            &SiteSpec::AllParams,
            Arc::new(BernoulliBitFlip::new(p)),
            &BoundaryConfig {
                resolution: 16,
                fault_samples: 60,
                seed: 9,
                ..BoundaryConfig::default()
            },
            &RunControl::new(),
        )
        .unwrap()
    }

    #[test]
    fn errors_concentrate_at_the_decision_boundary() {
        // The paper's Fig. 1 (3) finding, reproduced in miniature.
        let model = trained_mlp();
        let map = quick_map(&model, 2e-3);
        let (near, far) = map.near_far_split();
        assert!(
            near > far,
            "near-boundary error {near} should exceed far-from-boundary {far}"
        );
        assert!(
            map.margin_correlation < -0.2,
            "margin correlation {} should be clearly negative",
            map.margin_correlation
        );
    }

    #[test]
    fn map_dimensions_and_probability_bounds() {
        let model = trained_mlp();
        let map = quick_map(&model, 1e-3);
        assert_eq!(map.error_prob.len(), 16 * 16);
        assert_eq!(map.golden_pred.len(), 16 * 16);
        assert!(map.error_prob.iter().all(|p| (0.0..=1.0).contains(p)));
        // Jeffreys posterior keeps probabilities strictly inside (0, 1).
        assert!(map.error_prob.iter().all(|&p| p > 0.0 && p < 1.0));
        assert_eq!(map.at(0, 0), map.error_prob[0]);
        assert_eq!(map.at(15, 15), map.error_prob[16 * 16 - 1]);
    }

    #[test]
    fn log_map_and_ascii_render() {
        let model = trained_mlp();
        let map = quick_map(&model, 1e-3);
        let log = map.log_error_prob();
        assert_eq!(log.len(), map.error_prob.len());
        assert!(log.iter().all(|v| v.is_finite()));
        let art = map.render_ascii();
        assert_eq!(art.lines().count(), 16);
        assert!(art.lines().all(|l| l.len() == 16));
    }

    #[test]
    fn boundary_map_is_worker_count_invariant() {
        let model = trained_mlp();
        let map_with = |workers: usize| {
            boundary_map(
                &model,
                &SiteSpec::AllParams,
                Arc::new(BernoulliBitFlip::new(2e-3)),
                &BoundaryConfig {
                    resolution: 8,
                    fault_samples: 30,
                    seed: 5,
                    workers,
                    ..BoundaryConfig::default()
                },
                &RunControl::new(),
            )
            .unwrap()
        };
        let serial = map_with(1);
        let parallel = map_with(3);
        assert_eq!(serial.error_prob, parallel.error_prob);
        assert_eq!(serial.margin_correlation, parallel.margin_correlation);
        assert_eq!(parallel.run_meta.tasks, 30);
    }

    #[test]
    fn golden_predictions_partition_the_plane() {
        let model = trained_mlp();
        let map = quick_map(&model, 1e-4);
        // All 3 classes should own some region of the (-5,5)^2 plane.
        let mut seen = std::collections::BTreeSet::new();
        seen.extend(map.golden_pred.iter().copied());
        assert!(seen.len() >= 2, "classes seen: {seen:?}");
    }
}
