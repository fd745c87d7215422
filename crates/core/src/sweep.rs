//! Flip-probability sweeps — the engine behind the paper's Fig. 2 (MLP)
//! and Fig. 4 (ResNet-18): classification error as a function of the
//! per-bit flip probability `p`, with the two-regime knee analysis.

use crate::campaign::{run_campaign, CampaignConfig};
use crate::checkpoint::journal_fingerprint;
use crate::engine::{CollectSink, EngineError, EvalEngine, NullSink, RunControl, RunMeta, TaskCtx};
use crate::report::CampaignReport;
use crate::shard::{ShardError, ShardPlan};
use crate::stats::{fit_knee, KneeFit};
use crate::workload::{FaultWorkload, GoldenModel};
use bdlfi_data::Dataset;
use bdlfi_faults::{BernoulliBitFlip, SiteSpec};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One row of a sweep: the flip probability and the campaign outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Per-bit flip probability.
    pub p: f64,
    /// Full campaign report at this `p`.
    pub report: CampaignReport,
}

/// The outcome of a flip-probability sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResult {
    /// One point per swept probability, in ascending `p`.
    pub points: Vec<SweepPoint>,
    /// Golden-run classification error (the horizontal reference line).
    pub golden_error: f64,
    /// Engine execution metadata for the sweep-level fan-out.
    pub run_meta: RunMeta,
}

impl SweepResult {
    /// `(log10 p, mean error)` pairs for regime fitting.
    pub fn log_curve(&self) -> (Vec<f64>, Vec<f64>) {
        let xs = self.points.iter().map(|pt| pt.p.log10()).collect();
        let ys = self.points.iter().map(|pt| pt.report.mean_error).collect();
        (xs, ys)
    }

    /// Two-segment fit over `(log10 p, error)` locating the knee between
    /// the paper's two regimes. `None` if fewer than 4 points were swept.
    pub fn knee(&self) -> Option<KneeAnalysis> {
        if self.points.len() < 4 {
            return None;
        }
        let (xs, ys) = self.log_curve();
        let fit = fit_knee(&xs, &ys);
        Some(KneeAnalysis {
            knee_p: 10f64.powf(fit.knee_x),
            fit,
        })
    }
}

/// The two-regime analysis of a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KneeAnalysis {
    /// The flip probability at the knee — the paper's "optimal
    /// performance-reliability trade-off" operating point.
    pub knee_p: f64,
    /// The underlying two-segment fit in `(log10 p, error)` space.
    pub fit: KneeFit,
}

/// Log-spaced flip probabilities from `lo` to `hi` inclusive — the x-axis
/// grid of Figs. 2 and 4 (`1e-5` … `1e-1`).
///
/// # Panics
///
/// Panics unless `0 < lo < hi` and `points >= 2`.
pub fn log_spaced_probabilities(lo: f64, hi: f64, points: usize) -> Vec<f64> {
    assert!(lo > 0.0 && lo < hi, "need 0 < lo < hi");
    assert!(points >= 2, "need at least 2 points");
    let (llo, lhi) = (lo.log10(), hi.log10());
    (0..points)
        .map(|i| 10f64.powf(llo + (lhi - llo) * i as f64 / (points - 1) as f64))
        .collect()
}

/// Runs one BDLFI campaign per probability in `ps`, injecting into the
/// sites selected by `spec` of the given golden network — an f32
/// [`bdlfi_nn::Sequential`] or an int8 [`bdlfi_quant::QuantModel`] (see
/// [`GoldenModel`]). With a journal in `ctl`, each completed sweep point
/// is one entry, in the order of `ps`.
///
/// # Errors
///
/// [`EngineError::Interrupted`] on a cooperative stop (completed points
/// are journaled; resume with identical `ps`/`cfg` to finish), plus
/// journal/sink failures and those of the per-point campaigns.
///
/// # Panics
///
/// Panics if `ps` is empty or contains non-probabilities.
pub fn run_sweep<N: GoldenModel>(
    net: &N,
    eval: &Arc<Dataset>,
    spec: &SiteSpec,
    ps: &[f64],
    cfg: &CampaignConfig,
    ctl: &RunControl,
) -> Result<SweepResult, EngineError> {
    // Fan the per-p campaigns out through the engine; each campaign is a
    // deterministic function of (cfg.seed, p), so sweep results do not
    // depend on scheduling. Task `i` evaluates `ps[i]` (journal order is
    // the caller's order; points are sorted only in the final result).
    let task = point_task(net, eval, spec, ps, cfg);
    let engine = EvalEngine::with_workers(cfg.seed, cfg.workers);
    let ctl = ctl.or_fingerprint(|| sweep_fingerprint::<N>(ps, cfg));
    let mut sink = CollectSink::new();
    let run_meta = engine.run_checkpointed(ps.len(), || (), task, &mut sink, &ctl)?;
    let mut points = sink.into_inner();
    points.sort_by(|a, b| a.p.total_cmp(&b.p));
    let golden_error = points[0].report.golden_error;
    // Roll the per-point campaigns' sparse-delta accounting up into the
    // sweep-level meta.
    let mut run_meta = run_meta;
    run_meta.delta_hits = points.iter().map(|s| s.report.run_meta.delta_hits).sum();
    run_meta.delta_fallbacks = points
        .iter()
        .map(|s| s.report.run_meta.delta_fallbacks)
        .sum();
    Ok(SweepResult {
        points,
        golden_error,
        run_meta,
    })
}

/// Runs one shard of a flip-probability sweep split `count` ways: the
/// points in shard `index`'s contiguous sub-range of `0..ps.len()` (in
/// the caller's `ps` order), journaled with global point ids under the
/// plan's per-shard fingerprint. Merge the completed shards with
/// [`crate::shard::merge_shards`] and assemble the [`SweepResult`] via
/// [`run_sweep`] with
/// [`CheckpointSpec::finalizing`](crate::CheckpointSpec::finalizing).
///
/// `ctl` must carry the shard's journal; its fingerprint names the
/// **unsharded** sweep fingerprint (empty derives it, matching
/// [`run_sweep`]).
///
/// # Errors
///
/// [`ShardError::Plan`] when `ctl` carries no journal or the split is
/// unusable; [`ShardError::IndexOutOfRange`] for an index outside it;
/// [`ShardError::Engine`] wrapping [`EngineError::Interrupted`] on a
/// cooperative stop; engine/journal failures otherwise.
///
/// # Panics
///
/// Same preconditions as [`run_sweep`].
#[allow(clippy::too_many_arguments)]
pub fn run_sweep_shard<N: GoldenModel>(
    net: &N,
    eval: &Arc<Dataset>,
    spec: &SiteSpec,
    ps: &[f64],
    cfg: &CampaignConfig,
    count: usize,
    index: usize,
    ctl: &RunControl,
) -> Result<RunMeta, ShardError> {
    let ctl = ctl.or_fingerprint(|| sweep_fingerprint::<N>(ps, cfg));
    let base = ctl.shard_journal()?.fingerprint.clone();
    let task = point_task(net, eval, spec, ps, cfg);
    let plan = ShardPlan::new(base, cfg.seed, ps.len(), count)?;
    let engine = EvalEngine::with_workers(cfg.seed, cfg.workers);
    engine.run_shard_checkpointed(&plan, index, || (), task, &mut NullSink, &ctl)
}

/// The journal identity of a sweep: driver, representation, config and
/// the probability grid in the caller's order.
fn sweep_fingerprint<N: GoldenModel>(ps: &[f64], cfg: &CampaignConfig) -> String {
    journal_fingerprint(
        "sweep",
        <N::Workload as FaultWorkload>::NAMESPACE,
        &(cfg, ps),
    )
}

/// Checks a sweep's preconditions, binds the golden network once, and
/// returns the journaled task shared by the whole and the sharded runner:
/// the campaign at `ps[task_id]`, on a rescoping of that one binding.
fn point_task<'a, N: GoldenModel>(
    net: &'a N,
    eval: &'a Arc<Dataset>,
    spec: &'a SiteSpec,
    ps: &'a [f64],
    cfg: &'a CampaignConfig,
) -> impl Fn(&mut (), &mut TaskCtx) -> Result<SweepPoint, EngineError> + Sync + 'a {
    assert!(!ps.is_empty(), "sweep needs at least one probability");
    assert!(
        ps.iter().all(|p| (0.0..=1.0).contains(p)),
        "probabilities must be in [0, 1]"
    );
    let golden = net
        .clone()
        .bind(Arc::clone(eval), spec, Arc::new(BernoulliBitFlip::new(0.0)));
    move |(), ctx| {
        let p = ps[ctx.task_id];
        let fm = golden.rescoped(spec, Arc::new(BernoulliBitFlip::new(p)));
        Ok(SweepPoint {
            p,
            report: run_campaign(&fm, cfg, &RunControl::new())?.journal_form(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::KernelChoice;
    use crate::completeness::CompletenessCriteria;
    use bdlfi_bayes::ChainConfig;
    use bdlfi_data::gaussian_blobs;
    use bdlfi_nn::{mlp, optim::Sgd, Sequential, TrainConfig, Trainer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick_cfg() -> CampaignConfig {
        CampaignConfig {
            chains: 2,
            chain: ChainConfig {
                burn_in: 0,
                samples: 40,
                thin: 1,
            },
            kernel: KernelChoice::Prior,
            seed: 3,
            criteria: CompletenessCriteria {
                max_rhat: 2.0,
                min_ess: 10.0,
                max_mcse: 0.2,
            },
            workers: 0,
        }
    }

    fn trained() -> (Sequential, Arc<Dataset>) {
        let mut rng = StdRng::seed_from_u64(11);
        let data = gaussian_blobs(240, 3, 0.6, &mut rng);
        let (train, test) = data.split(0.7, &mut rng);
        let mut model = mlp(2, &[16], 3, &mut rng);
        let mut trainer = Trainer::new(
            Sgd::new(0.1).with_momentum(0.9),
            TrainConfig {
                epochs: 20,
                batch_size: 32,
                ..TrainConfig::default()
            },
        );
        trainer.fit(&mut model, train.inputs(), train.labels(), &mut rng);
        (model, Arc::new(test))
    }

    #[test]
    fn log_grid_is_log_spaced() {
        let g = log_spaced_probabilities(1e-5, 1e-1, 5);
        assert_eq!(g.len(), 5);
        assert!((g[0] - 1e-5).abs() < 1e-12);
        assert!((g[4] - 1e-1).abs() < 1e-9);
        // Consecutive ratios equal.
        let r0 = g[1] / g[0];
        let r1 = g[2] / g[1];
        assert!((r0 - r1).abs() < 1e-9);
    }

    #[test]
    fn sweep_error_is_monotone_ish_and_has_two_regimes() {
        let (model, eval) = trained();
        let ps = log_spaced_probabilities(1e-6, 3e-2, 6);
        let sweep = run_sweep(
            &model,
            &eval,
            &SiteSpec::AllParams,
            &ps,
            &quick_cfg(),
            &RunControl::new(),
        )
        .unwrap();

        assert_eq!(sweep.points.len(), 6);
        let errs: Vec<f64> = sweep.points.iter().map(|p| p.report.mean_error).collect();
        // Low-p end hugs the golden run; high-p end exceeds it clearly.
        assert!(
            (errs[0] - sweep.golden_error).abs() < 0.05,
            "low-p error {} vs golden {}",
            errs[0],
            sweep.golden_error
        );
        assert!(
            errs[5] > sweep.golden_error + 0.05,
            "high-p error {}",
            errs[5]
        );

        // Knee analysis runs and lands inside the sweep range.
        let knee = sweep.knee().expect("enough points for knee");
        assert!(knee.knee_p >= 1e-6 && knee.knee_p <= 3e-2);
        assert!(knee.fit.right_slope > knee.fit.left_slope);
    }

    #[test]
    fn sweep_points_sorted_by_p() {
        let (model, eval) = trained();
        let sweep = run_sweep(
            &model,
            &eval,
            &SiteSpec::AllParams,
            &[1e-2, 1e-5, 1e-3],
            &quick_cfg(),
            &RunControl::new(),
        )
        .unwrap();
        let ps: Vec<f64> = sweep.points.iter().map(|p| p.p).collect();
        assert!(ps.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn quant_sweep_error_grows_with_p() {
        use bdlfi_quant::{quantize_model, CalibConfig};
        let (model, eval) = trained();
        let qm = quantize_model(&model, eval.inputs(), &CalibConfig::default());
        let sweep = run_sweep(
            &qm,
            &eval,
            &SiteSpec::AllParams,
            &[1e-5, 3e-2],
            &quick_cfg(),
            &RunControl::new(),
        )
        .unwrap();
        assert_eq!(sweep.points.len(), 2);
        assert!(
            (sweep.points[0].report.mean_error - sweep.golden_error).abs() < 0.05,
            "low-p error {} vs golden {}",
            sweep.points[0].report.mean_error,
            sweep.golden_error
        );
        assert!(
            sweep.points[1].report.mean_error > sweep.golden_error + 0.03,
            "high-p error {}",
            sweep.points[1].report.mean_error
        );
    }

    #[test]
    #[should_panic(expected = "at least one probability")]
    fn empty_sweep_rejected() {
        let (model, eval) = trained();
        run_sweep(
            &model,
            &eval,
            &SiteSpec::AllParams,
            &[],
            &quick_cfg(),
            &RunControl::new(),
        )
        .unwrap();
    }
}
