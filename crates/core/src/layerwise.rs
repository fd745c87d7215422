//! Layer-by-layer campaigns — the paper's Fig. 3: inject into one layer at
//! a time and ask whether the injected layer's *depth* predicts the output
//! error. (The paper's finding: it does not, contradicting earlier
//! small-sample random-FI studies.)

use crate::campaign::{run_campaign, CampaignConfig};
use crate::checkpoint::journal_fingerprint;
use crate::engine::{
    CheckpointSpec, CollectSink, EngineError, EvalEngine, NullSink, RunControl, RunMeta, TaskCtx,
};
use crate::report::CampaignReport;
use crate::shard::{ShardError, ShardPlan};
use crate::stats::spearman;
use crate::workload::{FaultWorkload, GoldenModel};
use bdlfi_data::Dataset;
use bdlfi_faults::{BernoulliBitFlip, SiteSpec};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How the fault burden is allocated to each injected layer.
///
/// Layers of a deep network differ in parameter count by orders of
/// magnitude, so the choice matters:
///
/// * [`LayerBudget::PerBit`] applies the same per-bit AVF probability
///   everywhere — larger layers then absorb proportionally more flips, and
///   the measured per-layer error mixes *vulnerability* with *size*;
/// * [`LayerBudget::ExpectedFlips`] scales each layer's probability so the
///   expected number of flipped bits is equal — this isolates per-fault
///   vulnerability, which is what the classical per-layer studies (and the
///   paper's Fig. 3 depth question) are about.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LayerBudget {
    /// Identical per-bit flip probability for every layer.
    PerBit(f64),
    /// Identical expected flipped-bit count for every layer
    /// (`p_layer = flips / (32 · elements)`).
    ExpectedFlips(f64),
}

impl LayerBudget {
    /// The per-bit probability this budget induces for a layer with
    /// `elements` injectable f32 values.
    ///
    /// # Panics
    ///
    /// Panics if `elements == 0` under [`LayerBudget::ExpectedFlips`].
    pub fn probability_for(&self, elements: usize) -> f64 {
        self.probability_for_bits(elements as u64 * 32)
    }

    /// The per-bit probability this budget induces for a layer exposing
    /// `bits` injectable bits — the width-aware form, summing each site's
    /// `len × repr.width()` for mixed-representation (quantized) layers.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0` under [`LayerBudget::ExpectedFlips`].
    pub fn probability_for_bits(&self, bits: u64) -> f64 {
        match *self {
            LayerBudget::PerBit(p) => p,
            LayerBudget::ExpectedFlips(flips) => {
                assert!(bits > 0, "cannot spread flips over an empty layer");
                (flips / bits as f64).min(1.0)
            }
        }
    }
}

/// The campaign outcome for one injected layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerResult {
    /// Depth index of the layer (0 = closest to the input).
    pub depth: usize,
    /// The layer's name (path prefix used for injection).
    pub layer: String,
    /// Number of injectable parameter elements under this layer.
    pub elements: usize,
    /// The per-bit flip probability this layer's campaign used.
    pub p: f64,
    /// Full campaign report.
    pub report: CampaignReport,
}

/// The outcome of a layer-by-layer study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerwiseResult {
    /// One entry per injected layer, in depth order.
    pub layers: Vec<LayerResult>,
    /// Golden-run classification error.
    pub golden_error: f64,
    /// Spearman rank correlation between layer depth and mean error —
    /// the paper's claim is that this is near zero.
    pub depth_correlation: f64,
    /// Engine execution metadata for the per-layer fan-out.
    pub run_meta: RunMeta,
}

/// Runs one BDLFI campaign per layer prefix of the golden network (an
/// f32 [`bdlfi_nn::Sequential`] or an int8 [`bdlfi_quant::QuantModel`],
/// see [`GoldenModel`]), injecting only into that layer's parameters, with
/// the fault burden allocated by `budget` over the layer's injectable
/// *bits* (f32 values contribute 32 bits per element, int8 weight bytes 8,
/// i32 biases 32). With a journal in `ctl`, each completed layer is one
/// entry, in depth order.
///
/// # Errors
///
/// [`EngineError::Interrupted`] on a cooperative stop, plus journal/sink
/// failures and those of the per-layer campaigns.
///
/// # Panics
///
/// Panics if `layers` is empty, the budget induces an invalid probability,
/// or a prefix does not exist in the model.
pub fn run_layerwise<N: GoldenModel>(
    net: &N,
    eval: &Arc<Dataset>,
    layers: &[&str],
    budget: LayerBudget,
    cfg: &CampaignConfig,
    ctl: &RunControl,
) -> Result<LayerwiseResult, EngineError> {
    // One campaign per layer, fanned out through the engine; each
    // campaign is deterministic in (cfg.seed, layer), so the study is
    // worker-count invariant. Task `i` covers `layers[i]` at depth `i`.
    let task = layer_task(net, eval, layers, budget, cfg);
    let engine = EvalEngine::with_workers(cfg.seed, cfg.workers);
    let ctl = ctl.or_fingerprint(|| layerwise_fingerprint::<N>(layers, budget, cfg));
    let mut sink = CollectSink::new();
    let run_meta = engine.run_checkpointed(layers.len(), || (), task, &mut sink, &ctl)?;
    let results = sink.into_inner();

    let golden_error = results[0].report.golden_error;
    let depths: Vec<f64> = results.iter().map(|r| r.depth as f64).collect();
    let errors: Vec<f64> = results.iter().map(|r| r.report.mean_error).collect();
    let depth_correlation = spearman(&depths, &errors);

    // Roll the per-layer campaigns' sparse-delta accounting up into the
    // outer meta so the study-level report shows the aggregate hit rate.
    let mut run_meta = run_meta;
    run_meta.delta_hits = results.iter().map(|r| r.report.run_meta.delta_hits).sum();
    run_meta.delta_fallbacks = results
        .iter()
        .map(|r| r.report.run_meta.delta_fallbacks)
        .sum();

    Ok(LayerwiseResult {
        layers: results,
        golden_error,
        depth_correlation,
        run_meta,
    })
}

/// [`run_layerwise`] with the journal passed beside `ctl`.
#[deprecated(note = "use `run_layerwise` with `RunControl::checkpointed`")]
pub fn run_layerwise_controlled<N: GoldenModel>(
    net: &N,
    eval: &Arc<Dataset>,
    layers: &[&str],
    budget: LayerBudget,
    cfg: &CampaignConfig,
    ctl: &RunControl,
    ckpt: Option<&CheckpointSpec>,
) -> Result<LayerwiseResult, EngineError> {
    run_layerwise(
        net,
        eval,
        layers,
        budget,
        cfg,
        &RunControl {
            checkpoint: ckpt.cloned(),
            ..ctl.clone()
        },
    )
}

/// Runs one shard of a layerwise study split `count` ways: the layers in
/// shard `index`'s contiguous sub-range of `0..layers.len()` (depth
/// order), journaled with global depth ids under the plan's per-shard
/// fingerprint. Merge the completed shards with
/// [`crate::shard::merge_shards`] and assemble the [`LayerwiseResult`]
/// via [`run_layerwise`] with [`CheckpointSpec::finalizing`].
///
/// `ctl` must carry the shard's journal; its fingerprint names the
/// **unsharded** layerwise fingerprint (empty derives it, matching
/// [`run_layerwise`]).
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
/// Same preconditions as [`run_layerwise`].
#[allow(clippy::too_many_arguments)]
pub fn run_layerwise_shard<N: GoldenModel>(
    net: &N,
    eval: &Arc<Dataset>,
    layers: &[&str],
    budget: LayerBudget,
    cfg: &CampaignConfig,
    count: usize,
    index: usize,
    ctl: &RunControl,
) -> Result<RunMeta, ShardError> {
    let ctl = ctl.or_fingerprint(|| layerwise_fingerprint::<N>(layers, budget, cfg));
    let base = ctl.shard_journal()?.fingerprint.clone();
    let task = layer_task(net, eval, layers, budget, cfg);
    let plan = ShardPlan::new(base, cfg.seed, layers.len(), count)?;
    let engine = EvalEngine::with_workers(cfg.seed, cfg.workers);
    engine.run_shard_checkpointed(&plan, index, || (), task, &mut NullSink, &ctl)
}

/// The journal identity of a layerwise study: driver, representation,
/// config, the layer prefixes in depth order and the budget.
fn layerwise_fingerprint<N: GoldenModel>(
    layers: &[&str],
    budget: LayerBudget,
    cfg: &CampaignConfig,
) -> String {
    let namespace = <N::Workload as FaultWorkload>::NAMESPACE;
    journal_fingerprint("layerwise", namespace, &(cfg, layers, budget))
}

/// Checks a layerwise study's preconditions, binds the golden network
/// once, and returns the journaled task shared by the whole and the
/// sharded runner: the campaign over `layers[task_id]` at depth `task_id`,
/// on a rescoping of that one binding.
fn layer_task<'a, N: GoldenModel>(
    net: &'a N,
    eval: &'a Arc<Dataset>,
    layers: &'a [&str],
    budget: LayerBudget,
    cfg: &'a CampaignConfig,
) -> impl Fn(&mut (), &mut TaskCtx) -> Result<LayerResult, EngineError> + Sync + 'a {
    assert!(
        !layers.is_empty(),
        "layerwise study needs at least one layer"
    );
    if let LayerBudget::PerBit(p) = budget {
        assert!(
            (0.0..=1.0).contains(&p),
            "flip probability must be in [0, 1]"
        );
    }
    let golden = net.clone().bind(
        Arc::clone(eval),
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(0.0)),
    );
    move |(), ctx| {
        let depth = ctx.task_id;
        let layer = layers[depth].to_string();
        let spec = SiteSpec::LayerParams {
            prefix: layer.clone(),
        };
        // Resolve first to size the budget by the layer's injectable bit
        // space (which mixes 8- and 32-bit sites on an int8 network).
        let sites = net.resolve_sites(&spec);
        let elements = sites.total_param_elements();
        let bits: u64 = sites.params.iter().map(|s| s.injectable_bits()).sum();
        let p = budget.probability_for_bits(bits);
        let fm = golden.rescoped(&spec, Arc::new(BernoulliBitFlip::new(p)));
        Ok(LayerResult {
            depth,
            layer,
            elements,
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
    use bdlfi_nn::{mlp, optim::Sgd, TrainConfig, Trainer};
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
            seed: 5,
            criteria: CompletenessCriteria {
                max_rhat: 2.0,
                min_ess: 10.0,
                max_mcse: 0.2,
            },
            workers: 0,
        }
    }

    #[test]
    fn layerwise_covers_each_layer_independently() {
        let mut rng = StdRng::seed_from_u64(21);
        let data = gaussian_blobs(200, 3, 0.6, &mut rng);
        let (train, test) = data.split(0.7, &mut rng);
        let mut model = mlp(2, &[16, 16], 3, &mut rng);
        let mut trainer = Trainer::new(
            Sgd::new(0.1).with_momentum(0.9),
            TrainConfig {
                epochs: 15,
                batch_size: 32,
                ..TrainConfig::default()
            },
        );
        trainer.fit(&mut model, train.inputs(), train.labels(), &mut rng);

        let res = run_layerwise(
            &model,
            &Arc::new(test),
            &["fc1", "fc2", "fc3"],
            LayerBudget::PerBit(1e-2),
            &quick_cfg(),
            &RunControl::new(),
        )
        .unwrap();
        assert_eq!(res.layers.len(), 3);
        assert_eq!(res.layers[0].layer, "fc1");
        assert_eq!(res.layers[0].depth, 0);
        // Element counts match the MLP dimensions.
        assert_eq!(res.layers[0].elements, 2 * 16 + 16);
        assert_eq!(res.layers[1].elements, 16 * 16 + 16);
        assert_eq!(res.layers[2].elements, 16 * 3 + 3);
        // Correlation is defined (not NaN) and bounded.
        assert!(res.depth_correlation.abs() <= 1.0);
        // Every campaign shares the same golden error.
        for l in &res.layers {
            assert_eq!(l.report.golden_error, res.golden_error);
        }
    }

    #[test]
    fn expected_flips_budget_scales_probability_inversely_with_size() {
        let mut rng = StdRng::seed_from_u64(23);
        let data = gaussian_blobs(100, 2, 0.6, &mut rng);
        let model = mlp(2, &[32], 2, &mut rng);
        let res = run_layerwise(
            &model,
            &Arc::new(data),
            &["fc1", "fc2"],
            LayerBudget::ExpectedFlips(4.0),
            &quick_cfg(),
            &RunControl::new(),
        )
        .unwrap();
        // fc1 has 2*32+32 = 96 elements; fc2 has 32*2+2 = 66.
        assert!((res.layers[0].p - 4.0 / (32.0 * 96.0)).abs() < 1e-12);
        assert!((res.layers[1].p - 4.0 / (32.0 * 66.0)).abs() < 1e-12);
        // Expected flips equalised: p * 32 * elements identical.
        let burden = |l: &LayerResult| l.p * 32.0 * l.elements as f64;
        assert!((burden(&res.layers[0]) - burden(&res.layers[1])).abs() < 1e-9);
        // Mean observed flips per sample should be near 4 for both.
        for l in &res.layers {
            assert!(
                (l.report.mean_flips - 4.0).abs() < 1.5,
                "{}: mean flips {}",
                l.layer,
                l.report.mean_flips
            );
        }
    }

    #[test]
    fn quant_layerwise_sizes_budget_by_bits() {
        use bdlfi_quant::{quantize_model, CalibConfig};
        let mut rng = StdRng::seed_from_u64(24);
        let data = gaussian_blobs(100, 2, 0.6, &mut rng);
        let model = mlp(2, &[32], 2, &mut rng);
        let qm = quantize_model(&model, data.inputs(), &CalibConfig::default());
        let res = run_layerwise(
            &qm,
            &Arc::new(data),
            &["fc1", "fc2"],
            LayerBudget::ExpectedFlips(4.0),
            &quick_cfg(),
            &RunControl::new(),
        )
        .unwrap();
        // fc1: 2*32 int8 weights (8 bits) + 32 i32 biases + 32 per-channel
        // w_scales (f32) + out_zp (i32) = 64*8 + 32*32 + 32*32 + 32 = 2592
        // bits.
        assert!(
            (res.layers[0].p - 4.0 / 2592.0).abs() < 1e-12,
            "{}",
            res.layers[0].p
        );
        // Mean observed flips per sample near the 4-flip budget.
        for l in &res.layers {
            assert!(
                (l.report.mean_flips - 4.0).abs() < 1.5,
                "{}: mean flips {}",
                l.layer,
                l.report.mean_flips
            );
        }
    }

    #[test]
    fn probability_saturates_at_one() {
        let b = LayerBudget::ExpectedFlips(1e12);
        assert_eq!(b.probability_for(3), 1.0);
        let b = LayerBudget::PerBit(0.25);
        assert_eq!(b.probability_for(1000), 0.25);
    }

    #[test]
    #[should_panic(expected = "no parameters under layer prefix")]
    fn unknown_layer_panics() {
        let mut rng = StdRng::seed_from_u64(22);
        let data = gaussian_blobs(50, 2, 0.5, &mut rng);
        let model = mlp(2, &[4], 2, &mut rng);
        run_layerwise(
            &model,
            &Arc::new(data),
            &["nope"],
            LayerBudget::PerBit(1e-3),
            &quick_cfg(),
            &RunControl::new(),
        )
        .unwrap();
    }
}
