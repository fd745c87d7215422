//! The fault-evaluation workload abstraction and the quantized workload.
//!
//! Every campaign driver ultimately needs the same four things from the
//! system under test: the resolved injection sites, the fault prior over
//! them, the golden classification error, and a way to score one
//! [`FaultConfig`]. [`FaultWorkload`] captures exactly that surface, so the
//! MCMC campaign machinery ([`crate::run_campaign`] and friends) runs
//! unchanged over the f32 [`FaultyModel`] and the int8
//! [`QuantFaultyModel`] — the quantized-deployment workload of the paper's
//! "memory units storing NN parameters" fault model. [`GoldenModel`] is
//! the same split one level up: the drivers that run many tasks over one
//! golden network (sweep, layerwise, exhaustive) take any network that
//! knows how to bind a workload and bind it once per run; sweep and
//! layerwise give each task a [`FaultWorkload::rescoped`] copy.

use crate::delta::{forward_delta_quant, DeltaStats, DENSIFY_THRESHOLD};
use crate::FaultyModel;
use bdlfi_data::Dataset;
use bdlfi_faults::{resolve_sites, FaultConfig, FaultModel, ResolvedSites, SiteSpec};
use bdlfi_nn::Sequential;
use bdlfi_quant::{QPrefixCache, QuantModel};
use bdlfi_tensor::Tensor;
use rand::Rng;
use std::sync::Arc;

/// A system under fault injection, as seen by the campaign drivers.
///
/// Implementors bind a network to an evaluation set, a resolved set of
/// injection sites and a fault prior. Cloning must be cheap enough to hand
/// one copy to each parallel chain (share the heavy read-only state behind
/// `Arc`s, clone only the mutable storage faults are XORed into).
pub trait FaultWorkload: Clone + Send + Sync {
    /// The representation suffix of this workload's journal fingerprint
    /// tags (`""` for f32, `"_quant"` for int8), so a journal of one
    /// representation is refused by the other; see
    /// [`crate::checkpoint::journal_fingerprint`].
    const NAMESPACE: &'static str;

    /// The resolved injection sites.
    fn sites(&self) -> &ResolvedSites;

    /// The shared fault prior.
    fn fault_model(&self) -> &Arc<dyn FaultModel>;

    /// Classification error of the fault-free network — the paper's
    /// "golden run" line.
    fn golden_error(&self) -> f64;

    /// The evaluation dataset.
    fn eval(&self) -> &Dataset;

    /// The golden network's predictions on the evaluation set.
    fn golden_preds(&self) -> &[usize];

    /// The faulted network's logits over the evaluation set under one
    /// fault configuration. `rng` drives transient faults where the
    /// workload has any; pure-parameter workloads ignore it.
    fn eval_logits(&mut self, cfg: &FaultConfig, rng: &mut dyn Rng) -> Tensor;

    /// Enables or disables the sparse-delta path; results are
    /// bit-identical either way.
    fn set_delta_enabled(&mut self, enabled: bool);

    /// The same golden run bound to the sites `spec` selects under
    /// `fault_model`: network, evaluation set, golden predictions and
    /// error and the shared golden prefix are kept, the sites are resolved
    /// afresh and the sparse-delta counters start at zero. Evaluations are
    /// bit-identical to a fresh [`GoldenModel::bind`] of the golden
    /// network over `spec`, without repeating its golden pass.
    ///
    /// # Panics
    ///
    /// Panics where binding the golden network over `spec` would.
    fn rescoped(&self, spec: &SiteSpec, fault_model: Arc<dyn FaultModel>) -> Self;

    /// Classification error (vs. true labels) under one fault
    /// configuration.
    fn eval_error(&mut self, cfg: &FaultConfig, rng: &mut dyn Rng) -> f64 {
        let logits = self.eval_logits(cfg, rng);
        bdlfi_nn::metrics::classification_error(&logits, self.eval().labels())
    }

    /// Samples a fault configuration from the prior over the sites.
    fn sample_config(&self, rng: &mut dyn Rng) -> FaultConfig {
        FaultConfig::sample(&self.sites().params, self.fault_model().as_ref(), rng)
    }

    /// Joint prior log-probability of a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the fault model defines no density.
    fn prior_log_prob(&self, cfg: &FaultConfig) -> f64 {
        cfg.log_prob(&self.sites().params, self.fault_model().as_ref())
            .expect("fault model must define a density for MCMC targets")
    }

    /// `(hits, fallbacks)` of the sparse-delta evaluation path, aggregated
    /// across every clone of this workload. Workloads without a delta path
    /// report `(0, 0)`; drivers stamp the per-run difference into
    /// [`crate::engine::RunMeta`].
    fn delta_counters(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl FaultWorkload for FaultyModel {
    const NAMESPACE: &'static str = "";

    fn sites(&self) -> &ResolvedSites {
        FaultyModel::sites(self)
    }

    fn fault_model(&self) -> &Arc<dyn FaultModel> {
        FaultyModel::fault_model(self)
    }

    fn golden_error(&self) -> f64 {
        FaultyModel::golden_error(self)
    }

    fn eval(&self) -> &Dataset {
        FaultyModel::eval(self)
    }

    fn golden_preds(&self) -> &[usize] {
        FaultyModel::golden_preds(self)
    }

    fn eval_logits(&mut self, cfg: &FaultConfig, rng: &mut dyn Rng) -> Tensor {
        FaultyModel::eval_logits(self, cfg, rng)
    }

    fn set_delta_enabled(&mut self, enabled: bool) {
        FaultyModel::set_delta_enabled(self, enabled);
    }

    fn rescoped(&self, spec: &SiteSpec, fault_model: Arc<dyn FaultModel>) -> Self {
        FaultyModel::rescoped(self, spec, fault_model)
    }

    fn delta_counters(&self) -> (u64, u64) {
        FaultyModel::delta_counters(self)
    }
}

/// A golden network the per-task drivers ([`crate::run_sweep`],
/// [`crate::run_layerwise`], the exhaustive baseline) bind into a
/// [`FaultWorkload`] once per run (sweep and layerwise then rescope it per
/// task, [`FaultWorkload::rescoped`]): [`Sequential`] binds a
/// [`FaultyModel`], [`QuantModel`] a [`QuantFaultyModel`]. One generic
/// driver body
/// therefore serves both representations, and the bound workload's
/// [`FaultWorkload::NAMESPACE`] keeps their journals apart.
pub trait GoldenModel: Clone + Sync {
    /// The workload this network binds into.
    type Workload: FaultWorkload;

    /// The sites `spec` selects on this network, tagged with their stored
    /// representation (for sizing a fault budget before binding).
    fn resolve_sites(&self, spec: &SiteSpec) -> ResolvedSites;

    /// Binds the network to an evaluation set and a fault model over the
    /// sites `spec` selects.
    fn bind(
        self,
        eval: Arc<Dataset>,
        spec: &SiteSpec,
        fault_model: Arc<dyn FaultModel>,
    ) -> Self::Workload;
}

impl GoldenModel for Sequential {
    type Workload = FaultyModel;

    fn resolve_sites(&self, spec: &SiteSpec) -> ResolvedSites {
        resolve_sites(self, spec)
    }

    fn bind(
        self,
        eval: Arc<Dataset>,
        spec: &SiteSpec,
        fault_model: Arc<dyn FaultModel>,
    ) -> FaultyModel {
        FaultyModel::new(self, eval, spec, fault_model)
    }
}

impl GoldenModel for QuantModel {
    type Workload = QuantFaultyModel;

    fn resolve_sites(&self, spec: &SiteSpec) -> ResolvedSites {
        self.sites_matching(spec)
    }

    fn bind(
        self,
        eval: Arc<Dataset>,
        spec: &SiteSpec,
        fault_model: Arc<dyn FaultModel>,
    ) -> QuantFaultyModel {
        QuantFaultyModel::new(self, eval, spec, fault_model)
    }
}

/// The quantized twin of [`FaultyModel`]: an int8 [`QuantModel`] bound to
/// an evaluation set and a fault model over its representation-tagged
/// sites (int8 weight bytes, i32 bias words, f32 scales).
///
/// Quantized storage is purely persistent — there are no transient
/// activation sites — so every evaluation runs the golden-prefix
/// incremental path: XOR the faults in, resume inference at the first
/// dirty stage from the shared [`QPrefixCache`], XOR them back out.
/// Cloning shares the evaluation data, prefix cache and fault model;
/// each clone owns its quantized storage. [`FaultWorkload::rescoped`]
/// moves the same golden run to other sites without repeating it.
#[derive(Clone)]
pub struct QuantFaultyModel {
    model: QuantModel,
    eval: Arc<Dataset>,
    sites: ResolvedSites,
    fault_model: Arc<dyn FaultModel>,
    golden_preds: Arc<Vec<usize>>,
    golden_error: f64,
    prefix: Arc<QPrefixCache>,
    delta_stats: Arc<DeltaStats>,
    delta_enabled: bool,
}

impl std::fmt::Debug for QuantFaultyModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantFaultyModel")
            .field("param_sites", &self.sites.params.len())
            .field("eval_examples", &self.eval.len())
            .field("golden_error", &self.golden_error)
            .finish()
    }
}

impl QuantFaultyModel {
    /// Binds a quantized model to an evaluation set and fault model over
    /// the sites selected by `spec`. Golden predictions, golden error and
    /// the prefix cache are computed once here.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty, the spec selects transient
    /// (activation/input) sites, or it resolves to no site.
    pub fn new(
        mut model: QuantModel,
        eval: Arc<Dataset>,
        spec: &SiteSpec,
        fault_model: Arc<dyn FaultModel>,
    ) -> Self {
        assert!(!eval.is_empty(), "evaluation set must not be empty");
        let sites = model.sites_matching(spec);
        assert!(
            !sites.is_empty(),
            "site spec resolved to no injection sites"
        );

        // One batch for the whole evaluation set: an int8 layer's fixed
        // per-call costs (quantizing, requantizers, zero-point sums) then
        // come once per evaluation. Rows are independent, so the split
        // never changes a bit; the f32 path keeps 64-row batches, which
        // measured faster there (DESIGN §9).
        let prefix = QPrefixCache::build(&mut model, eval.inputs(), eval.len());
        let golden_logits = prefix.golden_logits();
        let golden_preds = Arc::new(golden_logits.argmax_rows());
        let golden_error = bdlfi_nn::metrics::classification_error(&golden_logits, eval.labels());

        QuantFaultyModel {
            model,
            eval,
            sites,
            fault_model,
            golden_preds,
            golden_error,
            prefix: Arc::new(prefix),
            delta_stats: Arc::new(DeltaStats::default()),
            delta_enabled: true,
        }
    }

    /// Enables or disables the sparse-delta path (on by default). With it
    /// off, every evaluation takes the incremental dense path; results are
    /// bit-identical either way.
    pub fn set_delta_enabled(&mut self, enabled: bool) {
        self.delta_enabled = enabled;
    }

    /// `(hits, fallbacks)` of the sparse-delta path, aggregated across all
    /// clones of this workload (chains share the counters).
    pub fn delta_counters(&self) -> (u64, u64) {
        self.delta_stats.counters()
    }

    /// The resolved (representation-tagged) injection sites.
    pub fn sites(&self) -> &ResolvedSites {
        &self.sites
    }

    /// The shared fault model.
    pub fn fault_model(&self) -> &Arc<dyn FaultModel> {
        &self.fault_model
    }

    /// The evaluation dataset.
    pub fn eval(&self) -> &Dataset {
        &self.eval
    }

    /// Classification error of the fault-free quantized network.
    pub fn golden_error(&self) -> f64 {
        self.golden_error
    }

    /// The golden quantized network's predictions on the evaluation set.
    pub fn golden_preds(&self) -> &[usize] {
        &self.golden_preds
    }

    /// The underlying quantized model.
    pub fn model(&self) -> &QuantModel {
        &self.model
    }

    /// Evaluates the faulted quantized network's logits over the whole
    /// evaluation set: first through the sparse-delta path (recompute the
    /// touched columns, propagate only the deviating rows — see
    /// [`crate::delta`]), falling back to resuming from the golden prefix
    /// cache at the configuration's first dirty stage when the faults are
    /// not column-confined. Both paths are bit-identical to a cold run.
    pub fn eval_logits(&mut self, cfg: &FaultConfig) -> Tensor {
        let prefix = Arc::clone(&self.prefix);
        self.model.apply(cfg);
        let logits = if self.delta_enabled {
            forward_delta_quant(&mut self.model, &prefix, cfg, DENSIFY_THRESHOLD)
        } else {
            None
        };
        let logits = match logits {
            Some(l) => {
                self.delta_stats.record_hit();
                l
            }
            None => {
                if self.delta_enabled {
                    self.delta_stats.record_fallback();
                }
                let start = self
                    .model
                    .first_dirty_op(cfg)
                    .unwrap_or_else(|| self.model.len());
                prefix.predict_from(&mut self.model, start)
            }
        };
        self.model.apply(cfg);
        logits
    }

    /// Classification error (vs. true labels) under one configuration.
    pub fn eval_error(&mut self, cfg: &FaultConfig) -> f64 {
        let logits = self.eval_logits(cfg);
        bdlfi_nn::metrics::classification_error(&logits, self.eval.labels())
    }

    /// Per-example prediction mismatch against the golden quantized run.
    pub fn eval_mismatch(&mut self, cfg: &FaultConfig) -> Vec<bool> {
        let logits = self.eval_logits(cfg);
        logits
            .argmax_rows()
            .into_iter()
            .zip(self.golden_preds.iter())
            .map(|(f, &g)| f != g)
            .collect()
    }
}

impl FaultWorkload for QuantFaultyModel {
    const NAMESPACE: &'static str = "_quant";

    fn sites(&self) -> &ResolvedSites {
        &self.sites
    }

    fn fault_model(&self) -> &Arc<dyn FaultModel> {
        &self.fault_model
    }

    fn golden_error(&self) -> f64 {
        self.golden_error
    }

    fn eval(&self) -> &Dataset {
        &self.eval
    }

    fn golden_preds(&self) -> &[usize] {
        &self.golden_preds
    }

    fn eval_logits(&mut self, cfg: &FaultConfig, _rng: &mut dyn Rng) -> Tensor {
        QuantFaultyModel::eval_logits(self, cfg)
    }

    fn set_delta_enabled(&mut self, enabled: bool) {
        self.delta_enabled = enabled;
    }

    fn rescoped(&self, spec: &SiteSpec, fault_model: Arc<dyn FaultModel>) -> Self {
        let sites = self.model.sites_matching(spec);
        assert!(
            !sites.is_empty(),
            "site spec resolved to no injection sites"
        );
        QuantFaultyModel {
            sites,
            fault_model,
            delta_stats: Arc::new(DeltaStats::default()),
            ..self.clone()
        }
    }

    fn delta_counters(&self) -> (u64, u64) {
        QuantFaultyModel::delta_counters(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdlfi_data::gaussian_blobs;
    use bdlfi_faults::{BernoulliBitFlip, BitRange, Repr};
    use bdlfi_nn::{mlp, optim::Sgd, resnet18, ResNetConfig, TrainConfig, Trainer};
    use bdlfi_quant::{quantize_model, CalibConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The 2-[16]-3 MLP trained on Gaussian blobs, its data, and the RNG
    /// as training left it.
    fn trained_mlp() -> (Sequential, Arc<Dataset>, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let data = Arc::new(gaussian_blobs(100, 3, 0.5, &mut rng));
        let mut model = mlp(2, &[16], 3, &mut rng);
        let mut trainer = Trainer::new(
            Sgd::new(0.1).with_momentum(0.9),
            TrainConfig {
                epochs: 15,
                batch_size: 16,
                ..TrainConfig::default()
            },
        );
        trainer.fit(&mut model, data.inputs(), data.labels(), &mut rng);
        (model, data, rng)
    }

    /// A width-2 ResNet-18 over 8×8 single-channel images, trained one
    /// epoch so its batch norms carry running statistics.
    fn trained_resnet() -> (Sequential, Arc<Dataset>) {
        let mut rng = StdRng::seed_from_u64(5);
        let config = ResNetConfig {
            in_channels: 1,
            base_width: 2,
            classes: 3,
        };
        let mut model = resnet18(config, &mut rng);
        let inputs = Tensor::rand_normal([6, 1, 8, 8], 0.0, 1.0, &mut rng);
        let data = Arc::new(Dataset::new(inputs, (0..6).map(|i| i % 3).collect(), 3));
        let mut trainer = Trainer::new(
            Sgd::new(0.05),
            TrainConfig {
                epochs: 1,
                batch_size: 3,
                ..TrainConfig::default()
            },
        );
        trainer.fit(&mut model, data.inputs(), data.labels(), &mut rng);
        (model, data)
    }

    fn setup(p: f64) -> (QuantFaultyModel, StdRng) {
        let (model, data, rng) = trained_mlp();
        let qm = quantize_model(&model, data.inputs(), &CalibConfig::default());
        let qfm = QuantFaultyModel::new(
            qm,
            data,
            &SiteSpec::AllParams,
            Arc::new(BernoulliBitFlip::with_bits(p, BitRange::all_for(Repr::I8))),
        );
        (qfm, rng)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Binds `net` once over all its parameters, rescopes that binding to
    /// each spec at about four expected flips, and checks it against a
    /// fresh bind over the spec: equal sites, golden error and golden
    /// predictions; bit-identical logits on sampled configurations with
    /// the sparse-delta path on and off; and delta counters of its own
    /// that start at zero and leave the base's untouched.
    fn assert_rescoped_matches_bind<N: GoldenModel>(
        net: &N,
        eval: &Arc<Dataset>,
        specs: &[SiteSpec],
    ) {
        let base = net.clone().bind(
            Arc::clone(eval),
            &SiteSpec::AllParams,
            Arc::new(BernoulliBitFlip::new(0.0)),
        );
        let mut rng = StdRng::seed_from_u64(31);
        for spec in specs {
            let bits_in_scope: u64 = net
                .resolve_sites(spec)
                .params
                .iter()
                .map(|s| s.injectable_bits())
                .sum();
            let fault: Arc<dyn FaultModel> =
                Arc::new(BernoulliBitFlip::new(4.0 / bits_in_scope as f64));
            let mut fresh = net.clone().bind(Arc::clone(eval), spec, Arc::clone(&fault));
            let mut rescoped = base.rescoped(spec, fault);
            assert_eq!(rescoped.sites(), fresh.sites(), "{spec:?}");
            assert_eq!(
                rescoped.golden_error().to_bits(),
                fresh.golden_error().to_bits()
            );
            assert_eq!(rescoped.golden_preds(), fresh.golden_preds());
            assert_eq!(rescoped.delta_counters(), (0, 0));
            for delta in [true, false] {
                fresh.set_delta_enabled(delta);
                rescoped.set_delta_enabled(delta);
                for round in 0..5 {
                    let cfg = fresh.sample_config(&mut rng);
                    let want = fresh.eval_logits(&cfg, &mut StdRng::seed_from_u64(round));
                    let got = rescoped.eval_logits(&cfg, &mut StdRng::seed_from_u64(round));
                    assert_eq!(bits(&got), bits(&want), "{spec:?}, delta {delta}");
                }
            }
            assert_eq!(rescoped.delta_counters(), fresh.delta_counters());
            assert_eq!(base.delta_counters(), (0, 0));
        }
    }

    /// Rescoping a parameter-only binding to the transient `activation`
    /// site drops its prefix and matches a fresh transient bind under the
    /// same RNG seed; rescoping that back to all parameters rebuilds the
    /// prefix and matches a fresh parameter bind.
    fn assert_transient_rescoping_matches_bind(
        net: &Sequential,
        eval: &Arc<Dataset>,
        activation: &str,
    ) {
        let params = SiteSpec::AllParams;
        let transient = SiteSpec::Activations(vec![activation.to_string()]);
        let fault: Arc<dyn FaultModel> = Arc::new(BernoulliBitFlip::new(0.01));
        let mut golden = net
            .clone()
            .bind(Arc::clone(eval), &params, Arc::clone(&fault));
        let mut fresh = net
            .clone()
            .bind(Arc::clone(eval), &transient, Arc::clone(&fault));
        let mut rescoped = golden.rescoped(&transient, Arc::clone(&fault));
        assert_eq!(rescoped.sites(), fresh.sites());
        assert_eq!(rescoped.golden_preds(), fresh.golden_preds());
        let clean = FaultConfig::clean();
        let golden_logits = golden.eval_logits(&clean, &mut StdRng::seed_from_u64(0));
        let mut faulted = false;
        for round in 0..5 {
            let want = fresh.eval_logits(&clean, &mut StdRng::seed_from_u64(round));
            let got = rescoped.eval_logits(&clean, &mut StdRng::seed_from_u64(round));
            assert_eq!(bits(&got), bits(&want), "transient round {round}");
            faulted |= bits(&got) != bits(&golden_logits);
        }
        assert!(faulted, "transient faults never reached the logits");

        let mut back = rescoped.rescoped(&params, Arc::clone(&fault));
        let mut rng = StdRng::seed_from_u64(32);
        for _ in 0..5 {
            let cfg = golden.sample_config(&mut rng);
            let want = golden.eval_logits(&cfg, &mut StdRng::seed_from_u64(0));
            let got = back.eval_logits(&cfg, &mut StdRng::seed_from_u64(0));
            assert_eq!(bits(&got), bits(&want), "parameters after transient");
        }
    }

    fn layer(prefix: &str) -> SiteSpec {
        SiteSpec::LayerParams {
            prefix: prefix.to_string(),
        }
    }

    #[test]
    fn rescoped_f32_mlp_matches_a_fresh_bind() {
        let (model, data, _) = trained_mlp();
        let specs = [SiteSpec::AllParams, layer("fc1"), layer("fc2")];
        assert_rescoped_matches_bind(&model, &data, &specs);
        assert_transient_rescoping_matches_bind(&model, &data, "relu1");
    }

    #[test]
    fn rescoped_resnet_matches_a_fresh_bind() {
        let (model, data) = trained_resnet();
        let specs = [layer("conv1"), layer("layer2_0"), layer("fc")];
        assert_rescoped_matches_bind(&model, &data, &specs);
        assert_transient_rescoping_matches_bind(&model, &data, "relu");
    }

    #[test]
    fn rescoped_int8_mlp_matches_a_fresh_bind() {
        let (model, data, _) = trained_mlp();
        let qm = quantize_model(&model, data.inputs(), &CalibConfig::default());
        let specs = [SiteSpec::AllParams, layer("fc1"), layer("fc2")];
        assert_rescoped_matches_bind(&qm, &data, &specs);
    }

    #[test]
    fn clean_config_reproduces_golden_error() {
        let (mut qfm, _) = setup(0.01);
        assert!((0.0..=1.0).contains(&qfm.golden_error()));
        let err = QuantFaultyModel::eval_error(&mut qfm, &FaultConfig::clean());
        assert_eq!(err, qfm.golden_error());
    }

    #[test]
    fn evaluation_restores_the_quantized_storage() {
        let (mut qfm, mut rng) = setup(0.05);
        let cfg = FaultWorkload::sample_config(&qfm, &mut rng);
        let before = QuantFaultyModel::eval_error(&mut qfm, &FaultConfig::clean());
        let _ = QuantFaultyModel::eval_error(&mut qfm, &cfg);
        let after = QuantFaultyModel::eval_error(&mut qfm, &FaultConfig::clean());
        assert_eq!(before, after, "storage not restored after faulty eval");
    }

    #[test]
    fn incremental_eval_matches_cold_run_bitwise() {
        let (mut qfm, mut rng) = setup(0.02);
        for _ in 0..5 {
            let cfg = FaultWorkload::sample_config(&qfm, &mut rng);
            let inc = qfm.eval_logits(&cfg);
            let mut cold_model = qfm.model.clone();
            cold_model.apply(&cfg);
            let cold = cold_model.predict_all(qfm.eval.inputs(), 64);
            let ib: Vec<u32> = inc.data().iter().map(|v| v.to_bits()).collect();
            let cb: Vec<u32> = cold.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(ib, cb, "incremental logits diverge from cold run");
        }
    }

    #[test]
    fn sites_carry_reprs_and_prior_matches() {
        let (qfm, mut rng) = setup(0.01);
        assert!(FaultWorkload::sites(&qfm)
            .params
            .iter()
            .any(|s| s.repr == Repr::I8));
        let cfg = FaultWorkload::sample_config(&qfm, &mut rng);
        let direct = cfg
            .log_prob(&qfm.sites().params, qfm.fault_model().as_ref())
            .unwrap();
        assert_eq!(FaultWorkload::prior_log_prob(&qfm, &cfg), direct);
    }

    #[test]
    fn mismatch_is_zero_for_clean_config() {
        let (mut qfm, _) = setup(0.01);
        let mm = qfm.eval_mismatch(&FaultConfig::clean());
        assert!(mm.iter().all(|&b| !b));
    }
}
