//! The fault-injected network: a golden model plus a joint fault
//! configuration (paper Fig. 1 ① + ②), evaluated on a fixed dataset.
//!
//! `FaultyModel` is the bridge between the probabilistic machinery and the
//! network substrate: it turns a [`FaultConfig`] (the MCMC state) into the
//! scalar statistics BDLFI infers distributions over — classification
//! error against labels (Figs. 2–4) and prediction mismatch against the
//! golden run (the Fig. 1 ③ boundary map).

use crate::delta::{forward_delta_f32, DeltaStats, DENSIFY_THRESHOLD};
use bdlfi_data::Dataset;
use bdlfi_faults::{resolve_sites, FaultConfig, FaultModel, ResolvedSites, SiteSpec};
use bdlfi_nn::{predict_batched, PrefixCache, Sequential};
use bdlfi_tensor::Tensor;
use rand::Rng;
use std::sync::Arc;

/// A golden network bound to an evaluation set and a fault model over a
/// resolved set of injection sites.
///
/// Cloning a `FaultyModel` clones the network (each MCMC chain owns one),
/// while the evaluation data, fault model and golden prefix-activation
/// cache are shared. [`crate::FaultWorkload::rescoped`] moves the same
/// golden run to other sites without repeating it.
#[derive(Clone)]
pub struct FaultyModel {
    model: Sequential,
    eval: Arc<Dataset>,
    sites: ResolvedSites,
    fault_model: Arc<dyn FaultModel>,
    batch_size: usize,
    golden_preds: Arc<Vec<usize>>,
    golden_error: f64,
    /// Golden activations at every top-level layer boundary: evaluating a
    /// parameter-fault configuration re-runs only the suffix from its first
    /// dirty layer. `None` only when transient (activation/input) sites are
    /// configured, which force full re-runs anyway.
    prefix: Option<Arc<PrefixCache>>,
    /// Sparse-delta hit/fallback counters, shared across clones so a
    /// campaign's workers aggregate into one pair drivers can stamp into
    /// [`crate::engine::RunMeta`].
    delta_stats: Arc<DeltaStats>,
    /// Gate for the sparse-delta path; `true` by default. Disable to force
    /// every evaluation through the incremental dense path (equivalence
    /// tests diff the two).
    delta_enabled: bool,
}

impl std::fmt::Debug for FaultyModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyModel")
            .field("param_sites", &self.sites.params.len())
            .field("activation_sites", &self.sites.activations.len())
            .field("eval_examples", &self.eval.len())
            .field("golden_error", &self.golden_error)
            .finish()
    }
}

impl FaultyModel {
    /// Binds a trained model to an evaluation set and fault model over the
    /// sites selected by `spec`.
    ///
    /// The golden predictions and golden ("fault-free") classification
    /// error are computed once here.
    ///
    /// # Panics
    ///
    /// Panics if the spec resolves to nothing or the dataset is empty.
    pub fn new(
        mut model: Sequential,
        eval: Arc<Dataset>,
        spec: &SiteSpec,
        fault_model: Arc<dyn FaultModel>,
    ) -> Self {
        assert!(!eval.is_empty(), "evaluation set must not be empty");
        let sites = resolve_sites(&model, spec);
        assert!(
            !sites.is_empty(),
            "site spec resolved to no injection sites"
        );

        let batch_size = 64;
        // Transient sites resample faults inside every forward pass, so no
        // prefix of the network is reusable; only build the cache when all
        // sites are (persistent) parameter faults.
        let (golden_logits, prefix) = if is_transient(&sites) {
            let logits = predict_batched(&mut model, eval.inputs(), batch_size, &mut |_, _| {});
            (logits, None)
        } else {
            let cache = PrefixCache::build(&mut model, eval.inputs(), batch_size);
            (cache.golden_logits(), Some(Arc::new(cache)))
        };
        let golden_preds = Arc::new(golden_logits.argmax_rows());
        let golden_error = bdlfi_nn::metrics::classification_error(&golden_logits, eval.labels());

        FaultyModel {
            model,
            eval,
            sites,
            fault_model,
            batch_size,
            golden_preds,
            golden_error,
            prefix,
            delta_stats: Arc::new(DeltaStats::default()),
            delta_enabled: true,
        }
    }

    /// [`crate::FaultWorkload::rescoped`]: the prefix cache is shared,
    /// dropped for transient sites, and built only when a transient
    /// binding is rescoped to parameter sites; the delta gate is kept.
    ///
    /// # Panics
    ///
    /// Panics if the spec resolves to nothing.
    pub(crate) fn rescoped(&self, spec: &SiteSpec, fault_model: Arc<dyn FaultModel>) -> Self {
        let sites = resolve_sites(&self.model, spec);
        assert!(
            !sites.is_empty(),
            "site spec resolved to no injection sites"
        );
        let mut fm = FaultyModel {
            sites,
            fault_model,
            delta_stats: Arc::new(DeltaStats::default()),
            ..self.clone()
        };
        if is_transient(&fm.sites) {
            fm.prefix = None;
        } else if fm.prefix.is_none() {
            let cache = PrefixCache::build(&mut fm.model, fm.eval.inputs(), fm.batch_size);
            fm.prefix = Some(Arc::new(cache));
        }
        fm
    }

    /// Enables or disables the sparse-delta path (on by default). With it
    /// off, every evaluation takes the incremental dense path; results are
    /// bit-identical either way.
    pub fn set_delta_enabled(&mut self, enabled: bool) {
        self.delta_enabled = enabled;
    }

    /// `(hits, fallbacks)` of the sparse-delta path, aggregated across all
    /// clones of this model (chains share the counters).
    pub fn delta_counters(&self) -> (u64, u64) {
        self.delta_stats.counters()
    }

    /// The resolved parameter injection sites.
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

    /// Classification error of the fault-free network on the evaluation
    /// set — the paper's "golden run" line in Figs. 2 and 4.
    pub fn golden_error(&self) -> f64 {
        self.golden_error
    }

    /// The golden network's predictions on the evaluation set.
    pub fn golden_preds(&self) -> &[usize] {
        &self.golden_preds
    }

    /// Samples a fault configuration from the prior over the parameter
    /// sites.
    pub fn sample_config(&self, rng: &mut dyn Rng) -> FaultConfig {
        FaultConfig::sample(&self.sites.params, self.fault_model.as_ref(), rng)
    }

    /// Joint prior log-probability of a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the fault model defines no density.
    pub fn prior_log_prob(&self, cfg: &FaultConfig) -> f64 {
        cfg.log_prob(&self.sites.params, self.fault_model.as_ref())
            .expect("fault model must define a density for MCMC targets")
    }

    /// Evaluates the faulty network's logits over the whole evaluation set.
    ///
    /// Parameter faults come from `cfg`; activation faults (if any
    /// activation sites are configured) are freshly sampled per forward
    /// pass — transient faults do not persist across inferences.
    ///
    /// When only parameter sites are configured, inference first tries the
    /// sparse-delta path (recompute the touched columns, propagate only the
    /// deviating rows — see [`crate::delta`]), falling back to resuming
    /// from the golden prefix-activation cache at `cfg`'s first dirty
    /// layer when the configuration is not column-confined. Both paths are
    /// bit-identical to the cold run. Transient (activation or input)
    /// sites force the full tapped pass.
    pub fn eval_logits(&mut self, cfg: &FaultConfig, rng: &mut dyn Rng) -> Tensor {
        if let Some(prefix) = &self.prefix {
            let prefix = Arc::clone(prefix);
            cfg.apply(&mut self.model);
            // Sparse-delta first: column-confined configurations recompute
            // only the touched columns plus the surviving dirty rows. A
            // `None` means the planner refused (not column-confined) and
            // the exact incremental suffix path runs instead; both are
            // bit-identical to a cold dense pass.
            let logits = if self.delta_enabled {
                forward_delta_f32(&mut self.model, &prefix, cfg, DENSIFY_THRESHOLD)
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
                    let start = cfg
                        .first_dirty_layer(&self.model)
                        .unwrap_or_else(|| self.model.len());
                    prefix.predict_from(&mut self.model, start)
                }
            };
            cfg.apply(&mut self.model);
            return logits;
        }
        // Transient sites: no reusable prefix, so the delta path can never
        // fire — count the forced full pass as a fallback.
        if self.delta_enabled {
            self.delta_stats.record_fallback();
        }

        let activations = &self.sites.activations;
        let inject_input = self.sites.input;
        let fault_model = Arc::clone(&self.fault_model);
        let batch = self.batch_size;
        let inputs = Arc::clone(&self.eval);
        cfg.apply(&mut self.model);
        // The tap fires with an empty path for the batch input itself
        // (before the first layer), then with each layer's path.
        let logits = predict_batched(&mut self.model, inputs.inputs(), batch, &mut |path, t| {
            let hit = if path.is_empty() {
                inject_input
            } else {
                activations.iter().any(|a| a == path)
            };
            if hit {
                let mask = fault_model.sample_mask(t.len(), rng);
                mask.apply(t);
            }
        });
        cfg.apply(&mut self.model);
        logits
    }

    /// Classification error (vs. true labels) of the faulty network — the
    /// statistic of Figs. 2 and 4.
    pub fn eval_error(&mut self, cfg: &FaultConfig, rng: &mut dyn Rng) -> f64 {
        let logits = self.eval_logits(cfg, rng);
        bdlfi_nn::metrics::classification_error(&logits, self.eval.labels())
    }

    /// Per-example indicator of *prediction mismatch* against the golden
    /// run — the quantity the Fig. 1 ③ boundary map integrates per input
    /// point.
    pub fn eval_mismatch(&mut self, cfg: &FaultConfig, rng: &mut dyn Rng) -> Vec<bool> {
        let logits = self.eval_logits(cfg, rng);
        golden_mismatch(&logits, &self.golden_preds)
    }
}

/// Per-row indicator that `logits` predicts another class than `golden`.
fn golden_mismatch(logits: &Tensor, golden: &[usize]) -> Vec<bool> {
    logits
        .argmax_rows()
        .into_iter()
        .zip(golden)
        .map(|(f, &g)| f != g)
        .collect()
}

/// Whether `sites` include transient (activation or input) sites.
fn is_transient(sites: &ResolvedSites) -> bool {
    !sites.activations.is_empty() || sites.input
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdlfi_data::gaussian_blobs;
    use bdlfi_faults::BernoulliBitFlip;
    use bdlfi_nn::mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(p: f64) -> (FaultyModel, StdRng) {
        use bdlfi_nn::{optim::Sgd, TrainConfig, Trainer};
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
        let fm = FaultyModel::new(
            model,
            data,
            &SiteSpec::AllParams,
            Arc::new(BernoulliBitFlip::new(p)),
        );
        (fm, rng)
    }

    #[test]
    fn golden_error_is_deterministic_and_bounded() {
        let (fm, _) = setup(0.01);
        assert!((0.0..=1.0).contains(&fm.golden_error()));
        let (fm2, _) = setup(0.01);
        assert_eq!(fm.golden_error(), fm2.golden_error());
        assert_eq!(fm.golden_preds(), fm2.golden_preds());
    }

    #[test]
    fn clean_config_reproduces_golden_error() {
        let (mut fm, mut rng) = setup(0.01);
        let err = fm.eval_error(&FaultConfig::clean(), &mut rng);
        assert_eq!(err, fm.golden_error());
    }

    #[test]
    fn evaluation_restores_the_model() {
        let (mut fm, mut rng) = setup(0.05);
        let cfg = fm.sample_config(&mut rng);
        let before = fm.eval_error(&FaultConfig::clean(), &mut rng);
        let _ = fm.eval_error(&cfg, &mut rng);
        let after = fm.eval_error(&FaultConfig::clean(), &mut rng);
        assert_eq!(before, after, "weights not restored after faulty eval");
    }

    #[test]
    fn heavy_faults_degrade_error() {
        let (mut fm, mut rng) = setup(0.05);
        // Average over a few configs: heavy faults should hurt vs golden.
        let mut total = 0.0;
        for _ in 0..10 {
            let cfg = fm.sample_config(&mut rng);
            total += fm.eval_error(&cfg, &mut rng);
        }
        assert!(total / 10.0 > fm.golden_error());
    }

    #[test]
    fn mismatch_is_zero_for_clean_config() {
        let (mut fm, mut rng) = setup(0.01);
        let mm = fm.eval_mismatch(&FaultConfig::clean(), &mut rng);
        assert!(mm.iter().all(|&b| !b));
    }

    #[test]
    fn prior_log_prob_matches_fault_config() {
        let (fm, mut rng) = setup(0.01);
        let cfg = fm.sample_config(&mut rng);
        let direct = cfg
            .log_prob(&fm.sites().params, fm.fault_model().as_ref())
            .unwrap();
        assert_eq!(fm.prior_log_prob(&cfg), direct);
    }

    #[test]
    fn activation_sites_inject_transiently() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = Arc::new(gaussian_blobs(50, 2, 0.5, &mut rng));
        let model = mlp(2, &[8], 2, &mut rng);
        let mut fm = FaultyModel::new(
            model,
            data,
            &SiteSpec::Activations(vec!["fc1".into()]),
            Arc::new(BernoulliBitFlip::new(0.02)),
        );
        // Clean parameter config, but activation faults still fire.
        let e1 = fm.eval_error(&FaultConfig::clean(), &mut rng);
        let e2 = fm.eval_error(&FaultConfig::clean(), &mut rng);
        // Different RNG draws -> (almost surely) different transient errors
        // across repeated evaluations; both bounded.
        assert!((0.0..=1.0).contains(&e1));
        assert!((0.0..=1.0).contains(&e2));
        // And the golden error is recovered with a zero-probability model.
        let mut clean_fm = FaultyModel::new(
            {
                let mut r = StdRng::seed_from_u64(1);
                let _ = gaussian_blobs(50, 2, 0.5, &mut r);
                mlp(2, &[8], 2, &mut r)
            },
            Arc::new(gaussian_blobs(50, 2, 0.5, &mut StdRng::seed_from_u64(99))),
            &SiteSpec::Activations(vec!["fc1".into()]),
            Arc::new(BernoulliBitFlip::new(0.0)),
        );
        let e = clean_fm.eval_error(&FaultConfig::clean(), &mut rng);
        assert_eq!(e, clean_fm.golden_error());
    }

    #[test]
    fn logit_statistics_ignore_nan_sign_and_payload() {
        // The f32 kernel variants may disagree on which NaN survives a sum
        // of two different NaNs; every statistic a journal records from
        // logits must read all NaNs alike for journals to stay independent
        // of `BDLFI_KERNEL`.
        let nans = [
            0x7fc0_0000u32,
            0xffc0_0000,
            0x7fc0_0001,
            0xffa0_0000,
            0x7f80_0001,
        ]
        .map(f32::from_bits);
        let with_nans = |shift: usize| {
            let mut slot = 0;
            let data = [
                [f32::NAN, 1.0, 2.0],
                [1.0, f32::NAN, 0.5],
                [0.0, 1.0, f32::NAN],
                [f32::NAN, f32::NAN, f32::NAN],
                [f32::NAN, 3.0, f32::NAN],
                [0.5, f32::INFINITY, 0.25],
            ]
            .concat()
            .into_iter()
            .map(|v| {
                if v.is_nan() {
                    slot += 1;
                    nans[(slot + shift) % nans.len()]
                } else {
                    v
                }
            })
            .collect();
            Tensor::from_vec(data, [6, 3])
        };
        let labels = [2, 0, 1, 0, 1, 1];
        let golden = [2, 1, 0, 0, 1, 2];
        let stats = |logits: &Tensor| {
            (
                logits.argmax_rows(),
                bdlfi_nn::metrics::classification_error(logits, &labels).to_bits(),
                golden_mismatch(logits, &golden),
            )
        };
        let want = stats(&with_nans(0));
        for shift in 1..nans.len() {
            let logits = with_nans(shift);
            assert_ne!(logits.data()[0].to_bits(), with_nans(0).data()[0].to_bits());
            assert_eq!(stats(&logits), want, "NaN patterns shifted by {shift}");
        }
    }

    #[test]
    fn incremental_eval_matches_cold_forward_bitwise() {
        let (mut fm, mut rng) = setup(0.02);
        assert!(
            fm.prefix.is_some(),
            "param-only sites should enable the cache"
        );
        let inputs = Arc::clone(&fm.eval);
        let batch = fm.batch_size;
        for _ in 0..5 {
            let cfg = fm.sample_config(&mut rng);
            let inc = fm.eval_logits(&cfg, &mut rng);
            let cold = cfg.with_applied(&mut fm.model, |m| {
                predict_batched(m, inputs.inputs(), batch, &mut |_, _| {})
            });
            let ib: Vec<u32> = inc.data().iter().map(|v| v.to_bits()).collect();
            let cb: Vec<u32> = cold.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(ib, cb, "incremental logits diverge from cold run");
        }
    }

    #[test]
    fn layer_scoped_sites_resume_mid_network() {
        use bdlfi_nn::{optim::Sgd, TrainConfig, Trainer};
        let mut rng = StdRng::seed_from_u64(3);
        let data = Arc::new(gaussian_blobs(60, 3, 0.5, &mut rng));
        let mut model = mlp(2, &[8, 8], 3, &mut rng);
        let mut trainer = Trainer::new(
            Sgd::new(0.1),
            TrainConfig {
                epochs: 5,
                batch_size: 16,
                ..TrainConfig::default()
            },
        );
        trainer.fit(&mut model, data.inputs(), data.labels(), &mut rng);
        // Faults scoped to the last dense layer: every config's first dirty
        // layer is deep, so the incremental path reuses most of the network.
        let mut fm = FaultyModel::new(
            model,
            data,
            &SiteSpec::LayerParams {
                prefix: "fc3".into(),
            },
            Arc::new(BernoulliBitFlip::new(0.05)),
        );
        let inputs = Arc::clone(&fm.eval);
        let batch = fm.batch_size;
        let cfg = loop {
            let c = fm.sample_config(&mut rng);
            if !c.is_clean() {
                break c;
            }
        };
        assert_eq!(cfg.first_dirty_layer(&fm.model), Some(4)); // fc1 relu1 fc2 relu2 fc3
        let inc = fm.eval_logits(&cfg, &mut rng);
        let cold = cfg.with_applied(&mut fm.model, |m| {
            predict_batched(m, inputs.inputs(), batch, &mut |_, _| {})
        });
        let ib: Vec<u32> = inc.data().iter().map(|v| v.to_bits()).collect();
        let cb: Vec<u32> = cold.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(ib, cb);
    }

    #[test]
    fn batched_prediction_matches_single_batch() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = mlp(2, &[4], 2, &mut rng);
        let x = Tensor::rand_normal([10, 2], 0.0, 1.0, &mut rng);
        let full = model.predict(&x);
        let batched = predict_batched(&mut model, &x, 3, &mut |_, _| {});
        assert!(full.approx_eq(&batched, 1e-6));
    }
}
