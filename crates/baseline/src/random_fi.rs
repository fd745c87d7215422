//! Traditional random fault injection — the TensorFI / debugger-level
//! style of campaign BDLFI is compared against (paper refs \[1\], [3], [4]).
//!
//! Each injection run: pick a fault (by default a single uniformly chosen
//! bit across the selected sites, the classical model), apply it, execute
//! the workload once, record whether the output was corrupted, restore.
//! The campaign reports an SDC rate with frequentist confidence intervals
//! and has no notion of completeness beyond the injection budget — the
//! methodological gap the paper targets.

use crate::estimator::{estimate_proportion, ProportionEstimate};
use bdlfi::checkpoint::journal_fingerprint;
use bdlfi::engine::{EngineError, EvalEngine, EvalSink, RunControl, RunMeta};
use bdlfi_data::Dataset;
use bdlfi_faults::{resolve_sites, FaultConfig, FaultModel, SingleBitFlip, SiteSpec};
use bdlfi_nn::predict_all;
use bdlfi_nn::Sequential;
use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of a traditional random-FI campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomFiConfig {
    /// Number of injection runs.
    pub injections: usize,
    /// RNG seed; injection `i` draws from `seed_stream(seed, i)`.
    pub seed: u64,
    /// Confidence level for the reported intervals.
    pub level: f64,
    /// Worker threads for injection runs (0 = all available cores).
    /// Results are bit-identical at every worker count.
    pub workers: usize,
}

impl Default for RandomFiConfig {
    fn default() -> Self {
        RandomFiConfig {
            injections: 100,
            seed: 42,
            level: 0.95,
            workers: 0,
        }
    }
}

/// The outcome of a traditional campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomFiResult {
    /// Number of injection runs performed.
    pub injections: usize,
    /// Runs whose prediction changed on at least one evaluation input
    /// (silent data corruption).
    pub sdc: ProportionEstimate,
    /// Mean classification error (vs. labels) across injected runs.
    pub mean_error: f64,
    /// Golden (fault-free) classification error.
    pub golden_error: f64,
    /// Per-run classification errors, in injection order.
    pub errors: Vec<f64>,
    /// Engine execution metadata (worker count, wall-clock, injections/sec).
    pub run_meta: RunMeta,
}

/// A traditional random fault injector bound to a model and workload.
///
/// The network, evaluation set and golden run are shared between an
/// injector and its [`RandomFi::rescoped`] copies.
pub struct RandomFi {
    model: Arc<Sequential>,
    eval: Arc<Dataset>,
    sites: bdlfi_faults::ResolvedSites,
    fault_model: Arc<dyn FaultModel>,
    // Classical mode: exactly one uniformly chosen bit per run.
    single_bit: bool,
    golden_preds: Arc<Vec<usize>>,
    golden_error: f64,
}

impl std::fmt::Debug for RandomFi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RandomFi")
            .field("sites", &self.sites.params.len())
            .field("eval_examples", &self.eval.len())
            .finish()
    }
}

impl RandomFi {
    /// Creates an injector with the classical single-bit-flip model.
    pub fn new(model: Sequential, eval: Arc<Dataset>, spec: &SiteSpec) -> Self {
        let mut fi = Self::with_fault_model(model, eval, spec, Arc::new(SingleBitFlip::new()));
        fi.single_bit = true;
        fi
    }

    /// Creates an injector with an explicit fault model (e.g. the paper's
    /// Bernoulli model, for apples-to-apples comparisons with BDLFI).
    ///
    /// # Panics
    ///
    /// Panics if the spec resolves to no parameter sites or the dataset is
    /// empty.
    pub fn with_fault_model(
        mut model: Sequential,
        eval: Arc<Dataset>,
        spec: &SiteSpec,
        fault_model: Arc<dyn FaultModel>,
    ) -> Self {
        assert!(!eval.is_empty(), "evaluation set must not be empty");
        let sites = resolve_sites(&model, spec);
        assert!(
            !sites.params.is_empty(),
            "traditional FI requires parameter sites (activations are not memory-resident)"
        );
        let golden_logits = predict_all(&mut model, eval.inputs(), 64);
        let golden_preds = golden_logits.argmax_rows();
        let golden_error = bdlfi_nn::metrics::classification_error(&golden_logits, eval.labels());
        RandomFi {
            model: Arc::new(model),
            eval,
            sites,
            fault_model,
            single_bit: false,
            golden_preds: Arc::new(golden_preds),
            golden_error,
        }
    }

    /// The same injector over the sites selected by `spec`: only the sites
    /// are resolved again, while the network, evaluation set, fault model
    /// and golden run are shared — so a per-layer study binds the golden
    /// run once instead of once per layer.
    ///
    /// # Panics
    ///
    /// Panics if the spec resolves to no parameter sites.
    pub fn rescoped(&self, spec: &SiteSpec) -> RandomFi {
        let sites = resolve_sites(&self.model, spec);
        assert!(
            !sites.params.is_empty(),
            "traditional FI requires parameter sites (activations are not memory-resident)"
        );
        RandomFi {
            model: Arc::clone(&self.model),
            eval: Arc::clone(&self.eval),
            sites,
            fault_model: Arc::clone(&self.fault_model),
            single_bit: self.single_bit,
            golden_preds: Arc::clone(&self.golden_preds),
            golden_error: self.golden_error,
        }
    }

    /// The golden-run classification error.
    pub fn golden_error(&self) -> f64 {
        self.golden_error
    }

    /// Runs the campaign through the shared evaluation engine: each worker
    /// injects into its own clone of the model, injection `i` samples its
    /// fault from seed-stream `i`, and results aggregate in injection
    /// order — so the report is identical at every worker count. With a
    /// journal in `ctl`, each completed injection is one entry, in
    /// injection order.
    ///
    /// # Errors
    ///
    /// [`EngineError::Interrupted`] on a cooperative stop, plus
    /// journal/sink failures.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.injections == 0`.
    pub fn run(
        &self,
        cfg: &RandomFiConfig,
        ctl: &RunControl,
    ) -> Result<RandomFiResult, EngineError> {
        assert!(cfg.injections > 0, "campaign needs at least one injection");

        struct Tally {
            sdc_count: u64,
            errors: Vec<f64>,
        }
        impl EvalSink<(bool, f64)> for Tally {
            fn accept(
                &mut self,
                _task_id: usize,
                (corrupted, error): (bool, f64),
            ) -> Result<(), EngineError> {
                self.sdc_count += u64::from(corrupted);
                self.errors.push(error);
                Ok(())
            }
        }

        let mut tally = Tally {
            sdc_count: 0,
            errors: Vec::with_capacity(cfg.injections),
        };
        let engine = EvalEngine::with_workers(cfg.seed, cfg.workers);
        let ctl = ctl.or_fingerprint(|| {
            journal_fingerprint("random_fi", "", &(cfg, self.single_bit, self.golden_error))
        });
        let run_meta = engine.run_checkpointed(
            cfg.injections,
            || Sequential::clone(&self.model),
            |model, ctx| {
                let fault = self.sample_injection(&mut ctx.rng);
                fault.apply(model);
                let logits = predict_all(model, self.eval.inputs(), 64);
                fault.apply(model); // restore (XOR involution)

                let corrupted = logits
                    .argmax_rows()
                    .iter()
                    .zip(self.golden_preds.iter())
                    .any(|(a, b)| a != b);
                let error = bdlfi_nn::metrics::classification_error(&logits, self.eval.labels());
                Ok((corrupted, error))
            },
            &mut tally,
            &ctl,
        )?;

        Ok(RandomFiResult {
            injections: cfg.injections,
            sdc: estimate_proportion(tally.sdc_count, cfg.injections as u64, cfg.level),
            mean_error: tally.errors.iter().sum::<f64>() / tally.errors.len() as f64,
            golden_error: self.golden_error,
            errors: tally.errors,
            run_meta,
        })
    }

    /// One injection: under the single-bit model, a uniformly chosen
    /// `(site, element, bit)`; other models sample per-site masks exactly
    /// as BDLFI's prior does.
    fn sample_injection(&self, rng: &mut StdRng) -> FaultConfig {
        // Classical single-bit flip: uniform over the flat element space.
        if self.single_bit {
            let total: usize = self.sites.params.iter().map(|s| s.len).sum();
            let mut flat = rng.random_range(0..total);
            for site in &self.sites.params {
                if flat < site.len {
                    let mut cfg = FaultConfig::clean();
                    let mask = self.fault_model.sample_mask(site.len, rng);
                    // Re-anchor the sampled single flip to the chosen element
                    // so the choice is uniform across the *whole* space.
                    let bit_pattern = mask.entries().first().map(|&(_, m)| m).unwrap_or(1);
                    let mut anchored = bdlfi_faults::FaultMask::empty();
                    for b in 0..32u8 {
                        if bit_pattern & (1 << b) != 0 {
                            anchored.push_bit(flat, b);
                        }
                    }
                    cfg.set_mask(&site.path, anchored);
                    return cfg;
                }
                flat -= site.len;
            }
            // bdlfi-lint: allow(BD010) -- unreachable by construction: `flat` was drawn below the summed site lengths the loop subtracts
            unreachable!("flat index within total");
        }
        FaultConfig::sample(&self.sites.params, self.fault_model.as_ref(), rng)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bdlfi_data::gaussian_blobs;
    use bdlfi_faults::BernoulliBitFlip;
    use bdlfi_nn::{mlp, optim::Sgd, TrainConfig, Trainer};
    use rand::SeedableRng;

    fn trained() -> (Sequential, Arc<Dataset>) {
        let mut rng = StdRng::seed_from_u64(0);
        let data = gaussian_blobs(200, 3, 0.5, &mut rng);
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

    /// Every field of a result except the run's timing metadata, as bits.
    pub(crate) fn result_bits(r: &RandomFiResult) -> (usize, u64, u64, u64, Vec<u64>) {
        (
            r.injections,
            r.sdc.rate.to_bits(),
            r.mean_error.to_bits(),
            r.golden_error.to_bits(),
            r.errors.iter().map(|e| e.to_bits()).collect(),
        )
    }

    #[test]
    fn rescoped_injector_equals_a_fresh_one() {
        let (model, eval) = trained();
        let bound = RandomFi::new(model.clone(), Arc::clone(&eval), &SiteSpec::AllParams);
        let cfg = RandomFiConfig {
            injections: 40,
            seed: 9,
            level: 0.95,
            workers: 1,
        };
        for prefix in ["fc1", "fc2"] {
            let spec = SiteSpec::LayerParams {
                prefix: prefix.into(),
            };
            let fresh = RandomFi::new(model.clone(), Arc::clone(&eval), &spec);
            let rescoped = bound.rescoped(&spec);
            assert_eq!(
                rescoped.golden_error.to_bits(),
                fresh.golden_error.to_bits()
            );
            assert_eq!(rescoped.golden_preds, fresh.golden_preds);
            assert_eq!(rescoped.sites, fresh.sites);
            assert_eq!(rescoped.single_bit, fresh.single_bit);
            let a = rescoped.run(&cfg, &RunControl::new()).unwrap();
            let b = fresh.run(&cfg, &RunControl::new()).unwrap();
            assert_eq!(result_bits(&a), result_bits(&b), "{prefix}");
        }
    }

    #[test]
    fn campaign_reports_consistent_counts() {
        let (model, eval) = trained();
        let fi = RandomFi::new(model, eval, &SiteSpec::AllParams);
        let res = fi
            .run(
                &RandomFiConfig {
                    injections: 50,
                    seed: 1,
                    level: 0.95,
                    workers: 0,
                },
                &RunControl::new(),
            )
            .unwrap();
        assert_eq!(res.injections, 50);
        assert_eq!(res.errors.len(), 50);
        assert_eq!(res.sdc.trials, 50);
        assert!(res.sdc.rate >= 0.0 && res.sdc.rate <= 1.0);
        assert!((0.0..=1.0).contains(&res.mean_error));
        assert_eq!(res.run_meta.tasks, 50);
    }

    #[test]
    fn model_is_restored_between_injections() {
        let (model, eval) = trained();
        let fi = RandomFi::new(model, eval, &SiteSpec::AllParams);
        let golden = fi.golden_error();
        let _ = fi
            .run(
                &RandomFiConfig {
                    injections: 30,
                    seed: 2,
                    level: 0.95,
                    workers: 0,
                },
                &RunControl::new(),
            )
            .unwrap();
        // Rerunning the golden evaluation must give the same error.
        let logits = predict_all(&mut Sequential::clone(&fi.model), fi.eval.inputs(), 64);
        let err = bdlfi_nn::metrics::classification_error(&logits, fi.eval.labels());
        assert_eq!(err, golden);
    }

    #[test]
    fn campaign_is_reproducible_under_seed() {
        let (model, eval) = trained();
        let fi = RandomFi::new(model.clone(), Arc::clone(&eval), &SiteSpec::AllParams);
        let a = fi
            .run(
                &RandomFiConfig {
                    injections: 25,
                    seed: 3,
                    level: 0.95,
                    workers: 0,
                },
                &RunControl::new(),
            )
            .unwrap();
        let fi2 = RandomFi::new(model, eval, &SiteSpec::AllParams);
        let b = fi2
            .run(
                &RandomFiConfig {
                    injections: 25,
                    seed: 3,
                    level: 0.95,
                    workers: 0,
                },
                &RunControl::new(),
            )
            .unwrap();
        assert_eq!(a.errors, b.errors);
        assert_eq!(a.sdc.successes, b.sdc.successes);
    }

    #[test]
    fn campaign_is_worker_count_invariant() {
        let (model, eval) = trained();
        let fi = RandomFi::new(model, eval, &SiteSpec::AllParams);
        let run_with = |workers: usize| {
            fi.run(
                &RandomFiConfig {
                    injections: 25,
                    seed: 6,
                    level: 0.95,
                    workers,
                },
                &RunControl::new(),
            )
            .unwrap()
        };
        let serial = run_with(1);
        let parallel = run_with(3);
        assert_eq!(serial.errors, parallel.errors);
        assert_eq!(serial.sdc.successes, parallel.sdc.successes);
        assert_eq!(serial.mean_error, parallel.mean_error);
        assert_eq!(parallel.run_meta.workers, 3);
    }

    #[test]
    fn bernoulli_model_matches_single_bit_statistics_loosely() {
        // With the Bernoulli model at tiny p the mean error stays near the
        // golden run; single-bit flips produce some SDCs.
        let (model, eval) = trained();
        let bern = RandomFi::with_fault_model(
            model.clone(),
            Arc::clone(&eval),
            &SiteSpec::AllParams,
            Arc::new(BernoulliBitFlip::new(1e-6)),
        );
        let res = bern
            .run(
                &RandomFiConfig {
                    injections: 40,
                    seed: 4,
                    level: 0.95,
                    workers: 0,
                },
                &RunControl::new(),
            )
            .unwrap();
        assert!((res.mean_error - res.golden_error).abs() < 0.05);
    }

    #[test]
    fn single_bit_injections_flip_exactly_one_bit() {
        let (model, eval) = trained();
        let fi = RandomFi::new(model, eval, &SiteSpec::AllParams);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let cfg = fi.sample_injection(&mut rng);
            assert_eq!(cfg.total_flips(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "parameter sites")]
    fn activation_only_spec_rejected() {
        let (model, eval) = trained();
        RandomFi::new(model, eval, &SiteSpec::Activations(vec!["fc1".into()]));
    }
}
