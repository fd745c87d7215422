//! Job specifications: the JSON surface of the daemon's submit endpoint.
//!
//! A [`JobSpec`] is everything needed to *deterministically reconstruct* a
//! campaign: the synthetic scenario (dataset seed, model architecture and
//! training seed, optional int8 quantization, fault sites and rate) plus
//! the driver to run over it. Determinism is what makes restart recovery
//! work — a restarted daemon rebuilds the identical workload from the
//! persisted spec, recomputes the same journal fingerprint, and resumes
//! the journal as if the process had never died.
//!
//! Everything here is validated *before* any driver runs: the drivers in
//! `bdlfi` assert on malformed inputs (they are library-boundary bugs
//! there), while the daemon must turn a bad request into a `400`, never a
//! dead worker. [`JobSpec::validate`] plus the site resolution checks in
//! [`build_workload`] together guarantee no driver assertion can fire on
//! a request path.

use bdlfi::{CampaignConfig, LayerBudget};
use bdlfi_data::{gaussian_blobs, Dataset};
use bdlfi_faults::SiteSpec;
use bdlfi_nn::optim::Sgd;
use bdlfi_nn::{mlp, Sequential, TrainConfig, Trainer};
use bdlfi_quant::{quantize_model, CalibConfig, QuantModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A malformed or unbuildable job specification. Always a client error
/// (HTTP 400), never a daemon failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid job spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// The synthetic dataset a job evaluates on (Gaussian blobs, the
/// repository's standard 2-D classification scenario).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Total examples generated before the train/eval split.
    pub examples: usize,
    /// Number of classes (= blob centers, = model outputs).
    pub classes: usize,
    /// Blob standard deviation.
    pub spread: f64,
    /// Seed for generation and the split shuffle.
    pub seed: u64,
    /// Fraction of examples in the training split, in (0, 1).
    pub train_frac: f64,
}

/// The MLP a job injects faults into, trained from scratch (seeded, so a
/// restarted daemon reproduces it bit for bit).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// SGD epochs; `0` skips training (fault tolerance of a random net).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f64,
    /// SGD momentum.
    pub momentum: f64,
    /// Seed for weight init and batch shuffling.
    pub seed: u64,
}

/// The full scenario: data + model + representation + fault model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Dataset generation parameters.
    pub dataset: DatasetSpec,
    /// Model architecture and training parameters.
    pub model: ModelSpec,
    /// Run the int8 post-training-quantized deployment of the model
    /// instead of the f32 one.
    pub quantized: bool,
    /// Which memory locations faults strike.
    pub sites: SiteSpec,
    /// Per-bit flip probability of the Bernoulli fault model (campaign
    /// and layerwise drivers; sweeps carry their own grid).
    pub flip_probability: f64,
}

/// Which campaign driver a job runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum DriverSpec {
    /// Fixed-budget MCMC campaign ([`bdlfi::run_campaign`]).
    Campaign {
        /// Chains, schedule, kernel, seed, criteria.
        config: CampaignConfig,
    },
    /// Segmented adaptive campaign that stops when the completeness
    /// criteria certify ([`bdlfi::run_campaign_adaptive`]).
    AdaptiveCampaign {
        /// Chains, segment schedule, kernel, seed, criteria.
        config: CampaignConfig,
        /// Per-chain sample budget across all segments.
        max_samples_per_chain: usize,
    },
    /// One campaign per flip probability ([`bdlfi::run_sweep`]).
    Sweep {
        /// The probability grid.
        ps: Vec<f64>,
        /// Per-point campaign configuration.
        config: CampaignConfig,
    },
    /// One campaign per layer ([`bdlfi::run_layerwise`]).
    Layerwise {
        /// Layer path prefixes, e.g. `["dense0", "dense1"]`.
        layers: Vec<String>,
        /// Per-layer fault budget.
        budget: LayerBudget,
        /// Per-layer campaign configuration.
        config: CampaignConfig,
    },
}

/// One slice of a distributed campaign: run only shard `index` of the
/// driver's task space split `count` ways (see [`bdlfi::shard`]). A
/// coordinator submits the same scenario + driver to `count` daemons with
/// `index` 0..count, collects each job's journal, and merges them with
/// `bdlfi-merge` (or [`bdlfi::merge_shards`]) into the byte-identical
/// single-process journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// This job's shard index, `0..count`.
    pub index: usize,
    /// Total shards the campaign is split into.
    pub count: usize,
}

/// One submittable job: scenario + driver, optionally restricted to one
/// shard of the task space.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSpec {
    /// What to inject faults into.
    pub scenario: ScenarioSpec,
    /// Which study to run over it.
    pub driver: DriverSpec,
    /// When set, run only this shard of the driver's task space. Absent
    /// (the default, and how every pre-shard spec file deserializes) runs
    /// the whole campaign.
    pub shard: Option<ShardSpec>,
}

/// Resource ceilings: a public daemon must bound what one request can ask
/// for. Generous for real studies, small enough that a single job cannot
/// wedge the pool for hours.
const MAX_EXAMPLES: usize = 100_000;
const MAX_HIDDEN_LAYERS: usize = 16;
const MAX_HIDDEN_WIDTH: usize = 4096;
const MAX_EPOCHS: usize = 1000;
const MAX_CHAINS: usize = 256;
const MAX_SAMPLES: usize = 100_000;
const MAX_SWEEP_POINTS: usize = 256;
const MAX_LAYERS: usize = 256;

impl JobSpec {
    /// The driver's campaign configuration (every driver carries one).
    #[must_use]
    pub fn config(&self) -> &CampaignConfig {
        match &self.driver {
            DriverSpec::Campaign { config }
            | DriverSpec::AdaptiveCampaign { config, .. }
            | DriverSpec::Sweep { config, .. }
            | DriverSpec::Layerwise { config, .. } => config,
        }
    }

    /// Mutable access to the driver's campaign configuration.
    pub fn config_mut(&mut self) -> &mut CampaignConfig {
        match &mut self.driver {
            DriverSpec::Campaign { config }
            | DriverSpec::AdaptiveCampaign { config, .. }
            | DriverSpec::Sweep { config, .. }
            | DriverSpec::Layerwise { config, .. } => config,
        }
    }

    /// The task count the driver's engine run will cover (chains, sweep
    /// points, layers; segment budget for adaptive campaigns).
    #[must_use]
    pub fn tasks(&self) -> usize {
        match &self.driver {
            DriverSpec::Campaign { config } => config.chains,
            DriverSpec::AdaptiveCampaign {
                config,
                max_samples_per_chain,
            } => max_samples_per_chain.div_ceil(config.chain.samples.max(1)),
            DriverSpec::Sweep { ps, .. } => ps.len(),
            DriverSpec::Layerwise { layers, .. } => layers.len(),
        }
    }

    /// Checks every range and structural invariant the drivers assert on,
    /// so nothing past this point can panic on malformed input.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the first violated constraint.
    pub fn validate(&self) -> Result<(), SpecError> {
        let err = |msg: String| Err(SpecError(msg));
        let s = &self.scenario;
        if s.dataset.examples < 8 || s.dataset.examples > MAX_EXAMPLES {
            return err(format!(
                "dataset.examples must be in 8..={MAX_EXAMPLES}, got {}",
                s.dataset.examples
            ));
        }
        if s.dataset.classes < 2 || s.dataset.classes > 64 {
            return err(format!(
                "dataset.classes must be in 2..=64, got {}",
                s.dataset.classes
            ));
        }
        if !(s.dataset.spread > 0.0 && s.dataset.spread.is_finite()) {
            return err(format!(
                "dataset.spread must be positive and finite, got {}",
                s.dataset.spread
            ));
        }
        if !(s.dataset.train_frac > 0.0 && s.dataset.train_frac < 1.0) {
            return err(format!(
                "dataset.train_frac must be in (0, 1), got {}",
                s.dataset.train_frac
            ));
        }
        if s.model.hidden.len() > MAX_HIDDEN_LAYERS {
            return err(format!(
                "model.hidden has {} layers, max {MAX_HIDDEN_LAYERS}",
                s.model.hidden.len()
            ));
        }
        if s.model
            .hidden
            .iter()
            .any(|&w| w == 0 || w > MAX_HIDDEN_WIDTH)
        {
            return err(format!(
                "model.hidden widths must be in 1..={MAX_HIDDEN_WIDTH}"
            ));
        }
        if s.model.epochs > MAX_EPOCHS {
            return err(format!("model.epochs must be <= {MAX_EPOCHS}"));
        }
        if s.model.epochs > 0 && s.model.batch_size == 0 {
            return err("model.batch_size must be positive when training".to_string());
        }
        if !(s.model.lr.is_finite() && s.model.lr > 0.0) {
            return err(format!("model.lr must be positive, got {}", s.model.lr));
        }
        if !(s.model.momentum.is_finite() && (0.0..1.0).contains(&s.model.momentum)) {
            return err(format!(
                "model.momentum must be in [0, 1), got {}",
                s.model.momentum
            ));
        }
        if !(0.0..=1.0).contains(&s.flip_probability) || !s.flip_probability.is_finite() {
            return err(format!(
                "flip_probability must be in [0, 1], got {}",
                s.flip_probability
            ));
        }
        if s.quantized && matches!(s.sites, SiteSpec::Activations(_) | SiteSpec::Input) {
            return err(
                "quantized scenarios support parameter sites only (activations/input are \
                 transient f32 sites)"
                    .to_string(),
            );
        }

        let cfg = self.config();
        if cfg.chains == 0 || cfg.chains > MAX_CHAINS {
            return err(format!(
                "config.chains must be in 1..={MAX_CHAINS}, got {}",
                cfg.chains
            ));
        }
        if cfg.chain.samples == 0 || cfg.chain.samples > MAX_SAMPLES {
            return err(format!(
                "config.chain.samples must be in 1..={MAX_SAMPLES}, got {}",
                cfg.chain.samples
            ));
        }
        if cfg.chain.burn_in > MAX_SAMPLES {
            return err(format!("config.chain.burn_in must be <= {MAX_SAMPLES}"));
        }
        if cfg.chain.thin == 0 {
            return err("config.chain.thin must be positive".to_string());
        }
        match &self.driver {
            DriverSpec::Campaign { .. } => {}
            DriverSpec::AdaptiveCampaign {
                config,
                max_samples_per_chain,
            } => {
                if *max_samples_per_chain < config.chain.samples {
                    return err(format!(
                        "max_samples_per_chain ({max_samples_per_chain}) must be at least one \
                         segment ({})",
                        config.chain.samples
                    ));
                }
                if *max_samples_per_chain > MAX_SAMPLES {
                    return err(format!("max_samples_per_chain must be <= {MAX_SAMPLES}"));
                }
            }
            DriverSpec::Sweep { ps, .. } => {
                if ps.is_empty() || ps.len() > MAX_SWEEP_POINTS {
                    return err(format!(
                        "sweep needs 1..={MAX_SWEEP_POINTS} probabilities, got {}",
                        ps.len()
                    ));
                }
                if ps
                    .iter()
                    .any(|p| !(0.0..=1.0).contains(p) || !p.is_finite())
                {
                    return err("sweep probabilities must be in [0, 1]".to_string());
                }
            }
            DriverSpec::Layerwise { layers, budget, .. } => {
                if layers.is_empty() || layers.len() > MAX_LAYERS {
                    return err(format!(
                        "layerwise needs 1..={MAX_LAYERS} layers, got {}",
                        layers.len()
                    ));
                }
                match budget {
                    LayerBudget::PerBit(p) => {
                        if !(0.0..=1.0).contains(p) || !p.is_finite() {
                            return err(format!(
                                "budget.PerBit probability must be in [0, 1], got {p}"
                            ));
                        }
                    }
                    LayerBudget::ExpectedFlips(k) => {
                        if !(k.is_finite() && *k >= 0.0) {
                            return err(format!(
                                "budget.ExpectedFlips must be non-negative, got {k}"
                            ));
                        }
                    }
                }
            }
        }
        if let Some(shard) = self.shard {
            if matches!(self.driver, DriverSpec::AdaptiveCampaign { .. }) {
                return err(
                    "adaptive campaigns cannot be sharded (their task space is open-ended)"
                        .to_string(),
                );
            }
            if shard.count == 0 {
                return err("shard.count must be positive".to_string());
            }
            if shard.index >= shard.count {
                return err(format!(
                    "shard.index must be below shard.count, got {}/{}",
                    shard.index, shard.count
                ));
            }
            if shard.count > self.tasks() {
                return err(format!(
                    "shard.count ({}) exceeds the driver's task count ({})",
                    shard.count,
                    self.tasks()
                ));
            }
        }
        Ok(())
    }
}

/// A deterministically (re)built scenario, ready for any driver.
pub struct Workload {
    /// The trained f32 model.
    pub model: Sequential,
    /// The held-out evaluation split.
    pub eval: Arc<Dataset>,
    /// The int8 deployment, when the scenario asked for it.
    pub quant: Option<QuantModel>,
}

/// Builds the scenario from its spec: generate, split, train, optionally
/// quantize — every step seeded, so two builds of the same spec (in the
/// same or a restarted daemon) are bit-identical, and journal fingerprints
/// computed over the spec remain valid across restarts.
///
/// # Errors
///
/// [`SpecError`] when the fault sites resolve to nothing on the built
/// model (the one constraint that needs the concrete model to check).
pub fn build_workload(s: &ScenarioSpec) -> Result<Workload, SpecError> {
    let mut data_rng = StdRng::seed_from_u64(s.dataset.seed);
    let data = gaussian_blobs(
        s.dataset.examples,
        s.dataset.classes,
        s.dataset.spread as f32,
        &mut data_rng,
    );
    let (train, eval) = data.split(s.dataset.train_frac, &mut data_rng);
    if eval.is_empty() {
        return Err(SpecError(
            "train_frac leaves an empty evaluation split".to_string(),
        ));
    }

    let mut model_rng = StdRng::seed_from_u64(s.model.seed);
    let mut model = mlp(2, &s.model.hidden, s.dataset.classes, &mut model_rng);
    if s.model.epochs > 0 {
        let mut trainer = Trainer::new(
            Sgd::new(s.model.lr as f32).with_momentum(s.model.momentum as f32),
            TrainConfig {
                epochs: s.model.epochs,
                batch_size: s.model.batch_size,
                ..TrainConfig::default()
            },
        );
        trainer.fit(&mut model, train.inputs(), train.labels(), &mut model_rng);
    }

    let quant = if s.quantized {
        let qm = quantize_model(&model, train.inputs(), &CalibConfig::default());
        let paths: Vec<String> = qm.sites().params.into_iter().map(|p| p.path).collect();
        check_sites(&paths, &[], &s.sites)?;
        Some(qm)
    } else {
        check_sites(&model.param_paths(), &model.layer_names(), &s.sites)?;
        None
    };

    Ok(Workload {
        model,
        eval: Arc::new(eval),
        quant,
    })
}

/// Verifies — by pure path matching, without touching the panicking site
/// resolvers — that a [`SiteSpec`] selects at least one existing site.
/// This is what keeps `resolve_sites`/`sites_matching`'s "unknown name"
/// assertions off the daemon's request paths.
fn check_sites(
    param_paths: &[String],
    layer_names: &[String],
    spec: &SiteSpec,
) -> Result<(), SpecError> {
    let prefix_matches = |prefix: &str| {
        param_paths
            .iter()
            .any(|p| p == prefix || p.starts_with(&format!("{prefix}.")))
    };
    match spec {
        SiteSpec::AllParams => {
            if param_paths.is_empty() {
                return Err(SpecError("model has no parameters to inject".to_string()));
            }
        }
        SiteSpec::LayerParams { prefix } => {
            if !prefix_matches(prefix) {
                return Err(SpecError(format!(
                    "layer prefix `{prefix}` matches no parameters"
                )));
            }
        }
        SiteSpec::Params(paths) => {
            if paths.is_empty() {
                return Err(SpecError("sites.Params is empty".to_string()));
            }
            for want in paths {
                if !param_paths.iter().any(|p| p == want) {
                    return Err(SpecError(format!("unknown parameter path `{want}`")));
                }
            }
        }
        SiteSpec::Activations(layers) => {
            if layers.is_empty() {
                return Err(SpecError("sites.Activations is empty".to_string()));
            }
            for want in layers {
                if !layer_names.iter().any(|l| l == want) {
                    return Err(SpecError(format!("unknown activation layer `{want}`")));
                }
            }
        }
        SiteSpec::Input => {}
    }
    Ok(())
}

/// Verifies that every requested layer prefix resolves to at least one
/// site — the layerwise driver's per-layer equivalent of the site check
/// in [`build_workload`].
///
/// # Errors
///
/// [`SpecError`] naming the first empty layer.
pub fn check_layers(w: &Workload, layers: &[String]) -> Result<(), SpecError> {
    let paths: Vec<String> = match &w.quant {
        Some(qm) => qm.sites().params.into_iter().map(|p| p.path).collect(),
        None => w.model.param_paths(),
    };
    for layer in layers {
        check_sites(
            &paths,
            &[],
            &SiteSpec::LayerParams {
                prefix: layer.clone(),
            },
        )
        .map_err(|_| SpecError(format!("layer `{layer}` resolves to no injection sites")))?;
    }
    Ok(())
}

/// The submit-time check of what only a built model can tell: that the
/// fault sites, and a layerwise job's layers, resolve to injection sites.
/// Site paths depend only on the architecture, so the scenario is built
/// untrained (`epochs: 0`); the runner trains its own build.
///
/// # Errors
///
/// [`SpecError`] exactly when the trained [`build_workload`] or its
/// [`check_layers`] would fail, with the same message.
pub(crate) fn check_buildable(spec: &JobSpec) -> Result<(), SpecError> {
    let mut untrained = spec.scenario.clone();
    untrained.model.epochs = 0;
    check_built(spec, &untrained)
}

/// [`check_buildable`] on `scenario`'s build.
fn check_built(spec: &JobSpec, scenario: &ScenarioSpec) -> Result<(), SpecError> {
    let w = build_workload(scenario)?;
    if let DriverSpec::Layerwise { layers, .. } = &spec.driver {
        check_layers(&w, layers)?;
    }
    Ok(())
}

/// The journal fingerprint tag for a job — distinct per driver x
/// representation, with the drivers' own `_quant` suffix
/// ([`bdlfi::FaultWorkload::NAMESPACE`]), so no two different studies
/// ever produce resume-compatible journals.
#[must_use]
pub fn fingerprint_tag(spec: &JobSpec) -> &'static str {
    match (&spec.driver, spec.scenario.quantized) {
        (DriverSpec::Campaign { .. }, false) => "serve_campaign",
        (DriverSpec::Campaign { .. }, true) => "serve_campaign_quant",
        (DriverSpec::AdaptiveCampaign { .. }, false) => "serve_campaign_adaptive",
        (DriverSpec::AdaptiveCampaign { .. }, true) => "serve_campaign_adaptive_quant",
        (DriverSpec::Sweep { .. }, false) => "serve_sweep",
        (DriverSpec::Sweep { .. }, true) => "serve_sweep_quant",
        (DriverSpec::Layerwise { .. }, false) => "serve_layerwise",
        (DriverSpec::Layerwise { .. }, true) => "serve_layerwise_quant",
    }
}

/// The journal fingerprint of a job: computed over the *submitted* spec
/// (not the execution-time worker grant), so it is stable across daemon
/// restarts and pool rebalancing — results are worker-count-invariant, so
/// journals written under different grants interoperate.
///
/// The shard field is stripped first: this names the *campaign*, which
/// every shard job of one study shares. A shard job's journal binds the
/// per-shard fingerprint the shard runner derives from this base (plus
/// the shard count and index), never this value directly. The worker
/// count is pinned for the same reason the core drivers pin it
/// ([`bdlfi::journal_fingerprint`]): results are bit-identical at
/// every worker count, so shards run on differently-sized daemons must
/// still merge.
#[must_use]
pub fn job_fingerprint(spec: &JobSpec) -> String {
    let mut base = spec.clone();
    base.shard = None;
    let pinned = base.config().fingerprint_form();
    *base.config_mut() = pinned;
    bdlfi::fingerprint(fingerprint_tag(&base), &base)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bdlfi_bayes::ChainConfig;

    pub(crate) fn small_spec() -> JobSpec {
        JobSpec {
            scenario: ScenarioSpec {
                dataset: DatasetSpec {
                    examples: 60,
                    classes: 3,
                    spread: 0.5,
                    seed: 11,
                    train_frac: 0.7,
                },
                model: ModelSpec {
                    hidden: vec![8],
                    epochs: 3,
                    batch_size: 16,
                    lr: 0.1,
                    momentum: 0.9,
                    seed: 12,
                },
                quantized: false,
                sites: SiteSpec::AllParams,
                flip_probability: 1e-3,
            },
            driver: DriverSpec::Campaign {
                config: CampaignConfig {
                    chains: 2,
                    chain: ChainConfig {
                        burn_in: 1,
                        samples: 4,
                        thin: 1,
                    },
                    workers: 1,
                    ..CampaignConfig::default()
                },
            },
            shard: None,
        }
    }

    #[test]
    fn valid_spec_roundtrips_through_json() {
        let spec = small_spec();
        spec.validate().unwrap();
        let json = serde_json::to_string(&spec.to_json_value()).unwrap();
        let back = JobSpec::from_json_value(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(job_fingerprint(&spec), job_fingerprint(&back));
    }

    #[test]
    fn validation_rejects_out_of_range_fields() {
        let mut spec = small_spec();
        spec.scenario.flip_probability = 1.5;
        assert!(spec.validate().is_err());

        let mut spec = small_spec();
        spec.scenario.dataset.train_frac = 1.0;
        assert!(spec.validate().is_err());

        let mut spec = small_spec();
        if let DriverSpec::Campaign { config } = &mut spec.driver {
            config.chains = 0;
        }
        assert!(spec.validate().is_err());

        let mut spec = small_spec();
        spec.driver = DriverSpec::Sweep {
            ps: vec![],
            config: *spec.config(),
        };
        assert!(spec.validate().is_err());
    }

    #[test]
    fn quantized_transient_sites_are_rejected() {
        let mut spec = small_spec();
        spec.scenario.quantized = true;
        spec.scenario.sites = SiteSpec::Input;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn workload_build_is_deterministic() {
        let spec = small_spec();
        let a = build_workload(&spec.scenario).unwrap();
        let b = build_workload(&spec.scenario).unwrap();
        let ja = serde_json::to_string(&bdlfi_nn::serialize::export_weights(&a.model)).unwrap();
        let jb = serde_json::to_string(&bdlfi_nn::serialize::export_weights(&b.model)).unwrap();
        assert_eq!(ja, jb);
    }

    #[test]
    fn fingerprint_distinguishes_driver_and_representation() {
        let f32_spec = small_spec();
        let mut quant_spec = small_spec();
        quant_spec.scenario.quantized = true;
        assert_ne!(job_fingerprint(&f32_spec), job_fingerprint(&quant_spec));

        let mut sweep = small_spec();
        sweep.driver = DriverSpec::Sweep {
            ps: vec![1e-3],
            config: *f32_spec.config(),
        };
        assert_ne!(job_fingerprint(&f32_spec), job_fingerprint(&sweep));
    }

    #[test]
    fn shard_validation_and_fingerprint_sharing() {
        // Both shards of one campaign share the base fingerprint.
        let whole = small_spec();
        let mut s0 = small_spec();
        s0.shard = Some(ShardSpec { index: 0, count: 2 });
        let mut s1 = small_spec();
        s1.shard = Some(ShardSpec { index: 1, count: 2 });
        s0.validate().unwrap();
        s1.validate().unwrap();
        assert_eq!(job_fingerprint(&whole), job_fingerprint(&s0));
        assert_eq!(job_fingerprint(&s0), job_fingerprint(&s1));

        // Out-of-range and oversized shards are client errors.
        let mut bad = small_spec();
        bad.shard = Some(ShardSpec { index: 2, count: 2 });
        assert!(bad.validate().is_err());
        let mut bad = small_spec();
        bad.shard = Some(ShardSpec { index: 0, count: 0 });
        assert!(bad.validate().is_err());
        let mut bad = small_spec();
        bad.shard = Some(ShardSpec {
            index: 0,
            count: 99,
        });
        assert!(bad.validate().is_err());

        // Adaptive campaigns cannot be sharded.
        let mut bad = small_spec();
        bad.driver = DriverSpec::AdaptiveCampaign {
            config: *bad.config(),
            max_samples_per_chain: 8,
        };
        bad.shard = Some(ShardSpec { index: 0, count: 2 });
        assert!(bad.validate().is_err());

        // Pre-shard spec files (no "shard" key) still deserialize.
        let mut v = whole.to_json_value();
        if let serde::Value::Object(entries) = &mut v {
            entries.retain(|(k, _)| k != "shard");
        }
        let back = JobSpec::from_json_value(&v).unwrap();
        assert!(back.shard.is_none());
    }

    #[test]
    fn untrained_probe_judges_specs_like_the_trained_build() {
        let sites = [
            SiteSpec::AllParams,
            SiteSpec::LayerParams {
                prefix: "fc2".to_string(),
            },
            SiteSpec::LayerParams {
                prefix: "nonexistent_layer".to_string(),
            },
            SiteSpec::Params(vec!["fc1.weight".to_string()]),
            SiteSpec::Params(vec!["fc1.w_scale".to_string()]),
            SiteSpec::Params(vec!["fc9.bias".to_string()]),
            SiteSpec::Params(vec![]),
            SiteSpec::Activations(vec!["relu1".to_string()]),
            SiteSpec::Activations(vec!["nope".to_string()]),
            SiteSpec::Activations(vec![]),
            SiteSpec::Input,
        ];
        let layerwise = |layers: &[&str]| DriverSpec::Layerwise {
            layers: layers.iter().map(|l| l.to_string()).collect(),
            budget: LayerBudget::PerBit(1e-3),
            config: *small_spec().config(),
        };
        let drivers = [
            small_spec().driver,
            layerwise(&["fc1", "fc2"]),
            layerwise(&["fc1", "dense7"]),
        ];
        let mut verdicts = std::collections::BTreeSet::new();
        for quantized in [false, true] {
            for hidden in [vec![8], vec![], vec![6, 4]] {
                for site in &sites {
                    for driver in &drivers {
                        let mut spec = small_spec();
                        spec.scenario.quantized = quantized;
                        spec.scenario.model.hidden = hidden.clone();
                        spec.scenario.sites = site.clone();
                        spec.driver = driver.clone();
                        let probe = check_buildable(&spec).map_err(|e| e.to_string());
                        let trained = check_built(&spec, &spec.scenario).map_err(|e| e.to_string());
                        assert_eq!(
                            probe, trained,
                            "quantized {quantized}, hidden {hidden:?}, {site:?}, {driver:?}"
                        );
                        verdicts.insert(probe.is_ok());
                    }
                }
            }
        }
        assert_eq!(
            verdicts.len(),
            2,
            "the grid must hold valid and invalid specs"
        );
    }

    #[test]
    fn empty_sites_fail_at_build_not_panic() {
        let mut spec = small_spec();
        spec.scenario.sites = SiteSpec::LayerParams {
            prefix: "nonexistent_layer".to_string(),
        };
        assert!(build_workload(&spec.scenario).is_err());
    }
}
