//! Journal identity pins for every journaling driver and representation.
//!
//! Each driver writes just its journal header (`RunControl::stop_after(0)`)
//! and the header's fingerprint must equal `fingerprint(tag, tuple)`
//! recomputed here from the driver's tag and identity tuple — never as
//! hard-coded hex, so the pins hold under every kernel variant. Every
//! driver runs at `workers: 3` while the expected tuples carry the config
//! with `workers: 0`: the worker count is scheduling, never identity. Int8
//! tags carry the `_quant` suffix. Shard journals must bind
//! `ShardPlan::shard_fingerprint(index)` of the unsharded fingerprint and
//! carry the plan's shard info.
//!
//! Relative to the earlier per-driver derivations, exactly two fixes move
//! fingerprints: int8 campaign and adaptive journals gained the `_quant`
//! suffix, and adaptive, random-FI and layer-FI journals pinned `workers`.

use bdlfi_suite::baseline::{run_exhaustive, run_layer_fi, RandomFi, RandomFiConfig};
use bdlfi_suite::bayes::ChainConfig;
use bdlfi_suite::core::{
    attribute_faults, boundary_map, fingerprint, read_journal, run_campaign, run_campaign_adaptive,
    run_campaign_shard, run_layerwise, run_layerwise_shard, run_protection_study, run_sweep,
    run_sweep_shard, BoundaryConfig, CampaignConfig, CheckpointHeader, CheckpointSpec, EngineError,
    FaultWorkload, FaultyModel, GoldenModel, KernelChoice, LayerBudget, QuantFaultyModel,
    RunControl, RunMeta, ShardError, ShardPlan,
};
use bdlfi_suite::data::{gaussian_blobs, Dataset};
use bdlfi_suite::faults::{resolve_sites, BernoulliBitFlip, SiteSpec};
use bdlfi_suite::nn::{mlp, optim::Sgd, predict_all, Sequential, TrainConfig, Trainer};
use bdlfi_suite::quant::{quantize_model, CalibConfig, QuantModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;

/// The worker count every driver runs at; fingerprints must not see it.
const WORKERS: usize = 3;

/// A per-test, per-process scratch directory.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("bdlfi_fp_{}_{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    fn spec(&self, name: &str) -> CheckpointSpec {
        CheckpointSpec::new(self.0.join(format!("{name}.ckpt")), String::new())
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn trained() -> (Sequential, QuantModel, Arc<Dataset>) {
    let mut rng = StdRng::seed_from_u64(31);
    let data = gaussian_blobs(120, 3, 0.6, &mut rng);
    let (train, test) = data.split(0.7, &mut rng);
    let mut model = mlp(2, &[8], 3, &mut rng);
    let mut trainer = Trainer::new(
        Sgd::new(0.1).with_momentum(0.9),
        TrainConfig {
            epochs: 5,
            batch_size: 32,
            ..TrainConfig::default()
        },
    );
    trainer.fit(&mut model, train.inputs(), train.labels(), &mut rng);
    let qm = quantize_model(&model, train.inputs(), &CalibConfig::default());
    (model, qm, Arc::new(test))
}

fn campaign_cfg() -> CampaignConfig {
    CampaignConfig {
        chains: 2,
        chain: ChainConfig {
            burn_in: 0,
            samples: 4,
            thin: 1,
        },
        kernel: KernelChoice::Prior,
        seed: 17,
        workers: WORKERS,
        ..CampaignConfig::default()
    }
}

/// Runs a driver until it has written only its journal header.
fn header_of<T>(
    spec: &CheckpointSpec,
    run: impl FnOnce(&RunControl) -> Result<T, EngineError>,
) -> CheckpointHeader {
    match run(&RunControl::stop_after(0).checkpointed(spec.clone())) {
        Err(EngineError::Interrupted { completed: 0, .. }) => {}
        Err(other) => panic!(
            "{}: expected an immediate interrupt, got {other}",
            spec.path.display()
        ),
        Ok(_) => panic!("{}: ran to completion", spec.path.display()),
    }
    read_journal(&spec.path).expect("journal header").header
}

/// Runs shard 1 of a 2-way plan until it has written only its header, and
/// checks that header against the plan derived from `base`.
fn assert_shard_header(
    spec: &CheckpointSpec,
    base: &str,
    seed: u64,
    tasks: usize,
    run: impl FnOnce(&RunControl) -> Result<RunMeta, ShardError>,
) {
    match run(&RunControl::stop_after(0).checkpointed(spec.clone())) {
        Err(ShardError::Engine(EngineError::Interrupted { completed: 0, .. })) => {}
        other => panic!(
            "{}: expected an immediate interrupt, got {other:?}",
            spec.path.display()
        ),
    }
    let header = read_journal(&spec.path).expect("shard header").header;
    let plan = ShardPlan::new(base.to_string(), seed, tasks, 2).expect("plan");
    assert_eq!(
        header.fingerprint,
        plan.shard_fingerprint(1),
        "{}",
        spec.path.display()
    );
    assert_eq!(header.shard, Some(plan.info(1).expect("info")));
}

/// Campaign, adaptive, sweep and layerwise journals — whole and sharded —
/// over one representation whose tags end in `suffix`.
fn pin_campaign_family<N: GoldenModel>(net: &N, eval: &Arc<Dataset>, suffix: &str) {
    let scratch = Scratch::new(&format!("campaigns{suffix}"));
    let sites = SiteSpec::AllParams;
    let fm = net.clone().bind(
        Arc::clone(eval),
        &sites,
        Arc::new(BernoulliBitFlip::new(1e-3)),
    );
    let golden = fm.golden_error();
    let cfg = campaign_cfg();
    let pinned = CampaignConfig { workers: 0, ..cfg };
    let tag = |t: &str| format!("{t}{suffix}");

    let campaign = fingerprint(&tag("campaign"), &(pinned, golden));
    let spec = scratch.spec("campaign");
    let header = header_of(&spec, |ctl| run_campaign(&fm, &cfg, ctl));
    assert_eq!(header.fingerprint, campaign, "campaign{suffix}");
    assert_shard_header(
        &scratch.spec("campaign_shard"),
        &campaign,
        cfg.seed,
        cfg.chains,
        |ctl| run_campaign_shard(&fm, &cfg, 2, 1, ctl),
    );

    let spec = scratch.spec("adaptive");
    let header = header_of(&spec, |ctl| run_campaign_adaptive(&fm, &cfg, 12, ctl));
    let adaptive = fingerprint(&tag("campaign_adaptive"), &(pinned, 12usize, golden));
    assert_eq!(header.fingerprint, adaptive, "campaign_adaptive{suffix}");

    let ps = [1e-4, 1e-3, 1e-2];
    let sweep = fingerprint(&tag("sweep"), &(pinned, ps.to_vec()));
    let spec = scratch.spec("sweep");
    let header = header_of(&spec, |ctl| run_sweep(net, eval, &sites, &ps, &cfg, ctl));
    assert_eq!(header.fingerprint, sweep, "sweep{suffix}");
    assert_shard_header(
        &scratch.spec("sweep_shard"),
        &sweep,
        cfg.seed,
        ps.len(),
        |ctl| run_sweep_shard(net, eval, &sites, &ps, &cfg, 2, 1, ctl),
    );

    let layers = ["fc1", "fc2"];
    let names: Vec<String> = layers.iter().map(|l| l.to_string()).collect();
    let budget = LayerBudget::ExpectedFlips(2.0);
    let layerwise = fingerprint(&tag("layerwise"), &(pinned, names, budget));
    let spec = scratch.spec("layerwise");
    let header = header_of(&spec, |ctl| {
        run_layerwise(net, eval, &layers, budget, &cfg, ctl)
    });
    assert_eq!(header.fingerprint, layerwise, "layerwise{suffix}");
    assert_shard_header(
        &scratch.spec("layerwise_shard"),
        &layerwise,
        cfg.seed,
        layers.len(),
        |ctl| run_layerwise_shard(net, eval, &layers, budget, &cfg, 2, 1, ctl),
    );
}

#[test]
fn campaign_family_fingerprints_pin_for_f32_and_int8() {
    let (model, qm, eval) = trained();
    pin_campaign_family(&model, &eval, "");
    pin_campaign_family(&qm, &eval, "_quant");
}

#[test]
fn exhaustive_fingerprints_pin_for_f32_and_int8() {
    let (mut model, qm, eval) = trained();
    let scratch = Scratch::new("exhaustive");
    let sites = SiteSpec::LayerParams {
        prefix: "fc2".into(),
    };

    // f32: two-field site shape, golden error of a cold inference.
    let shape: Vec<(String, usize)> = resolve_sites(&model, &sites)
        .params
        .into_iter()
        .map(|p| (p.path, p.len))
        .collect();
    let logits = predict_all(&mut model, eval.inputs(), 64);
    let golden = bdlfi_suite::nn::metrics::classification_error(&logits, eval.labels());
    let spec = scratch.spec("f32");
    let header = header_of(&spec, |ctl| {
        run_exhaustive(&model, &eval, &sites, WORKERS, ctl)
    });
    assert_eq!(
        header.fingerprint,
        fingerprint("exhaustive", &(shape, golden))
    );

    // int8: width-aware site shape.
    let shape: Vec<(String, usize, u8)> = qm
        .sites_matching(&sites)
        .params
        .into_iter()
        .map(|p| (p.path, p.len, p.repr.width()))
        .collect();
    let golden = QuantFaultyModel::new(
        qm.clone(),
        Arc::clone(&eval),
        &sites,
        Arc::new(BernoulliBitFlip::new(0.0)),
    )
    .golden_error();
    let spec = scratch.spec("int8");
    let header = header_of(&spec, |ctl| {
        run_exhaustive(&qm, &eval, &sites, WORKERS, ctl)
    });
    assert_eq!(
        header.fingerprint,
        fingerprint("exhaustive_quant", &(shape, golden))
    );
}

#[test]
fn f32_only_driver_fingerprints_pin() {
    let (model, _, eval) = trained();
    let scratch = Scratch::new("f32_only");
    let sites = SiteSpec::AllParams;

    let fi = RandomFi::new(model.clone(), Arc::clone(&eval), &sites);
    let fi_cfg = RandomFiConfig {
        injections: 6,
        seed: 3,
        level: 0.95,
        workers: WORKERS,
    };
    let fi_pinned = RandomFiConfig {
        workers: 0,
        ..fi_cfg.clone()
    };
    let header = header_of(&scratch.spec("random_fi"), |ctl| fi.run(&fi_cfg, ctl));
    let expected = fingerprint("random_fi", &(fi_pinned.clone(), true, fi.golden_error()));
    assert_eq!(header.fingerprint, expected);

    let layers = ["fc1", "fc2"];
    let names: Vec<String> = layers.iter().map(|l| l.to_string()).collect();
    let header = header_of(&scratch.spec("layer_fi"), |ctl| {
        run_layer_fi(&model, &eval, &layers, &fi_cfg, ctl)
    });
    assert_eq!(
        header.fingerprint,
        fingerprint("layer_fi", &(fi_pinned, names))
    );

    let boundary = BoundaryConfig {
        resolution: 4,
        fault_samples: 6,
        seed: 9,
        workers: WORKERS,
        ..BoundaryConfig::default()
    };
    let boundary_pinned = BoundaryConfig {
        workers: 0,
        ..boundary
    };
    let fault = || Arc::new(BernoulliBitFlip::new(1e-3));
    let header = header_of(&scratch.spec("boundary"), |ctl| {
        boundary_map(&model, &sites, fault(), &boundary, ctl)
    });
    assert_eq!(
        header.fingerprint,
        fingerprint("boundary_map", &boundary_pinned)
    );

    let header = header_of(&scratch.spec("protection"), |ctl| {
        run_protection_study(&model, &sites, fault(), &boundary, 0.25, ctl)
    });
    let expected = fingerprint("protection_study", &(boundary_pinned, 0.25f64.to_bits()));
    assert_eq!(header.fingerprint, expected);

    let fm = FaultyModel::new(model, eval, &sites, fault());
    let header = header_of(&scratch.spec("attribution"), |ctl| {
        attribute_faults(&fm, 8, Some(2.0), 5, ctl)
    });
    let expected = fingerprint("attribution", &(8usize, 2.0f64, 5u64, fm.golden_error()));
    assert_eq!(header.fingerprint, expected);
}
