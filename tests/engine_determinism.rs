//! Worker-count invariance of every campaign driver.
//!
//! The evaluation engine's contract is that the worker pool is pure
//! mechanism: every per-task RNG is derived from
//! `seed_stream(campaign_seed, task_id)` and results are delivered to the
//! sink in task order, so a report computed on one worker is bit-identical
//! to the same report computed on any number of workers. These tests pin
//! that contract across the drivers (campaign, sweep, layerwise, boundary,
//! random FI, exhaustive FI, per-layer FI) on both an MLP and a reduced
//! ResNet fixture.

use bdlfi_suite::baseline::{run_exhaustive, run_layer_fi, RandomFi, RandomFiConfig};
use bdlfi_suite::bayes::ChainConfig;
use bdlfi_suite::core::{
    boundary_map, run_campaign, run_layerwise, run_sweep, BoundaryConfig, CampaignConfig,
    CampaignReport, FaultyModel, KernelChoice, LayerBudget, RunControl,
};
use bdlfi_suite::data::{gaussian_blobs, synth_cifar, Dataset, SynthCifarConfig};
use bdlfi_suite::faults::{BernoulliBitFlip, SiteSpec};
use bdlfi_suite::nn::{mlp, optim::Sgd, resnet18, ResNetConfig, Sequential, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Worker counts every driver must agree across: serial, two workers, and
/// whatever the host actually has.
fn worker_counts() -> Vec<usize> {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts = vec![1, 2, host];
    counts.dedup();
    counts
}

fn trained_mlp() -> (Sequential, Arc<Dataset>) {
    let mut rng = StdRng::seed_from_u64(900);
    let data = gaussian_blobs(200, 3, 0.6, &mut rng);
    let (train, test) = data.split(0.7, &mut rng);
    let mut model = mlp(2, &[16, 16], 3, &mut rng);
    let mut trainer = Trainer::new(
        Sgd::new(0.1).with_momentum(0.9),
        TrainConfig {
            epochs: 12,
            batch_size: 32,
            ..TrainConfig::default()
        },
    );
    trainer.fit(&mut model, train.inputs(), train.labels(), &mut rng);
    (model, Arc::new(test))
}

fn tiny_resnet() -> (Sequential, Arc<Dataset>) {
    let mut rng = StdRng::seed_from_u64(901);
    let cfg = SynthCifarConfig {
        classes: 4,
        image_size: 16,
        noise: 0.3,
        phase_jitter: 0.5,
        label_noise: 0.0,
    };
    let data = synth_cifar(48, cfg, &mut rng);
    let net = resnet18(
        ResNetConfig {
            in_channels: 3,
            base_width: 2,
            classes: 4,
        },
        &mut rng,
    );
    (net, Arc::new(data))
}

fn campaign_cfg(seed: u64, samples: usize, workers: usize) -> CampaignConfig {
    CampaignConfig {
        chains: 2,
        chain: ChainConfig {
            burn_in: 0,
            samples,
            thin: 1,
        },
        kernel: KernelChoice::Prior,
        seed,
        workers,
        ..CampaignConfig::default()
    }
}

/// Every statistic of a campaign report that the RNG touches must match
/// bit for bit; only `run_meta` (timing, worker count) may differ.
fn assert_reports_identical(a: &CampaignReport, b: &CampaignReport, what: &str) {
    assert_eq!(a.traces, b.traces, "{what}: traces differ");
    assert_eq!(
        a.acceptance_rates, b.acceptance_rates,
        "{what}: acceptance rates differ"
    );
    assert_eq!(a.mean_error, b.mean_error, "{what}: mean error differs");
    assert_eq!(a.mean_flips, b.mean_flips, "{what}: mean flips differ");
    assert_eq!(a.summary, b.summary, "{what}: summaries differ");
    assert_eq!(
        a.golden_error, b.golden_error,
        "{what}: golden error differs"
    );
}

#[test]
fn campaign_is_worker_count_invariant_on_mlp() {
    let (model, eval) = trained_mlp();
    let fm = FaultyModel::new(
        model,
        eval,
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(1e-3)),
    );
    let reference = run_campaign(&fm, &campaign_cfg(31, 40, 1), &RunControl::new()).unwrap();
    for workers in worker_counts() {
        let report = run_campaign(&fm, &campaign_cfg(31, 40, workers), &RunControl::new()).unwrap();
        assert_reports_identical(&reference, &report, &format!("mlp campaign @{workers}"));
    }
}

#[test]
fn campaign_is_worker_count_invariant_on_resnet() {
    let (net, eval) = tiny_resnet();
    let fm = FaultyModel::new(
        net,
        eval,
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(1e-4)),
    );
    let reference = run_campaign(&fm, &campaign_cfg(32, 6, 1), &RunControl::new()).unwrap();
    for workers in worker_counts() {
        let report = run_campaign(&fm, &campaign_cfg(32, 6, workers), &RunControl::new()).unwrap();
        assert_reports_identical(&reference, &report, &format!("resnet campaign @{workers}"));
    }
}

#[test]
fn sweep_is_worker_count_invariant() {
    let (model, eval) = trained_mlp();
    let ps = [1e-4, 1e-3, 1e-2];
    let reference = run_sweep(
        &model,
        &eval,
        &SiteSpec::AllParams,
        &ps,
        &campaign_cfg(33, 25, 1),
        &RunControl::new(),
    )
    .unwrap();
    for workers in worker_counts() {
        let sweep = run_sweep(
            &model,
            &eval,
            &SiteSpec::AllParams,
            &ps,
            &campaign_cfg(33, 25, workers),
            &RunControl::new(),
        )
        .unwrap();
        assert_eq!(sweep.golden_error, reference.golden_error);
        assert_eq!(sweep.points.len(), reference.points.len());
        for (a, b) in reference.points.iter().zip(&sweep.points) {
            assert_eq!(a.p, b.p);
            assert_reports_identical(&a.report, &b.report, &format!("sweep p={} @{workers}", a.p));
        }
    }
}

#[test]
fn layerwise_is_worker_count_invariant() {
    let (model, eval) = trained_mlp();
    let layers = ["fc1", "fc2", "fc3"];
    let reference = run_layerwise(
        &model,
        &eval,
        &layers,
        LayerBudget::ExpectedFlips(2.0),
        &campaign_cfg(34, 20, 1),
        &RunControl::new(),
    )
    .unwrap();
    for workers in worker_counts() {
        let res = run_layerwise(
            &model,
            &eval,
            &layers,
            LayerBudget::ExpectedFlips(2.0),
            &campaign_cfg(34, 20, workers),
            &RunControl::new(),
        )
        .unwrap();
        // Bit equality: a correlation of NaN (degenerate ranks) must still
        // reproduce exactly.
        assert_eq!(
            res.depth_correlation.to_bits(),
            reference.depth_correlation.to_bits()
        );
        for (a, b) in reference.layers.iter().zip(&res.layers) {
            assert_eq!(a.p, b.p);
            assert_reports_identical(
                &a.report,
                &b.report,
                &format!("layerwise {} @{workers}", a.layer),
            );
        }
    }
}

#[test]
fn boundary_map_is_worker_count_invariant() {
    let (model, _eval) = trained_mlp();
    let cfg = |workers| BoundaryConfig {
        resolution: 12,
        fault_samples: 60,
        seed: 35,
        workers,
        ..BoundaryConfig::default()
    };
    let fault_model = Arc::new(BernoulliBitFlip::new(1e-3));
    let reference = boundary_map(
        &model,
        &SiteSpec::AllParams,
        fault_model.clone(),
        &cfg(1),
        &RunControl::new(),
    )
    .unwrap();
    for workers in worker_counts() {
        let map = boundary_map(
            &model,
            &SiteSpec::AllParams,
            fault_model.clone(),
            &cfg(workers),
            &RunControl::new(),
        )
        .unwrap();
        assert_eq!(map.error_prob, reference.error_prob, "@{workers}");
        assert_eq!(map.golden_pred, reference.golden_pred, "@{workers}");
        assert_eq!(
            map.margin_correlation, reference.margin_correlation,
            "@{workers}"
        );
    }
}

#[test]
fn random_fi_is_worker_count_invariant() {
    let (model, eval) = trained_mlp();
    let fi = RandomFi::new(model, eval, &SiteSpec::AllParams);
    let cfg = |workers| RandomFiConfig {
        injections: 60,
        seed: 36,
        level: 0.95,
        workers,
    };
    let reference = fi.run(&cfg(1), &RunControl::new()).unwrap();
    for workers in worker_counts() {
        let res = fi.run(&cfg(workers), &RunControl::new()).unwrap();
        assert_eq!(res.errors, reference.errors, "@{workers}");
        assert_eq!(res.sdc.successes, reference.sdc.successes, "@{workers}");
        assert_eq!(res.mean_error, reference.mean_error, "@{workers}");
    }
}

#[test]
fn exhaustive_fi_is_worker_count_invariant() {
    let mut rng = StdRng::seed_from_u64(902);
    let data = gaussian_blobs(80, 2, 0.7, &mut rng);
    let model = mlp(2, &[4], 2, &mut rng);
    let eval = Arc::new(data);
    let spec = SiteSpec::LayerParams {
        prefix: "fc2".into(),
    };
    let reference = run_exhaustive(&model, &eval, &spec, 1, &RunControl::new()).unwrap();
    for workers in worker_counts() {
        let res = run_exhaustive(&model, &eval, &spec, workers, &RunControl::new()).unwrap();
        assert_eq!(res.injections, reference.injections, "@{workers}");
        assert_eq!(res.sdc.successes, reference.sdc.successes, "@{workers}");
        assert_eq!(res.mean_error, reference.mean_error, "@{workers}");
        for (a, b) in reference.by_bit.iter().zip(&res.by_bit) {
            assert_eq!(a.sdc, b.sdc, "bit {} @{workers}", a.bit);
        }
    }
}

#[test]
fn layer_fi_study_is_worker_count_invariant() {
    let (model, eval) = trained_mlp();
    let layers = ["fc1", "fc2", "fc3"];
    let cfg = |workers| RandomFiConfig {
        injections: 15,
        seed: 37,
        level: 0.95,
        workers,
    };
    let reference = run_layer_fi(&model, &eval, &layers, &cfg(1), &RunControl::new()).unwrap();
    for workers in worker_counts() {
        let study =
            run_layer_fi(&model, &eval, &layers, &cfg(workers), &RunControl::new()).unwrap();
        assert_eq!(
            study.depth_correlation.to_bits(),
            reference.depth_correlation.to_bits(),
            "@{workers}"
        );
        for (a, b) in reference.layers.iter().zip(&study.layers) {
            assert_eq!(a.result.errors, b.result.errors, "{} @{workers}", a.layer);
        }
    }
}
