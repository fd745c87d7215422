//! End-to-end integration: train the paper's MLP, run BDLFI campaigns,
//! sweeps and boundary analyses across the whole crate stack, and check
//! the paper's three findings hold qualitatively.

use bdlfi_suite::bayes::ChainConfig;
use bdlfi_suite::core::{
    boundary_map, log_spaced_probabilities, run_campaign, run_sweep, BoundaryConfig,
    CampaignConfig, FaultyModel, KernelChoice, RunControl,
};
use bdlfi_suite::data::{gaussian_blobs, Dataset};
use bdlfi_suite::faults::{BernoulliBitFlip, SiteSpec};
use bdlfi_suite::nn::{evaluate, mlp, optim::Sgd, Sequential, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn trained_mlp() -> (Sequential, Arc<Dataset>) {
    let mut rng = StdRng::seed_from_u64(100);
    let data = gaussian_blobs(600, 3, 1.1, &mut rng);
    let (train, test) = data.split(0.75, &mut rng);
    let mut model = mlp(2, &[32], 3, &mut rng);
    let mut trainer = Trainer::new(
        Sgd::new(0.1).with_momentum(0.9),
        TrainConfig {
            epochs: 30,
            batch_size: 32,
            ..TrainConfig::default()
        },
    );
    trainer.fit(&mut model, train.inputs(), train.labels(), &mut rng);
    let acc = evaluate(&mut model, test.inputs(), test.labels(), 64);
    assert!(acc > 0.85, "golden accuracy too low: {acc}");
    (model, Arc::new(test))
}

fn quick_campaign() -> CampaignConfig {
    CampaignConfig {
        chains: 2,
        chain: ChainConfig {
            burn_in: 0,
            samples: 60,
            thin: 1,
        },
        kernel: KernelChoice::Prior,
        seed: 7,
        ..CampaignConfig::default()
    }
}

#[test]
fn campaign_distribution_is_coherent() {
    let (model, test) = trained_mlp();
    let fm = FaultyModel::new(
        model,
        test,
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(2e-3)),
    );
    let report = run_campaign(&fm, &quick_campaign(), &RunControl::new()).unwrap();

    // Distribution bounds and ordering.
    assert!(report.summary.min >= 0.0 && report.summary.max <= 1.0);
    assert!(report.summary.q05 <= report.summary.median);
    assert!(report.summary.median <= report.summary.q95);
    // Faults cannot reduce the long-run mean below zero excess by much.
    assert!(report.mean_error >= report.golden_error - 0.05);
    // The prior kernel accepts everything.
    assert!(report
        .acceptance_rates
        .iter()
        .all(|&a| (a - 1.0).abs() < 1e-12));
    // Completeness diagnostics are populated.
    assert!(report.completeness.rhat.is_finite());
    assert!(report.completeness.ess > 0.0);
}

#[test]
fn finding_two_regimes_in_flip_probability() {
    // Paper Fig. 2: flat regime at small p, steep regime at large p.
    let (model, test) = trained_mlp();
    let ps = log_spaced_probabilities(1e-6, 1e-1, 6);
    let sweep = run_sweep(
        &model,
        &test,
        &SiteSpec::AllParams,
        &ps,
        &quick_campaign(),
        &RunControl::new(),
    )
    .unwrap();

    let errs: Vec<f64> = sweep.points.iter().map(|pt| pt.report.mean_error).collect();
    // Flat start: within 2 percentage points of golden.
    assert!(
        (errs[0] - sweep.golden_error).abs() < 0.02,
        "low-p {}",
        errs[0]
    );
    // Steep end: at least 15 points above golden.
    assert!(errs[5] > sweep.golden_error + 0.15, "high-p {}", errs[5]);
    // Knee exists and separates slopes.
    let knee = sweep.knee().expect("knee analysis");
    assert!(knee.fit.right_slope > knee.fit.left_slope + 0.01);
}

#[test]
fn finding_errors_concentrate_at_boundary() {
    // Paper Fig. 1 (3).
    let (model, _test) = trained_mlp();
    let map = boundary_map(
        &model,
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(2e-3)),
        &BoundaryConfig {
            resolution: 20,
            fault_samples: 400,
            seed: 1,
            ..BoundaryConfig::default()
        },
        &RunControl::new(),
    )
    .unwrap();
    let (near, far) = map.near_far_split();
    assert!(near > far, "near {near} <= far {far}");
    assert!(
        map.margin_correlation < -0.2,
        "corr {}",
        map.margin_correlation
    );
}

#[test]
fn campaign_with_more_samples_certifies_with_smaller_mcse() {
    let (model, test) = trained_mlp();
    let fm = FaultyModel::new(
        model,
        test,
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(2e-3)),
    );
    let mut small = quick_campaign();
    small.chain.samples = 30;
    let mut large = quick_campaign();
    large.chain.samples = 300;
    let rs = run_campaign(&fm, &small, &RunControl::new()).unwrap();
    let rl = run_campaign(&fm, &large, &RunControl::new()).unwrap();
    assert!(rl.completeness.mcse < rs.completeness.mcse);
    assert!(rl.completeness.ess > rs.completeness.ess);
}

#[test]
fn site_scoping_restricts_damage() {
    // Faults confined to one small layer hurt no more than faults
    // everywhere at the same per-bit rate.
    let (model, test) = trained_mlp();
    let p = 5e-3;
    let all = FaultyModel::new(
        model.clone(),
        Arc::clone(&test),
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(p)),
    );
    let one = FaultyModel::new(
        model,
        test,
        &SiteSpec::LayerParams {
            prefix: "fc2".into(),
        },
        Arc::new(BernoulliBitFlip::new(p)),
    );
    let ra = run_campaign(&all, &quick_campaign(), &RunControl::new()).unwrap();
    let ro = run_campaign(&one, &quick_campaign(), &RunControl::new()).unwrap();
    assert!(
        ra.mean_error >= ro.mean_error - 0.03,
        "all-sites {} vs one-layer {}",
        ra.mean_error,
        ro.mean_error
    );
    // And the exposed element counts differ accordingly.
    assert!(all.sites().total_param_elements() > one.sites().total_param_elements());
}
