//! Integration tests for the adaptive (run-until-certified) campaign mode
//! and the transient fault sites (inputs, activations) across the stack.

use bdlfi_suite::bayes::ChainConfig;
use bdlfi_suite::core::{
    run_campaign, run_campaign_adaptive, CampaignConfig, CompletenessCriteria, FaultyModel,
    RunControl,
};
use bdlfi_suite::data::{gaussian_blobs, Dataset};
use bdlfi_suite::faults::{BernoulliBitFlip, SiteSpec};
use bdlfi_suite::nn::{mlp, optim::Sgd, Sequential, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn trained() -> (Sequential, Arc<Dataset>) {
    let mut rng = StdRng::seed_from_u64(400);
    let data = gaussian_blobs(400, 3, 1.0, &mut rng);
    let (train, test) = data.split(0.75, &mut rng);
    let mut model = mlp(2, &[24], 3, &mut rng);
    let mut trainer = Trainer::new(
        Sgd::new(0.1).with_momentum(0.9),
        TrainConfig {
            epochs: 25,
            batch_size: 32,
            ..TrainConfig::default()
        },
    );
    trainer.fit(&mut model, train.inputs(), train.labels(), &mut rng);
    (model, Arc::new(test))
}

#[test]
fn adaptive_certifies_with_fewer_samples_on_easy_targets() {
    let (model, test) = trained();
    // Tiny p: the error statistic is almost constant -> certifies quickly.
    let easy = FaultyModel::new(
        model.clone(),
        Arc::clone(&test),
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(1e-6)),
    );
    // Large p: wildly varying errors -> needs more samples for the MCSE.
    let hard = FaultyModel::new(
        model,
        test,
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(1e-2)),
    );
    let cfg = CampaignConfig {
        chains: 2,
        chain: ChainConfig {
            burn_in: 0,
            samples: 40, // segment
            thin: 1,
        },
        criteria: CompletenessCriteria {
            max_rhat: 1.1,
            min_ess: 50.0,
            max_mcse: 0.015,
        },
        ..CampaignConfig::default()
    };

    let easy_rep = run_campaign_adaptive(&easy, &cfg, 2000, &RunControl::new()).unwrap();
    let hard_rep = run_campaign_adaptive(&hard, &cfg, 2000, &RunControl::new()).unwrap();
    assert!(easy_rep.completeness.certified);
    assert!(
        easy_rep.total_samples() <= hard_rep.total_samples(),
        "easy {} vs hard {}",
        easy_rep.total_samples(),
        hard_rep.total_samples()
    );
}

#[test]
fn input_faults_behave_like_a_transient_site() {
    let (model, test) = trained();
    let fm_input = FaultyModel::new(
        model.clone(),
        Arc::clone(&test),
        &SiteSpec::Input,
        Arc::new(BernoulliBitFlip::new(1e-3)),
    );
    assert!(fm_input.sites().input);
    assert!(fm_input.sites().params.is_empty());

    let cfg = CampaignConfig {
        chains: 2,
        chain: ChainConfig {
            burn_in: 0,
            samples: 40,
            thin: 1,
        },
        ..CampaignConfig::default()
    };
    let rep = run_campaign(&fm_input, &cfg, &RunControl::new()).unwrap();
    // Input faults at this rate measurably perturb some samples but the
    // distribution stays valid.
    assert!((0.0..=1.0).contains(&rep.mean_error));
    assert!(rep.mean_error >= rep.golden_error - 0.05);
    // Parameter-space flips are zero: the MCMC state stays clean, all
    // variation comes from transient input masks.
    assert_eq!(rep.mean_flips, 0.0);
}

#[test]
fn input_faults_at_extreme_rate_destroy_accuracy() {
    let (model, test) = trained();
    let mut fm = FaultyModel::new(
        model,
        test,
        &SiteSpec::Input,
        Arc::new(BernoulliBitFlip::new(0.2)),
    );
    let mut rng = StdRng::seed_from_u64(1);
    let golden = fm.golden_error();
    let mut total = 0.0;
    for _ in 0..10 {
        total += fm.eval_error(&bdlfi_suite::faults::FaultConfig::clean(), &mut rng);
    }
    let mean = total / 10.0;
    assert!(mean > golden + 0.2, "mean {mean} vs golden {golden}");
}

#[test]
fn activation_and_param_sites_compose_through_specs() {
    // Run the same model under three specs; all must produce coherent,
    // seed-reproducible campaigns.
    let (model, test) = trained();
    let specs = [
        SiteSpec::AllParams,
        SiteSpec::Activations(vec!["relu1".into()]),
        SiteSpec::Input,
    ];
    let cfg = CampaignConfig {
        chains: 2,
        chain: ChainConfig {
            burn_in: 0,
            samples: 20,
            thin: 1,
        },
        ..CampaignConfig::default()
    };
    for spec in specs {
        let fm = FaultyModel::new(
            model.clone(),
            Arc::clone(&test),
            &spec,
            Arc::new(BernoulliBitFlip::new(1e-3)),
        );
        let a = run_campaign(&fm, &cfg, &RunControl::new()).unwrap();
        let b = run_campaign(&fm, &cfg, &RunControl::new()).unwrap();
        assert_eq!(
            a.traces[0].samples(),
            b.traces[0].samples(),
            "spec {spec:?}"
        );
    }
}
