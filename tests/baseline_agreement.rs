//! BDLFI and traditional Monte Carlo fault injection estimate the same
//! quantity when given the same fault prior: in the large-sample limit
//! their mean-error estimates must agree. (BDLFI's advantages are the
//! completeness certificate, the full distribution and the acceleration
//! hooks — not a different answer.)

use bdlfi_suite::baseline::{RandomFi, RandomFiConfig};
use bdlfi_suite::bayes::ChainConfig;
use bdlfi_suite::core::{run_campaign, CampaignConfig, FaultyModel, KernelChoice, RunControl};
use bdlfi_suite::data::{gaussian_blobs, Dataset};
use bdlfi_suite::faults::{BernoulliBitFlip, SiteSpec};
use bdlfi_suite::nn::{mlp, optim::Sgd, Sequential, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn trained() -> (Sequential, Arc<Dataset>) {
    let mut rng = StdRng::seed_from_u64(200);
    let data = gaussian_blobs(500, 3, 1.0, &mut rng);
    let (train, test) = data.split(0.7, &mut rng);
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
fn mean_error_estimates_agree_in_the_large_sample_limit() {
    let (model, test) = trained();
    let p = 3e-3;
    let fault_model = Arc::new(BernoulliBitFlip::new(p));

    // Traditional MC with the same Bernoulli prior.
    let fi = RandomFi::with_fault_model(
        model.clone(),
        Arc::clone(&test),
        &SiteSpec::AllParams,
        Arc::clone(&fault_model) as _,
    );
    let mc = fi
        .run(
            &RandomFiConfig {
                injections: 600,
                seed: 1,
                level: 0.95,
                workers: 0,
            },
            &RunControl::new(),
        )
        .unwrap();

    // BDLFI with the prior kernel.
    let fm = FaultyModel::new(model, test, &SiteSpec::AllParams, fault_model);
    let cfg = CampaignConfig {
        chains: 3,
        chain: ChainConfig {
            burn_in: 0,
            samples: 200,
            thin: 1,
        },
        kernel: KernelChoice::Prior,
        ..CampaignConfig::default()
    };
    let bdlfi = run_campaign(&fm, &cfg, &RunControl::new()).unwrap();

    assert_eq!(mc.golden_error, bdlfi.golden_error, "same golden run");
    assert!(
        (mc.mean_error - bdlfi.mean_error).abs() < 0.03,
        "traditional {} vs BDLFI {}",
        mc.mean_error,
        bdlfi.mean_error
    );
}

#[test]
fn golden_error_is_identical_across_tools() {
    let (model, test) = trained();
    let fi = RandomFi::new(model.clone(), Arc::clone(&test), &SiteSpec::AllParams);
    let fm = FaultyModel::new(
        model,
        test,
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(1e-4)),
    );
    assert_eq!(fi.golden_error(), fm.golden_error());
}

#[test]
fn single_bit_flips_rarely_corrupt_but_sometimes_do() {
    // Classical single-bit campaigns on a trained MLP: most single flips
    // are masked (low mantissa bits), some corrupt (high exponent bits) —
    // the SDC rate must be strictly between 0 and 1 with enough runs.
    let (model, test) = trained();
    let fi = RandomFi::new(model, test, &SiteSpec::AllParams);
    let res = fi
        .run(
            &RandomFiConfig {
                injections: 400,
                seed: 2,
                level: 0.95,
                workers: 0,
            },
            &RunControl::new(),
        )
        .unwrap();
    assert!(res.sdc.rate > 0.0, "no corruption in 400 single-bit flips");
    assert!(res.sdc.rate < 1.0, "every single-bit flip corrupted");
    // Interval is meaningful.
    assert!(res.sdc.wilson.0 < res.sdc.rate && res.sdc.rate < res.sdc.wilson.1);
}

#[test]
fn bdlfi_reports_completeness_baseline_does_not() {
    // The structural difference the paper emphasises: the BDLFI report
    // carries a certification verdict; the baseline result type carries
    // only interval estimates (checked here by what the types expose).
    let (model, test) = trained();
    let fm = FaultyModel::new(
        model.clone(),
        Arc::clone(&test),
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(1e-3)),
    );
    let base = CampaignConfig::default();
    let cfg = CampaignConfig {
        chains: 2,
        chain: ChainConfig {
            samples: 50,
            ..base.chain
        },
        ..base
    };
    let report = run_campaign(&fm, &cfg, &RunControl::new()).unwrap();
    // Certification verdict and its evidence exist and are consistent.
    let c = report.completeness;
    let manual = c.rhat <= cfg.criteria.max_rhat
        && c.ess >= cfg.criteria.min_ess
        && c.mcse <= cfg.criteria.max_mcse;
    assert_eq!(c.certified, manual && c.rhat.is_finite());
}
