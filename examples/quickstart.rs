//! Quickstart: train the paper's MLP on a 2-D task, attach the Bernoulli
//! bit-flip fault model to every parameter, and run a BDLFI campaign.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bdlfi_suite::bayes::ChainConfig;
use bdlfi_suite::core::{
    run_campaign, CampaignConfig, EngineError, FaultyModel, KernelChoice, RunControl,
};
use bdlfi_suite::data::gaussian_blobs;
use bdlfi_suite::faults::{BernoulliBitFlip, SiteSpec};
use bdlfi_suite::nn::{evaluate, mlp, optim::Sgd, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() -> Result<(), EngineError> {
    let mut rng = StdRng::seed_from_u64(0);

    // 1. A 2-D, 3-class task and the paper's MLP (2 -> 32 ReLU -> softmax).
    let data = gaussian_blobs(800, 3, 1.2, &mut rng);
    let (train, test) = data.split(0.75, &mut rng);
    let mut model = mlp(2, &[32], 3, &mut rng);

    // 2. Train the golden network.
    let mut trainer = Trainer::new(
        Sgd::new(0.1).with_momentum(0.9),
        TrainConfig {
            epochs: 30,
            batch_size: 32,
            ..TrainConfig::default()
        },
    );
    trainer.fit(&mut model, train.inputs(), train.labels(), &mut rng);
    let golden_acc = evaluate(&mut model, test.inputs(), test.labels(), 64);
    println!("golden test error: {:.2} %", (1.0 - golden_acc) * 100.0);

    // 3. Attach the fault model: every bit of every stored parameter flips
    //    independently with probability p (the per-bit AVF model).
    let p = 1e-3;
    let fm = FaultyModel::new(
        model,
        Arc::new(test),
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(p)),
    );

    // 4. Infer the distribution of classification error under faults with
    //    MCMC, and certify campaign completeness from chain mixing.
    let base = CampaignConfig::default();
    let cfg = CampaignConfig {
        kernel: KernelChoice::Prior,
        chains: 3,
        chain: ChainConfig {
            samples: 150,
            ..base.chain
        },
        ..base
    };
    let report = run_campaign(&fm, &cfg, &RunControl::new())?;

    println!("{report}");
    println!();
    println!("inferred error distribution (paper Fig. 1 (3), right panel):");
    println!("{}", report.render_distribution());
    println!(
        "faults at p = {p} add {:.2} percentage points of error on average",
        report.error_increase_pct()
    );
    Ok(())
}
