//! Traditional random fault injection vs BDLFI on the same network and
//! fault model — the methodological comparison at the heart of the paper.
//!
//! The traditional campaign reports an SDC rate with a confidence interval
//! and stops when its budget runs out; BDLFI reports the full error
//! distribution and *certifies* when further injections stop changing the
//! answer (split-R̂ / ESS / MCSE thresholds).
//!
//! ```text
//! cargo run --release --example baseline_vs_bdlfi
//! ```

use bdlfi_suite::baseline::{RandomFi, RandomFiConfig};
use bdlfi_suite::bayes::ChainConfig;
use bdlfi_suite::core::{
    run_campaign, CampaignConfig, EngineError, FaultyModel, KernelChoice, RunControl,
};
use bdlfi_suite::data::gaussian_blobs;
use bdlfi_suite::faults::{BernoulliBitFlip, SiteSpec};
use bdlfi_suite::nn::{mlp, optim::Sgd, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() -> Result<(), EngineError> {
    let mut rng = StdRng::seed_from_u64(4);
    let data = gaussian_blobs(800, 3, 1.2, &mut rng);
    let (train, test) = data.split(0.75, &mut rng);
    let test = Arc::new(test);

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

    let p = 2e-3;
    let fault_model = Arc::new(BernoulliBitFlip::new(p));

    // --- Traditional: same Bernoulli fault model, fixed budget. ---
    println!("## traditional random FI (Bernoulli model, p = {p})");
    let fi = RandomFi::with_fault_model(
        model.clone(),
        Arc::clone(&test),
        &SiteSpec::AllParams,
        Arc::clone(&fault_model) as _,
    );
    for budget in [50usize, 200] {
        let res = fi.run(
            &RandomFiConfig {
                injections: budget,
                seed: 5,
                level: 0.95,
                workers: 0,
            },
            &RunControl::new(),
        )?;
        println!(
            "  {budget:>4} injections: mean error {:.2} %, SDC rate {:.2} (95% Wilson [{:.2}, {:.2}]) — no completeness signal",
            res.mean_error * 100.0,
            res.sdc.rate,
            res.sdc.wilson.0,
            res.sdc.wilson.1
        );
    }

    // --- BDLFI: same model, same fault prior, certified inference. ---
    println!("\n## BDLFI campaign (same fault prior)");
    let fm = FaultyModel::new(model, test, &SiteSpec::AllParams, fault_model);
    let base = CampaignConfig::default();
    let cfg = CampaignConfig {
        chains: 4,
        chain: ChainConfig {
            samples: 200,
            ..base.chain
        },
        kernel: KernelChoice::Prior,
        ..base
    };
    let report = run_campaign(&fm, &cfg, &RunControl::new())?;
    println!("{report}");
    println!();
    println!(
        "both agree on the mean once the budget is large; only BDLFI can say *when* \
         the campaign is complete, and it reports the full distribution, not a rate"
    );
    Ok(())
}
