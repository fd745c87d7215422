//! Fault attribution and protection planning: from "how often do faults
//! break the network?" to "what do we harden?".
//!
//! Uses the indicator-tempered explorer to build an error-conditioned
//! posterior over fault locations (which parameters / bit positions are to
//! blame), then derives a protection domain over the input space from a
//! boundary map (the paper's "threshold on the regions of the feature
//! space that need more protection").
//!
//! ```text
//! cargo run --release --example fault_attribution
//! ```

use bdlfi_suite::core::{
    attribute_faults, boundary_map, plan_protection, BoundaryConfig, EngineError, FaultyModel,
    RunControl,
};
use bdlfi_suite::data::gaussian_blobs;
use bdlfi_suite::faults::{BernoulliBitFlip, SiteSpec};
use bdlfi_suite::nn::{mlp, optim::Sgd, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() -> Result<(), EngineError> {
    let mut rng = StdRng::seed_from_u64(6);
    let data = gaussian_blobs(800, 3, 1.2, &mut rng);
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

    // --- Which memory locations cause the errors? ---
    let p = 2e-5; // rare-fault regime
    let fm = FaultyModel::new(
        model.clone(),
        Arc::new(test),
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(p)),
    );
    println!("exploring the error-conditioned fault posterior (p = {p})...");
    let report = attribute_faults(&fm, 300, None, 9, &RunControl::new())?;

    println!(
        "\ncollected {} error-conditioned samples (hit rate {:.2})",
        report.samples, report.hit_rate
    );
    println!("\nmost implicated parameter sites:");
    println!("| site | elements | hit share | mean flips |");
    println!("|---|---|---|---|");
    for s in report.top_sites(4) {
        println!(
            "| {} | {} | {:.2} | {:.2} |",
            s.path, s.elements, s.hit_share, s.mean_flips
        );
    }
    println!(
        "\nexponent-bit share of error-causing flips: {:.0} % (8 of 32 positions)",
        report.exponent_share() * 100.0
    );
    println!("=> selective ECC on exponent bits of the implicated tensors buys the most safety");

    // --- Which inputs need protection? ---
    println!("\nderiving a protection domain over the input space...");
    let map = boundary_map(
        &model,
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(2e-3)),
        &BoundaryConfig {
            resolution: 32,
            fault_samples: 150,
            seed: 10,
            ..BoundaryConfig::default()
        },
        &RunControl::new(),
    )?;
    // Set targets relative to the map's overall risk level: margin
    // thresholding can only push the unprotected mean towards the
    // far-from-boundary floor.
    let overall = map.error_prob.iter().sum::<f64>() / map.error_prob.len() as f64;
    let (near, far) = map.near_far_split();
    println!(
        "overall error prob {:.2} % (near boundary {:.2} %, far {:.2} %)",
        overall * 100.0,
        near * 100.0,
        far * 100.0
    );
    for target in [overall * 0.95, overall * 0.85, overall * 0.75] {
        match plan_protection(&map, target) {
            Some(plan) => println!(
                "target error {:>4.1} %: protect margins < {:.3} -> {:.0} % of input space \
                 (risk concentration {:.1}x)",
                target * 100.0,
                plan.margin_threshold,
                plan.protected_fraction * 100.0,
                plan.concentration()
            ),
            None => println!(
                "target error {:>4.1} %: below the far-from-boundary floor — \
                 unreachable by margin thresholding alone",
                target * 100.0
            ),
        }
    }
    Ok(())
}
