//! Experiment E9 — the adaptive campaign: "inject until further injections
//! do not change the measured hypothesis", run as a closed loop.
//!
//! [`bdlfi::run_campaign_adaptive`] extends the chains in segments and
//! stops at the first segment boundary where the completeness criteria
//! (split-R̂, ESS, MCSE) certify. This binary shows the consumed budget
//! adapting to problem difficulty: low-variance targets certify in one or
//! two segments, high-variance targets keep drawing.
//!
//! Run with `cargo run --release -p bdlfi-bench --bin exp9_adaptive`.

use bdlfi::{
    run_campaign_adaptive, CampaignConfig, CompletenessCriteria, EngineError, FaultyModel,
    KernelChoice, RunControl,
};
use bdlfi_bayes::ChainConfig;
use bdlfi_bench::harness::{golden_mlp, pct, Scale};
use bdlfi_faults::{BernoulliBitFlip, SiteSpec};
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<(), EngineError> {
    let scale = Scale::from_env();
    let (model, _train, test) = golden_mlp();

    println!("# E9: adaptive (run-until-certified) campaigns, MLP");
    println!("# segment = 50 samples/chain, 3 chains, cap = 2000 samples/chain");
    println!();
    println!("| p | samples/chain used | total injections | R-hat | ESS | MCSE | certified | error % | wall |");
    println!("|---|---|---|---|---|---|---|---|---|");

    for p in [1e-5, 1e-4, 1e-3, 5e-3, 2e-2] {
        let fm = FaultyModel::new(
            model.clone(),
            Arc::clone(&test),
            &SiteSpec::AllParams,
            Arc::new(BernoulliBitFlip::new(p)),
        );
        let cfg = CampaignConfig {
            chains: scale.chains.max(3),
            chain: ChainConfig {
                burn_in: 0,
                samples: 50,
                thin: 1,
            },
            kernel: KernelChoice::Prior,
            seed: 9,
            criteria: CompletenessCriteria::default(),
            workers: 0,
        };
        let start = Instant::now();
        let rep = run_campaign_adaptive(&fm, &cfg, 2000, &RunControl::new())?;
        let wall = start.elapsed();
        println!(
            "| {:.0e} | {} | {} | {:.3} | {:.0} | {:.4} | {} | {} | {:.1?} |",
            p,
            rep.traces[0].len(),
            rep.total_samples(),
            rep.completeness.rhat,
            rep.completeness.ess,
            rep.completeness.mcse,
            if rep.completeness.certified {
                "yes"
            } else {
                "capped"
            },
            pct(rep.mean_error),
            wall
        );
    }
    println!();
    println!(
        "reading: the injection budget is no longer a user guess — easy (low-variance) \
         regimes certify within a segment or two, hard regimes keep sampling until the \
         MCSE criterion is met or the cap is reached"
    );
    Ok(())
}
