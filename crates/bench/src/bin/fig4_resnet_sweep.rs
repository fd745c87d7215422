//! Regenerates paper Fig. 4: classification error (%) of ResNet-18 as a
//! function of the per-bit flip probability, faults in all layers, with
//! the golden-run reference line.
//!
//! Paper finding reproduced: the same *two-regime* shape as the MLP
//! (Fig. 2), starting from the higher ResNet golden error band (~30 % in
//! the paper; the synth-CIFAR substitute is tuned to the same band).
//!
//! Note on the x-range: the knee sits where the *expected number of
//! flipped bits* `p · 32 · #params` reaches order one, so its location in
//! `p` scales inversely with network size. This ResNet-18 exposes ~7e5
//! parameters (2.2e7 bits), so the informative range is `1e-8 … 1e-3`;
//! the table reports the expected flip count alongside `p` to make the
//! correspondence with the paper's axis explicit.
//!
//! Run with `cargo run --release -p bdlfi-bench --bin fig4_resnet_sweep`.

use bdlfi::{
    log_spaced_probabilities, run_sweep, CampaignConfig, EngineError, KernelChoice, RunControl,
};
use bdlfi_bayes::ChainConfig;
use bdlfi_bench::harness::{artifacts_dir, golden_resnet, pct, Scale};
use bdlfi_faults::SiteSpec;

fn main() -> Result<(), EngineError> {
    let scale = Scale::from_env();
    let (model, _train, eval) = golden_resnet(scale.resnet_eval);

    let cfg = CampaignConfig {
        chains: scale.chains.min(2),
        chain: ChainConfig {
            burn_in: 0,
            samples: (scale.samples / 3).max(20),
            thin: 1,
        },
        kernel: KernelChoice::Prior,
        seed: 4,
        ..CampaignConfig::default()
    };
    let ps = log_spaced_probabilities(1e-8, 1e-3, scale.sweep_points.min(7));

    println!("# Fig. 4: ResNet-18 classification error vs flip probability (all layers)");
    println!(
        "# {} chains x {} samples per p, eval set {}",
        cfg.chains,
        cfg.chain.samples,
        eval.len()
    );
    println!();

    let sweep = run_sweep(
        &model,
        &eval,
        &SiteSpec::AllParams,
        &ps,
        &cfg,
        &RunControl::new(),
    )?;

    println!("| p | E[flips] | error % (mean) | q05 % | q95 % | R-hat | certified |");
    println!("|---|---|---|---|---|---|---|");
    for pt in &sweep.points {
        let r = &pt.report;
        println!(
            "| {:.1e} | {:.1} | {} | {} | {} | {:.3} | {} |",
            pt.p,
            r.mean_flips,
            pct(r.mean_error),
            pct(r.summary.q05),
            pct(r.summary.q95),
            r.completeness.rhat,
            if r.completeness.certified {
                "yes"
            } else {
                "no"
            }
        );
    }
    println!();
    println!("golden run error: {} %", pct(sweep.golden_error));

    if let Some(knee) = sweep.knee() {
        println!(
            "two-regime fit: knee at p = {:.2e} (left slope {:.4}, right slope {:.4} error/decade)",
            knee.knee_p, knee.fit.left_slope, knee.fit.right_slope
        );
    }

    let out = artifacts_dir().join("fig4_resnet_sweep.json");
    std::fs::write(&out, serde_json::to_string_pretty(&sweep.points).unwrap()).unwrap();
    eprintln!("[fig4] sweep saved to {}", out.display());
    Ok(())
}
