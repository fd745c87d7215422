//! Regenerates paper Fig. 2: classification error (%) of the MLP as a
//! function of the per-bit flip probability `p ∈ [1e-5, 1e-1]`, faults in
//! all layers, with the golden-run reference line.
//!
//! Paper finding reproduced: *two regimes* — error hugs the golden run for
//! small `p`, then climbs steeply past a knee; the knee is located by a
//! two-segment fit in `(log10 p, error)`.
//!
//! Run with `cargo run --release -p bdlfi-bench --bin fig2_mlp_sweep`.

use bdlfi::{
    log_spaced_probabilities, run_sweep, CampaignConfig, EngineError, KernelChoice, RunControl,
};
use bdlfi_bayes::ChainConfig;
use bdlfi_bench::harness::{artifacts_dir, golden_mlp, pct, Scale};
use bdlfi_faults::SiteSpec;

fn main() -> Result<(), EngineError> {
    let scale = Scale::from_env();
    let (model, _train, test) = golden_mlp();

    let cfg = CampaignConfig {
        chains: scale.chains,
        chain: ChainConfig {
            burn_in: scale.burn_in,
            samples: scale.samples,
            thin: 1,
        },
        kernel: KernelChoice::Prior,
        seed: 2,
        ..CampaignConfig::default()
    };
    let ps = log_spaced_probabilities(1e-5, 1e-1, scale.sweep_points);

    println!("# Fig. 2: MLP classification error vs flip probability (all layers)");
    println!(
        "# {} chains x {} samples per p; golden run plotted as reference",
        cfg.chains, cfg.chain.samples
    );
    println!();

    let sweep = run_sweep(
        &model,
        &test,
        &SiteSpec::AllParams,
        &ps,
        &cfg,
        &RunControl::new(),
    )?;

    println!("| p | error % (mean) | q05 % | q95 % | R-hat | ESS | certified |");
    println!("|---|---|---|---|---|---|---|");
    for pt in &sweep.points {
        let r = &pt.report;
        println!(
            "| {:.1e} | {} | {} | {} | {:.3} | {:.0} | {} |",
            pt.p,
            pct(r.mean_error),
            pct(r.summary.q05),
            pct(r.summary.q95),
            r.completeness.rhat,
            r.completeness.ess,
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
        println!(
            "paper reading: flat regime below the knee, steep regime above -> operate at the knee for the performance/reliability trade-off"
        );
    }

    let out = artifacts_dir().join("fig2_mlp_sweep.json");
    std::fs::write(&out, serde_json::to_string_pretty(&sweep.points).unwrap()).unwrap();
    eprintln!("[fig2] sweep saved to {}", out.display());
    Ok(())
}
