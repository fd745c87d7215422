//! Experiment E8 — kernel ablation: how do the MCMC kernels BDLFI can run
//! (iid prior, exact-conditional Gibbs, local bit toggles, mixtures)
//! compare on mixing efficiency at equal sample budgets?
//!
//! Metric: effective sample size of the error statistic per recorded
//! sample, plus acceptance rates and the resulting estimates. This is the
//! design-choice ablation behind DESIGN.md's kernel menu: local kernels
//! buy reuse (cheap incremental proposals, tempering hooks) at the price
//! of autocorrelation; the prior kernel is iid but cannot be tempered.
//!
//! Run with `cargo run --release -p bdlfi-bench --bin exp8_kernels`.

use bdlfi::{run_campaign, CampaignConfig, EngineError, FaultyModel, KernelChoice, RunControl};
use bdlfi_bayes::ChainConfig;
use bdlfi_bench::harness::{golden_mlp, pct, Scale};
use bdlfi_faults::{BernoulliBitFlip, SiteSpec};
use std::sync::Arc;

fn main() -> Result<(), EngineError> {
    let scale = Scale::from_env();
    let (model, _train, test) = golden_mlp();
    let p = 3e-3;

    let fm = FaultyModel::new(
        model,
        test,
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(p)),
    );

    println!("# E8: MCMC kernel ablation (MLP, p = {p}, equal budgets)");
    println!("# golden error {} %", pct(fm.golden_error()));
    println!();
    println!("| kernel | mean error % | R-hat | ESS | ESS/sample | mean acceptance | certified |");
    println!("|---|---|---|---|---|---|---|");

    let kernels: [(&str, KernelChoice, usize); 5] = [
        ("prior (iid)", KernelChoice::Prior, 0),
        (
            "gibbs (exact conditional)",
            KernelChoice::Gibbs { p },
            scale.burn_in * 4,
        ),
        (
            "single-bit toggle",
            KernelChoice::BitToggle { block: 1 },
            scale.burn_in * 4,
        ),
        (
            "8-bit block toggle",
            KernelChoice::BitToggle { block: 8 },
            scale.burn_in * 4,
        ),
        (
            "mixture (10% refresh)",
            KernelChoice::Mixture {
                refresh_weight: 0.1,
            },
            scale.burn_in * 2,
        ),
    ];

    for (name, kernel, burn_in) in kernels {
        let cfg = CampaignConfig {
            chains: scale.chains,
            chain: ChainConfig {
                burn_in,
                samples: scale.samples * 2,
                thin: 1,
            },
            kernel,
            seed: 8,
            ..CampaignConfig::default()
        };
        let rep = run_campaign(&fm, &cfg, &RunControl::new())?;
        let total = rep.total_samples() as f64;
        let mean_acc = rep.acceptance_rates.iter().sum::<f64>() / rep.acceptance_rates.len() as f64;
        println!(
            "| {} | {} | {:.3} | {:.0} | {:.3} | {:.3} | {} |",
            name,
            pct(rep.mean_error),
            rep.completeness.rhat,
            rep.completeness.ess,
            rep.completeness.ess / total,
            mean_acc,
            if rep.completeness.certified {
                "yes"
            } else {
                "NO"
            }
        );
    }
    println!();
    println!(
        "reading: the iid prior maximises ESS/sample for plain campaigns; the purely \
         local kernels (Gibbs/single-bit) mix in O(bits/p) steps and at this budget \
         never leave the clean initial state — their mean error is WRONG (= golden), \
         and crucially R-hat alone cannot detect it (all chains are stuck in the same \
         state), but the ESS criterion does: certification correctly fails. This is \
         the completeness machinery protecting against a plausible-looking but \
         unconverged campaign. The mixture's occasional prior refreshes restore \
         mobility at a modest ESS cost."
    );
    Ok(())
}
