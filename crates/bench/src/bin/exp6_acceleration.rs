//! Experiment E6 — the paper's §I claim: BDLFI admits *algorithmic
//! acceleration*. In the rare-error regime (small `p`), plain prior
//! sampling wastes almost every sample on configurations that change
//! nothing. Two accelerations are exercised:
//!
//! * **tilted-prior importance sampling** (`KernelChoice::TiltedPrior`) —
//!   draw iid from the fault model with its rate inflated, re-weight each
//!   sample back to the true prior with exact closed-form weights: hits
//!   appear ~factor× more often at equal budget, and the estimate stays
//!   unbiased;
//! * **indicator-tempered MCMC** (`KernelChoice::Tempered`) — target
//!   `π_β ∝ prior · exp(β·1[error])`, which parks the chain on
//!   error-causing configurations: the tool for *exploring which faults
//!   matter* rather than estimating rates.
//!
//! Run with `cargo run --release -p bdlfi-bench --bin exp6_acceleration`.

use bdlfi::{run_campaign, CampaignConfig, EngineError, FaultyModel, KernelChoice, RunControl};
use bdlfi_bayes::ChainConfig;
use bdlfi_bench::harness::{golden_mlp, Scale};
use bdlfi_faults::{BernoulliBitFlip, SiteSpec};
use std::sync::Arc;

fn main() -> Result<(), EngineError> {
    let scale = Scale::from_env();
    let (model, _train, test) = golden_mlp();
    let p = 2e-5; // rare-error regime: E[flips] ~ 0.08 per configuration
    let seeds = [11u64, 12, 13, 14, 15];

    let fm = FaultyModel::new(
        model,
        Arc::clone(&test),
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(p)),
    );

    println!("# E6: rare-event acceleration (MLP, p = {p})");
    println!("# golden error: {:.2} %", fm.golden_error() * 100.0);
    println!();
    println!("## Estimation: tilted-prior importance sampling");
    println!(
        "| kernel | mean estimate of E[error - golden] | std over seeds | hit fraction | IS-ESS |"
    );
    println!("|---|---|---|---|---|");

    for (name, kernel) in [
        ("prior (iid)", KernelChoice::Prior),
        (
            "tilted prior x10",
            KernelChoice::TiltedPrior { factor: 10.0 },
        ),
        (
            "tilted prior x30",
            KernelChoice::TiltedPrior { factor: 30.0 },
        ),
    ] {
        let mut estimates = Vec::new();
        let mut hit_fracs = Vec::new();
        let mut iess_sum = 0.0;
        for &seed in &seeds {
            let cfg = CampaignConfig {
                chains: 2,
                chain: ChainConfig {
                    burn_in: 0,
                    samples: scale.samples,
                    thin: 1,
                },
                kernel,
                seed,
                ..CampaignConfig::default()
            };
            let rep = run_campaign(&fm, &cfg, &RunControl::new())?;
            estimates.push(rep.mean_error - rep.golden_error);
            let hits = rep
                .traces
                .iter()
                .flat_map(|t| t.samples())
                .filter(|&&e| e > rep.golden_error + 1e-12)
                .count();
            hit_fracs.push(hits as f64 / rep.total_samples() as f64);
            iess_sum += rep.importance_ess.unwrap_or(rep.total_samples() as f64);
        }
        let mean = estimates.iter().sum::<f64>() / estimates.len() as f64;
        let std = (estimates.iter().map(|e| (e - mean).powi(2)).sum::<f64>()
            / estimates.len() as f64)
            .sqrt();
        let hit = hit_fracs.iter().sum::<f64>() / hit_fracs.len() as f64;
        println!(
            "| {} | {:.3e} | {:.3e} | {:.3} | {:.0} |",
            name,
            mean,
            std,
            hit,
            iess_sum / seeds.len() as f64
        );
    }
    println!();
    println!(
        "reading: the tilted prior sees errors ~10-30x more often at equal budget and \
         its re-weighted estimates agree with the plain prior; pushing the tilt too \
         far collapses the importance ESS (visible in the x30 row)."
    );
    println!();

    // Exploration: the tempered kernel parks the chain on error-causing
    // configurations once beta exceeds the per-bit prior barrier
    // ln((1-p)/p).
    println!("## Exploration: indicator-tempered MCMC");
    let barrier = ((1.0 - p) / p).ln();
    let beta = barrier + 2.0;
    let cfg = CampaignConfig {
        chains: 2,
        chain: ChainConfig {
            burn_in: scale.burn_in * 4,
            samples: scale.samples,
            thin: 1,
        },
        kernel: KernelChoice::Tempered { beta },
        seed: 21,
        ..CampaignConfig::default()
    };
    let rep = run_campaign(&fm, &cfg, &RunControl::new())?;
    let hits = rep
        .traces
        .iter()
        .flat_map(|t| t.samples())
        .filter(|&&e| e > rep.golden_error + 1e-12)
        .count();
    println!(
        "beta = {beta:.1} (prior barrier {barrier:.1}): hit fraction {:.2} vs prior ~0.01 — \
         the chain concentrates on the error-causing region of the fault space",
        hits as f64 / rep.total_samples() as f64
    );
    println!("mean flips while exploring: {:.2}", rep.mean_flips);
    Ok(())
}
