//! Experiment E7 — fault-model ablation: which bit positions of the
//! IEEE-754 representation actually hurt, and which sites (weights vs
//! activations) propagate the damage.
//!
//! The paper's fault model treats all 32 bits uniformly (per-bit AVF);
//! this ablation quantifies how much of the measured error budget comes
//! from the exponent field vs mantissa vs sign, and compares
//! parameter-resident faults with transient activation faults at the same
//! per-bit rate — the kind of design-space question BDLFI makes cheap.
//!
//! Run with `cargo run --release -p bdlfi-bench --bin exp7_bit_ablation`.

use bdlfi::{run_campaign, CampaignConfig, EngineError, FaultyModel, KernelChoice, RunControl};
use bdlfi_bayes::ChainConfig;
use bdlfi_bench::harness::{golden_mlp, pct, Scale};
use bdlfi_faults::{BernoulliBitFlip, BitRange, FaultModel, SiteSpec};
use std::sync::Arc;

fn main() -> Result<(), EngineError> {
    let scale = Scale::from_env();
    let (model, _train, test) = golden_mlp();
    let p = 3e-3;

    let cfg = CampaignConfig {
        chains: scale.chains.min(2),
        chain: ChainConfig {
            burn_in: 0,
            samples: scale.samples,
            thin: 1,
        },
        kernel: KernelChoice::Prior,
        seed: 7,
        ..CampaignConfig::default()
    };

    println!("# E7: bit-position and site ablation (MLP, per-bit p = {p})");
    println!();
    println!("## Bit-field ablation (faults in all parameters)");
    println!("| bit field | bits | error % (mean) | excess over golden (pp) |");
    println!("|---|---|---|---|");

    let fields: [(&str, BitRange); 4] = [
        ("all 32 (paper model)", BitRange::all()),
        ("exponent (23-30)", BitRange::exponent()),
        ("sign (31)", BitRange::sign()),
        ("mantissa (0-22)", BitRange::mantissa()),
    ];
    for (name, bits) in fields {
        let fault_model: Arc<dyn FaultModel> = Arc::new(BernoulliBitFlip::with_bits(p, bits));
        let fm = FaultyModel::new(
            model.clone(),
            Arc::clone(&test),
            &SiteSpec::AllParams,
            fault_model,
        );
        let rep = run_campaign(&fm, &cfg, &RunControl::new())?;
        println!(
            "| {} | {} | {} | {:.2} |",
            name,
            bits.len(),
            pct(rep.mean_error),
            rep.error_increase_pct()
        );
    }
    println!();
    println!("expected shape: exponent flips dominate; mantissa flips are nearly harmless.");
    println!();

    println!("## Site ablation (all 32 bits, same per-bit rate)");
    println!("| site | error % (mean) | excess over golden (pp) |");
    println!("|---|---|---|");
    let sites: [(&str, SiteSpec); 4] = [
        ("weights+biases (resident)", SiteSpec::AllParams),
        (
            "hidden activations (transient)",
            SiteSpec::Activations(vec!["fc1".into(), "relu1".into()]),
        ),
        (
            "output logits (transient)",
            SiteSpec::Activations(vec!["fc2".into()]),
        ),
        ("network input (transient)", SiteSpec::Input),
    ];
    for (name, spec) in sites {
        let fm = FaultyModel::new(
            model.clone(),
            Arc::clone(&test),
            &spec,
            Arc::new(BernoulliBitFlip::new(p)),
        );
        let rep = run_campaign(&fm, &cfg, &RunControl::new())?;
        println!(
            "| {} | {} | {:.2} |",
            name,
            pct(rep.mean_error),
            rep.error_increase_pct()
        );
    }
    println!();
    println!(
        "paper reading: the Bernoulli-AVF formalism extends unchanged across bit fields \
         and sites — only the prior changes, the inference machinery does not"
    );
    Ok(())
}
