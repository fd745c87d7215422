//! Experiment E5 — the paper's §I claim: BDLFI can *quantify completeness*
//! of an injection campaign via MCMC mixing ("when further injections do
//! not change the measured hypothesis"), which traditional FI cannot.
//!
//! Protocol: run a long MLP campaign, then assess growing prefixes of the
//! chains against the certification criteria (R̂, ESS, MCSE) and report
//! the first prefix length that certifies. For the comparator, report how
//! the traditional campaign's confidence-interval width shrinks with its
//! budget — an interval narrows forever but never *says* "done"
//! structurally; certification does.
//!
//! Run with `cargo run --release -p bdlfi-bench --bin exp5_completeness`.

use bdlfi::{
    assess, run_campaign, samples_to_certify, CampaignConfig, CompletenessCriteria, EngineError,
    FaultyModel, KernelChoice, RunControl,
};
use bdlfi_baseline::{RandomFi, RandomFiConfig};
use bdlfi_bayes::{ChainConfig, Trace};
use bdlfi_bench::harness::{golden_mlp, pct, Scale};
use bdlfi_faults::{BernoulliBitFlip, SiteSpec};
use std::sync::Arc;

fn main() -> Result<(), EngineError> {
    let scale = Scale::from_env();
    let (model, _train, test) = golden_mlp();
    let p = 3e-3;

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
            samples: scale.samples * 4,
            thin: 1,
        },
        kernel: KernelChoice::Prior,
        seed: 5,
        ..CampaignConfig::default()
    };

    println!("# E5: campaign completeness via MCMC mixing (MLP, p = {p})");
    println!();

    let report = run_campaign(&fm, &cfg, &RunControl::new())?;
    let criteria = CompletenessCriteria::default();

    println!("| samples/chain | R-hat | ESS | MCSE | certified | running mean error % |");
    println!("|---|---|---|---|---|---|");
    let n = report.traces[0].len();
    let step = (n / 10).max(10);
    let mut k = step;
    while k <= n {
        let prefixes: Vec<Trace> = report
            .traces
            .iter()
            .map(|t| Trace::from_samples(t.samples()[..k].to_vec()))
            .collect();
        let c = assess(&prefixes, &criteria);
        let pooled: Trace = prefixes
            .iter()
            .flat_map(|t| t.samples().iter().copied())
            .collect();
        println!(
            "| {} | {:.4} | {:.0} | {:.5} | {} | {} |",
            k,
            c.rhat,
            c.ess,
            c.mcse,
            if c.certified { "YES" } else { "no" },
            pct(pooled.mean())
        );
        k += step;
    }
    println!();

    match samples_to_certify(&report.traces, &criteria, step) {
        Some(k) => println!(
            "certification reached at {} samples/chain ({} total injections)",
            k,
            k * report.traces.len()
        ),
        None => println!("campaign never certified at this budget — increase samples"),
    }
    println!();

    // Traditional comparator: CI width vs budget, no structural stop rule.
    println!("## Traditional FI comparator: Wilson CI width vs budget");
    println!("| injections | SDC rate | 95% CI width |");
    println!("|---|---|---|");
    for budget in [25usize, 50, 100, 200, 400] {
        let fi = RandomFi::with_fault_model(
            model.clone(),
            Arc::clone(&test),
            &SiteSpec::AllParams,
            Arc::new(BernoulliBitFlip::new(p)),
        );
        let res = fi.run(
            &RandomFiConfig {
                injections: budget,
                seed: 6,
                level: 0.95,
                workers: 0,
            },
            &RunControl::new(),
        )?;
        println!(
            "| {} | {:.3} | {:.3} |",
            budget,
            res.sdc.rate,
            res.sdc.wilson.1 - res.sdc.wilson.0
        );
    }
    println!();
    println!(
        "paper reading: the CI narrows smoothly but gives no principled stopping point; \
         BDLFI's mixing criteria define one"
    );
    Ok(())
}
