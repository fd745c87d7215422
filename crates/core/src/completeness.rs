//! Campaign completeness certification via MCMC mixing.
//!
//! The paper's headline advantage over traditional fault injection:
//! "the ability to quantify 'completeness' of an injection campaign (i.e.,
//! when further injections do not change the measured hypothesis) using
//! MCMC-mixing". A campaign is *certified* when the chains agree
//! (split-R̂), carry enough information (ESS) and pin the estimate down
//! (Monte Carlo standard error).

use bdlfi_bayes::{ess_slices, mcse_from_ess, split_rhat_slices, Trace};
use serde::{Deserialize, Serialize};

/// Thresholds a campaign must meet to be certified complete.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompletenessCriteria {
    /// Maximum acceptable split-R̂ (conventionally 1.01).
    pub max_rhat: f64,
    /// Minimum effective sample size across chains.
    pub min_ess: f64,
    /// Maximum Monte Carlo standard error of the pooled mean, in the units
    /// of the statistic (classification error is a fraction in `[0, 1]`).
    pub max_mcse: f64,
}

impl Default for CompletenessCriteria {
    fn default() -> Self {
        CompletenessCriteria {
            max_rhat: 1.01,
            min_ess: 400.0,
            max_mcse: 0.01,
        }
    }
}

/// The mixing evidence for one campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompletenessReport {
    /// Split-R̂ across chains.
    pub rhat: f64,
    /// Effective sample size across chains.
    pub ess: f64,
    /// Monte Carlo standard error of the pooled mean.
    pub mcse: f64,
    /// Whether all criteria are met.
    pub certified: bool,
}

/// Assesses a set of chains against the criteria.
///
/// Single-chain campaigns can still certify on ESS and MCSE; a `NaN` R̂
/// (undefined, e.g. too few samples) fails certification, but an R̂ of
/// exactly 1.0 from constant traces passes (a statistic that never moves
/// is maximally converged).
pub fn assess(chains: &[Trace], criteria: &CompletenessCriteria) -> CompletenessReport {
    let slices: Vec<&[f64]> = chains.iter().map(Trace::samples).collect();
    assess_slices(&slices, criteria)
}

/// [`assess`] on borrowed sample slices — lets growing-prefix scans and
/// per-segment checks avoid cloning chains into fresh [`Trace`]s. The ESS
/// is computed once and the MCSE derived from it.
pub fn assess_slices(chains: &[&[f64]], criteria: &CompletenessCriteria) -> CompletenessReport {
    let rhat = split_rhat_slices(chains);
    let e = ess_slices(chains);
    let m = mcse_from_ess(chains, e);
    // Constant traces have zero variance: mcse = 0, which certifies.
    let rhat_ok = rhat.is_finite() && rhat <= criteria.max_rhat;
    let ess_ok = e.is_finite() && e >= criteria.min_ess;
    let mcse_ok = m.is_finite() && m <= criteria.max_mcse;
    CompletenessReport {
        rhat,
        ess: e,
        mcse: m,
        certified: rhat_ok && ess_ok && mcse_ok,
    }
}

/// The number of recorded samples per chain after which the campaign first
/// certifies, assessed on growing prefixes in steps of `step` — the E5
/// experiment ("injections needed before the hypothesis stops moving").
///
/// Returns `None` if the full traces never certify.
///
/// # Panics
///
/// Panics if `step == 0`.
pub fn samples_to_certify(
    chains: &[Trace],
    criteria: &CompletenessCriteria,
    step: usize,
) -> Option<usize> {
    assert!(step > 0, "step must be positive");
    let n = chains.iter().map(Trace::len).min().unwrap_or(0);
    let mut k = step;
    while k <= n {
        // Borrow each prefix instead of cloning it into a fresh Trace —
        // the scan is O(n·k_certify) in samples touched, not O(n²) allocated.
        let prefixes: Vec<&[f64]> = chains.iter().map(|c| &c.samples()[..k]).collect();
        if assess_slices(&prefixes, criteria).certified {
            return Some(k);
        }
        k += step;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdlfi_bayes::dist::{Distribution, Normal};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn iid_chains(n_chains: usize, n: usize, sigma: f64) -> Vec<Trace> {
        (0..n_chains)
            .map(|s| {
                let mut rng = StdRng::seed_from_u64(s as u64);
                let d = Normal::new(0.5, sigma);
                (0..n).map(|_| d.sample(&mut rng)).collect()
            })
            .collect()
    }

    #[test]
    fn good_chains_certify() {
        let chains = iid_chains(4, 4000, 0.05);
        let rep = assess(&chains, &CompletenessCriteria::default());
        assert!(rep.certified, "{rep:?}");
        assert!(rep.rhat < 1.01);
        assert!(rep.ess > 1000.0);
    }

    #[test]
    fn disagreeing_chains_fail() {
        let mut chains = iid_chains(2, 2000, 0.05);
        // Shift one chain: R-hat blows up.
        let shifted: Trace = chains[0].samples().iter().map(|x| x + 1.0).collect();
        chains[0] = shifted;
        let rep = assess(&chains, &CompletenessCriteria::default());
        assert!(!rep.certified);
        assert!(rep.rhat > 1.01);
    }

    #[test]
    fn short_chains_fail_on_ess() {
        let chains = iid_chains(2, 50, 0.05);
        let rep = assess(&chains, &CompletenessCriteria::default());
        assert!(!rep.certified);
        assert!(rep.ess < 400.0);
    }

    #[test]
    fn noisy_chains_fail_on_mcse() {
        // Huge variance: even many samples leave a wide standard error.
        let chains = iid_chains(4, 1000, 5.0);
        let rep = assess(&chains, &CompletenessCriteria::default());
        assert!(rep.mcse > 0.01);
        assert!(!rep.certified);
    }

    #[test]
    fn samples_to_certify_increases_with_noise() {
        let crit = CompletenessCriteria {
            max_rhat: 1.05,
            min_ess: 100.0,
            max_mcse: 0.01,
        };
        let quiet = iid_chains(4, 4000, 0.05);
        let loud = iid_chains(4, 4000, 0.3);
        let a = samples_to_certify(&quiet, &crit, 50).expect("quiet certifies");
        let b = samples_to_certify(&loud, &crit, 50).expect("loud certifies");
        assert!(a < b, "quiet {a} vs loud {b}");
        // The steps the eagerly computed ESS certified at.
        assert_eq!((a, b), (50, 300));
        assert_eq!(
            samples_to_certify(&loud, &CompletenessCriteria::default(), 50),
            Some(300)
        );
    }

    #[test]
    fn assess_reads_the_eager_diagnostics_bit_for_bit() {
        let loud = iid_chains(4, 4000, 0.3);
        let slices: Vec<&[f64]> = loud.iter().map(Trace::samples).collect();
        let rep = assess_slices(&slices, &CompletenessCriteria::default());
        // The report the eager ESS (every lag to 1000, and again inside
        // the MCSE) produced on this fixture.
        assert_eq!(
            [rep.rhat, rep.ess, rep.mcse].map(f64::to_bits),
            [0x3feffe4513f44985, 0x40cdd8ff992b6996, 0x3f63fdb3fec95719]
        );
        assert!(rep.certified);
        assert_eq!(rep.ess.to_bits(), ess_slices(&slices).to_bits());
        assert_eq!(
            rep.mcse.to_bits(),
            bdlfi_bayes::mcse_slices(&slices).to_bits()
        );
    }

    #[test]
    fn borrowed_prefix_scan_matches_cloning_reference() {
        // The certified step must be unchanged by the move from cloned
        // prefix Traces to borrowed slices.
        let crit = CompletenessCriteria {
            max_rhat: 1.05,
            min_ess: 100.0,
            max_mcse: 0.01,
        };
        for chains in [iid_chains(4, 4000, 0.05), iid_chains(4, 4000, 0.3)] {
            let step = 50;
            let fast = samples_to_certify(&chains, &crit, step);
            let reference = {
                let n = chains.iter().map(Trace::len).min().unwrap_or(0);
                let mut found = None;
                let mut k = step;
                while k <= n {
                    let prefixes: Vec<Trace> = chains
                        .iter()
                        .map(|c| Trace::from_samples(c.samples()[..k].to_vec()))
                        .collect();
                    if assess(&prefixes, &crit).certified {
                        found = Some(k);
                        break;
                    }
                    k += step;
                }
                found
            };
            assert_eq!(fast, reference);
        }
    }

    #[test]
    fn never_certifying_returns_none() {
        let chains = iid_chains(2, 100, 10.0);
        assert_eq!(
            samples_to_certify(&chains, &CompletenessCriteria::default(), 10),
            None
        );
    }
}
