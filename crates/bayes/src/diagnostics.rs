//! Convergence diagnostics — the machinery behind BDLFI's claim that MCMC
//! mixing quantifies the *completeness* of a fault-injection campaign:
//! when split-R̂ ≈ 1 and the effective sample size is large, "further
//! injections do not change the measured hypothesis".

use crate::mcmc::Trace;

/// Borrow each chain's samples as a slice — lets the `_slices` diagnostics
/// run on growing prefixes without cloning chain data.
fn borrow_samples(chains: &[Trace]) -> Vec<&[f64]> {
    chains.iter().map(Trace::samples).collect()
}

/// Split-R̂ (Gelman–Rubin potential scale reduction with split chains,
/// following BDA3 / Vehtari et al.).
///
/// Values near 1 indicate the chains agree; the conventional certification
/// threshold is `R̂ < 1.01`. Returns `NaN` when undefined (fewer than 2
/// half-chains of at least 2 samples, or zero within-chain variance with
/// zero between-chain variance).
pub fn split_rhat(chains: &[Trace]) -> f64 {
    split_rhat_slices(&borrow_samples(chains))
}

/// [`split_rhat`] on borrowed sample slices — the allocation-free form the
/// growing-prefix completeness scans assess with.
pub fn split_rhat_slices(chains: &[&[f64]]) -> f64 {
    // Split every chain in half to detect non-stationarity within chains.
    let halves: Vec<&[f64]> = chains
        .iter()
        .flat_map(|s| {
            let mid = s.len() / 2;
            [&s[..mid], &s[mid..]]
        })
        .filter(|h| h.len() >= 2)
        .collect();
    let m = halves.len();
    if m < 2 {
        return f64::NAN;
    }
    let Some(n) = halves.iter().map(|h| h.len()).min() else {
        return f64::NAN;
    };
    let halves: Vec<&[f64]> = halves.iter().map(|h| &h[..n]).collect();

    let means: Vec<f64> = halves
        .iter()
        .map(|h| h.iter().sum::<f64>() / n as f64)
        .collect();
    let grand = means.iter().sum::<f64>() / m as f64;
    let b = n as f64 / (m as f64 - 1.0) * means.iter().map(|mu| (mu - grand).powi(2)).sum::<f64>();
    let w = halves
        .iter()
        .zip(means.iter())
        .map(|(h, mu)| h.iter().map(|x| (x - mu).powi(2)).sum::<f64>() / (n as f64 - 1.0))
        .sum::<f64>()
        / m as f64;

    if w <= 0.0 {
        // All half-chains constant: identical constants mix perfectly.
        return if b <= 0.0 { 1.0 } else { f64::INFINITY };
    }
    let var_plus = (n as f64 - 1.0) / n as f64 * w + b / n as f64;
    (var_plus / w).sqrt()
}

/// Sample autocorrelation of a series at the given lags.
///
/// Returns an empty vector for series shorter than 2.
pub fn autocorrelations(x: &[f64], max_lag: usize) -> Vec<f64> {
    let n = x.len();
    if n < 2 {
        return Vec::new();
    }
    let mean = x.iter().sum::<f64>() / n as f64;
    let var = x.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
    if var <= 0.0 {
        return vec![0.0; max_lag.min(n - 1) + 1];
    }
    (0..=max_lag.min(n - 1))
        .map(|lag| {
            let c: f64 = (0..n - lag)
                .map(|i| (x[i] - mean) * (x[i + lag] - mean))
                .sum();
            c / (n as f64 * var)
        })
        .collect()
}

/// Effective sample size via Geyer's initial positive sequence: sums
/// autocorrelations over even/odd lag pairs until a pair's sum goes
/// non-positive, pooling chains by averaging their autocorrelation
/// functions.
///
/// Returns `NaN` when undefined (no samples); a constant trace has ESS
/// equal to its sample count (every draw agrees, nothing left to learn).
pub fn ess(chains: &[Trace]) -> f64 {
    ess_slices(&borrow_samples(chains))
}

/// [`ess`] on borrowed sample slices.
///
/// Reads each chain's autocorrelation only at the lags Geyer's truncation
/// reaches, so a well-mixed chain costs a few passes over its samples, not
/// one per lag up to the cap of 1000; each value is computed exactly as
/// [`autocorrelations`] computes it, so the ESS is the same number.
pub fn ess_slices(chains: &[&[f64]]) -> f64 {
    let total: usize = chains.iter().map(|c| c.len()).sum();
    if total == 0 {
        return f64::NAN;
    }
    let n = chains.iter().map(|c| c.len()).min().unwrap_or(0);
    if n < 4 {
        return total as f64;
    }
    let max_lag = (n - 1).min(1000);

    // Average autocorrelation over chains (all-constant chains contribute
    // zero autocorrelation beyond lag 0).
    let acfs: Vec<Autocorrelation> = chains
        .iter()
        .map(|c| Autocorrelation::new(&c[..n]))
        .collect();
    let mean_acf =
        |lag: usize| -> f64 { acfs.iter().map(|a| a.at(lag)).sum::<f64>() / acfs.len() as f64 };

    // Geyer's theorem guarantees Γ_t = ρ_{2t} + ρ_{2t+1} is non-negative
    // (and decreasing) for reversible chains, so the sum is truncated at
    // the first non-positive *even/odd* pair: τ = 2·ΣΓ_t − 1 with
    // Γ_0 = ρ_0 + ρ_1 = 1 + ρ_1, then pairs (2,3), (4,5), …
    let mut tau = 1.0 + 2.0 * mean_acf(1);
    let mut lag = 2usize;
    while lag < max_lag {
        let pair = mean_acf(lag) + mean_acf(lag + 1);
        if pair <= 0.0 {
            break;
        }
        tau += 2.0 * pair;
        lag += 2;
    }
    // Antithetic chains can drive τ below 1 (super-efficient sampling);
    // keep it positive and cap the ESS at the sample count.
    (total as f64 / tau.max(f64::EPSILON)).min(total as f64)
}

/// One series' sample autocorrelation, evaluated a lag at a time: the
/// mean and variance of [`autocorrelations`], computed once.
struct Autocorrelation<'a> {
    x: &'a [f64],
    mean: f64,
    var: f64,
}

impl<'a> Autocorrelation<'a> {
    /// Needs at least 2 samples, as [`autocorrelations`] does.
    fn new(x: &'a [f64]) -> Self {
        let n = x.len();
        let mean = x.iter().sum::<f64>() / n as f64;
        let var = x.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        Autocorrelation { x, mean, var }
    }

    /// The autocorrelation at `lag < len`, bit-identical to entry `lag`
    /// of [`autocorrelations`] (zero for a constant series).
    fn at(&self, lag: usize) -> f64 {
        let (x, mean, n) = (self.x, self.mean, self.x.len());
        if self.var <= 0.0 {
            return 0.0;
        }
        let c: f64 = (0..n - lag)
            .map(|i| (x[i] - mean) * (x[i + lag] - mean))
            .sum();
        c / (n as f64 * self.var)
    }
}

/// Monte Carlo standard error of the pooled mean: `sd / √ESS`.
///
/// Returns `NaN` when ESS or the variance is undefined.
pub fn mcse(chains: &[Trace]) -> f64 {
    mcse_slices(&borrow_samples(chains))
}

/// [`mcse`] on borrowed sample slices.
pub fn mcse_slices(chains: &[&[f64]]) -> f64 {
    mcse_from_ess(chains, ess_slices(chains))
}

/// [`mcse_slices`] given the chains' [`ess_slices`] value `e`, for callers
/// that need both and should compute the ESS once.
pub fn mcse_from_ess(chains: &[&[f64]], e: f64) -> f64 {
    let total: usize = chains.iter().map(|c| c.len()).sum();
    if total < 2 {
        return f64::NAN;
    }
    let mean = chains.iter().flat_map(|c| c.iter()).sum::<f64>() / total as f64;
    let var = chains
        .iter()
        .flat_map(|c| c.iter())
        .map(|x| (x - mean).powi(2))
        .sum::<f64>()
        / (total - 1) as f64;
    if !e.is_finite() || e <= 0.0 {
        return f64::NAN;
    }
    (var / e).sqrt()
}

/// Monte Carlo standard error via non-overlapping batch means — an
/// autocorrelation-robust alternative to the ESS route, useful as a
/// cross-check on [`mcse`] (the two should agree within a small factor on
/// well-behaved chains).
///
/// Uses `⌈√n⌉`-sized batches on the pooled samples. Returns `NaN` for
/// fewer than 4 batches of data.
pub fn mcse_batch_means(chains: &[Trace]) -> f64 {
    let pooled: Vec<f64> = chains
        .iter()
        .flat_map(|c| c.samples().iter().copied())
        .collect();
    let n = pooled.len();
    if n < 16 {
        return f64::NAN;
    }
    let batch = (n as f64).sqrt().ceil() as usize;
    let m = n / batch;
    if m < 4 {
        return f64::NAN;
    }
    let means: Vec<f64> = (0..m)
        .map(|b| pooled[b * batch..(b + 1) * batch].iter().sum::<f64>() / batch as f64)
        .collect();
    let grand = means.iter().sum::<f64>() / m as f64;
    let var_of_means = means.iter().map(|x| (x - grand).powi(2)).sum::<f64>() / (m as f64 - 1.0);
    (var_of_means / m as f64).sqrt()
}

/// Geweke convergence z-score: compares the mean of the first
/// `first_frac` of a chain against the last `last_frac`, standardised by
/// their (spectral-density-free, iid-approximation) standard errors.
///
/// |z| > 2 suggests the chain has not reached stationarity. Returns `NaN`
/// for chains too short to compare.
///
/// # Panics
///
/// Panics unless the fractions are in `(0, 1)` and sum to at most 1.
pub fn geweke_z(trace: &Trace, first_frac: f64, last_frac: f64) -> f64 {
    assert!(
        first_frac > 0.0 && last_frac > 0.0 && first_frac + last_frac <= 1.0,
        "fractions must be positive and sum to at most 1"
    );
    let x = trace.samples();
    let n = x.len();
    let n1 = (n as f64 * first_frac) as usize;
    let n2 = (n as f64 * last_frac) as usize;
    if n1 < 2 || n2 < 2 {
        return f64::NAN;
    }
    let a = &x[..n1];
    let b = &x[n - n2..];
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let var =
        |s: &[f64], m: f64| s.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (s.len() - 1) as f64;
    let (ma, mb) = (mean(a), mean(b));
    let se = (var(a, ma) / n1 as f64 + var(b, mb) / n2 as f64).sqrt();
    if se <= 0.0 {
        return if (ma - mb).abs() <= f64::EPSILON {
            0.0
        } else {
            f64::INFINITY
        };
    }
    (ma - mb) / se
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, Normal};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn iid_chain(seed: u64, n: usize, mu: f64) -> Trace {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = Normal::new(mu, 1.0);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn rhat_near_one_for_iid_chains() {
        let chains: Vec<Trace> = (0..4).map(|s| iid_chain(s, 2000, 0.0)).collect();
        let r = split_rhat(&chains);
        assert!((r - 1.0).abs() < 0.02, "rhat {r}");
    }

    #[test]
    fn rhat_large_for_disagreeing_chains() {
        let chains = vec![iid_chain(0, 1000, 0.0), iid_chain(1, 1000, 5.0)];
        let r = split_rhat(&chains);
        assert!(r > 1.5, "rhat {r}");
    }

    #[test]
    fn rhat_detects_trend_within_a_chain() {
        // A strongly trending single chain must fail the split test.
        let trend: Trace = (0..2000).map(|i| i as f64 / 100.0).collect();
        let r = split_rhat(&[trend]);
        assert!(r > 1.2, "rhat {r}");
    }

    #[test]
    fn rhat_handles_constant_chains() {
        let a = Trace::from_samples(vec![1.0; 100]);
        let b = Trace::from_samples(vec![1.0; 100]);
        assert_eq!(split_rhat(&[a, b]), 1.0);
        let c = Trace::from_samples(vec![2.0; 100]);
        let a = Trace::from_samples(vec![1.0; 100]);
        assert!(split_rhat(&[a, c]).is_infinite());
    }

    #[test]
    fn autocorrelation_of_iid_is_small() {
        let c = iid_chain(7, 5000, 0.0);
        let acf = autocorrelations(c.samples(), 5);
        assert!((acf[0] - 1.0).abs() < 1e-12);
        for &rho in &acf[1..] {
            assert!(rho.abs() < 0.05, "rho {rho}");
        }
    }

    #[test]
    fn ess_of_iid_is_near_n() {
        let chains: Vec<Trace> = (0..2).map(|s| iid_chain(s + 10, 2000, 0.0)).collect();
        let e = ess(&chains);
        assert!(e > 3000.0, "ess {e}");
        assert!(e <= 4000.0);
    }

    #[test]
    fn ess_of_sticky_chain_is_small() {
        // AR(1) with high persistence: x_t = 0.98 x_{t-1} + eps.
        let mut rng = StdRng::seed_from_u64(20);
        let d = Normal::standard();
        let mut x = 0.0;
        let chain: Trace = (0..4000)
            .map(|_| {
                x = 0.98 * x + 0.02f64.sqrt() * d.sample(&mut rng);
                x
            })
            .collect();
        let e = ess(&[chain]);
        assert!(e < 400.0, "ess {e}");
    }

    #[test]
    fn ess_matches_ar1_integrated_autocorrelation_time() {
        // AR(1) with coefficient φ has integrated autocorrelation time
        // τ = (1 + φ)/(1 − φ); with φ = 0.9, τ = 19, so ESS ≈ N/19.
        // The old (1,2),(3,4) pairing truncated the Geyer sum one lag
        // early whenever ρ was still decaying, biasing ESS upward.
        let phi = 0.9f64;
        let n = 200_000usize;
        let mut rng = StdRng::seed_from_u64(40);
        let d = Normal::standard();
        let mut x = 0.0;
        let chain: Trace = (0..n)
            .map(|_| {
                x = phi * x + (1.0 - phi * phi).sqrt() * d.sample(&mut rng);
                x
            })
            .collect();
        let tau = (1.0 + phi) / (1.0 - phi);
        let expected = n as f64 / tau;
        let e = ess(&[chain]);
        assert!(
            (e - expected).abs() < 0.25 * expected,
            "ess {e}, expected ≈ {expected} (τ = {tau})"
        );
    }

    #[test]
    fn slice_diagnostics_match_trace_diagnostics() {
        let chains: Vec<Trace> = (0..3).map(|s| iid_chain(s + 50, 500, 0.5)).collect();
        let slices: Vec<&[f64]> = chains.iter().map(Trace::samples).collect();
        assert_eq!(split_rhat(&chains), split_rhat_slices(&slices));
        assert_eq!(ess(&chains), ess_slices(&slices));
        assert_eq!(mcse(&chains), mcse_slices(&slices));
    }

    /// The ESS as computed before lags were read lazily: every lag up to
    /// the cap from [`autocorrelations`], then the same truncation.
    fn eager_ess(chains: &[&[f64]]) -> f64 {
        let total: usize = chains.iter().map(|c| c.len()).sum();
        if total == 0 {
            return f64::NAN;
        }
        let n = chains.iter().map(|c| c.len()).min().unwrap_or(0);
        if n < 4 {
            return total as f64;
        }
        let max_lag = (n - 1).min(1000);
        let acfs: Vec<Vec<f64>> = chains
            .iter()
            .map(|c| autocorrelations(&c[..n], max_lag))
            .collect();
        let mean_acf = |lag: usize| -> f64 {
            acfs.iter()
                .map(|a| a.get(lag).copied().unwrap_or(0.0))
                .sum::<f64>()
                / acfs.len() as f64
        };
        let mut tau = 1.0 + 2.0 * mean_acf(1);
        let mut lag = 2usize;
        while lag < max_lag {
            let pair = mean_acf(lag) + mean_acf(lag + 1);
            if pair <= 0.0 {
                break;
            }
            tau += 2.0 * pair;
            lag += 2;
        }
        (total as f64 / tau.max(f64::EPSILON)).min(total as f64)
    }

    fn ar1_chain(seed: u64, n: usize, phi: f64) -> Trace {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = Normal::standard();
        let mut x = 0.0;
        (0..n)
            .map(|_| {
                x = phi * x + (1.0 - phi * phi).sqrt() * d.sample(&mut rng);
                x
            })
            .collect()
    }

    #[test]
    fn lazy_ess_and_mcse_match_the_eager_oracle_bitwise() {
        let sets: Vec<(&str, Vec<Trace>)> = vec![
            ("iid", (0..4).map(|s| iid_chain(s + 60, 600, 0.2)).collect()),
            // Sticky chains run the truncation far out, past the lag cap
            // at the longest length.
            (
                "sticky ar(1)",
                (0..2).map(|s| ar1_chain(s + 70, 3000, 0.995)).collect(),
            ),
            (
                "antithetic",
                (0..3).map(|s| ar1_chain(s + 80, 500, -0.8)).collect(),
            ),
            ("constant", vec![Trace::from_samples(vec![0.25; 100]); 3]),
            (
                "constant and moving",
                vec![Trace::from_samples(vec![1.0; 200]), iid_chain(90, 200, 0.0)],
            ),
            ("n < 4", vec![iid_chain(91, 3, 0.0), iid_chain(92, 7, 0.0)]),
            ("single sample", vec![Trace::from_samples(vec![0.5])]),
            (
                "unequal lengths",
                vec![
                    ar1_chain(93, 1500, 0.9),
                    iid_chain(94, 900, 0.0),
                    ar1_chain(95, 1200, 0.5),
                ],
            ),
        ];
        for (what, chains) in &sets {
            for len in [4, 50, 400, usize::MAX] {
                let slices: Vec<&[f64]> = chains
                    .iter()
                    .map(|c| &c.samples()[..len.min(c.len())])
                    .collect();
                let e = eager_ess(&slices);
                assert_eq!(
                    ess_slices(&slices).to_bits(),
                    e.to_bits(),
                    "{what} @{len}: ess"
                );
                // `mcse_slices` is `mcse_from_ess` on the lazy ESS.
                assert_eq!(
                    mcse_slices(&slices).to_bits(),
                    mcse_from_ess(&slices, e).to_bits(),
                    "{what} @{len}: mcse"
                );
            }
        }
    }

    #[test]
    fn mcse_shrinks_with_more_samples() {
        let small = vec![iid_chain(1, 200, 0.0)];
        let large = vec![iid_chain(1, 20_000, 0.0)];
        assert!(mcse(&large) < mcse(&small));
        // For iid N(0,1): mcse ≈ 1/sqrt(n).
        let m = mcse(&large);
        assert!((m - (1.0 / 20_000.0f64).sqrt()).abs() < m * 0.5);
    }

    #[test]
    fn batch_means_agrees_with_ess_route_on_iid() {
        let chains = vec![iid_chain(5, 10_000, 0.0)];
        let a = mcse(&chains);
        let b = mcse_batch_means(&chains);
        assert!(a.is_finite() && b.is_finite());
        assert!(
            b / a < 2.0 && a / b < 2.0,
            "ess-route {a} vs batch-means {b}"
        );
    }

    #[test]
    fn batch_means_grows_for_correlated_chains() {
        // AR(1): both estimators must report a larger standard error than
        // the naive sd/sqrt(n).
        let mut rng = StdRng::seed_from_u64(30);
        let d = Normal::standard();
        let mut x = 0.0;
        let chain: Trace = (0..10_000)
            .map(|_| {
                x = 0.95 * x + (1.0f64 - 0.95 * 0.95).sqrt() * d.sample(&mut rng);
                x
            })
            .collect();
        let naive = (chain.variance() / chain.len() as f64).sqrt();
        let bm = mcse_batch_means(&[chain]);
        assert!(bm > 2.0 * naive, "batch-means {bm} vs naive {naive}");
    }

    #[test]
    fn batch_means_undefined_for_tiny_traces() {
        assert!(mcse_batch_means(&[Trace::from_samples(vec![1.0; 8])]).is_nan());
    }

    #[test]
    fn geweke_small_for_stationary_large_for_trending() {
        let stationary = iid_chain(3, 5000, 1.0);
        let z = geweke_z(&stationary, 0.1, 0.5);
        assert!(z.abs() < 3.0, "z {z}");

        let trending: Trace = (0..5000).map(|i| i as f64 * 0.01).collect();
        let z = geweke_z(&trending, 0.1, 0.5);
        assert!(z.abs() > 10.0, "z {z}");
    }

    #[test]
    fn diagnostics_handle_degenerate_input() {
        assert!(split_rhat(&[]).is_nan());
        assert!(ess(&[]).is_nan());
        assert!(mcse(&[Trace::new()]).is_nan());
        assert!(geweke_z(&Trace::from_samples(vec![1.0]), 0.1, 0.5).is_nan());
    }
}
