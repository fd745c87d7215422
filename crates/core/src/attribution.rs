//! Fault attribution: *which* memory locations cause the errors?
//!
//! The paper's tempered exploration mode (Section I's "algorithmic
//! acceleration", exercised in experiment E6) parks the Markov chain on
//! error-causing fault configurations. This module turns those visits into
//! an actionable ranking: per parameter site and per bit field, how often
//! does the error-conditioned posterior implicate it? High-frequency sites
//! are where selective hardening (ECC, duplication, range checks) buys the
//! most reliability — the engineering decision the paper's methodology
//! exists to inform.

use crate::checkpoint::journal_fingerprint;
use crate::engine::{CollectSink, EngineError, EvalEngine, RunControl};
use crate::faulty_model::FaultyModel;
use bdlfi_bayes::{mh_step, seed_stream};
use bdlfi_faults::{BitRange, FaultConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Attribution share of one parameter site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteAttribution {
    /// Parameter path.
    pub path: String,
    /// Number of injectable elements at the site.
    pub elements: usize,
    /// Fraction of error-conditioned samples in which this site carried at
    /// least one flipped bit.
    pub hit_share: f64,
    /// Mean flipped bits at this site over error-conditioned samples.
    pub mean_flips: f64,
}

/// The outcome of a fault-attribution run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttributionReport {
    /// Sites ordered by descending hit share.
    pub sites: Vec<SiteAttribution>,
    /// Fraction of error-conditioned flips per bit position (index 0 =
    /// mantissa LSB, 31 = sign).
    pub bit_histogram: [f64; 32],
    /// Number of error-conditioned samples collected.
    pub samples: usize,
    /// Fraction of chain steps that were error-conditioned (diagnostic:
    /// low values mean β was too small for the prior barrier).
    pub hit_rate: f64,
}

impl AttributionReport {
    /// The `n` most implicated sites.
    pub fn top_sites(&self, n: usize) -> &[SiteAttribution] {
        &self.sites[..n.min(self.sites.len())]
    }

    /// Fraction of error-conditioned flips landing in the exponent field —
    /// the headline number for selective-protection decisions.
    pub fn exponent_share(&self) -> f64 {
        (23..31).map(|b| self.bit_histogram[b]).sum()
    }
}

/// Runs indicator-tempered exploration chains and aggregates which sites
/// and bit positions the error-conditioned posterior implicates.
///
/// The sample budget is split over several independent restarts (the
/// tempered target is highly multimodal — one error-causing bit per mode —
/// and a single local chain would report only the first mode it finds).
/// With a journal in `ctl`, each completed restart chain is one entry.
///
/// `beta` defaults (when `None`) to `ln((1−p)/p) + 2` computed from the
/// expected-flip rate of the fault model — just above the prior barrier, so
/// local moves can climb into the error region.
///
/// # Errors
///
/// [`EngineError::Interrupted`] on a cooperative stop, plus journal/sink
/// failures.
///
/// # Panics
///
/// Panics if `samples == 0` or the model exposes no parameter sites.
pub fn attribute_faults(
    fm: &FaultyModel,
    samples: usize,
    beta: Option<f64>,
    seed: u64,
    ctl: &RunControl,
) -> Result<AttributionReport, EngineError> {
    assert!(samples > 0, "attribution needs at least one sample");
    let restarts = 8.min(samples);
    let per_chain = samples.div_ceil(restarts);
    // Restarts are independent chains — fan them out through the engine
    // (restart `r` draws from seed-stream lanes 2r and 2r+1) and merge the
    // reports in restart order, so the result is worker-count invariant.
    let engine = EvalEngine::new(seed);
    let ctl = ctl.or_fingerprint(|| {
        let identity = (samples, beta.unwrap_or(f64::NAN), seed, fm.golden_error());
        journal_fingerprint("attribution", "", &identity)
    });
    let mut sink = CollectSink::new();
    engine.run_checkpointed(
        restarts,
        || (),
        |(), ctx| {
            Ok(attribute_single_chain(
                fm,
                per_chain,
                beta,
                seed,
                ctx.task_id,
            ))
        },
        &mut sink,
        &ctl,
    )?;
    Ok(sink
        .into_inner()
        .into_iter()
        .reduce(merge_reports)
        .expect("at least one restart"))
}

/// Pools two attribution reports, weighting by their sample counts.
fn merge_reports(a: AttributionReport, b: AttributionReport) -> AttributionReport {
    let (na, nb) = (a.samples as f64, b.samples as f64);
    let total = (na + nb).max(1.0);
    let mut sites: Vec<SiteAttribution> = a
        .sites
        .iter()
        .map(|sa| {
            let sb = b
                .sites
                .iter()
                .find(|s| s.path == sa.path)
                .expect("same site set across restarts");
            SiteAttribution {
                path: sa.path.clone(),
                elements: sa.elements,
                hit_share: (sa.hit_share * na + sb.hit_share * nb) / total,
                mean_flips: (sa.mean_flips * na + sb.mean_flips * nb) / total,
            }
        })
        .collect();
    sites.sort_by(|x, y| y.hit_share.partial_cmp(&x.hit_share).unwrap());
    let mut bit_histogram = [0.0f64; 32];
    for (i, h) in bit_histogram.iter_mut().enumerate() {
        *h = (a.bit_histogram[i] * na + b.bit_histogram[i] * nb) / total;
    }
    // Renormalise (restarts with zero hits contribute nothing).
    let s: f64 = bit_histogram.iter().sum();
    if s > 0.0 {
        for h in &mut bit_histogram {
            *h /= s;
        }
    }
    AttributionReport {
        sites,
        bit_histogram,
        samples: a.samples + b.samples,
        hit_rate: (a.hit_rate * na + b.hit_rate * nb) / total,
    }
}

fn attribute_single_chain(
    fm: &FaultyModel,
    samples: usize,
    beta: Option<f64>,
    seed: u64,
    restart: usize,
) -> AttributionReport {
    assert!(samples > 0, "attribution needs at least one sample");
    let sites = fm.sites().params.clone();
    assert!(!sites.is_empty(), "attribution needs parameter sites");

    // Default β from the per-bit rate implied by the fault model.
    let total_bits: f64 = sites.iter().map(|s| s.len as f64 * 32.0).sum();
    let p_est = (fm
        .fault_model()
        .expected_flips(sites.iter().map(|s| s.len).sum::<usize>())
        / total_bits)
        .clamp(1e-12, 0.5);
    let beta = beta.unwrap_or(((1.0 - p_est) / p_est).ln() + 2.0);

    let golden = fm.golden_error();

    // Indicator-tempered chain (exploration mode of E6). Two seed-stream
    // lanes per restart: proposals and transient activation faults.
    let mut model = fm.clone();
    let mut rng = StdRng::seed_from_u64(seed_stream(seed, 2 * restart as u64));
    let mut act_rng = StdRng::seed_from_u64(seed_stream(seed, 2 * restart as u64 + 1));
    let sites_arc = Arc::new(sites.clone());
    let proposal =
        crate::proposals::BitToggleProposal::new(Arc::clone(&sites_arc), BitRange::all());
    let fault_model = Arc::clone(fm.fault_model());

    let mut state = FaultConfig::clean();

    let mut hit_samples = 0usize;
    let mut steps = 0usize;
    let mut site_hits: HashMap<String, (u64, u64)> = HashMap::new(); // (samples with hits, total flips)
    let mut bit_counts = [0u64; 32];
    let mut total_flip_count = 0u64;

    {
        use std::cell::RefCell;
        let model = RefCell::new(&mut model);
        let act_rng = RefCell::new(&mut act_rng);
        let memo: RefCell<Option<(FaultConfig, f64)>> = RefCell::new(None);
        // One evaluation per distinct state, memoised across target and
        // recording.
        let eval = |c: &FaultConfig| -> f64 {
            if let Some((cached, err)) = memo.borrow().as_ref() {
                if cached == c {
                    return *err;
                }
            }
            let err = model.borrow_mut().eval_error(c, *act_rng.borrow_mut());
            *memo.borrow_mut() = Some((c.clone(), err));
            err
        };

        let mut log_target = |c: &FaultConfig| -> f64 {
            let prior = c
                .log_prob(&sites_arc, fault_model.as_ref())
                .expect("fault model must define a density");
            let hit = eval(c) > golden + 1e-12;
            prior + if hit { beta } else { 0.0 }
        };
        let mut lp = log_target(&state);

        // Burn-in to climb into the error region, then record.
        let burn = (samples / 2).max(50);
        for i in 0..burn + samples {
            mh_step(&mut state, &mut lp, &proposal, &mut log_target, &mut rng);
            steps += 1;
            if i < burn {
                continue;
            }
            // Record only error-conditioned states.
            let err = eval(&state);
            if err <= golden + 1e-12 {
                continue;
            }
            hit_samples += 1;
            for path in state.affected_paths() {
                let mask = state.mask(path);
                let entry = site_hits.entry(path.to_string()).or_insert((0, 0));
                entry.0 += 1;
                entry.1 += u64::from(mask.bit_count());
                for &(_, pattern) in mask.entries() {
                    for bit in 0..32u8 {
                        if pattern & (1 << bit) != 0 {
                            bit_counts[bit as usize] += 1;
                            total_flip_count += 1;
                        }
                    }
                }
            }
        }
    }

    let mut out: Vec<SiteAttribution> = sites
        .iter()
        .map(|s| {
            let (hits, flips) = site_hits.get(&s.path).copied().unwrap_or((0, 0));
            SiteAttribution {
                path: s.path.clone(),
                elements: s.len,
                hit_share: hits as f64 / hit_samples.max(1) as f64,
                mean_flips: flips as f64 / hit_samples.max(1) as f64,
            }
        })
        .collect();
    out.sort_by(|a, b| b.hit_share.partial_cmp(&a.hit_share).unwrap());

    let mut bit_histogram = [0.0f64; 32];
    if total_flip_count > 0 {
        for (h, &c) in bit_histogram.iter_mut().zip(bit_counts.iter()) {
            *h = c as f64 / total_flip_count as f64;
        }
    }

    AttributionReport {
        sites: out,
        bit_histogram,
        samples: hit_samples,
        hit_rate: hit_samples as f64 / steps.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdlfi_data::gaussian_blobs;
    use bdlfi_faults::{BernoulliBitFlip, SiteSpec};
    use bdlfi_nn::{mlp, optim::Sgd, TrainConfig, Trainer};

    fn trained_fm(p: f64) -> FaultyModel {
        let mut rng = StdRng::seed_from_u64(77);
        let data = gaussian_blobs(200, 3, 0.8, &mut rng);
        let mut model = mlp(2, &[16], 3, &mut rng);
        let mut trainer = Trainer::new(
            Sgd::new(0.1).with_momentum(0.9),
            TrainConfig {
                epochs: 20,
                batch_size: 32,
                ..TrainConfig::default()
            },
        );
        trainer.fit(&mut model, data.inputs(), data.labels(), &mut rng);
        FaultyModel::new(
            model,
            Arc::new(data),
            &SiteSpec::AllParams,
            Arc::new(BernoulliBitFlip::new(p)),
        )
    }

    #[test]
    fn attribution_finds_error_causing_sites() {
        let fm = trained_fm(2e-5);
        let report = attribute_faults(&fm, 150, None, 3, &RunControl::new()).unwrap();
        assert!(report.samples > 30, "too few hits: {}", report.samples);
        assert!(report.hit_rate > 0.1, "hit rate {}", report.hit_rate);
        // Site shares are ordered and bounded.
        for w in report.sites.windows(2) {
            assert!(w[0].hit_share >= w[1].hit_share);
        }
        assert!(report.sites[0].hit_share > 0.0);
        // The histogram is a distribution over bit positions.
        let total: f64 = report.bit_histogram.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "histogram sums to {total}");
    }

    #[test]
    fn errors_are_attributed_to_exponent_bits() {
        let fm = trained_fm(2e-5);
        let report = attribute_faults(&fm, 150, None, 4, &RunControl::new()).unwrap();
        // Error-conditioned flips concentrate in the exponent field (8 of
        // 32 positions -> uniform share would be 0.25).
        assert!(
            report.exponent_share() > 0.5,
            "exponent share {}",
            report.exponent_share()
        );
    }

    #[test]
    fn top_sites_is_bounded() {
        let fm = trained_fm(2e-5);
        let report = attribute_faults(&fm, 60, None, 5, &RunControl::new()).unwrap();
        assert_eq!(report.top_sites(2).len(), 2);
        assert_eq!(report.top_sites(100).len(), report.sites.len());
    }
}
