//! Exhaustive single-bit fault injection: enumerate *every* `(element,
//! bit)` position in the selected sites and run the workload once per
//! position.
//!
//! This is the ground truth every sampled campaign estimates. It is only
//! tractable for small networks (the paper's point (1): "the enormous
//! space of fault locations ... that must be injected" — a 100k-parameter
//! model already has 3.2 M single-bit positions, each costing a full
//! workload execution), which is exactly why sampling-based methods exist.
//! Here it serves to validate them: the sampled SDC rate must converge to
//! the exhaustive rate.
//!
//! Being the ground truth, every injection runs the bound workload's
//! golden-prefix resume path (re-run only the suffix from the fault's
//! first dirty layer or stage) with the sparse-delta path switched off, so
//! the oracle never shares the shortcut the sampled drivers are checked
//! against.

use crate::estimator::{estimate_proportion, ProportionEstimate};
use bdlfi::checkpoint::journal_fingerprint;
use bdlfi::engine::{EngineError, EvalEngine, EvalSink, RunControl, RunMeta};
use bdlfi::{FaultWorkload, GoldenModel};
use bdlfi_data::Dataset;
use bdlfi_faults::{BernoulliBitFlip, FaultConfig, FaultMask, SiteSpec};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Per-bit-position aggregate of an exhaustive study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BitPositionStats {
    /// Bit position (0 = mantissa LSB, 31 = sign).
    pub bit: u8,
    /// Number of injections at this position (= number of elements).
    pub injections: u64,
    /// Injections that corrupted at least one prediction.
    pub sdc: u64,
}

/// The outcome of an exhaustive single-bit study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExhaustiveResult {
    /// Total number of `(element, bit)` positions injected.
    pub injections: u64,
    /// The exact SDC proportion with (degenerate but uniform) intervals.
    pub sdc: ProportionEstimate,
    /// Mean classification error across all injections.
    pub mean_error: f64,
    /// Golden classification error.
    pub golden_error: f64,
    /// SDC counts broken down by bit position — the exact form of the E7
    /// bit-field ablation.
    pub by_bit: Vec<BitPositionStats>,
    /// Engine execution metadata (worker count, wall-clock, injections/sec).
    pub run_meta: RunMeta,
}

/// Streaming aggregation of per-injection outcomes — totals and the
/// per-bit breakdown, no per-injection buffering.
struct Agg {
    by_bit: Vec<BitPositionStats>,
    total: u64,
    sdc_total: u64,
    error_sum: f64,
}

impl Agg {
    fn new() -> Self {
        Agg {
            by_bit: (0..32u8)
                .map(|bit| BitPositionStats {
                    bit,
                    injections: 0,
                    sdc: 0,
                })
                .collect(),
            total: 0,
            sdc_total: 0,
            error_sum: 0.0,
        }
    }

    fn into_result(self, golden_error: f64, run_meta: RunMeta) -> ExhaustiveResult {
        ExhaustiveResult {
            injections: self.total,
            sdc: estimate_proportion(self.sdc_total, self.total, 0.95),
            mean_error: self.error_sum / self.total as f64,
            golden_error,
            by_bit: self.by_bit,
            run_meta,
        }
    }
}

impl EvalSink<(u8, bool, f64)> for Agg {
    fn accept(
        &mut self,
        _task_id: usize,
        (bit, corrupted, error): (u8, bool, f64),
    ) -> Result<(), EngineError> {
        self.total += 1;
        self.error_sum += error;
        if corrupted {
            self.sdc_total += 1;
        }
        // `bit` is always < 32 by the bit-sweep enumeration; the
        // aggregate counters above stay right even for a phantom row.
        if let Some(row) = self.by_bit.get_mut(bit as usize) {
            row.injections += 1;
            if corrupted {
                row.sdc += 1;
            }
        }
        Ok(())
    }
}

/// Runs the exhaustive study over every single-bit fault in the sites
/// selected by `spec` of the golden network — an f32
/// [`bdlfi_nn::Sequential`] or an int8 [`bdlfi_quant::QuantModel`] (see
/// [`GoldenModel`]). The enumeration is width-aware: an f32 value or i32
/// word contributes 32 positions per element, an int8 weight byte 8 (a
/// complete 8-bit sweep). `by_bit` keeps its 32 rows; positions a
/// representation does not have simply record zero injections.
///
/// `workers` is the engine worker count (0 = all available cores); the
/// enumeration is deterministic, so the result is identical at every
/// worker count. With a journal in `ctl`, each `(element, bit)` injection
/// is one entry, in enumeration order.
///
/// # Errors
///
/// [`EngineError::Interrupted`] on a cooperative stop, plus journal/sink
/// failures.
///
/// # Panics
///
/// Panics if the spec resolves to no parameter sites or the dataset is
/// empty.
pub fn run_exhaustive<N: GoldenModel>(
    net: &N,
    eval: &Arc<Dataset>,
    spec: &SiteSpec,
    workers: usize,
    ctl: &RunControl,
) -> Result<ExhaustiveResult, EngineError> {
    assert!(!eval.is_empty(), "evaluation set must not be empty");
    // Every injection is one explicit bit, so the bound fault model is
    // never sampled; p = 0 keeps any transient site in `spec` inert.
    let mut workload =
        net.clone()
            .bind(Arc::clone(eval), spec, Arc::new(BernoulliBitFlip::new(0.0)));
    workload.set_delta_enabled(false);
    let sites = workload.sites().params.clone();
    assert!(!sites.is_empty(), "exhaustive FI requires parameter sites");
    let golden_error = workload.golden_error();

    // Flatten the (site, element, bit) enumeration into one task index
    // space: site `s` owns `site.len * site.repr.width()` consecutive task
    // ids starting at `starts[s]`.
    let mut starts = Vec::with_capacity(sites.len());
    let mut total_tasks = 0usize;
    for site in &sites {
        starts.push(total_tasks);
        total_tasks += site.len * site.repr.width() as usize;
    }

    let mut agg = Agg::new();

    // The task set is a deterministic enumeration (no RNG), so the engine
    // seed is irrelevant; workers each own a workload clone.
    let engine = EvalEngine::with_workers(0, workers);
    // f32 journals predate width-aware enumeration and keep their
    // two-field site shape; int8 ones record each site's width.
    let namespace = <N::Workload as FaultWorkload>::NAMESPACE;
    let site_shape: Vec<serde::Value> = sites
        .iter()
        .map(|p| match namespace {
            "" => (&p.path, p.len).to_json_value(),
            _ => (&p.path, p.len, p.repr.width()).to_json_value(),
        })
        .collect();
    let identity = (site_shape, golden_error);
    let ctl = ctl.or_fingerprint(|| journal_fingerprint("exhaustive", namespace, &identity));
    let run_meta = engine.run_checkpointed(
        total_tasks,
        || workload.clone(),
        |w, ctx| {
            let site_idx = starts.partition_point(|&s| s <= ctx.task_id) - 1;
            let site = &sites[site_idx];
            let width = site.repr.width() as usize;
            let offset = ctx.task_id - starts[site_idx];
            let element = offset / width;
            let bit = (offset % width) as u8;

            let mut mask = FaultMask::empty();
            mask.push_bit(element, bit);
            let mut cfg = FaultConfig::clean();
            cfg.set_mask(&site.path, mask);

            let logits = w.eval_logits(&cfg, &mut ctx.rng);
            let corrupted = logits
                .argmax_rows()
                .iter()
                .zip(w.golden_preds())
                .any(|(a, b)| a != b);
            let error = bdlfi_nn::metrics::classification_error(&logits, w.eval().labels());
            Ok((bit, corrupted, error))
        },
        &mut agg,
        &ctl,
    )?;

    Ok(agg.into_result(golden_error, run_meta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_fi::{RandomFi, RandomFiConfig};
    use bdlfi_data::gaussian_blobs;
    use bdlfi_faults::resolve_sites;
    use bdlfi_nn::{mlp, optim::Sgd, predict_all, Sequential, TrainConfig, Trainer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_trained() -> (Sequential, Arc<Dataset>) {
        let mut rng = StdRng::seed_from_u64(10);
        let data = gaussian_blobs(120, 2, 0.8, &mut rng);
        let (train, test) = data.split(0.7, &mut rng);
        let mut model = mlp(2, &[4], 2, &mut rng);
        let mut trainer = Trainer::new(
            Sgd::new(0.1).with_momentum(0.9),
            TrainConfig {
                epochs: 20,
                batch_size: 16,
                ..TrainConfig::default()
            },
        );
        trainer.fit(&mut model, train.inputs(), train.labels(), &mut rng);
        (model, Arc::new(test))
    }

    #[test]
    fn covers_the_whole_single_bit_space() {
        let (model, eval) = tiny_trained();
        // fc1 only: (2*4 + 4) elements * 32 bits = 384 injections.
        let res = run_exhaustive(
            &model,
            &eval,
            &SiteSpec::LayerParams {
                prefix: "fc1".into(),
            },
            0,
            &RunControl::new(),
        )
        .unwrap();
        assert_eq!(res.injections, 384);
        assert_eq!(res.by_bit.iter().map(|b| b.injections).sum::<u64>(), 384);
        for b in &res.by_bit {
            assert_eq!(b.injections, 12);
            assert!(b.sdc <= b.injections);
        }
    }

    #[test]
    fn prefix_resume_matches_a_cold_enumeration() {
        let (mut model, eval) = tiny_trained();
        let spec = SiteSpec::AllParams;
        let res = run_exhaustive(&model, &eval, &spec, 0, &RunControl::new()).unwrap();

        // The same enumeration, every injection a cold full inference.
        let golden = predict_all(&mut model, eval.inputs(), 64).argmax_rows();
        let mut by_bit = vec![(0u64, 0u64); 32];
        let (mut sdc, mut error_sum, mut total) = (0u64, 0.0f64, 0u64);
        for site in resolve_sites(&model, &spec).params {
            for element in 0..site.len {
                for bit in 0..32u8 {
                    let mut mask = FaultMask::empty();
                    mask.push_bit(element, bit);
                    let mut cfg = FaultConfig::clean();
                    cfg.set_mask(&site.path, mask);
                    let logits =
                        cfg.with_applied(&mut model, |m| predict_all(m, eval.inputs(), 64));
                    let corrupted = logits.argmax_rows() != golden;
                    let row = &mut by_bit[bit as usize];
                    row.0 += 1;
                    row.1 += u64::from(corrupted);
                    sdc += u64::from(corrupted);
                    error_sum += bdlfi_nn::metrics::classification_error(&logits, eval.labels());
                    total += 1;
                }
            }
        }

        assert_eq!(res.injections, total);
        assert_eq!(res.sdc.successes, sdc);
        assert_eq!(
            res.mean_error.to_bits(),
            (error_sum / total as f64).to_bits()
        );
        for (b, &(injections, sdc)) in res.by_bit.iter().zip(&by_bit) {
            assert_eq!((b.injections, b.sdc), (injections, sdc), "bit {}", b.bit);
        }
    }

    #[test]
    fn exponent_bits_corrupt_more_than_low_mantissa() {
        let (model, eval) = tiny_trained();
        let res =
            run_exhaustive(&model, &eval, &SiteSpec::AllParams, 0, &RunControl::new()).unwrap();
        let sdc_rate = |bit: usize| {
            let b = &res.by_bit[bit];
            b.sdc as f64 / b.injections.max(1) as f64
        };
        // High exponent bit (30) vs mantissa LSB (0).
        assert!(
            sdc_rate(30) > sdc_rate(0),
            "exp bit rate {} <= mantissa rate {}",
            sdc_rate(30),
            sdc_rate(0)
        );
        // Mantissa LSB flips are almost always masked.
        assert!(sdc_rate(0) < 0.2);
    }

    #[test]
    fn sampled_campaign_converges_to_exhaustive_rate() {
        let (model, eval) = tiny_trained();
        let spec = SiteSpec::LayerParams {
            prefix: "fc2".into(),
        };
        let exact = run_exhaustive(&model, &eval, &spec, 0, &RunControl::new()).unwrap();

        let fi = RandomFi::new(model, eval, &spec);
        let sampled = fi
            .run(
                &RandomFiConfig {
                    injections: 800,
                    seed: 4,
                    level: 0.95,
                    workers: 0,
                },
                &RunControl::new(),
            )
            .unwrap();
        assert!(
            (sampled.sdc.rate - exact.sdc.rate).abs() < 0.07,
            "sampled {} vs exact {}",
            sampled.sdc.rate,
            exact.sdc.rate
        );
        // The exact rate lies inside the sampled CI (with margin for the
        // 5% miss probability, checked loosely).
        assert!(exact.sdc.rate > sampled.sdc.wilson.0 - 0.05);
        assert!(exact.sdc.rate < sampled.sdc.wilson.1 + 0.05);
    }

    #[test]
    fn exhaustive_is_worker_count_invariant() {
        let (model, eval) = tiny_trained();
        let spec = SiteSpec::LayerParams {
            prefix: "fc2".into(),
        };
        let serial = run_exhaustive(&model, &eval, &spec, 1, &RunControl::new()).unwrap();
        let parallel = run_exhaustive(&model, &eval, &spec, 4, &RunControl::new()).unwrap();
        assert_eq!(serial.injections, parallel.injections);
        assert_eq!(serial.sdc.successes, parallel.sdc.successes);
        assert_eq!(serial.mean_error, parallel.mean_error);
        for (a, b) in serial.by_bit.iter().zip(&parallel.by_bit) {
            assert_eq!(a.injections, b.injections);
            assert_eq!(a.sdc, b.sdc);
        }
        assert_eq!(parallel.run_meta.tasks as u64, parallel.injections);
    }

    #[test]
    fn quant_exhaustive_sweeps_all_eight_bits_of_int8_weights() {
        use bdlfi_quant::{quantize_model, CalibConfig};
        let (model, eval) = tiny_trained();
        let qm = quantize_model(&model, eval.inputs(), &CalibConfig::default());
        // fc1.weight only: 2*4 int8 elements * 8 bits = 64 injections.
        let res = run_exhaustive(
            &qm,
            &eval,
            &SiteSpec::Params(vec!["fc1.weight".into()]),
            0,
            &RunControl::new(),
        )
        .unwrap();
        assert_eq!(res.injections, 64);
        for b in &res.by_bit[..8] {
            assert_eq!(b.injections, 8, "bit {} injections", b.bit);
            assert!(b.sdc <= b.injections);
        }
        // An int8 word has no positions above bit 7.
        for b in &res.by_bit[8..] {
            assert_eq!(b.injections, 0, "bit {} injected on an i8 site", b.bit);
        }
    }

    #[test]
    fn quant_exhaustive_mixes_widths_and_is_worker_invariant() {
        use bdlfi_quant::{quantize_model, CalibConfig};
        let (model, eval) = tiny_trained();
        let qm = quantize_model(&model, eval.inputs(), &CalibConfig::default());
        let spec = SiteSpec::LayerParams {
            prefix: "fc2".into(),
        };
        let serial = run_exhaustive(&qm, &eval, &spec, 1, &RunControl::new()).unwrap();
        // fc2: 4*2 i8 weights * 8 + 2 i32 biases * 32 + 2 per-channel
        // w_scales * 32 + out_zp * 32 = 64 + 64 + 64 + 32 = 224 injections.
        assert_eq!(serial.injections, 224);
        let parallel = run_exhaustive(&qm, &eval, &spec, 4, &RunControl::new()).unwrap();
        assert_eq!(serial.sdc.successes, parallel.sdc.successes);
        assert_eq!(serial.mean_error, parallel.mean_error);
        for (a, b) in serial.by_bit.iter().zip(&parallel.by_bit) {
            assert_eq!(a.injections, b.injections);
            assert_eq!(a.sdc, b.sdc);
        }
    }

    #[test]
    fn quant_int8_msb_corrupts_more_than_lsb() {
        use bdlfi_quant::{quantize_model, CalibConfig};
        let (model, eval) = tiny_trained();
        let qm = quantize_model(&model, eval.inputs(), &CalibConfig::default());
        let res = run_exhaustive(
            &qm,
            &eval,
            &SiteSpec::Params(vec!["fc1.weight".into(), "fc2.weight".into()]),
            0,
            &RunControl::new(),
        )
        .unwrap();
        let sdc_rate = |bit: usize| {
            let b = &res.by_bit[bit];
            b.sdc as f64 / b.injections.max(1) as f64
        };
        // In two's complement the top bit moves a weight by 256 quantization
        // steps, the bottom bit by one.
        assert!(
            sdc_rate(7) >= sdc_rate(0),
            "sign/MSB rate {} < LSB rate {}",
            sdc_rate(7),
            sdc_rate(0)
        );
    }

    #[test]
    fn golden_error_matches_other_tools() {
        let (model, eval) = tiny_trained();
        let spec = SiteSpec::LayerParams {
            prefix: "fc2".into(),
        };
        let exact = run_exhaustive(&model, &eval, &spec, 0, &RunControl::new()).unwrap();
        let fi = RandomFi::new(model, eval, &spec);
        assert_eq!(exact.golden_error, fi.golden_error());
    }
}
