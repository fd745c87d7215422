//! The quantized-deployment workload under every campaign driver.
//!
//! The contract under test: an int8 campaign driven through the same
//! `EvalEngine` as the f32 workload inherits the full determinism and
//! resume discipline — byte-for-byte identical reports at any worker
//! count, and across an interrupt/resume cycle — and the exhaustive
//! driver enumerates exactly the 8-bit space of int8 storage (not the
//! 32-bit space of f32), reporting per-bit SDC for all eight positions.

use bdlfi_suite::baseline::{run_exhaustive, ExhaustiveResult};
use bdlfi_suite::bayes::ChainConfig;
use bdlfi_suite::core::{
    run_campaign, run_campaign_adaptive, run_layerwise, run_sweep, CampaignConfig, CampaignReport,
    CheckpointError, CheckpointSpec, EngineError, FaultyModel, KernelChoice, LayerBudget,
    QuantFaultyModel, RunControl, RunMeta,
};
use bdlfi_suite::data::{gaussian_blobs, Dataset};
use bdlfi_suite::faults::{BernoulliBitFlip, BitRange, Repr, SiteSpec};
use bdlfi_suite::nn::{mlp, optim::Sgd, Sequential, TrainConfig, Trainer};
use bdlfi_suite::quant::{quantize_model, CalibConfig, QuantModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;

/// Worker counts the determinism contract must hold across: serial and
/// the host's actual parallelism.
fn worker_counts() -> Vec<usize> {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts = vec![1, host];
    counts.dedup();
    counts
}

/// A per-test, per-process scratch directory.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("bdlfi_quant_{}_{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Train a small MLP and quantize it against its own training inputs.
fn quantized_mlp(hidden: &[usize]) -> (QuantModel, Arc<Dataset>) {
    let (_, qm, eval) = trained_pair(hidden);
    (qm, eval)
}

/// The trained f32 MLP, its int8 quantization and the evaluation split.
fn trained_pair(hidden: &[usize]) -> (Sequential, QuantModel, Arc<Dataset>) {
    let mut rng = StdRng::seed_from_u64(2024);
    let data = gaussian_blobs(160, 3, 0.6, &mut rng);
    let (train, test) = data.split(0.7, &mut rng);
    let mut model: Sequential = mlp(2, hidden, 3, &mut rng);
    let mut trainer = Trainer::new(
        Sgd::new(0.1).with_momentum(0.9),
        TrainConfig {
            epochs: 12,
            batch_size: 32,
            ..TrainConfig::default()
        },
    );
    trainer.fit(&mut model, train.inputs(), train.labels(), &mut rng);
    let qm = quantize_model(&model, train.inputs(), &CalibConfig::default());
    (model, qm, Arc::new(test))
}

fn quant_fm(p: f64) -> QuantFaultyModel {
    let (qm, eval) = quantized_mlp(&[16, 16]);
    QuantFaultyModel::new(
        qm,
        eval,
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::with_bits(p, BitRange::all_for(Repr::I8))),
    )
}

fn campaign_cfg(seed: u64, chains: usize, samples: usize, workers: usize) -> CampaignConfig {
    CampaignConfig {
        chains,
        chain: ChainConfig {
            burn_in: 0,
            samples,
            thin: 1,
        },
        kernel: KernelChoice::Prior,
        seed,
        workers,
        ..CampaignConfig::default()
    }
}

/// Serialize a report with its execution metadata normalized away —
/// wall-clock and worker count legitimately differ between runs; every
/// other byte must not.
fn report_bytes(report: &CampaignReport) -> String {
    let mut normalized = report.clone();
    normalized.run_meta = RunMeta::default();
    normalized.config.workers = 0;
    serde_json::to_string(&normalized).expect("serialize report")
}

fn assert_interrupted(err: EngineError, watermark: usize, what: &str) {
    match err {
        EngineError::Interrupted { completed, .. } => {
            assert_eq!(completed, watermark, "{what}: wrong watermark");
        }
        other => panic!("{what}: expected Interrupted, got {other}"),
    }
}

// ---------------------------------------------------------------------------
// Campaign determinism and resume.
// ---------------------------------------------------------------------------

#[test]
fn quant_campaign_is_bit_identical_across_worker_counts() {
    let fm = quant_fm(2e-3);
    let reference =
        report_bytes(&run_campaign(&fm, &campaign_cfg(71, 4, 30, 1), &RunControl::new()).unwrap());
    for workers in worker_counts() {
        let report =
            run_campaign(&fm, &campaign_cfg(71, 4, 30, workers), &RunControl::new()).unwrap();
        assert_eq!(
            report_bytes(&report),
            reference,
            "quant campaign @{workers}: report bytes differ from serial run"
        );
    }
}

#[test]
fn quant_campaign_resumes_byte_for_byte() {
    let fm = quant_fm(2e-3);
    let reference =
        report_bytes(&run_campaign(&fm, &campaign_cfg(72, 4, 30, 1), &RunControl::new()).unwrap());
    let scratch = Scratch::new("campaign");
    for workers in worker_counts() {
        let what = format!("quant campaign @{workers}");
        let cfg = campaign_cfg(72, 4, 30, workers);
        let spec = CheckpointSpec::new(scratch.path(&format!("w{workers}.ckpt")), String::new());
        let err = run_campaign(
            &fm,
            &cfg,
            &RunControl::stop_after(2).checkpointed(spec.clone()),
        )
        .unwrap_err();
        assert_interrupted(err, 2, &what);
        let resumed = run_campaign(&fm, &cfg, &RunControl::new().checkpointed(spec.resuming()))
            .unwrap_or_else(|e| panic!("{what}: resume failed: {e}"));
        assert_eq!(resumed.run_meta.resumed_from, Some(2), "{what}");
        assert_eq!(
            report_bytes(&resumed),
            reference,
            "{what}: resumed report differs from uninterrupted run"
        );
    }
}

#[test]
fn quant_campaign_reports_int8_scale_flip_counts() {
    // With BitRange::all_for(I8) over int8/i32 sites, mean flips per
    // config should track p * total injectable bits, not p * 32 * elements.
    let fm = quant_fm(1e-3);
    let total_bits: u64 = fm.sites().params.iter().map(|s| s.injectable_bits()).sum();
    let report = run_campaign(&fm, &campaign_cfg(73, 4, 40, 0), &RunControl::new()).unwrap();
    let expected = 1e-3 * total_bits as f64;
    assert!(
        (report.mean_flips - expected).abs() < expected.max(1.0),
        "mean flips {} should be near p*bits = {expected}",
        report.mean_flips
    );
}

// ---------------------------------------------------------------------------
// Sweep and layerwise drivers.
// ---------------------------------------------------------------------------

#[test]
fn quant_sweep_resumes_bit_identically() {
    let (qm, eval) = quantized_mlp(&[16, 16]);
    let ps = [1e-4, 1e-3, 1e-2];
    let reference = run_sweep(
        &qm,
        &eval,
        &SiteSpec::AllParams,
        &ps,
        &campaign_cfg(74, 2, 20, 1),
        &RunControl::new(),
    )
    .unwrap();
    let scratch = Scratch::new("sweep");
    for workers in worker_counts() {
        let what = format!("quant sweep @{workers}");
        let cfg = campaign_cfg(74, 2, 20, workers);
        let spec = CheckpointSpec::new(scratch.path(&format!("w{workers}.ckpt")), String::new());
        let err = run_sweep(
            &qm,
            &eval,
            &SiteSpec::AllParams,
            &ps,
            &cfg,
            &RunControl::stop_after(1).checkpointed(spec.clone()),
        )
        .unwrap_err();
        assert_interrupted(err, 1, &what);
        let resumed = run_sweep(
            &qm,
            &eval,
            &SiteSpec::AllParams,
            &ps,
            &cfg,
            &RunControl::new().checkpointed(spec.resuming()),
        )
        .unwrap_or_else(|e| panic!("{what}: resume failed: {e}"));
        assert_eq!(resumed.golden_error, reference.golden_error, "{what}");
        assert_eq!(resumed.points.len(), reference.points.len(), "{what}");
        for (a, b) in reference.points.iter().zip(&resumed.points) {
            assert_eq!(a.p, b.p, "{what}");
            assert_eq!(
                report_bytes(&a.report),
                report_bytes(&b.report),
                "{what} p={}: report bytes differ",
                a.p
            );
        }
    }
}

#[test]
fn quant_layerwise_resumes_bit_identically() {
    let (qm, eval) = quantized_mlp(&[16, 16]);
    let layers = ["fc1", "fc2", "fc3"];
    let budget = LayerBudget::ExpectedFlips(2.0);
    let reference = run_layerwise(
        &qm,
        &eval,
        &layers,
        budget,
        &campaign_cfg(75, 2, 20, 1),
        &RunControl::new(),
    )
    .unwrap();
    let scratch = Scratch::new("layerwise");
    for workers in worker_counts() {
        let what = format!("quant layerwise @{workers}");
        let cfg = campaign_cfg(75, 2, 20, workers);
        let spec = CheckpointSpec::new(scratch.path(&format!("w{workers}.ckpt")), String::new());
        let err = run_layerwise(
            &qm,
            &eval,
            &layers,
            budget,
            &cfg,
            &RunControl::stop_after(2).checkpointed(spec.clone()),
        )
        .unwrap_err();
        assert_interrupted(err, 2, &what);
        let resumed = run_layerwise(
            &qm,
            &eval,
            &layers,
            budget,
            &cfg,
            &RunControl::new().checkpointed(spec.resuming()),
        )
        .unwrap_or_else(|e| panic!("{what}: resume failed: {e}"));
        for (a, b) in reference.layers.iter().zip(&resumed.layers) {
            assert_eq!(a.p, b.p, "{what} {}", a.layer);
            assert_eq!(
                report_bytes(&a.report),
                report_bytes(&b.report),
                "{what} {}: report bytes differ",
                a.layer
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Journal identity across representations.
// ---------------------------------------------------------------------------

/// A run of one driver over one representation, under `ctl` and journal.
type Run<'a> = Box<dyn Fn(&RunControl) -> Result<(), EngineError> + 'a>;

/// Interrupts each representation's run after its first task, then
/// resumes that journal under the other representation, which must refuse
/// it with a typed fingerprint mismatch.
fn assert_cross_refused(scratch: &Scratch, what: &str, f32_run: Run<'_>, int8_run: Run<'_>) {
    for (from, write, resume) in [("f32", &f32_run, &int8_run), ("int8", &int8_run, &f32_run)] {
        let spec = CheckpointSpec::new(scratch.path(&format!("{what}_{from}.ckpt")), String::new());
        let what = format!("{what}: {from} journal under the other representation");
        let err = write(&RunControl::stop_after(1).checkpointed(spec.clone())).unwrap_err();
        assert_interrupted(err, 1, &what);
        match resume(&RunControl::new().checkpointed(spec.resuming())) {
            Err(EngineError::Checkpoint(CheckpointError::Mismatch {
                field: "fingerprint",
                ..
            })) => {}
            Err(other) => panic!("{what}: expected a fingerprint mismatch, got {other}"),
            Ok(()) => panic!("{what}: resumed"),
        }
    }
}

#[test]
fn f32_and_int8_journals_never_cross_resume() {
    let (model, qm, eval) = trained_pair(&[16, 16]);
    let sites = SiteSpec::AllParams;
    let fault = || Arc::new(BernoulliBitFlip::new(1e-3));
    let fm = FaultyModel::new(model.clone(), Arc::clone(&eval), &sites, fault());
    let qfm = QuantFaultyModel::new(qm.clone(), Arc::clone(&eval), &sites, fault());
    // With equal golden errors only the representation namespace keeps the
    // campaign and adaptive journals apart.
    assert_eq!(fm.golden_error(), qfm.golden_error());
    let cfg = campaign_cfg(76, 2, 10, 1);
    let (ps, layers, budget) = ([1e-3, 1e-2], ["fc1", "fc2"], LayerBudget::PerBit(1e-3));
    let scratch = Scratch::new("cross");

    assert_cross_refused(
        &scratch,
        "campaign",
        Box::new(|ctl| run_campaign(&fm, &cfg, ctl).map(drop)),
        Box::new(|ctl| run_campaign(&qfm, &cfg, ctl).map(drop)),
    );
    assert_cross_refused(
        &scratch,
        "adaptive",
        Box::new(|ctl| run_campaign_adaptive(&fm, &cfg, 30, ctl).map(drop)),
        Box::new(|ctl| run_campaign_adaptive(&qfm, &cfg, 30, ctl).map(drop)),
    );
    assert_cross_refused(
        &scratch,
        "sweep",
        Box::new(|ctl| run_sweep(&model, &eval, &sites, &ps, &cfg, ctl).map(drop)),
        Box::new(|ctl| run_sweep(&qm, &eval, &sites, &ps, &cfg, ctl).map(drop)),
    );
    assert_cross_refused(
        &scratch,
        "layerwise",
        Box::new(|ctl| run_layerwise(&model, &eval, &layers, budget, &cfg, ctl).map(drop)),
        Box::new(|ctl| run_layerwise(&qm, &eval, &layers, budget, &cfg, ctl).map(drop)),
    );
    assert_cross_refused(
        &scratch,
        "exhaustive",
        Box::new(|ctl| run_exhaustive(&model, &eval, &sites, 1, ctl).map(drop)),
        Box::new(|ctl| run_exhaustive(&qm, &eval, &sites, 1, ctl).map(drop)),
    );
}

// ---------------------------------------------------------------------------
// Exhaustive int8 bit ablation.
// ---------------------------------------------------------------------------

fn assert_eight_bit_coverage(res: &ExhaustiveResult, elements: u64, what: &str) {
    assert_eq!(res.injections, elements * 8, "{what}: total injections");
    for stats in &res.by_bit {
        if stats.bit < 8 {
            assert_eq!(
                stats.injections, elements,
                "{what}: bit {} must be injected once per element",
                stats.bit
            );
            assert!(
                stats.sdc <= stats.injections,
                "{what}: bit {} SDC exceeds injections",
                stats.bit
            );
        } else {
            assert_eq!(
                stats.injections, 0,
                "{what}: int8 storage has no bit {}",
                stats.bit
            );
        }
    }
}

#[test]
fn quant_exhaustive_sweeps_the_complete_eight_bit_space() {
    let (qm, eval) = quantized_mlp(&[4]);
    // fc1.weight of a 2-[4]-3 MLP: 8 int8 elements, 8 bits each.
    let spec = SiteSpec::Params(vec!["fc1.weight".into()]);
    let res = run_exhaustive(&qm, &eval, &spec, 0, &RunControl::new()).unwrap();
    assert_eight_bit_coverage(&res, 8, "fc1.weight");
    // Per-bit SDC rates are reportable for every one of the 8 positions.
    let rates: Vec<f64> = res.by_bit[..8]
        .iter()
        .map(|b| b.sdc as f64 / b.injections as f64)
        .collect();
    assert!(rates
        .iter()
        .all(|r| r.is_finite() && (0.0..=1.0).contains(r)));
    // The int8 MSB is the sign bit of a value scaled to fill [-127, 127];
    // flipping it moves the weight by 256 quant steps — it must corrupt
    // at least as often as the LSB's single-step nudge.
    assert!(
        rates[7] >= rates[0],
        "int8 sign-bit SDC {} below LSB SDC {}",
        rates[7],
        rates[0]
    );
}

#[test]
fn quant_exhaustive_resumes_bit_identically() {
    let (qm, eval) = quantized_mlp(&[4]);
    let site_spec = SiteSpec::LayerParams {
        prefix: "fc1".into(),
    };
    let reference = run_exhaustive(&qm, &eval, &site_spec, 1, &RunControl::new()).unwrap();
    let scratch = Scratch::new("exhaustive");
    for workers in worker_counts() {
        let what = format!("quant exhaustive @{workers}");
        let spec = CheckpointSpec::new(scratch.path(&format!("w{workers}.ckpt")), String::new());
        let err = run_exhaustive(
            &qm,
            &eval,
            &site_spec,
            workers,
            &RunControl::stop_after(31).checkpointed(spec.clone()),
        )
        .unwrap_err();
        assert_interrupted(err, 31, &what);
        let resumed = run_exhaustive(
            &qm,
            &eval,
            &site_spec,
            workers,
            &RunControl::new().checkpointed(spec.resuming()),
        )
        .unwrap_or_else(|e| panic!("{what}: resume failed: {e}"));
        assert_eq!(resumed.injections, reference.injections, "{what}");
        assert_eq!(resumed.sdc.successes, reference.sdc.successes, "{what}");
        assert_eq!(
            resumed.mean_error.to_bits(),
            reference.mean_error.to_bits(),
            "{what}"
        );
        for (a, b) in reference.by_bit.iter().zip(&resumed.by_bit) {
            assert_eq!(a.sdc, b.sdc, "{what} bit {}", a.bit);
            assert_eq!(a.injections, b.injections, "{what} bit {}", a.bit);
        }
        assert_eq!(resumed.run_meta.resumed_from, Some(31), "{what}");
    }
}
