//! Crash-safe checkpoint/resume across every campaign driver.
//!
//! The contract under test: a campaign stopped cooperatively at an
//! arbitrary watermark and resumed from its journal must produce a report
//! bit-identical to the same campaign run uninterrupted — at one worker
//! and at the host's full parallelism. This holds because every task is a
//! pure function of `(campaign seed, task_id)` and the journal is an
//! ordered prefix of task results, so a resume recomputes exactly the
//! missing suffix.
//!
//! Also covered: the typed-error surface of the journal reader (torn
//! lines, fingerprint mismatches, resuming an already-complete journal).

use bdlfi_suite::baseline::{run_exhaustive, run_layer_fi, RandomFi, RandomFiConfig};
use bdlfi_suite::bayes::ChainConfig;
use bdlfi_suite::core::{
    boundary_map, run_campaign, run_campaign_adaptive, run_layerwise, run_protection_study,
    run_sweep, BoundaryConfig, CampaignConfig, CampaignReport, CheckpointError, CheckpointSpec,
    EngineError, FaultyModel, KernelChoice, LayerBudget, RunControl,
};
use bdlfi_suite::data::{gaussian_blobs, Dataset};
use bdlfi_suite::faults::{BernoulliBitFlip, SiteSpec};
use bdlfi_suite::nn::{mlp, optim::Sgd, Sequential, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;

/// Worker counts the resume contract must hold across, as (interrupted
/// run, resumed run): serial, the host's actual parallelism, and a journal
/// written serially then resumed at 4 workers (the engine honours 4 even
/// on a 1-core host) — the worker count is scheduling, never journal
/// identity.
fn worker_counts() -> Vec<(usize, usize)> {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts = vec![(1, 1), (host, host), (1, 4)];
    counts.dedup();
    counts
}

/// A per-test, per-process scratch directory (tests in one binary run
/// concurrently, so the tag keeps them apart; the pid keeps processes
/// apart).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("bdlfi_ckpt_{}_{}", tag, std::process::id()));
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

fn trained_mlp() -> (Sequential, Arc<Dataset>) {
    let mut rng = StdRng::seed_from_u64(910);
    let data = gaussian_blobs(200, 3, 0.6, &mut rng);
    let (train, test) = data.split(0.7, &mut rng);
    let mut model = mlp(2, &[16, 16], 3, &mut rng);
    let mut trainer = Trainer::new(
        Sgd::new(0.1).with_momentum(0.9),
        TrainConfig {
            epochs: 12,
            batch_size: 32,
            ..TrainConfig::default()
        },
    );
    trainer.fit(&mut model, train.inputs(), train.labels(), &mut rng);
    (model, Arc::new(test))
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

fn mlp_fm(p: f64) -> FaultyModel {
    let (model, eval) = trained_mlp();
    FaultyModel::new(
        model,
        eval,
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(p)),
    )
}

fn assert_reports_identical(a: &CampaignReport, b: &CampaignReport, what: &str) {
    assert_eq!(a.traces, b.traces, "{what}: traces differ");
    assert_eq!(
        a.acceptance_rates, b.acceptance_rates,
        "{what}: acceptance rates differ"
    );
    assert_eq!(a.mean_error, b.mean_error, "{what}: mean error differs");
    assert_eq!(a.mean_flips, b.mean_flips, "{what}: mean flips differ");
    assert_eq!(a.summary, b.summary, "{what}: summaries differ");
    assert_eq!(
        a.golden_error, b.golden_error,
        "{what}: golden error differs"
    );
}

fn assert_interrupted(err: EngineError, watermark: usize, what: &str) {
    match err {
        EngineError::Interrupted { completed, .. } => {
            assert_eq!(completed, watermark, "{what}: wrong watermark");
        }
        other => panic!("{what}: expected Interrupted, got {other}"),
    }
}

#[test]
fn campaign_resumes_bit_identically() {
    let fm = mlp_fm(1e-3);
    let reference = run_campaign(&fm, &campaign_cfg(41, 4, 30, 1), &RunControl::new()).unwrap();
    let scratch = Scratch::new("campaign");
    for (workers, resume_workers) in worker_counts() {
        let what = format!("campaign @{workers}->{resume_workers}");
        let cfg = campaign_cfg(41, 4, 30, workers);
        let resume_cfg = campaign_cfg(41, 4, 30, resume_workers);
        let spec = CheckpointSpec::new(
            scratch.path(&format!("w{workers}_{resume_workers}.ckpt")),
            String::new(),
        );
        let err = run_campaign(
            &fm,
            &cfg,
            &RunControl::stop_after(2).checkpointed(spec.clone()),
        )
        .unwrap_err();
        assert_interrupted(err, 2, &what);
        let resumed = run_campaign(
            &fm,
            &resume_cfg,
            &RunControl::new().checkpointed(spec.resuming()),
        )
        .unwrap_or_else(|e| panic!("{what}: resume failed: {e}"));
        assert_reports_identical(&reference, &resumed, &what);
        assert_eq!(resumed.run_meta.resumed_from, Some(2), "{what}");
    }
}

#[test]
fn adaptive_campaign_resumes_bit_identically() {
    let fm = mlp_fm(1e-3);
    // Segments of 15 samples, budget 60 → up to 4 segments; the loose
    // default criteria will not certify early at these sizes.
    let cfg_for = |workers| campaign_cfg(42, 2, 15, workers);
    let reference = run_campaign_adaptive(&fm, &cfg_for(1), 60, &RunControl::new()).unwrap();
    let scratch = Scratch::new("adaptive");
    for (workers, resume_workers) in worker_counts() {
        let what = format!("adaptive campaign @{workers}->{resume_workers}");
        let cfg = cfg_for(workers);
        let resume_cfg = cfg_for(resume_workers);
        let spec = CheckpointSpec::new(
            scratch.path(&format!("w{workers}_{resume_workers}.ckpt")),
            String::new(),
        );
        // stop_after counts completed *segments* for the adaptive driver.
        let err = run_campaign_adaptive(
            &fm,
            &cfg,
            60,
            &RunControl::stop_after(2).checkpointed(spec.clone()),
        )
        .unwrap_err();
        assert_interrupted(err, 2, &what);
        let resumed = run_campaign_adaptive(
            &fm,
            &resume_cfg,
            60,
            &RunControl::new().checkpointed(spec.resuming()),
        )
        .unwrap_or_else(|e| panic!("{what}: resume failed: {e}"));
        assert_reports_identical(&reference, &resumed, &what);
        assert!(resumed.run_meta.resumed_from.is_some(), "{what}");
    }
}

#[test]
fn sweep_resumes_bit_identically() {
    let (model, eval) = trained_mlp();
    let ps = [1e-4, 1e-3, 1e-2];
    let reference = run_sweep(
        &model,
        &eval,
        &SiteSpec::AllParams,
        &ps,
        &campaign_cfg(43, 2, 20, 1),
        &RunControl::new(),
    )
    .unwrap();
    let scratch = Scratch::new("sweep");
    for (workers, resume_workers) in worker_counts() {
        let what = format!("sweep @{workers}->{resume_workers}");
        let cfg = campaign_cfg(43, 2, 20, workers);
        let resume_cfg = campaign_cfg(43, 2, 20, resume_workers);
        let spec = CheckpointSpec::new(
            scratch.path(&format!("w{workers}_{resume_workers}.ckpt")),
            String::new(),
        );
        let err = run_sweep(
            &model,
            &eval,
            &SiteSpec::AllParams,
            &ps,
            &cfg,
            &RunControl::stop_after(1).checkpointed(spec.clone()),
        )
        .unwrap_err();
        assert_interrupted(err, 1, &what);
        let resumed = run_sweep(
            &model,
            &eval,
            &SiteSpec::AllParams,
            &ps,
            &resume_cfg,
            &RunControl::new().checkpointed(spec.resuming()),
        )
        .unwrap_or_else(|e| panic!("{what}: resume failed: {e}"));
        assert_eq!(resumed.golden_error, reference.golden_error, "{what}");
        assert_eq!(resumed.points.len(), reference.points.len(), "{what}");
        for (a, b) in reference.points.iter().zip(&resumed.points) {
            assert_eq!(a.p, b.p, "{what}");
            assert_reports_identical(&a.report, &b.report, &format!("{what} p={}", a.p));
        }
    }
}

#[test]
fn layerwise_resumes_bit_identically() {
    let (model, eval) = trained_mlp();
    let layers = ["fc1", "fc2", "fc3"];
    let budget = LayerBudget::ExpectedFlips(2.0);
    let reference = run_layerwise(
        &model,
        &eval,
        &layers,
        budget,
        &campaign_cfg(44, 2, 20, 1),
        &RunControl::new(),
    )
    .unwrap();
    let scratch = Scratch::new("layerwise");
    for (workers, resume_workers) in worker_counts() {
        let what = format!("layerwise @{workers}->{resume_workers}");
        let cfg = campaign_cfg(44, 2, 20, workers);
        let resume_cfg = campaign_cfg(44, 2, 20, resume_workers);
        let spec = CheckpointSpec::new(
            scratch.path(&format!("w{workers}_{resume_workers}.ckpt")),
            String::new(),
        );
        let err = run_layerwise(
            &model,
            &eval,
            &layers,
            budget,
            &cfg,
            &RunControl::stop_after(2).checkpointed(spec.clone()),
        )
        .unwrap_err();
        assert_interrupted(err, 2, &what);
        let resumed = run_layerwise(
            &model,
            &eval,
            &layers,
            budget,
            &resume_cfg,
            &RunControl::new().checkpointed(spec.resuming()),
        )
        .unwrap_or_else(|e| panic!("{what}: resume failed: {e}"));
        assert_eq!(
            resumed.depth_correlation.to_bits(),
            reference.depth_correlation.to_bits(),
            "{what}"
        );
        for (a, b) in reference.layers.iter().zip(&resumed.layers) {
            assert_eq!(a.p, b.p, "{what}");
            assert_reports_identical(&a.report, &b.report, &format!("{what} {}", a.layer));
        }
    }
}

#[test]
fn boundary_map_resumes_bit_identically() {
    let (model, _eval) = trained_mlp();
    let cfg_for = |workers| BoundaryConfig {
        resolution: 10,
        fault_samples: 40,
        seed: 45,
        workers,
        ..BoundaryConfig::default()
    };
    let fault_model = Arc::new(BernoulliBitFlip::new(1e-3));
    let reference = boundary_map(
        &model,
        &SiteSpec::AllParams,
        fault_model.clone(),
        &cfg_for(1),
        &RunControl::new(),
    )
    .unwrap();
    let scratch = Scratch::new("boundary");
    for (workers, resume_workers) in worker_counts() {
        let what = format!("boundary map @{workers}->{resume_workers}");
        let cfg = cfg_for(workers);
        let resume_cfg = cfg_for(resume_workers);
        let spec = CheckpointSpec::new(
            scratch.path(&format!("w{workers}_{resume_workers}.ckpt")),
            String::new(),
        );
        let err = boundary_map(
            &model,
            &SiteSpec::AllParams,
            fault_model.clone(),
            &cfg,
            &RunControl::stop_after(17).checkpointed(spec.clone()),
        )
        .unwrap_err();
        assert_interrupted(err, 17, &what);
        let resumed = boundary_map(
            &model,
            &SiteSpec::AllParams,
            fault_model.clone(),
            &resume_cfg,
            &RunControl::new().checkpointed(spec.resuming()),
        )
        .unwrap_or_else(|e| panic!("{what}: resume failed: {e}"));
        assert_eq!(resumed.error_prob, reference.error_prob, "{what}");
        assert_eq!(resumed.golden_pred, reference.golden_pred, "{what}");
        assert_eq!(
            resumed.margin_correlation, reference.margin_correlation,
            "{what}"
        );
        assert_eq!(resumed.run_meta.resumed_from, Some(17), "{what}");
    }
}

#[test]
fn protection_study_resumes_through_the_boundary_journal() {
    let (model, _eval) = trained_mlp();
    let cfg = BoundaryConfig {
        resolution: 8,
        fault_samples: 24,
        seed: 46,
        workers: 1,
        ..BoundaryConfig::default()
    };
    let fault_model = Arc::new(BernoulliBitFlip::new(2e-3));
    let reference = run_protection_study(
        &model,
        &SiteSpec::AllParams,
        fault_model.clone(),
        &cfg,
        0.9,
        &RunControl::new(),
    )
    .unwrap();
    let scratch = Scratch::new("protection");
    let spec = CheckpointSpec::new(scratch.path("study.ckpt"), String::new());
    let err = run_protection_study(
        &model,
        &SiteSpec::AllParams,
        fault_model.clone(),
        &cfg,
        0.9,
        &RunControl::stop_after(9).checkpointed(spec.clone()),
    )
    .unwrap_err();
    assert_interrupted(err, 9, "protection study");
    let resumed = run_protection_study(
        &model,
        &SiteSpec::AllParams,
        fault_model,
        &cfg,
        0.9,
        &RunControl::new().checkpointed(spec.resuming()),
    )
    .expect("protection study resume");
    assert_eq!(resumed.map.error_prob, reference.map.error_prob);
    assert_eq!(resumed.plan, reference.plan);
}

#[test]
fn random_fi_resumes_bit_identically() {
    let (model, eval) = trained_mlp();
    let fi = RandomFi::new(model, eval, &SiteSpec::AllParams);
    let cfg_for = |workers| RandomFiConfig {
        injections: 50,
        seed: 47,
        level: 0.95,
        workers,
    };
    let reference = fi.run(&cfg_for(1), &RunControl::new()).unwrap();
    let scratch = Scratch::new("random_fi");
    for (workers, resume_workers) in worker_counts() {
        let what = format!("random FI @{workers}->{resume_workers}");
        let cfg = cfg_for(workers);
        let resume_cfg = cfg_for(resume_workers);
        let spec = CheckpointSpec::new(
            scratch.path(&format!("w{workers}_{resume_workers}.ckpt")),
            String::new(),
        );
        let err = fi
            .run(&cfg, &RunControl::stop_after(23).checkpointed(spec.clone()))
            .unwrap_err();
        assert_interrupted(err, 23, &what);
        let resumed = fi
            .run(
                &resume_cfg,
                &RunControl::new().checkpointed(spec.resuming()),
            )
            .unwrap_or_else(|e| panic!("{what}: resume failed: {e}"));
        assert_eq!(resumed.errors, reference.errors, "{what}");
        assert_eq!(resumed.sdc.successes, reference.sdc.successes, "{what}");
        assert_eq!(resumed.mean_error, reference.mean_error, "{what}");
        assert_eq!(resumed.run_meta.resumed_from, Some(23), "{what}");
    }
}

#[test]
fn exhaustive_fi_resumes_bit_identically() {
    let mut rng = StdRng::seed_from_u64(912);
    let data = gaussian_blobs(80, 2, 0.7, &mut rng);
    let model = mlp(2, &[4], 2, &mut rng);
    let eval = Arc::new(data);
    let spec_sites = SiteSpec::LayerParams {
        prefix: "fc2".into(),
    };
    let reference = run_exhaustive(&model, &eval, &spec_sites, 1, &RunControl::new()).unwrap();
    let scratch = Scratch::new("exhaustive");
    for (workers, resume_workers) in worker_counts() {
        let what = format!("exhaustive FI @{workers}->{resume_workers}");
        let spec = CheckpointSpec::new(
            scratch.path(&format!("w{workers}_{resume_workers}.ckpt")),
            String::new(),
        );
        let err = run_exhaustive(
            &model,
            &eval,
            &spec_sites,
            workers,
            &RunControl::stop_after(101).checkpointed(spec.clone()),
        )
        .unwrap_err();
        assert_interrupted(err, 101, &what);
        let resumed = run_exhaustive(
            &model,
            &eval,
            &spec_sites,
            resume_workers,
            &RunControl::new().checkpointed(spec.resuming()),
        )
        .unwrap_or_else(|e| panic!("{what}: resume failed: {e}"));
        assert_eq!(resumed.injections, reference.injections, "{what}");
        assert_eq!(resumed.sdc.successes, reference.sdc.successes, "{what}");
        assert_eq!(resumed.mean_error, reference.mean_error, "{what}");
        for (a, b) in reference.by_bit.iter().zip(&resumed.by_bit) {
            assert_eq!(a.sdc, b.sdc, "{what} bit {}", a.bit);
        }
        assert_eq!(resumed.run_meta.resumed_from, Some(101), "{what}");
    }
}

#[test]
fn layer_fi_study_resumes_bit_identically() {
    let (model, eval) = trained_mlp();
    let layers = ["fc1", "fc2", "fc3"];
    let cfg_for = |workers| RandomFiConfig {
        injections: 15,
        seed: 48,
        level: 0.95,
        workers,
    };
    let reference = run_layer_fi(&model, &eval, &layers, &cfg_for(1), &RunControl::new()).unwrap();
    let scratch = Scratch::new("layer_fi");
    for (workers, resume_workers) in worker_counts() {
        let what = format!("layer FI @{workers}->{resume_workers}");
        let cfg = cfg_for(workers);
        let resume_cfg = cfg_for(resume_workers);
        let spec = CheckpointSpec::new(
            scratch.path(&format!("w{workers}_{resume_workers}.ckpt")),
            String::new(),
        );
        let err = run_layer_fi(
            &model,
            &eval,
            &layers,
            &cfg,
            &RunControl::stop_after(1).checkpointed(spec.clone()),
        )
        .unwrap_err();
        assert_interrupted(err, 1, &what);
        let resumed = run_layer_fi(
            &model,
            &eval,
            &layers,
            &resume_cfg,
            &RunControl::new().checkpointed(spec.resuming()),
        )
        .unwrap_or_else(|e| panic!("{what}: resume failed: {e}"));
        assert_eq!(
            resumed.depth_correlation.to_bits(),
            reference.depth_correlation.to_bits(),
            "{what}"
        );
        for (a, b) in reference.layers.iter().zip(&resumed.layers) {
            assert_eq!(a.result.errors, b.result.errors, "{what} {}", a.layer);
        }
    }
}

// ---------------------------------------------------------------------------
// Typed-error surface of the journal reader.
// ---------------------------------------------------------------------------

/// Interrupt a random-FI campaign to get a valid journal on disk.
fn interrupted_journal(
    scratch: &Scratch,
    name: &str,
) -> (RandomFi, RandomFiConfig, CheckpointSpec) {
    let (model, eval) = trained_mlp();
    let fi = RandomFi::new(model, eval, &SiteSpec::AllParams);
    let cfg = RandomFiConfig {
        injections: 20,
        seed: 49,
        level: 0.95,
        workers: 1,
    };
    let spec = CheckpointSpec::new(scratch.path(name), String::new());
    let err = fi
        .run(&cfg, &RunControl::stop_after(7).checkpointed(spec.clone()))
        .unwrap_err();
    assert_interrupted(err, 7, "journal fixture");
    (fi, cfg, spec)
}

#[test]
fn torn_final_journal_line_is_truncated_and_resumed() {
    // A kill mid-append leaves the final line unterminated. That is the
    // expected crash artifact, not corruption: the reader truncates the
    // torn tail, surfaces `truncated_tail`, and the resume recomputes the
    // lost task — producing a report bit-identical to an uninterrupted run.
    let scratch = Scratch::new("truncated");
    let (fi, cfg, spec) = interrupted_journal(&scratch, "torn.ckpt");
    let reference = fi.run(&cfg, &RunControl::new()).unwrap();
    // Tear the last journal line mid-record, as a crash mid-write would.
    let contents = std::fs::read_to_string(&spec.path).unwrap();
    let torn = &contents[..contents.trim_end().len() - 5];
    std::fs::write(&spec.path, torn).unwrap();

    let resumed = fi
        .run(&cfg, &RunControl::new().checkpointed(spec.resuming()))
        .expect("torn final line must resume, not error");
    assert_eq!(resumed.errors, reference.errors);
    assert_eq!(resumed.sdc.successes, reference.sdc.successes);
    assert_eq!(resumed.mean_error, reference.mean_error);
    assert!(
        resumed.run_meta.truncated_tail,
        "tail truncation not surfaced"
    );
    // 7 entries were journaled; the torn 7th was dropped, 6 replayed.
    assert_eq!(resumed.run_meta.resumed_from, Some(6));
}

#[test]
fn interior_torn_journal_line_is_a_typed_corruption_error() {
    // Only the *final* line can be a crash artifact. A short line with
    // complete lines after it cannot come from a kill mid-append — that
    // is real corruption and must stay a typed error.
    let scratch = Scratch::new("interior");
    let (fi, cfg, spec) = interrupted_journal(&scratch, "interior.ckpt");
    let contents = std::fs::read_to_string(&spec.path).unwrap();
    let mut lines: Vec<&str> = contents.lines().collect();
    let damaged = &lines[3][..lines[3].len() - 4];
    lines[3] = damaged;
    std::fs::write(&spec.path, lines.join("\n") + "\n").unwrap();

    let err = fi
        .run(&cfg, &RunControl::new().checkpointed(spec.resuming()))
        .unwrap_err();
    match err {
        EngineError::Checkpoint(CheckpointError::Corrupt { line, .. }) => {
            assert_eq!(line, 4, "corruption should be pinned to the damaged line");
        }
        other => panic!("expected Checkpoint(Corrupt), got {other}"),
    }
}

#[test]
fn fingerprint_mismatch_is_a_typed_error() {
    let scratch = Scratch::new("mismatch");
    let (fi, cfg, spec) = interrupted_journal(&scratch, "fp.ckpt");
    // Resuming under a different configuration must be refused: the
    // journal's fingerprint no longer matches.
    let other_cfg = RandomFiConfig {
        seed: cfg.seed + 1,
        ..cfg
    };
    let err = fi
        .run(&other_cfg, &RunControl::new().checkpointed(spec.resuming()))
        .unwrap_err();
    match err {
        EngineError::Checkpoint(CheckpointError::Mismatch { field, .. }) => {
            assert_eq!(field, "fingerprint");
        }
        other => panic!("expected Checkpoint(Mismatch), got {other}"),
    }
}

#[test]
fn resuming_a_complete_journal_is_a_typed_error() {
    let scratch = Scratch::new("complete");
    let (fi, cfg, spec) = interrupted_journal(&scratch, "done.ckpt");
    // Finish the campaign, then try to resume again.
    fi.run(
        &cfg,
        &RunControl::new().checkpointed(spec.clone().resuming()),
    )
    .expect("resume to completion");
    let err = fi
        .run(&cfg, &RunControl::new().checkpointed(spec.resuming()))
        .unwrap_err();
    match err {
        EngineError::Checkpoint(CheckpointError::AlreadyComplete { tasks }) => {
            assert_eq!(tasks, cfg.injections);
        }
        other => panic!("expected Checkpoint(AlreadyComplete), got {other}"),
    }
}

#[test]
fn fresh_journal_ignores_stale_file_from_other_config() {
    // A non-resuming CheckpointSpec must overwrite whatever is at the
    // path, even a journal from a different campaign.
    let scratch = Scratch::new("overwrite");
    let (fi, _cfg, spec) = interrupted_journal(&scratch, "stale.ckpt");
    let cfg = RandomFiConfig {
        injections: 9,
        seed: 50,
        level: 0.95,
        workers: 1,
    };
    let fresh = CheckpointSpec::new(spec.path.clone(), String::new());
    let res = fi
        .run(&cfg, &RunControl::new().checkpointed(fresh.clone()))
        .expect("fresh run over stale journal");
    assert_eq!(res.injections, 9);
    assert_eq!(res.run_meta.resumed_from, None);
}
