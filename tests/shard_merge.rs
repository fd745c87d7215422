//! Distributed sharded campaigns end-to-end: every driver's shard
//! runner, across f32 and int8 workloads, must produce shard journals
//! that merge back into a journal *byte-for-byte identical* to the one a
//! single-process run writes — and the merged journal must finalize into
//! the same report. Also covered: worker-count invariance of shard
//! journals, interrupt-one-shard → resume → merge equivalence, the
//! strict merge verifier's typed refusals on real driver journals, the
//! shard runners' refusal of a control without a journal, and
//! permutation-invariant pooling of per-shard `RunMeta`.

use bdlfi_suite::bayes::ChainConfig;
use bdlfi_suite::core::{
    merge_shards, read_journal, run_campaign, run_campaign_shard, run_layerwise,
    run_layerwise_shard, run_sweep, run_sweep_shard, CampaignConfig, CheckpointSpec, EngineError,
    FaultyModel, KernelChoice, LayerBudget, QuantFaultyModel, RunControl, RunMeta, RunObserver,
    ShardError, ShardPlan,
};
use bdlfi_suite::data::{gaussian_blobs, Dataset};
use bdlfi_suite::faults::{BernoulliBitFlip, SiteSpec};
use bdlfi_suite::nn::{mlp, optim::Sgd, Sequential, TrainConfig, Trainer};
use bdlfi_suite::quant::{quantize_model, CalibConfig, QuantModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Per-test scratch directory (concurrent tests + processes kept apart).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("bdlfi_shard_{}_{}", tag, std::process::id()));
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

fn host_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
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

fn quantized_mlp() -> (QuantModel, Arc<Dataset>) {
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
    let qm = quantize_model(&model, train.inputs(), &CalibConfig::default());
    (qm, Arc::new(test))
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

fn quant_fm(p: f64) -> QuantFaultyModel {
    let (qm, eval) = quantized_mlp();
    QuantFaultyModel::new(
        qm,
        eval,
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(p)),
    )
}

fn bytes(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Builds the merge plan matching a single-process journal by reading
/// its header back (the header carries base fingerprint, seed, tasks).
fn plan_from_journal(path: &Path, count: usize) -> ShardPlan {
    let whole = read_journal(path).expect("single-process journal reads");
    ShardPlan::new(
        whole.header.fingerprint.clone(),
        whole.header.seed,
        whole.header.tasks,
        count,
    )
    .expect("plan is valid")
}

// ---- campaign: f32 and int8, merge ≡ single process --------------------

#[test]
fn campaign_shards_merge_byte_identically_f32() {
    let fm = mlp_fm(1e-3);
    let cfg = campaign_cfg(51, 6, 20, 1);
    let scratch = Scratch::new("campaign_f32");

    let whole_path = scratch.path("whole.ckpt");
    let report = run_campaign(
        &fm,
        &cfg,
        &RunControl::new().checkpointed(CheckpointSpec::new(whole_path.clone(), String::new())),
    )
    .expect("single-process run");

    let count = 3;
    let mut shard_paths = Vec::new();
    for index in 0..count {
        let path = scratch.path(&format!("shard{index}.ckpt"));
        run_campaign_shard(
            &fm,
            &cfg,
            count,
            index,
            &RunControl::new().checkpointed(CheckpointSpec::new(path.clone(), String::new())),
        )
        .unwrap_or_else(|e| panic!("shard {index} failed: {e}"));
        shard_paths.push(path);
    }

    let plan = plan_from_journal(&whole_path, count);
    let merged_path = scratch.path("merged.ckpt");
    let summary = merge_shards(&plan, &shard_paths, &merged_path).expect("merge succeeds");
    assert_eq!(summary.tasks, cfg.chains);
    assert_eq!(summary.shards, count);
    assert_eq!(
        bytes(&merged_path),
        bytes(&whole_path),
        "merged journal must be byte-identical to the single-process journal"
    );

    // Finalizing the merged journal replays it through the normal driver
    // path (zero live tasks) and must reproduce the direct report.
    let finalized = run_campaign(
        &fm,
        &cfg,
        &RunControl::new()
            .checkpointed(CheckpointSpec::new(merged_path, String::new()).finalizing()),
    )
    .expect("finalize succeeds");
    assert_eq!(finalized.traces, report.traces);
    assert_eq!(finalized.summary, report.summary);
    assert_eq!(finalized.mean_error, report.mean_error);
    assert_eq!(finalized.run_meta.tasks, cfg.chains);
    assert_eq!(
        finalized.run_meta.resumed_from,
        Some(cfg.chains),
        "finalize must recompute nothing"
    );
}

#[test]
fn campaign_shards_merge_byte_identically_int8() {
    let fm = quant_fm(1e-3);
    let cfg = campaign_cfg(52, 4, 15, 1);
    let scratch = Scratch::new("campaign_int8");

    let whole_path = scratch.path("whole.ckpt");
    let report = run_campaign(
        &fm,
        &cfg,
        &RunControl::new().checkpointed(CheckpointSpec::new(whole_path.clone(), String::new())),
    )
    .expect("single-process run");

    let count = 2;
    let mut shard_paths = Vec::new();
    for index in 0..count {
        let path = scratch.path(&format!("shard{index}.ckpt"));
        run_campaign_shard(
            &fm,
            &cfg,
            count,
            index,
            &RunControl::new().checkpointed(CheckpointSpec::new(path.clone(), String::new())),
        )
        .unwrap_or_else(|e| panic!("shard {index} failed: {e}"));
        shard_paths.push(path);
    }

    let plan = plan_from_journal(&whole_path, count);
    let merged_path = scratch.path("merged.ckpt");
    merge_shards(&plan, &shard_paths, &merged_path).expect("merge succeeds");
    assert_eq!(bytes(&merged_path), bytes(&whole_path));

    let finalized = run_campaign(
        &fm,
        &cfg,
        &RunControl::new()
            .checkpointed(CheckpointSpec::new(merged_path, String::new()).finalizing()),
    )
    .expect("finalize succeeds");
    assert_eq!(finalized.traces, report.traces);
    assert_eq!(finalized.summary, report.summary);
}

// ---- worker invariance: shard journals don't depend on parallelism ----

#[test]
fn shard_journals_are_worker_count_invariant() {
    let fm = mlp_fm(1e-3);
    let scratch = Scratch::new("workers");
    // At least 4 engine threads even on a single-core host: the invariant
    // under test is that neither the scheduling nor the journal
    // fingerprint (which pins `workers` via `journal_fingerprint`) depends on
    // the configured worker count.
    let host = host_workers().max(4);
    let index = 1;
    let count = 3;

    let serial = scratch.path("serial.ckpt");
    run_campaign_shard(
        &fm,
        &campaign_cfg(53, 6, 20, 1),
        count,
        index,
        &RunControl::new().checkpointed(CheckpointSpec::new(serial.clone(), String::new())),
    )
    .expect("serial shard");

    let parallel = scratch.path("parallel.ckpt");
    run_campaign_shard(
        &fm,
        &campaign_cfg(53, 6, 20, host),
        count,
        index,
        &RunControl::new().checkpointed(CheckpointSpec::new(parallel.clone(), String::new())),
    )
    .expect("parallel shard");

    assert_eq!(
        bytes(&serial),
        bytes(&parallel),
        "shard journal must not depend on the worker count (1 vs {host})"
    );
}

// ---- sweep and layerwise: f32 + int8 ----------------------------------

#[test]
fn sweep_shards_merge_byte_identically() {
    let (model, eval) = trained_mlp();
    let ps = [1e-4, 1e-3, 1e-2, 5e-2];
    let cfg = campaign_cfg(54, 2, 15, 1);
    let scratch = Scratch::new("sweep");

    let whole_path = scratch.path("whole.ckpt");
    run_sweep(
        &model,
        &eval,
        &SiteSpec::AllParams,
        &ps,
        &cfg,
        &RunControl::new().checkpointed(CheckpointSpec::new(whole_path.clone(), String::new())),
    )
    .expect("single-process sweep");

    let count = 2;
    let mut shard_paths = Vec::new();
    for index in 0..count {
        let path = scratch.path(&format!("shard{index}.ckpt"));
        run_sweep_shard(
            &model,
            &eval,
            &SiteSpec::AllParams,
            &ps,
            &cfg,
            count,
            index,
            &RunControl::new().checkpointed(CheckpointSpec::new(path.clone(), String::new())),
        )
        .unwrap_or_else(|e| panic!("sweep shard {index} failed: {e}"));
        shard_paths.push(path);
    }

    let plan = plan_from_journal(&whole_path, count);
    let merged_path = scratch.path("merged.ckpt");
    merge_shards(&plan, &shard_paths, &merged_path).expect("merge succeeds");
    assert_eq!(bytes(&merged_path), bytes(&whole_path));
}

#[test]
fn sweep_quant_shards_merge_byte_identically() {
    let (qm, eval) = quantized_mlp();
    let ps = [1e-4, 1e-3, 1e-2];
    let cfg = campaign_cfg(55, 2, 12, 1);
    let scratch = Scratch::new("sweep_quant");

    let whole_path = scratch.path("whole.ckpt");
    run_sweep(
        &qm,
        &eval,
        &SiteSpec::AllParams,
        &ps,
        &cfg,
        &RunControl::new().checkpointed(CheckpointSpec::new(whole_path.clone(), String::new())),
    )
    .expect("single-process quant sweep");

    let count = 3;
    let mut shard_paths = Vec::new();
    for index in 0..count {
        let path = scratch.path(&format!("shard{index}.ckpt"));
        run_sweep_shard(
            &qm,
            &eval,
            &SiteSpec::AllParams,
            &ps,
            &cfg,
            count,
            index,
            &RunControl::new().checkpointed(CheckpointSpec::new(path.clone(), String::new())),
        )
        .unwrap_or_else(|e| panic!("quant sweep shard {index} failed: {e}"));
        shard_paths.push(path);
    }

    let plan = plan_from_journal(&whole_path, count);
    let merged_path = scratch.path("merged.ckpt");
    merge_shards(&plan, &shard_paths, &merged_path).expect("merge succeeds");
    assert_eq!(bytes(&merged_path), bytes(&whole_path));
}

#[test]
fn layerwise_shards_merge_byte_identically() {
    let (model, eval) = trained_mlp();
    let layers = ["fc1", "fc2", "fc3"];
    let budget = LayerBudget::ExpectedFlips(2.0);
    let cfg = campaign_cfg(56, 2, 15, 1);
    let scratch = Scratch::new("layerwise");

    let whole_path = scratch.path("whole.ckpt");
    run_layerwise(
        &model,
        &eval,
        &layers,
        budget,
        &cfg,
        &RunControl::new().checkpointed(CheckpointSpec::new(whole_path.clone(), String::new())),
    )
    .expect("single-process layerwise");

    let count = 3;
    let mut shard_paths = Vec::new();
    for index in 0..count {
        let path = scratch.path(&format!("shard{index}.ckpt"));
        run_layerwise_shard(
            &model,
            &eval,
            &layers,
            budget,
            &cfg,
            count,
            index,
            &RunControl::new().checkpointed(CheckpointSpec::new(path.clone(), String::new())),
        )
        .unwrap_or_else(|e| panic!("layerwise shard {index} failed: {e}"));
        shard_paths.push(path);
    }

    let plan = plan_from_journal(&whole_path, count);
    let merged_path = scratch.path("merged.ckpt");
    merge_shards(&plan, &shard_paths, &merged_path).expect("merge succeeds");
    assert_eq!(bytes(&merged_path), bytes(&whole_path));
}

#[test]
fn layerwise_quant_shards_merge_byte_identically() {
    let (qm, eval) = quantized_mlp();
    let layers = ["fc1", "fc2"];
    let budget = LayerBudget::ExpectedFlips(2.0);
    let cfg = campaign_cfg(57, 2, 12, 1);
    let scratch = Scratch::new("layerwise_quant");

    let whole_path = scratch.path("whole.ckpt");
    run_layerwise(
        &qm,
        &eval,
        &layers,
        budget,
        &cfg,
        &RunControl::new().checkpointed(CheckpointSpec::new(whole_path.clone(), String::new())),
    )
    .expect("single-process quant layerwise");

    let count = 2;
    let mut shard_paths = Vec::new();
    for index in 0..count {
        let path = scratch.path(&format!("shard{index}.ckpt"));
        run_layerwise_shard(
            &qm,
            &eval,
            &layers,
            budget,
            &cfg,
            count,
            index,
            &RunControl::new().checkpointed(CheckpointSpec::new(path.clone(), String::new())),
        )
        .unwrap_or_else(|e| panic!("quant layerwise shard {index} failed: {e}"));
        shard_paths.push(path);
    }

    let plan = plan_from_journal(&whole_path, count);
    let merged_path = scratch.path("merged.ckpt");
    merge_shards(&plan, &shard_paths, &merged_path).expect("merge succeeds");
    assert_eq!(bytes(&merged_path), bytes(&whole_path));
}

// ---- interrupt one shard, resume it, merge ≡ uninterrupted ------------

#[test]
fn interrupted_shard_resumes_and_merges_identically() {
    let fm = mlp_fm(1e-3);
    let cfg = campaign_cfg(58, 6, 20, 1);
    let scratch = Scratch::new("interrupt");

    let whole_path = scratch.path("whole.ckpt");
    run_campaign(
        &fm,
        &cfg,
        &RunControl::new().checkpointed(CheckpointSpec::new(whole_path.clone(), String::new())),
    )
    .expect("single-process run");

    let count = 3;
    let mut shard_paths = Vec::new();
    for index in 0..count {
        let path = scratch.path(&format!("shard{index}.ckpt"));
        let spec = CheckpointSpec::new(path.clone(), String::new());
        if index == 1 {
            // Interrupt this shard after one of its two chains, then
            // resume it from its journal.
            let err = run_campaign_shard(
                &fm,
                &cfg,
                count,
                index,
                &RunControl::stop_after(1).checkpointed(spec.clone()),
            )
            .expect_err("stop_after must interrupt");
            match err {
                ShardError::Engine(EngineError::Interrupted { completed, .. }) => {
                    assert_eq!(completed, 1, "wrong watermark");
                }
                other => panic!("expected Interrupted, got {other}"),
            }
            let meta = run_campaign_shard(
                &fm,
                &cfg,
                count,
                index,
                &RunControl::new().checkpointed(spec.resuming()),
            )
            .expect("resume succeeds");
            assert_eq!(meta.resumed_from, Some(1));
        } else {
            run_campaign_shard(
                &fm,
                &cfg,
                count,
                index,
                &RunControl::new().checkpointed(spec.clone()),
            )
            .unwrap_or_else(|e| panic!("shard {index} failed: {e}"));
        }
        shard_paths.push(path);
    }

    let plan = plan_from_journal(&whole_path, count);
    let merged_path = scratch.path("merged.ckpt");
    merge_shards(&plan, &shard_paths, &merged_path).expect("merge succeeds");
    assert_eq!(
        bytes(&merged_path),
        bytes(&whole_path),
        "an interrupted-then-resumed shard must merge identically"
    );
}

// ---- typed refusals on real driver journals ---------------------------

/// Counts the results a run delivers.
#[derive(Default)]
struct Deliveries(AtomicUsize);

impl RunObserver for Deliveries {
    fn on_result(&self, _task_id: usize, _tasks: usize, _value: &serde::Value) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn shard_runners_without_a_journal_are_refused_and_write_nothing() {
    let (model, eval) = trained_mlp();
    let fm = mlp_fm(1e-3);
    let cfg = campaign_cfg(97, 4, 10, 1);
    let (ps, layers) = ([1e-3, 1e-2], ["fc1", "fc2"]);
    // A shard's journal is its whole output: a control without one is
    // refused before any task runs or any file (a journal at some default
    // path, say) is created.
    let listing = || {
        let mut names: Vec<_> = std::fs::read_dir(".")
            .expect("working directory lists")
            .map(|e| e.expect("directory entry").file_name())
            .collect();
        names.sort();
        names
    };
    let before = listing();
    let seen = Arc::new(Deliveries::default());
    let ctl = RunControl::new().observing(Arc::clone(&seen) as Arc<dyn RunObserver>);
    let refusals = [
        ("campaign", run_campaign_shard(&fm, &cfg, 2, 0, &ctl)),
        (
            "sweep",
            run_sweep_shard(&model, &eval, &SiteSpec::AllParams, &ps, &cfg, 2, 0, &ctl),
        ),
        (
            "layerwise",
            run_layerwise_shard(
                &model,
                &eval,
                &layers,
                LayerBudget::PerBit(1e-3),
                &cfg,
                2,
                0,
                &ctl,
            ),
        ),
    ];
    for (what, result) in refusals {
        match result {
            Err(ShardError::Plan { .. }) => {}
            other => panic!("{what}: expected a plan refusal, got {other:?}"),
        }
    }
    assert_eq!(seen.0.load(Ordering::Relaxed), 0, "a refused shard ran");
    assert_eq!(listing(), before, "a refused shard created a file");
}

#[test]
fn merge_verifier_refuses_bad_shard_sets_with_typed_errors() {
    let fm = mlp_fm(1e-3);
    let cfg = campaign_cfg(59, 4, 15, 1);
    let scratch = Scratch::new("refusals");

    let whole_path = scratch.path("whole.ckpt");
    run_campaign(
        &fm,
        &cfg,
        &RunControl::new().checkpointed(CheckpointSpec::new(whole_path.clone(), String::new())),
    )
    .expect("single-process run");

    let count = 2;
    let mut shard_paths = Vec::new();
    for index in 0..count {
        let path = scratch.path(&format!("shard{index}.ckpt"));
        run_campaign_shard(
            &fm,
            &cfg,
            count,
            index,
            &RunControl::new().checkpointed(CheckpointSpec::new(path.clone(), String::new())),
        )
        .unwrap_or_else(|e| panic!("shard {index} failed: {e}"));
        shard_paths.push(path);
    }
    let plan = plan_from_journal(&whole_path, count);
    let out = scratch.path("merged.ckpt");

    // Same shard twice → DuplicateShard.
    let dup = vec![shard_paths[0].clone(), shard_paths[0].clone()];
    match merge_shards(&plan, &dup, &out) {
        Err(ShardError::DuplicateShard { index: 0 }) => {}
        other => panic!("expected DuplicateShard, got {other:?}"),
    }

    // One shard omitted → MissingShard.
    let missing = vec![shard_paths[0].clone()];
    match merge_shards(&plan, &missing, &out) {
        Err(ShardError::MissingShard { index: 1 }) => {}
        other => panic!("expected MissingShard, got {other:?}"),
    }

    // A shard from a campaign with the same seed but a different config
    // (other base fingerprint) → FingerprintMismatch.
    let foreign_cfg = campaign_cfg(59, 4, 18, 1);
    let foreign = scratch.path("foreign.ckpt");
    run_campaign_shard(
        &fm,
        &foreign_cfg,
        count,
        1,
        &RunControl::new().checkpointed(CheckpointSpec::new(foreign.clone(), String::new())),
    )
    .expect("foreign shard");
    let mixed = vec![shard_paths[0].clone(), foreign];
    match merge_shards(&plan, &mixed, &out) {
        Err(ShardError::FingerprintMismatch { index: 1, .. }) => {}
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }

    // A shard from a campaign over a different seed → SeedMismatch.
    let reseeded_cfg = campaign_cfg(60, 4, 15, 1);
    let reseeded = scratch.path("reseeded.ckpt");
    run_campaign_shard(
        &fm,
        &reseeded_cfg,
        count,
        1,
        &RunControl::new().checkpointed(CheckpointSpec::new(reseeded.clone(), String::new())),
    )
    .expect("reseeded shard");
    let mixed_seed = vec![shard_paths[0].clone(), reseeded];
    match merge_shards(&plan, &mixed_seed, &out) {
        Err(ShardError::SeedMismatch {
            expected: 59,
            found: 60,
            ..
        }) => {}
        other => panic!("expected SeedMismatch, got {other:?}"),
    }

    // A torn final line (simulated kill mid-append) → TornTail; the
    // merge never truncates a shard — the shard runner must resume it.
    let torn = scratch.path("torn.ckpt");
    let mut torn_bytes = bytes(&shard_paths[1]);
    torn_bytes.extend_from_slice(b"{\"task\":99,\"half");
    std::fs::write(&torn, &torn_bytes).expect("write torn copy");
    let with_torn = vec![shard_paths[0].clone(), torn];
    match merge_shards(&plan, &with_torn, &out) {
        Err(ShardError::TornTail { index: 1 }) => {}
        other => panic!("expected TornTail, got {other:?}"),
    }

    // A whole-campaign journal is not a shard → NotAShard.
    let not_shard = vec![whole_path.clone(), shard_paths[1].clone()];
    match merge_shards(&plan, &not_shard, &out) {
        Err(ShardError::NotAShard { .. }) => {}
        other => panic!("expected NotAShard, got {other:?}"),
    }

    // The untouched set still merges — the refusals above left no state.
    merge_shards(&plan, &shard_paths, &out).expect("clean set still merges");
    assert_eq!(bytes(&out), bytes(&whole_path));
}

// ---- RunMeta pooling is order-independent -----------------------------

#[test]
fn shard_run_meta_pools_permutation_invariantly() {
    let fm = mlp_fm(1e-3);
    let cfg = campaign_cfg(61, 6, 15, 1);
    let scratch = Scratch::new("meta");

    let count = 3;
    let mut metas = Vec::new();
    for index in 0..count {
        let path = scratch.path(&format!("shard{index}.ckpt"));
        let meta = run_campaign_shard(
            &fm,
            &cfg,
            count,
            index,
            &RunControl::new().checkpointed(CheckpointSpec::new(path, String::new())),
        )
        .unwrap_or_else(|e| panic!("shard {index} failed: {e}"));
        metas.push(meta);
    }

    let forward = RunMeta::try_merged_many(metas.clone())
        .expect("pooling succeeds")
        .expect("non-empty");
    let reversed = RunMeta::try_merged_many(metas.iter().rev().copied())
        .expect("pooling succeeds")
        .expect("non-empty");
    assert_eq!(forward.tasks, cfg.chains, "pooled task count");
    assert_eq!(forward.tasks, reversed.tasks);
    assert_eq!(forward.seed, reversed.seed);
    assert_eq!(forward.delta_hits, reversed.delta_hits);
    assert_eq!(forward.delta_fallbacks, reversed.delta_fallbacks);
    assert_eq!(forward.resumed_from, reversed.resumed_from);
}
