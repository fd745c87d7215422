//! Smoke drivers for the fault-evaluation pipeline's exactness and
//! crash-safety contracts. Every mode is a CI job; throughput is measured
//! by the `perfbench` benchmark, not here.
//!
//! # Sparse-delta mode
//!
//! `perf_smoke --delta` runs the sparse-delta scenario: a trained deep MLP
//! with single weight-bit flips confined to its hidden dense layers,
//! comparing the incremental path (resume at the dirty layer, dense
//! suffix) against the sparse-delta path (recompute the touched columns,
//! forward only the rows that still deviate after ReLU gating). It fails
//! if the two paths' logits are not bit-identical or if the delta path
//! never fires (the CI `delta-smoke` job).
//!
//! # Checkpointed campaign mode
//!
//! `perf_smoke --campaign` runs one deterministic BDLFI campaign,
//! for exercising the crash-safe checkpoint/resume path end to end (the CI
//! `checkpoint-resume` job drives it):
//!
//! * `--checkpoint PATH` — journal completed chains to `PATH`;
//! * `--resume` — resume from an existing journal at `PATH`;
//! * `--stop-after N` — cooperatively stop after `N` chains (exit code 3);
//! * `--report PATH` — write the final campaign report as JSON with
//!   normalized `run_meta` (timing and resume provenance zeroed), so an
//!   interrupted-then-resumed run is byte-identical to an uninterrupted
//!   one;
//! * `--workers N` — engine worker threads (default 0 = all cores).
//!
//! # Shard modes
//!
//! `perf_smoke --shard-campaign --count N --index I --checkpoint PATH`
//! runs shard `I` of the same deterministic campaign split `N` ways
//! (global chain ids, per-shard fingerprint); `--resume` and
//! `--stop-after K` behave as in `--campaign` (cooperative stop exits 3).
//! `perf_smoke --shard-merge --baseline SINGLE --out MERGED SHARD...`
//! rebuilds the shard plan from the single-process journal's header,
//! merges the shard journals with the strict verifier, and with
//! `--report PATH` finalizes the merged journal through the normal driver
//! path (full replay, zero recomputation) and writes the normalized
//! report. The CI `shard-smoke` job drives both modes and `cmp`s the
//! merged artifacts against the single-process ones.

use bdlfi::engine::{CheckpointSpec, EngineError, RunControl, RunMeta};
use bdlfi::{
    merge_shards, read_journal, run_campaign, run_campaign_shard, CampaignConfig, FaultyModel,
    KernelChoice, ShardError, ShardPlan,
};
use bdlfi_bayes::ChainConfig;
use bdlfi_data::gaussian_blobs;
use bdlfi_faults::{BernoulliBitFlip, FaultConfig, SiteSpec};
use bdlfi_nn::{mlp, optim::Sgd, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct SparseDeltaReport {
    scenario: String,
    network: String,
    eval_examples: usize,
    configs: usize,
    incremental_samples_per_sec: f64,
    delta_samples_per_sec: f64,
    speedup_vs_incremental: f64,
    bitwise_identical: bool,
    delta_hits: u64,
    delta_fallbacks: u64,
}

/// The sparse-delta scenario: the 1-flip layerwise sweep. Single random
/// weight-bit flips are distributed round-robin across every hidden dense
/// layer of a *trained* deep MLP. Training is what makes the workload
/// realistic: converged ReLU features are class-selective, so most
/// single-bit deltas die inside a layer or two of gating and the delta
/// path forwards only a handful of dirty rows, while the incremental
/// path re-runs the full suffix for every configuration.
fn delta_bench(configs: usize) -> SparseDeltaReport {
    use rand::RngExt;
    let mut rng = StdRng::seed_from_u64(3);
    let hidden = [64usize; 8];
    let classes = 4;
    let data = Arc::new(gaussian_blobs(256, classes, 0.5, &mut rng));
    let mut model = mlp(2, &hidden, classes, &mut rng);
    let mut trainer = Trainer::new(
        Sgd::new(0.05).with_momentum(0.9),
        TrainConfig {
            epochs: 12,
            batch_size: 32,
            ..TrainConfig::default()
        },
    );
    trainer.fit(&mut model, data.inputs(), data.labels(), &mut rng);

    let mut delta_fm = FaultyModel::new(
        model,
        Arc::clone(&data),
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(1.5e-5)),
    );
    // The clone shares the delta counters, so hits are snapshotted around
    // the delta timing loop only; the incremental twin records nothing.
    let mut inc_fm = delta_fm.clone();
    inc_fm.set_delta_enabled(false);

    // One flip per configuration, swept round-robin over fc2..fc9 like a
    // layerwise campaign visits each layer in turn.
    let workload: Vec<FaultConfig> = (0..configs)
        .map(|i| {
            let fc = 2 + i % hidden.len();
            let out = if fc == hidden.len() + 1 { classes } else { 64 };
            let mut cfg = FaultConfig::clean();
            let mut mask = bdlfi_faults::FaultMask::empty();
            mask.push_bit(rng.random_range(0..64 * out), rng.random_range(0..32u8));
            cfg.set_mask(&format!("fc{fc}.weight"), mask);
            cfg
        })
        .collect();

    // Warm both paths.
    let _ = inc_fm.eval_logits(&workload[0], &mut rng);
    let _ = delta_fm.eval_logits(&workload[0], &mut rng);

    let t0 = Instant::now();
    let inc_logits: Vec<_> = workload
        .iter()
        .map(|cfg| inc_fm.eval_logits(cfg, &mut rng))
        .collect();
    let inc_secs = t0.elapsed().as_secs_f64();

    let (hits0, fb0) = delta_fm.delta_counters();
    let t1 = Instant::now();
    let delta_logits: Vec<_> = workload
        .iter()
        .map(|cfg| delta_fm.eval_logits(cfg, &mut rng))
        .collect();
    let delta_secs = t1.elapsed().as_secs_f64();
    let (hits1, fb1) = delta_fm.delta_counters();

    let bitwise_identical = inc_logits.iter().zip(&delta_logits).all(|(a, b)| {
        a.data()
            .iter()
            .map(|v| v.to_bits())
            .eq(b.data().iter().map(|v| v.to_bits()))
    });

    SparseDeltaReport {
        scenario: "1-flip layerwise sweep over fc2..fc9 of a trained MLP".into(),
        network: format!("trained mlp 2 -> {hidden:?} -> {classes}"),
        eval_examples: data.len(),
        configs: workload.len(),
        incremental_samples_per_sec: workload.len() as f64 / inc_secs,
        delta_samples_per_sec: workload.len() as f64 / delta_secs,
        speedup_vs_incremental: inc_secs / delta_secs,
        bitwise_identical,
        delta_hits: hits1 - hits0,
        delta_fallbacks: fb1 - fb0,
    }
}

fn report_delta(delta: &SparseDeltaReport) {
    assert!(
        delta.bitwise_identical,
        "sparse-delta logits diverged from the incremental path"
    );
    assert!(
        delta.delta_hits > 0,
        "sparse-delta path never fired on a dense-confined scenario"
    );
    println!(
        "sparse-delta path is {:.1}x faster than incremental ({:.0} vs {:.0} configs/sec), \
         {} hits / {} fallbacks, logits bit-identical",
        delta.speedup_vs_incremental,
        delta.delta_samples_per_sec,
        delta.incremental_samples_per_sec,
        delta.delta_hits,
        delta.delta_fallbacks
    );
}

struct CampaignArgs {
    checkpoint: Option<PathBuf>,
    resume: bool,
    stop_after: Option<usize>,
    report: Option<PathBuf>,
    workers: usize,
    count: Option<usize>,
    index: Option<usize>,
}

fn parse_campaign_args(mut args: std::env::Args) -> CampaignArgs {
    let mut out = CampaignArgs {
        checkpoint: None,
        resume: false,
        stop_after: None,
        report: None,
        workers: 0,
        count: None,
        index: None,
    };
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--checkpoint" => out.checkpoint = Some(PathBuf::from(value("--checkpoint"))),
            "--resume" => out.resume = true,
            "--stop-after" => {
                out.stop_after = Some(value("--stop-after").parse().expect("--stop-after: usize"));
            }
            "--report" => out.report = Some(PathBuf::from(value("--report"))),
            "--workers" => out.workers = value("--workers").parse().expect("--workers: usize"),
            "--count" => out.count = Some(value("--count").parse().expect("--count: usize")),
            "--index" => out.index = Some(value("--index").parse().expect("--index: usize")),
            other => panic!("unknown flag {other}"),
        }
    }
    out
}

/// One shard of the reference campaign, split `--count` ways: the shard's
/// journal is its whole output; merge the completed set with
/// `--shard-merge`.
fn shard_campaign(args: &CampaignArgs) -> Result<(), ShardError> {
    let (fm, cfg) = checkpointed_workload(args.workers);
    let count = args.count.expect("--shard-campaign requires --count");
    let index = args.index.expect("--shard-campaign requires --index");
    let meta = run_campaign_shard(&fm, &cfg, count, index, &run_control(args))?;
    println!(
        "shard {index}/{count} complete: {} chains journaled",
        meta.tasks
    );
    Ok(())
}

struct ShardMergeArgs {
    baseline: PathBuf,
    out: PathBuf,
    count: Option<usize>,
    report: Option<PathBuf>,
    workers: usize,
    shards: Vec<PathBuf>,
}

fn parse_shard_merge_args(mut args: std::env::Args) -> ShardMergeArgs {
    let mut baseline = None;
    let mut out = ShardMergeArgs {
        baseline: PathBuf::new(),
        out: PathBuf::new(),
        count: None,
        report: None,
        workers: 0,
        shards: Vec::new(),
    };
    let mut merged = None;
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--baseline" => baseline = Some(PathBuf::from(value("--baseline"))),
            "--out" => merged = Some(PathBuf::from(value("--out"))),
            "--count" => out.count = Some(value("--count").parse().expect("--count: usize")),
            "--report" => out.report = Some(PathBuf::from(value("--report"))),
            "--workers" => out.workers = value("--workers").parse().expect("--workers: usize"),
            flag if flag.starts_with("--") => panic!("unknown flag {flag}"),
            shard => out.shards.push(PathBuf::from(shard)),
        }
    }
    out.baseline = baseline.expect("--shard-merge requires --baseline SINGLE_PROCESS_JOURNAL");
    out.out = merged.expect("--shard-merge requires --out MERGED_JOURNAL");
    assert!(!out.shards.is_empty(), "--shard-merge needs shard journals");
    out
}

/// Merges completed shard journals of the reference campaign; the plan
/// (base fingerprint, seed, task count) is read back from the
/// single-process baseline journal's header. With `--report`, finalizes
/// the merged journal through the normal driver path — a full replay that
/// recomputes nothing — and writes the normalized report.
fn shard_merge(args: &ShardMergeArgs) -> Result<(), ShardError> {
    let whole = read_journal(&args.baseline).map_err(ShardError::Checkpoint)?;
    let count = args.count.unwrap_or(args.shards.len());
    let plan = ShardPlan::new(
        whole.header.fingerprint.clone(),
        whole.header.seed,
        whole.header.tasks,
        count,
    )?;
    let summary = merge_shards(&plan, &args.shards, &args.out)?;
    println!(
        "merged {} shards, {} chains, {} bytes -> {}",
        summary.shards,
        summary.tasks,
        summary.bytes,
        args.out.display()
    );
    if let Some(path) = &args.report {
        let (fm, cfg) = checkpointed_workload(args.workers);
        let spec = CheckpointSpec::new(args.out.clone(), String::new()).finalizing();
        let mut report = run_campaign(&fm, &cfg, &RunControl::new().checkpointed(spec))?;
        assert_eq!(
            report.run_meta.resumed_from,
            Some(cfg.chains),
            "finalize must replay every chain from the merged journal"
        );
        report.run_meta = RunMeta::default();
        let json = serde_json::to_string_pretty(&report).expect("report serialises");
        std::fs::write(path, &json).expect("cannot write report");
        println!(
            "finalized report: mean_error {:.6}, {} chains",
            report.mean_error, report.config.chains
        );
    }
    Ok(())
}

/// The deterministic campaign the checkpoint and shard modes run: a
/// trained MLP with Bernoulli faults over all parameters. Everything is
/// seeded, so reports from any interrupt/resume/shard schedule must agree
/// bit for bit.
fn checkpointed_workload(workers: usize) -> (FaultyModel, CampaignConfig) {
    let mut rng = StdRng::seed_from_u64(900);
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
    let fm = FaultyModel::new(
        model,
        Arc::new(test),
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(1e-3)),
    );
    let cfg = CampaignConfig {
        chains: 8,
        chain: ChainConfig {
            burn_in: 10,
            samples: 60,
            thin: 1,
        },
        kernel: KernelChoice::Prior,
        seed: 9,
        criteria: Default::default(),
        workers,
    };
    (fm, cfg)
}

/// The stop watermark and journal (`--checkpoint`, `--resume`) the
/// campaign and shard modes run under.
fn run_control(args: &CampaignArgs) -> RunControl {
    let ctl = match args.stop_after {
        Some(n) => RunControl::stop_after(n),
        None => RunControl::new(),
    };
    match &args.checkpoint {
        Some(path) => {
            let spec = CheckpointSpec::new(path.clone(), String::new());
            ctl.checkpointed(if args.resume { spec.resuming() } else { spec })
        }
        None => ctl,
    }
}

fn checkpointed_campaign(args: &CampaignArgs) -> Result<(), EngineError> {
    let (fm, cfg) = checkpointed_workload(args.workers);
    let mut report = run_campaign(&fm, &cfg, &run_control(args))?;
    // Normalize execution metadata so reports from different interrupt
    // schedules (and worker counts) compare byte-for-byte.
    report.run_meta = RunMeta::default();
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    if let Some(path) = &args.report {
        std::fs::write(path, &json).expect("cannot write report");
    }
    println!(
        "campaign complete: mean_error {:.6}, {} chains",
        report.mean_error, report.config.chains
    );
    Ok(())
}

fn main() {
    let mut args = std::env::args();
    let _bin = args.next();
    let mode = args.next().unwrap_or_default();
    match mode.as_str() {
        "--campaign" => match checkpointed_campaign(&parse_campaign_args(args)) {
            Ok(()) => {}
            Err(EngineError::Interrupted { completed, tasks }) => {
                eprintln!("interrupted after {completed}/{tasks} chains (journal flushed)");
                std::process::exit(3);
            }
            Err(e) => {
                eprintln!("campaign failed: {e}");
                std::process::exit(1);
            }
        },
        "--shard-campaign" => match shard_campaign(&parse_campaign_args(args)) {
            Ok(()) => {}
            Err(ShardError::Engine(EngineError::Interrupted { completed, tasks })) => {
                eprintln!("interrupted after {completed}/{tasks} chains (journal flushed)");
                std::process::exit(3);
            }
            Err(e) => {
                eprintln!("shard campaign failed: {e}");
                std::process::exit(1);
            }
        },
        "--shard-merge" => {
            if let Err(e) = shard_merge(&parse_shard_merge_args(args)) {
                eprintln!("shard merge failed: {e}");
                std::process::exit(1);
            }
        }
        "--delta" => {
            let delta = delta_bench(60);
            let json = serde_json::to_string_pretty(&delta).expect("report serialises");
            println!("{json}");
            report_delta(&delta);
        }
        other => {
            eprintln!(
                "unknown mode {other:?}; try --campaign, --shard-campaign, --shard-merge or --delta"
            );
            std::process::exit(2);
        }
    }
}
