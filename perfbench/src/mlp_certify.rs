//! `mlp-certify`: adaptive certification on the paper's trained MLP.
//!
//! Why it exists: certifying a campaign on the 2→32→3 MLP is the paper's
//! headline use. Each op is one `run_campaign_adaptive` (f32,
//! `SiteSpec::AllParams`, Bernoulli faults, prior kernel) with an MCSE
//! target tight enough that it certifies after thousands of
//! configurations, without a journal. Its time goes to fault sampling,
//! the chains and the per-segment `assess`, and the sparse-delta path
//! (every config hits it); its GEMMs are too small for kernel work to
//! matter.
//!
//! Per-layer metrics it is meant to move: `faults.sample_us`,
//! `faults.flips_per_config`, `bayes.assess_ms`,
//! `campaign.samples_to_certify`, `delta.hit_ratio` (stays ≈1.0),
//! `core.eval_us`, `delta.forward_us`, `nn.train_s` and
//! `engine.task_p50_ms`. `tensor.conv_gflops` should not move here.

use crate::common::{
    chains_of, closed_loop, count_delta, count_overhead, lane, op_seed, probe_seed, repeat_setup,
    replay_assess, replay_f32, replay_journal, replay_quant, secs, snapshot_chains, Ctx,
    Deliveries, Outcome,
};
use bdlfi::{
    run_campaign_adaptive_controlled, CampaignConfig, CampaignReport, CompletenessCriteria,
    FaultyModel, KernelChoice, RunControl, RunObserver,
};
use bdlfi_bayes::{seed_stream, ChainConfig};
use bdlfi_data::{gaussian_blobs, Dataset};
use bdlfi_faults::{BernoulliBitFlip, SiteSpec};
use bdlfi_nn::{mlp, optim::Sgd, Sequential, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Per-bit flip probability of the fault model.
const P: f64 = 1e-3;
/// Chains per campaign.
const CHAINS: usize = 4;
/// Samples per chain per segment.
const SEGMENT: usize = 100;
/// Per-chain sample budget; ops certify well before it.
const MAX_PER_CHAIN: usize = 20_000;
/// Fresh set-ups timed per run (their median is `setup_s`).
const SETUPS: usize = 15;
/// Configurations drawn per op for the output check.
const CHECK_CONFIGS: usize = 3;
/// Configurations drawn per op for the traced replays.
const REPLAY_CONFIGS: usize = 16;

fn campaign(seed: u64) -> CampaignConfig {
    CampaignConfig {
        chains: CHAINS,
        chain: ChainConfig {
            burn_in: 20,
            samples: SEGMENT,
            thin: 1,
        },
        kernel: KernelChoice::Prior,
        seed,
        criteria: CompletenessCriteria {
            max_mcse: 0.002,
            ..CompletenessCriteria::default()
        },
        workers: 1,
    }
}

/// The scenario constant: dataset, initialisation and training seeds.
const SCENARIO: u64 = 2019;

/// The generated dataset: train and held-out eval splits.
fn dataset() -> (Arc<Dataset>, Arc<Dataset>) {
    let mut rng = StdRng::seed_from_u64(seed_stream(SCENARIO, lane::DATA));
    let data = gaussian_blobs(1200, 3, 1.25, &mut rng);
    let (train, eval) = data.split(0.75, &mut rng);
    (Arc::new(train), Arc::new(eval))
}

/// One fresh set-up from the generated dataset: initialise and train the
/// MLP (`Trainer::fit`), then `FaultyModel::new`.
fn setup(ctx: &Ctx, train: &Dataset, eval: &Arc<Dataset>) -> (Sequential, FaultyModel) {
    let tr = &ctx.tracer;
    tr.span("setup", 0, None, |parent| {
        let mut rng = StdRng::seed_from_u64(seed_stream(SCENARIO, lane::MODEL));
        let mut model = mlp(2, &[32], 3, &mut rng);
        let mut trainer = Trainer::new(
            Sgd::new(0.1).with_momentum(0.9),
            TrainConfig {
                epochs: 40,
                batch_size: 32,
                lr_decay: 0.1,
                lr_milestones: &[30],
                verbose: false,
            },
        );
        tr.span("nn.train", 0, parent, |_| {
            trainer.fit(&mut model, train.inputs(), train.labels(), &mut rng)
        });
        let fm = tr.span("core.faulty_model_new", 0, parent, |_| {
            FaultyModel::new(
                model.clone(),
                Arc::clone(eval),
                &SiteSpec::AllParams,
                Arc::new(BernoulliBitFlip::new(P)),
            )
        });
        (model, fm)
    })
}

/// The output check of one op: the report certified, and a few of the
/// op's seed-drawn configs give bit-identical logits (hence
/// `eval_error`) with the sparse-delta path disabled.
fn check(fm: &FaultyModel, report: &CampaignReport, seed: u64) -> Result<(), String> {
    if !report.completeness.certified {
        return Err(format!(
            "not certified after {} samples",
            report.total_samples()
        ));
    }
    let mut fast = fm.clone();
    let mut slow = fm.clone();
    slow.set_delta_enabled(false);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..CHECK_CONFIGS {
        let cfg = fast.sample_config(&mut rng);
        let a = fast.eval_logits(&cfg, &mut StdRng::seed_from_u64(seed));
        let b = slow.eval_logits(&cfg, &mut StdRng::seed_from_u64(seed));
        if !crate::common::bits_equal(&a, &b) {
            return Err(format!(
                "delta and dense logits differ for a {}-flip config",
                cfg.total_flips()
            ));
        }
    }
    Ok(())
}

/// Runs the workload: closed-loop ops for `ctx.seconds` with the fresh
/// set-ups spread over the run. When tracing, each op is followed by its
/// traced repeat and the repeat's replays.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (train, eval) = dataset();
    let t = Instant::now();
    let (model, fm) = setup(ctx, &train, &eval);
    out.setups.push(secs(t));
    let again = repeat_setup(&fm, || setup(ctx, &train, &eval).1);

    let setups = closed_loop(ctx.seconds, SETUPS, 1, again, |k| {
        let cfg = campaign(op_seed(ctx.seed, k));
        let t = Instant::now();
        let report = run_campaign_adaptive_controlled(
            &fm,
            &cfg,
            MAX_PER_CHAIN,
            &RunControl::default(),
            None,
        );
        let dt = secs(t);
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                out.op_s.push(f64::NAN);
                out.record(k, Err(e.to_string()));
                return Ok(());
            }
        };
        out.op_s.push(dt);
        out.busy_s += dt;
        out.configs += report.total_samples() as u64;
        let mut checked = check(&fm, &report, probe_seed(ctx.seed, k));
        if ctx.tracer.enabled() {
            checked = checked
                .and_then(|()| traced_op(ctx, k, &cfg, (dt, &report), &model, &fm, &train, &eval));
        }
        out.record(k, checked);
        Ok(())
    })?;
    out.setups.extend(setups);
    Ok(out)
}

/// The traced repeat of op `k` right after its `untraced` run (latency
/// and report): the same campaign with an observer attached and a span
/// around it, then the replays outside the span. Fails if the repeat
/// sampled other chains than the untraced run or its observer saw other
/// snapshots.
#[allow(clippy::too_many_arguments)]
fn traced_op(
    ctx: &Ctx,
    k: usize,
    cfg: &CampaignConfig,
    untraced: (f64, &CampaignReport),
    model: &Sequential,
    fm: &FaultyModel,
    train: &Dataset,
    eval: &Arc<Dataset>,
) -> Result<(), String> {
    let tr = &ctx.tracer;
    let observer = Arc::new(Deliveries::default());
    let ctl = RunControl::default().observing(Arc::clone(&observer) as Arc<dyn RunObserver>);
    let t = Instant::now();
    let mut op_span = None;
    let report = tr.span("campaign.run_campaign_adaptive", k, None, |id| {
        op_span = id;
        run_campaign_adaptive_controlled(fm, cfg, MAX_PER_CHAIN, &ctl, None)
    });
    count_overhead(tr, k, untraced.0, secs(t));
    let values = observer.drain_into(tr, k, op_span, t);
    let report = report.map_err(|e| e.to_string())?;
    let chains = chains_of(&report);
    if chains != chains_of(untraced.1) {
        return Err("the traced repeat sampled other chains".to_string());
    }
    if values.last().and_then(snapshot_chains).as_ref() != Some(&chains) {
        return Err("observed segment snapshots disagree with the report".to_string());
    }

    tr.count("faults.flips", k, report.mean_flips);
    tr.count("campaign.samples", k, report.total_samples() as f64);
    let meta = &report.run_meta;
    count_delta(tr, k, false, (meta.delta_hits, meta.delta_fallbacks));
    let probe = probe_seed(ctx.seed, k);
    replay_f32(tr, k, fm, model, eval, probe, REPLAY_CONFIGS)?;
    replay_assess(tr, k, &chains, SEGMENT, &cfg.criteria);
    let journal = ctx.scratch.join(format!("replay-{k}.jsonl"));
    replay_journal(tr, k, &journal, &values, cfg.seed)?;
    let quant = replay_quant(
        tr,
        k,
        model,
        train.inputs(),
        eval,
        &SiteSpec::AllParams,
        P,
        probe,
        REPLAY_CONFIGS,
    )?;
    count_delta(tr, k, true, quant);
    Ok(())
}
