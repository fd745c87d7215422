//! The BDLFI campaign engine: multi-chain MCMC inference over fault
//! configurations, with mixing-based completeness certification.
//!
//! This is the paper's Section II pipeline: (1) train to get the golden
//! weights; (2) attach the bit-flip fault model to the weights; (3) build
//! the Bayesian fault model; (4) "perform inference multiple times on the
//! DBN using MCMC to obtain the classification uncertainty of the network".
//! Steps (1)–(3) are [`crate::FaultyModel`]; this module is step (4), in
//! two flavours: a fixed-budget [`run_campaign`] and an adaptive
//! [`run_campaign_adaptive`] that extends the chains in segments until the
//! completeness criteria certify — the operational form of "inject until
//! further injections change nothing".

use crate::checkpoint::{journal_fingerprint, CheckpointError, CheckpointHeader, CheckpointWriter};
use crate::completeness::{assess, assess_slices, CompletenessCriteria, CompletenessReport};
use crate::engine::{
    CheckpointSpec, CollectSink, EngineError, EvalEngine, NullSink, RunControl, RunMeta, TaskCtx,
};
use crate::proposals::{BitToggleProposal, GibbsBitProposal, PriorProposal};
use crate::report::CampaignReport;
use crate::shard::{ShardError, ShardPlan};
use crate::workload::FaultWorkload;
use bdlfi_bayes::{
    run_chain, seed_stream, self_normalized_estimate, ChainConfig, MixtureProposal, Proposal, Trace,
};
use bdlfi_faults::{BitRange, FaultConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::Arc;

/// The MCMC kernel a campaign uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum KernelChoice {
    /// Independent draws from the fault prior — exact sampling; the
    /// untempered reference mode.
    Prior,
    /// Local Metropolis–Hastings: toggle `block` bits per proposal.
    BitToggle {
        /// Bits toggled per proposal.
        block: usize,
    },
    /// Exact-conditional Gibbs resampling of single bits under the
    /// independent Bernoulli(p) prior (always accepted when untempered).
    Gibbs {
        /// The prior's per-bit flip probability (must match the fault
        /// model for the exact-conditional property to hold).
        p: f64,
    },
    /// Mixture of local single-bit toggles and occasional prior refreshes.
    Mixture {
        /// Probability weight of the prior-refresh component (the toggle
        /// component has weight `1 − refresh_weight`).
        refresh_weight: f64,
    },
    /// Importance sampling from a *tilted prior*: configurations are drawn
    /// iid from the fault model with its rate inflated by `factor`, and
    /// every estimate is re-weighted back to the true prior with exact
    /// closed-form weights. The robust acceleration for rare-error
    /// *estimation*: hits appear ~`factor`× more often at equal budget.
    TiltedPrior {
        /// Rate inflation factor (> 1 accelerates; 1 recovers the prior).
        factor: f64,
    },
    /// Tempered target `π_β(e) ∝ prior(e) · exp(β · 𝟙[error(e) > golden])`
    /// explored with a toggle/refresh mixture; estimates are
    /// importance-reweighted back to the prior. The indicator tilt boosts
    /// *every* error-causing configuration by the same factor `e^β`, so
    /// rare-error regimes are sampled densely without the weight collapse
    /// a proportional `exp(β · error)` tilt suffers when catastrophic
    /// configurations exist. The paper's "algorithmic acceleration" hook.
    Tempered {
        /// Tilt strength `β ≥ 0` (0 recovers the prior target);
        /// `e^β` should be on the order of `1 / P(error)`.
        beta: f64,
    },
}

/// Configuration of a BDLFI campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Number of parallel chains (≥ 2 recommended so R̂ is defined).
    pub chains: usize,
    /// Per-chain schedule.
    pub chain: ChainConfig,
    /// Kernel choice.
    pub kernel: KernelChoice,
    /// Base RNG seed; chain `i` derives its proposal stream from
    /// `seed_stream(seed, 2 i)` and its transient-activation stream from
    /// `seed_stream(seed, 2 i + 1)`.
    pub seed: u64,
    /// Completeness thresholds.
    pub criteria: CompletenessCriteria,
    /// Worker threads for chain execution (0 = all available cores).
    /// Reports are bit-identical at every worker count.
    pub workers: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            chains: 4,
            chain: ChainConfig {
                burn_in: 20,
                samples: 250,
                thin: 1,
            },
            kernel: KernelChoice::Prior,
            seed: 42,
            criteria: CompletenessCriteria::default(),
            workers: 0,
        }
    }
}

impl CampaignConfig {
    /// The config with execution-only fields pinned, for journal
    /// fingerprinting. Reports are bit-identical at every worker count, so
    /// `workers` is scheduling metadata, not campaign identity: a journal
    /// written at `workers: 1` must resume, finalize and shard-merge under
    /// any other worker count.
    #[must_use]
    pub fn fingerprint_form(&self) -> CampaignConfig {
        CampaignConfig {
            workers: 0,
            ..*self
        }
    }
}

/// The complete, serializable outcome of one chain after a segment: its
/// recorded statistics plus everything needed to continue the chain
/// bit-identically — the Markov state and the exact positions of both RNG
/// streams. This is what the checkpoint journal stores per chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ChainOutcome {
    samples: Vec<f64>,
    flips: Vec<f64>,
    log_weights: Vec<f64>,
    accepted: usize,
    steps: usize,
    burned_in: bool,
    state: FaultConfig,
    rng: [u64; 4],
    act_rng: [u64; 4],
}

/// Persistent per-chain state, allowing campaigns to be extended in
/// segments without restarting the Markov chains. Generic over the
/// [`FaultWorkload`], so the same machinery drives f32 and quantized
/// campaigns.
struct ChainWorker<W: FaultWorkload> {
    fm: W,
    rng: StdRng,
    act_rng: StdRng,
    state: FaultConfig,
    trace: Trace,
    flips: Vec<f64>,
    // Per recorded sample: log of the importance weight back to the prior
    // (0 for kernels that already target the prior).
    log_weights: Vec<f64>,
    accepted: usize,
    steps: usize,
    burned_in: bool,
}

impl<W: FaultWorkload> ChainWorker<W> {
    fn new(fm: &W, cfg: &CampaignConfig, idx: usize) -> Self {
        // Two seed-stream lanes per chain: proposals and transient
        // activation faults draw from disjoint SplitMix64 streams.
        ChainWorker {
            fm: fm.clone(),
            rng: StdRng::seed_from_u64(seed_stream(cfg.seed, 2 * idx as u64)),
            act_rng: StdRng::seed_from_u64(seed_stream(cfg.seed, 2 * idx as u64 + 1)),
            state: FaultConfig::clean(),
            trace: Trace::new(),
            flips: Vec::new(),
            log_weights: Vec::new(),
            accepted: 0,
            steps: 0,
            burned_in: false,
        }
    }

    /// Captures the chain's cumulative outcome (for journaling/assembly).
    fn snapshot(&self) -> ChainOutcome {
        ChainOutcome {
            samples: self.trace.samples().to_vec(),
            flips: self.flips.clone(),
            log_weights: self.log_weights.clone(),
            accepted: self.accepted,
            steps: self.steps,
            burned_in: self.burned_in,
            state: self.state.clone(),
            rng: self.rng.state(),
            act_rng: self.act_rng.state(),
        }
    }

    /// Rebuilds a chain at the exact point a [`ChainOutcome`] captured, so
    /// a resumed campaign continues bit-identically.
    fn restore(fm: &W, outcome: &ChainOutcome) -> Self {
        ChainWorker {
            fm: fm.clone(),
            rng: StdRng::from_state(outcome.rng),
            act_rng: StdRng::from_state(outcome.act_rng),
            state: outcome.state.clone(),
            trace: Trace::from_samples(outcome.samples.clone()),
            flips: outcome.flips.clone(),
            log_weights: outcome.log_weights.clone(),
            accepted: outcome.accepted,
            steps: outcome.steps,
            burned_in: outcome.burned_in,
        }
    }

    /// Advances the chain by `samples` recorded samples (plus burn-in on
    /// the first segment), appending to the worker's trace.
    fn advance(&mut self, cfg: &CampaignConfig, samples: usize) {
        let sites = Arc::new(self.fm.sites().params.clone());
        let fault_model = Arc::clone(self.fm.fault_model());

        // The distribution configurations are *drawn from* (differs from
        // the prior only for the tilted-prior kernel).
        let sampling_model: Arc<dyn bdlfi_faults::FaultModel> = match cfg.kernel {
            KernelChoice::TiltedPrior { factor } => fault_model
                .tilted(factor)
                // bdlfi-lint: allow(BD010) -- campaign-setup validation: fails before any task runs or journal bytes exist, so nothing resumable is lost
                .expect("fault model does not support tilting")
                .into(),
            _ => Arc::clone(&fault_model),
        };

        let proposal: Box<dyn Proposal<FaultConfig>> = match cfg.kernel {
            KernelChoice::Prior | KernelChoice::TiltedPrior { .. } => Box::new(PriorProposal::new(
                Arc::clone(&sites),
                Arc::clone(&sampling_model),
            )),
            KernelChoice::BitToggle { block } => Box::new(BitToggleProposal::with_block(
                Arc::clone(&sites),
                BitRange::all(),
                block.max(1),
            )),
            KernelChoice::Gibbs { p } => Box::new(GibbsBitProposal::new(
                Arc::clone(&sites),
                BitRange::all(),
                p,
            )),
            KernelChoice::Mixture { refresh_weight } => {
                let w = refresh_weight.clamp(1e-6, 1.0 - 1e-6);
                Box::new(MixtureProposal::new(vec![
                    (
                        w,
                        Box::new(PriorProposal::new(
                            Arc::clone(&sites),
                            Arc::clone(&fault_model),
                        )) as Box<dyn Proposal<FaultConfig>>,
                    ),
                    (
                        1.0 - w,
                        Box::new(BitToggleProposal::new(Arc::clone(&sites), BitRange::all())),
                    ),
                ]))
            }
            KernelChoice::Tempered { .. } => {
                // Local exploration plus occasional independent refreshes:
                // pure toggles heal error configurations one bit at a time
                // and mix slowly out of the tilted modes.
                Box::new(MixtureProposal::new(vec![
                    (
                        0.1,
                        Box::new(PriorProposal::new(
                            Arc::clone(&sites),
                            Arc::clone(&fault_model),
                        )) as Box<dyn Proposal<FaultConfig>>,
                    ),
                    (
                        0.9,
                        Box::new(BitToggleProposal::new(Arc::clone(&sites), BitRange::all())),
                    ),
                ]))
            }
        };

        let beta = match cfg.kernel {
            KernelChoice::Tempered { beta } => beta,
            _ => 0.0,
        };

        // Shared, memoised faulty evaluation: the tempered target and the
        // statistic see the same state, so the expensive inference runs
        // once per distinct configuration.
        let golden = self.fm.golden_error();
        let model = RefCell::new(&mut self.fm);
        let act_rng = RefCell::new(&mut self.act_rng);
        let memo: RefCell<Option<(FaultConfig, f64)>> = RefCell::new(None);
        let eval_error = |c: &FaultConfig| -> f64 {
            if let Some((cached, err)) = memo.borrow().as_ref() {
                if cached == c {
                    return *err;
                }
            }
            let err = model.borrow_mut().eval_error(c, *act_rng.borrow_mut());
            *memo.borrow_mut() = Some((c.clone(), err));
            err
        };

        // The chain's target is the *sampling* distribution (tilted prior
        // for the IS kernel — then every proposal is accepted and samples
        // are iid from it), optionally tempered by the error indicator.
        let target_model = Arc::clone(&sampling_model);
        let target_sites = Arc::clone(&sites);
        let eval_error_ref = &eval_error;
        let mut log_target = move |c: &FaultConfig| -> f64 {
            let base = c
                .log_prob(&target_sites, target_model.as_ref())
                // bdlfi-lint: allow(BD010) -- the sampling model drew this config from the same density; absence is unrepresentable mid-chain
                .expect("fault model must define a density for MCMC targets");
            if beta > 0.0 {
                let hit = eval_error_ref(c) > golden + 1e-12;
                base + if hit { beta } else { 0.0 }
            } else {
                base
            }
        };

        // Per-sample importance weight back to the true prior.
        let weight_prior = Arc::clone(&fault_model);
        let weight_sampling = Arc::clone(&sampling_model);
        let weight_sites = Arc::clone(&sites);
        let is_tilted = matches!(cfg.kernel, KernelChoice::TiltedPrior { .. });
        let log_weight = move |c: &FaultConfig, err: f64| -> f64 {
            if is_tilted {
                // bdlfi-lint: allow(BD010) -- the sampling model drew this config from the same density; absence is unrepresentable mid-chain
                let prior = c.log_prob(&weight_sites, weight_prior.as_ref()).unwrap();
                // bdlfi-lint: allow(BD010) -- same invariant as the line above, for the proposal-side density
                let proposal = c.log_prob(&weight_sites, weight_sampling.as_ref()).unwrap();
                prior - proposal
            } else if beta > 0.0 {
                if err > golden + 1e-12 {
                    -beta
                } else {
                    0.0
                }
            } else {
                0.0
            }
        };

        let flips = RefCell::new(&mut self.flips);
        let log_weights = RefCell::new(&mut self.log_weights);
        let mut statistic = |c: &FaultConfig| -> f64 {
            flips.borrow_mut().push(c.total_flips() as f64);
            let err = eval_error(c);
            log_weights.borrow_mut().push(log_weight(c, err));
            err
        };

        let schedule = ChainConfig {
            burn_in: if self.burned_in { 0 } else { cfg.chain.burn_in },
            samples,
            thin: cfg.chain.thin,
        };
        let res = run_chain(
            self.state.clone(),
            proposal.as_ref(),
            &mut log_target,
            &mut statistic,
            schedule,
            &mut self.rng,
        );
        let _ = model;
        let _ = act_rng;
        let _ = flips;
        let _ = log_weights;

        self.state = res.final_state;
        self.burned_in = true;
        let new_steps = schedule.total_steps();
        self.accepted += (res.acceptance_rate * new_steps as f64).round() as usize;
        self.steps += new_steps;
        self.trace.extend(res.trace.samples().iter().copied());
    }
}

/// Assembles the report from finished chains' outcomes.
fn assemble<W: FaultWorkload>(
    fm: &W,
    cfg: &CampaignConfig,
    outcomes: &[ChainOutcome],
    run_meta: RunMeta,
) -> CampaignReport {
    let traces: Vec<Trace> = outcomes
        .iter()
        .map(|o| Trace::from_samples(o.samples.clone()))
        .collect();
    let acceptance_rates: Vec<f64> = outcomes
        .iter()
        .map(|o| o.accepted as f64 / o.steps.max(1) as f64)
        .collect();
    let mean_flips = {
        let mut total = 0.0;
        let mut count = 0usize;
        for o in outcomes {
            total += o.flips.iter().sum::<f64>();
            count += o.flips.len();
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    };

    let completeness: CompletenessReport = assess(&traces, &cfg.criteria);
    let pooled: Trace = traces
        .iter()
        .flat_map(|t| t.samples().iter().copied())
        .collect();
    // Importance re-weighting back to the prior for biased-sampling
    // kernels (tilted prior, tempered); weights are recorded per sample
    // by the workers and are identically zero for prior-targeting kernels.
    let pooled_log_w: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.log_weights.iter().copied())
        .collect();
    let weighted = pooled_log_w.iter().any(|&w| w != 0.0);
    let (mean_error, importance_ess) = if weighted {
        let (est, iess) = self_normalized_estimate(pooled.samples(), &pooled_log_w);
        (est, Some(iess))
    } else {
        (pooled.mean(), None)
    };

    CampaignReport {
        traces,
        acceptance_rates,
        summary: pooled.summary(),
        completeness,
        golden_error: fm.golden_error(),
        mean_error,
        importance_ess,
        mean_flips,
        config: *cfg,
        run_meta,
    }
}

/// Moves the chain workers through one engine segment of `samples`
/// recorded samples each. Chains carry their own persistent RNG streams
/// (derived in [`ChainWorker::new`]), so the engine's per-task context is
/// only used for scheduling and throughput accounting.
fn advance_all<W: FaultWorkload>(
    workers: Vec<ChainWorker<W>>,
    cfg: &CampaignConfig,
    samples: usize,
) -> (Vec<ChainWorker<W>>, RunMeta) {
    let engine = EvalEngine::with_workers(cfg.seed, cfg.workers);
    engine.map(workers, |_ctx, mut w| {
        w.advance(cfg, samples);
        w
    })
}

/// Runs a fixed-budget BDLFI campaign: `cfg.chains` MCMC chains over fault
/// configurations, fanned out through the shared [`EvalEngine`], each
/// chain owning a clone of the golden network (sharing its prefix cache).
///
/// Generic over the [`FaultWorkload`]: pass a [`crate::FaultyModel`] for
/// the f32 workload or a [`crate::QuantFaultyModel`] for the int8 one.
///
/// `ctl` carries cooperative cancellation and an optional checkpoint
/// journal (one entry per finished chain, holding the chain's complete
/// outcome). An interrupted campaign resumes bit-identically: journaled
/// chains are replayed, the rest run from scratch — every chain is a pure
/// function of `(cfg.seed, chain_index)`.
///
/// # Errors
///
/// [`EngineError::Interrupted`] on a cooperative stop, plus journal/sink
/// failures.
///
/// # Panics
///
/// Panics if `cfg.chains == 0` or the chain schedule records no samples.
pub fn run_campaign<W: FaultWorkload>(
    fm: &W,
    cfg: &CampaignConfig,
    ctl: &RunControl,
) -> Result<CampaignReport, EngineError> {
    let engine = campaign_engine(cfg);
    let ctl = ctl.or_fingerprint(|| campaign_fingerprint(fm, cfg));
    let mut sink = CollectSink::new();
    let meta = delta_accounted(fm, || {
        engine.run_checkpointed(cfg.chains, || fm.clone(), chain_task(cfg), &mut sink, &ctl)
    })?;
    Ok(assemble(fm, cfg, &sink.into_inner(), meta))
}

/// Checks a fixed-budget campaign's preconditions and builds its engine.
fn campaign_engine(cfg: &CampaignConfig) -> EvalEngine {
    assert!(cfg.chains > 0, "campaign needs at least one chain");
    assert!(cfg.chain.samples > 0, "campaign must record samples");
    EvalEngine::with_workers(cfg.seed, cfg.workers)
}

/// The journaled task of a fixed-budget campaign, shared by the whole and
/// the sharded runner: chain `task_id` run to its full budget.
fn chain_task<W: FaultWorkload>(
    cfg: &CampaignConfig,
) -> impl Fn(&mut W, &mut TaskCtx) -> Result<ChainOutcome, EngineError> + Sync + '_ {
    move |fm, ctx| {
        let mut worker = ChainWorker::new(fm, cfg, ctx.task_id);
        worker.advance(cfg, cfg.chain.samples);
        Ok(worker.snapshot())
    }
}

/// Runs `run` and stamps the workload's sparse-delta accounting across it
/// into the returned meta. Workload clones share the counters, so the
/// difference is exactly the run's hits and fallbacks.
pub(crate) fn delta_accounted<W: FaultWorkload, E>(
    fm: &W,
    run: impl FnOnce() -> Result<RunMeta, E>,
) -> Result<RunMeta, E> {
    let (hits0, fb0) = fm.delta_counters();
    let mut meta = run()?;
    let (hits1, fb1) = fm.delta_counters();
    meta.delta_hits = hits1 - hits0;
    meta.delta_fallbacks = fb1 - fb0;
    Ok(meta)
}

/// The fingerprint binding a campaign journal to its identity: driver,
/// representation, config, and the golden error as a cheap model/dataset
/// proxy.
fn campaign_fingerprint<W: FaultWorkload>(fm: &W, cfg: &CampaignConfig) -> String {
    journal_fingerprint("campaign", W::NAMESPACE, &(cfg, fm.golden_error()))
}

/// Runs one shard of a campaign split `count` ways: the chains in shard
/// `index`'s contiguous sub-range of `0..cfg.chains`, journaled with
/// global chain ids under the plan's per-shard fingerprint (derived from
/// the unsharded campaign fingerprint plus the shard count and index).
/// The journal *is* the shard's output; merge the completed shards with
/// [`crate::shard::merge_shards`] and assemble the report by re-running
/// [`run_campaign`] over the merged journal with
/// [`CheckpointSpec::finalizing`](crate::CheckpointSpec::finalizing).
///
/// `ctl` must carry the shard's journal. Its fingerprint names the
/// **unsharded** campaign fingerprint (empty — the default — derives it
/// from the workload and config, matching [`run_campaign`]); the engine
/// derives the shard fingerprint from it, so it is never passed in.
///
/// # Errors
///
/// [`ShardError::Plan`] when `ctl` carries no journal or the split is
/// unusable; [`ShardError::IndexOutOfRange`] for an index outside it;
/// [`ShardError::Engine`] wrapping [`EngineError::Interrupted`] on a
/// cooperative stop (resume by rerunning with the journal's `resume`
/// set), and engine/journal failures otherwise.
///
/// # Panics
///
/// Same preconditions as [`run_campaign`].
pub fn run_campaign_shard<W: FaultWorkload>(
    fm: &W,
    cfg: &CampaignConfig,
    count: usize,
    index: usize,
    ctl: &RunControl,
) -> Result<RunMeta, ShardError> {
    let ctl = ctl.or_fingerprint(|| campaign_fingerprint(fm, cfg));
    let base = ctl.shard_journal()?.fingerprint.clone();
    let engine = campaign_engine(cfg);
    let plan = ShardPlan::new(base, cfg.seed, cfg.chains, count)?;
    delta_accounted(fm, || {
        engine.run_shard_checkpointed(
            &plan,
            index,
            || fm.clone(),
            chain_task(cfg),
            &mut NullSink,
            &ctl,
        )
    })
}

/// Runs an adaptive campaign: chains are extended in segments of
/// `cfg.chain.samples` until the completeness criteria certify or
/// `max_samples_per_chain` is reached — the paper's stopping rule ("when
/// further injections do not change the measured hypothesis") made
/// operational.
///
/// The returned report reflects all recorded samples; inspect
/// `report.completeness.certified` to see whether the budget sufficed.
///
/// With a journal in `ctl`, the adaptive driver journals at *segment*
/// granularity: after each segment, one open-ended journal entry records
/// every chain's cumulative [`ChainOutcome`] (statistics, Markov state,
/// exact RNG positions). A resumed run restores the chains from the last
/// entry and continues bit-identically; at most one in-flight segment of
/// work is recomputed. `ctl.stop_after` counts *segments* for this
/// driver.
///
/// # Errors
///
/// [`EngineError::Interrupted`] on a cooperative stop;
/// [`CheckpointError::AlreadyComplete`] (wrapped) when resuming a journal
/// whose chains already certified or exhausted the budget; plus journal
/// failures.
///
/// # Panics
///
/// Panics if `cfg.chains == 0`, the segment size is zero, or
/// `max_samples_per_chain < cfg.chain.samples`.
pub fn run_campaign_adaptive<W: FaultWorkload>(
    fm: &W,
    cfg: &CampaignConfig,
    max_samples_per_chain: usize,
    ctl: &RunControl,
) -> Result<CampaignReport, EngineError> {
    assert!(cfg.chains > 0, "campaign needs at least one chain");
    assert!(cfg.chain.samples > 0, "segment size must be positive");
    assert!(
        max_samples_per_chain >= cfg.chain.samples,
        "max_samples_per_chain must be at least one segment"
    );
    // Worst-case segment count (criteria never certify): the budget in
    // full segments. Used as the `tasks` denominator for interrupts.
    let max_segments = max_samples_per_chain.div_ceil(cfg.chain.samples);
    // Chain workers clone the workload and share its delta counters; the
    // difference across the whole adaptive run is stamped into the final
    // report's meta.
    let (delta_hits0, delta_fb0) = fm.delta_counters();

    let ctl = ctl.or_fingerprint(|| {
        journal_fingerprint(
            "campaign_adaptive",
            W::NAMESPACE,
            &(cfg, max_samples_per_chain, fm.golden_error()),
        )
    });
    // Segment journals are open-ended (`tasks: 0`): the number of entries
    // depends on when the criteria certify.
    let header = |spec: &CheckpointSpec| CheckpointHeader {
        fingerprint: spec.fingerprint.clone(),
        seed: cfg.seed,
        tasks: 0,
        shard: None,
    };

    let mut writer: Option<CheckpointWriter> = None;
    let mut workers: Vec<ChainWorker<W>>;
    let mut segments_done = 0usize;
    let mut recorded = 0usize;
    let mut run_meta: Option<RunMeta> = None;
    let mut resumed_from = None;
    let mut truncated_tail = false;

    match &ctl.checkpoint {
        Some(spec) if spec.resume => {
            let (w, replay) = CheckpointWriter::resume(&spec.path, &header(spec), spec.sync_every)?;
            let replayed = replay.values;
            truncated_tail = replay.truncated_tail;
            writer = Some(w);
            segments_done = replayed.len();
            resumed_from = (segments_done > 0).then_some(segments_done);
            // Replayed segments stream through the observer just like
            // live ones, so a reattached consumer sees the full history.
            if let Some(obs) = &ctl.observer {
                for (i, v) in replayed.iter().enumerate() {
                    obs.on_result(i, max_segments, v);
                }
            }
            // Re-derive the deterministic segment schedule the journaled
            // run followed, so `recorded` matches it exactly.
            for _ in 0..segments_done {
                recorded += cfg.chain.samples.min(max_samples_per_chain - recorded);
            }
            workers = match replayed.last() {
                Some(last) => {
                    let outcomes = Vec::<ChainOutcome>::from_json_value(last).map_err(|e| {
                        CheckpointError::Corrupt {
                            line: segments_done + 1,
                            detail: format!("segment outcome does not deserialize: {e}"),
                        }
                    })?;
                    if outcomes.len() != cfg.chains {
                        return Err(CheckpointError::Mismatch {
                            field: "chains",
                            expected: cfg.chains.to_string(),
                            found: outcomes.len().to_string(),
                        }
                        .into());
                    }
                    outcomes
                        .iter()
                        .map(|o| ChainWorker::restore(fm, o))
                        .collect()
                }
                None => (0..cfg.chains)
                    .map(|i| ChainWorker::new(fm, cfg, i))
                    .collect(),
            };
            // A journal whose chains already certified (or exhausted the
            // budget) has nothing to resume.
            if segments_done > 0
                && (assess_workers(&workers, &cfg.criteria).certified
                    || recorded >= max_samples_per_chain)
            {
                return Err(CheckpointError::AlreadyComplete {
                    tasks: segments_done,
                }
                .into());
            }
        }
        Some(spec) => {
            writer = Some(CheckpointWriter::create(
                &spec.path,
                &header(spec),
                spec.sync_every,
            )?);
            workers = (0..cfg.chains)
                .map(|i| ChainWorker::new(fm, cfg, i))
                .collect();
        }
        None => {
            workers = (0..cfg.chains)
                .map(|i| ChainWorker::new(fm, cfg, i))
                .collect();
        }
    }

    loop {
        if ctl
            .stop
            .as_ref()
            .is_some_and(|s| s.load(std::sync::atomic::Ordering::Relaxed))
            || ctl.stop_after.is_some_and(|n| segments_done >= n)
        {
            if let Some(w) = writer.as_mut() {
                w.sync()?;
            }
            return Err(EngineError::Interrupted {
                completed: segments_done,
                tasks: max_segments,
            });
        }

        let segment = cfg.chain.samples.min(max_samples_per_chain - recorded);
        let (advanced, meta) = advance_all(workers, cfg, segment);
        workers = advanced;
        run_meta = Some(match run_meta {
            Some(prev) => prev.merged_with(meta),
            None => meta,
        });
        recorded += segment;

        if writer.is_some() || ctl.observer.is_some() {
            let snapshots: Vec<ChainOutcome> = workers.iter().map(ChainWorker::snapshot).collect();
            if let Some(w) = writer.as_mut() {
                w.append(segments_done, &snapshots)?;
                w.sync()?;
            }
            if let Some(obs) = &ctl.observer {
                obs.on_result(segments_done, max_segments, &snapshots.to_json_value());
            }
        }
        segments_done += 1;

        if assess_workers(&workers, &cfg.criteria).certified || recorded >= max_samples_per_chain {
            let mut meta = run_meta.unwrap_or_default();
            meta.resumed_from = resumed_from;
            meta.truncated_tail = truncated_tail;
            let (delta_hits1, delta_fb1) = fm.delta_counters();
            meta.delta_hits = delta_hits1 - delta_hits0;
            meta.delta_fallbacks = delta_fb1 - delta_fb0;
            let outcomes: Vec<ChainOutcome> = workers.iter().map(ChainWorker::snapshot).collect();
            return Ok(assemble(fm, cfg, &outcomes, meta));
        }
    }
}

/// The completeness verdict on the chains' samples so far, assessed on
/// borrowed slices of their traces.
fn assess_workers<W: FaultWorkload>(
    workers: &[ChainWorker<W>],
    criteria: &CompletenessCriteria,
) -> CompletenessReport {
    let slices: Vec<&[f64]> = workers.iter().map(|w| w.trace.samples()).collect();
    assess_slices(&slices, criteria)
}

/// [`run_campaign_adaptive`] with the journal passed beside `ctl`.
#[deprecated(note = "use `run_campaign_adaptive` with `RunControl::checkpointed`")]
pub fn run_campaign_adaptive_controlled<W: FaultWorkload>(
    fm: &W,
    cfg: &CampaignConfig,
    max_samples_per_chain: usize,
    ctl: &RunControl,
    ckpt: Option<&CheckpointSpec>,
) -> Result<CampaignReport, EngineError> {
    run_campaign_adaptive(
        fm,
        cfg,
        max_samples_per_chain,
        &RunControl {
            checkpoint: ckpt.cloned(),
            ..ctl.clone()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::completeness::CompletenessCriteria;
    use crate::FaultyModel;
    use bdlfi_data::gaussian_blobs;
    use bdlfi_faults::{BernoulliBitFlip, SiteSpec};
    use bdlfi_nn::{mlp, optim::Sgd, TrainConfig, Trainer};
    use std::sync::Arc;

    fn trained_faulty_model(p: f64) -> FaultyModel {
        let mut rng = StdRng::seed_from_u64(7);
        let data = gaussian_blobs(300, 3, 0.6, &mut rng);
        let (train, test) = data.split(0.7, &mut rng);
        let mut model = mlp(2, &[16], 3, &mut rng);
        let mut trainer = Trainer::new(
            Sgd::new(0.1).with_momentum(0.9),
            TrainConfig {
                epochs: 25,
                batch_size: 32,
                ..TrainConfig::default()
            },
        );
        trainer.fit(&mut model, train.inputs(), train.labels(), &mut rng);
        FaultyModel::new(
            model,
            Arc::new(test),
            &SiteSpec::AllParams,
            Arc::new(BernoulliBitFlip::new(p)),
        )
    }

    fn quick_cfg(kernel: KernelChoice) -> CampaignConfig {
        CampaignConfig {
            chains: 2,
            chain: ChainConfig {
                burn_in: 5,
                samples: 60,
                thin: 1,
            },
            kernel,
            seed: 1,
            criteria: CompletenessCriteria {
                max_rhat: 1.2,
                min_ess: 20.0,
                max_mcse: 0.1,
            },
            workers: 0,
        }
    }

    #[test]
    fn prior_campaign_reports_sane_statistics() {
        let fm = trained_faulty_model(1e-3);
        let rep = run_campaign(&fm, &quick_cfg(KernelChoice::Prior), &RunControl::new()).unwrap();
        assert_eq!(rep.traces.len(), 2);
        assert_eq!(rep.traces[0].len(), 60);
        // Prior kernel always accepts.
        assert!(rep.acceptance_rates.iter().all(|&a| a == 1.0));
        // Faulty error distribution sits at or above the golden error.
        assert!(rep.mean_error >= rep.golden_error - 1e-9);
        assert!((0.0..=1.0).contains(&rep.mean_error));
        assert!(rep.mean_flips > 0.0);
        assert!(rep.importance_ess.is_none());
    }

    #[test]
    fn error_grows_with_flip_probability() {
        let low = run_campaign(
            &trained_faulty_model(1e-5),
            &quick_cfg(KernelChoice::Prior),
            &RunControl::new(),
        )
        .unwrap();
        let high = run_campaign(
            &trained_faulty_model(1e-2),
            &quick_cfg(KernelChoice::Prior),
            &RunControl::new(),
        )
        .unwrap();
        assert!(
            high.mean_error > low.mean_error + 0.02,
            "low {} high {}",
            low.mean_error,
            high.mean_error
        );
    }

    #[test]
    fn toggle_kernel_matches_prior_kernel_estimate() {
        let fm = trained_faulty_model(3e-3);
        let mut cfg = quick_cfg(KernelChoice::Prior);
        cfg.chain.samples = 150;
        let prior = run_campaign(&fm, &cfg, &RunControl::new()).unwrap();
        let mut cfg = quick_cfg(KernelChoice::Mixture {
            refresh_weight: 0.3,
        });
        cfg.chain.samples = 150;
        cfg.chain.burn_in = 50;
        let mixed = run_campaign(&fm, &cfg, &RunControl::new()).unwrap();
        assert!(
            (prior.mean_error - mixed.mean_error).abs() < 0.08,
            "prior {} vs mixture {}",
            prior.mean_error,
            mixed.mean_error
        );
    }

    #[test]
    fn tempered_campaign_reweights_back_to_prior() {
        let fm = trained_faulty_model(3e-3);
        let mut cfg = quick_cfg(KernelChoice::Prior);
        cfg.chain.samples = 200;
        let reference = run_campaign(&fm, &cfg, &RunControl::new()).unwrap();
        let mut cfg = quick_cfg(KernelChoice::Tempered { beta: 3.0 });
        cfg.chain.samples = 200;
        cfg.chain.burn_in = 50;
        let tempered = run_campaign(&fm, &cfg, &RunControl::new()).unwrap();
        let iess = tempered.importance_ess.expect("tempered reports IS ESS");
        assert!(iess > 10.0);
        // Tilted raw mean is biased upward; the reweighted estimate is not.
        assert!(tempered.summary.mean >= tempered.mean_error - 1e-9);
        assert!(
            (tempered.mean_error - reference.mean_error).abs() < 0.1,
            "tempered {} vs reference {}",
            tempered.mean_error,
            reference.mean_error
        );
    }

    #[test]
    fn tilted_prior_matches_plain_prior_estimate_with_more_hits() {
        // Rare-error regime: E[flips] ~ 0.04 under the prior; tilting by
        // 10x brings it to O(1), the regime importance tilting is for.
        let fm = trained_faulty_model(1e-5);
        let mut cfg = quick_cfg(KernelChoice::Prior);
        cfg.chain.samples = 500;
        cfg.chain.burn_in = 0;
        let plain = run_campaign(&fm, &cfg, &RunControl::new()).unwrap();
        let mut cfg = quick_cfg(KernelChoice::TiltedPrior { factor: 10.0 });
        cfg.chain.samples = 500;
        cfg.chain.burn_in = 0;
        let tilted = run_campaign(&fm, &cfg, &RunControl::new()).unwrap();

        // iid from the tilted prior: every proposal accepted.
        assert!(tilted.acceptance_rates.iter().all(|&a| a == 1.0));
        // More fault mass sampled...
        assert!(tilted.mean_flips > plain.mean_flips * 3.0);
        // ...yet the re-weighted estimate agrees with the plain one.
        let iess = tilted.importance_ess.expect("tilted reports IS ESS");
        assert!(iess > 50.0, "importance ESS {iess}");
        assert!(
            (tilted.mean_error - plain.mean_error).abs() < 0.01,
            "tilted {} vs plain {}",
            tilted.mean_error,
            plain.mean_error
        );
        // The raw (unweighted) tilted mean is biased upward (more faults
        // sampled than the prior would produce).
        assert!(tilted.summary.mean >= tilted.mean_error);
    }

    #[test]
    fn gibbs_kernel_always_accepts_and_agrees_with_prior() {
        let fm = trained_faulty_model(3e-3);
        let mut cfg = quick_cfg(KernelChoice::Gibbs { p: 3e-3 });
        cfg.chain.samples = 150;
        cfg.chain.burn_in = 100;
        let gibbs = run_campaign(&fm, &cfg, &RunControl::new()).unwrap();
        assert!(
            gibbs.acceptance_rates.iter().all(|&a| a > 0.999),
            "{:?}",
            gibbs.acceptance_rates
        );
        let mut cfg = quick_cfg(KernelChoice::Prior);
        cfg.chain.samples = 150;
        let prior = run_campaign(&fm, &cfg, &RunControl::new()).unwrap();
        // Gibbs moves one bit per step, so consecutive samples are highly
        // correlated; the estimates still agree loosely.
        assert!(
            (gibbs.mean_error - prior.mean_error).abs() < 0.12,
            "gibbs {} vs prior {}",
            gibbs.mean_error,
            prior.mean_error
        );
    }

    #[test]
    fn campaign_is_reproducible_under_seed() {
        let fm = trained_faulty_model(1e-3);
        let a = run_campaign(&fm, &quick_cfg(KernelChoice::Prior), &RunControl::new()).unwrap();
        let b = run_campaign(&fm, &quick_cfg(KernelChoice::Prior), &RunControl::new()).unwrap();
        assert_eq!(a.traces[0].samples(), b.traces[0].samples());
        assert_eq!(a.mean_error, b.mean_error);
    }

    #[test]
    fn campaign_is_worker_count_invariant() {
        let fm = trained_faulty_model(1e-3);
        let mut cfg = quick_cfg(KernelChoice::Prior);
        cfg.workers = 1;
        let serial = run_campaign(&fm, &cfg, &RunControl::new()).unwrap();
        cfg.workers = 2;
        let parallel = run_campaign(&fm, &cfg, &RunControl::new()).unwrap();
        for (a, b) in serial.traces.iter().zip(&parallel.traces) {
            assert_eq!(a.samples(), b.samples());
        }
        assert_eq!(serial.mean_error, parallel.mean_error);
        assert_eq!(parallel.run_meta.tasks, cfg.chains);
        assert_eq!(parallel.run_meta.workers, 2);
    }

    #[test]
    fn adaptive_campaign_stops_at_certification() {
        let fm = trained_faulty_model(1e-3);
        let mut cfg = quick_cfg(KernelChoice::Prior);
        cfg.chain.samples = 50; // segment size
        cfg.criteria = CompletenessCriteria {
            max_rhat: 1.1,
            min_ess: 60.0,
            max_mcse: 0.05,
        };
        let rep = run_campaign_adaptive(&fm, &cfg, 1000, &RunControl::new()).unwrap();
        assert!(rep.completeness.certified, "{:?}", rep.completeness);
        // Stopped in segments of 50.
        assert_eq!(rep.traces[0].len() % 50, 0);
        assert!(rep.traces[0].len() <= 1000);
    }

    #[test]
    fn adaptive_campaign_respects_budget_cap() {
        let fm = trained_faulty_model(1e-2);
        let mut cfg = quick_cfg(KernelChoice::Prior);
        cfg.chain.samples = 20;
        // Impossible criteria: must run to the cap and stop.
        cfg.criteria = CompletenessCriteria {
            max_rhat: 1.0001,
            min_ess: 1e9,
            max_mcse: 1e-9,
        };
        let rep = run_campaign_adaptive(&fm, &cfg, 60, &RunControl::new()).unwrap();
        assert!(!rep.completeness.certified);
        assert_eq!(rep.traces[0].len(), 60);
    }

    #[test]
    fn adaptive_matches_fixed_budget_for_one_segment() {
        let fm = trained_faulty_model(1e-3);
        let mut cfg = quick_cfg(KernelChoice::Prior);
        cfg.chain.samples = 40;
        // Trivial criteria certify after the first segment.
        cfg.criteria = CompletenessCriteria {
            max_rhat: 100.0,
            min_ess: 1.0,
            max_mcse: 10.0,
        };
        let adaptive = run_campaign_adaptive(&fm, &cfg, 400, &RunControl::new()).unwrap();
        let fixed = run_campaign(&fm, &cfg, &RunControl::new()).unwrap();
        assert_eq!(adaptive.traces[0].samples(), fixed.traces[0].samples());
    }
}
