//! `resnet-layerwise`: one Fig. 3 layer-by-layer study per op.
//!
//! Why it exists: it is the paper's expensive workload. Each op is one
//! `run_layerwise` over the ten `resnet18_layer_positions()` of a
//! ResNet-18 (base width 8, 32×32 synth-CIFAR) under
//! `LayerBudget::ExpectedFlips`, on a network trained briefly in set-up so
//! its batch-norm statistics are not those of an initialisation. Conv
//! im2col GEMM, batch norm and prefix-cache resume dominate, and the
//! sparse-delta path refuses conv fan-out, so only `fc` hits it.
//!
//! Per-layer metrics it is meant to move: `nn.fwd_ms.<layer>`,
//! `tensor.conv_gflops`, `nn.predict_from_ms`, `nn.prefix_build_ms`,
//! `core.eval_us`, `delta.hit_ratio` (≈0.1 today) and `nn.train_s`.
//! Conv-aware delta and f32 kernel work must show here.
//!
//! Sizing: a study scores 2 chains × 2 samples per position on 4 images,
//! and set-up trains one epoch over 64 images. That keeps a study near
//! half a second and a set-up near 0.6 s on a 2-vCPU x86 host, so one run
//! holds about 40 studies and 15 set-ups, enough for steady medians; at
//! 16 images and 5 samples a run held only about ten studies.

use crate::common::{
    chains_of, closed_loop, cold_matches, count_delta, count_overhead, lane, op_seed, probe_seed,
    repeat_setup, replay_assess, replay_f32, replay_journal, replay_quant, secs, Ctx, Deliveries,
    Outcome, RESNET_FWD_SPANS,
};
use crate::trace::Tracer;
use bdlfi::{
    run_layerwise_controlled, CampaignConfig, FaultyModel, KernelChoice, LayerBudget,
    LayerwiseResult, RunControl, RunObserver,
};
use bdlfi_bayes::{seed_stream, ChainConfig};
use bdlfi_data::{synth_cifar, Dataset, SynthCifarConfig};
use bdlfi_faults::{resolve_sites, BernoulliBitFlip, SiteSpec};
use bdlfi_nn::{
    optim::Sgd, resnet18, resnet18_layer_positions, ForwardCtx, Mode, PrefixCache, ResNetConfig,
    Sequential, TrainConfig, Trainer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Training images (one epoch in set-up).
const TRAIN_IMAGES: usize = 64;
/// Evaluation images every faulty configuration is scored on.
const EVAL_IMAGES: usize = 4;
/// Chains per layer campaign.
const CHAINS: usize = 2;
/// Samples per chain per layer campaign.
const SAMPLES: usize = 2;
/// Expected flipped bits per layer (the Fig. 3 budget).
const FLIPS: f64 = 8.0;
/// Fresh set-ups timed per run (their median is `setup_s`).
const SETUPS: usize = 15;
/// Configurations drawn per op for the traced replays.
const REPLAY_CONFIGS: usize = 4;

fn campaign(seed: u64) -> CampaignConfig {
    CampaignConfig {
        chains: CHAINS,
        chain: ChainConfig {
            burn_in: 0,
            samples: SAMPLES,
            thin: 1,
        },
        kernel: KernelChoice::Prior,
        seed,
        workers: 1,
        ..CampaignConfig::default()
    }
}

/// The scenario constant: dataset, initialisation and training seeds.
const SCENARIO: u64 = 18;

/// The generated dataset: train and eval splits.
fn dataset() -> (Arc<Dataset>, Arc<Dataset>) {
    let mut rng = StdRng::seed_from_u64(seed_stream(SCENARIO, lane::DATA));
    let cfg = SynthCifarConfig {
        classes: 10,
        image_size: 32,
        noise: 1.0,
        phase_jitter: 1.0,
        label_noise: 0.30,
    };
    let data = synth_cifar(TRAIN_IMAGES + EVAL_IMAGES, cfg, &mut rng);
    let indices: Vec<usize> = (0..data.len()).collect();
    let train = data.subset(&indices[..TRAIN_IMAGES]);
    let eval = data.subset(&indices[TRAIN_IMAGES..]);
    (Arc::new(train), Arc::new(eval))
}

/// One fresh set-up from the generated dataset: initialise the ResNet,
/// train it one epoch (`Trainer::fit`), then `FaultyModel::new` over all
/// its parameters (the golden prefix over the eval set).
fn setup(ctx: &Ctx, train: &Dataset, eval: &Arc<Dataset>) -> (Sequential, FaultyModel) {
    let tr = &ctx.tracer;
    tr.span("setup", 0, None, |parent| {
        let mut rng = StdRng::seed_from_u64(seed_stream(SCENARIO, lane::MODEL));
        let net = ResNetConfig {
            in_channels: 3,
            base_width: 8,
            classes: 10,
        };
        let mut model = resnet18(net, &mut rng);
        let mut trainer = Trainer::new(
            Sgd::new(0.05).with_momentum(0.9).with_weight_decay(5e-4),
            TrainConfig {
                epochs: 1,
                batch_size: 32,
                lr_decay: 0.1,
                lr_milestones: &[],
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
                Arc::new(BernoulliBitFlip::new(1e-6)),
            )
        });
        (model, fm)
    })
}

/// One position's faulty model, at the probability the study gives it.
fn position_model(model: &Sequential, eval: &Arc<Dataset>, layer: &str) -> FaultyModel {
    let spec = SiteSpec::LayerParams {
        prefix: layer.to_string(),
    };
    let elements = resolve_sites(model, &spec).total_param_elements();
    let p = LayerBudget::ExpectedFlips(FLIPS).probability_for(elements);
    FaultyModel::new(
        model.clone(),
        Arc::clone(eval),
        &spec,
        Arc::new(BernoulliBitFlip::new(p)),
    )
}

/// The output check of one op: every position recorded the configured
/// samples, and one seed-drawn config per position re-evaluated cold
/// (`FaultConfig::with_applied` + `predict_all`) matches `eval_logits`
/// bit for bit.
fn check(
    result: &LayerwiseResult,
    positions: &mut [FaultyModel],
    golden: &Sequential,
    eval: &Dataset,
    seed: u64,
) -> Result<(), String> {
    if result.layers.len() != positions.len() {
        return Err(format!(
            "{} positions reported, {} expected",
            result.layers.len(),
            positions.len()
        ));
    }
    for l in &result.layers {
        let lens: Vec<usize> = l.report.traces.iter().map(|t| t.len()).collect();
        if lens.len() != CHAINS || lens.iter().any(|&n| n != SAMPLES) {
            return Err(format!("{}: recorded {lens:?} samples per chain", l.layer));
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for (fm, l) in positions.iter_mut().zip(&result.layers) {
        let cfg = fm.sample_config(&mut rng);
        if !cold_matches(fm, golden, eval, &cfg, seed) {
            return Err(format!(
                "{}: eval_logits differs from the cold re-inference",
                l.layer
            ));
        }
    }
    Ok(())
}

/// Runs the workload: closed-loop studies for `ctx.seconds` with the
/// fresh set-ups spread over the run. When tracing, each study is
/// followed by its traced repeat and the repeat's replays.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (train, eval) = dataset();
    let t = Instant::now();
    let (model, fm) = setup(ctx, &train, &eval);
    out.setups.push(secs(t));
    let again = repeat_setup(&fm, || setup(ctx, &train, &eval).1);
    let layers = resnet18_layer_positions();
    let mut positions: Vec<FaultyModel> = layers
        .iter()
        .map(|l| position_model(&model, &eval, l))
        .collect();

    let setups = closed_loop(ctx.seconds, SETUPS, 1, again, |k| {
        let cfg = campaign(op_seed(ctx.seed, k));
        let t = Instant::now();
        let result = run_layerwise_controlled(
            &model,
            &eval,
            &layers,
            LayerBudget::ExpectedFlips(FLIPS),
            &cfg,
            &RunControl::default(),
            None,
        );
        let dt = secs(t);
        let result = match result {
            Ok(result) => result,
            Err(e) => {
                out.op_s.push(f64::NAN);
                out.record(k, Err(e.to_string()));
                return Ok(());
            }
        };
        out.op_s.push(dt);
        out.busy_s += dt;
        out.configs += result
            .layers
            .iter()
            .map(|l| l.report.total_samples() as u64)
            .sum::<u64>();
        let probe = probe_seed(ctx.seed, k);
        let mut checked = check(&result, &mut positions, &model, &eval, probe);
        if ctx.tracer.enabled() {
            checked = checked.and_then(|()| {
                traced_op(
                    ctx,
                    k,
                    &cfg,
                    (dt, &result),
                    &model,
                    &positions,
                    &train,
                    &eval,
                )
            });
        }
        out.record(k, checked);
        Ok(())
    })?;
    out.setups.extend(setups);
    Ok(out)
}

/// Times `Sequential::forward_one` of every top-level layer on its golden
/// boundary input (from `PrefixCache::build`), and records the computed
/// conv FLOPs of the layers holding convolutions (2 · rows · output plane
/// · |weights| per conv; the layer's batch norm and residual add run
/// inside the same timed call).
fn replay_layers(tr: &Tracer, op: usize, model: &Sequential, eval: &Dataset) -> Result<(), String> {
    let mut m = model.clone();
    let prefix = PrefixCache::build(&mut m, eval.inputs(), 64);
    if m.len() != RESNET_FWD_SPANS.len() {
        return Err(format!("ResNet has {} top-level layers", m.len()));
    }
    let conv_weights: Vec<usize> = (0..m.len())
        .map(|i| {
            let name = m.layer_at(i).0.to_string();
            m.param_paths()
                .iter()
                .filter(|p| p.starts_with(&format!("{name}.")))
                .filter_map(|p| m.param_value(p))
                .filter(|w| w.dims().len() == 4)
                .map(|w| w.len())
                .sum()
        })
        .collect();
    for (i, span) in RESNET_FWD_SPANS.iter().enumerate() {
        if span.strip_prefix("nn.fwd_ms.") != Some(m.layer_at(i).0) {
            return Err(format!("layer {i} is {}", m.layer_at(i).0));
        }
        for b in 0..prefix.num_batches() {
            let input = prefix.boundary(b, i);
            let mut fctx = ForwardCtx::new(Mode::Eval);
            let t = Instant::now();
            let y = m.forward_one(i, input, &mut fctx);
            let t_end = Instant::now();
            tr.interval(span, op, None, t, t_end);
            if conv_weights[i] > 0 {
                tr.interval("tensor.conv_forward", op, None, t, t_end);
                let plane = y.dims().iter().skip(2).product::<usize>();
                let flops = 2 * y.dim(0) * plane * conv_weights[i];
                tr.count("tensor.conv_flops", op, flops as f64);
            }
        }
    }
    Ok(())
}

/// Every position's chains of a study, in position order.
fn study_chains(result: &LayerwiseResult) -> Vec<Vec<Vec<f64>>> {
    result.layers.iter().map(|l| chains_of(&l.report)).collect()
}

/// The traced repeat of study `k` right after its `untraced` run
/// (latency and result): the same study with an observer attached and a
/// span around it, then the replays outside the span. Fails if the
/// repeat sampled other chains than the untraced run.
#[allow(clippy::too_many_arguments)]
fn traced_op(
    ctx: &Ctx,
    k: usize,
    cfg: &CampaignConfig,
    untraced: (f64, &LayerwiseResult),
    model: &Sequential,
    positions: &[FaultyModel],
    train: &Dataset,
    eval: &Arc<Dataset>,
) -> Result<(), String> {
    let tr = &ctx.tracer;
    let layers = resnet18_layer_positions();
    let observer = Arc::new(Deliveries::default());
    let ctl = RunControl::default().observing(Arc::clone(&observer) as Arc<dyn RunObserver>);
    let t = Instant::now();
    let mut op_span = None;
    let result = tr.span("layerwise.run_layerwise", k, None, |id| {
        op_span = id;
        run_layerwise_controlled(
            model,
            eval,
            &layers,
            LayerBudget::ExpectedFlips(FLIPS),
            cfg,
            &ctl,
            None,
        )
    });
    count_overhead(tr, k, untraced.0, secs(t));
    let values = observer.drain_into(tr, k, op_span, t);
    let result = result.map_err(|e| e.to_string())?;
    if study_chains(&result) != study_chains(untraced.1) {
        return Err("the traced repeat sampled other chains".to_string());
    }

    for l in &result.layers {
        tr.count("faults.flips", k, l.report.mean_flips);
        replay_assess(tr, k, &chains_of(&l.report), SAMPLES, &cfg.criteria);
    }
    let samples: usize = result.layers.iter().map(|l| l.report.total_samples()).sum();
    tr.count("campaign.samples", k, samples as f64);
    let meta = &result.run_meta;
    count_delta(tr, k, false, (meta.delta_hits, meta.delta_fallbacks));

    let probe = probe_seed(ctx.seed, k);
    let position = &positions[k % positions.len()];
    replay_f32(tr, k, position, model, eval, probe, REPLAY_CONFIGS)?;
    replay_layers(tr, k, model, eval)?;
    let journal = ctx.scratch.join(format!("replay-{k}.jsonl"));
    replay_journal(tr, k, &journal, &values, cfg.seed)?;
    if k == 0 {
        let spec = SiteSpec::AllParams;
        let bits: u64 = resolve_sites(model, &spec)
            .params
            .iter()
            .map(|s| s.injectable_bits())
            .sum();
        let p = LayerBudget::ExpectedFlips(FLIPS).probability_for_bits(bits);
        let quant = replay_quant(
            tr,
            k,
            model,
            train.inputs(),
            eval,
            &spec,
            p,
            probe,
            REPLAY_CONFIGS,
        )?;
        count_delta(tr, k, true, quant);
    }
    Ok(())
}
