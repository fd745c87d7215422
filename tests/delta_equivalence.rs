//! Sparse-delta evaluation equivalence fuzzing.
//!
//! The contract under test: with the sparse-delta path enabled (the
//! default), every workload evaluation is **bit-identical** to a dense
//! re-inference of the faulted network — for random 1–16-flip
//! configurations across f32 weights/biases, int8 weight bytes, i32
//! bias words and per-channel f32 weight scales; on MLP, reduced-ResNet
//! and quantized-MLP fixtures; and in the forced-fallback cases
//! (conv-layer faults, quantizer zero-point faults, transient activation
//! sites) where the planner must refuse and route through the exact
//! incremental path. The delta path itself must be exact at every
//! densification threshold. Campaign reports must stay worker-count
//! invariant and identical with the delta path switched off.

use bdlfi_suite::bayes::ChainConfig;
use bdlfi_suite::core::{
    forward_delta_f32, forward_delta_quant, run_campaign, CampaignConfig, CampaignReport,
    FaultWorkload, FaultyModel, KernelChoice, QuantFaultyModel, RunControl, DENSIFY_THRESHOLD,
};
use bdlfi_suite::data::{gaussian_blobs, Dataset};
use bdlfi_suite::faults::{BernoulliBitFlip, FaultConfig, FaultMask, ParamSite, Repr, SiteSpec};
use bdlfi_suite::nn::{
    mlp, optim::Sgd, predict_batched, resnet18, PrefixCache, ResNetConfig, Sequential, TrainConfig,
    Trainer,
};
use bdlfi_suite::quant::{quantize_model, CalibConfig, QPrefixCache};
use bdlfi_suite::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Builds a random configuration with `flips` bit flips spread over the
/// given parameter sites, bit positions bounded by each site's storage
/// representation (8 for int8 bytes, 32 otherwise).
fn random_config(sites: &[ParamSite], flips: usize, rng: &mut StdRng) -> FaultConfig {
    let mut cfg = FaultConfig::clean();
    for _ in 0..flips {
        let site = &sites[rng.random_range(0..sites.len())];
        let element = rng.random_range(0..site.len);
        let bit = match site.repr {
            Repr::I8 => rng.random_range(0..8u8),
            _ => rng.random_range(0..32u8),
        };
        let mut mask = cfg.mask(&site.path);
        mask.push_bit(element, bit);
        cfg.set_mask(&site.path, mask);
    }
    cfg
}

/// One flip at a fixed location — for targeting specific fallback sites.
fn single_flip(path: &str, element: usize, bit: u8) -> FaultConfig {
    let mut cfg = FaultConfig::clean();
    let mut mask = FaultMask::empty();
    mask.push_bit(element, bit);
    cfg.set_mask(path, mask);
    cfg
}

fn trained_mlp(hidden: &[usize], seed: u64) -> (Sequential, Arc<Dataset>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = gaussian_blobs(120, 3, 0.6, &mut rng);
    let (train, test) = data.split(0.7, &mut rng);
    let mut model = mlp(2, hidden, 3, &mut rng);
    let mut trainer = Trainer::new(
        Sgd::new(0.1).with_momentum(0.9),
        TrainConfig {
            epochs: 10,
            batch_size: 32,
            ..TrainConfig::default()
        },
    );
    trainer.fit(&mut model, train.inputs(), train.labels(), &mut rng);
    (model, Arc::new(test))
}

/// Asserts that `fm.eval_logits(cfg)` (delta path enabled) bit-matches
/// both the delta-disabled incremental path and a cold dense re-inference
/// of the faulted model.
fn assert_f32_equivalence(fm: &FaultyModel, cfg: &FaultConfig, what: &str) {
    let mut delta_fm = fm.clone();
    let mut plain_fm = fm.clone();
    plain_fm.set_delta_enabled(false);
    let mut rng_a = StdRng::seed_from_u64(99);
    let mut rng_b = StdRng::seed_from_u64(99);
    let a = delta_fm.eval_logits(cfg, &mut rng_a);
    let b = plain_fm.eval_logits(cfg, &mut rng_b);
    assert_eq!(bits(&a), bits(&b), "{what}: delta vs incremental");
}

#[test]
fn random_flips_on_mlp_are_bitwise_identical() {
    let (model, eval) = trained_mlp(&[24, 16, 12], 41);
    let fm = FaultyModel::new(
        model,
        eval,
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(1e-3)),
    );
    let sites = FaultWorkload::sites(&fm).params.clone();
    let mut rng = StdRng::seed_from_u64(7);
    for round in 0..40 {
        let flips = [1, 2, 3, 4, 8, 16][round % 6];
        let cfg = random_config(&sites, flips, &mut rng);
        assert_f32_equivalence(&fm, &cfg, &format!("mlp round {round} ({flips} flips)"));
    }
    let (hits, fallbacks) = fm.delta_counters();
    assert!(
        hits > 0,
        "delta path never fired on an all-dense model ({hits} hits, {fallbacks} fallbacks)"
    );
}

/// Densification thresholds the delta path must be exact at: always
/// densify, the boundary of half the rows, the default, and never.
const THRESHOLDS: [f64; 4] = [0.0, 0.5, DENSIFY_THRESHOLD, 1.0];

#[test]
fn delta_and_dense_paths_match_cold_reinference() {
    let (model, eval) = trained_mlp(&[16, 12], 43);
    let mut cold_model = model.clone();
    // 8-row batches: a batch's dirty fraction moves in steps of 1/8, so
    // the thresholds split the random configurations between branches.
    let prefix = PrefixCache::build(&mut cold_model, eval.inputs(), 8);
    let fm = FaultyModel::new(
        model,
        Arc::clone(&eval),
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(1e-3)),
    );
    let sites = FaultWorkload::sites(&fm).params.clone();
    let mut rng = StdRng::seed_from_u64(11);
    for round in 0..30 {
        let cfg = random_config(&sites, 1 + round % 16, &mut rng);
        let mut delta_fm = fm.clone();
        let logits = delta_fm.eval_logits(&cfg, &mut StdRng::seed_from_u64(1));
        cfg.apply(&mut cold_model);
        let cold = predict_batched(&mut cold_model, eval.inputs(), 64, &mut |_, _| {});
        for t in THRESHOLDS {
            let delta = forward_delta_f32(&mut cold_model, &prefix, &cfg, t)
                .expect("dense-only sites are column-confined");
            assert_eq!(bits(&delta), bits(&cold), "round {round}: threshold {t}");
        }
        cfg.apply(&mut cold_model);
        assert_eq!(bits(&logits), bits(&cold), "round {round}: delta vs cold");
    }
}

#[test]
fn resnet_conv_faults_fall_back_and_stay_exact() {
    let mut rng = StdRng::seed_from_u64(5);
    let model = resnet18(
        ResNetConfig {
            in_channels: 1,
            base_width: 2,
            classes: 3,
        },
        &mut rng,
    );
    let inputs = Tensor::rand_normal([6, 1, 8, 8], 0.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..6).map(|i| i % 3).collect();
    let eval = Arc::new(Dataset::new(inputs, labels, 3));
    let fm = FaultyModel::new(
        model,
        eval,
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(1e-4)),
    );
    let sites = FaultWorkload::sites(&fm).params.clone();
    assert!(
        sites.iter().any(|s| s.path.contains("conv")),
        "reduced resnet must expose conv sites"
    );
    let mut rng = StdRng::seed_from_u64(13);
    // Random multi-flip configs: almost all touch conv/bn sites and must
    // fall back; any hitting only the final dense layer may take the
    // delta path. Either way the logits must bit-match.
    for round in 0..6 {
        let cfg = random_config(&sites, 1 + round * 3, &mut rng);
        assert_f32_equivalence(&fm, &cfg, &format!("resnet round {round}"));
    }
    // A targeted conv-weight flip is a guaranteed planner refusal.
    let conv_site = sites.iter().find(|s| s.path.contains("conv")).unwrap();
    let before = fm.delta_counters();
    assert_f32_equivalence(
        &fm,
        &single_flip(&conv_site.path, 0, 22),
        "targeted conv flip",
    );
    let after = fm.delta_counters();
    assert!(
        after.1 > before.1,
        "conv fault must be counted as a fallback"
    );
    // The fc head is dense: its faults ride the delta path.
    let fc_site = sites
        .iter()
        .find(|s| s.path.starts_with("fc") && s.path.ends_with("weight"))
        .expect("resnet ends in a dense classifier");
    let before = fm.delta_counters();
    assert_f32_equivalence(&fm, &single_flip(&fc_site.path, 1, 25), "fc head flip");
    let after = fm.delta_counters();
    assert!(after.0 > before.0, "dense-head fault must be a delta hit");
}

#[test]
fn transient_activation_sites_force_fallback_exactly() {
    let (model, eval) = trained_mlp(&[12], 47);
    let fm = FaultyModel::new(
        model,
        eval,
        &SiteSpec::Activations(vec!["fc1".into()]),
        Arc::new(BernoulliBitFlip::new(0.01)),
    );
    // Transient sites disable the prefix cache entirely; the delta path
    // can never fire, but evaluations stay deterministic given the rng.
    let mut a_fm = fm.clone();
    let mut b_fm = fm.clone();
    b_fm.set_delta_enabled(false);
    let a = a_fm.eval_logits(&FaultConfig::clean(), &mut StdRng::seed_from_u64(3));
    let b = b_fm.eval_logits(&FaultConfig::clean(), &mut StdRng::seed_from_u64(3));
    assert_eq!(bits(&a), bits(&b), "transient eval must not depend on gate");
    let (hits, fallbacks) = fm.delta_counters();
    assert_eq!(hits, 0, "no prefix cache, no delta hits");
    assert!(fallbacks > 0, "forced full passes count as fallbacks");
}

#[test]
fn random_flips_on_quant_mlp_are_bitwise_identical() {
    let mut rng = StdRng::seed_from_u64(17);
    let data = gaussian_blobs(100, 3, 0.6, &mut rng);
    let (train, test) = data.split(0.7, &mut rng);
    let mut model = mlp(2, &[20, 12], 3, &mut rng);
    let mut trainer = Trainer::new(
        Sgd::new(0.1).with_momentum(0.9),
        TrainConfig {
            epochs: 10,
            batch_size: 32,
            ..TrainConfig::default()
        },
    );
    trainer.fit(&mut model, train.inputs(), train.labels(), &mut rng);
    let qm = quantize_model(&model, train.inputs(), &CalibConfig::default());
    let eval = Arc::new(test);
    let qfm = QuantFaultyModel::new(
        qm.clone(),
        Arc::clone(&eval),
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(1e-3)),
    );
    // Fuzz across the column-confined site kinds: int8 weight bytes, i32
    // bias words and per-channel f32 weight scales (zero-point sites fan
    // out and are exercised separately below).
    let confined: Vec<ParamSite> = qfm
        .sites()
        .params
        .iter()
        .filter(|s| {
            s.path.ends_with("weight") || s.path.ends_with("bias") || s.path.ends_with("w_scale")
        })
        .cloned()
        .collect();
    assert!(confined.iter().any(|s| s.repr == Repr::I8));
    assert!(confined.iter().any(|s| s.repr == Repr::I32Accum));
    assert!(confined.iter().any(|s| s.repr == Repr::F32));
    let mut cold = qm.clone();
    let prefix = QPrefixCache::build(&mut cold, eval.inputs(), 8);
    let mut rng = StdRng::seed_from_u64(23);
    for round in 0..30 {
        let flips = [1, 2, 4, 8, 16][round % 5];
        let cfg = random_config(&confined, flips, &mut rng);
        let mut delta_qfm = qfm.clone();
        let a = delta_qfm.eval_logits(&cfg);
        cold.apply(&cfg);
        let b = cold.predict_all(eval.inputs(), 64);
        for t in THRESHOLDS {
            let delta = forward_delta_quant(&mut cold, &prefix, &cfg, t)
                .expect("weight, bias and w_scale sites are column-confined");
            assert_eq!(bits(&delta), bits(&b), "quant round {round}: threshold {t}");
        }
        cold.apply(&cfg);
        assert_eq!(
            bits(&a),
            bits(&b),
            "quant round {round} ({flips} flips): delta vs integer re-inference"
        );
    }
    let (hits, _) = qfm.delta_counters();
    assert!(hits > 0, "quant delta path never fired");

    // Output zero-point faults reach every column through the requantizer:
    // the planner must refuse, the fallback must stay exact.
    {
        let cfg = single_flip("fc2.out_zp", 0, 3);
        let before = qfm.delta_counters();
        let mut delta_qfm = qfm.clone();
        let a = delta_qfm.eval_logits(&cfg);
        let mut cold = qm.clone();
        cold.apply(&cfg);
        let b = cold.predict_all(eval.inputs(), 64);
        cold.apply(&cfg);
        assert_eq!(bits(&a), bits(&b), "fc2.out_zp: fallback vs re-inference");
        let after = qfm.delta_counters();
        assert!(after.1 > before.1, "fc2.out_zp must fall back");
    }
    // A per-channel weight scale feeds exactly one column's requantizer,
    // so its faults ride the delta path — and still bit-match.
    {
        let cfg = single_flip("fc1.w_scale", 0, 27);
        let before = qfm.delta_counters();
        let mut delta_qfm = qfm.clone();
        let a = delta_qfm.eval_logits(&cfg);
        let mut cold = qm.clone();
        cold.apply(&cfg);
        let b = cold.predict_all(eval.inputs(), 64);
        cold.apply(&cfg);
        assert_eq!(bits(&a), bits(&b), "fc1.w_scale: delta vs re-inference");
        let after = qfm.delta_counters();
        assert!(after.0 > before.0, "fc1.w_scale must be a delta hit");
    }
}

/// Worker counts the invariance contract must hold across: serial and the
/// host's actual parallelism.
fn worker_counts() -> Vec<usize> {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts = vec![1, host];
    counts.dedup();
    counts
}

fn assert_reports_identical(a: &CampaignReport, b: &CampaignReport, what: &str) {
    assert_eq!(a.traces, b.traces, "{what}: traces differ");
    assert_eq!(a.mean_error, b.mean_error, "{what}: mean error differs");
    assert_eq!(a.mean_flips, b.mean_flips, "{what}: mean flips differ");
    assert_eq!(a.summary, b.summary, "{what}: summaries differ");
}

#[test]
fn campaigns_with_delta_are_worker_invariant_and_gate_independent() {
    let (model, eval) = trained_mlp(&[16, 12], 53);
    let fm = FaultyModel::new(
        model,
        eval,
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(5e-4)),
    );
    let mut plain = fm.clone();
    plain.set_delta_enabled(false);
    let cfg = CampaignConfig {
        seed: 77,
        chains: 4,
        chain: ChainConfig {
            samples: 12,
            ..CampaignConfig::default().chain
        },
        kernel: KernelChoice::Prior,
        workers: 1,
        ..CampaignConfig::default()
    };
    let reference = run_campaign(&plain, &cfg, &RunControl::new()).unwrap();
    for workers in worker_counts() {
        let mut c = cfg;
        c.workers = workers;
        let report = run_campaign(&fm, &c, &RunControl::new()).unwrap();
        assert_reports_identical(
            &reference,
            &report,
            &format!("delta campaign @{workers} workers"),
        );
        assert!(
            report.run_meta.delta_hits > 0,
            "campaign over dense sites must hit the delta path"
        );
    }
    // The disabled-gate run records no hits.
    assert_eq!(reference.run_meta.delta_hits, 0);
    assert!(reference.run_meta.delta_fallbacks == 0);
}
