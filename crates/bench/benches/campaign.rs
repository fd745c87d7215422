//! Criterion benchmarks for end-to-end BDLFI: the cost of one faulty
//! evaluation (the campaign inner loop) for both evaluated networks, and a
//! whole small campaign — the numbers behind "specialised hardware
//! accelerates inference and hence the fault injection campaigns".

use bdlfi::{run_campaign, CampaignConfig, FaultyModel, KernelChoice, RunControl};
use bdlfi_bayes::ChainConfig;
use bdlfi_data::{gaussian_blobs, synth_cifar, SynthCifarConfig};
use bdlfi_faults::{BernoulliBitFlip, SiteSpec};
use bdlfi_nn::{mlp, predict_all, resnet18, ResNetConfig};
use criterion::{criterion_group, criterion_main, Criterion, SamplingMode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;

fn mlp_faulty_model() -> FaultyModel {
    let mut rng = StdRng::seed_from_u64(0);
    let data = Arc::new(gaussian_blobs(200, 3, 1.0, &mut rng));
    let model = mlp(2, &[32], 3, &mut rng);
    FaultyModel::new(
        model,
        data,
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(1e-3)),
    )
}

fn bench_faulty_eval_mlp(c: &mut Criterion) {
    let mut fm = mlp_faulty_model();
    let mut rng = StdRng::seed_from_u64(1);
    c.bench_function("faulty_eval_mlp_200pts", |b| {
        b.iter(|| {
            let cfg = fm.sample_config(&mut rng);
            black_box(fm.eval_error(&cfg, &mut rng))
        });
    });
}

fn bench_faulty_eval_resnet(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let cfg = SynthCifarConfig {
        classes: 10,
        image_size: 32,
        noise: 1.0,
        phase_jitter: 1.0,
        label_noise: 0.0,
    };
    let data = Arc::new(synth_cifar(16, cfg, &mut rng));
    let net = resnet18(
        ResNetConfig {
            in_channels: 3,
            base_width: 4,
            classes: 10,
        },
        &mut rng,
    );
    let mut fm = FaultyModel::new(
        net,
        data,
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(1e-4)),
    );
    let mut group = c.benchmark_group("faulty_eval_resnet");
    group.sample_size(10).sampling_mode(SamplingMode::Flat);
    group.bench_function("w4_16imgs", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| {
            let cfg = fm.sample_config(&mut rng);
            black_box(fm.eval_error(&cfg, &mut rng))
        });
    });
    group.finish();
}

fn bench_small_campaign(c: &mut Criterion) {
    let fm = mlp_faulty_model();
    let cfg = CampaignConfig {
        chains: 2,
        chain: ChainConfig {
            burn_in: 0,
            samples: 25,
            thin: 1,
        },
        kernel: KernelChoice::Prior,
        seed: 9,
        ..CampaignConfig::default()
    };
    let mut group = c.benchmark_group("campaign");
    group.sample_size(10).sampling_mode(SamplingMode::Flat);
    group.bench_function("mlp_2x25_prior", |b| {
        b.iter(|| black_box(run_campaign(&fm, &cfg, &RunControl::new()).expect("campaign runs")));
    });
    group.finish();
}

/// Incremental suffix re-inference vs. a cold full forward pass for a
/// layerwise campaign on a deep MLP: faults confined to the final dense
/// layer resume from the last cached boundary, so the cost should scale
/// with the dirty suffix rather than the network depth.
fn bench_incremental_vs_cold(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let data = Arc::new(gaussian_blobs(256, 3, 1.0, &mut rng));
    let model = mlp(2, &[64, 64, 64, 64, 64, 64], 3, &mut rng);
    let last = format!("fc{}", 7); // hidden.len() + 1
    let mut fm = FaultyModel::new(
        model.clone(),
        Arc::clone(&data),
        &SiteSpec::LayerParams { prefix: last },
        Arc::new(BernoulliBitFlip::new(1e-3)),
    );

    let mut group = c.benchmark_group("layerwise_deep_mlp");
    group.bench_function("incremental", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| {
            let cfg = fm.sample_config(&mut rng);
            black_box(fm.eval_error(&cfg, &mut rng))
        });
    });
    group.bench_function("cold", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        let mut cold_model = model.clone();
        b.iter(|| {
            let cfg = fm.sample_config(&mut rng);
            let logits = cfg.with_applied(&mut cold_model, |m| predict_all(m, data.inputs(), 64));
            black_box(logits)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_faulty_eval_mlp,
    bench_faulty_eval_resnet,
    bench_small_campaign,
    bench_incremental_vs_cold
);
criterion_main!(benches);
