//! Convolutional pipeline integration: a reduced ResNet-18 on synth-CIFAR
//! through training, serialisation, BDLFI campaigns and the layer-by-layer
//! study. Sized for the test profile (narrow width, small images where the
//! topology allows).

use bdlfi_suite::bayes::ChainConfig;
use bdlfi_suite::core::{
    run_campaign, run_layerwise, CampaignConfig, FaultyModel, KernelChoice, LayerBudget, RunControl,
};
use bdlfi_suite::data::{synth_cifar, Dataset, SynthCifarConfig};
use bdlfi_suite::faults::{BernoulliBitFlip, SiteSpec};
use bdlfi_suite::nn::{
    evaluate, optim::Sgd, resnet18, resnet18_layer_positions, serialize, ResNetConfig, Sequential,
    TrainConfig, Trainer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn tiny_resnet_and_data() -> (Sequential, Dataset, Dataset) {
    let mut rng = StdRng::seed_from_u64(300);
    let cfg = SynthCifarConfig {
        classes: 4,
        image_size: 16,
        noise: 0.3,
        phase_jitter: 0.5,
        label_noise: 0.0,
    };
    let data = synth_cifar(160, cfg, &mut rng);
    let (train, eval) = data.split(0.8, &mut rng);
    let net = resnet18(
        ResNetConfig {
            in_channels: 3,
            base_width: 2,
            classes: 4,
        },
        &mut rng,
    );
    (net, train, eval)
}

#[test]
fn training_reduces_loss_and_beats_chance() {
    let (mut net, train, eval) = tiny_resnet_and_data();
    let mut rng = StdRng::seed_from_u64(301);
    let mut trainer = Trainer::new(
        Sgd::new(0.05).with_momentum(0.9),
        TrainConfig {
            epochs: 3,
            batch_size: 16,
            ..TrainConfig::default()
        },
    );
    let history = trainer.fit(&mut net, train.inputs(), train.labels(), &mut rng);
    assert!(history.last().unwrap().train_loss < history[0].train_loss);
    let acc = evaluate(&mut net, eval.inputs(), eval.labels(), 16);
    assert!(acc > 0.3, "4-class accuracy {acc} not above chance");
}

#[test]
fn campaign_on_conv_net_is_coherent_and_restores_weights() {
    let (net, _train, eval) = tiny_resnet_and_data();
    let golden = serialize::export_weights(&net);
    let fm = FaultyModel::new(
        net.clone(),
        Arc::new(eval),
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(1e-4)),
    );
    let cfg = CampaignConfig {
        chains: 2,
        chain: ChainConfig {
            burn_in: 0,
            samples: 8,
            thin: 1,
        },
        kernel: KernelChoice::Prior,
        ..CampaignConfig::default()
    };
    let report = run_campaign(&fm, &cfg, &RunControl::new()).unwrap();

    assert_eq!(report.total_samples(), 16);
    assert!((0.0..=1.0).contains(&report.mean_error));
    // The campaign works on clones; the original network is untouched.
    assert_eq!(serialize::export_weights(&net).params, golden.params);
}

#[test]
fn batchnorm_running_stats_are_injectable_sites() {
    let (net, _train, eval) = tiny_resnet_and_data();
    let fm = FaultyModel::new(
        net,
        Arc::new(eval),
        &SiteSpec::Params(vec!["bn1.running_mean".into(), "bn1.running_var".into()]),
        Arc::new(BernoulliBitFlip::new(0.01)),
    );
    assert_eq!(fm.sites().params.len(), 2);
    assert_eq!(fm.sites().total_param_elements(), 4); // 2 channels x 2 stats
}

#[test]
fn layerwise_study_covers_the_resnet_positions() {
    let (mut net, train, eval) = tiny_resnet_and_data();
    let mut rng = StdRng::seed_from_u64(302);
    let mut trainer = Trainer::new(
        Sgd::new(0.05).with_momentum(0.9),
        TrainConfig {
            epochs: 2,
            batch_size: 16,
            ..TrainConfig::default()
        },
    );
    trainer.fit(&mut net, train.inputs(), train.labels(), &mut rng);

    // Subset of positions keeps the test quick; ordering must be preserved.
    let layers = ["conv1", "layer2_0", "layer4_1", "fc"];
    let cfg = CampaignConfig {
        chains: 2,
        chain: ChainConfig {
            burn_in: 0,
            samples: 6,
            thin: 1,
        },
        ..CampaignConfig::default()
    };
    let res = run_layerwise(
        &net,
        &Arc::new(eval),
        &layers,
        LayerBudget::ExpectedFlips(4.0),
        &cfg,
        &RunControl::new(),
    )
    .unwrap();

    assert_eq!(res.layers.len(), 4);
    for (i, l) in res.layers.iter().enumerate() {
        assert_eq!(l.depth, i);
        assert!(l.elements > 0);
        assert!((0.0..=1.0).contains(&l.report.mean_error));
    }
    // The canonical position list contains everything we used.
    let all = resnet18_layer_positions();
    for l in &layers {
        assert!(all.contains(l));
    }
}

#[test]
fn weights_roundtrip_through_disk_and_campaign() {
    let (net, _train, eval) = tiny_resnet_and_data();
    // Unique per process: concurrent test invocations must not collide.
    let dir = std::env::temp_dir().join(format!("bdlfi_resnet_roundtrip_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("w.json");
    serialize::save_weights(&net, &path).unwrap();

    let mut rng = StdRng::seed_from_u64(303);
    let mut fresh = resnet18(
        ResNetConfig {
            in_channels: 3,
            base_width: 2,
            classes: 4,
        },
        &mut rng,
    );
    serialize::load_weights(&mut fresh, &path).unwrap();

    let eval = Arc::new(eval);
    let a = FaultyModel::new(
        net,
        Arc::clone(&eval),
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(1e-4)),
    );
    let b = FaultyModel::new(
        fresh,
        eval,
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(1e-4)),
    );
    assert_eq!(a.golden_error(), b.golden_error());
    assert_eq!(a.golden_preds(), b.golden_preds());
    std::fs::remove_file(&path).ok();
}
