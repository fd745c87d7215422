//! BDLFI on a convolutional network: a (reduced-width) ResNet-18 trained
//! on the synth-CIFAR substitute, with a per-layer injection comparison —
//! a miniature of the paper's Fig. 3 experiment.
//!
//! Sized to finish in about a minute on one CPU core; the full-scale
//! experiment lives in `cargo run -p bdlfi-bench --bin fig3_resnet_layers`.
//!
//! ```text
//! cargo run --release --example resnet_campaign
//! ```

use bdlfi_suite::bayes::ChainConfig;
use bdlfi_suite::core::{
    run_layerwise, CampaignConfig, EngineError, KernelChoice, LayerBudget, RunControl,
};
use bdlfi_suite::data::{synth_cifar, SynthCifarConfig};
use bdlfi_suite::nn::{evaluate, optim::Sgd, resnet18, ResNetConfig, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() -> Result<(), EngineError> {
    let mut rng = StdRng::seed_from_u64(3);

    // A small synth-CIFAR task and a narrow ResNet-18 (full 18-layer
    // topology, base width 4 for speed).
    let cifar = SynthCifarConfig {
        classes: 10,
        image_size: 32,
        noise: 0.8,
        phase_jitter: 1.0,
        label_noise: 0.25,
    };
    let data = synth_cifar(480, cifar, &mut rng);
    let (train, eval) = data.split(0.85, &mut rng);

    let mut net = resnet18(
        ResNetConfig {
            in_channels: 3,
            base_width: 4,
            classes: 10,
        },
        &mut rng,
    );
    println!(
        "training ResNet-18 (w=4, {} parameters) ...",
        net.param_count()
    );
    let mut trainer = Trainer::new(
        Sgd::new(0.05).with_momentum(0.9),
        TrainConfig {
            epochs: 4,
            batch_size: 32,
            verbose: true,
            ..TrainConfig::default()
        },
    );
    trainer.fit(&mut net, train.inputs(), train.labels(), &mut rng);
    let acc = evaluate(&mut net, eval.inputs(), eval.labels(), 32);
    println!("golden eval error: {:.2} %\n", (1.0 - acc) * 100.0);

    // One small campaign per layer position (the paper's Fig. 3 x-axis).
    let layers = [
        "conv1", "layer1_0", "layer2_0", "layer3_0", "layer4_0", "fc",
    ];
    let cfg = CampaignConfig {
        chains: 2,
        chain: ChainConfig {
            burn_in: 0,
            samples: 15,
            thin: 1,
        },
        kernel: KernelChoice::Prior,
        ..CampaignConfig::default()
    };

    let res = run_layerwise(
        &net,
        &Arc::new(eval),
        &layers,
        LayerBudget::ExpectedFlips(6.0),
        &cfg,
        &RunControl::new(),
    )?;

    println!("| depth | layer | elements | mean error % |");
    println!("|---|---|---|---|");
    for l in &res.layers {
        println!(
            "| {} | {} | {} | {:.2} |",
            l.depth,
            l.layer,
            l.elements,
            l.report.mean_error * 100.0
        );
    }
    println!();
    println!("Spearman(depth, error) = {:.3}", res.depth_correlation);
    println!("paper finding: no systematic relationship between injection depth and output error");
    Ok(())
}
