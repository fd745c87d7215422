//! Decision-boundary analysis (paper Fig. 1 ③): where in the input space
//! do hardware faults actually flip predictions?
//!
//! Trains the MLP on the spiral task — whose decision boundary is long and
//! curved — and renders the fault-induced error-probability map as ASCII
//! art next to the golden class regions. The high-error ridge traces the
//! boundary.
//!
//! ```text
//! cargo run --release --example decision_boundary
//! ```

use bdlfi_suite::core::{boundary_map, BoundaryConfig, EngineError, RunControl};
use bdlfi_suite::data::spirals;
use bdlfi_suite::faults::{BernoulliBitFlip, SiteSpec};
use bdlfi_suite::nn::{evaluate, mlp, optim::Adam, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() -> Result<(), EngineError> {
    let mut rng = StdRng::seed_from_u64(1);

    // Two interleaved spirals: a hard boundary for a small MLP.
    let data = spirals(1200, 2, 0.12, &mut rng);
    let (train, test) = data.split(0.8, &mut rng);
    let mut model = mlp(2, &[48, 32], 2, &mut rng);
    let mut trainer = Trainer::new(
        Adam::new(0.01),
        TrainConfig {
            epochs: 60,
            batch_size: 32,
            ..TrainConfig::default()
        },
    );
    trainer.fit(&mut model, train.inputs(), train.labels(), &mut rng);
    let acc = evaluate(&mut model, test.inputs(), test.labels(), 64);
    println!("golden spiral test error: {:.2} %", (1.0 - acc) * 100.0);

    let map = boundary_map(
        &model,
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(2e-3)),
        &BoundaryConfig {
            x_range: (-3.5, 3.5),
            y_range: (-3.5, 3.5),
            resolution: 48,
            fault_samples: 150,
            seed: 2,
            workers: 0,
        },
        &RunControl::new(),
    )?;

    println!("\nfault-induced log(error probability) ('@' = most fragile):");
    println!("{}", map.render_ascii());

    println!("golden class regions:");
    for iy in (0..map.resolution).rev() {
        let line: String = (0..map.resolution)
            .map(|ix| {
                if map.golden_pred[iy * map.resolution + ix] == 0 {
                    '.'
                } else {
                    'o'
                }
            })
            .collect();
        println!("{line}");
    }

    let (near, far) = map.near_far_split();
    println!();
    println!(
        "mean error probability near the boundary : {:.2} %",
        near * 100.0
    );
    println!(
        "mean error probability far from boundary : {:.2} %",
        far * 100.0
    );
    println!(
        "Spearman(margin, error probability)      : {:.3}",
        map.margin_correlation
    );
    println!();
    println!(
        "paper finding: points near the decision boundary are most affected by faults \
         -> those regions need the most protection in safety-critical deployments"
    );
    Ok(())
}
