//! Regenerates paper Fig. 1 ③: the log(error)-probability map due to
//! faults over the MLP's 2-D input space, against the original
//! classification boundary.
//!
//! Paper finding reproduced: *the effect of faults is most significant at
//! the decision boundary* — the map's high-error ridge follows the golden
//! decision boundary, and error probability anti-correlates with the
//! golden softmax margin.
//!
//! Run with `cargo run --release -p bdlfi-bench --bin fig1_boundary`.

use bdlfi::{boundary_map, BoundaryConfig, EngineError, RunControl};
use bdlfi_bench::harness::{artifacts_dir, golden_mlp, pct, Scale};
use bdlfi_faults::{BernoulliBitFlip, SiteSpec};
use std::sync::Arc;

fn main() -> Result<(), EngineError> {
    let scale = Scale::from_env();
    let (model, _train, _test) = golden_mlp();
    let p = 2e-3;

    println!("# Fig. 1 (3): fault-induced error probability vs decision boundary");
    println!("# MLP 2-32-3, BernoulliBitFlip(p = {p}), all parameter sites");
    println!();

    let map = boundary_map(
        &model,
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(p)),
        &BoundaryConfig {
            x_range: (-6.0, 6.0),
            y_range: (-6.0, 6.0),
            resolution: scale.boundary_res,
            fault_samples: scale.boundary_samples,
            seed: 1,
            workers: 0,
        },
        &RunControl::new(),
    )?;

    println!("log10(error probability) map ('@' = most error-prone):");
    println!("{}", map.render_ascii());

    // The golden class regions, to see the boundary the errors trace.
    println!("golden class regions (digits = predicted class):");
    for iy in (0..map.resolution).rev() {
        let mut line = String::new();
        for ix in 0..map.resolution {
            let c = map.golden_pred[iy * map.resolution + ix];
            line.push(char::from_digit(c as u32 % 10, 10).unwrap());
        }
        println!("{line}");
    }
    println!();

    let (near, far) = map.near_far_split();
    println!("| statistic | value |");
    println!("|---|---|");
    println!("| grid | {0} x {0} |", map.resolution);
    println!("| fault samples | {} |", scale.boundary_samples);
    println!(
        "| mean err-prob near boundary (low-margin half) | {} % |",
        pct(near)
    );
    println!(
        "| mean err-prob far from boundary (high-margin half) | {} % |",
        pct(far)
    );
    println!("| near/far ratio | {:.2}x |", near / far.max(1e-12));
    println!(
        "| Spearman(margin, err-prob) | {:.3} (negative = errors concentrate at boundary) |",
        map.margin_correlation
    );

    let out = artifacts_dir().join("fig1_boundary.json");
    std::fs::write(&out, serde_json::to_string_pretty(&map).unwrap()).unwrap();
    eprintln!("[fig1] map saved to {}", out.display());
    Ok(())
}
