//! The BDLFI benchmark: three closed-loop workloads run through the
//! public APIs of `bdlfi`, `bdlfi-quant` and `bdlfi-serve`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mlp-certify|resnet-layerwise|serve-int8> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is built in-process from `--seed`, so one seed is one
//! exact op list. Every op's output is checked outside its timed region;
//! a failed check counts against the ops attempted. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! * `--trace 0` reports the end-to-end metrics: `setup_s` (median of
//!   several fresh set-ups), `op_p50_s`, `configs_per_s` and
//!   `peak_rss_mb`. `op_p90_s` is printed on the summary line above the
//!   JSON when the run held at least 100 ops.
//! * `--trace 1` follows every untraced op with its traced repeat (a span
//!   around every timed layer call) and the repeat's replays, and reports
//!   the per-layer metrics plus `trace.overhead_pct`, the median latency
//!   of each repeat relative to the untraced run just before it. The
//!   spans and counts are written to `.perfbench/traces/`.
//!
//! Journals, daemon state and traces live under `.perfbench/` in the
//! working directory; the per-run directory is removed when the run ends.

mod common;
mod mlp_certify;
mod resnet_layerwise;
mod serve_int8;
mod stats;
mod stream;
mod trace;

use common::{peak_rss_mb, per_layer_metrics, Ctx, Metric, Outcome, ScratchRoot};
use serde::{Number, Value};
use stats::{median, quantile};
use std::path::Path;
use std::process::ExitCode;
use trace::Tracer;

/// The benchmark's workloads. Why each exists and which per-layer
/// metrics it should move is recorded on its module.
#[derive(Debug, Clone, Copy)]
enum Workload {
    /// [`mlp_certify`]: adaptive certification on the paper's MLP.
    MlpCertify,
    /// [`resnet_layerwise`]: one Fig. 3 layer-by-layer study per op.
    ResnetLayerwise,
    /// [`serve_int8`]: int8 adaptive jobs through the daemon.
    ServeInt8,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "mlp-certify" => Some(Workload::MlpCertify),
            "resnet-layerwise" => Some(Workload::ResnetLayerwise),
            "serve-int8" => Some(Workload::ServeInt8),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::MlpCertify => "mlp-certify",
            Workload::ResnetLayerwise => "resnet-layerwise",
            Workload::ServeInt8 => "serve-int8",
        }
    }

    /// The kernel selections of the workload's dominant GEMM shape.
    fn dominant_kernel(self) -> (&'static str, &'static str) {
        use bdlfi_tensor::kernels::{select_f32, select_i8};
        match self {
            // Hidden dense layer: 64-row eval batch × 2 inputs → 32 units.
            Workload::MlpCertify => (
                "f32 dense m64 n32 k2",
                select_f32(64, 32, 2).variant.as_str(),
            ),
            // layer1 conv im2col GEMM: 8 out channels × 32·32 plane × 8·3·3.
            Workload::ResnetLayerwise => (
                "f32 conv m8 n1024 k72",
                select_f32(8, 1024, 72).variant.as_str(),
            ),
            // Hidden int8 dense layer: 64-row batch × 2 inputs → 32 units.
            Workload::ServeInt8 => ("i8 dense m64 n32 k2", select_i8(64, 32, 2).variant.as_str()),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// `nproc`, the kernel variant of the workload's dominant shape, AVX2
/// availability and any `BDLFI_KERNEL` override.
fn host_block(w: Workload) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let (shape, variant) = w.dominant_kernel();
    let mut entries = vec![
        ("nproc".to_string(), Value::Number(Number::U(nproc as u64))),
        (
            "dominant_shape".to_string(),
            Value::String(shape.to_string()),
        ),
        ("kernel".to_string(), Value::String(variant.to_string())),
        (
            "avx2_available".to_string(),
            Value::Bool(bdlfi_tensor::kernels::avx2_available()),
        ),
    ];
    if let Ok(k) = std::env::var("BDLFI_KERNEL") {
        entries.push(("BDLFI_KERNEL".to_string(), Value::String(k)));
    }
    Value::Object(entries)
}

/// The end-to-end metrics of an untraced run, plus the summary line: the
/// op count and, when at least 100 ops ran (ten beyond it), `op_p90_s`.
fn end_to_end(out: &Outcome) -> Result<(Vec<Metric>, String), String> {
    let ops: Vec<f64> = out.op_s.iter().copied().filter(|t| t.is_finite()).collect();
    let setup_s = median(&out.setups).ok_or("no set-up was timed")?;
    let op_p50_s = median(&ops).ok_or("no op completed")?;
    if out.busy_s <= 0.0 {
        return Err("no op time was measured".to_string());
    }
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "op_p50_s",
            value: op_p50_s,
            unit: "s",
        },
        Metric {
            name: "configs_per_s",
            value: out.configs as f64 / out.busy_s,
            unit: "1/s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb()?,
            unit: "MiB",
        },
    ];
    let mut summary = format!("summary ops={} setups={}", ops.len(), out.setups.len());
    if ops.len() >= 100 {
        if let Some(p90) = quantile(&ops, 0.9) {
            summary.push_str(&format!(" op_p90_s={p90}"));
        }
    }
    Ok((metrics, summary))
}

fn metrics_json(metrics: &[Metric]) -> Result<Value, String> {
    let mut entries = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        entries.push((
            m.name.to_string(),
            Value::Object(vec![
                ("value".to_string(), Value::Number(Number::F(m.value))),
                ("unit".to_string(), Value::String(m.unit.to_string())),
            ]),
        ));
    }
    Ok(Value::Object(entries))
}

fn run(args: &Args) -> Result<(), String> {
    let base = Path::new(".perfbench");
    let root = ScratchRoot::create(&base.join("run"), args.workload.name())?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        scratch: root.0.clone(),
    };
    let host = host_block(args.workload);
    println!(
        "host {}",
        serde_json::to_string(&host).map_err(|e| e.to_string())?
    );

    let out = match args.workload {
        Workload::MlpCertify => mlp_certify::run(&ctx)?,
        Workload::ResnetLayerwise => resnet_layerwise::run(&ctx)?,
        Workload::ServeInt8 => serve_int8::run(&ctx)?,
    };
    for f in out.failures.iter().take(5) {
        eprintln!("check failed: {f}");
    }

    let metrics = if args.trace {
        let (metrics, missing) = per_layer_metrics(&ctx.tracer);
        let path =
            base.join("traces")
                .join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
        ctx.tracer.write_jsonl(&path)?;
        println!(
            "trace {} ; not exercised by this workload (reported as 0): [{}]",
            path.display(),
            missing.join(", ")
        );
        metrics
    } else {
        let (metrics, summary) = end_to_end(&out)?;
        println!("{summary}");
        metrics
    };
    drop(root);

    let result = Value::Object(vec![
        ("correct".to_string(), Value::Bool(out.failed == 0)),
        (
            "attempted".to_string(),
            Value::Number(Number::U(out.attempted as u64)),
        ),
        (
            "failed".to_string(),
            Value::Number(Number::U(out.failed as u64)),
        ),
        ("metrics".to_string(), metrics_json(&metrics)?),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <mlp-certify|resnet-layerwise|serve-int8> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
