//! What the three workloads share: run context and outcome, the scratch
//! directory, seed lanes, bitwise comparisons, the per-layer replays and
//! the per-layer metric table.

use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use bdlfi::{
    assess_slices, forward_delta_f32, CampaignReport, CheckpointHeader, CheckpointWriter,
    CompletenessCriteria, FaultyModel, QuantFaultyModel, DENSIFY_THRESHOLD,
};
use bdlfi_bayes::seed_stream;
use bdlfi_data::Dataset;
use bdlfi_faults::{BernoulliBitFlip, FaultConfig, SiteSpec};
use bdlfi_nn::{PrefixCache, Sequential};
use bdlfi_quant::{quantize_model, CalibConfig, QPrefixCache, QuantModel};
use bdlfi_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Seed lanes. Each workload's scenario (dataset, network and its
/// training) is fixed by a constant, as the paper's golden models are;
/// `--seed` picks the op list: every op's campaign seed and the
/// configurations drawn for its checks and replays are
/// `seed_stream(seed_stream(seed, lane), k)`. One seed therefore names
/// one exact op list, and runs on different seeds measure the same
/// scenario.
pub mod lane {
    /// Dataset generation (under the scenario constant).
    pub const DATA: u64 = 1;
    /// Model initialisation and training shuffles (under the scenario
    /// constant).
    pub const MODEL: u64 = 2;
    /// Base of the per-op campaign seeds.
    pub const OPS: u64 = 3;
    /// Base of the per-op check and replay configurations.
    pub const PROBE: u64 = 4;
}

/// The seed of op `k` of a run seeded with `seed`.
pub fn op_seed(seed: u64, k: usize) -> u64 {
    seed_stream(seed_stream(seed, lane::OPS), k as u64)
}

/// The seed of the check/replay configurations of op `k`.
pub fn probe_seed(seed: u64, k: usize) -> u64 {
    seed_stream(seed_stream(seed, lane::PROBE), k as u64)
}

/// Everything a workload run needs from the command line.
pub struct Ctx {
    /// The workload seed.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// The span recorder (disabled unless `--trace 1`).
    pub tracer: Tracer,
    /// Fresh per-run directory for journals and daemon state.
    pub scratch: PathBuf,
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Ops started.
    pub attempted: usize,
    /// Ops whose output check failed (or that errored).
    pub failed: usize,
    /// One message per failed op (the first few are printed).
    pub failures: Vec<String>,
    /// Duration of every fresh set-up, seconds.
    pub setups: Vec<f64>,
    /// Latency of every untraced op, seconds.
    pub op_s: Vec<f64>,
    /// Fault configurations evaluated by the untraced ops.
    pub configs: u64,
    /// The time `configs` were evaluated in, seconds.
    pub busy_s: f64,
}

impl Outcome {
    /// Records one op's check result.
    pub fn record(&mut self, op: usize, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            self.failures.push(format!("op {op}: {e}"));
        }
    }
}

/// Collects every result a traced op's driver delivers, with its arrival
/// time. Attached (via `RunControl::observing`) only when tracing.
#[derive(Default)]
pub struct Deliveries {
    /// `(arrival, journaled value)` in delivery order.
    pub seen: Mutex<Vec<(Instant, Value)>>,
}

impl bdlfi::RunObserver for Deliveries {
    fn on_result(&self, _task_id: usize, _tasks: usize, value: &Value) {
        let at = Instant::now();
        self.seen
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((at, value.clone()));
    }
}

impl Deliveries {
    /// Takes the deliveries so far and records the gap before each as an
    /// `engine.task` span under the op's span `parent` (the first gap runs
    /// from `start`). Returns the delivered values.
    pub fn drain_into(
        &self,
        tr: &Tracer,
        op: usize,
        parent: Option<SpanId>,
        start: Instant,
    ) -> Vec<Value> {
        let seen = std::mem::take(&mut *self.seen.lock().unwrap_or_else(PoisonError::into_inner));
        let mut prev = start;
        seen.into_iter()
            .map(|(at, v)| {
                tr.interval("engine.task", op, parent, prev, at);
                prev = at;
                v
            })
            .collect()
    }
}

/// Deletes its directory when dropped.
pub struct ScratchRoot(pub PathBuf);

impl ScratchRoot {
    /// A fresh scratch root under `base`, unique to this process.
    pub fn create(base: &Path, workload: &str) -> Result<ScratchRoot, String> {
        let dir = base.join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(ScratchRoot(dir))
    }
}

impl Drop for ScratchRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent only ever holds per-run roots; drop it once empty.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// `VmHWM` (peak resident set) of this process in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("cannot parse {line:?}"))?;
    Ok(kb / 1024.0)
}

/// Whether two tensors hold the same shape and the same bits.
pub fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The deadline `seconds` after `start`.
pub fn deadline(start: Instant, seconds: f64) -> Instant {
    start + Duration::from_secs_f64(seconds.max(0.0))
}

/// Runs ops `0, 1, …` back to back until `budget` seconds of loop time
/// have passed (at least one op). With tracing, an op is its untraced
/// run, its traced repeat and the repeat's replays. Whenever the loop
/// crosses the next of `setups` evenly spaced marks it times one more
/// fresh set-up, so the set-up samples span the run the way op samples
/// do; set-up time does not count against the budget. The caller has timed set-up 0 already
/// (`setups_done == 1`). Returns the new set-up times.
pub fn closed_loop(
    budget: f64,
    setups: usize,
    setups_done: usize,
    mut setup: impl FnMut() -> Result<f64, String>,
    mut op: impl FnMut(usize) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let spacing = budget / setups.max(1) as f64;
    let mut timed = Vec::new();
    let mut setup_time = 0.0f64;
    let mut k = 0usize;
    loop {
        let loop_time = secs(start) - setup_time;
        if k > 0 && loop_time >= budget {
            break;
        }
        if setups_done + timed.len() < setups
            && loop_time >= (setups_done + timed.len()) as f64 * spacing
        {
            let t = Instant::now();
            timed.push(setup()?);
            setup_time += secs(t);
            continue;
        }
        op(k)?;
        k += 1;
    }
    while setups_done + timed.len() < setups {
        timed.push(setup()?);
    }
    Ok(timed)
}

/// The timed repeat of a workload's set-up for [`closed_loop`]: runs
/// `setup`, and fails if it trained a different model than the first
/// set-up did (`golden`'s golden error, bit for bit).
pub fn repeat_setup(
    golden: &FaultyModel,
    mut setup: impl FnMut() -> FaultyModel,
) -> impl FnMut() -> Result<f64, String> {
    let golden = golden.golden_error().to_bits();
    move || {
        let t = Instant::now();
        let fm = setup();
        let dt = secs(t);
        if fm.golden_error().to_bits() == golden {
            Ok(dt)
        } else {
            Err("two set-ups of the scenario trained different models".to_string())
        }
    }
}

/// f32 replays of one op's layer calls on its own model and eval set:
/// `PrefixCache::build` once, then per config drawn from `seed`:
/// `FaultyModel::sample_config`, `FaultyModel::eval_error`,
/// `forward_delta_f32` and `PrefixCache::predict_from` from the first
/// dirty layer. The delta logits are checked against `predict_from`
/// bit for bit. Returns the replay model's delta (hits, fallbacks).
#[allow(clippy::too_many_arguments)]
pub fn replay_f32(
    tr: &Tracer,
    op: usize,
    fm: &FaultyModel,
    model: &Sequential,
    eval: &Dataset,
    seed: u64,
    configs: usize,
) -> Result<(u64, u64), String> {
    let mut m = model.clone();
    let prefix = tr.span("nn.prefix_build", op, None, |_| {
        PrefixCache::build(&mut m, eval.inputs(), 64)
    });
    let mut fm = fm.clone();
    let (h0, f0) = fm.delta_counters();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..configs {
        let cfg = tr.span("faults.sample_config", op, None, |_| {
            fm.sample_config(&mut rng)
        });
        let mut eval_rng = StdRng::seed_from_u64(seed);
        black_box(tr.span("core.eval_error", op, None, |_| {
            fm.eval_error(&cfg, &mut eval_rng)
        }));
        cfg.apply(&mut m);
        let delta = tr.span("delta.forward_delta_f32", op, None, |_| {
            forward_delta_f32(&mut m, &prefix, &cfg, DENSIFY_THRESHOLD)
        });
        let start = cfg.first_dirty_layer(&m).unwrap_or(m.len());
        let full = tr.span("nn.predict_from", op, None, |_| {
            prefix.predict_from(&mut m, start)
        });
        cfg.apply(&mut m);
        if let Some(d) = delta {
            if !bits_equal(&d, &full) {
                return Err("forward_delta_f32 differs from predict_from".to_string());
            }
        }
    }
    let (h1, f1) = fm.delta_counters();
    Ok((h1 - h0, f1 - f0))
}

/// int8 replays on one op's trained model: `quantize_model` (calibrated
/// on `calib`), then `QuantFaultyModel::eval_logits` per config drawn
/// from `seed` over `sites` at flip probability `p`, and
/// `QuantModel::forward_one` on every dense stage (for int8 GEMM
/// throughput). Returns the replay model's delta (hits, fallbacks).
#[allow(clippy::too_many_arguments)]
pub fn replay_quant(
    tr: &Tracer,
    op: usize,
    model: &Sequential,
    calib: &Tensor,
    eval: &Arc<Dataset>,
    sites: &SiteSpec,
    p: f64,
    seed: u64,
    configs: usize,
) -> Result<(u64, u64), String> {
    let qm = tr.span("quant.quantize_model", op, None, |_| {
        quantize_model(model, calib, &CalibConfig::default())
    });
    replay_int8_ops(tr, op, &qm, eval)?;
    let mut qfm = QuantFaultyModel::new(
        qm,
        Arc::clone(eval),
        sites,
        Arc::new(BernoulliBitFlip::new(p)),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..configs {
        let cfg = bdlfi::FaultWorkload::sample_config(&qfm, &mut rng);
        black_box(tr.span("quant.eval_logits", op, None, |_| qfm.eval_logits(&cfg)));
    }
    Ok(qfm.delta_counters())
}

/// Times `QuantModel::forward_one` on every dense stage over the golden
/// stage inputs and records the computed int8 ops (2·rows·in·out).
fn replay_int8_ops(tr: &Tracer, op: usize, qm: &QuantModel, eval: &Dataset) -> Result<(), String> {
    let mut qm = qm.clone();
    let cache = QPrefixCache::build(&mut qm, eval.inputs(), 64);
    for i in 0..qm.len() {
        let Some(out_dim) = qm.op_at(i).1.as_dense().map(bdlfi_quant::QDense::out_dim) else {
            continue;
        };
        for b in 0..cache.num_batches() {
            let input = cache.boundary(b, i);
            let rows = input.dim(0);
            let in_dim = input.len() / rows.max(1);
            black_box(tr.span("tensor.i8_forward", op, None, |_| qm.forward_one(i, input)));
            tr.count("tensor.i8_ops", op, (2 * rows * in_dim * out_dim) as f64);
        }
    }
    Ok(())
}

/// Replays journal entries (`values`, in task order) through
/// `CheckpointWriter::append` + `CheckpointWriter::sync` into a fresh
/// journal at `path`; records the journal's size.
pub fn replay_journal(
    tr: &Tracer,
    op: usize,
    path: &Path,
    values: &[Value],
    seed: u64,
) -> Result<(), String> {
    let header = CheckpointHeader {
        fingerprint: "perfbench-replay".to_string(),
        seed,
        tasks: 0,
        shard: None,
    };
    let mut w = CheckpointWriter::create(path, &header, usize::MAX).map_err(|e| e.to_string())?;
    for (i, v) in values.iter().enumerate() {
        tr.span("checkpoint.append", op, None, |_| w.append(i, v))
            .map_err(|e| e.to_string())?;
        tr.span("checkpoint.sync", op, None, |_| w.sync())
            .map_err(|e| e.to_string())?;
    }
    drop(w);
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    tr.count("checkpoint.journal_bytes", op, bytes as f64);
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// Times `assess_slices` on every segment prefix of an adaptive op's
/// chains (`chains[c]` is chain `c`'s full trace; segments of `segment`
/// samples).
pub fn replay_assess(
    tr: &Tracer,
    op: usize,
    chains: &[Vec<f64>],
    segment: usize,
    criteria: &CompletenessCriteria,
) {
    let len = chains.iter().map(Vec::len).min().unwrap_or(0);
    let mut end = segment.min(len);
    while end > 0 {
        let slices: Vec<&[f64]> = chains.iter().map(|c| &c[..end]).collect();
        black_box(tr.span("bayes.assess_slices", op, None, |_| {
            assess_slices(&slices, criteria)
        }));
        if end == len {
            break;
        }
        end = (end + segment).min(len);
    }
}

/// `nn.fwd_ms.<layer>` for the 13 top-level layers of the benchmark's
/// ResNet-18, in order; each is both the span and the metric name.
pub const RESNET_FWD_SPANS: [&str; 13] = [
    "nn.fwd_ms.conv1",
    "nn.fwd_ms.bn1",
    "nn.fwd_ms.relu",
    "nn.fwd_ms.layer1_0",
    "nn.fwd_ms.layer1_1",
    "nn.fwd_ms.layer2_0",
    "nn.fwd_ms.layer2_1",
    "nn.fwd_ms.layer3_0",
    "nn.fwd_ms.layer3_1",
    "nn.fwd_ms.layer4_0",
    "nn.fwd_ms.layer4_1",
    "nn.fwd_ms.avgpool",
    "nn.fwd_ms.fc",
];

/// How a per-layer metric is computed from the trace record.
#[derive(Clone, Copy)]
enum Source {
    /// Median self time of the span, times the factor.
    Span(&'static str, f64),
    /// Mean of the count.
    Mean(&'static str),
    /// Median of the count.
    Median(&'static str),
    /// Sum of the count.
    Sum(&'static str),
    /// Σ count ÷ Σ span self time ÷ 1e9.
    Rate(&'static str, &'static str),
    /// Σ first count ÷ (Σ first + Σ second count).
    Share(&'static str, &'static str),
}

use Source as S;

/// The per-layer metrics before the `nn.fwd_ms.<layer>` block: name,
/// unit, source.
const LAYERS_HEAD: [(&str, &str, Source); 11] = [
    ("engine.task_p50_ms", "ms", S::Span("engine.task", 1e3)),
    (
        "faults.sample_us",
        "us",
        S::Span("faults.sample_config", 1e6),
    ),
    ("faults.flips_per_config", "count", S::Mean("faults.flips")),
    ("bayes.assess_ms", "ms", S::Span("bayes.assess_slices", 1e3)),
    (
        "campaign.samples_to_certify",
        "count",
        S::Median("campaign.samples"),
    ),
    (
        "delta.hit_ratio",
        "ratio",
        S::Share("delta.hits", "delta.fallbacks"),
    ),
    ("core.eval_us", "us", S::Span("core.eval_error", 1e6)),
    (
        "delta.forward_us",
        "us",
        S::Span("delta.forward_delta_f32", 1e6),
    ),
    ("nn.predict_from_ms", "ms", S::Span("nn.predict_from", 1e3)),
    ("nn.prefix_build_ms", "ms", S::Span("nn.prefix_build", 1e3)),
    ("nn.train_s", "s", S::Span("nn.train", 1.0)),
];

/// The per-layer metrics after the `nn.fwd_ms.<layer>` block.
const LAYERS_TAIL: [(&str, &str, Source); 15] = [
    (
        "tensor.conv_gflops",
        "GFLOP/s",
        S::Rate("tensor.conv_flops", "tensor.conv_forward"),
    ),
    (
        "tensor.i8_gops",
        "GOP/s",
        S::Rate("tensor.i8_ops", "tensor.i8_forward"),
    ),
    ("quant.eval_us", "us", S::Span("quant.eval_logits", 1e6)),
    (
        "quant.delta_hit_ratio",
        "ratio",
        S::Share("quant.delta_hits", "quant.delta_fallbacks"),
    ),
    (
        "quant.quantize_ms",
        "ms",
        S::Span("quant.quantize_model", 1e3),
    ),
    (
        "checkpoint.journal_bytes",
        "bytes",
        S::Median("checkpoint.journal_bytes"),
    ),
    (
        "checkpoint.append_ms",
        "ms",
        S::Span("checkpoint.append", 1e3),
    ),
    ("checkpoint.sync_ms", "ms", S::Span("checkpoint.sync", 1e3)),
    ("server.submit_ms", "ms", S::Span("server.submit", 1e3)),
    (
        "server.build_workload_ms",
        "ms",
        S::Span("server.build_workload", 1e3),
    ),
    (
        "server.queue_wait_ms",
        "ms",
        S::Span("server.queue_wait", 1e3),
    ),
    (
        "server.first_result_ms",
        "ms",
        S::Span("server.first_result", 1e3),
    ),
    ("server.run_s", "s", S::Span("server.run", 1.0)),
    ("server.http_errors", "count", S::Sum("server.http_errors")),
    ("trace.overhead_pct", "%", S::Median("trace.overhead_pct")),
];

/// One reported metric.
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Its value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Every per-layer metric of the traced run, plus the names of the
/// layers this workload does not exercise (reported as 0).
pub fn per_layer_metrics(tr: &Tracer) -> (Vec<Metric>, Vec<&'static str>) {
    let fwd = RESNET_FWD_SPANS.map(|span| (span, "ms", S::Span(span, 1e3)));
    let table = LAYERS_HEAD.iter().chain(&fwd).chain(&LAYERS_TAIL);
    let mut metrics = Vec::new();
    let mut missing = Vec::new();
    for &(name, unit, source) in table {
        let value = match source {
            S::Span(span, scale) => median(&tr.self_times(span)).map(|v| v * scale),
            S::Mean(c) => crate::stats::mean(&tr.counts(c)),
            S::Median(c) => median(&tr.counts(c)),
            S::Sum(c) => {
                let xs = tr.counts(c);
                (!xs.is_empty()).then(|| xs.iter().fold(0.0, |a, x| a + x))
            }
            S::Rate(c, span) => {
                let work: f64 = tr.counts(c).iter().sum();
                let time: f64 = tr.self_times(span).iter().sum();
                (time > 0.0).then(|| work / time / 1e9)
            }
            S::Share(a, b) => {
                let a: f64 = tr.counts(a).iter().sum();
                let b: f64 = tr.counts(b).iter().sum();
                (a + b > 0.0).then(|| a / (a + b))
            }
        };
        match value {
            Some(v) if v.is_finite() => metrics.push(Metric {
                name,
                value: v,
                unit,
            }),
            _ => {
                missing.push(name);
                metrics.push(Metric {
                    name,
                    value: 0.0,
                    unit,
                });
            }
        }
    }
    (metrics, missing)
}

/// Records the tracing overhead of one op in percent: its traced
/// repeat's latency relative to its untraced run just before. The pair
/// runs back to back on the same inputs, so drift in host speed cancels.
pub fn count_overhead(tr: &Tracer, op: usize, untraced_s: f64, traced_s: f64) {
    if untraced_s > 0.0 && traced_s.is_finite() {
        tr.count(
            "trace.overhead_pct",
            op,
            (traced_s / untraced_s - 1.0) * 100.0,
        );
    }
}

/// Records one delta-path tally `(hits, fallbacks)` of the f32 path or,
/// with `quant`, of the int8 path.
pub fn count_delta(tr: &Tracer, op: usize, quant: bool, (hits, fallbacks): (u64, u64)) {
    let (h, f) = if quant {
        ("quant.delta_hits", "quant.delta_fallbacks")
    } else {
        ("delta.hits", "delta.fallbacks")
    };
    tr.count(h, op, hits as f64);
    tr.count(f, op, fallbacks as f64);
}

/// Every chain's recorded samples of a campaign report.
pub fn chains_of(report: &CampaignReport) -> Vec<Vec<f64>> {
    report.traces.iter().map(|t| t.samples().to_vec()).collect()
}

/// Parses the `samples` arrays of an adaptive campaign's per-segment
/// journal value (one chain snapshot per element).
pub fn snapshot_chains(value: &Value) -> Option<Vec<Vec<f64>>> {
    value
        .as_array()?
        .iter()
        .map(|chain| {
            chain
                .get("samples")?
                .as_array()?
                .iter()
                .map(Value::as_f64)
                .collect()
        })
        .collect()
}

/// Checks a `FaultConfig` draw and the cold dense re-inference agree with
/// `FaultyModel::eval_logits` bit for bit: `FaultConfig::with_applied` +
/// `predict_all` on a copy of the golden model.
pub fn cold_matches(
    fm: &mut FaultyModel,
    golden: &Sequential,
    eval: &Dataset,
    cfg: &FaultConfig,
    seed: u64,
) -> bool {
    let mut rng = StdRng::seed_from_u64(seed);
    let fast = fm.eval_logits(cfg, &mut rng);
    let mut cold_model = golden.clone();
    let cold = cfg.with_applied(&mut cold_model, |m| {
        bdlfi_nn::predict_all(m, eval.inputs(), 64)
    });
    bits_equal(&fast, &cold)
}
