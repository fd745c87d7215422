//! Sparse-delta forward evaluation: rank-k fault corrections instead of
//! dense suffix re-inference.
//!
//! The incremental path (PR 1) already skips every layer *before* a fault;
//! this module also skips most of the work *after* it. A fault confined to
//! a dense layer's weight column `j` (or bias element `j`) perturbs only
//! output column `j` of that layer, so the faulty layer output is the
//! cached golden output with the touched columns recomputed — a few dot
//! products via [`Dense::forward_cols`] instead of a full GEMM. The
//! correction is then propagated through the suffix layer by layer,
//! tracking which *examples* still deviate from the golden boundary:
//! a row whose recomputed activation bit-matches the cached golden
//! activation (the ReLU gated the delta off, or the faulted input feature
//! was zero) is dropped from the dirty set, and subsequent layers run only
//! on the surviving sub-batch.
//!
//! # Why this is exact
//!
//! No floating-point corrections are ever *added*: every value the
//! evaluator emits is either the cached golden value or a recomputation
//! through the very kernels the dense path uses. Two structural facts make
//! the recomputations bit-identical to a full pass:
//!
//! * **Column independence** — the blocked GEMM reduces each output
//!   element over `k` in a fixed order that depends neither on which rows
//!   nor on which columns share the call, so a column-subset product
//!   equals the corresponding columns of the full product bit for bit
//!   (integer accumulation in the int8 path is exact outright).
//! * **Row independence** — every layer computes each example
//!   independently of the rest of its batch (the [`bdlfi_nn::PrefixCache`]
//!   guarantee), so forwarding only the dirty rows reproduces exactly what
//!   those rows would be in the full batch.
//!
//! # Densification and fallback
//!
//! When the dirty-row fraction exceeds [`DENSIFY_THRESHOLD`], support
//! tracking stops paying for its comparisons: the evaluator finishes with
//! one dense `forward_from` on the full faulty boundary — still exact,
//! just no longer sparse. At a dirty dense layer no deviating row reaches,
//! that boundary is built in one pass: the touched columns are recomputed
//! straight into a copy of the golden output while the changed rows are
//! counted, so a densifying batch gathers and scatters nothing. Elsewhere
//! the dirty rows are scattered into a copy of the golden boundary.
//!
//! Whenever a configuration falls outside the provably-confined cases —
//! transient activation/input sites, faults in conv/block/batch-norm
//! layers (channel fan-out), quantized `out_zp` faults (the output
//! zero-point reaches every column through the shared requantizer),
//! unknown mask paths — the planner refuses (`None`) and the caller falls
//! back to the exact incremental path. Per-channel `w_scale` faults on
//! dense stages *are* confined: scale element `e` feeds only column `e`'s
//! requantizer. [`DeltaStats`] counts both outcomes so reports show how
//! often the fast path fired.

use bdlfi_faults::FaultConfig;
use bdlfi_nn::layers::Dense;
use bdlfi_nn::{ForwardCtx, Mode, PrefixCache, Sequential};
use bdlfi_quant::{QPrefixCache, QuantModel};
use bdlfi_tensor::Tensor;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Dirty-row fraction above which the evaluator densifies: finishes with
/// one dense suffix pass on the full faulty boundary. Benched on a
/// deep-MLP layerwise scenario — above ~3/4 dirty rows the per-layer
/// comparisons cost more than the GEMM work they save.
pub const DENSIFY_THRESHOLD: f64 = 0.75;

/// Shared hit/fallback counters for the sparse-delta path.
///
/// One instance lives behind an `Arc` in each workload; chain clones share
/// it, so a campaign's counters aggregate across workers. Drivers snapshot
/// the counters around an engine run and stamp the difference into
/// [`crate::engine::RunMeta`].
#[derive(Debug, Default)]
pub struct DeltaStats {
    hits: AtomicU64,
    fallbacks: AtomicU64,
}

impl DeltaStats {
    /// Records one evaluation served by the sparse-delta path.
    pub fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one evaluation routed to the exact fallback.
    pub fn record_fallback(&self) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Current `(hits, fallbacks)` totals.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.fallbacks.load(Ordering::Relaxed),
        )
    }
}

/// The per-layer operations the generic delta loop needs from a model.
/// Implemented for the f32 [`Sequential`] and the int8 [`QuantModel`], so
/// both paths share one propagation loop (and cannot drift apart).
trait DeltaModel {
    fn depth(&self) -> usize;
    /// Column-subset recompute of the (planned dense) layer `l`, written
    /// into those columns of the full-width output `out`.
    fn forward_cols(&self, l: usize, input: &Tensor, cols: &[usize], out: &mut [f32]);
    /// One full-width layer step on a sub-batch.
    fn forward_one(&mut self, l: usize, input: &Tensor) -> Tensor;
    /// Dense suffix pass from layer `start` (the densification exit).
    fn forward_from(&mut self, start: usize, input: &Tensor) -> Tensor;
}

/// Read access to the cached golden boundaries, per batch and layer.
trait DeltaCache {
    fn num_batches(&self) -> usize;
    fn examples(&self) -> usize;
    fn classes(&self) -> usize;
    fn boundary(&self, b: usize, l: usize) -> &Tensor;
}

struct F32Substrate<'m>(&'m mut Sequential);

impl DeltaModel for F32Substrate<'_> {
    fn depth(&self) -> usize {
        self.0.len()
    }

    fn forward_cols(&self, l: usize, input: &Tensor, cols: &[usize], out: &mut [f32]) {
        let (_, layer) = self.0.layer_at(l);
        layer
            .as_any()
            .and_then(|a| a.downcast_ref::<Dense>())
            // bdlfi-lint: allow(BD010) -- planner invariant: only dense layers are ever marked column-dirty
            .expect("planner only marks dense layers dirty")
            .forward_cols(input, cols, out);
    }

    fn forward_one(&mut self, l: usize, input: &Tensor) -> Tensor {
        self.0
            .forward_one(l, input, &mut ForwardCtx::new(Mode::Eval))
    }

    fn forward_from(&mut self, start: usize, input: &Tensor) -> Tensor {
        self.0
            .forward_from(start, input, &mut ForwardCtx::new(Mode::Eval))
    }
}

struct QuantSubstrate<'m>(&'m mut QuantModel);

impl DeltaModel for QuantSubstrate<'_> {
    fn depth(&self) -> usize {
        self.0.len()
    }

    fn forward_cols(&self, l: usize, input: &Tensor, cols: &[usize], out: &mut [f32]) {
        let (_, op) = self.0.op_at(l);
        op.as_dense()
            // bdlfi-lint: allow(BD010) -- planner invariant: only qdense stages are ever marked column-dirty
            .expect("planner only marks qdense stages dirty")
            .forward_cols(input, cols, out);
    }

    fn forward_one(&mut self, l: usize, input: &Tensor) -> Tensor {
        self.0.forward_one(l, input)
    }

    fn forward_from(&mut self, start: usize, input: &Tensor) -> Tensor {
        self.0.forward_from(start, input)
    }
}

impl DeltaCache for PrefixCache {
    fn num_batches(&self) -> usize {
        PrefixCache::num_batches(self)
    }

    fn examples(&self) -> usize {
        PrefixCache::examples(self)
    }

    fn classes(&self) -> usize {
        PrefixCache::classes(self)
    }

    fn boundary(&self, b: usize, l: usize) -> &Tensor {
        PrefixCache::boundary(self, b, l)
    }
}

impl DeltaCache for QPrefixCache {
    fn num_batches(&self) -> usize {
        QPrefixCache::num_batches(self)
    }

    fn examples(&self) -> usize {
        QPrefixCache::examples(self)
    }

    fn classes(&self) -> usize {
        QPrefixCache::classes(self)
    }

    fn boundary(&self, b: usize, l: usize) -> &Tensor {
        QPrefixCache::boundary(self, b, l)
    }
}

/// Evaluates a fault configuration on the f32 model through the
/// sparse-delta path, or returns `None` when the configuration is not
/// provably column-confined — the caller must then fall back to the exact
/// incremental path ([`PrefixCache::predict_from`]).
///
/// The model must already have `cfg` applied (faults XORed in), exactly as
/// on the incremental path. A `Some` result is bit-identical to the dense
/// re-inference of the faulted model.
pub fn forward_delta_f32(
    model: &mut Sequential,
    cache: &PrefixCache,
    cfg: &FaultConfig,
    densify_threshold: f64,
) -> Option<Tensor> {
    let dirty = plan_f32(model, cfg)?;
    Some(run_delta(
        &mut F32Substrate(model),
        cache,
        &dirty,
        densify_threshold,
    ))
}

/// The int8 twin of [`forward_delta_f32`]: evaluates a fault configuration
/// on the quantized model through the sparse-delta path, or returns `None`
/// when it is not provably column-confined (conv/block stages, `out_zp`
/// faults, unknown paths) — the caller must then fall back to the exact
/// incremental path ([`QPrefixCache::predict_from`]). Dense weight bytes,
/// bias words and per-channel `w_scale` elements all confine to a column.
///
/// The model must already have `cfg` applied.
pub fn forward_delta_quant(
    model: &mut QuantModel,
    cache: &QPrefixCache,
    cfg: &FaultConfig,
    densify_threshold: f64,
) -> Option<Tensor> {
    let dirty = plan_quant(model, cfg)?;
    Some(run_delta(
        &mut QuantSubstrate(model),
        cache,
        &dirty,
        densify_threshold,
    ))
}

/// Maps a configuration to `{dense layer index -> sorted dirty output
/// columns}` — or `None` when any mask falls outside the column-confined
/// cases (non-dense layer, transient site, unknown path).
fn plan_f32(model: &Sequential, cfg: &FaultConfig) -> Option<BTreeMap<usize, Vec<usize>>> {
    let mut dirty: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (path, mask) in cfg.masks() {
        let li = model.layer_index_of_param(path)?;
        let (name, layer) = model.layer_at(li);
        let dense = layer.as_any()?.downcast_ref::<Dense>()?;
        let field = path.strip_prefix(name).and_then(|r| r.strip_prefix('.'))?;
        push_cols(
            dirty.entry(li).or_default(),
            field,
            mask.entries(),
            dense.out_dim(),
        )?;
    }
    for cols in dirty.values_mut() {
        cols.sort_unstable();
        cols.dedup();
    }
    Some(dirty)
}

/// The quantized planner: dense stages confine weight-byte and bias-word
/// faults to one column each; everything else falls back.
fn plan_quant(model: &QuantModel, cfg: &FaultConfig) -> Option<BTreeMap<usize, Vec<usize>>> {
    let mut dirty: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (path, mask) in cfg.masks() {
        let li = model.op_index_of_site(path)?;
        let (name, op) = model.op_at(li);
        let qd = op.as_dense()?;
        let field = path.strip_prefix(name).and_then(|r| r.strip_prefix('.'))?;
        push_cols(
            dirty.entry(li).or_default(),
            field,
            mask.entries(),
            qd.out_dim(),
        )?;
    }
    for cols in dirty.values_mut() {
        cols.sort_unstable();
        cols.dedup();
    }
    Some(dirty)
}

/// Appends the output columns a mask on `field` perturbs: a weight flip at
/// flat index `e` of an `(in, out)` matrix lands in column `e % out`; a
/// bias flip at index `e` — or a per-channel `w_scale` flip at index `e`,
/// since dense weight scales are per output column and only column `e`'s
/// requantizer reads scale `e` — lands in column `e`. Any other field
/// (`out_zp`, `in_scale`, …) reaches every column — refuse.
fn push_cols(
    cols: &mut Vec<usize>,
    field: &str,
    entries: &[(usize, u32)],
    out: usize,
) -> Option<()> {
    match field {
        "weight" => cols.extend(entries.iter().map(|&(e, _)| e % out)),
        "bias" | "w_scale" => {
            for &(e, _) in entries {
                if e >= out {
                    return None;
                }
                cols.push(e);
            }
        }
        _ => return None,
    }
    Some(())
}

/// Bitwise slice equality — the support-tracking criterion. Numeric `==`
/// would conflate `0.0` with `-0.0` and drop NaN rows; only bit equality
/// lets a "clean" row safely reuse the cached golden value.
fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The deviating rows at one layer boundary of one batch: their batch
/// row indices (sorted) and their activations, flattened row-major.
#[derive(Default)]
struct DirtyRows {
    rows: Vec<usize>,
    acts: Vec<f32>,
}

impl DirtyRows {
    fn clear(&mut self) {
        self.rows.clear();
        self.acts.clear();
    }

    /// Copies the dirty rows over their golden counterparts in `dst`.
    fn scatter_into(&self, dst: &mut [f32], width: usize) {
        for (src, &r) in self.acts.chunks_exact(width).zip(&self.rows) {
            dst[r * width..(r + 1) * width].copy_from_slice(src);
        }
    }

    /// Forwards the dirty rows through layer `l` as one sub-batch shaped
    /// like `boundary`: the activations are lent to the input tensor and
    /// taken back, so the gather copies nothing.
    fn forward<M: DeltaModel>(&mut self, model: &mut M, l: usize, boundary: &Tensor) -> Tensor {
        let mut dims = boundary.dims().to_vec();
        dims[0] = self.rows.len();
        let x = Tensor::from_vec(std::mem::take(&mut self.acts), dims);
        let y = model.forward_one(l, &x);
        self.acts = x.into_vec();
        y
    }
}

/// The buffers of one evaluation: two dirty-row sets that alternate as a
/// layer's input and output, and one full-width boundary that dirty dense
/// layers recompute their columns into and the densification exit hands
/// to the dense suffix. They live per thread, so after its first
/// evaluation a thread reuses them instead of allocating.
struct DeltaScratch {
    cur: DirtyRows,
    next: DirtyRows,
    dense: Tensor,
}

thread_local! {
    static SCRATCH: RefCell<DeltaScratch> = RefCell::new(DeltaScratch {
        cur: DirtyRows::default(),
        next: DirtyRows::default(),
        dense: Tensor::zeros([0]),
    });
}

/// The shared propagation loop: walks every batch from the first dirty
/// layer, recomputing touched columns at dirty dense layers, forwarding
/// only deviating rows through clean layers, and densifying when the dirty
/// fraction passes the threshold. Exact by construction (see module docs).
fn run_delta<M: DeltaModel, C: DeltaCache>(
    model: &mut M,
    cache: &C,
    dirty: &BTreeMap<usize, Vec<usize>>,
    densify_threshold: f64,
) -> Tensor {
    let classes = cache.classes();
    let mut logits = vec![0.0f32; cache.examples() * classes];
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        let mut row0 = 0;
        for b in 0..cache.num_batches() {
            let n = cache.boundary(b, 0).dim(0);
            let out = &mut logits[row0 * classes..(row0 + n) * classes];
            delta_batch(model, cache, b, dirty, densify_threshold, scratch, out);
            row0 += n;
        }
    });
    Tensor::from_vec(logits, [cache.examples(), classes])
}

/// Evaluates batch `b` into `out`, its rows of the logits.
fn delta_batch<M: DeltaModel, C: DeltaCache>(
    model: &mut M,
    cache: &C,
    b: usize,
    dirty: &BTreeMap<usize, Vec<usize>>,
    densify_threshold: f64,
    DeltaScratch { cur, next, dense }: &mut DeltaScratch,
    out: &mut [f32],
) {
    let depth = model.depth();
    let n = cache.boundary(b, 0).dim(0);
    let start = dirty.keys().next().copied().unwrap_or(depth);
    cur.clear();
    for l in start..depth {
        let is_dirty_layer = dirty.contains_key(&l);
        if cur.rows.is_empty() && !is_dirty_layer {
            continue;
        }
        let golden_in = cache.boundary(b, l);
        let golden_out = cache.boundary(b, l + 1);
        let width = golden_out.len() / n;
        next.clear();
        if let Some(cols) = dirty.get(&l) {
            // Dirty dense layer: previously-clean rows differ from golden
            // only in `cols`, so their faulty output is the golden output
            // with those columns recomputed from the golden input.
            dense.clone_from(golden_out);
            model.forward_cols(l, golden_in, cols, dense.data_mut());
            let changed = |r: usize| {
                let base = r * width;
                cols.iter().any(|&c| {
                    dense.data()[base + c].to_bits() != golden_out.data()[base + c].to_bits()
                })
            };
            if cur.rows.is_empty() {
                // No row deviates yet: `dense` is this layer's whole
                // faulty output. Past the threshold it is the densified
                // boundary as it stands; otherwise gather the rows that
                // changed.
                next.rows.extend((0..n).filter(|&r| changed(r)));
                if next.rows.len() as f64 > densify_threshold * n as f64 {
                    out.copy_from_slice(model.forward_from(l + 1, dense).data());
                    return;
                }
                for &r in &next.rows {
                    next.acts
                        .extend_from_slice(&dense.data()[r * width..(r + 1) * width]);
                }
            } else {
                // Rows that already deviated need the full width.
                let y = cur.forward(model, l, golden_in);
                let mut dirty_rows = cur.rows.iter().zip(y.data().chunks_exact(width)).peekable();
                for r in 0..n {
                    let golden_row = &golden_out.data()[r * width..(r + 1) * width];
                    if let Some((_, row)) = dirty_rows.next_if(|&(&dr, _)| dr == r) {
                        if !bits_eq(row, golden_row) {
                            next.rows.push(r);
                            next.acts.extend_from_slice(row);
                        }
                    } else if changed(r) {
                        next.rows.push(r);
                        next.acts
                            .extend_from_slice(&dense.data()[r * width..(r + 1) * width]);
                    }
                }
            }
        } else {
            // Clean layer: forward only the deviating rows; a row whose
            // output bit-matches the golden boundary re-joins the cached
            // majority (ReLU gating kills most deltas here).
            let y = cur.forward(model, l, golden_in);
            for (row, &r) in y.data().chunks_exact(width).zip(&cur.rows) {
                let golden_row = &golden_out.data()[r * width..(r + 1) * width];
                if !bits_eq(row, golden_row) {
                    next.rows.push(r);
                    next.acts.extend_from_slice(row);
                }
            }
        }
        std::mem::swap(cur, next);
        if cur.rows.len() as f64 > densify_threshold * n as f64 {
            // Support grew too wide for per-row tracking: scatter into the
            // golden boundary and finish with one dense suffix pass.
            dense.clone_from(golden_out);
            cur.scatter_into(dense.data_mut(), width);
            out.copy_from_slice(model.forward_from(l + 1, dense).data());
            return;
        }
    }
    // The batch logits: cached golden rows plus the survivors.
    out.copy_from_slice(cache.boundary(b, depth).data());
    cur.scatter_into(out, out.len() / n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdlfi_faults::FaultMask;
    use bdlfi_nn::{mlp, predict_all};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    fn flip_cfg(path: &str, element: usize, bit: u8) -> FaultConfig {
        let mut cfg = FaultConfig::clean();
        let mut mask = FaultMask::empty();
        mask.push_bit(element, bit);
        cfg.set_mask(path, mask);
        cfg
    }

    #[test]
    fn delta_matches_dense_reinference_bitwise() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = mlp(3, &[16, 16, 16], 4, &mut rng);
        let x = Tensor::rand_normal([50, 3], 0.0, 1.0, &mut rng);
        let cache = PrefixCache::build(&mut m, &x, 16);

        for (path, element, bit) in [
            ("fc1.weight", 5usize, 20u8),
            ("fc2.weight", 40, 30),
            ("fc2.bias", 3, 22),
            ("fc4.weight", 10, 18),
            ("fc4.bias", 2, 30),
        ] {
            let cfg = flip_cfg(path, element, bit);
            cfg.apply(&mut m);
            let cold = predict_all(&mut m, &x, 16);
            for t in THRESHOLDS {
                let delta = forward_delta_f32(&mut m, &cache, &cfg, t)
                    .expect("weight/bias flips are column-confined");
                assert_eq!(
                    bits(&delta),
                    bits(&cold),
                    "{path}[{element}] bit {bit} at {t}"
                );
            }
            cfg.apply(&mut m);
        }
    }

    /// Which way the delta loop goes at a dirty dense layer.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Branch {
        /// No row deviated yet and the recomputed boundary densifies.
        OnePassDense,
        /// No row deviated yet and only the changed rows are gathered.
        OnePassGather,
        /// Rows already deviate when the dirty layer is reached.
        Deviating,
    }

    /// Records the branches the delta loop takes on batch `b` at
    /// threshold `t`, replayed from a dense forward of the faulted model:
    /// the rows the loop tracks at a boundary are exactly those whose
    /// faulty activation differs bitwise from the golden one.
    fn record_branches<M: DeltaModel, C: DeltaCache>(
        model: &mut M,
        cache: &C,
        b: usize,
        dirty: &BTreeMap<usize, Vec<usize>>,
        t: f64,
        seen: &mut std::collections::BTreeSet<Branch>,
    ) {
        let mut x = cache.boundary(b, 0).clone();
        let n = x.dim(0);
        let mut deviating = 0;
        for l in 0..model.depth() {
            x = model.forward_one(l, &x);
            let golden = cache.boundary(b, l + 1);
            let width = golden.len() / n;
            let now = x
                .data()
                .chunks_exact(width)
                .zip(golden.data().chunks_exact(width))
                .filter(|(row, golden_row)| !bits_eq(row, golden_row))
                .count();
            let densify = now as f64 > t * n as f64;
            if dirty.contains_key(&l) {
                seen.insert(match (deviating, densify) {
                    (0, true) => Branch::OnePassDense,
                    (0, false) => Branch::OnePassGather,
                    _ => Branch::Deviating,
                });
            }
            if densify {
                return;
            }
            deviating = now;
        }
    }

    const THRESHOLDS: [f64; 4] = [0.0, 0.5, DENSIFY_THRESHOLD, 1.0];

    /// A batch of 30 two-feature rows whose first feature is exactly zero
    /// in every other row, so a fault on a first-feature weight changes
    /// half of each 8-row batch (the other half multiplies it by zero).
    fn half_zero_inputs(rng: &mut StdRng) -> Tensor {
        let mut x = Tensor::rand_normal([30, 2], 0.0, 1.0, rng);
        for row in x.data_mut().chunks_exact_mut(2).step_by(2) {
            row[0] = 0.0;
        }
        x
    }

    /// Configurations that drive the loop down each branch: a fault on
    /// half the rows (gathered at a threshold of 0.5 or more, densified
    /// below), a fault on every row, half the rows meeting a second dirty
    /// layer with rows already deviating, and a multi-site mix. `bits`
    /// are the flipped bits of the four, the mix taking two.
    fn branch_configs(bits: [u8; 5]) -> Vec<FaultConfig> {
        let [half_bit, every_bit, late_bit, mix_a, mix_b] = bits;
        let half = flip_cfg("fc1.weight", 3, half_bit);
        let mut late = half.clone();
        late.set_mask(
            "fc3.weight",
            FaultMask::from_entries(vec![(7, 1 << late_bit)]),
        );
        let mut mix = FaultConfig::clean();
        mix.set_mask(
            "fc1.weight",
            FaultMask::from_entries(vec![(3, 1 << mix_a), (17, 1 << mix_b)]),
        );
        mix.set_mask("fc2.bias", FaultMask::from_entries(vec![(5, 1 << 23)]));
        vec![half, flip_cfg("fc1.bias", 5, every_bit), late, mix]
    }

    #[test]
    fn every_densify_branch_is_exact_at_every_threshold() {
        use bdlfi_quant::{quantize_model, CalibConfig};
        let all = [
            Branch::OnePassDense,
            Branch::OnePassGather,
            Branch::Deviating,
        ];
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = mlp(2, &[12, 12], 3, &mut rng);
        let x = half_zero_inputs(&mut rng);
        let cache = PrefixCache::build(&mut m, &x, 8);
        let mut seen = std::collections::BTreeSet::new();
        for cfg in branch_configs([30, 30, 25, 25, 21]) {
            cfg.apply(&mut m);
            let cold = predict_all(&mut m, &x, 8);
            let dirty = plan_f32(&m, &cfg).expect("column-confined config");
            for t in THRESHOLDS {
                let delta = forward_delta_f32(&mut m, &cache, &cfg, t).expect("confined");
                assert_eq!(bits(&delta), bits(&cold), "f32 {cfg:?} at threshold {t}");
                for b in 0..cache.num_batches() {
                    record_branches(&mut F32Substrate(&mut m), &cache, b, &dirty, t, &mut seen);
                }
            }
            cfg.apply(&mut m);
        }
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), all, "f32 branches");

        let calib = Tensor::rand_normal([32, 2], 0.0, 1.0, &mut rng);
        let mut qm = quantize_model(&m, &calib, &CalibConfig::default());
        let cache = QPrefixCache::build(&mut qm, &x, 8);
        let mut seen = std::collections::BTreeSet::new();
        for cfg in branch_configs([6, 20, 5, 5, 3]) {
            qm.apply(&cfg);
            let cold = qm.predict_all(&x, 8);
            let dirty = plan_quant(&qm, &cfg).expect("column-confined config");
            for t in THRESHOLDS {
                let delta = forward_delta_quant(&mut qm, &cache, &cfg, t).expect("confined");
                assert_eq!(bits(&delta), bits(&cold), "int8 {cfg:?} at threshold {t}");
                for b in 0..cache.num_batches() {
                    record_branches(
                        &mut QuantSubstrate(&mut qm),
                        &cache,
                        b,
                        &dirty,
                        t,
                        &mut seen,
                    );
                }
            }
            qm.apply(&cfg);
        }
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), all, "int8 branches");
    }

    #[test]
    fn clean_config_returns_golden_logits() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = mlp(2, &[8], 2, &mut rng);
        let x = Tensor::rand_normal([10, 2], 0.0, 1.0, &mut rng);
        let cache = PrefixCache::build(&mut m, &x, 4);
        let delta = forward_delta_f32(&mut m, &cache, &FaultConfig::clean(), DENSIFY_THRESHOLD)
            .expect("clean config is trivially confined");
        assert_eq!(bits(&delta), bits(&cache.golden_logits()));
    }

    #[test]
    fn unknown_paths_and_non_dense_layers_refuse() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = mlp(2, &[8], 2, &mut rng);
        // Unknown layer path → fallback.
        assert!(plan_f32(&m, &flip_cfg("nope.weight", 0, 1)).is_none());
        // A relu layer owns no params, so any path naming it is unknown;
        // exercise the dense-downcast refusal through a conv model instead.
        use bdlfi_nn::{resnet18, ResNetConfig};
        let rm = resnet18(
            ResNetConfig {
                in_channels: 3,
                base_width: 2,
                classes: 4,
            },
            &mut rng,
        );
        assert!(plan_f32(&rm, &flip_cfg("conv1.weight", 0, 1)).is_none());
        assert!(plan_f32(&rm, &flip_cfg("layer1_0.conv1.weight", 0, 1)).is_none());
    }

    #[test]
    fn saturating_high_bit_flips_stay_exact() {
        // Bit 30 flips blow a weight up to ~1e38: downstream activations
        // saturate to inf/NaN. The delta path recomputes (never adds), so
        // it must still agree bitwise with the dense run.
        let mut rng = StdRng::seed_from_u64(4);
        let mut m = mlp(2, &[10, 10], 3, &mut rng);
        let x = Tensor::rand_normal([20, 2], 0.0, 1.0, &mut rng);
        let cache = PrefixCache::build(&mut m, &x, 8);
        let cfg = flip_cfg("fc1.weight", 7, 30);
        cfg.apply(&mut m);
        let delta = forward_delta_f32(&mut m, &cache, &cfg, DENSIFY_THRESHOLD)
            .expect("column-confined config");
        let cold = predict_all(&mut m, &x, 8);
        cfg.apply(&mut m);
        assert_eq!(bits(&delta), bits(&cold));
    }

    #[test]
    fn quant_delta_matches_integer_reinference_bitwise() {
        use bdlfi_quant::{quantize_model, CalibConfig};
        let mut rng = StdRng::seed_from_u64(5);
        let m = mlp(4, &[8, 6], 3, &mut rng);
        let calib = Tensor::rand_normal([32, 4], 0.0, 1.0, &mut rng);
        let mut qm = quantize_model(&m, &calib, &CalibConfig::default());
        let x = Tensor::rand_normal([20, 4], 0.0, 1.0, &mut rng);
        let cache = QPrefixCache::build(&mut qm, &x, 8);
        for (path, element, bit) in [
            ("fc1.weight", 3usize, 6u8),
            ("fc2.weight", 20, 3),
            ("fc2.bias", 1, 12),
            ("fc3.bias", 2, 20),
            // Per-channel weight scales: element e feeds only column e's
            // requantizer. Bit 30 blows the scale up to ~1e38 — the
            // recompute must still bit-match the dense integer pass.
            ("fc1.w_scale", 2, 12),
            ("fc2.w_scale", 4, 30),
        ] {
            let cfg = flip_cfg(path, element, bit);
            qm.apply(&cfg);
            let cold = qm.predict_all(&x, 8);
            for t in THRESHOLDS {
                let delta = forward_delta_quant(&mut qm, &cache, &cfg, t)
                    .expect("weight-byte/bias-word/w-scale faults are column-confined");
                assert_eq!(
                    bits(&delta),
                    bits(&cold),
                    "{path}[{element}] bit {bit} at {t}"
                );
            }
            qm.apply(&cfg);
        }
    }

    #[test]
    fn quant_zero_point_faults_refuse_but_w_scale_plans() {
        use bdlfi_quant::{quantize_model, CalibConfig};
        let mut rng = StdRng::seed_from_u64(6);
        let m = mlp(4, &[8], 3, &mut rng);
        let calib = Tensor::rand_normal([32, 4], 0.0, 1.0, &mut rng);
        let qm = quantize_model(&m, &calib, &CalibConfig::default());
        // The output zero-point fans out to every column through the shared
        // requantizer — the planner must refuse.
        assert!(plan_quant(&qm, &flip_cfg("fc1.out_zp", 0, 1)).is_none());
        assert!(plan_quant(&qm, &flip_cfg("nope.weight", 0, 1)).is_none());
        // A per-channel weight scale feeds exactly one column's requantizer:
        // scale element e plans as dirty column e.
        let dirty = plan_quant(&qm, &flip_cfg("fc1.w_scale", 5, 12)).expect("w_scale is confined");
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty.values().next().unwrap(), &vec![5]);
        // An out-of-range scale index (defensive: can't arise from sites)
        // still refuses rather than planning a bogus column.
        assert!(plan_quant(&qm, &flip_cfg("fc1.w_scale", 8, 1)).is_none());
    }

    #[test]
    fn delta_stats_count_and_share() {
        let stats = std::sync::Arc::new(DeltaStats::default());
        let clone = std::sync::Arc::clone(&stats);
        clone.record_hit();
        clone.record_hit();
        stats.record_fallback();
        assert_eq!(stats.counters(), (2, 1));
    }
}
