//! Heap allocations per faulty evaluation of the paper's MLP.
//!
//! A campaign on the 2→32→3 MLP spends almost all of its time evaluating
//! configurations, and each evaluation is only ≈48 K multiply-adds, so a
//! per-evaluation allocation is a measurable share of its cost. This test
//! counts allocations with a counting global allocator on the three
//! evaluation paths the benchmark workloads run — the f32 sparse-delta
//! path, the f32 incremental path and the int8 sparse-delta path — over
//! 300 eval rows and a fixed set of prior-sampled configurations, and
//! pins the mean count per evaluation.
//!
//! The file holds a single test: the allocator counts every thread of
//! the test binary, and a second test running in parallel would add its
//! allocations to the count.

use bdlfi_suite::core::{FaultWorkload, FaultyModel, QuantFaultyModel};
use bdlfi_suite::data::gaussian_blobs;
use bdlfi_suite::faults::{BernoulliBitFlip, FaultConfig, SiteSpec};
use bdlfi_suite::nn::{mlp, optim::Sgd, TrainConfig, Trainer};
use bdlfi_suite::quant::{quantize_model, CalibConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts every allocation and reallocation, then defers to [`System`].
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// that publishes no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's guarantees on `layout` pass through to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: as for `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: `ptr` and `layout` come from this allocator, as the caller
    // guarantees, and pass through to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by this allocator (hence by
        // `System`) with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: as for `realloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Configurations counted per path.
const CONFIGS: usize = 200;
/// The flip probability of the benchmark's MLP workloads.
const P: f64 = 1e-3;

/// Mean allocations per evaluation each path may make: the counts this
/// code measures (24.5, 31.1 and 10.4), rounded up. Before the
/// evaluation path reused its buffers they were 190.6 (f32 delta), 98.2
/// (f32 incremental) and 183.8 (int8 delta, then in 64-row batches);
/// before the delta loop kept its buffers per thread and fault
/// application stopped building parameter paths, 60.2, 43.1 and 18.1.
const F32_DELTA_MEAN: f64 = 25.0;
const F32_INCREMENTAL_MEAN: f64 = 32.0;
const I8_DELTA_MEAN: f64 = 11.0;

/// Mean per-evaluation allocation count over the delta hits (or, with
/// `need_hit` false, over every evaluation) of `configs` evaluated by
/// `eval`, after one warm-up pass fills the kernels' scratch pools.
fn mean_allocations(
    configs: &[FaultConfig],
    need_hit: bool,
    hits: &dyn Fn() -> u64,
    eval: &mut dyn FnMut(&FaultConfig),
) -> f64 {
    for cfg in configs {
        eval(cfg);
    }
    let (mut total, mut counted) = (0u64, 0u64);
    for cfg in configs {
        let h0 = hits();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        eval(cfg);
        let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
        if !need_hit || hits() > h0 {
            total += made;
            counted += 1;
        }
    }
    assert!(
        counted as usize > configs.len() / 2,
        "too few delta hits to count"
    );
    total as f64 / counted as f64
}

#[test]
fn evaluations_stay_within_their_allocation_budgets() {
    let mut rng = StdRng::seed_from_u64(2019);
    let data = gaussian_blobs(1200, 3, 1.25, &mut rng);
    let (train, eval) = data.split(0.75, &mut rng);
    assert_eq!(eval.len(), 300);
    let mut model = mlp(2, &[32], 3, &mut rng);
    Trainer::new(
        Sgd::new(0.1).with_momentum(0.9),
        TrainConfig {
            epochs: 5,
            batch_size: 32,
            ..TrainConfig::default()
        },
    )
    .fit(&mut model, train.inputs(), train.labels(), &mut rng);
    let eval = Arc::new(eval);
    let fault_model = Arc::new(BernoulliBitFlip::new(P));

    let mut fm = FaultyModel::new(
        model.clone(),
        Arc::clone(&eval),
        &SiteSpec::AllParams,
        fault_model.clone(),
    );
    let configs: Vec<FaultConfig> = (0..CONFIGS).map(|_| fm.sample_config(&mut rng)).collect();
    let probe = fm.clone();
    let f32_delta = mean_allocations(&configs, true, &|| probe.delta_counters().0, &mut |cfg| {
        drop(fm.eval_logits(cfg, &mut StdRng::seed_from_u64(0)))
    });
    fm.set_delta_enabled(false);
    let f32_incremental = mean_allocations(&configs, false, &|| 0, &mut |cfg| {
        drop(fm.eval_logits(cfg, &mut StdRng::seed_from_u64(0)))
    });

    let qm = quantize_model(&model, train.inputs(), &CalibConfig::default());
    let mut qfm = QuantFaultyModel::new(qm, Arc::clone(&eval), &SiteSpec::AllParams, fault_model);
    let mut qrng = StdRng::seed_from_u64(7);
    let qconfigs: Vec<FaultConfig> = (0..CONFIGS)
        .map(|_| FaultWorkload::sample_config(&qfm, &mut qrng))
        .collect();
    let qprobe = qfm.clone();
    let i8_delta = mean_allocations(&qconfigs, true, &|| qprobe.delta_counters().0, &mut |cfg| {
        drop(qfm.eval_logits(cfg))
    });

    eprintln!(
        "mean allocations per evaluation: f32 delta {f32_delta}, \
         f32 incremental {f32_incremental}, int8 delta {i8_delta}"
    );
    assert!(f32_delta <= F32_DELTA_MEAN, "f32 delta path: {f32_delta}");
    assert!(
        f32_incremental <= F32_INCREMENTAL_MEAN,
        "f32 incremental path: {f32_incremental}"
    );
    assert!(i8_delta <= I8_DELTA_MEAN, "int8 delta path: {i8_delta}");
}
