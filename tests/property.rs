//! Cross-crate property-based tests: invariants that must hold for
//! arbitrary fault configurations, probabilities and network inputs.

use bdlfi_suite::bayes::BetaBernoulli;
use bdlfi_suite::faults::bits::{flip_bit_u32, flip_bit_u8};
use bdlfi_suite::faults::{
    BernoulliBitFlip, BitRange, FaultConfig, FaultModel, ParamSite, Repr, SiteSpec,
};
use bdlfi_suite::nn::{mlp, Sequential};
use bdlfi_suite::quant::{dequant_acc, requant_rows, QParams, Requant};
use bdlfi_suite::tensor::kernels::qgemm_i8::qgemm_i8_with;
use bdlfi_suite::tensor::kernels::Variant;
use bdlfi_suite::tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn model(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    mlp(3, &[6], 2, &mut rng)
}

/// The naive row-major i32 triple loop — the oracle every qgemm
/// micro-kernel variant must reproduce exactly (accumulating into `c`).
fn qgemm_naive(m: usize, n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0i32;
            for p in 0..k {
                acc += i32::from(a[i * k + p]) * i32::from(b[p * n + j]);
            }
            c[i * n + j] += acc;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Injection followed by re-injection is the identity on the weight
    /// bits, for any flip probability and seed.
    #[test]
    fn apply_is_involution_for_any_p(p in 0.0f64..0.5, seed in 0u64..1000) {
        let mut m = model(seed);
        let sites = bdlfi_suite::faults::resolve_sites(&m, &SiteSpec::AllParams);
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = FaultConfig::sample(&sites.params, &BernoulliBitFlip::new(p), &mut rng);

        let before = bdlfi_suite::nn::serialize::export_weights(&m);
        cfg.apply(&mut m);
        cfg.apply(&mut m);
        let after = bdlfi_suite::nn::serialize::export_weights(&m);
        for (path, t) in &before.params {
            let a: Vec<u32> = t.data().iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = after.params[path].data().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(a, b);
        }
    }

    /// The joint prior log-probability is monotone in the flip count:
    /// removing a flip (at p < 0.5) can only raise the probability.
    #[test]
    fn prior_prefers_fewer_flips(p in 1e-6f64..0.49, seed in 0u64..1000) {
        let sites = vec![ParamSite::new("w", 4)];
        let fm = BernoulliBitFlip::new(p);
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = FaultConfig::sample(&sites, &fm, &mut rng);
        prop_assume!(!cfg.is_clean());

        let lp_faulty = cfg.log_prob(&sites, &fm).unwrap();
        let lp_clean = FaultConfig::clean().log_prob(&sites, &fm).unwrap();
        prop_assert!(lp_clean > lp_faulty);
        // And the gap is exactly flips * ln((1-p)/p).
        let expected = cfg.total_flips() as f64 * ((1.0 - p).ln() - p.ln());
        prop_assert!((lp_clean - lp_faulty - expected).abs() < 1e-6);
    }

    /// Forward inference never panics and produces the right shape under
    /// arbitrary weight corruption (NaN/inf logits included).
    #[test]
    fn corrupted_inference_is_total(p in 0.0f64..0.3, seed in 0u64..500) {
        let mut m = model(seed);
        let sites = bdlfi_suite::faults::resolve_sites(&m, &SiteSpec::AllParams);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let cfg = FaultConfig::sample(&sites.params, &BernoulliBitFlip::new(p), &mut rng);
        let x = Tensor::rand_normal([5, 3], 0.0, 1.0, &mut rng);

        let logits = cfg.with_applied(&mut m, |m| m.predict(&x));
        prop_assert_eq!(logits.dims(), &[5, 2]);
        // Softmax sanitisation keeps probabilities usable even when logits
        // are non-finite.
        let probs = logits.softmax_rows();
        for i in 0..5 {
            let s: f32 = probs.row(i).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
            prop_assert!(probs.row(i).iter().all(|v| v.is_finite()));
        }
    }

    /// Beta–Bernoulli credible intervals are ordered, inside [0, 1], and
    /// contain the posterior mean.
    #[test]
    fn credible_intervals_are_coherent(s in 0u64..200, extra in 1u64..200) {
        let t = s + extra;
        let bb = BetaBernoulli::jeffreys().update(s, t);
        let (lo, hi) = bb.credible_interval(0.9);
        prop_assert!(0.0 <= lo && lo < hi && hi <= 1.0);
        let mean = bb.mean();
        prop_assert!(lo <= mean && mean <= hi);
    }

    /// Expected flip counts scale linearly with tensor size.
    #[test]
    fn expected_flips_scale_linearly(p in 1e-6f64..0.1, len in 1usize..10_000) {
        let fm = BernoulliBitFlip::new(p);
        let single = fm.expected_flips(1);
        prop_assert!((fm.expected_flips(len) - single * len as f64).abs() < 1e-6);
    }

    // -----------------------------------------------------------------------
    // Quantization invariants.
    // -----------------------------------------------------------------------

    /// Quantize→dequantize round-trips any value inside the calibrated
    /// range to within half a quantization step.
    #[test]
    fn quantize_round_trip_within_half_step(
        lo in -100.0f32..-1e-2,
        hi in 1e-2f32..100.0,
        frac in 0.0f32..1.0,
    ) {
        let qp = QParams::from_range(lo, hi);
        let x = lo + frac * (hi - lo);
        let rt = qp.dequantize(qp.quantize(x));
        // Half a step, with slack for the f32 arithmetic of the scale
        // itself (round-to-nearest lands exactly on the boundary).
        let tol = 0.5 * qp.scale as f64 * (1.0 + 1e-4) + 1e-6;
        prop_assert!(
            ((rt - x) as f64).abs() <= tol,
            "x={x} rt={rt} scale={}", qp.scale
        );
    }

    /// The Q31 fixed-point requantizer agrees with the exact f64 reference
    /// `round(acc * m)` to within one integer ULP of the output grid.
    #[test]
    fn requant_fixed_point_matches_f64_within_one_ulp(
        m in 1e-6f64..1.0,
        acc in -(1i64 << 24)..(1i64 << 24),
    ) {
        let rq = Requant::from_multiplier(m);
        prop_assume!(matches!(rq, Requant::Fixed { .. }));
        let exact = (acc as f64 * m).round() as i64;
        let fixed = rq.apply(acc) as i64;
        prop_assert!(
            (fixed - exact).abs() <= 1,
            "acc={acc} m={m}: fixed {fixed} vs exact {exact}"
        );
    }

    /// Bit flips in integer storage are involutions, exactly as in f32:
    /// re-flipping restores the original word, for every in-width bit.
    #[test]
    fn integer_bit_flips_are_involutions(word in 0u32..u32::MAX, bit in 0u8..32) {
        let x32 = word as i32;
        prop_assert_eq!(flip_bit_u32(flip_bit_u32(x32, bit), bit), x32);
        prop_assert_ne!(flip_bit_u32(x32, bit), x32);
        if bit < 8 {
            let x8 = word as u8 as i8;
            prop_assert_eq!(flip_bit_u8(flip_bit_u8(x8, bit), bit), x8);
            prop_assert_ne!(flip_bit_u8(x8, bit), x8);
        }
    }

    // -----------------------------------------------------------------------
    // Kernel-selector invariants.
    // -----------------------------------------------------------------------

    /// Every qgemm micro-kernel variant computes exactly the naive i32
    /// triple loop, over random shapes spanning k = 1, MR/NR remainder
    /// tiles and multiple KC blocks — integer GEMM admits no tolerance.
    #[test]
    fn qgemm_variants_match_naive_reference(
        m in 1usize..18,
        n in 1usize..40,
        k in 1usize..300,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<i8> = (0..m * k).map(|_| rng.random_range(-128i32..=127) as i8).collect();
        let b: Vec<i8> = (0..k * n).map(|_| rng.random_range(-128i32..=127) as i8).collect();
        let init: Vec<i32> = (0..m * n).map(|_| rng.random_range(-1000i32..1000)).collect();
        let mut want = init.clone();
        qgemm_naive(m, n, k, &a, &b, &mut want);
        for variant in [Variant::Scalar, Variant::Autovec, Variant::Avx2] {
            let mut c = init.clone();
            qgemm_i8_with(variant, m, n, k, &a, &b, &mut c);
            prop_assert!(c == want, "{:?} at ({m},{n},{k})", variant);
        }
    }

    /// Saturation-stressing operands — every element drawn from
    /// {-128, -127, 127} — drive each maddubs i16 lane to its extreme
    /// |a'·b| = 32640 and the i32 accumulator to its K_MAX envelope; the
    /// SIMD variants must still be exact, not merely close.
    #[test]
    fn qgemm_extreme_operands_stay_exact(
        m in 1usize..9,
        n in 1usize..34,
        k in 1usize..600,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        const EXTREMES: [i8; 3] = [-128, -127, 127];
        let a: Vec<i8> = (0..m * k).map(|_| EXTREMES[rng.random_range(0..3usize)]).collect();
        let b: Vec<i8> = (0..k * n).map(|_| EXTREMES[rng.random_range(0..3usize)]).collect();
        let mut want = vec![0i32; m * n];
        qgemm_naive(m, n, k, &a, &b, &mut want);
        for variant in [Variant::Scalar, Variant::Autovec, Variant::Avx2] {
            let mut c = vec![0i32; m * n];
            qgemm_i8_with(variant, m, n, k, &a, &b, &mut c);
            prop_assert!(c == want, "{:?} at ({m},{n},{k})", variant);
        }
    }

    /// Per-channel requantization: multipliers built from per-channel
    /// weight scales stay within the same 1-ULP bound as the per-tensor
    /// Q31 path, and the batched row helper is bit-identical to the
    /// per-element chain it vectorizes.
    #[test]
    fn per_channel_requant_within_one_ulp_and_batch_exact(
        in_scale in 1e-4f32..1.0,
        out_scale in 1e-4f32..1.0,
        width in 1usize..12,
        rows in 1usize..6,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w_scales: Vec<f32> =
            (0..width).map(|_| rng.random_range(1e-6f64..0.5) as f32).collect();
        let rqs: Vec<Requant> = w_scales
            .iter()
            .map(|&ws| Requant::from_scales(in_scale, ws, out_scale))
            .collect();
        let corrs: Vec<i64> =
            (0..width).map(|_| rng.random_range(-5000i64..5000)).collect();
        let acc: Vec<i32> =
            (0..rows * width).map(|_| rng.random_range(-100_000i32..100_000)).collect();
        let zp_out = rng.random_range(-128i32..=127);

        // 1-ULP bound against the exact f64 requantizer, per channel.
        for (r, &a) in acc.iter().enumerate() {
            let j = r % width;
            let corrected = a as i64 + corrs[j];
            let exact = (corrected as f64
                * (in_scale as f64 * w_scales[j] as f64 / out_scale as f64))
                .round() as i64;
            let got = rqs[j].apply(corrected) as i64;
            prop_assert!(
                (got - exact).abs() <= 1,
                "channel {j}: fixed {got} vs exact {exact}"
            );
        }

        // The batched helper is bit-identical to the per-element chain.
        let mut batched = vec![0.0; acc.len()];
        requant_rows(&acc, width, &rqs, &corrs, zp_out, out_scale, &mut batched);
        let per_element: Vec<f32> = acc
            .iter()
            .enumerate()
            .map(|(r, &a)| {
                let j = r % width;
                dequant_acc(&rqs[j], a as i64 + corrs[j], zp_out, out_scale)
            })
            .collect();
        let b_bits: Vec<u32> = batched.iter().map(|v| v.to_bits()).collect();
        let p_bits: Vec<u32> = per_element.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(b_bits, p_bits);
    }

    /// Clamping a bit range to a representation never widens it, and the
    /// full range for a representation has exactly its storage width.
    #[test]
    fn bit_ranges_clamp_within_repr(lo in 0u8..32, span in 1u8..32) {
        let hi = (lo + span).min(32);
        let range = BitRange::new(lo, hi);
        for repr in [Repr::F32, Repr::I8, Repr::I32Accum] {
            prop_assert_eq!(BitRange::all_for(repr).len(), repr.width());
            if lo >= repr.width() {
                // Empty intersection: clamp_to panics by contract.
                continue;
            }
            let clamped = range.clamp_to(repr);
            prop_assert!(clamped.len() <= range.len());
            for i in 0..clamped.len() {
                let bit = clamped.nth(i);
                prop_assert!(bit < repr.width(), "bit {bit} outside {repr:?}");
                prop_assert!(range.contains(bit));
            }
        }
    }
}
