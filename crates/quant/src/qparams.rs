//! Per-tensor affine quantization parameters and the fixed-point
//! requantization pipeline.
//!
//! The scheme is the standard deployment recipe (Jacob et al., "Quantization
//! and Training of Neural Networks for Efficient Integer-Arithmetic-Only
//! Inference", CVPR 2018): asymmetric int8 activations, symmetric int8
//! weights, i32 accumulators, and a per-layer fixed-point multiplier that
//! rescales accumulators back to the output's int8 grid without touching
//! floating point on the hot path.

use bdlfi_tensor::kernels::{forced_variant, Variant};
use bdlfi_tensor::scratch::{self, Poolable};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::thread::LocalKey;

/// Quantized integer range for activations (full int8).
pub const QMIN: i32 = -128;
/// Upper end of the activation range.
pub const QMAX: i32 = 127;
/// Weights are clamped to the symmetric range `[-127, 127]` so that
/// `-w` is always representable.
pub const WMAX: i32 = 127;

/// Per-tensor affine quantization: `real ≈ (q - zero_point) * scale`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QParams {
    /// Step size of the integer grid.
    pub scale: f32,
    /// Integer representing real zero.
    pub zero_point: i32,
}

impl QParams {
    /// The identity-ish default used before calibration: unit scale, zero
    /// offset.
    pub fn unit() -> Self {
        QParams {
            scale: 1.0,
            zero_point: 0,
        }
    }

    /// Asymmetric activation parameters covering `[min, max]` with the full
    /// int8 range. The interval is widened to include zero so that padding
    /// and ReLU zeros are exactly representable.
    pub fn from_range(min: f32, max: f32) -> Self {
        let min = min.min(0.0);
        let max = max.max(0.0);
        let span = (max - min) as f64;
        if !(span.is_finite()) || span <= 0.0 {
            return QParams::unit();
        }
        let scale = span / (QMAX - QMIN) as f64;
        let zp = (QMIN as f64 - min as f64 / scale).round() as i64;
        QParams {
            scale: scale as f32,
            zero_point: zp.clamp(QMIN as i64, QMAX as i64) as i32,
        }
    }

    /// Symmetric weight parameters for a tensor with largest magnitude
    /// `max_abs`: zero point 0, scale `max_abs / 127`.
    pub fn symmetric(max_abs: f32) -> Self {
        if !max_abs.is_finite() || max_abs <= 0.0 {
            return QParams::unit();
        }
        QParams {
            scale: max_abs / WMAX as f32,
            zero_point: 0,
        }
    }

    /// Quantizes one real value onto the int8 grid (round-to-nearest,
    /// saturating). Non-finite inputs map through Rust's saturating `as`
    /// casts (`NaN → 0`), keeping faulted tensors well-defined.
    pub fn quantize(&self, x: f32) -> i8 {
        quantize_one(x, self.inv_scale(), self.zero_point as i64)
    }

    /// Quantizes a whole activation slice into `dst` (cleared and resized
    /// first), element-for-element identical to [`QParams::quantize`].
    pub fn quantize_slice_into(&self, src: &[f32], dst: &mut Vec<i8>) {
        dst.clear();
        dst.resize(src.len(), 0);
        self.quantize_slice_to(src, dst);
    }

    /// Quantizes a whole activation slice into a pre-sized buffer,
    /// element-for-element identical to [`QParams::quantize`]: the
    /// reciprocal scale and zero point are hoisted out of the loop — the
    /// single-element path uses the same reciprocal-multiply core, so the
    /// two can never disagree. This is the hot prologue of every quantized
    /// layer — per-element it would cost more than the int8 GEMM it feeds
    /// — so under the `avx2` kernel variant (the default) it runs through
    /// hand-vectorized kernels ([`quantize_slice_avx2`]) that are
    /// bit-identical to the scalar reference by the exactness arguments
    /// in their docs; `BDLFI_KERNEL=scalar|autovec` selects the reference
    /// loop.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() != src.len()`.
    pub fn quantize_slice_to(&self, src: &[f32], dst: &mut [i8]) {
        let zp = self.zero_point as i64;
        quantize_slice_with(qdq_variant(), src, self.inv_scale(), zp, dst);
    }

    /// Reciprocal of the scale, in f64. Degenerate (faulted) scales stay
    /// deterministic: `1/0 → inf`, `1/inf → 0`, `1/NaN → NaN`, and every
    /// finite f32 scale — subnormals included — has a finite f64
    /// reciprocal, so no new degenerate cases appear versus division.
    fn inv_scale(&self) -> f64 {
        1.0 / self.scale as f64
    }

    /// Reconstructs the real value of a quantized element.
    pub fn dequantize(&self, q: i8) -> f32 {
        ((q as i64 - self.zero_point as i64) as f64 * self.scale as f64) as f32
    }
}

#[inline]
fn quantize_one(x: f32, inv_scale: f64, zp: i64) -> i8 {
    let q = (x as f64 * inv_scale).round() as i64;
    (q.saturating_add(zp)).clamp(QMIN as i64, QMAX as i64) as i8
}

/// The kernel variant the QDQ steps run: `BDLFI_KERNEL` when it is set,
/// else `avx2`, whose kernels take the reference loops on a CPU without
/// AVX2 — the same fallback the int8 GEMM makes.
fn qdq_variant() -> Variant {
    forced_variant().unwrap_or(Variant::Avx2)
}

/// [`QParams::quantize_slice_to`] under one kernel variant: `avx2` runs
/// [`quantize_slice_avx2`] when the CPU has AVX2, `scalar` and `autovec`
/// the reference loop.
fn quantize_slice_with(variant: Variant, src: &[f32], inv_scale: f64, zp: i64, dst: &mut [i8]) {
    assert_eq!(dst.len(), src.len(), "quantize_slice_to length mismatch");
    #[cfg(target_arch = "x86_64")]
    if variant == Variant::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: calling a `#[target_feature(enable = "avx2")]` function
        // is sound iff the CPU supports AVX2, which the runtime
        // `is_x86_feature_detected!` check on the line above guarantees;
        // the intrinsics inside read and write fixed-size arrays only.
        return unsafe { quantize_slice_avx2(src, inv_scale, zp, dst) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = variant; // only the AVX2 dispatch reads it
    quantize_slice_reference(src, inv_scale, zp, dst);
}

/// Scalar reference loop for [`QParams::quantize_slice_to`]; the oracle
/// the AVX2 kernels below are checked against.
#[inline(always)]
fn quantize_slice_reference(src: &[f32], inv_scale: f64, zp: i64, dst: &mut [i8]) {
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = quantize_one(x, inv_scale, zp);
    }
}

/// Activations per block of the vectorized quantizer.
const QBLOCK: usize = 32;

/// Hand-vectorized [`quantize_slice_reference`], bit-identical to it for
/// every input, in blocks of 32 activations (a short tail is padded with
/// zeros into one more block). When `inv as f32` is a normal float and
/// `|zp| ≤ 256` — every calibrated layer — a block runs in f32 lanes
/// ([`quantize_block_f32`]) and falls back to the f64 lanes of
/// [`quantize_block_f64`] only when one of its lanes lies within 2⁻¹³ of a
/// rounding tie or is NaN; otherwise every block takes the f64 lanes,
/// which are exact for every input.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn quantize_slice_avx2(src: &[f32], inv_scale: f64, zp: i64, dst: &mut [i8]) {
    let wide = QuantLanes::splat(inv_scale, zp);
    let inv32 = inv_scale as f32;
    let narrow =
        (inv32.is_normal() && zp.unsigned_abs() <= 256).then(|| QuantLanesF32::splat(inv32, zp));
    let block = |xs: &[f32; QBLOCK], out: &mut [i8; QBLOCK]| {
        if !narrow
            .as_ref()
            .is_some_and(|c| quantize_block_f32(xs, c, out))
        {
            quantize_block_f64(xs, &wide, out);
        }
    };
    let (xs, x_tail) = src.as_chunks::<QBLOCK>();
    let (outs, out_tail) = dst.as_chunks_mut::<QBLOCK>();
    for (x, out) in xs.iter().zip(outs) {
        block(x, out);
    }
    if !x_tail.is_empty() {
        let mut x = [0.0f32; QBLOCK];
        let mut out = [0i8; QBLOCK];
        x[..x_tail.len()].copy_from_slice(x_tail);
        block(&x, &mut out);
        out_tail.copy_from_slice(&out[..out_tail.len()]);
    }
}

/// Per-lane constants of the f32 quantizer, built once per slice.
#[cfg(target_arch = "x86_64")]
struct QuantLanesF32 {
    inv: std::arch::x86_64::__m256,
    lim: std::arch::x86_64::__m256,
    neg_lim: std::arch::x86_64::__m256,
    tie: std::arch::x86_64::__m256,
    sign_bit: std::arch::x86_64::__m256,
    zp: std::arch::x86_64::__m256i,
}

#[cfg(target_arch = "x86_64")]
impl QuantLanesF32 {
    #[target_feature(enable = "avx2")]
    fn splat(inv: f32, zp: i64) -> Self {
        use std::arch::x86_64::{_mm256_set1_epi32, _mm256_set1_ps};
        QuantLanesF32 {
            inv: _mm256_set1_ps(inv),
            lim: _mm256_set1_ps(512.0),
            neg_lim: _mm256_set1_ps(-512.0),
            tie: _mm256_set1_ps(0.5 - 1.0 / 8192.0),
            sign_bit: _mm256_set1_ps(-0.0),
            zp: _mm256_set1_epi32(zp as i32),
        }
    }
}

/// Quantizes 32 activations in f32 lanes into `out` and returns `true`,
/// or returns `false` — leaving `out` unspecified — when a lane is NaN or
/// lies within 2⁻¹³ of a rounding tie. Requires `inv` normal and
/// `|zp| ≤ 256` (see [`quantize_slice_avx2`]). Every accepted lane equals
/// [`quantize_one`] — `clamp(round(x as f64 · inv) ⊕ zp, −128, 127)` —
/// by this argument:
///
/// * `p = x · (inv as f32)`, rounded to f32, differs from the reference's
///   `v = x as f64 · inv` by at most `|x·inv|·(2⁻²³ + 2⁻⁴⁷) + 2⁻¹⁵⁰`: one
///   f32 rounding of `inv` (relative 2⁻²⁴, `inv as f32` being normal),
///   one of the product (relative 2⁻²⁴, or absolute 2⁻¹⁵⁰ if it is
///   subnormal) and the reference's one f64 rounding (2⁻⁵³).
/// * Clamping `p` to `±512` cannot change the result: with `|zp| ≤ 256`,
///   any `|q| ≥ 512` saturates to the same end of `[−128, 127]`, and
///   `|p| ≥ 512` forces `|v| ≥ 512·(1 − 2⁻²¹) > 511.5`, so `round(v)` is
///   at least 512 in magnitude, with `p`'s sign. (NaN passes both clamps —
///   `vmaxps`/`vminps` return their second operand on NaN — and is
///   flagged below.)
/// * Below `|p| < 512` the two differ by less than 2⁻¹³·0.51. A lane is
///   accepted only if `d = |p − rne(p)| ≤ ½ − 2⁻¹³`, i.e. `p` is at least
///   2⁻¹³ from every half-integer; then `v` lies on the same side of every
///   half-integer, so `round(v)` (half away from zero) equals the nearest
///   integer to `p`, which is not a tie, so round-to-nearest-even finds
///   it. `d` is exact: `p` and `rne(p)` are f32 values less than ½ apart.
///   The `NLE_UQ` compare is also true for NaN, so one compare flags both.
/// * `rne(p) + zp` is an exact i32 in `[−768, 768]`, and the saturating
///   `vpackssdw`/`vpacksswb` narrowing is exactly the `[−128, 127]` clamp.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn quantize_block_f32(xs: &[f32; QBLOCK], c: &QuantLanesF32, out: &mut [i8; QBLOCK]) -> bool {
    use std::arch::x86_64::*;
    let mut q = [_mm256_setzero_si256(); 4];
    let mut flags = _mm256_setzero_ps();
    for (qv, x) in q.iter_mut().zip(xs.as_chunks::<8>().0) {
        // SAFETY: `x` is an 8-element array: 32 readable bytes.
        let p = _mm256_mul_ps(unsafe { _mm256_loadu_ps(x.as_ptr()) }, c.inv);
        let p = _mm256_min_ps(c.lim, _mm256_max_ps(c.neg_lim, p));
        let r = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(p);
        let d = _mm256_andnot_ps(c.sign_bit, _mm256_sub_ps(p, r));
        flags = _mm256_or_ps(flags, _mm256_cmp_ps::<_CMP_NLE_UQ>(d, c.tie));
        *qv = _mm256_add_epi32(_mm256_cvttps_epi32(r), c.zp);
    }
    if _mm256_movemask_ps(flags) != 0 {
        return false;
    }
    // The packs interleave 128-bit halves; the permute restores order.
    let bytes = _mm256_packs_epi16(
        _mm256_packs_epi32(q[0], q[1]),
        _mm256_packs_epi32(q[2], q[3]),
    );
    let bytes = _mm256_permutevar8x32_epi32(bytes, _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
    // SAFETY: `out` is a 32-byte array.
    unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), bytes) };
    true
}

/// Per-lane constants for the f64 quantizer, built once per slice.
#[cfg(target_arch = "x86_64")]
struct QuantLanes {
    inv: std::arch::x86_64::__m256d,
    zp: std::arch::x86_64::__m256d,
    nan_res: std::arch::x86_64::__m256d,
    lim: std::arch::x86_64::__m256d,
    neg_lim: std::arch::x86_64::__m256d,
    sign_bit: std::arch::x86_64::__m256d,
    one: std::arch::x86_64::__m256d,
    half: std::arch::x86_64::__m256d,
    lo: std::arch::x86_64::__m256d,
    hi: std::arch::x86_64::__m256d,
}

#[cfg(target_arch = "x86_64")]
impl QuantLanes {
    #[target_feature(enable = "avx2")]
    fn splat(inv_scale: f64, zp: i64) -> Self {
        use std::arch::x86_64::_mm256_set1_pd;
        QuantLanes {
            inv: _mm256_set1_pd(inv_scale),
            zp: _mm256_set1_pd(zp as f64),
            nan_res: _mm256_set1_pd(zp.clamp(QMIN as i64, QMAX as i64) as f64),
            lim: _mm256_set1_pd((1u64 << 40) as f64),
            neg_lim: _mm256_set1_pd(-((1u64 << 40) as f64)),
            sign_bit: _mm256_set1_pd(-0.0),
            one: _mm256_set1_pd(1.0),
            half: _mm256_set1_pd(0.5),
            lo: _mm256_set1_pd(QMIN as f64),
            hi: _mm256_set1_pd(QMAX as f64),
        }
    }
}

/// Quantizes four activations to four i32 lanes, bit-identical to
/// [`quantize_one`] — `clamp(round(x·inv) as i64 ⊕ zp, −128, 127)` — by
/// the following exactness argument, which holds for *every* input,
/// faulted scales and zero points included:
///
/// * `v = x as f64 · inv` is the same correctly-rounded IEEE multiply as
///   the scalar path.
/// * Pre-clamping `v` to `±2⁴⁰` cannot change the result: any `|v| ≥ 2⁴⁰`
///   (infinities included) rounds to an integer of magnitude ≥ 2⁴⁰, which
///   after adding `|zp| ≤ 2³¹` still lies far outside `[−128, 127]`, so
///   both paths saturate to the same endpoint.
/// * Round-half-away-from-zero is emulated exactly: `t = trunc(v)` makes
///   `d = v − t` exact (Sterbenz: `t ≤ 2v` componentwise), so
///   `q = t + copysign(1, v)·[|d| ≥ ½]` equals `v.round()` for every
///   representable `v`.
/// * `q + zp` is exact (`|q| ≤ 2⁴⁰`, `|zp| ≤ 2³¹`: an integer sum below
///   `2⁴¹ < 2⁵³`), the final `[−128, 127]` clamp compares exact integers,
///   and truncating f64→i32 conversion of an in-range integer is exact.
/// * NaN lanes (NaN activation, or a faulted scale making `inv` NaN or
///   `0·inf` appear) are blended with the scalar result for NaN input,
///   `clamp(0 + zp)`, before conversion — `as i64` maps NaN to 0.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn quantize_quad_avx2(xs: &[f32; 4], c: &QuantLanes) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::*;
    // SAFETY: `xs` is a 4-element array, so 16 readable bytes.
    let v = _mm256_cvtps_pd(unsafe { _mm_loadu_ps(xs.as_ptr()) });
    let v = _mm256_mul_pd(v, c.inv);
    let nan = _mm256_cmp_pd::<_CMP_UNORD_Q>(v, v);
    // max/min return the second operand on NaN, so NaN lanes pass through
    // as −2⁴⁰ here; the `nan` blend below overrides them regardless.
    let vc = _mm256_min_pd(_mm256_max_pd(v, c.neg_lim), c.lim);
    let t = _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(vc);
    let d = _mm256_sub_pd(vc, t);
    let absd = _mm256_andnot_pd(c.sign_bit, d);
    let ge_half = _mm256_cmp_pd::<_CMP_GE_OQ>(absd, c.half);
    let one_signed = _mm256_or_pd(_mm256_and_pd(vc, c.sign_bit), c.one);
    let q = _mm256_add_pd(t, _mm256_and_pd(ge_half, one_signed));
    let s = _mm256_add_pd(q, c.zp);
    let s = _mm256_min_pd(_mm256_max_pd(s, c.lo), c.hi);
    let s = _mm256_blendv_pd(s, c.nan_res, nan);
    _mm256_cvttpd_epi32(s)
}

/// Quantizes 32 activations through [`quantize_quad_avx2`], narrowed to
/// int8 with saturating packs that are no-ops because every lane is
/// already clamped to `[−128, 127]`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn quantize_block_f64(xs: &[f32; QBLOCK], c: &QuantLanes, out: &mut [i8; QBLOCK]) {
    use std::arch::x86_64::{_mm_packs_epi16, _mm_packs_epi32, _mm_storeu_si128};
    let (quads, _) = xs.as_chunks::<4>();
    for (half, dst) in quads.chunks_exact(4).zip(out.as_chunks_mut::<16>().0) {
        let ab = _mm_packs_epi32(
            quantize_quad_avx2(&half[0], c),
            quantize_quad_avx2(&half[1], c),
        );
        let cd = _mm_packs_epi32(
            quantize_quad_avx2(&half[2], c),
            quantize_quad_avx2(&half[3], c),
        );
        // SAFETY: `dst` is a 16-byte array.
        unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), _mm_packs_epi16(ab, cd)) };
    }
}

/// Requantization of an i32/i64 accumulator onto an int8 output grid:
/// multiply by the effective scale `in_scale * w_scale / out_scale` and
/// round.
///
/// The deployment path is [`Requant::Fixed`]: the real multiplier `m ∈ (0,
/// 1]`-ish is decomposed as `m = f · 2^e` with `f ∈ [0.5, 1)`, stored as a
/// Q31 integer `mult = round(f · 2³¹)` and a right shift — the accumulator
/// product then needs only integer arithmetic. Degenerate multipliers (a
/// fault flipping a scale to `NaN`, `inf`, zero or negative, or an exponent
/// outside the shift range) fall back to [`Requant::Float`], which is
/// deterministic under Rust's saturating float→int casts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Requant {
    /// Fixed-point path: `round(acc * mult / 2³¹⁺ᵉ)` via a Q31 multiply and
    /// rounding right shift.
    Fixed {
        /// Q31 mantissa in `[2³⁰, 2³¹)`.
        mult: i32,
        /// Total rounding right shift (`31 - e`).
        rshift: u32,
    },
    /// Double-precision fallback for degenerate multipliers.
    Float(f64),
}

impl Requant {
    /// Builds the requantizer for effective multiplier
    /// `in_scale * w_scale / out_scale`.
    pub fn from_scales(in_scale: f32, w_scale: f32, out_scale: f32) -> Self {
        let m = in_scale as f64 * w_scale as f64 / out_scale as f64;
        Requant::from_multiplier(m)
    }

    /// Decomposes `m` into the Q31 fixed-point form, or falls back to the
    /// float path when `m` is not a positive normal number or its exponent
    /// cannot be expressed as a right shift.
    pub fn from_multiplier(m: f64) -> Self {
        if !m.is_finite() || m <= 0.0 {
            return Requant::Float(m);
        }
        let bits = m.to_bits();
        let exp_field = ((bits >> 52) & 0x7ff) as i32;
        if exp_field == 0 {
            // Subnormal: effectively zero at int8 precision.
            return Requant::Float(m);
        }
        // m = f · 2^e with f ∈ [0.5, 1): force the exponent field to
        // `1022` (the biased exponent of 0.5) keeping the mantissa bits.
        let e = exp_field - 1022;
        let f = f64::from_bits((bits & !(0x7ffu64 << 52)) | (1022u64 << 52));
        let mut mult = (f * (1u64 << 31) as f64).round() as i64;
        let mut e = e;
        if mult == 1i64 << 31 {
            // f rounded up to 1.0: renormalise.
            mult >>= 1;
            e += 1;
        }
        let rshift = 31 - e;
        if !(1..=62).contains(&rshift) {
            // Multiplier ≥ 2³⁰ or vanishingly small: outside the shift
            // budget of the integer path.
            return Requant::Float(m);
        }
        Requant::Fixed {
            mult: mult as i32,
            rshift: rshift as u32,
        }
    }

    /// Rescales an accumulator: `round(acc * m)`, saturating to `i32`.
    pub fn apply(&self, acc: i64) -> i32 {
        match *self {
            Requant::Fixed { mult, rshift } => {
                apply_fixed(acc, mult as i64, 1i64 << (rshift - 1), rshift)
            }
            Requant::Float(m) => (acc as f64 * m).round() as i32,
        }
    }
}

thread_local! {
    static REQUANT_POOL: RefCell<Vec<Vec<Requant>>> = const { RefCell::new(Vec::new()) };
}

/// Per-column requantizers live in [`bdlfi_tensor::scratch`] buffers:
/// every quantized dense pass rebuilds them, and the campaign hot path
/// must not allocate for it.
impl Poolable for Requant {
    const ZERO: Self = Requant::Float(0.0);

    fn pool() -> &'static LocalKey<RefCell<Vec<Vec<Self>>>> {
        &REQUANT_POOL
    }
}

/// The [`Requant::Fixed`] arm: `round(acc · mult / 2^rshift)` rounding half
/// away from zero (matching `f64::round`), saturating to `i32`. Branchless
/// — requantization runs once per output element and accumulator signs are
/// data-dependent, so a sign branch here would mispredict half the time on
/// the campaign hot path. `(p ^ s) − s` with `s = p >> 63` is `|p|` for
/// every `p > i64::MIN`, and `i64::MIN` itself is unreachable: `|acc|`
/// is bounded by the i32 accumulator plus an i32 bias correction
/// (`< 2³³`) and `mult < 2³¹`.
#[inline(always)]
fn apply_fixed(acc: i64, mult: i64, bias: i64, rshift: u32) -> i32 {
    let prod = acc * mult;
    let sign = prod >> 63;
    let mag = (prod ^ sign) - sign;
    let shifted = (((mag + bias) >> rshift) ^ sign) - sign;
    shifted.clamp(i32::MIN as i64, i32::MAX as i64) as i32
}

/// Requantizes one corrected accumulator and dequantizes it to f32: the
/// op-boundary value `(clamp(requant(a) + zp_out) − zp_out) · out_scale`.
/// Shared by every batched helper below so the per-element semantics are
/// defined in exactly one place.
pub fn dequant_acc(requant: &Requant, a: i64, zp_out: i32, out_scale: f32) -> f32 {
    let q = (requant.apply(a) as i64 + zp_out as i64).clamp(-128, 127);
    ((q - zp_out as i64) as f64 * out_scale as f64) as f32
}

/// Batched requantization of a row-major `(rows, width)` accumulator block
/// with **per-output-channel** multipliers: column `j` is corrected by
/// `corrs[j]` (bias minus zero-point column sum, precomputed once per
/// pass) and requantized through `rqs[j]`. Writes the `rows · width` f32
/// boundary values to `dst`, in the accumulator's layout.
///
/// This is the one requant loop `QDense::forward` and the sparse-delta
/// `QDense::forward_cols` share: per-column faults on a weight scale stay
/// confined to their column precisely because nothing here mixes columns.
/// Under the `avx2` kernel variant (the default) a block inside the
/// 8-lane kernel's domain runs through [`requant_rows_avx2`]; anything
/// else, and `BDLFI_KERNEL=scalar|autovec`, takes the scalar reference.
///
/// # Panics
///
/// Panics if `acc.len()` is not a multiple of `width`, `dst` is not as
/// long as `acc`, or `rqs`/`corrs` are shorter than `width`.
pub fn requant_rows(
    acc: &[i32],
    width: usize,
    rqs: &[Requant],
    corrs: &[i64],
    zp_out: i32,
    out_scale: f32,
    dst: &mut [f32],
) {
    assert_eq!(acc.len() % width.max(1), 0, "accumulator not row-aligned");
    assert_eq!(dst.len(), acc.len(), "requant output length mismatch");
    let (rqs, corrs) = (&rqs[..width], &corrs[..width]);
    requant_rows_with(qdq_variant(), acc, rqs, corrs, zp_out, out_scale, dst);
}

/// [`requant_rows`] under one kernel variant, over `rqs.len()` columns:
/// `avx2` runs [`requant_rows_avx2`] when the CPU has AVX2 and the block
/// lies in its domain ([`RequantLanes::new`]), everything else the
/// reference.
fn requant_rows_with(
    variant: Variant,
    acc: &[i32],
    rqs: &[Requant],
    corrs: &[i64],
    zp_out: i32,
    out_scale: f32,
    dst: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if variant == Variant::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
        if let Some(lanes) = RequantLanes::new(rqs, corrs, zp_out) {
            // SAFETY: calling a `#[target_feature(enable = "avx2")]`
            // function is sound iff the CPU supports AVX2, which the
            // runtime check above guarantees; the kernel asserts its slice
            // bounds before any raw pointer arithmetic, and `lanes` exists
            // only inside the domain where its lane arithmetic is proven
            // identical to the reference (see its docs).
            return unsafe { requant_rows_avx2(acc, &lanes, zp_out, out_scale, dst) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = variant; // only the AVX2 dispatch reads it
    requant_rows_reference(acc, rqs, corrs, zp_out, out_scale, dst);
}

/// Scalar reference for the batched requantization loop; the oracle the
/// AVX2 kernel is checked against.
///
/// Column-major traversal hoists each column's requantizer out of the row
/// loop: the common `Fixed` arm runs with its multiplier, bias and
/// correction in registers and no per-element enum dispatch. The dequant
/// step is one table entry per grid code instead of per element — the
/// output grid has only 256 codes and `zp_out`/`out_scale` are
/// tensor-wide, so entry `q + 128` precomputes exactly the
/// `((q − zp) · scale)` chain [`dequant_acc`] would run: same i64
/// difference, same f64 multiply. Columns never mix (each inner loop
/// strides by `width`), preserving the fault-confinement contract above.
fn requant_rows_reference(
    acc: &[i32],
    rqs: &[Requant],
    corrs: &[i64],
    zp_out: i32,
    out_scale: f32,
    dst: &mut [f32],
) {
    let width = rqs.len();
    let rows = acc.len() / width.max(1);
    let zp = zp_out as i64;
    let mut lut = [0.0f32; 256];
    for (i, y) in lut.iter_mut().enumerate() {
        *y = ((i as i64 - 128 - zp) as f64 * out_scale as f64) as f32;
    }
    for (j, (rq, &corr)) in rqs.iter().zip(corrs).enumerate() {
        match *rq {
            Requant::Fixed { mult, rshift } => {
                let mult = mult as i64;
                let bias = 1i64 << (rshift - 1);
                for r in 0..rows {
                    let a = acc[r * width + j] as i64 + corr;
                    let q = (apply_fixed(a, mult, bias, rshift) as i64 + zp).clamp(-128, 127);
                    dst[r * width + j] = lut[(q + 128) as usize];
                }
            }
            rq => {
                for r in 0..rows {
                    let a = acc[r * width + j] as i64 + corr;
                    dst[r * width + j] = dequant_acc(&rq, a, zp_out, out_scale);
                }
            }
        }
    }
}

/// One period of [`requant_rows_avx2`]'s per-lane constants. Position `e`
/// of the row-major block belongs to column `e mod width`, so the
/// constants of consecutive 8-lane vectors repeat after
/// `period = lcm(width, 8)` positions. The scratch buffer holds four
/// `period`-long arrays: the doubled multipliers `2·mult` as u32 bit
/// patterns; the same for the odd lanes, moved down one lane (where
/// `vpmuludq` reads them); the shifts `rshift − 32`; the corrections.
#[cfg(target_arch = "x86_64")]
struct RequantLanes {
    buf: scratch::ScratchBuf<i32>,
    period: usize,
}

#[cfg(target_arch = "x86_64")]
impl RequantLanes {
    /// The lanes for `width = rqs.len()` columns, or `None` outside the
    /// 8-lane kernel's domain: a non-empty block whose every column is
    /// [`Requant::Fixed`] with `0 ≤ mult < 2³¹` and `rshift ∈ [32, 62]`
    /// (a multiplier below ½), with `|corr| < 2³⁰`, and `|zp_out| ≤ 256`.
    /// A calibrated layer always qualifies; a faulted weight scale or
    /// output zero point may not, and then takes the reference.
    fn new(rqs: &[Requant], corrs: &[i64], zp_out: i32) -> Option<Self> {
        let width = rqs.len();
        if width == 0 || zp_out.unsigned_abs() > 256 {
            return None;
        }
        let period = width / (1 << width.trailing_zeros().min(3)) * 8;
        let mut buf = scratch::take::<i32>(4 * period);
        let (mults, rest) = buf.split_at_mut(period);
        let (odd, rest) = rest.split_at_mut(period);
        let (shifts, cs) = rest.split_at_mut(period);
        for (j, (rq, &corr)) in rqs.iter().zip(corrs).enumerate() {
            let Requant::Fixed { mult, rshift } = *rq else {
                return None;
            };
            if mult < 0 || !(32..=62).contains(&rshift) || corr.unsigned_abs() >= 1 << 30 {
                return None;
            }
            let mult2 = ((mult as u32) << 1) as i32;
            for e in (j..period).step_by(width) {
                mults[e] = mult2;
                if e % 2 == 1 {
                    odd[e - 1] = mult2;
                }
                shifts[e] = rshift as i32 - 32;
                cs[e] = corr as i32;
            }
        }
        Some(RequantLanes { buf, period })
    }
}

/// Tensor-wide constants of the 8-lane requant chain.
#[cfg(target_arch = "x86_64")]
struct RequantConsts {
    one: std::arch::x86_64::__m256i,
    shift_mask: std::arch::x86_64::__m256i,
    lo: std::arch::x86_64::__m256i,
    hi: std::arch::x86_64::__m256i,
    scale: std::arch::x86_64::__m256,
}

/// The reference's per-element chain
/// `(clamp(apply_fixed(acc + corr) + zp, −128, 127) − zp) · scale` on eight
/// i32 lanes with their own doubled multiplier (`mult2 = 2·mult`, and
/// `mult2_odd` for the odd lanes), shift `s' = rshift − 32` and
/// correction. Identical lane for lane inside [`RequantLanes`]' domain:
///
/// * **Sign and magnitude of `a = acc + corr`.** `|acc| ≤ 2³¹` and
///   `|corr| < 2³⁰`, so `|a| < 1.5·2³¹`, while the i32 sum `t` may wrap.
///   When `acc` and `corr` differ in sign nothing wraps and `a = t`; when
///   they agree `a` has their sign, which `acc | corr` carries (zero only
///   if both are). So `g` — `t` or `acc | corr` by the sign of
///   `acc ⊕ corr` — has `a`'s sign and is zero only if `a` is, and
///   `vpsignd(t, g)` is `|a|` as a u32 whether or not `t` wrapped. (Inside
///   `QDense`, `|acc| ≤ k·2¹⁴ ≤ 2³⁰` and nothing wraps.) The reference's
///   `prod = a·mult` has `a`'s sign (`mult ≥ 0`; at `mult = 0` both sides
///   are 0).
/// * **The shift.** `|a|·2·mult < 1.5·2³¹·2³² = 1.5·2⁶³` is formed
///   exactly by `vpmuludq` on the even and odd lanes (`2·mult < 2³²` is a
///   u32), and its high dword is `x = ⌊|a|·mult / 2³¹⌋ < 1.5·2³¹` (a
///   `≫ 32` moves the even lanes' down; the odd lanes' sit in place).
///   The reference's rounding shift is
///   `⌊(|prod| + 2^(s−1)) / 2^s⌋ = ⌊(⌊x / 2^s'⌋ + 1) / 2⌋` (nested floor
///   divisions by powers of two compose), computed with `vpsrlvd`, `+ 1`
///   (no wrap: `x < 1.5·2³¹`) and `≫ 1`; the result `r` is below 2³¹, so
///   the reference's i32 clamp never acts, and `vpsignd(r, g)` gives it
///   `a`'s sign.
/// * **The clamp.** `clamp(r + zp, −128, 127) − zp` is
///   `clamp(r, −128 − zp, 127 − zp)`, exact in i32 for `|zp| ≤ 256`.
/// * **Dequantize.** `q − zp` is an integer in `[−384, 383]`, exact in
///   f32; the reference's f64 product of it and the f32 scale needs at
///   most 33 significant bits, so it is exact, and both paths round that
///   same exact product to f32 once — including overflow to ±∞, subnormal
///   results, signed zeros and NaN scales, whose quiet NaN passes through
///   either multiply unchanged.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn requant8(
    acc: std::arch::x86_64::__m256i,
    [mult2, mult2_odd, shift, corr]: [std::arch::x86_64::__m256i; 4],
    c: &RequantConsts,
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let t = _mm256_add_epi32(acc, corr);
    let g = _mm256_castps_si256(_mm256_blendv_ps(
        _mm256_castsi256_ps(_mm256_or_si256(acc, corr)),
        _mm256_castsi256_ps(t),
        _mm256_castsi256_ps(_mm256_xor_si256(acc, corr)),
    ));
    let mag = _mm256_sign_epi32(t, g);
    let even = _mm256_srli_epi64::<32>(_mm256_mul_epu32(mag, mult2));
    let odd = _mm256_mul_epu32(_mm256_srli_epi64::<32>(mag), mult2_odd);
    let x = _mm256_blend_epi32::<0b1010_1010>(even, odd);
    // `s' ≤ 30`; the mask lets the compiler emit a bare `vpsrlvd`
    // instead of guarding against counts of 32 and more.
    let shift = _mm256_and_si256(shift, c.shift_mask);
    let r = _mm256_srli_epi32::<1>(_mm256_add_epi32(_mm256_srlv_epi32(x, shift), c.one));
    let d = _mm256_min_epi32(_mm256_max_epi32(_mm256_sign_epi32(r, g), c.lo), c.hi);
    _mm256_mul_ps(_mm256_cvtepi32_ps(d), c.scale)
}

/// Hand-vectorized [`requant_rows_reference`] over the row-major block in
/// storage order, eight accumulators per step through [`requant8`], the
/// per-lane constants read from `lanes` at the step's phase within its
/// period; a short tail is padded into one more step. Every width,
/// including 1–3, runs here.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn requant_rows_avx2(
    acc: &[i32],
    lanes: &RequantLanes,
    zp_out: i32,
    out_scale: f32,
    dst: &mut [f32],
) {
    use std::arch::x86_64::*;
    let period = lanes.period;
    assert!(dst.len() == acc.len() && lanes.buf.len() == 4 * period && period.is_multiple_of(8));
    let c = RequantConsts {
        one: _mm256_set1_epi32(1),
        shift_mask: _mm256_set1_epi32(31),
        lo: _mm256_set1_epi32(-128 - zp_out),
        hi: _mm256_set1_epi32(127 - zp_out),
        scale: _mm256_set1_ps(out_scale),
    };
    // SAFETY: `q·period + p + 8 ≤ 4·period = lanes.buf.len()` for `q < 4`
    // (`p` is a multiple of 8 below `period`, itself a multiple of 8, as
    // asserted).
    let step = |a: __m256i, p: usize| unsafe {
        let at = |q: usize| _mm256_loadu_si256(lanes.buf.as_ptr().add(q * period + p).cast());
        requant8(a, [at(0), at(1), at(2), at(3)], &c)
    };
    let (accs, acc_tail) = acc.as_chunks::<8>();
    let (outs, out_tail) = dst.as_chunks_mut::<8>();
    let mut p = 0;
    for (a, y) in accs.iter().zip(outs) {
        // SAFETY: `a` and `y` are 8-element arrays: 32 bytes each.
        unsafe {
            let v = step(_mm256_loadu_si256(a.as_ptr().cast()), p);
            _mm256_storeu_ps(y.as_mut_ptr(), v);
        }
        p += 8;
        if p == period {
            p = 0;
        }
    }
    if !acc_tail.is_empty() {
        let mut a = [0i32; 8];
        let mut y = [0.0f32; 8];
        a[..acc_tail.len()].copy_from_slice(acc_tail);
        // SAFETY: `a` and `y` are 8-element arrays: 32 bytes each.
        unsafe {
            let v = step(_mm256_loadu_si256(a.as_ptr().cast()), p);
            _mm256_storeu_ps(y.as_mut_ptr(), v);
        }
        out_tail.copy_from_slice(&y[..out_tail.len()]);
    }
}

/// Batched requantization of one channel-major accumulator row (a conv
/// output channel over its pixels): every element shares the channel's
/// multiplier and correction. Appends `acc_row.len()` values to `out`.
pub fn requant_channel_into(
    acc_row: &[i32],
    rq: &Requant,
    corr: i64,
    zp_out: i32,
    out_scale: f32,
    out: &mut Vec<f32>,
) {
    for &a in acc_row {
        out.push(dequant_acc(rq, a as i64 + corr, zp_out, out_scale));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_range_covers_interval_and_zero() {
        let qp = QParams::from_range(-1.0, 3.0);
        assert_eq!(qp.quantize(0.0), qp.zero_point as i8);
        assert_eq!(qp.quantize(-1.0), QMIN as i8);
        assert_eq!(qp.quantize(3.0), QMAX as i8);
        // Round trip stays within half a step.
        for x in [-1.0f32, -0.3, 0.0, 0.7, 2.9] {
            let back = qp.dequantize(qp.quantize(x));
            assert!((back - x).abs() <= qp.scale / 2.0 + 1e-6, "{x} -> {back}");
        }
    }

    #[test]
    fn relu_style_range_keeps_zero_exact() {
        let qp = QParams::from_range(0.0, 6.0);
        assert_eq!(qp.zero_point, QMIN);
        assert_eq!(qp.dequantize(qp.quantize(0.0)), 0.0);
    }

    #[test]
    fn symmetric_weights_have_zero_zero_point() {
        let qp = QParams::symmetric(2.54);
        assert_eq!(qp.zero_point, 0);
        assert!((qp.scale - 2.54 / 127.0).abs() < 1e-7);
    }

    #[test]
    fn degenerate_ranges_fall_back_to_unit() {
        assert_eq!(QParams::from_range(0.0, 0.0), QParams::unit());
        // NaN endpoints collapse onto 0.0 (f32::min/max ignore NaN), so a
        // NaN min behaves like an all-positive range.
        assert_eq!(
            QParams::from_range(f32::NAN, 1.0),
            QParams::from_range(0.0, 1.0)
        );
        assert_eq!(QParams::from_range(f32::NAN, f32::NAN), QParams::unit());
        assert_eq!(QParams::symmetric(0.0), QParams::unit());
        assert_eq!(QParams::symmetric(f32::INFINITY), QParams::unit());
    }

    #[test]
    fn quantize_saturates_and_handles_nan() {
        let qp = QParams::from_range(-1.0, 1.0);
        assert_eq!(qp.quantize(1e30), QMAX as i8);
        assert_eq!(qp.quantize(-1e30), QMIN as i8);
        let _ = qp.quantize(f32::NAN); // must not panic
    }

    #[test]
    fn fixed_point_matches_float_reference() {
        for m in [0.5, 0.25, 0.0313725, 1.0 / 3.0, 0.9999, 1e-4, 2.5] {
            let r = Requant::from_multiplier(m);
            assert!(matches!(r, Requant::Fixed { .. }), "m={m} -> {r:?}");
            for acc in [-1_000_000i64, -12345, -1, 0, 1, 777, 2_000_003] {
                let want = (acc as f64 * m).round() as i64;
                let got = r.apply(acc) as i64;
                assert!((want - got).abs() <= 1, "m={m} acc={acc}: {want} vs {got}");
            }
        }
    }

    #[test]
    fn degenerate_multipliers_use_float_path() {
        assert!(matches!(
            Requant::from_multiplier(f64::NAN),
            Requant::Float(_)
        ));
        assert!(matches!(Requant::from_multiplier(0.0), Requant::Float(_)));
        assert!(matches!(Requant::from_multiplier(-1.0), Requant::Float(_)));
        assert!(matches!(
            Requant::from_multiplier(f64::INFINITY),
            Requant::Float(_)
        ));
        // Huge multiplier exceeds the shift budget but stays deterministic.
        let r = Requant::from_multiplier(1e30);
        assert_eq!(r.apply(2), i32::MAX); // saturating float→int cast
        let r = Requant::from_multiplier(f64::NAN);
        assert_eq!(r.apply(123), 0); // NaN casts to 0
    }

    #[test]
    fn quantize_slice_matches_per_element_quantize() {
        let qp = QParams::from_range(-2.3, 5.1);
        let xs: Vec<f32> = (-40..40)
            .map(|i| i as f32 * 0.173)
            .chain([0.0, -0.0, 1e30, -1e30, f32::NAN, f32::INFINITY])
            .collect();
        let mut dst = Vec::new();
        qp.quantize_slice_into(&xs, &mut dst);
        let want: Vec<i8> = xs.iter().map(|&x| qp.quantize(x)).collect();
        assert_eq!(dst, want);
        // Real zero must still quantize exactly to the zero point (padding
        // and ReLU zeros depend on it).
        assert_eq!(qp.quantize(0.0), qp.zero_point as i8);
    }

    const VARIANTS: [Variant; 3] = [Variant::Scalar, Variant::Autovec, Variant::Avx2];

    /// Every variant of the quantizer against the scalar oracle, over the
    /// value classes the exactness proofs enumerate: exact half-ties on
    /// dyadic grids and one ulp either side, signed zeros, subnormals,
    /// infinities, quiet and signalling NaNs of both signs, the grid's ends
    /// 127 and −128 exactly, `|x·inv|` near 2⁹ (the f32 lanes' clamp), 2²⁴,
    /// and 2⁴⁰ and 2⁴¹ (the f64 lanes' pre-clamp) —
    /// crossed with degenerate (faulted) scales, reciprocals whose `as f32`
    /// overflows or underflows, zero points either side of ±256, and
    /// slice lengths 0–40 at several offsets (plus 48 and the whole set),
    /// so every tail and every lane sees the specials.
    #[test]
    fn avx2_quantizer_is_bit_identical_to_reference() {
        let ulps = |x: f32| {
            [
                f32::from_bits(x.to_bits() - 1),
                x,
                f32::from_bits(x.to_bits() + 1),
            ]
        };
        let mut xs: Vec<f32> = Vec::new();
        for t in [
            0.5f32, 1.5, 2.5, 126.5, 127.5, 128.5, 255.5, 511.5, 512.5, 1023.5,
        ] {
            for x in ulps(t) {
                xs.extend([x, -x, x / 4.0, -x / 4.0, x * 2.0, x / 2.0]);
            }
        }
        for big in [
            512.0f32,
            1.0 / 64.0,
            (1u32 << 24) as f32,
            (1u64 << 40) as f32,
        ] {
            for x in ulps(big) {
                xs.extend([x, -x, x + 0.5, -(x + 0.5)]);
            }
        }
        xs.extend([
            0.0f32,
            -0.0,
            1e-38,
            -1e-38,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            3.4e38,
            -3.4e38,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7fc0_0000),
            f32::from_bits(0xffc0_0000),
            f32::from_bits(0x7f80_0001),
            f32::from_bits(0xff80_0001),
            f32::from_bits(0x7fa0_0000),
            0.49999997,
            -0.49999997,
            127.0,
            -128.0,
            127.49,
            -128.49,
            (1u64 << 41) as f32,
            -((1u64 << 41) as f32),
        ]);
        xs.extend((-300..300).map(|i| i as f32 * 0.37));
        let invs = [
            1.0f64,
            2.0,
            0.5,
            0.25,
            4.0,
            0.013,
            1.0 / 3.0,
            1e12,
            // `inv as f32` overflows (a subnormal f32 scale) or is not normal.
            1.0 / f64::from(f32::from_bits(1)),
            1e39,
            1e-39,
            1e-50,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            0.0,
            -7.5,
        ];
        let zps = [
            0i64,
            -3,
            117,
            256,
            -256,
            257,
            -257,
            i32::MAX as i64,
            i32::MIN as i64,
        ];
        for &inv in &invs {
            for &zp in &zps {
                let mut windows = vec![&xs[..], &xs[..48]];
                for len in 0..=40 {
                    for off in [0, 7, 29, xs.len() - 40] {
                        windows.push(&xs[off..off + len]);
                    }
                }
                for src in windows {
                    let mut want = vec![0i8; src.len()];
                    quantize_slice_reference(src, inv, zp, &mut want);
                    for v in VARIANTS {
                        let mut got = vec![0i8; src.len()];
                        quantize_slice_with(v, src, inv, zp, &mut got);
                        assert_eq!(got, want, "{v:?} inv={inv} zp={zp} len={}", src.len());
                    }
                }
            }
        }
    }

    /// Every variant of the batched requantizer against the per-element
    /// chain [`dequant_acc`], bit for bit, across the 8-lane kernel's
    /// domain edges: widths around the 8-lane vector and its period, row
    /// counts that leave every tail, accumulators at `±k·2¹⁴` and the i32
    /// extremes, corrections at and beyond `±(2³⁰ − 1)`, `Fixed` columns
    /// with `rshift ∈ {1, 31, 32, 62}` and exact rounding ties, `Float`
    /// columns (NaN, ±∞, 0, negative and subnormal multipliers), zero
    /// points either side of ±256, and special output scales.
    #[test]
    fn requant_rows_matches_per_element_chain() {
        let fixed = |mult: i32, rshift: u32| Requant::Fixed { mult, rshift };
        let in_domain = [
            Requant::from_multiplier(0.031),
            Requant::from_multiplier(0.25),
            Requant::from_multiplier(0.375),
            Requant::from_multiplier(1e-4),
            Requant::from_multiplier(1.0 / 3.0),
            fixed(1 << 30, 32),
            fixed(i32::MAX, 32),
            fixed(i32::MAX, 62),
            fixed(3 << 29, 62),
        ];
        let outside = [
            Requant::from_multiplier(0.9),
            fixed(1 << 30, 31),
            fixed(i32::MAX, 1),
            Requant::from_multiplier(f64::NAN),
            Requant::from_multiplier(f64::INFINITY),
            Requant::from_multiplier(f64::NEG_INFINITY),
            Requant::from_multiplier(0.0),
            Requant::from_multiplier(-0.3),
            Requant::from_multiplier(1e-310),
        ];
        assert!(in_domain
            .iter()
            .all(|rq| matches!(rq, Requant::Fixed { rshift, .. } if (32..=62).contains(rshift))));
        let small_corrs = [0i64, 5, -17, 0, 1, -1, 0];
        let edge_corrs = [(1 << 30) - 1, 1 - (1 << 30), 0, -3];
        let beyond_corrs = [1 << 30, -(1 << 30), 0];
        // Column sets: the fast path's domain with small and extreme
        // corrections, then one column at a time pushed outside it.
        let mut sets: Vec<(Vec<Requant>, &[i64])> = vec![
            (in_domain.to_vec(), &small_corrs),
            (in_domain.to_vec(), &edge_corrs),
            (in_domain.to_vec(), &beyond_corrs),
        ];
        for &rq in &outside {
            let mut cols = in_domain.to_vec();
            cols[2] = rq;
            sets.push((cols, &small_corrs));
        }
        let k_acc = [2i32 << 14, 64 << 14, 1 << 30];
        let acc_at = |i: usize| -> i32 {
            match i % 13 {
                0 => i32::MIN,
                1 => i32::MAX,
                2 => k_acc[i % 3],
                3 => -k_acc[i % 3],
                4 => [2, 4, 12, -2, -4, -12, 6][i % 7],
                5 => i32::MIN + 1,
                _ => (i as i32).wrapping_mul(7919) - 40000,
            }
        };
        let check =
            |cols: &[Requant], corrs: &[i64], w: usize, rows: usize, zp: i32, scale: f32| {
                let rqs: Vec<Requant> = (0..w).map(|j| cols[j % cols.len()]).collect();
                let cs: Vec<i64> = (0..w).map(|j| corrs[j % corrs.len()]).collect();
                let acc: Vec<i32> = (0..rows * w).map(acc_at).collect();
                let want: Vec<u32> = acc
                    .iter()
                    .enumerate()
                    .map(|(i, &a)| {
                        dequant_acc(&rqs[i % w], a as i64 + cs[i % w], zp, scale).to_bits()
                    })
                    .collect();
                for v in VARIANTS {
                    let mut got = vec![0.0f32; acc.len()];
                    requant_rows_with(v, &acc, &rqs, &cs, zp, scale, &mut got);
                    let got: Vec<u32> = got.iter().map(|y| y.to_bits()).collect();
                    assert_eq!(
                        got, want,
                        "{v:?} width={w} rows={rows} zp={zp} scale={scale}"
                    );
                }
            };
        let zps = [0, -3, 127, -127, 256, -256, 257, -257, i32::MIN, i32::MAX];
        for (cols, corrs) in &sets {
            for w in [1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33] {
                for rows in [1, 7, 8, 300] {
                    for zp in zps {
                        check(cols, corrs, w, rows, zp, 0.05);
                    }
                }
            }
        }
        for scale in [1e-40f32, -2.5, 0.0, f32::MAX, f32::INFINITY, f32::NAN] {
            for zp in [0, -256, 256] {
                check(&in_domain, &small_corrs, 9, 7, zp, scale);
            }
        }
        // The public entry point slices `rqs`/`corrs` to `width` and
        // agrees with the channel-major helper at width 1.
        let rqs = [in_domain[0], in_domain[4], outside[0]];
        let acc: Vec<i32> = (0..12).map(|i| i * 7919 - 40000).collect();
        let mut ref1 = vec![0.0; acc.len()];
        requant_rows(&acc, 1, &rqs[1..], &[-17, 99], -3, 0.05, &mut ref1);
        let mut ch = Vec::new();
        requant_channel_into(&acc, &rqs[1], -17, -3, 0.05, &mut ch);
        assert_eq!(ch, ref1);
    }

    #[test]
    fn rounding_is_half_away_from_zero_both_signs() {
        let r = Requant::from_multiplier(0.5);
        assert_eq!(r.apply(3), 2); // 1.5 -> 2
        assert_eq!(r.apply(-3), -2); // -1.5 -> -2 (away from zero)
        assert_eq!(r.apply(5), 3); // 2.5 -> 3
        assert_eq!(r.apply(-5), -3);
    }
}
