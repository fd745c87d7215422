//! Per-tensor affine quantization parameters and the fixed-point
//! requantization pipeline.
//!
//! The scheme is the standard deployment recipe (Jacob et al., "Quantization
//! and Training of Neural Networks for Efficient Integer-Arithmetic-Only
//! Inference", CVPR 2018): asymmetric int8 activations, symmetric int8
//! weights, i32 accumulators, and a per-layer fixed-point multiplier that
//! rescales accumulators back to the output's int8 grid without touching
//! floating point on the hot path.

#[cfg(target_arch = "x86_64")]
use bdlfi_tensor::scratch;
use serde::{Deserialize, Serialize};

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
    /// — so on AVX2 hosts it runs through a hand-vectorized kernel
    /// ([`quantize_slice_avx2`]) that is bit-identical to the scalar
    /// reference by the exactness argument in its docs.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() != src.len()`.
    pub fn quantize_slice_to(&self, src: &[f32], dst: &mut [i8]) {
        assert_eq!(dst.len(), src.len(), "quantize_slice_to length mismatch");
        let inv = self.inv_scale();
        let zp = self.zero_point as i64;
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: calling a `#[target_feature(enable = "avx2")]`
            // function is sound iff the CPU supports AVX2, which the
            // runtime `is_x86_feature_detected!` check on the line above
            // guarantees; the intrinsics inside index through safe slices
            // only, so feature availability is the only proof obligation.
            return unsafe { quantize_slice_avx2(src, inv, zp, dst) };
        }
        quantize_slice_reference(src, inv, zp, dst);
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

/// Scalar reference loop for [`QParams::quantize_slice_to`]; the oracle
/// the AVX2 kernel below is checked against.
#[inline(always)]
fn quantize_slice_reference(src: &[f32], inv_scale: f64, zp: i64, dst: &mut [i8]) {
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = quantize_one(x, inv_scale, zp);
    }
}

/// Per-lane constants for the vectorized quantizer, built once per slice.
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

/// Hand-vectorized [`quantize_slice_reference`]: 16 activations per
/// iteration through [`quantize_quad_avx2`], narrowed to int8 with
/// saturating packs that are no-ops because every lane is already clamped
/// to `[−128, 127]`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn quantize_slice_avx2(src: &[f32], inv_scale: f64, zp: i64, dst: &mut [i8]) {
    use std::arch::x86_64::*;
    let c = QuantLanes {
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
    };
    let mut i = 0;
    while i + 16 <= src.len() {
        // bdlfi-lint: allow(BD010) -- infallible: the slice is exactly 4 bytes by the window arithmetic above
        let quad = |o: usize| quantize_quad_avx2((&src[o..o + 4]).try_into().unwrap(), &c);
        let ab = _mm_packs_epi32(quad(i), quad(i + 4));
        let cd = _mm_packs_epi32(quad(i + 8), quad(i + 12));
        let bytes = _mm_packs_epi16(ab, cd);
        // SAFETY: the loop condition guarantees 16 writable bytes at `i`.
        unsafe { _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), bytes) };
        i += 16;
    }
    quantize_slice_reference(&src[i..], inv_scale, zp, &mut dst[i..]);
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
    let rqs = &rqs[..width];
    let corrs = &corrs[..width];
    #[cfg(target_arch = "x86_64")]
    if width >= 4
        && rqs
            .iter()
            .all(|rq| matches!(rq, Requant::Fixed { rshift, .. } if (1..=63).contains(rshift)))
        && std::arch::is_x86_feature_detected!("avx2")
    {
        // SAFETY: calling a `#[target_feature(enable = "avx2")]` function
        // is sound iff the CPU supports AVX2, which the runtime
        // `is_x86_feature_detected!` check on the line above guarantees;
        // the intrinsics inside assert their slice bounds before any raw
        // pointer arithmetic. The `all-Fixed, rshift ∈ 1..=63` gate
        // restricts the kernel to the domain where its lane arithmetic is
        // proven identical to the scalar reference (see its docs).
        return unsafe { requant_rows_avx2(acc, width, rqs, corrs, zp_out, out_scale, dst) };
    }
    requant_rows_reference(acc, width, rqs, corrs, zp_out, out_scale, dst);
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
    width: usize,
    rqs: &[Requant],
    corrs: &[i64],
    zp_out: i32,
    out_scale: f32,
    dst: &mut [f32],
) {
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

/// `clamp` on signed i64 lanes (`vpcmpgtq` + byte blend; the compare masks
/// are uniform per lane, so the byte-granular blend selects whole lanes).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn clamp64(
    v: std::arch::x86_64::__m256i,
    lo: std::arch::x86_64::__m256i,
    hi: std::arch::x86_64::__m256i,
) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::{_mm256_blendv_epi8, _mm256_cmpgt_epi64};
    let v = _mm256_blendv_epi8(v, hi, _mm256_cmpgt_epi64(v, hi));
    _mm256_blendv_epi8(v, lo, _mm256_cmpgt_epi64(lo, v))
}

/// Hand-vectorized [`requant_rows_reference`] for the all-[`Requant::Fixed`]
/// case: four columns per group, the group's multipliers, rounding biases,
/// corrections and shifts held in i64 lanes across the row loop.
///
/// Lane-for-lane identity with the scalar chain
/// `clamp(clamp₃₂(apply_fixed) + zp) → (q − zp)·scale`:
///
/// * The 64×64→64 product is assembled from `vpmuludq` partial products
///   (`lo·lo + ((lo·hi + hi·lo) ≪ 32)`), which is the full wrapping
///   product mod 2⁶⁴ — the same value release-mode `a * mult` produces,
///   and well inside i64 for every reachable input (`|a| < 2³³`,
///   `mult < 2³¹`).
/// * `apply_fixed` is already branchless sign-magnitude arithmetic, so
///   its xor/sub/shift sequence transcribes lane-for-lane; the gate at
///   the dispatch site pins `rshift ∈ 1..=63`, where scalar `>>` and
///   `vpsrlvq` agree (the shifted magnitude is non-negative, so the
///   scalar arithmetic shift is a logical one).
/// * Both clamps compare exact i64 lane values ([`clamp64`]).
/// * The dequant step computes `(q as f64 − zp as f64) · scale`: `q` and
///   `zp` are exact in f64 and their difference (≤ 2³¹ + 128 < 2⁵³) is
///   exact, so it equals the scalar `(q − zp) as f64` to the last bit,
///   and `vcvtpd2ps` rounds exactly like `as f32`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn requant_rows_avx2(
    acc: &[i32],
    width: usize,
    rqs: &[Requant],
    corrs: &[i64],
    zp_out: i32,
    out_scale: f32,
    dst: &mut [f32],
) {
    use std::arch::x86_64::*;
    let rows = acc.len() / width;
    assert!(acc.len() >= rows * width && dst.len() >= rows * width);
    assert!(corrs.len() >= width);
    let mut mults = scratch::take::<i64>(width);
    let mut biases = scratch::take::<i64>(width);
    let mut shifts = scratch::take::<i64>(width);
    for (j, rq) in rqs[..width].iter().enumerate() {
        match *rq {
            Requant::Fixed { mult, rshift } => {
                mults[j] = mult as i64;
                biases[j] = 1i64 << (rshift - 1);
                shifts[j] = rshift as i64;
            }
            // Unreachable by the dispatch gate; keep the kernel total.
            // bdlfi-lint: allow(BD010) -- unreachable by the all-Fixed dispatch gate directly above
            Requant::Float(_) => unreachable!("requant_rows_avx2 requires all-Fixed columns"),
        }
    }
    let zero = _mm256_setzero_si256();
    let i32_lo = _mm256_set1_epi64x(i32::MIN as i64);
    let i32_hi = _mm256_set1_epi64x(i32::MAX as i64);
    let q_lo = _mm256_set1_epi64x(-128);
    let q_hi = _mm256_set1_epi64x(127);
    let zp = _mm256_set1_epi64x(zp_out as i64);
    let zp_f = _mm256_set1_pd(zp_out as f64);
    let scale = _mm256_set1_pd(out_scale as f64);
    let even = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    for g in 0..width / 4 {
        let j = g * 4;
        // SAFETY: `j + 4 ≤ width` and every per-column array holds at
        // least `width` i64, so each 32-byte unaligned load is in bounds.
        let (mult, bias, corr, shift) = unsafe {
            (
                _mm256_loadu_si256(mults.as_ptr().add(j).cast()),
                _mm256_loadu_si256(biases.as_ptr().add(j).cast()),
                _mm256_loadu_si256(corrs.as_ptr().add(j).cast()),
                _mm256_loadu_si256(shifts.as_ptr().add(j).cast()),
            )
        };
        let mult_hi = _mm256_srli_epi64(mult, 32);
        for r in 0..rows {
            let o = r * width + j;
            // SAFETY: `o + 4 ≤ rows·width ≤ acc.len()`/`dst.len()`
            // (asserted above), so the 16-byte load and store are in
            // bounds.
            let a32 = unsafe { _mm_loadu_si128(acc.as_ptr().add(o).cast()) };
            let a = _mm256_add_epi64(_mm256_cvtepi32_epi64(a32), corr);
            let a_hi = _mm256_srli_epi64(a, 32);
            let lolo = _mm256_mul_epu32(a, mult);
            let cross =
                _mm256_add_epi64(_mm256_mul_epu32(a, mult_hi), _mm256_mul_epu32(a_hi, mult));
            let prod = _mm256_add_epi64(lolo, _mm256_slli_epi64(cross, 32));
            let sign = _mm256_cmpgt_epi64(zero, prod);
            let mag = _mm256_sub_epi64(_mm256_xor_si256(prod, sign), sign);
            let sh = _mm256_srlv_epi64(_mm256_add_epi64(mag, bias), shift);
            let shifted = _mm256_sub_epi64(_mm256_xor_si256(sh, sign), sign);
            let s = clamp64(shifted, i32_lo, i32_hi);
            let q = clamp64(_mm256_add_epi64(s, zp), q_lo, q_hi);
            let q32 = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(q, even));
            let y = _mm256_cvtpd_ps(_mm256_mul_pd(
                _mm256_sub_pd(_mm256_cvtepi32_pd(q32), zp_f),
                scale,
            ));
            // SAFETY: see the load above — same bound.
            unsafe { _mm_storeu_ps(dst.as_mut_ptr().add(o), y) };
        }
    }
    // Remainder columns (width mod 4) take the scalar reference chain.
    let zp_s = zp_out as i64;
    for j in (width / 4) * 4..width {
        let (mult, bias, rshift, corr) = (mults[j], biases[j], shifts[j] as u32, corrs[j]);
        for r in 0..rows {
            let a = acc[r * width + j] as i64 + corr;
            let q = (apply_fixed(a, mult, bias, rshift) as i64 + zp_s).clamp(-128, 127);
            dst[r * width + j] = ((q - zp_s) as f64 * out_scale as f64) as f32;
        }
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

    /// The hand-vectorized quantizer against the scalar oracle, over the
    /// value classes its exactness proof enumerates: half-way ties both
    /// signs, signed zeros, subnormals, the ±2⁴⁰ pre-clamp boundary,
    /// infinities and NaN — crossed with degenerate (faulted) scales and
    /// zero points, and at lengths that cover remainder tails.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_quantizer_is_bit_identical_to_reference() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let big = (1u64 << 40) as f32;
        let xs: Vec<f32> = [
            0.5f32,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.49999997,
            -0.49999997,
            0.0,
            -0.0,
            1e-38,
            -1e-38,
            f32::MIN_POSITIVE,
            big,
            -big,
            big * 2.0,
            -big * 2.0,
            3.4e38,
            -3.4e38,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            127.0,
            -128.0,
            127.49,
            -128.49,
        ]
        .into_iter()
        .chain((-300..300).map(|i| i as f32 * 0.37))
        .collect();
        let invs = [
            1.0f64,
            0.013,
            1.0 / 3.0,
            1e12,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            0.0,
            -7.5,
        ];
        let zps = [0i64, -3, 117, i32::MAX as i64, i32::MIN as i64];
        for &inv in &invs {
            for &zp in &zps {
                for len in [0usize, 1, 15, 16, 17, 48, xs.len()] {
                    let src = &xs[..len];
                    let mut want = vec![0i8; len];
                    quantize_slice_reference(src, inv, zp, &mut want);
                    let mut got = vec![0i8; len];
                    // SAFETY: guarded by the `is_x86_feature_detected!`
                    // early-return at the top of the test.
                    unsafe { quantize_slice_avx2(src, inv, zp, &mut got) };
                    assert_eq!(got, want, "inv={inv} zp={zp} len={len}");
                }
            }
        }
    }

    #[test]
    fn requant_rows_matches_per_element_chain() {
        let rqs = [
            Requant::from_multiplier(0.031),
            Requant::from_multiplier(1.0 / 3.0),
            Requant::from_multiplier(0.9),
        ];
        let corrs = [5i64, -17, 0];
        let acc: Vec<i32> = (0..12).map(|i| i * 7919 - 40000).collect();
        let mut got = vec![0.0; acc.len()];
        requant_rows(&acc, 3, &rqs, &corrs, -3, 0.05, &mut got);
        let mut want = Vec::new();
        for row in acc.chunks_exact(3) {
            for j in 0..3 {
                want.push(dequant_acc(&rqs[j], row[j] as i64 + corrs[j], -3, 0.05));
            }
        }
        assert_eq!(got, want);
        // The channel-major helper agrees with the row helper at width 1.
        let mut ch = Vec::new();
        requant_channel_into(&acc, &rqs[1], corrs[1], -3, 0.05, &mut ch);
        let mut ref1 = vec![0.0; acc.len()];
        requant_rows(&acc, 1, &rqs[1..2], &corrs[1..2], -3, 0.05, &mut ref1);
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
