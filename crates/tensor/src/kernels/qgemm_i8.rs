//! Int8 GEMM micro-kernel variants: scalar, autovectorized, and a
//! hand-written AVX2 `maddubs` kernel.
//!
//! All variants compute `C += A · B` exactly in `i32` over row-major
//! `i8` operands. Integer accumulation is associative, so — unlike the
//! f32 side — *any* blocking, padding, and instruction choice produces
//! bit-identical results; the only obligation is that no intermediate
//! step can overflow or saturate. That obligation is discharged by
//! construction (see [`K_MAX`] and the maddubs layout below), never by
//! assuming benign weights: fault injection makes `-128` weights and
//! extreme activations routine inputs here.
//!
//! # The maddubs kernel and the signed-offset trick
//!
//! AVX2 has no i8×i8 multiply; `_mm256_maddubs_epi16` multiplies
//! **unsigned** bytes by signed bytes, summing adjacent byte pairs into
//! saturating `i16` lanes. The kernel therefore:
//!
//! 1. offsets activations to unsigned: `a' = a + 128` (a byte XOR with
//!    `0x80`), so `a' ∈ [0, 255]`;
//! 2. packs each operand as **zero-interleaved pairs** — the 4-byte group
//!    for k-pair `(2g, 2g+1)` is `(x(2g), 0, x(2g+1), 0)` — so each
//!    `i16` lane of the maddubs result holds exactly **one** product plus
//!    a zero: `|a'·b| ≤ 255·128 = 32640 < 32767`. Saturation is
//!    impossible *by construction*, for every input including faulted
//!    `b = -128`, without any assumption on `k`;
//! 3. widens pairs to `i32` with `_mm256_madd_epi16(p, 1)` and
//!    accumulates: each `i32` lane is the k-pair sum for one output
//!    column;
//! 4. removes the offset at write-back. The raw accumulator holds
//!    `Σ (a+128)·b = Σ a·b + 128·Σ b`, so subtracting
//!    `corr[j] = 128·Σ_block b[l][j]` — an exact per-column integer
//!    computed while packing `B` — recovers the true block contribution.
//!
//! Every step is exact integer arithmetic, so the maddubs kernel is
//! bit-identical to the scalar triple loop at every block size.

#[cfg(target_arch = "x86_64")]
use super::gemm_f32::transpose8x8;
use super::{Selection, ShapeClass, Tile, Variant, KC, MR, NR};
use crate::scratch;

/// Maximum contraction depth accepted by every int8 GEMM variant.
///
/// The binding constraint is the `i32` output accumulator: with faulted
/// weights both operands reach magnitude 128, so `|Σ_k a·b| ≤ k·2¹⁴` and
/// `k = 2¹⁶` still leaves 2× headroom below `i32::MAX`. The maddubs
/// stages impose **no** k-dependent bound: each `i16` lane holds a single
/// product (≤ 32640, see the module docs), and the per-block raw
/// accumulator is bounded by `KC·32640 ≈ 8.4M` independent of `k`.
/// (The previous bound of 100 000 was derived from `k·127·127` — unfaulted
/// weights — and left under 1.4× margin once a flip makes a weight
/// `-128`.)
pub const K_MAX: usize = 65_536;

/// Runs the selected int8 variant over row-major operands.
pub(crate) fn run(sel: Selection, m: usize, n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    match sel.variant {
        Variant::Scalar => scalar(m, n, k, a, b, c),
        _ if super::classify(m, n, k) == ShapeClass::Skinny => skinny(m, n, k, a, b, c),
        Variant::Autovec => blocked_autovec(sel.tile, m, n, k, a, b, c),
        Variant::Avx2 => {
            // The maddubs path has its own pack format, so the
            // no-AVX2 downgrade happens here, before packing; the
            // per-tile dispatch below re-checks the feature bit because
            // soundness must not depend on this branch.
            if super::avx2_available() {
                blocked_maddubs(sel.tile, m, n, k, a, b, c)
            } else {
                blocked_autovec(sel.tile, m, n, k, a, b, c)
            }
        }
    }
}

/// Runs the int8 GEMM through one specific variant with the default
/// packed tile — the hook equivalence and property tests drive each
/// variant through directly. Requesting [`Variant::Avx2`] on a host
/// without AVX2 runs the autovectorized kernel instead (bit-identical,
/// since int8 accumulation is exact).
pub fn qgemm_i8_with(
    variant: Variant,
    m: usize,
    n: usize,
    k: usize,
    a: &[i8],
    b: &[i8],
    c: &mut [i32],
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    run(
        Selection {
            variant,
            tile: Tile::packed(64, 256),
        },
        m,
        n,
        k,
        a,
        b,
        c,
    )
}

/// Direct triple loop, `i32` accumulation. The bound asserted here is the
/// same one the SIMD variants assert: see [`K_MAX`].
fn scalar(m: usize, n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    assert!(k <= K_MAX, "qgemm scalar: k={k} exceeds K_MAX={K_MAX}");
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for (j, cj) in c[i * n..(i + 1) * n].iter_mut().enumerate() {
            let mut acc = 0i32;
            for (l, &av) in arow.iter().enumerate() {
                acc += i32::from(av) * i32::from(b[l * n + j]);
            }
            *cj += acc;
        }
    }
}

// ---------------------------------------------------------------------------
// Skinny body: one output element per SIMD lane.
// ---------------------------------------------------------------------------

/// Lanes of one skinny row group: each owns one output row.
const SK_LANES: usize = 16;
/// Output columns one skinny pass reduces together.
const SK_COLS: usize = 4;

/// The skinny body of the packed variants ([`ShapeClass::Skinny`]): each
/// SIMD lane owns one output element, across the rows of `C` when
/// `n < NR` and across its columns otherwise (`k < 8`), which are the rows
/// of `Cᵀ = Bᵀ·Aᵀ`. Exact `i32` accumulation, as in every variant.
fn skinny(m: usize, n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    assert!(k <= K_MAX, "qgemm skinny: k={k} exceeds K_MAX={K_MAX}");
    if n < NR {
        skinny_lanes_i8(m, n, k, (a, (k, 1)), (b, (n, 1)), c, (n, 1));
    } else {
        skinny_lanes_i8(n, m, k, (b, (1, n)), (a, (1, k)), c, (1, n));
    }
}

/// A strided int8 operand: element `(i, l)` at `data[i·rs + l·cs]`.
type StridedI8<'a> = (&'a [i8], (usize, usize));

/// `C(i, j) += Σ_l X(i, l)·Y(l, j)` for `i < p`, `j < q`, with `C(i, j)` at
/// `c[i·c_rs + j·c_cs]` and lanes across `i`; dispatches to an
/// AVX2-compiled copy when the CPU supports it.
fn skinny_lanes_i8(
    p: usize,
    q: usize,
    k: usize,
    x: StridedI8,
    y: StridedI8,
    c: &mut [i32],
    c_str: (usize, usize),
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: calling a `#[target_feature(enable = "avx2")]` function
        // is sound iff the CPU supports AVX2, which the runtime check on
        // the line above guarantees. Its body is safe Rust over ordinary
        // slices, so feature availability is the only proof obligation.
        return unsafe { skinny_lanes_i8_avx2(p, q, k, x, y, c, c_str) };
    }
    skinny_lanes_i8_body(p, q, k, x, y, c, c_str);
}

/// [`skinny_lanes_i8_body`] recompiled with AVX2 codegen.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn skinny_lanes_i8_avx2(
    p: usize,
    q: usize,
    k: usize,
    x: StridedI8,
    y: StridedI8,
    c: &mut [i32],
    c_str: (usize, usize),
) {
    skinny_lanes_i8_body(p, q, k, x, y, c, c_str);
}

#[inline(always)]
fn skinny_lanes_i8_body(
    p: usize,
    q: usize,
    k: usize,
    (x, (x_rs, x_cs)): StridedI8,
    (y, (y_rs, y_cs)): StridedI8,
    c: &mut [i32],
    (c_rs, c_cs): (usize, usize),
) {
    // Operands are widened to `i32` while packing, so the inner loop is a
    // plain `i32` multiply-add; `KC` blocks only bound the buffers, since
    // integer accumulation is exact in any order.
    let kmax = KC.min(k);
    let mut buf = scratch::take::<i32>(kmax * (SK_LANES + SK_COLS));
    let (xt, yt) = buf.split_at_mut(kmax * SK_LANES);
    for lc in (0..k).step_by(KC) {
        let kc = KC.min(k - lc);
        for i0 in (0..p).step_by(SK_LANES) {
            let lanes = SK_LANES.min(p - i0);
            pack_lanes_i8(xt, (x, (x_rs, x_cs)), i0, lanes, lc, kc);
            let (xs, _) = xt[..kc * SK_LANES].as_chunks::<SK_LANES>();
            for j0 in (0..q).step_by(SK_COLS) {
                let cols = SK_COLS.min(q - j0);
                for (l, row) in yt.as_chunks_mut::<SK_COLS>().0[..kc].iter_mut().enumerate() {
                    let base = (lc + l) * y_rs + j0 * y_cs;
                    for (jj, dst) in row.iter_mut().enumerate() {
                        *dst = if jj < cols {
                            i32::from(y[base + jj * y_cs])
                        } else {
                            0
                        };
                    }
                }
                let mut acc = [[0i32; SK_LANES]; SK_COLS];
                for (xv, yv) in xs.iter().zip(yt.as_chunks::<SK_COLS>().0) {
                    for jj in 0..SK_COLS {
                        let yj = yv[jj];
                        for r in 0..SK_LANES {
                            acc[jj][r] += xv[r] * yj;
                        }
                    }
                }
                for (jj, lane_sums) in acc.iter().enumerate().take(cols) {
                    let base = i0 * c_rs + (j0 + jj) * c_cs;
                    if c_rs == 1 {
                        let dst = &mut c[base..base + lanes];
                        for (d, &v) in dst.iter_mut().zip(lane_sums) {
                            *d += v;
                        }
                    } else {
                        for (r, &v) in lane_sums.iter().enumerate().take(lanes) {
                            c[base + r * c_rs] += v;
                        }
                    }
                }
            }
        }
    }
}

/// Packs rows `i0..i0 + lanes` of `X`'s `KC` block at column `lc` (width
/// `kc`) k-major into `xt`, widened to `i32`: lane `r` of step `l` at
/// `l·SK_LANES + r`.
#[inline(always)]
fn pack_lanes_i8(xt: &mut [i32], x: StridedI8, i0: usize, lanes: usize, lc: usize, kc: usize) {
    let (data, (rs, cs)) = x;
    #[cfg(target_arch = "x86_64")]
    if cs == 1 && lanes == SK_LANES && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: calling a `#[target_feature(enable = "avx2")]` function
        // is sound iff the CPU supports AVX2, which the runtime check on
        // the line above guarantees; the intrinsics inside assert their
        // slice bounds before any raw pointer arithmetic.
        return unsafe { pack_lanes_i8_avx2(xt, data, rs, i0, lc, kc) };
    }
    for r in 0..lanes {
        let base = (i0 + r) * rs + lc * cs;
        for (l, dst) in xt[r..kc * SK_LANES]
            .iter_mut()
            .step_by(SK_LANES)
            .enumerate()
        {
            *dst = i32::from(data[base + l * cs]);
        }
    }
}

/// [`pack_lanes_i8`] for a full row group of rows contiguous in `l`: each
/// row's eight bytes are sign-extended to eight `i32` lanes and the 8×8
/// block goes through the shared in-register transpose.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn pack_lanes_i8_avx2(xt: &mut [i32], data: &[i8], rs: usize, i0: usize, lc: usize, kc: usize) {
    use std::arch::x86_64::{
        _mm256_castps_si256, _mm256_castsi256_ps, _mm256_cvtepi8_epi32, _mm256_storeu_si256,
        _mm_loadl_epi64,
    };
    let full = kc / 8 * 8;
    assert!(xt.len() >= kc * SK_LANES, "skinny lane buffer too short");
    assert!(
        full == 0 || (i0 + SK_LANES - 1) * rs + lc + full <= data.len(),
        "skinny operand block out of bounds"
    );
    for half in 0..SK_LANES / 8 {
        let row0 = (i0 + half * 8) * rs + lc;
        for l0 in (0..full).step_by(8) {
            let mut r = [_mm256_castsi256_ps(std::arch::x86_64::_mm256_setzero_si256()); 8];
            for (q, reg) in r.iter_mut().enumerate() {
                let at = row0 + q * rs + l0;
                // SAFETY: asserted above — row `i0 + half·8 + q` reads the
                // 8 bytes `l0..l0 + 8 ≤ full` from column `lc`, within
                // `data`; `loadl` has no alignment requirement.
                let bytes = unsafe { _mm_loadl_epi64(data.as_ptr().add(at).cast()) };
                *reg = _mm256_castsi256_ps(_mm256_cvtepi8_epi32(bytes));
            }
            for (l, col) in transpose8x8!(r).into_iter().enumerate() {
                // SAFETY: `(l0 + l)·SK_LANES + half·8 + 8 ≤ kc·SK_LANES ≤
                // xt.len()` (asserted above), room for one 8-lane store.
                unsafe {
                    _mm256_storeu_si256(
                        xt.as_mut_ptr().add((l0 + l) * SK_LANES + half * 8).cast(),
                        _mm256_castps_si256(col),
                    )
                };
            }
        }
    }
    for r in 0..SK_LANES {
        let base = (i0 + r) * rs + lc;
        for l in full..kc {
            xt[l * SK_LANES + r] = i32::from(data[base + l]);
        }
    }
}

// ---------------------------------------------------------------------------
// Autovectorized variant: plain i8 GEBP panels, generic i32 body, AVX2
// recompile via runtime dispatch.
// ---------------------------------------------------------------------------

fn blocked_autovec(tile: Tile, m: usize, n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    assert!(k <= K_MAX, "qgemm autovec: k={k} exceeds K_MAX={K_MAX}");
    // Pack buffers are sized by the *effective* block (the tile caps
    // clamped to the actual shape) and borrowed from the thread-local
    // scratch pool: campaigns run thousands of small GEMMs per second, and
    // a fresh zeroed allocation per call costs more than packing itself.
    let (kc_blk, mc_blk, nc_blk) = (tile.kc.min(k), tile.mc.min(m), tile.nc.min(n));
    let mut apack = scratch::take::<i8>(mc_blk.div_ceil(MR) * MR * kc_blk);
    let mut bpack = scratch::take::<i8>(nc_blk.div_ceil(NR) * NR * kc_blk);

    for lc in (0..k).step_by(kc_blk) {
        let kc = kc_blk.min(k - lc);
        for jc in (0..n).step_by(nc_blk) {
            let nc = nc_blk.min(n - jc);
            pack_b_i8(&mut bpack, b, n, lc, kc, jc, nc);
            for ic in (0..m).step_by(mc_blk) {
                let mc = mc_blk.min(m - ic);
                pack_a_i8(&mut apack, a, k, ic, mc, lc, kc);
                for jr in (0..nc).step_by(NR) {
                    let nr = NR.min(nc - jr);
                    let bp = &bpack[(jr / NR) * kc * NR..][..kc * NR];
                    for ir in (0..mc).step_by(MR) {
                        let mr = MR.min(mc - ir);
                        let ap = &apack[(ir / MR) * kc * MR..][..kc * MR];
                        let c_off = (ic + ir) * n + jc + jr;
                        micro_autovec(kc, ap, bp, &mut c[c_off..], n, mr, nr);
                    }
                }
            }
        }
    }
}

/// Packs an `mc × kc` block of `A` into `MR`-row micro-panels, k-major,
/// zero-padding rows past `mc`. Each source row is walked once,
/// interleaving into its `MR`-strided panel lane.
fn pack_a_i8(dst: &mut [i8], a: &[i8], lda: usize, row0: usize, mc: usize, col0: usize, kc: usize) {
    for (p, panel) in dst.chunks_mut(kc * MR).take(mc.div_ceil(MR)).enumerate() {
        for r in 0..MR {
            let i = p * MR + r;
            let lane = panel.iter_mut().skip(r).step_by(MR).take(kc);
            if i < mc {
                let src = &a[(row0 + i) * lda + col0..][..kc];
                for (d, &v) in lane.zip(src) {
                    *d = v;
                }
            } else {
                for d in lane {
                    *d = 0;
                }
            }
        }
    }
}

/// Packs a `kc × nc` block of `B` into `NR`-column micro-panels, k-major,
/// zero-padding columns past `nc`. Full-width panels reduce to one
/// `memcpy` per packed row.
fn pack_b_i8(dst: &mut [i8], b: &[i8], ldb: usize, row0: usize, kc: usize, col0: usize, nc: usize) {
    for (p, panel) in dst.chunks_mut(kc * NR).take(nc.div_ceil(NR)).enumerate() {
        let j0 = p * NR;
        let cols = NR.min(nc - j0);
        for (l, row) in panel.chunks_exact_mut(NR).take(kc).enumerate() {
            let src = &b[(row0 + l) * ldb + col0 + j0..][..cols];
            row[..cols].copy_from_slice(src);
            row[cols..].fill(0);
        }
    }
}

/// Autovectorized `MR × NR` tile: dispatches to an AVX2-compiled copy of
/// [`micro_body_i8`] when the CPU supports it (exact i32 arithmetic, so
/// the dispatch cannot change results).
fn micro_autovec(kc: usize, ap: &[i8], bp: &[i8], c: &mut [i32], ldc: usize, mr: usize, nr: usize) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: calling a `#[target_feature(enable = "avx2")]` function
        // is sound iff the CPU supports AVX2, and the runtime
        // `is_x86_feature_detected!` check on the line above guarantees
        // exactly that. `micro_body_i8_avx2` takes ordinary slices and its
        // body is safe Rust (bounds-checked indexing, no raw pointers), so
        // feature availability is the only proof obligation here.
        return unsafe { micro_body_i8_avx2(kc, ap, bp, c, ldc, mr, nr) };
    }
    micro_body_i8(kc, ap, bp, c, ldc, mr, nr);
}

/// [`micro_body_i8`] recompiled with AVX2 codegen.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn micro_body_i8_avx2(
    kc: usize,
    ap: &[i8],
    bp: &[i8],
    c: &mut [i32],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    micro_body_i8(kc, ap, bp, c, ldc, mr, nr);
}

#[inline(always)]
fn micro_body_i8(kc: usize, ap: &[i8], bp: &[i8], c: &mut [i32], ldc: usize, mr: usize, nr: usize) {
    let mut acc = [[0i32; NR]; MR];
    let (a_panels, _) = ap[..kc * MR].as_chunks::<MR>();
    let (b_panels, _) = bp[..kc * NR].as_chunks::<NR>();
    for (av, bv) in a_panels.iter().zip(b_panels) {
        for r in 0..MR {
            let a = i32::from(av[r]);
            for q in 0..NR {
                acc[r][q] += a * i32::from(bv[q]);
            }
        }
    }
    for r in 0..mr {
        let row = &mut c[r * ldc..r * ldc + nr];
        for (dst, &v) in row.iter_mut().zip(&acc[r][..nr]) {
            *dst += v;
        }
    }
}

// ---------------------------------------------------------------------------
// maddubs variant: zero-interleaved unsigned-offset packing + intrinsics.
// ---------------------------------------------------------------------------

fn blocked_maddubs(tile: Tile, m: usize, n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    assert!(k <= K_MAX, "qgemm maddubs: k={k} exceeds K_MAX={K_MAX}");
    // Effective blocks + pooled buffers, as in `blocked_autovec`: the pack
    // buffers must not cost an allocation (or a 160 KiB zeroing memset for
    // a 4 KiB problem) on every call.
    let (kc_blk, mc_blk, nc_blk) = (tile.kc.min(k), tile.mc.min(m), tile.nc.min(n));
    let groups_cap = kc_blk.div_ceil(2);
    let mut apack = scratch::take::<u8>(mc_blk.div_ceil(MR) * MR * groups_cap * 4);
    let mut bpack = scratch::take::<u8>(nc_blk.div_ceil(NR) * groups_cap * 64);
    let mut corr = scratch::take::<i32>(nc_blk.div_ceil(NR) * NR);

    for lc in (0..k).step_by(kc_blk) {
        let kc = kc_blk.min(k - lc);
        let groups = kc.div_ceil(2);
        for jc in (0..n).step_by(nc_blk) {
            let nc = nc_blk.min(n - jc);
            pack_b_maddubs(&mut bpack, &mut corr, b, n, lc, kc, jc, nc);
            for ic in (0..m).step_by(mc_blk) {
                let mc = mc_blk.min(m - ic);
                pack_a_maddubs(&mut apack, a, k, ic, mc, lc, kc);
                for jr in (0..nc).step_by(NR) {
                    let nr = NR.min(nc - jr);
                    let bp = &bpack[(jr / NR) * groups * 64..][..groups * 64];
                    let cr = &corr[(jr / NR) * NR..][..NR];
                    for ir in (0..mc).step_by(MR) {
                        let mr = MR.min(mc - ir);
                        let ap = &apack[(ir / MR) * groups * MR * 4..][..groups * MR * 4];
                        let c_off = (ic + ir) * n + jc + jr;
                        micro_maddubs(groups, ap, bp, cr, &mut c[c_off..], n, mr, nr);
                    }
                }
            }
        }
    }
}

/// Packs an `mc × kc` block of `A` into the maddubs layout: per
/// `MR`-panel, per k-pair group `g`, per row, the 4 bytes
/// `(a'(2g), 0, a'(2g+1), 0)` with `a' = a XOR 0x80` (the +128 unsigned
/// offset). Rows past `mc` and the odd-`kc` tail pack as zero, which
/// contributes zero to both the raw accumulator and the correction.
///
/// Packing is byte shuffling, and at campaign shapes it costs as much as
/// the multiply loop itself, so on AVX2 hosts full panels go through a
/// shuffle kernel; partial panels and k tails share the scalar helper
/// with the portable path, so every byte of the layout has exactly one
/// scalar definition.
fn pack_a_maddubs(
    dst: &mut [u8],
    a: &[i8],
    lda: usize,
    row0: usize,
    mc: usize,
    col0: usize,
    kc: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: calling a `#[target_feature(enable = "avx2")]` function
        // is sound iff the CPU supports AVX2, which the runtime
        // `is_x86_feature_detected!` check on the line above guarantees;
        // the intrinsics inside stay within asserted slice bounds.
        return unsafe { pack_a_maddubs_avx2(dst, a, lda, row0, mc, col0, kc) };
    }
    pack_a_maddubs_scalar(dst, a, lda, row0, mc, col0, kc);
}

fn pack_a_maddubs_scalar(
    dst: &mut [u8],
    a: &[i8],
    lda: usize,
    row0: usize,
    mc: usize,
    col0: usize,
    kc: usize,
) {
    let groups = kc.div_ceil(2);
    for p in 0..mc.div_ceil(MR) {
        let panel = &mut dst[p * groups * MR * 4..][..groups * MR * 4];
        let rows_valid = MR.min(mc - p * MR);
        pack_a_panel_scalar(panel, a, lda, row0 + p * MR, rows_valid, col0, kc, 0);
    }
}

/// Packs groups `g0..` of one `MR`-row panel (the single scalar definition
/// of the A layout; the AVX2 kernel defers its edges here).
#[allow(clippy::too_many_arguments)]
fn pack_a_panel_scalar(
    panel: &mut [u8],
    a: &[i8],
    lda: usize,
    prow0: usize,
    rows_valid: usize,
    col0: usize,
    kc: usize,
    g0: usize,
) {
    let groups = kc.div_ceil(2);
    for (g, grp) in panel
        .chunks_exact_mut(MR * 4)
        .take(groups)
        .enumerate()
        .skip(g0)
    {
        for (r, quad) in grp.chunks_exact_mut(4).enumerate() {
            let (lo, hi) = if r < rows_valid {
                let row = (prow0 + r) * lda + col0 + 2 * g;
                let lo = (a[row] as u8) ^ 0x80;
                let hi = if 2 * g + 1 < kc {
                    (a[row + 1] as u8) ^ 0x80
                } else {
                    0
                };
                (lo, hi)
            } else {
                (0, 0)
            };
            quad[0] = lo;
            quad[1] = 0;
            quad[2] = hi;
            quad[3] = 0;
        }
    }
}

/// Shuffle-kernel packing of full `MR`-row panels, 8 k-pair groups per
/// iteration. `vpmovzxbw` of an offset row is *exactly* the
/// zero-interleaved layout — each 32-bit lane of the widened register is
/// one group's `(a', 0, a', 0)` quad — so packing reduces to a 4×8
/// 32-bit transpose (`vpunpck{l,h}dq` → `vpunpck{l,h}qdq` →
/// `vperm2i128`) that reorders whole quads and never touches a byte
/// value; byte-for-byte identity with [`pack_a_panel_scalar`] follows.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn pack_a_maddubs_avx2(
    dst: &mut [u8],
    a: &[i8],
    lda: usize,
    row0: usize,
    mc: usize,
    col0: usize,
    kc: usize,
) {
    use std::arch::x86_64::*;
    let groups = kc.div_ceil(2);
    let kblocks = kc / 16;
    let off = _mm_set1_epi8(0x80u8 as i8);
    for p in 0..mc / MR {
        let panel = &mut dst[p * groups * MR * 4..][..groups * MR * 4];
        let base = (row0 + p * MR) * lda + col0;
        assert!(
            base + 3 * lda + 16 * kblocks <= a.len(),
            "A block out of bounds"
        );
        for gb in 0..kblocks {
            // SAFETY: asserted above — rows `p*MR..p*MR+4` are all valid
            // (full panel) and each 16-byte load ends at
            // `col0 + 16·(gb+1) ≤ col0 + kc` within its row.
            let (x0, x1, x2, x3) = unsafe {
                (
                    _mm_loadu_si128(a.as_ptr().add(base + 16 * gb).cast()),
                    _mm_loadu_si128(a.as_ptr().add(base + lda + 16 * gb).cast()),
                    _mm_loadu_si128(a.as_ptr().add(base + 2 * lda + 16 * gb).cast()),
                    _mm_loadu_si128(a.as_ptr().add(base + 3 * lda + 16 * gb).cast()),
                )
            };
            let r0 = _mm256_cvtepu8_epi16(_mm_xor_si128(x0, off));
            let r1 = _mm256_cvtepu8_epi16(_mm_xor_si128(x1, off));
            let r2 = _mm256_cvtepu8_epi16(_mm_xor_si128(x2, off));
            let r3 = _mm256_cvtepu8_epi16(_mm_xor_si128(x3, off));
            let t0 = _mm256_unpacklo_epi32(r0, r1);
            let t1 = _mm256_unpacklo_epi32(r2, r3);
            let t2 = _mm256_unpackhi_epi32(r0, r1);
            let t3 = _mm256_unpackhi_epi32(r2, r3);
            let u0 = _mm256_unpacklo_epi64(t0, t1);
            let u1 = _mm256_unpackhi_epi64(t0, t1);
            let u2 = _mm256_unpacklo_epi64(t2, t3);
            let u3 = _mm256_unpackhi_epi64(t2, t3);
            let o = gb * 8 * MR * 4;
            // SAFETY: `o + 128 ≤ kblocks·128 ≤ groups·MR·4 = panel.len()`.
            unsafe {
                let pp = panel.as_mut_ptr().add(o);
                _mm256_storeu_si256(pp.cast(), _mm256_permute2x128_si256(u0, u1, 0x20));
                _mm256_storeu_si256(pp.add(32).cast(), _mm256_permute2x128_si256(u2, u3, 0x20));
                _mm256_storeu_si256(pp.add(64).cast(), _mm256_permute2x128_si256(u0, u1, 0x31));
                _mm256_storeu_si256(pp.add(96).cast(), _mm256_permute2x128_si256(u2, u3, 0x31));
            }
        }
        pack_a_panel_scalar(panel, a, lda, row0 + p * MR, MR, col0, kc, kblocks * 8);
    }
    if !mc.is_multiple_of(MR) {
        let p = mc / MR;
        let panel = &mut dst[p * groups * MR * 4..][..groups * MR * 4];
        pack_a_panel_scalar(panel, a, lda, row0 + p * MR, mc % MR, col0, kc, 0);
    }
}

/// Packs a `kc × nc` block of `B` into the maddubs layout — per
/// `NR`-panel, per k-pair group `g`, 64 bytes with column `q`'s pair at
/// `g*64 + (q/8)*32 + (q%8)*4` as `(b(2g), 0, b(2g+1), 0)` — and computes
/// the per-column offset correction `corr[q] = 128 · Σ_block b[l][q]` in
/// the same sweep (bounded by `128·KC·128 ≈ 4.2M`, exact in `i32`).
#[allow(clippy::too_many_arguments)]
fn pack_b_maddubs(
    dst: &mut [u8],
    corr: &mut [i32],
    b: &[i8],
    ldb: usize,
    row0: usize,
    kc: usize,
    col0: usize,
    nc: usize,
) {
    let panels = nc.div_ceil(NR);
    for x in corr[..panels * NR].iter_mut() {
        *x = 0;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: calling a `#[target_feature(enable = "avx2")]` function
        // is sound iff the CPU supports AVX2, which the runtime
        // `is_x86_feature_detected!` check on the line above guarantees;
        // the intrinsics inside stay within asserted slice bounds.
        return unsafe { pack_b_maddubs_avx2(dst, corr, b, ldb, row0, kc, col0, nc) };
    }
    pack_b_maddubs_scalar(dst, corr, b, ldb, row0, kc, col0, nc);
}

#[allow(clippy::too_many_arguments)]
fn pack_b_maddubs_scalar(
    dst: &mut [u8],
    corr: &mut [i32],
    b: &[i8],
    ldb: usize,
    row0: usize,
    kc: usize,
    col0: usize,
    nc: usize,
) {
    let groups = kc.div_ceil(2);
    for (p, panel) in dst
        .chunks_mut(groups * 64)
        .take(nc.div_ceil(NR))
        .enumerate()
    {
        let j0 = p * NR;
        let cols = NR.min(nc - j0);
        let crow = &mut corr[j0..j0 + NR];
        pack_b_panel_scalar(panel, crow, b, ldb, row0, kc, col0 + j0, cols, 0);
    }
}

/// Packs groups `g0..` of one `NR`-column panel, accumulating the offset
/// correction into `crow` (the single scalar definition of the B layout;
/// the AVX2 kernel defers its edges here).
#[allow(clippy::too_many_arguments)]
fn pack_b_panel_scalar(
    panel: &mut [u8],
    crow: &mut [i32],
    b: &[i8],
    ldb: usize,
    row0: usize,
    kc: usize,
    colbase: usize,
    cols: usize,
    g0: usize,
) {
    let groups = kc.div_ceil(2);
    for (g, grp) in panel.chunks_exact_mut(64).take(groups).enumerate().skip(g0) {
        let lo_row = &b[(row0 + 2 * g) * ldb + colbase..][..cols];
        let hi_row = if 2 * g + 1 < kc {
            Some(&b[(row0 + 2 * g + 1) * ldb + colbase..][..cols])
        } else {
            None
        };
        for (q, quad) in grp.chunks_exact_mut(4).enumerate() {
            let (lo, hi) = if q < cols {
                let lo = lo_row[q];
                let hi = hi_row.map_or(0, |r| r[q]);
                crow[q] += 128 * (i32::from(lo) + i32::from(hi));
                (lo as u8, hi as u8)
            } else {
                (0, 0)
            };
            quad[0] = lo;
            quad[1] = 0;
            quad[2] = hi;
            quad[3] = 0;
        }
    }
}

/// Shuffle-kernel packing of full `NR`-column panels, one k-pair group per
/// iteration. Interleaving the two 16-byte rows with zero
/// (`vpunpck{l,h}bw` against zero, then `vpunpck{l,h}wd` of the widened
/// rows) produces exactly the `(b(2g), 0, b(2g+1), 0)` quads in column
/// order — byte moves only, so identity with [`pack_b_panel_scalar`] is
/// structural. Corrections accumulate as `i32` lanes (`|lo+hi| ≤ 256` per
/// group fits `i16` but the running sum does not) and the final `≪ 7` is
/// the exact `×128` because `128·Σ` is bounded by `128·KC·128 ≈ 4.2M`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn pack_b_maddubs_avx2(
    dst: &mut [u8],
    corr: &mut [i32],
    b: &[i8],
    ldb: usize,
    row0: usize,
    kc: usize,
    col0: usize,
    nc: usize,
) {
    use std::arch::x86_64::*;
    let groups = kc.div_ceil(2);
    let pairs = kc / 2;
    let zero = _mm_setzero_si128();
    for (p, panel) in dst
        .chunks_mut(groups * 64)
        .take(nc.div_ceil(NR))
        .enumerate()
    {
        let j0 = p * NR;
        let cols = NR.min(nc - j0);
        let crow = &mut corr[j0..j0 + NR];
        if cols < NR {
            pack_b_panel_scalar(panel, crow, b, ldb, row0, kc, col0 + j0, cols, 0);
            continue;
        }
        let base = row0 * ldb + col0 + j0;
        assert!(
            pairs == 0 || base + (2 * pairs - 1) * ldb + 16 <= b.len(),
            "B block out of bounds"
        );
        let mut sum0 = _mm256_setzero_si256();
        let mut sum1 = _mm256_setzero_si256();
        for g in 0..pairs {
            // SAFETY: asserted above — the deepest read this loop makes is
            // row `row0 + 2·pairs − 1`, bytes `..base + 16` within it.
            let (lo, hi) = unsafe {
                (
                    _mm_loadu_si128(b.as_ptr().add(base + 2 * g * ldb).cast()),
                    _mm_loadu_si128(b.as_ptr().add(base + (2 * g + 1) * ldb).cast()),
                )
            };
            let lo_a = _mm_unpacklo_epi8(lo, zero);
            let hi_a = _mm_unpacklo_epi8(hi, zero);
            let lo_b = _mm_unpackhi_epi8(lo, zero);
            let hi_b = _mm_unpackhi_epi8(hi, zero);
            // SAFETY: `g·64 + 64 ≤ pairs·64 ≤ groups·64 = panel.len()`.
            unsafe {
                let pp = panel.as_mut_ptr().add(g * 64);
                _mm_storeu_si128(pp.cast(), _mm_unpacklo_epi16(lo_a, hi_a));
                _mm_storeu_si128(pp.add(16).cast(), _mm_unpackhi_epi16(lo_a, hi_a));
                _mm_storeu_si128(pp.add(32).cast(), _mm_unpacklo_epi16(lo_b, hi_b));
                _mm_storeu_si128(pp.add(48).cast(), _mm_unpackhi_epi16(lo_b, hi_b));
            }
            let s16 = _mm256_add_epi16(_mm256_cvtepi8_epi16(lo), _mm256_cvtepi8_epi16(hi));
            sum0 = _mm256_add_epi32(sum0, _mm256_cvtepi16_epi32(_mm256_castsi256_si128(s16)));
            sum1 = _mm256_add_epi32(
                sum1,
                _mm256_cvtepi16_epi32(_mm256_extracti128_si256::<1>(s16)),
            );
        }
        // SAFETY: `crow` spans exactly `NR = 16` i32s — two ymm stores.
        unsafe {
            let cp = crow.as_mut_ptr();
            _mm256_storeu_si256(cp.cast(), _mm256_slli_epi32::<7>(sum0));
            _mm256_storeu_si256(cp.add(8).cast(), _mm256_slli_epi32::<7>(sum1));
        }
        // The odd-`kc` tail group (if any) adds onto the stored corrections.
        pack_b_panel_scalar(panel, crow, b, ldb, row0, kc, col0 + j0, cols, pairs);
    }
}

/// maddubs `MR × NR` tile dispatcher. The feature check is repeated here
/// (not just in [`run`]) because the soundness of calling the intrinsics
/// kernel must not depend on a distant branch.
#[allow(clippy::too_many_arguments)]
fn micro_maddubs(
    groups: usize,
    ap: &[u8],
    bp: &[u8],
    corr: &[i32],
    c: &mut [i32],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: calling a `#[target_feature(enable = "avx2")]` function
        // is sound iff the CPU supports AVX2, which the runtime
        // `is_x86_feature_detected!` check on the line above guarantees.
        // The intrinsics inside assert their slice bounds before any raw
        // pointer arithmetic, so feature availability is the only proof
        // obligation delegated to this call site.
        return unsafe { micro_maddubs_avx2(groups, ap, bp, corr, c, ldc, mr, nr) };
    }
    micro_maddubs_fallback(groups, ap, bp, corr, c, ldc, mr, nr);
}

/// The intrinsics tile: per k-pair group, one broadcast of the packed `A`
/// quad per row, `maddubs` (unsigned `a'` × signed `b` → one product per
/// `i16` lane) then `madd` against ones to widen pairs into the eight
/// `i32` column sums, accumulated over the block; offset correction is
/// subtracted at write-back.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn micro_maddubs_avx2(
    groups: usize,
    ap: &[u8],
    bp: &[u8],
    corr: &[i32],
    c: &mut [i32],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_maddubs_epi16,
        _mm256_set1_epi16, _mm256_set1_epi32, _mm256_setzero_si256, _mm256_storeu_si256,
        _mm256_sub_epi32,
    };
    assert!(ap.len() >= groups * MR * 4, "packed A panel too short");
    assert!(bp.len() >= groups * 64, "packed B panel too short");
    assert!(corr.len() >= NR, "correction slice too short");
    let ones = _mm256_set1_epi16(1);
    let mut acc0 = [_mm256_setzero_si256(); MR];
    let mut acc1 = [_mm256_setzero_si256(); MR];
    for g in 0..groups {
        // SAFETY: `bp` holds at least `groups * 64` bytes (asserted
        // above), so both unaligned 32-byte loads at `g * 64` and
        // `g * 64 + 32` stay in bounds; `loadu` has no alignment
        // requirement.
        let (b0, b1) = unsafe {
            (
                _mm256_loadu_si256(bp.as_ptr().add(g * 64) as *const __m256i),
                _mm256_loadu_si256(bp.as_ptr().add(g * 64 + 32) as *const __m256i),
            )
        };
        let abase = g * MR * 4;
        for r in 0..MR {
            let o = abase + r * 4;
            // bdlfi-lint: allow(BD010) -- infallible: the slice is exactly 4 bytes by the window arithmetic above
            let quad = u32::from_le_bytes(ap[o..o + 4].try_into().unwrap());
            let a = _mm256_set1_epi32(quad as i32);
            let p0 = _mm256_maddubs_epi16(a, b0);
            let p1 = _mm256_maddubs_epi16(a, b1);
            acc0[r] = _mm256_add_epi32(acc0[r], _mm256_madd_epi16(p0, ones));
            acc1[r] = _mm256_add_epi32(acc1[r], _mm256_madd_epi16(p1, ones));
        }
    }
    if mr == MR && nr == NR {
        // Full tile (the overwhelmingly common case): apply the offset
        // correction and accumulate into `C` without spilling through a
        // scalar staging array. Wrapping i32 vector add/sub matches the
        // scalar `+`/`-` below exactly.
        // SAFETY: `corr` holds at least NR = 16 i32 (asserted above) and
        // each `row` is exactly NR contiguous i32 — 64 bytes, the room
        // the two unaligned 32-byte loads/stores need.
        unsafe {
            let corr0 = _mm256_loadu_si256(corr.as_ptr() as *const __m256i);
            let corr1 = _mm256_loadu_si256(corr.as_ptr().add(8) as *const __m256i);
            for r in 0..MR {
                let row = &mut c[r * ldc..r * ldc + NR];
                let p0 = row.as_mut_ptr() as *mut __m256i;
                let p1 = row.as_mut_ptr().add(8) as *mut __m256i;
                let c0 = _mm256_loadu_si256(p0);
                let c1 = _mm256_loadu_si256(p1);
                _mm256_storeu_si256(p0, _mm256_add_epi32(c0, _mm256_sub_epi32(acc0[r], corr0)));
                _mm256_storeu_si256(p1, _mm256_add_epi32(c1, _mm256_sub_epi32(acc1[r], corr1)));
            }
        }
        return;
    }
    let mut tile = [[0i32; NR]; MR];
    for r in 0..MR {
        // SAFETY: `tile[r]` is NR = 16 contiguous i32 (64 bytes), exactly
        // the room the two unaligned 32-byte stores need.
        unsafe {
            _mm256_storeu_si256(tile[r].as_mut_ptr() as *mut __m256i, acc0[r]);
            _mm256_storeu_si256(tile[r].as_mut_ptr().add(8) as *mut __m256i, acc1[r]);
        }
    }
    for r in 0..mr {
        let row = &mut c[r * ldc..r * ldc + nr];
        for (q, dst) in row.iter_mut().enumerate() {
            *dst += tile[r][q] - corr[q];
        }
    }
}

/// Scalar emulation of the maddubs tile over the *same packed layout* —
/// the portable fallback off x86-64 and the layout's executable
/// specification (the unit tests drive it against the intrinsics).
#[allow(clippy::too_many_arguments)]
fn micro_maddubs_fallback(
    groups: usize,
    ap: &[u8],
    bp: &[u8],
    corr: &[i32],
    c: &mut [i32],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let mut tile = [[0i32; NR]; MR];
    for g in 0..groups {
        for (r, trow) in tile.iter_mut().enumerate() {
            let o = (g * MR + r) * 4;
            let a0 = i32::from(ap[o]);
            let a1 = i32::from(ap[o + 2]);
            for (q, row) in trow.iter_mut().enumerate().take(NR) {
                let bo = g * 64 + (q / 8) * 32 + (q % 8) * 4;
                let b0 = i32::from(bp[bo] as i8);
                let b1 = i32::from(bp[bo + 2] as i8);
                *row += a0 * b0 + a1 * b1;
            }
        }
    }
    for r in 0..mr {
        let row = &mut c[r * ldc..r * ldc + nr];
        for (q, dst) in row.iter_mut().enumerate() {
            *dst += tile[r][q] - corr[q];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::qgemm::qgemm_reference;

    const VARIANTS: [Variant; 3] = [Variant::Scalar, Variant::Autovec, Variant::Avx2];

    fn fill_i8(len: usize, salt: u32) -> Vec<i8> {
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                (x >> 13) as u8 as i8
            })
            .collect()
    }

    #[test]
    fn variants_match_the_reference_exactly() {
        // Shapes straddling MR/NR remainder tiles, odd k (maddubs pair
        // padding), k = 1, and multi-block k.
        let mut shapes = vec![
            (1, 1, 1),
            (1, 16, 1),
            (3, 5, 2),
            (4, 16, 7),
            (5, 17, 9),
            (64, 16, 64),
            (65, 17, 65),
            (2, 300, 257),
            (9, 33, 600),
        ];
        shapes.extend(skinny_grid());
        for (m, n, k) in shapes {
            let a = fill_i8(m * k, 1);
            let b = fill_i8(k * n, 2);
            let mut want = vec![0i32; m * n];
            qgemm_reference(m, n, k, &a, &b, &mut want);
            for v in VARIANTS {
                let mut got = vec![7i32; m * n];
                let mut base = vec![7i32; m * n];
                qgemm_i8_with(v, m, n, k, &a, &b, &mut got);
                for (g, w) in base.iter_mut().zip(&want) {
                    *g += w;
                }
                assert_eq!(got, base, "({m}x{n}x{k}) variant {v:?}");
            }
        }
    }

    /// The skinny class boundaries: `n` around `NR`, `k` around
    /// `SKINNY_K`, `m` around `MR`, the 8-lane and 16-lane groups, and the
    /// MLP's batch and eval-set sizes.
    fn skinny_grid() -> Vec<(usize, usize, usize)> {
        let mut shapes = Vec::new();
        for m in [2, MR - 1, MR + 1, 7, 9, 64, 300] {
            for n in [1, 3, NR - 1, NR] {
                for k in [1, 2, 7, 8] {
                    shapes.push((m, n, k));
                }
            }
        }
        shapes.extend([(64, 3, 32), (17, 5, 300), (300, 3, 600)]);
        shapes
    }

    #[test]
    fn extreme_operands_stay_exact_in_every_variant() {
        // ±127/-128 everywhere — the saturation stress the zero-interleave
        // exists for. k spans two KC blocks to exercise the per-block
        // offset correction at its maximum magnitude; the skinny shapes
        // take the skinny body.
        for (m, n, k) in [(5, 19, 300), (64, 3, 300), (64, 32, 2), (9, 15, 7)] {
            let a: Vec<i8> = (0..m * k)
                .map(|i| [-128i8, 127, -128, 127][i % 4])
                .collect();
            let b: Vec<i8> = (0..k * n).map(|i| [127i8, -128][i % 2]).collect();
            let mut want = vec![0i32; m * n];
            qgemm_reference(m, n, k, &a, &b, &mut want);
            for v in VARIANTS {
                let mut got = vec![0i32; m * n];
                qgemm_i8_with(v, m, n, k, &a, &b, &mut got);
                assert_eq!(got, want, "({m}x{n}x{k}) variant {v:?}");
            }
        }
    }

    #[test]
    fn maddubs_fallback_matches_reference_layout() {
        // The scalar emulation is the layout's executable spec: run one
        // whole packed block through it and compare against the plain
        // reference product.
        let (m, n, k) = (6, 20, 33);
        let a = fill_i8(m * k, 3);
        let b = fill_i8(k * n, 4);
        let groups = k.div_ceil(2);
        let mut apack = vec![0u8; m.div_ceil(MR) * MR * groups * 4];
        let mut bpack = vec![0u8; n.div_ceil(NR) * groups * 64];
        let mut corr = vec![0i32; n.div_ceil(NR) * NR];
        pack_a_maddubs(&mut apack, &a, k, 0, m, 0, k);
        pack_b_maddubs(&mut bpack, &mut corr, &b, n, 0, k, 0, n);
        let mut got = vec![0i32; m * n];
        for jr in (0..n).step_by(NR) {
            let nr = NR.min(n - jr);
            let bp = &bpack[(jr / NR) * groups * 64..][..groups * 64];
            let cr = &corr[(jr / NR) * NR..][..NR];
            for ir in (0..m).step_by(MR) {
                let mr = MR.min(m - ir);
                let ap = &apack[(ir / MR) * groups * MR * 4..][..groups * MR * 4];
                micro_maddubs_fallback(groups, ap, bp, cr, &mut got[ir * n + jr..], n, mr, nr);
            }
        }
        let mut want = vec![0i32; m * n];
        qgemm_reference(m, n, k, &a, &b, &mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn nonstandard_tiles_do_not_change_results() {
        let (m, n, k) = (70, 50, 301);
        let a = fill_i8(m * k, 5);
        let b = fill_i8(k * n, 6);
        let mut want = vec![0i32; m * n];
        qgemm_reference(m, n, k, &a, &b, &mut want);
        for variant in [Variant::Autovec, Variant::Avx2] {
            for (mc, nc) in [(8, 32), (64, 256), (128, 48)] {
                let mut got = vec![0i32; m * n];
                run(
                    Selection {
                        variant,
                        tile: Tile {
                            mr: MR,
                            nr: NR,
                            kc: super::super::KC,
                            mc,
                            nc,
                        },
                    },
                    m,
                    n,
                    k,
                    &a,
                    &b,
                    &mut got,
                );
                assert_eq!(got, want, "{variant:?} tile ({mc},{nc})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "K_MAX")]
    fn scalar_variant_rejects_overdeep_contractions() {
        let a = vec![0i8; K_MAX + 1];
        let b = vec![0i8; K_MAX + 1];
        let mut c = vec![0i32; 1];
        qgemm_i8_with(Variant::Scalar, 1, 1, K_MAX + 1, &a, &b, &mut c);
    }

    #[test]
    #[should_panic(expected = "K_MAX")]
    fn simd_variants_reject_overdeep_contractions() {
        let a = vec![0i8; K_MAX + 1];
        let b = vec![0i8; K_MAX + 1];
        let mut c = vec![0i32; 1];
        qgemm_i8_with(Variant::Avx2, 1, 1, K_MAX + 1, &a, &b, &mut c);
    }
}
