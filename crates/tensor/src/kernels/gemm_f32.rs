//! f32 GEMM micro-kernel variants: scalar, autovectorized, and hand-written
//! AVX2 intrinsics.
//!
//! All three compute `C += A' · B'` over strided operands and are
//! **bit-identical** to each other: every variant reduces each output
//! element in the same fixed order — `k` split into [`KC`]-sized blocks
//! ascending, one partial sum per block started at `0.0` and accumulated
//! sequentially over the block's elements, then added into `C` — and none
//! uses FMA (a fused multiply-add rounds once where `mul` + `add` round
//! twice, which would break identity with the scalar body). The selector
//! in [`super`] may therefore pick any variant per shape without changing
//! a single output bit; `tests::variants_are_bit_identical` proves it.
//!
//! The one exception is NaN identity: when two different NaNs meet in one
//! sum, which one survives (its sign and payload) can differ between
//! variants, because the compiler may swap an add's operands. Outputs
//! that are NaN stay NaN under every variant; only the NaN's bits differ,
//! and nothing downstream that reaches a journal reads them (see
//! [`super`]'s determinism notes).
//!
//! The packed variants share one GEBP driver (`blocked`): `A` packed once
//! per call into [`MR`]-row micro-panels (`PackedA`), `B` packed per cache
//! block into [`NR`]-column micro-panels, an `MR × NR` register-resident
//! accumulator tile. The driver takes its `B` panels from a
//! `PanelSource`: a plain GEMM packs them from a strided matrix, while a
//! convolution packs them straight from the input image (`ops::conv`), so
//! no im2col matrix is ever built for it. The
//! oracle for approximate correctness is [`gemm_f32_reference`], a
//! straight f64-accumulating triple loop.

use super::{Selection, ShapeClass, Tile, Variant, KC, MR, NR};
use crate::scratch::{self, ScratchBuf};

/// Runs the selected variant; an empty product leaves `c` untouched.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    sel: Selection,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_str: (usize, usize),
    b: &[f32],
    b_str: (usize, usize),
    c: &mut [f32],
) {
    match Micro::of(sel.variant) {
        None => scalar(m, n, k, a, a_str, b, b_str, c),
        Some(_) if super::classify(m, n, k) == ShapeClass::Skinny => {
            skinny(m, n, k, a, a_str, b, b_str, c)
        }
        Some(micro) => {
            let b = Strided {
                data: b,
                rs: b_str.0,
                cs: b_str.1,
            };
            blocked(micro, sel.tile, n, &PackedA::new(m, k, a, a_str), &b, c);
        }
    }
}

/// Runs the strided f32 GEMM through one specific variant with the default
/// packed tile — the hook equivalence tests and benchmarks drive each
/// variant through directly. Requesting [`Variant::Avx2`] on a host
/// without AVX2 runs the autovectorized kernel instead (bit-identical by
/// the module contract, so the downgrade is observationally transparent).
#[allow(clippy::too_many_arguments)]
pub fn gemm_f32_with(
    variant: Variant,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_str: (usize, usize),
    b: &[f32],
    b_str: (usize, usize),
    c: &mut [f32],
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let variant = if variant == Variant::Avx2 && !super::avx2_available() {
        Variant::Autovec
    } else {
        variant
    };
    run(
        Selection {
            variant,
            tile: Tile::packed(64, 256),
        },
        m,
        n,
        k,
        a,
        a_str,
        b,
        b_str,
        c,
    )
}

/// Direct strided kernel: no packing, same reduction order as the packed
/// variants (per `KC` block: a fresh partial sum over the block's
/// elements ascending, then one add into `C`).
#[allow(clippy::too_many_arguments)]
fn scalar(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    (a_rs, a_cs): (usize, usize),
    b: &[f32],
    (b_rs, b_cs): (usize, usize),
    c: &mut [f32],
) {
    for lc in (0..k).step_by(KC) {
        let kend = (lc + KC).min(k);
        for i in 0..m {
            let arow = i * a_rs;
            let crow = &mut c[i * n..(i + 1) * n];
            for (j, cj) in crow.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for l in lc..kend {
                    acc += a[arow + l * a_cs] * b[l * b_rs + j * b_cs];
                }
                *cj += acc;
            }
        }
    }
}

/// Lanes of one skinny row group: each owns one output row.
const SK_LANES: usize = 16;
/// Output columns one skinny pass reduces together, sharing each load of
/// the packed lanes.
const SK_COLS: usize = 4;

/// The skinny body of the packed variants ([`ShapeClass::Skinny`]: too few
/// columns or too short a `k` to fill a register tile). Each SIMD lane owns
/// one output element, across the rows of `C` when `n < NR` and across its
/// columns otherwise (`k < 8`), which are the rows of `Cᵀ = B'ᵀ·A'ᵀ`. Every
/// lane reduces its element in the pinned order of [`scalar`], so the body
/// is bit-identical to it; only the product `a·b` becomes `b·a` in the
/// transposed case, and multiplication commutes bit for bit (up to the
/// documented NaN exception).
#[allow(clippy::too_many_arguments)]
fn skinny(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    (a_rs, a_cs): (usize, usize),
    b: &[f32],
    (b_rs, b_cs): (usize, usize),
    c: &mut [f32],
) {
    let (a, b) = (
        Strided {
            data: a,
            rs: a_rs,
            cs: a_cs,
        },
        Strided {
            data: b,
            rs: b_rs,
            cs: b_cs,
        },
    );
    if n < NR {
        skinny_lanes(m, n, k, &a, &b, c, (n, 1));
    } else {
        let (bt, at) = (b.transposed(), a.transposed());
        skinny_lanes(n, m, k, &bt, &at, c, (1, n));
    }
}

/// `C(i, j) += Σ_l X(i, l)·Y(l, j)` for `i < p`, `j < q`, with `C(i, j)` at
/// `c[i·c_rs + j·c_cs]` and lanes across `i`. Dispatches to an AVX2-compiled
/// copy when the CPU supports it; both run the same Rust body.
fn skinny_lanes(
    p: usize,
    q: usize,
    k: usize,
    x: &Strided,
    y: &Strided,
    c: &mut [f32],
    c_str: (usize, usize),
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: calling a `#[target_feature(enable = "avx2")]` function
        // is sound iff the CPU supports AVX2, which the runtime check on
        // the line above guarantees. Its body is safe Rust over ordinary
        // slices, so feature availability is the only proof obligation.
        return unsafe { skinny_lanes_avx2(p, q, k, x, y, c, c_str) };
    }
    skinny_lanes_body(p, q, k, x, y, c, c_str);
}

/// [`skinny_lanes_body`] recompiled with 256-bit vectors: a 16-lane row
/// group is two `ymm` registers, so the `SK_COLS × SK_LANES` accumulator
/// block lives in eight.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn skinny_lanes_avx2(
    p: usize,
    q: usize,
    k: usize,
    x: &Strided,
    y: &Strided,
    c: &mut [f32],
    c_str: (usize, usize),
) {
    skinny_lanes_body(p, q, k, x, y, c, c_str);
}

#[inline(always)]
fn skinny_lanes_body(
    p: usize,
    q: usize,
    k: usize,
    x: &Strided,
    y: &Strided,
    c: &mut [f32],
    (c_rs, c_cs): (usize, usize),
) {
    // `xt` holds a row group's `X` block k-major (lane `r` of step `l` at
    // `l·SK_LANES + r`), `yt` a column group's `Y` block; lanes and columns
    // past the edge keep stale or zero values whose sums are discarded.
    let kmax = KC.min(k);
    let mut buf = scratch::take(kmax * (SK_LANES + SK_COLS));
    let (xt, yt) = buf.split_at_mut(kmax * SK_LANES);
    for lc in (0..k).step_by(KC) {
        let kc = KC.min(k - lc);
        for i0 in (0..p).step_by(SK_LANES) {
            let lanes = SK_LANES.min(p - i0);
            pack_lanes(xt, x, i0, lanes, lc, kc);
            let (xs, _) = xt[..kc * SK_LANES].as_chunks::<SK_LANES>();
            for j0 in (0..q).step_by(SK_COLS) {
                let cols = SK_COLS.min(q - j0);
                for (l, row) in yt.as_chunks_mut::<SK_COLS>().0[..kc].iter_mut().enumerate() {
                    let base = (lc + l) * y.rs + j0 * y.cs;
                    for (jj, dst) in row.iter_mut().enumerate() {
                        *dst = if jj < cols {
                            y.data[base + jj * y.cs]
                        } else {
                            0.0
                        };
                    }
                }
                let mut acc = [[0.0f32; SK_LANES]; SK_COLS];
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
/// `kc`) k-major into `xt`: lane `r` of step `l` at `l·SK_LANES + r`.
#[inline(always)]
fn pack_lanes(xt: &mut [f32], x: &Strided, i0: usize, lanes: usize, lc: usize, kc: usize) {
    #[cfg(target_arch = "x86_64")]
    if x.cs == 1 && lanes == SK_LANES && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: calling a `#[target_feature(enable = "avx2")]` function
        // is sound iff the CPU supports AVX2, which the runtime check on
        // the line above guarantees; the intrinsics inside assert their
        // slice bounds before any raw pointer arithmetic.
        return unsafe { pack_lanes_avx2(xt, x, i0, lc, kc) };
    }
    for r in 0..lanes {
        let base = (i0 + r) * x.rs + lc * x.cs;
        for (l, dst) in xt[r..kc * SK_LANES]
            .iter_mut()
            .step_by(SK_LANES)
            .enumerate()
        {
            *dst = x.data[base + l * x.cs];
        }
    }
}

/// [`pack_lanes`] for a full row group of rows contiguous in `l`
/// (`x.cs == 1`, the layout of a row-major activation batch): each 8×8
/// block moves through an in-register transpose instead of 64 single-float
/// stores. Values are only moved, never computed, so the packed block is
/// the one the scalar loop writes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn pack_lanes_avx2(xt: &mut [f32], x: &Strided, i0: usize, lc: usize, kc: usize) {
    use std::arch::x86_64::{_mm256_loadu_ps, _mm256_storeu_ps};
    let full = kc / 8 * 8;
    assert!(xt.len() >= kc * SK_LANES, "skinny lane buffer too short");
    assert!(
        full == 0 || (i0 + SK_LANES - 1) * x.rs + lc + full <= x.data.len(),
        "skinny operand block out of bounds"
    );
    for half in 0..SK_LANES / 8 {
        let row0 = (i0 + half * 8) * x.rs + lc;
        for l0 in (0..full).step_by(8) {
            // SAFETY: asserted above — row `i0 + half·8 + r` (r < 8) reads
            // `l0..l0 + 8 ≤ full` floats from column `lc`, within `x.data`.
            let r = unsafe {
                let at = |r: usize| x.data.as_ptr().add(row0 + r * x.rs + l0);
                [
                    _mm256_loadu_ps(at(0)),
                    _mm256_loadu_ps(at(1)),
                    _mm256_loadu_ps(at(2)),
                    _mm256_loadu_ps(at(3)),
                    _mm256_loadu_ps(at(4)),
                    _mm256_loadu_ps(at(5)),
                    _mm256_loadu_ps(at(6)),
                    _mm256_loadu_ps(at(7)),
                ]
            };
            let cols = transpose8x8!(r);
            for (l, col) in cols.into_iter().enumerate() {
                // SAFETY: `(l0 + l)·SK_LANES + half·8 + 8 ≤ kc·SK_LANES ≤
                // xt.len()` (asserted above), room for one 8-float store.
                unsafe {
                    _mm256_storeu_ps(xt.as_mut_ptr().add((l0 + l) * SK_LANES + half * 8), col)
                };
            }
        }
    }
    for r in 0..SK_LANES {
        let base = (i0 + r) * x.rs + lc;
        for l in full..kc {
            xt[l * SK_LANES + r] = x.data[base + l];
        }
    }
}

/// Transposes an 8×8 block of 32-bit lanes held as eight row registers
/// (`[__m256; 8]`) into eight column registers (`unpck`, `shuffle`,
/// `perm2f128`): the skinny bodies' packing step, which only moves values
/// and never computes on them. A macro rather than a function so it
/// expands inside each caller's `#[target_feature(enable = "avx2")]` body.
#[cfg(target_arch = "x86_64")]
macro_rules! transpose8x8 {
    ($r:expr) => {{
        use std::arch::x86_64::{
            _mm256_permute2f128_ps, _mm256_shuffle_ps, _mm256_unpackhi_ps, _mm256_unpacklo_ps,
        };
        let r: [std::arch::x86_64::__m256; 8] = $r;
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        [
            _mm256_permute2f128_ps::<0x20>(u0, u4),
            _mm256_permute2f128_ps::<0x20>(u1, u5),
            _mm256_permute2f128_ps::<0x20>(u2, u6),
            _mm256_permute2f128_ps::<0x20>(u3, u7),
            _mm256_permute2f128_ps::<0x31>(u0, u4),
            _mm256_permute2f128_ps::<0x31>(u1, u5),
            _mm256_permute2f128_ps::<0x31>(u2, u6),
            _mm256_permute2f128_ps::<0x31>(u3, u7),
        ]
    }};
}
#[cfg(target_arch = "x86_64")]
pub(crate) use transpose8x8;

/// Which micro-kernel the packed driver runs per register tile.
#[derive(Clone, Copy)]
pub(crate) enum Micro {
    Autovec,
    Avx2,
}

impl Micro {
    /// The micro-kernel of a packed variant; `None` for [`Variant::Scalar`],
    /// which never packs.
    pub(crate) fn of(variant: Variant) -> Option<Micro> {
        match variant {
            Variant::Scalar => None,
            Variant::Autovec => Some(Micro::Autovec),
            Variant::Avx2 => Some(Micro::Avx2),
        }
    }
}

/// Where the packed driver takes its `B` micro-panels from.
pub(crate) trait PanelSource {
    /// Packs the `kc × nc` block of `B'` whose top-left element is
    /// `(row0, col0)` into `NR`-column micro-panels, k-major within each
    /// panel: row `l` of panel `p` is `dst[p·kc·NR + l·NR..][..NR]`.
    /// Columns past `nc` are written as `0.0`. Every float of the
    /// `nc.div_ceil(NR)` panels is written, because the driver reuses
    /// `dst` across blocks.
    fn pack(&self, dst: &mut [f32], row0: usize, kc: usize, col0: usize, nc: usize);
}

/// A strided `B'` operand, `B'(l, j) = data[l·rs + j·cs]`: the panel
/// source of a plain GEMM.
struct Strided<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl Strided<'_> {
    /// The same storage read as `B'ᵀ`: the strides swap.
    fn transposed(&self) -> Strided<'_> {
        Strided {
            data: self.data,
            rs: self.cs,
            cs: self.rs,
        }
    }
}

impl PanelSource for Strided<'_> {
    fn pack(&self, dst: &mut [f32], row0: usize, kc: usize, col0: usize, nc: usize) {
        for (p, panel) in dst.chunks_mut(kc * NR).take(nc.div_ceil(NR)).enumerate() {
            let (j0, cols) = (col0 + p * NR, NR.min(nc - p * NR));
            for (l, row) in panel.chunks_exact_mut(NR).enumerate() {
                let base = (row0 + l) * self.rs + j0 * self.cs;
                let (data, pad) = row.split_at_mut(cols);
                if self.cs == 1 {
                    data.copy_from_slice(&self.data[base..base + cols]);
                } else {
                    for (q, x) in data.iter_mut().enumerate() {
                        *x = self.data[base + q * self.cs];
                    }
                }
                pad.fill(0.0);
            }
        }
    }
}

/// `A'` packed whole, once, into the `MR`-row micro-panels the driver
/// reads, so several products against the same `A'` (a convolution's
/// images) share one pack. The `KC` block starting at column `lc` holds
/// `⌈m/MR⌉` panels of `kc × MR` floats from offset `lc·⌈m/MR⌉·MR`, k-major
/// within each panel; rows past `m` are zero-padded so the micro-kernel
/// never branches on the row count.
pub(crate) struct PackedA {
    buf: ScratchBuf,
    m: usize,
    k: usize,
}

impl PackedA {
    /// Packs the `m × k` operand `A'(i, l) = a[i·a_rs + l·a_cs]`.
    pub(crate) fn new(m: usize, k: usize, a: &[f32], (a_rs, a_cs): (usize, usize)) -> PackedA {
        let rows = m.div_ceil(MR) * MR;
        let mut buf = scratch::take(rows * k);
        for lc in (0..k).step_by(KC) {
            let kc = KC.min(k - lc);
            let block = &mut buf[lc * rows..(lc + kc) * rows];
            for (p, panel) in block.chunks_exact_mut(kc * MR).enumerate() {
                for r in 0..MR {
                    let i = p * MR + r;
                    if i >= m {
                        // `take` hands out zeroed storage: the padding rows
                        // are already 0.0.
                        break;
                    }
                    let base = i * a_rs + lc * a_cs;
                    let dst = panel.iter_mut().skip(r).step_by(MR);
                    if a_cs == 1 {
                        for (x, &v) in dst.zip(&a[base..base + kc]) {
                            *x = v;
                        }
                    } else {
                        for (l, x) in dst.enumerate() {
                            *x = a[base + l * a_cs];
                        }
                    }
                }
            }
        }
        PackedA { buf, m, k }
    }

    /// The panels of the `KC` block at column `lc` (width `kc`), from row
    /// `row0` on; `row0` is a multiple of `MR`.
    fn panels(&self, lc: usize, kc: usize, row0: usize) -> &[f32] {
        let rows = self.m.div_ceil(MR) * MR;
        &self.buf[lc * rows + (row0 / MR) * kc * MR..(lc + kc) * rows]
    }
}

/// The packed GEBP driver of the autovec and AVX2 variants: `C += A'·B'`
/// for a packed `A'` (`m × k`) and `B'` (`k × n`) taken block by block
/// from `b`, into row-major `C` (`m × n`). Only the inner register-tile
/// kernel differs between the variants.
pub(crate) fn blocked(
    micro: Micro,
    tile: Tile,
    n: usize,
    a: &PackedA,
    b: &impl PanelSource,
    c: &mut [f32],
) {
    // f32 bit-identity pins the reduction split; a table row that varied
    // `kc` would silently change results between shape classes.
    assert_eq!(tile.kc, KC, "f32 kernels require the pinned KC block");
    let (m, k) = (a.m, a.k);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // The B block is clamped to the actual shape before sizing the pooled
    // pack buffer: `take` zero-fills what it hands out, and a full-tile
    // buffer for a small GEMM costs more in memset than the product
    // itself. MC blocks start on panel boundaries. Neither choice can
    // change results: both only partition independent output elements,
    // never the KC reduction split the bit-identity contract pins.
    let nc_blk = tile.nc.min(n);
    let mc_blk = tile.mc.next_multiple_of(MR);
    let mut bpack = scratch::take(nc_blk.div_ceil(NR) * NR * KC.min(k));

    for lc in (0..k).step_by(KC) {
        let kc = KC.min(k - lc);
        for jc in (0..n).step_by(nc_blk) {
            let nc = nc_blk.min(n - jc);
            b.pack(&mut bpack, lc, kc, jc, nc);
            for ic in (0..m).step_by(mc_blk) {
                let mc = mc_blk.min(m - ic);
                let apack = a.panels(lc, kc, ic);
                for jr in (0..nc).step_by(NR) {
                    let nr = NR.min(nc - jr);
                    let bp = &bpack[(jr / NR) * kc * NR..][..kc * NR];
                    for ir in (0..mc).step_by(MR) {
                        let mr = MR.min(mc - ir);
                        let ap = &apack[(ir / MR) * kc * MR..][..kc * MR];
                        let c_off = (ic + ir) * n + jc + jr;
                        let ctile = &mut c[c_off..];
                        match micro {
                            Micro::Autovec => micro_autovec(kc, ap, bp, ctile, n, mr, nr),
                            Micro::Avx2 => micro_avx2(kc, ap, bp, ctile, n, mr, nr),
                        }
                    }
                }
            }
        }
    }
}

/// Autovectorized `MR × NR` register-tile kernel: dispatches to an
/// AVX2-compiled copy of [`micro_body`] when the CPU supports it. The two
/// copies run the very same Rust code and SIMD lanes only span *different*
/// output elements — each accumulator is still reduced over `l`
/// sequentially — so the dispatch is bit-transparent.
fn micro_autovec(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: calling a `#[target_feature(enable = "avx2")]` function
        // is sound iff the CPU supports AVX2, and the runtime
        // `is_x86_feature_detected!` check on the line above guarantees
        // exactly that. Feature availability is the *only* proof
        // obligation here: `micro_body_avx2` takes ordinary slices and its
        // body is safe Rust (bounds-checked indexing, no raw pointers), so
        // no aliasing, alignment or in-bounds reasoning is delegated to
        // the caller.
        return unsafe { micro_body_avx2(kc, ap, bp, c, ldc, mr, nr) };
    }
    micro_body(kc, ap, bp, c, ldc, mr, nr);
}

/// [`micro_body`] recompiled with 256-bit vectors: one row of the
/// accumulator block is two `ymm` registers, so the whole `MR × NR` tile
/// lives in eight of the sixteen vector registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn micro_body_avx2(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    micro_body(kc, ap, bp, c, ldc, mr, nr);
}

#[inline(always)]
fn micro_body(kc: usize, ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize, mr: usize, nr: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    let (a_panels, _) = ap[..kc * MR].as_chunks::<MR>();
    let (b_panels, _) = bp[..kc * NR].as_chunks::<NR>();
    for (av, bv) in a_panels.iter().zip(b_panels) {
        for r in 0..MR {
            let a = av[r];
            for q in 0..NR {
                acc[r][q] += a * bv[q];
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

/// Hand-written AVX2 `MR × NR` register-tile kernel over the same packed
/// panels. Falls back to the generic body off x86-64 or when AVX2 is
/// absent (the selector never picks this variant there, but the function
/// stays total).
fn micro_avx2(kc: usize, ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize, mr: usize, nr: usize) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: calling a `#[target_feature(enable = "avx2")]` function
        // is sound iff the CPU supports AVX2, which the runtime
        // `is_x86_feature_detected!` check on the line above guarantees.
        // The intrinsics inside assert their slice bounds before any raw
        // pointer arithmetic, so feature availability is the only proof
        // obligation delegated to this call site.
        return unsafe { micro_intrinsics_avx2(kc, ap, bp, c, ldc, mr, nr) };
    }
    micro_body(kc, ap, bp, c, ldc, mr, nr);
}

/// The intrinsics tile: two 8-lane `mul`/`add` chains per row. **No FMA** —
/// `_mm256_fmadd_ps` rounds once per lane where the scalar body rounds
/// twice, which would break cross-variant bit-identity.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn micro_intrinsics_avx2(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };
    assert!(ap.len() >= kc * MR, "packed A panel too short");
    assert!(bp.len() >= kc * NR, "packed B panel too short");
    let mut acc0 = [_mm256_setzero_ps(); MR];
    let mut acc1 = [_mm256_setzero_ps(); MR];
    for l in 0..kc {
        // SAFETY: `bp` holds at least `kc * NR` floats (asserted above), so
        // both unaligned 8-lane loads at `l * NR` and `l * NR + 8` stay in
        // bounds; `loadu` has no alignment requirement.
        let (b0, b1) = unsafe {
            (
                _mm256_loadu_ps(bp.as_ptr().add(l * NR)),
                _mm256_loadu_ps(bp.as_ptr().add(l * NR + 8)),
            )
        };
        let av = &ap[l * MR..l * MR + MR];
        for r in 0..MR {
            let a = _mm256_set1_ps(av[r]);
            acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(a, b0));
            acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(a, b1));
        }
    }
    let mut tile = [[0.0f32; NR]; MR];
    for r in 0..MR {
        // SAFETY: `tile[r]` is NR = 16 contiguous floats, exactly the room
        // the two unaligned 8-lane stores need.
        unsafe {
            _mm256_storeu_ps(tile[r].as_mut_ptr(), acc0[r]);
            _mm256_storeu_ps(tile[r].as_mut_ptr().add(8), acc1[r]);
        }
    }
    for r in 0..mr {
        let row = &mut c[r * ldc..r * ldc + nr];
        for (dst, &v) in row.iter_mut().zip(&tile[r][..nr]) {
            *dst += v;
        }
    }
}

/// Straight f64-accumulating triple loop with the same stride convention —
/// the approximate-correctness oracle every f32 variant is tested against.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_f32_reference(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    (a_rs, a_cs): (usize, usize),
    b: &[f32],
    (b_rs, b_cs): (usize, usize),
    c: &mut [f32],
) {
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0f64;
            for l in 0..k {
                s += f64::from(a[i * a_rs + l * a_cs]) * f64::from(b[l * b_rs + j * b_cs]);
            }
            c[i * n + j] += s as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VARIANTS: [Variant; 3] = [Variant::Scalar, Variant::Autovec, Variant::Avx2];

    fn fill(len: usize, salt: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                (x % 2001) as f32 / 1000.0 - 1.0
            })
            .collect()
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
        // Skinny by `n` with a reduction crossing the KC boundary.
        shapes.extend([(64, 3, 32), (17, 5, 300), (300, 3, 600)]);
        shapes
    }

    /// Bits of `c` with every NaN mapped to one pattern: which NaN survives
    /// a sum of two different NaNs may differ between variants (module
    /// docs), every other bit may not.
    fn canonical_bits(c: &[f32]) -> Vec<u32> {
        c.iter()
            .map(|x| {
                if x.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    x.to_bits()
                }
            })
            .collect()
    }

    /// Runs every variant on `C0 + A'·B'` and asserts the results agree.
    fn assert_variants_agree(
        (m, n, k): (usize, usize, usize),
        a: &[f32],
        a_str: (usize, usize),
        b: &[f32],
        b_str: (usize, usize),
        c0: &[f32],
    ) {
        let mut outs = Vec::new();
        for v in VARIANTS {
            let mut c = c0.to_vec();
            gemm_f32_with(v, m, n, k, a, a_str, b, b_str, &mut c);
            outs.push(canonical_bits(&c));
        }
        assert_eq!(outs[0], outs[1], "({m}x{n}x{k}) scalar != autovec");
        assert_eq!(outs[1], outs[2], "({m}x{n}x{k}) autovec != avx2");
    }

    #[test]
    fn variants_are_bit_identical() {
        // Shapes straddling MR/NR remainder tiles, the MC/NC cache blocks
        // and — crucially for the scalar block split — the KC boundary.
        let mut shapes = vec![
            (1, 1, 1),
            (3, 5, 2),
            (5, 17, 9),
            (64, 16, 64),
            (65, 17, 65),
            (7, 300, 300),
            (9, 33, 600),
            (2, 5, 257),
        ];
        shapes.extend(skinny_grid());
        for (m, n, k) in shapes {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            assert_variants_agree((m, n, k), &a, (k, 1), &b, (n, 1), &vec![0.0; m * n]);
        }
    }

    #[test]
    fn variants_are_bit_identical_on_transposed_strides() {
        let mut shapes = vec![(33, 29, 300)];
        shapes.extend(skinny_grid());
        for (m, n, k) in shapes {
            let a = fill(k * m, 3);
            let b = fill(n * k, 4);
            assert_variants_agree((m, n, k), &a, (1, m), &b, (1, k), &vec![0.0; m * n]);
        }
    }

    #[test]
    fn skinny_shapes_keep_signed_zeros_and_non_finite_values() {
        // Signed zeros: `-0.0` operands and a `-0.0` accumulator, where
        // the sign of every sum depends on the reduction order. Non-finite
        // values: inf, -inf and NaN operands, compared under the NaN
        // exception.
        let specials = [
            -0.0f32,
            0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1.5,
            -2.0,
        ];
        let pick = |len: usize, salt: usize, every: usize| -> Vec<f32> {
            fill(len, salt as u32)
                .into_iter()
                .enumerate()
                .map(|(i, x)| {
                    if i % every == 0 {
                        specials[(i / every + salt) % specials.len()]
                    } else {
                        x
                    }
                })
                .collect()
        };
        for (m, n, k) in skinny_grid() {
            for (every, c_fill) in [(1, -0.0f32), (3, -0.0), (11, 0.5)] {
                let a = pick(m * k, 5, every);
                let b = pick(k * n, 6, every);
                let c0 = vec![c_fill; m * n];
                assert_variants_agree((m, n, k), &a, (k, 1), &b, (n, 1), &c0);
                assert_variants_agree((m, n, k), &a, (1, m), &b, (1, k), &c0);
            }
        }
    }

    #[test]
    fn every_variant_matches_the_reference() {
        let (m, n, k) = (31, 45, 70);
        let a = fill(m * k, 5);
        let b = fill(k * n, 6);
        let mut want = vec![0.0f32; m * n];
        gemm_f32_reference(m, n, k, &a, (k, 1), &b, (n, 1), &mut want);
        let tol = 1e-4 * k as f32;
        for v in VARIANTS {
            let mut got = vec![0.0f32; m * n];
            gemm_f32_with(v, m, n, k, &a, (k, 1), &b, (n, 1), &mut got);
            for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (g - w).abs() <= tol,
                    "{v:?} element {i}: {g} vs reference {w}"
                );
            }
        }
    }

    #[test]
    fn nonstandard_tiles_do_not_change_bits() {
        // MC/NC partition independent outputs; any packed tile must agree
        // with the scalar kernel bit-for-bit.
        let (m, n, k) = (70, 50, 300);
        let a = fill(m * k, 7);
        let b = fill(k * n, 8);
        let mut want = vec![0.0f32; m * n];
        scalar(m, n, k, &a, (k, 1), &b, (n, 1), &mut want);
        for (mc, nc) in [(8, 32), (64, 256), (128, 48)] {
            let mut got = vec![0.0f32; m * n];
            run(
                Selection {
                    variant: Variant::Autovec,
                    tile: Tile {
                        mr: MR,
                        nr: NR,
                        kc: KC,
                        mc,
                        nc,
                    },
                },
                m,
                n,
                k,
                &a,
                (k, 1),
                &b,
                (n, 1),
                &mut got,
            );
            let wb: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
            let gb: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
            assert_eq!(wb, gb, "tile ({mc},{nc}) changed bits");
        }
    }
}
