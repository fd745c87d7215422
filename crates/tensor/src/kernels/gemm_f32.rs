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

use super::{Selection, Tile, Variant, KC, MR, NR};
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

    #[test]
    fn variants_are_bit_identical() {
        // Shapes straddling MR/NR remainder tiles, the MC/NC cache blocks
        // and — crucially for the scalar block split — the KC boundary.
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 2),
            (5, 17, 9),
            (64, 16, 64),
            (65, 17, 65),
            (7, 300, 300),
            (9, 33, 600),
            (2, 5, 257),
        ] {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let mut outs = Vec::new();
            for v in VARIANTS {
                let mut c = vec![0.0f32; m * n];
                gemm_f32_with(v, m, n, k, &a, (k, 1), &b, (n, 1), &mut c);
                outs.push(c.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
            }
            assert_eq!(outs[0], outs[1], "({m}x{n}x{k}) scalar != autovec");
            assert_eq!(outs[1], outs[2], "({m}x{n}x{k}) autovec != avx2");
        }
    }

    #[test]
    fn variants_are_bit_identical_on_transposed_strides() {
        let (m, n, k) = (33, 29, 300);
        let a = fill(k * m, 3);
        let b = fill(n * k, 4);
        let mut outs = Vec::new();
        for v in VARIANTS {
            let mut c = vec![0.0f32; m * n];
            gemm_f32_with(v, m, n, k, &a, (1, m), &b, (1, k), &mut c);
            outs.push(c.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        }
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[1], outs[2]);
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
