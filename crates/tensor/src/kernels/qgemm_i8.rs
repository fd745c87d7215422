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

use super::{Selection, ShapeClass, Tile, Variant, MR, NR};
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
        v if super::classify(m, n, k) == ShapeClass::Skinny => skinny(v, m, n, k, a, b, c),
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
// Skinny bodies: `vpmaddwd` kernels for the avx2 row, a generic Rust body
// for the autovec row.
// ---------------------------------------------------------------------------

/// Rows of `A` one row-dot step reduces together (one `hadd` tree).
const SK_ROWS: usize = 8;
/// `i16` lanes per `vpmaddwd` operand: the row-dot form pads `k` to a
/// multiple of this with zeros.
const SK_K: usize = 16;

/// The skinny body of the packed variants ([`ShapeClass::Skinny`]). The
/// `avx2` row runs the `vpmaddwd` kernels of [`skinny_avx2`] (on a CPU
/// without AVX2 it takes the autovec body, as the packed GEMMs do); the
/// `autovec` row runs [`skinny_generic`]. Exact `i32` accumulation, as in
/// every variant.
fn skinny(variant: Variant, m: usize, n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    assert!(k <= K_MAX, "qgemm skinny: k={k} exceeds K_MAX={K_MAX}");
    #[cfg(target_arch = "x86_64")]
    if variant == Variant::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: calling a `#[target_feature(enable = "avx2")]` function
        // is sound iff the CPU supports AVX2, which the runtime check on
        // the line above guarantees; the kernels inside assert their slice
        // bounds before any raw pointer arithmetic.
        return unsafe { skinny_avx2(m, n, k, a, b, c) };
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: as above — the runtime check on the line above
        // guarantees AVX2; the body is safe Rust over ordinary slices.
        return unsafe { skinny_generic_avx2(m, n, k, a, b, c) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = variant; // only the AVX2 dispatch reads it
    skinny_generic(m, n, k, a, b, c);
}

/// [`skinny_generic`] recompiled with AVX2 codegen.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn skinny_generic_avx2(m: usize, n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    skinny_generic(m, n, k, a, b, c);
}

/// The autovec row's skinny body: plain loops the compiler vectorises.
/// With `n < NR` each output is a dot product of an `A` row with a column
/// of `B` widened to `i16` once per call; otherwise (`k < SKINNY_K`) each
/// row of `C` is `k` scaled rows of `B` summed across its columns. Either
/// way an output's products are summed in `i32` before one add into `C`.
#[inline(always)]
fn skinny_generic(m: usize, n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    let (a, c) = (&a[..m * k], &mut c[..m * n]);
    if n < NR {
        let mut bt = scratch::take::<i16>(n * k);
        for (l, brow) in b[..k * n].chunks_exact(n).enumerate() {
            for (j, &v) in brow.iter().enumerate() {
                bt[j * k + l] = i16::from(v);
            }
        }
        for (arow, crow) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
            for (cj, col) in crow.iter_mut().zip(bt.chunks_exact(k)) {
                let dot: i32 = arow
                    .iter()
                    .zip(col)
                    .map(|(&x, &y)| i32::from(x) * i32::from(y))
                    .sum();
                *cj += dot;
            }
        }
    } else {
        let mut sums = scratch::take::<i32>(n);
        for (arow, crow) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
            sums.fill(0);
            for (&x, brow) in arow.iter().zip(b.chunks_exact(n)) {
                let x = i32::from(x);
                for (s, &y) in sums.iter_mut().zip(brow) {
                    *s += x * i32::from(y);
                }
            }
            for (cj, &s) in crow.iter_mut().zip(sums.iter()) {
                *cj += s;
            }
        }
    }
}

/// The avx2 row's skinny kernels, all on `vpmaddwd` (`i16` pairs
/// multiplied and summed into `i32` lanes):
///
/// * `n ≥ NR` (so `k < SKINNY_K`): [`skinny_pairs_cols_avx2`], lanes
///   across the columns of `C`;
/// * `n < NR`, `k ≤ 2`: [`skinny_pairs_rows_avx2`], lanes across an
///   8-row block of `C` in storage order;
/// * `n < NR`, `k ≥ 3`: [`skinny_rowdot_avx2`], one dot product per
///   output, eight outputs reduced together.
///
/// Exactness is integer arithmetic: operands are `i8`, so every product
/// satisfies `|a·b| ≤ 2¹⁴` and every `vpmaddwd` pair sum `≤ 2¹⁵` — far
/// inside the `i32` lane, with no saturation anywhere — and the `i32`
/// sums of at most `k ≤ K_MAX` products stay below `2³⁰`. Zero padding
/// (the high half of an odd `k`'s last pair, `k` up to a multiple of 16,
/// columns up to a multiple of 8) contributes zero products, and the
/// outputs of padded rows are never written back. The result equals the
/// scalar triple loop's in any summation order.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn skinny_avx2(m: usize, n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    assert!(a.len() >= m * k && b.len() >= k * n && c.len() >= m * n);
    if n >= NR {
        skinny_pairs_cols_avx2(m, n, k, a, b, c);
    } else if k <= 2 {
        skinny_pairs_rows_avx2(m, n, k, a, b, c);
    } else {
        skinny_rowdot_avx2(m, n, k, a, b, c);
    }
}

/// Packs two `i8` values as one `i32` lane of two sign-extended `i16`s,
/// `lo` in the low half — the operand layout of `vpmaddwd`.
#[inline(always)]
fn i16_pair(lo: i8, hi: i8) -> i32 {
    (i32::from(hi) << 16) | i32::from(lo as i16 as u16)
}

/// The `i16` pair of rows `(2g, 2g + 1)` of `B` at column `j` (`k` rows of
/// width `n`): zero in the high half past row `k`.
#[inline(always)]
fn b_pair(b: &[i8], n: usize, k: usize, g: usize, j: usize) -> i32 {
    let hi = if 2 * g + 1 < k {
        b[(2 * g + 1) * n + j]
    } else {
        0
    };
    i16_pair(b[2 * g * n + j], hi)
}

/// Widens eight rows of `A` for `k ≤ 2` — their `8·k` bytes are one
/// contiguous load — to eight `i32` lanes: row `r`'s pair
/// `(a(r, 0), a(r, 1))` when `k = 2`; `a(r, 0)` sign-extended when
/// `k = 1`, whose high half only ever meets the zero high half of a
/// [`b_pair`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn row_pairs8(block: &[i8], k: usize) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::{
        _mm256_cvtepi8_epi16, _mm256_cvtepi8_epi32, _mm_loadl_epi64, _mm_loadu_si128,
    };
    assert!(block.len() >= 8 * k && k <= 2);
    // SAFETY: asserted above: 16 readable bytes when `k = 2`, 8 when `k = 1`.
    unsafe {
        if k == 2 {
            _mm256_cvtepi8_epi16(_mm_loadu_si128(block.as_ptr().cast()))
        } else {
            _mm256_cvtepi8_epi32(_mm_loadl_epi64(block.as_ptr().cast()))
        }
    }
}

/// `k < SKINNY_K`, `n ≥ NR`: each row of `C` takes eight columns per
/// `vpmaddwd`, one pass over `C` per k-pair. `B` is packed once per call
/// as [`b_pair`]s, zero-padded to a multiple of 8 columns, and `A` once as
/// `i16` pairs of each row, which the row loop broadcasts; a column tail
/// narrower than 8 goes through masked loads and stores. (Below 8 columns
/// a row's masked store overlaps the next row's masked load, which waits
/// for it: that is why `n < NR`, `k ≤ 2` takes [`skinny_pairs_rows_avx2`].)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn skinny_pairs_cols_avx2(m: usize, n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    use std::arch::x86_64::*;
    let groups = k.div_ceil(2);
    let np = n.next_multiple_of(8);
    let mut bp = scratch::take::<i32>(groups * np);
    for (g, prow) in bp.chunks_exact_mut(np).enumerate() {
        for (j, p) in prow[..n].iter_mut().enumerate() {
            *p = b_pair(b, n, k, g, j);
        }
    }
    let mut ap = scratch::take::<i32>(m * groups);
    let whole = if k <= 2 { m / 8 * 8 } else { 0 };
    for (block, dst) in a[..whole * k]
        .chunks_exact(8 * k)
        .zip(ap.as_chunks_mut::<8>().0)
    {
        // SAFETY: `dst` is an 8-element array: one 32-byte store.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), row_pairs8(block, k)) };
    }
    for (arow, pairs) in a[whole * k..m * k]
        .chunks_exact(k)
        .zip(ap[whole * groups..].chunks_exact_mut(groups))
    {
        for (g, p) in pairs.iter_mut().enumerate() {
            *p = b_pair(arow, 1, k, g, 0);
        }
    }
    assert!(bp.len() == groups * np && np >= n);
    let full = n / 8 * 8;
    let tail = _mm256_cmpgt_epi32(
        _mm256_set1_epi32((n - full) as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    );
    // One pass over `C` per k-pair `g`: row `i` broadcasts its pair
    // `ap[i·groups + g]` against the pairs `bp[g·np..]` of every column.
    for (g, bg) in bp.chunks_exact(np).enumerate() {
        for (pairs, crow) in ap.chunks_exact(groups).zip(c[..m * n].chunks_exact_mut(n)) {
            let av = _mm256_set1_epi32(pairs[g]);
            // SAFETY: `j0 + 8 ≤ np = bg.len()`: every `B` load is in bounds.
            let prod = |j0: usize| unsafe {
                _mm256_madd_epi16(av, _mm256_loadu_si256(bg.as_ptr().add(j0).cast()))
            };
            for j0 in (0..full).step_by(8) {
                // SAFETY: `j0 + 8 ≤ full ≤ n = crow.len()`.
                unsafe {
                    let dst = crow.as_mut_ptr().add(j0).cast::<__m256i>();
                    _mm256_storeu_si256(dst, _mm256_add_epi32(_mm256_loadu_si256(dst), prod(j0)));
                }
            }
            if full < n {
                // SAFETY: the mask enables lanes `0..n − full` only, all
                // within `crow`; masked-off lanes are neither read nor
                // written.
                unsafe {
                    let dst = crow.as_mut_ptr().add(full);
                    let v = _mm256_add_epi32(_mm256_maskload_epi32(dst, tail), prod(full));
                    _mm256_maskstore_epi32(dst, tail, v);
                }
            }
        }
    }
}

/// `n < NR`, `k ≤ 2`: the outputs of eight rows are one row-major block
/// of `8·n` elements of `C`, produced as `n` vectors in storage order.
/// Lane `e` of vector `v` is element `f = 8v + e` of the block, row
/// `f / n` and column `f mod n`: a `vpermd` picks that row's pair from
/// the block's [`row_pairs8`], and it meets a per-lane pattern of
/// [`b_pair`]s built once per call.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn skinny_pairs_rows_avx2(m: usize, n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    use std::arch::x86_64::*;
    let mut rowsel = [_mm256_setzero_si256(); NR];
    let mut bpat = [_mm256_setzero_si256(); NR];
    let (mut row, mut col) = (0, 0);
    for (sel, pat) in rowsel[..n].iter_mut().zip(&mut bpat) {
        let (mut rows, mut pairs) = ([0i32; 8], [0i32; 8]);
        for (r, p) in rows.iter_mut().zip(&mut pairs) {
            (*r, *p) = (row, b_pair(b, n, k, 0, col));
            col += 1;
            if col == n {
                (row, col) = (row + 1, 0);
            }
        }
        // SAFETY: both are 8-element `i32` arrays: 32 readable bytes each.
        (*sel, *pat) = unsafe {
            (
                _mm256_loadu_si256(rows.as_ptr().cast()),
                _mm256_loadu_si256(pairs.as_ptr().cast()),
            )
        };
    }
    let block = |av: __m256i, v: usize| {
        _mm256_madd_epi16(_mm256_permutevar8x32_epi32(av, rowsel[v]), bpat[v])
    };
    let whole = m / 8 * 8;
    for (ablk, cblk) in a[..whole * k]
        .chunks_exact(8 * k)
        .zip(c.chunks_exact_mut(8 * n))
    {
        let av = row_pairs8(ablk, k);
        for (v, dst) in cblk.as_chunks_mut::<8>().0.iter_mut().enumerate() {
            // SAFETY: `dst` is an 8-element array: one 32-byte load and store.
            unsafe {
                let p = dst.as_mut_ptr().cast::<__m256i>();
                _mm256_storeu_si256(p, _mm256_add_epi32(_mm256_loadu_si256(p), block(av, v)));
            }
        }
    }
    if whole < m {
        let mut edge = [0i8; 16];
        edge[..(m - whole) * k].copy_from_slice(&a[whole * k..m * k]);
        let av = row_pairs8(&edge, k);
        let mut out = [0i32; 8 * NR];
        for (v, dst) in out.as_chunks_mut::<8>().0[..n].iter_mut().enumerate() {
            // SAFETY: `dst` is an 8-element array: one 32-byte store.
            unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), block(av, v)) };
        }
        for (cj, &x) in c[whole * n..m * n].iter_mut().zip(&out) {
            *cj += x;
        }
    }
}

/// `n < NR`, `k ≥ 3`: the row-dot form. `B`'s columns are packed once per
/// call as zero-padded `i16` rows of `kp = k` rounded up to 16, and each
/// group of eight `A` rows is widened to `i16` once. The group's `8·n`
/// outputs are produced in storage order, eight at a time: each output is
/// the `i32` lane sum of `kp/16` `vpmaddwd` products of its row and
/// column, and one `hadd` tree ([`hsum8`]) reduces eight of them into
/// one vector of `C`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn skinny_rowdot_avx2(m: usize, n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    use std::arch::x86_64::*;
    let kp = k.next_multiple_of(SK_K);
    let mut bt = scratch::take::<i16>(n * kp);
    for (l, brow) in b[..k * n].chunks_exact(n).enumerate() {
        for (j, &v) in brow.iter().enumerate() {
            bt[j * kp + l] = i16::from(v);
        }
    }
    let mut at = scratch::take::<i16>(SK_ROWS * kp);
    let full = k / SK_K * SK_K;
    // Output `f` of a group: row `f / n` of `at`, column `f mod n` of `bt`.
    let (mut aoff, mut boff) = ([0usize; SK_ROWS * NR], [0usize; SK_ROWS * NR]);
    let (mut row, mut col) = (0, 0);
    for (ao, bo) in aoff[..SK_ROWS * n].iter_mut().zip(&mut boff) {
        (*ao, *bo) = (row * kp, col * kp);
        col += 1;
        if col == n {
            (row, col) = (row + 1, 0);
        }
    }
    assert!(at.len() == SK_ROWS * kp && bt.len() == n * kp);
    let mut out = [0i32; SK_ROWS * NR];
    for i0 in (0..m).step_by(SK_ROWS) {
        let rows = SK_ROWS.min(m - i0);
        for (arow, dst) in a[i0 * k..(i0 + rows) * k]
            .chunks_exact(k)
            .zip(at.chunks_exact_mut(kp))
        {
            for l0 in (0..full).step_by(SK_K) {
                // SAFETY: `l0 + 16 ≤ full ≤ k = arow.len()` and
                // `≤ kp = dst.len()`: a 16-byte load, a 32-byte store.
                unsafe {
                    let v = _mm256_cvtepi8_epi16(_mm_loadu_si128(arow.as_ptr().add(l0).cast()));
                    _mm256_storeu_si256(dst.as_mut_ptr().add(l0).cast(), v);
                }
            }
            // Positions `k..kp` of every row stay zero: nothing writes them.
            for (d, &x) in dst[full..k].iter_mut().zip(&arow[full..]) {
                *d = i16::from(x);
            }
        }
        // Rows past `rows` of a partial group hold stale or zero data;
        // their outputs are computed and dropped.
        let cblk = &mut c[i0 * n..(i0 + rows) * n];
        for (v, (ao, bo)) in aoff[..SK_ROWS * n]
            .as_chunks::<SK_ROWS>()
            .0
            .iter()
            .zip(boff.as_chunks::<SK_ROWS>().0)
            .enumerate()
        {
            let mut acc = [_mm256_setzero_si256(); SK_ROWS];
            for l0 in (0..kp).step_by(SK_K) {
                for (s, (&ar, &bc)) in acc.iter_mut().zip(ao.iter().zip(bo)) {
                    // SAFETY: `ar + l0 + 16 ≤ 8·kp = at.len()` and
                    // `bc + l0 + 16 ≤ n·kp = bt.len()` (asserted above).
                    unsafe {
                        let av = _mm256_loadu_si256(at.as_ptr().add(ar + l0).cast());
                        let bv = _mm256_loadu_si256(bt.as_ptr().add(bc + l0).cast());
                        *s = _mm256_add_epi32(*s, _mm256_madd_epi16(av, bv));
                    }
                }
            }
            let sums = hsum8(acc);
            if 8 * v + 8 <= cblk.len() {
                // SAFETY: `8v + 8 ≤ cblk.len()`: one 32-byte load and store.
                unsafe {
                    let p = cblk.as_mut_ptr().add(8 * v).cast::<__m256i>();
                    _mm256_storeu_si256(p, _mm256_add_epi32(_mm256_loadu_si256(p), sums));
                }
            } else {
                // SAFETY: `out` holds `8·NR ≥ 8v + 8` i32.
                unsafe { _mm256_storeu_si256(out.as_mut_ptr().add(8 * v).cast(), sums) };
            }
        }
        if rows < SK_ROWS {
            let done = cblk.len() / 8 * 8;
            for (cj, &x) in cblk[done..].iter_mut().zip(&out[done..]) {
                *cj += x;
            }
        }
    }
}

/// Lane `r` of the result is the sum of the eight lanes of `v[r]`: three
/// levels of `vphaddd` leave each input's two 128-bit half sums in
/// matching lanes of two registers, and one cross-lane permute pair adds
/// them.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn hsum8(v: [std::arch::x86_64::__m256i; SK_ROWS]) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::{_mm256_add_epi32, _mm256_hadd_epi32, _mm256_permute2x128_si256};
    let h01 = _mm256_hadd_epi32(v[0], v[1]);
    let h23 = _mm256_hadd_epi32(v[2], v[3]);
    let h45 = _mm256_hadd_epi32(v[4], v[5]);
    let h67 = _mm256_hadd_epi32(v[6], v[7]);
    let lo = _mm256_hadd_epi32(h01, h23);
    let hi = _mm256_hadd_epi32(h45, h67);
    _mm256_add_epi32(
        _mm256_permute2x128_si256::<0x20>(lo, hi),
        _mm256_permute2x128_si256::<0x31>(lo, hi),
    )
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
    use super::super::SKINNY_K;
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

    /// The skinny class boundaries and the edges of each `vpmaddwd`
    /// kernel: `m` around `MR` and the 8-row groups, plus the MLP's batch
    /// and eval-set sizes; with `n < NR`, `k` around the row-pair form
    /// (`k ≤ 2`), `SKINNY_K` and the row-dot form's 16-wide padding; with
    /// `n ≥ NR`, every `k < SKINNY_K` (odd `k` pads the last pair) and
    /// `k = SKINNY_K`, the first shape of the packed side, at column
    /// counts that leave 8-lane tails.
    fn skinny_grid() -> Vec<(usize, usize, usize)> {
        let mut shapes = Vec::new();
        for m in [2, MR - 1, MR + 1, 7, 8, 9, 64, 300] {
            for n in [1, 2, 3, NR - 1] {
                for k in [1, 2, 3, 7, 8, 15, 16, 17, 31, 32, 33, 64] {
                    shapes.push((m, n, k));
                }
            }
            for n in [NR, NR + 1, 2 * NR + 7] {
                for k in 1..=SKINNY_K {
                    shapes.push((m, n, k));
                }
            }
        }
        shapes.extend([(17, 5, 300), (300, 3, 600)]);
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
        // All-−128 operands, the largest product `vpmaddwd` ever sees
        // (2¹⁴ per product, 2¹⁵ per pair), at the deepest `k` of the
        // skinny grid for each kernel: every output is `k·2¹⁴`.
        let mut shapes: Vec<(usize, usize, usize)> = [1, 2, 3, NR - 1]
            .into_iter()
            .flat_map(|n| [(9, n, 64), (9, n, 2)])
            .collect();
        shapes.extend([(9, NR + 1, SKINNY_K - 1), (300, 3, 600)]);
        for (m, n, k) in shapes {
            let (a, b) = (vec![-128i8; m * k], vec![-128i8; k * n]);
            for v in VARIANTS {
                let mut got = vec![0i32; m * n];
                qgemm_i8_with(v, m, n, k, &a, &b, &mut got);
                assert!(
                    got.iter().all(|&x| x == (k as i32) << 14),
                    "({m}x{n}x{k}) variant {v:?}"
                );
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
