//! Kernel-selector layer: named micro-kernel variants behind a per-shape
//! selection table.
//!
//! The GEMM drivers in [`crate::ops`] no longer hardcode one blocked
//! kernel; they ask this module for a [`Selection`] — a kernel [`Variant`]
//! plus cache-blocking [`Tile`] parameters — keyed on the `(m, n, k)`
//! shape class of the call. Three variants exist per element type:
//!
//! * **scalar** — a direct strided triple loop, no packing. The reference
//!   point, and the fastest choice for shapes where packing overhead
//!   dominates (single-row products, tiny layers).
//! * **autovec** — the packed GEBP kernel with a generic Rust body the
//!   compiler auto-vectorises, recompiled under
//!   `#[target_feature(enable = "avx2")]` when the CPU supports it.
//! * **avx2** — hand-written AVX2 intrinsics over the same packed-panel
//!   layout: `mul`/`add` register tiles for f32
//!   ([`gemm_f32`]), and a `maddubs`-style u8×i8 pairwise dot-product
//!   kernel for int8 ([`qgemm_i8`]).
//!
//! Selection is overridable process-wide with `BDLFI_KERNEL=scalar|
//! autovec|avx2` (read once, first use wins) so CI can force every suite
//! through every variant. Forcing `avx2` on a host without AVX2 downgrades
//! to `autovec` — the override must never make a binary crash or a suite
//! vacuously skip.
//!
//! # Determinism across variants
//!
//! Campaign results must not depend on which variant ran:
//!
//! * int8 kernels accumulate exactly, so any blocking and any instruction
//!   set produce bit-identical `i32` results by associativity;
//! * f32 kernels all reduce each output element in the same fixed order —
//!   `k` split into [`KC`]-sized blocks ascending, elements ascending
//!   within a block, one partial sum per block accumulated into `C` — and
//!   none uses FMA (fused rounding would differ from the scalar body), so
//!   every variant produces bit-identical `f32` results too, with one
//!   exception: when two different NaNs meet in one sum (say `0·inf` and
//!   a NaN weight), which NaN survives — its sign and payload — can differ
//!   between variants, since the compiler may swap the operands of an
//!   add. Everything a journal records from logits (argmax predictions,
//!   classification error, golden mismatches) compares values, and every
//!   comparison with any NaN is false, so journals stay independent of the
//!   variant. [`KC`] is *not* a per-shape tunable for f32: every table row
//!   pins it.
//!
//! The per-shape table only varies the outer cache blocks (`MC`/`NC`),
//! which partition independent output elements and cannot affect results.

pub mod gemm_f32;
pub mod qgemm_i8;

use std::sync::OnceLock;

/// Rows per packed micro-panel of `A` (register-tile height).
pub const MR: usize = 4;
/// Columns per packed micro-panel of `B` (register-tile width).
pub const NR: usize = 16;
/// `k`-dimension block. Fixed for every f32 variant and shape class: the
/// cross-variant bit-identity contract pins the reduction split (see the
/// module docs). Int8 kernels share the value for cache symmetry even
/// though exact integer accumulation would allow varying it.
pub const KC: usize = 256;

/// A named micro-kernel implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Direct strided triple loop; no packing, no explicit SIMD.
    Scalar,
    /// Packed GEBP panels with a compiler-vectorised generic body.
    Autovec,
    /// Packed GEBP panels with hand-written AVX2 intrinsics.
    Avx2,
}

impl Variant {
    /// Stable lowercase name, as accepted by `BDLFI_KERNEL` and recorded
    /// in benchmark reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Variant::Scalar => "scalar",
            Variant::Autovec => "autovec",
            Variant::Avx2 => "avx2",
        }
    }

    /// Parses a `BDLFI_KERNEL` value.
    pub fn parse(s: &str) -> Option<Variant> {
        match s {
            "scalar" => Some(Variant::Scalar),
            "autovec" => Some(Variant::Autovec),
            "avx2" => Some(Variant::Avx2),
            _ => None,
        }
    }
}

/// Cache-blocking parameters attached to a [`Selection`].
///
/// `mr`/`nr`/`kc` describe the packed micro-panel geometry and are pinned
/// to [`MR`]/[`NR`]/[`KC`] (the packed kernels are compiled around them;
/// f32 additionally pins `kc` for bit-identity). `mc`/`nc` are the
/// per-shape tunables: the `A`-row and `B`-column cache blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Micro-panel rows (register-tile height).
    pub mr: usize,
    /// Micro-panel columns (register-tile width).
    pub nr: usize,
    /// `k`-dimension block.
    pub kc: usize,
    /// Rows of `A` packed per inner iteration.
    pub mc: usize,
    /// Columns of `B` packed per L2-resident panel.
    pub nc: usize,
}

impl Tile {
    const fn packed(mc: usize, nc: usize) -> Tile {
        Tile {
            mr: MR,
            nr: NR,
            kc: KC,
            mc,
            nc,
        }
    }
}

/// A resolved kernel choice for one GEMM call: which variant runs and with
/// which blocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    /// The micro-kernel that will run.
    pub variant: Variant,
    /// Cache-blocking parameters for the packed drivers (the scalar
    /// variant uses only `kc`).
    pub tile: Tile,
}

/// Shape classes the benched selection tables are keyed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeClass {
    /// Single-row product (`m == 1`): the sparse-delta and
    /// one-example paths. Packing `B` costs as much as the product.
    Gemv,
    /// Several rows but too few columns (`n < NR`) or too short a
    /// reduction (`k < SKINNY_K`) to fill a register tile: the paper's
    /// MLP (2 inputs, 3 classes) and classifier heads. The packed variants
    /// serve it with a body whose SIMD lanes each own one output element.
    Skinny,
    /// `m·n·k` below the packing break-even point.
    Tiny,
    /// Wide output (`n ≥ 256`): convolutions, whose `B` panels are
    /// packed straight from the image, and large batch layers; a larger
    /// `B` block means fewer passes over the packed `A`.
    Wide,
    /// Everything else: the blocked default.
    Blocked,
}

/// Reductions shorter than this are [`ShapeClass::Skinny`].
pub const SKINNY_K: usize = 8;

/// Classifies a GEMM shape for table lookup.
pub fn classify(m: usize, n: usize, k: usize) -> ShapeClass {
    if m > 1 && (n < NR || k < SKINNY_K) {
        ShapeClass::Skinny
    } else {
        packed_class(m, n, k)
    }
}

/// The class of a product whose `B` panels come from a packed source
/// rather than a strided matrix: every class but `Skinny`, whose body
/// reads `B` strided.
fn packed_class(m: usize, n: usize, k: usize) -> ShapeClass {
    if m == 1 {
        ShapeClass::Gemv
    } else if m * n * k <= 4096 {
        ShapeClass::Tiny
    } else if n >= 256 {
        ShapeClass::Wide
    } else {
        ShapeClass::Blocked
    }
}

// Benched per-class rows (preferred variant + tile), measured with
// `perf_smoke` scenarios on a 1-core AVX2 host (see DESIGN.md §15 for the
// numbers). Gemv/Tiny rows prefer the scalar kernel because packing both
// operands costs more than the whole product at those sizes; the packed
// rows differ only in how much of `B` stays L2-resident per `A` pack. A
// packed variant serves a Skinny shape with its skinny body, which uses
// no tile.
const F32_TABLE: [(ShapeClass, Variant, Tile); 5] = [
    (ShapeClass::Gemv, Variant::Scalar, Tile::packed(64, 256)),
    (ShapeClass::Skinny, Variant::Avx2, Tile::packed(64, 256)),
    (ShapeClass::Tiny, Variant::Scalar, Tile::packed(64, 256)),
    (ShapeClass::Wide, Variant::Avx2, Tile::packed(64, 512)),
    (ShapeClass::Blocked, Variant::Avx2, Tile::packed(64, 256)),
];

const I8_TABLE: [(ShapeClass, Variant, Tile); 5] = [
    (ShapeClass::Gemv, Variant::Scalar, Tile::packed(64, 256)),
    (ShapeClass::Skinny, Variant::Avx2, Tile::packed(64, 256)),
    (ShapeClass::Tiny, Variant::Scalar, Tile::packed(64, 256)),
    (ShapeClass::Wide, Variant::Avx2, Tile::packed(64, 512)),
    (ShapeClass::Blocked, Variant::Avx2, Tile::packed(64, 256)),
];

static FORCED: OnceLock<Option<Variant>> = OnceLock::new();

/// The process-wide `BDLFI_KERNEL` override, if set. Read once on first
/// use; an unrecognised value panics immediately rather than silently
/// running a different kernel than the operator asked for.
///
/// # Panics
///
/// Panics if `BDLFI_KERNEL` is set to anything other than `scalar`,
/// `autovec` or `avx2`.
pub fn forced_variant() -> Option<Variant> {
    *FORCED.get_or_init(|| match std::env::var("BDLFI_KERNEL") {
        Ok(s) => Some(
            Variant::parse(&s)
                // bdlfi-lint: allow(BD010) -- operator-override diagnostic: an invalid BDLFI_KERNEL must fail fast at startup, not be silently ignored
                .unwrap_or_else(|| panic!("BDLFI_KERNEL={s:?} is not one of scalar|autovec|avx2")),
        ),
        Err(_) => None,
    })
}

/// Whether the running CPU supports AVX2 (always `false` off x86-64).
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Applies the override and the hardware downgrade to a table-preferred
/// variant: `BDLFI_KERNEL` wins over the table (so CI can force every
/// shape through one kernel), and `Avx2` degrades to `Autovec` when the
/// CPU lacks AVX2.
fn resolve(preferred: Variant) -> Variant {
    let v = forced_variant().unwrap_or(preferred);
    if v == Variant::Avx2 && !avx2_available() {
        Variant::Autovec
    } else {
        v
    }
}

fn lookup(table: &[(ShapeClass, Variant, Tile)], class: ShapeClass) -> Selection {
    let (_, variant, tile) = table
        .iter()
        .find(|(c, _, _)| *c == class)
        // bdlfi-lint: allow(BD010) -- the static selection tables enumerate every ShapeClass; pinned by selector unit tests
        .expect("selection table covers every shape class");
    Selection {
        variant: resolve(*variant),
        tile: *tile,
    }
}

/// Selects the f32 kernel for an `m × n × k` product.
pub fn select_f32(m: usize, n: usize, k: usize) -> Selection {
    lookup(&F32_TABLE, classify(m, n, k))
}

/// Selects the f32 kernel for a convolution's per-image `m × n × k`
/// product, whose `B` panels are packed straight from the image: the row
/// of [`select_f32`] with `Skinny` shapes classed as if that class did
/// not exist.
pub(crate) fn select_f32_conv(m: usize, n: usize, k: usize) -> Selection {
    lookup(&F32_TABLE, packed_class(m, n, k))
}

/// Selects the int8 kernel for an `m × n × k` product.
pub fn select_i8(m: usize, n: usize, k: usize) -> Selection {
    lookup(&I8_TABLE, classify(m, n, k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_exactly_the_documented_names() {
        assert_eq!(Variant::parse("scalar"), Some(Variant::Scalar));
        assert_eq!(Variant::parse("autovec"), Some(Variant::Autovec));
        assert_eq!(Variant::parse("avx2"), Some(Variant::Avx2));
        assert_eq!(Variant::parse("AVX2"), None);
        assert_eq!(Variant::parse(""), None);
        assert_eq!(Variant::parse("sse2"), None);
    }

    #[test]
    fn names_round_trip() {
        for v in [Variant::Scalar, Variant::Autovec, Variant::Avx2] {
            assert_eq!(Variant::parse(v.as_str()), Some(v));
        }
    }

    #[test]
    fn classes_partition_shapes() {
        assert_eq!(classify(1, 512, 512), ShapeClass::Gemv);
        assert_eq!(classify(1, 3, 2), ShapeClass::Gemv);
        assert_eq!(classify(4, 8, 8), ShapeClass::Skinny);
        assert_eq!(classify(4, 16, 8), ShapeClass::Tiny);
        assert_eq!(classify(64, 300, 64), ShapeClass::Wide);
        assert_eq!(classify(64, 64, 64), ShapeClass::Blocked);
    }

    #[test]
    fn skinny_class_covers_the_mlp_and_classifier_heads_only() {
        // The paper's 2→32→3 MLP on 64-row batches, and the benchmark
        // ResNet's fc on 4 images.
        for (m, n, k) in [(64, 32, 2), (64, 3, 32), (4, 10, 64)] {
            assert_eq!(classify(m, n, k), ShapeClass::Skinny, "{m}x{n}x{k}");
        }
        // Boundaries: `n < NR` or `k < SKINNY_K`, with more than one row.
        assert_eq!(classify(2, NR - 1, 64), ShapeClass::Skinny);
        assert_ne!(classify(2, NR, 64), ShapeClass::Skinny);
        assert_eq!(classify(64, 64, SKINNY_K - 1), ShapeClass::Skinny);
        assert_ne!(classify(64, 64, SKINNY_K), ShapeClass::Skinny);
        // Every per-image conv GEMM (oc, oh·ow, ic·kh·kw) of the benchmark
        // ResNet-18 (base width 8, 32×32 images): stem, 3×3 convs of each
        // stage, stride-2 openers and 1×1 projection shortcuts.
        for (m, n, k) in [
            (8, 1024, 27),
            (8, 1024, 72),
            (16, 256, 72),
            (16, 256, 144),
            (16, 256, 8),
            (32, 64, 144),
            (32, 64, 288),
            (32, 64, 16),
            (64, 16, 288),
            (64, 16, 576),
            (64, 16, 32),
        ] {
            assert_ne!(classify(m, n, k), ShapeClass::Skinny, "conv {m}x{n}x{k}");
        }
    }

    #[test]
    fn convolutions_keep_their_pre_skinny_rows() {
        // A skinny conv shape gets the row its packed class selects: here
        // `Tiny` (scalar) and `Blocked`, as before the class existed.
        assert_eq!(classify(4, 8, 8), ShapeClass::Skinny);
        assert_eq!(
            select_f32_conv(4, 8, 8),
            lookup(&F32_TABLE, ShapeClass::Tiny)
        );
        assert_eq!(
            select_f32_conv(64, 8, 300),
            lookup(&F32_TABLE, ShapeClass::Blocked)
        );
    }

    #[test]
    fn every_class_has_a_row_in_both_tables() {
        for (m, n, k) in [
            (1, 512, 512),
            (64, 3, 32),
            (4, 16, 8),
            (64, 300, 64),
            (64, 64, 64),
        ] {
            let f = select_f32(m, n, k);
            let q = select_i8(m, n, k);
            // f32 rows must pin KC: the cross-variant bit-identity
            // contract depends on the reduction split.
            assert_eq!(f.tile.kc, KC);
            assert_eq!(f.tile.mr, MR);
            assert_eq!(f.tile.nr, NR);
            assert_eq!(q.tile.kc, KC);
        }
    }

    #[test]
    fn forced_variant_env_is_either_unset_or_valid() {
        // The OnceLock caches the first read, so this test only checks the
        // call is total under the ambient environment (the CI kernel
        // matrix sets BDLFI_KERNEL before the process starts).
        let forced = forced_variant();
        if let Ok(want) = std::env::var("BDLFI_KERNEL") {
            assert_eq!(forced.map(Variant::as_str), Some(want.as_str()));
        } else {
            assert_eq!(forced, None);
        }
    }

    #[test]
    fn avx2_downgrade_never_yields_unsupported_selection() {
        let sel = select_f32(128, 128, 128);
        if sel.variant == Variant::Avx2 {
            assert!(avx2_available());
        }
    }
}
