//! Fixture-driven acceptance tests for every rule: each `*_bad.rs` fixture
//! trips exactly its rule (no more, no less), each `*_good.rs` fixture is
//! clean, the allow escape hatch behaves, and — the acceptance criterion
//! the CI job enforces from the outside — the workspace itself lints
//! clean.
//!
//! Fixtures live in `crates/lint/fixtures/` (which the workspace walker
//! deliberately skips) and are linted under *virtual* workspace-relative
//! paths, because rule scoping is path-sensitive: BD001's bench exemption
//! and BD010's engine/checkpoint scope both key off the path a file is
//! presented under. The interprocedural rules (BD010–BD012) additionally
//! have *fixture trees* — miniature multi-crate workspaces under
//! `fixtures/bd01x_{good,bad}/` — linted whole via [`lint_workspace`],
//! with the expected finding set asserted exactly.

use bdlfi_lint::{lint_source, lint_workspace, Finding};
use std::path::{Path, PathBuf};

/// Lints a fixture *tree* (a miniature workspace rooted at
/// `fixtures/<name>/`) through the same entry point CI uses.
fn lint_tree(name: &str) -> Vec<Finding> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    lint_workspace(&root).unwrap_or_else(|e| panic!("fixture tree {name} unreadable: {e}"))
}

/// `(code, path, line)` triples, in the analyzer's sorted order.
fn summarize(findings: &[Finding]) -> Vec<(&str, &str, u32)> {
    findings
        .iter()
        .map(|f| (f.code, f.path.as_str(), f.line))
        .collect()
}

/// Asserts a fixture tree lints completely clean.
fn assert_tree_clean(name: &str) {
    let findings = lint_tree(name);
    assert!(
        findings.is_empty(),
        "{name}: expected clean tree, got:\n{}",
        findings
            .iter()
            .map(Finding::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Reads a fixture from `crates/lint/fixtures/`.
fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Lints a fixture under a virtual path and asserts every finding carries
/// `code` (and that there is at least one).
fn assert_trips(name: &str, virtual_path: &str, code: &str) -> Vec<Finding> {
    let findings = lint_source(virtual_path, &fixture(name));
    assert!(
        !findings.is_empty(),
        "{name} under {virtual_path}: expected {code} findings, got none"
    );
    for f in &findings {
        assert_eq!(
            f.code,
            code,
            "{name} under {virtual_path}: expected only {code}, got {}",
            f.render()
        );
    }
    findings
}

/// Lints a fixture under a virtual path and asserts it is clean.
fn assert_clean(name: &str, virtual_path: &str) {
    let findings = lint_source(virtual_path, &fixture(name));
    assert!(
        findings.is_empty(),
        "{name} under {virtual_path}: expected clean, got:\n{}",
        findings
            .iter()
            .map(Finding::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

// ---- BD001: entropy sources ------------------------------------------

#[test]
fn bd001_bad_trips_only_bd001() {
    let f = assert_trips("bd001_bad.rs", "crates/core/src/campaign.rs", "BD001");
    assert!(f[0].render().contains("thread_rng"));
}

#[test]
fn bd001_good_is_clean() {
    assert_clean("bd001_good.rs", "crates/core/src/campaign.rs");
}

#[test]
fn bd001_bad_is_legal_inside_bench() {
    // The same entropy-reading source is sanctioned in crates/bench —
    // wall-clock noise is the point of a benchmark harness.
    assert_clean("bd001_bad.rs", "crates/bench/src/harness.rs");
}

// ---- BD002: additive seeds -------------------------------------------

#[test]
fn bd002_bad_trips_only_bd002() {
    assert_trips("bd002_bad.rs", "crates/core/src/campaign.rs", "BD002");
}

#[test]
fn bd002_good_lane_arithmetic_is_clean() {
    assert_clean("bd002_good.rs", "crates/core/src/campaign.rs");
}

// ---- BD003: hash-order iteration -------------------------------------

#[test]
fn bd003_bad_trips_only_bd003() {
    let f = assert_trips("bd003_bad.rs", "crates/core/src/report.rs", "BD003");
    assert!(f[0].render().contains("hits"));
}

#[test]
fn bd003_good_btreemap_and_keyed_lookups_are_clean() {
    assert_clean("bd003_good.rs", "crates/core/src/report.rs");
}

// ---- BD004: SAFETY comments ------------------------------------------

#[test]
fn bd004_bad_trips_only_bd004() {
    assert_trips("bd004_bad.rs", "crates/tensor/src/ops/simd.rs", "BD004");
}

#[test]
fn bd004_good_multiline_safety_block_is_clean() {
    assert_clean("bd004_good.rs", "crates/tensor/src/ops/simd.rs");
}

// ---- BD010: panic reachability (fixture trees) ------------------------

#[test]
fn bd010_bad_tree_reports_exact_panic_sites() {
    let f = lint_tree("bd010_bad");
    assert_eq!(
        summarize(&f),
        vec![
            // Direct unwrap in a root fn (the BD005-equivalent shape).
            ("BD010", "crates/core/src/engine.rs", 6),
            // Direct slice index in a root fn.
            ("BD010", "crates/core/src/engine.rs", 11),
            // The cross-crate panic, anchored at its own site.
            ("BD010", "crates/nn/src/prep.rs", 10),
        ],
        "got:\n{}",
        f.iter().map(Finding::render).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn bd010_cross_crate_finding_carries_the_witness_chain() {
    let f = lint_tree("bd010_bad");
    let cross = f
        .iter()
        .find(|x| x.path.ends_with("prep.rs"))
        .expect("cross-crate finding present");
    assert!(
        cross.notes.iter().any(|n| n.contains("run_batch")),
        "chain must start at the engine entry point: {:?}",
        cross.notes
    );
    assert!(
        cross.notes.iter().any(|n| n.contains("scale_one")),
        "chain must pass through the intermediate helper: {:?}",
        cross.notes
    );
}

#[test]
fn bd010_good_tree_typed_errors_waiver_and_test_unwraps_are_clean() {
    assert_tree_clean("bd010_good");
}

#[test]
fn bd010_scope_is_path_sensitive() {
    // The same panicking sources are legal outside the policed
    // engine/checkpoint/shard/serve paths: presented under a
    // non-entry-point path, the bad engine file lints clean.
    assert_clean(
        "bd010_bad/crates/core/src/engine.rs",
        "crates/nn/src/train.rs",
    );
}

#[test]
fn bd010_polices_every_server_source_file() {
    // PR 8: the daemon's request paths hold to the same no-panic
    // discipline — the whole of crates/server/src/ is in scope, whatever
    // the file is called.
    assert_trips(
        "bd010_bad/crates/core/src/engine.rs",
        "crates/server/src/daemon.rs",
        "BD010",
    );
    assert_trips(
        "bd010_bad/crates/core/src/engine.rs",
        "crates/server/src/http.rs",
        "BD010",
    );
}

// ---- BD011: determinism taint (fixture trees) --------------------------

#[test]
fn bd011_bad_tree_reports_body_and_argument_taint() {
    let f = lint_tree("bd011_bad");
    assert_eq!(
        summarize(&f),
        vec![
            // Check 1: journal_form reaches Instant::now via util.rs.
            ("BD011", "crates/core/src/report.rs", 6),
            // Check 2: tainted helper's result passed into the sink.
            ("BD011", "crates/server/src/jobs.rs", 6),
            // Check 2: ambient source read directly in the argument list.
            ("BD011", "crates/server/src/jobs.rs", 10),
        ],
        "got:\n{}",
        f.iter().map(Finding::render).collect::<Vec<_>>().join("\n")
    );
    let body = &f[0];
    assert!(
        body.notes.iter().any(|n| n.contains("current_elapsed")),
        "check-1 finding must name the tainted helper: {:?}",
        body.notes
    );
}

#[test]
fn bd011_good_tree_scrubbed_journals_are_clean() {
    // util.rs still reads Instant::now in the good tree — taint that
    // never reaches journal or fingerprint bytes is not a violation.
    assert_tree_clean("bd011_good");
}

// ---- BD012: cross-file target_feature dispatch (fixture trees) ---------

#[test]
fn bd012_bad_tree_reports_the_distant_dispatch_site() {
    let f = lint_tree("bd012_bad");
    assert_eq!(
        summarize(&f),
        vec![("BD012", "crates/core/src/fastpath.rs", 10)],
        "got:\n{}",
        f.iter().map(Finding::render).collect::<Vec<_>>().join("\n")
    );
    // BD008 is satisfied at that site (guard + SAFETY) — the finding is
    // purely the cross-file front-door violation, and it names the kernel.
    assert!(
        f[0].notes.iter().any(|n| n.contains("gemm_avx2")),
        "finding must name the kernel: {:?}",
        f[0].notes
    );
}

#[test]
fn bd012_good_tree_front_door_dispatch_is_clean() {
    assert_tree_clean("bd012_good");
}

// ---- BD007: delta exact-fallback guard --------------------------------

#[test]
fn bd007_bad_trips_only_bd007() {
    let f = assert_trips("bd007_bad.rs", "crates/core/src/delta.rs", "BD007");
    assert_eq!(f.len(), 2, "one per failure mode: {f:?}");
    assert!(f[0].render().contains("forward_delta_blocks"));
    assert!(f[1].render().contains("eval_sparse"));
}

#[test]
fn bd007_good_is_clean() {
    assert_clean("bd007_good.rs", "crates/core/src/delta.rs");
}

#[test]
fn bd007_bad_is_ignored_in_test_code() {
    // The same shapes are legal in integration tests, which routinely
    // call the delta path directly to compare it against dense logits.
    assert_clean("bd007_bad.rs", "tests/delta_equivalence.rs");
}

// ---- BD008: SIMD kernel dispatch discipline ---------------------------

#[test]
fn bd008_bad_trips_only_bd008() {
    let f = assert_trips("bd008_bad.rs", "crates/tensor/src/kernels/fast.rs", "BD008");
    assert_eq!(f.len(), 3, "one per failure mode: {f:?}");
    // Sorted by line: missing oracle (first intrinsic), unguarded call,
    // guarded-but-unjustified call.
    assert!(f[0].render().contains("_reference"));
    assert!(f[1].render().contains("kernel_a_avx2"));
    assert!(f[1].render().contains("is_x86_feature_detected"));
    assert!(f[2].render().contains("kernel_b_avx2"));
    assert!(f[2].render().contains("SAFETY"));
}

#[test]
fn bd008_good_guarded_dispatch_and_oracle_are_clean() {
    assert_clean("bd008_good.rs", "crates/tensor/src/kernels/fast.rs");
}

#[test]
fn bd008_bad_is_ignored_in_test_code() {
    // Equivalence tests drive kernels directly; the call checks don't
    // apply there, and the oracle requirement keys off production
    // intrinsics use only.
    assert_clean("bd008_bad.rs", "crates/tensor/tests/kernel_equivalence.rs");
}

// ---- allow directive --------------------------------------------------

#[test]
fn allow_with_reason_waives_the_finding() {
    assert_clean("allow_good.rs", "crates/core/src/campaign.rs");
}

#[test]
fn allow_without_reason_is_inert_and_reported() {
    let findings = lint_source("crates/core/src/campaign.rs", &fixture("allow_bad.rs"));
    let mut codes: Vec<&str> = findings.iter().map(|f| f.code).collect();
    codes.sort_unstable();
    assert_eq!(codes, vec!["BD000", "BD001"], "got: {findings:?}");
}

// ---- the acceptance criterion, from the inside ------------------------

#[test]
fn workspace_lints_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let findings = lint_workspace(&root).expect("workspace walk succeeds");
    assert!(
        findings.is_empty(),
        "workspace must lint clean; run `cargo run -p bdlfi-lint -- check .`:\n{}",
        findings
            .iter()
            .map(Finding::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
