//! `bdlfi-lint explain BDxxx` — the rule book, rendered from the same
//! fixtures the self-tests run against.
//!
//! Every entry pairs the rationale and scope prose with a minimal
//! good/bad example **sourced from `crates/lint/fixtures/` at compile
//! time** (`include_str!`), so the documentation can never drift from
//! what the analyzer actually accepts and rejects: the fixture shown as
//! "bad" is asserted to trip exactly this rule in
//! `tests/lint_fixtures.rs`, and the "good" one to lint clean.

/// One rule's documentation.
pub struct Explanation {
    /// `BDxxx`.
    pub code: &'static str,
    /// Short rule name.
    pub name: &'static str,
    /// Why the rule exists and what it polices (scope included).
    pub rationale: &'static str,
    /// (fixture path, contents) of a clean example.
    pub good: (&'static str, &'static str),
    /// (fixture path, contents) of a tripping example.
    pub bad: (&'static str, &'static str),
}

/// Looks up a rule's explanation by code (case-insensitive).
#[must_use]
pub fn lookup(code: &str) -> Option<&'static Explanation> {
    let upper = code.to_uppercase();
    ALL.iter().find(|e| e.code == upper)
}

/// Renders one explanation as terminal text.
#[must_use]
pub fn render(e: &Explanation) -> String {
    format!(
        "{} — {}\n\n{}\n\nWaive a confirmed-intentional site with\n  \
         // bdlfi-lint: allow({}) -- reason\non the finding's line or the line above \
         (the reason is mandatory).\n\n=== good: fixtures/{} ===\n{}\n\
         === bad: fixtures/{} ===\n{}",
        e.code, e.name, e.rationale, e.code, e.good.0, e.good.1, e.bad.0, e.bad.1
    )
}

/// The note printed for the retired BD005 code.
pub const BD005_RETIRED: &str = "BD005 (typed-errors-in-engine-paths) was retired: its \
per-file panic scan is subsumed by BD010, which checks the same scope as call-graph \
entry points and additionally reports panics *reachable* from them anywhere in the \
workspace. See `bdlfi-lint explain BD010`.";

/// All rule explanations, in code order.
pub static ALL: [Explanation; 10] = [
    Explanation {
        code: "BD000",
        name: "malformed-suppression-directive",
        rationale: "Not a rule but the waiver protocol's audit trail: a `bdlfi-lint: \
allow(BDxxx)` directive without a `-- reason` suppresses nothing and is itself \
reported, so silent waivers cannot accumulate in the tree.",
        good: ("allow_good.rs", include_str!("../fixtures/allow_good.rs")),
        bad: ("allow_bad.rs", include_str!("../fixtures/allow_bad.rs")),
    },
    Explanation {
        code: "BD001",
        name: "no-entropy-sources",
        rationale: "Campaigns must be a pure function of their configured seed: \
`thread_rng()`, `from_entropy()`, `OsRng` and `SystemTime::now()` smuggle ambient \
state into that function. Scope: every crate except `crates/bench` (timing harnesses \
legitimately read the clock).",
        good: ("bd001_good.rs", include_str!("../fixtures/bd001_good.rs")),
        bad: ("bd001_bad.rs", include_str!("../fixtures/bd001_bad.rs")),
    },
    Explanation {
        code: "BD002",
        name: "no-additive-seed-derivation",
        rationale: "`seed + i` collides across lanes (`seed+1` of task 0 is `seed` of \
task 1): per-task RNGs must derive through `seed_stream`'s SplitMix64 lanes. Scope: \
any additive arithmetic feeding an RNG constructor, workspace-wide.",
        good: ("bd002_good.rs", include_str!("../fixtures/bd002_good.rs")),
        bad: ("bd002_bad.rs", include_str!("../fixtures/bd002_bad.rs")),
    },
    Explanation {
        code: "BD003",
        name: "no-hash-order-serialization",
        rationale: "HashMap/HashSet iteration order is randomized per process: iterating \
one within 30 lines of a serialization call writes nondeterministic bytes. Journals \
and reports must iterate BTree collections or sorted vectors. Scope: production code, \
workspace-wide.",
        good: ("bd003_good.rs", include_str!("../fixtures/bd003_good.rs")),
        bad: ("bd003_bad.rs", include_str!("../fixtures/bd003_bad.rs")),
    },
    Explanation {
        code: "BD004",
        name: "unsafe-needs-safety-comment",
        rationale: "Every `unsafe` block or fn carries an adjacent `// SAFETY:` comment \
stating the invariant that makes it sound. Scope: all source, tests included — unsound \
test code corrupts the evidence the paper's statistics rest on.",
        good: ("bd004_good.rs", include_str!("../fixtures/bd004_good.rs")),
        bad: ("bd004_bad.rs", include_str!("../fixtures/bd004_bad.rs")),
    },
    Explanation {
        code: "BD007",
        name: "delta-exact-fallback",
        rationale: "`forward_delta*` routines may refuse (conv fan-out, transient sites, \
quant scale faults); every production caller must keep the exact incremental fallback \
on the refusal path so results stay bit-identical by construction. Scope: production \
callers of the delta path.",
        good: ("bd007_good.rs", include_str!("../fixtures/bd007_good.rs")),
        bad: ("bd007_bad.rs", include_str!("../fixtures/bd007_bad.rs")),
    },
    Explanation {
        code: "BD008",
        name: "simd-kernel-dispatch-discipline",
        rationale: "A `#[target_feature]` fn may only be called under an \
`is_x86_feature_detected!` check with a `// SAFETY:` comment between check and call \
(same-file token analysis; BD012 extends this across files), and every intrinsics \
module names a scalar `*_reference` oracle its equivalence tests pin against. Scope: \
production code, workspace-wide.",
        good: ("bd008_good.rs", include_str!("../fixtures/bd008_good.rs")),
        bad: ("bd008_bad.rs", include_str!("../fixtures/bd008_bad.rs")),
    },
    Explanation {
        code: "BD010",
        name: "panic-reachability-from-engine-paths",
        rationale: "Interprocedural successor to BD005: no call path from an \
engine/checkpoint/shard/serve entry point (or any `EvalSink` impl) may reach \
`panic!`/`unreachable!`/`todo!`, `.unwrap()` or `.expect(…)` in non-test code, \
anywhere in the workspace — a panic on those paths kills the campaign instead of \
leaving a resumable journal. Direct slice indexing is reported in the entry-point \
files themselves. Findings carry the witness call chain as notes and anchor at the \
panic site.",
        good: (
            "bd010_good/crates/core/src/engine.rs",
            include_str!("../fixtures/bd010_good/crates/core/src/engine.rs"),
        ),
        bad: (
            "bd010_bad/crates/nn/src/prep.rs",
            include_str!("../fixtures/bd010_bad/crates/nn/src/prep.rs"),
        ),
    },
    Explanation {
        code: "BD011",
        name: "determinism-taint-into-journal-bytes",
        rationale: "Function-level taint: entropy, wall-clock, thread-id and \
worker-count sources must not be reachable from `journal_form`/`fingerprint_form`, \
any `*fingerprint*` fn, or the checkpoint writers — and no call into those sinks may \
carry a tainted argument. Journal bytes must be identical across machines, workers \
and reruns, or resume verification and shard merges break.",
        good: (
            "bd011_good/crates/core/src/report.rs",
            include_str!("../fixtures/bd011_good/crates/core/src/report.rs"),
        ),
        bad: (
            "bd011_bad/crates/core/src/report.rs",
            include_str!("../fixtures/bd011_bad/crates/core/src/report.rs"),
        ),
    },
    Explanation {
        code: "BD012",
        name: "target-feature-cross-file-dispatch",
        rationale: "Whole-workspace extension of BD008: a `#[target_feature]` kernel \
may be entered from another file only through its own module's guarded dispatch \
wrapper (the benched selector front door). A distant call site with its own guard \
and SAFETY comment still violates — it duplicates the feature policy where per-shape \
benching cannot see it. Kernel-to-kernel calls and tests are exempt.",
        good: (
            "bd012_good/crates/core/src/fastpath.rs",
            include_str!("../fixtures/bd012_good/crates/core/src/fastpath.rs"),
        ),
        bad: (
            "bd012_bad/crates/core/src/fastpath.rs",
            include_str!("../fixtures/bd012_bad/crates/core/src/fastpath.rs"),
        ),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_code_resolves_case_insensitively() {
        for code in [
            "BD000", "BD001", "BD002", "BD003", "BD004", "BD007", "BD008", "BD010", "BD011",
            "BD012",
        ] {
            assert!(lookup(code).is_some(), "{code} missing");
            assert!(lookup(&code.to_lowercase()).is_some(), "{code} lowercase");
        }
        for retired in ["BD005", "BD006", "BD009"] {
            assert!(lookup(retired).is_none(), "{retired} is retired");
        }
        assert!(lookup("BD999").is_none());
    }

    #[test]
    fn rendered_explanations_include_both_examples() {
        let e = lookup("BD010").expect("BD010 documented");
        let text = render(e);
        assert!(text.contains("=== good: fixtures/bd010_good/"));
        assert!(text.contains("=== bad: fixtures/bd010_bad/"));
        assert!(text.contains("allow(BD010) -- reason"));
    }

    #[test]
    fn fixtures_backing_the_examples_are_nonempty() {
        for e in &ALL {
            assert!(!e.good.1.trim().is_empty(), "{} good fixture empty", e.code);
            assert!(!e.bad.1.trim().is_empty(), "{} bad fixture empty", e.code);
        }
    }
}
