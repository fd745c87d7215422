//! `bdlfi-lint` — the BDLFI workspace's determinism-discipline static
//! analyzer.
//!
//! The paper's statistical-completeness claim holds only if every fault
//! campaign is bit-reproducible; PR 2's seed streams, PR 3's checkpoint
//! fingerprints and PR 4's quant journals all defend that property at
//! runtime. This crate enforces it at *source* level, before a campaign
//! ever runs:
//!
//! | code  | rule |
//! |-------|------|
//! | BD001 | no nondeterministic entropy sources outside `crates/bench` |
//! | BD002 | no additive `seed + i` derivation feeding RNG constructors |
//! | BD003 | no HashMap/HashSet iteration in serialization-adjacent paths |
//! | BD004 | every `unsafe` carries a `// SAFETY:` justification |
//! | BD007 | `forward_delta*` routines can refuse; their callers keep an exact fallback |
//! | BD008 | `#[target_feature]` kernels reached only via guarded, SAFETY-justified dispatch; intrinsics modules name a `*_reference` oracle |
//! | BD010 | no call path from an engine/checkpoint/shard/serve entry point to a panic site (interprocedural; subsumed the old per-file BD005) |
//! | BD011 | no entropy/time/thread-id/worker-count flow into journal or fingerprint bytes (interprocedural taint) |
//! | BD012 | `#[target_feature]` kernels are reached cross-file only through their own module's guarded dispatch front door |
//!
//! BD001–BD008 are token-level per-file rules. BD010–BD012 are
//! **interprocedural**: an AST-lite layer ([`ast`]) recovers function
//! items and call sites from the token stream, a workspace symbol table
//! ([`symbols`]) indexes them, and a name-resolved approximate call
//! graph ([`callgraph`]) plus a function-level taint analysis
//! ([`taint`]) answer reachability questions across crate boundaries.
//! Findings from those rules carry the witness call chain as notes.
//!
//! Findings are span-accurate (`path:line:col: BDxxx: message`) and can
//! be waived inline with `// bdlfi-lint: allow(BDxxx) -- reason` — the
//! reason is mandatory. The analyzer is entirely self-contained: a
//! hand-rolled lexer ([`lexer`]) plus token-level rules ([`rules`]), no
//! `syn`, no external dependencies. Files are parsed in parallel on
//! scoped threads ([`par`]).
//!
//! Run it as `cargo run -p bdlfi-lint -- check .` (CI does, on every
//! push; `--format json` / `--format github` produce machine-readable
//! output, `bdlfi-lint explain BDxxx` documents any rule).

pub mod ast;
pub mod callgraph;
pub mod diag;
pub mod explain;
pub mod lexer;
pub mod output;
pub mod par;
pub mod rules;
pub mod symbols;
pub mod taint;
pub mod walk;

pub use diag::Finding;

use rules::{all_rules, all_ws_rules, code_view, test_regions, FileCtx};
use std::path::Path;

/// One file, fully parsed: token stream, comment-free code view, test
/// regions, AST-lite function items, and suppression directives. Built
/// once per file (in parallel) and shared by every rule.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative, `/`-separated path.
    pub path: String,
    /// Full token stream, comments included.
    pub tokens: Vec<lexer::Token>,
    /// Indices into `tokens` of every non-comment token.
    pub code: Vec<usize>,
    /// Half-open `tokens` index ranges that are test code.
    pub test_regions: Vec<(usize, usize)>,
    /// Function items and their call/panic/source sites.
    pub ast: ast::FileAst,
    /// `bdlfi-lint: allow(…)` directives found in the file.
    pub directives: Vec<diag::AllowDirective>,
}

/// Lexes and parses one source text. This is the only place a file is
/// tokenized — every downstream consumer shares the result.
#[must_use]
pub fn parse_file(path: String, src: &str) -> ParsedFile {
    let tokens = lexer::lex(src);
    let code = code_view(&tokens);
    let test_regions = test_regions(&path, &tokens);
    let ast = ast::build(&tokens, &code, &test_regions);
    let directives = diag::parse_directives(&tokens);
    ParsedFile {
        path,
        tokens,
        code,
        test_regions,
        ast,
        directives,
    }
}

/// The whole-workspace view the interprocedural rules run against.
#[derive(Debug)]
pub struct Workspace {
    /// Every parsed file, in walk order.
    pub files: Vec<ParsedFile>,
    /// Flat indexed function list with name lookup.
    pub symbols: symbols::SymbolTable,
    /// Name-resolved approximate call graph over `symbols` node ids.
    pub graph: callgraph::CallGraph,
}

impl Workspace {
    /// Builds symbols and call graph over already-parsed files.
    #[must_use]
    pub fn build(files: Vec<ParsedFile>) -> Workspace {
        let symbols = symbols::SymbolTable::build(&files);
        let graph = callgraph::CallGraph::build(&files, &symbols);
        Workspace {
            files,
            symbols,
            graph,
        }
    }

    /// The function behind a symbol-table node id.
    #[must_use]
    pub fn def(&self, node: usize) -> &ast::FnDef {
        self.symbols.def(&self.files, node)
    }

    /// The file a node is defined in.
    #[must_use]
    pub fn file_of(&self, node: usize) -> &ParsedFile {
        &self.files[self.symbols.fns[node].file]
    }
}

/// Lints a set of in-memory sources as one workspace: per-file rule
/// passes, cross-file `finish` passes, the interprocedural workspace
/// rules, then suppression. Findings are sorted by
/// `(path, line, col, code)`.
#[must_use]
pub fn lint_files(inputs: Vec<(String, String)>) -> Vec<Finding> {
    let workers = par::default_workers(inputs.len());
    let files = par::map(inputs, workers, |(path, src)| parse_file(path, &src));
    let ws = Workspace::build(files);
    lint_parsed(&ws)
}

/// Lints a single source text under a virtual workspace-relative path
/// (rule scoping — bench exemption, engine/checkpoint paths — keys off
/// this path). Runs the full pipeline, workspace rules included, over a
/// one-file workspace.
#[must_use]
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    lint_files(vec![(path.to_string(), src.to_string())])
}

/// Lints every `.rs` file under `root`. See [`lint_files`].
///
/// # Errors
///
/// Propagates filesystem errors from the walk or file reads.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut inputs = Vec::new();
    for file in walk::rust_files(root)? {
        let src = std::fs::read_to_string(&file)?;
        inputs.push((walk::display_path(root, &file), src));
    }
    Ok(lint_files(inputs))
}

/// The rule pipeline over an already-built workspace.
#[must_use]
pub fn lint_parsed(ws: &Workspace) -> Vec<Finding> {
    let mut rules = all_rules();
    let mut findings = Vec::new();
    for pf in &ws.files {
        let ctx = FileCtx {
            path: &pf.path,
            tokens: &pf.tokens,
            code: &pf.code,
            test_regions: &pf.test_regions,
        };
        for rule in &mut rules {
            findings.extend(rule.check(&ctx));
        }
    }
    for rule in &mut rules {
        findings.extend(rule.finish());
    }
    for ws_rule in all_ws_rules() {
        findings.extend(ws_rule.check(ws));
    }
    // Apply each file's directives to its own findings.
    let mut out = Vec::new();
    let mut by_path: std::collections::BTreeMap<String, Vec<Finding>> =
        std::collections::BTreeMap::new();
    for f in findings {
        by_path.entry(f.path.clone()).or_default().push(f);
    }
    let empty = Vec::new();
    for (path, fs) in by_path {
        let dirs = ws
            .files
            .iter()
            .find(|pf| pf.path == path)
            .map_or(&empty, |pf| &pf.directives);
        out.extend(diag::apply_directives(&path, fs, dirs));
    }
    sort_findings(&mut out);
    out
}

fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.code).cmp(&(b.path.as_str(), b.line, b.col, b.code))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_source_has_no_findings() {
        let src = r#"
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            use bdlfi_bayes::seed_stream;

            fn per_task_rng(seed: u64, task: u64) -> StdRng {
                StdRng::seed_from_u64(seed_stream(seed, task))
            }
        "#;
        assert_eq!(lint_source("crates/demo/src/lib.rs", src), Vec::new());
    }

    #[test]
    fn findings_are_sorted_and_rendered_with_spans() {
        let src = "fn f(seed: u64) {\n    let _ = StdRng::seed_from_u64(seed + 1);\n    let _ = thread_rng();\n}\n";
        let out = lint_source("crates/demo/src/lib.rs", src);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].code, "BD002");
        assert_eq!(out[0].line, 2);
        assert_eq!(out[1].code, "BD001");
        assert_eq!(out[1].line, 3);
        assert!(out[0].render().starts_with("crates/demo/src/lib.rs:2:"));
    }

    #[test]
    fn bench_crate_may_read_entropy() {
        let src = "fn t() { let _ = thread_rng(); }";
        assert!(lint_source("crates/bench/src/harness.rs", src).is_empty());
        assert_eq!(lint_source("crates/other/src/lib.rs", src).len(), 1);
    }

    #[test]
    fn allow_directive_waives_with_reason_only() {
        let with_reason = "// bdlfi-lint: allow(BD001) -- demo harness, not a campaign\nfn t() { let _ = thread_rng(); }\n";
        assert!(lint_source("crates/demo/src/lib.rs", with_reason).is_empty());
        let without = "// bdlfi-lint: allow(BD001)\nfn t() { let _ = thread_rng(); }\n";
        let out = lint_source("crates/demo/src/lib.rs", without);
        assert!(out.iter().any(|f| f.code == "BD001"));
        assert!(out.iter().any(|f| f.code == diag::MALFORMED_DIRECTIVE));
    }

    #[test]
    fn lint_files_sees_cross_file_call_paths() {
        // An engine entry point reaching a panic defined in another
        // crate's file — exactly what the per-file rules cannot see.
        let out = lint_files(vec![
            (
                "crates/core/src/engine.rs".to_string(),
                "pub fn run(n: u32) { helper_from_afar(n); }".to_string(),
            ),
            (
                "crates/nn/src/util.rs".to_string(),
                "pub fn helper_from_afar(n: u32) { panic!(\"boom {n}\"); }".to_string(),
            ),
        ]);
        assert!(
            out.iter().any(|f| f.code == "BD010"),
            "expected a cross-crate BD010, got: {out:?}"
        );
    }
}
