//! The rule engine: each determinism rule is a [`Rule`] over a lexed
//! file, with an optional workspace-wide `finish` pass for cross-file
//! invariants (BD008's dispatch check joins definitions and call sites).
//!
//! Rules see a [`FileCtx`]: the token stream (comments included), a
//! comment-free *code view* (indices into the stream), and the file's
//! test regions — `#[cfg(test)] mod … { }` bodies, `#[test]` fn bodies,
//! and whole files under a `tests/` directory. Rules that police
//! production invariants (BD003) skip test regions; rules that police
//! source hygiene everywhere (BD004) do not. The interprocedural rules
//! (BD010–BD012) exclude test fns at the call-graph level instead.

use crate::diag::Finding;
use crate::lexer::{Token, TokenKind};

mod bd001;
mod bd002;
mod bd003;
mod bd004;
mod bd007;
mod bd008;
mod bd010;
mod bd011;
mod bd012;

pub use bd001::EntropySources;
pub use bd002::AdditiveSeeds;
pub use bd003::UnorderedIteration;
pub use bd004::UnsafeNeedsSafety;
pub use bd007::ExactDeltaFallback;
pub use bd008::SimdDispatchDiscipline;
pub use bd010::PanicReachability;
pub use bd011::DeterminismTaint;
pub use bd012::UnsafeDispatchReachability;

/// Everything a rule may inspect about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative, `/`-separated path.
    pub path: &'a str,
    /// Full token stream, comments included.
    pub tokens: &'a [Token],
    /// Indices into `tokens` of every non-comment token, in order.
    pub code: &'a [usize],
    /// Half-open `tokens` index ranges that are test code.
    pub test_regions: &'a [(usize, usize)],
}

impl FileCtx<'_> {
    /// Whether token index `i` falls inside a test region.
    #[must_use]
    pub fn in_test(&self, i: usize) -> bool {
        self.test_regions.iter().any(|&(a, b)| (a..b).contains(&i))
    }

    /// Builds a finding at token index `i`.
    #[must_use]
    pub fn finding(&self, code: &'static str, i: usize, message: String) -> Finding {
        let t = &self.tokens[i];
        Finding::new(code, self.path.to_string(), t.line, t.col, message)
    }
}

/// One determinism rule. `check` runs per file; `finish` runs once after
/// every file has been seen and may report cross-file violations.
pub trait Rule {
    /// The rule's `BDxxx` code.
    fn code(&self) -> &'static str;
    /// Short rule name for `--list`-style output.
    fn name(&self) -> &'static str;
    /// Per-file pass.
    fn check(&mut self, ctx: &FileCtx<'_>) -> Vec<Finding>;
    /// Workspace pass after all files.
    fn finish(&mut self) -> Vec<Finding> {
        Vec::new()
    }
}

/// A workspace-level rule: runs once, over the fully built
/// [`crate::Workspace`] (parsed files + symbol table + call graph).
/// BD010–BD012 live here; anything a single [`FileCtx`] can answer
/// belongs in [`Rule`] instead.
pub trait WsRule {
    /// The rule's `BDxxx` code.
    fn code(&self) -> &'static str;
    /// Short rule name for `--list`-style output.
    fn name(&self) -> &'static str;
    /// The whole-workspace pass.
    fn check(&self, ws: &crate::Workspace) -> Vec<Finding>;
}

/// The per-file rule set, in code order. BD005's per-file panic scan
/// retired in favour of BD010's interprocedural reachability (its exact
/// scope survives as BD010's root set). BD006 (distinct fingerprint tags)
/// and BD009 (shard fingerprint discipline) retired once the drivers
/// derived every journal fingerprint through one helper and the engine
/// wrote every shard fingerprint itself.
#[must_use]
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(EntropySources),
        Box::new(AdditiveSeeds),
        Box::new(UnorderedIteration),
        Box::new(UnsafeNeedsSafety),
        Box::new(ExactDeltaFallback),
        Box::new(SimdDispatchDiscipline::default()),
    ]
}

/// The workspace-level rule set, in code order.
#[must_use]
pub fn all_ws_rules() -> Vec<Box<dyn WsRule>> {
    vec![
        Box::new(PanicReachability),
        Box::new(DeterminismTaint),
        Box::new(UnsafeDispatchReachability),
    ]
}

/// Indices of all non-comment tokens.
#[must_use]
pub fn code_view(tokens: &[Token]) -> Vec<usize> {
    tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .map(|(i, _)| i)
        .collect()
}

/// Finds the `tokens` index of the delimiter matching the opener at
/// `tokens[open]` (`open` must index a Punct `(`/`[`/`{`). Returns the
/// index of the closer, or `tokens.len()` if unbalanced.
#[must_use]
pub fn matching_delim(tokens: &[Token], open: usize) -> usize {
    let (oc, cc) = match tokens[open].text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        "{" => ('{', '}'),
        _ => return tokens.len(),
    };
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.kind != TokenKind::Punct {
            continue;
        }
        if t.is_punct(oc) {
            depth += 1;
        } else if t.is_punct(cc) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len()
}

/// Computes the file's test regions as half-open `tokens` index ranges:
/// `#[cfg(test)] mod … { … }` bodies and `#[test] fn … { … }` bodies. A
/// file whose path contains a `tests/` directory segment is one whole
/// test region.
#[must_use]
pub fn test_regions(path: &str, tokens: &[Token]) -> Vec<(usize, usize)> {
    if path.split('/').any(|seg| seg == "tests") {
        return vec![(0, tokens.len())];
    }
    let code = code_view(tokens);
    let mut out = Vec::new();
    let mut k = 0usize;
    while k < code.len() {
        if let Some(body) = attribute_guard_body(tokens, &code, k) {
            out.push(body);
        }
        k += 1;
    }
    out
}

/// If `code[k]` starts a `#[cfg(test)]` or `#[test]` attribute, returns
/// the token range of the `mod`/`fn` body it guards.
fn attribute_guard_body(tokens: &[Token], code: &[usize], k: usize) -> Option<(usize, usize)> {
    let tok = |j: usize| -> Option<&Token> { code.get(j).map(|&i| &tokens[i]) };
    if !tok(k)?.is_punct('#') || !tok(k + 1)?.is_punct('[') {
        return None;
    }
    let attr_close = matching_delim_in_view(tokens, code, k + 1)?;
    let inner: Vec<&str> = code[k + 2..attr_close]
        .iter()
        .map(|&i| tokens[i].text.as_str())
        .collect();
    let is_test_attr = inner == ["test"] || inner == ["cfg", "(", "test", ")"];
    if !is_test_attr {
        return None;
    }
    // Skip any further attributes between this one and the item.
    let mut j = attr_close + 1;
    while tok(j)?.is_punct('#') && tok(j + 1)?.is_punct('[') {
        j = matching_delim_in_view(tokens, code, j + 1)? + 1;
    }
    // Scan forward to the item's opening brace at the current level.
    while let Some(t) = tok(j) {
        if t.is_punct('{') {
            let close = matching_delim(tokens, code[j]);
            return Some((code[j], close.min(tokens.len())));
        }
        if t.is_punct(';') {
            return None; // e.g. `#[cfg(test)] use …;`
        }
        j += 1;
    }
    None
}

/// [`matching_delim`] over the code view: `code[open_k]` indexes the
/// opener; returns the code-view index of the closer.
fn matching_delim_in_view(tokens: &[Token], code: &[usize], open_k: usize) -> Option<usize> {
    let close_tok = matching_delim(tokens, code[open_k]);
    code.iter().position(|&i| i == close_tok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn cfg_test_mod_body_is_a_test_region() {
        let src =
            "fn prod() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n  fn t() { y.unwrap(); }\n}\n";
        let toks = lex(src);
        let regions = test_regions("crates/a/src/lib.rs", &toks);
        assert_eq!(regions.len(), 1);
        // The production unwrap is outside, the test unwrap inside.
        let unwraps: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unwraps.len(), 2);
        let (a, b) = regions[0];
        assert!(!(a..b).contains(&unwraps[0]));
        assert!((a..b).contains(&unwraps[1]));
    }

    #[test]
    fn test_attr_fn_body_is_a_test_region() {
        let src = "#[test]\nfn check() { assert!(true); }\nfn prod() {}";
        let toks = lex(src);
        let regions = test_regions("crates/a/src/lib.rs", &toks);
        assert_eq!(regions.len(), 1);
    }

    #[test]
    fn tests_directory_files_are_entirely_test() {
        let toks = lex("fn anything() {}");
        assert_eq!(
            test_regions("tests/engine_determinism.rs", &toks),
            vec![(0, toks.len())]
        );
        assert_eq!(
            test_regions("crates/lint/tests/lint_fixtures.rs", &toks),
            vec![(0, toks.len())]
        );
    }

    #[test]
    fn other_cfg_attributes_are_not_test_regions() {
        let src = "#[cfg(target_arch = \"x86_64\")]\nmod arch { fn f() {} }";
        let toks = lex(src);
        assert!(test_regions("crates/a/src/lib.rs", &toks).is_empty());
    }
}
