//! Diagnostics and the inline suppression protocol.
//!
//! A finding is `path:line:col: BDxxx: message`. Suppression is explicit
//! and audited: a finding is waived only by a comment of the form
//!
//! ```text
//! // bdlfi-lint: allow(BD010) -- engine invariant: slots claimed once
//! ```
//!
//! on the finding's line or the line directly above it. The `-- reason`
//! is mandatory — a directive without one suppresses nothing and is
//! itself reported as `BD000`, so silent waivers cannot accumulate.

use crate::lexer::Token;

/// Diagnostic code for a malformed suppression directive.
pub const MALFORMED_DIRECTIVE: &str = "BD000";

/// One rule violation (or directive problem) at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule code (`BD001` … `BD012`, or `BD000` for directive problems).
    pub code: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
    /// Supporting evidence, one line each — the interprocedural rules
    /// put the witness call chain here. Empty for per-file rules.
    pub notes: Vec<String>,
}

impl Finding {
    /// A finding with no notes.
    #[must_use]
    pub fn new(code: &'static str, path: String, line: u32, col: u32, message: String) -> Finding {
        Finding {
            code,
            path,
            line,
            col,
            message,
            notes: Vec::new(),
        }
    }

    /// Renders the finding in the `path:line:col: code: message` shape
    /// editors and CI log scanners understand. Notes follow, indented,
    /// one per line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}:{}:{}: {}: {}",
            self.path, self.line, self.col, self.code, self.message
        );
        for n in &self.notes {
            s.push_str("\n    note: ");
            s.push_str(n);
        }
        s
    }
}

/// A parsed `bdlfi-lint: allow(...)` directive.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// Line the directive's comment starts on.
    pub line: u32,
    /// The rule codes it waives (uppercased).
    pub codes: Vec<String>,
    /// Whether a non-empty `-- reason` was given. Directives without a
    /// reason are inert.
    pub has_reason: bool,
}

/// Extracts every `bdlfi-lint: allow(...)` directive from a file's
/// comment tokens.
#[must_use]
pub fn parse_directives(tokens: &[Token]) -> Vec<AllowDirective> {
    let mut out = Vec::new();
    for t in tokens.iter().filter(|t| t.is_comment()) {
        let Some(at) = t.text.find("bdlfi-lint:") else {
            continue;
        };
        let rest = &t.text[at + "bdlfi-lint:".len()..];
        let Some(open) = rest.find("allow(") else {
            continue;
        };
        let after_open = &rest[open + "allow(".len()..];
        let Some(close) = after_open.find(')') else {
            continue;
        };
        let codes: Vec<String> = after_open[..close]
            .split(',')
            .map(|c| c.trim().to_uppercase())
            .filter(|c| !c.is_empty())
            .collect();
        let tail = &after_open[close + 1..];
        let has_reason = tail
            .find("--")
            .map(|d| !tail[d + 2..].trim_matches(['*', '/', ' ', '\t']).is_empty())
            .unwrap_or(false);
        out.push(AllowDirective {
            line: t.line,
            codes,
            has_reason,
        });
    }
    out
}

/// Applies directives to `findings` for one file: waived findings are
/// dropped, and each malformed directive (missing reason) yields a
/// [`MALFORMED_DIRECTIVE`] finding so it shows up in CI.
#[must_use]
pub fn apply_directives(
    path: &str,
    findings: Vec<Finding>,
    directives: &[AllowDirective],
) -> Vec<Finding> {
    let mut out: Vec<Finding> = findings
        .into_iter()
        .filter(|f| {
            !directives.iter().any(|d| {
                d.has_reason
                    && d.codes.iter().any(|c| c == f.code)
                    && (d.line == f.line || d.line + 1 == f.line)
            })
        })
        .collect();
    for d in directives.iter().filter(|d| !d.has_reason) {
        out.push(Finding::new(
            MALFORMED_DIRECTIVE,
            path.to_string(),
            d.line,
            1,
            format!(
                "suppression directive for {} is missing its `-- reason`; \
                 reasonless waivers are ignored",
                d.codes.join(", ")
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn finding(code: &'static str, line: u32) -> Finding {
        Finding::new(code, "x.rs".to_string(), line, 1, "m".to_string())
    }

    #[test]
    fn directive_on_same_or_previous_line_suppresses() {
        let toks = lex("// bdlfi-lint: allow(BD001) -- test fixture\nlet x = 1;");
        let dirs = parse_directives(&toks);
        assert_eq!(dirs.len(), 1);
        assert!(dirs[0].has_reason);
        // Line 1 (same) and line 2 (next) are covered; line 3 is not.
        assert!(apply_directives("x.rs", vec![finding("BD001", 1)], &dirs).is_empty());
        assert!(apply_directives("x.rs", vec![finding("BD001", 2)], &dirs).is_empty());
        assert_eq!(
            apply_directives("x.rs", vec![finding("BD001", 3)], &dirs).len(),
            1
        );
    }

    #[test]
    fn directive_only_covers_its_codes() {
        let toks = lex("// bdlfi-lint: allow(BD001, BD003) -- spans two rules");
        let dirs = parse_directives(&toks);
        assert_eq!(dirs[0].codes, vec!["BD001", "BD003"]);
        assert!(apply_directives("x.rs", vec![finding("BD003", 1)], &dirs).is_empty());
        assert_eq!(
            apply_directives("x.rs", vec![finding("BD007", 1)], &dirs).len(),
            1
        );
    }

    #[test]
    fn reasonless_directive_is_inert_and_reported() {
        let toks = lex("// bdlfi-lint: allow(BD004)\nunsafe_thing();");
        let dirs = parse_directives(&toks);
        assert!(!dirs[0].has_reason);
        let out = apply_directives("x.rs", vec![finding("BD004", 2)], &dirs);
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(|f| f.code == "BD004"));
        assert!(out.iter().any(|f| f.code == MALFORMED_DIRECTIVE));
    }

    #[test]
    fn directives_inside_strings_are_not_parsed() {
        let toks = lex(r#"let s = "bdlfi-lint: allow(BD001) -- nope";"#);
        assert!(parse_directives(&toks).is_empty());
    }

    #[test]
    fn block_comment_directive_with_trailing_slashes() {
        let toks = lex("/* bdlfi-lint: allow(BD002) -- block form */ x();");
        let dirs = parse_directives(&toks);
        assert_eq!(dirs.len(), 1);
        assert!(dirs[0].has_reason, "reason must survive the trailing */");
    }
}
