//! Exit-code contract of the `bdlfi-lint` binary: 0 clean, 1 findings,
//! 2 usage/I/O error — the shape the CI job keys off.

use std::path::Path;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bdlfi-lint"))
}

#[test]
fn check_on_the_workspace_exits_zero() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = bin().arg("check").arg(&root).output().expect("spawn");
    assert!(
        out.status.success(),
        "expected clean workspace, got:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("bdlfi-lint: clean"));
}

#[test]
fn check_on_the_bad_fixtures_exits_one_with_codes() {
    // Pointed directly at the fixture corpus the workspace walker skips,
    // the path-insensitive rules all fire.
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let out = bin().arg("check").arg(&fixtures).output().expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for code in ["BD001", "BD002", "BD003", "BD004"] {
        assert!(stdout.contains(code), "expected {code} in:\n{stdout}");
    }
}

#[test]
fn bad_usage_and_bad_paths_exit_two() {
    let out = bin().output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let out = bin()
        .arg("check")
        .arg("/nonexistent/bdlfi")
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let out = bin()
        .args(["check", ".", "--format", "yaml"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn json_format_emits_sarif_on_findings() {
    let tree = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/bd010_bad");
    let out = bin()
        .args([
            "check",
            tree.to_str().expect("utf-8 path"),
            "--format",
            "json",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"version\":\"2.1.0\""), "{stdout}");
    assert!(stdout.contains("\"ruleId\":\"BD010\""), "{stdout}");
    assert!(stdout.contains("crates/nn/src/prep.rs"), "{stdout}");
    // No human-format footer pollutes the document.
    assert!(!stdout.contains("bdlfi-lint:"), "{stdout}");
}

#[test]
fn github_format_emits_error_commands() {
    let tree = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/bd012_bad");
    let out = bin()
        .args([
            "check",
            tree.to_str().expect("utf-8 path"),
            "--format",
            "github",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("::error file=crates/core/src/fastpath.rs,line=10,"),
        "{stdout}"
    );
}

#[test]
fn explain_documents_rules_and_flags_unknown_codes() {
    let out = bin().args(["explain", "bd011"]).output().expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("BD011"), "{stdout}");
    assert!(stdout.contains("=== good:"), "{stdout}");
    assert!(stdout.contains("=== bad:"), "{stdout}");

    let out = bin().args(["explain", "BD005"]).output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("retired"));

    let out = bin().args(["explain", "BD999"]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
}
