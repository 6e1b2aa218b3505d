//! End-to-end qcplint tests over the fixture workspaces in
//! `crates/xtask/fixtures/`: every rule fires on `bad_ws`, nothing fires
//! on `good_ws`, and the binary's exit codes match the contract
//! (0 clean / 1 violations / 2 usage error).

use std::path::{Path, PathBuf};
use std::process::Command;

use qcp_xtask::lint_workspace;
use qcp_xtask::rules::{LintConfig, Rule};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

#[test]
fn bad_ws_trips_every_rule() {
    let report = lint_workspace(&fixture("bad_ws"), &LintConfig::default()).unwrap();
    let counts = report.rule_counts();
    assert_eq!(counts.get(Rule::Nondet.key()), Some(&2), "{report}");
    assert_eq!(counts.get(Rule::UnorderedIter.key()), Some(&2), "{report}");
    assert_eq!(counts.get(Rule::MissingForbid.key()), Some(&1), "{report}");
    assert_eq!(
        counts.get(Rule::ForbiddenUnsafe.key()),
        Some(&1),
        "{report}"
    );
    assert_eq!(
        counts.get(Rule::UndocumentedUnsafe.key()),
        Some(&1),
        "{report}"
    );
    // 3 direct panic sites; the reason-less pragma does not suppress.
    assert_eq!(counts.get(Rule::Panic.key()), Some(&3), "{report}");
    // counters.rs: an AtomicU64 static + a fetch_add, and one cfg-gated
    // recorder call.
    assert_eq!(counts.get(Rule::DirectCounter.key()), Some(&2), "{report}");
    assert_eq!(counts.get(Rule::CfgRecorder.key()), Some(&1), "{report}");
    // 2 malformed pragmas in badpragma.rs + 1 reason-less one in panics.rs.
    assert_eq!(counts.get(Rule::BadPragma.key()), Some(&3), "{report}");
    // Cross-crate families: alias.rs shares a raw tag (second site
    // flagged), helper.rs holds a nondet source and a panic site both
    // reachable from overlay entries, reduce.rs does one float reduce.
    assert_eq!(
        counts.get(Rule::SeedStreamAlias.key()),
        Some(&1),
        "{report}"
    );
    assert_eq!(
        counts.get(Rule::TransitiveNondet.key()),
        Some(&1),
        "{report}"
    );
    assert_eq!(counts.get(Rule::PanicReachable.key()), Some(&1), "{report}");
    assert_eq!(
        counts.get(Rule::FloatReduceOrder.key()),
        Some(&1),
        "{report}"
    );
}

#[test]
fn bad_ws_taint_diagnostics_land_at_the_source() {
    let report = lint_workspace(&fixture("bad_ws"), &LintConfig::default()).unwrap();
    // D4/P2 report *inside the helper crate* the per-file pass exempts —
    // the blind spot the call graph exists to close — and name the
    // sim-facing entry path.
    let d4 = report
        .diagnostics
        .iter()
        .find(|d| d.rule == Rule::TransitiveNondet)
        .expect("transitive-nondet fires");
    assert!(d4.file.ends_with("crates/util/src/helper.rs"), "{d4}");
    assert!(
        d4.message
            .contains("overlay::run_trial -> util::tick_epoch"),
        "{d4}"
    );
    let p2 = report
        .diagnostics
        .iter()
        .find(|d| d.rule == Rule::PanicReachable)
        .expect("panic-reachable fires");
    assert!(p2.file.ends_with("crates/util/src/helper.rs"), "{p2}");
    // D3 flags the *second* site and points back at the anchor.
    let d3 = report
        .diagnostics
        .iter()
        .find(|d| d.rule == Rule::SeedStreamAlias)
        .expect("seed-stream-alias fires");
    assert!(d3.message.contains("alias.rs"), "{d3}");
}

#[test]
fn bad_ws_reports_the_stale_pragma_as_warning() {
    let report = lint_workspace(&fixture("bad_ws"), &LintConfig::default()).unwrap();
    let stale: Vec<_> = report
        .warnings
        .iter()
        .filter(|d| d.rule == Rule::StalePragma)
        .collect();
    assert_eq!(stale.len(), 1, "{report}");
    assert!(stale[0].file.ends_with("crates/overlay/src/alias.rs"));
    // Warnings never leak into the violation list.
    assert!(report.diagnostics.iter().all(|d| !d.rule.is_warning()));
}

#[test]
fn bad_ws_diagnostics_are_sorted_and_formatted() {
    let report = lint_workspace(&fixture("bad_ws"), &LintConfig::default()).unwrap();
    // Emitted in (file, numeric line, rule) order.
    for pair in report.diagnostics.windows(2) {
        let a = (&pair[0].file, pair[0].line, pair[0].rule.key());
        let b = (&pair[1].file, pair[1].line, pair[1].rule.key());
        assert!(
            a <= b,
            "diagnostics out of order: {} before {}",
            pair[0],
            pair[1]
        );
    }
    // `file:line: rule — message` shape.
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    for line in &rendered {
        assert!(line.contains(".rs:"), "missing file:line in {line}");
        assert!(line.contains(" — "), "missing em-dash separator in {line}");
    }
}

#[test]
fn good_ws_is_clean() {
    let report = lint_workspace(&fixture("good_ws"), &LintConfig::default()).unwrap();
    assert!(report.is_clean(), "expected clean, got:\n{report}");
    assert!(report.files_checked >= 3);
    // Source-site audits in the helper crate are *used* by the taint
    // pass, so none of them may surface as stale-pragma warnings.
    assert!(
        report.warnings.is_empty(),
        "expected no warnings, got:\n{report}"
    );
}

#[test]
fn summary_json_shape() {
    let report = lint_workspace(&fixture("good_ws"), &LintConfig::default()).unwrap();
    let json = report.summary_json();
    assert!(json.starts_with("{\"files\":"), "{json}");
    assert!(json.ends_with("\"rules\":{}}"), "{json}");
}

fn run_lint(root: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_qcp-xtask"))
        .arg("lint")
        .arg("--root")
        .arg(root)
        .output()
        .expect("failed to run qcp-xtask")
}

#[test]
fn binary_exit_codes() {
    let bad = run_lint(&fixture("bad_ws"));
    assert_eq!(bad.status.code(), Some(1), "bad_ws must exit 1");
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(
        stdout.contains("\"violations\":"),
        "summary missing: {stdout}"
    );
    assert!(stdout.contains("nondet"), "rule names missing: {stdout}");

    let good = run_lint(&fixture("good_ws"));
    assert_eq!(good.status.code(), Some(0), "good_ws must exit 0");
    let stdout = String::from_utf8_lossy(&good.stdout);
    assert!(stdout.contains("\"violations\":0"), "bad summary: {stdout}");
}

#[test]
fn binary_usage_errors_exit_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_qcp-xtask"))
        .output()
        .expect("failed to run qcp-xtask");
    assert_eq!(out.status.code(), Some(2), "no subcommand must exit 2");

    let out = Command::new(env!("CARGO_BIN_EXE_qcp-xtask"))
        .arg("frobnicate")
        .output()
        .expect("failed to run qcp-xtask");
    assert_eq!(out.status.code(), Some(2), "unknown subcommand must exit 2");

    let out = Command::new(env!("CARGO_BIN_EXE_qcp-xtask"))
        .args(["lint", "--root"])
        .output()
        .expect("failed to run qcp-xtask");
    assert_eq!(out.status.code(), Some(2), "dangling --root must exit 2");
}

#[test]
fn warn_ws_warnings_gate_only_under_deny_warnings() {
    // Warnings alone keep exit 0 — the gate stays soft by default …
    let soft = run_lint(&fixture("warn_ws"));
    assert_eq!(soft.status.code(), Some(0), "warnings alone must exit 0");
    let stdout = String::from_utf8_lossy(&soft.stdout);
    assert!(stdout.contains("stale-pragma"), "warning missing: {stdout}");
    assert!(stdout.contains("\"violations\":0"), "bad summary: {stdout}");

    // … and hard under --deny-warnings (what CI runs).
    let hard = Command::new(env!("CARGO_BIN_EXE_qcp-xtask"))
        .args(["lint", "--root"])
        .arg(fixture("warn_ws"))
        .arg("--deny-warnings")
        .output()
        .expect("failed to run qcp-xtask");
    assert_eq!(hard.status.code(), Some(1), "--deny-warnings must exit 1");
}

#[test]
fn json_reports_are_byte_identical_across_runs() {
    let run = || {
        Command::new(env!("CARGO_BIN_EXE_qcp-xtask"))
            .args(["lint", "--root"])
            .arg(fixture("bad_ws"))
            .args(["--format", "json"])
            .output()
            .expect("failed to run qcp-xtask")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.status.code(), Some(1));
    assert_eq!(a.stdout, b.stdout, "JSON report is not deterministic");
    let stdout = String::from_utf8_lossy(&a.stdout);
    assert!(stdout.contains("\"diagnostics\":["), "{stdout}");
    assert!(stdout.contains("\"level\":\"warning\""), "{stdout}");
    assert!(stdout.contains("\"family\":\"D4\""), "{stdout}");
}

#[test]
fn explain_prints_rule_docs() {
    let known = Command::new(env!("CARGO_BIN_EXE_qcp-xtask"))
        .args(["lint", "--explain", "seed-stream-alias"])
        .output()
        .expect("failed to run qcp-xtask");
    assert_eq!(known.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&known.stdout);
    assert!(stdout.contains("seed-stream-alias"), "{stdout}");
    assert!(stdout.contains("D3"), "{stdout}");

    // A family name expands to all member rules.
    let family = Command::new(env!("CARGO_BIN_EXE_qcp-xtask"))
        .args(["lint", "--explain", "D4"])
        .output()
        .expect("failed to run qcp-xtask");
    assert_eq!(family.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&family.stdout);
    assert!(stdout.contains("transitive-nondet"), "{stdout}");

    let unknown = Command::new(env!("CARGO_BIN_EXE_qcp-xtask"))
        .args(["lint", "--explain", "nosuch"])
        .output()
        .expect("failed to run qcp-xtask");
    assert_eq!(unknown.status.code(), Some(2), "unknown rule must exit 2");
}

#[test]
fn baseline_parks_findings_without_hiding_them() {
    let path =
        std::env::temp_dir().join(format!("qcplint-baseline-test-{}.txt", std::process::id()));
    // Write a baseline covering every bad_ws finding …
    let write = Command::new(env!("CARGO_BIN_EXE_qcp-xtask"))
        .args(["lint", "--root"])
        .arg(fixture("bad_ws"))
        .args(["--write-baseline", "--baseline"])
        .arg(&path)
        .output()
        .expect("failed to run qcp-xtask");
    assert_eq!(write.status.code(), Some(0), "--write-baseline must exit 0");
    // … then the same tree lints clean against it, with the parked count
    // still visible in the summary.
    let gated = Command::new(env!("CARGO_BIN_EXE_qcp-xtask"))
        .args(["lint", "--root"])
        .arg(fixture("bad_ws"))
        .args(["--baseline"])
        .arg(&path)
        .output()
        .expect("failed to run qcp-xtask");
    std::fs::remove_file(&path).ok();
    assert_eq!(gated.status.code(), Some(0), "baselined tree must exit 0");
    let stdout = String::from_utf8_lossy(&gated.stdout);
    assert!(stdout.contains("\"violations\":0"), "{stdout}");
    assert!(!stdout.contains("\"baselined\":0"), "{stdout}");
}

#[test]
fn whole_workspace_is_clean() {
    // The real repo must satisfy its own gate. Walk up from the crate dir
    // to the workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf();
    assert!(root.join("Cargo.toml").is_file());
    let report = lint_workspace(&root, &LintConfig::default()).unwrap();
    assert!(report.is_clean(), "workspace violates qcplint:\n{report}");
    assert!(
        report.warnings.is_empty(),
        "workspace has stale pragmas:\n{report}"
    );
}

#[test]
fn loc_counts_code_lines_outside_tests() {
    let sample = fixture("loc").join("sample.rs");
    let out = Command::new(env!("CARGO_BIN_EXE_qcp-xtask"))
        .arg("loc")
        .arg(&sample)
        .output()
        .expect("failed to run qcp-xtask");
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!("      3 {}\n      3 total\n", sample.display())
    );
    for args in [&["loc"][..], &["loc", "--root", "."]] {
        let out = Command::new(env!("CARGO_BIN_EXE_qcp-xtask"))
            .args(args)
            .output()
            .expect("failed to run qcp-xtask");
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    }
}
