//! `qcp-xtask` — workspace automation binary.
//!
//! Subcommands:
//!
//! * `lint [--root <dir>] [--format text|json] [--deny-warnings]
//!   [--baseline <file>] [--write-baseline]` — run qcplint over the
//!   workspace. Text format prints one `file:line: rule — message`
//!   diagnostic per finding plus a JSON summary line; `--format json`
//!   prints the full machine-readable report (byte-identical across
//!   runs — CI `cmp`s a double run). Exit codes: `0` clean, `1`
//!   violations found (or warnings under `--deny-warnings`), `2`
//!   usage / I/O error.
//! * `lint --explain <rule|family>` — print the long-form rationale for
//!   a rule key (`seed-stream-alias`) or family (`D3`) and exit.
//! * `loc <path>...` — print the non-blank, non-comment lines outside
//!   `#[cfg(test)]` regions of each `.rs` file under the paths, then the
//!   total. Exit codes: `0` counted, `2` usage / I/O error.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use qcp_xtask::{
    lint_workspace, loc,
    rules::{LintConfig, Rule},
    Baseline,
};

const USAGE: &str = "usage: qcp-xtask lint [--root <dir>] [--format text|json] \
                     [--deny-warnings] [--baseline <file>] [--write-baseline] \
                     [--explain <rule|family>]\n       qcp-xtask loc <path>...";

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    let Some(cmd) = iter.next() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if cmd == "loc" {
        return run_loc(iter.as_slice());
    }
    if cmd != "lint" {
        eprintln!("error: unknown subcommand `{cmd}`");
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut deny_warnings = false;
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline = false;
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--root" => match iter.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage_error("--root requires a directory argument"),
            },
            "--format" => match iter.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                _ => return usage_error("--format requires `text` or `json`"),
            },
            "--deny-warnings" => deny_warnings = true,
            "--baseline" => match iter.next() {
                Some(file) => baseline_path = Some(PathBuf::from(file)),
                None => return usage_error("--baseline requires a file argument"),
            },
            "--write-baseline" => write_baseline = true,
            "--explain" => match iter.next() {
                Some(what) => return explain(what),
                None => return usage_error("--explain requires a rule key or family"),
            },
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => match workspace_root() {
            Ok(r) => r,
            Err(msg) => {
                eprintln!("qcplint: {msg}");
                return ExitCode::from(2);
            }
        },
    };
    run_lint(&root, format, deny_warnings, baseline_path, write_baseline)
}

/// Prints the production code lines of every `.rs` file under `paths`,
/// one file a line, then the total.
fn run_loc(paths: &[String]) -> ExitCode {
    if paths.is_empty() {
        return usage_error("loc requires at least one path");
    }
    if let Some(flag) = paths.iter().find(|p| p.starts_with("--")) {
        return usage_error(&format!("loc takes no flags, got `{flag}`"));
    }
    let mut total = 0;
    for path in paths {
        let files = match loc::rs_files(Path::new(path)) {
            Ok(files) => files,
            Err(e) => {
                eprintln!("loc: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        for file in files {
            let lines = match std::fs::read_to_string(&file) {
                Ok(source) => loc::code_lines(&source),
                Err(e) => {
                    eprintln!("loc: cannot read {}: {e}", file.display());
                    return ExitCode::from(2);
                }
            };
            println!("{lines:>7} {}", file.display());
            total += lines;
        }
    }
    println!("{total:>7} total");
    ExitCode::SUCCESS
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Prints the long-form rationale for a rule key or family name.
fn explain(what: &str) -> ExitCode {
    let rules = Rule::by_key_or_family(what);
    if rules.is_empty() {
        eprintln!("error: no rule or family named `{what}`");
        eprintln!("known rules:");
        for r in Rule::all() {
            eprintln!("  {:>3}  {}", r.family(), r.key());
        }
        return ExitCode::from(2);
    }
    for (i, r) in rules.iter().enumerate() {
        if i > 0 {
            println!();
        }
        println!("{}", r.explain());
    }
    ExitCode::SUCCESS
}

/// Locates the workspace root: starting from `$CARGO_MANIFEST_DIR` (when
/// invoked through cargo) or the current directory, searches *upward*
/// for a `Cargo.toml` declaring `[workspace]`. Errors — rather than
/// silently linting `.` — when no workspace manifest is found.
fn workspace_root() -> Result<PathBuf, String> {
    let start = match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => PathBuf::from(dir),
        Err(_) => std::env::current_dir()
            .map_err(|e| format!("cannot determine current directory: {e}"))?,
    };
    for dir in start.ancestors() {
        let manifest = dir.join("Cargo.toml");
        let is_workspace =
            std::fs::read_to_string(&manifest).is_ok_and(|text| text.contains("[workspace]"));
        if is_workspace {
            return Ok(dir.to_path_buf());
        }
    }
    Err(format!(
        "no Cargo.toml with a [workspace] section found above {}; \
         pass --root <dir> explicitly",
        start.display()
    ))
}

fn run_lint(
    root: &Path,
    format: Format,
    deny_warnings: bool,
    baseline_path: Option<PathBuf>,
    write_baseline: bool,
) -> ExitCode {
    let cfg = LintConfig::default();
    let mut report = match lint_workspace(root, &cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("qcplint: I/O error: {e}");
            return ExitCode::from(2);
        }
    };

    let baseline_file = baseline_path.unwrap_or_else(|| root.join("qcplint.baseline"));
    if write_baseline {
        let text = Baseline::render(&report);
        if let Err(e) = std::fs::write(&baseline_file, &text) {
            eprintln!("qcplint: cannot write {}: {e}", baseline_file.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "qcplint: wrote {} finding(s) to {}",
            report.diagnostics.len(),
            baseline_file.display()
        );
        return ExitCode::SUCCESS;
    }
    match std::fs::read_to_string(&baseline_file) {
        Ok(text) => Baseline::parse(&text).apply(&mut report),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => {
            eprintln!("qcplint: cannot read {}: {e}", baseline_file.display());
            return ExitCode::from(2);
        }
    }

    match format {
        Format::Text => print!("{report}"),
        Format::Json => println!("{}", report.report_json()),
    }
    if report.fails(deny_warnings) {
        eprintln!(
            "qcplint: {} files checked, {} violation(s), {} warning(s){}",
            report.files_checked,
            report.diagnostics.len(),
            report.warnings.len(),
            if deny_warnings && report.diagnostics.is_empty() {
                " — failing on warnings (--deny-warnings)"
            } else {
                ""
            }
        );
        ExitCode::from(1)
    } else {
        eprintln!(
            "qcplint: {} files checked, clean ({} warning(s), {} baselined)",
            report.files_checked,
            report.warnings.len(),
            report.baselined
        );
        ExitCode::SUCCESS
    }
}
