//! The qcp2p workspace static-analysis gate (qcplint).
//!
//! Run as `cargo xtask lint` (alias for `cargo run -p qcp-xtask -- lint`).
//! Walks every tracked `.rs` file in the workspace and enforces the rule
//! families described in `DESIGN.md` §11 — per-file token rules
//! (D1/D2/S1/P1/O1, in [`rules`]) plus workspace-wide taint rules
//! (D3/D4/P2/F1, in [`taint`]) built on a lightweight item parser
//! ([`parser`]) and a cross-crate call graph ([`callgraph`]).
//!
//! The pipeline has two phases over one shared load:
//!
//! 1. every file is lexed, parsed, and pragma-scanned once into a
//!    [`FileRecord`];
//! 2. the per-file rules run on each record, then the taint rules run
//!    over all records together.
//!
//! Pragma lookups in both phases mark entries used, so a third step can
//! report the leftovers as **W1 `stale-pragma`** warnings — waivers
//! must not outlive the hazard they waived. Warnings never fail the
//! gate unless `--deny-warnings` is set. A checked-in
//! [`Baseline`] (`qcplint.baseline`) can park known findings so a new
//! rule family lands strict without a big-bang fixup; baseline entries
//! that match nothing become `stale-baseline` warnings.
//!
//! Everything below is pure (`(path, source) -> diagnostics`, no I/O
//! beyond the initial file read), so the whole engine is testable from
//! strings; the binary half (`src/main.rs`) adds the filesystem walk,
//! output formats, and exit codes. Reports are deterministic by
//! construction: sorted walks, sorted diagnostics, sorted rule tables —
//! two runs over the same tree emit byte-identical output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod lexer;
pub mod loc;
pub mod parser;
pub mod rules;
pub mod taint;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use lexer::{split_lines, LineView};
use parser::ParsedFile;
use rules::{Diagnostic, FileContext, FileKind, LintConfig, PragmaSet, Rule};

/// One workspace file, loaded and pre-analyzed once for both phases.
pub struct FileRecord {
    /// Workspace-relative path.
    pub rel: PathBuf,
    /// Crate / kind classification from [`classify_path`].
    pub ctx: FileContext,
    /// Lexed lines (comments split out, strings blanked).
    pub lines: Vec<LineView>,
    /// Items and calls recovered by [`parser::parse_file`].
    pub parsed: ParsedFile,
    /// All pragmas, with per-entry usage tracking.
    pub pragmas: PragmaSet,
    /// Per-line `#[cfg(test)]` / `#[test]` region marks.
    pub test_lines: Vec<bool>,
}

impl FileRecord {
    /// Builds a record from source text (no filesystem access).
    pub fn from_source(rel: PathBuf, ctx: FileContext, source: &str) -> Self {
        let lines = split_lines(source);
        let parsed = parser::parse_file(&lines);
        let pragmas = PragmaSet::collect(&lines);
        let test_lines = rules::compute_test_regions(&lines);
        Self {
            rel,
            ctx,
            lines,
            parsed,
            pragmas,
            test_lines,
        }
    }
}

/// Aggregated result of linting a file set.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files inspected.
    pub files_checked: usize,
    /// All violations, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// All warnings (W1), sorted by (file, line, rule).
    pub warnings: Vec<Diagnostic>,
    /// Violations suppressed by the baseline file.
    pub baselined: usize,
}

impl Report {
    /// True when no violations were found (warnings do not count).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when the gate should fail.
    pub fn fails(&self, deny_warnings: bool) -> bool {
        !self.diagnostics.is_empty() || (deny_warnings && !self.warnings.is_empty())
    }

    /// Per-rule violation counts, keyed by rule name.
    pub fn rule_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for d in &self.diagnostics {
            *counts.entry(d.rule.key()).or_insert(0) += 1;
        }
        counts
    }

    /// Machine-readable one-line JSON summary.
    ///
    /// Shape: `{"files":N,"violations":M,"warnings":W,"baselined":B,`
    /// `"rules":{"<rule>":K,...}}` with rule keys sorted, so the output
    /// is byte-stable for a given input.
    pub fn summary_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"files\":{},\"violations\":{},\"warnings\":{},\"baselined\":{},\"rules\":{{",
            self.files_checked,
            self.diagnostics.len(),
            self.warnings.len(),
            self.baselined,
        ));
        let counts = self.rule_counts();
        let mut first = true;
        for (rule, n) in counts {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{rule}\":{n}"));
        }
        out.push_str("}}");
        out
    }

    /// Full machine-readable report: the summary fields plus every
    /// diagnostic (violations and warnings interleaved in sort order,
    /// distinguished by `"level"`). Deterministic and byte-stable —
    /// CI double-runs `cmp` this output to pin analyzer determinism.
    pub fn report_json(&self) -> String {
        let mut out = self.summary_json();
        out.pop(); // reopen the trailing `}`
        out.push_str(",\"diagnostics\":[");
        let mut all: Vec<(&Diagnostic, &str)> = self
            .diagnostics
            .iter()
            .map(|d| (d, "error"))
            .chain(self.warnings.iter().map(|d| (d, "warning")))
            .collect();
        all.sort_by(|a, b| diag_key(a.0).cmp(&diag_key(b.0)));
        let mut first = true;
        for (d, level) in all {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"file\":{},\"line\":{},\"rule\":\"{}\",\"family\":\"{}\",\
                 \"level\":\"{level}\",\"message\":{}}}",
                json_string(&d.file.display().to_string()),
                d.line,
                d.rule.key(),
                d.rule.family(),
                json_string(&d.message),
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Text rendering: violations, then warnings, then the summary line.
impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        for d in &self.warnings {
            writeln!(f, "warning: {d}")?;
        }
        writeln!(f, "{}", self.summary_json())
    }
}

/// Escapes a string into a JSON string literal (with quotes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The diagnostic sort key shared by text and JSON output.
fn diag_key(d: &Diagnostic) -> (&PathBuf, usize, &'static str) {
    (&d.file, d.line, d.rule.key())
}

/// A checked-in set of known findings, one `file:line: rule` per line.
///
/// Lets a new rule family land strict without a big-bang fixup: parked
/// findings count as `baselined` instead of failing the gate. Entries
/// that match nothing are reported as `stale-baseline` warnings so the
/// file shrinks monotonically. Regenerate with `--write-baseline`.
#[derive(Debug, Default)]
pub struct Baseline {
    entries: Vec<(String, usize, String)>,
}

impl Baseline {
    /// Parses baseline text: `#` comments, blank lines, and
    /// `file:line: rule-key` entries (as written by [`Baseline::render`]).
    pub fn parse(text: &str) -> Self {
        let mut entries = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // Rightmost parse: `<file>:<line>: <rule>`.
            let Some((head, rule)) = line.rsplit_once(": ") else {
                continue;
            };
            let Some((file, lineno)) = head.rsplit_once(':') else {
                continue;
            };
            let Ok(lineno) = lineno.parse::<usize>() else {
                continue;
            };
            entries.push((file.to_string(), lineno, rule.trim().to_string()));
        }
        Self { entries }
    }

    /// Renders the report's current violations as baseline text.
    pub fn render(report: &Report) -> String {
        let mut out = String::from(
            "# qcplint baseline — known findings parked while a rule family lands.\n\
             # One `file:line: rule` per line; regenerate with `cargo xtask lint \
             --write-baseline`.\n",
        );
        for d in &report.diagnostics {
            out.push_str(&format!(
                "{}:{}: {}\n",
                d.file.display(),
                d.line,
                d.rule.key()
            ));
        }
        out
    }

    /// Moves matching violations out of `report.diagnostics` into the
    /// `baselined` count; entries that match nothing become
    /// `stale-baseline` warnings.
    pub fn apply(&self, report: &mut Report) {
        let mut used = vec![false; self.entries.len()];
        report.diagnostics.retain(|d| {
            let hit = self.entries.iter().position(|(file, line, rule)| {
                d.file.display().to_string() == *file && d.line == *line && d.rule.key() == *rule
            });
            match hit {
                Some(idx) => {
                    used[idx] = true;
                    report.baselined += 1;
                    false
                }
                None => true,
            }
        });
        for (idx, (file, line, rule)) in self.entries.iter().enumerate() {
            if !used[idx] {
                report.warnings.push(Diagnostic {
                    file: PathBuf::from(file),
                    line: *line,
                    rule: Rule::StaleBaseline,
                    message: format!(
                        "baseline entry `{file}:{line}: {rule}` matches no finding; \
                         remove it (or regenerate with --write-baseline)"
                    ),
                });
            }
        }
        report
            .warnings
            .sort_by(|a, b| diag_key(a).cmp(&diag_key(b)));
    }
}

/// Classifies a workspace-relative path into its owning crate and kind.
///
/// Returns `None` for paths qcplint must not lint: build outputs
/// (`target/`), VCS internals, and the lint fixtures themselves (which
/// contain violations *on purpose*).
pub fn classify_path(rel: &Path) -> Option<FileContext> {
    let comps: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    if comps.is_empty() {
        return None;
    }
    // Skips: build output, VCS, editor litter, and intentional-violation
    // fixtures under crates/xtask/fixtures/.
    if comps
        .iter()
        .any(|c| *c == "target" || *c == ".git" || *c == "fixtures")
    {
        return None;
    }

    let (crate_name, rest): (String, &[&str]) = match comps[0] {
        "crates" | "vendor" => {
            if comps.len() < 2 {
                return None;
            }
            (comps[1].to_string(), &comps[2..])
        }
        // Root package: src/, tests/, examples/, benches/ at repo root.
        _ => ("qcp2p".to_string(), &comps[..]),
    };

    let kind = match rest.first().copied() {
        Some("tests") | Some("benches") | Some("examples") => FileKind::Test,
        _ => FileKind::Lib,
    };

    let is_crate_root = matches!(
        rest,
        ["src", "lib.rs"] | ["src", "main.rs"] | ["src", "bin", _]
    );

    Some(FileContext {
        crate_name,
        kind,
        is_crate_root,
    })
}

/// Recursively collects every `.rs` file under `root`, returning
/// workspace-relative paths in sorted order (deterministic walk).
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if name == "target" || name == ".git" || name == "fixtures" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    files.push(rel.to_path_buf());
                }
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Loads every lintable `.rs` file under `root` into [`FileRecord`]s.
pub fn load_workspace(root: &Path) -> std::io::Result<Vec<FileRecord>> {
    let mut records = Vec::new();
    for rel in collect_rs_files(root)? {
        let Some(ctx) = classify_path(&rel) else {
            continue;
        };
        let source = std::fs::read_to_string(root.join(&rel))?;
        records.push(FileRecord::from_source(rel, ctx, &source));
    }
    Ok(records)
}

/// Runs both analysis phases over loaded records (no I/O).
pub fn lint_files(files: &mut [FileRecord], cfg: &LintConfig) -> Report {
    let mut report = Report {
        files_checked: files.len(),
        ..Report::default()
    };

    // Phase 1: per-file token rules.
    for rec in files.iter_mut() {
        report.diagnostics.extend(rules::lint_lines(
            &rec.rel,
            &rec.lines,
            &rec.ctx,
            cfg,
            &mut rec.pragmas,
        ));
    }

    // Phase 2: cross-crate taint rules.
    report.diagnostics.extend(taint::analyze(files, cfg));

    // W1: pragmas no rule in either phase consulted.
    for rec in files.iter() {
        for entry in rec.pragmas.stale() {
            report.warnings.push(Diagnostic {
                file: rec.rel.clone(),
                line: entry.line + 1,
                rule: Rule::StalePragma,
                message: format!(
                    "pragma `allow({})` suppresses no diagnostic and audits no \
                     taint source; delete it",
                    entry.keys.join(", ")
                ),
            });
        }
    }

    report
        .diagnostics
        .sort_by(|a, b| diag_key(a).cmp(&diag_key(b)));
    report
        .warnings
        .sort_by(|a, b| diag_key(a).cmp(&diag_key(b)));
    report
}

/// Lints every `.rs` file under `root` and returns the aggregated report.
pub fn lint_workspace(root: &Path, cfg: &LintConfig) -> std::io::Result<Report> {
    let mut files = load_workspace(root)?;
    Ok(lint_files(&mut files, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(path: &str) -> Option<FileContext> {
        classify_path(Path::new(path))
    }

    #[test]
    fn classify_crate_lib_files() {
        let c = ctx("crates/search/src/flood.rs").unwrap();
        assert_eq!(c.crate_name, "search");
        assert_eq!(c.kind, FileKind::Lib);
        assert!(!c.is_crate_root);
    }

    #[test]
    fn classify_crate_roots() {
        assert!(ctx("crates/overlay/src/lib.rs").unwrap().is_crate_root);
        assert!(ctx("crates/xtask/src/main.rs").unwrap().is_crate_root);
        assert!(ctx("src/lib.rs").unwrap().is_crate_root);
        assert!(!ctx("crates/overlay/src/graph.rs").unwrap().is_crate_root);
    }

    #[test]
    fn classify_test_dirs() {
        assert_eq!(
            ctx("crates/util/tests/prop_rng.rs").unwrap().kind,
            FileKind::Test
        );
        assert_eq!(ctx("tests/determinism.rs").unwrap().kind, FileKind::Test);
        assert_eq!(
            ctx("crates/bench/benches/flood.rs").unwrap().kind,
            FileKind::Test
        );
        assert_eq!(ctx("examples/figure8.rs").unwrap().kind, FileKind::Test);
    }

    #[test]
    fn classify_root_package() {
        let c = ctx("src/figures.rs").unwrap();
        assert_eq!(c.crate_name, "qcp2p");
        assert_eq!(c.kind, FileKind::Lib);
    }

    #[test]
    fn classify_skips_fixtures_and_target() {
        assert!(ctx("crates/xtask/fixtures/bad_nondet.rs").is_none());
        assert!(ctx("target/debug/build/foo.rs").is_none());
    }

    #[test]
    fn summary_json_is_stable() {
        let report = Report {
            files_checked: 3,
            ..Report::default()
        };
        assert_eq!(
            report.summary_json(),
            "{\"files\":3,\"violations\":0,\"warnings\":0,\"baselined\":0,\"rules\":{}}"
        );
    }

    #[test]
    fn report_json_escapes_and_orders() {
        let mut report = Report {
            files_checked: 1,
            ..Report::default()
        };
        report.diagnostics.push(Diagnostic {
            file: PathBuf::from("crates/a/src/x.rs"),
            line: 3,
            rule: Rule::Nondet,
            message: "uses `thread_rng`\"quoted\"".to_string(),
        });
        report.warnings.push(Diagnostic {
            file: PathBuf::from("crates/a/src/x.rs"),
            line: 1,
            rule: Rule::StalePragma,
            message: "stale".to_string(),
        });
        let json = report.report_json();
        assert!(json.contains("\\\"quoted\\\""));
        // The line-1 warning sorts before the line-3 violation.
        let w = json.find("stale-pragma").unwrap();
        let v = json.find("\"rule\":\"nondet\"").unwrap();
        assert!(w < v);
        assert!(json.contains("\"level\":\"warning\""));
        assert!(json.contains("\"level\":\"error\""));
    }

    #[test]
    fn baseline_round_trip_and_stale_entries() {
        let mut report = Report {
            files_checked: 1,
            ..Report::default()
        };
        report.diagnostics.push(Diagnostic {
            file: PathBuf::from("crates/a/src/x.rs"),
            line: 7,
            rule: Rule::PanicReachable,
            message: "m".to_string(),
        });
        let text = Baseline::render(&report);
        assert!(text.contains("crates/a/src/x.rs:7: panic-reachable"));

        // The rendered baseline suppresses exactly that finding.
        let baseline = Baseline::parse(&text);
        baseline.apply(&mut report);
        assert!(report.diagnostics.is_empty());
        assert_eq!(report.baselined, 1);
        assert!(report.warnings.is_empty());

        // A leftover entry becomes a stale-baseline warning.
        let mut fresh = Report::default();
        baseline.apply(&mut fresh);
        assert_eq!(fresh.warnings.len(), 1);
        assert_eq!(fresh.warnings[0].rule, Rule::StaleBaseline);
    }
}
