//! `qcp-bench` — figure/table regeneration.
//!
//! The [`Repro`] session regenerates every figure and (virtual) table of
//! the paper into CSV files plus terminal-rendered ASCII plots. Layer-by-
//! layer timing lives in the standalone `perfbench/` package.
//!
//! ```text
//! cargo run --release -p qcp-bench --bin repro -- all
//! cargo run --release -p qcp-bench --bin repro -- fig8 --trials 2000
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod fig8churn;
pub mod fig8repl;
pub mod figures;
pub mod latency;
pub mod overload;
pub mod profile;
pub mod rows;
pub mod scale;
pub mod soak;

/// Domain tag for per-cell fault-plan seeds. `fig8churn` and `soak`
/// share it *deliberately*: the soak experiment's per-cell flood
/// baseline must run against the exact fault plan the churn grid used,
/// so its round-0 curves are comparable with Figure 8.
pub(crate) const FAULT_PLAN_TAG: u64 = 0xf8c0;

use qcp_core::{AnalyzerConfig, Findings, QueryCentricAnalyzer};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Scale preset for a repro run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Sub-second sanity scale.
    Test,
    /// The default reporting scale (tens of seconds end-to-end).
    Default,
    /// The paper's raw trace sizes (minutes of CPU, gigabytes of RAM).
    Paper,
}

impl Scale {
    /// Parses a `--scale` argument (`smoke` is an alias of `test`,
    /// matching the CI smoke gates' vocabulary).
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "test" | "smoke" => Some(Scale::Test),
            "default" => Some(Scale::Default),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The analyzer configuration for this scale.
    pub fn analyzer_config(self) -> AnalyzerConfig {
        match self {
            Scale::Test => AnalyzerConfig::test_scale(),
            Scale::Default => AnalyzerConfig::default_scale(),
            Scale::Paper => AnalyzerConfig::paper_scale(),
        }
    }
}

/// A repro session: shared traces/findings plus an output directory.
///
/// Figures 1–7 all derive from one analyzer run, computed lazily and
/// cached so `repro all` pays for trace generation once.
pub struct Repro {
    /// Output directory for CSVs.
    pub out_dir: PathBuf,
    /// Scale preset.
    pub scale: Scale,
    /// Trial count for simulation figures (Figure 8, tables, ablations).
    pub trials: usize,
    /// Base seed.
    pub seed: u64,
    /// Include the 10M-node rung in `repro scale` (`--huge`).
    pub huge: bool,
    findings: OnceLock<Findings>,
}

impl Repro {
    /// Creates a session writing CSVs under `out_dir`.
    pub fn new<P: AsRef<Path>>(out_dir: P, scale: Scale) -> Self {
        Self {
            out_dir: out_dir.as_ref().to_path_buf(),
            scale,
            trials: match scale {
                Scale::Test => 300,
                Scale::Default => 2_000,
                Scale::Paper => 10_000,
            },
            seed: 2024,
            huge: false,
            findings: OnceLock::new(),
        }
    }

    /// The shared Figures-1..7 findings (computed on first use).
    pub fn findings(&self) -> &Findings {
        self.findings.get_or_init(|| {
            let config = self.scale.analyzer_config().with_seed(self.seed);
            QueryCentricAnalyzer::new(config).run()
        })
    }

    /// Writes a table as `<name>.csv` under the output directory and
    /// returns its path.
    pub fn write_csv(&self, name: &str, table: &qcp_core::util::Table) -> PathBuf {
        let path = self.out_dir.join(format!("{name}.csv"));
        table
            .write_csv(&path)
            // qcplint: allow(panic) — artifact write failure is fatal by design.
            .unwrap_or_else(|e| panic!("failed writing {}: {e}", path.display()));
        path
    }

    /// Runs one named artifact; returns the rendered report.
    pub fn run(&self, what: &str) -> String {
        let artifact = Artifact::find(what)
            // qcplint: allow(panic) — CLI contract: unknown ids fail fast.
            .unwrap_or_else(|| panic!("unknown artifact '{what}'"));
        (artifact.run)(self)
    }

    /// Every `repro all` artifact id, in report order (the registry
    /// entries that opt in; `scale` stays manual-only).
    pub fn all_artifacts() -> Vec<&'static str> {
        ARTIFACTS
            .iter()
            .filter(|a| a.in_all)
            .map(|a| a.name)
            .collect()
    }
}

/// One registered repro artifact: CLI id, one-line description for
/// `repro list`, whether `repro all` includes it, and its entry point.
///
/// `Repro::run`, `Repro::all_artifacts`, `repro list` and the CLI usage
/// string all derive from the [`ARTIFACTS`] table — adding an artifact
/// is one row here, nothing else.
pub struct Artifact {
    /// CLI id (`repro <name>`).
    pub name: &'static str,
    /// One-line description shown by `repro list`.
    pub description: &'static str,
    /// Whether `repro all` runs it (`scale` opts out: it is a memory
    /// ladder, not a figure regeneration).
    pub in_all: bool,
    /// Runs the artifact against a session; returns the rendered report.
    pub run: fn(&Repro) -> String,
}

impl Artifact {
    /// Looks up a registry entry by CLI id.
    pub fn find(name: &str) -> Option<&'static Artifact> {
        ARTIFACTS.iter().find(|a| a.name == name)
    }
}

/// The artifact registry, in report order.
pub const ARTIFACTS: &[Artifact] = &[
    Artifact {
        name: "fig1",
        description: "replication of raw object names (clients per object)",
        in_all: true,
        run: figures::fig1,
    },
    Artifact {
        name: "fig2",
        description: "replication of sanitized object names (clients per object)",
        in_all: true,
        run: figures::fig2,
    },
    Artifact {
        name: "fig3",
        description: "replication of name terms (clients per term)",
        in_all: true,
        run: figures::fig3,
    },
    Artifact {
        name: "fig4",
        description: "iTunes annotation fields: song, genre, album, artist",
        in_all: true,
        run: figures::fig4,
    },
    Artifact {
        name: "fig5",
        description: "transiently popular query terms per interval",
        in_all: true,
        run: figures::fig5,
    },
    Artifact {
        name: "fig6",
        description: "stability of the popular query-term set (Jaccard)",
        in_all: true,
        run: figures::fig6,
    },
    Artifact {
        name: "fig7",
        description: "query/file term mismatch (Jaccard vs popular file terms)",
        in_all: true,
        run: figures::fig7,
    },
    Artifact {
        name: "fig8",
        description: "flood success vs TTL: uniform-k and Zipf placement",
        in_all: true,
        run: figures::fig8,
    },
    Artifact {
        name: "fig8-churn",
        description: "Figure-8 flood under loss x churn fault grid",
        in_all: true,
        run: fig8churn::fig8_churn,
    },
    Artifact {
        name: "fig8-repl",
        description: "Figure-8 counterfactual: replication scheme x budget grid",
        in_all: true,
        run: fig8repl::fig8_repl,
    },
    Artifact {
        name: "soak",
        description: "churn/repair soak loop with recovery curves",
        in_all: true,
        run: soak::soak,
    },
    Artifact {
        name: "table1",
        description: "trace summary statistics",
        in_all: true,
        run: figures::table1,
    },
    Artifact {
        name: "table2",
        description: "query categories and hit rates",
        in_all: true,
        run: figures::table2,
    },
    Artifact {
        name: "table3",
        description: "system comparison: success and message cost",
        in_all: true,
        run: figures::table3,
    },
    Artifact {
        name: "ablation-synopsis",
        description: "synopsis policy ablation (content- vs query-centric)",
        in_all: true,
        run: ablations::synopsis,
    },
    Artifact {
        name: "ablation-gia",
        description: "Gia capacity-ladder ablation",
        in_all: true,
        run: ablations::gia,
    },
    Artifact {
        name: "ablation-mismatch",
        description: "query/file mismatch strength ablation",
        in_all: true,
        run: ablations::mismatch,
    },
    Artifact {
        name: "ablation-topology",
        description: "topology generator ablation",
        in_all: true,
        run: ablations::topology,
    },
    Artifact {
        name: "ablation-walk",
        description: "walker count/TTL ablation",
        in_all: true,
        run: ablations::walk,
    },
    Artifact {
        name: "ablation-churn",
        description: "churn-rate ablation",
        in_all: true,
        run: ablations::churn,
    },
    Artifact {
        name: "ablation-structured",
        description: "structured (DHT) baseline ablation",
        in_all: true,
        run: ablations::structured,
    },
    Artifact {
        name: "ablation-adaptation",
        description: "adaptive synopsis re-weighting ablation",
        in_all: true,
        run: ablations::adaptation,
    },
    Artifact {
        name: "profile",
        description: "hot-path profile of the Figure-8 kernels",
        in_all: true,
        run: profile::profile,
    },
    Artifact {
        name: "latency",
        description: "deadline grid on the virtual-time engine",
        in_all: true,
        run: latency::latency,
    },
    Artifact {
        name: "overload",
        description: "capacity/admission/shedding grid",
        in_all: true,
        run: overload::overload,
    },
    Artifact {
        name: "scale",
        description: "million-node scale ladder (--huge adds 10M)",
        in_all: false,
        run: scale::scale,
    },
];

/// Formats a `(rank, count)` series as a `rank,value` CSV table.
pub fn rank_table(series: &[(u64, u64)], value_name: &str) -> qcp_core::util::Table {
    let mut t = qcp_core::util::Table::new(["rank", value_name]);
    for &(rank, v) in series {
        t.row_fmt([rank, v]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses() {
        assert_eq!(Scale::parse("test"), Some(Scale::Test));
        assert_eq!(Scale::parse("smoke"), Some(Scale::Test));
        assert_eq!(Scale::parse("default"), Some(Scale::Default));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn findings_are_cached() {
        let r = Repro::new(std::env::temp_dir().join("qcp-repro-test"), Scale::Test);
        let a = r.findings() as *const _;
        let b = r.findings() as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn rank_table_shapes() {
        let t = rank_table(&[(1, 10), (2, 5)], "clients");
        assert_eq!(t.len(), 2);
        assert!(t.to_csv().starts_with("rank,clients\n1,10\n"));
    }

    #[test]
    fn artifact_registry_is_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for a in ARTIFACTS {
            assert!(seen.insert(a.name), "duplicate artifact id {}", a.name);
            assert!(!a.description.is_empty(), "{} needs a description", a.name);
        }
        // The scale ladder stays out of `repro all`.
        assert!(!Artifact::find("scale").unwrap().in_all);
        assert!(Repro::all_artifacts().contains(&"fig8-repl"));
        assert!(Artifact::find("no-such-artifact").is_none());
    }
}
