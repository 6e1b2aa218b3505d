//! Self-tests of the benchmark binary at a tiny world size.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["fig8-sweep", "churn-repair", "query-mix", "trace-analysis"];

/// What one run printed: the digest from the run line and the result line.
struct Run {
    digest: String,
    result: String,
}

impl Run {
    fn field(&self, key: &str) -> String {
        let at = self.result.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
        self.result[at..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric())
            .collect()
    }

    fn failed(&self) -> u64 {
        self.field("failed").parse().unwrap()
    }

    fn correct(&self) -> bool {
        self.field("correct") == "true"
    }

    /// Metric names in the result line.
    fn metrics(&self) -> Vec<String> {
        let body = &self.result[self.result.find("\"metrics\": {").unwrap() + 12..];
        body.split("}, ")
            .filter_map(|m| {
                m.trim_start_matches('{')
                    .split('"')
                    .nth(1)
                    .map(String::from)
            })
            .collect()
    }

    fn value(&self, metric: &str) -> f64 {
        let key = format!("\"{metric}\": {{\"value\": ");
        let rest = &self.result[self.result.find(&key).expect(metric) + key.len()..];
        rest[..rest.find(',').unwrap()].parse().unwrap()
    }
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--size", "tiny", "--ops", "6"])
        .args(extra)
        .output()
        .expect("run perfbench");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    let run_line = lines[lines.len() - 2];
    Run {
        digest: run_line.split("digest=").nth(1).unwrap().to_string(),
        result: lines[lines.len() - 1].to_string(),
    }
}

#[test]
fn same_seed_runs_agree_and_pass_every_check() {
    for w in WORKLOADS {
        let a = run(w, false, &[]);
        let b = run(w, false, &[]);
        assert_eq!(a.failed(), 0, "{w}: {}", a.result);
        assert!(a.correct(), "{w}");
        assert_eq!(a.digest, b.digest, "{w}: same seed, different outputs");
    }
}

#[test]
fn injected_violation_is_a_failed_op() {
    for w in WORKLOADS {
        let r = run(w, false, &["--inject-violation", "4"]);
        assert_eq!(r.failed(), 1, "{w}: {}", r.result);
        assert!(!r.correct(), "{w}");
    }
}

#[test]
fn tracing_changes_no_output_and_covers_the_ops() {
    for w in WORKLOADS {
        let plain = run(w, false, &[]);
        let traced = run(w, true, &[]);
        assert_eq!(traced.failed(), 0, "{w}: {}", traced.result);
        assert_eq!(plain.digest, traced.digest, "{w}: tracing changed outputs");
        assert!(
            traced.value("obs.coverage") >= 0.9,
            "{w}: {}",
            traced.result
        );
    }
}

/// Every metric a run prints is declared in BENCHMARK.json, and every
/// declared metric is printed.
#[test]
fn printed_metrics_match_the_declaration() {
    let decl = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to perfbench/");
    let section = |key: &str| -> Vec<String> {
        let start = decl.find(&format!("\"{key}\"")).expect(key);
        let end = start + decl[start..].find(']').unwrap();
        decl[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .collect()
    };
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let mut declared = section(key);
        declared.sort();
        let mut printed = run("fig8-sweep", trace, &[]).metrics();
        printed.sort();
        assert_eq!(printed, declared, "{key}");
    }
    let mut workloads = section("workloads");
    workloads.sort();
    let mut known = WORKLOADS.map(String::from).to_vec();
    known.sort();
    assert_eq!(workloads, known);
}
