//! `repro` — regenerate every figure and table of the paper.
//!
//! ```text
//! repro [--scale test|smoke|default|paper] [--out DIR] [--trials N] [--seed S] [--huge] ARTIFACT...
//! repro all
//! repro scale --scale smoke   # scale ladder + scale.{csv,json} + BENCH_scale.json
//! repro list
//! ```
//!
//! The artifact set (ids, descriptions, `all` membership) comes from the
//! declarative registry in `qcp_bench::ARTIFACTS`; `repro list` prints it.
//! `scale` is registered but opts out of `all`.

#![forbid(unsafe_code)]

use qcp_bench::{Repro, Scale, ARTIFACTS};

fn usage() -> ! {
    let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
    eprintln!(
        "usage: repro [--scale test|smoke|default|paper] [--out DIR] [--trials N] [--seed S] [--huge] <artifact>...\n\
         artifacts: {} | all | list",
        names.join(" | ")
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let mut scale = Scale::Default;
    let mut out_dir = "results".to_string();
    let mut trials: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut huge = false;
    let mut artifacts: Vec<String> = Vec::new();

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_else(|| usage());
                scale = Scale::parse(&v).unwrap_or_else(|| usage());
            }
            "--out" => out_dir = args.next().unwrap_or_else(|| usage()),
            "--trials" => {
                trials = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--seed" => {
                seed = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--huge" => huge = true,
            "--help" | "-h" => usage(),
            other => artifacts.push(other.to_string()),
        }
    }
    if artifacts.is_empty() {
        usage();
    }
    if artifacts.iter().any(|a| a == "list") {
        let width = ARTIFACTS.iter().map(|a| a.name.len()).max().unwrap_or(0);
        for a in ARTIFACTS {
            let tag = if a.in_all { "" } else { "  [not in `all`]" };
            println!("{:width$}  {}{tag}", a.name, a.description);
        }
        return;
    }
    if artifacts.iter().any(|a| a == "all") {
        artifacts = Repro::all_artifacts()
            .iter()
            .map(|s| s.to_string())
            .collect();
    }

    let mut session = Repro::new(&out_dir, scale);
    if let Some(t) = trials {
        session.trials = t;
    }
    if let Some(s) = seed {
        session.seed = s;
    }
    session.huge = huge;

    eprintln!(
        "repro: scale={scale:?}, trials={}, seed={}, out={}",
        session.trials,
        session.seed,
        session.out_dir.display()
    );
    for artifact in &artifacts {
        // qcplint: allow(nondet) — reported wall-clock per artifact; never
        // feeds back into simulation results.
        let started = std::time::Instant::now();
        let report = session.run(artifact);
        println!(
            "\n##### {artifact} ({:.1}s) #####",
            started.elapsed().as_secs_f64()
        );
        println!("{report}");
    }
}
