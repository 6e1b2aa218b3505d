//! `repro bench` — the perf-trajectory harness for the Figure-8 hot path.
//!
//! Times the **reference** TTL sweep (one full flood per `(trial, TTL)`)
//! against the **hop-census** sweep (one BFS per trial, every TTL point
//! reconstructed from prefix snapshots) on the Figure-8 topology, fault-
//! free and under a lossy/churny plan, over 1- and 4-thread pools. Both
//! paths consume the same trial stream, so their outputs are asserted
//! bitwise-equal before any wall-time is reported: a speedup over
//! different numbers would be meaningless.
//!
//! Output: `BENCH_fig8.json` under the session's out-dir — the repo's
//! first perf-trajectory artifact. The harness **fails** (and with it CI)
//! if the census sweep comes out slower than the reference sweep on any
//! timed configuration.
//!
//! `--scale smoke` (alias of `test`) times the 4,000-node config only —
//! cheap enough for CI; `--scale paper` times the 4,000-node smoke config
//! *and* the paper's 40,000-node, 10,000-trial sweep.

use crate::{figures::fig8_topology, Repro, Scale};
use qcp_core::faults::{FaultConfig, FaultPlan};
use qcp_core::overlay::topology::gnutella_two_tier;
use qcp_core::overlay::{
    sweep_reference, sweep_ttl, sweep_ttl_faulty, Placement, PlacementModel, SimConfig,
};
use qcp_core::xpar::Pool;
use std::fmt::Write as _;
use std::time::Instant;

/// The benchmarked TTL schedule: the 8-point curve from the issue — one
/// census ball at TTL 8 replaces eight expanding reference balls.
pub const BENCH_TTLS: [u32; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Wall-times for one `(scale, threads)` configuration.
#[derive(Debug, Clone)]
pub struct SweepTiming {
    /// Scale label (`"smoke"`, `"default"`, `"paper"`).
    pub scale: &'static str,
    /// Pool width used.
    pub threads: usize,
    /// Overlay size.
    pub nodes: usize,
    /// Trials per curve.
    pub trials: usize,
    /// Reference fault-free sweep (one flood per trial × TTL), seconds.
    pub reference_secs: f64,
    /// Census fault-free sweep (one flood per trial), seconds.
    pub census_secs: f64,
    /// Reference faulty sweep, seconds.
    pub faulty_reference_secs: f64,
    /// Census faulty sweep, seconds.
    pub faulty_census_secs: f64,
}

impl SweepTiming {
    /// Fault-free census speedup (reference time / census time).
    pub fn speedup(&self) -> f64 {
        self.reference_secs / self.census_secs
    }

    /// Faulty census speedup.
    pub fn faulty_speedup(&self) -> f64 {
        self.faulty_reference_secs / self.faulty_census_secs
    }
}

/// Times one configuration, asserting census == reference bitwise first.
fn time_config(r: &Repro, scale: Scale, label: &'static str, threads: usize) -> SweepTiming {
    let topo = gnutella_two_tier(&fig8_topology(scale));
    let forwarders = topo.forwarders();
    let n = topo.graph.num_nodes();
    let trials = if scale == r.scale {
        r.trials
    } else {
        Repro::new(&r.out_dir, scale).trials
    };
    let sim = SimConfig {
        trials,
        seed: r.seed,
        ..Default::default()
    };
    let placement = Placement::generate(
        PlacementModel::ZipfReplicas { tau: 2.05 },
        n as u32,
        (n as u32 / 2).max(1_000),
        r.seed ^ 0x21f,
    );
    let plan = FaultPlan::build(
        n,
        &FaultConfig {
            loss: 0.05,
            churn: 0.10,
            horizon: trials as u64,
            mean_latency: 2,
            rejoin: true,
            seed: r.seed ^ 0xbe9c,
        },
    );
    let pool = Pool::new(threads);

    // qcplint: allow(nondet) — wall-clock is the bench's measurand; it
    // times seeded sweeps and never feeds back into simulation results.
    let t0 = Instant::now();
    let reference = sweep_reference(
        &pool,
        &topo.graph,
        &placement,
        Some(&forwarders),
        &BENCH_TTLS,
        &sim,
        None,
    );
    let reference_secs = t0.elapsed().as_secs_f64();

    // qcplint: allow(nondet) — wall-clock timing only, see above.
    let t0 = Instant::now();
    let census = sweep_ttl(
        &pool,
        &topo.graph,
        &placement,
        Some(&forwarders),
        &BENCH_TTLS,
        &sim,
    );
    let census_secs = t0.elapsed().as_secs_f64();

    // A speedup between *different* answers is meaningless: pin first.
    assert_eq!(
        reference.len(),
        census.len(),
        "census and reference sweeps must cover the same TTLs"
    );
    for (c, f) in census.iter().zip(&reference) {
        assert_eq!(
            c.success_rate.to_bits(),
            f.success_rate.to_bits(),
            "census diverged from reference at ttl {}",
            c.ttl
        );
        assert_eq!(c.mean_messages.to_bits(), f.mean_messages.to_bits());
    }

    // qcplint: allow(nondet) — wall-clock timing only, see above.
    let t0 = Instant::now();
    let faulty_reference = sweep_reference(
        &pool,
        &topo.graph,
        &placement,
        Some(&forwarders),
        &BENCH_TTLS,
        &sim,
        Some(&plan),
    );
    let faulty_reference_secs = t0.elapsed().as_secs_f64();

    // qcplint: allow(nondet) — wall-clock timing only, see above.
    let t0 = Instant::now();
    let faulty_census = sweep_ttl_faulty(
        &pool,
        &topo.graph,
        &placement,
        Some(&forwarders),
        &BENCH_TTLS,
        &sim,
        &plan,
    );
    let faulty_census_secs = t0.elapsed().as_secs_f64();

    for (c, f) in faulty_census.iter().zip(&faulty_reference) {
        assert_eq!(
            c.success_rate.to_bits(),
            f.success_rate.to_bits(),
            "faulty census diverged from reference at ttl {}",
            c.ttl
        );
        assert_eq!(c.stats, f.stats, "ttl {}", c.ttl);
    }

    SweepTiming {
        scale: label,
        threads,
        nodes: n,
        trials,
        reference_secs,
        census_secs,
        faulty_reference_secs,
        faulty_census_secs,
    }
}

/// A finite `f64` as a JSON number; NaN/inf as `null`.
fn jf(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".into()
    }
}

/// Hand-written JSON for the timing entries (the workspace vendors no
/// serde); schema mirrors `fig8_churn.json`'s flat style.
fn timings_json(r: &Repro, entries: &[SweepTiming]) -> String {
    let mut s = String::new();
    let ttls: Vec<String> = BENCH_TTLS.iter().map(|t| t.to_string()).collect();
    let _ = write!(
        s,
        "{{\n  \"bench\": \"fig8\",\n  \"kernel\": \"hop-census vs per-TTL reference\",\n  \
         \"seed\": {},\n  \"ttls\": [{}],\n  \"entries\": [",
        r.seed,
        ttls.join(", ")
    );
    for (i, t) in entries.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\n    {{\"scale\": \"{}\", \"threads\": {}, \"nodes\": {}, \"trials\": {}, \
             \"reference_secs\": {}, \"census_secs\": {}, \"speedup\": {}, \
             \"faulty_reference_secs\": {}, \"faulty_census_secs\": {}, \"faulty_speedup\": {}}}",
            t.scale,
            t.threads,
            t.nodes,
            t.trials,
            jf(t.reference_secs),
            jf(t.census_secs),
            jf(t.speedup()),
            jf(t.faulty_reference_secs),
            jf(t.faulty_census_secs),
            jf(t.faulty_speedup()),
        );
    }
    s.push_str("\n  ]\n}\n");
    s
}

/// Runs the bench matrix for the session's scale, writes
/// `BENCH_fig8.json`, and returns the report. Panics (failing CI) if the
/// census sweep is slower than the reference sweep anywhere.
pub fn bench(r: &Repro) -> String {
    let scales: Vec<(Scale, &'static str)> = match r.scale {
        Scale::Test => vec![(Scale::Test, "smoke")],
        Scale::Default => vec![(Scale::Test, "smoke"), (Scale::Default, "default")],
        Scale::Paper => vec![(Scale::Test, "smoke"), (Scale::Paper, "paper")],
    };
    let mut entries = Vec::new();
    for &(scale, label) in &scales {
        for threads in [1usize, 4] {
            let t = time_config(r, scale, label, threads);
            eprintln!(
                "bench: {label} x{threads}: reference {:.3}s census {:.3}s ({:.2}x), \
                 faulty {:.3}s vs {:.3}s ({:.2}x)",
                t.reference_secs,
                t.census_secs,
                t.speedup(),
                t.faulty_reference_secs,
                t.faulty_census_secs,
                t.faulty_speedup(),
            );
            entries.push(t);
        }
    }

    let json = timings_json(r, &entries);
    std::fs::create_dir_all(&r.out_dir)
        // qcplint: allow(panic) — artifact write failure is fatal by design.
        .unwrap_or_else(|e| panic!("failed creating {}: {e}", r.out_dir.display()));
    let path = r.out_dir.join("BENCH_fig8.json");
    std::fs::write(&path, &json)
        // qcplint: allow(panic) — artifact write failure is fatal by design.
        .unwrap_or_else(|e| panic!("failed writing {}: {e}", path.display()));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig-8 sweep bench — {} TTLs, census (one BFS/trial) vs reference (one BFS/trial/TTL)",
        BENCH_TTLS.len()
    );
    let _ = writeln!(
        out,
        "{:<8} {:>7} {:>8} {:>7} {:>10} {:>10} {:>8} {:>10} {:>10} {:>8}",
        "scale",
        "threads",
        "nodes",
        "trials",
        "ref_s",
        "census_s",
        "speedup",
        "f_ref_s",
        "f_census_s",
        "speedup"
    );
    for t in &entries {
        let _ = writeln!(
            out,
            "{:<8} {:>7} {:>8} {:>7} {:>10.3} {:>10.3} {:>7.2}x {:>10.3} {:>10.3} {:>7.2}x",
            t.scale,
            t.threads,
            t.nodes,
            t.trials,
            t.reference_secs,
            t.census_secs,
            t.speedup(),
            t.faulty_reference_secs,
            t.faulty_census_secs,
            t.faulty_speedup(),
        );
    }
    let _ = writeln!(out, "wrote {}", path.display());

    // The perf gate: the whole point of the census kernel is that one BFS
    // beats eight. A regression here must fail loudly.
    for t in &entries {
        assert!(
            t.census_secs <= t.reference_secs,
            "census sweep slower than reference on {} x{} ({:.3}s vs {:.3}s)",
            t.scale,
            t.threads,
            t.census_secs,
            t.reference_secs
        );
        assert!(
            t.faulty_census_secs <= t.faulty_reference_secs,
            "faulty census sweep slower than reference on {} x{} ({:.3}s vs {:.3}s)",
            t.scale,
            t.threads,
            t.faulty_census_secs,
            t.faulty_reference_secs
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_is_a_plain_ratio() {
        let t = SweepTiming {
            scale: "smoke",
            threads: 1,
            nodes: 4_000,
            trials: 300,
            reference_secs: 4.0,
            census_secs: 1.0,
            faulty_reference_secs: 6.0,
            faulty_census_secs: 2.0,
        };
        assert_eq!(t.speedup(), 4.0);
        assert_eq!(t.faulty_speedup(), 3.0);
    }

    #[test]
    fn json_shape_is_parsable_enough() {
        let r = Repro::new(std::env::temp_dir().join("qcp-bench-json"), Scale::Test);
        let t = SweepTiming {
            scale: "smoke",
            threads: 4,
            nodes: 4_000,
            trials: 300,
            reference_secs: 1.5,
            census_secs: 0.5,
            faulty_reference_secs: 2.5,
            faulty_census_secs: 1.0,
        };
        let json = timings_json(&r, &[t]);
        assert!(json.contains("\"bench\": \"fig8\""));
        assert!(json.contains("\"speedup\": 3.000000"));
        assert!(json.contains("\"threads\": 4"));
        // Balanced braces/brackets (a cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
