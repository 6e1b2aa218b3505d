//! `repro scale` — the million-node scale artifact.
//!
//! Exercises the memory-proportional trial pipeline end to end at sizes
//! far past the paper's 40,000 nodes: for each rung of a node ladder it
//! streams a two-tier Gnutella graph into CSR form, generates a packed
//! Zipf placement, runs a hop-census TTL sweep over 1- and 4-thread
//! pools, and reports structure sizes in bytes/node (DESIGN.md §13's
//! budget). The sweep is self-asserting: the 1- and 4-thread curves must
//! be bitwise identical, and at the smallest rung the epoch-mark and
//! bitset visited-set representations are pinned equal census by census.
//!
//! Outputs are split by determinism so CI can gate on bytes:
//! `scale.csv` / `scale.json` carry only seed-determined values (node
//! counts, edge counts, structure bytes, census fingerprints) and must
//! be byte-identical across runs; `BENCH_scale.json` adds wall-clock
//! build/census times and the process RSS high-water mark, which are
//! measurements, not reproducible facts.
//!
//! Ladders: `--scale smoke` rungs {4k, 40k} (CI-cheap); `default` and
//! `paper` rungs {40k, 200k, 1M}; `--huge` appends a 10M rung.

use crate::{Repro, Scale};
use qcp_core::obs::NoopRecorder;
use qcp_core::overlay::topology::{gnutella_two_tier, TopologyConfig};
use qcp_core::overlay::{
    sweep_ttl, FloodEngine, FloodSpec, Placement, PlacementModel, SimConfig, SweepPoint,
    VisitedRepr,
};
use qcp_core::xpar::Pool;
use std::fmt::Write as _;
use std::time::Instant;

/// TTL schedule of the census workload (the Figure-8 curve's low rungs —
/// deep enough to blanket the ultrapeer mesh at every ladder size).
pub const SCALE_TTLS: [u32; 5] = [1, 2, 3, 4, 5];

/// The RSS ceiling the 1M-node rung must stay under (acceptance gate).
pub const RSS_LIMIT_BYTES: u64 = 2 << 30;

/// Measurements for one `(nodes, threads)` cell.
#[derive(Debug, Clone)]
pub struct ScaleCell {
    /// Overlay size.
    pub nodes: usize,
    /// Pool width used for the census sweep.
    pub threads: usize,
    /// Trials in the census sweep (a deterministic function of `nodes`).
    pub trials: usize,
    /// Undirected edge count of the generated graph.
    pub edges: usize,
    /// Graph CSR bytes ([`qcp_core::overlay::Graph::mem_bytes`]).
    pub graph_bytes: usize,
    /// Packed placement posting-store bytes.
    pub placement_bytes: usize,
    /// Flood-engine state bytes after the workload (visited set +
    /// frontier capacity).
    pub engine_bytes: usize,
    /// Visited-set representation the default constructor picked.
    pub repr: &'static str,
    /// FNV-1a fold of the census curve's `f64` bit patterns.
    pub census_fingerprint: u64,
    /// Graph + placement build time, seconds (measured once per rung and
    /// shared by its thread cells; excluded from the deterministic files).
    pub build_secs: f64,
    /// Census sweep time, seconds (excluded from the deterministic files).
    pub census_secs: f64,
}

impl ScaleCell {
    /// Deterministic structure bytes per node (graph + placement +
    /// engine).
    pub fn bytes_per_node(&self) -> f64 {
        (self.graph_bytes + self.placement_bytes + self.engine_bytes) as f64 / self.nodes as f64
    }
}

/// Node ladder for a scale preset (`--huge` appends the 10M rung).
pub fn ladder(scale: Scale, huge: bool) -> Vec<usize> {
    let mut rungs = match scale {
        Scale::Test => vec![4_000, 40_000],
        Scale::Default | Scale::Paper => vec![40_000, 200_000, 1_000_000],
    };
    if huge {
        rungs.push(10_000_000);
    }
    rungs
}

/// Census trials per rung: enough for a meaningful fingerprint, scaled
/// down so the biggest rungs stay minutes-cheap. Deterministic in `n`.
fn trials_for(n: usize) -> usize {
    (2_000_000 / n).clamp(8, 64)
}

/// FNV-1a over the curve's `f64` bit patterns — the deterministic census
/// fingerprint written to `scale.{csv,json}` and compared by CI's
/// double-run gate.
fn curve_fingerprint(curve: &[SweepPoint]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for p in curve {
        fold(p.ttl as u64);
        fold(p.success_rate.to_bits());
        fold(p.mean_reached.to_bits());
        fold(p.mean_reach_fraction.to_bits());
        fold(p.mean_messages.to_bits());
    }
    h
}

/// Asserts two sweep curves are bitwise identical, field by field.
fn assert_curves_bitwise_equal(a: &[SweepPoint], b: &[SweepPoint], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: curve lengths differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.ttl, y.ttl, "{what}");
        assert_eq!(
            x.success_rate.to_bits(),
            y.success_rate.to_bits(),
            "{what} at ttl {}",
            x.ttl
        );
        assert_eq!(x.mean_reached.to_bits(), y.mean_reached.to_bits(), "{what}");
        assert_eq!(
            x.mean_reach_fraction.to_bits(),
            y.mean_reach_fraction.to_bits(),
            "{what}"
        );
        assert_eq!(
            x.mean_messages.to_bits(),
            y.mean_messages.to_bits(),
            "{what}"
        );
    }
}

/// The process's resident-set high-water mark, from `/proc/self/status`
/// (`None` off Linux).
fn vm_hwm_bytes() -> Option<u64> {
    // RSS is a measurement reported to BENCH_scale.json only; it never
    // reaches the deterministic outputs.
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Runs the ladder for one session. Split from [`scale`] so tests can
/// drive a small ladder without a `Repro` output directory.
pub fn run_ladder(seed: u64, rungs: &[usize]) -> Vec<ScaleCell> {
    let mut cells = Vec::new();
    for (rung_idx, &n) in rungs.iter().enumerate() {
        // qcplint: allow(nondet) — wall-clock is this artifact's
        // measurand; it is reported in BENCH_scale.json only and never
        // feeds back into simulation results.
        let t0 = Instant::now();
        let topo = gnutella_two_tier(&TopologyConfig {
            num_nodes: n,
            seed: seed ^ 0x5ca1e,
            ..Default::default()
        });
        let placement = Placement::generate(
            PlacementModel::ZipfReplicas { tau: 2.05 },
            n as u32,
            (n as u32 / 2).max(1_000),
            seed ^ 0x21f,
        );
        let build_secs = t0.elapsed().as_secs_f64();
        let forwarders = topo.forwarders();
        let trials = trials_for(n);
        let sim = SimConfig {
            trials,
            seed,
            ..Default::default()
        };

        // At the smallest rung, pin the two visited-set representations
        // against each other — the cheap standing proof that the size
        // threshold can never change results, only footprint.
        if rung_idx == 0 {
            let mut epoch = FloodEngine::with_repr(n, VisitedRepr::EpochMarks);
            let mut bits = FloodEngine::with_repr(n, VisitedRepr::Bitset);
            let max_ttl = SCALE_TTLS[SCALE_TTLS.len() - 1];
            let (spec, fwd) = (FloodSpec::new(max_ttl), Some(forwarders.as_slice()));
            for source in [0u32, (n / 2) as u32, (n - 1) as u32] {
                let (a, _) = epoch.run(&topo.graph, source, &[], fwd, &spec, &mut NoopRecorder);
                let (b, _) = bits.run(&topo.graph, source, &[], fwd, &spec, &mut NoopRecorder);
                assert_eq!(a, b, "visited-set representations diverged at n={n}");
            }
        }

        let mut curves: Vec<(usize, Vec<SweepPoint>, f64)> = Vec::new();
        for threads in [1usize, 4] {
            let pool = Pool::new(threads);
            // qcplint: allow(nondet) — wall-clock timing only, see above.
            let t0 = Instant::now();
            let curve = sweep_ttl(
                &pool,
                &topo.graph,
                &placement,
                Some(&forwarders),
                &SCALE_TTLS,
                &sim,
            );
            let census_secs = t0.elapsed().as_secs_f64();
            curves.push((threads, curve, census_secs));
        }
        let (_, base_curve, _) = &curves[0];
        for (threads, curve, _) in &curves[1..] {
            assert_curves_bitwise_equal(
                base_curve,
                curve,
                &format!("n={n}: 1-thread vs {threads}-thread census"),
            );
        }

        // Engine bytes after a representative workload: one engine, one
        // max-TTL census, so the frontier capacity is the steady-state one.
        let mut engine = FloodEngine::new(n);
        let max_ttl = SCALE_TTLS[SCALE_TTLS.len() - 1];
        let spec = FloodSpec::new(max_ttl);
        let _ = engine.run(
            &topo.graph,
            0,
            &[],
            Some(&forwarders),
            &spec,
            &mut NoopRecorder,
        );
        let repr = match engine.repr() {
            VisitedRepr::EpochMarks => "epoch",
            VisitedRepr::Bitset => "bitset",
        };

        for (threads, curve, census_secs) in &curves {
            cells.push(ScaleCell {
                nodes: n,
                threads: *threads,
                trials,
                edges: topo.graph.num_edges(),
                graph_bytes: topo.graph.mem_bytes(),
                placement_bytes: placement.mem_bytes(),
                engine_bytes: engine.mem_bytes(),
                repr,
                census_fingerprint: curve_fingerprint(curve),
                build_secs,
                census_secs: *census_secs,
            });
        }

        // The acceptance gate: the 1M rung must fit under 2 GiB RSS.
        if n == 1_000_000 {
            if let Some(rss) = vm_hwm_bytes() {
                assert!(
                    rss < RSS_LIMIT_BYTES,
                    "1M-node rung peaked at {rss} bytes RSS (limit {RSS_LIMIT_BYTES})"
                );
            }
        }
    }
    cells
}

/// Deterministic JSON (`scale.json`): seed-determined fields only, so
/// two runs of the same invocation produce byte-identical files.
fn deterministic_json(r: &Repro, cells: &[ScaleCell]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"artifact\": \"scale\",\n  \"seed\": {},\n  \"ttls\": [{}],\n  \"cells\": [",
        r.seed,
        SCALE_TTLS.map(|t| t.to_string()).join(", ")
    );
    for (i, c) in cells.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\n    {{\"nodes\": {}, \"threads\": {}, \"trials\": {}, \"edges\": {}, \
             \"graph_bytes\": {}, \"placement_bytes\": {}, \"engine_bytes\": {}, \
             \"repr\": \"{}\", \"bytes_per_node\": {:.3}, \"census_fingerprint\": \"{:#018x}\"}}",
            c.nodes,
            c.threads,
            c.trials,
            c.edges,
            c.graph_bytes,
            c.placement_bytes,
            c.engine_bytes,
            c.repr,
            c.bytes_per_node(),
            c.census_fingerprint,
        );
    }
    s.push_str("\n  ]\n}\n");
    s
}

/// Timing JSON (`BENCH_scale.json`): the deterministic fields plus
/// wall-clock build/census seconds and the RSS high-water mark.
fn bench_json(r: &Repro, cells: &[ScaleCell]) -> String {
    let mut s = String::new();
    let rss = vm_hwm_bytes()
        .map(|b| b.to_string())
        .unwrap_or_else(|| "null".into());
    let _ = write!(
        s,
        "{{\n  \"bench\": \"scale\",\n  \"seed\": {},\n  \"vm_hwm_bytes\": {rss},\n  \
         \"rss_limit_bytes\": {RSS_LIMIT_BYTES},\n  \"cells\": [",
        r.seed,
    );
    for (i, c) in cells.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\n    {{\"nodes\": {}, \"threads\": {}, \"trials\": {}, \"edges\": {}, \
             \"graph_bytes\": {}, \"placement_bytes\": {}, \"engine_bytes\": {}, \
             \"repr\": \"{}\", \"bytes_per_node\": {:.3}, \"census_fingerprint\": \"{:#018x}\", \
             \"build_secs\": {:.6}, \"census_secs\": {:.6}}}",
            c.nodes,
            c.threads,
            c.trials,
            c.edges,
            c.graph_bytes,
            c.placement_bytes,
            c.engine_bytes,
            c.repr,
            c.bytes_per_node(),
            c.census_fingerprint,
            c.build_secs,
            c.census_secs,
        );
    }
    s.push_str("\n  ]\n}\n");
    s
}

/// Runs the scale ladder, writes `scale.{csv,json}` (deterministic) and
/// `BENCH_scale.json` (timed), and returns the report.
pub fn scale(r: &Repro) -> String {
    let rungs = ladder(r.scale, r.huge);
    let cells = run_ladder(r.seed, &rungs);

    let mut table = qcp_core::util::Table::new([
        "nodes",
        "threads",
        "trials",
        "edges",
        "graph_bytes",
        "placement_bytes",
        "engine_bytes",
        "repr",
        "bytes_per_node",
        "census_fingerprint",
    ]);
    for c in &cells {
        table.row([
            c.nodes.to_string(),
            c.threads.to_string(),
            c.trials.to_string(),
            c.edges.to_string(),
            c.graph_bytes.to_string(),
            c.placement_bytes.to_string(),
            c.engine_bytes.to_string(),
            c.repr.to_string(),
            format!("{:.3}", c.bytes_per_node()),
            format!("{:#018x}", c.census_fingerprint),
        ]);
    }
    let csv_path = r.write_csv("scale", &table);
    let json_path = r.out_dir.join("scale.json");
    std::fs::write(&json_path, deterministic_json(r, &cells))
        // qcplint: allow(panic) — artifact write failure is fatal by design.
        .unwrap_or_else(|e| panic!("failed writing {}: {e}", json_path.display()));
    let bench_path = r.out_dir.join("BENCH_scale.json");
    std::fs::write(&bench_path, bench_json(r, &cells))
        // qcplint: allow(panic) — artifact write failure is fatal by design.
        .unwrap_or_else(|e| panic!("failed writing {}: {e}", bench_path.display()));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Scale ladder — streaming CSR build + hop-census sweep, {} TTLs, threads {{1, 4}}",
        SCALE_TTLS.len()
    );
    let _ = writeln!(
        out,
        "{:<9} {:>7} {:>6} {:>9} {:>7} {:>8} {:>9} {:>9}",
        "nodes", "threads", "repr", "edges", "B/node", "build_s", "census_s", "fingerprint"
    );
    for c in &cells {
        let _ = writeln!(
            out,
            "{:<9} {:>7} {:>6} {:>9} {:>7.1} {:>8.3} {:>9.3}  {:#018x}",
            c.nodes,
            c.threads,
            c.repr,
            c.edges,
            c.bytes_per_node(),
            c.build_secs,
            c.census_secs,
            c.census_fingerprint,
        );
    }
    if let Some(rss) = vm_hwm_bytes() {
        let _ = writeln!(
            out,
            "peak RSS {:.1} MiB (limit {} MiB at the 1M rung)",
            rss as f64 / (1 << 20) as f64,
            RSS_LIMIT_BYTES >> 20
        );
    }
    let _ = writeln!(out, "wrote {}", csv_path.display());
    let _ = writeln!(out, "wrote {}", json_path.display());
    let _ = writeln!(out, "wrote {}", bench_path.display());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladders_follow_the_presets() {
        assert_eq!(ladder(Scale::Test, false), vec![4_000, 40_000]);
        assert_eq!(
            ladder(Scale::Default, false),
            vec![40_000, 200_000, 1_000_000]
        );
        assert_eq!(
            ladder(Scale::Paper, true),
            vec![40_000, 200_000, 1_000_000, 10_000_000]
        );
    }

    #[test]
    fn trials_scale_down_with_nodes_deterministically() {
        assert_eq!(trials_for(4_000), 64);
        assert_eq!(trials_for(40_000), 50);
        assert_eq!(trials_for(200_000), 10);
        assert_eq!(trials_for(1_000_000), 8);
        assert_eq!(trials_for(10_000_000), 8);
    }

    #[test]
    fn tiny_ladder_cells_are_deterministic_and_thread_invariant() {
        // Two independent runs of a minimal rung must agree on every
        // deterministic field — the property CI's double-run gate checks
        // at the file level.
        let a = run_ladder(2024, &[4_000]);
        let b = run_ladder(2024, &[4_000]);
        assert_eq!(a.len(), 2, "one cell per pool width");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.nodes, y.nodes);
            assert_eq!(x.threads, y.threads);
            assert_eq!(x.edges, y.edges);
            assert_eq!(x.graph_bytes, y.graph_bytes);
            assert_eq!(x.placement_bytes, y.placement_bytes);
            assert_eq!(x.engine_bytes, y.engine_bytes);
            assert_eq!(x.census_fingerprint, y.census_fingerprint);
        }
        // run_ladder itself asserts 1- vs 4-thread bitwise equality, so
        // both cells of one rung must fingerprint identically.
        assert_eq!(a[0].census_fingerprint, a[1].census_fingerprint);
        assert!(a[0].bytes_per_node() > 0.0);
    }

    #[test]
    fn fingerprint_is_sensitive_to_curve_bits() {
        let p = SweepPoint {
            ttl: 1,
            success_rate: 0.5,
            mean_reached: 10.0,
            mean_reach_fraction: 0.1,
            mean_messages: 30.0,
            stats: None,
            dead_sources: 0,
        };
        let mut q = p;
        q.mean_messages = 30.0000000001;
        assert_ne!(curve_fingerprint(&[p]), curve_fingerprint(&[q]));
        assert_eq!(curve_fingerprint(&[p]), curve_fingerprint(&[p]));
    }

    #[test]
    fn json_shapes_are_parsable_enough() {
        let r = Repro::new(std::env::temp_dir().join("qcp-scale-json"), Scale::Test);
        let cell = ScaleCell {
            nodes: 4_000,
            threads: 1,
            trials: 64,
            edges: 10_000,
            graph_bytes: 56_004,
            placement_bytes: 24_008,
            engine_bytes: 16_000,
            repr: "epoch",
            census_fingerprint: 0xdead_beef,
            build_secs: 0.01,
            census_secs: 0.05,
        };
        for json in [
            deterministic_json(&r, std::slice::from_ref(&cell)),
            bench_json(&r, &[cell]),
        ] {
            assert!(json.contains("\"nodes\": 4000"));
            assert!(json.contains("\"repr\": \"epoch\""));
            assert!(json.contains("\"census_fingerprint\": \"0x00000000deadbeef\""));
            assert_eq!(json.matches('{').count(), json.matches('}').count());
            assert_eq!(json.matches('[').count(), json.matches(']').count());
        }
        let det = deterministic_json(&r, &[]);
        assert!(!det.contains("secs"), "deterministic file must not time");
    }
}
