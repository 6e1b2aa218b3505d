//! `repro latency` — deadline-degraded search under real link latency.
//!
//! The paper's Figure-8 methodology counts messages; this artifact
//! measures *time*. Every query runs on the virtual-time event engine
//! (`qcp-vtime`) under a per-link latency model drawn from the cell's
//! [`FaultPlan`], with a fixed [`Deadline`] attached through
//! [`SearchSpec::deadline`]: the five search systems answer with
//! whatever they have when the clock runs out and report
//! `DeadlineExceeded` instead of completing silently.
//!
//! The grid sweeps mean link latency × message loss × retry policy
//! (fixed exponential backoff vs deterministically jittered) and emits,
//! per system and cell, nearest-rank p50/p99 **time-to-first-hit** over
//! successful queries plus the **deadline-miss rate** — the first result
//! family the message-count methodology cannot produce.
//!
//! Everything is a pure function of `(scale, seed)`, independent of the
//! pool width (pinned by `latency_grid_thread_width_does_not_leak` in
//! `tests/determinism.rs`). The artifact runs the grid once on the global
//! pool and self-checks the headline claim: the hybrid's deadline-miss
//! count is monotone non-decreasing in mean link latency for every
//! `(loss, policy)` column.
//!
//! Output: `latency.csv` + `latency.json`, pinned by the smoke digest
//! manifest `tests/golden/smoke.sha256`.

use crate::rows::jf;
use crate::{Repro, Scale};
use qcp_core::faults::{FaultConfig, FaultPlan, RetryPolicy};
use qcp_core::obs::{Event, Kernel, MetricsRecorder, NoopRecorder, Recorder};
use qcp_core::search::{
    gen_queries, Built, FaultContext, QuerySpec, SearchSpec, SearchSystem, SearchWorld,
    WorkloadConfig, WorldConfig,
};
use qcp_core::util::plot::{render, PlotConfig, Series};
use qcp_core::util::rng::{child_seed, Pcg64};
use qcp_core::util::table::fnum;
use qcp_core::util::Table;
use qcp_core::vtime::Deadline;
use qcp_core::xpar::Pool;
use std::fmt::Write as _;

/// Mean per-link latencies swept, in ticks (per-link draws land in
/// `[1, 2m - 1]`, mean-preserving).
pub const MEAN_LATENCIES: [u32; 4] = [1, 2, 4, 8];
/// Mean per-message drop probabilities swept.
pub const LOSSES: [f64; 2] = [0.0, 0.10];
/// Retry-policy labels swept: the fixed exponential backoff schedule vs
/// the deterministically jittered one ([`RetryPolicy::jittered_timeout`]).
pub const POLICIES: [&str; 2] = ["fixed", "jittered"];
/// The per-query virtual-time budget. Sized so the unit-latency column
/// answers comfortably while the slowest column starves the DHT paths:
/// a Chord lookup over the test world needs ~log2(n) hops, so at mean
/// latency 8 its expected cost alone overruns the budget.
pub const DEADLINE_TICKS: u64 = 48;

/// Domain tags for this artifact's seed derivations (world build, fault
/// plan, retry contexts, per-run seeds, workload generation). Public
/// and shared by name with `repro overload`, whose every cell pins the
/// fault side to this artifact's cell 0 — the same tags on the same
/// master seed are what make its unlimited baseline bitwise identical
/// to latency cell 0.
pub const WORLD_TAG: u64 = 0x1a70;
/// See [`WORLD_TAG`].
pub const PLAN_TAG: u64 = 0x1a71;
/// See [`WORLD_TAG`].
pub const CTX_TAG: u64 = 0x1a72;
/// See [`WORLD_TAG`].
pub const RUN_TAG: u64 = 0x1a73;
/// See [`WORLD_TAG`].
pub const QUERY_TAG: u64 = 0x1a74;

/// Per-system aggregates for one grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemLatency {
    /// System name (as reported by [`SearchSystem::name`]).
    pub system: String,
    /// Queries run.
    pub queries: usize,
    /// Queries that found at least one holder.
    pub hits: u64,
    /// Queries the clock ended (`deadline_exceeded` outcomes).
    pub deadline_misses: u64,
    /// Deadline-exceeded queries that still carried an answer — the
    /// best-so-far partial results the degraded mode exists for.
    pub partial_hits: u64,
    /// Nearest-rank p50 of time-to-first-hit over successful queries.
    pub p50: Option<u64>,
    /// Nearest-rank p99 of time-to-first-hit over successful queries.
    pub p99: Option<u64>,
    /// Mean messages per query.
    pub mean_messages: f64,
}

impl SystemLatency {
    /// Fraction of queries the clock ended.
    pub fn miss_rate(&self) -> f64 {
        self.deadline_misses as f64 / (self.queries as f64).max(1.0)
    }
}

/// One `(mean latency, loss, retry policy)` grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyCell {
    /// Mean per-link latency of this cell's plan, in ticks.
    pub mean_latency: u32,
    /// Mean per-message drop probability.
    pub loss: f64,
    /// Retry-policy label (`"fixed"` or `"jittered"`).
    pub policy: &'static str,
    /// All five systems' aggregates, in build order.
    pub systems: Vec<SystemLatency>,
}

/// Workload sizes for one scale (the profile-artifact world sizes: each
/// query exercises a full system end to end).
struct LatencySizes {
    peers: usize,
    objects: u32,
    terms: usize,
    queries: usize,
}

fn sizes(r: &Repro) -> LatencySizes {
    match r.scale {
        Scale::Test => LatencySizes {
            peers: 600,
            objects: 5_000,
            terms: 6_000,
            queries: r.trials.min(300),
        },
        Scale::Default | Scale::Paper => LatencySizes {
            peers: 2_000,
            objects: 20_000,
            terms: 20_000,
            queries: r.trials.min(1_000),
        },
    }
}

/// Nearest-rank percentile over an ascending-sorted sample
/// (`None` when the sample is empty).
fn percentile(sorted: &[u64], pct: u64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (pct * sorted.len() as u64)
        .div_ceil(100)
        .clamp(1, sorted.len() as u64);
    Some(sorted[rank as usize - 1])
}

/// Decodes a flat cell index into its grid coordinates. Mean latency is
/// the outermost axis so each `(loss, policy)` column is a contiguous
/// stride — the layout the monotonicity check walks.
fn cell_coords(idx: usize) -> (u32, f64, &'static str) {
    let stride = LOSSES.len() * POLICIES.len();
    (
        MEAN_LATENCIES[idx / stride],
        LOSSES[(idx / POLICIES.len()) % LOSSES.len()],
        POLICIES[idx % POLICIES.len()],
    )
}

/// Runs `system` over the workload with per-query RNG streams derived
/// from `(seed, query index)` — the same discipline as `evaluate` — and
/// aggregates its deadline behavior.
fn run_system<R: Recorder>(
    system: &mut Built<R>,
    world: &SearchWorld,
    queries: &[QuerySpec],
    seed: u64,
) -> SystemLatency {
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut partial = 0u64;
    let mut messages = 0u64;
    let mut ttfh = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let mut rng = Pcg64::new(child_seed(seed, i as u64));
        let out = system.search(world, q, &mut rng);
        hits += u64::from(out.success);
        messages += out.messages;
        if out.deadline_exceeded {
            misses += 1;
            partial += u64::from(out.success);
        }
        if out.success {
            ttfh.push(out.elapsed);
        }
    }
    ttfh.sort_unstable();
    SystemLatency {
        system: system.name(),
        queries: queries.len(),
        hits,
        deadline_misses: misses,
        partial_hits: partial,
        p50: percentile(&ttfh, 50),
        p99: percentile(&ttfh, 99),
        mean_messages: messages as f64 / (queries.len() as f64).max(1.0),
    }
}

/// Computes one cell: builds the cell's plan and retry policy, then runs
/// all five deadline-bounded systems over the shared workload. A pure
/// function of `(seed, cell index)` — cells parallelize freely.
fn cell<R: Recorder, F: Fn() -> R>(
    seed: u64,
    world: &SearchWorld,
    queries: &[QuerySpec],
    idx: usize,
    make: &F,
) -> (LatencyCell, Vec<R>) {
    let (mean_latency, loss, policy_name) = cell_coords(idx);
    let policy = match policy_name {
        "fixed" => RetryPolicy::default(),
        _ => RetryPolicy {
            jitter: Some(seed ^ 0x6a17),
            ..Default::default()
        },
    };
    // Churn stays 0: the sweep isolates latency x loss x retry policy,
    // and `fig8-churn` already owns the churn axis.
    let plan = FaultPlan::build(
        world.num_peers(),
        &FaultConfig {
            loss,
            churn: 0.0,
            horizon: (queries.len() as u64).max(1),
            mean_latency,
            rejoin: true,
            seed: child_seed(seed ^ PLAN_TAG, idx as u64),
        },
    );
    let ctx = |stream: u64| {
        FaultContext::new(
            plan.clone(),
            policy,
            child_seed(seed ^ CTX_TAG, (idx as u64) << 8 | stream),
        )
    };
    let specs = [
        SearchSpec::flood(3),
        SearchSpec::walk(4, 20),
        SearchSpec::expanding_ring(4),
        SearchSpec::hybrid(2, 5, seed ^ 0x4b1d),
        SearchSpec::dht_only(seed ^ 0xd47),
    ];
    let mut systems = Vec::with_capacity(specs.len());
    let mut recorders = Vec::with_capacity(specs.len());
    for (s, spec) in specs.into_iter().enumerate() {
        let mut built = spec
            .faults(ctx(s as u64 + 1))
            .deadline(Deadline::after(DEADLINE_TICKS))
            .recorder(make())
            .build(world);
        systems.push(run_system(&mut built, world, queries, seed ^ RUN_TAG));
        recorders.push(built.into_recorder());
    }
    (
        LatencyCell {
            mean_latency,
            loss,
            policy: policy_name,
            systems,
        },
        recorders,
    )
}

/// Builds the world and workload and maps [`cell`] over the grid.
fn grid_data<R, F>(r: &Repro, pool: &Pool, make: F) -> Vec<(LatencyCell, Vec<R>)>
where
    R: Recorder,
    F: Fn() -> R + Sync,
{
    let sz = sizes(r);
    let world = SearchWorld::generate(&WorldConfig {
        num_peers: sz.peers,
        num_objects: sz.objects,
        num_terms: sz.terms,
        seed: r.seed ^ WORLD_TAG,
        ..Default::default()
    });
    let queries = gen_queries(
        &world,
        &WorkloadConfig {
            num_queries: sz.queries,
            seed: r.seed ^ QUERY_TAG,
        },
    );
    let n = MEAN_LATENCIES.len() * LOSSES.len() * POLICIES.len();
    let seed = r.seed;
    pool.par_map_indexed(n, |i| cell(seed, &world, &queries, i, &make))
}

/// The hybrid row of a cell (found by name, not index, so a reordering
/// of the build list cannot silently re-point the acceptance check).
fn hybrid_of(cell: &LatencyCell) -> &SystemLatency {
    cell.systems
        .iter()
        .find(|s| s.system.starts_with("hybrid"))
        // qcplint: allow(panic) — the grid always builds a hybrid system.
        .expect("grid runs a hybrid system")
}

/// The acceptance self-check: within every `(loss, policy)` column the
/// hybrid's deadline-miss count must be non-decreasing in mean link
/// latency. An artifact whose headline claim fails can never be emitted.
fn assert_hybrid_monotone(cells: &[LatencyCell]) {
    let stride = LOSSES.len() * POLICIES.len();
    for col in 0..stride {
        for mi in 1..MEAN_LATENCIES.len() {
            let prev = hybrid_of(&cells[(mi - 1) * stride + col]);
            let cur = hybrid_of(&cells[mi * stride + col]);
            assert!(
                cur.deadline_misses >= prev.deadline_misses,
                "hybrid deadline misses fell from {} to {} between mean latencies {} and {} \
                 (loss {}, {} backoff)",
                prev.deadline_misses,
                cur.deadline_misses,
                MEAN_LATENCIES[mi - 1],
                MEAN_LATENCIES[mi],
                cells[mi * stride + col].loss,
                cells[mi * stride + col].policy,
            );
        }
    }
}

/// Computes the grid with recording off. Exposed (with an explicit pool)
/// so the determinism suite can fingerprint it across runs and thread
/// counts; [`latency`] is the rendering wrapper.
pub fn latency_data(r: &Repro, pool: &Pool) -> Vec<LatencyCell> {
    let cells: Vec<LatencyCell> = grid_data(r, pool, || NoopRecorder)
        .into_iter()
        .map(|(c, _)| c)
        .collect();
    assert_hybrid_monotone(&cells);
    cells
}

/// The same grid with a [`MetricsRecorder`] per system. Asserts the
/// write-only recording reconciles — each system's recorded
/// `DeadlineExceeded` events equal its outcome-stream miss count — and
/// returns the merged master recorder (absorbed in cell, then build,
/// order). The determinism suite pins the cells bitwise against
/// [`latency_data`]: recording on must not perturb the simulation.
pub fn latency_data_recorded(r: &Repro, pool: &Pool) -> (Vec<LatencyCell>, MetricsRecorder) {
    let raw = grid_data(r, pool, MetricsRecorder::new);
    let mut master = MetricsRecorder::new();
    let mut cells = Vec::with_capacity(raw.len());
    for (cell, recorders) in raw {
        for (sys, rec) in cell.systems.iter().zip(recorders) {
            let exceeded: u64 = Kernel::ALL
                .iter()
                .map(|&k| rec.event_count(k, Event::DeadlineExceeded))
                .sum();
            assert_eq!(
                exceeded, sys.deadline_misses,
                "{}: recorded DeadlineExceeded events diverge from outcome misses",
                sys.system
            );
            master.absorb(rec);
        }
        cells.push(cell);
    }
    assert_hybrid_monotone(&cells);
    (cells, master)
}

/// `Option<u64>` as a JSON number or `null`.
fn ju(x: Option<u64>) -> String {
    x.map_or_else(|| "null".into(), |v| v.to_string())
}

/// One system row as a JSON object.
fn system_json(s: &SystemLatency) -> String {
    format!(
        "{{\"system\": {:?}, \"queries\": {}, \"hits\": {}, \"deadline_misses\": {}, \
         \"miss_rate\": {}, \"partial_hits\": {}, \"p50_ttfh\": {}, \"p99_ttfh\": {}, \
         \"mean_messages\": {}}}",
        s.system,
        s.queries,
        s.hits,
        s.deadline_misses,
        jf(s.miss_rate()),
        s.partial_hits,
        ju(s.p50),
        ju(s.p99),
        jf(s.mean_messages),
    )
}

/// Hand-written JSON for the grid (the workspace vendors no serde).
fn grid_json(r: &Repro, grid: &[LatencyCell]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"experiment\": \"latency\",\n  \"seed\": {},\n  \"deadline_ticks\": {},\n  \
         \"grid\": [",
        r.seed, DEADLINE_TICKS
    );
    for (i, cell) in grid.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\n    {{\"mean_latency\": {}, \"loss\": {}, \"policy\": \"{}\", \"systems\": [",
            cell.mean_latency,
            jf(cell.loss),
            cell.policy
        );
        for (j, sys) in cell.systems.iter().enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}{}", system_json(sys));
        }
        s.push_str("]}");
    }
    s.push_str("\n  ]\n}\n");
    s
}

/// The grid as a flat CSV table (one row per system per cell).
fn grid_table(grid: &[LatencyCell]) -> Table {
    let mut t = Table::new([
        "mean_latency",
        "loss",
        "policy",
        "system",
        "queries",
        "hits",
        "deadline_misses",
        "miss_rate",
        "partial_hits",
        "p50_ttfh",
        "p99_ttfh",
        "mean_messages",
    ]);
    for cell in grid {
        for sys in &cell.systems {
            t.row([
                cell.mean_latency.to_string(),
                fnum(cell.loss, 2),
                cell.policy.to_string(),
                sys.system.clone(),
                sys.queries.to_string(),
                sys.hits.to_string(),
                sys.deadline_misses.to_string(),
                fnum(sys.miss_rate(), 5),
                sys.partial_hits.to_string(),
                sys.p50.map_or_else(String::new, |v| v.to_string()),
                sys.p99.map_or_else(String::new, |v| v.to_string()),
                fnum(sys.mean_messages, 1),
            ]);
        }
    }
    t
}

/// The `repro latency` artifact: runs the grid on the global pool,
/// writes `latency.csv` + `latency.json`, and renders the report.
pub fn latency(r: &Repro) -> String {
    let grid = latency_data(r, Pool::global());

    r.write_csv("latency", &grid_table(&grid));
    let json = grid_json(r, &grid);
    let path = r.out_dir.join("latency.json");
    std::fs::write(&path, &json)
        // qcplint: allow(panic) — artifact write failure is fatal by design.
        .unwrap_or_else(|e| panic!("failed writing {}: {e}", path.display()));

    // Report: the headline curve (hybrid miss rate vs mean latency, one
    // series per loss x policy), then a per-system p50/p99 table for the
    // lossy jittered column.
    let stride = LOSSES.len() * POLICIES.len();
    let at = |mi: usize, li: usize, pi: usize| &grid[mi * stride + li * POLICIES.len() + pi];
    let mut series = Vec::new();
    for (li, &loss) in LOSSES.iter().enumerate() {
        for (pi, &policy) in POLICIES.iter().enumerate() {
            let pts: Vec<(f64, f64)> = MEAN_LATENCIES
                .iter()
                .enumerate()
                .map(|(mi, &m)| (f64::from(m), hybrid_of(at(mi, li, pi)).miss_rate()))
                .collect();
            series.push(Series::new(format!("loss {loss:.2} / {policy}"), pts));
        }
    }
    let mut out = String::new();
    out.push_str(&render(
        &PlotConfig::linear(
            &format!(
                "Hybrid deadline-miss rate vs mean link latency (deadline {DEADLINE_TICKS} ticks)"
            ),
            "mean link latency (ticks)",
            "deadline-miss rate",
        ),
        &series,
    ));

    let (li, pi) = (LOSSES.len() - 1, POLICIES.len() - 1);
    let _ = writeln!(
        out,
        "time-to-first-hit p50/p99 (ticks) and miss rate at loss {:.2}, {} backoff:",
        LOSSES[li], POLICIES[pi]
    );
    let mut header = format!("{:<20}", "system");
    for &m in &MEAN_LATENCIES {
        let _ = write!(header, " {:>12}", format!("m={m}"));
    }
    let _ = writeln!(
        out,
        "{header} {:>12}",
        format!("miss% m={}", MEAN_LATENCIES[3])
    );
    for si in 0..grid[0].systems.len() {
        let name = &at(0, li, pi).systems[si].system;
        let mut row = format!("{name:<20}");
        for mi in 0..MEAN_LATENCIES.len() {
            let s = &at(mi, li, pi).systems[si];
            let cellfmt = match (s.p50, s.p99) {
                (Some(a), Some(b)) => format!("{a}/{b}"),
                _ => "-".into(),
            };
            let _ = write!(row, " {cellfmt:>12}");
        }
        let miss = at(MEAN_LATENCIES.len() - 1, li, pi).systems[si].miss_rate();
        let _ = writeln!(out, "{row} {:>11.1}%", 100.0 * miss);
    }

    let partials: u64 = grid.iter().map(|c| hybrid_of(c).partial_hits).sum();
    let _ = writeln!(
        out,
        "hybrid miss degradation is monotone in mean latency (asserted); \
         {partials} deadline-exceeded hybrid queries still carried partial answers"
    );
    let _ = writeln!(
        out,
        "wrote {} cells to latency.csv, latency.json",
        grid.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(percentile(&[7], 50), Some(7));
        assert_eq!(percentile(&[7], 99), Some(7));
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), Some(50));
        assert_eq!(percentile(&v, 99), Some(99));
        assert_eq!(percentile(&[1, 2, 3, 4], 50), Some(2));
        assert_eq!(percentile(&[1, 2, 3, 4], 99), Some(4));
    }

    #[test]
    fn cell_coords_cover_the_grid_mean_latency_outermost() {
        let n = MEAN_LATENCIES.len() * LOSSES.len() * POLICIES.len();
        let all: Vec<_> = (0..n).map(cell_coords).collect();
        assert_eq!(all[0], (1, 0.0, "fixed"));
        assert_eq!(all[1], (1, 0.0, "jittered"));
        assert_eq!(all[2], (1, 0.10, "fixed"));
        assert_eq!(all[4], (2, 0.0, "fixed"));
        assert_eq!(all[n - 1], (8, 0.10, "jittered"));
        let mut dedup = all.clone();
        dedup.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        dedup.dedup();
        assert_eq!(dedup.len(), n, "cell coordinates must be distinct");
    }

    fn sys(name: &str, misses: u64) -> SystemLatency {
        SystemLatency {
            system: name.into(),
            queries: 10,
            hits: 5,
            deadline_misses: misses,
            partial_hits: 1,
            p50: Some(3),
            p99: None,
            mean_messages: 12.5,
        }
    }

    #[test]
    fn monotone_check_accepts_flat_and_rejects_drops() {
        let cell_with = |mi: usize, misses: u64| {
            let (m, l, p) = cell_coords(mi * LOSSES.len() * POLICIES.len());
            LatencyCell {
                mean_latency: m,
                loss: l,
                policy: p,
                systems: vec![sys("flood(ttl=3)", 9), sys("hybrid(2,5)", misses)],
            }
        };
        // One column's worth of cells (stride 1 grid would need all 16;
        // fabricate the full layout with identical columns instead).
        let stride = LOSSES.len() * POLICIES.len();
        let grid: Vec<LatencyCell> = (0..MEAN_LATENCIES.len() * stride)
            .map(|i| cell_with(i / stride, [0, 0, 4, 9][i / stride]))
            .collect();
        assert_hybrid_monotone(&grid);
        let bad: Vec<LatencyCell> = (0..MEAN_LATENCIES.len() * stride)
            .map(|i| cell_with(i / stride, [0, 5, 4, 9][i / stride]))
            .collect();
        let panicked = std::panic::catch_unwind(|| assert_hybrid_monotone(&bad));
        assert!(panicked.is_err(), "a miss-count drop must fail the check");
    }

    #[test]
    fn json_and_csv_shapes() {
        let r = Repro::new(std::env::temp_dir().join("qcp-latency-json"), Scale::Test);
        let cell = LatencyCell {
            mean_latency: 4,
            loss: 0.10,
            policy: "jittered",
            systems: vec![sys("flood(ttl=3)", 2), sys("hybrid(2,5)", 3)],
        };
        let json = grid_json(&r, std::slice::from_ref(&cell));
        assert!(json.contains("\"experiment\": \"latency\""));
        assert!(json.contains("\"deadline_ticks\": 48"));
        assert!(json.contains("\"p99_ttfh\": null"));
        assert!(json.contains("\"partial_hits\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let t = grid_table(&[cell]);
        assert_eq!(t.len(), 2);
        assert!(t.to_csv().starts_with("mean_latency,loss,policy,system"));
    }

    #[test]
    fn trimmed_grid_is_deterministic_and_deadline_aware() {
        let dir = std::env::temp_dir().join("qcp-latency-grid");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut r = Repro::new(dir, Scale::Test);
        r.trials = 24; // keep the debug-profile unit test cheap
        let pool = Pool::new(2);
        let a = latency_data(&r, &pool);
        assert_eq!(a.len(), 16);
        let b = latency_data(&r, &pool);
        assert_eq!(a, b, "same seed must reproduce the grid bitwise");
        // The slowest column actually exercises the degraded mode.
        let worst = hybrid_of(&a[a.len() - 1]);
        assert!(worst.deadline_misses > 0, "m=8 must starve the hybrid");
        // Recording on must not perturb the simulation.
        let (c, master) = latency_data_recorded(&r, &pool);
        assert_eq!(a, c, "recording must be write-only");
        let misses: u64 = a
            .iter()
            .flat_map(|cell| &cell.systems)
            .map(|s| s.deadline_misses)
            .sum();
        let events: u64 = Kernel::ALL
            .iter()
            .map(|&k| master.event_count(k, Event::DeadlineExceeded))
            .sum();
        assert_eq!(events, misses, "master recorder reconciles miss counts");
    }
}
