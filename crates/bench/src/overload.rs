//! `repro overload` — capacity-bounded search under offered load.
//!
//! The latency artifact measures *time*; this one measures *capacity*.
//! Every query runs on the virtual-time event engine through the
//! capacity-aware overload layer ([`SearchSpec::capacity`]): each node
//! serves its bounded FIFO queue at a per-node service rate, full
//! queues invoke the cell's shedding policy, and query ingress passes a
//! token-style admission check scaled to the issuer's capacity tier.
//!
//! The grid sweeps offered background load × shedding policy ×
//! capacity-heterogeneity model and emits, per system and cell,
//! **goodput** (answered fraction of all offered queries), **success
//! rate** (answered fraction of admitted queries), nearest-rank p50/p99
//! time-to-first-hit, and the **shed rate** — the fraction of offered
//! work (query messages, seeded background entries, and ingress
//! attempts) the overload layer refused.
//!
//! Every cell shares the latency artifact's cell-0 fault derivations
//! (mean link latency 1, loss 0, fixed backoff): the *only* cross-cell
//! variation is the [`CapacityPlan`], so columns are paired
//! comparisons. A trailing baseline cell runs the same workload under
//! [`CapacityPlan::unlimited`] — the determinism suite pins it
//! byte-identical to `repro latency` cell 0, proving the overload layer
//! adds nothing when capacity is unbounded.
//!
//! The grid is independent of the pool width (pinned by
//! `overload_grid_thread_width_does_not_leak` in `tests/determinism.rs`)
//! and runs once on the global pool. Self-checks before anything is
//! emitted: the baseline cell's overload accounting is all-zero, the
//! shed rate is monotone non-decreasing in offered load for every
//! `(policy, model)` column, and at least one cell sits past the
//! saturation knee (shed rate ≥ 0.5).
//!
//! Output: `overload.csv` + `overload.json`, pinned by the smoke digest
//! manifest `tests/golden/smoke.sha256`.

use crate::latency::{CTX_TAG, PLAN_TAG, QUERY_TAG, RUN_TAG, WORLD_TAG};
use crate::rows::jf;
use crate::{Repro, Scale};
use qcp_core::faults::{
    CapacityConfig, CapacityModel, CapacityPlan, FaultConfig, FaultPlan, RetryPolicy, ShedPolicy,
};
use qcp_core::obs::{Counter, Event, Kernel, MetricsRecorder, NoopRecorder, Recorder};
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

/// Offered background loads swept (mean synthetic arrivals per service
/// interval), outermost axis. The ladder starts *past* the backlog
/// dilution transition — below load ~4, drop-oldest queues still hold
/// real messages, so rising background load can *reduce* real sheds by
/// absorbing evictions — and tops out where admission control refuses
/// nearly the whole uniform-tier workload. The no-load anchor is the
/// unlimited baseline cell, not a ladder rung.
pub const LOADS: [f64; 4] = [4.0, 16.0, 64.0, 256.0];
/// Per-node queue bound for every capacity cell. Small enough that the
/// top of the load ladder saturates even the fastest Gia tier.
pub const QUEUE_BOUND: u32 = 4;
/// The per-query virtual-time budget (the latency artifact's, so the
/// unlimited baseline is comparable cell-for-cell).
pub const DEADLINE_TICKS: u64 = 48;
/// Flat index of the trailing unlimited-capacity baseline cell.
pub const BASELINE: usize = LOADS.len() * ShedPolicy::ALL.len() * CapacityModel::ALL.len();

/// Per-system aggregates for one grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemOverload {
    /// System name (as reported by [`SearchSystem::name`]).
    pub system: String,
    /// Queries offered.
    pub queries: usize,
    /// Queries past the admission gate.
    pub admitted: u64,
    /// Queries that found at least one holder.
    pub hits: u64,
    /// Queries the clock ended (`deadline_exceeded` outcomes).
    pub deadline_misses: u64,
    /// Queries flagged overloaded (ingress rejection or shed > 0).
    pub overloaded: u64,
    /// Real messages admitted into node queues.
    pub enqueued: u64,
    /// Real messages served (dequeued and delivered).
    pub served: u64,
    /// Real messages evicted by the shedding policy.
    pub shed: u64,
    /// Synthetic background entries displaced from full queues.
    pub displaced: u64,
    /// Synthetic background entries seeded into touched queues.
    pub backlog_seeded: u64,
    /// Summed enqueue→service waits over served messages, in ticks.
    pub queue_delay: u64,
    /// Queries refused at the admission gate.
    pub admission_rejected: u64,
    /// Nearest-rank p50 of time-to-first-hit over successful queries.
    pub p50: Option<u64>,
    /// Nearest-rank p99 of time-to-first-hit over successful queries.
    pub p99: Option<u64>,
    /// Total messages sent across the workload.
    pub messages: u64,
}

impl SystemOverload {
    /// Answered fraction of *all* offered queries — what admission
    /// control and shedding together cost the user population.
    pub fn goodput(&self) -> f64 {
        self.hits as f64 / (self.queries as f64).max(1.0)
    }

    /// Answered fraction of *admitted* queries — what the overload
    /// layer preserves for the traffic it lets in.
    pub fn success_rate(&self) -> f64 {
        self.hits as f64 / (self.admitted as f64).max(1.0)
    }

    /// Refused fraction of *all* offered work — query messages,
    /// seeded background entries, and ingress attempts alike. Every
    /// shedding policy refuses exactly one unit per arrival at a full
    /// queue; they differ in *which* unit (see [`goodput`]), so this
    /// rate tracks load pressure, not policy choice.
    ///
    /// [`goodput`]: SystemOverload::goodput
    pub fn shed_rate(&self) -> f64 {
        let refused = self.shed + self.displaced + self.admission_rejected;
        let offered = self.messages + self.backlog_seeded + self.admission_rejected;
        refused as f64 / (offered as f64).max(1.0)
    }

    /// Mean enqueue→service wait per served message, in ticks.
    pub fn mean_queue_delay(&self) -> f64 {
        self.queue_delay as f64 / (self.served as f64).max(1.0)
    }
}

/// One `(offered load, shedding policy, capacity model)` grid cell —
/// or the trailing unlimited-capacity baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadCell {
    /// Mean synthetic arrivals per service interval (0 for baseline).
    pub offered_load: f64,
    /// Shedding-policy label (`"unlimited"` for the baseline cell).
    pub policy: &'static str,
    /// Capacity-model label (`"unlimited"` for the baseline cell).
    pub model: &'static str,
    /// All five systems' aggregates, in build order.
    pub systems: Vec<SystemOverload>,
}

impl OverloadCell {
    /// Cell-level shed rate aggregated across systems — the quantity
    /// the ladder monotonicity check walks.
    pub fn shed_rate(&self) -> f64 {
        let refused: u64 = self
            .systems
            .iter()
            .map(|s| s.shed + s.displaced + s.admission_rejected)
            .sum();
        let offered: u64 = self
            .systems
            .iter()
            .map(|s| s.messages + s.backlog_seeded + s.admission_rejected)
            .sum();
        refused as f64 / (offered as f64).max(1.0)
    }
}

/// Workload sizes for one scale (the latency artifact's sizes — shared
/// so the baseline cell is byte-comparable with `repro latency`).
struct OverloadSizes {
    peers: usize,
    objects: u32,
    terms: usize,
    queries: usize,
}

fn sizes(r: &Repro) -> OverloadSizes {
    match r.scale {
        Scale::Test => OverloadSizes {
            peers: 600,
            objects: 5_000,
            terms: 6_000,
            queries: r.trials.min(300),
        },
        Scale::Default | Scale::Paper => OverloadSizes {
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

/// Decodes a flat grid index (< [`BASELINE`]) into its coordinates.
/// Offered load is the outermost axis so each `(policy, model)` column
/// is a contiguous stride — the layout the monotonicity check walks.
fn cell_coords(idx: usize) -> (f64, ShedPolicy, CapacityModel) {
    let stride = ShedPolicy::ALL.len() * CapacityModel::ALL.len();
    (
        LOADS[idx / stride],
        ShedPolicy::ALL[(idx / CapacityModel::ALL.len()) % ShedPolicy::ALL.len()],
        CapacityModel::ALL[idx % CapacityModel::ALL.len()],
    )
}

/// The cell's capacity plan. One shared capacity seed across the whole
/// grid: a given `(node, nonce)` draws the same underlying uniform in
/// every cell, so backlogs and admission thresholds are *pointwise*
/// monotone along the load ladder — the property behind the
/// monotonicity self-check.
fn plan_for(seed: u64, idx: usize) -> CapacityPlan {
    if idx == BASELINE {
        return CapacityPlan::unlimited();
    }
    let (load, policy, model) = cell_coords(idx);
    CapacityPlan::build(&CapacityConfig {
        offered_load: load,
        queue_bound: QUEUE_BOUND,
        policy,
        model,
        seed: seed ^ 0x0ca9,
    })
}

/// Runs `system` over the workload with per-query RNG streams derived
/// from `(seed, query index)` — the same discipline as `evaluate` —
/// and aggregates its deadline and overload behavior.
fn run_system<R: Recorder>(
    system: &mut Built<R>,
    world: &SearchWorld,
    queries: &[QuerySpec],
    seed: u64,
) -> SystemOverload {
    let mut agg = SystemOverload {
        system: system.name(),
        queries: queries.len(),
        admitted: 0,
        hits: 0,
        deadline_misses: 0,
        overloaded: 0,
        enqueued: 0,
        served: 0,
        shed: 0,
        displaced: 0,
        backlog_seeded: 0,
        queue_delay: 0,
        admission_rejected: 0,
        p50: None,
        p99: None,
        messages: 0,
    };
    let mut ttfh = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let mut rng = Pcg64::new(child_seed(seed, i as u64));
        let out = system.search(world, q, &mut rng);
        agg.hits += u64::from(out.success);
        agg.messages += out.messages;
        agg.deadline_misses += u64::from(out.deadline_exceeded);
        let over = &out.overload;
        agg.admitted += u64::from(over.admission_rejected == 0);
        agg.overloaded += u64::from(over.overloaded);
        agg.enqueued += over.enqueued;
        agg.served += over.served;
        agg.shed += over.shed;
        agg.displaced += over.displaced;
        agg.backlog_seeded += over.backlog_seeded;
        agg.queue_delay += over.queue_delay;
        agg.admission_rejected += over.admission_rejected;
        if out.success {
            ttfh.push(out.elapsed);
        }
    }
    ttfh.sort_unstable();
    agg.p50 = percentile(&ttfh, 50);
    agg.p99 = percentile(&ttfh, 99);
    agg
}

/// Computes one cell: attaches the cell's [`CapacityPlan`] and runs all
/// five deadline-bounded systems over the shared workload. The fault
/// plan and context streams are *fixed* at the latency artifact's
/// cell-0 derivations (mean latency 1, loss 0, fixed backoff) so the
/// only cross-cell variation is the capacity plan — and the baseline
/// cell (`idx == BASELINE`) is byte-identical to `repro latency`
/// cell 0. A pure function of `(seed, cell index)`.
fn cell<R: Recorder, F: Fn() -> R>(
    seed: u64,
    world: &SearchWorld,
    queries: &[QuerySpec],
    idx: usize,
    make: &F,
) -> (OverloadCell, Vec<R>) {
    let cap = plan_for(seed, idx);
    let (offered_load, policy_name, model_name) = if idx == BASELINE {
        (0.0, "unlimited", "unlimited")
    } else {
        let (load, policy, model) = cell_coords(idx);
        (load, policy.name(), model.name())
    };
    // Latency cell-0 derivations, verbatim: the `0` below is that
    // artifact's flat cell index, not this one's.
    let plan = FaultPlan::build(
        world.num_peers(),
        &FaultConfig {
            loss: 0.0,
            churn: 0.0,
            horizon: (queries.len() as u64).max(1),
            mean_latency: 1,
            rejoin: true,
            seed: child_seed(seed ^ PLAN_TAG, 0),
        },
    );
    let ctx = |stream: u64| {
        FaultContext::new(
            plan.clone(),
            RetryPolicy::default(),
            child_seed(seed ^ CTX_TAG, stream),
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
            .capacity(cap.clone())
            .recorder(make())
            .build(world);
        systems.push(run_system(&mut built, world, queries, seed ^ RUN_TAG));
        recorders.push(built.into_recorder());
    }
    (
        OverloadCell {
            offered_load,
            policy: policy_name,
            model: model_name,
            systems,
        },
        recorders,
    )
}

/// Builds the world and workload and maps [`cell`] over the grid plus
/// the trailing baseline cell.
fn grid_data<R, F>(r: &Repro, pool: &Pool, make: F) -> Vec<(OverloadCell, Vec<R>)>
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
    let seed = r.seed;
    pool.par_map_indexed(BASELINE + 1, |i| cell(seed, &world, &queries, i, &make))
}

/// The acceptance self-check: within every `(policy, model)` column the
/// cell-level shed rate must be non-decreasing in offered load, and the
/// grid must contain at least one cell past the saturation knee. An
/// artifact whose headline claim fails can never be emitted.
fn assert_shed_monotone(cells: &[OverloadCell]) {
    let stride = ShedPolicy::ALL.len() * CapacityModel::ALL.len();
    for col in 0..stride {
        for li in 1..LOADS.len() {
            let prev = &cells[(li - 1) * stride + col];
            let cur = &cells[li * stride + col];
            assert!(
                cur.shed_rate() >= prev.shed_rate(),
                "shed rate fell from {:.4} to {:.4} between loads {} and {} ({}, {})",
                prev.shed_rate(),
                cur.shed_rate(),
                LOADS[li - 1],
                LOADS[li],
                cur.policy,
                cur.model,
            );
        }
    }
    let knee = cells[..BASELINE.min(cells.len())]
        .iter()
        .map(OverloadCell::shed_rate)
        .fold(0.0f64, f64::max);
    assert!(
        knee >= 0.5,
        "no cell past the saturation knee: max shed rate {knee:.4} < 0.5"
    );
}

/// The baseline self-check: unlimited capacity must report all-zero
/// overload accounting on every system (the overload layer is inert).
fn assert_baseline_inert(baseline: &OverloadCell) {
    for s in &baseline.systems {
        assert!(
            s.enqueued == 0
                && s.served == 0
                && s.shed == 0
                && s.displaced == 0
                && s.backlog_seeded == 0
                && s.queue_delay == 0
                && s.admission_rejected == 0
                && s.overloaded == 0
                && s.admitted == s.queries as u64,
            "{}: unlimited capacity must leave no overload footprint",
            s.system
        );
    }
}

/// Computes the grid (plus baseline) with recording off. Exposed (with
/// an explicit pool) so the determinism suite can fingerprint it across
/// runs and thread counts; [`overload`] is the rendering wrapper. The
/// last cell is the unlimited baseline.
pub fn overload_data(r: &Repro, pool: &Pool) -> Vec<OverloadCell> {
    let cells: Vec<OverloadCell> = grid_data(r, pool, || NoopRecorder)
        .into_iter()
        .map(|(c, _)| c)
        .collect();
    assert_shed_monotone(&cells[..BASELINE]);
    assert_baseline_inert(&cells[BASELINE]);
    cells
}

/// The same grid with a [`MetricsRecorder`] per system. Asserts the
/// write-only recording reconciles — each system's kernel-summed
/// `Enqueued`/`Served`/`Shed`/`QueueDelay`/`AdmissionRejected` counters
/// and `Overloaded` events equal its outcome-stream sums — and returns
/// the merged master recorder. The determinism suite pins the cells
/// bitwise against [`overload_data`]: recording on must not perturb
/// the simulation.
pub fn overload_data_recorded(r: &Repro, pool: &Pool) -> (Vec<OverloadCell>, MetricsRecorder) {
    let raw = grid_data(r, pool, MetricsRecorder::new);
    let mut master = MetricsRecorder::new();
    let mut cells = Vec::with_capacity(raw.len());
    for (cell, recorders) in raw {
        for (sys, rec) in cell.systems.iter().zip(recorders) {
            let sum = |c: Counter| -> u64 { Kernel::ALL.iter().map(|&k| rec.total(k, c)).sum() };
            let checks = [
                (Counter::Enqueued, sys.enqueued),
                (Counter::Served, sys.served),
                (Counter::Shed, sys.shed),
                (Counter::QueueDelay, sys.queue_delay),
                (Counter::AdmissionRejected, sys.admission_rejected),
            ];
            for (c, want) in checks {
                assert_eq!(
                    sum(c),
                    want,
                    "{}: recorded {} diverges from outcome stream",
                    sys.system,
                    c.name()
                );
            }
            let events: u64 = Kernel::ALL
                .iter()
                .map(|&k| rec.event_count(k, Event::Overloaded))
                .sum();
            assert_eq!(
                events, sys.overloaded,
                "{}: recorded Overloaded events diverge from outcome flags",
                sys.system
            );
            master.absorb(rec);
        }
        cells.push(cell);
    }
    assert_shed_monotone(&cells[..BASELINE]);
    assert_baseline_inert(&cells[BASELINE]);
    (cells, master)
}

/// `Option<u64>` as a JSON number or `null`.
fn ju(x: Option<u64>) -> String {
    x.map_or_else(|| "null".into(), |v| v.to_string())
}

/// One system row as a JSON object.
fn system_json(s: &SystemOverload) -> String {
    format!(
        "{{\"system\": {:?}, \"queries\": {}, \"admitted\": {}, \"hits\": {}, \
         \"goodput\": {}, \"success_rate\": {}, \"deadline_misses\": {}, \"overloaded\": {}, \
         \"enqueued\": {}, \"served\": {}, \"shed\": {}, \"displaced\": {}, \
         \"backlog_seeded\": {}, \"queue_delay\": {}, \
         \"admission_rejected\": {}, \"shed_rate\": {}, \"mean_queue_delay\": {}, \
         \"p50_ttfh\": {}, \"p99_ttfh\": {}, \"messages\": {}}}",
        s.system,
        s.queries,
        s.admitted,
        s.hits,
        jf(s.goodput()),
        jf(s.success_rate()),
        s.deadline_misses,
        s.overloaded,
        s.enqueued,
        s.served,
        s.shed,
        s.displaced,
        s.backlog_seeded,
        s.queue_delay,
        s.admission_rejected,
        jf(s.shed_rate()),
        jf(s.mean_queue_delay()),
        ju(s.p50),
        ju(s.p99),
        s.messages,
    )
}

/// One cell as a JSON object.
fn cell_json(cell: &OverloadCell) -> String {
    let mut s = format!(
        "{{\"offered_load\": {}, \"policy\": \"{}\", \"model\": \"{}\", \
         \"shed_rate\": {}, \"systems\": [",
        jf(cell.offered_load),
        cell.policy,
        cell.model,
        jf(cell.shed_rate()),
    );
    for (j, sys) in cell.systems.iter().enumerate() {
        let sep = if j == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}{}", system_json(sys));
    }
    s.push_str("]}");
    s
}

/// Hand-written JSON for the grid (the workspace vendors no serde).
/// The unlimited baseline cell is a separate top-level key so `grid`
/// keeps the pure ladder layout.
fn grid_json(r: &Repro, grid: &[OverloadCell], baseline: &OverloadCell) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"experiment\": \"overload\",\n  \"seed\": {},\n  \"deadline_ticks\": {},\n  \
         \"queue_bound\": {},\n  \"grid\": [",
        r.seed, DEADLINE_TICKS, QUEUE_BOUND
    );
    for (i, cell) in grid.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(s, "{sep}\n    {}", cell_json(cell));
    }
    let _ = write!(s, "\n  ],\n  \"baseline\": {}\n}}\n", cell_json(baseline));
    s
}

/// The grid (baseline included) as a flat CSV table — one row per
/// system per cell.
fn grid_table(cells: &[OverloadCell]) -> Table {
    let mut t = Table::new([
        "offered_load",
        "policy",
        "model",
        "system",
        "queries",
        "admitted",
        "hits",
        "goodput",
        "success_rate",
        "deadline_misses",
        "overloaded",
        "enqueued",
        "served",
        "shed",
        "displaced",
        "backlog_seeded",
        "queue_delay",
        "admission_rejected",
        "shed_rate",
        "mean_queue_delay",
        "p50_ttfh",
        "p99_ttfh",
        "messages",
    ]);
    for cell in cells {
        for sys in &cell.systems {
            t.row([
                fnum(cell.offered_load, 1),
                cell.policy.to_string(),
                cell.model.to_string(),
                sys.system.clone(),
                sys.queries.to_string(),
                sys.admitted.to_string(),
                sys.hits.to_string(),
                fnum(sys.goodput(), 5),
                fnum(sys.success_rate(), 5),
                sys.deadline_misses.to_string(),
                sys.overloaded.to_string(),
                sys.enqueued.to_string(),
                sys.served.to_string(),
                sys.shed.to_string(),
                sys.displaced.to_string(),
                sys.backlog_seeded.to_string(),
                sys.queue_delay.to_string(),
                sys.admission_rejected.to_string(),
                fnum(sys.shed_rate(), 5),
                fnum(sys.mean_queue_delay(), 2),
                sys.p50.map_or_else(String::new, |v| v.to_string()),
                sys.p99.map_or_else(String::new, |v| v.to_string()),
                sys.messages.to_string(),
            ]);
        }
    }
    t
}

/// The `repro overload` artifact: runs the grid on the global pool,
/// writes `overload.csv` + `overload.json`, and renders the report.
pub fn overload(r: &Repro) -> String {
    let cells = overload_data(r, Pool::global());

    r.write_csv("overload", &grid_table(&cells));
    let (grid, baseline) = (&cells[..BASELINE], &cells[BASELINE]);
    let json = grid_json(r, grid, baseline);
    let path = r.out_dir.join("overload.json");
    std::fs::write(&path, &json)
        // qcplint: allow(panic) — artifact write failure is fatal by design.
        .unwrap_or_else(|e| panic!("failed writing {}: {e}", path.display()));

    // Report: the headline curve (cell shed rate vs offered load, one
    // series per policy x model), then a policy comparison at the top
    // of the ladder.
    let stride = ShedPolicy::ALL.len() * CapacityModel::ALL.len();
    let at = |li: usize, col: usize| &grid[li * stride + col];
    let mut series = Vec::new();
    for col in 0..stride {
        let label = format!("{}/{}", at(0, col).policy, at(0, col).model);
        let pts: Vec<(f64, f64)> = (0..LOADS.len())
            .map(|li| (LOADS[li], at(li, col).shed_rate()))
            .collect();
        series.push(Series::new(label, pts));
    }
    let mut out = String::new();
    out.push_str(&render(
        &PlotConfig::linear(
            &format!("Shed rate vs offered load (queue bound {QUEUE_BOUND}, deadline {DEADLINE_TICKS} ticks)"),
            "offered load (arrivals per service interval)",
            "shed rate",
        ),
        &series,
    ));

    // The knee rung, not the top: at the top of the ladder admission
    // control refuses essentially everything and the policies tie.
    let top = LOADS.len() - 2;
    let _ = writeln!(
        out,
        "goodput / success-rate / shed-rate at offered load {} (all systems pooled):",
        LOADS[top]
    );
    let _ = writeln!(
        out,
        "{:<28} {:>8} {:>8} {:>8} {:>9}",
        "policy/model", "goodput", "success", "shed%", "rejected"
    );
    for col in 0..stride {
        let c = at(top, col);
        let hits: u64 = c.systems.iter().map(|s| s.hits).sum();
        let admitted: u64 = c.systems.iter().map(|s| s.admitted).sum();
        let rejected: u64 = c.systems.iter().map(|s| s.admission_rejected).sum();
        let queries: u64 = c.systems.iter().map(|s| s.queries as u64).sum();
        let _ = writeln!(
            out,
            "{:<28} {:>8.3} {:>8.3} {:>7.1}% {:>9}",
            format!("{}/{}", c.policy, c.model),
            hits as f64 / (queries as f64).max(1.0),
            hits as f64 / (admitted as f64).max(1.0),
            100.0 * c.shed_rate(),
            rejected,
        );
    }

    let base_hits: u64 = baseline.systems.iter().map(|s| s.hits).sum();
    let _ = writeln!(
        out,
        "shed rate is monotone in offered load for every policy/model column (asserted); \
         unlimited baseline answered {base_hits} queries with zero overload footprint"
    );
    let _ = writeln!(
        out,
        "wrote {} cells to overload.csv, overload.json",
        cells.len()
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
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), Some(50));
        assert_eq!(percentile(&v, 99), Some(99));
    }

    #[test]
    fn cell_coords_cover_the_grid_load_outermost() {
        let all: Vec<_> = (0..BASELINE).map(cell_coords).collect();
        assert_eq!(
            all[0],
            (4.0, ShedPolicy::DropNewest, CapacityModel::Uniform)
        );
        assert_eq!(
            all[1],
            (4.0, ShedPolicy::DropNewest, CapacityModel::GiaLadder)
        );
        assert_eq!(
            all[2],
            (4.0, ShedPolicy::DropOldest, CapacityModel::Uniform)
        );
        assert_eq!(
            all[6],
            (16.0, ShedPolicy::DropNewest, CapacityModel::Uniform)
        );
        assert_eq!(
            all[BASELINE - 1],
            (256.0, ShedPolicy::TtlPriority, CapacityModel::GiaLadder)
        );
        let mut dedup: Vec<String> = all.iter().map(|c| format!("{c:?}")).collect();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), BASELINE, "cell coordinates must be distinct");
        assert!(plan_for(7, BASELINE).is_unlimited());
        assert!(!plan_for(7, 0).is_unlimited());
    }

    fn sys(name: &str, shed: u64, rejected: u64, messages: u64) -> SystemOverload {
        SystemOverload {
            system: name.into(),
            queries: 10,
            admitted: 10 - rejected,
            hits: 5,
            deadline_misses: 2,
            overloaded: shed.min(1) + rejected,
            enqueued: messages,
            served: messages.saturating_sub(shed),
            shed,
            displaced: 2 * shed,
            backlog_seeded: 3 * shed,
            queue_delay: 12,
            admission_rejected: rejected,
            p50: Some(3),
            p99: None,
            messages,
        }
    }

    #[test]
    fn rates_are_well_defined() {
        let s = sys("flood(ttl=3)", 20, 2, 100);
        assert!((s.goodput() - 0.5).abs() < 1e-12);
        assert!((s.success_rate() - 5.0 / 8.0).abs() < 1e-12);
        // refused = 20 shed + 40 displaced + 2 rejected;
        // offered = 100 messages + 60 backlog + 2 rejected.
        assert!((s.shed_rate() - 62.0 / 162.0).abs() < 1e-12);
        let zero = sys("walk", 0, 0, 0);
        assert_eq!(zero.shed_rate(), 0.0);
        assert_eq!(zero.mean_queue_delay(), 12.0);
    }

    fn cell_with(li: usize, col: usize, shed: u64) -> OverloadCell {
        let (load, policy, model) = cell_coords(li * 6 + col);
        OverloadCell {
            offered_load: load,
            policy: policy.name(),
            model: model.name(),
            systems: vec![sys("flood(ttl=3)", shed, 0, 100)],
        }
    }

    #[test]
    fn monotone_check_accepts_rises_and_rejects_drops() {
        let stride = ShedPolicy::ALL.len() * CapacityModel::ALL.len();
        let good: Vec<OverloadCell> = (0..BASELINE)
            .map(|i| cell_with(i / stride, i % stride, [0, 10, 40, 90][i / stride]))
            .collect();
        assert_shed_monotone(&good);
        let bad: Vec<OverloadCell> = (0..BASELINE)
            .map(|i| cell_with(i / stride, i % stride, [0, 40, 10, 90][i / stride]))
            .collect();
        let panicked = std::panic::catch_unwind(|| assert_shed_monotone(&bad));
        assert!(panicked.is_err(), "a shed-rate drop must fail the check");
        // A grid that never saturates must also fail: the knee check.
        let flat: Vec<OverloadCell> = (0..BASELINE)
            .map(|i| cell_with(i / stride, i % stride, [0, 1, 2, 3][i / stride]))
            .collect();
        let panicked = std::panic::catch_unwind(|| assert_shed_monotone(&flat));
        assert!(panicked.is_err(), "a knee-less grid must fail the check");
    }

    #[test]
    fn json_and_csv_shapes() {
        let r = Repro::new(std::env::temp_dir().join("qcp-overload-json"), Scale::Test);
        let grid = vec![cell_with(0, 0, 5)];
        let baseline = OverloadCell {
            offered_load: 0.0,
            policy: "unlimited",
            model: "unlimited",
            systems: vec![sys("flood(ttl=3)", 0, 0, 100)],
        };
        let json = grid_json(&r, &grid, &baseline);
        assert!(json.contains("\"experiment\": \"overload\""));
        assert!(json.contains("\"queue_bound\": 4"));
        assert!(json.contains("\"baseline\": {"));
        assert!(json.contains("\"p99_ttfh\": null"));
        assert!(json.contains("\"policy\": \"unlimited\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let t = grid_table(&[grid[0].clone(), baseline]);
        assert_eq!(t.len(), 2);
        assert!(t.to_csv().starts_with("offered_load,policy,model,system"));
    }

    #[test]
    fn trimmed_grid_is_deterministic_and_sheds_at_the_top() {
        let dir = std::env::temp_dir().join("qcp-overload-grid");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut r = Repro::new(dir, Scale::Test);
        r.trials = 24; // keep the debug-profile unit test cheap
        let pool = Pool::new(2);
        let a = overload_data(&r, &pool);
        assert_eq!(a.len(), BASELINE + 1);
        let b = overload_data(&r, &pool);
        assert_eq!(a, b, "same seed must reproduce the grid bitwise");
        // The top of the ladder actually saturates queues and admission.
        let top = &a[BASELINE - 1];
        assert!(top.shed_rate() > 0.5, "load 256 must sit past the knee");
        let rejected: u64 = top.systems.iter().map(|s| s.admission_rejected).sum();
        assert!(rejected > 0, "load 256 must trip the admission gate");
        // Recording on must not perturb the simulation, and the master
        // recorder carries queue-length samples from the capacity path.
        let (c, master) = overload_data_recorded(&r, &pool);
        assert_eq!(a, c, "recording must be write-only");
        let qsamples: u64 = Kernel::ALL.iter().map(|&k| master.queue_weight(k)).sum();
        assert!(qsamples > 0, "capacity cells must sample queue lengths");
    }
}
