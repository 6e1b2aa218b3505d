//! `profile` — the observability artifact: per-kernel message/hop/
//! retry/repair breakdowns recorded through [`MetricsRecorder`].
//!
//! One deterministic workload exercises every instrumented kernel:
//!
//! * the five search systems (flood, k-walker, expanding ring, hybrid,
//!   DHT-only) run a shared faulty query workload, each built through
//!   [`SearchSpec`] with its own recorder;
//! * a Chord ring runs stabilize/fix-fingers rounds
//!   ([`Kernel::Stabilize`]);
//! * an unstructured overlay under churn runs repair rounds
//!   ([`Kernel::Repair`]).
//!
//! The recorders are then merged (in fixed order, per the
//! [`Recorder::absorb`] contract) into one master breakdown, written as
//! `profile.json` + `profile.csv`. Before writing, the artifact
//! *asserts* the reconciliation identities — recorded messages equal
//! the outcome streams' messages, DHT `dropped = retries + timeouts`,
//! repair `messages = probes + 2·added` — so a profile that disagrees
//! with the simulation accounting can never be emitted. Everything is
//! a pure function of `(scale, seed)`: CI runs `repro --scale smoke
//! all` twice and checks both `profile.json`s against the sha256
//! manifest in `tests/golden/smoke.sha256`.

use crate::{Repro, Scale};
use qcp_core::dht::ChordNetwork;
use qcp_core::faults::{FaultConfig, FaultPlan, RetryPolicy};
use qcp_core::obs::{Counter, Event, Kernel, MetricsRecorder, Recorder};
use qcp_core::overlay::topology::erdos_renyi;
use qcp_core::overlay::{repair_round, MaintenancePolicy};
use qcp_core::search::{
    gen_queries, FaultContext, SearchSpec, SearchSystem, SearchWorld, WorkloadConfig, WorldConfig,
};
use qcp_core::util::rng::{child_seed, Pcg64};
use qcp_core::util::Table;
use qcp_core::xpar::Pool;
use std::fmt::Write as _;

/// Per-system slice of the profile: outcome totals plus the system's
/// private recorder (reconciled against each other before emission).
#[derive(Debug, Clone)]
pub struct SystemProfile {
    /// System name (as reported by [`SearchSystem::name`]).
    pub system: String,
    /// Queries run.
    pub queries: usize,
    /// Queries resolved.
    pub hits: u64,
    /// Total messages across the outcome stream.
    pub messages: u64,
    /// The recorder the system wrote while searching.
    pub recorder: MetricsRecorder,
}

/// The full profile: per-system slices plus the merged master recorder
/// (systems + stabilize + repair, absorbed in that fixed order).
#[derive(Debug, Clone)]
pub struct ProfileData {
    /// One slice per search system, in run order.
    pub systems: Vec<SystemProfile>,
    /// The merged breakdown across every instrumented kernel.
    pub master: MetricsRecorder,
}

/// Workload sizes for one scale.
struct ProfileSizes {
    peers: usize,
    objects: u32,
    terms: usize,
    queries: usize,
    chord_nodes: usize,
    maintenance_rounds: u64,
    repair_nodes: usize,
    repair_rounds: u64,
}

fn sizes(r: &Repro) -> ProfileSizes {
    match r.scale {
        Scale::Test => ProfileSizes {
            peers: 600,
            objects: 5_000,
            terms: 6_000,
            queries: r.trials.min(300),
            chord_nodes: 256,
            maintenance_rounds: 4,
            repair_nodes: 600,
            repair_rounds: 4,
        },
        Scale::Default | Scale::Paper => ProfileSizes {
            peers: 2_000,
            objects: 20_000,
            terms: 20_000,
            queries: r.trials.min(1_000),
            chord_nodes: 512,
            maintenance_rounds: 8,
            repair_nodes: 2_000,
            repair_rounds: 8,
        },
    }
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Default => "default",
        Scale::Paper => "paper",
    }
}

/// Runs `system` over the workload with per-query RNG streams derived
/// from `(seed, query index)` — the same discipline as `evaluate` — and
/// returns its profile slice.
fn run_system(
    system: &mut qcp_core::search::Built<MetricsRecorder>,
    world: &SearchWorld,
    queries: &[qcp_core::search::QuerySpec],
    seed: u64,
) -> (String, usize, u64, u64) {
    let mut hits = 0u64;
    let mut messages = 0u64;
    for (i, q) in queries.iter().enumerate() {
        let mut rng = Pcg64::new(child_seed(seed, i as u64));
        let out = system.search(world, q, &mut rng);
        hits += u64::from(out.success);
        messages += out.messages;
    }
    (system.name(), queries.len(), hits, messages)
}

/// Computes the profile. Exposed (with an explicit pool) so the
/// determinism suite can fingerprint it across runs and thread counts;
/// [`profile`] is the rendering wrapper.
pub fn profile_data(r: &Repro, pool: &Pool) -> ProfileData {
    let sz = sizes(r);
    let world = SearchWorld::generate(&WorldConfig {
        num_peers: sz.peers,
        num_objects: sz.objects,
        num_terms: sz.terms,
        seed: r.seed ^ 0x9f0,
        ..Default::default()
    });
    let queries = gen_queries(
        &world,
        &WorkloadConfig {
            num_queries: sz.queries,
            seed: r.seed ^ 0x9f1,
        },
    );
    let plan = FaultPlan::build(
        world.num_peers(),
        &FaultConfig {
            loss: 0.10,
            churn: 0.10,
            horizon: (sz.queries as u64).max(1),
            mean_latency: 2,
            rejoin: true,
            seed: r.seed ^ 0x9f2,
        },
    );
    let ctx = |stream: u64| {
        FaultContext::new(
            plan.clone(),
            RetryPolicy::default(),
            child_seed(r.seed ^ 0x9f3, stream),
        )
    };

    // The five systems, each with a private recorder. Build order is
    // fixed; so is absorb order below.
    let specs = [
        SearchSpec::flood(3).faults(ctx(1)),
        SearchSpec::walk(4, 20).faults(ctx(2)),
        SearchSpec::expanding_ring(4).faults(ctx(3)),
        SearchSpec::hybrid(2, 5, r.seed ^ 0x4b1d).faults(ctx(4)),
        SearchSpec::dht_only(r.seed ^ 0xd47).faults(ctx(5)),
    ];
    let mut systems = Vec::with_capacity(specs.len());
    let mut master = MetricsRecorder::new();
    for spec in specs {
        let mut built = spec.recorder(MetricsRecorder::new()).build(&world);
        let (system, nq, hits, messages) = run_system(&mut built, &world, &queries, r.seed ^ 0x9f4);
        let recorder = built.into_recorder();
        // Reconciliation: the recorder is not a parallel bookkeeping
        // universe. Query-path messages recorded across all kernels must
        // equal the outcome stream's total, spans must count the spans
        // the system actually opened, and every query must land on
        // exactly one span outcome event.
        let recorded: u64 = Kernel::ALL
            .iter()
            .map(|&k| recorder.total(k, Counter::Messages))
            .sum();
        assert_eq!(
            recorded, messages,
            "{system}: recorded messages diverge from outcome messages"
        );
        let mut events = 0u64;
        for k in Kernel::ALL {
            for e in [Event::Hit, Event::Miss, Event::DeadSource] {
                events += recorder.event_count(k, e);
            }
        }
        assert!(
            events >= nq as u64,
            "{system}: fewer span outcomes than queries"
        );
        master.absorb(recorder.clone());
        systems.push(SystemProfile {
            system,
            queries: nq,
            hits,
            messages,
            recorder,
        });
    }

    // Chord maintenance: stabilize + fix-fingers rounds on a fresh ring
    // (the Stabilize kernel; probes are the fix-fingers bill).
    let mut net = ChordNetwork::new(sz.chord_nodes, r.seed ^ 0x9f5);
    let mut maint = MetricsRecorder::new();
    for _ in 0..sz.maintenance_rounds {
        net.stabilize_rec(&mut maint);
        net.fix_fingers_rec(&mut maint);
    }
    assert_eq!(
        maint.spans(Kernel::Stabilize),
        2 * sz.maintenance_rounds,
        "stabilize spans diverge from rounds"
    );
    master.absorb(maint);

    // Overlay repair under churn: kill every 4th node, repair for a few
    // rounds (the Repair kernel).
    let topo = erdos_renyi(sz.repair_nodes, 6.0, r.seed ^ 0x9f6);
    let alive: Vec<bool> = (0..sz.repair_nodes).map(|i| i % 4 != 0).collect();
    let policy = MaintenancePolicy::uniform(3, 8, 16, r.seed ^ 0x9f7);
    let mut graph = topo.graph;
    let mut rep = MetricsRecorder::new();
    for round in 0..sz.repair_rounds {
        let (repaired, stats) = repair_round(pool, &graph, &alive, &policy, round);
        stats.check_identity();
        rep.rec_span(Kernel::Repair);
        rep.rec_count(Kernel::Repair, Counter::Messages, stats.messages);
        rep.rec_count(Kernel::Repair, Counter::Probes, stats.probes);
        rep.rec_count(Kernel::Repair, Counter::Rewires, stats.added);
        rep.rec_count(Kernel::Repair, Counter::Pruned, stats.pruned);
        rep.rec_hop(Kernel::Repair, round as u32, stats.added);
        graph = repaired;
    }
    master.absorb(rep);

    // The merged identities, on the recorded side: repair's message
    // bill decomposes into probes + 2·added, and every DHT drop is
    // accounted as a retry or a timeout.
    assert_eq!(
        master.total(Kernel::Repair, Counter::Messages),
        master.total(Kernel::Repair, Counter::Probes)
            + 2 * master.total(Kernel::Repair, Counter::Rewires),
        "recorded repair identity violated"
    );
    let dht = master.fault_stats(Kernel::ChordLookup);
    assert_eq!(
        dht.dropped,
        dht.retries + dht.timeouts,
        "recorded DHT drop identity violated"
    );

    ProfileData { systems, master }
}

/// One kernel's breakdown as a JSON object (hand-written; the workspace
/// vendors no serde). Fixed schema: every counter and event key is
/// always present, so double runs are byte-comparable.
fn kernel_json(rec: &MetricsRecorder, kernel: Kernel) -> String {
    let mut s = String::new();
    let _ = write!(s, "{{\"spans\": {}, \"counters\": {{", rec.spans(kernel));
    for (i, c) in Counter::ALL.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{}\": {}", c.name(), rec.total(kernel, *c));
    }
    s.push_str("}, \"events\": {");
    for (i, e) in Event::ALL.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{}\": {}", e.name(), rec.event_count(kernel, *e));
    }
    s.push_str("}, \"hops\": [");
    for (i, w) in rec.hop_histogram(kernel).iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}{w}");
    }
    s.push_str("]}");
    s
}

/// The whole profile as deterministic JSON.
fn profile_json(r: &Repro, data: &ProfileData) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"experiment\": \"profile\",\n  \"scale\": \"{}\",\n  \"seed\": {},\n  \"kernels\": {{",
        scale_name(r.scale),
        r.seed,
    );
    for (i, k) in Kernel::ALL.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\n    \"{}\": {}",
            k.name(),
            kernel_json(&data.master, *k)
        );
    }
    s.push_str("\n  },\n  \"systems\": [");
    for (i, sys) in data.systems.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\n    {{\"system\": {:?}, \"queries\": {}, \"hits\": {}, \"messages\": {}, \
             \"kernel_messages\": {{",
            sys.system, sys.queries, sys.hits, sys.messages,
        );
        for (j, k) in Kernel::ALL.iter().enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {}",
                k.name(),
                sys.recorder.total(*k, Counter::Messages)
            );
        }
        s.push_str("}}");
    }
    s.push_str("\n  ]\n}\n");
    s
}

/// The per-kernel breakdown as a CSV table.
fn profile_table(rec: &MetricsRecorder) -> Table {
    let mut columns = vec!["kernel".to_string(), "spans".to_string()];
    columns.extend(Counter::ALL.iter().map(|c| c.name().to_string()));
    columns.extend(Event::ALL.iter().map(|e| e.name().to_string()));
    columns.push("hop_weight".to_string());
    let mut t = Table::new(columns);
    for k in Kernel::ALL {
        let mut row = vec![k.name().to_string(), rec.spans(k).to_string()];
        row.extend(Counter::ALL.iter().map(|&c| rec.total(k, c).to_string()));
        row.extend(
            Event::ALL
                .iter()
                .map(|&e| rec.event_count(k, e).to_string()),
        );
        row.push(rec.hop_weight(k).to_string());
        t.row(row);
    }
    t
}

/// The `repro profile` artifact: computes, reconciles, writes
/// `profile.json` + `profile.csv`, and renders the report.
pub fn profile(r: &Repro) -> String {
    let data = profile_data(r, Pool::global());

    r.write_csv("profile", &profile_table(&data.master));
    let json = profile_json(r, &data);
    let path = r.out_dir.join("profile.json");
    std::fs::write(&path, &json)
        // qcplint: allow(panic) — artifact write failure is fatal by design.
        .unwrap_or_else(|e| panic!("failed writing {}: {e}", path.display()));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "kernel breakdown ({} scale, seed {}):",
        scale_name(r.scale),
        r.seed
    );
    let _ = writeln!(
        out,
        "{:<16} {:>8} {:>12} {:>10} {:>10} {:>10}",
        "kernel", "spans", "messages", "dropped", "retries", "probes"
    );
    for k in Kernel::ALL {
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>12} {:>10} {:>10} {:>10}",
            k.name(),
            data.master.spans(k),
            data.master.total(k, Counter::Messages),
            data.master.total(k, Counter::Dropped),
            data.master.total(k, Counter::Retries),
            data.master.total(k, Counter::Probes),
        );
    }
    for sys in &data.systems {
        let _ = writeln!(
            out,
            "{}: {}/{} hits, {} messages (recorded == outcome, reconciled)",
            sys.system, sys.hits, sys.queries, sys.messages
        );
    }
    let _ = writeln!(
        out,
        "identities hold: repair messages = probes + 2*rewires; dht dropped = retries + timeouts"
    );
    let _ = writeln!(out, "wrote profile.csv and profile.json");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> Repro {
        let dir = std::env::temp_dir().join("qcp-profile-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        Repro::new(dir, Scale::Test)
    }

    #[test]
    fn profile_data_covers_every_kernel() {
        let r = session();
        let data = profile_data(&r, &Pool::new(2));
        for k in Kernel::ALL {
            assert!(
                data.master.spans(k) > 0,
                "kernel {} was never exercised",
                k.name()
            );
        }
        assert_eq!(data.systems.len(), 5);
        for sys in &data.systems {
            assert!(sys.messages > 0, "{} recorded no traffic", sys.system);
        }
    }

    #[test]
    fn profile_json_is_deterministic_and_pool_independent() {
        let r = session();
        let a = profile_json(&r, &profile_data(&r, &Pool::new(1)));
        let b = profile_json(&r, &profile_data(&r, &Pool::new(4)));
        assert_eq!(a, b, "profile must not depend on pool width or run");
        assert!(a.contains("\"chord_lookup\""));
        assert!(a.contains("\"kernel_messages\""));
    }

    #[test]
    fn csv_has_one_row_per_kernel() {
        let r = session();
        let t = profile_table(&profile_data(&r, &Pool::new(2)).master);
        assert_eq!(t.len(), Kernel::COUNT);
    }
}
