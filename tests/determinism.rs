//! Integration: the Figure 8 flood pipeline is a pure function of its
//! seed — bit-for-bit, not approximately.
//!
//! Two claims are pinned down, because they fail in different ways:
//!
//! 1. **Same seed, run twice → identical**: catches wall-clock/ambient
//!    randomness leaking into the pipeline (rule D1 of `cargo xtask
//!    lint`, verified dynamically here).
//! 2. **Same seed, 1-thread vs 4-thread pool → identical**: catches
//!    scheduling order leaking into results. Every trial derives its RNG
//!    from `(seed, trial_index)` and partial accumulators are integer
//!    sums, so chunking must not matter.
//!
//! Comparisons are on raw `f64` bits (`to_bits`), not approximate
//! equality: "close" would hide exactly the bugs this test exists for.

use qcp2p::overlay::topology::{gnutella_two_tier, TopologyConfig};
use qcp2p::overlay::{sweep_ttl, Placement, PlacementModel, SimConfig};
use qcp2p::xpar::Pool;

const N: usize = 2_000;
const TTLS: [u32; 4] = [1, 2, 3, 4];

fn topo() -> qcp2p::overlay::topology::Topology {
    gnutella_two_tier(&TopologyConfig {
        num_nodes: N,
        seed: 42,
        ..Default::default()
    })
}

fn sim(seed: u64) -> SimConfig {
    SimConfig {
        trials: 1_200,
        seed,
        ..Default::default()
    }
}

/// Runs the Figure-8 pipeline (both placement families) on `pool` and
/// returns every output as raw bits, so comparisons are exact.
fn fig8_fingerprint(pool: &Pool, seed: u64) -> Vec<(u32, u64, u64, u64)> {
    let t = topo();
    let fwd = t.forwarders();
    let mut out = Vec::new();
    for &k in &[1u32, 9] {
        let p = Placement::generate(
            PlacementModel::UniformK(k),
            N as u32,
            1_000,
            seed ^ k as u64,
        );
        for pt in sweep_ttl(pool, &t.graph, &p, Some(&fwd), &TTLS, &sim(seed)) {
            out.push((
                pt.ttl,
                pt.success_rate.to_bits(),
                pt.mean_messages.to_bits(),
                pt.mean_reach_fraction.to_bits(),
            ));
        }
    }
    let zipf = Placement::generate(
        PlacementModel::ZipfReplicas { tau: 2.05 },
        N as u32,
        1_000,
        seed ^ 0x21f,
    );
    for pt in sweep_ttl(pool, &t.graph, &zipf, Some(&fwd), &TTLS, &sim(seed)) {
        out.push((
            pt.ttl,
            pt.success_rate.to_bits(),
            pt.mean_messages.to_bits(),
            pt.mean_reach_fraction.to_bits(),
        ));
    }
    out
}

#[test]
fn same_seed_same_pool_is_bit_identical() {
    let pool = Pool::new(4);
    let a = fig8_fingerprint(&pool, 0xf18);
    let b = fig8_fingerprint(&pool, 0xf18);
    assert_eq!(a, b, "same seed must reproduce bit-identical results");
}

#[test]
fn one_thread_and_four_threads_agree_bitwise() {
    let serial = Pool::new(1);
    let parallel = Pool::new(4);
    let a = fig8_fingerprint(&serial, 0xf18);
    let b = fig8_fingerprint(&parallel, 0xf18);
    assert_eq!(
        a, b,
        "pool width must not leak into results: trials are seeded per \
         index and reduced with integer sums"
    );
}

#[test]
fn different_seeds_actually_differ() {
    // Guard against the fingerprint being trivially constant (which would
    // make the two tests above vacuous).
    let pool = Pool::new(2);
    let a = fig8_fingerprint(&pool, 0xf18);
    let b = fig8_fingerprint(&pool, 0xf19);
    assert_ne!(a, b, "fingerprint must be sensitive to the seed");
}

// ---------------------------------------------------------------------
// Census vs reference: `sweep_ttl` runs ONE hop-census flood per trial
// and reconstructs every TTL point from prefix snapshots; the reference
// path floods once per (trial, TTL). Both consume the same trial stream
// (RNG keyed by trial alone — common random numbers across TTLs), so
// they must agree bit for bit, faults included.
// ---------------------------------------------------------------------

use qcp2p::faults::{FaultConfig, FaultPlan};
use qcp2p::overlay::{sweep_reference, sweep_ttl_faulty};

#[test]
fn census_sweep_equals_reference_sweep_bitwise() {
    let t = topo();
    let fwd = t.forwarders();
    let pool = Pool::new(2);
    let zipf = Placement::generate(
        PlacementModel::ZipfReplicas { tau: 2.05 },
        N as u32,
        1_000,
        7,
    );
    let census = sweep_ttl(&pool, &t.graph, &zipf, Some(&fwd), &TTLS, &sim(0xf18));
    let reference = sweep_reference(&pool, &t.graph, &zipf, Some(&fwd), &TTLS, &sim(0xf18), None);
    assert_eq!(census.len(), reference.len());
    for (c, r) in census.iter().zip(&reference) {
        assert_eq!(c.ttl, r.ttl);
        assert_eq!(c.success_rate.to_bits(), r.success_rate.to_bits());
        assert_eq!(c.mean_reached.to_bits(), r.mean_reached.to_bits());
        assert_eq!(c.mean_messages.to_bits(), r.mean_messages.to_bits());
        assert_eq!(
            c.mean_reach_fraction.to_bits(),
            r.mean_reach_fraction.to_bits()
        );
    }
}

#[test]
fn faulty_census_sweep_equals_reference_sweep_bitwise() {
    let t = topo();
    let fwd = t.forwarders();
    let pool = Pool::new(2);
    let zipf = Placement::generate(
        PlacementModel::ZipfReplicas { tau: 2.05 },
        N as u32,
        1_000,
        7,
    );
    let cfg = SimConfig {
        trials: 400,
        seed: 0xf18,
        ..Default::default()
    };
    let plan = FaultPlan::build(
        N,
        &FaultConfig {
            loss: 0.10,
            churn: 0.20,
            seed: 0xabc,
            ..Default::default()
        },
    );
    let census = sweep_ttl_faulty(&pool, &t.graph, &zipf, Some(&fwd), &TTLS, &cfg, &plan);
    let reference = sweep_reference(&pool, &t.graph, &zipf, Some(&fwd), &TTLS, &cfg, Some(&plan));
    assert_eq!(census.len(), reference.len());
    for (c, r) in census.iter().zip(&reference) {
        assert_eq!(c.ttl, r.ttl);
        assert_eq!(c.success_rate.to_bits(), r.success_rate.to_bits());
        assert_eq!(c.mean_messages.to_bits(), r.mean_messages.to_bits());
        assert_eq!(c.faults(), r.faults(), "ttl {}", c.ttl);
        assert_eq!(c.dead_sources, r.dead_sources);
    }
    // Guard: the plan must actually fire, or the pin is vacuous.
    assert!(census.iter().any(|c| c.faults().dropped > 0));
}

// ---------------------------------------------------------------------
// fig8-churn: the fault-injected grid obeys the same contract. Fault
// draws are stateless hashes of (plan seed, edge, nonce, message index)
// and fault nonces live on their own seed stream, so neither thread
// width nor the presence of a plan may perturb a single bit.
// ---------------------------------------------------------------------

use qcp_bench::fig8churn::{fig8_churn_data, Fig8ChurnCell};
use qcp_bench::{Repro, Scale};

fn churn_session() -> Repro {
    let mut r = Repro::new(std::env::temp_dir().join("qcp-determinism"), Scale::Test);
    r.trials = 40;
    r.seed = 0xf8c;
    r
}

/// Every f64 as raw bits + every integer counter, in grid order.
fn churn_fingerprint(grid: &[Fig8ChurnCell]) -> Vec<u64> {
    let mut out = Vec::new();
    for cell in grid {
        out.push(cell.loss.to_bits());
        out.push(cell.churn.to_bits());
        for fp in &cell.flood {
            out.push(fp.ttl as u64);
            out.push(fp.success_rate.to_bits());
            out.push(fp.mean_messages.to_bits());
            out.push(fp.mean_reach_fraction.to_bits());
            out.push(fp.faults().dropped);
            out.push(fp.faults().dead_targets);
            out.push(fp.faults().ticks);
            out.push(fp.dead_sources);
        }
        for row in &cell.systems {
            out.push(row.success_rate.to_bits());
            out.push(row.mean_messages.to_bits());
            out.push(row.mean_success_hops.to_bits());
            out.push(row.faults.dropped);
            out.push(row.faults.dead_targets);
            out.push(row.faults.retries);
            out.push(row.faults.timeouts);
            out.push(row.faults.stale_misses);
            out.push(row.faults.ticks);
        }
    }
    out
}

#[test]
fn fig8_churn_same_seed_is_bit_identical() {
    let r = churn_session();
    let pool = Pool::new(2);
    let a = churn_fingerprint(&fig8_churn_data(&r, &pool));
    let b = churn_fingerprint(&fig8_churn_data(&r, &pool));
    assert_eq!(a, b, "fig8-churn must reproduce bit-identical results");
}

#[test]
fn fig8_churn_thread_width_does_not_leak() {
    let r = churn_session();
    let a = churn_fingerprint(&fig8_churn_data(&r, &Pool::new(1)));
    let b = churn_fingerprint(&fig8_churn_data(&r, &Pool::new(4)));
    assert_eq!(
        a, b,
        "fault draws are stateless hashes keyed per trial; pool width \
         must not perturb them"
    );
}

#[test]
fn fig8_churn_zero_fault_cell_reproduces_fig8() {
    // The (loss=0, churn=0) cell must equal the fault-free Figure-8 Zipf
    // sweep bit-for-bit: fault nonces are drawn from a separate seed
    // stream, so the trial RNGs consume identical randomness.
    let r = churn_session();
    let pool = Pool::new(2);
    let grid = fig8_churn_data(&r, &pool);
    let clean = grid
        .iter()
        .find(|c| c.loss == 0.0 && c.churn == 0.0)
        .expect("grid contains the fault-free cell");
    assert_eq!(
        clean.flood.iter().map(|f| f.faults().dropped).sum::<u64>(),
        0
    );
    assert_eq!(clean.flood.iter().map(|f| f.dead_sources).sum::<u64>(), 0);

    let topo = gnutella_two_tier(&qcp_bench::figures::fig8_topology(Scale::Test));
    let fwd = topo.forwarders();
    let n = topo.graph.num_nodes() as u32;
    let placement = Placement::generate(
        PlacementModel::ZipfReplicas { tau: 2.05 },
        n,
        (n / 2).max(1_000),
        r.seed ^ 0x21f,
    );
    let sim = SimConfig {
        trials: r.trials,
        seed: r.seed,
        ..Default::default()
    };
    let plain = sweep_ttl(
        &pool,
        &topo.graph,
        &placement,
        Some(&fwd),
        &[1, 2, 3, 4, 5],
        &sim,
    );
    assert_eq!(plain.len(), clean.flood.len());
    for (p, f) in plain.iter().zip(&clean.flood) {
        assert_eq!(p.ttl, f.ttl);
        assert_eq!(
            p.success_rate.to_bits(),
            f.success_rate.to_bits(),
            "ttl {}: zero-fault success must match fig8 exactly",
            p.ttl
        );
        assert_eq!(p.mean_messages.to_bits(), f.mean_messages.to_bits());
        assert_eq!(
            p.mean_reach_fraction.to_bits(),
            f.mean_reach_fraction.to_bits()
        );
    }
}

// ---------------------------------------------------------------------
// fig8-repl: the replication counterfactual rides the same contract.
// Replication draws are stateless hashes of (plan seed, stream tag,
// copy index) applied before any sweep runs, so neither thread width
// nor the presence of a plan may perturb a single bit — and the
// owner-only anchor must be bitwise the fault-free Figure-8 Zipf curve.
// ---------------------------------------------------------------------

use qcp2p::overlay::{ReplicationPlan, ReplicationScheme};
use qcp_bench::fig8repl::{fig8_repl_data, Fig8ReplCell};

fn repl_session() -> Repro {
    let mut r = Repro::new(std::env::temp_dir().join("qcp-determinism"), Scale::Test);
    r.trials = 40;
    r.seed = 0xf18;
    r
}

/// Every f64 as raw bits + every integer, in grid order.
fn repl_fingerprint(cells: &[Fig8ReplCell]) -> Vec<u64> {
    let mut out = Vec::new();
    for cell in cells {
        out.push(cell.budget);
        out.push(cell.mean_replicas.to_bits());
        out.push(cell.max_replicas as u64);
        for fp in &cell.curve {
            out.push(fp.ttl as u64);
            out.push(fp.success_rate.to_bits());
            out.push(fp.mean_messages.to_bits());
            out.push(fp.mean_reach_fraction.to_bits());
        }
    }
    out
}

#[test]
fn fig8_repl_same_seed_is_bit_identical() {
    let r = repl_session();
    let pool = Pool::new(2);
    let a = repl_fingerprint(&fig8_repl_data(&r, &pool));
    let b = repl_fingerprint(&fig8_repl_data(&r, &pool));
    assert_eq!(a, b, "fig8-repl must reproduce bit-identical results");
}

#[test]
fn fig8_repl_thread_width_does_not_leak() {
    let r = repl_session();
    let a = repl_fingerprint(&fig8_repl_data(&r, &Pool::new(1)));
    let b = repl_fingerprint(&fig8_repl_data(&r, &Pool::new(4)));
    assert_eq!(
        a, b,
        "replication is applied before the sweep and draws are stateless \
         hashes; pool width must not perturb the grid"
    );
}

#[test]
fn fig8_repl_owner_only_cell_reproduces_fig8() {
    // The owner-only anchor must equal the fault-free Figure-8 Zipf
    // sweep bit for bit: `ReplicationPlan::owner_only` clones the base
    // placement and the sweep consumes identical trial streams.
    let r = repl_session();
    let pool = Pool::new(2);
    let cells = fig8_repl_data(&r, &pool);
    let anchor = &cells[0];
    assert_eq!(anchor.scheme, ReplicationScheme::OwnerOnly);
    assert_eq!(anchor.budget, 0);

    let topo = gnutella_two_tier(&qcp_bench::figures::fig8_topology(Scale::Test));
    let fwd = topo.forwarders();
    let n = topo.graph.num_nodes() as u32;
    let placement = Placement::generate(
        PlacementModel::ZipfReplicas { tau: 2.05 },
        n,
        (n / 2).max(1_000),
        r.seed ^ 0x21f,
    );
    let sim = SimConfig {
        trials: r.trials,
        seed: r.seed,
        ..Default::default()
    };
    let plain = sweep_ttl(
        &pool,
        &topo.graph,
        &placement,
        Some(&fwd),
        &[1, 2, 3, 4, 5],
        &sim,
    );
    assert_eq!(plain.len(), anchor.curve.len());
    for (p, f) in plain.iter().zip(&anchor.curve) {
        assert_eq!(p.ttl, f.ttl);
        assert_eq!(
            p.success_rate.to_bits(),
            f.success_rate.to_bits(),
            "ttl {}: owner-only success must match fig8 exactly",
            p.ttl
        );
        assert_eq!(p.mean_messages.to_bits(), f.mean_messages.to_bits());
        assert_eq!(
            p.mean_reach_fraction.to_bits(),
            f.mean_reach_fraction.to_bits()
        );
    }
    // Guard: replication actually bites somewhere (at the reference
    // TTL 3, where the curve is far from saturation), or the pins above
    // could pass on a grid of identical cells.
    let base_ttl3 = anchor.curve[2].success_rate;
    assert!(
        cells
            .iter()
            .any(|c| c.budget > 0 && c.curve[2].success_rate > base_ttl3),
        "guard: some budget cell must beat the owner-only anchor at ttl 3"
    );
}

// ---------------------------------------------------------------------
// soak: the self-healing recovery experiment rides the same contract.
// Repair draws are keyed by (policy seed, node, round), ring sync and
// re-replication walk sorted structures, and every epoch's measurement
// plan is a frozen snapshot — so soak must be bit-identical across runs
// and pool widths, and its epoch-0 baselines must be bitwise the
// fig8-churn cells (zero maintenance == plain churn grid).
// ---------------------------------------------------------------------

use qcp_bench::soak::{soak_data, SoakCell};

/// Every f64 as raw bits + every integer counter, in cell/epoch/round order.
fn soak_fingerprint(cells: &[SoakCell]) -> Vec<u64> {
    let mut out = Vec::new();
    let push_round = |out: &mut Vec<u64>, round: &qcp_bench::soak::SoakRound| {
        out.push(round.round);
        for fp in &round.flood {
            out.push(fp.ttl as u64);
            out.push(fp.success_rate.to_bits());
            out.push(fp.mean_messages.to_bits());
            out.push(fp.mean_reach_fraction.to_bits());
            out.push(fp.faults().dropped);
            out.push(fp.faults().dead_targets);
            out.push(fp.faults().ticks);
            out.push(fp.dead_sources);
        }
        out.extend([
            round.repair.pruned,
            round.repair.deficient,
            round.repair.probes,
            round.repair.added,
            round.repair.messages,
            round.ring_messages,
            round.stale_entries,
            round.lookups_ok,
            round.lookup_total,
            round.stale_misses,
            round.rereplication_messages,
            round.components,
            round.largest_fraction.to_bits(),
            round.alive_fraction.to_bits(),
        ]);
    };
    for cell in cells {
        out.push(cell.loss.to_bits());
        out.push(cell.churn.to_bits());
        push_round(&mut out, &cell.baseline);
        for epoch in &cell.epochs {
            out.push(epoch.epoch);
            out.push(epoch.tick);
            out.push(epoch.sync_messages);
            for round in &epoch.rounds {
                push_round(&mut out, round);
            }
        }
    }
    out
}

#[test]
fn soak_same_seed_is_bit_identical() {
    let r = churn_session();
    let pool = Pool::new(2);
    let a = soak_fingerprint(&soak_data(&r, &pool));
    let b = soak_fingerprint(&soak_data(&r, &pool));
    assert_eq!(a, b, "soak must reproduce bit-identical results");
}

#[test]
fn soak_thread_width_does_not_leak() {
    let r = churn_session();
    let a = soak_fingerprint(&soak_data(&r, &Pool::new(1)));
    let b = soak_fingerprint(&soak_data(&r, &Pool::new(4)));
    assert_eq!(
        a, b,
        "repair proposals merge chunk-ordered and apply serially; pool \
         width must not perturb a single bit"
    );
}

#[test]
fn soak_baselines_are_bitwise_fig8_churn_cells() {
    // Zero maintenance reduces to the plain churn grid: every soak cell's
    // epoch-0 baseline flood curve must be bitwise the fig8-churn cell at
    // the same (loss, churn) — same topology, placement, plan seed, and
    // trial streams, with no repair applied.
    let r = churn_session();
    let pool = Pool::new(2);
    let grid = fig8_churn_data(&r, &pool);
    let cells = soak_data(&r, &pool);
    for cell in &cells {
        let reference = grid
            .iter()
            .find(|c| c.loss == cell.loss && c.churn == cell.churn)
            .expect("every soak cell is a fig8-churn cell");
        assert_eq!(cell.baseline.round, 0);
        assert_eq!(cell.baseline.repair, Default::default());
        assert_eq!(cell.baseline.flood.len(), reference.flood.len());
        for (s, f) in cell.baseline.flood.iter().zip(&reference.flood) {
            assert_eq!(s.ttl, f.ttl);
            assert_eq!(
                s.success_rate.to_bits(),
                f.success_rate.to_bits(),
                "loss {} churn {} ttl {}: baseline must match fig8-churn",
                cell.loss,
                cell.churn,
                s.ttl
            );
            assert_eq!(s.mean_messages.to_bits(), f.mean_messages.to_bits());
            assert_eq!(
                s.mean_reach_fraction.to_bits(),
                f.mean_reach_fraction.to_bits()
            );
            assert_eq!(s.faults(), f.faults());
            assert_eq!(s.dead_sources, f.dead_sources);
        }
    }
}

#[test]
fn soak_zero_fault_cell_reproduces_fig8() {
    // Transitivity check made explicit: the soak (0, 0) baseline equals
    // the fault-free Figure-8 Zipf sweep bit for bit.
    let r = churn_session();
    let pool = Pool::new(2);
    let cells = soak_data(&r, &pool);
    let clean = cells
        .iter()
        .find(|c| c.loss == 0.0 && c.churn == 0.0)
        .expect("soak includes the fault-free anchor cell");

    let topo = gnutella_two_tier(&qcp_bench::figures::fig8_topology(Scale::Test));
    let fwd = topo.forwarders();
    let n = topo.graph.num_nodes() as u32;
    let placement = Placement::generate(
        PlacementModel::ZipfReplicas { tau: 2.05 },
        n,
        (n / 2).max(1_000),
        r.seed ^ 0x21f,
    );
    let sim = SimConfig {
        trials: r.trials,
        seed: r.seed,
        ..Default::default()
    };
    let plain = sweep_ttl(
        &pool,
        &topo.graph,
        &placement,
        Some(&fwd),
        &[1, 2, 3, 4, 5],
        &sim,
    );
    assert_eq!(plain.len(), clean.baseline.flood.len());
    for (p, f) in plain.iter().zip(&clean.baseline.flood) {
        assert_eq!(p.ttl, f.ttl);
        assert_eq!(p.success_rate.to_bits(), f.success_rate.to_bits());
        assert_eq!(p.mean_messages.to_bits(), f.mean_messages.to_bits());
        assert_eq!(
            p.mean_reach_fraction.to_bits(),
            f.mean_reach_fraction.to_bits()
        );
    }
}

#[test]
fn fig8_churn_faults_actually_bite() {
    // Guard: the heaviest cell must differ from the clean one, otherwise
    // the identity tests above could pass on a plan that never fires.
    let r = churn_session();
    let pool = Pool::new(2);
    let grid = fig8_churn_data(&r, &pool);
    let clean = &grid[0];
    let worst = grid
        .iter()
        .max_by(|a, b| (a.loss + a.churn).total_cmp(&(b.loss + b.churn)))
        .expect("nonempty grid");
    assert!(worst.flood.iter().any(|f| f.faults().dropped > 0));
    assert_ne!(
        churn_fingerprint(std::slice::from_ref(clean)),
        churn_fingerprint(std::slice::from_ref(worst))
    );
}

// ---------------------------------------------------------------------
// profile + recorder: the observability layer rides the same contract.
// Recorders are write-only (no kernel consults recorder state), so
// recording ON vs OFF must leave every simulation output bit-identical;
// recorded totals merge chunk-ordered, so pool width must not perturb
// the profile either.
// ---------------------------------------------------------------------

use qcp2p::obs::{Counter, Kernel, MetricsRecorder, NoopRecorder};
use qcp2p::overlay::{sweep_ttl_faulty_rec, sweep_ttl_rec};
use qcp_bench::profile::{profile_data, ProfileData};

#[test]
fn recording_on_vs_off_is_bit_identical() {
    let t = topo();
    let fwd = t.forwarders();
    let pool = Pool::new(2);
    let zipf = Placement::generate(
        PlacementModel::ZipfReplicas { tau: 2.05 },
        N as u32,
        1_000,
        7,
    );
    let cfg = SimConfig {
        trials: 400,
        seed: 0xf18,
        ..Default::default()
    };
    let mut noop = NoopRecorder;
    let mut metrics = MetricsRecorder::new();
    let off = sweep_ttl_rec(&pool, &t.graph, &zipf, Some(&fwd), &TTLS, &cfg, &mut noop);
    let on = sweep_ttl_rec(
        &pool,
        &t.graph,
        &zipf,
        Some(&fwd),
        &TTLS,
        &cfg,
        &mut metrics,
    );
    let plain = sweep_ttl(&pool, &t.graph, &zipf, Some(&fwd), &TTLS, &cfg);
    assert_eq!(off, on, "recording must not perturb the sweep");
    assert_eq!(plain, on, "the recorded sweep must equal the plain sweep");
    assert!(
        metrics.total(Kernel::Flood, Counter::Messages) > 0,
        "guard: the recorder must actually have recorded traffic"
    );

    // Faulty path: same claim with a live fault plan.
    let plan = FaultPlan::build(
        N,
        &FaultConfig {
            loss: 0.10,
            churn: 0.20,
            seed: 0xabc,
            ..Default::default()
        },
    );
    let mut noop = NoopRecorder;
    let mut metrics = MetricsRecorder::new();
    let off = sweep_ttl_faulty_rec(
        &pool,
        &t.graph,
        &zipf,
        Some(&fwd),
        &TTLS,
        &cfg,
        &plan,
        &mut noop,
    );
    let on = sweep_ttl_faulty_rec(
        &pool,
        &t.graph,
        &zipf,
        Some(&fwd),
        &TTLS,
        &cfg,
        &plan,
        &mut metrics,
    );
    let plain = sweep_ttl_faulty(&pool, &t.graph, &zipf, Some(&fwd), &TTLS, &cfg, &plan);
    assert_eq!(off, on, "recording must not perturb the faulty sweep");
    assert_eq!(
        plain, on,
        "the recorded faulty sweep must equal the plain one"
    );
    assert!(
        metrics.fault_stats(Kernel::Flood).dropped > 0,
        "guard: the plan must actually fire into the recorder"
    );
}

fn profile_session() -> qcp_bench::Repro {
    let mut r = qcp_bench::Repro::new(std::env::temp_dir().join("qcp-determinism"), Scale::Test);
    r.trials = 120;
    r.seed = 0x0b5;
    r
}

/// Everything the profile emits, flattened: per-kernel spans, the full
/// counter matrix, event tallies, hop histograms, and per-system totals.
fn profile_fingerprint(data: &ProfileData) -> Vec<u64> {
    let mut out = Vec::new();
    for k in Kernel::ALL {
        out.push(data.master.spans(k));
        for c in Counter::ALL {
            out.push(data.master.total(k, c));
        }
        for e in qcp2p::obs::Event::ALL {
            out.push(data.master.event_count(k, e));
        }
        out.extend(data.master.hop_histogram(k).iter().copied());
    }
    for sys in &data.systems {
        out.push(sys.queries as u64);
        out.push(sys.hits);
        out.push(sys.messages);
    }
    out
}

#[test]
fn profile_same_seed_is_bit_identical() {
    let r = profile_session();
    let pool = Pool::new(2);
    let a = profile_fingerprint(&profile_data(&r, &pool));
    let b = profile_fingerprint(&profile_data(&r, &pool));
    assert_eq!(a, b, "profile must reproduce bit-identical results");
}

#[test]
fn profile_thread_width_does_not_leak() {
    let r = profile_session();
    let a = profile_fingerprint(&profile_data(&r, &Pool::new(1)));
    let b = profile_fingerprint(&profile_data(&r, &Pool::new(4)));
    assert_eq!(
        a, b,
        "recorders fork per chunk and absorb in chunk order; pool width \
         must not perturb the profile"
    );
}

// ---------------------------------------------------------------------
// vtime + latency: the event-driven engine rides the same contract. At
// unit latency with no cutoff the calendar drains deliveries in exact
// BFS level order, so the event flood must be bitwise the PR-3 hop
// census — pinned here at the paper's 40,000-node topology. The
// `repro latency` deadline grid must be bit-identical across runs,
// pool widths, and recording on/off.
// ---------------------------------------------------------------------

use qcp2p::obs::Event;
use qcp2p::overlay::flood::{FloodEngine, FloodFaults, FloodSpec};
use qcp2p::overlay::EventEngine;
use qcp_bench::latency::{latency_data, latency_data_recorded};

#[test]
fn event_flood_at_forty_thousand_nodes_is_bitwise_the_census() {
    // Scale::Default and Scale::Paper share the 40k Figure-8 topology.
    let topo = gnutella_two_tier(&qcp_bench::figures::fig8_topology(Scale::Default));
    let n = topo.graph.num_nodes();
    assert_eq!(n, 40_000, "the pin must run at the paper's full scale");
    let fwd = topo.forwarders();
    let holders: Vec<u32> = (0..n as u32)
        .filter(|&v| qcp2p::util::hash::mix64(0x40aa ^ v as u64).is_multiple_of(997))
        .collect();
    assert!(
        holders.len() > 10,
        "guard: the holder set must be nontrivial"
    );
    let plan = FaultPlan::none(n);
    let faults = FloodFaults {
        plan: &plan,
        time: 0,
        nonce: 0x40aa,
    };
    let max_ttl = 6;
    // One engine across every run: its arena reset must leave no trace.
    let mut events = EventEngine::new();
    for source in [0u32, 17_321] {
        let mut engine = FloodEngine::new(n);
        let census = engine
            .run(
                &topo.graph,
                source,
                &holders,
                Some(&fwd),
                &FloodSpec::new(max_ttl),
                &mut NoopRecorder,
            )
            .0;
        for ttl in 0..=max_ttl {
            let (out, stats, _) = events.flood(
                &topo.graph,
                source,
                ttl,
                &holders,
                Some(&fwd),
                faults,
                None,
                None,
                &mut NoopRecorder,
            );
            assert_eq!(
                out.flood,
                census.at(ttl),
                "source {source} ttl {ttl}: event flood diverged from census"
            );
            assert!(!out.truncated, "no cutoff was requested");
            assert_eq!(
                out.first_hit_time,
                out.flood.found_at_hop.map(u64::from),
                "unit latency: a hit at hop h is a hit at tick h"
            );
            assert_eq!(stats.dropped, 0, "the none-plan must not fire");
        }
        // The rare-query hit counter agrees with the synchronous engine.
        let (out, _, _) = events.flood(
            &topo.graph,
            source,
            max_ttl,
            &holders,
            Some(&fwd),
            faults,
            None,
            None,
            &mut NoopRecorder,
        );
        assert_eq!(out.holders_reached, engine.hits_in_last_flood(&holders));
    }
}

fn latency_session() -> Repro {
    let mut r = Repro::new(std::env::temp_dir().join("qcp-determinism"), Scale::Test);
    r.trials = 40;
    r.seed = 0x1a7;
    r
}

#[test]
fn latency_grid_same_seed_is_bit_identical() {
    let r = latency_session();
    let pool = Pool::new(2);
    let a = latency_data(&r, &pool);
    let b = latency_data(&r, &pool);
    assert_eq!(a, b, "repro latency must reproduce bit-identical results");
    // Guard: deadlines actually bite somewhere, or the pin is vacuous.
    assert!(
        a.iter()
            .flat_map(|c| &c.systems)
            .any(|s| s.deadline_misses > 0),
        "guard: the deadline must end some query"
    );
}

#[test]
fn latency_grid_thread_width_does_not_leak() {
    let r = latency_session();
    let a = latency_data(&r, &Pool::new(1));
    let b = latency_data(&r, &Pool::new(4));
    assert_eq!(
        a, b,
        "cells are pure functions of (seed, cell index); pool width must \
         not perturb the grid"
    );
}

#[test]
fn latency_grid_recording_on_vs_off_is_bit_identical() {
    let r = latency_session();
    let pool = Pool::new(2);
    let off = latency_data(&r, &pool);
    let (on, master) = latency_data_recorded(&r, &pool);
    assert_eq!(off, on, "recording must not perturb the deadline grid");
    // The master recorder reconciles with the outcome stream: one
    // DeadlineExceeded event per clock-ended query, and the
    // time-to-first-hit histogram is actually populated.
    let misses: u64 = off
        .iter()
        .flat_map(|c| &c.systems)
        .map(|s| s.deadline_misses)
        .sum();
    let events: u64 = Kernel::ALL
        .iter()
        .map(|&k| master.event_count(k, Event::DeadlineExceeded))
        .sum();
    assert_eq!(events, misses, "recorded deadline misses must reconcile");
    let time_mass: u64 = Kernel::ALL.iter().map(|&k| master.time_weight(k)).sum();
    assert!(time_mass > 0, "guard: rec_time must see first-hit ticks");
}

// ---------------------------------------------------------------------
// The 40k golden pin: Figure-8 census numbers captured BEFORE the
// memory-layout refactor (streaming CSR topology build, packed
// placement, visited-set representations, census buffer reuse). Every
// future representation swap must leave these exact bits alone — this
// is the issue's non-negotiable contract, stronger than the
// self-consistency pins above because it detects a drift that changes
// both sides of an internal comparison at once.
// ---------------------------------------------------------------------

/// Captured from the pre-refactor pipeline: per TTL ∈ {1..5}, the bit
/// patterns of (success_rate, mean_messages, mean_reach_fraction,
/// mean_reached) for the 40k two-tier Figure-8 census sweep below.
const GOLDEN_40K_CURVE: [u64; 20] = [
    0x0000000000000000,
    0x401a570a3d70a3d7,
    0x3f28dac258d5842b,
    0x401e570a3d70a3d7,
    0x0000000000000000,
    0x405d26147ae147ae,
    0x3f673b42cc2d6a9c,
    0x405c5bd70a3d70a4,
    0x3fa70a3d70a3d70a,
    0x4092a49eb851eb85,
    0x3f9cce67d77fae35,
    0x409194fae147ae14,
    0x3fd3d70a3d70a3d7,
    0x40c5d40000000000,
    0x3fccb913e81450ef,
    0x40c187f666666666,
    0x3fed1eb851eb851f,
    0x40f24cc23d70a3d7,
    0x3feab25247cb70ac,
    0x40e04b56b851eb85,
];

/// Runs the golden workload and flattens the curve to bit patterns.
fn golden_40k_curve<R: qcp2p::obs::Recorder>(pool: &Pool, rec: &mut R) -> Vec<u64> {
    let topo = gnutella_two_tier(&qcp_bench::figures::fig8_topology(Scale::Default));
    let n = topo.graph.num_nodes();
    let fwd = topo.forwarders();
    let placement = Placement::generate(
        PlacementModel::ZipfReplicas { tau: 2.05 },
        n as u32,
        (n as u32 / 2).max(1_000),
        2024 ^ 0x21f,
    );
    let sim = SimConfig {
        trials: 200,
        seed: 0xf18,
        ..Default::default()
    };
    let pts = sweep_ttl_rec(
        pool,
        &topo.graph,
        &placement,
        Some(&fwd),
        &[1, 2, 3, 4, 5],
        &sim,
        rec,
    );
    let mut bits = Vec::with_capacity(pts.len() * 4);
    for pt in &pts {
        bits.push(pt.success_rate.to_bits());
        bits.push(pt.mean_messages.to_bits());
        bits.push(pt.mean_reach_fraction.to_bits());
        bits.push(pt.mean_reached.to_bits());
    }
    bits
}

#[test]
fn forty_thousand_node_graph_matches_pre_refactor_shape() {
    // The streamed CSR build must reproduce the historical edge-list
    // build exactly: same edge count, same degrees, same neighbor
    // *order* (walks index neighbor lists by position, so order is
    // load-bearing).
    let topo = gnutella_two_tier(&qcp_bench::figures::fig8_topology(Scale::Default));
    let g = &topo.graph;
    assert_eq!(g.num_edges(), 131_969);
    for (node, degree) in [
        (0, 22),
        (1, 28),
        (17, 22),
        (5_999, 21),
        (6_000, 3),
        (39_999, 3),
    ] {
        assert_eq!(g.degree(node), degree, "degree of node {node}");
    }
    let mut h = 0xcbf29ce484222325u64;
    for node in [0u32, 1, 17, 5_999, 6_000, 39_999] {
        for &w in g.neighbors(node) {
            h = (h ^ w as u64).wrapping_mul(0x100000001b3);
        }
    }
    assert_eq!(
        h, 0xd25644539e714a7c,
        "neighbor order drifted from the pre-refactor graph"
    );
}

#[test]
fn forty_thousand_node_census_matches_pre_refactor_golden() {
    // Same seed, 1- vs 4-thread, recording on and off: all four cells
    // must hit the captured constants exactly.
    for threads in [1usize, 4] {
        let pool = Pool::new(threads);
        let plain = golden_40k_curve(&pool, &mut NoopRecorder);
        assert_eq!(
            plain,
            GOLDEN_40K_CURVE.to_vec(),
            "{threads}-thread unrecorded curve drifted from the golden capture"
        );
        let mut metrics = MetricsRecorder::new();
        let recorded = golden_40k_curve(&pool, &mut metrics);
        assert_eq!(
            recorded,
            GOLDEN_40K_CURVE.to_vec(),
            "{threads}-thread recorded curve drifted from the golden capture"
        );
        assert!(
            metrics.total(Kernel::Flood, Counter::Messages) > 0,
            "guard: the recorder must actually have recorded traffic"
        );
    }
}

// ---------------------------------------------------------------------
// overload: the capacity layer rides the same contract. The `repro
// overload` grid must be bit-identical across runs, pool widths, and
// recording on/off — and its trailing unlimited-capacity baseline cell
// must be byte-identical to `repro latency` cell 0 (same world, same
// fault plan, same streams; the overload layer adds nothing when
// capacity is unbounded).
// ---------------------------------------------------------------------

use qcp_bench::overload::{overload_data, overload_data_recorded, BASELINE};

#[test]
fn overload_grid_same_seed_is_bit_identical() {
    let r = latency_session();
    let pool = Pool::new(2);
    let a = overload_data(&r, &pool);
    let b = overload_data(&r, &pool);
    assert_eq!(a, b, "repro overload must reproduce bit-identical results");
    // Guards: the capacity layer actually bites somewhere, at both ends
    // of the pipeline, or the pin is vacuous.
    assert!(
        a.iter().flat_map(|c| &c.systems).any(|s| s.shed > 0),
        "guard: some cell must shed queued work"
    );
    assert!(
        a.iter()
            .flat_map(|c| &c.systems)
            .any(|s| s.admission_rejected > 0),
        "guard: some cell must refuse ingress"
    );
}

#[test]
fn overload_grid_thread_width_does_not_leak() {
    let r = latency_session();
    let a = overload_data(&r, &Pool::new(1));
    let b = overload_data(&r, &Pool::new(4));
    assert_eq!(
        a, b,
        "cells are pure functions of (seed, cell index); pool width must \
         not perturb the grid"
    );
}

#[test]
fn overload_grid_recording_on_vs_off_is_bit_identical() {
    let r = latency_session();
    let pool = Pool::new(2);
    let off = overload_data(&r, &pool);
    let (on, master) = overload_data_recorded(&r, &pool);
    assert_eq!(off, on, "recording must not perturb the overload grid");
    // Per-system reconciliation runs inside overload_data_recorded;
    // here, pin the master's aggregate mass: the shed counter and the
    // queue-length histogram must both be populated.
    let shed: u64 = off.iter().flat_map(|c| &c.systems).map(|s| s.shed).sum();
    let recorded_shed: u64 = Kernel::ALL
        .iter()
        .map(|&k| master.total(k, Counter::Shed))
        .sum();
    assert_eq!(recorded_shed, shed, "recorded sheds must reconcile");
    let qmass: u64 = Kernel::ALL.iter().map(|&k| master.queue_weight(k)).sum();
    assert!(qmass > 0, "guard: rec_queue must see queue lengths");
}

#[test]
fn overload_unlimited_baseline_is_bitwise_latency_cell_zero() {
    let r = latency_session();
    let pool = Pool::new(2);
    let over = overload_data(&r, &pool);
    let lat = latency_data(&r, &pool);
    let baseline = &over[BASELINE];
    // Latency cell 0 is (mean latency 1, loss 0.0, fixed backoff) —
    // exactly the fault derivations every overload cell shares.
    let cell0 = &lat[0];
    assert_eq!(cell0.mean_latency, 1, "grid layout drifted");
    assert_eq!(cell0.loss, 0.0, "grid layout drifted");
    assert_eq!(cell0.policy, "fixed", "grid layout drifted");
    assert_eq!(baseline.systems.len(), cell0.systems.len());
    for (o, l) in baseline.systems.iter().zip(&cell0.systems) {
        assert_eq!(o.system, l.system);
        assert_eq!(o.queries, l.queries);
        assert_eq!(
            (o.hits, o.deadline_misses, o.p50, o.p99),
            (l.hits, l.deadline_misses, l.p50, l.p99),
            "{}: unlimited-capacity outcomes diverged from the plain \
             deadline path",
            o.system
        );
        // SystemLatency stores the mean; recompute it with the same
        // float expression and compare raw bits.
        let mean = o.messages as f64 / (o.queries as f64).max(1.0);
        assert_eq!(
            mean.to_bits(),
            l.mean_messages.to_bits(),
            "{}: message volume diverged",
            o.system
        );
    }
}

// ---------------------------------------------------------------------
// Cross-commit goldens for the synchronous search kernels. The pins
// above compare two paths of the same build against each other; these
// compare against constants captured before the fault-free/faulty and
// recorded/unrecorded kernel twins were folded into one kernel per
// strategy, so a drift that moves both sides of an internal comparison
// at once still fails here. Covered: the 2k-node faulty TTL sweep (fault
// counters and dead-source re-issues included), the synchronous flood,
// walk and expanding-ring systems with and without a lossy, churning
// fault context (outcomes and recorder contents), and the smoke-scale
// profile session's recorder fingerprint.
// ---------------------------------------------------------------------

use qcp2p::search::{
    gen_queries, FaultContext, SearchSpec, SearchSystem, SearchWorld, WorkloadConfig, WorldConfig,
};
use qcp2p::util::hash::mix64;
use qcp2p::util::rng::{child_seed, Pcg64};

/// Folds a word stream into one 64-bit digest (order-sensitive).
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(0x9e37_79b9_7f4a_7c15, |h, w| mix64(h ^ w))
}

/// Every recorded quantity of `rec`, flattened kernel by kernel.
fn recorder_words(rec: &MetricsRecorder) -> Vec<u64> {
    let mut out = Vec::new();
    for k in Kernel::ALL {
        out.push(rec.spans(k));
        out.extend(Counter::ALL.iter().map(|&c| rec.total(k, c)));
        out.extend(Event::ALL.iter().map(|&e| rec.event_count(k, e)));
        for hist in [
            rec.hop_histogram(k),
            rec.time_histogram(k),
            rec.queue_histogram(k),
        ] {
            out.push(hist.len() as u64);
            out.extend(hist.iter().copied());
        }
    }
    out
}

/// Per TTL ∈ {1..4}: ttl, the bits of (success_rate, mean_messages,
/// mean_reached, mean_reach_fraction), the six `FaultStats` counters,
/// and `dead_sources`.
const GOLDEN_2K_FAULTY_CURVE: [[u64; 12]; 4] = [
    [
        1,
        0x3f847ae147ae147b,
        0x401bae147ae147ae,
        0x401bd47ae147ae14,
        0x3f6c7f77af640639,
        268,
        117,
        0,
        0,
        0,
        0,
        14,
    ],
    [
        2,
        0x3fbae147ae147ae1,
        0x405a6f0a3d70a3d7,
        0x405597851eb851ec,
        0x3fa61c2e33eff196,
        4106,
        1508,
        0,
        0,
        0,
        0,
        14,
    ],
    [
        3,
        0x3fdb5c28f5c28f5c,
        0x408b468a3d70a3d7,
        0x4081bd051eb851ec,
        0x3fd22a012599ed7d,
        34279,
        12217,
        0,
        0,
        0,
        0,
        14,
    ],
    [
        4,
        0x3fec000000000000,
        0x40b1376e147ae148,
        0x4099a3b333333333,
        0x3fea413a92a30553,
        172725,
        61865,
        0,
        0,
        0,
        0,
        14,
    ],
];

fn faulty_curve_words(pool: &Pool) -> Vec<[u64; 12]> {
    let t = topo();
    let fwd = t.forwarders();
    let zipf = Placement::generate(
        PlacementModel::ZipfReplicas { tau: 2.05 },
        N as u32,
        1_000,
        7,
    );
    let cfg = SimConfig {
        trials: 400,
        seed: 0xf18,
        ..Default::default()
    };
    let plan = FaultPlan::build(
        N,
        &FaultConfig {
            loss: 0.10,
            churn: 0.20,
            seed: 0xabc,
            ..Default::default()
        },
    );
    sweep_ttl_faulty(pool, &t.graph, &zipf, Some(&fwd), &TTLS, &cfg, &plan)
        .iter()
        .map(|pt| {
            let f = pt.stats.expect("faulty sweeps carry fault stats");
            [
                u64::from(pt.ttl),
                pt.success_rate.to_bits(),
                pt.mean_messages.to_bits(),
                pt.mean_reached.to_bits(),
                pt.mean_reach_fraction.to_bits(),
                f.dropped,
                f.dead_targets,
                f.retries,
                f.timeouts,
                f.stale_misses,
                f.ticks,
                pt.dead_sources,
            ]
        })
        .collect()
}

#[test]
fn faulty_2k_sweep_matches_golden() {
    for threads in [1usize, 4] {
        let got = faulty_curve_words(&Pool::new(threads));
        assert_eq!(
            got,
            GOLDEN_2K_FAULTY_CURVE.to_vec(),
            "{threads}-thread faulty curve drifted from the golden capture"
        );
    }
}

/// Digests of 200 synchronous `SearchOutcome`s plus the system's
/// recorder, in the order flood(3), walk(4, 20), expanding_ring(4) —
/// each fault-free, then under a lossy, churning `FaultContext`.
const GOLDEN_SYNC_SEARCH_DIGESTS: [u64; 6] = [
    0x2e4eb894795a2e3e,
    0xea075a37ef375ea3,
    0xf773098e4f290ef7,
    0xba7e80bdbda34add,
    0x14774129ad922d9e,
    0x8d0d42277d3dcbb2,
];

fn sync_search_digests() -> Vec<u64> {
    let (world, queries) = golden_search_world();
    let plan = FaultPlan::build(
        world.num_peers(),
        &FaultConfig {
            loss: 0.15,
            churn: 0.20,
            horizon: 64,
            rejoin: true,
            seed: 0x5eef,
            ..Default::default()
        },
    );
    let mut digests = Vec::new();
    for (i, make) in SYNC_SEARCH_SPECS.into_iter().enumerate() {
        for faulty in [false, true] {
            let spec = if faulty {
                let ctx = FaultContext::new(
                    plan.clone(),
                    qcp2p::faults::RetryPolicy::default(),
                    child_seed(0x5ef0, i as u64),
                );
                make().faults(ctx)
            } else {
                make()
            };
            let mut system = spec.recorder(MetricsRecorder::new()).build(&world);
            digests.push(digest(sync_outcome_words(&mut system, &world, &queries)));
        }
    }
    digests
}

/// The unstructured specs the synchronous and layered goldens cover.
const SYNC_SEARCH_SPECS: [fn() -> SearchSpec; 3] = [
    || SearchSpec::flood(3),
    || SearchSpec::walk(4, 20),
    || SearchSpec::expanding_ring(4),
];

/// Runs every query through `system`: per query the outcome's fields
/// and the next query-RNG draw (the system must leave the query RNG
/// exactly where it always has), then the system's recorder contents.
fn sync_outcome_words(
    system: &mut qcp2p::search::Built<MetricsRecorder>,
    world: &SearchWorld,
    queries: &[qcp2p::search::QuerySpec],
) -> Vec<u64> {
    let mut words = Vec::new();
    for (q, query) in queries.iter().enumerate() {
        let mut rng = Pcg64::new(child_seed(0x5ef1, q as u64));
        let out = system.search(world, query, &mut rng);
        let f = out.faults;
        let o = out.overload;
        words.extend([
            u64::from(out.success),
            out.messages,
            out.hops.map_or(u64::MAX, u64::from),
            f.dropped,
            f.dead_targets,
            f.retries,
            f.timeouts,
            f.stale_misses,
            f.ticks,
            out.elapsed,
            u64::from(out.deadline_exceeded),
            o.enqueued,
            o.served,
            o.shed,
            o.admission_rejected,
            u64::from(o.overloaded),
        ]);
        words.push(rng.next());
    }
    words.extend(recorder_words(system.recorder()));
    words
}

#[test]
fn synchronous_search_systems_match_golden() {
    assert_eq!(
        sync_search_digests(),
        GOLDEN_SYNC_SEARCH_DIGESTS.to_vec(),
        "synchronous flood/walk/expanding-ring outcomes or recorder \
         contents drifted from the golden capture"
    );
}

/// Digests of the [`GOLDEN_SYNC_SEARCH_DIGESTS`] words (200 outcomes,
/// their next-draw probes, the recorder) for flood(3), walk(4, 20) and
/// expanding_ring(4), each under four layer sets in this order: faults +
/// deadline; faults + deadline + a shedding capacity plan; a `Path`
/// replication plan alone; replication + faults + deadline.
const GOLDEN_LAYERED_SEARCH_DIGESTS: [u64; 12] = [
    0xa8556583f3bd5616,
    0x0e05e728b5f92348,
    0x56b60f36209e0688,
    0xdb10b931df8649c0,
    0x7b426ab2135edd0f,
    0x1a55f8f01f09c86d,
    0x130db499bd9013c7,
    0x08ffc36c0559956f,
    0x26b0c825bdcbf004,
    0xf7c66dd693e7c35b,
    0x12f7399be20a4a9b,
    0xfaa7ebb758987cbc,
];

/// The layer sets [`GOLDEN_LAYERED_SEARCH_DIGESTS`] covers, in order.
const SEARCH_LAYER_SETS: [&str; 4] = [
    "faults+deadline",
    "faults+deadline+capacity",
    "replication",
    "replication+faults+deadline",
];

fn layered_search_digests() -> Vec<u64> {
    let (world, queries) = golden_search_world();
    let plan = FaultPlan::build(
        world.num_peers(),
        &FaultConfig {
            loss: 0.15,
            churn: 0.20,
            horizon: 64,
            rejoin: true,
            mean_latency: 3,
            seed: 0x1a7e,
        },
    );
    let capacity = CapacityPlan::build(&CapacityConfig {
        offered_load: 12.0,
        queue_bound: 3,
        policy: ShedPolicy::DropNewest,
        model: CapacityModel::GiaLadder,
        seed: 0xca9,
    });
    let replication = ReplicationPlan::new(ReplicationScheme::Path, 3_000, 0x1a7f);
    let kernels = [Kernel::Flood, Kernel::Walk, Kernel::ExpandingRing];
    let mut digests = Vec::new();
    let (mut shed, mut rejected, mut missed) = (0u64, 0u64, 0u64);
    for (i, make) in SYNC_SEARCH_SPECS.into_iter().enumerate() {
        let mut rescued = 0u64;
        for layers in SEARCH_LAYER_SETS {
            let mut spec = make();
            if layers.contains("faults") {
                spec = spec
                    .faults(FaultContext::new(
                        plan.clone(),
                        qcp2p::faults::RetryPolicy::default(),
                        child_seed(0x1a80, i as u64),
                    ))
                    .deadline(Deadline::after(40));
            }
            if layers.contains("capacity") {
                spec = spec.capacity(capacity.clone());
            }
            if layers.contains("replication") {
                spec = spec.replication(replication);
            }
            let mut system = spec.recorder(MetricsRecorder::new()).build(&world);
            digests.push(digest(sync_outcome_words(&mut system, &world, &queries)));
            let rec = system.recorder();
            shed += rec.total(kernels[i], Counter::Shed);
            rejected += rec.total(kernels[i], Counter::AdmissionRejected);
            missed += rec.event_count(kernels[i], Event::DeadlineExceeded);
            rescued += rec.total(kernels[i], Counter::CopiesHit);
        }
        assert!(
            rescued > 0,
            "guard: replication must rescue some {:?} query",
            kernels[i]
        );
    }
    assert!(shed > 0, "guard: the capacity plan must shed real messages");
    assert!(
        rejected > 0,
        "guard: admission control must refuse some query"
    );
    assert!(missed > 0, "guard: the deadline must end some query");
    digests
}

#[test]
fn layered_search_systems_match_golden() {
    assert_eq!(
        layered_search_digests(),
        GOLDEN_LAYERED_SEARCH_DIGESTS.to_vec(),
        "flood/walk/expanding-ring outcomes or recorder contents under \
         deadline, capacity or replication layers drifted from the golden \
         capture"
    );
}

/// Digest of [`profile_fingerprint`] for the smoke-scale profile session.
const GOLDEN_PROFILE_DIGEST: u64 = 0x758c3d34d922f2f1;

#[test]
fn profile_fingerprint_matches_golden() {
    let r = profile_session();
    let got = digest(profile_fingerprint(&profile_data(&r, &Pool::new(2))));
    assert_eq!(
        got, GOLDEN_PROFILE_DIGEST,
        "profile recorder contents drifted from the golden capture: {got:#018x}"
    );
}

// ---------------------------------------------------------------------
// Figures 1–7: the smoke-scale findings, pinned against a golden
// capture. Everything except the seven MLE tail fits is pinned bitwise.
// The fits are pinned by their published two-decimal rendering, exactly,
// and by |τ − golden| ≤ 1e-6: the exponent comes out of a golden-section
// search over a flat objective, so its last bits carry no information.
// ---------------------------------------------------------------------

use qcp2p::analysis::{AnnotationAnalysis, ReplicationAnalysis};
use qcp2p::zipf::TailFit;
use qcp2p::Findings;

fn findings_session() -> Repro {
    Repro::new(std::env::temp_dir().join("qcp-determinism"), Scale::Test)
}

fn counts_digest(counts: &[u32]) -> u64 {
    digest(std::iter::once(counts.len() as u64).chain(counts.iter().map(|&c| u64::from(c))))
}

fn replication_digest(a: &ReplicationAnalysis) -> u64 {
    digest([
        u64::from(a.num_peers),
        a.total_copies as u64,
        a.unique_objects as u64,
        counts_digest(&a.counts_desc),
    ])
}

fn annotation_digest(a: &AnnotationAnalysis) -> u64 {
    digest([
        a.total_records as u64,
        a.missing_records as u64,
        a.unique_values as u64,
        counts_digest(&a.counts_desc),
    ])
}

/// One named digest per bitwise-pinned part of the findings.
fn findings_digests(f: &Findings) -> Vec<(&'static str, u64)> {
    let c = &f.crawl;
    let crawl = digest([
        u64::from(c.num_peers),
        c.total_copies as u64,
        c.unique_objects_raw as u64,
        c.unique_objects_sanitized as u64,
        c.singleton_fraction_raw.to_bits(),
        c.singleton_fraction_sanitized.to_bits(),
        c.below_tenth_percent_raw.to_bits(),
        c.below_tenth_percent_sanitized.to_bits(),
        c.at_least_20_peers.to_bits(),
        c.above_tenth_percent.to_bits(),
        c.at_most_37_peers.to_bits(),
        c.unique_terms as u64,
        c.term_singleton_fraction.to_bits(),
        c.term_below_tenth_percent.to_bits(),
        c.mean_replicas.to_bits(),
    ]);
    let q = &f.query;
    let query = digest([
        q.total_queries,
        u64::from(q.duration_secs),
        u64::from(q.interval_secs),
        q.stability_after_warmup.to_bits(),
        q.mean_popular_mismatch.to_bits(),
        q.max_popular_mismatch.to_bits(),
        q.mean_transients.to_bits(),
        q.transient_variance.to_bits(),
    ]);
    let mut fig5 = Vec::new();
    for s in &f.fig5 {
        fig5.extend([
            u64::from(s.interval_secs),
            s.first_evaluated as u64,
            s.counts.len() as u64,
        ]);
        fig5.extend(s.counts.iter().map(|&n| u64::from(n)));
        for flagged in &s.flagged {
            fig5.push(flagged.len() as u64);
            fig5.extend(flagged.iter().map(|sym| u64::from(sym.0)));
        }
    }
    let fig6 = digest(
        [u64::from(f.fig6.interval_secs)]
            .into_iter()
            .chain(f.fig6.jaccards.iter().map(|j| j.to_bits())),
    );
    let m = &f.fig7;
    let fig7 = digest(
        [
            u64::from(m.interval_secs),
            m.all_terms_vs_popular_files.len() as u64,
        ]
        .into_iter()
        .chain(m.all_terms_vs_popular_files.iter().map(|j| j.to_bits()))
        .chain(m.popular_vs_popular_files.iter().map(|j| j.to_bits())),
    );
    let fig4 = &f.fig4;
    vec![
        ("crawl", crawl),
        ("query", query),
        ("fig1", replication_digest(&f.fig1)),
        ("fig2", replication_digest(&f.fig2)),
        (
            "fig3",
            digest([
                f.fig3.unique_terms as u64,
                counts_digest(&f.fig3.counts_desc),
            ]),
        ),
        ("fig4.songs", annotation_digest(&fig4.songs)),
        ("fig4.genres", annotation_digest(&fig4.genres)),
        ("fig4.albums", annotation_digest(&fig4.albums)),
        ("fig4.artists", annotation_digest(&fig4.artists)),
        (
            "fig4.totals",
            digest([fig4.total_songs as u64, fig4.num_clients as u64]),
        ),
        ("fig5", digest(fig5)),
        ("fig6", fig6),
        ("fig7", fig7),
    ]
}

/// The seven tail fits, in the order of [`GOLDEN_TAIL_FITS`].
fn tail_fits(f: &Findings) -> [(&'static str, TailFit); 7] {
    [
        ("fig1", f.fig1.tail),
        ("fig2", f.fig2.tail),
        ("fig3", f.fig3.tail),
        ("fig4.songs", f.fig4.songs.tail),
        ("fig4.genres", f.fig4.genres.tail),
        ("fig4.albums", f.fig4.albums.tail),
        ("fig4.artists", f.fig4.artists.tail),
    ]
}

const GOLDEN_FINDINGS_DIGESTS: [(&str, u64); 13] = [
    ("crawl", 0xbca6d850bc3762bb),
    ("query", 0x505e210371ff0a9d),
    ("fig1", 0x8702a2dbe6f3e70d),
    ("fig2", 0x70e4da7c9e9c054c),
    ("fig3", 0x2848e66e7daa2722),
    ("fig4.songs", 0x1ada192f0fe9edfc),
    ("fig4.genres", 0x9cb9854582936dda),
    ("fig4.albums", 0x8b144a7aa7d74b29),
    ("fig4.artists", 0x0ba66a827c260f9d),
    ("fig4.totals", 0x602fbf8d31c99f4d),
    ("fig5", 0xe369fc2f89aaa15a),
    ("fig6", 0xb3c3ef17e5536433),
    ("fig7", 0x38ef0f79e9d8ef8f),
];

/// Per fit: name, the published `{:.2}` exponent, the exponent's bits,
/// the goodness's bits and `n_used`.
const GOLDEN_TAIL_FITS: [(&str, &str, u64, u64, usize); 7] = [
    ("fig1", "2.52", 0x40042fafc896824e, 0xbfefdb1eb89823e9, 9389),
    ("fig2", "2.41", 0x40034592d448086c, 0xbff1992c6905f4d9, 8634),
    ("fig3", "1.83", 0x3ffd57964f30637a, 0xbfff9865a45eb035, 8997),
    (
        "fig4.songs",
        "1.81",
        0x3ffce2fb6888ae76,
        0xc000596e12d1f164,
        1804,
    ),
    (
        "fig4.genres",
        "2.25",
        0x4002086f65cd1b0e,
        0xbff447f50d292fe4,
        148,
    ),
    (
        "fig4.albums",
        "1.81",
        0x3ffcfc77270b2035,
        0xc00039e840fac6ad,
        194,
    ),
    (
        "fig4.artists",
        "1.77",
        0x3ffc3df046a7b192,
        0xc0012f09e6036a69,
        176,
    ),
];

#[test]
fn figures_1_to_7_findings_match_golden() {
    let r = findings_session();
    let f = r.findings();
    let got = findings_digests(f);
    assert_eq!(
        got,
        GOLDEN_FINDINGS_DIGESTS.to_vec(),
        "Figures 1-7 findings drifted from the golden capture"
    );
    for ((name, fit), (golden_name, shown, tau_bits, goodness_bits, n_used)) in
        tail_fits(f).into_iter().zip(GOLDEN_TAIL_FITS)
    {
        assert_eq!(name, golden_name);
        assert_eq!(
            format!("{:.2}", fit.exponent),
            shown,
            "{name}: published exponent moved"
        );
        let tau = f64::from_bits(tau_bits);
        assert!(
            (fit.exponent - tau).abs() <= 1e-6,
            "{name}: tau {} vs golden {tau}",
            fit.exponent
        );
        let goodness = f64::from_bits(goodness_bits);
        assert!(
            (fit.goodness - goodness).abs() <= 1e-9,
            "{name}: goodness {} vs golden {goodness}",
            fit.goodness
        );
        assert_eq!(fit.n_used, n_used, "{name}: n_used");
    }
}

// ---------------------------------------------------------------------
// Cross-commit goldens for the calendar (deadline) search paths: the
// event-driven flood and k-walker, with and without capacity queues, as
// the four unstructured-facing systems drive them. Each system runs 200
// queries under a lossy, churning, slow-link fault context and a
// deadline, once per capacity case: none, the unlimited plan, and a
// limited plan under each shedding policy (which reaches eviction and
// walker resume). The smoke-scale `repro latency` and `repro overload`
// grids are pinned as digests too, recorder contents included. The
// synchronous hybrid (fault-free and faulty with a maintenance
// schedule), the DHT-only system under each layer and the hybrid under
// a deadline and a maintenance schedule complete the set; a zero-
// threshold hybrid is pinned to be the flood system.
// ---------------------------------------------------------------------

use qcp2p::faults::{CapacityConfig, CapacityModel, CapacityPlan, ShedPolicy};
use qcp2p::search::MaintenanceSchedule;
use qcp2p::vtime::Deadline;
use qcp_bench::latency::LatencyCell;
use qcp_bench::overload::OverloadCell;

/// The golden search world and its 200-query workload.
fn golden_search_world() -> (SearchWorld, Vec<qcp2p::search::QuerySpec>) {
    let world = SearchWorld::generate(&WorldConfig {
        num_peers: 1_000,
        num_objects: 6_000,
        num_terms: 6_000,
        head_size: 120,
        seed: 0x5eed,
        ..Default::default()
    });
    let queries = gen_queries(
        &world,
        &WorkloadConfig {
            num_queries: 200,
            seed: 0x5eee,
        },
    );
    (world, queries)
}

/// Runs every query through `system` and digests each outcome, the next
/// query-RNG draw, and the system's full recorder contents.
fn outcome_digest(
    mut system: qcp2p::search::Built<MetricsRecorder>,
    world: &SearchWorld,
    queries: &[qcp2p::search::QuerySpec],
) -> u64 {
    digest(outcome_words(&mut system, world, queries))
}

/// The words [`outcome_digest`] folds: per query every outcome field and
/// the next query-RNG draw, then the system's recorder contents.
fn outcome_words(
    system: &mut qcp2p::search::Built<MetricsRecorder>,
    world: &SearchWorld,
    queries: &[qcp2p::search::QuerySpec],
) -> Vec<u64> {
    let mut words = Vec::new();
    for (q, query) in queries.iter().enumerate() {
        let mut rng = Pcg64::new(child_seed(0x5ef1, q as u64));
        let out = system.search(world, query, &mut rng);
        let f = out.faults;
        let o = out.overload;
        words.extend([
            u64::from(out.success),
            out.messages,
            out.hops.map_or(u64::MAX, u64::from),
            f.dropped,
            f.dead_targets,
            f.retries,
            f.timeouts,
            f.stale_misses,
            f.ticks,
            out.elapsed,
            u64::from(out.deadline_exceeded),
            o.enqueued,
            o.served,
            o.shed,
            o.displaced,
            o.backlog_seeded,
            o.queue_delay,
            o.admission_rejected,
            u64::from(o.overloaded),
        ]);
        words.push(rng.next());
    }
    words.extend(recorder_words(system.recorder()));
    words
}

/// Digests of 200 deadline-path outcomes plus the system's recorder, in
/// the order flood(3), walk(8, 20), expanding_ring(4), hybrid(2, 3) —
/// each under no capacity plan, the unlimited plan, and a limited plan
/// shedding drop-newest, drop-oldest and TTL-priority.
const GOLDEN_TIMED_SEARCH_DIGESTS: [u64; 20] = [
    0xcb2b2aa68df6eaaf,
    0xcb2b2aa68df6eaaf,
    0xddb809667c235682,
    0x5c6666852666b6b7,
    0xebfa08fc9a83bc69,
    0x67db9197fd353a24,
    0x67db9197fd353a24,
    0x2c64f68536b00f68,
    0x5d0db97aa7ca1cb9,
    0x486ecbdb55a17f8c,
    0x225b6ae76c1977d0,
    0x225b6ae76c1977d0,
    0x28229d1fbe4275ae,
    0xd34d34af15723867,
    0x57379c80030d9b68,
    0xfc926fb368fd16b5,
    0xfc926fb368fd16b5,
    0xab3eec83e940c086,
    0xe26db129a7c98b26,
    0x4ba72d9daf011ef5,
];

fn timed_search_digests() -> Vec<u64> {
    let (world, queries) = golden_search_world();
    let plan = FaultPlan::build(
        world.num_peers(),
        &FaultConfig {
            loss: 0.10,
            churn: 0.15,
            horizon: 64,
            rejoin: true,
            mean_latency: 3,
            seed: 0x7e0f,
        },
    );
    let limited = |policy| {
        CapacityPlan::build(&CapacityConfig {
            offered_load: 12.0,
            queue_bound: 3,
            policy,
            model: CapacityModel::GiaLadder,
            seed: 0xca9,
        })
    };
    let capacities: Vec<Option<CapacityPlan>> = std::iter::once(None)
        .chain(std::iter::once(Some(CapacityPlan::unlimited())))
        .chain(ShedPolicy::ALL.into_iter().map(|p| Some(limited(p))))
        .collect();
    let specs: [fn() -> SearchSpec; 4] = [
        || SearchSpec::flood(3),
        || SearchSpec::walk(8, 20),
        || SearchSpec::expanding_ring(4),
        || SearchSpec::hybrid(2, 3, 4),
    ];
    let mut digests = Vec::new();
    let (mut shed, mut displaced, mut missed, mut rejected) = (0u64, 0u64, 0u64, 0u64);
    let mut walk_evictions = 0u64;
    for (i, make) in specs.into_iter().enumerate() {
        for (c, cap) in capacities.iter().enumerate() {
            let ctx = FaultContext::new(
                plan.clone(),
                qcp2p::faults::RetryPolicy::default(),
                child_seed(0x7e10, i as u64),
            );
            let mut spec = make().faults(ctx).deadline(Deadline::after(60));
            if let Some(cap) = cap {
                spec = spec.capacity(cap.clone());
            }
            let system = spec.recorder(MetricsRecorder::new()).build(&world);
            digests.push(outcome_digest(system, &world, &queries));
            // Guard tallies (recounted through the recorder-free path so
            // the guards do not lean on the digest itself).
            let mut spec = make()
                .faults(FaultContext::new(
                    plan.clone(),
                    qcp2p::faults::RetryPolicy::default(),
                    child_seed(0x7e10, i as u64),
                ))
                .deadline(Deadline::after(60));
            if let Some(cap) = cap {
                spec = spec.capacity(cap.clone());
            }
            let mut system = spec.build(&world);
            for (q, query) in queries.iter().enumerate() {
                let mut rng = Pcg64::new(child_seed(0x5ef1, q as u64));
                let out = system.search(&world, query, &mut rng);
                shed += out.overload.shed;
                if i == 1 && c == 3 {
                    // Drop-oldest never sheds at the door, so every real
                    // shed here is an evicted walker step (and a resume).
                    walk_evictions += out.overload.shed;
                }
                displaced += out.overload.displaced;
                missed += u64::from(out.deadline_exceeded);
                rejected += out.overload.admission_rejected;
            }
        }
    }
    assert!(shed > 0, "guard: the limited plans must shed real messages");
    assert!(
        walk_evictions > 0,
        "guard: queued walker steps must be evicted"
    );
    assert!(displaced > 0, "guard: arrivals must displace backlog");
    assert!(missed > 0, "guard: the deadline must end some query");
    assert!(
        rejected > 0,
        "guard: admission control must refuse some query"
    );
    digests
}

#[test]
fn timed_search_systems_match_golden() {
    assert_eq!(
        timed_search_digests(),
        GOLDEN_TIMED_SEARCH_DIGESTS.to_vec(),
        "deadline-path flood/walk/expanding-ring/hybrid outcomes or recorder \
         contents drifted from the golden capture"
    );
}

/// Digests of 200 synchronous hybrid(2, 3) outcomes plus its recorder:
/// fault-free, then under a lossy, churning fault context with a
/// maintenance pass every 25 queries.
const GOLDEN_SYNC_HYBRID_DIGESTS: [u64; 2] = [0xe6e6256ee9a5453a, 0x6022aadf1d8cb88f];

fn sync_hybrid_digests() -> Vec<u64> {
    let (world, queries) = golden_search_world();
    let plan = FaultPlan::build(
        world.num_peers(),
        &FaultConfig {
            loss: 0.15,
            churn: 0.20,
            horizon: 64,
            rejoin: true,
            seed: 0x5eef,
            ..Default::default()
        },
    );
    let clean = SearchSpec::hybrid(2, 3, 4)
        .recorder(MetricsRecorder::new())
        .build(&world);
    let faulty = SearchSpec::hybrid(2, 3, 4)
        .faults(FaultContext::new(
            plan,
            qcp2p::faults::RetryPolicy::default(),
            0x5ef2,
        ))
        .maintenance(MaintenanceSchedule::every(25))
        .recorder(MetricsRecorder::new())
        .build(&world);
    vec![
        outcome_digest(clean, &world, &queries),
        outcome_digest(faulty, &world, &queries),
    ]
}

#[test]
fn synchronous_hybrid_matches_golden() {
    assert_eq!(
        sync_hybrid_digests(),
        GOLDEN_SYNC_HYBRID_DIGESTS.to_vec(),
        "synchronous hybrid outcomes or recorder contents drifted from the \
         golden capture"
    );
}

/// Digests of 200 DHT-backed outcomes plus the system's recorder, in the
/// order of [`DHT_SEARCH_CASES`].
const GOLDEN_DHT_SEARCH_DIGESTS: [u64; 5] = [
    0xefd4e1c39453c747,
    0x6d28f5a6437ed18b,
    0x72f2098e94dc9d83,
    0xcf38dca6c91d41af,
    0x0998a9b0d72e4c35,
];

/// The DHT-backed systems and layer sets [`GOLDEN_DHT_SEARCH_DIGESTS`]
/// covers, in order.
const DHT_SEARCH_CASES: [&str; 5] = [
    "dht-only",
    "dht-only+faults+maintenance",
    "dht-only+faults+deadline",
    "dht-only+faults+deadline+capacity",
    "hybrid+faults+deadline+maintenance",
];

fn dht_search_digests() -> Vec<u64> {
    let (world, queries) = golden_search_world();
    let plan = FaultPlan::build(
        world.num_peers(),
        &FaultConfig {
            loss: 0.10,
            churn: 0.25,
            horizon: 64,
            rejoin: true,
            mean_latency: 3,
            seed: 0xd4a0,
        },
    );
    let capacity = CapacityPlan::build(&CapacityConfig {
        offered_load: 12.0,
        queue_bound: 3,
        policy: ShedPolicy::DropNewest,
        model: CapacityModel::GiaLadder,
        seed: 0xca9,
    });
    let mut digests = Vec::new();
    let (mut rejected, mut repairs, mut stale) = (0u64, 0u64, 0u64);
    for (i, case) in DHT_SEARCH_CASES.into_iter().enumerate() {
        let mut spec = match case.starts_with("hybrid") {
            true => SearchSpec::hybrid(2, 3, 4),
            false => SearchSpec::dht_only(4),
        };
        if case.contains("faults") {
            spec = spec.faults(FaultContext::new(
                plan.clone(),
                qcp2p::faults::RetryPolicy::default(),
                child_seed(0xd4a1, i as u64),
            ));
        }
        if case.contains("deadline") {
            spec = spec.deadline(Deadline::after(60));
        }
        if case.contains("capacity") {
            spec = spec.capacity(capacity.clone());
        }
        if case.contains("maintenance") {
            spec = spec.maintenance(MaintenanceSchedule::every(25));
        }
        let mut system = spec.recorder(MetricsRecorder::new()).build(&world);
        digests.push(digest(outcome_words(&mut system, &world, &queries)));
        let rec = system.recorder();
        rejected += rec.total(Kernel::ChordLookup, Counter::AdmissionRejected);
        repairs += rec.spans(Kernel::Repair);
        stale += rec.fault_stats(Kernel::ChordLookup).stale_misses;
    }
    assert!(
        rejected > 0,
        "guard: admission control must refuse some query"
    );
    assert!(repairs > 0, "guard: maintenance passes must run");
    assert!(stale > 0, "guard: churn must strand some posting list");
    digests
}

#[test]
fn dht_search_systems_match_golden() {
    assert_eq!(
        dht_search_digests(),
        GOLDEN_DHT_SEARCH_DIGESTS.to_vec(),
        "DHT-only or hybrid outcomes or recorder contents under fault, \
         deadline, capacity or maintenance layers drifted from the golden \
         capture"
    );
}

/// A hybrid whose rare threshold is 0 never falls back, so it is its
/// flood phase alone: bitwise the flood system at the same TTL in every
/// outcome field, the next query-RNG draw and every recorder word, with
/// no layers, under faults, faults + deadline, and faults + deadline + a
/// shedding capacity plan.
#[test]
fn zero_threshold_hybrid_is_the_flood_system() {
    let (world, queries) = golden_search_world();
    let plan = FaultPlan::build(
        world.num_peers(),
        &FaultConfig {
            loss: 0.15,
            churn: 0.20,
            horizon: 64,
            rejoin: true,
            mean_latency: 3,
            seed: 0x1a7e,
        },
    );
    let capacity = CapacityPlan::build(&CapacityConfig {
        offered_load: 12.0,
        queue_bound: 3,
        policy: ShedPolicy::DropNewest,
        model: CapacityModel::GiaLadder,
        seed: 0xca9,
    });
    let layers = ["", "faults", "faults+deadline", "faults+deadline+capacity"];
    let (mut dead, mut rejected, mut missed) = (0u64, 0u64, 0u64);
    for ttl in 1..=3 {
        for (l, layer) in layers.into_iter().enumerate() {
            let layered = |mut spec: SearchSpec| {
                if layer.contains("faults") {
                    spec = spec.faults(FaultContext::new(
                        plan.clone(),
                        qcp2p::faults::RetryPolicy::default(),
                        child_seed(0x1a81, l as u64),
                    ));
                }
                if layer.contains("deadline") {
                    spec = spec.deadline(Deadline::after(40));
                }
                if layer.contains("capacity") {
                    spec = spec.capacity(capacity.clone());
                }
                spec.recorder(MetricsRecorder::new()).build(&world)
            };
            let mut flood = layered(SearchSpec::flood(ttl));
            let mut hybrid = layered(SearchSpec::hybrid(ttl, 0, 0x1a82));
            assert_eq!(
                outcome_words(&mut hybrid, &world, &queries),
                outcome_words(&mut flood, &world, &queries),
                "hybrid(ttl={ttl},rare<0) is not flood(ttl={ttl}) under {layer:?}"
            );
            let rec = flood.recorder();
            dead += rec.event_count(Kernel::Flood, Event::DeadSource);
            rejected += rec.total(Kernel::Flood, Counter::AdmissionRejected);
            missed += rec.event_count(Kernel::Flood, Event::DeadlineExceeded);
        }
    }
    assert!(dead > 0, "guard: some query must come from a departed peer");
    assert!(
        rejected > 0,
        "guard: admission control must refuse some query"
    );
    assert!(missed > 0, "guard: the deadline must end some query");
}

/// The `repro latency --scale smoke` session.
fn smoke_session() -> Repro {
    Repro::new(std::env::temp_dir().join("qcp-determinism"), Scale::Test)
}

fn latency_grid_digest(cells: &[LatencyCell], master: &MetricsRecorder) -> u64 {
    let mut words = Vec::new();
    for c in cells {
        words.extend([u64::from(c.mean_latency), c.loss.to_bits()]);
        words.extend(c.policy.bytes().map(u64::from));
        for s in &c.systems {
            words.extend(s.system.bytes().map(u64::from));
            words.extend([
                s.queries as u64,
                s.hits,
                s.deadline_misses,
                s.partial_hits,
                s.p50.map_or(u64::MAX, |v| v),
                s.p99.map_or(u64::MAX, |v| v),
                s.mean_messages.to_bits(),
            ]);
        }
    }
    words.extend(recorder_words(master));
    digest(words)
}

fn overload_grid_digest(cells: &[OverloadCell], master: &MetricsRecorder) -> u64 {
    let mut words = Vec::new();
    for c in cells {
        words.push(c.offered_load.to_bits());
        words.extend(c.policy.bytes().chain(c.model.bytes()).map(u64::from));
        for s in &c.systems {
            words.extend(s.system.bytes().map(u64::from));
            words.extend([
                s.queries as u64,
                s.admitted,
                s.hits,
                s.deadline_misses,
                s.overloaded,
                s.enqueued,
                s.served,
                s.shed,
                s.displaced,
                s.backlog_seeded,
                s.queue_delay,
                s.admission_rejected,
                s.p50.map_or(u64::MAX, |v| v),
                s.p99.map_or(u64::MAX, |v| v),
                s.messages,
            ]);
        }
    }
    words.extend(recorder_words(master));
    digest(words)
}

/// Digest of the smoke-scale `repro latency` grid and its recorder.
const GOLDEN_LATENCY_GRID_DIGEST: u64 = 0xf55be46fe2d823bb;
/// Digest of the smoke-scale `repro overload` grid and its recorder.
const GOLDEN_OVERLOAD_GRID_DIGEST: u64 = 0x2208ad295bc362ef;

#[test]
fn latency_and_overload_grids_match_golden() {
    let r = smoke_session();
    let pool = Pool::new(2);
    let (lat, lat_rec) = latency_data_recorded(&r, &pool);
    let (over, over_rec) = overload_data_recorded(&r, &pool);
    let got = [
        latency_grid_digest(&lat, &lat_rec),
        overload_grid_digest(&over, &over_rec),
    ];
    assert_eq!(
        got,
        [GOLDEN_LATENCY_GRID_DIGEST, GOLDEN_OVERLOAD_GRID_DIGEST],
        "smoke-scale latency/overload grids drifted from the golden capture: \
         {:#018x} {:#018x}",
        got[0],
        got[1]
    );
}

// ---------------------------------------------------------------------
// Cross-commit goldens for the TTL sweep grids and the sweep recorders.
// The same-seed and thread-width pins above compare one build against
// itself; these digests were captured from the scalar (one BFS per
// trial) census, so any other evaluator of a sweep — a batched one
// included — must reproduce the smoke-scale fig8-repl, fig8-churn and
// soak grids and the full recorder state bit for bit.
// ---------------------------------------------------------------------

/// Digests of the smoke-scale `fig8-repl`, `fig8-churn` and `soak` grids
/// (their `*_fingerprint` word streams).
const GOLDEN_SWEEP_GRID_DIGESTS: [(&str, u64); 3] = [
    ("fig8-repl", 0x181538bcaf53f0c5),
    ("fig8-churn", 0x887300245df996dd),
    ("soak", 0xa047b2aa5f7cb13b),
];

#[test]
fn sweep_grids_match_golden() {
    let pool = Pool::new(2);
    let got = [
        (
            "fig8-repl",
            digest(repl_fingerprint(&fig8_repl_data(&repl_session(), &pool))),
        ),
        (
            "fig8-churn",
            digest(churn_fingerprint(&fig8_churn_data(&churn_session(), &pool))),
        ),
        (
            "soak",
            digest(soak_fingerprint(&soak_data(&churn_session(), &pool))),
        ),
    ];
    assert_eq!(
        got, GOLDEN_SWEEP_GRID_DIGESTS,
        "smoke-scale sweep grids drifted from the golden capture: {got:#018x?}"
    );
}

/// Digest of the 40k golden sweep's full recorder state.
const GOLDEN_40K_RECORDER_DIGEST: u64 = 0x74959f98fa97cff9;
/// Digest of the frozen, loss-free 2k sweep: its curve plus its full
/// recorder state.
const GOLDEN_2K_FROZEN_DIGEST: u64 = 0x67fb04ee5fb35d8f;

#[test]
fn forty_thousand_node_recorder_matches_golden() {
    for threads in [1usize, 4] {
        let mut metrics = MetricsRecorder::new();
        golden_40k_curve(&Pool::new(threads), &mut metrics);
        let got = digest(recorder_words(&metrics));
        assert_eq!(
            got, GOLDEN_40K_RECORDER_DIGEST,
            "{threads}-thread 40k sweep recorder drifted from the golden capture: {got:#018x}"
        );
    }
}

/// The recorded 2k sweep under the soak measurement plan: the faulty
/// golden's plan frozen mid-horizon with its loss silenced.
fn frozen_2k_digest(pool: &Pool) -> u64 {
    let t = topo();
    let fwd = t.forwarders();
    let zipf = Placement::generate(
        PlacementModel::ZipfReplicas { tau: 2.05 },
        N as u32,
        1_000,
        7,
    );
    let cfg = SimConfig {
        trials: 400,
        seed: 0xf18,
        ..Default::default()
    };
    let plan = FaultPlan::build(
        N,
        &FaultConfig {
            loss: 0.10,
            churn: 0.20,
            seed: 0xabc,
            ..Default::default()
        },
    )
    .frozen_at(500)
    .silence_loss();
    let mut rec = MetricsRecorder::new();
    let curve = sweep_ttl_faulty_rec(
        pool,
        &t.graph,
        &zipf,
        Some(&fwd),
        &TTLS,
        &cfg,
        &plan,
        &mut rec,
    );
    assert!(
        rec.total(Kernel::Flood, Counter::DeadTargets) > 0,
        "guard: the frozen plan must hold some nodes down"
    );
    let mut words = Vec::new();
    for pt in &curve {
        let f = pt.faults();
        words.extend([
            u64::from(pt.ttl),
            pt.success_rate.to_bits(),
            pt.mean_messages.to_bits(),
            pt.mean_reached.to_bits(),
            f.dropped,
            f.dead_targets,
            pt.dead_sources,
        ]);
    }
    words.extend(recorder_words(&rec));
    digest(words)
}

#[test]
fn frozen_2k_recorded_sweep_matches_golden() {
    for threads in [1usize, 4] {
        let got = frozen_2k_digest(&Pool::new(threads));
        assert_eq!(
            got, GOLDEN_2K_FROZEN_DIGEST,
            "{threads}-thread frozen sweep drifted from the golden capture: {got:#018x}"
        );
    }
}
