//! `soak` — the self-healing recovery experiment.
//!
//! `fig8-churn` showed the Figure-8 conclusions *degrading* under a
//! loss × churn grid; every failure there was permanent. This artifact
//! closes the loop with the maintenance layer: it interleaves **churn
//! epochs** (the fault plan's session schedule sampled at successive
//! ticks), **repair rounds** (overlay re-wiring via
//! [`Maintainer`], Chord `stabilize`/`fix_fingers`, and index
//! re-replication), and **Figure-8 query workloads** (the same
//! TTL-sweep pipeline as `fig8` / `fig8-churn`), emitting per-epoch
//! recovery curves to `soak.csv` + `soak.json`.
//!
//! # Alignment contract
//!
//! Each soak cell's **epoch-0 baseline** runs the *exact* `fig8-churn`
//! pipeline — same topology, placement, trial seeds, and cell fault
//! plan — so with zero repair rounds applied the baseline rows are
//! bitwise identical to the corresponding `fig8-churn` cells, and the
//! `(loss=0, churn=0)` cell is bitwise the fault-free `fig8` Zipf
//! curve (both pinned by `tests/determinism.rs`).
//!
//! # Recovery epochs
//!
//! Epoch `e` freezes the cell plan at tick `t_e` ([`FaultPlan::frozen_at`])
//! and silences message loss ([`FaultPlan::silence_loss`]): the
//! population is held at the churn snapshot while repair rounds run, so
//! success movement across rounds is attributable to maintenance alone.
//! Under a frozen loss-free plan a TTL-bounded flood's per-trial outcome
//! is a pure function of overlay structure, and a repair round only
//! prunes dead-endpoint edges and adds alive–alive edges — so per-trial
//! success is **provably monotone** across rounds, and the mean success
//! rate per TTL is asserted non-decreasing at runtime (common random
//! numbers: every round replays the identical trial stream).
//!
//! # Runtime invariants (panic on violation)
//!
//! * repair: degree band, alive-edge symmetry, dead-node isolation, and
//!   the `messages == probes + 2·added` accounting identity
//!   (via [`Maintainer::step`], whose touched check gives the verdict
//!   of `check_repair_invariants`);
//! * ring: successor-list sortedness/liveness structure after every
//!   sync and stabilization round (`ChordNetwork::check_successor_lists`);
//! * accounting: per-round repair messages must sum to the maintainer's
//!   cumulative totals;
//! * recovery: per-TTL flood success non-decreasing and index stale
//!   misses non-increasing across the rounds of an epoch.

use crate::fig8churn::{cell_plan, CHURNS, LOSSES};
use crate::rows::{flood_point_json, jf};
use crate::Repro;
use qcp_core::dht::{ChordNetwork, DhtIndex, DEFAULT_SUCC_LEN};
use qcp_core::faults::{FaultPlan, RetryPolicy};
use qcp_core::overlay::topology::gnutella_two_tier;
use qcp_core::overlay::{
    sweep_ttl_faulty, Graph, Maintainer, MaintenancePolicy, Placement, PlacementModel, RepairStats,
    SimConfig, SweepPoint,
};
use qcp_core::util::hash::mix64;
use qcp_core::util::rng::{child_seed, Pcg64};
use qcp_core::util::table::fnum;
use qcp_core::util::Table;
use qcp_core::xpar::Pool;
use std::fmt::Write as _;

/// The `(loss, churn)` cells soaked. A subset of the `fig8-churn` grid
/// (every pair must appear in [`LOSSES`] × [`CHURNS`]): the fault-free
/// anchor, light and heavy churn at the default loss, and the heaviest
/// corner.
pub const SOAK_CELLS: [(f64, f64); 4] = [(0.0, 0.0), (0.05, 0.10), (0.05, 0.25), (0.30, 0.25)];

/// Recovery epochs per cell (churn snapshots at ticks `e·H/(E+1)`).
pub const SOAK_EPOCHS: usize = 2;

/// Repair rounds per epoch; each epoch measures at rounds `0..=SOAK_ROUNDS`.
pub const SOAK_ROUNDS: usize = 3;

/// Posting lists published into the soak DHT index.
const PUBLISHED_KEYS: usize = 600;

/// `(source, key)` probes per DHT measurement.
const DHT_PROBES: usize = 200;

/// Domain tag for DHT-measurement seeds. The round-0 baseline and the
/// per-epoch measurements draw from the same stream *on purpose*,
/// separated by their nonces (`cell << 8` vs `cell << 8 | e << 4 |
/// round`; epochs are 1-based, so the low byte is nonzero there and
/// the nonces never collide).
const DHT_MEASURE_TAG: u64 = 0x50af;

/// One measurement: the Figure-8 flood curve plus structural and DHT
/// health metrics, taken after `round` repair rounds of an epoch.
#[derive(Debug, Clone)]
pub struct SoakRound {
    /// Repair rounds applied before this measurement (0 = none yet).
    pub round: u64,
    /// Figure-8 TTL sweep under the epoch's measurement plan (faulty
    /// sweep: every point carries `Some` fault stats).
    pub flood: Vec<SweepPoint>,
    /// Overlay repair stats for the round that preceded this measurement
    /// (all zero at round 0 and in the baseline).
    pub repair: RepairStats,
    /// Chord maintenance messages (stabilize + fix_fingers) this round.
    pub ring_messages: u64,
    /// Stale successor/finger entries left in the ring.
    pub stale_entries: u64,
    /// Successful `lookup_stale` probes (stale-tables routing).
    pub lookups_ok: u64,
    /// Total `lookup_stale` probes issued.
    pub lookup_total: u64,
    /// Index stale misses over the probe workload.
    pub stale_misses: u64,
    /// Index re-replication transfer messages this round.
    pub rereplication_messages: u64,
    /// Connected components among alive nodes (residual partitions).
    pub components: u64,
    /// Largest alive component as a fraction of alive nodes.
    pub largest_fraction: f64,
    /// Alive fraction of the population.
    pub alive_fraction: f64,
}

/// One recovery epoch: the frozen-churn snapshot and its repair rounds.
#[derive(Debug, Clone)]
pub struct SoakEpoch {
    /// Epoch index (1-based; 0 is the baseline).
    pub epoch: u64,
    /// Workload tick at which the cell plan was frozen.
    pub tick: u64,
    /// Ring messages spent syncing departures/rejoins into the Chord net.
    pub sync_messages: u64,
    /// Measurements at rounds `0..=SOAK_ROUNDS`.
    pub rounds: Vec<SoakRound>,
}

/// One soak cell: the `fig8-churn`-aligned baseline plus recovery epochs.
#[derive(Debug, Clone)]
pub struct SoakCell {
    /// Mean per-message drop probability.
    pub loss: f64,
    /// Fraction of peers that churn within the workload horizon.
    pub churn: f64,
    /// Epoch-0 baseline: bitwise the `fig8-churn` cell's flood curve.
    pub baseline: SoakRound,
    /// Recovery epochs.
    pub epochs: Vec<SoakEpoch>,
}

/// Counts connected components among alive nodes and the largest one.
fn alive_components(graph: &Graph, alive: &[bool]) -> (u64, u64) {
    let n = graph.num_nodes();
    let mut seen = vec![false; n];
    let mut components = 0u64;
    let mut largest = 0u64;
    let mut queue = Vec::new();
    for s in 0..n as u32 {
        if seen[s as usize] || !alive[s as usize] {
            continue;
        }
        components += 1;
        let mut size = 0u64;
        seen[s as usize] = true;
        queue.push(s);
        while let Some(u) = queue.pop() {
            size += 1;
            for &v in graph.neighbors(u) {
                if alive[v as usize] && !seen[v as usize] {
                    seen[v as usize] = true;
                    queue.push(v);
                }
            }
        }
        largest = largest.max(size);
    }
    (components, largest)
}

/// First index at or cyclically after `start` that is alive.
fn first_alive(alive: &[bool], start: u32) -> u32 {
    let n = alive.len();
    for off in 0..n {
        let idx = (start as usize + off) % n;
        if alive[idx] {
            return idx as u32;
        }
    }
    start // degenerate: everyone dead; callers only probe live rings
}

/// The DHT probe workload for one cell epoch: `DHT_PROBES` deterministic
/// `(source, key index)` pairs, fixed per epoch so every round replays
/// the identical probes (common random numbers).
fn probe_pairs(seed: u64, cell: u64, epoch: u64, n: usize) -> Vec<(u32, u32)> {
    let mut rng = Pcg64::with_stream(child_seed(seed ^ 0x50ae, (cell << 8) | epoch), 0x50a0_0001);
    (0..DHT_PROBES)
        .map(|_| (rng.index(n) as u32, rng.index(PUBLISHED_KEYS.max(1)) as u32))
        .collect()
}

/// Runs the DHT probe workload: stale-tables routing success via
/// `lookup_stale`, and index staleness via `query_keys_faulty` under
/// `plan`. Returns `(lookups_ok, lookup_total, stale_misses)`.
fn dht_measure(
    net: &ChordNetwork,
    index: &DhtIndex,
    plan: &FaultPlan,
    policy: &RetryPolicy,
    pairs: &[(u32, u32)],
    keys: &[u64],
    nonce_seed: u64,
) -> (u64, u64, u64) {
    let ring_alive = net.alive_mask();
    let horizon = plan.horizon().max(1);
    let mut lookups_ok = 0u64;
    let mut stale_misses = 0u64;
    for (q, &(src, ki)) in pairs.iter().enumerate() {
        let key = keys[ki as usize];
        // Routing over stale tables: issued from a live ring member.
        let ring_src = first_alive(&ring_alive, src);
        let (res, _messages) = net.lookup_stale(ring_src, key);
        lookups_ok += res.is_some() as u64;
        // Index health: the faulty query path counts a stale miss when
        // the resolved owner lacks a list stranded on a dead home node.
        let t = q as u64 % horizon;
        let plan_src = match plan.first_alive_from(src, t) {
            Some(s) => s,
            None => continue,
        };
        let (_, stats) = index.query_keys_faulty(
            net,
            plan_src,
            &[key],
            plan,
            policy,
            t,
            child_seed(nonce_seed, q as u64),
        );
        stale_misses += stats.stale_misses;
    }
    (lookups_ok, pairs.len() as u64, stale_misses)
}

/// Computes the full soak dataset. Exposed with an explicit pool so the
/// determinism suite can fingerprint it across runs and thread widths;
/// [`soak`] is the rendering wrapper.
pub fn soak_data(r: &Repro, pool: &Pool) -> Vec<SoakCell> {
    // Flood side: identical inputs to `fig8churn::fig8_churn_data`.
    let topo = gnutella_two_tier(&crate::figures::fig8_topology(r.scale));
    let forwarders = topo.forwarders();
    let n = topo.graph.num_nodes();
    let num_objects = (n as u32 / 2).max(1_000);
    let ttls = [1u32, 2, 3, 4, 5];
    let sim = SimConfig {
        trials: r.trials,
        seed: r.seed,
        ..Default::default()
    };
    let placement = Placement::generate(
        PlacementModel::ZipfReplicas { tau: 2.05 },
        n as u32,
        num_objects,
        r.seed ^ 0x21f,
    );
    let policy = RetryPolicy::default();

    // Index content: one object per key, published from its first holder.
    let published = PUBLISHED_KEYS.min(num_objects as usize);
    let keys: Vec<u64> = (0..published as u64)
        .map(|i| mix64(child_seed(r.seed ^ 0x50ad, i)))
        .collect();

    let mut cells = Vec::with_capacity(SOAK_CELLS.len());
    for &(loss, churn) in &SOAK_CELLS {
        let li = LOSSES
            .iter()
            .position(|&l| l == loss)
            // qcplint: allow(panic) — SOAK_CELLS is a subset of the grid.
            .expect("soak loss must be a fig8-churn loss");
        let ci = CHURNS
            .iter()
            .position(|&c| c == churn)
            // qcplint: allow(panic) — SOAK_CELLS is a subset of the grid.
            .expect("soak churn must be a fig8-churn churn");
        let cell = (li * CHURNS.len() + ci) as u64;
        let plan = cell_plan(
            loss,
            churn,
            n,
            r.trials as u64,
            child_seed(r.seed ^ crate::FAULT_PLAN_TAG, cell),
        );

        // Fresh per cell: the overlay maintainer, the Chord ring, and the
        // published index all evolve across this cell's epochs.
        let mut maintainer = Maintainer::new(
            topo.graph.clone(),
            MaintenancePolicy::preferential(2, 64, 16, r.seed ^ 0x5ea1),
        );
        let mut net = ChordNetwork::with_succ_len(n, r.seed ^ 0x50ac, DEFAULT_SUCC_LEN);
        let mut index = DhtIndex::new(&net);
        for (i, &key) in keys.iter().enumerate() {
            let holders = placement.holders(i as u32);
            if let Some(&publisher) = holders.first() {
                index.publish_key(&net, publisher, key, i as u32);
            }
        }

        // Epoch 0: the unfrozen fig8-churn cell, zero repair applied.
        let flood = sweep_ttl_faulty(
            pool,
            &topo.graph,
            &placement,
            Some(&forwarders),
            &ttls,
            &sim,
            &plan,
        );
        let all_alive = vec![true; n];
        let (components, largest) = alive_components(&topo.graph, &all_alive);
        let pairs0 = probe_pairs(r.seed, cell, 0, n);
        let (lookups_ok, lookup_total, stale_misses) = dht_measure(
            &net,
            &index,
            &plan,
            &policy,
            &pairs0,
            &keys,
            child_seed(r.seed ^ DHT_MEASURE_TAG, cell << 8),
        );
        let baseline = SoakRound {
            round: 0,
            flood,
            repair: RepairStats::default(),
            ring_messages: 0,
            stale_entries: net.stale_entries() as u64,
            lookups_ok,
            lookup_total,
            stale_misses,
            rereplication_messages: 0,
            components,
            largest_fraction: largest as f64 / n as f64,
            alive_fraction: 1.0,
        };

        // Recovery epochs: freeze the plan, sync the ring, repair, measure.
        let mut epochs = Vec::with_capacity(SOAK_EPOCHS);
        let horizon = plan.horizon().max(1);
        for e in 1..=SOAK_EPOCHS as u64 {
            let tick = horizon * e / (SOAK_EPOCHS as u64 + 1);
            let mask = plan.alive_mask_at(tick);
            let measure_plan = plan.frozen_at(tick).silence_loss();
            let alive_count = mask.iter().filter(|&&a| a).count();

            // Sync departures/rejoins into the ring (rejoins first, so
            // departures can never empty it mid-sync).
            let mut sync_messages = 0u64;
            for v in 0..n as u32 {
                if net.is_departed(v) && mask[v as usize] {
                    sync_messages += net.rejoin(v);
                }
            }
            for v in 0..n as u32 {
                if !net.is_departed(v) && !mask[v as usize] && net.live_count() > 1 {
                    net.depart(v);
                }
            }
            net.check_successor_lists();

            let pairs = probe_pairs(r.seed, cell, e, n);
            let mut rounds = Vec::with_capacity(SOAK_ROUNDS + 1);
            for round in 0..=SOAK_ROUNDS as u64 {
                let mut repair = RepairStats::default();
                let mut ring_messages = 0u64;
                let mut rereplication_messages = 0u64;
                if round > 0 {
                    repair = maintainer.step(pool, &mask);
                    ring_messages = net.stabilize() + net.fix_fingers();
                    net.check_successor_lists();
                    let (_, msgs) = index.re_replicate(&net, &mask);
                    rereplication_messages = msgs;
                }
                let flood = sweep_ttl_faulty(
                    pool,
                    maintainer.graph(),
                    &placement,
                    Some(&forwarders),
                    &ttls,
                    &sim,
                    &measure_plan,
                );
                let (components, largest) = alive_components(maintainer.graph(), &mask);
                let (lookups_ok, lookup_total, stale_misses) = dht_measure(
                    &net,
                    &index,
                    &measure_plan,
                    &policy,
                    &pairs,
                    &keys,
                    child_seed(r.seed ^ DHT_MEASURE_TAG, (cell << 8) | (e << 4) | round),
                );
                rounds.push(SoakRound {
                    round,
                    flood,
                    repair,
                    ring_messages,
                    stale_entries: net.stale_entries() as u64,
                    lookups_ok,
                    lookup_total,
                    stale_misses,
                    rereplication_messages,
                    components,
                    largest_fraction: if alive_count > 0 {
                        largest as f64 / alive_count as f64
                    } else {
                        0.0
                    },
                    alive_fraction: alive_count as f64 / n as f64,
                });
            }

            // Recovery invariants: under the frozen loss-free plan, CRN
            // trials make per-TTL success monotone in repair rounds, and
            // re-replication can only shrink the stale-miss count.
            for w in rounds.windows(2) {
                for (a, b) in w[0].flood.iter().zip(&w[1].flood) {
                    assert!(
                        b.success_rate >= a.success_rate,
                        "soak epoch {e} ttl {}: success regressed {} -> {} \
                         across a repair round",
                        a.ttl,
                        a.success_rate,
                        b.success_rate
                    );
                }
                assert!(
                    w[1].stale_misses <= w[0].stale_misses,
                    "soak epoch {e}: stale misses grew {} -> {} under maintenance",
                    w[0].stale_misses,
                    w[1].stale_misses
                );
            }
            epochs.push(SoakEpoch {
                epoch: e,
                tick,
                sync_messages,
                rounds,
            });
        }

        // Accounting identity: per-round repair messages must sum to the
        // maintainer's cumulative totals for this cell.
        let per_round: u64 = epochs
            .iter()
            .flat_map(|e| e.rounds.iter().map(|r| r.repair.messages))
            .sum();
        let totals = maintainer.totals();
        totals.check_identity();
        assert_eq!(
            per_round, totals.messages,
            "repair message accounting drifted between rounds and totals"
        );

        cells.push(SoakCell {
            loss,
            churn,
            baseline,
            epochs,
        });
    }
    cells
}

fn round_json(s: &mut String, round: &SoakRound) {
    let _ = write!(s, "{{\"round\": {}, \"flood\": [", round.round);
    for (j, fp) in round.flood.iter().enumerate() {
        let sep = if j == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}{}", flood_point_json(fp));
    }
    let _ = write!(
        s,
        "], \"pruned\": {}, \"added\": {}, \"repair_messages\": {}, \
         \"ring_messages\": {}, \"stale_entries\": {}, \"lookups_ok\": {}, \
         \"lookup_total\": {}, \"stale_misses\": {}, \
         \"rereplication_messages\": {}, \"components\": {}, \
         \"largest_fraction\": {}, \"alive_fraction\": {}}}",
        round.repair.pruned,
        round.repair.added,
        round.repair.messages,
        round.ring_messages,
        round.stale_entries,
        round.lookups_ok,
        round.lookup_total,
        round.stale_misses,
        round.rereplication_messages,
        round.components,
        jf(round.largest_fraction),
        jf(round.alive_fraction),
    );
}

/// Hand-written JSON for the soak dataset (the workspace vendors no serde).
fn soak_json(r: &Repro, cells: &[SoakCell]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"experiment\": \"soak\",\n  \"seed\": {},\n  \"trials\": {},\n  \
         \"epochs\": {SOAK_EPOCHS},\n  \"rounds\": {SOAK_ROUNDS},\n  \"cells\": [",
        r.seed, r.trials
    );
    for (i, cell) in cells.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\n    {{\"loss\": {}, \"churn\": {}, \"baseline\": ",
            jf(cell.loss),
            jf(cell.churn)
        );
        round_json(&mut s, &cell.baseline);
        s.push_str(", \"epochs\": [");
        for (j, epoch) in cell.epochs.iter().enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}{{\"epoch\": {}, \"tick\": {}, \"sync_messages\": {}, \"rounds\": [",
                epoch.epoch, epoch.tick, epoch.sync_messages
            );
            for (k, round) in epoch.rounds.iter().enumerate() {
                if k > 0 {
                    s.push_str(", ");
                }
                round_json(&mut s, round);
            }
            s.push_str("]}");
        }
        s.push_str("]}");
    }
    s.push_str("\n  ]\n}\n");
    s
}

fn push_rows(t: &mut Table, loss: f64, churn: f64, epoch: u64, round: &SoakRound) {
    for fp in &round.flood {
        t.row([
            fnum(loss, 2),
            fnum(churn, 2),
            epoch.to_string(),
            round.round.to_string(),
            fp.ttl.to_string(),
            fnum(fp.success_rate, 5),
            fnum(fp.mean_messages, 1),
            fnum(fp.mean_reach_fraction, 5),
            fnum(round.alive_fraction, 5),
            round.components.to_string(),
            fnum(round.largest_fraction, 5),
            round.repair.pruned.to_string(),
            round.repair.added.to_string(),
            round.repair.messages.to_string(),
            round.ring_messages.to_string(),
            round.stale_entries.to_string(),
            round.lookups_ok.to_string(),
            round.lookup_total.to_string(),
            round.stale_misses.to_string(),
            round.rereplication_messages.to_string(),
        ]);
    }
}

/// The soak recovery experiment: renders the report, writes CSV + JSON.
pub fn soak(r: &Repro) -> String {
    let cells = soak_data(r, Pool::global());

    let mut t = Table::new([
        "loss",
        "churn",
        "epoch",
        "round",
        "ttl",
        "success_rate",
        "mean_messages",
        "reach_fraction",
        "alive_fraction",
        "components",
        "largest_fraction",
        "pruned",
        "added",
        "repair_messages",
        "ring_messages",
        "stale_entries",
        "lookups_ok",
        "lookup_total",
        "stale_misses",
        "rereplication_messages",
    ]);
    for cell in &cells {
        push_rows(&mut t, cell.loss, cell.churn, 0, &cell.baseline);
        for epoch in &cell.epochs {
            for round in &epoch.rounds {
                push_rows(&mut t, cell.loss, cell.churn, epoch.epoch, round);
            }
        }
    }
    r.write_csv("soak", &t);

    let json = soak_json(r, &cells);
    let path = r.out_dir.join("soak.json");
    std::fs::write(&path, &json)
        // qcplint: allow(panic) — artifact writers fail loudly by design.
        .unwrap_or_else(|e| panic!("failed writing {}: {e}", path.display()));

    // Report: per cell, the deepest-TTL recovery trajectory of the last
    // epoch, stale decay, and the repair bill.
    let mut out = String::new();
    let _ = writeln!(
        out,
        "soak: {} cells x {SOAK_EPOCHS} epochs x {SOAK_ROUNDS} repair rounds \
         (scale {:?}, {} trials)",
        cells.len(),
        r.scale,
        r.trials
    );
    for cell in &cells {
        let Some(last) = cell.epochs.last() else {
            continue;
        };
        let first = &last.rounds[0];
        let healed = &last.rounds[last.rounds.len() - 1];
        let deep = first.flood.len() - 1;
        let repair_messages: u64 = last.rounds.iter().map(|r| r.repair.messages).sum();
        let ring_messages: u64 =
            last.sync_messages + last.rounds.iter().map(|r| r.ring_messages).sum::<u64>();
        let _ = writeln!(
            out,
            "loss {:.2} churn {:.2} | epoch {}: ttl5 success {:.4} -> {:.4}, \
             partitions {} -> {}, stale misses {} -> {}, lookups {}/{} -> {}/{} \
             | repair msgs {repair_messages}, ring msgs {ring_messages}",
            cell.loss,
            cell.churn,
            last.epoch,
            first.flood[deep].success_rate,
            healed.flood[deep].success_rate,
            first.components,
            healed.components,
            first.stale_misses,
            healed.stale_misses,
            first.lookups_ok,
            first.lookup_total,
            healed.lookups_ok,
            healed.lookup_total,
        );
    }
    let _ = writeln!(
        out,
        "baseline rows (epoch 0) are bitwise the fig8-churn cells; wrote soak.csv and soak.json"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    fn session() -> Repro {
        let dir = std::env::temp_dir().join("qcp-soak-test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut r = Repro::new(dir, Scale::Test);
        r.trials = 30;
        r.seed = 0x50a7;
        r
    }

    #[test]
    fn soak_smoke_runs_and_shapes_hold() {
        let r = session();
        let pool = Pool::new(2);
        let cells = soak_data(&r, &pool);
        assert_eq!(cells.len(), SOAK_CELLS.len());
        for cell in &cells {
            assert_eq!(cell.baseline.flood.len(), 5);
            assert_eq!(cell.epochs.len(), SOAK_EPOCHS);
            for epoch in &cell.epochs {
                assert_eq!(epoch.rounds.len(), SOAK_ROUNDS + 1);
                assert_eq!(epoch.rounds[0].repair, RepairStats::default());
            }
        }
    }

    #[test]
    fn churny_cells_actually_recover() {
        let r = session();
        let pool = Pool::new(2);
        let cells = soak_data(&r, &pool);
        let heavy = cells
            .iter()
            .find(|c| c.churn >= 0.25)
            .expect("soak covers a heavy-churn cell");
        let epoch = &heavy.epochs[heavy.epochs.len() - 1];
        let damaged = &epoch.rounds[0];
        let healed = &epoch.rounds[epoch.rounds.len() - 1];
        assert!(
            damaged.components > 1,
            "25% churn must fragment the two-tier overlay"
        );
        assert!(
            healed.components < damaged.components,
            "repair must merge residual partitions: {} -> {}",
            damaged.components,
            healed.components
        );
        assert!(healed.repair.added > 0 || epoch.rounds[1].repair.added > 0);
        assert!(
            healed.stale_misses <= damaged.stale_misses,
            "re-replication must not grow staleness"
        );
    }

    #[test]
    fn fault_free_cell_is_flat_and_clean() {
        let r = session();
        let pool = Pool::new(2);
        let cells = soak_data(&r, &pool);
        let clean = &cells[0];
        assert_eq!((clean.loss, clean.churn), (0.0, 0.0));
        for epoch in &clean.epochs {
            assert_eq!(epoch.sync_messages, 0);
            for round in &epoch.rounds {
                assert_eq!(round.repair, RepairStats::default());
                assert_eq!(round.stale_misses, 0);
                assert_eq!(round.lookups_ok, round.lookup_total);
                assert_eq!(round.alive_fraction, 1.0);
                // Identical graph + CRN trials: the curve never moves.
                for (a, b) in clean.baseline.flood.iter().zip(&round.flood) {
                    assert_eq!(a.success_rate.to_bits(), b.success_rate.to_bits());
                }
            }
        }
    }

    #[test]
    fn soak_report_writes_artifacts() {
        let r = session();
        let out = soak(&r);
        assert!(out.contains("soak.csv"));
        assert!(r.out_dir.join("soak.csv").exists());
        let json = std::fs::read_to_string(r.out_dir.join("soak.json")).unwrap();
        assert!(json.contains("\"experiment\": \"soak\""));
        assert!(json.contains("\"epochs\""));
    }
}
