//! The two workloads on the Figure-8 world: `fig8-sweep` (read-only
//! census sweeps) and `churn-repair` (the soak loop: ring and overlay
//! writes between reads).

use crate::metrics::{Digest, Metrics};
use crate::trace::Tracer;
use crate::{guarded, Ctx, Size, Workload};
use qcp_core::dht::{ChordNetwork, DhtIndex, DEFAULT_SUCC_LEN};
use qcp_core::faults::{FaultConfig, FaultPlan, RetryPolicy};
use qcp_core::obs::MetricsRecorder;
use qcp_core::overlay::topology::gnutella_two_tier;
use qcp_core::overlay::{
    check_repair_invariants, sweep_ttl, sweep_ttl_faulty, sweep_ttl_faulty_rec, sweep_ttl_rec,
    Graph, Maintainer, MaintenancePolicy, Placement, PlacementModel, RepairStats, ReplicationPlan,
    ReplicationScheme, SimConfig, SweepPoint, TargetModel, TopologyConfig,
};
use qcp_core::util::hash::mix64;
use qcp_core::util::rng::{child_seed, Pcg64};
use qcp_core::xpar::Pool;

const TTLS: [u32; 5] = [1, 2, 3, 4, 5];

/// Seed-derivation tags (one stream per input).
const TOPOLOGY_TAG: u64 = 0xb0_0001;
const PLACEMENT_TAG: u64 = 0xb0_0002;
const REPLICATION_TAG: u64 = 0xb0_0003;
const PLAN_TAG: u64 = 0xb0_0004;
const TRIAL_TAG: u64 = 0xb0_0005;
const MAINTAIN_TAG: u64 = 0xb0_0006;
const RING_TAG: u64 = 0xb0_0007;
const KEY_TAG: u64 = 0xb0_0008;
const PROBE_TAG: u64 = 0xb0_0009;

/// The default Figure-8 world: two-tier Gnutella topology and Zipf
/// (tau = 2.05) placement over `n / 2` objects.
struct Fig8World {
    graph: Graph,
    forwarders: Vec<bool>,
    placement: Placement,
}

impl Fig8World {
    fn build(ctx: &Ctx, tr: &mut Tracer) -> Self {
        let num_nodes = match ctx.size {
            Size::Full => 40_000,
            Size::Tiny => 2_000,
        };
        let topo = tr.span("overlay.topology:build", |_| {
            gnutella_two_tier(&TopologyConfig {
                num_nodes,
                seed: child_seed(ctx.seed, TOPOLOGY_TAG),
                ..Default::default()
            })
        });
        let n = topo.graph.num_nodes() as u32;
        let placement = tr.span("overlay.placement:generate", |_| {
            Placement::generate(
                PlacementModel::ZipfReplicas { tau: 2.05 },
                n,
                (n / 2).max(1_000),
                child_seed(ctx.seed, PLACEMENT_TAG),
            )
        });
        Self {
            forwarders: topo.forwarders(),
            graph: topo.graph,
            placement,
        }
    }

    fn n(&self) -> usize {
        self.graph.num_nodes()
    }
}

fn total_copies(p: &Placement) -> u64 {
    (0..p.num_objects() as u32)
        .map(|o| p.replicas(o) as u64)
        .sum()
}

fn sim(seed: u64, trials: usize, i: u64) -> SimConfig {
    SimConfig {
        trials,
        target: TargetModel::UniformObject,
        seed: child_seed(seed ^ TRIAL_TAG, i),
    }
}

/// Curve invariants: success non-decreasing in TTL, rates in [0, 1],
/// `reached <= n`, and fault stats present exactly on faulty sweeps.
fn check_curve(what: &str, curve: &[SweepPoint], n: usize, faulty: bool, v: &mut Vec<String>) {
    if curve.len() != TTLS.len() {
        v.push(format!(
            "{what}: {} points, expected {}",
            curve.len(),
            TTLS.len()
        ));
    }
    for (k, p) in curve.iter().enumerate() {
        let unit = 0.0..=1.0;
        if !unit.contains(&p.success_rate) || !unit.contains(&p.mean_reach_fraction) {
            v.push(format!("{what} ttl {}: rate outside [0, 1]", p.ttl));
        }
        if p.mean_reached.is_nan() || p.mean_reached > n as f64 || p.mean_messages < 0.0 {
            v.push(format!(
                "{what} ttl {}: reached {} > n {n}",
                p.ttl, p.mean_reached
            ));
        }
        if p.stats.is_some() != faulty {
            v.push(format!("{what} ttl {}: fault stats presence wrong", p.ttl));
        }
        if k > 0 && p.success_rate < curve[k - 1].success_rate {
            v.push(format!("{what} ttl {}: success fell with TTL", p.ttl));
        }
    }
}

fn digest_curve(curve: &[SweepPoint], d: &mut Digest) {
    for p in curve {
        d.u64(p.ttl as u64);
        d.f64(p.success_rate);
        d.f64(p.mean_reached);
        d.f64(p.mean_messages);
        let f = p.faults();
        for x in [
            f.dropped,
            f.dead_targets,
            f.retries,
            f.timeouts,
            p.dead_sources,
        ] {
            d.u64(x);
        }
    }
}

/// Messages of one sweep: every TTL point shares one census per trial,
/// so the work is the deepest point's mean times the trials.
fn sweep_messages(curve: &[SweepPoint], trials: usize) -> f64 {
    curve
        .last()
        .map_or(0.0, |p| p.mean_messages * trials as f64)
}

fn tally_faults(curve: &[SweepPoint], tr: &mut Tracer) {
    if let Some(p) = curve.last() {
        let f = p.faults();
        tr.count("faults.dropped", f.dropped as f64);
        tr.count("faults.dead_targets", f.dead_targets as f64);
        tr.count("faults.dead_sources", p.dead_sources as f64);
        tr.count("faults.retries", f.retries as f64);
        tr.count("faults.timeouts", f.timeouts as f64);
    }
}

// ---------------------------------------------------------------------------
// fig8-sweep

/// `fig8-sweep`: one op is three TTL sweeps of `trials` trials each —
/// the Zipf placement, its Gia one-hop replicated placement, and the
/// Zipf placement under the (loss 0.05, churn 0.10) fault plan.
pub struct Fig8Sweep {
    seed: u64,
    trials: usize,
    world: Fig8World,
    replicated: Placement,
    copies: u64,
    plan: FaultPlan,
    pool: Pool,
    rec: MetricsRecorder,
}

pub struct Fig8Out {
    clean: Vec<SweepPoint>,
    repl: Vec<SweepPoint>,
    faulty: Vec<SweepPoint>,
}

impl Workload for Fig8Sweep {
    type Out = Fig8Out;

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self {
        let trials = match ctx.size {
            Size::Full => 48,
            Size::Tiny => 16,
        };
        let world = Fig8World::build(ctx, tr);
        let budget = 8 * world.placement.num_objects() as u64;
        let replicated = tr.span("overlay.replicate:apply", |_| {
            ReplicationPlan::new(
                ReplicationScheme::GiaOneHop,
                budget,
                child_seed(ctx.seed, REPLICATION_TAG),
            )
            .apply(&world.graph, &world.placement)
        });
        let copies = total_copies(&replicated) - total_copies(&world.placement);
        let plan = tr.span("faults:plan_build", |_| {
            FaultPlan::build(
                world.n(),
                &FaultConfig {
                    loss: 0.05,
                    churn: 0.10,
                    horizon: trials as u64,
                    mean_latency: 2,
                    rejoin: true,
                    seed: child_seed(ctx.seed, PLAN_TAG),
                },
            )
        });
        Self {
            seed: ctx.seed,
            trials,
            world,
            replicated,
            copies,
            plan,
            pool: Pool::new(ctx.width - 1),
            rec: MetricsRecorder::new(),
        }
    }

    fn op(&mut self, i: u64, tr: &mut Tracer) -> Fig8Out {
        let cfg = sim(self.seed, self.trials, i);
        let Self {
            world,
            replicated,
            plan,
            pool,
            rec,
            ..
        } = self;
        let fw = Some(world.forwarders.as_slice());
        let g = &world.graph;
        if tr.is_on() {
            Fig8Out {
                clean: tr.span("overlay.sim:sweep_clean", |_| {
                    sweep_ttl_rec(pool, g, &world.placement, fw, &TTLS, &cfg, rec)
                }),
                repl: tr.span("overlay.sim:sweep_repl", |_| {
                    sweep_ttl_rec(pool, g, replicated, fw, &TTLS, &cfg, rec)
                }),
                faulty: tr.span("overlay.sim:sweep_faulty", |_| {
                    sweep_ttl_faulty_rec(pool, g, &world.placement, fw, &TTLS, &cfg, plan, rec)
                }),
            }
        } else {
            Fig8Out {
                clean: sweep_ttl(pool, g, &world.placement, fw, &TTLS, &cfg),
                repl: sweep_ttl(pool, g, replicated, fw, &TTLS, &cfg),
                faulty: sweep_ttl_faulty(pool, g, &world.placement, fw, &TTLS, &cfg, plan),
            }
        }
    }

    fn check(&mut self, _i: u64, out: &Fig8Out, tr: &mut Tracer) -> Vec<String> {
        let n = self.world.n();
        let mut v = Vec::new();
        check_curve("clean", &out.clean, n, false, &mut v);
        check_curve("replicated", &out.repl, n, false, &mut v);
        check_curve("faulty", &out.faulty, n, true, &mut v);
        // Replication only adds holders and the trial streams are shared,
        // so no TTL may lose success.
        for (c, r) in out.clean.iter().zip(&out.repl) {
            if r.success_rate < c.success_rate {
                v.push(format!("ttl {}: replication lowered success", c.ttl));
            }
        }
        tr.count("overlay.sim.trials", 3.0 * self.trials as f64);
        let messages: f64 = [&out.clean, &out.repl, &out.faulty]
            .iter()
            .map(|c| sweep_messages(c, self.trials))
            .sum();
        tr.count("overlay.sim.messages", messages);
        tally_faults(&out.faulty, tr);
        v
    }

    fn corrupt(out: &mut Fig8Out) {
        out.clean[0].success_rate = 1.5;
    }

    fn digest(out: &Fig8Out, d: &mut Digest) {
        for c in [&out.clean, &out.repl, &out.faulty] {
            digest_curve(c, d);
        }
    }

    fn layer_metrics(&self, _tr: &Tracer, m: &mut Metrics) {
        m.set("overlay.replicate.copies", self.copies as f64, "count");
        let sweep_s = m.get("overlay.sim.sweep_clean_s")
            + m.get("overlay.sim.sweep_repl_s")
            + m.get("overlay.sim.sweep_faulty_s");
        m.set(
            "overlay.sim.trials_per_s",
            m.get("overlay.sim.trials") / sweep_s.max(1e-12),
            "1/s",
        );
    }
}

// ---------------------------------------------------------------------------
// churn-repair

/// Posting lists published into the index.
const PUBLISHED_KEYS: usize = 600;
/// Plan horizon in ticks. Down intervals start uniformly in the horizon
/// and last a quarter to three quarters of it, so from 3/4 of the horizon
/// on a node is down with probability churn / 2 at every tick, and
/// departures balance rejoins. The churn clock stays in that window: it
/// moves `STEP` ticks per op, forward to the horizon and back again, so
/// every op sees about the same number of liveness changes however many
/// ops run.
const HORIZON: u64 = 16_000;
const START_TICK: u64 = HORIZON * 3 / 4;
const STEP: u64 = 4;
const STEPS_PER_SWEEP: u64 = (HORIZON - START_TICK) / STEP;

/// The churn clock at op `i`.
fn churn_tick(i: u64) -> u64 {
    let p = (i + 1) % (2 * STEPS_PER_SWEEP);
    START_TICK + STEP * p.min(2 * STEPS_PER_SWEEP - p)
}

/// `churn-repair`: the soak loop, one fixed churn step per op — sync
/// departures and rejoins into the ring, one overlay repair round, ring
/// stabilization, index re-replication, a short faulty sweep on the
/// repaired graph, and a fixed set of ring and index probes.
pub struct ChurnRepair {
    seed: u64,
    trials: usize,
    probes: usize,
    world: Fig8World,
    plan: FaultPlan,
    maintainer: Maintainer,
    /// The graph before the latest repair round (for the invariant check).
    before: Graph,
    net: ChordNetwork,
    index: DhtIndex,
    keys: Vec<u64>,
    policy: RetryPolicy,
    pool: Pool,
}

pub struct ChurnOut {
    tick: u64,
    alive: Vec<bool>,
    departs: u64,
    rejoins: u64,
    sync_messages: u64,
    repair: RepairStats,
    maintain_messages: u64,
    stale_entries: u64,
    rereplicate_messages: u64,
    flood: Vec<SweepPoint>,
    lookups_ok: u64,
    lookups: u64,
    stale_misses: u64,
}

/// Brings the ring's membership in line with `alive` (rejoins first, so
/// departures can never empty it). Returns (departs, rejoins, messages).
fn sync_ring(net: &mut ChordNetwork, alive: &[bool]) -> (u64, u64, u64) {
    let (mut departs, mut rejoins, mut messages) = (0, 0, 0);
    for v in 0..alive.len() as u32 {
        if net.is_departed(v) && alive[v as usize] {
            messages += net.rejoin(v);
            rejoins += 1;
        }
    }
    for v in 0..alive.len() as u32 {
        if !net.is_departed(v) && !alive[v as usize] && net.live_count() > 1 {
            net.depart(v);
            departs += 1;
        }
    }
    (departs, rejoins, messages)
}

impl ChurnRepair {
    /// First index at or cyclically after `start` that is alive.
    fn first_alive(alive: &[bool], start: u32) -> u32 {
        let n = alive.len();
        (0..n)
            .map(|off| ((start as usize + off) % n) as u32)
            .find(|&v| alive[v as usize])
            .unwrap_or(start)
    }

    /// Stale-table lookups and index queries for `probes` (source, key)
    /// pairs drawn from the op index. Returns (lookups ok, stale misses).
    fn probe(&self, i: u64, tick: u64, plan: &FaultPlan) -> (u64, u64) {
        let n = self.world.n();
        let ring_alive = self.net.alive_mask();
        let mut rng = Pcg64::new(child_seed(self.seed ^ PROBE_TAG, i));
        let (mut ok, mut stale) = (0, 0);
        for q in 0..self.probes as u64 {
            let src = rng.index(n) as u32;
            let key = self.keys[rng.index(self.keys.len())];
            let (res, _) = self
                .net
                .lookup_stale(Self::first_alive(&ring_alive, src), key);
            ok += res.is_some() as u64;
            if let Some(s) = plan.first_alive_from(src, tick) {
                let (_, stats) = self.index.query_keys_faulty(
                    &self.net,
                    s,
                    &[key],
                    plan,
                    &self.policy,
                    tick,
                    child_seed(self.seed ^ PROBE_TAG, i << 16 | q),
                );
                stale += stats.stale_misses;
            }
        }
        (ok, stale)
    }
}

impl Workload for ChurnRepair {
    type Out = ChurnOut;

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self {
        let (trials, probes) = match ctx.size {
            Size::Full => (16, 64),
            Size::Tiny => (8, 16),
        };
        let world = Fig8World::build(ctx, tr);
        let n = world.n();
        let plan = tr.span("faults:plan_build", |_| {
            FaultPlan::build(
                n,
                &FaultConfig {
                    loss: 0.05,
                    churn: 0.25,
                    horizon: HORIZON,
                    mean_latency: 2,
                    rejoin: true,
                    seed: child_seed(ctx.seed, PLAN_TAG),
                },
            )
        });
        let pool = Pool::new(ctx.width - 1);
        let mut maintainer = Maintainer::new(
            world.graph.clone(),
            MaintenancePolicy::preferential(2, 64, 16, child_seed(ctx.seed, MAINTAIN_TAG)),
        );
        let mut net = tr.span("dht:ring_build", |_| {
            ChordNetwork::with_succ_len(n, child_seed(ctx.seed, RING_TAG), DEFAULT_SUCC_LEN)
        });
        let keys: Vec<u64> = (0..PUBLISHED_KEYS as u64)
            .map(|i| mix64(child_seed(ctx.seed ^ KEY_TAG, i)))
            .collect();
        let mut index = tr.span("dht:index_publish", |_| {
            let mut index = DhtIndex::new(&net);
            for (i, &key) in keys.iter().enumerate() {
                if let Some(&publisher) = world.placement.holders(i as u32).first() {
                    index.publish_key(&net, publisher, key, i as u32);
                }
            }
            index
        });
        // Fast-forward to the steady state, so every op sees the same
        // amount of churn.
        let alive = tr.span("faults:freeze", |_| plan.alive_mask_at(START_TICK));
        tr.span("dht:sync", |_| sync_ring(&mut net, &alive));
        tr.span("overlay.repair:step", |_| maintainer.step(&pool, &alive));
        tr.span("dht:maintain", |_| net.stabilize() + net.fix_fingers());
        tr.span("dht:rereplicate", |_| index.re_replicate(&net, &alive));
        Self {
            seed: ctx.seed,
            trials,
            probes,
            before: maintainer.graph().clone(),
            world,
            plan,
            maintainer,
            net,
            index,
            keys,
            policy: RetryPolicy::default(),
            pool,
        }
    }

    fn op(&mut self, i: u64, tr: &mut Tracer) -> ChurnOut {
        let tick = churn_tick(i);
        let (alive, measure) = tr.span("faults:freeze", |_| {
            (
                self.plan.alive_mask_at(tick),
                self.plan.frozen_at(tick).silence_loss(),
            )
        });
        let (departs, rejoins, sync_messages) =
            tr.span("dht:sync", |_| sync_ring(&mut self.net, &alive));
        let repair = tr.span("overlay.repair:step", |_| {
            self.maintainer.step(&self.pool, &alive)
        });
        let (maintain_messages, stale_entries) = tr.span("dht:maintain", |_| {
            let m = self.net.stabilize() + self.net.fix_fingers();
            (m, self.net.stale_entries() as u64)
        });
        let (_, rereplicate_messages) = tr.span("dht:rereplicate", |_| {
            self.index.re_replicate(&self.net, &alive)
        });
        let cfg = sim(self.seed, self.trials, i);
        let flood = tr.span("overlay.sim:sweep_faulty", |_| {
            sweep_ttl_faulty(
                &self.pool,
                self.maintainer.graph(),
                &self.world.placement,
                Some(&self.world.forwarders),
                &TTLS,
                &cfg,
                &measure,
            )
        });
        let (lookups_ok, stale_misses) = tr.span("dht:probe", |_| self.probe(i, tick, &measure));
        ChurnOut {
            tick,
            alive,
            departs,
            rejoins,
            sync_messages,
            repair,
            maintain_messages,
            stale_entries,
            rereplicate_messages,
            flood,
            lookups_ok,
            lookups: self.probes as u64,
            stale_misses,
        }
    }

    fn check(&mut self, _i: u64, out: &ChurnOut, tr: &mut Tracer) -> Vec<String> {
        let mut v = Vec::new();
        v.extend(guarded("repair identity", || out.repair.check_identity()));
        v.extend(guarded("repair invariants", || {
            check_repair_invariants(
                &self.before,
                self.maintainer.graph(),
                &out.alive,
                self.maintainer.policy(),
                &out.repair,
            )
        }));
        v.extend(guarded("successor lists", || {
            self.net.check_successor_lists()
        }));
        check_curve("repaired", &out.flood, self.world.n(), true, &mut v);
        if out.lookups_ok > out.lookups {
            v.push(format!("{} lookups ok of {}", out.lookups_ok, out.lookups));
        }
        self.before = self.maintainer.graph().clone();

        tr.count("dht.departs", out.departs as f64);
        tr.count("dht.rejoins", out.rejoins as f64);
        tr.count("dht.sync_messages", out.sync_messages as f64);
        tr.count("overlay.repair.probes", out.repair.probes as f64);
        tr.count("overlay.repair.added", out.repair.added as f64);
        tr.count("overlay.repair.pruned", out.repair.pruned as f64);
        tr.count("dht.maintain_messages", out.maintain_messages as f64);
        tr.count("dht.stale_entries", out.stale_entries as f64);
        tr.count("dht.rereplicate_messages", out.rereplicate_messages as f64);
        tr.count("dht.lookups_ok", out.lookups_ok as f64);
        tr.count("dht.lookups", out.lookups as f64);
        tr.count("dht.stale_misses", out.stale_misses as f64);
        tr.count("overlay.sim.trials", self.trials as f64);
        tr.count(
            "overlay.sim.messages",
            sweep_messages(&out.flood, self.trials),
        );
        tally_faults(&out.flood, tr);
        v
    }

    fn corrupt(out: &mut ChurnOut) {
        out.repair.messages += 1;
    }

    fn digest(out: &ChurnOut, d: &mut Digest) {
        for x in [
            out.tick,
            out.departs,
            out.rejoins,
            out.sync_messages,
            out.repair.pruned,
            out.repair.deficient,
            out.repair.probes,
            out.repair.added,
            out.repair.messages,
            out.maintain_messages,
            out.stale_entries,
            out.rereplicate_messages,
            out.lookups_ok,
            out.stale_misses,
        ] {
            d.u64(x);
        }
        digest_curve(&out.flood, d);
    }

    fn layer_metrics(&self, tr: &Tracer, m: &mut Metrics) {
        m.set(
            "overlay.repair.added_per_probe",
            tr.counter("overlay.repair.added") / tr.counter("overlay.repair.probes").max(1.0),
            "ratio",
        );
        m.set(
            "dht.lookup_ok_ratio",
            tr.counter("dht.lookups_ok") / tr.counter("dht.lookups").max(1.0),
            "ratio",
        );
        m.set(
            "overlay.sim.trials_per_s",
            m.get("overlay.sim.trials") / m.get("overlay.sim.sweep_faulty_s").max(1e-12),
            "1/s",
        );
    }
}
