//! Property tests for the hop-census flood kernel and the census-backed
//! TTL sweeps.
//!
//! Two families of invariants:
//!
//! 1. **Monotonicity** — a census's per-level `reached`/`messages` vectors
//!    are cumulative prefix sums of one BFS, so they are monotone
//!    non-decreasing by construction; and because every sweep trial uses
//!    common random numbers across TTLs (trial RNG keyed by `trial`
//!    alone), a curve's `success_rate` is *exactly* monotone in TTL —
//!    not just statistically.
//! 2. **Prefix pins** — `census.at(t)` must be bitwise-equal to a
//!    standalone flood at TTL `t` over the same inputs, fault-free and
//!    faulty (drop draws key on `(edge, nonce, msg_index)`, which never
//!    mention the TTL), and the census sweeps must be bitwise-equal to
//!    the per-TTL reference sweeps.

use proptest::prelude::*;
use qcp_faults::{FaultConfig, FaultPlan, FaultStats};
use qcp_obs::{Event, Kernel, MetricsRecorder, NoopRecorder};
use qcp_overlay::batch::{BatchCensus, BatchLane, BatchOutcome};
use qcp_overlay::flood::{CensusOutcome, FloodEngine, FloodFaults, FloodSpec};
use qcp_overlay::placement::PlacementModel;
use qcp_overlay::sim::{
    sweep_reference, sweep_ttl, sweep_ttl_faulty, sweep_ttl_faulty_rec, sweep_ttl_rec, SimConfig,
    TargetModel,
};
use qcp_overlay::{topology, Placement};
use qcp_util::hash::mix64;
use qcp_xpar::Pool;

/// A small Erdős–Rényi world plus sorted holders, derived from two seeds.
fn world(seed: u64, holder_seed: u64, n: usize) -> (qcp_overlay::Graph, Vec<u32>) {
    let g = topology::erdos_renyi(n, 4.0, seed).graph;
    // Pseudo-random holder set: every node whose mixed id clears a bar.
    let holders: Vec<u32> = (0..n as u32)
        .filter(|&v| qcp_util::hash::mix64(holder_seed ^ v as u64).is_multiple_of(17))
        .collect();
    (g, holders)
}

/// An unrecorded census through the unified entry point.
fn census(
    e: &mut FloodEngine,
    g: &qcp_overlay::Graph,
    source: u32,
    holders: &[u32],
    spec: FloodSpec<'_>,
) -> (CensusOutcome, Vec<FaultStats>) {
    e.run(g, source, holders, None, &spec, &mut NoopRecorder)
}

/// A lossy + churny plan over `n` nodes.
fn lossy_plan(n: usize, seed: u64) -> FaultPlan {
    FaultPlan::build(
        n,
        &FaultConfig {
            loss: 0.25,
            churn: 0.30,
            seed,
            ..Default::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn census_vectors_are_monotone(seed in 0u64..1_000, hseed in 0u64..1_000,
                                   source in 0u32..200, max_ttl in 0u32..10) {
        let (g, holders) = world(seed, hseed, 200);
        let mut e = FloodEngine::new(200);
        let census = census(&mut e, &g, source, &holders, FloodSpec::new(max_ttl)).0;
        prop_assert!(census.reached.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(census.messages.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(census.reached[0], 1, "level 0 is the source alone");
        prop_assert_eq!(census.messages[0], 0);
    }

    #[test]
    fn faulty_census_vectors_are_monotone(seed in 0u64..500, hseed in 0u64..500,
                                          source in 0u32..200, max_ttl in 0u32..10,
                                          nonce in 0u64..1_000, time in 0u64..100) {
        let (g, holders) = world(seed, hseed, 200);
        let plan = lossy_plan(200, seed ^ hseed.rotate_left(17));
        let mut e = FloodEngine::new(200);
        let spec = FloodSpec::new(max_ttl).faulty(&plan, time, nonce);
        let (census, stats) = census(&mut e, &g, source, &holders, spec);
        prop_assert!(census.reached.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(census.messages.windows(2).all(|w| w[0] <= w[1]));
        // Cumulative fault counters inherit monotonicity field by field.
        prop_assert!(stats.windows(2).all(|w| {
            w[0].dropped <= w[1].dropped
                && w[0].dead_targets <= w[1].dead_targets
                && w[0].ticks <= w[1].ticks
        }));
        prop_assert_eq!(stats.len(), census.reached.len());
    }

    #[test]
    fn census_prefix_equals_standalone_flood(seed in 0u64..300, hseed in 0u64..300,
                                             source in 0u32..150, max_ttl in 1u32..8,
                                             ttl in 0u32..8) {
        let ttl = ttl.min(max_ttl);
        let (g, holders) = world(seed, hseed, 150);
        let mut e = FloodEngine::new(150);
        let census = census(&mut e, &g, source, &holders, FloodSpec::new(max_ttl)).0;
        let plain = e.flood_reference(&g, source, ttl, &holders, None, None).0;
        prop_assert_eq!(census.at(ttl), plain);
    }

    #[test]
    fn faulty_census_prefix_equals_standalone_faulty_flood(
        seed in 0u64..300, hseed in 0u64..300, source in 0u32..150,
        max_ttl in 1u32..8, ttl in 0u32..8, nonce in 0u64..500, time in 0u64..50,
    ) {
        let ttl = ttl.min(max_ttl);
        let (g, holders) = world(seed, hseed, 150);
        for plan in [FaultPlan::none(150), lossy_plan(150, seed ^ 0xfa)] {
            let mut e = FloodEngine::new(150);
            let spec = FloodSpec::new(max_ttl).faulty(&plan, time, nonce);
            let (census, level_stats) = census(&mut e, &g, source, &holders, spec);
            let faults = Some(FloodFaults { plan: &plan, time, nonce });
            let (plain, plain_stats) =
                e.flood_reference(&g, source, ttl, &holders, None, faults);
            let level = ttl.min(census.levels()) as usize;
            prop_assert_eq!(census.at(ttl), plain);
            prop_assert_eq!(level_stats[level], plain_stats);
        }
    }
}

proptest! {
    // Sweeps run hundreds of floods per case; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sweep_success_rate_is_exactly_monotone_in_ttl(seed in 0u64..100, k in 1u32..8) {
        let t = topology::erdos_renyi(250, 4.0, seed);
        let p = Placement::generate(PlacementModel::UniformK(k), 250, 60, seed ^ 0x9e);
        let config = SimConfig { trials: 120, target: TargetModel::UniformObject, seed };
        let pool = Pool::new(2);
        let curve = sweep_ttl(&pool, &t.graph, &p, None, &[0, 1, 2, 3, 4, 5, 6], &config);
        // Common random numbers: each trial's TTL-t flood is a prefix of
        // its TTL-(t+1) flood, so every per-point aggregate is monotone.
        for w in curve.windows(2) {
            prop_assert!(w[0].success_rate <= w[1].success_rate);
            prop_assert!(w[0].mean_reached <= w[1].mean_reached);
            prop_assert!(w[0].mean_messages <= w[1].mean_messages);
        }
    }

    #[test]
    fn census_sweep_pins_reference_bitwise(seed in 0u64..100) {
        let t = topology::erdos_renyi(200, 4.0, seed);
        let p = Placement::generate(PlacementModel::UniformK(3), 200, 50, seed ^ 0x51);
        let config = SimConfig { trials: 80, target: TargetModel::UniformObject, seed };
        let pool = Pool::new(2);
        let ttls = [1u32, 3, 5];
        let census = sweep_ttl(&pool, &t.graph, &p, None, &ttls, &config);
        let reference = sweep_reference(&pool, &t.graph, &p, None, &ttls, &config, None);
        for (c, r) in census.iter().zip(&reference) {
            prop_assert_eq!(c.ttl, r.ttl);
            prop_assert_eq!(c.success_rate.to_bits(), r.success_rate.to_bits());
            prop_assert_eq!(c.mean_reached.to_bits(), r.mean_reached.to_bits());
            prop_assert_eq!(c.mean_messages.to_bits(), r.mean_messages.to_bits());
        }
    }

    #[test]
    fn faulty_census_sweep_pins_reference_bitwise(seed in 0u64..100) {
        let t = topology::erdos_renyi(200, 4.0, seed);
        let p = Placement::generate(PlacementModel::UniformK(3), 200, 50, seed ^ 0x52);
        let config = SimConfig { trials: 80, target: TargetModel::UniformObject, seed };
        let pool = Pool::new(2);
        let ttls = [1u32, 2, 4];
        for plan in [FaultPlan::none(200), lossy_plan(200, seed ^ 0x53)] {
            let census = sweep_ttl_faulty(&pool, &t.graph, &p, None, &ttls, &config, &plan);
            let reference =
                sweep_reference(&pool, &t.graph, &p, None, &ttls, &config, Some(&plan));
            for (c, r) in census.iter().zip(&reference) {
                prop_assert_eq!(c.ttl, r.ttl);
                prop_assert_eq!(c.success_rate.to_bits(), r.success_rate.to_bits());
                prop_assert_eq!(c.mean_messages.to_bits(), r.mean_messages.to_bits());
                prop_assert_eq!(c.stats, r.stats);
                prop_assert_eq!(c.dead_sources, r.dead_sources);
            }
        }
    }
}

/// `None` and `Some(FaultPlan::none)` must produce the same census
/// bitwise, pruned or not — outside `proptest!` because it needs no
/// generated inputs beyond a loop.
#[test]
fn none_plan_census_equals_plain_census() {
    for seed in 0..4u64 {
        let (g, holders) = world(seed, seed ^ 7, 150);
        let plan = FaultPlan::none(150);
        let mut e = FloodEngine::new(150);
        for source in [0u32, 50, 149] {
            for plain in [FloodSpec::new(6), FloodSpec::new(6).pruned()] {
                let faulty = plain.faulty(&plan, 0, seed);
                let (plain, _) = census(&mut e, &g, source, &holders, plain);
                let (faulty, stats) = census(&mut e, &g, source, &holders, faulty);
                assert_eq!(plain, faulty);
                assert!(stats.iter().all(|s| *s == FaultStats::default()));
            }
        }
    }
}

// ---------------------------------------------------------------------
// The bit-parallel batch census against the scalar census. A batch
// keeps per-level sums over its lanes plus each lane's first-hit hop;
// without loss every one of those is order-independent, so it must
// equal the sum of the lanes' scalar censuses exactly, recorder state
// included — over random graphs, forwarder masks, frozen alive masks,
// holder sets and lane layouts (duplicate sources, sources holding the
// object, dead sources, TTL 0).
// ---------------------------------------------------------------------

/// A random loss-free plan for the batch: `None`, a zero-fault plan, a
/// churny plan frozen mid-horizon with its loss silenced, or (rarely) a
/// plan with every node down for good.
fn frozen_plan(n: usize, seed: u64, kind: u32) -> Option<FaultPlan> {
    match kind {
        0 => None,
        1 => Some(FaultPlan::none(n)),
        2 => Some(FaultPlan::build(
            n,
            &FaultConfig {
                loss: 0.0,
                churn: 0.0,
                seed,
                ..Default::default()
            },
        )),
        3 => Some(FaultPlan::build(
            n,
            &FaultConfig {
                loss: 0.0,
                churn: 1.0,
                horizon: 1,
                rejoin: false,
                seed,
                ..Default::default()
            },
        )),
        _ => Some(lossy_plan(n, seed).frozen_at(seed % 1_000).silence_loss()),
    }
}

/// A pseudo-random forwarder mask (about three nodes in four forward).
fn forwarder_mask(n: usize, seed: u64) -> Vec<bool> {
    (0..n as u64)
        .map(|v| !mix64(seed ^ v).is_multiple_of(4))
        .collect()
}

/// `count` lanes over `n` nodes: sources drawn from a small pool so that
/// duplicates are common, holder sets of 0–5 random peers, and every
/// fifth lane's source holding its own object.
fn lane_inputs(n: usize, seed: u64, count: usize) -> Vec<(u32, Vec<u32>)> {
    (0..count as u64)
        .map(|lane| {
            let h = mix64(seed ^ lane.wrapping_mul(0x9e37_79b9));
            let source = (h % (n as u64 / 3 + 1)) as u32;
            let mut holders: Vec<u32> = (0..h % 6)
                .map(|i| (mix64(h ^ i) % n as u64) as u32)
                .collect();
            if lane % 5 == 0 {
                holders.push(source);
            }
            holders.sort_unstable();
            holders.dedup();
            (source, holders)
        })
        .collect()
}

/// The scalar side: one census per lane, summed per level, plus the
/// recorder those censuses fill.
fn scalar_batch(
    g: &qcp_overlay::Graph,
    lanes: &[BatchLane<'_>],
    fwd: Option<&[bool]>,
    max_ttl: u32,
    plan: Option<&FaultPlan>,
) -> (BatchOutcome, MetricsRecorder) {
    let mut e = FloodEngine::new(g.num_nodes());
    let mut rec = MetricsRecorder::new();
    let spec = match plan {
        None => FloodSpec::new(max_ttl),
        Some(p) => FloodSpec::new(max_ttl).faulty(p, 0, 0),
    };
    let runs: Vec<(CensusOutcome, Vec<FaultStats>)> = lanes
        .iter()
        .map(|q| e.run(g, q.source, q.holders, fwd, &spec, &mut rec))
        .collect();
    let levels = runs.iter().map(|(c, _)| c.levels()).max().unwrap_or(0);
    let mut out = BatchOutcome::default();
    for h in 0..=levels {
        let mut stats = FaultStats::default();
        for (c, s) in &runs {
            stats.absorb(&s[h.min(c.levels()) as usize]);
        }
        out.reached
            .push(runs.iter().map(|(c, _)| u64::from(c.at(h).reached)).sum());
        out.messages
            .push(runs.iter().map(|(c, _)| c.at(h).messages).sum());
        out.stats.push(stats);
    }
    out.first_hit_hop = runs.iter().map(|(c, _)| c.first_hit_hop).collect();
    (out, rec)
}

/// Runs one random batch both ways and compares them lane by lane.
fn check_batch(seed: u64, count: usize, max_ttl: u32, plan_kind: u32, masked: bool) {
    let n = 60 + (seed % 240) as usize;
    let g = topology::erdos_renyi(n, 2.0 + (seed % 5) as f64, seed).graph;
    let mask = forwarder_mask(n, seed ^ 0xf00d);
    let fwd = masked.then_some(mask.as_slice());
    let plan = frozen_plan(n, seed ^ 0x5eed, plan_kind);
    let inputs = lane_inputs(n, seed ^ 0x1a9e, count);
    let lanes: Vec<BatchLane<'_>> = inputs
        .iter()
        .map(|(source, holders)| BatchLane {
            source: *source,
            holders,
        })
        .collect();
    let mut batch = BatchCensus::new(n);
    let mut out = BatchOutcome::default();
    let mut rec = MetricsRecorder::new();
    batch.run(&g, &lanes, fwd, max_ttl, plan.as_ref(), &mut rec, &mut out);
    let (want, want_rec) = scalar_batch(&g, &lanes, fwd, max_ttl, plan.as_ref());
    assert_eq!(
        out.first_hit_hop, want.first_hit_hop,
        "per-lane first hits, seed {seed}"
    );
    assert_eq!(out, want, "per-level sums, seed {seed}");
    assert_eq!(rec, want_rec, "recorder state, seed {seed}");
    for ttl in 0..=max_ttl {
        let (point, stats) = out.at(ttl);
        let mut hits = 0;
        let mut reached = 0;
        let mut messages = 0;
        for lane in &lanes {
            let mut e = FloodEngine::new(n);
            let faults = plan.as_ref().map(|p| FloodFaults {
                plan: p,
                time: 0,
                nonce: 0,
            });
            let (o, _) = e.flood_reference(&g, lane.source, ttl, lane.holders, fwd, faults);
            hits += u64::from(o.found);
            reached += u64::from(o.reached);
            messages += o.messages;
        }
        assert_eq!(point, [hits, reached, messages], "TTL {ttl}, seed {seed}");
        if plan.is_none() {
            assert_eq!(stats, FaultStats::default());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batch_census_equals_scalar_censuses(seed in 0u64..10_000, count in 1usize..=64,
                                           max_ttl in 0u32..7, plan_kind in 0u32..6,
                                           masked in 0u32..2) {
        check_batch(seed, count, max_ttl, plan_kind, masked == 1);
    }
}

#[test]
fn batch_census_edge_lane_counts_equal_scalar() {
    for seed in 0..6u64 {
        for count in [1usize, 63, 64] {
            for plan_kind in [0, 3, 4] {
                check_batch(seed, count, 4, plan_kind, seed % 2 == 0);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Batched sweeps (every loss-free plan takes the batch path) against
    /// the per-(trial, TTL) reference sweep, across lane counts around
    /// the 64-lane word, fewer trials than threads, dead-source
    /// re-issues, an all-down network and 1- vs 4-thread pools.
    #[test]
    fn batched_sweep_pins_reference_bitwise(seed in 0u64..1_000, plan_kind in 0u32..6) {
        let n = 150;
        let t = topology::erdos_renyi(n, 4.0, seed);
        let p = Placement::generate(PlacementModel::UniformK(3), n as u32, 40, seed ^ 0x54);
        let fwd = forwarder_mask(n, seed);
        let plan = frozen_plan(n, seed ^ 0x55, plan_kind);
        let ttls = [0u32, 1, 3, 5];
        for trials in [1usize, 3, 63, 64, 65, 130] {
            let config = SimConfig { trials, target: TargetModel::UniformObject, seed };
            let mut recs = Vec::new();
            for threads in [1usize, 4] {
                let pool = Pool::new(threads);
                let mut rec = MetricsRecorder::new();
                let batched = match &plan {
                    None => sweep_ttl_rec(&pool, &t.graph, &p, Some(&fwd), &ttls, &config, &mut rec),
                    Some(plan) => sweep_ttl_faulty_rec(
                        &pool, &t.graph, &p, Some(&fwd), &ttls, &config, plan, &mut rec,
                    ),
                };
                let reference =
                    sweep_reference(&pool, &t.graph, &p, Some(&fwd), &ttls, &config, plan.as_ref());
                prop_assert_eq!(&batched, &reference);
                recs.push(rec);
            }
            prop_assert_eq!(&recs[0], &recs[1], "pool width leaked into the recorder");
            let rec = &recs[0];
            let answered = rec.event_count(Kernel::Flood, Event::Hit)
                + rec.event_count(Kernel::Flood, Event::Miss);
            prop_assert_eq!(rec.spans(Kernel::Flood), answered);
            if plan_kind == 3 {
                prop_assert_eq!(answered, 0, "an all-down network answers nothing");
            } else {
                prop_assert_eq!(answered, trials as u64);
            }
        }
    }
}
