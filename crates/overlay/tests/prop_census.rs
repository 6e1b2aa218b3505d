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
use qcp_obs::NoopRecorder;
use qcp_overlay::flood::{CensusOutcome, FloodEngine, FloodFaults, FloodSpec};
use qcp_overlay::placement::PlacementModel;
use qcp_overlay::sim::{sweep_reference, sweep_ttl, sweep_ttl_faulty, SimConfig, TargetModel};
use qcp_overlay::{topology, Placement};
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
