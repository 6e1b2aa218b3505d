//! Property tests pinning the capacity-aware kernels.
//!
//! Two load-bearing invariants:
//!
//! * **Unlimited capacity is the PR 7 kernel, bitwise.** An
//!   [`OverloadEngine`] run under [`CapacityPlan::unlimited`] must equal
//!   `event_flood` / `event_walk` exactly — outcome, fault stats, and
//!   all-zero overload accounting — under fault-free *and* lossy plans.
//! * **The shedding accounting identity.** Counting only the query's
//!   own (real) messages: `sent == served + dead_targets + dropped +
//!   shed + in_flight`, where `in_flight` counts calendar + queued
//!   messages at a deadline cutoff and is zero when the run drains.

use proptest::prelude::*;
use qcp_faults::capacity::{CapacityConfig, CapacityModel, CapacityPlan, ShedPolicy};
use qcp_faults::{FaultConfig, FaultPlan};
use qcp_obs::NoopRecorder;
use qcp_overlay::{event_flood, event_walk, topology, OverloadEngine, OverloadOutcome};

/// A small Erdős–Rényi world plus sorted holders, derived from two seeds.
fn world(seed: u64, holder_seed: u64, n: usize) -> (qcp_overlay::Graph, Vec<u32>) {
    let g = topology::erdos_renyi(n, 4.0, seed).graph;
    let holders: Vec<u32> = (0..n as u32)
        .filter(|&v| qcp_util::hash::mix64(holder_seed ^ v as u64).is_multiple_of(17))
        .collect();
    (g, holders)
}

fn lossy_latent_plan(n: usize, seed: u64) -> FaultPlan {
    FaultPlan::build(
        n,
        &FaultConfig {
            loss: 0.2,
            churn: 0.25,
            mean_latency: 5,
            seed,
            ..Default::default()
        },
    )
}

fn capacity(load: f64, policy: ShedPolicy, model: CapacityModel, seed: u64) -> CapacityPlan {
    CapacityPlan::build(&CapacityConfig {
        offered_load: load,
        queue_bound: 6,
        policy,
        model,
        seed,
    })
}

fn policy_of(i: u8) -> ShedPolicy {
    ShedPolicy::ALL[i as usize % ShedPolicy::ALL.len()]
}

fn model_of(i: u8) -> CapacityModel {
    CapacityModel::ALL[i as usize % CapacityModel::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn unlimited_flood_is_bitwise_the_event_kernel(
        seed in 0u64..300, hseed in 0u64..300, source in 0u32..150,
        ttl in 0u32..7, nonce in 0u64..200, lossy in 0u8..2, cutoff_raw in 0u64..61,
    ) {
        let (g, holders) = world(seed, hseed, 150);
        let cutoff = cutoff_raw.checked_sub(1);
        let plan = if lossy == 1 {
            lossy_latent_plan(150, seed ^ 0x5a)
        } else {
            FaultPlan::none(150)
        };
        let (a, sa) = event_flood(
            &g, source, ttl, &holders, None, &plan, 3, nonce, cutoff, &mut NoopRecorder,
        );
        let mut eng = OverloadEngine::new();
        let cap = CapacityPlan::unlimited();
        let (b, sb, over) = eng.flood_rec(
            &g, source, ttl, &holders, None, &plan, &cap, 3, nonce, cutoff,
            &mut NoopRecorder,
        );
        prop_assert_eq!(a, b);
        prop_assert_eq!(sa, sb);
        prop_assert_eq!(over, OverloadOutcome::default());
    }

    #[test]
    fn unlimited_walk_is_bitwise_the_event_kernel(
        seed in 0u64..300, wseed in 0u64..300, source in 0u32..150,
        k in 1usize..6, ttl in 1u32..20, nonce in 0u64..200, lossy in 0u8..2,
        cutoff_raw in 0u64..81,
    ) {
        let (g, holders) = world(seed, seed ^ 0x77, 150);
        let cutoff = cutoff_raw.checked_sub(1);
        let plan = if lossy == 1 {
            lossy_latent_plan(150, seed ^ 0x3c)
        } else {
            FaultPlan::none(150)
        };
        let (a, sa) = event_walk(
            &g, source, k, ttl, &holders, wseed, &plan, 0, nonce, cutoff, &mut NoopRecorder,
        );
        let mut eng = OverloadEngine::new();
        let cap = CapacityPlan::unlimited();
        let (b, sb, over) = eng.walk_rec(
            &g, source, k, ttl, &holders, wseed, &plan, &cap, 0, nonce, cutoff,
            &mut NoopRecorder,
        );
        prop_assert_eq!(a, b);
        prop_assert_eq!(sa, sb);
        prop_assert_eq!(over, OverloadOutcome::default());
    }

    #[test]
    fn flood_shedding_accounting_identity(
        seed in 0u64..300, hseed in 0u64..300, source in 0u32..150,
        ttl in 0u32..7, nonce in 0u64..200, load in 0u32..96,
        pol in 0u8..3, mdl in 0u8..2, lossy in 0u8..2, cutoff_raw in 0u64..121,
    ) {
        let (g, holders) = world(seed, hseed, 150);
        let cutoff = cutoff_raw.checked_sub(1);
        let plan = if lossy == 1 {
            lossy_latent_plan(150, seed ^ 0x5a)
        } else {
            FaultPlan::none(150)
        };
        let cap = capacity(f64::from(load), policy_of(pol), model_of(mdl), seed ^ 0xca9);
        let mut eng = OverloadEngine::new();
        let run = |eng: &mut OverloadEngine| eng.flood_rec(
            &g, source, ttl, &holders, None, &plan, &cap, 3, nonce, cutoff,
            &mut NoopRecorder,
        );
        let (out, stats, over) = run(&mut eng);
        // Identity: every sent message meets exactly one fate.
        prop_assert_eq!(
            out.flood.messages,
            over.served + stats.dead_targets + stats.dropped + over.shed + over.in_flight
        );
        // A drained run has nothing in flight.
        if !out.truncated {
            prop_assert_eq!(over.in_flight, 0);
        }
        prop_assert!(over.served <= over.enqueued);
        // Engine reuse reproduces the run bitwise.
        prop_assert_eq!((out, stats, over), run(&mut eng));
    }

    #[test]
    fn walk_shedding_accounting_identity(
        seed in 0u64..300, wseed in 0u64..300, source in 0u32..150,
        k in 1usize..6, ttl in 1u32..20, nonce in 0u64..200, load in 0u32..96,
        pol in 0u8..3, mdl in 0u8..2, lossy in 0u8..2, cutoff_raw in 0u64..201,
    ) {
        let (g, holders) = world(seed, seed ^ 0x77, 150);
        let cutoff = cutoff_raw.checked_sub(1);
        let plan = if lossy == 1 {
            lossy_latent_plan(150, seed ^ 0x3c)
        } else {
            FaultPlan::none(150)
        };
        let cap = capacity(f64::from(load), policy_of(pol), model_of(mdl), seed ^ 0x0ca);
        let mut eng = OverloadEngine::new();
        let run = |eng: &mut OverloadEngine| eng.walk_rec(
            &g, source, k, ttl, &holders, wseed, &plan, &cap, 0, nonce, cutoff,
            &mut NoopRecorder,
        );
        let (out, stats, over) = run(&mut eng);
        prop_assert_eq!(
            out.walk.messages,
            over.served + stats.dead_targets + stats.dropped + over.shed + over.in_flight
        );
        if !out.truncated {
            prop_assert_eq!(over.in_flight, 0);
        }
        // Walkers consume at most one step number per message sent.
        prop_assert!(out.walk.messages <= k as u64 * ttl as u64);
        prop_assert_eq!((out, stats, over), run(&mut eng));
    }
}
