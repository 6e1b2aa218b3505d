//! Property tests pinning the event-driven kernels to their synchronous
//! oracles.
//!
//! The load-bearing invariant: under a unit-latency, fault-free plan the
//! event flood's deliveries drain in exact BFS level order, so its
//! outcome quadruple is **bitwise identical** to the hop census's
//! reconstruction at every TTL (`census.at(ttl)`). Faulty and
//! latency-stretched event runs need not match any synchronous kernel
//! (their drop-stream message indices interleave differently) — for
//! those the pins are determinism and the forwarder-mask contract.

use proptest::prelude::*;
use qcp_faults::{FaultConfig, FaultPlan};
use qcp_obs::NoopRecorder;
use qcp_overlay::flood::{FloodEngine, FloodSpec};
use qcp_overlay::{event_flood, event_walk, topology};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unit_latency_event_flood_is_bitwise_the_census(
        seed in 0u64..500, hseed in 0u64..500, source in 0u32..200, max_ttl in 0u32..9,
    ) {
        let (g, holders) = world(seed, hseed, 200);
        let plan = FaultPlan::none(200);
        let mut e = FloodEngine::new(200);
        let spec = FloodSpec::new(max_ttl);
        let (census, _) = e.run(&g, source, &holders, None, &spec, &mut NoopRecorder);
        let nonce = seed ^ hseed;
        for ttl in 0..=max_ttl {
            let (out, _) = event_flood(
                &g, source, ttl, &holders, None, &plan, 0, nonce, None, &mut NoopRecorder,
            );
            prop_assert_eq!(out.flood, census.at(ttl), "ttl {}", ttl);
            prop_assert!(!out.truncated);
            // Unit latency: a hit at hop h is a hit at tick h.
            prop_assert_eq!(
                out.first_hit_time,
                out.flood.found_at_hop.map(u64::from)
            );
        }
        // Holder hit counts agree with the engine's rare-query counter.
        let (out, _) = event_flood(
            &g, source, max_ttl, &holders, None, &plan, 0, nonce, None, &mut NoopRecorder,
        );
        prop_assert_eq!(out.holders_reached, e.hits_in_last_flood(&holders));
    }

    #[test]
    fn unit_latency_event_flood_respects_forwarder_masks(
        seed in 0u64..300, hseed in 0u64..300, source in 0u32..150, ttl in 0u32..7,
    ) {
        let (g, holders) = world(seed, hseed, 150);
        // Pseudo-random leaf mask (the source always forwards by contract).
        let mask: Vec<bool> = (0..150u64)
            .map(|v| !qcp_util::hash::mix64(seed ^ v).is_multiple_of(3))
            .collect();
        let plan = FaultPlan::none(150);
        let mut e = FloodEngine::new(150);
        let spec = FloodSpec::new(ttl);
        let (census, _) = e.run(&g, source, &holders, Some(&mask), &spec, &mut NoopRecorder);
        let (out, _) = event_flood(
            &g, source, ttl, &holders, Some(&mask), &plan, 0, hseed, None, &mut NoopRecorder,
        );
        prop_assert_eq!(out.flood, census.at(ttl));
    }

    #[test]
    fn faulty_event_flood_is_deterministic_and_conserves_messages(
        seed in 0u64..300, hseed in 0u64..300, source in 0u32..150,
        ttl in 0u32..7, nonce in 0u64..500, time in 0u64..50,
    ) {
        let (g, holders) = world(seed, hseed, 150);
        let plan = lossy_latent_plan(150, seed ^ hseed.rotate_left(11));
        let run = || {
            event_flood(&g, source, ttl, &holders, None, &plan, time, nonce, None, &mut NoopRecorder)
        };
        let (a, stats) = run();
        prop_assert_eq!((a, stats), run());
        // Fire-and-forget: no retries, and every wasted message was sent.
        prop_assert_eq!(stats.retries, 0);
        prop_assert_eq!(stats.timeouts, 0);
        prop_assert!(stats.wasted() <= a.flood.messages);
        prop_assert_eq!(stats.ticks, a.completion_time);
    }

    #[test]
    fn event_flood_cutoff_only_shrinks_coverage(
        seed in 0u64..200, hseed in 0u64..200, source in 0u32..150, cutoff in 0u64..12,
    ) {
        let (g, holders) = world(seed, hseed, 150);
        let plan = FaultPlan::none(150);
        let flood = |cutoff| {
            event_flood(&g, source, 6, &holders, None, &plan, 0, 1, cutoff, &mut NoopRecorder)
        };
        let ((full, _), (cut, _)) = (flood(None), flood(Some(cutoff)));
        prop_assert!(cut.flood.reached <= full.flood.reached);
        prop_assert!(cut.flood.messages <= full.flood.messages);
        prop_assert!(cut.completion_time <= full.completion_time.max(cutoff));
        if !cut.truncated {
            prop_assert_eq!(cut, full);
        }
    }

    #[test]
    fn event_walk_is_deterministic_and_bounded(
        seed in 0u64..300, wseed in 0u64..300, source in 0u32..150,
        k in 1usize..6, ttl in 1u32..20, nonce in 0u64..200,
    ) {
        let (g, holders) = world(seed, seed ^ 0x77, 150);
        let plan = lossy_latent_plan(150, seed ^ 0x3c);
        let run = || {
            event_walk(&g, source, k, ttl, &holders, wseed, &plan, 0, nonce, None, &mut NoopRecorder)
        };
        let (a, stats) = run();
        prop_assert_eq!((a, stats), run());
        prop_assert!(a.walk.messages <= k as u64 * ttl as u64);
        prop_assert_eq!(stats.retries, 0);
        prop_assert!(stats.wasted() <= a.walk.messages);
        if let (Some(hit), Some(_)) = (a.first_hit_time, a.walk.found_at_step) {
            prop_assert!(hit <= a.completion_time);
        }
    }
}
