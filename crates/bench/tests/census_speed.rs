//! The hop census against the per-TTL reference sweep on the smoke
//! Figure-8 topology (4,000 nodes, 300 trials, TTLs 1–8).
//!
//! The census answers every TTL of a curve from one traversal per trial;
//! the reference floods once per `(trial, TTL)`. Both consume the same
//! trial stream, so their curves must be bitwise equal, fault-free and
//! under a lossy, churning plan. The census exists to be faster, so the
//! best of three timings of each census sweep must also be no slower
//! than the best of three of its reference.
//!
//! Release builds only: the timing comparison means nothing in a debug
//! build. Run it with
//! `cargo test --release -p qcp-bench --test census_speed`.

#![cfg(not(debug_assertions))]

use qcp_bench::figures::fig8_topology;
use qcp_bench::Scale;
use qcp_core::faults::{FaultConfig, FaultPlan, FaultStats};
use qcp_core::overlay::topology::{gnutella_two_tier, Topology};
use qcp_core::overlay::{
    sweep_reference, sweep_ttl, sweep_ttl_faulty, Placement, PlacementModel, SimConfig, SweepPoint,
};
use qcp_core::xpar::Pool;
use std::time::{Duration, Instant};

/// The 8-point curve: one census traversal to TTL 8 replaces eight
/// reference floods.
const TTLS: [u32; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
/// `repro`'s default seed and its smoke-scale trial count.
const SEED: u64 = 2024;
const TRIALS: usize = 300;

struct Setup {
    topo: Topology,
    forwarders: Vec<bool>,
    placement: Placement,
    sim: SimConfig,
    plan: FaultPlan,
}

fn setup() -> Setup {
    let topo = gnutella_two_tier(&fig8_topology(Scale::Test));
    let forwarders = topo.forwarders();
    let n = topo.graph.num_nodes();
    let placement = Placement::generate(
        PlacementModel::ZipfReplicas { tau: 2.05 },
        n as u32,
        (n as u32 / 2).max(1_000),
        SEED ^ 0x21f,
    );
    let plan = FaultPlan::build(
        n,
        &FaultConfig {
            loss: 0.05,
            churn: 0.10,
            horizon: TRIALS as u64,
            mean_latency: 2,
            rejoin: true,
            seed: SEED ^ 0xbe9c,
        },
    );
    let sim = SimConfig {
        trials: TRIALS,
        seed: SEED,
        ..Default::default()
    };
    Setup {
        topo,
        forwarders,
        placement,
        sim,
        plan,
    }
}

impl Setup {
    fn census(&self) -> Vec<SweepPoint> {
        sweep_ttl(
            Pool::global(),
            &self.topo.graph,
            &self.placement,
            Some(&self.forwarders),
            &TTLS,
            &self.sim,
        )
    }

    fn census_faulty(&self) -> Vec<SweepPoint> {
        sweep_ttl_faulty(
            Pool::global(),
            &self.topo.graph,
            &self.placement,
            Some(&self.forwarders),
            &TTLS,
            &self.sim,
            &self.plan,
        )
    }

    fn reference(&self, plan: Option<&FaultPlan>) -> Vec<SweepPoint> {
        sweep_reference(
            Pool::global(),
            &self.topo.graph,
            &self.placement,
            Some(&self.forwarders),
            &TTLS,
            &self.sim,
            plan,
        )
    }
}

type PointBits = (u32, u64, u64, u64, u64, Option<FaultStats>, u64);

/// Every field of a curve, floats by bit pattern.
fn bits(curve: &[SweepPoint]) -> Vec<PointBits> {
    curve
        .iter()
        .map(|p| {
            (
                p.ttl,
                p.success_rate.to_bits(),
                p.mean_reached.to_bits(),
                p.mean_reach_fraction.to_bits(),
                p.mean_messages.to_bits(),
                p.stats,
                p.dead_sources,
            )
        })
        .collect()
}

/// The fastest of three runs of `f`.
fn best_of_three<T>(mut f: impl FnMut() -> T) -> Duration {
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed()
        })
        .min()
        .expect("three runs")
}

/// One test, not two: a timing between different answers would mean
/// nothing, and a second test running beside this one on the same pool
/// would skew the timings.
#[test]
fn census_sweeps_are_bitwise_the_reference_and_no_slower() {
    let s = setup();
    let census = s.census();
    assert_eq!(census.len(), TTLS.len());
    assert_eq!(bits(&census), bits(&s.reference(None)));
    let faulty = s.census_faulty();
    assert!(faulty.iter().all(|p| p.stats.is_some()));
    assert_eq!(bits(&faulty), bits(&s.reference(Some(&s.plan))));

    let census = best_of_three(|| s.census());
    let reference = best_of_three(|| s.reference(None));
    assert!(
        census <= reference,
        "census sweep {census:?} slower than reference {reference:?}"
    );
    let census = best_of_three(|| s.census_faulty());
    let reference = best_of_three(|| s.reference(Some(&s.plan)));
    assert!(
        census <= reference,
        "faulty census sweep {census:?} slower than reference {reference:?}"
    );
}
