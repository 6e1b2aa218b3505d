//! Integration: the Figure 8 simulation reproduces the paper's *shape*
//! claims at a reduced network size — who wins, by how much, and where the
//! curves sit relative to each other.

use qcp2p::overlay::topology::{gnutella_two_tier, TopologyConfig};
use qcp2p::overlay::{sweep_ttl, Placement, PlacementModel, SimConfig};
use qcp2p::xpar::Pool;

const N: usize = 8_000;

fn topo() -> qcp2p::overlay::topology::Topology {
    gnutella_two_tier(&TopologyConfig {
        num_nodes: N,
        seed: 42,
        ..Default::default()
    })
}

fn sim(trials: usize) -> SimConfig {
    SimConfig {
        trials,
        seed: 99,
        ..Default::default()
    }
}

#[test]
fn success_curves_order_by_replication() {
    let t = topo();
    let fwd = t.forwarders();
    let pool = Pool::global();
    let mut last = -1.0f64;
    for k in [1u32, 4, 9, 19, 39] {
        let p = Placement::generate(PlacementModel::UniformK(k), N as u32, 4_000, k as u64);
        let point = sweep_ttl(pool, &t.graph, &p, Some(&fwd), &[3], &sim(1_500))[0];
        assert!(
            point.success_rate > last,
            "success must increase with replication: k={k} rate {} <= {last}",
            point.success_rate
        );
        last = point.success_rate;
    }
}

#[test]
fn zipf_placement_tracks_lowest_uniform_curves() {
    // The paper's central simulation finding: despite a mean of ~5
    // replicas, Zipf placement performs close to uniform-1 and far below
    // the uniform curve with the same mean.
    let t = topo();
    let fwd = t.forwarders();
    let pool = Pool::global();
    let zipf = Placement::generate(
        PlacementModel::ZipfReplicas { tau: 2.05 },
        N as u32,
        4_000,
        7,
    );
    let mean_k = zipf.mean_replicas().round().max(1.0) as u32;
    assert!(
        mean_k >= 3,
        "calibration: zipf mean should be ~4-6, got {mean_k}"
    );
    let uniform1 = Placement::generate(PlacementModel::UniformK(1), N as u32, 4_000, 8);
    let uniform_mean = Placement::generate(PlacementModel::UniformK(mean_k), N as u32, 4_000, 9);

    let cfg = sim(2_500);
    let s_zipf = sweep_ttl(pool, &t.graph, &zipf, Some(&fwd), &[3], &cfg)[0].success_rate;
    let s_uni1 = sweep_ttl(pool, &t.graph, &uniform1, Some(&fwd), &[3], &cfg)[0].success_rate;
    let s_mean = sweep_ttl(pool, &t.graph, &uniform_mean, Some(&fwd), &[3], &cfg)[0].success_rate;

    assert!(
        s_zipf < 0.5 * s_mean,
        "zipf ({s_zipf}) must fall far below the equal-mean uniform curve ({s_mean})"
    );
    assert!(
        s_zipf < 4.0 * s_uni1 + 0.05,
        "zipf ({s_zipf}) should track the ~1-replica uniform curve ({s_uni1})"
    );
}

#[test]
fn reach_grows_roughly_geometrically_then_saturates() {
    let t = topo();
    let fwd = t.forwarders();
    let pool = Pool::global();
    let p = Placement::generate(PlacementModel::UniformK(1), N as u32, 1_000, 3);
    let curve = sweep_ttl(pool, &t.graph, &p, Some(&fwd), &[1, 2, 3, 4, 5], &sim(500));
    // Monotone reach.
    for w in curve.windows(2) {
        assert!(w[1].mean_reached > w[0].mean_reached);
    }
    // Early rings expand by a large factor; the last ring saturates.
    let growth_23 = curve[2].mean_reached / curve[1].mean_reached;
    assert!(growth_23 > 3.0, "ttl2->3 growth {growth_23}");
    assert!(
        curve[4].mean_reach_fraction > 0.5,
        "ttl5 should cover most of the net"
    );
}

#[test]
fn ttl3_zipf_success_falls_far_below_mean_replication_prediction() {
    // §V: "a random distribution model with a replication ratio of 0.1%
    // would have predicted a success rate of 62%" while Zipf achieved ~5%.
    // The scale-free form of that claim: the success predicted from the
    // *mean* replication ratio wildly overestimates the measured rate.
    let t = topo();
    let fwd = t.forwarders();
    let pool = Pool::global();
    let zipf = Placement::generate(
        PlacementModel::ZipfReplicas { tau: 2.05 },
        N as u32,
        4_000,
        11,
    );
    let point = sweep_ttl(pool, &t.graph, &zipf, Some(&fwd), &[3], &sim(3_000))[0];
    assert!(
        point.mean_reached > 150.0,
        "ttl3 reach {} too small",
        point.mean_reached
    );
    let mean_ratio = zipf.mean_replicas() / N as f64;
    let predicted = 1.0 - (1.0 - mean_ratio).powf(point.mean_reached);
    assert!(
        point.success_rate < 0.55 * predicted,
        "zipf success {} should fall far below the mean-ratio prediction {predicted}",
        point.success_rate
    );
}

#[test]
fn leaves_limit_reach_compared_to_flat_forwarding() {
    let t = topo();
    let fwd = t.forwarders();
    let pool = Pool::global();
    let p = Placement::generate(PlacementModel::UniformK(4), N as u32, 2_000, 5);
    let cfg = sim(800);
    let two_tier = sweep_ttl(pool, &t.graph, &p, Some(&fwd), &[3], &cfg)[0];
    let flat = sweep_ttl(pool, &t.graph, &p, None, &[3], &cfg)[0];
    assert!(
        flat.mean_reached > two_tier.mean_reached,
        "flat forwarding ({}) must out-reach leaf-limited ({})",
        flat.mean_reached,
        two_tier.mean_reached
    );
}
