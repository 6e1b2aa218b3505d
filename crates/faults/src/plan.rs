//! The seeded fault plan: message loss, link latency, and node sessions.
//!
//! A [`FaultPlan`] is built once per experiment from a [`FaultConfig`] and
//! then consulted — never mutated — by every engine that simulates
//! network activity. All three fault families are derived by stateless
//! hashing of the plan seed:
//!
//! * **message loss** — each overlay edge gets a drop probability around
//!   the configured mean (heterogeneous links: some lossier than others),
//!   and each individual message transmission is an independent Bernoulli
//!   draw keyed by `(edge, nonce, message index)`;
//! * **latency** — each link gets a fixed latency in abstract ticks,
//!   uniform around the configured mean (used by retry/timeout
//!   accounting);
//! * **sessions** — each node gets at most one down-interval
//!   `[down_start, down_end)` over the workload horizon, drawn from a
//!   dedicated per-node `Pcg64` stream. Time is the workload clock
//!   (query index), so departures fire *during* the query stream, not
//!   before it.

use qcp_util::hash::mix64;
use qcp_util::rng::Pcg64;

/// Converts hash bits to a uniform `f64` in `[0, 1)` (53-bit precision).
#[inline]
pub(crate) fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Canonical 64-bit key for an undirected link `{u, v}`.
#[inline]
fn edge_key(u: u32, v: u32) -> u64 {
    let (a, b) = if u <= v { (u, v) } else { (v, u) };
    ((a as u64) << 32) | b as u64
}

/// Fault-model parameters.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Mean per-message drop probability (per-edge rates vary around it).
    pub loss: f64,
    /// Fraction of nodes that go down at some point during the workload.
    pub churn: f64,
    /// Workload length in ticks (one query = one tick).
    pub horizon: u64,
    /// Mean per-link latency in ticks (minimum 1).
    pub mean_latency: u32,
    /// Whether departed nodes come back within the horizon.
    pub rejoin: bool,
    /// Plan seed: all fault draws derive from it.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            loss: 0.05,
            churn: 0.10,
            horizon: 1_000,
            mean_latency: 2,
            rejoin: true,
            seed: 0xfa17,
        }
    }
}

/// A realized fault plan for `n` nodes (immutable once built).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    loss: f64,
    mean_latency: u32,
    seed: u64,
    horizon: u64,
    /// Per node: first tick of the down interval (`u64::MAX` = never).
    down_start: Vec<u64>,
    /// Per node: first tick after the down interval (`u64::MAX` = gone
    /// for good once down).
    down_end: Vec<u64>,
}

impl FaultPlan {
    /// Builds a plan for `n` nodes from `config`.
    ///
    /// Session draws use one dedicated `Pcg64` stream per node, so the
    /// schedule of node `i` is independent of `n` and of every other
    /// node's schedule.
    pub fn build(n: usize, config: &FaultConfig) -> Self {
        assert!((0.0..=1.0).contains(&config.loss), "loss out of [0,1]");
        assert!((0.0..=1.0).contains(&config.churn), "churn out of [0,1]");
        let horizon = config.horizon.max(1);
        let mut down_start = vec![u64::MAX; n];
        let mut down_end = vec![u64::MAX; n];
        if config.churn > 0.0 {
            for node in 0..n {
                let mut rng =
                    Pcg64::with_stream(config.seed ^ mix64(node as u64), 0xc8de_5e55_0000_0001);
                if !rng.chance(config.churn) {
                    continue;
                }
                let start = rng.below(horizon);
                // Down for a quarter to three quarters of the horizon:
                // long enough to matter, short enough that rejoins fire
                // inside the workload for early departures.
                let len = horizon / 4 + rng.below(horizon / 2 + 1);
                down_start[node] = start;
                down_end[node] = if config.rejoin {
                    start.saturating_add(len)
                } else {
                    u64::MAX
                };
            }
        }
        Self {
            loss: config.loss,
            mean_latency: config.mean_latency,
            seed: config.seed,
            horizon,
            down_start,
            down_end,
        }
    }

    /// The trivial plan: no loss, no departures. Fault-aware code paths
    /// running under it must reproduce fault-free results exactly.
    pub fn none(n: usize) -> Self {
        Self {
            loss: 0.0,
            mean_latency: 1,
            seed: 0,
            horizon: 1,
            down_start: vec![u64::MAX; n],
            down_end: vec![u64::MAX; n],
        }
    }

    /// Number of nodes covered by the plan.
    pub fn num_nodes(&self) -> usize {
        self.down_start.len()
    }

    /// Workload horizon in ticks.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// True when the plan can produce no fault at all (loss 0, no
    /// scheduled departure) — the fast-path discriminant.
    pub fn is_none(&self) -> bool {
        self.loss == 0.0 && self.down_start.iter().all(|&s| s == u64::MAX)
    }

    /// True when the plan drops nothing and no node's liveness depends
    /// on the tick: every node is up for good or down for good. The
    /// soak measurement plan `frozen_at(t).silence_loss()` and any
    /// zero-loss, zero-churn plan qualify. Under such a plan a flood's
    /// outcome is independent of traversal order, which is what lets
    /// the overlay sweeps census many trials in one traversal.
    pub fn is_frozen_lossless(&self) -> bool {
        self.loss == 0.0
            && self
                .down_start
                .iter()
                .zip(&self.down_end)
                .all(|(&start, &end)| start >= end || (start == 0 && end == u64::MAX))
    }

    /// Whether `node` is up at workload tick `t`.
    #[inline]
    pub fn alive_at(&self, node: u32, t: u64) -> bool {
        let i = node as usize;
        t < self.down_start[i] || t >= self.down_end[i]
    }

    /// Materializes the alive mask at tick `t`.
    pub fn alive_mask_at(&self, t: u64) -> Vec<bool> {
        (0..self.num_nodes() as u32)
            .map(|v| self.alive_at(v, t))
            .collect()
    }

    /// Number of nodes down at tick `t`.
    pub fn dead_count_at(&self, t: u64) -> usize {
        (0..self.num_nodes() as u32)
            .filter(|&v| !self.alive_at(v, t))
            .count()
    }

    /// The first alive node at or cyclically after `start` at tick `t`,
    /// or `None` when every node is down.
    pub fn first_alive_from(&self, start: u32, t: u64) -> Option<u32> {
        let n = self.num_nodes();
        for off in 0..n {
            let idx = ((start as usize + off) % n) as u32;
            if self.alive_at(idx, t) {
                return Some(idx);
            }
        }
        None
    }

    /// The drop probability of link `{u, v}`: heterogeneous per edge,
    /// mean equal to the configured loss rate, capped at 1.
    #[inline]
    pub fn edge_loss(&self, u: u32, v: u32) -> f64 {
        if self.loss == 0.0 {
            return 0.0;
        }
        // Weight uniform in [0, 2): preserves the mean, spreads the rates.
        let w = 2.0 * unit(mix64(self.seed ^ 0x10f5_ed6e ^ edge_key(u, v)));
        (self.loss * w).min(1.0)
    }

    /// Whether the `msg`-th message of the query identified by `nonce`
    /// is dropped on link `{u, v}`.
    ///
    /// Stateless: the decision depends only on `(seed, edge, nonce, msg)`,
    /// never on call order — so traversal order, chunking, and thread
    /// count cannot perturb it.
    #[inline]
    pub fn drop_message(&self, u: u32, v: u32, nonce: u64, msg: u64) -> bool {
        let p = self.edge_loss(u, v);
        if p == 0.0 {
            return false;
        }
        let h = mix64(
            self.seed
                ^ edge_key(u, v).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ mix64(nonce ^ msg.wrapping_mul(0xa076_1d64_78bd_642f)),
        );
        unit(h) < p
    }

    /// Freezes the session schedule to its snapshot at tick `t`: nodes
    /// alive at `t` never go down in the frozen plan, nodes down at `t`
    /// are down forever. Loss, latency, seed, and horizon are preserved,
    /// so per-message drop draws and link latencies stay **bitwise
    /// identical** to the source plan.
    ///
    /// This is the recovery-epoch primitive of the `repro soak`
    /// experiment: within an epoch the population is held at the churn
    /// snapshot while repair rounds run, so success-rate movement across
    /// rounds is attributable to maintenance, not to further churn.
    pub fn frozen_at(&self, t: u64) -> FaultPlan {
        let n = self.num_nodes();
        let mut down_start = vec![u64::MAX; n];
        let mut down_end = vec![u64::MAX; n];
        for v in 0..n as u32 {
            if !self.alive_at(v, t) {
                down_start[v as usize] = 0;
                down_end[v as usize] = u64::MAX;
            }
        }
        FaultPlan {
            loss: self.loss,
            mean_latency: self.mean_latency,
            seed: self.seed,
            horizon: self.horizon,
            down_start,
            down_end,
        }
    }

    /// A copy with message loss silenced: every drop draw passes, while
    /// sessions, latency, seed, and horizon are untouched. The `repro
    /// soak` recovery rounds measure under `frozen_at(t).silence_loss()`
    /// so the per-trial success is a pure function of overlay structure —
    /// which is what makes the within-epoch recovery curve *provably*
    /// monotone under repair (adding alive–alive edges can only grow a
    /// TTL-bounded flood's reach).
    pub fn silence_loss(&self) -> FaultPlan {
        FaultPlan {
            loss: 0.0,
            ..self.clone()
        }
    }

    /// Latency of link `{u, v}` in ticks: fixed per link, uniform in
    /// `[1, 2*mean - 1]` so the mean over links is `mean_latency`.
    ///
    /// This is the **single clamp site** for degenerate means: a
    /// configured `mean_latency` of 0 (or 1) yields the unit latency 1
    /// on every link — a message can never be delivered in zero virtual
    /// time. `build` stores the configured value verbatim and
    /// [`FaultPlan::none`] declares mean 1, so both funnel through the
    /// same `m <= 1` branch here rather than clamping at construction.
    #[inline]
    pub fn latency(&self, u: u32, v: u32) -> u64 {
        let m = self.mean_latency as u64;
        if m <= 1 {
            return 1;
        }
        let h = mix64(self.seed ^ 0x1a7e_4c7e ^ edge_key(u, v));
        1 + h % (2 * m - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(loss: f64, churn: f64) -> FaultConfig {
        FaultConfig {
            loss,
            churn,
            horizon: 1_000,
            mean_latency: 3,
            rejoin: true,
            seed: 7,
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let a = FaultPlan::build(500, &cfg(0.1, 0.3));
        let b = FaultPlan::build(500, &cfg(0.1, 0.3));
        for v in 0..500u32 {
            for t in [0u64, 250, 500, 999] {
                assert_eq!(a.alive_at(v, t), b.alive_at(v, t));
            }
        }
        for m in 0..200u64 {
            assert_eq!(a.drop_message(3, 77, 42, m), b.drop_message(3, 77, 42, m));
        }
        assert_eq!(a.latency(3, 77), b.latency(3, 77));
    }

    #[test]
    fn none_plan_is_inert() {
        let p = FaultPlan::none(100);
        assert!(p.is_none());
        for v in 0..100u32 {
            assert!(p.alive_at(v, 0) && p.alive_at(v, u64::MAX - 1));
        }
        for m in 0..1_000u64 {
            assert!(!p.drop_message(0, 1, m, m));
        }
        assert_eq!(p.dead_count_at(500), 0);
    }

    #[test]
    fn zero_loss_never_drops_even_with_churn() {
        let p = FaultPlan::build(200, &cfg(0.0, 0.5));
        for m in 0..500u64 {
            assert!(!p.drop_message(5, 6, 1, m));
        }
        assert_eq!(p.edge_loss(5, 6), 0.0);
    }

    #[test]
    fn drop_rate_tracks_configured_loss() {
        let p = FaultPlan::build(100, &cfg(0.2, 0.0));
        let mut drops = 0u64;
        let trials = 40_000u64;
        for m in 0..trials {
            // Vary the edge too, so per-edge weights average out.
            let u = (m % 50) as u32;
            let v = 50 + (m % 37) as u32;
            if p.drop_message(u, v, 99, m) {
                drops += 1;
            }
        }
        let rate = drops as f64 / trials as f64;
        assert!((rate - 0.2).abs() < 0.02, "drop rate {rate} vs 0.2");
    }

    #[test]
    fn drop_is_symmetric_in_edge_direction() {
        let p = FaultPlan::build(10, &cfg(0.5, 0.0));
        for m in 0..200u64 {
            assert_eq!(p.drop_message(2, 7, 5, m), p.drop_message(7, 2, 5, m));
        }
        assert_eq!(p.latency(2, 7), p.latency(7, 2));
    }

    #[test]
    fn churn_fraction_matches_config() {
        let n = 4_000;
        let p = FaultPlan::build(n, &cfg(0.0, 0.25));
        let churning = (0..n).filter(|&i| p.down_start[i] != u64::MAX).count();
        let frac = churning as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.03, "churning fraction {frac}");
        // Departures are spread across the workload, not front-loaded.
        let early = (0..n)
            .filter(|&i| p.down_start[i] != u64::MAX && p.down_start[i] < 500)
            .count();
        let ratio = early as f64 / churning as f64;
        assert!(
            (0.35..0.65).contains(&ratio),
            "early-departure ratio {ratio}"
        );
    }

    #[test]
    fn rejoin_brings_nodes_back() {
        let n = 2_000;
        let with_rejoin = FaultPlan::build(n, &cfg(0.0, 0.5));
        let no_rejoin = FaultPlan::build(
            n,
            &FaultConfig {
                rejoin: false,
                ..cfg(0.0, 0.5)
            },
        );
        // At the end of the horizon some early departures have returned
        // under rejoin; none have without it.
        let end = 999;
        assert!(with_rejoin.dead_count_at(end) < no_rejoin.dead_count_at(end));
        let rejoined = (0..n as u32)
            .filter(|&v| !with_rejoin.alive_at(v, 500) && with_rejoin.alive_at(v, 999))
            .count();
        assert!(rejoined > 0, "someone must rejoin within the horizon");
    }

    #[test]
    fn latency_in_declared_range_with_right_mean() {
        let p = FaultPlan::build(100, &cfg(0.0, 0.0));
        let mut total = 0u64;
        let links = 5_000u64;
        for i in 0..links {
            let l = p.latency((i % 80) as u32, 80 + (i % 20) as u32);
            assert!((1..=5).contains(&l), "latency {l} out of [1, 2*3-1]");
            total += l;
        }
        let mean = total as f64 / links as f64;
        assert!((mean - 3.0).abs() < 0.2, "mean latency {mean}");
    }

    #[test]
    fn zero_mean_latency_clamps_to_unit_latency() {
        // The clamp lives in `latency()` alone: a configured mean of 0
        // behaves exactly like mean 1 (and like `FaultPlan::none`) —
        // every link delivers in one tick, never zero.
        let zero = FaultPlan::build(
            50,
            &FaultConfig {
                mean_latency: 0,
                ..cfg(0.0, 0.0)
            },
        );
        let one = FaultPlan::build(
            50,
            &FaultConfig {
                mean_latency: 1,
                ..cfg(0.0, 0.0)
            },
        );
        let none = FaultPlan::none(50);
        for u in 0..50u32 {
            for v in (u + 1)..50u32 {
                assert_eq!(zero.latency(u, v), 1);
                assert_eq!(one.latency(u, v), 1);
                assert_eq!(none.latency(u, v), 1);
            }
        }
    }

    #[test]
    fn first_alive_from_skips_dead_nodes() {
        let mut p = FaultPlan::none(5);
        p.down_start = vec![u64::MAX, 0, 0, u64::MAX, u64::MAX];
        p.down_end = vec![u64::MAX, 10, u64::MAX, u64::MAX, u64::MAX];
        assert_eq!(p.first_alive_from(1, 5), Some(3));
        assert_eq!(p.first_alive_from(1, 20), Some(1)); // node 1 rejoined
        p.down_start = vec![0; 5];
        p.down_end = vec![u64::MAX; 5];
        assert_eq!(p.first_alive_from(0, 5), None);
    }

    #[test]
    #[should_panic(expected = "loss out of [0,1]")]
    fn invalid_loss_rejected() {
        let _ = FaultPlan::build(10, &cfg(1.5, 0.0));
    }

    #[test]
    fn frozen_plan_pins_the_snapshot_for_all_time() {
        let p = FaultPlan::build(600, &cfg(0.1, 0.4));
        let t = 400;
        let f = p.frozen_at(t);
        assert!(p.dead_count_at(t) > 0, "churn=0.4 must down someone by 400");
        for v in 0..600u32 {
            let snapshot = p.alive_at(v, t);
            for probe in [0u64, 1, t, 999, u64::MAX - 1] {
                assert_eq!(
                    f.alive_at(v, probe),
                    snapshot,
                    "frozen plan must hold node {v} at its t={t} state forever"
                );
            }
        }
        assert_eq!(f.alive_mask_at(0), p.alive_mask_at(t));
    }

    #[test]
    fn frozen_plan_preserves_loss_and_latency_draws() {
        let p = FaultPlan::build(100, &cfg(0.3, 0.4));
        let f = p.frozen_at(123);
        for m in 0..300u64 {
            let (u, v) = ((m % 60) as u32, 60 + (m % 40) as u32);
            assert_eq!(p.drop_message(u, v, 9, m), f.drop_message(u, v, 9, m));
            assert_eq!(p.edge_loss(u, v).to_bits(), f.edge_loss(u, v).to_bits());
            assert_eq!(p.latency(u, v), f.latency(u, v));
        }
        assert_eq!(p.horizon(), f.horizon());
    }

    #[test]
    fn silencing_loss_keeps_sessions_and_drops_nothing() {
        let p = FaultPlan::build(300, &cfg(0.4, 0.3));
        let s = p.silence_loss();
        for m in 0..500u64 {
            assert!(!s.drop_message((m % 100) as u32, 100 + (m % 50) as u32, 3, m));
        }
        for v in 0..300u32 {
            for t in [0u64, 400, 999] {
                assert_eq!(p.alive_at(v, t), s.alive_at(v, t));
            }
        }
        assert_eq!(p.latency(4, 9), s.latency(4, 9));
    }

    #[test]
    fn frozen_lossless_needs_zero_loss_and_tick_free_sessions() {
        assert!(FaultPlan::none(20).is_frozen_lossless());
        assert!(FaultPlan::build(20, &cfg(0.0, 0.0)).is_frozen_lossless());
        let churny = FaultPlan::build(200, &cfg(0.0, 0.3));
        assert!(!churny.is_frozen_lossless(), "sessions move with the tick");
        let frozen = churny.frozen_at(500);
        assert!(frozen.dead_count_at(500) > 0);
        assert!(frozen.is_frozen_lossless());
        let lossy = FaultPlan::build(200, &cfg(0.05, 0.3)).frozen_at(500);
        assert!(!lossy.is_frozen_lossless(), "loss draws depend on order");
        assert!(lossy.silence_loss().is_frozen_lossless());
    }

    #[test]
    fn freezing_a_fault_free_instant_yields_a_none_like_plan() {
        // Zero loss + freeze at a tick where nobody is down (tick where
        // dead count is 0) must satisfy `is_none`, so fault-aware engines
        // take their exact fault-free path.
        let p = FaultPlan::build(50, &cfg(0.0, 0.3));
        let t = (0..1_000u64)
            .find(|&t| p.dead_count_at(t) == 0)
            .expect("churn=0.3 leaves some tick fully alive");
        assert!(p.frozen_at(t).is_none());
    }
}
