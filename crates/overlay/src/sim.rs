//! Parallel trial sweeps (the Figure 8 driver).
//!
//! For each trial, pick a source peer and a target object, flood, and
//! record success/reach/messages. Trials are deterministic functions of
//! `(seed, trial_index)` and run across the `qcp-xpar` pool in chunks,
//! each chunk owning one reusable [`FloodEngine`] or one
//! [`BatchCensus`].
//!
//! # One census per trial
//!
//! [`sweep_ttl`]/[`sweep_ttl_faulty`] produce a whole TTL curve from
//! **one** BFS per trial: [`FloodEngine::run_into`] censuses to
//! `max(ttls)` and its per-level snapshots reconstruct every shorter
//! flood exactly (the BFS prefix property — see `flood`'s module docs).
//! Trials use *common random numbers* across TTLs: the trial RNG is
//! keyed by `trial` alone, so every TTL point of a curve shares the same
//! `(source, object)` stream. An 8-point curve therefore costs one
//! expanding ball instead of the sum of eight, and the per-TTL
//! differences within a curve are purely the TTL's doing, never sampling
//! noise. The four `sweep_ttl*` entry points (fault plan or not,
//! recorder or not) share one sweep core.
//!
//! # One traversal per 64 trials
//!
//! When a sweep's outcomes cannot depend on traversal order — no fault
//! plan, or a [`FaultPlan::is_frozen_lossless`] one — and the graph is
//! below [`BITSET_THRESHOLD`] nodes, the core hands each chunk of up to
//! [`BATCH_LANES`] consecutive trials to one [`BatchCensus`]: a single
//! bit-parallel traversal whose per-level sums (reached, messages, dead
//! targets, hits per TTL) are exactly the sums of the trials' scalar
//! censuses. There is one chunk per pool thread, or more when a thread
//! would need more than 64 lanes. The layout cannot leak into the output
//! because everything kept is an integer sum. Lossy and churning sweeps
//! stay on the scalar census: their drop draws key on each query's
//! message index, and their liveness on each trial's tick.
//!
//! [`sweep_reference`] keeps the pre-census path — one standalone flood
//! ([`FloodEngine::flood_reference`]) per (trial, TTL) over the *same*
//! trial stream — as the correctness oracle: the census sweeps are
//! pinned bitwise-equal to it in tests, and are ≥3× cheaper on the
//! 8-TTL Figure-8 curve (`repro bench`).

use crate::batch::{BatchCensus, BatchLane, BatchOutcome, BATCH_LANES};
use crate::flood::{
    CensusBuf, FloodEngine, FloodFaults, FloodOutcome, FloodSpec, BITSET_THRESHOLD,
};
use crate::graph::Graph;
use crate::placement::Placement;
use qcp_faults::{FaultPlan, FaultStats};
use qcp_obs::{NoopRecorder, Recorder};
use qcp_util::rng::{child_seed, Pcg64};
use qcp_xpar::Pool;

/// Stream tag XOR-ed into the base seed to derive per-trial fault nonces.
/// Keeping the nonce on a separate `child_seed` stream means the trial RNG
/// consumes exactly the same draws as the fault-free sweep, which is what
/// makes the zero-fault run bit-identical to the fault-free one.
const FAULT_NONCE_STREAM: u64 = 0xfa17_5eed_0b5e_55ed;

/// How the queried object is chosen per trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetModel {
    /// Uniformly over all objects (the paper's setup: success then depends
    /// purely on the replica distribution).
    UniformObject,
    /// Proportional to each object's replica count (an optimistic model
    /// where queries favor well-replicated content; used in ablations).
    ProportionalToReplicas,
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Query trials per curve (shared across every TTL point via common
    /// random numbers).
    pub trials: usize,
    /// Target selection model.
    pub target: TargetModel,
    /// Base seed.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            trials: 10_000,
            target: TargetModel::UniformObject,
            seed: 0xf18,
        }
    }
}

/// One point of the success-rate curve — fault-free and fault sweeps
/// share this type: fault-free sweeps leave `stats == None`, faulty
/// sweeps (even under [`FaultPlan::none`]) carry `Some` aggregated
/// degraded-mode accounting, and every consumer formats both shapes
/// through the same code path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// TTL used.
    pub ttl: u32,
    /// Fraction of trials that found the target.
    pub success_rate: f64,
    /// Mean peers reached per flood.
    pub mean_reached: f64,
    /// Mean fraction of the network reached.
    pub mean_reach_fraction: f64,
    /// Mean messages per query.
    pub mean_messages: f64,
    /// Fault counters summed across all trials at this TTL; `None` for
    /// fault-free sweeps (which never consult a [`FaultPlan`]).
    pub stats: Option<FaultStats>,
    /// Trials whose sampled source was down at query time and had to be
    /// re-issued from the next alive peer (0 when churn is off). Source
    /// liveness is TTL-independent, so under common random numbers every
    /// point of one curve reports the same count.
    pub dead_sources: u64,
}

impl SweepPoint {
    /// The fault counters, defaulting to all-zero for fault-free points
    /// — lets consumers format clean and degraded curves uniformly.
    pub fn faults(&self) -> FaultStats {
        self.stats.unwrap_or_default()
    }
}

/// Cumulative-weight target sampler, built **once per sweep** (not per
/// TTL point): the proportional model's cumulative vector is O(objects)
/// to construct and read-only afterwards.
struct TargetSampler<'a> {
    placement: &'a Placement,
    model: TargetModel,
    /// Cumulative replica counts for proportional sampling.
    cumulative: Vec<u64>,
}

impl<'a> TargetSampler<'a> {
    fn new(placement: &'a Placement, model: TargetModel) -> Self {
        let cumulative = match model {
            TargetModel::UniformObject => Vec::new(),
            TargetModel::ProportionalToReplicas => {
                let mut acc = 0u64;
                (0..placement.num_objects() as u32)
                    .map(|o| {
                        acc += placement.replicas(o) as u64;
                        acc
                    })
                    .collect()
            }
        };
        Self {
            placement,
            model,
            cumulative,
        }
    }

    fn sample(&self, rng: &mut Pcg64) -> u32 {
        match self.model {
            TargetModel::UniformObject => rng.index(self.placement.num_objects()) as u32,
            TargetModel::ProportionalToReplicas => {
                // qcplint: allow(panic) — `cumulative` has one entry per
                // object and the constructor asserts num_objects >= 1.
                let total = *self.cumulative.last().expect("no objects");
                let x = rng.below(total);
                self.cumulative.partition_point(|&c| c <= x) as u32
            }
        }
    }
}

/// Per-chunk (and, once reduced, per-sweep) integer accumulators —
/// reduced across chunks with plain sums, so pool width cannot perturb
/// the result.
struct SweepAcc {
    /// Per TTL: successes, peers reached, messages.
    points: Vec<[u64; 3]>,
    /// Per TTL: summed fault counters (all zero without a plan).
    faults: Vec<FaultStats>,
    trials: u64,
    dead_sources: u64,
}

impl SweepAcc {
    fn new(points: usize) -> Self {
        Self {
            points: vec![[0; 3]; points],
            faults: vec![FaultStats::default(); points],
            trials: 0,
            dead_sources: 0,
        }
    }

    /// Adds `[successes, reached, messages]` and fault counters to TTL
    /// point `i`.
    fn add(&mut self, i: usize, point: [u64; 3], stats: &FaultStats) {
        for (a, b) in self.points[i].iter_mut().zip(point) {
            *a += b;
        }
        self.faults[i].absorb(stats);
    }

    fn absorb(&mut self, other: &SweepAcc) {
        for (i, &point) in other.points.iter().enumerate() {
            self.add(i, point, &other.faults[i]);
        }
        self.trials += other.trials;
        self.dead_sources += other.dead_sources;
    }
}

/// How a sweep evaluates its trials.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Evaluator {
    /// One standalone [`FloodEngine::flood_reference`] per (trial, TTL).
    Reference,
    /// One scalar census per trial.
    Census,
    /// One [`BatchCensus`] per chunk of at most [`BATCH_LANES`] trials.
    Batch,
}

impl Evaluator {
    /// The reference when `census` is false. Otherwise the batch census
    /// whenever every trial's outcome is independent of traversal order
    /// (no plan, or a frozen loss-free one) and the graph is below
    /// [`BITSET_THRESHOLD`] nodes, where a batch's per-node words stay
    /// small next to the graph; the scalar census otherwise.
    fn pick(census: bool, n: usize, plan: Option<&FaultPlan>) -> Self {
        if !census {
            Self::Reference
        } else if n < BITSET_THRESHOLD && plan.is_none_or(FaultPlan::is_frozen_lossless) {
            Self::Batch
        } else {
            Self::Census
        }
    }

    /// Chunks a sweep of `trials` runs in: one batch per pool thread,
    /// each of at most [`BATCH_LANES`] lanes, or four scalar chunks per
    /// thread. Outputs are integer sums, so the layout cannot leak into
    /// them.
    fn chunks(self, pool: &Pool, trials: usize) -> usize {
        let threads = pool.threads().max(1);
        match self {
            Self::Batch => trials.div_ceil(BATCH_LANES).max(threads),
            Self::Census | Self::Reference => threads * 4,
        }
    }
}

/// The one sweep core behind every public sweep. Per trial it draws the
/// source and object from the trial's RNG and, under `plan`, the tick
/// `trial % horizon` and a nonce from [`FAULT_NONCE_STREAM`] — keyed by
/// `trial` alone, never the TTL, so fault draws (keyed on `(edge, nonce,
/// message index)`) are TTL-independent too. A trial whose sampled
/// source is down is re-issued from the next alive node id (wrapping
/// scan); if nobody is alive at that tick it counts as an outright
/// failure with zero messages.
///
/// `census` picks the evaluator: a census (batched where eligible, see
/// [`Evaluator::pick`]) recorded into a per-chunk fork of `rec`,
/// absorbed in chunk-index order, or one standalone
/// [`FloodEngine::flood_reference`] per (trial, TTL), unrecorded.
/// Fault-free points carry `stats: None`.
#[allow(clippy::too_many_arguments)] // the sweep inputs + plan, recorder, evaluator
fn sweep_core<R: Recorder>(
    pool: &Pool,
    graph: &Graph,
    placement: &Placement,
    forwarders: Option<&[bool]>,
    ttls: &[u32],
    config: &SimConfig,
    plan: Option<&FaultPlan>,
    rec: &mut R,
    census: bool,
) -> Vec<SweepPoint> {
    let n = graph.num_nodes();
    assert!(n > 0 && placement.num_objects() > 0);
    if let Some(plan) = plan {
        assert_eq!(plan.num_nodes(), n, "fault plan must cover every node");
    }
    if ttls.is_empty() {
        return Vec::new();
    }
    let max_ttl = ttls.iter().copied().max().unwrap_or(0);
    let sampler = TargetSampler::new(placement, config.target);
    let eval = Evaluator::pick(census, n, plan);
    let chunks = eval.chunks(pool, config.trials);
    let per_chunk = config.trials.div_ceil(chunks);
    let horizon = plan.map_or(1, |p| p.horizon().max(1));

    // One trial's query: its (possibly re-issued) source, the holders of
    // its object, and its fault context; `None` when the whole network
    // is down at the trial's tick (an outright failure).
    let draw = |trial: usize, acc: &mut SweepAcc| {
        let key = trial as u64;
        let mut rng = Pcg64::new(child_seed(config.seed, key));
        let mut source = rng.index(n) as u32;
        let object = sampler.sample(&mut rng);
        acc.trials += 1;
        let faults = match plan {
            None => None,
            Some(plan) => {
                let time = key % horizon;
                if !plan.alive_at(source, time) {
                    acc.dead_sources += 1;
                    source = plan.first_alive_from(source, time)?;
                }
                let nonce = child_seed(config.seed ^ FAULT_NONCE_STREAM, key);
                Some(FloodFaults { plan, time, nonce })
            }
        };
        Some((source, sampler.placement.holders(object), faults))
    };

    let parent: &R = &*rec;
    let partials: Vec<(SweepAcc, R)> = pool.par_map_indexed(chunks, |c| {
        let mut child = parent.fork();
        let mut acc = SweepAcc::new(ttls.len());
        let lo = c * per_chunk;
        let hi = (lo + per_chunk).min(config.trials);
        if eval == Evaluator::Batch {
            let lanes: Vec<BatchLane<'_>> = (lo..hi)
                .filter_map(|trial| draw(trial, &mut acc))
                .map(|(source, holders, _)| BatchLane { source, holders })
                .collect();
            if !lanes.is_empty() {
                let mut out = BatchOutcome::default();
                BatchCensus::new(n).run(
                    graph, &lanes, forwarders, max_ttl, plan, &mut child, &mut out,
                );
                for (i, &ttl) in ttls.iter().enumerate() {
                    let (point, stats) = out.at(ttl);
                    acc.add(i, point, &stats);
                }
            }
            return (acc, child);
        }
        // Arena state per chunk: one engine and one census buffer serve
        // every trial, so the steady-state trial loop allocates nothing.
        let mut engine = FloodEngine::new(n);
        let mut buf = CensusBuf::default();
        let point =
            |out: FloodOutcome| [u64::from(out.found), u64::from(out.reached), out.messages];
        for trial in lo..hi {
            let Some((source, holders, faults)) = draw(trial, &mut acc) else {
                continue;
            };
            if eval == Evaluator::Census {
                let spec = FloodSpec {
                    max_ttl,
                    plan: faults,
                    pruned: false,
                };
                engine.run_into(
                    graph, source, holders, forwarders, &spec, &mut child, &mut buf,
                );
                let levels = buf.census.levels();
                for (i, &ttl) in ttls.iter().enumerate() {
                    acc.add(
                        i,
                        point(buf.census.at(ttl)),
                        &buf.stats[ttl.min(levels) as usize],
                    );
                }
            } else {
                for (i, &ttl) in ttls.iter().enumerate() {
                    let (out, stats) =
                        engine.flood_reference(graph, source, ttl, holders, forwarders, faults);
                    acc.add(i, point(out), &stats);
                }
            }
        }
        (acc, child)
    });

    let mut total = SweepAcc::new(ttls.len());
    for (acc, child) in partials {
        total.absorb(&acc);
        rec.absorb(child);
    }
    // Loud guard: a zero-trial sweep must fail, not report 0.0 rates.
    assert!(
        total.trials > 0,
        "sweep ran zero trials (SimConfig.trials == 0?)"
    );
    let t = total.trials as f64;
    ttls.iter()
        .zip(&total.points)
        .zip(&total.faults)
        .map(|((&ttl, &[successes, reached, messages]), &f)| SweepPoint {
            ttl,
            success_rate: successes as f64 / t,
            mean_reached: reached as f64 / t,
            mean_reach_fraction: reached as f64 / t / n as f64,
            mean_messages: messages as f64 / t,
            stats: plan.map(|_| f),
            dead_sources: total.dead_sources,
        })
        .collect()
}

/// Sweeps TTLs with **one hop-census flood per trial**: the BFS runs at
/// `max(ttls)` and every TTL point of the curve is reconstructed from
/// its per-level snapshots ([`CensusOutcome::at`]) — bitwise-identical
/// to [`sweep_reference`] at a fraction of the cost. A single-TTL point
/// is `sweep_ttl(.., &[ttl], ..)[0]`.
///
/// [`CensusOutcome::at`]: crate::flood::CensusOutcome::at
pub fn sweep_ttl(
    pool: &Pool,
    graph: &Graph,
    placement: &Placement,
    forwarders: Option<&[bool]>,
    ttls: &[u32],
    config: &SimConfig,
) -> Vec<SweepPoint> {
    let rec = &mut NoopRecorder;
    sweep_core(
        pool, graph, placement, forwarders, ttls, config, None, rec, true,
    )
}

/// [`sweep_ttl`] with an explicit [`Recorder`]. Each worker chunk forks
/// a child recorder and the children are absorbed **in chunk-index
/// order** after the parallel section, so the merged recorder state —
/// like the sweep itself — is independent of pool width. The recorder is
/// write-only: it is never consulted by the trial RNG or control flow,
/// so the returned curve is bitwise-identical whether `rec` is a
/// [`NoopRecorder`] or a [`qcp_obs::MetricsRecorder`] (pinned in tests).
#[allow(clippy::too_many_arguments)] // mirrors sweep_ttl plus the recorder
pub fn sweep_ttl_rec<R: Recorder>(
    pool: &Pool,
    graph: &Graph,
    placement: &Placement,
    forwarders: Option<&[bool]>,
    ttls: &[u32],
    config: &SimConfig,
    rec: &mut R,
) -> Vec<SweepPoint> {
    sweep_core(
        pool, graph, placement, forwarders, ttls, config, None, rec, true,
    )
}

/// Sweeps TTLs under a fault plan with **one faulty census per trial**:
/// bitwise-identical to [`sweep_reference`] with the same plan (fault
/// draws are TTL-independent) at a fraction of the cost, per-point
/// summed [`FaultStats`] and dead-source re-issues included. Under
/// [`FaultPlan::none`] the rates equal [`sweep_ttl`]'s bit for bit.
pub fn sweep_ttl_faulty(
    pool: &Pool,
    graph: &Graph,
    placement: &Placement,
    forwarders: Option<&[bool]>,
    ttls: &[u32],
    config: &SimConfig,
    plan: &FaultPlan,
) -> Vec<SweepPoint> {
    let rec = &mut NoopRecorder;
    sweep_core(
        pool,
        graph,
        placement,
        forwarders,
        ttls,
        config,
        Some(plan),
        rec,
        true,
    )
}

/// [`sweep_ttl_faulty`] with an explicit [`Recorder`] — same fork /
/// chunk-ordered-absorb contract as [`sweep_ttl_rec`].
#[allow(clippy::too_many_arguments)] // mirrors sweep_ttl_faulty plus the recorder
pub fn sweep_ttl_faulty_rec<R: Recorder>(
    pool: &Pool,
    graph: &Graph,
    placement: &Placement,
    forwarders: Option<&[bool]>,
    ttls: &[u32],
    config: &SimConfig,
    plan: &FaultPlan,
    rec: &mut R,
) -> Vec<SweepPoint> {
    sweep_core(
        pool,
        graph,
        placement,
        forwarders,
        ttls,
        config,
        Some(plan),
        rec,
        true,
    )
}

/// Reference TTL sweep: one standalone flood per (trial, TTL) over the
/// same trial and nonce streams as the census sweeps, fault-free or
/// under `plan`. Kept as the census's correctness oracle and the
/// baseline side of `repro bench`.
pub fn sweep_reference(
    pool: &Pool,
    graph: &Graph,
    placement: &Placement,
    forwarders: Option<&[bool]>,
    ttls: &[u32],
    config: &SimConfig,
    plan: Option<&FaultPlan>,
) -> Vec<SweepPoint> {
    let rec = &mut NoopRecorder;
    sweep_core(
        pool, graph, placement, forwarders, ttls, config, plan, rec, false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementModel;
    use crate::topology::erdos_renyi;

    fn pool() -> Pool {
        Pool::new(4)
    }

    #[test]
    fn full_replication_always_succeeds() {
        let t = erdos_renyi(200, 6.0, 1);
        let p = Placement::generate(PlacementModel::UniformK(200), 200, 50, 2);
        let point = sweep_ttl(
            &pool(),
            &t.graph,
            &p,
            None,
            &[1],
            &SimConfig {
                trials: 500,
                ..Default::default()
            },
        )[0];
        assert_eq!(point.success_rate, 1.0);
    }

    #[test]
    fn zero_ttl_success_equals_replication_ratio() {
        // With TTL 0 only the source is checked: success ≈ k / n.
        let t = erdos_renyi(100, 6.0, 3);
        let p = Placement::generate(PlacementModel::UniformK(10), 100, 200, 4);
        let point = sweep_ttl(
            &pool(),
            &t.graph,
            &p,
            None,
            &[0],
            &SimConfig {
                trials: 4_000,
                ..Default::default()
            },
        )[0];
        assert!(
            (point.success_rate - 0.10).abs() < 0.03,
            "success {} vs expected 0.10",
            point.success_rate
        );
    }

    #[test]
    fn success_monotone_in_ttl() {
        let t = erdos_renyi(1_000, 5.0, 5);
        let p = Placement::generate(PlacementModel::UniformK(5), 1_000, 100, 6);
        let curve = sweep_ttl(
            &pool(),
            &t.graph,
            &p,
            None,
            &[1, 2, 3, 4, 5],
            &SimConfig {
                trials: 1_000,
                ..Default::default()
            },
        );
        // Common random numbers across TTLs: monotonicity is exact per
        // trial, hence exact in the aggregate — no tolerance needed.
        for w in curve.windows(2) {
            assert!(
                w[1].success_rate >= w[0].success_rate,
                "success must not decrease with TTL: {curve:?}"
            );
            assert!(w[1].mean_reached >= w[0].mean_reached);
            assert!(w[1].mean_messages >= w[0].mean_messages);
        }
    }

    #[test]
    fn census_sweep_matches_reference_bitwise() {
        let t = erdos_renyi(500, 5.0, 30);
        let p = Placement::generate(PlacementModel::UniformK(4), 500, 100, 31);
        let cfg = SimConfig {
            trials: 600,
            ..Default::default()
        };
        let ttls = [0u32, 1, 2, 3, 4, 6];
        let census = sweep_ttl(&pool(), &t.graph, &p, None, &ttls, &cfg);
        let reference = sweep_reference(&pool(), &t.graph, &p, None, &ttls, &cfg, None);
        assert_eq!(census.len(), reference.len());
        for (a, b) in census.iter().zip(&reference) {
            assert_eq!(a.ttl, b.ttl);
            assert_eq!(a.success_rate.to_bits(), b.success_rate.to_bits());
            assert_eq!(a.mean_reached.to_bits(), b.mean_reached.to_bits());
            assert_eq!(a.mean_messages.to_bits(), b.mean_messages.to_bits());
            assert_eq!(
                a.mean_reach_fraction.to_bits(),
                b.mean_reach_fraction.to_bits()
            );
        }
    }

    #[test]
    fn single_ttl_census_equals_flood_trials() {
        // The acceptance pin: census(ttls=[T]) == reference flood at T
        // over the same trial stream, bitwise.
        let t = erdos_renyi(400, 5.0, 33);
        let p = Placement::generate(PlacementModel::UniformK(3), 400, 80, 34);
        let cfg = SimConfig {
            trials: 500,
            ..Default::default()
        };
        for ttl in [0u32, 2, 5] {
            let census = sweep_ttl(&pool(), &t.graph, &p, None, &[ttl], &cfg);
            let reference = sweep_reference(&pool(), &t.graph, &p, None, &[ttl], &cfg, None)[0];
            assert_eq!(census.len(), 1);
            assert_eq!(
                census[0].success_rate.to_bits(),
                reference.success_rate.to_bits()
            );
            assert_eq!(
                census[0].mean_messages.to_bits(),
                reference.mean_messages.to_bits()
            );
            assert_eq!(
                census[0].mean_reached.to_bits(),
                reference.mean_reached.to_bits()
            );
        }
    }

    #[test]
    fn faulty_census_sweep_matches_reference_bitwise() {
        use qcp_faults::FaultConfig;
        let t = erdos_renyi(400, 5.0, 35);
        let p = Placement::generate(PlacementModel::UniformK(4), 400, 80, 36);
        let cfg = SimConfig {
            trials: 500,
            ..Default::default()
        };
        let ttls = [1u32, 2, 3, 5];
        for plan in [
            FaultPlan::none(400),
            FaultPlan::build(
                400,
                &FaultConfig {
                    loss: 0.25,
                    churn: 0.3,
                    ..Default::default()
                },
            ),
        ] {
            let census = sweep_ttl_faulty(&pool(), &t.graph, &p, None, &ttls, &cfg, &plan);
            let reference = sweep_reference(&pool(), &t.graph, &p, None, &ttls, &cfg, Some(&plan));
            for (a, b) in census.iter().zip(&reference) {
                assert_eq!(a.ttl, b.ttl);
                assert_eq!(a.success_rate.to_bits(), b.success_rate.to_bits());
                assert_eq!(a.mean_messages.to_bits(), b.mean_messages.to_bits());
                assert_eq!(a.mean_reached.to_bits(), b.mean_reached.to_bits());
                assert_eq!(a.stats, b.stats);
                assert_eq!(a.dead_sources, b.dead_sources);
            }
        }
    }

    #[test]
    fn more_replicas_help() {
        let t = erdos_renyi(1_000, 5.0, 7);
        let cfg = SimConfig {
            trials: 2_000,
            ..Default::default()
        };
        let p1 = Placement::generate(PlacementModel::UniformK(1), 1_000, 100, 8);
        let p40 = Placement::generate(PlacementModel::UniformK(40), 1_000, 100, 8);
        let s1 = sweep_ttl(&pool(), &t.graph, &p1, None, &[2], &cfg)[0].success_rate;
        let s40 = sweep_ttl(&pool(), &t.graph, &p40, None, &[2], &cfg)[0].success_rate;
        assert!(s40 > s1 * 3.0, "40 replicas {s40} vs 1 replica {s1}");
    }

    #[test]
    fn zipf_placement_tracks_low_uniform_replication() {
        // The paper's core simulation finding: Zipf placement behaves like
        // a *very low* uniform replication even though its mean is higher.
        let t = erdos_renyi(2_000, 6.0, 9);
        let cfg = SimConfig {
            trials: 3_000,
            ..Default::default()
        };
        let zipf = Placement::generate(PlacementModel::ZipfReplicas { tau: 2.4 }, 2_000, 5_000, 10);
        let uniform_mean = Placement::generate(
            PlacementModel::UniformK(zipf.mean_replicas().round().max(1.0) as u32),
            2_000,
            5_000,
            11,
        );
        let s_zipf = sweep_ttl(&pool(), &t.graph, &zipf, None, &[3], &cfg)[0].success_rate;
        let s_uniform =
            sweep_ttl(&pool(), &t.graph, &uniform_mean, None, &[3], &cfg)[0].success_rate;
        assert!(
            s_zipf < s_uniform,
            "zipf ({s_zipf}) must underperform uniform at equal mean ({s_uniform})"
        );
    }

    #[test]
    fn deterministic_sweep() {
        let t = erdos_renyi(300, 5.0, 12);
        let p = Placement::generate(PlacementModel::UniformK(3), 300, 50, 13);
        let cfg = SimConfig {
            trials: 500,
            ..Default::default()
        };
        let a = sweep_ttl(&pool(), &t.graph, &p, None, &[2], &cfg)[0];
        let b = sweep_ttl(&pool(), &t.graph, &p, None, &[2], &cfg)[0];
        assert_eq!(a, b);
        let ca = sweep_ttl(&pool(), &t.graph, &p, None, &[1, 2, 3], &cfg);
        let cb = sweep_ttl(&pool(), &t.graph, &p, None, &[1, 2, 3], &cfg);
        assert_eq!(ca, cb);
    }

    #[test]
    #[should_panic(expected = "zero trials")]
    fn zero_trial_config_fails_loudly() {
        let t = erdos_renyi(100, 5.0, 40);
        let p = Placement::generate(PlacementModel::UniformK(2), 100, 20, 41);
        let _ = sweep_ttl(
            &pool(),
            &t.graph,
            &p,
            None,
            &[1, 2],
            &SimConfig {
                trials: 0,
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "zero trials")]
    fn zero_trial_reference_fails_loudly_too() {
        let t = erdos_renyi(100, 5.0, 42);
        let p = Placement::generate(PlacementModel::UniformK(2), 100, 20, 43);
        let _ = sweep_reference(
            &pool(),
            &t.graph,
            &p,
            None,
            &[1],
            &SimConfig {
                trials: 0,
                ..Default::default()
            },
            None,
        );
    }

    #[test]
    fn empty_ttl_list_yields_empty_curve() {
        let t = erdos_renyi(100, 5.0, 44);
        let p = Placement::generate(PlacementModel::UniformK(2), 100, 20, 45);
        let cfg = SimConfig {
            trials: 10,
            ..Default::default()
        };
        assert!(sweep_ttl(&pool(), &t.graph, &p, None, &[], &cfg).is_empty());
        let plan = FaultPlan::none(100);
        assert!(sweep_ttl_faulty(&pool(), &t.graph, &p, None, &[], &cfg, &plan).is_empty());
    }

    #[test]
    fn faulty_sweep_under_none_plan_is_bitwise_identical() {
        let t = erdos_renyi(400, 5.0, 20);
        let p = Placement::generate(PlacementModel::UniformK(4), 400, 80, 21);
        let cfg = SimConfig {
            trials: 800,
            ..Default::default()
        };
        let plan = FaultPlan::none(400);
        let plain = sweep_ttl(&pool(), &t.graph, &p, None, &[1, 2, 3], &cfg);
        let faulty = sweep_ttl_faulty(&pool(), &t.graph, &p, None, &[1, 2, 3], &cfg, &plan);
        for (a, b) in plain.iter().zip(&faulty) {
            assert_eq!(a.success_rate.to_bits(), b.success_rate.to_bits());
            assert_eq!(a.mean_reached.to_bits(), b.mean_reached.to_bits());
            assert_eq!(a.mean_messages.to_bits(), b.mean_messages.to_bits());
            assert_eq!(a.stats, None, "fault-free sweep must not carry stats");
            assert_eq!(b.stats, Some(FaultStats::default()));
            assert_eq!(b.dead_sources, 0);
        }
    }

    #[test]
    fn loss_and_churn_degrade_success() {
        use qcp_faults::FaultConfig;
        let t = erdos_renyi(600, 5.0, 22);
        let p = Placement::generate(PlacementModel::UniformK(6), 600, 100, 23);
        let cfg = SimConfig {
            trials: 1_500,
            ..Default::default()
        };
        let clean = sweep_reference(
            &pool(),
            &t.graph,
            &p,
            None,
            &[3],
            &cfg,
            Some(&FaultPlan::none(600)),
        )[0];
        let harsh = FaultPlan::build(
            600,
            &FaultConfig {
                loss: 0.4,
                churn: 0.3,
                ..Default::default()
            },
        );
        let degraded = sweep_reference(&pool(), &t.graph, &p, None, &[3], &cfg, Some(&harsh))[0];
        assert!(
            degraded.success_rate < clean.success_rate,
            "40% loss + 30% churn must hurt: {} vs {}",
            degraded.success_rate,
            clean.success_rate
        );
        assert!(degraded.faults().dropped > 0);
        assert!(degraded.faults().dead_targets > 0);
        assert!(
            degraded.dead_sources > 0,
            "30% churn must down some sources"
        );
        assert!(degraded.faults().wasted() <= degraded.mean_messages as u64 * 1_500 + 1_500);
    }

    #[test]
    fn faulty_sweep_is_thread_count_independent() {
        use qcp_faults::FaultConfig;
        let t = erdos_renyi(300, 5.0, 24);
        let p = Placement::generate(PlacementModel::UniformK(3), 300, 50, 25);
        let cfg = SimConfig {
            trials: 600,
            ..Default::default()
        };
        let plan = FaultPlan::build(
            300,
            &FaultConfig {
                loss: 0.2,
                churn: 0.2,
                ..Default::default()
            },
        );
        let p1 = Pool::new(1);
        let p4 = Pool::new(4);
        let a = sweep_reference(&p1, &t.graph, &p, None, &[3], &cfg, Some(&plan))[0];
        let b = sweep_reference(&p4, &t.graph, &p, None, &[3], &cfg, Some(&plan))[0];
        assert_eq!(a, b, "fault sweep must not depend on thread count");
        let ca = sweep_ttl_faulty(&p1, &t.graph, &p, None, &[1, 2, 4], &cfg, &plan);
        let cb = sweep_ttl_faulty(&p4, &t.graph, &p, None, &[1, 2, 4], &cfg, &plan);
        assert_eq!(ca, cb, "census sweep must not depend on thread count");
    }

    #[test]
    fn recorded_sweep_is_bitwise_identical_and_thread_independent() {
        use qcp_faults::FaultConfig;
        use qcp_obs::{Counter, Kernel, MetricsRecorder};
        let t = erdos_renyi(300, 5.0, 50);
        let p = Placement::generate(PlacementModel::UniformK(3), 300, 60, 51);
        let cfg = SimConfig {
            trials: 400,
            ..Default::default()
        };
        let ttls = [1u32, 2, 4];

        // Fault-free: recording on vs off, and 1- vs 4-thread pools.
        let plain = sweep_ttl(&pool(), &t.graph, &p, None, &ttls, &cfg);
        let mut rec1 = MetricsRecorder::new();
        let r1 = sweep_ttl_rec(&Pool::new(1), &t.graph, &p, None, &ttls, &cfg, &mut rec1);
        let mut rec4 = MetricsRecorder::new();
        let r4 = sweep_ttl_rec(&Pool::new(4), &t.graph, &p, None, &ttls, &cfg, &mut rec4);
        assert_eq!(plain, r1, "recording must not perturb the sweep");
        assert_eq!(plain, r4);
        assert_eq!(rec1, rec4, "merged recorder state must be pool-independent");
        assert_eq!(rec1.spans(Kernel::Flood), cfg.trials as u64);
        // Every trial's census runs at max(ttls): recorded messages are
        // the max-TTL totals, which bound the curve's largest point.
        let max_pt = plain.last().unwrap();
        assert_eq!(
            rec1.total(Kernel::Flood, Counter::Messages),
            (max_pt.mean_messages * cfg.trials as f64).round() as u64
        );

        // Faulty: same three-way identity plus fault-counter reconciliation.
        let plan = FaultPlan::build(
            300,
            &FaultConfig {
                loss: 0.2,
                churn: 0.2,
                ..Default::default()
            },
        );
        let base = sweep_ttl_faulty(&pool(), &t.graph, &p, None, &ttls, &cfg, &plan);
        let mut frec1 = MetricsRecorder::new();
        let f1 = sweep_ttl_faulty_rec(
            &Pool::new(1),
            &t.graph,
            &p,
            None,
            &ttls,
            &cfg,
            &plan,
            &mut frec1,
        );
        let mut frec4 = MetricsRecorder::new();
        let f4 = sweep_ttl_faulty_rec(
            &Pool::new(4),
            &t.graph,
            &p,
            None,
            &ttls,
            &cfg,
            &plan,
            &mut frec4,
        );
        assert_eq!(base, f1);
        assert_eq!(base, f4);
        assert_eq!(frec1, frec4);
        // Recorded fault counters are the max-TTL cumulative stats, which
        // dominate every point's aggregate on each axis.
        let recorded = frec1.fault_stats(Kernel::Flood);
        for pt in &base {
            let s = pt.faults();
            assert!(recorded.dropped >= s.dropped);
            assert!(recorded.dead_targets >= s.dead_targets);
        }
    }

    #[test]
    fn proportional_target_beats_uniform_target() {
        let t = erdos_renyi(1_000, 6.0, 14);
        let p = Placement::generate(PlacementModel::ZipfReplicas { tau: 2.2 }, 1_000, 3_000, 15);
        let base = SimConfig {
            trials: 2_000,
            ..Default::default()
        };
        let uni = sweep_ttl(&pool(), &t.graph, &p, None, &[2], &base)[0].success_rate;
        let prop = sweep_ttl(
            &pool(),
            &t.graph,
            &p,
            None,
            &[2],
            &SimConfig {
                target: TargetModel::ProportionalToReplicas,
                ..base
            },
        )[0]
        .success_rate;
        assert!(
            prop > uni,
            "querying popular objects ({prop}) must beat uniform ({uni})"
        );
    }
}
