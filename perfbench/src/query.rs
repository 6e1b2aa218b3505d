//! `query-mix`: one batch of queries, each answered by every search
//! system (Thampi's framing: blind and informed searches as variants of
//! one walk, answering the same queries).

use crate::metrics::{Digest, Metrics, SYSTEMS};
use crate::trace::Tracer;
use crate::{Ctx, Size, Workload};
use qcp_core::faults::{
    CapacityConfig, CapacityModel, CapacityPlan, FaultConfig, FaultPlan, RetryPolicy, ShedPolicy,
};
use qcp_core::obs::{Event, Kernel, MetricsRecorder, NoopRecorder, Recorder};
use qcp_core::search::{
    gen_queries, AdvertiseSearch, Built, FaultContext, GiaSearch, QrpFloodSearch, QuerySpec,
    SearchOutcome, SearchSpec, SearchSystem, SearchWorld, SynopsisPolicy, SynopsisSearch,
    WorkloadConfig, WorldConfig,
};
use qcp_core::util::rng::{child_seed, Pcg64};
use qcp_core::vtime::Deadline;

const WORLD_TAG: u64 = 0xc0_0001;
const QUERY_TAG: u64 = 0xc0_0002;
const PLAN_TAG: u64 = 0xc0_0003;
const CTX_TAG: u64 = 0xc0_0004;
const CAPACITY_TAG: u64 = 0xc0_0005;
const SYSTEM_TAG: u64 = 0xc0_0006;
const TRAIN_TAG: u64 = 0xc0_0007;
const RUN_TAG: u64 = 0xc0_0008;

const DEADLINE_TICKS: u64 = 48;
/// Offered load of the queued systems: past the overload artifact's
/// saturation knee on the Gia capacity ladder.
const OFFERED_LOAD: f64 = 64.0;
/// Systems built through `SearchSpec` (the rest are bespoke walks).
const SPEC_SYSTEMS: usize = 7;
/// Systems on the vtime engine without queues.
const TIMED: std::ops::Range<usize> = 0..5;
/// Systems behind capacity queues.
const QUEUED: std::ops::Range<usize> = 5..7;

/// The `SearchSpec` systems, in [`SYSTEMS`] order.
fn spec_systems<R: Recorder>(
    world: &SearchWorld,
    seed: u64,
    plan: &FaultPlan,
    cap: &CapacityPlan,
    make: impl Fn() -> R,
) -> Vec<Built<R>> {
    let ctx = |s: usize| {
        FaultContext::new(
            plan.clone(),
            RetryPolicy::default(),
            child_seed(seed ^ CTX_TAG, s as u64),
        )
    };
    let specs = [
        SearchSpec::flood(3),
        SearchSpec::walk(4, 20),
        SearchSpec::expanding_ring(4),
        SearchSpec::hybrid(2, 5, child_seed(seed ^ SYSTEM_TAG, 1)),
        SearchSpec::dht_only(child_seed(seed ^ SYSTEM_TAG, 2)),
        SearchSpec::flood(3),
        SearchSpec::walk(4, 20),
    ];
    specs
        .into_iter()
        .enumerate()
        .map(|(s, spec)| {
            let spec = spec
                .faults(ctx(s))
                .deadline(Deadline::after(DEADLINE_TICKS));
            let spec = if QUEUED.contains(&s) {
                spec.capacity(cap.clone())
            } else {
                spec
            };
            spec.recorder(make()).build(world)
        })
        .collect()
}

/// One search world with its queries and every system built over it.
struct Shard {
    world: SearchWorld,
    queries: Vec<QuerySpec>,
    /// The `SearchSpec` systems: plain in untraced runs, with recorders
    /// in traced runs (the other vector is empty). They carry a query
    /// clock, so a run must keep one set for all its ops.
    plain: Vec<Built<NoopRecorder>>,
    recorded: Vec<Built<MetricsRecorder>>,
    bespoke: Vec<Box<dyn SearchSystem>>,
}

impl Shard {
    fn build(size: Size, seed: u64, tr: &mut Tracer) -> Self {
        let (peers, objects, terms, pool) = match size {
            Size::Full => (2_000, 20_000, 20_000, 2_048),
            Size::Tiny => (300, 3_000, 3_000, 128),
        };
        let world = tr.span("search:world", |_| {
            SearchWorld::generate(&WorldConfig {
                num_peers: peers,
                num_objects: objects,
                num_terms: terms,
                seed: child_seed(seed, WORLD_TAG),
                ..Default::default()
            })
        });
        let queries = tr.span("search:queries", |_| {
            gen_queries(
                &world,
                &WorkloadConfig {
                    num_queries: pool,
                    seed: child_seed(seed, QUERY_TAG),
                },
            )
        });
        let plan = tr.span("faults:plan_build", |_| {
            FaultPlan::build(
                world.num_peers(),
                &FaultConfig {
                    loss: 0.10,
                    churn: 0.0,
                    horizon: pool as u64,
                    mean_latency: 2,
                    rejoin: true,
                    seed: child_seed(seed, PLAN_TAG),
                },
            )
        });
        let cap = tr.span("faults:capacity_build", |_| {
            CapacityPlan::build(&CapacityConfig {
                offered_load: OFFERED_LOAD,
                queue_bound: 4,
                policy: ShedPolicy::DropNewest,
                model: CapacityModel::GiaLadder,
                seed: child_seed(seed, CAPACITY_TAG),
            })
        });
        let (plain, recorded) = tr.span("search:build", |tr| {
            if tr.is_on() {
                (
                    Vec::new(),
                    spec_systems(&world, seed, &plan, &cap, MetricsRecorder::new),
                )
            } else {
                (
                    spec_systems(&world, seed, &plan, &cap, || NoopRecorder),
                    Vec::new(),
                )
            }
        });
        let bespoke = tr.span("search:build", |_| {
            let train = gen_queries(
                &world,
                &WorkloadConfig {
                    num_queries: pool,
                    seed: child_seed(seed, TRAIN_TAG),
                },
            );
            let mut synopsis = SynopsisSearch::new(&world, SynopsisPolicy::QueryCentric, 12, 40);
            synopsis.observe_queries(&world, &train, 0.5);
            let v: Vec<Box<dyn SearchSystem>> = vec![
                Box::new(synopsis),
                Box::new(GiaSearch::new(&world, 30, child_seed(seed ^ SYSTEM_TAG, 3))),
                Box::new(QrpFloodSearch::new(&world, 3, 4096)),
                Box::new(AdvertiseSearch::new(
                    &world,
                    8,
                    40,
                    child_seed(seed ^ SYSTEM_TAG, 4),
                )),
            ];
            v
        });
        Self {
            world,
            queries,
            plain,
            recorded,
            bespoke,
        }
    }
}

/// `query-mix`: `SHARDS` independent latency/overload default worlds
/// (2,000 peers, 20,000 objects, 20,000 terms). One op takes `per_shard`
/// queries from each world and answers each with every system, so every
/// op averages over the same worlds.
pub struct QueryMix {
    seed: u64,
    per_shard: usize,
    shards: Vec<Shard>,
    /// Deadline misses the recorded systems reported, per system.
    recorded_misses: Vec<u64>,
}

/// Worlds per run: one world's placement draws move query costs by more
/// than the host's noise, so each op spans several.
const SHARDS: u64 = 4;

pub struct QueryOut {
    /// `outcomes[s][q]`: system `s` on the op's query `q`.
    outcomes: Vec<Vec<SearchOutcome>>,
    /// Whether the recorded systems answered.
    recorded: bool,
}

/// Real messages not yet accounted as served, lost or shed: what the
/// overload identity calls `in_flight`, or `None` if it would be negative.
fn in_flight(o: &SearchOutcome) -> Option<u64> {
    let settled = o.overload.served + o.faults.dead_targets + o.faults.dropped + o.overload.shed;
    o.messages.checked_sub(settled)
}

impl Workload for QueryMix {
    type Out = QueryOut;

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self {
        let per_shard = match ctx.size {
            Size::Full => 24,
            Size::Tiny => 4,
        };
        Self {
            seed: ctx.seed,
            per_shard,
            shards: (0..SHARDS)
                .map(|k| Shard::build(ctx.size, child_seed(ctx.seed, k), tr))
                .collect(),
            recorded_misses: vec![0; SPEC_SYSTEMS],
        }
    }

    fn op(&mut self, i: u64, tr: &mut Tracer) -> QueryOut {
        let recorded = self.shards.iter().all(|sh| !sh.recorded.is_empty());
        let (seed, per_shard) = (self.seed, self.per_shard);
        let first = i as usize * per_shard;
        let mut outcomes = Vec::with_capacity(SYSTEMS.len());
        for (s, &span) in SPANS.iter().enumerate() {
            let shards = &mut self.shards;
            outcomes.push(tr.span(span, |_| {
                let mut outs = Vec::with_capacity(shards.len() * per_shard);
                for (k, sh) in shards.iter_mut().enumerate() {
                    let sys: &mut dyn SearchSystem = if s >= SPEC_SYSTEMS {
                        sh.bespoke[s - SPEC_SYSTEMS].as_mut()
                    } else if recorded {
                        &mut sh.recorded[s]
                    } else {
                        &mut sh.plain[s]
                    };
                    for g in first..first + per_shard {
                        let q = &sh.queries[g % sh.queries.len()];
                        let nonce = ((g as u64) << 8) | ((k as u64) << 4) | s as u64;
                        let mut rng = Pcg64::new(child_seed(seed ^ RUN_TAG, nonce));
                        outs.push(sys.search(&sh.world, q, &mut rng));
                    }
                }
                outs
            }));
        }
        QueryOut { outcomes, recorded }
    }

    fn check(&mut self, _i: u64, out: &QueryOut, tr: &mut Tracer) -> Vec<String> {
        let mut v = Vec::new();
        for (s, outs) in out.outcomes.iter().enumerate() {
            let name = SYSTEMS[s];
            for (q, o) in outs.iter().enumerate() {
                if !QUEUED.contains(&s) {
                    if o.overload != Default::default() {
                        v.push(format!(
                            "{name} query {q}: overload accounting without queues"
                        ));
                    }
                    continue;
                }
                // messages == served + dead_targets + dropped + shed + in_flight,
                // with nothing in flight once a query has drained.
                match in_flight(o) {
                    None => v.push(format!("{name} query {q}: overload identity broken")),
                    Some(f) if f > 0 && !o.success && !o.deadline_exceeded => v.push(format!(
                        "{name} query {q}: {f} messages in flight after draining"
                    )),
                    _ => {}
                }
            }
            let sum = |f: &dyn Fn(&SearchOutcome) -> u64| outs.iter().map(f).sum::<u64>() as f64;
            tr.count(MESSAGES[s], sum(&|o| o.messages));
            if s < SPEC_SYSTEMS {
                let misses = sum(&|o| o.deadline_exceeded as u64);
                tr.count("vtime.deadline_misses", misses);
                if out.recorded {
                    self.recorded_misses[s] += misses as u64;
                }
                tr.count("faults.dropped", sum(&|o| o.faults.dropped));
                tr.count("faults.dead_targets", sum(&|o| o.faults.dead_targets));
                tr.count("faults.retries", sum(&|o| o.faults.retries));
                tr.count("faults.timeouts", sum(&|o| o.faults.timeouts));
            }
            if TIMED.contains(&s) {
                tr.count(
                    "overlay.event.delivered",
                    sum(&|o| {
                        o.messages
                            .saturating_sub(o.faults.dropped + o.faults.dead_targets)
                    }),
                );
            }
            if QUEUED.contains(&s) {
                tr.count("overlay.overload.enqueued", sum(&|o| o.overload.enqueued));
                tr.count("overlay.overload.served", sum(&|o| o.overload.served));
                tr.count("overlay.overload.shed", sum(&|o| o.overload.shed));
                tr.count(
                    "overlay.overload.admission_rejected",
                    sum(&|o| o.overload.admission_rejected),
                );
            }
        }
        v
    }

    fn corrupt(out: &mut QueryOut) {
        let o = &mut out.outcomes[QUEUED.start][0];
        o.overload.shed = o.messages + 1;
    }

    fn digest(out: &QueryOut, d: &mut Digest) {
        for o in out.outcomes.iter().flatten() {
            d.u64(o.success as u64);
            d.u64(o.messages);
            d.u64(o.hops.map_or(u64::MAX, u64::from));
            d.u64(o.elapsed);
            d.u64(o.deadline_exceeded as u64);
            let (f, l) = (&o.faults, &o.overload);
            for x in [
                f.dropped,
                f.dead_targets,
                f.retries,
                f.timeouts,
                f.stale_misses,
            ] {
                d.u64(x);
            }
            for x in [l.enqueued, l.served, l.shed, l.displaced, l.queue_delay] {
                d.u64(x);
            }
        }
    }

    /// The recorders saw exactly the deadline misses the outcomes report.
    fn finish(&mut self) -> Vec<String> {
        let kernels = [
            Kernel::Flood,
            Kernel::Walk,
            Kernel::ExpandingRing,
            Kernel::ChordLookup,
        ];
        let mut v = Vec::new();
        for (s, (name, &misses)) in SYSTEMS.iter().zip(&self.recorded_misses).enumerate() {
            let recorded: u64 = self
                .shards
                .iter()
                .filter_map(|sh| sh.recorded.get(s))
                .flat_map(|sys| {
                    kernels.map(|k| sys.recorder().event_count(k, Event::DeadlineExceeded))
                })
                .sum();
            if recorded != misses {
                v.push(format!(
                    "{name}: recorder counted {recorded} deadline misses, outcomes {misses}"
                ));
            }
        }
        v
    }

    fn layer_metrics(&self, tr: &Tracer, m: &mut Metrics) {
        let queries = (self.per_shard * self.shards.len()) as f64;
        for (span, rate) in SPANS.iter().zip(QUERY_RATES) {
            let busy = m.get(&format!("{}_s", span.replace(':', ".")));
            m.set(rate, queries / busy.max(1e-12), "1/s");
        }
        m.set(
            "overlay.overload.served_ratio",
            tr.counter("overlay.overload.served")
                / tr.counter("overlay.overload.enqueued").max(1.0),
            "ratio",
        );
    }
}

/// Span name of each system's batch, in [`SYSTEMS`] order; its time
/// metric is `search.<system>.busy_s`.
const SPANS: [&str; 11] = [
    "search:flood_timed.busy",
    "search:walk_timed.busy",
    "search:ring_timed.busy",
    "search:hybrid_timed.busy",
    "search:dht_timed.busy",
    "search:flood_queued.busy",
    "search:walk_queued.busy",
    "search:synopsis.busy",
    "search:gia.busy",
    "search:qrp.busy",
    "search:advertise.busy",
];

/// Query rate of each system while busy, in [`SYSTEMS`] order.
const QUERY_RATES: [&str; 11] = [
    "search.flood_timed.queries_per_s",
    "search.walk_timed.queries_per_s",
    "search.ring_timed.queries_per_s",
    "search.hybrid_timed.queries_per_s",
    "search.dht_timed.queries_per_s",
    "search.flood_queued.queries_per_s",
    "search.walk_queued.queries_per_s",
    "search.synopsis.queries_per_s",
    "search.gia.queries_per_s",
    "search.qrp.queries_per_s",
    "search.advertise.queries_per_s",
];

/// Counter name of each system's messages, in [`SYSTEMS`] order.
const MESSAGES: [&str; 11] = [
    "search.flood_timed.messages",
    "search.walk_timed.messages",
    "search.ring_timed.messages",
    "search.hybrid_timed.messages",
    "search.dht_timed.messages",
    "search.flood_queued.messages",
    "search.walk_queued.messages",
    "search.synopsis.messages",
    "search.gia.messages",
    "search.qrp.messages",
    "search.advertise.messages",
];
