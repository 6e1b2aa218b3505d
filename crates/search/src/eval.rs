//! Workload evaluation: the same query set through every system.

use crate::systems::{SearchOutcome, SearchSystem};
use crate::world::{QuerySpec, SearchWorld};
use qcp_faults::FaultStats;
use qcp_util::rng::{child_seed, Pcg64};

/// Workload generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Number of queries.
    pub num_queries: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            num_queries: 1_000,
            seed: 0xe7a1,
        }
    }
}

/// Generates a query workload from the world's mismatch model.
pub fn gen_queries(world: &SearchWorld, config: &WorkloadConfig) -> Vec<QuerySpec> {
    let mut rng = Pcg64::new(config.seed);
    (0..config.num_queries)
        .map(|_| world.sample_query(&mut rng))
        .collect()
}

/// Aggregate result for one system over one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// System name.
    pub system: String,
    /// Queries evaluated.
    pub queries: usize,
    /// Fraction of queries resolved.
    pub success_rate: f64,
    /// Mean per-query messages.
    pub mean_messages: f64,
    /// Mean hops for successful queries.
    pub mean_success_hops: f64,
    /// One-time/maintenance messages accumulated by the system.
    pub maintenance_messages: u64,
    /// Degraded-mode counters summed over the workload (all zero for
    /// fault-free systems).
    pub faults: FaultStats,
}

/// Runs every system over the same queries; per-query RNG streams are
/// derived from `(seed, query index)` so systems see identical randomness
/// structure and runs are reproducible.
pub fn evaluate(
    world: &SearchWorld,
    systems: &mut [&mut dyn SearchSystem],
    queries: &[QuerySpec],
    seed: u64,
) -> Vec<ComparisonRow> {
    systems
        .iter_mut()
        .map(|system| {
            let mut successes = 0usize;
            let mut messages = 0u64;
            let mut hop_sum = 0u64;
            let mut hop_count = 0u64;
            let mut faults = FaultStats::default();
            for (i, q) in queries.iter().enumerate() {
                let mut rng = Pcg64::new(child_seed(seed, i as u64));
                let out: SearchOutcome = system.search(world, q, &mut rng);
                if out.success {
                    successes += 1;
                    if let Some(h) = out.hops {
                        hop_sum += h as u64;
                        hop_count += 1;
                    }
                }
                messages += out.messages;
                faults.absorb(&out.faults);
            }
            let n = queries.len().max(1) as f64;
            ComparisonRow {
                system: system.name(),
                queries: queries.len(),
                success_rate: successes as f64 / n,
                mean_messages: messages as f64 / n,
                mean_success_hops: if hop_count > 0 {
                    hop_sum as f64 / hop_count as f64
                } else {
                    f64::NAN
                },
                maintenance_messages: system.maintenance_messages(),
                faults,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    fn world() -> SearchWorld {
        SearchWorld::generate(&WorldConfig {
            num_peers: 400,
            num_objects: 3_000,
            num_terms: 4_000,
            head_size: 80,
            seed: 19,
            ..Default::default()
        })
    }

    #[test]
    fn evaluate_reports_one_row_per_system() {
        let w = world();
        let queries = gen_queries(
            &w,
            &WorkloadConfig {
                num_queries: 100,
                seed: 1,
            },
        );
        let mut flood = crate::spec::SearchSpec::flood(3).build(&w);
        let mut walk = crate::spec::SearchSpec::walk(4, 20).build(&w);
        let rows = evaluate(&w, &mut [&mut flood, &mut walk], &queries, 7);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].system, "flood(ttl=3)");
        assert_eq!(rows[0].queries, 100);
        assert!(rows[0].success_rate >= 0.0 && rows[0].success_rate <= 1.0);
        assert!(rows[0].mean_messages > 0.0);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let w = world();
        let queries = gen_queries(
            &w,
            &WorkloadConfig {
                num_queries: 80,
                seed: 2,
            },
        );
        let run = |seed| {
            let mut walk = crate::spec::SearchSpec::walk(2, 15).build(&w);
            evaluate(&w, &mut [&mut walk], &queries, seed)
        };
        assert_eq!(run(3), run(3));
        // Different eval seeds may differ (walks are randomized).
        let a = run(3);
        let b = run(4);
        assert_eq!(a[0].queries, b[0].queries);
    }

    #[test]
    fn gen_queries_is_deterministic() {
        let w = world();
        let cfg = WorkloadConfig {
            num_queries: 50,
            seed: 5,
        };
        assert_eq!(gen_queries(&w, &cfg), gen_queries(&w, &cfg));
    }

    #[test]
    fn empty_workload_is_safe() {
        let w = world();
        let mut flood = crate::spec::SearchSpec::flood(2).build(&w);
        let rows = evaluate(&w, &mut [&mut flood], &[], 1);
        assert_eq!(rows[0].queries, 0);
        assert_eq!(rows[0].success_rate, 0.0);
    }
}
