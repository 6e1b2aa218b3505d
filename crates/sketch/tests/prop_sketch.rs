//! Property tests for the sketch substrate.

use proptest::prelude::*;
use qcp_sketch::{AttenuatedBloom, BloomFilter, SynopsisBudget, TermSynopsis};
use qcp_util::Symbol;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Synopsis admission: every admitted term is advertised, admissions
    /// never exceed the budget, and weights are non-increasing.
    #[test]
    fn synopsis_admission_invariants(
        candidates in proptest::collection::vec((0u32..1000, 0.0f64..100.0), 0..80),
        max_terms in 1usize..40,
    ) {
        let budget = SynopsisBudget::for_terms(max_terms, 0.01);
        let cand: Vec<(Symbol, f64)> =
            candidates.iter().map(|&(s, w)| (Symbol(s), w)).collect();
        let syn = TermSynopsis::build(budget, &cand);
        prop_assert!(syn.len() <= max_terms);
        for w in syn.admitted().windows(2) {
            prop_assert!(w[0].1 >= w[1].1, "weights must be non-increasing");
        }
        for &(term, _) in syn.admitted() {
            prop_assert!(syn.advertises(term));
        }
        // No duplicate admissions.
        let mut seen: Vec<u32> = syn.admitted().iter().map(|(s, _)| s.0).collect();
        let before = seen.len();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), before);
    }

    /// The attenuated filter's min_distance never *decreases* along the
    /// levels when content is only inserted deeper.
    #[test]
    fn attenuated_min_distance_is_first_level(
        inserts in proptest::collection::vec((0usize..4, 0u64..1000), 0..60),
        probe in 0u64..1000,
    ) {
        let mut ab = AttenuatedBloom::new(4, 4096, 4);
        let mut truth: Vec<Vec<u64>> = vec![Vec::new(); 4];
        for &(level, key) in &inserts {
            ab.insert_at(level, key);
            truth[level].push(key);
        }
        // If the probe key was inserted at level L, min_distance <= L
        // (Bloom false positives can only make it smaller, never larger).
        if let Some(first_true) = truth.iter().position(|lvl| lvl.contains(&probe)) {
            let d = ab.min_distance(probe).expect("inserted key must be found");
            prop_assert!(d <= first_true);
        }
    }

    /// Plain Bloom: fill ratio and estimated fpp are monotone in inserts.
    #[test]
    fn bloom_fill_monotone(keys in proptest::collection::vec(any::<u64>(), 1..100)) {
        let mut f = BloomFilter::new(2048, 4);
        let mut last_fill = 0.0f64;
        for &k in &keys {
            f.insert(k);
            let fill = f.fill_ratio();
            prop_assert!(fill >= last_fill);
            last_fill = fill;
        }
        prop_assert!(f.estimated_fpp() <= 1.0);
    }
}
