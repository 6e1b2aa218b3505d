//! Property tests for the distribution substrate.

use proptest::prelude::*;
use qcp_util::rng::Pcg64;
use qcp_zipf::{AliasTable, DiscretePowerLaw, Zipf, ZipfMandelbrot};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn zipf_pmf_is_monotone_decreasing(n in 2usize..200, s in 0.2f64..3.0) {
        let z = Zipf::new(n, s);
        for k in 1..n {
            prop_assert!(z.pmf(k) > z.pmf(k + 1));
        }
    }

    #[test]
    fn zipf_samples_within_support(n in 1usize..500, s in 0.2f64..3.0, seed in any::<u64>()) {
        let z = Zipf::new(n, s);
        let mut rng = Pcg64::new(seed);
        for _ in 0..50 {
            let k = z.sample(&mut rng);
            prop_assert!((1..=n).contains(&k));
            prop_assert!(z.sample_index(&mut rng) < n);
        }
    }

    #[test]
    fn mandelbrot_within_support(n in 1usize..300, s in 0.3f64..2.5, q in 0.0f64..50.0, seed in any::<u64>()) {
        let zm = ZipfMandelbrot::new(n, s, q);
        let mut rng = Pcg64::new(seed);
        for _ in 0..50 {
            prop_assert!((1..=n).contains(&zm.sample(&mut rng)));
        }
    }

    #[test]
    fn powerlaw_pmf_sums_to_one(min in 1u64..4, span in 1u64..400, tau in 0.5f64..4.0) {
        let law = DiscretePowerLaw::new(min, min + span, tau);
        let total: f64 = (min..=min + span).map(|r| law.pmf(r)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(law.mean() >= min as f64 && law.mean() <= (min + span) as f64);
    }

    #[test]
    fn alias_table_deterministic_per_seed(weights in proptest::collection::vec(0.01f64..5.0, 1..30),
                                          seed in any::<u64>()) {
        let t = AliasTable::new(&weights);
        let mut a = Pcg64::new(seed);
        let mut b = Pcg64::new(seed);
        for _ in 0..30 {
            prop_assert_eq!(t.sample(&mut a), t.sample(&mut b));
        }
    }
}

/// Statistical recovery checks (fixed seeds; not proptest — they are
/// expensive and their tolerances are tuned to the sample sizes).
mod recovery {
    use qcp_util::rng::Pcg64;
    use qcp_zipf::{fit_rank_frequency, fit_tail_mle, DiscretePowerLaw, Zipf};

    #[test]
    fn mle_recovers_tau_across_exponents() {
        for (tau, tol) in [(1.8, 0.12), (2.3, 0.12), (3.0, 0.2)] {
            let law = DiscretePowerLaw::new(1, 50_000, tau);
            let mut rng = Pcg64::new(tau.to_bits());
            let values: Vec<u64> = (0..40_000).map(|_| law.sample(&mut rng)).collect();
            let fit = fit_tail_mle(&values, 1);
            assert!(
                (fit.exponent - tau).abs() < tol,
                "tau {tau}: estimated {}",
                fit.exponent
            );
        }
    }

    #[test]
    fn rank_frequency_slope_tracks_zipf_exponent() {
        for s in [0.8, 1.0, 1.3] {
            let z = Zipf::new(3_000, s);
            let mut rng = Pcg64::new(s.to_bits());
            let mut counts = vec![0u64; 3_000];
            for _ in 0..2_000_000 {
                counts[z.sample(&mut rng) - 1] += 1;
            }
            counts.sort_unstable_by(|a, b| b.cmp(a));
            let fit = fit_rank_frequency(&counts[..400]);
            assert!(
                (fit.exponent - s).abs() < 0.15,
                "s {s}: estimated {}",
                fit.exponent
            );
        }
    }
}
