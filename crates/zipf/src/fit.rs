//! Tail-exponent estimation and goodness-of-fit.
//!
//! The analysis pipeline fits the synthetic (and, were they available, real)
//! count distributions to verify the "Zipf-like" claims of the paper's
//! Section III. Two estimators are provided:
//!
//! * [`fit_rank_frequency`] — the classic log-log least-squares slope of
//!   the rank-frequency plot (what the paper eyeballs in Figures 1–4);
//! * [`fit_tail_mle`] — the discrete maximum-likelihood estimator of
//!   Clauset–Shalizi–Newman, which is statistically sound where regression
//!   is biased.
//!
//! [`ks_distance_powerlaw`] reports the Kolmogorov–Smirnov distance between
//! the empirical counts and a fitted discrete power law.

use qcp_util::stats::loglog_fit;

/// Result of a tail fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailFit {
    /// Estimated exponent. For rank-frequency fits this is the Zipf `s`
    /// (slope magnitude); for MLE it is the power-law `τ` of `P(X=r)∝r^-τ`.
    pub exponent: f64,
    /// Goodness measure: R² for regression, normalized log-likelihood for
    /// MLE.
    pub goodness: f64,
    /// Number of observations used.
    pub n_used: usize,
}

/// Fits the rank-frequency plot of descending `counts` by least squares in
/// log-log space, returning the Zipf exponent `s` (positive).
///
/// `counts` must be sorted descending (as produced by
/// `qcp_util::hist::rank_counts`); zero counts are skipped.
pub fn fit_rank_frequency(counts: &[u64]) -> TailFit {
    assert!(counts.len() >= 2, "need at least two ranks to fit");
    debug_assert!(
        counts.windows(2).all(|w| w[0] >= w[1]),
        "counts not descending"
    );
    let mut xs = Vec::with_capacity(counts.len());
    let mut ys = Vec::with_capacity(counts.len());
    for (i, &c) in counts.iter().enumerate() {
        if c > 0 {
            xs.push((i + 1) as f64);
            ys.push(c as f64);
        }
    }
    let fit = loglog_fit(&xs, &ys);
    TailFit {
        exponent: -fit.slope,
        goodness: fit.r_squared,
        n_used: xs.len(),
    }
}

/// Discrete power-law MLE (Clauset–Shalizi–Newman) for values
/// `x >= x_min`, maximizing `L(τ) = -n ln ζ(τ, x_min) - τ Σ ln x_i` by
/// golden-section search over `τ ∈ [1.01, 8]`.
///
/// The normalizer is the Hurwitz zeta truncated at
/// `cutoff = max(4 · max(values), 10_000)`, so the fitted law lives on a
/// bounded support that comfortably covers the data (all of ours is
/// bounded by the peer count). The truncated sum is evaluated by
/// [`truncated_zeta`] in `O(1)` per step rather than term by term; its
/// relative error is a few ulps, far below the golden-section
/// resolution of `τ`.
pub fn fit_tail_mle(values: &[u64], x_min: u64) -> TailFit {
    fit_tail_mle_with(values, x_min, truncated_zeta)
}

/// [`fit_tail_mle`] with the truncated zeta `zeta(x_min, cutoff, τ)`
/// supplied by the caller (the tests pass a direct sum as the oracle).
fn fit_tail_mle_with(values: &[u64], x_min: u64, zeta: impl Fn(u64, u64, f64) -> f64) -> TailFit {
    assert!(x_min >= 1);
    let tail: Vec<u64> = values.iter().copied().filter(|&v| v >= x_min).collect();
    assert!(tail.len() >= 10, "need at least 10 tail observations");
    let n = tail.len() as f64;
    let sum_ln: f64 = tail.iter().map(|&v| (v as f64).ln()).sum();
    // qcplint: allow(panic) — nonempty: `tail.len() >= 10` asserted above.
    let max_v = *tail.iter().max().unwrap();
    // Truncated Hurwitz zeta on [x_min, cutoff].
    let cutoff = max_v.saturating_mul(4).max(10_000);
    let log_lik = |tau: f64| -> f64 { -n * zeta(x_min, cutoff, tau).ln() - tau * sum_ln };
    // Golden-section search on [1.01, 8].
    let (mut a, mut b) = (1.01f64, 8.0f64);
    let phi = (5f64.sqrt() - 1.0) / 2.0;
    let mut c = b - phi * (b - a);
    let mut d = a + phi * (b - a);
    let mut fc = log_lik(c);
    let mut fd = log_lik(d);
    for _ in 0..60 {
        if fc > fd {
            b = d;
            d = c;
            fd = fc;
            c = b - phi * (b - a);
            fc = log_lik(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + phi * (b - a);
            fd = log_lik(d);
        }
    }
    let tau = 0.5 * (a + b);
    TailFit {
        exponent: tau,
        goodness: log_lik(tau) / n,
        n_used: tail.len(),
    }
}

/// Terms of [`truncated_zeta`] summed exactly before the Euler–Maclaurin
/// remainder takes over.
const EXACT_TERMS: u64 = 16;

/// `B_2k / (2k)!` for `k = 1..=5` (Bernoulli numbers B2…B10).
const BERNOULLI_OVER_FACTORIAL: [f64; 5] = [
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30_240.0,
    -1.0 / 1_209_600.0,
    1.0 / 47_900_160.0,
];

/// The truncated Hurwitz zeta `Σ_{r=x_min}^{cutoff} r^-s`.
///
/// The first [`EXACT_TERMS`] terms are summed directly; the remainder
/// `Σ_{r=N}^{C} r^-s` (`N = x_min + 16`, `C = cutoff`) is evaluated by
/// Euler–Maclaurin:
///
/// `∫_N^C x^-s dx + (N^-s + C^-s)/2 + Σ_{k=1}^{5} B_2k/(2k)! · (s)_{2k-1} · (N^{-s-2k+1} - C^{-s-2k+1})`
///
/// where `(s)_m` is the rising factorial. The integral is written as
/// `N^(1-s) · expm1((1-s) · ln(C/N)) / (1-s)`, which stays accurate as
/// `s → 1`. Every derivative of `x^-s` has constant sign, so the
/// truncation error is bounded by the first omitted correction,
/// `|B_12|/12! · (s)_11 · N^{-s-11}`. Relative to the whole sum that is
/// below 5e-17 for every `x_min` and `s <= 8` (largest near `x_min = 10`,
/// `s = 8`), so what remains is floating-point rounding: a few ulps, as
/// for the direct sum. Supports shorter than `x_min + 16` are summed
/// directly. Requires `s > 1`, which the fit's bracket guarantees.
pub(crate) fn truncated_zeta(x_min: u64, cutoff: u64, s: f64) -> f64 {
    debug_assert!(x_min >= 1 && cutoff >= x_min && s > 1.0);
    let n = x_min.saturating_add(EXACT_TERMS);
    if cutoff < n {
        return (x_min..=cutoff).rev().map(|r| (r as f64).powf(-s)).sum();
    }
    let (nf, cf) = (n as f64, cutoff as f64);
    let one_minus_s = 1.0 - s;
    let log_ratio = ((cutoff - n) as f64 / nf).ln_1p();
    let integral = nf.powf(one_minus_s) * (one_minus_s * log_ratio).exp_m1() / one_minus_s;
    let (fn_, fc) = (nf.powf(-s), cf.powf(-s));
    // For the k-th correction (k = 1..=5), `rising` holds `(s)_{2k-1}`
    // and `pn`, `pc` hold `N^{-s-2k+1}`, `C^{-s-2k+1}`.
    let mut corrections = 0.0;
    let mut rising = s;
    let (mut pn, mut pc) = (fn_ / nf, fc / cf);
    for (k, coeff) in BERNOULLI_OVER_FACTORIAL.iter().enumerate() {
        corrections += coeff * rising * (pn - pc);
        let m = (2 * k + 1) as f64;
        rising *= (s + m) * (s + m + 1.0);
        pn /= nf * nf;
        pc /= cf * cf;
    }
    let mut sum = integral + 0.5 * (fn_ + fc) + corrections;
    // Head terms last and smallest first, so they round the least.
    for r in (x_min..n).rev() {
        sum += (r as f64).powf(-s);
    }
    sum
}

/// Kolmogorov–Smirnov distance between the empirical distribution of
/// `values >= x_min` and a discrete power law with exponent `tau` on
/// `[x_min, max(values)]`.
pub fn ks_distance_powerlaw(values: &[u64], x_min: u64, tau: f64) -> f64 {
    let mut tail: Vec<u64> = values.iter().copied().filter(|&v| v >= x_min).collect();
    assert!(!tail.is_empty());
    tail.sort_unstable();
    // qcplint: allow(panic) — nonempty: asserted two lines above.
    let max_v = *tail.last().unwrap();
    // Model CDF.
    let z: f64 = (x_min..=max_v).map(|r| (r as f64).powf(-tau)).sum();
    let mut model_cdf = Vec::with_capacity((max_v - x_min + 1) as usize);
    let mut acc = 0.0;
    for r in x_min..=max_v {
        acc += (r as f64).powf(-tau) / z;
        model_cdf.push(acc);
    }
    let n = tail.len() as f64;
    let mut max_d = 0.0f64;
    let mut i = 0usize;
    while i < tail.len() {
        let v = tail[i];
        let mut j = i;
        while j < tail.len() && tail[j] == v {
            j += 1;
        }
        let emp = j as f64 / n;
        let model = model_cdf[(v - x_min) as usize];
        max_d = max_d.max((emp - model).abs());
        i = j;
    }
    max_d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::powerlaw::DiscretePowerLaw;
    use qcp_util::rng::Pcg64;

    fn synthetic_counts(n_items: usize, s: f64, draws: usize, seed: u64) -> Vec<u64> {
        let z = crate::zipf::Zipf::new(n_items, s);
        let mut rng = Pcg64::new(seed);
        let mut counts = vec![0u64; n_items];
        for _ in 0..draws {
            counts[z.sample(&mut rng) - 1] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts
    }

    #[test]
    fn rank_frequency_recovers_exponent() {
        let counts = synthetic_counts(2000, 1.0, 2_000_000, 1);
        let fit = fit_rank_frequency(&counts[..500]);
        assert!(
            (fit.exponent - 1.0).abs() < 0.15,
            "estimated {}",
            fit.exponent
        );
        assert!(fit.goodness > 0.95);
    }

    #[test]
    fn rank_frequency_skips_zero_counts() {
        let counts = vec![100, 50, 25, 0, 0];
        let fit = fit_rank_frequency(&counts);
        assert_eq!(fit.n_used, 3);
        assert!(fit.exponent > 0.0);
    }

    #[test]
    fn mle_recovers_tau() {
        let d = DiscretePowerLaw::new(1, 100_000, 2.3);
        let mut rng = Pcg64::new(2);
        let values: Vec<u64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        let fit = fit_tail_mle(&values, 1);
        assert!((fit.exponent - 2.3).abs() < 0.1, "tau {}", fit.exponent);
    }

    #[test]
    fn mle_with_higher_xmin_still_recovers() {
        let d = DiscretePowerLaw::new(1, 100_000, 2.0);
        let mut rng = Pcg64::new(3);
        let values: Vec<u64> = (0..80_000).map(|_| d.sample(&mut rng)).collect();
        let fit = fit_tail_mle(&values, 3);
        assert!((fit.exponent - 2.0).abs() < 0.15, "tau {}", fit.exponent);
    }

    /// Neumaier-compensated direct sum `Σ_{r=x_min}^{cutoff} r^-s`, plus
    /// the running value at every cutoff in `marks` (ascending).
    fn direct_zeta_marks(x_min: u64, marks: &[u64], s: f64) -> Vec<f64> {
        let (mut sum, mut comp) = (0.0f64, 0.0f64);
        let mut out = Vec::with_capacity(marks.len());
        let mut next = marks.iter().peekable();
        let last = *marks.last().unwrap();
        for r in x_min..=last {
            let term = (r as f64).powf(-s);
            let t = sum + term;
            comp += if sum.abs() >= term.abs() {
                (sum - t) + term
            } else {
                (term - t) + sum
            };
            sum = t;
            while next.peek() == Some(&&r) {
                out.push(sum + comp);
                next.next();
            }
        }
        out
    }

    /// The oracle: the truncated zeta summed term by term.
    fn direct_zeta(x_min: u64, cutoff: u64, s: f64) -> f64 {
        direct_zeta_marks(x_min, &[cutoff], s)[0]
    }

    /// The oracle fit: [`fit_tail_mle`] with the direct-sum zeta.
    fn fit_tail_mle_direct(values: &[u64], x_min: u64) -> TailFit {
        fit_tail_mle_with(values, x_min, direct_zeta)
    }

    #[test]
    fn truncated_zeta_matches_compensated_direct_sum() {
        let taus = [
            1.01, 1.02, 1.05, 1.1, 1.3, 1.5, 1.8, 2.0, 2.3, 2.5, 3.0, 4.0, 5.0, 6.5, 8.0,
        ];
        for x_min in [1u64, 3, 10] {
            let k = EXACT_TERMS;
            let mut cutoffs = vec![
                x_min,
                x_min + 1,
                x_min + k - 2,
                x_min + k - 1,
                x_min + k,
                x_min + k + 1,
                x_min + 2 * k,
                100,
                1_000,
                10_000,
                65_537,
                200_000,
            ];
            cutoffs.sort_unstable();
            cutoffs.dedup();
            for s in taus {
                let direct = direct_zeta_marks(x_min, &cutoffs, s);
                for (&cutoff, &want) in cutoffs.iter().zip(&direct) {
                    let got = truncated_zeta(x_min, cutoff, s);
                    let rel = ((got - want) / want).abs();
                    assert!(
                        rel <= 2e-15,
                        "x_min {x_min}, cutoff {cutoff}, s {s}: {got} vs {want} (rel {rel:e})"
                    );
                }
            }
        }
    }

    #[test]
    fn mle_matches_direct_sum_oracle() {
        let (ln_lo, ln_hi) = (5f64.ln(), 40_000f64.ln());
        let mut fits = 0;
        let mut seed = 0u64;
        while fits < 200 {
            seed += 1;
            let mut rng = Pcg64::new(0xf17 ^ seed);
            let tau = 1.05 + 3.95 * rng.next_f64();
            let max = (ln_lo + (ln_hi - ln_lo) * rng.next_f64()).exp().round() as u64;
            let n = 10 + rng.below(2_991) as usize;
            let x_min = 1 + rng.below(2);
            let law = DiscretePowerLaw::new(1, max, tau);
            let values: Vec<u64> = (0..n).map(|_| law.sample(&mut rng)).collect();
            if values.iter().filter(|&&v| v >= x_min).count() < 10 {
                continue;
            }
            let got = fit_tail_mle(&values, x_min);
            let want = fit_tail_mle_direct(&values, x_min);
            assert_eq!(got.n_used, want.n_used);
            assert!(
                (got.exponent - want.exponent).abs() <= 1e-6,
                "seed {seed}: tau {} vs oracle {}",
                got.exponent,
                want.exponent
            );
            assert!(
                (got.goodness - want.goodness).abs() <= 1e-12,
                "seed {seed}: goodness {} vs oracle {}",
                got.goodness,
                want.goodness
            );
            fits += 1;
        }
    }

    #[test]
    fn mle_with_a_huge_cutoff_stays_cheap_and_accurate() {
        // The largest value is 10^12, so the zeta runs to a cutoff of
        // 4·10^12: a term-by-term sum would never finish.
        let d = DiscretePowerLaw::new(1, 100_000, 2.3);
        let mut rng = Pcg64::new(2);
        let mut values: Vec<u64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        values.push(1_000_000_000_000);
        let fit = fit_tail_mle(&values, 1);
        assert!((fit.exponent - 2.3).abs() < 0.1, "tau {}", fit.exponent);
    }

    #[test]
    fn mle_cutoff_saturates_instead_of_wrapping() {
        // 4 · (u64::MAX / 2) overflows; the cutoff must saturate at
        // u64::MAX rather than wrap to a support below the data.
        let d = DiscretePowerLaw::new(1, 100_000, 2.3);
        let mut rng = Pcg64::new(2);
        let mut values: Vec<u64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        values.push(u64::MAX / 2);
        let fit = fit_tail_mle(&values, 1);
        assert!((fit.exponent - 2.3).abs() < 0.1, "tau {}", fit.exponent);
        assert!(fit.goodness.is_finite());
    }

    #[test]
    fn ks_distance_small_for_true_model() {
        let d = DiscretePowerLaw::new(1, 10_000, 2.2);
        let mut rng = Pcg64::new(4);
        let values: Vec<u64> = (0..40_000).map(|_| d.sample(&mut rng)).collect();
        let good = ks_distance_powerlaw(&values, 1, 2.2);
        let bad = ks_distance_powerlaw(&values, 1, 4.0);
        assert!(good < 0.02, "good KS {good}");
        assert!(bad > good * 3.0, "bad {bad} vs good {good}");
    }

    #[test]
    fn geometric_data_is_not_powerlaw() {
        // Geometric decay should fit poorly relative to true power law data.
        let mut rng = Pcg64::new(5);
        let values: Vec<u64> = (0..30_000)
            .map(|_| {
                let mut v = 1u64;
                while rng.chance(0.5) && v < 64 {
                    v += 1;
                }
                v
            })
            .collect();
        let fit = fit_tail_mle(&values, 1);
        let ks = ks_distance_powerlaw(&values, 1, fit.exponent);
        assert!(ks > 0.05, "geometric data KS unexpectedly small: {ks}");
    }

    #[test]
    #[should_panic(expected = "at least two ranks")]
    fn fit_rank_frequency_rejects_tiny_input() {
        let _ = fit_rank_frequency(&[5]);
    }
}
