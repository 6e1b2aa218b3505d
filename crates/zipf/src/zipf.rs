//! Zipf and Zipf–Mandelbrot rank samplers.
//!
//! A Zipf distribution over ranks `1..=n` with exponent `s` assigns
//! `P(rank = k) ∝ k^{-s}`. The Zipf–Mandelbrot generalization
//! `P(k) ∝ (k + q)^{-s}` flattens the head, which matches measured P2P
//! query-term popularity better than pure Zipf (the paper's Figure 3 shows
//! exactly this flattened-head, straight-tail shape).
//!
//! Both samplers are thin wrappers over an [`AliasTable`], so sampling is
//! O(1) after O(n) setup.

use crate::alias::AliasTable;
use qcp_util::rng::Pcg64;

/// Zipf distribution over ranks `1..=n` with exponent `s > 0`.
///
/// ```
/// use qcp_zipf::Zipf;
/// use qcp_util::rng::Pcg64;
///
/// let zipf = Zipf::new(1_000, 1.0);
/// let mut rng = Pcg64::new(42);
/// let rank = zipf.sample(&mut rng);
/// assert!((1..=1_000).contains(&rank));
/// // Rank 1 carries twice the mass of rank 2 at s = 1.
/// assert!((zipf.pmf(1) / zipf.pmf(2) - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    n: usize,
    s: f64,
    table: AliasTable,
}

impl Zipf {
    /// Builds a Zipf sampler; `n >= 1`, `s > 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "support must be non-empty");
        assert!(s > 0.0 && s.is_finite(), "exponent must be positive");
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        Self {
            n,
            s,
            table: AliasTable::new(&weights),
        }
    }

    /// Support size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Exponent.
    pub fn s(&self) -> f64 {
        self.s
    }

    /// Draws a rank in `1..=n`.
    #[inline]
    pub fn sample(&self, rng: &mut Pcg64) -> usize {
        self.table.sample(rng) + 1
    }

    /// Draws a 0-based index in `0..n` (convenience for indexing arrays of
    /// items ordered by popularity).
    #[inline]
    pub fn sample_index(&self, rng: &mut Pcg64) -> usize {
        self.table.sample(rng)
    }

    /// Probability mass of rank `k` (1-based).
    pub fn pmf(&self, k: usize) -> f64 {
        assert!((1..=self.n).contains(&k));
        let h: f64 = (1..=self.n).map(|j| (j as f64).powf(-self.s)).sum();
        (k as f64).powf(-self.s) / h
    }
}

/// Zipf–Mandelbrot distribution: `P(k) ∝ (k + q)^{-s}` over ranks `1..=n`.
#[derive(Debug, Clone)]
pub struct ZipfMandelbrot {
    n: usize,
    s: f64,
    q: f64,
    table: AliasTable,
}

impl ZipfMandelbrot {
    /// Builds a Zipf–Mandelbrot sampler; `n >= 1`, `s > 0`, `q >= 0`.
    pub fn new(n: usize, s: f64, q: f64) -> Self {
        assert!(n >= 1 && s > 0.0 && q >= 0.0);
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64 + q).powf(-s)).collect();
        Self {
            n,
            s,
            q,
            table: AliasTable::new(&weights),
        }
    }

    /// Support size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Exponent.
    pub fn s(&self) -> f64 {
        self.s
    }

    /// Flattening offset.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Draws a rank in `1..=n`.
    #[inline]
    pub fn sample(&self, rng: &mut Pcg64) -> usize {
        self.table.sample(rng) + 1
    }

    /// Draws a 0-based index in `0..n`.
    #[inline]
    pub fn sample_index(&self, rng: &mut Pcg64) -> usize {
        self.table.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank_freqs(n: usize, s: f64, draws: usize) -> Vec<f64> {
        let z = Zipf::new(n, s);
        let mut rng = Pcg64::new(7);
        let mut counts = vec![0u64; n];
        for _ in 0..draws {
            counts[z.sample(&mut rng) - 1] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn zipf_head_probability_matches_pmf() {
        let z = Zipf::new(100, 1.0);
        let freqs = rank_freqs(100, 1.0, 300_000);
        for k in [1usize, 2, 5, 10] {
            let expected = z.pmf(k);
            assert!(
                (freqs[k - 1] - expected).abs() < 0.01,
                "rank {k}: {} vs {}",
                freqs[k - 1],
                expected
            );
        }
    }

    #[test]
    fn zipf_rank1_twice_rank2_at_s1() {
        let freqs = rank_freqs(1000, 1.0, 500_000);
        let ratio = freqs[0] / freqs[1];
        assert!((ratio - 2.0).abs() < 0.15, "ratio {ratio}");
    }

    #[test]
    fn zipf_samples_within_support() {
        let z = Zipf::new(10, 1.2);
        let mut rng = Pcg64::new(1);
        for _ in 0..10_000 {
            let k = z.sample(&mut rng);
            assert!((1..=10).contains(&k));
        }
    }

    #[test]
    fn higher_exponent_concentrates_head() {
        let f_light = rank_freqs(100, 0.7, 100_000);
        let f_heavy = rank_freqs(100, 2.0, 100_000);
        assert!(f_heavy[0] > f_light[0]);
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(50, 1.3);
        let total: f64 = (1..=50).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mandelbrot_q_zero_matches_zipf_shape() {
        let zm = ZipfMandelbrot::new(100, 1.0, 0.0);
        let z = Zipf::new(100, 1.0);
        let mut rng_a = Pcg64::new(3);
        let mut rng_b = Pcg64::new(3);
        // Same RNG stream + same weights => identical alias decisions.
        for _ in 0..1000 {
            assert_eq!(zm.sample(&mut rng_a), z.sample(&mut rng_b));
        }
    }

    #[test]
    fn mandelbrot_flattens_head() {
        let draws = 200_000;
        let mut rng = Pcg64::new(4);
        let zm = ZipfMandelbrot::new(100, 1.0, 10.0);
        let mut counts = vec![0u64; 100];
        for _ in 0..draws {
            counts[zm.sample(&mut rng) - 1] += 1;
        }
        let r1 = counts[0] as f64;
        let r2 = counts[1] as f64;
        // With q=10 the head ratio (1+q)/(2+q) ≈ 0.917, far from 1/2.
        assert!((r2 / r1 - 11.0 / 12.0).abs() < 0.1);
    }

    #[test]
    #[should_panic]
    fn zipf_rejects_zero_support() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic]
    fn zipf_rejects_nonpositive_exponent() {
        let _ = Zipf::new(10, 0.0);
    }
}
