//! Deterministic random number generation.
//!
//! Every experiment in the reproduction is driven by a single `u64` seed.
//! [`SplitMix64`] is used both as a cheap generator and as the canonical way
//! to expand one seed into many independent child seeds (`child_seed`), so a
//! parallel sweep over trials can hand each trial its own stream without any
//! cross-trial correlation. [`Pcg64`] (PCG-XSH-RR variant on 128-bit state)
//! is the workhorse generator: fast, small, and statistically solid for
//! simulation purposes.

/// SplitMix64: a tiny splittable generator.
///
/// Primarily used for seed expansion; also a perfectly serviceable generator
/// for non-critical randomness.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

#[allow(clippy::should_implement_trait)] // `next` mirrors RNG convention; Iterator is not meaningful here
impl SplitMix64 {
    /// Creates a generator from a seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next value in the stream.
    #[inline]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Derives the `index`-th child seed of `seed`.
///
/// Children of distinct `(seed, index)` pairs are independent for all
/// practical purposes (full-period mixing of both inputs).
#[inline]
pub fn child_seed(seed: u64, index: u64) -> u64 {
    let mut sm = SplitMix64::new(seed ^ index.wrapping_mul(0xa076_1d64_78bd_642f));
    sm.next()
}

/// PCG-64 (XSL-RR 128/64): the main simulation generator.
#[derive(Debug, Clone)]
pub struct Pcg64 {
    state: u128,
    inc: u128,
}

const PCG_MULT: u128 = 0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645;

#[allow(clippy::should_implement_trait)] // `next` mirrors RNG convention; Iterator is not meaningful here
impl Pcg64 {
    /// Creates a generator from a 64-bit seed with a fixed stream.
    pub fn new(seed: u64) -> Self {
        Self::with_stream(seed, 0xda3e_39cb_94b9_5bdb)
    }

    /// Creates a generator with an explicit stream selector; distinct
    /// streams yield independent sequences even for equal seeds.
    pub fn with_stream(seed: u64, stream: u64) -> Self {
        // Expand the seed to 128 bits of state via SplitMix64.
        let mut sm = SplitMix64::new(seed);
        let state = ((sm.next() as u128) << 64) | sm.next() as u128;
        let mut sm2 = SplitMix64::new(stream);
        let inc = (((sm2.next() as u128) << 64) | sm2.next() as u128) | 1;
        let mut pcg = Self { state: 0, inc };
        pcg.step();
        pcg.state = pcg.state.wrapping_add(state);
        pcg.step();
        pcg
    }

    #[inline]
    fn step(&mut self) {
        self.state = self.state.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
    }

    /// Next 64-bit output (XSL-RR output function).
    #[inline]
    pub fn next(&mut self) -> u64 {
        self.step();
        let rot = (self.state >> 122) as u32;
        let xsl = ((self.state >> 64) as u64) ^ (self.state as u64);
        xsl.rotate_right(rot)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift
    /// rejection method (unbiased).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let mut x = self.next();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next();
                m = (x as u128).wrapping_mul(bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform index in `[0, len)` as `usize`.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Derives an independent child generator.
    pub fn fork(&mut self, index: u64) -> Pcg64 {
        Pcg64::with_stream(self.next(), child_seed(self.next(), index))
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (k must be <= n).
    ///
    /// Uses Floyd's algorithm: O(k) expected work regardless of `n`.
    pub fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct values from {n}");
        let mut chosen = crate::hash::FxHashSet::default();
        chosen.reserve(k);
        let mut out = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = self.index(j + 1);
            if chosen.insert(t) {
                out.push(t);
            } else {
                chosen.insert(j);
                out.push(j);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn child_seeds_differ() {
        let s = 1234;
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            assert!(seen.insert(child_seed(s, i)));
        }
    }

    #[test]
    fn pcg_streams_are_independent() {
        let mut a = Pcg64::with_stream(7, 1);
        let mut b = Pcg64::with_stream(7, 2);
        let equal = (0..64).filter(|_| a.next() == b.next()).count();
        assert_eq!(equal, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Pcg64::new(9);
        for bound in [1u64, 2, 3, 7, 100, 12345] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Pcg64::new(11);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = Pcg64::new(5);
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.below(10) as usize] += 1;
        }
        for &c in &counts {
            let expected = n as f64 / 10.0;
            assert!(
                (c as f64 - expected).abs() < 5.0 * expected.sqrt(),
                "bucket count {c} too far from {expected}"
            );
        }
    }

    #[test]
    fn sample_distinct_yields_unique_in_range() {
        let mut rng = Pcg64::new(3);
        for (n, k) in [(10, 10), (100, 5), (1000, 37), (5, 0)] {
            let s = rng.sample_distinct(n, k);
            assert_eq!(s.len(), k);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), k);
            assert!(s.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Pcg64::new(17);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_distinct_rejects_oversized_k() {
        let mut rng = Pcg64::new(3);
        let _ = rng.sample_distinct(3, 4);
    }
}
