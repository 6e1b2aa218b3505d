//! Plain Bloom filter with Kirsch–Mitzenmacher double hashing.

use qcp_util::hash::mix64;

/// A Bloom filter over `u64`-hashable items.
///
/// Items are inserted via a pre-hashed `u64` key (callers hash strings or
/// symbols once with `qcp_util::hash`); internally `k` probe positions are
/// derived by double hashing `h1 + i * h2`.
///
/// ```
/// use qcp_sketch::BloomFilter;
///
/// let mut filter = BloomFilter::for_capacity(1_000, 0.01);
/// filter.insert(42);
/// assert!(filter.contains(42));       // never a false negative
/// assert!(!filter.contains(43));      // false positives are rare (~1%)
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    m: usize,
    k: u32,
    items: usize,
}

impl BloomFilter {
    /// Creates a filter with `m` bits (rounded up to a multiple of 64) and
    /// `k` hash functions.
    pub fn new(m: usize, k: u32) -> Self {
        assert!(m > 0 && k > 0, "degenerate Bloom parameters");
        let words = m.div_ceil(64);
        Self {
            bits: vec![0; words],
            m: words * 64,
            k,
            items: 0,
        }
    }

    /// Sizes a filter for `n` expected items at false-positive rate `p`,
    /// using the standard optimal formulas.
    pub fn for_capacity(n: usize, p: f64) -> Self {
        assert!(n > 0 && p > 0.0 && p < 1.0);
        let ln2 = std::f64::consts::LN_2;
        let m = ((-(n as f64) * p.ln()) / (ln2 * ln2)).ceil() as usize;
        let k = ((m as f64 / n as f64) * ln2).round().max(1.0) as u32;
        Self::new(m.max(64), k)
    }

    #[inline]
    fn probes(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let h1 = mix64(key);
        let h2 = mix64(key ^ crate::PROBE_H2_TAG) | 1; // odd => full period
        let m = self.m as u64;
        (0..self.k).map(move |i| (h1.wrapping_add(h2.wrapping_mul(i as u64)) % m) as usize)
    }

    /// Inserts a pre-hashed key.
    pub fn insert(&mut self, key: u64) {
        let probes: Vec<usize> = self.probes(key).collect();
        for bit in probes {
            self.bits[bit / 64] |= 1u64 << (bit % 64);
        }
        self.items += 1;
    }

    /// Membership test; false positives possible, false negatives not.
    pub fn contains(&self, key: u64) -> bool {
        self.probes(key)
            .all(|bit| self.bits[bit / 64] & (1u64 << (bit % 64)) != 0)
    }

    /// Number of bits in the filter.
    pub fn bit_len(&self) -> usize {
        self.m
    }

    /// Number of hash functions.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of insertions performed (not distinct items).
    pub fn items(&self) -> usize {
        self.items
    }

    /// Fraction of bits set.
    pub fn fill_ratio(&self) -> f64 {
        let ones: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        ones as f64 / self.m as f64
    }

    /// Predicted false-positive rate at the current fill.
    pub fn estimated_fpp(&self) -> f64 {
        self.fill_ratio().powi(self.k as i32)
    }

    /// Unions another filter into this one (must share geometry).
    pub fn union_in_place(&mut self, other: &BloomFilter) {
        assert_eq!(self.m, other.m, "geometry mismatch");
        assert_eq!(self.k, other.k, "geometry mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= *b;
        }
        self.items += other.items;
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.items = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::for_capacity(1000, 0.01);
        for i in 0..1000u64 {
            f.insert(i);
        }
        for i in 0..1000u64 {
            assert!(f.contains(i), "false negative for {i}");
        }
    }

    #[test]
    fn false_positive_rate_near_target() {
        let mut f = BloomFilter::for_capacity(10_000, 0.01);
        for i in 0..10_000u64 {
            f.insert(i);
        }
        let fps = (10_000..110_000u64).filter(|&i| f.contains(i)).count();
        let rate = fps as f64 / 100_000.0;
        assert!(rate < 0.03, "observed fpp {rate}");
        assert!((f.estimated_fpp() - rate).abs() < 0.02);
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::new(1024, 4);
        assert!(!f.contains(42));
        assert_eq!(f.fill_ratio(), 0.0);
    }

    #[test]
    fn union_covers_both_sets() {
        let mut a = BloomFilter::new(4096, 4);
        let mut b = BloomFilter::new(4096, 4);
        for i in 0..100u64 {
            a.insert(i);
        }
        for i in 100..200u64 {
            b.insert(i);
        }
        a.union_in_place(&b);
        for i in 0..200u64 {
            assert!(a.contains(i));
        }
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn union_rejects_mismatched_geometry() {
        let mut a = BloomFilter::new(64, 3);
        let b = BloomFilter::new(128, 3);
        a.union_in_place(&b);
    }

    #[test]
    fn clear_resets() {
        let mut f = BloomFilter::new(256, 3);
        f.insert(7);
        assert!(f.contains(7));
        f.clear();
        assert!(!f.contains(7));
        assert_eq!(f.items(), 0);
    }

    #[test]
    fn for_capacity_chooses_sane_parameters() {
        let f = BloomFilter::for_capacity(1000, 0.01);
        // ~9.6 bits/item and ~7 hashes are the textbook optima.
        assert!(
            f.bit_len() >= 9000 && f.bit_len() <= 11000,
            "{}",
            f.bit_len()
        );
        assert!((6..=8).contains(&f.k()), "{}", f.k());
    }

    #[test]
    fn bit_len_rounds_to_words() {
        let f = BloomFilter::new(65, 2);
        assert_eq!(f.bit_len(), 128);
    }
}
