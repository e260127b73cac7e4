//! Bloom filter — the `bloom` auxiliary field of the SmartIndex header
//! (Fig. 6). Built over a block's column values so equality predicates
//! whose constant is definitely absent can skip both scan and index
//! construction.

use crate::bitvec::BitVec;
use feisu_common::hash::{bloom_probes, hash_one};
use feisu_format::{Column, Value};

/// A fixed-size Bloom filter over column values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: BitVec,
    k: usize,
}

impl BloomFilter {
    /// Sizes the filter for `expected_items` at roughly `fpp` false
    /// positive rate using the standard m/k formulas.
    pub fn with_capacity(expected_items: usize, fpp: f64) -> Self {
        let n = expected_items.max(1) as f64;
        let fpp = fpp.clamp(1e-6, 0.5);
        let m = (-(n * fpp.ln()) / (std::f64::consts::LN_2 * std::f64::consts::LN_2)).ceil();
        let m = (m as usize).next_power_of_two().max(64);
        let k = ((m as f64 / n) * std::f64::consts::LN_2)
            .round()
            .clamp(1.0, 16.0) as usize;
        BloomFilter {
            bits: BitVec::zeros(m),
            k,
        }
    }

    /// A filter over the non-NULL values of `column`, sized for its length.
    pub fn of_column(column: &Column, fpp: f64) -> Self {
        let mut filter = BloomFilter::with_capacity(column.len(), fpp);
        for i in (0..column.len()).filter(|&i| column.validity().is_valid(i)) {
            filter.insert(&column.value(i));
        }
        filter
    }

    /// Number of bits in the filter.
    pub fn bit_len(&self) -> usize {
        self.bits.len()
    }

    pub fn insert(&mut self, value: &Value) {
        let h = hash_one(value);
        let m = self.bits.len();
        for p in bloom_probes(h, self.k, m) {
            self.bits.set(p, true);
        }
    }

    /// `false` means *definitely absent*; `true` means possibly present.
    pub fn may_contain(&self, value: &Value) -> bool {
        let h = hash_one(value);
        let m = self.bits.len();
        bloom_probes(h, self.k, m).all(|p| self.bits.get(p))
    }

    /// Approximate in-memory footprint in bytes.
    pub fn footprint(&self) -> usize {
        self.bits.footprint() + 8
    }

    /// Fraction of set bits — a saturation diagnostic.
    pub fn fill_ratio(&self) -> f64 {
        self.bits.count_ones() as f64 / self.bits.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserted_values_always_found() {
        let mut f = BloomFilter::with_capacity(1000, 0.01);
        for i in 0..1000i64 {
            f.insert(&Value::Int64(i));
        }
        for i in 0..1000i64 {
            assert!(f.may_contain(&Value::Int64(i)));
        }
    }

    #[test]
    fn absent_values_mostly_rejected() {
        let mut f = BloomFilter::with_capacity(1000, 0.01);
        for i in 0..1000i64 {
            f.insert(&Value::Int64(i));
        }
        let false_positives = (10_000..20_000i64)
            .filter(|&i| f.may_contain(&Value::Int64(i)))
            .count();
        // 1% target; allow generous slack.
        assert!(
            false_positives < 500,
            "too many false positives: {false_positives}"
        );
    }

    #[test]
    fn works_for_strings() {
        let mut f = BloomFilter::with_capacity(100, 0.01);
        f.insert(&Value::Utf8("baidu.com".into()));
        assert!(f.may_contain(&Value::Utf8("baidu.com".into())));
        assert!(!f.may_contain(&Value::Utf8("definitely-not-inserted-xyz".into())));
    }

    #[test]
    fn fill_ratio_grows() {
        let mut f = BloomFilter::with_capacity(100, 0.01);
        let before = f.fill_ratio();
        for i in 0..100i64 {
            f.insert(&Value::Int64(i));
        }
        assert!(f.fill_ratio() > before);
        assert!(f.fill_ratio() < 0.9);
    }

    #[test]
    fn tiny_capacity_does_not_panic() {
        let mut f = BloomFilter::with_capacity(0, 0.01);
        f.insert(&Value::Int64(1));
        assert!(f.may_contain(&Value::Int64(1)));
        assert!(f.bit_len() >= 64);
    }
}
