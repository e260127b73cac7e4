//! Deterministic pseudo-random number generation.
//!
//! Benchmarks and workload generators must be exactly reproducible across
//! runs and machines, so Feisu uses its own small splitmix64/xoshiro256**
//! generator seeded explicitly everywhere instead of thread-local entropy.
//! (The external `rand` crate is still used in a few generators through the
//! adapters in `feisu-workload`; this type is the workspace default.)

/// xoshiro256** with a splitmix64 seeding routine. Deterministic, seedable,
/// and fast enough to sit inside data generators.
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Lemire's multiply-shift rejection-free approximation is fine here:
        // generators only need statistical uniformity, not exactness.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `usize` index into a slice of length `len`.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.next_below(len as u64) as usize
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform i64 in `[lo, hi]` (inclusive).
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let span = (hi as i128 - lo as i128 + 1) as u128;
        let v = (self.next_u64() as u128) % span;
        (lo as i128 + v as i128) as i64
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Samples a Zipf-distributed rank in `[0, n)` with exponent `theta`.
    /// Used by trace generators to model hot columns/predicates.
    pub fn zipf(&mut self, n: usize, theta: f64) -> usize {
        debug_assert!(n > 0);
        // Inverse-CDF on a harmonic-sum table would be O(n) per setup; for
        // generator use a rejection-free approximation is enough: sample u
        // and map through the power-law inverse.
        let u = self.next_f64().max(1e-12);
        if (theta - 1.0).abs() < 1e-9 {
            // theta == 1: inverse of log-CDF.
            let h = (n as f64).ln();
            let r = (u * h).exp() - 1.0;
            (r as usize).min(n - 1)
        } else {
            let one_minus = 1.0 - theta;
            let h = ((n as f64).powf(one_minus) - 1.0) / one_minus;
            let r = (1.0 + u * h * one_minus).powf(1.0 / one_minus) - 1.0;
            (r as usize).min(n - 1)
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = DetRng::new(7);
        for _ in 0..1000 {
            assert!(r.next_below(10) < 10);
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::new(3);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn range_inclusive_bounds() {
        let mut r = DetRng::new(9);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let v = r.range_i64(-2, 2);
            assert!((-2..=2).contains(&v));
            saw_lo |= v == -2;
            saw_hi |= v == 2;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let mut r = DetRng::new(11);
        let n = 1000;
        let mut rank0 = 0usize;
        let trials = 20_000;
        for _ in 0..trials {
            let v = r.zipf(n, 0.99);
            assert!(v < n);
            if v == 0 {
                rank0 += 1;
            }
        }
        // Rank 0 must be far more popular than uniform (1/1000).
        assert!(rank0 as f64 / trials as f64 > 0.05);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
