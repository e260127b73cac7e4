//! Order statistics, the checksum, and the process's peak memory.

/// The rank the tail metrics are read at: the 90th percentile when at
/// least ten samples lie beyond it, otherwise the highest rank that still
/// leaves ten beyond, and the median when the sample is too small even
/// for that.
///
/// Not higher: on the replay workloads the slowest 4 % of the statements
/// (GROUP BYs on high-cardinality columns, self-joins) cost 3-10x the
/// unselective full scans below them, so the 95th percentile sat one per
/// cent of rank under a cliff and a handful of statements crossing it
/// decided the reading. The 90th is in the middle of the full scans, and
/// inside the slowest family of `agg_join` and `ingest_query`.
pub fn tail_rank(n: usize) -> f64 {
    if n < 20 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).min(0.90)
}

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `p` of the sample at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Median as the mean of the two middle elements for even counts — the
/// convention of Python's `statistics.median`, which the driver uses.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// 64-bit FNV-1a, fed incrementally.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), Linux only.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_small_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(5.0));
        assert_eq!(percentile(&s, 0.95), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 1.0), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.95), Some(7.0));
    }

    #[test]
    fn tail_rank_keeps_ten_samples_beyond() {
        // 2,000 samples: p90 has 200 beyond it.
        assert_eq!(tail_rank(2000), 0.90);
        // 100 is the smallest sample that supports p90.
        assert!((tail_rank(100) - 0.90).abs() < 1e-12);
        // 50 samples: only p80 leaves ten beyond.
        assert!((tail_rank(50) - 0.80).abs() < 1e-12);
        for n in [20usize, 33, 50, 99, 100, 5000] {
            let p = tail_rank(n);
            let rank = (p * n as f64).ceil() as usize;
            assert!(n - rank >= 10 || p == 0.5, "n={n} p={p} rank={rank}");
        }
        assert_eq!(tail_rank(19), 0.5);
    }

    #[test]
    fn median_matches_python_convention() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }
}
