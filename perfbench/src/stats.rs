//! Order statistics for reporting.

/// Quartiles `(q1, median, q3)` by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, exclusive method), so
/// the spreads printed here match those computed from the results in
/// Python. One value gives that value three times.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        n => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

/// Bucket growth factor of [`Histogram`]: percentiles read within half a
/// bucket, 0.25%.
const GROWTH: f64 = 1.005;

/// Buckets of [`Histogram`]: enough to reach 10^4 s.
const BUCKETS: usize = 6_500;

/// A log-bucketed histogram of nanosecond durations. Its memory is fixed
/// (and allocated on first use), so a long run does not grow the process
/// the benchmark measures.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Histogram {
    fn bucket(ns: f64) -> usize {
        if ns < 1.0 {
            0
        } else {
            ((ns.ln() / GROWTH.ln()) as usize + 1).min(BUCKETS - 1)
        }
    }

    /// Records one duration.
    pub fn record(&mut self, ns: f64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    /// Adds another histogram's counts to this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.total == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Durations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `p`-th percentile (0–100), in milliseconds: the geometric
    /// middle of the bucket holding that rank.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = ((p / 100.0 * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                return if i == 0 {
                    0.0
                } else {
                    GROWTH.powf(i as f64 - 0.5) / 1e6
                };
            }
        }
        unreachable!("rank is at most the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn histogram_percentiles_read_within_a_bucket() {
        let mut h = Histogram::default();
        for ms in 1..=1000 {
            h.record(ms as f64 * 1e6);
        }
        let p50 = h.percentile_ms(50.0);
        assert!((p50 / 500.0 - 1.0).abs() < 0.005, "{p50}");
        let p99 = h.percentile_ms(99.0);
        assert!((p99 / 990.0 - 1.0).abs() < 0.005, "{p99}");
        let mut twice = h.clone();
        twice.merge(&h);
        assert_eq!(twice.count(), 2000);
        assert_eq!(twice.percentile_ms(50.0), p50);
    }
}
