//! Percentiles the way the benchmark reports them.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// 1-based rank of the value a `p99` metric reports over `n` samples:
/// the p99 rank when at least [`TAIL_SAMPLES`] samples lie beyond it,
/// otherwise the highest rank that still leaves that many beyond.
/// `None` when even the median would not (fewer than 20 samples).
pub fn tail_rank(n: usize) -> Option<usize> {
    if n < 2 * TAIL_SAMPLES {
        return None;
    }
    Some((99 * n).div_ceil(100).min(n - TAIL_SAMPLES))
}

/// Nearest-rank quantile of sorted samples: the smallest sample with at
/// least `q * n` samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// Median and tail of one latency sample.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 1-based rank of the tail value (see [`tail_rank`]).
    pub rank: usize,
    /// The tail value.
    pub tail: f64,
}

impl Tail {
    /// Summarizes `samples` (any order); `None` when too few for a tail.
    pub fn of(samples: &[f64]) -> Option<Tail> {
        let rank = tail_rank(samples.len())?;
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Tail {
            n: sorted.len(),
            p50: quantile(&sorted, 0.5),
            rank,
            tail: sorted[rank - 1],
        })
    }

    /// Samples beyond the tail value.
    pub fn beyond(&self) -> usize {
        self.n - self.rank
    }

    /// `p50 x, p99 y over n samples (k beyond)` for the report.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.1} {unit}, p{:.2} {:.1} {unit} over {} samples ({} beyond)",
            self.p50,
            100.0 * self.rank as f64 / self.n as f64,
            self.tail,
            self.n,
            self.beyond()
        )
    }
}

/// Windows a latency sample is cut into for the report's diagnostic.
pub const DIAGNOSTIC_WINDOWS: usize = 5;

/// The tail value of each of `k` consecutive windows of `samples` (in
/// arrival order), rounded to whole units; windows too small for a tail
/// are left out. A diagnostic only: it shows whether a pooled tail came
/// from one burst or from the whole run.
pub fn window_tails(samples: &[f64], k: usize) -> Vec<i64> {
    let size = samples.len() / k.max(1);
    if size == 0 {
        return Vec::new();
    }
    samples
        .chunks(size)
        .take(k)
        .filter_map(Tail::of)
        .map(|t| t.tail.round() as i64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p99_only_with_ten_samples_beyond_it() {
        assert_eq!(tail_rank(19), None);
        assert_eq!(tail_rank(20), Some(10)); // the median
        assert_eq!(tail_rank(500), Some(490)); // p98
        assert_eq!(tail_rank(1000), Some(990)); // p99
        assert_eq!(tail_rank(250_000), Some(247_500)); // p99
        for n in 20..3000 {
            let rank = tail_rank(n).unwrap();
            assert!(n - rank >= TAIL_SAMPLES, "n = {n}: {} beyond", n - rank);
            let p99_rank = (99 * n).div_ceil(100);
            // the highest qualifying rank, never above p99
            assert!(rank == p99_rank || n - (rank + 1) < TAIL_SAMPLES, "n = {n}");
            assert!(rank <= p99_rank, "n = {n}");
        }
        let samples: Vec<f64> = (1..=500).map(f64::from).collect();
        let tail = Tail::of(&samples).unwrap();
        assert_eq!((tail.tail, tail.beyond()), (490.0, 10));
    }

    #[test]
    fn the_tail_is_pooled_over_the_whole_sample() {
        // five windows of 1000; one holds a stall that lifts 2% of all
        // samples, so the pooled p99 lands inside it
        let mut samples: Vec<f64> = (0..5000).map(|i| (i % 1000) as f64).collect();
        for s in &mut samples[2000..2100] {
            *s += 10_000.0;
        }
        let tail = Tail::of(&samples).unwrap();
        assert_eq!((tail.rank, tail.beyond()), (4950, 50));
        assert!(tail.tail >= 10_000.0, "pooled p99 {}", tail.tail);
        assert_eq!(window_tails(&samples, 5), vec![989, 989, 10_089, 989, 989]);
        assert!(window_tails(&samples[..10], 5).is_empty());
    }

    #[test]
    fn nearest_rank_quantiles() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), 500.0);
        assert_eq!(quantile(&sorted, 0.99), 990.0);
        assert_eq!(quantile(&sorted, 1.0), 1000.0);
        assert_eq!(quantile(&sorted, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
