//! Order statistics for noisy timings: medians with quartiles, and tail
//! percentiles reported together with how far the sample supports them.

/// Median, quartiles and count of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear interpolation between closest ranks; `q` in `[0, 1]`.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarises a non-empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summarize needs at least one sample");
    let v = sorted(values);
    Summary {
        n: v.len(),
        q1: quantile(&v, 0.25),
        median: quantile(&v, 0.5),
        q3: quantile(&v, 0.75),
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// The percentiles the tables report, ascending, each with the share of a
/// sample that lies beyond it, in thousandths.
const PERCENTILES: [(f64, usize); 4] = [(50.0, 500), (90.0, 100), (99.0, 10), (99.9, 1)];

/// The highest reportable percentile that still has at least ten samples
/// beyond it; `None` below twenty samples, where not even the median does.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES.iter().rev().find(|(_, beyond)| n * beyond / 1_000 >= 10).map(|(p, _)| *p)
}

/// A latency distribution: median, 99th percentile (nearest rank), sample
/// count, and the highest percentile the count supports. A `p99` over fewer
/// than 1,000 samples is still printed under its name — a metric must not
/// change meaning with the sample size — but flagged as unsupported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    pub supported: Option<f64>,
}

impl Dist {
    /// Distribution of a sample; all zeros when it is empty.
    pub fn of(values: &[f64]) -> Dist {
        if values.is_empty() {
            return Dist { n: 0, p50: 0.0, p99: 0.0, supported: None };
        }
        let v = sorted(values);
        let rank =
            |p: f64| v[(((p / 100.0) * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1];
        Dist {
            n: v.len(),
            p50: rank(50.0),
            p99: rank(99.0),
            supported: highest_supported_percentile(v.len()),
        }
    }

    /// Whether the sample has ten values beyond its 99th percentile.
    pub fn p99_supported(&self) -> bool {
        self.supported.is_some_and(|p| p >= 99.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn dist_uses_nearest_rank_and_flags_thin_tails() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let d = Dist::of(&values);
        assert_eq!((d.n, d.p50, d.p99), (1000, 500.0, 990.0));
        assert!(d.p99_supported());
        let thin = Dist::of(&values[..62]);
        assert_eq!(thin.p99, 62.0, "p99 of 62 samples is the maximum");
        assert!(!thin.p99_supported());
        assert_eq!(Dist::of(&[]).n, 0);
    }

    #[test]
    fn summary_interpolates_quartiles() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        assert_eq!(s.spread(), 2.0 / 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }
}
