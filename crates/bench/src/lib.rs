//! Formatting helpers for the figure-reproduction harness (the `repro`
//! binary): one subcommand per artifact of the paper's evaluation, fuzz
//! replay, and the `serve`/`query`/`stats` service commands.
//!
//! Performance is not measured here: `benchmark/` (declared by
//! `BENCHMARK.json`) is the only ledger.

#![forbid(unsafe_code)]

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// The q-quantile (0..=1) of a sorted f64 slice, with linear
/// interpolation between order statistics (the R-7 / NumPy default).
/// Nearest-rank rounding misreports tail quantiles on small samples —
/// e.g. p99 of 10 samples rounds straight to the maximum.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = (sorted.len() - 1) as f64 * q;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        return sorted[lo];
    }
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// An ASCII sparkline for quick visual inspection of a series. Empty
/// input yields an empty string; NaN values render as spaces instead of
/// panicking on an out-of-range tick index.
pub fn sparkline(values: &[f64]) -> String {
    const TICKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let finite = values.iter().copied().filter(|v| v.is_finite());
    let max = finite.clone().fold(f64::NEG_INFINITY, f64::max);
    let min = finite.fold(f64::INFINITY, f64::min);
    if !min.is_finite() || !max.is_finite() {
        // Empty or all-NaN input: no scale to draw against.
        return values.iter().map(|_| ' ').collect();
    }
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|v| {
            if v.is_finite() {
                TICKS[((((v - min) / span) * 7.0).round() as usize).min(7)]
            } else {
                ' '
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles() {
        let v: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        assert_eq!(quantile(&v, 0.0), 0.0);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn quantiles_interpolate_small_samples() {
        // p99 of 10 samples must not collapse to the max (nearest-rank did).
        let v: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let p99 = quantile(&v, 0.99);
        assert!(p99 < 10.0 && p99 > 9.9, "interpolated p99, got {p99}");
        // Median of an even-length sample interpolates between the middles.
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        // Out-of-range q clamps instead of indexing out of bounds.
        assert_eq!(quantile(&v, 1.5), 10.0);
        assert_eq!(quantile(&v, -0.5), 1.0);
    }

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁') && s.ends_with('█'));
    }

    #[test]
    fn sparkline_degenerate_inputs() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[f64::NAN, f64::NAN]), "  ");
        let mixed = sparkline(&[0.0, f64::NAN, 1.0]);
        assert_eq!(mixed.chars().count(), 3);
        assert_eq!(mixed.chars().nth(1), Some(' '));
        // Constant series stays on the bottom tick rather than panicking.
        assert_eq!(sparkline(&[3.0, 3.0]), "▁▁");
        assert_eq!(sparkline(&[f64::INFINITY, 0.0]).chars().next(), Some(' '));
    }
}
