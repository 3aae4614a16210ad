//! Kepler's tunables, with the paper's calibrated defaults (§5.1). A
//! value no caller turns is a `const` beside the code that reads it
//! (e.g. [`monitor::STABLE_SECS`](crate::monitor::STABLE_SECS)).

/// Configuration for the whole detection pipeline.
#[derive(Debug, Clone)]
pub struct KeplerConfig {
    /// Deviation fraction that raises an outage signal for a (PoP, AS)
    /// group. The paper sweeps 2–50% and selects **10%** as conservative
    /// while still catching medium-scale partial outages (Figure 7a).
    pub t_fail: f64,
    /// Update binning interval: **60 s** — twice the default MRAI, enough
    /// for correlated updates to land in one bin.
    pub bin_secs: u64,
    /// An outage is restored once more than this fraction of its affected
    /// paths has returned to the baseline PoP: **50%**.
    pub restore_fraction: f64,
    /// Post-session-recovery quarantine for collector feeds (gap guard).
    pub quarantine_secs: u64,
    /// Minimum stable paths a (PoP, AS) group needs before its deviation
    /// fraction is meaningful.
    pub min_stable_paths: usize,
    /// A facility needs this many community-locatable members to be
    /// *trackable* (3 near-end + 3 far-end): **6**.
    pub trackable_min_members: usize,
    /// Opening hysteresis: a localized signal must recur in this many
    /// consecutive bins before an incident opens. **1** (open on the
    /// first signal — the paper's behavior). Raising it suppresses
    /// single-bin flaps at the cost of detection delay; the incident's
    /// start is backdated to the first bin of the streak.
    pub open_after_consecutive: usize,
    /// Closing hysteresis: the BGP watch list must stay above
    /// [`Self::restore_fraction`] for this many consecutive restoration
    /// checks before the incident closes. **1** (close on the first
    /// restored bin — the paper's behavior). Raising it keeps a flapping
    /// facility in one `Open`↔`Recovering` incident instead of emitting
    /// an open/close train; the close is backdated to the first restored
    /// check of the streak.
    pub close_after_consecutive: usize,
    /// Season length of the forecast detector's seasonal-naive
    /// prediction (Chocolatine-style): **1 day**. The forecaster
    /// predicts this bin's per-facility crossing presence from the same
    /// bin one season earlier.
    pub forecast_season_secs: u64,
    /// Consecutive deficit bins required before the forecast detector
    /// raises a signal (filters 1–2-bin reconvergence edge mismatches).
    pub forecast_confirm_bins: usize,
    /// Differential-RTT step increase (ms over the per-(vantage,
    /// hop-pair) baseline) that counts as a delay anomaly.
    pub delay_threshold_ms: f64,
    /// Distinct anomalous (vantage, hop-pair) measurement keys required
    /// in one bin before the delay detector raises a signal on its own
    /// (self-evidencing floor — one noisy pair never blames a facility).
    pub delay_min_anomalous_pairs: usize,
}

impl Default for KeplerConfig {
    fn default() -> Self {
        KeplerConfig {
            t_fail: 0.10,
            bin_secs: 60,
            restore_fraction: 0.5,
            quarantine_secs: 600,
            min_stable_paths: 2,
            trackable_min_members: 6,
            open_after_consecutive: 1,
            close_after_consecutive: 1,
            forecast_season_secs: 86_400,
            forecast_confirm_bins: 5,
            delay_threshold_ms: 15.0,
            delay_min_anomalous_pairs: 3,
        }
    }
}

impl KeplerConfig {
    /// A config with a different detection threshold (for the Figure 7a
    /// sweep).
    pub fn with_t_fail(mut self, t: f64) -> Self {
        self.t_fail = t;
        self
    }

    /// Sets the open/close hysteresis thresholds (consecutive bins of
    /// signal before an incident opens, consecutive restored checks
    /// before it closes). Both default to 1, which is the paper's
    /// no-hysteresis behavior.
    pub fn with_hysteresis(mut self, open: usize, close: usize) -> Self {
        self.open_after_consecutive = open.max(1);
        self.close_after_consecutive = close.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{investigate, monitor, signal, tracker};

    #[test]
    fn defaults_match_paper() {
        let c = KeplerConfig::default();
        assert!((c.t_fail - 0.10).abs() < 1e-9);
        assert_eq!(c.bin_secs, 60);
        assert!((c.restore_fraction - 0.5).abs() < 1e-9);
        assert_eq!(c.trackable_min_members, 6);
        assert_eq!(c.open_after_consecutive, 1, "no opening hysteresis by default");
        assert_eq!(c.close_after_consecutive, 1, "no closing hysteresis by default");
        // The values no caller turns live beside their readers.
        assert_eq!(monitor::STABLE_SECS, 172_800, "2 days");
        assert_eq!(investigate::MIN_AFFECTED_ASES, 3);
        assert_eq!(investigate::MIN_DISJOINT_ORGS, 3);
        assert_eq!(investigate::COLO_MARGIN, 0.95);
        assert_eq!(tracker::MERGE_WINDOW_SECS, 43_200, "12 h");
        assert_eq!(tracker::EVIDENCE_HALF_LIFE_SECS, 1_800, "30 min");
        assert_eq!(tracker::EVIDENCE_REUSE_CONFIDENCE, 0.5);
        assert_eq!(signal::FORECAST_BAND_ALPHA, 0.2);
        assert_eq!(signal::FORECAST_BAND_K, 3.0);
        assert_eq!(signal::FORECAST_ABS_FLOOR, 4.0);
        assert_eq!(signal::FORECAST_REL_FLOOR, 0.25);
        let backoff = kepler_probe::Backoff::default();
        assert_eq!((backoff.initial_secs, backoff.max_secs), (300, 3_600), "5 min, 1 h");
    }

    #[test]
    fn builders() {
        let c = KeplerConfig::default().with_t_fail(0.02);
        assert!((c.t_fail - 0.02).abs() < 1e-9);
        let c = KeplerConfig::default().with_hysteresis(3, 2);
        assert_eq!(c.open_after_consecutive, 3);
        assert_eq!(c.close_after_consecutive, 2);
        // Zero would deadlock the lifecycle; it clamps to 1.
        let c = KeplerConfig::default().with_hysteresis(0, 0);
        assert_eq!(c.open_after_consecutive, 1);
        assert_eq!(c.close_after_consecutive, 1);
    }
}
