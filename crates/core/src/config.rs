//! Kepler's tunables, with the paper's calibrated defaults (§5.1).

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
    /// How long a route must stay unchanged to enter the stable baseline:
    /// **2 days** (1 day admits transients, 5+ days starves coverage).
    pub stable_secs: u64,
    /// More than this many distinct ASes must be affected before a signal
    /// is investigated at all (link-level events are below it): **3**.
    pub min_affected_ases: usize,
    /// PoP-level classification needs at least this many *non-sibling*
    /// near-end AND far-end ASes: **3**.
    pub min_disjoint_orgs: usize,
    /// Co-location coverage required to pin an epicenter facility: **95%**
    /// (5% slack absorbs colocation-map inaccuracies).
    pub colo_margin: f64,
    /// An outage is restored once more than this fraction of its affected
    /// paths has returned to the baseline PoP: **50%**.
    pub restore_fraction: f64,
    /// Two outages of the same PoP closer than this merge into one
    /// incident (oscillation handling): **12 h**.
    pub merge_window_secs: u64,
    /// Post-session-recovery quarantine for collector feeds (gap guard).
    pub quarantine_secs: u64,
    /// Minimum stable paths a (PoP, AS) group needs before its deviation
    /// fraction is meaningful.
    pub min_stable_paths: usize,
    /// A facility needs this many community-locatable members to be
    /// *trackable* (3 near-end + 3 far-end): **6**.
    pub trackable_min_members: usize,
    /// Half-life of accumulated probe evidence on an open incident: a
    /// probe-confirmed verdict can be reused for later bins of the same
    /// incident (instead of re-probing from scratch) while its decayed
    /// confidence stays above [`Self::evidence_reuse_confidence`]:
    /// **30 min**.
    pub evidence_half_life_secs: u64,
    /// Minimum decayed confidence at which an open incident's confirmed
    /// verdict is reused for a new pending localization of the same
    /// epicenter: **0.5** (i.e. evidence older than one half-life must be
    /// re-measured).
    pub evidence_reuse_confidence: f64,
    /// First restoration re-probe fires this long after an incident
    /// opens; subsequent delays double ([`kepler_probe::Backoff`]):
    /// **5 min**.
    pub restore_probe_initial_secs: u64,
    /// Ceiling of the restoration re-probe backoff: **1 h**.
    pub restore_probe_max_secs: u64,
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
    /// EWMA smoothing factor for the forecast residual band (applied to
    /// `|observed - predicted|` each bin while not alarming).
    pub forecast_band_alpha: f64,
    /// The forecast deficit must exceed `band_k × band` (in addition to
    /// the absolute and relative floors) before a bin counts toward an
    /// alarm.
    pub forecast_band_k: f64,
    /// Absolute floor on the forecast deficit (stable crossings lost
    /// below prediction) — guards against alarms on tiny facilities and
    /// the handful of routes that permanently re-home after unrelated
    /// churn elsewhere in the topology.
    pub forecast_abs_floor: f64,
    /// Relative floor: the deficit must also exceed this fraction of the
    /// predicted presence. Reconvergence after a remote event can shift
    /// a facility's level by 10–20% day over day without anything being
    /// wrong locally; an outage drains most of it.
    pub forecast_rel_floor: f64,
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
            stable_secs: 2 * 86_400,
            min_affected_ases: 3,
            min_disjoint_orgs: 3,
            colo_margin: 0.95,
            restore_fraction: 0.5,
            merge_window_secs: 12 * 3600,
            quarantine_secs: 600,
            min_stable_paths: 2,
            trackable_min_members: 6,
            evidence_half_life_secs: 1_800,
            evidence_reuse_confidence: 0.5,
            restore_probe_initial_secs: 300,
            restore_probe_max_secs: 3_600,
            open_after_consecutive: 1,
            close_after_consecutive: 1,
            forecast_season_secs: 86_400,
            forecast_band_alpha: 0.2,
            forecast_band_k: 3.0,
            forecast_abs_floor: 4.0,
            forecast_rel_floor: 0.25,
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

    /// Tunes the forecast detector: season length, confirmation streak,
    /// and the band multiplier over the EWMA residual. Scenario sweeps
    /// with compressed clocks shrink the season the same way they shrink
    /// [`Self::stable_secs`].
    pub fn with_forecast(mut self, season_secs: u64, confirm_bins: usize, band_k: f64) -> Self {
        self.forecast_season_secs = season_secs.max(self.bin_secs);
        self.forecast_confirm_bins = confirm_bins.max(1);
        self.forecast_band_k = band_k;
        self
    }

    /// Tunes the delay detector: anomaly threshold (ms over the shared
    /// hop-pair baseline) and the self-evidencing pair floor.
    pub fn with_delay(mut self, threshold_ms: f64, min_anomalous_pairs: usize) -> Self {
        self.delay_threshold_ms = threshold_ms;
        self.delay_min_anomalous_pairs = min_anomalous_pairs.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = KeplerConfig::default();
        assert!((c.t_fail - 0.10).abs() < 1e-9);
        assert_eq!(c.bin_secs, 60);
        assert_eq!(c.stable_secs, 172_800);
        assert!((c.colo_margin - 0.95).abs() < 1e-9);
        assert!((c.restore_fraction - 0.5).abs() < 1e-9);
        assert_eq!(c.merge_window_secs, 43_200);
        assert_eq!(c.trackable_min_members, 6);
        assert_eq!(c.open_after_consecutive, 1, "no opening hysteresis by default");
        assert_eq!(c.close_after_consecutive, 1, "no closing hysteresis by default");
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

    #[test]
    fn fusion_builders() {
        let c = KeplerConfig::default().with_forecast(3_600, 3, 2.5).with_delay(10.0, 2);
        assert_eq!(c.forecast_season_secs, 3_600);
        assert_eq!(c.forecast_confirm_bins, 3);
        assert!((c.forecast_band_k - 2.5).abs() < 1e-9);
        assert!((c.delay_threshold_ms - 10.0).abs() < 1e-9);
        assert_eq!(c.delay_min_anomalous_pairs, 2);
        // A season shorter than one bin clamps up; zero floors clamp to 1.
        let c = KeplerConfig::default().with_forecast(0, 0, 3.0).with_delay(5.0, 0);
        assert_eq!(c.forecast_season_secs, c.bin_secs);
        assert_eq!(c.forecast_confirm_bins, 1);
        assert_eq!(c.delay_min_anomalous_pairs, 1);
    }
}
