//! Multi-signal detection: the [`SignalSource`] trait and the two
//! auxiliary detectors fused into the tracker beside the paper's
//! deviation test.
//!
//! The monitor's per-(PoP, near-AS) deviation test is one signal; the
//! related work names outages it structurally misses:
//!
//! * **Slow drains / seasonal drops** — members leave one at a time over
//!   hours, so no single 60 s bin ever crosses `T_fail` for 3+ disjoint
//!   ASes. Chocolatine (arXiv:1906.04426) catches these with seasonal
//!   forecasts over aggregate counts; [`ForecastDetector`] is the
//!   deterministic hand-rolled equivalent — seasonal-naive prediction
//!   over per-PoP *present stable crossing* counts with an EWMA
//!   residual band.
//! * **Delay/forwarding anomalies** — a congested or brown-out facility
//!   keeps announcing routes (no BGP signal at all) while RTTs through
//!   it surge. Fontugne et al. (arXiv:1605.04784) localize these with
//!   differential RTT on shared traceroute segments; [`DelayDetector`]
//!   reads the probe subsystem's passive
//!   [`RttLedger`](kepler_probe::telemetry::RttLedger) telemetry.
//!
//! Each source emits [`SourceSignal`]s per closed bin; the system fuses
//! them with the deviation pipeline under conservative opening rules
//! (see `system::Kepler`), and every incident records per-source
//! [`SourceContribution`]s for attribution and ablation.

use crate::config::KeplerConfig;
use crate::events::OutageScope;
use crate::fx::FxHashMap;
use kepler_bgpstream::Timestamp;
use kepler_docmine::LocationTag;
use kepler_probe::telemetry::{lock_ledger, SharedRttLedger};
use kepler_probe::{ProbeTask, Trace, TraceBackend};
use std::collections::BTreeMap;
use std::fmt;

/// EWMA smoothing factor for the forecast residual band (applied to
/// `|observed - predicted|` each bin while not alarming).
pub(crate) const FORECAST_BAND_ALPHA: f64 = 0.2;
/// The forecast deficit must exceed `FORECAST_BAND_K × band` (in
/// addition to the absolute and relative floors) before a bin counts
/// toward an alarm.
pub(crate) const FORECAST_BAND_K: f64 = 3.0;
/// Absolute floor on the forecast deficit (stable crossings lost below
/// prediction) — guards against alarms on tiny facilities and the
/// handful of routes that permanently re-home after unrelated churn
/// elsewhere in the topology.
pub(crate) const FORECAST_ABS_FLOOR: f64 = 4.0;
/// Relative floor: the deficit must also exceed this fraction of the
/// predicted presence. Reconvergence after a remote event can shift a
/// facility's level by 10–20% day over day without anything being wrong
/// locally; an outage drains most of it.
pub(crate) const FORECAST_REL_FLOOR: f64 = 0.25;

/// Which detector produced a signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SignalKind {
    /// The paper's per-(PoP, near-AS) deviation test.
    Deviation,
    /// Seasonal-forecast deficit over per-PoP presence counts.
    Forecast,
    /// Differential-RTT anomaly over shared probe hop pairs.
    Delay,
}

impl SignalKind {
    /// Every kind, in fusion precedence order.
    pub const ALL: [SignalKind; 3] =
        [SignalKind::Deviation, SignalKind::Forecast, SignalKind::Delay];

    /// Stable wire tag (serve codec).
    pub fn tag(self) -> u8 {
        match self {
            SignalKind::Deviation => 0,
            SignalKind::Forecast => 1,
            SignalKind::Delay => 2,
        }
    }

    /// Inverse of [`Self::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(SignalKind::Deviation),
            1 => Some(SignalKind::Forecast),
            2 => Some(SignalKind::Delay),
            _ => None,
        }
    }
}

impl fmt::Display for SignalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SignalKind::Deviation => "deviation",
            SignalKind::Forecast => "forecast",
            SignalKind::Delay => "delay",
        };
        f.write_str(s)
    }
}

/// One auxiliary detection for one bin.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceSignal {
    /// Where the source localizes the anomaly.
    pub scope: OutageScope,
    /// Source confidence in (0, 1].
    pub confidence: f64,
    /// Independent anomalous measurements behind the signal (distinct
    /// hop-pair keys for delay, consecutive deficit bins for forecast).
    pub weight: usize,
}

/// Per-source contribution recorded on an incident: peak confidence and
/// the first bin the source fired in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceContribution {
    /// The contributing detector.
    pub kind: SignalKind,
    /// Highest confidence it reported across the incident's bins.
    pub confidence: f64,
    /// Start of the first bin it fired in.
    pub first_bin: Timestamp,
}

/// What every signal source sees at bin close.
#[derive(Debug, Clone, PartialEq)]
pub struct BinView<'a> {
    /// Start of the closing bin.
    pub bin_start: Timestamp,
    /// Bin width.
    pub bin_secs: u64,
    /// Per-watched-PoP count of stable baseline crossings currently
    /// present (announced) at bin close.
    pub presence: &'a [(LocationTag, u64)],
}

/// A fused detector: polled once per closed bin, in stream order.
pub trait SignalSource {
    /// Which kind of signal this source emits.
    fn kind(&self) -> SignalKind;

    /// Signals raised for the bin described by `view`.
    fn poll(&mut self, view: &BinView<'_>) -> Vec<SourceSignal>;
}

/// Per-PoP seasonal-naive forecaster state.
#[derive(Debug, Clone)]
struct SeasonState {
    /// Ring of the last season's observed presence counts.
    ring: Vec<f64>,
    /// Next write index == the slot holding the value one season ago.
    idx: usize,
    /// Whether a full season has been observed.
    warmed: bool,
    /// EWMA of |observed - predicted| (frozen while alarming).
    band: f64,
    /// Consecutive bins with a confirmed deficit.
    streak: usize,
}

/// Seasonal-forecast detector over per-PoP presence counts
/// (Chocolatine-style, deterministic and dependency-free).
///
/// Prediction is seasonal-naive: this bin's expected presence is the
/// observed presence exactly one season earlier. The residual band is an
/// EWMA of absolute residuals, updated only while *not* alarming so a
/// long drain cannot widen its own acceptance band. A deficit must
/// exceed the largest of `FORECAST_ABS_FLOOR`, `FORECAST_BAND_K` ×
/// band and `FORECAST_REL_FLOOR` × prediction for `confirm_bins`
/// consecutive bins before the detector fires, filtering
/// the 1–2-bin edge mismatches BGP reconvergence jitter produces.
pub struct ForecastDetector {
    season_bins: usize,
    confirm_bins: usize,
    states: FxHashMap<LocationTag, SeasonState>,
    /// Lifetime alarms raised (observability).
    alarms: usize,
}

impl ForecastDetector {
    /// A detector configured from the fusion knobs in `config`.
    pub fn new(config: &KeplerConfig) -> Self {
        let season_bins = (config.forecast_season_secs / config.bin_secs).max(1) as usize;
        ForecastDetector {
            season_bins,
            confirm_bins: config.forecast_confirm_bins,
            states: FxHashMap::default(),
            alarms: 0,
        }
    }

    /// Bins per season.
    pub fn season_bins(&self) -> usize {
        self.season_bins
    }

    /// Lifetime alarm-bin count.
    pub fn alarms(&self) -> usize {
        self.alarms
    }
}

impl SignalSource for ForecastDetector {
    fn kind(&self) -> SignalKind {
        SignalKind::Forecast
    }

    fn poll(&mut self, view: &BinView<'_>) -> Vec<SourceSignal> {
        let mut out = Vec::new();
        for &(tag, observed) in view.presence {
            let observed = observed as f64;
            let state = self.states.entry(tag).or_insert_with(|| SeasonState {
                ring: vec![0.0; self.season_bins],
                idx: 0,
                warmed: false,
                band: 0.0,
                streak: 0,
            });
            let predicted = state.ring[state.idx];
            let deficit = predicted - observed;
            let threshold = FORECAST_ABS_FLOOR
                .max(FORECAST_BAND_K * state.band)
                .max(FORECAST_REL_FLOOR * predicted);
            let deficient = state.warmed && deficit > threshold;
            if deficient {
                state.streak += 1;
                if state.streak >= self.confirm_bins {
                    self.alarms += 1;
                    let confidence = (deficit / (deficit + threshold)).clamp(0.0, 1.0);
                    out.push(SourceSignal {
                        scope: OutageScope::from(tag),
                        confidence,
                        weight: state.streak,
                    });
                }
                // Band frozen while in deficit: an outage must not teach
                // the forecaster that low is normal.
            } else {
                state.streak = 0;
                if state.warmed {
                    let residual = deficit.abs();
                    state.band =
                        FORECAST_BAND_ALPHA * residual + (1.0 - FORECAST_BAND_ALPHA) * state.band;
                }
            }
            state.ring[state.idx] = observed;
            state.idx += 1;
            if state.idx == self.season_bins {
                state.idx = 0;
                state.warmed = true;
            }
        }
        out
    }
}

/// Distinct anomalous measurement keys and summed excess RTT per site.
type SiteAnomalies = BTreeMap<OutageScope, (std::collections::BTreeSet<(u32, u64, u64)>, f64)>;

/// Differential-RTT delay detector over the probe subsystem's passive
/// telemetry ([`kepler_probe::telemetry`]).
///
/// Validation and restoration campaigns stream their measured pairs into
/// a shared [`RttLedger`](kepler_probe::telemetry::RttLedger); this
/// source drains the recorded anomalies each bin, groups them by the
/// infrastructure the slow segment enters, and fires when at least
/// `delay_min_anomalous_pairs` *distinct* (vantage, hop-pair) keys agree
/// — one noisy pair never blames a facility. A canary panel, traced
/// every bin, keeps the telemetry flowing on worlds where no campaign
/// happens to be in progress; an empty panel leaves the ledger to the
/// campaigns alone.
pub struct DelayDetector<B> {
    ledger: SharedRttLedger,
    min_pairs: usize,
    threshold_ms: f64,
    canary: (B, Vec<ProbeTask>, Timestamp),
    canary_baselined: bool,
    /// The one trace buffer the canary round refills per pair.
    scratch: Trace,
    /// Lifetime signals raised (observability).
    alarms: usize,
}

impl<B: TraceBackend> DelayDetector<B> {
    /// A detector reading a shared ledger (fed by a
    /// [`ProbeEngine::with_telemetry`](kepler_probe::ProbeEngine) tap)
    /// that also traces a fixed canary panel each bin (one
    /// [`TraceBackend::trace_panel`] call), baselining the panel once at
    /// `baseline_t` (a known-quiet instant, e.g. stream start).
    pub fn with_canary(
        config: &KeplerConfig,
        ledger: SharedRttLedger,
        backend: B,
        pairs: Vec<ProbeTask>,
        baseline_t: Timestamp,
    ) -> Self {
        DelayDetector {
            ledger,
            min_pairs: config.delay_min_anomalous_pairs,
            threshold_ms: config.delay_threshold_ms,
            canary: (backend, pairs, baseline_t),
            canary_baselined: false,
            scratch: Trace::default(),
            alarms: 0,
        }
    }

    /// Lifetime signal count.
    pub fn alarms(&self) -> usize {
        self.alarms
    }
}

impl<B: TraceBackend> SignalSource for DelayDetector<B> {
    fn kind(&self) -> SignalKind {
        SignalKind::Delay
    }

    fn poll(&mut self, view: &BinView<'_>) -> Vec<SourceSignal> {
        let bin_end = view.bin_start + view.bin_secs;
        // One lock per poll: the canary round and the drain are one
        // critical section (campaigns never run concurrently with a poll).
        let mut ledger = lock_ledger(&self.ledger);
        let (backend, panel, baseline_t) = &self.canary;
        let scratch = &mut self.scratch;
        if !self.canary_baselined {
            backend.trace_panel(panel, *baseline_t, scratch, &mut |p, trace| {
                ledger.observe_baseline(p.vantage, trace)
            });
            self.canary_baselined = true;
        }
        backend.trace_panel(panel, bin_end, scratch, &mut |p, trace| {
            ledger.observe_current(p.vantage, bin_end, trace)
        });
        let anomalies = ledger.drain_anomalies();
        drop(ledger);
        // Distinct anomalous measurement keys and total excess per site.
        let mut by_site: SiteAnomalies = BTreeMap::new();
        for a in anomalies {
            let entry = by_site.entry(a.site).or_default();
            entry.0.insert(a.key);
            entry.1 += a.excess_ms;
        }
        let mut out = Vec::new();
        for (scope, (keys, total_excess)) in by_site {
            if keys.len() < self.min_pairs {
                continue;
            }
            self.alarms += 1;
            let mean_excess = total_excess / keys.len() as f64;
            let confidence = (mean_excess / (mean_excess + self.threshold_ms)).clamp(0.0, 1.0);
            out.push(SourceSignal { scope, confidence, weight: keys.len() });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kepler_bgp::Asn;
    use kepler_probe::telemetry::shared_ledger;
    use kepler_probe::{IfaceOwner, TraceHop};
    use kepler_topology::FacilityId;
    use std::net::{IpAddr, Ipv4Addr};

    fn cfg() -> KeplerConfig {
        KeplerConfig {
            forecast_season_secs: 600,
            forecast_confirm_bins: 3,
            delay_threshold_ms: 10.0,
            delay_min_anomalous_pairs: 2,
            ..KeplerConfig::default()
        }
    }

    fn fac_tag(id: u32) -> LocationTag {
        LocationTag::Facility(FacilityId(id))
    }

    fn run_forecast(
        det: &mut ForecastDetector,
        series: &[u64],
        tag: LocationTag,
    ) -> Vec<(usize, SourceSignal)> {
        let mut fired = Vec::new();
        for (i, &count) in series.iter().enumerate() {
            let presence = [(tag, count)];
            let v = BinView { bin_start: i as u64 * 60, bin_secs: 60, presence: &presence };
            for s in det.poll(&v) {
                fired.push((i, s));
            }
        }
        fired
    }

    #[test]
    fn tags_round_trip() {
        for k in SignalKind::ALL {
            assert_eq!(SignalKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(SignalKind::from_tag(9), None);
        assert_eq!(SignalKind::Forecast.to_string(), "forecast");
    }

    #[test]
    fn forecast_stays_silent_on_flat_and_pure_seasonal_traffic() {
        // Season = 10 bins. Flat series: never fires.
        let mut det = ForecastDetector::new(&cfg());
        assert_eq!(det.season_bins(), 10);
        let flat = vec![40u64; 50];
        assert!(run_forecast(&mut det, &flat, fac_tag(1)).is_empty());
        // A clean diurnal pattern (low half / high half, repeating with
        // the season) is predicted perfectly by seasonal-naive: silent.
        let mut det = ForecastDetector::new(&cfg());
        let seasonal: Vec<u64> = (0..80).map(|i| if (i / 5) % 2 == 0 { 40 } else { 25 }).collect();
        assert!(run_forecast(&mut det, &seasonal, fac_tag(1)).is_empty());
        assert_eq!(det.alarms(), 0);
    }

    #[test]
    fn forecast_fires_on_slow_drain_after_confirm_streak() {
        let mut det = ForecastDetector::new(&cfg());
        // One warm season at 40, then a drain losing 8 crossings per bin.
        let mut series = vec![40u64; 10];
        for i in 0..12 {
            series.push(40u64.saturating_sub(8 * (i + 1)));
        }
        let fired = run_forecast(&mut det, &series, fac_tag(1));
        assert!(!fired.is_empty(), "drain must eventually fire");
        // First alarm needs the deficit past both floors (abs 4.0, rel
        // 0.25 × 40 = 10) and the 3-bin confirm streak; the deficit
        // first clears 10 at bin 11 (16 lost), so the streak completes
        // at bin 13.
        let first = fired[0].0;
        assert!(first >= 13, "confirm streak delays the alarm: {first}");
        assert_eq!(fired[0].1.scope, OutageScope::Facility(FacilityId(1)));
        assert!(fired[0].1.confidence > 0.0 && fired[0].1.confidence <= 1.0);
        // Once alarming it keeps firing every bin while the drain deepens.
        assert!(fired.len() >= 3, "{fired:?}");
    }

    #[test]
    fn forecast_band_absorbs_noise_but_not_sustained_deficit() {
        // Noisy-but-stationary series: residuals teach the band, so a
        // one-bin dip inside the noise envelope never alarms.
        let mut det = ForecastDetector::new(&cfg());
        let noisy: Vec<u64> = (0..60).map(|i| 40 + [0u64, 3, 1, 4, 2][(i as usize) % 5]).collect();
        assert!(run_forecast(&mut det, &noisy, fac_tag(1)).is_empty());
    }

    #[test]
    fn forecast_tracks_each_pop_independently() {
        let mut det = ForecastDetector::new(&cfg());
        for i in 0..30u64 {
            let a = if i >= 15 { 10 } else { 40 };
            let presence = [(fac_tag(1), a), (fac_tag(2), 40)];
            let v = BinView { bin_start: i * 60, bin_secs: 60, presence: &presence };
            for s in det.poll(&v) {
                assert_eq!(
                    s.scope,
                    OutageScope::Facility(FacilityId(1)),
                    "the healthy pop must never fire"
                );
            }
        }
        assert!(det.alarms() > 0, "the dropped pop fired");
    }

    fn fac_hop(oct: u8, fac: u32, rtt: f64) -> TraceHop {
        TraceHop {
            addr: IpAddr::V4(Ipv4Addr::new(11, 0, 0, oct)),
            owner: IfaceOwner::FacilityPort { asn: Asn(oct as u32), facility: FacilityId(fac) },
            rtt_ms: rtt,
        }
    }

    #[test]
    fn delay_detector_needs_distinct_pair_quorum() {
        let cfg = cfg();
        let ledger = shared_ledger(cfg.delay_threshold_ms);
        // An empty canary panel traces nothing: the ledger sees only
        // what the test feeds it.
        let quiet = SurgingBackend { surge_from: 0 };
        let mut det = DelayDetector::with_canary(&cfg, ledger.clone(), quiet, Vec::new(), 0);
        assert_eq!(det.kind(), SignalKind::Delay);
        let base = Trace { hops: vec![fac_hop(1, 7, 5.0)], reached: true };
        let slow = Trace { hops: vec![fac_hop(1, 7, 60.0)], reached: true };
        {
            let mut l = ledger.lock().unwrap();
            // Two vantages baseline the same facility segment.
            l.observe_baseline(Asn(900), &base);
            l.observe_baseline(Asn(901), &base);
            // Only one vantage sees the surge: below the 2-pair quorum.
            l.observe_current(Asn(900), 100, &slow);
        }
        let v = BinView { bin_start: 60, bin_secs: 60, presence: &[] };
        assert!(det.poll(&v).is_empty(), "one pair never blames a facility");
        {
            let mut l = ledger.lock().unwrap();
            l.observe_current(Asn(900), 160, &slow);
            l.observe_current(Asn(901), 160, &slow);
        }
        let signals = det.poll(&BinView { bin_start: 120, bin_secs: 60, presence: &[] });
        assert_eq!(signals.len(), 1, "{signals:?}");
        assert_eq!(signals[0].scope, OutageScope::Facility(FacilityId(7)));
        assert_eq!(signals[0].weight, 2);
        assert!(signals[0].confidence > 0.5);
        assert_eq!(det.alarms(), 1);
    }

    struct SurgingBackend {
        surge_from: Timestamp,
    }

    // `trace` only, on purpose: the canary test below runs the round
    // through the *defaulted* `TraceBackend::trace_panel` / `trace_into`.
    impl TraceBackend for SurgingBackend {
        fn trace(&self, _v: Asn, target: Asn, t: Timestamp) -> Trace {
            let extra = if t >= self.surge_from { 50.0 } else { 0.0 };
            Trace { hops: vec![fac_hop((target.0 % 200) as u8, 7, 5.0 + extra)], reached: true }
        }
    }

    #[test]
    fn canary_panel_feeds_the_ledger_without_campaigns() {
        let cfg = cfg();
        let ledger = shared_ledger(cfg.delay_threshold_ms);
        let pairs = vec![
            ProbeTask { vantage: Asn(900), target: Asn(20) },
            ProbeTask { vantage: Asn(901), target: Asn(21) },
            ProbeTask { vantage: Asn(902), target: Asn(22) },
        ];
        let mut det = DelayDetector::with_canary(
            &cfg,
            ledger.clone(),
            SurgingBackend { surge_from: 300 },
            pairs,
            0,
        );
        // Quiet bins: baselines recorded, nothing fires.
        assert!(det.poll(&BinView { bin_start: 60, bin_secs: 60, presence: &[] }).is_empty());
        assert!(det.poll(&BinView { bin_start: 120, bin_secs: 60, presence: &[] }).is_empty());
        assert_eq!(ledger.lock().unwrap().baseline_pairs(), 3);
        // Surge bin: all three canary pairs exceed the threshold.
        let signals = det.poll(&BinView { bin_start: 300, bin_secs: 60, presence: &[] });
        assert_eq!(signals.len(), 1, "{signals:?}");
        assert_eq!(signals[0].scope, OutageScope::Facility(FacilityId(7)));
        assert_eq!(signals[0].weight, 3);
    }
}
