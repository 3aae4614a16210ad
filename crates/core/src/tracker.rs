//! Outage lifecycle tracking (paper §4.3–4.4).
//!
//! An incident opens when the investigator localizes it; it closes when
//! more than `restore_fraction` of its affected paths carry their original
//! (PoP, near-end) tag again — or, when a restoration prober is attached,
//! when **re-probes of the epicenter observe baseline paths crossing it
//! again** (the data plane reconverges well before BGP, Figure 10a vs
//! 10b). Two outages of the same scope separated by less than
//! `merge_window_secs` are one oscillating incident whose downtime is the
//! sum of the individual outage durations.
//!
//! The tracker is also the system's **evidence ledger**: judged
//! (vantage, target, facility) hop-evidence pairs from consecutive bins
//! accumulate on the open incident (deduplicated, fresh measurement
//! wins), and a probe-confirmed verdict carries a confidence score that
//! decays with the configured half-life. While the decayed confidence
//! stays above `evidence_reuse_confidence`, later bins of the same
//! incident reuse the accumulated verdict instead of re-probing from
//! scratch ([`Tracker::accumulated_confirmation`]).
//!
//! Lifecycle states surface as [`IncidentState`] — `Open` while the
//! epicenter is dark, `Recovering` once restoration has been observed but
//! the oscillation window is still live, `Closed` when final.

use crate::config::KeplerConfig;
use crate::events::{IncidentState, OutageReport, OutageScope, RouteKey, ValidationStatus};
use crate::intern::{AsnId, Interner, PopId, RouteId};
use crate::investigate::LocalizedIncident;
use crate::monitor::Monitor;
use crate::signal::{SignalKind, SourceContribution};
use kepler_bgp::Asn;
use kepler_bgpstream::Timestamp;
use kepler_probe::{Backoff, Epicenter, HopEvidence, RestorationProber, RestorationVerdict};
use kepler_topology::{CityId, ColocationMap, FacilityId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Validation metadata recorded alongside one localized incident: the
/// passive data-plane confirmation (paper §4.4 baseline re-probe) and the
/// targeted-probe verdict with its hop-level evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentMeta {
    /// Baseline data-plane confirmation, when a backend was attached.
    pub dataplane: Option<bool>,
    /// Targeted-probe verdict for the incident's epicenter.
    pub validation: ValidationStatus,
    /// Hop-level evidence behind the verdict.
    pub evidence: Vec<HopEvidence>,
    /// Whether the verdict was settled from accumulated evidence instead
    /// of fresh measurements. A reused confirmation must not re-anchor
    /// the confidence clock — only re-measured evidence resets decay,
    /// otherwise recurring deviations could pin an epicenter forever on
    /// evidence measured once.
    pub reused: bool,
    /// Campaign completeness behind the verdict (completed measurement
    /// pairs over planned; `1.0` when no probing ran). The incident keeps
    /// the minimum across its bins.
    pub completeness: f64,
    /// Detection sources behind this bin's localization. Empty means the
    /// plain deviation test (the tracker synthesizes a
    /// [`SignalKind::Deviation`] contribution at full confidence), so
    /// pre-fusion callers are untouched.
    pub sources: Vec<SourceContribution>,
}

impl Default for IncidentMeta {
    fn default() -> Self {
        IncidentMeta {
            dataplane: None,
            validation: ValidationStatus::default(),
            evidence: Vec::new(),
            reused: false,
            completeness: 1.0,
            sources: Vec::new(),
        }
    }
}

/// Merges per-source contributions: per kind, the peak confidence and
/// earliest first-fire bin win; the result stays sorted by wire tag so
/// exports are deterministic.
fn merge_sources(acc: &mut Vec<SourceContribution>, add: &[SourceContribution]) {
    for c in add {
        match acc.iter_mut().find(|s| s.kind == c.kind) {
            Some(s) => {
                s.confidence = s.confidence.max(c.confidence);
                s.first_bin = s.first_bin.min(c.first_bin);
            }
            None => acc.push(*c),
        }
    }
    acc.sort_by_key(|s| s.kind.tag());
}

/// Dedup key of one judged measurement pair: (vantage, target, facility).
type EvidenceKey = (u32, u32, u32);

fn evidence_key(e: &HopEvidence) -> EvidenceKey {
    (e.vantage.0, e.target.0, e.facility.0)
}

#[derive(Debug)]
struct Ongoing {
    scope: OutageScope,
    started: Timestamp,
    /// Duration accumulated by earlier oscillation segments.
    prior_duration: u64,
    segment_start: Timestamp,
    oscillations: usize,
    affected_near: BTreeSet<Asn>,
    affected_far: BTreeSet<Asn>,
    affected_keys: BTreeSet<RouteKey>,
    /// Crossings to watch for restoration, in dense-id space — restoration
    /// checks run every bin, so they must not touch fat keys.
    watch: Vec<(RouteId, PopId, AsnId)>,
    dataplane_confirmed: Option<bool>,
    validation: ValidationStatus,
    /// Accumulated judged pairs, deduplicated by (vantage, target,
    /// facility); a fresh measurement of the same pair replaces the stale
    /// one. `BTreeMap` so reports render evidence in a stable order.
    evidence: BTreeMap<EvidenceKey, HopEvidence>,
    /// Worst campaign completeness observed across the incident's bins.
    completeness: f64,
    /// Confidence of the accumulated probe verdict at `confidence_at`
    /// (1.0 = freshly probe-confirmed, decays with the configured
    /// half-life; 0.0 = nothing reusable).
    confidence: f64,
    confidence_at: Timestamp,
    /// When the next restoration re-probe is due.
    next_probe: Timestamp,
    /// Current re-probe backoff delay.
    probe_backoff: u64,
    /// First `Restored` verdict of the current streak — the close time if
    /// the next check confirms (`None` once a `StillDown` interrupts).
    probe_restored_at: Option<Timestamp>,
    /// Consecutive BGP restoration checks above `restore_fraction`
    /// (closing hysteresis; resets on any non-restored check or new
    /// deviation signals).
    restored_streak: usize,
    /// First check of the current restored streak — the close anchor
    /// once the streak reaches `close_after_consecutive`.
    restored_first: Option<Timestamp>,
    /// Per-source detection contributions (tag-sorted; see
    /// [`merge_sources`]).
    sources: Vec<SourceContribution>,
}

impl Ongoing {
    fn merge_evidence(&mut self, fresh: &[HopEvidence]) {
        for e in fresh {
            self.evidence.insert(evidence_key(e), *e);
        }
    }

    fn evidence_vec(&self) -> Vec<HopEvidence> {
        self.evidence.values().copied().collect()
    }

    fn live_state(&self) -> IncidentState {
        if self.probe_restored_at.is_some() || self.restored_streak > 0 {
            IncidentState::Recovering
        } else {
            IncidentState::Open
        }
    }
}

/// Tracks ongoing and closed outages.
#[derive(Debug, Default)]
pub struct Tracker {
    config: KeplerConfig,
    ongoing: HashMap<OutageScope, Ongoing>,
    /// Closed segments waiting for possible oscillation-reopen: scope →
    /// (closed report, end time).
    cooling: HashMap<OutageScope, (OutageReport, u64 /* accumulated duration */)>,
    finished: Vec<OutageReport>,
    /// Facility → city, for cross-scope incident reconciliation.
    fac_city: HashMap<u32, CityId>,
    /// IXP → city.
    ixp_city: HashMap<u32, CityId>,
    /// Opening hysteresis state: scope → (consecutive signal bins so
    /// far, last bin seen, first bin of the streak). Only populated when
    /// `open_after_consecutive > 1`.
    warming: HashMap<OutageScope, (usize, Timestamp, Timestamp)>,
}

impl Tracker {
    /// A tracker with the given configuration.
    pub fn new(config: KeplerConfig) -> Self {
        Tracker { config, ..Default::default() }
    }

    /// Loads facility/IXP geography so that shadows of one incident seen
    /// through different PoP tags (the facility, its IXP, its city) merge
    /// into one report instead of three.
    pub fn set_geography(&mut self, colo: &ColocationMap) {
        for f in colo.facilities() {
            self.fac_city.insert(f.id.0, f.city);
        }
        for x in colo.ixps() {
            self.ixp_city.insert(x.id.0, x.city);
        }
    }

    fn city_of(&self, scope: &OutageScope) -> Option<CityId> {
        match scope {
            OutageScope::Facility(f) => self.fac_city.get(&f.0).copied(),
            OutageScope::Ixp(x) => self.ixp_city.get(&x.0).copied(),
            OutageScope::City(c) => Some(*c),
        }
    }

    /// Whether two scopes plausibly describe the same physical incident.
    fn related(&self, a: &OutageScope, b: &OutageScope) -> bool {
        if a == b {
            return true;
        }
        match (self.city_of(a), self.city_of(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// The scope to keep when merging two related scopes: identical scopes
    /// stay; a city-level scope corroborating a sharper one is absorbed
    /// into the sharp scope; two distinct physical scopes abstract to
    /// their city.
    fn merged_scope(&self, a: OutageScope, b: OutageScope) -> OutageScope {
        if a == b {
            return a;
        }
        match (a, b) {
            (OutageScope::City(_), sharp) => sharp,
            (sharp, OutageScope::City(_)) => sharp,
            _ => match self.city_of(&a) {
                Some(c) => OutageScope::City(c),
                None => a,
            },
        }
    }

    /// The backoff schedule restoration re-probes follow.
    fn backoff(&self) -> Backoff {
        Backoff {
            initial_secs: self.config.restore_probe_initial_secs,
            max_secs: self.config.restore_probe_max_secs,
        }
    }

    /// The accumulated confidence of `on`'s probe verdict at `now`,
    /// decayed by the configured half-life.
    fn decayed_confidence(&self, on: &Ongoing, now: Timestamp) -> f64 {
        if on.confidence <= 0.0 {
            return 0.0;
        }
        let half_life = self.config.evidence_half_life_secs;
        if half_life == 0 {
            return 0.0;
        }
        let age = now.saturating_sub(on.confidence_at) as f64;
        on.confidence * 0.5_f64.powf(age / half_life as f64)
    }

    /// Cross-bin evidence reuse: if an *open* incident whose epicenter is
    /// one of `candidates` already carries a probe-confirmed verdict
    /// whose decayed confidence still clears
    /// `evidence_reuse_confidence`, returns that facility and the
    /// accumulated hop evidence — the caller can settle the new bin's
    /// pending localization without re-probing from scratch.
    pub fn accumulated_confirmation(
        &self,
        candidates: &[FacilityId],
        now: Timestamp,
    ) -> Option<(FacilityId, Vec<HopEvidence>)> {
        let mut best: Option<(f64, FacilityId, Vec<HopEvidence>)> = None;
        // Candidate order (best passive score first) breaks confidence
        // ties, so attribution never depends on map iteration order.
        for &f in candidates {
            let Some(on) = self.ongoing.get(&OutageScope::Facility(f)) else { continue };
            if on.validation != ValidationStatus::Confirmed {
                continue;
            }
            let c = self.decayed_confidence(on, now);
            if c < self.config.evidence_reuse_confidence {
                continue;
            }
            if best.as_ref().map(|(b, ..)| c > *b).unwrap_or(true) {
                best = Some((c, f, on.evidence_vec()));
            }
        }
        best.map(|(_, f, ev)| (f, ev))
    }

    /// Records this bin's localized incidents. The incidents' display-typed
    /// watch crossings are interned once here; every later restoration
    /// check runs dense.
    pub fn record(
        &mut self,
        incidents: &[LocalizedIncident],
        meta: &[IncidentMeta],
        interner: &mut Interner,
    ) {
        let backoff = self.backoff();
        for (inc, meta) in incidents.iter().zip(meta.iter()) {
            let dense_watch: Vec<(RouteId, PopId, AsnId)> = inc
                .watch
                .iter()
                .map(|(k, pop, near)| {
                    (interner.route_id(k), interner.pop_id(*pop), interner.asn_id(*near))
                })
                .collect();
            // Attribution: an empty meta source list means the plain
            // deviation test found this bin.
            let contribs = if meta.sources.is_empty() {
                vec![SourceContribution {
                    kind: SignalKind::Deviation,
                    confidence: 1.0,
                    first_bin: inc.bin_start,
                }]
            } else {
                meta.sources.clone()
            };
            // Merge target among ongoing outages: exact scope first, then
            // any related scope (same city).
            let target = if self.ongoing.contains_key(&inc.scope) {
                Some(inc.scope)
            } else {
                self.ongoing.keys().find(|s| self.related(s, &inc.scope)).copied()
            };
            if let Some(key) = target {
                let mut on = self.ongoing.remove(&key).expect("target present");
                on.affected_near.extend(inc.affected_near.iter().copied());
                on.affected_far.extend(inc.affected_far.iter().copied());
                on.affected_keys.extend(inc.affected_keys.iter().copied());
                on.watch.extend(dense_watch.iter().copied());
                if on.dataplane_confirmed.is_none() {
                    on.dataplane_confirmed = meta.dataplane;
                }
                if on.validation == ValidationStatus::Unvalidated {
                    on.validation = meta.validation;
                }
                on.completeness = on.completeness.min(meta.completeness);
                on.merge_evidence(&meta.evidence);
                merge_sources(&mut on.sources, &contribs);
                if meta.validation == ValidationStatus::Confirmed && !meta.reused {
                    // Freshly *measured* confirmation: the verdict is
                    // current again. (A reused verdict keeps its original
                    // decay clock — it adds no new measurement.)
                    on.validation = ValidationStatus::Confirmed;
                    on.confidence = 1.0;
                    on.confidence_at = inc.bin_start;
                }
                // New signals mean the epicenter is still (or again)
                // misbehaving: any in-flight restoration streak is stale.
                on.probe_restored_at = None;
                on.restored_streak = 0;
                on.restored_first = None;
                on.scope = self.merged_scope(key, inc.scope);
                // A previously separate ongoing entry under the merged
                // scope is the same incident too.
                if let Some(other) = self.ongoing.remove(&on.scope) {
                    if self.decayed_confidence(&other, inc.bin_start)
                        > self.decayed_confidence(&on, inc.bin_start)
                    {
                        on.confidence = other.confidence;
                        on.confidence_at = other.confidence_at;
                    }
                    on.next_probe = on.next_probe.min(other.next_probe);
                    on.started = on.started.min(other.started);
                    on.segment_start = on.segment_start.min(other.segment_start);
                    on.prior_duration = on.prior_duration.max(other.prior_duration);
                    on.oscillations = on.oscillations.max(other.oscillations);
                    on.affected_near.extend(other.affected_near);
                    on.affected_far.extend(other.affected_far);
                    on.affected_keys.extend(other.affected_keys);
                    on.watch.extend(other.watch);
                    if on.validation == ValidationStatus::Unvalidated {
                        on.validation = other.validation;
                    }
                    on.completeness = on.completeness.min(other.completeness);
                    for (k, e) in other.evidence {
                        on.evidence.entry(k).or_insert(e);
                    }
                    merge_sources(&mut on.sources, &other.sources);
                }
                self.ongoing.insert(on.scope, on);
                continue;
            }
            // Oscillation? Reopen a recently closed incident of a related
            // scope.
            let ckey = if self.cooling.contains_key(&inc.scope) {
                Some(inc.scope)
            } else {
                self.cooling.keys().find(|s| self.related(s, &inc.scope)).copied()
            };
            if let Some(key) = ckey {
                let (report, acc) = self.cooling.remove(&key).expect("cooling present");
                let gap_ok = report
                    .end
                    .map(|e| inc.bin_start.saturating_sub(e) < self.config.merge_window_secs)
                    .unwrap_or(false);
                if gap_ok {
                    let scope = self.merged_scope(key, inc.scope);
                    let mut on = Ongoing {
                        scope,
                        started: report.start,
                        prior_duration: acc,
                        segment_start: inc.bin_start,
                        oscillations: report.oscillations + 1,
                        affected_near: report.affected_near.clone(),
                        affected_far: report.affected_far.clone(),
                        affected_keys: BTreeSet::new(),
                        watch: dense_watch.clone(),
                        dataplane_confirmed: report.dataplane_confirmed,
                        validation: report.validation,
                        evidence: report
                            .probe_evidence
                            .iter()
                            .map(|e| (evidence_key(e), *e))
                            .collect(),
                        completeness: report.probe_completeness.min(meta.completeness),
                        // The earlier segment's confirmation spoke about the
                        // earlier failure: a reopened incident must re-earn
                        // its confidence before any verdict reuse.
                        confidence: 0.0,
                        confidence_at: inc.bin_start,
                        next_probe: inc.bin_start.saturating_add(backoff.first()),
                        probe_backoff: backoff.first(),
                        probe_restored_at: None,
                        restored_streak: 0,
                        restored_first: None,
                        sources: report.sources.clone(),
                    };
                    merge_sources(&mut on.sources, &contribs);
                    on.affected_near.extend(inc.affected_near.iter().copied());
                    on.affected_far.extend(inc.affected_far.iter().copied());
                    on.affected_keys.extend(inc.affected_keys.iter().copied());
                    if on.dataplane_confirmed.is_none() {
                        on.dataplane_confirmed = meta.dataplane;
                    }
                    if on.validation == ValidationStatus::Unvalidated {
                        on.validation = meta.validation;
                    }
                    on.merge_evidence(&meta.evidence);
                    if meta.validation == ValidationStatus::Confirmed && !meta.reused {
                        on.validation = ValidationStatus::Confirmed;
                        on.confidence = 1.0;
                    }
                    self.ongoing.insert(on.scope, on);
                    continue;
                }
                // Too old: the cooled incident is final.
                self.finish_report(report);
            }
            // Opening hysteresis: a brand-new incident only opens once
            // the signal has recurred in `open_after_consecutive`
            // consecutive bins (record() is only called for bins that
            // carry signals, so "consecutive" is a bounded gap between
            // signal bins). The start backdates to the streak's first
            // bin. With the default threshold of 1 this is a no-op.
            let mut started = inc.bin_start;
            if self.config.open_after_consecutive > 1 {
                let max_gap = 2 * self.config.bin_secs;
                let (streak, first) = match self.warming.get(&inc.scope) {
                    // Same bin re-localized: no double counting.
                    Some(&(streak, last, first)) if inc.bin_start == last => (streak, first),
                    Some(&(streak, last, first))
                        if inc.bin_start > last && inc.bin_start - last <= max_gap =>
                    {
                        (streak + 1, first)
                    }
                    _ => (1, inc.bin_start),
                };
                if streak < self.config.open_after_consecutive {
                    self.warming.insert(inc.scope, (streak, inc.bin_start, first));
                    continue;
                }
                self.warming.remove(&inc.scope);
                started = first;
            }
            self.ongoing.insert(
                inc.scope,
                Ongoing {
                    scope: inc.scope,
                    started,
                    prior_duration: 0,
                    segment_start: started,
                    oscillations: 1,
                    affected_near: inc.affected_near.clone(),
                    affected_far: inc.affected_far.clone(),
                    affected_keys: inc.affected_keys.iter().copied().collect(),
                    watch: dense_watch,
                    dataplane_confirmed: meta.dataplane,
                    validation: meta.validation,
                    evidence: meta.evidence.iter().map(|e| (evidence_key(e), *e)).collect(),
                    completeness: meta.completeness,
                    confidence: if meta.validation == ValidationStatus::Confirmed && !meta.reused {
                        1.0
                    } else {
                        0.0
                    },
                    confidence_at: inc.bin_start,
                    next_probe: inc.bin_start.saturating_add(backoff.first()),
                    probe_backoff: backoff.first(),
                    probe_restored_at: None,
                    restored_streak: 0,
                    restored_first: None,
                    sources: {
                        let mut s = Vec::new();
                        merge_sources(&mut s, &contribs);
                        s
                    },
                },
            );
        }
    }

    /// Merges an auxiliary source's contribution into an already-ongoing
    /// incident of the same (or related) scope. Returns whether a live
    /// incident absorbed it — a `false` leaves the decision of whether
    /// the signal can open an incident on its own to the fusion layer.
    pub fn corroborate(&mut self, scope: OutageScope, contrib: SourceContribution) -> bool {
        let target = if self.ongoing.contains_key(&scope) {
            Some(scope)
        } else {
            self.ongoing.keys().find(|s| self.related(s, &scope)).copied()
        };
        match target {
            Some(key) => {
                let on = self.ongoing.get_mut(&key).expect("target present");
                merge_sources(&mut on.sources, &[contrib]);
                true
            }
            None => false,
        }
    }

    fn close_report(&self, on: Ongoing, end: Timestamp) -> (OutageReport, u64) {
        let seg = end.saturating_sub(on.segment_start);
        let report = OutageReport {
            scope: on.scope,
            start: on.started,
            end: Some(end),
            affected_near: on.affected_near,
            affected_far: on.affected_far,
            affected_paths: on.affected_keys.len(),
            oscillations: on.oscillations,
            dataplane_confirmed: on.dataplane_confirmed,
            validation: on.validation,
            probe_evidence: on.evidence.into_values().collect(),
            probe_completeness: on.completeness,
            state: IncidentState::Recovering,
            sources: on.sources,
        };
        (report, on.prior_duration + seg)
    }

    fn finish_report(&mut self, mut report: OutageReport) {
        report.state = IncidentState::Closed;
        self.finished.push(report);
    }

    /// Runs due restoration re-probes against ongoing incidents
    /// (exponential backoff per incident, starting at
    /// `restore_probe_initial_secs`). Every scope is probed at its own
    /// granularity — a facility epicenter directly, an IXP via its
    /// fabric, a city via any facility or fabric located there
    /// ([`kepler_probe::Epicenter`]). A first `Restored` verdict marks
    /// the incident [`IncidentState::Recovering`] and schedules a quick
    /// confirming check; a **second consecutive** `Restored` closes it
    /// with the first verdict's timestamp as the end — typically well
    /// before the BGP watch list recovers. `StillDown` resets the streak
    /// and doubles the backoff; `Inconclusive` only backs off. Returns
    /// how many incidents were closed by probes.
    pub fn probe_restorations(
        &mut self,
        now: Timestamp,
        prober: &mut dyn RestorationProber,
    ) -> usize {
        let backoff = self.backoff();
        let mut due: Vec<OutageScope> =
            self.ongoing.iter().filter(|(_, on)| now >= on.next_probe).map(|(s, _)| *s).collect();
        due.sort(); // deterministic probe order
        let mut closed = 0usize;
        for scope in due {
            let verdict = {
                let on = &self.ongoing[&scope];
                let epicenter = match scope {
                    OutageScope::Facility(f) => Epicenter::Facility(f),
                    OutageScope::Ixp(x) => Epicenter::Ixp(x),
                    OutageScope::City(c) => Epicenter::City(c),
                };
                let targets: Vec<Asn> = on.affected_far.iter().copied().collect();
                prober.check(epicenter, &targets, on.started, now).verdict
            };
            let streak_start = self.ongoing.get(&scope).and_then(|o| o.probe_restored_at);
            if verdict == RestorationVerdict::Restored {
                if let Some(first) = streak_start {
                    // Second consecutive confirmation: the outage ended
                    // when the streak began.
                    let on = self.ongoing.remove(&scope).expect("present");
                    let entry = self.close_report(on, first);
                    self.cooling.insert(scope, entry);
                    closed += 1;
                    continue;
                }
            }
            let on = self.ongoing.get_mut(&scope).expect("present");
            match verdict {
                RestorationVerdict::Restored => {
                    // Observe once, confirm quickly: the streak resets
                    // the backoff to its floor.
                    on.probe_restored_at = Some(now);
                    on.probe_backoff = backoff.first();
                    on.next_probe = now.saturating_add(on.probe_backoff);
                }
                RestorationVerdict::StillDown | RestorationVerdict::Inconclusive => {
                    // "Two consecutive Restored" is literal: an
                    // Inconclusive check (starved budget, thin baseline)
                    // also breaks the streak — otherwise a close could
                    // stamp an end time observed hours before the second
                    // Restored, erasing real downtime in between.
                    on.probe_restored_at = None;
                    on.probe_backoff = backoff.next(on.probe_backoff);
                    on.next_probe = now.saturating_add(on.probe_backoff);
                }
            }
        }
        closed
    }

    /// Checks ongoing outages for restoration at the close of a bin.
    pub fn check_restorations(&mut self, now: Timestamp, monitor: &Monitor) {
        let scopes: Vec<OutageScope> = self.ongoing.keys().copied().collect();
        for scope in scopes {
            let restored = {
                let on = &self.ongoing[&scope];
                if on.watch.is_empty() {
                    false
                } else {
                    let returned = on
                        .watch
                        .iter()
                        .filter(|&&(r, p, a)| monitor.route_has_crossing(r, p, a))
                        .count();
                    returned as f64 / on.watch.len() as f64 > self.config.restore_fraction
                }
            };
            if !restored {
                // A non-restored check breaks the closing streak: the
                // watch list dipped back below `restore_fraction`.
                let on = self.ongoing.get_mut(&scope).expect("present");
                on.restored_streak = 0;
                on.restored_first = None;
                continue;
            }
            {
                // Closing hysteresis: the watch list must stay restored
                // for `close_after_consecutive` checks before the close
                // fires (threshold 1 = close immediately, the paper's
                // behavior). A flapping epicenter keeps breaking the
                // streak and stays one Open↔Recovering incident.
                let on = self.ongoing.get_mut(&scope).expect("present");
                on.restored_streak += 1;
                if on.restored_first.is_none() {
                    on.restored_first = Some(now);
                }
                if on.restored_streak < self.config.close_after_consecutive {
                    continue;
                }
            }
            let on = self.ongoing.remove(&scope).expect("present");
            // The close anchors at the *first* restored check of the
            // streak — the later checks only confirmed it.
            let anchor = on.restored_first.unwrap_or(now).min(now);
            // If probes recently observed the data plane restored, the
            // outage ended then — BGP reconvergence lag is not downtime.
            // A single Restored verdict does not close on its own, but
            // the control plane crossing `restore_fraction` corroborates
            // it; the backdate is bounded to one initial-backoff window
            // (a streak older than that would already have faced — and
            // failed — its confirming re-probe, so it must be stale
            // state from a caller that skips `probe_restorations`).
            let fresh_window = self.backoff().first().saturating_add(self.config.bin_secs);
            let end = on
                .probe_restored_at
                .filter(|&t| anchor.saturating_sub(t) <= fresh_window)
                .unwrap_or(anchor)
                .min(anchor);
            let entry = self.close_report(on, end);
            self.cooling.insert(scope, entry);
        }
        // Promote cooled incidents older than the merge window to final.
        let expired: Vec<OutageScope> = self
            .cooling
            .iter()
            .filter(|(_, (r, _))| {
                r.end
                    .map(|e| now.saturating_sub(e) >= self.config.merge_window_secs)
                    .unwrap_or(true)
            })
            .map(|(s, _)| *s)
            .collect();
        for s in expired {
            let (report, _) = self.cooling.remove(&s).expect("present");
            self.finish_report(report);
        }
    }

    /// Lifecycle states of the incidents the tracker is still holding
    /// (sorted by scope): `Open`/`Recovering` for ongoing ones,
    /// `Recovering` for restored incidents inside the oscillation window.
    pub fn live_states(&self) -> Vec<(OutageScope, IncidentState)> {
        let mut out: Vec<(OutageScope, IncidentState)> = self
            .ongoing
            .iter()
            .map(|(s, on)| (*s, on.live_state()))
            .chain(self.cooling.keys().map(|s| (*s, IncidentState::Recovering)))
            .collect();
        out.sort();
        out
    }

    /// Ends the run: ongoing outages close as ongoing (`end = None`),
    /// cooled ones become final. Leaves the tracker empty but usable for
    /// post-run inspection.
    pub fn finish(&mut self) -> Vec<OutageReport> {
        let cooled: Vec<OutageReport> =
            self.cooling.drain().map(|(_, (report, _))| report).collect();
        for report in cooled {
            self.finish_report(report);
        }
        let open: Vec<Ongoing> = self.ongoing.drain().map(|(_, on)| on).collect();
        for on in open {
            let state = on.live_state();
            self.finished.push(OutageReport {
                scope: on.scope,
                start: on.started,
                end: None,
                affected_near: on.affected_near,
                affected_far: on.affected_far,
                affected_paths: on.affected_keys.len(),
                oscillations: on.oscillations,
                dataplane_confirmed: on.dataplane_confirmed,
                validation: on.validation,
                probe_evidence: on.evidence.into_values().collect(),
                probe_completeness: on.completeness,
                state,
                sources: on.sources,
            });
        }
        self.finished.sort_by_key(|r| (r.start, r.scope));
        std::mem::take(&mut self.finished)
    }

    /// Number of currently ongoing outages.
    pub fn ongoing_count(&self) -> usize {
        self.ongoing.len()
    }

    /// Exports the tracker's full lifecycle state in display space.
    ///
    /// Dense watch-list ids are resolved through `interner` so the image
    /// survives a process restart: a fresh interner re-mints different
    /// ids, but display keys are stable. Entries are sorted by scope, so
    /// two trackers holding the same incidents export byte-identical
    /// state regardless of hash-map iteration order — the property the
    /// serve layer's WAL/snapshot recovery tests rely on.
    pub fn export(&self, interner: &Interner) -> TrackerState {
        let mut ongoing: Vec<OngoingExport> = self
            .ongoing
            .values()
            .map(|on| OngoingExport {
                scope: on.scope,
                started: on.started,
                prior_duration: on.prior_duration,
                segment_start: on.segment_start,
                oscillations: on.oscillations,
                affected_near: on.affected_near.iter().copied().collect(),
                affected_far: on.affected_far.iter().copied().collect(),
                affected_keys: on.affected_keys.iter().copied().collect(),
                watch: on
                    .watch
                    .iter()
                    .map(|&(r, p, a)| (interner.route_key(r), interner.pop_tag(p), interner.asn(a)))
                    .collect(),
                dataplane_confirmed: on.dataplane_confirmed,
                validation: on.validation,
                evidence: on.evidence.values().copied().collect(),
                completeness: on.completeness,
                confidence: on.confidence,
                confidence_at: on.confidence_at,
                next_probe: on.next_probe,
                probe_backoff: on.probe_backoff,
                probe_restored_at: on.probe_restored_at,
                restored_streak: on.restored_streak,
                restored_first: on.restored_first,
                sources: on.sources.clone(),
            })
            .collect();
        ongoing.sort_by_key(|e| e.scope);
        let mut cooling: Vec<(OutageScope, OutageReport, u64)> =
            self.cooling.iter().map(|(s, (r, acc))| (*s, r.clone(), *acc)).collect();
        cooling.sort_by_key(|(s, ..)| *s);
        let mut warming: Vec<(OutageScope, usize, Timestamp, Timestamp)> =
            self.warming.iter().map(|(s, &(n, last, first))| (*s, n, last, first)).collect();
        warming.sort_by_key(|(s, ..)| *s);
        TrackerState { ongoing, cooling, warming, finished: self.finished.clone() }
    }

    /// Replaces the tracker's lifecycle state with an exported image,
    /// re-interning display keys into `interner` (geography and config
    /// are not part of the image — configure the tracker first). The
    /// round trip `export → import → export` is exact.
    pub fn import(&mut self, state: &TrackerState, interner: &mut Interner) {
        self.ongoing = state
            .ongoing
            .iter()
            .map(|e| {
                let on = Ongoing {
                    scope: e.scope,
                    started: e.started,
                    prior_duration: e.prior_duration,
                    segment_start: e.segment_start,
                    oscillations: e.oscillations,
                    affected_near: e.affected_near.iter().copied().collect(),
                    affected_far: e.affected_far.iter().copied().collect(),
                    affected_keys: e.affected_keys.iter().copied().collect(),
                    watch: e
                        .watch
                        .iter()
                        .map(|(k, pop, near)| {
                            (interner.route_id(k), interner.pop_id(*pop), interner.asn_id(*near))
                        })
                        .collect(),
                    dataplane_confirmed: e.dataplane_confirmed,
                    validation: e.validation,
                    evidence: e.evidence.iter().map(|h| (evidence_key(h), *h)).collect(),
                    completeness: e.completeness,
                    confidence: e.confidence,
                    confidence_at: e.confidence_at,
                    next_probe: e.next_probe,
                    probe_backoff: e.probe_backoff,
                    probe_restored_at: e.probe_restored_at,
                    restored_streak: e.restored_streak,
                    restored_first: e.restored_first,
                    sources: e.sources.clone(),
                };
                (e.scope, on)
            })
            .collect();
        self.cooling = state.cooling.iter().map(|(s, r, acc)| (*s, (r.clone(), *acc))).collect();
        self.warming =
            state.warming.iter().map(|&(s, n, last, first)| (s, (n, last, first))).collect();
        self.finished = state.finished.clone();
    }
}

/// Display-space image of one ongoing incident: everything the tracker
/// holds for it, with dense watch-list ids resolved to stable keys. Part
/// of [`TrackerState`].
#[derive(Debug, Clone, PartialEq)]
pub struct OngoingExport {
    /// Localized epicenter.
    pub scope: OutageScope,
    /// When the incident opened (first segment).
    pub started: Timestamp,
    /// Duration accumulated by earlier oscillation segments.
    pub prior_duration: u64,
    /// Start of the current segment.
    pub segment_start: Timestamp,
    /// Oscillation segments so far (1 = never closed).
    pub oscillations: usize,
    /// Near-end ASes affected (sorted).
    pub affected_near: Vec<Asn>,
    /// Far-end ASes affected (sorted).
    pub affected_far: Vec<Asn>,
    /// Affected route keys (sorted).
    pub affected_keys: Vec<RouteKey>,
    /// Restoration watch crossings, display-typed.
    pub watch: Vec<(RouteKey, kepler_docmine::LocationTag, Asn)>,
    /// Baseline data-plane confirmation, if a backend ran.
    pub dataplane_confirmed: Option<bool>,
    /// Targeted-probe verdict.
    pub validation: ValidationStatus,
    /// Accumulated judged measurement pairs (evidence-key order).
    pub evidence: Vec<HopEvidence>,
    /// Worst campaign completeness observed.
    pub completeness: f64,
    /// Probe-verdict confidence at `confidence_at`.
    pub confidence: f64,
    /// Anchor of the confidence decay clock.
    pub confidence_at: Timestamp,
    /// When the next restoration re-probe is due.
    pub next_probe: Timestamp,
    /// Current re-probe backoff delay.
    pub probe_backoff: u64,
    /// First `Restored` verdict of the current streak.
    pub probe_restored_at: Option<Timestamp>,
    /// Consecutive restored control-plane checks.
    pub restored_streak: usize,
    /// First check of the current restored streak.
    pub restored_first: Option<Timestamp>,
    /// Per-source detection contributions (tag-sorted).
    pub sources: Vec<SourceContribution>,
}

/// Exportable image of a [`Tracker`]'s full lifecycle state — ongoing
/// incidents, cooling (recently closed) segments, opening-hysteresis
/// streaks and finalized reports — in display space and deterministic
/// (scope-sorted) order. [`Tracker::export`] / [`Tracker::import`] round
/// this through a fresh process bit-identically; the `kepler-serve`
/// durable store persists exactly this image.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrackerState {
    /// Open/recovering incidents, sorted by scope.
    pub ongoing: Vec<OngoingExport>,
    /// Cooling segments: (scope, closed report, accumulated duration).
    pub cooling: Vec<(OutageScope, OutageReport, u64)>,
    /// Opening-hysteresis streaks: (scope, streak, last bin, first bin).
    pub warming: Vec<(OutageScope, usize, Timestamp, Timestamp)>,
    /// Finalized reports so far.
    pub finished: Vec<OutageReport>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{PopCrossing, RouteEvent};
    use kepler_bgp::Prefix;
    use kepler_bgpstream::{CollectorId, PeerId};
    use kepler_docmine::LocationTag;
    use kepler_probe::{PostState, RestorationReport};
    use kepler_topology::FacilityId;

    fn key(i: u8) -> RouteKey {
        RouteKey {
            collector: CollectorId(0),
            peer: PeerId { asn: Asn(1), addr: "10.0.0.1".parse().unwrap() },
            prefix: Prefix::v4(20, i, 0, 0, 16),
        }
    }

    fn incident(t: u64, keys: &[u8]) -> LocalizedIncident {
        LocalizedIncident {
            scope: OutageScope::Facility(FacilityId(1)),
            bin_start: t,
            affected_near: [Asn(5)].into(),
            affected_far: [Asn(6)].into(),
            affected_keys: keys.iter().map(|&i| key(i)).collect(),
            watch: keys
                .iter()
                .map(|&i| (key(i), LocationTag::Facility(FacilityId(1)), Asn(5)))
                .collect(),
        }
    }

    fn hop_evidence(vantage: u32, target: u32) -> HopEvidence {
        HopEvidence {
            vantage: Asn(vantage),
            target: Asn(target),
            facility: FacilityId(1),
            pre_hop: 2,
            post: PostState::Detoured,
        }
    }

    fn confirmed_meta(evidence: Vec<HopEvidence>) -> IncidentMeta {
        IncidentMeta {
            validation: ValidationStatus::Confirmed,
            evidence,
            ..IncidentMeta::default()
        }
    }

    /// Monitor whose `current` holds crossings for the given keys.
    fn monitor_with(interner: &mut Interner, keys_present: &[u8]) -> Monitor {
        let mut m = Monitor::new(KeplerConfig::default());
        for &i in keys_present {
            let ev = interner.intern_event(&RouteEvent::Update {
                key: key(i),
                crossings: vec![PopCrossing {
                    pop: LocationTag::Facility(FacilityId(1)),
                    near: Asn(5),
                    far: Asn(6),
                }],
                hops: vec![],
            });
            m.observe(1000, &ev);
        }
        m
    }

    /// A restoration prober answering from a fixed script of verdicts.
    struct ScriptedRestoration {
        script: Vec<RestorationVerdict>,
        calls: Vec<Timestamp>,
    }

    impl ScriptedRestoration {
        fn new(script: Vec<RestorationVerdict>) -> Self {
            ScriptedRestoration { script, calls: Vec::new() }
        }
    }

    impl RestorationProber for ScriptedRestoration {
        fn check(
            &mut self,
            _epicenter: Epicenter,
            _targets: &[Asn],
            _incident_start: Timestamp,
            now: Timestamp,
        ) -> RestorationReport {
            let verdict =
                self.script.get(self.calls.len()).copied().unwrap_or(RestorationVerdict::StillDown);
            self.calls.push(now);
            RestorationReport {
                verdict,
                watched: 4,
                crossing: if verdict == RestorationVerdict::Restored { 4 } else { 0 },
                probes_sent: 8,
                rate_limited: 0,
            }
        }
    }

    #[test]
    fn open_then_restore() {
        let mut interner = Interner::new();
        let mut t = Tracker::new(KeplerConfig::default());
        t.record(&[incident(1000, &[0, 1, 2, 3])], &[IncidentMeta::default()], &mut interner);
        assert_eq!(t.ongoing_count(), 1);
        assert_eq!(
            t.live_states(),
            vec![(OutageScope::Facility(FacilityId(1)), IncidentState::Open)]
        );
        // 2 of 4 back: exactly 50%, not >50% — still ongoing.
        t.check_restorations(2000, &monitor_with(&mut interner, &[0, 1]));
        assert_eq!(t.ongoing_count(), 1);
        // 3 of 4 back: restored.
        t.check_restorations(3000, &monitor_with(&mut interner, &[0, 1, 2]));
        assert_eq!(t.ongoing_count(), 0);
        assert_eq!(
            t.live_states(),
            vec![(OutageScope::Facility(FacilityId(1)), IncidentState::Recovering)]
        );
        let reports = t.finish();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].start, 1000);
        assert_eq!(reports[0].end, Some(3000));
        assert_eq!(reports[0].oscillations, 1);
        assert_eq!(reports[0].state, IncidentState::Closed);
    }

    #[test]
    fn oscillations_merge_within_window() {
        let mut interner = Interner::new();
        let mut t = Tracker::new(KeplerConfig::default());
        t.record(&[incident(1000, &[0, 1, 2, 3])], &[IncidentMeta::default()], &mut interner);
        t.check_restorations(2000, &monitor_with(&mut interner, &[0, 1, 2, 3]));
        assert_eq!(t.ongoing_count(), 0);
        // Re-fails 1h later (< 12h window): same incident.
        t.record(&[incident(2000 + 3600, &[0, 1])], &[IncidentMeta::default()], &mut interner);
        assert_eq!(t.ongoing_count(), 1);
        t.check_restorations(2000 + 7200, &monitor_with(&mut interner, &[0, 1, 2, 3]));
        let reports = t.finish();
        assert_eq!(reports.len(), 1, "one merged incident");
        assert_eq!(reports[0].oscillations, 2);
        assert_eq!(reports[0].start, 1000);
    }

    #[test]
    fn separate_outages_beyond_window() {
        let cfg = KeplerConfig::default();
        let w = cfg.merge_window_secs;
        let mut interner = Interner::new();
        let mut t = Tracker::new(cfg);
        t.record(&[incident(1000, &[0, 1])], &[IncidentMeta::default()], &mut interner);
        t.check_restorations(2000, &monitor_with(&mut interner, &[0, 1]));
        // Second outage far beyond the merge window.
        t.record(&[incident(2000 + w + 100, &[0, 1])], &[IncidentMeta::default()], &mut interner);
        t.check_restorations(2000 + w + 200, &monitor_with(&mut interner, &[0, 1]));
        let reports = t.finish();
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.oscillations == 1));
    }

    #[test]
    fn unrestored_outage_finishes_open() {
        let mut interner = Interner::new();
        let mut t = Tracker::new(KeplerConfig::default());
        t.record(
            &[incident(1000, &[0, 1])],
            &[IncidentMeta {
                dataplane: Some(true),
                validation: ValidationStatus::Confirmed,
                ..IncidentMeta::default()
            }],
            &mut interner,
        );
        t.check_restorations(5000, &monitor_with(&mut interner, &[]));
        let reports = t.finish();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].end, None);
        assert_eq!(reports[0].dataplane_confirmed, Some(true));
        assert_eq!(reports[0].state, IncidentState::Open);
    }

    #[test]
    fn evidence_accumulates_and_dedupes_across_bins() {
        let mut interner = Interner::new();
        let mut t = Tracker::new(KeplerConfig::default());
        t.record(
            &[incident(1000, &[0, 1])],
            &[confirmed_meta(vec![hop_evidence(900, 20), hop_evidence(901, 21)])],
            &mut interner,
        );
        // A later bin re-measures pair (900, 20) — now StillCrossing — and
        // adds a new pair: the ledger keeps 3 entries, fresh wins.
        let remeasured =
            HopEvidence { post: PostState::StillCrossing { hop: 1 }, ..hop_evidence(900, 20) };
        t.record(
            &[incident(1060, &[2])],
            &[confirmed_meta(vec![remeasured, hop_evidence(902, 22)])],
            &mut interner,
        );
        assert_eq!(t.ongoing_count(), 1);
        let reports = t.finish();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].probe_evidence.len(), 3, "{:?}", reports[0].probe_evidence);
        let pair = reports[0]
            .probe_evidence
            .iter()
            .find(|e| e.vantage == Asn(900) && e.target == Asn(20))
            .expect("accumulated pair");
        assert_eq!(pair.post, PostState::StillCrossing { hop: 1 }, "fresh measurement wins");
    }

    #[test]
    fn accumulated_confirmation_reuses_then_decays() {
        let config = KeplerConfig::default();
        let half_life = config.evidence_half_life_secs;
        let mut interner = Interner::new();
        let mut t = Tracker::new(config);
        t.record(
            &[incident(1000, &[0, 1])],
            &[confirmed_meta(vec![hop_evidence(900, 20)])],
            &mut interner,
        );
        let candidates = [FacilityId(1), FacilityId(2)];
        // Fresh: reusable, and carries the ledger's evidence.
        let (fac, ev) = t.accumulated_confirmation(&candidates, 1000).expect("fresh");
        assert_eq!(fac, FacilityId(1));
        assert_eq!(ev.len(), 1);
        // Just under one half-life: still reusable (>= threshold 0.5).
        assert!(t.accumulated_confirmation(&candidates, 1000 + half_life - 60).is_some());
        // Past one half-life: decayed below the reuse threshold.
        assert!(t.accumulated_confirmation(&candidates, 1000 + half_life + 60).is_none());
        // Wrong candidates never match.
        assert!(t.accumulated_confirmation(&[FacilityId(7)], 1000).is_none());
        // An unconfirmed incident is never reusable.
        let mut t2 = Tracker::new(KeplerConfig::default());
        t2.record(&[incident(1000, &[0])], &[IncidentMeta::default()], &mut interner);
        assert!(t2.accumulated_confirmation(&candidates, 1000).is_none());
    }

    #[test]
    fn fresh_confirmation_refreshes_decayed_confidence() {
        let config = KeplerConfig::default();
        let half_life = config.evidence_half_life_secs;
        let mut interner = Interner::new();
        let mut t = Tracker::new(config);
        t.record(
            &[incident(1000, &[0])],
            &[confirmed_meta(vec![hop_evidence(900, 20)])],
            &mut interner,
        );
        let late = 1000 + 2 * half_life;
        assert!(t.accumulated_confirmation(&[FacilityId(1)], late).is_none(), "decayed");
        // A new probe-confirmed bin re-anchors the confidence clock.
        t.record(
            &[incident(late, &[1])],
            &[confirmed_meta(vec![hop_evidence(901, 21)])],
            &mut interner,
        );
        let (_, ev) = t.accumulated_confirmation(&[FacilityId(1)], late).expect("refreshed");
        assert_eq!(ev.len(), 2, "ledger kept both bins' pairs");
    }

    #[test]
    fn reused_confirmations_do_not_refresh_the_decay_clock() {
        let config = KeplerConfig::default();
        let half_life = config.evidence_half_life_secs;
        let mut interner = Interner::new();
        let mut t = Tracker::new(config);
        t.record(
            &[incident(1000, &[0])],
            &[confirmed_meta(vec![hop_evidence(900, 20)])],
            &mut interner,
        );
        // Recurring deviations settled *by reuse* keep arriving well
        // inside the half-life — they must not re-anchor the clock.
        let step = half_life / 3;
        for k in 1..=2u64 {
            let now = 1000 + k * step;
            let (fac, ev) =
                t.accumulated_confirmation(&[FacilityId(1)], now).expect("still reusable");
            assert_eq!(fac, FacilityId(1));
            t.record(
                &[incident(now, &[k as u8])],
                &[IncidentMeta {
                    validation: ValidationStatus::Confirmed,
                    evidence: ev,
                    reused: true,
                    ..IncidentMeta::default()
                }],
                &mut interner,
            );
        }
        // Measured once at t=1000; two half-lives later the verdict has
        // expired despite the reuses in between.
        assert!(
            t.accumulated_confirmation(&[FacilityId(1)], 1000 + 2 * half_life + 60).is_none(),
            "reuse must not keep stale evidence alive forever"
        );
    }

    #[test]
    fn accumulated_confirmation_breaks_ties_by_candidate_order() {
        let mut interner = Interner::new();
        let mut t = Tracker::new(KeplerConfig::default());
        // Two distinct cities so the incidents stay separate (related()
        // merges same-city facility scopes).
        t.set_geography(&{
            let mut colo = ColocationMap::new();
            for (id, city) in [(0u32, 0u32), (1, 1), (2, 2)] {
                colo.add_facility(kepler_topology::entities::Facility {
                    id: FacilityId(id),
                    name: format!("F{id}"),
                    address: String::new(),
                    postcode: format!("P{id}"),
                    country: "GB".into(),
                    city: kepler_topology::CityId(city),
                    continent: kepler_topology::Continent::Europe,
                    point: kepler_topology::GeoPoint::new(51.5, 0.0),
                    operator: "Op".into(),
                });
            }
            colo
        });
        let mut inc2 = incident(1000, &[2, 3]);
        inc2.scope = OutageScope::Facility(FacilityId(2));
        t.record(
            &[incident(1000, &[0, 1]), inc2],
            &[
                confirmed_meta(vec![hop_evidence(900, 20)]),
                confirmed_meta(vec![hop_evidence(901, 21)]),
            ],
            &mut interner,
        );
        // Both candidates carry confidence 1.0: the tie resolves to the
        // *first* candidate (best passive score), deterministically.
        let (fac, _) =
            t.accumulated_confirmation(&[FacilityId(2), FacilityId(1)], 1000).expect("hit");
        assert_eq!(fac, FacilityId(2));
        let (fac, _) =
            t.accumulated_confirmation(&[FacilityId(1), FacilityId(2)], 1000).expect("hit");
        assert_eq!(fac, FacilityId(1));
    }

    #[test]
    fn probe_restoration_closes_after_two_confirms() {
        let config = KeplerConfig::default();
        let first_delay = config.restore_probe_initial_secs;
        let mut interner = Interner::new();
        let mut t = Tracker::new(config);
        t.record(&[incident(1000, &[0, 1])], &[IncidentMeta::default()], &mut interner);
        let mut prober = ScriptedRestoration::new(vec![
            RestorationVerdict::Restored,
            RestorationVerdict::Restored,
        ]);
        // Before the first backoff elapses nothing is probed.
        assert_eq!(t.probe_restorations(1000 + first_delay - 1, &mut prober), 0);
        assert!(prober.calls.is_empty());
        // First due check: Restored — marks Recovering, does not close.
        let t1 = 1000 + first_delay;
        assert_eq!(t.probe_restorations(t1, &mut prober), 0);
        assert_eq!(prober.calls, vec![t1]);
        assert_eq!(
            t.live_states(),
            vec![(OutageScope::Facility(FacilityId(1)), IncidentState::Recovering)]
        );
        // Confirming check closes with the *first* verdict's timestamp.
        let t2 = t1 + first_delay;
        assert_eq!(t.probe_restorations(t2, &mut prober), 1);
        assert_eq!(t.ongoing_count(), 0);
        let reports = t.finish();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].end, Some(t1), "closed at the first Restored observation");
    }

    #[test]
    fn still_down_verdicts_never_close_and_back_off_exponentially() {
        let config = KeplerConfig::default();
        let initial = config.restore_probe_initial_secs;
        let max = config.restore_probe_max_secs;
        let mut interner = Interner::new();
        let mut t = Tracker::new(config);
        t.record(&[incident(1000, &[0, 1])], &[IncidentMeta::default()], &mut interner);
        let mut prober = ScriptedRestoration::new(vec![]); // always StillDown
                                                           // Sweep a day of wall clock in 1-minute steps: the incident must
                                                           // stay open and the probe cadence must follow 2x backoff.
        for now in (1000..1000 + 86_400).step_by(60) {
            assert_eq!(t.probe_restorations(now, &mut prober), 0);
        }
        assert_eq!(t.ongoing_count(), 1, "a still-down facility is never closed");
        assert_eq!(
            t.live_states(),
            vec![(OutageScope::Facility(FacilityId(1)), IncidentState::Open)]
        );
        // Gaps between checks: initial, 2x, 4x ... capped at max.
        let gaps: Vec<u64> = prober.calls.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.len() >= 4, "{gaps:?}");
        let mut expect = initial;
        for g in &gaps {
            expect = (expect * 2).min(max);
            // Checks run on the next 60 s sweep tick at/after the due time.
            assert!(*g >= expect && *g < expect + 60, "gap {g} vs backoff {expect}: {gaps:?}");
        }
    }

    #[test]
    fn restored_streak_is_reset_by_still_down() {
        let config = KeplerConfig::default();
        let initial = config.restore_probe_initial_secs;
        let mut interner = Interner::new();
        let mut t = Tracker::new(config);
        t.record(&[incident(1000, &[0, 1])], &[IncidentMeta::default()], &mut interner);
        // Restored, then StillDown (a transient flap), then the real
        // restoration: the close time must come from the *second* streak.
        let mut prober = ScriptedRestoration::new(vec![
            RestorationVerdict::Restored,
            RestorationVerdict::StillDown,
            RestorationVerdict::Inconclusive,
            RestorationVerdict::Restored,
            RestorationVerdict::Restored,
        ]);
        let mut closed = 0;
        let mut now = 1000;
        while closed == 0 && now < 1000 + 86_400 {
            now += 60;
            closed = t.probe_restorations(now, &mut prober);
        }
        assert_eq!(closed, 1);
        assert_eq!(prober.calls.len(), 5);
        let reports = t.finish();
        // End = the 4th call (first Restored of the surviving streak).
        assert_eq!(reports[0].end, Some(prober.calls[3]));
        assert!(prober.calls[3] > prober.calls[0] + initial);
    }

    #[test]
    fn fresh_probe_verdicts_backdate_bgp_closes_but_stale_ones_do_not() {
        let config = KeplerConfig::default();
        let first = config.restore_probe_initial_secs;
        let mut interner = Interner::new();
        // Fresh: BGP crossing restore_fraction right after a Restored
        // verdict corroborates it — the close backdates to the verdict.
        let mut t = Tracker::new(config.clone());
        t.record(&[incident(1000, &[0, 1])], &[IncidentMeta::default()], &mut interner);
        let mut prober = ScriptedRestoration::new(vec![RestorationVerdict::Restored]);
        let t1 = 1000 + first;
        assert_eq!(t.probe_restorations(t1, &mut prober), 0);
        t.check_restorations(t1 + 60, &monitor_with(&mut interner, &[0, 1]));
        let reports = t.finish();
        assert_eq!(reports[0].end, Some(t1), "corroborated verdict stamps the earlier end");
        // Stale: a single unconfirmed verdict whose confirming check
        // never ran must not backdate a much later BGP close.
        let mut interner = Interner::new();
        let mut t = Tracker::new(config);
        t.record(&[incident(1000, &[0, 1])], &[IncidentMeta::default()], &mut interner);
        let mut prober = ScriptedRestoration::new(vec![RestorationVerdict::Restored]);
        assert_eq!(t.probe_restorations(t1, &mut prober), 0);
        let late = t1 + 10_000;
        t.check_restorations(late, &monitor_with(&mut interner, &[0, 1]));
        let reports = t.finish();
        assert_eq!(reports[0].end, Some(late), "stale streaks cannot erase downtime");
    }

    #[test]
    fn new_signals_reset_a_restoration_streak() {
        let config = KeplerConfig::default();
        let first_delay = config.restore_probe_initial_secs;
        let mut interner = Interner::new();
        let mut t = Tracker::new(config);
        t.record(&[incident(1000, &[0, 1])], &[IncidentMeta::default()], &mut interner);
        let mut prober = ScriptedRestoration::new(vec![
            RestorationVerdict::Restored,
            RestorationVerdict::Restored,
        ]);
        let t1 = 1000 + first_delay;
        assert_eq!(t.probe_restorations(t1, &mut prober), 0);
        // Fresh deviation signals arrive before the confirming check: the
        // epicenter is clearly not stable — the streak must not survive.
        t.record(&[incident(t1 + 30, &[2, 3])], &[IncidentMeta::default()], &mut interner);
        assert_eq!(t.probe_restorations(t1 + first_delay, &mut prober), 0, "streak was reset");
        assert_eq!(t.ongoing_count(), 1);
    }

    #[test]
    fn ixp_scoped_incidents_are_probe_checked_and_closed() {
        use kepler_topology::IxpId;
        let mut interner = Interner::new();
        let mut t = Tracker::new(KeplerConfig::default());
        let inc = LocalizedIncident {
            scope: OutageScope::Ixp(IxpId(3)),
            bin_start: 1000,
            affected_near: [Asn(5)].into(),
            affected_far: [Asn(6)].into(),
            affected_keys: vec![key(0)],
            watch: vec![(key(0), LocationTag::Ixp(IxpId(3)), Asn(5))],
        };
        t.record(&[inc], &[IncidentMeta::default()], &mut interner);
        let mut prober = ScriptedRestoration::new(vec![RestorationVerdict::Restored; 8]);
        let mut closed = 0;
        for now in (1000..30_000).step_by(300) {
            closed += t.probe_restorations(now, &mut prober);
        }
        // Non-facility epicenters also close on probe evidence: two
        // consecutive Restored verdicts end the IXP incident.
        assert!(!prober.calls.is_empty(), "IXP epicenters are re-probed too");
        assert_eq!(closed, 1);
        assert_eq!(t.ongoing_count(), 0);
    }

    #[test]
    fn probe_schedule_survives_timestamp_extremes() {
        // A multi-year replay jumping to u64::MAX must not overflow the
        // re-probe schedule arithmetic.
        let mut interner = Interner::new();
        let mut t = Tracker::new(KeplerConfig::default());
        t.record(&[incident(u64::MAX - 10, &[0, 1])], &[IncidentMeta::default()], &mut interner);
        let mut prober = ScriptedRestoration::new(vec![]); // always StillDown
        t.probe_restorations(u64::MAX, &mut prober);
        t.probe_restorations(u64::MAX, &mut prober);
        t.check_restorations(u64::MAX, &monitor_with(&mut interner, &[]));
        assert_eq!(t.ongoing_count(), 1, "incident survives without panicking");
    }

    #[test]
    fn closing_hysteresis_holds_until_the_streak_and_backdates_the_close() {
        let mut interner = Interner::new();
        let mut t = Tracker::new(KeplerConfig::default().with_hysteresis(1, 3));
        t.record(&[incident(1000, &[0, 1, 2, 3])], &[IncidentMeta::default()], &mut interner);
        // First two restored checks: Recovering, not closed.
        t.check_restorations(2000, &monitor_with(&mut interner, &[0, 1, 2]));
        assert_eq!(t.ongoing_count(), 1);
        assert_eq!(
            t.live_states(),
            vec![(OutageScope::Facility(FacilityId(1)), IncidentState::Recovering)]
        );
        t.check_restorations(2060, &monitor_with(&mut interner, &[0, 1, 2]));
        assert_eq!(t.ongoing_count(), 1);
        // Third consecutive restored check closes, backdated to the
        // streak's first check.
        t.check_restorations(2120, &monitor_with(&mut interner, &[0, 1, 2]));
        assert_eq!(t.ongoing_count(), 0);
        let reports = t.finish();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].end, Some(2000), "close anchors at the streak's first check");
    }

    #[test]
    fn closing_hysteresis_exactly_at_threshold() {
        let mut interner = Interner::new();
        let mut t = Tracker::new(KeplerConfig::default().with_hysteresis(1, 2));
        t.record(&[incident(1000, &[0, 1])], &[IncidentMeta::default()], &mut interner);
        // One restored check: one short of the threshold.
        t.check_restorations(2000, &monitor_with(&mut interner, &[0, 1]));
        assert_eq!(t.ongoing_count(), 1, "streak of 1 < threshold 2 must not close");
        // Exactly at the threshold: closes.
        t.check_restorations(2060, &monitor_with(&mut interner, &[0, 1]));
        assert_eq!(t.ongoing_count(), 0, "streak of 2 == threshold 2 closes");
        assert_eq!(t.finish()[0].end, Some(2000));
    }

    #[test]
    fn a_dip_resets_the_closing_streak() {
        let mut interner = Interner::new();
        let mut t = Tracker::new(KeplerConfig::default().with_hysteresis(1, 2));
        t.record(&[incident(1000, &[0, 1])], &[IncidentMeta::default()], &mut interner);
        t.check_restorations(2000, &monitor_with(&mut interner, &[0, 1]));
        // The watch list dips below restore_fraction: streak resets.
        t.check_restorations(2060, &monitor_with(&mut interner, &[]));
        assert_eq!(
            t.live_states(),
            vec![(OutageScope::Facility(FacilityId(1)), IncidentState::Open)],
            "a broken streak is Open again, not Recovering"
        );
        t.check_restorations(2120, &monitor_with(&mut interner, &[0, 1]));
        assert_eq!(t.ongoing_count(), 1, "post-dip streak restarts at 1");
        t.check_restorations(2180, &monitor_with(&mut interner, &[0, 1]));
        assert_eq!(t.ongoing_count(), 0);
        assert_eq!(t.finish()[0].end, Some(2120), "close anchors after the dip");
    }

    #[test]
    fn new_signals_reset_the_closing_streak() {
        let mut interner = Interner::new();
        let mut t = Tracker::new(KeplerConfig::default().with_hysteresis(1, 2));
        t.record(&[incident(1000, &[0, 1])], &[IncidentMeta::default()], &mut interner);
        t.check_restorations(2000, &monitor_with(&mut interner, &[0, 1]));
        // Fresh deviation signals between restored checks: the epicenter
        // is flapping, the streak must not survive.
        t.record(&[incident(2030, &[2, 3])], &[IncidentMeta::default()], &mut interner);
        t.check_restorations(2060, &monitor_with(&mut interner, &[0, 1, 2, 3]));
        assert_eq!(t.ongoing_count(), 1, "streak restarted after new signals");
        t.check_restorations(2120, &monitor_with(&mut interner, &[0, 1, 2, 3]));
        assert_eq!(t.ongoing_count(), 0);
        assert_eq!(t.finish()[0].end, Some(2060));
    }

    #[test]
    fn opening_hysteresis_defers_then_backdates_the_start() {
        let mut interner = Interner::new();
        let mut t = Tracker::new(KeplerConfig::default().with_hysteresis(3, 1));
        // Two consecutive signal bins: one short of the threshold — no
        // incident yet.
        t.record(&[incident(1000, &[0])], &[IncidentMeta::default()], &mut interner);
        t.record(&[incident(1060, &[1])], &[IncidentMeta::default()], &mut interner);
        assert_eq!(t.ongoing_count(), 0, "below the opening threshold");
        assert!(t.live_states().is_empty());
        // Exactly at the threshold: opens, start backdated to the first
        // bin of the streak.
        t.record(&[incident(1120, &[2])], &[IncidentMeta::default()], &mut interner);
        assert_eq!(t.ongoing_count(), 1);
        let reports = t.finish();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].start, 1000, "start backdates to the streak's first bin");
    }

    #[test]
    fn opening_hysteresis_gap_resets_the_streak() {
        let mut interner = Interner::new();
        let mut t = Tracker::new(KeplerConfig::default().with_hysteresis(2, 1));
        t.record(&[incident(1000, &[0])], &[IncidentMeta::default()], &mut interner);
        // Next signal bin arrives beyond the 2-bin consecutiveness gap:
        // the streak restarts instead of opening.
        t.record(&[incident(1300, &[1])], &[IncidentMeta::default()], &mut interner);
        assert_eq!(t.ongoing_count(), 0, "non-consecutive bins do not accumulate");
        // A genuinely consecutive follow-up opens, backdated to 1300.
        t.record(&[incident(1360, &[2])], &[IncidentMeta::default()], &mut interner);
        assert_eq!(t.ongoing_count(), 1);
        assert_eq!(t.finish()[0].start, 1300);
    }

    #[test]
    fn single_bin_flap_never_opens_under_opening_hysteresis() {
        let mut interner = Interner::new();
        let mut t = Tracker::new(KeplerConfig::default().with_hysteresis(2, 1));
        // Isolated single-bin blips, each far from the next: none opens.
        for k in 0..5u64 {
            t.record(
                &[incident(1000 + k * 1000, &[k as u8])],
                &[IncidentMeta::default()],
                &mut interner,
            );
        }
        assert_eq!(t.ongoing_count(), 0);
        assert!(t.finish().is_empty(), "no incident, no report");
    }

    #[test]
    fn completeness_is_minimized_across_bins() {
        let mut interner = Interner::new();
        let mut t = Tracker::new(KeplerConfig::default());
        t.record(
            &[incident(1000, &[0, 1])],
            &[IncidentMeta { completeness: 0.75, ..IncidentMeta::default() }],
            &mut interner,
        );
        // A later, more degraded bin lowers the floor; a later clean bin
        // does not raise it back.
        t.record(
            &[incident(1060, &[2])],
            &[IncidentMeta { completeness: 0.5, ..IncidentMeta::default() }],
            &mut interner,
        );
        t.record(&[incident(1120, &[3])], &[IncidentMeta::default()], &mut interner);
        let reports = t.finish();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].probe_completeness, 0.5);
    }

    #[test]
    fn export_import_round_trips_through_a_fresh_interner() {
        // Build a tracker holding every kind of state at once: an open
        // incident with evidence, a cooling segment, a warming streak and
        // a finished report.
        let mut interner = Interner::new();
        let mut t = Tracker::new(KeplerConfig::default().with_hysteresis(1, 1));
        t.record(
            &[incident(1000, &[0, 1])],
            &[IncidentMeta {
                validation: ValidationStatus::Confirmed,
                evidence: vec![hop_evidence(900, 6)],
                completeness: 0.9,
                ..IncidentMeta::default()
            }],
            &mut interner,
        );
        let mut other = incident(2000, &[2]);
        other.scope = OutageScope::Facility(FacilityId(7));
        t.record(&[other], &[IncidentMeta::default()], &mut interner);
        t.finish_report(OutageReport {
            scope: OutageScope::Facility(FacilityId(9)),
            start: 10,
            end: Some(20),
            affected_near: [Asn(5)].into(),
            affected_far: [Asn(6)].into(),
            affected_paths: 1,
            oscillations: 1,
            dataplane_confirmed: Some(true),
            validation: ValidationStatus::Confirmed,
            probe_evidence: vec![hop_evidence(900, 6)],
            probe_completeness: 1.0,
            state: IncidentState::Closed,
            sources: vec![SourceContribution {
                kind: SignalKind::Deviation,
                confidence: 1.0,
                first_bin: 10,
            }],
        });
        let exported = t.export(&interner);
        assert_eq!(exported.ongoing.len(), 2);
        assert_eq!(exported.finished.len(), 1);

        // Import into a fresh tracker + fresh interner: the interner
        // mints different dense ids, but the display-space export must be
        // bit-identical — and the imported tracker must keep working
        // (evidence reuse reads the re-interned state).
        let mut interner2 = Interner::new();
        // Skew the id space so dense ids cannot accidentally line up.
        interner2.asn_id(Asn(424242));
        let mut t2 = Tracker::new(KeplerConfig::default().with_hysteresis(1, 1));
        t2.import(&exported, &mut interner2);
        assert_eq!(t2.export(&interner2), exported);
        assert_eq!(t2.ongoing_count(), t.ongoing_count());
        assert_eq!(t2.live_states(), t.live_states());
        assert_eq!(
            t2.accumulated_confirmation(&[FacilityId(1)], 1100).map(|(f, _)| f),
            Some(FacilityId(1)),
            "imported evidence ledger stays usable"
        );
    }
}
