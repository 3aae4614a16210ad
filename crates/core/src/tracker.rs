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
//!
//! One struct, [`Incident`], is the live incident everywhere: the
//! tracker's in-memory record, the row [`Tracker::export`] hands to the
//! durable store, and the value the serve codec puts on the wire.

use crate::config::KeplerConfig;
use crate::events::{IncidentState, OutageReport, OutageScope, RouteKey, ValidationStatus};
use crate::intern::{AsnId, Interner, PopId, RouteId};
use crate::investigate::LocalizedIncident;
use crate::monitor::Monitor;
use crate::signal::{SignalKind, SourceContribution};
use kepler_bgp::Asn;
use kepler_bgpstream::Timestamp;
use kepler_docmine::LocationTag;
use kepler_probe::{Backoff, HopEvidence, RestorationProber, RestorationVerdict};
use kepler_topology::{CityId, ColocationMap, FacilityId};
use std::collections::{BTreeMap, HashMap};

/// Validation metadata recorded alongside one localized incident: the
/// passive data-plane confirmation (paper §4.4 baseline re-probe) and the
/// targeted-probe verdict with its hop-level evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentMeta {
    /// Baseline data-plane confirmation, when `Prober::baseline` had evidence.
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
pub(crate) fn merge_sources(acc: &mut Vec<SourceContribution>, add: &[SourceContribution]) {
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

/// Set union on a sorted, deduplicated `Vec`.
fn union<T: Ord>(acc: &mut Vec<T>, add: impl IntoIterator<Item = T>) {
    acc.extend(add);
    acc.sort_unstable();
    acc.dedup();
}

/// Dedup key of one judged measurement pair: (vantage, target, facility).
fn evidence_key(e: &HopEvidence) -> (u32, u32, u32) {
    (e.vantage.0, e.target.0, e.facility.0)
}

/// One live (open or recovering) incident with all its lifecycle clocks
/// — the tracker's record, its exported image and the store's
/// `degraded_events` row are this one struct. Everything is in display
/// space, so the image survives a process restart (a fresh interner
/// re-mints different dense ids, display keys are stable).
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
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
    /// Near-end ASes affected (sorted, unique).
    pub affected_near: Vec<Asn>,
    /// Far-end ASes affected (sorted, unique).
    pub affected_far: Vec<Asn>,
    /// Affected route keys (sorted, unique).
    pub affected_keys: Vec<RouteKey>,
    /// Crossings to watch for restoration: (route, PoP tag, near-end AS).
    pub watch: Vec<(RouteKey, LocationTag, Asn)>,
    /// Baseline data-plane confirmation, if a backend ran.
    pub dataplane_confirmed: Option<bool>,
    /// Targeted-probe verdict.
    pub validation: ValidationStatus,
    /// Accumulated judged pairs, one per (vantage, target, facility) and
    /// sorted by it, so reports render evidence in a stable order; a
    /// fresh measurement of the same pair replaces the stale one.
    pub evidence: Vec<HopEvidence>,
    /// Worst campaign completeness observed across the incident's bins.
    pub completeness: f64,
    /// Confidence of the accumulated probe verdict at `confidence_at`
    /// (1.0 = freshly probe-confirmed, decays with the configured
    /// half-life; 0.0 = nothing reusable).
    pub confidence: f64,
    /// Anchor of the confidence decay clock.
    pub confidence_at: Timestamp,
    /// When the next restoration re-probe is due.
    pub next_probe: Timestamp,
    /// Current re-probe backoff delay.
    pub probe_backoff: u64,
    /// First `Restored` verdict of the current streak — the close time if
    /// the next check confirms (`None` once a `StillDown` interrupts).
    pub probe_restored_at: Option<Timestamp>,
    /// Consecutive BGP restoration checks above `restore_fraction`
    /// (closing hysteresis; resets on any non-restored check or new
    /// deviation signals).
    pub restored_streak: usize,
    /// First check of the current restored streak — the close anchor
    /// once the streak reaches `close_after_consecutive`.
    pub restored_first: Option<Timestamp>,
    /// Per-source detection contributions: one entry per signal kind
    /// (peak confidence, earliest first-fire bin), sorted by wire tag.
    pub sources: Vec<SourceContribution>,
}

impl Incident {
    /// An incident opening at `scope` with nothing absorbed yet: `started`
    /// may backdate the bin `now` that opened it (opening hysteresis).
    fn opened(scope: OutageScope, started: Timestamp, now: Timestamp, backoff: u64) -> Incident {
        Incident {
            scope,
            started,
            prior_duration: 0,
            segment_start: started,
            oscillations: 1,
            affected_near: Vec::new(),
            affected_far: Vec::new(),
            affected_keys: Vec::new(),
            watch: Vec::new(),
            dataplane_confirmed: None,
            validation: ValidationStatus::Unvalidated,
            evidence: Vec::new(),
            completeness: 1.0,
            confidence: 0.0,
            confidence_at: now,
            next_probe: now.saturating_add(backoff),
            probe_backoff: backoff,
            probe_restored_at: None,
            restored_streak: 0,
            restored_first: None,
            sources: Vec::new(),
        }
    }

    /// `Recovering` once restoration has been observed — a probe's
    /// `Restored` verdict or a control-plane restored streak — `Open`
    /// while the epicenter is dark. The one place this rule lives.
    pub fn live_state(&self) -> IncidentState {
        if self.probe_restored_at.is_some() || self.restored_streak > 0 {
            IncidentState::Recovering
        } else {
            IncidentState::Open
        }
    }

    /// Folds judged pairs into the ledger. On a pair already present the
    /// incoming measurement replaces it only when `fresh`.
    fn merge_evidence(&mut self, add: &[HopEvidence], fresh: bool) {
        for e in add {
            match self.evidence.binary_search_by_key(&evidence_key(e), evidence_key) {
                Ok(i) if fresh => self.evidence[i] = *e,
                Ok(_) => {}
                Err(i) => self.evidence.insert(i, *e),
            }
        }
    }

    /// The report this incident closes as.
    fn into_report(self, end: Option<Timestamp>, state: IncidentState) -> OutageReport {
        OutageReport {
            scope: self.scope,
            start: self.started,
            end,
            affected_near: self.affected_near.into_iter().collect(),
            affected_far: self.affected_far.into_iter().collect(),
            affected_paths: self.affected_keys.len(),
            oscillations: self.oscillations,
            dataplane_confirmed: self.dataplane_confirmed,
            validation: self.validation,
            probe_evidence: self.evidence,
            probe_completeness: self.completeness,
            state,
            sources: self.sources,
        }
    }
}

/// A live incident plus its watch list in dense-id space — restoration
/// checks run every bin, so they must not touch fat keys.
#[derive(Debug)]
struct Ongoing {
    inc: Incident,
    /// `inc.watch`, interned: same crossings, same order.
    watch: Vec<(RouteId, PopId, AsnId)>,
}

/// Tracks ongoing and closed outages. The lifecycle tables are ordered
/// by scope, so every walk over them — merge targets, probe order, the
/// order expiring incidents finish in, exports — is the same in every
/// process; the geography maps are lookup-only.
#[derive(Debug, Default)]
pub struct Tracker {
    config: KeplerConfig,
    ongoing: BTreeMap<OutageScope, Ongoing>,
    /// Closed segments waiting for possible oscillation-reopen: scope →
    /// (closed report, end time).
    cooling: BTreeMap<OutageScope, (OutageReport, u64 /* accumulated duration */)>,
    finished: Vec<OutageReport>,
    /// Facility → city, for cross-scope incident reconciliation.
    fac_city: HashMap<u32, CityId>,
    /// IXP → city.
    ixp_city: HashMap<u32, CityId>,
    /// Opening hysteresis state: scope → (consecutive signal bins so
    /// far, last bin seen, first bin of the streak). Only populated when
    /// `open_after_consecutive > 1`.
    warming: BTreeMap<OutageScope, (usize, Timestamp, Timestamp)>,
    revision: u64,
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

    /// The key in `map` an incident at `scope` merges into: the exact
    /// scope first, then the smallest related scope (same city). Scopes
    /// order Facility < Ixp < City, so the sharpest one wins.
    fn merge_target<V>(
        &self,
        map: &BTreeMap<OutageScope, V>,
        scope: OutageScope,
    ) -> Option<OutageScope> {
        if map.contains_key(&scope) {
            Some(scope)
        } else {
            map.keys().find(|s| self.related(s, &scope)).copied()
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

    /// The accumulated confidence of `inc`'s probe verdict at `now`,
    /// decayed by the configured half-life.
    fn decayed_confidence(&self, inc: &Incident, now: Timestamp) -> f64 {
        if inc.confidence <= 0.0 {
            return 0.0;
        }
        let half_life = self.config.evidence_half_life_secs;
        if half_life == 0 {
            return 0.0;
        }
        let age = now.saturating_sub(inc.confidence_at) as f64;
        inc.confidence * 0.5_f64.powf(age / half_life as f64)
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
        let mut best: Option<(f64, FacilityId, &Incident)> = None;
        // Candidate order (best passive score first) breaks confidence
        // ties, so attribution never depends on map iteration order.
        for &f in candidates {
            let Some(on) = self.ongoing.get(&OutageScope::Facility(f)) else { continue };
            if on.inc.validation != ValidationStatus::Confirmed {
                continue;
            }
            let c = self.decayed_confidence(&on.inc, now);
            if c < self.config.evidence_reuse_confidence {
                continue;
            }
            if best.as_ref().map(|(b, ..)| c > *b).unwrap_or(true) {
                best = Some((c, f, &on.inc));
            }
        }
        best.map(|(_, f, inc)| (f, inc.evidence.clone()))
    }

    /// Records this bin's localized incidents. Each one picks its base —
    /// the ongoing incident it belongs to, a recently closed one it
    /// reopens, or a fresh one — and is then absorbed into it. The
    /// display-typed watch crossings are interned once here; every later
    /// restoration check runs dense.
    pub fn record(
        &mut self,
        incidents: &[LocalizedIncident],
        meta: &[IncidentMeta],
        interner: &mut Interner,
    ) {
        for (inc, meta) in incidents.iter().zip(meta.iter()) {
            self.revision += 1;
            let base = match self.merge_target(&self.ongoing, inc.scope) {
                Some(key) => {
                    let mut on = self.ongoing.remove(&key).expect("target present");
                    on.inc.scope = self.merged_scope(key, inc.scope);
                    Some(on)
                }
                None => self.reopen(inc).or_else(|| self.open(inc)),
            };
            let Some(mut on) = base else { continue };
            self.absorb(&mut on, inc, meta, interner);
            // A previously separate ongoing entry under the merged scope
            // is the same incident too.
            if let Some(other) = self.ongoing.remove(&on.inc.scope) {
                self.absorb_entry(&mut on, other, inc.bin_start);
            }
            self.ongoing.insert(on.inc.scope, on);
        }
    }

    /// Oscillation: the recently closed incident of a related scope,
    /// reopened with a new segment starting at `inc`'s bin. A cooled
    /// incident older than the merge window becomes final instead.
    fn reopen(&mut self, inc: &LocalizedIncident) -> Option<Ongoing> {
        let key = self.merge_target(&self.cooling, inc.scope)?;
        let (report, acc) = self.cooling.remove(&key).expect("cooling present");
        let gap_ok = report
            .end
            .map(|e| inc.bin_start.saturating_sub(e) < self.config.merge_window_secs)
            .unwrap_or(false);
        if !gap_ok {
            self.finish_report(report);
            return None;
        }
        let scope = self.merged_scope(key, inc.scope);
        // The earlier segment's confirmation spoke about the earlier
        // failure: the reopened incident starts at confidence 0 and must
        // re-earn it before any verdict reuse.
        let inc = Incident {
            started: report.start,
            prior_duration: acc,
            oscillations: report.oscillations + 1,
            affected_near: report.affected_near.into_iter().collect(),
            affected_far: report.affected_far.into_iter().collect(),
            dataplane_confirmed: report.dataplane_confirmed,
            validation: report.validation,
            evidence: report.probe_evidence,
            completeness: report.probe_completeness,
            sources: report.sources,
            ..Incident::opened(scope, inc.bin_start, inc.bin_start, self.backoff().first())
        };
        Some(Ongoing { inc, watch: Vec::new() })
    }

    /// A brand-new incident — once the signal has recurred in
    /// `open_after_consecutive` consecutive bins (record() is only called
    /// for bins that carry signals, so "consecutive" is a bounded gap
    /// between signal bins). The start backdates to the streak's first
    /// bin. With the default threshold of 1 it opens at once.
    fn open(&mut self, inc: &LocalizedIncident) -> Option<Ongoing> {
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
                return None;
            }
            self.warming.remove(&inc.scope);
            started = first;
        }
        let inc = Incident::opened(inc.scope, started, inc.bin_start, self.backoff().first());
        Some(Ongoing { inc, watch: Vec::new() })
    }

    /// Folds one bin's localization and its validation metadata into `on`.
    fn absorb(
        &self,
        on: &mut Ongoing,
        inc: &LocalizedIncident,
        meta: &IncidentMeta,
        interner: &mut Interner,
    ) {
        on.watch.extend(inc.affected.watch.iter().map(|(k, pop, near)| {
            (interner.route_id(k), interner.pop_id(*pop), interner.asn_id(*near))
        }));
        let on = &mut on.inc;
        union(&mut on.affected_near, inc.affected.near.iter().copied());
        union(&mut on.affected_far, inc.affected.far.iter().copied());
        union(&mut on.affected_keys, inc.affected.keys.iter().copied());
        on.watch.extend(inc.affected.watch.iter().copied());
        if on.dataplane_confirmed.is_none() {
            on.dataplane_confirmed = meta.dataplane;
        }
        if on.validation == ValidationStatus::Unvalidated {
            on.validation = meta.validation;
        }
        on.completeness = on.completeness.min(meta.completeness);
        on.merge_evidence(&meta.evidence, true);
        // Attribution: an empty meta source list means the plain
        // deviation test found this bin.
        let deviation = [SourceContribution {
            kind: SignalKind::Deviation,
            confidence: 1.0,
            first_bin: inc.bin_start,
        }];
        merge_sources(
            &mut on.sources,
            if meta.sources.is_empty() { &deviation } else { &meta.sources },
        );
        if meta.validation == ValidationStatus::Confirmed && !meta.reused {
            // Freshly *measured* confirmation: the verdict is current
            // again. (A reused verdict keeps its original decay clock —
            // it adds no new measurement.)
            on.validation = ValidationStatus::Confirmed;
            on.confidence = 1.0;
            on.confidence_at = inc.bin_start;
        }
        // New signals mean the epicenter is still (or again)
        // misbehaving: any in-flight restoration streak is stale.
        on.probe_restored_at = None;
        on.restored_streak = 0;
        on.restored_first = None;
    }

    /// Folds a second ongoing entry of the same physical incident into
    /// `on`: the earlier clocks, the larger counters and the verdict with
    /// the higher confidence at `now` win; `on`'s evidence wins per pair.
    fn absorb_entry(&self, on: &mut Ongoing, other: Ongoing, now: Timestamp) {
        on.watch.extend(other.watch);
        let (on, other) = (&mut on.inc, other.inc);
        if self.decayed_confidence(&other, now) > self.decayed_confidence(on, now) {
            on.confidence = other.confidence;
            on.confidence_at = other.confidence_at;
        }
        on.next_probe = on.next_probe.min(other.next_probe);
        on.started = on.started.min(other.started);
        on.segment_start = on.segment_start.min(other.segment_start);
        on.prior_duration = on.prior_duration.max(other.prior_duration);
        on.oscillations = on.oscillations.max(other.oscillations);
        union(&mut on.affected_near, other.affected_near);
        union(&mut on.affected_far, other.affected_far);
        union(&mut on.affected_keys, other.affected_keys);
        on.watch.extend(other.watch);
        if on.validation == ValidationStatus::Unvalidated {
            on.validation = other.validation;
        }
        on.completeness = on.completeness.min(other.completeness);
        on.merge_evidence(&other.evidence, false);
        merge_sources(&mut on.sources, &other.sources);
    }

    /// Merges an auxiliary source's contribution into an already-ongoing
    /// incident of the same (or related) scope. Returns whether a live
    /// incident absorbed it — a `false` leaves the decision of whether
    /// the signal can open an incident on its own to the fusion layer.
    pub fn corroborate(&mut self, scope: OutageScope, contrib: SourceContribution) -> bool {
        match self.merge_target(&self.ongoing, scope) {
            Some(key) => {
                let on = self.ongoing.get_mut(&key).expect("target present");
                merge_sources(&mut on.inc.sources, &[contrib]);
                self.revision += 1;
                true
            }
            None => false,
        }
    }

    /// Ends `scope`'s current segment at `end`: the incident leaves the
    /// ongoing set and cools, reopenable for `merge_window_secs`.
    fn close(&mut self, scope: OutageScope, end: Timestamp) {
        let inc = self.ongoing.remove(&scope).expect("present").inc;
        let duration = inc.prior_duration + end.saturating_sub(inc.segment_start);
        let report = inc.into_report(Some(end), IncidentState::Recovering);
        self.cooling.insert(scope, (report, duration));
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
        let due: Vec<OutageScope> = self
            .ongoing
            .iter()
            .filter(|(_, on)| now >= on.inc.next_probe)
            .map(|(s, _)| *s)
            .collect();
        let mut closed = 0usize;
        for scope in due {
            self.revision += 1;
            let on = &mut self.ongoing.get_mut(&scope).expect("present").inc;
            let verdict =
                prober.check(scope.epicenter(), &on.affected_far, on.started, now).verdict;
            match (verdict, on.probe_restored_at) {
                (RestorationVerdict::Restored, Some(first)) => {
                    // Second consecutive confirmation: the outage ended
                    // when the streak began.
                    self.close(scope, first);
                    closed += 1;
                }
                (RestorationVerdict::Restored, None) => {
                    // Observe once, confirm quickly: the streak resets
                    // the backoff to its floor.
                    on.probe_restored_at = Some(now);
                    on.probe_backoff = backoff.first();
                    on.next_probe = now.saturating_add(on.probe_backoff);
                }
                (RestorationVerdict::StillDown | RestorationVerdict::Inconclusive, _) => {
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
        // How far a close may backdate to a probe's `Restored` verdict:
        // one initial-backoff window (a streak older than that would
        // already have faced — and failed — its confirming re-probe, so
        // it must be stale state from a caller that skips
        // `probe_restorations`).
        let fresh_window = self.backoff().first().saturating_add(self.config.bin_secs);
        let scopes: Vec<OutageScope> = self.ongoing.keys().copied().collect();
        for scope in scopes {
            let on = self.ongoing.get_mut(&scope).expect("present");
            let returned =
                on.watch.iter().filter(|&&(r, p, a)| monitor.route_has_crossing(r, p, a)).count();
            let restored = !on.watch.is_empty()
                && returned as f64 / on.watch.len() as f64 > self.config.restore_fraction;
            let on = &mut on.inc;
            if !restored {
                // A non-restored check breaks the closing streak: the
                // watch list dipped back below `restore_fraction`. (A dark
                // epicenter has none to break: nothing changes.)
                if on.restored_streak > 0 || on.restored_first.is_some() {
                    on.restored_streak = 0;
                    on.restored_first = None;
                    self.revision += 1;
                }
                continue;
            }
            self.revision += 1;
            // Closing hysteresis: the watch list must stay restored for
            // `close_after_consecutive` checks before the close fires
            // (threshold 1 = close immediately, the paper's behavior). A
            // flapping epicenter keeps breaking the streak and stays one
            // Open↔Recovering incident.
            on.restored_streak += 1;
            if on.restored_first.is_none() {
                on.restored_first = Some(now);
            }
            if on.restored_streak < self.config.close_after_consecutive {
                continue;
            }
            // The close anchors at the *first* restored check of the
            // streak — the later checks only confirmed it.
            let anchor = on.restored_first.unwrap_or(now).min(now);
            // If probes recently observed the data plane restored, the
            // outage ended then — BGP reconvergence lag is not downtime.
            // A single Restored verdict does not close on its own, but
            // the control plane crossing `restore_fraction` corroborates
            // it; the backdate is bounded to `fresh_window`.
            let end = on
                .probe_restored_at
                .filter(|&t| anchor.saturating_sub(t) <= fresh_window)
                .unwrap_or(anchor)
                .min(anchor);
            self.close(scope, end);
        }
        // Promote cooled incidents older than the merge window to final,
        // in scope order.
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
            self.revision += 1;
        }
    }

    /// Lifecycle states of the incidents the tracker is still holding
    /// (sorted by scope; the sort merges the two ordered tables):
    /// `Open`/`Recovering` for ongoing ones, `Recovering` for restored
    /// incidents inside the oscillation window.
    pub fn live_states(&self) -> Vec<(OutageScope, IncidentState)> {
        let mut out: Vec<(OutageScope, IncidentState)> = self
            .ongoing
            .iter()
            .map(|(s, on)| (*s, on.inc.live_state()))
            .chain(self.cooling.keys().map(|s| (*s, IncidentState::Recovering)))
            .collect();
        out.sort();
        out
    }

    /// Ends the run: ongoing outages close as ongoing (`end = None`),
    /// cooled ones become final. Leaves the tracker empty but usable for
    /// post-run inspection.
    pub fn finish(&mut self) -> Vec<OutageReport> {
        self.revision += 1;
        for (report, _) in std::mem::take(&mut self.cooling).into_values() {
            self.finish_report(report);
        }
        for on in std::mem::take(&mut self.ongoing).into_values() {
            let state = on.inc.live_state();
            self.finished.push(on.inc.into_report(None, state));
        }
        self.finished.sort_by_key(|r| (r.start, r.scope));
        std::mem::take(&mut self.finished)
    }

    /// Number of currently ongoing outages.
    pub fn ongoing_count(&self) -> usize {
        self.ongoing.len()
    }

    /// Bumped by every `&mut` path where it changes what
    /// [`export`](Self::export) returns: equal revisions, equal exports.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Exports the tracker's full lifecycle state. The tables are ordered
    /// maps, so entries come out sorted by scope and two trackers holding
    /// the same incidents export byte-identical state — the property the
    /// serve layer's WAL/snapshot recovery tests rely on.
    pub fn export(&self) -> TrackerState {
        let ongoing = self.ongoing.values().map(|on| on.inc.clone()).collect();
        let cooling = self.cooling.iter().map(|(s, (r, acc))| (*s, r.clone(), *acc)).collect();
        let warming =
            self.warming.iter().map(|(s, &(n, last, first))| (*s, n, last, first)).collect();
        TrackerState { ongoing, cooling, warming, finished: self.finished.clone() }
    }

    /// Replaces the tracker's lifecycle state with an exported image,
    /// interning each watch list into `interner` (geography and config
    /// are not part of the image — configure the tracker first). The
    /// round trip `export → import → export` is exact.
    pub fn import(&mut self, state: &TrackerState, interner: &mut Interner) {
        self.revision += 1;
        self.ongoing = state
            .ongoing
            .iter()
            .map(|inc| {
                let watch = inc
                    .watch
                    .iter()
                    .map(|(k, pop, near)| {
                        (interner.route_id(k), interner.pop_id(*pop), interner.asn_id(*near))
                    })
                    .collect();
                (inc.scope, Ongoing { inc: inc.clone(), watch })
            })
            .collect();
        self.cooling = state.cooling.iter().map(|(s, r, acc)| (*s, (r.clone(), *acc))).collect();
        self.warming =
            state.warming.iter().map(|&(s, n, last, first)| (s, (n, last, first))).collect();
        self.finished = state.finished.clone();
    }
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
    pub ongoing: Vec<Incident>,
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
    use crate::investigate::Affected;
    use kepler_bgp::Prefix;
    use kepler_bgpstream::{CollectorId, PeerId};
    use kepler_docmine::LocationTag;
    use kepler_probe::{Epicenter, PostState, RestorationReport};
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
            affected: Affected {
                near: [Asn(5)].into(),
                far: [Asn(6)].into(),
                keys: keys.iter().map(|&i| key(i)).collect(),
                watch: keys
                    .iter()
                    .map(|&i| (key(i), LocationTag::Facility(FacilityId(1)), Asn(5)))
                    .collect(),
            },
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

    /// A colocation map holding the given (facility, city) pairs.
    fn geography(pairs: &[(u32, u32)]) -> ColocationMap {
        let mut colo = ColocationMap::new();
        for &(id, city) in pairs {
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
    }

    /// `incident` under another scope.
    fn scoped(scope: OutageScope, t: u64, keys: &[u8]) -> LocalizedIncident {
        LocalizedIncident { scope, ..incident(t, keys) }
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
        t.set_geography(&geography(&[(0, 0), (1, 1), (2, 2)]));
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
            affected: Affected {
                near: [Asn(5)].into(),
                far: [Asn(6)].into(),
                keys: vec![key(0)],
                watch: vec![(key(0), LocationTag::Ixp(IxpId(3)), Asn(5))],
            },
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
    fn city_signal_is_absorbed_into_the_open_facility_incident() {
        let fac1 = OutageScope::Facility(FacilityId(1));
        let mut interner = Interner::new();
        let mut t = Tracker::new(KeplerConfig::default());
        t.set_geography(&geography(&[(0, 9), (1, 0), (2, 0)]));
        t.record(&[incident(1000, &[0, 1])], &[IncidentMeta::default()], &mut interner);
        // The city-level shadow of the same failure corroborates the
        // sharper scope instead of opening a second incident.
        t.record(
            &[scoped(OutageScope::City(CityId(0)), 1060, &[2])],
            &[IncidentMeta { completeness: 0.5, ..IncidentMeta::default() }],
            &mut interner,
        );
        assert_eq!(t.live_states(), vec![(fac1, IncidentState::Open)]);
        let state = t.export();
        let on = &state.ongoing[0];
        assert_eq!((on.scope, on.started, on.oscillations), (fac1, 1000, 1));
        assert_eq!((on.affected_keys.len(), on.watch.len()), (3, 3));
        assert_eq!(on.completeness, 0.5);
        // An unrelated city stays its own incident.
        t.record(
            &[scoped(OutageScope::City(CityId(7)), 1120, &[3])],
            &[IncidentMeta::default()],
            &mut interner,
        );
        assert_eq!(t.ongoing_count(), 2);
    }

    #[test]
    fn two_facilities_of_one_city_abstract_to_the_city_and_absorb_its_entry() {
        let city = OutageScope::City(CityId(0));
        let first = KeplerConfig::default().restore_probe_initial_secs;
        let mut interner = Interner::new();
        let mut t = Tracker::new(KeplerConfig::default());
        // Before geography is loaded the two scopes are unrelated. The
        // city entry oscillates once and reopens probe-confirmed.
        t.record(&[scoped(city, 400, &[4, 5])], &[IncidentMeta::default()], &mut interner);
        t.check_restorations(500, &monitor_with(&mut interner, &[4, 5]));
        t.record(
            &[scoped(city, 600, &[4])],
            &[confirmed_meta(vec![
                HopEvidence { post: PostState::Unreachable, ..hop_evidence(900, 20) },
                hop_evidence(901, 21),
            ])],
            &mut interner,
        );
        t.record(
            &[incident(1000, &[0, 1])],
            &[IncidentMeta { evidence: vec![hop_evidence(900, 20)], ..IncidentMeta::default() }],
            &mut interner,
        );
        assert_eq!(t.ongoing_count(), 2);
        t.set_geography(&geography(&[(0, 9), (1, 0), (2, 0)]));
        // A signal at a second facility of the city relates to both
        // entries; the smallest related scope, the facility entry, takes
        // it. Facility 1 + facility 2 abstract to the city, whose separate
        // entry is the same incident.
        t.record(
            &[scoped(OutageScope::Facility(FacilityId(2)), 2000, &[2])],
            &[IncidentMeta::default()],
            &mut interner,
        );
        let state = t.export();
        let scopes: Vec<OutageScope> = state.ongoing.iter().map(|o| o.scope).collect();
        assert_eq!(scopes, [city]);
        let on = &state.ongoing[0];
        assert_eq!((on.started, on.segment_start, on.prior_duration), (400, 600, 100));
        assert_eq!(on.oscillations, 2, "max of the two entries");
        assert_eq!(on.next_probe, 600 + first, "earliest re-probe wins");
        // A reopened segment counts only its own paths: {0, 1, 2} + {4}.
        assert_eq!((on.affected_keys.len(), on.watch.len()), (4, 4));
        assert_eq!(on.validation, ValidationStatus::Confirmed, "unvalidated adopts the other's");
        assert_eq!((on.confidence, on.confidence_at), (1.0, 600), "higher decayed confidence");
        assert_eq!(on.evidence, [hop_evidence(900, 20), hop_evidence(901, 21)], "or_insert");
    }

    #[test]
    fn cooled_incidents_expiring_in_one_bin_finish_in_scope_order() {
        let w = KeplerConfig::default().merge_window_secs;
        let mut interner = Interner::new();
        let mut t = Tracker::new(KeplerConfig::default());
        let scopes = [9, 3, 6].map(|f| OutageScope::Facility(FacilityId(f)));
        let incidents = scopes.map(|s| scoped(s, 1000, &[0, 1]));
        t.record(
            &incidents,
            &[IncidentMeta::default(), IncidentMeta::default(), IncidentMeta::default()],
            &mut interner,
        );
        t.check_restorations(2000, &monitor_with(&mut interner, &[0, 1]));
        t.check_restorations(2000 + w, &monitor_with(&mut interner, &[0, 1]));
        let finished: Vec<OutageScope> = t.export().finished.iter().map(|r| r.scope).collect();
        assert_eq!(finished, [3, 6, 9].map(|f| OutageScope::Facility(FacilityId(f))));
    }

    #[test]
    fn related_scope_reopens_from_cooling_only_inside_the_merge_window() {
        let config = KeplerConfig::default();
        let w = config.merge_window_secs;
        let fac2 = OutageScope::Facility(FacilityId(2));
        for (gap, merged) in [(3600, true), (w - 1, true), (w, false), (w + 100, false)] {
            let mut interner = Interner::new();
            let mut t = Tracker::new(config.clone());
            t.set_geography(&geography(&[(0, 9), (1, 0), (2, 0)]));
            t.record(&[incident(1000, &[0, 1])], &[IncidentMeta::default()], &mut interner);
            t.check_restorations(2000, &monitor_with(&mut interner, &[0, 1]));
            assert_eq!(t.ongoing_count(), 0);
            // The neighbouring facility fails `gap` seconds after the close.
            t.record(&[scoped(fac2, 2000 + gap, &[2])], &[IncidentMeta::default()], &mut interner);
            assert_eq!(t.ongoing_count(), 1);
            let reports = t.finish();
            if merged {
                assert_eq!(reports.len(), 1, "gap {gap}: one oscillating incident");
                let r = &reports[0];
                assert_eq!(r.scope, OutageScope::City(CityId(0)), "two facilities → their city");
                assert_eq!((r.start, r.end, r.oscillations), (1000, None, 2));
                assert_eq!(r.affected_paths, 1, "only the new segment's paths are counted");
            } else {
                assert_eq!(reports.len(), 2, "gap {gap}: the cooled incident is final");
                assert_eq!((reports[0].start, reports[0].end), (1000, Some(2000)));
                assert_eq!(reports[0].state, IncidentState::Closed);
                assert_eq!((reports[1].scope, reports[1].oscillations), (fac2, 1));
                assert_eq!(reports[1].state, IncidentState::Open);
            }
        }
    }

    #[test]
    fn revision_moves_iff_the_export_changes() {
        enum Op {
            Record(Vec<LocalizedIncident>),
            Corroborate(u32),
            Probe(Timestamp),
            /// `check_restorations` at a time, over the watched keys the
            /// monitor sees back.
            Check(Timestamp, &'static [u8]),
            Finish,
            Import,
        }
        let config = KeplerConfig::default().with_hysteresis(1, 2);
        let first = config.restore_probe_initial_secs;
        let window = config.merge_window_secs;
        // One incident's life, every mutating entry point on the way:
        // (what happens, the call, whether exported state changes).
        let table = [
            ("a bin without incidents", Op::Record(vec![]), false),
            ("an incident opens", Op::Record(vec![incident(1000, &[0, 1])]), true),
            ("corroboration finds no incident", Op::Corroborate(9), false),
            ("corroboration lands", Op::Corroborate(1), true),
            ("no re-probe is due", Op::Probe(1000 + first - 1), false),
            ("a due re-probe moves the schedule", Op::Probe(1000 + first), true),
            ("a dark epicenter has no streak to break", Op::Check(2000, &[]), false),
            ("a restored check starts the streak", Op::Check(2060, &[0, 1]), true),
            ("a dip breaks it", Op::Check(2120, &[]), true),
            ("dark again", Op::Check(2180, &[]), false),
            ("restored once", Op::Check(2240, &[0, 1]), true),
            ("restored twice: the incident closes", Op::Check(2300, &[0, 1]), true),
            ("cooling inside the merge window", Op::Check(2360, &[0, 1]), false),
            ("the merge window expires", Op::Check(2240 + window, &[0, 1]), true),
            ("the run finishes", Op::Finish, true),
            ("an image is imported", Op::Import, true),
        ];
        let mut interner = Interner::new();
        let mut t = Tracker::new(config);
        let mut prober = ScriptedRestoration::new(vec![]); // always StillDown
        let mut image = TrackerState::default();
        for (what, op, changes) in table {
            let (revision, before) = (t.revision(), t.export());
            match op {
                Op::Record(incidents) => {
                    let meta = vec![IncidentMeta::default(); incidents.len()];
                    t.record(&incidents, &meta, &mut interner);
                    image = t.export();
                }
                Op::Corroborate(fac) => {
                    let contrib = SourceContribution {
                        kind: SignalKind::Forecast,
                        confidence: 0.5,
                        first_bin: 1000,
                    };
                    let hit = t.corroborate(OutageScope::Facility(FacilityId(fac)), contrib);
                    assert_eq!(hit, changes, "{what}");
                }
                Op::Probe(now) => drop(t.probe_restorations(now, &mut prober)),
                Op::Check(now, back) => {
                    t.check_restorations(now, &monitor_with(&mut interner, back))
                }
                Op::Finish => assert_eq!(t.finish().len(), 1, "{what}"),
                Op::Import => t.import(&image, &mut interner),
            }
            assert_eq!(t.export() != before, changes, "{what}: the table's own claim");
            assert_eq!(t.revision() != revision, changes, "{what}");
        }
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
        let exported = t.export();
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
        assert_eq!(t2.export(), exported);
        assert_eq!(t2.ongoing_count(), t.ongoing_count());
        assert_eq!(t2.live_states(), t.live_states());
        assert_eq!(
            t2.accumulated_confirmation(&[FacilityId(1)], 1100).map(|(f, _)| f),
            Some(FacilityId(1)),
            "imported evidence ledger stays usable"
        );
    }
}
