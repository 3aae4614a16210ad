//! The lifecycle reference: what [`Tracker`](kepler_core::tracker::Tracker)
//! must hold, export and report after any sequence of calls, transcribed
//! from ARCHITECTURE.md's "The incident lifecycle" (paper §4.4) and
//! sharing no code with `kepler_core::tracker`. Its tables are
//! `BTreeMap`s keyed by scope; it builds [`TrackerState`], [`Incident`]
//! and [`OutageReport`] only as data, reads the colocation map only
//! through its getters and spells out its own constants. The rules:
//!
//! 1. **Relation and join.** Two scopes relate when they are equal or sit
//!    in the same known city. A join keeps equal scopes, lets a sharp
//!    scope absorb a city (`City(c) ⊔ Facility(h) = Facility(h)`), and
//!    abstracts two distinct physical scopes to their city.
//! 2. **Base.** Each localization of a bin joins the ongoing incident at
//!    its scope, else the first (sharpest) related one. Failing that it
//!    reopens the cooling incident at its scope or the first related one,
//!    when it closed less than 12 h before the bin (an older one becomes
//!    final and the localization opens fresh). A fresh incident opens
//!    only once its scope has signaled in `open_after_consecutive`
//!    consecutive bins: a re-localized bin does not count twice, a gap of
//!    more than two bins restarts the streak, and the start backdates to
//!    the streak's first bin.
//! 3. **Absorb.** A bin's evidence unites into the base: AS and key sets,
//!    the watch list appended, the first data-plane and non-`Unvalidated`
//!    verdicts kept, completeness minimized, fresh hop evidence replacing
//!    a pair, sources merged per kind (peak confidence, first bin; the
//!    plain deviation test when the bin names none). A freshly measured
//!    confirmation confirms the incident and restarts the confidence
//!    clock at 1.0; a reused one restarts nothing. New signals
//!    reset every restoration streak. A second ongoing entry under the
//!    joined scope folds in after by the same rules: earlier clocks,
//!    larger counters, the first data-plane and non-`Unvalidated`
//!    verdicts kept, the confidence higher once decayed, its evidence
//!    only for new pairs; the re-probe due first brings its backoff.
//! 4. **Probes.** A due incident (in scope order) is re-probed. A first
//!    `Restored` marks it recovering and re-probes after 300 s; a second
//!    closes it at the first one's time. `StillDown` and `Inconclusive`
//!    break the streak and double the delay, from 300 s up to 3,600 s.
//! 5. **Checks.** At each check an incident whose watch list is more than
//!    `restore_fraction` back extends its restored streak (anchored at
//!    its first check) and closes after `close_after_consecutive` checks,
//!    backdated to a `Restored` probe no older than 300 s plus a bin.
//!    Any other check breaks the streak. Then cooling incidents closed
//!    12 h or more ago become final in scope order, and opening streaks
//!    last extended more than two bins ago are dropped.
//! 6. **Closing and finishing.** A closed incident cools as a
//!    `Recovering` report with its accumulated downtime. `finish` makes
//!    every cooling report final, reports every ongoing incident as
//!    still open (`end = None`, in its live state), drops the opening
//!    streaks and returns every final report ordered by (start, scope).
//! 7. **Reads.** The live set is every cooling scope `Recovering`, then
//!    every ongoing scope `Recovering` once restoration was observed and
//!    `Open` otherwise, an ongoing entry shadowing a cooling one. Evidence
//!    reuse returns the first candidate facility whose ongoing incident is
//!    confirmed with a confidence, halving every 1,800 s, of at least 0.5
//!    and strictly above any earlier candidate's.

use kepler_bgp::Asn;
use kepler_bgpstream::Timestamp;
use kepler_core::config::KeplerConfig;
use kepler_core::events::{IncidentState, OutageReport, OutageScope, RouteKey, ValidationStatus};
use kepler_core::investigate::LocalizedIncident;
use kepler_core::signal::{SignalKind, SourceContribution};
use kepler_core::tracker::{Incident, IncidentMeta, TrackerState};
use kepler_docmine::LocationTag;
use kepler_probe::{HopEvidence, RestorationProber, RestorationVerdict};
use kepler_topology::{CityId, ColocationMap, FacilityId};
use std::collections::{BTreeMap, BTreeSet};

/// Two outages of one scope closer than this are one incident: 12 h.
const MERGE_WINDOW: u64 = 12 * 3600;
/// Accumulated probe confidence halves every 30 min.
const HALF_LIFE: f64 = 1_800.0;
/// Evidence is reused while its decayed confidence is at least this.
const REUSE_CONFIDENCE: f64 = 0.5;
/// The re-probe delay starts here and doubles up to [`BACKOFF_MAX`].
const BACKOFF_FIRST: u64 = 300;
const BACKOFF_MAX: u64 = 3_600;

/// A crossing watched for restoration: (route, PoP tag, near-end AS).
pub type Crossing = (RouteKey, LocationTag, Asn);

/// One live incident, its sets kept as sets.
#[derive(Debug, Clone)]
struct Live {
    scope: OutageScope,
    started: Timestamp,
    prior_duration: u64,
    segment_start: Timestamp,
    oscillations: usize,
    near: BTreeSet<Asn>,
    far: BTreeSet<Asn>,
    keys: BTreeSet<RouteKey>,
    watch: Vec<Crossing>,
    dataplane: Option<bool>,
    validation: ValidationStatus,
    /// Keyed by (vantage, target, facility).
    evidence: BTreeMap<(u32, u32, u32), HopEvidence>,
    completeness: f64,
    confidence: f64,
    confidence_at: Timestamp,
    next_probe: Timestamp,
    backoff: u64,
    probe_restored_at: Option<Timestamp>,
    restored_streak: usize,
    restored_first: Option<Timestamp>,
    /// Keyed by the kind's wire tag.
    sources: BTreeMap<u8, SourceContribution>,
}

fn pair(e: &HopEvidence) -> (u32, u32, u32) {
    (e.vantage.0, e.target.0, e.facility.0)
}

/// Rule 3's per-kind merge: peak confidence, earliest first bin.
fn merge_source(sources: &mut BTreeMap<u8, SourceContribution>, c: SourceContribution) {
    match sources.get_mut(&c.kind.tag()) {
        Some(s) => {
            s.confidence = s.confidence.max(c.confidence);
            s.first_bin = s.first_bin.min(c.first_bin);
        }
        None => {
            sources.insert(c.kind.tag(), c);
        }
    }
}

impl Live {
    /// A fresh incident at `scope`, started at `started`, opened in the
    /// bin `now`.
    fn opened(scope: OutageScope, started: Timestamp, now: Timestamp) -> Live {
        Live {
            scope,
            started,
            prior_duration: 0,
            segment_start: started,
            oscillations: 1,
            near: BTreeSet::new(),
            far: BTreeSet::new(),
            keys: BTreeSet::new(),
            watch: Vec::new(),
            dataplane: None,
            validation: ValidationStatus::Unvalidated,
            evidence: BTreeMap::new(),
            completeness: 1.0,
            confidence: 0.0,
            confidence_at: now,
            next_probe: now.saturating_add(BACKOFF_FIRST),
            backoff: BACKOFF_FIRST,
            probe_restored_at: None,
            restored_streak: 0,
            restored_first: None,
            sources: BTreeMap::new(),
        }
    }

    fn decayed(&self, now: Timestamp) -> f64 {
        if self.confidence <= 0.0 {
            return 0.0;
        }
        let age = now.saturating_sub(self.confidence_at) as f64;
        self.confidence * 0.5_f64.powf(age / HALF_LIFE)
    }

    /// Rule 7: recovering once restoration was observed.
    fn state(&self) -> IncidentState {
        if self.probe_restored_at.is_some() || self.restored_streak > 0 {
            IncidentState::Recovering
        } else {
            IncidentState::Open
        }
    }

    fn report(&self, end: Option<Timestamp>, state: IncidentState) -> OutageReport {
        OutageReport {
            scope: self.scope,
            start: self.started,
            end,
            affected_near: self.near.clone(),
            affected_far: self.far.clone(),
            affected_paths: self.keys.len(),
            oscillations: self.oscillations,
            dataplane_confirmed: self.dataplane,
            validation: self.validation,
            probe_evidence: self.evidence.values().copied().collect(),
            probe_completeness: self.completeness,
            state,
            sources: self.sources.values().copied().collect(),
        }
    }

    fn incident(&self) -> Incident {
        Incident {
            scope: self.scope,
            started: self.started,
            prior_duration: self.prior_duration,
            segment_start: self.segment_start,
            oscillations: self.oscillations,
            affected_near: self.near.iter().copied().collect(),
            affected_far: self.far.iter().copied().collect(),
            affected_keys: self.keys.iter().copied().collect(),
            watch: self.watch.clone(),
            dataplane_confirmed: self.dataplane,
            validation: self.validation,
            evidence: self.evidence.values().copied().collect(),
            completeness: self.completeness,
            confidence: self.confidence,
            confidence_at: self.confidence_at,
            next_probe: self.next_probe,
            probe_backoff: self.backoff,
            probe_restored_at: self.probe_restored_at,
            restored_streak: self.restored_streak,
            restored_first: self.restored_first,
            sources: self.sources.values().copied().collect(),
        }
    }

    fn of_incident(i: &Incident) -> Live {
        Live {
            scope: i.scope,
            started: i.started,
            prior_duration: i.prior_duration,
            segment_start: i.segment_start,
            oscillations: i.oscillations,
            near: i.affected_near.iter().copied().collect(),
            far: i.affected_far.iter().copied().collect(),
            keys: i.affected_keys.iter().copied().collect(),
            watch: i.watch.clone(),
            dataplane: i.dataplane_confirmed,
            validation: i.validation,
            evidence: i.evidence.iter().map(|e| (pair(e), *e)).collect(),
            completeness: i.completeness,
            confidence: i.confidence,
            confidence_at: i.confidence_at,
            next_probe: i.next_probe,
            backoff: i.probe_backoff,
            probe_restored_at: i.probe_restored_at,
            restored_streak: i.restored_streak,
            restored_first: i.restored_first,
            sources: i.sources.iter().map(|s| (s.kind.tag(), *s)).collect(),
        }
    }

    /// Rule 3, one bin.
    fn absorb(&mut self, loc: &LocalizedIncident, meta: &IncidentMeta) {
        self.watch.extend(loc.affected.watch.iter().copied());
        self.near.extend(loc.affected.near.iter().copied());
        self.far.extend(loc.affected.far.iter().copied());
        self.keys.extend(loc.affected.keys.iter().copied());
        if self.dataplane.is_none() {
            self.dataplane = meta.dataplane;
        }
        if self.validation == ValidationStatus::Unvalidated {
            self.validation = meta.validation;
        }
        self.completeness = self.completeness.min(meta.completeness);
        for e in &meta.evidence {
            self.evidence.insert(pair(e), *e);
        }
        if meta.sources.is_empty() {
            let deviation = SourceContribution {
                kind: SignalKind::Deviation,
                confidence: 1.0,
                first_bin: loc.bin_start,
            };
            merge_source(&mut self.sources, deviation);
        }
        for c in &meta.sources {
            merge_source(&mut self.sources, *c);
        }
        if meta.validation == ValidationStatus::Confirmed && !meta.reused {
            self.validation = ValidationStatus::Confirmed;
            self.confidence = 1.0;
            self.confidence_at = loc.bin_start;
        }
        self.probe_restored_at = None;
        self.restored_streak = 0;
        self.restored_first = None;
    }

    /// Rule 3, a second entry of the same incident.
    fn absorb_entry(&mut self, other: Live, now: Timestamp) {
        self.watch.extend(other.watch.iter().copied());
        if other.decayed(now) > self.decayed(now) {
            self.confidence = other.confidence;
            self.confidence_at = other.confidence_at;
        }
        if other.next_probe < self.next_probe {
            self.next_probe = other.next_probe;
            self.backoff = other.backoff;
        }
        self.started = self.started.min(other.started);
        self.segment_start = self.segment_start.min(other.segment_start);
        self.prior_duration = self.prior_duration.max(other.prior_duration);
        self.oscillations = self.oscillations.max(other.oscillations);
        self.near.extend(other.near);
        self.far.extend(other.far);
        self.keys.extend(other.keys);
        if self.dataplane.is_none() {
            self.dataplane = other.dataplane;
        }
        if self.validation == ValidationStatus::Unvalidated {
            self.validation = other.validation;
        }
        self.completeness = self.completeness.min(other.completeness);
        for (k, e) in other.evidence {
            self.evidence.entry(k).or_insert(e);
        }
        for c in other.sources.into_values() {
            merge_source(&mut self.sources, c);
        }
    }
}

/// The lifecycle model.
pub struct ModelTracker {
    open_after: usize,
    close_after: usize,
    bin_secs: u64,
    restore_fraction: f64,
    ongoing: BTreeMap<OutageScope, Live>,
    /// Scope → (the report it closed as, accumulated downtime).
    cooling: BTreeMap<OutageScope, (OutageReport, u64)>,
    /// Scope → (streak, last bin, first bin).
    warming: BTreeMap<OutageScope, (usize, Timestamp, Timestamp)>,
    finished: Vec<OutageReport>,
}

impl ModelTracker {
    pub fn new(config: &KeplerConfig) -> ModelTracker {
        ModelTracker {
            open_after: config.open_after_consecutive,
            close_after: config.close_after_consecutive,
            bin_secs: config.bin_secs,
            restore_fraction: config.restore_fraction,
            ongoing: BTreeMap::new(),
            cooling: BTreeMap::new(),
            warming: BTreeMap::new(),
            finished: Vec::new(),
        }
    }

    fn city(scope: OutageScope, colo: &ColocationMap) -> Option<CityId> {
        match scope {
            OutageScope::Facility(f) => colo.facility(f).map(|f| f.city),
            OutageScope::Ixp(x) => colo.ixp(x).map(|x| x.city),
            OutageScope::City(c) => Some(c),
        }
    }

    /// Rule 1.
    fn related(a: OutageScope, b: OutageScope, colo: &ColocationMap) -> bool {
        if a == b {
            return true;
        }
        match (Self::city(a, colo), Self::city(b, colo)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Rule 1.
    fn join(a: OutageScope, b: OutageScope, colo: &ColocationMap) -> OutageScope {
        match (a, b) {
            _ if a == b => a,
            (OutageScope::City(_), sharp) | (sharp, OutageScope::City(_)) => sharp,
            _ => match Self::city(a, colo) {
                Some(c) => OutageScope::City(c),
                None => a,
            },
        }
    }

    /// The exact scope if held, else the first related one.
    fn target(
        held: Vec<OutageScope>,
        scope: OutageScope,
        colo: &ColocationMap,
    ) -> Option<OutageScope> {
        if held.contains(&scope) {
            return Some(scope);
        }
        held.into_iter().find(|&s| Self::related(s, scope, colo))
    }

    fn finalize(&mut self, scope: OutageScope) {
        let (mut report, _) = self.cooling.remove(&scope).unwrap();
        report.state = IncidentState::Closed;
        self.finished.push(report);
    }

    /// Rule 2: the base a localization joins, if it opens one.
    fn base(&mut self, loc: &LocalizedIncident, colo: &ColocationMap) -> Option<Live> {
        let ongoing = self.ongoing.keys().copied().collect();
        if let Some(key) = Self::target(ongoing, loc.scope, colo) {
            let mut live = self.ongoing.remove(&key).unwrap();
            live.scope = Self::join(key, loc.scope, colo);
            return Some(live);
        }
        let cooling = self.cooling.keys().copied().collect();
        if let Some(key) = Self::target(cooling, loc.scope, colo) {
            let (report, downtime) = self.cooling[&key].clone();
            let recent = match report.end {
                Some(end) => loc.bin_start.saturating_sub(end) < MERGE_WINDOW,
                None => false,
            };
            if recent {
                self.cooling.remove(&key);
                let scope = Self::join(key, loc.scope, colo);
                let mut live = Live::opened(scope, loc.bin_start, loc.bin_start);
                live.started = report.start;
                live.prior_duration = downtime;
                live.oscillations = report.oscillations + 1;
                live.near = report.affected_near;
                live.far = report.affected_far;
                live.dataplane = report.dataplane_confirmed;
                live.validation = report.validation;
                live.evidence = report.probe_evidence.iter().map(|e| (pair(e), *e)).collect();
                live.completeness = report.probe_completeness;
                live.sources = report.sources.iter().map(|s| (s.kind.tag(), *s)).collect();
                return Some(live);
            }
            self.finalize(key);
        }
        let mut started = loc.bin_start;
        if self.open_after > 1 {
            let (streak, first) = match self.warming.get(&loc.scope) {
                Some(&(n, last, first)) if loc.bin_start == last => (n, first),
                Some(&(n, last, first))
                    if loc.bin_start > last && loc.bin_start - last <= 2 * self.bin_secs =>
                {
                    (n + 1, first)
                }
                _ => (1, loc.bin_start),
            };
            if streak < self.open_after {
                self.warming.insert(loc.scope, (streak, loc.bin_start, first));
                return None;
            }
            self.warming.remove(&loc.scope);
            started = first;
        }
        Some(Live::opened(loc.scope, started, loc.bin_start))
    }

    pub fn record(
        &mut self,
        localized: &[LocalizedIncident],
        meta: &[IncidentMeta],
        colo: &ColocationMap,
    ) {
        for (loc, meta) in localized.iter().zip(meta) {
            let Some(mut live) = self.base(loc, colo) else { continue };
            live.absorb(loc, meta);
            if let Some(other) = self.ongoing.remove(&live.scope) {
                live.absorb_entry(other, loc.bin_start);
            }
            self.ongoing.insert(live.scope, live);
        }
    }

    pub fn corroborate(
        &mut self,
        scope: OutageScope,
        contrib: SourceContribution,
        colo: &ColocationMap,
    ) -> bool {
        let ongoing = self.ongoing.keys().copied().collect();
        match Self::target(ongoing, scope, colo) {
            Some(key) => {
                merge_source(&mut self.ongoing.get_mut(&key).unwrap().sources, contrib);
                true
            }
            None => false,
        }
    }

    /// Rule 6: the incident at `scope` cools, ended at `end`.
    fn close(&mut self, scope: OutageScope, end: Timestamp) {
        let live = self.ongoing.remove(&scope).unwrap();
        let downtime = live.prior_duration.saturating_add(end.saturating_sub(live.segment_start));
        self.cooling.insert(scope, (live.report(Some(end), IncidentState::Recovering), downtime));
    }

    /// Rule 4.
    pub fn probe_restorations(
        &mut self,
        now: Timestamp,
        prober: &mut dyn RestorationProber,
    ) -> usize {
        let due: Vec<OutageScope> =
            self.ongoing.iter().filter(|(_, l)| now >= l.next_probe).map(|(s, _)| *s).collect();
        let mut closed = 0;
        for scope in due {
            let live = self.ongoing.get_mut(&scope).unwrap();
            let far: Vec<Asn> = live.far.iter().copied().collect();
            let verdict = prober.check(scope, &far, live.started, now).verdict;
            if verdict == RestorationVerdict::Restored {
                if let Some(first) = live.probe_restored_at {
                    self.close(scope, first);
                    closed += 1;
                    continue;
                }
                live.probe_restored_at = Some(now);
                live.backoff = BACKOFF_FIRST;
            } else {
                live.probe_restored_at = None;
                live.backoff = live.backoff.saturating_mul(2).clamp(BACKOFF_FIRST, BACKOFF_MAX);
            }
            live.next_probe = now.saturating_add(live.backoff);
        }
        closed
    }

    /// Rule 5; `returned` says which watched crossings are back.
    pub fn check_restorations(&mut self, now: Timestamp, returned: impl Fn(&Crossing) -> bool) {
        let scopes: Vec<OutageScope> = self.ongoing.keys().copied().collect();
        for scope in scopes {
            let live = self.ongoing.get_mut(&scope).unwrap();
            let back = live.watch.iter().filter(|c| returned(c)).count();
            let restored = !live.watch.is_empty()
                && back as f64 / live.watch.len() as f64 > self.restore_fraction;
            if !restored {
                live.restored_streak = 0;
                live.restored_first = None;
                continue;
            }
            live.restored_streak += 1;
            let first = *live.restored_first.get_or_insert(now);
            if live.restored_streak < self.close_after {
                continue;
            }
            let anchor = first.min(now);
            let end = match live.probe_restored_at {
                Some(t) if anchor.saturating_sub(t) <= BACKOFF_FIRST + self.bin_secs => {
                    t.min(anchor)
                }
                _ => anchor,
            };
            self.close(scope, end);
        }
        let expired: Vec<OutageScope> = self
            .cooling
            .iter()
            .filter(|(_, (r, _))| match r.end {
                Some(end) => now.saturating_sub(end) >= MERGE_WINDOW,
                None => true,
            })
            .map(|(s, _)| *s)
            .collect();
        for scope in expired {
            self.finalize(scope);
        }
        let bin_secs = self.bin_secs;
        self.warming.retain(|_, &mut (_, last, _)| now.saturating_sub(last) <= 2 * bin_secs);
    }

    /// Rule 7.
    pub fn live_states(&self) -> Vec<(OutageScope, IncidentState)> {
        let mut live: BTreeMap<OutageScope, IncidentState> = BTreeMap::new();
        for scope in self.cooling.keys() {
            live.insert(*scope, IncidentState::Recovering);
        }
        for (scope, l) in &self.ongoing {
            live.insert(*scope, l.state());
        }
        live.into_iter().collect()
    }

    /// Rule 7.
    pub fn accumulated_confirmation(
        &self,
        candidates: &[FacilityId],
        now: Timestamp,
    ) -> Option<(FacilityId, Vec<HopEvidence>)> {
        let mut best: Option<(f64, FacilityId)> = None;
        for &f in candidates {
            let Some(live) = self.ongoing.get(&OutageScope::Facility(f)) else { continue };
            let c = live.decayed(now);
            if live.validation != ValidationStatus::Confirmed || c < REUSE_CONFIDENCE {
                continue;
            }
            if best.is_none_or(|(b, _)| c > b) {
                best = Some((c, f));
            }
        }
        let (_, f) = best?;
        Some((f, self.ongoing[&OutageScope::Facility(f)].evidence.values().copied().collect()))
    }

    /// Rule 6.
    pub fn finish(&mut self) -> Vec<OutageReport> {
        let cooling: Vec<OutageScope> = self.cooling.keys().copied().collect();
        for scope in cooling {
            self.finalize(scope);
        }
        for live in std::mem::take(&mut self.ongoing).into_values() {
            self.finished.push(live.report(None, live.state()));
        }
        self.warming.clear();
        self.finished.sort_by_key(|r| (r.start, r.scope));
        std::mem::take(&mut self.finished)
    }

    pub fn export(&self) -> TrackerState {
        TrackerState {
            ongoing: self.ongoing.values().map(Live::incident).collect(),
            cooling: self.cooling.iter().map(|(s, (r, d))| (*s, r.clone(), *d)).collect(),
            warming: self
                .warming
                .iter()
                .map(|(s, &(n, last, first))| (*s, n, last, first))
                .collect(),
            finished: self.finished.clone(),
        }
    }

    pub fn import(&mut self, state: &TrackerState) {
        self.ongoing = state.ongoing.iter().map(|i| (i.scope, Live::of_incident(i))).collect();
        self.cooling = state.cooling.iter().map(|(s, r, d)| (*s, (r.clone(), *d))).collect();
        self.warming =
            state.warming.iter().map(|&(s, n, last, first)| (s, (n, last, first))).collect();
        self.finished = state.finished.clone();
    }
}
