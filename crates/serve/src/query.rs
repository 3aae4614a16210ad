//! The O(1) query surface: an immutable status view swapped atomically
//! behind readers.
//!
//! The daemon publishes a [`StatusView`] once per committed bin through
//! a [`ViewCell`] — an ArcSwap-shaped cell (a `RwLock` held only long
//! enough to clone an `Arc`). The scope map is rebuilt only by a bin
//! that changed incident state; a bin that changed nothing republishes
//! the same map under its own `as_of`/`seq`. Readers call
//! [`ViewCell::load`] and get an immutable snapshot: no lock is held
//! while they read, a million concurrent status queries never contend
//! with ingest, and a query observes one consistent bin, never a
//! half-committed transition.

use kepler_bgpstream::Timestamp;
use kepler_core::events::{IncidentState, OutageReport, OutageScope, ValidationStatus};
use kepler_core::tracker::{Incident, TrackerState};
use kepler_topology::{CityId, FacilityId, IxpId};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// The queryable status of one scope.
#[derive(Debug, Clone, PartialEq)]
pub struct ScopeStatus {
    /// The scope.
    pub scope: OutageScope,
    /// Lifecycle state (`Closed` = most recent incident there is over).
    pub state: IncidentState,
    /// When the incident opened.
    pub started: Timestamp,
    /// When it ended (`None` while live).
    pub end: Option<Timestamp>,
    /// Probe verdict.
    pub validation: ValidationStatus,
    /// Oscillation segments.
    pub oscillations: usize,
    /// Near-end ASes affected.
    pub affected_near: usize,
    /// Far-end ASes affected.
    pub affected_far: usize,
}

impl ScopeStatus {
    /// The status a closed report gives its scope: `Closed` once
    /// finished, `Recovering` while it cools.
    fn of_report(r: &OutageReport, state: IncidentState) -> ScopeStatus {
        ScopeStatus {
            scope: r.scope,
            state,
            started: r.start,
            end: r.end,
            validation: r.validation,
            oscillations: r.oscillations,
            affected_near: r.affected_near.len(),
            affected_far: r.affected_far.len(),
        }
    }

    /// The status of a live incident.
    fn of_incident(o: &Incident) -> ScopeStatus {
        ScopeStatus {
            scope: o.scope,
            state: o.live_state(),
            started: o.started,
            end: None,
            validation: o.validation,
            oscillations: o.oscillations,
            affected_near: o.affected_near.len(),
            affected_far: o.affected_far.len(),
        }
    }
}

/// An immutable point-in-time map of every known scope's status.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct StatusView {
    /// End of the bin this view reflects.
    pub as_of: Timestamp,
    /// Commit sequence this view reflects.
    pub seq: u64,
    /// Shared, so a clone under new stamps is a pointer copy.
    scopes: Arc<HashMap<OutageScope, ScopeStatus>>,
}

impl StatusView {
    /// Builds a view from a recovered/committed tracker state. Layering
    /// order is finished → cooling → ongoing, so a scope that closed once
    /// and reopened reads as its **live** incident.
    pub fn from_state(state: &TrackerState, as_of: Timestamp, seq: u64) -> StatusView {
        let finished =
            state.finished.iter().map(|r| ScopeStatus::of_report(r, IncidentState::Closed));
        let cooling = state
            .cooling
            .iter()
            .map(|(_, r, _)| ScopeStatus::of_report(r, IncidentState::Recovering));
        let ongoing = state.ongoing.iter().map(ScopeStatus::of_incident);
        let scopes = finished.chain(cooling).chain(ongoing).map(|s| (s.scope, s)).collect();
        StatusView { as_of, seq, scopes: Arc::new(scopes) }
    }

    /// The status of `scope` — a single hash lookup.
    pub fn status(&self, scope: OutageScope) -> Option<&ScopeStatus> {
        self.scopes.get(&scope)
    }

    /// Facility shorthand for [`status`](Self::status).
    pub fn facility(&self, id: u32) -> Option<&ScopeStatus> {
        self.status(OutageScope::Facility(FacilityId(id)))
    }

    /// IXP shorthand for [`status`](Self::status).
    pub fn ixp(&self, id: u32) -> Option<&ScopeStatus> {
        self.status(OutageScope::Ixp(IxpId(id)))
    }

    /// City shorthand for [`status`](Self::status).
    pub fn city(&self, id: u32) -> Option<&ScopeStatus> {
        self.status(OutageScope::City(CityId(id)))
    }

    /// Whether `scope` has a live (non-closed) incident.
    pub fn is_down(&self, scope: OutageScope) -> bool {
        self.status(scope).map(|s| s.state != IncidentState::Closed).unwrap_or(false)
    }

    /// Every known scope's status, sorted by scope (stable output for
    /// the CLI and tests).
    pub fn all(&self) -> Vec<&ScopeStatus> {
        let mut v: Vec<&ScopeStatus> = self.scopes.values().collect();
        v.sort_by_key(|s| s.scope);
        v
    }

    /// Live (Open/Recovering) scopes only, sorted.
    pub fn live(&self) -> Vec<&ScopeStatus> {
        let mut v: Vec<&ScopeStatus> =
            self.scopes.values().filter(|s| s.state != IncidentState::Closed).collect();
        v.sort_by_key(|s| s.scope);
        v
    }

    /// Number of scopes tracked.
    pub fn len(&self) -> usize {
        self.scopes.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.scopes.is_empty()
    }
}

/// An atomically swappable shared view (ArcSwap shape on std: the write
/// lock is held only to swap the `Arc`, the read lock only to clone it;
/// readers never block each other and never hold a lock while reading
/// the view itself).
#[derive(Debug, Default)]
pub struct ViewCell {
    inner: RwLock<Arc<StatusView>>,
}

impl ViewCell {
    /// A cell holding `view`.
    pub fn new(view: StatusView) -> ViewCell {
        ViewCell { inner: RwLock::new(Arc::new(view)) }
    }

    /// Loads the current view — O(1): one read-lock acquisition and one
    /// `Arc` clone, independent of view size.
    pub fn load(&self) -> Arc<StatusView> {
        self.inner.read().expect("view lock poisoned").clone()
    }

    /// Publishes a new view, atomically replacing the old one. In-flight
    /// readers keep their snapshot.
    pub fn store(&self, view: StatusView) {
        *self.inner.write().expect("view lock poisoned") = Arc::new(view);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kepler_bgp::Asn;

    fn report(fac: u32, start: u64, end: Option<u64>) -> OutageReport {
        OutageReport {
            scope: OutageScope::Facility(FacilityId(fac)),
            start,
            end,
            affected_near: [Asn(5)].into(),
            affected_far: [Asn(6), Asn(7)].into(),
            affected_paths: 3,
            oscillations: 1,
            dataplane_confirmed: None,
            validation: ValidationStatus::Confirmed,
            probe_evidence: Vec::new(),
            probe_completeness: 1.0,
            state: IncidentState::Closed,
            sources: Vec::new(),
        }
    }

    fn ongoing(fac: u32, started: u64) -> Incident {
        Incident {
            scope: OutageScope::Facility(FacilityId(fac)),
            started,
            prior_duration: 0,
            segment_start: started,
            oscillations: 2,
            affected_near: vec![Asn(5)],
            affected_far: vec![Asn(6)],
            affected_keys: Vec::new(),
            watch: Vec::new(),
            dataplane_confirmed: None,
            validation: ValidationStatus::Unvalidated,
            evidence: Vec::new(),
            completeness: 1.0,
            confidence: 0.0,
            confidence_at: started,
            next_probe: started + 60,
            probe_backoff: 60,
            probe_restored_at: None,
            restored_streak: 0,
            restored_first: None,
            sources: Vec::new(),
        }
    }

    #[test]
    fn layering_prefers_the_live_incident() {
        let state = TrackerState {
            ongoing: vec![ongoing(1, 900)],
            cooling: vec![(OutageScope::Facility(FacilityId(2)), report(2, 100, Some(500)), 600)],
            warming: Vec::new(),
            // Facility 1 closed once at 100..200, then reopened at 900.
            finished: vec![report(1, 100, Some(200)), report(3, 50, Some(80))],
        };
        let view = StatusView::from_state(&state, 1_200, 4);
        assert_eq!(view.len(), 3);
        let f1 = view.facility(1).unwrap();
        assert_eq!(f1.state, IncidentState::Open, "live incident shadows the closed one");
        assert_eq!(f1.started, 900);
        assert_eq!(view.facility(2).unwrap().state, IncidentState::Recovering);
        assert_eq!(view.facility(3).unwrap().state, IncidentState::Closed);
        assert!(view.is_down(OutageScope::Facility(FacilityId(1))));
        assert!(view.is_down(OutageScope::Facility(FacilityId(2))));
        assert!(!view.is_down(OutageScope::Facility(FacilityId(3))));
        assert!(!view.is_down(OutageScope::Facility(FacilityId(99))));
        assert_eq!(view.live().len(), 2);
        assert_eq!(view.all().len(), 3);
    }

    #[test]
    fn readers_keep_their_snapshot_across_a_swap() {
        let cell = ViewCell::new(StatusView::from_state(
            &TrackerState { ongoing: vec![ongoing(1, 100)], ..TrackerState::default() },
            300,
            1,
        ));
        let before = cell.load();
        cell.store(StatusView::from_state(&TrackerState::default(), 600, 2));
        assert_eq!(before.seq, 1, "in-flight reader unaffected by the swap");
        assert!(before.facility(1).is_some());
        let after = cell.load();
        assert_eq!(after.seq, 2);
        assert!(after.is_empty());
    }

    #[test]
    fn concurrent_readers_see_consistent_views() {
        let cell = Arc::new(ViewCell::new(StatusView::default()));
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    let cell = Arc::clone(&cell);
                    s.spawn(move || {
                        for _ in 0..10_000 {
                            let v = cell.load();
                            // seq and as_of always travel together: a view
                            // is immutable once published.
                            assert_eq!(v.as_of, v.seq * 300);
                        }
                    })
                })
                .collect();
            for seq in 1..=50u64 {
                cell.store(StatusView { as_of: seq * 300, seq, ..StatusView::default() });
            }
            for r in readers {
                r.join().unwrap();
            }
        });
    }
}
