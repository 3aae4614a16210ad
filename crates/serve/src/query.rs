//! The O(1) query surface: an immutable status view swapped atomically
//! behind readers.
//!
//! The daemon publishes a [`StatusView`] once per committed bin through
//! a [`ViewCell`]. The scope map, and the sorted live set beside it, are
//! rebuilt only by a bin that changed incident state; a bin that changed
//! nothing republishes the same map under its own `as_of`/`seq`, a
//! pointer copy. Readers call [`ViewCell::load`] and get a [`ViewRef`],
//! an immutable snapshot: no lock is held while they read, and a query
//! observes one consistent bin, never a half-committed transition.
//!
//! Loads are served from a per-thread cache. Each thread keeps the view
//! it loaded last, keyed by the cell's process-unique id and the cell's
//! version, which [`ViewCell::store`] bumps after each swap. A load that
//! finds both unchanged costs one atomic load and a non-atomic reference
//! count; any other load takes the cell's read lock once and replaces the
//! thread's entry. So readers polling between publishes touch no shared
//! cache line but the version, and each thread pins at most one view
//! (its last) until it loads again or exits. Dropping a cell clears the
//! dropping thread's entry for it; another thread's entry may still pin a
//! dropped cell's last view until that thread loads from another cell or
//! exits.

use kepler_bgpstream::Timestamp;
use kepler_core::events::{IncidentState, OutageReport, OutageScope, ValidationStatus};
use kepler_core::tracker::{Incident, TrackerState};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Deref;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
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
    scopes: Arc<Scopes>,
}

/// What a view shows: every scope's status, and the live ones sorted.
#[derive(Debug, Default, PartialEq)]
struct Scopes {
    map: HashMap<OutageScope, ScopeStatus>,
    /// The Open/Recovering scopes of `map`, sorted.
    live: Box<[OutageScope]>,
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
        let map: HashMap<_, _> =
            finished.chain(cooling).chain(ongoing).map(|s| (s.scope, s)).collect();
        let mut live: Vec<OutageScope> =
            map.values().filter(|s| s.state != IncidentState::Closed).map(|s| s.scope).collect();
        live.sort_unstable();
        StatusView { as_of, seq, scopes: Arc::new(Scopes { map, live: live.into() }) }
    }

    /// The status of `scope` — a single hash lookup.
    pub fn status(&self, scope: OutageScope) -> Option<&ScopeStatus> {
        self.scopes.map.get(&scope)
    }

    /// Whether `scope` has a live (non-closed) incident — a binary search
    /// of the live set, which is empty while nothing is down.
    pub fn is_down(&self, scope: OutageScope) -> bool {
        self.scopes.live.binary_search(&scope).is_ok()
    }

    /// Every known scope's status, sorted by scope (stable output for
    /// the CLI and tests).
    pub fn all(&self) -> Vec<&ScopeStatus> {
        let mut v: Vec<&ScopeStatus> = self.scopes.map.values().collect();
        v.sort_by_key(|s| s.scope);
        v
    }

    /// Live (Open/Recovering) scopes only, sorted.
    pub fn live(&self) -> Vec<&ScopeStatus> {
        self.scopes.live.iter().map(|s| &self.scopes.map[s]).collect()
    }

    /// Number of scopes tracked.
    pub fn len(&self) -> usize {
        self.scopes.map.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.scopes.map.is_empty()
    }
}

/// An atomically swappable shared view: the write lock is held only to
/// swap the view, the read lock only to clone it, and only by a load that
/// misses its thread's cache (see the module docs).
#[derive(Debug)]
pub struct ViewCell {
    /// Process-unique, so a rebuilt cell never hits a dropped one's entry.
    id: u64,
    /// Bumped by every [`store`](Self::store), under the write lock,
    /// after the swap.
    version: AtomicU64,
    inner: RwLock<StatusView>,
}

/// The id the next [`ViewCell`] takes.
static NEXT_CELL_ID: AtomicU64 = AtomicU64::new(0);

/// A thread's last loaded view, and the cell and version it came from.
struct Cached {
    cell: u64,
    version: u64,
    view: Rc<StatusView>,
}

thread_local! {
    static LAST_LOAD: RefCell<Option<Cached>> = const { RefCell::new(None) };
}

impl Default for ViewCell {
    fn default() -> ViewCell {
        ViewCell::new(StatusView::default())
    }
}

impl ViewCell {
    /// A cell holding `view`.
    pub fn new(view: StatusView) -> ViewCell {
        let id = NEXT_CELL_ID.fetch_add(1, Ordering::Relaxed);
        ViewCell { id, version: AtomicU64::new(0), inner: RwLock::new(view) }
    }

    /// Loads the current view — O(1), independent of view size: one
    /// atomic load when this thread's last load came from this cell at
    /// this version, one read-lock acquisition otherwise.
    pub fn load(&self) -> ViewRef {
        let version = self.version.load(Ordering::Acquire);
        let cached = LAST_LOAD.try_with(|last| {
            let mut last = last.borrow_mut();
            match &*last {
                Some(c) if c.cell == self.id && c.version == version => Rc::clone(&c.view),
                _ => {
                    let (version, view) = self.locked();
                    *last = Some(Cached { cell: self.id, version, view: Rc::clone(&view) });
                    view
                }
            }
        });
        // During thread teardown the cache is gone: read through the lock.
        ViewRef(cached.unwrap_or_else(|_| self.locked().1))
    }

    /// The version and view, read together under the read lock (`store`
    /// moves both under the write lock). The `Rc` is allocated after the
    /// guard drops, so a `store` never waits on a reader's allocation.
    fn locked(&self) -> (u64, Rc<StatusView>) {
        let (version, view) = {
            let inner = self.inner.read().expect("view lock poisoned");
            (self.version.load(Ordering::Relaxed), inner.clone())
        };
        (version, Rc::new(view))
    }

    /// Publishes a new view, atomically replacing the old one. In-flight
    /// readers keep their snapshot.
    pub fn store(&self, view: StatusView) {
        let mut inner = self.inner.write().expect("view lock poisoned");
        *inner = view;
        self.version.fetch_add(1, Ordering::Release);
    }
}

impl Drop for ViewCell {
    /// Releases this thread's entry if it holds this cell's view, so a
    /// thread that drops a cell does not pin its last view.
    fn drop(&mut self) {
        let _ = LAST_LOAD.try_with(|last| {
            let mut last = last.borrow_mut();
            if last.as_ref().is_some_and(|c| c.cell == self.id) {
                *last = None;
            }
        });
    }
}

/// A loaded view: the snapshot a [`ViewCell::load`] returned, shared with
/// the loading thread's cache. It is not `Send`; load on the thread that
/// reads.
#[derive(Debug, Clone)]
pub struct ViewRef(Rc<StatusView>);

impl Deref for ViewRef {
    type Target = StatusView;

    fn deref(&self) -> &StatusView {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kepler_bgp::Asn;
    use kepler_topology::{CityId, FacilityId, IxpId};
    use proptest::prelude::*;

    fn facility(id: u32) -> OutageScope {
        OutageScope::Facility(FacilityId(id))
    }

    fn report(fac: u32, start: u64, end: Option<u64>) -> OutageReport {
        OutageReport {
            scope: facility(fac),
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
        let f1 = view.status(facility(1)).unwrap();
        assert_eq!(f1.state, IncidentState::Open, "live incident shadows the closed one");
        assert_eq!(f1.started, 900);
        assert_eq!(view.status(facility(2)).unwrap().state, IncidentState::Recovering);
        assert_eq!(view.status(facility(3)).unwrap().state, IncidentState::Closed);
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
        assert!(before.status(OutageScope::Facility(FacilityId(1))).is_some());
        let after = cell.load();
        assert_eq!(after.seq, 2);
        assert!(after.is_empty());
    }

    #[test]
    fn concurrent_readers_see_consistent_views() {
        const LAST: u64 = 50;
        let cell = Arc::new(ViewCell::new(StatusView::default()));
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    let cell = Arc::clone(&cell);
                    s.spawn(move || {
                        let mut seen = 0;
                        for _ in 0..10_000 {
                            let v = cell.load();
                            // seq and as_of always travel together: a view
                            // is immutable once published.
                            assert_eq!(v.as_of, v.seq * 300);
                            assert!(v.seq >= seen, "seq went back from {seen} to {}", v.seq);
                            seen = v.seq;
                        }
                        seen
                    })
                })
                .collect();
            let writer = s.spawn(|| {
                for seq in 1..=LAST {
                    cell.store(StatusView { as_of: seq * 300, seq, ..StatusView::default() });
                }
            });
            // This thread caches whatever view is current now ...
            let early = cell.load().seq;
            writer.join().unwrap();
            // ... and, the last store being ordered before the join, its
            // next load must see that store, not the cached view.
            assert!(early <= LAST);
            assert_eq!(cell.load().seq, LAST);
            for r in readers {
                assert!(r.join().unwrap() <= LAST);
            }
        });
    }

    /// One thread's cache holds one entry: alternating cells evicts it on
    /// every load, and each load still returns its own cell's view. A
    /// cell rebuilt after a drop (the allocator may hand back the same
    /// address, and the version restarts) never returns the old view.
    #[test]
    fn cached_loads_tell_cells_apart() {
        let stamped = |seq| StatusView { as_of: seq * 300, seq, ..StatusView::default() };
        let (a, b) = (ViewCell::new(stamped(1)), ViewCell::new(stamped(2)));
        for round in 0..3 {
            assert_eq!(a.load().seq, 1, "round {round}");
            assert_eq!(b.load().seq, 2, "round {round}");
        }
        b.store(stamped(3));
        assert_eq!((a.load().seq, b.load().seq, b.load().seq), (1, 3, 3));
        for seq in 10..20 {
            let cell = Box::new(ViewCell::new(stamped(seq)));
            let view = cell.load();
            assert_eq!(view.seq, seq, "a rebuilt cell reads its own view");
            drop(cell);
            assert_eq!(Rc::strong_count(&view.0), 1, "the dropped cell's entry is released");
        }
        let kept = a.load();
        a.store(stamped(4));
        assert_eq!((kept.seq, a.load().seq), (1, 4), "a held view outlives the swap");
    }

    fn arb_scope() -> impl Strategy<Value = OutageScope> {
        (0u8..3, 0u32..4).prop_map(|(kind, id)| match kind {
            0 => OutageScope::Facility(FacilityId(id)),
            1 => OutageScope::Ixp(IxpId(id)),
            _ => OutageScope::City(CityId(id)),
        })
    }

    /// A tracker image over a dozen scopes, so one scope often sits in
    /// several tables: finished reports, cooling rows, and ongoing
    /// incidents either open or recovering.
    fn arb_state() -> impl Strategy<Value = TrackerState> {
        let finished = prop::collection::vec((arb_scope(), 0u64..1_000), 0..6);
        let cooling = prop::collection::vec((arb_scope(), 0u64..1_000), 0..4);
        let live = prop::collection::vec((arb_scope(), 0u64..1_000, any::<bool>()), 0..4);
        (finished, cooling, live).prop_map(|(finished, cooling, live)| {
            let closed =
                |scope, start| OutageReport { scope, ..report(0, start, Some(start + 60)) };
            TrackerState {
                finished: finished.into_iter().map(|(s, t)| closed(s, t)).collect(),
                cooling: cooling.into_iter().map(|(s, t)| (s, closed(s, t), 60)).collect(),
                ongoing: live
                    .into_iter()
                    .map(|(scope, t, restored)| Incident {
                        scope,
                        probe_restored_at: restored.then_some(t + 30),
                        ..ongoing(0, t)
                    })
                    .collect(),
                warming: Vec::new(),
            }
        })
    }

    proptest! {
        /// The live set answers `is_down` exactly as the scope map does,
        /// for scopes the view holds and scopes it does not.
        #[test]
        fn live_set_matches_the_scope_map(
            state in arb_state(),
            probes in prop::collection::vec(arb_scope(), 1..16),
        ) {
            let view = StatusView::from_state(&state, 600, 1);
            for scope in probes.into_iter().chain(view.all().into_iter().map(|s| s.scope)) {
                let expected = view.status(scope).is_some_and(|s| s.state != IncidentState::Closed);
                prop_assert_eq!(view.is_down(scope), expected, "{}", scope);
            }
            let live: Vec<&ScopeStatus> =
                view.all().into_iter().filter(|s| s.state != IncidentState::Closed).collect();
            prop_assert_eq!(view.live(), live);
        }
    }
}
