//! Dense identity interning for the monitor hot path.
//!
//! The monitoring module (paper §4.2) digests BGP update streams from
//! ~100 collectors in small time bins over multi-year windows, so the cost
//! of one [`RouteEvent`] dominates end-to-end runtime. The seed
//! implementation keyed every map on fat composite structs (`RouteKey` =
//! collector + peer + prefix; nested maps over `LocationTag` and `Asn`),
//! hashing the same identities millions of times per bin. This module
//! assigns each identity a dense `u32` id **once, at input time**; the
//! monitor then works exclusively on flat `Vec`-indexed tables and
//! small-int hash maps.
//!
//! # Id lifetime rules
//!
//! * Ids are assigned first-come-first-served and are **stable for the
//!   lifetime of one run** (one [`Interner`]): the same `RouteKey` always
//!   maps to the same [`RouteId`], and `resolve`-style lookups never move.
//! * Ids are **never recycled**, not even for routes that have been
//!   withdrawn mid-bin: a recycled id could alias a dead route's deviation
//!   entry with a new route inside the same bin. Memory for dead ids is
//!   bounded by the identity universe (collector × peer × prefix), which
//!   the paper's workload bounds at tens of millions — 4-byte ids keep the
//!   tables compact.
//! * Dense ids are only meaningful relative to the interner that minted
//!   them: one interner feeds the monitor, investigator and tracker of a
//!   [`crate::system::Kepler`], so `(PopId, AsnId)` group keys agree
//!   between them.
//! * Display types (`RouteKey`, `LocationTag`, `Asn`) are resolved back
//!   **only at report time** (bin outcomes with signals, final reports) —
//!   never on the per-event path.

use crate::events::RouteKey;
use crate::fx::FxHashMap;
use crate::input::{PopCrossing, RouteEvent};
use kepler_bgp::{Asn, Prefix};
use kepler_bgpstream::{CollectorId, PeerId};
use kepler_docmine::LocationTag;
use std::sync::Arc;

/// Dense id of one monitored route (a prefix seen by one collector peer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouteId(pub u32);

/// Dense id of one PoP tag (facility / IXP / city).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PopId(pub u32);

/// Dense id of one AS number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AsnId(pub u32);

/// A located crossing in dense-id space (see [`PopCrossing`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DenseCrossing {
    /// The tagged location.
    pub pop: PopId,
    /// The AS that applied the tag.
    pub near: AsnId,
    /// Its neighbor toward the origin.
    pub far: AsnId,
}

impl DenseCrossing {
    /// The `(pop, near)` deviation-group key, packed for flat maps.
    #[inline]
    pub fn group(self) -> GroupKey {
        pack_group(self.pop, self.near)
    }
}

/// A `(PopId, AsnId)` pair packed into one word — the key of every
/// deviation-group map on the hot path.
pub type GroupKey = u64;

/// Packs a `(pop, near)` pair into a [`GroupKey`].
#[inline]
pub fn pack_group(pop: PopId, near: AsnId) -> GroupKey {
    ((pop.0 as u64) << 32) | near.0 as u64
}

/// Inverse of [`pack_group`].
#[inline]
pub fn unpack_group(key: GroupKey) -> (PopId, AsnId) {
    (PopId((key >> 32) as u32), AsnId(key as u32))
}

/// A [`RouteEvent`] with all identities interned. Crossing lists are
/// `Arc<[_]>` so the monitor's `current`/`baseline` tables share one
/// allocation per announcement instead of cloning `Vec`s.
#[derive(Debug, Clone, PartialEq)]
pub enum DenseRouteEvent {
    /// The route is (re-)announced with these crossings.
    Update {
        /// Interned route identity.
        route: RouteId,
        /// Interned located crossings.
        crossings: Arc<[DenseCrossing]>,
    },
    /// The route was withdrawn.
    Withdraw {
        /// Interned route identity.
        route: RouteId,
    },
}

impl DenseRouteEvent {
    /// The route the event concerns.
    pub fn route(&self) -> RouteId {
        match self {
            DenseRouteEvent::Update { route, .. } => *route,
            DenseRouteEvent::Withdraw { route } => *route,
        }
    }
}

/// Bidirectional mapping between display identities and dense ids.
///
/// Every identity crossing into the hot path — route keys, PoP tags,
/// ASNs — is interned once at input time; the monitor and tracker
/// then work exclusively on `u32` ids, and display types are
/// resolved back only at report time. Interning is idempotent and ids
/// are dense (0, 1, 2, …), so flat `Vec`s indexed by id replace hash
/// maps everywhere downstream.
///
/// ```
/// use kepler_bgp::{Asn, Prefix};
/// use kepler_bgpstream::{CollectorId, PeerId};
/// use kepler_core::events::RouteKey;
/// use kepler_core::intern::Interner;
/// use kepler_docmine::LocationTag;
/// use kepler_topology::FacilityId;
///
/// let mut interner = Interner::new();
/// let key = RouteKey {
///     collector: CollectorId(0),
///     peer: PeerId { asn: Asn(3356), addr: "10.0.0.1".parse().unwrap() },
///     prefix: Prefix::v4(192, 0, 2, 0, 24),
/// };
/// // Idempotent: the same identity always maps to the same dense id.
/// let id = interner.route_id(&key);
/// assert_eq!(interner.route_id(&key), id);
/// assert_eq!(id.0, 0, "ids are dense, starting at 0");
/// // And bidirectional: reports resolve ids back to display types.
/// assert_eq!(interner.route_key(id), key);
/// let pop = interner.pop_id(LocationTag::Facility(FacilityId(7)));
/// assert_eq!(interner.pop_tag(pop), LocationTag::Facility(FacilityId(7)));
/// ```
#[derive(Debug, Default)]
pub struct Interner {
    /// First level of the route table: `(collector, peer)` → session.
    /// BGP streams are session-bursty (one record carries many prefixes
    /// from one peer), so hashing the fat session half once per record
    /// and only the prefix per route amortizes most of the intern cost —
    /// see [`route_session`](Self::route_session).
    sessions: FxHashMap<(CollectorId, PeerId), RouteSession>,
    session_meta: Vec<(CollectorId, PeerId)>,
    /// Second level: per-session prefix → dense route id.
    session_prefixes: Vec<FxHashMap<Prefix, RouteId>>,
    route_keys: Vec<RouteKey>,
    pops: FxHashMap<LocationTag, PopId>,
    pop_tags: Vec<LocationTag>,
    asns: FxHashMap<Asn, AsnId>,
    asn_values: Vec<Asn>,
    /// Scratch buffer so `intern_event` performs exactly one allocation
    /// (the `Arc<[_]>` itself) per announcement.
    scratch: Vec<DenseCrossing>,
    /// Distinct crossing set → shared allocation, for
    /// [`intern_crossings`](Self::intern_crossings). Crossing sets are
    /// drawn from the (small) located-link universe, so the cache
    /// converts per-announcement `Arc` allocations into lookups.
    cross_cache: FxHashMap<Vec<DenseCrossing>, Arc<[DenseCrossing]>>,
}

/// Handle to one `(collector, peer)` slot of the two-level route table,
/// from [`Interner::route_session`]. Only meaningful for the interner
/// that minted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteSession(u32);

impl Interner {
    /// An empty interner, pre-sized for a live-stream route universe so
    /// the hot maps do not rehash during warm-up (a few MB up front
    /// against millions of per-event inserts).
    pub fn new() -> Self {
        let mut interner = Interner::default();
        interner.route_keys.reserve(1 << 15);
        interner.asns.reserve(1 << 10);
        interner.asn_values.reserve(1 << 10);
        interner
    }

    /// The dense id of `key`, minting one on first sight. Equivalent to
    /// [`route_session`](Self::route_session) +
    /// [`route_id_in`](Self::route_id_in); id assignment order — and
    /// therefore every minted id — is identical whichever entry point a
    /// caller mixes, because minting is always first-come in call order.
    #[inline]
    pub fn route_id(&mut self, key: &RouteKey) -> RouteId {
        let sess = self.route_session(key.collector, key.peer);
        self.route_id_in(sess, key.prefix)
    }

    /// First half of the batched intern API: resolves the session slot
    /// for `(collector, peer)`, minting one on first sight. Callers
    /// processing a multi-prefix record hash the session exactly once
    /// here, then pay only a prefix hash per route in
    /// [`route_id_in`](Self::route_id_in).
    #[inline]
    pub fn route_session(&mut self, collector: CollectorId, peer: PeerId) -> RouteSession {
        match self.sessions.entry((collector, peer)) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(v) => {
                let s = RouteSession(
                    u32::try_from(self.session_meta.len()).expect("session id space exhausted"),
                );
                v.insert(s);
                self.session_meta.push((collector, peer));
                self.session_prefixes.push(FxHashMap::default());
                s
            }
        }
    }

    /// Second half of the batched intern API: the dense id of `prefix`
    /// within `sess`, minting one on first sight.
    #[inline]
    pub fn route_id_in(&mut self, sess: RouteSession, prefix: Prefix) -> RouteId {
        match self.session_prefixes[sess.0 as usize].entry(prefix) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(v) => {
                let id = RouteId(
                    u32::try_from(self.route_keys.len()).expect("route id space exhausted"),
                );
                v.insert(id);
                let (collector, peer) = self.session_meta[sess.0 as usize];
                self.route_keys.push(RouteKey { collector, peer, prefix });
                id
            }
        }
    }

    /// A shared allocation for `dense`, reusing one `Arc` per distinct
    /// crossing set. [`DenseRouteEvent`] compares by contents, so
    /// consumers cannot observe the sharing — only the allocator can.
    pub fn intern_crossings(&mut self, dense: &[DenseCrossing]) -> Arc<[DenseCrossing]> {
        if let Some(a) = self.cross_cache.get(dense) {
            return Arc::clone(a);
        }
        let arc: Arc<[DenseCrossing]> = Arc::from(dense);
        self.cross_cache.insert(dense.to_vec(), Arc::clone(&arc));
        arc
    }

    /// The display key of a minted route id.
    #[inline]
    pub fn route_key(&self, id: RouteId) -> RouteKey {
        self.route_keys[id.0 as usize]
    }

    /// The dense id of `tag`, minting one on first sight.
    #[inline]
    pub fn pop_id(&mut self, tag: LocationTag) -> PopId {
        match self.pops.entry(tag) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(v) => {
                let id = PopId(u32::try_from(self.pop_tags.len()).expect("pop id space exhausted"));
                v.insert(id);
                self.pop_tags.push(tag);
                id
            }
        }
    }

    /// The dense id of `tag` if it has been seen, without minting.
    #[inline]
    pub fn lookup_pop(&self, tag: LocationTag) -> Option<PopId> {
        self.pops.get(&tag).copied()
    }

    /// The display tag of a minted pop id.
    #[inline]
    pub fn pop_tag(&self, id: PopId) -> LocationTag {
        self.pop_tags[id.0 as usize]
    }

    /// The dense id of `asn`, minting one on first sight.
    #[inline]
    pub fn asn_id(&mut self, asn: Asn) -> AsnId {
        match self.asns.entry(asn) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(v) => {
                let id =
                    AsnId(u32::try_from(self.asn_values.len()).expect("asn id space exhausted"));
                v.insert(id);
                self.asn_values.push(asn);
                id
            }
        }
    }

    /// The display ASN of a minted asn id.
    #[inline]
    pub fn asn(&self, id: AsnId) -> Asn {
        self.asn_values[id.0 as usize]
    }

    /// Interns one display crossing.
    #[inline]
    pub fn crossing(&mut self, c: &PopCrossing) -> DenseCrossing {
        DenseCrossing {
            pop: self.pop_id(c.pop),
            near: self.asn_id(c.near),
            far: self.asn_id(c.far),
        }
    }

    /// Resolves a dense crossing back to display space.
    #[inline]
    pub fn resolve_crossing(&self, c: DenseCrossing) -> PopCrossing {
        PopCrossing { pop: self.pop_tag(c.pop), near: self.asn(c.near), far: self.asn(c.far) }
    }

    /// Interns a whole input-module event (the input-time boundary where
    /// fat keys leave the pipeline).
    pub fn intern_event(&mut self, event: &RouteEvent) -> DenseRouteEvent {
        match event {
            RouteEvent::Withdraw { key } => DenseRouteEvent::Withdraw { route: self.route_id(key) },
            RouteEvent::Update { key, crossings, .. } => {
                let route = self.route_id(key);
                let mut scratch = std::mem::take(&mut self.scratch);
                scratch.clear();
                scratch.extend(crossings.iter().map(|c| self.crossing(c)));
                let dense = Arc::from(scratch.as_slice());
                self.scratch = scratch;
                DenseRouteEvent::Update { route, crossings: dense }
            }
        }
    }

    /// Display keys of the routes minted at id `n` and later, in id order
    /// — with `n == 0`, the whole table (what the differential tests
    /// compare across decode roads).
    pub fn route_keys_since(&self, n: usize) -> &[RouteKey] {
        &self.route_keys[n..]
    }

    /// Display tags of the PoPs minted at id `n` and later, in id order.
    pub fn pop_tags_since(&self, n: usize) -> &[LocationTag] {
        &self.pop_tags[n..]
    }

    /// Display ASNs minted at id `n` and later, in id order.
    pub fn asns_since(&self, n: usize) -> &[Asn] {
        &self.asn_values[n..]
    }

    /// Number of distinct routes seen.
    pub fn routes_len(&self) -> usize {
        self.route_keys.len()
    }

    /// Number of distinct PoP tags seen.
    pub fn pops_len(&self) -> usize {
        self.pop_tags.len()
    }

    /// Number of distinct ASNs seen.
    pub fn asns_len(&self) -> usize {
        self.asn_values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kepler_bgp::Prefix;
    use kepler_bgpstream::{CollectorId, PeerId};
    use kepler_topology::{CityId, FacilityId, IxpId};

    fn key(i: u8) -> RouteKey {
        RouteKey {
            collector: CollectorId(i as u16),
            peer: PeerId { asn: Asn(100 + i as u32), addr: "10.0.0.9".parse().unwrap() },
            prefix: Prefix::v4(10, i, 0, 0, 24),
        }
    }

    #[test]
    fn route_keys_round_trip_exactly() {
        let mut interner = Interner::new();
        let ids: Vec<RouteId> = (0..32).map(|i| interner.route_id(&key(i))).collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(interner.route_key(*id), key(i as u8));
        }
        // Stable across re-interning.
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(interner.route_id(&key(i as u8)), *id);
        }
        assert_eq!(interner.routes_len(), 32);
    }

    #[test]
    fn location_tags_round_trip_exactly() {
        let mut interner = Interner::new();
        let tags = [
            LocationTag::Facility(FacilityId(7)),
            LocationTag::Ixp(IxpId(7)),
            LocationTag::City(CityId(7)),
            LocationTag::Facility(FacilityId(0)),
        ];
        let ids: Vec<PopId> = tags.iter().map(|t| interner.pop_id(*t)).collect();
        for (tag, id) in tags.iter().zip(&ids) {
            assert_eq!(interner.pop_tag(*id), *tag);
            assert_eq!(interner.lookup_pop(*tag), Some(*id));
        }
        // Same numeric id under different constructors stays distinct.
        assert_eq!(ids.iter().collect::<std::collections::HashSet<_>>().len(), 4);
        assert_eq!(interner.lookup_pop(LocationTag::City(CityId(99))), None);
    }

    #[test]
    fn group_key_packing_round_trips() {
        for (p, a) in [(0u32, 0u32), (1, 2), (u32::MAX, 7), (3, u32::MAX)] {
            let k = pack_group(PopId(p), AsnId(a));
            assert_eq!(unpack_group(k), (PopId(p), AsnId(a)));
        }
    }

    #[test]
    fn intern_event_preserves_structure() {
        let mut interner = Interner::new();
        let ev = RouteEvent::Update {
            key: key(1),
            crossings: vec![
                PopCrossing {
                    pop: LocationTag::Facility(FacilityId(1)),
                    near: Asn(5),
                    far: Asn(6),
                },
                PopCrossing { pop: LocationTag::Ixp(IxpId(2)), near: Asn(5), far: Asn(7) },
            ],
            hops: vec![Asn(9), Asn(5), Asn(6)],
        };
        match interner.intern_event(&ev) {
            DenseRouteEvent::Update { route, crossings } => {
                assert_eq!(interner.route_key(route), key(1));
                assert_eq!(crossings.len(), 2);
                let back: Vec<PopCrossing> =
                    crossings.iter().map(|&c| interner.resolve_crossing(c)).collect();
                assert_eq!(
                    back[0],
                    PopCrossing {
                        pop: LocationTag::Facility(FacilityId(1)),
                        near: Asn(5),
                        far: Asn(6)
                    }
                );
                assert_eq!(back[1].far, Asn(7));
                // `near` interned once, shared.
                assert_eq!(crossings[0].near, crossings[1].near);
            }
            _ => panic!("expected update"),
        }
        match interner.intern_event(&RouteEvent::Withdraw { key: key(1) }) {
            DenseRouteEvent::Withdraw { route } => assert_eq!(route, RouteId(0)),
            _ => panic!("expected withdraw"),
        }
    }
}
