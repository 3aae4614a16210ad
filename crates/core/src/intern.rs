//! Dense identity interning for the monitor hot path.
//!
//! The monitoring module (paper §4.2) digests BGP update streams from
//! ~100 collectors in small time bins over multi-year windows, so the cost
//! of interning one [`RouteEvent`] is paid on every record. This module
//! assigns each identity (route, PoP tag, ASN) a dense `u32` id **once, at
//! input time**; the monitor then works on flat `Vec`-indexed tables and
//! small-int hash maps.
//!
//! # Id lifetime rules
//!
//! * Ids are minted first-come in call order and are **stable for the
//!   lifetime of one run** (one [`Interner`]): the same `RouteKey` always
//!   maps to the same [`RouteId`].
//! * Ids are **never recycled**, not even for withdrawn routes: a recycled
//!   id could alias a dead route's deviation entry with a new route inside
//!   the same bin.
//! * Ids are only meaningful relative to the interner that minted them:
//!   one interner feeds the monitor, investigator and tracker of a
//!   [`crate::system::Kepler`], so `(PopId, AsnId)` group keys agree.
//! * Display types (`RouteKey`, `LocationTag`, `Asn`) are resolved back
//!   **only at report time** — never on the per-event path.
//!
//! # Route table
//!
//! A route is two dense ids, a session (collector, peer) and a
//! `PrefixId` from one `Prefix` map shared by every session (so it stays
//! in cache). Each session holds a `Vec` of 4-byte route slots indexed by
//! `PrefixId`, and a route's display key is an 8-byte `(session, prefix)`
//! pair. A session's vector is as long as the largest `PrefixId` it has
//! announced: at most 4 B × sessions × distinct prefixes in all, ≤ 4 B per
//! route for full-feed sessions (every workload here, most collector
//! peers). A partial-feed session with scattered prefix ids pays for the
//! gaps; Internet-scale worlds are parked in the ROADMAP rather than
//! given a second representation.

use crate::events::RouteKey;
use crate::fx::FxHashMap;
use crate::input::{PopCrossing, RouteEvent};
use kepler_bgp::{Asn, Prefix};
use kepler_bgpstream::{CollectorId, PeerId};
use kepler_docmine::LocationTag;
use std::num::NonZeroU32;
use std::sync::Arc;

/// Dense id of one monitored route (a prefix seen by one collector peer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouteId(pub u32);

/// Dense id of one prefix, shared by every session that announces it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PrefixId(u32);

/// A session's route for one `PrefixId`: its id + 1, `None` before the
/// first announcement — 4 bytes, with no `RouteId` value reserved.
type RouteSlot = Option<NonZeroU32>;

const _: () = assert!(size_of::<RouteSlot>() == 4 && size_of::<(RouteSession, PrefixId)>() == 8);

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
    sessions: FxHashMap<(CollectorId, PeerId), RouteSession>,
    session_meta: Vec<(CollectorId, PeerId)>,
    /// Second level: per-session route slots, indexed by `PrefixId`.
    session_routes: Vec<Vec<RouteSlot>>,
    prefixes: FxHashMap<Prefix, PrefixId>,
    prefix_values: Vec<Prefix>,
    /// Display key of each route, as `(session, prefix)` ids.
    route_keys: Vec<(RouteSession, PrefixId)>,
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
    /// An empty interner. Only the route-key table (32 Ki routes) and the
    /// ASN table (1 Ki) are pre-sized; the others grow on demand.
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
        let key = (collector, peer);
        let s =
            first_come(&mut self.sessions, &mut self.session_meta, key, RouteSession, "session");
        if s.0 as usize == self.session_routes.len() {
            self.session_routes.push(Vec::new());
        }
        s
    }

    /// Second half of the batched intern API: the dense id of `prefix`
    /// within `sess`, minting one on first sight.
    #[inline]
    pub fn route_id_in(&mut self, sess: RouteSession, prefix: Prefix) -> RouteId {
        let p = first_come(&mut self.prefixes, &mut self.prefix_values, prefix, PrefixId, "prefix");
        let slots = &mut self.session_routes[sess.0 as usize];
        if slots.len() <= p.0 as usize {
            slots.resize(p.0 as usize + 1, None);
        }
        let slot = slots[p.0 as usize].get_or_insert_with(|| {
            self.route_keys.push((sess, p));
            let minted = u32::try_from(self.route_keys.len()).ok();
            minted.and_then(NonZeroU32::new).expect("route id space exhausted")
        });
        RouteId(slot.get() - 1)
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
        let (sess, p) = self.route_keys[id.0 as usize];
        let (collector, peer) = self.session_meta[sess.0 as usize];
        RouteKey { collector, peer, prefix: self.prefix_values[p.0 as usize] }
    }

    /// The dense id of `tag`, minting one on first sight.
    #[inline]
    pub fn pop_id(&mut self, tag: LocationTag) -> PopId {
        first_come(&mut self.pops, &mut self.pop_tags, tag, PopId, "pop")
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
        first_come(&mut self.asns, &mut self.asn_values, asn, AsnId, "asn")
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
    pub fn route_keys_since(&self, n: usize) -> impl Iterator<Item = RouteKey> + '_ {
        (n..self.route_keys.len()).map(|i| self.route_key(RouteId(i as u32)))
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

/// The id of `key` in a first-come table (`ids` plus the `values` it
/// resolves through), minting the next dense id on first sight.
fn first_come<K: Copy + Eq + std::hash::Hash, I: Copy>(
    ids: &mut FxHashMap<K, I>,
    values: &mut Vec<K>,
    key: K,
    id: fn(u32) -> I,
    what: &str,
) -> I {
    *ids.entry(key).or_insert_with(|| {
        values.push(key);
        id(u32::try_from(values.len() - 1).unwrap_or_else(|_| panic!("{what} id space exhausted")))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kepler_bgp::Prefix;
    use kepler_bgpstream::{CollectorId, PeerId};
    use kepler_topology::{CityId, FacilityId, IxpId};
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

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

    /// The route table's reference: one ordered map from display key to
    /// id, minting in call order.
    #[derive(Default)]
    struct ReferenceRoutes(BTreeMap<RouteKey, RouteId>);

    impl ReferenceRoutes {
        fn route_id(&mut self, key: RouteKey) -> RouteId {
            let next = RouteId(self.0.len() as u32);
            *self.0.entry(key).or_insert(next)
        }
    }

    /// One intern call: a regular session announcing a pool prefix, or a
    /// sparse session announcing a prefix no one announced before (so it
    /// only ever sees the highest `PrefixId`) or its own previous one.
    #[derive(Debug, Clone)]
    enum RouteOp {
        Pool { sess: u32, prefix: u32, batched: bool },
        Sparse { sess: u32, fresh: bool, batched: bool },
    }

    const REGULAR_SESSIONS: u32 = 24;
    const SPARSE_SESSIONS: u32 = 4;

    fn arb_route_op() -> impl Strategy<Value = RouteOp> {
        prop_oneof![
            (0..REGULAR_SESSIONS, 0u32..48, any::<bool>())
                .prop_map(|(sess, prefix, batched)| RouteOp::Pool { sess, prefix, batched }),
            (0..SPARSE_SESSIONS, any::<bool>(), any::<bool>())
                .prop_map(|(sess, fresh, batched)| RouteOp::Sparse { sess, fresh, batched }),
        ]
    }

    /// Sessions alternate IPv4 and IPv6 peers and share collectors.
    fn session(i: u32) -> (CollectorId, PeerId) {
        let addr = if i.is_multiple_of(2) {
            IpAddr::V4(Ipv4Addr::from(0x0a00_0000 + i))
        } else {
            IpAddr::V6(Ipv6Addr::from(0xfe80_u128 << 112 | i as u128))
        };
        (CollectorId((i % 5) as u16), PeerId { asn: Asn(64_500 + i / 3), addr })
    }

    /// Both families at /0 (one prefix each, whatever `i`), at the host
    /// length (/32, /128) and at a routed length.
    fn pool_prefix(i: u32) -> Prefix {
        let (addr, len) = match i % 6 {
            0 => (IpAddr::V4(Ipv4Addr::from(i)), 0),
            1 => (IpAddr::V6(Ipv6Addr::from(i as u128)), 0),
            2 => (IpAddr::V4(Ipv4Addr::from(0xc000_0200 + i)), 32),
            3 => (IpAddr::V6(Ipv6Addr::from(0xfd00_u128 << 112 | i as u128)), 128),
            4 => (IpAddr::V4(Ipv4Addr::from(0x0a00_0000 + (i << 8))), 24),
            _ => (IpAddr::V6(Ipv6Addr::from(0x2001_0db8_u128 << 96 | (i as u128) << 80)), 48),
        };
        Prefix::new(addr, len).unwrap()
    }

    /// The `n`-th prefix only sparse sessions announce (disjoint from the pool).
    fn sparse_prefix(n: u32) -> Prefix {
        Prefix::new(IpAddr::V6(Ipv6Addr::from(0x2a00_u128 << 112 | n as u128)), 128).unwrap()
    }

    proptest! {
        /// Two dense ids per route — a shared prefix table and per-session
        /// slot vectors — mint exactly the ids of one ordered map keyed by
        /// the whole `RouteKey`, whichever entry point a call takes.
        #[test]
        fn route_table_matches_the_reference_map(
            ops in prop::collection::vec(arb_route_op(), 1..300),
        ) {
            let mut interner = Interner::new();
            let mut reference = ReferenceRoutes::default();
            let mut fresh = 0u32;
            let mut sparse_last = [None; SPARSE_SESSIONS as usize];
            for op in &ops {
                let ((collector, peer), prefix, batched) = match *op {
                    RouteOp::Pool { sess, prefix, batched } => {
                        (session(sess), pool_prefix(prefix), batched)
                    }
                    RouteOp::Sparse { sess, fresh: want_fresh, batched } => {
                        let last = &mut sparse_last[sess as usize];
                        if want_fresh || last.is_none() {
                            *last = Some(sparse_prefix(fresh));
                            fresh += 1;
                        }
                        (session(REGULAR_SESSIONS + sess), last.unwrap(), batched)
                    }
                };
                let key = RouteKey { collector, peer, prefix };
                let id = if batched {
                    let sess = interner.route_session(collector, peer);
                    interner.route_id_in(sess, prefix)
                } else {
                    interner.route_id(&key)
                };
                prop_assert_eq!(id, reference.route_id(key));
                prop_assert_eq!(interner.route_key(id), key);
                prop_assert_eq!(interner.routes_len(), reference.0.len());
            }
            let mut by_id: Vec<(RouteId, RouteKey)> =
                reference.0.iter().map(|(k, id)| (*id, *k)).collect();
            by_id.sort();
            let keys: Vec<RouteKey> = by_id.into_iter().map(|(_, k)| k).collect();
            prop_assert_eq!(interner.route_keys_since(0).collect::<Vec<_>>(), keys.clone());
            let half = keys.len() / 2;
            prop_assert_eq!(interner.route_keys_since(half).collect::<Vec<_>>(), keys[half..]);
        }
    }

    /// `feed_dense`'s shape: 400 full-feed sessions × 805 prefixes cost one
    /// 4-byte slot and one 8-byte key per route, and nothing for gaps.
    #[test]
    fn full_feed_sessions_cost_one_slot_per_route() {
        let mut interner = Interner::new();
        let sessions: Vec<RouteSession> = (0..400)
            .map(|i| {
                let (collector, peer) = session(i);
                interner.route_session(collector, peer)
            })
            .collect();
        let prefix = |p: u32| Prefix::v4(10, (p >> 8) as u8, p as u8, 0, 24);
        for p in 0..805 {
            for &sess in &sessions {
                interner.route_id_in(sess, prefix(p));
            }
        }
        assert!(interner.session_routes.iter().all(|slots| slots.len() == 805));
        assert_eq!(interner.route_keys.len(), 322_000);
        assert_eq!(interner.route_id_in(sessions[7], prefix(3)), RouteId(3 * 400 + 7));
    }
}
