//! Input module (paper §4.1): sanitization plus community→PoP mapping.
//!
//! For every update, each location community is attributed to the AS-path
//! hop whose ASN matches the community's top 16 bits — that hop is the
//! *near-end* AS that received the route at the tagged location, and the
//! next hop toward the origin is the *far-end* neighbor. Route-server
//! communities (top 16 bits = the RS ASN, which never appears in the path)
//! are resolved by finding the adjacent member pair of that IXP on the
//! path, the method of Giotsas & Zhou \[51\].

use crate::events::RouteKey;
use crate::intern::{DenseCrossing, DenseRouteEvent, Interner, RouteId, RouteSession};
use kepler_bgp::mrt::{AsPathView, UpdateView};
use kepler_bgp::sanitize::{RejectReason, SanitizeStats, Sanitizer, SanitizerConfig};
use kepler_bgp::{AsPath, Asn, Community, PathAttributes, Prefix};
use kepler_bgpstream::{BgpElem, BgpRecord, CollectorId, ElemKind, PeerId, RecordPayload};
use kepler_docmine::{CommunityDictionary, LocationTag};
use kepler_topology::ColocationMap;
use std::sync::Arc;

/// One located crossing on a route: the near-end AS received the route
/// from the far-end AS at `pop`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PopCrossing {
    /// The tagged location.
    pub pop: LocationTag,
    /// The AS that applied the tag (or imported from the route server).
    pub near: Asn,
    /// Its neighbor toward the origin.
    pub far: Asn,
}

/// An input-module event handed to the monitor.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteEvent {
    /// The route is (re-)announced with these crossings (possibly empty if
    /// no location community was usable).
    Update {
        /// Route identity.
        key: RouteKey,
        /// Located crossings.
        crossings: Vec<PopCrossing>,
        /// Collapsed AS path hops (for link-level attribution).
        hops: Vec<Asn>,
    },
    /// The route was withdrawn.
    Withdraw {
        /// Route identity.
        key: RouteKey,
    },
}

/// Statistics over processed elements.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InputStats {
    /// Elements seen.
    pub elems: u64,
    /// Announcements carrying at least one locatable community.
    pub located: u64,
    /// Announcements with no usable location information.
    pub unlocated: u64,
    /// Elements dropped by sanitization.
    pub rejected: u64,
}

impl InputStats {
    /// Fraction of announcements with location info — the paper's ≈50%
    /// IPv4 / ≈30% IPv6 coverage metric (Figure 7c).
    pub fn located_fraction(&self) -> f64 {
        let total = self.located + self.unlocated;
        if total == 0 {
            return 0.0;
        }
        self.located as f64 / total as f64
    }
}

/// One decoded element in dense-id space, borrowed from the decoder's
/// scratch buffers. Produced by [`InputModule::process_update_view_dense`].
#[derive(Debug, Clone, Copy)]
pub enum DenseElem<'a> {
    /// The route is (re-)announced with these interned crossings.
    Update {
        /// Interned route identity.
        route: RouteId,
        /// Interned located crossings (scratch-backed; copy out to keep).
        crossings: &'a [DenseCrossing],
    },
    /// The route was withdrawn.
    Withdraw {
        /// Interned route identity.
        route: RouteId,
    },
}

/// An announcement's AS path wherever it lives — materialized
/// ([`AsPath`]) or still on the wire ([`AsPathView`]) — so the
/// record-level decoder is one body over both.
trait PathSource {
    /// Collapses the path (prepending removed) into `hops`, cleared
    /// first, and returns the sanitizer's path-level verdict on it.
    fn assess(&self, sanitizer: &Sanitizer, hops: &mut Vec<Asn>) -> Result<(), RejectReason>;
}

impl PathSource for AsPath {
    fn assess(&self, sanitizer: &Sanitizer, hops: &mut Vec<Asn>) -> Result<(), RejectReason> {
        self.hops_into(hops);
        sanitizer.path_verdict(self, hops)
    }
}

impl PathSource for AsPathView<'_> {
    fn assess(&self, sanitizer: &Sanitizer, hops: &mut Vec<Asn>) -> Result<(), RejectReason> {
        self.hops_into(hops);
        sanitizer.path_verdict_parts(self.is_empty(), hops, || self.has_special_purpose_asn())
    }
}

/// Recycled per-record scratch arena for the record-level decoders. One
/// arena lives inside each [`InputModule`]; every record-level decode
/// *resets* the buffers (length to zero, capacity kept), so after warm-up
/// the per-record allocation count is zero.
///
/// Ownership rule: emitted [`DenseElem`]s borrow `dense` — callers must
/// finish with (or copy out of) one record's elements before the next
/// record-level call, which the `&mut self` receivers enforce.
#[derive(Debug, Default)]
struct RecordArena {
    hops: Vec<Asn>,
    cross: Vec<PopCrossing>,
    dense: Vec<DenseCrossing>,
}

/// The input module.
pub struct InputModule {
    dictionary: CommunityDictionary,
    colo: ColocationMap,
    sanitizer: Sanitizer,
    stats: InputStats,
    arena: RecordArena,
}

impl InputModule {
    /// Builds an input module around a dictionary and colocation map.
    pub fn new(dictionary: CommunityDictionary, colo: ColocationMap) -> Self {
        InputModule {
            dictionary,
            colo,
            sanitizer: Sanitizer::new(SanitizerConfig::default()),
            stats: InputStats::default(),
            arena: RecordArena::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &InputStats {
        &self.stats
    }

    /// Sanitizer counters.
    pub fn sanitize_stats(&self) -> &SanitizeStats {
        self.sanitizer.stats()
    }

    /// Processes one element into a monitor event (or `None` if rejected).
    pub fn process(&mut self, elem: &BgpElem) -> Option<RouteEvent> {
        self.stats.elems += 1;
        let key = RouteKey { collector: elem.collector, peer: elem.peer, prefix: elem.prefix };
        match &elem.kind {
            ElemKind::Withdraw => {
                if self.sanitizer.check_prefix(&elem.prefix).is_err() {
                    self.stats.rejected += 1;
                    return None;
                }
                Some(RouteEvent::Withdraw { key })
            }
            ElemKind::Announce(attrs) => {
                if self.sanitizer.check_route(&attrs.as_path, &elem.prefix).is_err() {
                    self.stats.rejected += 1;
                    return None;
                }
                let hops = attrs.as_path.hops();
                let crossings = self.map_crossings(attrs, &hops);
                if crossings.is_empty() {
                    self.stats.unlocated += 1;
                } else {
                    self.stats.located += 1;
                }
                Some(RouteEvent::Update { key, crossings, hops })
            }
        }
    }

    /// Decodes one whole record into owned [`DenseRouteEvent`]s, without
    /// the per-prefix [`BgpElem`] explosion (no `Arc<PathAttributes>`
    /// clone, no per-element `Vec`s): the path is sanitized and its
    /// communities mapped **once per update**, and every announced prefix
    /// shares one cached `Arc` per distinct crossing set (see
    /// [`Interner::intern_crossings`]). Statistics (both [`InputStats`]
    /// and [`SanitizeStats`]) are accounted per element, byte-identical
    /// to calling [`process`](Self::process) on every exploded element
    /// and interning the result, and `emit` receives events in the exact
    /// order [`BgpRecord::explode`] would have produced them. State
    /// records yield nothing (they are the
    /// [`GapTracker`](kepler_bgpstream::GapTracker)'s business).
    ///
    /// This is the decode stage of [`Kepler`](crate::system::Kepler).
    pub fn process_record_events<F: FnMut(DenseRouteEvent)>(
        &mut self,
        rec: &BgpRecord,
        interner: &mut Interner,
        mut emit: F,
    ) {
        let RecordPayload::Update(update) = &rec.payload else { return };
        let announcement =
            update.attrs.as_ref().filter(|_| !update.announced.is_empty()).map(|a| {
                (&a.as_path, a.communities.iter().copied(), update.announced.iter().copied())
            });
        // One update carries one crossing set: interned on first use.
        let mut shared = None;
        self.decode_update(
            interner.route_session(rec.collector, rec.peer),
            update.withdrawn.iter().copied(),
            announcement,
            interner,
            |interner, elem| {
                emit(match elem {
                    DenseElem::Withdraw { route } => DenseRouteEvent::Withdraw { route },
                    DenseElem::Update { route, crossings } => DenseRouteEvent::Update {
                        route,
                        crossings: Arc::clone(
                            shared.get_or_insert_with(|| interner.intern_crossings(crossings)),
                        ),
                    },
                })
            },
        );
    }

    /// Decodes a zero-copy [`UpdateView`] straight into dense-id space —
    /// the wire-to-dense path with no materialization step at all: hops
    /// are collapsed into the arena directly from the AS_PATH bytes,
    /// communities stream out of the attribute region, and prefixes
    /// decode one at a time from the NLRI regions. Event order, minted
    /// ids and statistics are byte-identical to materializing the frame
    /// into a [`BgpRecord`] and calling
    /// [`process_record_events`](Self::process_record_events).
    pub fn process_update_view_dense<F: for<'a> FnMut(DenseElem<'a>)>(
        &mut self,
        collector: CollectorId,
        peer: PeerId,
        update: &UpdateView<'_>,
        interner: &mut Interner,
        mut emit: F,
    ) {
        let path = update.as_path();
        let communities = update.communities();
        // Matches the materializing path's `attrs == None` normalization:
        // an update announcing nothing carries no meaningful attributes.
        let announcement = update.has_announcements().then(|| {
            (&path, communities.iter(), update.announced_v4().chain(update.mp_announced()))
        });
        self.decode_update(
            interner.route_session(collector, peer),
            update.withdrawn_v4().chain(update.mp_withdrawn()),
            announcement,
            interner,
            |_, elem| emit(elem),
        );
    }

    /// The one record-level decode body behind
    /// [`process_record_events`](Self::process_record_events) and
    /// [`process_update_view_dense`](Self::process_update_view_dense):
    /// every withdrawn prefix, then — for an `announcement` of (path,
    /// communities, prefixes) — one path verdict and one community
    /// mapping shared by every announced prefix. `emit` gets the interner
    /// back so a front-end can intern what it keeps.
    fn decode_update<P: PathSource>(
        &mut self,
        sess: RouteSession,
        withdrawn: impl Iterator<Item = Prefix>,
        announcement: Option<(&P, impl Iterator<Item = Community>, impl Iterator<Item = Prefix>)>,
        interner: &mut Interner,
        mut emit: impl for<'a> FnMut(&mut Interner, DenseElem<'a>),
    ) {
        for p in withdrawn {
            self.stats.elems += 1;
            let v = self.sanitizer.assess_prefix(&p);
            self.sanitizer.tally(v);
            if v.is_err() {
                self.stats.rejected += 1;
                continue;
            }
            let route = interner.route_id_in(sess, p);
            emit(interner, DenseElem::Withdraw { route });
        }
        let Some((path, communities, announced)) = announcement else { return };
        let mut hops = std::mem::take(&mut self.arena.hops);
        let path_verdict = path.assess(&self.sanitizer, &mut hops);
        let mut dense = std::mem::take(&mut self.arena.dense);
        dense.clear();
        let mut located = false;
        if path_verdict.is_ok() {
            let mut cross = std::mem::take(&mut self.arena.cross);
            self.map_communities_into(communities, &hops, &mut cross);
            located = !cross.is_empty();
            dense.extend(cross.iter().map(|c| interner.crossing(c)));
            self.arena.cross = cross;
        }
        for p in announced {
            self.stats.elems += 1;
            let v = path_verdict.and_then(|()| self.sanitizer.assess_prefix(&p));
            self.sanitizer.tally(v);
            if v.is_err() {
                self.stats.rejected += 1;
                continue;
            }
            if located {
                self.stats.located += 1;
            } else {
                self.stats.unlocated += 1;
            }
            let route = interner.route_id_in(sess, p);
            emit(interner, DenseElem::Update { route, crossings: &dense });
        }
        self.arena.hops = hops;
        self.arena.dense = dense;
    }

    /// Maps the communities of an announcement onto path crossings.
    pub fn map_crossings(&self, attrs: &PathAttributes, hops: &[Asn]) -> Vec<PopCrossing> {
        let mut out: Vec<PopCrossing> = Vec::new();
        self.map_communities_into(attrs.communities.iter().copied(), hops, &mut out);
        out
    }

    /// [`map_crossings`](Self::map_crossings) over any community source,
    /// into a caller-provided buffer (cleared first) — this is what lets
    /// the zero-copy path stream communities straight out of the
    /// attribute bytes.
    pub fn map_communities_into<I: IntoIterator<Item = Community>>(
        &self,
        communities: I,
        hops: &[Asn],
        out: &mut Vec<PopCrossing>,
    ) {
        out.clear();
        for c in communities {
            let c = &c;
            if let Some(tag) = self.dictionary.lookup(*c) {
                // Explicit location community: attribute to the matching hop.
                let asn = Asn(c.asn16() as u32);
                if let Some(i) = hops.iter().position(|h| *h == asn) {
                    if i + 1 < hops.len() {
                        let crossing = PopCrossing { pop: tag, near: hops[i], far: hops[i + 1] };
                        if !out.contains(&crossing) {
                            out.push(crossing);
                        }
                    }
                }
            } else if let Some(ixp) = self.dictionary.route_server(c.asn16()) {
                // Route-server community: find the adjacent member pair.
                let members = self.colo.members_of_ixp(ixp);
                for w in hops.windows(2) {
                    if members.contains(&w[0]) && members.contains(&w[1]) {
                        let crossing =
                            PopCrossing { pop: LocationTag::Ixp(ixp), near: w[0], far: w[1] };
                        if !out.contains(&crossing) {
                            out.push(crossing);
                        }
                        break;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kepler_bgp::{AsPath, BgpUpdate, Community, Prefix};
    use kepler_bgpstream::{BgpRecord, CollectorId, PeerId, RecordPayload};
    use kepler_topology::entities::{CityId, Facility, Ixp};
    use kepler_topology::{Continent, FacilityId, GeoPoint, IxpId};

    fn colo() -> ColocationMap {
        let mut m = ColocationMap::new();
        m.add_facility(Facility {
            id: FacilityId(0),
            name: "Telehouse East".into(),
            address: "x".into(),
            postcode: "E142AA".into(),
            country: "GB".into(),
            city: CityId(0),
            continent: Continent::Europe,
            point: GeoPoint::new(51.5, 0.0),
            operator: "Telehouse".into(),
        });
        m.add_ixp(Ixp {
            id: IxpId(0),
            name: "LINX".into(),
            url: "linx.net".into(),
            city: CityId(0),
            continent: Continent::Europe,
            route_server_asn: Some(Asn(8714)),
        });
        m.add_ixp_member(IxpId(0), Asn(13030));
        m.add_ixp_member(IxpId(0), Asn(20940));
        m
    }

    fn dict() -> CommunityDictionary {
        let mut d = CommunityDictionary::new();
        d.insert(Community::new(13030, 51702), LocationTag::Facility(FacilityId(0)));
        d.add_route_server(8714, IxpId(0));
        d
    }

    fn elem(attrs: PathAttributes) -> BgpElem {
        let rec = BgpRecord {
            time: 100,
            collector: CollectorId(0),
            peer: PeerId { asn: Asn(3356), addr: "10.0.0.1".parse().unwrap() },
            payload: RecordPayload::Update(BgpUpdate::announce(
                vec![Prefix::v4(184, 84, 242, 0, 24)],
                attrs,
            )),
        };
        rec.explode().pop().unwrap()
    }

    #[test]
    fn explicit_community_maps_to_hop_pair() {
        let mut input = InputModule::new(dict(), colo());
        let attrs = PathAttributes::with_path_and_communities(
            AsPath::from_sequence([3356, 13030, 20940]),
            vec![Community::new(13030, 51702)],
        );
        let ev = input.process(&elem(attrs)).unwrap();
        match ev {
            RouteEvent::Update { crossings, hops, .. } => {
                assert_eq!(crossings.len(), 1);
                assert_eq!(crossings[0].pop, LocationTag::Facility(FacilityId(0)));
                assert_eq!(crossings[0].near, Asn(13030));
                assert_eq!(crossings[0].far, Asn(20940));
                assert_eq!(hops.len(), 3);
            }
            _ => panic!("expected update"),
        }
        assert_eq!(input.stats().located, 1);
    }

    #[test]
    fn community_without_matching_hop_is_ignored() {
        let mut input = InputModule::new(dict(), colo());
        let attrs = PathAttributes::with_path_and_communities(
            AsPath::from_sequence([3356, 20940]),
            vec![Community::new(13030, 51702)], // 13030 not on path
        );
        match input.process(&elem(attrs)).unwrap() {
            RouteEvent::Update { crossings, .. } => assert!(crossings.is_empty()),
            _ => panic!(),
        }
        assert_eq!(input.stats().unlocated, 1);
    }

    #[test]
    fn origin_tagger_has_no_far_end() {
        let mut input = InputModule::new(dict(), colo());
        let attrs = PathAttributes::with_path_and_communities(
            AsPath::from_sequence([3356, 13030]), // 13030 is the origin
            vec![Community::new(13030, 51702)],
        );
        match input.process(&elem(attrs)).unwrap() {
            RouteEvent::Update { crossings, .. } => assert!(crossings.is_empty()),
            _ => panic!(),
        }
    }

    #[test]
    fn route_server_community_maps_member_pair() {
        let mut input = InputModule::new(dict(), colo());
        let attrs = PathAttributes::with_path_and_communities(
            AsPath::from_sequence([3356, 13030, 20940, 174]),
            vec![Community::new(8714, 1)],
        );
        match input.process(&elem(attrs)).unwrap() {
            RouteEvent::Update { crossings, .. } => {
                assert_eq!(crossings.len(), 1);
                assert_eq!(crossings[0].pop, LocationTag::Ixp(IxpId(0)));
                assert_eq!(crossings[0].near, Asn(13030));
                assert_eq!(crossings[0].far, Asn(20940));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn sanitization_rejects_loops_and_bogons() {
        let mut input = InputModule::new(dict(), colo());
        let attrs = PathAttributes::with_path_and_communities(
            AsPath::from_sequence([3356, 13030, 3356, 20940]),
            vec![],
        );
        assert!(input.process(&elem(attrs)).is_none());
        assert_eq!(input.stats().rejected, 1);
    }

    #[test]
    fn withdraw_passes_through() {
        let mut input = InputModule::new(dict(), colo());
        let rec = BgpRecord {
            time: 5,
            collector: CollectorId(1),
            peer: PeerId { asn: Asn(3356), addr: "10.0.0.1".parse().unwrap() },
            payload: RecordPayload::Update(BgpUpdate::withdraw(vec![Prefix::v4(
                184, 84, 242, 0, 24,
            )])),
        };
        let e = rec.explode().pop().unwrap();
        assert!(matches!(input.process(&e), Some(RouteEvent::Withdraw { .. })));
    }

    #[test]
    fn prepending_does_not_break_hop_matching() {
        let mut input = InputModule::new(dict(), colo());
        let attrs = PathAttributes::with_path_and_communities(
            AsPath::from_sequence([3356, 13030, 13030, 13030, 20940]),
            vec![Community::new(13030, 51702)],
        );
        match input.process(&elem(attrs)).unwrap() {
            RouteEvent::Update { crossings, .. } => {
                assert_eq!(crossings.len(), 1);
                assert_eq!(crossings[0].far, Asn(20940));
            }
            _ => panic!(),
        }
    }
}
