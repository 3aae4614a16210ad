//! Input module (paper §4.1): sanitization plus community→PoP mapping.
//!
//! One record's UPDATE is read as its elements, one per prefix: the
//! withdrawn prefixes, then the announced ones, each in wire order (the
//! IPv4 fields before MP_UNREACH / MP_REACH). Each element is sanitized
//! by the rules of [`kepler_bgp::sanitize`]. An announcement that
//! survives is mapped onto crossings over its collapsed hops (prepending
//! merged), community by community in attribute order, keeping the
//! first occurrence of each crossing:
//!
//! * An **explicit** location community (in the dictionary) is
//!   attributed to the first hop whose ASN equals the community's top 16
//!   bits. That hop is the *near-end* AS that received the route at the
//!   tagged location; the next hop toward the origin is the *far-end*
//!   neighbor. A community whose AS is absent from the path, or is the
//!   origin (no far end), yields nothing.
//! * Otherwise, a **route-server** community (top 16 bits an RS ASN,
//!   which never appears in the path) yields the first adjacent hop pair
//!   that are both members of that IXP, near then far: the method of
//!   Giotsas & Zhou \[51\].
//!
//! Identities become dense ids first-come ([`Interner`]): a kept
//! withdrawal mints its route; a kept announcement mints its crossings'
//! PoP, near and far ASN ids in crossing order, then its route.

use crate::intern::{DenseCrossing, DenseRouteEvent, Interner};
use kepler_bgp::sanitize::{self, SanitizeStats};
use kepler_bgp::{Asn, Community};
use kepler_bgpstream::{BgpRecord, RecordPayload};
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

/// Recycled per-record scratch arena for the record-level decode. One
/// arena lives inside each [`InputModule`]; every record-level decode
/// *resets* the buffers (length to zero, capacity kept), so after warm-up
/// the per-record allocation count is zero.
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
    sanitize: SanitizeStats,
    stats: InputStats,
    arena: RecordArena,
}

impl InputModule {
    /// Builds an input module around a dictionary and colocation map.
    pub fn new(dictionary: CommunityDictionary, colo: ColocationMap) -> Self {
        InputModule {
            dictionary,
            colo,
            sanitize: SanitizeStats::default(),
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
        &self.sanitize
    }

    /// Decodes one whole record into owned [`DenseRouteEvent`]s, in
    /// element order, straight from its UPDATE's wire bytes through the
    /// span table the read kept
    /// ([`WireUpdate::view`](kepler_bgp::mrt::WireUpdate::view)): hops
    /// collapse into the arena from the AS_PATH bytes, communities stream
    /// out of the attribute region, prefixes decode one at a time from
    /// the NLRI regions, the path is sanitized and its communities mapped
    /// **once per update**, and every announced prefix shares one cached
    /// `Arc` per distinct crossing set (see
    /// [`Interner::intern_crossings`]). Statistics (both [`InputStats`]
    /// and [`SanitizeStats`]) are accounted per element. State records
    /// yield nothing (they are the
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
        let update = update.view();
        let sess = interner.route_session(rec.collector, rec.peer);
        for p in update.withdrawn_v4().chain(update.mp_withdrawn()) {
            self.stats.elems += 1;
            let v = sanitize::prefix_verdict(&p);
            self.sanitize.tally(v);
            if v.is_err() {
                self.stats.rejected += 1;
                continue;
            }
            emit(DenseRouteEvent::Withdraw { route: interner.route_id_in(sess, p) });
        }
        // An update announcing nothing carries no meaningful attributes.
        if !update.has_announcements() {
            return;
        }
        let mut hops = std::mem::take(&mut self.arena.hops);
        update.as_path().hops_into(&mut hops);
        let path_verdict = sanitize::path_verdict(&hops);
        let mut cross = std::mem::take(&mut self.arena.cross);
        cross.clear();
        if path_verdict.is_ok() {
            self.map_communities_into(update.communities().iter(), &hops, &mut cross);
        }
        let located = !cross.is_empty();
        let mut dense = std::mem::take(&mut self.arena.dense);
        dense.clear();
        // One update carries one crossing set: interned on first use.
        let mut shared = None;
        for p in update.announced_v4().chain(update.mp_announced()) {
            self.stats.elems += 1;
            let v = path_verdict.and_then(|()| sanitize::prefix_verdict(&p));
            self.sanitize.tally(v);
            if v.is_err() {
                self.stats.rejected += 1;
                continue;
            }
            if located {
                self.stats.located += 1;
            } else {
                self.stats.unlocated += 1;
            }
            // Crossings are interned with the first prefix that survives:
            // a record whose every prefix is rejected mints no pop or ASN
            // ids.
            if dense.len() < cross.len() {
                dense.extend(cross.iter().map(|c| interner.crossing(c)));
            }
            let route = interner.route_id_in(sess, p);
            let (list, crossings) = shared.get_or_insert_with(|| interner.intern_crossings(&dense));
            emit(DenseRouteEvent::Update { route, list: *list, crossings: Arc::clone(crossings) });
        }
        self.arena.hops = hops;
        self.arena.cross = cross;
        self.arena.dense = dense;
    }

    /// Maps an announcement's communities onto crossings over its
    /// collapsed `hops` by the rules in the module docs, into `out`
    /// (cleared first); the record road streams the communities straight
    /// out of the attribute bytes.
    fn map_communities_into<I: IntoIterator<Item = Community>>(
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
    use kepler_bgp::mrt::WireUpdate;
    use kepler_bgp::{AsPath, BgpUpdate, PathAttributes, Prefix};
    use kepler_bgpstream::{CollectorId, PeerId};
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

    /// The events one record carrying `update` decodes to, crossings
    /// resolved: `Some(crossings)` per announcement, `None` per withdrawal.
    fn decode(input: &mut InputModule, update: BgpUpdate) -> Vec<Option<Vec<PopCrossing>>> {
        let rec = BgpRecord {
            time: 100,
            collector: CollectorId(0),
            peer: PeerId { asn: Asn(3356), addr: "10.0.0.1".parse().unwrap() },
            payload: RecordPayload::Update(WireUpdate::encode(&update).unwrap()),
        };
        let mut interner = Interner::new();
        let mut events = Vec::new();
        input.process_record_events(&rec, &mut interner, |ev| events.push(ev));
        let resolve = |c: &DenseCrossing| PopCrossing {
            pop: interner.pop_tag(c.pop),
            near: interner.asn(c.near),
            far: interner.asn(c.far),
        };
        events
            .iter()
            .map(|ev| match ev {
                DenseRouteEvent::Update { crossings, .. } => {
                    Some(crossings.iter().map(resolve).collect())
                }
                DenseRouteEvent::Withdraw { .. } => None,
            })
            .collect()
    }

    /// The crossings of one announcement of 184.84.242.0/24 with `attrs`.
    fn announce(input: &mut InputModule, attrs: PathAttributes) -> Vec<PopCrossing> {
        match &decode(input, BgpUpdate::announce(vec![Prefix::v4(184, 84, 242, 0, 24)], attrs))[..]
        {
            [Some(crossings)] => crossings.clone(),
            other => panic!("expected one update, got {other:?}"),
        }
    }

    #[test]
    fn explicit_community_maps_to_hop_pair() {
        let mut input = InputModule::new(dict(), colo());
        let attrs = PathAttributes::with_path_and_communities(
            AsPath::from_sequence([3356, 13030, 20940]),
            vec![Community::new(13030, 51702)],
        );
        let crossings = announce(&mut input, attrs);
        assert_eq!(crossings.len(), 1);
        assert_eq!(crossings[0].pop, LocationTag::Facility(FacilityId(0)));
        assert_eq!(crossings[0].near, Asn(13030));
        assert_eq!(crossings[0].far, Asn(20940));
        assert_eq!(input.arena.hops.len(), 3);
        assert_eq!(input.stats().located, 1);
    }

    #[test]
    fn community_without_matching_hop_is_ignored() {
        let mut input = InputModule::new(dict(), colo());
        let attrs = PathAttributes::with_path_and_communities(
            AsPath::from_sequence([3356, 20940]),
            vec![Community::new(13030, 51702)], // 13030 not on path
        );
        assert!(announce(&mut input, attrs).is_empty());
        assert_eq!(input.stats().unlocated, 1);
    }

    #[test]
    fn origin_tagger_has_no_far_end() {
        let mut input = InputModule::new(dict(), colo());
        let attrs = PathAttributes::with_path_and_communities(
            AsPath::from_sequence([3356, 13030]), // 13030 is the origin
            vec![Community::new(13030, 51702)],
        );
        assert!(announce(&mut input, attrs).is_empty());
    }

    #[test]
    fn route_server_community_maps_member_pair() {
        let mut input = InputModule::new(dict(), colo());
        let attrs = PathAttributes::with_path_and_communities(
            AsPath::from_sequence([3356, 13030, 20940, 174]),
            vec![Community::new(8714, 1)],
        );
        let crossings = announce(&mut input, attrs);
        assert_eq!(crossings.len(), 1);
        assert_eq!(crossings[0].pop, LocationTag::Ixp(IxpId(0)));
        assert_eq!(crossings[0].near, Asn(13030));
        assert_eq!(crossings[0].far, Asn(20940));
    }

    #[test]
    fn sanitization_rejects_loops_and_bogons() {
        let mut input = InputModule::new(dict(), colo());
        let attrs = PathAttributes::with_path_and_communities(
            AsPath::from_sequence([3356, 13030, 3356, 20940]),
            vec![],
        );
        let update = BgpUpdate::announce(vec![Prefix::v4(184, 84, 242, 0, 24)], attrs);
        assert!(decode(&mut input, update).is_empty());
        assert_eq!(input.stats().rejected, 1);
    }

    #[test]
    fn withdraw_passes_through() {
        let mut input = InputModule::new(dict(), colo());
        let update = BgpUpdate::withdraw(vec![Prefix::v4(184, 84, 242, 0, 24)]);
        assert_eq!(decode(&mut input, update), vec![None]);
    }

    #[test]
    fn prepending_does_not_break_hop_matching() {
        let mut input = InputModule::new(dict(), colo());
        let attrs = PathAttributes::with_path_and_communities(
            AsPath::from_sequence([3356, 13030, 13030, 13030, 20940]),
            vec![Community::new(13030, 51702)],
        );
        let crossings = announce(&mut input, attrs);
        assert_eq!(crossings.len(), 1);
        assert_eq!(crossings[0].far, Asn(20940));
    }
}
