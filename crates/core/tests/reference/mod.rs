//! The decode reference: what
//! [`InputModule::process_record_events`](kepler_core::input::InputModule::process_record_events)
//! must emit for a record, transcribed from the module docs of
//! `kepler_core::input` and `kepler_bgp::sanitize` and sharing no code
//! with the record road. The record's UPDATE is materialized into an
//! owned update and exploded into one element per prefix. Each element is
//! sanitized, its communities attributed and its ids — crossing lists'
//! too — minted on its own, first-come in `BTreeMap`s.

use kepler_bgp::sanitize::{RejectReason, SanitizeStats};
use kepler_bgp::{AsPath, Asn, PathAttributes, Prefix};
use kepler_bgpstream::{BgpRecord, RecordPayload};
use kepler_core::events::RouteKey;
use kepler_core::input::{InputStats, PopCrossing};
use kepler_core::intern::{AsnId, DenseCrossing, DenseRouteEvent, ListId, PopId, RouteId};
use kepler_docmine::{CommunityDictionary, LocationTag};
use kepler_topology::ColocationMap;
use std::collections::{BTreeMap, BTreeSet};

/// The most collapsed hops a kept path may have.
const MAX_HOPS: usize = 64;

/// First-come dense ids: the next id on first sight of a key.
struct Ids<K> {
    ids: BTreeMap<K, u32>,
    order: Vec<K>,
}

impl<K: Ord + Clone> Ids<K> {
    fn new() -> Self {
        Ids { ids: BTreeMap::new(), order: Vec::new() }
    }

    fn id(&mut self, key: K) -> u32 {
        let next = self.order.len() as u32;
        *self.ids.entry(key.clone()).or_insert_with(|| {
            self.order.push(key);
            next
        })
    }
}

/// The reference decoder: its dictionary and map, the statistics it
/// counts, and the ids it has minted.
pub struct Reference {
    dictionary: CommunityDictionary,
    colo: ColocationMap,
    /// Per-element input statistics.
    pub stats: InputStats,
    /// Per-element sanitizer verdicts.
    pub sanitize: SanitizeStats,
    routes: Ids<RouteKey>,
    pops: Ids<LocationTag>,
    asns: Ids<Asn>,
    /// Crossing lists, as `(pop, near, far)` id triples.
    lists: Ids<Vec<(u32, u32, u32)>>,
}

impl Reference {
    pub fn new(dictionary: CommunityDictionary, colo: ColocationMap) -> Self {
        Reference {
            dictionary,
            colo,
            stats: InputStats::default(),
            sanitize: SanitizeStats::default(),
            routes: Ids::new(),
            pops: Ids::new(),
            asns: Ids::new(),
            lists: Ids::new(),
        }
    }

    /// The events of one record, in element order: withdrawn prefixes,
    /// then announced ones.
    pub fn decode(&mut self, rec: &BgpRecord) -> Vec<DenseRouteEvent> {
        let RecordPayload::Update(wire) = &rec.payload else { return Vec::new() };
        let update = wire.materialize();
        let key = |prefix| RouteKey { collector: rec.collector, peer: rec.peer, prefix };
        let withdrawn = update.withdrawn.iter().map(|&p| (key(p), None));
        let announced = (update.attrs.iter())
            .flat_map(|attrs| update.announced.iter().map(move |&p| (key(p), Some(attrs))));
        withdrawn.chain(announced).filter_map(|(key, attrs)| self.element(key, attrs)).collect()
    }

    /// Route keys by id.
    pub fn route_keys(&self) -> &[RouteKey] {
        &self.routes.order
    }

    /// PoP tags by id.
    pub fn pop_tags(&self) -> &[LocationTag] {
        &self.pops.order
    }

    /// ASNs by id.
    pub fn asns(&self) -> &[Asn] {
        &self.asns.order
    }

    /// One element: a withdrawal (`attrs` is `None`) or an announcement.
    fn element(
        &mut self,
        key: RouteKey,
        attrs: Option<&PathAttributes>,
    ) -> Option<DenseRouteEvent> {
        self.stats.elems += 1;
        let verdict = match attrs {
            Some(a) => path_rules(&a.as_path).and_then(|()| prefix_rules(&key.prefix)),
            None => prefix_rules(&key.prefix),
        };
        let counter = match verdict {
            Ok(()) => &mut self.sanitize.accepted,
            Err(RejectReason::EmptyAsPath) => &mut self.sanitize.empty_paths,
            Err(RejectReason::AsLoop) => &mut self.sanitize.as_loops,
            Err(RejectReason::SpecialPurposeAsn) => &mut self.sanitize.special_asns,
            Err(RejectReason::ExcessivePathLength) => &mut self.sanitize.long_paths,
            Err(RejectReason::BogonPrefix) => &mut self.sanitize.bogons,
            Err(RejectReason::UnconventionalPrefixLength) => &mut self.sanitize.bad_lengths,
        };
        *counter += 1;
        if verdict.is_err() {
            self.stats.rejected += 1;
            return None;
        }
        let Some(attrs) = attrs else {
            return Some(DenseRouteEvent::Withdraw { route: RouteId(self.routes.id(key)) });
        };
        let crossings = self.attribute(attrs);
        if crossings.is_empty() {
            self.stats.unlocated += 1;
        } else {
            self.stats.located += 1;
        }
        let dense: Vec<DenseCrossing> = (crossings.iter())
            .map(|c| DenseCrossing {
                pop: PopId(self.pops.id(c.pop)),
                near: AsnId(self.asns.id(c.near)),
                far: AsnId(self.asns.id(c.far)),
            })
            .collect();
        let route = RouteId(self.routes.id(key));
        let triples = dense.iter().map(|c| (c.pop.0, c.near.0, c.far.0)).collect();
        let list = ListId(self.lists.id(triples));
        Some(DenseRouteEvent::Update { route, list, crossings: dense.into() })
    }

    /// The crossings an announcement's communities name, in community
    /// order, each kept once.
    fn attribute(&self, attrs: &PathAttributes) -> Vec<PopCrossing> {
        let hops = collapse(&attrs.as_path);
        let mut out = Vec::new();
        for &community in &attrs.communities {
            let crossing = if let Some(pop) = self.dictionary.lookup(community) {
                let near = Asn(u32::from(community.asn16()));
                let at = hops.iter().position(|&h| h == near);
                at.and_then(|i| hops.get(i + 1)).map(|&far| PopCrossing { pop, near, far })
            } else if let Some(ixp) = self.dictionary.route_server(community.asn16()) {
                let members = self.colo.members_of_ixp(ixp);
                let pair = hops.windows(2).find(|w| w.iter().all(|a| members.contains(a)));
                pair.map(|w| PopCrossing { pop: LocationTag::Ixp(ixp), near: w[0], far: w[1] })
            } else {
                None
            };
            if let Some(c) = crossing.filter(|c| !out.contains(c)) {
                out.push(c);
            }
        }
        out
    }
}

/// The path's ASNs with consecutive repeats (prepending) merged.
fn collapse(path: &AsPath) -> Vec<Asn> {
    let mut hops: Vec<Asn> = path.asns().collect();
    hops.dedup();
    hops
}

/// Rules 1–4: empty path, loop, special-purpose ASN, length.
fn path_rules(path: &AsPath) -> Result<(), RejectReason> {
    let hops = collapse(path);
    if path.asns().next().is_none() {
        Err(RejectReason::EmptyAsPath)
    } else if hops.iter().collect::<BTreeSet<_>>().len() < hops.len() {
        Err(RejectReason::AsLoop)
    } else if path.asns().any(Asn::is_special_purpose) {
        Err(RejectReason::SpecialPurposeAsn)
    } else if hops.len() > MAX_HOPS {
        Err(RejectReason::ExcessivePathLength)
    } else {
        Ok(())
    }
}

/// Rules 5–6: bogon, then unconventional length.
fn prefix_rules(prefix: &Prefix) -> Result<(), RejectReason> {
    if prefix.is_bogon() {
        Err(RejectReason::BogonPrefix)
    } else if !prefix.is_conventional_size() {
        Err(RejectReason::UnconventionalPrefixLength)
    } else {
        Ok(())
    }
}
