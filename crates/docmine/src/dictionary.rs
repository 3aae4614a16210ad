//! The mined community dictionary and the mining pipeline itself.

use crate::corpus::Document;
use crate::extract::{extract_communities, strip_communities};
use crate::ner::{Entity, EntityRecognizer};
use crate::pos::{classify, Voice};
use crate::scheme::{CommunityScheme, SchemeTarget};
use kepler_bgp::fx::FxHashMap;
use kepler_bgp::{Asn, Community};
use kepler_topology::{CityGazetteer, CityId, ColocationMap, FacilityId, IxpId};
use std::collections::{BTreeSet, HashMap};

/// What a dictionary entry geolocates (paper §3.2: "we only keep
/// communities that tag three types of Named Entities: (i) city-level
/// locations, (ii) IXPs, and (iii) colocation facilities").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LocationTag {
    /// City-granularity ingress.
    City(CityId),
    /// Facility-granularity ingress.
    Facility(FacilityId),
    /// IXP-granularity ingress.
    Ixp(IxpId),
}

/// One dictionary entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DictEntry {
    /// The community value.
    pub community: Community,
    /// Its location meaning.
    pub tag: LocationTag,
}

/// Headline statistics, mirroring the paper's §3.2 numbers (5,284
/// communities by 468 ASes and 48 route servers; 288 cities, 172 IXPs,
/// 103 facilities).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DictionaryStats {
    /// Location communities in the dictionary.
    pub communities: usize,
    /// Distinct tagging ASes.
    pub ases: usize,
    /// Route servers whose redistribution communities are known.
    pub route_servers: usize,
    /// Distinct cities covered.
    pub cities: usize,
    /// Distinct countries covered.
    pub countries: usize,
    /// Distinct IXPs covered (via IXP tags or route servers).
    pub ixps: usize,
    /// Distinct facilities covered.
    pub facilities: usize,
}

/// The community dictionary: community value → location meaning, plus IXP
/// route-server redistribution communities.
#[derive(Debug, Clone, Default)]
pub struct CommunityDictionary {
    /// Community → location; probed per community on the decode path.
    /// Every consumer of [`entries`](Self::entries) is an order-free fold.
    entries: FxHashMap<Community, LocationTag>,
    /// Route-server ASN → IXP; looked up per community on the decode
    /// path, never iterated into an output.
    route_servers: FxHashMap<u16, IxpId>,
}

impl CommunityDictionary {
    /// Empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts one entry (last write wins, as in a re-mined dictionary).
    pub fn insert(&mut self, community: Community, tag: LocationTag) {
        self.entries.insert(community, tag);
    }

    /// Registers an IXP route server: any community whose top 16 bits are
    /// the route server's ASN marks the route as having traversed the IXP.
    pub fn add_route_server(&mut self, rs_asn16: u16, ixp: IxpId) {
        self.route_servers.insert(rs_asn16, ixp);
    }

    /// Imports all route servers known to the colocation map.
    pub fn add_route_servers_from(&mut self, map: &ColocationMap) {
        for ixp in map.ixps() {
            if let Some(rs) = ixp.route_server_asn {
                if rs.is_16bit() {
                    self.add_route_server(rs.0 as u16, ixp.id);
                }
            }
        }
    }

    /// Looks up the explicit location entry for a community.
    pub fn lookup(&self, community: Community) -> Option<LocationTag> {
        self.entries.get(&community).copied()
    }

    /// Looks up a community considering route-server semantics too: an
    /// unknown value from a registered route-server ASN still reveals the
    /// IXP that redistributed the route.
    pub fn locate(&self, community: Community) -> Option<LocationTag> {
        self.lookup(community)
            .or_else(|| self.route_server(community.asn16()).map(LocationTag::Ixp))
    }

    /// Whether the dictionary covers any community of `asn16`.
    pub fn covers_asn(&self, asn16: u16) -> bool {
        self.entries.keys().any(|c| c.asn16() == asn16) || self.route_servers.contains_key(&asn16)
    }

    /// Iterates all explicit entries, in no particular order.
    pub fn entries(&self) -> impl Iterator<Item = DictEntry> + '_ {
        self.entries.iter().map(|(&community, &tag)| DictEntry { community, tag })
    }

    /// Number of explicit entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dictionary has no explicit entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The IXP whose route server is `asn16`, if one is registered.
    pub fn route_server(&self, asn16: u16) -> Option<IxpId> {
        self.route_servers.get(&asn16).copied()
    }

    /// Headline statistics (countries derived through the gazetteer).
    pub fn stats(&self, gazetteer: &CityGazetteer, map: &ColocationMap) -> DictionaryStats {
        let mut ases: BTreeSet<u16> = BTreeSet::new();
        let mut cities: BTreeSet<CityId> = BTreeSet::new();
        let mut countries: BTreeSet<String> = BTreeSet::new();
        let mut ixps: BTreeSet<IxpId> = BTreeSet::new();
        let mut facilities: BTreeSet<FacilityId> = BTreeSet::new();
        for (c, tag) in &self.entries {
            ases.insert(c.asn16());
            match tag {
                LocationTag::City(city) => {
                    cities.insert(*city);
                    if let Some(gc) = gazetteer.by_index(city.0 as usize) {
                        countries.insert(gc.country.to_string());
                    }
                }
                LocationTag::Facility(f) => {
                    facilities.insert(*f);
                    if let Some(fac) = map.facility(*f) {
                        cities.insert(fac.city);
                        countries.insert(fac.country.clone());
                    }
                }
                LocationTag::Ixp(x) => {
                    ixps.insert(*x);
                    if let Some(ixp) = map.ixp(*x) {
                        cities.insert(ixp.city);
                        if let Some(gc) = gazetteer.by_index(ixp.city.0 as usize) {
                            countries.insert(gc.country.to_string());
                        }
                    }
                }
            }
        }
        for (_, ixp) in self.route_servers.iter() {
            ixps.insert(*ixp);
        }
        DictionaryStats {
            communities: self.entries.len(),
            ases: ases.len(),
            route_servers: self.route_servers.len(),
            cities: cities.len(),
            countries: countries.len(),
            ixps: ixps.len(),
            facilities: facilities.len(),
        }
    }
}

/// The mining pipeline: documents → dictionary.
pub struct DictionaryMiner {
    recognizer: EntityRecognizer,
}

/// Counters describing one mining run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MiningStats {
    /// Lines scanned.
    pub lines: usize,
    /// Lines dropped as outbound/action documentation.
    pub outbound_dropped: usize,
    /// Lines with a community but no recognizable entity.
    pub unrecognized: usize,
    /// Entries admitted to the dictionary.
    pub admitted: usize,
    /// Communities whose top 16 bits did not match the documenting AS.
    pub foreign_asn_dropped: usize,
}

impl DictionaryMiner {
    /// Builds a miner whose entity tables come from the colocation map.
    pub fn new(map: &ColocationMap, gazetteer: &CityGazetteer) -> Self {
        DictionaryMiner { recognizer: EntityRecognizer::from_colomap(map, gazetteer) }
    }

    /// Mines a corpus into a dictionary.
    pub fn mine(&self, docs: &[Document]) -> (CommunityDictionary, MiningStats) {
        let mut dict = CommunityDictionary::new();
        let mut stats = MiningStats::default();
        for doc in docs {
            if !doc.asn.is_16bit() {
                continue;
            }
            let doc_asn16 = doc.asn.0 as u16;
            for raw_line in doc.text.lines() {
                let line = raw_line.strip_prefix("remarks:").unwrap_or(raw_line).trim();
                stats.lines += 1;
                let found = extract_communities(line);
                if found.is_empty() {
                    continue;
                }
                match classify(line) {
                    Voice::Outbound => {
                        stats.outbound_dropped += 1;
                        continue;
                    }
                    Voice::Inbound | Voice::Unknown => {}
                }
                let Some(entity) = self.recognizer.recognize(&strip_communities(line)) else {
                    stats.unrecognized += 1;
                    continue;
                };
                let tag = match entity {
                    Entity::Facility(f) => LocationTag::Facility(f),
                    Entity::Ixp(x) => LocationTag::Ixp(x),
                    Entity::City(idx) => LocationTag::City(CityId(idx as u32)),
                };
                for e in found {
                    if e.community.asn16() != doc_asn16 {
                        stats.foreign_asn_dropped += 1;
                        continue;
                    }
                    dict.insert(e.community, tag);
                    stats.admitted += 1;
                }
            }
        }
        (dict, stats)
    }
}

/// Outcome of validating a mined dictionary against ground truth
/// (paper §3.2: the manual-vs-automatic dictionary comparison found
/// neither false positives nor false negatives on the top-25 ASes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValidationReport {
    /// Mined entries matching ground truth exactly.
    pub true_positives: usize,
    /// Mined entries whose tag disagrees with ground truth.
    pub wrong_tag: usize,
    /// Mined entries with no ground-truth counterpart.
    pub false_positives: usize,
    /// Documented ground-truth entries the miner missed.
    pub false_negatives: usize,
}

impl ValidationReport {
    /// Precision over mined entries.
    pub fn precision(&self) -> f64 {
        let mined = self.true_positives + self.wrong_tag + self.false_positives;
        if mined == 0 {
            return 1.0;
        }
        self.true_positives as f64 / mined as f64
    }

    /// Recall over documented ground truth.
    pub fn recall(&self) -> f64 {
        let truth = self.true_positives + self.false_negatives + self.wrong_tag;
        if truth == 0 {
            return 1.0;
        }
        self.true_positives as f64 / truth as f64
    }
}

/// Validates `dict` against ground-truth schemes.
pub fn validate(dict: &CommunityDictionary, schemes: &[CommunityScheme]) -> ValidationReport {
    let mut report = ValidationReport::default();
    let mut truth: HashMap<Community, LocationTag> = HashMap::new();
    for s in schemes {
        if !s.documented || !s.asn.is_16bit() {
            continue;
        }
        for (c, t) in s.communities() {
            let tag = match t {
                SchemeTarget::City { city, .. } => LocationTag::City(*city),
                SchemeTarget::Facility { id, .. } => LocationTag::Facility(*id),
                SchemeTarget::Ixp { id, .. } => LocationTag::Ixp(*id),
            };
            truth.insert(c, tag);
        }
    }
    for entry in dict.entries() {
        match truth.get(&entry.community) {
            Some(t) if *t == entry.tag => report.true_positives += 1,
            Some(_) => report.wrong_tag += 1,
            None => report.false_positives += 1,
        }
    }
    for c in truth.keys() {
        if dict.lookup(*c).is_none() {
            report.false_negatives += 1;
        }
    }
    report
}

/// Scheme-driven ground-truth dictionary: what a perfect miner would
/// produce. Used by ablations and by the simulator's own tagging layer.
pub fn dictionary_from_schemes(
    schemes: &[CommunityScheme],
    include_undocumented: bool,
) -> CommunityDictionary {
    let mut dict = CommunityDictionary::new();
    for s in schemes {
        if !s.asn.is_16bit() || (!s.documented && !include_undocumented) {
            continue;
        }
        for (c, t) in s.communities() {
            let tag = match t {
                SchemeTarget::City { city, .. } => LocationTag::City(*city),
                SchemeTarget::Facility { id, .. } => LocationTag::Facility(*id),
                SchemeTarget::Ixp { id, .. } => LocationTag::Ixp(*id),
            };
            dict.insert(c, tag);
        }
    }
    dict
}

/// Convenience: the ASN type used across the crate.
pub type OperatorAsn = Asn;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::render_corpus;
    use crate::scheme::{DocStyle, SchemeEntry};
    use kepler_topology::entities::{Facility, Ixp};
    use kepler_topology::{Continent, GeoPoint};

    fn world() -> (ColocationMap, CityGazetteer) {
        let g = CityGazetteer::new();
        let london = g.geocode("London").unwrap() as u32;
        let la = g.geocode("Los Angeles").unwrap() as u32;
        let mut m = ColocationMap::new();
        m.add_facility(Facility {
            id: FacilityId(0),
            name: "Coresite LAX1".into(),
            address: "624 S Grand Ave".into(),
            postcode: "90017".into(),
            country: "US".into(),
            city: CityId(la),
            continent: Continent::NorthAmerica,
            point: GeoPoint::new(34.04, -118.25),
            operator: "Coresite".into(),
        });
        m.add_ixp(Ixp {
            id: IxpId(0),
            name: "LINX".into(),
            url: "linx.net".into(),
            city: CityId(london),
            continent: Continent::Europe,
            route_server_asn: Some(Asn(8714)),
        });
        (m, g)
    }

    fn scheme(g: &CityGazetteer) -> CommunityScheme {
        let london = g.geocode("London").unwrap() as u32;
        CommunityScheme {
            asn: Asn(13030),
            entries: vec![
                SchemeEntry {
                    value: 51904,
                    target: SchemeTarget::Facility {
                        name: "Coresite LAX1".into(),
                        id: FacilityId(0),
                    },
                },
                SchemeEntry {
                    value: 4006,
                    target: SchemeTarget::Ixp { name: "LINX".into(), id: IxpId(0) },
                },
                SchemeEntry {
                    value: 51702,
                    target: SchemeTarget::City { ident: "London".into(), city: CityId(london) },
                },
            ],
            action_values: vec![9003, 666],
            documented: true,
            style: DocStyle::IrrRemarks,
        }
    }

    #[test]
    fn end_to_end_mining_recovers_scheme() {
        let (map, g) = world();
        let schemes = vec![scheme(&g)];
        let docs = render_corpus(&schemes, 11);
        let miner = DictionaryMiner::new(&map, &g);
        let (dict, stats) = miner.mine(&docs);
        assert_eq!(dict.len(), 3, "all three location values mined: {stats:?}");
        assert_eq!(
            dict.lookup(Community::new(13030, 51904)),
            Some(LocationTag::Facility(FacilityId(0)))
        );
        assert_eq!(dict.lookup(Community::new(13030, 4006)), Some(LocationTag::Ixp(IxpId(0))));
        assert!(matches!(dict.lookup(Community::new(13030, 51702)), Some(LocationTag::City(_))));
        // Action values must not leak in.
        assert_eq!(dict.lookup(Community::new(13030, 9003)), None);
        assert!(stats.outbound_dropped >= 1);
        let report = validate(&dict, &schemes);
        assert_eq!(report.false_positives, 0);
        assert_eq!(report.false_negatives, 0);
        assert_eq!(report.wrong_tag, 0);
        assert!((report.precision() - 1.0).abs() < 1e-9);
        assert!((report.recall() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn route_server_semantics() {
        let (map, g) = world();
        let mut dict = CommunityDictionary::new();
        dict.add_route_servers_from(&map);
        assert_eq!(dict.locate(Community::new(8714, 12345)), Some(LocationTag::Ixp(IxpId(0))));
        assert_eq!(dict.lookup(Community::new(8714, 12345)), None, "not an explicit entry");
        assert_eq!(dict.route_server(8714), Some(IxpId(0)));
        assert_eq!(dict.route_server(8715), None);
        assert!(dict.covers_asn(8714));
        let _ = g;
    }

    #[test]
    fn stats_count_distinct_entities() {
        let (map, g) = world();
        let schemes = vec![scheme(&g)];
        let dict = dictionary_from_schemes(&schemes, false);
        let stats = dict.stats(&g, &map);
        assert_eq!(stats.communities, 3);
        assert_eq!(stats.ases, 1);
        assert_eq!(stats.facilities, 1);
        assert_eq!(stats.ixps, 1);
        assert!(stats.cities >= 2, "London + LA");
        assert!(stats.countries >= 2);
    }

    #[test]
    fn undocumented_schemes_are_invisible_to_mining_but_available_as_truth() {
        let (_, g) = world();
        let mut s = scheme(&g);
        s.documented = false;
        let docs = render_corpus(&[s.clone()], 3);
        assert!(docs.is_empty());
        let truth = dictionary_from_schemes(&[s], true);
        assert_eq!(truth.len(), 3);
    }
}
