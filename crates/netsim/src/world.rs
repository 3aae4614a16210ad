//! The generated ground-truth world: physical infrastructure, AS ecosystem,
//! peering fabric, community schemes and colocation-source snapshots.

use kepler_bgp::{Asn, Prefix};
use kepler_docmine::scheme::{CommunityScheme, DocStyle, SchemeEntry, SchemeTarget};
use kepler_topology::entities::{AsInfo, AsType, CityId, Facility, FacilityId, Ixp, IxpId};
use kepler_topology::geo::{CityGazetteer, Continent};
use kepler_topology::merge::merge_snapshots;
use kepler_topology::sources::{ColoSnapshot, SourceFacility, SourceIxp};
use kepler_topology::{ColocationMap, OrgMap};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::IpAddr;

/// Dense AS index into [`World::ases`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AsIdx(pub u32);

/// Dense prefix index into [`World::prefixes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PrefixIdx(pub u32);

/// Dense adjacency index into [`World::adjacencies`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AdjIdx(pub u32);

/// Business relationship of adjacency endpoint `a` toward `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// `a` is a customer of `b` (a pays b for transit).
    C2P,
    /// Settlement-free peers.
    P2P,
}

/// Where one side of a physical link instance attaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortLoc {
    /// Facility of the port; `None` only for the remote side of remote
    /// peering reached through an L2 reseller.
    pub facility: Option<FacilityId>,
    /// IXP fabric the port is on, if this is public peering.
    pub ixp: Option<IxpId>,
}

/// One physical instantiation of an AS-level adjacency. Adjacencies may
/// have several (PNI in two cities, plus a public session), ordered by
/// preference: when instance *i* fails, traffic shifts to instance *i+1*
/// without any AS-path change — exactly the implicit-withdrawal signal
/// Kepler keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdjInstance {
    /// Attachment of endpoint `a`.
    pub a_side: PortLoc,
    /// Attachment of endpoint `b`.
    pub b_side: PortLoc,
    /// Route-server ASN when this is multilateral peering.
    pub via_rs: Option<Asn>,
}

/// An AS-level adjacency with its physical instantiations.
#[derive(Debug, Clone)]
pub struct Adjacency {
    /// First endpoint.
    pub a: AsIdx,
    /// Second endpoint.
    pub b: AsIdx,
    /// Relationship of `a` toward `b`.
    pub rel: Rel,
    /// Physical instances in preference order (never empty).
    pub instances: Vec<AdjInstance>,
}

impl Adjacency {
    /// The other endpoint as seen from `from`.
    pub fn other(&self, from: AsIdx) -> AsIdx {
        if from == self.a {
            self.b
        } else {
            self.a
        }
    }
}

/// One AS in the generated world.
#[derive(Debug, Clone)]
pub struct AsNode {
    /// The AS number.
    pub asn: Asn,
    /// Directory info (type, name, home city).
    pub info: AsInfo,
    /// Facilities the AS is a tenant of (ground truth).
    pub facilities: Vec<FacilityId>,
    /// IXPs joined locally (via a facility hosting the fabric).
    pub local_ixps: Vec<IxpId>,
    /// IXPs joined remotely through an L2 reseller.
    pub remote_ixps: Vec<IxpId>,
    /// Prefixes originated.
    pub prefixes: Vec<PrefixIdx>,
    /// The community scheme, if this operator tags ingress locations.
    pub scheme: Option<CommunityScheme>,
    /// Whether the operator also tags IPv6 routes (v6 tagging lags v4;
    /// drives the paper's 50% v4 vs 30% v6 coverage split).
    pub tags_v6: bool,
    /// Adjacency list: (neighbor, adjacency id).
    pub neighbors: Vec<(AsIdx, AdjIdx)>,
}

/// Generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldConfig {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Tier-1 backbone count.
    pub n_tier1: usize,
    /// Tier-2 transit count.
    pub n_tier2: usize,
    /// Content/CDN count.
    pub n_content: usize,
    /// Eyeball/access count.
    pub n_eyeball: usize,
    /// Stub/enterprise count.
    pub n_stub: usize,
    /// Facilities per continent, in [`Continent::ALL`] order. The paper's
    /// Table 1 "All" column is (878, 529, 233, 76, 26).
    pub facilities_per_continent: [usize; 5],
    /// Total IXP count (assigned to cities, biased to Europe).
    pub n_ixps: usize,
    /// Max facilities one IXP fabric spans (DE-CIX Frankfurt: 12).
    pub max_ixp_facilities: usize,
    /// Per-member cap of bilateral peers picked at each IXP.
    pub ixp_peers_per_member: usize,
    /// Probability a facility-colocated pair with peering incentive gets a
    /// PNI.
    pub pni_rate: f64,
    /// Fraction of IXP memberships that are remote (paper cites ≈20% at
    /// large IXPs).
    pub remote_peering_rate: f64,
    /// Probability that a scheme-holding operator documents it publicly.
    pub documentation_rate: f64,
    /// Probability that a scheme holder also tags IPv6.
    pub v6_tagging_rate: f64,
}

impl WorldConfig {
    /// Tiny world for unit tests (fast, still exercises every feature).
    pub fn tiny(seed: u64) -> Self {
        WorldConfig {
            seed,
            n_tier1: 3,
            n_tier2: 10,
            n_content: 8,
            n_eyeball: 14,
            n_stub: 25,
            facilities_per_continent: [18, 10, 5, 2, 1],
            n_ixps: 6,
            max_ixp_facilities: 3,
            ixp_peers_per_member: 4,
            pni_rate: 0.5,
            remote_peering_rate: 0.2,
            documentation_rate: 0.9,
            v6_tagging_rate: 0.6,
        }
    }

    /// Mid-size world for integration tests and case-study scenarios.
    pub fn small(seed: u64) -> Self {
        WorldConfig {
            seed,
            n_tier1: 8,
            n_tier2: 60,
            n_content: 40,
            n_eyeball: 120,
            n_stub: 300,
            facilities_per_continent: [180, 110, 50, 16, 6],
            n_ixps: 40,
            max_ixp_facilities: 6,
            ixp_peers_per_member: 5,
            pni_rate: 0.35,
            remote_peering_rate: 0.2,
            documentation_rate: 0.9,
            v6_tagging_rate: 0.6,
        }
    }

    /// Paper-scale world: Table 1's facility census (1,742 facilities)
    /// and a few thousand ASes.
    pub fn paper_scale(seed: u64) -> Self {
        WorldConfig {
            seed,
            n_tier1: 12,
            n_tier2: 250,
            n_content: 150,
            n_eyeball: 500,
            n_stub: 1300,
            facilities_per_continent: [878, 529, 233, 76, 26],
            n_ixps: 300,
            max_ixp_facilities: 12,
            ixp_peers_per_member: 5,
            pni_rate: 0.3,
            remote_peering_rate: 0.2,
            documentation_rate: 0.9,
            v6_tagging_rate: 0.6,
        }
    }
}

/// The generated world.
#[derive(Debug, Clone)]
pub struct World {
    /// Generation parameters.
    pub config: WorldConfig,
    /// The shared gazetteer.
    pub gazetteer: CityGazetteer,
    /// Ground-truth colocation map (simulator's view).
    pub colo: ColocationMap,
    /// AS-to-organization map (with generated sibling groups).
    pub orgs: OrgMap,
    /// All ASes; `AsIdx` indexes this.
    pub ases: Vec<AsNode>,
    /// ASN → index.
    pub asn_to_idx: HashMap<Asn, AsIdx>,
    /// All adjacencies; `AdjIdx` indexes this.
    pub adjacencies: Vec<Adjacency>,
    /// Unordered-pair lookup into [`World::adjacencies`].
    pub adj_of: HashMap<(AsIdx, AsIdx), AdjIdx>,
    /// All originated prefixes with their origin AS.
    pub prefixes: Vec<(Prefix, AsIdx)>,
    /// All community schemes (documented or not), ground truth.
    pub schemes: Vec<CommunityScheme>,
    /// The two noisy colocation-source snapshots (detector input).
    pub snapshots: Vec<ColoSnapshot>,
}

impl World {
    /// Generates a world from `config`. Deterministic in `config.seed`.
    pub fn generate(config: WorldConfig) -> World {
        Generator::new(config).run()
    }

    /// Node lookup by ASN.
    pub fn node(&self, asn: Asn) -> Option<&AsNode> {
        self.asn_to_idx.get(&asn).map(|&i| &self.ases[i.0 as usize])
    }

    /// The merged colocation map a detector would build from the published
    /// snapshots (ids align with ground truth by construction).
    pub fn detector_colomap(&self) -> ColocationMap {
        let (mut map, _) = merge_snapshots(&self.snapshots, &self.gazetteer);
        for a in &self.ases {
            map.add_as_info(a.info.clone());
        }
        map
    }

    /// IP address deterministically assigned to a collector peer slot.
    pub fn peer_addr(slot: usize) -> IpAddr {
        IpAddr::V4(std::net::Ipv4Addr::new(10, 9, (slot >> 8) as u8, (slot & 0xFF) as u8))
    }

    /// The prefix for `idx`.
    pub fn prefix(&self, idx: PrefixIdx) -> Prefix {
        self.prefixes[idx.0 as usize].0
    }

    /// The origin AS of a prefix.
    pub fn origin_of(&self, idx: PrefixIdx) -> AsIdx {
        self.prefixes[idx.0 as usize].1
    }

    /// The first IPv4 prefix originated by an AS — the canonical probe
    /// destination for data-plane campaigns toward that network.
    pub fn v4_prefix_of(&self, idx: AsIdx) -> Option<PrefixIdx> {
        self.ases[idx.0 as usize].prefixes.iter().copied().find(|p| self.prefix(*p).is_ipv4())
    }
}

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

const FACILITY_OPERATORS: &[&str] = &[
    "Equinix",
    "Telehouse",
    "Interxion",
    "Coresite",
    "Digital Realty",
    "Telx",
    "Global Switch",
    "e-shelter",
    "NTT",
    "KDDI",
    "Cologix",
    "CyrusOne",
    "Sabey",
    "Iron Mountain",
];

struct Generator {
    config: WorldConfig,
    rng: StdRng,
    gazetteer: CityGazetteer,
    colo: ColocationMap,
    orgs: OrgMap,
    ases: Vec<AsNode>,
    adjacencies: Vec<Adjacency>,
    adj_index: HashMap<(AsIdx, AsIdx), AdjIdx>,
    prefixes: Vec<(Prefix, AsIdx)>,
    city_facilities: HashMap<CityId, Vec<FacilityId>>,
    // facility -> (weight used for preferential attachment)
    fac_weight: Vec<f64>,
    next_asn: u32,
}

impl Generator {
    fn new(config: WorldConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        Generator {
            config,
            rng,
            gazetteer: CityGazetteer::new(),
            colo: ColocationMap::new(),
            orgs: OrgMap::new(),
            ases: Vec::new(),
            adjacencies: Vec::new(),
            adj_index: HashMap::new(),
            prefixes: Vec::new(),
            city_facilities: HashMap::new(),
            fac_weight: Vec::new(),
            next_asn: 100,
        }
    }

    fn run(mut self) -> World {
        self.make_facilities();
        self.make_ixps();
        self.make_ases();
        self.make_transit_edges();
        self.make_peering_edges();
        self.make_prefixes();
        self.make_schemes();
        self.finalize_neighbors();
        let snapshots = self.make_snapshots();
        let schemes: Vec<CommunityScheme> =
            self.ases.iter().filter_map(|a| a.scheme.clone()).collect();
        let asn_to_idx: HashMap<Asn, AsIdx> =
            self.ases.iter().enumerate().map(|(i, a)| (a.asn, AsIdx(i as u32))).collect();
        World {
            config: self.config,
            gazetteer: self.gazetteer,
            colo: self.colo,
            orgs: self.orgs,
            ases: self.ases,
            asn_to_idx,
            adjacencies: self.adjacencies,
            adj_of: self.adj_index,
            prefixes: self.prefixes,
            schemes,
            snapshots,
        }
    }

    fn cities_of(&self, continent: Continent) -> Vec<usize> {
        self.gazetteer
            .cities()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.continent == continent)
            .map(|(i, _)| i)
            .collect()
    }

    fn make_facilities(&mut self) {
        let per_continent = self.config.facilities_per_continent;
        let mut next_id = 0u32;
        for (ci, &count) in Continent::ALL.iter().zip(per_continent.iter()) {
            let cities = self.cities_of(*ci);
            if cities.is_empty() {
                continue;
            }
            // Zipf-ish weights: first cities of a continent are its hubs.
            let weights: Vec<f64> = (0..cities.len()).map(|i| 1.0 / (i as f64 + 1.0)).collect();
            let total: f64 = weights.iter().sum();
            for _ in 0..count {
                let mut pick = self.rng.gen_range(0.0..total);
                let mut chosen = cities[0];
                for (i, w) in weights.iter().enumerate() {
                    if pick < *w {
                        chosen = cities[i];
                        break;
                    }
                    pick -= w;
                }
                let city = &self.gazetteer.cities()[chosen];
                let op = FACILITY_OPERATORS.choose(&mut self.rng).expect("ops");
                let id = FacilityId(next_id);
                next_id += 1;
                // Per-city ordinal keeps names globally unique (the NER in
                // kepler-docmine relies on unambiguous facility names).
                let ordinal =
                    self.city_facilities.get(&CityId(chosen as u32)).map(Vec::len).unwrap_or(0) + 1;
                let name = format!("{op} {}{}", city.iata, ordinal);
                self.colo.add_facility(Facility {
                    id,
                    name,
                    address: format!("{} Infrastructure Way", id.0 + 1),
                    postcode: format!("{}{:05}", city.iata, id.0),
                    country: city.country.to_string(),
                    city: CityId(chosen as u32),
                    continent: *ci,
                    point: city.point,
                    operator: op.to_string(),
                });
                self.city_facilities.entry(CityId(chosen as u32)).or_default().push(id);
                // Facility attractiveness: early ids in big cities dominate.
                let w = 1.0 / ((self.fac_weight.len() % 97) as f64 + 1.0);
                self.fac_weight.push(w);
            }
        }
    }

    fn make_ixps(&mut self) {
        // Cities ranked by facility count host IXPs first; Europe gets extra.
        let mut ranked: Vec<(CityId, usize)> =
            self.city_facilities.iter().map(|(c, f)| (*c, f.len())).collect();
        ranked.sort_by_key(|(c, n)| (std::cmp::Reverse(*n), c.0));
        let mut rs_asn = 59000u32;
        for k in 0..self.config.n_ixps {
            let (city_id, _) = ranked[k % ranked.len()];
            let city = &self.gazetteer.cities()[city_id.0 as usize];
            let nth = k / ranked.len();
            let name = if nth == 0 {
                format!("{}-IX", city.alias)
            } else {
                format!("{}-IX{}", city.alias, nth + 1)
            };
            let id = IxpId(k as u32);
            let has_rs = self.rng.gen_bool(0.7);
            let rs = if has_rs {
                let a = Asn(rs_asn);
                rs_asn += 1;
                Some(a)
            } else {
                None
            };
            self.colo.add_ixp(Ixp {
                id,
                name: name.clone(),
                url: format!("{}.example.net", name.to_ascii_lowercase()),
                city: city_id,
                continent: city.continent,
                route_server_asn: rs,
            });
            // Spread the fabric over 1..=max facilities of the city (hubs
            // get bigger fabrics).
            let facs = self.city_facilities.get(&city_id).cloned().unwrap_or_default();
            if facs.is_empty() {
                continue;
            }
            let span =
                self.rng.gen_range(1..=self.config.max_ixp_facilities.min(facs.len()).max(1));
            let mut shuffled = facs;
            shuffled.shuffle(&mut self.rng);
            for f in shuffled.into_iter().take(span) {
                self.colo.link_ixp_facility(id, f);
            }
        }
    }

    fn alloc_asn(&mut self) -> Asn {
        let a = Asn(self.next_asn);
        self.next_asn += 7; // keep ASNs sparse-ish and 16-bit for a while
        a
    }

    fn pick_weighted_facility(&mut self, candidates: &[FacilityId]) -> Option<FacilityId> {
        if candidates.is_empty() {
            return None;
        }
        let total: f64 = candidates.iter().map(|f| self.fac_weight[f.0 as usize]).sum();
        let mut pick = self.rng.gen_range(0.0..total.max(1e-12));
        for f in candidates {
            let w = self.fac_weight[f.0 as usize];
            if pick < w {
                return Some(*f);
            }
            pick -= w;
        }
        candidates.last().copied()
    }

    fn make_one_as(&mut self, as_type: AsType, n_cities: usize, facs_per_city: usize) {
        let asn = self.alloc_asn();
        let all_cities: Vec<CityId> = self.city_facilities.keys().copied().collect();
        let mut cities = all_cities;
        cities.sort_by_key(|c| c.0);
        // Home city biased toward hubs for big players, uniform for edge.
        let home = match as_type {
            AsType::Tier1 | AsType::Content => {
                let hubs: Vec<CityId> = {
                    let mut v: Vec<(CityId, usize)> =
                        self.city_facilities.iter().map(|(c, f)| (*c, f.len())).collect();
                    v.sort_by_key(|(c, n)| (std::cmp::Reverse(*n), c.0));
                    v.into_iter().take(10).map(|(c, _)| c).collect()
                };
                *hubs.choose(&mut self.rng).expect("hubs")
            }
            _ => *cities.choose(&mut self.rng).expect("cities"),
        };
        let mut chosen_cities: BTreeSet<CityId> = BTreeSet::new();
        chosen_cities.insert(home);
        while chosen_cities.len() < n_cities.min(cities.len()) {
            chosen_cities.insert(*cities.choose(&mut self.rng).expect("cities"));
        }
        let mut facilities: BTreeSet<FacilityId> = BTreeSet::new();
        for city in &chosen_cities {
            let cands = self.city_facilities.get(city).cloned().unwrap_or_default();
            for _ in 0..facs_per_city {
                if let Some(f) = self.pick_weighted_facility(&cands) {
                    facilities.insert(f);
                }
            }
        }
        let idx = AsIdx(self.ases.len() as u32);
        for &f in &facilities {
            self.colo.add_fac_member(f, asn);
        }
        // Local IXP memberships: any IXP with fabric in one of our
        // facilities, joined with a type-dependent probability.
        let join_p = match as_type {
            AsType::Tier1 => 0.35,
            AsType::Tier2 => 0.7,
            AsType::Content => 0.9,
            AsType::Eyeball => 0.8,
            AsType::Stub => 0.4,
            AsType::RouteServer => 0.0,
        };
        let mut local_ixps: BTreeSet<IxpId> = BTreeSet::new();
        for &f in &facilities {
            for &x in self.colo.ixps_at_facility(f) {
                if self.rng.gen_bool(join_p) {
                    local_ixps.insert(x);
                }
            }
        }
        // Remote memberships through resellers: pick big faraway IXPs.
        let mut remote_ixps: BTreeSet<IxpId> = BTreeSet::new();
        if matches!(as_type, AsType::Content | AsType::Eyeball | AsType::Tier2)
            && self.rng.gen_bool(self.config.remote_peering_rate)
        {
            let n_ixp = self.colo.ixps().len();
            if n_ixp > 0 {
                let target = IxpId(self.rng.gen_range(0..n_ixp.min(8)) as u32);
                if !local_ixps.contains(&target) {
                    remote_ixps.insert(target);
                }
            }
        }
        for &x in local_ixps.iter().chain(remote_ixps.iter()) {
            self.colo.add_ixp_member(x, asn);
        }
        let info =
            AsInfo { asn, name: format!("{:?}-{}", as_type, asn.0), as_type, home_city: home };
        self.colo.add_as_info(info.clone());
        self.ases.push(AsNode {
            asn,
            info,
            facilities: facilities.into_iter().collect(),
            local_ixps: local_ixps.into_iter().collect(),
            remote_ixps: remote_ixps.into_iter().collect(),
            prefixes: Vec::new(),
            scheme: None,
            tags_v6: false,
            neighbors: Vec::new(),
        });
        let _ = idx;
    }

    fn make_ases(&mut self) {
        let spec: Vec<(AsType, usize, usize, usize)> = vec![
            // (type, count, cities, facilities-per-city)
            (AsType::Tier1, self.config.n_tier1, 18, 2),
            (AsType::Tier2, self.config.n_tier2, 5, 2),
            (AsType::Content, self.config.n_content, 8, 1),
            (AsType::Eyeball, self.config.n_eyeball, 2, 2),
            (AsType::Stub, self.config.n_stub, 1, 1),
        ];
        for (t, count, cities, fpc) in spec {
            for _ in 0..count {
                self.make_one_as(t, cities, fpc);
            }
        }
        // Sibling organizations: group a few ASes under shared operators
        // (used by the operator-level classifier).
        let mut i = 0usize;
        while i + 2 < self.ases.len() {
            if self.rng.gen_bool(0.04) {
                let org = self.orgs.add_org(&format!("Org-{i}"));
                for j in 0..self.rng.gen_range(2..=3usize) {
                    self.orgs.assign(self.ases[i + j].asn, org);
                }
                i += 3;
            } else {
                i += 1;
            }
        }
    }

    fn type_ranges(&self) -> BTreeMap<AsType, std::ops::Range<usize>> {
        let c = &self.config;
        let mut m = BTreeMap::new();
        let mut at = 0usize;
        for (t, n) in [
            (AsType::Tier1, c.n_tier1),
            (AsType::Tier2, c.n_tier2),
            (AsType::Content, c.n_content),
            (AsType::Eyeball, c.n_eyeball),
            (AsType::Stub, c.n_stub),
        ] {
            m.insert(t, at..at + n);
            at += n;
        }
        m
    }

    /// Creates a transit (C2P) adjacency with a physical instantiation.
    fn add_transit(&mut self, customer: AsIdx, provider: AsIdx) {
        if customer == provider || self.adj_index.contains_key(&key(customer, provider)) {
            return;
        }
        // Prefer a common facility; otherwise use a provider facility near
        // the customer's home (a tethered cross-metro circuit).
        let c_facs: BTreeSet<FacilityId> =
            self.ases[customer.0 as usize].facilities.iter().copied().collect();
        let p_facs = &self.ases[provider.0 as usize].facilities;
        let common: Vec<FacilityId> =
            p_facs.iter().copied().filter(|f| c_facs.contains(f)).collect();
        let fac = if let Some(f) = common.first() {
            *f
        } else if let Some(f) = p_facs.first() {
            *f
        } else if let Some(f) = self.ases[customer.0 as usize].facilities.first() {
            *f
        } else {
            return; // both facility-less: skip (no physical path)
        };
        let inst = AdjInstance {
            a_side: PortLoc { facility: Some(fac), ixp: None },
            b_side: PortLoc { facility: Some(fac), ixp: None },
            via_rs: None,
        };
        // Big customers buy redundant transit at a second site when possible.
        let mut instances = vec![inst];
        if common.len() > 1 && self.rng.gen_bool(0.5) {
            let f2 = common[1];
            instances.push(AdjInstance {
                a_side: PortLoc { facility: Some(f2), ixp: None },
                b_side: PortLoc { facility: Some(f2), ixp: None },
                via_rs: None,
            });
        }
        let id = AdjIdx(self.adjacencies.len() as u32);
        self.adjacencies.push(Adjacency { a: customer, b: provider, rel: Rel::C2P, instances });
        self.adj_index.insert(key(customer, provider), id);
    }

    fn make_transit_edges(&mut self) {
        let ranges = self.type_ranges();
        let t1 = ranges[&AsType::Tier1].clone();
        let t2 = ranges[&AsType::Tier2].clone();
        let content = ranges[&AsType::Content].clone();
        let eyeball = ranges[&AsType::Eyeball].clone();
        let stub = ranges[&AsType::Stub].clone();

        // Tier-1 full mesh (peers, PNI at shared hubs).
        let t1v: Vec<usize> = t1.clone().collect();
        for i in 0..t1v.len() {
            for j in i + 1..t1v.len() {
                let (a, b) = (AsIdx(t1v[i] as u32), AsIdx(t1v[j] as u32));
                let common = self.common_facilities(a, b);
                let fac = common
                    .first()
                    .copied()
                    .or_else(|| self.ases[a.0 as usize].facilities.first().copied());
                let Some(fac) = fac else { continue };
                let inst = AdjInstance {
                    a_side: PortLoc { facility: Some(fac), ixp: None },
                    b_side: PortLoc { facility: Some(fac), ixp: None },
                    via_rs: None,
                };
                let mut instances = vec![inst];
                for f2 in common.iter().skip(1).take(2) {
                    instances.push(AdjInstance {
                        a_side: PortLoc { facility: Some(*f2), ixp: None },
                        b_side: PortLoc { facility: Some(*f2), ixp: None },
                        via_rs: None,
                    });
                }
                let id = AdjIdx(self.adjacencies.len() as u32);
                self.adjacencies.push(Adjacency { a, b, rel: Rel::P2P, instances });
                self.adj_index.insert(key(a, b), id);
            }
        }
        // Tier-2 -> 1..3 Tier-1 providers.
        for i in t2.clone() {
            let n = self.rng.gen_range(1..=3usize);
            for _ in 0..n {
                let p = AsIdx(self.rng.gen_range(t1.clone()) as u32);
                self.add_transit(AsIdx(i as u32), p);
            }
        }
        // Content -> tier2/tier1.
        for i in content.clone() {
            for _ in 0..self.rng.gen_range(1..=2usize) {
                let p = if self.rng.gen_bool(0.5) {
                    self.rng.gen_range(t1.clone())
                } else {
                    self.rng.gen_range(t2.clone())
                };
                self.add_transit(AsIdx(i as u32), AsIdx(p as u32));
            }
        }
        // Eyeballs -> tier2 (and rarely tier1).
        for i in eyeball.clone() {
            for _ in 0..self.rng.gen_range(1..=2usize) {
                let p = if self.rng.gen_bool(0.15) {
                    self.rng.gen_range(t1.clone())
                } else {
                    self.rng.gen_range(t2.clone())
                };
                self.add_transit(AsIdx(i as u32), AsIdx(p as u32));
            }
        }
        // Stubs -> eyeball/tier2.
        for i in stub {
            for _ in 0..self.rng.gen_range(1..=2usize) {
                let p = if self.rng.gen_bool(0.4) {
                    self.rng.gen_range(eyeball.clone())
                } else {
                    self.rng.gen_range(t2.clone())
                };
                self.add_transit(AsIdx(i as u32), AsIdx(p as u32));
            }
        }
    }

    fn common_facilities(&self, a: AsIdx, b: AsIdx) -> Vec<FacilityId> {
        let fa: BTreeSet<FacilityId> = self.ases[a.0 as usize].facilities.iter().copied().collect();
        self.ases[b.0 as usize].facilities.iter().copied().filter(|f| fa.contains(f)).collect()
    }

    /// The facility where `asx` attaches to `ixp` (its tenant facility
    /// hosting the fabric), or a reseller port for remote members.
    fn ixp_port(&mut self, asx: AsIdx, ixp: IxpId) -> PortLoc {
        let node = &self.ases[asx.0 as usize];
        let fabric = self.colo.facilities_of_ixp(ixp).clone();
        let mine: Vec<FacilityId> =
            node.facilities.iter().copied().filter(|f| fabric.contains(f)).collect();
        if let Some(f) = mine.first() {
            PortLoc { facility: Some(*f), ixp: Some(ixp) }
        } else {
            // Remote member: the reseller lands on some fabric facility; the
            // AS itself is *not* a tenant there (the paper's remote-impact
            // mechanism).
            let f = fabric.iter().next().copied();
            PortLoc { facility: f, ixp: Some(ixp) }
        }
    }

    fn add_public_peering(&mut self, a: AsIdx, b: AsIdx, ixp: IxpId, via_rs: Option<Asn>) {
        if a == b {
            return;
        }
        let a_side = self.ixp_port(a, ixp);
        let b_side = self.ixp_port(b, ixp);
        let inst = AdjInstance { a_side, b_side, via_rs };
        if let Some(&id) = self.adj_index.get(&key(a, b)) {
            // Existing adjacency (maybe PNI): append a public instance.
            let adj = &mut self.adjacencies[id.0 as usize];
            if adj.rel == Rel::P2P && !adj.instances.contains(&inst) {
                // Orientation of a/b may be swapped; normalize sides.
                if adj.a == a {
                    adj.instances.push(inst);
                } else {
                    adj.instances.push(AdjInstance { a_side: b_side, b_side: a_side, via_rs });
                }
            }
            return;
        }
        let id = AdjIdx(self.adjacencies.len() as u32);
        self.adjacencies.push(Adjacency { a, b, rel: Rel::P2P, instances: vec![inst] });
        self.adj_index.insert(key(a, b), id);
    }

    fn make_peering_edges(&mut self) {
        // PNIs between co-located content/eyeball/tier2 pairs.
        let n = self.ases.len();
        for i in 0..n {
            let ti = self.ases[i].info.as_type;
            if !matches!(ti, AsType::Content | AsType::Eyeball | AsType::Tier2) {
                continue;
            }
            for j in i + 1..n {
                let tj = self.ases[j].info.as_type;
                let incentive = matches!(
                    (ti, tj),
                    (AsType::Content, AsType::Eyeball)
                        | (AsType::Eyeball, AsType::Content)
                        | (AsType::Tier2, AsType::Tier2)
                        | (AsType::Content, AsType::Tier2)
                        | (AsType::Tier2, AsType::Content)
                );
                if !incentive {
                    continue;
                }
                let (a, b) = (AsIdx(i as u32), AsIdx(j as u32));
                let common = self.common_facilities(a, b);
                if common.is_empty() || !self.rng.gen_bool(self.config.pni_rate) {
                    continue;
                }
                if self.adj_index.contains_key(&key(a, b)) {
                    continue;
                }
                let mut instances = Vec::new();
                for f in common.iter().take(2) {
                    instances.push(AdjInstance {
                        a_side: PortLoc { facility: Some(*f), ixp: None },
                        b_side: PortLoc { facility: Some(*f), ixp: None },
                        via_rs: None,
                    });
                }
                let id = AdjIdx(self.adjacencies.len() as u32);
                self.adjacencies.push(Adjacency { a, b, rel: Rel::P2P, instances });
                self.adj_index.insert(key(a, b), id);
            }
        }
        // Public peering at IXPs: each member peers with up to K others,
        // multilateral via the route server when one exists.
        let n_ixps = self.colo.ixps().len();
        for x in 0..n_ixps {
            let ixp = IxpId(x as u32);
            let rs = self.colo.ixp(ixp).and_then(|i| i.route_server_asn);
            let members: Vec<AsIdx> = self
                .ases
                .iter()
                .enumerate()
                .filter(|(_, a)| a.local_ixps.contains(&ixp) || a.remote_ixps.contains(&ixp))
                .map(|(i, _)| AsIdx(i as u32))
                .collect();
            if members.len() < 2 {
                continue;
            }
            let k = self.config.ixp_peers_per_member;
            for (mi, &m) in members.iter().enumerate() {
                for _ in 0..k {
                    let other = members[self.rng.gen_range(0..members.len())];
                    if other == m {
                        continue;
                    }
                    // Skip pairs with a transit relationship.
                    if let Some(&id) = self.adj_index.get(&key(m, other)) {
                        if self.adjacencies[id.0 as usize].rel == Rel::C2P {
                            continue;
                        }
                    }
                    let via = if self.rng.gen_bool(0.8) { rs } else { None };
                    self.add_public_peering(m, other, ixp, via);
                }
                let _ = mi;
            }
        }
    }

    fn make_prefixes(&mut self) {
        let mut next = 0u32;
        for i in 0..self.ases.len() {
            let t = self.ases[i].info.as_type;
            let (n4, p6) = match t {
                AsType::Tier1 => (3usize, 0.8),
                AsType::Tier2 => (2, 0.5),
                AsType::Content => (3, 0.7),
                AsType::Eyeball => (2, 0.35),
                AsType::Stub => (1, 0.1),
                AsType::RouteServer => (0, 0.0),
            };
            for _ in 0..n4 {
                // /16s from 20.0.0.0 upward, skipping any bogon collision.
                let base = 20u32 * 0x0100_0000 + next * 0x1_0000;
                next += 1;
                let p = Prefix::new(IpAddr::V4(std::net::Ipv4Addr::from(base)), 16)
                    .expect("valid generated prefix");
                debug_assert!(!p.is_bogon());
                let pid = PrefixIdx(self.prefixes.len() as u32);
                self.prefixes.push((p, AsIdx(i as u32)));
                self.ases[i].prefixes.push(pid);
            }
            if self.rng.gen_bool(p6) {
                let bits: u128 = (0x2600u128 << 112) | ((next as u128) << 80);
                next += 1;
                let p = Prefix::new(IpAddr::V6(std::net::Ipv6Addr::from(bits)), 32)
                    .expect("valid generated v6 prefix");
                let pid = PrefixIdx(self.prefixes.len() as u32);
                self.prefixes.push((p, AsIdx(i as u32)));
                self.ases[i].prefixes.push(pid);
            }
        }
    }

    fn make_schemes(&mut self) {
        for i in 0..self.ases.len() {
            let t = self.ases[i].info.as_type;
            let adopt_p = match t {
                AsType::Tier1 => 1.0,
                AsType::Tier2 => 0.8,
                AsType::Content => 0.5,
                AsType::Eyeball => 0.25,
                AsType::Stub => 0.03,
                AsType::RouteServer => 0.0,
            };
            if !self.rng.gen_bool(adopt_p) || !self.ases[i].asn.is_16bit() {
                continue;
            }
            // Granularity style: facility-level (fine), city-level (coarse),
            // or mixed facility+IXP (like the paper's Init7 example).
            let style_roll: f64 = self.rng.gen();
            let mut entries: Vec<SchemeEntry> = Vec::new();
            let mut value = 50_000u16;
            let node_facs = self.ases[i].facilities.clone();
            let node_ixps: Vec<IxpId> = self.ases[i]
                .local_ixps
                .iter()
                .chain(self.ases[i].remote_ixps.iter())
                .copied()
                .collect();
            if style_roll < 0.45 {
                // City-granularity scheme.
                let mut seen = BTreeSet::new();
                for f in &node_facs {
                    let fac = self.colo.facility(*f).expect("facility");
                    if seen.insert(fac.city) {
                        let city = &self.gazetteer.cities()[fac.city.0 as usize];
                        let ident = match self.rng.gen_range(0..3) {
                            0 => city.name.to_string(),
                            1 => city.iata.to_string(),
                            _ => city.alias.to_string(),
                        };
                        entries.push(SchemeEntry {
                            value,
                            target: SchemeTarget::City { ident, city: fac.city },
                        });
                        value += 2;
                    }
                }
            } else {
                // Facility-granularity, plus IXP entries when mixed.
                for f in &node_facs {
                    let fac = self.colo.facility(*f).expect("facility");
                    entries.push(SchemeEntry {
                        value,
                        target: SchemeTarget::Facility { name: fac.name.clone(), id: *f },
                    });
                    value += 2;
                }
                if style_roll > 0.7 {
                    for x in &node_ixps {
                        let ixp = self.colo.ixp(*x).expect("ixp");
                        entries.push(SchemeEntry {
                            value,
                            target: SchemeTarget::Ixp { name: ixp.name.clone(), id: *x },
                        });
                        value += 2;
                    }
                }
            }
            if entries.is_empty() {
                continue;
            }
            let scheme = CommunityScheme {
                asn: self.ases[i].asn,
                entries,
                action_values: vec![9001, 9002, 666],
                documented: self.rng.gen_bool(self.config.documentation_rate),
                style: if self.rng.gen_bool(0.6) {
                    DocStyle::IrrRemarks
                } else {
                    DocStyle::WebPage
                },
            };
            self.ases[i].tags_v6 = self.rng.gen_bool(self.config.v6_tagging_rate);
            self.ases[i].scheme = Some(scheme);
        }
    }

    fn finalize_neighbors(&mut self) {
        for (id, adj) in self.adjacencies.iter().enumerate() {
            let id = AdjIdx(id as u32);
            self.ases[adj.a.0 as usize].neighbors.push((adj.b, id));
            self.ases[adj.b.0 as usize].neighbors.push((adj.a, id));
        }
        for a in &mut self.ases {
            a.neighbors.sort_by_key(|(n, _)| *n);
        }
    }

    /// Publishes the two noisy source snapshots. Snapshot A ("peeringdb")
    /// covers every facility in ground-truth id order — this keeps merged
    /// ids aligned with ground-truth ids, which the whole evaluation relies
    /// on. Snapshot B ("datacentermap") re-lists a subset under different
    /// names with partially overlapping tenant lists.
    fn make_snapshots(&mut self) -> Vec<ColoSnapshot> {
        let mut a = ColoSnapshot::new("peeringdb");
        let mut b = ColoSnapshot::new("datacentermap");
        for f in self.colo.facilities() {
            let tenants: Vec<Asn> = self.colo.members_of_facility(f.id).iter().copied().collect();
            // A omits a small fraction of tenants; B holds a different subset.
            let a_tenants: Vec<Asn> =
                tenants.iter().copied().filter(|_| self.rng.gen_bool(0.95)).collect();
            let b_tenants: Vec<Asn> =
                tenants.iter().copied().filter(|_| self.rng.gen_bool(0.6)).collect();
            let city = self.gazetteer.cities()[f.city.0 as usize].name.to_string();
            a.facilities.push(SourceFacility {
                name: f.name.clone(),
                address: f.address.clone(),
                postcode: f.postcode.clone(),
                country: f.country.clone(),
                city_name: city.clone(),
                operator: f.operator.clone(),
                point: Some(f.point),
                tenants: a_tenants,
            });
            if self.rng.gen_bool(0.7) {
                b.facilities.push(SourceFacility {
                    name: format!("{} Datacenter", f.name.to_ascii_uppercase()),
                    address: f.address.clone(),
                    postcode: f.postcode.to_ascii_lowercase(),
                    country: f.country.to_ascii_lowercase(),
                    city_name: city,
                    operator: String::new(),
                    point: None,
                    tenants: b_tenants,
                });
            }
        }
        for x in self.colo.ixps() {
            let members: Vec<Asn> = self.colo.members_of_ixp(x.id).iter().copied().collect();
            let keys: Vec<(String, String)> = self
                .colo
                .facilities_of_ixp(x.id)
                .iter()
                .filter_map(|f| self.colo.facility(*f))
                .map(|f| (f.postcode.clone(), f.country.clone()))
                .collect();
            let city = self.gazetteer.cities()[x.city.0 as usize].name.to_string();
            a.ixps.push(SourceIxp {
                name: x.name.clone(),
                url: format!("https://www.{}/", x.url),
                city_name: city,
                members,
                facility_keys: keys,
                route_server_asn: x.route_server_asn,
            });
        }
        vec![a, b]
    }
}

fn key(a: AsIdx, b: AsIdx) -> (AsIdx, AsIdx) {
    if a.0 <= b.0 {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_world_is_deterministic() {
        let w1 = World::generate(WorldConfig::tiny(7));
        let w2 = World::generate(WorldConfig::tiny(7));
        assert_eq!(w1.ases.len(), w2.ases.len());
        assert_eq!(w1.prefixes.len(), w2.prefixes.len());
        assert_eq!(w1.adjacencies.len(), w2.adjacencies.len());
        assert_eq!(
            w1.ases.iter().map(|a| a.asn).collect::<Vec<_>>(),
            w2.ases.iter().map(|a| a.asn).collect::<Vec<_>>()
        );
    }

    #[test]
    fn facility_census_matches_config() {
        let cfg = WorldConfig::tiny(3);
        let w = World::generate(cfg.clone());
        assert_eq!(w.colo.facilities().len(), cfg.facilities_per_continent.iter().sum::<usize>());
        for (ci, &expect) in Continent::ALL.iter().zip(cfg.facilities_per_continent.iter()) {
            let got = w.colo.facilities().iter().filter(|f| f.continent == *ci).count();
            assert_eq!(got, expect, "{ci}");
        }
    }

    #[test]
    fn every_adjacency_has_instances_and_endpoints_exist() {
        let w = World::generate(WorldConfig::tiny(11));
        assert!(!w.adjacencies.is_empty());
        for adj in &w.adjacencies {
            assert!(!adj.instances.is_empty());
            assert!((adj.a.0 as usize) < w.ases.len());
            assert!((adj.b.0 as usize) < w.ases.len());
            assert_ne!(adj.a, adj.b);
        }
    }

    #[test]
    fn stubs_have_providers() {
        let w = World::generate(WorldConfig::tiny(5));
        for (i, a) in w.ases.iter().enumerate() {
            if a.info.as_type == AsType::Stub {
                let has_provider = a.neighbors.iter().any(|(_, adj)| {
                    let adj = &w.adjacencies[adj.0 as usize];
                    adj.rel == Rel::C2P && adj.a == AsIdx(i as u32)
                });
                assert!(has_provider, "stub {} lacks transit", a.asn);
            }
        }
    }

    #[test]
    fn detector_colomap_ids_align_with_ground_truth() {
        let w = World::generate(WorldConfig::tiny(9));
        let det = w.detector_colomap();
        assert_eq!(det.facilities().len(), w.colo.facilities().len());
        for (g, d) in w.colo.facilities().iter().zip(det.facilities()) {
            assert_eq!(g.id, d.id);
            assert_eq!(g.postcode, d.postcode);
            assert_eq!(g.city, d.city);
        }
        assert_eq!(det.ixps().len(), w.colo.ixps().len());
        for (g, d) in w.colo.ixps().iter().zip(det.ixps()) {
            assert_eq!(g.id, d.id);
            assert_eq!(g.route_server_asn, d.route_server_asn);
        }
    }

    #[test]
    fn schemes_reference_real_entities() {
        let w = World::generate(WorldConfig::tiny(13));
        assert!(!w.schemes.is_empty());
        for s in &w.schemes {
            for e in &s.entries {
                match &e.target {
                    SchemeTarget::Facility { id, .. } => assert!(w.colo.facility(*id).is_some()),
                    SchemeTarget::Ixp { id, .. } => assert!(w.colo.ixp(*id).is_some()),
                    SchemeTarget::City { city, .. } => {
                        assert!((city.0 as usize) < w.gazetteer.len())
                    }
                }
            }
        }
    }

    #[test]
    fn prefixes_are_clean_and_owned() {
        let w = World::generate(WorldConfig::tiny(17));
        assert!(!w.prefixes.is_empty());
        for (p, origin) in &w.prefixes {
            assert!(!p.is_bogon());
            assert!(p.is_conventional_size());
            assert!((origin.0 as usize) < w.ases.len());
        }
        // v4 and v6 both present.
        assert!(w.prefixes.iter().any(|(p, _)| p.is_ipv4()));
        assert!(w.prefixes.iter().any(|(p, _)| p.is_ipv6()));
    }

    #[test]
    fn member_count_distribution_is_skewed() {
        let w = World::generate(WorldConfig::small(21));
        let counts: Vec<usize> =
            w.colo.facilities().iter().map(|f| w.colo.members_of_facility(f.id).len()).collect();
        let small = counts.iter().filter(|&&c| c < 6).count();
        let big = counts.iter().filter(|&&c| c >= 20).count();
        assert!(small > counts.len() / 3, "many small facilities ({small}/{})", counts.len());
        assert!(big > 0, "some big hubs exist");
    }

    #[test]
    fn remote_peering_exists() {
        let w = World::generate(WorldConfig::small(23));
        let remote = w.ases.iter().filter(|a| !a.remote_ixps.is_empty()).count();
        assert!(remote > 0, "remote peering generated");
    }
}
