//! The queryable colocation map.
//!
//! This is the structure Kepler's signal-investigation module interrogates:
//! which ASes sit in which buildings, which IXP fabrics span which
//! buildings, and where two ASes could physically interconnect.

use crate::entities::{AsInfo, CityId, Facility, FacilityId, Ixp, IxpId};
use kepler_bgp::Asn;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The merged colocation map (paper §3.3): AS↔facility, AS↔IXP and
/// IXP↔facility relations plus entity metadata.
#[derive(Debug, Clone, Default)]
pub struct ColocationMap {
    facilities: Vec<Facility>,
    ixps: Vec<Ixp>,
    fac_members: Vec<BTreeSet<Asn>>,
    ixp_members: Vec<BTreeSet<Asn>>,
    ixp_facs: Vec<BTreeSet<FacilityId>>,
    fac_ixps: Vec<BTreeSet<IxpId>>,
    as_facs: BTreeMap<Asn, BTreeSet<FacilityId>>,
    as_ixps: BTreeMap<Asn, BTreeSet<IxpId>>,
    as_info: BTreeMap<Asn, AsInfo>,
    route_servers: HashMap<Asn, IxpId>,
    empty_asns: BTreeSet<Asn>,
    empty_facs: BTreeSet<FacilityId>,
    empty_ixps: BTreeSet<IxpId>,
}

impl ColocationMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a facility; its `id` must equal the current facility count.
    pub fn add_facility(&mut self, facility: Facility) -> FacilityId {
        assert_eq!(facility.id.0 as usize, self.facilities.len(), "non-dense facility id");
        let id = facility.id;
        self.facilities.push(facility);
        self.fac_members.push(BTreeSet::new());
        self.fac_ixps.push(BTreeSet::new());
        id
    }

    /// Registers an IXP; its `id` must equal the current IXP count.
    pub fn add_ixp(&mut self, ixp: Ixp) -> IxpId {
        assert_eq!(ixp.id.0 as usize, self.ixps.len(), "non-dense ixp id");
        let id = ixp.id;
        if let Some(rs) = ixp.route_server_asn {
            self.route_servers.insert(rs, id);
        }
        self.ixps.push(ixp);
        self.ixp_members.push(BTreeSet::new());
        self.ixp_facs.push(BTreeSet::new());
        id
    }

    /// Registers AS metadata.
    pub fn add_as_info(&mut self, info: AsInfo) {
        self.as_info.insert(info.asn, info);
    }

    /// Records that `asn` is a tenant of `fac`.
    pub fn add_fac_member(&mut self, fac: FacilityId, asn: Asn) {
        self.fac_members[fac.0 as usize].insert(asn);
        self.as_facs.entry(asn).or_default().insert(fac);
    }

    /// Records that `asn` is a member of `ixp`.
    pub fn add_ixp_member(&mut self, ixp: IxpId, asn: Asn) {
        self.ixp_members[ixp.0 as usize].insert(asn);
        self.as_ixps.entry(asn).or_default().insert(ixp);
    }

    /// Records that `ixp` has switching fabric inside `fac`.
    pub fn link_ixp_facility(&mut self, ixp: IxpId, fac: FacilityId) {
        self.ixp_facs[ixp.0 as usize].insert(fac);
        self.fac_ixps[fac.0 as usize].insert(ixp);
    }

    // ---- entity accessors ----

    /// All facilities.
    pub fn facilities(&self) -> &[Facility] {
        &self.facilities
    }

    /// All IXPs.
    pub fn ixps(&self) -> &[Ixp] {
        &self.ixps
    }

    /// Facility metadata.
    pub fn facility(&self, id: FacilityId) -> Option<&Facility> {
        self.facilities.get(id.0 as usize)
    }

    /// IXP metadata.
    pub fn ixp(&self, id: IxpId) -> Option<&Ixp> {
        self.ixps.get(id.0 as usize)
    }

    /// AS metadata, if registered.
    pub fn as_info(&self, asn: Asn) -> Option<&AsInfo> {
        self.as_info.get(&asn)
    }

    // ---- relation queries ----

    /// The tenants of a facility (empty for unknown ids).
    pub fn members_of_facility(&self, fac: FacilityId) -> &BTreeSet<Asn> {
        self.fac_members.get(fac.0 as usize).unwrap_or(&self.empty_asns)
    }

    /// The members of an IXP (empty for unknown ids).
    pub fn members_of_ixp(&self, ixp: IxpId) -> &BTreeSet<Asn> {
        self.ixp_members.get(ixp.0 as usize).unwrap_or(&self.empty_asns)
    }

    /// The facilities hosting an IXP's fabric (empty for unknown ids).
    pub fn facilities_of_ixp(&self, ixp: IxpId) -> &BTreeSet<FacilityId> {
        self.ixp_facs.get(ixp.0 as usize).unwrap_or(&self.empty_facs)
    }

    /// The IXPs with fabric inside a facility (empty for unknown ids).
    pub fn ixps_at_facility(&self, fac: FacilityId) -> &BTreeSet<IxpId> {
        self.fac_ixps.get(fac.0 as usize).unwrap_or(&self.empty_ixps)
    }

    /// The facilities an AS is present in (empty set if unknown).
    pub fn facilities_of_as(&self, asn: Asn) -> BTreeSet<FacilityId> {
        self.as_facs.get(&asn).cloned().unwrap_or_default()
    }

    /// The IXPs an AS is a member of (empty set if unknown).
    pub fn ixps_of_as(&self, asn: Asn) -> BTreeSet<IxpId> {
        self.as_ixps.get(&asn).cloned().unwrap_or_default()
    }

    /// Facilities where both ASes are present.
    pub fn common_facilities(&self, a: Asn, b: Asn) -> BTreeSet<FacilityId> {
        match (self.as_facs.get(&a), self.as_facs.get(&b)) {
            (Some(x), Some(y)) => x.intersection(y).copied().collect(),
            _ => BTreeSet::new(),
        }
    }

    /// IXPs where both ASes are members.
    pub fn common_ixps(&self, a: Asn, b: Asn) -> BTreeSet<IxpId> {
        match (self.as_ixps.get(&a), self.as_ixps.get(&b)) {
            (Some(x), Some(y)) => x.intersection(y).copied().collect(),
            _ => BTreeSet::new(),
        }
    }

    /// Whether `asn` is present at facility `fac`.
    pub fn is_at_facility(&self, asn: Asn, fac: FacilityId) -> bool {
        self.fac_members[fac.0 as usize].contains(&asn)
    }

    /// Facilities located in `city`.
    pub fn facilities_in_city(&self, city: CityId) -> Vec<FacilityId> {
        self.facilities.iter().filter(|f| f.city == city).map(|f| f.id).collect()
    }

    /// IXPs headquartered in `city`.
    pub fn ixps_in_city(&self, city: CityId) -> Vec<IxpId> {
        self.ixps.iter().filter(|x| x.city == city).map(|x| x.id).collect()
    }

    /// If `asn` is a route server, the IXP it serves.
    pub fn route_server_ixp(&self, asn: Asn) -> Option<IxpId> {
        self.route_servers.get(&asn).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entities::AsType;
    use crate::geo::{Continent, GeoPoint};

    fn fac(id: u32, city: u32) -> Facility {
        Facility {
            id: FacilityId(id),
            name: format!("Fac {id}"),
            address: "1 Example St".into(),
            postcode: format!("PC{id}"),
            country: "GB".into(),
            city: CityId(city),
            continent: Continent::Europe,
            point: GeoPoint::new(51.5, -0.1),
            operator: "Op".into(),
        }
    }

    fn ixp(id: u32, city: u32, rs: Option<u32>) -> Ixp {
        Ixp {
            id: IxpId(id),
            name: format!("IXP {id}"),
            url: format!("ixp{id}.net"),
            city: CityId(city),
            continent: Continent::Europe,
            route_server_asn: rs.map(Asn),
        }
    }

    fn sample_map() -> ColocationMap {
        let mut m = ColocationMap::new();
        let f0 = m.add_facility(fac(0, 0));
        let f1 = m.add_facility(fac(1, 0));
        let f2 = m.add_facility(fac(2, 1));
        let x0 = m.add_ixp(ixp(0, 0, Some(64900)));
        m.link_ixp_facility(x0, f0);
        m.link_ixp_facility(x0, f1);
        for asn in [10, 20, 30] {
            m.add_fac_member(f0, Asn(asn));
            m.add_ixp_member(x0, Asn(asn));
        }
        m.add_fac_member(f1, Asn(20));
        m.add_fac_member(f2, Asn(30));
        m.add_as_info(AsInfo {
            asn: Asn(10),
            name: "AS ten".into(),
            as_type: AsType::Tier2,
            home_city: CityId(0),
        });
        m
    }

    #[test]
    fn relation_queries() {
        let m = sample_map();
        assert_eq!(m.members_of_facility(FacilityId(0)).len(), 3);
        assert_eq!(m.facilities_of_as(Asn(20)), [FacilityId(0), FacilityId(1)].into());
        assert_eq!(m.common_facilities(Asn(10), Asn(20)), [FacilityId(0)].into());
        assert_eq!(m.common_facilities(Asn(10), Asn(99)), BTreeSet::new());
        assert_eq!(m.common_ixps(Asn(10), Asn(30)), [IxpId(0)].into());
        assert!(m.is_at_facility(Asn(30), FacilityId(2)));
        assert!(!m.is_at_facility(Asn(10), FacilityId(2)));
    }

    #[test]
    fn ixp_facility_links() {
        let m = sample_map();
        assert_eq!(m.facilities_of_ixp(IxpId(0)).len(), 2);
        assert_eq!(m.ixps_at_facility(FacilityId(0)), &[IxpId(0)].into());
        assert!(m.ixps_at_facility(FacilityId(2)).is_empty());
    }

    #[test]
    fn city_and_route_server_lookups() {
        let m = sample_map();
        assert_eq!(m.facilities_in_city(CityId(0)), vec![FacilityId(0), FacilityId(1)]);
        assert_eq!(m.ixps_in_city(CityId(0)), vec![IxpId(0)]);
        assert_eq!(m.route_server_ixp(Asn(64900)), Some(IxpId(0)));
        assert_eq!(m.route_server_ixp(Asn(1)), None);
        assert_eq!(m.as_info(Asn(10)).unwrap().name, "AS ten");
    }

    #[test]
    #[should_panic(expected = "non-dense facility id")]
    fn dense_ids_enforced() {
        let mut m = ColocationMap::new();
        m.add_facility(fac(5, 0));
    }
}
