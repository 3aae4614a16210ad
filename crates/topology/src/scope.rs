//! Where an outage is localized: one facility, one IXP or one city.
//!
//! Paper §4.3 localizes an outage to a PoP at one of three granularities
//! and §4.4 probes that epicenter; the detector, the probe engine and the
//! simulator's ground truth all name it with this one type, and every
//! question about a scope's geography is answered here, from the
//! [`ColocationMap`].

use crate::colomap::ColocationMap;
use crate::entities::{CityId, FacilityId, IxpId};
use kepler_bgp::Asn;
use std::collections::BTreeSet;
use std::fmt;

/// Where an outage is localized, and what restoration and baseline
/// probes aim at.
///
/// Variants order Facility < Ixp < City: ordered tables keyed by scope
/// walk the sharpest scopes first, and a merge that picks the smallest
/// related scope keeps the sharpest one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OutageScope {
    /// A single building.
    Facility(FacilityId),
    /// An exchange fabric.
    Ixp(IxpId),
    /// A metropolitan area (several facilities/IXPs failed together).
    City(CityId),
}

impl OutageScope {
    /// The metro this scope sits in: a facility's or an IXP's city, or
    /// the city itself. `None` for a facility or IXP the map lacks.
    pub fn city(self, colo: &ColocationMap) -> Option<CityId> {
        match self {
            OutageScope::Facility(f) => colo.facility(f).map(|f| f.city),
            OutageScope::Ixp(x) => colo.ixp(x).map(|x| x.city),
            OutageScope::City(c) => Some(c),
        }
    }

    /// Whether two scopes plausibly describe one physical incident: they
    /// are equal, or both sit in the same known city.
    pub fn related(self, other: OutageScope, colo: &ColocationMap) -> bool {
        self == other || matches!((self.city(colo), other.city(colo)), (Some(a), Some(b)) if a == b)
    }

    /// The buildings this scope spans: itself, an exchange's fabric
    /// sites, or every facility of a city.
    pub fn facilities(self, colo: &ColocationMap) -> Vec<FacilityId> {
        match self {
            OutageScope::Facility(f) => vec![f],
            OutageScope::Ixp(x) => colo.facilities_of_ixp(x).iter().copied().collect(),
            OutageScope::City(c) => colo.facilities_in_city(c),
        }
    }

    /// The member ASes colocated at this scope.
    pub fn members(self, colo: &ColocationMap) -> BTreeSet<Asn> {
        match self {
            OutageScope::Facility(f) => colo.members_of_facility(f).clone(),
            OutageScope::Ixp(x) => colo.members_of_ixp(x).clone(),
            OutageScope::City(c) => colo
                .facilities_in_city(c)
                .into_iter()
                .flat_map(|f| colo.members_of_facility(f).iter().copied())
                .collect(),
        }
    }
}

impl fmt::Display for OutageScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OutageScope::Facility(x) => write!(f, "facility {}", x.0),
            OutageScope::Ixp(x) => write!(f, "ixp {}", x.0),
            OutageScope::City(x) => write!(f, "city {}", x.0),
        }
    }
}
