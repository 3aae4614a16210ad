//! Core entities of the interconnection ecosystem.

use crate::geo::{Continent, GeoPoint};
use kepler_bgp::Asn;
use std::fmt;

/// Dense identifier of a colocation facility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FacilityId(pub u32);

impl fmt::Display for FacilityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fac{}", self.0)
    }
}

/// Dense identifier of an IXP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IxpId(pub u32);

impl fmt::Display for IxpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ixp{}", self.0)
    }
}

/// Dense identifier of a city (index into the gazetteer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CityId(pub u32);

impl fmt::Display for CityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "city{}", self.0)
    }
}

/// A colocation facility: one building with a postal address.
#[derive(Debug, Clone, PartialEq)]
pub struct Facility {
    /// Dense id.
    pub id: FacilityId,
    /// Canonical display name (e.g. "Equinix FR5 KleyerStrasse").
    pub name: String,
    /// Street address.
    pub address: String,
    /// Postcode — together with the country this is the merge key across
    /// data sources (paper §3.3).
    pub postcode: String,
    /// ISO country code.
    pub country: String,
    /// City the facility is in.
    pub city: CityId,
    /// Continent bucket (denormalized for Table 1 / Figure 5).
    pub continent: Continent,
    /// Building coordinates.
    pub point: GeoPoint,
    /// Operating company (e.g. "Equinix").
    pub operator: String,
}

/// An Internet exchange point: a distributed layer-2 fabric whose switches
/// live inside colocation facilities.
#[derive(Debug, Clone, PartialEq)]
pub struct Ixp {
    /// Dense id.
    pub id: IxpId,
    /// Display name (e.g. "DE-CIX Frankfurt").
    pub name: String,
    /// Website URL — the merge key across data sources.
    pub url: String,
    /// Headquarters city.
    pub city: CityId,
    /// Continent bucket.
    pub continent: Continent,
    /// ASN of the IXP's route server, if it operates one.
    pub route_server_asn: Option<Asn>,
}

/// Coarse business role of an AS; drives topology generation and peering
/// policy in the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AsType {
    /// Global transit-free backbone.
    Tier1,
    /// Regional/national transit provider.
    Tier2,
    /// Access/eyeball network.
    Eyeball,
    /// Content provider or CDN.
    Content,
    /// Enterprise or stub edge network.
    Stub,
    /// An IXP's route-server AS (never originates prefixes).
    RouteServer,
}

/// Directory entry for an AS.
#[derive(Debug, Clone, PartialEq)]
pub struct AsInfo {
    /// The AS number.
    pub asn: Asn,
    /// Display name.
    pub name: String,
    /// Role.
    pub as_type: AsType,
    /// Home city.
    pub home_city: CityId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_display() {
        assert_eq!(FacilityId(3).to_string(), "fac3");
        assert_eq!(IxpId(9).to_string(), "ixp9");
        assert_eq!(CityId(1).to_string(), "city1");
    }
}
