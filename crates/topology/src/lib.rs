//! Colocation-map substrate for Kepler.
//!
//! Paper §3.3: community values mostly geolocate routes at *city* level,
//! which is too coarse to pinpoint a building. Kepler therefore maintains a
//! high-resolution **colocation map** of three interconnection relations —
//! AS↔facility, AS↔IXP, IXP↔facility — mined from PeeringDB and
//! DataCenterMap, merged by postal address (facilities) and URL/city (IXPs)
//! because names are not standardized across sources.
//!
//! * [`geo`] — coordinates, haversine distances, continents and the city
//!   gazetteer shared by every other crate.
//! * [`entities`] — facilities, IXPs, AS records and their id spaces.
//! * [`org`] — AS-to-organization (sibling) mapping, after CAIDA's
//!   AS-to-Org method, used by the operator-level signal classifier.
//! * [`sources`] — the two heterogeneous colocation data sources with
//!   their diverging naming conventions.
//! * [`merge`] — source merging into a single [`colomap::ColocationMap`].
//! * [`colomap`] — the queryable map with all indices Kepler needs.
//! * [`scope`] — [`OutageScope`], where an outage is localized (facility,
//!   IXP or city), with its city, members and relatedness read off the
//!   map.
//!
//! # Invariants
//!
//! * **Dense id spaces**: [`FacilityId`], [`IxpId`] and [`CityId`] index
//!   flat vectors; every consumer (monitor, investigator, simulator)
//!   relies on ids `0..n` being valid.
//! * **Merging is by physical identity**, not by name — postal address
//!   for facilities, URL/city for IXPs — because names are not
//!   standardized across sources; the merged map may therefore list
//!   members a single source missed.
//! * Membership queries ([`ColocationMap::members_of_facility`] etc.)
//!   return sorted, deduplicated sets, so set algebra over them is
//!   deterministic.

#![forbid(unsafe_code)]

pub mod colomap;
pub mod entities;
pub mod geo;
pub mod merge;
pub mod org;
pub mod scope;
pub mod sources;

pub use colomap::ColocationMap;
pub use entities::{AsInfo, AsType, CityId, Facility, FacilityId, Ixp, IxpId};
pub use geo::{CityGazetteer, Continent, GeoPoint};
pub use org::{OrgId, OrgMap};
pub use scope::OutageScope;
