//! Ground-truth community schemes.
//!
//! A scheme is what an operator *means* by each community value. The
//! simulator uses schemes to tag routes at ingress points; the corpus
//! generator renders them into documentation; the miner tries to recover
//! them. Keeping all three views consistent is what makes the dictionary's
//! accuracy measurable.

use kepler_bgp::{Asn, Community};
use kepler_topology::{CityId, FacilityId, IxpId};

/// What one community value geolocates, in ground truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemeTarget {
    /// Ingress at city granularity; `ident` is the identifier style the
    /// operator documents ("New York City", "NYC", or "JFK").
    City {
        /// Documented identifier.
        ident: String,
        /// Ground-truth city.
        city: CityId,
    },
    /// Ingress at a specific colocation facility.
    Facility {
        /// Documented facility name.
        name: String,
        /// Ground-truth facility.
        id: FacilityId,
    },
    /// Ingress via a specific IXP.
    Ixp {
        /// Documented IXP name.
        name: String,
        /// Ground-truth IXP.
        id: IxpId,
    },
}

/// One (value, meaning) pair of a scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeEntry {
    /// The low 16 bits of the community.
    pub value: u16,
    /// What it tags.
    pub target: SchemeTarget,
}

impl SchemeEntry {
    /// The full community for the scheme's `asn`.
    pub fn community(&self, asn: Asn) -> Community {
        Community::new(asn.0 as u16, self.value)
    }
}

/// The documentation style an operator uses — drives corpus rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocStyle {
    /// `remarks:` lines in an IRR object.
    IrrRemarks,
    /// Prose-ish support web page.
    WebPage,
}

/// A complete operator scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommunityScheme {
    /// The operator's ASN (16-bit in the classic community convention).
    pub asn: Asn,
    /// Location-tagging entries (the signal).
    pub entries: Vec<SchemeEntry>,
    /// Outbound action values the operator also documents (the noise the
    /// miner must filter out via verb voice).
    pub action_values: Vec<u16>,
    /// Whether the operator publishes documentation at all. Undocumented
    /// schemes exist in BGP data but can never enter the dictionary —
    /// exactly the paper's XO/Verizon case.
    pub documented: bool,
    /// Rendering style.
    pub style: DocStyle,
}

impl CommunityScheme {
    /// All ground-truth location communities of this scheme.
    pub fn communities(&self) -> impl Iterator<Item = (Community, &SchemeTarget)> + '_ {
        self.entries.iter().map(move |e| (e.community(self.asn), &e.target))
    }

    /// Looks up the ground-truth target for a community value.
    pub fn target_of(&self, value: u16) -> Option<&SchemeTarget> {
        self.entries.iter().find(|e| e.value == value).map(|e| &e.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn community_construction() {
        let s = CommunityScheme {
            asn: Asn(13030),
            entries: vec![SchemeEntry {
                value: 51904,
                target: SchemeTarget::Facility { name: "Coresite LAX1".into(), id: FacilityId(7) },
            }],
            action_values: vec![9003],
            documented: true,
            style: DocStyle::IrrRemarks,
        };
        let (c, t) = s.communities().next().unwrap();
        assert_eq!(c, Community::new(13030, 51904));
        assert!(matches!(t, SchemeTarget::Facility { id: FacilityId(7), .. }));
        assert!(s.target_of(51904).is_some());
        assert!(s.target_of(1).is_none());
    }
}
