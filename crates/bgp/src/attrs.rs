//! The BGP path-attribute bundle carried by UPDATE messages.

use crate::aspath::AsPath;
use crate::community::{Community, ExtendedCommunity, LargeCommunity};
use std::fmt;
use std::net::{IpAddr, Ipv4Addr};

/// The ORIGIN attribute (RFC 4271 §5.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Origin {
    /// Learned from an IGP (`0`).
    Igp,
    /// Learned from EGP (`1`).
    Egp,
    /// Unknown provenance (`2`).
    Incomplete,
}

impl Origin {
    /// Wire encoding.
    pub fn code(self) -> u8 {
        match self {
            Origin::Igp => 0,
            Origin::Egp => 1,
            Origin::Incomplete => 2,
        }
    }

    /// Decodes the wire value.
    pub fn from_code(c: u8) -> Option<Self> {
        match c {
            0 => Some(Origin::Igp),
            1 => Some(Origin::Egp),
            2 => Some(Origin::Incomplete),
            _ => None,
        }
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Origin::Igp => write!(f, "IGP"),
            Origin::Egp => write!(f, "EGP"),
            Origin::Incomplete => write!(f, "INCOMPLETE"),
        }
    }
}

/// All path attributes Kepler cares about, in decoded form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathAttributes {
    /// ORIGIN.
    pub origin: Origin,
    /// AS_PATH (merged with AS4_PATH where applicable).
    pub as_path: AsPath,
    /// NEXT_HOP for IPv4, or the MP_REACH next hop for IPv6.
    pub next_hop: IpAddr,
    /// MULTI_EXIT_DISC, if present.
    pub med: Option<u32>,
    /// LOCAL_PREF, if present (only meaningful on iBGP feeds).
    pub local_pref: Option<u32>,
    /// ATOMIC_AGGREGATE flag.
    pub atomic_aggregate: bool,
    /// Standard RFC 1997 communities — Kepler's primary signal.
    pub communities: Vec<Community>,
    /// RFC 4360 extended communities.
    pub extended_communities: Vec<ExtendedCommunity>,
    /// RFC 8092 large communities.
    pub large_communities: Vec<LargeCommunity>,
}

impl Default for PathAttributes {
    fn default() -> Self {
        PathAttributes {
            origin: Origin::Igp,
            as_path: AsPath::empty(),
            next_hop: IpAddr::V4(Ipv4Addr::UNSPECIFIED),
            med: None,
            local_pref: None,
            atomic_aggregate: false,
            communities: Vec::new(),
            extended_communities: Vec::new(),
            large_communities: Vec::new(),
        }
    }
}

impl PathAttributes {
    /// Convenience constructor for the common simulator case.
    pub fn with_path_and_communities(as_path: AsPath, communities: Vec<Community>) -> Self {
        PathAttributes { as_path, communities, ..Default::default() }
    }

    /// Whether any standard community from `asn16` is attached.
    pub fn has_community_from(&self, asn16: u16) -> bool {
        self.communities.iter().any(|c| c.asn16() == asn16)
    }

    /// All communities attached by `asn16`.
    pub fn communities_from(&self, asn16: u16) -> impl Iterator<Item = Community> + '_ {
        self.communities.iter().copied().filter(move |c| c.asn16() == asn16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_codes_roundtrip() {
        for o in [Origin::Igp, Origin::Egp, Origin::Incomplete] {
            assert_eq!(Origin::from_code(o.code()), Some(o));
        }
        assert_eq!(Origin::from_code(7), None);
    }

    #[test]
    fn community_filtering() {
        let attrs = PathAttributes::with_path_and_communities(
            AsPath::from_sequence([13030, 20940]),
            vec![
                Community::new(13030, 51904),
                Community::new(13030, 4006),
                Community::new(2914, 410),
            ],
        );
        assert!(attrs.has_community_from(13030));
        assert!(attrs.has_community_from(2914));
        assert!(!attrs.has_community_from(3356));
        assert_eq!(attrs.communities_from(13030).count(), 2);
    }
}
