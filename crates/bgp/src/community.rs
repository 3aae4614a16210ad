//! BGP communities (RFC 1997), extended communities (RFC 4360) and large
//! communities (RFC 8092).
//!
//! Communities are the information source at the heart of Kepler. A standard
//! community is a 32-bit value conventionally written `X:Y` where the top 16
//! bits `X` are the ASN of the operator that attached it and the bottom 16
//! bits `Y` are an operator-defined code — e.g. `13030:51904` means
//! *"route received at the CoreSite LAX1 facility"* in Init7's scheme.

use crate::asn::Asn;
use std::fmt;

/// A standard RFC 1997 community, stored as the raw 32-bit value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Community(pub u32);

impl Community {
    /// `NO_EXPORT` well-known community.
    pub const NO_EXPORT: Community = Community(0xFFFF_FF01);
    /// `NO_ADVERTISE` well-known community.
    pub const NO_ADVERTISE: Community = Community(0xFFFF_FF02);
    /// `NO_EXPORT_SUBCONFED` well-known community.
    pub const NO_EXPORT_SUBCONFED: Community = Community(0xFFFF_FF03);
    /// `BLACKHOLE` (RFC 7999).
    pub const BLACKHOLE: Community = Community(0xFFFF_029A);

    /// Builds a community from its `X:Y` halves.
    pub fn new(asn: u16, value: u16) -> Self {
        Community(((asn as u32) << 16) | value as u32)
    }

    /// The top 16 bits: by convention, the ASN of the tagging operator.
    pub fn asn16(self) -> u16 {
        (self.0 >> 16) as u16
    }

    /// The tagging operator as an [`Asn`].
    pub fn asn(self) -> Asn {
        Asn(self.asn16() as u32)
    }

    /// The bottom 16 bits: the operator-defined code.
    pub fn value(self) -> u16 {
        (self.0 & 0xFFFF) as u16
    }

    /// Whether the community sits in the IANA well-known block `0xFFFF....`.
    pub fn is_well_known(self) -> bool {
        self.asn16() == 0xFFFF
    }
}

impl fmt::Display for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.asn16(), self.value())
    }
}

/// Errors from parsing community textual forms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommunityParseError(pub String);

impl fmt::Display for CommunityParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed community: {:?}", self.0)
    }
}

impl std::error::Error for CommunityParseError {}

impl std::str::FromStr for Community {
    type Err = CommunityParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (a, v) = s.split_once(':').ok_or_else(|| CommunityParseError(s.into()))?;
        let a: u16 = a.parse().map_err(|_| CommunityParseError(s.into()))?;
        let v: u16 = v.parse().map_err(|_| CommunityParseError(s.into()))?;
        Ok(Community::new(a, v))
    }
}

/// An RFC 4360 extended community: 8 opaque bytes with a typed header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExtendedCommunity(pub [u8; 8]);

impl ExtendedCommunity {
    /// Two-octet-AS-specific extended community (type 0x00, subtype given).
    pub fn as2_specific(subtype: u8, asn: u16, local: u32) -> Self {
        let mut b = [0u8; 8];
        b[0] = 0x00;
        b[1] = subtype;
        b[2..4].copy_from_slice(&asn.to_be_bytes());
        b[4..8].copy_from_slice(&local.to_be_bytes());
        ExtendedCommunity(b)
    }

    /// The high-order type byte.
    pub fn type_byte(self) -> u8 {
        self.0[0]
    }
}

impl fmt::Display for ExtendedCommunity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ext:")?;
        for (i, b) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// An RFC 8092 large community: three 32-bit fields `GA:L1:L2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LargeCommunity {
    /// Global administrator — the ASN attaching the community.
    pub global: u32,
    /// First operator-defined field.
    pub local1: u32,
    /// Second operator-defined field.
    pub local2: u32,
}

impl LargeCommunity {
    /// Builds a large community from its three parts.
    pub fn new(global: u32, local1: u32, local2: u32) -> Self {
        LargeCommunity { global, local1, local2 }
    }
}

impl fmt::Display for LargeCommunity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.global, self.local1, self.local2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packs_halves() {
        let c = Community::new(13030, 51904);
        assert_eq!(c.asn16(), 13030);
        assert_eq!(c.value(), 51904);
        assert_eq!(c.asn(), Asn(13030));
        assert_eq!(c.0, (13030u32 << 16) | 51904);
    }

    #[test]
    fn display_and_parse() {
        let c: Community = "13030:51702".parse().unwrap();
        assert_eq!(c.to_string(), "13030:51702");
        assert!("13030".parse::<Community>().is_err());
        assert!("a:b".parse::<Community>().is_err());
        assert!("70000:1".parse::<Community>().is_err());
    }

    #[test]
    fn well_known() {
        assert!(Community::NO_EXPORT.is_well_known());
        assert!(Community::BLACKHOLE.is_well_known());
        assert!(!Community::new(13030, 4006).is_well_known());
    }

    #[test]
    fn extended_layout() {
        let e = ExtendedCommunity::as2_specific(0x02, 2914, 450);
        assert_eq!(e.type_byte(), 0x00);
        assert_eq!(&e.0[2..4], &2914u16.to_be_bytes());
        assert_eq!(&e.0[4..8], &450u32.to_be_bytes());
    }

    #[test]
    fn large_display() {
        assert_eq!(LargeCommunity::new(196_615, 1, 2).to_string(), "196615:1:2");
    }
}
