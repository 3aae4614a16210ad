//! Autonomous system numbers.
//!
//! Kepler discards routes whose AS path contains private or special-purpose
//! ASNs (paper §4.1, citing the Team Cymru bogon reference), so the
//! classification predicates here follow the IANA special-purpose AS number
//! registry.

use std::fmt;

/// A 4-byte autonomous system number (RFC 6793).
///
/// Stored as the full 32-bit value; 2-byte ASNs are the subset `< 65536`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Asn(pub u32);

impl Asn {
    /// `AS_TRANS` (RFC 6793): stands in for 4-byte ASNs on 2-byte sessions.
    pub const TRANS: Asn = Asn(23456);

    /// Returns `true` for the RFC 6996 private-use ranges
    /// (64512–65534 and 4200000000–4294967294).
    pub fn is_private(self) -> bool {
        (64512..=65534).contains(&self.0) || (4_200_000_000..=4_294_967_294).contains(&self.0)
    }

    /// Returns `true` for the RFC 5398 documentation ranges
    /// (64496–64511 and 65536–65551).
    pub fn is_documentation(self) -> bool {
        (64496..=64511).contains(&self.0) || (65536..=65551).contains(&self.0)
    }

    /// Returns `true` for AS 0 (RFC 7607) and AS 4294967295 (RFC 7300).
    pub fn is_reserved(self) -> bool {
        self.0 == 0 || self.0 == u32::MAX || (65552..=131071).contains(&self.0)
    }

    /// Any ASN that must never appear in a public AS path: private,
    /// documentation, reserved, or `AS_TRANS`.
    pub fn is_special_purpose(self) -> bool {
        self.is_private() || self.is_documentation() || self.is_reserved() || self == Self::TRANS
    }

    /// Whether the ASN is a plausible public, routable ASN.
    pub fn is_public(self) -> bool {
        !self.is_special_purpose()
    }

    /// Whether the ASN fits in two bytes (pre-RFC 6793 space).
    pub fn is_16bit(self) -> bool {
        self.0 <= u16::MAX as u32
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl From<u32> for Asn {
    fn from(v: u32) -> Self {
        Asn(v)
    }
}

impl From<u16> for Asn {
    fn from(v: u16) -> Self {
        Asn(v as u32)
    }
}

impl std::str::FromStr for Asn {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.strip_prefix("AS").or_else(|| s.strip_prefix("as")).unwrap_or(s);
        s.parse::<u32>().map(Asn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_ranges() {
        assert!(Asn(64512).is_private());
        assert!(Asn(65534).is_private());
        assert!(!Asn(65535).is_private());
        assert!(Asn(4_200_000_000).is_private());
        assert!(!Asn(4_199_999_999).is_private());
    }

    #[test]
    fn documentation_ranges() {
        assert!(Asn(64496).is_documentation());
        assert!(Asn(65551).is_documentation());
        assert!(!Asn(65552).is_documentation());
    }

    #[test]
    fn reserved() {
        assert!(Asn(0).is_reserved());
        assert!(Asn(u32::MAX).is_reserved());
        assert!(!Asn(3356).is_reserved());
    }

    #[test]
    fn public_asns() {
        for asn in [Asn(3356), Asn(13030), Asn(20940), Asn(6939)] {
            assert!(asn.is_public(), "{asn} should be public");
        }
        assert!(!Asn::TRANS.is_public());
    }

    #[test]
    fn parse_with_and_without_prefix() {
        assert_eq!("AS13030".parse::<Asn>().unwrap(), Asn(13030));
        assert_eq!("13030".parse::<Asn>().unwrap(), Asn(13030));
        assert!("ASx".parse::<Asn>().is_err());
    }

    #[test]
    fn display() {
        assert_eq!(Asn(13030).to_string(), "AS13030");
    }
}
