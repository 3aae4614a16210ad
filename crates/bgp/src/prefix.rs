//! IPv4/IPv6 prefixes.
//!
//! A [`Prefix`] is always stored in canonical form: the host bits below the
//! prefix length are zeroed, so two prefixes compare equal iff they denote
//! the same address block.

use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// An IP prefix (address block) of either family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    addr: IpAddr,
    len: u8,
}

/// Errors produced when parsing or constructing a [`Prefix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixError {
    /// The prefix length exceeds the family maximum (32 or 128).
    LengthOutOfRange { len: u8, max: u8 },
    /// The textual form was not `addr/len`.
    Malformed(String),
}

impl fmt::Display for PrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixError::LengthOutOfRange { len, max } => {
                write!(f, "prefix length {len} out of range (max {max})")
            }
            PrefixError::Malformed(s) => write!(f, "malformed prefix: {s:?}"),
        }
    }
}

impl std::error::Error for PrefixError {}

impl Prefix {
    /// Builds a canonical prefix, zeroing host bits.
    #[inline]
    pub fn new(addr: IpAddr, len: u8) -> Result<Self, PrefixError> {
        let max = match addr {
            IpAddr::V4(_) => 32,
            IpAddr::V6(_) => 128,
        };
        if len > max {
            return Err(PrefixError::LengthOutOfRange { len, max });
        }
        Ok(Prefix { addr: mask_addr(addr, len), len })
    }

    /// IPv4 convenience constructor; panics on invalid length (tests only).
    pub fn v4(a: u8, b: u8, c: u8, d: u8, len: u8) -> Self {
        Prefix::new(IpAddr::V4(Ipv4Addr::new(a, b, c, d)), len).expect("valid v4 length")
    }

    /// IPv6 convenience constructor from the top 64 bits.
    pub fn v6(high: u64, len: u8) -> Self {
        let bits = (high as u128) << 64;
        Prefix::new(IpAddr::V6(Ipv6Addr::from(bits)), len).expect("valid v6 length")
    }

    /// The canonical network address.
    pub fn addr(&self) -> IpAddr {
        self.addr
    }

    /// The prefix length in bits.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// `true` for a zero-length (default-route) prefix.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether this is an IPv4 prefix.
    pub fn is_ipv4(&self) -> bool {
        self.addr.is_ipv4()
    }

    /// Whether this is an IPv6 prefix.
    pub fn is_ipv6(&self) -> bool {
        self.addr.is_ipv6()
    }

    /// Whether `ip` falls inside this prefix. Mixed families never match.
    pub fn contains_addr(&self, ip: IpAddr) -> bool {
        match (self.addr, ip) {
            (IpAddr::V4(net), IpAddr::V4(ip)) => {
                let m = v4_mask(self.len);
                u32::from(ip) & m == u32::from(net)
            }
            (IpAddr::V6(net), IpAddr::V6(ip)) => {
                let m = v6_mask(self.len);
                u128::from(ip) & m == u128::from(net)
            }
            _ => false,
        }
    }

    /// Whether `other` is fully covered by `self` (same family, longer or
    /// equal length, same network bits).
    pub fn covers(&self, other: &Prefix) -> bool {
        other.len >= self.len && self.contains_addr(other.addr)
    }

    /// Classifies the prefix as a *bogon*: special-purpose address space that
    /// must never appear in the global routing table (RFC 6890 and friends).
    pub fn is_bogon(&self) -> bool {
        match self.addr {
            IpAddr::V4(a) => {
                let bits = u32::from(a);
                let in4 = |top: u32, len: u8| bits & v4_mask(len) == top;
                in4(0x0000_0000, 8) // "this network" 0.0.0.0/8
                    || in4(0x0A00_0000, 8) // private 10.0.0.0/8
                    || in4(0x6440_0000, 10) // shared CGN 100.64.0.0/10
                    || in4(0x7F00_0000, 8) // loopback 127.0.0.0/8
                    || in4(0xA9FE_0000, 16) // link local 169.254.0.0/16
                    || in4(0xAC10_0000, 12) // private 172.16.0.0/12
                    || in4(0xC000_0000, 24) // IETF protocol 192.0.0.0/24
                    || in4(0xC000_0200, 24) // TEST-NET-1 192.0.2.0/24
                    || in4(0xC0A8_0000, 16) // private 192.168.0.0/16
                    || in4(0xC612_0000, 15) // benchmarking 198.18.0.0/15
                    || in4(0xC633_6400, 24) // TEST-NET-2 198.51.100.0/24
                    || in4(0xCB00_7100, 24) // TEST-NET-3 203.0.113.0/24
                    || in4(0xE000_0000, 4) // multicast 224.0.0.0/4
                    || in4(0xF000_0000, 4) // reserved 240.0.0.0/4
            }
            IpAddr::V6(a) => {
                let bits = u128::from(a);
                let in6 = |top: u128, len: u8| bits & v6_mask(len) == top;
                in6(0, 127) // ::/128 and ::1/128
                    || in6(0xfc00 << 112, 7) // unique local fc00::/7
                    || in6(0xfe80 << 112, 10) // link local
                    || in6(0xff00 << 112, 8) // multicast
                    || in6(0x2001_0db8 << 96, 32) // documentation
                    || in6(0x0064_ff9b << 96, 96) // 64:ff9b::/96 NAT64 well-known
            }
        }
    }

    /// Whether the prefix length is within conventional global-table filters
    /// (IPv4: /8–/24, IPv6: /16–/48); announcements outside are usually
    /// leaks, blackholes or more-specific hijacks.
    pub fn is_conventional_size(&self) -> bool {
        match self.addr {
            IpAddr::V4(_) => (8..=24).contains(&self.len),
            IpAddr::V6(_) => (16..=48).contains(&self.len),
        }
    }
}

/// Zeroes host bits of `addr` below `len`.
fn mask_addr(addr: IpAddr, len: u8) -> IpAddr {
    match addr {
        IpAddr::V4(a) => IpAddr::V4(Ipv4Addr::from(u32::from(a) & v4_mask(len))),
        IpAddr::V6(a) => IpAddr::V6(Ipv6Addr::from(u128::from(a) & v6_mask(len))),
    }
}

fn v4_mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len as u32)
    }
}

fn v6_mask(len: u8) -> u128 {
    if len == 0 {
        0
    } else {
        u128::MAX << (128 - len as u32)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl std::str::FromStr for Prefix {
    type Err = PrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or_else(|| PrefixError::Malformed(s.into()))?;
        let addr: IpAddr = addr.parse().map_err(|_| PrefixError::Malformed(s.into()))?;
        let len: u8 = len.parse().map_err(|_| PrefixError::Malformed(s.into()))?;
        Prefix::new(addr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalizes_host_bits() {
        let p = Prefix::v4(10, 1, 2, 3, 16);
        assert_eq!(p.to_string(), "10.1.0.0/16");
        assert_eq!(p, Prefix::v4(10, 1, 0, 0, 16));
    }

    #[test]
    fn parse_roundtrip() {
        let p: Prefix = "184.84.242.0/24".parse().unwrap();
        assert_eq!(p.to_string(), "184.84.242.0/24");
        let p6: Prefix = "2001:db8::/32".parse().unwrap();
        assert_eq!(p6.to_string(), "2001:db8::/32");
    }

    #[test]
    fn rejects_bad_lengths() {
        assert!(Prefix::new("1.2.3.4".parse().unwrap(), 33).is_err());
        assert!(Prefix::new("::1".parse().unwrap(), 129).is_err());
        assert!("10.0.0.0/40".parse::<Prefix>().is_err());
    }

    #[test]
    fn containment() {
        let p = Prefix::v4(192, 0, 2, 0, 24);
        assert!(p.contains_addr("192.0.2.77".parse().unwrap()));
        assert!(!p.contains_addr("192.0.3.1".parse().unwrap()));
        assert!(!p.contains_addr("2001:db8::1".parse().unwrap()));
        assert!(p.covers(&Prefix::v4(192, 0, 2, 128, 25)));
        assert!(!Prefix::v4(192, 0, 2, 128, 25).covers(&p));
    }

    #[test]
    fn default_route_contains_everything_v4() {
        let d = Prefix::v4(0, 0, 0, 0, 0);
        assert!(d.contains_addr("8.8.8.8".parse().unwrap()));
        assert!(d.is_empty());
    }

    #[test]
    fn bogons() {
        assert!(Prefix::v4(10, 20, 0, 0, 16).is_bogon());
        assert!(Prefix::v4(192, 168, 5, 0, 24).is_bogon());
        assert!(Prefix::v4(203, 0, 113, 0, 24).is_bogon());
        assert!(!Prefix::v4(184, 84, 242, 0, 24).is_bogon());
        assert!("fe80::/10".parse::<Prefix>().unwrap().is_bogon());
        assert!("2001:db8:1::/48".parse::<Prefix>().unwrap().is_bogon());
        assert!(!"2600::/24".parse::<Prefix>().unwrap().is_bogon());
    }

    #[test]
    fn conventional_sizes() {
        assert!(Prefix::v4(184, 84, 242, 0, 24).is_conventional_size());
        assert!(!Prefix::v4(184, 84, 242, 0, 28).is_conventional_size());
        assert!("2600::/32".parse::<Prefix>().unwrap().is_conventional_size());
        assert!(!"2600::/64".parse::<Prefix>().unwrap().is_conventional_size());
    }
}
