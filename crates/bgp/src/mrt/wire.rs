//! BGP-4 wire primitives shared by the encoders and the one parser
//! (`view`): the bounds-checked [`Cursor`], attribute codes, NLRI prefixes,
//! and the attribute and UPDATE encoders (RFC 4271 §4.3, RFC 4760).

use super::error::MrtError;
use crate::aspath::{AsPath, AsPathSegment};
use crate::attrs::PathAttributes;
use crate::message::BgpUpdate;
use crate::prefix::Prefix;
use crate::Asn;
use std::net::{IpAddr, Ipv6Addr};

/// Attribute-encoding context: BGP4MP carries full MP_REACH_NLRI, while
/// TABLE_DUMP_V2 RIB entries use the abbreviated form (next hop only,
/// RFC 6396 §4.3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AttrMode {
    Bgp4mp,
    TableDumpV2,
}

pub(crate) const ATTR_ORIGIN: u8 = 1;
pub(crate) const ATTR_AS_PATH: u8 = 2;
pub(crate) const ATTR_NEXT_HOP: u8 = 3;
pub(crate) const ATTR_MED: u8 = 4;
pub(crate) const ATTR_LOCAL_PREF: u8 = 5;
pub(crate) const ATTR_ATOMIC_AGGREGATE: u8 = 6;
pub(crate) const ATTR_COMMUNITY: u8 = 8;
pub(crate) const ATTR_MP_REACH: u8 = 14;
pub(crate) const ATTR_MP_UNREACH: u8 = 15;
pub(crate) const ATTR_EXTENDED_COMMUNITIES: u8 = 16;
pub(crate) const ATTR_LARGE_COMMUNITY: u8 = 32;

const FLAG_OPTIONAL: u8 = 0x80;
const FLAG_TRANSITIVE: u8 = 0x40;
pub(crate) const FLAG_EXTENDED_LEN: u8 = 0x10;

/// A big-endian `u32` from the first four bytes of `b`.
pub(crate) fn be_u32(b: &[u8]) -> u32 {
    u32::from_be_bytes([b[0], b[1], b[2], b[3]])
}

/// Bounds-checked big-endian cursor over a byte slice.
#[derive(Debug, Clone)]
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], MrtError> {
        if self.remaining() < n {
            return Err(MrtError::UnexpectedEof { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Everything not yet consumed.
    pub(crate) fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    pub(crate) fn u8(&mut self, context: &'static str) -> Result<u8, MrtError> {
        Ok(self.take(1, context)?[0])
    }

    pub(crate) fn u16(&mut self, context: &'static str) -> Result<u16, MrtError> {
        let b = self.take(2, context)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self, context: &'static str) -> Result<u32, MrtError> {
        Ok(be_u32(self.take(4, context)?))
    }

    pub(crate) fn ip(&mut self, v6: bool, context: &'static str) -> Result<IpAddr, MrtError> {
        let b = self.take(if v6 { 16 } else { 4 }, context)?;
        Ok(<[u8; 16]>::try_from(b).map_or_else(|_| [b[0], b[1], b[2], b[3]].into(), IpAddr::from))
    }
}

/// Encodes one NLRI prefix: length byte + minimal octets.
pub(crate) fn encode_nlri_prefix(prefix: &Prefix, out: &mut Vec<u8>) {
    out.push(prefix.len());
    let nbytes = (prefix.len() as usize).div_ceil(8);
    match prefix.addr() {
        IpAddr::V4(a) => out.extend_from_slice(&a.octets()[..nbytes]),
        IpAddr::V6(a) => out.extend_from_slice(&a.octets()[..nbytes]),
    }
}

/// Reads one NLRI prefix's length, checked against the family, and its
/// address bytes: the parser's NLRI validation.
#[inline]
pub(crate) fn nlri_bytes<'a>(cur: &mut Cursor<'a>, v6: bool) -> Result<(u8, &'a [u8]), MrtError> {
    let len = cur.u8("NLRI prefix length")?;
    if len > if v6 { 128 } else { 32 } {
        return Err(MrtError::BadValue { context: "NLRI prefix length" });
    }
    Ok((len, cur.take(usize::from(len).div_ceil(8), "NLRI prefix bytes")?))
}

/// Decodes one NLRI prefix of the given family: the one NLRI decode,
/// behind the parser's prefix iterators.
#[inline]
pub(crate) fn decode_nlri_prefix(cur: &mut Cursor<'_>, v6: bool) -> Result<Prefix, MrtError> {
    let (len, raw) = nlri_bytes(cur, v6)?;
    let mut a = [0u8; 16];
    for (d, s) in a.iter_mut().zip(raw) {
        *d = *s;
    }
    let addr: IpAddr = if v6 { a.into() } else { [a[0], a[1], a[2], a[3]].into() };
    Prefix::new(addr, len).map_err(|_| MrtError::BadValue { context: "NLRI prefix" })
}

fn push_attr(out: &mut Vec<u8>, flags: u8, attr_type: u8, body: &[u8]) {
    if body.len() > 255 {
        out.push(flags | FLAG_EXTENDED_LEN);
        out.push(attr_type);
        out.extend_from_slice(&(body.len() as u16).to_be_bytes());
    } else {
        out.push(flags);
        out.push(attr_type);
        out.push(body.len() as u8);
    }
    out.extend_from_slice(body);
}

fn encode_as_path(path: &AsPath) -> Vec<u8> {
    let mut body = Vec::new();
    for seg in path.segments() {
        let (code, asns): (u8, &[Asn]) = match seg {
            AsPathSegment::Set(v) => (1, v),
            AsPathSegment::Sequence(v) => (2, v),
        };
        // RFC 4271 limits a segment to 255 ASNs; split longer ones.
        for chunk in asns.chunks(255) {
            body.push(code);
            body.push(chunk.len() as u8);
            for asn in chunk {
                body.extend_from_slice(&asn.0.to_be_bytes());
            }
        }
    }
    body
}

/// Encodes the attribute block. `v6_announced`/`v6_withdrawn` go into
/// MP_REACH / MP_UNREACH (BGP4MP mode only; TDV2 RIB entries never carry
/// NLRI inside attributes).
pub(crate) fn encode_attrs(
    attrs: &PathAttributes,
    v6_announced: &[Prefix],
    v6_withdrawn: &[Prefix],
    mode: AttrMode,
) -> Vec<u8> {
    let mut out = Vec::new();
    push_attr(&mut out, FLAG_TRANSITIVE, ATTR_ORIGIN, &[attrs.origin.code()]);
    push_attr(&mut out, FLAG_TRANSITIVE, ATTR_AS_PATH, &encode_as_path(&attrs.as_path));
    if let IpAddr::V4(nh) = attrs.next_hop {
        push_attr(&mut out, FLAG_TRANSITIVE, ATTR_NEXT_HOP, &nh.octets());
    }
    if let Some(med) = attrs.med {
        push_attr(&mut out, FLAG_OPTIONAL, ATTR_MED, &med.to_be_bytes());
    }
    if let Some(lp) = attrs.local_pref {
        push_attr(&mut out, FLAG_TRANSITIVE, ATTR_LOCAL_PREF, &lp.to_be_bytes());
    }
    if attrs.atomic_aggregate {
        push_attr(&mut out, FLAG_TRANSITIVE, ATTR_ATOMIC_AGGREGATE, &[]);
    }
    if !attrs.communities.is_empty() {
        let mut body = Vec::with_capacity(attrs.communities.len() * 4);
        for c in &attrs.communities {
            body.extend_from_slice(&c.0.to_be_bytes());
        }
        push_attr(&mut out, FLAG_OPTIONAL | FLAG_TRANSITIVE, ATTR_COMMUNITY, &body);
    }
    match mode {
        AttrMode::Bgp4mp => {
            if !v6_announced.is_empty() {
                let mut body = Vec::new();
                body.extend_from_slice(&2u16.to_be_bytes()); // AFI: IPv6
                body.push(1); // SAFI: unicast
                let nh = match attrs.next_hop {
                    IpAddr::V6(a) => a,
                    IpAddr::V4(_) => Ipv6Addr::UNSPECIFIED,
                };
                body.push(16);
                body.extend_from_slice(&nh.octets());
                body.push(0); // reserved
                for p in v6_announced {
                    encode_nlri_prefix(p, &mut body);
                }
                push_attr(&mut out, FLAG_OPTIONAL, ATTR_MP_REACH, &body);
            }
            if !v6_withdrawn.is_empty() {
                let mut body = Vec::new();
                body.extend_from_slice(&2u16.to_be_bytes());
                body.push(1);
                for p in v6_withdrawn {
                    encode_nlri_prefix(p, &mut body);
                }
                push_attr(&mut out, FLAG_OPTIONAL, ATTR_MP_UNREACH, &body);
            }
        }
        AttrMode::TableDumpV2 => {
            if let IpAddr::V6(nh) = attrs.next_hop {
                let mut body = Vec::with_capacity(17);
                body.push(16);
                body.extend_from_slice(&nh.octets());
                push_attr(&mut out, FLAG_OPTIONAL, ATTR_MP_REACH, &body);
            }
        }
    }
    if !attrs.extended_communities.is_empty() {
        let mut body = Vec::with_capacity(attrs.extended_communities.len() * 8);
        for e in &attrs.extended_communities {
            body.extend_from_slice(&e.0);
        }
        push_attr(&mut out, FLAG_OPTIONAL | FLAG_TRANSITIVE, ATTR_EXTENDED_COMMUNITIES, &body);
    }
    if !attrs.large_communities.is_empty() {
        let mut body = Vec::with_capacity(attrs.large_communities.len() * 12);
        for l in &attrs.large_communities {
            body.extend_from_slice(&l.global.to_be_bytes());
            body.extend_from_slice(&l.local1.to_be_bytes());
            body.extend_from_slice(&l.local2.to_be_bytes());
        }
        push_attr(&mut out, FLAG_OPTIONAL | FLAG_TRANSITIVE, ATTR_LARGE_COMMUNITY, &body);
    }
    out
}

/// Encodes a full BGP UPDATE message (marker + header + body).
pub(crate) fn encode_bgp_update(update: &BgpUpdate) -> Vec<u8> {
    let (w4, w6): (Vec<&Prefix>, Vec<&Prefix>) = update.withdrawn.iter().partition(|p| p.is_ipv4());
    let (a4, a6): (Vec<&Prefix>, Vec<&Prefix>) = update.announced.iter().partition(|p| p.is_ipv4());

    let mut withdrawn_bytes = Vec::new();
    for p in &w4 {
        encode_nlri_prefix(p, &mut withdrawn_bytes);
    }

    let attr_bytes = match &update.attrs {
        Some(attrs) => {
            let v6a: Vec<Prefix> = a6.iter().map(|p| **p).collect();
            let v6w: Vec<Prefix> = w6.iter().map(|p| **p).collect();
            encode_attrs(attrs, &v6a, &v6w, AttrMode::Bgp4mp)
        }
        None => {
            if !w6.is_empty() {
                // Withdraw-only IPv6 update: MP_UNREACH with no other attrs.
                let v6w: Vec<Prefix> = w6.iter().map(|p| **p).collect();
                let mut body = Vec::new();
                body.extend_from_slice(&2u16.to_be_bytes());
                body.push(1);
                for p in &v6w {
                    encode_nlri_prefix(p, &mut body);
                }
                let mut out = Vec::new();
                push_attr(&mut out, FLAG_OPTIONAL, ATTR_MP_UNREACH, &body);
                out
            } else {
                Vec::new()
            }
        }
    };

    let mut nlri = Vec::new();
    for p in &a4 {
        encode_nlri_prefix(p, &mut nlri);
    }

    let body_len = 2 + withdrawn_bytes.len() + 2 + attr_bytes.len() + nlri.len();
    let total = 19 + body_len;
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&[0xFF; 16]);
    out.extend_from_slice(&(total as u16).to_be_bytes());
    out.push(2); // message type: UPDATE
    out.extend_from_slice(&(withdrawn_bytes.len() as u16).to_be_bytes());
    out.extend_from_slice(&withdrawn_bytes);
    out.extend_from_slice(&(attr_bytes.len() as u16).to_be_bytes());
    out.extend_from_slice(&attr_bytes);
    out.extend_from_slice(&nlri);
    out
}

#[cfg(test)]
mod tests {
    use super::super::view::{AttrsView, UpdateView};
    use super::*;
    use crate::community::Community;

    #[test]
    fn nlri_prefix_roundtrip_various_lengths() {
        for len in [0u8, 1, 7, 8, 9, 16, 17, 24, 32] {
            let p = Prefix::new("203.5.113.0".parse().unwrap(), len).unwrap();
            let mut buf = Vec::new();
            encode_nlri_prefix(&p, &mut buf);
            assert_eq!(buf.len(), 1 + (len as usize).div_ceil(8));
            let mut cur = Cursor::new(&buf);
            assert_eq!(decode_nlri_prefix(&mut cur, false).unwrap(), p);
        }
    }

    #[test]
    fn nlri_rejects_overlong() {
        let buf = [40u8, 1, 2, 3, 4, 5];
        let mut cur = Cursor::new(&buf);
        assert!(decode_nlri_prefix(&mut cur, false).is_err());
    }

    fn roundtrip_attrs(attrs: &PathAttributes, mode: AttrMode) -> PathAttributes {
        let raw = encode_attrs(attrs, &[], &[], mode);
        AttrsView::parse(&raw, &raw, mode).unwrap().to_attrs()
    }

    #[test]
    fn long_as_path_splits_and_merges() {
        let attrs = PathAttributes {
            as_path: AsPath::from_sequence((1..=600u32).collect::<Vec<_>>()),
            ..Default::default()
        };
        assert_eq!(roundtrip_attrs(&attrs, AttrMode::Bgp4mp), attrs);
    }

    #[test]
    fn update_with_both_families() {
        let attrs = PathAttributes::with_path_and_communities(
            AsPath::from_sequence([13030, 20940]),
            vec![Community::new(13030, 51904)],
        );
        let upd = BgpUpdate {
            withdrawn: vec![Prefix::v4(100, 0, 0, 0, 8), "2600:1::/32".parse().unwrap()],
            attrs: Some(attrs),
            announced: vec![Prefix::v4(184, 84, 242, 0, 24), "2600:2::/32".parse().unwrap()],
        };
        let bytes = encode_bgp_update(&upd);
        assert_eq!(UpdateView::parse(&bytes).unwrap().materialize(), upd);
    }

    #[test]
    fn withdraw_only_v6() {
        let upd = BgpUpdate::withdraw(vec!["2600:9::/32".parse().unwrap()]);
        let bytes = encode_bgp_update(&upd);
        assert_eq!(UpdateView::parse(&bytes).unwrap().materialize(), upd);
    }

    #[test]
    fn bad_marker_detected() {
        let upd = BgpUpdate::withdraw(vec![Prefix::v4(184, 84, 0, 0, 16)]);
        let mut bytes = encode_bgp_update(&upd);
        bytes[3] = 0;
        assert!(matches!(UpdateView::parse(&bytes), Err(MrtError::BadMarker)));
    }

    #[test]
    fn unknown_attribute_is_skipped() {
        let attrs =
            PathAttributes::with_path_and_communities(AsPath::from_sequence([1, 2]), vec![]);
        let mut raw = encode_attrs(&attrs, &[], &[], AttrMode::Bgp4mp);
        // Append an unknown optional-transitive attribute type 99.
        raw.extend_from_slice(&[FLAG_OPTIONAL | FLAG_TRANSITIVE, 99, 2, 0xAB, 0xCD]);
        let decoded = AttrsView::parse(&raw, &raw, AttrMode::Bgp4mp).unwrap().to_attrs();
        assert_eq!(decoded, attrs);
    }

    #[test]
    fn tdv2_mode_encodes_abbreviated_v6_next_hop() {
        let attrs = PathAttributes {
            next_hop: "2001:7f8::1".parse::<std::net::Ipv6Addr>().unwrap().into(),
            as_path: AsPath::from_sequence([3356, 20940]),
            ..Default::default()
        };
        assert_eq!(roundtrip_attrs(&attrs, AttrMode::TableDumpV2), attrs);
    }
}
