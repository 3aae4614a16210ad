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

/// Writes `out.len() - from` big-endian into the two bytes at `out[at..]`:
/// the one place a 16-bit length is written once what it counts is, and
/// where a length the field cannot hold is refused.
fn patch_len(out: &mut [u8], at: usize, from: usize, field: &'static str) -> Result<(), MrtError> {
    let len = u16::try_from(out.len() - from).map_err(|_| MrtError::BadValue { context: field })?;
    out[at..at + 2].copy_from_slice(&len.to_be_bytes());
    Ok(())
}

/// Appends a 16-bit length, then what `body` appends, which it counts.
fn with_len(
    out: &mut Vec<u8>,
    context: &'static str,
    body: impl FnOnce(&mut Vec<u8>) -> Result<(), MrtError>,
) -> Result<(), MrtError> {
    let at = out.len();
    out.extend_from_slice(&[0, 0]);
    body(out)?;
    patch_len(out, at, at + 2, context)
}

/// Appends one path attribute: its flags and type, then what `body`
/// appends, behind a one-byte length, or two bytes (extended length) past
/// 255.
fn push_attr(
    out: &mut Vec<u8>,
    flags: u8,
    attr_type: u8,
    body: impl FnOnce(&mut Vec<u8>),
) -> Result<(), MrtError> {
    let at = out.len();
    out.extend_from_slice(&[flags, attr_type, 0]);
    body(out);
    match u8::try_from(out.len() - at - 3) {
        Ok(len) => out[at + 2] = len,
        Err(_) => {
            out[at] |= FLAG_EXTENDED_LEN;
            out.insert(at + 3, 0);
            patch_len(out, at + 2, at + 4, "path attribute length")?;
        }
    }
    Ok(())
}

fn encode_as_path(path: &AsPath, out: &mut Vec<u8>) {
    for seg in path.segments() {
        let (code, asns): (u8, &[Asn]) = match seg {
            AsPathSegment::Set(v) => (1, v),
            AsPathSegment::Sequence(v) => (2, v),
        };
        // RFC 4271 limits a segment to 255 ASNs; split longer ones.
        for chunk in asns.chunks(255) {
            out.extend_from_slice(&[code, chunk.len() as u8]);
            for asn in chunk {
                out.extend_from_slice(&asn.0.to_be_bytes());
            }
        }
    }
}

/// Appends the NLRI encoding of the prefixes of one family, in order.
fn push_nlri(out: &mut Vec<u8>, prefixes: &[Prefix], v6: bool) {
    for p in prefixes.iter().filter(|p| p.is_ipv6() == v6) {
        encode_nlri_prefix(p, out);
    }
}

/// Appends MP_UNREACH_NLRI for the IPv6 prefixes among `withdrawn`, if any.
fn push_mp_unreach(out: &mut Vec<u8>, withdrawn: &[Prefix]) -> Result<(), MrtError> {
    if !withdrawn.iter().any(Prefix::is_ipv6) {
        return Ok(());
    }
    push_attr(out, FLAG_OPTIONAL, ATTR_MP_UNREACH, |out| {
        out.extend_from_slice(&[0, 2, 1]); // AFI: IPv6, SAFI: unicast
        push_nlri(out, withdrawn, true);
    })
}

/// Appends the attribute block of an UPDATE; the IPv6 prefixes among
/// `announced`/`withdrawn` go into MP_REACH / MP_UNREACH.
fn encode_attrs(
    out: &mut Vec<u8>,
    attrs: &PathAttributes,
    announced: &[Prefix],
    withdrawn: &[Prefix],
) -> Result<(), MrtError> {
    push_attr(out, FLAG_TRANSITIVE, ATTR_ORIGIN, |out| out.push(attrs.origin.code()))?;
    push_attr(out, FLAG_TRANSITIVE, ATTR_AS_PATH, |out| encode_as_path(&attrs.as_path, out))?;
    if let IpAddr::V4(nh) = attrs.next_hop {
        push_attr(out, FLAG_TRANSITIVE, ATTR_NEXT_HOP, |out| out.extend_from_slice(&nh.octets()))?;
    }
    if let Some(med) = attrs.med {
        push_attr(out, FLAG_OPTIONAL, ATTR_MED, |out| out.extend_from_slice(&med.to_be_bytes()))?;
    }
    if let Some(lp) = attrs.local_pref {
        push_attr(out, FLAG_TRANSITIVE, ATTR_LOCAL_PREF, |out| out.extend(lp.to_be_bytes()))?;
    }
    if attrs.atomic_aggregate {
        push_attr(out, FLAG_TRANSITIVE, ATTR_ATOMIC_AGGREGATE, |_| {})?;
    }
    if !attrs.communities.is_empty() {
        push_attr(out, FLAG_OPTIONAL | FLAG_TRANSITIVE, ATTR_COMMUNITY, |out| {
            out.extend(attrs.communities.iter().flat_map(|c| c.0.to_be_bytes()))
        })?;
    }
    if announced.iter().any(Prefix::is_ipv6) {
        let nh6 = if let IpAddr::V6(a) = attrs.next_hop { a } else { Ipv6Addr::UNSPECIFIED };
        push_attr(out, FLAG_OPTIONAL, ATTR_MP_REACH, |out| {
            out.extend_from_slice(&[0, 2, 1, 16]); // IPv6 unicast, 16-byte next hop
            out.extend_from_slice(&nh6.octets());
            out.push(0); // reserved
            push_nlri(out, announced, true);
        })?;
    }
    push_mp_unreach(out, withdrawn)?;
    if !attrs.extended_communities.is_empty() {
        push_attr(out, FLAG_OPTIONAL | FLAG_TRANSITIVE, ATTR_EXTENDED_COMMUNITIES, |out| {
            out.extend(attrs.extended_communities.iter().flat_map(|e| e.0))
        })?;
    }
    if !attrs.large_communities.is_empty() {
        let large = attrs.large_communities.iter().flat_map(|l| [l.global, l.local1, l.local2]);
        push_attr(out, FLAG_OPTIONAL | FLAG_TRANSITIVE, ATTR_LARGE_COMMUNITY, |out| {
            out.extend(large.flat_map(u32::to_be_bytes))
        })?;
    }
    Ok(())
}

/// Appends a full BGP UPDATE message (marker + header + body). A message
/// or a field past its 16-bit length is refused.
pub(crate) fn encode_bgp_update(out: &mut Vec<u8>, update: &BgpUpdate) -> Result<(), MrtError> {
    let start = out.len();
    out.extend_from_slice(&[0xFF; 16]);
    out.extend_from_slice(&[0, 0, 2]); // length, patched below; type: UPDATE
    with_len(out, "withdrawn routes length", |out| {
        push_nlri(out, &update.withdrawn, false);
        Ok(())
    })?;
    with_len(out, "total path attribute length", |out| match &update.attrs {
        Some(attrs) => encode_attrs(out, attrs, &update.announced, &update.withdrawn),
        // Withdraw-only IPv6 update: MP_UNREACH with no other attrs.
        None => push_mp_unreach(out, &update.withdrawn),
    })?;
    push_nlri(out, &update.announced, false);
    patch_len(out, start + 16, start, "BGP UPDATE length")
}

#[cfg(test)]
mod tests {
    use super::super::view::{AttrSpans, UpdateView};
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

    fn attrs_bytes(attrs: &PathAttributes) -> Vec<u8> {
        let mut raw = Vec::new();
        encode_attrs(&mut raw, attrs, &[], &[]).unwrap();
        raw
    }

    fn update_bytes(update: &BgpUpdate) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_bgp_update(&mut bytes, update).unwrap();
        bytes
    }

    fn roundtrip_attrs(attrs: &PathAttributes) -> PathAttributes {
        let raw = attrs_bytes(attrs);
        AttrSpans::parse(&raw).unwrap().to_attrs(&raw)
    }

    #[test]
    fn long_as_path_splits_and_merges() {
        let attrs = PathAttributes {
            as_path: AsPath::from_sequence((1..=600u32).collect::<Vec<_>>()),
            ..Default::default()
        };
        assert_eq!(roundtrip_attrs(&attrs), attrs);
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
        let bytes = update_bytes(&upd);
        assert_eq!(UpdateView::parse(&bytes).unwrap().materialize(), upd);
    }

    #[test]
    fn withdraw_only_v6() {
        let upd = BgpUpdate::withdraw(vec!["2600:9::/32".parse().unwrap()]);
        let bytes = update_bytes(&upd);
        assert_eq!(UpdateView::parse(&bytes).unwrap().materialize(), upd);
    }

    #[test]
    fn bad_marker_detected() {
        let upd = BgpUpdate::withdraw(vec![Prefix::v4(184, 84, 0, 0, 16)]);
        let mut bytes = update_bytes(&upd);
        bytes[3] = 0;
        assert!(matches!(UpdateView::parse(&bytes), Err(MrtError::BadMarker)));
    }

    #[test]
    fn unknown_attribute_is_skipped() {
        let attrs =
            PathAttributes::with_path_and_communities(AsPath::from_sequence([1, 2]), vec![]);
        let mut raw = attrs_bytes(&attrs);
        // Append an unknown optional-transitive attribute type 99.
        raw.extend_from_slice(&[FLAG_OPTIONAL | FLAG_TRANSITIVE, 99, 2, 0xAB, 0xCD]);
        let decoded = AttrSpans::parse(&raw).unwrap().to_attrs(&raw);
        assert_eq!(decoded, attrs);
    }

    /// The `Vec`-building encoder the in-place one replaced, kept as the
    /// reference it is differentially tested against. Do not optimise it.
    mod reference {
        use super::super::*;

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

        fn encode_attrs(
            attrs: &PathAttributes,
            v6_announced: &[Prefix],
            v6_withdrawn: &[Prefix],
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
            if !v6_announced.is_empty() {
                let mut body = Vec::new();
                body.extend_from_slice(&2u16.to_be_bytes());
                body.push(1);
                let nh = match attrs.next_hop {
                    IpAddr::V6(a) => a,
                    IpAddr::V4(_) => Ipv6Addr::UNSPECIFIED,
                };
                body.push(16);
                body.extend_from_slice(&nh.octets());
                body.push(0);
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
            if !attrs.extended_communities.is_empty() {
                let mut body = Vec::with_capacity(attrs.extended_communities.len() * 8);
                for e in &attrs.extended_communities {
                    body.extend_from_slice(&e.0);
                }
                let flags = FLAG_OPTIONAL | FLAG_TRANSITIVE;
                push_attr(&mut out, flags, ATTR_EXTENDED_COMMUNITIES, &body);
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

        pub(super) fn encode_bgp_update_reference(update: &BgpUpdate) -> Vec<u8> {
            let (w4, w6): (Vec<&Prefix>, Vec<&Prefix>) =
                update.withdrawn.iter().partition(|p| p.is_ipv4());
            let (a4, a6): (Vec<&Prefix>, Vec<&Prefix>) =
                update.announced.iter().partition(|p| p.is_ipv4());

            let mut withdrawn_bytes = Vec::new();
            for p in &w4 {
                encode_nlri_prefix(p, &mut withdrawn_bytes);
            }

            let attr_bytes = match &update.attrs {
                Some(attrs) => {
                    let v6a: Vec<Prefix> = a6.iter().map(|p| **p).collect();
                    let v6w: Vec<Prefix> = w6.iter().map(|p| **p).collect();
                    encode_attrs(attrs, &v6a, &v6w)
                }
                None => {
                    if !w6.is_empty() {
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
            out.push(2);
            out.extend_from_slice(&(withdrawn_bytes.len() as u16).to_be_bytes());
            out.extend_from_slice(&withdrawn_bytes);
            out.extend_from_slice(&(attr_bytes.len() as u16).to_be_bytes());
            out.extend_from_slice(&attr_bytes);
            out.extend_from_slice(&nlri);
            out
        }
    }

    mod differential {
        use super::super::*;
        use super::reference::encode_bgp_update_reference;
        use crate::aspath::AsPathSegment;
        use crate::attrs::Origin;
        use crate::community::{Community, ExtendedCommunity, LargeCommunity};
        use crate::mrt::WireUpdate;
        use proptest::prelude::*;
        use std::net::Ipv4Addr;

        /// A prefix of either family, any length.
        fn arb_prefix() -> impl Strategy<Value = Prefix> {
            (any::<bool>(), any::<u128>(), any::<u8>()).prop_map(|(v6, bits, len)| {
                let addr: IpAddr = if v6 {
                    Ipv6Addr::from(bits).into()
                } else {
                    [bits as u8, (bits >> 8) as u8, (bits >> 16) as u8, (bits >> 24) as u8].into()
                };
                Prefix::new(addr, len % if v6 { 129 } else { 33 }).unwrap()
            })
        }

        /// Attributes whose AS paths reach past 255 ASNs (split segments)
        /// and whose AS path, community, extended- and large-community
        /// bodies reach past 255 bytes (extended length), over either
        /// next-hop family.
        fn arb_attrs() -> impl Strategy<Value = PathAttributes> {
            (
                prop::sample::select(vec![Origin::Igp, Origin::Egp, Origin::Incomplete]),
                prop::collection::vec(
                    (any::<bool>(), prop::collection::vec(any::<u32>(), 0..600)),
                    0..3,
                ),
                (any::<bool>(), any::<u128>()),
                prop::option::of(any::<u32>()),
                prop::option::of(any::<u32>()),
                any::<bool>(),
                prop::collection::vec(any::<u32>(), 0..100),
                prop::collection::vec(any::<u64>(), 0..50),
                prop::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..30),
            )
                .prop_map(
                    |(origin, segments, (v6, nh), med, local_pref, atomic, comms, exts, larges)| {
                        let segments = segments
                            .into_iter()
                            .map(|(set, asns)| {
                                let asns = asns.into_iter().map(Asn).collect();
                                if set {
                                    AsPathSegment::Set(asns)
                                } else {
                                    AsPathSegment::Sequence(asns)
                                }
                            })
                            .collect();
                        PathAttributes {
                            origin,
                            as_path: AsPath::from_segments(segments),
                            next_hop: if v6 {
                                Ipv6Addr::from(nh).into()
                            } else {
                                IpAddr::from((nh as u32).to_be_bytes())
                            },
                            med,
                            local_pref,
                            atomic_aggregate: atomic,
                            communities: comms.into_iter().map(Community).collect(),
                            extended_communities: exts
                                .into_iter()
                                .map(|e| ExtendedCommunity(e.to_be_bytes()))
                                .collect(),
                            large_communities: larges
                                .into_iter()
                                .map(|(g, a, b)| LargeCommunity::new(g, a, b))
                                .collect(),
                        }
                    },
                )
        }

        /// Updates mixing both families in both directions, in any order:
        /// some withdraw only (IPv6 ones through a lone MP_UNREACH), some
        /// carry no attributes at all.
        fn arb_update() -> impl Strategy<Value = BgpUpdate> {
            (
                prop::collection::vec(arb_prefix(), 0..40),
                prop::option::of(arb_attrs()),
                prop::collection::vec(arb_prefix(), 0..40),
                any::<bool>(),
            )
                .prop_map(|(withdrawn, attrs, announced, withdraw_only)| {
                    let announced = if withdraw_only { Vec::new() } else { announced };
                    BgpUpdate { withdrawn, attrs, announced }
                })
        }

        /// What an encoded `update` reads back as: in each direction the
        /// IPv4 prefixes before the IPv6 ones; IPv6 announcements only
        /// behind attributes; attributes only on an update that announces,
        /// the defaults where it gave none; an IPv6 next hop only beside an
        /// IPv6 announcement; and the AS path as its 255-ASN segments read
        /// back, a sequence whose length is a multiple of 255 absorbing the
        /// sequence after it.
        fn read_back(update: &BgpUpdate) -> BgpUpdate {
            let families = |prefixes: &[Prefix], v6: bool| {
                let (v4s, v6s): (Vec<Prefix>, Vec<Prefix>) =
                    prefixes.iter().partition(|p| p.is_ipv4());
                [v4s, if v6 { v6s } else { Vec::new() }].concat()
            };
            let announced = families(&update.announced, update.attrs.is_some());
            let attrs = (!announced.is_empty()).then(|| {
                let mut attrs = update.attrs.clone().unwrap_or_default();
                if attrs.next_hop.is_ipv6() && !announced.iter().any(Prefix::is_ipv6) {
                    attrs.next_hop = Ipv4Addr::UNSPECIFIED.into();
                }
                let mut segments: Vec<AsPathSegment> = Vec::new();
                for segment in attrs.as_path.segments() {
                    let (set, asns) = match segment {
                        AsPathSegment::Set(v) => (true, v),
                        AsPathSegment::Sequence(v) => (false, v),
                    };
                    for chunk in asns.chunks(255) {
                        match segments.last_mut() {
                            Some(AsPathSegment::Sequence(prev))
                                if !set && prev.len() % 255 == 0 =>
                            {
                                prev.extend_from_slice(chunk)
                            }
                            _ if set => segments.push(AsPathSegment::Set(chunk.to_vec())),
                            _ => segments.push(AsPathSegment::Sequence(chunk.to_vec())),
                        }
                    }
                }
                attrs.as_path = AsPath::from_segments(segments);
                attrs
            });
            BgpUpdate { withdrawn: families(&update.withdrawn, true), attrs, announced }
        }

        proptest! {
            #[test]
            fn encoded_updates_materialize_as_they_read_back(update in arb_update()) {
                let wire = WireUpdate::encode(&update).unwrap();
                prop_assert_eq!(wire.materialize(), read_back(&update));
                prop_assert_eq!(&WireUpdate::parse(wire.bytes()).unwrap(), &wire);
            }

            #[test]
            fn update_encoding_matches_the_reference(update in arb_update()) {
                let mut got = vec![0xAB];
                encode_bgp_update(&mut got, &update).unwrap();
                prop_assert_eq!(&got[1..], &encode_bgp_update_reference(&update)[..]);
            }
        }
    }
}
