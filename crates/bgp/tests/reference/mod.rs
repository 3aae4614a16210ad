//! The reference decoder: the materializing decoder `kepler-bgp` shipped
//! before its zero-copy views became the one parser (`decode_bgp_update`,
//! `decode_attrs`, `decode_as_path`, and the peer-header and frame-header
//! reads around them), kept here so the mutation fuzz can compare the
//! parser against an independent implementation in both directions.
//!
//! The BGP4MP code is unchanged but for two rules the parser adopted:
//!
//! * duplicate attributes follow RFC 7606 §3(g) — a repeated MP_REACH /
//!   MP_UNREACH is an error, any other repeat keeps its first occurrence
//!   (previously last-wins, with repeated MP regions concatenated);
//! * MP_REACH / MP_UNREACH must be IPv4 or IPv6 unicast (previously every
//!   AFI but 2 decoded as IPv4, and SAFI was ignored).

use kepler_bgp::mrt::{MrtBody, MrtError, MrtRecord, BGP4MP_MESSAGE_AS4, MRT_TYPE_BGP4MP};
use kepler_bgp::{
    AsPath, AsPathSegment, Asn, BgpUpdate, Community, ExtendedCommunity, LargeCommunity, Origin,
    PathAttributes, Prefix,
};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

const ATTR_ORIGIN: u8 = 1;
const ATTR_AS_PATH: u8 = 2;
const ATTR_NEXT_HOP: u8 = 3;
const ATTR_MED: u8 = 4;
const ATTR_LOCAL_PREF: u8 = 5;
const ATTR_ATOMIC_AGGREGATE: u8 = 6;
const ATTR_COMMUNITY: u8 = 8;
const ATTR_MP_REACH: u8 = 14;
const ATTR_MP_UNREACH: u8 = 15;
const ATTR_EXTENDED_COMMUNITIES: u8 = 16;
const ATTR_LARGE_COMMUNITY: u8 = 32;
const FLAG_EXTENDED_LEN: u8 = 0x10;

/// Bounds-checked big-endian cursor over a byte slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], MrtError> {
        if self.remaining() < n {
            return Err(MrtError::UnexpectedEof { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, MrtError> {
        Ok(self.take(1, context)?[0])
    }

    fn u16(&mut self, context: &'static str) -> Result<u16, MrtError> {
        let b = self.take(2, context)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, MrtError> {
        let b = self.take(4, context)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn ip(&mut self, v6: bool, context: &'static str) -> Result<IpAddr, MrtError> {
        if v6 {
            let b = self.take(16, context)?;
            let mut a = [0u8; 16];
            a.copy_from_slice(b);
            Ok(IpAddr::V6(Ipv6Addr::from(a)))
        } else {
            let b = self.take(4, context)?;
            Ok(IpAddr::V4(Ipv4Addr::new(b[0], b[1], b[2], b[3])))
        }
    }
}

/// A frame as the reference decodes it, owned values throughout.
#[derive(Debug, PartialEq, Eq)]
pub enum Decoded {
    /// A `BGP4MP_MESSAGE_AS4` record: the MRT timestamp, the peer header
    /// and the UPDATE.
    Message {
        timestamp: u32,
        peer_as: Asn,
        local_as: Asn,
        interface_index: u16,
        peer_ip: IpAddr,
        local_ip: IpAddr,
        update: BgpUpdate,
    },
}

impl Decoded {
    /// A parser's record in the reference's terms, its UPDATE
    /// materialized: `None` for a record the reference does not model.
    pub fn of(rec: &MrtRecord) -> Option<Decoded> {
        match &rec.body {
            MrtBody::Message(m) => Some(Decoded::Message {
                timestamp: rec.timestamp,
                peer_as: m.peer_as,
                local_as: m.local_as,
                interface_index: m.interface_index,
                peer_ip: m.peer_ip,
                local_ip: m.local_ip,
                update: m.update.materialize(),
            }),
            MrtBody::StateChange(_) => None,
        }
    }
}

/// Decodes the first frame of `buf`: `None` for an empty buffer or a
/// complete frame of a type the reference does not model (anything but
/// `BGP4MP_MESSAGE_AS4`).
pub fn decode_frame(buf: &[u8]) -> Option<Result<Decoded, MrtError>> {
    if buf.is_empty() {
        return None;
    }
    let mut cur = Cursor::new(buf);
    let header = (|| {
        let timestamp = cur.u32("MRT timestamp")?;
        let mrt_type = cur.u16("MRT type")?;
        let subtype = cur.u16("MRT subtype")?;
        let length = cur.u32("MRT record length")? as usize;
        Ok((timestamp, mrt_type, subtype, cur.take(length, "MRT record body")?))
    })();
    let (timestamp, mrt_type, subtype, body) = match header {
        Ok(h) => h,
        Err(e) => return Some(Err(e)),
    };
    Some(match (mrt_type, subtype) {
        (MRT_TYPE_BGP4MP, BGP4MP_MESSAGE_AS4) => decode_message(timestamp, body),
        _ => return None,
    })
}

fn decode_message(timestamp: u32, raw: &[u8]) -> Result<Decoded, MrtError> {
    let mut cur = Cursor::new(raw);
    let peer_as = Asn(cur.u32("BGP4MP peer AS")?);
    let local_as = Asn(cur.u32("BGP4MP local AS")?);
    let interface_index = cur.u16("BGP4MP interface index")?;
    let afi = cur.u16("BGP4MP AFI")?;
    let v6 = match afi {
        1 => false,
        2 => true,
        _ => return Err(MrtError::BadValue { context: "BGP4MP AFI" }),
    };
    let peer_ip = cur.ip(v6, "BGP4MP peer IP")?;
    let local_ip = cur.ip(v6, "BGP4MP local IP")?;
    let update = decode_bgp_update(&mut cur)?;
    Ok(Decoded::Message {
        timestamp,
        peer_as,
        local_as,
        interface_index,
        peer_ip,
        local_ip,
        update,
    })
}

/// Decodes one NLRI prefix of the given family.
fn decode_nlri_prefix(cur: &mut Cursor<'_>, v6: bool) -> Result<Prefix, MrtError> {
    let len = cur.u8("NLRI prefix length")?;
    let max: u8 = if v6 { 128 } else { 32 };
    if len > max {
        return Err(MrtError::BadValue { context: "NLRI prefix length" });
    }
    let nbytes = (len as usize).div_ceil(8);
    let raw = cur.take(nbytes, "NLRI prefix bytes")?;
    let addr = if v6 {
        let mut a = [0u8; 16];
        a[..nbytes].copy_from_slice(raw);
        IpAddr::V6(Ipv6Addr::from(a))
    } else {
        let mut a = [0u8; 4];
        a[..nbytes].copy_from_slice(raw);
        IpAddr::V4(Ipv4Addr::from(a))
    };
    Prefix::new(addr, len).map_err(|_| MrtError::BadValue { context: "NLRI prefix" })
}

fn decode_as_path(raw: &[u8]) -> Result<AsPath, MrtError> {
    let mut cur = Cursor::new(raw);
    let mut segments = Vec::new();
    while cur.remaining() > 0 {
        let code = cur.u8("AS_PATH segment type")?;
        let count = cur.u8("AS_PATH segment count")? as usize;
        let mut asns = Vec::with_capacity(count);
        for _ in 0..count {
            asns.push(Asn(cur.u32("AS_PATH asn")?));
        }
        let seg = match code {
            1 => AsPathSegment::Set(asns),
            2 => AsPathSegment::Sequence(asns),
            _ => return Err(MrtError::BadValue { context: "AS_PATH segment type" }),
        };
        // Merge adjacent sequences that we split for the 255 limit.
        match (segments.last_mut(), &seg) {
            (Some(AsPathSegment::Sequence(prev)), AsPathSegment::Sequence(new))
                if !prev.is_empty() && prev.len() % 255 == 0 =>
            {
                prev.extend_from_slice(new);
            }
            _ => segments.push(seg),
        }
    }
    Ok(AsPath::from_segments(segments))
}

/// Result of decoding an attribute block.
struct DecodedAttrs {
    attrs: PathAttributes,
    v6_announced: Vec<Prefix>,
    v6_withdrawn: Vec<Prefix>,
}

/// Reads an MP attribute's AFI and SAFI: IPv4 or IPv6 unicast only.
fn unicast_v6(mp: &mut Cursor<'_>, afi_context: &'static str) -> Result<bool, MrtError> {
    let afi = mp.u16(afi_context)?;
    let safi = mp.u8("MP SAFI")?;
    match (afi, safi) {
        (1, 1) => Ok(false),
        (2, 1) => Ok(true),
        _ => Err(MrtError::BadValue { context: "MP AFI/SAFI" }),
    }
}

/// Decodes an attribute block; unknown attribute types are skipped.
fn decode_attrs(raw: &[u8]) -> Result<DecodedAttrs, MrtError> {
    let mut cur = Cursor::new(raw);
    let mut attrs = PathAttributes::default();
    let mut v6_announced = Vec::new();
    let mut v6_withdrawn = Vec::new();
    let mut saw_next_hop = false;
    let mut mp_next_hop: Option<IpAddr> = None;
    let mut seen = [false; 256];

    while cur.remaining() > 0 {
        let flags = cur.u8("attribute flags")?;
        let attr_type = cur.u8("attribute type")?;
        let len = if flags & FLAG_EXTENDED_LEN != 0 {
            cur.u16("attribute extended length")? as usize
        } else {
            cur.u8("attribute length")? as usize
        };
        let body = cur.take(len, "attribute body")?;
        // RFC 7606 §3(g).
        if std::mem::replace(&mut seen[attr_type as usize], true) {
            if attr_type == ATTR_MP_REACH || attr_type == ATTR_MP_UNREACH {
                return Err(MrtError::BadValue { context: "repeated MP attribute" });
            }
            continue;
        }
        match attr_type {
            ATTR_ORIGIN => {
                let code = *body.first().ok_or(MrtError::BadValue { context: "ORIGIN" })?;
                attrs.origin =
                    Origin::from_code(code).ok_or(MrtError::BadValue { context: "ORIGIN code" })?;
            }
            ATTR_AS_PATH => attrs.as_path = decode_as_path(body)?,
            ATTR_NEXT_HOP => {
                if body.len() != 4 {
                    return Err(MrtError::BadValue { context: "NEXT_HOP length" });
                }
                attrs.next_hop = IpAddr::V4(Ipv4Addr::new(body[0], body[1], body[2], body[3]));
                saw_next_hop = true;
            }
            ATTR_MED => {
                if body.len() != 4 {
                    return Err(MrtError::BadValue { context: "MED length" });
                }
                attrs.med = Some(u32::from_be_bytes([body[0], body[1], body[2], body[3]]));
            }
            ATTR_LOCAL_PREF => {
                if body.len() != 4 {
                    return Err(MrtError::BadValue { context: "LOCAL_PREF length" });
                }
                attrs.local_pref = Some(u32::from_be_bytes([body[0], body[1], body[2], body[3]]));
            }
            ATTR_ATOMIC_AGGREGATE => attrs.atomic_aggregate = true,
            ATTR_COMMUNITY => {
                if body.len() % 4 != 0 {
                    return Err(MrtError::BadValue { context: "COMMUNITY length" });
                }
                attrs.communities = body
                    .chunks_exact(4)
                    .map(|c| Community(u32::from_be_bytes([c[0], c[1], c[2], c[3]])))
                    .collect();
            }
            ATTR_MP_REACH => {
                let mut mp = Cursor::new(body);
                let v6 = unicast_v6(&mut mp, "MP_REACH AFI")?;
                let nhlen = mp.u8("MP_REACH next-hop length")? as usize;
                let nh_raw = mp.take(nhlen, "MP_REACH next hop")?;
                if nhlen >= 16 {
                    let mut a = [0u8; 16];
                    a.copy_from_slice(&nh_raw[..16]);
                    mp_next_hop = Some(IpAddr::V6(Ipv6Addr::from(a)));
                }
                mp.u8("MP_REACH reserved")?;
                while mp.remaining() > 0 {
                    v6_announced.push(decode_nlri_prefix(&mut mp, v6)?);
                }
            }
            ATTR_MP_UNREACH => {
                let mut mp = Cursor::new(body);
                let v6 = unicast_v6(&mut mp, "MP_UNREACH AFI")?;
                while mp.remaining() > 0 {
                    v6_withdrawn.push(decode_nlri_prefix(&mut mp, v6)?);
                }
            }
            ATTR_EXTENDED_COMMUNITIES => {
                if body.len() % 8 != 0 {
                    return Err(MrtError::BadValue { context: "EXTENDED_COMMUNITIES length" });
                }
                attrs.extended_communities = body
                    .chunks_exact(8)
                    .map(|c| {
                        let mut a = [0u8; 8];
                        a.copy_from_slice(c);
                        ExtendedCommunity(a)
                    })
                    .collect();
            }
            ATTR_LARGE_COMMUNITY => {
                if body.len() % 12 != 0 {
                    return Err(MrtError::BadValue { context: "LARGE_COMMUNITY length" });
                }
                attrs.large_communities = body
                    .chunks_exact(12)
                    .map(|c| {
                        LargeCommunity::new(
                            u32::from_be_bytes([c[0], c[1], c[2], c[3]]),
                            u32::from_be_bytes([c[4], c[5], c[6], c[7]]),
                            u32::from_be_bytes([c[8], c[9], c[10], c[11]]),
                        )
                    })
                    .collect();
            }
            _ => {} // unknown attribute: skip (we already consumed the body)
        }
    }
    if !saw_next_hop {
        if let Some(nh) = mp_next_hop {
            attrs.next_hop = nh;
        }
    }
    Ok(DecodedAttrs { attrs, v6_announced, v6_withdrawn })
}

/// Decodes a full BGP UPDATE message (marker + header + body).
fn decode_bgp_update(cur: &mut Cursor<'_>) -> Result<BgpUpdate, MrtError> {
    let marker = cur.take(16, "BGP marker")?;
    if marker.iter().any(|&b| b != 0xFF) {
        return Err(MrtError::BadMarker);
    }
    let total = cur.u16("BGP message length")? as usize;
    if total < 19 {
        return Err(MrtError::BadValue { context: "BGP message length" });
    }
    let msg_type = cur.u8("BGP message type")?;
    if msg_type != 2 {
        return Err(MrtError::BadValue { context: "BGP message type (expected UPDATE)" });
    }
    let body = cur.take(total - 19, "BGP message body")?;
    let mut bc = Cursor::new(body);

    let wlen = bc.u16("withdrawn routes length")? as usize;
    let wraw = bc.take(wlen, "withdrawn routes")?;
    let mut wcur = Cursor::new(wraw);
    let mut withdrawn = Vec::new();
    while wcur.remaining() > 0 {
        withdrawn.push(decode_nlri_prefix(&mut wcur, false)?);
    }

    let alen = bc.u16("path attributes length")? as usize;
    let araw = bc.take(alen, "path attributes")?;
    let decoded = decode_attrs(araw)?;

    let mut announced = Vec::new();
    while bc.remaining() > 0 {
        announced.push(decode_nlri_prefix(&mut bc, false)?);
    }
    announced.extend(decoded.v6_announced);
    withdrawn.extend(decoded.v6_withdrawn);

    // A message with no announcements carries no meaningful attribute
    // bundle (withdraw-only); normalize so round-trips compare equal.
    let attrs = if announced.is_empty() { None } else { Some(decoded.attrs) };
    Ok(BgpUpdate { withdrawn, attrs, announced })
}
