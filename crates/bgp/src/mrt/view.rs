//! The one MRT / BGP-4 parser: zero-copy views over the wire bytes.
//!
//! Every layer is parsed here once: the MRT frame header, the BGP4MP peer
//! header, the UPDATE framing, the path-attribute TLV walk (`AttrSpans`),
//! AS_PATH segments and NLRI prefixes.
//! Parsing validates everything, so the lazy iterators are infallible. A
//! parse leaves a span table — where each region lies in the message —
//! and a read record keeps it with the bytes as a [`WireUpdate`], so an
//! UPDATE is parsed once and read through [`UpdateView`] from then on.
//! The owned [`BgpUpdate`] is the form an update is built from and
//! inspected as ([`UpdateView::materialize`] folds the recorded
//! attribute bodies without a second TLV walk).
//! `tests/mrt_corpus.rs` fuzzes this parser against the decoder it
//! replaced, in both directions.

use super::error::MrtError;
use super::wire::*;
use crate::aspath::{AsPath, AsPathSegment};
use crate::attrs::{Origin, PathAttributes};
use crate::community::{Community, ExtendedCommunity, LargeCommunity};
use crate::message::BgpUpdate;
use crate::prefix::Prefix;
use crate::Asn;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Length of the MRT common header (RFC 6396 §2).
pub(crate) const HEADER_LEN: usize = 12;

/// One MRT frame header plus its borrowed body bytes.
#[derive(Debug, Clone, Copy)]
pub struct FrameView<'a> {
    /// Seconds since the Unix epoch (MRT header field).
    pub timestamp: u32,
    /// MRT type code.
    pub mrt_type: u16,
    /// MRT subtype code.
    pub subtype: u16,
    /// The raw record body (everything after the 12-byte MRT header).
    pub body: &'a [u8],
}

impl<'a> FrameView<'a> {
    /// Decodes the MRT common header, shared with
    /// [`MrtReader`](super::MrtReader): the frame with an empty body, and
    /// the body length the header declares.
    #[inline]
    pub(crate) fn header(h: &[u8; HEADER_LEN]) -> (FrameView<'a>, usize) {
        let frame = FrameView {
            timestamp: be_u32(&h[0..4]),
            mrt_type: u16::from_be_bytes([h[4], h[5]]),
            subtype: u16::from_be_bytes([h[6], h[7]]),
            body: &[],
        };
        (frame, be_u32(&h[8..12]) as usize)
    }

    /// Parses one frame from the start of `buf`. Returns `Ok(None)` on a
    /// clean EOF (empty buffer), otherwise the frame plus the total number
    /// of bytes it occupies (header + body), so callers can walk a
    /// concatenated archive without copying.
    #[inline]
    pub fn parse(buf: &'a [u8]) -> Result<Option<(FrameView<'a>, usize)>, MrtError> {
        if buf.is_empty() {
            return Ok(None);
        }
        let Some((header, rest)) = buf.split_first_chunk() else {
            return Err(MrtError::UnexpectedEof { context: "MRT header" });
        };
        let (frame, length) = FrameView::header(header);
        let Some(body) = rest.get(..length) else {
            return Err(MrtError::UnexpectedEof { context: "MRT record body" });
        };
        Ok(Some((FrameView { body, ..frame }, HEADER_LEN + length)))
    }

    /// Parses the body as a `BGP4MP_MESSAGE_AS4` update. Returns
    /// `Ok(None)` for any other type/subtype (state changes, RIB dumps),
    /// which carry no route events, without touching the body.
    pub fn message(&self) -> Result<Option<MessageView<'a>>, MrtError> {
        if self.mrt_type != super::MRT_TYPE_BGP4MP || self.subtype != super::BGP4MP_MESSAGE_AS4 {
            return Ok(None);
        }
        MessageView::parse(self.body).map(Some)
    }
}

/// A `BGP4MP_MESSAGE_AS4` body: decoded peer header plus a borrowed
/// [`UpdateView`] of the archived UPDATE.
#[derive(Debug, Clone, Copy)]
pub struct MessageView<'a> {
    /// ASN of the collector peer that sent the message.
    pub peer_as: Asn,
    /// ASN of the collector.
    pub local_as: Asn,
    /// Interface index (informational).
    pub interface_index: u16,
    /// Peer address.
    pub peer_ip: IpAddr,
    /// Collector-side address.
    pub local_ip: IpAddr,
    /// The archived UPDATE, still in wire form.
    pub update: UpdateView<'a>,
}

impl<'a> MessageView<'a> {
    /// Parses a BGP4MP message body (everything after the MRT header).
    pub fn parse(body: &'a [u8]) -> Result<Self, MrtError> {
        decode_peer_header(body, |peer_as, local_as, interface_index, peer_ip, local_ip, rest| {
            let update = UpdateView::parse(rest)?;
            Ok(MessageView { peer_as, local_as, interface_index, peer_ip, local_ip, update })
        })
    }
}

/// The one BGP4MP peer-header parse (AS4 variant), shared by messages
/// and state changes: `then` gets the peer and local ASN, the interface
/// index, the peer and local address and the bytes after the header.
/// Handing the fields on, not returning them, spares a copy per record.
#[inline(always)]
pub(crate) fn decode_peer_header<'a, T>(
    body: &'a [u8],
    then: impl FnOnce(Asn, Asn, u16, IpAddr, IpAddr, &'a [u8]) -> Result<T, MrtError>,
) -> Result<T, MrtError> {
    let mut cur = Cursor::new(body);
    let peer_as = Asn(cur.u32("BGP4MP peer AS")?);
    let local_as = Asn(cur.u32("BGP4MP local AS")?);
    let interface_index = cur.u16("BGP4MP interface index")?;
    let v6 = match cur.u16("BGP4MP AFI")? {
        1 => false,
        2 => true,
        _ => return Err(MrtError::BadValue { context: "BGP4MP AFI" }),
    };
    let peer_ip = cur.ip(v6, "BGP4MP peer IP")?;
    let local_ip = cur.ip(v6, "BGP4MP local IP")?;
    then(peer_as, local_as, interface_index, peer_ip, local_ip, cur.rest())
}

/// Where a region lies in the bytes a span table indexes: an UPDATE
/// message (under 64 KiB).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Span {
    at: u16,
    len: u16,
}

impl Span {
    fn of(base: &[u8], sub: &[u8]) -> Span {
        Span { at: (sub.as_ptr() as usize - base.as_ptr() as usize) as u16, len: sub.len() as u16 }
    }

    /// The bytes of a validated span.
    #[inline]
    fn get(self, base: &[u8]) -> &[u8] {
        let at = usize::from(self.at);
        base.get(at..at + usize::from(self.len)).unwrap_or_default()
    }
}

/// A validated NLRI region of one address family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Nlri {
    span: Span,
    v6: bool,
}

impl Nlri {
    #[inline]
    fn prefixes(self, base: &[u8]) -> PrefixIter<'_> {
        PrefixIter { cur: Cursor::new(self.span.get(base)), v6: self.v6 }
    }
}

/// Validates an NLRI region.
fn validate_nlri(raw: &[u8], v6: bool) -> Result<(), MrtError> {
    let mut cur = Cursor::new(raw);
    while cur.remaining() > 0 {
        nlri_bytes(&mut cur, v6)?;
    }
    Ok(())
}

/// A validated run of big-endian `u32`s (ASNs, communities), decoded.
fn be_u32s<T>(raw: &[u8], f: impl Fn(u32) -> T) -> Vec<T> {
    let mut out = Vec::with_capacity(raw.len() / 4);
    out.extend(raw.chunks_exact(4).map(|c| f(be_u32(c))));
    out
}

/// Reads an MP attribute's AFI and SAFI: whether it is IPv6 unicast, or
/// a typed reject for anything but IPv4 or IPv6 unicast.
fn unicast_family(cur: &mut Cursor<'_>) -> Result<bool, MrtError> {
    match (cur.u16("MP AFI")?, cur.u8("MP SAFI")?) {
        (1, 1) => Ok(false),
        (2, 1) => Ok(true),
        _ => Err(MrtError::BadValue { context: "MP AFI/SAFI (unicast only)" }),
    }
}

/// The span table of one path-attribute block, walked once and
/// validated: where each modelled attribute's body (its first
/// occurrence) and the MP NLRI lie in the base the walk was given.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct AttrSpans {
    origin: Span,
    as_path: Span,
    next_hop: Span,
    med: Span,
    local_pref: Span,
    atomic_aggregate: bool,
    communities: Span,
    extended_communities: Span,
    large_communities: Span,
    mp_next_hop: Span,
    mp_announced: Nlri,
    mp_withdrawn: Nlri,
}

impl AttrSpans {
    /// The one attribute TLV walk over `block`, spans relative to it.
    #[cfg(test)]
    pub(crate) fn parse(block: &[u8]) -> Result<Self, MrtError> {
        let mut a = AttrSpans::default();
        a.walk(block, block)?;
        Ok(a)
    }

    /// [`parse`](Self::parse) in place over `block`, a region of `base`,
    /// skipping unknown attributes.
    #[inline]
    fn walk(&mut self, base: &[u8], block: &[u8]) -> Result<(), MrtError> {
        let a = self;
        let bad = |context| MrtError::BadValue { context };
        let span = |sub: &[u8]| Span::of(base, sub);
        let nlri = |raw: &[u8], v6| validate_nlri(raw, v6).map(|()| Nlri { span: span(raw), v6 });
        let mut seen = 0u64;
        let mut cur = Cursor::new(block);
        while cur.remaining() > 0 {
            let flags = cur.u8("attribute flags")?;
            let attr_type = cur.u8("attribute type")?;
            let len = if flags & FLAG_EXTENDED_LEN != 0 {
                cur.u16("attribute extended length")? as usize
            } else {
                cur.u8("attribute length")? as usize
            };
            let body = cur.take(len, "attribute body")?;
            // Every modelled type is below 64; unknown ones are skipped anyway.
            let bit = 1u64.checked_shl(attr_type.into()).unwrap_or(0);
            if seen & bit != 0 {
                if attr_type == ATTR_MP_REACH || attr_type == ATTR_MP_UNREACH {
                    return Err(bad("repeated MP_REACH/MP_UNREACH"));
                }
                continue;
            }
            seen |= bit;
            match attr_type {
                ATTR_ORIGIN => match body.first().and_then(|&c| Origin::from_code(c)) {
                    Some(_) => a.origin = span(body),
                    None => return Err(bad("ORIGIN")),
                },
                ATTR_AS_PATH => {
                    Segments(Cursor::new(body)).try_for_each(|s| s.map(drop))?;
                    a.as_path = span(body);
                }
                ATTR_NEXT_HOP if body.len() != 4 => return Err(bad("NEXT_HOP length")),
                ATTR_NEXT_HOP => a.next_hop = span(body),
                ATTR_MED if body.len() != 4 => return Err(bad("MED length")),
                ATTR_MED => a.med = span(body),
                ATTR_LOCAL_PREF if body.len() != 4 => return Err(bad("LOCAL_PREF length")),
                ATTR_LOCAL_PREF => a.local_pref = span(body),
                ATTR_ATOMIC_AGGREGATE => a.atomic_aggregate = true,
                ATTR_COMMUNITY if body.len() % 4 != 0 => return Err(bad("COMMUNITY length")),
                ATTR_COMMUNITY => a.communities = span(body),
                ATTR_EXTENDED_COMMUNITIES if body.len() % 8 != 0 => {
                    return Err(bad("EXTENDED_COMMUNITIES length"));
                }
                ATTR_EXTENDED_COMMUNITIES => a.extended_communities = span(body),
                ATTR_LARGE_COMMUNITY if body.len() % 12 != 0 => {
                    return Err(bad("LARGE_COMMUNITY length"));
                }
                ATTR_LARGE_COMMUNITY => a.large_communities = span(body),
                ATTR_MP_REACH => {
                    let mut mp = Cursor::new(body);
                    let v6 = unicast_family(&mut mp)?;
                    let nhlen = mp.u8("MP_REACH next-hop length")? as usize;
                    let nh = mp.take(nhlen, "MP_REACH next hop")?;
                    a.mp_next_hop = nh.get(..16).map(span).unwrap_or_default();
                    mp.u8("MP_REACH reserved")?;
                    a.mp_announced = nlri(mp.rest(), v6)?;
                }
                ATTR_MP_UNREACH => {
                    let mut mp = Cursor::new(body);
                    let v6 = unicast_family(&mut mp)?;
                    a.mp_withdrawn = nlri(mp.rest(), v6)?;
                }
                _ => {} // unknown attribute: skip (body already consumed)
            }
        }
        Ok(())
    }

    /// A fixed 4-byte attribute (NEXT_HOP, MED, LOCAL_PREF), if present.
    fn fixed(span: Span, base: &[u8]) -> Option<u32> {
        (span.len == 4).then(|| be_u32(span.get(base)))
    }

    /// The owned attribute bundle read from `base`: NEXT_HOP, else the
    /// MP_REACH next hop; absent ORIGIN and next hop default to IGP and
    /// 0.0.0.0.
    #[inline]
    pub(crate) fn to_attrs(self, base: &[u8]) -> PathAttributes {
        let get = |span: Span| span.get(base);
        let mp_next_hop = get(self.mp_next_hop).first_chunk::<16>().copied();
        PathAttributes {
            origin: get(self.origin)
                .first()
                .and_then(|&c| Origin::from_code(c))
                .unwrap_or(Origin::Igp),
            as_path: AsPathView { raw: get(self.as_path) }.to_path(),
            next_hop: match (Self::fixed(self.next_hop, base), mp_next_hop) {
                (Some(nh), _) => Ipv4Addr::from(nh).into(),
                (None, Some(nh)) => Ipv6Addr::from(nh).into(),
                (None, None) => Ipv4Addr::UNSPECIFIED.into(),
            },
            med: Self::fixed(self.med, base),
            local_pref: Self::fixed(self.local_pref, base),
            atomic_aggregate: self.atomic_aggregate,
            communities: be_u32s(get(self.communities), Community),
            extended_communities: get(self.extended_communities)
                .chunks_exact(8)
                .map(|c| ExtendedCommunity(c.try_into().unwrap_or_default()))
                .collect(),
            large_communities: get(self.large_communities)
                .chunks_exact(12)
                .map(|c| LargeCommunity::new(be_u32(&c[0..4]), be_u32(&c[4..8]), be_u32(&c[8..])))
                .collect(),
        }
    }
}

/// The span table of one validated UPDATE: offsets into its message
/// bytes, so it outlives the borrow it was parsed from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct UpdateSpans {
    withdrawn: Span,
    nlri: Span,
    attrs: AttrSpans,
}

/// A validated BGP UPDATE: its message bytes, borrowed, plus the span
/// table the parse found.
#[derive(Debug, Clone, Copy)]
pub struct UpdateView<'a> {
    /// The message, marker to last NLRI byte.
    msg: &'a [u8],
    spans: UpdateSpans,
}

impl<'a> UpdateView<'a> {
    /// Parses and fully validates an UPDATE message (marker + header +
    /// body), so the iterators below and [`materialize`](Self::materialize)
    /// are infallible. Bytes past the message's own length are not part
    /// of it. A repeated MP_REACH_NLRI or MP_UNREACH_NLRI is a
    /// `BadValue`; any other repeated attribute keeps its first occurrence
    /// (RFC 7606 §3(g)). MP NLRI must be IPv4 or IPv6 unicast.
    #[inline]
    pub fn parse(msg: &'a [u8]) -> Result<Self, MrtError> {
        let mut cur = Cursor::new(msg);
        if cur.take(16, "BGP marker")?.iter().any(|&b| b != 0xFF) {
            return Err(MrtError::BadMarker);
        }
        let total = cur.u16("BGP message length")? as usize;
        if total < 19 {
            return Err(MrtError::BadValue { context: "BGP message length" });
        }
        if cur.u8("BGP message type")? != 2 {
            return Err(MrtError::BadValue { context: "BGP message type (expected UPDATE)" });
        }
        let body = cur.take(total - 19, "BGP message body")?;
        let msg = &msg[..total];
        let mut bc = Cursor::new(body);
        let wlen = bc.u16("withdrawn routes length")? as usize;
        let withdrawn = bc.take(wlen, "withdrawn routes")?;
        validate_nlri(withdrawn, false)?;
        let alen = bc.u16("path attributes length")? as usize;
        // Filled in place: returning it through a `Result` costs a copy.
        let mut update = UpdateView {
            msg,
            spans: UpdateSpans { withdrawn: Span::of(msg, withdrawn), ..UpdateSpans::default() },
        };
        update.spans.attrs.walk(msg, bc.take(alen, "path attributes")?)?;
        let nlri = bc.rest();
        validate_nlri(nlri, false)?;
        update.spans.nlri = Span::of(msg, nlri);
        Ok(update)
    }

    /// Withdrawn IPv4 prefixes, in wire order.
    #[inline]
    pub fn withdrawn_v4(&self) -> PrefixIter<'a> {
        Nlri { span: self.spans.withdrawn, v6: false }.prefixes(self.msg)
    }

    /// Withdrawn MP prefixes (usually IPv6), in wire order.
    #[inline]
    pub fn mp_withdrawn(&self) -> PrefixIter<'a> {
        self.spans.attrs.mp_withdrawn.prefixes(self.msg)
    }

    /// Announced IPv4 prefixes (the trailing NLRI), in wire order.
    #[inline]
    pub fn announced_v4(&self) -> PrefixIter<'a> {
        Nlri { span: self.spans.nlri, v6: false }.prefixes(self.msg)
    }

    /// Announced MP prefixes (usually IPv6), in wire order.
    #[inline]
    pub fn mp_announced(&self) -> PrefixIter<'a> {
        self.spans.attrs.mp_announced.prefixes(self.msg)
    }

    /// Whether the message announces any prefix (either family); without
    /// one, [`materialize`](Self::materialize) leaves `attrs` `None`.
    #[inline]
    pub fn has_announcements(&self) -> bool {
        self.spans.nlri.len != 0 || self.spans.attrs.mp_announced.span.len != 0
    }

    /// Borrowed AS_PATH attribute body (empty when the attribute is
    /// absent, which decodes to the empty path either way).
    #[inline]
    pub fn as_path(&self) -> AsPathView<'a> {
        AsPathView { raw: self.spans.attrs.as_path.get(self.msg) }
    }

    /// Borrowed COMMUNITY attribute body (empty when absent).
    #[inline]
    pub fn communities(&self) -> CommunitiesView<'a> {
        CommunitiesView { raw: self.spans.attrs.communities.get(self.msg) }
    }

    /// The owned [`BgpUpdate`], folded from the view's iterators and
    /// recorded attribute bodies: IPv4 prefixes first, then MP ones.
    pub fn materialize(&self) -> BgpUpdate {
        let both = |v4: PrefixIter<'a>, mp: PrefixIter<'a>| {
            let mut out = Vec::new();
            out.extend(v4);
            out.extend(mp);
            out
        };
        let announced = both(self.announced_v4(), self.mp_announced());
        BgpUpdate {
            withdrawn: both(self.withdrawn_v4(), self.mp_withdrawn()),
            attrs: (!announced.is_empty()).then(|| self.spans.attrs.to_attrs(self.msg)),
            announced,
        }
    }
}

/// A validated BGP UPDATE as a record holds it: the message bytes plus
/// the span table their one parse found. [`view`](Self::view) reads it
/// without parsing again; the owned [`BgpUpdate`] is what an update is
/// built from ([`encode`](Self::encode)) and inspected as
/// ([`materialize`](Self::materialize)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireUpdate {
    bytes: Box<[u8]>,
    spans: UpdateSpans,
}

impl WireUpdate {
    /// Validates an UPDATE message ([`UpdateView::parse`]) and keeps a
    /// copy of its bytes and its span table.
    pub fn parse(msg: &[u8]) -> Result<Self, MrtError> {
        let view = UpdateView::parse(msg)?;
        Ok(WireUpdate { bytes: view.msg.into(), spans: view.spans })
    }

    /// Encodes `update` as an UPDATE message and parses it. A message or
    /// a field past its 16-bit length is a `BadValue`.
    pub fn encode(update: &BgpUpdate) -> Result<Self, MrtError> {
        let mut bytes = Vec::with_capacity(128); // a one-prefix update without regrowth
        encode_bgp_update(&mut bytes, update)?;
        let spans = UpdateView::parse(&bytes)?.spans;
        Ok(WireUpdate { bytes: bytes.into_boxed_slice(), spans })
    }

    /// The update, read through its span table.
    #[inline]
    pub fn view(&self) -> UpdateView<'_> {
        UpdateView { msg: &self.bytes, spans: self.spans }
    }

    /// The owned form ([`UpdateView::materialize`]).
    pub fn materialize(&self) -> BgpUpdate {
        self.view().materialize()
    }

    /// The UPDATE message bytes, marker included.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Infallible prefix iterator over a validated NLRI region.
#[derive(Debug, Clone)]
pub struct PrefixIter<'a> {
    cur: Cursor<'a>,
    v6: bool,
}

impl Iterator for PrefixIter<'_> {
    type Item = Prefix;

    #[inline]
    fn next(&mut self) -> Option<Prefix> {
        // The region was validated at parse time; a failure here would be
        // a parser bug, so stop rather than panic.
        (self.cur.remaining() > 0).then(|| decode_nlri_prefix(&mut self.cur, self.v6).ok())?
    }
}

/// The one AS_PATH segment walk: `(is_set, asn bytes)` per segment, in
/// wire order. Confederation segments are a typed reject.
struct Segments<'a>(Cursor<'a>);

impl<'a> Iterator for Segments<'a> {
    type Item = Result<(bool, &'a [u8]), MrtError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let cur = &mut self.0;
        (cur.remaining() > 0).then(|| {
            let code = cur.u8("AS_PATH segment type")?;
            let count = cur.u8("AS_PATH segment count")? as usize;
            let asns = cur.take(count * 4, "AS_PATH asn")?;
            match code {
                1 | 2 => Ok((code == 1, asns)),
                _ => Err(MrtError::BadValue { context: "AS_PATH segment type" }),
            }
        })
    }
}

/// A borrowed AS_PATH attribute body.
#[derive(Debug, Clone, Copy)]
pub struct AsPathView<'a> {
    raw: &'a [u8],
}

impl<'a> AsPathView<'a> {
    /// The validated segments (the parse already rejected bad ones).
    fn segments(&self) -> impl Iterator<Item = (bool, &'a [u8])> {
        Segments(Cursor::new(self.raw)).map_while(Result::ok)
    }

    /// The owned path. Adjacent sequences the encoder split at the
    /// 255-ASN segment limit merge back into one.
    fn to_path(self) -> AsPath {
        let mut out: Vec<AsPathSegment> = Vec::new();
        for (set, raw) in self.segments() {
            match out.last_mut() {
                Some(AsPathSegment::Sequence(prev))
                    if !set && !prev.is_empty() && prev.len() % 255 == 0 =>
                {
                    prev.extend(be_u32s(raw, Asn));
                }
                _ if set => out.push(AsPathSegment::Set(be_u32s(raw, Asn))),
                _ => out.push(AsPathSegment::Sequence(be_u32s(raw, Asn))),
            }
        }
        AsPath::from_segments(out)
    }

    /// Collapses prepending into `out` straight from the wire bytes —
    /// [`AsPath::hops_into`](crate::aspath::AsPath::hops_into) without the intermediate segment `Vec`s.
    pub fn hops_into(&self, out: &mut Vec<Asn>) {
        out.clear();
        for (_, asns) in self.segments() {
            for asn in asns.chunks_exact(4).map(|c| Asn(be_u32(c))) {
                if out.last() != Some(&asn) {
                    out.push(asn);
                }
            }
        }
    }
}

/// A borrowed COMMUNITY attribute body.
#[derive(Debug, Clone, Copy)]
pub struct CommunitiesView<'a> {
    raw: &'a [u8],
}

impl CommunitiesView<'_> {
    /// The communities in wire order.
    pub fn iter(&self) -> impl Iterator<Item = Community> + '_ {
        self.raw.chunks_exact(4).map(|c| Community(be_u32(c)))
    }
}

#[cfg(test)]
mod tests {
    use super::super::writer::MrtWriter;
    use super::super::{Bgp4mpMessage, MrtBody, MrtRecord};
    use super::*;

    fn frame_bytes(update: &BgpUpdate) -> Vec<u8> {
        let rec = MrtRecord {
            timestamp: 1_400_000_000,
            body: MrtBody::Message(Bgp4mpMessage {
                peer_as: Asn(13030),
                local_as: Asn(6447),
                interface_index: 0,
                peer_ip: "192.0.2.1".parse().unwrap(),
                local_ip: "192.0.2.2".parse().unwrap(),
                update: WireUpdate::encode(update).unwrap(),
            }),
        };
        let mut buf = Vec::new();
        MrtWriter::new(&mut buf).write_record(&rec).unwrap();
        buf
    }

    #[test]
    fn view_iterators_match_the_materialized_update() {
        let update = BgpUpdate {
            withdrawn: vec![Prefix::v4(100, 0, 0, 0, 8), "2600:1::/32".parse().unwrap()],
            attrs: Some(PathAttributes::with_path_and_communities(
                AsPath::from_sequence([3356, 3356, 13030, 20940]),
                vec![Community::new(13030, 51904), Community::new(3356, 2001)],
            )),
            announced: vec![Prefix::v4(184, 84, 242, 0, 24), "2600:2::/32".parse().unwrap()],
        };
        let buf = frame_bytes(&update);
        let (frame, used) = FrameView::parse(&buf).unwrap().unwrap();
        assert_eq!(used, buf.len());
        let msg = frame.message().unwrap().unwrap();
        assert_eq!(msg.peer_as, Asn(13030));
        assert_eq!(msg.update.materialize(), update);

        let withdrawn: Vec<Prefix> =
            msg.update.withdrawn_v4().chain(msg.update.mp_withdrawn()).collect();
        assert_eq!(withdrawn, update.withdrawn);
        let announced: Vec<Prefix> =
            msg.update.announced_v4().chain(msg.update.mp_announced()).collect();
        assert_eq!(announced, update.announced);

        let attrs = update.attrs.as_ref().unwrap();
        let mut hops = Vec::new();
        msg.update.as_path().hops_into(&mut hops);
        assert_eq!(hops, attrs.as_path.hops());
        let comms: Vec<Community> = msg.update.communities().iter().collect();
        assert_eq!(comms, attrs.communities);
    }

    #[test]
    fn empty_buffer_is_clean_eof() {
        assert!(FrameView::parse(&[]).unwrap().is_none());
    }

    #[test]
    fn non_message_frames_yield_none() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&7u32.to_be_bytes());
        buf.extend_from_slice(&11u16.to_be_bytes()); // OSPFv2
        buf.extend_from_slice(&0u16.to_be_bytes());
        buf.extend_from_slice(&4u32.to_be_bytes());
        buf.extend_from_slice(&[1, 2, 3, 4]);
        let (frame, _) = FrameView::parse(&buf).unwrap().unwrap();
        assert!(frame.message().unwrap().is_none());
    }
}
