//! Golden-corpus decoder tests: hand-built MRT frames with byte-exact
//! expected parses, malformed frames that must error without panicking,
//! and deterministic mutation-fuzz loops. Over a BGP4MP corpus they
//! assert the parser's two-sided contract against the [`reference`]
//! decoder — the reference accepts a frame exactly when [`MrtReader`]
//! does, both decode it to equal values, and [`MrtReader`] and
//! [`FrameView::message`] accept the same BGP4MP message frames. Over a
//! TABLE_DUMP_V2 corpus they assert that a frame the parser does not
//! read is skipped by its header and costs the stream nothing else.

mod reference;

use kepler_bgp::mrt::{
    Bgp4mpMessage, FrameView, MrtBody, MrtError, MrtReader, MrtRecord, MrtWriter, WireUpdate,
    BGP4MP_MESSAGE_AS4, MRT_TYPE_BGP4MP,
};
use kepler_bgp::{
    AsPath, Asn, BgpUpdate, Community, ExtendedCommunity, LargeCommunity, Origin, PathAttributes,
    Prefix,
};
use reference::Decoded;

const FLAG_TRANSITIVE: u8 = 0x40;
const FLAG_OPTIONAL: u8 = 0x80;
const FLAG_EXTENDED_LEN: u8 = 0x10;

// ---------------------------------------------------------------- builders

/// One MRT frame: 12-byte header + body.
fn mrt_frame(mrt_type: u16, subtype: u16, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + body.len());
    out.extend_from_slice(&1_400_000_000u32.to_be_bytes());
    out.extend_from_slice(&mrt_type.to_be_bytes());
    out.extend_from_slice(&subtype.to_be_bytes());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(body);
    out
}

/// A `BGP4MP_MESSAGE_AS4` body (IPv4 peering) wrapping a raw BGP message.
fn bgp4mp_body(peer_as: u32, bgp_msg: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&peer_as.to_be_bytes());
    out.extend_from_slice(&64_700u32.to_be_bytes()); // local AS
    out.extend_from_slice(&0u16.to_be_bytes()); // interface index
    out.extend_from_slice(&1u16.to_be_bytes()); // AFI: IPv4
    out.extend_from_slice(&[192, 0, 2, 1]); // peer IP
    out.extend_from_slice(&[192, 0, 2, 2]); // local IP
    out.extend_from_slice(bgp_msg);
    out
}

/// A raw BGP UPDATE message from pre-encoded regions.
fn bgp_update_msg(withdrawn: &[u8], attrs: &[u8], nlri: &[u8]) -> Vec<u8> {
    let total = 19 + 2 + withdrawn.len() + 2 + attrs.len() + nlri.len();
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&[0xFF; 16]);
    out.extend_from_slice(&(total as u16).to_be_bytes());
    out.push(2); // UPDATE
    out.extend_from_slice(&(withdrawn.len() as u16).to_be_bytes());
    out.extend_from_slice(withdrawn);
    out.extend_from_slice(&(attrs.len() as u16).to_be_bytes());
    out.extend_from_slice(attrs);
    out.extend_from_slice(nlri);
    out
}

/// One path-attribute TLV, choosing the extended-length form when needed.
fn attr(flags: u8, attr_type: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + body.len());
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
    out
}

fn as_path_attr(asns: &[u32]) -> Vec<u8> {
    let mut body = Vec::with_capacity(2 + asns.len() * 4);
    if !asns.is_empty() {
        body.push(2); // AS_SEQUENCE
        body.push(asns.len() as u8);
        for asn in asns {
            body.extend_from_slice(&asn.to_be_bytes());
        }
    }
    attr(FLAG_TRANSITIVE, 2, &body)
}

/// A full message frame around an UPDATE with the given regions.
fn update_frame(withdrawn: &[u8], attrs: &[u8], nlri: &[u8]) -> Vec<u8> {
    mrt_frame(
        MRT_TYPE_BGP4MP,
        BGP4MP_MESSAGE_AS4,
        &bgp4mp_body(13030, &bgp_update_msg(withdrawn, attrs, nlri)),
    )
}

/// Decodes the frame through both paths and asserts they agree byte-exactly
/// with `expected`, then returns the view-side lazy decode for extra checks.
fn assert_golden(frame: &[u8], expected: &BgpUpdate) {
    // Zero-copy path.
    let (view, used) = FrameView::parse(frame).expect("frame parses").expect("non-empty");
    assert_eq!(used, frame.len(), "frame length accounts for every byte");
    let msg = view.message().expect("message parses").expect("is a message frame");
    assert_eq!(msg.update.materialize(), *expected);
    let withdrawn: Vec<Prefix> =
        msg.update.withdrawn_v4().chain(msg.update.mp_withdrawn()).collect();
    assert_eq!(withdrawn, expected.withdrawn);
    let announced: Vec<Prefix> =
        msg.update.announced_v4().chain(msg.update.mp_announced()).collect();
    assert_eq!(announced, expected.announced);
    if let Some(attrs) = &expected.attrs {
        let mut hops = Vec::new();
        msg.update.as_path().hops_into(&mut hops);
        assert_eq!(hops, attrs.as_path.hops());
        let comms: Vec<Community> = msg.update.communities().iter().collect();
        assert_eq!(comms, attrs.communities);
    }
    // Materializing reader path.
    let records: Vec<MrtRecord> =
        MrtReader::new(frame).map(|r| r.expect("record decodes")).collect();
    assert_eq!(records.len(), 1);
    let MrtBody::Message(m) = &records[0].body else { panic!("expected message body") };
    assert_eq!(&m.update.materialize(), expected);
}

/// Both front doors must reject the frame with a clean error (no panic).
fn assert_rejected(frame: &[u8]) {
    let viewed = FrameView::parse(frame).and_then(|f| match f {
        Some((frame, _)) => frame.message(),
        None => Ok(None),
    });
    assert!(
        matches!(viewed, Err(_) | Ok(None)),
        "zero-copy path must reject or skip, got {viewed:?}"
    );
    let first = MrtReader::new(frame).next();
    assert!(matches!(first, Some(Err(_)) | None), "reader must reject, got {first:?}");
}

// ------------------------------------------------------------ golden frames

/// A truncated MRT header (fewer than the 12 header bytes) errors cleanly,
/// as does a header whose length field overruns the buffer.
#[test]
fn truncated_header_errors() {
    let valid = update_frame(&[], &as_path_attr(&[3356, 13030]), &[16, 20, 1]);
    for cut in 1..12 {
        assert!(matches!(FrameView::parse(&valid[..cut]), Err(MrtError::UnexpectedEof { .. })));
        assert!(matches!(MrtReader::new(&valid[..cut]).next(), Some(Err(_))));
    }
    // Header promises more body than the buffer holds.
    let torn = &valid[..valid.len() - 5];
    assert!(matches!(FrameView::parse(torn), Err(MrtError::UnexpectedEof { .. })));
    assert!(matches!(MrtReader::new(torn).next(), Some(Err(_))));
}

/// An attribute TLV torn mid-body (its length field promises more bytes
/// than the attribute region holds) errors in both decoders.
#[test]
fn torn_mid_attribute_errors() {
    // AS_PATH claiming a 10-byte body with only 6 present.
    let torn_attr = [FLAG_TRANSITIVE, 2, 10, 2, 1, 0, 0, 13, 6];
    assert_rejected(&update_frame(&[], &torn_attr, &[16, 20, 1]));
    // Extended-length form torn the same way.
    let torn_ext = [FLAG_TRANSITIVE | FLAG_EXTENDED_LEN, 2, 1, 44, 2, 1];
    assert_rejected(&update_frame(&[], &torn_ext, &[16, 20, 1]));
}

/// A zero-length AS_PATH attribute is valid wire data: it decodes to the
/// empty path (and the view collapses it to no hops).
#[test]
fn zero_length_as_path_decodes_empty() {
    let mut attrs = attr(FLAG_TRANSITIVE, 1, &[0]); // ORIGIN: IGP
    attrs.extend_from_slice(&attr(FLAG_TRANSITIVE, 2, &[])); // empty AS_PATH
    attrs.extend_from_slice(&attr(FLAG_TRANSITIVE, 3, &[10, 0, 0, 1])); // NEXT_HOP
    let frame = update_frame(&[], &attrs, &[16, 20, 7]);
    let expected = BgpUpdate {
        withdrawn: vec![],
        attrs: Some(PathAttributes {
            as_path: AsPath::empty(),
            next_hop: "10.0.0.1".parse().unwrap(),
            ..Default::default()
        }),
        announced: vec![Prefix::v4(20, 7, 0, 0, 16)],
    };
    assert_golden(&frame, &expected);
    let (view, _) = FrameView::parse(&frame).unwrap().unwrap();
    let mut hops = vec![Asn(1)];
    view.message().unwrap().unwrap().update.as_path().hops_into(&mut hops);
    assert!(hops.is_empty());
}

/// Confederation segments (AS_CONFED_SEQUENCE = 3, AS_CONFED_SET = 4) are
/// outside the implemented subset: both decoders reject them with a clean
/// `BadValue`, never a panic.
#[test]
fn confederation_segments_rejected() {
    for code in [3u8, 4] {
        let mut body = vec![code, 1];
        body.extend_from_slice(&65_100u32.to_be_bytes());
        let frame = update_frame(&[], &attr(FLAG_TRANSITIVE, 2, &body), &[16, 20, 1]);
        let (view, _) = FrameView::parse(&frame).unwrap().unwrap();
        assert!(matches!(view.message(), Err(MrtError::BadValue { .. })), "code {code}");
        assert_rejected(&frame);
    }
}

/// 4-byte ASNs above the 16-bit transition boundary decode exactly — the
/// AS4 wire format always carries 32-bit ASNs, mixed freely with mappable
/// 16-bit values.
#[test]
fn four_byte_asn_transition() {
    let asns = [3356u32, 65_535, 65_536, 396_982, 4_200_000_000];
    let mut attrs = as_path_attr(&asns);
    attrs.extend_from_slice(&attr(FLAG_TRANSITIVE, 3, &[10, 0, 0, 1]));
    let frame = update_frame(&[], &attrs, &[16, 20, 9]);
    let expected = BgpUpdate {
        withdrawn: vec![],
        attrs: Some(PathAttributes {
            as_path: AsPath::from_sequence(asns),
            next_hop: "10.0.0.1".parse().unwrap(),
            ..Default::default()
        }),
        announced: vec![Prefix::v4(20, 9, 0, 0, 16)],
    };
    assert_golden(&frame, &expected);
}

/// A COMMUNITY list at the largest size the 16-bit BGP message length
/// admits alongside the path attribute (16 373 communities, extended-
/// length attribute) decodes intact through both paths.
#[test]
fn max_length_community_list() {
    const COUNT: usize = 16_373;
    let mut body = Vec::with_capacity(COUNT * 4);
    let expected_comms: Vec<Community> = (0..COUNT as u32)
        .map(|i| {
            let c = Community((13_030 << 16) | (i & 0xFFFF));
            body.extend_from_slice(&c.0.to_be_bytes());
            c
        })
        .collect();
    let mut attrs = as_path_attr(&[3356, 13030]);
    attrs.extend_from_slice(&attr(FLAG_OPTIONAL | FLAG_TRANSITIVE, 8, &body));
    let msg = bgp_update_msg(&[], &attrs, &[16, 20, 1]);
    assert!(msg.len() <= u16::MAX as usize, "message fits the 16-bit length field");
    let frame = mrt_frame(MRT_TYPE_BGP4MP, BGP4MP_MESSAGE_AS4, &bgp4mp_body(13030, &msg));
    let expected = BgpUpdate {
        withdrawn: vec![],
        attrs: Some(PathAttributes::with_path_and_communities(
            AsPath::from_sequence([3356, 13030]),
            expected_comms,
        )),
        announced: vec![Prefix::v4(20, 1, 0, 0, 16)],
    };
    assert_golden(&frame, &expected);
}

/// Both front doors reject the frame with a typed `BadValue`.
fn assert_bad_value(frame: &[u8]) {
    let (view, _) = FrameView::parse(frame).unwrap().unwrap();
    let viewed = view.message();
    assert!(matches!(viewed, Err(MrtError::BadValue { .. })), "view: {viewed:?}");
    let read = MrtReader::new(frame).next();
    assert!(matches!(read, Some(Err(MrtError::BadValue { .. }))), "reader: {read:?}");
}

/// Decodes a message frame through both front doors, asserting they agree.
fn decode_both(frame: &[u8]) -> BgpUpdate {
    let (view, _) = FrameView::parse(frame).unwrap().unwrap();
    let update = view.message().unwrap().unwrap().update.materialize();
    let records: Vec<MrtRecord> = MrtReader::new(frame).map(|r| r.unwrap()).collect();
    let MrtBody::Message(m) = &records[0].body else { panic!("expected message") };
    assert_eq!(m.update.materialize(), update, "reader and view agree");
    update
}

/// RFC 7606 §3(g): a repeated MP_REACH_NLRI or MP_UNREACH_NLRI is a typed
/// error; any other repeated attribute keeps its first occurrence and
/// later ones are skipped unvalidated — through `MrtReader` and
/// `FrameView` alike.
#[test]
fn duplicate_attributes_follow_rfc_7606() {
    // AS_PATH: the first occurrence wins.
    let mut attrs = as_path_attr(&[3356, 13030]);
    attrs.extend_from_slice(&as_path_attr(&[3356, 20_940]));
    let frame = update_frame(&[], &attrs, &[16, 20, 1]);
    let path = decode_both(&frame).attrs.unwrap().as_path;
    assert_eq!(path, AsPath::from_sequence([3356, 13030]), "first attribute wins");
    let (view, _) = FrameView::parse(&frame).unwrap().unwrap();
    let mut hops = Vec::new();
    view.message().unwrap().unwrap().update.as_path().hops_into(&mut hops);
    assert_eq!(hops, [Asn(3356), Asn(13030)]);

    // A malformed repeat (COMMUNITY of length 3) is skipped, not validated.
    let mut attrs = as_path_attr(&[3356]);
    attrs.extend_from_slice(&attr(FLAG_OPTIONAL | FLAG_TRANSITIVE, 8, &[0, 1, 0, 2]));
    attrs.extend_from_slice(&attr(FLAG_OPTIONAL | FLAG_TRANSITIVE, 8, &[9, 9, 9]));
    let update = decode_both(&update_frame(&[], &attrs, &[16, 20, 1]));
    assert_eq!(update.attrs.unwrap().communities, [Community::new(1, 2)]);

    // Repeated MP regions are malformed, however well-formed each is.
    let reach = attr(FLAG_OPTIONAL, 14, &mp_reach_body(2, 1, &[32, 0x26, 0, 0, 2]));
    let unreach = attr(FLAG_OPTIONAL, 15, &mp_unreach_body(2, 1, &[32, 0x26, 0, 0, 1]));
    for mp in [&reach, &unreach] {
        let mut attrs = as_path_attr(&[3356]);
        attrs.extend_from_slice(mp);
        decode_both(&update_frame(&[], &attrs, &[]));
        attrs.extend_from_slice(mp);
        assert_bad_value(&update_frame(&[], &attrs, &[]));
    }
}

/// Every modelled attribute with a malformed body is a typed reject in
/// both front doors and in the reference: bad ORIGIN, and a wrong length
/// for each fixed-size or list attribute.
#[test]
fn malformed_attribute_bodies_are_rejected() {
    let cases: [(u8, &[u8]); 8] = [
        (1, &[]),
        (1, &[3]),
        (3, &[10, 0, 0]),
        (4, &[0, 0, 0, 0, 7]),
        (5, &[0, 100]),
        (8, &[0, 1, 0]),
        (16, &[0; 7]),
        (32, &[0; 11]),
    ];
    for (attr_type, body) in cases {
        let mut attrs = as_path_attr(&[3356]);
        attrs.extend_from_slice(&attr(FLAG_OPTIONAL | FLAG_TRANSITIVE, attr_type, body));
        let frame = update_frame(&[], &attrs, &[16, 20, 1]);
        assert_bad_value(&frame);
        assert!(matches!(reference::decode_frame(&frame), Some(Err(_))), "type {attr_type}");
    }
}

/// An MP_REACH_NLRI body: AFI, SAFI, a 16-byte next hop, reserved, NLRI.
fn mp_reach_body(afi: u16, safi: u8, nlri: &[u8]) -> Vec<u8> {
    let mut body = afi.to_be_bytes().to_vec();
    body.push(safi);
    body.push(16);
    body.extend_from_slice(&[0x20, 0x01, 0x07, 0xf8].repeat(4));
    body.push(0);
    body.extend_from_slice(nlri);
    body
}

/// An MP_UNREACH_NLRI body: AFI, SAFI, withdrawn NLRI.
fn mp_unreach_body(afi: u16, safi: u8, nlri: &[u8]) -> Vec<u8> {
    let mut body = afi.to_be_bytes().to_vec();
    body.push(safi);
    body.extend_from_slice(nlri);
    body
}

/// MP NLRI of any family but IPv4 or IPv6 unicast is a typed reject, not
/// IPv4 unicast routes: AFI 3 (NSAP) and SAFI 2 (multicast), in MP_REACH and in MP_UNREACH.
#[test]
fn non_unicast_mp_nlri_is_rejected() {
    let nlri = [16, 20, 1];
    for (afi, safi) in [(3u16, 1u8), (1, 2)] {
        let mut attrs = as_path_attr(&[3356]);
        attrs.extend_from_slice(&attr(FLAG_OPTIONAL, 14, &mp_reach_body(afi, safi, &nlri)));
        assert_bad_value(&update_frame(&[], &attrs, &[]));
        let unreach = attr(FLAG_OPTIONAL, 15, &mp_unreach_body(afi, safi, &nlri));
        assert_bad_value(&update_frame(&[], &unreach, &[]));
    }
    // IPv4 unicast in MP_REACH stays a route.
    let mut attrs = as_path_attr(&[3356]);
    attrs.extend_from_slice(&attr(FLAG_OPTIONAL, 14, &mp_reach_body(1, 1, &nlri)));
    let update = decode_both(&update_frame(&[], &attrs, &[]));
    assert_eq!(update.announced, [Prefix::v4(20, 1, 0, 0, 16)]);
}

/// A body that does not decode costs its own record, not the rest of the
/// archive: the reader yields its error and goes on to the next frame.
#[test]
fn body_error_skips_one_record() {
    let good = update_frame(&[], &as_path_attr(&[3356, 13030]), &[16, 20, 1]);
    let mut confed = vec![3u8, 1];
    confed.extend_from_slice(&65_100u32.to_be_bytes());
    let bad = update_frame(&[], &attr(FLAG_TRANSITIVE, 2, &confed), &[16, 20, 1]);
    let archive = [good.clone(), bad, good].concat();
    let items: Vec<_> = MrtReader::new(&archive[..]).collect();
    assert_eq!(items.len(), 3);
    assert!(items[0].is_ok() && items[2].is_ok());
    assert!(matches!(items[1], Err(MrtError::BadValue { .. })));
}

// ------------------------------------------------------------- mutation fuzz

/// Tiny deterministic PRNG (xorshift64*), so the fuzz loop needs no
/// dependencies and failures replay exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A writer-produced `BGP4MP_MESSAGE_AS4` frame around `update`.
fn written(update: BgpUpdate) -> Vec<u8> {
    let rec = MrtRecord {
        timestamp: 1_400_000_000,
        body: MrtBody::Message(Bgp4mpMessage {
            peer_as: Asn(13030),
            local_as: Asn(64_700),
            interface_index: 0,
            peer_ip: "192.0.2.1".parse().unwrap(),
            local_ip: "192.0.2.2".parse().unwrap(),
            update: WireUpdate::encode(&update).unwrap(),
        }),
    };
    let mut buf = Vec::new();
    MrtWriter::new(&mut buf).write_record(&rec).unwrap();
    buf
}

/// The corpus the fuzz loop mutates: every golden frame above plus two
/// writer-produced frames, one with both address families and one with
/// every other attribute the encoder can emit and an AS path split at
/// the 255-ASN segment limit.
fn fuzz_corpus() -> Vec<Vec<u8>> {
    let mut rich_attrs = PathAttributes::with_path_and_communities(
        AsPath::from_sequence([3356, 3356, 13030, 20_940]),
        vec![Community::new(13030, 51_904), Community::new(3356, 2001)],
    );
    rich_attrs.med = Some(7);
    rich_attrs.local_pref = Some(120);
    let rich = written(BgpUpdate {
        withdrawn: vec![Prefix::v4(100, 0, 0, 0, 8), "2600:1::/32".parse().unwrap()],
        attrs: Some(rich_attrs),
        announced: vec![Prefix::v4(184, 84, 242, 0, 24), "2600:2::/32".parse().unwrap()],
    });
    let long = written(BgpUpdate {
        withdrawn: vec![],
        attrs: Some(PathAttributes {
            origin: Origin::Incomplete,
            as_path: AsPath::from_sequence(64_512..64_812),
            next_hop: "2001:7f8::1".parse().unwrap(),
            atomic_aggregate: true,
            extended_communities: vec![ExtendedCommunity([0, 2, 0x32, 0xE6, 0, 0, 0, 9])],
            large_communities: vec![LargeCommunity::new(13030, 7, 9)],
            ..Default::default()
        }),
        announced: vec!["2a02:2e0::/32".parse().unwrap()],
    });

    let mut zero_path_attrs = attr(FLAG_TRANSITIVE, 1, &[0]);
    zero_path_attrs.extend_from_slice(&attr(FLAG_TRANSITIVE, 2, &[]));
    zero_path_attrs.extend_from_slice(&attr(FLAG_TRANSITIVE, 3, &[10, 0, 0, 1]));

    let mut asn4_attrs = as_path_attr(&[3356, 65_535, 65_536, 396_982]);
    asn4_attrs.extend_from_slice(&attr(FLAG_TRANSITIVE, 3, &[10, 0, 0, 1]));

    vec![
        rich,
        long,
        update_frame(&[], &zero_path_attrs, &[16, 20, 7]),
        update_frame(&[16, 20, 3], &[], &[]),
        update_frame(&[], &asn4_attrs, &[16, 20, 9, 8, 10, 24, 20, 11, 0]),
    ]
}

/// A message frame read by [`MrtReader`] and written back by
/// [`MrtWriter`] is the same bytes: a record keeps its UPDATE as wire
/// bytes, so even what the owned form drops — a repeated attribute, an
/// unknown one — passes through.
#[test]
fn message_frames_pass_through_byte_identical() {
    let mut repeated = as_path_attr(&[3356, 13030]);
    repeated.extend_from_slice(&as_path_attr(&[3356, 20_940]));
    repeated.extend_from_slice(&attr(FLAG_OPTIONAL | FLAG_TRANSITIVE, 99, &[0xAB, 0xCD]));
    let frames = fuzz_corpus().into_iter().chain([update_frame(&[], &repeated, &[16, 20, 1])]);
    for frame in frames {
        let records: Vec<MrtRecord> = MrtReader::new(&frame[..]).map(Result::unwrap).collect();
        let mut again = Vec::new();
        let mut writer = MrtWriter::new(&mut again);
        for record in &records {
            writer.write_record(record).unwrap();
        }
        assert_eq!(again, frame);
    }
}

/// MRT type code of TABLE_DUMP_V2 records, which the parser does not read.
const MRT_TYPE_TABLE_DUMP_V2: u16 = 13;

/// A TABLE_DUMP_V2 snapshot, built as bytes: the peer index table plus
/// one IPv4 and one IPv6 RIB record, whose first entry carries every
/// attribute an UPDATE can (the IPv6 next hop as the abbreviated
/// MP_REACH of RFC 6396 §4.3.4).
fn table_dump_corpus() -> Vec<Vec<u8>> {
    let mut peers = 0x0A00_0001u32.to_be_bytes().to_vec(); // collector BGP id
    peers.extend_from_slice(&[0, 5]);
    peers.extend_from_slice(b"rrc00"); // view name
    peers.extend_from_slice(&[0, 2]); // peer count
    peers.extend_from_slice(&[0b10, 0, 0, 0, 1, 192, 0, 2, 1]); // 4-byte ASN, IPv4 address
    peers.extend_from_slice(&6939u32.to_be_bytes());
    peers.extend_from_slice(&[0b11, 0, 0, 0, 2]); // 4-byte ASN, IPv6 address
    peers.extend_from_slice(&[0x20, 0x01, 0x07, 0xf8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2]);
    peers.extend_from_slice(&396_982u32.to_be_bytes());

    let rich = |next_hop: Vec<u8>| {
        let mut attrs = attr(FLAG_TRANSITIVE, 1, &[1]); // ORIGIN: EGP
        attrs.extend_from_slice(&as_path_attr(&[6939, 6939, 3320, 396_982]));
        attrs.extend_from_slice(&next_hop);
        attrs.extend_from_slice(&attr(FLAG_OPTIONAL, 4, &50u32.to_be_bytes())); // MED
        attrs.extend_from_slice(&attr(FLAG_TRANSITIVE, 5, &100u32.to_be_bytes())); // LOCAL_PREF
        attrs.extend_from_slice(&attr(FLAG_TRANSITIVE, 6, &[])); // ATOMIC_AGGREGATE
        let communities = [Community::new(6939, 1000), Community::new(3320, 2003)];
        let body: Vec<u8> = communities.iter().flat_map(|c| c.0.to_be_bytes()).collect();
        attrs.extend_from_slice(&attr(FLAG_OPTIONAL | FLAG_TRANSITIVE, 8, &body));
        let extended = [0, 2, 0x1B, 0x1B, 0, 0, 0, 7];
        attrs.extend_from_slice(&attr(FLAG_OPTIONAL | FLAG_TRANSITIVE, 16, &extended));
        let large: Vec<u8> = [396_982u32, 1, 2].iter().flat_map(|v| v.to_be_bytes()).collect();
        attrs.extend_from_slice(&attr(FLAG_OPTIONAL | FLAG_TRANSITIVE, 32, &large));
        attrs
    };
    let rib = |sequence: u32, prefix: &[u8], first: Vec<u8>| {
        let mut second = attr(FLAG_TRANSITIVE, 1, &[0]); // ORIGIN: IGP
        second.extend_from_slice(&as_path_attr(&[396_982]));
        second.extend_from_slice(&attr(FLAG_TRANSITIVE, 3, &[0, 0, 0, 0])); // NEXT_HOP
        let mut body = sequence.to_be_bytes().to_vec();
        body.extend_from_slice(prefix);
        body.extend_from_slice(&[0, 2]); // entry count
        for (peer_index, originated, attrs) in
            [(0u16, 1_431_500_000u32, first), (1, 1_431_500_100, second)]
        {
            body.extend_from_slice(&peer_index.to_be_bytes());
            body.extend_from_slice(&originated.to_be_bytes());
            body.extend_from_slice(&(attrs.len() as u16).to_be_bytes());
            body.extend_from_slice(&attrs);
        }
        body
    };
    let v4_next_hop = attr(FLAG_TRANSITIVE, 3, &[192, 0, 2, 1]);
    let mut v6_next_hop = vec![16]; // abbreviated MP_REACH: the next hop alone
    v6_next_hop.extend_from_slice(&[0x20, 0x01, 0x07, 0xf8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2]);
    let v6_next_hop = attr(FLAG_OPTIONAL, 14, &v6_next_hop);
    vec![
        mrt_frame(MRT_TYPE_TABLE_DUMP_V2, 1, &peers), // PEER_INDEX_TABLE
        mrt_frame(MRT_TYPE_TABLE_DUMP_V2, 2, &rib(0, &[24, 184, 84, 242], rich(v4_next_hop))),
        mrt_frame(
            MRT_TYPE_TABLE_DUMP_V2,
            4,
            &rib(1, &[32, 0x2a, 0x02, 0x02, 0xe0], rich(v6_next_hop)),
        ),
    ]
}

/// Checks one (possibly mutated) buffer and returns whether the reader
/// accepted its first record. Nothing may panic, and:
///
/// * the reference accepts the first frame exactly when [`MrtReader`]
///   does, and decodes it to the values the parser's record holds (its
///   UPDATE materialized);
/// * on a BGP4MP message frame, [`FrameView::message`] accepts exactly
///   when [`MrtReader`] does, and the view's lazy iterators yield the
///   decoded record's prefixes, collapsed AS path and communities.
fn check_equivalence(buf: &[u8]) -> bool {
    // The reader goes past body errors to the end of the buffer.
    let parsed: Vec<Result<MrtRecord, MrtError>> = MrtReader::new(buf).collect();
    let first = parsed.first();
    if let Some(reference) = reference::decode_frame(buf) {
        match (&reference, first) {
            (Ok(r), Some(Ok(p))) => {
                assert_eq!(
                    Some(r),
                    Decoded::of(p).as_ref(),
                    "reference and parser decode differently"
                )
            }
            (Err(_), Some(Err(_))) => {}
            _ => panic!("reference {reference:?}, parser {first:?}"),
        }
    }
    match FrameView::parse(buf).map(|f| f.map(|(frame, _)| frame.message())) {
        Err(_) => assert!(matches!(first, Some(Err(_))), "torn frame, reader {first:?}"),
        Ok(None) => assert!(first.is_none()),
        Ok(Some(Err(e))) => assert!(matches!(first, Some(Err(_))), "view {e:?}, reader {first:?}"),
        Ok(Some(Ok(None))) => {}
        Ok(Some(Ok(Some(msg)))) => {
            let Some(Ok(MrtRecord { body: MrtBody::Message(m), .. })) = first else {
                panic!("view accepted, reader {first:?}")
            };
            let (view, update) = (msg.update, &m.update.materialize());
            assert_eq!(view.materialize(), *update);
            let withdrawn: Vec<Prefix> = view.withdrawn_v4().chain(view.mp_withdrawn()).collect();
            assert_eq!(withdrawn, update.withdrawn, "withdrawn prefixes diverged");
            let announced: Vec<Prefix> = view.announced_v4().chain(view.mp_announced()).collect();
            assert_eq!(announced, update.announced, "announced prefixes diverged");
            assert_eq!(view.has_announcements(), !update.announced.is_empty());
            // Attributes only exist on announcing messages.
            if let Some(attrs) = &update.attrs {
                let mut hops = Vec::new();
                view.as_path().hops_into(&mut hops);
                assert_eq!(hops, attrs.as_path.hops(), "collapsed hops diverged");
                let comms: Vec<Community> = view.communities().iter().collect();
                assert_eq!(comms, attrs.communities, "communities diverged");
            }
        }
    }
    matches!(first, Some(Ok(_)))
}

/// Checks one (possibly mutated) TABLE_DUMP_V2 frame and returns whether
/// its header still reads TABLE_DUMP_V2 with its length intact. Nothing
/// may panic; [`check_equivalence`] holds (a mutant flipped into a BGP4MP
/// type is parsed as one); and a frame with an intact TABLE_DUMP_V2
/// header is [`MrtError::UnsupportedRecord`] whatever its body holds,
/// with a BGP4MP frame after it still decoding.
fn check_skipped(buf: &[u8]) -> bool {
    check_equivalence(buf);
    let intact = buf.len() >= 12
        && buf[4..6] == MRT_TYPE_TABLE_DUMP_V2.to_be_bytes()
        && buf[8..12] == ((buf.len() - 12) as u32).to_be_bytes();
    if intact {
        let next = update_frame(&[], &as_path_attr(&[3356, 13030]), &[16, 20, 1]);
        let expected = MrtReader::new(&next[..]).next().unwrap().unwrap();
        let items: Vec<_> = MrtReader::new(&[buf, &next[..]].concat()[..]).collect();
        assert!(
            matches!(
                &items[..],
                [Err(MrtError::UnsupportedRecord { mrt_type: 13, .. }), Ok(read)] if *read == expected
            ),
            "an intact TABLE_DUMP_V2 header is skipped and the next frame read, got {items:?}"
        );
    }
    intact
}

/// Applies `per_frame` seeded mutations to every frame of `corpus`,
/// checking each (and each unmutated frame, which must pass) with
/// `check`. Returns how many mutated frames passed it.
fn fuzz(corpus: &[Vec<u8>], seed: u64, per_frame: usize, check: fn(&[u8]) -> bool) -> u32 {
    let mut rng = Rng(seed);
    let mut accepted = 0u32;
    for frame in corpus {
        assert!(check(frame), "the unmutated frame passes");
        for _ in 0..per_frame {
            let mut buf = frame.clone();
            match rng.below(4) {
                // Flip 1–4 bits anywhere in the frame.
                0 | 1 => {
                    for _ in 0..1 + rng.below(4) {
                        let i = rng.below(buf.len());
                        buf[i] ^= 1 << rng.below(8);
                    }
                }
                // Truncate to a random length.
                2 => {
                    let keep = rng.below(buf.len());
                    buf.truncate(keep);
                }
                // Overwrite a random byte with a boundary-ish value.
                3 => {
                    let i = rng.below(buf.len());
                    buf[i] = [0x00, 0xFF, 0x7F, 0x80, 0x10][rng.below(5)];
                }
                _ => unreachable!(),
            }
            accepted += u32::from(check(&buf));
        }
    }
    accepted
}

#[test]
fn mutated_corpus_matches_the_reference_both_ways() {
    let accepted = fuzz(&fuzz_corpus(), 0x6B65_706C_6572_2E31, 1500, check_equivalence);
    // Sanity: the mutation space is not rejecting everything (which would
    // make the agreement on decoded values vacuous).
    assert!(accepted > 100, "only {accepted} mutated frames were accepted");
}

#[test]
fn mutated_table_dump_matches_the_reference_both_ways() {
    let skipped = fuzz(&table_dump_corpus(), 0x7464_7632_2E72_6962, 1500, check_skipped);
    // Sanity: the mutation space is not tearing every header (which would
    // make the skip contract vacuous).
    assert!(skipped > 100, "only {skipped} mutated frames kept their header");
}
