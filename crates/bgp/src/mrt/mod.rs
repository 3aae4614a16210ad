//! MRT archive format (RFC 6396) — the on-disk format of RouteViews and
//! RIPE RIS, which are Kepler's BGP data sources.
//!
//! Implemented subset: the `BGP4MP` records that carry what the detector
//! reads.
//!
//! * `BGP4MP` / `BGP4MP_MESSAGE_AS4` — one archived BGP UPDATE, with the
//!   full BGP-4 wire encoding of the message (RFC 4271) including
//!   multiprotocol NLRI for IPv6 (RFC 4760).
//! * `BGP4MP` / `BGP4MP_STATE_CHANGE_AS4` — collector-peer FSM transitions.
//!
//! Every other frame (a `TABLE_DUMP_V2` RIB snapshot among them) is
//! skipped by its header, its body untouched:
//! [`MrtError::UnsupportedRecord`].
//!
//! There is one parser, the zero-copy [`FrameView`] / [`UpdateView`];
//! [`MrtReader`]'s records are built on it ([`FrameView::record`]), and
//! keep each UPDATE as a [`WireUpdate`]: its bytes plus the span table
//! the parse found.
//!
//! Records round-trip byte-exactly (`encode` ∘ `decode` = id), which the
//! property tests in this module verify; this is what lets `kepler-netsim`
//! produce archives that standard MRT tooling can read.

mod bgp4mp;
mod error;
mod reader;
mod view;
mod wire;
mod writer;

pub use bgp4mp::{Bgp4mpMessage, Bgp4mpStateChange};
pub use error::MrtError;
pub use reader::MrtReader;
pub use view::{
    AsPathView, CommunitiesView, FrameView, MessageView, PrefixIter, UpdateView, WireUpdate,
};
pub use writer::MrtWriter;

/// MRT type code for BGP4MP records.
pub const MRT_TYPE_BGP4MP: u16 = 16;

/// BGP4MP subtype: state change with 4-byte ASNs.
pub const BGP4MP_STATE_CHANGE_AS4: u16 = 5;
/// BGP4MP subtype: BGP message with 4-byte ASNs.
pub const BGP4MP_MESSAGE_AS4: u16 = 4;

/// One decoded MRT record: a Unix timestamp plus a typed body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MrtRecord {
    /// Seconds since the Unix epoch (MRT header field).
    pub timestamp: u32,
    /// The decoded payload.
    pub body: MrtBody,
}

/// The payload of an [`MrtRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MrtBody {
    /// An archived BGP UPDATE message.
    Message(Bgp4mpMessage),
    /// A collector-peer session state change.
    StateChange(Bgp4mpStateChange),
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::aspath::AsPath;
    use crate::attrs::{Origin, PathAttributes};
    use crate::community::{Community, LargeCommunity};
    use crate::message::{BgpUpdate, PeerState, StateChange};
    use crate::prefix::Prefix;
    use crate::Asn;
    use proptest::prelude::*;
    use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

    fn arb_prefix_v4() -> impl Strategy<Value = Prefix> {
        (any::<u32>(), 0u8..=32)
            .prop_map(|(addr, len)| Prefix::new(IpAddr::V4(Ipv4Addr::from(addr)), len).unwrap())
    }

    fn arb_prefix_v6() -> impl Strategy<Value = Prefix> {
        (any::<u128>(), 0u8..=128)
            .prop_map(|(addr, len)| Prefix::new(IpAddr::V6(Ipv6Addr::from(addr)), len).unwrap())
    }

    fn arb_attrs() -> impl Strategy<Value = PathAttributes> {
        (
            prop::sample::select(vec![Origin::Igp, Origin::Egp, Origin::Incomplete]),
            prop::collection::vec(1u32..400_000, 1..6),
            any::<u32>(),
            prop::option::of(any::<u32>()),
            prop::option::of(any::<u32>()),
            any::<bool>(),
            prop::collection::vec(any::<u32>(), 0..8),
            prop::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..3),
        )
            .prop_map(|(origin, path, nh, med, lp, atomic, comms, larges)| {
                PathAttributes {
                    origin,
                    as_path: AsPath::from_sequence(path),
                    next_hop: IpAddr::V4(Ipv4Addr::from(nh)),
                    med,
                    local_pref: lp,
                    atomic_aggregate: atomic,
                    communities: comms.into_iter().map(Community).collect(),
                    extended_communities: vec![],
                    large_communities: larges
                        .into_iter()
                        .map(|(g, l1, l2)| LargeCommunity::new(g, l1, l2))
                        .collect(),
                }
            })
    }

    fn arb_update() -> impl Strategy<Value = BgpUpdate> {
        (
            prop::collection::vec(arb_prefix_v4(), 0..5),
            prop::collection::vec(arb_prefix_v6(), 0..4),
            arb_attrs(),
            prop::collection::vec(arb_prefix_v4(), 0..5),
            prop::collection::vec(arb_prefix_v6(), 0..4),
            any::<bool>(),
        )
            .prop_map(|(w4, w6, attrs, a4, a6, announce)| {
                let mut withdrawn = w4;
                withdrawn.extend(w6);
                let mut announced = a4;
                announced.extend(a6);
                if announce && !announced.is_empty() {
                    BgpUpdate { withdrawn, attrs: Some(attrs), announced }
                } else {
                    BgpUpdate { withdrawn, attrs: None, announced: vec![] }
                }
            })
            .prop_filter("non-empty update", |u| !u.is_empty())
    }

    proptest! {
        #[test]
        fn bgp4mp_message_roundtrips(update in arb_update(), ts in any::<u32>(), peer in 1u32..1_000_000) {
            let rec = MrtRecord {
                timestamp: ts,
                body: MrtBody::Message(Bgp4mpMessage {
                    peer_as: Asn(peer),
                    local_as: Asn(64_700),
                    interface_index: 0,
                    peer_ip: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
                    local_ip: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
                    update: WireUpdate::encode(&update).unwrap(),
                }),
            };
            let mut buf = Vec::new();
            MrtWriter::new(&mut buf).write_record(&rec).unwrap();
            let decoded: Vec<_> = MrtReader::new(&buf[..]).map(|r| r.unwrap()).collect();
            let MrtBody::Message(m) = &decoded[0].body else { panic!("a message") };
            prop_assert_eq!(m.update.materialize(), update);
            prop_assert_eq!(decoded, vec![rec]);
        }

        #[test]
        fn state_change_roundtrips(ts in any::<u32>(), old in 1u16..=6, new in 1u16..=6) {
            let rec = MrtRecord {
                timestamp: ts,
                body: MrtBody::StateChange(Bgp4mpStateChange {
                    peer_as: Asn(65_001 % 64_000 + 1),
                    local_as: Asn(64_700),
                    interface_index: 3,
                    peer_ip: IpAddr::V6(Ipv6Addr::LOCALHOST),
                    local_ip: IpAddr::V6(Ipv6Addr::UNSPECIFIED),
                    change: StateChange {
                        old: PeerState::from_code(old).unwrap(),
                        new: PeerState::from_code(new).unwrap(),
                    },
                }),
            };
            let mut buf = Vec::new();
            MrtWriter::new(&mut buf).write_record(&rec).unwrap();
            let decoded: Vec<_> = MrtReader::new(&buf[..]).map(|r| r.unwrap()).collect();
            prop_assert_eq!(decoded, vec![rec]);
        }
    }
}
