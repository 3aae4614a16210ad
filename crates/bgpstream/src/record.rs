//! The record/element data model.
//!
//! A [`BgpRecord`] corresponds to one archived MRT record; a [`BgpElem`] is
//! the per-prefix exploded view that analysis code consumes (BGPStream's
//! `BGPElem`). Kepler's monitoring module works exclusively on elements.

use crate::collector::{CollectorId, PeerId};
use kepler_bgp::mrt::{Bgp4mpMessage, MrtBody, MrtRecord};
use kepler_bgp::{BgpUpdate, PathAttributes, Prefix, StateChange};
use std::sync::Arc;

/// Seconds since the Unix epoch (virtual time in simulations).
pub type Timestamp = u64;

/// Payload of a [`BgpRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordPayload {
    /// A BGP UPDATE received from the peer.
    Update(BgpUpdate),
    /// A collector-peer session state change.
    State(StateChange),
}

/// One archived record from one collector peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BgpRecord {
    /// Arrival time at the collector.
    pub time: Timestamp,
    /// The collector that archived the record.
    pub collector: CollectorId,
    /// The peer that sent it.
    pub peer: PeerId,
    /// The message itself.
    pub payload: RecordPayload,
}

/// What a [`BgpElem`] says about its prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElemKind {
    /// The prefix is announced with the given attributes (shared among all
    /// prefixes of the original update).
    Announce(Arc<PathAttributes>),
    /// The prefix is withdrawn.
    Withdraw,
}

/// Per-prefix exploded element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BgpElem {
    /// Arrival time at the collector.
    pub time: Timestamp,
    /// Source collector.
    pub collector: CollectorId,
    /// Source peer.
    pub peer: PeerId,
    /// The prefix this element describes.
    pub prefix: Prefix,
    /// Announcement or withdrawal.
    pub kind: ElemKind,
}

impl BgpElem {
    /// The attributes if this is an announcement.
    pub fn attrs(&self) -> Option<&PathAttributes> {
        match &self.kind {
            ElemKind::Announce(a) => Some(a),
            ElemKind::Withdraw => None,
        }
    }

    /// Whether this is a withdrawal.
    pub fn is_withdraw(&self) -> bool {
        matches!(self.kind, ElemKind::Withdraw)
    }
}

impl BgpRecord {
    /// Explodes the record into per-prefix elements. State changes yield no
    /// elements (they are consumed by the [`crate::gap::GapTracker`]).
    pub fn explode(&self) -> Vec<BgpElem> {
        match &self.payload {
            RecordPayload::State(_) => Vec::new(),
            RecordPayload::Update(u) => {
                let mut out = Vec::with_capacity(u.withdrawn.len() + u.announced.len());
                for p in &u.withdrawn {
                    out.push(BgpElem {
                        time: self.time,
                        collector: self.collector,
                        peer: self.peer,
                        prefix: *p,
                        kind: ElemKind::Withdraw,
                    });
                }
                if let Some(attrs) = &u.attrs {
                    let attrs = Arc::new(attrs.clone());
                    for p in &u.announced {
                        out.push(BgpElem {
                            time: self.time,
                            collector: self.collector,
                            peer: self.peer,
                            prefix: *p,
                            kind: ElemKind::Announce(Arc::clone(&attrs)),
                        });
                    }
                }
                out
            }
        }
    }

    /// Converts a decoded MRT record into a [`BgpRecord`], if it is a
    /// message or state change (RIB records are handled separately). The
    /// record is consumed: its update moves into the result uncopied.
    pub fn from_mrt(rec: MrtRecord, collector: CollectorId) -> Option<BgpRecord> {
        match rec.body {
            MrtBody::Message(m) => Some(BgpRecord {
                time: rec.timestamp as Timestamp,
                collector,
                peer: PeerId { asn: m.peer_as, addr: m.peer_ip },
                payload: RecordPayload::Update(m.update),
            }),
            MrtBody::StateChange(s) => Some(BgpRecord {
                time: rec.timestamp as Timestamp,
                collector,
                peer: PeerId { asn: s.peer_as, addr: s.peer_ip },
                payload: RecordPayload::State(s.change),
            }),
            _ => None,
        }
    }

    /// Converts back to an MRT record for archiving (state or message).
    pub fn to_mrt(&self, local_as: kepler_bgp::Asn, local_ip: std::net::IpAddr) -> MrtRecord {
        let body = match &self.payload {
            RecordPayload::Update(u) => MrtBody::Message(Bgp4mpMessage {
                peer_as: self.peer.asn,
                local_as,
                interface_index: 0,
                peer_ip: self.peer.addr,
                local_ip,
                update: u.clone(),
            }),
            RecordPayload::State(s) => MrtBody::StateChange(kepler_bgp::mrt::Bgp4mpStateChange {
                peer_as: self.peer.asn,
                local_as,
                interface_index: 0,
                peer_ip: self.peer.addr,
                local_ip,
                change: *s,
            }),
        };
        MrtRecord { timestamp: self.time as u32, body }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kepler_bgp::{AsPath, Asn, Community};

    fn rec(update: BgpUpdate) -> BgpRecord {
        BgpRecord {
            time: 100,
            collector: CollectorId(0),
            peer: PeerId { asn: Asn(13030), addr: "192.0.2.1".parse().unwrap() },
            payload: RecordPayload::Update(update),
        }
    }

    #[test]
    fn explode_mixed_update() {
        let attrs = PathAttributes::with_path_and_communities(
            AsPath::from_sequence([13030, 20940]),
            vec![Community::new(13030, 51904)],
        );
        let u = BgpUpdate {
            withdrawn: vec![Prefix::v4(100, 1, 0, 0, 16)],
            attrs: Some(attrs),
            announced: vec![Prefix::v4(184, 84, 242, 0, 24), Prefix::v4(2, 21, 67, 0, 24)],
        };
        let elems = rec(u).explode();
        assert_eq!(elems.len(), 3);
        assert!(elems[0].is_withdraw());
        assert!(elems[1].attrs().is_some());
        // Attribute sharing: the two announce elems point at the same bundle.
        let (a1, a2) = match (&elems[1].kind, &elems[2].kind) {
            (ElemKind::Announce(a), ElemKind::Announce(b)) => (a, b),
            _ => panic!("expected announces"),
        };
        assert!(Arc::ptr_eq(a1, a2));
    }

    #[test]
    fn state_records_yield_no_elems() {
        let r = BgpRecord {
            time: 5,
            collector: CollectorId(1),
            peer: PeerId { asn: Asn(1), addr: "192.0.2.9".parse().unwrap() },
            payload: RecordPayload::State(StateChange {
                old: kepler_bgp::PeerState::Established,
                new: kepler_bgp::PeerState::Idle,
            }),
        };
        assert!(r.explode().is_empty());
    }

    #[test]
    fn mrt_conversion_roundtrip() {
        let attrs =
            PathAttributes::with_path_and_communities(AsPath::from_sequence([13030]), vec![]);
        let r = rec(BgpUpdate::announce(vec![Prefix::v4(184, 84, 242, 0, 24)], attrs));
        let mrt = r.to_mrt(Asn(6447), "192.0.2.254".parse().unwrap());
        let back = BgpRecord::from_mrt(mrt, CollectorId(0)).unwrap();
        assert_eq!(back, r);
    }
}
