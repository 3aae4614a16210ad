//! The record data model: a [`BgpRecord`] is one archived MRT record,
//! its UPDATE kept as wire bytes. Kepler's input module decodes a record
//! straight into per-prefix events, without an owned element per prefix.

use crate::collector::{CollectorId, PeerId};
use kepler_bgp::mrt::{Bgp4mpMessage, MrtBody, MrtRecord, WireUpdate};
use kepler_bgp::StateChange;

/// Seconds since the Unix epoch (virtual time in simulations).
pub type Timestamp = u64;

/// Payload of a [`BgpRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordPayload {
    /// A BGP UPDATE received from the peer, as its validated wire bytes
    /// (built from an owned update with [`WireUpdate::encode`]).
    Update(WireUpdate),
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

impl BgpRecord {
    /// Converts a decoded MRT record (a message or a state change) into a
    /// [`BgpRecord`]. The record is consumed: its update moves into the
    /// result uncopied.
    pub fn from_mrt(rec: MrtRecord, collector: CollectorId) -> BgpRecord {
        let (peer, payload) = match rec.body {
            MrtBody::Message(m) => {
                (PeerId { asn: m.peer_as, addr: m.peer_ip }, RecordPayload::Update(m.update))
            }
            MrtBody::StateChange(s) => {
                (PeerId { asn: s.peer_as, addr: s.peer_ip }, RecordPayload::State(s.change))
            }
        };
        BgpRecord { time: rec.timestamp as Timestamp, collector, peer, payload }
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
    use kepler_bgp::{AsPath, Asn, BgpUpdate, PathAttributes, Prefix};

    fn rec(update: BgpUpdate) -> BgpRecord {
        BgpRecord {
            time: 100,
            collector: CollectorId(0),
            peer: PeerId { asn: Asn(13030), addr: "192.0.2.1".parse().unwrap() },
            payload: RecordPayload::Update(WireUpdate::encode(&update).unwrap()),
        }
    }

    #[test]
    fn mrt_conversion_roundtrip() {
        let attrs =
            PathAttributes::with_path_and_communities(AsPath::from_sequence([13030]), vec![]);
        let r = rec(BgpUpdate::announce(vec![Prefix::v4(184, 84, 242, 0, 24)], attrs));
        let mrt = r.to_mrt(Asn(6447), "192.0.2.254".parse().unwrap());
        let back = BgpRecord::from_mrt(mrt, CollectorId(0));
        assert_eq!(back, r);
    }
}
