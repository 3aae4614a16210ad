//! BGP4MP record bodies (RFC 6396 §4.4): archived BGP messages and
//! collector-peer state changes, both in their AS4 variants.

use super::error::MrtError;
use super::view::{decode_peer_header, WireUpdate};
use super::wire::Cursor;
use crate::message::{PeerState, StateChange};
use crate::Asn;
use std::net::IpAddr;

/// A `BGP4MP_MESSAGE_AS4` record: one BGP UPDATE received by a collector
/// from one of its peers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bgp4mpMessage {
    /// ASN of the collector peer that sent the message.
    pub peer_as: Asn,
    /// ASN of the collector.
    pub local_as: Asn,
    /// Interface index (informational).
    pub interface_index: u16,
    /// Peer address; its family sets the record's AFI.
    pub peer_ip: IpAddr,
    /// Collector-side address (must match the peer's family).
    pub local_ip: IpAddr,
    /// The archived UPDATE, as its validated wire bytes.
    pub update: WireUpdate,
}

/// A `BGP4MP_STATE_CHANGE_AS4` record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bgp4mpStateChange {
    /// ASN of the collector peer.
    pub peer_as: Asn,
    /// ASN of the collector.
    pub local_as: Asn,
    /// Interface index (informational).
    pub interface_index: u16,
    /// Peer address.
    pub peer_ip: IpAddr,
    /// Collector-side address.
    pub local_ip: IpAddr,
    /// The FSM transition.
    pub change: StateChange,
}

fn encode_peer_header(
    out: &mut Vec<u8>,
    peer_as: Asn,
    local_as: Asn,
    ifindex: u16,
    peer_ip: IpAddr,
    local_ip: IpAddr,
) -> Result<(), MrtError> {
    if peer_ip.is_ipv4() != local_ip.is_ipv4() {
        return Err(MrtError::BadValue { context: "BGP4MP peer/local address family mismatch" });
    }
    out.extend_from_slice(&peer_as.0.to_be_bytes());
    out.extend_from_slice(&local_as.0.to_be_bytes());
    out.extend_from_slice(&ifindex.to_be_bytes());
    let afi: u16 = if peer_ip.is_ipv4() { 1 } else { 2 };
    out.extend_from_slice(&afi.to_be_bytes());
    match (peer_ip, local_ip) {
        (IpAddr::V4(p), IpAddr::V4(l)) => {
            out.extend_from_slice(&p.octets());
            out.extend_from_slice(&l.octets());
        }
        (IpAddr::V6(p), IpAddr::V6(l)) => {
            out.extend_from_slice(&p.octets());
            out.extend_from_slice(&l.octets());
        }
        _ => unreachable!("family mismatch checked above"),
    }
    Ok(())
}

impl Bgp4mpMessage {
    /// Appends the record body (everything after the MRT header).
    pub(crate) fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), MrtError> {
        encode_peer_header(
            out,
            self.peer_as,
            self.local_as,
            self.interface_index,
            self.peer_ip,
            self.local_ip,
        )?;
        out.extend_from_slice(self.update.bytes());
        Ok(())
    }

    /// Parses a record body: the peer header, and the UPDATE kept as its
    /// bytes and span table ([`WireUpdate::parse`]).
    pub fn decode_body(raw: &[u8]) -> Result<Self, MrtError> {
        decode_peer_header(raw, |peer_as, local_as, interface_index, peer_ip, local_ip, rest| {
            let update = WireUpdate::parse(rest)?;
            Ok(Bgp4mpMessage { peer_as, local_as, interface_index, peer_ip, local_ip, update })
        })
    }
}

impl Bgp4mpStateChange {
    /// Appends the record body.
    pub(crate) fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), MrtError> {
        encode_peer_header(
            out,
            self.peer_as,
            self.local_as,
            self.interface_index,
            self.peer_ip,
            self.local_ip,
        )?;
        out.extend_from_slice(&self.change.old.code().to_be_bytes());
        out.extend_from_slice(&self.change.new.code().to_be_bytes());
        Ok(())
    }

    /// Parses a record body.
    pub fn decode_body(raw: &[u8]) -> Result<Self, MrtError> {
        decode_peer_header(raw, |peer_as, local_as, interface_index, peer_ip, local_ip, rest| {
            let mut cur = Cursor::new(rest);
            let old = PeerState::from_code(cur.u16("state-change old state")?)
                .ok_or(MrtError::BadValue { context: "old peer state" })?;
            let new = PeerState::from_code(cur.u16("state-change new state")?)
                .ok_or(MrtError::BadValue { context: "new peer state" })?;
            let change = StateChange { old, new };
            Ok(Bgp4mpStateChange { peer_as, local_as, interface_index, peer_ip, local_ip, change })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::PathAttributes;
    use crate::message::BgpUpdate;
    use crate::prefix::Prefix;

    #[test]
    fn family_mismatch_rejected() {
        let msg = Bgp4mpMessage {
            peer_as: Asn(1),
            local_as: Asn(2),
            interface_index: 0,
            peer_ip: "10.0.0.1".parse().unwrap(),
            local_ip: "::1".parse().unwrap(),
            update: WireUpdate::encode(&BgpUpdate::withdraw(vec![Prefix::v4(184, 84, 0, 0, 16)]))
                .unwrap(),
        };
        assert!(msg.encode_body(&mut Vec::new()).is_err());
    }

    #[test]
    fn message_roundtrip_v6_peer() {
        let msg = Bgp4mpMessage {
            peer_as: Asn(20940),
            local_as: Asn(6447),
            interface_index: 9,
            peer_ip: "2001:7f8::14bc:0:1".parse().unwrap(),
            local_ip: "2001:7f8::1".parse().unwrap(),
            update: WireUpdate::encode(&BgpUpdate::announce(
                vec![Prefix::v4(184, 84, 242, 0, 24)],
                PathAttributes::with_path_and_communities(
                    crate::aspath::AsPath::from_sequence([20940]),
                    vec![crate::community::Community::new(20940, 100)],
                ),
            ))
            .unwrap(),
        };
        let mut body = Vec::new();
        msg.encode_body(&mut body).unwrap();
        assert_eq!(Bgp4mpMessage::decode_body(&body).unwrap(), msg);
    }

    #[test]
    fn state_change_roundtrip() {
        let sc = Bgp4mpStateChange {
            peer_as: Asn(13030),
            local_as: Asn(6447),
            interface_index: 0,
            peer_ip: "192.0.2.1".parse().unwrap(),
            local_ip: "192.0.2.2".parse().unwrap(),
            change: StateChange { old: PeerState::Established, new: PeerState::Idle },
        };
        let mut body = Vec::new();
        sc.encode_body(&mut body).unwrap();
        assert_eq!(Bgp4mpStateChange::decode_body(&body).unwrap(), sc);
    }
}
