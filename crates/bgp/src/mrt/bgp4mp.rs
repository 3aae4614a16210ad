//! BGP4MP record bodies (RFC 6396 §4.4): archived BGP messages and
//! collector-peer state changes, both in their AS4 variants.

use super::error::MrtError;
use super::wire::{decode_bgp_update, encode_bgp_update, Cursor};
use crate::message::{BgpUpdate, PeerState, StateChange};
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
    /// The archived UPDATE.
    pub update: BgpUpdate,
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

struct PeerHeader {
    peer_as: Asn,
    local_as: Asn,
    interface_index: u16,
    peer_ip: IpAddr,
    local_ip: IpAddr,
}

fn decode_peer_header(cur: &mut Cursor<'_>) -> Result<PeerHeader, MrtError> {
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
    Ok(PeerHeader { peer_as, local_as, interface_index, peer_ip, local_ip })
}

impl Bgp4mpMessage {
    /// Serializes the record body (everything after the MRT header).
    pub fn encode_body(&self) -> Result<Vec<u8>, MrtError> {
        let mut out = Vec::new();
        encode_peer_header(
            &mut out,
            self.peer_as,
            self.local_as,
            self.interface_index,
            self.peer_ip,
            self.local_ip,
        )?;
        out.extend_from_slice(&encode_bgp_update(&self.update));
        Ok(out)
    }

    /// Parses a record body.
    pub fn decode_body(raw: &[u8]) -> Result<Self, MrtError> {
        let mut cur = Cursor::new(raw);
        let h = decode_peer_header(&mut cur)?;
        let update = decode_bgp_update(&mut cur)?;
        Ok(Bgp4mpMessage {
            peer_as: h.peer_as,
            local_as: h.local_as,
            interface_index: h.interface_index,
            peer_ip: h.peer_ip,
            local_ip: h.local_ip,
            update,
        })
    }
}

impl Bgp4mpStateChange {
    /// Serializes the record body.
    pub fn encode_body(&self) -> Result<Vec<u8>, MrtError> {
        let mut out = Vec::new();
        encode_peer_header(
            &mut out,
            self.peer_as,
            self.local_as,
            self.interface_index,
            self.peer_ip,
            self.local_ip,
        )?;
        out.extend_from_slice(&self.change.old.code().to_be_bytes());
        out.extend_from_slice(&self.change.new.code().to_be_bytes());
        Ok(out)
    }

    /// Parses a record body.
    pub fn decode_body(raw: &[u8]) -> Result<Self, MrtError> {
        let mut cur = Cursor::new(raw);
        let h = decode_peer_header(&mut cur)?;
        let old = PeerState::from_code(cur.u16("state-change old state")?)
            .ok_or(MrtError::BadValue { context: "old peer state" })?;
        let new = PeerState::from_code(cur.u16("state-change new state")?)
            .ok_or(MrtError::BadValue { context: "new peer state" })?;
        Ok(Bgp4mpStateChange {
            peer_as: h.peer_as,
            local_as: h.local_as,
            interface_index: h.interface_index,
            peer_ip: h.peer_ip,
            local_ip: h.local_ip,
            change: StateChange { old, new },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::PathAttributes;
    use crate::prefix::Prefix;

    #[test]
    fn family_mismatch_rejected() {
        let msg = Bgp4mpMessage {
            peer_as: Asn(1),
            local_as: Asn(2),
            interface_index: 0,
            peer_ip: "10.0.0.1".parse().unwrap(),
            local_ip: "::1".parse().unwrap(),
            update: BgpUpdate::withdraw(vec![Prefix::v4(184, 84, 0, 0, 16)]),
        };
        assert!(msg.encode_body().is_err());
    }

    #[test]
    fn message_roundtrip_v6_peer() {
        let msg = Bgp4mpMessage {
            peer_as: Asn(20940),
            local_as: Asn(6447),
            interface_index: 9,
            peer_ip: "2001:7f8::14bc:0:1".parse().unwrap(),
            local_ip: "2001:7f8::1".parse().unwrap(),
            update: BgpUpdate::announce(
                vec![Prefix::v4(184, 84, 242, 0, 24)],
                PathAttributes::with_path_and_communities(
                    crate::aspath::AsPath::from_sequence([20940]),
                    vec![crate::community::Community::new(20940, 100)],
                ),
            ),
        };
        let body = msg.encode_body().unwrap();
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
        let body = sc.encode_body().unwrap();
        assert_eq!(Bgp4mpStateChange::decode_body(&body).unwrap(), sc);
    }
}
