//! TABLE_DUMP_V2 record bodies (RFC 6396 §4.3): periodic RIB snapshots.
//!
//! Kepler uses RIB snapshots to seed its stable-path baseline without
//! waiting two days of updates when it starts on archived data.

use super::error::MrtError;
use super::wire::{
    decode_attrs, decode_nlri_prefix, encode_attrs, encode_nlri_prefix, AttrMode, Cursor,
};
use crate::attrs::PathAttributes;
use crate::prefix::Prefix;
use crate::Asn;
use std::net::IpAddr;

/// One collector peer in the PEER_INDEX_TABLE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerEntry {
    /// The peer's BGP identifier.
    pub bgp_id: u32,
    /// The peer's address.
    pub addr: IpAddr,
    /// The peer's ASN.
    pub asn: Asn,
}

/// The PEER_INDEX_TABLE record heading every TABLE_DUMP_V2 snapshot; RIB
/// entries refer to peers by index into this table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerIndexTable {
    /// The collector's BGP identifier.
    pub collector_id: u32,
    /// Optional view name.
    pub view_name: String,
    /// The peer table.
    pub peers: Vec<PeerEntry>,
}

/// One peer's RIB entry for a prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RibEntry {
    /// Index into the preceding [`PeerIndexTable`].
    pub peer_index: u16,
    /// When the route was originated (Unix seconds).
    pub originated_time: u32,
    /// The route's attributes.
    pub attrs: PathAttributes,
}

/// All RIB entries for one prefix (`RIB_IPV4_UNICAST` or
/// `RIB_IPV6_UNICAST`, chosen by the prefix family).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RibPrefixEntries {
    /// Monotonic sequence number within the dump.
    pub sequence: u32,
    /// The prefix these entries describe.
    pub prefix: Prefix,
    /// Per-peer entries.
    pub entries: Vec<RibEntry>,
}

impl PeerIndexTable {
    /// Serializes the record body.
    pub fn encode_body(&self) -> Result<Vec<u8>, MrtError> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.collector_id.to_be_bytes());
        let name = self.view_name.as_bytes();
        if name.len() > u16::MAX as usize {
            return Err(MrtError::BadValue { context: "view name length" });
        }
        out.extend_from_slice(&(name.len() as u16).to_be_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&(self.peers.len() as u16).to_be_bytes());
        for p in &self.peers {
            // peer type: bit 0 = IPv6 address, bit 1 = 4-byte ASN (always).
            let mut t = 0b10u8;
            if p.addr.is_ipv6() {
                t |= 0b01;
            }
            out.push(t);
            out.extend_from_slice(&p.bgp_id.to_be_bytes());
            match p.addr {
                IpAddr::V4(a) => out.extend_from_slice(&a.octets()),
                IpAddr::V6(a) => out.extend_from_slice(&a.octets()),
            }
            out.extend_from_slice(&p.asn.0.to_be_bytes());
        }
        Ok(out)
    }

    /// Parses a record body.
    pub fn decode_body(raw: &[u8]) -> Result<Self, MrtError> {
        let mut cur = Cursor::new(raw);
        let collector_id = cur.u32("collector BGP id")?;
        let nlen = cur.u16("view name length")? as usize;
        let name = cur.take(nlen, "view name")?;
        let view_name = String::from_utf8(name.to_vec())
            .map_err(|_| MrtError::BadValue { context: "view name utf-8" })?;
        let count = cur.u16("peer count")? as usize;
        let mut peers = Vec::with_capacity(count);
        for _ in 0..count {
            let t = cur.u8("peer type")?;
            let bgp_id = cur.u32("peer BGP id")?;
            let addr = cur.ip(t & 0b01 != 0, "peer address")?;
            let asn = if t & 0b10 != 0 {
                Asn(cur.u32("peer ASN")?)
            } else {
                Asn(cur.u16("peer ASN (2-byte)")? as u32)
            };
            peers.push(PeerEntry { bgp_id, addr, asn });
        }
        Ok(PeerIndexTable { collector_id, view_name, peers })
    }
}

impl RibPrefixEntries {
    /// The TABLE_DUMP_V2 subtype this record serializes as.
    pub fn subtype(&self) -> u16 {
        if self.prefix.is_ipv4() {
            super::TDV2_RIB_IPV4_UNICAST
        } else {
            super::TDV2_RIB_IPV6_UNICAST
        }
    }

    /// Serializes the record body.
    pub fn encode_body(&self) -> Result<Vec<u8>, MrtError> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.sequence.to_be_bytes());
        encode_nlri_prefix(&self.prefix, &mut out);
        out.extend_from_slice(&(self.entries.len() as u16).to_be_bytes());
        for e in &self.entries {
            out.extend_from_slice(&e.peer_index.to_be_bytes());
            out.extend_from_slice(&e.originated_time.to_be_bytes());
            let attrs = encode_attrs(&e.attrs, &[], &[], AttrMode::TableDumpV2);
            if attrs.len() > u16::MAX as usize {
                return Err(MrtError::BadValue { context: "RIB entry attribute length" });
            }
            out.extend_from_slice(&(attrs.len() as u16).to_be_bytes());
            out.extend_from_slice(&attrs);
        }
        Ok(out)
    }

    /// Parses a record body; `v6` selects the address family (from the MRT
    /// subtype).
    pub fn decode_body(raw: &[u8], v6: bool) -> Result<Self, MrtError> {
        let mut cur = Cursor::new(raw);
        let sequence = cur.u32("RIB sequence")?;
        let prefix = decode_nlri_prefix(&mut cur, v6)?;
        let count = cur.u16("RIB entry count")? as usize;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let peer_index = cur.u16("RIB peer index")?;
            let originated_time = cur.u32("RIB originated time")?;
            let alen = cur.u16("RIB attribute length")? as usize;
            let araw = cur.take(alen, "RIB attributes")?;
            let decoded = decode_attrs(araw, AttrMode::TableDumpV2)?;
            entries.push(RibEntry { peer_index, originated_time, attrs: decoded.attrs });
        }
        Ok(RibPrefixEntries { sequence, prefix, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aspath::AsPath;
    use crate::community::Community;

    #[test]
    fn peer_index_roundtrip_mixed_families() {
        let t = PeerIndexTable {
            collector_id: 0x0A00_0001,
            view_name: "rrc00".into(),
            peers: vec![
                PeerEntry { bgp_id: 1, addr: "192.0.2.1".parse().unwrap(), asn: Asn(13030) },
                PeerEntry { bgp_id: 2, addr: "2001:7f8::2".parse().unwrap(), asn: Asn(20940) },
            ],
        };
        let body = t.encode_body().unwrap();
        assert_eq!(PeerIndexTable::decode_body(&body).unwrap(), t);
    }

    #[test]
    fn rib_v4_roundtrip() {
        let r = RibPrefixEntries {
            sequence: 42,
            prefix: Prefix::v4(184, 84, 242, 0, 24),
            entries: vec![RibEntry {
                peer_index: 0,
                originated_time: 1_431_500_000,
                attrs: PathAttributes::with_path_and_communities(
                    AsPath::from_sequence([13030, 20940]),
                    vec![Community::new(13030, 51904)],
                ),
            }],
        };
        assert_eq!(r.subtype(), super::super::TDV2_RIB_IPV4_UNICAST);
        let body = r.encode_body().unwrap();
        assert_eq!(RibPrefixEntries::decode_body(&body, false).unwrap(), r);
    }

    #[test]
    fn rib_v6_roundtrip_with_v6_next_hop() {
        let r = RibPrefixEntries {
            sequence: 7,
            prefix: "2a02:2e0::/32".parse().unwrap(),
            entries: vec![RibEntry {
                peer_index: 3,
                originated_time: 100,
                attrs: PathAttributes {
                    as_path: AsPath::from_sequence([6939, 3320]),
                    next_hop: "2001:7f8::3".parse::<std::net::Ipv6Addr>().unwrap().into(),
                    ..Default::default()
                },
            }],
        };
        assert_eq!(r.subtype(), super::super::TDV2_RIB_IPV6_UNICAST);
        let body = r.encode_body().unwrap();
        assert_eq!(RibPrefixEntries::decode_body(&body, true).unwrap(), r);
    }

    #[test]
    fn empty_rib_entries_allowed() {
        let r =
            RibPrefixEntries { sequence: 0, prefix: Prefix::v4(10, 0, 0, 0, 8), entries: vec![] };
        let body = r.encode_body().unwrap();
        assert_eq!(RibPrefixEntries::decode_body(&body, false).unwrap(), r);
    }
}
