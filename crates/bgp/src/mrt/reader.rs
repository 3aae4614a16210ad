//! Streaming MRT reader over any `io::Read`.

use super::bgp4mp::{Bgp4mpMessage, Bgp4mpStateChange};
use super::error::MrtError;
use super::tabledump::{PeerIndexTable, RibPrefixEntries};
use super::{MrtBody, MrtRecord};
use std::io::Read;

/// Iterator of [`MrtRecord`]s decoded from a byte stream.
///
/// Unsupported record types yield an [`MrtError::UnsupportedRecord`] item
/// and the reader continues with the next record, mirroring how real MRT
/// tooling skips unknown types in mixed archives.
pub struct MrtReader<R: Read> {
    inner: R,
    /// The current record's body, reused across records. It grows with
    /// the bytes the stream delivers, never with the length a header
    /// merely declares.
    body: Vec<u8>,
    done: bool,
}

impl<R: Read> MrtReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> Self {
        MrtReader { inner, body: Vec::new(), done: false }
    }

    fn read_exact_or_eof(&mut self, buf: &mut [u8]) -> Result<bool, MrtError> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.inner.read(&mut buf[filled..]) {
                Ok(0) => {
                    if filled == 0 {
                        return Ok(false); // clean EOF at a record boundary
                    }
                    return Err(MrtError::UnexpectedEof { context: "MRT header" });
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(MrtError::Io(e)),
            }
        }
        Ok(true)
    }

    fn next_record(&mut self) -> Result<Option<MrtRecord>, MrtError> {
        let mut header = [0u8; 12];
        if !self.read_exact_or_eof(&mut header)? {
            return Ok(None);
        }
        let timestamp = u32::from_be_bytes([header[0], header[1], header[2], header[3]]);
        let mrt_type = u16::from_be_bytes([header[4], header[5]]);
        let subtype = u16::from_be_bytes([header[6], header[7]]);
        let length = u32::from_be_bytes([header[8], header[9], header[10], header[11]]);
        self.body.clear();
        let read = (&mut self.inner).take(u64::from(length)).read_to_end(&mut self.body)?;
        if read < length as usize {
            return Err(MrtError::UnexpectedEof { context: "MRT record body" });
        }
        let body = &self.body[..];
        let body = match (mrt_type, subtype) {
            (super::MRT_TYPE_BGP4MP, super::BGP4MP_MESSAGE_AS4) => {
                MrtBody::Message(Bgp4mpMessage::decode_body(body)?)
            }
            (super::MRT_TYPE_BGP4MP, super::BGP4MP_STATE_CHANGE_AS4) => {
                MrtBody::StateChange(Bgp4mpStateChange::decode_body(body)?)
            }
            (super::MRT_TYPE_TABLE_DUMP_V2, super::TDV2_PEER_INDEX_TABLE) => {
                MrtBody::PeerIndexTable(PeerIndexTable::decode_body(body)?)
            }
            (super::MRT_TYPE_TABLE_DUMP_V2, super::TDV2_RIB_IPV4_UNICAST) => {
                MrtBody::RibEntries(RibPrefixEntries::decode_body(body, false)?)
            }
            (super::MRT_TYPE_TABLE_DUMP_V2, super::TDV2_RIB_IPV6_UNICAST) => {
                MrtBody::RibEntries(RibPrefixEntries::decode_body(body, true)?)
            }
            _ => return Err(MrtError::UnsupportedRecord { mrt_type, subtype }),
        };
        Ok(Some(MrtRecord { timestamp, body }))
    }
}

impl<R: Read> Iterator for MrtReader<R> {
    type Item = Result<MrtRecord, MrtError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.next_record() {
            Ok(Some(rec)) => Some(Ok(rec)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e @ MrtError::UnsupportedRecord { .. }) => Some(Err(e)),
            Err(e) => {
                // Framing is lost on hard decode errors: stop after reporting.
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::writer::MrtWriter;
    use super::*;
    use crate::attrs::PathAttributes;
    use crate::message::BgpUpdate;
    use crate::prefix::Prefix;
    use crate::Asn;

    fn sample_record(ts: u32) -> MrtRecord {
        MrtRecord {
            timestamp: ts,
            body: MrtBody::Message(Bgp4mpMessage {
                peer_as: Asn(13030),
                local_as: Asn(6447),
                interface_index: 0,
                peer_ip: "192.0.2.1".parse().unwrap(),
                local_ip: "192.0.2.2".parse().unwrap(),
                update: BgpUpdate::announce(
                    vec![Prefix::v4(184, 84, 242, 0, 24)],
                    PathAttributes::with_path_and_communities(
                        crate::aspath::AsPath::from_sequence([13030, 20940]),
                        vec![crate::community::Community::new(13030, 51904)],
                    ),
                ),
            }),
        }
    }

    #[test]
    fn stream_of_records_roundtrips() {
        let mut buf = Vec::new();
        {
            let mut w = MrtWriter::new(&mut buf);
            for ts in 0..10 {
                w.write_record(&sample_record(ts)).unwrap();
            }
        }
        let records: Result<Vec<_>, _> = MrtReader::new(&buf[..]).collect();
        let records = records.unwrap();
        assert_eq!(records.len(), 10);
        assert_eq!(records[3], sample_record(3));
    }

    #[test]
    fn empty_input_is_clean_eof() {
        assert_eq!(MrtReader::new(&[][..]).count(), 0);
    }

    #[test]
    fn truncated_record_reports_eof() {
        let mut buf = Vec::new();
        MrtWriter::new(&mut buf).write_record(&sample_record(1)).unwrap();
        buf.truncate(buf.len() - 3);
        let results: Vec<_> = MrtReader::new(&buf[..]).collect();
        assert_eq!(results.len(), 1);
        assert!(results[0].is_err());
    }

    #[test]
    fn hostile_length_allocates_only_what_the_stream_delivers() {
        // A torn header claiming a 4 GiB body over a 3-byte tail.
        let mut buf = Vec::new();
        buf.extend_from_slice(&7u32.to_be_bytes());
        buf.extend_from_slice(&super::super::MRT_TYPE_BGP4MP.to_be_bytes());
        buf.extend_from_slice(&super::super::BGP4MP_MESSAGE_AS4.to_be_bytes());
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.extend_from_slice(&[1, 2, 3]);
        let mut reader = MrtReader::new(&buf[..]);
        assert!(matches!(reader.next(), Some(Err(MrtError::UnexpectedEof { .. }))));
        assert!(reader.body.capacity() < 64 * 1024, "capacity {}", reader.body.capacity());
        assert!(reader.next().is_none(), "framing is lost: the stream ends");
    }

    #[test]
    fn unsupported_record_is_skipped_and_stream_continues() {
        let mut buf = Vec::new();
        // Hand-craft an unsupported record: type 11 (OSPFv2), 4-byte body.
        buf.extend_from_slice(&7u32.to_be_bytes());
        buf.extend_from_slice(&11u16.to_be_bytes());
        buf.extend_from_slice(&0u16.to_be_bytes());
        buf.extend_from_slice(&4u32.to_be_bytes());
        buf.extend_from_slice(&[1, 2, 3, 4]);
        MrtWriter::new(&mut buf).write_record(&sample_record(8)).unwrap();
        let results: Vec<_> = MrtReader::new(&buf[..]).collect();
        assert_eq!(results.len(), 2);
        assert!(matches!(results[0], Err(MrtError::UnsupportedRecord { mrt_type: 11, .. })));
        assert_eq!(*results[1].as_ref().unwrap(), sample_record(8));
    }
}
