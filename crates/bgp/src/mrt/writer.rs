//! Streaming MRT writer over any `io::Write`.

use super::error::MrtError;
use super::{MrtBody, MrtRecord};
use std::io::Write;

/// Serializes [`MrtRecord`]s to a byte stream, one RFC 6396 record at a
/// time. Flushing is left to the caller / the underlying writer.
pub struct MrtWriter<W: Write> {
    inner: W,
}

impl<W: Write> MrtWriter<W> {
    /// Wraps a byte sink.
    pub fn new(inner: W) -> Self {
        MrtWriter { inner }
    }

    /// Serializes one record (header + body).
    pub fn write_record(&mut self, record: &MrtRecord) -> Result<(), MrtError> {
        let (mrt_type, subtype, body) = match &record.body {
            MrtBody::Message(m) => {
                (super::MRT_TYPE_BGP4MP, super::BGP4MP_MESSAGE_AS4, m.encode_body()?)
            }
            MrtBody::StateChange(s) => {
                (super::MRT_TYPE_BGP4MP, super::BGP4MP_STATE_CHANGE_AS4, s.encode_body()?)
            }
            MrtBody::PeerIndexTable(t) => {
                (super::MRT_TYPE_TABLE_DUMP_V2, super::TDV2_PEER_INDEX_TABLE, t.encode_body()?)
            }
            MrtBody::RibEntries(r) => {
                (super::MRT_TYPE_TABLE_DUMP_V2, r.subtype(), r.encode_body()?)
            }
        };
        let mut header = [0u8; 12];
        header[0..4].copy_from_slice(&record.timestamp.to_be_bytes());
        header[4..6].copy_from_slice(&mrt_type.to_be_bytes());
        header[6..8].copy_from_slice(&subtype.to_be_bytes());
        header[8..12].copy_from_slice(&(body.len() as u32).to_be_bytes());
        self.inner.write_all(&header)?;
        self.inner.write_all(&body)?;
        Ok(())
    }
}
