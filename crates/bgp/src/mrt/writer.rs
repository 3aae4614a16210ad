//! Streaming MRT writer over any `io::Write`.

use super::error::MrtError;
use super::MRT_TYPE_BGP4MP as BGP4MP;
use super::{MrtBody, MrtRecord, BGP4MP_MESSAGE_AS4, BGP4MP_STATE_CHANGE_AS4};
use std::io::Write;

/// Serializes [`MrtRecord`]s to a byte stream, one RFC 6396 record at a
/// time. Flushing is left to the caller / the underlying writer.
pub struct MrtWriter<W: Write> {
    inner: W,
    /// The record under way, header and body, reused across records.
    buf: Vec<u8>,
}

impl<W: Write> MrtWriter<W> {
    /// Wraps a byte sink.
    pub fn new(inner: W) -> Self {
        MrtWriter { inner, buf: Vec::new() }
    }

    /// Serializes one record (header + body) with one write. A record that
    /// does not encode writes nothing.
    pub fn write_record(&mut self, record: &MrtRecord) -> Result<(), MrtError> {
        let out = &mut self.buf;
        out.clear();
        out.reserve(256); // a typical record in one allocation, even on a fresh writer
        out.extend_from_slice(&record.timestamp.to_be_bytes());
        out.extend_from_slice(&[0; 8]); // type, subtype and length, patched below
        let (mrt_type, subtype, encoded) = match &record.body {
            MrtBody::Message(m) => (BGP4MP, BGP4MP_MESSAGE_AS4, m.encode_body(out)),
            MrtBody::StateChange(s) => (BGP4MP, BGP4MP_STATE_CHANGE_AS4, s.encode_body(out)),
        };
        encoded?;
        let len = u32::try_from(out.len() - 12)
            .map_err(|_| MrtError::BadValue { context: "MRT record length" })?;
        out[4..6].copy_from_slice(&mrt_type.to_be_bytes());
        out[6..8].copy_from_slice(&subtype.to_be_bytes());
        out[8..12].copy_from_slice(&len.to_be_bytes());
        self.inner.write_all(out)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aspath::AsPath;
    use crate::attrs::PathAttributes;
    use crate::community::Community;
    use crate::message::BgpUpdate;
    use crate::mrt::{Bgp4mpMessage, MrtReader, WireUpdate};
    use crate::prefix::Prefix;
    use crate::Asn;

    fn message(update: WireUpdate) -> MrtRecord {
        MrtRecord {
            timestamp: 1_431_500_000,
            body: MrtBody::Message(Bgp4mpMessage {
                peer_as: Asn(20940),
                local_as: Asn(6447),
                interface_index: 0,
                peer_ip: "192.0.2.1".parse().unwrap(),
                local_ip: "192.0.2.254".parse().unwrap(),
                update,
            }),
        }
    }

    /// `n` distinct /24s behind a one-hop path: a 43 + 4n-byte UPDATE.
    fn announcement(n: u32) -> BgpUpdate {
        let nlri = (0..n).map(|i| Prefix::v4(10, (i >> 8) as u8, i as u8, 0, 24)).collect();
        let attrs = PathAttributes::with_path_and_communities(AsPath::from_sequence([1]), vec![]);
        BgpUpdate::announce(nlri, attrs)
    }

    /// The UPDATE's length fields are 16 bits wide: a message of 65,535
    /// bytes encodes and round-trips through the writer and the reader,
    /// one prefix more is refused where it is encoded, as is an attribute
    /// longer than 65,535 bytes; and a record the writer refuses writes
    /// nothing.
    #[test]
    fn updates_past_the_u16_lengths_are_refused_whole() {
        let update = announcement(16_373);
        let fits = message(WireUpdate::encode(&update).unwrap());
        let mut buf = Vec::new();
        MrtWriter::new(&mut buf).write_record(&fits).unwrap();
        assert_eq!(buf.len(), 12 + 20 + 65_535, "MRT header, peer header, UPDATE");
        let back: Vec<_> = MrtReader::new(&buf[..]).map(Result::unwrap).collect();
        assert_eq!(back, vec![fits]);
        let MrtBody::Message(m) = &back[0].body else { panic!("a message") };
        assert_eq!(m.update.materialize(), update);

        let communities = (0..20_000).map(|i| Community::new(64_500, i as u16)).collect();
        let attrs =
            PathAttributes::with_path_and_communities(AsPath::from_sequence([1]), communities);
        let tagged = BgpUpdate::announce(vec![Prefix::v4(10, 0, 0, 0, 24)], attrs);
        for update in [announcement(16_374), announcement(20_000), tagged] {
            let err = WireUpdate::encode(&update).unwrap_err();
            assert!(matches!(err, MrtError::BadValue { .. }), "{err}");
        }

        let mut mismatched = message(WireUpdate::encode(&announcement(1)).unwrap());
        let MrtBody::Message(m) = &mut mismatched.body else { unreachable!() };
        m.local_ip = "2001:db8::1".parse().unwrap();
        let mut buf = Vec::new();
        let err = MrtWriter::new(&mut buf).write_record(&mismatched).unwrap_err();
        assert!(matches!(err, MrtError::BadValue { .. }), "{err}");
        assert!(buf.is_empty(), "{} bytes written", buf.len());
    }
}
