//! Record sources: where BGP records come from.

use crate::collector::CollectorId;
use crate::record::BgpRecord;
use kepler_bgp::mrt::{MrtError, MrtReader};
use std::collections::VecDeque;
use std::io::Read;

/// A pull-based source of time-ordered [`BgpRecord`]s.
///
/// Implementations must yield records in non-decreasing `time` order; the
/// [`crate::merge::MergedStream`] relies on this to produce a globally
/// sorted feed.
pub trait RecordSource {
    /// Returns the next record, or `None` when the source is exhausted.
    fn next_record(&mut self) -> Option<BgpRecord>;

    /// Peek at the timestamp of the next record without consuming it.
    fn peek_time(&mut self) -> Option<u64>;
}

/// An in-memory source over a pre-sorted vector of records.
#[derive(Debug, Clone)]
pub struct MemorySource {
    records: VecDeque<BgpRecord>,
}

impl MemorySource {
    /// Builds a source, sorting the records by time (stable, so equal-time
    /// records keep their relative order).
    pub fn new(mut records: Vec<BgpRecord>) -> Self {
        records.sort_by_key(|r| r.time);
        MemorySource { records: records.into() }
    }

    /// Remaining record count.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the source is exhausted.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl RecordSource for MemorySource {
    fn next_record(&mut self) -> Option<BgpRecord> {
        self.records.pop_front()
    }

    fn peek_time(&mut self) -> Option<u64> {
        self.records.front().map(|r| r.time)
    }
}

/// A source decoding records from an MRT byte stream on the fly.
///
/// A frame that is not a `BGP4MP` message or state change (a RIB
/// snapshot, say) is skipped by its header and counted in
/// [`MrtSource::unsupported`]. A record whose body does not decode is
/// skipped and counted in [`MrtSource::skipped`]. Either way the stream
/// goes on with the next frame. Only a failure to read the stream (I/O,
/// a torn header or body) ends it, reported through
/// [`MrtSource::take_error`].
pub struct MrtSource<R: Read> {
    reader: MrtReader<R>,
    collector: CollectorId,
    buffered: Option<BgpRecord>,
    error: Option<MrtError>,
    skipped: u64,
    unsupported: u64,
}

impl<R: Read> MrtSource<R> {
    /// Wraps an MRT byte stream, attributing records to `collector`.
    pub fn new(reader: R, collector: CollectorId) -> Self {
        MrtSource {
            reader: MrtReader::new(reader),
            collector,
            buffered: None,
            error: None,
            skipped: 0,
            unsupported: 0,
        }
    }

    /// Returns (and clears) the terminal read error, if any.
    pub fn take_error(&mut self) -> Option<MrtError> {
        self.error.take()
    }

    /// Records skipped so far because their body did not decode.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Frames skipped so far by their header: any type but a `BGP4MP`
    /// message or state change.
    pub fn unsupported(&self) -> u64 {
        self.unsupported
    }

    fn fill(&mut self) {
        while self.buffered.is_none() {
            let record = match self.reader.next_frame() {
                Ok(None) => return,
                Ok(Some(frame)) => frame.record(),
                Err(e) => {
                    self.error = Some(e);
                    return;
                }
            };
            match record {
                Ok(rec) => self.buffered = Some(BgpRecord::from_mrt(rec, self.collector)),
                Err(MrtError::UnsupportedRecord { .. }) => self.unsupported += 1,
                Err(_) => self.skipped += 1,
            }
        }
    }
}

impl<R: Read> RecordSource for MrtSource<R> {
    fn next_record(&mut self) -> Option<BgpRecord> {
        self.fill();
        self.buffered.take()
    }

    fn peek_time(&mut self) -> Option<u64> {
        self.fill();
        self.buffered.as_ref().map(|r| r.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::PeerId;
    use crate::record::RecordPayload;
    use kepler_bgp::mrt::{MrtWriter, WireUpdate};
    use kepler_bgp::{AsPath, Asn, BgpUpdate, PathAttributes, PeerState, Prefix, StateChange};

    fn rec(time: u64) -> BgpRecord {
        BgpRecord {
            time,
            collector: CollectorId(0),
            peer: PeerId { asn: Asn(13030), addr: "192.0.2.1".parse().unwrap() },
            payload: RecordPayload::Update(
                WireUpdate::encode(&BgpUpdate::announce(
                    vec![Prefix::v4(184, 84, 242, 0, 24)],
                    PathAttributes::with_path_and_communities(
                        AsPath::from_sequence([13030]),
                        vec![],
                    ),
                ))
                .unwrap(),
            ),
        }
    }

    #[test]
    fn memory_source_sorts() {
        let mut s = MemorySource::new(vec![rec(5), rec(1), rec(3)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.peek_time(), Some(1));
        let times: Vec<u64> = std::iter::from_fn(|| s.next_record()).map(|r| r.time).collect();
        assert_eq!(times, vec![1, 3, 5]);
        assert!(s.is_empty());
    }

    #[test]
    fn mrt_source_decodes_stream() {
        let mut buf = Vec::new();
        {
            let mut w = MrtWriter::new(&mut buf);
            for t in [10u64, 20, 30] {
                w.write_record(&rec(t).to_mrt(Asn(6447), "192.0.2.254".parse().unwrap())).unwrap();
            }
        }
        let mut s = MrtSource::new(&buf[..], CollectorId(7));
        assert_eq!(s.peek_time(), Some(10));
        let recs: Vec<BgpRecord> = std::iter::from_fn(|| s.next_record()).collect();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[2].time, 30);
        assert_eq!(recs[0].collector, CollectorId(7));
        assert!(s.take_error().is_none());
    }

    #[test]
    fn undecodable_record_is_skipped_and_counted() {
        let mut buf = Vec::new();
        let mut w = MrtWriter::new(&mut buf);
        w.write_record(&rec(10).to_mrt(Asn(6447), "192.0.2.254".parse().unwrap())).unwrap();
        let mut bad = Vec::new();
        MrtWriter::new(&mut bad)
            .write_record(&rec(20).to_mrt(Asn(6447), "192.0.2.254".parse().unwrap()))
            .unwrap();
        // Turn the AS_PATH attribute's (flags 0x40, type 2, length 6)
        // AS_SEQUENCE into an AS_CONFED_SEQUENCE, a typed reject.
        let at = bad.windows(4).position(|w| w == [0x40, 2, 6, 2]).unwrap();
        bad[at + 3] = 3;
        buf.extend_from_slice(&bad);
        let mut w = MrtWriter::new(&mut buf);
        w.write_record(&rec(30).to_mrt(Asn(6447), "192.0.2.254".parse().unwrap())).unwrap();

        let mut s = MrtSource::new(&buf[..], CollectorId(7));
        let times: Vec<u64> = std::iter::from_fn(|| s.next_record()).map(|r| r.time).collect();
        assert_eq!(times, vec![10, 30]);
        assert_eq!(s.skipped(), 1);
        assert!(s.take_error().is_none());
    }

    /// An MRT frame of `mrt_type`/`subtype` around `body`.
    fn frame(mrt_type: u16, subtype: u16, body: &[u8]) -> Vec<u8> {
        let mut out = 15u32.to_be_bytes().to_vec();
        out.extend_from_slice(&mrt_type.to_be_bytes());
        out.extend_from_slice(&subtype.to_be_bytes());
        out.extend_from_slice(&(body.len() as u32).to_be_bytes());
        out.extend_from_slice(body);
        out
    }

    #[test]
    fn frames_of_other_types_are_counted_apart_from_undecodable_ones() {
        let local_ip = "192.0.2.254".parse().unwrap();
        let state = BgpRecord {
            time: 20,
            payload: RecordPayload::State(StateChange {
                old: PeerState::Established,
                new: PeerState::Idle,
            }),
            ..rec(20)
        };
        // A RIB_IPV4_UNICAST body: sequence, 10.0.0.0/8, one entry whose
        // attributes are an ORIGIN.
        let mut rib = vec![0, 0, 0, 1, 8, 10, 0, 1, 0, 0];
        rib.extend_from_slice(&[0, 0, 0, 9, 0, 4, 0x40, 1, 1, 0]);
        let mut buf = Vec::new();
        MrtWriter::new(&mut buf).write_record(&rec(10).to_mrt(Asn(6447), local_ip)).unwrap();
        buf.extend_from_slice(&frame(13, 2, &rib)); // TABLE_DUMP_V2
        buf.extend_from_slice(&frame(11, 0, &[1, 2, 3, 4])); // OSPFv2
        let mut w = MrtWriter::new(&mut buf);
        w.write_record(&state.to_mrt(Asn(6447), local_ip)).unwrap();
        w.write_record(&rec(30).to_mrt(Asn(6447), local_ip)).unwrap();

        let mut s = MrtSource::new(&buf[..], CollectorId(7));
        let times: Vec<u64> = std::iter::from_fn(|| s.next_record()).map(|r| r.time).collect();
        assert_eq!(times, vec![10, 20, 30]);
        assert_eq!((s.unsupported(), s.skipped()), (2, 0));
        assert!(s.take_error().is_none());
    }
}
