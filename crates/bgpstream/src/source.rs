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
/// Unsupported MRT record types and RIB snapshot records are skipped (the
/// broker handles RIB dumps separately); hard decode errors terminate the
/// stream and are reported through [`MrtSource::take_error`].
pub struct MrtSource<R: Read> {
    reader: MrtReader<R>,
    collector: CollectorId,
    buffered: Option<BgpRecord>,
    error: Option<MrtError>,
}

impl<R: Read> MrtSource<R> {
    /// Wraps an MRT byte stream, attributing records to `collector`.
    pub fn new(reader: R, collector: CollectorId) -> Self {
        MrtSource { reader: MrtReader::new(reader), collector, buffered: None, error: None }
    }

    /// Returns (and clears) the terminal decode error, if any.
    pub fn take_error(&mut self) -> Option<MrtError> {
        self.error.take()
    }

    fn fill(&mut self) {
        while self.buffered.is_none() {
            match self.reader.next() {
                None => return,
                Some(Ok(rec)) => {
                    if let Some(r) = BgpRecord::from_mrt(rec, self.collector) {
                        self.buffered = Some(r);
                    }
                }
                Some(Err(MrtError::UnsupportedRecord { .. })) => continue,
                Some(Err(e)) => {
                    self.error = Some(e);
                    return;
                }
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
    use kepler_bgp::mrt::MrtWriter;
    use kepler_bgp::{AsPath, Asn, BgpUpdate, PathAttributes, Prefix};

    fn rec(time: u64) -> BgpRecord {
        BgpRecord {
            time,
            collector: CollectorId(0),
            peer: PeerId { asn: Asn(13030), addr: "192.0.2.1".parse().unwrap() },
            payload: RecordPayload::Update(BgpUpdate::announce(
                vec![Prefix::v4(184, 84, 242, 0, 24)],
                PathAttributes::with_path_and_communities(AsPath::from_sequence([13030]), vec![]),
            )),
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
}
