//! Deterministic k-way merge of per-collector record streams.

use crate::record::BgpRecord;
use crate::source::RecordSource;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Merges many time-sorted sources into one globally time-sorted stream.
///
/// Ties are broken by source registration index, making the merged order
/// fully deterministic — important for reproducible experiments.
pub struct MergedStream {
    sources: Vec<Box<dyn RecordSource>>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl MergedStream {
    /// Builds a merged stream over `sources`.
    pub fn new(sources: Vec<Box<dyn RecordSource>>) -> Self {
        let mut s = MergedStream { sources, heap: BinaryHeap::new() };
        for idx in 0..s.sources.len() {
            if let Some(t) = s.sources[idx].peek_time() {
                s.heap.push(Reverse((t, idx)));
            }
        }
        s
    }

    /// Number of underlying sources.
    pub fn width(&self) -> usize {
        self.sources.len()
    }
}

impl Iterator for MergedStream {
    type Item = BgpRecord;

    fn next(&mut self) -> Option<Self::Item> {
        let Reverse((_, idx)) = self.heap.pop()?;
        let rec = self.sources[idx].next_record()?;
        if let Some(t) = self.sources[idx].peek_time() {
            self.heap.push(Reverse((t, idx)));
        }
        Some(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{CollectorId, PeerId};
    use crate::record::RecordPayload;
    use crate::source::MemorySource;
    use kepler_bgp::mrt::WireUpdate;
    use kepler_bgp::{Asn, BgpUpdate, Prefix};

    fn rec(time: u64, collector: u16) -> BgpRecord {
        BgpRecord {
            time,
            collector: CollectorId(collector),
            peer: PeerId { asn: Asn(1), addr: "192.0.2.1".parse().unwrap() },
            payload: RecordPayload::Update(
                WireUpdate::encode(&BgpUpdate::withdraw(vec![Prefix::v4(184, 84, 0, 0, 16)]))
                    .unwrap(),
            ),
        }
    }

    #[test]
    fn merges_in_time_order() {
        let a = MemorySource::new(vec![rec(1, 0), rec(4, 0), rec(9, 0)]);
        let b = MemorySource::new(vec![rec(2, 1), rec(3, 1), rec(10, 1)]);
        let c = MemorySource::new(vec![rec(5, 2)]);
        let merged = MergedStream::new(vec![Box::new(a), Box::new(b), Box::new(c)]);
        assert_eq!(merged.width(), 3);
        let times: Vec<u64> = merged.map(|r| r.time).collect();
        assert_eq!(times, vec![1, 2, 3, 4, 5, 9, 10]);
    }

    #[test]
    fn equal_times_break_by_source_index() {
        let a = MemorySource::new(vec![rec(7, 0)]);
        let b = MemorySource::new(vec![rec(7, 1)]);
        let collectors: Vec<u16> =
            MergedStream::new(vec![Box::new(a), Box::new(b)]).map(|r| r.collector.0).collect();
        assert_eq!(collectors, vec![0, 1]);
    }

    #[test]
    fn empty_sources_are_fine() {
        let a = MemorySource::new(vec![]);
        let b = MemorySource::new(vec![rec(1, 1)]);
        let merged = MergedStream::new(vec![Box::new(a), Box::new(b)]);
        assert_eq!(merged.count(), 1);
        assert_eq!(MergedStream::new(vec![]).count(), 0);
    }
}
