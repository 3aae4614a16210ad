//! Property-based tests for the stream substrate.

use kepler_bgp::{Asn, BgpUpdate, Prefix};
use kepler_bgpstream::{
    BgpRecord, CollectorId, MemorySource, MergedStream, PeerId, RecordPayload, RecordSource,
};
use proptest::prelude::*;

fn rec(time: u64, collector: u16) -> BgpRecord {
    BgpRecord {
        time,
        collector: CollectorId(collector),
        peer: PeerId { asn: Asn(1), addr: "10.0.0.1".parse().unwrap() },
        payload: RecordPayload::Update(BgpUpdate::withdraw(vec![Prefix::v4(20, 0, 0, 0, 16)])),
    }
}

proptest! {
    /// The k-way merge always yields a time-sorted stream containing every
    /// input record exactly once, for arbitrary per-source timestamps.
    #[test]
    fn merge_is_sorted_and_complete(
        feeds in prop::collection::vec(prop::collection::vec(0u64..10_000, 0..50), 0..8)
    ) {
        let total: usize = feeds.iter().map(Vec::len).sum();
        let sources: Vec<Box<dyn RecordSource>> = feeds
            .iter()
            .enumerate()
            .map(|(i, times)| {
                let records: Vec<BgpRecord> =
                    times.iter().map(|&t| rec(t, i as u16)).collect();
                Box::new(MemorySource::new(records)) as Box<dyn RecordSource>
            })
            .collect();
        let merged: Vec<BgpRecord> = MergedStream::new(sources).collect();
        prop_assert_eq!(merged.len(), total);
        for w in merged.windows(2) {
            prop_assert!(w[0].time <= w[1].time);
        }
    }

    /// Exploding a record yields one element per prefix, preserving time
    /// and peer identity.
    #[test]
    fn explode_counts(n_w in 0usize..6, n_a in 0usize..6) {
        let withdrawn: Vec<Prefix> = (0..n_w).map(|i| Prefix::v4(20, i as u8, 0, 0, 16)).collect();
        let announced: Vec<Prefix> = (0..n_a).map(|i| Prefix::v4(30, i as u8, 0, 0, 16)).collect();
        let update = if n_a > 0 {
            BgpUpdate {
                withdrawn,
                attrs: Some(kepler_bgp::PathAttributes::default()),
                announced,
            }
        } else {
            BgpUpdate { withdrawn, attrs: None, announced: vec![] }
        };
        let r = BgpRecord {
            time: 42,
            collector: CollectorId(0),
            peer: PeerId { asn: Asn(5), addr: "10.0.0.5".parse().unwrap() },
            payload: RecordPayload::Update(update),
        };
        let elems = r.explode();
        prop_assert_eq!(elems.len(), n_w + if n_a > 0 { n_a } else { 0 });
        for e in &elems {
            prop_assert_eq!(e.time, 42);
            prop_assert_eq!(e.peer.asn, Asn(5));
        }
    }
}
