//! Differential property tests for the two decode roads: the per-element
//! reference (explode → [`InputModule::process`], interned) and the
//! record road the product runs — MRT archives, one per collector, read
//! through [`MrtSource`] and [`MergedStream`], each record keeping its
//! UPDATE as wire bytes and spans, decoded by
//! [`InputModule::process_record_events`]. They must be bit-identical:
//! same dense event stream, same interner tables (ids, keys, tags), same
//! input and sanitizer statistics, and same resolved
//! [`BinOutcome`](kepler_core::monitor::BinOutcome)s once the events
//! feed a [`Monitor`]. The reference explodes the very records the
//! record road reads, so every scripted update is first checked to read
//! back as it was written ([`update`]): a parser fault cannot hide in
//! both roads at once.

use kepler_bgp::mrt::{MrtWriter, WireUpdate};
use kepler_bgp::sanitize::SanitizeStats;
use kepler_bgp::{
    AsPath, Asn, BgpUpdate, Community, PathAttributes, PeerState, Prefix, StateChange,
};
use kepler_bgpstream::{
    BgpRecord, CollectorId, GapTracker, MergedStream, MrtSource, PeerId, RecordPayload,
    RecordSource, Timestamp,
};
use kepler_core::config::KeplerConfig;
use kepler_core::input::{InputModule, InputStats};
use kepler_core::intern::{DenseRouteEvent, Interner};
use kepler_core::monitor::{BinOutcome, Monitor};
use kepler_docmine::{CommunityDictionary, LocationTag};
use kepler_topology::{ColocationMap, FacilityId};
use proptest::prelude::*;
use std::io::Cursor;
use std::net::{IpAddr, Ipv6Addr};

const QUARANTINE: u64 = 600;

/// Collectors the scripts spread their records over.
const COLLECTORS: usize = 4;

/// Dictionary: community (100+n):500 tags Facility(n % 5) for n in 0..8.
fn dictionary() -> CommunityDictionary {
    let mut d = CommunityDictionary::new();
    for n in 0..8u16 {
        d.insert(Community::new(100 + n, 500), LocationTag::Facility(FacilityId(n as u32 % 5)));
    }
    d
}

fn input_module() -> InputModule {
    InputModule::new(dictionary(), ColocationMap::new())
}

fn peer(p: u8) -> PeerId {
    PeerId {
        asn: Asn(3356 + (p % 3) as u32),
        addr: if p.is_multiple_of(2) {
            "10.0.0.1".parse().unwrap()
        } else {
            "10.0.0.2".parse().unwrap()
        },
    }
}

/// Prefix `x` of a script: IPv6 from 224 up, so updates mix both
/// families (through MP_REACH and MP_UNREACH), IPv4 below, and 255 a
/// bogon (0.0.0.0/8 space).
fn prefix(x: u8) -> Prefix {
    match x {
        255 => Prefix::v4(0, 0, 0, 0, 16),
        224.. => {
            let addr = Ipv6Addr::new(0x2a00, u16::from(x % 24), 0, 0, 0, 0, 0, 0);
            Prefix::new(IpAddr::V6(addr), 32).unwrap()
        }
        _ => Prefix::v4(20, x % 24, 0, 0, 16),
    }
}

/// The prefixes `xs` name, IPv4 before IPv6 as the wire carries them.
fn family_order(xs: &[u8]) -> Vec<Prefix> {
    let mut prefixes: Vec<Prefix> = xs.iter().map(|&x| prefix(x)).collect();
    prefixes.sort_by_key(Prefix::is_ipv6);
    prefixes
}

/// A scripted UPDATE as a record carries it, checked to materialize to
/// exactly what the script wrote.
fn update(update: BgpUpdate) -> RecordPayload {
    let wire = WireUpdate::encode(&update).unwrap();
    assert_eq!(wire.materialize(), update, "the scripted update reads back as written");
    RecordPayload::Update(wire)
}

/// One scripted record, covering multi-prefix updates of both families,
/// withdraw-only updates, unlocated paths, sanitizer rejects (loops,
/// bogons) and session state changes across several collector sessions.
#[derive(Debug, Clone)]
enum Op {
    Announce {
        collector: u8,
        peer: u8,
        prefixes: Vec<u8>,
        near: u8,
        far: u8,
        tagged: bool,
        looped: bool,
        private: bool,
    },
    Withdraw {
        collector: u8,
        peer: u8,
        prefixes: Vec<u8>,
    },
    State {
        collector: u8,
        peer: u8,
        up: bool,
    },
    Advance {
        dt: u32,
    },
}

fn arb_announce() -> impl Strategy<Value = Op> {
    (
        any::<u8>(),
        any::<u8>(),
        prop::collection::vec(any::<u8>(), 1..4),
        any::<u8>(),
        any::<u8>(),
        any::<bool>(),
        any::<u8>(),
    )
        .prop_map(|(collector, peer, prefixes, near, far, tagged, loop_roll)| Op::Announce {
            collector: collector % COLLECTORS as u8,
            peer: peer % 4,
            prefixes,
            near: near % 8,
            far: far % 6,
            tagged,
            looped: loop_roll < 26, // ~10% of announcements carry a loop
            private: (26..52).contains(&loop_roll), // ~10% a private-use ASN
        })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_announce(),
        arb_announce(),
        arb_announce(),
        (any::<u8>(), any::<u8>(), prop::collection::vec(any::<u8>(), 1..4)).prop_map(
            |(collector, peer, prefixes)| Op::Withdraw {
                collector: collector % COLLECTORS as u8,
                peer: peer % 4,
                prefixes,
            }
        ),
        (any::<u8>(), any::<u8>(), any::<bool>()).prop_map(|(collector, peer, up)| Op::State {
            collector: collector % COLLECTORS as u8,
            peer: peer % 4,
            up
        }),
        prop_oneof![1u32..300, 50_000u32..300_000].prop_map(|dt| Op::Advance { dt }),
    ]
}

fn records(ops: &[Op]) -> Vec<BgpRecord> {
    let mut t: Timestamp = 1_000_000;
    let mut out = Vec::new();
    for op in ops {
        match op {
            Op::Advance { dt } => t += *dt as u64,
            Op::Announce { collector, peer: p, prefixes, near, far, tagged, looped, private } => {
                let near_asn = 100 + *near as u32;
                let far_asn = 200 + *far as u32;
                let path = if *looped {
                    // Non-adjacent revisit: rejected by the sanitizer.
                    AsPath::from_sequence([3356, near_asn, far_asn, near_asn])
                } else if *private {
                    // A private-use ASN behind the far end: rejected too.
                    AsPath::from_sequence([3356, near_asn, far_asn, 64_512])
                } else {
                    AsPath::from_sequence([3356, near_asn, far_asn])
                };
                let communities = if *tagged {
                    vec![Community::new(100 + *near as u16, 500)]
                } else {
                    vec![Community::new(64_000, 1)]
                };
                let attrs = PathAttributes::with_path_and_communities(path, communities);
                let announced = family_order(prefixes);
                out.push(BgpRecord {
                    time: t,
                    collector: CollectorId(*collector as u16),
                    peer: peer(*p),
                    payload: update(BgpUpdate::announce(announced, attrs)),
                });
            }
            Op::Withdraw { collector, peer: p, prefixes } => {
                let withdrawn = family_order(prefixes);
                out.push(BgpRecord {
                    time: t,
                    collector: CollectorId(*collector as u16),
                    peer: peer(*p),
                    payload: update(BgpUpdate::withdraw(withdrawn)),
                });
            }
            Op::State { collector, peer: p, up } => {
                let change = if *up {
                    StateChange { old: PeerState::OpenConfirm, new: PeerState::Established }
                } else {
                    StateChange { old: PeerState::Established, new: PeerState::Idle }
                };
                out.push(BgpRecord {
                    time: t,
                    collector: CollectorId(*collector as u16),
                    peer: peer(*p),
                    payload: RecordPayload::State(change),
                });
            }
        }
    }
    out
}

/// Encodes the record stream as one MRT archive per collector, state
/// changes included.
fn mrt_archives(records: &[BgpRecord]) -> Vec<Vec<u8>> {
    let local_ip = "192.0.2.254".parse().unwrap();
    let mut archives = vec![Vec::new(); COLLECTORS];
    for rec in records {
        let mrt = rec.to_mrt(Asn(64_700), local_ip);
        let archive = &mut archives[usize::from(rec.collector.0)];
        MrtWriter::new(archive).write_record(&mrt).expect("encode record");
    }
    archives
}

/// The records in the order the merged stream delivers them: by time,
/// ties broken by collector, each collector's records in their order.
fn merged_order(records: &[BgpRecord]) -> Vec<BgpRecord> {
    let mut merged = records.to_vec();
    merged.sort_by_key(|r| (r.time, r.collector));
    merged
}

/// Full observable state of one decode run: the dense event stream (with
/// timestamps), the final interner tables, input and sanitizer
/// statistics, and the resolved monitor outcomes plus baseline size.
struct DecodeRun {
    events: Vec<(Timestamp, DenseRouteEvent)>,
    route_keys: Vec<kepler_core::events::RouteKey>,
    pop_tags: Vec<LocationTag>,
    asns: Vec<Asn>,
    stats: InputStats,
    sanitize: SanitizeStats,
    outcomes: Vec<BinOutcome>,
    baseline: usize,
}

fn finish_run(
    interner: Interner,
    input: &InputModule,
    events: Vec<(Timestamp, DenseRouteEvent)>,
    last: Timestamp,
) -> DecodeRun {
    let mut monitor = Monitor::new(KeplerConfig { min_stable_paths: 1, ..Default::default() });
    let mut outcomes = Vec::new();
    for (t, ev) in &events {
        outcomes.extend(monitor.observe(*t, ev).iter().map(|o| o.resolve(&interner)));
    }
    outcomes.extend(monitor.advance_to(last + 300_000).iter().map(|o| o.resolve(&interner)));
    let baseline = monitor.baseline_size();
    DecodeRun {
        events,
        route_keys: interner.route_keys_since(0).collect(),
        pop_tags: interner.pop_tags_since(0).to_vec(),
        asns: interner.asns_since(0).to_vec(),
        stats: input.stats().clone(),
        sanitize: input.sanitize_stats().clone(),
        outcomes,
        baseline,
    }
}

/// The reference road over the records in merged order: gap tracking
/// → explode → per-element [`InputModule::process`] →
/// [`Interner::intern_event`].
fn run_reference(records: &[BgpRecord]) -> DecodeRun {
    let mut input = input_module();
    let mut gap = GapTracker::new(QUARANTINE);
    let mut interner = Interner::new();
    let mut events = Vec::new();
    let mut last = 0u64;
    for rec in &merged_order(records) {
        last = last.max(rec.time);
        gap.observe(rec);
        if !gap.is_usable(rec.collector, rec.peer, rec.time) {
            continue;
        }
        for elem in rec.explode() {
            if let Some(ev) = input.process(&elem).map(|e| interner.intern_event(&e)) {
                events.push((elem.time, ev));
            }
        }
    }
    finish_run(interner, &input, events, last)
}

/// The record road: the stream written to one MRT archive per
/// collector, read back through [`MrtSource`] and [`MergedStream`] as
/// `Kepler`'s ingest reads it, then gap tracking and
/// [`InputModule::process_record_events`] — one sanitize and community
/// map per update, shared `Arc` crossing sets.
fn run_record_road(records: &[BgpRecord]) -> DecodeRun {
    let sources = mrt_archives(records)
        .into_iter()
        .enumerate()
        .map(|(i, archive)| {
            let collector = CollectorId(i as u16);
            Box::new(MrtSource::new(Cursor::new(archive), collector)) as Box<dyn RecordSource>
        })
        .collect();
    let mut input = input_module();
    let mut gap = GapTracker::new(QUARANTINE);
    let mut interner = Interner::new();
    let mut events = Vec::new();
    let (mut last, mut read) = (0u64, 0usize);
    for rec in MergedStream::new(sources) {
        read += 1;
        last = last.max(rec.time);
        gap.observe(&rec);
        if !gap.is_usable(rec.collector, rec.peer, rec.time) {
            continue;
        }
        input.process_record_events(&rec, &mut interner, |ev| events.push((rec.time, ev)));
    }
    assert_eq!(read, records.len(), "every record reads back from its archive");
    finish_run(interner, &input, events, last)
}

fn assert_runs_identical(a: &DecodeRun, b: &DecodeRun, what: &str) {
    assert_eq!(a.events, b.events, "{what}: dense event stream diverged");
    assert_eq!(a.route_keys, b.route_keys, "{what}: route intern table diverged");
    assert_eq!(a.pop_tags, b.pop_tags, "{what}: pop intern table diverged");
    assert_eq!(a.asns, b.asns, "{what}: asn intern table diverged");
    assert_eq!(a.stats, b.stats, "{what}: input stats diverged");
    assert_eq!(a.sanitize, b.sanitize, "{what}: sanitizer stats diverged");
    assert_eq!(a.outcomes, b.outcomes, "{what}: resolved outcomes diverged");
    assert_eq!(a.baseline, b.baseline, "{what}: baseline size diverged");
}

// 24 cases by default; `PROPTEST_CASES` overrides it (CI runs 2000).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|n| n.parse().ok()).unwrap_or(24)
    ))]

    /// The per-element reference and the record road over MRT archives
    /// produce bit-identical dense events, interner tables, statistics
    /// and resolved bin outcomes.
    #[test]
    fn decode_paths_are_bit_identical(ops in prop::collection::vec(arb_op(), 1..120)) {
        let recs = records(&ops);
        let reference = run_reference(&recs);
        let record_road = run_record_road(&recs);
        assert_runs_identical(&reference, &record_road, "record road vs per-element reference");
    }
}

/// An empty archive decodes to nothing, cleanly.
#[test]
fn empty_archive_decodes_to_nothing() {
    let run = run_record_road(&[]);
    assert!(run.events.is_empty());
    assert!(run.outcomes.is_empty());
    assert_eq!(run.stats, InputStats::default());
    assert_eq!(run.sanitize, SanitizeStats::default());
    assert_eq!(run.baseline, 0);
}

/// A deterministic outage scenario survives the MRT round-trip: the
/// record road sees the same withdrawal burst and reports the same
/// outage as the per-element reference.
#[test]
fn the_record_road_detects_the_same_outage() {
    const DAY: u64 = 86_400;
    let t0 = 1_000_000u64;
    let mut recs = Vec::new();
    for i in 0..8u8 {
        recs.push(BgpRecord {
            time: t0,
            collector: CollectorId(i as u16 % 4),
            peer: peer(i % 4),
            payload: update(BgpUpdate::announce(
                vec![Prefix::v4(20, i, 0, 0, 16)],
                PathAttributes::with_path_and_communities(
                    AsPath::from_sequence([3356, 101, 200 + i as u32]),
                    vec![Community::new(101, 500)],
                ),
            )),
        });
    }
    for i in 0..6u8 {
        recs.push(BgpRecord {
            time: t0 + 2 * DAY + 300,
            collector: CollectorId(i as u16 % 4),
            peer: peer(i % 4),
            payload: update(BgpUpdate::withdraw(vec![Prefix::v4(20, i, 0, 0, 16)])),
        });
    }
    let reference = run_reference(&recs);
    let signals: Vec<_> = reference.outcomes.iter().flat_map(|o| o.signals.iter()).collect();
    assert_eq!(signals.len(), 1, "precondition: one merged signal, got {signals:?}");
    assert_eq!(signals[0].stable_total, 8);
    let record_road = run_record_road(&recs);
    assert_runs_identical(&reference, &record_road, "outage scenario");
}
