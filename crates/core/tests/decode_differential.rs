//! Differential property tests for the three decode roads: the
//! per-element reference (explode → [`InputModule::process`], interned),
//! the record road the product runs
//! ([`InputModule::process_record_events`]) and the zero-copy wire road
//! (MRT archive → [`FrameView`] → `UpdateView` →
//! [`InputModule::process_update_view_dense`]) must be bit-identical —
//! same dense event stream, same interner tables (ids, keys, tags), same
//! input and sanitizer statistics, and same resolved
//! [`BinOutcome`](kepler_core::monitor::BinOutcome)s once the events
//! feed a [`Monitor`].

use kepler_bgp::mrt::{FrameView, MrtWriter};
use kepler_bgp::sanitize::SanitizeStats;
use kepler_bgp::{
    AsPath, Asn, BgpUpdate, Community, PathAttributes, PeerState, Prefix, StateChange,
};
use kepler_bgpstream::{BgpRecord, CollectorId, GapTracker, PeerId, RecordPayload, Timestamp};
use kepler_core::config::KeplerConfig;
use kepler_core::input::{DenseElem, InputModule, InputStats};
use kepler_core::intern::{DenseRouteEvent, Interner};
use kepler_core::monitor::{BinOutcome, Monitor};
use kepler_docmine::{CommunityDictionary, LocationTag};
use kepler_topology::{ColocationMap, FacilityId};
use proptest::prelude::*;

const QUARANTINE: u64 = 600;

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

/// One scripted record, covering multi-prefix updates, withdraw-only
/// updates, unlocated paths, sanitizer rejects (loops, bogons) and
/// session state changes across several collector sessions.
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
            collector: collector % 4,
            peer: peer % 4,
            prefixes,
            near: near % 8,
            far: far % 6,
            tagged,
            looped: loop_roll < 26, // ~10% of announcements carry a loop
        })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_announce(),
        arb_announce(),
        arb_announce(),
        (any::<u8>(), any::<u8>(), prop::collection::vec(any::<u8>(), 1..4)).prop_map(
            |(collector, peer, prefixes)| Op::Withdraw {
                collector: collector % 4,
                peer: peer % 4,
                prefixes,
            }
        ),
        (any::<u8>(), any::<u8>(), any::<bool>()).prop_map(|(collector, peer, up)| Op::State {
            collector: collector % 4,
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
            Op::Announce { collector, peer: p, prefixes, near, far, tagged, looped } => {
                let near_asn = 100 + *near as u32;
                let far_asn = 200 + *far as u32;
                let path = if *looped {
                    // Non-adjacent revisit: rejected by the sanitizer.
                    AsPath::from_sequence([3356, near_asn, far_asn, near_asn])
                } else {
                    AsPath::from_sequence([3356, near_asn, far_asn])
                };
                let communities = if *tagged {
                    vec![Community::new(100 + *near as u16, 500)]
                } else {
                    vec![Community::new(64_000, 1)]
                };
                let attrs = PathAttributes::with_path_and_communities(path, communities);
                // prefix value 255 yields a bogon (0.0.0.0/8 space).
                let announced: Vec<Prefix> = prefixes
                    .iter()
                    .map(|&x| {
                        if x == 255 {
                            Prefix::v4(0, 0, 0, 0, 16)
                        } else {
                            Prefix::v4(20, x % 24, 0, 0, 16)
                        }
                    })
                    .collect();
                out.push(BgpRecord {
                    time: t,
                    collector: CollectorId(*collector as u16),
                    peer: peer(*p),
                    payload: RecordPayload::Update(BgpUpdate::announce(announced, attrs)),
                });
            }
            Op::Withdraw { collector, peer: p, prefixes } => {
                let withdrawn: Vec<Prefix> =
                    prefixes.iter().map(|&x| Prefix::v4(20, x % 24, 0, 0, 16)).collect();
                out.push(BgpRecord {
                    time: t,
                    collector: CollectorId(*collector as u16),
                    peer: peer(*p),
                    payload: RecordPayload::Update(BgpUpdate::withdraw(withdrawn)),
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

/// Encodes the record stream as a contiguous MRT archive, state changes
/// included (frame order == record order; MRT has no collector field, so
/// the zero-copy runner re-pairs frames with records by position).
fn mrt_archive(records: &[BgpRecord]) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = MrtWriter::new(&mut buf);
    for rec in records {
        let mrt = rec.to_mrt(Asn(64_700), "192.0.2.254".parse().unwrap());
        w.write_record(&mrt).expect("encode record");
    }
    buf
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

/// The reference road: gap tracking → explode → per-element
/// [`InputModule::process`] → [`Interner::intern_event`].
fn run_materializing(records: &[BgpRecord]) -> DecodeRun {
    let mut input = input_module();
    let mut gap = GapTracker::new(QUARANTINE);
    let mut interner = Interner::new();
    let mut events = Vec::new();
    let mut last = 0u64;
    for rec in records {
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

/// The record road: one sanitize + community-map per update, shared
/// `Arc` crossing sets ([`InputModule::process_record_events`]).
fn run_record_dense(records: &[BgpRecord]) -> DecodeRun {
    let mut input = input_module();
    let mut gap = GapTracker::new(QUARANTINE);
    let mut interner = Interner::new();
    let mut events = Vec::new();
    let mut last = 0u64;
    for rec in records {
        last = last.max(rec.time);
        gap.observe(rec);
        if !gap.is_usable(rec.collector, rec.peer, rec.time) {
            continue;
        }
        input.process_record_events(rec, &mut interner, |ev| events.push((rec.time, ev)));
    }
    finish_run(interner, &input, events, last)
}

/// The zero-copy wire path: the stream round-trips through an MRT
/// archive, then decodes borrow-only — [`FrameView`] → `UpdateView` →
/// [`InputModule::process_update_view_dense`] — with no `BgpUpdate`
/// materialization. Gap tracking still runs on the original records
/// (it is upstream of decode and identical in every path); collector
/// ids re-pair by frame position since MRT does not carry them.
fn zero_copy_events(
    records: &[BgpRecord],
    input: &mut InputModule,
    interner: &mut Interner,
) -> (Vec<(Timestamp, DenseRouteEvent)>, Timestamp) {
    let archive = mrt_archive(records);
    let mut gap = GapTracker::new(QUARANTINE);
    let mut events = Vec::new();
    let mut last = 0u64;
    let mut idx = 0usize;
    let mut off = 0usize;
    while let Some((frame, used)) = FrameView::parse(&archive[off..]).expect("archive well-formed")
    {
        off += used;
        let rec = &records[idx];
        idx += 1;
        assert_eq!(frame.timestamp as Timestamp, rec.time, "frame/record pairing drifted");
        last = last.max(rec.time);
        gap.observe(rec);
        if !gap.is_usable(rec.collector, rec.peer, rec.time) {
            continue;
        }
        // State-change frames carry no routes: `message()` is `None`,
        // exactly as `explode()` yields no elements for them.
        if let Some(msg) = frame.message().expect("round-tripped frame parses") {
            assert_eq!(msg.peer_as, rec.peer.asn);
            let peer = PeerId { asn: msg.peer_as, addr: msg.peer_ip };
            input.process_update_view_dense(rec.collector, peer, &msg.update, interner, |elem| {
                let ev = match elem {
                    DenseElem::Withdraw { route } => DenseRouteEvent::Withdraw { route },
                    DenseElem::Update { route, crossings } => {
                        DenseRouteEvent::Update { route, crossings: crossings.to_vec().into() }
                    }
                };
                events.push((rec.time, ev));
            });
        }
    }
    assert_eq!(idx, records.len(), "every record round-trips as one frame");
    (events, last)
}

fn run_zero_copy(records: &[BgpRecord]) -> DecodeRun {
    let mut input = input_module();
    let mut interner = Interner::new();
    let (events, last) = zero_copy_events(records, &mut input, &mut interner);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All three decode paths — materializing explode, record-dense, and
    /// zero-copy MRT — produce bit-identical dense events, interner
    /// tables, statistics and resolved bin outcomes.
    #[test]
    fn decode_paths_are_bit_identical(ops in prop::collection::vec(arb_op(), 1..120)) {
        let recs = records(&ops);
        let reference = run_materializing(&recs);
        let record_dense = run_record_dense(&recs);
        assert_runs_identical(&reference, &record_dense, "record-dense vs materializing");
        let zero_copy = run_zero_copy(&recs);
        assert_runs_identical(&reference, &zero_copy, "zero-copy vs materializing");
    }
}

/// An empty archive decodes to nothing, cleanly.
#[test]
fn empty_archive_decodes_to_nothing() {
    let run = run_zero_copy(&[]);
    assert!(run.events.is_empty());
    assert!(run.outcomes.is_empty());
    assert_eq!(run.stats, InputStats::default());
    assert_eq!(run.sanitize, SanitizeStats::default());
    assert_eq!(run.baseline, 0);
}

/// A deterministic outage scenario survives the MRT round-trip: the
/// zero-copy path sees the same withdrawal burst and reports the same
/// outage as the materializing path.
#[test]
fn zero_copy_detects_the_same_outage() {
    const DAY: u64 = 86_400;
    let t0 = 1_000_000u64;
    let mut recs = Vec::new();
    for i in 0..8u8 {
        recs.push(BgpRecord {
            time: t0,
            collector: CollectorId(i as u16 % 4),
            peer: peer(i % 4),
            payload: RecordPayload::Update(BgpUpdate::announce(
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
            payload: RecordPayload::Update(BgpUpdate::withdraw(vec![Prefix::v4(20, i, 0, 0, 16)])),
        });
    }
    let reference = run_materializing(&recs);
    let signals: Vec<_> = reference.outcomes.iter().flat_map(|o| o.signals.iter()).collect();
    assert_eq!(signals.len(), 1, "precondition: one merged signal, got {signals:?}");
    assert_eq!(signals[0].stable_total, 8);
    let zero_copy = run_zero_copy(&recs);
    assert_runs_identical(&reference, &zero_copy, "outage scenario");
}
