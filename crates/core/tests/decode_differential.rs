//! Differential property tests for the decode road the product runs
//! against its one reference. The record road reads MRT archives, one per
//! collector, through [`MrtSource`] and [`MergedStream`]; each record
//! keeps its UPDATE as wire bytes and spans and is decoded by
//! [`InputModule::process_record_events`]. The reference
//! ([`reference::Reference`]) explodes the same records, materialized,
//! into per-prefix elements by the documented rules and shares no code
//! with the record road. The two must be bit-identical: same dense event
//! stream, same id tables (routes, PoP tags, ASNs), same input and
//! sanitizer statistics, and same bin outcomes once the events feed a
//! [`Monitor`]. Every scripted update is first checked to read back as
//! it was written ([`update`]): a parser fault cannot hide in both roads
//! at once.

mod reference;

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
use kepler_core::events::RouteKey;
use kepler_core::input::{InputModule, InputStats};
use kepler_core::intern::{DenseRouteEvent, Interner};
use kepler_core::monitor::{DenseBinOutcome, Monitor};
use kepler_docmine::{CommunityDictionary, LocationTag};
use kepler_topology::entities::Ixp;
use kepler_topology::{CityId, ColocationMap, Continent, FacilityId, IxpId};
use proptest::prelude::*;
use reference::Reference;
use std::io::Cursor;
use std::net::{IpAddr, Ipv6Addr};

const QUARANTINE: u64 = 600;

/// Collectors the scripts spread their records over.
const COLLECTORS: usize = 4;

/// The route-server ASN of the one IXP.
const RS_ASN: u16 = 6695;

/// Dictionary: community (100+n):500 tags Facility(n % 5) for n in 0..8,
/// and [`RS_ASN`] is the route server of IXP 0.
fn dictionary() -> CommunityDictionary {
    let mut d = CommunityDictionary::new();
    for n in 0..8u16 {
        d.insert(Community::new(100 + n, 500), LocationTag::Facility(FacilityId(n as u32 % 5)));
    }
    d.add_route_server(RS_ASN, IxpId(0));
    d
}

/// One IXP whose members are near ends 100–103 and far ends 200–202.
fn colo() -> ColocationMap {
    let mut m = ColocationMap::new();
    m.add_ixp(Ixp {
        id: IxpId(0),
        name: "IX".into(),
        url: "ix.example".into(),
        city: CityId(0),
        continent: Continent::Europe,
        route_server_asn: Some(Asn(u32::from(RS_ASN))),
    });
    for asn in (100..=103).chain(200..=202) {
        m.add_ixp_member(IxpId(0), Asn(asn));
    }
    m
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

/// Prefix `x` of a script: 255 a bogon (0.0.0.0/8 space), 248–254 an
/// unconventional length (IPv4 /28, IPv6 /64), IPv6 /32 from 224, IPv4
/// /16 below, so updates mix both families (through MP_REACH and
/// MP_UNREACH).
fn prefix(x: u8) -> Prefix {
    let v6 = |len| {
        let addr = Ipv6Addr::new(0x2a00, u16::from(x % 24), 0, 0, 0, 0, 0, 0);
        Prefix::new(IpAddr::V6(addr), len).unwrap()
    };
    match x {
        255 => Prefix::v4(0, 0, 0, 0, 16),
        248.. if x.is_multiple_of(2) => Prefix::v4(20, x % 24, 0, 0, 28),
        248.. => v6(64),
        224.. => v6(32),
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

/// The AS path of an announcement from near end `n` (100–107) and far
/// end `f` (200–205).
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `3356 n f`.
    Plain,
    /// `3356 n … n f`, `n` written `k` times: collapses to `Plain`.
    Prepended(usize),
    /// `3356 n f n`: a loop.
    Looped,
    /// A private-use ASN behind the far end.
    Private,
    /// `3356 f n`: `n` is the origin, so its tag has no far end.
    OriginTagged,
    /// No ASN at all.
    Empty,
    /// `3356 n f 1000 1001 …`, this many hops.
    Long(usize),
}

impl Shape {
    fn path(self, n: u32, f: u32) -> AsPath {
        match self {
            Shape::Plain => AsPath::from_sequence([3356, n, f]),
            Shape::Prepended(k) => AsPath::from_sequence(
                std::iter::once(3356).chain(std::iter::repeat_n(n, k)).chain([f]),
            ),
            Shape::Looped => AsPath::from_sequence([3356, n, f, n]),
            Shape::Private => AsPath::from_sequence([3356, n, f, 64_512]),
            Shape::OriginTagged => AsPath::from_sequence([3356, f, n]),
            Shape::Empty => AsPath::empty(),
            Shape::Long(hops) => {
                AsPath::from_sequence([3356, n, f].into_iter().chain(1000..).take(hops))
            }
        }
    }
}

/// Community bits of an announcement. An explicit location community of
/// the near end: (100+n):500.
const EXPLICIT: u8 = 1;
/// A route-server community: 6695:n.
const ROUTE_SERVER: u8 = 2;
/// An explicit community of an AS the path does not hold.
const OFF_PATH: u8 = 4;
/// A community the dictionary does not know.
const UNKNOWN: u8 = 8;
/// Every community above, written twice.
const REPEATED: u8 = 16;

#[derive(Debug, Clone)]
struct Announce {
    collector: u8,
    peer: u8,
    prefixes: Vec<u8>,
    near: u8,
    far: u8,
    shape: Shape,
    communities: u8,
}

impl Announce {
    fn record(&self, t: Timestamp) -> BgpRecord {
        let (n, f) = (100 + u32::from(self.near), 200 + u32::from(self.far));
        let bits = [
            (EXPLICIT, Community::new(100 + u16::from(self.near), 500)),
            (ROUTE_SERVER, Community::new(RS_ASN, u16::from(self.near))),
            (OFF_PATH, Community::new(100 + u16::from((self.near + 1) % 8), 500)),
            (UNKNOWN, Community::new(64_000, 1)),
        ];
        let mut communities: Vec<Community> =
            bits.iter().filter(|(bit, _)| self.communities & bit != 0).map(|&(_, c)| c).collect();
        if self.communities & REPEATED != 0 {
            communities.extend_from_within(..);
        }
        let attrs = PathAttributes::with_path_and_communities(self.shape.path(n, f), communities);
        BgpRecord {
            time: t,
            collector: CollectorId(u16::from(self.collector)),
            peer: peer(self.peer),
            payload: update(BgpUpdate::announce(family_order(&self.prefixes), attrs)),
        }
    }
}

/// One scripted record, covering multi-prefix updates of both families,
/// withdraw-only updates, every path shape and community kind, every
/// sanitizer rule and session state changes across several collector
/// sessions.
#[derive(Debug, Clone)]
enum Op {
    Announce(Announce),
    Withdraw { collector: u8, peer: u8, prefixes: Vec<u8> },
    State { collector: u8, peer: u8, up: bool },
    Advance { dt: u32 },
}

fn arb_announce() -> impl Strategy<Value = Op> {
    (
        any::<u8>(),
        any::<u8>(),
        prop::collection::vec(any::<u8>(), 1..4),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
    )
        .prop_map(|(collector, peer, prefixes, near, far, roll, communities)| {
            let shape = match roll {
                0..26 => Shape::Looped,                                // ~10%
                26..52 => Shape::Private,                              // ~10%
                52..72 => Shape::Prepended(2 + usize::from(roll % 3)), // ~8%
                72..84 => Shape::OriginTagged,
                84..92 => Shape::Empty,
                92..100 => Shape::Long(64 + usize::from(roll % 2)), // the limit, and one past
                _ => Shape::Plain,
            };
            Op::Announce(Announce {
                collector: collector % COLLECTORS as u8,
                peer: peer % 4,
                prefixes,
                near: near % 8,
                far: far % 6,
                shape,
                communities: communities % 32,
            })
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
            Op::Announce(a) => out.push(a.record(t)),
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
/// timestamps), the id tables, input and sanitizer statistics, and the
/// monitor's bin outcomes plus baseline size.
struct DecodeRun {
    events: Vec<(Timestamp, DenseRouteEvent)>,
    route_keys: Vec<RouteKey>,
    pop_tags: Vec<LocationTag>,
    asns: Vec<Asn>,
    stats: InputStats,
    sanitize: SanitizeStats,
    outcomes: Vec<DenseBinOutcome>,
    baseline: usize,
}

impl DecodeRun {
    /// A run with its events and nothing else yet.
    fn new(events: Vec<(Timestamp, DenseRouteEvent)>) -> Self {
        DecodeRun {
            events,
            route_keys: Vec::new(),
            pop_tags: Vec::new(),
            asns: Vec::new(),
            stats: InputStats::default(),
            sanitize: SanitizeStats::default(),
            outcomes: Vec::new(),
            baseline: 0,
        }
    }

    /// Feeds the events to a monitor up to well past `last`.
    fn monitor(mut self, last: Timestamp) -> Self {
        let mut monitor = Monitor::new(KeplerConfig { min_stable_paths: 1, ..Default::default() });
        for (t, ev) in &self.events {
            self.outcomes.extend(monitor.observe(*t, ev));
        }
        self.outcomes.extend(monitor.advance_to(last + 300_000));
        self.baseline = monitor.baseline_size();
        self
    }
}

/// The usable records of the stream, in merged order, as the gap tracker
/// passes them.
fn usable(records: impl IntoIterator<Item = BgpRecord>) -> impl Iterator<Item = BgpRecord> {
    let mut gap = GapTracker::new(QUARANTINE);
    records.into_iter().filter(move |rec| {
        gap.observe(rec);
        gap.is_usable(rec.collector, rec.peer, rec.time)
    })
}

/// The reference road over the records in merged order: gap tracking,
/// then [`Reference::decode`].
fn run_reference(records: &[BgpRecord]) -> DecodeRun {
    let mut reference = Reference::new(dictionary(), colo());
    let mut events = Vec::new();
    for rec in usable(merged_order(records)) {
        events.extend(reference.decode(&rec).into_iter().map(|ev| (rec.time, ev)));
    }
    let last = records.iter().map(|r| r.time).max().unwrap_or(0);
    DecodeRun {
        route_keys: reference.route_keys().to_vec(),
        pop_tags: reference.pop_tags().to_vec(),
        asns: reference.asns().to_vec(),
        stats: reference.stats,
        sanitize: reference.sanitize,
        ..DecodeRun::new(events)
    }
    .monitor(last)
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
    let mut input = InputModule::new(dictionary(), colo());
    let mut interner = Interner::new();
    let mut events = Vec::new();
    let (mut last, mut read) = (0u64, 0usize);
    let stream = MergedStream::new(sources).inspect(|rec| {
        read += 1;
        last = last.max(rec.time);
    });
    for rec in usable(stream) {
        input.process_record_events(&rec, &mut interner, |ev| events.push((rec.time, ev)));
    }
    assert_eq!(read, records.len(), "every record reads back from its archive");
    DecodeRun {
        route_keys: interner.route_keys_since(0).collect(),
        pop_tags: interner.pop_tags_since(0).to_vec(),
        asns: interner.asns_since(0).to_vec(),
        stats: input.stats().clone(),
        sanitize: input.sanitize_stats().clone(),
        ..DecodeRun::new(events)
    }
    .monitor(last)
}

fn assert_runs_identical(a: &DecodeRun, b: &DecodeRun, what: &str) {
    assert_eq!(a.events, b.events, "{what}: dense event stream diverged");
    assert_eq!(a.route_keys, b.route_keys, "{what}: route id table diverged");
    assert_eq!(a.pop_tags, b.pop_tags, "{what}: pop id table diverged");
    assert_eq!(a.asns, b.asns, "{what}: asn id table diverged");
    assert_eq!(a.stats, b.stats, "{what}: input stats diverged");
    assert_eq!(a.sanitize, b.sanitize, "{what}: sanitizer stats diverged");
    assert_eq!(a.outcomes, b.outcomes, "{what}: bin outcomes diverged");
    assert_eq!(a.baseline, b.baseline, "{what}: baseline size diverged");
}

// 24 cases by default; `PROPTEST_CASES` overrides it (CI runs 2000).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|n| n.parse().ok()).unwrap_or(24)
    ))]

    /// The reference and the record road over MRT archives produce
    /// bit-identical dense events, id tables, statistics and bin
    /// outcomes.
    #[test]
    fn decode_paths_are_bit_identical(ops in prop::collection::vec(arb_op(), 1..120)) {
        let recs = records(&ops);
        let reference = run_reference(&recs);
        let record_road = run_record_road(&recs);
        assert_runs_identical(&reference, &record_road, "record road vs reference");
    }
}

/// One fixed script breaks every sanitizer rule and maps through both
/// community branches, and the two roads agree on it.
#[test]
fn a_script_hitting_every_rule_and_branch_decodes_identically() {
    let announce = |collector, prefixes: &[u8], near, shape, communities| {
        let prefixes = prefixes.to_vec();
        Op::Announce(Announce {
            collector,
            peer: collector,
            prefixes,
            near,
            far: near,
            shape,
            communities,
        })
    };
    let ops = [
        announce(0, &[1, 230], 0, Shape::Plain, EXPLICIT | UNKNOWN),
        announce(1, &[2], 1, Shape::Plain, ROUTE_SERVER | REPEATED),
        announce(2, &[3], 2, Shape::Looped, EXPLICIT),
        announce(3, &[4], 3, Shape::Private, EXPLICIT),
        announce(0, &[5], 4, Shape::Empty, EXPLICIT),
        announce(1, &[6], 5, Shape::Long(65), EXPLICIT),
        announce(
            2,
            &[7, 250, 251, 255],
            2,
            Shape::Prepended(3),
            EXPLICIT | ROUTE_SERVER | OFF_PATH,
        ),
        announce(3, &[8], 3, Shape::OriginTagged, EXPLICIT),
        Op::Advance { dt: 60 },
        Op::Withdraw { collector: 0, peer: 0, prefixes: vec![1, 252, 255] },
    ];
    let recs = records(&ops);
    let reference = run_reference(&recs);
    let s = &reference.sanitize;
    let counters = [
        s.accepted,
        s.empty_paths,
        s.as_loops,
        s.special_asns,
        s.long_paths,
        s.bogons,
        s.bad_lengths,
    ];
    assert!(counters.iter().all(|&n| n > 0), "every verdict is reached: {s:?}");
    let branches = |tag: &LocationTag| matches!(tag, LocationTag::Ixp(_));
    assert!(
        reference.pop_tags.iter().any(branches) && !reference.pop_tags.iter().all(branches),
        "both mapping branches are reached: {:?}",
        reference.pop_tags
    );
    assert_runs_identical(&reference, &run_record_road(&recs), "fixed script");
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
/// outage as the reference.
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
