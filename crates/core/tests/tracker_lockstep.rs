//! Lockstep property test of the incident tracker against its one
//! reference. Each case configures both with generated hysteresis and
//! drives them through one generated stream of per-bin calls: `record`
//! with same-bin re-localizations, related, unrelated and city-less
//! scopes and every kind of validation metadata; `corroborate`;
//! `probe_restorations` under a scripted prober; `check_restorations`
//! over a generated set of returned crossings; evidence reuse; an
//! export imported into a fresh interner; and `finish`. Times step by
//! bins, jump past the merge window, step backwards and reach
//! `u64::MAX`. After every call [`Tracker`] and
//! [`tracker_model::ModelTracker`], which shares no code with it, must
//! agree on the call's result, the export, the live set and evidence
//! reuse; and a tracker whose `revision()` stood still must export what
//! it exported before.

mod tracker_model;

use kepler_bgp::{Asn, Prefix};
use kepler_bgpstream::{CollectorId, PeerId, Timestamp};
use kepler_core::config::KeplerConfig;
use kepler_core::events::{IncidentState, OutageScope, RouteKey, ValidationStatus};
use kepler_core::investigate::{Affected, LocalizedIncident};
use kepler_core::signal::{SignalKind, SourceContribution};
use kepler_core::tracker::{IncidentMeta, Tracker};
use kepler_core::Interner;
use kepler_docmine::LocationTag;
use kepler_probe::{
    HopEvidence, PostState, RestorationProber, RestorationReport, RestorationVerdict,
};
use kepler_topology::{
    CityId, ColocationMap, Continent, Facility, FacilityId, GeoPoint, Ixp, IxpId,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use tracker_model::{Crossing, ModelTracker};

const BIN: u64 = 60;
const KEYS: u8 = 10;
const NEARS: u32 = 3;

/// Every scope a case can signal at: facilities 0 and 1 and IXP 0 in
/// city 0, facilities 2 and 3 and IXP 1 in city 1, a facility and an IXP
/// the map lacks, and cities 0 to 2 (city 2 holds nothing).
const SCOPES: [OutageScope; 11] = [
    OutageScope::Facility(FacilityId(0)),
    OutageScope::Facility(FacilityId(1)),
    OutageScope::Facility(FacilityId(2)),
    OutageScope::Facility(FacilityId(3)),
    OutageScope::Facility(FacilityId(7)),
    OutageScope::Ixp(IxpId(0)),
    OutageScope::Ixp(IxpId(1)),
    OutageScope::Ixp(IxpId(5)),
    OutageScope::City(CityId(0)),
    OutageScope::City(CityId(1)),
    OutageScope::City(CityId(2)),
];

fn world() -> ColocationMap {
    let mut colo = ColocationMap::new();
    for f in 0..4u32 {
        colo.add_facility(Facility {
            id: FacilityId(f),
            name: format!("F{f}"),
            address: String::new(),
            postcode: format!("P{f}"),
            country: "NL".into(),
            city: CityId(f / 2),
            continent: Continent::Europe,
            point: GeoPoint::new(52.0, 5.0),
            operator: "Op".into(),
        });
    }
    for x in 0..2u32 {
        colo.add_ixp(Ixp {
            id: IxpId(x),
            name: format!("IX{x}"),
            url: format!("ix{x}.net"),
            city: CityId(x),
            continent: Continent::Europe,
            route_server_asn: None,
        });
        colo.link_ixp_facility(IxpId(x), FacilityId(2 * x));
    }
    colo
}

fn tag(scope: OutageScope) -> LocationTag {
    match scope {
        OutageScope::Facility(f) => LocationTag::Facility(f),
        OutageScope::Ixp(x) => LocationTag::Ixp(x),
        OutageScope::City(c) => LocationTag::City(c),
    }
}

fn key(i: u8) -> RouteKey {
    RouteKey {
        collector: CollectorId((i % 2) as u16),
        peer: PeerId { asn: Asn(1 + (i % 3) as u32), addr: "10.0.0.1".parse().unwrap() },
        prefix: Prefix::v4(20, i, 0, 0, 16),
    }
}

/// How the clock moves before a call.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// The same bin again.
    Same,
    /// Forward by whole bins.
    Bins(u8),
    /// Forward by seconds, up to past the merge window.
    Jump(u32),
    /// Backward by whole bins.
    Back(u8),
    /// To this far below `u64::MAX`.
    Max(u32),
}

impl Step {
    fn apply(self, t: Timestamp) -> Timestamp {
        match self {
            Step::Same => t,
            Step::Bins(n) => t.saturating_add(n as u64 * BIN),
            Step::Jump(s) => t.saturating_add(s as u64),
            Step::Back(n) => t.saturating_sub(n as u64 * BIN),
            Step::Max(d) => u64::MAX - d as u64,
        }
    }
}

/// One localization: (scope, keys, watched crossings as (key, scope of
/// the tag, near), near ends, far ends, metadata).
#[derive(Debug, Clone)]
struct Loc {
    scope: u8,
    keys: u16,
    watch: Vec<(u8, u8, u8)>,
    near: u8,
    far: u8,
    meta: Meta,
}

#[derive(Debug, Clone)]
struct Meta {
    dataplane: Option<bool>,
    validation: u8,
    evidence: Vec<(u8, u8, u8)>,
    reused: bool,
    completeness: u8,
    sources: Vec<(u8, u8)>,
}

#[derive(Debug, Clone)]
enum Op {
    /// A bin's localizations, on the world map or on an empty one.
    Record {
        locs: Vec<Loc>,
        mapped: bool,
    },
    Corroborate {
        scope: u8,
        kind: u8,
        confidence: u8,
        mapped: bool,
    },
    /// Due re-probes answer from this script, then `StillDown`.
    Probe(Vec<u8>),
    /// Crossings are back when their key, tag scope and near end are.
    Check {
        keys: u16,
        tags: u16,
        nears: u8,
    },
    /// Evidence reuse over these facility candidates.
    Reuse(Vec<u8>),
    /// Export, then import into a fresh interner; `cross` first files the
    /// first cooling report under the first ongoing scope too.
    Import {
        cross: bool,
    },
    Finish,
}

#[derive(Debug, Clone)]
struct Case {
    open_after: usize,
    close_after: usize,
    ops: Vec<(Step, Op)>,
}

/// Mostly one bin on, often a few bins or up to an hour, sometimes
/// past or onto the edge of the merge window, back, or to the end of the
/// clock.
fn step() -> impl Strategy<Value = Step> {
    let bin = || (1u8..2).prop_map(Step::Bins);
    prop_oneof![
        (0u8..1).prop_map(|_| Step::Same),
        bin(),
        bin(),
        bin(),
        (1u8..6).prop_map(Step::Bins),
        (0u32..3_600).prop_map(Step::Jump),
        (0u32..3_600).prop_map(Step::Jump),
        (0u32..100_000).prop_map(Step::Jump),
        // Onto either side of the 12 h merge window.
        (0u32..120).prop_map(|s| Step::Jump(12 * 3600 - 60 + s)),
        (1u8..4).prop_map(Step::Back),
        (0u32..100_000).prop_map(Step::Max),
    ]
}

/// Mostly-set masks, so watch lists land on both sides of half back.
fn mask() -> impl Strategy<Value = u16> {
    prop_oneof![
        any::<u16>(),
        (any::<u16>(), any::<u16>()).prop_map(|(a, b)| a | b),
        (any::<u16>(), any::<u16>(), any::<u16>()).prop_map(|(a, b, c)| !(a & b & c)),
        any::<bool>().prop_map(|_| u16::MAX),
    ]
}

fn meta() -> impl Strategy<Value = Meta> {
    (
        proptest::option::of(any::<bool>()),
        0u8..6,
        vec((0u8..3, 0u8..3, 0u8..4), 0..3),
        any::<bool>(),
        0u8..4,
        prop_oneof![vec((0u8..3, 0u8..4), 0..1), vec((0u8..3, 0u8..4), 1..3)],
    )
        .prop_map(|(dataplane, validation, evidence, reused, completeness, sources)| Meta {
            dataplane,
            validation,
            evidence,
            reused,
            completeness,
            sources,
        })
}

fn loc() -> impl Strategy<Value = Loc> {
    // Half the localizations land in city 0: facilities 0 and 1, IXP 0
    // and the city itself.
    let city0 = proptest::sample::select(vec![0u8, 1, 5, 8]);
    let scope = prop_oneof![0u8..SCOPES.len() as u8, city0];
    (scope, mask(), vec((0u8..KEYS, 0u8..12, 0u8..NEARS as u8), 0..5), 1u8..8, 1u8..16, meta())
        .prop_map(|(scope, keys, watch, near, far, meta)| Loc {
            scope,
            keys,
            watch,
            near,
            far,
            meta,
        })
}

fn record() -> impl Strategy<Value = Op> {
    (vec(loc(), 0..4), any::<bool>()).prop_map(|(locs, mapped)| Op::Record { locs, mapped })
}

fn check() -> impl Strategy<Value = Op> {
    (mask(), mask(), any::<u8>()).prop_map(|(keys, tags, nears)| Op::Check { keys, tags, nears })
}

/// Records and checks most often; imports and finishes rarely.
fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        record(),
        record(),
        record(),
        (0u8..SCOPES.len() as u8, 0u8..3, 0u8..4, any::<bool>()).prop_map(
            |(scope, kind, confidence, mapped)| Op::Corroborate { scope, kind, confidence, mapped }
        ),
        vec(0u8..3, 0..4).prop_map(Op::Probe),
        vec(0u8..3, 0..4).prop_map(Op::Probe),
        check(),
        check(),
        check(),
        vec(0u8..5, 0..4).prop_map(Op::Reuse),
        (0u8..4).prop_map(|n| match n {
            0 => Op::Finish,
            _ => Op::Import { cross: n > 1 },
        }),
    ]
}

/// A quarter of the cases reach the end of the clock; in the rest an
/// end-of-clock step is one bin.
fn case() -> impl Strategy<Value = Case> {
    (1usize..4, 1usize..4, 0u8..4, vec((step(), op()), 1..60)).prop_map(
        |(open_after, close_after, clock, mut ops)| {
            if clock > 0 {
                for (step, _) in &mut ops {
                    if let Step::Max(_) = step {
                        *step = Step::Bins(1);
                    }
                }
            }
            Case { open_after, close_after, ops }
        },
    )
}

fn localized(l: &Loc, at: Timestamp) -> (LocalizedIncident, IncidentMeta) {
    let scope = SCOPES[l.scope as usize % SCOPES.len()];
    let bits = |m: u16, n: u8| (0..n).filter(move |i| m & (1 << i) != 0);
    let mut keys: Vec<u8> = bits(l.keys, KEYS).take(4).collect();
    keys.push(l.scope % KEYS);
    // Each key watched at the incident's own tag, then a few crossings
    // elsewhere.
    let mut watch: Vec<Crossing> =
        keys.iter().map(|&k| (key(k), tag(scope), Asn(100 + (k as u32 % NEARS)))).collect();
    watch.extend(
        l.watch.iter().map(|&(k, s, n)| {
            (key(k), tag(SCOPES[s as usize % SCOPES.len()]), Asn(100 + n as u32))
        }),
    );
    let affected = Affected {
        near: bits(l.near as u16, 3).map(|i| Asn(100 + i as u32)).collect(),
        far: bits(l.far as u16, 4).map(|i| Asn(200 + i as u32)).collect(),
        keys: keys.iter().rev().map(|&k| key(k)).collect(),
        watch,
    };
    let m = &l.meta;
    let validation = match m.validation {
        0 | 1 => ValidationStatus::Confirmed,
        2 => ValidationStatus::Refuted,
        3 => ValidationStatus::Inconclusive,
        _ => ValidationStatus::Unvalidated,
    };
    let posts = [PostState::Detoured, PostState::Unreachable, PostState::StillCrossing { hop: 2 }];
    let evidence = m
        .evidence
        .iter()
        .map(|&(v, t, p)| HopEvidence {
            vantage: Asn(900 + v as u32),
            target: Asn(200 + t as u32),
            facility: FacilityId(p as u32 % 2),
            pre_hop: 2,
            post: posts[p as usize % 3],
        })
        .collect();
    let sources = m
        .sources
        .iter()
        .map(|&(k, c)| SourceContribution {
            kind: SignalKind::ALL[k as usize],
            confidence: 0.25 * (c + 1) as f64,
            first_bin: at.saturating_sub(c as u64 * BIN),
        })
        .collect();
    let meta = IncidentMeta {
        dataplane: m.dataplane,
        validation,
        evidence,
        reused: m.reused,
        completeness: 1.0 - 0.25 * m.completeness as f64,
        sources,
    };
    (LocalizedIncident { scope, bin_start: at, affected }, meta)
}

/// Answers from a script, recording every call.
struct Scripted {
    script: Vec<RestorationVerdict>,
    calls: Vec<(OutageScope, Vec<Asn>, Timestamp, Timestamp)>,
}

impl RestorationProber for Scripted {
    fn check(
        &mut self,
        epicenter: OutageScope,
        targets: &[Asn],
        incident_start: Timestamp,
        now: Timestamp,
    ) -> RestorationReport {
        let verdict =
            self.script.get(self.calls.len()).copied().unwrap_or(RestorationVerdict::StillDown);
        self.calls.push((epicenter, targets.to_vec(), incident_start, now));
        RestorationReport { verdict, watched: 1, crossing: 0, probes_sent: 1, rate_limited: 0 }
    }
}

fn scripted(script: &[u8]) -> Scripted {
    let verdicts = [
        RestorationVerdict::Restored,
        RestorationVerdict::StillDown,
        RestorationVerdict::Inconclusive,
    ];
    Scripted { script: script.iter().map(|&v| verdicts[v as usize]).collect(), calls: Vec::new() }
}

/// What one call returned, on either side.
#[derive(Debug, PartialEq)]
enum Answer {
    None,
    Hit(bool),
    Probed(usize, Vec<(OutageScope, Vec<Asn>, Timestamp, Timestamp)>),
    Reuse(Option<(FacilityId, Vec<HopEvidence>)>),
    Reports(Vec<kepler_core::events::OutageReport>),
}

/// Runs one case in lockstep and names the lifecycle moves it made;
/// the error names the first call the two sides disagree after.
fn lockstep(case: &Case) -> Result<BTreeSet<&'static str>, String> {
    let config = KeplerConfig::default().with_hysteresis(case.open_after, case.close_after);
    let (world, empty) = (world(), ColocationMap::new());
    let candidates: Vec<FacilityId> = [3, 0, 7, 1, 2].map(FacilityId).to_vec();
    let mut tracker = Tracker::new(config.clone());
    let mut model = ModelTracker::new(&config);
    let mut interner = Interner::new();
    let mut moves = BTreeSet::new();
    let mut now: Timestamp = 10_000;
    for (i, (step, op)) in case.ops.iter().enumerate() {
        let then = now;
        now = step.apply(now);
        let (revision, before) = (tracker.revision(), tracker.export());
        let (got, expected) = match op {
            Op::Record { locs, mapped } => {
                let colo = if *mapped { &world } else { &empty };
                let (incs, metas): (Vec<_>, Vec<_>) =
                    locs.iter().map(|l| localized(l, now)).unzip();
                tracker.record(&incs, &metas, colo, &mut interner);
                model.record(&incs, &metas, colo);
                let after = tracker.export();
                let held = |s: OutageScope| {
                    after.ongoing.iter().any(|o| o.scope == s)
                        || after.warming.iter().any(|w| w.0 == s)
                };
                if incs.iter().any(|inc| !held(inc.scope)) {
                    moves.insert("joined another scope");
                }
                if after.ongoing.iter().any(|o| o.oscillations > 1)
                    && after.cooling.len() < before.cooling.len()
                {
                    moves.insert("reopened");
                }
                if after.ongoing.len() < before.ongoing.len() {
                    moves.insert("two ongoing entries folded");
                }
                if after.warming.len() > before.warming.len() {
                    moves.insert("warming");
                }
                (Answer::None, Answer::None)
            }
            Op::Corroborate { scope, kind, confidence, mapped } => {
                let colo = if *mapped { &world } else { &empty };
                let scope = SCOPES[*scope as usize];
                let contrib = SourceContribution {
                    kind: SignalKind::ALL[*kind as usize],
                    confidence: 0.25 * (*confidence + 1) as f64,
                    first_bin: now,
                };
                (
                    Answer::Hit(tracker.corroborate(scope, contrib, colo)),
                    Answer::Hit(model.corroborate(scope, contrib, colo)),
                )
            }
            Op::Probe(script) => {
                let (mut a, mut b) = (scripted(script), scripted(script));
                let got = tracker.probe_restorations(now, &mut a);
                let expected = model.probe_restorations(now, &mut b);
                if got > 0 {
                    moves.insert("closed by probes");
                }
                (Answer::Probed(got, a.calls), Answer::Probed(expected, b.calls))
            }
            Op::Check { keys, tags, nears } => {
                let back = |&(k, t, n): &Crossing| {
                    let key_at = (0..KEYS).position(|i| key(i) == k).expect("a generated key");
                    let tag_at = SCOPES.iter().position(|&s| tag(s) == t).expect("a generated tag");
                    keys & (1 << key_at) != 0
                        && tags & (1 << tag_at) != 0
                        && nears & (1 << (n.0 - 100)) != 0
                };
                let ids = &interner;
                tracker.check_restorations(now, |r, p, a| {
                    back(&(ids.route_key(r), ids.pop_tag(p), ids.asn(a)))
                });
                model.check_restorations(now, back);
                let after = tracker.export();
                if after.cooling.len() > before.cooling.len() {
                    moves.insert("closed by checks");
                }
                if after.finished.len() > before.finished.len() {
                    moves.insert("cooling expired");
                }
                if after.warming.len() < before.warming.len() {
                    moves.insert("warming expired");
                }
                (Answer::None, Answer::None)
            }
            Op::Reuse(order) => {
                let order: Vec<FacilityId> =
                    order.iter().map(|&c| candidates[c as usize]).collect();
                let got = tracker.accumulated_confirmation(&order, now);
                if got.is_some() {
                    moves.insert("evidence reused");
                }
                (Answer::Reuse(got), Answer::Reuse(model.accumulated_confirmation(&order, now)))
            }
            Op::Import { cross } => {
                let mut image = tracker.export();
                let scope = image.ongoing.first().map(|o| o.scope);
                if let (true, Some(scope), Some(cooled)) = (cross, scope, image.cooling.first()) {
                    let mut cooled = cooled.clone();
                    cooled.0 = scope;
                    cooled.1.scope = scope;
                    image.cooling.retain(|(s, ..)| *s != scope);
                    image.cooling.push(cooled);
                    image.cooling.sort_by_key(|(s, ..)| *s);
                    moves.insert("one scope ongoing and cooling");
                }
                interner = Interner::new();
                interner.asn_id(Asn(424_242));
                tracker.import(&image, &mut interner);
                model.import(&image);
                (Answer::None, Answer::None)
            }
            Op::Finish => (Answer::Reports(tracker.finish()), Answer::Reports(model.finish())),
        };
        let at = || format!("call {i} ({op:?} at {now})");
        if got != expected {
            return Err(format!("{}: returned\n{got:?}\nexpected\n{expected:?}", at()));
        }
        let (exported, modeled) = (tracker.export(), model.export());
        if exported != modeled {
            return Err(format!("{}: exported\n{exported:?}\nexpected\n{modeled:?}", at()));
        }
        let (got, expected) = (tracker.live_states(), model.live_states());
        if got != expected {
            return Err(format!("{}: live set {got:?}, expected {expected:?}", at()));
        }
        if got.iter().any(|(_, s)| *s == IncidentState::Recovering) {
            moves.insert("recovering");
        }
        let (got, expected) = (
            tracker.accumulated_confirmation(&candidates, now),
            model.accumulated_confirmation(&candidates, now),
        );
        if got != expected {
            return Err(format!("{}: reuse {got:?}, expected {expected:?}", at()));
        }
        if tracker.revision() == revision && exported != before {
            return Err(format!("{}: the export moved, the revision did not", at()));
        }
        if now < then {
            moves.insert("time stepped back");
        }
        if now > u64::MAX - 1_000 {
            moves.insert("time at the end of the clock");
        }
    }
    Ok(moves)
}

proptest! {
    #[test]
    fn tracker_matches_the_model(case in case()) {
        if let Err(e) = lockstep(&case) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// The generator reaches every lifecycle move the lockstep holds the
/// tracker to within 256 cases.
#[test]
fn generated_streams_reach_every_lifecycle_move() {
    let strategy = case();
    let seed = proptest::seed_for_test("generated_streams_reach_every_lifecycle_move");
    let mut reached: BTreeMap<&str, usize> = BTreeMap::new();
    for n in 0..256 {
        let case = strategy.generate(&mut proptest::TestRng::for_case(seed, n));
        for what in lockstep(&case).expect("the lockstep holds") {
            *reached.entry(what).or_default() += 1;
        }
    }
    for what in [
        "warming",
        "warming expired",
        "joined another scope",
        "two ongoing entries folded",
        "reopened",
        "closed by probes",
        "closed by checks",
        "cooling expired",
        "recovering",
        "evidence reused",
        "one scope ongoing and cooling",
        "time stepped back",
        "time at the end of the clock",
    ] {
        assert!(reached.get(what).is_some_and(|&n| n > 0), "no {what} in 256 cases: {reached:?}");
    }
}
