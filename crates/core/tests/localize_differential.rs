//! Differential property test of the §4.3 localizer against its one
//! reference. Each case generates a small world — facilities and IXPs in
//! two cities, sibling organizations, remote IXP members — and one
//! closed bin of signals with the stable far ends behind them, and
//! asserts that [`Investigator::investigate`] and
//! [`localizer::ReferenceLocalizer`], which shares no code with it,
//! return equal [`BinInvestigation`]s: the same dismissals, incidents,
//! pendings and unresolved groups, in the same order, with bit-equal
//! coverage and containment scores. The worlds are dense enough that
//! coverages land on both sides of the 95 % margin, several buildings
//! pass at once, and one city collects verdicts from several tags.

mod localizer;

use kepler_bgp::{Asn, Prefix};
use kepler_bgpstream::{CollectorId, PeerId};
use kepler_core::config::KeplerConfig;
use kepler_core::events::RouteKey;
use kepler_core::investigate::{BinInvestigation, Investigator};
use kepler_core::monitor::{BinOutcome, OutageSignal};
use kepler_core::{OutageScope, RemotenessMap, SignalClass};
use kepler_docmine::LocationTag;
use kepler_probe::{IfaceOwner, TraceHop};
use kepler_topology::{
    CityId, ColocationMap, Continent, Facility, FacilityId, GeoPoint, Ixp, IxpId, OrgMap,
};
use localizer::ReferenceLocalizer;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::net::IpAddr;

/// Near-end ASes are 100.., far-end ASes 200... With 28 far ends a share
/// can land in [95 %, 100 %) — 19 of 20 and up — where a margin moved
/// to 100 % would show.
const NEARS: u32 = 5;
const FARS: u32 = 28;
const FULL: u32 = (1 << FARS) - 1;
const CITIES: u32 = 2;

#[derive(Debug, Clone)]
struct Spec {
    /// Per facility: city, far-end tenants (bit i is AS 200 + i).
    facilities: Vec<(u8, u32)>,
    /// Per IXP: city, far-end members, fabric facilities (bit i is
    /// facility i).
    ixps: Vec<(u8, u32, u8)>,
    /// Near ends that are siblings in organization A (bit i is AS 100 + i).
    sibling_nears: u8,
    /// (AS index — near ends first, then far ends —, organization).
    orgs: Vec<(u8, u8)>,
    /// (IXP, far ends, remote?): one LAN-entry step observation per far
    /// end.
    remote: Vec<(u8, u32, bool)>,
    /// The tags this bin's signals cluster on (indexes into [`tags`]).
    focus: Vec<u8>,
    /// Per tag: the far ends stable paths reach there.
    tag_stable: Vec<u32>,
    /// Per near end: the far ends its stable paths reach.
    near_stable: Vec<u32>,
    /// (focus index, near end, far ends, deviated route keys).
    signals: Vec<(u8, u8, u32, u8)>,
}

/// Far-end sets from sparse to nearly full, so coverages and
/// containments land on both sides of the margin.
fn fars() -> impl Strategy<Value = u32> {
    prop_oneof![
        (any::<u32>(), any::<u32>()).prop_map(|(a, b)| a & b),
        any::<u32>(),
        (any::<u32>(), any::<u32>()).prop_map(|(a, b)| a | b),
        (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(a, b, c)| !(a & b & c)),
    ]
    .prop_map(|m| m & FULL)
}

fn spec() -> impl Strategy<Value = Spec> {
    // Half the worlds have no sibling near ends at all.
    let sibling_nears = (any::<bool>(), any::<u8>()).prop_map(|(on, m)| if on { m } else { 0 });
    // Half the remoteness observations cover every far end: a metro
    // whose affected far ends all peer remotely is what the exclusion
    // is for.
    let remote_fars = prop_oneof![fars(), any::<bool>().prop_map(|_| FULL)];
    // A third of the signals name one of three far ends: a tag whose
    // whole affected set is one AS is what the two-tenant rule is for.
    let signal_fars = prop_oneof![fars(), fars(), (0u32..3).prop_map(|i| 1 << i)];
    // A third of the facilities hold one of those three far ends among a
    // few others, so its stable tenants can be that one alone.
    let few = (0u32..3, any::<u32>(), any::<u32>(), any::<u32>());
    let tenants =
        prop_oneof![fars(), fars(), few.prop_map(|(i, a, b, c)| (1 << i | a & b & c) & FULL)];
    let orgs = (sibling_nears, vec((any::<u8>(), 0u8..3), 0..7));
    let stable = (vec(any::<u8>(), 1..7), vec(fars(), 1..6), vec(fars(), NEARS as usize));
    (
        vec((any::<u8>(), tenants), 1..7),
        vec((any::<u8>(), fars(), any::<u8>()), 0..4),
        orgs,
        vec((any::<u8>(), remote_fars, any::<bool>()), 0..3),
        stable,
        vec((any::<u8>(), any::<u8>(), signal_fars, any::<u8>()), 2..16),
    )
        .prop_map(|(facilities, ixps, (sibling_nears, orgs), remote, stable, signals)| {
            let (focus, tag_stable, near_stable) = stable;
            Spec {
                facilities,
                ixps,
                sibling_nears,
                orgs,
                remote,
                focus,
                tag_stable,
                near_stable,
                signals,
            }
        })
}

/// Every tag the spec can signal at: each facility and IXP, one of each
/// the map lacks, and every city.
fn tags(spec: &Spec) -> Vec<LocationTag> {
    let facilities =
        (0..=spec.facilities.len() as u32).map(|f| LocationTag::Facility(FacilityId(f)));
    let ixps = (0..=spec.ixps.len() as u32).map(|x| LocationTag::Ixp(IxpId(x)));
    let cities = (0..CITIES).map(|c| LocationTag::City(CityId(c)));
    facilities.chain(ixps).chain(cities).collect()
}

fn asns(base: u32, mask: u32) -> impl Iterator<Item = Asn> {
    (0..FARS).filter(move |i| mask & (1 << i) != 0).map(move |i| Asn(base + i))
}

fn key(i: u8) -> RouteKey {
    RouteKey {
        collector: CollectorId((i % 2) as u16),
        peer: PeerId { asn: Asn(1 + (i % 3) as u32), addr: "10.0.0.1".parse().unwrap() },
        prefix: Prefix::v4(20, i, 0, 0, 16),
    }
}

fn world(spec: &Spec) -> (ColocationMap, OrgMap, RemotenessMap) {
    let mut colo = ColocationMap::new();
    for (i, &(city, members)) in spec.facilities.iter().enumerate() {
        let id = FacilityId(i as u32);
        colo.add_facility(Facility {
            id,
            name: format!("F{i}"),
            address: String::new(),
            postcode: format!("P{i}"),
            country: "NL".into(),
            city: CityId(city as u32 % CITIES),
            continent: Continent::Europe,
            point: GeoPoint::new(52.0, 5.0),
            operator: "Op".into(),
        });
        asns(200, members).for_each(|a| colo.add_fac_member(id, a));
    }
    for (i, &(city, members, fabric)) in spec.ixps.iter().enumerate() {
        let id = IxpId(i as u32);
        colo.add_ixp(Ixp {
            id,
            name: format!("IX{i}"),
            url: format!("ix{i}.net"),
            city: CityId(city as u32 % CITIES),
            continent: Continent::Europe,
            route_server_asn: None,
        });
        asns(200, members).for_each(|a| colo.add_ixp_member(id, a));
        for f in 0..spec.facilities.len() {
            if fabric & (1 << f) != 0 {
                colo.link_ixp_facility(id, FacilityId(f as u32));
            }
        }
    }
    let mut orgs = OrgMap::new();
    let ids = [orgs.add_org("A"), orgs.add_org("B"), orgs.add_org("C")];
    asns(100, spec.sibling_nears as u32 & ((1 << NEARS) - 1)).for_each(|a| orgs.assign(a, ids[0]));
    for &(a, org) in &spec.orgs {
        let a = a as u32 % (NEARS + FARS);
        let asn = if a < NEARS { Asn(100 + a) } else { Asn(200 + a - NEARS) };
        orgs.assign(asn, ids[org as usize]);
    }
    let mut remoteness = RemotenessMap::new();
    let hop = |owner, rtt_ms| TraceHop { addr: IpAddr::from([10, 0, 0, 1]), owner, rtt_ms };
    let entry = IfaceOwner::FacilityPort { asn: Asn(1), facility: FacilityId(0) };
    for &(x, fars, remote) in spec.remote.iter().filter(|_| !spec.ixps.is_empty()) {
        let ixp = IxpId(x as u32 % spec.ixps.len() as u32);
        let step = if remote { 12.0 } else { 0.4 };
        for asn in asns(200, fars) {
            let lan = IfaceOwner::IxpLan { asn, ixp };
            remoteness.observe_trace(&[hop(entry, 1.0), hop(lan, 1.0 + step)]);
        }
    }
    (colo, orgs, remoteness)
}

/// The bin: each signal's far ends are stable at its tag for its near
/// end; every near end of a signaled tag has its stable far ends listed,
/// signaling or not.
fn outcome(spec: &Spec) -> BinOutcome {
    let tags = tags(spec);
    let tag_of = |focus: u8| {
        let t = spec.focus[focus as usize % spec.focus.len()];
        (t as usize % tags.len(), tags[t as usize % tags.len()])
    };
    let stable_at = |t: usize, near: u32| {
        spec.tag_stable[t % spec.tag_stable.len()] & spec.near_stable[near as usize]
    };
    let mut out = BinOutcome { bin_start: 600, ..BinOutcome::default() };
    let mut signaled: BTreeMap<LocationTag, (usize, BTreeMap<u32, u32>)> = BTreeMap::new();
    for &(focus, near, far, keys) in &spec.signals {
        let (t, pop) = tag_of(focus);
        let near = near as u32 % NEARS;
        let far = far & spec.tag_stable[t % spec.tag_stable.len()];
        if far == 0 {
            continue;
        }
        let deviated: Vec<RouteKey> = (0..8).filter(|i| keys & (1 << i) != 0).map(key).collect();
        out.signals.push(OutageSignal {
            pop,
            near: Asn(100 + near),
            bin_start: 600,
            stable_total: deviated.len().max(1),
            deviated,
            far_ases: asns(200, far).collect(),
            fraction: 1.0,
        });
        *signaled.entry(pop).or_insert((t, BTreeMap::new())).1.entry(near).or_insert(0) |= far;
    }
    for (pop, (t, hit)) in signaled {
        let by_near = (0..NEARS).map(|near| {
            let stable = stable_at(t, near) | hit.get(&near).copied().unwrap_or(0);
            (Asn(100 + near), asns(200, stable).collect::<BTreeSet<Asn>>())
        });
        out.stable_fars.insert(pop, by_near.collect());
    }
    out
}

fn both(spec: &Spec) -> (BinInvestigation, BinInvestigation) {
    let (colo, orgs, remoteness) = world(spec);
    let outcome = outcome(spec);
    let reference = ReferenceLocalizer { colo: &colo, orgs: &orgs, remoteness: &remoteness };
    let expected = reference.investigate(&outcome);
    let investigator = Investigator::new(KeplerConfig::default(), colo.clone(), orgs.clone())
        .with_remoteness(remoteness.clone());
    (investigator.investigate(&outcome), expected)
}

proptest! {
    #[test]
    fn investigator_matches_the_reference(spec in spec()) {
        let (got, expected) = both(&spec);
        prop_assert_eq!(got, expected);
    }
}

/// The generator reaches every verdict the differential holds the
/// investigator to within 256 cases: each dismissal
/// class, incidents at each scope kind, pendings with and without a
/// fallback, and unresolved clusters.
#[test]
fn generated_bins_reach_every_verdict() {
    let strategy = spec();
    let seed = proptest::seed_for_test("generated_bins_reach_every_verdict");
    let mut reached: BTreeMap<&str, usize> = BTreeMap::new();
    for case in 0..256 {
        let spec = strategy.generate(&mut proptest::TestRng::for_case(seed, case));
        let (got, _) = both(&spec);
        for (_, class) in &got.dismissed {
            *reached
                .entry(match class {
                    SignalClass::LinkLevel => "link-level",
                    SignalClass::AsLevel => "AS-level",
                    SignalClass::OperatorLevel => "operator-level",
                    SignalClass::PopLevel => "PoP-level dismissed",
                })
                .or_default() += 1;
        }
        for inc in &got.incidents {
            *reached
                .entry(match inc.scope {
                    OutageScope::Facility(_) => "facility incident",
                    OutageScope::Ixp(_) => "IXP incident",
                    OutageScope::City(_) => "city incident",
                })
                .or_default() += 1;
        }
        for p in &got.pending {
            let kind = if p.fallback.is_some() { "pending with fallback" } else { "pending alone" };
            *reached.entry(kind).or_default() += 1;
        }
        *reached.entry("unresolved").or_default() += got.unresolved.len();
    }
    for kind in [
        "link-level",
        "AS-level",
        "operator-level",
        "facility incident",
        "IXP incident",
        "city incident",
        "pending with fallback",
        "pending alone",
        "unresolved",
    ] {
        assert!(reached.get(kind).is_some_and(|&n| n > 0), "no {kind} in 256 cases: {reached:?}");
    }
    assert!(!reached.contains_key("PoP-level dismissed"), "{reached:?}");
}

/// Buildings 0, 1 and 2 of city 0 each lose every tenant in one bin: both
/// localizers report the city. The tracker instead narrows an ongoing
/// city incident to one building that signals in a later bin
/// (`tracker::tests::a_later_building_narrows_an_ongoing_city_incident`);
/// settling on one rule is ROADMAP item 15 step 1.
#[test]
fn three_buildings_of_one_city_in_one_bin_are_the_city() {
    let buildings = [0x000f, 0x00f0, 0x0f00];
    let signals = (0..3u8)
        .flat_map(|b| (0..3u8).map(move |near| (b, near, buildings[b as usize], 1 << b)))
        .collect();
    let spec = Spec {
        facilities: buildings.iter().map(|&m| (0, m)).collect(),
        ixps: Vec::new(),
        sibling_nears: 0,
        orgs: Vec::new(),
        remote: Vec::new(),
        focus: vec![0, 1, 2],
        tag_stable: vec![FULL],
        near_stable: vec![FULL; NEARS as usize],
        signals,
    };
    let (got, expected) = both(&spec);
    assert_eq!(got, expected);
    let scopes: Vec<OutageScope> = got.incidents.iter().map(|i| i.scope).collect();
    assert_eq!(scopes, [OutageScope::City(CityId(0))]);
}

/// An IXP tag whose two fabric facilities both hold all 19 affected far
/// ends: facility 0 also hosts a 20th stable one (coverage 95 %),
/// facility 1 does not (100 %). Both pass, tied on containment, and the
/// tie goes to the lowest id — a rule generated worlds almost never reach.
#[test]
fn a_containment_tie_between_fabric_facilities_goes_to_the_lowest_id() {
    let affected: u32 = (1 << 19) - 1;
    // Three near ends split the affected far ends between them.
    let signals = [0x3f, 0xfc1, 0x7f001].iter().zip(0..).map(|(&f, n)| (0, n, f, 1)).collect();
    let spec = Spec {
        facilities: vec![(0, affected | 1 << 19), (0, affected)],
        ixps: vec![(0, FULL, 0b11)],
        sibling_nears: 0,
        orgs: Vec::new(),
        remote: Vec::new(),
        focus: vec![3],
        tag_stable: vec![FULL],
        near_stable: vec![FULL; NEARS as usize],
        signals,
    };
    assert_eq!(tags(&spec)[3], LocationTag::Ixp(IxpId(0)));
    let (got, expected) = both(&spec);
    assert_eq!(got, expected);
    let scopes: Vec<OutageScope> = got.incidents.iter().map(|i| i.scope).collect();
    assert_eq!(scopes, [OutageScope::Facility(FacilityId(0))]);
}
