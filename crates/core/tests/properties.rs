//! Property-based tests for the detector's monitoring invariants.

use kepler_bgp::{Asn, Prefix};
use kepler_bgpstream::{CollectorId, PeerId};
use kepler_core::config::KeplerConfig;
use kepler_core::events::RouteKey;
use kepler_core::input::PopCrossing;
use kepler_core::intern::Interner;
use kepler_core::monitor::Monitor;
use kepler_docmine::LocationTag;
use kepler_topology::FacilityId;
use proptest::prelude::*;

mod route_event;
use route_event::RouteEvent;

fn key(i: u8) -> RouteKey {
    RouteKey {
        collector: CollectorId(0),
        peer: PeerId { asn: Asn(1 + (i % 4) as u32), addr: "10.0.0.1".parse().unwrap() },
        prefix: Prefix::v4(20, i, 0, 0, 16),
    }
}

fn crossing(pop: u8, near: u8, far: u8) -> PopCrossing {
    PopCrossing {
        pop: LocationTag::Facility(FacilityId(pop as u32 % 5)),
        near: Asn(100 + (near % 6) as u32),
        far: Asn(200 + (far % 6) as u32),
    }
}

#[derive(Debug, Clone)]
enum Op {
    Update { key: u8, crossings: Vec<(u8, u8, u8)> },
    Withdraw { key: u8 },
    Advance { dt: u32 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..4))
            .prop_map(|(key, crossings)| Op::Update { key: key % 16, crossings }),
        any::<u8>().prop_map(|key| Op::Withdraw { key: key % 16 }),
        (1u32..200_000).prop_map(|dt| Op::Advance { dt }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The monitor never panics, bins close in order, signal fractions are
    /// in (0, 1], deviated counts never exceed the stable denominator, and
    /// the baseline only contains keys that currently have a route.
    #[test]
    fn monitor_invariants(ops in prop::collection::vec(arb_op(), 1..120)) {
        let mut interner = Interner::new();
        let mut m = Monitor::new(KeplerConfig { min_stable_paths: 1, ..KeplerConfig::default() });
        let mut t = 1_000_000u64;
        let mut last_bin = 0u64;
        for op in ops {
            let outcomes = match op {
                Op::Update { key: k, crossings } => {
                    let cs: Vec<PopCrossing> =
                        crossings.iter().map(|&(p, n, f)| crossing(p, n, f)).collect();
                    let ev = RouteEvent::Update { key: key(k), crossings: cs }.intern(&mut interner);
                    m.observe(t, &ev)
                }
                Op::Withdraw { key: k } => {
                    let ev = RouteEvent::Withdraw { key: key(k) }.intern(&mut interner);
                    m.observe(t, &ev)
                }
                Op::Advance { dt } => {
                    t += dt as u64;
                    m.advance_to(t)
                }
            };
            for o in outcomes.iter().map(|o| o.resolve(&interner)) {
                prop_assert!(o.bin_start >= last_bin, "bins close in order");
                last_bin = o.bin_start;
                for s in &o.signals {
                    prop_assert!(s.fraction > 0.0 && s.fraction <= 1.0, "fraction {}", s.fraction);
                    prop_assert!(s.deviated.len() <= s.stable_total);
                    prop_assert!(!s.far_ases.is_empty());
                }
            }
        }
        // Coverage counters are monotone upper bounds on current stability.
        for tag in (0..5).map(|i| LocationTag::Facility(FacilityId(i))) {
            let (n, f, stable) = match interner.lookup_pop(tag) {
                Some(pop) => {
                    let (n, f) = m.pop_coverage(pop);
                    (n, f, m.stable_count(pop))
                }
                None => (0, 0, 0),
            };
            prop_assert!(stable == 0 || (n >= 1 && f >= 1));
            let _ = (n, f, stable);
        }
    }

    /// After promotion, stable counts per PoP equal the number of distinct
    /// keys whose crossings reference the PoP.
    #[test]
    fn stable_counts_match_baseline(keys in prop::collection::btree_set(0u8..16, 1..12)) {
        let mut interner = Interner::new();
        let mut m = Monitor::new(KeplerConfig { min_stable_paths: 1, ..KeplerConfig::default() });
        let t0 = 1_000_000u64;
        for &k in &keys {
            let ev = RouteEvent::Update { key: key(k), crossings: vec![crossing(k % 3, k, k)] }
                .intern(&mut interner);
            m.observe(t0, &ev);
        }
        m.advance_to(t0 + 3 * 86_400);
        prop_assert_eq!(m.baseline_size(), keys.len());
        let total: usize = (0..5)
            .filter_map(|i| interner.lookup_pop(LocationTag::Facility(FacilityId(i))))
            .map(|pop| m.stable_count(pop))
            .sum();
        prop_assert_eq!(total, keys.len());
    }
}
