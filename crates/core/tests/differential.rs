//! Differential property test for the monitor's one fast path: the
//! empty-stretch bin skip in [`Monitor::advance_to`]. The same generated
//! stream goes through a monitor that may skip and through one that
//! cannot (a `watch` on a PoP no route crosses forces the bin-by-bin
//! walk); both must raise the same signals, in the same bins, and end
//! with the same stable set. The stream includes backwards time steps,
//! and the skipping monitor is finally driven to the top of the `u64`
//! clock: no panic, and bin starts only ever increase.

use kepler_bgp::{Asn, Prefix};
use kepler_bgpstream::{CollectorId, PeerId};
use kepler_core::config::KeplerConfig;
use kepler_core::events::RouteKey;
use kepler_core::input::{PopCrossing, RouteEvent};
use kepler_core::intern::{Interner, PopId};
use kepler_core::monitor::{BinOutcome, DenseBinOutcome, Monitor};
use kepler_docmine::LocationTag;
use kepler_topology::{FacilityId, IxpId};
use proptest::prelude::*;

fn key(i: u8) -> RouteKey {
    RouteKey {
        collector: CollectorId((i % 3) as u16),
        peer: PeerId { asn: Asn(1 + (i % 4) as u32), addr: "10.0.0.1".parse().unwrap() },
        prefix: Prefix::v4(20, i, 0, 0, 16),
    }
}

fn crossing(pop: u8, near: u8, far: u8) -> PopCrossing {
    let tag = if pop.is_multiple_of(2) {
        LocationTag::Facility(FacilityId((pop as u32 / 2) % 4))
    } else {
        LocationTag::Ixp(IxpId((pop as u32 / 2) % 3))
    };
    PopCrossing { pop: tag, near: Asn(100 + (near % 5) as u32), far: Asn(200 + (far % 6) as u32) }
}

/// A facility outside [`crossing`]'s range: watching it changes nothing
/// but disables the skip.
const IDLE_POP: LocationTag = LocationTag::Facility(FacilityId(99));

#[derive(Debug, Clone)]
enum Op {
    Update { key: u8, crossings: Vec<(u8, u8, u8)> },
    Withdraw { key: u8 },
    Advance { dt: u32 },
    Rewind { dt: u32 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..4))
            .prop_map(|(key, crossings)| Op::Update { key: key % 24, crossings }),
        any::<u8>().prop_map(|key| Op::Withdraw { key: key % 24 }),
        // Mix of intra-bin jitter and multi-day jumps so streams cross the
        // stability window and produce real deviation bins.
        prop_oneof![1u32..300, 50_000u32..300_000].prop_map(|dt| Op::Advance { dt }),
        // Out-of-order feed: later events carry an earlier timestamp.
        (1u32..5_000).prop_map(|dt| Op::Rewind { dt }),
    ]
}

/// What one monitor made of a stream.
#[derive(Debug, PartialEq)]
struct Run {
    /// Resolved outcomes that carry a signal, in emission order.
    signals: Vec<BinOutcome>,
    baseline: usize,
    /// `stable_count` of every interned PoP, by `PopId`.
    stable: Vec<usize>,
}

/// Feeds one op stream to a skipping and a walking monitor in lockstep.
fn run_both(ops: &[Op]) -> (Run, Run) {
    let config = KeplerConfig { min_stable_paths: 1, ..KeplerConfig::default() };
    let mut interner = Interner::new();
    let mut skipping = Monitor::new(config.clone());
    let mut walking = Monitor::new(config);
    walking.watch(interner.pop_id(IDLE_POP));
    let (mut skipped, mut walked) = (Vec::new(), Vec::new());
    let mut t = 1_000_000u64;
    for op in ops {
        let event = match op {
            Op::Update { key: k, crossings } => Some(RouteEvent::Update {
                key: key(*k),
                crossings: crossings.iter().map(|&(p, n, f)| crossing(p, n, f)).collect(),
                hops: vec![],
            }),
            Op::Withdraw { key: k } => Some(RouteEvent::Withdraw { key: key(*k) }),
            Op::Advance { dt } => {
                t += *dt as u64;
                None
            }
            Op::Rewind { dt } => {
                t = t.saturating_sub(*dt as u64);
                None
            }
        };
        match event {
            Some(event) => {
                let ev = interner.intern_event(&event);
                skipped.extend(skipping.observe(t, &ev));
                walked.extend(walking.observe(t, &ev));
            }
            None => {
                skipped.extend(skipping.advance_to(t));
                walked.extend(walking.advance_to(t));
            }
        }
    }
    skipped.extend(skipping.advance_to(t + 200_000));
    walked.extend(walking.advance_to(t + 200_000));
    let summarize = |m: &Monitor, closed: &[DenseBinOutcome]| Run {
        signals: closed
            .iter()
            .filter(|o| !o.signals.is_empty())
            .map(|o| o.resolve(&interner))
            .collect(),
        baseline: m.baseline_size(),
        stable: (0..interner.pops_len() as u32).map(|p| m.stable_count(PopId(p))).collect(),
    };
    let runs = (summarize(&skipping, &skipped), summarize(&walking, &walked));
    // Only the skipping monitor can reach the top of the clock: the
    // walking one would have to close ~3e17 bins on the way.
    skipped.extend(skipping.advance_to(u64::MAX - 1));
    for closed in [&skipped, &walked] {
        assert!(
            closed.windows(2).all(|w| w[0].bin_start < w[1].bin_start),
            "bin starts must strictly increase"
        );
    }
    runs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Skipping an empty stretch in one step is indistinguishable from
    /// closing its bins one by one.
    #[test]
    fn bin_skip_matches_the_bin_by_bin_walk(ops in prop::collection::vec(arb_op(), 1..100)) {
        let (skip, walk) = run_both(&ops);
        prop_assert_eq!(skip, walk);
    }
}
