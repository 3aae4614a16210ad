//! Differential property tests for the monitor's two fast paths, each
//! against its one reference. The same generated stream goes through
//!
//! * a monitor that may skip empty stretches in [`Monitor::advance_to`]
//!   and one that cannot (a `watch` on a PoP no route crosses forces the
//!   bin-by-bin walk), and
//! * [`ModelMonitor`], which keeps no stable index and no promotion queue:
//!   at every bin end it recomputes each group's totals and far/near
//!   splits from the baseline table and promotes by scanning every route.
//!
//! All must raise the same signals with the same denominators, in the
//! same bins, and end with the same stable set and coverage. The stream
//! includes backwards time steps and routes that list one (PoP, near-end)
//! twice, and the skipping monitor is finally driven to the top of the
//! `u64` clock: no panic, and bin starts only ever increase.

use kepler_bgp::{Asn, Prefix};
use kepler_bgpstream::{CollectorId, PeerId};
use kepler_core::config::KeplerConfig;
use kepler_core::events::RouteKey;
use kepler_core::input::PopCrossing;
use kepler_core::intern::{Interner, PopId};
use kepler_core::monitor::{BinOutcome, DenseBinOutcome, Monitor, OutageSignal};
use kepler_docmine::LocationTag;
use kepler_topology::{FacilityId, IxpId};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

mod route_event;
use route_event::RouteEvent;

/// The paper's 2-day stability window, spelled out here rather than
/// imported so the model pins the value the monitor uses.
const STABLE_SECS: u64 = 2 * 86_400;

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
    let crossings = prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..4);
    prop_oneof![
        (any::<u8>(), crossings, any::<bool>()).prop_map(|(key, mut crossings, repeat)| {
            // Half the updates cross their first (PoP, near-end) a second
            // time, through another far end.
            if let (true, Some(&(pop, near, far))) = (repeat, crossings.first()) {
                crossings.push((pop, near, far.wrapping_add(1)));
            }
            Op::Update { key: key % 24, crossings }
        }),
        any::<u8>().prop_map(|key| Op::Withdraw { key: key % 24 }),
        // Mix of intra-bin jitter, multi-day jumps and jumps of about the
        // stability window, so streams cross it, land on either side of a
        // deadline and produce real deviation bins.
        prop_oneof![1u32..300, 50_000u32..300_000, 170_000u32..175_000]
            .prop_map(|dt| Op::Advance { dt }),
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
    /// `pop_coverage` of every interned PoP, by `PopId`.
    coverage: Vec<(usize, usize)>,
}

type Group = (LocationTag, Asn);

/// Group → (stable routes crossing it, far end → stable crossings).
type Groups = BTreeMap<Group, (BTreeSet<RouteKey>, BTreeMap<Asn, usize>)>;

/// The reference monitor: display-typed `BTreeMap`s, no stable index, no
/// promotion queue. Everything a bin close reports is recomputed from the
/// baseline table, and promotion scans every announced route.
#[derive(Default)]
struct ModelMonitor {
    config: KeplerConfig,
    /// Route → its announced crossings and when they last changed.
    current: BTreeMap<RouteKey, (Vec<PopCrossing>, u64)>,
    baseline: BTreeMap<RouteKey, Vec<PopCrossing>>,
    /// Group → the open bin's deviated routes and their far ends.
    deviations: BTreeMap<Group, (BTreeSet<RouteKey>, BTreeSet<Asn>)>,
    coverage: BTreeMap<LocationTag, (BTreeSet<Asn>, BTreeSet<Asn>)>,
    bin_start: Option<u64>,
    /// Closed bins that raised a signal.
    signals: Vec<BinOutcome>,
}

impl ModelMonitor {
    fn new(config: KeplerConfig) -> Self {
        ModelMonitor { config, ..Default::default() }
    }

    fn observe(&mut self, t: u64, event: &RouteEvent) {
        self.advance_to(t);
        let (key, crossings) = match event {
            RouteEvent::Update { key, crossings } => (key, Some(crossings)),
            RouteEvent::Withdraw { key } => (key, None),
        };
        // A stable crossing whose group the route no longer lists deviates.
        for c in self.baseline.get(key).into_iter().flatten() {
            let kept = crossings.is_some_and(|new| new.iter().any(|n| group(n) == group(c)));
            if !kept {
                let bin = self.deviations.entry(group(c)).or_default();
                bin.0.insert(*key);
                bin.1.insert(c.far);
            }
        }
        match crossings {
            None => {
                self.current.remove(key);
            }
            Some(new) if self.current.get(key).is_some_and(|(cur, _)| cur == new) => {}
            Some(new) => {
                self.current.insert(*key, (new.clone(), t));
            }
        }
    }

    fn advance_to(&mut self, t: u64) {
        let bin_secs = self.config.bin_secs;
        let Some(start) = self.bin_start else {
            self.bin_start = Some(t - t % bin_secs);
            return;
        };
        if t < start + bin_secs {
            return;
        }
        // Only the open bin can hold deviations; the bins after it, up to
        // the one `t` falls in, have nothing to report or prune, and what
        // they would promote is what their last bin end promotes.
        self.close_bin(start);
        let open = t - t % bin_secs;
        self.promote(open);
        self.bin_start = Some(open);
    }

    /// The stable index, from scratch.
    fn groups(&self) -> Groups {
        let mut groups = Groups::new();
        for (key, crossings) in &self.baseline {
            for c in crossings {
                let entry = groups.entry(group(c)).or_default();
                entry.0.insert(*key);
                *entry.1.entry(c.far).or_insert(0) += 1;
            }
        }
        groups
    }

    fn close_bin(&mut self, bin_start: u64) {
        let groups = self.groups();
        let mut out = BinOutcome { bin_start, ..Default::default() };
        for (&(pop, near), (routes, fars)) in &self.deviations {
            let stable_total = groups.get(&(pop, near)).map_or(0, |g| g.0.len());
            let fraction = routes.len() as f64 / stable_total as f64;
            if stable_total >= self.config.min_stable_paths && fraction > self.config.t_fail {
                out.signals.push(OutageSignal {
                    pop,
                    near,
                    bin_start,
                    deviated: routes.iter().copied().collect(),
                    stable_total,
                    far_ases: fars.clone(),
                    fraction,
                });
            }
        }
        out.signals.sort_by_key(|s| (pop_rank(&s.pop), s.near));
        // Denominators of the signaled PoPs, before pruning.
        for (&(pop, near), (routes, fars)) in &groups {
            if out.signals.iter().any(|s| s.pop == pop) {
                out.stable_nears.entry(pop).or_default().insert(near, routes.len());
                out.stable_fars.entry(pop).or_default().insert(near, fars.clone());
            }
        }
        if !out.signals.is_empty() {
            self.signals.push(out);
        }
        for (routes, _) in std::mem::take(&mut self.deviations).into_values() {
            for route in routes {
                self.baseline.remove(&route);
            }
        }
        self.promote(bin_start + self.config.bin_secs);
    }

    /// Every located route unchanged for the stability window is stable.
    fn promote(&mut self, now: u64) {
        for (key, (crossings, since)) in &self.current {
            let due = since.checked_add(STABLE_SECS);
            if due.is_some_and(|due| due <= now) && !crossings.is_empty() {
                self.baseline.insert(*key, crossings.clone());
                for c in crossings {
                    let coverage = self.coverage.entry(c.pop).or_default();
                    coverage.0.insert(c.near);
                    coverage.1.insert(c.far);
                }
            }
        }
    }

    fn run(self, interner: &Interner) -> Run {
        let groups = self.groups();
        let pops: Vec<LocationTag> =
            (0..interner.pops_len() as u32).map(|p| interner.pop_tag(PopId(p))).collect();
        let stable = |pop: &LocationTag| {
            groups.iter().filter(|(g, _)| g.0 == *pop).map(|(_, (routes, _))| routes.len()).sum()
        };
        let coverage = |pop: &LocationTag| {
            self.coverage.get(pop).map_or((0, 0), |(nears, fars)| (nears.len(), fars.len()))
        };
        Run {
            baseline: self.baseline.len(),
            stable: pops.iter().map(stable).collect(),
            coverage: pops.iter().map(coverage).collect(),
            signals: self.signals,
        }
    }
}

fn group(c: &PopCrossing) -> Group {
    (c.pop, c.near)
}

/// The display order of signals within a bin: facilities, IXPs, cities.
fn pop_rank(pop: &LocationTag) -> (u8, u32) {
    match pop {
        LocationTag::Facility(f) => (0, f.0),
        LocationTag::Ixp(x) => (1, x.0),
        LocationTag::City(c) => (2, c.0),
    }
}

/// Feeds one op stream to a skipping monitor, a walking monitor and the
/// reference model in lockstep.
fn run_all(ops: &[Op]) -> [Run; 3] {
    let config = KeplerConfig { min_stable_paths: 1, ..KeplerConfig::default() };
    let mut interner = Interner::new();
    let mut skipping = Monitor::new(config.clone());
    let mut walking = Monitor::new(config.clone());
    walking.watch(interner.pop_id(IDLE_POP));
    let mut model = ModelMonitor::new(config);
    let (mut skipped, mut walked) = (Vec::new(), Vec::new());
    let mut t = 1_000_000u64;
    for op in ops {
        let event = match op {
            Op::Update { key: k, crossings } => Some(RouteEvent::Update {
                key: key(*k),
                crossings: crossings.iter().map(|&(p, n, f)| crossing(p, n, f)).collect(),
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
                let ev = event.intern(&mut interner);
                skipped.extend(skipping.observe(t, &ev));
                walked.extend(walking.observe(t, &ev));
                model.observe(t, &event);
            }
            None => {
                skipped.extend(skipping.advance_to(t));
                walked.extend(walking.advance_to(t));
                model.advance_to(t);
            }
        }
    }
    skipped.extend(skipping.advance_to(t + 200_000));
    walked.extend(walking.advance_to(t + 200_000));
    model.advance_to(t + 200_000);
    let summarize = |m: &Monitor, closed: &[DenseBinOutcome]| Run {
        signals: closed
            .iter()
            .filter(|o| !o.signals.is_empty())
            .map(|o| o.resolve(&interner))
            .collect(),
        baseline: m.baseline_size(),
        stable: (0..interner.pops_len() as u32).map(|p| m.stable_count(PopId(p))).collect(),
        coverage: (0..interner.pops_len() as u32).map(|p| m.pop_coverage(PopId(p))).collect(),
    };
    let runs = [summarize(&skipping, &skipped), summarize(&walking, &walked), model.run(&interner)];
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

/// A route flapped 10 000 times (one queue entry, re-armed as it pops)
/// becomes stable in exactly the bin the model's scan says: walking the
/// bins around its last deadline, the two never disagree.
#[test]
fn flapped_route_is_promoted_in_the_bin_the_model_says() {
    let config = KeplerConfig::default();
    let (mut interner, mut monitor) = (Interner::new(), Monitor::new(config.clone()));
    let mut model = ModelMonitor::new(config.clone());
    let t0 = 1_000_000u64;
    for i in 0..10_000u64 {
        let flap = vec![crossing(2 * (i % 2) as u8, 0, 0)];
        let event = RouteEvent::Update { key: key(0), crossings: flap };
        monitor.observe(t0 + i, &event.intern(&mut interner));
        model.observe(t0 + i, &event);
    }
    let deadline = t0 + 9_999 + STABLE_SECS;
    let mut sizes = Vec::new();
    for t in (deadline - 600..deadline + 600).step_by(config.bin_secs as usize) {
        monitor.advance_to(t);
        model.advance_to(t);
        assert_eq!(monitor.baseline_size(), model.baseline.len(), "at {t}");
        sizes.push(model.baseline.len());
    }
    assert_eq!((sizes[0], sizes[sizes.len() - 1]), (0, 1), "the walk straddles the promotion");
}

// Default config: 64 cases, or `PROPTEST_CASES` (CI runs 512 in release).
proptest! {
    /// Skipping an empty stretch in one step is indistinguishable from
    /// closing its bins one by one.
    #[test]
    fn bin_skip_matches_the_bin_by_bin_walk(ops in prop::collection::vec(arb_op(), 1..100)) {
        let [skip, walk, _] = run_all(&ops);
        prop_assert_eq!(skip, walk);
    }

    /// Counts kept at promote/prune time and a one-entry-per-route
    /// deadline queue are indistinguishable from recomputing every group
    /// from the baseline table and scanning every route at each bin end.
    #[test]
    fn counted_index_matches_the_reference_model(ops in prop::collection::vec(arb_op(), 1..100)) {
        let [skip, _, model] = run_all(&ops);
        prop_assert_eq!(skip, model);
    }
}
