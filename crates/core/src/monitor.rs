//! Monitoring module (paper §4.2), rebuilt on dense interned identities.
//!
//! Maintains the stable-path baseline and bins route events at
//! `bin_secs`. A route is *stable* once its located crossings have been
//! unchanged for `stable_secs` (default 2 days). Within each bin, any
//! stable route that loses a (PoP, near-end AS) crossing — by explicit
//! withdrawal, by moving to a path without the PoP, or by an announcement
//! with a different community (*implicit withdrawal*) — counts as a
//! deviation for that group. At bin close, groups whose deviation fraction
//! exceeds `T_fail` raise outage signals; changed paths leave the stable
//! set. Grouping per near-end AS avoids the Tier-1 bias the paper warns
//! about: an aggregate fraction would hide partial outages that spare one
//! huge AS.
//!
//! # Hot-path layout
//!
//! All per-event state is keyed by dense ids from [`crate::intern`]:
//! `current`, `baseline` and `queued` are flat `Vec`s indexed by
//! [`RouteId`] and `presence` one indexed by [`PopId`] (so the per-event
//! lookups are array indexing, not hashing), a bin's deviations are one
//! small-int map keyed by packed `(PopId, AsnId)` words, and crossing
//! lists are shared `Arc<[DenseCrossing]>` snapshots. The stable index
//! holds *counts* per group, kept at promote/prune time, so nothing at bin
//! close walks the routes of a group; stability deadlines sit in a FIFO
//! (push and pop O(1)) with a heap only for stragglers whose timestamp ran
//! backwards. [`Monitor`] is one sequential struct — route tables, stable
//! index, promotion queue, bin clock and watches — and the only monitor
//! (`ARCHITECTURE.md` records the measurements behind both).

use crate::config::KeplerConfig;
use crate::events::RouteKey;
use crate::fx::{FxHashMap, FxHashSet};
use crate::intern::{
    pack_group, unpack_group, AsnId, DenseCrossing, DenseRouteEvent, GroupKey, Interner, PopId,
    RouteId,
};
use kepler_bgp::Asn;
use kepler_bgpstream::Timestamp;
use kepler_docmine::LocationTag;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::num::NonZeroU64;
use std::sync::Arc;

/// One (PoP, near-end AS) group whose stable paths deviated beyond
/// `T_fail` within a bin — display form, produced by
/// [`DenseBinOutcome::resolve`] at report time.
#[derive(Debug, Clone, PartialEq)]
pub struct OutageSignal {
    /// The PoP the paths left.
    pub pop: LocationTag,
    /// The near-end AS group.
    pub near: Asn,
    /// Bin start time.
    pub bin_start: Timestamp,
    /// The deviated stable routes.
    pub deviated: Vec<RouteKey>,
    /// Stable routes in the group before the bin.
    pub stable_total: usize,
    /// Far-end ASes of the deviated crossings.
    pub far_ases: BTreeSet<Asn>,
    /// Deviation fraction.
    pub fraction: f64,
}

/// Everything a closed bin hands to the investigator — display form.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BinOutcome {
    /// Bin start time.
    pub bin_start: Timestamp,
    /// Raised signals.
    pub signals: Vec<OutageSignal>,
    /// For each signaled PoP: stable far-end ASes with path counts, broken
    /// down by near-end AS (denominators for the colocation coverage
    /// checks — the paper scopes them to the *affected* near-ends).
    /// Snapshotted before stable-set pruning.
    pub stable_fars: HashMap<LocationTag, BTreeMap<Asn, BTreeMap<Asn, usize>>>,
    /// For each signaled PoP: stable near-end ASes with path counts.
    pub stable_nears: HashMap<LocationTag, BTreeMap<Asn, usize>>,
}

/// An outage signal in dense-id space.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseOutageSignal {
    /// The PoP the paths left.
    pub pop: PopId,
    /// The near-end AS group.
    pub near: AsnId,
    /// Bin start time.
    pub bin_start: Timestamp,
    /// The deviated stable routes (unsorted; display order is established
    /// at resolve time).
    pub deviated: Vec<RouteId>,
    /// Stable routes in the group before the bin.
    pub stable_total: usize,
    /// Far-end ASes of the deviated crossings (deduplicated, unsorted).
    pub far_ases: Vec<AsnId>,
    /// Deviation fraction.
    pub fraction: f64,
}

/// A closed bin in dense-id space. Field order inside the vectors is
/// unspecified; [`resolve`](DenseBinOutcome::resolve) produces the
/// deterministic display form.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DenseBinOutcome {
    /// Bin start time.
    pub bin_start: Timestamp,
    /// Raised signals.
    pub signals: Vec<DenseOutageSignal>,
    /// Per signaled PoP: near-end → (far-end → stable path count).
    pub stable_fars: Vec<(PopId, PopFars)>,
    /// Per signaled PoP: near-end → stable path count.
    pub stable_nears: Vec<(PopId, PopNears)>,
    /// Per presence-watched PoP: crossings on currently announced routes
    /// at bin close (the forecast detector's input series). Empty unless
    /// presence watches are registered, so plain runs are unchanged.
    pub watch_presence: Vec<(PopId, u64)>,
}

/// Stable far-end ASes of one PoP with path counts, grouped by near-end.
pub type PopFars = Vec<(AsnId, Vec<(AsnId, usize)>)>;

/// Stable near-end ASes of one PoP with path counts.
pub type PopNears = Vec<(AsnId, usize)>;

impl DenseBinOutcome {
    /// Resolves dense ids back to display types, restoring the canonical
    /// ordering (signals by PoP kind/id then near-end ASN, route lists by
    /// `RouteKey`). This is the only place the per-bin path touches fat
    /// keys, and it runs once per *closed bin*, not per event.
    pub fn resolve(&self, interner: &Interner) -> BinOutcome {
        let mut out = BinOutcome { bin_start: self.bin_start, ..Default::default() };
        for s in &self.signals {
            let mut deviated: Vec<RouteKey> =
                s.deviated.iter().map(|&r| interner.route_key(r)).collect();
            deviated.sort();
            out.signals.push(OutageSignal {
                pop: interner.pop_tag(s.pop),
                near: interner.asn(s.near),
                bin_start: s.bin_start,
                deviated,
                stable_total: s.stable_total,
                far_ases: s.far_ases.iter().map(|&a| interner.asn(a)).collect(),
                fraction: s.fraction,
            });
        }
        out.signals.sort_by_key(|s| (pop_order(&s.pop), s.near));
        for (pop, by_near) in &self.stable_fars {
            let entry = out.stable_fars.entry(interner.pop_tag(*pop)).or_default();
            for (near, fars) in by_near {
                let near_entry = entry.entry(interner.asn(*near)).or_default();
                for (far, n) in fars {
                    *near_entry.entry(interner.asn(*far)).or_insert(0) += n;
                }
            }
        }
        for (pop, nears) in &self.stable_nears {
            let entry = out.stable_nears.entry(interner.pop_tag(*pop)).or_default();
            for (near, n) in nears {
                *entry.entry(interner.asn(*near)).or_insert(0) += n;
            }
        }
        out
    }
}

#[derive(Debug, Clone)]
struct CurrentRoute {
    crossings: Arc<[DenseCrossing]>,
    since: Timestamp,
}

/// The stable paths of one (PoP, near-end AS) group, as counts: §4.2's
/// baseline never asks *which* routes cross a group.
#[derive(Default)]
struct GroupCount {
    /// Distinct stable routes crossing the group.
    routes: usize,
    /// Far-end AS → stable crossings. One per crossing: a route listing
    /// the group twice counts once in `routes` and twice here.
    fars: FxHashMap<AsnId, usize>,
}

/// One group's deviations within the open bin.
#[derive(Default)]
struct GroupBin {
    /// Deviated stable routes of the group.
    routes: FxHashSet<RouteId>,
    /// Far-end ASes of the deviated crossings.
    fars: FxHashSet<AsnId>,
}

/// The monitoring module: route tables, stable index, promotion queue,
/// bin clock and watch series in one single-threaded state machine.
pub struct Monitor {
    config: KeplerConfig,
    current: Vec<Option<CurrentRoute>>,
    baseline: Vec<Option<Arc<[DenseCrossing]>>>,
    baseline_len: usize,
    /// Group → its stable path counts.
    pop_index: FxHashMap<GroupKey, GroupCount>,
    /// PoP → near-end ASes with a live group (secondary index over
    /// `pop_index` for per-PoP queries).
    pop_groups: FxHashMap<PopId, FxHashSet<AsnId>>,
    /// Stability deadlines `(due, route)` in push order, which is also
    /// `due` order: one behind the tail (its timestamp ran backwards) goes
    /// to `stragglers` instead.
    promotions: VecDeque<(Timestamp, RouteId)>,
    stragglers: BinaryHeap<Reverse<(Timestamp, RouteId)>>,
    /// Per route, the deadline of its one live queue entry: a flapping
    /// route re-arms it on pop, so the route table bounds the queue.
    /// Non-zero keeps it 8 bytes a route; a deadline of 0 is due at once
    /// and goes untracked.
    queued: Vec<Option<NonZeroU64>>,
    deviations: FxHashMap<GroupKey, GroupBin>,
    /// High-water coverage per PoP: every near/far AS ever seen in a
    /// *stable* crossing. Determines which PoPs are trackable (the paper's
    /// ≥3 near-end + ≥3 far-end rule).
    coverage: FxHashMap<PopId, (FxHashSet<AsnId>, FxHashSet<AsnId>)>,
    /// Count of crossings on *currently announced* routes, indexed by
    /// [`PopId`] — the forecast detector's presence series. Maintained
    /// unconditionally (a presence watch may be registered after routes
    /// were announced, and must still sample the full count); pure extra
    /// state that never feeds the deviation path.
    presence: Vec<u64>,
    bin_start: Option<Timestamp>,
    watches: FxHashMap<PopId, Vec<(Timestamp, f64)>>,
    presence_watch: Vec<PopId>,
}

impl Monitor {
    /// A monitor with the given configuration.
    pub fn new(config: KeplerConfig) -> Self {
        Monitor {
            config,
            current: Vec::new(),
            baseline: Vec::new(),
            baseline_len: 0,
            pop_index: FxHashMap::default(),
            pop_groups: FxHashMap::default(),
            promotions: VecDeque::new(),
            stragglers: BinaryHeap::new(),
            queued: Vec::new(),
            deviations: FxHashMap::default(),
            coverage: FxHashMap::default(),
            presence: Vec::new(),
            bin_start: None,
            watches: FxHashMap::default(),
            presence_watch: Vec::new(),
        }
    }

    /// Applies one event to the route tables (no bin logic).
    fn apply(&mut self, t: Timestamp, event: &DenseRouteEvent) {
        match event {
            DenseRouteEvent::Withdraw { route } => {
                let slot = route.0 as usize;
                if let Some(Some(base)) = self.baseline.get(slot) {
                    let base = Arc::clone(base);
                    for c in base.iter() {
                        self.mark_deviation(c, *route);
                    }
                }
                if slot < self.current.len() {
                    if let Some(cur) = self.current[slot].take() {
                        for c in cur.crossings.iter() {
                            self.dec_presence(c.pop);
                        }
                    }
                }
            }
            DenseRouteEvent::Update { route, crossings } => {
                let slot = route.0 as usize;
                if let Some(Some(base)) = self.baseline.get(slot) {
                    let base = Arc::clone(base);
                    for c in base.iter() {
                        let still_there =
                            crossings.iter().any(|n| n.pop == c.pop && n.near == c.near);
                        if !still_there {
                            self.mark_deviation(c, *route);
                        }
                    }
                }
                if slot >= self.current.len() {
                    self.current.resize_with(slot + 1, || None);
                    self.queued.resize(slot + 1, None);
                }
                match &self.current[slot] {
                    Some(cur) if cur.crossings[..] == crossings[..] => {
                        // Same located route: stability clock keeps running.
                    }
                    _ => {
                        if let Some(cur) = self.current[slot].take() {
                            for c in cur.crossings.iter() {
                                self.dec_presence(c.pop);
                            }
                        }
                        for c in crossings.iter() {
                            let pop = c.pop.0 as usize;
                            if pop >= self.presence.len() {
                                self.presence.resize(pop + 1, 0);
                            }
                            self.presence[pop] += 1;
                        }
                        self.current[slot] =
                            Some(CurrentRoute { crossings: Arc::clone(crossings), since: t });
                        // A stability deadline past the end of the `u64`
                        // clock can never arrive; don't enqueue it.
                        if let Some(due) = t.checked_add(self.config.stable_secs) {
                            self.schedule(due, *route);
                        }
                    }
                }
            }
        }
    }

    /// Queues `route` for promotion at `due`, unless its live entry is
    /// already due by then (that one re-arms itself when it pops). An
    /// entry it supersedes stays queued and is dropped when popped.
    fn schedule(&mut self, due: Timestamp, route: RouteId) {
        let queued = &mut self.queued[route.0 as usize];
        if queued.is_some_and(|q| q.get() <= due) {
            return;
        }
        *queued = NonZeroU64::new(due);
        if self.promotions.back().is_none_or(|&(tail, _)| tail <= due) {
            self.promotions.push_back((due, route));
        } else {
            self.stragglers.push(Reverse((due, route)));
        }
    }

    /// Pops a queued deadline that is due by `now` — stragglers too, so
    /// they never wait behind a FIFO head that is not.
    fn pop_due(&mut self, now: Timestamp) -> Option<(Timestamp, RouteId)> {
        if self.promotions.front().is_some_and(|&(due, _)| due <= now) {
            return self.promotions.pop_front();
        }
        let top = self.stragglers.peek_mut()?;
        let Reverse((due, _)) = *top;
        (due <= now).then(|| PeekMut::pop(top).0)
    }

    #[inline]
    fn mark_deviation(&mut self, c: &DenseCrossing, route: RouteId) {
        let bin = self.deviations.entry(c.group()).or_default();
        bin.routes.insert(route);
        bin.fars.insert(c.far);
    }

    #[inline]
    fn dec_presence(&mut self, pop: PopId) {
        if let Some(n) = self.presence.get_mut(pop.0 as usize) {
            *n = n.saturating_sub(1);
        }
    }

    /// Number of this bin's deviated stable routes crossing `pop`.
    fn deviation_count(&self, pop: PopId) -> usize {
        self.deviations
            .iter()
            .filter(|(key, _)| unpack_group(**key).0 == pop)
            .map(|(_, bin)| bin.routes.len())
            .sum()
    }

    /// Closes the bin's bookkeeping: prunes every deviated path from the
    /// stable set, clears deviation state, and promotes routes that became
    /// stable by `now`.
    fn finish_bin(&mut self, now: Timestamp) {
        let changed: Vec<RouteId> =
            self.deviations.values().flat_map(|b| b.routes.iter().copied()).collect();
        for route in changed {
            self.remove_from_baseline(route);
        }
        self.deviations.clear();
        self.run_promotions(now);
    }

    /// Promotes routes whose crossings have been unchanged for the
    /// stability window as of `now`.
    fn run_promotions(&mut self, now: Timestamp) {
        while let Some((due, route)) = self.pop_due(now) {
            let slot = route.0 as usize;
            if self.queued[slot] != NonZeroU64::new(due) {
                continue; // superseded by an earlier deadline
            }
            self.queued[slot] = None;
            let Some(Some(cur)) = self.current.get(slot) else { continue };
            // Checked: a route (re-)announced near the top of the clock
            // has an unreachable stability deadline, never a wrapped one.
            let due = cur.since.checked_add(self.config.stable_secs);
            if due.is_none_or(|d| d > now) {
                if let Some(due) = due {
                    self.schedule(due, route); // changed again since: re-arm
                }
                continue;
            }
            if cur.crossings.is_empty() {
                continue; // nothing locatable to monitor
            }
            let crossings = Arc::clone(&cur.crossings);
            let same = |b: &Arc<[_]>| Arc::ptr_eq(b, &crossings) || b[..] == crossings[..];
            if self.baseline.get(slot).and_then(Option::as_ref).is_some_and(same) {
                continue;
            }
            self.remove_from_baseline(route);
            for (i, c) in crossings.iter().enumerate() {
                let group = self.pop_index.entry(c.group()).or_default();
                // `pop_groups` and `coverage` only hear of a group, or a
                // far end within one, going 0 → 1.
                if first_in_group(&crossings, i) {
                    group.routes += 1;
                    if group.routes == 1 {
                        self.pop_groups.entry(c.pop).or_default().insert(c.near);
                        self.coverage.entry(c.pop).or_default().0.insert(c.near);
                    }
                }
                let far = group.fars.entry(c.far).or_insert(0);
                *far += 1;
                if *far == 1 {
                    self.coverage.entry(c.pop).or_default().1.insert(c.far);
                }
            }
            if slot >= self.baseline.len() {
                self.baseline.resize_with(slot + 1, || None);
            }
            if self.baseline[slot].is_none() {
                self.baseline_len += 1;
            }
            self.baseline[slot] = Some(crossings);
        }
    }

    fn remove_from_baseline(&mut self, route: RouteId) {
        let Some(opt) = self.baseline.get_mut(route.0 as usize) else { return };
        let Some(base) = opt.take() else { return };
        self.baseline_len -= 1;
        for (i, c) in base.iter().enumerate() {
            let key = c.group();
            let Some(group) = self.pop_index.get_mut(&key) else { continue };
            if first_in_group(&base, i) {
                group.routes -= 1;
            }
            if let Entry::Occupied(mut far) = group.fars.entry(c.far) {
                *far.get_mut() -= 1;
                if *far.get() == 0 {
                    far.remove();
                }
            }
            // Every route in a group holds a far end there, so `fars`
            // empties exactly when the last route's last crossing leaves.
            if group.fars.is_empty() {
                self.pop_index.remove(&key);
                if let Some(nears) = self.pop_groups.get_mut(&c.pop) {
                    nears.remove(&c.near);
                    if nears.is_empty() {
                        self.pop_groups.remove(&c.pop);
                    }
                }
            }
        }
    }

    /// The live groups of `pop`: near-end AS and stable path counts.
    fn groups_at(&self, pop: PopId) -> impl Iterator<Item = (AsnId, &GroupCount)> + '_ {
        let nears = self.pop_groups.get(&pop).into_iter().flatten();
        nears.filter_map(move |&near| Some((near, self.pop_index.get(&pack_group(pop, near))?)))
    }

    /// Number of stable routes currently indexed at `pop`.
    pub fn stable_count(&self, pop: PopId) -> usize {
        self.groups_at(pop).map(|(_, group)| group.routes).sum()
    }

    /// Total stable routes.
    pub fn baseline_size(&self) -> usize {
        self.baseline_len
    }

    /// Whether the current route of `route` still crosses `pop` at `near`.
    pub fn route_has_crossing(&self, route: RouteId, pop: PopId, near: AsnId) -> bool {
        self.current
            .get(route.0 as usize)
            .and_then(Option::as_ref)
            .map(|c| c.crossings.iter().any(|x| x.pop == pop && x.near == near))
            .unwrap_or(false)
    }

    /// Far-end ASes (with stable path counts) of the baseline routes
    /// crossing `pop`, grouped by the near-end AS of the crossing.
    fn stable_fars(&self, pop: PopId) -> PopFars {
        self.groups_at(pop)
            .map(|(near, group)| (near, group.fars.iter().map(|(&far, &n)| (far, n)).collect()))
            .collect()
    }

    /// Near-end ASes (with stable path counts) of the baseline routes
    /// crossing `pop`.
    fn stable_nears(&self, pop: PopId) -> PopNears {
        self.groups_at(pop).map(|(near, group)| (near, group.routes)).collect()
    }

    /// High-water observability of a PoP: distinct near-end and far-end
    /// ASes ever located there through stable paths.
    pub fn pop_coverage(&self, pop: PopId) -> (usize, usize) {
        self.coverage.get(&pop).map(|(n, f)| (n.len(), f.len())).unwrap_or((0, 0))
    }

    /// Registers a PoP whose presence count (crossings on currently
    /// announced routes) is sampled into every closed bin's
    /// [`DenseBinOutcome::watch_presence`] — the forecast detector's
    /// input. Registering any presence watch disables the empty-stretch
    /// bin-skip so the series has one sample per bin.
    pub fn watch_presence(&mut self, pop: PopId) {
        if !self.presence_watch.contains(&pop) {
            self.presence_watch.push(pop);
            self.presence_watch.sort_unstable();
        }
    }

    /// Registers a PoP whose per-bin aggregate change fraction should be
    /// recorded (for the paper's time-series figures).
    pub fn watch(&mut self, pop: PopId) {
        self.watches.entry(pop).or_default();
    }

    /// The recorded (bin start, change fraction) series of a watched PoP.
    pub fn watch_series(&self, pop: PopId) -> Option<&[(Timestamp, f64)]> {
        self.watches.get(&pop).map(Vec::as_slice)
    }

    /// Feeds one event, returning any bins closed by time advancing.
    pub fn observe(&mut self, t: Timestamp, event: &DenseRouteEvent) -> Vec<DenseBinOutcome> {
        let closed = self.advance_to(t);
        self.apply(t, event);
        closed
    }

    /// Advances virtual time to `t`, closing every bin that ends at or
    /// before it.
    pub fn advance_to(&mut self, t: Timestamp) -> Vec<DenseBinOutcome> {
        let bin_secs = self.config.bin_secs;
        let mut out = Vec::new();
        match self.bin_start {
            None => {
                self.bin_start = Some(t - t % bin_secs);
            }
            Some(start) => {
                let mut bin_start = start;
                // Checked bin-end arithmetic: a bin whose end would
                // overflow the `u64` clock can never close, so timestamps
                // at or near `u64::MAX` don't wrap (or panic) here.
                while bin_start.checked_add(bin_secs).is_some_and(|end| t >= end) {
                    out.push(self.close_bin(bin_start));
                    // Skip empty stretches in one step (only when nothing
                    // needs a per-bin sample).
                    let next = bin_start + bin_secs;
                    if out.last().map(|o| o.signals.is_empty()).unwrap_or(false)
                        && self.deviations.is_empty()
                        && self.watches.is_empty()
                        && self.presence_watch.is_empty()
                        && next.checked_add(bin_secs).is_some_and(|end| t >= end)
                    {
                        bin_start = t - t % bin_secs;
                        // Still run promotions for the skipped stretch.
                        self.run_promotions(bin_start);
                    } else {
                        bin_start = next;
                    }
                }
                self.bin_start = Some(bin_start);
            }
        }
        out
    }

    fn close_bin(&mut self, bin_start: Timestamp) -> DenseBinOutcome {
        let mut outcome = self.finalize_bin(bin_start);

        // Watched series (pre-pruning stable counts, like the snapshot).
        let mut watches = std::mem::take(&mut self.watches);
        for (&pop, series) in watches.iter_mut() {
            let stable = self.stable_count(pop);
            let deviated = self.deviation_count(pop);
            let frac = if stable == 0 { 0.0 } else { deviated as f64 / stable as f64 };
            series.push((bin_start, frac));
        }
        self.watches = watches;

        // Presence samples for the forecast detector.
        outcome.watch_presence = self
            .presence_watch
            .iter()
            .map(|&pop| (pop, self.presence.get(pop.0 as usize).copied().unwrap_or(0)))
            .collect();

        self.finish_bin(bin_start + self.config.bin_secs);
        outcome
    }

    /// Thresholds this bin's group statistics into a [`DenseBinOutcome`]
    /// and snapshots the denominators of the signaled PoPs (pre-pruning).
    fn finalize_bin(&self, bin_start: Timestamp) -> DenseBinOutcome {
        let mut outcome = DenseBinOutcome { bin_start, ..Default::default() };
        for (&key, bin) in &self.deviations {
            let stable_total = self.pop_index.get(&key).map_or(0, |g| g.routes);
            let fraction = bin.routes.len() as f64 / stable_total as f64;
            if stable_total < self.config.min_stable_paths || fraction <= self.config.t_fail {
                continue;
            }
            let (pop, near) = unpack_group(key);
            outcome.signals.push(DenseOutageSignal {
                pop,
                near,
                bin_start,
                deviated: bin.routes.iter().copied().collect(),
                stable_total,
                far_ases: bin.fars.iter().copied().collect(),
                fraction,
            });
        }
        let mut pops: Vec<PopId> = outcome.signals.iter().map(|s| s.pop).collect();
        pops.sort_unstable();
        pops.dedup();
        for pop in pops {
            outcome.stable_fars.push((pop, self.stable_fars(pop)));
            outcome.stable_nears.push((pop, self.stable_nears(pop)));
        }
        outcome
    }
}

/// Whether `crossings[i]` is the route's first crossing of its group (a
/// route counts once per group however often it lists it).
fn first_in_group(crossings: &[DenseCrossing], i: usize) -> bool {
    crossings[..i].iter().all(|c| c.group() != crossings[i].group())
}

pub(crate) fn pop_order(p: &LocationTag) -> (u8, u32) {
    match p {
        LocationTag::Facility(f) => (0, f.0),
        LocationTag::Ixp(x) => (1, x.0),
        LocationTag::City(c) => (2, c.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{PopCrossing, RouteEvent};
    use kepler_bgp::Prefix;
    use kepler_bgpstream::{CollectorId, PeerId};
    use kepler_topology::FacilityId;

    const DAY: u64 = 86_400;

    fn cfg() -> KeplerConfig {
        KeplerConfig { min_stable_paths: 2, ..KeplerConfig::default() }
    }

    fn key(i: u8) -> RouteKey {
        RouteKey {
            collector: CollectorId(0),
            peer: PeerId { asn: Asn(100 + i as u32), addr: "10.0.0.9".parse().unwrap() },
            prefix: Prefix::v4(20, i, 0, 0, 16),
        }
    }

    fn fac(pop: u32, near: u32, far: u32) -> PopCrossing {
        PopCrossing { pop: LocationTag::Facility(FacilityId(pop)), near: Asn(near), far: Asn(far) }
    }

    /// Interns and feeds a display-typed update.
    fn update(
        m: &mut Monitor,
        interner: &mut Interner,
        t: u64,
        i: u8,
        crossings: Vec<PopCrossing>,
        hops: Vec<Asn>,
    ) -> Vec<BinOutcome> {
        let ev = interner.intern_event(&RouteEvent::Update { key: key(i), crossings, hops });
        m.observe(t, &ev).iter().map(|o| o.resolve(interner)).collect()
    }

    fn withdraw(m: &mut Monitor, interner: &mut Interner, t: u64, i: u8) -> Vec<BinOutcome> {
        let ev = interner.intern_event(&RouteEvent::Withdraw { key: key(i) });
        m.observe(t, &ev).iter().map(|o| o.resolve(interner)).collect()
    }

    fn pop_of(interner: &mut Interner, fac_id: u32) -> PopId {
        interner.pop_id(LocationTag::Facility(FacilityId(fac_id)))
    }

    #[test]
    fn baseline_promotion_after_stable_window() {
        let mut interner = Interner::new();
        let mut m = Monitor::new(cfg());
        let t0 = 1_000_000u64;
        for i in 0..4u8 {
            update(&mut m, &mut interner, t0, i, vec![fac(1, 50, 60 + i as u32)], vec![]);
        }
        assert_eq!(m.baseline_size(), 0);
        m.advance_to(t0 + 2 * DAY + 120);
        assert_eq!(m.baseline_size(), 4);
        let pop = pop_of(&mut interner, 1);
        assert_eq!(m.stable_count(pop), 4);
    }

    #[test]
    fn withdrawals_of_stable_routes_raise_signal() {
        let mut interner = Interner::new();
        let mut m = Monitor::new(cfg());
        let t0 = 1_000_000u64;
        for i in 0..4u8 {
            update(&mut m, &mut interner, t0, i, vec![fac(1, 50, 60 + i as u32)], vec![]);
        }
        let t1 = t0 + 2 * DAY + 300;
        m.advance_to(t1);
        // Withdraw 3 of 4 in one bin.
        for i in 0..3u8 {
            withdraw(&mut m, &mut interner, t1 + 5, i);
        }
        let outcomes: Vec<BinOutcome> =
            m.advance_to(t1 + 120).iter().map(|o| o.resolve(&interner)).collect();
        let signals: Vec<&OutageSignal> = outcomes.iter().flat_map(|o| o.signals.iter()).collect();
        assert_eq!(signals.len(), 1);
        let s = signals[0];
        assert_eq!(s.pop, LocationTag::Facility(FacilityId(1)));
        assert_eq!(s.near, Asn(50));
        assert_eq!(s.deviated.len(), 3);
        assert_eq!(s.stable_total, 4);
        assert!(s.fraction > 0.7);
        assert_eq!(s.far_ases.len(), 3);
        // Changed paths pruned from the stable set.
        assert_eq!(m.stable_count(pop_of(&mut interner, 1)), 1);
    }

    #[test]
    fn implicit_withdrawal_community_change_counts() {
        let mut interner = Interner::new();
        let mut m = Monitor::new(cfg());
        let t0 = 1_000_000u64;
        for i in 0..4u8 {
            update(&mut m, &mut interner, t0, i, vec![fac(1, 50, 60)], vec![]);
        }
        let t1 = t0 + 2 * DAY + 300;
        m.advance_to(t1);
        // Re-announce with a *different facility tag*, same AS pair: the
        // paper's implicit withdrawal.
        for i in 0..4u8 {
            update(&mut m, &mut interner, t1 + 2, i, vec![fac(2, 50, 60)], vec![]);
        }
        let outcomes: Vec<BinOutcome> =
            m.advance_to(t1 + 120).iter().map(|o| o.resolve(&interner)).collect();
        let signals: Vec<_> = outcomes.iter().flat_map(|o| o.signals.iter()).collect();
        assert_eq!(signals.len(), 1);
        assert_eq!(signals[0].pop, LocationTag::Facility(FacilityId(1)));
    }

    #[test]
    fn as_path_change_keeping_tag_is_not_a_deviation() {
        let mut interner = Interner::new();
        let mut m = Monitor::new(cfg());
        let t0 = 1_000_000u64;
        for i in 0..4u8 {
            update(
                &mut m,
                &mut interner,
                t0,
                i,
                vec![fac(1, 50, 60)],
                vec![Asn(1), Asn(50), Asn(60)],
            );
        }
        let t1 = t0 + 2 * DAY + 300;
        m.advance_to(t1);
        // Far end changes (different AS path) but the tag (pop 1, near 50)
        // survives: not a route change for pop 1.
        for i in 0..4u8 {
            update(
                &mut m,
                &mut interner,
                t1 + 2,
                i,
                vec![fac(1, 50, 61)],
                vec![Asn(1), Asn(50), Asn(61)],
            );
        }
        let outcomes = m.advance_to(t1 + 120);
        assert!(outcomes.iter().all(|o| o.signals.is_empty()));
    }

    #[test]
    fn per_as_grouping_avoids_tier1_bias() {
        let mut interner = Interner::new();
        let mut m = Monitor::new(cfg());
        let t0 = 1_000_000u64;
        // Group A: 3 paths via near-AS 50; Group B: 30 paths via near-AS 99.
        for i in 0..3u8 {
            update(&mut m, &mut interner, t0, i, vec![fac(1, 50, 60)], vec![]);
        }
        for i in 3..33u8 {
            update(&mut m, &mut interner, t0, i, vec![fac(1, 99, 70)], vec![]);
        }
        let t1 = t0 + 2 * DAY + 300;
        m.advance_to(t1);
        // Only group A is wiped out: 3/33 < 10% aggregate, but 3/3 per-AS.
        for i in 0..3u8 {
            withdraw(&mut m, &mut interner, t1 + 1, i);
        }
        let outcomes: Vec<BinOutcome> =
            m.advance_to(t1 + 120).iter().map(|o| o.resolve(&interner)).collect();
        let signals: Vec<_> = outcomes.iter().flat_map(|o| o.signals.iter()).collect();
        assert_eq!(signals.len(), 1);
        assert_eq!(signals[0].near, Asn(50));
    }

    #[test]
    fn watch_records_fraction_series() {
        let mut interner = Interner::new();
        let mut m = Monitor::new(cfg());
        let pop = pop_of(&mut interner, 1);
        m.watch(pop);
        let t0 = 1_000_000u64;
        for i in 0..4u8 {
            update(&mut m, &mut interner, t0, i, vec![fac(1, 50, 60)], vec![]);
        }
        let t1 = t0 + 2 * DAY + 300;
        m.advance_to(t1);
        for i in 0..2u8 {
            withdraw(&mut m, &mut interner, t1 + 1, i);
        }
        m.advance_to(t1 + 180);
        let series = m.watch_series(pop).unwrap();
        assert!(!series.is_empty());
        let max = series.iter().map(|(_, f)| *f).fold(0.0f64, f64::max);
        assert!((max - 0.5).abs() < 1e-9, "peak fraction 2/4, got {max}");
    }

    #[test]
    fn small_groups_do_not_signal() {
        let mut interner = Interner::new();
        let mut m = Monitor::new(KeplerConfig { min_stable_paths: 3, ..KeplerConfig::default() });
        let t0 = 1_000_000u64;
        for i in 0..2u8 {
            update(&mut m, &mut interner, t0, i, vec![fac(1, 50, 60)], vec![]);
        }
        let t1 = t0 + 2 * DAY + 300;
        m.advance_to(t1);
        for i in 0..2u8 {
            withdraw(&mut m, &mut interner, t1 + 1, i);
        }
        let outcomes = m.advance_to(t1 + 120);
        assert!(outcomes.iter().all(|o| o.signals.is_empty()));
    }

    #[test]
    fn route_change_resets_stability_clock() {
        let mut interner = Interner::new();
        let mut m = Monitor::new(cfg());
        let t0 = 1_000_000u64;
        update(&mut m, &mut interner, t0, 0, vec![fac(1, 50, 60)], vec![]);
        // Change the route after one day; stability clock restarts.
        update(&mut m, &mut interner, t0 + DAY, 0, vec![fac(2, 50, 60)], vec![]);
        m.advance_to(t0 + 2 * DAY + 300);
        assert_eq!(m.baseline_size(), 0, "not yet stable on new route");
        m.advance_to(t0 + 3 * DAY + 300);
        assert_eq!(m.baseline_size(), 1);
        assert_eq!(m.stable_count(pop_of(&mut interner, 2)), 1);
    }

    #[test]
    fn presence_counter_tracks_announced_crossings() {
        let mut interner = Interner::new();
        let mut m = Monitor::new(cfg());
        let pop = pop_of(&mut interner, 1);
        m.watch_presence(pop);
        m.watch_presence(pop); // idempotent
        let t0 = 1_000_000u64;
        for i in 0..4u8 {
            update(&mut m, &mut interner, t0, i, vec![fac(1, 50, 60 + i as u32)], vec![]);
        }
        let t1 = t0 + 2 * DAY + 300;
        let warm = m.advance_to(t1);
        assert!(warm.iter().all(|o| o.watch_presence.len() == 1));
        assert_eq!(warm.last().unwrap().watch_presence, vec![(pop, 4)]);
        // Withdraw two, move one to another facility.
        withdraw(&mut m, &mut interner, t1 + 1, 0);
        withdraw(&mut m, &mut interner, t1 + 2, 1);
        update(&mut m, &mut interner, t1 + 3, 2, vec![fac(2, 50, 62)], vec![]);
        let outcomes = m.advance_to(t1 + 180);
        // Only route 3 still announces a facility-1 crossing.
        assert!(!outcomes.is_empty());
        assert!(outcomes.iter().all(|o| o.watch_presence == vec![(pop, 1)]));
        // Presence watches disable the empty-stretch skip: bins stay
        // consecutive across a quiet hour.
        let quiet = m.advance_to(t1 + 180 + 3_600);
        assert_eq!(quiet.len(), 60, "one sample per bin across the quiet stretch");
        let starts: Vec<u64> = quiet.iter().map(|o| o.bin_start).collect();
        assert!(starts.windows(2).all(|w| w[1] == w[0] + 60), "consecutive bins");
    }

    #[test]
    fn unannounced_or_replaced_routes_never_go_negative() {
        let mut interner = Interner::new();
        let mut m = Monitor::new(cfg());
        let pop = pop_of(&mut interner, 1);
        m.watch_presence(pop);
        let t0 = 1_000_000u64;
        // Withdraw of a route that was never announced: harmless.
        withdraw(&mut m, &mut interner, t0, 9);
        // Announce, re-announce identically (same located route arm),
        // then flap to a different tag and back.
        update(&mut m, &mut interner, t0 + 1, 0, vec![fac(1, 50, 60)], vec![]);
        update(&mut m, &mut interner, t0 + 2, 0, vec![fac(1, 50, 60)], vec![]);
        update(&mut m, &mut interner, t0 + 3, 0, vec![fac(2, 50, 60)], vec![]);
        update(&mut m, &mut interner, t0 + 4, 0, vec![fac(1, 50, 60)], vec![]);
        let outcomes = m.advance_to(t0 + 120);
        assert_eq!(outcomes.last().unwrap().watch_presence, vec![(pop, 1)]);
    }

    /// Deadlines pushed out of order — an event whose timestamp ran
    /// backwards — go to the straggler heap, are promoted in the bin their
    /// own deadline falls in (not the FIFO head's), and a backwards change
    /// of an already queued route pulls its deadline forward.
    #[test]
    fn out_of_order_deadlines_never_wait_behind_the_fifo_head() {
        let mut interner = Interner::new();
        let mut m = Monitor::new(cfg());
        let t0 = 1_000_000u64;
        update(&mut m, &mut interner, t0 + 6_000, 0, vec![fac(1, 50, 60)], vec![]);
        update(&mut m, &mut interner, t0 + 6_000, 1, vec![fac(1, 50, 61)], vec![]);
        // Time runs backwards: a new route, and route 1 changing again.
        update(&mut m, &mut interner, t0, 2, vec![fac(1, 50, 62)], vec![]);
        update(&mut m, &mut interner, t0 + 60, 1, vec![fac(2, 50, 61)], vec![]);
        assert_eq!((m.promotions.len(), m.stragglers.len()), (2, 2));
        // Only the stragglers are due: the FIFO head is 100 bins away.
        m.advance_to(t0 + 2 * DAY + 120);
        assert_eq!(m.baseline_size(), 2);
        assert_eq!(m.stable_count(pop_of(&mut interner, 1)), 1);
        assert_eq!(m.stable_count(pop_of(&mut interner, 2)), 1);
        assert_eq!((m.promotions.len(), m.stragglers.len()), (2, 0));
        // The in-order deadline arrives with its own bin; route 1's
        // superseded entry pops with it and changes nothing.
        m.advance_to(t0 + 6_000 + 2 * DAY - 1);
        assert_eq!(m.baseline_size(), 2);
        m.advance_to(t0 + 6_000 + 2 * DAY + 60);
        assert_eq!(m.baseline_size(), 3);
        assert_eq!(m.stable_count(pop_of(&mut interner, 1)), 2);
        assert_eq!((m.promotions.len(), m.stragglers.len()), (0, 0));
    }

    /// A route listing one (PoP, near-end) twice is one stable path of the
    /// group and one path to each far end, and takes the group with it.
    #[test]
    fn route_crossing_a_group_twice_counts_once() {
        let mut interner = Interner::new();
        let mut m = Monitor::new(KeplerConfig { min_stable_paths: 1, ..KeplerConfig::default() });
        let t0 = 1_000_000u64;
        update(&mut m, &mut interner, t0, 0, vec![fac(1, 50, 60), fac(1, 50, 61)], vec![]);
        let t1 = t0 + 2 * DAY + 300;
        m.advance_to(t1);
        let pop = pop_of(&mut interner, 1);
        assert_eq!((m.baseline_size(), m.stable_count(pop)), (1, 1));
        assert_eq!(m.pop_coverage(pop), (1, 2));
        withdraw(&mut m, &mut interner, t1 + 5, 0);
        let outcomes: Vec<BinOutcome> =
            m.advance_to(t1 + 120).iter().map(|o| o.resolve(&interner)).collect();
        let signaled: Vec<&BinOutcome> =
            outcomes.iter().filter(|o| !o.signals.is_empty()).collect();
        assert_eq!(signaled.len(), 1);
        let tag = LocationTag::Facility(FacilityId(1));
        assert_eq!(signaled[0].signals[0].stable_total, 1);
        assert_eq!(signaled[0].stable_nears[&tag], BTreeMap::from([(Asn(50), 1)]));
        assert_eq!(
            signaled[0].stable_fars[&tag][&Asn(50)],
            BTreeMap::from([(Asn(60), 1), (Asn(61), 1)])
        );
        // Pruned at bin close: the group is gone, not left at zero.
        assert_eq!((m.baseline_size(), m.stable_count(pop)), (0, 0));
        assert!(m.stable_nears(pop).is_empty() && m.pop_index.is_empty());
    }

    /// A flapping route holds one queue entry, not one per flap, and is
    /// promoted in the bin its last change's deadline falls in.
    #[test]
    fn flapping_route_holds_one_queue_entry() {
        let mut interner = Interner::new();
        let mut m = Monitor::new(cfg());
        let t0 = 1_000_000u64;
        for i in 0..10_000u64 {
            update(&mut m, &mut interner, t0 + i, 0, vec![fac(1 + (i % 2) as u32, 50, 60)], vec![]);
        }
        assert_eq!(m.promotions.len() + m.stragglers.len(), 1);
        let last = t0 + 9_999;
        // The entry pops at the first flap's deadline and re-arms.
        m.advance_to(last + 2 * DAY - 60);
        assert_eq!(m.promotions.len() + m.stragglers.len(), 1);
        assert_eq!(m.baseline_size(), 0);
        m.advance_to(last + 2 * DAY + 60);
        assert_eq!(m.promotions.len() + m.stragglers.len(), 0);
        assert_eq!(m.stable_count(pop_of(&mut interner, 2)), 1);
    }

    fn synthetic_update(route: u32) -> DenseRouteEvent {
        DenseRouteEvent::Update {
            route: RouteId(route),
            crossings: vec![DenseCrossing { pop: PopId(0), near: AsnId(0), far: AsnId(1) }].into(),
        }
    }

    /// Timestamps at the top of the clock: a bin whose end would overflow
    /// `u64` can never close, so observing and advancing at `u64::MAX` must
    /// neither panic nor wrap.
    #[test]
    fn single_monitor_survives_u64_max_timestamps() {
        let mut monitor = Monitor::new(cfg());
        // Ordinary warm-up far below the top.
        assert!(monitor.observe(1_000_000, &synthetic_update(0)).is_empty());
        // Jump to the top of the clock: terminates (empty-stretch skip) and
        // closes bins without overflow.
        let closed = monitor.advance_to(u64::MAX);
        assert!(!closed.is_empty(), "the warm-up bin closes on the way up");
        // Events inside the final, never-closable bin.
        monitor.observe(u64::MAX - 5, &synthetic_update(1));
        monitor.observe(u64::MAX, &DenseRouteEvent::Withdraw { route: RouteId(1) });
        // Idempotent at the top; nothing further can close.
        assert!(monitor.advance_to(u64::MAX).is_empty());
        assert!(monitor.advance_to(u64::MAX).is_empty());
    }

    /// A monitor whose very first observation sits at `u64::MAX` starts its
    /// bin there and stays silent forever — no overflow on the aligned
    /// `bin_start` computation either.
    #[test]
    fn first_event_at_u64_max_is_inert() {
        let mut monitor = Monitor::new(cfg());
        assert!(monitor.observe(u64::MAX, &synthetic_update(0)).is_empty());
        assert!(monitor.advance_to(u64::MAX).is_empty());
    }
}
