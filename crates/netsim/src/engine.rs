//! Discrete-event emission engine: applies scheduled events to the routing
//! state and synthesizes the multi-collector BGP update stream.
//!
//! Behavioral fidelity targets (from the paper's measurements):
//!
//! * updates arrive MRAI-paced with per-path jitter, not synchronized;
//! * an instance failover changes communities *without* changing the AS
//!   path (implicit withdrawal);
//! * after an outage is repaired, control-plane paths drift back slowly —
//!   ≈95% within hours, ≈5% stick to the backup path indefinitely
//!   (Figure 10a);
//! * collector-peer session flaps produce state messages and bulk table
//!   re-announcements that must *not* look like outages.
//!
//! What is broken is always [`FailedSet::of_events`] over the events in
//! force, re-derived on every fail and restore, as the data plane does:
//! when two events break one element, it stays broken until the last of
//! them ends. A restore re-checks the prefixes its fail changed; when an
//! event still in force breaks an element this one broke (a same-element
//! [`FailedSet::overlaps`]), the restore also hands those prefixes to that
//! event, so they are re-checked, and return, when it ends. Events that
//! share only an element *key* (a whole building and a port in it) hand
//! nothing over.

use crate::events::{EventKind, GroundTruthEvent, ScheduledEvent};
use crate::routing::policy::FailedSet;
use crate::routing::propagate::{compute_tree, RouteTree};
use crate::routing::tag::{route_hops, snapshot_of, visits, Hop};
use crate::world::{AsIdx, PrefixIdx, World};
use kepler_bgp::mrt::WireUpdate;
use kepler_bgp::{fx::FxHashMap, AsPath, Asn, BgpUpdate, PathAttributes, PeerState, StateChange};
use kepler_bgpstream::{BgpRecord, CollectorId, PeerId, RecordPayload};
use kepler_topology::{FacilityId, IxpId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::net::IpAddr;
use std::sync::Arc;

/// One collector peer: a real AS feeding one or more collectors.
#[derive(Debug, Clone)]
pub struct PeerSpec {
    /// The AS acting as vantage point.
    pub as_idx: AsIdx,
    /// Its session address (shared across its collectors).
    pub addr: IpAddr,
    /// The collectors it feeds.
    pub collectors: Vec<CollectorId>,
}

/// Collector topology for a simulation.
#[derive(Debug, Clone, Default)]
pub struct CollectorSetup {
    /// Collector names, index = `CollectorId`.
    pub names: Vec<String>,
    /// The peers.
    pub peers: Vec<PeerSpec>,
}

impl CollectorSetup {
    /// Builds a realistic default: every Tier-1, a third of Tier-2s, a
    /// quarter of content ASes and a tenth of eyeballs peer with
    /// `n_collectors` collectors round-robin (some dual-homed).
    pub fn default_for(world: &World, n_collectors: usize, max_peers: usize, seed: u64) -> Self {
        use kepler_topology::AsType;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC011EC7);
        let names: Vec<String> = (0..n_collectors)
            .map(|i| {
                if i % 2 == 0 {
                    format!("rrc{:02}", i / 2)
                } else {
                    format!("route-views{}", i / 2 + 2)
                }
            })
            .collect();
        let mut peers = Vec::new();
        for (i, node) in world.ases.iter().enumerate() {
            if peers.len() >= max_peers {
                break;
            }
            let take = match node.info.as_type {
                AsType::Tier1 => true,
                AsType::Tier2 => rng.gen_bool(0.34),
                AsType::Content => rng.gen_bool(0.25),
                AsType::Eyeball => rng.gen_bool(0.10),
                _ => false,
            };
            if !take {
                continue;
            }
            let slot = peers.len();
            let mut collectors = vec![CollectorId((slot % n_collectors) as u16)];
            if rng.gen_bool(0.2) && n_collectors > 1 {
                collectors.push(CollectorId(((slot + 1) % n_collectors) as u16));
            }
            peers.push(PeerSpec {
                as_idx: AsIdx(i as u32),
                addr: World::peer_addr(slot),
                collectors,
            });
        }
        CollectorSetup { names, peers }
    }
}

/// Everything a simulation run produces.
#[derive(Debug)]
pub struct SimOutput {
    /// The full update stream, time-sorted.
    pub records: Vec<BgpRecord>,
    /// Ground truth for evaluation.
    pub ground_truth: Vec<GroundTruthEvent>,
    /// Collector names.
    pub collector_names: Vec<String>,
    /// (ASN, address) per peer slot.
    pub peers: Vec<(Asn, IpAddr)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ElementKey {
    Fac(FacilityId),
    Ixp(IxpId),
    Adj(crate::world::AdjIdx),
}

impl ElementKey {
    /// Dense id: facilities, then IXPs, then adjacencies.
    fn id(self, world: &World) -> usize {
        let (facilities, ixps) = (world.colo.facilities().len(), world.colo.ixps().len());
        match self {
            ElementKey::Fac(f) => f.0 as usize,
            ElementKey::Ixp(x) => facilities + x.0 as usize,
            ElementKey::Adj(a) => facilities + ixps + a.0 as usize,
        }
    }
}

/// Writes the ids of the elements the route `hops` from `vantage` crosses
/// into `out`, sorted and deduplicated.
fn elements_of(world: &World, vantage: AsIdx, hops: &[Hop], out: &mut Vec<usize>) {
    out.clear();
    for v in visits(world, vantage, hops.iter().copied()) {
        let facs = v.near_fac.into_iter().chain(v.far_fac).map(ElementKey::Fac);
        let keys = facs.chain(v.ixp.map(ElementKey::Ixp)).chain([ElementKey::Adj(v.adj)]);
        out.extend(keys.map(|k| k.id(world)));
    }
    out.sort_unstable();
    out.dedup();
}

/// The elements an event's own failure touches: facilities, whole or
/// through a dead port; IXPs, whole or through a dead port or membership;
/// dead adjacencies.
fn keys_of(own: &FailedSet) -> impl Iterator<Item = ElementKey> + '_ {
    let facs = own.facilities.iter().copied().chain(own.facility_ports.iter().map(|&(f, _)| f));
    let ixps = own.ixps.iter().copied();
    let ixps = ixps.chain(own.ixp_ports.iter().chain(&own.dead_memberships).map(|&(x, _)| x));
    let adjs = own.dead_adjacencies.iter().copied().map(ElementKey::Adj);
    facs.map(ElementKey::Fac).chain(ixps.map(ElementKey::Ixp)).chain(adjs)
}

#[derive(Debug)]
enum Action {
    Fail(usize),
    Restore(usize),
    Return { peer: u32, prefix: u32, generation: u64 },
}

/// The emission engine.
pub struct Simulation<'w> {
    world: &'w World,
    setup: CollectorSetup,
    start: u64,
    rng: StdRng,
    /// Timeline indices of the route-affecting events in force, ascending.
    active: Vec<u32>,
    /// `FailedSet::of_events` over `active`.
    failed: FailedSet,
    /// What BGP currently shows, by route slot `peer * prefixes + prefix`:
    /// the route's hops, which fix what was announced.
    visible: Vec<Option<Box<[Hop]>>>,
    /// Route changes per slot; a scheduled return for an older one is void.
    generations: Vec<u64>,
    /// By element id: prefix → how many peers' visible routes cross it.
    /// A prefix leaves its element's map when its count reaches 0.
    index: Vec<FxHashMap<u32, u32>>,
    /// `elements_of`'s output, reused across route changes.
    scratch: Vec<usize>,
    records: Vec<BgpRecord>,
    /// `failed`'s active-instance table, built on first use in each
    /// failure epoch (every `set_active` starts one).
    instances: Option<Vec<Option<u32>>>,
    /// Routing trees of the current failure epoch, by origin AS: the
    /// prefixes of one origin share a tree.
    trees: HashMap<u32, Arc<RouteTree>>,
}

impl<'w> Simulation<'w> {
    /// Prepares a simulation (computes the initial full table and emits it
    /// as the first records at `start`).
    pub fn new(world: &'w World, setup: CollectorSetup, start: u64, seed: u64) -> Self {
        let slots = setup.peers.len() * world.prefixes.len();
        let elements = world.colo.facilities().len() + world.colo.ixps().len();
        let mut sim = Simulation {
            world,
            setup,
            start,
            rng: StdRng::seed_from_u64(seed ^ 0x51A1_0E17),
            active: Vec::new(),
            failed: FailedSet::default(),
            visible: vec![None; slots],
            generations: vec![0; slots],
            index: vec![FxHashMap::default(); elements + world.adjacencies.len()],
            scratch: Vec::new(),
            records: Vec::new(),
            instances: None,
            trees: HashMap::new(),
        };
        sim.emit_initial_table();
        sim
    }

    fn emit_initial_table(&mut self) {
        // An origin's prefixes are adjacent: one tree at a time serves them
        // all without holding every origin's tree at once.
        self.instances = Some(self.failed.active_instances(self.world));
        let mut held: Option<RouteTree> = None;
        for p in 0..self.world.prefixes.len() {
            let origin = self.world.origin_of(PrefixIdx(p as u32));
            let tree = match held.take() {
                Some(tree) if tree.origin == origin => tree,
                _ => compute_tree(self.world, self.instances(), origin),
            };
            for slot in 0..self.setup.peers.len() as u32 {
                if let Some(hops) = self.truth(&tree, slot) {
                    let t = self.start + self.rng.gen_range(0..120);
                    self.set_visible(slot, p as u32, Some(hops), t);
                }
            }
            held = Some(tree);
        }
    }

    fn slot(&self, peer: u32, prefix: u32) -> usize {
        peer as usize * self.world.prefixes.len() + prefix as usize
    }

    fn vantage(&self, peer: u32) -> AsIdx {
        self.setup.peers[peer as usize].as_idx
    }

    /// The current failure epoch's active-instance table; `tree_for`
    /// builds it.
    fn instances(&self) -> &[Option<u32>] {
        self.instances.as_deref().expect("the epoch's table is built with its first tree")
    }

    /// The route `peer` should see over a prefix's `tree` under the
    /// failures in force, as hops.
    fn truth(&self, tree: &RouteTree, peer: u32) -> Option<Box<[Hop]>> {
        route_hops(tree, self.instances(), self.vantage(peer)).map(Iterator::collect)
    }

    /// Whether `peer`'s visible route for `prefix` is still the one `tree`
    /// routes over: the same hops, walked in place, or the same
    /// adjacencies over other instances that announce the same route (a
    /// swap that moves no visit and no community). Visits name their
    /// adjacencies, so other adjacencies always announce another route.
    fn holds(&self, tree: &RouteTree, peer: u32, prefix: u32) -> bool {
        let (world, vantage) = (self.world, self.vantage(peer));
        let truth = || route_hops(tree, self.instances(), vantage);
        let holds = match (truth(), self.visible[self.slot(peer, prefix)].as_deref()) {
            (None, None) => true,
            (Some(now), Some(was)) => {
                let adjacencies = truth().into_iter().flatten().map(|(adj, _)| adj);
                now.eq(was.iter().copied())
                    || (adjacencies.eq(was.iter().map(|&(adj, _)| adj)) && {
                        let is_v6 = self.world.prefix(PrefixIdx(prefix)).is_ipv6();
                        let now = truth().map(|hops| snapshot_of(world, vantage, hops, is_v6));
                        now == Some(snapshot_of(world, vantage, was.iter().copied(), is_v6))
                    })
            }
            _ => false,
        };
        #[cfg(test)]
        self.assert_recheck(tree, peer, prefix, holds);
        holds
    }

    /// Every route change goes through here: emits `route`, or its
    /// withdrawal, at `time`, makes it visible, and moves the counts of the
    /// elements the old and the new route cross for `prefix`.
    fn set_visible(&mut self, peer: u32, prefix: u32, route: Option<Box<[Hop]>>, time: u64) {
        let update = match &route {
            Some(hops) => self.announcement(peer, prefix, hops),
            None => BgpUpdate::withdraw(vec![self.world.prefix(PrefixIdx(prefix))]),
        };
        self.emit_update(peer, &update, time);
        self.count(peer, route.as_deref(), prefix, true);
        let at = self.slot(peer, prefix);
        let old = std::mem::replace(&mut self.visible[at], route);
        self.count(peer, old.as_deref(), prefix, false);
    }

    /// Counts the elements of `peer`'s `route` for `prefix` one up or one
    /// down.
    fn count(&mut self, peer: u32, route: Option<&[Hop]>, prefix: u32, up: bool) {
        let Some(route) = route else { return };
        elements_of(self.world, self.vantage(peer), route, &mut self.scratch);
        for &e in &self.scratch {
            let n = self.index[e].entry(prefix).or_insert(0);
            *n = if up { *n + 1 } else { *n - 1 };
            if *n == 0 {
                self.index[e].remove(&prefix);
            }
        }
    }

    fn tree_for(&mut self, prefix: u32) -> Arc<RouteTree> {
        let origin = self.world.origin_of(PrefixIdx(prefix));
        let (world, failed) = (self.world, &self.failed);
        let instances = self.instances.get_or_insert_with(|| failed.active_instances(world));
        let tree = self
            .trees
            .entry(origin.0)
            .or_insert_with(|| Arc::new(compute_tree(world, instances, origin)));
        Arc::clone(tree)
    }

    /// Starts a new failure epoch: the table and every tree are stale.
    fn bump_epoch(&mut self) {
        self.instances = None;
        self.trees.clear();
    }

    fn peer_id(&self, slot: u32) -> PeerId {
        let spec = &self.setup.peers[slot as usize];
        PeerId { asn: self.world.ases[spec.as_idx.0 as usize].asn, addr: spec.addr }
    }

    fn emit(&mut self, slot: u32, payload: RecordPayload, time: u64) {
        let peer = self.peer_id(slot);
        for &collector in &self.setup.peers[slot as usize].collectors {
            self.records.push(BgpRecord { time, collector, peer, payload: payload.clone() });
        }
    }

    /// Emits `update` in wire form: encoded once, its bytes cloned per
    /// collector.
    fn emit_update(&mut self, slot: u32, update: &BgpUpdate, time: u64) {
        let wire = WireUpdate::encode(update).expect("a one-prefix update fits its 16-bit lengths");
        self.emit(slot, RecordPayload::Update(wire), time);
    }

    /// The announcement of the route `hops` for `prefix` to `slot`.
    fn announcement(&self, slot: u32, prefix: u32, hops: &[Hop]) -> BgpUpdate {
        let p = self.world.prefix(PrefixIdx(prefix));
        let snap = snapshot_of(self.world, self.vantage(slot), hops.iter().copied(), p.is_ipv6());
        let next_hop: IpAddr = if p.is_ipv6() {
            let bits: u128 = (0x2001_07f8u128 << 96) | (slot as u128);
            IpAddr::V6(std::net::Ipv6Addr::from(bits))
        } else {
            self.setup.peers[slot as usize].addr
        };
        let attrs = PathAttributes {
            as_path: AsPath::from_sequence(snap.as_path.iter().map(|a| a.0)),
            communities: snap.communities,
            next_hop,
            ..Default::default()
        };
        BgpUpdate::announce(vec![p], attrs)
    }

    /// Puts event `id` in or out of force and re-derives what is broken.
    fn set_active(&mut self, timeline: &[ScheduledEvent], id: usize, on: bool) {
        match (self.active.binary_search(&(id as u32)), on) {
            (Err(at), true) => self.active.insert(at, id as u32),
            (Ok(at), false) => {
                self.active.remove(at);
            }
            _ => {}
        }
        self.failed = FailedSet::of_events(self.world, timeline, &self.active);
        self.bump_epoch();
    }

    /// The prefixes some peer's visible route crosses an element of `own` on.
    fn affected_prefixes(&self, own: &FailedSet) -> BTreeSet<u32> {
        keys_of(own).flat_map(|k| self.index[k.id(self.world)].keys()).copied().collect()
    }

    /// Recomputes truth for `prefixes` and emits the differences at `time`
    /// (+ jitter). Returns the set actually changed.
    fn reconverge(&mut self, prefixes: &BTreeSet<u32>, time: u64) -> BTreeSet<u32> {
        let mut changed = BTreeSet::new();
        for &prefix in prefixes {
            let tree = self.tree_for(prefix);
            for slot in 0..self.setup.peers.len() as u32 {
                if self.holds(&tree, slot, prefix) {
                    continue;
                }
                changed.insert(prefix);
                let t = time + self.rng.gen_range(5..90);
                let at = self.slot(slot, prefix);
                self.generations[at] += 1;
                let truth = self.truth(&tree, slot);
                self.set_visible(slot, prefix, truth, t);
            }
        }
        changed
    }

    /// Runs the timeline and returns the stream plus ground truth.
    pub fn run(mut self, timeline: &[ScheduledEvent], end: u64) -> SimOutput {
        let mut actions: Vec<Action> = Vec::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let push = |actions: &mut Vec<Action>,
                    heap: &mut BinaryHeap<Reverse<(u64, u64)>>,
                    t: u64,
                    a: Action| {
            let idx = actions.len() as u64;
            actions.push(a);
            heap.push(Reverse((t, idx)));
        };
        for (i, ev) in timeline.iter().enumerate() {
            if ev.start > end {
                continue;
            }
            push(&mut actions, &mut heap, ev.start, Action::Fail(i));
            if ev.end() <= end {
                push(&mut actions, &mut heap, ev.end(), Action::Restore(i));
            }
        }
        // What each event's fail changed, re-checked at its restore, and
        // what the event itself breaks, from its fail to its restore.
        let mut event_scope: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); timeline.len()];
        let mut event_own: Vec<Option<FailedSet>> = vec![None; timeline.len()];
        let mut ground_truth: Vec<GroundTruthEvent> = Vec::new();

        while let Some(Reverse((t, aidx))) = heap.pop() {
            #[cfg(test)]
            self.assert_index_is_rebuilt();
            // Actions may enqueue Returns; take them by index.
            let action = std::mem::replace(&mut actions[aidx as usize], Action::Fail(usize::MAX));
            match action {
                Action::Fail(i) => {
                    let ev = &timeline[i];
                    let own = FailedSet::of_events(self.world, timeline, &[i as u32]);
                    if let EventKind::CollectorFlap { peer_slot } = ev.kind {
                        if peer_slot < self.setup.peers.len() {
                            let down =
                                StateChange { old: PeerState::Established, new: PeerState::Idle };
                            self.emit(peer_slot as u32, RecordPayload::State(down), t);
                        }
                    } else if ev.kind.affects_routes() {
                        self.set_active(timeline, i, true);
                        let affected = self.affected_prefixes(&own);
                        event_scope[i] = self.reconverge(&affected, t);
                    }
                    let affected_members = match ev.kind {
                        // Nothing fails, yet every member's RTT surges.
                        EventKind::LatencySurge { facility, .. } => {
                            self.world.colo.members_of_facility(facility).len()
                        }
                        _ => own.members_down(self.world),
                    };
                    ground_truth.push(GroundTruthEvent {
                        id: i,
                        start: ev.start,
                        duration: ev.duration.min(end.saturating_sub(ev.start)),
                        kind: ev.kind.clone(),
                        affected_members,
                    });
                    event_own[i] = ev.kind.affects_routes().then_some(own);
                }
                Action::Restore(i) => {
                    let ev = &timeline[i];
                    if let EventKind::CollectorFlap { peer_slot } = ev.kind {
                        if peer_slot < self.setup.peers.len() {
                            let slot = peer_slot as u32;
                            let up =
                                StateChange { old: PeerState::Idle, new: PeerState::Established };
                            self.emit(slot, RecordPayload::State(up), t);
                            // Bulk table re-announcement after session
                            // re-establishment, in prefix order.
                            for p in 0..self.world.prefixes.len() as u32 {
                                let route = self.visible[self.slot(slot, p)].as_deref();
                                if let Some(update) = route.map(|r| self.announcement(slot, p, r)) {
                                    let tt = t + self.rng.gen_range(1..120);
                                    self.emit_update(slot, &update, tt);
                                }
                            }
                        }
                        continue;
                    }
                    let Some(own) = event_own[i].take() else { continue };
                    self.set_active(timeline, i, false);
                    let mut affected = std::mem::take(&mut event_scope[i]);
                    // Scope handover: an element another event still breaks
                    // keeps these detours until that event ends.
                    for &j in &self.active {
                        if event_own[j as usize].as_ref().is_some_and(|o| o.overlaps(&own)) {
                            event_scope[j as usize].extend(&affected);
                        }
                    }
                    affected.extend(self.affected_prefixes(&own));
                    // Schedule slow returns instead of instant reconvergence.
                    for prefix in affected {
                        let tree = self.tree_for(prefix);
                        for slot in 0..self.setup.peers.len() as u32 {
                            if self.holds(&tree, slot, prefix) {
                                continue;
                            }
                            // ~5% of paths never return (BGP stickiness /
                            // operator pinning).
                            if self.rng.gen_bool(0.05) {
                                continue;
                            }
                            let delay = self.return_delay();
                            let generation = self.generations[self.slot(slot, prefix)];
                            let idx = actions.len() as u64;
                            actions.push(Action::Return { peer: slot, prefix, generation });
                            heap.push(Reverse((t + delay, idx)));
                        }
                    }
                }
                Action::Return { peer, prefix, generation } => {
                    if self.generations[self.slot(peer, prefix)] != generation {
                        continue; // superseded by a newer event
                    }
                    let tree = self.tree_for(prefix);
                    if !self.holds(&tree, peer, prefix) {
                        let truth = self.truth(&tree, peer);
                        self.set_visible(peer, prefix, truth, t);
                    }
                }
            }
        }
        #[cfg(test)]
        self.assert_index_is_rebuilt();

        let mut records = std::mem::take(&mut self.records);
        records.sort_by_key(|r| r.time);
        ground_truth.sort_by_key(|g| (g.start, g.id));
        let peers = (0..self.setup.peers.len() as u32).map(|slot| self.peer_id(slot));
        SimOutput {
            records,
            ground_truth,
            collector_names: self.setup.names.clone(),
            peers: peers.map(|p| (p.asn, p.addr)).collect(),
        }
    }

    /// Control-plane return delay after restoration: median ≈8 min with a
    /// tail to 4 h (Figure 10a's reconvergence shape: most paths return
    /// quickly, the stragglers take hours).
    fn return_delay(&mut self) -> u64 {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let secs = -(1.0 - u).ln() * 700.0;
        (secs as u64).clamp(60, 4 * 3600)
    }
}

/// Test builds check the counted element index against a rebuild from
/// scratch after every action, and every re-check's verdict against a
/// comparison of whole snapshots, on a table this small.
#[cfg(test)]
const AUDITED_SLOTS: usize = 4_096;

#[cfg(test)]
impl Simulation<'_> {
    /// The element index rebuilt from scratch over `visible`: how many
    /// peers' visible routes cross each element, at `element * prefixes +
    /// prefix`.
    fn index_from_scratch(&self) -> Vec<u32> {
        let prefixes = self.world.prefixes.len();
        let (mut counts, mut elements) = (vec![0; self.index.len() * prefixes], Vec::new());
        for (at, route) in self.visible.iter().enumerate() {
            let Some(route) = route else { continue };
            elements_of(self.world, self.vantage((at / prefixes) as u32), route, &mut elements);
            for &e in &elements {
                counts[e * prefixes + at % prefixes] += 1;
            }
        }
        counts
    }

    fn assert_index_is_rebuilt(&self) {
        if self.visible.len() > AUDITED_SLOTS {
            return;
        }
        let (prefixes, mut rebuilt) = (self.world.prefixes.len(), self.index_from_scratch());
        for (e, counts) in self.index.iter().enumerate() {
            for (&p, &n) in counts {
                let at = e * prefixes + p as usize;
                assert!(n > 0 && rebuilt[at] == n, "element {e}, prefix {p}: counted {n}");
                rebuilt[at] = 0;
            }
        }
        assert!(rebuilt.iter().all(|&n| n == 0), "the counted element index misses a crossing");
        if let Some(instances) = &self.instances {
            assert!(
                *instances == self.failed.active_instances(self.world),
                "a stale instance table"
            );
        }
    }

    /// The re-check by hops against the full comparison: the snapshot
    /// `tree` routes, against the snapshot of the visible route.
    fn assert_recheck(&self, tree: &RouteTree, peer: u32, prefix: u32, holds: bool) {
        if self.visible.len() > AUDITED_SLOTS {
            return;
        }
        let (world, vantage) = (self.world, self.vantage(peer));
        let is_v6 = world.prefix(PrefixIdx(prefix)).is_ipv6();
        let truth = route_hops(tree, self.instances(), vantage);
        let truth = truth.map(|hops| snapshot_of(world, vantage, hops, is_v6));
        let visible = self.visible[self.slot(peer, prefix)].as_deref();
        let visible = visible.map(|hops| snapshot_of(world, vantage, hops.iter().copied(), is_v6));
        assert_eq!(
            holds,
            truth == visible,
            "peer {peer}, prefix {prefix}: {truth:?} vs {visible:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{AdjIdx, WorldConfig};

    const T0: u64 = 1_400_000_000;

    fn setup(world: &World) -> CollectorSetup {
        CollectorSetup::default_for(world, 2, 12, 5)
    }

    fn busiest_facility(world: &World) -> FacilityId {
        world
            .colo
            .facilities()
            .iter()
            .max_by_key(|f| world.colo.members_of_facility(f.id).len())
            .unwrap()
            .id
    }

    #[test]
    fn initial_table_is_emitted_for_all_peers() {
        let w = World::generate(WorldConfig::tiny(81));
        let s = setup(&w);
        let n_peers = s.peers.len();
        assert!(n_peers >= 3);
        let sim = Simulation::new(&w, s, T0, 1);
        let out = sim.run(&[], T0 + 3600);
        assert!(!out.records.is_empty());
        // All records are initial announcements within the first 2 minutes.
        assert!(out.records.iter().all(|r| r.time < T0 + 121));
        assert!(out.records.iter().all(
            |r| matches!(&r.payload, RecordPayload::Update(u) if u.view().has_announcements())
        ));
    }

    #[test]
    fn facility_outage_changes_routes_and_restores() {
        let w = World::generate(WorldConfig::tiny(83));
        let fac = busiest_facility(&w);
        let s = setup(&w);
        let sim = Simulation::new(&w, s, T0, 2);
        let timeline = vec![ScheduledEvent {
            start: T0 + 2 * 86_400,
            duration: 1800,
            kind: EventKind::FacilityOutage { facility: fac, affected_fraction: 1.0 },
        }];
        let out = sim.run(&timeline, T0 + 4 * 86_400);
        let outage_window = (T0 + 2 * 86_400)..(T0 + 2 * 86_400 + 1800 + 120);
        let during: Vec<_> =
            out.records.iter().filter(|r| outage_window.contains(&r.time)).collect();
        assert!(!during.is_empty(), "outage must cause visible updates");
        let after: Vec<_> = out.records.iter().filter(|r| r.time >= outage_window.end).collect();
        assert!(!after.is_empty(), "restoration must cause returns");
        assert_eq!(out.ground_truth.len(), 1);
        assert_eq!(out.ground_truth[0].duration, 1800);
        assert!(out.ground_truth[0].affected_members > 0);
    }

    /// Two simulations of one timeline in one process emit the same
    /// records. The collector flap's bulk re-announcement draws one jitter
    /// per route, so it must walk the routes in prefix order, not in the
    /// order of a hashed table (whose seed differs between two tables).
    #[test]
    fn runs_are_deterministic() {
        let w = World::generate(WorldConfig::tiny(85));
        let fac = busiest_facility(&w);
        let timeline = vec![
            ScheduledEvent {
                start: T0 + 200_000,
                duration: 900,
                kind: EventKind::FacilityOutage { facility: fac, affected_fraction: 1.0 },
            },
            ScheduledEvent {
                start: T0 + 250_000,
                duration: 600,
                kind: EventKind::CollectorFlap { peer_slot: 1 },
            },
        ];
        let out1 = Simulation::new(&w, setup(&w), T0, 3).run(&timeline, T0 + 300_000);
        let out2 = Simulation::new(&w, setup(&w), T0, 3).run(&timeline, T0 + 300_000);
        assert_eq!(out1.records.len(), out2.records.len());
        for (a, b) in out1.records.iter().zip(out2.records.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn collector_flap_emits_state_and_readvertisement() {
        let w = World::generate(WorldConfig::tiny(87));
        let s = setup(&w);
        let feeds = s.peers[0].collectors.len();
        let sim = Simulation::new(&w, s, T0, 4);
        let timeline = vec![ScheduledEvent {
            start: T0 + 200_000,
            duration: 600,
            kind: EventKind::CollectorFlap { peer_slot: 0 },
        }];
        let out = sim.run(&timeline, T0 + 300_000);
        let states: Vec<_> =
            out.records.iter().filter(|r| matches!(r.payload, RecordPayload::State(_))).collect();
        assert_eq!(states.len(), 2 * feeds, "one down and one up per collector slot 0 feeds");
        let reann = out
            .records
            .iter()
            .filter(|r| {
                r.time > T0 + 200_000 + 600 && matches!(r.payload, RecordPayload::Update(_))
            })
            .count();
        assert!(reann > 0, "bulk re-announcement after session up");
    }

    fn p2p_link(w: &World) -> (Asn, Asn) {
        let adj =
            w.adjacencies.iter().find(|a| a.rel == crate::world::Rel::P2P).expect("peering exists");
        (w.ases[adj.a.0 as usize].asn, w.ases[adj.b.0 as usize].asn)
    }

    /// Announcements in `window` whose AS path crosses the `a`–`b` link.
    fn crossing(out: &SimOutput, window: std::ops::Range<u64>, (a, b): (Asn, Asn)) -> usize {
        let crosses = |hops: &[Asn]| hops.windows(2).any(|h| h == [a, b] || h == [b, a]);
        out.records
            .iter()
            .filter(|r| window.contains(&r.time))
            .filter(|r| match &r.payload {
                RecordPayload::Update(u) => {
                    u.materialize().attrs.is_some_and(|x| crosses(&x.as_path.hops()))
                }
                _ => false,
            })
            .count()
    }

    #[test]
    fn depeering_only_touches_prefixes_that_crossed_the_link() {
        let w = World::generate(WorldConfig::tiny(89));
        // Pick a P2P adjacency to tear down.
        let (a, b) = p2p_link(&w);
        let out_link = Simulation::new(&w, setup(&w), T0, 6).run(
            &[ScheduledEvent {
                start: T0 + 200_000,
                duration: 1800,
                kind: EventKind::Depeering { a, b },
            }],
            T0 + 260_000,
        );
        // Every post-event announcement must avoid the torn-down link while
        // it is dead (no path may contain ...a b... or ...b a...).
        assert_eq!(crossing(&out_link, (T0 + 200_000)..(T0 + 201_800), (a, b)), 0);
        // The affected prefix set must be a strict subset of all prefixes.
        let touched: BTreeSet<_> = out_link
            .records
            .iter()
            .filter(|r| r.time >= T0 + 200_000)
            .filter_map(|r| match &r.payload {
                RecordPayload::Update(u) => {
                    let u = u.materialize();
                    u.announced.first().or(u.withdrawn.first()).copied()
                }
                _ => None,
            })
            .collect();
        assert!(touched.len() < w.prefixes.len(), "link event must be localized");
    }

    /// Two de-peerings of one link, the second starting before the first
    /// ends: the link stays dead until the last one ends (the union of the
    /// events in force), and the first one's detours, handed to the
    /// second at its restore, return once the second ends.
    #[test]
    fn overlapping_depeerings_keep_the_link_dead_until_the_last_ends() {
        let w = World::generate(WorldConfig::tiny(89));
        let link = p2p_link(&w);
        let (a, b) = link;
        let depeering = |start, duration| ScheduledEvent {
            start,
            duration,
            kind: EventKind::Depeering { a, b },
        };
        let timeline = [depeering(T0 + 200_000, 1800), depeering(T0 + 201_000, 9000)];
        let (first_end, second_end) = (timeline[0].end(), timeline[1].end());
        let out = Simulation::new(&w, setup(&w), T0, 6).run(&timeline, T0 + 260_000);
        assert_eq!(crossing(&out, first_end..second_end, link), 0, "the link is still dead");
        assert!(crossing(&out, second_end..T0 + 260_000, link) > 0, "detours return");
    }

    /// Every `EventKind` variant's ground-truth member count and element
    /// keys on one tiny world, read off the event's own failure set.
    /// Pinned against the per-variant matches this replaced, with two
    /// known drifts: a de-peering of two ASes that never interconnect
    /// now counts 0 members (the matches counted 2), and a hand-written
    /// withdraw listing a member twice counts it once (the matches
    /// counted 2).
    #[test]
    fn member_counts_and_element_keys_are_pinned() {
        use ElementKey::{Adj, Fac, Ixp};
        let w = World::generate(WorldConfig::tiny(91));
        let fac = busiest_facility(&w);
        let ixp =
            w.colo.ixps().iter().max_by_key(|x| w.colo.members_of_ixp(x.id).len()).unwrap().id;
        let fac_members: Vec<Asn> = w.colo.members_of_facility(fac).iter().copied().collect();
        let ixp_members: Vec<Asn> = w.colo.members_of_ixp(ixp).iter().copied().collect();
        assert_eq!((fac_members.len(), ixp_members.len()), (15, 15));
        let (a, b) = p2p_link(&w);
        let adj = w.adjacency_between(a, b).unwrap();
        let stranger = w
            .ases
            .iter()
            .map(|n| n.asn)
            .find(|&c| c != a && w.adjacency_between(a, c).is_none())
            .unwrap();
        let kinds = [
            EventKind::FacilityOutage { facility: fac, affected_fraction: 1.0 },
            EventKind::FacilityOutage { facility: fac, affected_fraction: 0.3 },
            EventKind::FiberCut { facility: fac, affected_fraction: 0.8 },
            EventKind::IxpOutage { ixp, affected_fraction: 1.0 },
            EventKind::IxpOutage { ixp, affected_fraction: 0.5 },
            EventKind::Depeering { a, b },
            EventKind::Depeering { a, b: stranger },
            EventKind::IxpMemberLeave { asn: ixp_members[0], ixp },
            EventKind::OperatorWithdraw { asns: fac_members[..2].to_vec(), facility: fac },
            EventKind::OperatorWithdraw { asns: vec![fac_members[0]; 2], facility: fac },
            EventKind::CollectorFlap { peer_slot: 0 },
            EventKind::LatencySurge { facility: fac, extra_ms: 30.0 },
        ];
        let timeline: Vec<ScheduledEvent> = kinds
            .iter()
            .enumerate()
            .map(|(i, kind)| ScheduledEvent {
                start: T0 + 10_000 * (i as u64 + 1),
                duration: 600,
                kind: kind.clone(),
            })
            .collect();
        let out = Simulation::new(&w, setup(&w), T0, 1).run(&timeline, T0 + 200_000);
        let members: Vec<usize> = out.ground_truth.iter().map(|g| g.affected_members).collect();
        //                     full partial fiber full partial link stranger leave withdraw twice flap surge
        assert_eq!(members, [15, 5, 12, 15, 8, 2, 0, 1, 2, 1, 0, 15]);
        let keys: Vec<BTreeSet<ElementKey>> = (0..timeline.len() as u32)
            .map(|i| keys_of(&FailedSet::of_events(&w, &timeline, &[i])).collect())
            .collect();
        let (f, x, link) =
            (BTreeSet::from([Fac(fac)]), BTreeSet::from([Ixp(ixp)]), BTreeSet::from([Adj(adj)]));
        let none = BTreeSet::new();
        assert_eq!(
            keys,
            [&f, &f, &f, &x, &x, &link, &none, &x, &f, &f, &none, &none].map(Clone::clone)
        );
    }

    /// Adjacencies some collector peer's healthy route crosses, and whose
    /// preferred instance dies with one member's port at its facility
    /// while another instance stays up: (adjacency, member, facility).
    fn movable_adjacencies(w: &World, setup: &CollectorSetup) -> Vec<(AdjIdx, Asn, FacilityId)> {
        let healthy = FailedSet::default().active_instances(w);
        let mut used = BTreeSet::new();
        for p in 0..w.prefixes.len() as u32 {
            let tree = compute_tree(w, &healthy, w.origin_of(PrefixIdx(p)));
            for peer in &setup.peers {
                used.extend(route_hops(&tree, &healthy, peer.as_idx).into_iter().flatten());
            }
        }
        let movable = used.into_iter().filter_map(|(adj_idx, inst)| {
            let adj = &w.adjacencies[adj_idx.0 as usize];
            let (asn, facility) =
                (w.ases[adj.a.0 as usize].asn, adj.instances[inst as usize].a_side.facility?);
            let mut port = FailedSet::default();
            port.facility_ports.insert((facility, asn));
            port.active_instance(w, adj_idx)
                .is_some_and(|k| k != inst)
                .then_some((adj_idx, asn, facility))
        });
        movable.collect()
    }

    /// Generated timelines on tiny worlds: whole and partial facility and
    /// IXP outages, member leaves and de-peerings drawn so that they
    /// overlap and repeat elements, plus a collector flap, and partial
    /// facility outages (one port withdrawn, a fraction of the ports down)
    /// that move routes' adjacencies to another instance. `run` checks the
    /// counted element index against its rebuild after every action, and
    /// every re-check's verdict against a comparison of whole snapshots.
    #[test]
    fn counted_index_matches_its_rebuild_on_generated_timelines() {
        for seed in 0..3u64 {
            let w = World::generate(WorldConfig::tiny(100 + seed));
            let mut rng = StdRng::seed_from_u64(seed);
            let colo = &w.colo;
            let facs: Vec<FacilityId> = colo
                .facilities()
                .iter()
                .map(|f| f.id)
                .filter(|&f| colo.members_of_facility(f).len() >= 2)
                .collect();
            let ixps: Vec<IxpId> = colo.ixps().iter().map(|x| x.id).collect();
            let asn = |i: AsIdx| w.ases[i.0 as usize].asn;
            let links: Vec<(Asn, Asn)> =
                w.adjacencies.iter().map(|a| (asn(a.a), asn(a.b))).collect();
            let mut timeline = vec![ScheduledEvent {
                start: T0 + 20_000,
                duration: 3_000,
                kind: EventKind::CollectorFlap { peer_slot: 0 },
            }];
            for _ in 0..12 {
                let affected_fraction = [1.0, 0.5][rng.gen_range(0..2)];
                let (facility, ixp) = (facs[rng.gen_range(0..3)], ixps[rng.gen_range(0..2)]);
                let kind = match rng.gen_range(0..4) {
                    0 => EventKind::FacilityOutage { facility, affected_fraction },
                    1 => EventKind::IxpOutage { ixp, affected_fraction },
                    2 => {
                        let members = colo.members_of_ixp(ixp);
                        let asn = *members.iter().nth(rng.gen_range(0..members.len())).unwrap();
                        EventKind::IxpMemberLeave { asn, ixp }
                    }
                    _ => {
                        let (a, b) = links[rng.gen_range(0..links.len().min(20))];
                        EventKind::Depeering { a, b }
                    }
                };
                timeline.push(ScheduledEvent {
                    start: T0 + 10_000 + rng.gen_range(0..20_000),
                    duration: rng.gen_range(600..15_000),
                    kind,
                });
            }
            let movable = movable_adjacencies(&w, &setup(&w));
            assert!(!movable.is_empty(), "world {seed}: no route can move instance");
            for &(_, asn, facility) in movable.iter().take(4) {
                for kind in [
                    EventKind::OperatorWithdraw { asns: vec![asn], facility },
                    EventKind::FacilityOutage { facility, affected_fraction: 0.5 },
                ] {
                    timeline.push(ScheduledEvent {
                        start: T0 + 10_000 + rng.gen_range(0..20_000),
                        duration: rng.gen_range(600..15_000),
                        kind,
                    });
                }
            }
            let out = Simulation::new(&w, setup(&w), T0, seed).run(&timeline, T0 + 100_000);
            assert!(out.records.iter().any(|r| r.time > T0 + 10_000), "the timeline moves routes");
        }
    }

    /// Record count and FNV-1a-64 of a stream: each record's time and
    /// collector, then its MRT encoding.
    fn fingerprint(records: &[BgpRecord]) -> (usize, u64) {
        let local = IpAddr::from([0, 0, 0, 0]);
        let (mut fnv, mut buf) = (0xCBF2_9CE4_8422_2325u64, Vec::new());
        for r in records {
            buf.clear();
            buf.extend_from_slice(&r.time.to_le_bytes());
            buf.extend_from_slice(&r.collector.0.to_le_bytes());
            let mrt = r.to_mrt(Asn(0), local);
            kepler_bgp::mrt::MrtWriter::new(&mut buf).write_record(&mrt).unwrap();
            for &b in &buf {
                fnv = (fnv ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        (records.len(), fnv)
    }

    /// The compact five-year study and the AMS-IX study emit exactly the
    /// streams they emitted before the engine kept a counted element index.
    #[test]
    fn study_streams_are_pinned() {
        use crate::scenario::{amsix::AmsIxScenario, five_year};
        let compact = five_year::build(five_year::FiveYearConfig::compact(7));
        assert_eq!(fingerprint(&compact.output.records), (5_788, 0x7cf7_30c8_d543_2f9a));
        let amsix = AmsIxScenario::new(41).build();
        assert_eq!(fingerprint(&amsix.scenario.output.records), (49_225, 0x7e07_406c_41ab_5187));
    }

    /// The standard five-year study behind `repro fig1`: seconds in a
    /// release build, so CI runs it with `--ignored`.
    #[test]
    #[ignore]
    fn full_study_stream_is_pinned() {
        use crate::scenario::five_year;
        let study = five_year::build(five_year::FiveYearConfig::standard(7));
        assert_eq!(fingerprint(&study.output.records), (384_674, 0x62c0_5153_f2b2_22bb));
    }
}
