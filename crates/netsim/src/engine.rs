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

use crate::events::{partial_ports, EventKind, GroundTruthEvent, ScheduledEvent};
use crate::routing::policy::FailedSet;
use crate::routing::propagate::{compute_tree, RouteTree};
use crate::routing::tag::{snapshot_route, RouteSnapshot};
use crate::world::{AsIdx, PrefixIdx, World};
use kepler_bgp::{AsPath, Asn, BgpUpdate, PathAttributes, PeerState, StateChange};
use kepler_bgpstream::{BgpRecord, CollectorId, PeerId, RecordPayload};
use kepler_topology::{FacilityId, IxpId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
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

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ElementKey {
    Fac(FacilityId),
    Ixp(IxpId),
    Adj(crate::world::AdjIdx),
}

fn elements_of(snap: &RouteSnapshot) -> HashSet<ElementKey> {
    let mut out = HashSet::new();
    for v in &snap.visits {
        if let Some(f) = v.near_fac {
            out.insert(ElementKey::Fac(f));
        }
        if let Some(f) = v.far_fac {
            out.insert(ElementKey::Fac(f));
        }
        if let Some(x) = v.ixp {
            out.insert(ElementKey::Ixp(x));
        }
        out.insert(ElementKey::Adj(v.adj));
    }
    out
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
    failed: FailedSet,
    /// What BGP currently shows per (peer slot, prefix).
    visible: HashMap<(u32, u32), RouteSnapshot>,
    /// Per-prefix union of elements across peers' visible routes.
    prefix_elements: Vec<HashSet<ElementKey>>,
    usage: HashMap<ElementKey, HashSet<u32>>,
    generations: HashMap<(u32, u32), u64>,
    records: Vec<BgpRecord>,
    /// `failed`'s usable-adjacency table, built on first use in each
    /// failure epoch (every applied event starts one).
    usable: Option<Vec<bool>>,
    /// Routing trees of the current failure epoch, by origin AS: the
    /// prefixes of one origin share a tree.
    trees: HashMap<u32, Arc<RouteTree>>,
}

impl<'w> Simulation<'w> {
    /// Prepares a simulation (computes the initial full table and emits it
    /// as the first records at `start`).
    pub fn new(world: &'w World, setup: CollectorSetup, start: u64, seed: u64) -> Self {
        let mut sim = Simulation {
            world,
            setup,
            start,
            rng: StdRng::seed_from_u64(seed ^ 0x51A1_0E17),
            failed: FailedSet::default(),
            visible: HashMap::new(),
            prefix_elements: vec![HashSet::new(); world.prefixes.len()],
            usage: HashMap::new(),
            generations: HashMap::new(),
            records: Vec::new(),
            usable: None,
            trees: HashMap::new(),
        };
        sim.emit_initial_table();
        sim
    }

    fn emit_initial_table(&mut self) {
        // An origin's prefixes are adjacent: one tree at a time serves them
        // all without holding every origin's tree at once.
        let usable = self.failed.usable_adjacencies(self.world);
        let mut held: Option<RouteTree> = None;
        for p in 0..self.world.prefixes.len() {
            let pidx = PrefixIdx(p as u32);
            let origin = self.world.origin_of(pidx);
            let is_v6 = self.world.prefix(pidx).is_ipv6();
            let tree = match held.take() {
                Some(tree) if tree.origin == origin => tree,
                _ => compute_tree(self.world, &usable, origin),
            };
            for slot in 0..self.setup.peers.len() {
                let vantage = self.setup.peers[slot].as_idx;
                if let Some(snap) = snapshot_route(self.world, &self.failed, &tree, vantage, is_v6)
                {
                    let t = self.start + self.rng.gen_range(0..120);
                    self.emit_announce(slot as u32, p as u32, &snap, t);
                    self.visible.insert((slot as u32, p as u32), snap);
                }
            }
            held = Some(tree);
            self.refresh_prefix_elements(p as u32);
        }
    }

    fn refresh_prefix_elements(&mut self, prefix: u32) {
        let mut new_set = HashSet::new();
        for slot in 0..self.setup.peers.len() {
            if let Some(snap) = self.visible.get(&(slot as u32, prefix)) {
                new_set.extend(elements_of(snap));
            }
        }
        let old = std::mem::replace(&mut self.prefix_elements[prefix as usize], new_set.clone());
        for k in old.difference(&new_set) {
            if let Some(s) = self.usage.get_mut(k) {
                s.remove(&prefix);
            }
        }
        for k in &new_set {
            self.usage.entry(*k).or_default().insert(prefix);
        }
    }

    fn tree_for(&mut self, prefix: u32) -> Arc<RouteTree> {
        let origin = self.world.origin_of(PrefixIdx(prefix));
        let (world, failed) = (self.world, &self.failed);
        let usable = self.usable.get_or_insert_with(|| failed.usable_adjacencies(world));
        let tree = self
            .trees
            .entry(origin.0)
            .or_insert_with(|| Arc::new(compute_tree(world, usable, origin)));
        Arc::clone(tree)
    }

    /// Starts a new failure epoch: the table and every tree are stale.
    fn bump_epoch(&mut self) {
        self.usable = None;
        self.trees.clear();
    }

    fn peer_id(&self, slot: u32) -> PeerId {
        let spec = &self.setup.peers[slot as usize];
        PeerId { asn: self.world.ases[spec.as_idx.0 as usize].asn, addr: spec.addr }
    }

    fn emit(&mut self, slot: u32, payload: RecordPayload, time: u64) {
        let peer = self.peer_id(slot);
        for &collector in &self.setup.peers[slot as usize].collectors.clone() {
            self.records.push(BgpRecord { time, collector, peer, payload: payload.clone() });
        }
    }

    fn attrs_for(&self, slot: u32, snap: &RouteSnapshot, is_v6: bool) -> PathAttributes {
        let next_hop: IpAddr = if is_v6 {
            let bits: u128 = (0x2001_07f8u128 << 96) | (slot as u128);
            IpAddr::V6(std::net::Ipv6Addr::from(bits))
        } else {
            self.setup.peers[slot as usize].addr
        };
        PathAttributes {
            as_path: AsPath::from_sequence(snap.as_path.iter().map(|a| a.0)),
            communities: snap.communities.clone(),
            next_hop,
            ..Default::default()
        }
    }

    fn emit_announce(&mut self, slot: u32, prefix: u32, snap: &RouteSnapshot, time: u64) {
        let p = self.world.prefix(PrefixIdx(prefix));
        let attrs = self.attrs_for(slot, snap, p.is_ipv6());
        self.emit(slot, RecordPayload::Update(BgpUpdate::announce(vec![p], attrs)), time);
    }

    fn emit_withdraw(&mut self, slot: u32, prefix: u32, time: u64) {
        let p = self.world.prefix(PrefixIdx(prefix));
        self.emit(slot, RecordPayload::Update(BgpUpdate::withdraw(vec![p])), time);
    }

    fn apply_kind(&mut self, id: usize, kind: &EventKind, on: bool) {
        match kind {
            EventKind::FacilityOutage { facility, affected_fraction }
            | EventKind::FiberCut { facility, affected_fraction } => {
                if *affected_fraction >= 1.0 {
                    if on {
                        self.failed.facilities.insert(*facility);
                    } else {
                        self.failed.facilities.remove(facility);
                    }
                } else {
                    let members: Vec<Asn> =
                        self.world.colo.members_of_facility(*facility).iter().copied().collect();
                    for asn in partial_ports(self.world, &members, *affected_fraction, id as u64) {
                        if on {
                            self.failed.facility_ports.insert((*facility, asn));
                        } else {
                            self.failed.facility_ports.remove(&(*facility, asn));
                        }
                    }
                }
            }
            EventKind::IxpOutage { ixp, affected_fraction } => {
                if *affected_fraction >= 1.0 {
                    if on {
                        self.failed.ixps.insert(*ixp);
                    } else {
                        self.failed.ixps.remove(ixp);
                    }
                } else {
                    let members: Vec<Asn> =
                        self.world.colo.members_of_ixp(*ixp).iter().copied().collect();
                    for asn in partial_ports(self.world, &members, *affected_fraction, id as u64) {
                        if on {
                            self.failed.ixp_ports.insert((*ixp, asn));
                        } else {
                            self.failed.ixp_ports.remove(&(*ixp, asn));
                        }
                    }
                }
            }
            EventKind::Depeering { a, b } => {
                let (Some(&ia), Some(&ib)) =
                    (self.world.asn_to_idx.get(a), self.world.asn_to_idx.get(b))
                else {
                    return;
                };
                let k = if ia.0 <= ib.0 { (ia, ib) } else { (ib, ia) };
                if let Some(&adj) = self.world.adj_of.get(&k) {
                    if on {
                        self.failed.dead_adjacencies.insert(adj);
                    } else {
                        self.failed.dead_adjacencies.remove(&adj);
                    }
                }
            }
            EventKind::IxpMemberLeave { asn, ixp } => {
                if on {
                    self.failed.dead_memberships.insert((*ixp, *asn));
                } else {
                    self.failed.dead_memberships.remove(&(*ixp, *asn));
                }
            }
            EventKind::OperatorWithdraw { asns, facility } => {
                for asn in asns {
                    if on {
                        self.failed.facility_ports.insert((*facility, *asn));
                    } else {
                        self.failed.facility_ports.remove(&(*facility, *asn));
                    }
                }
            }
            EventKind::CollectorFlap { .. } => {}
            // Pure data-plane event: routing state is untouched, the
            // dataplane backend reads the surge off the timeline.
            EventKind::LatencySurge { .. } => {}
        }
        self.bump_epoch();
    }

    fn keys_of(&self, kind: &EventKind) -> Vec<ElementKey> {
        match kind {
            EventKind::FacilityOutage { facility, .. }
            | EventKind::FiberCut { facility, .. }
            | EventKind::OperatorWithdraw { facility, .. } => vec![ElementKey::Fac(*facility)],
            EventKind::IxpOutage { ixp, .. } | EventKind::IxpMemberLeave { ixp, .. } => {
                vec![ElementKey::Ixp(*ixp)]
            }
            EventKind::Depeering { a, b } => {
                let (Some(&ia), Some(&ib)) =
                    (self.world.asn_to_idx.get(a), self.world.asn_to_idx.get(b))
                else {
                    return vec![];
                };
                let k = if ia.0 <= ib.0 { (ia, ib) } else { (ib, ia) };
                self.world.adj_of.get(&k).map(|&adj| vec![ElementKey::Adj(adj)]).unwrap_or_default()
            }
            EventKind::CollectorFlap { .. } | EventKind::LatencySurge { .. } => vec![],
        }
    }

    fn affected_prefixes(&self, keys: &[ElementKey]) -> HashSet<u32> {
        let mut out = HashSet::new();
        for k in keys {
            if let Some(s) = self.usage.get(k) {
                out.extend(s.iter().copied());
            }
        }
        out
    }

    /// Recomputes truth for `prefixes` and emits the differences at `time`
    /// (+ jitter). Returns the set actually changed.
    fn reconverge(&mut self, prefixes: &HashSet<u32>, time: u64) -> HashSet<u32> {
        let mut changed = HashSet::new();
        let mut sorted: Vec<u32> = prefixes.iter().copied().collect();
        sorted.sort_unstable();
        for prefix in sorted {
            let tree = self.tree_for(prefix);
            let is_v6 = self.world.prefix(PrefixIdx(prefix)).is_ipv6();
            for slot in 0..self.setup.peers.len() as u32 {
                let vantage = self.setup.peers[slot as usize].as_idx;
                let truth = snapshot_route(self.world, &self.failed, &tree, vantage, is_v6);
                let current = self.visible.get(&(slot, prefix));
                if truth.as_ref() == current {
                    continue;
                }
                changed.insert(prefix);
                let t = time + self.rng.gen_range(5..90);
                *self.generations.entry((slot, prefix)).or_insert(0) += 1;
                match truth {
                    Some(snap) => {
                        self.emit_announce(slot, prefix, &snap, t);
                        self.visible.insert((slot, prefix), snap);
                    }
                    None => {
                        self.emit_withdraw(slot, prefix, t);
                        self.visible.remove(&(slot, prefix));
                    }
                }
            }
            self.refresh_prefix_elements(prefix);
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
        let mut event_scope: HashMap<usize, HashSet<u32>> = HashMap::new();
        let mut ground_truth: Vec<GroundTruthEvent> = Vec::new();

        while let Some(Reverse((t, aidx))) = heap.pop() {
            // Actions may enqueue Returns; take them by index.
            let action = std::mem::replace(&mut actions[aidx as usize], Action::Fail(usize::MAX));
            match action {
                Action::Fail(i) => {
                    let ev = &timeline[i];
                    if let EventKind::CollectorFlap { peer_slot } = ev.kind {
                        if peer_slot < self.setup.peers.len() {
                            self.emit(
                                peer_slot as u32,
                                RecordPayload::State(StateChange {
                                    old: PeerState::Established,
                                    new: PeerState::Idle,
                                }),
                                t,
                            );
                        }
                        ground_truth.push(GroundTruthEvent {
                            id: i,
                            start: ev.start,
                            duration: ev.duration.min(end.saturating_sub(ev.start)),
                            kind: ev.kind.clone(),
                            affected_members: 0,
                        });
                        continue;
                    }
                    self.apply_kind(i, &ev.kind, true);
                    let keys = self.keys_of(&ev.kind);
                    let affected = self.affected_prefixes(&keys);
                    let changed = self.reconverge(&affected, t);
                    event_scope.insert(i, changed);
                    let affected_members = self.count_affected_members(i, &ev.kind);
                    ground_truth.push(GroundTruthEvent {
                        id: i,
                        start: ev.start,
                        duration: ev.duration.min(end.saturating_sub(ev.start)),
                        kind: ev.kind.clone(),
                        affected_members,
                    });
                }
                Action::Restore(i) => {
                    let ev = &timeline[i];
                    if let EventKind::CollectorFlap { peer_slot } = ev.kind {
                        if peer_slot < self.setup.peers.len() {
                            let slot = peer_slot as u32;
                            self.emit(
                                slot,
                                RecordPayload::State(StateChange {
                                    old: PeerState::Idle,
                                    new: PeerState::Established,
                                }),
                                t,
                            );
                            // Bulk table re-announcement after session
                            // re-establishment.
                            let mine: Vec<(u32, RouteSnapshot)> = self
                                .visible
                                .iter()
                                .filter(|((s, _), _)| *s == slot)
                                .map(|((_, p), snap)| (*p, snap.clone()))
                                .collect();
                            for (p, snap) in mine {
                                let tt = t + self.rng.gen_range(1..120);
                                self.emit_announce(slot, p, &snap, tt);
                            }
                        }
                        continue;
                    }
                    self.apply_kind(i, &ev.kind, false);
                    let mut affected = event_scope.remove(&i).unwrap_or_default();
                    affected.extend(self.affected_prefixes(&self.keys_of(&ev.kind)));
                    // Schedule slow returns instead of instant reconvergence.
                    let mut sorted: Vec<u32> = affected.into_iter().collect();
                    sorted.sort_unstable();
                    for prefix in sorted {
                        let tree = self.tree_for(prefix);
                        let is_v6 = self.world.prefix(PrefixIdx(prefix)).is_ipv6();
                        for slot in 0..self.setup.peers.len() as u32 {
                            let vantage = self.setup.peers[slot as usize].as_idx;
                            let truth =
                                snapshot_route(self.world, &self.failed, &tree, vantage, is_v6);
                            if truth.as_ref() == self.visible.get(&(slot, prefix)) {
                                continue;
                            }
                            // ~5% of paths never return (BGP stickiness /
                            // operator pinning).
                            if self.rng.gen_bool(0.05) {
                                continue;
                            }
                            let delay = self.return_delay();
                            let generation = *self.generations.entry((slot, prefix)).or_insert(0);
                            let idx = actions.len() as u64;
                            actions.push(Action::Return { peer: slot, prefix, generation });
                            heap.push(Reverse((t + delay, idx)));
                        }
                    }
                }
                Action::Return { peer, prefix, generation } => {
                    let cur_gen = *self.generations.entry((peer, prefix)).or_insert(0);
                    if cur_gen != generation {
                        continue; // superseded by a newer event
                    }
                    let tree = self.tree_for(prefix);
                    let is_v6 = self.world.prefix(PrefixIdx(prefix)).is_ipv6();
                    let vantage = self.setup.peers[peer as usize].as_idx;
                    let truth = snapshot_route(self.world, &self.failed, &tree, vantage, is_v6);
                    if truth.as_ref() == self.visible.get(&(peer, prefix)) {
                        continue;
                    }
                    match truth {
                        Some(snap) => {
                            self.emit_announce(peer, prefix, &snap, t);
                            self.visible.insert((peer, prefix), snap);
                        }
                        None => {
                            self.emit_withdraw(peer, prefix, t);
                            self.visible.remove(&(peer, prefix));
                        }
                    }
                    self.refresh_prefix_elements(prefix);
                }
            }
        }

        let mut records = std::mem::take(&mut self.records);
        records.sort_by_key(|r| r.time);
        ground_truth.sort_by_key(|g| (g.start, g.id));
        SimOutput {
            records,
            ground_truth,
            collector_names: self.setup.names.clone(),
            peers: self
                .setup
                .peers
                .iter()
                .map(|p| (self.world.ases[p.as_idx.0 as usize].asn, p.addr))
                .collect(),
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

    fn count_affected_members(&self, id: usize, kind: &EventKind) -> usize {
        match kind {
            EventKind::FacilityOutage { facility, affected_fraction }
            | EventKind::FiberCut { facility, affected_fraction } => {
                let members: Vec<Asn> =
                    self.world.colo.members_of_facility(*facility).iter().copied().collect();
                partial_ports(self.world, &members, *affected_fraction, id as u64).len()
            }
            EventKind::IxpOutage { ixp, affected_fraction } => {
                let members: Vec<Asn> =
                    self.world.colo.members_of_ixp(*ixp).iter().copied().collect();
                partial_ports(self.world, &members, *affected_fraction, id as u64).len()
            }
            EventKind::Depeering { .. } => 2,
            EventKind::IxpMemberLeave { .. } => 1,
            EventKind::OperatorWithdraw { asns, .. } => asns.len(),
            EventKind::CollectorFlap { .. } => 0,
            EventKind::LatencySurge { facility, .. } => {
                self.world.colo.members_of_facility(*facility).len()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

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
        assert!(out
            .records
            .iter()
            .all(|r| matches!(&r.payload, RecordPayload::Update(u) if !u.announced.is_empty())));
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

    #[test]
    fn runs_are_deterministic() {
        let w = World::generate(WorldConfig::tiny(85));
        let fac = busiest_facility(&w);
        let timeline = vec![ScheduledEvent {
            start: T0 + 200_000,
            duration: 900,
            kind: EventKind::FacilityOutage { facility: fac, affected_fraction: 1.0 },
        }];
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
        let sim = Simulation::new(&w, s, T0, 4);
        let timeline = vec![ScheduledEvent {
            start: T0 + 200_000,
            duration: 600,
            kind: EventKind::CollectorFlap { peer_slot: 0 },
        }];
        let out = sim.run(&timeline, T0 + 300_000);
        let states: Vec<_> =
            out.records.iter().filter(|r| matches!(r.payload, RecordPayload::State(_))).collect();
        assert_eq!(states.len(), states.len().max(2), "down + up states");
        assert!(states.len() >= 2);
        let reann = out
            .records
            .iter()
            .filter(|r| {
                r.time > T0 + 200_000 + 600 && matches!(r.payload, RecordPayload::Update(_))
            })
            .count();
        assert!(reann > 0, "bulk re-announcement after session up");
    }

    #[test]
    fn depeering_only_touches_prefixes_that_crossed_the_link() {
        let w = World::generate(WorldConfig::tiny(89));
        // Pick a P2P adjacency to tear down.
        let adj =
            w.adjacencies.iter().find(|a| a.rel == crate::world::Rel::P2P).expect("peering exists");
        let (a, b) = (w.ases[adj.a.0 as usize].asn, w.ases[adj.b.0 as usize].asn);
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
        let window = (T0 + 200_000)..(T0 + 201_800);
        for r in out_link.records.iter().filter(|r| window.contains(&r.time)) {
            if let RecordPayload::Update(u) = &r.payload {
                if let Some(attrs) = &u.attrs {
                    let hops = attrs.as_path.hops();
                    for w2 in hops.windows(2) {
                        assert!(
                            !((w2[0] == a && w2[1] == b) || (w2[0] == b && w2[1] == a)),
                            "dead link {a}-{b} reappeared in {}",
                            attrs.as_path
                        );
                    }
                }
            }
        }
        // The affected prefix set must be a strict subset of all prefixes.
        let touched: std::collections::HashSet<_> = out_link
            .records
            .iter()
            .filter(|r| r.time >= T0 + 200_000)
            .filter_map(|r| match &r.payload {
                RecordPayload::Update(u) => u.announced.first().or(u.withdrawn.first()).copied(),
                _ => None,
            })
            .collect();
        assert!(touched.len() < w.prefixes.len(), "link event must be localized");
    }
}
