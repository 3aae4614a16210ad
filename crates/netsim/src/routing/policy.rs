//! Failure state and physical instance selection.

use crate::events::{partial_ports, EventKind, ScheduledEvent};
use crate::world::{AdjIdx, AdjInstance, Adjacency, World};
use kepler_bgp::Asn;
use kepler_topology::{FacilityId, IxpId};
use std::collections::HashSet;

/// Everything currently broken, at physical granularity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailedSet {
    /// Fully failed facilities (power loss, fire, …).
    pub facilities: HashSet<FacilityId>,
    /// Partially failed facilities: specific member ports are dead.
    pub facility_ports: HashSet<(FacilityId, Asn)>,
    /// Fully failed IXP fabrics.
    pub ixps: HashSet<IxpId>,
    /// Partially failed IXPs: specific member ports are dead.
    pub ixp_ports: HashSet<(IxpId, Asn)>,
    /// Administratively killed adjacencies (de-peering).
    pub dead_adjacencies: HashSet<AdjIdx>,
    /// Terminated IXP memberships (AS left the exchange).
    pub dead_memberships: HashSet<(IxpId, Asn)>,
}

impl FailedSet {
    /// What the events in force break: the union, over the timeline
    /// indices in `active`, of each event's own failure. This is the one
    /// model of an event, and both simulator planes read it: the BGP
    /// engine over the events between their fail and restore, the data
    /// plane over the events a probe pair still experiences. A partial
    /// outage's dead ports are drawn from its timeline index. Flaps and
    /// latency surges break nothing.
    pub fn of_events(world: &World, timeline: &[ScheduledEvent], active: &[u32]) -> FailedSet {
        let mut failed = FailedSet::default();
        for &i in active {
            let ports = |members, fraction| partial_ports(world, members, fraction, i as u64);
            match &timeline[i as usize].kind {
                EventKind::FacilityOutage { facility, affected_fraction }
                | EventKind::FiberCut { facility, affected_fraction } => {
                    if *affected_fraction >= 1.0 {
                        failed.facilities.insert(*facility);
                    } else {
                        let dead =
                            ports(world.colo.members_of_facility(*facility), *affected_fraction);
                        failed.facility_ports.extend(dead.into_iter().map(|asn| (*facility, asn)));
                    }
                }
                EventKind::IxpOutage { ixp, affected_fraction } => {
                    if *affected_fraction >= 1.0 {
                        failed.ixps.insert(*ixp);
                    } else {
                        let dead = ports(world.colo.members_of_ixp(*ixp), *affected_fraction);
                        failed.ixp_ports.extend(dead.into_iter().map(|asn| (*ixp, asn)));
                    }
                }
                EventKind::Depeering { a, b } => {
                    failed.dead_adjacencies.extend(world.adjacency_between(*a, *b));
                }
                EventKind::IxpMemberLeave { asn, ixp } => {
                    failed.dead_memberships.insert((*ixp, *asn));
                }
                EventKind::OperatorWithdraw { asns, facility } => {
                    failed.facility_ports.extend(asns.iter().map(|&asn| (*facility, asn)));
                }
                EventKind::CollectorFlap { .. } | EventKind::LatencySurge { .. } => {}
            }
        }
        failed
    }

    /// Whether `self` and `other` break a common element: the same
    /// facility, fabric, port, membership or adjacency. A whole facility
    /// and a dead port in it do not overlap.
    pub fn overlaps(&self, other: &FailedSet) -> bool {
        !self.facilities.is_disjoint(&other.facilities)
            || !self.facility_ports.is_disjoint(&other.facility_ports)
            || !self.ixps.is_disjoint(&other.ixps)
            || !self.ixp_ports.is_disjoint(&other.ixp_ports)
            || !self.dead_adjacencies.is_disjoint(&other.dead_adjacencies)
            || !self.dead_memberships.is_disjoint(&other.dead_memberships)
    }

    /// Member ports taken down: every member of a whole facility or
    /// fabric, one per dead port or membership, two per dead adjacency.
    pub fn members_down(&self, world: &World) -> usize {
        let colo = &world.colo;
        self.facilities.iter().map(|&f| colo.members_of_facility(f).len()).sum::<usize>()
            + self.ixps.iter().map(|&x| colo.members_of_ixp(x).len()).sum::<usize>()
            + self.facility_ports.len()
            + self.ixp_ports.len()
            + self.dead_memberships.len()
            + 2 * self.dead_adjacencies.len()
    }

    /// Whether nothing is failed.
    pub fn is_empty(&self) -> bool {
        self.facilities.is_empty()
            && self.facility_ports.is_empty()
            && self.ixps.is_empty()
            && self.ixp_ports.is_empty()
            && self.dead_adjacencies.is_empty()
            && self.dead_memberships.is_empty()
    }

    /// Whether one physical instance of `adj` is currently usable.
    pub fn instance_up(&self, world: &World, adj: &Adjacency, inst: &AdjInstance) -> bool {
        let sides = [(adj.a, &inst.a_side), (adj.b, &inst.b_side)];
        for (as_idx, side) in sides {
            let asn = world.ases[as_idx.0 as usize].asn;
            if let Some(f) = side.facility {
                if self.facilities.contains(&f) || self.facility_ports.contains(&(f, asn)) {
                    return false;
                }
            }
            if let Some(x) = side.ixp {
                if self.ixps.contains(&x)
                    || self.ixp_ports.contains(&(x, asn))
                    || self.dead_memberships.contains(&(x, asn))
                {
                    return false;
                }
            }
        }
        true
    }

    /// The preferred usable instance of an adjacency, if any.
    pub fn active_instance(&self, world: &World, adj_idx: AdjIdx) -> Option<u32> {
        if self.dead_adjacencies.contains(&adj_idx) {
            return None;
        }
        let adj = &world.adjacencies[adj_idx.0 as usize];
        let active = adj.instances.iter().position(|inst| self.instance_up(world, adj, inst));
        active.map(|i| i as u32)
    }

    /// [`active_instance`](Self::active_instance) of every adjacency,
    /// indexed by `AdjIdx`: the table
    /// [`compute_tree`](super::propagate::compute_tree) routes over (an
    /// adjacency with an instance is usable) and a route's hops read their
    /// instances from. Build it once per failure state and share it across
    /// that state's trees.
    pub fn active_instances(&self, world: &World) -> Vec<Option<u32>> {
        (0..world.adjacencies.len())
            .map(|i| self.active_instance(world, AdjIdx(i as u32)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{World, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig::tiny(31))
    }

    #[test]
    fn pristine_world_everything_up() {
        let w = world();
        let f = FailedSet::default();
        assert!(f.is_empty());
        for (i, _) in w.adjacencies.iter().enumerate() {
            assert!(
                f.active_instance(&w, AdjIdx(i as u32)).is_some(),
                "adjacency {i} should be up"
            );
        }
    }

    #[test]
    fn facility_failure_kills_pnis_there() {
        let w = world();
        // Find an adjacency whose first instance is a PNI.
        let (idx, adj) = w
            .adjacencies
            .iter()
            .enumerate()
            .find(|(_, a)| a.instances[0].a_side.ixp.is_none() && a.instances.len() == 1)
            .expect("single-instance PNI exists");
        let fac = adj.instances[0].a_side.facility.unwrap();
        let mut f = FailedSet::default();
        f.facilities.insert(fac);
        assert!(f.active_instance(&w, AdjIdx(idx as u32)).is_none());
    }

    #[test]
    fn multi_instance_adjacency_survives_single_facility_failure() {
        let w = world();
        if let Some((idx, adj)) = w.adjacencies.iter().enumerate().find(|(_, a)| {
            a.instances.len() >= 2
                && a.instances[0].a_side.facility != a.instances[1].a_side.facility
                && a.instances[0].a_side.facility.is_some()
        }) {
            let fac = adj.instances[0].a_side.facility.unwrap();
            let mut f = FailedSet::default();
            f.facilities.insert(fac);
            assert!(
                f.active_instance(&w, AdjIdx(idx as u32)).is_some(),
                "fails over to instance 2"
            );
            assert_ne!(f.active_instance(&w, AdjIdx(idx as u32)), Some(0));
        }
    }

    #[test]
    fn ixp_failure_kills_public_instances() {
        let w = world();
        if let Some((idx, adj)) = w
            .adjacencies
            .iter()
            .enumerate()
            .find(|(_, a)| a.instances.iter().all(|i| i.a_side.ixp.is_some()))
        {
            let ixp = adj.instances[0].a_side.ixp.unwrap();
            let mut f = FailedSet::default();
            f.ixps.insert(ixp);
            let all_same = adj.instances.iter().all(|i| i.a_side.ixp == Some(ixp));
            if all_same {
                assert!(f.active_instance(&w, AdjIdx(idx as u32)).is_none());
            }
        }
    }

    #[test]
    fn dead_adjacency_overrides_health() {
        let w = world();
        let mut f = FailedSet::default();
        f.dead_adjacencies.insert(AdjIdx(0));
        assert!(f.active_instance(&w, AdjIdx(0)).is_none());
    }

    #[test]
    fn membership_termination_kills_only_that_member() {
        let w = world();
        if let Some((idx, adj)) = w
            .adjacencies
            .iter()
            .enumerate()
            .find(|(_, a)| a.instances.len() == 1 && a.instances[0].a_side.ixp.is_some())
        {
            let ixp = adj.instances[0].a_side.ixp.unwrap();
            let asn_a = w.ases[adj.a.0 as usize].asn;
            let mut f = FailedSet::default();
            f.dead_memberships.insert((ixp, asn_a));
            assert!(f.active_instance(&w, AdjIdx(idx as u32)).is_none());
            // A partial port failure of an unrelated member does nothing.
            let mut g = FailedSet::default();
            g.ixp_ports.insert((ixp, Asn(4_000_000_000)));
            assert!(g.active_instance(&w, AdjIdx(idx as u32)).is_some());
        }
    }
}
