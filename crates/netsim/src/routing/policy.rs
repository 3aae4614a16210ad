//! Failure state and physical instance selection.

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
    pub fn active_instance(&self, world: &World, adj_idx: AdjIdx) -> Option<usize> {
        if self.dead_adjacencies.contains(&adj_idx) {
            return None;
        }
        let adj = &world.adjacencies[adj_idx.0 as usize];
        adj.instances.iter().position(|inst| self.instance_up(world, adj, inst))
    }

    /// Whether the adjacency has any usable instance.
    pub fn adjacency_up(&self, world: &World, adj_idx: AdjIdx) -> bool {
        self.active_instance(world, adj_idx).is_some()
    }

    /// [`adjacency_up`](Self::adjacency_up) for every adjacency, indexed
    /// by `AdjIdx`: the table
    /// [`compute_tree`](super::propagate::compute_tree) routes over. Build
    /// it once per failure state and share it across that state's trees.
    pub fn usable_adjacencies(&self, world: &World) -> Vec<bool> {
        (0..world.adjacencies.len()).map(|i| self.adjacency_up(world, AdjIdx(i as u32))).collect()
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
            assert!(f.adjacency_up(&w, AdjIdx(i as u32)), "adjacency {i} should be up");
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
        assert!(!f.adjacency_up(&w, AdjIdx(idx as u32)));
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
            assert!(f.adjacency_up(&w, AdjIdx(idx as u32)), "fails over to instance 2");
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
                assert!(!f.adjacency_up(&w, AdjIdx(idx as u32)));
            }
        }
    }

    #[test]
    fn dead_adjacency_overrides_health() {
        let w = world();
        let mut f = FailedSet::default();
        f.dead_adjacencies.insert(AdjIdx(0));
        assert!(!f.adjacency_up(&w, AdjIdx(0)));
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
            assert!(!f.adjacency_up(&w, AdjIdx(idx as u32)));
            // A partial port failure of an unrelated member does nothing.
            let mut g = FailedSet::default();
            g.ixp_ports.insert((ixp, Asn(4_000_000_000)));
            assert!(g.adjacency_up(&w, AdjIdx(idx as u32)));
        }
    }
}
