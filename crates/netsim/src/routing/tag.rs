//! Observable-route extraction: AS path, communities, physical PoPs.
//!
//! This is where the paper's core phenomenon is synthesized: every AS on
//! the path that runs a community scheme tags the route with its *ingress*
//! location (facility / IXP / city, per its scheme's granularity), and
//! route servers stamp their redistribution communities — so the BGP
//! update that reaches a collector carries a trail of physical locations.

use super::policy::FailedSet;
use super::propagate::RouteTree;
use crate::world::{AsIdx, PortLoc, World};
use kepler_bgp::{Asn, Community};
use kepler_docmine::scheme::SchemeTarget;
use kepler_topology::{FacilityId, IxpId};

/// The physical crossing of one AS-level link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopVisit {
    /// The AS nearer to the vantage point (it *receives* the route here —
    /// the paper's "near-end" AS whose ingress community we see).
    pub near: Asn,
    /// The far-end AS (closer to the origin).
    pub far: Asn,
    /// The adjacency crossed.
    pub adj: crate::world::AdjIdx,
    /// Facility of the near-end port.
    pub near_fac: Option<FacilityId>,
    /// Facility of the far-end port.
    pub far_fac: Option<FacilityId>,
    /// IXP fabric crossed, for public peering.
    pub ixp: Option<IxpId>,
}

/// The route for one (vantage, prefix) pair as a collector would see it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteSnapshot {
    /// AS path, vantage first, origin last.
    pub as_path: Vec<Asn>,
    /// Communities accumulated along the path (ingress tags + route-server
    /// redistribution marks), in path order.
    pub communities: Vec<Community>,
    /// Physical crossings, vantage side first.
    pub visits: Vec<PopVisit>,
}

/// Communities an AS applies when receiving a route at `port`.
fn ingress_communities(
    world: &World,
    asx: AsIdx,
    port: &PortLoc,
    is_v6: bool,
    out: &mut Vec<Community>,
) {
    let node = &world.ases[asx.0 as usize];
    let Some(scheme) = &node.scheme else { return };
    if is_v6 && !node.tags_v6 {
        return;
    }
    let asn16 = match u16::try_from(node.asn.0) {
        Ok(a) => a,
        Err(_) => return,
    };
    let mut tagged_fac = false;
    let mut tagged_ixp = false;
    for e in &scheme.entries {
        match &e.target {
            SchemeTarget::Facility { id, .. } => {
                if port.facility == Some(*id) {
                    out.push(Community::new(asn16, e.value));
                    tagged_fac = true;
                }
            }
            SchemeTarget::Ixp { id, .. } => {
                if port.ixp == Some(*id) {
                    out.push(Community::new(asn16, e.value));
                    tagged_ixp = true;
                }
            }
            SchemeTarget::City { .. } => {}
        }
    }
    if tagged_fac || tagged_ixp {
        return;
    }
    // City-granularity fallback: the city of the port's facility, else of
    // the IXP.
    let port_city = port
        .facility
        .and_then(|f| world.colo.facility(f))
        .map(|f| f.city)
        .or_else(|| port.ixp.and_then(|x| world.colo.ixp(x)).map(|x| x.city));
    let Some(city) = port_city else { return };
    for e in &scheme.entries {
        if let SchemeTarget::City { city: c, .. } = &e.target {
            if *c == city {
                out.push(Community::new(asn16, e.value));
                return;
            }
        }
    }
}

/// The physical crossing of the link `node → far` over `adj_idx`, with
/// the near-end port (what ingress tagging reads) and the route server
/// that redistributed the route there, if any.
fn crossing<'w>(
    world: &'w World,
    failed: &FailedSet,
    node: AsIdx,
    far: AsIdx,
    adj_idx: crate::world::AdjIdx,
) -> (PopVisit, &'w PortLoc, Option<Asn>) {
    let adj = &world.adjacencies[adj_idx.0 as usize];
    let inst_i =
        failed.active_instance(world, adj_idx).expect("tree only uses available adjacencies");
    let inst = &adj.instances[inst_i];
    let (near_side, far_side) =
        if adj.a == node { (&inst.a_side, &inst.b_side) } else { (&inst.b_side, &inst.a_side) };
    let visit = PopVisit {
        near: world.ases[node.0 as usize].asn,
        far: world.ases[far.0 as usize].asn,
        adj: adj_idx,
        near_fac: near_side.facility,
        far_fac: far_side.facility,
        ixp: near_side.ixp.or(far_side.ixp),
    };
    (visit, near_side, inst.via_rs)
}

/// Extracts the observable route at `vantage` from a routing tree, or
/// `None` if the vantage has no route.
pub fn snapshot_route(
    world: &World,
    failed: &FailedSet,
    tree: &RouteTree,
    vantage: AsIdx,
    is_v6: bool,
) -> Option<RouteSnapshot> {
    let chain = tree.path_from(vantage)?;
    let mut as_path = Vec::with_capacity(chain.len());
    let mut communities = Vec::new();
    let mut visits = Vec::new();
    for (i, (node, adj_opt)) in chain.iter().enumerate() {
        as_path.push(world.ases[node.0 as usize].asn);
        let Some(adj_idx) = adj_opt else { continue };
        let (visit, near_side, via_rs) = crossing(world, failed, *node, chain[i + 1].0, *adj_idx);
        ingress_communities(world, *node, near_side, is_v6, &mut communities);
        if let Some(rs) = via_rs {
            if let Ok(rs16) = u16::try_from(rs.0) {
                communities.push(Community::new(rs16, 1));
            }
        }
        visits.push(visit);
    }
    Some(RouteSnapshot { as_path, communities, visits })
}

/// The physical crossings of `vantage`'s route, vantage side first —
/// [`snapshot_route`]'s `visits` without the AS path and communities a
/// traceroute never reads. `None` if the vantage has no route.
pub fn route_visits(
    world: &World,
    failed: &FailedSet,
    tree: &RouteTree,
    vantage: AsIdx,
) -> Option<Vec<PopVisit>> {
    let chain = tree.path_from(vantage)?;
    Some(
        chain
            .windows(2)
            .map(|link| {
                let adj_idx = link[0].1.expect("only the origin has no parent adjacency");
                crossing(world, failed, link[0].0, link[1].0, adj_idx).0
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::propagate::compute_tree;
    use crate::world::{PrefixIdx, World, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig::tiny(51))
    }

    #[test]
    fn snapshots_have_consistent_shapes() {
        let w = world();
        let failed = FailedSet::default();
        let usable = failed.usable_adjacencies(&w);
        let mut any_tagged = false;
        for pi in 0..w.prefixes.len().min(30) {
            let origin = w.origin_of(PrefixIdx(pi as u32));
            let tree = compute_tree(&w, &usable, origin);
            for v in 0..w.ases.len() {
                let Some(snap) = snapshot_route(&w, &failed, &tree, AsIdx(v as u32), false) else {
                    continue;
                };
                assert_eq!(snap.visits.len() + 1, snap.as_path.len());
                assert_eq!(*snap.as_path.last().unwrap(), w.ases[origin.0 as usize].asn);
                if !snap.communities.is_empty() {
                    any_tagged = true;
                    // Every community's top-16 must match an AS on the path
                    // or a route-server ASN (the paper's hop-matching rule).
                    for c in &snap.communities {
                        let on_path = snap.as_path.iter().any(|a| a.0 == c.asn16() as u32);
                        let is_rs = w
                            .colo
                            .ixps()
                            .iter()
                            .any(|x| x.route_server_asn.map(|r| r.0) == Some(c.asn16() as u32));
                        assert!(on_path || is_rs, "community {c} matches no hop");
                    }
                }
            }
        }
        assert!(any_tagged, "some routes must carry communities");
    }

    #[test]
    fn v6_tagging_is_sparser_than_v4() {
        let w = World::generate(WorldConfig::small(61));
        let failed = FailedSet::default();
        let usable = failed.usable_adjacencies(&w);
        let mut v4_tagged = 0usize;
        let mut v4_total = 0usize;
        let mut v6_tagged = 0usize;
        let mut v6_total = 0usize;
        for pi in 0..w.prefixes.len() {
            let pidx = PrefixIdx(pi as u32);
            let is_v6 = w.prefix(pidx).is_ipv6();
            let origin = w.origin_of(pidx);
            let tree = compute_tree(&w, &usable, origin);
            // Sample a handful of vantages.
            for v in (0..w.ases.len()).step_by(37) {
                if let Some(snap) = snapshot_route(&w, &failed, &tree, AsIdx(v as u32), is_v6) {
                    if is_v6 {
                        v6_total += 1;
                        v6_tagged += usize::from(!snap.communities.is_empty());
                    } else {
                        v4_total += 1;
                        v4_tagged += usize::from(!snap.communities.is_empty());
                    }
                }
            }
        }
        let v4_frac = v4_tagged as f64 / v4_total.max(1) as f64;
        let v6_frac = v6_tagged as f64 / v6_total.max(1) as f64;
        assert!(v4_frac > v6_frac, "v4 tagging ({v4_frac:.2}) should exceed v6 ({v6_frac:.2})");
    }

    #[test]
    fn instance_failover_changes_communities_not_path() {
        let w = world();
        let failed = FailedSet::default();
        // Find a multi-instance adjacency with differing near facilities,
        // fail the preferred instance's facility, and check the snapshot of
        // a route over it.
        for (adj_i, adj) in w.adjacencies.iter().enumerate() {
            if adj.instances.len() < 2 {
                continue;
            }
            let f0 = adj.instances[0].a_side.facility;
            let f1 = adj.instances[1].a_side.facility;
            if f0.is_none() || f0 == f1 {
                continue;
            }
            let mut failed2 = FailedSet::default();
            failed2.facilities.insert(f0.unwrap());
            if failed2.active_instance(&w, crate::world::AdjIdx(adj_i as u32)) == Some(1) {
                // Good candidate found; just verify selection moved.
                assert_eq!(failed.active_instance(&w, crate::world::AdjIdx(adj_i as u32)), Some(0));
                return;
            }
        }
    }
}
