//! Observable-route extraction: AS path, communities, physical PoPs.
//!
//! This is where the paper's core phenomenon is synthesized: every AS on
//! the path that runs a community scheme tags the route with its *ingress*
//! location (facility / IXP / city, per its scheme's granularity), and
//! route servers stamp their redistribution communities — so the BGP
//! update that reaches a collector carries a trail of physical locations.

use super::propagate::RouteTree;
use crate::world::{AdjIdx, AsIdx, PortLoc, World};
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
    pub adj: AdjIdx,
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

/// One hop of a route, vantage side first: the adjacency crossed and the
/// index of its active instance. A route is its hops: with the vantage
/// and the prefix family they fix everything a collector sees of it.
pub type Hop = (AdjIdx, u32);

/// `vantage`'s route in `tree` as hops, toward the origin, with each
/// adjacency's instance from `instances` (the active-instance table the
/// tree was built over); `None` if the vantage has no route.
pub fn route_hops<'a>(
    tree: &'a RouteTree,
    instances: &'a [Option<u32>],
    vantage: AsIdx,
) -> Option<impl Iterator<Item = Hop> + 'a> {
    tree.routes[vantage.0 as usize]?;
    let mut node = vantage;
    Some(std::iter::from_fn(move || {
        let (next, adj) = tree.routes[node.0 as usize].expect("parent chain is routed").parent?;
        node = next;
        Some((adj, instances[adj.0 as usize].expect("tree only uses available adjacencies")))
    }))
}

/// The crossings of the route `hops` from `vantage`: each with the AS
/// that receives the route there, its port (what ingress tagging reads)
/// and the route server that redistributed the route there, if any.
fn crossings<'w>(
    world: &'w World,
    vantage: AsIdx,
    hops: impl IntoIterator<Item = Hop> + 'w,
) -> impl Iterator<Item = (AsIdx, PopVisit, &'w PortLoc, Option<Asn>)> + 'w {
    let mut node = vantage;
    hops.into_iter().map(move |(adj_idx, inst)| {
        let adj = &world.adjacencies[adj_idx.0 as usize];
        let inst = &adj.instances[inst as usize];
        let (far, near_side, far_side) = if adj.a == node {
            (adj.b, &inst.a_side, &inst.b_side)
        } else {
            (adj.a, &inst.b_side, &inst.a_side)
        };
        let visit = PopVisit {
            near: world.ases[node.0 as usize].asn,
            far: world.ases[far.0 as usize].asn,
            adj: adj_idx,
            near_fac: near_side.facility,
            far_fac: far_side.facility,
            ixp: near_side.ixp.or(far_side.ixp),
        };
        (std::mem::replace(&mut node, far), visit, near_side, inst.via_rs)
    })
}

/// The physical crossings of the route `hops` from `vantage`, vantage
/// side first: [`snapshot_of`]'s `visits` without the AS path and
/// communities a traceroute never reads.
pub fn visits<'w>(
    world: &'w World,
    vantage: AsIdx,
    hops: impl IntoIterator<Item = Hop> + 'w,
) -> impl Iterator<Item = PopVisit> + 'w {
    crossings(world, vantage, hops).map(|(_, visit, ..)| visit)
}

/// The route `hops` from `vantage` as a collector sees it.
pub fn snapshot_of(
    world: &World,
    vantage: AsIdx,
    hops: impl IntoIterator<Item = Hop>,
    is_v6: bool,
) -> RouteSnapshot {
    let mut as_path = vec![world.ases[vantage.0 as usize].asn];
    let (mut communities, mut visits) = (Vec::new(), Vec::new());
    for (near, visit, near_side, via_rs) in crossings(world, vantage, hops) {
        ingress_communities(world, near, near_side, is_v6, &mut communities);
        let rs16 = via_rs.and_then(|rs| u16::try_from(rs.0).ok());
        communities.extend(rs16.map(|rs16| Community::new(rs16, 1)));
        as_path.push(visit.far);
        visits.push(visit);
    }
    RouteSnapshot { as_path, communities, visits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::policy::FailedSet;
    use crate::routing::propagate::compute_tree;
    use crate::world::{PrefixIdx, World, WorldConfig};

    /// The observable route at `vantage` in a tree built over `instances`.
    fn snapshot_route(
        world: &World,
        instances: &[Option<u32>],
        tree: &RouteTree,
        vantage: AsIdx,
        is_v6: bool,
    ) -> Option<RouteSnapshot> {
        route_hops(tree, instances, vantage).map(|hops| snapshot_of(world, vantage, hops, is_v6))
    }

    fn world() -> World {
        World::generate(WorldConfig::tiny(51))
    }

    #[test]
    fn snapshots_have_consistent_shapes() {
        let w = world();
        let instances = FailedSet::default().active_instances(&w);
        let mut any_tagged = false;
        for pi in 0..w.prefixes.len().min(30) {
            let origin = w.origin_of(PrefixIdx(pi as u32));
            let tree = compute_tree(&w, &instances, origin);
            for v in 0..w.ases.len() {
                let Some(snap) = snapshot_route(&w, &instances, &tree, AsIdx(v as u32), false)
                else {
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
        let instances = FailedSet::default().active_instances(&w);
        let mut v4_tagged = 0usize;
        let mut v4_total = 0usize;
        let mut v6_tagged = 0usize;
        let mut v6_total = 0usize;
        for pi in 0..w.prefixes.len() {
            let pidx = PrefixIdx(pi as u32);
            let is_v6 = w.prefix(pidx).is_ipv6();
            let origin = w.origin_of(pidx);
            let tree = compute_tree(&w, &instances, origin);
            // Sample a handful of vantages.
            for v in (0..w.ases.len()).step_by(37) {
                if let Some(snap) = snapshot_route(&w, &instances, &tree, AsIdx(v as u32), is_v6) {
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
