//! Per-prefix Gao-Rexford route propagation.
//!
//! For one origin, computes every AS's best route simultaneously as a
//! routing tree (the standard three-phase algorithm):
//!
//! 1. **Customer routes** climb provider chains from the origin — every AS
//!    on the way prefers them above all else and re-exports them to
//!    everyone.
//! 2. **Peer routes** hop exactly one settlement-free edge from an AS with
//!    a customer/origin route.
//! 3. **Provider routes** descend customer cones from any routed AS —
//!    customers receive everything and re-export what they learned from
//!    providers only further down.
//!
//! Selection inside a class is shortest AS path, then lowest neighbor ASN —
//! fully deterministic. Only adjacencies the caller's usable-adjacency
//! table admits participate (built once per failure state by
//! [`FailedSet::usable_adjacencies`](super::policy::FailedSet::usable_adjacencies)),
//! which is how physical outages reshape control-plane paths.
//!
//! Phases 1 and 3 walk hop levels, not a priority queue: every offer at
//! hop `h + 1` comes from an AS routed at `h`, so an AS first reached at
//! `h + 1` keeps the least `(parent ASN, parent, adjacency)` offer of that
//! level — exactly what a Dijkstra heap over `(hops, parent ASN, node,
//! parent, adjacency)` pops first (the `#[cfg(test)]` reference).

use crate::world::{AdjIdx, Adjacency, AsIdx, Rel, World};

/// Route preference class, higher is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PrefClass {
    /// Learned from a provider.
    Provider = 0,
    /// Learned from a settlement-free peer.
    Peer = 1,
    /// Learned from a customer.
    Customer = 2,
    /// Locally originated.
    Origin = 3,
}

/// One AS's best route to the tree's prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteInfo {
    /// Preference class.
    pub pref: PrefClass,
    /// AS-path hop count to the origin.
    pub hops: u16,
    /// Next hop toward the origin and the adjacency used (None at origin).
    pub parent: Option<(AsIdx, AdjIdx)>,
}

/// The routing tree for one prefix.
#[derive(Debug, Clone)]
pub struct RouteTree {
    /// The origin AS.
    pub origin: AsIdx,
    /// Per-AS best route (indexed by `AsIdx`).
    pub routes: Vec<Option<RouteInfo>>,
}

impl RouteTree {
    /// The AS-level path from `vantage` to the origin, with the adjacency
    /// used at each step; `None` if the vantage has no route.
    pub fn path_from(&self, vantage: AsIdx) -> Option<Vec<(AsIdx, Option<AdjIdx>)>> {
        self.routes[vantage.0 as usize]?;
        let mut out = Vec::new();
        let mut cur = vantage;
        loop {
            let info = self.routes[cur.0 as usize].expect("parent chain is routed");
            match info.parent {
                Some((next, adj)) => {
                    out.push((cur, Some(adj)));
                    cur = next;
                }
                None => {
                    out.push((cur, None));
                    return Some(out);
                }
            }
        }
    }

    /// Number of ASes holding a route.
    pub fn routed_count(&self) -> usize {
        self.routes.iter().filter(|r| r.is_some()).count()
    }
}

/// Computes the routing tree for the prefix originated by `origin`, over
/// the adjacencies `usable` admits (one flag per `AdjIdx`).
pub fn compute_tree(world: &World, usable: &[bool], origin: AsIdx) -> RouteTree {
    let mut routes: Vec<Option<RouteInfo>> = vec![None; world.ases.len()];
    routes[origin.0 as usize] = Some(RouteInfo { pref: PrefClass::Origin, hops: 0, parent: None });

    // Phase 1: customer routes climb from the origin to its providers.
    let customer = |adj: &Adjacency, u, v| adj.rel == Rel::C2P && adj.a == u && adj.b == v;
    let mut seeds = grow(world, usable, &mut routes, &[origin], PrefClass::Customer, customer);

    // Phase 2: peer routes — one settlement-free hop off the origin or a
    // customer route, which is everything `seeds` holds so far.
    for i in 0..seeds.len() {
        let u = seeds[i];
        let hops = hops_of(&routes, u) + 1;
        for &(v, adj) in &world.ases[u.0 as usize].neighbors {
            let peer = RouteInfo { pref: PrefClass::Peer, hops, parent: Some((u, adj)) };
            if world.adjacencies[adj.0 as usize].rel == Rel::P2P
                && usable[adj.0 as usize]
                && offer(world, &mut routes, v, peer)
            {
                seeds.push(v);
            }
        }
    }

    // Phase 3: provider routes descend customer cones from every routed AS.
    seeds.sort_unstable_by_key(|&u| hops_of(&routes, u));
    let provider = |adj: &Adjacency, u, v| adj.rel == Rel::C2P && adj.b == u && adj.a == v;
    grow(world, usable, &mut routes, &seeds, PrefClass::Provider, provider);

    RouteTree { origin, routes }
}

fn hops_of(routes: &[Option<RouteInfo>], u: AsIdx) -> u16 {
    routes[u.0 as usize].map_or(0, |r| r.hops)
}

/// Routes level by level from `seeds` (routed ASes in ascending hop
/// order): every AS routed at hop `h`, seed or reached, offers a `pref`
/// route at `h + 1` over each usable adjacency `exports(adj, from, to)`
/// admits. Returns the seeds and every AS reached, in hop order.
fn grow(
    world: &World,
    usable: &[bool],
    routes: &mut [Option<RouteInfo>],
    seeds: &[AsIdx],
    pref: PrefClass,
    exports: impl Fn(&Adjacency, AsIdx, AsIdx) -> bool,
) -> Vec<AsIdx> {
    let mut walked = Vec::with_capacity(routes.len());
    let (mut next_seed, mut sent) = (0, 0);
    // A level is what the previous one reached plus the seeds at its hop
    // count; once nothing was reached, the next seeds alone.
    while let Some(&first) = walked.get(sent).or(seeds.get(next_seed)) {
        let h = hops_of(routes, first);
        while let Some(&s) = seeds.get(next_seed).filter(|&&s| hops_of(routes, s) == h) {
            walked.push(s);
            next_seed += 1;
        }
        let level_end = walked.len();
        for i in sent..level_end {
            let u = walked[i];
            for &(v, adj) in &world.ases[u.0 as usize].neighbors {
                let route = RouteInfo { pref, hops: h + 1, parent: Some((u, adj)) };
                if usable[adj.0 as usize]
                    && exports(&world.adjacencies[adj.0 as usize], u, v)
                    && offer(world, routes, v, route)
                {
                    walked.push(v);
                }
            }
        }
        sent = level_end;
    }
    walked
}

/// Offers `v` a route. It is taken when `v` has none, or replaces one of
/// the same class that ranks after it by (hops, parent ASN, parent,
/// adjacency); a route of another class came from an earlier, preferred
/// phase. Returns whether `v` had no route.
fn offer(world: &World, routes: &mut [Option<RouteInfo>], v: AsIdx, route: RouteInfo) -> bool {
    let rank = |r: &RouteInfo| {
        r.parent.map(|(p, adj)| (r.hops, world.ases[p.0 as usize].asn.0, p.0, adj.0))
    };
    match &mut routes[v.0 as usize] {
        Some(held) => {
            if held.pref == route.pref && rank(&route) < rank(held) {
                *held = route;
            }
            false
        }
        slot => {
            *slot = Some(route);
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::policy::FailedSet;
    use crate::world::{World, WorldConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Export frontier ordered by (hops, parent ASN, node, parent, adjacency).
    type ExportHeap = BinaryHeap<Reverse<(u16, u32, u32, u32, u32)>>;

    /// The heap-driven builder the level walk replaced: the one reference
    /// [`compute_tree`] is differentially tested against. Do not optimise it.
    fn compute_tree_reference(world: &World, failed: &FailedSet, origin: AsIdx) -> RouteTree {
        let n = world.ases.len();
        let mut routes: Vec<Option<RouteInfo>> = vec![None; n];
        routes[origin.0 as usize] =
            Some(RouteInfo { pref: PrefClass::Origin, hops: 0, parent: None });

        // Phase 1: customer routes, Dijkstra by (hops, parent asn).
        let mut heap: ExportHeap = BinaryHeap::new();
        // tuple: (hops, parent_asn, node, parent, adj)
        let push_provider_exports =
            |heap: &mut ExportHeap, world: &World, failed: &FailedSet, u: AsIdx, hops: u16| {
                let u_node = &world.ases[u.0 as usize];
                for &(v, adj_idx) in &u_node.neighbors {
                    let adj = &world.adjacencies[adj_idx.0 as usize];
                    // u exports to its provider v.
                    let u_is_customer = adj.rel == Rel::C2P && adj.a == u && adj.b == v;
                    if !u_is_customer {
                        continue;
                    }
                    if failed.active_instance(world, adj_idx).is_none() {
                        continue;
                    }
                    heap.push(Reverse((hops + 1, u_node.asn.0, v.0, u.0, adj_idx.0)));
                }
            };
        push_provider_exports(&mut heap, world, failed, origin, 0);
        while let Some(Reverse((hops, _pasn, v, u, adj))) = heap.pop() {
            let v_idx = AsIdx(v);
            if routes[v as usize].is_some() {
                continue;
            }
            routes[v as usize] = Some(RouteInfo {
                pref: PrefClass::Customer,
                hops,
                parent: Some((AsIdx(u), AdjIdx(adj))),
            });
            push_provider_exports(&mut heap, world, failed, v_idx, hops);
        }

        // Phase 2: peer routes — one settlement-free hop off a customer/origin
        // route. Single pass over P2P adjacencies; best candidate per node.
        let mut peer_cand: Vec<Option<(u16, u32, u32, u32)>> = vec![None; n]; // (hops, src asn, src, adj)
        for (adj_i, adj) in world.adjacencies.iter().enumerate() {
            if adj.rel != Rel::P2P {
                continue;
            }
            if failed.active_instance(world, AdjIdx(adj_i as u32)).is_none() {
                continue;
            }
            for (u, v) in [(adj.a, adj.b), (adj.b, adj.a)] {
                let Some(u_route) = routes[u.0 as usize] else { continue };
                if !matches!(u_route.pref, PrefClass::Customer | PrefClass::Origin) {
                    continue;
                }
                if routes[v.0 as usize].is_some() {
                    continue; // customer/origin route always wins at v
                }
                let cand = (u_route.hops + 1, world.ases[u.0 as usize].asn.0, u.0, adj_i as u32);
                let better = match &peer_cand[v.0 as usize] {
                    None => true,
                    Some(existing) => cand < *existing,
                };
                if better {
                    peer_cand[v.0 as usize] = Some(cand);
                }
            }
        }
        for (v, cand) in peer_cand.into_iter().enumerate() {
            if let Some((hops, _, u, adj)) = cand {
                routes[v] = Some(RouteInfo {
                    pref: PrefClass::Peer,
                    hops,
                    parent: Some((AsIdx(u), AdjIdx(adj))),
                });
            }
        }

        // Phase 3: provider routes descend customer cones from every routed AS.
        let mut heap: ExportHeap = BinaryHeap::new();
        let push_customer_exports =
            |heap: &mut ExportHeap, world: &World, failed: &FailedSet, u: AsIdx, hops: u16| {
                let u_node = &world.ases[u.0 as usize];
                for &(v, adj_idx) in &u_node.neighbors {
                    let adj = &world.adjacencies[adj_idx.0 as usize];
                    // u exports to its customer v (u is the provider side).
                    let u_is_provider = adj.rel == Rel::C2P && adj.b == u && adj.a == v;
                    if !u_is_provider {
                        continue;
                    }
                    if failed.active_instance(world, adj_idx).is_none() {
                        continue;
                    }
                    heap.push(Reverse((hops + 1, u_node.asn.0, v.0, u.0, adj_idx.0)));
                }
            };
        for (u, route) in routes.iter().enumerate().take(n) {
            if let Some(r) = route {
                push_customer_exports(&mut heap, world, failed, AsIdx(u as u32), r.hops);
            }
        }
        while let Some(Reverse((hops, _pasn, v, u, adj))) = heap.pop() {
            if routes[v as usize].is_some() {
                continue;
            }
            routes[v as usize] = Some(RouteInfo {
                pref: PrefClass::Provider,
                hops,
                parent: Some((AsIdx(u), AdjIdx(adj))),
            });
            push_customer_exports(&mut heap, world, failed, AsIdx(v), hops);
        }

        RouteTree { origin, routes }
    }

    fn world() -> World {
        World::generate(WorldConfig::tiny(41))
    }

    /// The tree under `failed`, through its usable-adjacency table.
    fn tree_under(w: &World, failed: &FailedSet, origin: AsIdx) -> RouteTree {
        compute_tree(w, &failed.usable_adjacencies(w), origin)
    }

    #[test]
    fn most_ases_reach_most_prefixes() {
        let w = world();
        let failed = FailedSet::default();
        let mut total_routed = 0usize;
        for (i, _) in w.prefixes.iter().enumerate().take(10) {
            let tree = tree_under(&w, &failed, w.origin_of(crate::world::PrefixIdx(i as u32)));
            total_routed += tree.routed_count();
        }
        let expect = 10 * w.ases.len();
        assert!(
            total_routed as f64 > 0.9 * expect as f64,
            "connectivity too low: {total_routed}/{expect}"
        );
    }

    #[test]
    fn paths_are_valley_free() {
        let w = world();
        let failed = FailedSet::default();
        for pi in 0..w.prefixes.len().min(20) {
            let origin = w.origin_of(crate::world::PrefixIdx(pi as u32));
            let tree = tree_under(&w, &failed, origin);
            for v in 0..w.ases.len() {
                let Some(path) = tree.path_from(AsIdx(v as u32)) else { continue };
                // Walking vantage -> origin, classify each step; valley-free
                // means: once we pass a peer or customer-side step (toward
                // origin it looks like provider->customer), we may not go
                // back up.
                // Reconstruct classes: step near -> far where far is parent.
                let mut seen_down = false; // "down" = far is customer of near
                let mut peer_steps = 0;
                for w2 in path.windows(2) {
                    let (near, adj_idx) = (w2[0].0, w2[0].1.unwrap());
                    let far = w2[1].0;
                    let adj = &w.adjacencies[adj_idx.0 as usize];
                    let class = if adj.rel == Rel::P2P {
                        peer_steps += 1;
                        "peer"
                    } else if adj.a == far && adj.b == near {
                        // far is customer of near: near learned from customer
                        "down"
                    } else {
                        assert!(adj.a == near && adj.b == far);
                        "up"
                    };
                    match class {
                        "down" => seen_down = true,
                        "up" | "peer" => {
                            assert!(!seen_down, "valley: up/peer after down at AS{v} prefix {pi}");
                        }
                        _ => unreachable!(),
                    }
                }
                assert!(peer_steps <= 1, "at most one peer edge per path");
            }
        }
    }

    #[test]
    fn origin_has_zero_hops_and_no_parent() {
        let w = world();
        let tree = tree_under(&w, &FailedSet::default(), AsIdx(0));
        let r = tree.routes[0].unwrap();
        assert_eq!(r.pref, PrefClass::Origin);
        assert_eq!(r.hops, 0);
        assert!(r.parent.is_none());
        assert_eq!(tree.path_from(AsIdx(0)).unwrap().len(), 1);
    }

    #[test]
    fn path_hops_match_route_info() {
        let w = world();
        let tree = tree_under(&w, &FailedSet::default(), AsIdx(0));
        for v in 0..w.ases.len() {
            if let Some(path) = tree.path_from(AsIdx(v as u32)) {
                let info = tree.routes[v].unwrap();
                assert_eq!(path.len() as u16, info.hops + 1, "AS index {v}");
            }
        }
    }

    #[test]
    fn failures_reroute_or_disconnect_deterministically() {
        let w = world();
        let origin = AsIdx(0);
        let base = tree_under(&w, &FailedSet::default(), origin);
        // Fail every facility one at a time; trees must stay valid.
        for f in w.colo.facilities().iter().take(8) {
            let mut failed = FailedSet::default();
            failed.facilities.insert(f.id);
            let t1 = tree_under(&w, &failed, origin);
            let t2 = tree_under(&w, &failed, origin);
            for v in 0..w.ases.len() {
                assert_eq!(t1.routes[v], t2.routes[v], "determinism");
            }
            assert!(t1.routed_count() <= base.routed_count() + w.ases.len());
        }
    }

    /// A failure set of one to seven elements, each read off a random
    /// adjacency's instance so that it lands on infrastructure routes use.
    /// `drawn` counts the kinds: facility, facility port, IXP, IXP port,
    /// dead membership, dead adjacency.
    fn failure_set(w: &World, rng: &mut StdRng, drawn: &mut [usize; 6]) -> FailedSet {
        let mut failed = FailedSet::default();
        for _ in 0..rng.gen_range(1..8) {
            let adj_i = rng.gen_range(0..w.adjacencies.len());
            let adj = &w.adjacencies[adj_i];
            let inst = &adj.instances[rng.gen_range(0..adj.instances.len())];
            let (end, side) =
                if rng.gen_bool(0.5) { (adj.a, &inst.a_side) } else { (adj.b, &inst.b_side) };
            let asn = w.ases[end.0 as usize].asn;
            // (kind, whether the element was new) — a side without the
            // drawn kind's attachment kills the adjacency instead.
            let (kind, _) = match (rng.gen_range(0..6), side.facility, side.ixp) {
                (0, Some(f), _) => (0, failed.facilities.insert(f)),
                (1, Some(f), _) => (1, failed.facility_ports.insert((f, asn))),
                (2, _, Some(x)) => (2, failed.ixps.insert(x)),
                (3, _, Some(x)) => (3, failed.ixp_ports.insert((x, asn))),
                (4, _, Some(x)) => (4, failed.dead_memberships.insert((x, asn))),
                _ => (5, failed.dead_adjacencies.insert(AdjIdx(adj_i as u32))),
            };
            drawn[kind] += 1;
        }
        failed
    }

    #[test]
    fn level_builder_matches_the_heap_reference() {
        // Every origin of four tiny worlds, healthy and under 16 generated
        // failure sets each: the same route for every AS — class, hop
        // count, parent and adjacency — as the heap reference.
        let mut rng = StdRng::seed_from_u64(27);
        let (mut drawn, mut compared, mut moved) = ([0usize; 6], 0usize, 0usize);
        for seed in [41, 3, 77, 1_000] {
            let w = World::generate(WorldConfig::tiny(seed));
            let healthy: Vec<RouteTree> = (0..w.ases.len() as u32)
                .map(|o| compute_tree_reference(&w, &FailedSet::default(), AsIdx(o)))
                .collect();
            for round in 0..=16 {
                let failed = match round {
                    0 => FailedSet::default(),
                    _ => failure_set(&w, &mut rng, &mut drawn),
                };
                let usable = failed.usable_adjacencies(&w);
                assert_eq!(usable.len(), w.adjacencies.len());
                for (i, &up) in usable.iter().enumerate() {
                    let want = failed.active_instance(&w, AdjIdx(i as u32)).is_some();
                    assert_eq!(up, want, "world {seed}, adjacency {i}, {failed:?}");
                }
                for (o, before) in healthy.iter().enumerate() {
                    let origin = AsIdx(o as u32);
                    let want = compute_tree_reference(&w, &failed, origin);
                    let got = compute_tree(&w, &usable, origin);
                    assert_eq!(got.routes, want.routes, "world {seed}, origin {o}, {failed:?}");
                    compared += 1;
                    moved += usize::from(want.routes != before.routes);
                }
            }
        }
        assert!(drawn.iter().all(|&k| k > 0), "every failure kind drawn: {drawn:?}");
        assert!(moved * 2 > compared, "failures must move trees: {moved} of {compared}");
    }
}
