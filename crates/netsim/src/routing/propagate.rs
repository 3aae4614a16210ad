//! Per-prefix Gao-Rexford route propagation.
//!
//! For one origin, computes every AS's best route simultaneously as a
//! routing tree (the standard three-phase algorithm), each phase walking
//! one run of the world's compiled [`Graph`]:
//!
//! 1. **Customer routes** climb provider runs from the origin — every AS on
//!    the way prefers them above all else and re-exports them to everyone.
//! 2. **Peer routes** hop exactly one peer-run edge from an AS with a
//!    customer/origin route.
//! 3. **Provider routes** descend customer runs from any routed AS —
//!    customers receive everything and re-export what they learned from
//!    providers only further down.
//!
//! Selection inside a class is shortest AS path, then lowest neighbor ASN —
//! fully deterministic. Only adjacencies with an instance in the caller's
//! active-instance table participate (built once per failure state by
//! [`FailedSet::active_instances`](super::policy::FailedSet::active_instances)),
//! which is how physical outages reshape control-plane paths.
//!
//! Phases 1 and 3 walk hop levels, not a priority queue: every offer at
//! hop `h + 1` comes from an AS routed at `h`, so an AS first reached at
//! `h + 1` keeps the least `(parent ASN, parent, adjacency)` offer of that
//! level — exactly what a Dijkstra heap over `(hops, parent ASN, node,
//! parent, adjacency)` pops first (the `#[cfg(test)]` reference).

use crate::world::{AdjIdx, Adjacency, AsIdx, AsNode, Rel, World};

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
    /// Number of ASes holding a route.
    pub fn routed_count(&self) -> usize {
        self.routes.iter().filter(|r| r.is_some()).count()
    }
}

/// The AS graph split by relationship, compiled once per world
/// ([`World::graph`]): per AS, an offset row into one `(neighbor, adjacency)`
/// table holding its customers, peers and providers (`Graph::exports`).
#[derive(Debug, Clone)]
pub struct Graph {
    rows: Vec<[u32; 4]>,
    edges: Vec<(AsIdx, AdjIdx)>,
    /// ASN per `AsIdx`.
    pub asn: Vec<u32>,
}

impl Graph {
    /// Files each AS's neighbors under the run its relationship gives them.
    pub(crate) fn new(ases: &[AsNode], adjacencies: &[Adjacency]) -> Graph {
        let (mut rows, mut edges) = (Vec::with_capacity(ases.len()), Vec::new());
        for (u, node) in ases.iter().enumerate() {
            let exported = |&(_, adj): &(AsIdx, AdjIdx)| match adjacencies[adj.0 as usize] {
                Adjacency { rel: Rel::P2P, .. } => PrefClass::Peer,
                Adjacency { a, .. } if a.0 as usize == u => PrefClass::Customer,
                _ => PrefClass::Provider,
            };
            let mut row = [edges.len() as u32; 4];
            for pref in [PrefClass::Provider, PrefClass::Peer, PrefClass::Customer] {
                edges.extend(node.neighbors.iter().filter(|e| exported(e) == pref));
                row[pref as usize + 1] = edges.len() as u32;
            }
            rows.push(row);
        }
        Graph { rows, edges, asn: ases.iter().map(|a| a.asn.0).collect() }
    }

    /// The neighbors `u` exports a `pref` route to, in neighbor order: its
    /// customers for a provider route, its peers for a peer route, its
    /// providers for a customer route. `pref` is never [`PrefClass::Origin`].
    pub(crate) fn exports(&self, u: AsIdx, pref: PrefClass) -> &[(AsIdx, AdjIdx)] {
        let (row, k) = (self.rows[u.0 as usize], pref as usize);
        &self.edges[row[k] as usize..row[k + 1] as usize]
    }
}

/// Computes the routing tree for the prefix originated by `origin`, over
/// the adjacencies with an active instance in `instances` (one per
/// `AdjIdx`).
pub fn compute_tree(world: &World, instances: &[Option<u32>], origin: AsIdx) -> RouteTree {
    let graph = &world.graph;
    let mut routes: Vec<Option<RouteInfo>> = vec![None; graph.asn.len()];
    routes[origin.0 as usize] = Some(RouteInfo { pref: PrefClass::Origin, hops: 0, parent: None });

    // Phase 1: customer routes climb from the origin to its providers.
    let mut seeds = grow(graph, instances, &mut routes, &[origin], PrefClass::Customer);

    // Phase 2: peer routes — one settlement-free hop off the origin or a
    // customer route, which is everything `seeds` holds so far.
    for i in 0..seeds.len() {
        let u = seeds[i];
        let hops = hops_of(&routes, u) + 1;
        for &(v, adj) in graph.exports(u, PrefClass::Peer) {
            let peer = RouteInfo { pref: PrefClass::Peer, hops, parent: Some((u, adj)) };
            if instances[adj.0 as usize].is_some() && offer(graph, &mut routes, v, peer) {
                seeds.push(v);
            }
        }
    }

    // Phase 3: provider routes descend customer cones from every routed AS.
    seeds.sort_unstable_by_key(|&u| hops_of(&routes, u));
    grow(graph, instances, &mut routes, &seeds, PrefClass::Provider);

    RouteTree { origin, routes }
}

fn hops_of(routes: &[Option<RouteInfo>], u: AsIdx) -> u16 {
    routes[u.0 as usize].map_or(0, |r| r.hops)
}

/// Routes level by level from `seeds` (routed ASes in ascending hop
/// order): every AS routed at hop `h`, seed or reached, offers a `pref`
/// route at `h + 1` over each usable adjacency of its `pref` export run.
/// Returns the seeds and every AS reached, in hop order.
fn grow(
    graph: &Graph,
    instances: &[Option<u32>],
    routes: &mut [Option<RouteInfo>],
    seeds: &[AsIdx],
    pref: PrefClass,
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
            for &(v, adj) in graph.exports(u, pref) {
                let route = RouteInfo { pref, hops: h + 1, parent: Some((u, adj)) };
                if instances[adj.0 as usize].is_some() && offer(graph, routes, v, route) {
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
fn offer(graph: &Graph, routes: &mut [Option<RouteInfo>], v: AsIdx, route: RouteInfo) -> bool {
    let rank =
        |r: &RouteInfo| r.parent.map(|(p, adj)| (r.hops, graph.asn[p.0 as usize], p.0, adj.0));
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

    impl RouteTree {
        /// The AS-level path from `vantage` to the origin, with the adjacency
        /// used at each step; `None` if the vantage has no route.
        fn path_from(&self, vantage: AsIdx) -> Option<Vec<(AsIdx, Option<AdjIdx>)>> {
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
    }

    fn world() -> World {
        World::generate(WorldConfig::tiny(41))
    }

    /// The tree under `failed`, through its active-instance table.
    fn tree_under(w: &World, failed: &FailedSet, origin: AsIdx) -> RouteTree {
        compute_tree(w, &failed.active_instances(w), origin)
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
    fn graph_lists_each_adjacency_once_from_each_end_in_its_relationship_run() {
        // The four worlds of the tree differential: a C2P customer lists its
        // provider among those it exports customer routes to, the provider
        // lists the customer among those it exports provider routes to, and
        // the ends of a P2P adjacency list each other in their peer runs.
        // Nothing else is listed, and every run is in neighbor order.
        use PrefClass::{Customer, Peer, Provider};
        for seed in [41, 3, 77, 1_000] {
            let w = World::generate(WorldConfig::tiny(seed));
            let g = &w.graph;
            assert_eq!(g.asn, w.ases.iter().map(|a| a.asn.0).collect::<Vec<_>>(), "world {seed}");
            let mut listed = vec![Vec::new(); w.adjacencies.len()];
            for u in (0..w.ases.len() as u32).map(AsIdx) {
                for pref in [Provider, Peer, Customer] {
                    let run = g.exports(u, pref);
                    assert!(run.windows(2).all(|e| e[0].0 <= e[1].0), "world {seed}, {u:?}");
                    for &(v, adj) in run {
                        listed[adj.0 as usize].push((u, pref, v));
                    }
                }
            }
            for (i, (adj, mut got)) in w.adjacencies.iter().zip(listed).enumerate() {
                let mut want = match adj.rel {
                    Rel::C2P => vec![(adj.a, Customer, adj.b), (adj.b, Provider, adj.a)],
                    Rel::P2P => vec![(adj.a, Peer, adj.b), (adj.b, Peer, adj.a)],
                };
                want.sort();
                got.sort();
                assert_eq!(got, want, "world {seed}, adjacency {i}");
            }
        }
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
                let instances = failed.active_instances(&w);
                assert_eq!(instances.len(), w.adjacencies.len());
                for (i, &active) in instances.iter().enumerate() {
                    let want = failed.active_instance(&w, AdjIdx(i as u32));
                    assert_eq!(active, want, "world {seed}, adjacency {i}, {failed:?}");
                }
                for (o, before) in healthy.iter().enumerate() {
                    let origin = AsIdx(o as u32);
                    let want = compute_tree_reference(&w, &failed, origin);
                    let got = compute_tree(&w, &instances, origin);
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
