//! Property-based tests over generated worlds: structural invariants that
//! must hold for *any* seed, not just the ones unit tests happen to use.

use kepler_netsim::routing::policy::FailedSet;
use kepler_netsim::routing::propagate::compute_tree;
use kepler_netsim::world::{AsIdx, Rel, World, WorldConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// World structural invariants for arbitrary seeds.
    #[test]
    fn world_invariants(seed in 0u64..10_000) {
        let w = World::generate(WorldConfig::tiny(seed));
        // Adjacency lists are symmetric and consistent with the table.
        for (i, node) in w.ases.iter().enumerate() {
            for (nbr, adj_idx) in &node.neighbors {
                let adj = &w.adjacencies[adj_idx.0 as usize];
                let me = AsIdx(i as u32);
                prop_assert!(adj.a == me || adj.b == me);
                prop_assert_eq!(adj.other(me), *nbr);
                // The neighbor's list contains the mirror entry.
                let back = &w.ases[nbr.0 as usize].neighbors;
                prop_assert!(back.iter().any(|(n2, a2)| *n2 == me && a2 == adj_idx));
            }
        }
        // Ground-truth colocation is bidirectional.
        for node in &w.ases {
            for f in &node.facilities {
                prop_assert!(w.colo.members_of_facility(*f).contains(&node.asn));
            }
            for x in node.local_ixps.iter().chain(node.remote_ixps.iter()) {
                prop_assert!(w.colo.members_of_ixp(*x).contains(&node.asn));
            }
        }
        // ASN map is a bijection onto the node vector.
        prop_assert_eq!(w.asn_to_idx.len(), w.ases.len());
        for (asn, idx) in &w.asn_to_idx {
            prop_assert_eq!(&w.ases[idx.0 as usize].asn, asn);
        }
        // Every prefix has a live origin and is globally routable space.
        for (p, origin) in &w.prefixes {
            prop_assert!(!p.is_bogon());
            prop_assert!((origin.0 as usize) < w.ases.len());
        }
    }

    /// Routing is monotone under failures: breaking things never *adds*
    /// reachability, and restoring the empty failure set returns to the
    /// baseline exactly (same seed ⇒ same tree).
    #[test]
    fn failures_never_add_reachability(seed in 0u64..5_000, fac_pick in 0usize..16) {
        let w = World::generate(WorldConfig::tiny(seed));
        let clean = FailedSet::default();
        let origin = AsIdx((seed % w.ases.len() as u64) as u32);
        let healthy = clean.usable_adjacencies(&w);
        let base = compute_tree(&w, &healthy, origin);
        let facs = w.colo.facilities();
        let fac = facs[fac_pick % facs.len()].id;
        let mut failed = FailedSet::default();
        failed.facilities.insert(fac);
        let broken = compute_tree(&w, &failed.usable_adjacencies(&w), origin);
        prop_assert!(broken.routed_count() <= base.routed_count());
        // Any AS routed under failure is also routed when healthy.
        for v in 0..w.ases.len() {
            if broken.routes[v].is_some() {
                prop_assert!(base.routes[v].is_some(), "failure created reachability at {v}");
            }
        }
        let again = compute_tree(&w, &healthy, origin);
        for v in 0..w.ases.len() {
            prop_assert_eq!(again.routes[v], base.routes[v]);
        }
    }

    /// Customer/provider edges always climb the hierarchy in phase-1
    /// customer routes: the parent of a customer-route holder is reached
    /// over an adjacency where the child is provider or peer — never a
    /// valley (re-checked here across random seeds; the unit test checks
    /// one seed).
    #[test]
    fn tree_parents_use_live_adjacencies(seed in 0u64..5_000) {
        let w = World::generate(WorldConfig::tiny(seed));
        let clean = FailedSet::default();
        let tree = compute_tree(&w, &clean.usable_adjacencies(&w), AsIdx(0));
        for v in 0..w.ases.len() {
            if let Some(info) = tree.routes[v] {
                if let Some((parent, adj_idx)) = info.parent {
                    let adj = &w.adjacencies[adj_idx.0 as usize];
                    let me = AsIdx(v as u32);
                    prop_assert!(
                        (adj.a == me && adj.b == parent) || (adj.b == me && adj.a == parent)
                    );
                    prop_assert!(clean.adjacency_up(&w, adj_idx));
                    prop_assert!(matches!(adj.rel, Rel::C2P | Rel::P2P));
                    // Hop counts decrease toward the origin.
                    let p_info = tree.routes[parent.0 as usize].expect("parent routed");
                    prop_assert_eq!(p_info.hops + 1, info.hops);
                }
            }
        }
    }
}
