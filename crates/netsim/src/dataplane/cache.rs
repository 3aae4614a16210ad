//! The batched-trace cache: interned active sets, routing trees, path
//! skeletons in one hop arena, and the per-pair windows that replay them.

use super::{IfaceOwner, ProbePair};
use crate::routing::policy::FailedSet;
use crate::routing::propagate::RouteTree;
use kepler_bgp::fx::FxHashMap;
use std::collections::HashMap;
use std::net::IpAddr;

/// One responding interface of a path skeleton.
#[derive(Debug, Clone, Copy)]
pub(super) struct SkeletonHop {
    pub(super) owner: IfaceOwner,
    pub(super) addr: IpAddr,
    /// Propagation plus router delay of the segment entering this hop:
    /// `km · 0.01 · 2.0 + 0.3` — everything in the RTT step that depends
    /// on neither the instant nor the [`DataplaneConfig`](super::DataplaneConfig).
    pub(super) base_ms: f64,
}

/// Where one skeleton's hops sit in the arena: `arena[start..start + len]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Span {
    start: u32,
    len: u32,
}

/// The time-independent part of one pair's traceroute under one active
/// event set: its responding hops in TTL order, or `None` when the
/// destination has no surviving policy path.
pub(super) type Skeleton = Option<Span>;

/// One probe pair's window onto a [`TreeCache`]: the `[from, last]`
/// range of instants on which the skeleton the pair last resolved to
/// stays valid, so re-tracing it at an advancing clock is a range check.
///
/// A caller that traces a fixed panel keeps one window per pair and
/// hands it to
/// [`traceroute_windowed`](super::DataplaneSim::traceroute_windowed),
/// skipping the cache's own per-pair map. The window records the cache's
/// *generation*: a wholesale eviction invalidates every window resolved
/// before it, and the next trace through such a window resolves afresh.
/// A window belongs to the one cache it was resolved against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairWindow {
    pub(super) pair: ProbePair,
    pub(super) from: u64,
    pub(super) last: u64,
    pub(super) generation: u64,
    pub(super) skeleton: Skeleton,
}

impl PairWindow {
    /// A window for `pair` that covers no instant yet: the first trace
    /// through it resolves.
    pub fn new(pair: ProbePair) -> Self {
        PairWindow { pair, from: u64::MAX, last: 0, generation: 0, skeleton: None }
    }

    /// Whether the skeleton this window holds is `cache`'s answer at `t`.
    pub(super) fn covers(&self, t: u64, cache: &TreeCache) -> bool {
        self.generation == cache.generation && self.from <= t && t <= self.last
    }
}

/// Shared cache for **batched traceroute simulation**: routing trees,
/// path skeletons and per-pair epoch windows.
///
/// Computing a route means building the per-origin routing tree
/// ([`compute_tree`](crate::routing::propagate::compute_tree), ≈ 34 µs on
/// the 528-AS AMS-IX world, over a usable-adjacency table that costs
/// ≈ 100 µs once per interned set) and walking it into interface hops.
/// Neither depends on the instant: the tree is a function
/// of `(origin, active event set)`, the hop sequence with its propagation
/// delays (the *skeleton*) of `(pair, active event set)`. Within a
/// campaign (many vantages × few targets, one failure state) the same
/// tree is shared across pairs; across the bins of a panel (same pairs,
/// advancing `t`) the same skeleton is replayed with only the per-instant
/// terms — jitter, surge, loss, TTL budget, configured extra latency —
/// recomputed. Skeleton hops live back to back in one arena, so a panel's
/// replays read one contiguous buffer. In front of both sits one
/// [`PairWindow`] per pair, either held by the caller or kept in the
/// cache's own per-pair map.
///
/// Caching is exact, not approximate: the keys capture everything the
/// cached values read besides the immutable world, timeline and seed, so
/// cached and uncached traces are bit-identical (differentially tested
/// against the simulator's straight-line reference). A skeleton never
/// depends on `t` or on a `DataplaneConfig` field. A cache belongs to one
/// simulator: its keys are that simulator's timeline indices.
///
/// Memory is bounded: when a miss would push the tree count or the
/// skeleton count past its cap, everything is evicted wholesale and the
/// generation moves on.
#[derive(Debug)]
pub struct TreeCache {
    pub(super) tree_cap: usize,
    pub(super) skeleton_cap: usize,
    /// Interned active-event sets; a set's id keys everything below.
    pub(super) set_ids: HashMap<Vec<u32>, u32>,
    /// Failure state per interned set, by id, with the usable-adjacency
    /// table every tree of that set is built over.
    pub(super) states: Vec<(FailedSet, Vec<bool>)>,
    pub(super) trees: FxHashMap<(u32, u32), RouteTree>,
    /// Every retained skeleton, by (pair, interned set).
    pub(super) skeletons: FxHashMap<(ProbePair, u32), Skeleton>,
    /// The hops of every retained skeleton, back to back.
    arena: Vec<SkeletonHop>,
    /// The window each pair last resolved to, for callers holding none.
    pub(super) windows: FxHashMap<ProbePair, PairWindow>,
    /// Wholesale evictions so far: a window from an older generation is
    /// stale.
    pub(super) generation: u64,
    /// Recycled active-set buffer.
    pub(super) scratch: Vec<u32>,
    pub(super) hits: u64,
    pub(super) misses: u64,
}

/// Retained trees before the cache evicts wholesale (bounds memory on
/// multi-year replays; a campaign needs far fewer distinct trees).
pub(super) const TREE_CACHE_CAP: usize = 4096;

/// Retained skeletons before the cache evicts wholesale. A skeleton is a
/// few hundred bytes against a tree's tens of kilobytes, and there is one
/// per (pair, failure state) rather than per (origin, failure state).
pub(super) const SKELETON_CACHE_CAP: usize = 8 * TREE_CACHE_CAP;

impl Default for TreeCache {
    fn default() -> Self {
        TreeCache::with_caps(TREE_CACHE_CAP, SKELETON_CACHE_CAP)
    }
}

impl TreeCache {
    /// An empty cache.
    pub fn new() -> Self {
        TreeCache::default()
    }

    /// An empty cache that evicts wholesale past `trees` routing trees or
    /// `skeletons` path skeletons (the default caps are 4 096 and
    /// 32 768). Small caps exist to exercise eviction; results never
    /// depend on them.
    pub fn with_caps(trees: usize, skeletons: usize) -> Self {
        TreeCache {
            tree_cap: trees,
            skeleton_cap: skeletons,
            set_ids: HashMap::new(),
            states: Vec::new(),
            trees: FxHashMap::default(),
            skeletons: FxHashMap::default(),
            arena: Vec::new(),
            windows: FxHashMap::default(),
            generation: 0,
            scratch: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Routing-tree (hits, misses) since construction — the speedup audit
    /// trail. Trees are only consulted when a skeleton has to be built.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Wholesale evictions since construction.
    pub fn evictions(&self) -> u64 {
        self.generation
    }

    /// Number of distinct routing trees currently retained.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the cache holds no trees.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Evicts everything; every window handed out so far goes stale.
    pub(super) fn clear(&mut self) {
        self.set_ids.clear();
        self.states.clear();
        self.trees.clear();
        self.skeletons.clear();
        self.arena.clear();
        self.windows.clear();
        self.generation += 1;
    }

    /// Appends one skeleton's hops to the arena and returns where they
    /// sit.
    pub(super) fn push_hops(&mut self, hops: impl IntoIterator<Item = SkeletonHop>) -> Span {
        let start = self.arena.len();
        self.arena.extend(hops);
        Span { start: start as u32, len: (self.arena.len() - start) as u32 }
    }

    /// A skeleton's hops, `None` when it has no route.
    pub(super) fn hops(&self, skeleton: Skeleton) -> Option<&[SkeletonHop]> {
        skeleton.map(|s| &self.arena[s.start as usize..(s.start + s.len) as usize])
    }
}
