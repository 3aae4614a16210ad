//! Traceroute data-plane substitute.
//!
//! Stands in for RIPE Atlas / CAIDA Ark / iPlane plus the paper's targeted
//! campaigns: interface-level paths are derived from the same physical
//! topology the control plane routes over, so control-plane inferences can
//! be *validated* against an independent-looking view, exactly as Kepler's
//! data-plane analysis module does (§4.4).
//!
//! Fidelity notes:
//! * interface addresses are synthesized deterministically per (AS,
//!   facility) port and per IXP peering LAN, and every hop carries the
//!   infrastructure it belongs to ([`TraceHop::owner`]) — the
//!   traIXroute-style IP-to-infrastructure resolution of [50, 76];
//! * RTTs are great-circle propagation over the traversed facilities plus
//!   per-hop jitter;
//! * after an outage is repaired the data plane converges *faster* than
//!   BGP but not instantly: ≈85% of paths are back within an hour
//!   (Figure 10b), modeled as a deterministic per-(pair, event) delay.

use crate::events::{EventKind, ScheduledEvent};
use crate::routing::policy::FailedSet;
use crate::routing::propagate::compute_tree;
use crate::routing::tag::{route_hops, visits, PopVisit};
use crate::world::{AsIdx, PrefixIdx, World};
use kepler_bgp::Asn;
use kepler_probe::splitmix64 as splitmix;
use kepler_topology::{FacilityId, GeoPoint, IxpId};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

// The interface-level trace vocabulary is owned by `kepler-probe` (the
// detector-side path analysis consumes the same types); this module
// re-exports it so simulator callers keep their historical paths.
pub use kepler_probe::{IfaceOwner, TraceHop};

/// A measured (source AS, destination prefix) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProbePair {
    /// Probe host's AS.
    pub src: AsIdx,
    /// Target prefix.
    pub dst: PrefixIdx,
}

/// One traceroute measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceroutePath {
    /// What was measured.
    pub pair: ProbePair,
    /// When.
    pub time: u64,
    /// The hops (empty if the destination was unreachable).
    pub hops: Vec<TraceHop>,
    /// Whether the destination answered.
    pub reached: bool,
}

impl TraceroutePath {
    /// End-to-end RTT (last hop), if reached.
    pub fn rtt_ms(&self) -> Option<f64> {
        if self.reached {
            self.hops.last().map(|h| h.rtt_ms)
        } else {
            None
        }
    }

    /// Whether any hop crosses the given IXP.
    pub fn crosses_ixp(&self, ixp: IxpId) -> bool {
        kepler_probe::trace::ixp_hop(&self.hops, ixp).is_some()
    }

    /// Whether any hop crosses the given facility.
    pub fn crosses_facility(&self, fac: FacilityId) -> bool {
        kepler_probe::trace::facility_hop(&self.hops, fac).is_some()
    }
}

/// Measurement-fidelity knobs of the simulated data plane. The default is
/// the ideal probe: lossless, jittering like the historical model, with a
/// standard TTL budget — existing callers see identical traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataplaneConfig {
    /// Probability an intermediate hop silently drops the probe (the `*`
    /// rows of a real traceroute): the hop is absent from the result but
    /// the trace continues.
    pub hop_loss: f64,
    /// Fixed extra per-hop latency in milliseconds (busy routers).
    pub extra_hop_latency_ms: f64,
    /// Peak per-hop jitter in milliseconds.
    pub jitter_ms: f64,
    /// TTL budget: traces needing more hops than this are truncated and
    /// reported unreached.
    pub max_ttl: usize,
}

impl Default for DataplaneConfig {
    fn default() -> Self {
        DataplaneConfig { hop_loss: 0.0, extra_hop_latency_ms: 0.0, jitter_ms: 0.4, max_ttl: 30 }
    }
}

mod cache;
mod epoch;

pub use cache::{PairWindow, TreeCache};
use cache::{Skeleton, SkeletonHop};
use epoch::EpochIndex;
#[cfg(test)]
use {
    cache::{SKELETON_CACHE_CAP, TREE_CACHE_CAP},
    epoch::{restoration_tail, MAX_TAIL_SECS},
};

/// A world or timeline a simulator either borrows (scoped simulators) or
/// shares (resident ones that outlive the scope that built them).
enum Held<'a, T: ?Sized> {
    Borrowed(&'a T),
    Shared(Arc<T>),
}

impl<T: ?Sized> std::ops::Deref for Held<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match self {
            Held::Borrowed(t) => t,
            Held::Shared(t) => t,
        }
    }
}

/// A [`EventKind::LatencySurge`] lifted off the timeline.
struct Surge {
    start: u64,
    end: u64,
    facility: FacilityId,
    extra_ms: f64,
}

/// The data-plane simulator for one event timeline.
pub struct DataplaneSim<'w> {
    world: Held<'w, World>,
    timeline: Held<'w, [ScheduledEvent]>,
    seed: u64,
    config: DataplaneConfig,
    epochs: EpochIndex,
    /// The timeline's latency surges, in timeline order.
    surges: Vec<Surge>,
}

impl<'w> DataplaneSim<'w> {
    fn build(world: Held<'w, World>, timeline: Held<'w, [ScheduledEvent]>, seed: u64) -> Self {
        let epochs = EpochIndex::build(&timeline);
        let surges = timeline
            .iter()
            .filter_map(|ev| match ev.kind {
                EventKind::LatencySurge { facility, extra_ms } => {
                    Some(Surge { start: ev.start, end: ev.end(), facility, extra_ms })
                }
                _ => None,
            })
            .collect();
        DataplaneSim { world, timeline, seed, config: DataplaneConfig::default(), epochs, surges }
    }

    /// Builds the simulator for a timeline, borrowing world and timeline.
    pub fn new(world: &'w World, timeline: &'w [ScheduledEvent], seed: u64) -> Self {
        Self::build(Held::Borrowed(world), Held::Borrowed(timeline), seed)
    }

    /// [`new`](Self::new) over a shared world and timeline:
    /// the simulator a long-lived backend keeps for its whole life.
    pub fn resident(
        world: Arc<World>,
        timeline: Arc<[ScheduledEvent]>,
        seed: u64,
    ) -> DataplaneSim<'static> {
        DataplaneSim::build(Held::Shared(world), Held::Shared(timeline), seed)
    }

    /// Overrides the measurement-fidelity configuration.
    pub fn with_config(mut self, config: DataplaneConfig) -> Self {
        self.config = config;
        self
    }

    /// The world this simulator measures.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Materializes the failure set of an active-event index set.
    fn failed_from(&self, active: &[u32]) -> FailedSet {
        FailedSet::of_events(&self.world, &self.timeline, active)
    }

    /// The failure state the *data plane* experiences at `t` for `pair`:
    /// events apply during their window; after restoration the pair keeps
    /// its detour for a deterministic extra delay (85% < 1 h).
    pub fn failed_at(&self, t: u64, pair: ProbePair) -> FailedSet {
        let mut active = Vec::new();
        self.epochs.active_at(self.seed, t, pair, &mut active);
        self.failed_from(&active)
    }

    /// Extra milliseconds from [`EventKind::LatencySurge`] events active
    /// on `facility` at `t`. Congestion has no recovery tail — the queue
    /// drains the moment the event ends — so the window is exact.
    fn surge_ms(&self, t: u64, facility: FacilityId) -> f64 {
        self.surges
            .iter()
            .filter(|s| s.facility == facility && t >= s.start && t < s.end)
            .map(|s| s.extra_ms)
            .sum()
    }

    /// Performs one traceroute measurement, answering hop-by-hop: each
    /// traversed port gets a TTL slot, may drop the probe
    /// ([`DataplaneConfig::hop_loss`]), accumulates propagation latency
    /// and jitter, and the trace truncates unreached past the TTL budget.
    /// Outage-consistent unreachability comes from the routing layer: a
    /// destination with no surviving policy path yields an empty,
    /// unreached trace.
    pub fn traceroute(&self, pair: ProbePair, t: u64) -> TraceroutePath {
        self.traceroute_with(&mut TreeCache::new(), pair, t)
    }

    /// Like [`traceroute`](Self::traceroute), but sharing routing trees,
    /// path skeletons and epoch windows through `cache` — the batched form
    /// every campaign- or panel-shaped caller should use. Results are
    /// bit-identical to the uncached path. `cache` must only ever be used
    /// with this simulator.
    pub fn traceroute_with(
        &self,
        cache: &mut TreeCache,
        pair: ProbePair,
        t: u64,
    ) -> TraceroutePath {
        let mut hops = Vec::new();
        let reached = self.traceroute_into(cache, pair, t, &mut hops);
        TraceroutePath { pair, time: t, hops, reached }
    }

    /// [`traceroute_with`](Self::traceroute_with) into a caller-held hop
    /// buffer (cleared first), returning whether the destination answered:
    /// a pair re-traced every bin allocates nothing once it has grown. The
    /// pair's window comes from the cache's own per-pair map; this is
    /// [`traceroute_windowed`](Self::traceroute_windowed) fed from there.
    pub fn traceroute_into(
        &self,
        cache: &mut TreeCache,
        pair: ProbePair,
        t: u64,
        hops: &mut Vec<TraceHop>,
    ) -> bool {
        let held = cache.windows.get(&pair).copied();
        let mut window = held.unwrap_or_else(|| PairWindow::new(pair));
        let reached = self.traceroute_windowed(cache, &mut window, t, hops);
        // A window that still covers `t` comes back unchanged; only a
        // re-resolved one is written back.
        if held != Some(window) {
            cache.windows.insert(pair, window);
        }
        reached
    }

    /// Traces `window`'s pair at `t` into `hops` (cleared first) and
    /// returns whether the destination answered. While `window` covers
    /// `t` in `cache` this is a range check plus the replay; otherwise the
    /// window is resolved afresh first. The form for a caller that keeps
    /// one [`PairWindow`] per pair of a fixed panel: no per-pair lookup.
    /// Bit-identical to [`traceroute`](Self::traceroute).
    pub fn traceroute_windowed(
        &self,
        cache: &mut TreeCache,
        window: &mut PairWindow,
        t: u64,
        hops: &mut Vec<TraceHop>,
    ) -> bool {
        if !window.covers(t, cache) {
            *window = self.resolve(cache, window.pair, t);
        }
        self.replay(cache.hops(window.skeleton), t, hops)
    }

    /// Finds (or builds) the skeleton `pair` traces over at `t`, with the
    /// window it holds on.
    fn resolve(&self, cache: &mut TreeCache, pair: ProbePair, t: u64) -> PairWindow {
        let mut active = std::mem::take(&mut cache.scratch);
        let (from, last) = self.epochs.active_at(self.seed, t, pair, &mut active);
        let known = cache.set_ids.get(active.as_slice()).copied();
        let skeleton = match known.and_then(|set| cache.skeletons.get(&(pair, set)).copied()) {
            Some(skeleton) => skeleton,
            None => self.build_skeleton(cache, pair, known, &active),
        };
        cache.scratch = active;
        // Read after the build: a build that evicted moved the generation.
        PairWindow { pair, from, last, generation: cache.generation, skeleton }
    }

    /// Walks `pair`'s route under the `active` event set into a skeleton
    /// and retains it. `known` is the set's id if it is already interned.
    fn build_skeleton(
        &self,
        cache: &mut TreeCache,
        pair: ProbePair,
        mut known: Option<u32>,
        active: &[u32],
    ) -> Skeleton {
        let world: &World = &self.world;
        let origin = world.origin_of(pair.dst);
        // Evict wholesale only when a *new* entry would overflow a cap — a
        // tree hit must never flush the cache it is about to read.
        let tree_cached = known.is_some_and(|set| cache.trees.contains_key(&(origin.0, set)));
        if cache.skeletons.len() >= cache.skeleton_cap
            || (cache.trees.len() >= cache.tree_cap && !tree_cached)
        {
            cache.clear();
            known = None;
        }
        let set = known.unwrap_or_else(|| {
            let id = cache.states.len() as u32;
            cache.states.push(self.failed_from(active).active_instances(world));
            cache.set_ids.insert(active.to_vec(), id);
            id
        });
        let instances = &cache.states[set as usize];
        let tree = match cache.trees.entry((origin.0, set)) {
            std::collections::hash_map::Entry::Occupied(e) => {
                cache.hits += 1;
                e.into_mut()
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                cache.misses += 1;
                e.insert(compute_tree(world, instances, origin))
            }
        };
        // Collected first: the walk borrows the cache the hops go into.
        let route: Option<Vec<PopVisit>> = route_hops(tree, instances, pair.src)
            .map(|hops| visits(world, pair.src, hops).collect());
        let skeleton = route.map(|visits| {
            let src_city = world.ases[pair.src.0 as usize].info.home_city;
            let mut here: GeoPoint = world.gazetteer.cities()[src_city.0 as usize].point;
            cache.push_hops(visits.iter().filter_map(|v| {
                let (owner, addr, point) = responding_iface(world, v, here)?;
                // ~1 ms RTT per 100 km of great-circle fiber, plus router delay.
                let base_ms = here.distance_km(&point) * 0.01 * 2.0 + 0.3;
                here = point;
                Some(SkeletonHop { owner, addr, base_ms })
            }))
        });
        cache.skeletons.insert((pair, set), skeleton);
        skeleton
    }

    /// Plays a skeleton at instant `t` into `hops` (true = destination
    /// answered): the TTL budget, configured extra latency, surges, jitter
    /// and hop loss — in the reference's exact floating-point order.
    fn replay(&self, skeleton: Option<&[SkeletonHop]>, t: u64, hops: &mut Vec<TraceHop>) -> bool {
        hops.clear();
        let Some(skeleton) = skeleton else {
            return false;
        };
        // Exact, so an owned path still costs one right-sized allocation.
        hops.reserve_exact(skeleton.len());
        let mut rtt = 0.5; // first-hop base
        for (i, hop) in skeleton.iter().enumerate() {
            let ttl = i + 1;
            if ttl > self.config.max_ttl {
                return false;
            }
            rtt += hop.base_ms + self.config.extra_hop_latency_ms;
            // A congested facility's queueing delay lands on the segment
            // *entering* it and, RTT being cumulative, every hop beyond.
            if let IfaceOwner::FacilityPort { facility, .. } = hop.owner {
                rtt += self.surge_ms(t, facility);
            }
            let jitter =
                (splitmix(self.seed ^ addr_hash(hop.addr) ^ (t / 60)) % 100) as f64 / 100.0;
            rtt += jitter * self.config.jitter_ms;
            if self.config.hop_loss > 0.0 {
                let roll = splitmix(self.seed ^ addr_hash(hop.addr) ^ t ^ (ttl as u64) << 48);
                if ((roll % 10_000) as f64) < self.config.hop_loss * 10_000.0 {
                    continue; // the `*` row: no answer, trace continues
                }
            }
            hops.push(TraceHop { addr: hop.addr, owner: hop.owner, rtt_ms: rtt });
        }
        true
    }

    /// Resolves a (vantage AS, target AS) pair to a measurable probe
    /// pair: the target's first originated IPv4 prefix. `None` when
    /// either AS is unknown or the target originates no IPv4 space.
    pub fn pair_between(&self, src: Asn, dst: Asn) -> Option<ProbePair> {
        let s = *self.world.asn_to_idx.get(&src)?;
        let d = *self.world.asn_to_idx.get(&dst)?;
        let pfx = self.world.v4_prefix_of(d)?;
        Some(ProbePair { src: s, dst: pfx })
    }

    /// Measures a whole probe set at `t` (a "weekly dump" when invoked on
    /// archive cadence, a targeted campaign otherwise). One routing tree
    /// per (origin, failure-state) is computed and shared across the
    /// whole campaign.
    pub fn campaign(&self, pairs: &[ProbePair], t: u64) -> Vec<TraceroutePath> {
        let mut cache = TreeCache::new();
        pairs.iter().map(|&p| self.traceroute_with(&mut cache, p, t)).collect()
    }
}

/// A default probe set of (up to) `n` pairs sampled at `seed`: sources
/// in edge (eyeball/stub) ASes — where Atlas probes actually live — toward
/// content prefixes. Pure sampling over the world; nothing is traced.
pub fn default_pairs(world: &World, seed: u64, n: usize) -> Vec<ProbePair> {
    use kepler_topology::AsType;
    let sources: Vec<AsIdx> = world
        .ases
        .iter()
        .enumerate()
        .filter(|(_, a)| matches!(a.info.as_type, AsType::Eyeball | AsType::Stub))
        .map(|(i, _)| AsIdx(i as u32))
        .collect();
    let targets: Vec<PrefixIdx> = world
        .prefixes
        .iter()
        .enumerate()
        .filter(|(_, (p, o))| {
            p.is_ipv4()
                && matches!(world.ases[o.0 as usize].info.as_type, AsType::Content | AsType::Tier2)
        })
        .map(|(i, _)| PrefixIdx(i as u32))
        .collect();
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        if sources.is_empty() || targets.is_empty() {
            break;
        }
        let s = sources[(splitmix(seed ^ (k as u64) << 1) as usize) % sources.len()];
        let d = targets[(splitmix(seed ^ (k as u64) << 1 | 1) as usize) % targets.len()];
        out.push(ProbePair { src: s, dst: d });
    }
    out.sort_by_key(|p| (p.src.0, p.dst.0));
    out.dedup();
    out
}

/// Deterministic facility-port address (11.0.0.0/8 experiment space).
fn facility_port_addr(asn: Asn, fac: FacilityId) -> IpAddr {
    let h = splitmix((asn.0 as u64) << 32 | fac.0 as u64) as u32;
    IpAddr::V4(Ipv4Addr::from(0x0B00_0000 | (h & 0x00FF_FFFF)))
}

/// Deterministic IXP LAN address: 193.<ixp>.<member-hash> style.
fn ixp_lan_addr(asn: Asn, ixp: IxpId) -> IpAddr {
    let h = splitmix((asn.0 as u64) << 20 | ixp.0 as u64) as u32;
    IpAddr::V4(Ipv4Addr::new(193, (ixp.0 % 250) as u8, ((h >> 8) & 0xFF) as u8, (h & 0xFF) as u8))
}

/// The interface answering for one crossing, reached from `here`: the
/// far-end router's ingress port — the IXP LAN address for public
/// peering, else its facility port — with its location. `None` when the
/// crossing has neither (no TTL slot).
fn responding_iface(
    world: &World,
    v: &PopVisit,
    here: GeoPoint,
) -> Option<(IfaceOwner, IpAddr, GeoPoint)> {
    if let Some(x) = v.ixp {
        // A remote member's LAN interface answers from the far end of its
        // reseller circuit — its home metro — not from the exchange's
        // city. This is what makes remote peering *latency-visible*: the
        // RTT step onto the LAN carries the reseller tail, which the
        // detector-side heuristic (`kepler_core::remote`) keys on.
        let remote_home = world
            .asn_to_idx
            .get(&v.far)
            .map(|i| &world.ases[i.0 as usize])
            .filter(|n| n.remote_ixps.contains(&x))
            .map(|n| world.gazetteer.cities()[n.info.home_city.0 as usize].point);
        let p = remote_home.or_else(|| {
            world.colo.ixp(x).map(|i| world.gazetteer.cities()[i.city.0 as usize].point)
        });
        Some((IfaceOwner::IxpLan { asn: v.far, ixp: x }, ixp_lan_addr(v.far, x), p.unwrap_or(here)))
    } else if let Some(f) = v.far_fac.or(v.near_fac) {
        let p = world.colo.facility(f).map(|f| f.point).unwrap_or(here);
        Some((
            IfaceOwner::FacilityPort { asn: v.far, facility: f },
            facility_port_addr(v.far, f),
            p,
        ))
    } else {
        None
    }
}

fn addr_hash(a: IpAddr) -> u64 {
    match a {
        IpAddr::V4(v) => u32::from(v) as u64,
        IpAddr::V6(v) => u128::from(v) as u64,
    }
}

/// The straight-line reference the incremental path is differentially
/// tested against: the pre-index, pre-skeleton body of
/// [`DataplaneSim::traceroute_with`], rebuilding everything from the
/// timeline on every call. Test-only; do not optimise it.
#[cfg(test)]
impl DataplaneSim<'_> {
    fn active_events_reference(&self, t: u64, pair: ProbePair) -> Vec<u32> {
        let mut active = Vec::new();
        for (i, ev) in self.timeline.iter().enumerate() {
            if !ev.kind.affects_routes() {
                continue;
            }
            let extra = restoration_tail(self.seed, i, pair);
            if t >= ev.start && t < ev.end().saturating_add(extra) {
                active.push(i as u32);
            }
        }
        active
    }

    fn traceroute_reference(&self, pair: ProbePair, t: u64) -> TraceroutePath {
        let world: &World = &self.world;
        let failed = self.failed_from(&self.active_events_reference(t, pair));
        let instances = failed.active_instances(world);
        let tree = compute_tree(world, &instances, world.origin_of(pair.dst));
        let is_v6 = world.prefix(pair.dst).is_ipv6();
        let route = route_hops(&tree, &instances, pair.src);
        let snap = route.map(|hops| crate::routing::snapshot_of(world, pair.src, hops, is_v6));
        let Some(snap) = snap else {
            return TraceroutePath { pair, time: t, hops: Vec::new(), reached: false };
        };
        let mut hops = Vec::new();
        let src_city = world.ases[pair.src.0 as usize].info.home_city;
        let mut here: GeoPoint = world.gazetteer.cities()[src_city.0 as usize].point;
        let mut rtt = 0.5; // first-hop base
        let mut ttl = 0usize;
        let mut reached = true;
        for v in &snap.visits {
            let Some((owner, addr, point)) = responding_iface(world, v, here) else {
                continue;
            };
            ttl += 1;
            if ttl > self.config.max_ttl {
                reached = false;
                break;
            }
            let km = here.distance_km(&point);
            rtt += km * 0.01 * 2.0 + 0.3 + self.config.extra_hop_latency_ms;
            if let IfaceOwner::FacilityPort { facility, .. } = owner {
                let surge: f64 = self
                    .timeline
                    .iter()
                    .filter(|ev| t >= ev.start && t < ev.end())
                    .filter_map(|ev| match ev.kind {
                        EventKind::LatencySurge { facility: f, extra_ms } if f == facility => {
                            Some(extra_ms)
                        }
                        _ => None,
                    })
                    .sum();
                rtt += surge;
            }
            let jitter = (splitmix(self.seed ^ addr_hash(addr) ^ (t / 60)) % 100) as f64 / 100.0;
            rtt += jitter * self.config.jitter_ms;
            here = point;
            if self.config.hop_loss > 0.0 {
                let roll = splitmix(self.seed ^ addr_hash(addr) ^ t ^ (ttl as u64) << 48);
                if ((roll % 10_000) as f64) < self.config.hop_loss * 10_000.0 {
                    continue;
                }
            }
            hops.push(TraceHop { addr, owner, rtt_ms: rtt });
        }
        TraceroutePath { pair, time: t, hops, reached }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    const T0: u64 = 1_400_000_000;

    #[test]
    fn traceroutes_resolve_and_accumulate_rtt() {
        let w = World::generate(WorldConfig::tiny(91));
        let dp = DataplaneSim::new(&w, &[], 1);
        let pairs = default_pairs(&w, 1, 20);
        assert!(!pairs.is_empty());
        let mut reached = 0;
        for tr in dp.campaign(&pairs, T0) {
            if !tr.reached {
                continue;
            }
            reached += 1;
            let mut last = 0.0;
            for h in &tr.hops {
                assert!(h.rtt_ms >= last, "RTT must be monotone");
                last = h.rtt_ms;
            }
        }
        assert!(reached > pairs.len() / 2, "most probes reach");
    }

    #[test]
    fn outage_window_changes_paths_then_recovers() {
        let w = World::generate(WorldConfig::tiny(93));
        let fac = w
            .colo
            .facilities()
            .iter()
            .max_by_key(|f| w.colo.members_of_facility(f.id).len())
            .unwrap()
            .id;
        let ev = ScheduledEvent {
            start: T0 + 1000,
            duration: 600,
            kind: EventKind::FacilityOutage { facility: fac, affected_fraction: 1.0 },
        };
        let timeline = [ev];
        let dp = DataplaneSim::new(&w, &timeline, 2);
        let pairs = default_pairs(&w, 2, 60);
        let before = dp.campaign(&pairs, T0);
        let during = dp.campaign(&pairs, T0 + 1200);
        let long_after = dp.campaign(&pairs, T0 + 1000 + 600 + 11_000);
        let crossing =
            |paths: &[TraceroutePath]| paths.iter().filter(|p| p.crosses_facility(fac)).count();
        let b = crossing(&before);
        let d = crossing(&during);
        let a = crossing(&long_after);
        assert_eq!(d, 0, "no path crosses a dead facility");
        assert!(a >= d, "paths drift back after restoration");
        // If any path crossed it before, recovery should restore some.
        if b > 0 {
            assert!(a > 0, "recovery restores crossings ({b} before, {a} after)");
        }
    }

    #[test]
    fn dataplane_recovery_is_gradual() {
        let w = World::generate(WorldConfig::tiny(95));
        let fac = w
            .colo
            .facilities()
            .iter()
            .max_by_key(|f| w.colo.members_of_facility(f.id).len())
            .unwrap()
            .id;
        let ev = ScheduledEvent {
            start: T0,
            duration: 600,
            kind: EventKind::FacilityOutage { facility: fac, affected_fraction: 1.0 },
        };
        let dp = DataplaneSim::new(&w, std::slice::from_ref(&ev), 3);
        // For a fixed pair, failed_at transitions from failed to clean at
        // start+duration+extra, with extra bounded by 3 hours.
        let pair = ProbePair { src: AsIdx(0), dst: PrefixIdx(0) };
        assert!(!dp.failed_at(T0 + 1, pair).is_empty());
        assert!(dp.failed_at(T0 + 600 + 3 * 3600 + 7200 + 1, pair).is_empty());
    }

    #[test]
    fn determinism() {
        let w = World::generate(WorldConfig::tiny(97));
        let dp = DataplaneSim::new(&w, &[], 9);
        let pairs = default_pairs(&w, 9, 10);
        assert_eq!(dp.campaign(&pairs, T0), dp.campaign(&pairs, T0));
    }

    #[test]
    fn tree_cache_is_exact_and_shares_trees() {
        // Cached and per-trace campaigns must be bit-identical, across the
        // quiet baseline, the outage window and the ragged recovery tail
        // (where per-pair failure states differ).
        let w = World::generate(WorldConfig::tiny(93));
        let fac = w
            .colo
            .facilities()
            .iter()
            .max_by_key(|f| w.colo.members_of_facility(f.id).len())
            .unwrap()
            .id;
        let ev = ScheduledEvent {
            start: T0 + 1000,
            duration: 600,
            kind: EventKind::FacilityOutage { facility: fac, affected_fraction: 1.0 },
        };
        let timeline = [ev];
        let dp = DataplaneSim::new(&w, &timeline, 2);
        let pairs = default_pairs(&w, 2, 60);
        let mut cache = TreeCache::new();
        for t in [T0, T0 + 1200, T0 + 1000 + 600 + 1800, T0 + 1000 + 600 + 11_000] {
            let uncached: Vec<TraceroutePath> =
                pairs.iter().map(|&p| dp.traceroute(p, t)).collect();
            let cached: Vec<TraceroutePath> =
                pairs.iter().map(|&p| dp.traceroute_with(&mut cache, p, t)).collect();
            assert_eq!(uncached, cached, "cache must not change results at t={t}");
        }
        let (hits, misses) = cache.stats();
        assert!(hits > 0, "campaigns over shared origins must hit the cache");
        assert!(
            misses < 4 * pairs.len() as u64,
            "one tree per (origin, failure-state), not per trace: {misses} misses"
        );
        assert_eq!(cache.len() as u64, misses, "every miss retains its tree");
    }

    #[test]
    fn hop_loss_thins_traces_without_breaking_reachability() {
        let w = World::generate(WorldConfig::tiny(91));
        let clean = DataplaneSim::new(&w, &[], 5);
        let pairs = default_pairs(&w, 5, 40);
        let lossy = DataplaneSim::new(&w, &[], 5)
            .with_config(DataplaneConfig { hop_loss: 0.5, ..DataplaneConfig::default() });
        let full: usize = clean.campaign(&pairs, T0).iter().map(|p| p.hops.len()).sum();
        let lossy_paths = lossy.campaign(&pairs, T0);
        let thinned: usize = lossy_paths.iter().map(|p| p.hops.len()).sum();
        assert!(thinned < full, "50% hop loss must drop responses ({thinned} vs {full})");
        // Loss hits hop visibility, not reachability.
        let clean_reached = clean.campaign(&pairs, T0).iter().filter(|p| p.reached).count();
        let lossy_reached = lossy_paths.iter().filter(|p| p.reached).count();
        assert_eq!(clean_reached, lossy_reached);
    }

    #[test]
    fn latency_config_and_ttl_budget_apply() {
        let w = World::generate(WorldConfig::tiny(91));
        let pairs = default_pairs(&w, 5, 20);
        let slow = DataplaneSim::new(&w, &[], 5).with_config(DataplaneConfig {
            extra_hop_latency_ms: 50.0,
            ..DataplaneConfig::default()
        });
        let fast = DataplaneSim::new(&w, &[], 5);
        for (s, f) in slow.campaign(&pairs, T0).iter().zip(fast.campaign(&pairs, T0).iter()) {
            if let (Some(rs), Some(rf)) = (s.rtt_ms(), f.rtt_ms()) {
                assert!(rs > rf, "extra latency accumulates");
            }
        }
        // A 1-hop TTL budget truncates multi-hop paths unreached.
        let strangled = DataplaneSim::new(&w, &[], 5)
            .with_config(DataplaneConfig { max_ttl: 1, ..DataplaneConfig::default() });
        let reached = strangled.campaign(&pairs, T0).iter().filter(|p| p.reached).count();
        let baseline = fast.campaign(&pairs, T0).iter().filter(|p| p.reached).count();
        assert!(reached < baseline, "ttl budget must strand long paths");
    }

    #[test]
    fn latency_surge_raises_rtts_without_changing_paths() {
        let w = World::generate(WorldConfig::tiny(93));
        let fac = w
            .colo
            .facilities()
            .iter()
            .max_by_key(|f| w.colo.members_of_facility(f.id).len())
            .unwrap()
            .id;
        let ev = ScheduledEvent {
            start: T0 + 1000,
            duration: 600,
            kind: EventKind::LatencySurge { facility: fac, extra_ms: 80.0 },
        };
        let timeline = [ev];
        let dp = DataplaneSim::new(&w, &timeline, 4);
        let pairs = default_pairs(&w, 4, 60);
        let before = dp.campaign(&pairs, T0 + 900);
        // Jitter differs by at most jitter_ms per hop between instants,
        // far below the 80 ms surge the assertions key on.
        let during = dp.campaign(&pairs, T0 + 900 + 300);
        let mut surged = 0;
        for (b, d) in before.iter().zip(during.iter()) {
            assert_eq!(b.reached, d.reached, "a surge never breaks reachability");
            assert_eq!(
                b.hops.iter().map(|h| h.addr).collect::<Vec<_>>(),
                d.hops.iter().map(|h| h.addr).collect::<Vec<_>>(),
                "a surge never moves a path"
            );
            if b.crosses_facility(fac) {
                let (rb, rd) = (b.rtt_ms().unwrap(), d.rtt_ms().unwrap());
                assert!(rd >= rb + 79.0, "crossing paths surge (before {rb}, during {rd})");
                surged += 1;
            }
        }
        assert!(surged > 0, "some default pair must cross the busiest facility");
        // Outside the window the surge is gone.
        let after = dp.campaign(&pairs, T0 + 900 + 900);
        for (b, a) in before.iter().zip(after.iter()) {
            if let (Some(rb), Some(ra)) = (b.rtt_ms(), a.rtt_ms()) {
                assert!((ra - rb).abs() < 5.0, "queue drains when the event ends");
            }
        }
    }

    #[test]
    fn pair_between_answers_by_asn() {
        let w = World::generate(WorldConfig::tiny(93));
        let dp = DataplaneSim::new(&w, &[], 7);
        let src = w.ases.iter().find(|a| w.v4_prefix_of(w.asn_to_idx[&a.asn]).is_some()).unwrap();
        let dst =
            w.ases.iter().rev().find(|a| w.v4_prefix_of(w.asn_to_idx[&a.asn]).is_some()).unwrap();
        let pair = dp.pair_between(src.asn, dst.asn).expect("both originate v4");
        assert_eq!(pair.src, w.asn_to_idx[&src.asn]);
        assert_eq!(dp.pair_between(Asn(999_999), dst.asn), None, "unknown vantage");
    }

    // ---- the incremental path against the straight-line reference ----

    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn shared_world() -> &'static World {
        static WORLD: OnceLock<World> = OnceLock::new();
        WORLD.get_or_init(|| World::generate(WorldConfig::tiny(93)))
    }

    /// Whole-path equality, f64 *bits* included (`==` alone would let
    /// `-0.0` pass for `0.0`).
    fn assert_identical(got: &TraceroutePath, want: &TraceroutePath, what: &str) {
        assert_eq!(got, want, "{what}");
        let bits =
            |p: &TraceroutePath| p.hops.iter().map(|h| h.rtt_ms.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}: RTT bits");
    }

    /// (kind selector, start offset, duration, affected fraction, pick).
    type EventSpec = (u8, u64, u64, f64, u32);

    /// The ports and LAN interfaces the measured pairs answer from on a
    /// quiet day: events staged there actually move the measured paths,
    /// so a stale window or a wrong skeleton shows in the trace.
    #[derive(Default)]
    struct Crossed {
        ports: Vec<(Asn, FacilityId)>,
        lans: Vec<(Asn, IxpId)>,
    }

    fn crossed_by(w: &World, seed: u64, pairs: &[ProbePair]) -> Crossed {
        let mut crossed = Crossed::default();
        for tr in DataplaneSim::new(w, &[], seed).campaign(pairs, T0) {
            for hop in tr.hops {
                match hop.owner {
                    IfaceOwner::FacilityPort { asn, facility } => {
                        crossed.ports.push((asn, facility))
                    }
                    IfaceOwner::IxpLan { asn, ixp } => crossed.lans.push((asn, ixp)),
                }
            }
        }
        crossed
    }

    /// Two events in three hit infrastructure on the measured paths; the
    /// rest land anywhere in the world.
    fn event_from(
        w: &World,
        crossed: &Crossed,
        (kind, start_off, duration, fraction, pick): EventSpec,
    ) -> ScheduledEvent {
        let pick = pick as usize;
        let on_path = !pick.is_multiple_of(3);
        let facs = w.colo.facilities();
        let ixps = w.colo.ixps();
        let (port_asn, facility) = match crossed.ports.as_slice() {
            on if on_path && !on.is_empty() => on[pick % on.len()],
            _ => (Asn(1), facs[pick % facs.len()].id),
        };
        let (lan_asn, ixp) = match crossed.lans.as_slice() {
            on if on_path && !on.is_empty() => on[pick % on.len()],
            _ => (Asn(1), ixps[pick % ixps.len()].id),
        };
        let kind = match kind % 10 {
            0 => EventKind::FacilityOutage { facility, affected_fraction: 1.0 },
            1 => EventKind::FacilityOutage { facility, affected_fraction: fraction },
            2 => EventKind::IxpOutage { ixp, affected_fraction: 1.0 },
            3 => EventKind::IxpOutage { ixp, affected_fraction: fraction },
            4 => {
                let adj = &w.adjacencies[pick % w.adjacencies.len()];
                EventKind::Depeering {
                    a: w.ases[adj.a.0 as usize].asn,
                    b: w.ases[adj.b.0 as usize].asn,
                }
            }
            5 => EventKind::IxpMemberLeave { asn: lan_asn, ixp },
            6 => EventKind::OperatorWithdraw {
                asns: std::iter::once(port_asn)
                    .chain(w.colo.members_of_facility(facility).iter().copied().take(2))
                    .collect(),
                facility,
            },
            7 => EventKind::FiberCut { facility, affected_fraction: fraction },
            8 => EventKind::LatencySurge { facility, extra_ms: 10.0 + fraction * 70.0 },
            _ => EventKind::CollectorFlap { peer_slot: pick % 4 },
        };
        ScheduledEvent { start: T0 + start_off, duration, kind }
    }

    fn arb_timeline() -> impl Strategy<Value = Vec<EventSpec>> {
        // Starts within ~5.5 h and durations up to ~4 h: windows and
        // three-hour restoration tails overlap more often than not.
        prop::collection::vec(
            (0u8..10, 0u64..20_000, 0u64..15_000, 0.2f64..1.0, any::<u32>()),
            1..7,
        )
    }

    /// Every instant at which `pair`'s active set can change — each
    /// event's start, end, its own restoration cut-off and the longest
    /// possible one — ±1, ascending, plus the ends of the clock.
    fn edge_instants(timeline: &[ScheduledEvent], seed: u64, pair: ProbePair) -> Vec<u64> {
        let mut out = vec![0, 1, T0, u64::MAX - 1, u64::MAX];
        for (i, ev) in timeline.iter().enumerate() {
            let cutoff = ev.end() + restoration_tail(seed, i, pair);
            for e in [ev.start, ev.end(), cutoff, ev.end() + MAX_TAIL_SECS] {
                out.extend([e - 1, e, e + 1]);
            }
        }
        out.sort_unstable();
        out
    }

    const CONFIGS: [DataplaneConfig; 3] = [
        DataplaneConfig { hop_loss: 0.0, extra_hop_latency_ms: 0.0, jitter_ms: 0.4, max_ttl: 30 },
        DataplaneConfig { hop_loss: 0.3, extra_hop_latency_ms: 1.5, jitter_ms: 0.9, max_ttl: 30 },
        // A TTL budget smaller than most paths.
        DataplaneConfig { hop_loss: 0.1, extra_hop_latency_ms: 0.0, jitter_ms: 0.4, max_ttl: 2 },
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(36))]

        /// The incremental path (epoch index → window → skeleton → replay)
        /// returns exactly what the straight-line reference does: random
        /// multi-event timelines staged on the measured paths, every edge
        /// instant ±1 swept upwards per pair (a window set one second
        /// early must not cover the next) and again in non-monotone order
        /// with random instants mixed in, panel-style advancing sweeps,
        /// loss, a strangling TTL budget, and caches so small they evict
        /// mid-sequence — through the cache's own windows and through
        /// caller-held ones. ≥ 150 whole-path comparisons per case.
        #[test]
        fn incremental_path_matches_the_reference(
            specs in arb_timeline(),
            seed in any::<u64>(),
            config in 0usize..3,
            caps in prop::sample::select(vec![(TREE_CACHE_CAP, SKELETON_CACHE_CAP), (2, 3), (1, 1), (3, 64)]),
            random_ts in prop::collection::vec(0u64..40_000, 20),
            shuffle in any::<u64>(),
        ) {
            let w = shared_world();
            let pairs: Vec<ProbePair> = default_pairs(w, seed, 12).into_iter().take(5).collect();
            prop_assert!(pairs.len() >= 3);
            let crossed = crossed_by(w, seed, &pairs);
            let timeline: Vec<ScheduledEvent> =
                specs.iter().map(|&s| event_from(w, &crossed, s)).collect();
            let sim = DataplaneSim::new(w, &timeline, seed).with_config(CONFIGS[config]);

            let mut queries: Vec<(ProbePair, u64)> = Vec::new();
            for &p in &pairs {
                queries.extend(edge_instants(&timeline, seed, p).into_iter().map(|t| (p, t)));
            }
            // The same again, non-monotone and interleaved across pairs:
            // ordered by a keyed hash of the position.
            let mut keyed: Vec<(u64, (ProbePair, u64))> = queries
                .iter()
                .copied()
                .chain(random_ts.iter().enumerate().map(|(i, off)| (pairs[i % pairs.len()], T0 - 5_000 + off)))
                .enumerate()
                .map(|(i, q)| (splitmix(shuffle ^ i as u64), q))
                .collect();
            keyed.sort_by_key(|(k, _)| *k);
            queries.extend(keyed.into_iter().map(|(_, q)| q));
            // Then a panel: every pair re-traced at an advancing clock,
            // the shape the window fast path exists for.
            for step in 0..12u64 {
                queries.extend(pairs.iter().map(|&p| (p, T0 - 500 + step * 2_111)));
            }

            let mut cache = TreeCache::with_caps(caps.0, caps.1);
            // `traceroute_into` rides along on its own cache with ONE hop
            // buffer shared across pairs and instants, dirty from the
            // start: whatever the previous trace left must never show.
            // Caller-held windows (one per pair, as a panel keeps them)
            // trace through the same cache into a second dirty buffer, so
            // each form's evictions must invalidate the other's windows.
            let mut into_cache = TreeCache::with_caps(caps.0, caps.1);
            let mut held: Vec<PairWindow> = pairs.iter().map(|&p| PairWindow::new(p)).collect();
            let stale = TraceHop {
                addr: IpAddr::V4(Ipv4Addr::new(203, 0, 113, 7)),
                owner: IfaceOwner::IxpLan { asn: Asn(64_999), ixp: IxpId(u32::MAX) },
                rtt_ms: f64::NAN,
            };
            let mut buf = vec![stale; 40];
            let mut held_buf = vec![stale; 40];
            for &(pair, t) in &queries {
                let want = sim.traceroute_reference(pair, t);
                let got = sim.traceroute_with(&mut cache, pair, t);
                assert_identical(&got, &want, &format!("pair {pair:?} t {t} timeline {timeline:?}"));
                let reached = sim.traceroute_into(&mut into_cache, pair, t, &mut buf);
                let into = TraceroutePath { pair, time: t, hops: buf.clone(), reached };
                assert_identical(&into, &want, &format!("into: pair {pair:?} t {t} timeline {timeline:?}"));
                let window = held.iter_mut().find(|w| w.pair == pair).expect("a panel pair");
                let reached = sim.traceroute_windowed(&mut into_cache, window, t, &mut held_buf);
                let windowed = TraceroutePath { pair, time: t, hops: held_buf.clone(), reached };
                assert_identical(&windowed, &want, &format!("held: pair {pair:?} t {t} timeline {timeline:?}"));
                prop_assert!(window.covers(t, &into_cache));
                // The window left behind covers `t` and holds one active
                // set from end to end.
                let window = cache.windows[&pair];
                prop_assert!(window.from <= t && t <= window.last);
                let active = sim.active_events_reference(t, pair);
                prop_assert_eq!(&sim.active_events_reference(window.from, pair), &active);
                prop_assert_eq!(&sim.active_events_reference(window.last, pair), &active);
                prop_assert!(cache.trees.len() <= cache.tree_cap.max(1));
                prop_assert!(cache.skeletons.len() <= cache.skeleton_cap.max(1));
            }
            prop_assert!(queries.len() >= 150, "{} comparisons", queries.len());
            if caps.1 <= 3 {
                prop_assert!(cache.skeletons.len() < pairs.len(), "tiny caps must have evicted");
                prop_assert!(into_cache.evictions() > 0, "held windows must have outlived an eviction");
            }
            // The public failure-state accessor rides the same index.
            for &(pair, t) in queries.iter().step_by(7) {
                let want = sim.failed_from(&sim.active_events_reference(t, pair));
                prop_assert_eq!(sim.failed_at(t, pair), want);
            }
        }
    }

    #[test]
    fn one_dirty_buffer_carries_nothing_across_traces() {
        // reached → unreachable → reached on one pair, another pair in
        // between, then a TTL-truncated trace — all through one buffer.
        let w = shared_world();
        let quiet = DataplaneSim::new(w, &[], 9);
        let pairs = default_pairs(w, 9, 12);
        // A full outage of some building on a measured path that cuts the
        // pair off entirely (no detour survives).
        let (pair, fac) = pairs
            .iter()
            .flat_map(|&p| {
                let hops = quiet.traceroute(p, T0).hops;
                hops.into_iter().filter_map(move |h| match h.owner {
                    IfaceOwner::FacilityPort { facility, .. } => Some((p, facility)),
                    IfaceOwner::IxpLan { .. } => None,
                })
            })
            .find(|&(p, facility)| {
                let kind = EventKind::FacilityOutage { facility, affected_fraction: 1.0 };
                let tl = [ScheduledEvent { start: T0, duration: 600, kind }];
                !DataplaneSim::new(w, &tl, 9).traceroute_reference(p, T0 + 1).reached
            })
            .expect("some measured pair has a building it cannot route around");
        let other = *pairs.iter().find(|&&p| p != pair).unwrap();
        let timeline = [ScheduledEvent {
            start: T0,
            duration: 600,
            kind: EventKind::FacilityOutage { facility: fac, affected_fraction: 1.0 },
        }];
        let sim = DataplaneSim::new(w, &timeline, 9);
        let mut cache = TreeCache::new();
        let mut buf = Vec::new();
        let mut seen = Vec::new();
        let after = T0 + 600 + MAX_TAIL_SECS;
        for (p, t) in
            [(pair, T0 - 60), (pair, T0 + 1), (other, T0 + 1), (pair, T0 + 2), (pair, after)]
        {
            let want = sim.traceroute_reference(p, t);
            let reached = sim.traceroute_into(&mut cache, p, t, &mut buf);
            let got = TraceroutePath { pair: p, time: t, hops: buf.clone(), reached };
            assert_identical(&got, &want, &format!("pair {p:?} t {t}"));
            seen.push((reached, buf.len()));
        }
        assert!(seen[0].0 && seen[0].1 > 0, "{seen:?}");
        assert_eq!((seen[1], seen[3]), ((false, 0), (false, 0)), "no stale hop, no stale verdict");
        assert!(seen[4].0 && seen[4].1 > 0, "{seen:?}");
        // A TTL budget of one: the first hop answers, the trace does not.
        let strangled = DataplaneSim::new(w, &timeline, 9)
            .with_config(DataplaneConfig { max_ttl: 1, ..DataplaneConfig::default() });
        let reached = strangled.traceroute_into(&mut TreeCache::new(), pair, after, &mut buf);
        assert!(!reached && buf.len() == 1 && seen[4].1 > 1, "{seen:?} then {buf:?}");
        assert_eq!(buf, strangled.traceroute_reference(pair, after).hops);
    }

    #[test]
    fn window_never_outlives_its_active_set() {
        // The window `active_at` reports may stop short of the full run of
        // instants sharing the active set (an epoch edge is any pair's
        // edge) but must never be wider: walk a dense clock and check
        // both ends against the reference.
        let w = shared_world();
        let fac = w.colo.facilities()[0].id;
        let timeline = vec![
            ScheduledEvent {
                start: T0 + 100,
                duration: 50,
                kind: EventKind::FacilityOutage { facility: fac, affected_fraction: 1.0 },
            },
            ScheduledEvent {
                start: T0 + 120,
                duration: 4_000,
                kind: EventKind::IxpOutage { ixp: w.colo.ixps()[0].id, affected_fraction: 0.5 },
            },
        ];
        let sim = DataplaneSim::new(w, &timeline, 77);
        let mut active = Vec::new();
        let mut widest = 0;
        for pair in default_pairs(w, 77, 6) {
            for t in (T0..T0 + 16_000).step_by(97).chain([0, u64::MAX]) {
                let (from, last) = sim.epochs.active_at(sim.seed, t, pair, &mut active);
                assert!(from <= t && t <= last);
                assert_eq!(active, sim.active_events_reference(t, pair));
                assert_eq!(active, sim.active_events_reference(from, pair), "window start");
                assert_eq!(active, sim.active_events_reference(last, pair), "window end");
                if last < u64::MAX {
                    widest = widest.max(last - from);
                }
            }
        }
        assert!(widest > 3_000, "the outage's own window is one range check, not many");
    }

    #[test]
    fn events_at_the_top_of_the_clock_saturate_instead_of_wrapping() {
        // A hand-written timeline with `start + duration` (and the
        // restoration tail on top) past u64::MAX: no panic in debug, no
        // wrap in release — the event simply never ends.
        let w = shared_world();
        let fac = w.colo.facilities()[0].id;
        let outage = |start, duration| ScheduledEvent {
            start,
            duration,
            kind: EventKind::FacilityOutage { facility: fac, affected_fraction: 1.0 },
        };
        let timeline = vec![
            outage(u64::MAX - 1, u64::MAX),
            outage(T0, u64::MAX),
            outage(u64::MAX - 5_000, 10),
            ScheduledEvent {
                start: u64::MAX - 1,
                duration: u64::MAX,
                kind: EventKind::LatencySurge { facility: fac, extra_ms: 40.0 },
            },
        ];
        assert_eq!(timeline[0].end(), u64::MAX);
        let sim = DataplaneSim::new(w, &timeline, 5);
        let pair = default_pairs(w, 5, 4)[0];
        assert!(sim.failed_at(T0 - 1, pair).is_empty(), "nothing has started yet");
        let mut cache = TreeCache::new();
        for t in [T0, T0 + (1 << 40), u64::MAX - 5_001, u64::MAX - 4_000, u64::MAX - 1, u64::MAX] {
            if t < u64::MAX {
                assert!(!sim.failed_at(t, pair).is_empty(), "the outage never ends (t={t})");
            }
            let got = sim.traceroute_with(&mut cache, pair, t);
            assert_identical(&got, &sim.traceroute_reference(pair, t), &format!("t={t}"));
        }
    }
}
