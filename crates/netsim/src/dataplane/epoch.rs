//! The route-epoch index: which route-affecting events a probe pair
//! experiences at an instant, and the window around it on which that
//! answer holds.

use super::ProbePair;
use crate::events::{EventKind, ScheduledEvent};
use kepler_probe::splitmix64 as splitmix;

/// Longest restoration tail plus one: every per-(pair, event) tail drawn
/// by [`restoration_tail`] is strictly below this many seconds.
pub(super) const MAX_TAIL_SECS: u64 = 10_800;

/// How long after `event` is repaired `pair` keeps its detour: the data
/// plane converges faster than BGP but not instantly (85% < 1 h, Figure
/// 10b), deterministically per (pair, event).
pub(super) fn restoration_tail(seed: u64, event: usize, pair: ProbePair) -> u64 {
    let h = splitmix(seed ^ (event as u64) << 40 ^ (pair.src.0 as u64) << 20 ^ pair.dst.0 as u64);
    let frac = (h % 1000) as f64 / 1000.0;
    if frac < 0.85 {
        (frac / 0.85 * 3600.0) as u64
    } else {
        3600 + (((frac - 0.85) / 0.15) * 7200.0) as u64
    }
}

/// Whether an event can change routes. Flaps touch no routes; surges
/// touch none either (they are pure-latency events read off the timeline
/// per hop), so neither may perturb an active set — the cache key.
pub(super) fn affects_routes(kind: &EventKind) -> bool {
    !matches!(kind, EventKind::CollectorFlap { .. } | EventKind::LatencySurge { .. })
}

/// One route-affecting event that may be active somewhere in an epoch.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// Timeline index.
    event: u32,
    /// `None`: the event runs through the whole epoch, active for every
    /// pair. `Some(end)`: it ended at `end`, less than [`MAX_TAIL_SECS`]
    /// before the epoch began — active for the pairs whose restoration
    /// tail has not run out yet.
    ended: Option<u64>,
}

/// The **route-epoch index**: the route-affecting events' `start`, `end`
/// and `end + MAX_TAIL_SECS` instants, sorted, cut the clock into epochs
/// inside which the set of events that *can* be active is fixed. Built
/// once per simulator; a query is a binary search plus a per-pair tail
/// check on the few events that ended within the last three hours.
#[derive(Debug, Default)]
pub(super) struct EpochIndex {
    /// Sorted distinct edges; epoch `k` spans `edges[k] ..= edges[k + 1] - 1`
    /// (the last one runs to the top of the clock). Nothing is active
    /// before `edges[0]`.
    edges: Vec<u64>,
    /// Epoch `k`'s candidates are `candidates[spans[k]..spans[k + 1]]`,
    /// in timeline order.
    spans: Vec<usize>,
    candidates: Vec<Candidate>,
}

impl EpochIndex {
    pub(super) fn build(timeline: &[ScheduledEvent]) -> Self {
        let routed = || timeline.iter().enumerate().filter(|(_, ev)| affects_routes(&ev.kind));
        let mut edges: Vec<u64> = routed()
            .flat_map(|(_, ev)| [ev.start, ev.end(), ev.end().saturating_add(MAX_TAIL_SECS)])
            .collect();
        edges.sort_unstable();
        edges.dedup();
        // Every event boundary is an edge, so an event's standing at an
        // epoch's first instant is its standing throughout the epoch.
        let mut spans = vec![0];
        let mut candidates = Vec::new();
        for &edge in &edges {
            for (i, ev) in routed() {
                if ev.start <= edge && edge < ev.end().saturating_add(MAX_TAIL_SECS) {
                    let ended = (ev.end() <= edge).then(|| ev.end());
                    candidates.push(Candidate { event: i as u32, ended });
                }
            }
            spans.push(candidates.len());
        }
        EpochIndex { edges, spans, candidates }
    }

    /// Writes the indices of the events `pair` experiences at `t` into
    /// `active` (ascending) and returns the inclusive `[from, last]`
    /// window around `t` on which that set is constant for `pair`: the
    /// epoch, narrowed by the pair's own restoration-tail cut-offs, which
    /// the same scan computes.
    pub(super) fn active_at(
        &self,
        seed: u64,
        t: u64,
        pair: ProbePair,
        active: &mut Vec<u32>,
    ) -> (u64, u64) {
        active.clear();
        let k = self.edges.partition_point(|&e| e <= t);
        let mut last = self.edges.get(k).map_or(u64::MAX, |&e| e - 1);
        let Some(epoch) = k.checked_sub(1) else { return (0, last) };
        let mut from = self.edges[epoch];
        for c in &self.candidates[self.spans[epoch]..self.spans[epoch + 1]] {
            let Some(end) = c.ended else {
                active.push(c.event);
                continue;
            };
            let cutoff = end.saturating_add(restoration_tail(seed, c.event as usize, pair));
            if t < cutoff {
                active.push(c.event);
                last = last.min(cutoff - 1);
            } else {
                from = from.max(cutoff);
            }
        }
        (from, last)
    }
}
