//! Probe-driven restoration detection.
//!
//! BGP convergence after a repair is slow and ragged: Figure 10a of the
//! paper shows control-plane paths taking ~4 hours to return (and ~5%
//! never returning), while Figure 10b shows ~85% of *data-plane* paths
//! back within an hour. A tracker that waits for the control plane alone
//! therefore over-reports downtime. This module closes the gap: the
//! epicenter of every open incident — an [`OutageScope`], facility-, IXP-
//! or city-scoped, probe-confirmed or passively localized — is
//! **re-probed on an exponential-backoff schedule**, and when baseline
//! paths demonstrably cross it again the incident can be closed long
//! before the BGP watch list recovers. A facility restores when baseline
//! paths cross *it* again, an IXP when they cross its fabric, a city when
//! they cross any facility or fabric located there.
//!
//! The same safety asymmetry as confirmation applies, mirrored:
//!
//! * a **restoration verdict requires crossing evidence** — fresh traces
//!   that traverse the epicenter facility again. Mere reachability of the
//!   targets proves nothing (detours reach them throughout the outage);
//! * probes that cannot reach any target, or that lack a pre-event
//!   baseline through the building, yield [`RestorationVerdict::Inconclusive`]
//!   — never `Restored`;
//! * the tracker in `kepler-core` additionally demands **two consecutive**
//!   `Restored` verdicts before closing, so one lucky trace cannot end a
//!   real outage (see `Tracker::probe_restorations`).
//!
//! Rate limiting reuses the per-facility token buckets of
//! [`ProbeScheduler`](crate::schedule::ProbeScheduler): restoration
//! re-probes and validation campaigns draw from the same budget, so a
//! facility having its worst day is never hammered by both.

use kepler_bgp::Asn;
use kepler_bgpstream::Timestamp;
use kepler_topology::OutageScope;

/// What a restoration re-probe concluded about an incident epicenter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestorationVerdict {
    /// A quorum of baseline paths crosses the facility again: the data
    /// plane has recovered.
    Restored,
    /// Baseline paths still avoid (or die before) the facility: the
    /// building is still dark.
    StillDown,
    /// Too few usable baselines, or the probe budget was exhausted —
    /// never grounds for closing an incident.
    Inconclusive,
}

/// Result of one restoration check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestorationReport {
    /// The verdict.
    pub verdict: RestorationVerdict,
    /// Pairs whose pre-event baseline crossed the epicenter (the
    /// denominator of the quorum).
    pub watched: usize,
    /// Of those, pairs whose fresh trace crosses it again.
    pub crossing: usize,
    /// Fresh probes sent.
    pub probes_sent: usize,
    /// Probes dropped by the per-facility rate limiter.
    pub rate_limited: usize,
}

impl RestorationReport {
    /// An inconclusive report (no probes ran).
    pub fn inconclusive() -> Self {
        RestorationReport {
            verdict: RestorationVerdict::Inconclusive,
            watched: 0,
            crossing: 0,
            probes_sent: 0,
            rate_limited: 0,
        }
    }
}

/// The restoration-checking interface the tracker consumes. Implemented
/// by [`ProbeEngine`](crate::engine::ProbeEngine) over any
/// [`TraceBackend`](crate::engine::TraceBackend); deployments can
/// substitute their own (e.g. a RIPE-Atlas client sharing the engine's
/// credit budget).
pub trait RestorationProber {
    /// Re-probes `epicenter` at `now`. `targets` are the incident's
    /// affected far-end ASes; `incident_start` anchors the pre-event
    /// baseline lookup (traces are archived *before* that instant).
    fn check(
        &mut self,
        epicenter: OutageScope,
        targets: &[Asn],
        incident_start: Timestamp,
        now: Timestamp,
    ) -> RestorationReport;
}

/// Exponential-backoff arithmetic for the re-probe schedule. Pure and
/// clock-free: the tracker stores the current delay per incident and asks
/// for the next one after each unsuccessful check. The default is the
/// tracker's schedule: a first re-probe after **5 min** sees a short
/// outage's data plane recover while BGP still reconverges (Figure 10a
/// vs 10b), and a **1 h** ceiling keeps a long outage from spending probe
/// credits every few minutes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// First re-probe delay after an incident opens (and after a first
    /// `Restored` verdict, so the confirming check comes quickly).
    pub initial_secs: u64,
    /// Ceiling: delays double until they saturate here.
    pub max_secs: u64,
}

impl Backoff {
    /// The schedule's first delay.
    pub fn first(&self) -> u64 {
        self.initial_secs.min(self.max_secs)
    }

    /// The delay following `current`: doubled, clamped to
    /// `[initial_secs, max_secs]` (a zero or corrupt `current` restarts
    /// the schedule).
    pub fn next(&self, current: u64) -> u64 {
        current.max(1).saturating_mul(2).clamp(self.first(), self.max_secs.max(1))
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff { initial_secs: 300, max_secs: 3_600 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_saturates() {
        let b = Backoff { initial_secs: 300, max_secs: 3_600 };
        assert_eq!(b.first(), 300);
        let mut d = b.first();
        let mut seen = Vec::new();
        for _ in 0..6 {
            seen.push(d);
            d = b.next(d);
        }
        assert_eq!(seen, vec![300, 600, 1200, 2400, 3600, 3600]);
    }

    #[test]
    fn backoff_degenerate_inputs() {
        let b = Backoff { initial_secs: 300, max_secs: 3_600 };
        // A corrupt zero restarts at the floor instead of sticking at 0.
        assert_eq!(b.next(0), 300);
        // initial > max: first() respects the ceiling.
        let b = Backoff { initial_secs: 10_000, max_secs: 600 };
        assert_eq!(b.first(), 600);
        assert_eq!(b.next(600), 600);
        // Saturating arithmetic near u64::MAX.
        let b = Backoff { initial_secs: 1, max_secs: u64::MAX };
        assert_eq!(b.next(u64::MAX), u64::MAX);
    }

    #[test]
    fn inconclusive_report_is_empty() {
        let r = RestorationReport::inconclusive();
        assert_eq!(r.verdict, RestorationVerdict::Inconclusive);
        assert_eq!((r.watched, r.crossing, r.probes_sent), (0, 0, 0));
    }
}
