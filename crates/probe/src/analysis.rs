//! Path analysis: pre/post-event hop diffing and facility verdicts.
//!
//! For each candidate facility the engine measures pairs of traces — a
//! pre-event baseline (from archives in a deployment, from the simulator
//! here) and a fresh post-event trace — and this module decides what the
//! data plane says about the building:
//!
//! * **Confirmed** — the baseline paths through the candidate are gone
//!   (detoured around it or unreachable): the building is dark.
//! * **Refuted** — the baseline paths still cross the candidate: whatever
//!   the control plane saw, this building is forwarding.
//! * **Inconclusive** — too few baseline paths crossed the candidate, or
//!   the still-crossing fraction sits between the thresholds.
//!
//! Every judged pair leaves a [`HopEvidence`] row naming the baseline hop
//! inside the candidate and what happened to it post-event, so reports
//! can carry hop-level justification.

use crate::trace::{facility_hop, Trace, TraceHop};
use kepler_bgp::Asn;
use kepler_topology::FacilityId;

/// The data plane's verdict on one candidate facility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FacilityVerdict {
    /// Baseline paths through the facility are gone: outage confirmed.
    Confirmed,
    /// Baseline paths still cross the facility: suspicion refuted.
    Refuted,
    /// Not enough evidence either way.
    Inconclusive,
}

/// What became of one baseline path after the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostState {
    /// The post-event trace still crosses the candidate at this hop index.
    StillCrossing {
        /// Hop index in the post-event trace.
        hop: u32,
    },
    /// The destination still answers but the path avoids the candidate.
    Detoured,
    /// The destination no longer answers at all.
    Unreachable,
}

/// One judged measurement pair: hop-level evidence for a verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopEvidence {
    /// Probe host AS.
    pub vantage: Asn,
    /// Destination AS.
    pub target: Asn,
    /// The candidate facility being judged.
    pub facility: FacilityId,
    /// Hop index of the candidate crossing in the pre-event baseline.
    pub pre_hop: u32,
    /// What the post-event trace showed.
    pub post: PostState,
}

/// Structural diff of two hop sequences.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HopDiff {
    /// Hops shared from the start (paths usually agree near the vantage).
    pub common_prefix: usize,
    /// Interfaces present pre but absent post (what the event removed).
    pub lost: Vec<TraceHop>,
    /// Interfaces present post but absent pre (the detour).
    pub gained: Vec<TraceHop>,
}

/// Diffs two hop sequences by interface address.
pub fn hop_diff(pre: &[TraceHop], post: &[TraceHop]) -> HopDiff {
    let common_prefix = pre.iter().zip(post.iter()).take_while(|(a, b)| a.addr == b.addr).count();
    let lost = pre.iter().filter(|h| !post.iter().any(|g| g.addr == h.addr)).copied().collect();
    let gained = post.iter().filter(|h| !pre.iter().any(|g| g.addr == h.addr)).copied().collect();
    HopDiff { common_prefix, lost, gained }
}

/// One measured (vantage, target) pair with both phases.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredPair {
    /// Probe host AS.
    pub vantage: Asn,
    /// Destination AS.
    pub target: Asn,
    /// Pre-event baseline trace (archived in a deployment).
    pub pre: Trace,
    /// Fresh post-event trace.
    pub post: Trace,
}

/// The verdict thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathAnalyzer {
    /// Still-crossing fraction strictly below which the candidate is
    /// confirmed down.
    pub confirm_below: f64,
    /// Still-crossing fraction at or above which the suspicion is
    /// refuted.
    pub refute_at: f64,
    /// Minimum baseline paths crossing the candidate for any verdict.
    pub min_baseline: usize,
    /// Minimum [`PostState::Detoured`] pairs required to confirm. A
    /// destination that has gone *unreachable* indicts every facility its
    /// baseline crossed — only a path that still answers while steering
    /// around the candidate discriminates between colocated buildings.
    pub min_detours: usize,
}

impl Default for PathAnalyzer {
    fn default() -> Self {
        PathAnalyzer { confirm_below: 0.25, refute_at: 0.6, min_baseline: 2, min_detours: 1 }
    }
}

impl PathAnalyzer {
    /// Judges one candidate facility from measured pairs. Pairs whose
    /// baseline never reached the destination, or never crossed the
    /// candidate, contribute nothing (missing baseline ⇒ no evidence);
    /// with fewer than `min_baseline` usable pairs the verdict is
    /// [`FacilityVerdict::Inconclusive`].
    pub fn judge(
        &self,
        facility: FacilityId,
        pairs: &[MeasuredPair],
    ) -> (FacilityVerdict, Vec<HopEvidence>) {
        let mut evidence = Vec::new();
        let mut baseline = 0usize;
        let mut still = 0usize;
        let mut detoured = 0usize;
        for p in pairs {
            if !p.pre.reached {
                continue; // no pre-event baseline for this pair
            }
            let Some(pre_hop) = facility_hop(&p.pre.hops, facility) else {
                continue; // baseline never crossed the candidate
            };
            baseline += 1;
            let post = if !p.post.reached {
                PostState::Unreachable
            } else {
                match facility_hop(&p.post.hops, facility) {
                    Some(hop) => {
                        still += 1;
                        PostState::StillCrossing { hop: hop as u32 }
                    }
                    None => {
                        detoured += 1;
                        PostState::Detoured
                    }
                }
            };
            evidence.push(HopEvidence {
                vantage: p.vantage,
                target: p.target,
                facility,
                pre_hop: pre_hop as u32,
                post,
            });
        }
        if baseline < self.min_baseline {
            return (FacilityVerdict::Inconclusive, evidence);
        }
        let frac = still as f64 / baseline as f64;
        let verdict = if frac < self.confirm_below && detoured >= self.min_detours {
            FacilityVerdict::Confirmed
        } else if frac >= self.refute_at {
            FacilityVerdict::Refuted
        } else {
            FacilityVerdict::Inconclusive
        };
        (verdict, evidence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::IfaceOwner;
    use std::net::{IpAddr, Ipv4Addr};

    fn hop(octet: u8, fac: u32) -> TraceHop {
        TraceHop {
            addr: IpAddr::V4(Ipv4Addr::new(11, 0, fac as u8, octet)),
            owner: IfaceOwner::FacilityPort {
                asn: Asn(50 + octet as u32),
                facility: FacilityId(fac),
            },
            rtt_ms: octet as f64,
        }
    }

    fn trace(facs: &[u32]) -> Trace {
        Trace {
            hops: facs.iter().enumerate().map(|(i, &f)| hop(i as u8 + 1, f)).collect(),
            reached: true,
        }
    }

    fn pair(i: u32, pre: Trace, post: Trace) -> MeasuredPair {
        MeasuredPair { vantage: Asn(900 + i), target: Asn(800 + i), pre, post }
    }

    #[test]
    fn confirmed_when_baseline_paths_vanish() {
        let a = PathAnalyzer::default();
        let pairs = vec![
            pair(0, trace(&[1, 5, 9]), trace(&[1, 3, 9])), // detoured around 5
            pair(1, trace(&[2, 5, 9]), Trace::unreachable()), // dead
            pair(2, trace(&[2, 9]), trace(&[2, 9])),       // never crossed 5: ignored
        ];
        let (v, ev) = a.judge(FacilityId(5), &pairs);
        assert_eq!(v, FacilityVerdict::Confirmed);
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].post, PostState::Detoured);
        assert_eq!(ev[0].pre_hop, 1);
        assert_eq!(ev[1].post, PostState::Unreachable);
    }

    #[test]
    fn refuted_when_paths_still_cross() {
        let a = PathAnalyzer::default();
        let pairs = vec![
            pair(0, trace(&[1, 5, 9]), trace(&[1, 5, 9])),
            pair(1, trace(&[2, 5]), trace(&[2, 5])),
            pair(2, trace(&[3, 5, 9]), trace(&[3, 9])),
        ];
        let (v, ev) = a.judge(FacilityId(5), &pairs);
        assert_eq!(v, FacilityVerdict::Refuted, "2/3 still crossing");
        assert!(matches!(ev[0].post, PostState::StillCrossing { hop: 1 }));
    }

    #[test]
    fn missing_baseline_is_inconclusive() {
        let a = PathAnalyzer::default();
        // Pre-event traces that never reached: no baseline at all.
        let pairs = vec![
            pair(0, Trace::unreachable(), trace(&[1, 5])),
            pair(1, Trace::unreachable(), Trace::unreachable()),
        ];
        let (v, ev) = a.judge(FacilityId(5), &pairs);
        assert_eq!(v, FacilityVerdict::Inconclusive);
        assert!(ev.is_empty());
        // Empty pair list, same story.
        assert_eq!(a.judge(FacilityId(5), &[]).0, FacilityVerdict::Inconclusive);
        // One usable baseline is below min_baseline = 2.
        let pairs = vec![pair(0, trace(&[5]), trace(&[]))];
        assert_eq!(a.judge(FacilityId(5), &pairs).0, FacilityVerdict::Inconclusive);
    }

    #[test]
    fn bare_unreachability_cannot_confirm() {
        // Every baseline path died — that indicts every facility those
        // paths crossed, so without a single discriminating detour the
        // verdict must stay inconclusive.
        let a = PathAnalyzer::default();
        let pairs = vec![
            pair(0, trace(&[1, 5, 9]), Trace::unreachable()),
            pair(1, trace(&[2, 5, 9]), Trace::unreachable()),
            pair(2, trace(&[3, 5]), Trace::unreachable()),
        ];
        assert_eq!(a.judge(FacilityId(5), &pairs).0, FacilityVerdict::Inconclusive);
        // One surviving detour tips it to confirmed.
        let mut with_detour = pairs;
        with_detour.push(pair(3, trace(&[4, 5, 9]), trace(&[4, 9])));
        assert_eq!(a.judge(FacilityId(5), &with_detour).0, FacilityVerdict::Confirmed);
    }

    #[test]
    fn empty_traces_and_loops_are_handled() {
        let a = PathAnalyzer { min_baseline: 1, ..PathAnalyzer::default() };
        // Empty (but "reached") pre trace: no crossing, no evidence.
        let empty_pre = vec![pair(0, Trace { hops: vec![], reached: true }, trace(&[5]))];
        assert_eq!(a.judge(FacilityId(5), &empty_pre).0, FacilityVerdict::Inconclusive);
        // A looping post trace that revisits the candidate still counts
        // as crossing (the facility answered).
        let looping_post = Trace { hops: vec![hop(1, 5), hop(2, 6), hop(1, 5)], reached: true };
        assert!(looping_post.has_loop());
        let pairs = vec![pair(0, trace(&[5, 9]), looping_post)];
        let (v, ev) = a.judge(FacilityId(5), &pairs);
        assert_eq!(v, FacilityVerdict::Refuted);
        assert!(matches!(ev[0].post, PostState::StillCrossing { hop: 0 }));
    }

    #[test]
    fn hop_diff_edges() {
        let d = hop_diff(&[], &[]);
        assert_eq!(d, HopDiff::default());
        let pre = trace(&[1, 5, 9]).hops;
        let post = trace(&[1, 3, 9]).hops;
        let d = hop_diff(&pre, &post);
        assert_eq!(d.common_prefix, 1);
        assert_eq!(d.lost.len(), 1);
        assert_eq!(d.gained.len(), 1);
        assert!(matches!(
            d.lost[0].owner,
            IfaceOwner::FacilityPort { facility: FacilityId(5), .. }
        ));
        // Pre-only: everything lost, nothing gained.
        let d = hop_diff(&pre, &[]);
        assert_eq!((d.common_prefix, d.lost.len(), d.gained.len()), (0, 3, 0));
    }
}
