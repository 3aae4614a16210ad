//! Evaluation against ground truth (paper §5.3 semantics).
//!
//! * **true positive** — a detected outage matching a real infrastructure
//!   outage at the same facility/IXP and overlapping time;
//! * **false positive** — a detection with no such counterpart, *including*
//!   detections whose location is right but whose ground-truth cause is not
//!   an infrastructure outage (the paper's six fiber-cut cases);
//! * **false negative** — a real outage at a *trackable* PoP with no
//!   matching detection.

use crate::events::{OutageReport, OutageScope};
use kepler_bgpstream::Timestamp;
use kepler_topology::CityId;

/// Ground truth for one event, detector-agnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct TruthOutage {
    /// Stable id for bookkeeping.
    pub id: usize,
    /// Epicenter.
    pub scope: OutageScope,
    /// The epicenter's city, when known: a city-level detection of an
    /// incident in that city counts as correct localization (the paper's
    /// city abstraction).
    pub city: Option<CityId>,
    /// Scopes observationally equivalent to the epicenter: for an IXP
    /// outage, the buildings hosting its fabric (when every visible path
    /// crosses both, control-plane data cannot tell them apart — the
    /// facility/IXP interdependency confusion of the paper's [3, 87]);
    /// for a facility outage, IXPs whose entire fabric sits inside it.
    pub aliases: Vec<OutageScope>,
    /// Start time.
    pub start: Timestamp,
    /// Duration in seconds.
    pub duration: u64,
    /// Whether this is a *real* peering-infrastructure outage. Fiber cuts
    /// and similar look-alikes carry `false`: detecting them at the right
    /// place still counts as a false positive, per the paper.
    pub is_infrastructure: bool,
    /// Whether the PoP is trackable (≥6 locatable members); untrackable
    /// misses are excluded from false negatives.
    pub trackable: bool,
}

impl TruthOutage {
    fn end(&self) -> Timestamp {
        self.start + self.duration
    }

    /// Whether a report at `scope` names this outage: its epicenter, an
    /// alias, or — the city abstraction — its city.
    pub fn named_by(&self, scope: &OutageScope) -> bool {
        *scope == self.scope
            || self.aliases.contains(scope)
            || matches!(scope, OutageScope::City(c) if self.city == Some(*c))
    }
}

/// One detection ↔ truth match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Index into the reports slice.
    pub report: usize,
    /// Ground-truth id.
    pub truth: usize,
}

/// Evaluation outcome.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Evaluation {
    /// Correct detections.
    pub true_positives: usize,
    /// Spurious or wrongly-caused detections.
    pub false_positives: usize,
    /// Missed trackable infrastructure outages.
    pub false_negatives: usize,
    /// The matches behind the TP count.
    pub matches: Vec<Match>,
    /// Ids of missed outages.
    pub missed: Vec<usize>,
    /// Report indices counted as FPs.
    pub spurious: Vec<usize>,
}

impl Evaluation {
    /// Precision over detections.
    pub fn precision(&self) -> f64 {
        let n = self.true_positives + self.false_positives;
        if n == 0 {
            1.0
        } else {
            self.true_positives as f64 / n as f64
        }
    }

    /// Recall over trackable infrastructure outages.
    pub fn recall(&self) -> f64 {
        let n = self.true_positives + self.false_negatives;
        if n == 0 {
            1.0
        } else {
            self.true_positives as f64 / n as f64
        }
    }
}

fn time_matches(report: &OutageReport, truth: &TruthOutage, slack: u64) -> bool {
    let r_start = report.start.saturating_sub(slack);
    let r_end = report.end.unwrap_or(u64::MAX).saturating_add(slack);
    // Overlap of [r_start, r_end] with [truth.start, truth.end()].
    r_start <= truth.end() && truth.start <= r_end
}

/// Evaluates detections against ground truth. `slack` tolerates binning
/// and propagation delays (e.g. 900 s).
pub fn evaluate(reports: &[OutageReport], truth: &[TruthOutage], slack: u64) -> Evaluation {
    let mut eval = Evaluation::default();
    let mut truth_used = vec![false; truth.len()];
    for (ri, report) in reports.iter().enumerate() {
        // Find the best unused matching truth record.
        let mut matched: Option<usize> = None;
        for (ti, t) in truth.iter().enumerate() {
            if truth_used[ti] || !t.named_by(&report.scope) || !time_matches(report, t, slack) {
                continue;
            }
            matched = Some(ti);
            break;
        }
        match matched {
            Some(ti) if truth[ti].is_infrastructure => {
                truth_used[ti] = true;
                eval.true_positives += 1;
                eval.matches.push(Match { report: ri, truth: truth[ti].id });
            }
            Some(ti) => {
                // Right place, wrong cause (fiber cut): FP per the paper.
                truth_used[ti] = true;
                eval.false_positives += 1;
                eval.spurious.push(ri);
            }
            None => {
                eval.false_positives += 1;
                eval.spurious.push(ri);
            }
        }
    }
    for (ti, t) in truth.iter().enumerate() {
        if t.is_infrastructure && t.trackable && !truth_used[ti] {
            eval.false_negatives += 1;
            eval.missed.push(t.id);
        }
    }
    eval
}

#[cfg(test)]
mod tests {
    use super::*;
    use kepler_bgp::Asn;
    use kepler_topology::{FacilityId, IxpId};
    use std::collections::BTreeSet;

    fn report(scope: OutageScope, start: u64, end: u64) -> OutageReport {
        OutageReport {
            scope,
            start,
            end: Some(end),
            affected_near: BTreeSet::from([Asn(1)]),
            affected_far: BTreeSet::from([Asn(2)]),
            affected_paths: 5,
            oscillations: 1,
            dataplane_confirmed: None,
            validation: crate::events::ValidationStatus::Unvalidated,
            probe_evidence: Vec::new(),
            probe_completeness: 1.0,
            state: crate::events::IncidentState::Closed,
            sources: Vec::new(),
        }
    }

    fn truth(id: usize, scope: OutageScope, start: u64, dur: u64, infra: bool) -> TruthOutage {
        TruthOutage {
            id,
            scope,
            city: Some(CityId(0)),
            aliases: Vec::new(),
            start,
            duration: dur,
            is_infrastructure: infra,
            trackable: true,
        }
    }

    #[test]
    fn tp_fp_fn_accounting() {
        let fac = OutageScope::Facility(FacilityId(1));
        let ixp = OutageScope::Ixp(IxpId(2));
        let reports = vec![
            report(fac, 1000, 2000),                                        // TP
            report(ixp, 50_000, 51_000),                                    // FP (no truth)
            report(OutageScope::Facility(FacilityId(9)), 100_000, 101_000), // FP: fiber cut
        ];
        let truths = vec![
            truth(0, fac, 900, 1200, true),
            truth(1, OutageScope::Facility(FacilityId(3)), 70_000, 600, true), // missed
            truth(2, OutageScope::Facility(FacilityId(9)), 100_000, 1200, false), // fiber cut
        ];
        let eval = evaluate(&reports, &truths, 300);
        assert_eq!(eval.true_positives, 1);
        assert_eq!(eval.false_positives, 2);
        assert_eq!(eval.false_negatives, 1);
        assert_eq!(eval.missed, vec![1]);
        assert!((eval.precision() - 1.0 / 3.0).abs() < 1e-9);
        assert!((eval.recall() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn untrackable_misses_are_not_false_negatives() {
        let truths = vec![TruthOutage {
            id: 0,
            scope: OutageScope::Facility(FacilityId(1)),
            city: None,
            aliases: Vec::new(),
            start: 0,
            duration: 100,
            is_infrastructure: true,
            trackable: false,
        }];
        let eval = evaluate(&[], &truths, 0);
        assert_eq!(eval.false_negatives, 0);
        assert_eq!(eval.recall(), 1.0);
    }

    #[test]
    fn time_slack_matters() {
        let fac = OutageScope::Facility(FacilityId(1));
        let reports = vec![report(fac, 2000, 3000)];
        let truths = vec![truth(0, fac, 500, 1000, true)]; // ends at 1500
        let strict = evaluate(&reports, &truths, 0);
        assert_eq!(strict.true_positives, 0);
        let lax = evaluate(&reports, &truths, 600);
        assert_eq!(lax.true_positives, 1);
    }

    #[test]
    fn ongoing_reports_match_on_start_overlap() {
        let fac = OutageScope::Facility(FacilityId(1));
        let mut r = report(fac, 1000, 0);
        r.end = None;
        let truths = vec![truth(0, fac, 900, 10_000, true)];
        let eval = evaluate(&[r], &truths, 0);
        assert_eq!(eval.true_positives, 1);
    }
}
