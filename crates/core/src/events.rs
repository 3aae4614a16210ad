//! Output types of the detection pipeline.

use crate::signal::{SignalKind, SourceContribution};
use kepler_bgp::{Asn, Prefix};
use kepler_bgpstream::{CollectorId, PeerId, Timestamp};
use kepler_probe::HopEvidence;
use std::collections::BTreeSet;
use std::fmt;

/// Where an outage is localized; defined beside the topology ids it
/// names, re-exported here as part of the detector's output.
pub use kepler_topology::OutageScope;

/// Identity of one monitored route: a prefix as seen by one collector peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouteKey {
    /// The collector.
    pub collector: CollectorId,
    /// The peer feeding it.
    pub peer: PeerId,
    /// The prefix.
    pub prefix: Prefix,
}

/// How a bin's signals were classified (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalClass {
    /// One AS link changed (de-peering, MED change).
    LinkLevel,
    /// One AS changed (member left an IXP, network-wide policy).
    AsLevel,
    /// Sibling ASes of one operator changed together.
    OperatorLevel,
    /// Many disjoint organizations changed at one PoP — an infrastructure
    /// incident.
    PopLevel,
}

impl fmt::Display for SignalClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SignalClass::LinkLevel => "link-level",
            SignalClass::AsLevel => "AS-level",
            SignalClass::OperatorLevel => "operator-level",
            SignalClass::PopLevel => "PoP-level",
        };
        f.write_str(s)
    }
}

/// Active-measurement validation status of a reported outage (verdict of
/// the `kepler-probe` engine for the incident's epicenter).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ValidationStatus {
    /// No probing was needed or attached: the passive localization was
    /// confident on its own.
    #[default]
    Unvalidated,
    /// Targeted probes confirmed the epicenter dark.
    Confirmed,
    /// Targeted probes contradicted the suspicion.
    Refuted,
    /// Probing ran but could not decide.
    Inconclusive,
}

impl fmt::Display for ValidationStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValidationStatus::Unvalidated => "unvalidated",
            ValidationStatus::Confirmed => "probe-confirmed",
            ValidationStatus::Refuted => "probe-refuted",
            ValidationStatus::Inconclusive => "probe-inconclusive",
        };
        f.write_str(s)
    }
}

/// Lifecycle state of a tracked incident.
///
/// Incidents open when the investigator localizes them and move forward
/// only — `Open → Recovering → Closed` — driven by two independent
/// restoration signals: the control plane (more than `restore_fraction`
/// of the affected paths back on their baseline PoP) and, when a
/// restoration prober is attached, the data plane (re-probes of the
/// epicenter crossing it again, typically well before BGP reconverges).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IncidentState {
    /// The epicenter is still dark; the incident accumulates evidence.
    #[default]
    Open,
    /// Restoration has been observed (by probes or by path return) but
    /// the incident is still inside the oscillation merge window — it may
    /// reopen and merge.
    Recovering,
    /// Final: the merge window elapsed without a reopen (or the feed
    /// ended after restoration).
    Closed,
}

impl fmt::Display for IncidentState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IncidentState::Open => "open",
            IncidentState::Recovering => "recovering",
            IncidentState::Closed => "closed",
        };
        f.write_str(s)
    }
}

/// A detected infrastructure outage.
#[derive(Debug, Clone, PartialEq)]
pub struct OutageReport {
    /// Localized epicenter.
    pub scope: OutageScope,
    /// When the outage signal first crossed the threshold.
    pub start: Timestamp,
    /// When it was considered restored (`None` = ongoing at end of feed).
    pub end: Option<Timestamp>,
    /// Near-end ASes whose paths deviated.
    pub affected_near: BTreeSet<Asn>,
    /// Far-end ASes behind the failed interconnections.
    pub affected_far: BTreeSet<Asn>,
    /// Number of stable paths that deviated.
    pub affected_paths: usize,
    /// Merged sub-outages (oscillation count; 1 = single clean outage).
    pub oscillations: usize,
    /// Whether a data-plane probe confirmed the incident.
    pub dataplane_confirmed: Option<bool>,
    /// Verdict of targeted active-measurement validation
    /// ([`ValidationStatus::Unvalidated`] when localization never needed
    /// probes).
    pub validation: ValidationStatus,
    /// Hop-level evidence behind the validation verdict (empty when
    /// unvalidated).
    pub probe_evidence: Vec<HopEvidence>,
    /// Completeness of the probe campaigns behind the verdict: completed
    /// measurement pairs over planned pairs, minimized across every bin
    /// that touched the incident. `1.0` when no probing was attempted (a
    /// purely passive verdict is "complete" for what it claims); below
    /// the engine's quorum the verdict was settled in degraded mode.
    pub probe_completeness: f64,
    /// Lifecycle state when the report was emitted: `Open` incidents ran
    /// past the end of the feed, `Recovering` ones restored but were
    /// still inside the merge window, `Closed` ones are final.
    pub state: IncidentState,
    /// Per-source detection contributions: every fused signal source
    /// that saw this incident, with its peak confidence and the first
    /// bin it fired in ([`SignalKind::Deviation`] alone for incidents
    /// born purely from the paper's deviation test).
    pub sources: Vec<SourceContribution>,
}

impl OutageReport {
    /// Outage duration in seconds (up to feed end for ongoing outages is
    /// not counted; `None` end yields `None`).
    pub fn duration(&self) -> Option<u64> {
        self.end.map(|e| e.saturating_sub(self.start))
    }

    /// All affected ASes.
    pub fn affected_ases(&self) -> BTreeSet<Asn> {
        self.affected_near.union(&self.affected_far).copied().collect()
    }
}

impl fmt::Display for OutageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "outage at {} start={} dur={} ases={} paths={}{}",
            self.scope,
            self.start,
            self.duration().map(|d| format!("{d}s")).unwrap_or_else(|| "ongoing".into()),
            self.affected_ases().len(),
            self.affected_paths,
            match self.dataplane_confirmed {
                Some(true) => " [confirmed]",
                Some(false) => " [unconfirmed]",
                None => "",
            },
        )?;
        if self.validation != ValidationStatus::Unvalidated {
            write!(f, " [{}]", self.validation)?;
        }
        if self.state != IncidentState::Closed {
            write!(f, " [{}]", self.state)?;
        }
        // Per-source attribution only when fusion added anything beyond
        // the default deviation signal.
        if self.sources.iter().any(|s| s.kind != SignalKind::Deviation) {
            write!(f, " [signals:")?;
            for (i, s) in self.sources.iter().enumerate() {
                write!(f, "{}{}", if i == 0 { " " } else { "+" }, s.kind)?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kepler_topology::FacilityId;

    #[test]
    fn report_accessors() {
        let r = OutageReport {
            scope: OutageScope::Facility(FacilityId(1)),
            start: 1000,
            end: Some(2500),
            affected_near: [Asn(1), Asn(2)].into(),
            affected_far: [Asn(2), Asn(3)].into(),
            affected_paths: 10,
            oscillations: 1,
            dataplane_confirmed: Some(true),
            validation: ValidationStatus::Confirmed,
            probe_evidence: Vec::new(),
            probe_completeness: 1.0,
            state: IncidentState::Closed,
            sources: vec![SourceContribution {
                kind: SignalKind::Deviation,
                confidence: 1.0,
                first_bin: 1000,
            }],
        };
        assert_eq!(r.duration(), Some(1500));
        assert_eq!(r.affected_ases().len(), 3);
        let s = r.to_string();
        assert!(s.contains("facility 1") && s.contains("confirmed"), "{s}");
        assert!(s.contains("probe-confirmed"), "{s}");
        assert!(!s.contains("[signals:"), "deviation-only reports stay terse");
        let fused = OutageReport {
            sources: vec![
                SourceContribution {
                    kind: SignalKind::Deviation,
                    confidence: 1.0,
                    first_bin: 1000,
                },
                SourceContribution { kind: SignalKind::Forecast, confidence: 0.8, first_bin: 940 },
            ],
            ..r.clone()
        };
        assert!(fused.to_string().contains("[signals: deviation+forecast]"), "{fused}");
        let ongoing = OutageReport { end: None, state: IncidentState::Open, ..r };
        assert_eq!(ongoing.duration(), None);
        assert!(ongoing.to_string().contains("ongoing"));
        assert!(ongoing.to_string().contains("[open]"), "{ongoing}");
        let recovering = OutageReport { state: IncidentState::Recovering, ..ongoing.clone() };
        assert!(recovering.to_string().contains("[recovering]"), "{recovering}");
        let plain = OutageReport { validation: ValidationStatus::Unvalidated, ..ongoing.clone() };
        assert!(!plain.to_string().contains("probe-"), "unvalidated reports stay terse");
    }
}
