//! The validation stage (paper §4.4), end to end.
//!
//! Kepler validates what the control plane inferred against the data
//! plane in two ways, and this module is where both are decided:
//!
//! * **Targeted campaigns.** A low-confidence localization goes to the
//!   `kepler-probe` engine; `settle` is the only place its
//!   [`ProbeReport`] is interpreted — confirmed, refuted, inconclusive,
//!   degraded, or never probed — and the outcome is a `Settlement`
//!   whose `Why` says which.
//! * **Baseline re-probe.** Quiet-time paths known to cross the
//!   suspected PoP are re-traced by the same prober
//!   ([`Prober::baseline`]); `confirm` discards an incident that more
//!   than `T_fail` of them still cross (a false positive) and stamps the
//!   verdict on the ones it keeps.
//!
//! Every reason is a value, and the run's counters are the tally of
//! those values: `ClassCounts::tally*` below are the only writers of the
//! classification and settlement fields of [`ClassCounts`]. Adding a
//! reason is one `Why` arm plus one `tally` line.

use crate::events::{OutageScope, SignalClass, ValidationStatus};
use crate::investigate::{BinInvestigation, LocalizedIncident};
use crate::system::ClassCounts;
use crate::tracker::IncidentMeta;
use kepler_bgpstream::Timestamp;
use kepler_probe::{FacilityVerdict, HopEvidence, ProbeReport, Prober};
use kepler_topology::FacilityId;

/// Why a suspicion was settled the way it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Why {
    /// An open incident's accumulated, still-confident confirmation named
    /// one of the candidates: no fresh campaign.
    EvidenceReused,
    /// No prober attached: the passive fallback stands.
    NoProber,
    /// The campaign fell below its completeness quorum: its verdicts are
    /// not trusted, the passive fallback stands for now.
    Degraded,
    /// Exactly one candidate facility was confirmed dark.
    Confirmed,
    /// The campaign ran but could not decide: the passive fallback stands.
    Inconclusive,
    /// Every candidate — or the fallback facility itself — is demonstrably
    /// forwarding: the suspicion was a false positive.
    Refuted,
    /// The baseline re-probe still crosses the PoP: discarded.
    BaselineContradicted,
}

/// One settled suspicion: what to record, and why.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Settlement {
    /// The scope to record; `None` = nothing to record.
    pub scope: Option<OutageScope>,
    /// Validation metadata travelling with the record.
    pub meta: IncidentMeta,
    /// The reason.
    pub why: Why,
    /// `unresolved` bookings the suspicion carried that this settlement
    /// gives back (probes localized what passive analysis could not).
    pub rescued: usize,
}

impl Settlement {
    /// A candidate facility named by the confirmation an open incident
    /// already carries; the accumulated hop evidence travels along.
    pub(crate) fn reused(fac: FacilityId, evidence: Vec<HopEvidence>, booked: usize) -> Self {
        let validation = ValidationStatus::Confirmed;
        let meta = IncidentMeta { validation, evidence, reused: true, ..IncidentMeta::default() };
        let scope = Some(OutageScope::Facility(fac));
        Settlement { scope, meta, why: Why::EvidenceReused, rescued: booked }
    }
}

/// Settles one suspicion from its campaign's report (`None`: no prober
/// is attached). `fallback` is the passive verdict, `booked` the
/// suspicion's `unresolved` bookings. The only reader of a report's
/// verdicts.
pub(crate) fn settle(
    fallback: Option<OutageScope>,
    booked: usize,
    report: Option<ProbeReport>,
) -> Settlement {
    use ValidationStatus as V;
    let settled = |scope, why, validation, evidence, completeness| Settlement {
        scope,
        meta: IncidentMeta { validation, evidence, completeness, ..IncidentMeta::default() },
        why,
        rescued: if why == Why::Confirmed { booked } else { 0 },
    };
    let Some(report) = report else {
        return settled(fallback, Why::NoProber, V::Unvalidated, Vec::new(), 1.0);
    };
    let completeness = report.completeness;
    if report.degraded {
        return settled(fallback, Why::Degraded, V::Unvalidated, Vec::new(), completeness);
    }
    if let Some(fac) = report.resolved() {
        let scope = Some(OutageScope::Facility(fac));
        return settled(scope, Why::Confirmed, V::Confirmed, report.evidence, completeness);
    }
    let fallback_refuted = matches!(
        fallback,
        Some(OutageScope::Facility(g)) if report.verdict_for(g) == Some(FacilityVerdict::Refuted)
    );
    if report.all_refuted() || fallback_refuted {
        return settled(None, Why::Refuted, V::Refuted, Vec::new(), completeness);
    }
    settled(fallback, Why::Inconclusive, V::Inconclusive, report.evidence, completeness)
}

/// The baseline re-probe filter: incidents the data plane contradicts
/// are discarded as false positives, the rest are kept with the verdict
/// stamped on their metadata (`None` without a prober, or without
/// baseline paths through the scope that re-probed).
pub(crate) fn confirm(
    mut prober: Option<&mut (dyn Prober + '_)>,
    t_fail: f64,
    now: Timestamp,
    incidents: impl Iterator<Item = (LocalizedIncident, IncidentMeta)>,
    counts: &mut ClassCounts,
) -> (Vec<LocalizedIncident>, Vec<IncidentMeta>) {
    let (mut kept, mut metas) = (Vec::new(), Vec::new());
    for (inc, mut meta) in incidents {
        meta.dataplane = (prober.as_deref_mut())
            .and_then(|p| p.baseline(inc.scope, now))
            .filter(|r| r.baseline > 0)
            .map(|r| kepler_probe::confirm(r, t_fail));
        if meta.dataplane == Some(false) {
            counts.tally(Why::BaselineContradicted, 0);
            continue;
        }
        counts.tally_class(SignalClass::PopLevel);
        kept.push(inc);
        metas.push(meta);
    }
    (kept, metas)
}

impl ClassCounts {
    /// Books one settlement.
    pub(crate) fn tally(&mut self, why: Why, rescued: usize) {
        match why {
            Why::EvidenceReused => self.evidence_reused += 1,
            Why::NoProber => {}
            Why::Degraded => self.degraded_passive += 1,
            Why::Confirmed => self.probe_confirmed += 1,
            Why::Inconclusive => self.probe_inconclusive += 1,
            Why::Refuted => self.probe_refuted += 1,
            Why::BaselineContradicted => self.dataplane_rejected += 1,
        }
        self.unresolved = self.unresolved.saturating_sub(rescued);
    }

    /// Books one re-validation round of a parked suspicion. Its passive
    /// settlement was booked when it was parked, so only a confirmation
    /// counts — as an upgrade, not as a fresh campaign.
    pub(crate) fn tally_revalidated(&mut self, why: Why, rescued: usize) {
        if why == Why::Confirmed {
            self.deferred_revalidated += 1;
            self.unresolved = self.unresolved.saturating_sub(rescued);
        }
    }

    /// Books one classified signal group; `PopLevel` is an incident that
    /// survived validation.
    pub(crate) fn tally_class(&mut self, class: SignalClass) {
        match class {
            SignalClass::LinkLevel => self.link_level += 1,
            SignalClass::AsLevel => self.as_level += 1,
            SignalClass::OperatorLevel => self.operator_level += 1,
            SignalClass::PopLevel => self.pop_level += 1,
        }
    }

    /// Books one investigated bin: every dismissed group under its class,
    /// every PoP-level cluster that could not be localized as unresolved.
    pub(crate) fn tally_investigation(&mut self, investigation: &BinInvestigation) {
        for &(_, class) in &investigation.dismissed {
            self.tally_class(class);
        }
        self.unresolved += investigation.unresolved.len();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use kepler_bgp::Asn;
    use kepler_probe::{PostState, ProbeRequest, ProbeResult};

    /// A prober whose baseline re-probe has one fixed answer for every
    /// scope; its campaigns decide nothing.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct FixedProbe(pub Option<ProbeResult>);

    impl Prober for FixedProbe {
        fn validate(&mut self, _request: &ProbeRequest, _now: Timestamp) -> ProbeReport {
            ProbeReport::default()
        }

        fn baseline(&mut self, _epicenter: OutageScope, _now: Timestamp) -> Option<ProbeResult> {
            self.0
        }
    }

    use FacilityVerdict::{Confirmed as C, Inconclusive as I, Refuted as R};

    fn hop(facility: u32) -> HopEvidence {
        HopEvidence {
            vantage: Asn(900),
            target: Asn(20),
            facility: FacilityId(facility),
            pre_hop: 2,
            post: PostState::Detoured,
        }
    }

    /// A clean campaign at 0.8 completeness judging facilities 1, 2, …
    /// in order, with one hop of evidence on facility 2.
    fn report(verdicts: &[FacilityVerdict]) -> ProbeReport {
        ProbeReport {
            verdicts: verdicts.iter().zip(1..).map(|(&v, f)| (FacilityId(f), v)).collect(),
            evidence: vec![hop(2)],
            completeness: 0.8,
            ..ProbeReport::default()
        }
    }

    /// One row per `Why` arm of [`settle`], plus the edges the arms
    /// decide implicitly. Every suspicion carries 3 `unresolved` bookings.
    #[test]
    fn settle_table() {
        use ValidationStatus as V;
        let f1 = Some(OutageScope::Facility(FacilityId(1)));
        let f2 = Some(OutageScope::Facility(FacilityId(2)));
        // expected: (scope, why, validation, evidence hops, completeness, rescued)
        let row = |case: &str, fallback, report, expected| {
            let s = settle(fallback, 3, report);
            let m = &s.meta;
            let got = (s.scope, s.why, m.validation, m.evidence.len(), m.completeness, s.rescued);
            assert_eq!(got, expected, "{case}");
            assert_eq!((m.dataplane, m.reused, m.sources.len()), (None, false, 0), "{case}");
        };
        // Without a campaign completeness is 1.0; otherwise the report's.
        let passive = |scope, why, completeness| (scope, why, V::Unvalidated, 0, completeness, 0);
        row("no prober", f1, None, passive(f1, Why::NoProber, 1.0));
        row("no prober, no fallback", None, None, passive(None, Why::NoProber, 1.0));
        // Degraded: the verdicts (one confirmed) are present but not read.
        let degraded =
            || Some(ProbeReport { degraded: true, completeness: 0.2, ..report(&[R, C]) });
        row("degraded", f1, degraded(), passive(f1, Why::Degraded, 0.2));
        row("degraded, no fallback", None, degraded(), passive(None, Why::Degraded, 0.2));
        let confirmed = (f2, Why::Confirmed, V::Confirmed, 1, 0.8, 3);
        row("confirmed", f1, Some(report(&[I, C])), confirmed);
        row("confirmed, no fallback", None, Some(report(&[I, C])), confirmed);
        // `resolved()` wins over refutations, the fallback's included.
        row("resolved beats refuted", f1, Some(report(&[R, C, R])), confirmed);
        let refuted = (None, Why::Refuted, V::Refuted, 0, 0.8, 0);
        row("all refuted", f1, Some(report(&[R, R])), refuted);
        row("all refuted, no fallback", None, Some(report(&[R, R])), refuted);
        row("fallback refuted, rest inconclusive", f1, Some(report(&[R, I])), refuted);
        let undecided = |scope| (scope, Why::Inconclusive, V::Inconclusive, 1, 0.8, 0);
        // A refuted non-fallback candidate proves nothing about the fallback.
        row("other refuted", f1, Some(report(&[I, R])), undecided(f1));
        row("two confirmed do not disambiguate", f1, Some(report(&[C, C])), undecided(f1));
        row("inconclusive, no fallback", None, Some(report(&[I, R])), undecided(None));
        row("nothing judged", f1, Some(report(&[])), undecided(f1));
    }

    #[test]
    fn reused_evidence_confirms_without_a_campaign() {
        let s = Settlement::reused(FacilityId(2), vec![hop(2)], 1);
        assert_eq!(s.scope, Some(OutageScope::Facility(FacilityId(2))));
        assert_eq!((s.why, s.rescued), (Why::EvidenceReused, 1));
        assert_eq!((s.meta.validation, s.meta.reused), (ValidationStatus::Confirmed, true));
        assert_eq!((s.meta.evidence.len(), s.meta.completeness), (1, 1.0));
    }

    #[test]
    fn each_why_books_exactly_its_counter() {
        let zero = ClassCounts { unresolved: 5, ..ClassCounts::default() };
        let booked = |why, rescued| {
            let mut c = zero;
            c.tally(why, rescued);
            c
        };
        assert_eq!(
            booked(Why::EvidenceReused, 2),
            ClassCounts { evidence_reused: 1, unresolved: 3, ..zero }
        );
        assert_eq!(booked(Why::NoProber, 0), zero);
        assert_eq!(booked(Why::Degraded, 0), ClassCounts { degraded_passive: 1, ..zero });
        assert_eq!(
            booked(Why::Confirmed, 1),
            ClassCounts { probe_confirmed: 1, unresolved: 4, ..zero }
        );
        assert_eq!(booked(Why::Inconclusive, 0), ClassCounts { probe_inconclusive: 1, ..zero });
        assert_eq!(booked(Why::Refuted, 0), ClassCounts { probe_refuted: 1, ..zero });
        assert_eq!(
            booked(Why::BaselineContradicted, 0),
            ClassCounts { dataplane_rejected: 1, ..zero }
        );
        // More given back than booked (counter already reconciled) saturates.
        assert_eq!(booked(Why::Confirmed, 9).unresolved, 0);
        let mut c = zero;
        c.tally_revalidated(Why::Confirmed, 1);
        c.tally_revalidated(Why::Refuted, 0);
        c.tally_revalidated(Why::Degraded, 0);
        assert_eq!(c, ClassCounts { deferred_revalidated: 1, unresolved: 4, ..zero });
    }

    fn incident(fac: u32) -> (LocalizedIncident, IncidentMeta) {
        let inc = LocalizedIncident {
            scope: OutageScope::Facility(FacilityId(fac)),
            bin_start: 0,
            affected: Default::default(),
        };
        (inc, IncidentMeta::default())
    }

    #[test]
    fn baseline_filter_discards_contradictions_and_stamps_the_rest() {
        let run = |mut probe: Option<FixedProbe>| {
            let mut counts = ClassCounts::default();
            let prober = probe.as_mut().map(|p| p as &mut dyn Prober);
            let (kept, metas) =
                confirm(prober, 0.10, 0, [incident(1), incident(2)].into_iter(), &mut counts);
            assert_eq!(kept.len(), metas.len());
            (kept.len(), metas.first().map(|m| m.dataplane), counts)
        };
        let crossing =
            |still_crossing| FixedProbe(Some(ProbeResult { still_crossing, baseline: 10 }));
        let zero = ClassCounts::default();
        assert_eq!(run(None), (2, Some(None), ClassCounts { pop_level: 2, ..zero }));
        assert_eq!(
            run(Some(FixedProbe(None))),
            (2, Some(None), ClassCounts { pop_level: 2, ..zero })
        );
        assert_eq!(
            run(Some(crossing(0))),
            (2, Some(Some(true)), ClassCounts { pop_level: 2, ..zero })
        );
        assert_eq!(
            run(Some(crossing(10))),
            (0, None, ClassCounts { dataplane_rejected: 2, ..zero })
        );
        // A re-probe of zero baseline paths is no evidence, not a
        // contradiction (`crossing_fraction` reads it as 1.0).
        let empty = FixedProbe(Some(ProbeResult { still_crossing: 0, baseline: 0 }));
        assert_eq!(run(Some(empty)), (2, Some(None), ClassCounts { pop_level: 2, ..zero }));
    }
}
