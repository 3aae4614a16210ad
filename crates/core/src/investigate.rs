//! Outage-signal investigation (paper §4.3).
//!
//! Signals from one bin are classified by the structure of the affected
//! links:
//!
//! * **link-level** — too few distinct ASes involved (de-peering, MED
//!   change between two big networks);
//! * **AS-level** — every affected link shares one common AS (an IXP
//!   member leaving, a network-wide policy);
//! * **operator-level** — every link touches a sibling of one organization;
//! * **PoP-level** — at least three non-sibling near-end *and* three
//!   non-sibling far-end organizations: an infrastructure incident.
//!
//! PoP-level signals are then **localized**: ingress communities only name
//! the near-end PoP, but the failure may sit in any of up to four
//! facilities along the physical link. The colocation map disambiguates:
//! if ≥95% of the stable paths whose far ends are co-located in candidate
//! facility *g* are affected, *g* is the epicenter (near-end facility
//! checked first, then the far-end ASes' facilities, then common IXPs,
//! with facility↔IXP resolution escalation and city abstraction).

use crate::config::KeplerConfig;
use crate::events::{OutageScope, RouteKey, SignalClass};
use crate::monitor::{BinOutcome, OutageSignal};
use crate::remote::RemotenessMap;
use kepler_bgp::Asn;
use kepler_bgpstream::Timestamp;
use kepler_docmine::LocationTag;
use kepler_probe::ProbeRequest;
use kepler_topology::{CityId, ColocationMap, FacilityId, IxpId, OrgMap};
use std::collections::{BTreeMap, BTreeSet};

/// More than this many distinct ASes must be affected before a signal
/// is investigated at all (link-level events are below it): **3**.
pub(crate) const MIN_AFFECTED_ASES: usize = 3;
/// PoP-level classification needs at least this many *non-sibling*
/// near-end AND far-end ASes: **3**.
pub(crate) const MIN_DISJOINT_ORGS: usize = 3;
/// Co-location coverage required to pin an epicenter facility: **95%**
/// (5% slack absorbs colocation-map inaccuracies).
pub(crate) const COLO_MARGIN: f64 = 0.95;

/// What a signal group says was hit — the evidence a localized or
/// pending incident hands to validation and the tracker.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Affected {
    /// Near-end ASes affected.
    pub near: BTreeSet<Asn>,
    /// Far-end ASes affected.
    pub far: BTreeSet<Asn>,
    /// Deviated stable routes (sorted, unique).
    pub keys: Vec<RouteKey>,
    /// The monitored crossings to watch for restoration:
    /// (route, PoP tag, near-end AS), in signal order.
    pub watch: Vec<(RouteKey, LocationTag, Asn)>,
}

impl Affected {
    /// The evidence of one PoP's signal group.
    pub(crate) fn of(signals: &[&OutageSignal]) -> Affected {
        let mut affected = Affected {
            near: signals.iter().map(|s| s.near).collect(),
            far: signals.iter().flat_map(|s| s.far_ases.iter().copied()).collect(),
            ..Affected::default()
        };
        for s in signals {
            for k in &s.deviated {
                affected.keys.push(*k);
                affected.watch.push((*k, s.pop, s.near));
            }
        }
        affected.keys.sort();
        affected.keys.dedup();
        affected
    }

    /// Folds another group's evidence in: the AS sets and keys unite,
    /// the watch list appends. The one merge of investigator evidence.
    pub(crate) fn absorb(&mut self, other: Affected) {
        self.near.extend(other.near);
        self.far.extend(other.far);
        self.keys.extend(other.keys);
        self.keys.sort();
        self.keys.dedup();
        self.watch.extend(other.watch);
    }
}

/// A localized PoP-level incident.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalizedIncident {
    /// Epicenter.
    pub scope: OutageScope,
    /// Bin where it was raised.
    pub bin_start: Timestamp,
    /// What was hit.
    pub affected: Affected,
}

/// A facility suspected from passive evidence alone: the affected
/// far-end set is (almost) contained in its membership, but its live
/// co-located members dilute the 95% coverage rule below confidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FacilityCandidate {
    /// The suspected building.
    pub facility: FacilityId,
    /// Fraction of the candidate's co-located stable members affected.
    pub coverage: f64,
    /// Fraction of the affected set co-located in the candidate.
    pub containment: f64,
}

/// Result of localizing one PoP-level signal group, with the passive
/// confidence signal the probing stage keys on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Localization {
    /// The passive verdict, if any.
    pub scope: Option<OutageScope>,
    /// Facility suspects, best passive score first, each named once.
    pub suspects: Vec<FacilityCandidate>,
}

impl Localization {
    /// A verdict confident enough to skip probing.
    fn confident(scope: OutageScope) -> Localization {
        Localization { scope: Some(scope), suspects: Vec::new() }
    }

    /// A verdict (or none) with suspects for probes to decide between,
    /// sorted best-first. A building can qualify through several
    /// collection paths — e.g. an IXP's fabric loop *and* the far-end
    /// facility scan — so duplicates are dropped: a duplicated candidate
    /// would be probed twice and defeat the unique-confirmation rule.
    fn suspected(scope: Option<OutageScope>, mut suspects: Vec<FacilityCandidate>) -> Localization {
        sort_candidates(&mut suspects);
        let mut seen: BTreeSet<FacilityId> = BTreeSet::new();
        suspects.retain(|c| seen.insert(c.facility));
        Localization { scope, suspects }
    }

    /// Whether the verdict is below confidence and targeted probes should
    /// disambiguate: no verdict but live suspects, a coarse city verdict
    /// over concrete building suspects, or several buildings tied at the
    /// coverage margin — exactly when there are suspects.
    pub fn needs_probe(&self) -> bool {
        !self.suspects.is_empty()
    }
}

/// A PoP-level group whose localization needs active-measurement help
/// (paper §4.4: targeted traceroutes toward the suspect facilities).
#[derive(Debug, Clone, PartialEq)]
pub struct PendingIncident {
    /// The PoP tag whose signals raised it.
    pub pop: LocationTag,
    /// Bin where it was raised.
    pub bin_start: Timestamp,
    /// Facility suspects, best passive score first.
    pub candidates: Vec<FacilityCandidate>,
    /// The passive-only verdict to fall back to when no prober is
    /// attached or probing is inconclusive (`None`: the group was
    /// passively unresolvable).
    pub fallback: Option<OutageScope>,
    /// What was hit.
    pub affected: Affected,
    /// How many cluster-level `unresolved` bookings this pending carries
    /// (summed across merges): when probes resolve it, the system
    /// reconciles the `unresolved` counter by exactly this amount.
    pub booked_unresolved: usize,
}

impl PendingIncident {
    /// The probe request this pending localization translates to.
    pub fn request(&self) -> ProbeRequest {
        ProbeRequest {
            pop: self.pop,
            bin_start: self.bin_start,
            candidates: self.candidates.iter().map(|c| c.facility).collect(),
            affected_far: self.affected.far.iter().copied().collect(),
            affected_near: self.affected.near.iter().copied().collect(),
        }
    }

    /// Materializes the incident once a scope has been settled (by a
    /// probe verdict or by falling back to the passive scope).
    pub fn to_incident(&self, scope: OutageScope) -> LocalizedIncident {
        LocalizedIncident { scope, bin_start: self.bin_start, affected: self.affected.clone() }
    }
}

/// Outcome of investigating one bin.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BinInvestigation {
    /// Bin start.
    pub bin_start: Timestamp,
    /// Localized PoP-level incidents.
    pub incidents: Vec<LocalizedIncident>,
    /// Signal groups dismissed at lower levels (PoP tag, class).
    pub dismissed: Vec<(LocationTag, SignalClass)>,
    /// PoP-level groups that could not be localized (would need targeted
    /// traceroutes in the paper).
    pub unresolved: Vec<LocationTag>,
    /// Low-confidence localizations awaiting active-measurement
    /// disambiguation (resolved by `system::Kepler` when a prober is
    /// attached, otherwise collapsed to their fallback scopes).
    pub pending: Vec<PendingIncident>,
}

/// The investigator.
pub struct Investigator {
    colo: ColocationMap,
    orgs: OrgMap,
    /// Latency-derived remote-peering evidence ([`crate::remote`]).
    /// Empty by default — every member is then treated as colocated.
    remoteness: RemotenessMap,
}

struct Coverage {
    covered: usize,
    denom: usize,
    containment: f64,
}

impl Coverage {
    fn fraction(&self) -> f64 {
        if self.denom == 0 {
            0.0
        } else {
            self.covered as f64 / self.denom as f64
        }
    }

    /// `facility` as a suspect scored by this coverage.
    fn candidate(&self, facility: FacilityId) -> FacilityCandidate {
        FacilityCandidate { facility, coverage: self.fraction(), containment: self.containment }
    }
}

impl Investigator {
    /// Builds an investigator over the detector's colocation map and
    /// organization map. Its thresholds are the paper's constants, so it
    /// reads nothing from the config; the parameter stays while
    /// `benchmark/` passes one.
    pub fn new(_config: KeplerConfig, colo: ColocationMap, orgs: OrgMap) -> Self {
        Investigator { colo, orgs, remoteness: RemotenessMap::default() }
    }

    /// Attaches remote-peering evidence: far-end ASes flagged remote at
    /// an exchange no longer nominate their (distant) home facilities as
    /// epicenter candidates for signals in that exchange's metro.
    pub fn with_remoteness(mut self, remoteness: RemotenessMap) -> Self {
        self.remoteness = remoteness;
        self
    }

    /// The colocation map in use.
    pub fn colo(&self) -> &ColocationMap {
        &self.colo
    }

    /// Whether an affected far-end AS's involvement at this metro is
    /// explained by remote peering: the latency heuristic flags it as
    /// remote at an IXP located in `city`. Its own facility tenancies
    /// (in its home metro) are then not epicenter evidence.
    fn remote_at_metro(&self, a: Asn, city: Option<CityId>) -> bool {
        if self.remoteness.is_empty() {
            return false;
        }
        let Some(city) = city else { return false };
        self.colo.ixps_in_city(city).into_iter().any(|x| self.remoteness.is_remote(x, a))
    }

    /// Investigates one bin.
    ///
    /// Signals are first grouped per PoP, then *clustered by city*: one
    /// physical incident surfaces through several tags at once (the failed
    /// building's facility communities, coarser city communities of other
    /// operators, the co-located exchange), and only their union carries
    /// enough disjoint ASes to classify as PoP-level — this is the paper's
    /// "correlate outage signals from multiple PoPs" step. Localization
    /// then runs per contributing PoP and the verdicts are merged.
    pub fn investigate(&self, outcome: &BinOutcome) -> BinInvestigation {
        let mut result = BinInvestigation { bin_start: outcome.bin_start, ..Default::default() };
        // Group signals per PoP.
        let mut groups: BTreeMap<LocationTag, Vec<&OutageSignal>> = BTreeMap::new();
        for s in &outcome.signals {
            groups.entry(s.pop).or_default().push(s);
        }
        // Cluster PoPs by city (unknown-city PoPs stay alone).
        let mut clusters: BTreeMap<(u8, u32), Vec<LocationTag>> = BTreeMap::new();
        for pop in groups.keys() {
            let key = match OutageScope::from(*pop).city(&self.colo) {
                Some(c) => (0u8, c.0),
                None => match pop {
                    LocationTag::Facility(f) => (1, f.0),
                    LocationTag::Ixp(x) => (2, x.0),
                    LocationTag::City(c) => (3, c.0),
                },
            };
            clusters.entry(key).or_default().push(*pop);
        }
        let mut incidents: Vec<LocalizedIncident> = Vec::new();
        for pops in clusters.values() {
            let all_signals: Vec<&OutageSignal> =
                pops.iter().flat_map(|p| groups[p].iter().copied()).collect();
            let class = self.classify(&all_signals);
            if class != SignalClass::PopLevel {
                result.dismissed.push((pops[0], class));
                continue;
            }
            let mut found_any = false;
            let pending_start = result.pending.len();
            for pop in pops {
                let affected = Affected::of(&groups[pop]);
                // Denominators scoped to the *affected* near-end ASes: the
                // 95% co-location rule asks whether the signaling ASes lost
                // all of their co-located links — near-ends whose ports
                // survived a partial outage raise no signal and must not
                // dilute the check.
                let mut stable_fars: BTreeMap<Asn, usize> = BTreeMap::new();
                if let Some(by_near) = outcome.stable_fars.get(pop) {
                    for near in &affected.near {
                        if let Some(fars) = by_near.get(near) {
                            for (far, n) in fars {
                                *stable_fars.entry(*far).or_insert(0) += n;
                            }
                        }
                    }
                }
                let loc = self.localize(*pop, &affected.far, &stable_fars);
                if loc.needs_probe() {
                    // Low confidence: hand the group to the probing stage
                    // instead of committing to a passive guess. A group
                    // with a fallback scope still counts as found — it
                    // will be reported one way or the other.
                    found_any |= loc.scope.is_some();
                    result.pending.push(PendingIncident {
                        pop: *pop,
                        bin_start: outcome.bin_start,
                        candidates: loc.suspects,
                        fallback: loc.scope,
                        affected,
                        booked_unresolved: 0,
                    });
                    continue;
                }
                let Some(scope) = loc.scope else {
                    continue;
                };
                found_any = true;
                incidents.push(LocalizedIncident { scope, bin_start: outcome.bin_start, affected });
            }
            if !found_any {
                result.unresolved.push(pops[0]);
                // The cluster is booked unresolved exactly once; mark the
                // booking on its first pending (all of a bookless
                // cluster's pendings have no fallback) so the system can
                // reconcile the counter if probes later resolve it.
                if let Some(p) = result.pending.get_mut(pending_start) {
                    p.booked_unresolved = 1;
                }
            }
        }
        result.incidents = self.merge_incidents(incidents);
        result.pending = merge_pending(std::mem::take(&mut result.pending));
        result
    }

    /// Classifies one PoP's signal group.
    pub fn classify(&self, signals: &[&OutageSignal]) -> SignalClass {
        // Affected links: (near, far) pairs.
        let mut links: BTreeSet<(Asn, Asn)> = BTreeSet::new();
        for s in signals {
            for far in &s.far_ases {
                links.insert((s.near, *far));
            }
        }
        let mut all_ases: BTreeSet<Asn> = BTreeSet::new();
        for (a, b) in &links {
            all_ases.insert(*a);
            all_ases.insert(*b);
        }
        // Link-level: too few distinct ASes to be anything bigger.
        if all_ases.len() <= MIN_AFFECTED_ASES {
            return SignalClass::LinkLevel;
        }
        // AS-level: all links share one AS.
        let first = links.iter().next().expect("non-empty");
        for candidate in [first.0, first.1] {
            if links.iter().all(|(a, b)| *a == candidate || *b == candidate) {
                return SignalClass::AsLevel;
            }
        }
        // Operator-level: all links touch one organization's siblings.
        let candidate_orgs: BTreeSet<_> =
            [first.0, first.1].iter().filter_map(|a| self.orgs.org_of(*a)).collect();
        for org in candidate_orgs {
            if links.iter().all(|(a, b)| {
                self.orgs.org_of(*a) == Some(org) || self.orgs.org_of(*b) == Some(org)
            }) {
                return SignalClass::OperatorLevel;
            }
        }
        // PoP-level requires ≥3 disjoint non-sibling orgs on each side.
        let nears: Vec<Asn> = links.iter().map(|(a, _)| *a).collect();
        let fars: Vec<Asn> = links.iter().map(|(_, b)| *b).collect();
        let near_orgs = self.orgs.distinct_orgs(nears.iter().copied());
        let far_orgs = self.orgs.distinct_orgs(fars.iter().copied());
        if near_orgs >= MIN_DISJOINT_ORGS && far_orgs >= MIN_DISJOINT_ORGS {
            SignalClass::PopLevel
        } else {
            SignalClass::AsLevel
        }
    }

    fn coverage(
        &self,
        affected: &BTreeSet<Asn>,
        stable: &BTreeMap<Asn, usize>,
        members: &BTreeSet<Asn>,
    ) -> Coverage {
        let covered = stable.keys().filter(|a| members.contains(a) && affected.contains(a)).count();
        let denom = stable.keys().filter(|a| members.contains(a)).count();
        let in_members = affected.iter().filter(|a| members.contains(a)).count();
        let containment =
            if affected.is_empty() { 0.0 } else { in_members as f64 / affected.len() as f64 };
        Coverage { covered, denom, containment }
    }

    /// Localizes a PoP-level signal, reporting the passive scope and
    /// every facility suspect with its passive scores; suspects mean the
    /// verdict needs active-measurement disambiguation.
    pub fn localize(
        &self,
        pop: LocationTag,
        affected_far: &BTreeSet<Asn>,
        stable_fars: &BTreeMap<Asn, usize>,
    ) -> Localization {
        let pop_city = OutageScope::from(pop).city(&self.colo);
        match pop {
            LocationTag::Facility(f) => {
                let mut suspects: Vec<FacilityCandidate> = Vec::new();
                // 1. Near-end facility test.
                let members = self.colo.members_of_facility(f);
                let cov = self.coverage(affected_far, stable_fars, members);
                if cov.denom >= 1 && cov.fraction() >= COLO_MARGIN {
                    return Localization::confident(OutageScope::Facility(f));
                }
                if cov.denom >= 1 && cov.containment >= COLO_MARGIN {
                    // The near-end building contains the affected set but
                    // its surviving members dilute the coverage: a suspect.
                    suspects.push(cov.candidate(f));
                }
                // 2. Far-end facilities.
                let far = self.far_candidates(affected_far, stable_fars, Some(f), pop_city);
                if let Some(verdict) = self.far_verdict(&far) {
                    return verdict;
                }
                // 3. IXP escalation.
                if let Some(scope) = self.best_common_ixp(affected_far, stable_fars) {
                    return Localization::confident(scope);
                }
                suspects.extend(far);
                Localization::suspected(None, suspects)
            }
            LocationTag::Ixp(x) => {
                // Resolution increase: a single fabric facility whose
                // members account for (almost) all affected paths means the
                // outage is the building, not the exchange.
                let mut suspects: Vec<FacilityCandidate> = Vec::new();
                let mut best: Option<(FacilityId, f64)> = None;
                for &f in self.colo.facilities_of_ixp(x) {
                    let members = self.colo.members_of_facility(f);
                    let cov = self.coverage(affected_far, stable_fars, members);
                    if cov.denom >= 1 && cov.containment >= COLO_MARGIN {
                        if cov.fraction() >= COLO_MARGIN {
                            let score = cov.containment;
                            if best.map(|(_, s)| score > s).unwrap_or(true) {
                                best = Some((f, score));
                            }
                        } else {
                            suspects.push(cov.candidate(f));
                        }
                    }
                }
                if let Some((f, _)) = best {
                    return Localization::confident(OutageScope::Facility(f));
                }
                // Whole-exchange test.
                let members = self.colo.members_of_ixp(x);
                let cov = self.coverage(affected_far, stable_fars, members);
                if cov.denom >= 1 && cov.fraction() >= COLO_MARGIN {
                    return Localization::confident(OutageScope::Ixp(x));
                }
                let far = self.far_candidates(affected_far, stable_fars, None, pop_city);
                if let Some(verdict) = self.far_verdict(&far) {
                    return verdict;
                }
                suspects.extend(far);
                Localization::suspected(None, suspects)
            }
            LocationTag::City(c) => {
                // Sharpen to a facility in the city, then an IXP, else stay
                // at city level. Unlike the facility-tag case, affected
                // far-ends here span every building the near-end ASes use
                // in the city, so candidates are judged by *coverage* of
                // their co-located members (are this building's tenants
                // wiped out?) rather than by containment.
                // Of the affected far-ends the city's buildings can
                // explain at all, how concentrated is each building? A
                // far-end with a port but no recorded tenancy anywhere in
                // the city (remote peering through a reseller) must not
                // break the containment test for every building at once.
                let city_facilities = self.colo.facilities_in_city(c);
                let affected_in_city = affected_far
                    .iter()
                    .filter(|a| {
                        city_facilities
                            .iter()
                            .any(|f| self.colo.members_of_facility(*f).contains(a))
                    })
                    .count();
                let mut fac_cands: Vec<(FacilityCandidate, BTreeSet<Asn>)> = Vec::new();
                let mut suspects: Vec<FacilityCandidate> = Vec::new();
                for f in &city_facilities {
                    let members = self.colo.members_of_facility(*f);
                    let cov = self.coverage(affected_far, stable_fars, members);
                    let candidate = cov.candidate(*f);
                    if cov.denom >= 2 && cov.fraction() >= COLO_MARGIN {
                        let covered: BTreeSet<Asn> = stable_fars
                            .keys()
                            .filter(|a| members.contains(a) && affected_far.contains(a))
                            .copied()
                            .collect();
                        fac_cands.push((candidate, covered));
                        continue;
                    }
                    let in_building = affected_far.iter().filter(|a| members.contains(a)).count();
                    if cov.denom >= 2
                        && affected_in_city >= 1
                        && in_building as f64 >= COLO_MARGIN * affected_in_city as f64
                    {
                        // Concrete building suspect behind a coarse city
                        // tag — the colocation-twin shape the probe
                        // subsystem disambiguates.
                        suspects.push(candidate);
                    }
                }
                if let [(only, _)] = fac_cands.as_slice() {
                    return Localization::confident(OutageScope::Facility(only.facility));
                }
                if fac_cands.len() >= 2 {
                    // Several buildings clear the margin. If each is
                    // backed by its *own* wiped-out tenants, several
                    // buildings really failed together: a metro event.
                    // But when the covered evidence sets are
                    // (near-)identical, the candidates are colocation
                    // twins — one piece of evidence counted twice — and
                    // only the data plane can name the building.
                    let indistinguishable = fac_cands.iter().enumerate().all(|(i, (_, a))| {
                        fac_cands.iter().skip(i + 1).all(|(_, b)| {
                            let inter = a.intersection(b).count();
                            inter as f64 >= COLO_MARGIN * a.len().min(b.len()) as f64
                        })
                    });
                    if !indistinguishable {
                        return Localization::confident(OutageScope::City(c));
                    }
                    let twins = fac_cands.into_iter().map(|(cand, _)| cand).collect();
                    return Localization::suspected(Some(OutageScope::City(c)), twins);
                }
                let mut ixp_cands: Vec<IxpId> = Vec::new();
                for x in self.colo.ixps_in_city(c) {
                    let members = self.colo.members_of_ixp(x);
                    let cov = self.coverage(affected_far, stable_fars, members);
                    if cov.denom >= 2 && cov.fraction() >= COLO_MARGIN {
                        ixp_cands.push(x);
                    }
                }
                if let [only] = ixp_cands.as_slice() {
                    return Localization::confident(OutageScope::Ixp(*only));
                }
                Localization::suspected(Some(OutageScope::City(c)), suspects)
            }
        }
    }

    /// All facility suspects among those hosting the affected far-end
    /// ASes: ≥2 co-located stable members (a single-member match is no
    /// evidence of a *facility* failure) and near-complete containment of
    /// the affected set. Sorted best passive score first; entries at or
    /// above the coverage margin are the historical "passing" candidates.
    fn far_candidates(
        &self,
        affected_far: &BTreeSet<Asn>,
        stable_fars: &BTreeMap<Asn, usize>,
        exclude: Option<FacilityId>,
        signal_city: Option<CityId>,
    ) -> Vec<FacilityCandidate> {
        let mut candidates: BTreeSet<FacilityId> = BTreeSet::new();
        for a in affected_far {
            // A far end peering remotely at this metro was hit through
            // its reseller port on the fabric, not through any building
            // it is a tenant of — its home facilities are no evidence.
            if self.remote_at_metro(*a, signal_city) {
                continue;
            }
            candidates.extend(self.colo.facilities_of_as(*a));
        }
        if let Some(f) = exclude {
            candidates.remove(&f);
        }
        let mut out: Vec<FacilityCandidate> = Vec::new();
        for g in candidates {
            let members = self.colo.members_of_facility(g);
            let cov = self.coverage(affected_far, stable_fars, members);
            if cov.denom >= 2 && cov.containment >= COLO_MARGIN {
                out.push(cov.candidate(g));
            }
        }
        sort_candidates(&mut out);
        out
    }

    /// The far-end facility verdict, if any building clears the coverage
    /// margin: one is confident; several are a tie only the data plane
    /// can break (fallback: the best passive score, the historical
    /// behavior).
    fn far_verdict(&self, far: &[FacilityCandidate]) -> Option<Localization> {
        let passing: Vec<FacilityCandidate> =
            far.iter().filter(|c| c.coverage >= COLO_MARGIN).copied().collect();
        let best = OutageScope::Facility(passing.first()?.facility);
        Some(if passing.len() == 1 {
            Localization::confident(best)
        } else {
            Localization::suspected(Some(best), passing)
        })
    }

    /// Best common IXP of the affected far-end ASes.
    fn best_common_ixp(
        &self,
        affected_far: &BTreeSet<Asn>,
        stable_fars: &BTreeMap<Asn, usize>,
    ) -> Option<OutageScope> {
        let mut candidates: BTreeSet<IxpId> = BTreeSet::new();
        for a in affected_far {
            candidates.extend(self.colo.ixps_of_as(*a));
        }
        let mut best: Option<(IxpId, f64)> = None;
        for x in candidates {
            let members = self.colo.members_of_ixp(x);
            let cov = self.coverage(affected_far, stable_fars, members);
            if cov.denom >= 2
                && cov.fraction() >= COLO_MARGIN
                && cov.containment >= COLO_MARGIN
                && best.map(|(_, s)| cov.containment > s).unwrap_or(true)
            {
                best = Some((x, cov.containment));
            }
        }
        best.map(|(x, _)| OutageScope::Ixp(x))
    }

    /// Deduplicates incidents converging on one scope and abstracts
    /// multiple same-city epicenters to a city-level incident.
    fn merge_incidents(&self, incidents: Vec<LocalizedIncident>) -> Vec<LocalizedIncident> {
        // 1. Merge identical scopes.
        let mut by_scope: BTreeMap<OutageScope, LocalizedIncident> = BTreeMap::new();
        for inc in incidents {
            match by_scope.get_mut(&inc.scope) {
                None => {
                    by_scope.insert(inc.scope, inc);
                }
                Some(existing) => existing.affected.absorb(inc.affected),
            }
        }
        // 2. City abstraction: ≥2 distinct physical scopes in one city
        // (including a city-level verdict corroborating a sharper one).
        let mut by_city: BTreeMap<CityId, Vec<OutageScope>> = BTreeMap::new();
        for scope in by_scope.keys() {
            if let Some(c) = scope.city(&self.colo) {
                by_city.entry(c).or_default().push(*scope);
            }
        }
        let mut out: Vec<LocalizedIncident> = Vec::new();
        for (city, scopes) in by_city {
            if scopes.len() < 2 {
                continue;
            }
            // A city-level verdict next to exactly one sharper verdict
            // merely corroborates it: merge *into* the sharp scope. Two or
            // more distinct physical scopes abstract to the city.
            let sharp: Vec<OutageScope> =
                scopes.iter().filter(|s| !matches!(s, OutageScope::City(_))).copied().collect();
            let target = match sharp.as_slice() {
                [only] => *only,
                _ => OutageScope::City(city),
            };
            // `by_city` was read off `by_scope`'s keys, and each scope
            // sits in one city: every scope is still there, once.
            let mut members = scopes.iter().map(|s| by_scope.remove(s).expect("scope present"));
            let first = members.next().expect("at least two scopes");
            let mut merged = LocalizedIncident { scope: target, ..first };
            for inc in members {
                merged.affected.absorb(inc.affected);
            }
            out.push(merged);
        }
        out.extend(by_scope.into_values());
        out.sort_by_key(|i| i.scope);
        out
    }
}

/// Sorts candidates best passive score first: containment, then
/// coverage, descending. The sort is stable, and candidates arrive in
/// facility-id order, so equal scores keep the lowest id first — the
/// historical tie-break of the best-candidate selection.
fn sort_candidates(candidates: &mut [FacilityCandidate]) {
    candidates.sort_by(|a, b| {
        (b.containment, b.coverage)
            .partial_cmp(&(a.containment, a.coverage))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
}

/// Merges pending localizations that name the same candidate set: one
/// physical incident surfaces through several tags at once (the city
/// tag, each bystander building's tag), and probing it once is enough.
fn merge_pending(pending: Vec<PendingIncident>) -> Vec<PendingIncident> {
    let mut by_cands: BTreeMap<Vec<u32>, PendingIncident> = BTreeMap::new();
    for p in pending {
        let mut key: Vec<u32> = p.candidates.iter().map(|c| c.facility.0).collect();
        key.sort_unstable();
        key.dedup();
        match by_cands.get_mut(&key) {
            None => {
                by_cands.insert(key, p);
            }
            Some(existing) => {
                existing.affected.absorb(p.affected);
                existing.booked_unresolved += p.booked_unresolved;
                existing.fallback = existing.fallback.or(p.fallback);
            }
        }
    }
    by_cands.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kepler_topology::entities::{Facility, Ixp};
    use kepler_topology::{Continent, GeoPoint};

    fn facility(id: u32, city: u32) -> Facility {
        Facility {
            id: FacilityId(id),
            name: format!("F{id}"),
            address: String::new(),
            postcode: format!("P{id}"),
            country: "GB".into(),
            city: CityId(city),
            continent: Continent::Europe,
            point: GeoPoint::new(51.5, 0.0),
            operator: "Op".into(),
        }
    }

    /// World: facility 0 ("TH East", near end, signal source), facility 1
    /// ("TC HEX", hosts fars 201..205) — both in city 0 — and facility 2
    /// (hosts fars 301..305) in another city.
    fn build() -> Investigator {
        let mut colo = ColocationMap::new();
        colo.add_facility(facility(0, 0));
        colo.add_facility(facility(1, 0));
        colo.add_facility(facility(2, 1));
        colo.add_ixp(Ixp {
            id: IxpId(0),
            name: "LINX".into(),
            url: "linx.net".into(),
            city: CityId(0),
            continent: Continent::Europe,
            route_server_asn: None,
        });
        for a in 201..=205u32 {
            colo.add_fac_member(FacilityId(1), Asn(a));
            colo.add_fac_member(FacilityId(0), Asn(a));
        }
        for a in 301..=305u32 {
            colo.add_fac_member(FacilityId(2), Asn(a));
            colo.add_fac_member(FacilityId(0), Asn(a));
        }
        for a in (201..=205).chain(301..=305) {
            colo.add_ixp_member(IxpId(0), Asn(a));
        }
        colo.link_ixp_facility(IxpId(0), FacilityId(0));
        Investigator::new(KeplerConfig::default(), colo, OrgMap::new())
    }

    fn signal(pop: LocationTag, near: u32, fars: &[u32]) -> OutageSignal {
        OutageSignal {
            pop,
            near: Asn(near),
            bin_start: 0,
            deviated: vec![],
            stable_total: fars.len().max(1),
            far_ases: fars.iter().map(|&f| Asn(f)).collect(),
            fraction: 1.0,
        }
    }

    fn stable_all() -> BTreeMap<Asn, usize> {
        (201..=205).chain(301..=305).map(|a| (Asn(a), 2)).collect()
    }

    #[test]
    fn classify_link_level() {
        let inv = build();
        let s = signal(LocationTag::Facility(FacilityId(0)), 1, &[2]);
        assert_eq!(inv.classify(&[&s]), SignalClass::LinkLevel);
    }

    #[test]
    fn classify_as_level_common_near() {
        let inv = build();
        let s = signal(LocationTag::Facility(FacilityId(0)), 1, &[2, 3, 4, 5]);
        assert_eq!(inv.classify(&[&s]), SignalClass::AsLevel);
    }

    #[test]
    fn classify_as_level_common_far() {
        let inv = build();
        let s1 = signal(LocationTag::Facility(FacilityId(0)), 1, &[9]);
        let s2 = signal(LocationTag::Facility(FacilityId(0)), 2, &[9]);
        let s3 = signal(LocationTag::Facility(FacilityId(0)), 3, &[9]);
        assert_eq!(inv.classify(&[&s1, &s2, &s3]), SignalClass::AsLevel);
    }

    #[test]
    fn classify_operator_level() {
        let mut inv = build();
        let org = inv.orgs.add_org("Bell");
        for a in [11u32, 12, 13] {
            inv.orgs.assign(Asn(a), org);
        }
        let s1 = signal(LocationTag::Facility(FacilityId(0)), 1, &[11]);
        let s2 = signal(LocationTag::Facility(FacilityId(0)), 2, &[12]);
        let s3 = signal(LocationTag::Facility(FacilityId(0)), 3, &[13]);
        assert_eq!(inv.classify(&[&s1, &s2, &s3]), SignalClass::OperatorLevel);
    }

    #[test]
    fn classify_pop_level() {
        let inv = build();
        let s1 = signal(LocationTag::Facility(FacilityId(0)), 1, &[201, 202]);
        let s2 = signal(LocationTag::Facility(FacilityId(0)), 2, &[203, 204]);
        let s3 = signal(LocationTag::Facility(FacilityId(0)), 3, &[205, 201]);
        assert_eq!(inv.classify(&[&s1, &s2, &s3]), SignalClass::PopLevel);
    }

    #[test]
    fn siblings_do_not_count_as_disjoint() {
        let mut inv = build();
        let org = inv.orgs.add_org("One");
        for a in [1u32, 2, 3] {
            inv.orgs.assign(Asn(a), org);
        }
        // Near-ends 1,2,3 are siblings: only 1 near-side org.
        let s1 = signal(LocationTag::Facility(FacilityId(0)), 1, &[201, 202]);
        let s2 = signal(LocationTag::Facility(FacilityId(0)), 2, &[203, 204]);
        let s3 = signal(LocationTag::Facility(FacilityId(0)), 3, &[205, 202]);
        assert_ne!(inv.classify(&[&s1, &s2, &s3]), SignalClass::PopLevel);
    }

    #[test]
    fn near_end_facility_localization() {
        let inv = build();
        // All far-end members of facility 0 are affected.
        let affected: BTreeSet<Asn> = (201..=205).chain(301..=305).map(Asn).collect();
        let scope =
            inv.localize(LocationTag::Facility(FacilityId(0)), &affected, &stable_all()).scope;
        assert_eq!(scope, Some(OutageScope::Facility(FacilityId(0))));
    }

    #[test]
    fn far_end_facility_disambiguation() {
        let inv = build();
        // Only the fars at facility 1 are affected: epicenter must be
        // facility 1, not the near-end facility 0 (the London case).
        let affected: BTreeSet<Asn> = (201..=205).map(Asn).collect();
        let scope =
            inv.localize(LocationTag::Facility(FacilityId(0)), &affected, &stable_all()).scope;
        assert_eq!(scope, Some(OutageScope::Facility(FacilityId(1))));
    }

    #[test]
    fn ixp_signal_resolves_to_whole_exchange() {
        let inv = build();
        let affected: BTreeSet<Asn> = (201..=205).chain(301..=305).map(Asn).collect();
        // Facility 0 hosts the fabric and all those fars are members of
        // facility 0 too, so the facility test fires first — which is the
        // desired "outage is the building, not the IXP" resolution.
        let scope = inv.localize(LocationTag::Ixp(IxpId(0)), &affected, &stable_all()).scope;
        assert_eq!(scope, Some(OutageScope::Facility(FacilityId(0))));
    }

    #[test]
    fn ixp_signal_with_spread_members_stays_ixp() {
        let mut colo = ColocationMap::new();
        colo.add_facility(facility(0, 0));
        colo.add_facility(facility(1, 0));
        colo.add_ixp(Ixp {
            id: IxpId(0),
            name: "IX".into(),
            url: "ix.net".into(),
            city: CityId(0),
            continent: Continent::Europe,
            route_server_asn: None,
        });
        // Members split across two fabric facilities.
        for a in 1..=4u32 {
            colo.add_fac_member(FacilityId(0), Asn(a));
            colo.add_ixp_member(IxpId(0), Asn(a));
        }
        for a in 5..=8u32 {
            colo.add_fac_member(FacilityId(1), Asn(a));
            colo.add_ixp_member(IxpId(0), Asn(a));
        }
        colo.link_ixp_facility(IxpId(0), FacilityId(0));
        colo.link_ixp_facility(IxpId(0), FacilityId(1));
        let inv = Investigator::new(KeplerConfig::default(), colo, OrgMap::new());
        let affected: BTreeSet<Asn> = (1..=8).map(Asn).collect();
        let stable: BTreeMap<Asn, usize> = (1..=8).map(|a| (Asn(a), 1)).collect();
        let scope = inv.localize(LocationTag::Ixp(IxpId(0)), &affected, &stable).scope;
        assert_eq!(scope, Some(OutageScope::Ixp(IxpId(0))));
        // Only facility 0's members affected -> the building, not the IXP.
        let affected0: BTreeSet<Asn> = (1..=4).map(Asn).collect();
        let scope0 = inv.localize(LocationTag::Ixp(IxpId(0)), &affected0, &stable).scope;
        assert_eq!(scope0, Some(OutageScope::Facility(FacilityId(0))));
    }

    #[test]
    fn city_signal_sharpen_and_fallback() {
        let inv = build();
        // All members of facility 1 affected: city tag sharpens to it.
        let affected: BTreeSet<Asn> = (201..=205).map(Asn).collect();
        let scope = inv.localize(LocationTag::City(CityId(0)), &affected, &stable_all()).scope;
        assert_eq!(scope, Some(OutageScope::Facility(FacilityId(1))));
        // Mixed affected set that matches nothing cleanly stays city-wide.
        let mixed: BTreeSet<Asn> = [201u32, 301, 999].iter().map(|&a| Asn(a)).collect();
        let scope2 = inv.localize(LocationTag::City(CityId(0)), &mixed, &stable_all()).scope;
        assert_eq!(scope2, Some(OutageScope::City(CityId(0))));
    }

    /// Colocation twins: facilities 1 and 2 both list fars 201..=210, but
    /// only 201..=205 (the ports that physically sit in facility 1) are
    /// affected. Facility 0 is the near-end bystander whose tag carries
    /// the signals.
    fn build_twins() -> Investigator {
        let mut colo = ColocationMap::new();
        colo.add_facility(facility(0, 0));
        colo.add_facility(facility(1, 0));
        colo.add_facility(facility(2, 0));
        for a in 201..=210u32 {
            colo.add_fac_member(FacilityId(1), Asn(a));
            colo.add_fac_member(FacilityId(2), Asn(a));
        }
        Investigator::new(KeplerConfig::default(), colo, OrgMap::new())
    }

    fn stable_twins() -> BTreeMap<Asn, usize> {
        (201..=210).map(|a| (Asn(a), 2)).collect()
    }

    #[test]
    fn twin_facilities_defeat_passive_localization_and_need_probes() {
        let inv = build_twins();
        let affected: BTreeSet<Asn> = (201..=205).map(Asn).collect();
        // Through the bystander facility tag: no verdict, two suspects.
        let loc = inv.localize(LocationTag::Facility(FacilityId(0)), &affected, &stable_twins());
        assert_eq!(loc.scope, None);
        assert!(loc.needs_probe());
        let named: Vec<FacilityId> = loc.suspects.iter().map(|c| c.facility).collect();
        assert_eq!(named, vec![FacilityId(1), FacilityId(2)]);
        assert!((loc.suspects[0].containment - 1.0).abs() < 1e-9);
        assert!(loc.suspects[0].coverage < 0.95, "live twin ports dilute coverage");
        // Through the city tag: coarse city verdict over the same suspects.
        let loc = inv.localize(LocationTag::City(CityId(0)), &affected, &stable_twins());
        assert_eq!(loc.scope, Some(OutageScope::City(CityId(0))));
        assert!(loc.needs_probe());
        assert_eq!(loc.suspects.len(), 2);
    }

    #[test]
    fn tied_passing_candidates_need_probes_with_best_fallback() {
        let inv = build_twins();
        // Both buildings fully wiped: two candidates clear the margin.
        let affected: BTreeSet<Asn> = (201..=210).map(Asn).collect();
        let loc = inv.localize(LocationTag::Facility(FacilityId(0)), &affected, &stable_twins());
        assert_eq!(loc.scope, Some(OutageScope::Facility(FacilityId(1))), "historical best");
        assert!(loc.needs_probe(), "a tie is not confidence");
        assert_eq!(loc.suspects.len(), 2);
    }

    #[test]
    fn ixp_tag_suspects_are_deduplicated() {
        // Facility 1 qualifies as a suspect both through the IXP's fabric
        // loop and through the far-end facility scan; the candidate list
        // must still name it once (a duplicate would be probed twice and
        // defeat the unique-confirmation rule).
        let mut colo = ColocationMap::new();
        colo.add_facility(facility(0, 0));
        colo.add_facility(facility(1, 0));
        colo.add_facility(facility(2, 0));
        colo.add_ixp(Ixp {
            id: IxpId(0),
            name: "IX".into(),
            url: "ix.net".into(),
            city: CityId(0),
            continent: Continent::Europe,
            route_server_asn: None,
        });
        for a in 201..=210u32 {
            colo.add_fac_member(FacilityId(1), Asn(a));
            colo.add_fac_member(FacilityId(2), Asn(a));
            colo.add_ixp_member(IxpId(0), Asn(a));
        }
        colo.link_ixp_facility(IxpId(0), FacilityId(1));
        let inv = Investigator::new(KeplerConfig::default(), colo, OrgMap::new());
        let affected: BTreeSet<Asn> = (201..=205).map(Asn).collect();
        let stable: BTreeMap<Asn, usize> = (201..=210).map(|a| (Asn(a), 2)).collect();
        let loc = inv.localize(LocationTag::Ixp(IxpId(0)), &affected, &stable);
        assert_eq!(loc.scope, None);
        assert!(loc.needs_probe());
        let named: Vec<FacilityId> = loc.suspects.iter().map(|c| c.facility).collect();
        let unique: BTreeSet<FacilityId> = named.iter().copied().collect();
        assert_eq!(named.len(), unique.len(), "duplicate suspects: {named:?}");
        assert!(unique.contains(&FacilityId(1)) && unique.contains(&FacilityId(2)));
    }

    #[test]
    fn investigation_merges_pendings_across_tags() {
        let inv = build_twins();
        let mut outcome = BinOutcome { bin_start: 600, ..Default::default() };
        // The same physical incident seen through the bystander facility
        // tag and the city tag.
        for (near, fars) in [(1u32, [201u32, 202]), (2, [203, 204]), (3, [205, 201])] {
            outcome.signals.push(signal(LocationTag::Facility(FacilityId(0)), near, &fars));
            outcome.signals.push(signal(LocationTag::City(CityId(0)), near, &fars));
        }
        let by_near: BTreeMap<Asn, BTreeMap<Asn, usize>> =
            [(Asn(1), stable_twins()), (Asn(2), stable_twins()), (Asn(3), stable_twins())].into();
        outcome.stable_fars.insert(LocationTag::Facility(FacilityId(0)), by_near.clone());
        outcome.stable_fars.insert(LocationTag::City(CityId(0)), by_near);
        let result = inv.investigate(&outcome);
        assert!(result.incidents.is_empty(), "nothing is confidently localized");
        assert_eq!(result.pending.len(), 1, "same candidate set probes once: {result:?}");
        let p = &result.pending[0];
        assert_eq!(p.fallback, Some(OutageScope::City(CityId(0))));
        assert_eq!(p.candidates.len(), 2);
        assert_eq!(p.affected.near.len(), 3);
        let req = p.request();
        assert_eq!(req.candidates, vec![FacilityId(1), FacilityId(2)]);
        assert_eq!(req.affected_far.len(), 5);
        // Materializing with a settled scope carries everything over.
        let inc = p.to_incident(OutageScope::Facility(FacilityId(1)));
        assert_eq!(inc.scope, OutageScope::Facility(FacilityId(1)));
        assert_eq!(inc.affected.near, p.affected.near);
    }

    fn key(i: u8) -> RouteKey {
        RouteKey {
            collector: kepler_bgpstream::CollectorId(0),
            peer: kepler_bgpstream::PeerId { asn: Asn(1), addr: "10.0.0.1".parse().unwrap() },
            prefix: kepler_bgp::Prefix::v4(20, i, 0, 0, 16),
        }
    }

    /// A localized incident whose watch list names `keys` in the order
    /// given, each crossing `scope`'s tag at the first near-end AS.
    fn localized(scope: OutageScope, near: &[u32], far: &[u32], keys: &[u8]) -> LocalizedIncident {
        let watch = keys.iter().map(|&k| (key(k), scope.into(), Asn(near[0]))).collect();
        let affected = Affected {
            near: near.iter().map(|&a| Asn(a)).collect(),
            far: far.iter().map(|&a| Asn(a)).collect(),
            keys: keys.iter().map(|&k| key(k)).collect(),
            watch,
        };
        LocalizedIncident { scope, bin_start: 600, affected }
    }

    #[test]
    fn same_city_verdicts_merge_into_one_incident_with_the_union_of_evidence() {
        let inv = build();
        let (f0, f1) = (OutageScope::Facility(FacilityId(0)), OutageScope::Facility(FacilityId(1)));
        let city = OutageScope::City(CityId(0));
        // Two buildings of city 0 in one bin abstract to the city; the
        // building of city 1 stays its own incident.
        let a = localized(f0, &[1, 2], &[201, 202], &[3, 1]);
        let b = localized(f1, &[3, 2], &[203, 202], &[2, 3]);
        let other = localized(OutageScope::Facility(FacilityId(2)), &[9], &[301], &[7]);
        let merged = inv.merge_incidents(vec![b.clone(), other.clone(), a.clone()]);
        let scopes: Vec<OutageScope> = merged.iter().map(|i| i.scope).collect();
        assert_eq!(scopes, vec![other.scope, city]);
        let m = &merged[1];
        assert_eq!(m.bin_start, 600);
        assert_eq!(m.affected.near, [1, 2, 3].map(Asn).into());
        assert_eq!(m.affected.far, [201, 202, 203].map(Asn).into());
        assert_eq!(m.affected.keys, vec![key(1), key(2), key(3)], "sorted, the shared key once");
        let in_order: Vec<_> = a.affected.watch.iter().chain(&b.affected.watch).copied().collect();
        assert_eq!(m.affected.watch, in_order, "every crossing, in signal order");
        assert_eq!(merged[0], other);
        // A city-tag verdict beside exactly one building merely
        // corroborates it: the building keeps the union.
        let c = localized(city, &[4], &[204], &[4, 1]);
        let merged = inv.merge_incidents(vec![c.clone(), b.clone()]);
        assert_eq!(merged.len(), 1, "{merged:?}");
        let m = &merged[0];
        assert_eq!(m.scope, f1);
        assert_eq!(m.affected.near, [2, 3, 4].map(Asn).into());
        assert_eq!(m.affected.far, [202, 203, 204].map(Asn).into());
        assert_eq!(m.affected.keys, vec![key(1), key(2), key(3), key(4)]);
        let in_order: Vec<_> = b.affected.watch.iter().chain(&c.affected.watch).copied().collect();
        assert_eq!(m.affected.watch, in_order);
    }

    #[test]
    fn full_investigation_dismisses_and_localizes() {
        let inv = build();
        let mut outcome = BinOutcome { bin_start: 600, ..Default::default() };
        // PoP-level group at facility 0.
        outcome.signals.push(signal(LocationTag::Facility(FacilityId(0)), 1, &[201, 202]));
        outcome.signals.push(signal(LocationTag::Facility(FacilityId(0)), 2, &[203, 204]));
        outcome.signals.push(signal(LocationTag::Facility(FacilityId(0)), 3, &[205]));
        // Link-level group at facility 2.
        outcome.signals.push(signal(LocationTag::Facility(FacilityId(2)), 7, &[8]));
        // Every signaling near-end (1, 2, 3) sees the full far set.
        let by_near: BTreeMap<Asn, BTreeMap<Asn, usize>> =
            [(Asn(1), stable_all()), (Asn(2), stable_all()), (Asn(3), stable_all())].into();
        outcome.stable_fars.insert(LocationTag::Facility(FacilityId(0)), by_near);
        outcome.stable_fars.insert(LocationTag::Facility(FacilityId(2)), BTreeMap::new());
        let result = inv.investigate(&outcome);
        assert_eq!(result.incidents.len(), 1);
        assert_eq!(result.incidents[0].scope, OutageScope::Facility(FacilityId(1)));
        assert_eq!(
            result.dismissed,
            vec![(LocationTag::Facility(FacilityId(2)), SignalClass::LinkLevel)]
        );
    }
}
