//! The localization reference: what
//! [`Investigator::investigate`](kepler_core::investigate::Investigator::investigate)
//! must return for a closed bin, transcribed from the module doc of
//! `kepler_core::investigate` (paper §4.3) and sharing no code with it.
//! Its tables are `BTreeMap`s and `BTreeSet`s, and it reads the
//! colocation, organization and remoteness maps only through their
//! getters. The rules, in the order they apply:
//!
//! 1. **Clusters.** A bin's signals group per PoP tag, and the tags group
//!    per city: a facility's or an IXP's city, or the city tag's own. A
//!    tag whose facility or IXP the map lacks is a cluster alone. Known
//!    cities come first by id, then lone facilities, then lone IXPs;
//!    inside a cluster, city tags come before facility tags before IXP
//!    tags.
//! 2. **Classification** of a cluster's links (near end, far end):
//!    link-level with at most 3 distinct ASes; AS-level when one AS is on
//!    every link; operator-level when one organization has an AS on every
//!    link; PoP-level with at least 3 near-end and 3 far-end
//!    organizations (an AS in no organization is one of its own);
//!    AS-level otherwise. A cluster below PoP-level is dismissed under its
//!    first tag.
//! 3. **Scores.** Each tag of a PoP-level cluster is localized on its
//!    own. Its *affected* set is its signals' far ends; its *stable* set
//!    is the far ends its signaling near ends reach over stable paths. A
//!    member set M then has a denominator |stable ∩ M|, a coverage
//!    |stable ∩ M ∩ affected| / denominator and a containment
//!    |affected ∩ M| / |affected| (each 0 over an empty set).
//! 4. **The 95 % rule, tag by tag** (see [`ReferenceLocalizer::localize`]):
//!    the near-end facility first, then the far ends' facilities, then
//!    their common IXP; an IXP tag escalates to one fabric facility
//!    first; a city tag sharpens to one facility, splits several into
//!    colocation twins (probe them) or a metro event, then tries one IXP.
//!    Far ends flagged remote at an IXP of the tag's city nominate no
//!    facility.
//! 5. **Booking.** A verdict with suspects is pending, its verdict the
//!    fallback; one without is an incident. A cluster none of whose tags
//!    reached a verdict is unresolved under its first tag, and its first
//!    pending carries that booking.
//! 6. **Merges.** Incidents of one scope merge; distinct scopes of one
//!    city merge into the city, or into the one sharp scope a city
//!    verdict corroborates. Pendings naming the same suspect set merge
//!    into the first. Evidence merges by uniting the AS and key sets and
//!    appending the watch lists.

use kepler_bgp::Asn;
use kepler_core::investigate::{
    Affected, BinInvestigation, FacilityCandidate, LocalizedIncident, PendingIncident,
};
use kepler_core::monitor::{BinOutcome, OutageSignal};
use kepler_core::{OutageScope, RemotenessMap, SignalClass};
use kepler_docmine::LocationTag;
use kepler_topology::{CityId, ColocationMap, FacilityId, IxpId, OrgId, OrgMap};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BTreeSet};

/// The paper's 95 % co-location margin, spelled out here rather than
/// imported so the reference pins the value the investigator uses.
const MARGIN: f64 = 0.95;

/// Where a cluster sits: a known city, or a lone tag the map lacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Cluster {
    City(CityId),
    LoneFacility(FacilityId),
    LoneIxp(IxpId),
}

/// Who an AS counts as when organizations are counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Owner {
    Org(OrgId),
    Alone(Asn),
}

/// A member set's scores against one tag's evidence (rule 3).
struct Score {
    denom: usize,
    covered: BTreeSet<Asn>,
    coverage: f64,
    containment: f64,
}

/// A suspect and where it came from: the tag's own buildings rank before
/// the far ends' buildings at equal scores.
struct Suspect {
    own: bool,
    candidate: FacilityCandidate,
}

/// One tag's passive verdict and its ranked suspects.
struct Verdict {
    scope: Option<OutageScope>,
    suspects: Vec<FacilityCandidate>,
}

impl Verdict {
    fn confident(scope: OutageScope) -> Verdict {
        Verdict { scope: Some(scope), suspects: Vec::new() }
    }
}

/// The reference localizer over the investigator's three maps.
pub struct ReferenceLocalizer<'a> {
    pub colo: &'a ColocationMap,
    pub orgs: &'a OrgMap,
    pub remoteness: &'a RemotenessMap,
}

impl ReferenceLocalizer<'_> {
    fn tag_city(&self, tag: LocationTag) -> Option<CityId> {
        match tag {
            LocationTag::Facility(f) => self.colo.facility(f).map(|f| f.city),
            LocationTag::Ixp(x) => self.colo.ixp(x).map(|x| x.city),
            LocationTag::City(c) => Some(c),
        }
    }

    fn scope_city(&self, scope: OutageScope) -> Option<CityId> {
        self.tag_city(scope.into())
    }

    fn cluster(&self, tag: LocationTag) -> Cluster {
        match (self.tag_city(tag), tag) {
            (Some(c), _) => Cluster::City(c),
            (None, LocationTag::Facility(f)) => Cluster::LoneFacility(f),
            (None, LocationTag::Ixp(x)) => Cluster::LoneIxp(x),
            (None, LocationTag::City(c)) => Cluster::City(c),
        }
    }

    /// Rule 2.
    fn classify(&self, signals: &[&OutageSignal]) -> SignalClass {
        let mut links: BTreeSet<(Asn, Asn)> = BTreeSet::new();
        for s in signals {
            for far in &s.far_ases {
                links.insert((s.near, *far));
            }
        }
        let mut ases: BTreeSet<Asn> = BTreeSet::new();
        for (near, far) in &links {
            ases.insert(*near);
            ases.insert(*far);
        }
        if ases.len() <= 3 {
            return SignalClass::LinkLevel;
        }
        for a in &ases {
            if links.iter().all(|(near, far)| near == a || far == a) {
                return SignalClass::AsLevel;
            }
        }
        let orgs: BTreeSet<OrgId> = ases.iter().filter_map(|a| self.orgs.org_of(*a)).collect();
        for org in orgs {
            let touches = |a: &Asn| self.orgs.org_of(*a) == Some(org);
            if links.iter().all(|(near, far)| touches(near) || touches(far)) {
                return SignalClass::OperatorLevel;
            }
        }
        let owner = |a: Asn| self.orgs.org_of(a).map_or(Owner::Alone(a), Owner::Org);
        let near_owners: BTreeSet<Owner> = links.iter().map(|(near, _)| owner(*near)).collect();
        let far_owners: BTreeSet<Owner> = links.iter().map(|(_, far)| owner(*far)).collect();
        if near_owners.len() >= 3 && far_owners.len() >= 3 {
            SignalClass::PopLevel
        } else {
            SignalClass::AsLevel
        }
    }

    /// Rule 3.
    fn score(
        &self,
        members: &BTreeSet<Asn>,
        affected: &BTreeSet<Asn>,
        stable: &BTreeSet<Asn>,
    ) -> Score {
        let hosted: BTreeSet<Asn> = stable.intersection(members).copied().collect();
        let covered: BTreeSet<Asn> = hosted.intersection(affected).copied().collect();
        let contained = affected.intersection(members).count();
        let coverage =
            if hosted.is_empty() { 0.0 } else { covered.len() as f64 / hosted.len() as f64 };
        let containment =
            if affected.is_empty() { 0.0 } else { contained as f64 / affected.len() as f64 };
        Score { denom: hosted.len(), covered, coverage, containment }
    }

    fn facility_score(
        &self,
        f: FacilityId,
        affected: &BTreeSet<Asn>,
        stable: &BTreeSet<Asn>,
    ) -> Score {
        self.score(self.colo.members_of_facility(f), affected, stable)
    }

    fn ixp_score(&self, x: IxpId, affected: &BTreeSet<Asn>, stable: &BTreeSet<Asn>) -> Score {
        self.score(self.colo.members_of_ixp(x), affected, stable)
    }

    /// The far ends' buildings, `own` excluded: at least two stable
    /// tenants and the affected set (almost) contained. A far end flagged
    /// remote at an IXP of `city` nominates none of its buildings.
    fn far_suspects(
        &self,
        affected: &BTreeSet<Asn>,
        stable: &BTreeSet<Asn>,
        own: Option<FacilityId>,
        city: Option<CityId>,
    ) -> Vec<Suspect> {
        let mut buildings: BTreeSet<FacilityId> = BTreeSet::new();
        for a in affected {
            let remote = self
                .colo
                .ixps()
                .iter()
                .any(|x| Some(x.city) == city && self.remoteness.is_remote(x.id, *a));
            if !remote {
                buildings.extend(self.colo.facilities_of_as(*a));
            }
        }
        let mut out = Vec::new();
        for g in buildings {
            if Some(g) == own {
                continue;
            }
            let s = self.facility_score(g, affected, stable);
            if s.denom >= 2 && s.containment >= MARGIN {
                out.push(Suspect { own: false, candidate: candidate(g, &s) });
            }
        }
        out
    }

    /// Rule 4: one tag's verdict and suspects.
    fn localize(
        &self,
        tag: LocationTag,
        affected: &BTreeSet<Asn>,
        stable: &BTreeSet<Asn>,
    ) -> Verdict {
        let city = self.tag_city(tag);
        match tag {
            LocationTag::Facility(f) => {
                // The near-end facility first.
                let near = self.facility_score(f, affected, stable);
                if near.denom >= 1 && near.coverage >= MARGIN {
                    return Verdict::confident(OutageScope::Facility(f));
                }
                let mut suspects = Vec::new();
                if near.denom >= 1 && near.containment >= MARGIN {
                    suspects.push(Suspect { own: true, candidate: candidate(f, &near) });
                }
                // Then the far ends' facilities.
                let far = self.far_suspects(affected, stable, Some(f), city);
                if let Some(verdict) = far_verdict(&far) {
                    return verdict;
                }
                // Then the far ends' common IXP with the highest containment.
                let mut ixps: BTreeSet<IxpId> = BTreeSet::new();
                for a in affected {
                    ixps.extend(self.colo.ixps_of_as(*a));
                }
                let mut best: Option<(IxpId, f64)> = None;
                for x in ixps {
                    let s = self.ixp_score(x, affected, stable);
                    let passes = s.denom >= 2 && s.coverage >= MARGIN && s.containment >= MARGIN;
                    if passes && best.is_none_or(|(_, c)| s.containment > c) {
                        best = Some((x, s.containment));
                    }
                }
                if let Some((x, _)) = best {
                    return Verdict::confident(OutageScope::Ixp(x));
                }
                suspects.extend(far);
                Verdict { scope: None, suspects: rank(suspects) }
            }
            LocationTag::Ixp(x) => {
                // A fabric facility holding the affected set is the
                // epicenter rather than the exchange.
                let mut best: Option<(FacilityId, f64)> = None;
                let mut suspects = Vec::new();
                for &f in self.colo.facilities_of_ixp(x) {
                    let s = self.facility_score(f, affected, stable);
                    if s.denom < 1 || s.containment < MARGIN {
                        continue;
                    }
                    if s.coverage < MARGIN {
                        suspects.push(Suspect { own: true, candidate: candidate(f, &s) });
                    } else if best.is_none_or(|(_, c)| s.containment > c) {
                        best = Some((f, s.containment));
                    }
                }
                if let Some((f, _)) = best {
                    return Verdict::confident(OutageScope::Facility(f));
                }
                let whole = self.ixp_score(x, affected, stable);
                if whole.denom >= 1 && whole.coverage >= MARGIN {
                    return Verdict::confident(OutageScope::Ixp(x));
                }
                let far = self.far_suspects(affected, stable, None, city);
                if let Some(verdict) = far_verdict(&far) {
                    return verdict;
                }
                suspects.extend(far);
                Verdict { scope: None, suspects: rank(suspects) }
            }
            LocationTag::City(c) => {
                let buildings: Vec<FacilityId> =
                    self.colo.facilities().iter().filter(|f| f.city == c).map(|f| f.id).collect();
                let mut tenants: BTreeSet<Asn> = BTreeSet::new();
                for f in &buildings {
                    tenants.extend(self.colo.members_of_facility(*f));
                }
                let explained = affected.intersection(&tenants).count();
                let mut passing: Vec<(FacilityId, Score)> = Vec::new();
                let mut suspects = Vec::new();
                for f in buildings {
                    let s = self.facility_score(f, affected, stable);
                    if s.denom < 2 {
                        continue;
                    }
                    if s.coverage >= MARGIN {
                        passing.push((f, s));
                        continue;
                    }
                    let inside = affected.intersection(self.colo.members_of_facility(f)).count();
                    if explained >= 1 && inside as f64 >= MARGIN * explained as f64 {
                        suspects.push(Suspect { own: true, candidate: candidate(f, &s) });
                    }
                }
                if passing.len() == 1 {
                    return Verdict::confident(OutageScope::Facility(passing[0].0));
                }
                if passing.len() >= 2 {
                    // Twins share their covered tenants; a metro event
                    // has some pair of buildings with their own.
                    let mut twins = true;
                    for (i, (_, a)) in passing.iter().enumerate() {
                        for (_, b) in &passing[i + 1..] {
                            let shared = a.covered.intersection(&b.covered).count();
                            let smaller = a.covered.len().min(b.covered.len());
                            if (shared as f64) < MARGIN * smaller as f64 {
                                twins = false;
                            }
                        }
                    }
                    if !twins {
                        return Verdict::confident(OutageScope::City(c));
                    }
                    let twins = passing
                        .iter()
                        .map(|(f, s)| Suspect { own: true, candidate: candidate(*f, s) })
                        .collect();
                    return Verdict { scope: Some(OutageScope::City(c)), suspects: rank(twins) };
                }
                let mut ixps = Vec::new();
                for x in self.colo.ixps().iter().filter(|x| x.city == c) {
                    let s = self.ixp_score(x.id, affected, stable);
                    if s.denom >= 2 && s.coverage >= MARGIN {
                        ixps.push(x.id);
                    }
                }
                if ixps.len() == 1 {
                    return Verdict::confident(OutageScope::Ixp(ixps[0]));
                }
                Verdict { scope: Some(OutageScope::City(c)), suspects: rank(suspects) }
            }
        }
    }

    /// Rules 1–6 over one closed bin.
    pub fn investigate(&self, outcome: &BinOutcome) -> BinInvestigation {
        let bin_start = outcome.bin_start;
        let mut result = BinInvestigation { bin_start, ..BinInvestigation::default() };
        let mut clusters: BTreeMap<Cluster, BTreeMap<LocationTag, Vec<&OutageSignal>>> =
            BTreeMap::new();
        for s in &outcome.signals {
            clusters.entry(self.cluster(s.pop)).or_default().entry(s.pop).or_default().push(s);
        }
        let mut incidents: Vec<LocalizedIncident> = Vec::new();
        let mut pendings: Vec<PendingIncident> = Vec::new();
        for tags in clusters.values() {
            let first = *tags.keys().next().expect("a cluster has a tag");
            let all: Vec<&OutageSignal> = tags.values().flatten().copied().collect();
            let class = self.classify(&all);
            if class != SignalClass::PopLevel {
                result.dismissed.push((first, class));
                continue;
            }
            let mut verdicts = 0;
            let first_pending = pendings.len();
            for (tag, signals) in tags {
                let affected = evidence(signals);
                let mut stable: BTreeSet<Asn> = BTreeSet::new();
                if let Some(by_near) = outcome.stable_fars.get(tag) {
                    for near in &affected.near {
                        if let Some(fars) = by_near.get(near) {
                            stable.extend(fars);
                        }
                    }
                }
                let verdict = self.localize(*tag, &affected.far, &stable);
                if verdict.scope.is_some() {
                    verdicts += 1;
                }
                if !verdict.suspects.is_empty() {
                    pendings.push(PendingIncident {
                        pop: *tag,
                        bin_start,
                        candidates: verdict.suspects,
                        fallback: verdict.scope,
                        affected,
                        booked_unresolved: 0,
                    });
                } else if let Some(scope) = verdict.scope {
                    incidents.push(LocalizedIncident { scope, bin_start, affected });
                }
            }
            if verdicts == 0 {
                result.unresolved.push(first);
                if let Some(p) = pendings.get_mut(first_pending) {
                    p.booked_unresolved = 1;
                }
            }
        }
        result.incidents = self.merge_incidents(incidents);
        result.pending = merge_pendings(pendings);
        result
    }

    /// Rule 6 for incidents.
    fn merge_incidents(&self, incidents: Vec<LocalizedIncident>) -> Vec<LocalizedIncident> {
        let mut by_scope: BTreeMap<OutageScope, LocalizedIncident> = BTreeMap::new();
        for inc in incidents {
            match by_scope.get_mut(&inc.scope) {
                Some(existing) => absorb(&mut existing.affected, inc.affected),
                None => {
                    by_scope.insert(inc.scope, inc);
                }
            }
        }
        let mut cities: BTreeMap<CityId, Vec<OutageScope>> = BTreeMap::new();
        for scope in by_scope.keys() {
            if let Some(c) = self.scope_city(*scope) {
                cities.entry(c).or_default().push(*scope);
            }
        }
        for (c, scopes) in cities {
            if scopes.len() < 2 {
                continue;
            }
            let sharp: Vec<OutageScope> =
                scopes.iter().copied().filter(|s| !matches!(s, OutageScope::City(_))).collect();
            let target = if sharp.len() == 1 { sharp[0] } else { OutageScope::City(c) };
            let mut merged = by_scope.remove(&scopes[0]).expect("scope present");
            for s in &scopes[1..] {
                let inc = by_scope.remove(s).expect("scope present");
                absorb(&mut merged.affected, inc.affected);
            }
            merged.scope = target;
            by_scope.insert(target, merged);
        }
        by_scope.into_values().collect()
    }
}

/// Rule 6 for pendings: the same suspect set, whatever its order.
fn merge_pendings(pendings: Vec<PendingIncident>) -> Vec<PendingIncident> {
    let mut by_set: BTreeMap<BTreeSet<FacilityId>, PendingIncident> = BTreeMap::new();
    for p in pendings {
        let set: BTreeSet<FacilityId> = p.candidates.iter().map(|c| c.facility).collect();
        match by_set.get_mut(&set) {
            Some(existing) => {
                absorb(&mut existing.affected, p.affected);
                existing.booked_unresolved += p.booked_unresolved;
                if existing.fallback.is_none() {
                    existing.fallback = p.fallback;
                }
            }
            None => {
                by_set.insert(set, p);
            }
        }
    }
    by_set.into_values().collect()
}

/// One tag's evidence: its signals' near and far ends, their deviated
/// routes sorted and unique, and every (route, tag, near end) crossing in
/// signal order.
fn evidence(signals: &[&OutageSignal]) -> Affected {
    let mut affected = Affected::default();
    let mut keys = BTreeSet::new();
    for s in signals {
        affected.near.insert(s.near);
        affected.far.extend(&s.far_ases);
        for k in &s.deviated {
            keys.insert(*k);
            affected.watch.push((*k, s.pop, s.near));
        }
    }
    affected.keys = keys.into_iter().collect();
    affected
}

fn absorb(into: &mut Affected, other: Affected) {
    into.near.extend(other.near);
    into.far.extend(other.far);
    let keys: BTreeSet<_> = into.keys.drain(..).chain(other.keys).collect();
    into.keys = keys.into_iter().collect();
    into.watch.extend(other.watch);
}

fn candidate(facility: FacilityId, s: &Score) -> FacilityCandidate {
    FacilityCandidate { facility, coverage: s.coverage, containment: s.containment }
}

/// Suspects best first: containment, then coverage, then the tag's own
/// buildings, then facility id; a building named twice is ranked once.
fn rank(suspects: Vec<Suspect>) -> Vec<FacilityCandidate> {
    let mut once: BTreeMap<FacilityId, Suspect> = BTreeMap::new();
    for s in suspects {
        let f = s.candidate.facility;
        if once.get(&f).is_none_or(|kept| s.own && !kept.own) {
            once.insert(f, s);
        }
    }
    let mut out: Vec<Suspect> = once.into_values().collect();
    out.sort_by(|a, b| {
        let key = |s: &Suspect| {
            (
                Reverse(Total(s.candidate.containment)),
                Reverse(Total(s.candidate.coverage)),
                !s.own,
                s.candidate.facility,
            )
        };
        key(a).cmp(&key(b))
    });
    out.into_iter().map(|s| s.candidate).collect()
}

/// Far-end buildings clearing the coverage margin: one is the verdict;
/// several are a tie for probes, the best of them the fallback.
fn far_verdict(far: &[Suspect]) -> Option<Verdict> {
    let passing: Vec<Suspect> = far
        .iter()
        .filter(|s| s.candidate.coverage >= MARGIN)
        .map(|s| Suspect { own: s.own, candidate: s.candidate })
        .collect();
    match passing.len() {
        0 => None,
        1 => Some(Verdict::confident(OutageScope::Facility(passing[0].candidate.facility))),
        _ => {
            let ranked = rank(passing);
            Some(Verdict {
                scope: Some(OutageScope::Facility(ranked[0].facility)),
                suspects: ranked,
            })
        }
    }
}

/// A score ordered by `f64::total_cmp`.
#[derive(PartialEq)]
struct Total(f64);

impl Eq for Total {}

impl PartialOrd for Total {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Total {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}
