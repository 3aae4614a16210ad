//! The Kepler system: all modules wired per the paper's Figure 6.
//!
//! Records flow `input` → `monitor`; everything else happens once per
//! closed bin, in [`Kepler`]'s `handle_bin`, as a pipeline of stages:
//!
//! 1. **resolve** — the dense bin outcome returns to display space;
//! 2. **revalidate_deferred** — suspicions parked during a probe-backend
//!    brownout get their campaign once the backend is back online;
//! 3. **investigate** — classify the bin's signals, localize PoP-level
//!    groups ([`crate::investigate`]);
//! 4. **settle_pending** — low-confidence localizations are settled from
//!    accumulated evidence or a targeted campaign ([`crate::validate`]);
//! 5. **confirm** — the §4.4 baseline re-probe discards what the data
//!    plane contradicts;
//! 6. **record** — survivors enter the incident lifecycle
//!    ([`crate::tracker`]);
//! 7. **fuse_signals** — auxiliary detectors corroborate or open
//!    ([`crate::signal`]);
//! 8. **restore** — probe-driven, then control-plane restoration checks.
//!
//! Each stage hands the next one values; the reasons behind a settlement
//! are [`crate::validate`]'s `Why`, and [`ClassCounts`] is their tally.

use crate::config::KeplerConfig;
use crate::events::{OutageReport, OutageScope};
use crate::input::InputModule;
use crate::intern::{DenseRouteEvent, Interner};
use crate::investigate::{Affected, Investigator, LocalizedIncident, PendingIncident};
use crate::monitor::{DenseBinOutcome, Monitor};
use crate::signal::{BinView, SignalKind, SignalSource, SourceContribution, SourceSignal};
use crate::tracker::{merge_sources, IncidentMeta, Tracker};
use crate::validate::{self, settle, Settlement, Why};
use kepler_bgpstream::{BgpRecord, GapTracker, Timestamp};
use kepler_docmine::{CommunityDictionary, LocationTag};
use kepler_probe::{BackendHealth, ProbeReport, ProbeRequest, Prober, RestorationProber};
use kepler_topology::{ColocationMap, FacilityId, OrgMap};
use std::collections::BTreeMap;

/// Everything Kepler needs to start.
pub struct KeplerInputs {
    /// Pipeline configuration.
    pub config: KeplerConfig,
    /// The community dictionary (mined or ground-truth).
    pub dictionary: CommunityDictionary,
    /// The colocation map (merged from public sources).
    pub colo: ColocationMap,
    /// AS-to-organization map.
    pub orgs: OrgMap,
}

/// Classification counters over a run (drives the Figure 7a sweep).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// Signal groups dismissed as link-level.
    pub link_level: usize,
    /// Signal groups dismissed as AS-level.
    pub as_level: usize,
    /// Signal groups dismissed as operator-level.
    pub operator_level: usize,
    /// PoP-level incidents localized.
    pub pop_level: usize,
    /// PoP-level groups that could not be localized.
    pub unresolved: usize,
    /// Incidents discarded because the data plane contradicted them.
    pub dataplane_rejected: usize,
    /// Ambiguous localizations resolved to a single facility by targeted
    /// probes.
    pub probe_confirmed: usize,
    /// Suspicions suppressed because probes refuted every candidate (or
    /// the fallback epicenter).
    pub probe_refuted: usize,
    /// Probe campaigns that could not decide (fell back to the passive
    /// verdict).
    pub probe_inconclusive: usize,
    /// Pending localizations settled from the evidence accumulated on an
    /// already-open incident (no fresh campaign was needed).
    pub evidence_reused: usize,
    /// Incidents closed by restoration re-probes (before the BGP watch
    /// list recovered).
    pub probe_closed: usize,
    /// Pending localizations settled passively because the measurement
    /// backend was degraded or offline (campaign below its completeness
    /// quorum): the detector kept running on control-plane evidence
    /// alone instead of blocking on the platform.
    pub degraded_passive: usize,
    /// Passively-settled incidents later upgraded to probe-confirmed by
    /// re-validation after the backend recovered.
    pub deferred_revalidated: usize,
    /// Forecast-deficit signals raised (signal-bins, across PoPs).
    pub forecast_signals: usize,
    /// Delay-anomaly signals raised (signal-bins, across sites).
    pub delay_signals: usize,
    /// Auxiliary signals that corroborated an already-open incident.
    pub fused_corroborations: usize,
    /// Incidents opened by auxiliary signals alone (no deviation group).
    pub fused_opens: usize,
    /// Auxiliary signals suppressed below the fusion opening quorum.
    pub aux_suppressed: usize,
}

/// A pending localization parked while the measurement backend was
/// degraded, waiting for re-validation once the platform recovers.
struct DeferredPending {
    pending: PendingIncident,
    /// Re-validation rounds already spent on this pending.
    attempts: u32,
}

/// Most pendings parked for backend recovery at any time; beyond this the
/// oldest suspicions stay passive-only (bounded memory under a brownout
/// that never ends).
const DEFER_CAP: usize = 32;
/// Re-validation rounds before a parked pending is dropped for good.
const DEFER_ATTEMPTS: u32 = 2;

/// The Kepler detection system.
pub struct Kepler {
    config: KeplerConfig,
    input: InputModule,
    gap: GapTracker,
    interner: Interner,
    monitor: Monitor,
    investigator: Investigator,
    tracker: Tracker,
    prober: Option<Box<dyn Prober>>,
    restoration: Option<Box<dyn RestorationProber>>,
    signal_sources: Vec<Box<dyn SignalSource>>,
    deferred: Vec<DeferredPending>,
    counts: ClassCounts,
    last_time: Timestamp,
    /// Reusable buffer for one record's decoded events.
    event_scratch: Vec<DenseRouteEvent>,
    /// Monitor bins handled so far — the serve daemon's commit clock.
    bins_closed: u64,
    /// End of the most recently handled bin.
    last_bin_end: Timestamp,
}

impl Kepler {
    /// Builds the system.
    pub fn new(inputs: KeplerInputs) -> Self {
        let config = inputs.config.clone();
        Kepler {
            input: InputModule::new(inputs.dictionary, inputs.colo.clone()),
            gap: GapTracker::new(config.quarantine_secs),
            interner: Interner::new(),
            monitor: Monitor::new(config.clone()),
            investigator: Investigator::new(config.clone(), inputs.colo, inputs.orgs),
            tracker: Tracker::new(config.clone()),
            prober: None,
            restoration: None,
            signal_sources: Vec::new(),
            deferred: Vec::new(),
            counts: ClassCounts::default(),
            config,
            last_time: 0,
            event_scratch: Vec::new(),
            bins_closed: 0,
            last_bin_end: 0,
        }
    }

    /// Attaches an active-measurement prober (`kepler-probe` engine or a
    /// deployment equivalent). Localizations the investigator flags as
    /// low-confidence are handed to it for facility-level disambiguation,
    /// and every kept incident to its §4.4 baseline re-probe
    /// ([`Prober::baseline`]). A prober without a baseline corpus answers
    /// that re-probe with `None`, so it cannot change outcomes for events
    /// it does not probe.
    ///
    /// ```
    /// use kepler_core::{Kepler, KeplerConfig, KeplerInputs};
    /// use kepler_bgpstream::Timestamp;
    /// use kepler_docmine::CommunityDictionary;
    /// use kepler_probe::{ProbeReport, ProbeRequest, Prober};
    /// use kepler_topology::{ColocationMap, OrgMap};
    ///
    /// /// The contract made executable: a stream without ambiguous
    /// /// localizations never asks the prober for a campaign.
    /// struct NeverConsulted;
    /// impl Prober for NeverConsulted {
    ///     fn validate(&mut self, r: &ProbeRequest, _: Timestamp) -> ProbeReport {
    ///         unreachable!("nothing ambiguous to probe: {r:?}")
    ///     }
    /// }
    ///
    /// let inputs = KeplerInputs {
    ///     config: KeplerConfig::default(),
    ///     dictionary: CommunityDictionary::new(),
    ///     colo: ColocationMap::new(),
    ///     orgs: OrgMap::new(),
    /// };
    /// let kepler = Kepler::new(inputs).with_prober(Box::new(NeverConsulted));
    /// assert!(kepler.run(Vec::new()).is_empty());
    /// ```
    pub fn with_prober(mut self, prober: Box<dyn Prober>) -> Self {
        self.prober = Some(prober);
        self
    }

    /// Attaches a restoration prober: open incidents — facility-, IXP-
    /// or city-scoped — are re-probed on an exponential-backoff schedule
    /// and closed once two consecutive checks observe baseline paths
    /// crossing the epicenter again — typically well before the BGP watch list recovers. Without
    /// one, incidents close on control-plane restoration alone.
    pub fn with_restoration_prober(mut self, prober: Box<dyn RestorationProber>) -> Self {
        self.restoration = Some(prober);
        self
    }

    /// Attaches an auxiliary signal source ([`crate::signal`]): polled
    /// once per closed bin and fused with the deviation pipeline under
    /// conservative opening rules (see [`Self::watch_presence`] for the
    /// forecast detector's input series). With no sources attached the
    /// fusion stage is skipped entirely, so plain runs are bit-identical
    /// to pre-fusion behavior.
    pub fn with_signal_source(mut self, source: Box<dyn SignalSource>) -> Self {
        self.signal_sources.push(source);
        self
    }

    /// Attaches remote-peering evidence ([`crate::remote`]) to the
    /// investigator: members the latency heuristic flags as remote at an
    /// exchange never nominate their distant home facilities as
    /// epicenter candidates for that metro's signals. An empty map (the
    /// default) changes nothing.
    pub fn with_remoteness(mut self, remoteness: crate::remote::RemotenessMap) -> Self {
        self.investigator = self.investigator.with_remoteness(remoteness);
        self
    }

    /// Registers a PoP whose per-bin change fraction should be recorded.
    pub fn watch(&mut self, pop: kepler_docmine::LocationTag) {
        let pop = self.interner.pop_id(pop);
        self.monitor.watch(pop);
    }

    /// Registers a PoP whose announced-crossing presence count should be
    /// sampled at every bin close — the forecast signal source's input
    /// series. Typically every trackable facility the forecast detector
    /// should cover.
    pub fn watch_presence(&mut self, pop: kepler_docmine::LocationTag) {
        let pop = self.interner.pop_id(pop);
        self.monitor.watch_presence(pop);
    }

    /// The recorded series of a watched PoP.
    pub fn watch_series(&self, pop: kepler_docmine::LocationTag) -> Option<&[(Timestamp, f64)]> {
        let pop = self.interner.lookup_pop(pop)?;
        self.monitor.watch_series(pop)
    }

    /// Input-module statistics (coverage fractions etc.).
    pub fn input_stats(&self) -> &crate::input::InputStats {
        self.input.stats()
    }

    /// Classification counters.
    pub fn class_counts(&self) -> ClassCounts {
        self.counts
    }

    /// Lifecycle states of the incidents currently tracked (`Open` /
    /// `Recovering`; incidents past the oscillation window have already
    /// been finalized and left this list).
    pub fn incident_states(&self) -> Vec<(OutageScope, crate::events::IncidentState)> {
        self.tracker.live_states()
    }

    /// Monitor bins handled so far. Increments every time a bin closes
    /// anywhere in the stream — a long-running shell (the `kepler-serve`
    /// daemon) polls this after each record and commits incident-state
    /// deltas exactly once per closed-bin batch.
    pub fn bins_closed(&self) -> u64 {
        self.bins_closed
    }

    /// End timestamp of the most recently handled bin (0 before any bin
    /// closes) — the deterministic clock the serve daemon stamps WAL
    /// commits and alerts with.
    pub fn last_bin_end(&self) -> Timestamp {
        self.last_bin_end
    }

    /// Exports the tracker's full lifecycle state in display space
    /// ([`crate::tracker::TrackerState`]) — the image a durable incident
    /// store persists and replays.
    pub fn export_incidents(&self) -> crate::tracker::TrackerState {
        self.tracker.export()
    }

    /// Moves whenever [`export_incidents`](Self::export_incidents) would
    /// return something new ([`crate::tracker::Tracker::revision`]): a
    /// shell that committed the export of one revision skips the export
    /// while the revision stands still.
    pub fn incident_revision(&self) -> u64 {
        self.tracker.revision()
    }

    /// Replaces the tracker's lifecycle state with an exported image,
    /// re-interning its display keys into this run's interner. Used by
    /// the serve daemon on restart: snapshot+WAL recovery reconstructs
    /// the [`crate::tracker::TrackerState`], and this hook seeds the
    /// fresh detector with it before the stream resumes.
    pub fn import_incidents(&mut self, state: &crate::tracker::TrackerState) {
        self.tracker.import(state, &mut self.interner);
    }

    /// The dense-id interner of this run.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The monitor and interner together, for callers that resolve tags
    /// while querying the monitor.
    pub fn monitor_and_interner(&self) -> (&Monitor, &Interner) {
        (&self.monitor, &self.interner)
    }

    /// Feeds one record through the pipeline.
    pub fn process_record(&mut self, rec: &BgpRecord) {
        self.last_time = self.last_time.max(rec.time);
        self.gap.observe(rec);
        if !self.gap.is_usable(rec.collector, rec.peer, rec.time) {
            return;
        }
        let mut events = std::mem::take(&mut self.event_scratch);
        self.input.process_record_events(rec, &mut self.interner, |event| events.push(event));
        for event in events.drain(..) {
            let outcomes = self.monitor.observe(rec.time, &event);
            for outcome in outcomes {
                self.handle_bin(outcome);
            }
        }
        self.event_scratch = events;
    }

    /// [`process_record`](Self::process_record) for callers that hand
    /// over ownership.
    pub fn process_record_owned(&mut self, rec: BgpRecord) {
        self.process_record(&rec);
    }

    /// Advances the bin clock to `t` without feeding a record: every
    /// dense bin ending at or before `t` closes, polling presence
    /// watches and auxiliary signal sources as usual. A quiet stream
    /// still gets monitored — a pure data-plane event (congestion
    /// brownout) leaves no control-plane records at all, but the delay
    /// detector's canary panel must keep tracing through the silence.
    pub fn advance_clock(&mut self, t: Timestamp) {
        self.last_time = self.last_time.max(t);
        let outcomes = self.monitor.advance_to(t);
        for outcome in outcomes {
            self.handle_bin(outcome);
        }
    }

    /// The single call into the targeted-probe engine; `None` without a
    /// prober attached.
    fn campaign(&mut self, request: &ProbeRequest, now: Timestamp) -> Option<ProbeReport> {
        Some(self.prober.as_mut()?.validate(request, now))
    }

    /// Re-validates pendings parked during a backend brownout. Runs only
    /// while the prober reports [`BackendHealth::Online`]; a confirmed
    /// verdict upgrades the passively-settled incident via the tracker's
    /// merge (Unvalidated → Confirmed, fresh evidence attached). A
    /// refutation or inconclusive answer drops the parked pending
    /// silently — the passive incident already on record must not be
    /// erased by a late, post-hoc campaign.
    fn revalidate_deferred(&mut self, now: Timestamp) {
        if self.deferred.is_empty()
            || self.prober.as_ref().map(|p| p.health()) != Some(BackendHealth::Online)
        {
            return;
        }
        for mut d in std::mem::take(&mut self.deferred) {
            let report = self.campaign(&d.pending.request(), now);
            let s = settle(d.pending.fallback, d.pending.booked_unresolved, report);
            self.counts.tally_revalidated(s.why, s.rescued);
            match (s.why, s.scope) {
                // Browned out again mid-drain: requeue, boundedly.
                (Why::Degraded, _) => {
                    d.attempts += 1;
                    if d.attempts < DEFER_ATTEMPTS {
                        self.deferred.push(d);
                    }
                }
                (Why::Confirmed, Some(scope)) => {
                    let inc = d.pending.to_incident(scope);
                    self.tracker.record(
                        &[inc],
                        &[s.meta],
                        self.investigator.colo(),
                        &mut self.interner,
                    );
                }
                _ => {}
            }
        }
    }

    /// Settles the bin's low-confidence localizations (paper §4.4
    /// targeted campaigns). An open incident whose epicenter is among a
    /// group's candidates may already carry a probe-confirmed verdict
    /// fresh enough to reuse; otherwise a campaign decides, and without a
    /// prober each group collapses to its passive fallback.
    fn settle_pending(
        &mut self,
        pending: &[PendingIncident],
        now: Timestamp,
    ) -> Vec<(LocalizedIncident, IncidentMeta)> {
        let mut settled = Vec::new();
        for p in pending {
            let candidates: Vec<FacilityId> = p.candidates.iter().map(|c| c.facility).collect();
            let s = match self.tracker.accumulated_confirmation(&candidates, now) {
                Some((fac, evidence)) => Settlement::reused(fac, evidence, p.booked_unresolved),
                None => settle(p.fallback, p.booked_unresolved, self.campaign(&p.request(), now)),
            };
            self.counts.tally(s.why, s.rescued);
            // Degrade gracefully: the passive fallback is recorded now,
            // the pending is parked for re-validation once the platform
            // recovers.
            if s.why == Why::Degraded && self.deferred.len() < DEFER_CAP {
                self.deferred.push(DeferredPending { pending: p.clone(), attempts: 0 });
            }
            if let Some(scope) = s.scope {
                settled.push((p.to_incident(scope), s.meta));
            }
        }
        settled
    }

    /// Closes incidents whose epicenter is forwarding again. Probe-driven
    /// restoration first: a data-plane close stamps the earlier end time
    /// before the control-plane check can.
    fn restore(&mut self, bin_end: Timestamp) {
        if let Some(rp) = self.restoration.as_mut() {
            self.counts.probe_closed += self.tracker.probe_restorations(bin_end, rp.as_mut());
        }
        self.tracker.check_restorations(bin_end, &self.monitor);
    }

    /// One closed bin through the stages of the module doc.
    fn handle_bin(&mut self, outcome: DenseBinOutcome) {
        // Presence counts leave dense space here: `resolve` below does not
        // carry them (pre-fusion callers never see the field), so the
        // fusion stage samples them before the dense view is dropped.
        let presence: Vec<(LocationTag, u64)> = outcome
            .watch_presence
            .iter()
            .map(|&(pop, n)| (self.interner.pop_tag(pop), n))
            .collect();
        // Resolution back to display space happens here, once per closed
        // bin — the per-event path upstream is entirely dense.
        let outcome = outcome.resolve(&self.interner);
        let now = outcome.bin_start;
        let bin_end = now.saturating_add(self.config.bin_secs);
        self.bins_closed += 1;
        self.last_bin_end = bin_end;
        self.revalidate_deferred(now);
        let investigation = self.investigator.investigate(&outcome);
        self.counts.tally_investigation(&investigation);
        let settled = self.settle_pending(&investigation.pending, now);
        let confident =
            investigation.incidents.into_iter().map(|inc| (inc, IncidentMeta::default()));
        let (kept, meta) = validate::confirm(
            self.prober.as_deref_mut(),
            self.config.t_fail,
            now,
            confident.chain(settled),
            &mut self.counts,
        );
        self.tracker.record(&kept, &meta, self.investigator.colo(), &mut self.interner);
        // Auxiliary detectors run after the deviation pipeline recorded,
        // so their signals corroborate this bin's incidents directly.
        self.fuse_signals(&presence, now);
        self.restore(bin_end);
    }

    /// Polls every attached signal source for the closed bin and fuses
    /// the results with the deviation pipeline:
    ///
    /// * a signal whose scope matches (or is geographically related to)
    ///   an ongoing incident **corroborates** it — the contribution
    ///   merges into the incident's per-source ledger;
    /// * remaining signals group per scope and open an incident only
    ///   under a conservative quorum: two independent kinds agree, a
    ///   delay signal reaches the distinct-pair quorum on its own (its
    ///   evidence is already multi-vantage, and a reachability probe
    ///   would wrongly refute a still-forwarding brownout), or a
    ///   forecast-only suspicion is confirmed by a targeted campaign;
    /// * everything below the quorum is suppressed and counted.
    ///
    /// Incidents opened here carry empty watch lists (no deviated routes
    /// exist), so they close via restoration probes or stay open — the
    /// control-plane restoration check never fires vacuously.
    fn fuse_signals(&mut self, presence: &[(LocationTag, u64)], bin_start: Timestamp) {
        if self.signal_sources.is_empty() {
            return;
        }
        let view = BinView { bin_start, bin_secs: self.config.bin_secs, presence };
        let mut raised: Vec<(SignalKind, SourceSignal)> = Vec::new();
        for source in &mut self.signal_sources {
            let kind = source.kind();
            for sig in source.poll(&view) {
                match kind {
                    SignalKind::Forecast => self.counts.forecast_signals += 1,
                    SignalKind::Delay => self.counts.delay_signals += 1,
                    SignalKind::Deviation => {}
                }
                raised.push((kind, sig));
            }
        }
        if raised.is_empty() {
            return;
        }
        // Per scope: the contributions no live incident absorbed, and the
        // peak weight of its delay signals.
        let mut standalone: BTreeMap<OutageScope, (Vec<SourceContribution>, usize)> =
            BTreeMap::new();
        for (kind, sig) in raised {
            let contrib =
                SourceContribution { kind, confidence: sig.confidence, first_bin: bin_start };
            if self.tracker.corroborate(sig.scope, contrib, self.investigator.colo()) {
                self.counts.fused_corroborations += 1;
                continue;
            }
            let (contribs, delay_weight) = standalone.entry(sig.scope).or_default();
            contribs.push(contrib);
            if kind == SignalKind::Delay {
                *delay_weight = (*delay_weight).max(sig.weight);
            }
        }
        for (scope, (contribs, delay_weight)) in standalone {
            // One entry per kind: the quorum counts independent kinds.
            let mut sources: Vec<SourceContribution> = Vec::new();
            merge_sources(&mut sources, &contribs);
            let quorum =
                sources.len() >= 2 || delay_weight >= self.config.delay_min_anomalous_pairs;
            let forecast = sources.iter().any(|s| s.kind == SignalKind::Forecast);
            let confirmation = if !quorum && forecast {
                self.probe_forecast_suspicion(scope, bin_start)
            } else {
                None
            };
            if !quorum && confirmation.is_none() {
                self.counts.aux_suppressed += contribs.len();
                continue;
            }
            let far = scope.members(self.investigator.colo());
            let affected = Affected { far, ..Affected::default() };
            let inc = LocalizedIncident { scope, bin_start, affected };
            let meta = IncidentMeta { sources, ..confirmation.unwrap_or_default() };
            self.counts.fused_opens += 1;
            self.tracker.record(&[inc], &[meta], self.investigator.colo(), &mut self.interner);
        }
    }

    /// Runs a synthetic validation campaign for a forecast-only
    /// suspicion: the scope's own facilities are the candidates and its
    /// colocated members the targets. Returns the confirming metadata,
    /// or `None` when the suspicion stays suppressed — no prober
    /// attached, campaign degraded, refuted, or inconclusive.
    fn probe_forecast_suspicion(
        &mut self,
        scope: OutageScope,
        bin_start: Timestamp,
    ) -> Option<IncidentMeta> {
        let colo = self.investigator.colo();
        let candidates = scope.facilities(colo);
        if candidates.is_empty() {
            return None;
        }
        let request = ProbeRequest {
            pop: scope.into(),
            bin_start,
            candidates,
            affected_far: scope.members(colo).into_iter().collect(),
            affected_near: Vec::new(),
        };
        let s = settle(None, 0, self.campaign(&request, bin_start));
        // A degraded campaign settles nothing here — there is no passive
        // fallback to book under `degraded_passive`.
        if s.why != Why::Degraded {
            self.counts.tally(s.why, s.rescued);
        }
        (s.why == Why::Confirmed).then_some(s.meta)
    }

    /// Feeds a whole stream, then finishes.
    pub fn run<I: IntoIterator<Item = BgpRecord>>(mut self, records: I) -> Vec<OutageReport> {
        for rec in records {
            self.process_record(&rec);
        }
        self.finish()
    }

    /// Flushes pending bins and closes the run.
    pub fn finish(mut self) -> Vec<OutageReport> {
        self.finalize()
    }

    /// Like [`finish`](Self::finish), but borrowing: the system stays
    /// alive for post-run inspection ([`class_counts`](Self::class_counts)
    /// includes work done during this final flush — e.g. incidents the
    /// restoration prober closed in the trailing bins).
    pub fn finalize(&mut self) -> Vec<OutageReport> {
        let outcomes =
            self.monitor.advance_to(self.last_time.saturating_add(2 * self.config.bin_secs));
        for outcome in outcomes {
            self.handle_bin(outcome);
        }
        self.tracker.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::OutageScope;
    use crate::validate::tests::FixedProbe;
    use kepler_bgp::{AsPath, Asn, BgpUpdate, Community, PathAttributes, Prefix};
    use kepler_bgpstream::{CollectorId, PeerId, RecordPayload};
    use kepler_docmine::LocationTag;
    use kepler_probe::ProbeResult;
    use kepler_topology::entities::Facility;
    use kepler_topology::{CityId, Continent, FacilityId, GeoPoint};

    const DAY: u64 = 86_400;
    const T0: u64 = 1_000_000;

    /// A synthetic world: facility 0 with near-end ASes 10,11,12 tagging
    /// routes received from far-end ASes 20..26, observed by peer AS 3356.
    fn inputs() -> KeplerInputs {
        let mut colo = ColocationMap::new();
        colo.add_facility(Facility {
            id: FacilityId(0),
            name: "F0".into(),
            address: String::new(),
            postcode: "P0".into(),
            country: "GB".into(),
            city: CityId(0),
            continent: Continent::Europe,
            point: GeoPoint::new(51.5, 0.0),
            operator: "Op".into(),
        });
        for a in [10u32, 11, 12, 20, 21, 22, 23, 24, 25] {
            colo.add_fac_member(FacilityId(0), Asn(a));
        }
        let mut dictionary = CommunityDictionary::new();
        for near in [10u16, 11, 12] {
            dictionary.insert(Community::new(near, 500), LocationTag::Facility(FacilityId(0)));
        }
        KeplerInputs {
            config: KeplerConfig { min_stable_paths: 1, ..KeplerConfig::default() },
            dictionary,
            colo,
            orgs: OrgMap::new(),
        }
    }

    fn peer() -> PeerId {
        PeerId { asn: Asn(3356), addr: "10.0.0.1".parse().unwrap() }
    }

    fn announce(t: u64, near: u32, far: u32, pfx: u8) -> BgpRecord {
        let attrs = PathAttributes::with_path_and_communities(
            AsPath::from_sequence([3356, near, far]),
            vec![Community::new(near as u16, 500)],
        );
        BgpRecord {
            time: t,
            collector: CollectorId(0),
            peer: peer(),
            payload: RecordPayload::Update(BgpUpdate::announce(
                vec![Prefix::v4(20, pfx, 0, 0, 16)],
                attrs,
            )),
        }
    }

    fn announce_detour(t: u64, far: u32, pfx: u8) -> BgpRecord {
        // Route now avoids the facility (no community).
        let attrs = PathAttributes::with_path_and_communities(
            AsPath::from_sequence([3356, 99, far]),
            vec![],
        );
        BgpRecord {
            time: t,
            collector: CollectorId(0),
            peer: peer(),
            payload: RecordPayload::Update(BgpUpdate::announce(
                vec![Prefix::v4(20, pfx, 0, 0, 16)],
                attrs,
            )),
        }
    }

    /// Builds the base table: prefix i (0..6) via near 10+i%3, far 20+i.
    fn base_records() -> Vec<BgpRecord> {
        (0..6u8).map(|i| announce(T0, 10 + (i % 3) as u32, 20 + i as u32, i)).collect()
    }

    fn outage_records(t: u64) -> Vec<BgpRecord> {
        (0..6u8).map(|i| announce_detour(t + i as u64, 20 + i as u32, i)).collect()
    }

    fn restore_records(t: u64) -> Vec<BgpRecord> {
        (0..6u8).map(|i| announce(t + i as u64, 10 + (i % 3) as u32, 20 + i as u32, i)).collect()
    }

    /// Base table, a facility-wide detour at `T0 + 2 days + 1 h`, and the
    /// restoration half an hour later.
    fn outage_stream() -> Vec<BgpRecord> {
        let mut records = base_records();
        let t_fail = T0 + 2 * DAY + 3600;
        records.extend(outage_records(t_fail));
        let t_restore = t_fail + 1800;
        records.extend(restore_records(t_restore));
        // A closing marker so bins flush well past the merge window.
        records.push(announce(t_restore + 13 * 3600, 10, 20, 0));
        records
    }

    #[test]
    fn detects_facility_outage_end_to_end() {
        let t_fail = T0 + 2 * DAY + 3600;
        let t_restore = t_fail + 1800;
        let kepler = Kepler::new(inputs());
        let reports = kepler.run(outage_stream());
        assert_eq!(reports.len(), 1, "{reports:?}");
        let r = &reports[0];
        assert_eq!(r.scope, OutageScope::Facility(FacilityId(0)));
        assert!(r.start >= t_fail - 60 && r.start <= t_fail + 120, "start {}", r.start);
        let end = r.end.expect("restored");
        assert!(end >= t_restore && end <= t_restore + 600, "end {end}");
        assert_eq!(r.affected_near, [Asn(10), Asn(11), Asn(12)].into());
        assert!(r.affected_far.len() >= 3);
    }

    #[test]
    fn advancing_the_clock_between_records_changes_nothing() {
        // Every record is decoded and observed before `process_record`
        // returns — nothing is buffered for the clock to overtake — so
        // closing bins up to each record's time just before and just
        // after feeding it must leave reports and the bin clock exactly
        // as the straight run has them.
        let mut straight = Kepler::new(inputs());
        let mut interleaved = Kepler::new(inputs());
        for rec in outage_stream() {
            straight.process_record(&rec);
            interleaved.advance_clock(rec.time);
            interleaved.process_record(&rec);
            interleaved.advance_clock(rec.time);
        }
        let expected = straight.finalize();
        assert_eq!(expected.len(), 1, "{expected:?}");
        assert_eq!(interleaved.finalize(), expected);
        assert_eq!(interleaved.bins_closed(), straight.bins_closed());
        assert_eq!(interleaved.last_bin_end(), straight.last_bin_end());
        assert_eq!(interleaved.input_stats(), straight.input_stats());
    }

    #[test]
    fn single_as_event_is_not_an_outage() {
        let mut records = base_records();
        let t_ev = T0 + 2 * DAY + 3600;
        // Only near-AS 10's routes detour (prefixes 0 and 3).
        records.push(announce_detour(t_ev, 20, 0));
        records.push(announce_detour(t_ev + 1, 23, 3));
        records.push(announce(t_ev + 10_000, 11, 21, 1));
        let kepler = Kepler::new(inputs());
        let reports = kepler.run(records);
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn dataplane_rejection_discards_incident() {
        let mut records = base_records();
        let t_fail = T0 + 2 * DAY + 3600;
        records.extend(outage_records(t_fail));
        records.push(announce(t_fail + 13 * 3600, 10, 20, 0));
        let kepler = Kepler::new(inputs()).with_prober(Box::new(FixedProbe(Some(ProbeResult {
            still_crossing: 10,
            baseline: 10,
        }))));
        let reports = kepler.run(records);
        assert!(reports.is_empty(), "dataplane contradiction discards: {reports:?}");
    }

    #[test]
    fn dataplane_confirmation_marks_report() {
        let mut records = base_records();
        let t_fail = T0 + 2 * DAY + 3600;
        records.extend(outage_records(t_fail));
        records.push(announce(t_fail + 13 * 3600, 10, 20, 0));
        let kepler = Kepler::new(inputs()).with_prober(Box::new(FixedProbe(Some(ProbeResult {
            still_crossing: 0,
            baseline: 10,
        }))));
        let reports = kepler.run(records);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].dataplane_confirmed, Some(true));
    }

    #[test]
    fn collector_session_loss_is_not_an_outage() {
        use kepler_bgp::{PeerState, StateChange};
        let mut records = base_records();
        let t_ev = T0 + 2 * DAY + 3600;
        records.push(BgpRecord {
            time: t_ev,
            collector: CollectorId(0),
            peer: peer(),
            payload: RecordPayload::State(StateChange {
                old: PeerState::Established,
                new: PeerState::Idle,
            }),
        });
        // The session drop is followed by withdraw-looking noise that must
        // be ignored because the feed is down.
        for i in 0..6u8 {
            records.push(BgpRecord {
                time: t_ev + 5,
                collector: CollectorId(0),
                peer: peer(),
                payload: RecordPayload::Update(BgpUpdate::withdraw(vec![Prefix::v4(
                    20, i, 0, 0, 16,
                )])),
            });
        }
        records.push(announce(t_ev + 10_000, 10, 20, 0));
        let kepler = Kepler::new(inputs());
        let reports = kepler.run(records);
        assert!(reports.is_empty(), "{reports:?}");
    }

    /// Twin world: the near-end tag is facility 0; the affected far-ends
    /// 20..=25 are listed (per the colocation map) in *both* facility 1
    /// and facility 2 — passive localization ties and needs probes.
    fn twin_inputs() -> KeplerInputs {
        let mut colo = ColocationMap::new();
        for (id, city) in [(0u32, 0u32), (1, 1), (2, 1)] {
            colo.add_facility(Facility {
                id: FacilityId(id),
                name: format!("F{id}"),
                address: String::new(),
                postcode: format!("P{id}"),
                country: "GB".into(),
                city: CityId(city),
                continent: Continent::Europe,
                point: GeoPoint::new(51.5, 0.0),
                operator: "Op".into(),
            });
        }
        for a in [10u32, 11, 12] {
            colo.add_fac_member(FacilityId(0), Asn(a));
        }
        for a in 20..=25u32 {
            colo.add_fac_member(FacilityId(1), Asn(a));
            colo.add_fac_member(FacilityId(2), Asn(a));
        }
        let mut dictionary = CommunityDictionary::new();
        for near in [10u16, 11, 12] {
            dictionary.insert(Community::new(near, 500), LocationTag::Facility(FacilityId(0)));
        }
        KeplerInputs {
            config: KeplerConfig { min_stable_paths: 1, ..KeplerConfig::default() },
            dictionary,
            colo,
            orgs: OrgMap::new(),
        }
    }

    /// A prober answering from a script instead of measurements.
    struct ScriptedProber {
        /// Facility to confirm; every other candidate is refuted.
        confirm: Option<u32>,
        /// Answer Inconclusive for everything instead.
        inconclusive: bool,
    }

    impl kepler_probe::Prober for ScriptedProber {
        fn validate(
            &mut self,
            request: &kepler_probe::ProbeRequest,
            _now: Timestamp,
        ) -> kepler_probe::ProbeReport {
            use kepler_probe::{FacilityVerdict, HopEvidence, PostState, ProbeReport};
            let mut report = ProbeReport::default();
            for &c in &request.candidates {
                let verdict = if self.inconclusive {
                    FacilityVerdict::Inconclusive
                } else if Some(c.0) == self.confirm {
                    FacilityVerdict::Confirmed
                } else {
                    FacilityVerdict::Refuted
                };
                if verdict == FacilityVerdict::Confirmed {
                    report.evidence.push(HopEvidence {
                        vantage: Asn(900),
                        target: *request.affected_far.first().unwrap_or(&Asn(0)),
                        facility: c,
                        pre_hop: 2,
                        post: PostState::Detoured,
                    });
                }
                report.verdicts.push((c, verdict));
                report.probes_sent += 4;
            }
            report
        }
    }

    fn twin_records() -> Vec<BgpRecord> {
        let mut records = base_records();
        let t_fail = T0 + 2 * DAY + 3600;
        records.extend(outage_records(t_fail));
        records.push(announce(t_fail + 13 * 3600, 10, 20, 0));
        records
    }

    #[test]
    fn twin_without_prober_falls_back_to_best_passive_guess() {
        let reports = Kepler::new(twin_inputs()).run(twin_records());
        assert_eq!(reports.len(), 1, "{reports:?}");
        // The tie collapses to the first candidate — an arbitrary pick.
        assert_eq!(reports[0].scope, OutageScope::Facility(FacilityId(1)));
        assert_eq!(reports[0].validation, crate::events::ValidationStatus::Unvalidated);
    }

    #[test]
    fn prober_disambiguates_the_twin_and_marks_the_report() {
        let kepler = Kepler::new(twin_inputs())
            .with_prober(Box::new(ScriptedProber { confirm: Some(2), inconclusive: false }));
        let reports = kepler.run(twin_records());
        assert_eq!(reports.len(), 1, "{reports:?}");
        // The probe verdict overrides the passive tie-break.
        assert_eq!(reports[0].scope, OutageScope::Facility(FacilityId(2)));
        assert_eq!(reports[0].validation, crate::events::ValidationStatus::Confirmed);
        assert!(!reports[0].probe_evidence.is_empty(), "verdicts carry hop evidence");
    }

    #[test]
    fn refuted_suspicion_suppresses_the_report() {
        let mut kepler = Kepler::new(twin_inputs())
            .with_prober(Box::new(ScriptedProber { confirm: None, inconclusive: false }));
        let counts_before = kepler.class_counts();
        assert_eq!(counts_before.probe_refuted, 0);
        for r in twin_records() {
            kepler.process_record(&r);
        }
        let reports = kepler.finish();
        assert!(reports.is_empty(), "all candidates refuted: {reports:?}");
    }

    #[test]
    fn inconclusive_probing_falls_back_and_is_marked() {
        let kepler = Kepler::new(twin_inputs())
            .with_prober(Box::new(ScriptedProber { confirm: None, inconclusive: true }));
        let reports = kepler.run(twin_records());
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(reports[0].scope, OutageScope::Facility(FacilityId(1)));
        assert_eq!(reports[0].validation, crate::events::ValidationStatus::Inconclusive);
    }

    #[test]
    fn prober_never_touches_confident_localizations() {
        // The original unambiguous fixture: localization is confident, so
        // the prober runs no campaign, and without a baseline corpus its
        // re-probe has no evidence: outcomes are bit-identical.
        let mut records = base_records();
        let t_fail = T0 + 2 * DAY + 3600;
        records.extend(outage_records(t_fail));
        let t_restore = t_fail + 1800;
        records.extend(restore_records(t_restore));
        records.push(announce(t_restore + 13 * 3600, 10, 20, 0));
        let plain = Kepler::new(inputs()).run(records.clone());
        /// A prober that fails the test if it is ever asked for a campaign.
        struct Tripwire;
        impl kepler_probe::Prober for Tripwire {
            fn validate(
                &mut self,
                request: &kepler_probe::ProbeRequest,
                _now: Timestamp,
            ) -> kepler_probe::ProbeReport {
                panic!("confident localization must not be probed: {request:?}");
            }
        }
        let probed = Kepler::new(inputs()).with_prober(Box::new(Tripwire)).run(records);
        assert_eq!(plain, probed, "attaching a prober must not change untouched events");
    }

    /// A prober with a call budget: validates like [`ScriptedProber`]
    /// (confirming facility 2) but panics past `max_calls`.
    struct BudgetedProber {
        calls: std::sync::Arc<std::sync::atomic::AtomicUsize>,
        max_calls: usize,
    }

    impl kepler_probe::Prober for BudgetedProber {
        fn validate(
            &mut self,
            request: &kepler_probe::ProbeRequest,
            now: Timestamp,
        ) -> kepler_probe::ProbeReport {
            let n = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            assert!(
                n < self.max_calls,
                "accumulated evidence must be reused instead of re-probing: {request:?}"
            );
            let mut inner = ScriptedProber { confirm: Some(2), inconclusive: false };
            inner.validate(request, now)
        }
    }

    #[test]
    fn accumulated_evidence_is_reused_instead_of_reprobing() {
        // Twin world with three extra far-ends (26..28) so a *second* bin
        // of deviations can raise a fresh pending group while the first
        // incident is still open.
        let mut inputs = twin_inputs();
        for a in 26..=28u32 {
            inputs.colo.add_fac_member(FacilityId(1), Asn(a));
            inputs.colo.add_fac_member(FacilityId(2), Asn(a));
        }
        let mut records: Vec<BgpRecord> =
            (0..9u8).map(|i| announce(T0, 10 + (i % 3) as u32, 20 + i as u32, i)).collect();
        let t_fail = T0 + 2 * DAY + 3600;
        // Bin A: prefixes 0..6 detour; bin B (two bins later): 6..9.
        records.extend((0..6u8).map(|i| announce_detour(t_fail + i as u64, 20 + i as u32, i)));
        records.extend((6..9u8).map(|i| announce_detour(t_fail + 120, 20 + i as u32, i)));
        records.push(announce(t_fail + 13 * 3600, 10, 20, 0));
        let calls = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut kepler = Kepler::new(inputs)
            .with_prober(Box::new(BudgetedProber { calls: calls.clone(), max_calls: 1 }));
        for r in records {
            kepler.process_record_owned(r);
        }
        let counts = kepler.class_counts();
        let reports = kepler.finish();
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 1, "one campaign total");
        assert!(counts.evidence_reused >= 1, "{counts:?}");
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(reports[0].scope, OutageScope::Facility(FacilityId(2)));
        assert_eq!(reports[0].validation, crate::events::ValidationStatus::Confirmed);
        // The second bin's far-ends merged into the same incident.
        assert!(reports[0].affected_far.contains(&Asn(26)), "{reports:?}");
    }

    /// A prober that browns out for its first `degraded_remaining`
    /// campaigns (degraded reports, health `Offline`) and then answers
    /// cleanly, confirming facility 2.
    struct BrownoutProber {
        degraded_remaining: std::cell::Cell<usize>,
    }

    impl kepler_probe::Prober for BrownoutProber {
        fn validate(
            &mut self,
            request: &kepler_probe::ProbeRequest,
            now: Timestamp,
        ) -> kepler_probe::ProbeReport {
            let left = self.degraded_remaining.get();
            if left > 0 {
                self.degraded_remaining.set(left - 1);
                return kepler_probe::ProbeReport {
                    completeness: 0.0,
                    degraded: true,
                    ..Default::default()
                };
            }
            ScriptedProber { confirm: Some(2), inconclusive: false }.validate(request, now)
        }

        fn health(&self) -> kepler_probe::BackendHealth {
            if self.degraded_remaining.get() > 0 {
                kepler_probe::BackendHealth::Offline
            } else {
                kepler_probe::BackendHealth::Online
            }
        }
    }

    #[test]
    fn degraded_backend_falls_back_to_passive_verdicts() {
        // The backend never recovers: the twin tie settles on the passive
        // fallback, unvalidated, instead of blocking on probes.
        let kepler = Kepler::new(twin_inputs()).with_prober(Box::new(BrownoutProber {
            degraded_remaining: std::cell::Cell::new(usize::MAX),
        }));
        let mut kepler = kepler;
        for r in twin_records() {
            kepler.process_record_owned(r);
        }
        let counts = kepler.class_counts();
        let reports = kepler.finish();
        assert!(counts.degraded_passive >= 1, "{counts:?}");
        assert_eq!(counts.probe_confirmed, 0);
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(reports[0].scope, OutageScope::Facility(FacilityId(1)), "passive tie-break");
        assert_eq!(reports[0].validation, crate::events::ValidationStatus::Unvalidated);
        assert_eq!(reports[0].probe_completeness, 0.0, "degraded campaign recorded as such");
    }

    #[test]
    fn deferred_pending_is_revalidated_after_recovery() {
        // One brownout campaign, then the backend heals: the parked
        // pending re-validates on a later bin close and upgrades the
        // passive incident to probe-confirmed.
        let kepler = Kepler::new(twin_inputs())
            .with_prober(Box::new(BrownoutProber { degraded_remaining: std::cell::Cell::new(1) }));
        let mut kepler = kepler;
        let mut records = twin_records();
        // Keepalives on a never-deviating prefix drive later bin closes
        // so the deferred drain gets a chance to run.
        let t_fail = T0 + 2 * DAY + 3600;
        for k in 1..10u64 {
            records.push(announce(t_fail + k * 300, 10, 20, 0));
        }
        for r in records {
            kepler.process_record_owned(r);
        }
        let counts = kepler.class_counts();
        let reports = kepler.finish();
        assert_eq!(counts.degraded_passive, 1, "{counts:?}");
        assert_eq!(counts.deferred_revalidated, 1, "{counts:?}");
        assert_eq!(reports.len(), 1, "{reports:?}");
        // The passive guess (facility 1) and the late confirmation
        // (facility 2) reconcile to their shared city per the tracker's
        // merge rules; the verdict upgrade sticks.
        assert_eq!(reports[0].validation, crate::events::ValidationStatus::Confirmed);
        assert!(!reports[0].probe_evidence.is_empty(), "late evidence attached");
    }

    #[test]
    fn late_confirmation_gives_back_the_parked_unresolved_booking() {
        // Far-ends 20..=28 sit in both twin buildings but only 20..=25
        // detour: neither building clears the co-location margin, so the
        // group is passively unresolvable — booked `unresolved`, pending
        // without a fallback. Its first campaign is degraded, so it is
        // parked with nothing on record.
        let run = |degraded_campaigns: usize| {
            let mut inputs = twin_inputs();
            for a in 26..=28u32 {
                inputs.colo.add_fac_member(FacilityId(1), Asn(a));
                inputs.colo.add_fac_member(FacilityId(2), Asn(a));
            }
            let mut records: Vec<BgpRecord> =
                (0..9u8).map(|i| announce(T0, 10 + (i % 3) as u32, 20 + i as u32, i)).collect();
            let t_fail = T0 + 2 * DAY + 3600;
            records.extend(outage_records(t_fail));
            // Keepalives on a never-deviating prefix drive later bin closes.
            records.extend((1..10u64).map(|k| announce(t_fail + k * 300, 12, 28, 8)));
            let mut kepler = Kepler::new(inputs).with_prober(Box::new(BrownoutProber {
                degraded_remaining: std::cell::Cell::new(degraded_campaigns),
            }));
            for r in records {
                kepler.process_record_owned(r);
            }
            (kepler.class_counts(), kepler.finish())
        };
        // The backend never heals: the booking stands, nothing is reported.
        let (counts, reports) = run(usize::MAX);
        assert_eq!((counts.degraded_passive, counts.unresolved), (1, 1), "{counts:?}");
        assert!(reports.is_empty(), "{reports:?}");
        // It heals after that one campaign: re-validation confirms
        // facility 2, and the booking is given back exactly as a
        // first-round confirmation gives it back.
        let (counts, reports) = run(1);
        assert_eq!((counts.degraded_passive, counts.deferred_revalidated), (1, 1), "{counts:?}");
        assert_eq!(counts.unresolved, 0, "probes localized it after all: {counts:?}");
        assert_eq!(counts.probe_confirmed, 0, "an upgrade, not a fresh campaign: {counts:?}");
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(reports[0].scope, OutageScope::Facility(FacilityId(2)));
        assert_eq!(reports[0].validation, crate::events::ValidationStatus::Confirmed);
    }

    /// Passes every report of the inner prober on, keeping a copy.
    struct TapProber<P> {
        inner: P,
        seen: std::rc::Rc<std::cell::RefCell<Vec<ProbeReport>>>,
    }

    impl<P: Prober> Prober for TapProber<P> {
        fn validate(&mut self, request: &ProbeRequest, now: Timestamp) -> ProbeReport {
            let report = self.inner.validate(request, now);
            self.seen.borrow_mut().push(report.clone());
            report
        }

        fn health(&self) -> BackendHealth {
            self.inner.health()
        }
    }

    #[test]
    fn class_counts_are_the_fold_of_tally_over_the_whys_emitted() {
        // The twin stream raises pendings whose passive fallback is
        // facility 1 with no `unresolved` booking (pinned by the tests
        // above), so the `Why` of every campaign is recomputable from the
        // report the prober handed over — and the run's settlement
        // counters must be exactly the tally of those.
        fn tapped(inner: impl Prober + 'static) -> Vec<Why> {
            let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let tap = TapProber { inner, seen: seen.clone() };
            let mut kepler = Kepler::new(twin_inputs()).with_prober(Box::new(tap));
            for r in twin_records() {
                kepler.process_record_owned(r);
            }
            kepler.finalize();
            let counts = kepler.class_counts();
            // Classification is not a settlement: carried over as is.
            let mut folded = ClassCounts {
                link_level: counts.link_level,
                as_level: counts.as_level,
                operator_level: counts.operator_level,
                pop_level: counts.pop_level,
                ..ClassCounts::default()
            };
            let mut whys = Vec::new();
            for report in seen.borrow().iter().cloned() {
                let s = settle(Some(OutageScope::Facility(FacilityId(1))), 0, Some(report));
                folded.tally(s.why, s.rescued);
                whys.push(s.why);
            }
            assert_eq!(counts, folded, "{whys:?}");
            whys
        }
        let scripted = |confirm, inconclusive| ScriptedProber { confirm, inconclusive };
        let brownout = BrownoutProber { degraded_remaining: std::cell::Cell::new(usize::MAX) };
        assert_eq!(tapped(scripted(Some(2), false)), [Why::Confirmed]);
        assert_eq!(tapped(scripted(None, false)), [Why::Refuted]);
        assert_eq!(tapped(scripted(None, true)), [Why::Inconclusive]);
        assert_eq!(tapped(brownout), [Why::Degraded]);
    }

    /// Restoration prober scripted on wall clock: still down before
    /// `up_from`, restored at/after it.
    struct ClockedRestoration {
        up_from: Timestamp,
    }

    impl kepler_probe::RestorationProber for ClockedRestoration {
        fn check(
            &mut self,
            _epicenter: OutageScope,
            _targets: &[Asn],
            _incident_start: Timestamp,
            now: Timestamp,
        ) -> kepler_probe::RestorationReport {
            use kepler_probe::{RestorationReport, RestorationVerdict};
            let verdict = if now >= self.up_from {
                RestorationVerdict::Restored
            } else {
                RestorationVerdict::StillDown
            };
            RestorationReport {
                verdict,
                watched: 4,
                crossing: if verdict == RestorationVerdict::Restored { 4 } else { 0 },
                probes_sent: 8,
                rate_limited: 0,
            }
        }
    }

    #[test]
    fn restoration_probes_close_what_bgp_never_restores() {
        // BGP-wise the outage never ends (no restore records): without a
        // restoration prober the incident runs off the end of the feed.
        let mut records = base_records();
        let t_fail = T0 + 2 * DAY + 3600;
        records.extend(outage_records(t_fail));
        // Keepalives on an unrelated, never-deviating prefix drive bin
        // closes (and thus the re-probe schedule) through the repair.
        for k in 1..200u64 {
            records.push(announce(t_fail + k * 300, 10, 20, 0));
        }
        let plain = Kepler::new(inputs()).run(records.clone());
        assert_eq!(plain.len(), 1);
        assert_eq!(plain[0].end, None, "control plane alone never restores: {plain:?}");
        assert_eq!(plain[0].state, crate::events::IncidentState::Open);
        // The data plane recovers 2h in: two consecutive Restored checks
        // close the incident near the repair, despite BGP silence.
        let repair = t_fail + 7200;
        let kepler = Kepler::new(inputs())
            .with_restoration_prober(Box::new(ClockedRestoration { up_from: repair }));
        let mut kepler = kepler;
        for r in records {
            kepler.process_record_owned(r);
        }
        let counts = kepler.class_counts();
        let reports = kepler.finish();
        assert_eq!(counts.probe_closed, 1, "{counts:?}");
        assert_eq!(reports.len(), 1, "{reports:?}");
        let end = reports[0].end.expect("probe-closed");
        assert!(
            end >= repair && end <= repair + 3600 + 600,
            "closed near the repair (repair {repair}, end {end})"
        );
        assert_eq!(reports[0].state, crate::events::IncidentState::Closed);
    }

    #[test]
    fn restoration_probes_never_close_a_still_down_facility() {
        let mut records = base_records();
        let t_fail = T0 + 2 * DAY + 3600;
        records.extend(outage_records(t_fail));
        for k in 1..200u64 {
            records.push(announce(t_fail + k * 300, 10, 20, 0));
        }
        // The facility never recovers: every check says StillDown.
        let kepler = Kepler::new(inputs())
            .with_restoration_prober(Box::new(ClockedRestoration { up_from: u64::MAX }));
        let reports = kepler.run(records);
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(reports[0].end, None, "a still-down facility must stay open: {reports:?}");
        assert_eq!(reports[0].state, crate::events::IncidentState::Open);
    }

    #[test]
    fn input_stats_track_coverage() {
        let records = base_records();
        let mut kepler = Kepler::new(inputs());
        for r in &records {
            kepler.process_record(r);
        }
        assert_eq!(kepler.input_stats().located, 6);
        assert!((kepler.input_stats().located_fraction() - 1.0).abs() < 1e-9);
    }
}
