//! The probe engine: schedule → measure → analyze, behind the
//! [`Prober`] trait the detector consumes.
//!
//! The engine is generic over an [`AsyncTraceBackend`] — the netsim data
//! plane behind a [`SyncAdapter`] in this repository, a RIPE-Atlas-shaped
//! API client in a deployment. One [`ProbeRequest`] (emitted by
//! `kepler-core`'s investigator when passive localization is ambiguous)
//! becomes, per candidate facility:
//!
//! 1. target selection — affected far-end ASes co-located in the
//!    candidate, from the colocation map;
//! 2. vantage selection — a deterministic panel avoiding the suspect
//!    city;
//! 3. admission — the per-facility token bucket and the platform credit
//!    ledger trim the campaign;
//! 4. measurement — one archived/pre-event baseline trace and one fresh
//!    trace per admitted (vantage, target) pair, each driven through the
//!    async lifecycle (submit → poll → collect, with deadlines and
//!    retries on seeded exponential backoff);
//! 5. analysis — [`PathAnalyzer::judge`] turns the completed pairs into
//!    a [`FacilityVerdict`] with hop-level evidence.
//!
//! A campaign where fewer than a quorum of pairs complete is marked
//! *degraded* ([`ProbeReport::degraded`]); campaign outcomes feed the
//! backend [`HealthTracker`], and while the backend is OFFLINE the engine
//! shrinks to a canary campaign so recovery stays detectable without
//! hammering a dead platform.
//!
//! The engine also holds §4.4's quiet-time baseline corpus
//! ([`ProbeEngine::with_baseline_corpus`]) and answers the baseline
//! re-probe from it ([`Prober::baseline`]) through the same backend.

use crate::analysis::{FacilityVerdict, HopEvidence, MeasuredPair, PathAnalyzer};
use crate::health::{BackendHealth, HealthTracker};
use crate::lifecycle::{drive, AsyncTraceBackend, LifecycleConfig, SyncAdapter};
use crate::restoration::{RestorationProber, RestorationReport, RestorationVerdict};
use crate::schedule::{CreditConfig, CreditLedger, ProbeScheduler, ProbeTask, RateLimit};
use crate::telemetry::{lock_ledger, SharedRttLedger};
use crate::trace::{ProbeResult, Trace};
use crate::vantage::VantageRegistry;
use kepler_bgp::Asn;
use kepler_bgpstream::Timestamp;
use kepler_docmine::LocationTag;
use kepler_topology::{ColocationMap, FacilityId, OutageScope};

/// A validation request from the investigation stage: "passive evidence
/// suspects these colocated facilities — which one is actually dark?"
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeRequest {
    /// The PoP tag whose signals raised the suspicion.
    pub pop: LocationTag,
    /// Start of the bin that raised it.
    pub bin_start: Timestamp,
    /// Candidate epicenters, best passive score first (the paper bounds
    /// this at the up-to-four facilities along a physical link).
    pub candidates: Vec<FacilityId>,
    /// Far-end ASes whose stable paths deviated (probe targets).
    pub affected_far: Vec<Asn>,
    /// Near-end ASes that raised the signals.
    pub affected_near: Vec<Asn>,
}

/// What the engine found for one request.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeReport {
    /// Per-candidate verdicts, in request order.
    pub verdicts: Vec<(FacilityId, FacilityVerdict)>,
    /// Hop-level evidence behind the verdicts.
    pub evidence: Vec<HopEvidence>,
    /// Fresh probes actually sent (baseline lookups are archive reads and
    /// are not counted; retries of one probe are not re-counted).
    pub probes_sent: usize,
    /// Probes dropped by the per-facility rate limiter or the credit
    /// ledger.
    pub rate_limited: usize,
    /// Fraction of planned measurement pairs that completed (1.0 when
    /// nothing needed measuring).
    pub completeness: f64,
    /// Measurement attempts that hit their deadline.
    pub timeouts: usize,
    /// Re-submissions after failed/expired attempts.
    pub retries: usize,
    /// Whether the campaign fell below the completeness quorum (or the
    /// backend was OFFLINE): verdicts are present but must not be
    /// trusted — the detector falls back to passive localization.
    pub degraded: bool,
}

impl Default for ProbeReport {
    fn default() -> Self {
        ProbeReport {
            verdicts: Vec::new(),
            evidence: Vec::new(),
            probes_sent: 0,
            rate_limited: 0,
            completeness: 1.0,
            timeouts: 0,
            retries: 0,
            degraded: false,
        }
    }
}

impl ProbeReport {
    /// The verdict for one candidate, if it was judged.
    pub fn verdict_for(&self, fac: FacilityId) -> Option<FacilityVerdict> {
        self.verdicts.iter().find(|(f, _)| *f == fac).map(|(_, v)| *v)
    }

    /// The single confirmed facility, when exactly one *distinct*
    /// candidate was confirmed down — the disambiguation success case.
    pub fn resolved(&self) -> Option<FacilityId> {
        let confirmed: std::collections::BTreeSet<FacilityId> = self
            .verdicts
            .iter()
            .filter(|(_, v)| *v == FacilityVerdict::Confirmed)
            .map(|(f, _)| *f)
            .collect();
        if confirmed.len() == 1 {
            confirmed.first().copied()
        } else {
            None
        }
    }

    /// Whether every judged candidate was refuted (the suspicion was a
    /// false positive).
    pub fn all_refuted(&self) -> bool {
        !self.verdicts.is_empty()
            && self.verdicts.iter().all(|(_, v)| *v == FacilityVerdict::Refuted)
    }
}

/// A synchronous measurement backend: answers one trace from a vantage
/// AS toward a destination AS at a given time. Times in the past are
/// archive lookups (weekly dumps in the paper); the current time is a
/// live campaign. Wrap in [`SyncAdapter`] to satisfy the engine's
/// [`AsyncTraceBackend`] bound (or just call [`ProbeEngine::new`], which
/// wraps for you).
pub trait TraceBackend {
    /// Measures (or looks up) `vantage → target` at `t`.
    fn trace(&self, vantage: Asn, target: Asn, t: Timestamp) -> Trace;

    /// [`trace`](Self::trace) into a caller-held [`Trace`] (overwritten
    /// whole): a pair re-traced every bin reuses one hop buffer.
    fn trace_into(&self, vantage: Asn, target: Asn, t: Timestamp, out: &mut Trace) {
        *out = self.trace(vantage, target, t);
    }

    /// Traces every pair of a fixed panel at `t`, in panel order, into
    /// the one `scratch` buffer, handing each result to `visit` before
    /// the next pair overwrites it. Each trace equals
    /// [`trace_into`](Self::trace_into) of the same pair, which is what
    /// the default does. A backend may override it to resolve the panel
    /// once and keep per-pair state across calls with the same panel;
    /// `visit` must not call back into the backend.
    fn trace_panel(
        &self,
        panel: &[ProbeTask],
        t: Timestamp,
        scratch: &mut Trace,
        visit: &mut dyn FnMut(&ProbeTask, &Trace),
    ) {
        for pair in panel {
            self.trace_into(pair.vantage, pair.target, t, scratch);
            visit(pair, scratch);
        }
    }
}

/// The validation interface the detector consumes. `kepler-core` calls
/// this for every ambiguous localization when a prober is attached.
pub trait Prober {
    /// Runs the campaigns for one request and reports verdicts.
    fn validate(&mut self, request: &ProbeRequest, now: Timestamp) -> ProbeReport;

    /// Current backend health, for graceful degradation decisions.
    /// Probers without health tracking report permanently ONLINE.
    fn health(&self) -> BackendHealth {
        BackendHealth::Online
    }

    /// The §4.4 baseline re-probe: re-traces at `now` the quiet-time
    /// paths known to cross `epicenter`. `None` (the default) means no
    /// baseline evidence, and so does a result with `baseline == 0`:
    /// the control-plane inference then stands.
    fn baseline(&mut self, _epicenter: OutageScope, _now: Timestamp) -> Option<ProbeResult> {
        None
    }
}

/// Vantage points probing each target.
const VANTAGES_PER_TARGET: usize = 6;
/// Targets measured per candidate facility.
const MAX_TARGETS_PER_CANDIDATE: usize = 10;
/// Candidates judged per request (paper: a physical link traverses up
/// to four facilities).
const MAX_CANDIDATES: usize = 4;
/// How far before the bin the baseline lookup reaches (must predate the
/// event; archives are weekly in the paper, the simulator answers any
/// past instant).
const BASELINE_LOOKBACK_SECS: u64 = 3_600;
/// Fraction of watched baseline paths that must cross the epicenter
/// again before a restoration check reports
/// [`RestorationVerdict::Restored`].
const RESTORE_QUORUM: f64 = 0.5;

/// Engine tunables: the probe budgets. The measurement lifecycle,
/// backend-health hysteresis and verdict thresholds are their types'
/// defaults.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProbeEngineConfig {
    /// Per-facility probe budget.
    pub rate: RateLimit,
    /// Platform credit budget (shared across all campaigns of this
    /// engine's API key).
    pub credits: CreditConfig,
}

/// Lifetime counters of one engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Requests validated.
    pub requests: usize,
    /// Fresh probes sent.
    pub probes_sent: usize,
    /// Probes dropped by rate limiting or credit exhaustion.
    pub rate_limited: usize,
    /// Of those, probes denied by the credit ledger specifically.
    pub credit_denied: usize,
    /// Measurement attempts that hit their deadline.
    pub timeouts: usize,
    /// Measurement re-submissions.
    pub retries: usize,
    /// Campaigns that fell below the completeness quorum.
    pub degraded_campaigns: usize,
    /// Candidates confirmed down.
    pub confirmed: usize,
    /// Candidates refuted.
    pub refuted: usize,
    /// Candidates left inconclusive.
    pub inconclusive: usize,
    /// Restoration checks run.
    pub restoration_checks: usize,
    /// Restoration checks that found the epicenter forwarding again.
    pub restorations_seen: usize,
}

/// The probe engine.
///
/// ```
/// use kepler_bgp::Asn;
/// use kepler_bgpstream::Timestamp;
/// use kepler_docmine::LocationTag;
/// use kepler_probe::{
///     FacilityVerdict, IfaceOwner, ProbeEngine, ProbeEngineConfig, ProbeRequest, Prober,
///     Trace, TraceBackend, TraceHop, VantagePoint, VantageRegistry,
/// };
/// use kepler_topology::entities::Facility;
/// use kepler_topology::{CityId, ColocationMap, Continent, FacilityId, GeoPoint};
///
/// // A backend scripted so facility 0 went dark at t = 5_000 (its
/// // baseline paths now detour) while facility 1 keeps forwarding.
/// // Even-numbered targets are physically behind facility 0, odd ones
/// // behind facility 1.
/// struct Scripted;
/// impl TraceBackend for Scripted {
///     fn trace(&self, _vantage: Asn, target: Asn, t: Timestamp) -> Trace {
///         let fac = FacilityId(target.0 % 2);
///         let hop = TraceHop {
///             addr: std::net::IpAddr::from([11, 0, fac.0 as u8, (target.0 % 250) as u8]),
///             owner: IfaceOwner::FacilityPort { asn: target, facility: fac },
///             rtt_ms: 1.0,
///         };
///         if t >= 5_000 && fac == FacilityId(0) {
///             Trace { hops: vec![], reached: true } // detours around the dark building
///         } else {
///             Trace { hops: vec![hop], reached: true }
///         }
///     }
/// }
///
/// // Two colocation twins listing identical members — passively
/// // indistinguishable, the case the engine exists for.
/// let mut colo = ColocationMap::new();
/// for id in [0u32, 1] {
///     colo.add_facility(Facility {
///         id: FacilityId(id),
///         name: format!("F{id}"),
///         address: String::new(),
///         postcode: format!("P{id}"),
///         country: "GB".into(),
///         city: CityId(0),
///         continent: Continent::Europe,
///         point: GeoPoint::new(51.5, 0.0),
///         operator: "Op".into(),
///     });
///     for far in [20u32, 21, 22, 23] {
///         colo.add_fac_member(FacilityId(id), Asn(far));
///     }
/// }
/// let mut registry = VantageRegistry::new();
/// for i in 0..4u32 {
///     registry.register(VantagePoint { asn: Asn(900 + i), home_city: Some(CityId(5)) });
/// }
///
/// let mut engine = ProbeEngine::new(Scripted, registry, colo, ProbeEngineConfig::default());
/// let report = engine.validate(
///     &ProbeRequest {
///         pop: LocationTag::City(CityId(0)),
///         bin_start: 5_000,
///         candidates: vec![FacilityId(0), FacilityId(1)],
///         affected_far: vec![Asn(20), Asn(21), Asn(22), Asn(23)],
///         affected_near: vec![Asn(1)],
///     },
///     5_060,
/// );
/// // Only the building whose baseline paths vanished is confirmed dark.
/// assert_eq!(report.resolved(), Some(FacilityId(0)));
/// assert_eq!(report.verdict_for(FacilityId(1)), Some(FacilityVerdict::Refuted));
/// assert_eq!(report.completeness, 1.0, "a sync backend never loses probes");
/// assert!(!report.degraded);
/// ```
pub struct ProbeEngine<B> {
    backend: B,
    registry: VantageRegistry,
    colo: ColocationMap,
    scheduler: ProbeScheduler,
    credits: CreditLedger,
    health: HealthTracker,
    stats: ProbeStats,
    telemetry: Option<SharedRttLedger>,
    /// The quiet-time baseline corpus: each pair whose quiet trace
    /// reached its target, with that trace, in insertion order.
    corpus: Vec<(ProbeTask, Trace)>,
}

impl<B: TraceBackend> ProbeEngine<SyncAdapter<B>> {
    /// Builds an engine over a *synchronous* backend (the common case in
    /// this repository), wrapping it in [`SyncAdapter`].
    pub fn new(
        backend: B,
        registry: VantageRegistry,
        colo: ColocationMap,
        config: ProbeEngineConfig,
    ) -> Self {
        ProbeEngine::with_async(SyncAdapter(backend), registry, colo, config)
    }
}

impl<B: AsyncTraceBackend> ProbeEngine<B> {
    /// Builds an engine over an async-shaped backend (a real measurement
    /// platform client, a fault-injection wrapper, a transcript
    /// [`ReplayBackend`](crate::fixture::ReplayBackend)).
    pub fn with_async(
        backend: B,
        registry: VantageRegistry,
        colo: ColocationMap,
        config: ProbeEngineConfig,
    ) -> Self {
        ProbeEngine {
            backend,
            registry,
            colo,
            scheduler: ProbeScheduler::new(config.rate),
            credits: CreditLedger::new(config.credits),
            health: HealthTracker::default(),
            stats: ProbeStats::default(),
            telemetry: None,
            corpus: Vec::new(),
        }
    }

    /// Measures the baseline corpus that [`Prober::baseline`] re-probes
    /// (the paper's "stable subpaths from archived weekly dumps"): each
    /// pair is driven once through this engine's backend at `quiet_t`,
    /// which must predate every event, and the traces that reached
    /// their target are kept. Like every baseline lookup, corpus traces
    /// and their re-probes bypass admission, health and the telemetry tap.
    pub fn with_baseline_corpus(mut self, pairs: &[ProbeTask], quiet_t: Timestamp) -> Self {
        let cfg = LifecycleConfig::default();
        for &task in pairs {
            let quiet = drive(&mut self.backend, task.vantage, task.target, quiet_t, quiet_t, &cfg);
            if let Some(trace) = quiet.trace.filter(|t| t.reached) {
                self.corpus.push((task, trace));
            }
        }
        self
    }

    /// Attaches a shared RTT ledger: from now on every completed
    /// measurement pair also feeds differential-RTT telemetry — the
    /// pre-event leg as a shared hop-pair baseline, the live leg as a
    /// current observation checked against it. Campaign verdicts are
    /// unchanged; the ledger is a pure tap.
    pub fn with_telemetry(mut self, ledger: SharedRttLedger) -> Self {
        self.telemetry = Some(ledger);
        self
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ProbeStats {
        self.stats
    }

    /// Current backend health.
    pub fn backend_health(&self) -> BackendHealth {
        self.health.state()
    }

    /// The measurement backend (e.g. to extract a recorded transcript).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The vantage registry (for inspection).
    pub fn registry(&self) -> &VantageRegistry {
        &self.registry
    }

    /// Probe targets for an epicenter at any granularity: affected
    /// far-ends co-located there, falling back to all affected far-ends
    /// when the map knows none.
    fn targets_for_epicenter(&self, epicenter: OutageScope, affected_far: &[Asn]) -> Vec<Asn> {
        let cap = MAX_TARGETS_PER_CANDIDATE;
        let at_epicenter = |a: &Asn| match epicenter {
            OutageScope::Facility(f) => self.colo.is_at_facility(*a, f),
            OutageScope::Ixp(x) => self.colo.members_of_ixp(x).contains(a),
            OutageScope::City(c) => (self.colo.facilities_of_as(*a).iter())
                .any(|&f| OutageScope::Facility(f).city(&self.colo) == Some(c)),
        };
        let colocated: Vec<Asn> =
            affected_far.iter().copied().filter(|a| at_epicenter(a)).take(cap).collect();
        if !colocated.is_empty() {
            return colocated;
        }
        affected_far.iter().copied().take(cap).collect()
    }

    /// Whether a trace demonstrably crosses the epicenter.
    fn crosses_epicenter(&self, trace: &Trace, epicenter: OutageScope) -> bool {
        match epicenter {
            OutageScope::Facility(f) => trace.crosses_facility(f),
            OutageScope::Ixp(x) => trace.crosses_ixp(x),
            OutageScope::City(c) => {
                trace.hops.iter().any(|h| h.owner.site().city(&self.colo) == Some(c))
            }
        }
    }

    /// Plans the admission-trimmed traceroute campaign against one
    /// epicenter: token bucket first (per-epicenter fairness), credit
    /// ledger second (platform-wide spend). Returns the admitted tasks and
    /// how many admission dropped.
    fn plan_epicenter_campaign(
        &mut self,
        epicenter: OutageScope,
        affected_far: &[Asn],
        panel_seed: u64,
        now: Timestamp,
        vantage_cap: usize,
    ) -> (Vec<ProbeTask>, usize) {
        let targets = self.targets_for_epicenter(epicenter, affected_far);
        // The metro to keep vantage points out of.
        let avoid = epicenter.city(&self.colo);
        let panel = self.registry.select(avoid, vantage_cap.min(VANTAGES_PER_TARGET), panel_seed);
        // Target-major task order: trimming a campaign still spreads the
        // remaining probes over all targets.
        let mut tasks: Vec<ProbeTask> = Vec::new();
        for vp in &panel {
            let vantage = self.registry.get(*vp).asn;
            for &target in &targets {
                tasks.push(ProbeTask { vantage, target });
            }
        }
        let want = tasks.len() as u32;
        let bucket_grant = self.scheduler.admit_key(sched_key(epicenter), now, want);
        let grant = self.credits.admit(now, bucket_grant);
        self.stats.credit_denied += (bucket_grant - grant) as usize;
        tasks.truncate(grant as usize);
        (tasks, (want - grant) as usize)
    }

    /// Drives the pre/post measurement pair for one task through the
    /// async lifecycle. Returns the completed pair (if both legs landed)
    /// and accumulates lifecycle counters into `report`.
    fn measure_pair(
        &mut self,
        task: ProbeTask,
        pre_t: Timestamp,
        now: Timestamp,
        report: &mut ProbeReport,
    ) -> Option<MeasuredPair> {
        let ProbeTask { vantage, target } = task;
        let cfg = LifecycleConfig::default();
        let pre = drive(&mut self.backend, vantage, target, pre_t, now, &cfg);
        let post = drive(&mut self.backend, vantage, target, now, now, &cfg);
        report.probes_sent += 1;
        report.retries += pre.retries + post.retries;
        report.timeouts += pre.timeouts + post.timeouts;
        match (pre.trace, post.trace) {
            (Some(pre), Some(post)) => {
                if let Some(ledger) = &self.telemetry {
                    let mut ledger = lock_ledger(ledger);
                    ledger.observe_baseline(vantage, &pre);
                    ledger.observe_current(vantage, now, &post);
                }
                Some(MeasuredPair { vantage, target, pre, post })
            }
            _ => None,
        }
    }
}

/// Scheduler bucket key of an epicenter: the three id spaces are
/// disjoint by tag bits, so an IXP's budget never drains a facility's.
fn sched_key(epicenter: OutageScope) -> u32 {
    match epicenter {
        OutageScope::Facility(f) => f.0 & 0x3FFF_FFFF,
        OutageScope::Ixp(x) => 0x4000_0000 | (x.0 & 0x3FFF_FFFF),
        OutageScope::City(c) => 0x8000_0000 | (c.0 & 0x3FFF_FFFF),
    }
}

/// A stable 64-bit discriminant of an epicenter, for vantage-panel
/// seeding.
fn seed(epicenter: OutageScope) -> u64 {
    (sched_key(epicenter) as u64) << 32
}

impl<B: AsyncTraceBackend> Prober for ProbeEngine<B> {
    fn validate(&mut self, request: &ProbeRequest, now: Timestamp) -> ProbeReport {
        self.stats.requests += 1;
        let pre_t = request.bin_start.saturating_sub(BASELINE_LOOKBACK_SECS);
        let mut report = ProbeReport::default();
        // While the backend is OFFLINE, shrink to a canary: one candidate,
        // one vantage per target. The canary keeps recovery detectable
        // without hammering a dead platform; its verdicts are marked
        // degraded regardless of how they come out.
        let offline = self.health.state() == BackendHealth::Offline;
        let (cand_cap, vantage_cap) = if offline { (1, 1) } else { (MAX_CANDIDATES, usize::MAX) };
        let mut planned = 0usize;
        let mut completed = 0usize;
        for &candidate in request.candidates.iter().take(cand_cap) {
            let (tasks, dropped) = self.plan_epicenter_campaign(
                OutageScope::Facility(candidate),
                &request.affected_far,
                (candidate.0 as u64) << 32 ^ request.bin_start,
                now,
                vantage_cap,
            );
            report.rate_limited += dropped;
            planned += tasks.len();
            let mut pairs = Vec::with_capacity(tasks.len());
            for task in tasks {
                if let Some(pair) = self.measure_pair(task, pre_t, now, &mut report) {
                    pairs.push(pair);
                }
            }
            completed += pairs.len();
            let (verdict, evidence) = PathAnalyzer::default().judge(candidate, &pairs);
            match verdict {
                FacilityVerdict::Confirmed => self.stats.confirmed += 1,
                FacilityVerdict::Refuted => self.stats.refuted += 1,
                FacilityVerdict::Inconclusive => self.stats.inconclusive += 1,
            }
            report.verdicts.push((candidate, verdict));
            report.evidence.extend(evidence);
        }
        report.completeness = if planned == 0 { 1.0 } else { completed as f64 / planned as f64 };
        let quorum_met = report.completeness >= LifecycleConfig::default().quorum;
        report.degraded = offline || (planned > 0 && !quorum_met);
        if planned > 0 {
            self.health.record(quorum_met);
        }
        if report.degraded {
            self.stats.degraded_campaigns += 1;
        }
        self.stats.probes_sent += report.probes_sent;
        self.stats.rate_limited += report.rate_limited;
        self.stats.timeouts += report.timeouts;
        self.stats.retries += report.retries;
        report
    }

    fn health(&self) -> BackendHealth {
        self.health.state()
    }

    /// Re-traces the corpus pairs whose quiet trace crosses `epicenter`.
    /// A re-probe that does not complete counts toward neither number;
    /// `None` when none completes or no corpus trace crosses.
    fn baseline(&mut self, epicenter: OutageScope, now: Timestamp) -> Option<ProbeResult> {
        let crossing: Vec<ProbeTask> = (self.corpus.iter())
            .filter(|(_, quiet)| self.crosses_epicenter(quiet, epicenter))
            .map(|&(task, _)| task)
            .collect();
        let cfg = LifecycleConfig::default();
        let mut result = ProbeResult { still_crossing: 0, baseline: 0 };
        for task in crossing {
            let live = drive(&mut self.backend, task.vantage, task.target, now, now, &cfg);
            let Some(live) = live.trace else { continue };
            result.baseline += 1;
            result.still_crossing +=
                (live.reached && self.crosses_epicenter(&live, epicenter)) as usize;
        }
        (result.baseline > 0).then_some(result)
    }
}

impl<B: AsyncTraceBackend> RestorationProber for ProbeEngine<B> {
    /// Re-probes an incident epicenter: baseline traces anchored before
    /// `incident_start` select the (vantage, target) pairs that crossed
    /// it when it was healthy; a quorum of them crossing it again at
    /// `now` is restoration. Admission shares the token buckets and the
    /// credit ledger with validation campaigns.
    fn check(
        &mut self,
        epicenter: OutageScope,
        targets: &[Asn],
        incident_start: Timestamp,
        now: Timestamp,
    ) -> RestorationReport {
        self.stats.restoration_checks += 1;
        let vantage_cap =
            if self.health.state() == BackendHealth::Offline { 1 } else { usize::MAX };
        let (tasks, dropped) = self.plan_epicenter_campaign(
            epicenter,
            targets,
            seed(epicenter) ^ now,
            now,
            vantage_cap,
        );
        let mut report = RestorationReport {
            verdict: RestorationVerdict::Inconclusive,
            watched: 0,
            crossing: 0,
            probes_sent: 0,
            rate_limited: dropped,
        };
        let pre_t = incident_start.saturating_sub(BASELINE_LOOKBACK_SECS);
        let planned = tasks.len();
        let mut completed = 0usize;
        let mut scratch = ProbeReport::default();
        for task in tasks {
            let Some(pair) = self.measure_pair(task, pre_t, now, &mut scratch) else {
                continue;
            };
            completed += 1;
            if !pair.pre.reached || !self.crosses_epicenter(&pair.pre, epicenter) {
                continue; // no baseline through the epicenter: proves nothing
            }
            report.watched += 1;
            if pair.post.reached && self.crosses_epicenter(&pair.post, epicenter) {
                report.crossing += 1;
            }
        }
        report.probes_sent = scratch.probes_sent;
        report.verdict = if report.watched < PathAnalyzer::default().min_baseline {
            RestorationVerdict::Inconclusive
        } else if report.crossing as f64 / report.watched as f64 >= RESTORE_QUORUM {
            self.stats.restorations_seen += 1;
            RestorationVerdict::Restored
        } else {
            RestorationVerdict::StillDown
        };
        if planned > 0 {
            self.health
                .record(completed as f64 / planned as f64 >= LifecycleConfig::default().quorum);
        }
        self.stats.probes_sent += scratch.probes_sent;
        self.stats.rate_limited += report.rate_limited;
        self.stats.timeouts += scratch.timeouts;
        self.stats.retries += scratch.retries;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::PostState;
    use crate::lifecycle::{Measurement, MeasurementState, SubmitResult};
    use crate::trace::{IfaceOwner, TraceHop};
    use crate::vantage::VantagePoint;
    use kepler_topology::entities::{Facility, Ixp};
    use kepler_topology::{CityId, Continent, GeoPoint, IxpId};
    use std::net::{IpAddr, Ipv4Addr};

    /// A scripted backend: during `[down_from, down_to)` every path that
    /// would cross `dark` detours (or dies, for odd targets); otherwise
    /// the path crosses the target's facility.
    struct ScriptedBackend {
        dark: FacilityId,
        down_from: Timestamp,
        down_to: Timestamp,
        fac_of: fn(Asn) -> FacilityId,
    }

    fn hop(fac: FacilityId, asn: Asn) -> TraceHop {
        TraceHop {
            addr: IpAddr::V4(Ipv4Addr::new(11, (fac.0 % 250) as u8, (asn.0 % 250) as u8, 1)),
            owner: IfaceOwner::FacilityPort { asn, facility: fac },
            rtt_ms: 1.0,
        }
    }

    impl TraceBackend for ScriptedBackend {
        fn trace(&self, _vantage: Asn, target: Asn, t: Timestamp) -> Trace {
            let fac = (self.fac_of)(target);
            if t >= self.down_from && t < self.down_to && fac == self.dark {
                if target.0 % 2 == 1 {
                    return Trace::unreachable();
                }
                // Detour through a transit facility, skipping the dark one.
                return Trace { hops: vec![hop(FacilityId(99), Asn(7))], reached: true };
            }
            Trace { hops: vec![hop(FacilityId(99), Asn(7)), hop(fac, target)], reached: true }
        }
    }

    fn colo_with(facs: &[(u32, &[u32])]) -> ColocationMap {
        colo_in(facs, |_| 0)
    }

    /// [`colo_with`] with facility `f` in city `city_of(f)`.
    fn colo_in(facs: &[(u32, &[u32])], city_of: fn(u32) -> u32) -> ColocationMap {
        let mut colo = ColocationMap::new();
        // Facility ids must be dense: register every id up to the max.
        let max = facs.iter().map(|(f, _)| *f).max().unwrap_or(0).max(99);
        for f in 0..=max {
            colo.add_facility(Facility {
                id: FacilityId(f),
                name: format!("F{f}"),
                address: String::new(),
                postcode: format!("P{f}"),
                country: "GB".into(),
                city: CityId(city_of(f)),
                continent: Continent::Europe,
                point: GeoPoint::new(51.5, 0.0),
                operator: "Op".into(),
            });
        }
        for &(f, members) in facs {
            for &m in members {
                colo.add_fac_member(FacilityId(f), Asn(m));
            }
        }
        colo
    }

    fn registry() -> VantageRegistry {
        let mut r = VantageRegistry::new();
        for i in 0..6u32 {
            r.register(VantagePoint { asn: Asn(900 + i), home_city: Some(CityId(5)) });
        }
        r
    }

    fn request(candidates: &[u32], fars: &[u32]) -> ProbeRequest {
        ProbeRequest {
            pop: LocationTag::City(CityId(0)),
            bin_start: 10_000,
            candidates: candidates.iter().map(|&f| FacilityId(f)).collect(),
            affected_far: fars.iter().map(|&a| Asn(a)).collect(),
            affected_near: vec![Asn(1)],
        }
    }

    fn fac_of(a: Asn) -> FacilityId {
        // Targets 20..24 live in facility 1, 30..34 in facility 2.
        if a.0 < 30 {
            FacilityId(1)
        } else {
            FacilityId(2)
        }
    }

    #[test]
    fn disambiguates_the_dark_twin() {
        let colo = colo_with(&[(1, &[20, 21, 22, 30, 31, 32]), (2, &[20, 21, 22, 30, 31, 32])]);
        let backend =
            ScriptedBackend { dark: FacilityId(1), down_from: 9_500, down_to: u64::MAX, fac_of };
        let mut engine = ProbeEngine::new(backend, registry(), colo, ProbeEngineConfig::default());
        // Both candidates share the full membership (colocation twins);
        // only paths through facility 1 actually died.
        let report = engine.validate(&request(&[1, 2], &[20, 21, 22, 30, 31, 32]), 10_060);
        assert_eq!(report.verdict_for(FacilityId(1)), Some(FacilityVerdict::Confirmed));
        assert_eq!(report.verdict_for(FacilityId(2)), Some(FacilityVerdict::Refuted));
        assert_eq!(report.resolved(), Some(FacilityId(1)));
        assert!(!report.all_refuted());
        assert!(report.probes_sent > 0);
        assert_eq!(report.completeness, 1.0);
        assert!(!report.degraded);
        // Evidence names the dead building's hop with its post state.
        assert!(report.evidence.iter().any(|e| e.facility == FacilityId(1)
            && matches!(e.post, PostState::Detoured | PostState::Unreachable)));
        assert_eq!(engine.stats().confirmed, 1);
        assert_eq!(engine.stats().refuted, 1);
        assert_eq!(engine.backend_health(), BackendHealth::Online);
    }

    #[test]
    fn healthy_candidates_are_refuted() {
        let colo = colo_with(&[(2, &[30, 31, 32])]);
        let backend =
            ScriptedBackend { dark: FacilityId(1), down_from: 9_500, down_to: u64::MAX, fac_of };
        let mut engine = ProbeEngine::new(backend, registry(), colo, ProbeEngineConfig::default());
        let report = engine.validate(&request(&[2], &[30, 31, 32]), 10_060);
        assert!(report.all_refuted());
        assert_eq!(report.resolved(), None);
    }

    #[test]
    fn rate_limiting_bounds_and_degrades_to_inconclusive() {
        let colo = colo_with(&[(1, &[20, 21, 22])]);
        let backend =
            ScriptedBackend { dark: FacilityId(1), down_from: 9_500, down_to: u64::MAX, fac_of };
        let config = ProbeEngineConfig {
            rate: RateLimit { burst: 4, per_sec: 0.5 },
            ..ProbeEngineConfig::default()
        };
        let mut engine = ProbeEngine::new(backend, registry(), colo, config);
        let r1 = engine.validate(&request(&[1], &[20, 21, 22]), 10_060);
        assert_eq!(r1.probes_sent, 4, "burst bounds the first campaign");
        assert!(r1.rate_limited > 0);
        // Immediately re-validating finds an empty bucket: no probes, no
        // baseline, inconclusive — never a made-up verdict.
        let r2 = engine.validate(&request(&[1], &[20, 21, 22]), 10_060);
        assert_eq!(r2.probes_sent, 0);
        assert_eq!(r2.verdict_for(FacilityId(1)), Some(FacilityVerdict::Inconclusive));
        assert_eq!(r2.completeness, 1.0, "nothing planned, nothing incomplete");
        assert!(!r2.degraded, "an empty campaign is not a backend failure");
    }

    #[test]
    fn credit_exhaustion_trims_campaigns() {
        let colo = colo_with(&[(1, &[20, 21, 22])]);
        let backend =
            ScriptedBackend { dark: FacilityId(1), down_from: 9_500, down_to: u64::MAX, fac_of };
        let config = ProbeEngineConfig {
            credits: CreditConfig { capacity: 5.0, per_sec: 0.0, cost_per_probe: 1.0 },
            ..ProbeEngineConfig::default()
        };
        let mut engine = ProbeEngine::new(backend, registry(), colo, config);
        let r1 = engine.validate(&request(&[1], &[20, 21, 22]), 10_060);
        assert_eq!(r1.probes_sent, 5, "credit pool bounds the campaign below the bucket");
        assert!(r1.rate_limited > 0);
        assert!(engine.stats().credit_denied > 0);
        let r2 = engine.validate(&request(&[1], &[20, 21, 22]), 10_070);
        assert_eq!(r2.probes_sent, 0, "pool stays drained without refill");
        assert_eq!(r2.verdict_for(FacilityId(1)), Some(FacilityVerdict::Inconclusive));
    }

    /// An async backend wrapping the scripted one that loses every
    /// measurement (eternally pending) while `lost` is true, and rejects
    /// submissions outright while `reject` is true.
    struct LossyBackend {
        inner: ScriptedBackend,
        lose: fn(&Measurement) -> bool,
        reject: fn(&Measurement) -> bool,
    }

    impl AsyncTraceBackend for LossyBackend {
        fn submit(&mut self, m: &Measurement) -> SubmitResult {
            if (self.reject)(m) {
                SubmitResult::Rejected
            } else {
                SubmitResult::Accepted
            }
        }
        fn poll(&mut self, m: &Measurement, _now: Timestamp) -> MeasurementState {
            if (self.lose)(m) {
                MeasurementState::Pending
            } else {
                MeasurementState::Ready(self.inner.trace(m.vantage, m.target, m.at))
            }
        }
    }

    fn lossy(lose: fn(&Measurement) -> bool, reject: fn(&Measurement) -> bool) -> LossyBackend {
        LossyBackend {
            inner: ScriptedBackend {
                dark: FacilityId(1),
                down_from: 9_500,
                down_to: u64::MAX,
                fac_of,
            },
            lose,
            reject,
        }
    }

    #[test]
    fn partial_loss_above_quorum_still_yields_verdicts() {
        let colo = colo_with(&[(1, &[20, 21, 22])]);
        // Lose every measurement toward one target on every attempt: the
        // other pairs complete, quorum holds, verdicts stand.
        let backend = lossy(|m| m.target == Asn(21), |_| false);
        let mut engine =
            ProbeEngine::with_async(backend, registry(), colo, ProbeEngineConfig::default());
        let report = engine.validate(&request(&[1], &[20, 21, 22]), 10_060);
        assert!(report.completeness > 0.5 && report.completeness < 1.0, "{report:?}");
        assert!(!report.degraded);
        assert!(report.timeouts > 0, "lost probes hit their deadlines");
        assert!(report.retries > 0, "and were retried");
        assert_eq!(report.verdict_for(FacilityId(1)), Some(FacilityVerdict::Confirmed));
        assert_eq!(engine.backend_health(), BackendHealth::Online);
    }

    #[test]
    fn total_loss_degrades_and_drives_health_offline() {
        let colo = colo_with(&[(1, &[20, 21, 22])]);
        let backend = lossy(|_| true, |_| false);
        let mut engine =
            ProbeEngine::with_async(backend, registry(), colo, ProbeEngineConfig::default());
        let mut states = Vec::new();
        for i in 0..7u64 {
            let report = engine.validate(&request(&[1], &[20, 21, 22]), 10_060 + i * 600);
            assert!(report.degraded, "nothing completed: report marked degraded");
            assert_eq!(report.completeness, 0.0);
            assert_eq!(
                report.verdict_for(FacilityId(1)),
                Some(FacilityVerdict::Inconclusive),
                "no measurements can never fabricate a verdict"
            );
            states.push(engine.backend_health());
        }
        assert!(states.contains(&BackendHealth::Degraded), "{states:?}");
        assert_eq!(*states.last().unwrap(), BackendHealth::Offline, "{states:?}");
        assert!(engine.stats().degraded_campaigns >= 7);
    }

    #[test]
    fn offline_canary_recovers_health() {
        let colo = colo_with(&[(1, &[20, 21, 22]), (2, &[20, 21, 22])]);
        // Reject everything before t=20_000 (a brownout), then heal.
        let backend = lossy(|_| false, |m| m.submitted < 20_000);
        let mut engine =
            ProbeEngine::with_async(backend, registry(), colo, ProbeEngineConfig::default());
        for i in 0..8u64 {
            engine.validate(&request(&[1, 2], &[20, 21, 22]), 10_060 + i * 600);
        }
        assert_eq!(engine.backend_health(), BackendHealth::Offline);
        // During the brownout the canary campaign is tiny.
        let canary = engine.validate(&request(&[1, 2], &[20, 21, 22]), 16_000);
        assert!(canary.degraded);
        assert_eq!(canary.verdicts.len(), 1, "offline: one canary candidate only");
        // After the platform heals, canaries succeed and health recovers.
        let mut last = BackendHealth::Offline;
        for i in 0..4u64 {
            engine.validate(&request(&[1, 2], &[20, 21, 22]), 30_000 + i * 600);
            last = engine.backend_health();
        }
        assert_eq!(last, BackendHealth::Online);
        // Fully recovered: campaigns are full-size and trusted again.
        let healed = engine.validate(&request(&[1, 2], &[20, 21, 22]), 40_000);
        assert!(!healed.degraded);
        assert_eq!(healed.verdicts.len(), 2);
    }

    #[test]
    fn restoration_check_tracks_the_repair() {
        // Facility 1 dark during [9_500, 20_000): checks before the repair
        // must say StillDown, checks after it Restored.
        let colo = colo_with(&[(1, &[20, 21, 22])]);
        let backend =
            ScriptedBackend { dark: FacilityId(1), down_from: 9_500, down_to: 20_000, fac_of };
        let mut engine = ProbeEngine::new(backend, registry(), colo, ProbeEngineConfig::default());
        use crate::restoration::{RestorationProber, RestorationVerdict};
        let targets = [Asn(20), Asn(21), Asn(22)];
        let during = engine.check(OutageScope::Facility(FacilityId(1)), &targets, 9_600, 12_000);
        assert_eq!(during.verdict, RestorationVerdict::StillDown);
        assert!(during.watched >= 2, "baseline paths crossed the building");
        assert_eq!(during.crossing, 0, "nothing crosses a dark building");
        let after = engine.check(OutageScope::Facility(FacilityId(1)), &targets, 9_600, 30_000);
        assert_eq!(after.verdict, RestorationVerdict::Restored);
        assert_eq!(after.crossing, after.watched);
        assert_eq!(engine.stats().restoration_checks, 2);
        assert_eq!(engine.stats().restorations_seen, 1);
    }

    /// A backend where paths to targets cross an IXP fabric (IxpId 4)
    /// that goes dark during `[down_from, down_to)`.
    struct IxpBackend {
        down_from: Timestamp,
        down_to: Timestamp,
    }

    impl TraceBackend for IxpBackend {
        fn trace(&self, _vantage: Asn, target: Asn, t: Timestamp) -> Trace {
            let lan = TraceHop {
                addr: IpAddr::V4(Ipv4Addr::new(12, 4, (target.0 % 250) as u8, 1)),
                owner: IfaceOwner::IxpLan { asn: target, ixp: IxpId(4) },
                rtt_ms: 1.0,
            };
            if t >= self.down_from && t < self.down_to {
                // Fabric dark: private-interconnect detour, no LAN hop.
                return Trace { hops: vec![hop(FacilityId(99), Asn(7))], reached: true };
            }
            Trace { hops: vec![hop(FacilityId(99), Asn(7)), lan], reached: true }
        }
    }

    fn colo_with_ixp() -> ColocationMap {
        let mut colo = colo_with(&[(1, &[20, 21, 22])]);
        for i in 0..=4 {
            colo.add_ixp(Ixp {
                id: IxpId(i),
                name: "X".into(),
                url: String::new(),
                city: CityId(0),
                continent: Continent::Europe,
                route_server_asn: None,
            });
        }
        for m in [20u32, 21, 22] {
            colo.add_ixp_member(IxpId(4), Asn(m));
        }
        colo
    }

    #[test]
    fn ixp_epicenter_restoration_closes_on_crossing_evidence() {
        use crate::restoration::{RestorationProber, RestorationVerdict};
        let backend = IxpBackend { down_from: 9_500, down_to: 20_000 };
        let mut engine =
            ProbeEngine::new(backend, registry(), colo_with_ixp(), ProbeEngineConfig::default());
        let targets = [Asn(20), Asn(21), Asn(22)];
        let during = engine.check(OutageScope::Ixp(IxpId(4)), &targets, 9_600, 12_000);
        assert_eq!(during.verdict, RestorationVerdict::StillDown, "{during:?}");
        let after = engine.check(OutageScope::Ixp(IxpId(4)), &targets, 9_600, 30_000);
        assert_eq!(after.verdict, RestorationVerdict::Restored, "{after:?}");
    }

    #[test]
    fn city_epicenter_restoration_closes_on_crossing_evidence() {
        use crate::restoration::{RestorationProber, RestorationVerdict};
        // Facility 1 sits in CityId(0); its outage is a city-scoped
        // incident when passive localization could not split the metro.
        let colo = colo_with(&[(1, &[20, 21, 22])]);
        let backend =
            ScriptedBackend { dark: FacilityId(1), down_from: 9_500, down_to: 20_000, fac_of };
        let mut engine = ProbeEngine::new(backend, registry(), colo, ProbeEngineConfig::default());
        let targets = [Asn(20), Asn(21), Asn(22)];
        // Note: the scripted detour hop (FacilityId 99) is also in city 0,
        // so "crossing the city" holds even during the outage via the
        // detour facility — pick the *dark* facility's city carefully.
        // Here both are CityId(0); during the outage detours still cross
        // city 0, so the city check must say Restored throughout. That is
        // correct behavior for this topology (the metro keeps forwarding);
        // assert the conservative direction only after repair.
        let after = engine.check(OutageScope::City(CityId(0)), &targets, 9_600, 30_000);
        assert_eq!(after.verdict, RestorationVerdict::Restored, "{after:?}");
    }

    #[test]
    fn restoration_without_baseline_or_budget_is_inconclusive() {
        use crate::restoration::{RestorationProber, RestorationVerdict};
        // Targets in facility 2: no baseline ever crossed facility 1, so a
        // check on facility 1 cannot decide anything.
        let colo = colo_with(&[(1, &[20]), (2, &[30, 31, 32])]);
        let backend =
            ScriptedBackend { dark: FacilityId(1), down_from: 9_500, down_to: 20_000, fac_of };
        let mut engine = ProbeEngine::new(backend, registry(), colo, ProbeEngineConfig::default());
        let no_baseline =
            engine.check(OutageScope::Facility(FacilityId(1)), &[Asn(30), Asn(31)], 9_600, 30_000);
        assert_eq!(no_baseline.verdict, RestorationVerdict::Inconclusive);
        // A drained bucket yields Inconclusive, never Restored.
        let colo = colo_with(&[(1, &[20, 21, 22])]);
        let backend =
            ScriptedBackend { dark: FacilityId(1), down_from: 9_500, down_to: 20_000, fac_of };
        let config = ProbeEngineConfig {
            rate: RateLimit { burst: 1, per_sec: 0.0 },
            ..ProbeEngineConfig::default()
        };
        let mut engine = ProbeEngine::new(backend, registry(), colo, config);
        let starved = engine.check(
            OutageScope::Facility(FacilityId(1)),
            &[Asn(20), Asn(21), Asn(22)],
            9_600,
            30_000,
        );
        assert_eq!(starved.verdict, RestorationVerdict::Inconclusive, "{starved:?}");
        assert!(starved.rate_limited > 0);
    }

    #[test]
    fn lost_restoration_probes_never_restore() {
        use crate::restoration::{RestorationProber, RestorationVerdict};
        let colo = colo_with(&[(1, &[20, 21, 22])]);
        // The building is actually back up (down_to 20_000, check at
        // 30_000) but every measurement is lost: the check must stay
        // Inconclusive, never guess Restored.
        let backend = lossy(|_| true, |_| false);
        let mut engine =
            ProbeEngine::with_async(backend, registry(), colo, ProbeEngineConfig::default());
        let r = engine.check(
            OutageScope::Facility(FacilityId(1)),
            &[Asn(20), Asn(21), Asn(22)],
            9_600,
            30_000,
        );
        assert_eq!(r.verdict, RestorationVerdict::Inconclusive, "{r:?}");
    }

    #[test]
    fn telemetry_tap_records_measured_pairs() {
        let colo = colo_with(&[(1, &[20, 21, 22])]);
        let backend =
            ScriptedBackend { dark: FacilityId(9), down_from: u64::MAX, down_to: u64::MAX, fac_of };
        let ledger = crate::telemetry::shared_ledger(10.0);
        let mut engine = ProbeEngine::new(backend, registry(), colo, ProbeEngineConfig::default())
            .with_telemetry(ledger.clone());
        let report = engine.validate(&request(&[1], &[20, 21, 22]), 10_060);
        assert!(report.probes_sent > 0);
        let mut l = ledger.lock().unwrap();
        assert!(l.baseline_pairs() > 0, "pre legs built shared baselines");
        let (base, cur) = l.observations();
        assert_eq!(base, report.probes_sent, "one baseline trace per completed pair");
        assert_eq!(cur, report.probes_sent, "one live trace per completed pair");
        // Scripted RTTs are flat: telemetry on a healthy world is silent.
        assert!(l.drain_anomalies().is_empty());
    }

    fn tasks(targets: &[u32]) -> Vec<ProbeTask> {
        targets
            .iter()
            .zip(900..)
            .map(|(&t, v)| ProbeTask { vantage: Asn(v), target: Asn(t) })
            .collect()
    }

    fn crossing(still_crossing: usize, baseline: usize) -> Option<ProbeResult> {
        Some(ProbeResult { still_crossing, baseline })
    }

    #[test]
    fn corpus_re_probes_quiet_paths_through_the_epicenter() {
        // Facility 1 (targets 20..22) dark during [9_500, 20_000); every
        // path crosses transit facility 99, healthy ones their target's.
        let backend =
            ScriptedBackend { dark: FacilityId(1), down_from: 9_500, down_to: 20_000, fac_of };
        let pairs = tasks(&[20, 21, 22, 30, 31]);
        let engine = |quiet_t| {
            let b = ScriptedBackend { ..backend };
            ProbeEngine::new(b, registry(), colo_with(&[]), ProbeEngineConfig::default())
                .with_baseline_corpus(&pairs, quiet_t)
        };
        let mut quiet = engine(1_000);
        let fac = |f| OutageScope::Facility(FacilityId(f));
        // During the outage 20 and 22 detour and 21 is unreachable: all
        // three complete, none crosses. After the repair all three do.
        assert_eq!(quiet.baseline(fac(1), 12_000), crossing(0, 3));
        assert_eq!(quiet.baseline(fac(1), 30_000), crossing(3, 3));
        assert_eq!(quiet.baseline(fac(2), 12_000), crossing(2, 2));
        assert_eq!(quiet.baseline(fac(7), 12_000), None, "no corpus trace crosses it");
        // Re-probes bypass admission, health and the campaign counters.
        assert_eq!(quiet.stats(), ProbeStats::default());
        // A corpus measured mid-outage keeps only the four reached traces
        // (21 is dropped), and none of them crossed the dark building.
        let mut dark = engine(12_000);
        assert_eq!(dark.baseline(fac(99), 30_000), crossing(4, 4));
        assert_eq!(dark.baseline(fac(1), 30_000), None);
        let mut bare = ProbeEngine::new(backend, registry(), colo_with(&[]), Default::default());
        assert_eq!(bare.baseline(fac(99), 30_000), None, "no corpus, no evidence");
    }

    #[test]
    fn corpus_city_epicenter_counts_every_facility_of_the_city() {
        // Target 10·k sits in facility k; facilities 1 and 2 are city 0,
        // facility 3 city 1, transit facility 99 city 2.
        let fac_of = |a: Asn| FacilityId(a.0 / 10);
        let city_of = |f| match f {
            1 | 2 => 0,
            3 => 1,
            _ => 2,
        };
        let backend =
            ScriptedBackend { dark: FacilityId(1), down_from: 9_500, down_to: 20_000, fac_of };
        let mut engine =
            ProbeEngine::new(backend, registry(), colo_in(&[], city_of), Default::default())
                .with_baseline_corpus(&tasks(&[10, 20, 30]), 1_000);
        let city = |c| OutageScope::City(CityId(c));
        assert_eq!(engine.baseline(city(0), 5_000), crossing(2, 2));
        assert_eq!(engine.baseline(city(1), 5_000), crossing(1, 1));
        assert_eq!(engine.baseline(city(2), 5_000), crossing(3, 3));
        assert_eq!(engine.baseline(city(7), 5_000), None);
        // Target 10 detours around dark facility 1 and leaves city 0.
        assert_eq!(engine.baseline(city(0), 12_000), crossing(1, 2));
    }

    #[test]
    fn corpus_failed_re_probes_count_toward_neither_number() {
        // Live re-probes toward 31 never answer; the quiet corpus (at
        // t = 1_000) completed for every pair.
        let mut backend = lossy(|m| m.target == Asn(31) && m.at > 1_000, |_| false);
        backend.inner.down_to = 20_000;
        let mut engine =
            ProbeEngine::with_async(backend, registry(), colo_with(&[]), Default::default())
                .with_baseline_corpus(&tasks(&[30, 31, 32]), 1_000);
        let fac2 = OutageScope::Facility(FacilityId(2));
        assert_eq!(engine.baseline(fac2, 12_000), crossing(2, 2));
        // Every live re-probe lost: no evidence at all.
        let backend = lossy(|m| m.at > 1_000, |_| false);
        let mut engine =
            ProbeEngine::with_async(backend, registry(), colo_with(&[]), Default::default())
                .with_baseline_corpus(&tasks(&[30, 31, 32]), 1_000);
        assert_eq!(engine.baseline(fac2, 12_000), None);
    }

    #[test]
    fn candidate_cap_is_enforced() {
        let colo = colo_with(&[(1, &[20]), (2, &[20]), (3, &[20]), (4, &[20]), (5, &[20])]);
        let backend =
            ScriptedBackend { dark: FacilityId(9), down_from: u64::MAX, down_to: u64::MAX, fac_of };
        let mut engine = ProbeEngine::new(backend, registry(), colo, ProbeEngineConfig::default());
        let report = engine.validate(&request(&[1, 2, 3, 4, 5], &[20, 21]), 10_060);
        assert_eq!(report.verdicts.len(), 4, "paper's four-facility bound");
    }
}
