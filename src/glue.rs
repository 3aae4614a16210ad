//! Glue between the simulator and the detector.
//!
//! `kepler-netsim` deliberately does not depend on `kepler-core` (the
//! detector must stay substrate-agnostic), so the adapters that wire a
//! simulated world into the detection pipeline live here:
//!
//! * [`SimTraceBackend`] — `kepler-probe`'s [`TraceBackend`] over the
//!   simulated traceroute plane ([`sim_backend`], one seed per scenario).
//!   Every trace goes through one: targeted campaigns ([`prober`]), the
//!   §4.4 re-probe of [`baseline_pairs`], and the quiet-time selections
//!   [`canary_panel_on`] and [`remoteness_for`];
//! * [`detector`] — builds the [`Stack`] it is given, from the passive
//!   pipeline ([`detector_for`]) up to the fused multi-signal stack;
//! * [`truth_outages`] — converts simulator ground truth into the
//!   detector-agnostic [`TruthOutage`] records used for evaluation,
//!   including the paper's trackability rule.

use kepler_bgp::fx::FxHashMap;
use kepler_bgp::Asn;
use kepler_core::events::OutageScope;
use kepler_core::metrics::TruthOutage;
use kepler_core::signal::{DelayDetector, ForecastDetector};
use kepler_core::{Kepler, KeplerConfig, KeplerInputs, RemotenessMap};
use kepler_docmine::{CommunityDictionary, LocationTag};
use kepler_netsim::dataplane::{default_pairs, DataplaneSim, PairWindow, ProbePair, TreeCache};
use kepler_netsim::events::{Epicenter, ScheduledEvent};
use kepler_netsim::scenario::Scenario;
use kepler_netsim::world::{AsNode, World};
use kepler_netsim::{FaultConfig, FaultyBackend};
use kepler_probe::{
    AsyncTraceBackend, ProbeEngine, ProbeEngineConfig, ProbeTask, SyncAdapter, Trace, TraceBackend,
    VantagePoint, VantageRegistry,
};
use kepler_topology::{AsType, FacilityId};
use std::cell::{OnceCell, RefCell};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A targeted-probe measurement backend over the simulated data plane:
/// `kepler-probe`'s [`TraceBackend`] expressed in (vantage AS, target AS)
/// terms, resolved to concrete probe pairs per trace. Past timestamps are
/// archive lookups, the present is a live campaign — the simulator
/// answers both from the same timeline.
///
/// The backend is *resident*: it builds one [`DataplaneSim`] (with its
/// route-epoch index) and one [`TreeCache`] at construction and keeps
/// both for its lifetime, so a campaign computes each routing tree once,
/// and a pair re-traced bin after bin replays its cached path skeleton
/// with only the per-instant terms recomputed. A canary panel is
/// resolved to probe pairs once and keeps one [`PairWindow`] per pair, so
/// re-tracing it is a range check and a replay per pair. Traces are
/// bit-identical to rebuilding everything per call (the simulator's
/// differential suite pins that); there is no way to turn the caches off.
pub struct SimTraceBackend {
    sim: DataplaneSim<'static>,
    cache: RefCell<TreeCache>,
    /// (vantage ASN, target ASN) → probe pair; `None` = unmeasurable.
    pairs: RefCell<FxHashMap<(Asn, Asn), Option<ProbePair>>>,
    panel: RefCell<ResolvedPanel>,
}

/// The canary panel last handed to [`SimTraceBackend::trace_panel`] and
/// one window per pair of it (`None` = unmeasurable).
#[derive(Default)]
struct ResolvedPanel {
    pairs: Vec<ProbeTask>,
    windows: Vec<Option<PairWindow>>,
}

impl SimTraceBackend {
    /// Builds the backend for a world and event timeline.
    pub fn new(world: Arc<World>, timeline: &[ScheduledEvent], seed: u64) -> Self {
        SimTraceBackend {
            sim: DataplaneSim::resident(world, timeline.into(), seed),
            cache: RefCell::new(TreeCache::new()),
            pairs: RefCell::new(FxHashMap::default()),
            panel: RefCell::default(),
        }
    }
}

impl TraceBackend for SimTraceBackend {
    fn trace(&self, vantage: Asn, target: Asn, t: u64) -> Trace {
        let mut out = Trace::default();
        self.trace_into(vantage, target, t, &mut out);
        out
    }

    fn trace_into(&self, vantage: Asn, target: Asn, t: u64, out: &mut Trace) {
        let pair = *self
            .pairs
            .borrow_mut()
            .entry((vantage, target))
            .or_insert_with(|| self.sim.pair_between(vantage, target));
        let Some(pair) = pair else {
            out.clear();
            return;
        };
        let cache = &mut self.cache.borrow_mut();
        out.reached = self.sim.traceroute_into(cache, pair, t, &mut out.hops);
    }

    fn trace_panel(
        &self,
        panel: &[ProbeTask],
        t: u64,
        scratch: &mut Trace,
        visit: &mut dyn FnMut(&ProbeTask, &Trace),
    ) {
        let resolved = &mut *self.panel.borrow_mut();
        if resolved.pairs != panel {
            resolved.pairs = panel.to_vec();
            resolved.windows = panel
                .iter()
                .map(|p| self.sim.pair_between(p.vantage, p.target).map(PairWindow::new))
                .collect();
        }
        let cache = &mut self.cache.borrow_mut();
        for (p, window) in panel.iter().zip(&mut resolved.windows) {
            match window {
                Some(window) => {
                    scratch.reached =
                        self.sim.traceroute_windowed(cache, window, t, &mut scratch.hops)
                }
                None => scratch.clear(),
            }
            visit(p, scratch);
        }
    }
}

/// Edge (eyeball/stub) networks, where Atlas probes actually sit.
fn edge_ases(world: &World) -> impl Iterator<Item = &AsNode> {
    world.ases.iter().filter(|n| matches!(n.info.as_type, AsType::Eyeball | AsType::Stub))
}

/// The vantage-point registry a scenario world offers: probe hosts live
/// in edge networks.
pub fn vantage_registry_for(world: &World) -> VantageRegistry {
    let mut registry = VantageRegistry::new();
    for node in edge_ases(world) {
        registry.register(VantagePoint { asn: node.asn, home_city: Some(node.info.home_city) });
    }
    registry
}

/// [`sim_backend`] over an already-shared copy of the world.
fn backend_on(world: Arc<World>, scenario: &Scenario) -> SimTraceBackend {
    SimTraceBackend::new(world, &scenario.timeline, scenario.seed ^ 0x9B0E)
}

/// The simulated trace backend every measurement of a scenario goes
/// through, at the scenario's one backend seed.
pub fn sim_backend(scenario: &Scenario) -> SimTraceBackend {
    backend_on(Arc::new(scenario.world.clone()), scenario)
}

/// A targeted-probe engine for a scenario over `backend` (wrap a
/// synchronous one in [`SyncAdapter`]): edge-network vantage registry,
/// the detector's (merged-snapshot) colocation map and the default
/// engine configuration.
pub fn prober<B: AsyncTraceBackend>(scenario: &Scenario, backend: B) -> ProbeEngine<B> {
    ProbeEngine::with_async(
        backend,
        vantage_registry_for(&scenario.world),
        scenario.detector_colo(),
        ProbeEngineConfig::default(),
    )
}

/// Pairs in a scenario's §4.4 baseline corpus.
const BASELINE_PAIRS: usize = 300;

/// The pairs of a scenario's §4.4 baseline corpus: the simulator's
/// unbiased default probe set (edge sources toward content prefixes,
/// sampled at `scenario.seed`), each as (source AS, origin AS of the
/// sampled prefix). Two prefixes of one origin stay two pairs.
pub fn baseline_pairs(scenario: &Scenario) -> Vec<ProbeTask> {
    let world = &scenario.world;
    let asn = |idx: kepler_netsim::world::AsIdx| world.ases[idx.0 as usize].asn;
    (default_pairs(world, scenario.seed, BASELINE_PAIRS).into_iter())
        .map(|p| ProbeTask { vantage: asn(p.src), target: asn(world.origin_of(p.dst)) })
        .collect()
}

/// A canary panel whose quiet-time baseline paths verifiably transit the
/// given facilities, traced through `backend`: edge-network vantages
/// traced toward facility members (sorted), keeping the first crossing
/// vantage per member and up to `per_facility` pairs per building. The
/// panel keeps delay telemetry flowing even when no validation campaign
/// happens to be running.
pub fn canary_panel_on(
    backend: &impl TraceBackend,
    world: &World,
    facilities: &[FacilityId],
    per_facility: usize,
    quiet_t: u64,
) -> Vec<ProbeTask> {
    let vantages: Vec<Asn> = edge_ases(world).map(|n| n.asn).take(6).collect();
    let mut panel = Vec::new();
    let mut seen: BTreeSet<(Asn, Asn)> = BTreeSet::new();
    let mut tr = Trace::default();
    for &f in facilities {
        let mut kept = 0usize;
        let mut members: Vec<Asn> = world.colo.members_of_facility(f).iter().copied().collect();
        members.sort();
        'member: for target in members {
            for &vantage in &vantages {
                if vantage == target {
                    continue;
                }
                backend.trace_into(vantage, target, quiet_t, &mut tr);
                if tr.reached && tr.crosses_facility(f) && seen.insert((vantage, target)) {
                    panel.push(ProbeTask { vantage, target });
                    kept += 1;
                    if kept >= per_facility {
                        break 'member;
                    }
                    // Diversify targets: one pair per member building port.
                    break;
                }
            }
        }
    }
    panel
}

/// [`canary_panel_on`] through a fresh [`sim_backend`].
///
/// Kept for `benchmark/` until ROADMAP item 4 moves it onto [`Stack`].
pub fn canary_panel(
    scenario: &Scenario,
    facilities: &[FacilityId],
    per_facility: usize,
    quiet_t: u64,
) -> Vec<ProbeTask> {
    canary_panel_on(&sim_backend(scenario), &scenario.world, facilities, per_facility, quiet_t)
}

/// Measures a remoteness map the way a deployment would: a quiet-time
/// traceroute campaign through `backend` from a handful of edge vantages
/// towards every exchange member, folded into per-(IXP, member) minimum
/// LAN-entry steps ([`RemotenessMap::observe_trace`]).
pub fn remoteness_for(backend: &impl TraceBackend, world: &World, quiet_t: u64) -> RemotenessMap {
    let vantages: Vec<Asn> = edge_ases(world).map(|n| n.asn).take(4).collect();
    let mut targets: BTreeSet<Asn> = BTreeSet::new();
    for ixp in world.colo.ixps() {
        targets.extend(world.colo.members_of_ixp(ixp.id).iter().copied());
    }
    let mut map = RemotenessMap::new();
    let mut tr = Trace::default();
    for &target in &targets {
        for &vantage in &vantages {
            backend.trace_into(vantage, target, quiet_t, &mut tr);
            map.observe_trace(&tr.hops);
        }
    }
    map
}

/// Which fused auxiliary signal sources [`Stack::Fused`] attaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusionOptions {
    /// Attach the seasonal-forecast presence detector and register a
    /// presence watch for every trackable facility.
    pub forecast: bool,
    /// Attach the differential-RTT delay detector, tapping the probe
    /// engine's telemetry and tracing a canary panel every bin.
    pub delay: bool,
    /// Canary pairs kept per covered facility.
    pub canaries_per_facility: usize,
}

impl Default for FusionOptions {
    fn default() -> Self {
        FusionOptions { forecast: true, delay: true, canaries_per_facility: 4 }
    }
}

/// Every detector stack the repository builds, one variant per stack some
/// caller runs. Each probe engine and the delay detector measure through
/// their own [`sim_backend`] over one shared copy of the world.
#[derive(Debug, Clone, PartialEq)]
pub enum Stack {
    /// The passive pipeline alone ([`detector_for`]).
    Passive,
    /// Passive plus a targeted-probe engine that disambiguates ambiguous
    /// localizations by active measurement.
    Probed,
    /// [`Stack::Probed`] whose engine also re-probes the §4.4 corpus of
    /// [`baseline_pairs`]: the fuzz harness's deviation-only stack.
    Validated,
    /// [`Stack::Probed`] plus a restoration engine (its own token bucket):
    /// incidents close on data-plane recovery, not BGP reconvergence.
    Lifecycle,
    /// [`Stack::Lifecycle`] with both engines behind a [`FaultyBackend`]
    /// (loss, deadline blowouts, truncation, churn, brownouts). Past the
    /// completeness quorum verdicts degrade to passive instead of blocking.
    Faulty(FaultConfig),
    /// [`Stack::Probed`] plus a seasonal-forecast detector over presence
    /// watches of every trackable facility, and a differential-RTT delay
    /// detector fed by the engine's telemetry and a canary panel selected
    /// through its own backend; engine and canaries share one RTT ledger.
    Fused(FusionOptions),
}

/// Builds the detector `stack` names for a scenario.
pub fn detector(scenario: &Scenario, config: KeplerConfig, stack: &Stack) -> Kepler {
    // One copy of the world for all of the stack's backends, made on first use.
    let shared = OnceCell::new();
    let world = || Arc::clone(shared.get_or_init(|| Arc::new(scenario.world.clone())));
    let backend = || backend_on(world(), scenario);
    let engine = || prober(scenario, SyncAdapter(backend()));
    let passive = detector_for(scenario, config.clone());
    match stack {
        Stack::Passive => passive,
        Stack::Probed => passive.with_prober(Box::new(engine())),
        Stack::Validated => passive.with_prober(Box::new(
            engine().with_baseline_corpus(&baseline_pairs(scenario), scenario.start + 600),
        )),
        Stack::Lifecycle => {
            passive.with_prober(Box::new(engine())).with_restoration_prober(Box::new(engine()))
        }
        Stack::Faulty(fault) => {
            let faulty = || prober(scenario, FaultyBackend::new(backend(), fault.clone()));
            passive.with_prober(Box::new(faulty())).with_restoration_prober(Box::new(faulty()))
        }
        Stack::Fused(opts) => {
            let quiet_t = scenario.start + 600;
            let trackable = trackable_facilities(scenario, &config);
            let mut engine = engine();
            // The ledger, its tap on the engine and its only reader are
            // built together: without the delay source nothing would ever
            // drain it.
            let mut delay = None;
            if opts.delay {
                let ledger = kepler_probe::telemetry::shared_ledger(config.delay_threshold_ms);
                engine = engine.with_telemetry(ledger.clone());
                let backend = backend();
                let (world, per) = (&scenario.world, opts.canaries_per_facility);
                let panel = canary_panel_on(&backend, world, &trackable, per, quiet_t);
                delay = Some(DelayDetector::with_canary(&config, ledger, backend, panel, quiet_t));
            }
            let mut kepler = passive.with_prober(Box::new(engine));
            if opts.forecast || opts.delay {
                // Presence watches keep the monitor closing every dense bin
                // even through record silence — the signal sources are
                // polled once per closed bin, so a watch-less monitor would
                // starve them on quiet streams (a pure data-plane surge
                // produces no records).
                for &f in &trackable {
                    kepler.watch_presence(LocationTag::Facility(f));
                }
            }
            if opts.forecast {
                kepler = kepler.with_signal_source(Box::new(ForecastDetector::new(&config)));
            }
            if let Some(delay) = delay {
                kepler = kepler.with_signal_source(Box::new(delay));
            }
            kepler
        }
    }
}

/// [`detector`] for [`Stack::Probed`].
///
/// Kept for `benchmark/` until ROADMAP item 4 moves it onto [`Stack`].
pub fn detector_with_prober(scenario: &Scenario, config: KeplerConfig) -> Kepler {
    detector(scenario, config, &Stack::Probed)
}

/// [`detector`] for [`Stack::Lifecycle`].
///
/// Kept for `benchmark/` until ROADMAP item 4 moves it onto [`Stack`].
pub fn detector_with_lifecycle(scenario: &Scenario, config: KeplerConfig) -> Kepler {
    detector(scenario, config, &Stack::Lifecycle)
}

/// [`detector`] for [`Stack::Fused`].
///
/// Kept for `benchmark/` until ROADMAP item 4 moves it onto [`Stack`].
pub fn detector_with_fusion(
    scenario: &Scenario,
    config: KeplerConfig,
    opts: FusionOptions,
) -> Kepler {
    detector(scenario, config, &Stack::Fused(opts))
}

/// Facilities the detector can track in this scenario, under the paper's
/// ≥`min_members` locatable-members rule.
pub fn trackable_facilities(scenario: &Scenario, config: &KeplerConfig) -> Vec<FacilityId> {
    let dictionary = scenario.mined_dictionary();
    scenario
        .world
        .colo
        .facilities()
        .iter()
        .filter(|f| {
            is_trackable(
                &scenario.world,
                &dictionary,
                &Epicenter::Facility(f.id),
                config.trackable_min_members,
            )
        })
        .map(|f| f.id)
        .collect()
}

/// Builds a detector for a scenario: mined dictionary, merged colocation
/// map, organization map, and the given configuration.
pub fn detector_for(scenario: &Scenario, config: KeplerConfig) -> Kepler {
    Kepler::new(KeplerInputs {
        config,
        dictionary: scenario.mined_dictionary(),
        colo: scenario.detector_colo(),
        orgs: scenario.world.orgs.clone(),
    })
}

/// Whether a facility/IXP is *trackable* under the paper's rule: at least
/// `min_members` of its members are locatable through the dictionary.
pub fn is_trackable(
    world: &World,
    dictionary: &CommunityDictionary,
    epicenter: &Epicenter,
    min_members: usize,
) -> bool {
    let locatable = |asn: kepler_bgp::Asn| asn.is_16bit() && dictionary.covers_asn(asn.0 as u16);
    match epicenter {
        Epicenter::Facility(f) => {
            world.colo.members_of_facility(*f).iter().filter(|&&a| locatable(a)).count()
                >= min_members
        }
        Epicenter::Ixp(x) => {
            world.colo.members_of_ixp(*x).iter().filter(|&&a| locatable(a)).count() >= min_members
        }
    }
}

/// Surveys which facilities are *observably trackable* in a world: emits a
/// quiet (event-free) stream, warms a monitor past the stability window,
/// and ranks facilities by the near/far AS coverage of the PoP tags that
/// locate them. This is the paper's trackability criterion (≥3 near-end +
/// ≥3 far-end locatable members) evaluated against what the vantage points
/// actually deliver.
pub fn survey_trackable_facilities(
    world: &World,
    seed: u64,
) -> Vec<(kepler_topology::FacilityId, usize, usize)> {
    use kepler_core::input::InputModule;
    use kepler_core::intern::Interner;
    use kepler_core::monitor::Monitor;
    use kepler_docmine::dictionary::dictionary_from_schemes;
    use kepler_docmine::LocationTag;
    use kepler_netsim::engine::{CollectorSetup, Simulation};

    let start = 1_000_000_000u64;
    let setup = CollectorSetup::default_for(world, 4, 48, seed);
    let output = Simulation::new(world, setup, start, seed).run(&[], start + 3600);
    let mut dictionary = dictionary_from_schemes(&world.schemes, false);
    dictionary.add_route_servers_from(&world.colo);
    let mut input = InputModule::new(dictionary, world.detector_colomap());
    let config = KeplerConfig::default();
    let stable = config.stable_secs;
    let mut interner = Interner::new();
    let mut monitor = Monitor::new(config);
    for rec in &output.records {
        input.process_record_events(rec, &mut interner, |ev| {
            monitor.observe(rec.time, &ev);
        });
    }
    monitor.advance_to(start + stable + 3600);
    let mut ranked: Vec<(kepler_topology::FacilityId, usize, usize)> = world
        .colo
        .facilities()
        .iter()
        .map(|f| {
            let (n, fa) = interner
                .lookup_pop(LocationTag::Facility(f.id))
                .map(|pop| monitor.pop_coverage(pop))
                .unwrap_or((0, 0));
            (f.id, n, fa)
        })
        .collect();
    ranked.sort_by_key(|(id, n, f)| (std::cmp::Reverse(n.min(f).to_owned()), id.0));
    ranked
}

/// Every PoP tag through which an epicenter can be located: its own
/// facility/IXP tag, its city tag, and co-located IXP/facility tags.
fn epicenter_tags(world: &World, epicenter: &Epicenter) -> Vec<kepler_docmine::LocationTag> {
    use kepler_docmine::LocationTag;
    let mut tags: Vec<LocationTag> = Vec::new();
    match epicenter {
        Epicenter::Facility(f) => {
            tags.push(LocationTag::Facility(*f));
            if let Some(fac) = world.colo.facility(*f) {
                tags.push(LocationTag::City(fac.city));
            }
            for x in world.colo.ixps_at_facility(*f) {
                tags.push(LocationTag::Ixp(*x));
            }
        }
        Epicenter::Ixp(x) => {
            tags.push(LocationTag::Ixp(*x));
            if let Some(ixp) = world.colo.ixp(*x) {
                tags.push(LocationTag::City(ixp.city));
            }
            for f in world.colo.facilities_of_ixp(*x) {
                tags.push(LocationTag::Facility(*f));
            }
        }
    }
    tags
}

/// Whether an epicenter was *observably* trackable during a run: some PoP
/// tag locating it (its own facility/IXP tag, its city tag, or a co-located
/// IXP tag) accumulated ≥3 near-end and ≥3 far-end ASes in the stable
/// baseline. This is the paper's applicability criterion evaluated against
/// what the vantage points actually delivered.
pub fn observed_trackable(
    world: &World,
    monitor: &kepler_core::monitor::Monitor,
    interner: &kepler_core::Interner,
    epicenter: &Epicenter,
) -> bool {
    epicenter_tags(world, epicenter).iter().any(|t| {
        let (n, f) = interner.lookup_pop(*t).map(|pop| monitor.pop_coverage(pop)).unwrap_or((0, 0));
        n >= 3 && f >= 3
    })
}

/// Like [`truth_outages`] but with trackability determined from the
/// detector's *observed* baseline coverage instead of the static
/// dictionary heuristic.
pub fn truth_outages_observed(
    scenario: &Scenario,
    config: &KeplerConfig,
    detector: &Kepler,
) -> Vec<TruthOutage> {
    let mut out = truth_outages(scenario, config);
    for t in &mut out {
        if !t.trackable {
            continue;
        }
        let epicenter = match t.scope {
            OutageScope::Facility(f) => Epicenter::Facility(f),
            OutageScope::Ixp(x) => Epicenter::Ixp(x),
            OutageScope::City(_) => continue,
        };
        let (monitor, interner) = detector.monitor_and_interner();
        t.trackable = observed_trackable(&scenario.world, monitor, interner, &epicenter);
    }
    out
}

/// Converts simulator ground truth into detector-agnostic truth records.
pub fn truth_outages(scenario: &Scenario, config: &KeplerConfig) -> Vec<TruthOutage> {
    let dictionary = scenario.mined_dictionary();
    scenario
        .output
        .ground_truth
        .iter()
        .filter_map(|gt| {
            let epicenter = gt.kind.epicenter()?;
            let scope = match epicenter {
                Epicenter::Facility(f) => OutageScope::Facility(f),
                Epicenter::Ixp(x) => OutageScope::Ixp(x),
            };
            let city = match epicenter {
                Epicenter::Facility(f) => scenario.world.colo.facility(f).map(|f| f.city),
                Epicenter::Ixp(x) => scenario.world.colo.ixp(x).map(|x| x.city),
            };
            let aliases = match epicenter {
                // An IXP outage may be pinned to a fabric building when no
                // surviving path discriminates.
                Epicenter::Ixp(x) => scenario
                    .world
                    .colo
                    .facilities_of_ixp(x)
                    .iter()
                    .map(|f| OutageScope::Facility(*f))
                    .collect(),
                // A facility outage equals the outage of any IXP whose
                // entire fabric lives inside it.
                Epicenter::Facility(f) => scenario
                    .world
                    .colo
                    .ixps_at_facility(f)
                    .iter()
                    .filter(|x| {
                        let fabric = scenario.world.colo.facilities_of_ixp(**x);
                        fabric.len() == 1 && fabric.contains(&f)
                    })
                    .map(|x| OutageScope::Ixp(*x))
                    .collect(),
            };
            Some(TruthOutage {
                id: gt.id,
                scope,
                city,
                aliases,
                start: gt.start,
                duration: gt.duration,
                is_infrastructure: gt.kind.is_infrastructure_outage(),
                trackable: is_trackable(
                    &scenario.world,
                    &dictionary,
                    &epicenter,
                    config.trackable_min_members,
                ),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kepler_netsim::events::EventKind;
    use kepler_netsim::scenario::amsix::{AmsIxScenario, OUTAGE_DURATION, OUTAGE_START};
    use kepler_netsim::world::WorldConfig;

    /// The AMS-IX study's canary panel (tiny world) and a timeline that
    /// takes down a building the quiet panel crosses, so a sweep sees
    /// more than one failure state (and restoration tails).
    fn panel_under_outage() -> (Arc<World>, Vec<ProbeTask>, [ScheduledEvent; 1]) {
        let scenario = AmsIxScenario::new(7).with_config(WorldConfig::tiny(7)).build().scenario;
        let config = KeplerConfig::default();
        let facilities = trackable_facilities(&scenario, &config);
        let panel = canary_panel(&scenario, &facilities, 4, scenario.start + 600);
        assert!(panel.len() >= 4, "{panel:?}");
        let quiet = sim_backend(&scenario);
        let dark = facilities
            .iter()
            .copied()
            .find(|&f| {
                panel
                    .iter()
                    .any(|p| quiet.trace(p.vantage, p.target, OUTAGE_START).crosses_facility(f))
            })
            .expect("the panel crosses a trackable facility");
        let timeline = [ScheduledEvent {
            start: OUTAGE_START,
            duration: OUTAGE_DURATION,
            kind: EventKind::FacilityOutage { facility: dark, affected_fraction: 1.0 },
        }];
        (Arc::new(scenario.world.clone()), panel, timeline)
    }

    /// The canary panel, pinned as `(len, FNV-64 of {:?})`: the AMS-IX
    /// tiny world of [`panel_under_outage`] and the three fusion families
    /// at seeds 1–3. The panel feeds the fused stack's delay detector, so
    /// a moved panel moves every fused report.
    #[test]
    fn canary_panel_is_pinned() {
        use kepler_netsim::fuzz::{delay_surge, pure_seasonal, slow_drain};
        let fnv64 = |bytes: &[u8]| {
            (bytes.iter()).fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
        };
        let amsix = AmsIxScenario::new(7).with_config(WorldConfig::tiny(7)).build().scenario;
        let mut scenarios = vec![("amsix-7".to_string(), amsix)];
        for seed in 1..=3 {
            scenarios.push((format!("slow_drain-{seed}"), slow_drain(seed).scenario));
            scenarios.push((format!("delay_surge-{seed}"), delay_surge(seed).scenario));
            scenarios.push((format!("seasonal-{seed}"), pure_seasonal(seed).scenario));
        }
        let got: Vec<String> = scenarios
            .iter()
            .map(|(name, s)| {
                let facilities = trackable_facilities(s, &KeplerConfig::default());
                let panel = canary_panel(s, &facilities, 4, s.start + 600);
                format!("{name} {} {:016x}", panel.len(), fnv64(format!("{panel:?}").as_bytes()))
            })
            .collect();
        let want = [
            "amsix-7 15 c147bd2f72be4112",
            "slow_drain-1 44 8ca3159112e098cb",
            "delay_surge-1 44 8ca3159112e098cb",
            "seasonal-1 44 8ca3159112e098cb",
            "slow_drain-2 43 123df995ba724c38",
            "delay_surge-2 43 123df995ba724c38",
            "seasonal-2 43 123df995ba724c38",
            "slow_drain-3 38 f0981778957c9201",
            "delay_surge-3 38 f0981778957c9201",
            "seasonal-3 38 f0981778957c9201",
        ];
        assert_eq!(got, want);
    }

    /// Whole-trace equality, `f64` bits included.
    fn assert_same_trace(got: &Trace, want: &Trace, what: &str) {
        assert_eq!(got, want, "{what}");
        let bits = |tr: &Trace| tr.hops.iter().map(|h| h.rtt_ms.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}: RTT bits");
    }

    #[test]
    fn trace_into_is_trace_across_an_outage_window() {
        let (world, panel, timeline) = panel_under_outage();
        let owned = SimTraceBackend::new(Arc::clone(&world), &timeline, 5);
        let reused = SimTraceBackend::new(world, &timeline, 5);
        // One buffer for the whole sweep, dirty from the first trace on.
        let mut out = Trace::default();
        let mut moved = 0usize;
        let end = OUTAGE_START + OUTAGE_DURATION;
        for t in [OUTAGE_START - 60, OUTAGE_START, OUTAGE_START + 300, end, end + 900, end + 86_000]
        {
            for p in &panel {
                reused.trace_into(p.vantage, p.target, t, &mut out);
                assert_same_trace(
                    &out,
                    &owned.trace(p.vantage, p.target, t),
                    &format!("{p:?} at {t}"),
                );
                let quiet = owned.trace(p.vantage, p.target, OUTAGE_START - 60);
                let owners = |tr: &Trace| tr.hops.iter().map(|h| h.owner).collect::<Vec<_>>();
                moved += (owners(&out) != owners(&quiet)) as usize;
            }
        }
        assert!(moved > 0, "the outage re-routed no canary: the sweep saw one failure state");
        // An unmeasurable pair right after a reachable one: neither the
        // hops nor the verdict of the previous trace may survive, but the
        // hop buffer does.
        let p = panel[0];
        reused.trace_into(p.vantage, p.target, OUTAGE_START - 60, &mut out);
        assert!(out.reached && !out.hops.is_empty(), "{out:?}");
        let capacity = out.hops.capacity();
        reused.trace_into(kepler_bgp::Asn(4_000_000_000), p.target, OUTAGE_START - 60, &mut out);
        assert_eq!(out, Trace::unreachable());
        assert_eq!(out.hops.capacity(), capacity, "an unmeasurable pair dropped the hop buffer");
        assert_eq!(owned.trace(kepler_bgp::Asn(4_000_000_000), p.target, 0), Trace::unreachable());
    }

    #[test]
    fn trace_panel_is_trace_into_at_every_bin_across_the_outage() {
        let (world, panel, timeline) = panel_under_outage();
        let reference = SimTraceBackend::new(Arc::clone(&world), &timeline, 5);
        // A second panel the sweep switches to now and then: reordered,
        // with an unmeasurable pair in it, so the batched backend has to
        // notice the slice changed and re-resolve.
        let mut other: Vec<ProbeTask> = panel.iter().rev().copied().collect();
        other.insert(1, ProbeTask { vantage: kepler_bgp::Asn(4_000_000_000), ..panel[0] });
        let end = OUTAGE_START + OUTAGE_DURATION;
        // Default caps, then caps small enough that the skeletons of the
        // outage and of the ragged restoration tails evict everything
        // between rounds: the panel's held windows must notice.
        let small = TreeCache::with_caps(4_096, panel.len() + 1);
        for (cache, evicts) in [(TreeCache::new(), false), (small, true)] {
            let batched = SimTraceBackend::new(Arc::clone(&world), &timeline, 5);
            *batched.cache.borrow_mut() = cache;
            let (mut scratch, mut want) = (Trace::default(), Trace::default());
            for t in (OUTAGE_START - 600..=end + 4 * 3_600).step_by(60) {
                let round = if (t / 60) % 40 == 0 { &other } else { &panel };
                let mut seen = 0;
                batched.trace_panel(round, t, &mut scratch, &mut |p, got| {
                    assert_eq!(*p, round[seen]);
                    reference.trace_into(p.vantage, p.target, t, &mut want);
                    assert_same_trace(got, &want, &format!("{p:?} at {t}"));
                    seen += 1;
                });
                assert_eq!(seen, round.len());
            }
            let evictions = batched.cache.borrow().evictions();
            assert_eq!(evictions >= 2, evicts, "{evictions} wholesale evictions");
        }
    }

    /// The §4.4 re-probe the engine answers from its corpus, against a
    /// straight-line reference over the prober's own simulator and pairs:
    /// trace every corpus pair once at the quiet instant, index each
    /// reached trace under every facility, IXP and city it crosses
    /// (cities from `world.colo`), and answer a scope by re-tracing its
    /// pairs. Worlds with several events are where restoration tails
    /// overlap later events.
    #[test]
    fn engine_baseline_is_the_straight_line_reference() {
        use kepler_netsim::dataplane::IfaceOwner;
        use kepler_netsim::fuzz::{generated, FailureKind};
        use kepler_probe::{Epicenter, ProbeResult, Prober};
        use std::collections::{BTreeMap, BTreeSet};
        let mut samples = 0usize;
        for (seed, kind) in
            [(1, FailureKind::Single), (2, FailureKind::Cascade), (3, FailureKind::Flapping)]
        {
            let s = &generated(seed, Some(kind)).scenario;
            let (world, quiet_t, pairs) = (&s.world, s.start + 600, baseline_pairs(s));
            let mut engine =
                prober(s, SyncAdapter(sim_backend(s))).with_baseline_corpus(&pairs, quiet_t);
            let dp = DataplaneSim::new(world, &s.timeline, s.seed ^ 0x9B0E);
            let mut cache = TreeCache::new();
            let scopes = |hops: &[kepler_netsim::dataplane::TraceHop]| {
                let mut out = BTreeSet::new();
                for h in hops {
                    let (scope, city) = match h.owner {
                        IfaceOwner::FacilityPort { facility, .. } => (
                            OutageScope::Facility(facility),
                            world.colo.facility(facility).map(|f| f.city),
                        ),
                        IfaceOwner::IxpLan { ixp, .. } => {
                            (OutageScope::Ixp(ixp), world.colo.ixp(ixp).map(|x| x.city))
                        }
                    };
                    out.insert(scope);
                    out.extend(city.map(OutageScope::City));
                }
                out
            };
            let mut index: BTreeMap<OutageScope, Vec<ProbePair>> = BTreeMap::new();
            for task in &pairs {
                let Some(pair) = dp.pair_between(task.vantage, task.target) else { continue };
                let quiet = dp.traceroute_with(&mut cache, pair, quiet_t);
                if quiet.reached {
                    for scope in scopes(&quiet.hops) {
                        index.entry(scope).or_default().push(pair);
                    }
                }
            }
            assert!(index.len() >= 10, "seed {seed}: {} scopes", index.len());
            let mut instants = vec![quiet_t];
            for ev in &s.timeline {
                instants.push(ev.start + ev.duration / 2);
                instants.extend([0, 300, 1_800, 3_600, 7_200, 10_000].map(|d| ev.end() + d));
            }
            for t in instants {
                for (scope, scope_pairs) in &index {
                    let still = (scope_pairs.iter())
                        .filter(|&&p| {
                            let tr = dp.traceroute_with(&mut cache, p, t);
                            tr.reached && scopes(&tr.hops).contains(scope)
                        })
                        .count();
                    let want = ProbeResult { still_crossing: still, baseline: scope_pairs.len() };
                    let epicenter = match *scope {
                        OutageScope::Facility(f) => Epicenter::Facility(f),
                        OutageScope::Ixp(x) => Epicenter::Ixp(x),
                        OutageScope::City(c) => Epicenter::City(c),
                    };
                    let got = engine.baseline(epicenter, t);
                    assert_eq!(got, Some(want), "seed {seed}, {scope:?} at {t}");
                    samples += 1;
                }
            }
        }
        assert!(samples >= 1_000, "{samples} samples");
    }
}
