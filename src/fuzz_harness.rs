//! Harness for the scenario fuzzer: runs a generated world through the
//! detector and checks the safety invariants.
//!
//! [`kepler_netsim::fuzz`] only *generates* — netsim cannot see the
//! detector. This module closes the loop: it builds a detector for a
//! [`FuzzWorld`] with the hysteresis knobs the script prescribes,
//! attaches a remoteness map measured from a quiet-time campaign for
//! remote-peering worlds, feeds the stream, and checks every report
//! against ground truth:
//!
//! 1. **No validated bystander** — a probe-confirmed or
//!    dataplane-confirmed verdict always names a failed scope (or its
//!    fabric/city alias) within the outage window; unvalidated passive
//!    strays are tolerated only within a small budget.
//! 2. **No early close** — a closed report never ends more than the
//!    slack before the last matching failure actually restored.
//! 3. **Flapping converges** — a flapping epicenter yields at most one
//!    incident, riding Open↔Recovering under the closing hysteresis
//!    (`oscillations == 1`), and that incident spans the whole flap: a
//!    mid-flap close is unrecoverable, because the stable-path baseline
//!    prunes deviated routes and later down phases cannot re-signal.
//! 4. **Remote peers stay unlocalized** — a member peering remotely at
//!    the failed fabric never drags the blame to a building of its
//!    distant home metro.
//!
//! The invariants are *safety-only*: a script is free to stage an
//! outage too small for the vantage points to see, and silence is a
//! valid outcome. (The fixed-seed smoke suite separately asserts the
//! sweep is not vacuous.) On violation, [`write_artifact`] serializes
//! the seed + script so the exact world replays locally with
//! `repro --fuzz-seed <N>`.

use crate::glue::{
    baseline_pairs, detector_for, detector_with_fusion, prober_for, truth_outages, FusionOptions,
};
use kepler_core::events::{OutageReport, OutageScope, ValidationStatus};
use kepler_core::metrics::TruthOutage;
use kepler_core::system::ClassCounts;
use kepler_core::{Kepler, KeplerConfig, RemotenessMap};
use kepler_netsim::dataplane::{DataplaneSim, TreeCache};
use kepler_netsim::fuzz::{generated, FailureKind, FailureScript, FuzzWorld, ScenarioScript};
use kepler_netsim::scenario::Scenario;
use kepler_topology::AsType;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Timing slack (seconds) granted to report boundaries, matching the
/// evaluation slack used across the test suites.
pub const SLACK_SECS: u64 = 900;

/// How many unvalidated reports matching no ground truth a single world
/// may produce before the checker calls it a false-positive flood.
/// Passive-only localization has documented stray reports (the paper
/// adds §4.4 data-plane validation precisely to kill them); the budget
/// keeps that noise bounded without failing every noisy tiny world.
pub const MAX_UNVALIDATED_STRAYS: usize = 4;

/// The outcome of one fuzz world: what the detector said, what the
/// ground truth was, and every invariant violation found.
pub struct FuzzVerdict {
    /// The script the world was built from.
    pub script: ScenarioScript,
    /// Detector reports.
    pub reports: Vec<OutageReport>,
    /// Ground-truth outages.
    pub truth: Vec<TruthOutage>,
    /// Human-readable invariant violations; empty means the world passed.
    pub violations: Vec<String>,
    /// The detector's classification counters for the run — per-signal
    /// attribution and fusion bookkeeping live here.
    pub counts: ClassCounts,
}

impl FuzzVerdict {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether at least one report named a ground-truth outage (used by
    /// the smoke suite to prove the sweep is not vacuous).
    pub fn detected(&self) -> bool {
        self.reports.iter().any(|r| self.truth.iter().any(|t| t.named_by(&r.scope)))
    }
}

/// Measures a remoteness map the way a deployment would: a quiet-time
/// traceroute campaign from a handful of edge vantages towards every
/// exchange member, folded into per-(IXP, member) minimum LAN-entry
/// steps ([`RemotenessMap::observe_trace`]).
pub fn remoteness_for(scenario: &Scenario, quiet_t: u64) -> RemotenessMap {
    let world = &scenario.world;
    let dp = DataplaneSim::probe_only(world, &scenario.timeline, scenario.seed ^ 0x5EE5);
    let mut cache = TreeCache::new();
    let mut map = RemotenessMap::new();
    let vantages: Vec<kepler_bgp::Asn> = world
        .ases
        .iter()
        .filter(|n| matches!(n.info.as_type, AsType::Eyeball | AsType::Stub))
        .map(|n| n.asn)
        .take(4)
        .collect();
    let mut targets: BTreeSet<kepler_bgp::Asn> = BTreeSet::new();
    for ixp in world.colo.ixps() {
        targets.extend(world.colo.members_of_ixp(ixp.id).iter().copied());
    }
    for &target in &targets {
        for &vantage in &vantages {
            let Some(pair) = dp.pair_between(vantage, target) else { continue };
            let tr = dp.traceroute_with(&mut cache, pair, quiet_t);
            map.observe_trace(&tr.hops);
        }
    }
    map
}

/// Generates, builds and checks the world for a fuzzer seed.
pub fn check_seed(seed: u64) -> FuzzVerdict {
    check_world(&generated(seed, None))
}

/// Builds and checks the world a script describes (hand-authored
/// regression scripts); a script that does not build is an error.
pub fn check_script(script: &ScenarioScript) -> Result<FuzzVerdict, String> {
    script.build().map(|fw| check_world(&fw))
}

/// [`check_seed`] with the fused multi-signal detector (forecast +
/// delay sources on top of the deviation pipeline).
pub fn check_seed_fused(seed: u64) -> FuzzVerdict {
    check_world_fused(&generated(seed, None))
}

/// Runs an already-built fuzz world through the detector and checks the
/// invariants.
pub fn check_world(fw: &FuzzWorld) -> FuzzVerdict {
    let script = &fw.script;
    let config = KeplerConfig::default().with_hysteresis(script.open_after, script.close_after);
    // The passive pipeline plus both validation layers of one prober
    // (targeted campaigns, the §4.4 re-probe of its quiet-time corpus):
    // the invariants hold the *validated* layer to zero tolerance.
    let s = &fw.scenario;
    let prober =
        prober_for(s, Default::default()).with_baseline_corpus(&baseline_pairs(s), s.start + 600);
    let detector = detector_for(s, config.clone()).with_prober(Box::new(prober));
    run_checked(fw, detector, &config, false)
}

/// [`check_world`] with the fused multi-signal detector: the deviation
/// pipeline plus the seasonal-forecast and differential-RTT sources
/// ([`detector_with_fusion`]). The safety invariants are the same — the
/// auxiliary signals must not manufacture validated bystanders.
pub fn check_world_fused(fw: &FuzzWorld) -> FuzzVerdict {
    check_world_with(fw, FusionOptions::default())
}

/// [`check_world_fused`] with explicit fusion options — the ablation
/// sweeps rank signal combinations (deviation-only, +forecast, +delay,
/// all) through this.
pub fn check_world_with(fw: &FuzzWorld, opts: FusionOptions) -> FuzzVerdict {
    let script = &fw.script;
    let config = KeplerConfig::default().with_hysteresis(script.open_after, script.close_after);
    let detector = detector_with_fusion(&fw.scenario, config.clone(), opts);
    // The fused run drains the bin clock to the scenario end: a pure
    // data-plane failure (delay surge) leaves no control-plane records,
    // so without the explicit advance the canary panel would never be
    // polled through the quiet window. The deviation-only path keeps
    // the record-driven clock, bit-identical to the pre-fusion harness.
    run_checked(fw, detector, &config, true)
}

/// Streams the world through a configured detector, captures the
/// classification counters, and checks the invariants.
fn run_checked(
    fw: &FuzzWorld,
    mut detector: Kepler,
    config: &KeplerConfig,
    drain_to_end: bool,
) -> FuzzVerdict {
    let script = &fw.script;
    if script.script.kind() == FailureKind::Remote {
        detector = detector.with_remoteness(remoteness_for(&fw.scenario, fw.scenario.start + 600));
    }
    for rec in fw.scenario.records() {
        detector.process_record_owned(rec);
    }
    if drain_to_end {
        detector.advance_clock(fw.scenario.end);
    }
    let reports = detector.finalize();
    let counts = detector.class_counts();
    let truth = truth_outages(&fw.scenario, config);
    let violations = check_invariants(fw, &reports, &truth);
    FuzzVerdict { script: script.clone(), reports, truth, violations, counts }
}

/// Whether a report names this truth outage (scope, alias or city) and
/// starts inside its window (± [`SLACK_SECS`]).
fn matches_truth(report: &OutageReport, truth: &TruthOutage) -> bool {
    truth.named_by(&report.scope)
        && report.start + SLACK_SECS >= truth.start
        && report.start <= truth.start + truth.duration + SLACK_SECS
}

fn check_invariants(
    fw: &FuzzWorld,
    reports: &[OutageReport],
    truth: &[TruthOutage],
) -> Vec<String> {
    let mut violations = Vec::new();
    let world = &fw.scenario.world;

    // 4. Remote peers stay unlocalized: collect the buildings the blame
    // must never land on — home-metro facilities of members peering
    // remotely at a failed fabric.
    let mut forbidden: BTreeSet<kepler_topology::FacilityId> = BTreeSet::new();
    if fw.script.script.kind() == FailureKind::Remote {
        for (asn, home_city) in fw.remote_victims() {
            if home_city == fw.city {
                continue;
            }
            for f in world.colo.facilities_of_as(asn) {
                if world.colo.facility(f).map(|fac| fac.city) == Some(home_city) {
                    forbidden.insert(f);
                }
            }
        }
    }

    // A correlated cascade is *one* compound event: its overlapping
    // signal waves legitimately consolidate onto any member facility,
    // with the cascade's onset as the incident start. A report naming
    // any cascade scope therefore matches against the cascade's full
    // window, not the per-facility one.
    let cascade = matches!(fw.script.script, FailureScript::Cascade { .. });
    let compound_window = (
        truth.iter().map(|t| t.start).min().unwrap_or(0),
        truth.iter().map(|t| t.start + t.duration).max().unwrap_or(0),
    );

    // A multi-building fabric is only *aliased* to a failed facility
    // when it lives entirely inside it (`truth_outages`), but a report
    // naming an exchange whose fabric ports in the dead building went
    // dark is the paper's facility↔IXP escalation, not a bystander:
    // every surviving observation of that exchange may route through
    // the dead switch. Accept it as naming that truth.
    let partial_fabric = |report: &OutageReport, t: &TruthOutage| match (report.scope, t.scope) {
        (OutageScope::Ixp(x), OutageScope::Facility(f)) => {
            world.colo.ixps_at_facility(f).contains(&x)
        }
        _ => false,
    };
    let names = |r: &OutageReport, t: &TruthOutage| t.named_by(&r.scope) || partial_fabric(r, t);

    let mut unmatched = 0usize;
    for report in reports {
        let mut matched: Vec<&TruthOutage> = truth
            .iter()
            .filter(|t| {
                names(report, t)
                    && report.start + SLACK_SECS >= t.start
                    && report.start <= t.start + t.duration + SLACK_SECS
            })
            .collect();
        if matched.is_empty()
            && cascade
            && truth.iter().any(|t| names(report, t))
            && report.start + SLACK_SECS >= compound_window.0
            && report.start <= compound_window.1 + SLACK_SECS
        {
            matched = truth.iter().collect();
        }
        // 1. No bystander blamed. Passive localization alone has known
        // false positives (the paper adds data-plane validation for
        // exactly this reason), so an unvalidated stray is tolerated in
        // bounded numbers — but a *validated* verdict naming something
        // healthy is always a violation, and so is any facility-level
        // report dragging blame to a remote peer's home metro.
        if matched.is_empty() {
            if report.validation == ValidationStatus::Confirmed
                || report.dataplane_confirmed == Some(true)
            {
                violations.push(format!(
                    "validated bystander: report {:?} starting {} was confirmed dark \
                     (validation {:?}, dataplane {:?}) but matches no ground-truth outage",
                    report.scope, report.start, report.validation, report.dataplane_confirmed
                ));
            }
            if let OutageScope::Facility(f) = report.scope {
                if forbidden.contains(&f) {
                    violations.push(format!(
                        "remote peer mislocalized: {:?} is a home-metro building of a \
                         member peering remotely at the failed fabric",
                        report.scope
                    ));
                }
            }
            unmatched += 1;
            continue;
        }
        // 2. No early close: the report must not end before the last
        // failure *it names* was actually repaired. (The compound-window
        // fallback explains a cascade report's start; its close is still
        // judged against its own facility's repair — an early cascade
        // member legitimately closes while later members are still down.)
        let last_end =
            matched.iter().filter(|t| names(report, t)).map(|t| t.start + t.duration).max();
        if let (Some(end), Some(last_end)) = (report.end, last_end) {
            if end + SLACK_SECS < last_end {
                violations.push(format!(
                    "false close: report {:?} ended {} but the failure ran until {}",
                    report.scope, end, last_end
                ));
            }
        }
    }

    // Passive-noise budget: a handful of unvalidated strays per world
    // is the documented passive-only behavior; a flood is a regression.
    if unmatched > MAX_UNVALIDATED_STRAYS {
        violations.push(format!(
            "false-positive flood: {unmatched} reports match no ground-truth outage \
             (budget {MAX_UNVALIDATED_STRAYS})"
        ));
    }

    // 3. Flapping converges to one Open↔Recovering incident spanning the
    // whole flap. The stable-path baseline prunes deviated routes at bin
    // close and re-promotion takes `stable_secs`, so only the *first*
    // down phase can open an incident passively — which is exactly why a
    // mid-flap close is unrecoverable: the detector cannot re-open on
    // later cycles, and the rest of the flap becomes a missed outage.
    // Closing hysteresis must therefore ride the up phases (the watch
    // list's restored streak resets on every re-withdrawal) and release
    // the incident only after the final restore.
    if let FailureScript::Flapping { facility, .. } = fw.script.script {
        let (_, flap_end) = fw.script.script.window();
        let epicenter: Vec<&OutageReport> =
            reports.iter().filter(|r| truth.iter().any(|t| matches_truth(r, t))).collect();
        if epicenter.len() > 1 {
            violations.push(format!(
                "flapping {:?} produced {} incidents instead of one",
                facility,
                epicenter.len()
            ));
        }
        for r in &epicenter {
            if r.oscillations != 1 {
                violations.push(format!(
                    "flapping {:?} closed mid-flap: report shows {} merged sub-outages \
                     (closing hysteresis should hold the incident open across up phases)",
                    facility, r.oscillations
                ));
            }
            if let Some(end) = r.end {
                if end + SLACK_SECS < flap_end {
                    violations.push(format!(
                        "flapping {:?} closed mid-flap: report ended {} but the flap ran \
                         until {} (later cycles are invisible to the pruned stable \
                         baseline, so the early close forfeits the rest of the outage)",
                        facility, end, flap_end
                    ));
                }
            }
        }
    }

    violations
}

/// Per-archetype detection-power accounting: of the worlds staged with
/// this failure kind, how many did the detector catch, how fast, and
/// which signal source fired first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PowerRow {
    /// Worlds staged with this archetype.
    pub worlds: usize,
    /// Worlds where a report named the staged failure inside its window.
    pub detected: usize,
    /// Detection latency (seconds past failure onset) per detected world.
    pub latencies: Vec<u64>,
    /// Signal kind that fired first, per detected world.
    pub first_detector: BTreeMap<String, usize>,
}

impl PowerRow {
    /// Worlds whose staged failure produced no matching report.
    pub fn missed(&self) -> usize {
        self.worlds - self.detected
    }

    /// Median detection latency in seconds, `None` with no detections.
    pub fn median_latency_secs(&self) -> Option<u64> {
        if self.latencies.is_empty() {
            return None;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        Some(sorted[sorted.len() / 2])
    }
}

/// Detection power across a set of fuzz verdicts, grouped by archetype.
/// Safety invariants say what the detector must never do; this report
/// says what it actually *caught* — the liveness side of the sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PowerReport {
    /// Rows keyed by archetype script name (`FailureKind::name`).
    pub rows: BTreeMap<String, PowerRow>,
}

impl PowerReport {
    /// Folds one world's verdict into the report. A world counts as
    /// detected when some report names a staged failure (scope, alias or
    /// city) and starts inside the script's failure window (± slack);
    /// the earliest such report provides the latency and the
    /// first-detector attribution (its earliest-firing source, with
    /// sourceless legacy reports counted as plain deviation).
    pub fn absorb(&mut self, verdict: &FuzzVerdict) {
        let row = self.rows.entry(verdict.script.script.kind().name().to_string()).or_default();
        row.worlds += 1;
        let (onset, end) = verdict.script.script.window();
        let first = verdict
            .reports
            .iter()
            .filter(|r| {
                verdict.truth.iter().any(|t| t.named_by(&r.scope))
                    && r.start + SLACK_SECS >= onset
                    && r.start <= end + SLACK_SECS
            })
            .min_by_key(|r| r.start);
        if let Some(report) = first {
            row.detected += 1;
            row.latencies.push(report.start.saturating_sub(onset));
            let kind = report
                .sources
                .iter()
                .min_by_key(|s| (s.first_bin, s.kind.tag()))
                .map(|s| s.kind.to_string())
                .unwrap_or_else(|| "deviation".to_string());
            *row.first_detector.entry(kind).or_default() += 1;
        }
    }

    /// Builds a report from a batch of verdicts.
    pub fn from_verdicts<'a>(verdicts: impl IntoIterator<Item = &'a FuzzVerdict>) -> PowerReport {
        let mut report = PowerReport::default();
        for v in verdicts {
            report.absorb(v);
        }
        report
    }

    /// Worlds absorbed across all archetypes.
    pub fn worlds(&self) -> usize {
        self.rows.values().map(|r| r.worlds).sum()
    }

    /// Worlds detected across all archetypes.
    pub fn detected(&self) -> usize {
        self.rows.values().map(|r| r.detected).sum()
    }

    /// A fixed-width table for CI logs and `repro --fuzz-seed`.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "archetype     worlds  detected  missed  median-latency-s  first-detector\n",
        );
        for (name, row) in &self.rows {
            let latency =
                row.median_latency_secs().map(|l| l.to_string()).unwrap_or_else(|| "-".to_string());
            let attribution = if row.first_detector.is_empty() {
                "-".to_string()
            } else {
                row.first_detector
                    .iter()
                    .map(|(k, n)| format!("{k}:{n}"))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            out.push_str(&format!(
                "{name:<13} {:>6}  {:>8}  {:>6}  {latency:>16}  {attribution}\n",
                row.worlds,
                row.detected,
                row.missed(),
            ));
        }
        out
    }
}

/// Serializes a failing world under `dir` as `seed-<N>.script`: the
/// replayable script text, plus the violations and the one-command
/// repro as `#` comments (the parser ignores them). Returns the path.
pub fn write_artifact(dir: &Path, verdict: &FuzzVerdict) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("seed-{}.script", verdict.script.seed));
    let mut text = verdict.script.render();
    text.push_str("#\n# invariant violations:\n");
    for v in &verdict.violations {
        text.push_str(&format!("#   {v}\n"));
    }
    text.push_str(&format!(
        "#\n# reproduce locally:\n#   cargo run --release -p kepler-bench --bin repro -- \
         --fuzz-seed {}\n",
        verdict.script.seed
    ));
    std::fs::write(&path, text)?;
    Ok(path)
}
