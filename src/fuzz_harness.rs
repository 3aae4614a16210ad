//! Harness for the scenario fuzzer: runs a generated world through the
//! detector and checks the safety invariants.
//!
//! [`kepler_netsim::fuzz`] only *generates* — netsim cannot see the
//! detector. This module closes the loop: [`check`] builds the detector
//! [`Stack`] it is given for a [`FuzzWorld`] with the hysteresis knobs
//! the script prescribes, attaches a remoteness map measured through the
//! scenario's trace backend ([`glue::remoteness_for`]) for
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
//! the script so the exact world replays locally on the same stack with
//! the command [`FuzzVerdict::replay_command`] prints.

use crate::glue::{self, detector, sim_backend, truth_outages, FusionOptions, Stack};
use kepler_core::events::{OutageReport, OutageScope, ValidationStatus};
use kepler_core::metrics::TruthOutage;
use kepler_core::system::ClassCounts;
use kepler_core::KeplerConfig;
use kepler_netsim::fuzz::{FailureKind, FailureScript, FuzzWorld, ScenarioScript};
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
    /// The detector stack the world was checked with.
    pub stack: Stack,
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

    /// The `repro` command that rebuilds this world from its artifact
    /// (the script [`write_artifact`] wrote to `artifact`) and checks it on
    /// the same stack. `repro` builds [`Stack::Validated`] and, with
    /// `--fused`, the default [`Stack::Fused`]; for any other stack this
    /// says it cannot replay it rather than name a command that would
    /// check a different one.
    pub fn replay_command(&self, artifact: &Path) -> String {
        let fused = match &self.stack {
            Stack::Validated => "",
            Stack::Fused(opts) if *opts == FusionOptions::default() => "--fused ",
            other => return format!("repro cannot rebuild the {other:?} stack; no replay command"),
        };
        format!(
            "cargo run --release -p kepler-bench --bin repro -- {fused}--fuzz-script {}",
            artifact.display()
        )
    }
}

/// Runs a fuzz world through the detector `stack` names and checks the
/// invariants. The fused stack drains the bin clock to the scenario end:
/// a pure data-plane failure (delay surge) leaves no control-plane
/// records, so without the explicit advance its canary panel would never
/// be polled through the quiet window. Every other stack keeps the
/// record-driven clock.
pub fn check(fw: &FuzzWorld, stack: &Stack) -> FuzzVerdict {
    let (script, s) = (&fw.script, &fw.scenario);
    let config = KeplerConfig::default().with_hysteresis(script.open_after, script.close_after);
    let mut detector = detector(s, config.clone(), stack);
    if script.script.kind() == FailureKind::Remote {
        let remoteness = glue::remoteness_for(&sim_backend(s), &s.world, s.start + 600);
        detector = detector.with_remoteness(remoteness);
    }
    for rec in s.records() {
        detector.process_record_owned(rec);
    }
    if matches!(stack, Stack::Fused(_)) {
        detector.advance_clock(s.end);
    }
    let reports = detector.finalize();
    let counts = detector.class_counts();
    let truth = truth_outages(s, &config);
    let violations = check_invariants(fw, &reports, &truth);
    FuzzVerdict { script: script.clone(), stack: stack.clone(), reports, truth, violations, counts }
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

/// Serializes a failing world under `dir` as `seed-<N>-<kind>.script`
/// (the fusion families share seeds with each other and with the
/// seed→kind pool): the replayable script text, plus the violations and
/// the replay command as `#` comments (the parser ignores them). Returns
/// the path.
pub fn write_artifact(dir: &Path, verdict: &FuzzVerdict) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let script = &verdict.script;
    let path = dir.join(format!("seed-{}-{}.script", script.seed, script.script.kind().name()));
    let mut text = script.render();
    text.push_str("#\n# invariant violations:\n");
    for v in &verdict.violations {
        text.push_str(&format!("#   {v}\n"));
    }
    text.push_str(&format!("#\n# reproduce locally:\n#   {}\n", verdict.replay_command(&path)));
    std::fs::write(&path, text)?;
    Ok(path)
}
