//! Settlement identity: the validation stage (`kepler_core::validate`
//! and the `handle_bin` pipeline that drives it) must settle every
//! pinned run exactly as the commit that generated
//! `tests/fixtures/settlement-v1.txt` did.
//!
//! One fixture line per run: label, the detector's `ClassCounts`
//! (`{:?}`), the report count, and the FNV-64 of `format!("{reports:?}")`.
//! The pinned set is the fuzz path (`check` on `Stack::Validated` over
//! the smoke seeds + 1000..1200 — §4.4 baseline re-probe and targeted
//! campaigns both attached), the fused path (`Stack::Fused` over the three fusion
//! world families, seeds 1–3), and the twin-study detectors the chaos
//! and lifecycle suites build (faulty prober under a brownout; lifecycle
//! stack, default and probe-only-close). A refactor of the stage that moves
//! any counter or any report field fails here as a per-run diff instead
//! of as an invariant violation somewhere in a fresh fuzz window.
//!
//! The generator is the `#[ignore]`d test at the bottom. It was run
//! twice in separate processes; a run whose line differed between the
//! two (per-process `HashMap` order, ROADMAP item 1) is not in the
//! fixture, and the comparison skips labels the fixture does not hold.

mod common;

use common::{twin_study, TWIN_SEEDS};
use kepler::core::events::OutageReport;
use kepler::core::system::ClassCounts;
use kepler::core::{Kepler, KeplerConfig};
use kepler::fuzz_harness::{check, FuzzVerdict};
use kepler::glue::{detector, FusionOptions, Stack};
use kepler::netsim::fuzz::{delay_surge, generated, pure_seasonal, slow_drain, FuzzWorld};
use kepler::netsim::scenario::twin::TwinStudy;
use kepler::netsim::FaultConfig;
use std::collections::BTreeMap;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/settlement-v1.txt");

/// The fixed smoke subset of `tests/fuzz_sweep.rs`.
const SMOKE_SEEDS: [u64; 10] = [0, 1, 2, 3, 5, 6, 8, 9, 12, 16];

#[derive(Clone, Copy)]
enum Run {
    Fuzz(u64),
    SlowDrain(u64),
    DelaySurge(u64),
    Seasonal(u64),
    Chaos(u64),
    Lifecycle(u64),
    /// Lifecycle with `restore_fraction` above 1.0: only restoration
    /// probes can close, so `probe_closed` is exercised.
    ProbeOnlyClose(u64),
}

impl Run {
    fn label(self) -> String {
        match self {
            Run::Fuzz(s) => format!("fuzz:{s}"),
            Run::SlowDrain(s) => format!("fused:slow_drain:{s}"),
            Run::DelaySurge(s) => format!("fused:delay_surge:{s}"),
            Run::Seasonal(s) => format!("fused:pure_seasonal:{s}"),
            Run::Chaos(s) => format!("chaos:{s}"),
            Run::Lifecycle(s) => format!("lifecycle:{s}"),
            Run::ProbeOnlyClose(s) => format!("lifecycle:probe_only_close:{s}"),
        }
    }

    fn execute(self) -> (ClassCounts, Vec<OutageReport>) {
        let fuzz = |v: FuzzVerdict| (v.counts, v.reports);
        let fused = |fw: FuzzWorld| fuzz(check(&fw, &Stack::Fused(FusionOptions::default())));
        let lifecycle =
            |study: &TwinStudy, config| detector(&study.scenario, config, &Stack::Lifecycle);
        match self {
            Run::Fuzz(s) => fuzz(check(&generated(s, None), &Stack::Validated)),
            Run::SlowDrain(s) => fused(slow_drain(s)),
            Run::DelaySurge(s) => fused(delay_surge(s)),
            Run::Seasonal(s) => fused(pure_seasonal(s)),
            // The chaos suite's backend: 30% loss, deadline blowouts, and
            // a brownout across the onset.
            Run::Chaos(s) => twin(s, |study| {
                let fault = FaultConfig::chaos(s).with_brownout(
                    study.outage_start.saturating_sub(600),
                    study.outage_start + 3_600,
                );
                detector(&study.scenario, KeplerConfig::default(), &Stack::Faulty(fault))
            }),
            Run::Lifecycle(s) => twin(s, |study| lifecycle(study, KeplerConfig::default())),
            Run::ProbeOnlyClose(s) => twin(s, |study| {
                lifecycle(study, KeplerConfig { restore_fraction: 2.0, ..KeplerConfig::default() })
            }),
        }
    }

    /// The fixture line of this run.
    fn line(self) -> String {
        let (counts, reports) = self.execute();
        format!(
            "{} {counts:?} reports={} fnv64={:016x}",
            self.label(),
            reports.len(),
            fnv64(format!("{reports:?}").as_bytes())
        )
    }
}

/// Streams the twin study of `seed` through the detector `build` makes.
fn twin(seed: u64, build: impl FnOnce(&TwinStudy) -> Kepler) -> (ClassCounts, Vec<OutageReport>) {
    let study = twin_study(seed);
    let mut detector = build(&study);
    for rec in study.scenario.records() {
        detector.process_record_owned(rec);
    }
    let reports = detector.finalize();
    (detector.class_counts(), reports)
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Every seed of a sweep in optimized builds; every fourth in debug
/// builds, where one world costs ~10× (tier-1's `cargo test -q` is a
/// debug build — the CI fuzz job runs this file with `--release`).
fn sampled(seeds: impl IntoIterator<Item = u64>) -> impl Iterator<Item = u64> {
    seeds.into_iter().step_by(if cfg!(debug_assertions) { 4 } else { 1 })
}

fn fuzz_runs(seeds: impl IntoIterator<Item = u64>) -> Vec<Run> {
    seeds.into_iter().map(Run::Fuzz).collect()
}

fn fused_and_twin_runs() -> Vec<Run> {
    let mut runs = Vec::new();
    for seed in 1..=3 {
        runs.extend([Run::SlowDrain(seed), Run::DelaySurge(seed), Run::Seasonal(seed)]);
    }
    for seed in sampled(TWIN_SEEDS) {
        runs.extend([Run::Chaos(seed), Run::Lifecycle(seed), Run::ProbeOnlyClose(seed)]);
    }
    runs
}

/// Re-runs every pinned run of `runs` and fails with one diff per line
/// that moved.
fn assert_identical(runs: Vec<Run>) {
    let text = std::fs::read_to_string(FIXTURE).expect("settlement fixture is committed");
    let pinned: BTreeMap<&str, &str> =
        text.lines().filter_map(|l| Some((l.split_once(' ')?.0, l))).collect();
    let mut compared = 0usize;
    let mut diffs = Vec::new();
    for run in runs {
        let Some(&expected) = pinned.get(run.label().as_str()) else { continue };
        compared += 1;
        let got = run.line();
        if got != expected {
            diffs.push(format!("- {expected}\n+ {got}"));
        }
    }
    assert!(compared > 0, "no pinned line for this slice of the set");
    assert!(diffs.is_empty(), "{} settlement line(s) moved:\n{}", diffs.len(), diffs.join("\n"));
}

// The set is cut in slices so the default two test threads share it.

#[test]
fn fuzz_smoke_and_low_window_settle_identically() {
    assert_identical(fuzz_runs(SMOKE_SEEDS.into_iter().chain(sampled(1000..1100))));
}

#[test]
fn fuzz_high_window_settles_identically() {
    assert_identical(fuzz_runs(sampled(1100..1200)));
}

#[test]
fn fused_chaos_and_lifecycle_runs_settle_identically() {
    assert_identical(fused_and_twin_runs());
}

/// Writes the fixture to the file named by `SETTLEMENT_OUT`:
/// `SETTLEMENT_OUT=/tmp/a.txt cargo test --release --test settlement_identity -- --ignored`.
/// Run it twice, in separate processes, and commit only the lines the
/// two outputs agree on.
#[test]
#[ignore = "generator for tests/fixtures/settlement-v1.txt"]
fn generate_settlement_fixture() {
    let out = std::env::var("SETTLEMENT_OUT").expect("SETTLEMENT_OUT names the file to write");
    let runs = fuzz_runs(SMOKE_SEEDS.into_iter().chain(1000..1200));
    let lines: Vec<String> =
        runs.into_iter().chain(fused_and_twin_runs()).map(|run| run.line() + "\n").collect();
    std::fs::write(out, lines.concat()).expect("write fixture");
}
