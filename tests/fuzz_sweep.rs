//! The scenario-fuzzer sweep: generated worlds × generated failure
//! scripts, checked against the detector's safety invariants
//! ([`kepler::fuzz_harness`]).
//!
//! Three layers:
//!
//! * a **fixed-seed smoke subset** that must always pass (and prove the
//!   sweep non-vacuous: a majority of the smoke worlds actually detect
//!   their staged outage);
//! * an **environment-driven sweep** CI points at a fresh seed window
//!   every run (`FUZZ_SEED_BASE` derived from the workflow run number,
//!   `FUZZ_SEED_COUNT` ≥ 200); locally it defaults to a short sweep.
//!   Every failing world is serialized to `target/fuzz-artifacts/` so
//!   the exact scenario replays on the same stack with the command the
//!   failure prints ([`FuzzVerdict::replay_command`]);
//! * a **negative test**: a hand-authored known-bad script (a flapping
//!   facility run *without* closing hysteresis) must trip the invariant
//!   checker — proving the checker can actually fail;
//!
//! plus harness-level hysteresis boundary coverage: a flapping duty
//! cycle whose up phase straddles the restoration-check bin width.

mod common;

use kepler::fuzz_harness::{check, write_artifact, FuzzVerdict, PowerReport};
use kepler::glue::{FusionOptions, Stack};
use kepler::netsim::fuzz::{delay_surge, generated, pure_seasonal, slow_drain};
use kepler::netsim::fuzz::{FailureKind, FailureScript, ScenarioScript};
use std::path::PathBuf;

/// Fixed smoke subset: always-run seeds covering every failure
/// archetype (see `archetypes_of_smoke_seeds` below, which pins the
/// coverage so generator drift cannot silently shrink it).
const SMOKE_SEEDS: [u64; 10] = [0, 1, 2, 3, 5, 6, 8, 9, 12, 16];

fn artifacts_dir() -> PathBuf {
    PathBuf::from("target").join("fuzz-artifacts")
}

/// Fails the test for a violating world after serializing its script.
fn report_failure(failed: &[FuzzVerdict]) {
    if failed.is_empty() {
        return;
    }
    let dir = artifacts_dir();
    let mut lines = Vec::new();
    for verdict in failed {
        let path = write_artifact(&dir, verdict).expect("write fuzz artifact");
        lines.push(format!(
            "seed {} ({:?}): {}\n  artifact: {}\n  replay:   {}",
            verdict.script.seed,
            verdict.script.script.kind(),
            verdict.violations.join("; "),
            path.display(),
            verdict.replay_command(&path),
        ));
    }
    panic!("{} fuzz world(s) violated detector invariants:\n{}", failed.len(), lines.join("\n"));
}

#[test]
fn fixed_seed_smoke_worlds_hold_invariants() {
    let mut failed = Vec::new();
    let mut detected = 0usize;
    for &seed in &SMOKE_SEEDS {
        let verdict = check(&generated(seed, None), &Stack::Validated);
        detected += usize::from(verdict.detected());
        if !verdict.ok() {
            failed.push(verdict);
        }
    }
    report_failure(&failed);
    // Non-vacuity: the invariants are safety-only, so an all-silent
    // detector would trivially pass — demand that a majority of the
    // smoke worlds actually detect their staged outage.
    assert!(
        detected * 2 > SMOKE_SEEDS.len(),
        "only {detected}/{} smoke worlds detected their outage — the sweep is near-vacuous",
        SMOKE_SEEDS.len()
    );
}

/// Fused-archetype smoke: the three fusion world families run through
/// the multi-signal detector and the resulting [`PowerReport`] is
/// non-vacuous — the drain and surge rows actually detect (the safety
/// invariants alone would pass on an all-silent detector), while the
/// pure-seasonal row stays quiet. The deviation-only smoke seeds above
/// are untouched: these families enter only via their explicit
/// builders, never the seed→kind pool.
#[test]
fn fused_archetype_smoke_has_detection_power() {
    let seeds = [1u64, 2, 3];
    let mut verdicts = Vec::new();
    let mut failed = Vec::new();
    for &seed in &seeds {
        for fw in [slow_drain(seed), delay_surge(seed), pure_seasonal(seed)] {
            let verdict = check(&fw, &Stack::Fused(FusionOptions::default()));
            if !verdict.ok() {
                failed.push(verdict);
            } else {
                verdicts.push(verdict);
            }
        }
    }
    report_failure(&failed);
    let report = PowerReport::from_verdicts(verdicts.iter());
    let rendered = report.render();
    for archetype in ["slow-drain", "delay-surge", "seasonal"] {
        assert!(
            report.rows.contains_key(archetype),
            "power report must carry a {archetype} row:\n{rendered}"
        );
    }
    // The fusion sweep (tests/fusion.rs) guarantees at most two misses
    // per family across eight seeds; three seeds must yield at least one
    // detection for the two genuine-failure families.
    for archetype in ["slow-drain", "delay-surge"] {
        let row = &report.rows[archetype];
        assert!(
            row.detected >= 1,
            "{archetype}: 0/{} detected — fused sweep is vacuous\n{rendered}",
            row.worlds
        );
        assert!(
            !row.first_detector.is_empty(),
            "{archetype}: detections must attribute a first detector\n{rendered}"
        );
    }
    assert_eq!(
        report.rows["seasonal"].detected, 0,
        "a pure-seasonal world has no outage to detect\n{rendered}"
    );
}

/// The smoke subset must keep covering every archetype; if the
/// generator's seed→kind mapping shifts, this pins the fallout.
#[test]
fn archetypes_of_smoke_seeds_cover_every_kind() {
    let kinds: std::collections::BTreeSet<String> = SMOKE_SEEDS
        .iter()
        .map(|&s| format!("{:?}", ScenarioScript::generate(s).script.kind()))
        .collect();
    assert_eq!(kinds.len(), 5, "smoke seeds must cover all five failure archetypes, got {kinds:?}");
}

/// CI sweep: `FUZZ_SEED_BASE` + `FUZZ_SEED_COUNT` select the window
/// (the workflow derives the base from its run number so every PR run
/// explores fresh worlds). Locally, a short default window keeps
/// `cargo test` fast.
#[test]
fn seeded_sweep_holds_invariants() {
    let base: u64 =
        std::env::var("FUZZ_SEED_BASE").ok().and_then(|v| v.parse().ok()).unwrap_or(1000);
    let count: u64 =
        std::env::var("FUZZ_SEED_COUNT").ok().and_then(|v| v.parse().ok()).unwrap_or(8);
    let mut failed = Vec::new();
    for seed in base..base + count {
        let verdict = check(&generated(seed, None), &Stack::Validated);
        if !verdict.ok() {
            eprintln!("seed {seed}: VIOLATIONS: {:?}", verdict.violations);
            failed.push(verdict);
        }
    }
    report_failure(&failed);
}

/// Negative control: a known-bad script must trip the checker. A
/// flapping facility with **no** closing hysteresis (`close_after = 1`)
/// lets the restoration watch list close the incident during the first
/// up phase — and because the stable-path baseline prunes deviated
/// routes at bin close, the later down phases can never re-signal: the
/// early close forfeits the rest of the flap. The flapping-convergence
/// invariant rejects the short report.
#[test]
fn known_bad_script_trips_the_invariant_checker() {
    let mut script = ScenarioScript::generate_kind(23, Some(FailureKind::Flapping));
    let FailureScript::Flapping { facility, start, .. } = script.script else {
        panic!("forced flapping");
    };
    script.script = FailureScript::Flapping {
        facility,
        start,
        down_secs: 30 * 60,
        up_secs: 15 * 60,
        cycles: 3,
    };
    script.open_after = 1;
    script.close_after = 1; // the bad part: no closing hysteresis
    let verdict = check(&script.build().expect("a generated world"), &Stack::Validated);
    assert!(
        !verdict.ok(),
        "the known-bad flapping script should trip the checker; reports: {:?}",
        verdict.reports
    );
    assert!(
        verdict.violations.iter().any(|v| v.contains("mid-flap") || v.contains("instead of one")),
        "expected a flapping-convergence violation, got: {:?}",
        verdict.violations
    );
    // The same world with the hysteresis the generator would prescribe
    // (outlasting the up phase) rides the flap as a single incident.
    let mut fixed = script.clone();
    fixed.close_after = 15 + 8;
    let verdict = check(&fixed.build().expect("a generated world"), &Stack::Validated);
    assert!(verdict.ok(), "hysteresis should fix the flap: {:?}", verdict.violations);
}

/// Boundary: an up phase of one-and-a-half restoration-check bins. Even
/// a minimal closing hysteresis of two consecutive restored checks can
/// never be satisfied inside such a window, so the incident must ride
/// the flap — and the checker must agree.
#[test]
fn flap_duty_cycle_straddling_the_bin_width_stays_one_incident() {
    let mut script = ScenarioScript::generate_kind(24, Some(FailureKind::Flapping));
    let FailureScript::Flapping { facility, start, .. } = script.script else {
        panic!("forced flapping");
    };
    script.script = FailureScript::Flapping {
        facility,
        start,
        down_secs: 30 * 60,
        up_secs: 90, // 1.5 × the 60 s restoration-check bin
        cycles: 4,
    };
    script.open_after = 1;
    script.close_after = 2;
    let verdict = check(&script.build().expect("a generated world"), &Stack::Validated);
    if !verdict.ok() {
        report_failure(&[verdict]);
    }
}

/// Artifacts round-trip: a serialized failing world (script + `#`
/// annotations) parses back to the identical script.
#[test]
fn artifacts_replay_the_exact_scenario() {
    let verdict = check(&generated(SMOKE_SEEDS[0], None), &Stack::Validated);
    let dir = artifacts_dir().join("selftest");
    let path = write_artifact(&dir, &verdict).expect("write artifact");
    let text = std::fs::read_to_string(&path).expect("read artifact back");
    let parsed = ScenarioScript::parse(&text).expect("artifact text parses");
    assert_eq!(parsed, verdict.script, "artifact must round-trip the script");
    std::fs::remove_dir_all(&dir).ok();
}

/// A failing world's printed replay command rebuilds *that* world on
/// *that* stack: a fused slow-drain world (a family the seed→kind pool
/// never yields) replays from its artifact with `--fused --fuzz-script`,
/// and re-checking what the command names gives the same reports.
#[test]
fn replay_command_rebuilds_the_checked_world_on_its_stack() {
    let verdict = check(&slow_drain(1), &Stack::Fused(FusionOptions::default()));
    let dir = artifacts_dir().join("replay-selftest");
    let path = write_artifact(&dir, &verdict).expect("write artifact");
    let text = std::fs::read_to_string(&path).expect("read artifact back");
    let command = text
        .lines()
        .skip_while(|l| !l.starts_with("# reproduce locally:"))
        .nth(1)
        .expect("the artifact carries a replay command");
    assert_eq!(command.trim_start_matches('#').trim(), verdict.replay_command(&path));
    let args: Vec<&str> = command.split_whitespace().skip_while(|&a| a != "--").skip(1).collect();
    let script_arg = args.iter().position(|&a| a == "--fuzz-script").expect("--fuzz-script");
    let replayed_path = args[script_arg + 1];
    let stack = if args.contains(&"--fused") {
        Stack::Fused(FusionOptions::default())
    } else {
        Stack::Validated
    };
    let script = ScenarioScript::parse(&std::fs::read_to_string(replayed_path).expect("artifact"))
        .expect("artifact text parses");
    let replayed = check(&script.build().expect("the artifact builds"), &stack);
    assert_eq!(replayed.stack, verdict.stack);
    assert_eq!(replayed.reports, verdict.reports, "the replay checked a different world");
    assert_eq!(replayed.counts, verdict.counts);
    // A stack `repro` cannot rebuild gets no command that would check
    // another one.
    let ablated = FuzzVerdict {
        stack: Stack::Fused(FusionOptions { forecast: false, ..FusionOptions::default() }),
        ..verdict
    };
    assert!(!ablated.replay_command(&path).contains("--fuzz-script"));
    std::fs::remove_dir_all(&dir).ok();
}
