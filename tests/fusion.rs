//! Multi-signal fusion sweeps: the detection classes the deviation test
//! cannot see, caught by the fused forecast and delay sources — plus
//! the negative controls that keep the fusion honest.
//!
//! Three world families from the scenario fuzzer:
//!
//! * **slow drains** — a facility's tenants withdraw one per step,
//!   spaced wider than a bin, so no bin reaches the ≥3 disjoint-near-AS
//!   localization quorum. Deviation alone stays silent; the seasonal
//!   forecast sees the aggregate presence decline and a targeted probe
//!   campaign confirms the husk.
//! * **delay surges** — a congestion brownout with the control plane
//!   untouched. Only the differential-RTT detector (canary panel over
//!   the simulated data plane) can see it.
//! * **pure seasonality** — the same members dip at the same hour every
//!   day. Nothing is broken; the seasonal-naive forecaster must predict
//!   the dip after one period and raise *zero* alarms.
//!
//! Plus the bit-identity control: a fused detector with every auxiliary
//! source disabled must reproduce the deviation-only pipeline exactly.

mod common;

use common::SLACK_SECS;
use kepler::core::events::OutageScope;
use kepler::core::KeplerConfig;
use kepler::fuzz_harness::{check, FuzzVerdict, PowerReport};
use kepler::glue::{detector, FusionOptions, Stack};
use kepler::netsim::fuzz::{delay_surge, pure_seasonal, slow_drain, FuzzWorld};

/// Fusion-sweep seeds (8 per family, as the roadmap's detection-power
/// acceptance demands).
const SEEDS: [u64; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

/// Whether a verdict's reports caught the staged failure inside its
/// window — the same rule `PowerReport` scores with.
fn caught(verdict: &FuzzVerdict) -> bool {
    PowerReport::from_verdicts([verdict]).detected() == 1
}

fn assert_safe(tag: &str, seed: u64, verdict: &FuzzVerdict) {
    assert!(verdict.ok(), "{tag} seed {seed} violated safety invariants: {:?}", verdict.violations);
}

#[test]
fn slow_drains_invisible_to_deviation_are_caught_by_forecast_fusion() {
    let mut deviation_hits = 0usize;
    let mut fused_rescues = 0usize;
    for &seed in &SEEDS {
        let fw = slow_drain(seed);
        let deviation = check(&fw, &Stack::Validated);
        let fused = check(&fw, &Stack::Fused(FusionOptions::default()));
        assert_safe("slow-drain (deviation)", seed, &deviation);
        assert_safe("slow-drain (fused)", seed, &fused);
        let dev_caught = caught(&deviation);
        if dev_caught {
            deviation_hits += 1;
        }
        if !dev_caught && caught(&fused) {
            fused_rescues += 1;
            assert!(
                fused.counts.forecast_signals > 0,
                "seed {seed}: a fused rescue must come from forecast signals: {:?}",
                fused.counts
            );
            assert!(
                fused.counts.fused_opens + fused.counts.fused_corroborations > 0,
                "seed {seed}: fusion bookkeeping missing: {:?}",
                fused.counts
            );
        }
    }
    // The archetype is built to evade the deviation test…
    assert!(
        deviation_hits <= 2,
        "slow drains should be (near-)invisible to deviation alone, \
         but {deviation_hits}/{} were caught",
        SEEDS.len()
    );
    // …and the fused detector must rescue at least six of the eight.
    assert!(
        fused_rescues >= 6,
        "fusion rescued only {fused_rescues}/{} slow drains deviation missed",
        SEEDS.len()
    );
}

#[test]
fn delay_surges_are_caught_by_the_rtt_detector_alone() {
    let mut rescued = 0usize;
    for &seed in &SEEDS {
        let fw = delay_surge(seed);
        let deviation = check(&fw, &Stack::Validated);
        // A latency surge never touches routing: the deviation pipeline
        // has literally nothing to see.
        assert!(
            deviation.reports.is_empty(),
            "seed {seed}: a pure data-plane surge produced control-plane reports: {:?}",
            deviation.reports
        );
        let fused = check(&fw, &Stack::Fused(FusionOptions::default()));
        assert_safe("delay-surge (fused)", seed, &fused);
        if caught(&fused) {
            rescued += 1;
            assert!(
                fused.counts.delay_signals > 0,
                "seed {seed}: surge detection without delay signals: {:?}",
                fused.counts
            );
        }
    }
    assert!(
        rescued >= 6,
        "the delay detector caught only {rescued}/{} routing-invisible surges",
        SEEDS.len()
    );
}

#[test]
fn pure_seasonality_raises_no_forecast_alarms() {
    for &seed in &SEEDS {
        let fw = pure_seasonal(seed);
        let fused = check(&fw, &Stack::Fused(FusionOptions::default()));
        assert_eq!(
            fused.counts.forecast_signals, 0,
            "seed {seed}: the seasonal-naive forecast alarmed on a pure daily pattern: {:?}",
            fused.counts
        );
        assert_eq!(
            fused.counts.fused_opens, 0,
            "seed {seed}: fusion opened an incident on a healthy world: {:?}",
            fused.counts
        );
        // No validated report may exist at all: nothing is broken.
        assert!(
            !fused
                .reports
                .iter()
                .any(|r| r.validation == kepler::core::events::ValidationStatus::Confirmed),
            "seed {seed}: confirmed report on a pure-seasonal world: {:?}",
            fused.reports
        );
    }
}

/// Disabling every auxiliary source must reproduce the deviation-only
/// pipeline bit for bit: same reports, same order, same stamps. The
/// telemetry tap and the fusion plumbing may not perturb the baseline.
#[test]
fn disabled_fusion_is_bit_identical_to_the_deviation_pipeline() {
    for &seed in &SEEDS[..3] {
        let fw: FuzzWorld = slow_drain(seed);
        let config =
            KeplerConfig::default().with_hysteresis(fw.script.open_after, fw.script.close_after);
        let baseline =
            detector(&fw.scenario, config.clone(), &Stack::Probed).run(fw.scenario.records());
        let disabled = detector(
            &fw.scenario,
            config,
            &Stack::Fused(FusionOptions {
                forecast: false,
                delay: false,
                canaries_per_facility: 0,
            }),
        )
        .run(fw.scenario.records());
        assert_eq!(
            baseline, disabled,
            "seed {seed}: a fully-disabled fusion stack must be a no-op"
        );
    }
}

/// The fused opens carry per-source attribution all the way into the
/// report stream, and the power report surfaces it per archetype.
#[test]
fn power_report_attributes_first_detector_per_archetype() {
    let drain = check(&slow_drain(1), &Stack::Fused(FusionOptions::default()));
    let surge = check(&delay_surge(1), &Stack::Fused(FusionOptions::default()));
    let report = PowerReport::from_verdicts([&drain, &surge]);
    let rendered = report.render();
    assert!(
        rendered.contains("slow-drain") && rendered.contains("delay-surge"),
        "power table must carry one row per archetype:\n{rendered}"
    );
    for row in report.rows.values() {
        assert_eq!(row.worlds, 1);
        assert_eq!(row.detected + row.missed(), row.worlds);
    }
    if let Some(row) = report.rows.get("slow-drain") {
        for kind in row.first_detector.keys() {
            assert!(
                kind == "forecast" || kind == "delay" || kind == "deviation",
                "unknown first-detector attribution {kind}"
            );
        }
    }
    // A detected surge must be attributed to the delay detector — no
    // other source can see it.
    if let Some(row) = report.rows.get("delay-surge") {
        if row.detected > 0 {
            assert!(
                row.first_detector.contains_key("delay"),
                "surge detection must be delay-attributed: {row:?}"
            );
        }
    }
    // Every matched report starts inside its script window (the rule
    // PowerReport scores with) — spot-check the drain's earliest report.
    if let Some(r) = drain.reports.iter().min_by_key(|r| r.start) {
        let (onset, end) = drain.script.script.window();
        if PowerReport::from_verdicts([&drain]).detected() == 1 {
            assert!(
                matches!(
                    r.scope,
                    OutageScope::Facility(_) | OutageScope::City(_) | OutageScope::Ixp(_)
                ),
                "matched report has a scope"
            );
            assert!(r.start + SLACK_SECS >= onset && r.start <= end + SLACK_SECS);
        }
    }
}
