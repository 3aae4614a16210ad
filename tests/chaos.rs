//! Fault-injection sweep over the colocation-twin scenario: the full
//! detector measuring through a [`FaultyBackend`] that drops ~30% of
//! probes, delays others past their deadline, truncates and duplicates
//! hop lists, churns vantages, and rejects every submission inside a
//! scripted brownout window around the outage onset.
//!
//! The sweep asserts, for **every** seed, that the safety invariants of
//! the probe subsystem survive the chaos:
//!
//! * the run completes — nothing on the probe path blocks or panics on a
//!   misbehaving backend;
//! * the healthy twin is never blamed;
//! * a probe-confirmed verdict only ever names something actually dark
//!   (the failed building, or its city after incident merging);
//! * no false close: lost probes and brownouts never fabricate a
//!   restoration, so no incident at the failed building ends before the
//!   repair;
//!
//! and, across the sweep, that degradation is *visible*: campaigns below
//! the completeness quorum settle passively and are counted in
//! [`ClassCounts::degraded_passive`] rather than silently dropped.
//!
//! A second test exercises the recorded-fixture mode end-to-end: a
//! campaign journaled through a [`RecordingBackend`] replays
//! bit-identically — verdicts, evidence, retry and timeout counters —
//! from the serialized transcript alone, with no backend behind it.

mod common;

use common::{
    assert_confirmed_names_truth, assert_twin_never_blamed, names_down, twin_study, SLACK_SECS,
    TWIN_SEEDS,
};
use kepler::core::KeplerConfig;
use kepler::glue::{detector, prober, sim_backend, Stack};
use kepler::netsim::{FaultConfig, FaultyBackend};
use kepler::probe::{ProbeRequest, Prober, RecordingBackend, ReplayBackend};

#[test]
fn chaos_sweep_holds_safety_invariants_under_fault_injection() {
    let mut total_degraded = 0usize;
    for &seed in &TWIN_SEEDS {
        let study = twin_study(seed);
        let scenario = &study.scenario;
        // 30% probe loss, deadline blowouts, truncation, duplication,
        // vantage churn — plus a hard brownout from just before the
        // outage until an hour in, when the detector needs probes most.
        let fault = FaultConfig::chaos(seed)
            .with_brownout(study.outage_start.saturating_sub(600), study.outage_start + 3_600);
        let mut detector = detector(scenario, KeplerConfig::default(), &Stack::Faulty(fault));
        for rec in scenario.records() {
            detector.process_record_owned(rec);
        }
        let reports = detector.finalize();
        let counts = detector.class_counts();
        total_degraded += counts.degraded_passive;
        // The healthy twin is never blamed, chaos or not. Fault
        // injection must not manufacture confirmations of healthy
        // buildings either.
        assert_twin_never_blamed(seed, "chaos", &study, &reports);
        assert_confirmed_names_truth(seed, &study, &reports);
        for r in &reports {
            // No false close: lost probes yield Inconclusive, never
            // Restored, so nothing at the failed building may end before
            // the repair (one bin of slack for close stamping).
            if names_down(&study, r.scope) {
                if let Some(end) = r.end {
                    assert!(
                        end.saturating_add(SLACK_SECS)
                            >= study.outage_start + study.outage_duration,
                        "seed {seed}: incident closed before the repair: {r:?}"
                    );
                }
            }
        }
    }
    // Degradation must be visible somewhere in the sweep: with a hard
    // brownout across the detection window, at least one campaign fell
    // below quorum and settled passively.
    assert!(total_degraded > 0, "no campaign ever degraded across {} seeds", TWIN_SEEDS.len());
}

#[test]
fn recorded_campaign_replays_bit_identically() {
    let study = twin_study(5);
    let scenario = &study.scenario;
    let request = ProbeRequest {
        pop: kepler::docmine::LocationTag::City(study.city),
        bin_start: study.outage_start + 600,
        candidates: vec![study.down, study.twin],
        affected_far: scenario
            .world
            .colo
            .members_of_facility(study.down)
            .iter()
            .copied()
            .take(10)
            .collect(),
        affected_near: Vec::new(),
    };
    // Record: a live campaign through the faulty backend, every attempt
    // outcome journaled.
    let fault = FaultConfig::chaos(5);
    let mut recorder =
        prober(scenario, RecordingBackend::new(FaultyBackend::new(sim_backend(scenario), fault)));
    let live = recorder.validate(&request, request.bin_start);
    assert!(!live.verdicts.is_empty(), "fixture campaign judged nothing: {live:?}");
    // Render the transcript, parse it back, and replay with *no*
    // backend behind it — zero network (or simulator) access.
    let text = recorder.backend().transcript.serialize();
    let parsed = kepler::probe::CampaignTranscript::parse(&text).expect("transcript round-trips");
    let mut replayer = prober(scenario, ReplayBackend::new(parsed));
    let replayed = replayer.validate(&request, request.bin_start);
    // Bit-identical: verdicts, evidence, completeness, and the retry /
    // timeout counters the lifecycle accumulated along the way.
    assert_eq!(live, replayed, "replay diverged from the recorded campaign");
}
