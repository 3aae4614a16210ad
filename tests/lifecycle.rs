//! Incident-lifecycle property sweep over the colocation-twin scenario:
//! Open → Recovering → Closed, driven by probe-based restoration
//! detection (style of `probe_validation.rs` / `london_case.rs`).
//!
//! One building goes dark for two hours, then is repaired; the stream
//! runs a full day past the repair. Each seed runs the lifecycle
//! detector twice: with the default configuration (control-plane and
//! probe-driven restoration racing), and with `restore_fraction` set
//! above 1.0 — a configuration in which the BGP watch list can *never*
//! close an incident, so any close proves the restoration-probing path
//! end-to-end.
//!
//! Safety, asserted on **every** seed and both runs:
//!
//! * no incident on the dark building (or its city) is ever observed
//!   `Recovering`, and none ends, before the repair actually happens —
//!   restoration probing must not close a still-down facility;
//! * the healthy twin is never blamed (carried over from the probe
//!   sweep).
//!
//! Power, asserted on a measured majority: the injected outage is
//! observed `Open`, transitions through `Recovering`, and its final
//! report is `Closed` with an end near the repair — in the probe-only
//! run specifically via `probe_closed` — and, where the passive run also
//! closed, the probe-driven end never comes later than BGP convergence.

mod common;

use common::{assert_twin_never_blamed, names_down, run_passive, twin_study, TWIN_SEEDS};
use kepler::core::events::{IncidentState, OutageReport};
use kepler::core::{Kepler, KeplerConfig};
use kepler::glue::{detector, Stack};
use kepler::netsim::scenario::twin::TwinStudy;

struct LifecycleRun {
    /// (record time, state) transition samples for the dark building.
    observed: Vec<(u64, IncidentState)>,
    reports: Vec<OutageReport>,
    probe_closed: usize,
}

fn drive(study: &TwinStudy, mut detector: Kepler) -> LifecycleRun {
    let mut observed: Vec<(u64, IncidentState)> = Vec::new();
    for r in study.scenario.records() {
        let t = r.time;
        detector.process_record_owned(r);
        for (scope, state) in detector.incident_states() {
            if names_down(study, scope) && observed.last().map(|(_, s)| *s != state).unwrap_or(true)
            {
                observed.push((t, state));
            }
        }
    }
    let reports = detector.finalize();
    let probe_closed = detector.class_counts().probe_closed;
    LifecycleRun { observed, reports, probe_closed }
}

fn assert_safety(seed: u64, label: &str, study: &TwinStudy, run: &LifecycleRun) {
    let repair = study.outage_start + study.outage_duration;
    for &(t, state) in &run.observed {
        assert!(
            state == IncidentState::Open || t >= repair,
            "seed {seed} ({label}): observed {state} at {t}, before the repair at {repair}"
        );
    }
    for rep in &run.reports {
        if !names_down(study, rep.scope) {
            continue;
        }
        if let Some(end) = rep.end {
            assert!(
                end >= repair,
                "seed {seed} ({label}): still-down facility closed at {end} < repair {repair}: \
                 {rep:?}"
            );
        }
    }
    assert_twin_never_blamed(seed, label, study, &run.reports);
}

/// Full lifecycle on this run: Open and Recovering both observed, and a
/// final Closed report ending within `slack` of the repair.
fn walked_lifecycle(study: &TwinStudy, run: &LifecycleRun, slack: u64) -> bool {
    let repair = study.outage_start + study.outage_duration;
    run.observed.iter().any(|(_, s)| *s == IncidentState::Open)
        && run.observed.iter().any(|(_, s)| *s == IncidentState::Recovering)
        && run.reports.iter().any(|rep| {
            names_down(study, rep.scope)
                && rep.state == IncidentState::Closed
                && rep.end.map(|e| e >= repair && e <= repair + slack).unwrap_or(false)
        })
}

#[test]
fn lifecycle_properties_across_seeds() {
    let mut seeds_full_lifecycle = 0usize;
    let mut seeds_probe_only_close = 0usize;
    let mut seeds_with_passive_close = 0usize;
    let mut seeds_not_slower_than_bgp = 0usize;
    for &seed in &TWIN_SEEDS {
        let study = twin_study(seed);
        let passive = run_passive(&study.scenario, KeplerConfig::default());
        let lifecycle =
            drive(&study, detector(&study.scenario, KeplerConfig::default(), &Stack::Lifecycle));
        // BGP restoration disabled outright (the watch fraction can never
        // exceed 1.0): only restoration probes can close incidents here.
        let probe_only_config = KeplerConfig { restore_fraction: 2.0, ..KeplerConfig::default() };
        let probe_only =
            drive(&study, detector(&study.scenario, probe_only_config, &Stack::Lifecycle));

        // --- Safety: every seed, both lifecycle runs. ---
        assert_safety(seed, "default", &study, &lifecycle);
        assert_safety(seed, "probe-only-close", &study, &probe_only);
        assert_twin_never_blamed(seed, "passive", &study, &passive);

        // --- Power: measured per seed, asserted on the majority. ---
        seeds_full_lifecycle += usize::from(walked_lifecycle(&study, &lifecycle, 4 * 3600));
        // In the probe-only run a close *is* a probe close; demand the
        // counter to prove the path taken.
        seeds_probe_only_close += usize::from(
            walked_lifecycle(&study, &probe_only, 4 * 3600) && probe_only.probe_closed > 0,
        );
        // Where the passive run closed at all, the probe-driven end must
        // not be later (restoration detection is at least as fast as BGP).
        let passive_end = passive
            .iter()
            .filter(|rep| names_down(&study, rep.scope))
            .filter_map(|rep| rep.end)
            .min();
        let probed_end = lifecycle
            .reports
            .iter()
            .filter(|rep| names_down(&study, rep.scope))
            .filter_map(|rep| rep.end)
            .min();
        if let Some(p) = passive_end {
            seeds_with_passive_close += 1;
            if probed_end.map(|e| e <= p).unwrap_or(false) {
                seeds_not_slower_than_bgp += 1;
            }
        }
    }
    assert!(
        seeds_full_lifecycle * 2 > TWIN_SEEDS.len(),
        "only {seeds_full_lifecycle}/{} seeds walked Open -> Recovering -> Closed",
        TWIN_SEEDS.len()
    );
    assert!(
        seeds_probe_only_close * 2 > TWIN_SEEDS.len(),
        "only {seeds_probe_only_close}/{} seeds closed via restoration probes \
         when BGP restoration was disabled",
        TWIN_SEEDS.len()
    );
    assert!(
        seeds_not_slower_than_bgp * 2 >= seeds_with_passive_close,
        "probe closes slower than BGP too often: \
         {seeds_not_slower_than_bgp}/{seeds_with_passive_close}"
    );
}
