//! Probe-verdict safety and power over the colocation-twin scenario
//! (property sweep in the style of `london_case.rs`).
//!
//! Two buildings with identical colocation records and city-granularity
//! tags; one goes dark. Passive localization is ambiguous by
//! construction, so the sweep asserts, for **every** seed, the safety
//! invariants of the probe subsystem:
//!
//! * a facility that is up in the scenario world is never probe-confirmed
//!   down (in particular the healthy twin is never blamed);
//! * refuted/unresolved suspicions never fabricate a facility-level
//!   report;
//! * enabling the prober never changes outcomes for events it does not
//!   touch (every unvalidated report of the probed run exists bit-identically
//!   in the passive run).
//!
//! Detection/disambiguation power is asserted on a measured majority —
//! individual small worlds legitimately fail to wire enough observable
//! near-ends (same caveat as the London sweep).

mod common;

use common::{
    assert_confirmed_names_truth, assert_twin_never_blamed, near, run_passive, twin_study,
    TWIN_SEEDS,
};
use kepler::core::events::{OutageReport, OutageScope, ValidationStatus};
use kepler::core::KeplerConfig;
use kepler::glue::{detector, Stack};
use kepler::netsim::scenario::twin::TwinStudy;

fn run(seed: u64) -> (TwinStudy, Vec<OutageReport>, Vec<OutageReport>) {
    let study = twin_study(seed);
    let passive = run_passive(&study.scenario, KeplerConfig::default());
    let probed = {
        let scenario = &study.scenario;
        detector(scenario, KeplerConfig::default(), &Stack::Probed).run(scenario.records())
    };
    (study, passive, probed)
}

#[test]
fn twin_disambiguation_properties_across_seeds() {
    let mut seeds_resolving = 0usize;
    let mut seeds_passively_ambiguous = 0usize;
    for &seed in &TWIN_SEEDS {
        let (study, passive, probed) = run(seed);
        // --- Safety: every seed. ---
        assert_twin_never_blamed(seed, "passive", &study, &passive);
        assert_twin_never_blamed(seed, "probed", &study, &probed);
        // A probe-confirmed verdict may only name something that is
        // actually dark: the failed building (possibly abstracted to
        // its city by incident merging), never any other facility.
        assert_confirmed_names_truth(seed, &study, &probed);
        // Differential: events the prober did not touch are bit-identical
        // to the passive run.
        for r in &probed {
            if r.validation == ValidationStatus::Unvalidated {
                assert!(
                    passive.contains(r),
                    "seed {seed}: prober changed an untouched event: {r:?}\npassive: {passive:?}"
                );
            }
        }
        // --- Power: measured per seed, asserted on the majority. ---
        let passive_named = passive.iter().any(|r| {
            r.scope == OutageScope::Facility(study.down) && near(r.start, study.outage_start)
        });
        seeds_passively_ambiguous += usize::from(!passive_named);
        let resolved = probed.iter().any(|r| {
            r.scope == OutageScope::Facility(study.down)
                && near(r.start, study.outage_start)
                && r.validation == ValidationStatus::Confirmed
        });
        seeds_resolving += usize::from(resolved);
    }
    // Passive localization alone must be stuck on (at least) a clear
    // majority of twin worlds — otherwise the scenario isn't testing the
    // ambiguity it was built for.
    assert!(
        seeds_passively_ambiguous * 2 > TWIN_SEEDS.len(),
        "only {seeds_passively_ambiguous}/{} seeds were passively ambiguous",
        TWIN_SEEDS.len()
    );
    // With probing, a clear majority resolves to the correct building
    // with a confirmed validation status (measured: 6/8).
    assert!(
        seeds_resolving * 2 > TWIN_SEEDS.len(),
        "only {seeds_resolving}/{} seeds resolved the dark twin via probes",
        TWIN_SEEDS.len()
    );
}
