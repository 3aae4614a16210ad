//! The incident lifecycle end-to-end: Open → Recovering → Closed.
//!
//! A colocation twin goes dark for two hours and is then repaired. The
//! detector runs with the full lifecycle machinery — targeted validation
//! probes (disambiguating the twins), cross-bin evidence accumulation,
//! and restoration re-probes on an exponential backoff — and this example
//! prints the observed state transitions plus the final reports, next to
//! a passive-only run for comparison.
//!
//! ```sh
//! cargo run --release --example lifecycle [seed]
//! ```
//!
//! Exits non-zero unless the injected outage walks the full lifecycle
//! (observed Open, observed Recovering, final report Closed) without any
//! premature close — CI runs this as a smoke test.

use kepler::core::events::{IncidentState, OutageScope};
use kepler::core::KeplerConfig;
use kepler::glue::{detector, Stack};
use kepler::netsim::scenario::twin::TwinFacilityScenario;

fn main() {
    let seed = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(3u64);
    let study = TwinFacilityScenario::new(seed).build();
    let scenario = &study.scenario;
    let world = &scenario.world;
    let name = |f| world.colo.facility(f).map(|f| f.name.clone()).unwrap_or_default();
    let repair = study.outage_start + study.outage_duration;
    println!("the stage ({}):", world.gazetteer.cities()[study.city.0 as usize].name);
    println!("  dark  {} .. {} (2h): {}", study.outage_start, repair, name(study.down));
    println!("  up throughout:           {}", name(study.twin));

    let names_down = |scope: OutageScope| match scope {
        OutageScope::Facility(f) => f == study.down,
        OutageScope::City(c) => c == study.city,
        OutageScope::Ixp(_) => false,
    };

    println!("\nlifecycle run (validation + restoration probes):");
    let mut lifecycle = detector(scenario, KeplerConfig::default(), &Stack::Lifecycle);
    let mut transitions: Vec<(u64, IncidentState)> = Vec::new();
    for r in scenario.records() {
        let t = r.time;
        lifecycle.process_record_owned(r);
        for (scope, state) in lifecycle.incident_states() {
            if names_down(scope) && transitions.last().map(|(_, s)| *s != state).unwrap_or(true) {
                transitions.push((t, state));
            }
        }
    }
    for (t, state) in &transitions {
        println!("  t{:+7}s (rel. repair) -> {state}", *t as i64 - repair as i64);
    }
    let reports = lifecycle.finalize();
    let counts = lifecycle.class_counts(); // includes trailing-flush closes
    for r in &reports {
        println!("  {r}");
    }
    println!(
        "  counters: probe_confirmed {}, evidence_reused {}, probe_closed {}",
        counts.probe_confirmed, counts.evidence_reused, counts.probe_closed
    );

    println!("\npassive-only run (BGP restoration alone):");
    let passive =
        detector(scenario, KeplerConfig::default(), &Stack::Passive).run(scenario.records());
    for r in &passive {
        println!("  {r}");
    }
    let passive_end = passive.iter().filter(|r| names_down(r.scope)).filter_map(|r| r.end).min();
    let probed_end = reports.iter().filter(|r| names_down(r.scope)).filter_map(|r| r.end).min();
    if let (Some(p), Some(e)) = (passive_end, probed_end) {
        println!(
            "\nclose times (rel. repair): probe-driven {:+}s vs BGP {:+}s",
            e as i64 - repair as i64,
            p as i64 - repair as i64
        );
    }

    // Smoke assertions (CI).
    let saw_open = transitions.iter().any(|(_, s)| *s == IncidentState::Open);
    let saw_recovering = transitions.iter().any(|(_, s)| *s == IncidentState::Recovering);
    assert!(saw_open, "the outage was never observed Open: {transitions:?}");
    assert!(saw_recovering, "restoration was never observed: {transitions:?}");
    for (t, state) in &transitions {
        assert!(
            *state == IncidentState::Open || *t >= repair,
            "premature {state} at {t} (repair {repair})"
        );
    }
    let closed = reports.iter().any(|r| {
        names_down(r.scope)
            && r.state == IncidentState::Closed
            && r.end.map(|e| e >= repair).unwrap_or(false)
    });
    assert!(closed, "no Closed report near the repair: {reports:?}");
    println!("\nlifecycle OK: Open -> Recovering -> Closed, no premature close");
}
