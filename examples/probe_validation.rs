//! Active-measurement validation end-to-end: the colocation-twin case.
//!
//! Two facilities in one metro carry identical colocation records and
//! only city-granularity community tags. When one goes dark, passive
//! inference cannot name the building — the affected far-ends are
//! contained in both candidates and neither clears the 95% rule. The
//! probe subsystem (`kepler-probe`) disambiguates: targeted traceroutes
//! show baseline paths through the dark building gone while the twin
//! keeps forwarding.
//!
//! ```sh
//! cargo run --release --example probe_validation [seed]
//! ```
//!
//! Exits non-zero unless probing resolves the correct building with a
//! confirmed validation status — CI runs this as a smoke test.

use kepler::core::events::{OutageScope, ValidationStatus};
use kepler::core::KeplerConfig;
use kepler::glue::{detector, Stack};
use kepler::netsim::scenario::twin::TwinFacilityScenario;

fn main() {
    let seed = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(3u64);
    let study = TwinFacilityScenario::new(seed).build();
    let scenario = &study.scenario;
    let world = &scenario.world;
    let name = |f| world.colo.facility(f).map(|f| f.name.clone()).unwrap_or_default();

    println!(
        "the twins (both in {}, identical colocation records):",
        world.gazetteer.cities()[study.city.0 as usize].name
    );
    println!("  goes dark at {}: {}", study.outage_start, name(study.down));
    println!("  stays up:          {}", name(study.twin));

    println!("\npassive-only run:");
    let passive =
        detector(scenario, KeplerConfig::default(), &Stack::Passive).run(scenario.records());
    for r in &passive {
        println!("  {r}");
    }
    let passive_named = passive
        .iter()
        .any(|r| r.scope == OutageScope::Facility(study.down) && near(r.start, study.outage_start));
    println!(
        "  -> passive localization {} the dark building",
        if passive_named { "named (this seed got lucky)" } else { "could not name" }
    );

    println!("\nwith targeted probes (with_prober):");
    let probed =
        detector(scenario, KeplerConfig::default(), &Stack::Probed).run(scenario.records());
    for r in &probed {
        println!("  {r}");
        for e in r.probe_evidence.iter().take(6) {
            println!(
                "      evidence: {} -> {} crossed {} at hop {} pre-event; post: {:?}",
                e.vantage,
                e.target,
                name(e.facility),
                e.pre_hop,
                e.post
            );
        }
        if r.probe_evidence.len() > 6 {
            println!("      ... and {} more pairs", r.probe_evidence.len() - 6);
        }
    }

    let resolved = probed.iter().find(|r| {
        r.scope == OutageScope::Facility(study.down)
            && near(r.start, study.outage_start)
            && r.validation == ValidationStatus::Confirmed
    });
    match resolved {
        Some(r) => {
            assert!(!r.probe_evidence.is_empty(), "confirmed reports carry hop evidence");
            println!(
                "\nprobing resolved the outage to {} with {} hop-evidence pairs",
                name(study.down),
                r.probe_evidence.len()
            );
        }
        None => {
            eprintln!("\nFAILED: probing did not confirm the dark building\n{probed:#?}");
            std::process::exit(1);
        }
    }
    // Suppressed twin: no report may blame the healthy building.
    if probed.iter().any(|r| r.scope == OutageScope::Facility(study.twin)) {
        eprintln!("FAILED: the healthy twin was blamed\n{probed:#?}");
        std::process::exit(1);
    }
}

fn near(a: u64, b: u64) -> bool {
    a.abs_diff(b) <= 900
}
