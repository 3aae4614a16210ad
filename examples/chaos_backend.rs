//! Fault-tolerant measurement backend demo: the colocation-twin study
//! run against a backend that drops ~30% of probes, blows deadlines,
//! truncates and duplicates hop lists, churns vantages and browns out
//! entirely around the outage onset — then a recorded campaign replayed
//! bit-identically from its serialized transcript.
//!
//! ```sh
//! cargo run --release --example chaos_backend [seed] [--transcript FILE]
//! ```

use kepler::core::KeplerConfig;
use kepler::glue::{detector, prober, sim_backend, Stack};
use kepler::netsim::scenario::twin::TwinFacilityScenario;
use kepler::netsim::{FaultConfig, FaultyBackend};
use kepler::probe::{ProbeRequest, Prober, RecordingBackend, ReplayBackend};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = args.first().and_then(|s| s.parse().ok()).unwrap_or(5u64);
    let transcript_out =
        args.iter().position(|a| a == "--transcript").and_then(|i| args.get(i + 1)).cloned();

    let study = TwinFacilityScenario::new(seed).build();
    let scenario = &study.scenario;
    println!(
        "twin study seed {seed}: facility {} fails at t={} for {}s (twin {} stays up)",
        study.down.0, study.outage_start, study.outage_duration, study.twin.0
    );

    // --- 1. The detector under chaos. -----------------------------------
    let fault = FaultConfig::chaos(seed)
        .with_brownout(study.outage_start.saturating_sub(600), study.outage_start + 3_600);
    println!(
        "\nfault profile: drop {:.0}%, delay {:.0}%, truncate {:.0}%, duplicate {:.0}%, \
         churn {:.0}%, brownout [{}, {})",
        fault.drop_rate * 100.0,
        fault.delay_rate * 100.0,
        fault.truncate_rate * 100.0,
        fault.duplicate_rate * 100.0,
        fault.churn_rate * 100.0,
        study.outage_start.saturating_sub(600),
        study.outage_start + 3_600,
    );
    let mut detector = detector(scenario, KeplerConfig::default(), &Stack::Faulty(fault));
    for rec in scenario.records() {
        detector.process_record_owned(rec);
    }
    let reports = detector.finalize();
    let counts = detector.class_counts();
    println!("\ndetector survived the chaos: {} report(s)", reports.len());
    for r in &reports {
        println!("  {r}  (campaign completeness {:.2})", r.probe_completeness);
    }
    println!(
        "counts: probe-confirmed {}, degraded-to-passive {}, re-validated after recovery {}, \
         probe-closed {}",
        counts.probe_confirmed,
        counts.degraded_passive,
        counts.deferred_revalidated,
        counts.probe_closed,
    );

    // --- 2. Record a campaign, replay it bit-identically. ----------------
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
    let faulty = FaultyBackend::new(sim_backend(scenario), FaultConfig::chaos(seed));
    let mut recorder = prober(scenario, RecordingBackend::new(faulty));
    let live = recorder.validate(&request, request.bin_start);
    let text = recorder.backend().transcript.serialize();
    println!(
        "\nrecorded campaign: {} verdict(s), completeness {:.2}, {} retries, {} timeouts, \
         transcript {} entries / {} bytes",
        live.verdicts.len(),
        live.completeness,
        live.retries,
        live.timeouts,
        recorder.backend().transcript.len(),
        text.len(),
    );
    if let Some(path) = transcript_out {
        std::fs::write(&path, &text).expect("write transcript");
        println!("transcript written to {path}");
    }
    let parsed = kepler::probe::CampaignTranscript::parse(&text).expect("transcript round-trips");
    let mut replayer = prober(scenario, ReplayBackend::new(parsed));
    let replayed = replayer.validate(&request, request.bin_start);
    assert_eq!(live, replayed, "replay diverged from the recorded campaign");
    println!("replayed from transcript alone: bit-identical to the live campaign");
}
