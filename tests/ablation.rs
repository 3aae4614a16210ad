//! Outcome ablations for the design choices DESIGN.md calls out. Each test
//! removes one mechanism and shows the detection quality that is lost —
//! the experimental backing for the paper's §3/§4 design arguments.

use kepler::core::events::OutageScope;
use kepler::core::KeplerConfig;
use kepler::core::{Kepler, KeplerInputs};
use kepler::glue::detector_for;
use kepler::netsim::scenario::amsix::{AmsIxScenario, OUTAGE_START};
use kepler::netsim::scenario::london::LondonScenario;
use kepler::netsim::world::WorldConfig;

/// Ablation 1 — community-tag monitoring vs AS-path-only. With an empty
/// dictionary (no location communities interpreted), Kepler sees the same
/// BGP stream but can localize nothing: the paper's core claim that AS
/// paths alone cannot pinpoint infrastructure.
#[test]
fn ablate_dictionary_kills_detection() {
    let study = AmsIxScenario::new(21).with_config(WorldConfig::tiny(21)).build();
    let scenario = &study.scenario;

    let with_dict = detector_for(scenario, KeplerConfig::default()).run(scenario.records());
    assert!(!with_dict.is_empty(), "baseline detects the outage");

    let without_dict = Kepler::new(KeplerInputs {
        config: KeplerConfig::default(),
        dictionary: kepler::docmine::CommunityDictionary::new(),
        colo: scenario.detector_colo(),
        orgs: scenario.world.orgs.clone(),
    })
    .run(scenario.records());
    assert!(
        without_dict.is_empty(),
        "without the community dictionary nothing can be localized: {without_dict:?}"
    );
}

/// Ablation 2 — colocation-map disambiguation. Without the colocation map
/// the epicenters of the London case cannot be told apart: signals still
/// exist, but localization has no members_of_facility evidence, so the
/// true buildings are never named.
#[test]
fn ablate_colomap_breaks_disambiguation() {
    let study = LondonScenario::new(3).with_config(WorldConfig::small(3)).build();
    let scenario = &study.scenario;

    let baseline = detector_for(scenario, KeplerConfig::default()).run(scenario.records());
    let baseline_names: Vec<OutageScope> = baseline.iter().map(|r| r.scope).collect();
    assert!(
        baseline_names.contains(&OutageScope::Facility(study.tc_hex))
            || baseline_names.contains(&OutageScope::City(study.city)),
        "baseline localizes epicenter A"
    );

    // Empty colocation map: dictionary still works (it was mined earlier),
    // but membership evidence is gone.
    let crippled = Kepler::new(KeplerInputs {
        config: KeplerConfig::default(),
        dictionary: scenario.mined_dictionary(),
        colo: kepler::topology::ColocationMap::new(),
        orgs: scenario.world.orgs.clone(),
    })
    .run(scenario.records());
    assert!(
        !crippled.iter().any(|r| r.scope == OutageScope::Facility(study.tc_hex)
            && r.start.abs_diff(study.time_a) < 900),
        "without the colocation map the exact epicenter cannot be pinned: {crippled:?}"
    );
}

/// Ablation 3 — the paper's threshold choice. At T_fail = 50% partial
/// outages shrink or vanish relative to the 10% default (Figure 7a's
/// argument for a low threshold).
#[test]
fn ablate_high_threshold_loses_sensitivity() {
    use kepler::netsim::scenario::five_year::{build, FiveYearConfig};
    let scenario = build(FiveYearConfig::compact(31));
    let low =
        detector_for(&scenario, KeplerConfig::default().with_t_fail(0.10)).run(scenario.records());
    let high =
        detector_for(&scenario, KeplerConfig::default().with_t_fail(0.50)).run(scenario.records());
    assert!(
        high.len() <= low.len(),
        "raising the threshold cannot find more outages (low={}, high={})",
        low.len(),
        high.len()
    );
}

/// Ablation 4 — collector-feed gap handling. Disabling the quarantine
/// must not create phantom outages in this stream (session flaps carry
/// state messages that the gap tracker suppresses; the monitor's stable
/// baseline gives a second line of defense).
#[test]
fn session_flaps_do_not_become_outages() {
    use kepler::netsim::engine::{CollectorSetup, Simulation};
    use kepler::netsim::events::{EventKind, ScheduledEvent};
    use kepler::netsim::scenario::Scenario;
    use kepler::netsim::world::World;

    let world = World::generate(WorldConfig::tiny(55));
    let start = 1_400_000_000u64;
    let timeline = vec![
        ScheduledEvent {
            start: start + 2 * 86_400 + 3600,
            duration: 900,
            kind: EventKind::CollectorFlap { peer_slot: 0 },
        },
        ScheduledEvent {
            start: start + 2 * 86_400 + 7200,
            duration: 600,
            kind: EventKind::CollectorFlap { peer_slot: 1 },
        },
    ];
    let setup = CollectorSetup::default_for(&world, 2, 16, 55);
    let output = Simulation::new(&world, setup, start, 55).run(&timeline, start + 3 * 86_400);
    let scenario = Scenario { world, output, timeline, start, end: start + 3 * 86_400, seed: 55 };
    let reports = detector_for(&scenario, KeplerConfig::default()).run(scenario.records());
    assert!(reports.is_empty(), "collector flaps mistaken for outages: {reports:?}");
}

/// Time anchor sanity for the AMS-IX study referenced in other tests.
#[test]
fn amsix_outage_start_constant_is_2015_05_13() {
    // 2015-05-13 09:22 UTC.
    assert_eq!(OUTAGE_START, 1_431_475_200 + 9 * 3600 + 22 * 60);
}

/// Ablation 5 — the multi-signal fusion stack, one signal combination at
/// a time. Each fuzz-world family is detectable by exactly one auxiliary
/// source: slow drains only by the seasonal forecast, congestion surges
/// only by the differential-RTT detector. The ranking that comes out —
/// printed as a table for CI logs — is the experimental backing for
/// running all sources together.
#[test]
fn ablate_signal_combinations_rank_by_detection_power() {
    use kepler::fuzz_harness::{check, PowerReport};
    use kepler::glue::{FusionOptions, Stack};
    use kepler::netsim::fuzz::{delay_surge, slow_drain, FuzzWorld};

    let combos: [(&str, FusionOptions); 4] = [
        (
            "deviation-only",
            FusionOptions { forecast: false, delay: false, canaries_per_facility: 0 },
        ),
        ("+forecast", FusionOptions { forecast: true, delay: false, canaries_per_facility: 0 }),
        ("+delay", FusionOptions { forecast: false, delay: true, canaries_per_facility: 4 }),
        ("all", FusionOptions { forecast: true, delay: true, canaries_per_facility: 4 }),
    ];
    let seeds = [1u64, 2, 5];
    type FamilyBuilder = fn(u64) -> FuzzWorld;
    let families: [(&str, FamilyBuilder); 2] =
        [("slow-drain", slow_drain), ("delay-surge", delay_surge)];

    // detected[family][combo], plus a rendered table per combination.
    let mut detected = std::collections::BTreeMap::new();
    println!("family       combo            detected  median-latency-s");
    for (family, build) in families {
        let worlds: Vec<FuzzWorld> = seeds.iter().map(|&s| build(s)).collect();
        for (combo, opts) in &combos {
            let verdicts: Vec<_> =
                worlds.iter().map(|fw| check(fw, &Stack::Fused(*opts))).collect();
            for v in &verdicts {
                assert!(v.ok(), "{family}/{combo}: safety violations {:?}", v.violations);
            }
            let report = PowerReport::from_verdicts(verdicts.iter());
            let row = &report.rows[family];
            let latency =
                row.median_latency_secs().map(|l| l.to_string()).unwrap_or_else(|| "-".into());
            println!(
                "{family:<12} {combo:<16} {:>3}/{:<5} {latency:>16}",
                row.detected, row.worlds
            );
            detected.insert((family, *combo), row.detected);
        }
    }

    // The ranking: each family is invisible to the deviation pipeline
    // and to the *other* family's auxiliary source, caught only by its
    // own — and the full stack is never worse than any single source.
    assert_eq!(detected[&("slow-drain", "deviation-only")], 0);
    assert_eq!(detected[&("slow-drain", "+delay")], 0);
    assert!(detected[&("slow-drain", "+forecast")] >= 2);
    assert_eq!(detected[&("delay-surge", "deviation-only")], 0);
    assert_eq!(detected[&("delay-surge", "+forecast")], 0);
    assert!(detected[&("delay-surge", "+delay")] >= 2);
    for (family, _) in families {
        for (combo, _) in &combos {
            assert!(
                detected[&(family, "all")] >= detected[&(family, *combo)],
                "{family}: the full stack regressed below {combo}"
            );
        }
    }
}
