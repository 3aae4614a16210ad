//! Cross-crate integration tests: the full pipeline from simulated world
//! through BGP emission to detection and evaluation.

use kepler::core::events::OutageScope;
use kepler::core::metrics::evaluate;
use kepler::core::KeplerConfig;
use kepler::glue::detector_for;
use kepler::netsim::scenario::amsix::{AmsIxScenario, OUTAGE_START};
use kepler::netsim::world::WorldConfig;

/// The AMS-IX case: a full IXP outage must be detected at (or sharpened
/// within) the right city, with a start time inside the outage window.
#[test]
fn amsix_outage_is_detected_and_localized() {
    let study = AmsIxScenario::new(21).with_config(WorldConfig::tiny(21)).build();
    let scenario = &study.scenario;
    let config = KeplerConfig::default();
    let detector = detector_for(scenario, config.clone());
    let reports = detector.run(scenario.records());
    assert!(!reports.is_empty(), "the outage must be detected");

    let world = &scenario.world;
    let amsix_city = world.colo.ixp(study.amsix).unwrap().city;
    let fabric = world.colo.facilities_of_ixp(study.amsix).clone();
    let window_ok = |r: &kepler::core::events::OutageReport| {
        r.start + 600 >= OUTAGE_START && r.start <= OUTAGE_START + 900
    };
    let located_ok = |r: &kepler::core::events::OutageReport| match r.scope {
        OutageScope::Ixp(x) => x == study.amsix,
        OutageScope::City(c) => c == amsix_city,
        OutageScope::Facility(f) => fabric.contains(&f),
    };
    assert!(
        reports.iter().any(|r| window_ok(r) && located_ok(r)),
        "no report localizes the AMS-IX outage: {reports:?}"
    );
    // No phantom outages long before the event.
    assert!(
        reports.iter().all(|r| r.start + 600 >= OUTAGE_START),
        "phantom outage before the event: {reports:?}"
    );
}

/// Outage duration tracking: the detected outage must end after the
/// repair, and within the slow-reconvergence envelope (hours, not days).
#[test]
fn amsix_outage_duration_is_tracked() {
    let study = AmsIxScenario::new(23).with_config(WorldConfig::tiny(23)).build();
    let scenario = &study.scenario;
    let reports = detector_for(scenario, KeplerConfig::default()).run(scenario.records());
    let Some(report) = reports.iter().find(|r| r.start + 600 >= OUTAGE_START) else {
        panic!("outage not detected");
    };
    if let Some(end) = report.end {
        assert!(end >= OUTAGE_START + 600, "cannot end before the repair");
        assert!(end <= OUTAGE_START + 600 + 6 * 3600, "ends within the reconvergence envelope");
    }
    assert!(report.affected_near.len() >= 3, "PoP-level incidents involve ≥3 near-end ASes");
    assert!(report.affected_far.len() >= 3);
}

/// Full-study evaluation on the compact five-year scenario: good precision
/// and recall against ground truth, and detections outnumber the publicly
/// reported subset (the paper's headline 4× result).
#[test]
fn five_year_compact_evaluation() {
    use kepler::glue::truth_outages_observed;
    use kepler::netsim::scenario::five_year::{build, FiveYearConfig};
    let scenario = build(FiveYearConfig::compact(31));
    let config = KeplerConfig::default();
    let mut detector = detector_for(&scenario, config.clone());
    for r in scenario.records() {
        detector.process_record(&r);
    }
    let truth = truth_outages_observed(&scenario, &config, &detector);
    let reports = detector.finish();
    let eval = evaluate(&reports, &truth, 1800);
    assert!(eval.true_positives >= 2, "at least some real outages detected: {eval:?}");
    assert!(
        eval.precision() >= 0.5,
        "precision {:.2} too low ({} TP, {} FP)",
        eval.precision(),
        eval.true_positives,
        eval.false_positives
    );
    // Misses, if any, must be the paper's §5.3 failure mode: small
    // facilities (the paper's were <30 tenants, misclassified AS-level).
    for missed_id in &eval.missed {
        let t = truth.iter().find(|t| t.id == *missed_id).unwrap();
        if let kepler::core::events::OutageScope::Facility(f) = t.scope {
            let members = scenario.world.colo.members_of_facility(f).len();
            assert!(members < 30, "missed a large facility ({members} members): {t:?}");
        }
    }
    let reported = scenario.reported();
    let detected_infra = eval.true_positives;
    assert!(
        detected_infra >= reported.len() / 2,
        "detections ({detected_infra}) should be comparable to or exceed public reports ({})",
        reported.len()
    );
}

/// MRT round-trip: archiving the scenario stream to MRT bytes and reading
/// it back must not change what the detector sees.
#[test]
fn detection_survives_mrt_roundtrip() {
    use kepler::bgp::mrt::{MrtReader, MrtWriter};
    use kepler::bgp::Asn;
    use kepler::bgpstream::BgpRecord;

    let study = AmsIxScenario::new(25).with_config(WorldConfig::tiny(25)).build();
    let scenario = &study.scenario;
    let records = scenario.records();

    // Archive.
    let mut bytes = Vec::new();
    {
        let mut w = MrtWriter::new(&mut bytes);
        for r in &records {
            w.write_record(&r.to_mrt(Asn(64_700), "192.0.2.254".parse().unwrap())).unwrap();
        }
    }
    // Restore (collector ids are per-archive here; reuse the originals).
    let mut restored = Vec::with_capacity(records.len());
    for (rec, orig) in MrtReader::new(&bytes[..]).zip(records.iter()) {
        restored.push(BgpRecord::from_mrt(rec.expect("valid archive"), orig.collector));
    }
    assert_eq!(restored.len(), records.len());

    let config = KeplerConfig::default();
    let direct = detector_for(scenario, config.clone()).run(records);
    let via_mrt = detector_for(scenario, config).run(restored);
    assert_eq!(direct, via_mrt, "MRT round-trip must be transparent");
}

/// A read archive re-writes byte for byte: a tiny AMS-IX study written
/// to one archive per collector, read through `MrtSource` and written
/// back with `to_mrt` and `MrtWriter`, is its input, because a read
/// record keeps its UPDATE as the wire bytes.
#[test]
fn a_read_archive_rewrites_byte_identical() {
    use kepler::bgp::mrt::MrtWriter;
    use kepler::bgp::Asn;
    use kepler::bgpstream::{CollectorId, MrtSource, RecordSource};

    let study = AmsIxScenario::new(25).with_config(WorldConfig::tiny(25)).build();
    let scenario = &study.scenario;
    let local_ip = "192.0.2.254".parse().unwrap();
    let mut archives = vec![Vec::new(); scenario.output.collector_names.len()];
    for r in &scenario.output.records {
        let archive = &mut archives[usize::from(r.collector.0)];
        MrtWriter::new(archive).write_record(&r.to_mrt(Asn(64_700), local_ip)).unwrap();
    }
    assert!(archives.iter().all(|a| !a.is_empty()), "every collector archives records");
    for (i, archive) in archives.iter().enumerate() {
        let mut source = MrtSource::new(&archive[..], CollectorId(i as u16));
        let mut again = Vec::new();
        let mut writer = MrtWriter::new(&mut again);
        while let Some(record) = source.next_record() {
            writer.write_record(&record.to_mrt(Asn(64_700), local_ip)).unwrap();
        }
        assert!(source.take_error().is_none());
        assert_eq!((source.skipped(), source.unsupported()), (0, 0));
        assert!(again == *archive, "collector {i}: the re-written archive differs");
    }
}

/// The mined dictionary agrees with ground truth well enough to drive
/// detection (no wrong tags; most documented values recovered).
#[test]
fn mined_dictionary_quality() {
    use kepler::docmine::dictionary::validate;
    let study = AmsIxScenario::new(27).with_config(WorldConfig::small(27)).build();
    let scenario = &study.scenario;
    let dict = scenario.mined_dictionary();
    let report = validate(&dict, &scenario.world.schemes);
    assert_eq!(report.wrong_tag, 0, "no mis-tagged communities");
    assert!(report.recall() > 0.9, "recall {:.2}", report.recall());
    assert!(report.precision() > 0.95, "precision {:.2}", report.precision());
}
