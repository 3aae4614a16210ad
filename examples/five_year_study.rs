//! The 2012–2016 historical study (paper §6.1, Figure 1): run Kepler over
//! five simulated years of BGP data and compare what it detects with what
//! the public mailing lists would have reported.
//!
//! ```sh
//! cargo run --release --example five_year_study            # compact
//! cargo run --release --example five_year_study -- full    # paper-shaped counts
//! ```

use kepler::core::events::OutageScope;
use kepler::core::metrics::evaluate;
use kepler::core::KeplerConfig;
use kepler::glue::{detector_for, truth_outages_observed};
use kepler::netsim::scenario::five_year::{build, FiveYearConfig, STUDY_START};

fn main() {
    let full = std::env::args().any(|a| a == "full");
    let seed = 31u64;
    let cfg = if full { FiveYearConfig::standard(seed) } else { FiveYearConfig::compact(seed) };
    println!(
        "building five-year scenario ({} facility + {} IXP outages, {} background events)...",
        cfg.facility_outages + cfg.sandy_cluster,
        cfg.ixp_outages,
        cfg.depeerings + cfg.member_leaves + cfg.operator_events
    );
    let scenario = build(cfg);
    println!("stream: {} records", scenario.output.records.len());

    let config = KeplerConfig::default();
    let mut detector = detector_for(&scenario, config.clone());
    for r in scenario.records() {
        detector.process_record(&r);
    }
    let truth = truth_outages_observed(&scenario, &config, &detector);
    let counts = detector.class_counts();
    let reports = detector.finish();

    // Figure 1: detections vs public reports per semester.
    let reported = scenario.reported();
    let semester = |t: u64| (t.saturating_sub(STUDY_START)) / (182 * 86_400);
    let mut bins: std::collections::BTreeMap<u64, (usize, usize, usize)> = Default::default();
    for r in &reports {
        let e = bins.entry(semester(r.start)).or_default();
        match r.scope {
            OutageScope::Ixp(_) => e.1 += 1,
            _ => e.0 += 1,
        }
    }
    for rep in &reported {
        if let Some(gt) = scenario.output.ground_truth.iter().find(|g| g.id == rep.event_id) {
            bins.entry(semester(gt.start)).or_default().2 += 1;
        }
    }
    println!("\nFigure 1 — detected vs reported infrastructure outages per semester:");
    println!("{:>9} {:>10} {:>6} {:>9}", "semester", "facilities", "IXPs", "reported");
    for (s, (fac, ixp, rep)) in &bins {
        println!(
            "{:>9} {:>10} {:>6} {:>9}",
            format!("{}H{}", 2012 + s / 2, 1 + s % 2),
            fac,
            ixp,
            rep
        );
    }
    let detected = reports.len();
    println!(
        "\ntotals: {} detected vs {} publicly reported ({:.1}x)",
        detected,
        reported.len(),
        detected as f64 / reported.len().max(1) as f64
    );

    // §5.3-style validation.
    let eval = evaluate(&reports, &truth, 1800);
    println!(
        "\nvalidation: {} TP, {} FP, {} FN — precision {:.2}, recall {:.2}",
        eval.true_positives,
        eval.false_positives,
        eval.false_negatives,
        eval.precision(),
        eval.recall()
    );
    println!(
        "signal classification over the run: {} link-level, {} AS-level, {} operator-level, {} PoP-level",
        counts.link_level, counts.as_level, counts.operator_level, counts.pop_level
    );

    // Figure 8b flavor: duration distribution of detections.
    let mut durations: Vec<u64> = reports.iter().filter_map(|r| r.duration()).collect();
    durations.sort_unstable();
    if !durations.is_empty() {
        let med = durations[durations.len() / 2];
        let over_hour = durations.iter().filter(|&&d| d > 3600).count();
        println!(
            "\ndurations: median {} min, {}/{} over an hour",
            med / 60,
            over_hour,
            durations.len()
        );
    }
}
