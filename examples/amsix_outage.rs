//! The AMS-IX May 2015 case study (paper §6.2–6.3): a 10-minute outage of
//! the largest exchange, watched through three community granularities,
//! confirmed in the data plane, with RTT impact and remote-IXP traffic dip.
//!
//! ```sh
//! cargo run --release --example amsix_outage
//! ```

use kepler::core::KeplerConfig;
use kepler::docmine::LocationTag;
use kepler::glue::detector_for;
use kepler::netsim::dataplane::{default_pairs, DataplaneSim};
use kepler::netsim::scenario::amsix::{AmsIxScenario, OUTAGE_DURATION, OUTAGE_START};
use kepler::netsim::traffic::TrafficSim;
use kepler::netsim::world::WorldConfig;

fn main() {
    let seed = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(7u64);
    let study = AmsIxScenario::new(seed).with_config(WorldConfig::small(seed)).build();
    let scenario = &study.scenario;
    let world = &scenario.world;
    let ixp_name = world.colo.ixp(study.amsix).unwrap().name.clone();
    println!(
        "case study: outage of {ixp_name} ({} members) at t={OUTAGE_START} for {OUTAGE_DURATION}s",
        world.colo.members_of_ixp(study.amsix).len()
    );

    // Control plane: watch the three aggregation granularities (Fig 8c).
    let mut detector = detector_for(scenario, KeplerConfig::default());
    let fac_tag = LocationTag::Facility(study.sara_facility);
    let ixp_tag = LocationTag::Ixp(study.amsix);
    let city_tag = LocationTag::City(world.colo.ixp(study.amsix).unwrap().city);
    for tag in [fac_tag, ixp_tag, city_tag] {
        detector.watch(tag);
    }
    for r in scenario.records() {
        detector.process_record(&r);
    }
    println!("\npath-change fraction by community granularity (around the outage):");
    println!("{:>10} {:>10} {:>10} {:>10}", "t-rel(s)", "facility", "ixp", "city");
    let series: Vec<_> = [fac_tag, ixp_tag, city_tag]
        .iter()
        .map(|t| detector.watch_series(*t).unwrap_or(&[]).to_vec())
        .collect();
    let window = (OUTAGE_START - 600)..(OUTAGE_START + OUTAGE_DURATION + 900);
    let mut rows: std::collections::BTreeMap<u64, [f64; 3]> = std::collections::BTreeMap::new();
    for (i, s) in series.iter().enumerate() {
        for (t, f) in s {
            if window.contains(t) {
                rows.entry(*t).or_insert([0.0; 3])[i] = *f;
            }
        }
    }
    for (t, v) in &rows {
        println!(
            "{:>10} {:>10.3} {:>10.3} {:>10.3}",
            *t as i64 - OUTAGE_START as i64,
            v[0],
            v[1],
            v[2]
        );
    }
    let reports = detector.finish();
    println!("\ndetected outages:");
    for r in &reports {
        println!("  {r}");
    }

    // Data plane: traceroute view (Fig 10b) and RTT impact (Fig 10c).
    let dp = DataplaneSim::new(world, &scenario.timeline, seed);
    let pairs = default_pairs(world, seed, 200);
    let crossing = |t: u64| {
        let paths = dp.campaign(&pairs, t);
        paths.iter().filter(|p| p.crosses_ixp(study.amsix)).count()
    };
    let before = crossing(OUTAGE_START - 1200);
    println!("\ntraceroute paths crossing {ixp_name}:");
    for (label, t) in [
        ("before", OUTAGE_START - 1200),
        ("during", OUTAGE_START + 300),
        ("+20min", OUTAGE_START + OUTAGE_DURATION + 1200),
        ("+1h", OUTAGE_START + OUTAGE_DURATION + 3600),
        ("+4h", OUTAGE_START + OUTAGE_DURATION + 4 * 3600),
    ] {
        let n = crossing(t);
        println!(
            "  {label:>7}: {n:>4} ({:.0}% of baseline)",
            100.0 * n as f64 / before.max(1) as f64
        );
    }

    // RTT distribution for baseline-crossing pairs (Fig 10c).
    let base_paths = dp.campaign(&pairs, OUTAGE_START - 1200);
    let amsix_pairs: Vec<_> =
        base_paths.iter().filter(|p| p.crosses_ixp(study.amsix)).map(|p| p.pair).collect();
    let median = |mut v: Vec<f64>| -> f64 {
        if v.is_empty() {
            return f64::NAN;
        }
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    let rtts = |t: u64| -> Vec<f64> {
        dp.campaign(&amsix_pairs, t).iter().filter_map(|p| p.rtt_ms()).collect()
    };
    println!("\nmedian RTT of {ixp_name}-crossing pairs:");
    println!("  before: {:>7.1} ms", median(rtts(OUTAGE_START - 1200)));
    println!("  during: {:>7.1} ms", median(rtts(OUTAGE_START + 300)));
    println!("  after:  {:>7.1} ms", median(rtts(OUTAGE_START + OUTAGE_DURATION + 1200)));

    // Remote impact: traffic at the second exchange (Fig 10d).
    let ts = TrafficSim::new(world, study.eu_ixp, study.amsix, seed);
    let eu_name = world.colo.ixp(study.eu_ixp).unwrap().name.clone();
    println!("\nIPv4 traffic at remote {eu_name} (Gbps):");
    let series = ts.series(
        OUTAGE_START - 1500,
        OUTAGE_START + 3000,
        300,
        OUTAGE_START,
        OUTAGE_START + OUTAGE_DURATION,
    );
    for p in &series {
        println!("  t{:+6}s {:>9.1}", p.time as i64 - OUTAGE_START as i64, p.gbps);
    }
    let impact = ts.impact_summary(OUTAGE_START, OUTAGE_START + OUTAGE_DURATION);
    println!(
        "  {} of {} members lose traffic; top-25 losers carry {:.0}% of the loss",
        impact.members_losing,
        impact.members,
        impact.top25_share * 100.0
    );
}
