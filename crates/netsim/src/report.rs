//! Public-reporting model.
//!
//! Stands in for the NANOG / Outages mailing lists and the data-center
//! news sites the paper scraped for validation. Reporting is biased the
//! way the paper observes: incidents in the US and UK are far more likely
//! to be written up, large incidents more than small ones, and overall
//! only ≈24% of real infrastructure outages surface anywhere public.

use crate::events::{EventKind, GroundTruthEvent};
use crate::world::World;
use kepler_topology::{Continent, OutageScope};

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A public mention of an outage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportedOutage {
    /// Ground-truth event id.
    pub event_id: usize,
    /// Where it was mentioned.
    pub venue: &'static str,
}

/// Where the epicenter sits and whether the country is US/GB.
fn epicenter_region(world: &World, kind: &EventKind) -> Option<(Continent, bool)> {
    match kind.epicenter()? {
        OutageScope::Facility(f) => {
            let fac = world.colo.facility(f)?;
            Some((fac.continent, fac.country == "US" || fac.country == "GB"))
        }
        OutageScope::Ixp(x) => {
            let ixp = world.colo.ixp(x)?;
            let city = world.gazetteer.by_index(ixp.city.0 as usize)?;
            Some((ixp.continent, city.country == "US" || city.country == "GB"))
        }
        // Ground truth never places an event at a whole city.
        OutageScope::City(_) => None,
    }
}

/// Computes the publicly reported subset of ground-truth infrastructure
/// outages, deterministically from `seed`.
pub fn reported_subset(
    world: &World,
    truth: &[GroundTruthEvent],
    seed: u64,
) -> Vec<ReportedOutage> {
    let mut out = Vec::new();
    for gt in truth {
        if !gt.kind.is_infrastructure_outage() {
            continue;
        }
        let Some((continent, anglophone)) = epicenter_region(world, &gt.kind) else { continue };
        let base = if anglophone {
            0.60
        } else {
            match continent {
                Continent::Europe => 0.28,
                Continent::NorthAmerica => 0.45,
                _ => 0.12,
            }
        };
        // Size factor: a 40+-member incident is big news.
        let size_factor = (gt.affected_members as f64 / 40.0).clamp(0.25, 1.0);
        // Duration factor: sub-10-minute blips rarely get posted.
        let dur_factor = if gt.duration < 600 { 0.4 } else { 1.0 };
        let p = (base * size_factor * dur_factor).min(0.95);
        let h = (splitmix(seed ^ gt.id as u64) % 10_000) as f64 / 10_000.0;
        if h < p {
            let venue = match splitmix(seed ^ 0xBEEF ^ gt.id as u64) % 4 {
                0 => "nanog",
                1 => "outages-list",
                2 => "datacenter-dynamics",
                _ => "datacenter-knowledge",
            };
            out.push(ReportedOutage { event_id: gt.id, venue });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;
    use kepler_topology::FacilityId;

    fn truth_for(world: &World, n: usize) -> Vec<GroundTruthEvent> {
        // Synthesize ground truth over the world's facilities.
        (0..n)
            .map(|i| {
                let fac = world.colo.facilities()[i % world.colo.facilities().len()].id;
                GroundTruthEvent {
                    id: i,
                    start: 1_400_000_000 + i as u64 * 86_400,
                    duration: if i % 3 == 0 { 300 } else { 5400 },
                    kind: EventKind::FacilityOutage {
                        facility: FacilityId(fac.0),
                        affected_fraction: 1.0,
                    },
                    affected_members: world.colo.members_of_facility(fac).len(),
                }
            })
            .collect()
    }

    #[test]
    fn reporting_is_partial_and_deterministic() {
        let w = World::generate(WorldConfig::small(111));
        let truth = truth_for(&w, 200);
        let a = reported_subset(&w, &truth, 3);
        let b = reported_subset(&w, &truth, 3);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "some outages get reported");
        assert!(
            a.len() < truth.len() / 2,
            "most outages go unreported: {}/{}",
            a.len(),
            truth.len()
        );
    }

    #[test]
    fn non_infrastructure_events_never_reported() {
        let w = World::generate(WorldConfig::tiny(113));
        let truth = vec![GroundTruthEvent {
            id: 0,
            start: 0,
            duration: 100_000,
            kind: EventKind::Depeering { a: kepler_bgp::Asn(1), b: kepler_bgp::Asn(2) },
            affected_members: 1000,
        }];
        assert!(reported_subset(&w, &truth, 1).is_empty());
    }
}
