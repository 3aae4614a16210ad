//! The colocation-twin disambiguation case: the scenario the probe
//! subsystem exists for.
//!
//! Two facilities in one metro host (as far as any public colocation
//! source can tell) the *same* tenant set — think adjacent buildings of
//! one campus, listed interchangeably by PeeringDB and DataCenterMap —
//! and the operators housed there publish only *city*-granularity
//! communities. When one building goes dark, passive inference gets
//! stuck: the affected far-ends are contained in both candidate
//! facilities, neither clears the 95% co-location rule (the healthy
//! twin's live ports dilute every denominator), and the signal bottoms
//! out at a city-level verdict. Only the data plane can tell the
//! buildings apart, because traceroute interfaces resolve to the *ports
//! that actually forward*: baseline paths through the dark building
//! vanish while the twin keeps answering.
//!
//! [`TwinFacilityScenario`] engineers exactly that world: it twins the
//! colocation records of the two best-populated facilities of a hub city
//! (ground truth *and* the published snapshots — the ports themselves
//! stay where the generator placed them), coarsens every community
//! scheme entry naming either building to a city entry, and fails one of
//! the twins.

use super::Scenario;
use crate::engine::{CollectorSetup, Simulation};
use crate::events::{EventKind, ScheduledEvent};
use crate::world::{World, WorldConfig};
use kepler_docmine::scheme::{SchemeEntry, SchemeTarget};
use kepler_topology::{CityId, FacilityId};
use std::collections::BTreeSet;

/// 2017-06-05 00:00:00 UTC — an arbitrary quiet Monday.
pub const DAY_ONE: u64 = 1_496_620_800;

/// The built study with its cast.
pub struct TwinStudy {
    /// The underlying scenario.
    pub scenario: Scenario,
    /// The metro hosting the twins.
    pub city: CityId,
    /// The building that actually fails.
    pub down: FacilityId,
    /// Its colocation twin — identical membership records, stays up.
    pub twin: FacilityId,
    /// Outage start.
    pub outage_start: u64,
    /// Outage duration in seconds.
    pub outage_duration: u64,
}

/// Builder.
pub struct TwinFacilityScenario {
    seed: u64,
    config: WorldConfig,
}

impl TwinFacilityScenario {
    /// A scenario with the default mid-size world.
    pub fn new(seed: u64) -> Self {
        TwinFacilityScenario { seed, config: WorldConfig::small(seed) }
    }

    /// Overrides the world configuration.
    pub fn with_config(mut self, config: WorldConfig) -> Self {
        self.config = config;
        self
    }

    /// Generates the world, twins the stage facilities, runs the
    /// simulation, returns the study.
    pub fn build(self) -> TwinStudy {
        let mut world = World::generate(self.config);
        // The stage: the city whose two best-populated facilities carry
        // the most *locatable* tenants (16-bit ASNs running a community
        // scheme — the members whose deviations the detector can see).
        // Pairs hosting an IXP fabric are deprioritized: a fabric wholly
        // inside the dark building gives passive inference a legitimate
        // exchange-level verdict, which is not the ambiguity under study.
        let locatable = |world: &World, f: FacilityId| {
            world
                .colo
                .members_of_facility(f)
                .iter()
                .filter(|a| {
                    a.is_16bit() && world.node(**a).map(|n| n.scheme.is_some()).unwrap_or(false)
                })
                .count()
        };
        let mut best: Option<(usize, CityId, FacilityId, FacilityId)> = None;
        let cities: BTreeSet<CityId> = world.colo.facilities().iter().map(|f| f.city).collect();
        for city in cities {
            let mut facs: Vec<(usize, FacilityId)> = world
                .colo
                .facilities_in_city(city)
                .into_iter()
                .map(|f| (locatable(&world, f), f))
                .collect();
            facs.sort_by_key(|(n, f)| (std::cmp::Reverse(*n), f.0));
            if facs.len() < 2 || facs[1].0 < 3 {
                continue;
            }
            let hosts_ixp =
                [facs[0].1, facs[1].1].iter().any(|f| !world.colo.ixps_at_facility(*f).is_empty());
            let score = (facs[0].0 + facs[1].0) * if hosts_ixp { 1 } else { 2 };
            if best.map(|(s, ..)| score > s).unwrap_or(true) {
                best = Some((score, city, facs[0].1, facs[1].1));
            }
        }
        let (_, city, down, twin) = best.expect("world must contain a two-facility city");

        // Twin the *records*: both buildings list the union tenant set in
        // ground truth and in every published snapshot. Physical ports are
        // untouched — the generator already placed every session.
        let union: BTreeSet<kepler_bgp::Asn> = world
            .colo
            .members_of_facility(down)
            .iter()
            .chain(world.colo.members_of_facility(twin).iter())
            .copied()
            .collect();
        for &asn in &union {
            world.colo.add_fac_member(down, asn);
            world.colo.add_fac_member(twin, asn);
        }
        let tenant_list: Vec<kepler_bgp::Asn> = union.iter().copied().collect();
        for fac in [down, twin] {
            let (address, name) = {
                let f = world.colo.facility(fac).expect("stage facility");
                (f.address.clone(), f.name.clone())
            };
            for snap in &mut world.snapshots {
                for sf in &mut snap.facilities {
                    // Snapshot B renames facilities; the address survives.
                    if sf.name == name || sf.address == address {
                        sf.tenants = tenant_list.clone();
                    }
                }
            }
        }

        // Coarsen the community vocabulary: any scheme entry naming either
        // twin becomes a city entry — the paper's common case of operators
        // tagging at metro granularity. (Facility entries for *other*
        // buildings stay sharp; they provide the bystander tags.)
        let city_name = world.gazetteer.cities()[city.0 as usize].name.to_string();
        for node in &mut world.ases {
            let Some(scheme) = &mut node.scheme else { continue };
            let mut has_city_entry = scheme
                .entries
                .iter()
                .any(|e| matches!(&e.target, SchemeTarget::City { city: c, .. } if *c == city));
            let mut entries: Vec<SchemeEntry> = Vec::with_capacity(scheme.entries.len());
            for e in scheme.entries.drain(..) {
                match &e.target {
                    SchemeTarget::Facility { id, .. } if *id == down || *id == twin => {
                        if !has_city_entry {
                            has_city_entry = true;
                            entries.push(SchemeEntry {
                                value: e.value,
                                target: SchemeTarget::City { ident: city_name.clone(), city },
                            });
                        }
                        // Further twin entries fold into the city entry.
                    }
                    _ => entries.push(e),
                }
            }
            scheme.entries = entries;
        }
        world.schemes = world.ases.iter().filter_map(|a| a.scheme.clone()).collect();

        let outage_start = DAY_ONE + 2 * 86_400 + 6 * 3600 + 9 * 3600 + 40 * 60;
        let outage_duration = 2 * 3600;
        let timeline = vec![ScheduledEvent {
            start: outage_start,
            duration: outage_duration,
            kind: EventKind::FacilityOutage { facility: down, affected_fraction: 1.0 },
        }];
        let start = DAY_ONE;
        let end = outage_start + outage_duration + 86_400;
        // A wider vantage base than the historical studies: colocation
        // twins only produce the studied ambiguity when enough distinct
        // near-ends are observed deviating through the coarse city tag.
        let setup = CollectorSetup::default_for(&world, 6, 72, self.seed);
        let output = {
            let sim = Simulation::new(&world, setup, start, self.seed);
            sim.run(&timeline, end)
        };
        TwinStudy {
            scenario: Scenario { world, output, timeline, start, end, seed: self.seed },
            city,
            down,
            twin,
            outage_start,
            outage_duration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataplane::default_pairs;

    #[test]
    fn twins_share_membership_and_tags_are_coarse() {
        let study = TwinFacilityScenario::new(3).build();
        let w = &study.scenario.world;
        assert_ne!(study.down, study.twin);
        assert_eq!(w.colo.facility(study.down).unwrap().city, study.city);
        assert_eq!(w.colo.facility(study.twin).unwrap().city, study.city);
        // Ground truth twinned.
        assert_eq!(
            w.colo.members_of_facility(study.down),
            w.colo.members_of_facility(study.twin),
            "twins must list identical members"
        );
        // The detector-visible (merged-snapshot) map is twinned too.
        let det = w.detector_colomap();
        assert_eq!(det.members_of_facility(study.down), det.members_of_facility(study.twin),);
        // No scheme names either twin at facility granularity anymore.
        for s in &w.schemes {
            for e in &s.entries {
                if let SchemeTarget::Facility { id, .. } = &e.target {
                    assert!(*id != study.down && *id != study.twin, "twin tags must be coarse");
                }
            }
        }
        assert_eq!(study.scenario.output.ground_truth.len(), 1);
    }

    #[test]
    fn outage_window_emits_and_dataplane_discriminates() {
        let study = TwinFacilityScenario::new(5).build();
        let recs = &study.scenario.output.records;
        let n = recs
            .iter()
            .filter(|r| r.time >= study.outage_start && r.time < study.outage_start + 300)
            .count();
        assert!(n > 0, "outage window must emit updates");
        // The data plane can tell the twins apart even though the
        // colocation records cannot: paths stop crossing the dark
        // building but keep crossing the healthy twin.
        let dp = study.scenario.dataplane();
        let pairs = default_pairs(&study.scenario.world, study.scenario.seed ^ 0xDA7A, 200);
        let during = study.outage_start + 600;
        let crossing =
            |fac, t: u64| dp.campaign(&pairs, t).iter().filter(|p| p.crosses_facility(fac)).count();
        assert_eq!(crossing(study.down, during), 0, "no path crosses the dark building");
        assert!(
            crossing(study.twin, during) > 0,
            "the healthy twin keeps forwarding (seed must provide coverage)"
        );
    }
}
