//! Packaged experiments.
//!
//! A [`Scenario`] bundles everything one of the paper's studies needs: the
//! generated world, the emitted BGP stream, the ground-truth event
//! timeline, and constructors for the detector's inputs (mined community
//! dictionary, merged colocation map, organization map).
//!
//! * [`five_year`] — the 2012–2016 historical study behind Figure 1,
//!   Figure 8b, Table 1 and the §5.3 validation.
//! * [`amsix`] — the AMS-IX May 2015 case study (Figures 8c, 10a–d).
//! * [`london`] — the July 2016 London dual-facility disambiguation case
//!   (Figures 9a–c).
//! * [`twin`] — the colocation-twin case: two buildings with identical
//!   membership records and city-granularity tags, where only targeted
//!   data-plane probes can name the failed building.

pub mod amsix;
pub mod five_year;
pub mod london;
pub mod twin;

use crate::dataplane::DataplaneSim;
use crate::engine::SimOutput;
use crate::events::ScheduledEvent;
use crate::report::{reported_subset, ReportedOutage};
use crate::world::World;
use kepler_bgpstream::BgpRecord;
use kepler_docmine::corpus::render_corpus;
use kepler_docmine::dictionary::{dictionary_from_schemes, DictionaryMiner};
use kepler_docmine::CommunityDictionary;
use kepler_topology::ColocationMap;

/// A fully materialized experiment.
pub struct Scenario {
    /// The generated ground-truth world.
    pub world: World,
    /// Simulation output: records, ground truth, collectors.
    pub output: SimOutput,
    /// The event timeline that produced it.
    pub timeline: Vec<ScheduledEvent>,
    /// Stream start (warm-up included).
    pub start: u64,
    /// Stream end.
    pub end: u64,
    /// Scenario seed.
    pub seed: u64,
}

impl Scenario {
    /// The BGP record stream (already time-sorted).
    pub fn records(&self) -> Vec<BgpRecord> {
        self.output.records.clone()
    }

    /// The colocation map a detector would merge from public snapshots.
    pub fn detector_colo(&self) -> ColocationMap {
        self.world.detector_colomap()
    }

    /// The community dictionary *mined* from generated operator
    /// documentation (what Kepler actually runs on).
    pub fn mined_dictionary(&self) -> CommunityDictionary {
        self.mined_dictionary_on(&self.detector_colo())
    }

    /// [`Scenario::mined_dictionary`] against an already merged
    /// [`Scenario::detector_colo`], for a caller that keeps the map.
    pub fn mined_dictionary_on(&self, colo: &ColocationMap) -> CommunityDictionary {
        let corpus = render_corpus(&self.world.schemes, self.seed ^ 0xD1C7);
        let (mut dict, _) = DictionaryMiner::new(colo, &self.world.gazetteer).mine(&corpus);
        dict.add_route_servers_from(colo);
        dict
    }

    /// The perfect-knowledge dictionary (for ablations).
    pub fn truth_dictionary(&self) -> CommunityDictionary {
        let mut dict = dictionary_from_schemes(&self.world.schemes, true);
        dict.add_route_servers_from(&self.world.colo);
        dict
    }

    /// The publicly-reported subset of ground-truth outages.
    pub fn reported(&self) -> Vec<ReportedOutage> {
        reported_subset(&self.world, &self.output.ground_truth, self.seed ^ 0x9E75)
    }

    /// A data-plane simulator over the same timeline.
    pub fn dataplane(&self) -> DataplaneSim<'_> {
        DataplaneSim::new(&self.world, &self.timeline, self.seed ^ 0xDA7A)
    }
}
