//! Seeded Internet simulator for Kepler.
//!
//! The paper evaluates Kepler on five years of RouteViews/RIPE RIS archives,
//! RIPE Atlas/Ark/iPlane traceroutes, and an IPFIX feed from a large
//! European IXP. None of those are available offline, so this crate builds
//! the closest synthetic equivalent end-to-end:
//!
//! * [`world`] — the generated ground truth: cities, ~1.7k facilities with
//!   realistic member skew, IXPs whose fabrics span multiple buildings,
//!   ASes with Gao-Rexford business relationships, PNI / public / remote
//!   peering instantiations, per-operator BGP community schemes, and the
//!   two noisy colocation-source snapshots.
//! * [`routing`] — per-prefix policy routing (customer > peer > provider,
//!   valley-free exports) with *physical* instance selection per AS-level
//!   link, ingress-community tagging, and route-server redistribution
//!   communities.
//! * [`events`] — the outage vocabulary: full/partial facility and IXP
//!   outages, de-peerings, IXP membership terminations, operator
//!   maintenance and fiber cuts, each with ground-truth metadata.
//! * [`engine`] — discrete-event emission: applies events to the routing
//!   state and synthesizes the multi-collector BGP update stream with
//!   MRAI-paced jitter, sticky backup paths (≈5% of reroutes never return)
//!   and slow reconvergence after restoration.
//! * [`dataplane`] — the traceroute substitute: interface-level paths over
//!   the same physical topology, haversine-propagation RTTs, archived
//!   weekly dumps and targeted campaigns. Tracing is **incremental**: a
//!   route-epoch index finds the events a pair experiences by binary
//!   search, and a [`dataplane::TreeCache`] shares one routing tree per
//!   (origin, failure-state) and one path skeleton per (pair,
//!   failure-state), so a re-trace recomputes only the per-instant terms
//!   (bit-identical to rebuilding everything per trace, differentially
//!   tested against that reference).
//! * [`traffic`] — the IPFIX substitute: sampled traffic series at a
//!   remote IXP, with asymmetric-routing members that lose traffic during
//!   outages elsewhere.
//! * [`report`] — the public-reporting model (mailing lists / news sites)
//!   that under-reports outages the way the paper measures (≈24%).
//! * [`scenario`] — packaged experiments: the five-year study, the AMS-IX
//!   2015 case study, and the London dual-facility disambiguation case.
//! * [`fuzz`] — the scenario-diversity engine: seeded random worlds ×
//!   random failure scripts (single / partial / flapping / cascade /
//!   remote-peering archetypes), each serializable as a replayable
//!   [`fuzz::ScenarioScript`] for CI sweeps and regression cases.
//!
//! # Key types
//!
//! [`World`] (generated ground truth), [`ScheduledEvent`]/[`EventKind`]
//! (the outage vocabulary), [`Simulation`] (stream emission),
//! [`dataplane::DataplaneSim`] (traceroutes), [`scenario::Scenario`]
//! (packaged studies).
//!
//! # Invariants
//!
//! * **Everything is deterministic in the scenario seed** — world
//!   generation, routing tie-breaks, update jitter, probe RTTs; there is
//!   no wall clock or global RNG anywhere.
//! * **Control and data plane share one physical truth.** BGP streams and
//!   traceroutes are derived from the same topology and failure state, so
//!   control-plane inferences can be validated against an
//!   independent-looking data-plane view (the paper's §4.4).
//! * **The detector sees only what a real deployment would**: noisy
//!   colocation snapshots, mined (not ground-truth) dictionaries, and
//!   collector vantage points — never the generator's internals.

#![forbid(unsafe_code)]

pub mod dataplane;
pub mod engine;
pub mod events;
pub mod fault;
pub mod fuzz;
pub mod report;
pub mod routing;
pub mod scenario;
pub mod traffic;
pub mod world;

pub use engine::Simulation;
pub use events::{EventKind, GroundTruthEvent, ScheduledEvent};
pub use fault::{FaultConfig, FaultyBackend};
pub use world::{World, WorldConfig};
