//! # Kepler — detecting peering infrastructure outages in the wild
//!
//! Umbrella crate re-exporting the whole Kepler workspace: a reproduction of
//! Giotsas et al., *"Detecting Peering Infrastructure Outages in the Wild"*
//! (ACM SIGCOMM 2017).
//!
//! Kepler locates outages of colocation facilities and Internet exchange
//! points (IXPs) down to the level of a building, purely from passive BGP
//! control-plane data, by monitoring **location-encoding BGP communities**
//! and correlating routing deviations with a **colocation map**.
//!
//! The workspace is organized bottom-up:
//!
//! * [`bgp`] — BGP protocol substrate (prefixes, AS paths, communities,
//!   UPDATE messages, the MRT binary archive format).
//! * [`bgpstream`] — multi-collector record streams merged into one
//!   time-sorted feed, as provided by the BGPStream framework.
//! * [`topology`] — the colocation map: facilities, IXPs, organizations,
//!   and the merging of heterogeneous data sources.
//! * [`docmine`] — the community-dictionary miner that turns operator
//!   documentation into a machine-readable location dictionary.
//! * [`probe`] — the active-measurement subsystem: vantage registry,
//!   rate-limited probe scheduling, traceroute campaigns, the path
//!   analysis that disambiguates colocated facilities, and probe-driven
//!   restoration detection that closes incidents faster than BGP
//!   convergence.
//! * [`netsim`] — a seeded Internet simulator standing in for the real
//!   RouteViews/RIS archives, traceroute platforms and IXP traffic feeds.
//! * [`core`] — the Kepler detector itself: monitoring, signal
//!   investigation, localization and duration tracking.
//! * [`serve`] — Kepler as a live service: the daemon loop, the durable
//!   incident store (CRC-framed WAL + atomic snapshots, bit-identical
//!   recovery), rate-limited alert fan-out, and the O(1) shared query
//!   view behind `repro serve` / `repro query`.
//! * [`glue`] — adapters wiring the simulator into the detector (data
//!   plane probes, targeted-probe backends, ground-truth conversion).
//! * [`fuzz_harness`] — runs [`netsim::fuzz`] worlds through the
//!   detector and checks the safety invariants (no bystander blamed,
//!   no false close, flapping convergence, remote peers never
//!   mislocalized); failing seeds serialize to replayable artifacts.
//!
//! `ARCHITECTURE.md` at the repository root carries the full pipeline
//! diagram, the dense-id data-flow and a "where does X live" crate map;
//! `README.md` has the quickstart commands.
//!
//! ## Quickstart
//!
//! ```no_run
//! use kepler::core::KeplerConfig;
//! use kepler::glue::{detector_for, truth_outages};
//! use kepler::netsim::scenario::amsix::AmsIxScenario;
//!
//! // Build the AMS-IX 2015 case study and run the detector over it.
//! let study = AmsIxScenario::new(7).build();
//! let config = KeplerConfig::default();
//! let detector = detector_for(&study.scenario, config.clone());
//! let outages = detector.run(study.scenario.records());
//! for outage in &outages {
//!     println!("{outage}");
//! }
//! // Compare against ground truth.
//! let truth = truth_outages(&study.scenario, &config);
//! let eval = kepler::core::metrics::evaluate(&outages, &truth, 900);
//! println!("precision {:.2} recall {:.2}", eval.precision(), eval.recall());
//! ```

#![forbid(unsafe_code)]

pub mod fuzz_harness;
pub mod glue;

pub use kepler_bgp as bgp;
pub use kepler_bgpstream as bgpstream;
pub use kepler_core as core;
pub use kepler_docmine as docmine;
pub use kepler_netsim as netsim;
pub use kepler_probe as probe;
pub use kepler_serve as serve;
pub use kepler_topology as topology;
