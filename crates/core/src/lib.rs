//! Kepler — detecting peering infrastructure outages from BGP communities.
//!
//! This crate is the paper's contribution: a passive monitoring system that
//! localizes colocation-facility and IXP outages to the level of a building
//! from public BGP data. The pipeline (paper Figures 6 and Algorithm 1):
//!
//! 1. [`input`] — sanitize updates, map location-encoding communities to
//!    the PoPs (facility / IXP / city) each route traverses.
//! 2. [`monitor`] — maintain a stable-path baseline (routes unchanged for
//!    2 days), bin updates at 60 s, and raise an **outage signal** when,
//!    for some (PoP, near-end AS), more than `T_fail` of the stable paths
//!    deviate within a bin.
//! 3. [`investigate`] — classify concurrent signals as link-level,
//!    AS-level, operator-level or PoP-level, then disambiguate the true
//!    epicenter with the colocation map (the 95% co-location rule,
//!    facility↔IXP resolution escalation, city abstraction). Members
//!    flagged remote at an exchange by the latency heuristic
//!    ([`remote`]) never vote for that metro's buildings.
//! 4. [`validate`] — the one validation stage (§4.4): low-confidence
//!    localizations are settled by targeted `kepler-probe` campaigns
//!    (or evidence an open incident already carries), and the prober's
//!    baseline re-probe discards incidents the data plane contradicts. Every
//!    outcome is a value with a reason; the run's counters are their
//!    tally.
//! 5. [`tracker`] — the incident lifecycle (`Open` → `Recovering` →
//!    `Closed`): oscillation merging (<12 h), control-plane restoration
//!    (>50% of paths return), probe-driven restoration (backoff
//!    re-probes of the epicenter), cross-bin evidence accumulation with
//!    decaying confidence, duration accounting.
//! 6. [`metrics`] — evaluation against ground truth (TP/FP/FN).
//!
//! The [`system::Kepler`] type wires all of it together behind a
//! feed-records-in, get-outages-out API. One scaling layer sits beside
//! the pipeline: [`intern`] (dense ids for every hot-path identity).
//!
//! # Key types
//!
//! [`KeplerConfig`] (the paper's calibrated §5.1 defaults),
//! [`system::Kepler`], [`OutageReport`] with [`OutageScope`],
//! [`IncidentState`] and [`ValidationStatus`], and the dense-id
//! vocabulary [`RouteId`]/[`PopId`]/[`AsnId`].
//!
//! # Invariants
//!
//! * **Dense hot path.** Display identities are interned once at input
//!   time; monitor and tracker work on `u32` ids and resolve
//!   back only at report time ([`monitor::DenseBinOutcome::resolve`]).
//! * **One sequential monitor.** [`monitor::Monitor`] is the only
//!   monitor; its one fast path (the empty-stretch bin skip) is
//!   differentially tested against the bin-by-bin walk
//!   (`crates/core/tests/differential.rs`).
//! * **Probing is monotone.** Attaching a prober never changes outcomes
//!   for events it does not probe; confident localizations bypass it.
//! * **Closes are evidence-driven.** An incident ends only when the
//!   control plane restores (>`restore_fraction` of watched crossings
//!   back) or two consecutive restoration re-probes observe the
//!   epicenter forwarding again — never on a timer.

#![forbid(unsafe_code)]

pub mod config;
pub mod events;
pub mod input;
pub mod intern;
pub mod investigate;
pub mod metrics;
pub mod monitor;
pub mod remote;
pub mod signal;
pub mod system;
pub mod tracker;
pub mod validate;

// The test-side route events name this crate as its integration tests do.
#[cfg(test)]
extern crate self as kepler_core;
#[cfg(test)]
#[path = "../tests/route_event/mod.rs"]
mod route_event;

pub use config::KeplerConfig;
pub use events::{
    IncidentState, OutageReport, OutageScope, RouteKey, SignalClass, ValidationStatus,
};
pub use intern::{AsnId, DenseCrossing, DenseRouteEvent, Interner, PopId, RouteId};
pub use investigate::{FacilityCandidate, PendingIncident};
pub use kepler_bgp::fx;
pub use remote::RemotenessMap;
pub use signal::{
    BinView, DelayDetector, ForecastDetector, SignalKind, SignalSource, SourceContribution,
    SourceSignal,
};
pub use system::{Kepler, KeplerInputs};
pub use tracker::{Incident, TrackerState};
