//! Active-measurement validation for Kepler (paper §4.4 and §6.2).
//!
//! Passive BGP-community inference localizes an outage to a *set* of
//! candidate facilities; when no candidate clears the 95% co-location
//! rule — or several do — the paper fires **targeted data-plane probes**
//! (traceroutes toward interfaces at the suspect buildings) to confirm the
//! event and disambiguate between colocated facilities. This crate is that
//! subsystem:
//!
//! ```text
//!  core::investigate                kepler-probe                  tracker
//!  ───────────────── ProbeRequest ─────────────────── verdicts ──────────
//!   low-confidence  ──────────────▶ schedule ─▶ simulate ─▶ analyze ──▶
//!   localization        (pop,        token-bucket  traceroute  hop-diff
//!   (candidates)        candidates,  per facility  campaigns   vs colo map
//!                       affected                   (backend)   FacilityVerdict
//!                       ASes)                                  + evidence
//! ```
//!
//! * [`vantage`] — the vantage-point registry: probe hosts with dense ids,
//!   selected deterministically and away from the suspect city.
//! * [`schedule`] — the rate-limited probe scheduler: a token bucket per
//!   target facility bounds campaign load, plus the campaign vocabulary
//!   (traceroute / ping).
//! * [`trace`] — interface-level trace modeling shared with the simulator
//!   (`kepler-netsim` re-exports these types): hop ownership, crossing
//!   queries, loop detection, and the §4.4 baseline re-probe arithmetic
//!   ([`ProbeResult`] / [`confirm`]) that `kepler-core`'s validation
//!   stage applies to [`Prober::baseline`]'s answer.
//! * [`analysis`] — the path-analysis module: diffs pre/post-event hop
//!   sequences against the colocation map and emits a
//!   [`FacilityVerdict`] with per-hop evidence.
//! * [`engine`] — the probe engine gluing it together behind the
//!   [`Prober`] trait the detector consumes; measurement backends (the
//!   netsim data plane today, a RIPE-Atlas-shaped client in a deployment)
//!   plug in through [`TraceBackend`] / [`AsyncTraceBackend`]; a canary
//!   panel re-traced every bin is one [`TraceBackend::trace_panel`] call
//!   into one reused [`Trace`], and the quiet-time baseline corpus is
//!   measured and re-probed through the same backend.
//! * [`lifecycle`] — the async-shaped measurement lifecycle
//!   (`submit → poll → collect`): per-attempt deadlines, retries on
//!   exponential backoff with deterministic seeded jitter, campaign
//!   completeness scoring. [`SyncAdapter`] lifts synchronous backends
//!   into the contract.
//! * [`health`] — the backend-health state machine
//!   (ONLINE/DEGRADED/OFFLINE with consecutive-failure/recovery
//!   hysteresis) that lets the detector degrade to passive-only
//!   localization when the platform browns out.
//! * [`fixture`] — recorded campaign transcripts: journal every attempt
//!   outcome once, replay it bit-identically offline
//!   ([`RecordingBackend`] / [`ReplayBackend`]).
//! * [`restoration`] — probe-driven restoration detection: open
//!   incident epicenters (a
//!   [`kepler_topology::OutageScope`]: facility, IXP or city) are
//!   re-probed on an exponential-backoff schedule ([`Backoff`]) behind
//!   the [`RestorationProber`] trait, closing incidents on data-plane
//!   recovery instead of waiting out BGP reconvergence.
//! * [`telemetry`] — passive differential-RTT telemetry: every measured
//!   pair optionally feeds an [`RttLedger`] of shared (vantage,
//!   hop-pair) step baselines, so in-progress campaigns double as a
//!   delay-anomaly signal source instead of being discarded after one
//!   verdict ([`ProbeEngine::with_telemetry`](engine::ProbeEngine)).
//!
//! # Key types
//!
//! [`ProbeRequest`] in, [`ProbeReport`] (per-candidate
//! [`FacilityVerdict`] + [`HopEvidence`]) out; [`RestorationReport`]
//! for re-probes. [`ProbeEngine`] implements both [`Prober`] and
//! [`RestorationProber`] over any [`TraceBackend`].
//!
//! # Invariants
//!
//! * **Confirmation requires detour evidence.** Bare unreachability
//!   indicts every facility a baseline path crossed and cannot
//!   discriminate colocated buildings; at least one destination must
//!   still answer while steering *around* the candidate
//!   ([`PathAnalyzer::min_detours`](analysis::PathAnalyzer)).
//! * **Restoration requires crossing evidence.** An epicenter is only
//!   reported restored when a quorum of its pre-event baseline paths
//!   demonstrably crosses the building again — reachability alone proves
//!   nothing (detours reach targets throughout an outage).
//! * **No verdict without baseline.** Pairs whose pre-event trace never
//!   reached, or never crossed the candidate, contribute nothing; starved
//!   probe budgets degrade to `Inconclusive`, never to a made-up verdict.
//! * **Losses degrade, never block.** A campaign below its completeness
//!   quorum is marked degraded ([`ProbeReport::degraded`]) so the
//!   detector falls back to passive verdicts; a browned-out backend
//!   drives the health machine to OFFLINE and shrinks campaigns to a
//!   canary. Nothing on the probe path blocks or panics on a misbehaving
//!   backend.
//! * **Determinism.** Vantage selection, token-bucket admission, retry
//!   jitter and every synthetic address derivation are seeded-hash
//!   functions of explicit inputs; there is no wall clock anywhere on the
//!   probe path, which is what makes transcript replay bit-identical.
//!
//! Identities on the probe path are small dense ids, mirroring the
//! monitor hot path: vantage points are interned to
//! [`VantageId`]s, scheduler buckets are keyed on raw
//! facility ids, and display types only appear in requests and evidence.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod engine;
pub mod fixture;
pub mod health;
pub mod lifecycle;
pub mod restoration;
pub mod schedule;
pub mod telemetry;
pub mod trace;
pub mod vantage;

pub use analysis::{FacilityVerdict, HopDiff, HopEvidence, MeasuredPair, PathAnalyzer, PostState};
pub use engine::{
    ProbeEngine, ProbeEngineConfig, ProbeReport, ProbeRequest, ProbeStats, Prober, TraceBackend,
};
pub use fixture::{CampaignTranscript, RecordedOutcome, RecordingBackend, ReplayBackend};
pub use health::{BackendHealth, HealthConfig, HealthTracker};
/// [`kepler_topology::OutageScope`] under a second name.
///
/// Kept only because `benchmark/` names it; it goes when a change to the
/// benchmark names `OutageScope` instead.
pub use kepler_topology::OutageScope as Epicenter;
pub use lifecycle::{
    drive, AsyncTraceBackend, LifecycleConfig, Measurement, MeasurementOutcome, MeasurementState,
    SubmitResult, SyncAdapter,
};
pub use restoration::{Backoff, RestorationProber, RestorationReport, RestorationVerdict};
pub use schedule::{CreditConfig, CreditLedger, ProbeScheduler, ProbeTask, RateLimit};
pub use telemetry::{shared_ledger, RttAnomaly, RttLedger, SharedRttLedger};
pub use trace::{confirm, splitmix64, IfaceOwner, ProbeResult, Trace, TraceHop};
pub use vantage::{VantageId, VantagePoint, VantageRegistry};
