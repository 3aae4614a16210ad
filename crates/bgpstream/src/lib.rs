//! BGPStream-like substrate: a unified, time-sorted feed of BGP records
//! from many route collectors.
//!
//! The paper (§4.1) uses the BGPStream framework to "decouple Kepler from
//! the sources of BGP feeds, and thus obtain a unified feed of sorted BGP
//! records" across all RouteViews and RIPE RIS collectors. This crate
//! reproduces that layer:
//!
//! * [`record`] — the record/element model: one [`record::BgpRecord`] per
//!   archived message, exploded into per-prefix [`record::BgpElem`]s for
//!   analysis (BGPStream's `BGPElem`).
//! * [`collector`] — collector and peer identities.
//! * [`source`] — the [`source::RecordSource`] abstraction plus in-memory
//!   and MRT-file-backed sources.
//! * [`merge`] — deterministic k-way merge of many sources by timestamp.
//! * [`gap`] — session-state tracking used to disregard measurement bins
//!   affected by collector feed disruptions rather than real outages.
//!
//! # Invariants
//!
//! * **One unified clock**: [`merge`] emits records in non-decreasing
//!   timestamp order with a deterministic tie-break, regardless of how
//!   many sources feed it.
//! * **Session state is part of the data**: collector session drops
//!   surface as records (not silence), so [`gap`] can quarantine
//!   feed-loss windows instead of mistaking them for outages.

#![forbid(unsafe_code)]

pub mod collector;
pub mod gap;
pub mod merge;
pub mod record;
pub mod source;

pub use collector::{CollectorId, CollectorRegistry, PeerId};
pub use gap::GapTracker;
pub use merge::MergedStream;
pub use record::{BgpElem, BgpRecord, ElemKind, RecordPayload, Timestamp};
pub use source::{MemorySource, MrtSource, RecordSource};
