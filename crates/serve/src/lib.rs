//! Kepler as a live service.
//!
//! This crate wraps the offline detection pipeline
//! ([`kepler_core::Kepler`]) in the machinery a long-running deployment
//! needs, in four layers:
//!
//! 1. **Daemon loop** ([`daemon`]) — tails collector input on the
//!    detector's deterministic bin clock, with bounded-queue
//!    backpressure (slow consumers stall ingest, never drop events).
//! 2. **Durable incident store** ([`store`], [`wal`], [`codec`]) — an
//!    append-only CRC-framed WAL of per-bin incident deltas, fsynced on
//!    bin close and compacted into atomic snapshots; recovery replays
//!    WAL-over-snapshot to **bit-identical** tracker state.
//! 3. **Alert fan-out** ([`alert`]) — lifecycle transitions dispatched
//!    to pluggable sinks (log / file / callback) behind per-channel
//!    token-bucket rate limits with burst coalescing.
//! 4. **Query surface** ([`query`]) — an immutable status view swapped
//!    atomically each bin; a reader's status lookup is O(1) and never
//!    contends with ingest.
//!
//! ```no_run
//! use kepler_serve::{Daemon, DaemonConfig};
//! # fn detector() -> kepler_core::Kepler { unimplemented!() }
//! # fn records() -> Vec<kepler_bgpstream::BgpRecord> { unimplemented!() }
//! let config = DaemonConfig::new("var/kepler".into());
//! let mut daemon = Daemon::new(detector(), &config).unwrap();
//! let view = daemon.view(); // share with reader threads
//! daemon.run_stream(records()).unwrap();
//! let (reports, summary) = daemon.finish().unwrap();
//! # let _ = (reports, summary, view);
//! ```

#![forbid(unsafe_code)]

pub mod alert;
pub mod codec;
pub mod daemon;
pub mod query;
pub mod store;
pub mod wal;

pub use alert::{
    Alert, AlertRouter, AlertSink, CallbackSink, Channel, ChannelStats, FileSink, LogSink,
    TokenBucket,
};
pub use daemon::{Daemon, DaemonConfig, RunSummary};
pub use query::{ScopeStatus, StatusView, ViewCell};
pub use store::{IncidentStore, RecoveryReport, Transition, TransitionKind};
