//! BGP protocol substrate for the Kepler outage-detection system.
//!
//! This crate implements, from scratch, everything Kepler needs to speak and
//! archive BGP:
//!
//! * [`asn`] — autonomous system numbers and their IANA special-purpose
//!   classifications (private-use, documentation, reserved ranges).
//! * [`prefix`] — IPv4/IPv6 prefixes with canonicalization, containment
//!   checks and bogon classification.
//! * [`community`] — the RFC 1997 communities attribute, plus RFC 4360
//!   extended and RFC 8092 large communities. Communities are the central
//!   data source of the paper: operators tag routes at their ingress points
//!   with values that encode *where* (facility, IXP, city) a route entered
//!   their network.
//! * [`aspath`] — AS paths with SEQUENCE/SET segments, loop detection and
//!   prepending.
//! * [`attrs`] — the BGP path-attribute bundle carried by UPDATE messages.
//! * [`message`] — UPDATE and session state-change messages as exposed by
//!   route collectors.
//! * [`sanitize`] — the input hygiene rules Kepler applies before any
//!   analysis (AS loops, private/special-purpose ASNs, bogon prefixes).
//! * [`mrt`] — a reader/writer for the MRT archive format (RFC 6396) subset
//!   used by RouteViews and RIPE RIS: `BGP4MP` message/state records and
//!   `TABLE_DUMP_V2` RIB snapshots.
//!
//! # Key types
//!
//! [`Asn`], [`Prefix`], [`Community`], [`AsPath`], [`PathAttributes`],
//! [`BgpUpdate`], and the [`mrt`] reader/writer.
//!
//! # Invariants
//!
//! * **The wire formats are real**: an UPDATE serialized here is a valid
//!   BGP-4 message (RFC 4271, with RFC 4760 multiprotocol NLRI for
//!   IPv6), and the MRT records round-trip byte-for-byte, so archives
//!   produced by the simulator in `kepler-netsim` could be consumed by
//!   any standard MRT tooling.
//! * **Sanitization is lossless about its reasons** — [`sanitize`]
//!   classifies every rejection (AS loop, special-purpose ASN, bogon
//!   prefix) so input statistics stay auditable.
//! * Parsing never panics on malformed input; [`mrt`] errors carry byte
//!   offsets.

#![forbid(unsafe_code)]

pub mod asn;
pub mod aspath;
pub mod attrs;
pub mod community;
pub mod fx;
pub mod message;
pub mod mrt;
pub mod prefix;
pub mod sanitize;

pub use asn::Asn;
pub use aspath::{AsPath, AsPathSegment};
pub use attrs::{Origin, PathAttributes};
pub use community::{Community, ExtendedCommunity, LargeCommunity};
pub use message::{BgpUpdate, PeerState, StateChange};
pub use prefix::Prefix;
