//! Interface-level trace modeling shared by the simulator and the
//! detector.
//!
//! These types are the single owner of the data-plane vocabulary:
//! interface ownership and hop records live here (`kepler-netsim`
//! re-exports them), and the §4.4 baseline re-probe arithmetic
//! ([`ProbeResult`] / [`confirm`]) sits next to them.

use kepler_bgp::Asn;
use kepler_topology::{FacilityId, IxpId};
use std::net::IpAddr;

/// What an interface address resolves to (the traIXroute-style
/// IP-to-infrastructure mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IfaceOwner {
    /// A router port of `asn` inside `facility`.
    FacilityPort {
        /// Port owner.
        asn: Asn,
        /// Building.
        facility: FacilityId,
    },
    /// An address on an IXP peering LAN.
    IxpLan {
        /// The member using the address.
        asn: Asn,
        /// The exchange.
        ixp: IxpId,
    },
}

/// One traceroute hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceHop {
    /// Responding interface.
    pub addr: IpAddr,
    /// Its resolution.
    pub owner: IfaceOwner,
    /// Cumulative RTT at this hop, milliseconds.
    pub rtt_ms: f64,
}

/// One measured path: the hop sequence and whether the destination
/// answered. Backends return this; the analysis module consumes it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// The responding hops in TTL order (non-responding hops are simply
    /// absent, like `*` rows of a real traceroute).
    pub hops: Vec<TraceHop>,
    /// Whether the destination answered.
    pub reached: bool,
}

impl Trace {
    /// A trace that never got an answer.
    pub fn unreachable() -> Self {
        Trace { hops: Vec::new(), reached: false }
    }

    /// Empties this trace to [`unreachable`](Self::unreachable) in place,
    /// keeping the hop buffer's capacity.
    pub fn clear(&mut self) {
        self.hops.clear();
        self.reached = false;
    }

    /// End-to-end RTT (last hop), if reached.
    pub fn rtt_ms(&self) -> Option<f64> {
        if self.reached {
            self.hops.last().map(|h| h.rtt_ms)
        } else {
            None
        }
    }

    /// Index of the first hop inside the given facility.
    pub fn facility_hop(&self, fac: FacilityId) -> Option<usize> {
        facility_hop(&self.hops, fac)
    }

    /// Whether any hop crosses the given facility.
    pub fn crosses_facility(&self, fac: FacilityId) -> bool {
        facility_hop(&self.hops, fac).is_some()
    }

    /// Whether any hop crosses the given IXP.
    pub fn crosses_ixp(&self, ixp: IxpId) -> bool {
        ixp_hop(&self.hops, ixp).is_some()
    }

    /// Whether the trace revisits an interface (a forwarding loop).
    pub fn has_loop(&self) -> bool {
        has_loop(&self.hops)
    }
}

/// Index of the first hop inside `fac`, over a raw hop slice.
pub fn facility_hop(hops: &[TraceHop], fac: FacilityId) -> Option<usize> {
    hops.iter()
        .position(|h| matches!(h.owner, IfaceOwner::FacilityPort { facility: f, .. } if f == fac))
}

/// Index of the first hop on `ixp`'s peering LAN, over a raw hop slice.
pub fn ixp_hop(hops: &[TraceHop], ixp: IxpId) -> Option<usize> {
    hops.iter().position(|h| matches!(h.owner, IfaceOwner::IxpLan { ixp: x, .. } if x == ixp))
}

/// Whether a hop sequence revisits an interface address (loop detection;
/// real traceroutes show this during reconvergence).
pub fn has_loop(hops: &[TraceHop]) -> bool {
    for (i, h) in hops.iter().enumerate() {
        if hops[..i].iter().any(|g| g.addr == h.addr) {
            return true;
        }
    }
    false
}

/// Result of re-probing a PoP's baseline paths (paper §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeResult {
    /// Baseline paths that still cross the PoP.
    pub still_crossing: usize,
    /// Baseline paths measured.
    pub baseline: usize,
}

impl ProbeResult {
    /// Fraction of baseline paths still crossing.
    pub fn crossing_fraction(&self) -> f64 {
        if self.baseline == 0 {
            return 1.0;
        }
        self.still_crossing as f64 / self.baseline as f64
    }
}

/// Confirmation verdict given a probe result and the detection threshold:
/// an outage is confirmed when fewer than `t_fail` of the baseline paths
/// still cross the PoP.
pub fn confirm(result: ProbeResult, t_fail: f64) -> bool {
    result.crossing_fraction() < t_fail
}

/// SplitMix64 — the deterministic hash every probe-path derivation uses
/// (shared with the simulator's interface-address synthesis).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn hop(last_octet: u8, owner: IfaceOwner, rtt: f64) -> TraceHop {
        TraceHop { addr: IpAddr::V4(Ipv4Addr::new(11, 0, 0, last_octet)), owner, rtt_ms: rtt }
    }

    fn fac_hop(last_octet: u8, fac: u32) -> TraceHop {
        hop(
            last_octet,
            IfaceOwner::FacilityPort { asn: Asn(1), facility: FacilityId(fac) },
            last_octet as f64,
        )
    }

    #[test]
    fn crossing_queries() {
        let t = Trace {
            hops: vec![
                fac_hop(1, 7),
                hop(2, IfaceOwner::IxpLan { asn: Asn(2), ixp: IxpId(3) }, 2.0),
                fac_hop(3, 9),
            ],
            reached: true,
        };
        assert_eq!(t.facility_hop(FacilityId(7)), Some(0));
        assert_eq!(t.facility_hop(FacilityId(9)), Some(2));
        assert_eq!(t.facility_hop(FacilityId(8)), None);
        assert!(t.crosses_ixp(IxpId(3)));
        assert!(!t.crosses_ixp(IxpId(4)));
        assert_eq!(t.rtt_ms(), Some(3.0));
        assert_eq!(Trace::unreachable().rtt_ms(), None);
    }

    #[test]
    fn loop_detection() {
        assert!(!has_loop(&[]));
        assert!(!has_loop(&[fac_hop(1, 1), fac_hop(2, 1)]));
        assert!(has_loop(&[fac_hop(1, 1), fac_hop(2, 2), fac_hop(1, 1)]));
    }

    #[test]
    fn confirmation_thresholding() {
        assert!(confirm(ProbeResult { still_crossing: 0, baseline: 20 }, 0.10));
        assert!(confirm(ProbeResult { still_crossing: 1, baseline: 20 }, 0.10));
        assert!(!confirm(ProbeResult { still_crossing: 3, baseline: 20 }, 0.10));
        assert!(!confirm(ProbeResult { still_crossing: 20, baseline: 20 }, 0.10));
        // No baseline: fraction defaults to 1.0 — never confirms.
        assert!(!confirm(ProbeResult { still_crossing: 0, baseline: 0 }, 0.10));
    }

    #[test]
    fn splitmix_is_stable() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
