//! The outage vocabulary and ground-truth records.

use crate::world::World;
use kepler_bgp::Asn;
use kepler_topology::{FacilityId, IxpId, OutageScope};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// What happens in an event.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A facility loses power/cooling/fiber. `affected_fraction` < 1.0
    /// models partial outages (one power feed, one room).
    FacilityOutage {
        /// The building.
        facility: FacilityId,
        /// Fraction of member ports taken down (1.0 = full).
        affected_fraction: f64,
    },
    /// An IXP fabric fails (switch loop, config error).
    IxpOutage {
        /// The exchange.
        ixp: IxpId,
        /// Fraction of member ports taken down (1.0 = full).
        affected_fraction: f64,
    },
    /// Two ASes tear down their interconnection entirely (link-level).
    Depeering {
        /// One endpoint.
        a: Asn,
        /// The other endpoint.
        b: Asn,
    },
    /// An AS terminates its IXP membership (AS-level: all its public
    /// sessions at the exchange go away at once).
    IxpMemberLeave {
        /// The leaving member.
        asn: Asn,
        /// The exchange.
        ixp: IxpId,
    },
    /// An operator moves all its sibling ASes out of a facility
    /// (operator-level signal).
    OperatorWithdraw {
        /// The sibling ASNs.
        asns: Vec<Asn>,
        /// The facility they leave.
        facility: FacilityId,
    },
    /// A metro fiber cut takes down most member ports of a facility. To
    /// the control plane this is indistinguishable from a facility outage
    /// — the paper's six false positives were exactly this.
    FiberCut {
        /// The facility whose ports die.
        facility: FacilityId,
        /// Fraction of member ports affected.
        affected_fraction: f64,
    },
    /// A collector-peer BGP session flaps (feed gap, not an outage).
    CollectorFlap {
        /// Index into the simulation's collector-peer table.
        peer_slot: usize,
    },
    /// A facility's fabric congests (brownout): every route keeps
    /// crossing it — no BGP signal at all — while RTTs through its ports
    /// surge. Only the data plane can see this; it is the delay
    /// detector's target and invisible to the deviation test by
    /// construction.
    LatencySurge {
        /// The congested building.
        facility: FacilityId,
        /// Extra milliseconds added to every hop entering it.
        extra_ms: f64,
    },
}

impl EventKind {
    /// Whether ground truth considers this a *peering infrastructure
    /// outage* (the class Kepler is built to detect).
    pub fn is_infrastructure_outage(&self) -> bool {
        matches!(self, EventKind::FacilityOutage { .. } | EventKind::IxpOutage { .. })
    }

    /// Whether the event can change routes. Flaps touch no routes; surges
    /// touch none either (pure-latency events, read off the timeline per
    /// hop), so neither breaks anything in
    /// [`FailedSet::of_events`](crate::routing::FailedSet::of_events).
    pub fn affects_routes(&self) -> bool {
        !matches!(self, EventKind::CollectorFlap { .. } | EventKind::LatencySurge { .. })
    }

    /// The physical epicenter, if the event has one: a facility or an
    /// IXP, never a city.
    pub fn epicenter(&self) -> Option<OutageScope> {
        match self {
            EventKind::FacilityOutage { facility, .. }
            | EventKind::FiberCut { facility, .. }
            | EventKind::OperatorWithdraw { facility, .. }
            | EventKind::LatencySurge { facility, .. } => Some(OutageScope::Facility(*facility)),
            EventKind::IxpOutage { ixp, .. } => Some(OutageScope::Ixp(*ixp)),
            _ => None,
        }
    }
}

/// An event placed on the timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledEvent {
    /// Start time (Unix seconds).
    pub start: u64,
    /// Duration in seconds.
    pub duration: u64,
    /// What happens.
    pub kind: EventKind,
}

impl ScheduledEvent {
    /// End time. Saturates at the top of the clock: a hand-written
    /// timeline with `start + duration` past `u64::MAX` describes an
    /// event that never ends, not a wrapped (or panicking) one.
    pub fn end(&self) -> u64 {
        self.start.saturating_add(self.duration)
    }
}

/// Ground truth for evaluation: what actually happened, when, where.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruthEvent {
    /// Stable event id (index into the scenario's timeline).
    pub id: usize,
    /// Start time.
    pub start: u64,
    /// Duration in seconds.
    pub duration: u64,
    /// The event.
    pub kind: EventKind,
    /// Member ASes directly affected (ports down), for the report model.
    pub affected_members: usize,
}

/// Resolves the member ports a partial event takes down, deterministically
/// from the event identity.
pub fn partial_ports(world: &World, members: &BTreeSet<Asn>, fraction: f64, salt: u64) -> Vec<Asn> {
    let mut ports: Vec<Asn> = members.iter().copied().collect();
    if fraction >= 1.0 {
        return ports;
    }
    let k = ((ports.len() as f64) * fraction).ceil() as usize;
    let mut rng = StdRng::seed_from_u64(salt ^ world.config.seed);
    ports.shuffle(&mut rng);
    ports.truncate(k);
    ports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    #[test]
    fn classification_helpers() {
        let f = EventKind::FacilityOutage { facility: FacilityId(1), affected_fraction: 1.0 };
        assert!(f.is_infrastructure_outage());
        assert_eq!(f.epicenter(), Some(OutageScope::Facility(FacilityId(1))));
        let d = EventKind::Depeering { a: Asn(1), b: Asn(2) };
        assert!(!d.is_infrastructure_outage());
        assert_eq!(d.epicenter(), None);
        let fc = EventKind::FiberCut { facility: FacilityId(2), affected_fraction: 0.9 };
        assert!(!fc.is_infrastructure_outage(), "fiber cuts are not facility outages");
        assert!(fc.epicenter().is_some(), "but they have a facility epicenter");
    }

    #[test]
    fn partial_ports_deterministic_and_sized() {
        let w = World::generate(WorldConfig::tiny(71));
        let members: BTreeSet<Asn> = (1..=10).map(Asn).collect();
        let a = partial_ports(&w, &members, 0.5, 99);
        let b = partial_ports(&w, &members, 0.5, 99);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        let full = partial_ports(&w, &members, 1.0, 99);
        assert_eq!(full.len(), 10);
        let other = partial_ports(&w, &members, 0.5, 100);
        // Different salt usually picks a different subset; both valid sizes.
        assert_eq!(other.len(), 5);
    }

    use crate::world::World;
}
