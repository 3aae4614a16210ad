//! Collector feed-gap tracking.
//!
//! Paper §4.2: "we check for BGP State messages to detect potential
//! disruptions in the BGP feed that can cause gaps in our BGP stream and
//! disregard updates due to it." A collector losing a peer session looks
//! exactly like every route of that peer being withdrawn — without this
//! tracker, Kepler would raise a storm of phantom outage signals.

use crate::collector::{CollectorId, PeerId};
use crate::record::{BgpRecord, RecordPayload, Timestamp};
use kepler_bgp::fx::FxHashMap;

/// Per-(collector, peer) session health derived from state messages.
#[derive(Debug, Clone, Default)]
pub struct GapTracker {
    /// Sessions a state message has been seen for; absent means
    /// assumed-healthy. One probe per record on the decode path.
    sessions: FxHashMap<(CollectorId, PeerId), SessionHealth>,
    /// How long after session re-establishment a feed stays quarantined
    /// (routes are re-announced in bulk and look like churn).
    pub quarantine_secs: u64,
}

/// One session's health.
#[derive(Debug, Clone, Copy, Default)]
struct SessionHealth {
    /// Whether the session is down.
    down: bool,
    /// Time until which a freshly-recovered feed is still quarantined
    /// (0 before the first recovery).
    quarantine_until: Timestamp,
}

impl GapTracker {
    /// Creates a tracker with the given post-recovery quarantine.
    pub fn new(quarantine_secs: u64) -> Self {
        GapTracker { quarantine_secs, ..Default::default() }
    }

    /// Feeds one record through the tracker (state records update session
    /// health; updates are ignored).
    pub fn observe(&mut self, rec: &BgpRecord) {
        if let RecordPayload::State(change) = &rec.payload {
            let key = (rec.collector, rec.peer);
            if change.is_session_loss() {
                self.sessions.entry(key).or_default().down = true;
            } else if change.is_session_up() {
                let quarantine_until = rec.time + self.quarantine_secs;
                self.sessions.insert(key, SessionHealth { down: false, quarantine_until });
            }
        }
    }

    /// Whether elements from this (collector, peer) at time `t` should be
    /// trusted for outage analysis.
    pub fn is_usable(&self, collector: CollectorId, peer: PeerId, t: Timestamp) -> bool {
        self.sessions.get(&(collector, peer)).is_none_or(|h| !h.down && t >= h.quarantine_until)
    }

    /// Number of sessions currently known to be down.
    pub fn down_count(&self) -> usize {
        self.sessions.values().filter(|h| h.down).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kepler_bgp::{Asn, PeerState, StateChange};

    fn state(time: u64, old: PeerState, new: PeerState) -> BgpRecord {
        BgpRecord {
            time,
            collector: CollectorId(0),
            peer: PeerId { asn: Asn(5), addr: "192.0.2.5".parse().unwrap() },
            payload: RecordPayload::State(StateChange { old, new }),
        }
    }

    #[test]
    fn session_loss_marks_unusable() {
        let mut g = GapTracker::new(120);
        let peer = PeerId { asn: Asn(5), addr: "192.0.2.5".parse().unwrap() };
        assert!(g.is_usable(CollectorId(0), peer, 10));
        g.observe(&state(100, PeerState::Established, PeerState::Idle));
        assert!(!g.is_usable(CollectorId(0), peer, 150));
        assert_eq!(g.down_count(), 1);
    }

    #[test]
    fn recovery_quarantines_then_heals() {
        let mut g = GapTracker::new(120);
        let peer = PeerId { asn: Asn(5), addr: "192.0.2.5".parse().unwrap() };
        g.observe(&state(100, PeerState::Established, PeerState::Idle));
        g.observe(&state(200, PeerState::OpenConfirm, PeerState::Established));
        assert!(!g.is_usable(CollectorId(0), peer, 250), "still quarantined");
        assert!(g.is_usable(CollectorId(0), peer, 320));
        assert_eq!(g.down_count(), 0);
    }

    #[test]
    fn other_peers_unaffected() {
        let mut g = GapTracker::new(120);
        g.observe(&state(100, PeerState::Established, PeerState::Idle));
        let other = PeerId { asn: Asn(6), addr: "192.0.2.6".parse().unwrap() };
        assert!(g.is_usable(CollectorId(0), other, 150));
        assert!(g.is_usable(
            CollectorId(1),
            PeerId { asn: Asn(5), addr: "192.0.2.5".parse().unwrap() },
            150
        ));
    }
}
