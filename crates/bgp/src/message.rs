//! BGP UPDATE and session state-change messages as seen by route collectors.

use crate::attrs::PathAttributes;
use crate::prefix::Prefix;
use std::fmt;

/// A decoded BGP UPDATE: withdrawals plus announcements sharing one
/// attribute bundle (RFC 4271 §4.3). Either list may be empty.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BgpUpdate {
    /// Prefixes explicitly withdrawn.
    pub withdrawn: Vec<Prefix>,
    /// Attributes applying to every announced prefix, absent if the message
    /// is withdraw-only.
    pub attrs: Option<PathAttributes>,
    /// Prefixes announced with `attrs`.
    pub announced: Vec<Prefix>,
}

impl BgpUpdate {
    /// An announcement of `prefixes` with `attrs`.
    pub fn announce(prefixes: Vec<Prefix>, attrs: PathAttributes) -> Self {
        BgpUpdate { withdrawn: Vec::new(), attrs: Some(attrs), announced: prefixes }
    }

    /// A withdraw-only message.
    pub fn withdraw(prefixes: Vec<Prefix>) -> Self {
        BgpUpdate { withdrawn: prefixes, attrs: None, announced: Vec::new() }
    }

    /// True if the message neither announces nor withdraws anything
    /// (a pathological but legal encoding; collectors skip them).
    pub fn is_empty(&self) -> bool {
        self.withdrawn.is_empty() && self.announced.is_empty()
    }
}

/// BGP finite-state-machine states (RFC 4271 §8.2.2), as reported in MRT
/// `BGP4MP_STATE_CHANGE` records. Kepler watches for session flaps on the
/// collector feed itself to avoid mistaking feed gaps for outages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeerState {
    /// Initial state.
    Idle,
    /// TCP connection attempt in progress.
    Connect,
    /// Listening after a failed attempt.
    Active,
    /// OPEN sent.
    OpenSent,
    /// OPEN received and acceptable.
    OpenConfirm,
    /// Session up; routes flow.
    Established,
}

impl PeerState {
    /// MRT wire code (1-based per RFC 6396 §4.4.1).
    pub fn code(self) -> u16 {
        match self {
            PeerState::Idle => 1,
            PeerState::Connect => 2,
            PeerState::Active => 3,
            PeerState::OpenSent => 4,
            PeerState::OpenConfirm => 5,
            PeerState::Established => 6,
        }
    }

    /// Decodes the MRT wire code.
    pub fn from_code(c: u16) -> Option<Self> {
        match c {
            1 => Some(PeerState::Idle),
            2 => Some(PeerState::Connect),
            3 => Some(PeerState::Active),
            4 => Some(PeerState::OpenSent),
            5 => Some(PeerState::OpenConfirm),
            6 => Some(PeerState::Established),
            _ => None,
        }
    }
}

impl fmt::Display for PeerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PeerState::Idle => "Idle",
            PeerState::Connect => "Connect",
            PeerState::Active => "Active",
            PeerState::OpenSent => "OpenSent",
            PeerState::OpenConfirm => "OpenConfirm",
            PeerState::Established => "Established",
        };
        f.write_str(s)
    }
}

/// A collector-peer session state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateChange {
    /// State before the transition.
    pub old: PeerState,
    /// State after the transition.
    pub new: PeerState,
}

impl StateChange {
    /// Whether the transition tore an Established session down — the event
    /// that makes Kepler disregard the affected feed's bins.
    pub fn is_session_loss(&self) -> bool {
        self.old == PeerState::Established && self.new != PeerState::Established
    }

    /// Whether the transition brought the session up.
    pub fn is_session_up(&self) -> bool {
        self.new == PeerState::Established && self.old != PeerState::Established
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix::Prefix;

    #[test]
    fn announce_and_withdraw_shapes() {
        let a =
            BgpUpdate::announce(vec![Prefix::v4(184, 84, 242, 0, 24)], PathAttributes::default());
        assert!(!a.is_empty());
        assert!(a.attrs.is_some());
        let w = BgpUpdate::withdraw(vec![Prefix::v4(184, 84, 242, 0, 24)]);
        assert!(w.attrs.is_none());
        assert!(!w.is_empty());
        assert!(BgpUpdate::default().is_empty());
    }

    #[test]
    fn state_codes_roundtrip() {
        for s in [
            PeerState::Idle,
            PeerState::Connect,
            PeerState::Active,
            PeerState::OpenSent,
            PeerState::OpenConfirm,
            PeerState::Established,
        ] {
            assert_eq!(PeerState::from_code(s.code()), Some(s));
        }
        assert_eq!(PeerState::from_code(0), None);
        assert_eq!(PeerState::from_code(7), None);
    }

    #[test]
    fn session_loss_detection() {
        let down = StateChange { old: PeerState::Established, new: PeerState::Idle };
        assert!(down.is_session_loss());
        assert!(!down.is_session_up());
        let up = StateChange { old: PeerState::OpenConfirm, new: PeerState::Established };
        assert!(up.is_session_up());
        let lateral = StateChange { old: PeerState::Connect, new: PeerState::Active };
        assert!(!lateral.is_session_loss() && !lateral.is_session_up());
    }
}
