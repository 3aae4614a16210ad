//! Display-typed route events for the monitor and tracker tests, and the
//! one way they become the [`DenseRouteEvent`]s the monitor consumes.
//! The crate's unit tests and its integration tests share this file.

use kepler_core::events::RouteKey;
use kepler_core::input::PopCrossing;
use kepler_core::intern::{DenseRouteEvent, Interner};

/// A route event before interning.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteEvent {
    /// The route is (re-)announced with these crossings.
    Update { key: RouteKey, crossings: Vec<PopCrossing> },
    /// The route was withdrawn.
    Withdraw { key: RouteKey },
}

impl RouteEvent {
    /// Interns the event's route, then its crossings in order, then the
    /// list they make.
    pub fn intern(&self, interner: &mut Interner) -> DenseRouteEvent {
        match self {
            RouteEvent::Update { key, crossings } => {
                let route = interner.route_id(key);
                let dense: Vec<_> = crossings.iter().map(|c| interner.crossing(c)).collect();
                let (list, crossings) = interner.intern_crossings(&dense);
                DenseRouteEvent::Update { route, list, crossings }
            }
            RouteEvent::Withdraw { key } => {
                DenseRouteEvent::Withdraw { route: interner.route_id(key) }
            }
        }
    }
}
