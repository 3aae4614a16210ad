//! Display-typed route events for the monitor and tracker tests, and the
//! one way they become the [`DenseRouteEvent`]s the monitor consumes.
//! The crate's unit tests and its integration tests share this file.

use kepler_core::events::RouteKey;
use kepler_core::input::PopCrossing;
use kepler_core::intern::{DenseRouteEvent, Interner};
use std::sync::Arc;

/// A route event before interning.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteEvent {
    /// The route is (re-)announced with these crossings.
    Update { key: RouteKey, crossings: Vec<PopCrossing> },
    /// The route was withdrawn.
    Withdraw { key: RouteKey },
}

impl RouteEvent {
    /// Interns the event's route, then its crossings in order.
    pub fn intern(&self, interner: &mut Interner) -> DenseRouteEvent {
        match self {
            RouteEvent::Update { key, crossings } => DenseRouteEvent::Update {
                route: interner.route_id(key),
                crossings: crossings.iter().map(|c| interner.crossing(c)).collect::<Arc<[_]>>(),
            },
            RouteEvent::Withdraw { key } => {
                DenseRouteEvent::Withdraw { route: interner.route_id(key) }
            }
        }
    }
}
