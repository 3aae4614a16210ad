//! Policy routing over the generated world.
//!
//! * [`policy`] — which physical link instances are up given the current
//!   failure state, and which instance an adjacency actually uses.
//! * [`propagate`] — per-prefix Gao-Rexford route computation: every AS's
//!   best route to a prefix, as a routing tree with parent pointers.
//! * [`tag`] — extraction of the *observable* route at a vantage point:
//!   AS path, ingress/route-server communities, and the physical PoPs
//!   (facilities, IXPs) the route traverses.

pub mod policy;
pub mod propagate;
pub mod tag;

pub use policy::FailedSet;
pub use propagate::{compute_tree, PrefClass, RouteTree};
pub use tag::{route_hops, snapshot_of, Hop, PopVisit, RouteSnapshot};
