//! Collector and peer identities.

use kepler_bgp::Asn;
use std::fmt;
use std::net::IpAddr;

/// A route collector (e.g. `rrc00`, `route-views2`), identified by a dense
/// numeric id assigned at registration time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CollectorId(pub u16);

impl fmt::Display for CollectorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "collector#{}", self.0)
    }
}

/// A collector peer: the (ASN, address) pair feeding a collector. The same
/// AS may feed several collectors from different routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId {
    /// The peer's ASN.
    pub asn: Asn,
    /// The peer's BGP session address.
    pub addr: IpAddr,
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.asn, self.addr)
    }
}

/// A registry assigning dense [`CollectorId`]s to collector names.
#[derive(Debug, Default, Clone)]
pub struct CollectorRegistry {
    names: Vec<String>,
}

impl CollectorRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or looks up) a collector by name.
    pub fn register(&mut self, name: &str) -> CollectorId {
        if let Some(pos) = self.names.iter().position(|n| n == name) {
            return CollectorId(pos as u16);
        }
        self.names.push(name.to_string());
        CollectorId((self.names.len() - 1) as u16)
    }

    /// Resolves an id back to its name.
    pub fn name(&self, id: CollectorId) -> Option<&str> {
        self.names.get(id.0 as usize).map(String::as_str)
    }

    /// Number of registered collectors.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no collector is registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_idempotent() {
        let mut r = CollectorRegistry::new();
        let a = r.register("rrc00");
        let b = r.register("route-views2");
        assert_ne!(a, b);
        assert_eq!(r.register("rrc00"), a);
        assert_eq!(r.name(a), Some("rrc00"));
        assert_eq!(r.name(CollectorId(99)), None);
        assert_eq!(r.len(), 2);
    }
}
