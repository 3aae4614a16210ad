//! AS-to-organization mapping (paper §4.3, citing Cai et al.'s
//! AS-to-Org method): operators often run several sibling ASes on shared
//! infrastructure, so Kepler must not count siblings as independent
//! evidence when classifying an outage signal.

use kepler_bgp::Asn;
use std::collections::HashMap;
use std::fmt;

/// Dense identifier of an organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OrgId(pub u32);

impl fmt::Display for OrgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "org{}", self.0)
    }
}

/// Maps ASNs to organizations. ASNs not explicitly registered are treated
/// as single-AS organizations distinct from every other AS.
#[derive(Debug, Clone, Default)]
pub struct OrgMap {
    asn_to_org: HashMap<Asn, OrgId>,
    org_names: Vec<String>,
}

impl OrgMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an organization and returns its id.
    pub fn add_org(&mut self, name: &str) -> OrgId {
        self.org_names.push(name.to_string());
        OrgId((self.org_names.len() - 1) as u32)
    }

    /// Assigns an ASN to an organization.
    pub fn assign(&mut self, asn: Asn, org: OrgId) {
        self.asn_to_org.insert(asn, org);
    }

    /// The organization of `asn`, if registered.
    pub fn org_of(&self, asn: Asn) -> Option<OrgId> {
        self.asn_to_org.get(&asn).copied()
    }

    /// Organization display name.
    pub fn name(&self, org: OrgId) -> Option<&str> {
        self.org_names.get(org.0 as usize).map(String::as_str)
    }

    /// Whether two ASNs belong to the same organization. Unregistered ASNs
    /// are siblings only of themselves.
    pub fn are_siblings(&self, a: Asn, b: Asn) -> bool {
        if a == b {
            return true;
        }
        match (self.org_of(a), self.org_of(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Counts the distinct organizations in `asns`; unregistered ASNs each
    /// count as their own organization.
    pub fn distinct_orgs<I: IntoIterator<Item = Asn>>(&self, asns: I) -> usize {
        let mut orgs = std::collections::HashSet::new();
        let mut loners = std::collections::HashSet::new();
        for asn in asns {
            match self.org_of(asn) {
                Some(o) => {
                    orgs.insert(o);
                }
                None => {
                    loners.insert(asn);
                }
            }
        }
        orgs.len() + loners.len()
    }

    /// All registered sibling ASNs of `asn` (including itself).
    pub fn siblings(&self, asn: Asn) -> Vec<Asn> {
        match self.org_of(asn) {
            None => vec![asn],
            Some(org) => {
                let mut v: Vec<Asn> =
                    self.asn_to_org.iter().filter(|(_, &o)| o == org).map(|(&a, _)| a).collect();
                v.sort();
                v
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sibling_semantics() {
        let mut m = OrgMap::new();
        let bell = m.add_org("Bell Canada");
        m.assign(Asn(577), bell);
        m.assign(Asn(6539), bell);
        m.assign(Asn(36522), bell);
        let other = m.add_org("Other");
        m.assign(Asn(3356), other);

        assert!(m.are_siblings(Asn(577), Asn(6539)));
        assert!(!m.are_siblings(Asn(577), Asn(3356)));
        assert!(m.are_siblings(Asn(999), Asn(999)), "self is sibling");
        assert!(!m.are_siblings(Asn(999), Asn(998)), "unregistered are loners");
        assert_eq!(m.siblings(Asn(577)), vec![Asn(577), Asn(6539), Asn(36522)]);
        assert_eq!(m.siblings(Asn(999)), vec![Asn(999)]);
        assert_eq!(m.name(bell), Some("Bell Canada"));
    }

    #[test]
    fn distinct_org_counting() {
        let mut m = OrgMap::new();
        let a = m.add_org("A");
        m.assign(Asn(1), a);
        m.assign(Asn(2), a);
        // {1,2} same org; 7 and 8 unregistered loners.
        assert_eq!(m.distinct_orgs([Asn(1), Asn(2), Asn(7), Asn(8)]), 3);
        assert_eq!(m.distinct_orgs([]), 0);
        assert_eq!(m.distinct_orgs([Asn(1), Asn(1)]), 1);
    }
}
