//! Input hygiene (paper §4.1): Kepler "sanitizes the collected paths by
//! discarding paths with AS loops, private ASNs, or special-purpose ASNs",
//! and drops bogon prefixes before any analysis.
//!
//! # Rules
//!
//! Every element (one prefix of one UPDATE) gets one verdict: the first
//! rule it breaks, in this order, or accepted. An announced prefix is
//! held to the path rules, then the prefix rules; a withdrawn prefix
//! carries no path and is held to the prefix rules alone.
//!
//! 1. The path carries no ASN: [`RejectReason::EmptyAsPath`].
//! 2. Once prepending is collapsed (consecutive repeats of one ASN
//!    merged), an ASN appears twice: [`RejectReason::AsLoop`].
//! 3. Any ASN is special-purpose ([`Asn::is_special_purpose`]):
//!    [`RejectReason::SpecialPurposeAsn`].
//! 4. The collapsed path has more than [`MAX_HOPS`] hops:
//!    [`RejectReason::ExcessivePathLength`].
//! 5. The prefix is a bogon ([`Prefix::is_bogon`]):
//!    [`RejectReason::BogonPrefix`].
//! 6. The prefix length is unconventional
//!    ([`Prefix::is_conventional_size`]):
//!    [`RejectReason::UnconventionalPrefixLength`].
//!
//! [`SanitizeStats`] counts each verdict once.

use crate::asn::Asn;
use crate::prefix::Prefix;
use std::fmt;

/// The most collapsed hops a kept path may have: far above any
/// legitimate path; poisoned or leaked paths can be hundreds long.
pub const MAX_HOPS: usize = 64;

/// Why a route failed sanitization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// The AS path revisits an ASN non-adjacently.
    AsLoop,
    /// The AS path contains a private/reserved/documentation ASN.
    SpecialPurposeAsn,
    /// The prefix is special-purpose address space.
    BogonPrefix,
    /// The prefix length is outside conventional global-table filters.
    UnconventionalPrefixLength,
    /// The AS path is empty on an eBGP feed.
    EmptyAsPath,
    /// The AS path is implausibly long (leak/poisoning artifact).
    ExcessivePathLength,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RejectReason::AsLoop => "AS loop",
            RejectReason::SpecialPurposeAsn => "special-purpose ASN in path",
            RejectReason::BogonPrefix => "bogon prefix",
            RejectReason::UnconventionalPrefixLength => "unconventional prefix length",
            RejectReason::EmptyAsPath => "empty AS path",
            RejectReason::ExcessivePathLength => "excessive AS path length",
        };
        f.write_str(s)
    }
}

/// Running counters of element verdicts, for observability.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SanitizeStats {
    /// Routes rejected for AS loops.
    pub as_loops: u64,
    /// Routes rejected for special-purpose ASNs.
    pub special_asns: u64,
    /// Prefixes rejected as bogons.
    pub bogons: u64,
    /// Prefixes rejected for unconventional length.
    pub bad_lengths: u64,
    /// Routes rejected for empty paths.
    pub empty_paths: u64,
    /// Routes rejected for excessive length.
    pub long_paths: u64,
    /// Routes accepted.
    pub accepted: u64,
}

impl SanitizeStats {
    /// Total rejected routes.
    pub fn rejected(&self) -> u64 {
        self.as_loops
            + self.special_asns
            + self.bogons
            + self.bad_lengths
            + self.empty_paths
            + self.long_paths
    }

    /// Counts one element's verdict.
    pub fn tally(&mut self, verdict: Result<(), RejectReason>) {
        match verdict {
            Ok(()) => self.accepted += 1,
            Err(RejectReason::AsLoop) => self.as_loops += 1,
            Err(RejectReason::SpecialPurposeAsn) => self.special_asns += 1,
            Err(RejectReason::BogonPrefix) => self.bogons += 1,
            Err(RejectReason::UnconventionalPrefixLength) => self.bad_lengths += 1,
            Err(RejectReason::EmptyAsPath) => self.empty_paths += 1,
            Err(RejectReason::ExcessivePathLength) => self.long_paths += 1,
        }
    }
}

/// The path rules (1–4) over a path's collapsed hops. Collapsing keeps
/// every ASN value, so the hops are empty, or hold a special-purpose
/// ASN, exactly when the path does.
pub fn path_verdict(hops: &[Asn]) -> Result<(), RejectReason> {
    if hops.is_empty() {
        return Err(RejectReason::EmptyAsPath);
    }
    // Collapsed hop lists are short (median 3-5); a quadratic slice scan
    // beats hashing every ASN.
    if hops.iter().enumerate().any(|(i, a)| hops[..i].contains(a)) {
        return Err(RejectReason::AsLoop);
    }
    if hops.iter().any(|a| a.is_special_purpose()) {
        return Err(RejectReason::SpecialPurposeAsn);
    }
    if hops.len() > MAX_HOPS {
        return Err(RejectReason::ExcessivePathLength);
    }
    Ok(())
}

/// The prefix rules (5–6).
pub fn prefix_verdict(prefix: &Prefix) -> Result<(), RejectReason> {
    if prefix.is_bogon() {
        return Err(RejectReason::BogonPrefix);
    }
    if !prefix.is_conventional_size() {
        return Err(RejectReason::UnconventionalPrefixLength);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aspath::AsPath;

    fn ok_prefix() -> Prefix {
        Prefix::v4(184, 84, 242, 0, 24)
    }

    /// The verdict of an announced route, as an element gets it.
    fn route_verdict(path: &AsPath, prefix: &Prefix) -> Result<(), RejectReason> {
        path_verdict(&path.hops()).and_then(|()| prefix_verdict(prefix))
    }

    #[test]
    fn accepts_clean_route() {
        let mut s = SanitizeStats::default();
        let p = AsPath::from_sequence([3356, 13030, 20940]);
        s.tally(route_verdict(&p, &ok_prefix()));
        assert_eq!(s.accepted, 1);
    }

    #[test]
    fn rejects_loop() {
        let mut s = SanitizeStats::default();
        let p = AsPath::from_sequence([3356, 13030, 3356, 20940]);
        let v = route_verdict(&p, &ok_prefix());
        assert_eq!(v, Err(RejectReason::AsLoop));
        s.tally(v);
        assert_eq!(s.as_loops, 1);
    }

    #[test]
    fn prepending_is_not_a_loop() {
        let p = AsPath::from_sequence([3356, 13030, 13030, 13030, 20940]);
        assert!(route_verdict(&p, &ok_prefix()).is_ok());
    }

    #[test]
    fn rejects_private_asn() {
        let p = AsPath::from_sequence([3356, 64512, 20940]);
        assert_eq!(route_verdict(&p, &ok_prefix()), Err(RejectReason::SpecialPurposeAsn));
    }

    #[test]
    fn rejects_bogon_and_bad_length() {
        let p = AsPath::from_sequence([3356, 20940]);
        assert_eq!(route_verdict(&p, &Prefix::v4(10, 0, 0, 0, 16)), Err(RejectReason::BogonPrefix));
        assert_eq!(
            route_verdict(&p, &Prefix::v4(184, 84, 242, 0, 28)),
            Err(RejectReason::UnconventionalPrefixLength)
        );
    }

    #[test]
    fn rejects_empty_and_long_paths() {
        assert_eq!(route_verdict(&AsPath::empty(), &ok_prefix()), Err(RejectReason::EmptyAsPath));
        let longest = AsPath::from_sequence(1000..1000 + MAX_HOPS as u32);
        assert!(route_verdict(&longest, &ok_prefix()).is_ok());
        let long = AsPath::from_sequence(1000..1001 + MAX_HOPS as u32);
        assert_eq!(route_verdict(&long, &ok_prefix()), Err(RejectReason::ExcessivePathLength));
    }

    #[test]
    fn withdrawals_answer_to_the_prefix_rules_alone() {
        let mut s = SanitizeStats::default();
        for p in [Prefix::v4(10, 0, 0, 0, 16), Prefix::v4(184, 84, 0, 0, 16)] {
            s.tally(prefix_verdict(&p));
        }
        assert_eq!((s.bogons, s.accepted, s.rejected()), (1, 1, 1));
    }
}
