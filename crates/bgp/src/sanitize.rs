//! Input hygiene (paper §4.1): Kepler "sanitizes the collected paths by
//! discarding paths with AS loops, private ASNs, or special-purpose ASNs",
//! and drops bogon prefixes before any analysis.

use crate::asn::Asn;
use crate::aspath::AsPath;
use crate::message::BgpUpdate;
use crate::prefix::Prefix;
use std::fmt;

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

/// Sanitizer configuration.
#[derive(Debug, Clone)]
pub struct SanitizerConfig {
    /// Maximum collapsed hop count tolerated (default 64: far above any
    /// legitimate path; poisoned/leaked paths can be hundreds long).
    pub max_hops: usize,
    /// Whether to enforce conventional prefix-length filters.
    pub enforce_prefix_length: bool,
}

impl Default for SanitizerConfig {
    fn default() -> Self {
        SanitizerConfig { max_hops: 64, enforce_prefix_length: true }
    }
}

/// Running counters of rejected inputs, for observability.
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

    fn count(&mut self, r: RejectReason) {
        match r {
            RejectReason::AsLoop => self.as_loops += 1,
            RejectReason::SpecialPurposeAsn => self.special_asns += 1,
            RejectReason::BogonPrefix => self.bogons += 1,
            RejectReason::UnconventionalPrefixLength => self.bad_lengths += 1,
            RejectReason::EmptyAsPath => self.empty_paths += 1,
            RejectReason::ExcessivePathLength => self.long_paths += 1,
        }
    }
}

/// Stateful sanitizer applying the paper's hygiene rules.
#[derive(Debug, Default, Clone)]
pub struct Sanitizer {
    config: SanitizerConfig,
    stats: SanitizeStats,
}

impl Sanitizer {
    /// Builds a sanitizer with the given configuration.
    pub fn new(config: SanitizerConfig) -> Self {
        Sanitizer { config, stats: SanitizeStats::default() }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SanitizeStats {
        &self.stats
    }

    /// Checks a single announced route (path + prefix). `Ok(())` means keep.
    pub fn check_route(&mut self, path: &AsPath, prefix: &Prefix) -> Result<(), RejectReason> {
        let verdict = self.verdict(path, prefix);
        match verdict {
            Ok(()) => self.stats.accepted += 1,
            Err(r) => self.stats.count(r),
        }
        verdict
    }

    /// Checks a prefix alone (withdrawals carry no path).
    pub fn check_prefix(&mut self, prefix: &Prefix) -> Result<(), RejectReason> {
        let v = self.prefix_verdict(prefix);
        match v {
            Ok(()) => self.stats.accepted += 1,
            Err(r) => self.stats.count(r),
        }
        v
    }

    /// Splits an update into the sanitized update (possibly smaller) or
    /// `None` if nothing survives.
    pub fn sanitize_update(&mut self, update: &BgpUpdate) -> Option<BgpUpdate> {
        let withdrawn: Vec<Prefix> =
            update.withdrawn.iter().filter(|p| self.check_prefix(p).is_ok()).copied().collect();
        let (attrs, announced) = match &update.attrs {
            Some(attrs) => {
                let announced: Vec<Prefix> = update
                    .announced
                    .iter()
                    .filter(|p| self.check_route(&attrs.as_path, p).is_ok())
                    .copied()
                    .collect();
                if announced.is_empty() {
                    (None, Vec::new())
                } else {
                    (Some(attrs.clone()), announced)
                }
            }
            None => (None, Vec::new()),
        };
        let out = BgpUpdate { withdrawn, attrs, announced };
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }

    /// Path-level verdict alone, without touching the counters. `hops`
    /// must be the collapsed hop list of `path` (see
    /// [`AsPath::hops`]); passing it in lets the record-level decoder
    /// check a multi-prefix update's path once and then account per
    /// prefix via [`assess_prefix`](Self::assess_prefix) +
    /// [`tally`](Self::tally), with byte-identical statistics to calling
    /// [`check_route`](Self::check_route) per prefix.
    pub fn path_verdict(&self, path: &AsPath, hops: &[Asn]) -> Result<(), RejectReason> {
        self.path_verdict_parts(path.is_empty(), hops, || path.has_special_purpose_asn())
    }

    /// [`path_verdict`](Self::path_verdict) decomposed for callers that
    /// never materialize an [`AsPath`] (the record decode, which reads the
    /// path from the wire bytes):
    /// `path_is_empty` is whether the raw path carries no ASNs, and
    /// `has_special` is consulted lazily (only when the loop check
    /// passes) to preserve the exact reject-reason precedence — and thus
    /// byte-identical [`SanitizeStats`] — of the materializing path.
    pub fn path_verdict_parts(
        &self,
        path_is_empty: bool,
        hops: &[Asn],
        has_special: impl FnOnce() -> bool,
    ) -> Result<(), RejectReason> {
        if path_is_empty {
            return Err(RejectReason::EmptyAsPath);
        }
        // Collapsed hop lists are short (median 3-5, capped at max_hops);
        // a quadratic slice scan beats hashing every ASN.
        if hops.iter().enumerate().any(|(i, a)| hops[..i].contains(a)) {
            return Err(RejectReason::AsLoop);
        }
        if has_special() {
            return Err(RejectReason::SpecialPurposeAsn);
        }
        if hops.len() > self.config.max_hops {
            return Err(RejectReason::ExcessivePathLength);
        }
        Ok(())
    }

    /// Prefix-level verdict alone, without touching the counters.
    pub fn assess_prefix(&self, prefix: &Prefix) -> Result<(), RejectReason> {
        self.prefix_verdict(prefix)
    }

    /// Applies one verdict to the counters (one accepted/rejected entry,
    /// exactly what [`check_route`](Self::check_route) /
    /// [`check_prefix`](Self::check_prefix) record internally).
    pub fn tally(&mut self, verdict: Result<(), RejectReason>) {
        match verdict {
            Ok(()) => self.stats.accepted += 1,
            Err(r) => self.stats.count(r),
        }
    }

    fn verdict(&self, path: &AsPath, prefix: &Prefix) -> Result<(), RejectReason> {
        self.path_verdict(path, &path.hops())?;
        self.prefix_verdict(prefix)
    }

    fn prefix_verdict(&self, prefix: &Prefix) -> Result<(), RejectReason> {
        if prefix.is_bogon() {
            return Err(RejectReason::BogonPrefix);
        }
        if self.config.enforce_prefix_length && !prefix.is_conventional_size() {
            return Err(RejectReason::UnconventionalPrefixLength);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::PathAttributes;

    fn ok_prefix() -> Prefix {
        Prefix::v4(184, 84, 242, 0, 24)
    }

    #[test]
    fn accepts_clean_route() {
        let mut s = Sanitizer::default();
        let p = AsPath::from_sequence([3356, 13030, 20940]);
        assert!(s.check_route(&p, &ok_prefix()).is_ok());
        assert_eq!(s.stats().accepted, 1);
    }

    #[test]
    fn rejects_loop() {
        let mut s = Sanitizer::default();
        let p = AsPath::from_sequence([3356, 13030, 3356, 20940]);
        assert_eq!(s.check_route(&p, &ok_prefix()), Err(RejectReason::AsLoop));
        assert_eq!(s.stats().as_loops, 1);
    }

    #[test]
    fn rejects_private_asn() {
        let mut s = Sanitizer::default();
        let p = AsPath::from_sequence([3356, 64512, 20940]);
        assert_eq!(s.check_route(&p, &ok_prefix()), Err(RejectReason::SpecialPurposeAsn));
    }

    #[test]
    fn rejects_bogon_and_bad_length() {
        let mut s = Sanitizer::default();
        let p = AsPath::from_sequence([3356, 20940]);
        assert_eq!(s.check_route(&p, &Prefix::v4(10, 0, 0, 0, 16)), Err(RejectReason::BogonPrefix));
        assert_eq!(
            s.check_route(&p, &Prefix::v4(184, 84, 242, 0, 28)),
            Err(RejectReason::UnconventionalPrefixLength)
        );
        let mut lax =
            Sanitizer::new(SanitizerConfig { enforce_prefix_length: false, ..Default::default() });
        assert!(lax.check_route(&p, &Prefix::v4(184, 84, 242, 0, 28)).is_ok());
    }

    #[test]
    fn rejects_empty_and_long_paths() {
        let mut s = Sanitizer::new(SanitizerConfig { max_hops: 4, ..Default::default() });
        assert_eq!(s.check_route(&AsPath::empty(), &ok_prefix()), Err(RejectReason::EmptyAsPath));
        let long = AsPath::from_sequence([1, 2, 3, 4, 5]);
        assert_eq!(s.check_route(&long, &ok_prefix()), Err(RejectReason::ExcessivePathLength));
    }

    #[test]
    fn sanitize_update_filters_partially() {
        let mut s = Sanitizer::default();
        let attrs =
            PathAttributes::with_path_and_communities(AsPath::from_sequence([3356, 20940]), vec![]);
        let upd = BgpUpdate {
            withdrawn: vec![Prefix::v4(10, 0, 0, 0, 16), Prefix::v4(184, 84, 0, 0, 16)],
            attrs: Some(attrs),
            announced: vec![Prefix::v4(192, 168, 0, 0, 16), Prefix::v4(184, 84, 242, 0, 24)],
        };
        let out = s.sanitize_update(&upd).expect("something survives");
        assert_eq!(out.withdrawn, vec![Prefix::v4(184, 84, 0, 0, 16)]);
        assert_eq!(out.announced, vec![Prefix::v4(184, 84, 242, 0, 24)]);
        assert_eq!(s.stats().bogons, 2);
    }

    #[test]
    fn sanitize_update_drops_everything() {
        let mut s = Sanitizer::default();
        let upd = BgpUpdate::withdraw(vec![Prefix::v4(10, 0, 0, 0, 8)]);
        assert!(s.sanitize_update(&upd).is_none());
    }
}
