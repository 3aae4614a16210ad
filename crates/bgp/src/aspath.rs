//! AS paths with SEQUENCE/SET segments (RFC 4271 §4.3, path attribute
//! `AS_PATH`), including the prepending semantics Kepler's sanitization
//! and path-comparison logic rely on.

use crate::asn::Asn;
use std::fmt;

/// One AS_PATH segment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AsPathSegment {
    /// An ordered sequence of traversed ASNs (`AS_SEQUENCE`).
    Sequence(Vec<Asn>),
    /// An unordered set, produced by route aggregation (`AS_SET`).
    Set(Vec<Asn>),
}

impl AsPathSegment {
    fn asns(&self) -> &[Asn] {
        match self {
            AsPathSegment::Sequence(v) | AsPathSegment::Set(v) => v,
        }
    }

    /// RFC 4271 path-length contribution: each sequence member counts 1,
    /// a whole set counts 1.
    fn hop_len(&self) -> usize {
        match self {
            AsPathSegment::Sequence(v) => v.len(),
            AsPathSegment::Set(v) => usize::from(!v.is_empty()),
        }
    }
}

/// A full AS path.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AsPath {
    segments: Vec<AsPathSegment>,
}

impl AsPath {
    /// An empty path (locally originated route).
    pub fn empty() -> Self {
        AsPath { segments: Vec::new() }
    }

    /// Builds a pure-sequence path from `asns`, first element nearest to the
    /// vantage point, last element the origin.
    pub fn from_sequence<I: IntoIterator<Item = u32>>(asns: I) -> Self {
        let seq: Vec<Asn> = asns.into_iter().map(Asn).collect();
        if seq.is_empty() {
            Self::empty()
        } else {
            AsPath { segments: vec![AsPathSegment::Sequence(seq)] }
        }
    }

    /// Builds a path from explicit segments.
    pub fn from_segments(segments: Vec<AsPathSegment>) -> Self {
        AsPath { segments }
    }

    /// The raw segments.
    pub fn segments(&self) -> &[AsPathSegment] {
        &self.segments
    }

    /// Iterates every ASN in order of appearance (sets flattened in place).
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.segments.iter().flat_map(|s| s.asns().iter().copied())
    }

    /// The ASNs with consecutive duplicates (prepending) collapsed —
    /// the "hops" Kepler matches community tags against.
    pub fn hops(&self) -> Vec<Asn> {
        let mut out: Vec<Asn> = Vec::new();
        self.hops_into(&mut out);
        out
    }

    /// [`hops`](Self::hops) into a caller-provided buffer (cleared first),
    /// so the record-level decoder pays no per-record allocation.
    pub fn hops_into(&self, out: &mut Vec<Asn>) {
        out.clear();
        for asn in self.asns() {
            if out.last() != Some(&asn) {
                out.push(asn);
            }
        }
    }

    /// The origin AS (last ASN), if the path is non-empty and ends in a
    /// sequence. Paths ending in an AS_SET have ambiguous origins.
    pub fn origin(&self) -> Option<Asn> {
        match self.segments.last()? {
            AsPathSegment::Sequence(v) => v.last().copied(),
            AsPathSegment::Set(_) => None,
        }
    }

    /// The first (nearest) ASN — the collector peer's neighbor.
    pub fn head(&self) -> Option<Asn> {
        self.asns().next()
    }

    /// RFC 4271 path length used in best-path selection.
    pub fn path_len(&self) -> usize {
        self.segments.iter().map(|s| s.hop_len()).sum()
    }

    /// Whether the path is empty.
    pub fn is_empty(&self) -> bool {
        self.segments.iter().all(|s| s.asns().is_empty())
    }

    /// Whether `asn` appears anywhere in the path.
    pub fn contains(&self, asn: Asn) -> bool {
        self.asns().any(|a| a == asn)
    }

    /// Prepends `asn` `count` times (what an AS does when exporting).
    pub fn prepend(&mut self, asn: Asn, count: usize) {
        if count == 0 {
            return;
        }
        match self.segments.first_mut() {
            Some(AsPathSegment::Sequence(v)) => {
                for _ in 0..count {
                    v.insert(0, asn);
                }
            }
            _ => {
                self.segments.insert(0, AsPathSegment::Sequence(vec![asn; count]));
            }
        }
    }

    /// Returns the neighbor pairs `(near, far)` along the collapsed path,
    /// ordered from the vantage point toward the origin. These are the AS
    /// links whose physical instantiation Kepler localizes.
    pub fn links(&self) -> Vec<(Asn, Asn)> {
        self.hops().windows(2).map(|w| (w[0], w[1])).collect()
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for seg in &self.segments {
            match seg {
                AsPathSegment::Sequence(v) => {
                    for a in v {
                        if !first {
                            write!(f, " ")?;
                        }
                        write!(f, "{}", a.0)?;
                        first = false;
                    }
                }
                AsPathSegment::Set(v) => {
                    if !first {
                        write!(f, " ")?;
                    }
                    write!(f, "{{")?;
                    for (i, a) in v.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{}", a.0)?;
                    }
                    write!(f, "}}")?;
                    first = false;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_basics() {
        let p = AsPath::from_sequence([3356, 13030, 20940]);
        assert_eq!(p.origin(), Some(Asn(20940)));
        assert_eq!(p.head(), Some(Asn(3356)));
        assert_eq!(p.path_len(), 3);
        assert!(p.contains(Asn(13030)));
        assert!(!p.contains(Asn(1)));
    }

    #[test]
    fn hops_collapse_prepending() {
        let p = AsPath::from_sequence([3356, 13030, 13030, 13030, 20940]);
        assert_eq!(p.hops(), vec![Asn(3356), Asn(13030), Asn(20940)]);
    }

    #[test]
    fn set_counts_one_hop() {
        let p = AsPath::from_segments(vec![
            AsPathSegment::Sequence(vec![Asn(3356), Asn(174)]),
            AsPathSegment::Set(vec![Asn(20940), Asn(16509)]),
        ]);
        assert_eq!(p.path_len(), 3);
        assert_eq!(p.origin(), None);
        assert_eq!(p.to_string(), "3356 174 {20940,16509}");
    }

    #[test]
    fn prepend_front() {
        let mut p = AsPath::from_sequence([13030, 20940]);
        p.prepend(Asn(3356), 2);
        assert_eq!(p.to_string(), "3356 3356 13030 20940");
        assert_eq!(p.path_len(), 4);
    }

    #[test]
    fn prepend_onto_empty() {
        let mut p = AsPath::empty();
        p.prepend(Asn(3356), 1);
        assert_eq!(p.to_string(), "3356");
    }

    #[test]
    fn links_are_adjacent_hop_pairs() {
        let p = AsPath::from_sequence([1, 2, 2, 3]);
        assert_eq!(p.links(), vec![(Asn(1), Asn(2)), (Asn(2), Asn(3))]);
    }
}
