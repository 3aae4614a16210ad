//! Cross-epoch dictionary comparison.
//!
//! Paper §3.2 ("Attrition of BGP Communities"): of the 2,980 communities in
//! Donnet & Bonaventure's 2008 dictionary only 552 were still visible in
//! 2016, only 471 appear in Kepler's dictionary, and just 7 (1.5%) of the
//! shared values changed meaning in a decade — community semantics are
//! stable, but the population churns, which is why the dictionary is
//! re-mined every two weeks.

use crate::dictionary::CommunityDictionary;
use kepler_bgp::Community;

/// Comparison of two dictionaries mined at different times.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttritionReport {
    /// Entries in the old dictionary.
    pub old_size: usize,
    /// Entries in the new dictionary.
    pub new_size: usize,
    /// Communities present in both.
    pub shared: usize,
    /// Shared communities whose location meaning changed.
    pub changed_meaning: usize,
    /// Communities only in the old dictionary (retired values).
    pub retired: usize,
    /// Communities only in the new dictionary (newly adopted values).
    pub adopted: usize,
}

impl AttritionReport {
    /// Fraction of shared values that changed meaning (paper: 1.5%).
    pub fn meaning_change_rate(&self) -> f64 {
        if self.shared == 0 {
            return 0.0;
        }
        self.changed_meaning as f64 / self.shared as f64
    }

    /// Fraction of the old dictionary that survived into the new one.
    pub fn survival_rate(&self) -> f64 {
        if self.old_size == 0 {
            return 0.0;
        }
        self.shared as f64 / self.old_size as f64
    }
}

/// Compares `old` and `new` dictionaries.
pub fn compare(old: &CommunityDictionary, new: &CommunityDictionary) -> AttritionReport {
    let mut report =
        AttritionReport { old_size: old.len(), new_size: new.len(), ..Default::default() };
    let old_set: std::collections::HashMap<Community, _> =
        old.entries().map(|e| (e.community, e.tag)).collect();
    for entry in new.entries() {
        match old_set.get(&entry.community) {
            Some(old_tag) => {
                report.shared += 1;
                if *old_tag != entry.tag {
                    report.changed_meaning += 1;
                }
            }
            None => report.adopted += 1,
        }
    }
    report.retired = report.old_size - report.shared;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::LocationTag;
    use kepler_topology::{CityId, FacilityId};

    fn dict(entries: &[(u16, u16, LocationTag)]) -> CommunityDictionary {
        let mut d = CommunityDictionary::new();
        for (a, v, t) in entries {
            d.insert(Community::new(*a, *v), *t);
        }
        d
    }

    #[test]
    fn full_comparison() {
        let old = dict(&[
            (1, 10, LocationTag::City(CityId(0))),
            (1, 20, LocationTag::City(CityId(1))),
            (2, 30, LocationTag::Facility(FacilityId(0))),
        ]);
        let new = dict(&[
            (1, 10, LocationTag::City(CityId(0))),         // survivor
            (1, 20, LocationTag::Facility(FacilityId(9))), // meaning change
            (3, 40, LocationTag::City(CityId(2))),         // adopted
        ]);
        let r = compare(&old, &new);
        assert_eq!(r.old_size, 3);
        assert_eq!(r.new_size, 3);
        assert_eq!(r.shared, 2);
        assert_eq!(r.changed_meaning, 1);
        assert_eq!(r.retired, 1);
        assert_eq!(r.adopted, 1);
        assert!((r.meaning_change_rate() - 0.5).abs() < 1e-9);
        assert!((r.survival_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_dictionaries() {
        let r = compare(&CommunityDictionary::new(), &CommunityDictionary::new());
        assert_eq!(r, AttritionReport::default());
        assert_eq!(r.meaning_change_rate(), 0.0);
        assert_eq!(r.survival_rate(), 0.0);
    }
}
