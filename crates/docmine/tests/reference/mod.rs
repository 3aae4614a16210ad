//! Test-side reference for the entity recognizer and the mining loop: the
//! recognizer as it stood before its name tables were built up front,
//! which rebuilt every padded name and normalized every gazetteer city
//! per line. `ner_differential.rs` holds `EntityRecognizer` to it.

use kepler_docmine::corpus::Document;
use kepler_docmine::dictionary::{CommunityDictionary, LocationTag, MiningStats};
use kepler_docmine::extract::{extract_communities, strip_communities};
use kepler_docmine::ner::Entity;
use kepler_docmine::pos::{classify, Voice};
use kepler_topology::{CityGazetteer, CityId, ColocationMap, FacilityId, IxpId};

/// The recognizer's former tables: normalized names, longest first.
pub struct ReferenceRecognizer {
    facility_names: Vec<(String, FacilityId)>,
    ixp_names: Vec<(String, IxpId)>,
    gazetteer: CityGazetteer,
}

fn normalize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_uppercase() } else { ' ' })
        .collect::<String>()
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

impl ReferenceRecognizer {
    pub fn from_colomap(map: &ColocationMap, gazetteer: &CityGazetteer) -> Self {
        let mut facility_names: Vec<(String, FacilityId)> =
            map.facilities().iter().map(|f| (normalize(&f.name), f.id)).collect();
        // Longest names first so "Telehouse East London" beats "Telehouse".
        facility_names.sort_by_key(|(n, _)| std::cmp::Reverse(n.len()));
        let mut ixp_names: Vec<(String, IxpId)> =
            map.ixps().iter().map(|x| (normalize(&x.name), x.id)).collect();
        ixp_names.sort_by_key(|(n, _)| std::cmp::Reverse(n.len()));
        ReferenceRecognizer { facility_names, ixp_names, gazetteer: gazetteer.clone() }
    }

    pub fn recognize(&self, text: &str) -> Option<Entity> {
        let norm = normalize(text);
        if norm.is_empty() {
            return None;
        }
        let padded = format!(" {norm} ");
        for (name, id) in &self.facility_names {
            if !name.is_empty() && padded.contains(&format!(" {name} ")) {
                return Some(Entity::Facility(*id));
            }
        }
        for (name, id) in &self.ixp_names {
            if !name.is_empty() && padded.contains(&format!(" {name} ")) {
                return Some(Entity::Ixp(*id));
            }
        }
        self.recognize_city(&norm).map(Entity::City)
    }

    fn recognize_city(&self, norm: &str) -> Option<usize> {
        let tokens: Vec<&str> = norm.split(' ').filter(|t| t.len() >= 2).collect();
        for w in tokens.windows(2) {
            let bigram = format!("{} {}", w[0], w[1]);
            if let Some(idx) =
                self.gazetteer.cities().iter().position(|c| normalize(c.name) == bigram)
            {
                return Some(idx);
            }
        }
        for t in &tokens {
            if let Some(idx) = self.gazetteer.cities().iter().position(|c| {
                normalize(c.name) == *t || (t.len() >= 3 && (c.iata == *t || c.alias == *t))
            }) {
                return Some(idx);
            }
        }
        None
    }
}

/// `DictionaryMiner::mine`'s loop over the reference recognizer.
pub fn mine(
    recognizer: &ReferenceRecognizer,
    docs: &[Document],
) -> (CommunityDictionary, MiningStats) {
    let mut dict = CommunityDictionary::new();
    let mut stats = MiningStats::default();
    for doc in docs {
        if !doc.asn.is_16bit() {
            continue;
        }
        let doc_asn16 = doc.asn.0 as u16;
        for raw_line in doc.text.lines() {
            let line = raw_line.strip_prefix("remarks:").unwrap_or(raw_line).trim();
            stats.lines += 1;
            let found = extract_communities(line);
            if found.is_empty() {
                continue;
            }
            if classify(line) == Voice::Outbound {
                stats.outbound_dropped += 1;
                continue;
            }
            let Some(entity) = recognizer.recognize(&strip_communities(line)) else {
                stats.unrecognized += 1;
                continue;
            };
            let tag = match entity {
                Entity::Facility(f) => LocationTag::Facility(f),
                Entity::Ixp(x) => LocationTag::Ixp(x),
                Entity::City(idx) => LocationTag::City(CityId(idx as u32)),
            };
            for e in found {
                if e.community.asn16() != doc_asn16 {
                    stats.foreign_asn_dropped += 1;
                    continue;
                }
                dict.insert(e.community, tag);
                stats.admitted += 1;
            }
        }
    }
    (dict, stats)
}
