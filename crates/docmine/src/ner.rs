//! Gazetteer-based named-entity recognition.
//!
//! Substitute for the paper's Stanford NER + Banerjee-style organization
//! matching: entity names come from the colocation map (PeeringDB/Euro-IX
//! equivalents) and the city gazetteer, and recognition is normalized
//! substring/token matching with a facility > IXP > city precedence —
//! facility names usually embed their city ("Telehouse East London"), so
//! the most specific entity type must win.

use kepler_topology::{CityGazetteer, ColocationMap, FacilityId, IxpId};

/// A recognized infrastructure entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entity {
    /// A colocation facility.
    Facility(FacilityId),
    /// An IXP.
    Ixp(IxpId),
    /// A city, as a gazetteer index.
    City(usize),
}

/// Recognizer holding normalized name tables, built once: facility and
/// IXP names padded (`" TELEHOUSE EAST LONDON "`) and sorted longest
/// first, and by gazetteer index each city's normalized name (`"NEW
/// YORK"`), IATA code and alias.
#[derive(Debug, Clone)]
pub struct EntityRecognizer {
    facility_names: Vec<(String, FacilityId)>,
    ixp_names: Vec<(String, IxpId)>,
    cities: Vec<(String, &'static str, &'static str)>,
}

/// `s` upper-cased, each run of characters other than ASCII letters and
/// digits turned into one space, with one space before and after
/// (`" RECEIVED AT LINX "`): a padded name inside a padded line matches
/// whole words only. An `s` without a letter or digit pads to `" "`.
fn padded(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push(' ');
    for word in s.split(|c: char| !c.is_ascii_alphanumeric()).filter(|w| !w.is_empty()) {
        out.push_str(word);
        out.push(' ');
    }
    out.make_ascii_uppercase();
    out
}

/// Padded names of non-empty entities, longest first, so "Telehouse
/// East London" beats "Telehouse".
fn name_table<I>(names: impl Iterator<Item = (String, I)>) -> Vec<(String, I)> {
    let mut table: Vec<(String, I)> = names.filter(|(n, _)| n.len() > 1).collect();
    table.sort_by_key(|(n, _)| std::cmp::Reverse(n.len()));
    table
}

impl EntityRecognizer {
    /// Builds a recognizer from the colocation map's entity names.
    pub fn from_colomap(map: &ColocationMap, gazetteer: &CityGazetteer) -> Self {
        EntityRecognizer {
            facility_names: name_table(map.facilities().iter().map(|f| (padded(&f.name), f.id))),
            ixp_names: name_table(map.ixps().iter().map(|x| (padded(&x.name), x.id))),
            cities: (gazetteer.cities().iter())
                .map(|c| (padded(c.name).trim().to_owned(), c.iata, c.alias))
                .collect(),
        }
    }

    /// Recognizes the most specific entity mentioned in `text`.
    pub fn recognize(&self, text: &str) -> Option<Entity> {
        let line = padded(text);
        if let Some((_, id)) = self.facility_names.iter().find(|(n, _)| line.contains(n.as_str())) {
            return Some(Entity::Facility(*id));
        }
        if let Some((_, id)) = self.ixp_names.iter().find(|(n, _)| line.contains(n.as_str())) {
            return Some(Entity::Ixp(*id));
        }
        self.recognize_city(&line).map(Entity::City)
    }

    /// City recognition over a padded line: bigrams first (multi-word
    /// city names), then single tokens against names, IATA codes and
    /// aliases. Tokens shorter than two characters never match.
    fn recognize_city(&self, line: &str) -> Option<usize> {
        let tokens = || line.split(' ').filter(|t| t.len() >= 2);
        for (first, second) in tokens().zip(tokens().skip(1)) {
            let bigram = Some((first, second));
            if let Some(idx) = self.cities.iter().position(|(n, ..)| n.split_once(' ') == bigram) {
                return Some(idx);
            }
        }
        for t in tokens() {
            let hit = |(name, iata, alias): &(String, &str, &str)| {
                name == t || (t.len() >= 3 && (*iata == t || *alias == t))
            };
            if let Some(idx) = self.cities.iter().position(hit) {
                return Some(idx);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kepler_bgp::Asn;
    use kepler_topology::entities::{CityId, Facility, Ixp};
    use kepler_topology::{Continent, GeoPoint};

    fn test_map() -> (ColocationMap, CityGazetteer) {
        let g = CityGazetteer::new();
        let london = g.geocode("London").unwrap() as u32;
        let mut m = ColocationMap::new();
        m.add_facility(Facility {
            id: FacilityId(0),
            name: "Telehouse East London".into(),
            address: "Coriander Ave".into(),
            postcode: "E142AA".into(),
            country: "GB".into(),
            city: CityId(london),
            continent: Continent::Europe,
            point: GeoPoint::new(51.51, -0.0),
            operator: "Telehouse".into(),
        });
        m.add_ixp(Ixp {
            id: IxpId(0),
            name: "LINX".into(),
            url: "linx.net".into(),
            city: CityId(london),
            continent: Continent::Europe,
            route_server_asn: Some(Asn(8714)),
        });
        (m, g)
    }

    #[test]
    fn facility_beats_city() {
        let (m, g) = test_map();
        let r = EntityRecognizer::from_colomap(&m, &g);
        assert_eq!(
            r.recognize("routes received at Telehouse East London"),
            Some(Entity::Facility(FacilityId(0)))
        );
    }

    #[test]
    fn ixp_beats_city() {
        let (m, g) = test_map();
        let r = EntityRecognizer::from_colomap(&m, &g);
        assert_eq!(
            r.recognize("received from public peer at LINX in London"),
            Some(Entity::Ixp(IxpId(0)))
        );
    }

    #[test]
    fn city_fallback_all_styles() {
        let (m, g) = test_map();
        let r = EntityRecognizer::from_colomap(&m, &g);
        let london = g.geocode("London").unwrap();
        assert_eq!(r.recognize("learned in London"), Some(Entity::City(london)));
        assert_eq!(r.recognize("ingress at LHR"), Some(Entity::City(london)));
        let ny = g.geocode("NYC").unwrap();
        assert_eq!(r.recognize("received at NYC edge"), Some(Entity::City(ny)));
        assert_eq!(r.recognize("received in New York metro"), Some(Entity::City(ny)));
    }

    #[test]
    fn no_entity_means_none() {
        let (m, g) = test_map();
        let r = EntityRecognizer::from_colomap(&m, &g);
        assert_eq!(r.recognize("routes of our customers"), None);
        assert_eq!(r.recognize(""), None);
    }

    #[test]
    fn punctuation_and_case_are_immaterial() {
        let (m, g) = test_map();
        let r = EntityRecognizer::from_colomap(&m, &g);
        assert_eq!(
            r.recognize("-- Received @ TELEHOUSE east,LONDON --"),
            Some(Entity::Facility(FacilityId(0)))
        );
    }
}
