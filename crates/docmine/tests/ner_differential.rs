//! The entity recognizer, whose name tables are built once, against the
//! test-side reference that rebuilt them per line (`reference/`): the same
//! entity for every generated line, and the same dictionary and mining
//! counters over a scenario's whole corpus.

mod reference;

use kepler_docmine::corpus::render_corpus;
use kepler_docmine::dictionary::DictionaryMiner;
use kepler_docmine::ner::EntityRecognizer;
use kepler_netsim::scenario::amsix::AmsIxScenario;
use kepler_topology::{
    CityGazetteer, CityId, ColocationMap, Continent, Facility, FacilityId, GeoPoint, Ixp, IxpId,
};
use proptest::prelude::*;
use reference::ReferenceRecognizer;

/// Facility names: word prefixes of one another ("Telehouse" / "Telehouse
/// East" / "Telehouse East London"), names embedding a one- or two-word
/// city or an IATA code, and names embedding an IXP name.
const FACILITIES: &[&str] = &[
    "Telehouse",
    "Telehouse East",
    "Telehouse East London",
    "Equinix NY9 New York",
    "Equinix LA1 Los Angeles",
    "CoreSite SV1 San Jose",
    "AMS-IX Science Park",
    "NYIIX Telx New York",
    "Digital Realty FRA",
    "Interxion LA",
];

/// IXP names, two of them inside facility names above.
const IXPS: &[&str] = &["AMS-IX", "LINX", "DE-CIX Frankfurt", "NYIIX", "Any2 Los Angeles", "SIX"];

const FILLER: &[&str] = &["received", "at", "from", "routes", "learned", "in", "peer", "the", "a"];
const NOISE: &[&str] = &["--", "@", ",", "/", "(", ")", ".", ":", "#"];
const SEPARATORS: &[&str] = &[" ", " ", " ", ", ", " - ", "/", "  ", "", "."];

/// A map holding `names[i]` as a facility (or IXP) wherever `present[i]`,
/// inserted in the order of `keys` so ids and ties fall differently per
/// case.
fn colomap(
    facilities: &[String],
    ixps: &[String],
    present: &[bool],
    keys: &[u32],
) -> ColocationMap {
    let mut order: Vec<usize> = (0..facilities.len() + ixps.len()).collect();
    order.sort_by_key(|&i| keys[i % keys.len()]);
    let mut map = ColocationMap::new();
    for i in order.into_iter().filter(|&i| present[i % present.len()]) {
        let (city, continent, point) = (CityId(0), Continent::Europe, GeoPoint::new(0.0, 0.0));
        if let Some(name) = facilities.get(i) {
            let id = FacilityId(map.facilities().len() as u32);
            map.add_facility(Facility {
                id,
                name: name.clone(),
                address: String::new(),
                postcode: format!("P{i}"),
                country: "GB".into(),
                city,
                continent,
                point,
                operator: String::new(),
            });
        } else {
            let id = IxpId(map.ixps().len() as u32);
            let name = ixps[i - facilities.len()].clone();
            let url = format!("ixp{i}.net");
            map.add_ixp(Ixp { id, name, url, city, continent, route_server_asn: None });
        }
    }
    map
}

/// Renders one generated piece of a line: `kind` picks what it is,
/// `pick` which one, `case` its case noise.
fn piece(kind: usize, pick: usize, case: usize, names: &[String], ixps: &[String]) -> String {
    let cities = CityGazetteer::new().cities();
    let city = &cities[pick % cities.len()];
    let two_word: Vec<(&str, &str)> =
        cities.iter().filter_map(|c| c.name.split_once(' ')).collect();
    let (first, second) = two_word[pick % two_word.len()];
    let text = match kind {
        0 => names[pick % names.len()].clone(),
        1 => ixps[pick % ixps.len()].clone(),
        2 => city.name.to_owned(),
        3 => city.iata.to_owned(),
        4 => [city.alias, "LA", "SV"][pick % 3].to_owned(),
        // A one-letter token inside a two-word city.
        5 => format!("{first} {} {second}", (b'a' + (pick % 26) as u8) as char),
        6 => ((b'A' + (pick % 26) as u8) as char).to_string(),
        7 => format!("{}:{}", 1 + pick % 65_000, pick % 3_000),
        8 => FILLER[pick % FILLER.len()].to_owned(),
        9 => NOISE[pick % NOISE.len()].to_owned(),
        // The first word of a two-word city alone ("Los" is Lagos's alias).
        _ => first.to_owned(),
    };
    match case {
        0 => text,
        1 => text.to_lowercase(),
        2 => text.to_uppercase(),
        _ => (text.chars().enumerate())
            .map(|(i, c)| if i % 2 == 0 { c.to_ascii_lowercase() } else { c.to_ascii_uppercase() })
            .collect(),
    }
}

proptest! {
    /// On generated maps and lines, the built-once recognizer names the
    /// reference's entity: facility, then IXP, then city bigram, then
    /// token; longest name first; aliases and codes of three letters only.
    #[test]
    fn recognize_is_the_reference(
        generated in prop::collection::vec(("[A-Z][a-z]{0,6}", 0usize..76, 0usize..3), 0..4),
        present in prop::collection::vec(prop::sample::select(vec![true, true, true, false]), 8..24),
        keys in prop::collection::vec(any::<u32>(), 8..24),
        lines in prop::collection::vec(
            prop::collection::vec((0usize..11, any::<u16>(), 0usize..4, 0usize..9), 1..7),
            1..8,
        ),
    ) {
        let gazetteer = CityGazetteer::new();
        let cities = gazetteer.cities();
        let mut names: Vec<String> = FACILITIES.iter().map(|s| s.to_string()).collect();
        let mut ixps: Vec<String> = IXPS.iter().map(|s| s.to_string()).collect();
        for (word, city, style) in &generated {
            let c = &cities[*city % cities.len()];
            match style {
                0 => names.push(format!("{word} {}", c.name)),
                1 => names.push(format!("{word} {}{}", c.iata, city % 10)),
                _ => ixps.push(format!("{word}-IX {}", c.name)),
            }
        }
        let map = colomap(&names, &ixps, &present, &keys);
        let fast = EntityRecognizer::from_colomap(&map, &gazetteer);
        let slow = ReferenceRecognizer::from_colomap(&map, &gazetteer);
        for pieces in &lines {
            let mut line = String::new();
            for &(kind, pick, case, sep) in pieces {
                line.push_str(&piece(kind, pick as usize, case, &names, &ixps));
                line.push_str(SEPARATORS[sep]);
            }
            prop_assert_eq!(fast.recognize(&line), slow.recognize(&line), "{:?}", line);
        }
    }
}

/// The AMS-IX study's corpus, mined with either recognizer: the same
/// dictionary and the same counters.
#[test]
fn amsix_corpus_mines_as_the_reference() {
    let scenario = AmsIxScenario::new(41).build().scenario;
    let (world, colo) = (&scenario.world, scenario.detector_colo());
    let corpus = render_corpus(&world.schemes, scenario.seed ^ 0xD1C7);
    let (dict, stats) = DictionaryMiner::new(&colo, &world.gazetteer).mine(&corpus);
    let reference = ReferenceRecognizer::from_colomap(&colo, &world.gazetteer);
    let (want, want_stats) = reference::mine(&reference, &corpus);
    assert_eq!(stats, want_stats);
    assert!(stats.admitted > 100 && stats.unrecognized > 0, "{stats:?}");
    let sorted = |d: &kepler_docmine::CommunityDictionary| {
        let mut e: Vec<_> = d.entries().map(|e| (e.community, e.tag)).collect();
        e.sort();
        e
    };
    assert_eq!(sorted(&dict), sorted(&want));
}
