//! Corpus rendering: turns ground-truth schemes into the messy natural-
//! language documentation the miner has to cope with.
//!
//! This is the substitution for the paper's web scraper: instead of
//! fetching IRR `remarks:` blocks and support pages, we *render* them from
//! ground truth through noisy templates. The generated text exhibits the
//! phenomena that make real mining hard: mixed identifier styles, action
//! (outbound) lines sharing the page with location lines, boilerplate
//! chatter, and undocumented operators that simply have no page.

use crate::scheme::{CommunityScheme, DocStyle, SchemeTarget};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One scraped document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// The operator it documents.
    pub asn: kepler_bgp::Asn,
    /// Where it came from.
    pub style: DocStyle,
    /// Raw text, one statement per line.
    pub text: String,
}

const PASSIVE_TEMPLATES: &[&str] = &[
    "{c} - routes received at {w}",
    "{c} routes learned at {w}",
    "{c} - received from public peer at {w}",
    "{c} tagged on ingress at {w}",
    "{c} - prefixes exchanged at {w}",
    "{c} accepted at {w}",
];

const ACTION_TEMPLATES: &[&str] = &[
    "{c} - announce to customers only",
    "{c} do not advertise to peers",
    "{c} - prepend 2x to all peers",
    "{c} blackhole",
    "{c} - set MED to 100",
    "{c} suppress in region",
];

const CHATTER: &[&str] = &[
    "----------------------------------------",
    "For peering requests contact noc@example.net",
    "Scheme subject to change without notice",
    "See our looking glass for details",
];

fn target_phrase(t: &SchemeTarget) -> &str {
    match t {
        SchemeTarget::City { ident, .. } => ident,
        SchemeTarget::Facility { name, .. } => name,
        SchemeTarget::Ixp { name, .. } => name,
    }
}

/// Renders one scheme into a document. Returns `None` for undocumented
/// operators.
pub fn render_scheme(scheme: &CommunityScheme, rng: &mut StdRng) -> Option<Document> {
    if !scheme.documented {
        return None;
    }
    let prefix = match scheme.style {
        DocStyle::IrrRemarks => "remarks: ",
        DocStyle::WebPage => "",
    };
    let mut lines: Vec<String> = Vec::new();
    lines.push(format!("{prefix}AS{} BGP community scheme", scheme.asn.0));
    lines.push(format!("{prefix}{}", CHATTER[0]));
    for entry in &scheme.entries {
        let template = PASSIVE_TEMPLATES.choose(rng).expect("non-empty templates");
        let c = format!("{}:{}", scheme.asn.0, entry.value);
        let line = template.replace("{c}", &c).replace("{w}", target_phrase(&entry.target));
        lines.push(format!("{prefix}{line}"));
        if rng.gen_bool(0.15) {
            lines.push(format!("{prefix}{}", CHATTER.choose(rng).expect("chatter")));
        }
    }
    for value in &scheme.action_values {
        let template = ACTION_TEMPLATES.choose(rng).expect("non-empty templates");
        let c = format!("{}:{}", scheme.asn.0, value);
        lines.push(format!("{prefix}{}", template.replace("{c}", &c)));
    }
    lines.push(format!("{prefix}{}", CHATTER[1]));
    Some(Document { asn: scheme.asn, style: scheme.style, text: lines.join("\n") })
}

/// Renders a full corpus deterministically from `seed`.
pub fn render_corpus(schemes: &[CommunityScheme], seed: u64) -> Vec<Document> {
    let mut rng = StdRng::seed_from_u64(seed);
    schemes.iter().filter_map(|s| render_scheme(s, &mut rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SchemeEntry;
    use kepler_bgp::Asn;
    use kepler_topology::{CityId, FacilityId};

    fn scheme(documented: bool) -> CommunityScheme {
        CommunityScheme {
            asn: Asn(13030),
            entries: vec![
                SchemeEntry {
                    value: 51904,
                    target: SchemeTarget::Facility {
                        name: "Coresite LAX1".into(),
                        id: FacilityId(3),
                    },
                },
                SchemeEntry {
                    value: 100,
                    target: SchemeTarget::City { ident: "NYC".into(), city: CityId(0) },
                },
            ],
            action_values: vec![9003],
            documented,
            style: DocStyle::IrrRemarks,
        }
    }

    #[test]
    fn renders_documented_scheme_with_all_values() {
        let docs = render_corpus(&[scheme(true)], 1);
        assert_eq!(docs.len(), 1);
        let text = &docs[0].text;
        assert!(text.contains("13030:51904"), "{text}");
        assert!(text.contains("Coresite LAX1"));
        assert!(text.contains("13030:100"));
        assert!(text.contains("13030:9003"));
        assert!(text.lines().all(|l| l.starts_with("remarks: ")));
    }

    #[test]
    fn undocumented_schemes_produce_nothing() {
        assert!(render_corpus(&[scheme(false)], 1).is_empty());
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = render_corpus(&[scheme(true)], 42);
        let b = render_corpus(&[scheme(true)], 42);
        assert_eq!(a, b);
        let c = render_corpus(&[scheme(true)], 43);
        // Different seeds usually pick different templates; text may differ.
        // (Not asserting inequality — both must at least parse identically.)
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn webpage_style_has_no_remarks_prefix() {
        let mut s = scheme(true);
        s.style = DocStyle::WebPage;
        let docs = render_corpus(&[s], 7);
        assert!(docs[0].text.lines().all(|l| !l.starts_with("remarks:")));
    }
}
