//! Heterogeneous colocation data sources.
//!
//! Mirrors the paper's inputs: PeeringDB and DataCenterMap publish
//! overlapping but differently-keyed views of the colocation world —
//! facility and IXP *names* differ between sources ("Telehouse East" vs
//! "TELEHOUSE London East"), so records can only be reconciled through
//! stable keys: postal address for facilities, website URL and city for
//! IXPs (§3.3).

use crate::geo::GeoPoint;
use kepler_bgp::Asn;

/// A facility record as one source publishes it.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceFacility {
    /// Source-specific display name.
    pub name: String,
    /// Street address.
    pub address: String,
    /// Postcode (merge key together with country).
    pub postcode: String,
    /// ISO country code (merge key).
    pub country: String,
    /// City name as this source spells it.
    pub city_name: String,
    /// Operator name, possibly empty.
    pub operator: String,
    /// Coordinates if the source provides them.
    pub point: Option<GeoPoint>,
    /// Member ASes this source knows about.
    pub tenants: Vec<Asn>,
}

/// An IXP record as one source publishes it.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceIxp {
    /// Source-specific display name.
    pub name: String,
    /// Website URL (primary merge key).
    pub url: String,
    /// City name as this source spells it.
    pub city_name: String,
    /// Member ASNs this source knows about.
    pub members: Vec<Asn>,
    /// Facilities hosting switch fabric, referenced by `(postcode, country)`.
    pub facility_keys: Vec<(String, String)>,
    /// Route-server ASN if known.
    pub route_server_asn: Option<Asn>,
}

/// One source's complete snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ColoSnapshot {
    /// Human-readable source name ("peeringdb", "datacentermap").
    pub source: String,
    /// Facility records.
    pub facilities: Vec<SourceFacility>,
    /// IXP records.
    pub ixps: Vec<SourceIxp>,
}

impl ColoSnapshot {
    /// An empty snapshot for `source`.
    pub fn new(source: &str) -> Self {
        ColoSnapshot { source: source.to_string(), ..Default::default() }
    }
}

/// Normalizes a postcode for cross-source matching: uppercase, no spaces.
pub fn normalize_postcode(pc: &str) -> String {
    pc.chars().filter(|c| !c.is_whitespace()).collect::<String>().to_ascii_uppercase()
}

/// Normalizes a country code.
pub fn normalize_country(cc: &str) -> String {
    cc.trim().to_ascii_uppercase()
}

/// Normalizes a URL for cross-source matching: lowercase, scheme and
/// trailing slash stripped.
pub fn normalize_url(url: &str) -> String {
    let u = url.trim().to_ascii_lowercase();
    let u = u.strip_prefix("https://").or_else(|| u.strip_prefix("http://")).unwrap_or(&u);
    let u = u.strip_prefix("www.").unwrap_or(u);
    u.trim_end_matches('/').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn postcode_normalization() {
        assert_eq!(normalize_postcode("E14 2AA"), "E142AA");
        assert_eq!(normalize_postcode(" 60314 "), "60314");
    }

    #[test]
    fn url_normalization_unifies_variants() {
        for v in ["https://www.ams-ix.net/", "http://ams-ix.net", "AMS-IX.net/"] {
            assert_eq!(normalize_url(v), "ams-ix.net", "{v}");
        }
    }

    #[test]
    fn country_normalization() {
        assert_eq!(normalize_country(" de "), "DE");
    }
}
