//! Geography: coordinates, great-circle distances, continents, and the
//! city gazetteer used for geocoding community location identifiers.

use std::fmt;

/// A WGS-84 coordinate pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude in degrees, positive north.
    pub lat: f64,
    /// Longitude in degrees, positive east.
    pub lon: f64,
}

impl GeoPoint {
    /// Builds a point.
    pub fn new(lat: f64, lon: f64) -> Self {
        GeoPoint { lat, lon }
    }

    /// Great-circle distance to `other` in kilometers (haversine).
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        const R: f64 = 6371.0;
        let (la1, la2) = (self.lat.to_radians(), other.lat.to_radians());
        let dlat = (other.lat - self.lat).to_radians();
        let dlon = (other.lon - self.lon).to_radians();
        let a = (dlat / 2.0).sin().powi(2) + la1.cos() * la2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * R * a.sqrt().asin()
    }
}

/// Continental buckets used in the paper's Table 1 and Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Continent {
    /// Europe.
    Europe,
    /// North America.
    NorthAmerica,
    /// Asia and Pacific (incl. Oceania).
    AsiaPacific,
    /// South America.
    SouthAmerica,
    /// Africa.
    Africa,
}

impl Continent {
    /// All buckets in the paper's Table 1 order.
    pub const ALL: [Continent; 5] = [
        Continent::Europe,
        Continent::NorthAmerica,
        Continent::AsiaPacific,
        Continent::SouthAmerica,
        Continent::Africa,
    ];
}

impl fmt::Display for Continent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Continent::Europe => "Europe",
            Continent::NorthAmerica => "North America",
            Continent::AsiaPacific => "Asia/Pacific",
            Continent::SouthAmerica => "South America",
            Continent::Africa => "Africa",
        };
        f.write_str(s)
    }
}

/// One gazetteer city.
#[derive(Debug, Clone, PartialEq)]
pub struct GazetteerCity {
    /// Canonical English name.
    pub name: &'static str,
    /// ISO 3166-1 alpha-2 country code.
    pub country: &'static str,
    /// Continent bucket.
    pub continent: Continent,
    /// IATA airport code commonly used in community documentation.
    pub iata: &'static str,
    /// Common short alias (initials etc.), if any.
    pub alias: &'static str,
    /// Approximate coordinates.
    pub point: GeoPoint,
}

macro_rules! city {
    ($name:literal, $cc:literal, $cont:ident, $iata:literal, $alias:literal, $lat:literal, $lon:literal) => {
        GazetteerCity {
            name: $name,
            country: $cc,
            continent: Continent::$cont,
            iata: $iata,
            alias: $alias,
            point: GeoPoint { lat: $lat, lon: $lon },
        }
    };
}

/// The built-in world cities Kepler's gazetteer knows about. The skew
/// toward Europe and North America mirrors the real interconnection
/// ecosystem (paper: 66% of location communities tag Europe, 24.5% North
/// America, ~2% Africa + South America).
pub const WORLD_CITIES: &[GazetteerCity] = &[
    // Europe
    city!("London", "GB", Europe, "LHR", "LON", 51.5074, -0.1278),
    city!("Amsterdam", "NL", Europe, "AMS", "AMS", 52.3676, 4.9041),
    city!("Frankfurt", "DE", Europe, "FRA", "FRA", 50.1109, 8.6821),
    city!("Paris", "FR", Europe, "CDG", "PAR", 48.8566, 2.3522),
    city!("Madrid", "ES", Europe, "MAD", "MAD", 40.4168, -3.7038),
    city!("Milan", "IT", Europe, "MXP", "MIL", 45.4642, 9.1900),
    city!("Vienna", "AT", Europe, "VIE", "VIE", 48.2082, 16.3738),
    city!("Zurich", "CH", Europe, "ZRH", "ZRH", 47.3769, 8.5417),
    city!("Stockholm", "SE", Europe, "ARN", "STO", 59.3293, 18.0686),
    city!("Copenhagen", "DK", Europe, "CPH", "CPH", 55.6761, 12.5683),
    city!("Warsaw", "PL", Europe, "WAW", "WAW", 52.2297, 21.0122),
    city!("Prague", "CZ", Europe, "PRG", "PRG", 50.0755, 14.4378),
    city!("Dublin", "IE", Europe, "DUB", "DUB", 53.3498, -6.2603),
    city!("Brussels", "BE", Europe, "BRU", "BRU", 50.8503, 4.3517),
    city!("Budapest", "HU", Europe, "BUD", "BUD", 47.4979, 19.0402),
    city!("Bucharest", "RO", Europe, "OTP", "BUH", 44.4268, 26.1025),
    city!("Lisbon", "PT", Europe, "LIS", "LIS", 38.7223, -9.1393),
    city!("Oslo", "NO", Europe, "OSL", "OSL", 59.9139, 10.7522),
    city!("Helsinki", "FI", Europe, "HEL", "HEL", 60.1699, 24.9384),
    city!("Athens", "GR", Europe, "ATH", "ATH", 37.9838, 23.7275),
    city!("Berlin", "DE", Europe, "TXL", "BER", 52.5200, 13.4050),
    city!("Hamburg", "DE", Europe, "HAM", "HAM", 53.5511, 9.9937),
    city!("Munich", "DE", Europe, "MUC", "MUC", 48.1351, 11.5820),
    city!("Dusseldorf", "DE", Europe, "DUS", "DUS", 51.2277, 6.7735),
    city!("Marseille", "FR", Europe, "MRS", "MRS", 43.2965, 5.3698),
    city!("Manchester", "GB", Europe, "MAN", "MAN", 53.4808, -2.2426),
    city!("Geneva", "CH", Europe, "GVA", "GVA", 46.2044, 6.1432),
    city!("Rome", "IT", Europe, "FCO", "ROM", 41.9028, 12.4964),
    city!("Sofia", "BG", Europe, "SOF", "SOF", 42.6977, 23.3219),
    city!("Kyiv", "UA", Europe, "KBP", "IEV", 50.4501, 30.5234),
    city!("Moscow", "RU", Europe, "SVO", "MOW", 55.7558, 37.6173),
    city!("Istanbul", "TR", Europe, "IST", "IST", 41.0082, 28.9784),
    // North America
    city!("New York", "US", NorthAmerica, "JFK", "NYC", 40.7128, -74.0060),
    city!("Ashburn", "US", NorthAmerica, "IAD", "ASH", 39.0438, -77.4874),
    city!("Chicago", "US", NorthAmerica, "ORD", "CHI", 41.8781, -87.6298),
    city!("Dallas", "US", NorthAmerica, "DFW", "DAL", 32.7767, -96.7970),
    city!("Los Angeles", "US", NorthAmerica, "LAX", "LA", 34.0522, -118.2437),
    city!("San Jose", "US", NorthAmerica, "SJC", "SV", 37.3382, -121.8863),
    city!("Seattle", "US", NorthAmerica, "SEA", "SEA", 47.6062, -122.3321),
    city!("Miami", "US", NorthAmerica, "MIA", "MIA", 25.7617, -80.1918),
    city!("Atlanta", "US", NorthAmerica, "ATL", "ATL", 33.7490, -84.3880),
    city!("Toronto", "CA", NorthAmerica, "YYZ", "TOR", 43.6532, -79.3832),
    city!("Montreal", "CA", NorthAmerica, "YUL", "MTL", 45.5017, -73.5673),
    city!("Denver", "US", NorthAmerica, "DEN", "DEN", 39.7392, -104.9903),
    city!("Phoenix", "US", NorthAmerica, "PHX", "PHX", 33.4484, -112.0740),
    city!("Boston", "US", NorthAmerica, "BOS", "BOS", 42.3601, -71.0589),
    city!("Washington", "US", NorthAmerica, "DCA", "DC", 38.9072, -77.0369),
    city!("Palo Alto", "US", NorthAmerica, "PAO", "PA", 37.4419, -122.1430),
    city!("Vancouver", "CA", NorthAmerica, "YVR", "VAN", 49.2827, -123.1207),
    city!("Mexico City", "MX", NorthAmerica, "MEX", "MEX", 19.4326, -99.1332),
    // Asia / Pacific
    city!("Tokyo", "JP", AsiaPacific, "NRT", "TYO", 35.6762, 139.6503),
    city!("Singapore", "SG", AsiaPacific, "SIN", "SIN", 1.3521, 103.8198),
    city!("Hong Kong", "HK", AsiaPacific, "HKG", "HK", 22.3193, 114.1694),
    city!("Seoul", "KR", AsiaPacific, "ICN", "SEL", 37.5665, 126.9780),
    city!("Mumbai", "IN", AsiaPacific, "BOM", "BOM", 19.0760, 72.8777),
    city!("Chennai", "IN", AsiaPacific, "MAA", "MAA", 13.0827, 80.2707),
    city!("Jakarta", "ID", AsiaPacific, "CGK", "JKT", -6.2088, 106.8456),
    city!("Sydney", "AU", AsiaPacific, "SYD", "SYD", -33.8688, 151.2093),
    city!("Auckland", "NZ", AsiaPacific, "AKL", "AKL", -36.8509, 174.7645),
    city!("Taipei", "TW", AsiaPacific, "TPE", "TPE", 25.0330, 121.5654),
    city!("Osaka", "JP", AsiaPacific, "KIX", "OSA", 34.6937, 135.5023),
    city!("Kuala Lumpur", "MY", AsiaPacific, "KUL", "KL", 3.1390, 101.6869),
    city!("Bangkok", "TH", AsiaPacific, "BKK", "BKK", 13.7563, 100.5018),
    city!("Manila", "PH", AsiaPacific, "MNL", "MNL", 14.5995, 120.9842),
    // South America
    city!("Sao Paulo", "BR", SouthAmerica, "GRU", "SAO", -23.5505, -46.6333),
    city!("Buenos Aires", "AR", SouthAmerica, "EZE", "BUE", -34.6037, -58.3816),
    city!("Santiago", "CL", SouthAmerica, "SCL", "SCL", -33.4489, -70.6693),
    city!("Bogota", "CO", SouthAmerica, "BOG", "BOG", 4.7110, -74.0721),
    city!("Lima", "PE", SouthAmerica, "LIM", "LIM", -12.0464, -77.0428),
    city!("Rio de Janeiro", "BR", SouthAmerica, "GIG", "RIO", -22.9068, -43.1729),
    // Africa
    city!("Johannesburg", "ZA", Africa, "JNB", "JNB", -26.2041, 28.0473),
    city!("Cape Town", "ZA", Africa, "CPT", "CPT", -33.9249, 18.4241),
    city!("Nairobi", "KE", Africa, "NBO", "NBO", -1.2921, 36.8219),
    city!("Lagos", "NG", Africa, "LOS", "LOS", 6.5244, 3.3792),
    city!("Cairo", "EG", Africa, "CAI", "CAI", 30.0444, 31.2357),
    city!("Accra", "GH", Africa, "ACC", "ACC", 5.6037, -0.1870),
];

/// Lookup structure over [`WORLD_CITIES`] resolving the identifier styles
/// operators use in community documentation: full names ("New York City"),
/// initials ("NYC"), and IATA codes ("JFK").
#[derive(Debug, Clone)]
pub struct CityGazetteer {
    cities: &'static [GazetteerCity],
}

impl Default for CityGazetteer {
    fn default() -> Self {
        Self::new()
    }
}

impl CityGazetteer {
    /// A gazetteer over the built-in city list.
    pub fn new() -> Self {
        CityGazetteer { cities: WORLD_CITIES }
    }

    /// All cities.
    pub fn cities(&self) -> &'static [GazetteerCity] {
        self.cities
    }

    /// Number of known cities.
    pub fn len(&self) -> usize {
        self.cities.len()
    }

    /// Whether the gazetteer is empty.
    pub fn is_empty(&self) -> bool {
        self.cities.is_empty()
    }

    /// The city at a dense index (used as `CityId` value).
    pub fn by_index(&self, idx: usize) -> Option<&GazetteerCity> {
        self.cities.get(idx)
    }

    /// Geocodes an identifier to a city index — the offline equivalent of
    /// the paper's Google Maps Geocoding API call. Matching is
    /// case-insensitive over name, IATA code, and alias.
    pub fn geocode(&self, ident: &str) -> Option<usize> {
        let norm = ident.trim().to_ascii_uppercase();
        if norm.is_empty() {
            return None;
        }
        self.cities.iter().position(|c| {
            c.name.to_ascii_uppercase() == norm
                || c.iata == norm
                || c.alias == norm
                || norm.starts_with(&c.name.to_ascii_uppercase())
        })
    }

    /// Groups identifiers that geocode within `radius_km` of each other
    /// (paper: 10 km) into location clusters; returns, for each input, the
    /// cluster representative index or `None` when not geocodable.
    pub fn cluster(&self, idents: &[&str], radius_km: f64) -> Vec<Option<usize>> {
        let coded: Vec<Option<usize>> = idents.iter().map(|i| self.geocode(i)).collect();
        let mut representative: Vec<Option<usize>> = vec![None; idents.len()];
        for (i, &ci) in coded.iter().enumerate() {
            let Some(ci) = ci else { continue };
            // Find an earlier identifier whose city is within the radius.
            let mut rep = ci;
            for cj in coded[..i].iter().flatten() {
                let a = &self.cities[ci].point;
                let b = &self.cities[*cj].point;
                if a.distance_km(b) <= radius_km {
                    rep = *cj;
                    break;
                }
            }
            representative[i] = Some(rep);
        }
        representative
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haversine_known_distances() {
        let london = GeoPoint::new(51.5074, -0.1278);
        let amsterdam = GeoPoint::new(52.3676, 4.9041);
        let d = london.distance_km(&amsterdam);
        assert!((d - 358.0).abs() < 15.0, "London-Amsterdam ≈ 358 km, got {d}");
        assert!(london.distance_km(&london) < 1e-9);
    }

    #[test]
    fn gazetteer_has_continental_skew() {
        let g = CityGazetteer::new();
        let eu = g.cities().iter().filter(|c| c.continent == Continent::Europe).count();
        let af = g.cities().iter().filter(|c| c.continent == Continent::Africa).count();
        assert!(eu > 3 * af, "Europe should dominate the gazetteer");
    }

    #[test]
    fn geocode_all_identifier_styles() {
        let g = CityGazetteer::new();
        let ny = g.geocode("New York").unwrap();
        assert_eq!(g.geocode("NYC"), Some(ny));
        assert_eq!(g.geocode("JFK"), Some(ny));
        assert_eq!(g.geocode("new york city"), Some(ny), "prefix match");
        assert_eq!(g.geocode("Atlantis"), None);
        assert_eq!(g.geocode(""), None);
    }

    #[test]
    fn clustering_groups_nearby_identifiers() {
        let g = CityGazetteer::new();
        // Washington DC and Ashburn are ~50km apart: separate at 10km,
        // merged at 100km.
        let tight = g.cluster(&["Washington", "Ashburn"], 10.0);
        assert_ne!(tight[0], tight[1]);
        let loose = g.cluster(&["Washington", "Ashburn"], 100.0);
        assert_eq!(loose[0], loose[1]);
        // Same city under two identifiers is always merged.
        let same = g.cluster(&["NYC", "JFK"], 10.0);
        assert_eq!(same[0], same[1]);
        assert_eq!(g.cluster(&["Nowhere"], 10.0), vec![None]);
    }
}
