//! Hand-rolled binary codec for the durable incident store.
//!
//! crates.io is unavailable in this build environment, so there is no
//! serialisation framework to lean on: WAL frames and snapshots are
//! encoded with an explicit little-endian byte codec. The format is
//! deterministic — equal [`TrackerState`]s encode to equal bytes — which
//! is what makes "bit-identical recovery" checkable at the byte level.
//!
//! Every type that travels has exactly one layout, declared by its
//! [`Wire`] impl: integers are little-endian, every container is
//! length-prefixed (`u32`), every enum starts with a `u8` discriminant,
//! floats travel as IEEE-754 bit patterns, and a struct is its fields in
//! the order its `wire_struct!` line lists them. Decoding is total and
//! canonical: corrupt input yields [`CodecError`], never a panic, and
//! bytes that decode re-encode to themselves. The composite frame
//! integrity check (length + CRC-32) lives in [`crate::wal`]; this module
//! is only the payload encoding.

use kepler_bgp::{Asn, Prefix};
use kepler_bgpstream::{CollectorId, PeerId};
use kepler_core::events::{IncidentState, OutageReport, OutageScope, RouteKey, ValidationStatus};
use kepler_core::signal::{SignalKind, SourceContribution};
use kepler_core::tracker::{Incident, TrackerState};
use kepler_docmine::LocationTag;
use kepler_probe::{HopEvidence, PostState};
use kepler_topology::{CityId, FacilityId, IxpId};
use std::collections::BTreeSet;
use std::net::IpAddr;

/// A decoding failure: the input bytes do not describe a valid value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// What the decoder was reading when it failed.
    pub context: &'static str,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt record while decoding {}", self.context)
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for std::io::Error {
    fn from(e: CodecError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

fn corrupt(context: &'static str) -> CodecError {
    CodecError { context }
}

/// Byte reader over a borrowed slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
}

impl Dec<'_> {
    fn take<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], CodecError> {
        let (head, rest) = self.buf.split_first_chunk::<N>().ok_or(corrupt(context))?;
        self.buf = rest;
        Ok(*head)
    }

    /// Reads a container length, bounded by the bytes remaining so a
    /// corrupt length cannot trigger a huge allocation.
    fn len(&mut self) -> Result<usize, CodecError> {
        let n = u32::dec(self)? as usize;
        if n > self.buf.len() {
            return Err(corrupt("container length"));
        }
        Ok(n)
    }
}

/// The one wire layout of a type: how it is appended to a record and how
/// it is read back.
pub trait Wire: Sized {
    /// Appends `self` to `out`.
    fn enc(&self, out: &mut Vec<u8>);

    /// Reads one value off the front of `d`.
    fn dec(d: &mut Dec) -> Result<Self, CodecError>;

    /// `self` as a standalone record.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.enc(&mut out);
        out
    }

    /// Decodes a standalone record. Bytes left over after the value are
    /// corruption too.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut d = Dec { buf: bytes };
        let value = Self::dec(&mut d)?;
        if !d.buf.is_empty() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(value)
    }
}

// --- primitives and containers ---------------------------------------------

macro_rules! wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn enc(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn dec(d: &mut Dec) -> Result<Self, CodecError> {
                Ok(<$t>::from_le_bytes(d.take(stringify!($t))?))
            }
        }
    )*};
}
wire_le!(u8, u16, u32, u64);

/// `usize` travels as `u64`.
impl Wire for usize {
    fn enc(&self, out: &mut Vec<u8>) {
        (*self as u64).enc(out);
    }
    fn dec(d: &mut Dec) -> Result<Self, CodecError> {
        usize::try_from(u64::dec(d)?).map_err(|_| corrupt("usize"))
    }
}

/// `f64` travels as its IEEE-754 bit pattern (bit-exact round trip,
/// including negative zero).
impl Wire for f64 {
    fn enc(&self, out: &mut Vec<u8>) {
        self.to_bits().enc(out);
    }
    fn dec(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(f64::from_bits(u64::dec(d)?))
    }
}

impl Wire for bool {
    fn enc(&self, out: &mut Vec<u8>) {
        (*self as u8).enc(out);
    }
    fn dec(d: &mut Dec) -> Result<Self, CodecError> {
        match u8::dec(d)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(corrupt("bool")),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    fn enc(&self, out: &mut Vec<u8>) {
        self.is_some().enc(out);
        if let Some(v) = self {
            v.enc(out);
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(if bool::dec(d)? { Some(T::dec(d)?) } else { None })
    }
}

/// Appends a length-prefixed sequence (`u32` length; the store never
/// holds more than 4G elements in one record).
fn enc_seq<'a, T: Wire + 'a>(items: impl ExactSizeIterator<Item = &'a T>, out: &mut Vec<u8>) {
    u32::try_from(items.len()).expect("container too large for record").enc(out);
    items.for_each(|v| v.enc(out));
}

impl<T: Wire> Wire for Vec<T> {
    fn enc(&self, out: &mut Vec<u8>) {
        enc_seq(self.iter(), out);
    }
    fn dec(d: &mut Dec) -> Result<Self, CodecError> {
        (0..d.len()?).map(|_| T::dec(d)).collect()
    }
}

/// A set travels as its elements in ascending order; any other order (or
/// a repeat) is not something the encoder writes.
impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn enc(&self, out: &mut Vec<u8>) {
        enc_seq(self.iter(), out);
    }
    fn dec(d: &mut Dec) -> Result<Self, CodecError> {
        let mut set = BTreeSet::new();
        for _ in 0..d.len()? {
            let v = T::dec(d)?;
            if set.last().is_some_and(|last| *last >= v) {
                return Err(corrupt("set order"));
            }
            set.insert(v);
        }
        Ok(set)
    }
}

macro_rules! wire_tuple {
    ($($t:ident . $i:tt),*) => {
        impl<$($t: Wire),*> Wire for ($($t,)*) {
            fn enc(&self, out: &mut Vec<u8>) {
                $(self.$i.enc(out);)*
            }
            fn dec(d: &mut Dec) -> Result<Self, CodecError> {
                Ok(($($t::dec(d)?,)*))
            }
        }
    };
}
// The watch crossing (route, PoP tag, near AS) and the cooling entry
// (scope, closed report, accumulated duration).
wire_tuple!(A.0, B.1, C.2);
// The warming entry (scope, streak, last bin, first bin).
wire_tuple!(A.0, B.1, C.2, D.3);

/// Declares a struct's layout: the listed fields, in this order.
macro_rules! wire_struct {
    ($t:ident { $($f:ident),* $(,)? }) => {
        impl $crate::codec::Wire for $t {
            fn enc(&self, out: &mut Vec<u8>) {
                $($crate::codec::Wire::enc(&self.$f, out);)*
            }
            fn dec(d: &mut $crate::codec::Dec) -> Result<Self, $crate::codec::CodecError> {
                Ok($t { $($f: $crate::codec::Wire::dec(d)?),* })
            }
        }
    };
}
pub(crate) use wire_struct;

/// Declares a one-field tuple struct as its field.
macro_rules! wire_newtype {
    ($($t:ident),*) => {$(
        impl Wire for $t {
            fn enc(&self, out: &mut Vec<u8>) {
                self.0.enc(out);
            }
            fn dec(d: &mut Dec) -> Result<Self, CodecError> {
                Ok($t(Wire::dec(d)?))
            }
        }
    )*};
}

/// Declares a field-less enum as a `u8` tag.
macro_rules! wire_enum {
    ($t:ident { $($tag:literal => $v:ident),* $(,)? }) => {
        impl Wire for $t {
            fn enc(&self, out: &mut Vec<u8>) {
                let tag: u8 = match self {
                    $($t::$v => $tag,)*
                };
                tag.enc(out);
            }
            fn dec(d: &mut Dec) -> Result<Self, CodecError> {
                match u8::dec(d)? {
                    $($tag => Ok($t::$v),)*
                    _ => Err(corrupt(stringify!($t))),
                }
            }
        }
    };
}

/// Declares an enum whose every variant wraps a `u32` id as a `u8` tag
/// and the id.
macro_rules! wire_id_enum {
    ($t:ident { $($tag:literal => $v:ident($id:ident)),* $(,)? }) => {
        impl Wire for $t {
            fn enc(&self, out: &mut Vec<u8>) {
                let (tag, id): (u8, u32) = match *self {
                    $($t::$v(v) => ($tag, v.0),)*
                };
                tag.enc(out);
                id.enc(out);
            }
            fn dec(d: &mut Dec) -> Result<Self, CodecError> {
                match (u8::dec(d)?, u32::dec(d)?) {
                    $(($tag, id) => Ok($t::$v($id(id))),)*
                    _ => Err(corrupt(stringify!($t))),
                }
            }
        }
    };
}

// --- domain types ------------------------------------------------------------

wire_newtype!(Asn, CollectorId, FacilityId);
wire_id_enum!(OutageScope { 0 => Facility(FacilityId), 1 => Ixp(IxpId), 2 => City(CityId) });
wire_id_enum!(LocationTag { 0 => City(CityId), 1 => Facility(FacilityId), 2 => Ixp(IxpId) });
wire_enum!(ValidationStatus { 0 => Unvalidated, 1 => Confirmed, 2 => Refuted, 3 => Inconclusive });
wire_enum!(IncidentState { 0 => Open, 1 => Recovering, 2 => Closed });

impl Wire for SignalKind {
    fn enc(&self, out: &mut Vec<u8>) {
        self.tag().enc(out);
    }
    fn dec(d: &mut Dec) -> Result<Self, CodecError> {
        SignalKind::from_tag(u8::dec(d)?).ok_or(corrupt("SignalKind"))
    }
}

/// Family byte (4 or 6), then the address octets.
impl Wire for IpAddr {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            IpAddr::V4(v4) => {
                4u8.enc(out);
                out.extend_from_slice(&v4.octets());
            }
            IpAddr::V6(v6) => {
                6u8.enc(out);
                out.extend_from_slice(&v6.octets());
            }
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, CodecError> {
        match u8::dec(d)? {
            4 => Ok(IpAddr::from(d.take::<4>("ipv4")?)),
            6 => Ok(IpAddr::from(d.take::<16>("ipv6")?)),
            _ => Err(corrupt("ip family")),
        }
    }
}

/// Network address, then length. A prefix is stored with its host bits
/// zeroed, so an address with any of them set is not one the encoder
/// wrote.
impl Wire for Prefix {
    fn enc(&self, out: &mut Vec<u8>) {
        self.addr().enc(out);
        self.len().enc(out);
    }
    fn dec(d: &mut Dec) -> Result<Self, CodecError> {
        let addr = IpAddr::dec(d)?;
        match Prefix::new(addr, u8::dec(d)?) {
            Ok(p) if p.addr() == addr => Ok(p),
            _ => Err(corrupt("prefix")),
        }
    }
}

/// Tag byte, then the hop word — zero unless the path still crosses.
impl Wire for PostState {
    fn enc(&self, out: &mut Vec<u8>) {
        let (tag, hop) = match *self {
            PostState::StillCrossing { hop } => (0u8, hop),
            PostState::Detoured => (1, 0),
            PostState::Unreachable => (2, 0),
        };
        tag.enc(out);
        hop.enc(out);
    }
    fn dec(d: &mut Dec) -> Result<Self, CodecError> {
        match (u8::dec(d)?, u32::dec(d)?) {
            (0, hop) => Ok(PostState::StillCrossing { hop }),
            (1, 0) => Ok(PostState::Detoured),
            (2, 0) => Ok(PostState::Unreachable),
            _ => Err(corrupt("PostState")),
        }
    }
}

wire_struct!(PeerId { asn, addr });
wire_struct!(RouteKey { collector, peer, prefix });
wire_struct!(HopEvidence { vantage, target, facility, pre_hop, post });
wire_struct!(SourceContribution { kind, confidence, first_bin });

// The store's `outages` row.
wire_struct!(OutageReport {
    scope,
    start,
    end,
    affected_near,
    affected_far,
    affected_paths,
    oscillations,
    dataplane_confirmed,
    validation,
    probe_evidence,
    probe_completeness,
    state,
    sources,
});

// The store's `degraded_events` row shape (vigil): the live incident with
// all lifecycle clocks.
wire_struct!(Incident {
    scope,
    started,
    prior_duration,
    segment_start,
    oscillations,
    affected_near,
    affected_far,
    affected_keys,
    watch,
    dataplane_confirmed,
    validation,
    evidence,
    completeness,
    confidence,
    confidence_at,
    next_probe,
    probe_backoff,
    probe_restored_at,
    restored_streak,
    restored_first,
    sources,
});

// The snapshot body.
wire_struct!(TrackerState { ongoing, cooling, warming, finished });

// --- CRC-32 ---------------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) over `bytes`,
/// sliced by 8: each 8-byte word costs eight table lookups instead of
/// eight dependent bytewise steps; the tail goes bytewise.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// `CRC_TABLES[0]` is the bytewise table; `CRC_TABLES[k][b]` is what byte
/// `b` contributes once `k` more zero bytes have been folded in after it.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn key(i: u8) -> RouteKey {
        RouteKey {
            collector: CollectorId(i as u16),
            peer: PeerId { asn: Asn(100 + i as u32), addr: "10.0.0.9".parse().unwrap() },
            prefix: Prefix::v4(10, i, 0, 0, 24),
        }
    }

    fn evidence(v: u32) -> HopEvidence {
        HopEvidence {
            vantage: Asn(v),
            target: Asn(20),
            facility: FacilityId(1),
            pre_hop: 3,
            post: PostState::StillCrossing { hop: 5 },
        }
    }

    fn sample_report() -> OutageReport {
        OutageReport {
            scope: OutageScope::City(CityId(3)),
            start: 1_000,
            end: Some(2_000),
            affected_near: [Asn(5), Asn(6)].into(),
            affected_far: [Asn(7)].into(),
            affected_paths: 9,
            oscillations: 2,
            dataplane_confirmed: Some(true),
            validation: ValidationStatus::Confirmed,
            probe_evidence: vec![evidence(900)],
            probe_completeness: 0.75,
            state: IncidentState::Closed,
            sources: vec![
                SourceContribution {
                    kind: SignalKind::Deviation,
                    confidence: 1.0,
                    first_bin: 1_000,
                },
                SourceContribution {
                    kind: SignalKind::Forecast,
                    confidence: 0.625,
                    first_bin: 940,
                },
            ],
        }
    }

    pub(crate) fn sample_state() -> TrackerState {
        TrackerState {
            ongoing: vec![Incident {
                scope: OutageScope::Facility(FacilityId(1)),
                started: 100,
                prior_duration: 60,
                segment_start: 200,
                oscillations: 2,
                affected_near: vec![Asn(5)],
                affected_far: vec![Asn(6), Asn(7)],
                affected_keys: vec![key(0), key(1)],
                watch: vec![(key(0), LocationTag::Facility(FacilityId(1)), Asn(5))],
                dataplane_confirmed: None,
                validation: ValidationStatus::Inconclusive,
                evidence: vec![evidence(901), evidence(902)],
                completeness: 0.5,
                confidence: 0.25,
                confidence_at: 150,
                next_probe: 400,
                probe_backoff: 120,
                probe_restored_at: Some(350),
                restored_streak: 1,
                restored_first: None,
                sources: vec![SourceContribution {
                    kind: SignalKind::Delay,
                    confidence: 0.4,
                    first_bin: 120,
                }],
            }],
            cooling: vec![(OutageScope::Ixp(IxpId(2)), sample_report(), 900)],
            warming: vec![(OutageScope::Facility(FacilityId(3)), 1, 500, 500)],
            finished: vec![sample_report()],
        }
    }

    #[test]
    fn state_round_trips_bit_identically() {
        let state = sample_state();
        let bytes = state.to_bytes();
        let back = TrackerState::from_bytes(&bytes).expect("decodes, no trailing bytes");
        assert_eq!(back, state);
        // Determinism: the same value encodes to the same bytes.
        assert_eq!(state.to_bytes(), bytes);
    }

    #[test]
    fn ipv6_and_unreachable_round_trip() {
        let mut r = sample_report();
        r.probe_evidence[0].post = PostState::Unreachable;
        let k = RouteKey {
            collector: CollectorId(9),
            peer: PeerId { asn: Asn(1), addr: "2001:db8::1".parse().unwrap() },
            prefix: Prefix::v6(0x2001_0db8_0000_0000, 48),
        };
        assert_eq!(OutageReport::from_bytes(&r.to_bytes()).unwrap(), r);
        assert_eq!(RouteKey::from_bytes(&k.to_bytes()).unwrap(), k);
    }

    /// Hostile-input sweep over one valid record: every truncation point
    /// and `mutations` seeded single-byte rewrites must decode without
    /// panicking, and whatever decodes must re-encode to the very bytes
    /// it was read from (no second spelling of any value is accepted).
    pub(crate) fn assert_total_and_canonical<T: Wire>(bytes: &[u8], mutations: usize) {
        let check = |input: &[u8]| {
            if let Ok(v) = T::from_bytes(input) {
                assert_eq!(v.to_bytes(), input, "accepted bytes must be canonical");
            }
        };
        let intact = T::from_bytes(bytes).expect("the unmodified record decodes");
        assert_eq!(intact.to_bytes(), bytes);
        for cut in 0..bytes.len() {
            assert!(T::from_bytes(&bytes[..cut]).is_err(), "truncated at {cut}");
        }
        let mut bad = bytes.to_vec();
        bad.push(0);
        assert!(T::from_bytes(&bad).is_err(), "a trailing byte is corruption");
        // xorshift64*: position and replacement byte per mutation.
        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ bytes.len() as u64;
        for _ in 0..mutations {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let mut mutated = bytes.to_vec();
            mutated[(r >> 16) as usize % bytes.len()] = r as u8;
            check(&mutated);
        }
    }

    #[test]
    fn truncated_and_corrupt_state_errors_or_stays_canonical() {
        assert_total_and_canonical::<TrackerState>(&sample_state().to_bytes(), 4_000);
    }

    #[test]
    fn non_canonical_spellings_are_rejected() {
        // A hop word on a state that has no hop.
        let mut h = evidence(1);
        h.post = PostState::Detoured;
        let mut bytes = h.to_bytes();
        *bytes.last_mut().unwrap() = 7;
        assert!(HopEvidence::from_bytes(&bytes).is_err());
        // Host bits below the prefix length.
        let mut bytes = Prefix::v4(10, 1, 0, 0, 16).to_bytes();
        bytes[4] = 9; // 10.1.0.9/16
        assert!(Prefix::from_bytes(&bytes).is_err());
        // A set out of order, and one with a repeat.
        let set = |asns: &[u32]| asns.iter().map(|&a| Asn(a)).collect::<Vec<_>>().to_bytes();
        assert!(BTreeSet::<Asn>::from_bytes(&set(&[5, 6])).is_ok());
        assert!(BTreeSet::<Asn>::from_bytes(&set(&[6, 5])).is_err());
        assert!(BTreeSet::<Asn>::from_bytes(&set(&[5, 5])).is_err());
    }

    /// The bytewise loop slicing-by-8 replaced: the reference it is
    /// tested against.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check values, through both loops.
        for crc in [crc32, crc32_bytewise] {
            assert_eq!(crc(b""), 0);
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        }
    }

    #[test]
    fn sliced_crc32_is_the_bytewise_loop() {
        // Every length 0..=1 024 at every alignment 0..8: each split of
        // whole words and a 0..8-byte tail.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..1_032)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=1_024 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "offset {offset}, len {len}");
            }
        }
    }
}
