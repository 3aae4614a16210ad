//! Hand-rolled binary codec for the durable incident store.
//!
//! crates.io is unavailable in this build environment, so there is no
//! serialisation framework to lean on: WAL frames and snapshots are
//! encoded with an explicit little-endian byte codec. The format is
//! deterministic — equal [`TrackerState`]s encode to equal bytes — which
//! is what makes "bit-identical recovery" checkable at the byte level.
//!
//! Every container is length-prefixed (`u32`), every enum starts with a
//! `u8` discriminant, floats travel as IEEE-754 bit patterns, and
//! decoding is total: corrupt input yields [`CodecError`], never a
//! panic. The composite frame integrity check (length + CRC-32) lives in
//! [`crate::wal`]; this module is only the payload encoding.

use kepler_bgp::{Asn, Prefix};
use kepler_bgpstream::{CollectorId, PeerId};
use kepler_core::events::{IncidentState, OutageReport, OutageScope, RouteKey, ValidationStatus};
use kepler_core::signal::{SignalKind, SourceContribution};
use kepler_core::tracker::{OngoingExport, TrackerState};
use kepler_docmine::LocationTag;
use kepler_probe::{HopEvidence, PostState};
use kepler_topology::{CityId, FacilityId, IxpId};
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

fn corrupt(context: &'static str) -> CodecError {
    CodecError { context }
}

/// Little-endian byte writer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (bit-exact round
    /// trip, including negative zero).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends a container length (`u32`; the store never holds more
    /// than 4G elements in one record).
    pub fn len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("container too large for record"));
    }
}

/// Little-endian byte reader over a borrowed slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
}

impl<'a> Dec<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf }
    }

    /// Whether every byte has been consumed (trailing garbage in a
    /// record is corruption too).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(corrupt(context));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Reads one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self, context: &'static str) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2, context)?.try_into().unwrap()))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4, context)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8, context)?.try_into().unwrap()))
    }

    /// Reads a `usize` encoded as `u64`.
    pub fn usize(&mut self, context: &'static str) -> Result<usize, CodecError> {
        usize::try_from(self.u64(context)?).map_err(|_| corrupt(context))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self, context: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Reads a bool.
    pub fn bool(&mut self, context: &'static str) -> Result<bool, CodecError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(corrupt(context)),
        }
    }

    /// Reads a container length, bounded by the bytes remaining so a
    /// corrupt length cannot trigger a huge allocation.
    pub fn len(&mut self, context: &'static str) -> Result<usize, CodecError> {
        let n = self.u32(context)? as usize;
        if n > self.buf.len() {
            return Err(corrupt(context));
        }
        Ok(n)
    }
}

// --- identity types -------------------------------------------------------

fn enc_option_u64(e: &mut Enc, v: Option<u64>) {
    match v {
        None => e.u8(0),
        Some(t) => {
            e.u8(1);
            e.u64(t);
        }
    }
}

fn dec_option_u64(d: &mut Dec, context: &'static str) -> Result<Option<u64>, CodecError> {
    match d.u8(context)? {
        0 => Ok(None),
        1 => Ok(Some(d.u64(context)?)),
        _ => Err(corrupt(context)),
    }
}

fn enc_option_bool(e: &mut Enc, v: Option<bool>) {
    match v {
        None => e.u8(0),
        Some(b) => {
            e.u8(1);
            e.bool(b);
        }
    }
}

fn dec_option_bool(d: &mut Dec, context: &'static str) -> Result<Option<bool>, CodecError> {
    match d.u8(context)? {
        0 => Ok(None),
        1 => Ok(Some(d.bool(context)?)),
        _ => Err(corrupt(context)),
    }
}

fn enc_ip(e: &mut Enc, ip: IpAddr) {
    match ip {
        IpAddr::V4(v4) => {
            e.u8(4);
            e.buf.extend_from_slice(&v4.octets());
        }
        IpAddr::V6(v6) => {
            e.u8(6);
            e.buf.extend_from_slice(&v6.octets());
        }
    }
}

fn dec_ip(d: &mut Dec) -> Result<IpAddr, CodecError> {
    match d.u8("ip family")? {
        4 => {
            let o: [u8; 4] = d.take(4, "ipv4")?.try_into().unwrap();
            Ok(IpAddr::from(o))
        }
        6 => {
            let o: [u8; 16] = d.take(16, "ipv6")?.try_into().unwrap();
            Ok(IpAddr::from(o))
        }
        _ => Err(corrupt("ip family")),
    }
}

fn enc_prefix(e: &mut Enc, p: &Prefix) {
    enc_ip(e, p.addr());
    e.u8(p.len());
}

fn dec_prefix(d: &mut Dec) -> Result<Prefix, CodecError> {
    let addr = dec_ip(d)?;
    let len = d.u8("prefix len")?;
    Prefix::new(addr, len).map_err(|_| corrupt("prefix len"))
}

/// Encodes one [`RouteKey`].
pub fn enc_route_key(e: &mut Enc, k: &RouteKey) {
    e.u16(k.collector.0);
    e.u32(k.peer.asn.0);
    enc_ip(e, k.peer.addr);
    enc_prefix(e, &k.prefix);
}

/// Decodes one [`RouteKey`].
pub fn dec_route_key(d: &mut Dec) -> Result<RouteKey, CodecError> {
    let collector = CollectorId(d.u16("collector")?);
    let asn = Asn(d.u32("peer asn")?);
    let addr = dec_ip(d)?;
    let prefix = dec_prefix(d)?;
    Ok(RouteKey { collector, peer: PeerId { asn, addr }, prefix })
}

/// Encodes an [`OutageScope`].
pub fn enc_scope(e: &mut Enc, s: OutageScope) {
    match s {
        OutageScope::Facility(f) => {
            e.u8(0);
            e.u32(f.0);
        }
        OutageScope::Ixp(x) => {
            e.u8(1);
            e.u32(x.0);
        }
        OutageScope::City(c) => {
            e.u8(2);
            e.u32(c.0);
        }
    }
}

/// Decodes an [`OutageScope`].
pub fn dec_scope(d: &mut Dec) -> Result<OutageScope, CodecError> {
    let tag = d.u8("scope tag")?;
    let id = d.u32("scope id")?;
    match tag {
        0 => Ok(OutageScope::Facility(FacilityId(id))),
        1 => Ok(OutageScope::Ixp(IxpId(id))),
        2 => Ok(OutageScope::City(CityId(id))),
        _ => Err(corrupt("scope tag")),
    }
}

fn enc_location_tag(e: &mut Enc, t: LocationTag) {
    match t {
        LocationTag::City(c) => {
            e.u8(0);
            e.u32(c.0);
        }
        LocationTag::Facility(f) => {
            e.u8(1);
            e.u32(f.0);
        }
        LocationTag::Ixp(x) => {
            e.u8(2);
            e.u32(x.0);
        }
    }
}

fn dec_location_tag(d: &mut Dec) -> Result<LocationTag, CodecError> {
    let tag = d.u8("location tag")?;
    let id = d.u32("location id")?;
    match tag {
        0 => Ok(LocationTag::City(CityId(id))),
        1 => Ok(LocationTag::Facility(FacilityId(id))),
        2 => Ok(LocationTag::Ixp(IxpId(id))),
        _ => Err(corrupt("location tag")),
    }
}

fn enc_validation(e: &mut Enc, v: ValidationStatus) {
    e.u8(match v {
        ValidationStatus::Unvalidated => 0,
        ValidationStatus::Confirmed => 1,
        ValidationStatus::Refuted => 2,
        ValidationStatus::Inconclusive => 3,
    });
}

fn dec_validation(d: &mut Dec) -> Result<ValidationStatus, CodecError> {
    match d.u8("validation")? {
        0 => Ok(ValidationStatus::Unvalidated),
        1 => Ok(ValidationStatus::Confirmed),
        2 => Ok(ValidationStatus::Refuted),
        3 => Ok(ValidationStatus::Inconclusive),
        _ => Err(corrupt("validation")),
    }
}

fn enc_incident_state(e: &mut Enc, s: IncidentState) {
    e.u8(match s {
        IncidentState::Open => 0,
        IncidentState::Recovering => 1,
        IncidentState::Closed => 2,
    });
}

fn dec_incident_state(d: &mut Dec) -> Result<IncidentState, CodecError> {
    match d.u8("incident state")? {
        0 => Ok(IncidentState::Open),
        1 => Ok(IncidentState::Recovering),
        2 => Ok(IncidentState::Closed),
        _ => Err(corrupt("incident state")),
    }
}

fn enc_hop_evidence(e: &mut Enc, h: &HopEvidence) {
    e.u32(h.vantage.0);
    e.u32(h.target.0);
    e.u32(h.facility.0);
    e.u32(h.pre_hop);
    match h.post {
        PostState::StillCrossing { hop } => {
            e.u8(0);
            e.u32(hop);
        }
        PostState::Detoured => {
            e.u8(1);
            e.u32(0);
        }
        PostState::Unreachable => {
            e.u8(2);
            e.u32(0);
        }
    }
}

fn dec_hop_evidence(d: &mut Dec) -> Result<HopEvidence, CodecError> {
    let vantage = Asn(d.u32("evidence vantage")?);
    let target = Asn(d.u32("evidence target")?);
    let facility = FacilityId(d.u32("evidence facility")?);
    let pre_hop = d.u32("evidence pre hop")?;
    let tag = d.u8("evidence post tag")?;
    let hop = d.u32("evidence post hop")?;
    let post = match tag {
        0 => PostState::StillCrossing { hop },
        1 => PostState::Detoured,
        2 => PostState::Unreachable,
        _ => return Err(corrupt("evidence post tag")),
    };
    Ok(HopEvidence { vantage, target, facility, pre_hop, post })
}

fn enc_sources(e: &mut Enc, sources: &[SourceContribution]) {
    e.len(sources.len());
    for s in sources {
        e.u8(s.kind.tag());
        e.f64(s.confidence);
        e.u64(s.first_bin);
    }
}

fn dec_sources(d: &mut Dec) -> Result<Vec<SourceContribution>, CodecError> {
    let n = d.len("sources")?;
    (0..n)
        .map(|_| {
            let kind = SignalKind::from_tag(d.u8("source kind")?).ok_or(corrupt("source kind"))?;
            let confidence = d.f64("source confidence")?;
            let first_bin = d.u64("source first bin")?;
            Ok(SourceContribution { kind, confidence, first_bin })
        })
        .collect()
}

// --- composite records ----------------------------------------------------

/// Encodes an [`OutageReport`] — the store's `outages` row.
pub fn enc_report(e: &mut Enc, r: &OutageReport) {
    enc_scope(e, r.scope);
    e.u64(r.start);
    enc_option_u64(e, r.end);
    e.len(r.affected_near.len());
    for a in &r.affected_near {
        e.u32(a.0);
    }
    e.len(r.affected_far.len());
    for a in &r.affected_far {
        e.u32(a.0);
    }
    e.usize(r.affected_paths);
    e.usize(r.oscillations);
    enc_option_bool(e, r.dataplane_confirmed);
    enc_validation(e, r.validation);
    e.len(r.probe_evidence.len());
    for h in &r.probe_evidence {
        enc_hop_evidence(e, h);
    }
    e.f64(r.probe_completeness);
    enc_incident_state(e, r.state);
    enc_sources(e, &r.sources);
}

/// Decodes an [`OutageReport`].
pub fn dec_report(d: &mut Dec) -> Result<OutageReport, CodecError> {
    let scope = dec_scope(d)?;
    let start = d.u64("report start")?;
    let end = dec_option_u64(d, "report end")?;
    let n = d.len("report near")?;
    let affected_near = (0..n).map(|_| d.u32("near asn").map(Asn)).collect::<Result<_, _>>()?;
    let n = d.len("report far")?;
    let affected_far = (0..n).map(|_| d.u32("far asn").map(Asn)).collect::<Result<_, _>>()?;
    let affected_paths = d.usize("report paths")?;
    let oscillations = d.usize("report oscillations")?;
    let dataplane_confirmed = dec_option_bool(d, "report dataplane")?;
    let validation = dec_validation(d)?;
    let n = d.len("report evidence")?;
    let probe_evidence = (0..n).map(|_| dec_hop_evidence(d)).collect::<Result<_, _>>()?;
    let probe_completeness = d.f64("report completeness")?;
    let state = dec_incident_state(d)?;
    let sources = dec_sources(d)?;
    Ok(OutageReport {
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
    })
}

/// Encodes one ongoing-incident image — the store's `degraded_events`
/// row shape (vigil): the live incident with all lifecycle clocks.
pub fn enc_ongoing(e: &mut Enc, o: &OngoingExport) {
    enc_scope(e, o.scope);
    e.u64(o.started);
    e.u64(o.prior_duration);
    e.u64(o.segment_start);
    e.usize(o.oscillations);
    e.len(o.affected_near.len());
    for a in &o.affected_near {
        e.u32(a.0);
    }
    e.len(o.affected_far.len());
    for a in &o.affected_far {
        e.u32(a.0);
    }
    e.len(o.affected_keys.len());
    for k in &o.affected_keys {
        enc_route_key(e, k);
    }
    e.len(o.watch.len());
    for (k, tag, near) in &o.watch {
        enc_route_key(e, k);
        enc_location_tag(e, *tag);
        e.u32(near.0);
    }
    enc_option_bool(e, o.dataplane_confirmed);
    enc_validation(e, o.validation);
    e.len(o.evidence.len());
    for h in &o.evidence {
        enc_hop_evidence(e, h);
    }
    e.f64(o.completeness);
    e.f64(o.confidence);
    e.u64(o.confidence_at);
    e.u64(o.next_probe);
    e.u64(o.probe_backoff);
    enc_option_u64(e, o.probe_restored_at);
    e.usize(o.restored_streak);
    enc_option_u64(e, o.restored_first);
    enc_sources(e, &o.sources);
}

/// Decodes one ongoing-incident image.
pub fn dec_ongoing(d: &mut Dec) -> Result<OngoingExport, CodecError> {
    let scope = dec_scope(d)?;
    let started = d.u64("ongoing started")?;
    let prior_duration = d.u64("ongoing prior duration")?;
    let segment_start = d.u64("ongoing segment start")?;
    let oscillations = d.usize("ongoing oscillations")?;
    let n = d.len("ongoing near")?;
    let affected_near = (0..n).map(|_| d.u32("near asn").map(Asn)).collect::<Result<_, _>>()?;
    let n = d.len("ongoing far")?;
    let affected_far = (0..n).map(|_| d.u32("far asn").map(Asn)).collect::<Result<_, _>>()?;
    let n = d.len("ongoing keys")?;
    let affected_keys = (0..n).map(|_| dec_route_key(d)).collect::<Result<_, _>>()?;
    let n = d.len("ongoing watch")?;
    let watch = (0..n)
        .map(|_| {
            let k = dec_route_key(d)?;
            let tag = dec_location_tag(d)?;
            let near = Asn(d.u32("watch near")?);
            Ok((k, tag, near))
        })
        .collect::<Result<_, CodecError>>()?;
    let dataplane_confirmed = dec_option_bool(d, "ongoing dataplane")?;
    let validation = dec_validation(d)?;
    let n = d.len("ongoing evidence")?;
    let evidence = (0..n).map(|_| dec_hop_evidence(d)).collect::<Result<_, _>>()?;
    let completeness = d.f64("ongoing completeness")?;
    let confidence = d.f64("ongoing confidence")?;
    let confidence_at = d.u64("ongoing confidence at")?;
    let next_probe = d.u64("ongoing next probe")?;
    let probe_backoff = d.u64("ongoing backoff")?;
    let probe_restored_at = dec_option_u64(d, "ongoing restored at")?;
    let restored_streak = d.usize("ongoing restored streak")?;
    let restored_first = dec_option_u64(d, "ongoing restored first")?;
    let sources = dec_sources(d)?;
    Ok(OngoingExport {
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
    })
}

/// Encodes a full [`TrackerState`] (the snapshot body).
pub fn enc_state(e: &mut Enc, s: &TrackerState) {
    e.len(s.ongoing.len());
    for o in &s.ongoing {
        enc_ongoing(e, o);
    }
    e.len(s.cooling.len());
    for (scope, report, acc) in &s.cooling {
        enc_scope(e, *scope);
        enc_report(e, report);
        e.u64(*acc);
    }
    e.len(s.warming.len());
    for &(scope, streak, last, first) in &s.warming {
        enc_scope(e, scope);
        e.usize(streak);
        e.u64(last);
        e.u64(first);
    }
    e.len(s.finished.len());
    for r in &s.finished {
        enc_report(e, r);
    }
}

/// Decodes a full [`TrackerState`].
pub fn dec_state(d: &mut Dec) -> Result<TrackerState, CodecError> {
    let n = d.len("state ongoing")?;
    let ongoing = (0..n).map(|_| dec_ongoing(d)).collect::<Result<_, _>>()?;
    let n = d.len("state cooling")?;
    let cooling = (0..n)
        .map(|_| {
            let scope = dec_scope(d)?;
            let report = dec_report(d)?;
            let acc = d.u64("cooling acc")?;
            Ok((scope, report, acc))
        })
        .collect::<Result<_, CodecError>>()?;
    let n = d.len("state warming")?;
    let warming = (0..n)
        .map(|_| {
            let scope = dec_scope(d)?;
            let streak = d.usize("warming streak")?;
            let last = d.u64("warming last")?;
            let first = d.u64("warming first")?;
            Ok((scope, streak, last, first))
        })
        .collect::<Result<_, CodecError>>()?;
    let n = d.len("state finished")?;
    let finished = (0..n).map(|_| dec_report(d)).collect::<Result<_, _>>()?;
    Ok(TrackerState { ongoing, cooling, warming, finished })
}

// --- CRC-32 ---------------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) over `bytes`.
/// Table-driven, computed once at first use.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        table
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
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

    fn sample_state() -> TrackerState {
        TrackerState {
            ongoing: vec![OngoingExport {
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
        let mut e = Enc::new();
        enc_state(&mut e, &state);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = dec_state(&mut d).expect("decodes");
        assert!(d.is_empty(), "no trailing bytes");
        assert_eq!(back, state);
        // Determinism: the same value encodes to the same bytes.
        let mut e2 = Enc::new();
        enc_state(&mut e2, &state);
        assert_eq!(e2.into_bytes(), bytes);
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
        let mut e = Enc::new();
        enc_report(&mut e, &r);
        enc_route_key(&mut e, &k);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(dec_report(&mut d).unwrap(), r);
        assert_eq!(dec_route_key(&mut d).unwrap(), k);
    }

    #[test]
    fn truncated_and_corrupt_input_error_instead_of_panicking() {
        let mut e = Enc::new();
        enc_state(&mut e, &sample_state());
        let bytes = e.into_bytes();
        // Every truncation point must fail cleanly (or, for a prefix that
        // happens to parse, leave no claim of success on the full value).
        for cut in 0..bytes.len() {
            let _ = dec_state(&mut Dec::new(&bytes[..cut]));
        }
        // A wild discriminant fails cleanly.
        let mut bad = bytes.clone();
        bad[0] = 0xFF;
        assert!(dec_state(&mut Dec::new(&bad)).is_err() || !bad.is_empty());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }
}
