//! Recorded campaign transcripts: record once, replay bit-identically.
//!
//! CI has no network and no measurement platform; the chaos suite wants
//! to exercise the *exact* failure sequences it saw once. The fixture
//! layer closes both gaps:
//!
//! * [`RecordingBackend`] wraps any [`AsyncTraceBackend`] and journals
//!   the terminal outcome of every measurement attempt into a
//!   [`CampaignTranscript`];
//! * [`CampaignTranscript`] serializes to a line-oriented text format
//!   (no external dependencies; f64 RTTs round-trip via their bit
//!   patterns) and parses back;
//! * [`ReplayBackend`] answers submit/poll purely from a transcript —
//!   attempts recorded as rejected reject again, recorded traces return
//!   on the first poll, recorded failures fail, and attempts *absent*
//!   from the transcript stay pending forever, reproducing the original
//!   timeout.
//!
//! Because the lifecycle driver's control flow depends only on the
//! per-attempt outcomes (and its jitter only on measurement identities),
//! replaying a transcript reproduces the original campaign's verdicts,
//! completeness and retry counts bit-identically.

use crate::lifecycle::{AsyncTraceBackend, Measurement, MeasurementState, SubmitResult};
use crate::trace::{IfaceOwner, Trace, TraceHop};
use kepler_bgp::Asn;
use kepler_bgpstream::Timestamp;
use kepler_topology::{FacilityId, IxpId};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::str::FromStr;

/// Transcript key: the full identity of one measurement attempt.
type Key = (u32, u32, Timestamp, u32);

fn key_of(m: &Measurement) -> Key {
    (m.vantage.0, m.target.0, m.at, m.attempt)
}

/// The terminal outcome of one recorded attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordedOutcome {
    /// Submission was rejected.
    Rejected,
    /// The platform reported a terminal failure.
    Failed,
    /// A trace came back.
    Done(Trace),
}

/// A serialized campaign: every terminal attempt outcome, keyed by
/// measurement identity. Attempts that timed out (never reached a
/// terminal state) are deliberately absent — absence replays as an
/// eternal `Pending`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignTranscript {
    entries: BTreeMap<Key, RecordedOutcome>,
}

const HEADER: &str = "kepler-campaign-transcript v1";

impl CampaignTranscript {
    /// Records one terminal outcome (first write wins: a terminal state
    /// is only ever observed once per attempt).
    pub fn record(&mut self, m: &Measurement, outcome: RecordedOutcome) {
        self.entries.entry(key_of(m)).or_insert(outcome);
    }

    /// Looks up the outcome for one attempt.
    pub fn get(&self, m: &Measurement) -> Option<&RecordedOutcome> {
        self.entries.get(&key_of(m))
    }

    /// Number of recorded attempts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes to the line-oriented text format.
    pub fn serialize(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        for (&(v, t, at, attempt), outcome) in &self.entries {
            match outcome {
                RecordedOutcome::Rejected => {
                    let _ = writeln!(out, "r {v} {t} {at} {attempt}");
                }
                RecordedOutcome::Failed => {
                    let _ = writeln!(out, "f {v} {t} {at} {attempt}");
                }
                RecordedOutcome::Done(trace) => {
                    let _ = write!(out, "t {v} {t} {at} {attempt} {}", u8::from(trace.reached));
                    for hop in &trace.hops {
                        let (kind, asn, id) = match hop.owner {
                            IfaceOwner::FacilityPort { asn, facility } => {
                                ("fac", asn.0, facility.0)
                            }
                            IfaceOwner::IxpLan { asn, ixp } => ("ixp", asn.0, ixp.0),
                        };
                        let _ = write!(
                            out,
                            " {kind}/{asn}/{id}/{}/{:016x}",
                            hop.addr,
                            hop.rtt_ms.to_bits()
                        );
                    }
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Parses the text format back. Errors name the field and carry the line.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut lines = s.lines();
        match lines.next() {
            Some(h) if h.trim() == HEADER => {}
            other => return Err(format!("bad transcript header: {other:?}")),
        }
        let entries = (lines.map(str::trim).filter(|l| !l.is_empty()))
            .map(|line| parse_line(line).map_err(|e| format!("{e}: {line}")))
            .collect::<Result<_, _>>()?;
        Ok(CampaignTranscript { entries })
    }
}

/// Parses one field as its own type (an absent one as `""`): a value out
/// of range is an error naming the field, never a wrapped value.
fn field<T: FromStr<Err: Display>>(text: Option<&str>, name: &str) -> Result<T, String> {
    text.unwrap_or_default().parse().map_err(|e| format!("bad {name} ({e})"))
}

/// One transcript line: its measurement key and recorded outcome.
fn parse_line(line: &str) -> Result<(Key, RecordedOutcome), String> {
    let mut fields = line.split_whitespace();
    let tag = fields.next().unwrap_or_default();
    let (vantage, target) = (field(fields.next(), "vantage")?, field(fields.next(), "target")?);
    let key = (vantage, target, field(fields.next(), "at")?, field(fields.next(), "attempt")?);
    let outcome = match tag {
        "r" => RecordedOutcome::Rejected,
        "f" => RecordedOutcome::Failed,
        "t" => {
            let reached: u8 = field(fields.next(), "reached")?;
            if reached > 1 {
                return Err(format!("bad reached ({reached} is neither 0 nor 1)"));
            }
            let mut hops = Vec::new();
            for hop in fields {
                let parts: Vec<&str> = hop.split('/').collect();
                let [kind, asn, id, addr, rtt] = parts[..] else {
                    return Err(format!("bad hop {hop:?}"));
                };
                let (asn, id) = (Asn(field(Some(asn), "hop asn")?), field(Some(id), "hop id")?);
                let owner = match kind {
                    "fac" => IfaceOwner::FacilityPort { asn, facility: FacilityId(id) },
                    "ixp" => IfaceOwner::IxpLan { asn, ixp: IxpId(id) },
                    k => return Err(format!("bad hop kind {k:?}")),
                };
                let addr = field(Some(addr), "hop addr")?;
                let bits =
                    u64::from_str_radix(rtt, 16).map_err(|e| format!("bad hop rtt ({e})"))?;
                hops.push(TraceHop { addr, owner, rtt_ms: f64::from_bits(bits) });
            }
            RecordedOutcome::Done(Trace { hops, reached: reached == 1 })
        }
        other => return Err(format!("bad record tag {other:?}")),
    };
    Ok((key, outcome))
}

/// Wraps a backend and journals every terminal attempt outcome.
#[derive(Debug)]
pub struct RecordingBackend<B> {
    inner: B,
    /// The transcript accumulated so far.
    pub transcript: CampaignTranscript,
}

impl<B> RecordingBackend<B> {
    /// Starts recording over `inner`.
    pub fn new(inner: B) -> Self {
        RecordingBackend { inner, transcript: CampaignTranscript::default() }
    }
}

impl<B: AsyncTraceBackend> AsyncTraceBackend for RecordingBackend<B> {
    fn submit(&mut self, m: &Measurement) -> SubmitResult {
        let r = self.inner.submit(m);
        if r == SubmitResult::Rejected {
            self.transcript.record(m, RecordedOutcome::Rejected);
        }
        r
    }

    fn poll(&mut self, m: &Measurement, now: Timestamp) -> MeasurementState {
        let state = self.inner.poll(m, now);
        match &state {
            MeasurementState::Ready(trace) => {
                self.transcript.record(m, RecordedOutcome::Done(trace.clone()));
            }
            MeasurementState::Failed => self.transcript.record(m, RecordedOutcome::Failed),
            MeasurementState::Pending => {}
        }
        state
    }
}

/// Answers the lifecycle purely from a transcript — no network, no
/// simulator, fully offline.
#[derive(Debug, Clone)]
pub struct ReplayBackend {
    transcript: CampaignTranscript,
}

impl ReplayBackend {
    /// A backend replaying `transcript`.
    pub fn new(transcript: CampaignTranscript) -> Self {
        ReplayBackend { transcript }
    }
}

impl AsyncTraceBackend for ReplayBackend {
    fn submit(&mut self, m: &Measurement) -> SubmitResult {
        match self.transcript.get(m) {
            Some(RecordedOutcome::Rejected) => SubmitResult::Rejected,
            _ => SubmitResult::Accepted,
        }
    }

    fn poll(&mut self, m: &Measurement, _now: Timestamp) -> MeasurementState {
        match self.transcript.get(m) {
            Some(RecordedOutcome::Done(trace)) => MeasurementState::Ready(trace.clone()),
            Some(RecordedOutcome::Failed) => MeasurementState::Failed,
            // Unknown or rejected attempts replay as the original timeout.
            Some(RecordedOutcome::Rejected) | None => MeasurementState::Pending,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::{drive, LifecycleConfig};
    use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

    fn sample_trace() -> Trace {
        Trace {
            hops: vec![
                TraceHop {
                    addr: IpAddr::V4(Ipv4Addr::new(11, 0, 1, 2)),
                    owner: IfaceOwner::FacilityPort { asn: Asn(20), facility: FacilityId(3) },
                    rtt_ms: 1.5,
                },
                TraceHop {
                    addr: IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 7)),
                    owner: IfaceOwner::IxpLan { asn: Asn(21), ixp: IxpId(4) },
                    rtt_ms: f64::from_bits(0x3FF8_0000_0000_0001), // not representable in decimal
                },
            ],
            reached: true,
        }
    }

    fn m(v: u32, t: u32, at: Timestamp, attempt: u32) -> Measurement {
        Measurement { vantage: Asn(v), target: Asn(t), at, attempt, submitted: at }
    }

    #[test]
    fn serialize_parse_round_trips_bit_identically() {
        let mut tr = CampaignTranscript::default();
        tr.record(&m(900, 20, 5_000, 0), RecordedOutcome::Done(sample_trace()));
        tr.record(&m(900, 21, 5_000, 0), RecordedOutcome::Rejected);
        tr.record(&m(901, 20, 5_000, 1), RecordedOutcome::Failed);
        tr.record(
            &m(901, 22, 5_000, 0),
            RecordedOutcome::Done(Trace { hops: vec![], reached: false }),
        );
        let text = tr.serialize();
        let back = CampaignTranscript::parse(&text).expect("parse");
        assert_eq!(back, tr);
        // And the serialization itself is stable.
        assert_eq!(back.serialize(), text);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(CampaignTranscript::parse("").is_err(), "missing header");
        assert!(CampaignTranscript::parse("kepler-campaign-transcript v1\nx 1 2 3 4").is_err());
        assert!(CampaignTranscript::parse("kepler-campaign-transcript v1\nt 1 2 3").is_err());
        assert!(CampaignTranscript::parse(
            "kepler-campaign-transcript v1\nt 1 2 3 0 1 zz/1/2/8.8.8.8/0"
        )
        .is_err());
        // Identity fields out of `u32` range and a `reached` flag other
        // than 0/1 are errors naming the field, never wrapped values: two
        // wrapped lines could collide on one key.
        let err = |line: &str| {
            CampaignTranscript::parse(&format!("kepler-campaign-transcript v1\n{line}"))
                .expect_err(line)
        };
        assert!(err("r 4294967296 2 3 4").starts_with("bad vantage"));
        let attempt = err("t 1 2 3 4294967297 7");
        assert!(attempt.starts_with("bad attempt"), "{attempt}");
        assert!(err("t 1 2 3 4 7").starts_with("bad reached"));
        assert!(err("t 1 2 3 4 256").starts_with("bad reached"));
        assert!(err("t 1 2 3 4 1 fac/1/2/8.8.8.8/0/9").starts_with("bad hop"));
    }

    #[test]
    fn record_then_replay_reproduces_driver_outcomes() {
        // A scripted backend: target 20 answers on attempt 1, target 21 is
        // rejected forever, target 22 never answers at all.
        struct Script;
        impl AsyncTraceBackend for Script {
            fn submit(&mut self, m: &Measurement) -> SubmitResult {
                if m.target == Asn(21) {
                    SubmitResult::Rejected
                } else {
                    SubmitResult::Accepted
                }
            }
            fn poll(&mut self, m: &Measurement, _now: Timestamp) -> MeasurementState {
                match (m.target, m.attempt) {
                    (Asn(20), a) if a >= 1 => MeasurementState::Ready(sample_trace()),
                    (Asn(20), _) => MeasurementState::Failed,
                    _ => MeasurementState::Pending,
                }
            }
        }
        let cfg = LifecycleConfig::default();
        let mut rec = RecordingBackend::new(Script);
        let live: Vec<_> = [20, 21, 22]
            .iter()
            .map(|&t| drive(&mut rec, Asn(900), Asn(t), 5_000, 6_000, &cfg))
            .collect();
        let text = rec.transcript.serialize();
        let mut replay = ReplayBackend::new(CampaignTranscript::parse(&text).expect("parse"));
        let replayed: Vec<_> = [20, 21, 22]
            .iter()
            .map(|&t| drive(&mut replay, Asn(900), Asn(t), 5_000, 6_000, &cfg))
            .collect();
        assert_eq!(live, replayed, "replay is bit-identical, counters included");
    }
}
