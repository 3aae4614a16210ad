//! The durable incident store: WAL-over-snapshot persistence of the
//! tracker's lifecycle state.
//!
//! Schema (shaped like vigil's `outages` / `degraded_events` tables,
//! on offline-friendly storage): the store's logical state is one
//! [`TrackerState`] — live incidents with their lifecycle clocks
//! (`degraded_events`) plus finalized reports (`outages`). Two files
//! under the store directory persist it:
//!
//! * `wal.log` — append-only, CRC-framed ([`crate::wal`]) records, one
//!   per closed-bin batch, fsynced before the bin is acknowledged. Each
//!   record is a **delta**: upserts/removes per lifecycle map plus the
//!   reports finalized that bin, stamped with the monotone bin sequence.
//! * `snapshot.bin` — the full state at a sequence point, written
//!   atomically (tmp + rename) every `snapshot_every` bins; the WAL is
//!   then restarted. A crash between rename and restart is harmless:
//!   replay skips WAL records whose sequence the snapshot already
//!   covers.
//!
//! Recovery loads the snapshot (if any) and replays intact WAL frames
//! over it. Because deltas are pure functions of the exported state and
//! both sides are scope-sorted, the reconstruction is **bit-identical**
//! to the uninterrupted tracker's export — the recovery tests assert
//! equality on the encoded bytes.

use crate::codec::{self, CodecError, Dec, Enc};
use crate::wal::{read_frames, WalWriter};
use kepler_bgpstream::Timestamp;
use kepler_core::events::{IncidentState, OutageReport, OutageScope, ValidationStatus};
use kepler_core::tracker::{OngoingExport, TrackerState};
use kepler_probe::HopEvidence;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

const SNAPSHOT_MAGIC: &[u8; 4] = b"KSNP";
const SNAPSHOT_VERSION: u32 = 1;
const REC_BIN_COMMIT: u8 = 1;
const REC_RUN_CLOSED: u8 = 2;

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A lifecycle transition observed while committing a bin — the unit the
/// alert fan-out consumes, carrying the full incident context.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// What happened.
    pub kind: TransitionKind,
    /// The incident's epicenter.
    pub scope: OutageScope,
    /// Commit time (end of the closed bin).
    pub at: Timestamp,
    /// When the incident opened.
    pub started: Timestamp,
    /// End time, once closed.
    pub end: Option<Timestamp>,
    /// Probe verdict for the epicenter.
    pub validation: ValidationStatus,
    /// Worst campaign completeness observed.
    pub completeness: f64,
    /// Accumulated hop evidence.
    pub evidence: Vec<HopEvidence>,
    /// Affected near-end AS count.
    pub affected_near: usize,
    /// Affected far-end AS count.
    pub affected_far: usize,
    /// Oscillation segments so far.
    pub oscillations: usize,
}

/// The kind of lifecycle transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionKind {
    /// A new incident entered the live set.
    Opened,
    /// An open incident started recovering.
    Recovering,
    /// A recovering incident relapsed to open (oscillation).
    Reopened,
    /// An incident left the live set.
    Closed,
}

impl std::fmt::Display for TransitionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TransitionKind::Opened => "OPENED",
            TransitionKind::Recovering => "RECOVERING",
            TransitionKind::Reopened => "REOPENED",
            TransitionKind::Closed => "CLOSED",
        })
    }
}

/// What recovery found on disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a snapshot was loaded.
    pub had_snapshot: bool,
    /// Sequence the snapshot covered (0 without one).
    pub snapshot_seq: u64,
    /// WAL frames replayed over the snapshot.
    pub frames_applied: usize,
    /// WAL frames skipped because the snapshot already covered them.
    pub frames_skipped: usize,
    /// Damaged tail bytes dropped from the WAL (truncated/torn write).
    pub dropped_bytes: u64,
}

/// One closed-bin delta between two exported states.
#[derive(Debug, Default, Clone, PartialEq)]
struct BinDelta {
    seq: u64,
    bin_end: Timestamp,
    ongoing_upserts: Vec<OngoingExport>,
    ongoing_removes: Vec<OutageScope>,
    cooling_upserts: Vec<(OutageScope, OutageReport, u64)>,
    cooling_removes: Vec<OutageScope>,
    warming_upserts: Vec<(OutageScope, usize, Timestamp, Timestamp)>,
    warming_removes: Vec<OutageScope>,
    finished_appended: Vec<OutageReport>,
}

fn diff(old: &TrackerState, new: &TrackerState, seq: u64, bin_end: Timestamp) -> BinDelta {
    let mut delta = BinDelta { seq, bin_end, ..BinDelta::default() };
    let old_ongoing: BTreeMap<OutageScope, &OngoingExport> =
        old.ongoing.iter().map(|o| (o.scope, o)).collect();
    for o in &new.ongoing {
        if old_ongoing.get(&o.scope).map(|prev| *prev != o).unwrap_or(true) {
            delta.ongoing_upserts.push(o.clone());
        }
    }
    let new_scopes: std::collections::BTreeSet<OutageScope> =
        new.ongoing.iter().map(|o| o.scope).collect();
    delta.ongoing_removes =
        old.ongoing.iter().map(|o| o.scope).filter(|s| !new_scopes.contains(s)).collect();

    let old_cooling: BTreeMap<OutageScope, (&OutageReport, u64)> =
        old.cooling.iter().map(|(s, r, a)| (*s, (r, *a))).collect();
    for (s, r, a) in &new.cooling {
        if old_cooling.get(s).map(|(pr, pa)| *pr != r || *pa != *a).unwrap_or(true) {
            delta.cooling_upserts.push((*s, r.clone(), *a));
        }
    }
    let new_scopes: std::collections::BTreeSet<OutageScope> =
        new.cooling.iter().map(|(s, ..)| *s).collect();
    delta.cooling_removes =
        old.cooling.iter().map(|(s, ..)| *s).filter(|s| !new_scopes.contains(s)).collect();

    let old_warming: BTreeMap<OutageScope, (usize, Timestamp, Timestamp)> =
        old.warming.iter().map(|&(s, n, l, f)| (s, (n, l, f))).collect();
    for &(s, n, l, f) in &new.warming {
        if old_warming.get(&s).map(|&prev| prev != (n, l, f)).unwrap_or(true) {
            delta.warming_upserts.push((s, n, l, f));
        }
    }
    let new_scopes: std::collections::BTreeSet<OutageScope> =
        new.warming.iter().map(|&(s, ..)| s).collect();
    delta.warming_removes =
        old.warming.iter().map(|&(s, ..)| s).filter(|s| !new_scopes.contains(s)).collect();

    debug_assert!(
        new.finished.len() >= old.finished.len()
            && new.finished[..old.finished.len()] == old.finished[..],
        "finished reports only grow during a run"
    );
    delta.finished_appended = new.finished[old.finished.len().min(new.finished.len())..].to_vec();
    delta
}

fn apply(state: &mut TrackerState, delta: &BinDelta) {
    fn upsert_by_scope<T>(
        vec: &mut Vec<T>,
        scope: OutageScope,
        value: T,
        key: impl Fn(&T) -> OutageScope,
    ) {
        match vec.binary_search_by_key(&scope, key) {
            Ok(i) => vec[i] = value,
            Err(i) => vec.insert(i, value),
        }
    }
    fn remove_by_scope<T>(vec: &mut Vec<T>, scope: OutageScope, key: impl Fn(&T) -> OutageScope) {
        if let Ok(i) = vec.binary_search_by_key(&scope, key) {
            vec.remove(i);
        }
    }
    for o in &delta.ongoing_upserts {
        upsert_by_scope(&mut state.ongoing, o.scope, o.clone(), |x| x.scope);
    }
    for &s in &delta.ongoing_removes {
        remove_by_scope(&mut state.ongoing, s, |x| x.scope);
    }
    for (s, r, a) in &delta.cooling_upserts {
        upsert_by_scope(&mut state.cooling, *s, (*s, r.clone(), *a), |x| x.0);
    }
    for &s in &delta.cooling_removes {
        remove_by_scope(&mut state.cooling, s, |x| x.0);
    }
    for &(s, n, l, f) in &delta.warming_upserts {
        upsert_by_scope(&mut state.warming, s, (s, n, l, f), |x| x.0);
    }
    for &s in &delta.warming_removes {
        remove_by_scope(&mut state.warming, s, |x| x.0);
    }
    state.finished.extend(delta.finished_appended.iter().cloned());
}

fn enc_scopes(e: &mut Enc, scopes: &[OutageScope]) {
    e.len(scopes.len());
    for &s in scopes {
        codec::enc_scope(e, s);
    }
}

fn dec_scopes(d: &mut Dec) -> Result<Vec<OutageScope>, CodecError> {
    let n = d.len("scope list")?;
    (0..n).map(|_| codec::dec_scope(d)).collect()
}

fn encode_delta(delta: &BinDelta) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(REC_BIN_COMMIT);
    e.u64(delta.seq);
    e.u64(delta.bin_end);
    e.len(delta.ongoing_upserts.len());
    for o in &delta.ongoing_upserts {
        codec::enc_ongoing(&mut e, o);
    }
    enc_scopes(&mut e, &delta.ongoing_removes);
    e.len(delta.cooling_upserts.len());
    for (s, r, a) in &delta.cooling_upserts {
        codec::enc_scope(&mut e, *s);
        codec::enc_report(&mut e, r);
        e.u64(*a);
    }
    enc_scopes(&mut e, &delta.cooling_removes);
    e.len(delta.warming_upserts.len());
    for &(s, n, l, f) in &delta.warming_upserts {
        codec::enc_scope(&mut e, s);
        e.usize(n);
        e.u64(l);
        e.u64(f);
    }
    enc_scopes(&mut e, &delta.warming_removes);
    e.len(delta.finished_appended.len());
    for r in &delta.finished_appended {
        codec::enc_report(&mut e, r);
    }
    e.into_bytes()
}

fn decode_delta(d: &mut Dec) -> Result<BinDelta, CodecError> {
    let seq = d.u64("delta seq")?;
    let bin_end = d.u64("delta bin end")?;
    let n = d.len("delta ongoing upserts")?;
    let ongoing_upserts = (0..n).map(|_| codec::dec_ongoing(d)).collect::<Result<_, _>>()?;
    let ongoing_removes = dec_scopes(d)?;
    let n = d.len("delta cooling upserts")?;
    let cooling_upserts = (0..n)
        .map(|_| {
            let s = codec::dec_scope(d)?;
            let r = codec::dec_report(d)?;
            let a = d.u64("cooling acc")?;
            Ok((s, r, a))
        })
        .collect::<Result<_, CodecError>>()?;
    let cooling_removes = dec_scopes(d)?;
    let n = d.len("delta warming upserts")?;
    let warming_upserts = (0..n)
        .map(|_| {
            let s = codec::dec_scope(d)?;
            let streak = d.usize("warming streak")?;
            let l = d.u64("warming last")?;
            let f = d.u64("warming first")?;
            Ok((s, streak, l, f))
        })
        .collect::<Result<_, CodecError>>()?;
    let warming_removes = dec_scopes(d)?;
    let n = d.len("delta finished")?;
    let finished_appended = (0..n).map(|_| codec::dec_report(d)).collect::<Result<_, _>>()?;
    Ok(BinDelta {
        seq,
        bin_end,
        ongoing_upserts,
        ongoing_removes,
        cooling_upserts,
        cooling_removes,
        warming_upserts,
        warming_removes,
        finished_appended,
    })
}

/// The live-set view of a state: scope → (lifecycle state, Recovering
/// hint source). Mirrors `Tracker::live_states`.
fn live_view(state: &TrackerState) -> BTreeMap<OutageScope, IncidentState> {
    let mut map = BTreeMap::new();
    for o in &state.ongoing {
        let s = if o.probe_restored_at.is_some() || o.restored_streak > 0 {
            IncidentState::Recovering
        } else {
            IncidentState::Open
        };
        map.insert(o.scope, s);
    }
    for (s, ..) in &state.cooling {
        map.entry(*s).or_insert(IncidentState::Recovering);
    }
    map
}

fn transition_context(state: &TrackerState, scope: OutageScope, at: Timestamp) -> Transition {
    // Prefer the live entry; fall back to cooling, then the most recent
    // finished report of that scope (the Closed case).
    if let Ok(i) = state.ongoing.binary_search_by_key(&scope, |o| o.scope) {
        let o = &state.ongoing[i];
        return Transition {
            kind: TransitionKind::Opened,
            scope,
            at,
            started: o.started,
            end: None,
            validation: o.validation,
            completeness: o.completeness,
            evidence: o.evidence.clone(),
            affected_near: o.affected_near.len(),
            affected_far: o.affected_far.len(),
            oscillations: o.oscillations,
        };
    }
    let report = state
        .cooling
        .iter()
        .find(|(s, ..)| *s == scope)
        .map(|(_, r, _)| r)
        .or_else(|| state.finished.iter().rev().find(|r| r.scope == scope));
    match report {
        Some(r) => Transition {
            kind: TransitionKind::Closed,
            scope,
            at,
            started: r.start,
            end: r.end,
            validation: r.validation,
            completeness: r.probe_completeness,
            evidence: r.probe_evidence.clone(),
            affected_near: r.affected_near.len(),
            affected_far: r.affected_far.len(),
            oscillations: r.oscillations,
        },
        None => Transition {
            kind: TransitionKind::Closed,
            scope,
            at,
            started: at,
            end: Some(at),
            validation: ValidationStatus::Unvalidated,
            completeness: 1.0,
            evidence: Vec::new(),
            affected_near: 0,
            affected_far: 0,
            oscillations: 0,
        },
    }
}

/// Lifecycle transitions between two states, in scope order.
fn transitions(old: &TrackerState, new: &TrackerState, at: Timestamp) -> Vec<Transition> {
    let before = live_view(old);
    let after = live_view(new);
    let mut out = Vec::new();
    for (&scope, &state) in &after {
        let kind = match before.get(&scope) {
            None => TransitionKind::Opened,
            Some(&prev) if prev == state => continue,
            Some(IncidentState::Open) => TransitionKind::Recovering,
            Some(_) => TransitionKind::Reopened,
        };
        let mut t = transition_context(new, scope, at);
        t.kind = kind;
        out.push(t);
    }
    for &scope in before.keys() {
        if !after.contains_key(&scope) {
            let mut t = transition_context(new, scope, at);
            t.kind = TransitionKind::Closed;
            out.push(t);
        }
    }
    out
}

/// The durable incident store behind a serve daemon.
#[derive(Debug)]
pub struct IncidentStore {
    dir: PathBuf,
    wal: WalWriter,
    state: TrackerState,
    seq: u64,
    last_bin: Timestamp,
    snapshot_every: u64,
    bins_since_snapshot: u64,
}

impl IncidentStore {
    /// Opens (or creates) the store under `dir`, recovering state from
    /// snapshot + WAL. `snapshot_every` is the compaction cadence in
    /// committed bins (0 = compact only on [`close_run`](Self::close_run)).
    pub fn open(dir: &Path, snapshot_every: u64) -> io::Result<(IncidentStore, RecoveryReport)> {
        std::fs::create_dir_all(dir)?;
        let (state, seq, last_bin, recovery) = Self::load(dir)?;
        let wal = WalWriter::open(&dir.join("wal.log"))?;
        let store = IncidentStore {
            dir: dir.to_path_buf(),
            wal,
            state,
            seq,
            last_bin,
            snapshot_every,
            bins_since_snapshot: 0,
        };
        Ok((store, recovery))
    }

    /// Recovers the store's state read-only — the query/stats CLI path
    /// (no WAL handle, no writes).
    pub fn recover_state(dir: &Path) -> io::Result<(TrackerState, Timestamp, RecoveryReport)> {
        let (state, _, last_bin, recovery) = Self::load(dir)?;
        Ok((state, last_bin, recovery))
    }

    fn load(dir: &Path) -> io::Result<(TrackerState, u64, Timestamp, RecoveryReport)> {
        let mut recovery = RecoveryReport::default();
        let mut state = TrackerState::default();
        let mut seq = 0u64;
        let mut last_bin = 0;
        match std::fs::read(dir.join("snapshot.bin")) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
            Ok(bytes) => {
                let (s, sq, lb) = decode_snapshot(&bytes)?;
                state = s;
                seq = sq;
                last_bin = lb;
                recovery.had_snapshot = true;
                recovery.snapshot_seq = sq;
            }
        }
        let scan = read_frames(&dir.join("wal.log"))?;
        recovery.dropped_bytes = scan.dropped_bytes;
        for frame in &scan.frames {
            let mut d = Dec::new(frame);
            let tag = d.u8("record tag").map_err(|e| bad_data(e.to_string()))?;
            match tag {
                REC_BIN_COMMIT => {
                    let delta = decode_delta(&mut d).map_err(|e| bad_data(e.to_string()))?;
                    if delta.seq <= seq && (recovery.had_snapshot || seq > 0) {
                        recovery.frames_skipped += 1;
                        continue;
                    }
                    apply(&mut state, &delta);
                    seq = delta.seq;
                    last_bin = delta.bin_end;
                    recovery.frames_applied += 1;
                }
                REC_RUN_CLOSED => {
                    let sq = d.u64("closed seq").map_err(|e| bad_data(e.to_string()))?;
                    let bin = d.u64("closed bin").map_err(|e| bad_data(e.to_string()))?;
                    let n = d.len("closed finished").map_err(|e| bad_data(e.to_string()))?;
                    let finished = (0..n)
                        .map(|_| codec::dec_report(&mut d))
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| bad_data(e.to_string()))?;
                    if sq <= seq && (recovery.had_snapshot || seq > 0) {
                        recovery.frames_skipped += 1;
                        continue;
                    }
                    state = TrackerState { finished, ..TrackerState::default() };
                    seq = sq;
                    last_bin = bin;
                    recovery.frames_applied += 1;
                }
                _ => return Err(bad_data(format!("unknown WAL record tag {tag}"))),
            }
        }
        Ok((state, seq, last_bin, recovery))
    }

    /// The recovered/committed state.
    pub fn state(&self) -> &TrackerState {
        &self.state
    }

    /// Last committed bin sequence.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// End of the last committed bin.
    pub fn last_bin(&self) -> Timestamp {
        self.last_bin
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Commits one closed-bin batch: appends the delta between the
    /// committed state and `new_state` to the WAL, fsyncs, compacts on
    /// cadence, and returns the lifecycle transitions for alert fan-out.
    ///
    /// `seq` must be strictly monotone (the daemon passes
    /// `Kepler::bins_closed`); a bin batch with no state change writes
    /// no frame at all.
    pub fn commit_bin(
        &mut self,
        seq: u64,
        bin_end: Timestamp,
        new_state: &TrackerState,
    ) -> io::Result<Vec<Transition>> {
        assert!(seq > self.seq, "bin sequence must be monotone ({} <= {})", seq, self.seq);
        let delta = diff(&self.state, new_state, seq, bin_end);
        let out = transitions(&self.state, new_state, bin_end);
        let changed = !(delta.ongoing_upserts.is_empty()
            && delta.ongoing_removes.is_empty()
            && delta.cooling_upserts.is_empty()
            && delta.cooling_removes.is_empty()
            && delta.warming_upserts.is_empty()
            && delta.warming_removes.is_empty()
            && delta.finished_appended.is_empty());
        if changed {
            self.wal.append(&encode_delta(&delta))?;
            // fsync on bin close: the frame is durable before the bin is
            // acknowledged upstream.
            self.wal.sync()?;
            apply(&mut self.state, &delta);
            debug_assert_eq!(&self.state, new_state, "delta application must reconstruct");
        }
        self.seq = seq;
        self.last_bin = bin_end;
        self.bins_since_snapshot += 1;
        if self.snapshot_every > 0 && self.bins_since_snapshot >= self.snapshot_every {
            self.compact()?;
        }
        Ok(out)
    }

    /// Closes the run: records the final report set (everything the
    /// tracker finalized, including force-closed ongoing incidents) and
    /// compacts. Returns the closing transitions.
    pub fn close_run(
        &mut self,
        seq: u64,
        bin_end: Timestamp,
        finished: &[OutageReport],
    ) -> io::Result<Vec<Transition>> {
        let final_state = TrackerState { finished: finished.to_vec(), ..TrackerState::default() };
        let out = transitions(&self.state, &final_state, bin_end);
        let mut e = Enc::new();
        e.u8(REC_RUN_CLOSED);
        e.u64(seq.max(self.seq + 1));
        e.u64(bin_end);
        e.len(finished.len());
        for r in finished {
            codec::enc_report(&mut e, r);
        }
        self.wal.append(&e.into_bytes())?;
        self.wal.sync()?;
        self.seq = seq.max(self.seq + 1);
        self.last_bin = bin_end;
        self.state = final_state;
        self.compact()?;
        Ok(out)
    }

    /// Writes the current state as an atomic snapshot and restarts the
    /// WAL. Crash-safe in every window: the tmp file is fsynced before
    /// the rename, and a WAL that outlives its compaction is deduplicated
    /// by sequence on replay.
    pub fn compact(&mut self) -> io::Result<()> {
        let tmp = self.dir.join("snapshot.tmp");
        let bytes = encode_snapshot(&self.state, self.seq, self.last_bin);
        {
            let mut f = std::fs::File::create(&tmp)?;
            use std::io::Write;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.dir.join("snapshot.bin"))?;
        // Restart the WAL: everything up to `seq` now lives in the
        // snapshot.
        let wal_path = self.dir.join("wal.log");
        std::fs::remove_file(&wal_path)?;
        self.wal = WalWriter::open(&wal_path)?;
        self.bins_since_snapshot = 0;
        Ok(())
    }
}

/// Encodes a snapshot file: header, sequence point, CRC-protected body.
pub fn encode_snapshot(state: &TrackerState, seq: u64, last_bin: Timestamp) -> Vec<u8> {
    let mut body = Enc::new();
    codec::enc_state(&mut body, state);
    let body = body.into_bytes();
    let mut out = Vec::with_capacity(body.len() + 28);
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&last_bin.to_le_bytes());
    out.extend_from_slice(&codec::crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Decodes a snapshot file.
pub fn decode_snapshot(bytes: &[u8]) -> io::Result<(TrackerState, u64, Timestamp)> {
    if bytes.len() < 28 || &bytes[..4] != SNAPSHOT_MAGIC {
        return Err(bad_data("not a kepler snapshot"));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != SNAPSHOT_VERSION {
        return Err(bad_data(format!("unsupported snapshot version {version}")));
    }
    let seq = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let last_bin = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let crc = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
    let body = &bytes[28..];
    if codec::crc32(body) != crc {
        return Err(bad_data("snapshot checksum mismatch"));
    }
    let mut d = Dec::new(body);
    let state = codec::dec_state(&mut d).map_err(|e| bad_data(e.to_string()))?;
    if !d.is_empty() {
        return Err(bad_data("snapshot trailing bytes"));
    }
    Ok((state, seq, last_bin))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kepler_bgp::Asn;
    use kepler_topology::FacilityId;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kepler-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn ongoing(fac: u32, started: u64) -> OngoingExport {
        OngoingExport {
            scope: OutageScope::Facility(FacilityId(fac)),
            started,
            prior_duration: 0,
            segment_start: started,
            oscillations: 1,
            affected_near: vec![Asn(5)],
            affected_far: vec![Asn(6)],
            affected_keys: Vec::new(),
            watch: Vec::new(),
            dataplane_confirmed: None,
            validation: ValidationStatus::Unvalidated,
            evidence: Vec::new(),
            completeness: 1.0,
            confidence: 0.0,
            confidence_at: started,
            next_probe: started + 60,
            probe_backoff: 60,
            probe_restored_at: None,
            restored_streak: 0,
            restored_first: None,
            sources: Vec::new(),
        }
    }

    fn closed_report(fac: u32, start: u64, end: u64) -> OutageReport {
        OutageReport {
            scope: OutageScope::Facility(FacilityId(fac)),
            start,
            end: Some(end),
            affected_near: [Asn(5)].into(),
            affected_far: [Asn(6)].into(),
            affected_paths: 2,
            oscillations: 1,
            dataplane_confirmed: None,
            validation: ValidationStatus::Unvalidated,
            probe_evidence: Vec::new(),
            probe_completeness: 1.0,
            state: IncidentState::Closed,
            sources: Vec::new(),
        }
    }

    #[test]
    fn commit_recover_round_trip_without_snapshot() {
        let dir = tmpdir("plain");
        let (mut store, rec) = IncidentStore::open(&dir, 0).unwrap();
        assert_eq!(rec, RecoveryReport::default());
        let mut s1 = TrackerState::default();
        s1.ongoing.push(ongoing(1, 100));
        let tr = store.commit_bin(1, 300, &s1).unwrap();
        assert_eq!(tr.len(), 1);
        assert_eq!(tr[0].kind, TransitionKind::Opened);
        let mut s2 = s1.clone();
        s2.ongoing.push(ongoing(0, 200));
        s2.ongoing.sort_by_key(|o| o.scope);
        store.commit_bin(2, 600, &s2).unwrap();
        drop(store);
        let (state, last_bin, rec) = IncidentStore::recover_state(&dir).unwrap();
        assert_eq!(state, s2);
        assert_eq!(last_bin, 600);
        assert_eq!(rec.frames_applied, 2);
        assert!(!rec.had_snapshot);
    }

    #[test]
    fn snapshot_plus_wal_recovers_and_skips_covered_frames() {
        let dir = tmpdir("snap");
        let (mut store, _) = IncidentStore::open(&dir, 2).unwrap();
        let mut s = TrackerState::default();
        for i in 0..5u64 {
            s.ongoing = vec![ongoing(1, 100 + i)];
            store.commit_bin(i + 1, 300 * (i + 1), &s).unwrap();
        }
        // Cadence 2: at least two compactions happened; WAL holds only
        // the post-snapshot tail.
        drop(store);
        let (state, last_bin, rec) = IncidentStore::recover_state(&dir).unwrap();
        assert_eq!(state, s);
        assert_eq!(last_bin, 1500);
        assert!(rec.had_snapshot);
        assert!(rec.snapshot_seq >= 4, "{rec:?}");
    }

    #[test]
    fn unchanged_bins_write_no_frames() {
        let dir = tmpdir("quiet");
        let (mut store, _) = IncidentStore::open(&dir, 0).unwrap();
        let s = TrackerState::default();
        for i in 0..50u64 {
            let tr = store.commit_bin(i + 1, 300 * (i + 1), &s).unwrap();
            assert!(tr.is_empty());
        }
        let wal_len = std::fs::metadata(dir.join("wal.log")).unwrap().len();
        assert_eq!(wal_len, 8, "header only: quiet bins cost no WAL bytes");
    }

    #[test]
    fn lifecycle_transitions_are_detected() {
        let dir = tmpdir("transitions");
        let (mut store, _) = IncidentStore::open(&dir, 0).unwrap();
        // Open.
        let mut s = TrackerState::default();
        s.ongoing.push(ongoing(1, 100));
        let tr = store.commit_bin(1, 300, &s).unwrap();
        assert_eq!(tr[0].kind, TransitionKind::Opened);
        assert_eq!(tr[0].scope, OutageScope::Facility(FacilityId(1)));
        // Recovering (probe streak).
        s.ongoing[0].probe_restored_at = Some(500);
        let tr = store.commit_bin(2, 600, &s).unwrap();
        assert_eq!(tr[0].kind, TransitionKind::Recovering);
        // Relapse.
        s.ongoing[0].probe_restored_at = None;
        let tr = store.commit_bin(3, 900, &s).unwrap();
        assert_eq!(tr[0].kind, TransitionKind::Reopened);
        // Close: move to finished.
        let closed =
            TrackerState { finished: vec![closed_report(1, 100, 1000)], ..TrackerState::default() };
        let tr = store.commit_bin(4, 1200, &closed).unwrap();
        assert_eq!(tr[0].kind, TransitionKind::Closed);
        assert_eq!(tr[0].end, Some(1000), "closing alert carries the report's end");
    }

    #[test]
    fn close_run_finalizes_and_compacts() {
        let dir = tmpdir("close");
        let (mut store, _) = IncidentStore::open(&dir, 0).unwrap();
        let mut s = TrackerState::default();
        s.ongoing.push(ongoing(1, 100));
        store.commit_bin(1, 300, &s).unwrap();
        let finished = vec![closed_report(1, 100, 900)];
        let tr = store.close_run(2, 900, &finished).unwrap();
        assert_eq!(tr.len(), 1);
        assert_eq!(tr[0].kind, TransitionKind::Closed);
        drop(store);
        let (state, _, rec) = IncidentStore::recover_state(&dir).unwrap();
        assert_eq!(state.finished, finished);
        assert!(state.ongoing.is_empty());
        assert!(rec.had_snapshot);
        assert_eq!(rec.frames_applied, 0, "everything lives in the snapshot");
    }

    #[test]
    fn snapshot_corruption_is_detected() {
        let dir = tmpdir("corrupt-snap");
        let (mut store, _) = IncidentStore::open(&dir, 0).unwrap();
        let mut s = TrackerState::default();
        s.ongoing.push(ongoing(1, 100));
        store.commit_bin(1, 300, &s).unwrap();
        store.compact().unwrap();
        drop(store);
        let path = dir.join("snapshot.bin");
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(IncidentStore::recover_state(&dir).is_err());
    }
}
