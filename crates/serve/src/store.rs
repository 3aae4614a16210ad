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
//!   atomically (tmp + rename) every `snapshot_every` bins over which
//!   the WAL gained a frame to fold in; the WAL is then restarted.
//!   A crash between rename and restart is harmless: replay skips WAL
//!   records whose sequence the snapshot already covers.
//!
//! Recovery loads the snapshot (if any) and replays intact WAL frames
//! over it. Because deltas are pure functions of the exported state and
//! both sides are scope-sorted, the reconstruction is **bit-identical**
//! to the uninterrupted tracker's export — the recovery tests assert
//! equality on the encoded bytes.

use crate::codec::{self, wire_struct, CodecError, Dec, Wire};
use crate::wal::{read_frames, WalWriter};
use kepler_bgpstream::Timestamp;
use kepler_core::events::{IncidentState, OutageReport, OutageScope, ValidationStatus};
use kepler_core::tracker::{live_set, Incident, TrackerState};
use kepler_probe::HopEvidence;
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

impl Transition {
    /// The context a live incident gives its transition.
    fn of_incident(kind: TransitionKind, at: Timestamp, o: &Incident) -> Transition {
        Transition {
            kind,
            scope: o.scope,
            at,
            started: o.started,
            end: None,
            validation: o.validation,
            completeness: o.completeness,
            evidence: o.evidence.clone(),
            affected_near: o.affected_near.len(),
            affected_far: o.affected_far.len(),
            oscillations: o.oscillations,
        }
    }

    /// The context a closed (cooling or finished) report gives its
    /// transition at `scope`.
    fn of_report(
        kind: TransitionKind,
        at: Timestamp,
        scope: OutageScope,
        r: &OutageReport,
    ) -> Transition {
        Transition {
            kind,
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
        }
    }
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

/// One row of a scope-sorted lifecycle table of [`TrackerState`].
trait Row: Clone + PartialEq + Wire {
    fn scope(&self) -> OutageScope;
}

impl Row for Incident {
    fn scope(&self) -> OutageScope {
        self.scope
    }
}

/// A cooling entry: (scope, closed report, accumulated duration).
impl Row for (OutageScope, OutageReport, u64) {
    fn scope(&self) -> OutageScope {
        self.0
    }
}

/// A warming entry: (scope, streak, last bin, first bin).
impl Row for (OutageScope, usize, Timestamp, Timestamp) {
    fn scope(&self) -> OutageScope {
        self.0
    }
}

fn find<T: Row>(table: &[T], scope: OutageScope) -> Option<&T> {
    table.binary_search_by_key(&scope, T::scope).ok().map(|i| &table[i])
}

/// What one bin changed in one lifecycle table: the rows that are new or
/// differ, and the scopes that left.
#[derive(Debug)]
struct TableDelta<T> {
    upserts: Vec<T>,
    removes: Vec<OutageScope>,
}

impl<T: Row> TableDelta<T> {
    fn diff(old: &[T], new: &[T]) -> Self {
        TableDelta {
            upserts: new.iter().filter(|&n| find(old, n.scope()) != Some(n)).cloned().collect(),
            removes: old.iter().map(T::scope).filter(|&s| find(new, s).is_none()).collect(),
        }
    }

    fn apply(&self, table: &mut Vec<T>) {
        for row in &self.upserts {
            match table.binary_search_by_key(&row.scope(), T::scope) {
                Ok(i) => table[i] = row.clone(),
                Err(i) => table.insert(i, row.clone()),
            }
        }
        for scope in &self.removes {
            if let Ok(i) = table.binary_search_by_key(scope, T::scope) {
                table.remove(i);
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.upserts.is_empty() && self.removes.is_empty()
    }
}

impl<T: Row> Wire for TableDelta<T> {
    fn enc(&self, out: &mut Vec<u8>) {
        self.upserts.enc(out);
        self.removes.enc(out);
    }
    fn dec(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(TableDelta { upserts: Wire::dec(d)?, removes: Wire::dec(d)? })
    }
}

/// One closed-bin delta between two exported states — the body of a
/// bin-commit record.
#[derive(Debug)]
struct BinDelta {
    seq: u64,
    bin_end: Timestamp,
    ongoing: TableDelta<Incident>,
    cooling: TableDelta<(OutageScope, OutageReport, u64)>,
    warming: TableDelta<(OutageScope, usize, Timestamp, Timestamp)>,
    finished_appended: Vec<OutageReport>,
}
wire_struct!(BinDelta { seq, bin_end, ongoing, cooling, warming, finished_appended });

impl BinDelta {
    fn diff(old: &TrackerState, new: &TrackerState, seq: u64, bin_end: Timestamp) -> BinDelta {
        debug_assert!(
            new.finished.len() >= old.finished.len()
                && new.finished[..old.finished.len()] == old.finished[..],
            "finished reports only grow during a run"
        );
        BinDelta {
            seq,
            bin_end,
            ongoing: TableDelta::diff(&old.ongoing, &new.ongoing),
            cooling: TableDelta::diff(&old.cooling, &new.cooling),
            warming: TableDelta::diff(&old.warming, &new.warming),
            finished_appended: new.finished[old.finished.len().min(new.finished.len())..].to_vec(),
        }
    }

    fn apply(&self, state: &mut TrackerState) {
        self.ongoing.apply(&mut state.ongoing);
        self.cooling.apply(&mut state.cooling);
        self.warming.apply(&mut state.warming);
        state.finished.extend(self.finished_appended.iter().cloned());
    }

    fn is_empty(&self) -> bool {
        self.ongoing.is_empty()
            && self.cooling.is_empty()
            && self.warming.is_empty()
            && self.finished_appended.is_empty()
    }
}

/// The body of a run-closed record: the final report set.
#[derive(Debug)]
struct RunClosed {
    seq: u64,
    bin_end: Timestamp,
    finished: Vec<OutageReport>,
}
wire_struct!(RunClosed { seq, bin_end, finished });

/// One WAL record — the tag byte, then the body — as the writer of a
/// frame's payload ([`WalWriter::append`]).
fn record<'a>(tag: u8, body: &'a impl Wire) -> impl FnOnce(&mut Vec<u8>) + 'a {
    move |out| {
        out.push(tag);
        body.enc(out);
    }
}

/// Lifecycle transitions between two states, in scope order.
fn transitions(old: &TrackerState, new: &TrackerState, at: Timestamp) -> Vec<Transition> {
    let live = |state: &TrackerState| live_set(&state.ongoing, state.cooling.iter().map(|c| c.0));
    // The context of `scope` in the new state: the live entry, else the
    // cooling one, else the most recent finished report of that scope,
    // else — the incident merged into another scope — nothing.
    let context = |kind: TransitionKind, scope: OutageScope| {
        if let Some(o) = find(&new.ongoing, scope) {
            return Transition::of_incident(kind, at, o);
        }
        let report = find(&new.cooling, scope)
            .map(|(_, r, _)| r)
            .or_else(|| new.finished.iter().rev().find(|r| r.scope == scope));
        match report {
            Some(r) => Transition::of_report(kind, at, scope, r),
            None => Transition {
                kind,
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
    };
    let (before, after) = (live(old), live(new));
    let mut out = Vec::new();
    for (&scope, &state) in &after {
        let kind = match before.get(&scope) {
            None => TransitionKind::Opened,
            Some(&prev) if prev == state => continue,
            Some(IncidentState::Open) => TransitionKind::Recovering,
            Some(_) => TransitionKind::Reopened,
        };
        out.push(context(kind, scope));
    }
    for &scope in before.keys() {
        if !after.contains_key(&scope) {
            out.push(context(TransitionKind::Closed, scope));
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
    /// Frames in `wal.log`: what a compaction would fold in.
    wal_frames: u64,
    compactions: u64,
    compactions_deferred: u64,
}

impl IncidentStore {
    /// Opens (or creates) the store under `dir`, recovering state from
    /// snapshot + WAL and cutting the WAL to its intact prefix
    /// (`dropped_bytes` reports the cut). `snapshot_every` is the compaction
    /// cadence in committed bins (0 = compact only on [`close_run`](Self::close_run)).
    pub fn open(dir: &Path, snapshot_every: u64) -> io::Result<(IncidentStore, RecoveryReport)> {
        std::fs::create_dir_all(dir)?;
        let (state, seq, last_bin, recovery) = Self::load(dir)?;
        let wal_path = dir.join("wal.log");
        if recovery.dropped_bytes > 0 {
            // Cut the damaged tail: a frame appended behind bytes
            // `read_frames` stops at is lost to the next recovery.
            let file = std::fs::OpenOptions::new().write(true).open(&wal_path)?;
            file.set_len(file.metadata()?.len() - recovery.dropped_bytes)?;
            file.sync_all()?;
        }
        let wal = WalWriter::open(&wal_path)?;
        let store = IncidentStore {
            dir: dir.to_path_buf(),
            wal,
            state,
            seq,
            last_bin,
            snapshot_every,
            bins_since_snapshot: 0,
            wal_frames: (recovery.frames_applied + recovery.frames_skipped) as u64,
            compactions: 0,
            compactions_deferred: 0,
        };
        Ok((store, recovery))
    }

    /// Recovers the store's state read-only — the query/stats CLI path
    /// (no WAL handle, no writes: a damaged tail is reported, not cut).
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
                (state, seq, last_bin) = decode_snapshot(&bytes)?;
                recovery.had_snapshot = true;
                recovery.snapshot_seq = seq;
            }
        }
        let scan = read_frames(&dir.join("wal.log"))?;
        recovery.dropped_bytes = scan.dropped_bytes;
        // A record the snapshot (or an earlier frame) already covers.
        let had_snapshot = recovery.had_snapshot;
        let covered = |record: u64, seq: u64| record <= seq && (had_snapshot || seq > 0);
        for frame in &scan.frames {
            let (&tag, body) = frame.split_first().ok_or_else(|| bad_data("empty WAL record"))?;
            match tag {
                REC_BIN_COMMIT => {
                    let delta = BinDelta::from_bytes(body)?;
                    if covered(delta.seq, seq) {
                        recovery.frames_skipped += 1;
                        continue;
                    }
                    delta.apply(&mut state);
                    (seq, last_bin) = (delta.seq, delta.bin_end);
                }
                REC_RUN_CLOSED => {
                    let closed = RunClosed::from_bytes(body)?;
                    if covered(closed.seq, seq) {
                        recovery.frames_skipped += 1;
                        continue;
                    }
                    state = TrackerState { finished: closed.finished, ..TrackerState::default() };
                    (seq, last_bin) = (closed.seq, closed.bin_end);
                }
                _ => return Err(bad_data(format!("unknown WAL record tag {tag}"))),
            }
            recovery.frames_applied += 1;
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

    /// Snapshots written since the store was opened, and cadences that
    /// came due over a WAL without a frame to fold in (no rewrite).
    pub fn compactions(&self) -> (u64, u64) {
        (self.compactions, self.compactions_deferred)
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
        let delta = BinDelta::diff(&self.state, new_state, seq, bin_end);
        let out = transitions(&self.state, new_state, bin_end);
        if !delta.is_empty() {
            self.wal.append(record(REC_BIN_COMMIT, &delta))?;
            // fsync on bin close: the frame is durable before the bin is
            // acknowledged upstream.
            self.wal.sync()?;
            self.wal_frames += 1;
            delta.apply(&mut self.state);
            debug_assert_eq!(&self.state, new_state, "delta application must reconstruct");
        }
        self.advance(seq, bin_end)?;
        Ok(out)
    }

    /// Commits a closed-bin batch that left the state as committed (the
    /// tail of every [`commit_bin`](Self::commit_bin)). A cadence that comes
    /// due compacts — or, over a WAL without a frame, rewrites nothing.
    pub fn advance(&mut self, seq: u64, bin_end: Timestamp) -> io::Result<()> {
        assert!(seq > self.seq, "bin sequence must be monotone ({} <= {})", seq, self.seq);
        self.seq = seq;
        self.last_bin = bin_end;
        self.bins_since_snapshot += 1;
        let due = self.snapshot_every > 0 && self.bins_since_snapshot >= self.snapshot_every;
        if due && self.wal_frames > 0 {
            self.compact()?;
        } else if due {
            self.bins_since_snapshot = 0;
            self.compactions_deferred += 1;
        }
        Ok(())
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
        let closed = RunClosed { seq: seq.max(self.seq + 1), bin_end, finished: finished.to_vec() };
        self.wal.append(record(REC_RUN_CLOSED, &closed))?;
        self.wal.sync()?;
        let final_state = TrackerState { finished: closed.finished, ..TrackerState::default() };
        let out = transitions(&self.state, &final_state, bin_end);
        self.seq = closed.seq;
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
        self.wal_frames = 0;
        self.compactions += 1;
        Ok(())
    }
}

/// Encodes a snapshot file: header, sequence point, CRC-protected body.
pub fn encode_snapshot(state: &TrackerState, seq: u64, last_bin: Timestamp) -> Vec<u8> {
    let body = state.to_bytes();
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
    let state = TrackerState::from_bytes(body)?;
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

    fn ongoing(fac: u32, started: u64) -> Incident {
        Incident {
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
    fn compaction_waits_for_a_wal_frame() {
        let dir = tmpdir("idle-compact");
        let (mut store, _) = IncidentStore::open(&dir, 4).unwrap();
        let files = || {
            let (state, ..) = IncidentStore::recover_state(&dir).unwrap();
            let snapshot = std::fs::read(dir.join("snapshot.bin")).unwrap();
            (state, snapshot, std::fs::metadata(dir.join("wal.log")).unwrap().len())
        };
        // Four framed bins: the cadence comes due over a full WAL.
        let mut s = TrackerState { ongoing: vec![ongoing(1, 100)], ..TrackerState::default() };
        for seq in 1..=4 {
            s.ongoing[0].next_probe += 60;
            store.commit_bin(seq, 300 * seq, &s).unwrap();
        }
        let (state, snapshot, wal_len) = files();
        assert_eq!(store.compactions(), (1, 0));
        assert_eq!((state, wal_len), (s.clone(), 8));
        // Ten idle bins, by either road: the cadence comes due twice,
        // nothing is rewritten.
        for seq in 5..=14 {
            if seq % 2 == 0 {
                assert!(store.commit_bin(seq, 300 * seq, &s).unwrap().is_empty());
            } else {
                store.advance(seq, 300 * seq).unwrap();
            }
            assert_eq!(files(), (s.clone(), snapshot.clone(), 8), "idle bin {seq}");
        }
        assert_eq!(store.compactions(), (1, 2));
        assert_eq!((store.seq(), store.last_bin()), (14, 4200));
        // A frame after the quiet stretch waits in the WAL for the next
        // cadence boundary (bin 16, where an always-compacting store
        // would rewrite too), then compacts with it.
        s.ongoing[0].next_probe += 60;
        store.commit_bin(15, 4500, &s).unwrap();
        let (state, unchanged, wal_len) = files();
        assert_eq!((state, unchanged, wal_len > 8), (s.clone(), snapshot, true));
        store.advance(16, 4800).unwrap();
        let (state, after, wal_len) = files();
        assert_eq!(store.compactions(), (2, 2));
        assert_eq!((state, wal_len), (s.clone(), 8));
        assert_eq!(decode_snapshot(&after).unwrap(), (s, 16, 4800));
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

    /// A state whose delta against `codec::tests::sample_state` removes a
    /// row from every lifecycle table (and upserts all of the sample's).
    fn state_before_sample() -> TrackerState {
        TrackerState {
            ongoing: vec![ongoing(9, 50)],
            cooling: vec![(OutageScope::Facility(FacilityId(8)), closed_report(8, 10, 20), 10)],
            warming: vec![(OutageScope::Facility(FacilityId(7)), 1, 40, 40)],
            finished: Vec::new(),
        }
    }

    /// The bytes `record` puts in a frame.
    fn payload(tag: u8, body: &impl Wire) -> Vec<u8> {
        let mut out = Vec::new();
        record(tag, body)(&mut out);
        out
    }

    #[test]
    fn trailing_bytes_in_a_wal_record_are_corruption() {
        let (before, sample) = (state_before_sample(), codec::tests::sample_state());
        let delta = BinDelta::diff(&before, &sample, 2, 600);
        let closed = RunClosed { seq: 2, bin_end: 600, finished: sample.finished.clone() };
        for payload in [payload(REC_BIN_COMMIT, &delta), payload(REC_RUN_CLOSED, &closed)] {
            let dir = tmpdir("trailing");
            let (mut store, _) = IncidentStore::open(&dir, 0).unwrap();
            store.commit_bin(1, 300, &before).unwrap();
            drop(store);
            // A CRC-valid frame whose record is followed by one more byte.
            let mut padded = payload.clone();
            padded.push(0);
            let mut wal = WalWriter::open(&dir.join("wal.log")).unwrap();
            wal.append(|frame| frame.extend_from_slice(&padded)).unwrap();
            drop(wal);
            let err = IncidentStore::recover_state(&dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("trailing bytes"), "{err}");
            assert!(IncidentStore::open(&dir, 0).is_err(), "no store opens over a corrupt log");
            // The same record without the extra byte replays.
            let _ = std::fs::remove_file(dir.join("wal.log"));
            let mut wal = WalWriter::open(&dir.join("wal.log")).unwrap();
            wal.append(record(
                REC_BIN_COMMIT,
                &BinDelta::diff(&Default::default(), &before, 1, 300),
            ))
            .unwrap();
            wal.append(|frame| frame.extend_from_slice(&payload)).unwrap();
            drop(wal);
            let (state, last_bin, rec) = IncidentStore::recover_state(&dir).unwrap();
            assert_eq!((last_bin, rec.frames_applied), (600, 2));
            assert_eq!(state.finished, sample.finished);
        }
    }

    #[test]
    fn hostile_wal_payloads_error_or_stay_canonical() {
        let (before, sample) = (state_before_sample(), codec::tests::sample_state());
        let delta = BinDelta::diff(&before, &sample, 2, 600);
        assert!(!delta.ongoing.removes.is_empty() && !delta.warming.removes.is_empty());
        codec::tests::assert_total_and_canonical::<BinDelta>(&delta.to_bytes(), 2_000);
        let closed = RunClosed { seq: 2, bin_end: 600, finished: sample.finished };
        codec::tests::assert_total_and_canonical::<RunClosed>(&closed.to_bytes(), 2_000);
    }
}
