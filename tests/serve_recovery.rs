//! Crash-recovery suite for the serve subsystem.
//!
//! The durability contract under test: a daemon killed mid-scenario and
//! restarted from snapshot + WAL must (a) recover **bit-identical**
//! tracker state — asserted on the encoded snapshot bytes, not on a
//! lossy summary — and (b) finish the run reporting the same incidents,
//! lifecycle states and boundaries as an uninterrupted detector. The
//! WAL-damage tests then check that a truncated tail or a torn (bit
//! flipped) frame rolls recovery back to exactly the previous durable
//! commit instead of corrupting state or failing open.

mod common;

use common::{run_passive, twin_study, SLACK_SECS, TWIN_SEEDS};
use kepler::bgpstream::BgpRecord;
use kepler::core::events::{IncidentState, OutageReport, OutageScope};
use kepler::core::{Kepler, KeplerConfig, TrackerState};
use kepler::glue::{detector, detector_for, Stack};
use kepler::netsim::fuzz;
use kepler::serve::store::{decode_snapshot, encode_snapshot};
use kepler::serve::wal::read_frames;
use kepler::serve::{
    Alert, AlertRouter, CallbackSink, Channel, Daemon, DaemonConfig, IncidentStore, ScopeStatus,
    StatusView, TokenBucket, Transition, ViewCell,
};
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kepler-serve-rec-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The state bytes two stores must agree on bit-for-bit. Sequence and
/// bin stamp are pinned so only the tracker state itself is compared.
fn state_bytes(state: &TrackerState) -> Vec<u8> {
    encode_snapshot(state, 0, 0)
}

/// Runs the kill-and-restart round trip for one twin-study seed:
/// daemon A is killed (dropped without `finish`) two commits after the
/// first live incident reaches the store; daemon B recovers from the
/// same directory and replays the remaining records.
fn kill_restart_roundtrip(seed: u64) {
    let study = twin_study(seed);
    let config = KeplerConfig::default();
    let baseline = run_passive(&study.scenario, config.clone());
    let records = study.scenario.records();

    let dir = tmpdir(&format!("kill-{seed}"));
    let mut daemon_config = DaemonConfig::new(dir.clone());
    // Small cadence so the kill point lands past at least one
    // compaction and recovery exercises WAL-over-snapshot, not WAL-only.
    daemon_config.snapshot_every_bins = 4;

    let mut daemon =
        Daemon::new(detector_for(&study.scenario, config.clone()), &daemon_config).unwrap();
    let mut committed = daemon.detector().export_incidents();
    let mut committed_bin = 0u64;
    let mut commits_seen = 0u64;
    let mut live_at_commit = None;
    let mut killed = false;

    for rec in records.iter().cloned() {
        daemon.ingest(rec).unwrap();
        if daemon.summary().commits == commits_seen {
            continue;
        }
        commits_seen = daemon.summary().commits;
        committed = daemon.detector().export_incidents();
        committed_bin = daemon.detector().last_bin_end();
        if live_at_commit.is_none() && !daemon.view().load().live().is_empty() {
            live_at_commit = Some(commits_seen);
        }
        // Kill two commits into the live incident so its onset bins are
        // durably closed but the outage is still in progress.
        if live_at_commit.is_some_and(|at| commits_seen >= at + 2) {
            killed = true;
            break;
        }
    }
    if !killed {
        // Some sweep seeds build worlds whose disturbance never crosses
        // the detection threshold; the kill point is then unreachable,
        // and the only correct durability outcome is "nothing to lose".
        assert!(
            baseline.is_empty(),
            "seed {seed}: baseline detects {baseline:?} but no live incident reached the store"
        );
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }
    assert!(
        !committed.ongoing.is_empty(),
        "seed {seed}: kill point has no open incident: {committed:?}"
    );
    // Crash: drop the daemon without `finish` — the WAL tail stays
    // exactly as the last fsync left it.
    drop(daemon);

    // (a) Recovery is bit-identical to the last committed export. The
    // durable bin stamp may trail the in-memory one: quiet bins write no
    // WAL frame (by design), so the stamp on disk is the last *framed*
    // commit — but the state across that gap is, by the same token,
    // unchanged.
    let (recovered, last_bin, _) = IncidentStore::recover_state(&dir).unwrap();
    assert!(
        last_bin <= committed_bin,
        "seed {seed}: recovered bin stamp {last_bin} ahead of the kill point {committed_bin}"
    );
    assert_eq!(
        state_bytes(&recovered),
        state_bytes(&committed),
        "seed {seed}: recovered state is not bit-identical to the committed export"
    );

    // (b) A restarted daemon resumes with the same open incidents…
    let mut daemon2 =
        Daemon::new(detector_for(&study.scenario, config.clone()), &daemon_config).unwrap();
    let recovery = daemon2.recovery().clone();
    assert!(
        recovery.had_snapshot || recovery.frames_applied > 0,
        "seed {seed}: restart recovered nothing: {recovery:?}"
    );
    assert_eq!(
        state_bytes(&daemon2.detector().export_incidents()),
        state_bytes(&committed),
        "seed {seed}: restarted detector does not carry the committed incidents"
    );
    assert!(
        !daemon2.view().load().live().is_empty(),
        "seed {seed}: restarted query view lost the open incident"
    );

    // …and replays the records the durable bins do not cover: the
    // stream is time-sorted, so that is everything at or after the
    // recovered bin boundary (the open bin plus any quiet, frameless
    // bins — replaying quiet bins is idempotent).
    let resume_idx = records.iter().position(|r| r.time >= last_bin).unwrap_or(records.len());
    daemon2.run_stream(records[resume_idx..].to_vec()).unwrap();
    let (resumed, _) = daemon2.finish().unwrap();

    // Final lifecycle agreement with the uninterrupted run: same
    // incident set, same states, same onsets; ends within the suite's
    // timing slack (probe cadence restarts on the recovered boundary).
    let key = |r: &kepler::core::events::OutageReport| (r.scope, r.state, r.start, r.end);
    let mut want: Vec<_> = baseline.iter().map(key).collect();
    let mut got: Vec<_> = resumed.iter().map(key).collect();
    want.sort();
    got.sort();
    assert_eq!(
        got.len(),
        want.len(),
        "seed {seed}: report count diverged\nbaseline: {want:?}\nresumed: {got:?}"
    );
    for (g, w) in got.iter().zip(&want) {
        assert_eq!((g.0, g.1), (w.0, w.1), "seed {seed}: scope/state diverged: {g:?} vs {w:?}");
        assert!(g.2.abs_diff(w.2) <= SLACK_SECS, "seed {seed}: onset diverged: {g:?} vs {w:?}");
        match (g.3, w.3) {
            (Some(ge), Some(we)) => {
                assert!(ge.abs_diff(we) <= SLACK_SECS, "seed {seed}: end diverged: {g:?} vs {w:?}")
            }
            (None, None) => {}
            _ => panic!("seed {seed}: closed/open diverged: {g:?} vs {w:?}"),
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_daemon_resumes_identically_across_seeds() {
    // ≥4 seeds per the acceptance criterion; the full canonical sweep.
    for &seed in &TWIN_SEEDS[..4] {
        kill_restart_roundtrip(seed);
    }
}

#[test]
fn killed_daemon_resumes_identically_across_seeds_tail() {
    for &seed in &TWIN_SEEDS[4..] {
        kill_restart_roundtrip(seed);
    }
}

/// Drives a raw [`IncidentStore`] (no snapshots) over a seeded scenario,
/// recording the WAL length and exported state after every commit.
fn store_trail(seed: u64, name: &str) -> (PathBuf, Vec<(u64, TrackerState)>) {
    let study = twin_study(seed);
    let mut detector = detector_for(&study.scenario, KeplerConfig::default());
    let dir = tmpdir(name);
    let (mut store, _) = IncidentStore::open(&dir, 0).unwrap();
    let wal = dir.join("wal.log");
    let mut trail = Vec::new();
    let mut seq = 0u64;
    for rec in study.scenario.records() {
        detector.process_record_owned(rec);
        if detector.bins_closed() > seq {
            seq = detector.bins_closed();
            let state = detector.export_incidents();
            store.commit_bin(seq, detector.last_bin_end(), &state).unwrap();
            trail.push((std::fs::metadata(&wal).unwrap().len(), state));
        }
    }
    drop(store);
    (dir, trail)
}

/// Index of the last commit that appended a WAL frame (the WAL grew).
fn last_framed_commit(trail: &[(u64, TrackerState)]) -> usize {
    let k = (1..trail.len())
        .rev()
        .find(|&i| trail[i].0 > trail[i - 1].0)
        .expect("scenario writes at least two WAL frames");
    assert_ne!(trail[k].1, trail[k - 1].1, "a frame means the state changed");
    k
}

#[test]
fn truncated_wal_tail_rolls_back_to_previous_commit() {
    let (dir, trail) = store_trail(7, "trunc");
    let k = last_framed_commit(&trail);
    // Chop 3 bytes off the final frame — a torn write that died
    // mid-`write_all`.
    let wal = dir.join("wal.log");
    let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    f.set_len(trail[k].0 - 3).unwrap();
    drop(f);
    let (state, _, rec) = IncidentStore::recover_state(&dir).unwrap();
    assert_eq!(
        state_bytes(&state),
        state_bytes(&trail[k - 1].1),
        "truncated tail must roll back to the previous durable commit"
    );
    assert_eq!(
        rec.dropped_bytes,
        trail[k].0 - 3 - trail[k - 1].0,
        "exactly the torn frame is dropped: {rec:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn commits_after_a_torn_tail_restart_survive_the_next_restart() {
    let (dir, trail) = store_trail(7, "torn-append");
    let k = last_framed_commit(&trail);
    let wal = dir.join("wal.log");
    let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    f.set_len(trail[k].0 - 3).unwrap();
    drop(f);
    // The read-only path reports the damage and leaves the file alone.
    let torn = std::fs::read(&wal).unwrap();
    let (_, _, rec) = IncidentStore::recover_state(&dir).unwrap();
    assert!(rec.dropped_bytes > 0, "{rec:?}");
    assert_eq!(std::fs::read(&wal).unwrap(), torn, "recover_state must not write");

    // A restarted writer cuts the tail, reports what it cut…
    let (mut store, opened) = IncidentStore::open(&dir, 0).unwrap();
    assert_eq!(opened.dropped_bytes, rec.dropped_bytes);
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), trail[k - 1].0, "intact prefix only");
    assert_eq!(state_bytes(store.state()), state_bytes(&trail[k - 1].1));
    // …and two state-changing commits later the log replays to the
    // live state: nothing sits behind bytes the scan stops at.
    let (_, other) = trail.iter().find(|(_, s)| *s != trail[k].1 && *s != trail[k - 1].1).unwrap();
    let seq = store.seq();
    store.commit_bin(seq + 1, store.last_bin() + 60, other).unwrap();
    store.commit_bin(seq + 2, store.last_bin() + 60, &trail[k].1).unwrap();
    assert!(std::fs::metadata(&wal).unwrap().len() > trail[k].0, "both commits wrote a frame");
    assert_ne!(state_bytes(store.state()), state_bytes(&trail[k - 1].1));
    let live = state_bytes(store.state());
    drop(store);
    let (state, _, rec) = IncidentStore::recover_state(&dir).unwrap();
    assert_eq!(state_bytes(&state), live, "commits after the restart were lost");
    assert_eq!(rec.dropped_bytes, 0, "{rec:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_frame_crc_rolls_back_to_previous_commit() {
    let (dir, trail) = store_trail(7, "torn");
    let k = last_framed_commit(&trail);
    // Flip one payload byte inside the final frame: length intact, CRC
    // mismatch.
    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    let n = bytes.len();
    assert_eq!(n as u64, trail[k].0);
    bytes[n - 1] ^= 0x01;
    std::fs::write(&wal, &bytes).unwrap();
    let (state, _, rec) = IncidentStore::recover_state(&dir).unwrap();
    assert_eq!(
        state_bytes(&state),
        state_bytes(&trail[k - 1].1),
        "a CRC-failed frame must roll back to the previous durable commit"
    );
    assert!(rec.dropped_bytes > 0, "{rec:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_plus_wal_replay_is_bit_identical_on_scenario() {
    // Aggressive compaction cadence: recovery must cross several
    // snapshot generations and still land on the exact export bytes.
    let study = twin_study(5);
    let mut detector = detector_for(&study.scenario, KeplerConfig::default());
    let dir = tmpdir("snapwal");
    let (mut store, _) = IncidentStore::open(&dir, 3).unwrap();
    let mut seq = 0u64;
    let mut last = TrackerState::default();
    for rec in study.scenario.records() {
        detector.process_record_owned(rec);
        if detector.bins_closed() > seq {
            seq = detector.bins_closed();
            last = detector.export_incidents();
            store.commit_bin(seq, detector.last_bin_end(), &last).unwrap();
        }
    }
    drop(store);
    let (state, _, rec) = IncidentStore::recover_state(&dir).unwrap();
    assert!(rec.had_snapshot, "cadence 3 must have compacted: {rec:?}");
    assert_eq!(
        state_bytes(&state),
        state_bytes(&last),
        "snapshot + WAL replay must reproduce the final export bit-for-bit"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The committed v1 store: written by the codec as it stood before the
/// `Wire` refactor, covering every enum arm, `Some`/`None` of every
/// optional, an IPv6 route key, and a WAL whose frames hold upserts and
/// removes in all three lifecycle maps plus a run-closed record.
const GOLDEN_STORE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/store-v1");

#[test]
fn golden_store_v1_decodes_and_reencodes_byte_identically() {
    let golden = Path::new(GOLDEN_STORE);
    let snapshot = std::fs::read(golden.join("snapshot.bin")).unwrap();
    let wal = std::fs::read(golden.join("wal.log")).unwrap();

    // The snapshot decodes to the state it was written from and encodes
    // back to the committed bytes.
    let (snap_state, snap_seq, snap_bin) = decode_snapshot(&snapshot).unwrap();
    assert_eq!((snap_seq, snap_bin), (1, 300));
    assert_eq!(encode_snapshot(&snap_state, snap_seq, snap_bin), snapshot);
    let kinds: Vec<u8> = snap_state
        .ongoing
        .iter()
        .map(|o| match o.scope {
            OutageScope::Facility(_) => 0,
            OutageScope::Ixp(_) => 1,
            OutageScope::City(_) => 2,
        })
        .collect();
    assert_eq!(kinds, [0, 1, 2], "one live incident per scope kind");
    let rich = &snap_state.ongoing[0];
    assert_eq!((rich.affected_keys.len(), rich.watch.len(), rich.evidence.len()), (4, 3, 3));
    assert_eq!((rich.probe_restored_at, rich.restored_first), (Some(350), Some(340)));
    assert_eq!(rich.sources.len(), 3);
    assert_eq!(snap_state.cooling.len(), 1);
    assert_eq!(snap_state.warming, [(OutageScope::Ixp(kepler::topology::IxpId(5)), 1, 240, 240)]);
    let states: Vec<_> = snap_state.finished.iter().map(|r| (r.state, r.end)).collect();
    assert_eq!(states, [(IncidentState::Closed, Some(20)), (IncidentState::Open, None)]);

    // The store as it stood after each WAL frame: recovery of the
    // snapshot plus the log cut behind that frame.
    let frames = read_frames(&golden.join("wal.log")).unwrap().frames;
    assert_eq!(frames.len(), 3);
    let mut cut = 8; // the WAL header
    let mut steps = Vec::new();
    for frame in &frames {
        cut += 8 + frame.len();
        let dir = tmpdir("golden-cut");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("snapshot.bin"), &snapshot).unwrap();
        std::fs::write(dir.join("wal.log"), &wal[..cut]).unwrap();
        let (store, recovery) = IncidentStore::open(&dir, 0).unwrap();
        assert_eq!(recovery.dropped_bytes, 0);
        steps.push((store.seq(), store.last_bin(), store.state().clone()));
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(cut, wal.len(), "the golden log has no damaged tail");
    let (closed, commits) = steps.split_last().unwrap();
    assert_eq!(commits.iter().map(|s| (s.0, s.1)).collect::<Vec<_>>(), [(2, 600), (3, 900)]);
    assert_eq!(commits[0].2.ongoing.len(), 2, "frame 1 removes a live incident");
    assert_eq!(commits[0].2.finished.len(), 3, "frame 1 appends a finished report");
    assert_eq!(commits[1].2.ongoing.len(), 3);
    assert_eq!((closed.0, closed.1), (5, 1500));
    assert!(closed.2.ongoing.is_empty() && closed.2.cooling.is_empty());
    assert_eq!(closed.2.finished.len(), 4);

    // Re-encode every frame: a store seeded with the snapshot alone
    // commits the same states and must write the same log.
    let dir = tmpdir("golden-replay");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("snapshot.bin"), &snapshot).unwrap();
    let (mut store, _) = IncidentStore::open(&dir, 0).unwrap();
    for (seq, bin_end, state) in commits {
        store.commit_bin(*seq, *bin_end, state).unwrap();
    }
    // The last frame is a run-closed record. `close_run` compacts right
    // after appending it, which restarts the log; a directory squatting
    // on the snapshot's tmp path makes that compaction fail — the crash
    // window between append and compaction — so the frame stays on disk.
    std::fs::create_dir(dir.join("snapshot.tmp")).unwrap();
    assert!(store.close_run(closed.0, closed.1, &closed.2.finished).is_err());
    assert_eq!(std::fs::read(dir.join("wal.log")).unwrap(), wal);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What one commit leaves behind: both store files and the published
/// view's `(as_of, seq, all())`.
type CommitTrace = (Vec<u8>, Option<Vec<u8>>, (u64, u64, Vec<ScopeStatus>));

fn commit_trace(dir: &Path, view: &StatusView) -> CommitTrace {
    (
        std::fs::read(dir.join("wal.log")).unwrap(),
        std::fs::read(dir.join("snapshot.bin")).ok(),
        (view.as_of, view.seq, view.all().into_iter().cloned().collect()),
    )
}

/// A capturing alert channel slow enough (burst 2, one token a minute)
/// that flap storms park alerts for a later bin's `flush` to deliver.
fn capture_channel() -> (Channel, Arc<Mutex<Vec<Alert>>>) {
    let captured = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&captured);
    let sink = CallbackSink(move |a: &Alert| log.lock().unwrap().push(a.clone()));
    (Channel::new("capture", Box::new(sink), TokenBucket::new(2, 60)), captured)
}

/// One run's commit-by-commit trace, per-commit record index and idle
/// flag, alert sequence and final reports.
struct TracedRun {
    commits: Vec<CommitTrace>,
    /// Index of the record whose ingest made each commit.
    at_record: Vec<usize>,
    /// Whether each commit took the daemon's O(1) path.
    idle: Vec<bool>,
    /// The committed state after each commit.
    states: Vec<TrackerState>,
    alerts: Vec<Alert>,
    reports: Vec<OutageReport>,
}

/// A cadence short enough that compactions come due over empty WALs.
const GATE_CADENCE: u64 = 8;

fn gate_daemon(detector: Kepler, dir: &Path) -> Daemon {
    let mut config = DaemonConfig::new(dir.to_path_buf());
    config.snapshot_every_bins = GATE_CADENCE;
    Daemon::new(detector, &config).unwrap()
}

/// The stream through [`Daemon`].
fn run_daemon(detector: Kepler, records: &[BgpRecord], dir: &Path) -> TracedRun {
    let mut daemon = gate_daemon(detector, dir);
    let (channel, captured) = capture_channel();
    daemon.add_channel(channel);
    let view = daemon.view();
    let (mut commits, mut at_record, mut idle, mut states) = (vec![], vec![], vec![], vec![]);
    let mut seen = daemon.summary();
    for (i, rec) in records.iter().cloned().enumerate() {
        daemon.ingest(rec).unwrap();
        let now = daemon.summary();
        if now.commits > seen.commits {
            commits.push(commit_trace(dir, &view.load()));
            at_record.push(i);
            idle.push(now.idle_commits > seen.idle_commits);
            states.push(daemon.detector().export_incidents());
            seen = now;
        }
    }
    let (reports, summary) = daemon.finish().unwrap();
    commits.push(commit_trace(dir, &view.load()));
    assert_eq!(summary.commits as usize, idle.len());
    assert_eq!(summary.idle_commits as usize, idle.iter().filter(|&&i| i).count());
    let alerts = captured.lock().unwrap().clone();
    TracedRun { commits, at_record, idle, states, alerts, reports }
}

/// The same stream through the ungated commit sequence — every closed
/// bin batch does `export_incidents` → `commit_bin` → `from_state`, the
/// way `benchmark/src/layers.rs::commit_pass` spells it out.
fn run_ungated(mut detector: Kepler, records: &[BgpRecord], dir: &Path) -> TracedRun {
    let (mut store, _) = IncidentStore::open(dir, GATE_CADENCE).unwrap();
    let cell = ViewCell::default();
    let mut router = AlertRouter::new();
    let (channel, captured) = capture_channel();
    router.add_channel(channel);
    let (mut commits, mut at_record, mut states) = (vec![], vec![], vec![]);
    let mut publish = |store: &IncidentStore, transitions: &[Transition], bin_end, seq| {
        router.dispatch(transitions, bin_end);
        router.flush(bin_end);
        cell.store(StatusView::from_state(store.state(), bin_end, seq));
        commits.push(commit_trace(dir, &cell.load()));
    };
    let mut seq = 0;
    for (i, rec) in records.iter().cloned().enumerate() {
        detector.process_record_owned(rec);
        if detector.bins_closed() == seq {
            continue;
        }
        seq = detector.bins_closed();
        let bin_end = detector.last_bin_end();
        let state = detector.export_incidents();
        let transitions = store.commit_bin(seq, bin_end, &state).unwrap();
        publish(&store, &transitions, bin_end, seq);
        at_record.push(i);
        states.push(state);
    }
    let reports = detector.finalize();
    let (seq, bin_end) = (detector.bins_closed() + 1, detector.last_bin_end());
    let transitions = store.close_run(seq, bin_end, &reports).unwrap();
    publish(&store, &transitions, bin_end, seq);
    router.drain();
    let alerts = captured.lock().unwrap().clone();
    TracedRun { commits, at_record, idle: Vec::new(), states, alerts, reports }
}

#[test]
fn revision_gate_commits_exactly_what_the_ungated_sequence_does() {
    for seed in [13, 10, 32] {
        let fw = fuzz::flapping(seed);
        let config =
            KeplerConfig::default().with_hysteresis(fw.script.open_after, fw.script.close_after);
        let detector = || detector(&fw.scenario, config.clone(), &Stack::Lifecycle);
        let records = fw.scenario.records();
        let (gated_dir, ungated_dir) =
            (tmpdir(&format!("gated-{seed}")), tmpdir(&format!("ungated-{seed}")));
        let gated = run_daemon(detector(), &records, &gated_dir);
        let ungated = run_ungated(detector(), &records, &ungated_dir);

        assert_eq!(gated.commits.len(), ungated.commits.len(), "seed {seed}: commit count");
        assert_eq!(gated.at_record, ungated.at_record, "seed {seed}: commit points");
        for (i, (g, u)) in gated.commits.iter().zip(&ungated.commits).enumerate() {
            assert!(g == u, "seed {seed}: commit {i} differs on disk or in the published view");
        }
        assert_eq!(gated.alerts, ungated.alerts, "seed {seed}: alert sequence");
        assert_eq!(gated.reports, ungated.reports, "seed {seed}: final reports");
        assert!(!gated.alerts.is_empty(), "seed {seed}: the flap raised no alert");
        // The gate is exact on this stream, not merely safe: a commit is
        // idle iff the export it would have made equals the last one.
        let mut last = TrackerState::default();
        let mut live_idle = 0;
        for (i, state) in gated.states.iter().enumerate() {
            assert_eq!(gated.idle[i], *state == last, "seed {seed}: commit {i} idleness");
            live_idle += (gated.idle[i] && !state.ongoing.is_empty()) as usize;
            last = state.clone();
        }
        assert!(live_idle > 0, "seed {seed}: no idle bin under an open incident");

        // Restart mid-stream, at a commit with an incident open and dark
        // whose next commit was idle: the restarted daemon starts from
        // the imported revision, so that next commit is idle again.
        let k = (0..gated.idle.len() - 1)
            .find(|&k| {
                let open = &gated.states[k].ongoing;
                gated.idle[k + 1]
                    && !open.is_empty()
                    && open.iter().all(|o| o.live_state() == IncidentState::Open)
            })
            .unwrap_or_else(|| panic!("seed {seed}: no dark commit followed by an idle one"));
        let dir = tmpdir(&format!("gate-restart-{seed}"));
        let mut killed = gate_daemon(detector(), &dir);
        for rec in &records[..=gated.at_record[k]] {
            killed.ingest(rec.clone()).unwrap();
        }
        assert_eq!(killed.summary().commits as usize, k + 1);
        drop(killed);
        let mut restarted = gate_daemon(detector(), &dir);
        assert_eq!(restarted.detector().export_incidents(), gated.states[k]);
        let before = restarted.view().load();
        for rec in &records[gated.at_record[k] + 1..] {
            restarted.ingest(rec.clone()).unwrap();
            if restarted.summary().commits > 0 {
                break;
            }
        }
        let summary = restarted.summary();
        assert_eq!((summary.commits, summary.idle_commits), (1, 1), "seed {seed}: after restart");
        let after = restarted.view().load();
        assert!(after.seq > before.seq && after.as_of > before.as_of);
        assert_eq!(after.all(), before.all(), "seed {seed}: an idle bin republishes the same map");
        for dir in [gated_dir, ungated_dir, dir] {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Names the store directory a re-executed child of
/// [`replay_is_byte_identical_across_processes`] writes into.
const REPLAY_DIR_ENV: &str = "KEPLER_REPLAY_DIR";

/// A same-metro cascade whose second building's signal joins the first
/// building's incident, which then abstracts to the city.
const CASCADE_SEED: u64 = 0;

/// How many times a live or cooling incident left both tables without
/// finishing between two commits: another scope's entry absorbed it.
fn cross_scope_merges(states: &[TrackerState]) -> usize {
    let held = |s: &TrackerState| -> BTreeSet<OutageScope> {
        s.ongoing.iter().map(|o| o.scope).chain(s.cooling.iter().map(|c| c.0)).collect()
    };
    states
        .windows(2)
        .map(|w| {
            let after = held(&w[1]);
            let finished: BTreeSet<OutageScope> =
                w[1].finished[w[0].finished.len()..].iter().map(|r| r.scope).collect();
            held(&w[0]).iter().filter(|s| !after.contains(s) && !finished.contains(s)).count()
        })
        .sum()
}

/// The child's half: one cascade replay through [`Daemon`] into `dir`,
/// leaving the store files, the alert lines and a digest of every
/// commit's on-disk bytes and published view.
fn replay_child(dir: &Path) {
    let fw = fuzz::cascade(CASCADE_SEED);
    let config =
        KeplerConfig::default().with_hysteresis(fw.script.open_after, fw.script.close_after);
    let run =
        run_daemon(detector(&fw.scenario, config, &Stack::Lifecycle), &fw.scenario.records(), dir);
    assert!(cross_scope_merges(&run.states) > 0, "the cascade never merged across scopes");
    let alerts: String = run.alerts.iter().map(|a| format!("{a}\n")).collect();
    std::fs::write(dir.join("alerts.txt"), alerts).unwrap();
    // `DefaultHasher::new` has fixed keys: the digest is the same in
    // every process running this binary.
    let trail: String = run
        .commits
        .iter()
        .map(|(wal, snapshot, view)| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            (wal, snapshot, format!("{view:?}")).hash(&mut h);
            format!("{:016x}\n", h.finish())
        })
        .collect();
    std::fs::write(dir.join("commits.txt"), trail).unwrap();
}

/// ARCHITECTURE.md "The serve layer": replaying the same stream yields the same
/// store bytes and the same alert sequence — in two processes, whose
/// std hash seeds differ, not only twice in one.
#[test]
fn replay_is_byte_identical_across_processes() {
    if let Ok(dir) = std::env::var(REPLAY_DIR_ENV) {
        return replay_child(Path::new(&dir));
    }
    let dirs = [tmpdir("replay-a"), tmpdir("replay-b")];
    for dir in &dirs {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "replay_is_byte_identical_across_processes", "--nocapture"])
            .env(REPLAY_DIR_ENV, dir)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "child failed:\n{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
    for file in ["wal.log", "snapshot.bin", "alerts.txt", "commits.txt"] {
        let [a, b] = dirs.each_ref().map(|d| std::fs::read(d.join(file)).unwrap());
        assert!(a == b, "{file} differs between the two processes");
    }
    for dir in dirs {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
