//! The serve daemon: a long-running shell around [`Kepler`] that tails
//! collector input, commits incident state durably once per closed bin,
//! fans alerts out, and publishes an O(1) query view.
//!
//! Clocking is deterministic: everything — WAL commits, alert
//! timestamps, the published view's `as_of` — is stamped with the
//! detector's bin clock ([`Kepler::last_bin_end`]), never wall time.
//! Replaying the same stream yields the same store bytes and the same
//! alert sequence.
//!
//! Backpressure: [`Daemon::run_stream`] pulls records through a
//! **bounded** channel. The producer blocks when the daemon falls
//! behind; records are never dropped.
//!
//! Restart: [`Daemon::new`] recovers snapshot+WAL state from the store
//! directory and seeds the fresh detector with it
//! ([`Kepler::import_incidents`]), so a killed daemon resumes with the
//! same open incidents, lifecycle clocks, and evidence ledgers it had
//! durably committed.

use crate::alert::{AlertRouter, Channel};
use crate::query::{StatusView, ViewCell};
use crate::store::{IncidentStore, RecoveryReport, Transition};
use kepler_bgpstream::{BgpRecord, Timestamp};
use kepler_core::events::OutageReport;
use kepler_core::Kepler;
use std::io;
use std::path::PathBuf;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Directory holding `snapshot.bin` and `wal.log`.
    pub store_dir: PathBuf,
    /// Compact the WAL into a snapshot every N committed bins
    /// (0 = only at shutdown).
    pub snapshot_every_bins: u64,
    /// Bound of the ingest queue used by [`Daemon::run_stream`]. A full
    /// queue blocks the producer (backpressure), never drops.
    pub queue_depth: usize,
}

impl DaemonConfig {
    /// Defaults: compact every 64 bins, queue depth 1024.
    pub fn new(store_dir: PathBuf) -> DaemonConfig {
        DaemonConfig { store_dir, snapshot_every_bins: 64, queue_depth: 1024 }
    }
}

/// Counters for one daemon run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Records ingested.
    pub events: u64,
    /// Bin batches committed to the store.
    pub commits: u64,
    /// Of those, batches that changed no incident: the O(1) path.
    pub idle_commits: u64,
    /// Lifecycle transitions observed.
    pub transitions: u64,
    /// Snapshots the store wrote.
    pub compactions: u64,
    /// Compaction cadences that found no WAL frame to fold in.
    pub compactions_deferred: u64,
}

/// A live detector wrapped with durability, alerting, and a query view.
pub struct Daemon {
    detector: Kepler,
    store: IncidentStore,
    router: AlertRouter,
    view: Arc<ViewCell>,
    /// The view last stored in `view`: an idle commit restamps it, so
    /// the daemon never loads its own cell.
    published: StatusView,
    recovery: RecoveryReport,
    /// Store sequence at startup: the fresh detector's bin counter
    /// restarts at zero, so committed sequences are `seq_base +
    /// bins_closed` to stay monotone across restarts.
    seq_base: u64,
    /// [`Kepler::incident_revision`] of the state the store holds.
    committed_revision: u64,
    queue_depth: usize,
    summary: RunSummary,
}

impl Daemon {
    /// Wraps `detector` with the durable store under
    /// `config.store_dir`, recovering any previously committed incident
    /// state into it.
    pub fn new(mut detector: Kepler, config: &DaemonConfig) -> io::Result<Daemon> {
        let (store, recovery) = IncidentStore::open(&config.store_dir, config.snapshot_every_bins)?;
        let recovered = store.state();
        if recovered != &kepler_core::TrackerState::default() {
            detector.import_incidents(recovered);
        }
        let published = StatusView::from_state(store.state(), store.last_bin(), store.seq());
        let seq_base = store.seq();
        Ok(Daemon {
            committed_revision: detector.incident_revision(),
            detector,
            store,
            router: AlertRouter::new(),
            view: Arc::new(ViewCell::new(published.clone())),
            published,
            recovery,
            seq_base,
            queue_depth: config.queue_depth.max(1),
            summary: RunSummary::default(),
        })
    }

    /// Registers an alert channel.
    pub fn add_channel(&mut self, channel: Channel) {
        self.router.add_channel(channel);
    }

    /// The shared query cell. Clone the `Arc` into as many reader
    /// threads as you like; each [`ViewCell::load`] is O(1).
    pub fn view(&self) -> Arc<ViewCell> {
        Arc::clone(&self.view)
    }

    /// What recovery found at startup.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Counters so far.
    pub fn summary(&self) -> RunSummary {
        let (compactions, compactions_deferred) = self.store.compactions();
        RunSummary { compactions, compactions_deferred, ..self.summary }
    }

    /// The wrapped detector.
    pub fn detector(&self) -> &Kepler {
        &self.detector
    }

    /// Feeds one record, committing durably if it closed a bin.
    pub fn ingest(&mut self, record: BgpRecord) -> io::Result<()> {
        self.detector.process_record_owned(record);
        self.summary.events += 1;
        self.commit_closed_bins()
    }

    /// Commits any bins the detector closed since the last commit: one
    /// WAL frame (fsynced) per batch, alert dispatch, view publish. With
    /// the incident revision where the last commit found it there is no
    /// delta, no transition and the same scope map: only the stamps move.
    fn commit_closed_bins(&mut self) -> io::Result<()> {
        let seq = self.seq_base + self.detector.bins_closed();
        if seq <= self.store.seq() {
            return Ok(());
        }
        let bin_end = self.detector.last_bin_end();
        let revision = self.detector.incident_revision();
        if revision == self.committed_revision {
            debug_assert!(self.detector.export_incidents() == *self.store.state(), "stale gate");
            self.store.advance(seq, bin_end)?;
            // The same scope map (a pointer copy) under this bin's stamps.
            (self.published.as_of, self.published.seq) = (bin_end, seq);
            self.view.store(self.published.clone());
            self.router.flush(bin_end);
            self.summary.idle_commits += 1;
        } else {
            let state = self.detector.export_incidents();
            let transitions = self.store.commit_bin(seq, bin_end, &state)?;
            self.committed_revision = revision;
            self.publish(bin_end, seq, &transitions);
        }
        self.summary.commits += 1;
        Ok(())
    }

    fn publish(&mut self, bin_end: Timestamp, seq: u64, transitions: &[Transition]) {
        self.summary.transitions += transitions.len() as u64;
        self.router.dispatch(transitions, bin_end);
        self.router.flush(bin_end);
        self.published = StatusView::from_state(self.store.state(), bin_end, seq);
        self.view.store(self.published.clone());
    }

    /// Pulls a whole record stream through a bounded queue: the producer
    /// thread blocks when the daemon falls behind (backpressure — slow
    /// consumers stall ingest, they never drop events). Does **not**
    /// finish the run; call [`finish`](Self::finish) afterwards.
    pub fn run_stream<I>(&mut self, records: I) -> io::Result<()>
    where
        I: IntoIterator<Item = BgpRecord>,
        I::IntoIter: Send,
    {
        let depth = self.queue_depth;
        let iter = records.into_iter();
        let mut result = Ok(());
        std::thread::scope(|scope| {
            let (tx, rx) = sync_channel::<BgpRecord>(depth);
            scope.spawn(move || {
                for rec in iter {
                    // A closed receiver means the consumer hit an I/O
                    // error and bailed; stop producing.
                    if tx.send(rec).is_err() {
                        return;
                    }
                }
            });
            for rec in rx {
                if let Err(e) = self.ingest(rec) {
                    result = Err(e);
                    break;
                }
            }
            // Dropping `rx` (loop end or break) unblocks the producer.
        });
        result
    }

    /// Closes the run: flushes the detector's trailing bins, records the
    /// final report set, force-delivers parked alerts, compacts the
    /// store, and publishes the final view. Returns the finalized
    /// reports.
    pub fn finish(mut self) -> io::Result<(Vec<OutageReport>, RunSummary)> {
        let reports = self.detector.finalize();
        let seq = self.seq_base + self.detector.bins_closed() + 1;
        let bin_end = self.detector.last_bin_end();
        let transitions = self.store.close_run(seq, bin_end, &reports)?;
        self.publish(bin_end, seq, &transitions);
        self.router.drain();
        Ok((reports, self.summary()))
    }
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("store", &self.store.dir())
            .field("seq", &self.store.seq())
            .field("recovery", &self.recovery)
            .field("summary", &self.summary)
            .finish()
    }
}
