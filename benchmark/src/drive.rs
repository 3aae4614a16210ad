//! The end-to-end driver: one pass from MRT bytes to a finished `Daemon`,
//! its commit-stall clock, the status reads after it, and the oracle that
//! checks what it produced.

use crate::workload::{merged_stream, Built};
use kepler::bgpstream::Timestamp;
use kepler::core::events::OutageScope;
use kepler::core::TrackerState;
use kepler::netsim::scenario::Scenario;
use kepler::serve::store::encode_snapshot;
use kepler::serve::{
    CallbackSink, Channel, Daemon, DaemonConfig, IncidentStore, TokenBucket, ViewCell,
};
use std::collections::HashMap;
use std::fs::File;
use std::hint::black_box;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Status reads timed after every pass.
pub const QUERY_READS: u64 = 2_000_000;

/// Where the benchmark writes: the store of the pass under way and the
/// trace. Inside the checkout, so on the checkout's filesystem.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Removes `dir` and what it holds, if it exists.
pub fn remove_dir(dir: &Path) -> std::io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// The on-CPU clock of the thread that opened it: nanoseconds the thread has
/// run, not counting time it was blocked (an `fsync`, a lock) or preempted.
/// The end-to-end times are read off this clock, because a benchmark may
/// write only inside its checkout and so cannot keep this machine's disk out
/// of a wall clock any other way.
pub struct CpuClock {
    schedstat: File,
}

impl CpuClock {
    /// Opens the clock of the calling thread (`/proc/thread-self/schedstat`).
    pub fn for_this_thread() -> std::io::Result<CpuClock> {
        Ok(CpuClock { schedstat: File::open("/proc/thread-self/schedstat")? })
    }

    /// On-CPU nanoseconds so far. Yields first: the kernel books a running
    /// thread's time at scheduler events only, and a yield is the cheapest
    /// one (0.7 us for the pair, a constant in every interval measured).
    pub fn now_ns(&self) -> u64 {
        std::thread::yield_now();
        let mut buf = [0u8; 64];
        let n = self.schedstat.read_at(&mut buf, 0).expect("schedstat stays readable");
        let run_ns = buf[..n].split(|b| *b == b' ').next().unwrap_or_default();
        std::str::from_utf8(run_ns).ok().and_then(|s| s.parse().ok()).expect("schedstat run time")
    }

    /// Seconds of on-CPU time since `start_ns`.
    pub fn secs_since(&self, start_ns: u64) -> f64 {
        (self.now_ns() - start_ns) as f64 / 1e9
    }
}

/// Rounds of the calibration loop: about 5 ms.
const CALIBRATION_ROUNDS: u64 = 200_000;
/// On-CPU time of one calibration round at reference speed — this box on a
/// quiet half-hour.
const REFERENCE_NS_PER_ROUND: f64 = 17.5;

/// How fast the machine runs right now, relative to the reference speed
/// (above 1 is faster): the on-CPU time of a fixed loop of standard-library
/// work — two atomic updates and one `HashMap` lookup per round, the mix a
/// status read is made of, on data that stays in cache. A shared host runs
/// everything a quarter slower for half an hour at a time; the end-to-end
/// times are multiplied by the speed measured around them, which states
/// them at reference speed.
pub fn machine_speed(clock: &CpuClock) -> f64 {
    let map: HashMap<u64, u64> = (0..64).map(|k| (k, k)).collect();
    let gate = AtomicU64::new(0);
    let start = clock.now_ns();
    let mut found = 0u64;
    for round in 0..CALIBRATION_ROUNDS {
        gate.fetch_add(1, Ordering::SeqCst);
        found += map.get(&(round % 64)).copied().unwrap_or_default();
        gate.fetch_sub(1, Ordering::SeqCst);
    }
    black_box(found);
    let ns_per_round = (clock.now_ns() - start) as f64 / CALIBRATION_ROUNDS as f64;
    REFERENCE_NS_PER_ROUND / ns_per_round
}

/// The alert channel every benchmarked daemon carries: a counting sink
/// behind the token bucket `repro serve` gives its file channel.
pub fn alert_channel(delivered: Arc<AtomicU64>) -> Channel {
    let sink = CallbackSink(move |_: &kepler::serve::Alert| {
        // A statistic: it publishes nothing else.
        delivered.fetch_add(1, Ordering::Relaxed);
    });
    Channel::new("bench", Box::new(sink), TokenBucket::new(64, 1))
}

/// Every facility and IXP of the world: the scopes status reads cycle over,
/// most of them never down.
pub fn query_scopes(scenario: &Scenario) -> Vec<OutageScope> {
    let colo = &scenario.world.colo;
    let facilities = colo.facilities().iter().map(|f| OutageScope::Facility(f.id));
    facilities.chain(colo.ixps().iter().map(|x| OutageScope::Ixp(x.id))).collect()
}

/// `reads` status reads (`ViewCell::load` + `StatusView::is_down`) on the
/// published view; returns on-CPU seconds taken.
fn timed_reads(clock: &CpuClock, cell: &ViewCell, scopes: &[OutageScope], reads: u64) -> f64 {
    let start = clock.now_ns();
    let mut down = 0u64;
    for (_, scope) in (0..reads).zip(scopes.iter().cycle()) {
        down += u64::from(cell.load().is_down(*scope));
    }
    black_box(down);
    clock.secs_since(start)
}

/// Decides which `Daemon::ingest` calls are clocked as commit stalls: those
/// whose record lies in a later bin than the one the daemon last committed
/// from. Of these, the caller keeps the ones that raised `commits`. A record
/// that crosses a boundary without closing the bin (it carried no route
/// event) leaves the bin open, so the next record is clocked again.
#[derive(Debug)]
pub struct StallClassifier {
    bin_secs: u64,
    open_bin: Option<u64>,
}

impl StallClassifier {
    pub fn new(bin_secs: u64) -> StallClassifier {
        StallClassifier { bin_secs, open_bin: None }
    }

    /// Whether the ingest of a record stamped `time` is to be clocked.
    pub fn crosses(&self, time: Timestamp) -> bool {
        self.open_bin.is_some_and(|open| time / self.bin_secs > open)
    }

    /// Records the outcome of the ingest of a record stamped `time`.
    pub fn settle(&mut self, time: Timestamp, committed: bool) {
        if committed || self.open_bin.is_none() {
            self.open_bin = Some(time / self.bin_secs);
        }
    }
}

/// One layer-boundary span of the traced pass. `id` is the record index,
/// shared by the spans of one record; `parent` indexes the span list.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans of one pass, kept in memory until the benchmark ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer pre-sized for a pass over `records` records.
    pub fn new(records: u64) -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(2 * records as usize + 2) }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, id: u64, parent: Option<u32>, start_ns: u64) {
        let end_ns = self.now();
        self.spans.push(Span { name, id, parent, start_ns, end_ns });
    }
}

/// What one pass measured and whether the oracle accepted it.
#[derive(Debug, Default)]
pub struct PassOutcome {
    /// Wall time from building the merged stream to `Daemon::finish`.
    pub secs: f64,
    /// On-CPU time of the driving thread over the same interval.
    pub cpu_secs: f64,
    /// Machine speed around the pass (mean of before and after).
    pub speed: f64,
    /// Records offered to `Daemon::ingest`.
    pub records: u64,
    pub commits: u64,
    pub transitions: u64,
    pub alerts_delivered: u64,
    /// (routes, pops, asns) interned by the end of the stream.
    pub interned: (usize, usize, usize),
    pub view_scopes: usize,
    /// On-CPU nanoseconds per status read, at reference speed.
    pub query_ns_per_read: f64,
    /// Status reads per second of the reader thread, if the workload has one.
    pub reader_reads_per_s: Option<f64>,
    /// Why the oracle rejected the pass; every record of it then failed.
    pub failure: Option<String>,
}

/// Replays the workload once: per-collector archive → `MrtSource` →
/// `MergedStream` → `Daemon::ingest` per record → `Daemon::finish`, then
/// status reads on the final view and the oracle. Commit stalls (on-CPU
/// microseconds at reference speed) are appended to `stalls_us`; with a
/// tracer, every `next` and `ingest` gets a span.
pub fn drive_archive(
    built: &Built,
    store_dir: &Path,
    stalls_us: &mut Vec<f64>,
    mut tracer: Option<&mut Tracer>,
) -> PassOutcome {
    let mut outcome = PassOutcome::default();
    let first_stall = stalls_us.len();
    let mut run = || -> Result<(), String> {
        let io = |e: std::io::Error| format!("store I/O failed: {e}");
        let clock = CpuClock::for_this_thread().map_err(|e| format!("no on-CPU clock: {e}"))?;
        let speed_before = machine_speed(&clock);
        remove_dir(store_dir).map_err(io)?;
        let delivered = Arc::new(AtomicU64::new(0));
        let mut daemon = Daemon::new(built.detector(), &DaemonConfig::new(store_dir.to_path_buf()))
            .map_err(io)?;
        daemon.add_channel(alert_channel(Arc::clone(&delivered)));
        let cell = daemon.view();
        let scopes = query_scopes(&built.scenario);
        let mut classifier = StallClassifier::new(built.config.bin_secs);
        let stop = AtomicBool::new(false);

        let (reports, summary) = std::thread::scope(|scope| {
            let reader = built.spec.reader.then(|| {
                scope.spawn(|| {
                    let (start, mut reads) = (Instant::now(), 0u64);
                    while !stop.load(Ordering::SeqCst) {
                        for s in &scopes {
                            black_box(cell.load().is_down(*s));
                        }
                        reads += scopes.len() as u64;
                    }
                    reads as f64 / start.elapsed().as_secs_f64()
                })
            });
            let (start, cpu_start) = (Instant::now(), clock.now_ns());
            let root = tracer.as_deref_mut().map(|t| (t.now(), t.spans.len() as u32));
            if let Some(t) = tracer.as_deref_mut() {
                // Placeholder, closed when the pass ends.
                t.spans.push(Span { name: "pass", id: 0, parent: None, start_ns: 0, end_ns: 0 });
            }
            let parent = root.map(|(_, index)| index);
            let mut stream = merged_stream(&built.archives);
            let result = loop {
                let t0 = tracer.as_deref().map(Tracer::now);
                let Some(record) = stream.next() else { break Ok(()) };
                let t1 = tracer.as_deref_mut().map(|t| {
                    t.push("bgpstream.next", outcome.records, parent, t0.unwrap_or(0));
                    t.now()
                });
                let time = record.time;
                let clocked = classifier.crosses(time).then(|| clock.now_ns());
                let commits = daemon.summary().commits;
                if let Err(e) = daemon.ingest(record) {
                    break Err(io(e));
                }
                let committed = daemon.summary().commits > commits;
                if let (Some(stall_start), true) = (clocked, committed) {
                    stalls_us.push((clock.now_ns() - stall_start) as f64 / 1e3);
                }
                classifier.settle(time, committed);
                if let Some(t) = tracer.as_deref_mut() {
                    t.push("serve.daemon.ingest", outcome.records, parent, t1.unwrap_or(0));
                }
                outcome.records += 1;
            };
            let interner = daemon.detector().interner();
            outcome.interned = (interner.routes_len(), interner.pops_len(), interner.asns_len());
            let finished = result.and_then(|()| daemon.finish().map_err(io));
            outcome.cpu_secs = clock.secs_since(cpu_start);
            outcome.secs = start.elapsed().as_secs_f64();
            if let (Some(t), Some((start_ns, index))) = (tracer.as_deref_mut(), root) {
                let end_ns = t.now();
                t.spans[index as usize] = Span { start_ns, end_ns, ..t.spans[index as usize] };
            }
            stop.store(true, Ordering::SeqCst);
            if let Some(reader) = reader {
                outcome.reader_reads_per_s = Some(reader.join().expect("reader thread panicked"));
            }
            finished
        })?;

        outcome.commits = summary.commits;
        outcome.transitions = summary.transitions;
        outcome.alerts_delivered = delivered.load(Ordering::Relaxed);
        outcome.view_scopes = cell.load().len();
        let read_secs = timed_reads(&clock, &cell, &scopes, QUERY_READS);
        outcome.speed = (speed_before + machine_speed(&clock)) / 2.0;
        outcome.query_ns_per_read = read_secs * outcome.speed * 1e9 / QUERY_READS as f64;
        for stall in &mut stalls_us[first_stall..] {
            *stall *= outcome.speed;
        }

        // The oracle.
        let expected = built.fingerprint.records;
        if outcome.records != expected || summary.events != expected {
            return Err(format!(
                "{} of {expected} records reached the daemon: an archive failed to decode",
                outcome.records
            ));
        }
        if reports != built.reference.reports {
            return Err(format!(
                "{} reports differ from the {} of the reference run",
                reports.len(),
                built.reference.reports.len()
            ));
        }
        let (recovered, last_bin, _) = IncidentStore::recover_state(store_dir).map_err(io)?;
        let exported = TrackerState { finished: reports, ..TrackerState::default() };
        if encode_snapshot(&recovered, 0, last_bin)
            != encode_snapshot(&exported, 0, built.reference.last_bin_end)
        {
            return Err("the recovered store does not re-encode to the final export".into());
        }
        Ok(())
    };
    outcome.failure = run().err();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SMOKE;

    /// A daemon that commits exactly when a record with a route event
    /// enters a later bin — the monitor's bin clock, in miniature.
    struct ModelDaemon {
        bin: Option<u64>,
        commits: u64,
    }

    impl ModelDaemon {
        fn ingest(&mut self, time: u64, has_event: bool) {
            if has_event {
                if self.bin.is_some_and(|b| time / 60 > b) {
                    self.commits += 1;
                }
                self.bin = Some(time / 60);
            }
        }
    }

    #[test]
    fn cpu_clock_counts_running_not_sleeping() {
        let clock = CpuClock::for_this_thread().expect("Linux schedstat");
        let (start, wall) = (clock.now_ns(), Instant::now());
        while wall.elapsed().as_millis() < 5 {
            std::hint::spin_loop();
        }
        let ran = clock.secs_since(start);
        assert!((0.003..0.006).contains(&ran), "5 ms of spinning read {ran} s");
        let start = clock.now_ns();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = clock.secs_since(start);
        assert!(slept < 0.003, "30 ms of sleep read {slept} s on the CPU");
    }

    #[test]
    fn stall_classifier_on_a_three_bin_stream() {
        // Bin 0: 0..60, bin 1: 60..120, bin 2: 120..180. The record at 121
        // crosses into bin 2 without a route event, so 125 closes the bin.
        let stream = [(0, true), (10, true), (59, true), (60, true), (61, true), (119, false)];
        let stream = stream.into_iter().chain([(121, false), (125, true), (126, true)]);
        let mut daemon = ModelDaemon { bin: None, commits: 0 };
        let mut classifier = StallClassifier::new(60);
        let (mut clocked, mut stalls) = (Vec::new(), Vec::new());
        for (time, has_event) in stream {
            let crosses = classifier.crosses(time);
            let before = daemon.commits;
            daemon.ingest(time, has_event);
            let committed = daemon.commits > before;
            if crosses {
                clocked.push(time);
                if committed {
                    stalls.push(time);
                }
            }
            classifier.settle(time, committed);
        }
        assert_eq!(clocked, [60, 121, 125], "only boundary-crossing calls are clocked");
        assert_eq!(stalls, [60, 125], "and only those that commit are kept");
        assert_eq!(daemon.commits, 2);
    }

    #[test]
    fn a_pass_over_the_smoke_workload_satisfies_the_oracle() {
        let built = Built::new(SMOKE, 11);
        let dir = out_dir().join(format!("test-store-{}", std::process::id()));
        let mut stalls = Vec::new();
        let mut tracer = Tracer::new(built.fingerprint.records);
        let outcome = drive_archive(&built, &dir, &mut stalls, Some(&mut tracer));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(outcome.failure, None);
        assert_eq!(outcome.records, built.fingerprint.records);
        assert_eq!(stalls.len() as u64, outcome.commits, "every commit is a clocked stall");
        assert_eq!(tracer.spans.len() as u64, 2 * outcome.records + 1);
        let root = tracer.spans[0];
        assert!(tracer.spans[1..].iter().all(|s| {
            s.parent == Some(0) && s.start_ns >= root.start_ns && s.end_ns <= root.end_ns
        }));
    }

    #[test]
    fn a_pass_that_disagrees_with_the_reference_fails() {
        let mut built = Built::new(SMOKE, 11);
        built.reference.reports.pop().expect("the smoke study has reports");
        let dir = out_dir().join(format!("test-store-bad-{}", std::process::id()));
        let outcome = drive_archive(&built, &dir, &mut Vec::new(), None);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(outcome.failure.expect("mismatch is caught").contains("reference run"));
    }
}
