//! The per-layer ledger of a traced run, measured from outside the program
//! by timing calls into each layer's public functions:
//!
//! * a **ladder** of cumulative rungs over the same archives — a rung adds
//!   one layer to the one before, so a layer's self time is the difference;
//! * artefacts captured on the way handed to the one layer that consumes
//!   them: resolved `BinOutcome`s replayed through the investigator, and
//!   per-commit `TrackerState`s and `Transition`s passed through store,
//!   view and alert router at the moment the daemon would;
//! * **timing wrappers** around the probe engine and the simulated data
//!   plane, which run inside the detector's clock.
//!
//! Everything here is this machine's wall clock, disk included and not
//! scaled to reference speed: the rows are compared with each other and with
//! the untraced wall-clock pass of the same run, never gated.

use crate::drive::{alert_channel, out_dir, remove_dir, PassOutcome, Span};
use crate::json::Metric;
use crate::stats::{median, Dist};
use crate::workload::{merged_stream, Built, Stack};
use kepler::bgp::mrt::{FrameView, MrtError, MrtReader};
use kepler::bgp::Asn;
use kepler::bgpstream::{GapTracker, Timestamp};
use kepler::core::events::OutageReport;
use kepler::core::input::InputModule;
use kepler::core::investigate::Investigator;
use kepler::core::monitor::{BinOutcome, Monitor};
use kepler::core::signal::{DelayDetector, ForecastDetector};
use kepler::core::{DenseRouteEvent, Interner, Kepler, TrackerState};
use kepler::docmine::LocationTag;
use kepler::glue::{self, FusionOptions, SimTraceBackend};
use kepler::probe::{
    BackendHealth, Epicenter, ProbeEngine, ProbeEngineConfig, ProbeReport, ProbeRequest, Prober,
    RestorationProber, RestorationReport, SyncAdapter, Trace, TraceBackend,
};
use kepler::serve::store::{decode_snapshot, encode_snapshot};
use kepler::serve::{AlertRouter, DaemonConfig, IncidentStore, StatusView, Transition, ViewCell};
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

/// Rounds of the ladder; a rung's time is the median over the rounds.
const LADDER_PASSES: usize = 5;
/// Repetitions of the snapshot encode and decode timings.
const CODEC_REPS: usize = 21;

fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn us_since(start: Instant) -> f64 {
    secs_since(start) * 1e6
}

/// Time spent in the probe engine and the simulated data plane.
#[derive(Default)]
struct ProbeClock {
    validate_us: RefCell<Vec<f64>>,
    campaigns: Cell<u64>,
    traces: Cell<u64>,
    trace_us: Cell<f64>,
}

/// The simulated data plane behind a stopwatch.
struct TimedBackend {
    inner: SimTraceBackend,
    clock: Rc<ProbeClock>,
}

impl TraceBackend for TimedBackend {
    fn trace(&self, vantage: Asn, target: Asn, t: Timestamp) -> Trace {
        let start = Instant::now();
        let trace = self.inner.trace(vantage, target, t);
        self.clock.trace_us.set(self.clock.trace_us.get() + us_since(start));
        self.clock.traces.set(self.clock.traces.get() + 1);
        trace
    }
}

/// A probe engine behind a stopwatch: validation and restoration campaigns.
struct TimedProber<P> {
    inner: P,
    clock: Rc<ProbeClock>,
}

impl<P: Prober> Prober for TimedProber<P> {
    fn validate(&mut self, request: &ProbeRequest, now: Timestamp) -> ProbeReport {
        let start = Instant::now();
        let report = self.inner.validate(request, now);
        self.clock.validate_us.borrow_mut().push(us_since(start));
        self.clock.campaigns.set(self.clock.campaigns.get() + 1);
        report
    }

    fn health(&self) -> BackendHealth {
        self.inner.health()
    }
}

impl<P: RestorationProber> RestorationProber for TimedProber<P> {
    fn check(
        &mut self,
        epicenter: Epicenter,
        targets: &[Asn],
        incident_start: Timestamp,
        now: Timestamp,
    ) -> RestorationReport {
        self.clock.campaigns.set(self.clock.campaigns.get() + 1);
        self.inner.check(epicenter, targets, incident_start, now)
    }
}

fn timed_backend(built: &Built, clock: &Rc<ProbeClock>) -> TimedBackend {
    let scenario = &built.scenario;
    TimedBackend {
        inner: SimTraceBackend::new(
            Arc::new(scenario.world.clone()),
            &scenario.timeline,
            scenario.seed ^ 0x9B0E,
        ),
        clock: Rc::clone(clock),
    }
}

fn timed_engine(built: &Built, clock: &Rc<ProbeClock>) -> ProbeEngine<SyncAdapter<TimedBackend>> {
    ProbeEngine::new(
        timed_backend(built, clock),
        glue::vantage_registry_for(&built.scenario.world),
        built.scenario.detector_colo(),
        ProbeEngineConfig::default(),
    )
}

/// The workload's stack wired as `glue` wires it, with stopwatches around
/// every probe engine and data-plane backend. The traced run checks that it
/// reports what the reference does, so the two wirings cannot drift apart
/// unnoticed.
fn instrumented_detector(built: &Built, clock: &Rc<ProbeClock>) -> Kepler {
    let scenario = &built.scenario;
    let config = built.config.clone();
    let timed = |inner| TimedProber { inner, clock: Rc::clone(clock) };
    let passive = glue::detector_for(scenario, config.clone());
    match built.spec.stack {
        Stack::Passive => passive,
        Stack::Lifecycle => passive
            .with_prober(Box::new(timed(timed_engine(built, clock))))
            .with_restoration_prober(Box::new(timed(timed_engine(built, clock)))),
        Stack::Fused => {
            let opts = FusionOptions::default();
            let quiet_t = scenario.start + 600;
            let trackable = glue::trackable_facilities(scenario, &config);
            let ledger = kepler::probe::shared_ledger(config.delay_threshold_ms);
            let prober = timed_engine(built, clock).with_telemetry(ledger.clone());
            let mut kepler = passive.with_prober(Box::new(timed(prober)));
            for &f in &trackable {
                kepler.watch_presence(LocationTag::Facility(f));
            }
            let panel =
                glue::canary_panel(scenario, &trackable, opts.canaries_per_facility, quiet_t);
            kepler.with_signal_source(Box::new(ForecastDetector::new(&config))).with_signal_source(
                Box::new(DelayDetector::with_canary(
                    &config,
                    ledger,
                    timed_backend(built, clock),
                    panel,
                    quiet_t,
                )),
            )
        }
    }
}

/// Rung 1: `MrtReader` over every archive. Returns (seconds, decode errors).
fn read_pass(built: &Built) -> (f64, u64) {
    let start = Instant::now();
    let mut errors = 0u64;
    for archive in &built.archives {
        for record in MrtReader::new(&archive[..]) {
            match record {
                Ok(record) => drop(black_box(record)),
                Err(MrtError::UnsupportedRecord { .. }) => {}
                Err(_) => errors += 1,
            }
        }
    }
    (secs_since(start), errors)
}

/// `FrameView::parse` + `message` over every archive: the zero-copy decode
/// the product path does not use yet.
fn view_pass(built: &Built) -> f64 {
    let start = Instant::now();
    for archive in &built.archives {
        let mut rest = &archive[..];
        while let Ok(Some((frame, used))) = FrameView::parse(rest) {
            black_box(frame.message().is_ok());
            rest = &rest[used..];
        }
    }
    secs_since(start)
}

/// Rung 2: `MrtSource` + `MergedStream`. Returns (seconds, records out).
fn merge_pass(built: &Built) -> (f64, u64) {
    let start = Instant::now();
    let mut records = 0u64;
    for record in merged_stream(&built.archives) {
        black_box(&record);
        records += 1;
    }
    (secs_since(start), records)
}

/// The serial ingest stage as `Kepler` assembles it, outside `Kepler`.
struct Ingest {
    input: InputModule,
    gap: GapTracker,
    interner: Interner,
}

impl Ingest {
    fn new(built: &Built) -> Ingest {
        Ingest {
            input: InputModule::new(
                built.scenario.mined_dictionary(),
                built.scenario.detector_colo(),
            ),
            gap: GapTracker::new(built.config.quarantine_secs),
            interner: Interner::new(),
        }
    }

    fn decode(
        &mut self,
        record: &kepler::bgpstream::BgpRecord,
        mut emit: impl FnMut(DenseRouteEvent),
    ) {
        self.gap.observe(record);
        if self.gap.is_usable(record.collector, record.peer, record.time) {
            self.input.process_record_events(record, &mut self.interner, &mut emit);
        }
    }
}

/// Counts the input layer reports.
#[derive(Default)]
struct InputCounts {
    events: u64,
    located_fraction: f64,
    sanitize_rejects: u64,
}

/// Rung 3: rung 2 + `GapTracker` + `InputModule::process_record_events`
/// into a null sink.
fn input_pass(built: &Built) -> (f64, InputCounts) {
    let mut ingest = Ingest::new(built);
    let mut counts = InputCounts::default();
    let start = Instant::now();
    for record in merged_stream(&built.archives) {
        ingest.decode(&record, |event| {
            black_box(&event);
            counts.events += 1;
        });
    }
    let secs = secs_since(start);
    counts.located_fraction = ingest.input.stats().located_fraction();
    counts.sanitize_rejects = ingest.input.sanitize_stats().rejected();
    (secs, counts)
}

/// What the instrumented observe pass keeps for the replays.
#[derive(Default)]
struct MonitorCapture {
    outcomes: Vec<BinOutcome>,
    close_us: Vec<f64>,
    bins_closed: u64,
    baseline_routes: usize,
}

/// Rung 4: rung 3 + `Monitor::observe`. With a capture, every `observe` is
/// clocked (so the pass is not a rung time) and closed bins are resolved
/// and kept.
fn observe_pass(built: &Built, mut capture: Option<&mut MonitorCapture>) -> f64 {
    let mut ingest = Ingest::new(built);
    let mut monitor = Monitor::new(built.config.clone());
    if built.spec.stack == Stack::Fused {
        for f in glue::trackable_facilities(&built.scenario, &built.config) {
            monitor.watch_presence(ingest.interner.pop_id(LocationTag::Facility(f)));
        }
    }
    let mut events: Vec<DenseRouteEvent> = Vec::new();
    let mut last_time = 0;
    let start = Instant::now();
    for record in merged_stream(&built.archives) {
        last_time = record.time;
        ingest.decode(&record, |event| events.push(event));
        for event in events.drain(..) {
            let clock = capture.is_some().then(Instant::now);
            let closed = monitor.observe(record.time, &event);
            if let (Some(capture), Some(clock), false) = (&mut capture, clock, closed.is_empty()) {
                capture.close_us.push(us_since(clock));
                capture.outcomes.extend(closed.iter().map(|o| o.resolve(&ingest.interner)));
            }
            black_box(closed);
        }
    }
    let trailing = monitor.advance_to(last_time + 2 * built.config.bin_secs);
    let secs = secs_since(start);
    if let Some(capture) = capture {
        capture.outcomes.extend(trailing.iter().map(|o| o.resolve(&ingest.interner)));
        capture.bins_closed = capture.outcomes.len() as u64;
        capture.baseline_routes = monitor.baseline_size();
    }
    secs
}

/// Rung 5: `Kepler::process_record_owned` per merged record, then `finalize`.
fn kepler_pass(built: &Built, mut detector: Kepler) -> f64 {
    let start = Instant::now();
    for record in merged_stream(&built.archives) {
        detector.process_record_owned(record);
    }
    black_box(detector.finalize());
    secs_since(start)
}

/// What the stepwise commit pass measured, layer by layer.
#[derive(Default)]
struct CommitCapture {
    /// Wall time of the whole pass, from the first record to the closed run.
    secs: f64,
    export_us: Vec<f64>,
    commit_us: Vec<f64>,
    publish_us: Vec<f64>,
    alert_us: f64,
    transitions: usize,
    alerts: kepler::serve::ChannelStats,
    wal_bytes: u64,
    snapshot_bytes: u64,
    recover_ms: f64,
    /// The heaviest committed state, for the codec timings.
    largest: TrackerState,
    reports: Vec<OutageReport>,
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// A cheap stand-in for a state's encoded size: its incidents, and the route
/// keys and hop evidence the live ones carry.
fn weight(state: &TrackerState) -> usize {
    let live: usize = state
        .ongoing
        .iter()
        .map(|o| o.affected_keys.len() + o.watch.len() + o.evidence.len())
        .sum();
    live + state.ongoing.len() + state.cooling.len() + state.warming.len() + state.finished.len()
}

/// The daemon's commit sequence, one step at a time with a stopwatch between
/// the steps: after every record that closed a bin, `export_incidents`, then
/// `IncidentStore::commit_bin` on a store in the checkout, then
/// `StatusView::from_state` + `ViewCell::store`, then `AlertRouter::dispatch`
/// — each captured artefact handed to the one layer that consumes it, at
/// the moment the daemon would (an `fsync` costs more after a pause than in
/// a tight loop of them). Ends like `Daemon::finish` and recovers the store.
fn commit_pass(built: &Built, mut detector: Kepler, dir: &Path) -> std::io::Result<CommitCapture> {
    let mut capture = CommitCapture::default();
    remove_dir(dir)?;
    let (mut store, _) =
        IncidentStore::open(dir, DaemonConfig::new(dir.into()).snapshot_every_bins)?;
    let wal = dir.join("wal.log");
    let cell = ViewCell::default();
    let mut router = AlertRouter::new();
    router.add_channel(alert_channel(Arc::new(AtomicU64::new(0))));
    let mut publish = |store: &IncidentStore, transitions: &[Transition], at, seq| {
        let clock = Instant::now();
        cell.store(StatusView::from_state(store.state(), at, seq));
        let published = Instant::now();
        router.dispatch(transitions, at);
        router.flush(at);
        capture.publish_us.push((published - clock).as_secs_f64() * 1e6);
        capture.alert_us += us_since(published);
        capture.transitions += transitions.len();
    };
    let mut seq = 0;
    let start = Instant::now();
    for record in merged_stream(&built.archives) {
        detector.process_record_owned(record);
        if detector.bins_closed() == seq {
            continue;
        }
        seq = detector.bins_closed();
        let bin_end = detector.last_bin_end();
        let clock = Instant::now();
        let state = detector.export_incidents();
        capture.export_us.push(us_since(clock));
        let before = file_len(&wal);
        let clock = Instant::now();
        let transitions = store.commit_bin(seq, bin_end, &state)?;
        capture.commit_us.push(us_since(clock));
        // A commit that compacts restarts the log: its own frame (one in
        // 64) is not counted.
        capture.wal_bytes += file_len(&wal).saturating_sub(before);
        publish(&store, &transitions, bin_end, seq);
        if weight(&state) > weight(&capture.largest) {
            capture.largest = state;
        }
    }
    capture.reports = detector.finalize();
    let bin_end = detector.last_bin_end();
    let clock = Instant::now();
    let closing = store.close_run(detector.bins_closed() + 1, bin_end, &capture.reports)?;
    capture.commit_us.push(us_since(clock));
    publish(&store, &closing, bin_end, store.seq());
    router.drain();
    capture.secs = secs_since(start);
    capture.alerts = router.stats().first().map(|(_, stats)| *stats).unwrap_or_default();
    capture.snapshot_bytes = file_len(&dir.join("snapshot.bin"));
    let clock = Instant::now();
    let (recovered, ..) = IncidentStore::recover_state(dir)?;
    capture.recover_ms = us_since(clock) / 1e3;
    remove_dir(dir)?;
    let expected = TrackerState { finished: capture.reports.clone(), ..TrackerState::default() };
    if recovered != expected {
        return Err(std::io::Error::other("the stepwise store recovered to a different state"));
    }
    Ok(capture)
}

/// Median microseconds of `CODEC_REPS` runs of `f`.
fn codec_us(mut f: impl FnMut()) -> f64 {
    median(
        &(0..CODEC_REPS)
            .map(|_| {
                let clock = Instant::now();
                f();
                us_since(clock)
            })
            .collect::<Vec<_>>(),
    )
}

/// Writes the spans of the traced pass, one JSON object per line.
pub fn write_trace(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (index, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\": {index}, \"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.name, s.id, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Self time of the root span and total time of its children, by name.
pub fn span_totals(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut totals: Vec<(&'static str, f64)> = Vec::new();
    let mut children = 0.0;
    for s in spans.iter().filter(|s| s.parent.is_some()) {
        let secs = (s.end_ns - s.start_ns) as f64 / 1e9;
        children += secs;
        match totals.iter_mut().find(|(name, _)| *name == s.name) {
            Some((_, total)) => *total += secs,
            None => totals.push((s.name, secs)),
        }
    }
    if let Some(root) = spans.iter().find(|s| s.parent.is_none()) {
        totals.push(("pass (self)", (root.end_ns - root.start_ns) as f64 / 1e9 - children));
    }
    totals
}

/// The per-layer metrics of one traced run, the ledger rows behind them
/// (layer, self seconds per pass) and why the run failed, if it did.
pub struct Ledger {
    pub metrics: Vec<Metric>,
    pub rows: Vec<(&'static str, f64)>,
    pub failure: Option<String>,
}

/// Measures every layer. `untraced_secs` is the median untraced end-to-end
/// pass — also the ladder's last rung, `Daemon::ingest` — `traced_secs` the
/// traced one, and `last` the outcome of any untraced pass (its counts do
/// not vary between passes).
pub fn measure(built: &Built, untraced_secs: f64, traced_secs: f64, last: &PassOutcome) -> Ledger {
    let records = built.fingerprint.records as f64;
    let mut failure = None;

    // The ladder. Rounds of all rungs, not rungs of all rounds: when the
    // machine slows down for a while, every rung meets the slow stretch.
    let fused = built.spec.stack == Stack::Fused;
    let mut times: [Vec<f64>; 7] = Default::default();
    let (mut decode_errors, mut records_out) = (0, 0);
    let mut input_counts = InputCounts::default();
    for _ in 0..LADDER_PASSES {
        let (read, errors) = read_pass(built);
        let (merge, merged) = merge_pass(built);
        let (input, counts) = input_pass(built);
        (decode_errors, records_out, input_counts) = (errors, merged, counts);
        let observe = observe_pass(built, None);
        let system = kepler_pass(built, built.detector());
        let prober_only = if fused {
            kepler_pass(built, glue::detector_with_prober(&built.scenario, built.config.clone()))
        } else {
            0.0
        };
        let round = [read, view_pass(built), merge, input, observe, system, prober_only];
        for (rung, secs) in times.iter_mut().zip(round) {
            rung.push(secs);
        }
    }
    let [read, view, merge, input, observe, system, prober_only] = times.map(|t| median(&t));
    let prober_only = fused.then_some(prober_only);

    // The instrumented passes.
    let mut monitor = MonitorCapture::default();
    observe_pass(built, Some(&mut monitor));
    let clock = Rc::new(ProbeClock::default());
    let dir = out_dir().join(format!("stepwise-{}-{}", built.spec.name, std::process::id()));
    let commits =
        commit_pass(built, instrumented_detector(built, &clock), &dir).unwrap_or_else(|e| {
            failure = Some(format!("the stepwise commit pass failed: {e}"));
            CommitCapture::default()
        });
    if failure.is_none() && commits.reports != built.reference.reports {
        failure = Some("the instrumented detector disagrees with the reference run".to_string());
    }

    // Direct replays: closed bins through the investigator, the largest
    // state through the codec.
    let scenario = &built.scenario;
    let investigator = Investigator::new(
        built.config.clone(),
        scenario.detector_colo(),
        scenario.world.orgs.clone(),
    );
    let (mut signals, mut pending) = (0usize, 0usize);
    let investigate_us: Vec<f64> = monitor
        .outcomes
        .iter()
        .map(|outcome| {
            let clock = Instant::now();
            let investigation = investigator.investigate(outcome);
            let us = us_since(clock);
            signals += outcome.signals.len();
            pending += investigation.pending.len();
            us
        })
        .collect();
    let snapshot = encode_snapshot(&commits.largest, 0, 0);
    let encode_us =
        codec_us(|| drop(black_box(encode_snapshot(black_box(&commits.largest), 0, 0))));
    let decode_us = codec_us(|| drop(black_box(decode_snapshot(black_box(&snapshot)))));

    // The ledger: every row measured on its own; their sum should come to
    // the untraced pass. The last row is what the detector costs more inside
    // the stepwise pass, between fsyncs, than in the ladder's tight loop.
    let total_secs = |us: &[f64]| us.iter().sum::<f64>() / 1e6;
    let steps = total_secs(&commits.export_us)
        + total_secs(&commits.commit_us)
        + total_secs(&commits.publish_us)
        + commits.alert_us / 1e6;
    let rows = vec![
        ("bgp.mrt", read),
        ("bgpstream", merge - read),
        ("core.input + core.intern", input - merge),
        ("core.monitor", observe - input),
        ("core.system (investigate, probe, tracker, signal)", system - observe),
        ("core.tracker export", total_secs(&commits.export_us)),
        ("serve.store", total_secs(&commits.commit_us)),
        ("serve.query publish", total_secs(&commits.publish_us)),
        ("serve.alert", commits.alert_us / 1e6),
        ("in situ - ladder (core.* between fsyncs, stopwatches)", commits.secs - steps - system),
    ];
    let accounted: f64 = rows.iter().map(|(_, secs)| secs).sum();

    let bins = monitor.bins_closed.max(1) as f64;
    let n_commits = commits.export_us.len().max(1) as f64;
    let (close, investigate) = (Dist::of(&monitor.close_us), Dist::of(&investigate_us));
    let (export, commit) = (Dist::of(&commits.export_us), Dist::of(&commits.commit_us));
    let daemon_self = untraced_secs - system;
    let m = Metric::new;
    let metrics = vec![
        m("bgp.mrt.read_ns_per_rec", "ns", read * 1e9 / records),
        m("bgp.mrt.view_ns_per_rec", "ns", view * 1e9 / records),
        m("bgp.mrt.bytes_per_rec", "B", built.fingerprint.bytes as f64 / records),
        m("bgp.mrt.decode_errors", "count", decode_errors as f64),
        m("bgpstream.merge_ns_per_rec", "ns", (merge - read) * 1e9 / records),
        m("bgpstream.records_out", "count", records_out as f64),
        m("core.input.decode_intern_ns_per_rec", "ns", (input - merge) * 1e9 / records),
        m("core.input.events_per_rec", "events/rec", input_counts.events as f64 / records),
        m("core.input.located_fraction", "ratio", input_counts.located_fraction),
        m("core.input.sanitize_rejects", "count", input_counts.sanitize_rejects as f64),
        m("core.intern.routes", "count", last.interned.0 as f64),
        m("core.intern.pops", "count", last.interned.1 as f64),
        m("core.intern.asns", "count", last.interned.2 as f64),
        m(
            "core.monitor.observe_ns_per_event",
            "ns",
            (observe - input) * 1e9 / input_counts.events.max(1) as f64,
        ),
        m("core.monitor.bin_close_p50_us", "us", close.p50),
        m("core.monitor.bin_close_p99_us", "us", close.p99),
        m("core.monitor.bins_closed", "count", monitor.bins_closed as f64),
        m("core.monitor.baseline_routes", "count", monitor.baseline_routes as f64),
        m("core.investigate.p50_us", "us", investigate.p50),
        m("core.investigate.p99_us", "us", investigate.p99),
        m("core.investigate.signals", "count", signals as f64),
        m("core.investigate.pending", "count", pending as f64),
        m("core.tracker.export_p50_us", "us", export.p50),
        m("core.tracker.export_p99_us", "us", export.p99),
        m("core.tracker.state_bytes", "B", snapshot.len() as f64),
        m("core.system.ns_per_rec", "ns", (system - observe) * 1e9 / records),
        m("core.system.handle_bin_us_per_bin", "us", (system - observe) * 1e6 / bins),
        m(
            "core.signal.fused_us_per_bin",
            "us",
            prober_only.map_or(0.0, |prober_only| (system - prober_only) * 1e6 / bins),
        ),
        m("probe.engine.validate_p50_us", "us", Dist::of(&clock.validate_us.borrow()).p50),
        m("probe.engine.campaigns", "count", clock.campaigns.get() as f64),
        m("probe.engine.traces", "count", clock.traces.get() as f64),
        m("netsim.dataplane.trace_us_total", "us", clock.trace_us.get()),
        m("netsim.dataplane.trace_share", "ratio", clock.trace_us.get() / 1e6 / untraced_secs),
        m("serve.store.commit_p50_us", "us", commit.p50),
        m("serve.store.commit_p99_us", "us", commit.p99),
        m("serve.store.wal_bytes", "B", commits.wal_bytes as f64),
        m("serve.store.snapshot_bytes", "B", commits.snapshot_bytes as f64),
        m("serve.store.commits", "count", commits.export_us.len() as f64),
        m("serve.store.transitions", "count", commits.transitions as f64),
        m("serve.store.recover_ms", "ms", commits.recover_ms),
        m("serve.codec.encode_snapshot_us", "us", encode_us),
        m("serve.codec.decode_snapshot_us", "us", decode_us),
        m("serve.query.publish_p50_us", "us", Dist::of(&commits.publish_us).p50),
        m("serve.query.view_scopes", "count", last.view_scopes as f64),
        m("serve.query.contended_reads_per_s", "1/s", last.reader_reads_per_s.unwrap_or(0.0)),
        m(
            "serve.alert.dispatch_us_per_transition",
            "us",
            commits.alert_us / commits.transitions.max(1) as f64,
        ),
        m("serve.alert.delivered", "count", commits.alerts.delivered as f64),
        m("serve.alert.coalesced", "count", commits.alerts.suppressed as f64),
        m("serve.daemon.overhead_ns_per_rec", "ns", daemon_self * 1e9 / records),
        m("serve.daemon.commit_self_us", "us", daemon_self * 1e6 / n_commits),
        m("serve.daemon.wall_recs_per_s", "records/s", records / untraced_secs),
        m("serve.daemon.off_cpu_share", "ratio", 1.0 - last.cpu_secs / last.secs),
        m("bench.machine_speed", "ratio", last.speed),
        m("ledger.residual_pct", "%", (accounted - untraced_secs) / untraced_secs * 100.0),
        m("trace.overhead_pct", "%", (traced_secs - untraced_secs) / untraced_secs * 100.0),
    ];
    Ledger { metrics, rows, failure }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::drive_archive;
    use crate::workload::SMOKE;

    #[test]
    fn span_totals_give_the_root_its_self_time() {
        let span = |name, parent, start_ns, end_ns| Span { name, id: 0, parent, start_ns, end_ns };
        let spans = [
            span("pass", None, 0, 10_000_000_000),
            span("next", Some(0), 0, 1_000_000_000),
            span("ingest", Some(0), 1_000_000_000, 4_000_000_000),
            span("next", Some(0), 4_000_000_000, 6_000_000_000),
        ];
        assert_eq!(span_totals(&spans), [("next", 3.0), ("ingest", 3.0), ("pass (self)", 4.0)]);
    }

    #[test]
    fn the_ladder_captures_what_the_daemon_commits() {
        let built = Built::new(SMOKE, 3);
        let mut monitor = MonitorCapture::default();
        observe_pass(&built, Some(&mut monitor));
        assert_eq!(monitor.bins_closed, built.reference.bins_closed, "same bin clock as Kepler");
        let clock = Rc::new(ProbeClock::default());
        let dir = out_dir().join(format!("test-stepwise-{}", std::process::id()));
        let commits = commit_pass(&built, instrumented_detector(&built, &clock), &dir)
            .expect("the stepwise store recovers to the final reports");
        assert_eq!(commits.reports, built.reference.reports, "timed wiring equals glue's");
        assert!(clock.traces.get() > 0 && clock.campaigns.get() > 0);
        let mut stalls = Vec::new();
        let pass = drive_archive(&built, &dir, &mut stalls, None);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(commits.commit_us.len() as u64, pass.commits + 1, "every commit and the close");
        assert_eq!(commits.transitions as u64, pass.transitions);
        assert_eq!(commits.alerts.delivered, pass.alerts_delivered);
        assert!(commits.snapshot_bytes > 0 && commits.wal_bytes > 0);
    }
}
