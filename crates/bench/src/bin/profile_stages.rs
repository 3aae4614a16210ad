//! Stage-by-stage cost breakdown of the 1M-record ingest pipeline.
//!
//! Times cumulative prefixes of the pipeline (construct → explode →
//! decode+intern → monitor) so the marginal cost of each stage is the
//! difference between consecutive rows. The record rows measure the
//! explosion-free product path ([`InputModule::process_record_events`])
//! against the per-element reference, and the MRT rows measure the
//! zero-copy wire path (`FrameView` → `UpdateView` → dense intern) over
//! an encoded archive. Plus the probe stage (schedule → simulate →
//! analyze, per validation request). Guides optimization work; not part
//! of the perf-trajectory artifact (`repro --bench`).

use kepler_bench::{pipeline_dictionary, pipeline_record, PIPELINE_TIME_COMPRESSION};
use kepler_core::config::KeplerConfig;
use kepler_core::input::InputModule;
use kepler_core::intern::Interner;
use kepler_core::monitor::Monitor;
use kepler_topology::ColocationMap;
use std::hint::black_box;
use std::time::Instant;

const N: u64 = 1_000_000;
const PROBE_REQUESTS: u64 = 400;

fn main() {
    let t = Instant::now();
    for i in 0..N {
        black_box(pipeline_record(i));
    }
    report("construct", t.elapsed().as_secs_f64());

    let t = Instant::now();
    let mut n = 0usize;
    for i in 0..N {
        n += pipeline_record(i).explode().len();
    }
    black_box(n);
    report("construct+explode", t.elapsed().as_secs_f64());

    let t = Instant::now();
    let mut input = InputModule::new(pipeline_dictionary(), ColocationMap::new());
    let mut interner = Interner::new();
    let mut n = 0usize;
    for i in 0..N {
        for elem in pipeline_record(i).explode() {
            n += usize::from(input.process_dense(&elem, &mut interner).is_some());
        }
    }
    black_box(n);
    report("construct+explode+decode", t.elapsed().as_secs_f64());

    let t = Instant::now();
    let mut input = InputModule::new(pipeline_dictionary(), ColocationMap::new());
    let mut interner = Interner::new();
    let mut n = 0usize;
    for i in 0..N {
        let rec = pipeline_record(i);
        input.process_record_events(&rec, &mut interner, |_ev| n += 1);
    }
    black_box(n);
    report("construct+record-events", t.elapsed().as_secs_f64());

    // The zero-copy wire path: the same workload pre-encoded as an MRT
    // archive, walked borrow-only (no `BgpUpdate` materialization, no
    // per-record attribute allocations). Encoding happens off the clock.
    const M: u64 = 200_000;
    let archive = kepler_bench::pipeline_mrt_bytes(M);
    {
        use kepler_bgp::mrt::FrameView;
        use kepler_bgpstream::{CollectorId, PeerId};
        let t = Instant::now();
        let mut frames = 0u64;
        let mut prefixes = 0usize;
        let mut off = 0usize;
        while let Some((frame, used)) =
            FrameView::parse(&archive[off..]).expect("bench archive is well-formed")
        {
            off += used;
            if let Some(msg) = frame.message().expect("bench frames are AS4 messages") {
                prefixes += msg.update.announced_v4().count() + msg.update.mp_announced().count();
            }
            frames += 1;
        }
        black_box((frames, prefixes));
        report_n("mrt zero-copy parse", t.elapsed().as_secs_f64(), M);

        let t = Instant::now();
        let mut input = InputModule::new(pipeline_dictionary(), ColocationMap::new());
        let mut interner = Interner::new();
        let mut n = 0usize;
        let mut idx = 0u64;
        let mut off = 0usize;
        while let Some((frame, used)) =
            FrameView::parse(&archive[off..]).expect("bench archive is well-formed")
        {
            off += used;
            if let Some(msg) = frame.message().expect("bench frames are AS4 messages") {
                let collector = CollectorId((idx % 4) as u16);
                let peer = PeerId { asn: msg.peer_as, addr: msg.peer_ip };
                input.process_update_view_dense(
                    collector,
                    peer,
                    &msg.update,
                    &mut interner,
                    |_elem| n += 1,
                );
            }
            idx += 1;
        }
        black_box(n);
        report_n("mrt zero-copy decode+intern", t.elapsed().as_secs_f64(), M);
    }

    let t = Instant::now();
    let mut input = InputModule::new(pipeline_dictionary(), ColocationMap::new());
    let mut interner = Interner::new();
    let mut monitor = Monitor::new(KeplerConfig::default());
    let mut bins = 0usize;
    for i in 0..N {
        let rec = pipeline_record(i);
        let time = rec.time;
        input.process_record_events(&rec, &mut interner, |ev| {
            bins += monitor.observe(time, &ev).len();
        });
    }
    bins += monitor.advance_to(1_400_000_000 + N / PIPELINE_TIME_COMPRESSION + 3 * 86_400).len();
    black_box(bins);
    report("full pipeline", t.elapsed().as_secs_f64());

    // Probe stage: one validation request = schedule (token-bucket
    // admission) → simulate (baseline + fresh traceroute per admitted
    // pair) → analyze (hop diff, verdicts) over two candidate twins.
    // The backend is resident: one routing tree per (origin,
    // failure-state) and one path skeleton per (pair, failure-state),
    // shared across every campaign.
    use kepler::probe::Prober;
    let (mut prober, request) = kepler_bench::probe_fixture(41);
    let t = Instant::now();
    let mut verdicts = 0usize;
    for i in 0..PROBE_REQUESTS {
        // Advance time so the per-facility buckets refill between bins.
        let report = prober.validate(&request, request.bin_start + 60 * i);
        verdicts += report.verdicts.len();
    }
    black_box(verdicts);
    report_n("probe validate (per request)", t.elapsed().as_secs_f64(), PROBE_REQUESTS);
}

fn report(stage: &str, secs: f64) {
    report_n(stage, secs, N);
}

fn report_n(stage: &str, secs: f64, n: u64) {
    println!(
        "{stage:<28} {secs:>7.3}s  {:>9.0} rec/s  {:>6.0} ns/rec",
        n as f64 / secs,
        secs * 1e9 / n as f64
    );
}
