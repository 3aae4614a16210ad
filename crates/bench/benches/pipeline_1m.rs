//! End-to-end pipeline throughput: 1M synthetic BGP records through the
//! input module (sanitize + community→PoP mapping), input-time interning
//! and the monitor.
//!
//! This is the macro-benchmark the perf trajectory is tracked against
//! across PRs (see `repro --bench`, which measures the identical workload
//! via the shared `kepler_bench::pipeline_*` helpers), complementing the
//! monitor-only micro-benchmark in `monitor.rs`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use kepler_bench::{pipeline_dictionary, pipeline_record, PIPELINE_TIME_COMPRESSION};
use kepler_core::config::KeplerConfig;
use kepler_core::input::InputModule;
use kepler_core::intern::Interner;
use kepler_core::monitor::Monitor;
use kepler_topology::ColocationMap;

const N: u64 = 1_000_000;

fn bench_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline");
    g.throughput(Throughput::Elements(N));
    g.bench_function("records_1m", |b| {
        b.iter(|| {
            let mut input = InputModule::new(pipeline_dictionary(), ColocationMap::new());
            let mut interner = Interner::new();
            let mut monitor = Monitor::new(KeplerConfig::default());
            let mut bins = 0usize;
            for i in 0..N {
                let rec = pipeline_record(i);
                for elem in rec.explode() {
                    if let Some(ev) = input.process_dense(&elem, &mut interner) {
                        bins += monitor.observe(elem.time, &ev).len();
                    }
                }
            }
            bins += monitor
                .advance_to(1_400_000_000 + N / PIPELINE_TIME_COMPRESSION + 3 * 86_400)
                .len();
            (bins, monitor.baseline_size())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
