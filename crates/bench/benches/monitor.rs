//! Monitoring-module throughput: route events per second through binning,
//! baseline maintenance and deviation tracking.
//!
//! The timed path includes interning (`RouteEvent` → `DenseRouteEvent`),
//! i.e. the full per-event pipeline cost downstream of the input module.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use kepler_bgp::{Asn, Prefix};
use kepler_bgpstream::{CollectorId, PeerId};
use kepler_core::config::KeplerConfig;
use kepler_core::events::RouteKey;
use kepler_core::input::{PopCrossing, RouteEvent};
use kepler_core::intern::Interner;
use kepler_core::monitor::Monitor;
use kepler_docmine::LocationTag;
use kepler_topology::FacilityId;

fn key(i: u32) -> RouteKey {
    RouteKey {
        collector: CollectorId((i % 4) as u16),
        peer: PeerId { asn: Asn(100 + i % 8), addr: "10.0.0.1".parse().unwrap() },
        prefix: Prefix::v4(20, (i % 250) as u8, ((i / 250) % 250) as u8, 0, 24),
    }
}

fn event(i: u32) -> RouteEvent {
    RouteEvent::Update {
        key: key(i),
        crossings: vec![PopCrossing {
            pop: LocationTag::Facility(FacilityId(i % 40)),
            near: Asn(500 + i % 20),
            far: Asn(900 + i % 31),
        }],
        hops: vec![Asn(100 + i % 8), Asn(500 + i % 20), Asn(900 + i % 31)],
    }
}

fn bench_monitor(c: &mut Criterion) {
    const N: u32 = 20_000;
    let mut g = c.benchmark_group("monitor");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("observe_20k_events", |b| {
        b.iter(|| {
            let mut interner = Interner::new();
            let mut m = Monitor::new(KeplerConfig::default());
            let t0 = 1_000_000u64;
            for i in 0..N {
                let ev = interner.intern_event(&event(i));
                m.observe(t0 + (i / 100) as u64, &ev);
            }
            // Close the stable window and a few bins.
            let out = m.advance_to(t0 + 3 * 86_400);
            (m.baseline_size(), out.len())
        })
    });
    g.bench_function("bin_close_with_deviations", |b| {
        // Pre-build a warm monitor, then measure deviation marking + close.
        let mut interner = Interner::new();
        let mut m = Monitor::new(KeplerConfig::default());
        let t0 = 1_000_000u64;
        for i in 0..N {
            let ev = interner.intern_event(&event(i));
            m.observe(t0, &ev);
        }
        m.advance_to(t0 + 3 * 86_400);
        let t1 = t0 + 3 * 86_400 + 60;
        b.iter(|| {
            for i in 0..2000u32 {
                let w = interner.intern_event(&RouteEvent::Withdraw { key: key(i) });
                m.observe(t1, &w);
                // Re-announce so the baseline refills for the next iter.
                let ev = interner.intern_event(&event(i));
                m.observe(t1, &ev);
            }
            m.advance_to(t1 + 60).len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_monitor);
criterion_main!(benches);
