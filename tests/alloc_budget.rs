//! Allocation budgets, each made a number by a counting global
//! allocator:
//!
//! * **per quiet closed bin** of the fused stack. The canary round
//!   re-traces its whole panel at every bin close; one
//!   `TraceBackend::trace_panel` call fills one reused trace buffer and
//!   the hops are looked up in a hashed ledger, so a bin in which nothing
//!   happens allocates a handful of per-bin buffers and nothing per
//!   trace. Measured over 1,000 silent bins of the AMS-IX study's fused
//!   detector.
//! * **per ingested record**: MRT archive bytes through `MrtSource`,
//!   `MergedStream` and `Kepler::process_record_owned`, over the AMS-IX
//!   study written to one archive per collector.
//!
//! This file holds the only `unsafe` in the tree — the `GlobalAlloc`
//! impl a counting allocator cannot be written without. The counter is
//! process-global, so every test holds [`SERIAL`] for its whole body and
//! the counter sees one thread of work at a time; every product crate
//! keeps `#![forbid(unsafe_code)]`.

use kepler::bgp::mrt::MrtWriter;
use kepler::bgp::Asn;
use kepler::bgpstream::{CollectorId, MergedStream, MrtSource, RecordSource};
use kepler::core::KeplerConfig;
use kepler::glue::{detector, FusionOptions, Stack};
use kepler::netsim::scenario::amsix::AmsIxScenario;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Held by each test for its whole body: the counter is process-global.
static SERIAL: Mutex<()> = Mutex::new(());

/// The system allocator, counting every block it hands out or regrows.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's obligations under `GlobalAlloc` are exactly `System`'s;
// the counter is a relaxed atomic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Silent bins measured.
const QUIET_BINS: u64 = 1_000;

/// Allocations allowed per quiet closed bin. Measured: 3.0, none of them
/// in the canary round (the parent of the change that introduced this
/// test: 111.0 — the same three plus one hop buffer per canary trace).
/// The 2× headroom is for a per-bin stage that comes to need a buffer,
/// not for a per-trace one.
const BUDGET_PER_BIN: f64 = 6.0;

#[test]
fn a_quiet_fused_bin_stays_inside_its_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let scenario = AmsIxScenario::new(41).build().scenario;
    let config = KeplerConfig::default();
    let bin_secs = config.bin_secs;
    let mut kepler = detector(&scenario, config, &Stack::Fused(FusionOptions::default()));
    // Warm through the whole stream: baselines learnt, the outage
    // detected and settled, every scratch buffer grown to its size.
    for rec in scenario.records() {
        kepler.process_record_owned(rec);
    }
    let mut clock = kepler.last_bin_end() + 50 * bin_secs;
    kepler.advance_clock(clock);

    let bins_before = kepler.bins_closed();
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..QUIET_BINS {
        clock += bin_secs;
        kepler.advance_clock(clock);
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    let bins = kepler.bins_closed() - bins_before;

    assert_eq!(bins, QUIET_BINS, "every silent minute closes one bin on the fused stack");
    let per_bin = allocs as f64 / bins as f64;
    println!("{allocs} allocations over {bins} quiet bins = {per_bin:.3} per bin");
    assert!(
        per_bin <= BUDGET_PER_BIN,
        "{per_bin:.2} allocations per quiet closed bin (budget {BUDGET_PER_BIN}): \
         did the canary round start allocating per trace again?"
    );
}

/// Allocations allowed per ingested record. A record's UPDATE is one
/// boxed copy of its wire bytes; the detector's own per-record work
/// (route ids, crossing sets, bin state) is amortised growth. Measured:
/// 4.0 while the reader folded every UPDATE into an owned `BgpUpdate`
/// (the prefix `Vec`, the AS_PATH segment `Vec` and its ASN `Vec`, the
/// communities `Vec`).
const BUDGET_PER_RECORD: f64 = 1.5;

#[test]
fn an_ingested_record_stays_inside_its_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let scenario = AmsIxScenario::new(41).build().scenario;
    let local_ip = "192.0.2.254".parse().unwrap();
    let mut archives = vec![Vec::new(); scenario.output.collector_names.len()];
    for rec in &scenario.output.records {
        MrtWriter::new(&mut archives[usize::from(rec.collector.0)])
            .write_record(&rec.to_mrt(Asn(64_700), local_ip))
            .unwrap();
    }
    let mut kepler = detector(&scenario, KeplerConfig::default(), &Stack::Passive);

    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let sources = archives
        .into_iter()
        .enumerate()
        .map(|(i, archive)| {
            let collector = CollectorId(u16::try_from(i).unwrap());
            Box::new(MrtSource::new(Cursor::new(archive), collector)) as Box<dyn RecordSource>
        })
        .collect();
    let mut records = 0u64;
    for rec in MergedStream::new(sources) {
        kepler.process_record_owned(rec);
        records += 1;
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;

    assert_eq!(records, scenario.output.records.len() as u64, "every record is read back");
    let per_record = allocs as f64 / records as f64;
    println!("{allocs} allocations over {records} ingested records = {per_record:.3} per record");
    assert!(
        per_record <= BUDGET_PER_RECORD,
        "{per_record:.2} allocations per ingested record (budget {BUDGET_PER_RECORD}): \
         does the read path materialize records again?"
    );
}
