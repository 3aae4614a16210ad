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
//!   study written to one archive per collector, alone and with a RIB
//!   frame after every record, which the reader skips by its header.
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

/// One TABLE_DUMP_V2 `RIB_IPV4_UNICAST` frame at `timestamp`: a /24 seen
/// by 8 peers, each entry carrying ORIGIN, a 3-hop AS_PATH, NEXT_HOP and
/// two communities. Built as bytes: the detector reads no RIB body.
fn rib_frame(timestamp: u32, sequence: u32) -> Vec<u8> {
    let mut body = sequence.to_be_bytes().to_vec();
    body.extend_from_slice(&[24, 184, 84, (sequence % 256) as u8]);
    body.extend_from_slice(&8u16.to_be_bytes());
    for peer in 0..8u16 {
        let mut attrs = vec![0x40, 1, 1, 0]; // ORIGIN: IGP
        attrs.extend_from_slice(&[0x40, 2, 14, 2, 3]); // AS_PATH: one 3-ASN sequence
        for asn in [64_500 + u32::from(peer), 13_030, 20_940] {
            attrs.extend_from_slice(&asn.to_be_bytes());
        }
        attrs.extend_from_slice(&[0x40, 3, 4, 192, 0, 2, peer as u8]); // NEXT_HOP
        attrs.extend_from_slice(&[0xC0, 8, 8]); // COMMUNITY: two values
        for community in [(13_030u32 << 16) | 51_904, (20_940 << 16) | 1] {
            attrs.extend_from_slice(&community.to_be_bytes());
        }
        body.extend_from_slice(&peer.to_be_bytes());
        body.extend_from_slice(&timestamp.to_be_bytes()); // originated time
        body.extend_from_slice(&(attrs.len() as u16).to_be_bytes());
        body.extend_from_slice(&attrs);
    }
    let mut frame = timestamp.to_be_bytes().to_vec();
    frame.extend_from_slice(&13u16.to_be_bytes()); // TABLE_DUMP_V2
    frame.extend_from_slice(&2u16.to_be_bytes()); // RIB_IPV4_UNICAST
    frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
    frame.extend_from_slice(&body);
    frame
}

/// Allocations per ingested record of the AMS-IX study (seed 41) read
/// back from one archive per collector through `MrtSource` →
/// `MergedStream` → `process_record_owned`; with `rib_frames`, each
/// record is followed in its archive by one [`rib_frame`], which is not
/// a record.
fn allocations_per_ingested_record(rib_frames: bool) -> f64 {
    let scenario = AmsIxScenario::new(41).build().scenario;
    let local_ip = "192.0.2.254".parse().unwrap();
    let mut archives = vec![Vec::new(); scenario.output.collector_names.len()];
    for (i, rec) in scenario.output.records.iter().enumerate() {
        let archive = &mut archives[usize::from(rec.collector.0)];
        MrtWriter::new(&mut *archive).write_record(&rec.to_mrt(Asn(64_700), local_ip)).unwrap();
        if rib_frames {
            archive.extend_from_slice(&rib_frame(rec.time as u32, i as u32));
        }
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
    let ribs = if rib_frames { ", a RIB frame after each" } else { "" };
    println!(
        "{allocs} allocations over {records} ingested records{ribs} = {per_record:.3} per record"
    );
    per_record
}

#[test]
fn an_ingested_record_stays_inside_its_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let per_record = allocations_per_ingested_record(false);
    assert!(
        per_record <= BUDGET_PER_RECORD,
        "{per_record:.2} allocations per ingested record (budget {BUDGET_PER_RECORD}): \
         does the read path materialize records again?"
    );
}

/// A frame the detector does not read costs its header: with one RIB
/// frame per record, even one allocation per skipped frame breaks the
/// per-record budget.
#[test]
fn a_skipped_rib_frame_costs_no_allocation() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let per_record = allocations_per_ingested_record(true);
    assert!(
        per_record <= BUDGET_PER_RECORD,
        "{per_record:.2} allocations per ingested record with a RIB frame after each \
         (budget {BUDGET_PER_RECORD}): does the reader decode bodies it skips?"
    );
}
