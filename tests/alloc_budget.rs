//! The fused stack's allocation budget per quiet closed bin.
//!
//! The canary round re-traces its whole panel at every bin close; one
//! `TraceBackend::trace_panel` call fills one reused trace buffer and
//! the hops are looked up in a hashed ledger, so a bin in which nothing
//! happens allocates a handful of per-bin buffers and nothing per trace.
//! This test makes that a number: a counting global allocator around
//! 1,000 silent bins of the AMS-IX study's fused detector.
//!
//! This file holds the only `unsafe` in the tree — the `GlobalAlloc`
//! impl a counting allocator cannot be written without. It is a test
//! crate of its own with a single test, so the counter sees one thread
//! of work; every product crate keeps `#![forbid(unsafe_code)]`.

use kepler::core::KeplerConfig;
use kepler::glue::{detector, FusionOptions, Stack};
use kepler::netsim::scenario::amsix::AmsIxScenario;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

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
