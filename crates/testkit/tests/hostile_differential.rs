//! Hostile-input differential: values the simulator never produces, fed
//! through both fused consumers and held to the straight-line oracle.
//!
//! The ingest path accepts any `i64` timestamp with `end ≥ start` and any
//! `u32` item id, while the fused state stores intervals and piles as
//! 32-bit offsets with an exact 64-bit spill. These rows aim straight at
//! that boundary: item ids near `u32::MAX`, timestamps centuries outside
//! the simulated range, pickups and task times beyond `u32`, and negative
//! pickups. The batch scan (at 1 and 4 threads) and the live `FusedView`
//! (at every delta boundary, across chunk edges) must both equal the
//! oracle, and a counting allocator checks that the fused state's bytes
//! follow the rows, not the id or timestamp values.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crowd_analytics::{fused, FusedView, Study};
use crowd_core::fixture::Fixture;
use crowd_core::prelude::*;
use crowd_testkit::differential::FloatMode;
use crowd_testkit::{assert_study_matches_oracle, compare_fused, oracle_fused};

/// Tracks live heap bytes and their high-water mark.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The allocator is process-global: tests in this file run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Peak heap growth while `f` runs, its result kept alive to the end.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    let peak = PEAK.load(Ordering::Relaxed) - base;
    drop(out);
    peak
}

const YEAR: i64 = 365 * 86_400;
/// Beyond any `u32` of seconds (~136 years).
const BEYOND_U32: i64 = 1 << 33;

/// `rows` instances over batches created 250 years before, at, and 150
/// years after 2015-01-05. With `hostile`, rows cycle through spilled
/// pickups, negative pickups, spilled task times, intervals far past the
/// 32-bit offset range and item ids near `u32::MAX`; without it, every
/// row is an ordinary in-range one. Both variants share entity tables and
/// the week window (every row ends before the last batch is created), so
/// any difference in state bytes comes from the values alone.
fn dataset(rows: usize, hostile: bool) -> Dataset {
    let mut f = Fixture::new();
    let second = f.add_source("second", SourceKind::OnDemand);
    let country = f.default_country();
    let mut workers = f.add_workers(4);
    workers.push(f.add_worker_from(second, country));
    let past = f.add_batch(Duration::from_secs(-250 * YEAR));
    let now = f.add_batch(Duration::ZERO);
    let future = f.add_batch(Duration::from_secs(150 * YEAR));
    let plain = f.add_unsampled_batch(Duration::from_days(3));
    for i in 0..rows {
        let w = workers[i % workers.len()];
        let trust = [0.875, 1.0e-4, 0.5][i % 3];
        let answer = Answer::Choice(0);
        if !hostile {
            let batch = if i % 2 == 0 { now } else { plain };
            f.instance_full(
                batch,
                (i % 50) as u32,
                w,
                100 + i as i64,
                60 + (i % 7) as i64,
                trust,
                answer,
            );
            continue;
        }
        let item = if i % 4 == 0 { u32::MAX - (i % 3) as u32 } else { (i % 50) as u32 };
        let (batch, pickup, work) = match i % 6 {
            // Pickup beyond u32: a 250-year-old batch picked up today.
            0 => (past, 250 * YEAR + (i as i64 % 977), 60),
            // Negative pickup: started three days before its batch.
            1 => (now, -3 * 86_400 - i as i64, 30),
            // Task time beyond u32, still ending before the last batch.
            2 => (past, 60, BEYOND_U32 + i as i64),
            // Interval far past the 32-bit offset range, negative pickup.
            3 => (future, -86_400, 45),
            // Start before every batch: negative offset from the origin.
            4 => (past, -(i as i64) - 1, 10),
            _ => (plain, 600 + i as i64, 90),
        };
        f.instance_full(batch, item, w, pickup, work, trust, answer);
    }
    f.finish()
}

fn entities_of(ds: &Dataset) -> Dataset {
    let mut e = ds.clone();
    e.instances = InstanceColumns::new();
    e
}

#[test]
fn hostile_rows_match_the_oracle_in_batch_and_live() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ds = dataset(2 * ScanPass::CHUNK + 321, true);

    // Batch scan, 1 and 4 threads, against the oracle.
    assert_study_matches_oracle(&ds);

    // Live view at uneven deltas straddling both chunk boundaries.
    let mut view = FusedView::new(Arc::new(entities_of(&ds)));
    let n = ds.instances.len();
    let mut done = 0;
    for cut in [1, ScanPass::CHUNK - 1, ScanPass::CHUNK + 5, 2 * ScanPass::CHUNK, n] {
        let snap = view.apply(&ds.instances.clone_range(done..cut));
        done = cut;
        let mut prefix = entities_of(&ds);
        prefix.instances = ds.instances.clone_range(0..cut);
        let diffs = compare_fused(&snap.fused, &oracle_fused(&prefix), FloatMode::OrderTolerant);
        assert!(
            diffs.is_empty(),
            "view diverged from the oracle at {cut} rows:\n{}",
            diffs.join("\n")
        );
    }

    // The spill paths really were taken, exactly.
    let fused = Study::new(ds.clone()).fused().clone();
    let far = fused.workers.values().flat_map(|w| w.intervals.iter()).filter(|&(s, e)| {
        (e - s).as_secs() >= BEYOND_U32 || s < ds.time_min().expect("batches exist")
    });
    assert!(far.count() > 0, "some intervals must spill");
    assert!(fused.per_item.iter().any(|((_, item), _)| item > u32::MAX - 3));
}

#[test]
fn fused_state_bytes_follow_rows_not_values() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let rows = 3 * ScanPass::CHUNK;
    let hostile = Study::new(dataset(rows, true));
    let benign = Study::new(dataset(rows, false));
    let hostile_half = Study::new(dataset(rows / 2, true));

    let scan = |s: &Study| peak_bytes(|| fused::compute(s));
    let (h, b, h_half) = (scan(&hostile), scan(&benign), scan(&hostile_half));
    eprintln!(
        "fused scan peak bytes: hostile {h}, in-range {b}, hostile at half the rows {h_half}"
    );
    // A layout indexed by item id or timestamp would need gigabytes here
    // (ids near u32::MAX, offsets past 2^32 s); the compact one pays a
    // spill entry per out-of-range value, a small constant per row.
    assert!(h <= 2 * b, "hostile values cost {h} B vs {b} B for in-range ones");
    assert!(h <= 2 * h_half + (1 << 20), "state must scale with rows: {h} B vs {h_half} B at half");

    let live = |ds: Dataset| {
        let entities = Arc::new(entities_of(&ds));
        peak_bytes(move || {
            let mut view = FusedView::new(entities);
            view.apply(&ds.instances);
            view
        })
    };
    let (lh, lb) = (live(dataset(rows, true)), live(dataset(rows, false)));
    eprintln!("live view peak bytes: hostile {lh}, in-range {lb}");
    assert!(lh <= 2 * lb, "live view: hostile values cost {lh} B vs {lb} B for in-range ones");
}
