//! Recovery replays a journal frame by frame from a mapping of the file:
//! `IngestEngine::open` makes no single allocation as large as the
//! journal it replays, which reading the file whole or collecting its
//! records would. A counting global allocator records the largest
//! request of the thread that armed it, so this binary holds one test.
//! `press_store::map_file` maps on 64-bit Unix; elsewhere it reads the
//! file into an arena, so the test runs only where the mapping exists.
#![cfg(all(unix, target_pointer_width = "64"))]

mod common;

use common::{config, fixture, stream, test_dir};
use press_serve::{DurabilityPolicy, IngestEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, recording the largest request of an armed thread.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn note(size: usize) {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        LARGEST.fetch_max(size, Relaxed);
    }
}

// SAFETY: every call goes to `System` unchanged; the bookkeeping
// allocates nothing (a const thread-local and an atomic). The default
// `alloc_zeroed` calls `alloc`, so it is counted too.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// The largest single allocation `f` makes on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.store(0, Relaxed);
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, LARGEST.load(Relaxed))
}

#[test]
fn replay_allocates_less_than_the_journal_it_replays() {
    let f = fixture();
    let dir = test_dir("replay-allocations");
    // One shard and one worker, so replay runs on the arming thread.
    let cfg = config(1, DurabilityPolicy::manual());
    let events = stream(20, 1_000);
    let mut engine = IngestEngine::open(&dir, f.matcher.clone(), f.press(), cfg).expect("open");
    for &(v, s) in &events {
        engine.push(v, s).expect("push");
    }
    engine.sync().expect("sync");
    let journal = std::fs::metadata(engine.shard_wal_path(0))
        .expect("journal")
        .len() as usize;
    drop(engine);

    let press = f.press();
    let (engine, largest) = largest_allocation(|| {
        IngestEngine::open(&dir, f.matcher.clone(), press, cfg).expect("recover")
    });
    assert_eq!(engine.recovery().replayed_points, events.len() as u64);
    assert_eq!(engine.buffered_points(), events.len());
    assert!(
        largest < journal,
        "recovery made a {largest} B allocation for a {journal} B journal"
    );
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}
