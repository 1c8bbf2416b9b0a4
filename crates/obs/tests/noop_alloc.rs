//! Guard: the disabled observability path is allocation-free.
//!
//! A counting global allocator wraps the system allocator; the test
//! exercises every record-path operation on handles from a disabled
//! registry and asserts not a single heap allocation happened. This is
//! the "disabled path compiles to no-ops" acceptance gate — engines run
//! with `metrics: false` by default, and that mode must cost nothing on
//! the hot path.
//!
//! The count is per thread and armed only inside the measured region
//! ([`count_allocs`]), so tests running in parallel on other threads
//! never leak their allocations into each other's measurements.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cij_obs::MetricsRegistry;

struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

/// Runs `f` with this thread's counter armed; returns its result and the
/// number of allocations it made.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let result = f();
    ARMED.with(|a| a.set(false));
    (result, ALLOCATIONS.with(Cell::get))
}

// SAFETY: every call forwards to `System` with the caller's arguments,
// so `System` upholds the `GlobalAlloc` contract; the counting touches
// only const-initialised thread-locals, which never allocate.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn disabled_registry_record_path_never_allocates() {
    // Handle creation from a disabled registry is also allocation-free
    // (no cells, no map entries), so it is inside the measured window.
    let registry = MetricsRegistry::disabled();
    let (_, allocations) = count_allocs(|| {
        let counter = registry.counter("hot.path.counter");
        let gauge = registry.gauge("hot.path.gauge");
        let histogram = registry.histogram("hot.path.histogram");
        for i in 0..10_000u64 {
            counter.inc();
            counter.add(i);
            gauge.set(i as i64);
            gauge.add(-1);
            histogram.record(i);
            let span = registry.span("hot.path.span");
            drop(span);
        }
        let snapshot = registry.snapshot();
        assert!(snapshot.is_empty());
    });
    assert_eq!(
        allocations, 0,
        "disabled metrics path allocated {allocations} times"
    );
}

#[test]
fn enabled_registry_record_path_does_not_allocate_after_registration() {
    let registry = MetricsRegistry::new();
    let counter = registry.counter("hot.counter");
    let histogram = registry.histogram("hot.histogram");

    let (_, allocations) = count_allocs(|| {
        for i in 0..10_000u64 {
            counter.inc();
            histogram.record(i);
        }
    });
    assert_eq!(
        allocations, 0,
        "enabled record path allocated {allocations} times"
    );
}
