//! Allocation regression test for the join hot path.
//!
//! A counting global allocator wraps the system allocator; after a
//! warm-up call, a steady-state [`improved_join_into`] over trees with a
//! decoded-node cache must perform **zero** heap allocations: node reads
//! are `Arc` clones out of the cache, traversal temporaries come from the
//! reused [`JoinScratch`] frames, and the output vector retains its
//! capacity. The plane sweep's [`SweepSoa`] buffers are held to the same
//! bar on their own.
//!
//! The count is per thread and armed only inside the measured region
//! ([`count_allocs`]), so tests running in parallel on other threads
//! never leak their allocations into each other's measurements.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cij_geom::{MovingRect, Rect};
use cij_join::{
    improved_join, improved_join_into, ps_intersection, techniques, JoinCounters, JoinScratch,
    SweepSoa,
};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_tpr::{ObjectId, TprTree, TreeConfig};

/// Counts every allocation (alloc / realloc / alloc_zeroed) made by the
/// current thread while armed. Deallocs are not counted — freeing
/// retained buffers is not a regression.
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
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Two trees with node caches large enough to hold every page, so a
/// warmed traversal never decodes.
fn build_cached_trees(n: u64) -> (TprTree, TprTree) {
    let pool = BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::default());
    let config = TreeConfig::default().with_node_cache(1024);
    let mut ta = TprTree::new(pool.clone(), config);
    let mut tb = TprTree::new(pool, config);
    for i in 0..n {
        let x = (i as f64 * 13.0) % 700.0;
        let y = (i as f64 * 29.0) % 700.0;
        ta.insert(
            ObjectId(i),
            MovingRect::rigid(Rect::new([x, y], [x + 2.0, y + 2.0]), [1.0, -0.5], 0.0),
            0.0,
        )
        .expect("insert a");
        tb.insert(
            ObjectId(100_000 + i),
            MovingRect::rigid(
                Rect::new([x + 4.0, y + 1.0], [x + 6.0, y + 3.0]),
                [-1.0, 0.5],
                0.0,
            ),
            0.0,
        )
        .expect("insert b");
    }
    (ta, tb)
}

#[test]
fn warm_improved_join_performs_zero_allocations() {
    let (ta, tb) = build_cached_trees(500);
    let mut scratch = JoinScratch::new();
    let mut out = Vec::new();

    // Warm-up: populates the node caches, grows the scratch frames and
    // the output vector to their steady-state sizes.
    let warm = improved_join_into(&ta, &tb, 0.0, 60.0, techniques::ALL, &mut scratch, &mut out)
        .expect("warm-up join");
    assert!(!out.is_empty(), "workload must produce pairs");
    let warm_pairs = out.clone();

    for round in 0..3 {
        let (counters, allocations) = count_allocs(|| {
            improved_join_into(&ta, &tb, 0.0, 60.0, techniques::ALL, &mut scratch, &mut out)
                .expect("steady-state join")
        });
        assert_eq!(
            allocations, 0,
            "steady-state improved_join_into allocated (round {round})"
        );
        assert_eq!(counters, warm, "counters changed between identical runs");
        assert_eq!(out, warm_pairs, "pairs changed between identical runs");
    }
}

#[test]
fn every_technique_combination_is_allocation_free_when_warm() {
    let (ta, tb) = build_cached_trees(300);
    for tech in [
        techniques::NONE,
        techniques::IC,
        techniques::PS,
        techniques::DS_PS,
        techniques::IC_PS,
        techniques::ALL,
    ] {
        let mut scratch = JoinScratch::new();
        let mut out = Vec::new();
        improved_join_into(&ta, &tb, 0.0, 60.0, tech, &mut scratch, &mut out).expect("warm-up");
        let (_, allocations) = count_allocs(|| {
            improved_join_into(&ta, &tb, 0.0, 60.0, tech, &mut scratch, &mut out).expect("steady")
        });
        assert_eq!(allocations, 0, "technique set {tech:?} allocated");
    }
}

/// Pins [`ps_intersection`] at steady state: once the [`SweepSoa`]
/// buffers and the output vector have grown, refilling both sides and
/// sweeping again allocates nothing — the permutation sort gathers
/// through retained buffers instead of grabbing merge scratch.
#[test]
fn warm_sweep_does_not_allocate() {
    // 96 items per side, well above any insertion-sort cutoff, in
    // scrambled lb order so the sort does real work; each `a` overlaps
    // exactly one `b`.
    let fill = |side: &mut SweepSoa, offset: f64| {
        side.clear();
        for i in 0..96u32 {
            let x = offset + f64::from((i * 61) % 96) * 10_000.0;
            let m = MovingRect::rigid(Rect::new([x, 0.0], [x + 10.0, 1.0]), [0.0, 0.0], 0.0);
            side.push(m, i, 0, 0.0, 60.0);
        }
    };
    let (mut sa, mut sb) = (SweepSoa::new(), SweepSoa::new());
    let mut counters = JoinCounters::new();
    let mut out = Vec::new();
    fill(&mut sa, 0.0);
    fill(&mut sb, 5.0);
    ps_intersection(&mut sa, &mut sb, 0.0, 60.0, &mut counters, &mut out);
    assert_eq!(out.len(), 96, "workload must pair every a with one b");
    let warm = out.clone();

    let (_, allocations) = count_allocs(|| {
        fill(&mut sa, 0.0);
        fill(&mut sb, 5.0);
        ps_intersection(&mut sa, &mut sb, 0.0, 60.0, &mut counters, &mut out);
    });
    assert_eq!(allocations, 0, "steady-state ps_intersection allocated");
    assert_eq!(out, warm, "pairs changed between identical sweeps");
}

#[test]
fn scratch_entry_point_matches_plain_entry_point() {
    let (ta, tb) = build_cached_trees(400);
    let (pairs, counters) = improved_join(&ta, &tb, 0.0, 60.0, techniques::ALL).expect("plain");
    let mut scratch = JoinScratch::new();
    let mut out = Vec::new();
    let counters_into =
        improved_join_into(&ta, &tb, 0.0, 60.0, techniques::ALL, &mut scratch, &mut out)
            .expect("into");
    assert_eq!(pairs, out);
    assert_eq!(counters, counters_into);
}
