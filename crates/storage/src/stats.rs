//! I/O counters with snapshot/delta arithmetic.
//!
//! The paper reports two metrics per experiment: the number of disk I/Os
//! and the total response time. Physical reads/writes are counted by the
//! store and buffer pool; the harness takes an [`IoSnapshot`] before a
//! phase and subtracts it afterwards to attribute I/O to that phase
//! (initial join vs. maintenance, per update, per tree, …).
//!
//! Since the observability layer landed, both [`IoStats`] and
//! [`CacheStats`] are built on `cij-obs` [`CounterCell`]s. Calling
//! [`IoStats::register_in`] (or [`CacheStats::register_in`]) shares the
//! *same* atomics into a [`MetricsRegistry`], so the registry's snapshot
//! is a bit-exact live view of the legacy counters — not a copy that can
//! drift. The record/snapshot/reset API is unchanged.

use std::sync::Arc;

use cij_obs::{CounterCell, MetricsRegistry};

/// Shared, thread-safe I/O counters. One instance is threaded through a
/// store and its buffer pool; indexes on the same "disk" share it.
#[derive(Debug, Default)]
pub struct IoStats {
    physical_reads: Arc<CounterCell>,
    physical_writes: Arc<CounterCell>,
    logical_reads: Arc<CounterCell>,
    logical_writes: Arc<CounterCell>,
    allocations: Arc<CounterCell>,
    frees: Arc<CounterCell>,
}

impl IoStats {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a physical (buffer-miss) page read.
    #[inline]
    pub fn record_physical_read(&self) {
        self.physical_reads.inc();
    }

    /// Records a physical page write (eviction of a dirty frame / flush).
    #[inline]
    pub fn record_physical_write(&self) {
        self.physical_writes.inc();
    }

    /// Records a logical page read (every buffer-pool `read`, hit or miss).
    #[inline]
    pub fn record_logical_read(&self) {
        self.logical_reads.inc();
    }

    /// Records a logical page write.
    #[inline]
    pub fn record_logical_write(&self) {
        self.logical_writes.inc();
    }

    /// Records a page allocation.
    #[inline]
    pub fn record_alloc(&self) {
        self.allocations.inc();
    }

    /// Records a page free.
    #[inline]
    pub fn record_free(&self) {
        self.frees.inc();
    }

    /// Captures the current counter values.
    #[must_use]
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            physical_reads: self.physical_reads.get(),
            physical_writes: self.physical_writes.get(),
            logical_reads: self.logical_reads.get(),
            logical_writes: self.logical_writes.get(),
            allocations: self.allocations.get(),
            frees: self.frees.get(),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.physical_reads.store(0);
        self.physical_writes.store(0);
        self.logical_reads.store(0);
        self.logical_writes.store(0);
        self.allocations.store(0);
        self.frees.store(0);
    }

    /// Registers every counter in `registry` under `prefix` (e.g.
    /// `storage.pool` → `storage.pool.physical_reads`, …). The registry
    /// shares this struct's atomics, so its view stays bit-exact with
    /// [`snapshot`](Self::snapshot) forever after. No-op when the
    /// registry is disabled.
    pub fn register_in(&self, registry: &MetricsRegistry, prefix: &str) {
        for (name, cell) in [
            ("physical_reads", &self.physical_reads),
            ("physical_writes", &self.physical_writes),
            ("logical_reads", &self.logical_reads),
            ("logical_writes", &self.logical_writes),
            ("allocations", &self.allocations),
            ("frees", &self.frees),
        ] {
            registry.register_counter_cell(&format!("{prefix}.{name}"), Arc::clone(cell));
        }
    }
}

/// A point-in-time copy of [`IoStats`], supporting subtraction to obtain
/// per-phase deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Buffer-miss page reads that hit the store.
    pub physical_reads: u64,
    /// Page writes that hit the store (dirty evictions + flushes).
    pub physical_writes: u64,
    /// Buffer-pool reads, hits included.
    pub logical_reads: u64,
    /// Buffer-pool writes, hits included.
    pub logical_writes: u64,
    /// Pages allocated.
    pub allocations: u64,
    /// Pages freed.
    pub frees: u64,
}

impl IoSnapshot {
    /// Total physical I/O operations — the paper's "number of disk I/Os".
    #[must_use]
    pub fn physical_total(&self) -> u64 {
        self.physical_reads + self.physical_writes
    }

    /// Buffer hit ratio over logical reads, `None` when no reads happened.
    #[must_use]
    pub fn hit_ratio(&self) -> Option<f64> {
        if self.logical_reads == 0 {
            None
        } else {
            let hits = self.logical_reads.saturating_sub(self.physical_reads);
            Some(hits as f64 / self.logical_reads as f64)
        }
    }

    /// Component-wise difference `self − earlier` (saturating).
    #[must_use]
    pub fn delta_since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            physical_reads: self.physical_reads.saturating_sub(earlier.physical_reads),
            physical_writes: self.physical_writes.saturating_sub(earlier.physical_writes),
            logical_reads: self.logical_reads.saturating_sub(earlier.logical_reads),
            logical_writes: self.logical_writes.saturating_sub(earlier.logical_writes),
            allocations: self.allocations.saturating_sub(earlier.allocations),
            frees: self.frees.saturating_sub(earlier.frees),
        }
    }
}

impl std::ops::Sub for IoSnapshot {
    type Output = IoSnapshot;
    fn sub(self, rhs: Self) -> Self {
        self.delta_since(&rhs)
    }
}

/// Shared, thread-safe counters of a [`DecodedCache`](crate::DecodedCache).
///
/// Mirrors the [`IoStats`] pattern: record methods on atomics, a
/// [`snapshot`](Self::snapshot) for per-phase deltas. Kept separate from
/// `IoStats` because the decoded cache sits *above* the buffer pool — its
/// hits never reach the pool and must not perturb the paper's logical /
/// physical I/O accounting.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: Arc<CounterCell>,
    misses: Arc<CounterCell>,
    insertions: Arc<CounterCell>,
    evictions: Arc<CounterCell>,
    invalidations: Arc<CounterCell>,
    stale_rejections: Arc<CounterCell>,
    zero_copy_reads: Arc<CounterCell>,
}

impl CacheStats {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a lookup that returned a cached value.
    #[inline]
    pub fn record_hit(&self) {
        self.hits.inc();
    }

    /// Records a lookup that found nothing.
    #[inline]
    pub fn record_miss(&self) {
        self.misses.inc();
    }

    /// Records a value installed (miss-fill or write-through).
    #[inline]
    pub fn record_insertion(&self) {
        self.insertions.inc();
    }

    /// Records an LRU victim dropped to make room.
    #[inline]
    pub fn record_eviction(&self) {
        self.evictions.inc();
    }

    /// Records a cached value dropped or replaced because its page
    /// changed or was freed.
    #[inline]
    pub fn record_invalidation(&self) {
        self.invalidations.inc();
    }

    /// Records a miss-fill rejected by the generation stamp.
    #[inline]
    pub fn record_stale_rejection(&self) {
        self.stale_rejections.inc();
    }

    /// Records a page served through the zero-copy SoA view (no decoded
    /// `Node` was materialized).
    #[inline]
    pub fn record_zero_copy_read(&self) {
        self.zero_copy_reads.inc();
    }

    /// Captures the current counter values.
    #[must_use]
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.get(),
            misses: self.misses.get(),
            insertions: self.insertions.get(),
            evictions: self.evictions.get(),
            invalidations: self.invalidations.get(),
            stale_rejections: self.stale_rejections.get(),
            zero_copy_reads: self.zero_copy_reads.get(),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.hits.store(0);
        self.misses.store(0);
        self.insertions.store(0);
        self.evictions.store(0);
        self.invalidations.store(0);
        self.stale_rejections.store(0);
        self.zero_copy_reads.store(0);
    }

    /// Registers every counter in `registry` under `prefix` (e.g.
    /// `storage.cache` → `storage.cache.hits`, …), sharing this struct's
    /// atomics so the registry view is live and bit-exact. No-op when the
    /// registry is disabled.
    pub fn register_in(&self, registry: &MetricsRegistry, prefix: &str) {
        for (name, cell) in [
            ("hits", &self.hits),
            ("misses", &self.misses),
            ("insertions", &self.insertions),
            ("evictions", &self.evictions),
            ("invalidations", &self.invalidations),
            ("stale_rejections", &self.stale_rejections),
            ("zero_copy_reads", &self.zero_copy_reads),
        ] {
            registry.register_counter_cell(&format!("{prefix}.{name}"), Arc::clone(cell));
        }
    }
}

/// A point-in-time copy of [`CacheStats`], supporting subtraction to
/// obtain per-phase deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Values installed (miss-fills + write-throughs).
    pub insertions: u64,
    /// LRU victims dropped for capacity.
    pub evictions: u64,
    /// Values dropped or replaced by writers.
    pub invalidations: u64,
    /// Miss-fills rejected by the generation stamp.
    pub stale_rejections: u64,
    /// Pages served through the zero-copy SoA view (no `Node` decode).
    pub zero_copy_reads: u64,
}

impl CacheSnapshot {
    /// Fraction of lookups served from the cache; `None` when no lookups
    /// happened.
    #[must_use]
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }

    /// Component-wise difference `self − earlier` (saturating).
    #[must_use]
    pub fn delta_since(&self, earlier: &CacheSnapshot) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            insertions: self.insertions.saturating_sub(earlier.insertions),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            invalidations: self.invalidations.saturating_sub(earlier.invalidations),
            stale_rejections: self
                .stale_rejections
                .saturating_sub(earlier.stale_rejections),
            zero_copy_reads: self.zero_copy_reads.saturating_sub(earlier.zero_copy_reads),
        }
    }

    /// Component-wise sum — for aggregating over several caches (e.g.
    /// MTB-Join's per-bucket trees).
    #[must_use]
    pub fn merged(&self, other: &CacheSnapshot) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            insertions: self.insertions + other.insertions,
            evictions: self.evictions + other.evictions,
            invalidations: self.invalidations + other.invalidations,
            stale_rejections: self.stale_rejections + other.stale_rejections,
            zero_copy_reads: self.zero_copy_reads + other.zero_copy_reads,
        }
    }
}

impl std::ops::Sub for CacheSnapshot {
    type Output = CacheSnapshot;
    fn sub(self, rhs: Self) -> Self {
        self.delta_since(&rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::new();
        s.record_physical_read();
        s.record_physical_read();
        s.record_physical_write();
        s.record_logical_read();
        let snap = s.snapshot();
        assert_eq!(snap.physical_reads, 2);
        assert_eq!(snap.physical_writes, 1);
        assert_eq!(snap.logical_reads, 1);
        assert_eq!(snap.physical_total(), 3);
    }

    #[test]
    fn snapshot_delta() {
        let s = IoStats::new();
        s.record_physical_read();
        let before = s.snapshot();
        s.record_physical_read();
        s.record_physical_write();
        let delta = s.snapshot() - before;
        assert_eq!(delta.physical_reads, 1);
        assert_eq!(delta.physical_writes, 1);
    }

    #[test]
    fn hit_ratio() {
        let s = IoStats::new();
        assert_eq!(s.snapshot().hit_ratio(), None);
        for _ in 0..10 {
            s.record_logical_read();
        }
        s.record_physical_read(); // 1 miss in 10 reads
        assert!((s.snapshot().hit_ratio().unwrap() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = IoStats::new();
        s.record_physical_read();
        s.record_alloc();
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn cache_counters_accumulate_and_delta() {
        let s = CacheStats::new();
        s.record_hit();
        s.record_hit();
        s.record_miss();
        s.record_insertion();
        let before = s.snapshot();
        assert_eq!(before.hits, 2);
        assert_eq!(before.hit_rate(), Some(2.0 / 3.0));
        s.record_hit();
        s.record_eviction();
        s.record_invalidation();
        s.record_stale_rejection();
        let delta = s.snapshot() - before;
        assert_eq!(delta.hits, 1);
        assert_eq!(delta.evictions, 1);
        assert_eq!(delta.invalidations, 1);
        assert_eq!(delta.stale_rejections, 1);
        s.reset();
        assert_eq!(s.snapshot(), CacheSnapshot::default());
        assert_eq!(CacheSnapshot::default().hit_rate(), None);
    }

    #[test]
    fn register_in_exposes_live_bit_exact_views() {
        let registry = MetricsRegistry::new();
        let io = IoStats::new();
        io.record_physical_read();
        io.register_in(&registry, "storage.pool");
        io.record_physical_read();
        io.record_logical_write();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("storage.pool.physical_reads"), Some(2));
        assert_eq!(snap.counter("storage.pool.logical_writes"), Some(1));
        assert_eq!(
            snap.counter("storage.pool.physical_reads"),
            Some(io.snapshot().physical_reads)
        );

        let cache = CacheStats::new();
        cache.register_in(&registry, "storage.cache");
        cache.record_hit();
        cache.record_miss();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("storage.cache.hits"), Some(1));
        assert_eq!(snap.counter("storage.cache.misses"), Some(1));

        // Disabled registries accept the call and record nothing.
        let disabled = MetricsRegistry::disabled();
        io.register_in(&disabled, "storage.pool");
        assert!(disabled.snapshot().is_empty());
    }

    #[test]
    fn cache_snapshot_merged_sums() {
        let a = CacheSnapshot {
            hits: 1,
            misses: 2,
            insertions: 3,
            evictions: 4,
            invalidations: 5,
            stale_rejections: 6,
            zero_copy_reads: 7,
        };
        let b = a.merged(&a);
        assert_eq!(b.hits, 2);
        assert_eq!(b.stale_rejections, 12);
        assert_eq!(b.zero_copy_reads, 14);
    }

    #[test]
    fn page_format_counters_record_delta_and_register() {
        let s = CacheStats::new();
        s.record_zero_copy_read();
        s.record_zero_copy_read();
        let before = s.snapshot();
        assert_eq!(before.zero_copy_reads, 2);
        s.record_zero_copy_read();
        let delta = s.snapshot() - before;
        assert_eq!(delta.zero_copy_reads, 1);

        let registry = MetricsRegistry::new();
        s.register_in(&registry, "storage.page");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("storage.page.zero_copy_reads"), Some(3));

        s.reset();
        assert_eq!(s.snapshot(), CacheSnapshot::default());
    }
}
