//! Timing wrappers the benchmark installs around each layer's public API.
//!
//! Nothing here changes what the program computes: every wrapper forwards
//! each call to the value it wraps, unchanged, and only notes how long the
//! call took. The traced run installs them at three seams:
//!
//! - [`TracedEngine`] around the engine the stream service holds (the
//!   `core` layer) and around every shard-pair engine the shard
//!   coordinator builds through its `SharedShardEngineFactory` (the
//!   `shard` layer);
//! - `TracedConnector` around every loopback connector, which wraps each
//!   transport it dials so every RPC is timed (the `dist.rpc` layer).
//!
//! All probes share one epoch, so spans from different threads can be
//! merged into the wall time they cover.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use cij_core::{ContinuousJoinEngine, PairKey, PairStatus};
use cij_dist::{Connector, DistResult, Request, Response, Transport};
use cij_geom::{MovingRect, Time};
use cij_join::JoinCounters;
use cij_obs::MetricsRegistry;
use cij_storage::{BufferPool, CacheSnapshot};
use cij_tpr::{ObjectId, TprResult};
use cij_workload::{ObjectUpdate, SetTag};

/// What an engine call does, for attribution.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Index and answer maintenance: initial join, time advance, updates,
    /// inserts, removals, restores, garbage collection.
    Maint,
    /// Delta extraction: draining changed pairs and per-pair status reads.
    Extract,
    /// Snapshot reads: `result_at`, counters, cache snapshots, publishing.
    Read,
}

/// Time and work one engine spent since the last [`Tracer::take`].
#[derive(Debug, Default, Clone)]
pub struct ProbeState {
    /// Nanoseconds in maintenance calls.
    pub maint_ns: u64,
    /// Nanoseconds in `take_result_changes` and `pair_status_at`.
    pub extract_ns: u64,
    /// Nanoseconds in snapshot reads.
    pub read_ns: u64,
    /// `pair_status_at` calls.
    pub pair_status_calls: u64,
    /// Single-object operations applied (a batch counts its length).
    pub ops: u64,
    /// Duration of each single-object operation call, in nanoseconds.
    pub op_ns: Vec<u64>,
    /// `[start, end)` of every timed call, in nanoseconds since the
    /// tracer's epoch.
    pub spans: Vec<(u64, u64)>,
    /// Whether the engine still exists (a rebalance drops engines).
    pub alive: bool,
}

impl ProbeState {
    /// Time spent in every timed call.
    #[must_use]
    pub fn busy_ns(&self) -> u64 {
        self.maint_ns + self.extract_ns + self.read_ns
    }
}

/// One engine's accumulator.
#[derive(Debug)]
pub struct Probe {
    epoch: Instant,
    state: Mutex<ProbeState>,
}

impl Probe {
    fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            state: Mutex::new(ProbeState {
                alive: true,
                ..ProbeState::default()
            }),
        }
    }

    fn record(&self, kind: Kind, ops: u64, single_op: bool, start: Instant, end: Instant) {
        let s = start.duration_since(self.epoch).as_nanos() as u64;
        let e = end.duration_since(self.epoch).as_nanos() as u64;
        let mut st = self.state.lock().expect("probe lock poisoned");
        match kind {
            Kind::Maint => st.maint_ns += e - s,
            Kind::Extract => st.extract_ns += e - s,
            Kind::Read => st.read_ns += e - s,
        }
        st.ops += ops;
        if single_op {
            st.op_ns.push(e - s);
        }
        st.spans.push((s, e));
    }

    fn take(&self) -> ProbeState {
        let mut st = self.state.lock().expect("probe lock poisoned");
        let alive = st.alive;
        let out = std::mem::take(&mut *st);
        st.alive = alive;
        out
    }

    fn mark_dropped(&self) {
        // Runs in `Drop`: a poisoned lock must not turn into a panic.
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.alive = false;
    }
}

/// RPC time since the last [`Tracer::take`].
#[derive(Debug, Default, Clone)]
pub struct RpcState {
    /// Transport calls made.
    pub calls: u64,
    /// Nanoseconds spent in them.
    pub ns: u64,
    /// Duration of each call, in nanoseconds.
    pub samples: Vec<u64>,
    /// `[start, end)` of every call, in nanoseconds since the tracer's
    /// epoch.
    pub spans: Vec<(u64, u64)>,
}

/// Everything the probes gathered since the previous harvest.
#[derive(Debug, Default, Clone)]
pub struct Harvest {
    /// The engine the stream service holds.
    pub core: ProbeState,
    /// One entry per shard-pair engine that existed during the interval.
    pub shards: Vec<ProbeState>,
    /// Transport calls.
    pub rpc: RpcState,
}

/// The shared sink of every probe in one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    core: Arc<Probe>,
    shards: Mutex<Vec<Arc<Probe>>>,
    rpc: Mutex<RpcState>,
}

impl Tracer {
    /// A tracer with an empty set of probes.
    #[must_use]
    pub fn new() -> Arc<Self> {
        let epoch = Instant::now();
        Arc::new(Self {
            epoch,
            core: Arc::new(Probe::new(epoch)),
            shards: Mutex::new(Vec::new()),
            rpc: Mutex::new(RpcState::default()),
        })
    }

    /// Wraps the engine the stream service will hold.
    #[must_use]
    pub fn wrap_top(&self, inner: Box<dyn ContinuousJoinEngine>) -> Box<dyn ContinuousJoinEngine> {
        Box::new(TracedEngine {
            inner,
            probe: Arc::clone(&self.core),
        })
    }

    /// Wraps one shard-pair engine and registers its probe.
    #[must_use]
    pub fn wrap_shard(
        &self,
        inner: Box<dyn ContinuousJoinEngine + Send>,
    ) -> Box<dyn ContinuousJoinEngine + Send> {
        let probe = Arc::new(Probe::new(self.epoch));
        self.shards
            .lock()
            .expect("tracer lock poisoned")
            .push(Arc::clone(&probe));
        Box::new(TracedEngine { inner, probe })
    }

    /// Wraps a connector so every transport it dials is timed.
    #[must_use]
    pub fn wrap_connector(self: &Arc<Self>, inner: Box<dyn Connector>) -> Box<dyn Connector> {
        Box::new(TracedConnector {
            inner,
            tracer: Arc::clone(self),
        })
    }

    /// `at` in nanoseconds since the epoch every probe's spans use.
    #[must_use]
    pub fn since_epoch(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Drains every probe, forgetting engines that no longer exist.
    pub fn take(&self) -> Harvest {
        let mut shards = self.shards.lock().expect("tracer lock poisoned");
        let states = shards.iter().map(|p| p.take()).collect();
        shards.retain(|p| p.state.lock().expect("probe lock poisoned").alive);
        Harvest {
            core: self.core.take(),
            shards: states,
            rpc: std::mem::take(&mut *self.rpc.lock().expect("tracer lock poisoned")),
        }
    }

    fn record_rpc(&self, start: Instant, end: Instant) {
        let (s, e) = (self.since_epoch(start), self.since_epoch(end));
        let mut rpc = self.rpc.lock().expect("tracer lock poisoned");
        rpc.calls += 1;
        rpc.ns += e - s;
        rpc.samples.push(e - s);
        rpc.spans.push((s, e));
    }
}

/// A forwarding engine that times every call into the engine it wraps.
pub struct TracedEngine<E: ?Sized> {
    inner: Box<E>,
    probe: Arc<Probe>,
}

impl<E: ?Sized> Drop for TracedEngine<E> {
    fn drop(&mut self) {
        self.probe.mark_dropped();
    }
}

/// Runs `f` and records it on `probe`.
fn timed<R>(probe: &Probe, kind: Kind, ops: u64, single_op: bool, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    probe.record(kind, ops, single_op, start, Instant::now());
    out
}

impl<E: ContinuousJoinEngine + ?Sized> ContinuousJoinEngine for TracedEngine<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run_initial_join(&mut self, now: Time) -> TprResult<()> {
        timed(&self.probe, Kind::Maint, 0, false, || {
            self.inner.run_initial_join(now)
        })
    }

    fn advance_time(&mut self, now: Time) -> TprResult<()> {
        timed(&self.probe, Kind::Maint, 0, false, || {
            self.inner.advance_time(now)
        })
    }

    fn apply_update(&mut self, update: &ObjectUpdate, now: Time) -> TprResult<()> {
        timed(&self.probe, Kind::Maint, 1, true, || {
            self.inner.apply_update(update, now)
        })
    }

    fn apply_batch(&mut self, updates: &[ObjectUpdate], now: Time) -> TprResult<()> {
        timed(
            &self.probe,
            Kind::Maint,
            updates.len() as u64,
            false,
            || self.inner.apply_batch(updates, now),
        )
    }

    fn insert_object(
        &mut self,
        set: SetTag,
        id: ObjectId,
        mbr: MovingRect,
        now: Time,
    ) -> TprResult<()> {
        timed(&self.probe, Kind::Maint, 1, true, || {
            self.inner.insert_object(set, id, mbr, now)
        })
    }

    fn remove_object(
        &mut self,
        set: SetTag,
        id: ObjectId,
        old_mbr: &MovingRect,
        last_update: Time,
        now: Time,
    ) -> TprResult<()> {
        timed(&self.probe, Kind::Maint, 1, true, || {
            self.inner.remove_object(set, id, old_mbr, last_update, now)
        })
    }

    fn restore_object(
        &mut self,
        set: SetTag,
        id: ObjectId,
        mbr: MovingRect,
        registered_at: Time,
        now: Time,
    ) -> TprResult<()> {
        timed(&self.probe, Kind::Maint, 1, true, || {
            self.inner.restore_object(set, id, mbr, registered_at, now)
        })
    }

    fn gc(&mut self, now: Time) {
        timed(&self.probe, Kind::Maint, 0, false, || self.inner.gc(now));
    }

    fn result_at(&self, t: Time) -> Vec<PairKey> {
        timed(&self.probe, Kind::Read, 0, false, || {
            self.inner.result_at(t)
        })
    }

    fn pool(&self) -> &BufferPool {
        self.inner.pool()
    }

    fn counters(&self) -> JoinCounters {
        timed(&self.probe, Kind::Read, 0, false, || self.inner.counters())
    }

    fn enable_delta_tracking(&mut self) {
        timed(&self.probe, Kind::Maint, 0, false, || {
            self.inner.enable_delta_tracking();
        });
    }

    fn take_result_changes(&mut self) -> Option<Vec<PairKey>> {
        timed(&self.probe, Kind::Extract, 0, false, || {
            self.inner.take_result_changes()
        })
    }

    fn pair_status_at(&self, pair: PairKey, t: Time) -> PairStatus {
        let out = timed(&self.probe, Kind::Extract, 0, false, || {
            self.inner.pair_status_at(pair, t)
        });
        self.probe
            .state
            .lock()
            .expect("probe lock poisoned")
            .pair_status_calls += 1;
        out
    }

    fn node_cache_snapshot(&self) -> Option<CacheSnapshot> {
        timed(&self.probe, Kind::Read, 0, false, || {
            self.inner.node_cache_snapshot()
        })
    }

    fn page_format_snapshot(&self) -> Option<CacheSnapshot> {
        timed(&self.probe, Kind::Read, 0, false, || {
            self.inner.page_format_snapshot()
        })
    }

    fn metrics_registry(&self) -> MetricsRegistry {
        self.inner.metrics_registry()
    }

    fn publish_metrics(&self) {
        timed(&self.probe, Kind::Read, 0, false, || {
            self.inner.publish_metrics();
        });
    }
}

/// A forwarding connector whose transports time every call.
struct TracedConnector {
    inner: Box<dyn Connector>,
    tracer: Arc<Tracer>,
}

impl Connector for TracedConnector {
    fn connect(&self) -> DistResult<Box<dyn Transport>> {
        let inner = self.inner.connect()?;
        Ok(Box::new(TracedTransport {
            inner,
            tracer: Arc::clone(&self.tracer),
        }))
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

struct TracedTransport {
    inner: Box<dyn Transport>,
    tracer: Arc<Tracer>,
}

impl Transport for TracedTransport {
    fn call(&mut self, req: &Request) -> DistResult<Response> {
        let start = Instant::now();
        let out = self.inner.call(req);
        self.tracer.record_rpc(start, Instant::now());
        out
    }
}

/// The union of `spans` as sorted, disjoint `[start, end)` intervals.
#[must_use]
pub fn merged(spans: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut sorted = spans.to_vec();
    sorted.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(sorted.len());
    for (s, e) in sorted {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total length of disjoint intervals, in nanoseconds.
#[must_use]
pub fn length(intervals: &[(u64, u64)]) -> u64 {
    intervals.iter().map(|&(s, e)| e - s).sum()
}

/// Length of the intersection of two sets of sorted, disjoint intervals
/// (as [`merged`] returns them), in nanoseconds.
#[must_use]
pub fn overlap(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut total) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (s, e) = (a[i].0.max(b[j].0), a[i].1.min(b[j].1));
        total += e.saturating_sub(s);
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    use cij_storage::{BufferPoolConfig, InMemoryStore};

    /// An engine that overrides every trait method and logs each call, so
    /// a wrapper that fell back to a default method would show up as a
    /// missing log entry.
    struct Recorder {
        log: Rc<RefCell<Vec<&'static str>>>,
        pool: BufferPool,
    }

    impl Recorder {
        fn note(&self, what: &'static str) {
            self.log.borrow_mut().push(what);
        }
    }

    impl ContinuousJoinEngine for Recorder {
        fn name(&self) -> &'static str {
            self.note("name");
            "Recorder"
        }
        fn run_initial_join(&mut self, _now: Time) -> TprResult<()> {
            self.note("run_initial_join");
            Ok(())
        }
        fn advance_time(&mut self, _now: Time) -> TprResult<()> {
            self.note("advance_time");
            Ok(())
        }
        fn apply_update(&mut self, _u: &ObjectUpdate, _now: Time) -> TprResult<()> {
            self.note("apply_update");
            Ok(())
        }
        fn apply_batch(&mut self, _u: &[ObjectUpdate], _now: Time) -> TprResult<()> {
            self.note("apply_batch");
            Ok(())
        }
        fn insert_object(
            &mut self,
            _: SetTag,
            _: ObjectId,
            _: MovingRect,
            _: Time,
        ) -> TprResult<()> {
            self.note("insert_object");
            Ok(())
        }
        fn remove_object(
            &mut self,
            _: SetTag,
            _: ObjectId,
            _: &MovingRect,
            _: Time,
            _: Time,
        ) -> TprResult<()> {
            self.note("remove_object");
            Ok(())
        }
        fn restore_object(
            &mut self,
            _: SetTag,
            _: ObjectId,
            _: MovingRect,
            _: Time,
            _: Time,
        ) -> TprResult<()> {
            self.note("restore_object");
            Ok(())
        }
        fn gc(&mut self, _now: Time) {
            self.note("gc");
        }
        fn result_at(&self, _t: Time) -> Vec<PairKey> {
            self.note("result_at");
            vec![(ObjectId(1), ObjectId(2))]
        }
        fn pool(&self) -> &BufferPool {
            self.note("pool");
            &self.pool
        }
        fn counters(&self) -> JoinCounters {
            self.note("counters");
            JoinCounters {
                node_pairs: 7,
                ..JoinCounters::new()
            }
        }
        fn enable_delta_tracking(&mut self) {
            self.note("enable_delta_tracking");
        }
        fn take_result_changes(&mut self) -> Option<Vec<PairKey>> {
            self.note("take_result_changes");
            Some(vec![(ObjectId(3), ObjectId(4))])
        }
        fn pair_status_at(&self, _pair: PairKey, t: Time) -> PairStatus {
            self.note("pair_status_at");
            PairStatus {
                active: None,
                next_start: Some(t + 1.0),
            }
        }
        fn node_cache_snapshot(&self) -> Option<CacheSnapshot> {
            self.note("node_cache_snapshot");
            Some(CacheSnapshot {
                hits: 5,
                ..CacheSnapshot::default()
            })
        }
        fn page_format_snapshot(&self) -> Option<CacheSnapshot> {
            self.note("page_format_snapshot");
            Some(CacheSnapshot {
                zero_copy_reads: 9,
                ..CacheSnapshot::default()
            })
        }
        fn metrics_registry(&self) -> MetricsRegistry {
            self.note("metrics_registry");
            MetricsRegistry::disabled()
        }
        fn publish_metrics(&self) {
            self.note("publish_metrics");
        }
    }

    #[test]
    fn the_engine_wrapper_forwards_every_trait_method() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let inner = Recorder {
            log: Rc::clone(&log),
            pool: BufferPool::new(
                Arc::new(InMemoryStore::new()),
                BufferPoolConfig::with_capacity(4),
            ),
        };
        let tracer = Tracer::new();
        let mut e = tracer.wrap_top(Box::new(inner));
        let mbr = MovingRect::stationary(cij_geom::Rect::new([0.0, 0.0], [1.0, 1.0]), 0.0);
        let update = ObjectUpdate {
            id: ObjectId(1),
            set: SetTag::A,
            old_mbr: mbr,
            last_update: 0.0,
            new_mbr: mbr,
        };
        let pair = (ObjectId(1), ObjectId(2));

        assert_eq!(e.name(), "Recorder");
        e.run_initial_join(0.0).unwrap();
        e.advance_time(1.0).unwrap();
        e.apply_update(&update, 1.0).unwrap();
        e.apply_batch(&[update, update], 1.0).unwrap();
        e.insert_object(SetTag::A, ObjectId(1), mbr, 1.0).unwrap();
        e.remove_object(SetTag::A, ObjectId(1), &mbr, 0.0, 1.0)
            .unwrap();
        e.restore_object(SetTag::A, ObjectId(1), mbr, 0.0, 1.0)
            .unwrap();
        e.gc(1.0);
        assert_eq!(e.result_at(1.0), vec![pair]);
        let _ = e.pool();
        assert_eq!(e.counters().node_pairs, 7);
        e.enable_delta_tracking();
        assert_eq!(
            e.take_result_changes(),
            Some(vec![(ObjectId(3), ObjectId(4))])
        );
        assert_eq!(e.pair_status_at(pair, 2.0).next_start, Some(3.0));
        assert_eq!(e.node_cache_snapshot().map(|c| c.hits), Some(5));
        assert_eq!(e.page_format_snapshot().map(|c| c.zero_copy_reads), Some(9));
        let _ = e.metrics_registry();
        e.publish_metrics();

        assert_eq!(
            *log.borrow(),
            vec![
                "name",
                "run_initial_join",
                "advance_time",
                "apply_update",
                "apply_batch",
                "insert_object",
                "remove_object",
                "restore_object",
                "gc",
                "result_at",
                "pool",
                "counters",
                "enable_delta_tracking",
                "take_result_changes",
                "pair_status_at",
                "node_cache_snapshot",
                "page_format_snapshot",
                "metrics_registry",
                "publish_metrics",
            ]
        );

        let h = tracer.take();
        assert_eq!(h.core.pair_status_calls, 1);
        // apply_update + batch of two + insert + remove + restore.
        assert_eq!(h.core.ops, 6);
        assert_eq!(h.core.op_ns.len(), 4);
        assert_eq!(h.core.spans.len(), 16);
        drop(e);
        assert!(!tracer.core.take().alive);
    }

    #[test]
    fn interval_sets_merge_and_intersect() {
        let a = merged(&[(10, 20), (0, 5), (15, 30), (40, 41)]);
        assert_eq!(a, vec![(0, 5), (10, 30), (40, 41)]);
        assert_eq!(length(&a), 5 + 20 + 1);
        assert_eq!(length(&merged(&[])), 0);
        let b = merged(&[(3, 12), (25, 45)]);
        assert_eq!(overlap(&a, &b), 2 + 2 + 5 + 1);
        assert_eq!(overlap(&b, &a), overlap(&a, &b));
        assert_eq!(overlap(&a, &[]), 0);
    }
}
