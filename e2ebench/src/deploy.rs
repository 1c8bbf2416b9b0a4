//! The three workloads and the deployments they run on.
//!
//! Every workload is a `StreamService` with a write-ahead log and one
//! `All` subscriber; they differ in what sits under the service:
//!
//! - `uniform-mtb` — one `MtbEngine` at program defaults;
//! - `skew-shard-subs` — a `ShardCoordinator` (K=4 velocity bands,
//!   adaptive re-partitioning, 2 threads) and 1024 window subscribers;
//! - `dist-k4` — a `DistCoordinator` over 16 loopback workers.
//!
//! The distributed workers keep no WAL of their own. With one WAL per
//! worker, every tick blocks on 17 flushes, and on a small VM the time
//! each thread takes to wake from those blocks swings from run to run by
//! more than any bound the benchmark may set. See `README.md`.
//!
//! A [`Deployment`] builds the service for one run. The traced run gives
//! it a [`Tracer`], which installs the timing wrappers, and turns on the
//! program's metric registries; the untraced run has neither and runs
//! the program exactly as a user would.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cij_core::{ContinuousJoinEngine, EngineConfig, MtbEngine};
use cij_dist::loopback::LoopbackHost;
use cij_dist::{joinable_pairs, Connector, DistConfig, DistCoordinator, EngineKind};
use cij_geom::{Rect, Time};
use cij_shard::{
    AdaptiveConfig, PartitionPolicy, ShardCoordinator, SharedShardEngineFactory, VelocityBandPolicy,
};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_stream::{
    RecoveryReport, StreamConfig, StreamResult, StreamService, SubscriberId, SubscriptionFilter,
};
use cij_tpr::TprResult;
use cij_workload::{Distribution, MovingObject, Params};

use crate::trace::Tracer;

/// Shards per object set in the sharded and distributed workloads.
const K: usize = 4;
/// Fan-out threads of the shard coordinator.
pub const SHARD_THREADS: usize = 2;
/// Window subscribers of `skew-shard-subs`: a 32×32 grid of 50×50 windows.
const WINDOW_GRID: usize = 32;
const WINDOW_SIDE: f64 = 50.0;
/// Ingest queue bound: above the largest tick batch (every object of
/// both sets at once), so a closed-loop client is never refused.
const QUEUE_CAPACITY: usize = 1 << 16;
/// Outbox bound: above the largest tick's delta count, so no subscriber
/// that polls every tick ever sees a gap.
const OUTBOX_CAPACITY: usize = 1 << 20;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table I defaults under one MTB engine.
    UniformMtb,
    /// Velocity-skewed objects under the adaptive shard coordinator,
    /// with 1024 window subscribers.
    SkewShardSubs,
    /// Velocity-skewed objects under the distributed coordinator over
    /// loopback workers.
    DistK4,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Self; 3] = [Self::UniformMtb, Self::SkewShardSubs, Self::DistK4];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::UniformMtb => "uniform-mtb",
            Self::SkewShardSubs => "skew-shard-subs",
            Self::DistK4 => "dist-k4",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Objects per set at full size.
    #[must_use]
    pub fn objects(self) -> usize {
        match self {
            Self::UniformMtb | Self::SkewShardSubs => 10_000,
            Self::DistK4 => 1_000,
        }
    }

    /// Measured ticks per requested second. Fixing the tick count from
    /// `--seconds` (instead of stopping on the clock) keeps the amount of
    /// work, and with it the WAL a recovery replays, the same for every
    /// build, so a faster build measures the same ticks in less time.
    #[must_use]
    pub fn ticks_per_second(self) -> f64 {
        match self {
            Self::UniformMtb => 16.0,
            Self::SkewShardSubs => 14.0,
            Self::DistK4 => 400.0,
        }
    }

    /// Table I parameters with this workload's distribution, size and
    /// seed.
    #[must_use]
    pub fn params(self, objects: usize, seed: u64) -> Params {
        Params {
            dataset_size: objects,
            distribution: match self {
                Self::UniformMtb => Distribution::Uniform,
                Self::SkewShardSubs | Self::DistK4 => Distribution::VelocitySkew,
            },
            seed,
            ..Params::default()
        }
    }

    /// Window subscribers beside the `All` subscriber.
    #[must_use]
    pub fn window_subscribers(self) -> usize {
        match self {
            Self::SkewShardSubs => WINDOW_GRID * WINDOW_GRID,
            Self::UniformMtb | Self::DistK4 => 0,
        }
    }
}

/// The filters a run subscribes with: `All` first, then the windows.
fn filters(workload: Workload, space: f64) -> Vec<SubscriptionFilter> {
    let mut out = vec![SubscriptionFilter::All];
    let n = workload.window_subscribers();
    if n > 0 {
        let step = (space - WINDOW_SIDE) / (WINDOW_GRID - 1) as f64;
        for i in 0..WINDOW_GRID {
            for j in 0..WINDOW_GRID {
                let (x, y) = (i as f64 * step, j as f64 * step);
                out.push(SubscriptionFilter::Window(Rect::new(
                    [x, y],
                    [x + WINDOW_SIDE, y + WINDOW_SIDE],
                )));
            }
        }
    }
    out
}

/// Builds, recovers and (for the distributed workload) crashes one run's
/// service.
pub struct Deployment {
    workload: Workload,
    params: Params,
    dir: PathBuf,
    tracer: Option<Arc<Tracer>>,
    metrics: bool,
    /// The loopback worker hosts of the current distributed coordinator.
    hosts: RefCell<Vec<Arc<LoopbackHost>>>,
}

impl Deployment {
    /// A deployment writing its logs under `dir` (created if missing),
    /// with the timing wrappers installed when `tracer` is given and the
    /// program's metric registries enabled when `metrics` is set.
    ///
    /// # Errors
    /// When `dir` cannot be created.
    pub fn new(
        workload: Workload,
        params: Params,
        dir: &Path,
        tracer: Option<Arc<Tracer>>,
        metrics: bool,
    ) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            workload,
            params,
            dir: dir.to_path_buf(),
            tracer,
            metrics,
            hosts: RefCell::new(Vec::new()),
        })
    }

    /// The stream service's configuration.
    #[must_use]
    pub fn stream_config(&self) -> StreamConfig {
        let engine = EngineConfig::builder()
            .t_m(self.params.maximum_update_interval)
            .metrics(self.metrics)
            .build();
        StreamConfig::builder()
            .engine(engine)
            .batch_capacity(QUEUE_CAPACITY)
            .high_watermark(QUEUE_CAPACITY)
            .low_watermark(QUEUE_CAPACITY / 2)
            .outbox_capacity(OUTBOX_CAPACITY)
            .wal_path(self.dir.join("stream.wal"))
            .build()
    }

    fn policy(&self) -> Arc<dyn PartitionPolicy> {
        Arc::new(VelocityBandPolicy::new(K, self.params.max_speed))
    }

    /// The stream service's engine factory.
    fn build_engine(
        &self,
        config: &EngineConfig,
        set_a: &[MovingObject],
        set_b: &[MovingObject],
        start: Time,
    ) -> TprResult<Box<dyn ContinuousJoinEngine>> {
        let engine: Box<dyn ContinuousJoinEngine> = match self.workload {
            Workload::UniformMtb => Box::new(MtbEngine::new(
                BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::default()),
                *config,
                set_a,
                set_b,
                start,
            )?),
            Workload::SkewShardSubs => {
                let tracer = self.tracer.clone();
                let factory: SharedShardEngineFactory = Arc::new(move |pool, cfg, a, b, now| {
                    let engine: Box<dyn ContinuousJoinEngine + Send> =
                        Box::new(MtbEngine::new(pool, *cfg, a, b, now)?);
                    Ok(match &tracer {
                        Some(t) => t.wrap_shard(engine),
                        None => engine,
                    })
                });
                let mut coordinator = ShardCoordinator::with_factory(
                    BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::default()),
                    config.to_builder().threads(SHARD_THREADS).build(),
                    self.policy(),
                    set_a,
                    set_b,
                    start,
                    factory,
                )?;
                coordinator.enable_adaptive(AdaptiveConfig::velocity(self.params.max_speed))?;
                Box::new(coordinator)
            }
            Workload::DistK4 => {
                let policy = self.policy();
                let mut hosts = Vec::new();
                let mut connectors: Vec<Box<dyn Connector>> = Vec::new();
                for _ in 0..joinable_pairs(&*policy).len() {
                    let host = LoopbackHost::ephemeral();
                    let connector: Box<dyn Connector> = Box::new(host.connector());
                    connectors.push(match &self.tracer {
                        Some(t) => t.wrap_connector(connector),
                        None => connector,
                    });
                    hosts.push(host);
                }
                let dist = DistConfig {
                    engine: EngineKind::Mtb,
                    t_m: config.t_m,
                    buckets_per_tm: config.buckets_per_tm,
                    metrics: config.metrics,
                    ..DistConfig::default()
                };
                let coordinator =
                    DistCoordinator::new(dist, policy, connectors, set_a, set_b, start)?;
                *self.hosts.borrow_mut() = hosts;
                Box::new(coordinator)
            }
        };
        Ok(match &self.tracer {
            Some(t) => t.wrap_top(engine),
            None => engine,
        })
    }

    /// Builds the service over the genesis sets and subscribes every
    /// subscriber (`All` first). This is the span `setup_s` times.
    ///
    /// # Errors
    /// Whatever `StreamService::new` or `subscribe` returns.
    pub fn start(
        &self,
        set_a: &[MovingObject],
        set_b: &[MovingObject],
    ) -> StreamResult<(StreamService, Vec<SubscriberId>)> {
        let mut service =
            StreamService::new(self.stream_config(), set_a, set_b, 0.0, &|c, a, b, t| {
                self.build_engine(c, a, b, t)
            })?;
        let subscribers = filters(self.workload, self.params.space)
            .into_iter()
            .map(|f| service.subscribe(f))
            .collect::<StreamResult<_>>()?;
        Ok((service, subscribers))
    }

    /// Rebuilds the service from its write-ahead log.
    ///
    /// # Errors
    /// Whatever `StreamService::recover` returns.
    pub fn recover(&self) -> StreamResult<(StreamService, RecoveryReport)> {
        StreamService::recover(self.stream_config(), &|c, a, b, t| {
            self.build_engine(c, a, b, t)
        })
    }

    /// Crashes every loopback worker. Each restarts empty the next time
    /// the coordinator dials it, and the coordinator replays the requests
    /// it retained to rebuild the worker.
    pub fn kill_workers(&self) {
        for host in self.hosts.borrow().iter() {
            host.kill();
        }
    }
}
