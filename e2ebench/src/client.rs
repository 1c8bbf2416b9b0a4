//! The closed-loop client: one process submits each tick's updates,
//! advances the service to the tick, and polls every subscriber before
//! it starts the next tick.
//!
//! Every tick's updates are generated from the seed before the service
//! is built, so nothing but the program runs inside a timed region. The
//! correctness checks run between ticks, outside the timed region:
//!
//! - every tick, the `All` subscriber's replayed delta set must equal
//!   `result_at(now)`;
//! - at the end of the warm-up, at the end of the measured phase and at
//!   the tick after recovery, `result_at(now)` must equal the brute-force
//!   oracle on the generator's own snapshot of every trajectory;
//! - a recovered service must answer exactly as the live one did.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::Instant;

use cij_core::PairKey;
use cij_geom::{MovingRect, Time};
use cij_join::brute::brute_pairs_at;
use cij_obs::MetricsSnapshot;
use cij_stream::{IngestOutcome, OutboxItem, StampedDelta, StreamService, SubscriberId};
use cij_tpr::ObjectId;
use cij_workload::{generate_pair, MovingObject, ObjectUpdate, Params, SetTag, UpdateStream};

use crate::deploy::{Deployment, Workload};
use crate::report::rss_mb;
use crate::trace::{length, merged, overlap, Harvest, Tracer};

/// Most times a pass builds the service.
pub const MAX_SETUP_REPS: usize = 30;

/// How much a pass runs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Objects per set.
    pub objects: usize,
    /// Ticks before timing starts.
    pub warmup: u32,
    /// Timed ticks.
    pub measured: u32,
    /// Least times the service is built; `setup_s` is the median.
    pub setup_reps: usize,
    /// Builds continue past `setup_reps` until they have taken this many
    /// seconds in all (up to [`MAX_SETUP_REPS`]), so a set-up of a few
    /// milliseconds still gets a steady median.
    pub setup_seconds: f64,
}

/// What one pass does beyond the ticks.
#[derive(Debug, Clone, Copy)]
pub struct PassSpec {
    /// Which workload.
    pub workload: Workload,
    /// Its size and length.
    pub scale: Scale,
    /// Input seed.
    pub seed: u64,
    /// Install the timing wrappers.
    pub traced: bool,
    /// Enable the program's metric registries.
    pub metrics: bool,
    /// Crash and recover after the measured ticks, then run one more
    /// tick on the recovered service.
    pub recover: bool,
    /// Keep the full delta stream (for the transparency test).
    pub record_deltas: bool,
}

/// Every tick's input, generated before the run.
struct Plan {
    set_a: Vec<MovingObject>,
    set_b: Vec<MovingObject>,
    /// `ticks[i]` holds the updates of tick `i + 1`.
    ticks: Vec<Vec<ObjectUpdate>>,
    /// Trajectory snapshots of both sets at the oracle ticks.
    snapshots: BTreeMap<u32, Snapshot>,
}

type Snapshot = (Vec<(ObjectId, MovingRect)>, Vec<(ObjectId, MovingRect)>);

fn plan(params: &Params, total: u32, oracle_ticks: &[u32]) -> Plan {
    let (set_a, set_b) = generate_pair(params, 0.0);
    let mut stream = UpdateStream::new(params, &set_a, &set_b, 0.0);
    let mut ticks = Vec::with_capacity(total as usize);
    let mut snapshots = BTreeMap::new();
    for tick in 1..=total {
        ticks.push(stream.tick(f64::from(tick)));
        if oracle_ticks.contains(&tick) {
            snapshots.insert(
                tick,
                (stream.snapshot(SetTag::A), stream.snapshot(SetTag::B)),
            );
        }
    }
    Plan {
        set_a,
        set_b,
        ticks,
        snapshots,
    }
}

/// Per-layer totals over the measured ticks of a traced pass.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Measured ticks.
    pub ticks: u64,
    /// Updates applied in them.
    pub updates: u64,
    /// Tick time, first submit to last poll.
    pub tick_ns: u64,
    /// Time in the submit loop.
    pub submit_ns: u64,
    /// Time in `advance_to`.
    pub advance_ns: u64,
    /// Time in the poll loop.
    pub poll_ns: u64,
    /// Client time between the submit loop and `advance_to`.
    pub gap_ns: u64,
    /// Deltas `advance_to` returned.
    pub deltas: u64,
    /// Outbox items polled, over every subscriber.
    pub delivered: u64,
    /// Top engine: maintenance calls.
    pub core_maint_ns: u64,
    /// Top engine: extraction calls.
    pub core_extract_ns: u64,
    /// Top engine: every call.
    pub core_ns: u64,
    /// `advance_to` time outside every top-engine call.
    pub stream_self_ns: u64,
    /// Top-engine time outside every shard-engine call and RPC.
    pub core_self_ns: u64,
    /// Top engine: `pair_status_at` calls.
    pub pair_status_calls: u64,
    /// Shard-pair engines: every call, summed over engines.
    pub shard_busy_ns: u64,
    /// Shard-pair engines: maintenance calls, summed over engines.
    pub shard_maint_ns: u64,
    /// Shard-pair engines: wall time covered by any engine call.
    pub shard_wall_ns: u64,
    /// Shard-pair engines: single-object operations.
    pub shard_ops: u64,
    /// Shard-pair engines: duration of each single-object operation.
    pub shard_op_ns: Vec<u64>,
    /// Σ over ticks of max / mean engine busy time.
    pub straggler_sum: f64,
    /// Ticks with any shard-engine work.
    pub straggler_ticks: u64,
    /// Engines alive at the last tick.
    pub shard_engines: u64,
    /// Transport calls.
    pub rpc_calls: u64,
    /// Time in transport calls.
    pub rpc_ns: u64,
    /// Wall time covered by any transport call.
    pub rpc_wall_ns: u64,
    /// Duration of each transport call.
    pub rpc_samples: Vec<u64>,
    /// Registry snapshot when the measured ticks start.
    pub registry_start: Option<MetricsSnapshot>,
    /// Registry snapshot when they end.
    pub registry_end: Option<MetricsSnapshot>,
}

impl Layers {
    /// Adds one measured tick. Every span lies on the tracer's epoch, so
    /// a layer's self-time is its own calls' wall time minus the part its
    /// children's calls cover. A child call outside its parent's calls
    /// is counted in both and makes the layer sum overshoot the tick.
    fn add_tick(&mut self, t: &TickTimes, updates: usize, h: Harvest, tracer: &Tracer) {
        self.ticks += 1;
        self.updates += updates as u64;
        self.tick_ns += t.total_ns;
        self.submit_ns += t.submit_ns;
        self.advance_ns += t.advance_ns;
        self.poll_ns += t.poll_ns;
        self.gap_ns += t.gap_ns;
        self.deltas += t.deltas;
        self.delivered += t.delivered;
        self.core_maint_ns += h.core.maint_ns;
        self.core_extract_ns += h.core.extract_ns;
        self.core_ns += h.core.busy_ns();
        self.pair_status_calls += h.core.pair_status_calls;
        let mut shard_spans = Vec::new();
        let mut busy = Vec::new();
        for s in h.shards {
            self.shard_busy_ns += s.busy_ns();
            self.shard_maint_ns += s.maint_ns;
            self.shard_ops += s.ops;
            self.shard_op_ns.extend_from_slice(&s.op_ns);
            shard_spans.extend_from_slice(&s.spans);
            if s.alive {
                busy.push(s.busy_ns());
            }
        }
        let advance = [(
            tracer.since_epoch(t.advance.0),
            tracer.since_epoch(t.advance.1),
        )];
        let core = merged(&h.core.spans);
        let shard = merged(&shard_spans);
        let rpc = merged(&h.rpc.spans);
        let children = merged(&[shard.as_slice(), rpc.as_slice()].concat());
        self.stream_self_ns += length(&advance) - overlap(&advance, &core);
        self.core_self_ns += length(&core) - overlap(&core, &children);
        self.shard_wall_ns += length(&shard);
        self.rpc_wall_ns += length(&rpc);
        self.shard_engines = busy.len() as u64;
        let total: u64 = busy.iter().sum();
        if total > 0 {
            let mean = total as f64 / busy.len() as f64;
            let max = busy.iter().copied().max().unwrap_or(0) as f64;
            self.straggler_sum += max / mean;
            self.straggler_ticks += 1;
        }
        self.rpc_calls += h.rpc.calls;
        self.rpc_ns += h.rpc.ns;
        self.rpc_samples.extend_from_slice(&h.rpc.samples);
    }
}

/// What one pass measured and checked.
#[derive(Debug, Default)]
pub struct PassOutput {
    /// Seconds each `setup` repetition took.
    pub setup_s: Vec<f64>,
    /// Measured tick times, in nanoseconds.
    pub tick_ns: Vec<u64>,
    /// Updates applied in each measured tick.
    pub tick_updates: Vec<u64>,
    /// Resident set size once every input is generated, in MiB: the
    /// client's own share of the peak.
    pub client_rss_mb: f64,
    /// Recovery time, when the pass recovered.
    pub recover_s: Option<f64>,
    /// Batches in the stream WAL (what a stream recovery replays).
    pub wal_batches: u64,
    /// Operations attempted: submits, ticks, and checks.
    pub attempted: u64,
    /// Operations that failed: refused submits, errors, mismatches.
    pub failed: u64,
    /// A line per failure.
    pub failures: Vec<String>,
    /// Every delta `advance_to` returned, when recorded.
    pub deltas: Vec<StampedDelta>,
    /// `result_at` at the last tick.
    pub final_pairs: Vec<PairKey>,
    /// Registry snapshot at the end of the pass, after any recovery
    /// (metrics-on passes only).
    pub final_metrics: Option<MetricsSnapshot>,
    /// Per-layer totals (traced passes only).
    pub layers: Option<Layers>,
}

impl PassOutput {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

#[derive(Debug)]
struct TickTimes {
    total_ns: u64,
    submit_ns: u64,
    gap_ns: u64,
    advance_ns: u64,
    /// When `advance_to` started and returned.
    advance: (Instant, Instant),
    poll_ns: u64,
    deltas: u64,
    delivered: u64,
}

/// The client's view of the `All` subscriber: the pair set its deltas
/// replay to.
#[derive(Default)]
struct Replay {
    pairs: HashSet<PairKey>,
}

impl Replay {
    /// Applies polled items; returns a description of any protocol
    /// violation. A gap is expected only right after a recovery, which
    /// restarts the outbox with a catch-up snapshot.
    fn apply(&mut self, items: &[OutboxItem], gap_expected: bool) -> Option<String> {
        let mut problem = None;
        for item in items {
            match item {
                OutboxItem::Gap { dropped } => {
                    if !gap_expected {
                        problem = Some(format!("unexpected gap of {dropped} deltas"));
                    }
                    self.pairs.clear();
                }
                OutboxItem::Delta(d) => {
                    let pair = d.delta.pair();
                    let consistent = if d.delta.is_add() {
                        self.pairs.insert(pair)
                    } else {
                        self.pairs.remove(&pair)
                    };
                    if !consistent && problem.is_none() {
                        problem = Some(format!("inconsistent delta {:?} at {}", d.delta, d.at));
                    }
                }
            }
        }
        problem
    }

    fn sorted(&self) -> Vec<PairKey> {
        let mut v: Vec<_> = self.pairs.iter().copied().collect();
        v.sort_unstable();
        v
    }
}

/// The closed-loop client's state across ticks.
struct Client {
    /// Every subscriber, `All` first.
    subs: Vec<SubscriberId>,
    replay: Replay,
    /// Keep every delta in [`PassOutput::deltas`].
    record: bool,
}

/// One service lifetime: set-up, warm-up, measured ticks, and optionally
/// a crash, a recovery and one more tick.
///
/// # Errors
/// A description of the first engine or stream error; checks that fail
/// are counted in the output instead.
pub fn run_pass(spec: &PassSpec, dir: &Path) -> Result<PassOutput, String> {
    let PassSpec {
        workload, scale, ..
    } = *spec;
    let params = workload.params(scale.objects, spec.seed);
    let end = scale.warmup + scale.measured;
    let recovery_tick = end + 1;
    let plan = plan(&params, recovery_tick, &[scale.warmup, end, recovery_tick]);
    let client_rss_mb = rss_mb("VmRSS:");
    let tracer = spec.traced.then(Tracer::new);
    let dep = Deployment::new(workload, params, dir, tracer.clone(), spec.metrics)
        .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut out = PassOutput {
        client_rss_mb,
        ..PassOutput::default()
    };

    let mut started = None;
    while out.setup_s.len() < scale.setup_reps.max(1)
        || (out.setup_s.iter().sum::<f64>() < scale.setup_seconds
            && out.setup_s.len() < MAX_SETUP_REPS)
    {
        drop(started.take());
        let t0 = Instant::now();
        let built = dep.start(&plan.set_a, &plan.set_b);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        started = Some(built.map_err(|e| format!("setup: {e}"))?);
    }
    let (mut svc, subs) = started.expect("at least one setup");
    let mut client = Client {
        subs,
        replay: Replay::default(),
        record: spec.record_deltas,
    };
    let mut layers = Layers::default();

    for tick in 1..=end {
        let measured = tick > scale.warmup;
        if tick == scale.warmup + 1 && spec.metrics {
            layers.registry_start = Some(svc.metrics_snapshot());
        }
        let batch = &plan.ticks[tick as usize - 1];
        if let Some(t) = &tracer {
            t.take();
        }
        let times = run_tick(&mut svc, &mut client, tick, batch, false, &mut out)?;
        if let Some(t) = &tracer {
            let h = t.take();
            if measured {
                layers.add_tick(&times, batch.len(), h, t);
            }
        }
        if measured {
            out.tick_ns.push(times.total_ns);
            out.tick_updates.push(batch.len() as u64);
        }
        check_tick(&svc, tick, &plan, &client.replay, &mut out);
    }
    if spec.metrics {
        layers.registry_end = Some(svc.metrics_snapshot());
    }
    out.wal_batches = plan.ticks[..end as usize]
        .iter()
        .filter(|b| !b.is_empty())
        .count() as u64;

    if spec.recover {
        let batch = &plan.ticks[recovery_tick as usize - 1];
        if workload == Workload::DistK4 {
            // Crash every worker; the next tick's `advance_to` redials each
            // one, and the coordinator replays its history into it.
            dep.kill_workers();
            let times = run_tick(&mut svc, &mut client, recovery_tick, batch, false, &mut out)?;
            out.recover_s = Some(times.advance_ns as f64 / 1e9);
        } else {
            let now = svc.now();
            let live = svc.result_at(now);
            drop(svc);
            let t0 = Instant::now();
            let (recovered, report) = dep.recover().map_err(|e| format!("recover: {e}"))?;
            out.recover_s = Some(t0.elapsed().as_secs_f64());
            svc = recovered;
            let journaled = out.wal_batches;
            out.check(report.batches_replayed as u64 == journaled, || {
                format!(
                    "recovery replayed {} batches, the WAL holds {journaled}",
                    report.batches_replayed
                )
            });
            let answer = svc.result_at(now);
            out.check(answer == live, || {
                format!("recovered result_at({now}) differs from the live service's")
            });
            run_tick(&mut svc, &mut client, recovery_tick, batch, true, &mut out)?;
        }
        check_tick(&svc, recovery_tick, &plan, &client.replay, &mut out);
        if let Some(t) = &tracer {
            t.take();
        }
    }

    out.final_pairs = svc.result_at(svc.now());
    if spec.metrics {
        out.final_metrics = Some(svc.metrics_snapshot());
    }
    if spec.traced {
        out.layers = Some(layers);
    }
    Ok(out)
}

/// Runs one tick of the closed loop: submit the batch, advance, poll
/// every subscriber. Only this is timed.
fn run_tick(
    svc: &mut StreamService,
    client: &mut Client,
    tick: u32,
    batch: &[ObjectUpdate],
    gap_expected: bool,
    out: &mut PassOutput,
) -> Result<TickTimes, String> {
    let at = Time::from(tick);
    let t0 = Instant::now();
    let mut refused = 0u64;
    for u in batch {
        if matches!(svc.submit(*u, at), IngestOutcome::QueueFull) {
            refused += 1;
        }
    }
    let t1 = Instant::now();
    let mut polled = Vec::with_capacity(client.subs.len());
    let a0 = Instant::now();
    let deltas = svc.advance_to(at);
    let a1 = Instant::now();
    for &id in &client.subs {
        polled.push(svc.poll(id));
    }
    let t3 = Instant::now();

    out.attempted += batch.len() as u64 + 1;
    out.failed += refused;
    if refused > 0 {
        out.failures
            .push(format!("tick {tick}: {refused} submits refused"));
    }
    let deltas = deltas.map_err(|e| {
        out.failed += 1;
        format!("tick {tick}: advance_to failed: {e}")
    })?;
    let mut delivered = 0u64;
    for (i, items) in polled.iter().enumerate() {
        let Some(items) = items else {
            out.check(false, || format!("tick {tick}: subscriber {i} unknown"));
            continue;
        };
        delivered += items.len() as u64;
        if i == 0 {
            if let Some(problem) = client.replay.apply(items, gap_expected) {
                out.check(false, || format!("tick {tick}: All subscriber: {problem}"));
            }
        } else if !gap_expected && items.iter().any(|i| matches!(i, OutboxItem::Gap { .. })) {
            out.check(false, || {
                format!("tick {tick}: window subscriber {i} saw a gap")
            });
        }
    }
    let times = TickTimes {
        total_ns: (t3 - t0).as_nanos() as u64,
        submit_ns: (t1 - t0).as_nanos() as u64,
        gap_ns: (a0 - t1).as_nanos() as u64,
        advance_ns: (a1 - a0).as_nanos() as u64,
        advance: (a0, a1),
        poll_ns: (t3 - a1).as_nanos() as u64,
        deltas: deltas.len() as u64,
        delivered,
    };
    if client.record {
        out.deltas.extend(deltas);
    }
    Ok(times)
}

/// The between-ticks checks: the replayed delta set against the live
/// answer every tick, and the live answer against the oracle at the
/// oracle ticks.
fn check_tick(svc: &StreamService, tick: u32, plan: &Plan, replay: &Replay, out: &mut PassOutput) {
    let at = Time::from(tick);
    let answer = svc.result_at(at);
    let replayed = replay.sorted();
    out.check(replayed == answer, || {
        format!(
            "tick {tick}: All subscriber replays {} pairs, result_at has {}",
            replayed.len(),
            answer.len()
        )
    });
    if let Some((a, b)) = plan.snapshots.get(&tick) {
        let oracle = brute_pairs_at(a, b, at);
        out.check(oracle == answer, || {
            format!(
                "tick {tick}: result_at has {} pairs, the brute-force oracle {}",
                answer.len(),
                oracle.len()
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::report::LayerSum;
    use crate::trace::{ProbeState, RpcState};

    /// One 100 µs tick: submit [0, 10), advance [12, 90), poll [90, 100),
    /// with one top-engine call at `core` and one RPC at `rpc` (µs).
    fn split(core: (u64, u64), rpc: (u64, u64)) -> LayerSum {
        let tracer = Tracer::new();
        let base = Instant::now();
        let at = |us: u64| base + Duration::from_micros(us);
        let ns = |us: u64| tracer.since_epoch(at(us));
        let times = TickTimes {
            total_ns: 100_000,
            submit_ns: 10_000,
            gap_ns: 2_000,
            advance_ns: 78_000,
            advance: (at(12), at(90)),
            poll_ns: 10_000,
            deltas: 0,
            delivered: 0,
        };
        let harvest = Harvest {
            core: ProbeState {
                maint_ns: ns(core.1) - ns(core.0),
                spans: vec![(ns(core.0), ns(core.1))],
                ..ProbeState::default()
            },
            shards: Vec::new(),
            rpc: RpcState {
                calls: 1,
                ns: ns(rpc.1) - ns(rpc.0),
                samples: vec![ns(rpc.1) - ns(rpc.0)],
                spans: vec![(ns(rpc.0), ns(rpc.1))],
            },
        };
        let mut layers = Layers::default();
        layers.add_tick(&times, 1, harvest, &tracer);
        LayerSum::of(&layers)
    }

    #[test]
    fn nested_calls_add_up_to_the_tick() {
        let sum = split((20, 80), (30, 50));
        assert!(sum.problems().is_empty(), "{:?}", sum.problems());
        let part = |name| sum.parts.iter().find(|p| p.0 == name).unwrap().1;
        assert!((part("stream.self") - 0.018).abs() < 1e-9);
        assert!((part("core.self") - 0.040).abs() < 1e-9);
        assert!((part("dist.rpc") - 0.020).abs() < 1e-9);
        assert!((sum.unattributed_ms - 0.002).abs() < 1e-9);
    }

    #[test]
    fn a_call_outside_its_parent_fails_the_sum() {
        // The engine call runs during the poll loop, outside advance_to.
        assert_eq!(split((91, 99), (92, 93)).problems().len(), 1);
        // The RPC outlives the engine call that made it.
        assert_eq!(split((20, 40), (30, 60)).problems().len(), 1);
    }
}
