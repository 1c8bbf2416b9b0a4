//! Turning passes into the metrics `BENCHMARK.json` names, the layer-sum
//! check, and the stamp every result carries.

use std::fmt::Write as _;
use std::path::Path;

use cij_obs::MetricsSnapshot;

use crate::client::{Layers, PassOutput};
use crate::deploy::SHARD_THREADS;

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples`, linearly interpolated
/// between order statistics.
#[must_use]
pub fn quantile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    v[lo] as f64 * (1.0 - frac) + v[hi] as f64 * frac
}

fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A size field of `/proc/self/status` (`VmHWM:`, `VmRSS:`), in MiB; 0
/// where the file is not there.
#[must_use]
pub fn rss_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced pass.
#[must_use]
pub fn end_to_end(pass: &PassOutput) -> Vec<Metric> {
    vec![
        metric("setup_s", "s", median(&pass.setup_s)),
        metric("updates_per_s", "1/s", updates_per_s(pass)),
        metric("tick_p50_ms", "ms", quantile(&pass.tick_ns, 0.5) / 1e6),
        metric("tick_p90_ms", "ms", quantile(&pass.tick_ns, 0.9) / 1e6),
        metric("recover_s", "s", pass.recover_s.unwrap_or(0.0)),
        // The client's pre-generated inputs are resident from before the
        // service is built to the end; they are not the program's memory.
        metric("peak_rss_mb", "MiB", rss_mb("VmHWM:") - pass.client_rss_mb),
    ]
}

/// Applied updates per second of tick time over the measured ticks.
#[must_use]
pub fn updates_per_s(pass: &PassOutput) -> f64 {
    ratio(
        pass.tick_updates.iter().sum::<u64>() as f64,
        pass.tick_ns.iter().sum::<u64>() as f64 / 1e9,
    )
}

/// Growth of counter `name` between two snapshots.
fn grew(start: &MetricsSnapshot, end: &MetricsSnapshot, name: &str) -> f64 {
    end.counter(name)
        .unwrap_or(0)
        .saturating_sub(start.counter(name).unwrap_or(0)) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// How the traced tick splits into layer self-times.
///
/// Each self-time is a layer's own calls' wall time minus the part its
/// children's calls cover: `stream.self` is `advance_to` outside the top
/// engine, `core.self` the top engine outside shard engines and RPCs.
/// When every call nests inside its parent's, the parts add up to the
/// tick. A call outside its parent (engine work in `submit` or `poll`,
/// shard work that outlives the coordinator call, two children covering
/// the same instant) is counted twice, and the sum overshoots the tick
/// by that much.
#[derive(Debug, Clone)]
pub struct LayerSum {
    /// `(layer, ms per tick)`, every layer whose self-time the trace
    /// measures.
    pub parts: Vec<(&'static str, f64)>,
    /// Client time between the submit loop and `advance_to`, ms per tick.
    pub unattributed_ms: f64,
    /// Traced tick time, ms per tick.
    pub total_ms: f64,
}

/// Largest share of the traced tick by which the parts may miss it.
pub const SUM_TOLERANCE: f64 = 0.01;

impl LayerSum {
    /// The split of `l`'s measured ticks.
    #[must_use]
    pub fn of(l: &Layers) -> Self {
        let per_tick = |ns: u64| ratio(ns as f64 / 1e6, l.ticks as f64);
        Self {
            parts: vec![
                ("stream.submit", per_tick(l.submit_ns)),
                ("stream.self", per_tick(l.stream_self_ns)),
                ("stream.poll", per_tick(l.poll_ns)),
                ("core.self", per_tick(l.core_self_ns)),
                ("shard.engines", per_tick(l.shard_wall_ns)),
                ("dist.rpc", per_tick(l.rpc_wall_ns)),
            ],
            unattributed_ms: per_tick(l.gap_ns),
            total_ms: per_tick(l.tick_ns),
        }
    }

    /// The parts plus the unattributed time, ms per tick.
    #[must_use]
    pub fn sum_ms(&self) -> f64 {
        self.parts.iter().map(|p| p.1).sum::<f64>() + self.unattributed_ms
    }

    /// Problems with the split: parts that do not add up to the total.
    #[must_use]
    pub fn problems(&self) -> Vec<String> {
        let sum = self.sum_ms();
        if (sum - self.total_ms).abs() > SUM_TOLERANCE * self.total_ms {
            vec![format!(
                "layers sum to {sum:.4} ms/tick, the traced tick is {:.4}: \
                 some call ran outside its parent's",
                self.total_ms
            )]
        } else {
            Vec::new()
        }
    }
}

/// The per-layer metrics of a traced pass; `untraced` gives the tracing
/// overhead.
#[must_use]
pub fn per_layer(traced: &PassOutput, untraced: &PassOutput) -> Vec<Metric> {
    let l = traced
        .layers
        .as_ref()
        .expect("a traced pass records layers");
    let empty = MetricsSnapshot::default();
    let start = l.registry_start.as_ref().unwrap_or(&empty);
    let end = l.registry_end.as_ref().unwrap_or(&empty);
    let last = traced.final_metrics.as_ref().unwrap_or(&empty);
    let ticks = l.ticks as f64;
    let updates = l.updates as f64;
    let ms = |ns: f64| ns / 1e6;
    let us = |ns: f64| ns / 1e3;
    let per_update = |name: &str| ratio(grew(start, end, name), updates);
    let logical_reads = grew(start, end, "storage.pool.logical_reads");
    let sum = LayerSum::of(l);
    let untraced_ups = updates_per_s(untraced);
    let traced_ups = updates_per_s(traced);
    let core_apply = l.core_maint_ns as f64;

    vec![
        metric(
            "stream.submit_us_per_update",
            "us",
            ratio(us(l.submit_ns as f64), updates),
        ),
        metric(
            "stream.self_ms_per_tick",
            "ms",
            ratio(ms(l.stream_self_ns as f64), ticks),
        ),
        metric(
            "stream.poll_ms_per_tick",
            "ms",
            ratio(ms(l.poll_ns as f64), ticks),
        ),
        metric(
            "stream.delivered_per_tick",
            "count",
            ratio(l.delivered as f64, ticks),
        ),
        metric(
            "stream.deltas_per_tick",
            "count",
            ratio(l.deltas as f64, ticks),
        ),
        metric(
            "stream.wal_bytes_per_update",
            "B",
            per_update("stream.wal.appended_bytes"),
        ),
        metric("stream.recover_batches", "count", traced.wal_batches as f64),
        metric("core.apply_ms_per_tick", "ms", ratio(ms(core_apply), ticks)),
        metric(
            "core.maint_us_per_update",
            "us",
            ratio(us(core_apply), updates),
        ),
        metric(
            "core.extract_ms_per_tick",
            "ms",
            ratio(ms(l.core_extract_ns as f64), ticks),
        ),
        metric(
            "core.pair_status_calls_per_tick",
            "count",
            ratio(l.pair_status_calls as f64, ticks),
        ),
        metric(
            "core.self_ms_per_tick",
            "ms",
            ratio(ms(l.core_self_ns as f64), ticks),
        ),
        metric(
            "join.setup_node_pairs",
            "count",
            start.counter("join.node_pairs").unwrap_or(0) as f64,
        ),
        metric(
            "join.setup_entry_comparisons",
            "count",
            start.counter("join.entry_comparisons").unwrap_or(0) as f64,
        ),
        metric(
            "storage.logical_reads_per_update",
            "count",
            ratio(logical_reads, updates),
        ),
        metric(
            "storage.logical_writes_per_update",
            "count",
            per_update("storage.pool.logical_writes"),
        ),
        metric(
            "storage.physical_reads_per_update",
            "count",
            per_update("storage.pool.physical_reads"),
        ),
        metric(
            "storage.pool_hit_ratio",
            "ratio",
            ratio(
                logical_reads - grew(start, end, "storage.pool.physical_reads"),
                logical_reads,
            ),
        ),
        metric(
            "storage.zero_copy_ratio",
            "ratio",
            ratio(
                grew(start, end, "storage.page.zero_copy_reads"),
                logical_reads,
            ),
        ),
        metric(
            "shard.engine_ops_per_update",
            "count",
            ratio(l.shard_ops as f64, updates),
        ),
        metric(
            "shard.engine_busy_ms_per_tick",
            "ms",
            ratio(ms(l.shard_busy_ns as f64), ticks),
        ),
        metric(
            "shard.wall_ms_per_tick",
            "ms",
            ratio(ms(l.shard_wall_ns as f64), ticks),
        ),
        metric(
            "shard.parallel_efficiency",
            "ratio",
            ratio(l.shard_maint_ns as f64, SHARD_THREADS as f64 * core_apply),
        ),
        metric(
            "shard.straggler_ratio",
            "ratio",
            ratio(l.straggler_sum, l.straggler_ticks as f64),
        ),
        metric("shard.op_us_p50", "us", us(quantile(&l.shard_op_ns, 0.5))),
        metric("shard.op_us_p99", "us", us(quantile(&l.shard_op_ns, 0.99))),
        metric(
            "shard.migrations_per_tick",
            "count",
            ratio(grew(start, end, "shard.migrations"), ticks),
        ),
        metric(
            "shard.rebalances",
            "count",
            end.counter("shard.rebalances").unwrap_or(0) as f64,
        ),
        metric(
            "shard.rebalance_moved",
            "count",
            end.counter("shard.rebalance.moved_objects").unwrap_or(0) as f64,
        ),
        metric("shard.engines", "count", l.shard_engines as f64),
        metric(
            "dist.rpc_calls_per_tick",
            "count",
            ratio(l.rpc_calls as f64, ticks),
        ),
        metric(
            "dist.rpc_ms_per_tick",
            "ms",
            ratio(ms(l.rpc_ns as f64), ticks),
        ),
        metric("dist.rpc_us_p50", "us", us(quantile(&l.rpc_samples, 0.5))),
        metric("dist.rpc_us_p99", "us", us(quantile(&l.rpc_samples, 0.99))),
        metric(
            "dist.coord_self_ms_per_tick",
            "ms",
            if l.rpc_calls > 0 {
                ratio(
                    ms((l.core_maint_ns + l.core_extract_ns) as f64 - l.rpc_ns as f64),
                    ticks,
                )
            } else {
                0.0
            },
        ),
        metric(
            "dist.history_requests",
            "count",
            last.gauge("dist.history_requests").unwrap_or(0) as f64,
        ),
        metric(
            "dist.reconnects",
            "count",
            last.counter("dist.reconnects").unwrap_or(0) as f64,
        ),
        metric(
            "dist.replayed_requests",
            "count",
            last.counter("dist.replayed_requests").unwrap_or(0) as f64,
        ),
        metric(
            "obs.trace_overhead_pct",
            "%",
            100.0 * ratio(untraced_ups - traced_ups, untraced_ups),
        ),
        metric("bench.unattributed_ms_per_tick", "ms", sum.unattributed_ms),
        metric("bench.traced_tick_ms", "ms", sum.total_ms),
    ]
}

/// A JSON number: finite values as Rust prints them (every digit kept),
/// anything else as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal (the benchmark's strings hold no control
/// characters, only quotes and backslashes need escaping).
fn text(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The result line the benchmark prints last.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut m = String::new();
    for (i, x) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            text(x.name),
            num(x.value),
            text(x.unit)
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}"
    )
}

/// Fields of the stamp line.
pub struct Stamp<'a> {
    /// `(key, already-encoded JSON value)` pairs.
    pub fields: Vec<(&'a str, String)>,
}

impl<'a> Stamp<'a> {
    /// An empty stamp.
    #[must_use]
    pub fn new() -> Self {
        Self { fields: Vec::new() }
    }

    /// Adds a string field.
    pub fn text(&mut self, key: &'a str, value: &str) {
        self.fields.push((key, text(value)));
    }

    /// Adds a numeric field.
    pub fn num(&mut self, key: &'a str, value: f64) {
        self.fields.push((key, num(value)));
    }

    /// Adds a field whose value is already JSON.
    pub fn raw(&mut self, key: &'a str, value: String) {
        self.fields.push((key, value));
    }

    /// The stamp as one JSON line.
    #[must_use]
    pub fn line(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {v}", text(k)))
            .collect();
        format!("{{\"stamp\": {{{}}}}}", body.join(", "))
    }
}

impl Default for Stamp<'_> {
    fn default() -> Self {
        Self::new()
    }
}

/// Encodes a layer split as a JSON object.
#[must_use]
pub fn layer_sum_json(sum: &LayerSum) -> String {
    let mut parts: Vec<String> = sum
        .parts
        .iter()
        .map(|(k, v)| format!("{}: {}", text(k), num(*v)))
        .collect();
    parts.push(format!("\"unattributed\": {}", num(sum.unattributed_ms)));
    parts.push(format!("\"sum\": {}", num(sum.sum_ms())));
    parts.push(format!("\"traced_tick\": {}", num(sum.total_ms)));
    parts.push(format!("\"sum_tolerance\": {}", num(SUM_TOLERANCE)));
    format!("{{{}}}", parts.join(", "))
}

/// The commit the checkout was made from, read from `.git` under `root`
/// without running git; `"unknown"` when `root` is not a git checkout.
#[must_use]
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A digest of the sources the benchmark builds (the workspace crates and
/// this package), so a result names the code it measured even where the
/// checkout carries no git metadata. FNV-1a over every file's path and
/// bytes, in path order.
#[must_use]
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if name != "target" && name != ".run" {
                    walk(&path, out);
                }
            } else if path.is_file() {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for sub in ["crates", "e2ebench/src"] {
        walk(&root.join(sub), &mut files);
    }
    for file in [
        "Cargo.toml",
        "Cargo.lock",
        "e2ebench/Cargo.toml",
        "e2ebench/Cargo.lock",
    ] {
        files.push(root.join(file));
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let bytes = std::fs::read(path).unwrap_or_default();
        for &b in rel.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}
