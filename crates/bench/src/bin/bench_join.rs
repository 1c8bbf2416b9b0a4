//! Machine-readable join benchmark: emits `BENCH_join.json`.
//!
//! ```text
//! cargo run --release -p cij-bench --bin bench_join            # full run
//! cargo run --release -p cij-bench --bin bench_join -- --smoke # CI gate
//! cargo run --release -p cij-bench --bin bench_join -- --out /tmp/b.json
//! ```
//!
//! Two sections:
//!
//! * `micro` — repeated `improved_join` over warm pair trees with the
//!   decoded-node cache off vs on, on a pool big enough that every node
//!   read is a pool hit. This isolates exactly what the cache removes
//!   (per-read page decode + node allocation) and backs the PR's
//!   speedup claim.
//! * `engines` — per engine: initial-join cost and maintenance
//!   throughput from a full simulation, with the cache off (the paper's
//!   I/O-faithful mode) and on (throughput mode, plus the cache hit
//!   rate).
//!
//! `--smoke` shrinks datasets/iterations so the whole binary finishes in
//! seconds — CI runs it to prove the harness works end to end.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use cij_bench::runner::{build_pair_trees_with, engine_config, tree_config, EngineKind};
use cij_core::run_simulation;
use cij_join::{improved_join_into, techniques, JoinScratch};
use cij_obs::validate_prometheus;
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_tpr::TprResult;
use cij_workload::Params;

/// Cache capacity (nodes per tree) used by every cache-on measurement.
const NODE_CACHE: usize = 4096;

struct Options {
    smoke: bool,
    out: String,
}

fn parse_args() -> Options {
    let mut opts = Options {
        smoke: false,
        out: "BENCH_join.json".to_string(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => opts.smoke = true,
            "--out" => {
                i += 1;
                opts.out = args
                    .get(i)
                    .unwrap_or_else(|| {
                        eprintln!("--out needs a path");
                        std::process::exit(2);
                    })
                    .clone();
            }
            other => {
                eprintln!("unknown flag {other} (use --smoke, --out PATH)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    opts
}

/// A pool big enough that every node read hits the buffer — so the
/// cache-off/cache-on delta below is pure decode cost, not disk I/O.
fn big_pool() -> BufferPool {
    BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(8192),
    )
}

struct MicroResult {
    dataset_size: usize,
    iterations: u32,
    rounds: u32,
    pairs: usize,
    uncached_ns: f64,
    cached_ns: f64,
    speedup: f64,
    /// `None` when the cache-on trees saw no reads (degenerate run) —
    /// serialized as JSON `null`, never a fabricated 0.0.
    cache_hit_rate: Option<f64>,
    /// Cache-off page reads served straight from the v2 SoA view — no
    /// intermediate `Node`.
    zero_copy_reads: u64,
}

/// Repeated warm `improved_join` with the cache off vs on.
fn micro(smoke: bool) -> TprResult<MicroResult> {
    let params = Params {
        dataset_size: if smoke { 300 } else { 2_000 },
        ..Params::default()
    };
    let iterations: u32 = if smoke { 5 } else { 40 };
    // Best-of-N rounds: each round times `iterations` joins; the fastest
    // round is reported. The box this runs on shares cores, so a single
    // timed window can absorb a 20%+ co-tenant spike — the minimum over
    // rounds is the standard noise-robust estimator for a deterministic
    // workload.
    let rounds: u32 = if smoke { 2 } else { 5 };
    let base = tree_config(&params);

    type RunStats = (f64, usize, Option<f64>, cij_storage::CacheSnapshot);
    let run = |config| -> TprResult<RunStats> {
        let pool = big_pool();
        let (ta, tb, _, _) = build_pair_trees_with(&params, &pool, config)?;
        let mut scratch = JoinScratch::new();
        let mut out = Vec::new();
        // Warm-up: faults every page into the pool (and cache, if any).
        improved_join_into(&ta, &tb, 0.0, 60.0, techniques::ALL, &mut scratch, &mut out)?;
        let pairs = out.len();
        let mut per_iter_ns = f64::INFINITY;
        for _ in 0..rounds {
            let t0 = Instant::now();
            for _ in 0..iterations {
                improved_join_into(&ta, &tb, 0.0, 60.0, techniques::ALL, &mut scratch, &mut out)?;
            }
            per_iter_ns = per_iter_ns.min(t0.elapsed().as_nanos() as f64 / f64::from(iterations));
        }
        let hit_rate = ta
            .node_cache_stats()
            .zip(tb.node_cache_stats())
            .and_then(|(a, b)| a.merged(&b).hit_rate());
        let format = ta.page_format_stats().merged(&tb.page_format_stats());
        Ok((per_iter_ns, pairs, hit_rate, format))
    };

    let (uncached_ns, pairs, none, format) = run(base)?;
    assert!(none.is_none(), "cache-off run must report no cache stats");
    assert!(
        format.zero_copy_reads > 0,
        "cache-off micro must exercise the zero-copy page path"
    );
    let (cached_ns, cached_pairs, hit_rate, _) = run(base.with_node_cache(NODE_CACHE))?;
    assert_eq!(pairs, cached_pairs, "cache changed the join answer");

    Ok(MicroResult {
        dataset_size: params.dataset_size,
        iterations,
        rounds,
        pairs,
        uncached_ns,
        cached_ns,
        speedup: uncached_ns / cached_ns,
        cache_hit_rate: hit_rate,
        zero_copy_reads: format.zero_copy_reads,
    })
}

struct EngineRun {
    initial_io: u64,
    initial_ms: f64,
    maint_io_per_update: f64,
    maint_us_per_update: f64,
    updates_per_s: f64,
    updates: u64,
    cache_hit_rate: Option<f64>,
}

struct EngineResult {
    name: &'static str,
    cache_off: EngineRun,
    cache_on: EngineRun,
}

/// Full simulation protocol for one engine and one cache setting.
fn engine_run(kind: EngineKind, params: &Params, cache: usize, end: f64) -> TprResult<EngineRun> {
    let config = engine_config(params, techniques::ALL, 2)
        .to_builder()
        .node_cache_capacity(cache)
        .build();
    let (mut engine, mut stream, _pool) = kind.build_with_config(params, config)?;
    let measure_from = end / 2.0;
    let metrics = run_simulation(
        engine.as_mut(),
        &mut stream,
        0.0,
        end,
        measure_from,
        |_, _| Ok(()),
    )?;
    let time_per_update = metrics.time_per_update();
    let updates_per_s = if time_per_update.is_zero() {
        0.0
    } else {
        1.0 / time_per_update.as_secs_f64()
    };
    Ok(EngineRun {
        initial_io: metrics.initial_io,
        initial_ms: metrics.initial_time.as_secs_f64() * 1e3,
        maint_io_per_update: metrics.io_per_update(),
        maint_us_per_update: time_per_update.as_secs_f64() * 1e6,
        updates_per_s,
        updates: metrics.maintenance_updates,
        cache_hit_rate: engine.node_cache_snapshot().and_then(|s| s.hit_rate()),
    })
}

fn engines(smoke: bool) -> TprResult<Vec<EngineResult>> {
    let params = Params {
        dataset_size: if smoke { 200 } else { 1_000 },
        ..Params::default()
    };
    let end = if smoke { 20.0 } else { 120.0 };
    let kinds = [
        EngineKind::Naive,
        EngineKind::Etp,
        EngineKind::Tc,
        EngineKind::Mtb,
    ];
    kinds
        .into_iter()
        .map(|kind| {
            Ok(EngineResult {
                name: kind.label(),
                cache_off: engine_run(kind, &params, 0, end)?,
                cache_on: engine_run(kind, &params, NODE_CACHE, end)?,
            })
        })
        .collect()
}

/// One metrics-enabled simulation: returns the Prometheus text
/// exposition of the engine's registry snapshot plus its validated
/// sample count. Exercises the whole observability path end to end —
/// live pool-I/O views, per-phase spans, published join counters — and
/// proves the exposition parses.
fn metrics_exposition(smoke: bool) -> TprResult<(String, usize)> {
    let params = Params {
        dataset_size: if smoke { 200 } else { 1_000 },
        ..Params::default()
    };
    let end = if smoke { 10.0 } else { 60.0 };
    let config = engine_config(&params, techniques::ALL, 2)
        .to_builder()
        .node_cache_capacity(NODE_CACHE)
        .metrics(true)
        .build();
    let (mut engine, mut stream, _pool) = EngineKind::Mtb.build_with_config(&params, config)?;
    run_simulation(engine.as_mut(), &mut stream, 0.0, end, 0.0, |_, _| Ok(()))?;
    let snapshot = engine.metrics_registry().snapshot();
    let text = snapshot.to_prometheus();
    let samples = validate_prometheus(&text)
        .unwrap_or_else(|e| panic!("bench_join produced invalid Prometheus exposition: {e}"));
    Ok((text, samples))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

fn json_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), |x| format!("{x:.4}"))
}

fn engine_run_json(r: &EngineRun) -> String {
    format!(
        "{{\"initial_io\": {}, \"initial_ms\": {}, \"maintenance_io_per_update\": {}, \
         \"maintenance_us_per_update\": {}, \"updates_per_s\": {}, \"updates\": {}, \
         \"node_cache_hit_rate\": {}}}",
        r.initial_io,
        json_num(r.initial_ms),
        json_num(r.maint_io_per_update),
        json_num(r.maint_us_per_update),
        json_num(r.updates_per_s),
        r.updates,
        json_opt(r.cache_hit_rate),
    )
}

fn main() {
    let opts = parse_args();
    let micro = micro(opts.smoke).expect("micro benchmark");
    let engines = engines(opts.smoke).expect("engine benchmark");
    let (exposition, samples) = metrics_exposition(opts.smoke).expect("metrics exposition");

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"join\",");
    let _ = writeln!(json, "  \"smoke\": {},", opts.smoke);
    let _ = writeln!(json, "  \"node_cache_capacity\": {NODE_CACHE},");
    let _ = writeln!(json, "  \"micro\": {{");
    let _ = writeln!(json, "    \"dataset_size\": {},", micro.dataset_size);
    let _ = writeln!(json, "    \"iterations\": {},", micro.iterations);
    let _ = writeln!(json, "    \"rounds\": {},", micro.rounds);
    let _ = writeln!(json, "    \"pairs\": {},", micro.pairs);
    let _ = writeln!(
        json,
        "    \"uncached_ns_per_join\": {},",
        json_num(micro.uncached_ns)
    );
    let _ = writeln!(
        json,
        "    \"cached_ns_per_join\": {},",
        json_num(micro.cached_ns)
    );
    let _ = writeln!(json, "    \"speedup\": {},", json_num(micro.speedup));
    let _ = writeln!(
        json,
        "    \"cache_hit_rate\": {},",
        json_opt(micro.cache_hit_rate)
    );
    let _ = writeln!(json, "    \"zero_copy_reads\": {}", micro.zero_copy_reads);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"engines\": [");
    for (i, e) in engines.iter().enumerate() {
        let comma = if i + 1 < engines.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"cache_off\": {}, \"cache_on\": {}}}{comma}",
            e.name,
            engine_run_json(&e.cache_off),
            engine_run_json(&e.cache_on),
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"metrics\": {{\"prometheus_samples\": {samples}, \"validated\": true}}"
    );
    let _ = writeln!(json, "}}");

    std::fs::write(&opts.out, &json).expect("write benchmark json");
    let prom_out = format!("{}.prom", opts.out.trim_end_matches(".json"));
    std::fs::write(&prom_out, &exposition).expect("write prometheus exposition");
    println!(
        "join micro: zero-copy {:.0} ns, cached {:.0} ns (residual {:.2}x, hit rate {})",
        micro.uncached_ns,
        micro.cached_ns,
        micro.speedup,
        micro
            .cache_hit_rate
            .map_or_else(|| "n/a".to_string(), |h| format!("{:.1}%", h * 100.0)),
    );
    println!(
        "join micro cache-off page reads: {} zero-copy",
        micro.zero_copy_reads,
    );
    for e in &engines {
        println!(
            "{:<10} maint: {:>9.1} us/update (cache off) | {:>9.1} us/update, hit rate {} (cache on)",
            e.name,
            e.cache_off.maint_us_per_update,
            e.cache_on.maint_us_per_update,
            e.cache_on
                .cache_hit_rate
                .map_or_else(|| "n/a".to_string(), |h| format!("{:.1}%", h * 100.0)),
        );
    }
    println!("metrics: {samples} Prometheus samples (exposition validated)");
    println!("wrote {} and {prom_out}", opts.out);
}
