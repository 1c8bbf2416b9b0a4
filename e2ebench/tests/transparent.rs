//! The timing wrappers must not change what the program computes: for
//! the same seed, a traced and an untraced run of each workload give the
//! same delta stream, the same final answer and the same program
//! counters, and every correctness check passes in both.

use cij_e2ebench::client::{run_pass, PassOutput, PassSpec, Scale};
use cij_e2ebench::deploy::Workload;

/// Small enough for a test, long enough to pass the first forced
/// heartbeat (T_M = 60) and, on the skewed workload, an adaptive
/// re-partition.
fn scale(workload: Workload) -> Scale {
    Scale {
        objects: match workload {
            Workload::DistK4 => 150,
            Workload::UniformMtb | Workload::SkewShardSubs => 400,
        },
        warmup: 60,
        measured: 15,
        setup_reps: 1,
        setup_seconds: 0.0,
    }
}

fn pass(workload: Workload, traced: bool, metrics: bool) -> PassOutput {
    let spec = PassSpec {
        workload,
        scale: scale(workload),
        seed: 11,
        traced,
        metrics,
        recover: true,
        record_deltas: true,
    };
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "e2ebench-transparent-{}-{}-{traced}-{metrics}",
        workload.name(),
        std::process::id()
    ));
    let out = run_pass(&spec, &dir).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        out.failed,
        0,
        "{} (traced={traced}, metrics={metrics}) failed checks: {:?}",
        workload.name(),
        out.failures
    );
    out
}

fn assert_transparent(workload: Workload) {
    let name = workload.name();
    let untraced = pass(workload, false, false);
    let registries_only = pass(workload, false, true);
    let traced = pass(workload, true, true);

    assert!(!untraced.deltas.is_empty(), "{name}: no deltas at all");
    assert_eq!(
        untraced.deltas, traced.deltas,
        "{name}: delta streams differ"
    );
    assert_eq!(
        untraced.final_pairs, traced.final_pairs,
        "{name}: final answers differ"
    );
    assert_eq!(
        untraced.deltas, registries_only.deltas,
        "{name}: enabling the registries changed the delta stream"
    );

    // Histograms hold latencies and are left out. On the sharded
    // workload two threads share one LRU pool, so which page a miss
    // evicts depends on their interleaving: its physical I/O counts vary
    // from run to run with or without the wrappers, and are left out too.
    let deterministic = |snap: &cij_obs::MetricsSnapshot| -> Vec<(String, u64)> {
        snap.counters
            .iter()
            .filter(|(n, _)| {
                workload != Workload::SkewShardSubs || !n.starts_with("storage.pool.physical_")
            })
            .cloned()
            .collect()
    };
    let with_wrappers = traced.final_metrics.expect("metrics on");
    let without = registries_only.final_metrics.expect("metrics on");
    assert_eq!(
        deterministic(&with_wrappers),
        deterministic(&without),
        "{name}: counters differ"
    );
    assert_eq!(
        with_wrappers.gauges, without.gauges,
        "{name}: gauges differ"
    );
    let node_pairs = with_wrappers
        .counters
        .iter()
        .find(|(n, _)| n == "join.node_pairs")
        .map(|(_, v)| *v);
    assert!(
        node_pairs.unwrap_or(0) > 0,
        "{name}: join counters were not published"
    );

    let layers = traced.layers.expect("a traced pass records layers");
    assert!(
        layers.core_ns > 0,
        "{name}: the top-engine wrapper saw no calls"
    );
    match workload {
        Workload::SkewShardSubs => {
            assert!(layers.shard_ops > 0, "{name}: no shard-engine calls traced");
        }
        Workload::DistK4 => {
            assert!(layers.rpc_calls > 0, "{name}: no RPCs traced");
        }
        Workload::UniformMtb => {}
    }
}

#[test]
fn uniform_mtb_is_unchanged_by_tracing() {
    assert_transparent(Workload::UniformMtb);
}

#[test]
fn skew_shard_subs_is_unchanged_by_tracing() {
    assert_transparent(Workload::SkewShardSubs);
}

#[test]
fn dist_k4_is_unchanged_by_tracing() {
    assert_transparent(Workload::DistK4);
}
