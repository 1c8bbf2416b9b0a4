//! Runs one workload of the end-to-end benchmark and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload uniform-mtb --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run at the
//! program's defaults. `--trace 1` runs the workload twice, untraced and
//! then traced, and prints the per-layer metrics. The last line of
//! standard output is the JSON result; the line before it is the stamp.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cij_e2ebench::client::{run_pass, PassOutput, PassSpec, Scale};
use cij_e2ebench::deploy::Workload;
use cij_e2ebench::report::{
    end_to_end, git_revision, layer_sum_json, per_layer, result_line, source_digest, updates_per_s,
    LayerSum, Stamp,
};

/// Ticks before timing starts: 2·T_M. Tick cost climbs until every
/// object has passed its first forced heartbeat (at T_M) and the
/// update schedule has settled.
const WARMUP_TICKS: u32 = 120;
/// Least measured ticks, so the p90 has at least ten samples above it.
const MIN_MEASURED_TICKS: u32 = 100;
/// Least service builds per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Builds continue until they have taken this long in all.
const SETUP_SECONDS: f64 = 1.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u32,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let run_dir =
        bench_dir
            .join(".run")
            .join(format!("{}-{}", args.workload.name(), std::process::id()));
    let outcome = run(&args, &run_dir);
    // Best effort: the logs are scratch space, and a leftover directory
    // is harmless to the next run (each uses its own).
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir(bench_dir.join(".run"));
    outcome
}

fn run(args: &Args, dir: &Path) -> ExitCode {
    let w = args.workload;
    let scale = Scale {
        objects: w.objects(),
        warmup: WARMUP_TICKS,
        measured: MIN_MEASURED_TICKS
            .max((f64::from(args.seconds) * w.ticks_per_second()).round() as u32),
        setup_reps: if args.trace { 1 } else { SETUP_REPS },
        setup_seconds: if args.trace { 0.0 } else { SETUP_SECONDS },
    };
    let spec = PassSpec {
        workload: w,
        scale,
        seed: args.seed,
        traced: false,
        metrics: false,
        recover: !args.trace,
        record_deltas: false,
    };
    let mut passes: Vec<PassOutput> = Vec::new();
    let mut error = None;
    let specs = if args.trace {
        vec![
            spec,
            PassSpec {
                traced: true,
                metrics: true,
                // Only the distributed restart feeds per-layer metrics
                // (`dist.reconnects`, `dist.replayed_requests`); a stream
                // replay would double the run for none.
                recover: w == Workload::DistK4,
                ..spec
            },
        ]
    } else {
        vec![spec]
    };
    for (i, s) in specs.iter().enumerate() {
        match run_pass(s, &dir.join(format!("pass-{i}"))) {
            Ok(p) => passes.push(p),
            Err(e) => {
                error = Some(e);
                break;
            }
        }
    }

    let mut attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let mut failed: u64 = passes.iter().map(|p| p.failed).sum();
    let mut failures: Vec<String> = passes.iter().flat_map(|p| p.failures.clone()).collect();
    if let Some(e) = &error {
        attempted += 1;
        failed += 1;
        failures.push(e.clone());
    }

    let mut stamp = Stamp::new();
    stamp.text("bench", "e2ebench");
    stamp.text("workload", w.name());
    stamp.num("seed", args.seed as f64);
    stamp.num("seconds", f64::from(args.seconds));
    stamp.num("trace", f64::from(u8::from(args.trace)));
    let root = repo_root();
    stamp.text("git_revision", &git_revision(&root));
    stamp.text("source_digest", &source_digest(&root));
    stamp.num(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, |n| n.get()) as f64,
    );
    stamp.text(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    let p = w.params(scale.objects, args.seed);
    stamp.raw(
        "params",
        format!(
            "{{\"distribution\": \"{}\", \"objects_per_set\": {}, \"space\": {}, \
             \"max_speed\": {}, \"object_size_pct\": {}, \"t_m\": {}, \"node_capacity\": {}, \
             \"window_subscribers\": {}}}",
            p.distribution,
            p.dataset_size,
            p.space,
            p.max_speed,
            p.object_size_pct,
            p.maximum_update_interval,
            p.node_capacity,
            w.window_subscribers()
        ),
    );
    stamp.num("warmup_ticks", f64::from(scale.warmup));
    stamp.num("measured_ticks", f64::from(scale.measured));

    let metrics = if error.is_some() {
        Vec::new()
    } else if args.trace {
        let (untraced, traced) = (&passes[0], &passes[1]);
        let layers = traced.layers.as_ref().expect("traced pass");
        let sum = LayerSum::of(layers);
        for problem in sum.problems() {
            attempted += 1;
            failed += 1;
            failures.push(format!("layer-sum check: {problem}"));
        }
        attempted += 1;
        stamp.raw("layer_sum_ms_per_tick", layer_sum_json(&sum));
        stamp.num("tick_samples", layers.ticks as f64);
        stamp.num("rpc_samples", layers.rpc_samples.len() as f64);
        stamp.num("shard_op_samples", layers.shard_op_ns.len() as f64);
        stamp.num("untraced_updates_per_s", updates_per_s(untraced));
        stamp.num("traced_updates_per_s", updates_per_s(traced));
        per_layer(traced, untraced)
    } else {
        let pass = &passes[0];
        stamp.num("tick_samples", pass.tick_ns.len() as f64);
        stamp.num("setup_samples", pass.setup_s.len() as f64);
        let setup: Vec<String> = pass.setup_s.iter().map(|s| format!("{s}")).collect();
        stamp.raw("setup_samples_s", format!("[{}]", setup.join(", ")));
        stamp.num("client_rss_mb", pass.client_rss_mb);
        end_to_end(pass)
    };

    for f in &failures {
        eprintln!("e2ebench: FAILED: {f}");
    }
    let correct = failed == 0;
    stamp.raw("correct", correct.to_string());
    println!("{}", stamp.line());
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The repository root: the parent of this package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}
