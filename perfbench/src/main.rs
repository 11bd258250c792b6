//! Repository benchmark of the Voyager reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_int8|serve_table> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`. The run sets up, measures
//! for `--seconds`, checks every output, prints each metric by name
//! with its unit, and ends with one JSON line: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`,
//! the per-layer ones with `--trace 1`). A traced run also writes its
//! spans to `perfbench/out/`. METRICS.md defines every metric.

mod common;
mod pace;
mod paper;
mod serve;
mod spans;

use std::path::PathBuf;
use std::time::Instant;

use common::Report;

/// Gated end-to-end metrics: `(name, unit)`. Every workload reports
/// all of them.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("throughput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run: `(name, unit)`, followed by the
/// self time of each span layer ([`spans::LAYERS`]). A layer that a
/// workload does not run reports 0.
const PER_LAYER: [(&str, &str); 58] = [
    ("latency_p90_us", "us"),
    ("latency_p99_us", "us"),
    ("gen.lag_p99_us", "us"),
    ("predict_us_per_access", "us"),
    ("microbatch.queue_wait_mean_us", "us"),
    ("microbatch.compute_mean_us", "us"),
    ("microbatch.batch_mean", "rows"),
    ("microbatch.batches", "count"),
    ("fleet.admitted", "count"),
    ("fleet.shed", "count"),
    ("fleet.swaps", "count"),
    ("registry.publish_ms", "ms"),
    ("serve.forward_batch_us", "us"),
    ("fastpath.predict_int8_row_us", "us"),
    ("fastpath.predict_fast_row_us", "us"),
    ("fastpath.prepare_int8_ms", "ms"),
    ("fastpath.arena_grow_events", "count"),
    ("kernels.int8_gemm_calls_per_op", "count"),
    ("kernels.int8_gemm_ops_per_op", "count"),
    ("kernels.gemm_flops_per_op", "count"),
    ("kernels.weight_bytes_per_op", "bytes"),
    ("simd.packed_b_hit_ratio", "ratio"),
    ("simd.packed_b_lookups", "count"),
    ("distill.hit_ratio", "ratio"),
    ("distill.lookups", "count"),
    ("distill.fallback_rows", "count"),
    ("distill.predict_us", "us"),
    ("distill.distill_s", "s"),
    ("online.accesses_per_s", "1/s"),
    ("online.predict_us_per_access", "us"),
    ("online.train_s", "s"),
    ("online.predict_s", "s"),
    ("online.train_us_per_access", "us"),
    ("online.gemm_flops_per_access", "count"),
    ("unified_acc_cov", "ratio"),
    ("ipc_speedup", "ratio"),
    ("trace.generate_s", "s"),
    ("sim.llc_stream_s", "s"),
    ("sim.ns_per_access", "ns"),
    ("sim.llc_misses", "count"),
    ("sim.useful_prefetches", "count"),
    ("sim.late_prefetch_hits", "count"),
    ("sim.accuracy", "ratio"),
    ("prefetch.isb_ipc_speedup", "ratio"),
    ("tracing.overhead_pct", "%"),
    ("self_ms.bench.op", "ms"),
    ("self_ms.bench.setup", "ms"),
    ("self_ms.bench.check", "ms"),
    ("self_ms.runtime.microbatch", "ms"),
    ("self_ms.runtime.fleet", "ms"),
    ("self_ms.runtime.registry", "ms"),
    ("self_ms.runtime.serve", "ms"),
    ("self_ms.core.model", "ms"),
    ("self_ms.core.fastpath", "ms"),
    ("self_ms.core.online", "ms"),
    ("self_ms.distill", "ms"),
    ("self_ms.trace.gen", "ms"),
    ("self_ms.sim", "ms"),
];

/// The workloads, in the order METRICS.md describes them.
const WORKLOADS: [&str; 2] = ["serve_int8", "serve_table"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(45.0),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Report {
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "serve_int8" => serve::serve_int8(seed, secs, trace),
        "serve_table" => serve::serve_table(seed, secs, trace),
        other => unreachable!("workload {other} passed validation"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let epoch = Instant::now();
    let mut report = run(&args);
    if report.ops == 0 {
        report.problem("no operation ran".into());
    }
    if let Some(tracer) = report.tracer.take().filter(|_| args.trace) {
        report.values.extend(tracer.self_ms());
        let path = PathBuf::from("perfbench/out")
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match tracer.write(&path, epoch) {
            Ok(()) => println!("{} spans written to {}", tracer.len(), path.display()),
            Err(e) => report.problem(format!("writing {}: {e}", path.display())),
        }
    }
    // Human-readable: every metric this workload measured.
    println!(
        "workload {} seed {} seconds {}",
        args.workload, args.seed, args.seconds
    );
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        if let Some(v) = report.values.get(name) {
            println!("{name:<34} {v:>18.4} {unit}");
        }
    }
    println!("ops {} ops_failed {}", report.ops, report.failed);

    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in list {
        let value = match report.values.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => {
                report.problem(format!("end-to-end metric {name} was not measured"));
                0.0
            }
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    for p in &report.problems {
        eprintln!("check failed: {p}");
    }
    let correct = report.failed == 0 && report.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.ops.max(1),
        report.failed,
        metrics.join(", ")
    );
}

/// A JSON number with every digit of `v` (non-finite values become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_and_workload_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{w}\", \"why\"")),
                "BENCHMARK.json lacks {w}"
            );
        }
        assert_eq!(json.matches("\"why\"").count(), WORKLOADS.len());
    }
}
