//! The paper's pipeline, run in `serve_int8`'s traced run for its
//! per-layer metrics: an `mcf` trace is filtered to its LLC stream,
//! Voyager trains and predicts online over it (§5.1), and the simulator
//! replays the predictions against no prefetcher and ISB.
//!
//! It is not a gated workload: its f32 training follows the shared
//! machine's slow and fast spells too closely for a 25% bound (see
//! METRICS.md, *Steadiness*).

use std::time::Instant;

use voyager::{OnlineRun, ReplayPrefetcher, VoyagerConfig};
use voyager_prefetch::{Isb, NoPrefetcher, Prefetcher};
use voyager_sim::{llc_stream, simulate, SimConfig, SimOutcome};
use voyager_trace::gen::{Benchmark, GeneratorConfig};

use crate::common::{median, Counters, Report};
use crate::spans::{SpanId, Tracer};

/// Raw trace length: an LLC stream of about 3700 accesses, two online
/// epochs (train on the first, predict the second), about 3.5 s per
/// repetition.
const ACCESSES: usize = 4000;
/// Repetitions of the whole pipeline; timings are their medians and
/// every repetition must reproduce the first one's results bit for bit.
const REPS: usize = 3;
/// Lookahead window of the unified accuracy/coverage metric (the
/// paper's co-occurrence window).
const UNIFIED_WINDOW: usize = 10;

/// One repetition's results that must repeat bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Outcome {
    accesses: usize,
    acc_cov: f64,
    ipc_speedup: f64,
    voyager: SimOutcome,
    isb_speedup: f64,
}

/// Host timings of one repetition.
struct Timings {
    generate_s: f64,
    llc_stream_s: f64,
    online_s: f64,
    train_s: f64,
    predict_s: f64,
    predict_us_per_access: f64,
    sim_ns_per_access: f64,
}

/// Runs the pipeline [`REPS`] times from `seed` under `parent`, checks
/// each repetition (one counted operation each) and records the
/// `online.*`, `trace.*`, `sim.*` and `prefetch.*` metrics.
pub fn paper_pipeline(report: &mut Report, tracer: &mut Tracer, parent: SpanId, seed: u64) {
    let gen_cfg = GeneratorConfig::small()
        .with_accesses(ACCESSES)
        .with_seed(seed);
    let sim_cfg = SimConfig::scaled();
    let mut cfg = VoyagerConfig::scaled().with_degree(1);
    cfg.seed = seed;
    let mut reference: Option<Outcome> = None;
    let mut timings = Vec::new();
    let start = Counters::now();
    for rep in 0..REPS as u64 {
        let t = &mut *tracer;
        let t0 = Instant::now();
        let raw = t.time("trace.gen", parent, rep, || {
            Benchmark::Mcf.generate(&gen_cfg)
        });
        let t1 = Instant::now();
        let stream = t.time("sim", parent, rep, || llc_stream(&raw, &sim_cfg));
        let t2 = Instant::now();
        let run = t.time("core.online", parent, rep, || {
            OnlineRun::execute(&stream, &cfg)
        });
        let online_s = t2.elapsed().as_secs_f64();
        let acc_cov = t.time("sim", parent, rep, || {
            run.unified_score_windowed(&stream, UNIFIED_WINDOW).value()
        });
        let shape_ok = run.predictions.len() == stream.len()
            && run.predictions.iter().all(|p| p.len() <= cfg.degree);
        let mut sim_ns = Vec::new();
        let mut sim = |p: &mut dyn Prefetcher| {
            p.set_degree(cfg.degree);
            let s0 = Instant::now();
            let out = t.time("sim", parent, rep, || simulate(&raw, p, &sim_cfg));
            sim_ns.push(s0.elapsed().as_secs_f64() * 1e9 / raw.len() as f64);
            out
        };
        let none = sim(&mut NoPrefetcher::new());
        let voyager = sim(&mut ReplayPrefetcher::new(run.predictions.clone()));
        let isb = sim(&mut Isb::new());
        timings.push(Timings {
            generate_s: (t1 - t0).as_secs_f64(),
            llc_stream_s: (t2 - t1).as_secs_f64(),
            online_s,
            train_s: run.train_seconds,
            predict_s: run.predict_seconds,
            predict_us_per_access: run.prediction_latency_ns() / 1e3,
            sim_ns_per_access: median(&sim_ns),
        });
        let outcome = Outcome {
            accesses: stream.len(),
            acc_cov,
            ipc_speedup: voyager.speedup_vs(&none),
            voyager,
            isb_speedup: isb.speedup_vs(&none),
        };
        let first = *reference.get_or_insert(outcome);
        let repeats = first == outcome
            && first.acc_cov.to_bits() == outcome.acc_cov.to_bits()
            && first.ipc_speedup.to_bits() == outcome.ipc_speedup.to_bits();
        if !shape_ok {
            eprintln!(
                "paper repetition {rep}: not one prediction set of at most degree {} per access",
                cfg.degree
            );
        }
        if !repeats {
            eprintln!("paper repetition {rep}: results differ from the first: {outcome:?}");
        }
        report.count(1, u64::from(!(shape_ok && repeats)));
    }
    let counts = Counters::now().since(start);
    let Some(r) = reference else { return };
    let n = r.accesses as f64;
    let med = |f: fn(&Timings) -> f64| median(&timings.iter().map(f).collect::<Vec<_>>());
    report.set("online.accesses_per_s", n / med(|t| t.online_s));
    report.set(
        "online.predict_us_per_access",
        med(|t| t.predict_us_per_access),
    );
    report.set("online.train_s", med(|t| t.train_s));
    report.set("online.predict_s", med(|t| t.predict_s));
    report.set("online.train_us_per_access", med(|t| t.train_s) * 1e6 / n);
    report.set(
        "online.gemm_flops_per_access",
        counts.f32_flops as f64 / (REPS as f64 * n),
    );
    report.set("trace.generate_s", med(|t| t.generate_s));
    report.set("sim.llc_stream_s", med(|t| t.llc_stream_s));
    report.set("sim.ns_per_access", med(|t| t.sim_ns_per_access));
    report.set("unified_acc_cov", r.acc_cov);
    report.set("ipc_speedup", r.ipc_speedup);
    report.set("sim.llc_misses", r.voyager.llc_misses as f64);
    report.set("sim.useful_prefetches", r.voyager.useful_prefetches as f64);
    report.set(
        "sim.late_prefetch_hits",
        r.voyager.late_prefetch_hits as f64,
    );
    report.set("sim.accuracy", r.voyager.accuracy().unwrap_or(0.0));
    report.set("prefetch.isb_ipc_speedup", r.isb_speedup);
}
