//! What every workload shares: the canonical serving model, seeded
//! request windows, counter snapshots, the result report and a few
//! measuring helpers.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use voyager::rng::{Rng, SeedableRng, StdRng};
use voyager::{SeqBatch, VoyagerConfig, VoyagerModel};
use voyager_runtime::{InferenceRequest, MicrobatchConfig, ModelSpec, WorkloadId};

use crate::spans::{SpanId, Tracer};

/// PC and offset vocabulary of the canonical serving model.
pub const PC_VOCAB: usize = 64;
/// Page vocabulary of the canonical serving model.
pub const PAGE_VOCAB: usize = 8192;
/// Offset vocabulary of the canonical serving model.
pub const OFFSET_VOCAB: usize = 64;
/// Prefetch degree every serving workload asks for.
pub const DEGREE: usize = 2;

/// Candidates of one prediction: `(page_token, offset_token, score)`.
pub type Candidates = Vec<(u32, u32, f32)>;

/// The canonical serving model's layout: the scaled configuration with
/// 128 LSTM units and an 8192-page head, initialised from `seed`.
pub fn canonical_spec(seed: u64) -> ModelSpec {
    let mut cfg = VoyagerConfig::scaled();
    cfg.lstm_units = 128;
    cfg.seed = seed;
    ModelSpec {
        cfg,
        pc_vocab: PC_VOCAB,
        page_vocab: PAGE_VOCAB,
        offset_vocab: OFFSET_VOCAB,
    }
}

/// Microbatching used by every serving workload.
pub fn microbatch_config() -> MicrobatchConfig {
    MicrobatchConfig {
        max_batch: 8,
        max_delay: Duration::from_micros(200),
    }
}

/// A seeded generator for one purpose of one run: the same `(seed,
/// stream)` always yields the same numbers.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A uniformly random history window of the canonical model's shape.
pub fn random_window(rng: &mut StdRng, workload: WorkloadId) -> InferenceRequest {
    let seq = VoyagerConfig::scaled().seq_len;
    InferenceRequest {
        workload,
        pc: (0..seq).map(|_| rng.gen_range(0..PC_VOCAB)).collect(),
        page: (0..seq).map(|_| rng.gen_range(0..PAGE_VOCAB)).collect(),
        offset: (0..seq).map(|_| rng.gen_range(0..OFFSET_VOCAB)).collect(),
    }
}

/// `request` as a one-row batch.
pub fn single_row(request: &InferenceRequest) -> SeqBatch {
    SeqBatch {
        pc: vec![request.pc.clone()],
        page: vec![request.page.clone()],
        offset: vec![request.offset.clone()],
    }
}

/// Bitwise equality of two candidate lists (scores compared by bits).
pub fn same(a: &[(u32, u32, f32)], b: &[(u32, u32, f32)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1 == y.1 && x.2.to_bits() == y.2.to_bits())
}

/// Records `peak_rss_mb`: the process's peak resident set size so far
/// in MB (`VmHWM` from `/proc/self/status`). Workloads call it when
/// their measured window ends, so it covers set-up and the window but
/// not the benchmark's own checking afterwards.
pub fn record_peak_rss(report: &mut Report) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok());
    match kb {
        Some(kb) => report.set("peak_rss_mb", kb / 1024.0),
        None => report.problem("no VmHWM in /proc/self/status".into()),
    }
}

/// Median of `values` (mean of the middle two for an even count);
/// 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of `values`; 0 for none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Set-up runs at least this many times per benchmark run, and more
/// while the repetitions total less than [`SETUP_MIN_S`]; `setup_s`
/// is the median, so a cheap set-up is still timed steadily.
const SETUP_MIN_REPEATS: usize = 5;
/// See [`SETUP_MIN_REPEATS`].
const SETUP_MIN_S: f64 = 0.5;
/// Upper bound on set-up repetitions.
const SETUP_MAX_REPEATS: usize = 200;

/// Runs `setup` repeatedly (see [`SETUP_MIN_REPEATS`]), each under a
/// `bench.setup` span, and returns the last result with the median
/// wall time in seconds. Each earlier result goes to `retire` before
/// the next set-up starts.
pub fn repeat_setup<T>(
    tracer: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer, SpanId) -> T,
    mut retire: impl FnMut(T),
) -> (T, f64) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPEATS
        || (times.iter().sum::<f64>() < SETUP_MIN_S && times.len() < SETUP_MAX_REPEATS)
    {
        if let Some(previous) = last.take() {
            retire(previous);
        }
        let t0 = Instant::now();
        let id = tracer.open("bench.setup", t0, None, times.len() as u64);
        last = Some(setup(tracer, id));
        let t1 = Instant::now();
        tracer.close(id, t1);
        times.push((t1 - t0).as_secs_f64());
    }
    (last.expect("set-up ran at least once"), median(&times))
}

/// The measured phases of a run: the whole window untraced, or, in a
/// traced run, an untraced half followed by a traced half (their
/// difference is the tracing overhead).
pub fn phases(seconds: f64, trace: bool) -> Vec<(f64, bool)> {
    if trace {
        vec![(seconds / 2.0, false), (seconds / 2.0, true)]
    } else {
        vec![(seconds, false)]
    }
}

/// Process-global counters of the program's layers, read before and
/// after a measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub int8_calls: u64,
    pub int8_ops: u64,
    pub f32_flops: u64,
    pub pack_hits: u64,
    pub pack_misses: u64,
    pub arena_grows: u64,
    pub table_hits: u64,
    pub table_misses: u64,
    pub fallback_rows: u64,
}

impl Counters {
    /// Reads every counter now.
    pub fn now() -> Self {
        use voyager_tensor::{infer, kernels, simd};
        let (pack_hits, pack_misses) = simd::packed_b_cache_stats();
        Counters {
            int8_calls: kernels::int8_gemm_invocations(),
            int8_ops: kernels::int8_gemm_ops(),
            f32_flops: kernels::gemm_flops(),
            pack_hits,
            pack_misses,
            arena_grows: infer::arena_grow_events(),
            table_hits: voyager_distill::table_hits(),
            table_misses: voyager_distill::table_misses(),
            fallback_rows: voyager_distill::table_fallback_rows(),
        }
    }

    /// Counts accrued since `earlier`.
    pub fn since(self, earlier: Counters) -> Counters {
        Counters {
            int8_calls: self.int8_calls - earlier.int8_calls,
            int8_ops: self.int8_ops - earlier.int8_ops,
            f32_flops: self.f32_flops - earlier.f32_flops,
            pack_hits: self.pack_hits - earlier.pack_hits,
            pack_misses: self.pack_misses - earlier.pack_misses,
            arena_grows: self.arena_grows - earlier.arena_grows,
            table_hits: self.table_hits - earlier.table_hits,
            table_misses: self.table_misses - earlier.table_misses,
            fallback_rows: self.fallback_rows - earlier.fallback_rows,
        }
    }
}

/// Int8 weight bytes one forward pass of `model` streams, computed
/// from tensor sizes: every int8 GEMM reads its `k×n` weight matrix
/// once, the LSTM input and recurrent matrices once per time step, the
/// two output heads once.
fn int8_weight_bytes_per_forward(model: &VoyagerModel) -> f64 {
    let steps = model.config().seq_len as f64;
    let mut bytes = 0.0;
    for (_, name, t) in model.store().iter() {
        let elems = (t.rows() * t.cols()) as f64;
        if name.ends_with("_lstm.wx") || name.ends_with("_lstm.wh") {
            bytes += steps * elems;
        } else if name.ends_with("_head.weight") {
            bytes += elems;
        }
    }
    bytes
}

/// Int8 GEMM calls of one single-row `predict_int8` on `model`
/// (measured), so window counts convert to forward passes.
fn int8_calls_per_forward(model: &mut VoyagerModel, row: &SeqBatch) -> u64 {
    let before = voyager_tensor::kernels::int8_gemm_invocations();
    std::hint::black_box(model.predict_int8(row, DEGREE));
    voyager_tensor::kernels::int8_gemm_invocations() - before
}

/// Records the kernel-layer metrics of a window with counter deltas
/// `c` over `ops` operations.
pub fn kernel_metrics(report: &mut Report, c: Counters, ops: f64, weight_bytes_per_int8_call: f64) {
    report.set("kernels.int8_gemm_calls_per_op", c.int8_calls as f64 / ops);
    report.set("kernels.int8_gemm_ops_per_op", c.int8_ops as f64 / ops);
    report.set("kernels.gemm_flops_per_op", c.f32_flops as f64 / ops);
    report.set(
        "kernels.weight_bytes_per_op",
        c.int8_calls as f64 * weight_bytes_per_int8_call / ops,
    );
    let lookups = c.pack_hits + c.pack_misses;
    report.set("simd.packed_b_lookups", lookups as f64);
    report.set(
        "simd.packed_b_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            c.pack_hits as f64 / lookups as f64
        },
    );
    report.set("fastpath.arena_grow_events", c.arena_grows as f64);
}

/// A reference copy of the canonical model for `seed` with int8
/// weights prepared; records `fastpath.prepare_int8_ms`.
pub fn reference_model(
    report: &mut Report,
    tracer: &mut Tracer,
    check: SpanId,
    seed: u64,
) -> VoyagerModel {
    let mut model = canonical_spec(seed).instantiate();
    let t0 = Instant::now();
    tracer.time("core.fastpath", check, 0, || model.prepare_int8());
    report.set("fastpath.prepare_int8_ms", t0.elapsed().as_secs_f64() * 1e3);
    model
}

/// Direct single-row int8 prediction, timed into `times_us`.
pub fn direct_int8(
    model: &mut VoyagerModel,
    tracer: &mut Tracer,
    check: SpanId,
    request: &InferenceRequest,
    times_us: &mut Vec<f64>,
) -> Candidates {
    let row = single_row(request);
    let t0 = Instant::now();
    let out = tracer.time("core.fastpath", check, 0, || {
        model.predict_int8(&row, DEGREE)
    });
    times_us.push(t0.elapsed().as_secs_f64() * 1e6);
    out.into_iter().next().unwrap_or_default()
}

/// Records the kernel metrics of a window of `ops` int8 operations.
/// A forward pass makes the same int8 GEMM calls whatever its row
/// count, so weight bytes per call are `model`'s bytes per forward
/// pass over its (measured) calls per forward pass.
pub fn record_kernels(
    report: &mut Report,
    counters: Counters,
    ops: f64,
    model: &mut VoyagerModel,
    probe: &InferenceRequest,
) {
    let calls = int8_calls_per_forward(model, &single_row(probe)).max(1);
    let per_call = int8_weight_bytes_per_forward(model) / calls as f64;
    kernel_metrics(report, counters, ops, per_call);
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub ops: u64,
    /// Operations whose output or outcome was wrong.
    pub failed: u64,
    /// Checks that failed outside any one operation.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Spans of the traced phase (empty when untraced).
    pub tracer: Option<Tracer>,
}

impl Report {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a failed check that no single operation owns.
    pub fn problem(&mut self, msg: String) {
        self.problems.push(msg);
    }

    /// Counts `n` operations attempted, `bad` of them failed.
    pub fn count(&mut self, n: u64, bad: u64) {
        self.ops += n;
        self.failed += bad;
    }

    /// Records the latency metrics of one measured phase's samples (in
    /// schedule order). An untraced phase sets `latency_p50_us` and
    /// `latency_p90_us` (medians over slices of the window, gated),
    /// `latency_p99_us` and `gen.lag_p99_us` (whole window,
    /// diagnostic). A traced phase, which always follows the untraced
    /// one, sets only `tracing.overhead_pct`: its p50 over the untraced
    /// p50, minus one, in percent.
    pub fn phase_latency(&mut self, samples: &[crate::pace::Sample], traced: bool) {
        use crate::pace::{ns, quantile, sliced_quantile};
        let lat = ns(samples, |s| s.latency());
        let p50 = sliced_quantile(&lat, 0.50).unwrap_or(0.0) / 1e3;
        if traced {
            if let Some(untraced) = self.values.get("latency_p50_us") {
                self.set("tracing.overhead_pct", (p50 / untraced - 1.0) * 100.0);
            }
            return;
        }
        let mut sorted_lat = lat.clone();
        sorted_lat.sort_unstable();
        let mut lag = ns(samples, |s| s.lag());
        lag.sort_unstable();
        let whole_us = |sorted: &[u64], q| quantile(sorted, q).unwrap_or(0) as f64 / 1e3;
        self.set("latency_p50_us", p50);
        self.set(
            "latency_p90_us",
            sliced_quantile(&lat, 0.90).unwrap_or(0.0) / 1e3,
        );
        self.set("latency_p99_us", whole_us(&sorted_lat, 0.99));
        self.set("gen.lag_p99_us", whole_us(&lag, 0.99));
    }
}
