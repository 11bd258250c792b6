//! Inference fast-path benchmark: the f32 fast path vs the quantized
//! int8 fast path, served through the microbatch server. Reports
//! serving p50/p99 latency and throughput per path, heap bytes
//! allocated per direct model call (via a counting global allocator),
//! int8 top-1 agreement on a trained model, and the fast-path arena /
//! int8-GEMM telemetry.
//! Emits `BENCH_pr5_infer.json` at the workspace root.
//!
//! Run `cargo run --release -p voyager-bench --bin pr5_infer` for the
//! full measurement, or with `--smoke` for the fast CI variant (same
//! schema, fewer requests, no latency assertions).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use voyager::{SeqBatch, VoyagerConfig, VoyagerModel};
use voyager_runtime::{
    InferenceRequest, MicrobatchConfig, MicrobatchServer, PredictMode, ServiceConfig,
};
use voyager_tensor::{infer, kernels};

/// System allocator wrapped with a relaxed byte counter, so the bench
/// can report heap bytes allocated per inference call. Only
/// allocations are counted (frees are not subtracted): the metric is
/// allocator traffic, not live footprint.
struct CountingAlloc;

static HEAP_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System`; the only added behavior is a
// relaxed atomic counter bump, which cannot violate the `GlobalAlloc`
// contract (no reentrancy into the allocator, layouts forwarded
// unchanged).
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to `System` with the caller's layout unchanged;
    // the counter bump is a relaxed atomic and cannot re-enter the
    // allocator.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's layout, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: pure pass-through; `ptr`/`layout` reach `System` exactly
    // as the caller provided them.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from a matching `alloc` call and
        // are forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn heap_bytes() -> u64 {
    HEAP_BYTES.load(Ordering::Relaxed)
}

/// Serving-shaped model: the scaled config widened toward the paper's
/// dimensions (256 LSTM units, ~100 k pages) so that the LSTM and
/// page-head GEMMs dominate per-call compute the way they do at paper
/// scale. At these sizes the f32 weights exceed the L2 cache while
/// the int8 copies still fit, which is exactly the regime Section 5.4
/// quantizes for; toy test-config dimensions would instead hide the
/// GEMMs behind the shared embedding/softmax work.
fn serve_config() -> (VoyagerConfig, usize) {
    let mut cfg = VoyagerConfig::scaled();
    cfg.lstm_units = 128;
    (cfg, 8192)
}

fn request(t: usize, seq_len: usize, page_vocab: usize) -> InferenceRequest {
    InferenceRequest {
        workload: Default::default(),
        pc: (0..seq_len).map(|j| (t + j) % 64).collect(),
        page: (0..seq_len).map(|j| (t * 3 + j) % page_vocab).collect(),
        offset: (0..seq_len).map(|j| (t * 5 + j) % 64).collect(),
    }
}

fn mode_name(mode: PredictMode) -> &'static str {
    match mode {
        PredictMode::FastF32 => "fast_f32",
        PredictMode::FastInt8 => "fast_int8",
        PredictMode::Table => "table",
    }
}

struct PathNumbers {
    path: &'static str,
    requests: usize,
    throughput_rps: f64,
    p50_us: f64,
    p99_us: f64,
    bytes_per_call: f64,
}

/// Closed-loop serving latency: `max_batch = 1` flushes every request
/// immediately, so each batched forward pass computes exactly one
/// request and p50/p99 measure the compute path, identically batched
/// across the modes.
fn bench_serving(mode: PredictMode, requests: usize) -> PathNumbers {
    let (cfg, page_vocab) = serve_config();
    let model = VoyagerModel::new(&cfg, 64, page_vocab, 64);
    let service = ServiceConfig::new(2)
        .mode(mode)
        .build(model)
        .expect("neural modes need no tables");
    let mb = MicrobatchConfig {
        max_batch: 1,
        max_delay: Duration::from_millis(1),
    };
    let (server, client) = MicrobatchServer::spawn(service, mb);
    let clients = 4;
    std::thread::scope(|scope| {
        for c in 0..clients {
            let client = client.clone();
            let per_client = requests / clients;
            scope.spawn(move || {
                for i in 0..per_client {
                    let t = c * per_client + i;
                    std::hint::black_box(client.infer(request(t, cfg.seq_len, page_vocab)));
                }
            });
        }
    });
    drop(client);
    let stats = server.join();
    PathNumbers {
        path: mode_name(mode),
        requests: stats.requests,
        throughput_rps: stats.throughput(),
        p50_us: stats.latency_quantile(0.5).as_secs_f64() * 1e6,
        p99_us: stats.latency_quantile(0.99).as_secs_f64() * 1e6,
        bytes_per_call: 0.0, // filled in by the caller
    }
}

/// Mean heap bytes allocated per single-request predict call, after a
/// warmup call that grows the fast-path arena.
fn bytes_per_call(mode: PredictMode, iters: usize) -> f64 {
    let (cfg, page_vocab) = serve_config();
    let mut model = VoyagerModel::new(&cfg, 64, page_vocab, 64);
    if mode == PredictMode::FastInt8 {
        model.prepare_int8();
    }
    let batch = SeqBatch {
        pc: vec![(0..cfg.seq_len).map(|j| j % 64).collect()],
        page: vec![(0..cfg.seq_len).map(|j| (j * 3) % page_vocab).collect()],
        offset: vec![(0..cfg.seq_len).map(|j| (j * 5) % 64).collect()],
    };
    let run = |m: &mut VoyagerModel| match mode {
        PredictMode::FastF32 => std::hint::black_box(m.predict_fast(&batch, 2)),
        PredictMode::FastInt8 => std::hint::black_box(m.predict_int8(&batch, 2)),
        // pr5 predates the distilled tables; pr6_table covers them.
        PredictMode::Table => unreachable!("pr5_infer does not bench table mode"),
    };
    run(&mut model); // warmup: arena growth happens here
    let before = heap_bytes();
    for _ in 0..iters {
        run(&mut model);
    }
    (heap_bytes() - before) as f64 / iters as f64
}

/// Trains the small fixed mapping from the core fast-path tests to
/// convergence and returns the f32-vs-int8 top-1 (page, offset)
/// agreement over a 128-row evaluation batch.
fn int8_agreement() -> f64 {
    let cfg = VoyagerConfig::test();
    let mut model = VoyagerModel::new(&cfg, 16, 8, 64);
    let patterns = SeqBatch {
        pc: vec![vec![1; 4], vec![2; 4], vec![3; 4], vec![4; 4]],
        page: vec![vec![3; 4], vec![5; 4], vec![7; 4], vec![1; 4]],
        offset: vec![vec![10; 4], vec![20; 4], vec![30; 4], vec![40; 4]],
    };
    let pages: [usize; 4] = [6, 7, 2, 4];
    let offsets: [usize; 4] = [30, 40, 50, 60];
    for _ in 0..150 {
        model.train_single(&patterns, &pages, &offsets);
    }
    let rows = 128;
    let eval = SeqBatch {
        pc: (0..rows).map(|i| patterns.pc[i % 4].clone()).collect(),
        page: (0..rows).map(|i| patterns.page[i % 4].clone()).collect(),
        offset: (0..rows).map(|i| patterns.offset[i % 4].clone()).collect(),
    };
    model.prepare_int8();
    let f = model.predict_fast(&eval, 1);
    let q = model.predict_int8(&eval, 1);
    let agree = f
        .iter()
        .zip(&q)
        .filter(|(a, b)| (a[0].0, a[0].1) == (b[0].0, b[0].1))
        .count();
    agree as f64 / rows as f64
}

fn fmt_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0.0".to_string()
    }
}

#[allow(clippy::too_many_arguments)]
fn render_json(mode: &str, paths: &[PathNumbers], agreement: f64) -> String {
    let p50 = |name: &str| {
        paths
            .iter()
            .find(|p| p.path == name)
            .map(|p| p.p50_us)
            .unwrap_or(0.0)
    };
    let fast = p50("fast_f32");
    let int8 = p50("fast_int8");
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"pr5_infer\",\n");
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str(&format!(
        "  \"dispatch\": \"{}\",\n",
        kernels::active_isa().name()
    ));
    s.push_str("  \"serve\": [\n");
    for (i, p) in paths.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"path\": \"{}\", \"requests\": {}, \"throughput_rps\": {}, \"p50_us\": {}, \"p99_us\": {}, \"bytes_per_call\": {}}}{}\n",
            p.path,
            p.requests,
            fmt_f(p.throughput_rps),
            fmt_f(p.p50_us),
            fmt_f(p.p99_us),
            fmt_f(p.bytes_per_call),
            if i + 1 < paths.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"int8_vs_f32_p50\": {},\n",
        fmt_f(if fast > 0.0 { int8 / fast } else { 0.0 })
    ));
    s.push_str(&format!(
        "  \"int8_top1_agreement\": {},\n",
        fmt_f(agreement)
    ));
    s.push_str(&format!(
        "  \"arena\": {{\"grow_events\": {}, \"grown_bytes\": {}, \"fast_path_calls\": {}}},\n",
        infer::arena_grow_events(),
        infer::arena_grown_bytes(),
        infer::fast_path_calls(),
    ));
    s.push_str(&format!(
        "  \"int8_gemm\": {{\"invocations\": {}, \"ops\": {}}}\n",
        kernels::int8_gemm_invocations(),
        kernels::int8_gemm_ops(),
    ));
    s.push_str("}\n");
    s
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (requests, alloc_iters) = if smoke { (64, 8) } else { (2048, 64) };

    let agreement = int8_agreement();
    println!("int8 top-1 agreement: {agreement:.4}");
    assert!(
        agreement >= 0.99,
        "int8 top-1 agreement {agreement} below the paper's <1% degradation claim"
    );

    let mut paths = Vec::new();
    for mode in [PredictMode::FastF32, PredictMode::FastInt8] {
        let mut numbers = bench_serving(mode, requests);
        numbers.bytes_per_call = bytes_per_call(mode, alloc_iters);
        println!(
            "serve/{}: {} requests, {:.0} rps, p50 {:.0} us, p99 {:.0} us, {:.0} bytes/call",
            numbers.path,
            numbers.requests,
            numbers.throughput_rps,
            numbers.p50_us,
            numbers.p99_us,
            numbers.bytes_per_call,
        );
        paths.push(numbers);
    }

    let fast_p50 = paths[0].p50_us;
    let int8_p50 = paths[1].p50_us;
    println!("int8/f32 p50 ratio: {:.2}", int8_p50 / fast_p50);
    if !smoke {
        // Acceptance thresholds are asserted only in full mode; smoke
        // runs on loaded CI machines validate the harness and schema.
        assert!(
            int8_p50 <= fast_p50 * 1.05,
            "int8 serve p50 ({int8_p50:.0} us) must be at least as fast as fast-f32 ({fast_p50:.0} us)"
        );
    }

    let json = render_json(if smoke { "smoke" } else { "full" }, &paths, agreement);
    if let Err(e) = voyager_obs::json::validate(&json) {
        eprintln!("generated JSON is malformed: {e}\n{json}");
        std::process::exit(1);
    }
    // Smoke runs (CI) validate the harness without clobbering the
    // committed full-mode measurement at the workspace root.
    let path = if smoke {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_pr5_infer.smoke.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr5_infer.json")
    };
    std::fs::write(path, &json).expect("write BENCH_pr5_infer.json");
    println!("wrote {path}");
}
