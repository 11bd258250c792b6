//! Steady-state serving behaviour of the fast path.
//!
//! The fast path's claim is not just "faster" but "allocation-free once
//! warm": the per-model arena grows on the first call (and again only
//! if the batch size grows) and every later call reuses those buffers.
//! This test drives a real [`MicrobatchServer`] and pins that claim via
//! the process-global arena-growth counters in
//! [`voyager_tensor::infer`].
//!
//! Everything lives in one `#[test]` because the growth counters are
//! process-global: a second test running concurrently in this binary
//! would perturb the steady-state window.

use std::time::Duration;

use voyager::{SeqBatch, VoyagerConfig, VoyagerModel};
use voyager_runtime::{
    InferenceRequest, MicrobatchConfig, MicrobatchServer, PredictMode, ServiceConfig,
};
use voyager_tensor::infer;

/// Per-request prefetch candidates, as returned by the service.
type Candidates = Vec<(u32, u32, f32)>;

fn request(t: usize, seq_len: usize, page_vocab: usize) -> InferenceRequest {
    InferenceRequest {
        workload: Default::default(),
        pc: (0..seq_len).map(|j| (t + j) % 64).collect(),
        page: (0..seq_len).map(|j| (t * 3 + j) % page_vocab).collect(),
        offset: (0..seq_len).map(|j| (t * 5 + j) % 64).collect(),
    }
}

/// The served model: fixed seed, so two calls build identical weights.
fn model() -> (VoyagerModel, usize, usize) {
    let cfg = VoyagerConfig::test();
    let page_vocab = 256;
    (
        VoyagerModel::new(&cfg, 64, page_vocab, 64),
        cfg.seq_len,
        page_vocab,
    )
}

/// Serves `n` requests through a fresh single-request-per-batch server
/// built from `config` and returns (mode served, responses, grow-event
/// delta after warmup).
fn serve_steady(config: ServiceConfig, n: usize) -> (PredictMode, Vec<Candidates>, u64) {
    let (model, seq_len, page_vocab) = model();
    let service = config.build(model).expect("modes without tables");
    let mode = service.mode();
    // max_batch = 1 flushes every request immediately, so each forward
    // pass sees exactly one request and the arena warms up on the very
    // first infer below.
    let mb = MicrobatchConfig {
        max_batch: 1,
        max_delay: Duration::from_millis(1),
    };
    let (server, client) = MicrobatchServer::spawn(service, mb);
    let warmup = client
        .infer(request(0, seq_len, page_vocab))
        .expect("warmup response");
    let grown_before = infer::arena_grow_events();
    let mut responses = vec![warmup];
    for t in 1..n {
        responses.push(
            client
                .infer(request(t, seq_len, page_vocab))
                .expect("response"),
        );
    }
    let grown_after = infer::arena_grow_events();
    drop(client);
    let stats = server.join();
    assert_eq!(stats.requests, n);
    assert_eq!(stats.batches, n, "max_batch=1 must flush per request");
    (mode, responses, grown_after - grown_before)
}

/// Candidates with scores as raw bits, so equality is bitwise.
fn bits(responses: &[Candidates]) -> Vec<Vec<(u32, u32, u32)>> {
    responses
        .iter()
        .map(|r| r.iter().map(|&(p, o, s)| (p, o, s.to_bits())).collect())
        .collect()
}

#[test]
fn fast_serving_is_allocation_free_after_warmup_and_matches_direct_calls() {
    let n = 51;

    // The default mode is the f32 fast path: zero arena growth after
    // the first (warmup) call, every batch through the fast path.
    let fast_calls_before = infer::fast_path_calls();
    let (mode, fast, fast_growth) = serve_steady(ServiceConfig::new(2), n);
    assert_eq!(mode, PredictMode::FastF32, "default serving mode");
    assert_eq!(
        fast_growth, 0,
        "arena must not grow after the warmup request"
    );
    assert_eq!(
        infer::fast_path_calls() - fast_calls_before,
        n as u64,
        "every fast-mode batch goes through the fast path"
    );

    // int8 fast path: also steady-state allocation-free, and its top-1
    // page/offset picks agree with f32 on an (untrained but
    // deterministic) model for these windows.
    let (mode, int8, int8_growth) =
        serve_steady(ServiceConfig::new(2).mode(PredictMode::FastInt8), n);
    assert_eq!(mode, PredictMode::FastInt8);
    assert_eq!(
        int8_growth, 0,
        "int8 arena must not grow after the warmup request"
    );
    assert_eq!(int8.len(), n);
    for (f, q) in fast.iter().zip(&int8) {
        assert_eq!(f.len(), q.len(), "same prefetch degree per response");
    }

    // Served f32 responses are bit-equal to direct predict_fast calls
    // on a model built from the same seed (run last: direct calls grow
    // their own arena).
    let (mut direct, seq_len, page_vocab) = model();
    let expected: Vec<Candidates> = (0..n)
        .map(|t| {
            let r = request(t, seq_len, page_vocab);
            let batch = SeqBatch {
                pc: vec![r.pc],
                page: vec![r.page],
                offset: vec![r.offset],
            };
            direct.predict_fast(&batch, 2).remove(0)
        })
        .collect();
    assert_eq!(bits(&fast), bits(&expected), "served f32 != predict_fast");
}
