//! Micro-benchmarks behind the Section 5.4 overhead numbers: per-step
//! training cost and per-access prediction latency for Voyager and
//! Delta-LSTM (the paper reports a 15–20× gap at paper scale, due to
//! Delta-LSTM's flat output vocabulary), plus the classical baselines'
//! per-access cost and the simulator's throughput.
//!
//! Formerly a criterion harness; now a plain `harness = false` binary
//! timed with `std::time::Instant` so the workspace builds with no
//! external dependencies (offline-build policy). Run with
//! `cargo bench --bench overheads`.

use std::time::Instant;

use voyager::{DeltaLstmConfig, SeqBatch, VoyagerConfig, VoyagerModel};
use voyager_prefetch::{BestOffset, Domino, Isb, Prefetcher, Stms};
use voyager_sim::{simulate, SimConfig};
use voyager_tensor::rng::thread_rng;
use voyager_tensor::Tensor2;
use voyager_trace::gen::{Benchmark, GeneratorConfig};
use voyager_trace::MemoryAccess;

/// Times `f` over `iters` iterations after one warmup call and prints
/// the mean per-iteration wall time.
fn bench(name: &str, iters: usize, mut f: impl FnMut()) {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let per_iter = start.elapsed() / iters as u32;
    println!("{name:<44} {per_iter:>12.2?}/iter  ({iters} iters)");
}

fn seq_batch(b: usize, l: usize, page_vocab: usize) -> SeqBatch {
    SeqBatch {
        pc: (0..b)
            .map(|i| (0..l).map(|j| (i * 7 + j) % 64).collect())
            .collect(),
        page: (0..b)
            .map(|i| (0..l).map(|j| (i * 13 + j * 3) % page_vocab).collect())
            .collect(),
        offset: (0..b)
            .map(|i| (0..l).map(|j| (i * 11 + j * 5) % 64).collect())
            .collect(),
    }
}

fn bench_voyager() {
    let cfg = VoyagerConfig::scaled();
    let page_vocab = 2048;
    let batch = seq_batch(cfg.batch_size, cfg.seq_len, page_vocab);
    let mut pt = Tensor2::zeros(cfg.batch_size, page_vocab);
    let mut ot = Tensor2::zeros(cfg.batch_size, 64);
    for i in 0..cfg.batch_size {
        pt.set(i, (i * 37) % page_vocab, 1.0);
        ot.set(i, (i * 17) % 64, 1.0);
    }
    let mut model = VoyagerModel::new(&cfg, 64, page_vocab, 64);
    bench("voyager/train_step_batch", 10, || {
        std::hint::black_box(model.train_multi(&batch, &pt, &ot));
    });
    let mut model = VoyagerModel::new(&cfg, 64, page_vocab, 64);
    bench("voyager/predict_batch", 10, || {
        std::hint::black_box(model.predict_fast(&batch, 1));
    });
}

fn bench_delta_lstm() {
    // The flat delta vocabulary makes Delta-LSTM's output layer (and
    // thus each step) far more expensive than Voyager's hierarchical
    // heads at matched vocabulary coverage.
    let cfg = DeltaLstmConfig::scaled();
    let trace: voyager_trace::Trace = (0..1500u64)
        .map(|i| MemoryAccess::new(7, ((i * 3) % 700) * 64))
        .collect();
    let mut small = cfg;
    small.epoch_accesses = 500;
    small.train_passes = 1;
    bench("delta_lstm/run_online_small_stream", 3, || {
        std::hint::black_box(voyager::DeltaLstm::run_online(&trace, &small));
    });
}

type MakePrefetcher = Box<dyn Fn() -> Box<dyn Prefetcher>>;

fn bench_baselines() {
    let trace = Benchmark::Pr.generate(&GeneratorConfig::small());
    let makes: [(&str, MakePrefetcher); 4] = [
        ("stms", Box::new(|| Box::new(Stms::new()))),
        ("domino", Box::new(|| Box::new(Domino::new()))),
        ("isb", Box::new(|| Box::new(Isb::new()))),
        ("bo", Box::new(|| Box::new(BestOffset::new()))),
    ];
    for (name, make) in makes {
        bench(&format!("baseline_access/{name}"), 10, || {
            let mut p = make();
            let mut preds = Vec::new();
            for a in &trace {
                p.access(a, &mut preds);
                std::hint::black_box(&preds);
            }
        });
    }
}

fn bench_simulator() {
    let trace = Benchmark::Bfs.generate(&GeneratorConfig::small());
    bench("simulator/no_prefetch_8k_accesses", 20, || {
        std::hint::black_box(simulate(
            &trace,
            &mut voyager_prefetch::NoPrefetcher::new(),
            &SimConfig::scaled(),
        ));
    });
}

fn bench_hier_softmax() {
    // Section 5.5: hierarchical softmax vs a flat output layer over a
    // large class space (the paper estimates 3-4x savings).
    use voyager_nn::{Adam, HierarchicalSoftmax, Layer, Linear, ParamStore, Session};
    let mut rng = thread_rng();
    let (hidden, classes, batch) = (64usize, 10_000usize, 32usize);
    let targets: Vec<usize> = (0..batch).map(|i| (i * 317) % classes).collect();

    let mut store = ParamStore::new();
    let head = Linear::new(&mut store, "flat", hidden, classes, &mut rng);
    let mut adam = Adam::new(0.001);
    let h = Tensor2::uniform(batch, hidden, 1.0, &mut rng);
    bench("output_head_10k/flat_softmax_step", 10, || {
        let mut sess = Session::new();
        let hv = sess.tape.leaf(h.clone(), false);
        let logits = head.forward(&mut sess, &store, hv);
        let loss = sess.tape.softmax_cross_entropy(logits, &targets);
        sess.step(loss, &mut store, &mut adam);
    });

    let mut store = ParamStore::new();
    let head = HierarchicalSoftmax::new(&mut store, "hs", hidden, classes, &mut rng);
    let mut adam = Adam::new(0.001);
    let h = Tensor2::uniform(batch, hidden, 1.0, &mut rng);
    bench("output_head_10k/hierarchical_softmax_step", 10, || {
        let mut sess = Session::new();
        let hv = sess.tape.leaf(h.clone(), false);
        let loss = head.loss(&mut sess, &store, hv, &targets);
        sess.step(loss, &mut store, &mut adam);
    });
}

fn bench_tensor() {
    let mut rng = thread_rng();
    let a = Tensor2::uniform(64, 128, 1.0, &mut rng);
    let b = Tensor2::uniform(128, 192, 1.0, &mut rng);
    bench("tensor/matmul_64x128x192", 200, || {
        std::hint::black_box(a.matmul(&b));
    });
}

fn main() {
    println!("voyager overhead micro-benchmarks (mean wall time)");
    bench_tensor();
    bench_baselines();
    bench_simulator();
    bench_hier_softmax();
    bench_voyager();
    bench_delta_lstm();
}
