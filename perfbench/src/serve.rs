//! The serving workloads: paced clients into one int8 microbatch
//! server (`serve_int8`) and into a two-shard table fleet with
//! periodic publishes (`serve_table`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use voyager::rng::Rng;
use voyager::{SeqBatch, VoyagerModel};
use voyager_distill::{distill, DistilledTables, TableConfig};
use voyager_runtime::{
    BatchModel, FleetConfig, FleetServer, InferenceRequest, MicrobatchServer, ModelRegistry,
    ModelSpec, PredictMode, ServerStats, ServiceConfig, ShardSpec, WorkloadId,
};

use crate::common::{
    self, canonical_spec, direct_int8, mean, microbatch_config, phases, random_window,
    record_kernels, record_peak_rss, reference_model, repeat_setup, rng, same, single_row,
    Candidates, Counters, Report, DEGREE,
};
use crate::pace::{run_paced, Sample};
use crate::spans::{SpanId, Tracer};

/// Load comes from this many generator threads: one per core of the
/// 2-core reference machine. They sleep between sends, leaving the
/// cores to the program's server and shard threads.
const CLIENTS: usize = 2;
/// Paced warm-up before the measured window, excluded from latency.
const WARMUP_S: f64 = 0.5;
/// Offered rate of `serve_int8`, requests per second over all clients:
/// well below saturation, so latency reflects compute, not a backlog.
/// The two clients' requests are half a period (5 ms) apart, far more
/// than one request's compute even when a busy host slows it, so they
/// rarely queue behind each other.
const INT8_RATE: f64 = 200.0;
/// Offered rate of `serve_table`, requests per second over all clients.
/// Each client's period (10 ms) leaves room for a table miss (p90
/// about 1.6 ms), and the adopt stall of a publish, to run several
/// times as slow without the closed-loop client falling far behind
/// its schedule.
const TABLE_RATE: f64 = 200.0;
/// Distilled corpus windows per table shard.
const CORPUS: usize = 640;
/// Share of `serve_table` requests that repeat a corpus window. About
/// 86% of corpus windows are in the tables, so about 22% of requests
/// hit and the median request is a miss: latency is int8 compute, not
/// the coalescing wait and thread hand-offs that dominate a hit and
/// swing with the shared machine's scheduling (see METRICS.md).
const REPEAT_SHARE: f64 = 0.25;
/// Table memory budget per shard.
const TABLE_BUDGET: usize = 1 << 18;
/// Direct single-row f32 calls timed in a traced run.
const DIRECT_F32_ROWS: usize = 200;
/// Rows per direct `forward_batch` call in `serve_int8`'s check phase.
const BATCH_ROWS: usize = 64;
/// Direct `forward_batch` calls in `serve_int8`'s check phase.
const BATCH_CALLS: usize = 4;

/// What one scheduled operation produced.
enum Done {
    /// A request for pool window `.0` and the program's answer.
    Served(usize, Result<Candidates, String>),
    /// A registry publish, with its duration or error.
    Published(Result<Duration, String>),
}

/// One client's schedule and results for one phase.
struct ClientRun {
    samples: Vec<Sample>,
    done: Vec<Done>,
}

impl ClientRun {
    /// Samples of the request operations (publishes excluded).
    fn request_samples(&self) -> impl Iterator<Item = &Sample> {
        self.samples
            .iter()
            .zip(&self.done)
            .filter(|(_, d)| matches!(d, Done::Served(..)))
            .map(|(s, _)| s)
    }
}

/// Runs one paced phase: client `c` issues `ops[c]` operations at
/// `rate / CLIENTS` per second, offset by half a period from the other
/// client, each under a `bench.op` span. Returns each client's run and
/// its tracer.
fn paced_phase<F>(
    rate: f64,
    seconds: f64,
    trace: bool,
    phase: u64,
    mut ops: Vec<F>,
) -> Vec<(ClientRun, Tracer)>
where
    F: FnMut(usize, &mut Tracer, SpanId) -> Done + Send,
{
    let period = Duration::from_secs_f64(CLIENTS as f64 / rate);
    let n = (seconds * rate / CLIENTS as f64).round() as usize;
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        let handles: Vec<_> = ops
            .iter_mut()
            .enumerate()
            .map(|(c, op)| {
                scope.spawn(move || {
                    let mut tracer = Tracer::new(trace);
                    let mut done = Vec::with_capacity(n);
                    let first = start + period * c as u32 / CLIENTS as u32;
                    let samples = run_paced(first, period, n, |i, due| {
                        let id = (phase << 40) | ((c as u64) << 32) | i as u64;
                        let span = tracer.open("bench.op", due, None, id);
                        done.push(op(i, &mut tracer, span));
                        tracer.close(span, Instant::now());
                    });
                    (ClientRun { samples, done }, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Measured-window metrics shared by the serving workloads: latency
/// of every phase (see [`Report::phase_latency`]) and throughput of
/// the untraced one.
fn window_metrics(report: &mut Report, phases: &[(bool, Vec<ClientRun>)]) {
    for (traced, runs) in phases {
        let mut samples: Vec<Sample> = runs
            .iter()
            .flat_map(|r| r.request_samples().copied())
            .collect();
        samples.sort_by_key(|s| s.due);
        report.phase_latency(&samples, *traced);
        let first = samples.iter().map(|s| s.due).min();
        let last = samples.iter().map(|s| s.done).max();
        if let (false, Some(first), Some(last)) = (traced, first, last) {
            report.set(
                "throughput_rps",
                samples.len() as f64 / (last - first).as_secs_f64(),
            );
        }
    }
}

/// Microbatch-layer metrics from the program's exact histogram sums
/// and counts (never its bucketed quantiles).
fn microbatch_metrics(report: &mut Report, servers: &[&ServerStats]) {
    let sum = |f: fn(&ServerStats) -> u64| servers.iter().map(|s| f(s)).sum::<u64>() as f64;
    let requests = sum(|s| s.requests as u64);
    let batches = sum(|s| s.batches as u64);
    let wait_ns = sum(|s| s.queue_wait.sum());
    let wait_n = sum(|s| s.queue_wait.count());
    let compute_ns = sum(|s| s.compute.sum());
    let compute_n = sum(|s| s.compute.count());
    report.set(
        "microbatch.queue_wait_mean_us",
        wait_ns / wait_n.max(1.0) / 1e3,
    );
    report.set(
        "microbatch.compute_mean_us",
        compute_ns / compute_n.max(1.0) / 1e3,
    );
    report.set("microbatch.batch_mean", requests / batches.max(1.0));
    report.set("microbatch.batches", batches);
    report.set(
        "predict_us_per_access",
        compute_ns / requests.max(1.0) / 1e3,
    );
}

/// Checks every served answer against `expect(window)`, computed once
/// per distinct window, and counts operations and failures.
fn check_answers(
    report: &mut Report,
    runs: &[&ClientRun],
    pool_len: usize,
    mut expect: impl FnMut(usize) -> Candidates,
) {
    let mut expected: Vec<Option<Candidates>> = vec![None; pool_len];
    for run in runs {
        for d in &run.done {
            let ok = match d {
                Done::Served(w, Ok(answer)) => {
                    let want = expected[*w].get_or_insert_with(|| expect(*w));
                    same(answer, want)
                }
                Done::Published(Ok(_)) => true,
                Done::Served(_, Err(e)) | Done::Published(Err(e)) => {
                    eprintln!("operation failed: {e}");
                    false
                }
            };
            report.count(1, u64::from(!ok));
        }
    }
}

/// Mean µs of direct single-row f32 fast-path calls on `windows`.
fn direct_f32_us(
    model: &mut VoyagerModel,
    tracer: &mut Tracer,
    check: SpanId,
    windows: &[InferenceRequest],
) -> f64 {
    let times: Vec<f64> = windows
        .iter()
        .map(|w| {
            let row = single_row(w);
            let t0 = Instant::now();
            tracer.time("core.fastpath", check, 0, || {
                std::hint::black_box(model.predict_fast(&row, DEGREE))
            });
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    mean(&times)
}

/// The phases of a run: an unmeasured warm-up (`None`), then the
/// measured phases, each flagged whether it is traced.
fn plan(seconds: f64, trace: bool) -> Vec<(f64, Option<bool>)> {
    std::iter::once((WARMUP_S, None))
        .chain(
            phases(seconds, trace)
                .into_iter()
                .map(|(s, t)| (s, Some(t))),
        )
        .collect()
}

/// Collects phase results: the warm-up's runs are checked but not
/// measured; every traced phase's spans go into `tracer`.
fn collect(
    tracer: &mut Tracer,
    measured: &mut Vec<(bool, Vec<ClientRun>)>,
    warm: &mut Vec<ClientRun>,
    traced: Option<bool>,
    out: Vec<(ClientRun, Tracer)>,
) {
    let mut runs = Vec::new();
    for (run, t) in out {
        tracer.absorb(t);
        runs.push(run);
    }
    match traced {
        Some(traced) => measured.push((traced, runs)),
        None => warm.extend(runs),
    }
}

/// `serve_int8`: paced clients at [`INT8_RATE`] into one int8
/// microbatch server; every window is novel. A traced run also runs
/// the paper pipeline after the measured window, for its per-layer
/// metrics.
pub fn serve_int8(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(trace);
    let spec = canonical_spec(seed);
    let (service, setup_s) = repeat_setup(
        &mut tracer,
        |t, parent| {
            let model = t.time("core.model", parent, 0, || spec.instantiate());
            t.time("runtime.serve", parent, 0, || {
                ServiceConfig::new(DEGREE)
                    .mode(PredictMode::FastInt8)
                    .build(model)
                    .expect("int8 serving needs no tables")
            })
        },
        drop,
    );
    report.set("setup_s", setup_s);

    // One novel window per scheduled request, drawn up front.
    let total_s = WARMUP_S + seconds;
    let per_client = (total_s * INT8_RATE / CLIENTS as f64).round() as usize + CLIENTS;
    let mut gen = rng(seed, 1);
    let pool: Vec<Vec<InferenceRequest>> = (0..CLIENTS)
        .map(|_| {
            (0..per_client)
                .map(|_| random_window(&mut gen, WorkloadId(0)))
                .collect()
        })
        .collect();

    let (server, client) = MicrobatchServer::spawn(service, microbatch_config());
    let mut measured = Vec::new();
    let mut warm = Vec::new();
    let mut next = [0usize; CLIENTS];
    let mut window_start = None;
    for (phase, (secs, traced)) in plan(seconds, trace).into_iter().enumerate() {
        if traced.is_some() && window_start.is_none() {
            window_start = Some(Counters::now());
        }
        let ops: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = client.clone();
                let pool = &pool[c];
                let base = next[c];
                move |i: usize, t: &mut Tracer, op: SpanId| {
                    let w = (base + i).min(pool.len() - 1);
                    let request = pool[w].clone();
                    let answer = t.time("runtime.microbatch", op, 0, || client.infer(request));
                    Done::Served(w, answer.ok_or_else(|| "server disconnected".to_string()))
                }
            })
            .collect();
        let out = paced_phase(INT8_RATE, secs, traced == Some(true), phase as u64, ops);
        for (c, (run, _)) in out.iter().enumerate() {
            next[c] += run.done.len();
        }
        collect(&mut tracer, &mut measured, &mut warm, traced, out);
    }
    let window = Counters::now().since(window_start.unwrap_or_default());
    drop(client);
    let stats = server.join();
    record_peak_rss(&mut report);
    window_metrics(&mut report, &measured);
    microbatch_metrics(&mut report, &[&stats]);

    // Check every answer against a direct single-row int8 call on an
    // identical model.
    let check = tracer.open("bench.check", Instant::now(), None, 0);
    let mut model = reference_model(&mut report, &mut tracer, check, seed);
    let mut int8_us = Vec::new();
    let measured_ops: f64 = measured
        .iter()
        .flat_map(|(_, runs)| runs.iter().map(|r| r.done.len() as f64))
        .sum();
    for c in 0..CLIENTS {
        let runs: Vec<&ClientRun> = warm
            .iter()
            .skip(c)
            .step_by(CLIENTS)
            .chain(measured.iter().map(|(_, runs)| &runs[c]))
            .collect();
        check_answers(&mut report, &runs, pool[c].len(), |w| {
            direct_int8(&mut model, &mut tracer, check, &pool[c][w], &mut int8_us)
        });
    }
    // Batched scoring through the same service API: 64-row
    // `forward_batch` calls over served windows, every row checked
    // against its single-row answer.
    let mut service = ServiceConfig::new(DEGREE)
        .mode(PredictMode::FastInt8)
        .build(canonical_spec(seed).instantiate())
        .expect("int8 serving needs no tables");
    let mut call_us = Vec::new();
    for batch in pool[0].chunks_exact(BATCH_ROWS).take(BATCH_CALLS) {
        let t0 = Instant::now();
        let out = tracer.time("runtime.serve", check, 0, || service.forward_batch(batch));
        call_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let bad = batch
            .iter()
            .zip(&out)
            .filter(|(r, answer)| {
                !same(
                    answer,
                    &direct_int8(&mut model, &mut tracer, check, r, &mut int8_us),
                )
            })
            .count();
        report.count(1, u64::from(bad > 0 || out.len() != batch.len()));
    }
    report.set("serve.forward_batch_us", mean(&call_us));
    report.set("fastpath.predict_int8_row_us", mean(&int8_us));
    if trace {
        let n = DIRECT_F32_ROWS.min(pool[0].len());
        report.set(
            "fastpath.predict_fast_row_us",
            direct_f32_us(&mut model, &mut tracer, check, &pool[0][..n]),
        );
    }
    record_kernels(&mut report, window, measured_ops, &mut model, &pool[0][0]);
    if trace {
        crate::paper::paper_pipeline(&mut report, &mut tracer, check, seed);
    }
    tracer.close(check, Instant::now());
    report.tracer = Some(tracer);
    report
}

/// What a table shard was published from, kept for publishing again
/// and for checking answers.
struct Shard {
    spec: ModelSpec,
    model: VoyagerModel,
    tables: DistilledTables,
}

/// `serve_table`: paced clients at [`TABLE_RATE`] into a two-shard
/// table fleet, one client per shard; client 0 publishes once a
/// second.
pub fn serve_table(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(trace);
    let total_s = WARMUP_S + seconds;
    let per_client = (total_s * TABLE_RATE / CLIENTS as f64).round() as usize + CLIENTS;

    // Each shard's stream: a pool of corpus windows followed by novel
    // ones, and a request sequence that repeats a corpus window with
    // probability REPEAT_SHARE and otherwise sends a novel one.
    let mut pools = Vec::new();
    let mut sequences = Vec::new();
    for s in 0..CLIENTS {
        let mut gen = rng(seed, 10 + s as u64);
        let w = WorkloadId(s as u32);
        let mut pool: Vec<InferenceRequest> =
            (0..CORPUS).map(|_| random_window(&mut gen, w)).collect();
        let seq: Vec<usize> = (0..per_client)
            .map(|_| {
                if gen.gen::<f64>() < REPEAT_SHARE {
                    gen.gen_range(0..CORPUS)
                } else {
                    pool.push(random_window(&mut gen, w));
                    pool.len() - 1
                }
            })
            .collect();
        pools.push(pool);
        sequences.push(seq);
    }

    let specs: Vec<ShardSpec> = (0..CLIENTS)
        .map(|s| ShardSpec::new(WorkloadId(s as u32), DEGREE, PredictMode::Table))
        .collect();
    let fleet_cfg = FleetConfig {
        microbatch: microbatch_config(),
        ..FleetConfig::default()
    };
    let mut distill_s = Vec::new();
    let ((shards, registry, server, client), setup_s) = repeat_setup(
        &mut tracer,
        |t, parent| {
            let registry = Arc::new(ModelRegistry::new());
            let mut distill_total = 0.0;
            let shards: Vec<Shard> = (0..CLIENTS)
                .map(|s| {
                    let spec = canonical_spec(seed.wrapping_add(s as u64));
                    let mut model = t.time("core.model", parent, 0, || spec.instantiate());
                    let pool = &pools[s];
                    let corpus = SeqBatch {
                        pc: pool[..CORPUS].iter().map(|r| r.pc.clone()).collect(),
                        page: pool[..CORPUS].iter().map(|r| r.page.clone()).collect(),
                        offset: pool[..CORPUS].iter().map(|r| r.offset.clone()).collect(),
                    };
                    let t0 = Instant::now();
                    let (tables, _) = t.time("distill", parent, 0, || {
                        distill(&mut model, &corpus, &TableConfig::for_budget(TABLE_BUDGET))
                    });
                    distill_total += t0.elapsed().as_secs_f64();
                    t.time("runtime.registry", parent, 0, || {
                        registry.publish(WorkloadId(s as u32), &spec, &model, Some(tables.clone()))
                    })
                    .expect("in-memory publish");
                    Shard {
                        spec,
                        model,
                        tables,
                    }
                })
                .collect();
            distill_s.push(distill_total);
            let (server, client) = t
                .time("runtime.fleet", parent, 0, || {
                    FleetServer::spawn(&registry, &specs, &fleet_cfg)
                })
                .expect("fleet spawn");
            (shards, registry, server, client)
        },
        |(_, _, server, client)| {
            drop(client);
            server.join();
        },
    );
    report.set("setup_s", setup_s);
    report.set("distill.distill_s", common::median(&distill_s));

    let mut measured = Vec::new();
    let mut warm = Vec::new();
    let mut next = [0usize; CLIENTS];
    let mut window_start = None;
    let per_second = (TABLE_RATE / CLIENTS as f64).round() as usize;
    for (phase, (secs, traced)) in plan(seconds, trace).into_iter().enumerate() {
        if traced.is_some() && window_start.is_none() {
            window_start = Some(Counters::now());
        }
        let ops: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = client.clone();
                let registry = &registry;
                let shard = &shards[c];
                let pool = &pools[c];
                let seq = &sequences[c];
                let base = next[c];
                // Tables for this phase's publishes are cloned before it
                // starts, so a publish times only the registry.
                let publishes = if c == 0 && traced.is_some() {
                    secs.round() as usize
                } else {
                    0
                };
                let mut spare: Vec<DistilledTables> =
                    (0..publishes).map(|_| shard.tables.clone()).collect();
                move |i: usize, t: &mut Tracer, op: SpanId| {
                    if i % per_second == per_second / 2 {
                        if let Some(tables) = spare.pop() {
                            let t0 = Instant::now();
                            let out = t.time("runtime.registry", op, 0, || {
                                registry.publish(
                                    WorkloadId(c as u32),
                                    &shard.spec,
                                    &shard.model,
                                    Some(tables),
                                )
                            });
                            return Done::Published(
                                out.map(|_| t0.elapsed()).map_err(|e| e.to_string()),
                            );
                        }
                    }
                    let w = seq[(base + i).min(seq.len() - 1)];
                    let request = pool[w].clone();
                    let answer = t.time("runtime.fleet", op, 0, || client.infer(request));
                    Done::Served(w, answer.map_err(|e| e.to_string()))
                }
            })
            .collect();
        let out = paced_phase(TABLE_RATE, secs, traced == Some(true), phase as u64, ops);
        for (c, (run, _)) in out.iter().enumerate() {
            next[c] += run.done.len();
        }
        collect(&mut tracer, &mut measured, &mut warm, traced, out);
    }
    let window = Counters::now().since(window_start.unwrap_or_default());
    drop(client);
    let stats = server.join();
    record_peak_rss(&mut report);
    window_metrics(&mut report, &measured);
    let servers: Vec<&ServerStats> = stats.shards.iter().map(|s| &s.server).collect();
    microbatch_metrics(&mut report, &servers);

    let publish_times: Vec<f64> = measured
        .iter()
        .flat_map(|(_, runs)| runs.iter().flat_map(|r| r.done.iter()))
        .filter_map(|d| match d {
            Done::Published(Ok(t)) => Some(t.as_secs_f64() * 1e3),
            _ => None,
        })
        .collect();
    let swaps: u64 = stats.shards.iter().map(|s| s.swaps).sum();
    let swap_failures: u64 = stats.shards.iter().map(|s| s.swap_failures).sum();
    report.set("fleet.admitted", stats.admitted() as f64);
    report.set("fleet.shed", stats.shed() as f64);
    report.set("fleet.swaps", swaps as f64);
    report.set("registry.publish_ms", mean(&publish_times));
    if stats.shed() != 0 {
        report.problem(format!("{} requests were shed", stats.shed()));
    }
    if swaps != publish_times.len() as u64 || swap_failures != 0 {
        report.problem(format!(
            "{swaps} swaps and {swap_failures} swap failures for {} publishes",
            publish_times.len()
        ));
    }
    let lookups = window.table_hits + window.table_misses;
    report.set("distill.lookups", lookups as f64);
    report.set(
        "distill.hit_ratio",
        window.table_hits as f64 / lookups.max(1) as f64,
    );
    report.set("distill.fallback_rows", window.fallback_rows as f64);

    // Hits must equal the tables' own answer, misses a direct
    // single-row int8 call on an identical model.
    let check = tracer.open("bench.check", Instant::now(), None, 0);
    let mut int8_us = Vec::new();
    let requests: f64 = measured
        .iter()
        .flat_map(|(_, runs)| runs.iter().map(|r| r.request_samples().count() as f64))
        .sum();
    let mut models = Vec::new();
    for (c, (shard, pool)) in shards.iter().zip(&pools).enumerate() {
        let mut model = reference_model(&mut report, &mut tracer, check, shard.spec.cfg.seed);
        let runs: Vec<&ClientRun> = warm
            .iter()
            .skip(c)
            .step_by(CLIENTS)
            .chain(measured.iter().map(|(_, runs)| &runs[c]))
            .collect();
        check_answers(&mut report, &runs, pool.len(), |w| {
            let r = &pool[w];
            let pc = r.pc.last().copied().unwrap_or_default();
            match shard.tables.predict_quiet(&r.page, pc, DEGREE) {
                Some(hit) => hit,
                None => direct_int8(&mut model, &mut tracer, check, r, &mut int8_us),
            }
        });
        models.push(model);
    }
    report.set("fastpath.predict_int8_row_us", mean(&int8_us));
    let (model, pool) = (&mut models[0], &pools[0]);
    if trace {
        let n = DIRECT_F32_ROWS.min(pool.len());
        report.set(
            "fastpath.predict_fast_row_us",
            direct_f32_us(model, &mut tracer, check, &pool[..n]),
        );
        let times: Vec<f64> = pool[..CORPUS]
            .iter()
            .map(|r| {
                let pc = r.pc.last().copied().unwrap_or_default();
                let t0 = Instant::now();
                tracer.time("distill", check, 0, || {
                    std::hint::black_box(shards[0].tables.predict(&r.page, pc, DEGREE))
                });
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        report.set("distill.predict_us", mean(&times));
    }
    record_kernels(&mut report, window, requests, model, &pool[0]);
    tracer.close(check, Instant::now());
    report.tracer = Some(tracer);
    report
}
