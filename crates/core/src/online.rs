//! The paper's online training protocol (Section 5.1).
//!
//! Hardware prefetchers cannot train offline, so Voyager is trained
//! *online*: the model trains on epoch `k` of the access stream and
//! makes predictions for epoch `k + 1`; no inference happens in the
//! first epoch. [`OnlineRun::execute`] implements this loop end to end:
//! vocabulary profiling, labeling, epoch-wise predict-then-train, and
//! prediction resolution back to cache-line addresses.

use std::time::Instant;

use voyager_tensor::Tensor2;
use voyager_trace::labels::{compute_labels, LabelSet};
use voyager_trace::vocab::{TokenizedAccess, Vocabulary};
use voyager_trace::Trace;

use crate::{LabelMode, SeqBatch, VoyagerConfig, VoyagerModel};

/// Result of one online run over a stream: per-access predictions plus
/// training diagnostics.
#[derive(Debug)]
pub struct OnlineRun {
    /// Predicted cache lines per stream index (the prediction made *at*
    /// access `t` targets the following accesses). Empty in epoch 0 and
    /// for rare-token predictions.
    pub predictions: Vec<Vec<u64>>,
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Total scalar parameters of the trained model.
    pub model_params: usize,
    /// Dense f32 model size in bytes.
    pub model_bytes: usize,
    /// Wall-clock seconds spent in training steps.
    pub train_seconds: f64,
    /// Wall-clock seconds spent in inference steps.
    pub predict_seconds: f64,
    /// Number of accesses for which inference ran.
    pub predicted_accesses: usize,
}

impl OnlineRun {
    /// Runs the full online protocol for Voyager over an (LLC) access
    /// stream.
    pub fn execute(stream: &Trace, cfg: &VoyagerConfig) -> OnlineRun {
        cfg.validate();
        let vocab = Vocabulary::build(stream, &cfg.vocab);
        let tokens = vocab.tokenize(stream);
        let labels = compute_labels(stream);
        let mut model = VoyagerModel::new(
            cfg,
            vocab.pc_vocab_len(),
            vocab.page_vocab_len(),
            vocab.offset_vocab_len(),
        );
        let mut run = OnlineRun {
            predictions: vec![Vec::new(); stream.len()],
            epoch_losses: Vec::new(),
            model_params: model.model_size().params,
            model_bytes: model.model_size().dense_f32,
            train_seconds: 0.0,
            predict_seconds: 0.0,
            predicted_accesses: 0,
        };
        let n = stream.len();
        if n == 0 {
            return run;
        }
        // Epochs are capped at half the stream so the online protocol
        // always gets at least one train-then-predict split, even on
        // streams shorter than the configured epoch.
        let epoch_len = cfg.epoch_accesses.min(n / 2).max(cfg.seq_len * 2);
        let mut prev_loss = f32::INFINITY;
        let mut epoch_start = 0usize;
        let mut epoch_idx = 0usize;
        while epoch_start < n {
            let epoch_end = (epoch_start + epoch_len).min(n);
            // Predict this epoch with the model trained on previous
            // epochs (no inference in epoch 0).
            if epoch_idx > 0 {
                let t0 = Instant::now();
                predict_epoch(
                    &mut model,
                    cfg,
                    &tokens,
                    stream,
                    &vocab,
                    epoch_start..epoch_end,
                    &mut run.predictions,
                );
                run.predict_seconds += t0.elapsed().as_secs_f64();
                run.predicted_accesses += epoch_end - epoch_start;
            }
            // Train on this epoch (for use in the next one).
            let t0 = Instant::now();
            let loss = train_epoch(
                &mut model,
                cfg,
                &tokens,
                &labels,
                &vocab,
                epoch_start..epoch_end,
            );
            run.train_seconds += t0.elapsed().as_secs_f64();
            run.epoch_losses.push(loss);
            // Table 1: decay the learning rate (ratio 2) when the loss
            // plateaus.
            if loss > prev_loss * 0.99 {
                model.decay_lr();
            }
            prev_loss = loss;
            epoch_start = epoch_end;
            epoch_idx += 1;
        }
        run
    }

    /// The profile-driven protocol of Section 5.5 ("Profile-Driven
    /// Training with Online Inference"): the model is trained offline
    /// during a profiling pass over the stream, then performs inference
    /// over the whole stream. This is the apples-to-apples counterpart
    /// of the paper's *idealized* table-based baselines, which likewise
    /// memorize the full stream with unbounded, zero-cost state.
    pub fn execute_profiled(stream: &Trace, cfg: &VoyagerConfig) -> OnlineRun {
        cfg.validate();
        let vocab = Vocabulary::build(stream, &cfg.vocab);
        let tokens = vocab.tokenize(stream);
        let labels = compute_labels(stream);
        let mut model = VoyagerModel::new(
            cfg,
            vocab.pc_vocab_len(),
            vocab.page_vocab_len(),
            vocab.offset_vocab_len(),
        );
        let mut run = OnlineRun {
            predictions: vec![Vec::new(); stream.len()],
            epoch_losses: Vec::new(),
            model_params: model.model_size().params,
            model_bytes: model.model_size().dense_f32,
            train_seconds: 0.0,
            predict_seconds: 0.0,
            predicted_accesses: 0,
        };
        let n = stream.len();
        if n == 0 {
            return run;
        }
        let mut prev_loss = f32::INFINITY;
        let mut pass_cfg = *cfg;
        pass_cfg.train_passes = 1;
        for _ in 0..cfg.train_passes.max(1) {
            let t0 = Instant::now();
            let loss = train_epoch(&mut model, &pass_cfg, &tokens, &labels, &vocab, 0..n);
            run.train_seconds += t0.elapsed().as_secs_f64();
            run.epoch_losses.push(loss);
            if loss > prev_loss * 0.99 {
                model.decay_lr();
            }
            prev_loss = loss;
        }
        let t0 = Instant::now();
        predict_epoch(
            &mut model,
            cfg,
            &tokens,
            stream,
            &vocab,
            0..n,
            &mut run.predictions,
        );
        run.predict_seconds += t0.elapsed().as_secs_f64();
        run.predicted_accesses = n;
        run
    }

    /// Unified accuracy/coverage of this run's predictions against the
    /// stream (Section 5.1: a prediction at `t` is correct only when it
    /// contains the next load's line).
    pub fn unified_score(&self, stream: &Trace) -> voyager_sim::UnifiedScore {
        voyager_sim::unified_accuracy_coverage(stream, &self.predictions)
    }

    /// Windowed unified accuracy/coverage: a prediction counts when it
    /// is used within the next `window` accesses (the experiments use
    /// 10, the paper's co-occurrence window; see
    /// [`voyager_sim::unified_accuracy_coverage_windowed`]).
    pub fn unified_score_windowed(
        &self,
        stream: &Trace,
        window: usize,
    ) -> voyager_sim::UnifiedScore {
        voyager_sim::unified_accuracy_coverage_windowed(stream, &self.predictions, window)
    }

    /// Mean inference latency in nanoseconds per predicted access
    /// (Section 5.4 reports 18,000 ns for the paper's TensorFlow
    /// implementation).
    pub fn prediction_latency_ns(&self) -> f64 {
        if self.predicted_accesses == 0 {
            0.0
        } else {
            self.predict_seconds * 1e9 / self.predicted_accesses as f64
        }
    }
}

fn make_batch(tokens: &[TokenizedAccess], indices: &[usize], seq_len: usize) -> SeqBatch {
    let mut batch = SeqBatch::default();
    for &t in indices {
        let window = &tokens[t + 1 - seq_len..=t];
        batch
            .pc
            .push(window.iter().map(|a| a.pc as usize).collect());
        batch
            .page
            .push(window.iter().map(|a| a.page as usize).collect());
        batch
            .offset
            .push(window.iter().map(|a| a.offset as usize).collect());
    }
    batch
}

fn predict_epoch(
    model: &mut VoyagerModel,
    cfg: &VoyagerConfig,
    tokens: &[TokenizedAccess],
    stream: &Trace,
    vocab: &Vocabulary,
    range: std::ops::Range<usize>,
    predictions: &mut [Vec<u64>],
) {
    let indices: Vec<usize> = range.filter(|&t| t + 1 >= cfg.seq_len).collect();
    for chunk in indices.chunks(cfg.batch_size) {
        let batch = make_batch(tokens, chunk, cfg.seq_len);
        let preds = model.predict_fast(&batch, cfg.degree);
        for (&t, pairs) in chunk.iter().zip(preds) {
            let mut lines: Vec<u64> = Vec::with_capacity(pairs.len());
            for (p, o, _) in pairs {
                if let Some(line) = vocab.resolve_prediction(&stream[t], p, o) {
                    if !lines.contains(&line) {
                        lines.push(line);
                    }
                }
            }
            predictions[t] = lines;
        }
    }
}

fn train_epoch(
    model: &mut VoyagerModel,
    cfg: &VoyagerConfig,
    tokens: &[TokenizedAccess],
    labels: &[LabelSet],
    vocab: &Vocabulary,
    range: std::ops::Range<usize>,
) -> f32 {
    let rare = vocab.rare_page_token();
    // A sample is trainable when its history window exists and at least
    // one candidate label tokenizes to a non-rare page.
    let usable: Vec<usize> = range
        .filter(|&t| t + 1 >= cfg.seq_len)
        .filter(|&t| match cfg.labels {
            LabelMode::Multi => labels[t]
                .candidates()
                .any(|j| tokens[j as usize].page != rare),
            LabelMode::Single(scheme) => labels[t]
                .get(scheme)
                .is_some_and(|j| tokens[j as usize].page != rare),
        })
        .collect();
    let mut total = 0.0f64;
    let mut batches = 0usize;
    for _pass in 0..cfg.train_passes.max(1) {
        for chunk in usable.chunks(cfg.batch_size) {
            let batch = make_batch(tokens, chunk, cfg.seq_len);
            let loss = match cfg.labels {
                LabelMode::Multi => {
                    let mut pt = Tensor2::zeros(chunk.len(), vocab.page_vocab_len());
                    let mut ot = Tensor2::zeros(chunk.len(), vocab.offset_vocab_len());
                    for (row, &t) in chunk.iter().enumerate() {
                        for j in labels[t].candidates() {
                            let tok = tokens[j as usize];
                            if tok.page != rare {
                                pt.set(row, tok.page as usize, 1.0);
                                ot.set(row, tok.offset as usize, 1.0);
                            }
                        }
                    }
                    model.train_multi(&batch, &pt, &ot)
                }
                LabelMode::Single(scheme) => {
                    let mut pages = Vec::with_capacity(chunk.len());
                    let mut offsets = Vec::with_capacity(chunk.len());
                    for &t in chunk {
                        // `usable` keeps only samples labeled for
                        // `scheme`; a miss would surface as a row-count
                        // mismatch in `train_single`.
                        let Some(j) = labels[t].get(scheme) else {
                            continue;
                        };
                        let j = j as usize;
                        pages.push(tokens[j].page as usize);
                        offsets.push(tokens[j].offset as usize);
                    }
                    model.train_single(&batch, &pages, &offsets)
                }
            };
            total += loss as f64;
            batches += 1;
        }
    }
    if batches == 0 {
        0.0
    } else {
        (total / batches as f64) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voyager_trace::labels::LabelScheme;
    use voyager_trace::MemoryAccess;

    /// A strictly repeating irregular sequence of page/offset pairs —
    /// pure address correlation that delta/stride methods cannot learn.
    ///
    /// A single PC issues every access so that all five labeling
    /// schemes agree on the same "next" access; the strict unified
    /// metric (next-address-only) then measures learning capability
    /// rather than label choice.
    fn repeating_stream(reps: usize) -> Trace {
        let pattern: Vec<u64> = vec![
            5 * 64 + 3,
            90 * 64 + 17,
            13 * 64 + 60,
            77 * 64 + 2,
            41 * 64 + 33,
            30 * 64 + 8,
            120 * 64 + 50,
            66 * 64 + 11,
        ];
        let mut t = Trace::new("repeat");
        for _ in 0..reps {
            for &line in &pattern {
                t.push(MemoryAccess::new(100, line * 64));
            }
        }
        t
    }

    #[test]
    fn learns_repeating_address_correlation() {
        let stream = repeating_stream(400); // 3200 accesses
        let cfg = VoyagerConfig::test();
        let run = OnlineRun::execute(&stream, &cfg);
        let score = run.unified_score(&stream);
        assert!(
            score.value() > 0.5,
            "Voyager failed to learn a repeating pattern: {score}"
        );
        assert!(!run.epoch_losses.is_empty());
        // Losses should drop substantially over epochs.
        let first = run.epoch_losses[0];
        let last = *run.epoch_losses.last().unwrap();
        assert!(last < first, "no learning progress: {first} -> {last}");
    }

    #[test]
    fn epoch_zero_makes_no_predictions() {
        let stream = repeating_stream(200);
        let cfg = VoyagerConfig::test();
        let run = OnlineRun::execute(&stream, &cfg);
        for p in &run.predictions[..cfg.epoch_accesses.min(stream.len())] {
            assert!(p.is_empty(), "prediction in epoch 0");
        }
        assert!(run.predicted_accesses > 0);
        assert!(run.prediction_latency_ns() > 0.0);
    }

    #[test]
    fn single_label_global_mode_runs() {
        let stream = repeating_stream(250);
        let cfg = VoyagerConfig::test().with_labels(LabelMode::Single(LabelScheme::Global));
        let run = OnlineRun::execute(&stream, &cfg);
        let score = run.unified_score(&stream);
        assert!(
            score.value() > 0.5,
            "global single-label should nail a repeating global stream: {score}"
        );
    }

    #[test]
    fn degree_k_produces_up_to_k_lines() {
        let stream = repeating_stream(200);
        let cfg = VoyagerConfig::test().with_degree(3);
        let run = OnlineRun::execute(&stream, &cfg);
        assert!(run.predictions.iter().any(|p| p.len() > 1));
        assert!(run.predictions.iter().all(|p| p.len() <= 3));
    }

    #[test]
    fn empty_stream_is_handled() {
        let run = OnlineRun::execute(&Trace::new("empty"), &VoyagerConfig::test());
        assert!(run.predictions.is_empty());
        assert_eq!(run.unified_score(&Trace::new("empty")).total, 0);
    }
}
