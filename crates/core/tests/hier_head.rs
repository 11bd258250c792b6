//! End-to-end tests of the hierarchical page output head (Section 5.5)
//! wired through training and both inference paths. The bitwise match
//! of the f32 fast path with the training graph is a unit test in
//! `fastpath.rs`, where the reference forward is reachable.
//!
//! The page vocabulary is 21 on a 5x5 grid throughout, so the last
//! cluster carries 4 padding slots — every test exercises the padding
//! mask — and `hier_fan = 4 < 5` clusters, so the shortlist actually
//! prunes.

use voyager::{hier_shape, OutputHead, SeqBatch, VoyagerConfig, VoyagerModel};
use voyager_nn::GradEntry;
use voyager_tensor::gradcheck::assert_grads_close;
use voyager_tensor::Tensor2;

const PAGE_VOCAB: usize = 21;

fn hier_cfg() -> VoyagerConfig {
    VoyagerConfig::test().with_output_head(OutputHead::Hier)
}

fn batch(b: usize, l: usize) -> SeqBatch {
    SeqBatch {
        pc: (0..b).map(|i| vec![i % 5; l]).collect(),
        page: (0..b).map(|i| vec![i % 3; l]).collect(),
        offset: (0..b).map(|i| vec![(i * 7) % 64; l]).collect(),
    }
}

/// Per-row sparse page positives plus a matching offset multi-hot.
fn targets(b: usize) -> (Vec<Vec<usize>>, Tensor2) {
    let positives: Vec<Vec<usize>> = (0..b)
        .map(|i| {
            let mut p = vec![(i * 5) % PAGE_VOCAB];
            if i % 2 == 0 {
                p.push((i * 11 + 3) % PAGE_VOCAB);
            }
            p.sort_unstable();
            p.dedup();
            p
        })
        .collect();
    let mut ot = Tensor2::zeros(b, 64);
    for i in 0..b {
        ot.set(i, (i * 11) % 64, 1.0);
    }
    (positives, ot)
}

fn train_some(m: &mut VoyagerModel, b: usize, steps: usize) {
    let bat = batch(b, m.config().seq_len);
    let (pos, ot) = targets(b);
    for _ in 0..steps {
        m.train_multi_sparse(&bat, &pos, &ot);
    }
}

#[test]
fn grid_shape_policy_is_square_and_capped() {
    assert_eq!(hier_shape(PAGE_VOCAB), (5, 5));
    assert_eq!(hier_shape(4096), (64, 64));
    // Past 256^2 the branch stays capped and clusters absorb growth.
    assert_eq!(hier_shape(409_600), (1600, 256));
    let (c, b) = hier_shape(1);
    assert_eq!((c, b), (1, 1));
}

#[test]
fn hier_train_multi_sparse_matches_dense_targets() {
    // Sparse positive lists and the equivalent dense multi-hot must
    // drive the hierarchical loss identically (same loss, same
    // parameters after stepping).
    let cfg = hier_cfg();
    let mut sparse = VoyagerModel::new(&cfg, 16, PAGE_VOCAB, 64);
    let mut dense = VoyagerModel::new(&cfg, 16, PAGE_VOCAB, 64);
    let bat = batch(5, cfg.seq_len);
    let (pos, ot) = targets(5);
    let mut pt = Tensor2::zeros(5, PAGE_VOCAB);
    for (row, classes) in pos.iter().enumerate() {
        for &c in classes {
            pt.set(row, c, 1.0);
        }
    }
    for _ in 0..3 {
        let ls = sparse.train_multi_sparse(&bat, &pos, &ot);
        let ld = dense.train_multi(&bat, &pt, &ot);
        assert_eq!(ls, ld);
    }
    for ((_, _, va), (_, _, vb)) in sparse.store().iter().zip(dense.store().iter()) {
        assert_eq!(va.as_slice(), vb.as_slice());
    }
}

/// Numeric gradient check of the hierarchical head *inside* the full
/// model: central finite differences of the sparse multi-label loss
/// with respect to every `page_head.*` parameter must match the
/// analytic gradients `grad_multi_sparse` collects.
fn check_hier_head_grads(cfg: &VoyagerConfig) {
    let mut m = VoyagerModel::new(cfg, 8, PAGE_VOCAB, 64);
    let bat = batch(3, cfg.seq_len);
    let (pos, ot) = targets(3);

    let (_, grads) = m.grad_multi_sparse(&bat, &pos, &ot);
    let head_ids: Vec<_> = m
        .store()
        .iter()
        .filter(|(_, name, _)| name.starts_with("page_head"))
        .map(|(id, _, _)| id)
        .collect();
    assert_eq!(head_ids.len(), 3, "cluster weight, cluster bias, leaves");

    for id in head_ids {
        let analytic = grads
            .iter()
            .find(|(gid, _)| *gid == id)
            .map(|(_, e)| match e {
                GradEntry::Dense(g) => g.clone(),
                GradEntry::Sparse { rows, grad } => {
                    // Scatter gathered leaf-row gradients back to the
                    // table's shape, coalescing duplicates.
                    let mut full =
                        Tensor2::zeros(m.store().value(id).rows(), m.store().value(id).cols());
                    for (i, &r) in rows.iter().enumerate() {
                        for (dst, &g) in full.row_mut(r).iter_mut().zip(grad.row(i)) {
                            *dst += g;
                        }
                    }
                    full
                }
            })
            .expect("head parameter missing from grad set");

        let (rows, cols) = m.store().value(id).shape();
        let mut numeric = Tensor2::zeros(rows, cols);
        let eps = 5e-3;
        for r in 0..rows {
            for c in 0..cols {
                let orig = m.store().value(id).get(r, c);
                m.store_mut().value_mut(id).set(r, c, orig + eps);
                let plus = m.grad_multi_sparse(&bat, &pos, &ot).0;
                m.store_mut().value_mut(id).set(r, c, orig - eps);
                let minus = m.grad_multi_sparse(&bat, &pos, &ot).0;
                m.store_mut().value_mut(id).set(r, c, orig);
                numeric.set(r, c, (plus - minus) / (2.0 * eps));
            }
        }
        assert_grads_close(&analytic, &numeric, 3e-2);
    }
}

#[test]
fn hier_head_gradcheck_in_full_model() {
    check_hier_head_grads(&hier_cfg());
}

#[test]
fn hier_head_gradcheck_without_attention() {
    check_hier_head_grads(&hier_cfg().without_attention());
}

#[test]
fn dense_and_hier_top1_agree_after_training() {
    // Both heads trained on the same stream must converge to the same
    // top-1 mapping (>= 99% agreement over 128 rows) — the paper's
    // claim that the hierarchy trades compute, not accuracy.
    let dense_cfg = VoyagerConfig::test();
    let hier_cfg = hier_cfg();
    let mut d = VoyagerModel::new(&dense_cfg, 16, PAGE_VOCAB, 64);
    let mut h = VoyagerModel::new(&hier_cfg, 16, PAGE_VOCAB, 64);
    let patterns = SeqBatch {
        pc: vec![vec![1; 4], vec![2; 4], vec![3; 4], vec![4; 4]],
        page: vec![vec![3; 4], vec![5; 4], vec![7; 4], vec![1; 4]],
        offset: vec![vec![10; 4], vec![20; 4], vec![30; 4], vec![40; 4]],
    };
    let pos: Vec<Vec<usize>> = vec![vec![6], vec![20], vec![2], vec![14]];
    let mut ot = Tensor2::zeros(4, 64);
    for (i, &o) in [30usize, 40, 50, 60].iter().enumerate() {
        ot.set(i, o, 1.0);
    }
    for _ in 0..500 {
        d.train_multi_sparse(&patterns, &pos, &ot);
        h.train_multi_sparse(&patterns, &pos, &ot);
    }
    // Convergence check first: each model must have learned the
    // mapping on its own, so the agreement below measures the heads,
    // not training luck.
    for (name, preds) in [
        ("dense", d.predict_fast(&patterns, 1)),
        ("hier", h.predict_fast(&patterns, 1)),
    ] {
        for (i, row) in preds.iter().enumerate() {
            assert_eq!(
                (row[0].0 as usize, row[0].1 as usize),
                (pos[i][0], [30usize, 40, 50, 60][i]),
                "{name} did not converge on pattern {i}"
            );
        }
    }
    let rows = 128;
    let eval = SeqBatch {
        pc: (0..rows).map(|i| patterns.pc[i % 4].clone()).collect(),
        page: (0..rows).map(|i| patterns.page[i % 4].clone()).collect(),
        offset: (0..rows).map(|i| patterns.offset[i % 4].clone()).collect(),
    };
    let dp = d.predict_fast(&eval, 1);
    let hp = h.predict_fast(&eval, 1);
    let agree = dp
        .iter()
        .zip(&hp)
        .filter(|(a, b)| (a[0].0, a[0].1) == (b[0].0, b[0].1))
        .count();
    let ratio = agree as f64 / rows as f64;
    assert!(
        ratio >= 0.99,
        "dense/hier top-1 agreement {ratio} below 99%"
    );
}

#[test]
fn hier_int8_top1_agreement_on_trained_model() {
    // PR 5's int8 contract, now through the quantized hierarchical
    // head: >= 99% top-1 (page, offset) agreement with the f32 fast
    // path on a trained model.
    let cfg = hier_cfg();
    let mut m = VoyagerModel::new(&cfg, 16, PAGE_VOCAB, 64);
    let patterns = SeqBatch {
        pc: vec![vec![1; 4], vec![2; 4], vec![3; 4], vec![4; 4]],
        page: vec![vec![3; 4], vec![5; 4], vec![7; 4], vec![1; 4]],
        offset: vec![vec![10; 4], vec![20; 4], vec![30; 4], vec![40; 4]],
    };
    let pages: [usize; 4] = [6, 20, 2, 14];
    let offsets: [usize; 4] = [30, 40, 50, 60];
    for _ in 0..200 {
        m.train_single(&patterns, &pages, &offsets);
    }
    let check = m.predict_fast(&patterns, 1);
    for (i, row) in check.iter().enumerate() {
        assert_eq!(
            (row[0].0 as usize, row[0].1 as usize),
            (pages[i], offsets[i])
        );
    }
    let rows = 128;
    let eval = SeqBatch {
        pc: (0..rows).map(|i| patterns.pc[i % 4].clone()).collect(),
        page: (0..rows).map(|i| patterns.page[i % 4].clone()).collect(),
        offset: (0..rows).map(|i| patterns.offset[i % 4].clone()).collect(),
    };
    m.prepare_int8();
    let f32_top = m.predict_fast(&eval, 1);
    let int8_top = m.predict_int8(&eval, 1);
    let agree = f32_top
        .iter()
        .zip(&int8_top)
        .filter(|(a, b)| (a[0].0, a[0].1) == (b[0].0, b[0].1))
        .count();
    let ratio = agree as f64 / rows as f64;
    assert!(ratio >= 0.99, "hier int8 top-1 agreement {ratio} below 99%");
}

#[test]
fn hier_predict_soft_agrees_with_fast_path_argmax() {
    let cfg = hier_cfg();
    let mut m = VoyagerModel::new(&cfg, 16, PAGE_VOCAB, 64);
    train_some(&mut m, 6, 5);
    let bat = batch(5, cfg.seq_len);
    let hard = m.predict_fast(&bat, 1);
    let soft = m.predict_soft(&bat, 4, 4);
    assert_eq!(soft.len(), 5);
    for (row, labels) in soft.iter().enumerate() {
        assert_eq!(labels.pages.len(), 4);
        assert_eq!(labels.offsets.len(), 4);
        assert_eq!(labels.pages[0].0, hard[row][0].0);
        assert_eq!(labels.offsets[0].0, hard[row][0].1);
        for w in labels.pages.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        let mass: f32 = labels.pages.iter().map(|&(_, p)| p).sum();
        assert!(mass > 0.0 && mass <= 1.0 + 1e-5);
        for &(p, _) in &labels.pages {
            assert!((p as usize) < PAGE_VOCAB, "padding class leaked: {p}");
        }
    }
}

#[test]
fn hier_candidates_never_include_padding_classes() {
    let cfg = hier_cfg();
    let mut m = VoyagerModel::new(&cfg, 16, PAGE_VOCAB, 64);
    // Untrained weights: padding classes would win often if the mask
    // were missing, since their logits are arbitrary.
    for k in [1, 4, 8] {
        for preds in m.predict_fast(&batch(8, cfg.seq_len), k) {
            for &(p, o, s) in &preds {
                assert!((p as usize) < PAGE_VOCAB, "padding class {p} predicted");
                assert!((o as usize) < 64);
                assert!((0.0..=1.0).contains(&s));
            }
        }
    }
}

#[test]
fn hier_arena_stays_flat_in_steady_state() {
    let cfg = hier_cfg();
    let mut m = VoyagerModel::new(&cfg, 16, PAGE_VOCAB, 64);
    let bat = batch(4, cfg.seq_len);
    let first = m.predict_fast(&bat, 2);
    let stats = m.fast_path_arena_stats();
    for _ in 0..10 {
        assert_eq!(m.predict_fast(&bat, 2), first);
    }
    assert_eq!(
        m.fast_path_arena_stats(),
        stats,
        "steady-state hier inference grew the arena"
    );
}
