//! Two-level hierarchical softmax (the paper's Section 5.5 estimates it
//! cuts training and inference time 3–4× by shrinking the number of
//! classes evaluated per step).
//!
//! Classes are arranged in a `clusters x branch` grid. The loss
//! evaluates a softmax over clusters plus a softmax over the *target
//! cluster's* branch only — `O(clusters + branch)` instead of `O(V)` —
//! and the per-cluster leaf weights are touched sparsely, like an
//! embedding.

use voyager_tensor::rng::Rng;
use voyager_tensor::{Tensor2, Var};

use crate::{Layer, Linear, ParamId, ParamStore, Session};

/// Additive logit mask applied to padding slots (`-1e30`): large enough
/// that `exp` underflows to exactly 0 in the softmax and `sigmoid`
/// saturates to exactly 0 in the BCE, yet finite so `logit - PAD_MASK`
/// arithmetic never produces NaN.
pub const PAD_MASK: f32 = -1e30;

/// A hierarchical softmax output head over `num_classes` classes.
#[derive(Debug, Clone)]
pub struct HierarchicalSoftmax {
    cluster_head: Linear,
    /// Leaf weights, stored as one `[branch * hidden]` row per cluster:
    /// columns `j * hidden .. (j + 1) * hidden` of row `c` are the
    /// weight vector of class `c * branch + j`. Storing a cluster per
    /// row means the training loss gathers one *contiguous* row per
    /// (sample, positive cluster) pair — a single sparse tape leaf whose
    /// optimizer update streams whole cache lines, instead of `branch`
    /// separate gathers scattering over a `[clusters * branch, hidden]`
    /// table.
    leaf_weights: ParamId,
    hidden: usize,
    branch: usize,
    clusters: usize,
    num_classes: usize,
}

impl HierarchicalSoftmax {
    /// Builds a head mapping `hidden` features to `num_classes` classes
    /// with a roughly square hierarchy (`branch ≈ sqrt(num_classes)`).
    ///
    /// # Panics
    ///
    /// Panics if `num_classes == 0`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        hidden: usize,
        num_classes: usize,
        rng: &mut R,
    ) -> Self {
        assert!(num_classes > 0, "need at least one class");
        let branch = (num_classes as f64).sqrt().ceil() as usize;
        let clusters = num_classes.div_ceil(branch);
        Self::with_shape(store, name, hidden, num_classes, clusters, branch, rng)
    }

    /// Builds a head with an explicit `clusters x branch` grid. The grid
    /// must cover every class (`clusters * branch >= num_classes`) with
    /// no empty trailing cluster (`(clusters - 1) * branch <
    /// num_classes`), so every cluster holds at least one real class and
    /// only the last cluster may contain padding slots.
    ///
    /// # Panics
    ///
    /// Panics if the grid does not satisfy those constraints or
    /// `num_classes == 0`.
    pub fn with_shape<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        hidden: usize,
        num_classes: usize,
        clusters: usize,
        branch: usize,
        rng: &mut R,
    ) -> Self {
        assert!(num_classes > 0, "need at least one class");
        assert!(clusters > 0 && branch > 0, "grid dims must be positive");
        assert!(
            clusters * branch >= num_classes,
            "grid {clusters}x{branch} cannot hold {num_classes} classes"
        );
        assert!(
            (clusters - 1) * branch < num_classes,
            "grid {clusters}x{branch} leaves an empty trailing cluster for {num_classes} classes"
        );
        let cluster_head = Linear::new(store, &format!("{name}.cluster"), hidden, clusters, rng);
        let leaf_weights = store.register(
            format!("{name}.leaves"),
            Tensor2::xavier(clusters, branch * hidden, rng),
        );
        HierarchicalSoftmax {
            cluster_head,
            leaf_weights,
            hidden,
            branch,
            clusters,
            num_classes,
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Branch factor (classes per cluster).
    pub fn branch(&self) -> usize {
        self.branch
    }

    /// Number of clusters.
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// Classes evaluated per training sample (`clusters + branch`,
    /// versus `num_classes` for a flat softmax).
    pub fn classes_per_step(&self) -> usize {
        self.clusters + self.branch
    }

    /// The cluster-level linear head (exposed so fast-path inference can
    /// read its weights directly from the store).
    pub fn cluster_head(&self) -> &Linear {
        &self.cluster_head
    }

    /// Id of the `[clusters, branch * hidden]` leaf weight table (one
    /// contiguous `[branch, hidden]` block per cluster row; the flat
    /// memory layout is identical to a `[clusters * branch, hidden]`
    /// class-per-row table).
    pub fn leaves_id(&self) -> ParamId {
        self.leaf_weights
    }

    /// Number of padding slots in the last cluster (`clusters * branch -
    /// num_classes`); always `< branch`.
    pub fn padding(&self) -> usize {
        self.clusters * self.branch - self.num_classes
    }

    /// Builds the additive padding mask for a batch of branch logits:
    /// row `i` gets [`PAD_MASK`] in every slot of `pair_clusters[i]` that
    /// falls outside `num_classes`, zero elsewhere. Returns `None` when
    /// the grid has no padding (the mask would be all-zero, and adding it
    /// is skipped entirely so masked and unmasked graphs stay bitwise
    /// identical).
    fn padding_mask(&self, pair_clusters: &[usize]) -> Option<Tensor2> {
        if self.padding() == 0 {
            return None;
        }
        let mut mask = Tensor2::zeros(pair_clusters.len(), self.branch);
        for (i, &c) in pair_clusters.iter().enumerate() {
            for j in 0..self.branch {
                if c * self.branch + j >= self.num_classes {
                    mask.set(i, j, PAD_MASK);
                }
            }
        }
        Some(mask)
    }

    /// Adds the padding mask (if any) to per-cluster branch logits on
    /// the tape. The mask enters as a non-differentiable leaf, so padded
    /// slots get probability ~0 and zero gradient.
    fn mask_branch_logits(&self, sess: &mut Session, logits: Var, pair_clusters: &[usize]) -> Var {
        match self.padding_mask(pair_clusters) {
            Some(mask) => {
                let m = sess.tape.leaf(mask, false);
                sess.tape.add(logits, m)
            }
            None => logits,
        }
    }

    /// Computes the mean negative log-likelihood of `targets` given
    /// hidden states `h` (`[batch, hidden]`) and returns the loss node.
    ///
    /// # Panics
    ///
    /// Panics if any target is out of range or the batch is empty.
    pub fn loss(&self, sess: &mut Session, store: &ParamStore, h: Var, targets: &[usize]) -> Var {
        let b = targets.len();
        assert!(b > 0, "empty batch");
        assert_eq!(sess.tape.value(h).rows(), b, "one hidden row per target");
        for &t in targets {
            assert!(
                t < self.num_classes,
                "target {t} out of {} classes",
                self.num_classes
            );
        }
        // Cluster-level CE.
        let cluster_logits = self.cluster_head.forward(sess, store, h);
        let cluster_targets: Vec<usize> = targets.iter().map(|&t| t / self.branch).collect();
        let cluster_loss = sess
            .tape
            .softmax_cross_entropy(cluster_logits, &cluster_targets);
        // Leaf-level CE within each sample's target cluster: the
        // cluster's `branch` weight rows are gathered sparsely and
        // scored against the hidden state with chunk_dot.
        let leaf_targets: Vec<usize> = targets.iter().map(|&t| t % self.branch).collect();
        let chunks = self.gather_chunks(sess, store, &cluster_targets);
        let leaf_logits = sess.tape.chunk_dot(h, chunks, self.branch);
        let masked = self.mask_branch_logits(sess, leaf_logits, &cluster_targets);
        let leaf_loss = sess.tape.softmax_cross_entropy(masked, &leaf_targets);
        sess.tape.add(cluster_loss, leaf_loss)
    }

    /// Multi-label loss over per-sample positive class sets: a BCE over
    /// the `[batch, clusters]` cluster multi-hot plus a BCE over the
    /// branch multi-hot of every `(sample, positive cluster)` pair. The
    /// pair expansion goes through
    /// [`select_rows`](voyager_tensor::Tape::select_rows), so a sample
    /// with positives in `p` clusters contributes `p` branch rows and
    /// the cost stays `O(clusters + pairs * branch)` regardless of
    /// vocabulary size.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty, any row has no positives, or any
    /// class is out of range.
    pub fn loss_multi(
        &self,
        sess: &mut Session,
        store: &ParamStore,
        h: Var,
        positives: &[Vec<usize>],
    ) -> Var {
        let b = positives.len();
        assert!(b > 0, "empty batch");
        assert_eq!(sess.tape.value(h).rows(), b, "one hidden row per sample");
        let mut cluster_hot = Tensor2::zeros(b, self.clusters);
        let mut pair_rows = Vec::new();
        let mut pair_clusters = Vec::new();
        for (row, pos) in positives.iter().enumerate() {
            assert!(!pos.is_empty(), "row {row} has no positive classes");
            let mut cs: Vec<usize> = pos
                .iter()
                .map(|&t| {
                    assert!(
                        t < self.num_classes,
                        "class {t} out of {} classes",
                        self.num_classes
                    );
                    t / self.branch
                })
                .collect();
            cs.sort_unstable();
            cs.dedup();
            for &c in &cs {
                cluster_hot.set(row, c, 1.0);
                pair_rows.push(row);
                pair_clusters.push(c);
            }
        }
        let cluster_logits = self.cluster_head.forward(sess, store, h);
        let cluster_loss = sess.tape.bce_with_logits(cluster_logits, &cluster_hot);
        let mut branch_hot = Tensor2::zeros(pair_rows.len(), self.branch);
        for (p, (&row, &c)) in pair_rows.iter().zip(&pair_clusters).enumerate() {
            for &t in &positives[row] {
                if t / self.branch == c {
                    branch_hot.set(p, t % self.branch, 1.0);
                }
            }
        }
        let hp = sess.tape.select_rows(h, &pair_rows);
        let chunks = self.gather_chunks(sess, store, &pair_clusters);
        let leaf_logits = sess.tape.chunk_dot(hp, chunks, self.branch);
        let masked = self.mask_branch_logits(sess, leaf_logits, &pair_clusters);
        let leaf_loss = sess.tape.bce_with_logits(masked, &branch_hot);
        sess.tape.add(cluster_loss, leaf_loss)
    }

    /// Gathers, per sample, the target cluster's `branch` weight rows
    /// laid out as `[batch, branch * hidden]` chunks. Since the leaf
    /// table stores one cluster per row this is a single contiguous
    /// gather, one sparse tape leaf, and one coalesced optimizer update.
    fn gather_chunks(&self, sess: &mut Session, store: &ParamStore, clusters: &[usize]) -> Var {
        sess.gather(store, self.leaf_weights, clusters)
    }

    /// Hidden dimension.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Full `[batch, num_classes]` class probabilities, computed
    /// directly from store values (no tape). `O(V)` per row — this
    /// exists for tests and verification, not the serving path: it pins
    /// the invariants that every real class is reachable with positive
    /// probability and that probabilities sum to one (i.e. padding slots
    /// receive exactly zero mass).
    pub fn class_probabilities(&self, store: &ParamStore, h: &Tensor2) -> Tensor2 {
        assert_eq!(h.cols(), self.hidden, "hidden width mismatch");
        let w = store.value(self.cluster_head.weight_id());
        let bias = store.value(self.cluster_head.bias_id());
        let leaves = store.value(self.leaf_weights).as_slice();
        let b = h.rows();
        let mut out = Tensor2::zeros(b, self.num_classes);
        let mut cluster_logits = vec![0.0f32; self.clusters];
        let mut branch_logits = vec![0.0f32; self.branch];
        for row in 0..b {
            let hr = h.row(row);
            for (c, logit) in cluster_logits.iter_mut().enumerate() {
                let mut acc = bias.get(0, c);
                for (i, &x) in hr.iter().enumerate() {
                    acc += x * w.get(i, c);
                }
                *logit = acc;
            }
            softmax_inplace(&mut cluster_logits);
            for (c, &pc) in cluster_logits.iter().enumerate() {
                for (j, logit) in branch_logits.iter_mut().enumerate() {
                    let class = c * self.branch + j;
                    let mut acc = if class < self.num_classes {
                        0.0
                    } else {
                        PAD_MASK
                    };
                    let lw = &leaves[class * self.hidden..][..self.hidden];
                    for (i, &x) in hr.iter().enumerate() {
                        acc += x * lw[i];
                    }
                    *logit = acc;
                }
                softmax_inplace(&mut branch_logits);
                for (j, &pb) in branch_logits.iter().enumerate() {
                    let class = c * self.branch + j;
                    if class < self.num_classes {
                        out.set(row, class, pc * pb);
                    }
                }
            }
        }
        out
    }
}

/// In-place numerically-stable softmax over a logit slice.
fn softmax_inplace(logits: &mut [f32]) {
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in logits.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in logits.iter_mut() {
        *v /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Adam;
    use voyager_tensor::rng::{SeedableRng, StdRng};

    #[test]
    fn geometry_is_square_ish() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let hs = HierarchicalSoftmax::new(&mut store, "hs", 8, 100, &mut rng);
        assert_eq!(hs.num_classes(), 100);
        assert_eq!(hs.branch(), 10);
        assert_eq!(hs.clusters(), 10);
        assert_eq!(hs.classes_per_step(), 20); // vs 100 for flat softmax
    }

    #[test]
    fn learns_a_small_classification_task() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let hs = HierarchicalSoftmax::new(&mut store, "hs", 6, 30, &mut rng);
        let mut adam = Adam::new(0.05);
        // 4 fixed inputs -> 4 distinct classes spanning clusters.
        let inputs = Tensor2::from_rows(&[
            &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        ]);
        let targets = [0usize, 7, 15, 29];
        let mut last = f32::MAX;
        for _ in 0..150 {
            let mut sess = Session::new();
            let h = sess.tape.leaf(inputs.clone(), false);
            let loss = hs.loss(&mut sess, &store, h, &targets);
            last = sess.tape.value(loss).get(0, 0);
            sess.step(loss, &mut store, &mut adam);
        }
        assert!(last < 0.2, "did not converge: {last}");
        let probs = hs.class_probabilities(&store, &inputs);
        for (row, &t) in targets.iter().enumerate() {
            assert_eq!(probs.topk_row(row, 1), vec![t], "wrong class in row {row}");
        }
    }

    #[test]
    fn with_shape_reaches_every_class_and_sums_to_one() {
        // 23 classes in a 5x5 grid: 2 padding slots in the last cluster.
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let hs = HierarchicalSoftmax::with_shape(&mut store, "hs", 6, 23, 5, 5, &mut rng);
        assert_eq!(hs.clusters(), 5);
        assert_eq!(hs.branch(), 5);
        assert_eq!(hs.padding(), 2);
        let h = Tensor2::uniform(4, 6, 1.0, &mut rng);
        let probs = hs.class_probabilities(&store, &h);
        assert_eq!(probs.shape(), (4, 23));
        for row in 0..4 {
            let mut sum = 0.0;
            for class in 0..23 {
                let p = probs.get(row, class);
                assert!(p > 0.0, "class {class} unreachable in row {row}");
                sum += p;
            }
            // Padding slots masked to -inf take exactly zero mass, so
            // the real classes alone sum to one.
            assert!((sum - 1.0).abs() < 1e-5, "row {row} sums to {sum}");
        }
    }

    #[test]
    fn with_shape_rejects_bad_grids() {
        let mk = |clusters, branch| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut store = ParamStore::new();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                HierarchicalSoftmax::with_shape(&mut store, "hs", 4, 10, clusters, branch, &mut rng)
            }))
        };
        assert!(mk(3, 3).is_err(), "grid too small must panic");
        assert!(mk(6, 2).is_err(), "empty trailing cluster must panic");
        assert!(mk(5, 2).is_ok());
        assert!(mk(2, 5).is_ok());
    }

    #[test]
    fn loss_multi_trains_multi_label_targets() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        // 21 classes in a 5x5 grid: padding exercises the mask.
        let hs = HierarchicalSoftmax::with_shape(&mut store, "hs", 6, 21, 5, 5, &mut rng);
        let mut adam = Adam::new(0.05);
        let inputs = Tensor2::from_rows(&[
            &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        ]);
        // Positives span multiple clusters per sample.
        let positives = vec![vec![0usize, 7, 20], vec![3, 12]];
        for _ in 0..200 {
            let mut sess = Session::new();
            let h = sess.tape.leaf(inputs.clone(), false);
            let loss = hs.loss_multi(&mut sess, &store, h, &positives);
            sess.step(loss, &mut store, &mut adam);
        }
        let probs = hs.class_probabilities(&store, &inputs);
        for (row, pos) in positives.iter().enumerate() {
            let neg_max = (0..21)
                .filter(|c| !pos.contains(c))
                .map(|c| probs.get(row, c))
                .fold(0.0f32, f32::max);
            for &t in pos {
                assert!(
                    probs.get(row, t) > neg_max,
                    "row {row}: positive {t} ({}) not above best negative ({neg_max})",
                    probs.get(row, t)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "no positive classes")]
    fn loss_multi_rejects_empty_rows() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let hs = HierarchicalSoftmax::new(&mut store, "hs", 4, 10, &mut rng);
        let mut sess = Session::new();
        let h = sess.tape.leaf(Tensor2::zeros(1, 4), false);
        let _ = hs.loss_multi(&mut sess, &store, h, &[vec![]]);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_target_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let hs = HierarchicalSoftmax::new(&mut store, "hs", 4, 10, &mut rng);
        let mut sess = Session::new();
        let h = sess.tape.leaf(Tensor2::zeros(1, 4), false);
        let _ = hs.loss(&mut sess, &store, h, &[10]);
    }
}
