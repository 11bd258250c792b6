//! Bounded-heap top-k selection.
//!
//! The inference engine (`voyager::fastpath`) ranks candidates by
//! picking the `k` largest entries of a probability row. Sorting the
//! full page-vocabulary row is `O(n log n)` and allocates an index
//! vector as large as the vocabulary; this
//! module keeps a bounded min-heap of the `k` best candidates instead
//! (`O(n log k)`, reusable scratch, no allocation in steady state).
//!
//! The result order is pinned to the historical implementation — a
//! stable descending sort over values — so swapping the heap in is
//! behaviour-preserving: values descend, and equal values keep
//! ascending index order.

use std::cmp::Ordering;

/// Ranks candidate `(value, index)` pairs: `Greater` when `a` should
/// be listed before `b`. Higher values win; equal values (including
/// the `partial_cmp`-equal `-0.0 == 0.0` case) fall back to the lower
/// index, matching a stable descending sort over values.
fn rank(a: (f32, usize), b: (f32, usize)) -> Ordering {
    match a.0.partial_cmp(&b.0) {
        Some(Ordering::Less) => Ordering::Less,
        Some(Ordering::Greater) => Ordering::Greater,
        // Equal values or incomparable (NaN): lower index first.
        _ => b.1.cmp(&a.1),
    }
}

/// `true` when the heap entry at `a` is *worse* ranked than the one at
/// `b` (min-heap order: the worst of the kept `k` sits at the root).
fn worse(heap: &[(f32, usize)], a: usize, b: usize) -> bool {
    rank(heap[a], heap[b]) == Ordering::Less
}

fn sift_up(heap: &mut [(f32, usize)], mut i: usize) {
    while i > 0 {
        let parent = (i - 1) / 2;
        if worse(heap, i, parent) {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

fn sift_down(heap: &mut [(f32, usize)], mut i: usize) {
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut worst = i;
        if l < heap.len() && worse(heap, l, worst) {
            worst = l;
        }
        if r < heap.len() && worse(heap, r, worst) {
            worst = r;
        }
        if worst == i {
            return;
        }
        heap.swap(i, worst);
        i = worst;
    }
}

/// Writes the indices of the `k` largest entries of `values` into
/// `out` (cleared first), descending by value with ties broken by
/// ascending index — exactly the order a stable descending sort
/// produces. `scratch` is the bounded heap's storage; reusing it
/// across calls makes steady-state selection allocation-free once both
/// vectors have grown to `k`.
pub fn topk_into(values: &[f32], k: usize, scratch: &mut Vec<(f32, usize)>, out: &mut Vec<usize>) {
    scratch.clear();
    out.clear();
    if k == 0 {
        return;
    }
    for (i, &v) in values.iter().enumerate() {
        if scratch.len() < k {
            scratch.push((v, i));
            let last = scratch.len() - 1;
            sift_up(scratch, last);
        } else if rank((v, i), scratch[0]) == Ordering::Greater {
            scratch[0] = (v, i);
            sift_down(scratch, 0);
        }
    }
    // `rank` is a total order (index tiebreak), so the unstable sort —
    // which never allocates, unlike the stable one — is deterministic.
    scratch.sort_unstable_by(|a, b| rank(*b, *a));
    out.extend(scratch.iter().map(|&(_, i)| i));
}

/// Allocating convenience wrapper around [`topk_into`].
pub fn topk_indices(values: &[f32], k: usize) -> Vec<usize> {
    let mut scratch = Vec::new();
    let mut out = Vec::new();
    topk_into(values, k, &mut scratch, &mut out);
    out
}

/// Like [`topk_into`], but emits `(index, value)` pairs so callers that
/// need the winning values as well — soft-label extraction for
/// distillation, weighted candidate tables — do not have to re-index
/// the source slice. Same order contract: descending by value, ties by
/// ascending index.
pub fn topk_pairs_into(
    values: &[f32],
    k: usize,
    scratch: &mut Vec<(f32, usize)>,
    out: &mut Vec<(usize, f32)>,
) {
    scratch.clear();
    out.clear();
    if k == 0 {
        return;
    }
    for (i, &v) in values.iter().enumerate() {
        if scratch.len() < k {
            scratch.push((v, i));
            let last = scratch.len() - 1;
            sift_up(scratch, last);
        } else if rank((v, i), scratch[0]) == Ordering::Greater {
            scratch[0] = (v, i);
            sift_down(scratch, 0);
        }
    }
    scratch.sort_unstable_by(|a, b| rank(*b, *a));
    out.extend(scratch.iter().map(|&(v, i)| (i, v)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, SeedableRng, StdRng};

    /// The historical implementation: full stable sort, then truncate.
    fn sort_topk(values: &[f32], k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..values.len()).collect();
        idx.sort_by(|&a, &b| values[b].partial_cmp(&values[a]).unwrap_or(Ordering::Equal));
        idx.truncate(k);
        idx
    }

    #[test]
    fn basic_selection_and_order() {
        let v = [1.0, 5.0, 3.0, 5.0, -2.0];
        assert_eq!(topk_indices(&v, 3), vec![1, 3, 2]);
        assert_eq!(topk_indices(&v, 1), vec![1]);
        assert_eq!(topk_indices(&v, 0), Vec::<usize>::new());
        // k beyond the length returns everything, still ranked.
        assert_eq!(topk_indices(&v, 10), vec![1, 3, 2, 0, 4]);
        assert_eq!(topk_indices(&[], 4), Vec::<usize>::new());
    }

    #[test]
    fn ties_keep_ascending_index_order() {
        let v = [2.0, 7.0, 7.0, 2.0, 7.0];
        assert_eq!(topk_indices(&v, 5), vec![1, 2, 4, 0, 3]);
        assert_eq!(topk_indices(&v, 2), vec![1, 2]);
    }

    #[test]
    fn matches_full_sort_on_random_logits_with_ties() {
        // Property test, seeded-loop style: quantised random values
        // force plenty of exact ties, and every k from 0 to past the
        // length must agree with the stable-sort reference.
        let mut rng = StdRng::seed_from_u64(0x70_b0_c0);
        for round in 0..200 {
            let n = rng.gen_range(1..65usize);
            let values: Vec<f32> = (0..n)
                .map(|_| ((rng.gen::<f32>() * 8.0).floor()) / 4.0 - 1.0)
                .collect();
            for k in [0, 1, 2, 3, n / 2, n, n + 3] {
                assert_eq!(
                    topk_indices(&values, k),
                    sort_topk(&values, k),
                    "round {round}: n={n} k={k} values={values:?}"
                );
            }
        }
    }

    #[test]
    fn pairs_variant_matches_indices_and_carries_values() {
        let v = [2.0, 7.0, 7.0, 2.0, 7.0];
        let mut scratch = Vec::new();
        let mut pairs = Vec::new();
        for k in [0usize, 1, 2, 5, 9] {
            topk_pairs_into(&v, k, &mut scratch, &mut pairs);
            let idx: Vec<usize> = pairs.iter().map(|&(i, _)| i).collect();
            assert_eq!(idx, topk_indices(&v, k), "k={k}");
            for &(i, val) in &pairs {
                assert_eq!(val, v[i], "k={k}");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_allocation_stable() {
        // Once grown, repeated calls through the same scratch vectors
        // must not need more capacity (the steady-state contract).
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        let v: Vec<f32> = (0..100).map(|i| ((i * 37) % 100) as f32).collect();
        topk_into(&v, 8, &mut scratch, &mut out);
        let caps = (scratch.capacity(), out.capacity());
        for _ in 0..50 {
            topk_into(&v, 8, &mut scratch, &mut out);
            assert_eq!((scratch.capacity(), out.capacity()), caps);
        }
        assert_eq!(out.len(), 8);
    }
}
