//! Model compression: magnitude pruning and 8-bit quantization.
//!
//! Section 5.4 of the paper reports that 80% of Voyager's weights can be
//! pruned and the rest quantized from 32 to 8 bits with < 1% accuracy
//! loss, making the final model 110–200× smaller than Delta-LSTM and
//! 5–10× smaller than the metadata of conventional temporal prefetchers.
//! This module implements both transforms plus the byte accounting used
//! by the Fig. 17 experiment.

use voyager_tensor::Tensor2;

use crate::ParamStore;

/// Zeroes the `fraction` of weights with the smallest magnitude, computed
/// globally across all parameters in the store.
///
/// Returns the number of weights that were set to zero.
///
/// # Panics
///
/// Panics unless `0.0 <= fraction <= 1.0`.
pub fn prune_magnitude(store: &mut ParamStore, fraction: f32) -> usize {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "fraction must be in [0, 1]"
    );
    let mut magnitudes: Vec<f32> = Vec::with_capacity(store.num_scalars());
    for (_, _, value) in store.iter() {
        magnitudes.extend(value.as_slice().iter().map(|v| v.abs()));
    }
    if magnitudes.is_empty() {
        return 0;
    }
    let k = ((magnitudes.len() as f64) * fraction as f64).floor() as usize;
    if k == 0 {
        return 0;
    }
    let threshold = {
        let mut m = magnitudes;
        m.sort_by(f32::total_cmp);
        m[k - 1]
    };
    let ids: Vec<_> = store.iter().map(|(id, _, _)| id).collect();
    let mut zeroed = 0;
    for id in ids {
        let value = store.value_mut(id);
        for v in value.as_mut_slice() {
            // `<=` can zero slightly more than k elements when magnitudes
            // tie at the threshold; pruning is approximate by nature.
            if v.abs() <= threshold && *v != 0.0 {
                *v = 0.0;
                zeroed += 1;
            }
        }
    }
    zeroed
}

/// Fraction of exactly-zero weights in the store.
pub fn sparsity(store: &ParamStore) -> f32 {
    let total = store.num_scalars();
    if total == 0 {
        return 0.0;
    }
    let zeros: usize = store
        .iter()
        .map(|(_, _, v)| v.as_slice().iter().filter(|&&x| x == 0.0).count())
        .sum();
    zeros as f32 / total as f32
}

/// Scale and zero point of the per-tensor affine int8 scheme for
/// `values` (see [`QuantizedTensor::quantize`]): the range of the
/// finite values, widened to include `0.0`, mapped onto the 256 codes.
pub(crate) fn affine_params(values: &[f32]) -> (f32, i32) {
    let (mut min, mut max) = (0.0f64, 0.0f64);
    for &v in values {
        if v.is_finite() {
            min = min.min(v as f64);
            max = max.max(v as f64);
        }
    }
    let range = max - min;
    let scale = if range > 0.0 {
        (range / 255.0) as f32
    } else {
        // All-zero (or empty) tensor: any positive scale round-trips
        // the all-zero codes exactly.
        1.0 / 255.0
    };
    let zero_point = (-128.0 - min / scale as f64).round().clamp(-128.0, 127.0) as i32;
    (scale, zero_point)
}

/// The int8 code of `v` under [`affine_params`]' `(scale, zero_point)`.
/// The one definition every quantizer uses, so the row-major
/// [`QuantizedTensor`] and the packed int8 inference weights
/// (`QuantizedMatmul`) hold identical codes.
#[inline(always)]
pub(crate) fn affine_code(v: f32, scale: f32, zero_point: i32) -> i8 {
    let q = (v as f64 / scale as f64).round() as i64 + zero_point as i64;
    q.clamp(-128, 127) as i8
}

/// A tensor quantized to 8-bit integers with a per-tensor affine scheme:
/// `value ≈ scale * (q - zero_point)`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedTensor {
    rows: usize,
    cols: usize,
    scale: f32,
    zero_point: i32,
    data: Vec<i8>,
}

impl QuantizedTensor {
    /// Quantizes a tensor to int8 with a symmetric-range affine mapping
    /// covering `[min, max]` of the tensor's finite values.
    ///
    /// The range is anchored to include `0.0` so exact zeros (pruned
    /// weights) land on the zero point and dequantize back to exactly
    /// `0.0`. Degenerate inputs are handled explicitly: all-zero /
    /// constant tensors get a small positive scale (instead of an
    /// epsilon-sized one), and the range is computed in `f64` so
    /// tensors spanning `±f32::MAX` cannot overflow it to infinity and
    /// poison the scale. The resulting scale is always finite and
    /// positive.
    pub fn quantize(t: &Tensor2) -> Self {
        let (rows, cols) = t.shape();
        let (scale, zero_point) = affine_params(t.as_slice());
        let data = t
            .as_slice()
            .iter()
            .map(|&v| affine_code(v, scale, zero_point))
            .collect();
        QuantizedTensor {
            rows,
            cols,
            scale,
            zero_point,
            data,
        }
    }

    /// Reconstructs an `f32` tensor (lossy). The product is formed in
    /// `f64` and clamped into the finite `f32` range, so extreme-valued
    /// tensors never dequantize to infinity.
    pub fn dequantize(&self) -> Tensor2 {
        Tensor2::from_vec(
            self.rows,
            self.cols,
            self.data
                .iter()
                .map(|&q| {
                    let v = (q as i32 - self.zero_point) as f64 * self.scale as f64;
                    v.clamp(f32::MIN as f64, f32::MAX as f64) as f32
                })
                .collect(),
        )
    }

    /// Shape of the original tensor.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Per-tensor dequantization scale (always finite and positive).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Affine zero point: the code that maps back to `0.0`.
    pub fn zero_point(&self) -> i32 {
        self.zero_point
    }

    /// Quantized codes, row-major.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Storage size in bytes (1 byte per weight plus scale/zero-point).
    pub fn size_bytes(&self) -> usize {
        self.data.len() + 8
    }
}

/// Quantizes every parameter in the store in place (quantize then
/// dequantize), simulating int8 deployment while keeping the f32
/// interface. Returns the maximum absolute reconstruction error.
pub fn quantize_store_inplace(store: &mut ParamStore) -> f32 {
    let ids: Vec<_> = store.iter().map(|(id, _, _)| id).collect();
    let mut max_err = 0.0f32;
    for id in ids {
        let original = store.value(id).clone();
        let q = QuantizedTensor::quantize(&original);
        let restored = q.dequantize();
        for (&a, &b) in original.as_slice().iter().zip(restored.as_slice()) {
            max_err = max_err.max((a - b).abs());
        }
        *store.value_mut(id) = restored;
    }
    max_err
}

/// Storage accounting for a model under different deployment formats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelSize {
    /// Total scalar parameter count.
    pub params: usize,
    /// Dense f32 storage in bytes.
    pub dense_f32: usize,
    /// Sparse storage in bytes after pruning: non-zeros as (4-byte
    /// index, 4-byte value) pairs.
    pub sparse_f32: usize,
    /// Sparse + int8 storage in bytes: non-zeros as (4-byte index,
    /// 1-byte value) pairs plus per-tensor scale/zero-point.
    pub sparse_int8: usize,
}

/// Computes [`ModelSize`] for the store's current contents.
pub fn model_size(store: &ParamStore) -> ModelSize {
    let params = store.num_scalars();
    let nonzero: usize = store
        .iter()
        .map(|(_, _, v)| v.as_slice().iter().filter(|&&x| x != 0.0).count())
        .sum();
    let tensors = store.len();
    ModelSize {
        params,
        dense_f32: params * 4,
        sparse_f32: nonzero * 8,
        sparse_int8: nonzero * 5 + tensors * 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voyager_tensor::rng::{SeedableRng, StdRng};

    #[test]
    fn prune_removes_requested_fraction() {
        let mut store = ParamStore::new();
        let data: Vec<f32> = (1..=100).map(|i| i as f32).collect();
        store.register("w", Tensor2::from_vec(10, 10, data));
        let zeroed = prune_magnitude(&mut store, 0.8);
        assert_eq!(zeroed, 80);
        assert!((sparsity(&store) - 0.8).abs() < 1e-6);
        // The largest weights survive.
        assert_eq!(store.value(crate::ParamId(0)).get(9, 9), 100.0);
        assert_eq!(store.value(crate::ParamId(0)).get(0, 0), 0.0);
    }

    #[test]
    fn prune_zero_fraction_is_noop() {
        let mut store = ParamStore::new();
        store.register("w", Tensor2::full(2, 2, 1.0));
        assert_eq!(prune_magnitude(&mut store, 0.0), 0);
        assert_eq!(sparsity(&store), 0.0);
    }

    #[test]
    #[should_panic(expected = "fraction must be in")]
    fn prune_rejects_bad_fraction() {
        let mut store = ParamStore::new();
        prune_magnitude(&mut store, 1.5);
    }

    #[test]
    fn quantize_roundtrip_error_is_bounded() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Tensor2::uniform(8, 8, 2.0, &mut rng);
        let q = QuantizedTensor::quantize(&t);
        assert_eq!(q.shape(), (8, 8));
        let r = q.dequantize();
        // Max error is about one quantization bucket: range/255.
        let bucket = 4.0 / 255.0;
        for (&a, &b) in t.as_slice().iter().zip(r.as_slice()) {
            assert!((a - b).abs() <= bucket * 1.5, "error too large: {a} vs {b}");
        }
    }

    #[test]
    fn quantize_preserves_zero_exactly_for_pruned_models() {
        // Pruned weights must stay exactly zero after dequantization so
        // sparsity (and sparse storage size) is preserved.
        let t = Tensor2::from_rows(&[&[0.0, 1.0, -1.0, 0.0]]);
        let q = QuantizedTensor::quantize(&t);
        let r = q.dequantize();
        assert!(r.get(0, 0).abs() < 1e-2);
        assert!(r.get(0, 3).abs() < 1e-2);
    }

    #[test]
    fn quantize_all_zero_tensor_roundtrips_exactly() {
        let t = Tensor2::zeros(3, 4);
        let q = QuantizedTensor::quantize(&t);
        assert!(q.scale().is_finite() && q.scale() > 0.0);
        let r = q.dequantize();
        assert!(r.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn quantize_constant_tensor_roundtrips_within_one_bucket() {
        for c in [5.0f32, -3.25, 1e-6] {
            let t = Tensor2::full(2, 3, c);
            let q = QuantizedTensor::quantize(&t);
            assert!(q.scale().is_finite() && q.scale() > 0.0, "scale for {c}");
            let r = q.dequantize();
            for &v in r.as_slice() {
                assert!(v.is_finite());
                assert!((v - c).abs() <= q.scale(), "{v} vs {c}");
            }
        }
    }

    #[test]
    fn quantize_extreme_tensor_stays_finite() {
        // An f32 range computation would overflow (MAX - (-MAX) = inf)
        // and poison the scale; the f64 path must stay finite.
        let t = Tensor2::from_rows(&[&[f32::MAX, -f32::MAX, 0.0, 1.0]]);
        let q = QuantizedTensor::quantize(&t);
        assert!(q.scale().is_finite() && q.scale() > 0.0);
        let r = q.dequantize();
        let bucket = q.scale();
        for (&a, &b) in t.as_slice().iter().zip(r.as_slice()) {
            assert!(b.is_finite(), "dequantized {a} to non-finite {b}");
            assert!((a - b).abs() <= bucket * 1.5, "{a} vs {b}");
        }
        // The exact zero still round-trips to exactly zero.
        assert_eq!(r.get(0, 2), 0.0);
    }

    #[test]
    fn model_size_shrinks_with_pruning_and_quantization() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        store.register("w", Tensor2::uniform(100, 100, 1.0, &mut rng));
        let before = model_size(&store);
        assert_eq!(before.params, 10_000);
        assert_eq!(before.dense_f32, 40_000);
        prune_magnitude(&mut store, 0.8);
        let after = model_size(&store);
        assert!(after.sparse_f32 < before.dense_f32 / 2);
        assert!(after.sparse_int8 < after.sparse_f32);
    }

    #[test]
    fn quantize_store_inplace_reports_small_error() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        store.register("a", Tensor2::uniform(10, 10, 0.5, &mut rng));
        store.register("b", Tensor2::uniform(5, 5, 0.5, &mut rng));
        let err = quantize_store_inplace(&mut store);
        assert!(
            err > 0.0 && err < 0.01,
            "unexpected quantization error {err}"
        );
    }
}
