//! Tape-free inference support: a preallocated buffer arena, the
//! shared forward-math helpers, and per-row activation quantization.
//!
//! The autograd [`Tape`](crate::Tape) records every op's output tensor
//! so gradients can flow backwards — bookkeeping a serving path never
//! needs. This module supplies the pieces of a tape-free engine:
//!
//! * [`Arena`] — a per-model pool of [`Tensor2`] buffers addressed by
//!   [`BufId`]. Buffers are resized in place and reuse their
//!   allocation, so a steady-state forward pass (same batch shape as
//!   the last call) performs **zero heap allocation**. Growth events
//!   and bytes are counted, per arena and globally, so tests and
//!   metrics can assert the steady state.
//! * [`sigmoid`], [`softmax_rows_inplace`], [`add_row_inplace`] — the
//!   exact scalar formulas the tape ops use (the tape calls these same
//!   functions), which is what makes the fast f32 path bitwise
//!   identical to the tape forward.
//! * [`QuantizedRows`] / [`quantize_rows_into`] — per-row symmetric
//!   int8 activation quantization feeding the
//!   [`gemm_i8_packed`](crate::kernels::gemm_i8_packed) kernel.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::Tensor2;

// Always-on (non-feature-gated) counters: the runtime's zero-alloc
// serving test asserts on them without enabling the `obs` feature.
// Plain relaxed atomics bumped only on (rare) growth events.
static ARENA_GROW_EVENTS: AtomicU64 = AtomicU64::new(0);
static ARENA_GROWN_BYTES: AtomicU64 = AtomicU64::new(0);
static FAST_PATH_CALLS: AtomicU64 = AtomicU64::new(0);

/// Total arena buffer growth events across all arenas in the process
/// (a buffer needed a larger allocation). Flat in steady state.
pub fn arena_grow_events() -> u64 {
    ARENA_GROW_EVENTS.load(Ordering::Relaxed)
}

/// Cumulative bytes newly allocated by arena buffer growth across all
/// arenas in the process.
pub fn arena_grown_bytes() -> u64 {
    ARENA_GROWN_BYTES.load(Ordering::Relaxed)
}

/// Total tape-free fast-path inference calls recorded via
/// [`note_fast_path_call`].
pub fn fast_path_calls() -> u64 {
    FAST_PATH_CALLS.load(Ordering::Relaxed)
}

/// Tallies one fast-path inference call (called by the model's
/// `predict_fast` / `predict_int8` entry points).
pub fn note_fast_path_call() {
    FAST_PATH_CALLS.fetch_add(1, Ordering::Relaxed);
}

/// Handle to one buffer slot inside an [`Arena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufId(usize);

/// A pool of reusable [`Tensor2`] buffers for tape-free inference.
///
/// Register one slot per intermediate of the forward graph, then per
/// call [`Arena::take`] a buffer, shape it with [`Arena::shape`] (or
/// do both with [`Arena::acquire`]), compute into it, and
/// [`Arena::put`] it back. `take`/`put` are `mem::take`-based moves,
/// so holding one buffer mutably while reading others through
/// [`Arena::get`] needs no split borrows and costs no allocation.
///
/// Shaping zeroes the buffer (like a fresh `Tensor2::zeros`) and only
/// allocates when the required element count exceeds anything the slot
/// has held before; with stable batch shapes every call after the
/// first is allocation-free.
#[derive(Debug, Default)]
pub struct Arena {
    bufs: Vec<Tensor2>,
    grow_events: u64,
    grown_bytes: u64,
}

impl Arena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Arena::default()
    }

    /// Registers a new (empty) buffer slot.
    pub fn register(&mut self) -> BufId {
        self.bufs.push(Tensor2::zeros(0, 0));
        BufId(self.bufs.len() - 1)
    }

    /// Borrows the buffer in slot `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this arena.
    pub fn get(&self, id: BufId) -> &Tensor2 {
        &self.bufs[id.0]
    }

    /// Moves the buffer out of slot `id`, leaving an empty tensor.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this arena.
    pub fn take(&mut self, id: BufId) -> Tensor2 {
        std::mem::take(&mut self.bufs[id.0])
    }

    /// Returns a buffer to slot `id` (usually after [`Arena::take`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this arena.
    pub fn put(&mut self, id: BufId, t: Tensor2) {
        self.bufs[id.0] = t;
    }

    /// Takes the buffer in `id` and shapes it to `[rows, cols]`,
    /// zero-filled, recording any growth. The caller computes into it
    /// and hands it back with [`Arena::put`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this arena.
    pub fn acquire(&mut self, id: BufId, rows: usize, cols: usize) -> Tensor2 {
        let mut t = self.take(id);
        self.shape_tensor(&mut t, rows, cols);
        t
    }

    /// Shapes `t` to `[rows, cols]` (zero-filled, reusing its
    /// allocation) and records growth against this arena's counters.
    fn shape_tensor(&mut self, t: &mut Tensor2, rows: usize, cols: usize) {
        let before = t.capacity();
        t.resize(rows, cols);
        let after = t.capacity();
        if after > before {
            let bytes = ((after - before) * std::mem::size_of::<f32>()) as u64;
            self.grow_events += 1;
            self.grown_bytes += bytes;
            ARENA_GROW_EVENTS.fetch_add(1, Ordering::Relaxed);
            ARENA_GROWN_BYTES.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Buffer growth events since this arena was created.
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }

    /// Bytes newly allocated by this arena's buffer growth.
    pub fn grown_bytes(&self) -> u64 {
        self.grown_bytes
    }
}

/// The logistic sigmoid used by every sigmoid in the workspace: the
/// tape's `sigmoid` op and the tape-free LSTM share this exact
/// function, so their outputs are bitwise identical.
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Row-wise softmax, in place, with the exact accumulation order of
/// the tape's `softmax_rows` op (per-row max, `exp(v - max)` summed in
/// column order, then one divide per element).
pub fn softmax_rows_inplace(t: &mut Tensor2) {
    let (m, _) = t.shape();
    for i in 0..m {
        let row = t.row_mut(i);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for o in row.iter_mut() {
            *o = (*o - max).exp();
            sum += *o;
        }
        for o in row.iter_mut() {
            *o /= sum;
        }
    }
}

/// Adds a `[1, n]` bias row to every row of `t`, with the exact loop
/// of the tape's `add_row` / `lstm_gates` bias add.
///
/// # Panics
///
/// Panics if `bias.len() != t.cols()`.
pub fn add_row_inplace(t: &mut Tensor2, bias: &[f32]) {
    let (m, n) = t.shape();
    assert_eq!(bias.len(), n, "bias must have {n} columns");
    for i in 0..m {
        for (v, &bv) in t.row_mut(i).iter_mut().zip(bias) {
            *v += bv;
        }
    }
}

/// Per-row symmetric int8 quantization of an activation matrix:
/// `row ≈ scale_i * q_row` with `scale_i = max|row| / 127` and no zero
/// point. `sums[i]` carries `Σ_p q[i][p]`, the term an int8 GEMM needs
/// to correct for the *weight* tensor's zero point.
#[derive(Debug, Default)]
pub struct QuantizedRows {
    /// Quantized values, row-major `[rows, cols]`.
    pub data: Vec<i8>,
    /// Per-row dequantization scales.
    pub scales: Vec<f32>,
    /// Per-row sums of quantized values.
    pub sums: Vec<i32>,
    rows: usize,
    cols: usize,
}

impl QuantizedRows {
    /// Creates an empty buffer; fill it with [`quantize_rows_into`].
    pub fn new() -> Self {
        QuantizedRows::default()
    }

    /// Shape `(rows, cols)` of the quantized matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// One quantized row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> &[i8] {
        &self.data[row * self.cols..(row + 1) * self.cols]
    }
}

/// Quantizes `src` into `q` per row (symmetric, scale `max|v| / 127`).
/// Reuses `q`'s buffers; steady-state calls with stable shapes do not
/// allocate. All-zero rows get scale `0.0` and all-zero codes, which
/// dequantize exactly to zero.
pub fn quantize_rows_into(src: &Tensor2, q: &mut QuantizedRows) {
    let (m, n) = src.shape();
    q.rows = m;
    q.cols = n;
    q.data.clear();
    q.data.resize(m * n, 0);
    q.scales.clear();
    q.scales.resize(m, 0.0);
    q.sums.clear();
    q.sums.resize(m, 0);
    for i in 0..m {
        let row = src.row(i);
        let amax = row.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let dst = &mut q.data[i * n..(i + 1) * n];
        if amax == 0.0 || !amax.is_finite() {
            // Degenerate row: all-zero codes, scale 0 -> exact zeros.
            for d in dst.iter_mut() {
                *d = 0;
            }
            q.scales[i] = 0.0;
            q.sums[i] = 0;
            continue;
        }
        let inv = 127.0 / amax;
        let mut sum = 0i32;
        for (d, &v) in dst.iter_mut().zip(row) {
            let code = (v * inv).round().clamp(-127.0, 127.0) as i32;
            sum += code;
            *d = code as i8;
        }
        q.scales[i] = amax / 127.0;
        q.sums[i] = sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{SeedableRng, StdRng};

    #[test]
    fn arena_reuses_buffers_without_regrowth() {
        let mut arena = Arena::new();
        let a = arena.register();
        let b = arena.register();
        let mut t = arena.acquire(a, 4, 8);
        t.set(0, 0, 1.0);
        arena.put(a, t);
        let grows_after_first = arena.grow_events();
        assert!(grows_after_first >= 1);
        for _ in 0..10 {
            let t = arena.acquire(a, 4, 8);
            // Zero-filled on acquire, previous contents gone.
            assert!(t.as_slice().iter().all(|&v| v == 0.0));
            arena.put(a, t);
            let u = arena.acquire(b, 2, 2);
            arena.put(b, u);
        }
        // Same shapes: no further growth on either slot.
        assert_eq!(arena.grow_events(), grows_after_first + 1); // +1: b's first acquire
                                                                // Shrinking doesn't grow either.
        let t = arena.acquire(a, 2, 3);
        assert_eq!(t.shape(), (2, 3));
        arena.put(a, t);
        assert_eq!(arena.grow_events(), grows_after_first + 1);
        // Growing past capacity is counted, with bytes.
        let bytes_before = arena.grown_bytes();
        let t = arena.acquire(a, 64, 64);
        arena.put(a, t);
        assert_eq!(arena.grow_events(), grows_after_first + 2);
        assert!(arena.grown_bytes() > bytes_before);
    }

    #[test]
    fn global_counters_track_arena_growth() {
        let g0 = arena_grow_events();
        let b0 = arena_grown_bytes();
        let mut arena = Arena::new();
        let id = arena.register();
        let t = arena.acquire(id, 16, 16);
        arena.put(id, t);
        assert!(arena_grow_events() > g0);
        assert!(arena_grown_bytes() > b0);
        let g1 = arena_grow_events();
        let t = arena.acquire(id, 16, 16);
        arena.put(id, t);
        assert_eq!(arena_grow_events(), g1);
    }

    #[test]
    fn fast_path_call_counter_increments() {
        let c0 = fast_path_calls();
        note_fast_path_call();
        assert!(fast_path_calls() > c0);
    }

    #[test]
    fn softmax_inplace_matches_reference() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = Tensor2::uniform(3, 7, 2.0, &mut rng);
        // Reference: the tape op's out-of-place formula.
        let (m, n) = t.shape();
        let mut reference = Tensor2::zeros(m, n);
        for i in 0..m {
            let row = t.row(i);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for (o, &v) in reference.row_mut(i).iter_mut().zip(row) {
                *o = (v - max).exp();
                sum += *o;
            }
            for o in reference.row_mut(i) {
                *o /= sum;
            }
        }
        let mut x = t.clone();
        softmax_rows_inplace(&mut x);
        for (a, b) in x.as_slice().iter().zip(reference.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn quantize_rows_roundtrip_and_sums() {
        let t = Tensor2::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 0.0, 0.0]]);
        let mut q = QuantizedRows::new();
        quantize_rows_into(&t, &mut q);
        assert_eq!(q.shape(), (2, 3));
        // Row 0: scale 2/127, codes round(v * 127/2).
        assert_eq!(q.row(0), &[64, -127, 32]);
        assert_eq!(q.sums[0], 64 - 127 + 32);
        for (&code, &v) in q.row(0).iter().zip(t.row(0)) {
            assert!((code as f32 * q.scales[0] - v).abs() <= q.scales[0]);
        }
        // All-zero row: exact.
        assert_eq!(q.row(1), &[0, 0, 0]);
        assert_eq!(q.scales[1], 0.0);
        assert_eq!(q.sums[1], 0);
    }

    #[test]
    fn quantize_rows_reuse_does_not_reallocate() {
        let mut rng = StdRng::seed_from_u64(17);
        let t = Tensor2::uniform(8, 32, 1.0, &mut rng);
        let mut q = QuantizedRows::new();
        quantize_rows_into(&t, &mut q);
        let caps = (q.data.capacity(), q.scales.capacity(), q.sums.capacity());
        for _ in 0..20 {
            quantize_rows_into(&t, &mut q);
            assert_eq!(
                (q.data.capacity(), q.scales.capacity(), q.sums.capacity()),
                caps
            );
        }
    }
}
