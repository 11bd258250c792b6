//! Cache-blocked, register-tiled matrix-multiply kernels with runtime
//! SIMD dispatch.
//!
//! Every matrix product in the workspace — the LSTM gate projections,
//! the attention scoring, and all of autograd's backward products —
//! funnels through [`gemm`] / [`gemm_acc`] here, for all three
//! transpose layouts ([`Layout`]). The kernels write into a
//! caller-provided output buffer, so steady-state training and
//! inference perform no per-call heap allocation beyond what the
//! caller chooses to reuse.
//!
//! # Design
//!
//! Entry points dispatch once per call on the CPU tier selected by
//! [`crate::simd`] runtime feature detection:
//!
//! * **SIMD tiers** (AVX2/FMA, AVX-512F, NEON) pack A and B into
//!   zero-padded register panels once per call — so TN's column-major
//!   A walk and NT's row-major B walk stop paying strided loads — and
//!   sweep an explicit vector register tile over the panels
//!   (`6 × 16`, `8 × 32`, `4 × 8` respectively).
//! * The **scalar blocked** fallback processes the output in
//!   `MR x NR` (`4 x 8`) register tiles with [`NC`]-column cache
//!   panels, exactly as before SIMD dispatch existed. It doubles as
//!   the golden reference: [`set_force_scalar`] routes every call
//!   through it.
//!
//! # Determinism
//!
//! Each output element is accumulated over the reduction index `p` in
//! strictly increasing order by a **fused multiply-add** chain:
//! `f32::mul_add` in the scalar and naive kernels, `vfmadd` / `fmla`
//! in the vector tiles. An IEEE-754 fma is correctly rounded, so the
//! same chain produces the same bits on every host; blocking, packing
//! (zero padding is exact: `fma(0, 0, acc) == acc`), tile shape, and
//! row partitioning change *which elements* are computed when, never
//! the arithmetic *within* an element. Naive, scalar blocked, every
//! SIMD tier, and the row-partitioned parallel driver (see
//! `voyager-runtime`) are therefore all bitwise-identical, on and
//! across hosts. On x86-64 the scalar kernels are compiled twice —
//! once plain, once with the `fma` target feature — and the fast copy
//! is picked at runtime, so the fallback does not pay a libm `fmaf`
//! call per element on FMA hardware (the bits are identical either
//! way).
//!
//! # Int8
//!
//! Quantized inference multiplies int8 activations by int8 weights
//! through [`gemm_i8_packed`], with the dequantization epilogue fused
//! in. The weights are not row-major: [`PackedI8`] stores them once,
//! at quantization time, as 16-column panels of 4-deep column groups,
//! the layout one AVX-512 VNNI `vpdpbusd` consumes. The kernel
//! dispatches on its own tier ([`Int8Isa`]: VNNI, AVX2 `vpmaddwd`, or
//! scalar) and is exact: every tier computes the same wrapping i32
//! sums and the same epilogue, so the output bits never depend on the
//! tier.

use std::ops::Range;

use crate::simd;
use crate::Tensor2;

pub use crate::simd::{
    active_int8_isa, active_isa, detected_int8_isa, detected_isa, force_scalar, set_force_scalar,
    Int8Isa, Isa,
};

/// Rows per scalar register tile.
pub const MR: usize = 4;
/// Columns per scalar register tile.
pub const NR: usize = 8;
/// Column-panel width for cache blocking (scalar path).
pub const NC: usize = 256;

/// Maximum reduction depth `k` for the int8 kernels before an `i32`
/// accumulator could overflow: the worst-case `i8 × i8` product is
/// `(−128) · (−128) = 16 384`, so at most
/// `⌊(2³¹ − 1) / 16 384⌋ = 131 071` terms are always representable.
/// Enforced with `debug_assert!` at the [`gemm_i8_packed`] entry
/// point; layers here sit orders of magnitude below it.
pub const MAX_GEMM_I8_K: usize = (i32::MAX as usize) / (128 * 128);

/// Transpose layout of a GEMM: which operand, if any, is consumed
/// transposed.
///
/// Shapes (with output `[m, n]` and reduction depth `k`):
///
/// * `NN`: `a [m, k] @ b [k, n]`
/// * `TN`: `a [k, m]` (transposed) `@ b [k, n]`
/// * `NT`: `a [m, k] @ b [n, k]` (transposed)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `a @ b` with both operands in natural orientation.
    NN,
    /// `a^T @ b`: the left operand is stored `[k, m]`.
    TN,
    /// `a @ b^T`: the right operand is stored `[n, k]`.
    NT,
}

#[cfg(feature = "obs")]
static GEMM_CALLS: voyager_obs::Counter = voyager_obs::Counter::new();
#[cfg(feature = "obs")]
static GEMM_FLOPS: voyager_obs::Counter = voyager_obs::Counter::new();

/// Tallies one kernel invocation (`2·m·n·k` flops). Compiles to
/// nothing without the `obs` feature, keeping the default hot path
/// untouched.
#[cfg(feature = "obs")]
fn note_gemm(m: usize, n: usize, k: usize) {
    GEMM_CALLS.inc();
    GEMM_FLOPS.add(2 * (m as u64) * (n as u64) * (k as u64));
}

#[cfg(not(feature = "obs"))]
fn note_gemm(_m: usize, _n: usize, _k: usize) {}

/// Total [`gemm`] / [`gemm_acc`] invocations since start (or the last
/// [`reset_kernel_metrics`]). Always 0 without the `obs` feature.
pub fn gemm_invocations() -> u64 {
    #[cfg(feature = "obs")]
    {
        GEMM_CALLS.get()
    }
    #[cfg(not(feature = "obs"))]
    {
        0
    }
}

/// Total floating-point operations (`2·m·n·k` per call) tallied by the
/// GEMM entry points. Always 0 without the `obs` feature.
pub fn gemm_flops() -> u64 {
    #[cfg(feature = "obs")]
    {
        GEMM_FLOPS.get()
    }
    #[cfg(not(feature = "obs"))]
    {
        0
    }
}

/// Zeroes the kernel counters (benchmark phase boundaries). A no-op
/// without the `obs` feature.
pub fn reset_kernel_metrics() {
    #[cfg(feature = "obs")]
    {
        GEMM_CALLS.reset();
        GEMM_FLOPS.reset();
        INT8_GEMM_CALLS.reset();
        INT8_GEMM_OPS.reset();
    }
}

/// Output shape `(m, n)` and reduction depth `k` of `a ? b` under
/// `layout`, checking that the operand shapes agree.
///
/// # Panics
///
/// Panics if the reduction dimensions of `a` and `b` differ.
pub fn gemm_dims(a: &Tensor2, b: &Tensor2, layout: Layout) -> (usize, usize, usize) {
    let (ar, ac) = a.shape();
    let (br, bc) = b.shape();
    let (m, k, n, bk) = match layout {
        Layout::NN => (ar, ac, bc, br),
        Layout::TN => (ac, ar, bc, br),
        Layout::NT => (ar, ac, br, bc),
    };
    assert_eq!(
        k, bk,
        "gemm {layout:?} shape mismatch: {ar}x{ac} vs {br}x{bc}"
    );
    (m, n, k)
}

/// Matrix multiply `out = a ? b` for the given [`Layout`], writing
/// into the caller-provided `out` (resized/reshaped to `[m, n]` if
/// needed; its allocation is reused when already large enough).
/// Dispatches to the detected SIMD tier, or the scalar blocked
/// fallback.
///
/// # Panics
///
/// Panics if the operand shapes disagree under `layout`.
pub fn gemm(a: &Tensor2, b: &Tensor2, layout: Layout, out: &mut Tensor2) {
    let (m, n, k) = gemm_dims(a, b, layout);
    note_gemm(m, n, k);
    reshape_for_output(out, m, n);
    gemm_rows_impl(a, b, layout, 0..m, out.as_mut_slice(), false);
}

/// Matrix multiply-accumulate `out += a ? b` for the given
/// [`Layout`].
///
/// # Panics
///
/// Panics if the operand shapes disagree under `layout`, or if `out`
/// is not already `[m, n]`.
pub fn gemm_acc(a: &Tensor2, b: &Tensor2, layout: Layout, out: &mut Tensor2) {
    let (m, n, k) = gemm_dims(a, b, layout);
    note_gemm(m, n, k);
    assert_eq!(out.shape(), (m, n), "gemm_acc output shape mismatch");
    gemm_rows_impl(a, b, layout, 0..m, out.as_mut_slice(), true);
}

/// Computes output rows `rows` of `a ? b` into `out_rows`
/// (`rows.len() * n` elements, row-major, overwritten).
///
/// This is the unit of work for row-partitioned parallel GEMM: the
/// driver splits the output into disjoint row ranges and calls this
/// kernel on each, which is bitwise-identical to a single
/// whole-matrix call at any partitioning — including empty ranges and
/// ranges not aligned to any tier's tile height.
///
/// # Panics
///
/// Panics if shapes disagree, `rows` exceeds `m`, or `out_rows` has
/// the wrong length.
pub fn gemm_rows(
    a: &Tensor2,
    b: &Tensor2,
    layout: Layout,
    rows: Range<usize>,
    out_rows: &mut [f32],
) {
    gemm_rows_impl(a, b, layout, rows, out_rows, false);
}

/// The active tier's register-tile height `MR` — the row granularity
/// at which parallel drivers should cut [`gemm_rows`] partitions so
/// chunk boundaries fall on tile edges. Misaligned cuts are still
/// *correct* (and bitwise-identical); they just waste a padded tail
/// tile per chunk.
pub fn gemm_row_alignment() -> usize {
    simd::active_isa().tile_dims().0
}

/// Ensures `out` is an `[m, n]` tensor, reusing its buffer.
fn reshape_for_output(out: &mut Tensor2, m: usize, n: usize) {
    if out.shape() != (m, n) {
        *out = Tensor2::zeros(m, n);
    }
}

fn check_rows(m: usize, n: usize, rows: &Range<usize>, out_len: usize) {
    assert!(
        rows.start <= rows.end && rows.end <= m,
        "row range {rows:?} out of bounds for {m} rows"
    );
    assert_eq!(
        out_len,
        rows.len() * n,
        "output slice holds {out_len} elements, need {} for {} rows of {n}",
        rows.len() * n,
        rows.len()
    );
}

fn gemm_rows_impl(
    a: &Tensor2,
    b: &Tensor2,
    layout: Layout,
    rows: Range<usize>,
    out_rows: &mut [f32],
    acc: bool,
) {
    let (m, n, k) = gemm_dims(a, b, layout);
    check_rows(m, n, &rows, out_rows.len());
    if n == 0 || rows.is_empty() {
        return;
    }
    if k == 0 {
        // An empty reduction contributes exactly 0.0 to every element,
        // same as the reference's zero-length accumulator chain (the
        // `+= 0.0` matters bitwise: it normalises -0.0 in `out`).
        for o in out_rows.iter_mut() {
            if acc {
                *o += 0.0;
            } else {
                *o = 0.0;
            }
        }
        return;
    }
    let bver = b.version();
    let (a, b) = (a.as_slice(), b.as_slice());
    match simd::active_isa() {
        Isa::Scalar => simd::run_scalar_blocked(a, b, layout, m, n, k, rows, out_rows, acc),
        isa => simd::gemm_rows_packed(isa, a, b, layout, m, n, k, rows, out_rows, acc, bver),
    }
}

/// Matrix multiply over raw slices: `out (+)= a ? b` with explicit
/// `(m, n, k)` dimensions. This is the entry point for operands that
/// are *sub-blocks* of a larger tensor — the hierarchical output head
/// multiplies one hidden row against the contiguous `[branch, hidden]`
/// leaf-weight block of each shortlisted cluster, which has no
/// `Tensor2` of its own. Routes through the identical dispatch as
/// [`gemm`], so results are bitwise-identical
/// to a whole-tensor call on the same bytes; slice operands carry no
/// content version, so the packed-B cache is bypassed.
///
/// # Panics
///
/// Panics if the slice lengths do not match `m·k` / `k·n` (per
/// `layout`) and `m·n`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_slices(
    a: &[f32],
    b: &[f32],
    layout: Layout,
    m: usize,
    n: usize,
    k: usize,
    out: &mut [f32],
    accumulate: bool,
) {
    assert_eq!(a.len(), m * k, "gemm_slices lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm_slices rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm_slices output length mismatch");
    note_gemm(m, n, k);
    if n == 0 || m == 0 {
        return;
    }
    if k == 0 {
        for o in out.iter_mut() {
            if accumulate {
                *o += 0.0;
            } else {
                *o = 0.0;
            }
        }
        return;
    }
    match simd::active_isa() {
        Isa::Scalar => simd::run_scalar_blocked(a, b, layout, m, n, k, 0..m, out, accumulate),
        isa => simd::gemm_rows_packed(isa, a, b, layout, m, n, k, 0..m, out, accumulate, 0),
    }
}

/// Scalar blocked kernel body, shared by the plain and
/// `fma`-target-feature compilations picked in
/// [`simd::run_scalar_blocked`]. Both run the identical
/// `f32::mul_add` chains — the clone only avoids a libm `fmaf` call
/// per element.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn blocked_rows_body(
    a: &[f32],
    b: &[f32],
    layout: Layout,
    m: usize,
    n: usize,
    k: usize,
    rows: Range<usize>,
    out_rows: &mut [f32],
    acc: bool,
) {
    // Column panels keep the active slice of `b` cache-resident across
    // consecutive row tiles; the panel split does not touch the
    // per-element reduction order.
    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        match layout {
            Layout::NN => block_nn(a, b, k, n, rows.start..rows.end, jc, nc, out_rows, acc),
            Layout::TN => block_tn(a, b, m, k, n, rows.start..rows.end, jc, nc, out_rows, acc),
            Layout::NT => block_nt(a, b, k, n, rows.start..rows.end, jc, nc, out_rows, acc),
        }
        jc += nc;
    }
}

/// Writes a finished register tile into the output slice.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn store_tile(
    tile: &[[f32; NR]; MR],
    out_rows: &mut [f32],
    n: usize,
    r0: usize,
    mr: usize,
    j0: usize,
    nr: usize,
    acc: bool,
) {
    for (r, row) in tile.iter().enumerate().take(mr) {
        let dst = &mut out_rows[(r0 + r) * n + j0..(r0 + r) * n + j0 + nr];
        if acc {
            for (d, &v) in dst.iter_mut().zip(row) {
                *d += v;
            }
        } else {
            dst.copy_from_slice(&row[..nr]);
        }
    }
}

/// `NN` panel: `out[i][j] = sum_p a[i*k + p] * b[p*n + j]`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn block_nn(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    rows: Range<usize>,
    jc: usize,
    nc: usize,
    out_rows: &mut [f32],
    acc: bool,
) {
    let r_base = rows.start;
    let mut i = rows.start;
    while i < rows.end {
        let mr = MR.min(rows.end - i);
        let mut j = jc;
        while j < jc + nc {
            let nr = NR.min(jc + nc - j);
            let mut tile = [[0.0f32; NR]; MR];
            if mr == MR && nr == NR {
                let a0 = &a[i * k..(i + 1) * k];
                let a1 = &a[(i + 1) * k..(i + 2) * k];
                let a2 = &a[(i + 2) * k..(i + 3) * k];
                let a3 = &a[(i + 3) * k..(i + 4) * k];
                let mut t0 = [0.0f32; NR];
                let mut t1 = [0.0f32; NR];
                let mut t2 = [0.0f32; NR];
                let mut t3 = [0.0f32; NR];
                for p in 0..k {
                    let bs = &b[p * n + j..p * n + j + NR];
                    let (x0, x1, x2, x3) = (a0[p], a1[p], a2[p], a3[p]);
                    for c in 0..NR {
                        let bv = bs[c];
                        t0[c] = x0.mul_add(bv, t0[c]);
                        t1[c] = x1.mul_add(bv, t1[c]);
                        t2[c] = x2.mul_add(bv, t2[c]);
                        t3[c] = x3.mul_add(bv, t3[c]);
                    }
                }
                tile = [t0, t1, t2, t3];
            } else {
                for (r, trow) in tile.iter_mut().enumerate().take(mr) {
                    let arow = &a[(i + r) * k..(i + r + 1) * k];
                    for (p, &x) in arow.iter().enumerate() {
                        let bs = &b[p * n + j..p * n + j + nr];
                        for (t, &bv) in trow.iter_mut().zip(bs) {
                            *t = x.mul_add(bv, *t);
                        }
                    }
                }
            }
            store_tile(&tile, out_rows, n, i - r_base, mr, j, nr, acc);
            j += nr;
        }
        i += mr;
    }
}

/// `TN` panel: `out[i][j] = sum_p a[p*m + i] * b[p*n + j]`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn block_tn(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    rows: Range<usize>,
    jc: usize,
    nc: usize,
    out_rows: &mut [f32],
    acc: bool,
) {
    let r_base = rows.start;
    let mut i = rows.start;
    while i < rows.end {
        let mr = MR.min(rows.end - i);
        let mut j = jc;
        while j < jc + nc {
            let nr = NR.min(jc + nc - j);
            let mut tile = [[0.0f32; NR]; MR];
            if mr == MR && nr == NR {
                let mut t0 = [0.0f32; NR];
                let mut t1 = [0.0f32; NR];
                let mut t2 = [0.0f32; NR];
                let mut t3 = [0.0f32; NR];
                for p in 0..k {
                    let asv = &a[p * m + i..p * m + i + MR];
                    let bs = &b[p * n + j..p * n + j + NR];
                    let (x0, x1, x2, x3) = (asv[0], asv[1], asv[2], asv[3]);
                    for c in 0..NR {
                        let bv = bs[c];
                        t0[c] = x0.mul_add(bv, t0[c]);
                        t1[c] = x1.mul_add(bv, t1[c]);
                        t2[c] = x2.mul_add(bv, t2[c]);
                        t3[c] = x3.mul_add(bv, t3[c]);
                    }
                }
                tile = [t0, t1, t2, t3];
            } else {
                for p in 0..k {
                    let asv = &a[p * m + i..p * m + i + mr];
                    let bs = &b[p * n + j..p * n + j + nr];
                    for (r, &x) in asv.iter().enumerate() {
                        for (t, &bv) in tile[r].iter_mut().zip(bs) {
                            *t = x.mul_add(bv, *t);
                        }
                    }
                }
            }
            store_tile(&tile, out_rows, n, i - r_base, mr, j, nr, acc);
            j += nr;
        }
        i += mr;
    }
}

/// `NT` panel: `out[i][j] = sum_p a[i*k + p] * b[j*k + p]`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn block_nt(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    rows: Range<usize>,
    jc: usize,
    nc: usize,
    out_rows: &mut [f32],
    acc: bool,
) {
    let r_base = rows.start;
    let mut i = rows.start;
    while i < rows.end {
        let mr = MR.min(rows.end - i);
        let mut j = jc;
        while j < jc + nc {
            let nr = NR.min(jc + nc - j);
            let mut tile = [[0.0f32; NR]; MR];
            if mr == MR && nr == NR {
                // 32 independent accumulator chains: the dot-product
                // form cannot vectorise over `p` without reassociating
                // sums, so throughput comes from instruction-level
                // parallelism across the tile instead. (The SIMD tiers
                // avoid this entirely by packing B, which transposes
                // NT into the broadcast-AXPY form.)
                let arows: [&[f32]; MR] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
                let brows: [&[f32]; NR] = std::array::from_fn(|c| &b[(j + c) * k..(j + c + 1) * k]);
                for p in 0..k {
                    let av: [f32; MR] = std::array::from_fn(|r| arows[r][p]);
                    let bv: [f32; NR] = std::array::from_fn(|c| brows[c][p]);
                    for (trow, &x) in tile.iter_mut().zip(&av) {
                        for (t, &y) in trow.iter_mut().zip(&bv) {
                            *t = x.mul_add(y, *t);
                        }
                    }
                }
            } else {
                for (r, trow) in tile.iter_mut().enumerate().take(mr) {
                    let arow = &a[(i + r) * k..(i + r + 1) * k];
                    for (c, t) in trow.iter_mut().enumerate().take(nr) {
                        let brow = &b[(j + c) * k..(j + c + 1) * k];
                        let mut s = 0.0f32;
                        for (&x, &y) in arow.iter().zip(brow) {
                            s = x.mul_add(y, s);
                        }
                        *t = s;
                    }
                }
            }
            store_tile(&tile, out_rows, n, i - r_base, mr, j, nr, acc);
            j += nr;
        }
        i += mr;
    }
}

/// Reference kernel: the straightforward triple loop, one sequential
/// fused-multiply-add accumulator per output element. Golden-value
/// tests compare the dispatched kernels against this, and benchmarks
/// report it as the baseline.
///
/// # Panics
///
/// Panics if the operand shapes disagree under `layout`.
pub fn naive_gemm(a: &Tensor2, b: &Tensor2, layout: Layout, out: &mut Tensor2) {
    let (m, n, k) = gemm_dims(a, b, layout);
    reshape_for_output(out, m, n);
    let (a, b) = (a.as_slice(), b.as_slice());
    simd::run_naive(a, b, layout, m, n, k, 0..m, out.as_mut_slice(), false);
}

/// Naive kernel body, shared by the plain and `fma`-target-feature
/// compilations picked in [`simd::run_naive`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn naive_rows_body(
    a: &[f32],
    b: &[f32],
    layout: Layout,
    m: usize,
    n: usize,
    k: usize,
    rows: Range<usize>,
    out_rows: &mut [f32],
    acc: bool,
) {
    for i in rows.start..rows.end {
        let out_row = &mut out_rows[(i - rows.start) * n..(i - rows.start + 1) * n];
        for (j, o) in out_row.iter_mut().enumerate() {
            let mut s = 0.0f32;
            for p in 0..k {
                let (x, y) = match layout {
                    Layout::NN => (a[i * k + p], b[p * n + j]),
                    Layout::TN => (a[p * m + i], b[p * n + j]),
                    Layout::NT => (a[i * k + p], b[j * k + p]),
                };
                s = x.mul_add(y, s);
            }
            if acc {
                *o += s;
            } else {
                *o = s;
            }
        }
    }
}

#[cfg(feature = "obs")]
static INT8_GEMM_CALLS: voyager_obs::Counter = voyager_obs::Counter::new();
#[cfg(feature = "obs")]
static INT8_GEMM_OPS: voyager_obs::Counter = voyager_obs::Counter::new();

#[cfg(feature = "obs")]
fn note_gemm_i8(m: usize, n: usize, k: usize) {
    INT8_GEMM_CALLS.inc();
    INT8_GEMM_OPS.add(2 * (m as u64) * (n as u64) * (k as u64));
}

#[cfg(not(feature = "obs"))]
fn note_gemm_i8(_m: usize, _n: usize, _k: usize) {}

/// Total [`gemm_i8_packed`] invocations since start (or the last
/// [`reset_kernel_metrics`]). Always 0 without the `obs` feature.
pub fn int8_gemm_invocations() -> u64 {
    #[cfg(feature = "obs")]
    {
        INT8_GEMM_CALLS.get()
    }
    #[cfg(not(feature = "obs"))]
    {
        0
    }
}

/// Total integer multiply-add operations (`2·m·n·k` per call) tallied
/// by the int8 entry points. Always 0 without the `obs` feature.
pub fn int8_gemm_ops() -> u64 {
    #[cfg(feature = "obs")]
    {
        INT8_GEMM_OPS.get()
    }
    #[cfg(not(feature = "obs"))]
    {
        0
    }
}

/// Columns per panel of a [`PackedI8`] weight matrix.
pub(crate) const I8_PANEL_COLS: usize = 16;
/// Reduction steps per column group of a [`PackedI8`] panel: the four
/// bytes one `vpdpbusd` lane consumes.
pub(crate) const I8_PANEL_DEPTH: usize = 4;

/// An int8 weight matrix `w [k, n]` in the weight-stationary layout
/// the int8 kernels read, written once when the weights are quantized.
///
/// The codes live only as 16-column panels `[n/16][k/4][16][4]`: panel
/// `t`, reduction quad `q`, column `c`, step `s` holds
/// `w[4q + s][16t + c]`. One quad of one panel is 64 contiguous bytes
/// — exactly one zmm load, whose 16 i32 lanes each see their column's
/// four reduction steps — so every tier streams the weights at unit
/// stride with no per-call packing. The tails of `k` and `n` are
/// zero-padded. The panels start on a 64-byte boundary, so no 512-bit
/// load straddles two cache lines.
///
/// `colsum128[j] = 128 · Σ_p w[p][j]` (wrapping i32, zero-padded to
/// whole panels) undoes the `u8 = a + 128` activation shift of the
/// VNNI tier: `Σ_p (a + 128) · w = Σ_p a · w + colsum128[j]`.
#[derive(Debug)]
pub struct PackedI8 {
    k: usize,
    n: usize,
    /// The panel bytes, behind up to 63 bytes of lead-in that align
    /// them (see [`PackedI8::codes`]). A plain `Vec<i8>` rather than a
    /// 64-byte-aligned element type: aligned allocations of this size
    /// fragment the heap, and a server rebuilding its weights would
    /// keep the fragments resident.
    buf: Vec<i8>,
    colsum128: Vec<i32>,
}

/// Alignment of the panel bytes: one cache line, one zmm register.
const I8_PANEL_ALIGN: usize = 64;

impl PackedI8 {
    /// Packs a row-major `[k, n]` source, mapping each element to its
    /// int8 code with `code` on the way — quantization and packing in
    /// one pass, so no row-major copy of the codes is ever held. On
    /// x86-64 hosts with AVX2 the loop runs as an `avx2`-compiled copy
    /// (same source, same codes).
    ///
    /// # Panics
    ///
    /// Panics if `src.len() != k·n`.
    pub fn pack<T: Copy>(k: usize, n: usize, src: &[T], code: impl Fn(T) -> i8) -> Self {
        assert_eq!(src.len(), k * n, "PackedI8 source length mismatch");
        let mut packed = Self::zeroed(k, n);
        let PackedI8 { buf, colsum128, .. } = &mut packed;
        let codes = Self::aligned_mut(buf, k, n);
        simd::pack_i8(src, k, n, code, codes, colsum128);
        packed
    }

    /// Packs row-major `[k, n]` int8 codes.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != k·n`.
    pub fn from_codes(k: usize, n: usize, codes: &[i8]) -> Self {
        Self::pack(k, n, codes, |c| c)
    }

    /// All-zero panels and column sums for a `[k, n]` matrix.
    fn zeroed(k: usize, n: usize) -> Self {
        let panels = n.div_ceil(I8_PANEL_COLS);
        PackedI8 {
            k,
            n,
            buf: vec![0i8; Self::codes_len(k, n) + I8_PANEL_ALIGN - 1],
            colsum128: vec![0i32; panels * I8_PANEL_COLS],
        }
    }

    /// Panel bytes of a `[k, n]` matrix: whole panels of whole quads.
    fn codes_len(k: usize, n: usize) -> usize {
        n.div_ceil(I8_PANEL_COLS) * k.div_ceil(I8_PANEL_DEPTH) * I8_PANEL_COLS * I8_PANEL_DEPTH
    }

    /// Lead-in bytes before the first 64-byte boundary of `buf`.
    fn lead(buf: &[i8]) -> usize {
        buf.as_ptr()
            .align_offset(I8_PANEL_ALIGN)
            .min(I8_PANEL_ALIGN - 1)
    }

    /// The aligned panel bytes inside `buf`.
    fn aligned_mut(buf: &mut [i8], k: usize, n: usize) -> &mut [i8] {
        let lead = Self::lead(buf);
        &mut buf[lead..lead + Self::codes_len(k, n)]
    }

    /// `(k, n)` shape of the logical weight matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.k, self.n)
    }

    /// The code of `w[p][j]`.
    ///
    /// # Panics
    ///
    /// Panics if `(p, j)` is outside `[k, n]`.
    pub fn get(&self, p: usize, j: usize) -> i8 {
        assert!(
            p < self.k && j < self.n,
            "({p}, {j}) outside {:?}",
            self.shape()
        );
        let kq = self.k.div_ceil(I8_PANEL_DEPTH);
        let (t, c) = (j / I8_PANEL_COLS, j % I8_PANEL_COLS);
        let (q, s) = (p / I8_PANEL_DEPTH, p % I8_PANEL_DEPTH);
        self.codes()[((t * kq + q) * I8_PANEL_COLS + c) * I8_PANEL_DEPTH + s]
    }

    /// Storage in bytes: the padded panels plus the column sums.
    pub fn size_bytes(&self) -> usize {
        self.buf.len() + size_of_val(self.colsum128.as_slice())
    }

    /// The panel bytes, `[n/16][k/4][16][4]`, starting on a 64-byte
    /// boundary.
    pub(crate) fn codes(&self) -> &[i8] {
        let lead = Self::lead(&self.buf);
        &self.buf[lead..lead + Self::codes_len(self.k, self.n)]
    }

    /// `128 · Σ_p w[p][j]` per column, padded to whole panels.
    pub(crate) fn colsum128(&self) -> &[i32] {
        &self.colsum128
    }
}

impl Clone for PackedI8 {
    /// A copy whose panels are aligned within its own buffer (the
    /// lead-in depends on where the allocation lands).
    fn clone(&self) -> Self {
        let mut copy = Self::zeroed(self.k, self.n);
        Self::aligned_mut(&mut copy.buf, self.k, self.n).copy_from_slice(self.codes());
        copy.colsum128.copy_from_slice(&self.colsum128);
        copy
    }
}

/// Quantize-and-pack loop behind [`PackedI8::pack`], shared by the
/// plain and `avx2`-target-feature compilations picked in
/// [`simd::pack_i8`]. `codes` and `colsum` arrive zeroed and sized for
/// whole panels.
#[inline(always)]
pub(crate) fn pack_i8_body<T: Copy>(
    src: &[T],
    k: usize,
    n: usize,
    code: impl Fn(T) -> i8,
    codes: &mut [i8],
    colsum: &mut [i32],
) {
    let quad_len = I8_PANEL_COLS * I8_PANEL_DEPTH;
    let panel_len = k.div_ceil(I8_PANEL_DEPTH) * quad_len;
    for (p, row) in src.chunks_exact(n.max(1)).take(k).enumerate() {
        let (q, s) = (p / I8_PANEL_DEPTH, p % I8_PANEL_DEPTH);
        for (t, (chunk, sums)) in row
            .chunks(I8_PANEL_COLS)
            .zip(colsum.chunks_exact_mut(I8_PANEL_COLS))
            .enumerate()
        {
            let quad = &mut codes[t * panel_len + q * quad_len..][..quad_len];
            for ((&v, cs), dst) in chunk
                .iter()
                .zip(sums.iter_mut())
                .zip(quad.chunks_exact_mut(I8_PANEL_DEPTH))
            {
                let c = code(v);
                dst[s] = c;
                *cs += i32::from(c);
            }
        }
    }
    for cs in colsum.iter_mut() {
        *cs = cs.wrapping_mul(128);
    }
}

/// Quantized matrix multiply with the dequantization epilogue fused
/// in, over packed weights:
///
/// ```text
/// out[i][j] (+)= (scales[i] · sw) · ((acc[i][j] − zw · sums[i]) as f32)
/// acc[i][j]     = Σ_p a[i][p] · w[p][j]          (i8 × i8 → i32)
/// ```
///
/// `a` is row-major `[m, k]` activation codes; `scales` and `sums` are
/// their per-row quantization parameters (`QuantizedRows`), `sw`/`zw`
/// the weight scale and zero point. With `accumulate`, contributions
/// are added on top of `out` (`gates += wh·h` in the quantized LSTM);
/// otherwise `out` is overwritten. `m = 1` is the single-row GEMV
/// serving runs; the SIMD tiers block rows for larger `m`.
///
/// Dispatches to the AVX-512 VNNI, AVX2 or scalar tier
/// ([`active_int8_isa`]); the i32 accumulators stay in registers. The
/// integer sums and the correction use wrapping i32 arithmetic and the
/// i32 → f32 conversion rounds to nearest even on every tier, so all
/// tiers are bitwise-identical (see [`PackedI8`] for the VNNI shift
/// identity).
///
/// The worst-case product is `(−128) · (−128) = 16 384`, so the exact
/// sum fits i32 only up to `k =` [`MAX_GEMM_I8_K`] `= 131 071` terms; a
/// `debug_assert!` enforces the bound here.
///
/// # Panics
///
/// Panics if the slice lengths do not match `m·k`, `m·n`, and `m` for
/// `scales` / `sums`, with `(k, n) = w.shape()`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_i8_packed(
    a: &[i8],
    w: &PackedI8,
    m: usize,
    scales: &[f32],
    sums: &[i32],
    sw: f32,
    zw: i32,
    out: &mut [f32],
    accumulate: bool,
) {
    gemm_i8_packed_on(
        active_int8_isa(),
        a,
        w,
        m,
        scales,
        sums,
        sw,
        zw,
        out,
        accumulate,
    );
}

/// [`gemm_i8_packed`] on an explicit tier (the tier tests call every
/// tier the host has).
///
/// # Panics
///
/// As [`gemm_i8_packed`], and if the host cannot run `isa`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_i8_packed_on(
    isa: Int8Isa,
    a: &[i8],
    w: &PackedI8,
    m: usize,
    scales: &[f32],
    sums: &[i32],
    sw: f32,
    zw: i32,
    out: &mut [f32],
    accumulate: bool,
) {
    let (k, n) = w.shape();
    assert_eq!(a.len(), m * k, "gemm_i8_packed lhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm_i8_packed output length mismatch");
    assert_eq!(scales.len(), m, "gemm_i8_packed scales length mismatch");
    assert_eq!(sums.len(), m, "gemm_i8_packed sums length mismatch");
    debug_assert!(
        k <= MAX_GEMM_I8_K,
        "gemm_i8_packed depth {k} exceeds the i32 overflow bound {MAX_GEMM_I8_K}"
    );
    note_gemm_i8(m, n, k);
    simd::gemm_i8_packed_on(isa, a, w, m, scales, sums, sw, zw, out, accumulate);
}

/// Scalar tier of [`gemm_i8_packed`] and the golden reference for the
/// SIMD tiers: per row and panel, 16 i32 accumulators sweep the
/// panel's quads in order, then the shared epilogue.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scalar_gemm_i8_packed(
    a: &[i8],
    codes: &[i8],
    m: usize,
    n: usize,
    k: usize,
    scales: &[f32],
    sums: &[i32],
    sw: f32,
    zw: i32,
    out: &mut [f32],
    accumulate: bool,
) {
    let quad_len = I8_PANEL_COLS * I8_PANEL_DEPTH;
    let panel_len = k.div_ceil(I8_PANEL_DEPTH) * quad_len;
    for i in 0..m {
        let row = &a[i * k..(i + 1) * k];
        let corr = zw.wrapping_mul(sums[i]);
        let sc = scales[i] * sw;
        let orow = &mut out[i * n..(i + 1) * n];
        for (t, ochunk) in orow.chunks_mut(I8_PANEL_COLS).enumerate() {
            let panel = &codes[t * panel_len..(t + 1) * panel_len];
            let mut acc = [0i32; I8_PANEL_COLS];
            for (xq, quad) in row.chunks(I8_PANEL_DEPTH).zip(panel.chunks_exact(quad_len)) {
                // Zero-padded past `k`, like the panel: fixed-size
                // dots the compiler can vectorize across the columns.
                let mut x = [0i32; I8_PANEL_DEPTH];
                for (xs, &v) in x.iter_mut().zip(xq) {
                    *xs = i32::from(v);
                }
                for (c, w) in acc.iter_mut().zip(quad.chunks_exact(I8_PANEL_DEPTH)) {
                    let dot = x[0] * i32::from(w[0])
                        + x[1] * i32::from(w[1])
                        + x[2] * i32::from(w[2])
                        + x[3] * i32::from(w[3]);
                    *c = c.wrapping_add(dot);
                }
            }
            for (o, &c) in ochunk.iter_mut().zip(&acc) {
                let v = sc * (c.wrapping_sub(corr)) as f32;
                *o = if accumulate { *o + v } else { v };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::thread_rng;
    use crate::rng::{Rng, SeedableRng, StdRng};

    const LAYOUTS: [Layout; 3] = [Layout::NN, Layout::TN, Layout::NT];

    fn operands(
        m: usize,
        n: usize,
        k: usize,
        layout: Layout,
        rng: &mut impl Rng,
    ) -> (Tensor2, Tensor2) {
        let (ashape, bshape) = match layout {
            Layout::NN => ((m, k), (k, n)),
            Layout::TN => ((k, m), (k, n)),
            Layout::NT => ((m, k), (n, k)),
        };
        (
            Tensor2::uniform(ashape.0, ashape.1, 1.0, rng),
            Tensor2::uniform(bshape.0, bshape.1, 1.0, rng),
        )
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}: length");
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx} at {i}: {x} != {y}");
        }
    }

    #[test]
    fn blocked_matches_naive_bitwise_across_shapes() {
        let mut rng = thread_rng();
        // Includes sizes below, at, above, and far from tile multiples.
        let shapes = [
            (1, 1, 1),
            (2, 3, 4),
            (4, 8, 16),
            (5, 9, 7),
            (7, 17, 13),
            (12, 24, 32),
            (33, 65, 31),
            (64, 64, 64),
        ];
        for layout in LAYOUTS {
            for &(m, n, k) in &shapes {
                let (a, b) = operands(m, n, k, layout, &mut rng);
                let mut blocked = Tensor2::zeros(1, 1);
                let mut naive = Tensor2::zeros(1, 1);
                gemm(&a, &b, layout, &mut blocked);
                naive_gemm(&a, &b, layout, &mut naive);
                assert_eq!(blocked.shape(), (m, n));
                assert_bits_eq(
                    blocked.as_slice(),
                    naive.as_slice(),
                    &format!("{layout:?} {m}x{n}x{k}"),
                );
            }
        }
    }

    #[test]
    fn simd_matches_scalar_bitwise_per_layout_and_tail() {
        let _guard = simd::test_toggle_lock();
        let mut rng = thread_rng();
        // Shapes hitting full tiles and every (mr, nr) tail class of
        // every tier's tile: 4x8 scalar, 6x16 AVX2, 8x32 AVX-512,
        // 4x8 NEON — plus k values below and above the tile heights.
        let shapes = [
            (1, 1, 1),
            (2, 3, 4),
            (3, 5, 2),
            (4, 8, 5),
            (5, 9, 7),
            (6, 16, 3),
            (7, 17, 13),
            (8, 32, 4),
            (9, 33, 5),
            (11, 31, 17),
            (12, 24, 32),
            (13, 40, 21),
            (16, 48, 64),
            (33, 65, 31),
        ];
        for layout in LAYOUTS {
            for &(m, n, k) in &shapes {
                let (a, b) = operands(m, n, k, layout, &mut rng);
                let mut fast = Tensor2::zeros(1, 1);
                gemm(&a, &b, layout, &mut fast);
                set_force_scalar(true);
                let mut slow = Tensor2::zeros(1, 1);
                gemm(&a, &b, layout, &mut slow);
                set_force_scalar(false);
                assert_bits_eq(
                    fast.as_slice(),
                    slow.as_slice(),
                    &format!("{layout:?} {m}x{n}x{k} ({})", detected_isa().name()),
                );
            }
        }
    }

    #[test]
    fn acc_is_bitwise_identical_across_dispatch() {
        let _guard = simd::test_toggle_lock();
        let mut rng = thread_rng();
        for layout in LAYOUTS {
            let (a, b) = operands(7, 17, 13, layout, &mut rng);
            let (c, d) = operands(7, 17, 5, layout, &mut rng);
            let mut fast = Tensor2::zeros(1, 1);
            gemm(&a, &b, layout, &mut fast);
            gemm_acc(&c, &d, layout, &mut fast);
            set_force_scalar(true);
            let mut slow = Tensor2::zeros(1, 1);
            gemm(&a, &b, layout, &mut slow);
            gemm_acc(&c, &d, layout, &mut slow);
            set_force_scalar(false);
            assert_bits_eq(fast.as_slice(), slow.as_slice(), &format!("{layout:?}"));
        }
    }

    #[test]
    fn acc_adds_on_top_of_existing_output() {
        let mut rng = thread_rng();
        for layout in LAYOUTS {
            let (a, b) = operands(6, 10, 5, layout, &mut rng);
            let (c, d) = operands(6, 10, 3, layout, &mut rng);
            let mut fused = Tensor2::zeros(1, 1);
            gemm(&a, &b, layout, &mut fused);
            gemm_acc(&c, &d, layout, &mut fused);
            let mut first = Tensor2::zeros(1, 1);
            let mut second = Tensor2::zeros(1, 1);
            gemm(&a, &b, layout, &mut first);
            gemm(&c, &d, layout, &mut second);
            for ((f, x), y) in fused
                .as_slice()
                .iter()
                .zip(first.as_slice())
                .zip(second.as_slice())
            {
                assert_eq!(f.to_bits(), (x + y).to_bits(), "{layout:?}");
            }
        }
    }

    #[test]
    fn row_partition_is_bitwise_identical_to_whole_call() {
        let mut rng = thread_rng();
        for layout in LAYOUTS {
            let (m, n, k) = (13, 11, 9);
            let (a, b) = operands(m, n, k, layout, &mut rng);
            let mut whole = Tensor2::zeros(1, 1);
            gemm(&a, &b, layout, &mut whole);
            // Uneven three-way partition.
            let mut parts = vec![0.0f32; m * n];
            for (lo, hi) in [(0usize, 5usize), (5, 6), (6, m)] {
                gemm_rows(&a, &b, layout, lo..hi, &mut parts[lo * n..hi * n]);
            }
            assert_bits_eq(whole.as_slice(), &parts, &format!("{layout:?}"));
        }
    }

    #[test]
    fn gemm_rows_empty_and_unaligned_ranges_are_exact() {
        let _guard = simd::test_toggle_lock();
        let mut rng = thread_rng();
        let (m, n, k) = (19, 23, 11);
        for layout in LAYOUTS {
            let (a, b) = operands(m, n, k, layout, &mut rng);
            let mut whole = Tensor2::zeros(1, 1);
            gemm(&a, &b, layout, &mut whole);
            for force in [false, true] {
                set_force_scalar(force);
                // Degenerate (empty) ranges: no output, no panic.
                for lo in [0usize, 7, m] {
                    let mut empty: [f32; 0] = [];
                    gemm_rows(&a, &b, layout, lo..lo, &mut empty);
                }
                // Partition at cuts not aligned to any tier's tile
                // height (1- and 6-row blocks, plus tails) — exercises
                // the clipped tail store of every tile shape.
                let cuts = [0usize, 1, 6, 7, 13, m];
                let mut parts = vec![0.0f32; m * n];
                for w in cuts.windows(2) {
                    gemm_rows(&a, &b, layout, w[0]..w[1], &mut parts[w[0] * n..w[1] * n]);
                }
                assert_bits_eq(
                    whole.as_slice(),
                    &parts,
                    &format!("{layout:?} force_scalar={force}"),
                );
            }
            set_force_scalar(false);
        }
    }

    #[test]
    fn property_random_shapes_agree_across_dispatch_paths() {
        let _guard = simd::test_toggle_lock();
        // Seeded loop: deterministic shapes and data, byte-stable
        // across hosts (splitmix64), so a failure reproduces exactly.
        let mut rng = StdRng::seed_from_u64(0x9E37_79B9_7F4A_7C15);
        for round in 0..48 {
            let m = rng.gen_range(1..40u64) as usize;
            let n = rng.gen_range(1..72u64) as usize;
            let k = rng.gen_range(1..48u64) as usize;
            let layout = LAYOUTS[(round % 3) as usize];
            let (a, b) = operands(m, n, k, layout, &mut rng);
            let mut fast = Tensor2::zeros(1, 1);
            gemm(&a, &b, layout, &mut fast);
            set_force_scalar(true);
            let mut slow = Tensor2::zeros(1, 1);
            gemm(&a, &b, layout, &mut slow);
            set_force_scalar(false);
            let mut reference = Tensor2::zeros(1, 1);
            naive_gemm(&a, &b, layout, &mut reference);
            let ctx = format!("round {round} {layout:?} {m}x{n}x{k}");
            assert_bits_eq(fast.as_slice(), slow.as_slice(), &ctx);
            assert_bits_eq(fast.as_slice(), reference.as_slice(), &ctx);
        }
    }

    #[test]
    fn packed_b_cache_is_bitwise_invisible() {
        // Repeated GEMMs against the same weight tensor promote its
        // packed panels into the cache; every repeat must be
        // bitwise-identical to the first (fresh-pack) call and to the
        // naive reference, and mutating the weight must be picked up.
        let mut rng = StdRng::seed_from_u64(0xCAC4E);
        for layout in LAYOUTS {
            let (a, mut b) = operands(7, 33, 17, layout, &mut rng);
            let mut reference = Tensor2::zeros(1, 1);
            naive_gemm(&a, &b, layout, &mut reference);
            let mut first = Tensor2::zeros(1, 1);
            gemm(&a, &b, layout, &mut first);
            assert_bits_eq(first.as_slice(), reference.as_slice(), "first call");
            for round in 0..4 {
                let mut again = Tensor2::zeros(1, 1);
                gemm(&a, &b, layout, &mut again);
                assert_bits_eq(
                    again.as_slice(),
                    reference.as_slice(),
                    &format!("{layout:?} cached round {round}"),
                );
            }
            // Invalidate: new bytes, new version, new results.
            b.row_mut(0)[0] += 1.0;
            let mut reference2 = Tensor2::zeros(1, 1);
            naive_gemm(&a, &b, layout, &mut reference2);
            for round in 0..3 {
                let mut got = Tensor2::zeros(1, 1);
                gemm(&a, &b, layout, &mut got);
                assert_bits_eq(
                    got.as_slice(),
                    reference2.as_slice(),
                    &format!("{layout:?} post-mutation round {round}"),
                );
            }
        }
    }

    #[test]
    fn gemm_slices_matches_tensor_entry_bitwise() {
        let _guard = simd::test_toggle_lock();
        let mut rng = StdRng::seed_from_u64(0x51_1CE5);
        for layout in LAYOUTS {
            for &(m, n, k) in &[
                (1usize, 256usize, 64usize),
                (5, 9, 7),
                (1, 1, 1),
                (4, 33, 16),
            ] {
                let (a, b) = operands(m, n, k, layout, &mut rng);
                let mut whole = Tensor2::zeros(1, 1);
                gemm(&a, &b, layout, &mut whole);
                for force in [false, true] {
                    set_force_scalar(force);
                    let mut out = vec![0.0f32; m * n];
                    gemm_slices(a.as_slice(), b.as_slice(), layout, m, n, k, &mut out, false);
                    assert_bits_eq(
                        &out,
                        whole.as_slice(),
                        &format!("{layout:?} {m}x{n}x{k} force={force}"),
                    );
                    // Accumulate path: adds exactly one more product.
                    gemm_slices(a.as_slice(), b.as_slice(), layout, m, n, k, &mut out, true);
                    let doubled: Vec<f32> = whole.as_slice().iter().map(|&v| v + v).collect();
                    assert_bits_eq(&out, &doubled, &format!("{layout:?} acc force={force}"));
                }
                set_force_scalar(false);
            }
        }
    }

    #[test]
    fn degenerate_shapes_are_handled() {
        let a = Tensor2::zeros(0, 3);
        let b = Tensor2::zeros(3, 4);
        let mut out = Tensor2::zeros(1, 1);
        gemm(&a, &b, Layout::NN, &mut out);
        assert_eq!(out.shape(), (0, 4));

        let a = Tensor2::zeros(2, 0);
        let b = Tensor2::zeros(0, 4);
        gemm(&a, &b, Layout::NN, &mut out);
        assert_eq!(out.shape(), (2, 4));
        assert!(out.as_slice().iter().all(|&v| v == 0.0));

        let a = Tensor2::zeros(2, 3);
        let b = Tensor2::zeros(3, 0);
        gemm(&a, &b, Layout::NN, &mut out);
        assert_eq!(out.shape(), (2, 0));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mismatched_shapes_panic() {
        let a = Tensor2::zeros(2, 3);
        let b = Tensor2::zeros(4, 5);
        let mut out = Tensor2::zeros(1, 1);
        gemm(&a, &b, Layout::NN, &mut out);
    }

    fn random_codes(len: usize, rng: &mut impl Rng) -> Vec<i8> {
        (0..len)
            .map(|_| rng.gen_range(-128i32..=127) as i8)
            .collect()
    }

    fn row_sums(a: &[i8], k: usize) -> Vec<i32> {
        a.chunks_exact(k.max(1))
            .map(|row| row.iter().map(|&v| i32::from(v)).sum())
            .collect()
    }

    /// Plain integer reference: exact `Σ_p a[i][p] · w[p][j]` over
    /// row-major `a [m, k]` and `w [k, n]`.
    fn i8_reference(a: &[i8], w: &[i8], m: usize, n: usize, k: usize) -> Vec<i64> {
        let mut acc = vec![0i64; m * n];
        for i in 0..m {
            for p in 0..k {
                let x = i64::from(a[i * k + p]);
                for (o, &y) in acc[i * n..(i + 1) * n]
                    .iter_mut()
                    .zip(&w[p * n..(p + 1) * n])
                {
                    *o += x * i64::from(y);
                }
            }
        }
        acc
    }

    /// The documented epilogue applied to reference sums: the values
    /// every tier must reproduce bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn dequant_reference(
        acc: &[i64],
        n: usize,
        scales: &[f32],
        sums: &[i32],
        sw: f32,
        zw: i32,
        base: &[f32],
        accumulate: bool,
    ) -> Vec<f32> {
        let mut want = base.to_vec();
        for (i, orow) in want.chunks_mut(n.max(1)).enumerate() {
            let corr = zw.wrapping_mul(sums[i]);
            let sc = scales[i] * sw;
            for (o, &x) in orow.iter_mut().zip(&acc[i * n..(i + 1) * n]) {
                let v = sc * ((x as i32).wrapping_sub(corr)) as f32;
                *o = if accumulate { *o + v } else { v };
            }
        }
        want
    }

    fn host_tiers() -> Vec<Int8Isa> {
        Int8Isa::ALL.into_iter().filter(|t| t.supported()).collect()
    }

    #[test]
    fn packed_i8_layout_round_trips_with_padding_and_column_sums() {
        let mut rng = StdRng::seed_from_u64(0x9AC4);
        for &(k, n) in &[(1usize, 1usize), (3, 15), (4, 16), (5, 17), (9, 40)] {
            let w = random_codes(k * n, &mut rng);
            let packed = PackedI8::from_codes(k, n, &w);
            assert_eq!(packed.shape(), (k, n));
            let panels = n.div_ceil(I8_PANEL_COLS);
            let depth = k.div_ceil(I8_PANEL_DEPTH) * I8_PANEL_DEPTH;
            assert_eq!(packed.codes().len(), panels * depth * I8_PANEL_COLS);
            assert_eq!(
                packed.codes().as_ptr().align_offset(64),
                0,
                "panels are aligned"
            );
            let copy = packed.clone();
            assert_eq!(copy.codes(), packed.codes());
            assert_eq!(copy.colsum128(), packed.colsum128());
            assert_eq!(copy.codes().as_ptr().align_offset(64), 0);
            assert_eq!(packed.colsum128().len(), panels * I8_PANEL_COLS);
            for p in 0..k {
                for j in 0..n {
                    assert_eq!(packed.get(p, j), w[p * n + j], "({p}, {j}) of {k}x{n}");
                }
            }
            // Padding: only real codes are nonzero-able, so the panel
            // bytes sum to the codes' sum, and padded columns sum to 0.
            let total: i64 = packed.codes().iter().map(|&c| i64::from(c)).sum();
            assert_eq!(total, w.iter().map(|&c| i64::from(c)).sum::<i64>());
            for (j, &cs) in packed.colsum128().iter().enumerate() {
                let want: i32 = (0..k)
                    .map(|p| if j < n { i32::from(w[p * n + j]) } else { 0 })
                    .sum();
                assert_eq!(cs, 128 * want, "column {j}");
            }
        }
    }

    #[test]
    fn packed_i8_tiers_match_integer_reference_property() {
        let _guard = simd::test_toggle_lock();
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        {
            // A host with the instructions must run their tiers here.
            if is_x86_feature_detected!("avx2") {
                assert!(Int8Isa::Avx2.supported());
            }
            if is_x86_feature_detected!("avx512vnni") && is_x86_feature_detected!("avx512bw") {
                assert!(Int8Isa::Avx512Vnni.supported());
            }
        }
        let tiers = host_tiers();
        assert_eq!(tiers[0], Int8Isa::Scalar);
        let mut rng = StdRng::seed_from_u64(0x1_8BAD_5EED);
        for &k in &[1usize, 2, 3, 4, 5, 80, 128] {
            for &n in &[1usize, 15, 16, 17, 63, 64, 8192] {
                // Extreme weight codes in the first and last columns.
                let mut w = random_codes(k * n, &mut rng);
                for p in 0..k {
                    w[p * n] = -128;
                    w[p * n + n - 1] = 127;
                }
                let packed = PackedI8::from_codes(k, n, &w);
                for &m in &[1usize, 2, 3, 4, 5, 8, 64] {
                    // Row 0 all −128, row 1 all zero, row 2 all 127.
                    let mut a = random_codes(m * k, &mut rng);
                    for (i, row) in a.chunks_mut(k).enumerate().take(3) {
                        row.fill([-128, 0, 127][i]);
                    }
                    let sums = row_sums(&a, k);
                    // Unit scales on even rows keep the output an exact
                    // image of the integer sums; odd rows exercise the
                    // scale multiply.
                    let scales: Vec<f32> = (0..m)
                        .map(|i| {
                            if i % 2 == 0 {
                                1.0
                            } else {
                                0.01 + i as f32 * 0.003
                            }
                        })
                        .collect();
                    let zw = rng.gen_range(-128i32..=127);
                    let acc = i8_reference(&a, &w, m, n, k);
                    for accumulate in [false, true] {
                        let base: Vec<f32> =
                            (0..m * n).map(|x| (x % 97) as f32 * 0.25 - 9.0).collect();
                        let want =
                            dequant_reference(&acc, n, &scales, &sums, 1.0, zw, &base, accumulate);
                        let mut scalar = base.clone();
                        gemm_i8_packed_on(
                            Int8Isa::Scalar,
                            &a,
                            &packed,
                            m,
                            &scales,
                            &sums,
                            1.0,
                            zw,
                            &mut scalar,
                            accumulate,
                        );
                        let ctx = format!("{m}x{n}x{k} accumulate={accumulate}");
                        assert_bits_eq(&scalar, &want, &format!("scalar {ctx}"));
                        for &tier in &tiers[1..] {
                            let mut got = base.clone();
                            gemm_i8_packed_on(
                                tier, &a, &packed, m, &scales, &sums, 1.0, zw, &mut got, accumulate,
                            );
                            assert_bits_eq(&got, &scalar, &format!("{} {ctx}", tier.name()));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_i8_matches_integer_reference() {
        let mut rng = thread_rng();
        for &(m, n, k) in &[(1usize, 1usize, 1usize), (3, 5, 4), (4, 7, 9), (2, 16, 33)] {
            let a = random_codes(m * k, &mut rng);
            let b = random_codes(k * n, &mut rng);
            let packed = PackedI8::from_codes(k, n, &b);
            let sums = row_sums(&a, k);
            let scales = vec![1.0f32; m];
            let mut out = vec![1.0f32; m * n]; // nonzero: must be overwritten
            gemm_i8_packed(&a, &packed, m, &scales, &sums, 1.0, 0, &mut out, false);
            let want = i8_reference(&a, &b, m, n, k);
            for (i, (&got, &want)) in out.iter().zip(&want).enumerate() {
                assert_eq!(got, want as f32, "({m},{n},{k}) at {i}");
            }
        }
    }

    #[test]
    fn gemm_i8_boundary_depth_is_exact() {
        let _guard = simd::test_toggle_lock();
        // Worst-case magnitudes at the documented depth limit. Every
        // weight is −128 except `w[0][j] = −128 + j`; with zw = −128
        // the output is `x · j` exactly, while the raw accumulator runs
        // at the bound (x = −128: 131 071 · 16 384 = 2 147 467 264,
        // just below i32::MAX) and the VNNI tier's shifted sums wrap.
        // n = 16 fills one panel, n = 1 and 17 leave padded tails.
        let k = MAX_GEMM_I8_K;
        assert!((k as i64 * 16_384) <= i32::MAX as i64, "bound fits i32");
        for n in [1usize, 16, 17] {
            let mut w = vec![-128i8; k * n];
            for (j, c) in w[..n].iter_mut().enumerate() {
                *c = (-128 + j as i32) as i8;
            }
            let packed = PackedI8::from_codes(k, n, &w);
            for x in [-128i8, 127] {
                let a = vec![x; k];
                let sums = [i32::from(x) * k as i32];
                let want: Vec<f32> = (0..n).map(|j| (i32::from(x) * j as i32) as f32).collect();
                for tier in host_tiers() {
                    let mut out = vec![0.0f32; n];
                    gemm_i8_packed_on(
                        tier,
                        &a,
                        &packed,
                        1,
                        &[1.0],
                        &sums,
                        1.0,
                        -128,
                        &mut out,
                        false,
                    );
                    assert_bits_eq(&out, &want, &format!("n={n} x={x} {}", tier.name()));
                }
                for force in [false, true] {
                    set_force_scalar(force);
                    let mut out = vec![0.0f32; n];
                    gemm_i8_packed(&a, &packed, 1, &[1.0], &sums, 1.0, -128, &mut out, false);
                    assert_bits_eq(&out, &want, &format!("n={n} x={x} force={force}"));
                }
            }
        }
        set_force_scalar(false);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn gemm_i8_depth_beyond_bound_is_rejected_in_debug() {
        let k = MAX_GEMM_I8_K + 1;
        let packed = PackedI8::from_codes(k, 1, &vec![0i8; k]);
        let r = std::panic::catch_unwind(|| {
            let a = vec![0i8; k];
            let mut out = vec![0.0f32; 1];
            gemm_i8_packed(&a, &packed, 1, &[1.0], &[0], 1.0, 0, &mut out, false);
        });
        assert!(r.is_err());
    }

    #[test]
    fn gemm_i8_dequant_matches_unfused_reference_across_dispatch() {
        let _guard = simd::test_toggle_lock();
        let mut rng = StdRng::seed_from_u64(42);
        let sw = 0.031_25f32;
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (1, 16, 8),
            (2, 17, 9),
            (3, 33, 5),
            (4, 40, 21),
            (9, 70, 13),
        ] {
            let a = random_codes(m * k, &mut rng);
            let b = random_codes(k * n, &mut rng);
            let packed = PackedI8::from_codes(k, n, &b);
            let scales: Vec<f32> = (0..m).map(|i| 0.01 + i as f32 * 0.003).collect();
            let sums = row_sums(&a, k);
            let zw = rng.gen_range(-5i32..=5);
            // Unfused reference: integer GEMM, then the epilogue.
            let acc = i8_reference(&a, &b, m, n, k);
            for accumulate in [false, true] {
                let base: Vec<f32> = (0..m * n).map(|x| x as f32 * 0.5 - 7.0).collect();
                let want = dequant_reference(&acc, n, &scales, &sums, sw, zw, &base, accumulate);
                for force in [false, true] {
                    set_force_scalar(force);
                    let mut got = base.clone();
                    gemm_i8_packed(&a, &packed, m, &scales, &sums, sw, zw, &mut got, accumulate);
                    assert_bits_eq(
                        &got,
                        &want,
                        &format!("{m}x{n}x{k} accumulate={accumulate} force={force}"),
                    );
                }
            }
        }
        set_force_scalar(false);
    }

    #[test]
    fn gemm_i8_rejects_bad_lengths() {
        let packed = PackedI8::from_codes(2, 2, &[3, 4, 5, 6]);
        let r = std::panic::catch_unwind(|| {
            let mut out = vec![0.0f32; 4];
            gemm_i8_packed(
                &[1, 2],
                &packed,
                2,
                &[1.0; 2],
                &[0; 2],
                1.0,
                0,
                &mut out,
                false,
            );
        });
        assert!(r.is_err());
        let r = std::panic::catch_unwind(|| PackedI8::from_codes(2, 3, &[1, 2, 3]));
        assert!(r.is_err());
    }

    #[cfg(feature = "obs")]
    #[test]
    fn int8_metrics_tally_calls_and_ops() {
        let a = vec![1i8; 4 * 8];
        let b = PackedI8::from_codes(8, 16, &[1i8; 8 * 16]);
        let mut out = vec![0.0f32; 4 * 16];
        let calls0 = int8_gemm_invocations();
        let ops0 = int8_gemm_ops();
        gemm_i8_packed(&a, &b, 4, &[1.0; 4], &[8; 4], 1.0, 0, &mut out, false);
        assert!(int8_gemm_invocations() > calls0);
        assert!(int8_gemm_ops() >= ops0 + 2 * 4 * 16 * 8);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn kernel_metrics_tally_calls_and_flops() {
        // Other tests run GEMMs concurrently, so assert on deltas of
        // locally-known work rather than absolute values.
        let a = Tensor2::zeros(4, 8);
        let b = Tensor2::zeros(8, 16);
        let mut out = Tensor2::zeros(4, 16);
        let calls0 = gemm_invocations();
        let flops0 = gemm_flops();
        gemm(&a, &b, Layout::NN, &mut out);
        gemm_acc(&a, &b, Layout::NN, &mut out);
        assert!(gemm_invocations() >= calls0 + 2);
        assert!(gemm_flops() >= flops0 + 2 * 2 * 4 * 16 * 8);
    }
}
