//! x86-64 micro-kernels: AVX2/FMA and AVX-512F register tiles for
//! f32 GEMM, plus the AVX-512 VNNI and AVX2 tiers of the packed int8
//! GEMM.
//!
//! Every function here is a safe `#[target_feature]` function: the
//! arithmetic intrinsics are safe to use once the feature is enabled,
//! and the pointer loads/stores are wrapped in `unsafe` blocks whose
//! bounds are established by slice ops immediately above them. The
//! *callers* (the dispatch sites in `simd::dispatch_tile` and
//! `kernels`) carry the `// SAFETY:` obligations that the CPU really
//! has the feature — dispatch only selects these after
//! `is_x86_feature_detected!` succeeds.
//!
//! Identity contract: the f32 tiles accumulate each output element
//! over `p` in ascending order with `vfmadd` — the same correctly
//! rounded fused multiply-add the scalar reference performs with
//! `f32::mul_add` — so results are bitwise-identical to the scalar
//! path. The int8 kernels compute the same wrapping i32 sums as the
//! scalar packed kernel (see `kernels::PackedI8` for the layout and
//! the `u8` shift identity) and share its epilogue, operation for
//! operation.

use super::store_clipped;
use crate::kernels::{I8_PANEL_COLS as COLS, I8_PANEL_DEPTH as QUAD};
use std::arch::x86_64::{
    __m256i, __m512i, _mm256_add_epi32, _mm256_add_ps, _mm256_cvtepi32_ps, _mm256_cvtepi8_epi16,
    _mm256_fmadd_ps, _mm256_hadd_epi32, _mm256_loadu_ps, _mm256_madd_epi16, _mm256_mul_ps,
    _mm256_permute4x64_epi64, _mm256_set1_epi32, _mm256_set1_epi64x, _mm256_set1_ps,
    _mm256_setzero_ps, _mm256_setzero_si256, _mm256_storeu_ps, _mm256_sub_epi32, _mm512_add_ps,
    _mm512_cvtepi32_ps, _mm512_dpbusd_epi32, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_loadu_si512,
    _mm512_mul_ps, _mm512_set1_epi32, _mm512_set1_ps, _mm512_setzero_ps, _mm512_setzero_si512,
    _mm512_storeu_ps, _mm512_sub_epi32, _mm_loadu_si128,
};

/// AVX2/FMA f32 register tile: MR = 6 rows × NR = 16 columns held in
/// twelve ymm accumulators. `ap` is a `[k][6]` packed A panel, `bp` a
/// `[k][16]` packed B panel; `mr ≤ 6` / `nr ≤ 16` clip the store for
/// edge tiles (padded lanes are computed but never stored).
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
pub(crate) fn tile_f32_avx2(
    ap: &[f32],
    bp: &[f32],
    k: usize,
    out: &mut [f32],
    r0: usize,
    mr: usize,
    j0: usize,
    n: usize,
    nr: usize,
    acc: bool,
) {
    let mut c = [[_mm256_setzero_ps(); 2]; 6];
    for (bs, av) in bp.chunks_exact(16).zip(ap.chunks_exact(6)).take(k) {
        // SAFETY: `chunks_exact(16)` yields slices of exactly 16 f32s,
        // so both unaligned 8-lane loads stay in bounds.
        let (b0, b1) = unsafe {
            (
                _mm256_loadu_ps(bs.as_ptr()),
                _mm256_loadu_ps(bs.as_ptr().add(8)),
            )
        };
        for (cr, &x) in c.iter_mut().zip(av) {
            let xv = _mm256_set1_ps(x);
            cr[0] = _mm256_fmadd_ps(xv, b0, cr[0]);
            cr[1] = _mm256_fmadd_ps(xv, b1, cr[1]);
        }
    }
    if mr == 6 && nr == 16 {
        for (r, cr) in c.iter().enumerate() {
            let start = (r0 + r) * n + j0;
            let dst = &mut out[start..start + 16];
            // SAFETY: `dst` is exactly 16 f32s by the slice op above.
            unsafe {
                let p = dst.as_mut_ptr();
                let (mut v0, mut v1) = (cr[0], cr[1]);
                if acc {
                    v0 = _mm256_add_ps(_mm256_loadu_ps(p), v0);
                    v1 = _mm256_add_ps(_mm256_loadu_ps(p.add(8)), v1);
                }
                _mm256_storeu_ps(p, v0);
                _mm256_storeu_ps(p.add(8), v1);
            }
        }
    } else {
        let mut spill = [0.0f32; 6 * 16];
        for (r, cr) in c.iter().enumerate() {
            // SAFETY: `spill` holds 6 rows of 16 f32s; `r < 6`.
            unsafe {
                _mm256_storeu_ps(spill.as_mut_ptr().add(r * 16), cr[0]);
                _mm256_storeu_ps(spill.as_mut_ptr().add(r * 16 + 8), cr[1]);
            }
        }
        store_clipped(&spill, 16, out, r0, mr, j0, n, nr, acc);
    }
}

/// AVX-512F f32 register tile: MR = 8 rows × NR = 32 columns in
/// sixteen zmm accumulators (wide enough to keep both FMA ports of a
/// server core busy). Same packing and identity contract as
/// [`tile_f32_avx2`].
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f")]
pub(crate) fn tile_f32_avx512(
    ap: &[f32],
    bp: &[f32],
    k: usize,
    out: &mut [f32],
    r0: usize,
    mr: usize,
    j0: usize,
    n: usize,
    nr: usize,
    acc: bool,
) {
    let mut c = [[_mm512_setzero_ps(); 2]; 8];
    for (bs, av) in bp.chunks_exact(32).zip(ap.chunks_exact(8)).take(k) {
        // SAFETY: `chunks_exact(32)` yields slices of exactly 32 f32s,
        // so both unaligned 16-lane loads stay in bounds.
        let (b0, b1) = unsafe {
            (
                _mm512_loadu_ps(bs.as_ptr()),
                _mm512_loadu_ps(bs.as_ptr().add(16)),
            )
        };
        for (cr, &x) in c.iter_mut().zip(av) {
            let xv = _mm512_set1_ps(x);
            cr[0] = _mm512_fmadd_ps(xv, b0, cr[0]);
            cr[1] = _mm512_fmadd_ps(xv, b1, cr[1]);
        }
    }
    if mr == 8 && nr == 32 {
        for (r, cr) in c.iter().enumerate() {
            let start = (r0 + r) * n + j0;
            let dst = &mut out[start..start + 32];
            // SAFETY: `dst` is exactly 32 f32s by the slice op above.
            unsafe {
                let p = dst.as_mut_ptr();
                let (mut v0, mut v1) = (cr[0], cr[1]);
                if acc {
                    v0 = _mm512_add_ps(_mm512_loadu_ps(p), v0);
                    v1 = _mm512_add_ps(_mm512_loadu_ps(p.add(16)), v1);
                }
                _mm512_storeu_ps(p, v0);
                _mm512_storeu_ps(p.add(16), v1);
            }
        }
    } else {
        let mut spill = [0.0f32; 8 * 32];
        for (r, cr) in c.iter().enumerate() {
            // SAFETY: `spill` holds 8 rows of 32 f32s; `r < 8`.
            unsafe {
                _mm512_storeu_ps(spill.as_mut_ptr().add(r * 32), cr[0]);
                _mm512_storeu_ps(spill.as_mut_ptr().add(r * 32 + 16), cr[1]);
            }
        }
        store_clipped(&spill, 32, out, r0, mr, j0, n, nr, acc);
    }
}

/// Bytes of one quad of one packed int8 panel (see `kernels::PackedI8`).
const QUAD_BYTES: usize = COLS * QUAD;

/// Converts every row of `a [m, k]` into its `⌈k/4⌉` reduction quads,
/// one `u64` each via `quad`, zero-padding the last quad of a row
/// (the packed weights are zero there, so the pad never matters).
/// Done once per call, so the tile loops only load one broadcast value
/// per row and quad.
fn fill_quads(a: &[i8], k: usize, quads: &mut [u64], quad: impl Fn([i8; 4]) -> u64) {
    let kq = k.div_ceil(QUAD);
    for (dst, row) in quads
        .chunks_exact_mut(kq.max(1))
        .zip(a.chunks_exact(k.max(1)))
    {
        let mut chunks = row.chunks_exact(QUAD);
        for (d, c) in dst.iter_mut().zip(chunks.by_ref()) {
            *d = quad([c[0], c[1], c[2], c[3]]);
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut b = [0i8; 4];
            b[..tail.len()].copy_from_slice(tail);
            dst[kq - 1] = quad(b);
        }
    }
}

/// A quad shifted to `u8 = a + 128` (flipping each byte's sign bit),
/// as the little-endian i32 lane `vpdpbusd` takes.
fn quad_u8(b: [i8; 4]) -> u64 {
    u64::from(u32::from_le_bytes(b.map(|v| v as u8)) ^ 0x8080_8080)
}

/// A quad sign-extended to four little-endian i16 lanes, for the
/// 64-bit broadcast feeding `vpmaddwd`.
fn quad_i16(b: [i8; 4]) -> u64 {
    b.iter()
        .rev()
        .fold(0u64, |acc, &v| acc << 16 | u64::from(v as i16 as u16))
}

/// Writes the 16 dequantized values of one (row, panel) tile to
/// `orow[j0..]`, adding to the existing values when `accumulate`.
/// Columns at or past `orow.len()` (the zero-padded panel tail) are
/// dropped.
#[inline(always)]
fn store_panel(vals: &[f32; COLS], orow: &mut [f32], j0: usize, accumulate: bool) {
    let nr = COLS.min(orow.len() - j0);
    for (o, &v) in orow[j0..j0 + nr].iter_mut().zip(vals) {
        *o = if accumulate { *o + v } else { v };
    }
}

/// Shape and dequantization parameters shared by every tile of one
/// int8 GEMM call.
struct Epilogue<'a> {
    n: usize,
    scales: &'a [f32],
    sums: &'a [i32],
    sw: f32,
    zw: i32,
    accumulate: bool,
}

impl Epilogue<'_> {
    /// `(zw·sums[i], scales[i]·sw)` for output row `i` — the same
    /// expressions, in the same order, as the scalar kernel.
    #[inline(always)]
    fn row(&self, i: usize) -> (i32, f32) {
        (self.zw.wrapping_mul(self.sums[i]), self.scales[i] * self.sw)
    }
}

/// AVX-512 VNNI tier of the packed int8 GEMM with fused
/// dequantization (same contract as `kernels::gemm_i8_packed`).
///
/// Activations are shifted to `u8 = a + 128` so `vpdpbusd` can take
/// them as its unsigned operand: each i32 lane of a 16-column panel
/// accumulates `Σ u·w` over one reduction quad per instruction. The
/// shift adds `128·Σ_p w[p][j]` to column `j`, which the epilogue
/// subtracts (`colsum`) before the `zw·sums[i]` correction. Both run
/// in wrapping i32 arithmetic, so the result equals the exact
/// `Σ a·w − zw·sums[i]` modulo 2³², bit for bit the scalar kernel's.
///
/// Rows are blocked four at a time and panels four at a time, so one
/// weight load feeds up to four rows and one activation broadcast
/// feeds four panels (16 zmm accumulators).
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,avx512f,avx512bw,avx512vnni")]
pub(crate) fn gemm_i8_vnni(
    a: &[i8],
    codes: &[i8],
    colsum: &[i32],
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
    let e = Epilogue {
        n,
        scales,
        sums,
        sw,
        zw,
        accumulate,
    };
    let kq = k.div_ceil(QUAD);
    let mut quads = super::pack::take_i8_quads(m * kq);
    fill_quads(a, k, &mut quads, quad_u8);
    let mut i = 0;
    while i < m {
        let r = (m - i).min(4);
        let rows = &quads[i * kq..(i + r) * kq];
        match r {
            4 => vnni_rows::<4>(rows, kq, codes, colsum, i, &e, out),
            3 => vnni_rows::<3>(rows, kq, codes, colsum, i, &e, out),
            2 => vnni_rows::<2>(rows, kq, codes, colsum, i, &e, out),
            _ => vnni_rows::<1>(rows, kq, codes, colsum, i, &e, out),
        }
        i += r;
    }
    super::pack::put_i8_quads(quads);
}

/// All panels of the `R` rows starting at `i0` (whose quads are
/// `quads`, `kq` per row), four panels at a time with single-panel
/// leftovers.
#[inline]
#[target_feature(enable = "avx2,avx512f,avx512bw,avx512vnni")]
fn vnni_rows<const R: usize>(
    quads: &[u64],
    kq: usize,
    codes: &[i8],
    colsum: &[i32],
    i0: usize,
    e: &Epilogue<'_>,
    out: &mut [f32],
) {
    let panels = e.n.div_ceil(COLS);
    let stride = kq * QUAD_BYTES;
    let mut t = 0;
    while t + 4 <= panels {
        let acc = vnni_tile::<R, 4>(quads, kq, &codes[t * stride..(t + 4) * stride]);
        vnni_store(&acc, colsum, i0, t, e, out);
        t += 4;
    }
    while t < panels {
        let acc = vnni_tile::<R, 1>(quads, kq, &codes[t * stride..(t + 1) * stride]);
        vnni_store(&acc, colsum, i0, t, e, out);
        t += 1;
    }
}

/// Raw `Σ u·w` accumulators of an `R`-row × `P`-panel tile; `panels`
/// holds the `P` consecutive panels, `kq` quads of 64 bytes each.
#[inline]
#[target_feature(enable = "avx2,avx512f,avx512bw,avx512vnni")]
fn vnni_tile<const R: usize, const P: usize>(
    quads: &[u64],
    kq: usize,
    panels: &[i8],
) -> [[__m512i; P]; R] {
    // Plain loops, no closures: a closure would not inherit this
    // function's target features, so its intrinsics could not inline.
    // The per-row quad and per-panel weight iterators advance in
    // lockstep, one quad per step, with no index arithmetic.
    let mut qs: [std::slice::Iter<'_, u64>; R] =
        std::array::from_fn(|r| quads[r * kq..(r + 1) * kq].iter());
    let stride = kq * QUAD_BYTES;
    let mut ws: [std::slice::ChunksExact<'_, i8>; P] =
        std::array::from_fn(|p| panels[p * stride..(p + 1) * stride].chunks_exact(QUAD_BYTES));
    let mut acc = [[_mm512_setzero_si512(); P]; R];
    let mut u = [_mm512_setzero_si512(); R];
    for _ in 0..kq {
        for (ur, it) in u.iter_mut().zip(qs.iter_mut()) {
            if let Some(&v) = it.next() {
                *ur = _mm512_set1_epi32(v as u32 as i32);
            }
        }
        for (p, it) in ws.iter_mut().enumerate() {
            let Some(wq) = it.next() else { break };
            // SAFETY: `chunks_exact(64)` yields slices of exactly 64
            // bytes; the unaligned 512-bit load reads exactly those.
            let w = unsafe { _mm512_loadu_si512(wq.as_ptr().cast()) };
            for (accr, &ur) in acc.iter_mut().zip(&u) {
                accr[p] = _mm512_dpbusd_epi32(accr[p], ur, w);
            }
        }
    }
    acc
}

/// Epilogue of a VNNI tile: undo the `u8` shift, apply the zero-point
/// correction and the scale, and store (or accumulate) into `out`.
#[inline]
#[target_feature(enable = "avx2,avx512f,avx512bw,avx512vnni")]
fn vnni_store<const R: usize, const P: usize>(
    acc: &[[__m512i; P]; R],
    colsum: &[i32],
    i0: usize,
    t0: usize,
    e: &Epilogue<'_>,
    out: &mut [f32],
) {
    let n = e.n;
    for (r, accr) in acc.iter().enumerate() {
        let (corr, sc) = e.row(i0 + r);
        let (vc, vs) = (_mm512_set1_epi32(corr), _mm512_set1_ps(sc));
        let orow = &mut out[(i0 + r) * n..(i0 + r + 1) * n];
        for (p, &raw) in accr.iter().enumerate() {
            let j0 = (t0 + p) * COLS;
            let cs = &colsum[j0..j0 + COLS];
            // SAFETY: `cs` is exactly 16 i32s by the slice op above.
            let shift = unsafe { _mm512_loadu_si512(cs.as_ptr().cast()) };
            let v = _mm512_sub_epi32(_mm512_sub_epi32(raw, shift), vc);
            let mut f = _mm512_mul_ps(_mm512_cvtepi32_ps(v), vs);
            if j0 + COLS <= n {
                let dst = &mut orow[j0..j0 + COLS];
                // SAFETY: `dst` is exactly 16 f32s by the slice op
                // above, so the load and the store stay in bounds.
                unsafe {
                    if e.accumulate {
                        f = _mm512_add_ps(_mm512_loadu_ps(dst.as_ptr()), f);
                    }
                    _mm512_storeu_ps(dst.as_mut_ptr(), f);
                }
            } else {
                let mut spill = [0.0f32; COLS];
                // SAFETY: `spill` holds exactly 16 f32s.
                unsafe { _mm512_storeu_ps(spill.as_mut_ptr(), f) };
                store_panel(&spill, orow, j0, e.accumulate);
            }
        }
    }
}

/// AVX2 tier of the packed int8 GEMM with fused dequantization (same
/// contract as `kernels::gemm_i8_packed`).
///
/// Reads the same panels as the VNNI tier but keeps the activations
/// signed: each 16-byte quarter of a 64-byte panel quad (4 columns × 4
/// reduction steps) is sign-extended to i16 and multiplied by the
/// broadcast activation quad with `vpmaddwd`, which sums adjacent i16
/// products into i32 lanes. Every product is at most 2¹⁴ in magnitude,
/// so unlike `vpmaddubsw` nothing saturates; the two partial sums per
/// column are folded with `vphaddd` at the end of the tile. No `u8`
/// shift means no column-sum correction.
///
/// Single rows sweep two panels at a time; larger batches take rows in
/// pairs, one panel at a time (eight ymm accumulators either way).
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
pub(crate) fn gemm_i8_avx2(
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
    let e = Epilogue {
        n,
        scales,
        sums,
        sw,
        zw,
        accumulate,
    };
    let kq = k.div_ceil(QUAD);
    let mut quads = super::pack::take_i8_quads(m * kq);
    fill_quads(a, k, &mut quads, quad_i16);
    let panels = n.div_ceil(COLS);
    let stride = kq * QUAD_BYTES;
    let mut i = 0;
    while i < m {
        if m - i >= 2 {
            let rows = &quads[i * kq..(i + 2) * kq];
            for t in 0..panels {
                let acc = avx2_tile::<2, 1>(rows, kq, &codes[t * stride..(t + 1) * stride]);
                avx2_store(&acc, i, t, &e, out);
            }
            i += 2;
        } else {
            let rows = &quads[i * kq..(i + 1) * kq];
            let mut t = 0;
            while t + 2 <= panels {
                let acc = avx2_tile::<1, 2>(rows, kq, &codes[t * stride..(t + 2) * stride]);
                avx2_store(&acc, i, t, &e, out);
                t += 2;
            }
            if t < panels {
                let acc = avx2_tile::<1, 1>(rows, kq, &codes[t * stride..(t + 1) * stride]);
                avx2_store(&acc, i, t, &e, out);
            }
            i += 1;
        }
    }
    super::pack::put_i8_quads(quads);
}

/// Exact i32 sums of an `R`-row × `P`-panel tile, as two 8-lane
/// vectors (columns 0–7 and 8–15) per (row, panel).
#[inline]
#[target_feature(enable = "avx2")]
fn avx2_tile<const R: usize, const P: usize>(
    quads: &[u64],
    kq: usize,
    panels: &[i8],
) -> [[[__m256i; 2]; P]; R] {
    // acc[r][p][s]: columns 4s..4s+4 of panel p, two partial sums
    // each. Plain loops, no closures (see `vnni_tile`).
    let mut qs: [std::slice::Iter<'_, u64>; R] =
        std::array::from_fn(|r| quads[r * kq..(r + 1) * kq].iter());
    let stride = kq * QUAD_BYTES;
    let mut ws: [std::slice::ChunksExact<'_, i8>; P] =
        std::array::from_fn(|p| panels[p * stride..(p + 1) * stride].chunks_exact(QUAD_BYTES));
    let mut acc = [[[_mm256_setzero_si256(); 4]; P]; R];
    let mut av = [_mm256_setzero_si256(); R];
    for _ in 0..kq {
        for (ar, it) in av.iter_mut().zip(qs.iter_mut()) {
            if let Some(&v) = it.next() {
                *ar = _mm256_set1_epi64x(v as i64);
            }
        }
        for (p, it) in ws.iter_mut().enumerate() {
            let Some(wq) = it.next() else { break };
            for (s, ws16) in wq.chunks_exact(16).enumerate() {
                // SAFETY: `chunks_exact(16)` yields slices of exactly
                // 16 bytes; the unaligned 128-bit load reads exactly
                // those.
                let w = _mm256_cvtepi8_epi16(unsafe { _mm_loadu_si128(ws16.as_ptr().cast()) });
                for (accr, &ar) in acc.iter_mut().zip(&av) {
                    accr[p][s] = _mm256_add_epi32(accr[p][s], _mm256_madd_epi16(w, ar));
                }
            }
        }
    }
    // Fold each column's two partial sums: `vphaddd` of the vectors
    // for columns 0–3 and 4–7 yields [c0 c1 c4 c5 | c2 c3 c6 c7]; the
    // 64-bit permute restores column order.
    let mut sums = [[[_mm256_setzero_si256(); 2]; P]; R];
    for (sr, accr) in sums.iter_mut().zip(&acc) {
        for (sp, c) in sr.iter_mut().zip(accr) {
            for (h, half) in sp.iter_mut().enumerate() {
                let folded = _mm256_hadd_epi32(c[2 * h], c[2 * h + 1]);
                *half = _mm256_permute4x64_epi64::<0b11_01_10_00>(folded);
            }
        }
    }
    sums
}

/// Epilogue of an AVX2 tile: zero-point correction, scale, and store
/// (or accumulate) into `out`.
#[inline]
#[target_feature(enable = "avx2")]
fn avx2_store<const R: usize, const P: usize>(
    acc: &[[[__m256i; 2]; P]; R],
    i0: usize,
    t0: usize,
    e: &Epilogue<'_>,
    out: &mut [f32],
) {
    let n = e.n;
    for (r, accr) in acc.iter().enumerate() {
        let (corr, sc) = e.row(i0 + r);
        let (vc, vs) = (_mm256_set1_epi32(corr), _mm256_set1_ps(sc));
        let orow = &mut out[(i0 + r) * n..(i0 + r + 1) * n];
        for (p, halves) in accr.iter().enumerate() {
            let j0 = (t0 + p) * COLS;
            let mut spill = [0.0f32; COLS];
            for (h, &v) in halves.iter().enumerate() {
                let f = _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_sub_epi32(v, vc)), vs);
                let dst = &mut spill[h * 8..(h + 1) * 8];
                // SAFETY: `dst` is exactly 8 f32s by the slice op above.
                unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), f) };
            }
            store_panel(&spill, orow, j0, e.accumulate);
        }
    }
}
