//! AArch64 NEON micro-kernels: 4 × 8 f32 register tiles via fused
//! `fmla`. The int8 GEMM has no NEON tier: aarch64 runs the scalar
//! kernel over the packed int8 panels.
//!
//! NEON is part of the baseline aarch64 target, so these are plain
//! safe functions — no runtime gate is needed and the intrinsics'
//! target-feature requirement is satisfied crate-wide. Pointer loads
//! and stores still carry `unsafe` blocks whose bounds come from the
//! slice ops immediately above them.
//!
//! Identity contract: `vfmaq_n_f32` is the same correctly rounded
//! IEEE fused multiply-add as the scalar reference's `f32::mul_add`,
//! applied per output element over ascending `p`, so f32 results are
//! bitwise-identical to the scalar path.

use super::store_clipped;
use std::arch::aarch64::{vaddq_f32, vdupq_n_f32, vfmaq_n_f32, vld1q_f32, vst1q_f32};

/// NEON f32 register tile: MR = 4 rows × NR = 8 columns in eight
/// 128-bit accumulators. Same packed-panel format and store clipping
/// as the x86 tiles.
#[allow(clippy::too_many_arguments)]
pub(crate) fn tile_f32(
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
    let mut c = [[vdupq_n_f32(0.0); 2]; 4];
    for (bs, av) in bp.chunks_exact(8).zip(ap.chunks_exact(4)).take(k) {
        // SAFETY: `chunks_exact(8)` yields slices of exactly 8 f32s,
        // so both 4-lane loads stay in bounds.
        let (b0, b1) = unsafe { (vld1q_f32(bs.as_ptr()), vld1q_f32(bs.as_ptr().add(4))) };
        for (cr, &x) in c.iter_mut().zip(av) {
            cr[0] = vfmaq_n_f32(cr[0], b0, x);
            cr[1] = vfmaq_n_f32(cr[1], b1, x);
        }
    }
    if mr == 4 && nr == 8 {
        for (r, cr) in c.iter().enumerate() {
            let start = (r0 + r) * n + j0;
            let dst = &mut out[start..start + 8];
            // SAFETY: `dst` is exactly 8 f32s by the slice op above.
            unsafe {
                let p = dst.as_mut_ptr();
                let (mut v0, mut v1) = (cr[0], cr[1]);
                if acc {
                    v0 = vaddq_f32(vld1q_f32(p), v0);
                    v1 = vaddq_f32(vld1q_f32(p.add(4)), v1);
                }
                vst1q_f32(p, v0);
                vst1q_f32(p.add(4), v1);
            }
        }
    } else {
        let mut spill = [0.0f32; 4 * 8];
        for (r, cr) in c.iter().enumerate() {
            // SAFETY: `spill` holds 4 rows of 8 f32s; `r < 4`.
            unsafe {
                vst1q_f32(spill.as_mut_ptr().add(r * 8), cr[0]);
                vst1q_f32(spill.as_mut_ptr().add(r * 8 + 4), cr[1]);
            }
        }
        store_clipped(&spill, 8, out, r0, mr, j0, n, nr, acc);
    }
}
