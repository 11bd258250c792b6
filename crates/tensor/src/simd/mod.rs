//! Runtime CPU dispatch for the SIMD micro-kernels.
//!
//! The blocked GEMM in [`kernels`](crate::kernels) picks an
//! instruction-set tier **once** per process via [`Isa`] detection
//! (`is_x86_feature_detected!` on x86-64, baseline NEON on aarch64)
//! and routes every kernel invocation through it. The scalar blocked
//! path remains as the portable fallback and as the golden reference
//! the SIMD tiers are tested against.
//!
//! The packed int8 GEMM has its own tier, [`Int8Isa`]: AVX-512 VNNI
//! when the host reports `avx512vnni`, else AVX2, else the scalar
//! packed kernel (also the aarch64 path: there is no NEON int8 tier).
//! Its tiers compute exact integer sums in wrapping i32 arithmetic and
//! share one epilogue, so they agree bit for bit as well.
//!
//! # Bitwise identity across tiers
//!
//! Every tier — scalar, AVX2/FMA, AVX-512, NEON — accumulates each
//! output element over the reduction index `p` in strictly increasing
//! order using *fused* multiply-adds (`f32::mul_add` in the scalar
//! reference, `vfmadd`/`fmla` in the vector kernels). An IEEE-754
//! fused multiply-add is correctly rounded, so the same sequence of
//! fmas produces the same bits on every CPU; the tiers differ only in
//! *how many elements* advance per instruction, never in the
//! per-element arithmetic. Golden tests in `kernels` assert this
//! bitwise agreement for every layout and tail shape.
//!
//! # Forcing the scalar path
//!
//! Two switches exist:
//!
//! * [`set_force_scalar`] — a runtime toggle used by benchmarks and
//!   the golden tests to compare tiers through unmodified call sites.
//! * The `force-scalar` cargo feature — a compile-time kill switch CI
//!   uses to run the whole test suite over the fallback path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

pub(crate) mod pack;

pub use pack::{clear_packed_b_cache, packed_b_cache_stats};

#[cfg(target_arch = "aarch64")]
pub(crate) mod neon;
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86;

/// The instruction-set tier the f32 GEMM kernels dispatch to (the
/// int8 kernel picks its own, [`Int8Isa`]).
///
/// Ordinals (see [`Isa::ordinal`]) are stable and exported as the
/// `tensor.gemm.dispatch` gauge by `voyagerctl metrics`:
/// `0 = scalar`, `1 = avx2`, `2 = avx512`, `3 = neon`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable scalar blocked kernels (the golden reference).
    Scalar,
    /// AVX2 + FMA: 8-lane f32 tiles.
    Avx2,
    /// AVX-512F/BW: 16-lane f32 tiles (two FMA ports on server parts).
    Avx512,
    /// AArch64 NEON: 4-lane f32 tiles via `fmla`.
    Neon,
}

impl Isa {
    /// Lower-case tier name, as reported in bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
            Isa::Neon => "neon",
        }
    }

    /// Stable numeric id for the `tensor.gemm.dispatch` gauge.
    pub fn ordinal(self) -> i64 {
        match self {
            Isa::Scalar => 0,
            Isa::Avx2 => 1,
            Isa::Avx512 => 2,
            Isa::Neon => 3,
        }
    }

    /// `(MR, NR)` register-tile shape of this tier's micro-kernel.
    /// Tile shape never affects results (per-element arithmetic is
    /// tile-independent), only throughput.
    pub(crate) fn tile_dims(self) -> (usize, usize) {
        match self {
            Isa::Scalar => (crate::kernels::MR, crate::kernels::NR),
            Isa::Avx2 => (6, 16),
            Isa::Avx512 => (8, 32),
            Isa::Neon => (4, 8),
        }
    }
}

/// When set, all kernel entry points route to the scalar path (f32:
/// blocked; int8: packed) regardless of detected CPU features. Results
/// are bitwise-identical either way; this exists for benchmarks and
/// golden tests.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Routes all subsequent kernel calls through the scalar blocked path
/// (`true`) or the detected SIMD tier (`false`). See the module docs
/// for the identity contract.
pub fn set_force_scalar(force: bool) {
    FORCE_SCALAR.store(force, Ordering::Relaxed);
}

/// Returns whether the scalar blocked path is currently forced.
pub fn force_scalar() -> bool {
    FORCE_SCALAR.load(Ordering::Relaxed)
}

/// The instruction-set tier the int8 kernel
/// ([`gemm_i8_packed`](crate::kernels::gemm_i8_packed)) dispatches to.
/// Every tier reads the same packed weight panels and computes the
/// same integers, so the choice never changes a result.
///
/// Ordinals (see [`Int8Isa::ordinal`]) are stable and exported as the
/// `tensor.gemm.int8_dispatch` gauge by `voyagerctl metrics`:
/// `0 = scalar`, `1 = avx2`, `2 = avx512-vnni`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Int8Isa {
    /// Portable scalar kernel over the packed panels (the golden
    /// reference; also the aarch64 path).
    Scalar,
    /// AVX2 `vpmaddwd`: i8 codes widened to i16, exact pairwise
    /// products summed into i32 lanes.
    Avx2,
    /// AVX-512 VNNI `vpdpbusd`: four `u8 × i8` products per i32 lane,
    /// activations shifted to `u8 = a + 128`.
    Avx512Vnni,
}

impl Int8Isa {
    /// Every tier, slowest first.
    pub const ALL: [Int8Isa; 3] = [Int8Isa::Scalar, Int8Isa::Avx2, Int8Isa::Avx512Vnni];

    /// Lower-case tier name.
    pub fn name(self) -> &'static str {
        match self {
            Int8Isa::Scalar => "scalar",
            Int8Isa::Avx2 => "avx2",
            Int8Isa::Avx512Vnni => "avx512-vnni",
        }
    }

    /// Stable numeric id for the `tensor.gemm.int8_dispatch` gauge.
    pub fn ordinal(self) -> i64 {
        match self {
            Int8Isa::Scalar => 0,
            Int8Isa::Avx2 => 1,
            Int8Isa::Avx512Vnni => 2,
        }
    }

    /// Whether this host can run the tier (every tier at or below
    /// [`detected_int8_isa`]).
    pub fn supported(self) -> bool {
        self <= detected_int8_isa()
    }
}

/// Cached hardware probe. `fma` and `avx2` pick the fast compiled copy
/// of *portable* code (the scalar kernels, the int8 quantize-and-pack
/// loop): same source, same bits, no libm round trip per element.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
struct Hw {
    isa: Isa,
    int8: Int8Isa,
    fma: bool,
    avx2: bool,
}

static DETECTED: OnceLock<Hw> = OnceLock::new();

#[cfg(target_arch = "x86_64")]
fn detect_hw() -> Hw {
    let fma = is_x86_feature_detected!("fma");
    let avx2 = is_x86_feature_detected!("avx2");
    let avx512 = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw");
    let isa = if fma && avx2 && avx512 {
        Isa::Avx512
    } else if fma && avx2 {
        Isa::Avx2
    } else {
        Isa::Scalar
    };
    let int8 = if avx2 && avx512 && is_x86_feature_detected!("avx512vnni") {
        Int8Isa::Avx512Vnni
    } else if avx2 {
        Int8Isa::Avx2
    } else {
        Int8Isa::Scalar
    };
    let hw = Hw {
        isa,
        int8,
        fma,
        avx2,
    };
    if cfg!(feature = "force-scalar") {
        // Compile-time kill switch: no explicit SIMD kernel runs. The
        // portable code may still use its `fma`/`avx2` compiled copies
        // — identical bits, they only skip per-element libm calls.
        return Hw {
            isa: Isa::Scalar,
            int8: Int8Isa::Scalar,
            ..hw
        };
    }
    hw
}

#[cfg(target_arch = "aarch64")]
fn detect_hw() -> Hw {
    // NEON (with fused `fmla`) is part of the baseline aarch64 target.
    // The int8 kernel has no NEON tier: it runs the scalar packed path.
    let isa = if cfg!(feature = "force-scalar") {
        Isa::Scalar
    } else {
        Isa::Neon
    };
    Hw {
        isa,
        int8: Int8Isa::Scalar,
        fma: false,
        avx2: false,
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn detect_hw() -> Hw {
    Hw {
        isa: Isa::Scalar,
        int8: Int8Isa::Scalar,
        fma: false,
        avx2: false,
    }
}

fn detection() -> Hw {
    *DETECTED.get_or_init(detect_hw)
}

/// The tier the kernels will actually use for the next call: the
/// detected tier, downgraded to [`Isa::Scalar`] while
/// [`set_force_scalar`] is on or when built with the `force-scalar`
/// feature.
pub fn active_isa() -> Isa {
    if force_scalar() {
        Isa::Scalar
    } else {
        detection().isa
    }
}

/// The tier runtime feature detection selected for this host,
/// ignoring the force switches (still [`Isa::Scalar`] under the
/// `force-scalar` feature, which disables detection entirely).
pub fn detected_isa() -> Isa {
    detection().isa
}

/// The int8 tier the next [`gemm_i8_packed`](crate::kernels::gemm_i8_packed)
/// call will use: the detected tier, or [`Int8Isa::Scalar`] while
/// [`set_force_scalar`] is on or when built with the `force-scalar`
/// feature.
pub fn active_int8_isa() -> Int8Isa {
    if force_scalar() {
        Int8Isa::Scalar
    } else {
        detection().int8
    }
}

/// The int8 tier runtime feature detection selected for this host,
/// ignoring [`set_force_scalar`] (still [`Int8Isa::Scalar`] under the
/// `force-scalar` feature).
pub fn detected_int8_isa() -> Int8Isa {
    detection().int8
}

/// Whether the host has a hardware FMA unit (drives the choice of
/// compiled copy for the scalar kernels on x86-64).
pub(crate) fn fma_available() -> bool {
    detection().fma
}

use crate::kernels::{Layout, PackedI8};
use std::ops::Range;

/// Cache-blocking budget for one group of packed A row-block panels;
/// sized to fit mid-level cache alongside one B panel on typical
/// server parts (256 KB of A + at most 64 KB of B panel).
const GROUP_A_BYTES: usize = 256 * 1024;

/// Packed-panel GEMM driver shared by every SIMD tier. Packs B into
/// NR-wide panels once for the whole call and each MR-row block of A
/// once per block, then sweeps the layout-blind register tile over
/// the panels. `out_rows` covers rows `rows.start..rows.end` of the
/// full output (row `i` lives at `(i - rows.start) * n`), matching
/// the `gemm_rows` contract used by `par_gemm`.
///
/// `b_version` is the B operand's content-version stamp
/// (`Tensor2::version`), or `0` for unversioned slice operands. A
/// non-zero version lets the driver serve B's panels from the packed-B
/// cache when the same bytes were packed recently (see
/// [`pack::cached_b`]); packing is deterministic, so the hit path is
/// bitwise-identical to packing fresh.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_rows_packed(
    isa: Isa,
    a: &[f32],
    b: &[f32],
    layout: Layout,
    m: usize,
    n: usize,
    k: usize,
    rows: Range<usize>,
    out_rows: &mut [f32],
    acc: bool,
    b_version: u64,
) {
    let (mrw, nrw) = isa.tile_dims();
    let cached = pack::cached_b(b, layout, k, n, nrw, b_version);
    pack::with_scratch(|s| {
        let pack::PackScratch {
            a: sa,
            b: scratch_b,
            ..
        } = s;
        let sb: &[f32] = match &cached {
            Some(panels) => panels,
            None => {
                pack::pack_b(b, layout, k, n, nrw, scratch_b);
                scratch_b
            }
        };
        pack::pack_a(a, layout, m, k, rows.clone(), mrw, sa);
        // Group-then-panel-outer sweep (BLIS-style cache blocking):
        // within one group of row blocks (~256 KB of packed A, sized to
        // sit in L2) each ~k·NR B panel is loaded once and stays
        // cache-resident while the group's row blocks stream past it.
        // The alternative — row blocks outer — re-streams the *entire*
        // packed B per row block, which made the first cut of this
        // driver memory-bound at size 512. Loop order only changes
        // which output tiles compute first, never the per-element fma
        // chain, so results stay bitwise identical.
        let blocks = rows.len().div_ceil(mrw);
        let panels = n.div_ceil(nrw);
        let panel_a = k * mrw;
        let group = (GROUP_A_BYTES / (panel_a * size_of::<f32>())).max(1);
        let mut g0 = 0;
        while g0 < blocks {
            let g1 = (g0 + group).min(blocks);
            for t in 0..panels {
                let j = t * nrw;
                let nr = nrw.min(n - j);
                let bpanel = &sb[t * k * nrw..(t + 1) * k * nrw];
                for bi in g0..g1 {
                    let i = rows.start + bi * mrw;
                    let mr = mrw.min(rows.end - i);
                    let apanel = &sa[bi * panel_a..(bi + 1) * panel_a];
                    dispatch_tile(
                        isa,
                        apanel,
                        bpanel,
                        k,
                        out_rows,
                        i - rows.start,
                        mr,
                        j,
                        n,
                        nr,
                        acc,
                    );
                }
            }
            g0 = g1;
        }
    });
}

/// Routes one register tile to the active tier's micro-kernel.
#[allow(clippy::too_many_arguments)]
fn dispatch_tile(
    isa: Isa,
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
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch yields Avx2 only after
        // `is_x86_feature_detected!` confirmed avx2 and fma on this CPU
        // (see `detect_hw`), so the target-feature contract holds.
        Isa::Avx2 => unsafe { x86::tile_f32_avx2(ap, bp, k, out, r0, mr, j0, n, nr, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch yields Avx512 only after
        // `is_x86_feature_detected!` confirmed avx512f on this CPU.
        Isa::Avx512 => unsafe { x86::tile_f32_avx512(ap, bp, k, out, r0, mr, j0, n, nr, acc) },
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => neon::tile_f32(ap, bp, k, out, r0, mr, j0, n, nr, acc),
        // Scalar never reaches here in production (kernels route it to
        // the unpacked blocked path first), but the packed scalar tile
        // keeps dispatch total on every architecture and lets tests
        // exercise the packing in isolation.
        _ => {
            let (mrw, nrw) = isa.tile_dims();
            tile_f32_scalar_packed(ap, bp, mrw, nrw, k, out, r0, mr, j0, n, nr, acc);
        }
    }
}

/// Portable packed register tile: same panel format and fma
/// accumulation chain as the vector tiles, one element at a time.
#[allow(clippy::too_many_arguments)]
pub(crate) fn tile_f32_scalar_packed(
    ap: &[f32],
    bp: &[f32],
    mrw: usize,
    nrw: usize,
    k: usize,
    out: &mut [f32],
    r0: usize,
    mr: usize,
    j0: usize,
    n: usize,
    nr: usize,
    acc: bool,
) {
    debug_assert!(mr <= mrw && nr <= nrw && mrw * nrw <= 8 * 32);
    let mut spill = [0.0f32; 8 * 32];
    for (bs, av) in bp.chunks_exact(nrw).zip(ap.chunks_exact(mrw)).take(k) {
        for (r, &x) in av.iter().enumerate().take(mr) {
            let row = &mut spill[r * nrw..r * nrw + nr];
            for (d, &bv) in row.iter_mut().zip(bs) {
                *d = x.mul_add(bv, *d);
            }
        }
    }
    store_clipped(&spill, nrw, out, r0, mr, j0, n, nr, acc);
}

/// Copies (or adds, for `gemm_acc`) an `mr × nr` register tile from
/// its `nrw`-wide spill buffer into the output, clipping the padded
/// lanes. Shared by every tier's edge-tile path.
#[allow(clippy::too_many_arguments)]
pub(crate) fn store_clipped(
    spill: &[f32],
    nrw: usize,
    out: &mut [f32],
    r0: usize,
    mr: usize,
    j0: usize,
    n: usize,
    nr: usize,
    acc: bool,
) {
    for r in 0..mr {
        let src = &spill[r * nrw..r * nrw + nr];
        let start = (r0 + r) * n + j0;
        let dst = &mut out[start..start + nr];
        if acc {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        } else {
            dst.copy_from_slice(src);
        }
    }
}

/// Runs the scalar blocked kernel through its fastest compiled copy:
/// the `fma`-target-feature clone on x86-64 hosts with an FMA unit
/// (no libm `fmaf` round trip per element), the plain build
/// elsewhere. Both compile the identical `f32::mul_add` source, so
/// the bits never depend on which copy ran.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_scalar_blocked(
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
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: `fma_available` is true only after
        // `is_x86_feature_detected!("fma")` succeeded on this CPU, so
        // the target-feature contract of the clone holds.
        unsafe { blocked_rows_fma(a, b, layout, m, n, k, rows.clone(), out_rows, acc) };
        return;
    }
    crate::kernels::blocked_rows_body(a, b, layout, m, n, k, rows, out_rows, acc);
}

/// The scalar blocked kernel body compiled with the `fma` target
/// feature — see [`run_scalar_blocked`].
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "fma")]
fn blocked_rows_fma(
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
    crate::kernels::blocked_rows_body(a, b, layout, m, n, k, rows, out_rows, acc);
}

/// Runs the naive reference kernel through its fastest compiled copy;
/// same dual-compilation story as [`run_scalar_blocked`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_naive(
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
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: `fma_available` is true only after
        // `is_x86_feature_detected!("fma")` succeeded on this CPU, so
        // the target-feature contract of the clone holds.
        unsafe { naive_rows_fma(a, b, layout, m, n, k, rows.clone(), out_rows, acc) };
        return;
    }
    crate::kernels::naive_rows_body(a, b, layout, m, n, k, rows, out_rows, acc);
}

/// The naive kernel body compiled with the `fma` target feature — see
/// [`run_naive`].
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "fma")]
fn naive_rows_fma(
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
    crate::kernels::naive_rows_body(a, b, layout, m, n, k, rows, out_rows, acc);
}

/// Runs the packed int8 GEMM with its dequantization epilogue on tier
/// `isa`: `out[i][j] (+)= (scales[i]·sw) · (acc[i][j] − zw·sums[i])`,
/// `acc = a · w` in i32. Every tier computes the same wrapping i32
/// values and the same epilogue, so the output bits never depend on
/// the tier. Kept here so `unsafe` dispatch stays inside this module.
///
/// The caller ([`gemm_i8_packed`](crate::kernels::gemm_i8_packed))
/// has checked every length against `m` and `w.shape()`.
///
/// # Panics
///
/// Panics if this host cannot run `isa` (see [`Int8Isa::supported`]).
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
    assert!(
        isa.supported(),
        "int8 tier {} is not available on this host",
        isa.name()
    );
    let (k, n) = w.shape();
    let codes = w.codes();
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `supported()` above means detection found avx2,
        // avx512f, avx512bw and avx512vnni on this CPU (see
        // `detect_hw`), so the kernel's target features are present.
        Int8Isa::Avx512Vnni => unsafe {
            x86::gemm_i8_vnni(
                a,
                codes,
                w.colsum128(),
                m,
                n,
                k,
                scales,
                sums,
                sw,
                zw,
                out,
                accumulate,
            )
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `supported()` above means detection found avx2 on
        // this CPU (see `detect_hw`).
        Int8Isa::Avx2 => unsafe {
            x86::gemm_i8_avx2(a, codes, m, n, k, scales, sums, sw, zw, out, accumulate)
        },
        _ => crate::kernels::scalar_gemm_i8_packed(
            a, codes, m, n, k, scales, sums, sw, zw, out, accumulate,
        ),
    }
}

/// Runs the int8 quantize-and-pack loop through its fastest compiled
/// copy: the `avx2`-target-feature clone on x86-64 hosts with AVX2
/// (the per-weight rounding and division vectorize), the plain build
/// elsewhere. Both compile the identical source, so the codes never
/// depend on which copy ran.
pub(crate) fn pack_i8<T: Copy>(
    src: &[T],
    k: usize,
    n: usize,
    code: impl Fn(T) -> i8,
    codes: &mut [i8],
    colsum: &mut [i32],
) {
    #[cfg(target_arch = "x86_64")]
    if detection().avx2 {
        // SAFETY: `detection().avx2` is true only after
        // `is_x86_feature_detected!("avx2")` succeeded on this CPU, so
        // the target-feature contract of the clone holds.
        unsafe { pack_i8_avx2(src, k, n, code, codes, colsum) };
        return;
    }
    crate::kernels::pack_i8_body(src, k, n, code, codes, colsum);
}

/// The quantize-and-pack body compiled with the `avx2` target feature
/// — see [`pack_i8`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn pack_i8_avx2<T: Copy>(
    src: &[T],
    k: usize,
    n: usize,
    code: impl Fn(T) -> i8,
    codes: &mut [i8],
    colsum: &mut [i32],
) {
    crate::kernels::pack_i8_body(src, k, n, code, codes, colsum);
}

/// Serializes tests that toggle the global [`set_force_scalar`]
/// switch so concurrent toggles cannot interleave. Tests that merely
/// *run* kernels need no lock — results are bitwise-identical on
/// every path, so a mid-test toggle cannot change what they observe.
#[cfg(test)]
pub(crate) fn test_toggle_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_scalar_round_trips() {
        let _guard = test_toggle_lock();
        set_force_scalar(true);
        assert!(force_scalar());
        assert_eq!(active_isa(), Isa::Scalar);
        set_force_scalar(false);
        assert!(!force_scalar());
        assert_eq!(active_isa(), detected_isa());
    }

    #[test]
    fn ordinals_and_names_are_stable() {
        for (isa, ord, name) in [
            (Isa::Scalar, 0, "scalar"),
            (Isa::Avx2, 1, "avx2"),
            (Isa::Avx512, 2, "avx512"),
            (Isa::Neon, 3, "neon"),
        ] {
            assert_eq!(isa.ordinal(), ord);
            assert_eq!(isa.name(), name);
        }
    }

    #[test]
    fn tile_dims_are_positive() {
        for isa in [Isa::Scalar, Isa::Avx2, Isa::Avx512, Isa::Neon] {
            let (mr, nr) = isa.tile_dims();
            assert!(mr > 0 && nr > 0);
        }
    }
}
