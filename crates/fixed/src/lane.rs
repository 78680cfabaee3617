//! Explicit fixed-width lane blocks: the SIMD substrate under [`crate::vecops`].
//!
//! A *block* is [`LANES`] `i64` raw encodings processed together
//! ([`Block`]). Two interchangeable implementations of the block ops are
//! compiled:
//!
//! * with the off-by-default **`portable-simd`** cargo feature (nightly
//!   toolchains only), each op maps onto `std::simd::Simd<i64, LANES>`;
//! * otherwise a hand-unrolled, branch-free stable fallback that LLVM
//!   auto-vectorizes once it is compiled inside a wide-ISA envelope.
//!
//! Both are **bit-identical** by construction — every op is a lane-wise
//! `max`/`clamp`/saturating-sub/shift/int-to-float cast, whose scalar and
//! SIMD semantics coincide exactly.
//!
//! # Runtime path selection
//!
//! Rust compiles for the x86-64 baseline (SSE2) by default, so the hot
//! loops are additionally *multiversioned*: [`lane_envelope!`] wraps a
//! loop body in `#[target_feature]` clones (AVX2 and AVX-512F on x86-64)
//! and picks the widest CPU-supported clone once at runtime — see
//! [`active`]. The choice can be forced for A/B runs and CI with the
//! `SOFTERMAX_LANES` environment variable (`fallback`, `avx2`, `avx512`,
//! `auto`) or programmatically with [`force`]; [`path_label`] reports the
//! selected path so benchmark reports can record it.

use std::sync::atomic::{AtomicU8, Ordering};

#[cfg(feature = "portable-simd")]
use std::simd::{cmp::SimdOrd, num::SimdInt, Simd};

/// Lanes per block: eight 64-bit lanes fill one AVX-512 register (or two
/// AVX2/NEON registers).
pub const LANES: usize = 8;

/// One block of raw lane encodings.
pub type Block = [i64; LANES];

/// Which instruction-set envelope the multiversioned loops dispatch into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum LanePath {
    /// Baseline target features only (SSE2 on x86-64; the only path on
    /// other architectures).
    Baseline = 1,
    /// 256-bit AVX2 envelope (x86-64).
    Avx2 = 2,
    /// 512-bit AVX-512F envelope (x86-64).
    Avx512 = 3,
}

impl LanePath {
    /// Short stable name, as recorded in benchmark reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LanePath::Baseline => "baseline",
            LanePath::Avx2 => "avx2",
            LanePath::Avx512 => "avx512",
        }
    }
}

/// 0 = undecided; otherwise a `LanePath` discriminant.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The lane path every [`lane_envelope!`] wrapper dispatches into.
///
/// Decided once per process: the `SOFTERMAX_LANES` environment variable
/// wins if set (`fallback`/`baseline`/`scalar`, `avx2`, `avx512`; anything
/// else means auto-detect), otherwise the widest path the CPU supports is
/// chosen. A requested path the CPU cannot run falls back to the widest
/// supported one.
#[must_use]
pub fn active() -> LanePath {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => LanePath::Baseline,
        2 => LanePath::Avx2,
        3 => LanePath::Avx512,
        _ => {
            let path = decide();
            ACTIVE.store(path as u8, Ordering::Relaxed);
            path
        }
    }
}

/// Forces the dispatch path for the rest of the process (harness/test
/// hook; the A/B columns of the roofline report use this).
pub fn force(path: LanePath) {
    let path = match path {
        LanePath::Baseline => LanePath::Baseline,
        requested => {
            if supported(requested) {
                requested
            } else {
                detect_widest()
            }
        }
    };
    ACTIVE.store(path as u8, Ordering::Relaxed);
}

fn decide() -> LanePath {
    match std::env::var("SOFTERMAX_LANES").as_deref() {
        Ok("fallback" | "baseline" | "scalar") => LanePath::Baseline,
        Ok("avx2") if supported(LanePath::Avx2) => LanePath::Avx2,
        Ok("avx512") if supported(LanePath::Avx512) => LanePath::Avx512,
        _ => detect_widest(),
    }
}

#[cfg(target_arch = "x86_64")]
fn supported(path: LanePath) -> bool {
    match path {
        LanePath::Baseline => true,
        LanePath::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
        LanePath::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn supported(path: LanePath) -> bool {
    path == LanePath::Baseline
}

fn detect_widest() -> LanePath {
    if supported(LanePath::Avx512) {
        LanePath::Avx512
    } else if supported(LanePath::Avx2) {
        LanePath::Avx2
    } else {
        LanePath::Baseline
    }
}

/// Which block-op implementation was compiled in.
#[must_use]
pub fn simd_impl() -> &'static str {
    if cfg!(feature = "portable-simd") {
        "portable-simd"
    } else {
        "unrolled"
    }
}

/// Human/JSON label of the full lane configuration, e.g.
/// `"unrolled+avx512"` or `"portable-simd+baseline"`.
#[must_use]
pub fn path_label() -> String {
    format!("{}+{}", simd_impl(), active().name())
}

/// Multiversions a hot loop: compiles the body at the baseline target
/// features plus (on x86-64) AVX2 and AVX-512F clones, dispatching to the
/// clone selected by [`active`].
///
/// The body is emitted as an `#[inline(always)]` inner function so each
/// clone recompiles it — including every `#[inline(always)]` block op it
/// calls — under the envelope's instruction set.
#[macro_export]
macro_rules! lane_envelope {
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block) => {
        $crate::lane_envelope! {
            $(#[$meta])* $vis fn $name($($arg: $ty),*) -> () $body
        }
    };
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) -> $ret:ty $body:block) => {
        $(#[$meta])*
        $vis fn $name($($arg: $ty),*) -> $ret {
            #[inline(always)]
            fn inner($($arg: $ty),*) -> $ret $body
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                fn inner_avx2($($arg: $ty),*) -> $ret {
                    inner($($arg),*)
                }
                #[target_feature(enable = "avx512f")]
                fn inner_avx512($($arg: $ty),*) -> $ret {
                    inner($($arg),*)
                }
                match $crate::lane::active() {
                    $crate::lane::LanePath::Avx512 => {
                        // SAFETY: `lane::active` selects Avx512 only after
                        // cpuid detection confirmed AVX-512F.
                        unsafe { inner_avx512($($arg),*) }
                    }
                    $crate::lane::LanePath::Avx2 => {
                        // SAFETY: `lane::active` selects Avx2 only after
                        // cpuid detection confirmed AVX2.
                        unsafe { inner_avx2($($arg),*) }
                    }
                    $crate::lane::LanePath::Baseline => inner($($arg),*),
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                inner($($arg),*)
            }
        }
    };
}

// --- block ops ---------------------------------------------------------------
//
// Each op has a portable-SIMD and an unrolled body; both are lane-wise
// applications of the identical scalar operation, so they cannot diverge.

/// Loads one block from a slice chunk of exactly [`LANES`] elements.
#[inline(always)]
#[must_use]
pub fn load(chunk: &[i64]) -> Block {
    std::array::from_fn(|i| chunk[i])
}

/// Lane-wise maximum of two blocks.
#[inline(always)]
#[must_use]
pub fn max(a: Block, b: Block) -> Block {
    #[cfg(feature = "portable-simd")]
    {
        Simd::from_array(a).simd_max(Simd::from_array(b)).to_array()
    }
    #[cfg(not(feature = "portable-simd"))]
    {
        std::array::from_fn(|i| a[i].max(b[i]))
    }
}

/// Horizontal maximum of one block.
#[inline(always)]
#[must_use]
pub fn hmax(a: Block) -> i64 {
    #[cfg(feature = "portable-simd")]
    {
        Simd::from_array(a).reduce_max()
    }
    #[cfg(not(feature = "portable-simd"))]
    {
        let mut best = a[0];
        for &v in &a[1..] {
            best = best.max(v);
        }
        best
    }
}

/// Lane-wise `clamp(a - scalar, lo, hi)` with a saturating subtraction:
/// [`Fixed::saturating_sub`](crate::Fixed::saturating_sub) on one block
/// when `lo`/`hi` are the format's raw rails.
#[inline(always)]
#[must_use]
pub fn sub_clamp(a: Block, scalar: i64, lo: i64, hi: i64) -> Block {
    #[cfg(feature = "portable-simd")]
    {
        Simd::from_array(a)
            .saturating_sub(Simd::splat(scalar))
            .simd_clamp(Simd::splat(lo), Simd::splat(hi))
            .to_array()
    }
    #[cfg(not(feature = "portable-simd"))]
    {
        std::array::from_fn(|i| a[i].saturating_sub(scalar).clamp(lo, hi))
    }
}

/// Lane-wise `clamp(a >> k, lo, hi)` (arithmetic shift, i.e. floor
/// semantics): one block of the wide-sum term staging. `k` must be < 64.
#[inline(always)]
#[must_use]
pub fn shr_clamp(a: Block, k: u32, lo: i64, hi: i64) -> Block {
    #[cfg(feature = "portable-simd")]
    {
        (Simd::from_array(a) >> Simd::splat(i64::from(k)))
            .simd_clamp(Simd::splat(lo), Simd::splat(hi))
            .to_array()
    }
    #[cfg(not(feature = "portable-simd"))]
    {
        std::array::from_fn(|i| (a[i] >> k).clamp(lo, hi))
    }
}

/// Lane-wise `raw as f64 * res` into an output chunk of exactly [`LANES`]
/// elements: one block of `vecops::dequantize_raw`.
#[inline(always)]
pub fn to_f64_scaled(a: Block, res: f64, out: &mut [f64]) {
    #[cfg(feature = "portable-simd")]
    {
        let scaled = Simd::from_array(a).cast::<f64>() * Simd::splat(res);
        out[..LANES].copy_from_slice(&scaled.to_array());
    }
    #[cfg(not(feature = "portable-simd"))]
    {
        for i in 0..LANES {
            out[i] = a[i] as f64 * res;
        }
    }
}

/// `1.5 · 2^52`: adding it to an integral `f64` below `2^51` in magnitude
/// places the integer, exactly, in the low mantissa bits.
const INT_MAGIC: f64 = 6_755_399_441_055_744.0;

/// `x as i64` for an integral `x` with `|x| < 2^51`, in two lane-wise
/// instructions (add the magic constant, subtract its bits). A plain `as`
/// cast has no packed form below AVX-512DQ, so it would not vectorize.
#[inline(always)]
#[must_use]
pub fn f64_to_i64_exact(x: f64) -> i64 {
    (x + INT_MAGIC).to_bits() as i64 - INT_MAGIC.to_bits() as i64
}

/// `x as f64` for `|x| < 2^51` (every raw encoding of a format of at most
/// 32 bits), in two lane-wise instructions: the inverse of
/// [`f64_to_i64_exact`], for the same reason.
#[inline(always)]
#[must_use]
pub fn i64_to_f64_exact(x: i64) -> f64 {
    f64::from_bits((x + INT_MAGIC.to_bits() as i64) as u64) - INT_MAGIC
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ops_match_scalar_semantics() {
        let a: Block = [3, -7, i64::MAX, i64::MIN, 0, 42, -1, 100];
        let b: Block = [4, -8, 0, 1, -1, 41, 2, 99];
        assert_eq!(max(a, b), [4, -7, i64::MAX, 1, 0, 42, 2, 100]);
        assert_eq!(hmax(a), i64::MAX);
        assert_eq!(hmax([-5, -9, -2, -3, -4, -6, -7, -8]), -2);

        let got = sub_clamp(a, 10, -50, 50);
        let want: Block = std::array::from_fn(|i| a[i].saturating_sub(10).clamp(-50, 50));
        assert_eq!(got, want);

        let got = shr_clamp(a, 3, -100, 100);
        let want: Block = std::array::from_fn(|i| (a[i] >> 3).clamp(-100, 100));
        assert_eq!(got, want);

        let mut out = [0.0f64; LANES];
        to_f64_scaled(a, 0.25, &mut out);
        for i in 0..LANES {
            assert_eq!(out[i].to_bits(), (a[i] as f64 * 0.25).to_bits());
        }
    }

    #[test]
    fn exact_conversions_match_casts_below_2_pow_51() {
        let edge = (1i64 << 51) - 1;
        for x in [0, 1, -1, 127, -128, 65_535, -(1 << 31), edge, -edge] {
            assert_eq!(i64_to_f64_exact(x).to_bits(), (x as f64).to_bits(), "{x}");
            assert_eq!(f64_to_i64_exact(x as f64), x, "{x}");
        }
        assert_eq!(f64_to_i64_exact(-0.0), 0);
    }

    // One test covers selection, forcing, and restoration: the dispatch
    // state is process-global, so splitting these into parallel tests
    // would race.
    #[test]
    fn active_path_is_supported_and_forceable() {
        let first = active();
        assert!(supported(first));
        assert_eq!(active(), first);
        assert!(!path_label().is_empty());
        force(LanePath::Baseline);
        assert_eq!(active(), LanePath::Baseline);
        force(first);
        assert_eq!(active(), first);
    }

    #[test]
    fn envelope_macro_dispatches() {
        lane_envelope! {
            fn sum_all(xs: &[i64]) -> i64 {
                let mut acc = 0i64;
                for chunk in xs.chunks_exact(LANES) {
                    let b = load(chunk);
                    for v in b {
                        acc = acc.wrapping_add(v);
                    }
                }
                for &v in xs.chunks_exact(LANES).remainder() {
                    acc = acc.wrapping_add(v);
                }
                acc
            }
        }
        let xs: Vec<i64> = (0..37).collect();
        assert_eq!(sum_all(&xs), (0..37).sum::<i64>());
    }
}
