//! Bulk slice operations between real-valued and fixed-point domains.
//!
//! This module is the vectorized substrate of the Softermax hot path. Two
//! API levels are provided:
//!
//! * **`Fixed`-level** conversions ([`quantize_slice`], [`dequantize_slice`],
//!   [`requantize_slice`] and their allocation-free `_into` variants) for
//!   callers that want format-carrying values;
//! * **raw-lane** operations ([`fused_quantize_into`],
//!   [`quantize_nearest_into`], [`dequantize_raw`], [`max_reduce`]) on bare
//!   `i64` encodings that all share one [`QFormat`], carried by the
//!   caller. This is the layout a SIMD datapath wants: a dense `&[i64]` of
//!   lanes plus one format descriptor, instead of an array of
//!   `(raw, format)` structs.
//!
//! Every raw operation processes [`LANES`]-wide blocks from the
//! [`crate::lane`] layer with a scalar tail: with the `portable-simd`
//! feature the block ops are `std::simd` lanes, otherwise hand-unrolled
//! loops that auto-vectorize inside the [`crate::lane_envelope!`]
//! multiversioning wrappers. All operations are **bit-exact** with their
//! scalar [`Fixed`] counterparts — the property tests in
//! `tests/properties.rs` hold every path (including saturation and
//! tail-chunk edges) to that contract.
//!
//! # The `_into` output contract
//!
//! Raw-lane operations come in exactly two output shapes, chosen by the
//! parameter type:
//!
//! * **`out: &mut Vec<i64>`** — the operation *clears* the vector and
//!   extends it with one output lane per input lane, reusing capacity.
//!   Callers never pre-size these.
//! * **`out: &mut [f64]`** (or any pre-sized slice) — the caller sizes the
//!   buffer, exactly one geometry check happens *up front* at the pipeline
//!   entry point (e.g. `forward_into`'s `assert_eq!`), and the operation
//!   itself only `debug_assert!`s the lengths: release builds drop the
//!   per-call panic from the hot loop. Violating the contract in release
//!   truncates the operation to the shorter length instead of panicking.

use crate::{clamp_i128, lane, lane_envelope, nearest_shift, Fixed, QFormat, Rounding};

/// Chunk width of the vectorized loops (lanes per iteration); re-exported
/// from [`crate::lane`].
pub use crate::lane::LANES;

/// Quantizes every element of a slice into `format`, saturating.
///
/// # Example
///
/// ```
/// use softermax_fixed::{quantize_slice, QFormat, Rounding};
///
/// let q = quantize_slice(&[0.1, 0.26, -7.3], QFormat::signed(6, 2), Rounding::Nearest);
/// let back: Vec<f64> = q.iter().map(|x| x.to_f64()).collect();
/// assert_eq!(back, vec![0.0, 0.25, -7.25]);
/// ```
#[must_use]
pub fn quantize_slice(values: &[f64], format: QFormat, rounding: Rounding) -> Vec<Fixed> {
    let mut out = Vec::new();
    quantize_slice_into(values, format, rounding, &mut out);
    out
}

/// Allocation-free [`quantize_slice`]: clears `out` and fills it, reusing
/// its capacity.
pub fn quantize_slice_into(
    values: &[f64],
    format: QFormat,
    rounding: Rounding,
    out: &mut Vec<Fixed>,
) {
    out.clear();
    out.reserve(values.len());
    // Quantize through the raw path, then attach the (single) format; the
    // raw encoding is already saturated into the format range.
    let inv_res = res_recip(format);
    out.extend(values.iter().map(|&v| {
        Fixed::from_raw_saturating(quantize_one_raw(v, format, rounding, inv_res), format)
    }));
}

/// Converts a slice of fixed-point values back to reals.
#[must_use]
pub fn dequantize_slice(values: &[Fixed]) -> Vec<f64> {
    let mut out = Vec::new();
    dequantize_slice_into(values, &mut out);
    out
}

/// Allocation-free [`dequantize_slice`]: clears `out` and fills it.
pub fn dequantize_slice_into(values: &[Fixed], out: &mut Vec<f64>) {
    out.clear();
    out.reserve(values.len());
    out.extend(values.iter().map(Fixed::to_f64));
}

/// Re-encodes every element into a new format.
#[must_use]
pub fn requantize_slice(values: &[Fixed], format: QFormat, rounding: Rounding) -> Vec<Fixed> {
    let mut out = Vec::new();
    requantize_slice_into(values, format, rounding, &mut out);
    out
}

/// Allocation-free [`requantize_slice`]: clears `out` and fills it.
pub fn requantize_slice_into(
    values: &[Fixed],
    format: QFormat,
    rounding: Rounding,
    out: &mut Vec<Fixed>,
) {
    out.clear();
    out.reserve(values.len());
    out.extend(values.iter().map(|v| v.requantize(format, rounding)));
}

// --- raw-lane operations ----------------------------------------------------

/// `1 / format.resolution()`, i.e. `2^frac_bits`.
///
/// Scaling by a power of two is exact in IEEE-754, so multiplying by this
/// factor is bit-identical to the division `value / resolution()` that
/// [`Fixed::from_f64`] performs — the hoisted multiply is a pure speedup.
#[inline]
#[must_use]
pub fn res_recip(format: QFormat) -> f64 {
    f64::from(format.frac_bits()).exp2()
}

/// Quantizes one real into a raw `format` encoding (saturating);
/// bit-exact with [`Fixed::from_f64`].
/// `inv_res` must be [`res_recip`]`(format)` (hoisted by the caller).
///
/// Public so fused downstream pipelines can chain the exact per-element
/// operation without materializing intermediate lane buffers.
#[inline(always)]
#[must_use]
pub fn quantize_one_raw(value: f64, format: QFormat, rounding: Rounding, inv_res: f64) -> i64 {
    if value.is_nan() || value == f64::INFINITY {
        return format.max_raw();
    }
    if value == f64::NEG_INFINITY {
        return format.min_raw();
    }
    format.saturate_raw(rounding.apply(value * inv_res))
}

lane_envelope! {
    /// Converts raw `format` encodings to reals, writing into the
    /// caller-provided pre-sized slice (see the module-level `_into`
    /// contract: the lengths are `debug_assert!`ed here; the up-front
    /// geometry check lives at the pipeline entry point). Bit-exact with
    /// [`Fixed::to_f64`] per element.
    pub fn dequantize_raw(raws: &[i64], format: QFormat, out: &mut [f64]) {
        debug_assert_eq!(raws.len(), out.len(), "lane count mismatch");
        let res = format.resolution();
        let mut in_chunks = raws.chunks_exact(LANES);
        let mut out_chunks = out.chunks_exact_mut(LANES);
        for (rc, oc) in in_chunks.by_ref().zip(out_chunks.by_ref()) {
            lane::to_f64_scaled(lane::load(rc), res, oc);
        }
        for (&r, o) in in_chunks
            .remainder()
            .iter()
            .zip(out_chunks.into_remainder())
        {
            *o = r as f64 * res;
        }
    }
}

lane_envelope! {
    /// Maximum raw encoding of a lane slice (`None` when empty).
    ///
    /// Within one format the raw ordering is the mathematical ordering, so
    /// this matches a fold over [`Fixed::max`].
    #[must_use]
    pub fn max_reduce(raws: &[i64]) -> Option<i64> {
        max_reduce_inline(raws)
    }
}

/// [`max_reduce`] without its lane-path dispatch, for a loop that already
/// runs inside a [`lane_envelope!`] clone (such as the Softermax slice
/// loop, which reduces one 16-lane slice at a time and would otherwise pay
/// a dispatch per slice). LLVM vectorizes the fold at the caller's width.
#[inline(always)]
#[must_use]
pub fn max_reduce_inline(raws: &[i64]) -> Option<i64> {
    raws.iter().copied().reduce(i64::max)
}

/// [`Fixed::ceil`] on one raw encoding in `format` (the IntMax unit's
/// elementwise operation), bit-exact.
///
/// It is monotone non-decreasing in `raw`, so it commutes with `max`:
/// the IntMax unit's slice result is `ceil_one_raw(max_reduce(raws))`,
/// one ceiling per slice instead of one per lane.
#[inline(always)]
#[must_use]
pub fn ceil_one_raw(raw: i64, format: QFormat) -> i64 {
    // `ceil(raw / 2^f) · 2^f` in i64, exact for every encoding of a
    // format of at most 32 bits; the saturating add only keeps an
    // out-of-format `raw` from overflowing.
    let frac = format.frac_bits();
    let mask = (1i64 << frac) - 1;
    format.saturate_raw((raw.saturating_add(mask) >> frac) << frac)
}

lane_envelope! {
    /// Round-to-nearest quantization into `format`, appended to `out`
    /// (cleared first): one multiply, one `round` and one clamp per
    /// element. Bit-exact with [`Fixed::from_f64`] with
    /// [`Rounding::Nearest`], including its rails — NaN and `+inf` map to
    /// `format.max_raw()`, `-inf` to `format.min_raw()`.
    pub fn quantize_nearest_into(values: &[f64], format: QFormat, out: &mut Vec<i64>) {
        // Size, then overwrite: an `extend` over a `map` adapter is not
        // reliably inlined into the envelope's clones, and then `round`
        // and the clamp run at baseline width.
        out.clear();
        out.resize(values.len(), 0);
        let inv_res = res_recip(format);
        // Formats have at most 32 bits, so both rails are exact in f64.
        let (lo, hi) = (format.min_raw() as f64, format.max_raw() as f64);
        for (o, &v) in out.iter_mut().zip(values) {
            let s = (v * inv_res).round();
            let clamped = if s.is_nan() { hi } else { s.clamp(lo, hi) };
            *o = lane::f64_to_i64_exact(clamped);
        }
    }
}

/// One lane of [`fused_quantize_into`]: quantize → optional pre-scale
/// multiply (round-to-nearest, saturating in `input`) → requantize into
/// `dst`. Bit-exact with chaining [`Fixed::from_f64`],
/// [`Fixed::mul_into`] and [`Fixed::requantize`].
#[inline(always)]
#[must_use]
pub fn fused_quantize_one(
    value: f64,
    input: QFormat,
    rounding: Rounding,
    inv_res: f64,
    in_frac: u32,
    prescale: Option<(i64, u32)>,
    dst: QFormat,
) -> i64 {
    let q = quantize_one_raw(value, input, rounding, inv_res);
    let p = match prescale {
        None => q,
        Some((mant, shift)) => input.saturate_raw(nearest_shift(q as i128 * mant as i128, shift)),
    };
    // `Fixed::requantize` on the raw encoding, routed through the
    // shift-based fast rounding helpers (bit-identical;
    // `Rounding::apply_shift_fast`).
    let dst_frac = dst.frac_bits();
    let shifted = if dst_frac >= in_frac {
        clamp_i128((p as i128) << (dst_frac - in_frac))
    } else {
        rounding.apply_shift_fast(p as i128, in_frac - dst_frac)
    };
    dst.saturate_raw(shifted)
}

lane_envelope! {
    /// Fused stage-0 pass of a quantized softmax pipeline: for every real
    /// input, quantize into `input` format, apply the optional fixed-point
    /// pre-scale `prescale = (mantissa_raw, frac_shift)` (a
    /// round-to-nearest multiply saturating in `input` — the base-e
    /// `log2(e)` scaling), and requantize into `dst` format — one sweep,
    /// one output write per element, appended to `out` (cleared first).
    ///
    /// Bit-exact per element with chaining [`Fixed::from_f64`],
    /// [`Fixed::mul_into`] and [`Fixed::requantize`].
    pub fn fused_quantize_into(
        values: &[f64],
        input: QFormat,
        rounding: Rounding,
        prescale: Option<(i64, u32)>,
        dst: QFormat,
        out: &mut Vec<i64>,
    ) {
        out.clear();
        out.reserve(values.len());
        let inv_res = res_recip(input);
        let in_frac = input.frac_bits();
        let mut chunks = values.chunks_exact(LANES);
        for chunk in chunks.by_ref() {
            let lanes: lane::Block = std::array::from_fn(|i| {
                fused_quantize_one(chunk[i], input, rounding, inv_res, in_frac, prescale, dst)
            });
            out.extend_from_slice(&lanes);
        }
        for &v in chunks.remainder() {
            out.push(fused_quantize_one(
                v, input, rounding, inv_res, in_frac, prescale, dst,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats;

    #[test]
    fn quantize_dequantize_round_trip_on_grid() {
        let vals = vec![0.25, -1.5, 31.75, -32.0];
        let q = quantize_slice(&vals, formats::INPUT, Rounding::Nearest);
        assert_eq!(dequantize_slice(&q), vals);
    }

    #[test]
    fn requantize_slice_changes_format() {
        let q = quantize_slice(&[0.5, 0.75], formats::UNNORMED, Rounding::Nearest);
        let r = requantize_slice(&q, formats::OUTPUT, Rounding::Nearest);
        assert!(r.iter().all(|x| x.format() == formats::OUTPUT));
        assert_eq!(dequantize_slice(&r), vec![0.5, 0.75]);
    }

    #[test]
    fn empty_slices_are_fine() {
        assert!(quantize_slice(&[], formats::INPUT, Rounding::Nearest).is_empty());
        assert!(dequantize_slice(&[]).is_empty());
        assert_eq!(max_reduce(&[]), None);
    }

    #[test]
    fn into_variants_reuse_capacity() {
        let vals: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.25 - 12.0).collect();
        let mut q = Vec::new();
        quantize_slice_into(&vals, formats::INPUT, Rounding::Nearest, &mut q);
        let cap = q.capacity();
        let ptr = q.as_ptr();
        quantize_slice_into(&vals, formats::INPUT, Rounding::Nearest, &mut q);
        assert_eq!(q.capacity(), cap);
        assert_eq!(q.as_ptr(), ptr);
        assert_eq!(q.len(), vals.len());
    }

    #[test]
    fn raw_quantize_matches_fixed_including_tails() {
        // 13 elements: one full LANES chunk plus a 5-element tail.
        let vals: Vec<f64> = (0..13).map(|i| f64::from(i) * 1.37 - 40.0).collect();
        let mut raws = Vec::new();
        let input = formats::INPUT;
        fused_quantize_into(&vals, input, Rounding::Nearest, None, input, &mut raws);
        for (v, r) in vals.iter().zip(&raws) {
            assert_eq!(
                Fixed::from_f64(*v, formats::INPUT, Rounding::Nearest).raw(),
                *r
            );
        }
    }

    #[test]
    fn raw_quantize_handles_non_finite() {
        let mut raws = Vec::new();
        fused_quantize_into(
            &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY],
            formats::INPUT,
            Rounding::Nearest,
            None,
            formats::INPUT,
            &mut raws,
        );
        assert_eq!(
            raws,
            vec![
                formats::INPUT.max_raw(),
                formats::INPUT.max_raw(),
                formats::INPUT.min_raw()
            ]
        );
    }

    /// Stage-0 proof: `quantize_nearest_into` equals `Fixed::from_f64`
    /// (round to nearest) at every rounding boundary `(k + 1/2) * 2^-frac`
    /// and 0-3 ulps either side of it, for `k` from below the min rail to
    /// above the max rail, and at NaN and the infinities.
    #[test]
    fn quantize_nearest_matches_from_f64_at_every_boundary() {
        for fmt in [
            formats::INPUT,
            QFormat::signed(5, 3),
            QFormat::signed(8, 0),
            QFormat::signed(8, 8),
            QFormat::unsigned(1, 7),
        ] {
            let res = fmt.resolution();
            let mut values = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
            for k in fmt.min_raw() - 3..=fmt.max_raw() + 3 {
                let boundary = (k as f64 + 0.5) * res;
                for ulps in 0..=3u64 {
                    values.push(f64::from_bits(boundary.to_bits() + ulps));
                    values.push(f64::from_bits(boundary.to_bits() - ulps));
                }
            }
            let mut got = Vec::new();
            quantize_nearest_into(&values, fmt, &mut got);
            for (v, g) in values.iter().zip(&got) {
                let want = Fixed::from_f64(*v, fmt, Rounding::Nearest).raw();
                assert_eq!(*g, want, "fmt={fmt} v={v:e}");
            }
        }
    }

    #[test]
    fn dequantize_raw_writes_in_place() {
        let raws = vec![0i64, 1, -1, 127, -128];
        let mut out = vec![0.0; raws.len()];
        dequantize_raw(&raws, formats::INPUT, &mut out);
        assert_eq!(out, vec![0.0, 0.25, -0.25, 31.75, -32.0]);
    }

    #[test]
    fn max_reduce_matches_iterator_max() {
        let raws: Vec<i64> = (0..37).map(|i| (i * 31 % 19) - 9).collect();
        assert_eq!(max_reduce(&raws), raws.iter().copied().max());
    }

    #[test]
    fn sub_scalar_saturates_at_rails() {
        let fmt = formats::INPUT; // raw range [-128, 127]
        let block = [-120, 0, 120, -128, 127, 78, -79, 50];
        let out = lane::sub_clamp(block, 50, fmt.min_raw(), fmt.max_raw());
        assert_eq!(out, [-128, -50, 70, -128, 77, 28, -128, 0]);
    }
}
