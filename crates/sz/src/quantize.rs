//! Specialized Lorenzo **quantize** loops for the encoder hot path — the
//! compress-side twin of `reconstruct.rs`.
//!
//! The generic encoder called [`predict`](crate::predictor) /
//! [`predict_i64`](crate::predictor) per element, paying `idx / w`,
//! `idx % w` (and the 3-D plane decomposition) plus a predictor dispatch
//! for every value. This module lowers each `(predictor, layout)`
//! combination to the loop shapes the decoder uses ([`Geometry`]):
//! indices are carried by the loops, border handling is hoisted out of
//! them, and the dispatch happens once per chunk. The classic quantizer
//! keeps one float loop nest per shape (its operand order is part of the
//! format); dual-quantization, whose stencil is integer and order-free,
//! shares one row loop across all three.
//!
//! The emitted `(codes, outliers)` are **bit-identical** to the generic
//! path's; `tests::specialized_quantize_matches_generic` pins that
//! equivalence for every predictor × layout × quantization-mode
//! combination, including forced mismatches (e.g. Lorenzo3 over a 2-D
//! layout).

use crate::codec::{grid_point, grid_value};
use crate::predictor::Predictor;
use crate::reconstruct::{geometry, lorenzo_rest, neighbour_rows, Geometry};
use crate::{DataLayout, QuantMode, SzConfig};
use std::sync::OnceLock;

/// Quantization codes and bit-exact outliers of a run of chunks, flat —
/// one thread appends chunk after chunk, so one allocation serves the
/// run — plus the dual-quant grid scratch kept alive for the same reason.
#[derive(Default)]
pub(crate) struct Quantized {
    pub(crate) codes: Vec<u32>,
    pub(crate) outliers: Vec<u32>,
    grid: Vec<i64>,
}

impl Quantized {
    /// Append to `out` what the decoder reconstructs for `data`, the
    /// chunk [`quantize_chunk`] just appended in dual-quant mode (its
    /// grid is still in scratch): a coded element is its verified grid
    /// point's value, an escaped one its own bits.
    pub(crate) fn push_dual_recon(&self, data: &[f32], two_eb: f32, out: &mut Vec<f32>) {
        let codes = &self.codes[self.codes.len() - data.len()..];
        let cells = data.iter().zip(codes).zip(&self.grid);
        out.extend(cells.map(|((&x, &code), &q)| match code {
            0 => x,
            _ => grid_value(q, two_eb),
        }));
    }
}

/// Predict + quantize one chunk, appending to `out` — the phase-1 kernel
/// of [`crate::compress`].
pub(crate) fn quantize_chunk(
    data: &[f32],
    layout: DataLayout,
    predictor: Predictor,
    config: &SzConfig,
    out: &mut Quantized,
) {
    match config.quant_mode {
        QuantMode::Classic => quantize_classic(data, layout, predictor, config, out),
        QuantMode::DualQuant => {
            quantize_dual(avx512_detected(), data, layout, predictor, config, out)
        }
    }
}

/// Classic mode: Lorenzo over *reconstructed floats*, residual
/// quantization, out-of-bound points demoted to bit-exact outliers.
fn quantize_classic(
    data: &[f32],
    layout: DataLayout,
    predictor: Predictor,
    config: &SzConfig,
    out: &mut Quantized,
) {
    let n = data.len();
    let eb = config.error_bound;
    let two_eb = 2.0 * eb;
    let radius = crate::RADIUS as i64;
    if n == 0 {
        return;
    }
    let (codes, outliers) = (&mut out.codes, &mut out.outliers);
    let mut recon = vec![0.0f32; n];

    // One element, exactly as the generic loop computed it: quantize the
    // residual against the prediction, verify the reconstruction honours
    // the bound, escape to a bit-exact outlier otherwise.
    macro_rules! emit {
        ($idx:expr, $pred:expr) => {{
            let idx = $idx;
            let x = data[idx];
            let pred: f32 = $pred;
            let diff = x - pred;
            let qf = (diff / two_eb).round();
            let mut emitted = false;
            if x.is_finite() && qf.is_finite() && qf.abs() < radius as f32 {
                let q = qf as i64;
                let rec = pred + q as f32 * two_eb;
                // Float rounding can push the reconstruction past the
                // bound; classic SZ demotes such points to outliers.
                if (x - rec).abs() <= eb {
                    codes.push((q + radius) as u32);
                    recon[idx] = rec;
                    emitted = true;
                }
            }
            if !emitted {
                codes.push(0); // escape: next outlier
                outliers.push(x.to_bits());
                recon[idx] = x;
            }
        }};
    }

    match geometry(predictor, layout, n) {
        Geometry::Scan => {
            emit!(0, 0.0f32);
            for idx in 1..n {
                emit!(idx, recon[idx - 1]);
            }
        }
        Geometry::Grid2 { rows, w } => {
            emit!(0, 0.0f32);
            for j in 1..w {
                emit!(j, recon[j - 1]);
            }
            for i in 1..rows {
                let base = i * w;
                emit!(base, recon[base - w]);
                for j in 1..w {
                    let idx = base + j;
                    emit!(idx, recon[idx - w] + recon[idx - 1] - recon[idx - w - 1]);
                }
            }
        }
        Geometry::Grid3 { d0, d1, d2 } => {
            let plane = d1 * d2;
            for i in 0..d0 {
                let has_b = i > 0;
                for j in 0..d1 {
                    let has_u = j > 0;
                    let row = i * plane + j * d2;
                    {
                        let u = if has_u { recon[row - d2] } else { 0.0 };
                        let b = if has_b { recon[row - plane] } else { 0.0 };
                        let bu = if has_b && has_u {
                            recon[row - plane - d2]
                        } else {
                            0.0
                        };
                        emit!(row, u + b - bu);
                    }
                    for k in 1..d2 {
                        let idx = row + k;
                        let l = recon[idx - 1];
                        let (u, ul) = if has_u {
                            (recon[idx - d2], recon[idx - d2 - 1])
                        } else {
                            (0.0, 0.0)
                        };
                        let (b, bl) = if has_b {
                            (recon[idx - plane], recon[idx - plane - 1])
                        } else {
                            (0.0, 0.0)
                        };
                        let (bu, bul) = if has_b && has_u {
                            (recon[idx - plane - d2], recon[idx - plane - d2 - 1])
                        } else {
                            (0.0, 0.0)
                        };
                        // Inclusion–exclusion in the generic stencil's
                        // operand order.
                        emit!(idx, l + u + b - ul - bl - bu + bul);
                    }
                }
            }
        }
    }
}

/// True when this CPU runs the AVX-512 compilation of [`dual_passes`]
/// (AVX-512DQ packs its i64 → f64 conversion). Detected once per
/// process.
fn avx512_detected() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512dq")
                && is_x86_feature_detected!("avx512vl")
        }
        #[cfg(not(target_arch = "x86_64"))]
        false
    })
}

/// Dual-quantization (see [`dual_passes`]) on the AVX-512 arm when
/// `vector` is set and the CPU has it, on the plain arm otherwise. Both
/// arms emit the same grid, codes and outliers
/// (`tests::specialized_quantize_matches_generic`).
fn quantize_dual(
    vector: bool,
    data: &[f32],
    layout: DataLayout,
    predictor: Predictor,
    config: &SzConfig,
    out: &mut Quantized,
) {
    let n = data.len();
    if n == 0 {
        return;
    }
    let Quantized {
        codes,
        outliers,
        grid,
    } = out;
    let base = codes.len();
    codes.resize(base + n, 0);
    let codes = &mut codes[base..];
    grid.clear();
    grid.resize(n, 0);
    let (d1, d2) = geometry(predictor, layout, n).plane_shape(n);
    let eb = config.error_bound;
    let radius = crate::RADIUS as i64;
    // Off x86-64 `avx512_detected()` is false and the first branch empty.
    if vector && avx512_detected() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `avx512_detected()` just confirmed, through
        // `is_x86_feature_detected!`, that this CPU has every feature
        // `dual_passes_avx512` is compiled for.
        unsafe {
            dual_passes_avx512(data, grid, codes, eb, radius, d1, d2)
        };
    } else {
        dual_passes(data, grid, codes, eb, radius, d1, d2);
    }
    // Escapes, in element order: a coded element's code is at least 1.
    let escaped = codes.iter().zip(data).filter(|&(&code, _)| code == 0);
    outliers.extend(escaped.map(|(_, x)| x.to_bits()));
}

/// [`dual_passes`] compiled for AVX-512F/DQ/VL.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn dual_passes_avx512(
    data: &[f32],
    grid: &mut [i64],
    codes: &mut [u32],
    eb: f32,
    radius: i64,
    d1: usize,
    d2: usize,
) {
    dual_passes(data, grid, codes, eb, radius, d1, d2);
}

/// The dual-quant kernel: two passes with no loop-carried work, inlined
/// into each arm so every arm compiles it for its own features.
///
/// Pass 1 is elementwise and branch-free: snap every value to its grid
/// point and verify the reconstruction (`grid` gets `q`, or the sentinel
/// 0 the decoder mirrors for unmappable values; `codes` gets a
/// provisional 1/0 "may be coded" flag). Pass 2 is the integer Lorenzo
/// residual over the finished grid — every operand is already in memory,
/// so neither pass waits on the previous element — and writes 0 for an
/// escape, leaving the outliers to a separate scan. Wrapping sums mirror
/// the decoder (unreachable on encoder-side data, whose grid values are
/// clamped).
#[inline(always)]
fn dual_passes(
    data: &[f32],
    grid: &mut [i64],
    codes: &mut [u32],
    eb: f32,
    radius: i64,
    d1: usize,
    d2: usize,
) {
    let two_eb = 2.0 * eb;
    for ((g, flag), &x) in grid.iter_mut().zip(codes.iter_mut()).zip(data) {
        let (q, in_range) = grid_point(x, two_eb);
        *g = q;
        // f32 rounding of q·2eb can break the bound for large |x|/eb
        // ratios; such points go bit-exact.
        *flag = (in_range & ((x - grid_value(q, two_eb)).abs() <= eb)) as u32;
    }

    let grid = &*grid;
    let code = |flag: u32, delta: i64| {
        let coded = flag != 0 && delta.unsigned_abs() < radius as u64;
        if coded {
            delta.wrapping_add(radius) as u32
        } else {
            0
        }
    };
    let zeros = vec![0i64; d2];
    for row in (0..grid.len()).step_by(d2) {
        let rows = neighbour_rows(&grid[..row], &zeros, d1, d2);
        let cur = &grid[row..row + d2];
        let codes = &mut codes[row..row + d2];
        codes[0] = code(codes[0], cur[0].wrapping_sub(lorenzo_rest(rows, 0)));
        for k in 1..d2 {
            let pred = cur[k - 1].wrapping_add(lorenzo_rest(rows, k));
            codes[k] = code(codes[k], cur[k].wrapping_sub(pred));
        }
    }
}

/// [`quantize_chunk`] into fresh vectors, for tests.
#[cfg(test)]
pub(crate) fn quantize_chunk_owned(
    data: &[f32],
    layout: DataLayout,
    predictor: Predictor,
    config: &SzConfig,
) -> (Vec<u32>, Vec<u32>) {
    let mut out = Quantized::default();
    quantize_chunk(data, layout, predictor, config, &mut out);
    (out.codes, out.outliers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{grid_of, GRID_CLAMP};
    use crate::predictor::{predict, predict_i64};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The pre-specialization encoder: per-element `predict()` /
    /// `predict_i64()` over the flat index — the reference the
    /// specialized loops must replay bit-for-bit. Returns codes,
    /// outliers and (dual-quant only) the grid.
    fn quantize_generic(
        data: &[f32],
        layout: DataLayout,
        predictor: Predictor,
        config: &SzConfig,
    ) -> (Vec<u32>, Vec<u32>, Vec<i64>) {
        let n = data.len();
        let eb = config.error_bound;
        let two_eb = 2.0 * eb;
        let radius = crate::RADIUS as i64;
        let mut codes: Vec<u32> = Vec::with_capacity(n);
        let mut outliers: Vec<u32> = Vec::new();
        let mut grid = Vec::new();
        match config.quant_mode {
            QuantMode::Classic => {
                let mut recon = vec![0.0f32; n];
                for idx in 0..n {
                    let x = data[idx];
                    let pred = predict(predictor, &layout, &recon, idx);
                    let diff = x - pred;
                    let qf = (diff / two_eb).round();
                    let mut emitted = false;
                    if x.is_finite() && qf.is_finite() && qf.abs() < radius as f32 {
                        let q = qf as i64;
                        let rec = pred + q as f32 * two_eb;
                        if (x - rec).abs() <= eb {
                            codes.push((q + radius) as u32);
                            recon[idx] = rec;
                            emitted = true;
                        }
                    }
                    if !emitted {
                        codes.push(0);
                        outliers.push(x.to_bits());
                        recon[idx] = x;
                    }
                }
            }
            QuantMode::DualQuant => {
                grid = vec![0i64; n];
                for idx in 0..n {
                    let x = data[idx];
                    let pred = predict_i64(predictor, &layout, &grid, idx);
                    match grid_of(x, two_eb) {
                        Some(q) => {
                            let delta = q - pred;
                            let rec = (q as f64 * two_eb as f64) as f32;
                            if delta.unsigned_abs() < radius as u64 && (x - rec).abs() <= eb {
                                codes.push((delta + radius) as u32);
                            } else {
                                codes.push(0);
                                outliers.push(x.to_bits());
                            }
                            grid[idx] = q;
                        }
                        None => {
                            codes.push(0);
                            outliers.push(x.to_bits());
                            grid[idx] = 0;
                        }
                    }
                }
            }
        }
        (codes, outliers, grid)
    }

    /// Values the dual-quant pre-pass treats specially at bound `eb`:
    /// non-finite values, denormals, exact half-grid ties, the edge of
    /// the grid clamp, and a coded-looking value whose f32 grid point
    /// breaks the bound.
    fn dual_quant_specials(eb: f32) -> Vec<f32> {
        let two_eb = 2.0 * eb;
        let mut xs = vec![
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            -0.0,
            4.0e19,
        ];
        let ties = [0u32, 1, 2, 7, 100, 4095].map(|k| ((k as f64 + 0.5) * two_eb as f64) as f32);
        let clamp_edge = ((GRID_CLAMP - 0.5) * two_eb as f64) as f32;
        for edge in ties.into_iter().chain([clamp_edge]) {
            for ulps in -2i32..=2 {
                xs.push(f32::from_bits((edge.to_bits() as i32 + ulps) as u32));
            }
        }
        // The f32-rounding escape: in range of the grid, but the f32
        // nearest its grid point is more than `eb` away. From the first
        // power of two whose f32 spacing is at least `eb`, so the
        // spacing is below 2eb and misses some grid points by more than
        // `eb`. A power-of-two bound puts every grid point there on an
        // f32 and has no escape.
        let x0 = 2f32.powi((eb as f64 * 2f64.powi(23)).log2().ceil() as i32);
        let escape = (0..4096)
            .map(|k| f32::from_bits(x0.to_bits() + k))
            .find(|&x| grid_of(x, two_eb).is_some_and(|q| (x - grid_value(q, two_eb)).abs() > eb));
        assert_eq!(escape.is_some(), eb.to_bits() & 0x007f_ffff != 0, "{eb:e}");
        xs.extend(escape);
        let negated: Vec<f32> = xs.iter().map(|&x| -x).collect();
        xs.extend(negated);
        xs
    }

    #[test]
    fn specialized_quantize_matches_generic() {
        // Every predictor × layout × mode combination — including forced
        // mismatches where the generic decomposition degenerates — plus
        // payloads with zeros, outliers, non-finite values and the
        // dual-quant pre-pass's edge cases. Dual-quant runs on both
        // arms, which must agree on grid, codes and outliers.
        let vector = avx512_detected();
        if !vector {
            eprintln!("note: no AVX-512F/DQ/VL on this CPU; the vector dual-quant arm is skipped");
        }
        let mut rng = StdRng::seed_from_u64(2024);
        let layouts = [
            DataLayout::D1(513),
            DataLayout::D2(21, 17),
            DataLayout::D3(5, 9, 11),
        ];
        // 2^-10: exact half-grid ties are representable in f32.
        for eb in [1e-3, 2f32.powi(-10)] {
            let specials = dual_quant_specials(eb);
            for layout in layouts {
                for predictor in [
                    Predictor::Lorenzo1,
                    Predictor::Lorenzo2,
                    Predictor::Lorenzo3,
                ] {
                    let n = layout.len();
                    let mut data: Vec<f32> = (0..n)
                        .map(|_| {
                            if rng.gen_bool(0.3) {
                                0.0
                            } else {
                                rng.gen_range(-4.0f32..4.0)
                            }
                        })
                        .collect();
                    for (i, &x) in specials.iter().enumerate() {
                        data[(i * 7 + 3) % n] = x;
                    }
                    for quant_mode in [QuantMode::Classic, QuantMode::DualQuant] {
                        let what = format!("{eb:e}/{layout:?}/{predictor:?}/{quant_mode:?}");
                        let mut cfg = SzConfig::vanilla(eb);
                        cfg.predictor = Some(predictor);
                        cfg.quant_mode = quant_mode;
                        let (gc, go, gg) = quantize_generic(&data, layout, predictor, &cfg);
                        let (sc, so) = quantize_chunk_owned(&data, layout, predictor, &cfg);
                        assert_eq!(gc, sc, "{what} codes");
                        assert_eq!(go, so, "{what} outliers");
                        if quant_mode == QuantMode::Classic {
                            continue;
                        }
                        for arm in [false, true] {
                            if arm && !vector {
                                continue;
                            }
                            let mut q = Quantized::default();
                            quantize_dual(arm, &data, layout, predictor, &cfg, &mut q);
                            assert_eq!(q.grid, gg, "{what} grid, vector arm {arm}");
                            assert_eq!(q.codes, gc, "{what} codes, vector arm {arm}");
                            assert_eq!(q.outliers, go, "{what} outliers, vector arm {arm}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_chunk_is_empty() {
        let cfg = SzConfig::vanilla(1e-3);
        let (c, o) = quantize_chunk_owned(&[], DataLayout::D1(0), Predictor::Lorenzo1, &cfg);
        assert!(c.is_empty() && o.is_empty());
    }
}
