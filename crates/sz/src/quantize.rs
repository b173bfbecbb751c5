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

use crate::codec::{grid_of, grid_value};
use crate::predictor::Predictor;
use crate::reconstruct::{geometry, lorenzo_rest, neighbour_rows, Geometry};
use crate::{DataLayout, QuantMode, SzConfig};

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
        QuantMode::DualQuant => quantize_dual(data, layout, predictor, config, out),
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
    let radius = config.radius as i64;
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

/// Dual-quantization, in two passes with no loop-carried float work.
///
/// Pass 1 is elementwise: snap every value to its grid point and verify
/// the reconstruction (`grid` gets `q`, or the sentinel 0 the decoder
/// mirrors for unmappable values; `codes` gets a provisional 1/0 "may be
/// coded" flag). Pass 2 is the integer Lorenzo residual over the finished
/// grid — every operand is already in memory, so neither pass waits on
/// the previous element. Wrapping sums mirror the decoder (unreachable
/// on encoder-side data, whose grid values are clamped).
fn quantize_dual(
    data: &[f32],
    layout: DataLayout,
    predictor: Predictor,
    config: &SzConfig,
    out: &mut Quantized,
) {
    let n = data.len();
    let eb = config.error_bound;
    let two_eb = 2.0 * eb;
    let radius = config.radius as i64;
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
    for ((g, flag), &x) in grid.iter_mut().zip(codes.iter_mut()).zip(data) {
        if let Some(q) = grid_of(x, two_eb) {
            *g = q;
            // f32 rounding of q·2eb can break the bound for large |x|/eb
            // ratios; such points go bit-exact.
            *flag = ((x - grid_value(q, two_eb)).abs() <= eb) as u32;
        }
    }
    let grid = &grid[..];

    let (d1, d2) = geometry(predictor, layout, n).plane_shape(n);
    let zeros = vec![0i64; d2];
    for row in (0..n).step_by(d2) {
        let rows = neighbour_rows(&grid[..row], &zeros, d1, d2);
        let mut left = 0i64;
        let cells = grid[row..row + d2]
            .iter()
            .zip(&mut codes[row..row + d2])
            .zip(&data[row..row + d2]);
        for (k, ((&q, code), x)) in cells.enumerate() {
            let delta = q - left.wrapping_add(lorenzo_rest(rows, k));
            if *code != 0 && delta.unsigned_abs() < radius as u64 {
                *code = (delta + radius) as u32;
            } else {
                *code = 0; // escape: next outlier
                outliers.push(x.to_bits());
            }
            left = q;
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
    use crate::predictor::{predict, predict_i64};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The pre-specialization encoder: per-element `predict()` /
    /// `predict_i64()` over the flat index — the reference the
    /// specialized loops must replay bit-for-bit.
    fn quantize_generic(
        data: &[f32],
        layout: DataLayout,
        predictor: Predictor,
        config: &SzConfig,
    ) -> (Vec<u32>, Vec<u32>) {
        let n = data.len();
        let eb = config.error_bound;
        let two_eb = 2.0 * eb;
        let radius = config.radius as i64;
        let mut codes: Vec<u32> = Vec::with_capacity(n);
        let mut outliers: Vec<u32> = Vec::new();
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
                let mut grid = vec![0i64; n];
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
        (codes, outliers)
    }

    #[test]
    fn specialized_quantize_matches_generic() {
        // Every predictor × layout × mode combination — including forced
        // mismatches where the generic decomposition degenerates — plus
        // payloads with zeros, outliers and non-finite values.
        let mut rng = StdRng::seed_from_u64(2024);
        let layouts = [
            DataLayout::D1(513),
            DataLayout::D2(21, 17),
            DataLayout::D3(5, 9, 11),
        ];
        for layout in layouts {
            for predictor in [
                Predictor::Lorenzo1,
                Predictor::Lorenzo2,
                Predictor::Lorenzo3,
            ] {
                for quant_mode in [QuantMode::Classic, QuantMode::DualQuant] {
                    let n = layout.len();
                    let data: Vec<f32> = (0..n)
                        .map(|i| {
                            if i == 37 {
                                f32::NAN
                            } else if i == 99 {
                                4.0e19
                            } else if rng.gen_bool(0.3) {
                                0.0
                            } else {
                                rng.gen_range(-4.0f32..4.0)
                            }
                        })
                        .collect();
                    let mut cfg = SzConfig::vanilla(1e-3);
                    cfg.predictor = Some(predictor);
                    cfg.quant_mode = quant_mode;
                    let (gc, go) = quantize_generic(&data, layout, predictor, &cfg);
                    let (sc, so) = quantize_chunk_owned(&data, layout, predictor, &cfg);
                    assert_eq!(gc, sc, "{layout:?}/{predictor:?}/{quant_mode:?} codes");
                    assert_eq!(go, so, "{layout:?}/{predictor:?}/{quant_mode:?} outliers");
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
