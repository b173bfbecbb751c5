//! Specialized Lorenzo reconstruction loops for the decoder hot path.
//!
//! The generic per-element [`predict`](crate::predictor) helper recomputes
//! `idx / w`, `idx % w` (and the plane decomposition in 3-D) and
//! re-dispatches on the predictor for *every element*. Decompression
//! spends most of its non-entropy time in that loop, so this module
//! lowers each `(predictor, layout)` combination to a dedicated nested
//! loop: indices are carried by the loops themselves (no div/mod), the
//! predictor dispatch happens once per chunk, and the border handling is
//! hoisted out of the inner loop as loop-invariant flags.
//!
//! The arithmetic — operand order included, where it is float — mirrors
//! the generic stencils in `predictor.rs` exactly, so encoder
//! (`quantize.rs`, lowered the same way) and decoder reconstruct the
//! same values; `codec::tests::specialized_reconstruct_matches_generic`
//! pins that equivalence element-by-element.

use crate::codec::{grid_of, grid_value};
use crate::predictor::Predictor;
use crate::{DataLayout, Result, SzError};

fn corrupt(msg: &str) -> SzError {
    SzError::Corrupt(msg.to_string())
}

/// Loop shape a `(predictor, layout)` pair lowers to.
///
/// Every combination reduces to one of three shapes because the generic
/// stencils only look at the trailing dimensions: Lorenzo1 is a running
/// scan under any layout; Lorenzo2 sees the volume as `rows x w` rows
/// (its `i = idx / w` decomposition); Lorenzo3 over a 2-D/1-D layout
/// degenerates (the plane index is constant zero) to the 2-D/1-D stencil.
///
/// Shared with the encoder-side specialization (`quantize.rs`), which
/// lowers the same pairs to the same shapes.
pub(crate) enum Geometry {
    Scan,
    Grid2 { rows: usize, w: usize },
    Grid3 { d0: usize, d1: usize, d2: usize },
}

pub(crate) fn geometry(predictor: Predictor, layout: DataLayout, n: usize) -> Geometry {
    match predictor {
        Predictor::Lorenzo1 => Geometry::Scan,
        Predictor::Lorenzo2 => {
            let w = match layout {
                DataLayout::D2(_, w) => w,
                DataLayout::D1(n) => n,
                DataLayout::D3(_, _, w) => w,
            };
            debug_assert!(w > 0 && n.is_multiple_of(w));
            Geometry::Grid2 { rows: n / w, w }
        }
        Predictor::Lorenzo3 => match layout {
            DataLayout::D3(a, b, c) => Geometry::Grid3 {
                d0: a,
                d1: b,
                d2: c,
            },
            DataLayout::D2(h, w) => Geometry::Grid2 { rows: h, w },
            DataLayout::D1(_) => Geometry::Scan,
        },
    }
}

impl Geometry {
    /// `(rows per plane, row length)` of the shape seen as a volume (a
    /// scan of `n` elements is one row, a grid one plane). Exact for the
    /// integer stencil, whose missing-neighbour terms are zeros under
    /// wrapping sums; the float stencils keep their per-shape loops,
    /// where operand order is part of the format.
    pub(crate) fn plane_shape(&self, n: usize) -> (usize, usize) {
        match *self {
            Geometry::Scan => (1, n),
            Geometry::Grid2 { rows, w } => (rows, w),
            Geometry::Grid3 { d1, d2, .. } => (d1, d2),
        }
    }
}

/// The finished neighbour rows — above, behind, behind-above — of the
/// row starting at `done.len()` in a volume of `d1 × d2` planes; `zeros`
/// (one row long) stands in for rows past the volume's edge.
pub(crate) fn neighbour_rows<'a>(
    done: &'a [i64],
    zeros: &'a [i64],
    d1: usize,
    d2: usize,
) -> [&'a [i64]; 3] {
    let row = done.len();
    let (has_up, has_back) = (!(row / d2).is_multiple_of(d1), row >= d1 * d2);
    let at = |present: bool, back_by: usize| {
        let src = if present {
            &done[row - back_by..]
        } else {
            zeros
        };
        &src[..d2]
    };
    [
        at(has_up, d2),
        at(has_back, d1 * d2),
        at(has_up && has_back, d1 * d2 + d2),
    ]
}

/// Integer Lorenzo prediction at column `k` of a row, minus its
/// left-neighbour term — everything that does not depend on the element
/// just produced, so the decoder's loop-carried chain is a single add.
#[inline(always)]
pub(crate) fn lorenzo_rest([up, back, back_up]: [&[i64]; 3], k: usize) -> i64 {
    let here = up[k].wrapping_add(back[k]).wrapping_sub(back_up[k]);
    if k == 0 {
        return here;
    }
    here.wrapping_sub(up[k - 1])
        .wrapping_sub(back[k - 1])
        .wrapping_add(back_up[k - 1])
}

/// Classic-mode reconstruction: codes quantize the residual against the
/// float prediction over already-reconstructed neighbours.
pub(crate) fn reconstruct_classic(
    codes: &[u32],
    outliers: &[f32],
    predictor: Predictor,
    layout: DataLayout,
    radius: i64,
    two_eb: f32,
) -> Result<Vec<f32>> {
    let n = codes.len();
    let mut recon = vec![0.0f32; n];
    if n == 0 {
        return Ok(recon);
    }
    let mut oi = 0usize;

    // One element: outlier escape or `pred + q * 2eb`, exactly as the
    // generic loop computed it.
    macro_rules! emit {
        ($idx:expr, $pred:expr) => {{
            let idx = $idx;
            let code = codes[idx];
            if code == 0 {
                let x = *outliers
                    .get(oi)
                    .ok_or_else(|| corrupt("outlier underflow"))?;
                oi += 1;
                recon[idx] = x;
            } else {
                let q = code as i64 - radius;
                recon[idx] = $pred + q as f32 * two_eb;
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
            // Row 0: only the left neighbour exists.
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
                let has_b = i > 0; // a neighbour plane behind us
                for j in 0..d1 {
                    let has_u = j > 0; // a neighbour row above us
                    let row = i * plane + j * d2;
                    {
                        // k = 0: no left-column terms.
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
    Ok(recon)
}

/// Dual-quantization reconstruction: the Lorenzo stencil runs on the
/// exact integer grid; wrapping arithmetic mirrors the encoder (corrupt
/// code streams may accumulate arbitrarily — garbage values are fine,
/// panics are not).
pub(crate) fn reconstruct_dual(
    codes: &[u32],
    outliers: &[f32],
    predictor: Predictor,
    layout: DataLayout,
    radius: i64,
    two_eb: f32,
) -> Result<Vec<f32>> {
    let n = codes.len();
    let mut recon = vec![0.0f32; n];
    if n == 0 {
        return Ok(recon);
    }
    let mut grid = vec![0i64; n];
    let mut outliers = outliers.iter();
    let (d1, d2) = geometry(predictor, layout, n).plane_shape(n);
    let zeros = vec![0i64; d2];
    for row in (0..n).step_by(d2) {
        let (done, rest) = grid.split_at_mut(row);
        let cur = &mut rest[..d2];
        let rows = neighbour_rows(done, &zeros, d1, d2);
        let mut left = 0i64;
        for (k, (&code, out)) in codes[row..row + d2]
            .iter()
            .zip(&mut recon[row..row + d2])
            .enumerate()
        {
            left = if code == 0 {
                let x = *outliers
                    .next()
                    .ok_or_else(|| corrupt("outlier underflow"))?;
                *out = x;
                grid_of(x, two_eb).unwrap_or(0)
            } else {
                let q = left
                    .wrapping_add(lorenzo_rest(rows, k))
                    .wrapping_add(code as i64 - radius);
                *out = grid_value(q, two_eb);
                q
            };
            cur[k] = left;
        }
    }
    Ok(recon)
}
