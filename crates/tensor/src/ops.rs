//! Parallel elementwise and reduction kernels.
//!
//! These are the building blocks shared by the layer implementations in
//! `ebtrain-dnn` and by the statistics collector in `ebtrain-core` (which
//! needs cheap sparsity ratios, mean-absolute values, and moments over very
//! large activation/gradient buffers every `W` iterations).

use rayon::prelude::*;

/// Below this length rayon overhead outweighs the win; run sequentially.
const PAR_THRESHOLD: usize = 32 * 1024;

/// `y[i] += alpha * x[i]`.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len());
    if y.len() >= PAR_THRESHOLD {
        y.par_iter_mut()
            .zip(x.par_iter())
            .for_each(|(yv, &xv)| *yv += alpha * xv);
    } else {
        for (yv, &xv) in y.iter_mut().zip(x) {
            *yv += alpha * xv;
        }
    }
}

/// In-place scale `x[i] *= alpha`.
pub fn scale(alpha: f32, x: &mut [f32]) {
    if x.len() >= PAR_THRESHOLD {
        x.par_iter_mut().for_each(|v| *v *= alpha);
    } else {
        for v in x.iter_mut() {
            *v *= alpha;
        }
    }
}

/// Sum of all elements (f64 accumulator to keep large reductions stable).
pub fn sum(x: &[f32]) -> f64 {
    if x.len() >= PAR_THRESHOLD {
        x.par_chunks(PAR_THRESHOLD)
            .map(|c| c.iter().map(|&v| v as f64).sum::<f64>())
            .sum()
    } else {
        x.iter().map(|&v| v as f64).sum()
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(x: &[f32]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        sum(x) / x.len() as f64
    }
}

/// Mean of absolute values — the `L̄` and `M̄` statistics of Eq. 6/8.
pub fn abs_mean(x: &[f32]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let s: f64 = if x.len() >= PAR_THRESHOLD {
        x.par_chunks(PAR_THRESHOLD)
            .map(|c| c.iter().map(|&v| v.abs() as f64).sum::<f64>())
            .sum()
    } else {
        x.iter().map(|&v| v.abs() as f64).sum()
    };
    s / x.len() as f64
}

/// Largest absolute value; 0 for an empty slice.
pub fn max_abs(x: &[f32]) -> f32 {
    if x.len() >= PAR_THRESHOLD {
        x.par_chunks(PAR_THRESHOLD)
            .map(|c| c.iter().fold(0.0f32, |m, &v| m.max(v.abs())))
            .reduce(|| 0.0, f32::max)
    } else {
        x.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }
}

/// Fraction of strictly non-zero elements — the sparsity ratio `R` of Eq. 7.
pub fn nonzero_fraction(x: &[f32]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let nz: usize = if x.len() >= PAR_THRESHOLD {
        x.par_chunks(PAR_THRESHOLD)
            .map(|c| c.iter().filter(|&&v| v != 0.0).count())
            .sum()
    } else {
        x.iter().filter(|&&v| v != 0.0).count()
    };
    nz as f64 / x.len() as f64
}

/// Population variance (f64 math), 0 for slices shorter than 1.
pub fn variance(x: &[f32]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    let ss: f64 = if x.len() >= PAR_THRESHOLD {
        x.par_chunks(PAR_THRESHOLD)
            .map(|c| c.iter().map(|&v| (v as f64 - m).powi(2)).sum::<f64>())
            .sum()
    } else {
        x.iter().map(|&v| (v as f64 - m).powi(2)).sum()
    };
    ss / x.len() as f64
}

/// Dot product with f64 accumulation.
pub fn dot(x: &[f32], y: &[f32]) -> f64 {
    assert_eq!(x.len(), y.len());
    if x.len() >= PAR_THRESHOLD {
        x.par_chunks(PAR_THRESHOLD)
            .zip(y.par_chunks(PAR_THRESHOLD))
            .map(|(a, b)| {
                a.iter()
                    .zip(b)
                    .map(|(&u, &v)| u as f64 * v as f64)
                    .sum::<f64>()
            })
            .sum()
    } else {
        x.iter().zip(y).map(|(&u, &v)| u as f64 * v as f64).sum()
    }
}

/// Per-channel mean over an NCHW tensor: output length `c`.
pub fn nchw_channel_mean(n: usize, c: usize, hw: usize, x: &[f32]) -> Vec<f64> {
    assert_eq!(x.len(), n * c * hw);
    let mut out = vec![0.0f64; c];
    for b in 0..n {
        for (ch, o) in out.iter_mut().enumerate() {
            let off = (b * c + ch) * hw;
            *o += x[off..off + hw].iter().map(|&v| v as f64).sum::<f64>();
        }
    }
    let denom = (n * hw) as f64;
    for o in &mut out {
        *o /= denom;
    }
    out
}

/// Per-channel population variance over an NCHW tensor given channel means.
pub fn nchw_channel_var(n: usize, c: usize, hw: usize, x: &[f32], means: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), n * c * hw);
    assert_eq!(means.len(), c);
    let mut out = vec![0.0f64; c];
    for b in 0..n {
        for (ch, o) in out.iter_mut().enumerate() {
            let m = means[ch];
            let off = (b * c + ch) * hw;
            *o += x[off..off + hw]
                .iter()
                .map(|&v| (v as f64 - m).powi(2))
                .sum::<f64>();
        }
    }
    let denom = (n * hw) as f64;
    for o in &mut out {
        *o /= denom;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_small_and_large() {
        let mut y = vec![1.0; 10];
        axpy(2.0, &[3.0; 10], &mut y);
        assert!(y.iter().all(|&v| v == 7.0));
        let mut y = vec![1.0; PAR_THRESHOLD + 1];
        axpy(0.5, &vec![2.0; PAR_THRESHOLD + 1], &mut y);
        assert!(y.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn reductions_agree_with_reference() {
        let x: Vec<f32> = (0..1000).map(|i| (i as f32 - 500.0) / 100.0).collect();
        assert!((sum(&x) - x.iter().map(|&v| v as f64).sum::<f64>()).abs() < 1e-9);
        assert!((mean(&x) - (-0.005)).abs() < 1e-6);
        assert!((max_abs(&x) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn nonzero_fraction_counts_exact_zeros() {
        let x = [0.0, 1.0, 0.0, -2.0, 0.0, 0.0, 3.0, 0.0];
        assert!((nonzero_fraction(&x) - 0.375).abs() < 1e-12);
        assert_eq!(nonzero_fraction(&[]), 0.0);
    }

    #[test]
    fn variance_matches_hand_computation() {
        let x = [1.0, 2.0, 3.0, 4.0];
        // mean 2.5, var = (2.25+0.25+0.25+2.25)/4 = 1.25
        assert!((variance(&x) - 1.25).abs() < 1e-9);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    fn dot_matches_reference() {
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, 5.0, 6.0];
        assert!((dot(&x, &y) - 32.0).abs() < 1e-9);
    }

    #[test]
    fn channel_stats_over_nchw() {
        // n=2, c=2, hw=2; channel 0 = [1,2 | 5,6], channel 1 = [3,4 | 7,8]
        let x = [1., 2., 3., 4., 5., 6., 7., 8.];
        let m = nchw_channel_mean(2, 2, 2, &x);
        assert_eq!(m, vec![3.5, 5.5]);
        let v = nchw_channel_var(2, 2, 2, &x, &m);
        // channel0 values {1,2,5,6}: var = ((2.5)^2+(1.5)^2+(1.5)^2+(2.5)^2)/4 = 4.25
        assert!((v[0] - 4.25).abs() < 1e-9);
        assert!((v[1] - 4.25).abs() < 1e-9);
    }

    #[test]
    fn parallel_paths_match_sequential() {
        let x: Vec<f32> = (0..PAR_THRESHOLD + 17)
            .map(|i| ((i % 101) as f32) - 50.0)
            .collect();
        let seq_sum: f64 = x.iter().map(|&v| v as f64).sum();
        assert!((sum(&x) - seq_sum).abs() < 1e-6);
        let seq_nz = x.iter().filter(|&&v| v != 0.0).count() as f64 / x.len() as f64;
        assert!((nonzero_fraction(&x) - seq_nz).abs() < 1e-12);
    }
}
