//! Row-parallel single-precision GEMM.
//!
//! Convolution via `im2col` reduces to `C[m×n] = A[m×k] · B[k×n]`; the
//! backward pass additionally needs the `Aᵀ·B` and `A·Bᵀ` forms. Rows of
//! `C` are partitioned into one parallel region (each piece owns a
//! disjoint `&mut` row block, so there is no sharing) once the product is
//! large enough; `NN`/`TN` order their loops `i-k-j` so the innermost
//! loop is a unit-stride AXPY that the compiler auto-vectorizes, `NT` is
//! a scalar dot product per output. A row is computed by the same code
//! whether or not the region fans out, so results do not depend on the
//! thread count.

use rayon::prelude::*;

/// Transpose interpretation of a GEMM operand pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmLayout {
    /// `C = A·B`
    NN,
    /// `C = Aᵀ·B`
    TN,
    /// `C = A·Bᵀ`
    NT,
}

/// Minimum multiply-adds (`m·n·k`) before the rows of `C` are split
/// into a parallel region. A region costs ≈ 4 µs when a pool worker is
/// awake and ≈ 40 µs when one must be woken; at the AXPY kernels' serial
/// ≈ 8 G multiply-adds/s this is 32 µs of work, the smallest product the
/// split wins on with a warm worker (measurements: DESIGN.md §5).
const PAR_MIN_MACS: usize = 256 * 1024;

/// Run `body` over the rows of `C`, as one parallel region when the
/// product is large enough. Every row — and so every output element's
/// summation order — is computed by the same code either way.
fn for_each_row<F>(m: usize, k: usize, n: usize, c: &mut [f32], body: F)
where
    F: Fn((usize, &mut [f32])) + Sync,
{
    if m.saturating_mul(n).saturating_mul(k) >= PAR_MIN_MACS {
        c.par_chunks_mut(n).enumerate().for_each(body);
    } else {
        c.chunks_mut(n).enumerate().for_each(body);
    }
}

/// `C[m×n] += A[m×k] · B[k×n]` (row-major, `C` must be pre-sized `m*n`).
pub fn gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k, "A size");
    debug_assert_eq!(b.len(), k * n, "B size");
    debug_assert_eq!(c.len(), m * n, "C size");
    let body = |(i, c_row): (usize, &mut [f32])| {
        let a_row = &a[i * k..(i + 1) * k];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                *c_v += a_ip * b_v;
            }
        }
    };
    for_each_row(m, k, n, c, body);
}

/// `C[m×n] += Aᵀ·B` where `A` is stored `[k×m]` and `B` is `[k×n]`.
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), k * m, "A size");
    debug_assert_eq!(b.len(), k * n, "B size");
    debug_assert_eq!(c.len(), m * n, "C size");
    let body = |(i, c_row): (usize, &mut [f32])| {
        for p in 0..k {
            let a_ip = a[p * m + i];
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                *c_v += a_ip * b_v;
            }
        }
    };
    for_each_row(m, k, n, c, body);
}

/// `C[m×n] += A·Bᵀ` where `A` is `[m×k]` and `B` is stored `[n×k]`.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k, "A size");
    debug_assert_eq!(b.len(), n * k, "B size");
    debug_assert_eq!(c.len(), m * n, "C size");
    let body = |(i, c_row): (usize, &mut [f32])| {
        let a_row = &a[i * k..(i + 1) * k];
        for (j, c_v) in c_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            *c_v += acc;
        }
    };
    for_each_row(m, k, n, c, body);
}

/// Dispatching front-end over the three layouts.
///
/// Dimension convention: `m`,`n` are the logical output dims of `C`, `k` is
/// the contraction length; operand storage layouts per variant are
/// documented on [`gemm_nn`], [`gemm_tn`], [`gemm_nt`].
pub fn gemm(layout: GemmLayout, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    match layout {
        GemmLayout::NN => gemm_nn(m, k, n, a, b, c),
        GemmLayout::TN => gemm_tn(m, k, n, a, b, c),
        GemmLayout::NT => gemm_nt(m, k, n, a, b, c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn naive_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn rand_mat(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn assert_close(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-3, "elem {i}: {x} vs {y}");
        }
    }

    #[test]
    fn nn_matches_naive_small_and_parallel_sizes() {
        let mut rng = StdRng::seed_from_u64(7);
        for (m, k, n) in [(3, 4, 5), (1, 1, 1), (17, 9, 33), (64, 128, 300)] {
            let a = rand_mat(&mut rng, m * k);
            let b = rand_mat(&mut rng, k * n);
            let mut c = vec![0.0; m * n];
            gemm_nn(m, k, n, &a, &b, &mut c);
            assert_close(&c, &naive_nn(m, k, n, &a, &b));
        }
    }

    #[test]
    fn tn_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(8);
        for (m, k, n) in [(4, 6, 5), (31, 7, 65), (128, 64, 200)] {
            // A stored [k x m]; logical op is transpose(A)*B.
            let a_t = rand_mat(&mut rng, k * m);
            let b = rand_mat(&mut rng, k * n);
            let mut a = vec![0.0; m * k];
            for p in 0..k {
                for i in 0..m {
                    a[i * k + p] = a_t[p * m + i];
                }
            }
            let mut c = vec![0.0; m * n];
            gemm_tn(m, k, n, &a_t, &b, &mut c);
            assert_close(&c, &naive_nn(m, k, n, &a, &b));
        }
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(9);
        for (m, k, n) in [(4, 6, 5), (33, 17, 9), (100, 80, 160)] {
            let a = rand_mat(&mut rng, m * k);
            // B stored [n x k]; logical op is A*transpose(B).
            let b_t = rand_mat(&mut rng, n * k);
            let mut b = vec![0.0; k * n];
            for j in 0..n {
                for p in 0..k {
                    b[p * n + j] = b_t[j * k + p];
                }
            }
            let mut c = vec![0.0; m * n];
            gemm_nt(m, k, n, &a, &b_t, &mut c);
            assert_close(&c, &naive_nn(m, k, n, &a, &b));
        }
    }

    /// Row partitioning must not change a single bit: a product large
    /// enough to fan out equals the same product computed one row at a
    /// time (each far below the cutoff, so serial), for all three layouts.
    #[test]
    fn parallel_rows_are_bit_identical_to_serial_rows() {
        let mut rng = StdRng::seed_from_u64(11);
        let (m, k, n) = (64, 96, 100);
        assert!(m * n * k >= PAR_MIN_MACS && n * k < PAR_MIN_MACS);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for layout in [GemmLayout::NN, GemmLayout::TN, GemmLayout::NT] {
            let a = rand_mat(&mut rng, m * k);
            let b = rand_mat(&mut rng, k * n);
            let c0 = rand_mat(&mut rng, m * n);
            let mut par = c0.clone();
            gemm(layout, m, k, n, &a, &b, &mut par);
            let mut serial = c0;
            for (i, c_row) in serial.chunks_mut(n).enumerate() {
                // Row i of the logical A: a column of the stored [k×m]
                // matrix under TN, a stored row otherwise.
                let a_row: Vec<f32> = match layout {
                    GemmLayout::TN => (0..k).map(|p| a[p * m + i]).collect(),
                    _ => a[i * k..(i + 1) * k].to_vec(),
                };
                gemm(layout, 1, k, n, &a_row, &b, c_row);
            }
            assert_eq!(bits(&par), bits(&serial), "{layout:?}");
        }
    }

    #[test]
    fn gemm_accumulates_into_c() {
        let a = [1.0, 0.0, 0.0, 1.0]; // identity 2x2
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = vec![1.0; 4];
        gemm_nn(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, vec![6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn dispatch_matches_direct_calls() {
        let mut rng = StdRng::seed_from_u64(10);
        let (m, k, n) = (6, 5, 4);
        let a = rand_mat(&mut rng, m * k);
        let b = rand_mat(&mut rng, k * n);
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        gemm(GemmLayout::NN, m, k, n, &a, &b, &mut c1);
        gemm_nn(m, k, n, &a, &b, &mut c2);
        assert_eq!(c1, c2);
    }
}
