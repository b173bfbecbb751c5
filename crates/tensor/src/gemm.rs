//! Row-parallel, register-tiled single-precision GEMM.
//!
//! Convolution via `im2col` reduces to `C[m×n] = A[m×k] · B[k×n]`; the
//! backward pass additionally needs the `Aᵀ·B` and `A·Bᵀ` forms. One kernel
//! serves all three: it holds an `MR × NR` tile of `C` in registers while it
//! walks `p = 0..k`, reading `A` through a strided view, so `NN` (`[m×k]`)
//! and `TN` (`[k×m]`) share its body; both accumulate in `C` and skip
//! `a_ip == 0`. `NT` runs it as `Cᵀ = B·Aᵀ` over a transposed copy of `A`,
//! summed from `0.0` and added into `C` once. Each output element is summed
//! over `p` in order, every product rounded before its add (no fused
//! multiply-add), so its bits depend on neither the tiling, the thread count
//! nor the kernel's arm (plain or AVX-512, picked once per process). The
//! `MR`-row blocks of `C` are one parallel region once the product is large.

use rayon::prelude::*;
use std::sync::OnceLock;

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

/// Rows of `C` per register tile: one accumulator vector per row.
const MR: usize = 4;
/// Columns of `C` per register tile: one 512-bit vector.
const NR: usize = 16;

/// Minimum multiply-adds (`m·n·k`) before the row blocks of `C` are split
/// into a parallel region. A region costs ≈ 4 µs when a pool worker is
/// awake and ≈ 40 µs when one must be woken. Swept end to end (DESIGN.md
/// §5) at ≈ 8 G multiply-adds/s, 32 µs of work; at the tiled kernel's
/// 10–17 G it is 15–26 µs, still above a warm hand-off.
const PAR_MIN_MACS: usize = 256 * 1024;

/// `C[m×n] += A[m×k] · B[k×n]` (row-major, `C` must be pre-sized `m*n`).
pub fn gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm(GemmLayout::NN, m, k, n, a, b, c);
}

/// `C[m×n] += Aᵀ·B` where `A` is stored `[k×m]` and `B` is `[k×n]`.
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm(GemmLayout::TN, m, k, n, a, b, c);
}

/// `C[m×n] += A·Bᵀ` where `A` is `[m×k]` and `B` is stored `[n×k]`.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm(GemmLayout::NT, m, k, n, a, b, c);
}

/// Dispatching front-end over the three layouts.
///
/// Dimension convention: `m`,`n` are the logical output dims of `C`, `k` is
/// the contraction length; operand storage layouts per variant are
/// documented on [`gemm_nn`], [`gemm_tn`], [`gemm_nt`]. A product with
/// `m`, `n` or `k` equal to 0 leaves `C` untouched.
pub fn gemm(layout: GemmLayout, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    product(true, layout, (m, k, n), a, b, c);
}

/// [`gemm`] on the AVX-512 arm when `vector` is set and the CPU has it,
/// on the plain arm otherwise.
fn product(
    vector: bool,
    layout: GemmLayout,
    (m, k, n): (usize, usize, usize),
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k, "A size");
    debug_assert_eq!(b.len(), k * n, "B size");
    debug_assert_eq!(c.len(), m * n, "C size");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let vector = vector && avx512_detected();
    // The product's own multiply-adds, not the padded ones `NT` runs.
    let par = m.saturating_mul(n).saturating_mul(k) >= PAR_MIN_MACS;
    match layout {
        GemmLayout::NN => row_blocks::<true>((vector, par), (a, k, 1), b, n, c),
        GemmLayout::TN => row_blocks::<true>((vector, par), (a, 1, m), b, n, c),
        GemmLayout::NT => {
            // A, the smaller side of a weight gradient, is the one copied;
            // its rows are padded so every tile of the scratch Cᵀ is full.
            let ld = m.next_multiple_of(NR);
            let mut a_t = vec![0.0; k * ld];
            for (i, a_i) in a.chunks_exact(k).enumerate() {
                for (a_t_p, &v) in a_t.chunks_exact_mut(ld).zip(a_i) {
                    a_t_p[i] = v;
                }
            }
            let mut c_t = vec![0.0; n * ld];
            row_blocks::<false>((vector, par), (b, k, 1), &a_t, ld, &mut c_t);
            for (i, c_i) in c.chunks_exact_mut(n).enumerate() {
                for (c_v, c_t_j) in c_i.iter_mut().zip(c_t.chunks_exact(ld)) {
                    *c_v += c_t_j[i];
                }
            }
        }
    }
}

/// A strided view `(a, rs, cs)` of a logical `[m×k]` A: element `(i, p)`
/// sits at `a[i·rs + p·cs]`.
type View<'a> = (&'a [f32], usize, usize);

/// `C[m×n] += A·B[k×n]` over the `MR`-row blocks of `C`, on the AVX-512
/// arm when `vector` is set, as one parallel region when `par` is.
fn row_blocks<const SKIP: bool>(arm: (bool, bool), a: View, b: &[f32], n: usize, c: &mut [f32]) {
    let ((vector, par), (a, rs, cs)) = (arm, a);
    let body = |(blk, c_blk): (usize, &mut [f32])| {
        let a_blk = (&a[blk * MR * rs..], rs, cs);
        // Off x86-64 `vector` is false and the first branch empty.
        if vector {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `vector` is set only when `avx512_detected()`
            // confirmed, through `is_x86_feature_detected!`, that this
            // CPU has AVX-512F, the feature `block_avx512` is compiled for.
            unsafe {
                block_avx512::<SKIP>(a_blk, b, n, c_blk)
            };
        } else {
            block_plain::<SKIP>(a_blk, b, n, c_blk);
        }
    };
    if par {
        c.par_chunks_mut(MR * n).enumerate().for_each(body);
    } else {
        c.chunks_mut(MR * n).enumerate().for_each(body);
    }
}

/// Whether this CPU has AVX-512F, detected once per process.
fn avx512_detected() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx512f")
        }
        #[cfg(not(target_arch = "x86_64"))]
        false
    })
}

/// [`block`] on the baseline target. Never inlined, like the AVX-512
/// arm, so its loop layout does not move when code near a caller changes.
#[inline(never)]
fn block_plain<const SKIP: bool>(a: View, b: &[f32], n: usize, c: &mut [f32]) {
    block::<SKIP>(a, b, n, c);
}

/// [`block`] compiled for AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline(never)]
fn block_avx512<const SKIP: bool>(a: View, b: &[f32], n: usize, c: &mut [f32]) {
    block::<SKIP>(a, b, n, c);
}

/// One block of up to `MR` rows of `C` from the same rows of `A`, `NR`
/// columns at a time. Inlined into each arm so every arm compiles it for
/// its own features; a full-width tile gets the constant `NR`.
#[inline(always)]
fn block<const SKIP: bool>(a: View, b: &[f32], n: usize, c: &mut [f32]) {
    for j0 in (0..n).step_by(NR) {
        match n - j0 {
            cols if cols >= NR => tile::<SKIP>(a, b, n, j0, NR, c),
            cols => tile::<SKIP>(a, b, n, j0, cols, c),
        }
    }
}

/// Columns `j0..j0 + cols` of the up to `MR` rows of `C` in `c`, summed
/// in registers: `p = 0..k` in order, each product rounded before its add
/// (no fused multiply-add). `SKIP` skips `a_ip == 0`.
#[inline(always)]
fn tile<const SKIP: bool>(a: View, b: &[f32], n: usize, j0: usize, cols: usize, c: &mut [f32]) {
    let ((a, rs, cs), k, rows) = (a, b.len() / n, c.len() / n);
    // Rows past `rows` alias the last row; the loop below never reads them.
    let a_r: [&[f32]; MR] = std::array::from_fn(|r| &a[r.min(rows - 1) * rs..][..(k - 1) * cs + 1]);
    let mut acc = [[0.0f32; NR]; MR];
    for (acc_r, c_r) in acc.iter_mut().zip(c.chunks_exact(n)) {
        acc_r[..cols].copy_from_slice(&c_r[j0..j0 + cols]);
    }
    for (p, b_p) in (0..k).zip(b.chunks_exact(n)) {
        let b_p = &b_p[j0..j0 + cols];
        for (acc_r, a_r) in acc.iter_mut().zip(&a_r).take(rows) {
            let a_ip = a_r[p * cs];
            if !SKIP || a_ip != 0.0 {
                for (x, &y) in acc_r.iter_mut().zip(b_p) {
                    *x += a_ip * y;
                }
            }
        }
    }
    for (acc_r, c_r) in acc.iter().zip(c.chunks_exact_mut(n)) {
        c_r[j0..j0 + cols].copy_from_slice(&acc_r[..cols]);
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

    /// The row-at-a-time kernels the tiled one replaced, kept as its
    /// oracle: one row of `C` per call of `body`, `NN`/`TN` as an AXPY per
    /// non-zero `a_ip`, `NT` as one dot product per output from `0.0`.
    fn oracle(
        layout: GemmLayout,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        let body = |(i, c_row): (usize, &mut [f32])| match layout {
            GemmLayout::NN | GemmLayout::TN => {
                for p in 0..k {
                    let a_ip = if layout == GemmLayout::NN {
                        a[i * k + p]
                    } else {
                        a[p * m + i]
                    };
                    if a_ip == 0.0 {
                        continue;
                    }
                    let b_row = &b[p * n..(p + 1) * n];
                    for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                        *c_v += a_ip * b_v;
                    }
                }
            }
            GemmLayout::NT => {
                let a_row = &a[i * k..(i + 1) * k];
                for (j, c_v) in c_row.iter_mut().enumerate() {
                    let b_row = &b[j * k..(j + 1) * k];
                    let mut acc = 0.0f32;
                    for (&x, &y) in a_row.iter().zip(b_row) {
                        acc += x * y;
                    }
                    *c_v += acc;
                }
            }
        };
        c.chunks_mut(n).enumerate().for_each(body);
    }

    /// Uniform in [-1, 1) with, at the given per-mille rates, exact zeros
    /// of both signs and specials (NaN, ±Inf, -0.0).
    fn spiked_mat(rng: &mut StdRng, len: usize, zeros: u32, specials: u32) -> Vec<f32> {
        const SPECIALS: [f32; 4] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        (0..len)
            .map(|_| match rng.gen_range(0..1000) {
                x if x < zeros => [0.0, -0.0][x as usize % 2],
                x if x < zeros + specials => SPECIALS[x as usize % 4],
                _ => rng.gen_range(-1.0..1.0),
            })
            .collect()
    }

    /// Both arms of the tiled kernel reproduce the row kernels bit for bit
    /// on every tile tail, on a parallel-sized product, from a non-zero
    /// `C`, with exact zeros in `A` (skipped by `NN`/`TN`, summed by `NT`)
    /// and -0.0, NaN and ±Inf in every operand. Rust leaves open which
    /// NaN an operation on NaNs returns, so every NaN compares as one
    /// value. An empty product (`k = 0`) leaves `C` untouched: the row
    /// kernels' `NT` added the empty sum +0.0 there, turning a -0.0 in `C`
    /// into +0.0.
    #[test]
    fn tiled_kernel_is_bit_identical_to_the_row_kernels() {
        let mut rng = StdRng::seed_from_u64(12);
        let bits = |v: &[f32]| {
            let bits = |x: &f32| {
                if x.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    x.to_bits()
                }
            };
            v.iter().map(bits).collect::<Vec<_>>()
        };
        if !avx512_detected() {
            eprintln!("note: no AVX-512F on this CPU; both runs take the plain arm");
        }
        let mut shapes = vec![(67, 64, 70)];
        const { assert!(67 * 64 * 70 >= PAR_MIN_MACS) };
        for m in [1, 3, 4, 5, 17] {
            for n in [1, 15, 16, 17, 33] {
                shapes.extend([0, 1, 7, 64].map(|k| (m, k, n)));
            }
        }
        for (m, k, n) in shapes {
            for layout in [GemmLayout::NN, GemmLayout::TN, GemmLayout::NT] {
                let a = spiked_mat(&mut rng, m * k, 150, 4);
                let b = spiked_mat(&mut rng, k * n, 50, 4);
                let c0 = spiked_mat(&mut rng, m * n, 50, 20);
                let mut want = c0.clone();
                if k > 0 {
                    oracle(layout, m, k, n, &a, &b, &mut want);
                }
                for vector in [false, true] {
                    let mut got = c0.clone();
                    product(vector, layout, (m, k, n), &a, &b, &mut got);
                    let case = format!("{layout:?} m={m} k={k} n={n} vector={vector}");
                    assert_eq!(bits(&got), bits(&want), "{case}");
                }
            }
        }
    }

    /// A product with a zero dimension is a no-op for every layout; `n = 0`
    /// used to panic in the row split.
    #[test]
    fn empty_products_leave_c_untouched() {
        for layout in [GemmLayout::NN, GemmLayout::TN, GemmLayout::NT] {
            for (m, k, n) in [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0)] {
                let (a, b) = (vec![1.0; m * k], vec![1.0; k * n]);
                let c0: Vec<f32> = (0..m * n).map(|i| [-0.0, 2.0, f32::NAN][i % 3]).collect();
                let mut c = c0.clone();
                gemm(layout, m, k, n, &a, &b, &mut c);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&c), bits(&c0), "{layout:?} m={m} k={k} n={n}");
            }
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
