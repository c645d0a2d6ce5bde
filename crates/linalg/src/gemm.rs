//! Packed register-tile, optionally multithreaded GEMM kernels with
//! fused-transpose variants.
//!
//! Three products cover every dense contraction in the workspace:
//!
//! * [`matmul_into`]            — `out = a · b`
//! * [`matmul_transpose_a_into`] — `out = aᵀ · b` (no transpose materialized)
//! * [`matmul_transpose_b_into`] — `out = a · bᵀ` (no transpose materialized)
//!
//! All kernels share one accumulation discipline: each output element
//! receives its `k` terms in strictly ascending order, one `+=` per term,
//! starting from `0.0`, with no zero-skipping and no FMA contraction. That
//! makes the packed register-tile kernel, the row-band parallel kernel, and
//! the fused-transpose kernels **bit-identical** to the naive triple loop
//! (and to `transpose()` followed by `matmul`), which the property tests
//! assert. The three products share one packed driver (`tiled`); the tile
//! width is chosen from the output width (`widest_tile`) and changes only
//! speed, never a bit of the result.
//!
//! Large products are split into contiguous bands of output rows and fanned
//! out over `crossbeam` scoped threads; disjoint output bands make the
//! parallel result deterministic regardless of scheduling. Small products
//! (under [`PARALLEL_FLOP_CUTOFF`] multiply-adds) skip thread spawn entirely
//! and run the serial tiled kernel.

use crate::matrix::Matrix;

/// Multiply-add count below which threading costs more than it saves.
pub const PARALLEL_FLOP_CUTOFF: u64 = 4_000_000;

/// A parallel worker never gets fewer output rows than this.
const MIN_ROWS_PER_BAND: usize = 8;

/// Picks a worker count for an `m×k · k×n` product: 1 below the FLOP
/// cutoff, otherwise bounded by hardware parallelism and by giving every
/// band at least [`MIN_ROWS_PER_BAND`] rows.
pub fn auto_threads(m: usize, k: usize, n: usize) -> usize {
    let flops = (m as u64).saturating_mul(k as u64).saturating_mul(n as u64);
    if flops < PARALLEL_FLOP_CUTOFF {
        return 1;
    }
    let hw = crate::parallel::available_threads().unwrap_or(1);
    hw.min(m.div_ceil(MIN_ROWS_PER_BAND)).max(1)
}

/// `out = a · b`, reusing `out`'s allocation. Threads chosen automatically.
///
/// # Panics
/// Panics on inner-dimension mismatch or if `out` aliases an input (not
/// expressible through the borrow system here, so dimensions are the guard).
pub fn matmul_into(out: &mut Matrix, a: &Matrix, b: &Matrix) {
    matmul_into_threaded(out, a, b, auto_threads(a.rows(), a.cols(), b.cols()));
}

/// `out = a · b` with an explicit worker count (exposed so tests can pin
/// thread counts; results are identical for every `threads` value).
pub fn matmul_into_threaded(out: &mut Matrix, a: &Matrix, b: &Matrix, threads: usize) {
    assert_eq!(a.cols(), b.rows(), "matmul dimension mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    out.ensure_shape(m, n);
    run_banded(out.data_mut(), m, n, threads, |row0, band| {
        band_mul(band, a.data(), b.data(), row0, k, n);
    });
}

/// `out = aᵀ · b` without materializing `aᵀ` (`a` is `p×m`, `b` is `p×n`,
/// `out` is `m×n`). Threads chosen automatically.
pub fn matmul_transpose_a_into(out: &mut Matrix, a: &Matrix, b: &Matrix) {
    matmul_transpose_a_into_threaded(out, a, b, auto_threads(a.cols(), a.rows(), b.cols()));
}

/// `out = aᵀ · b` with an explicit worker count.
pub fn matmul_transpose_a_into_threaded(out: &mut Matrix, a: &Matrix, b: &Matrix, threads: usize) {
    assert_eq!(a.rows(), b.rows(), "matmul_transpose_a dimension mismatch");
    let (p, m, n) = (a.rows(), a.cols(), b.cols());
    out.ensure_shape(m, n);
    run_banded(out.data_mut(), m, n, threads, |row0, band| {
        band_tmul(band, a.data(), b.data(), row0, p, m, n);
    });
}

/// `out = a · bᵀ` without materializing `bᵀ` (`a` is `m×k`, `b` is `n×k`,
/// `out` is `m×n`). Threads chosen automatically.
pub fn matmul_transpose_b_into(out: &mut Matrix, a: &Matrix, b: &Matrix) {
    matmul_transpose_b_into_threaded(out, a, b, auto_threads(a.rows(), a.cols(), b.rows()));
}

/// `out = a · bᵀ` with an explicit worker count.
pub fn matmul_transpose_b_into_threaded(out: &mut Matrix, a: &Matrix, b: &Matrix, threads: usize) {
    assert_eq!(a.cols(), b.cols(), "matmul_transpose_b dimension mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    out.ensure_shape(m, n);
    run_banded(out.data_mut(), m, n, threads, |row0, band| {
        band_mul_bt(band, a.data(), b.data(), row0, k, n);
    });
}

/// Splits `out` (an `m×n` row-major buffer) into contiguous row bands and
/// runs `kernel(first_row, band)` on each, across `threads` scoped workers.
///
/// Bands are disjoint `&mut` slices, so worker scheduling cannot affect the
/// result. The serial path (`threads <= 1` or a single band) avoids thread
/// spawn altogether.
fn run_banded(
    out: &mut [f64],
    m: usize,
    n: usize,
    threads: usize,
    kernel: impl Fn(usize, &mut [f64]) + Sync,
) {
    let threads = threads.max(1).min(m.max(1));
    if threads == 1 || m == 0 || n == 0 {
        kernel(0, out);
        return;
    }
    let band_rows = m.div_ceil(threads);
    crossbeam::scope(|scope| {
        for (bi, band) in out.chunks_mut(band_rows * n).enumerate() {
            let kernel = &kernel;
            scope.spawn(move |_| kernel(bi * band_rows, band));
        }
    })
    .expect("gemm worker panicked");
}

/// Register-tile height: output rows per strip (tails run one row at a
/// time).
const MR: usize = 4;

/// Largest packed column panel, in f64s, that stays in L1 (32 KiB).
const PANEL_L1: usize = 4 * 1024;

/// Widest register tile for an output `n` columns wide with contraction
/// depth `k`.
///
/// Wide outputs get 4×16 tiles — 64 accumulators, 16 independent vector
/// chains at four f64 lanes — and narrower ones 4×8. Whatever is left of the
/// width after the widest tiles is covered by halving tile widths
/// (16 → 8 → 4 → 2 → 1), so a ragged edge such as `n = 18 = 16 + 2` or a
/// single output column still runs in a register tile, never in a scalar
/// per-element loop. A 16-wide panel is used only while it fits
/// [`PANEL_L1`]; deeper contractions keep 8-wide panels, which stay in L1
/// while every row strip streams past them.
fn widest_tile(n: usize, k: usize) -> usize {
    if n >= 16 && 16 * k <= PANEL_L1 {
        16
    } else {
        8
    }
}

/// Largest power of two `<= max` that fits in `left` (`left >= 1`).
fn fit_pow2(max: usize, left: usize) -> usize {
    let mut w = max;
    while w > left {
        w /= 2;
    }
    w
}

/// Shared driver of all three products: `band = a · R` over the band's
/// rows, where `a` holds the band's rows of the left operand (row major,
/// `rows×k`) and the callers differ only in how the right operand `R` is
/// gathered.
///
/// Column tile by column tile, `pack_b(panel, j, w)` packs `R`'s columns
/// `j..j+w` depth-major (`panel[kk·w + t] = R(kk, j + t)`), and every row
/// strip of `a` then streams past that L1-resident panel. Without packing,
/// the panel walk strides one matrix row per `k` step — for power-of-two
/// widths exactly one 4 KiB page, which defeats the hardware prefetcher.
/// Packing is data movement only: every output element is one accumulator
/// that starts at `0.0` and receives its `k` products in ascending `kk`,
/// one `+=` each — the add sequence of the naive i-k-j loop, so every tile
/// shape is bit-identical to it.
fn tiled(
    band: &mut [f64],
    a: &[f64],
    k: usize,
    n: usize,
    pack_b: impl Fn(&mut [f64], usize, usize),
) {
    if n == 0 {
        return;
    }
    let rows = band.len() / n;
    let nr = widest_tile(n, k);
    PANEL.with_borrow_mut(|panel| {
        let mut j = 0;
        while j < n {
            let w = fit_pow2(nr, n - j);
            panel.clear();
            panel.resize(k * w, 0.0);
            pack_b(panel, j, w);
            let mut i = 0;
            while i < rows {
                let mr = if rows - i >= MR { MR } else { 1 };
                let strip_a = &a[i * k..(i + mr) * k];
                let out = &mut band[i * n + j..];
                match (mr, w) {
                    (MR, 16) => strip::<16>(strip_a, k, panel, out, n),
                    (MR, 8) => strip::<8>(strip_a, k, panel, out, n),
                    (MR, 4) => strip::<4>(strip_a, k, panel, out, n),
                    (MR, 2) => strip::<2>(strip_a, k, panel, out, n),
                    (MR, _) => strip::<1>(strip_a, k, panel, out, n),
                    (_, 16) => row::<16>(strip_a, panel, out),
                    (_, 8) => row::<8>(strip_a, panel, out),
                    (_, 4) => row::<4>(strip_a, panel, out),
                    (_, 2) => row::<2>(strip_a, panel, out),
                    (_, _) => row::<1>(strip_a, panel, out),
                }
                i += mr;
            }
            j += w;
        }
        release_if_large(panel);
    });
}

/// One `MR×W` register tile over the full contraction: `a` is `MR` rows of
/// length `k`, `b` a packed `k×W` panel; the tile lands in `out` rows `ldo`
/// apart. Each of the `MR·W` accumulators is its own chain, fed in
/// ascending `kk` from `0.0`. The rows are spelled out so the compiler
/// vectorizes along `W` and keeps the whole tile in registers; each shape
/// stays out of line so it compiles to its own tight loop (one call per
/// `k`-deep tile costs nothing).
#[inline(never)]
fn strip<const W: usize>(a: &[f64], k: usize, b: &[f64], out: &mut [f64], ldo: usize) {
    let (a0, rest) = a.split_at(k);
    let (a1, rest) = rest.split_at(k);
    let (a2, a3) = rest.split_at(k);
    let mut c = [[0.0f64; W]; MR];
    for (kk, bv) in b.chunks_exact(W).enumerate() {
        let (x0, x1, x2, x3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
        for (t, &bt) in bv.iter().enumerate() {
            c[0][t] += x0 * bt;
            c[1][t] += x1 * bt;
            c[2][t] += x2 * bt;
            c[3][t] += x3 * bt;
        }
    }
    for (r, crow) in c.iter().enumerate() {
        out[r * ldo..r * ldo + W].copy_from_slice(crow);
    }
}

/// The one-row tile for the rows below the last full strip.
#[inline(never)]
fn row<const W: usize>(a: &[f64], b: &[f64], out: &mut [f64]) {
    let mut c = [0.0f64; W];
    for (&x, bv) in a.iter().zip(b.chunks_exact(W)) {
        for (acc, &bt) in c.iter_mut().zip(bv) {
            *acc += x * bt;
        }
    }
    out[..W].copy_from_slice(&c);
}

/// Packing scratch above this many f64s (64 KiB) is released after the
/// product instead of being kept for the thread's lifetime: the trained
/// shapes need at most 32 KiB, and an occasional large product (a PCA
/// covariance over thousands of rows) must not pin its panels in every
/// thread that ever ran one.
const RETAIN_MAX: usize = 8 * 1024;

fn release_if_large(buf: &mut Vec<f64>) {
    if buf.capacity() > RETAIN_MAX {
        *buf = Vec::new();
    }
}

thread_local! {
    /// Reusable packing buffers — the right operand's column panel, and
    /// the band's rows of `aᵀ` — keeping the steady-state GEMM path
    /// allocation-free (each worker thread owns its own).
    static PANEL: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
    static LEFT_T: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Packs columns `j..j+w` of the row-major `k×n` matrix `b` into a
/// depth-major panel: each depth step is already a contiguous run.
fn pack_cols(dst: &mut [f64], b: &[f64], j: usize, w: usize, n: usize) {
    for (kk, d) in dst.chunks_exact_mut(w).enumerate() {
        d.copy_from_slice(&b[kk * n + j..kk * n + j + w]);
    }
}

/// `band = a[row0..][..rows] · b` (`a` is `m×k`, `b` is `k×n`).
fn band_mul(band: &mut [f64], a: &[f64], b: &[f64], row0: usize, k: usize, n: usize) {
    let rows = band.len() / n.max(1);
    tiled(band, &a[row0 * k..(row0 + rows) * k], k, n, |dst, j, w| {
        pack_cols(dst, b, j, w, n)
    });
}

/// `band = (aᵀ · b)[row0..]` where `a` is `p×m` and `b` is `p×n`; the band
/// covers output rows `row0..row0+rows` (i.e. columns of `a`). Those
/// columns are first packed into row-major rows of `aᵀ` — one pass, reused
/// by every column tile — so `dW = dYᵀ·X` runs on the same register tiles
/// as the other two products.
fn band_tmul(band: &mut [f64], a: &[f64], b: &[f64], row0: usize, p: usize, m: usize, n: usize) {
    if band.is_empty() {
        return;
    }
    let rows = band.len() / n;
    LEFT_T.with_borrow_mut(|at| {
        at.clear();
        at.resize(rows * p, 0.0);
        for (r, arow) in a.chunks_exact(m).enumerate() {
            for (i, &v) in arow[row0..row0 + rows].iter().enumerate() {
                at[i * p + r] = v;
            }
        }
        tiled(band, at, p, n, |dst, j, w| pack_cols(dst, b, j, w, n));
        release_if_large(at);
    });
}

/// `band = (a · bᵀ)[row0..]` where `b` is `n×k` row-major: the right
/// operand's rows are its columns here, so packing transposes `b` into the
/// panel and the shared driver does the rest.
fn band_mul_bt(band: &mut [f64], a: &[f64], b: &[f64], row0: usize, k: usize, n: usize) {
    let rows = band.len() / n.max(1);
    tiled(band, &a[row0 * k..(row0 + rows) * k], k, n, |dst, j, w| {
        for t in 0..w {
            let brow = &b[(j + t) * k..(j + t) * k + k];
            for (kk, &v) in brow.iter().enumerate() {
                dst[kk * w + t] = v;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(rows: usize, cols: usize, f: impl Fn(usize) -> f64) -> Matrix {
        Matrix::from_vec(rows, cols, (0..rows * cols).map(f).collect())
    }

    /// Naive reference: plain i-k-j accumulation, no blocking, no skipping.
    fn reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for kk in 0..a.cols() {
                let v = a.get(i, kk);
                for j in 0..b.cols() {
                    out.set(i, j, out.get(i, j) + v * b.get(kk, j));
                }
            }
        }
        out
    }

    #[test]
    fn blocked_matches_reference_bitwise() {
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 2),
            (33, 65, 70),
            (64, 64, 64),
            (70, 129, 300),
        ] {
            let a = filled(m, k, |i| (i as f64 * 0.37).sin());
            let b = filled(k, n, |i| (i as f64 * 0.11).cos());
            let mut out = Matrix::zeros(0, 0);
            matmul_into_threaded(&mut out, &a, &b, 1);
            assert_eq!(out, reference(&a, &b), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn parallel_matches_serial_bitwise_across_thread_counts() {
        let a = filled(67, 43, |i| (i as f64 * 0.201).sin());
        let b = filled(43, 51, |i| (i as f64 * 0.73).cos());
        let mut serial = Matrix::zeros(0, 0);
        matmul_into_threaded(&mut serial, &a, &b, 1);
        for threads in [2, 3, 4, 7, 16, 67, 1000] {
            let mut par = Matrix::zeros(0, 0);
            matmul_into_threaded(&mut par, &a, &b, threads);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn transpose_a_fused_matches_materialized() {
        let a = filled(37, 29, |i| (i as f64 * 0.49).sin());
        let b = filled(37, 31, |i| (i as f64 * 0.17).cos());
        let mut fused = Matrix::zeros(0, 0);
        matmul_transpose_a_into_threaded(&mut fused, &a, &b, 1);
        assert_eq!(fused, a.transpose().matmul(&b));
        let mut par = Matrix::zeros(0, 0);
        matmul_transpose_a_into_threaded(&mut par, &a, &b, 5);
        assert_eq!(par, fused);
    }

    #[test]
    fn transpose_b_fused_matches_materialized() {
        let a = filled(23, 40, |i| (i as f64 * 0.31).sin());
        let b = filled(57, 40, |i| (i as f64 * 0.23).cos());
        let mut fused = Matrix::zeros(0, 0);
        matmul_transpose_b_into_threaded(&mut fused, &a, &b, 1);
        assert_eq!(fused, a.matmul(&b.transpose()));
        let mut par = Matrix::zeros(0, 0);
        matmul_transpose_b_into_threaded(&mut par, &a, &b, 4);
        assert_eq!(par, fused);
    }

    #[test]
    fn into_reuses_capacity_and_reshapes() {
        let mut out = Matrix::zeros(100, 100);
        let a = filled(4, 6, |i| i as f64);
        let b = filled(6, 3, |i| i as f64 * 0.5);
        matmul_into(&mut out, &a, &b);
        assert_eq!((out.rows(), out.cols()), (4, 3));
        assert_eq!(out, reference(&a, &b));
    }

    #[test]
    fn degenerate_shapes() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 4);
        let mut out = Matrix::zeros(3, 3);
        matmul_into(&mut out, &a, &b);
        assert_eq!((out.rows(), out.cols()), (0, 4));

        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        matmul_into(&mut out, &a, &b);
        assert_eq!((out.rows(), out.cols()), (3, 2));
        assert!(out.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn degenerate_shapes_fused_transpose() {
        let mut out = Matrix::from_vec(1, 1, vec![7.0]);
        for (p, m, n) in [(4, 0, 3), (0, 3, 2), (4, 3, 0), (0, 0, 0)] {
            let a = Matrix::zeros(p, m);
            let b = Matrix::zeros(p, n);
            matmul_transpose_a_into(&mut out, &a, &b);
            assert_eq!((out.rows(), out.cols()), (m, n));
            assert!(out.data().iter().all(|&v| v == 0.0));
            let a = Matrix::zeros(m, p);
            let b = Matrix::zeros(n, p);
            matmul_transpose_b_into(&mut out, &a, &b);
            assert_eq!((out.rows(), out.cols()), (m, n));
            assert!(out.data().iter().all(|&v| v == 0.0));
        }
    }
}
