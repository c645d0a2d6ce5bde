//! Property-based tests for the linear-algebra kernels.

#![allow(clippy::needless_range_loop)]

use proptest::prelude::*;
use warper_linalg::{cholesky_solve, symmetric_eigen, Matrix, Pca};

/// Builds a random symmetric matrix from a lower-triangle value list.
fn symmetric_from(vals: &[f64], n: usize) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    let mut it = vals.iter();
    for i in 0..n {
        for j in 0..=i {
            let v = *it.next().unwrap();
            m.set(i, j, v);
            m.set(j, i, v);
        }
    }
    m
}

/// Values of a `rows×cols` matrix drawn from `seed` (splitmix64), spread
/// over several binades with both signs so reordered adds would show.
fn seeded(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed;
    let data = (0..rows * cols)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
            (unit - 0.5) * f64::from(1u32 << (z % 7))
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// The naive i-k-j product every GEMM kernel must match bit for bit.
fn naive(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for kk in 0..a.cols() {
            for j in 0..b.cols() {
                out.set(i, j, out.get(i, j) + a.get(i, kk) * b.get(kk, j));
            }
        }
    }
    out
}

/// Maps a raw draw from `1..=80` onto the shapes that matter: `mode` picks
/// a uniform draw, a tile edge (a multiple of 4, 8 or 16, give or take
/// one), the training widths `{1, 8, 18}`, or a fixed trained shape.
fn biased_dim(mode: usize, raw: usize, fixed: usize) -> usize {
    const WIDTHS: [usize; 3] = [1, 8, 18];
    match mode {
        0 => raw,
        1 => {
            let base = [4, 8, 16][raw % 3] * (1 + raw % 5);
            (base + raw % 3).saturating_sub(1).clamp(1, 80)
        }
        2 => WIDTHS[raw % 3],
        _ => fixed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn gemm_kernels_match_naive_loop_bitwise_on_random_shapes(
        dims in (1usize..81, 1usize..81, 1usize..81),
        modes in (0usize..4, 0usize..4, 0usize..4),
        seed in 0u64..u64::MAX,
    ) {
        // Mode 3 pins the dimension to the LM-MLP's 32×18·18×64 forward
        // and 32×64 batch-by-width shapes.
        let m = biased_dim(modes.0, dims.0, 32);
        let k = biased_dim(modes.1, dims.1, [18, 64][dims.1 % 2]);
        let n = biased_dim(modes.2, dims.2, 64);
        let a = seeded(m, k, seed);
        let b = seeded(k, n, seed ^ 0x5555);
        let want = naive(&a, &b);

        let mut out = Matrix::from_vec(1, 3, vec![f64::NAN; 3]);
        warper_linalg::gemm::matmul_into(&mut out, &a, &b);
        prop_assert_eq!(&out, &want, "a·b {}x{}x{}", m, k, n);

        let at = a.transpose();
        warper_linalg::gemm::matmul_transpose_a_into(&mut out, &at, &b);
        prop_assert_eq!(&out, &want, "aᵀ·b {}x{}x{}", m, k, n);

        let bt = b.transpose();
        warper_linalg::gemm::matmul_transpose_b_into(&mut out, &a, &bt);
        prop_assert_eq!(&out, &want, "a·bᵀ {}x{}x{}", m, k, n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn eigen_preserves_trace_and_orthonormality(
        vals in prop::collection::vec(-5.0f64..5.0, 10),
    ) {
        let m = symmetric_from(&vals, 4);
        let e = symmetric_eigen(&m);
        let trace: f64 = (0..4).map(|i| m.get(i, i)).sum();
        let eigsum: f64 = e.values.iter().sum();
        prop_assert!((trace - eigsum).abs() < 1e-8, "trace {trace} vs Σλ {eigsum}");
        for i in 0..4 {
            for j in 0..4 {
                let d: f64 = (0..4).map(|k| e.vectors.get(k, i) * e.vectors.get(k, j)).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                prop_assert!((d - expect).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn matmul_associativity(
        a in prop::collection::vec(-3.0f64..3.0, 6),
        b in prop::collection::vec(-3.0f64..3.0, 6),
        c in prop::collection::vec(-3.0f64..3.0, 4),
    ) {
        let ma = Matrix::from_vec(2, 3, a);
        let mb = Matrix::from_vec(3, 2, b);
        let mc = Matrix::from_vec(2, 2, c);
        let left = ma.matmul(&mb).matmul(&mc);
        let right = ma.matmul(&mb.matmul(&mc));
        prop_assert!((&left - &right).frobenius_norm() < 1e-9);
    }

    #[test]
    fn transpose_reverses_matmul(
        a in prop::collection::vec(-3.0f64..3.0, 6),
        b in prop::collection::vec(-3.0f64..3.0, 6),
    ) {
        let ma = Matrix::from_vec(2, 3, a);
        let mb = Matrix::from_vec(3, 2, b);
        let lhs = ma.matmul(&mb).transpose();
        let rhs = mb.transpose().matmul(&ma.transpose());
        prop_assert!((&lhs - &rhs).frobenius_norm() < 1e-9);
    }

    #[test]
    fn cholesky_solves_spd_systems(
        diag in prop::collection::vec(0.5f64..5.0, 3),
        off in prop::collection::vec(-0.3f64..0.3, 3),
        rhs in prop::collection::vec(-10.0f64..10.0, 3),
    ) {
        // Diagonally dominant symmetric → SPD.
        let mut a = Matrix::zeros(3, 3);
        for i in 0..3 {
            a.set(i, i, diag[i] + 1.0);
        }
        a.set(0, 1, off[0]); a.set(1, 0, off[0]);
        a.set(0, 2, off[1]); a.set(2, 0, off[1]);
        a.set(1, 2, off[2]); a.set(2, 1, off[2]);
        let x = cholesky_solve(&a, &rhs).unwrap();
        let back = a.matvec(&x);
        for i in 0..3 {
            prop_assert!((back[i] - rhs[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn fused_transpose_a_matches_materialized(
        a in prop::collection::vec(-3.0f64..3.0, 24),
        b in prop::collection::vec(-3.0f64..3.0, 20),
    ) {
        // a viewed as 4×6 (p×m), b as 4×5 (p×n): aᵀ·b is 6×5.
        let ma = Matrix::from_vec(4, 6, a);
        let mb = Matrix::from_vec(4, 5, b);
        let fused = ma.matmul_transpose_a(&mb);
        let materialized = ma.transpose().matmul(&mb);
        prop_assert_eq!(fused, materialized); // bit-identical, not approximate
    }

    #[test]
    fn fused_transpose_b_matches_materialized(
        a in prop::collection::vec(-3.0f64..3.0, 24),
        b in prop::collection::vec(-3.0f64..3.0, 30),
    ) {
        // a viewed as 4×6 (m×k), b as 5×6 (n×k): a·bᵀ is 4×5.
        let ma = Matrix::from_vec(4, 6, a);
        let mb = Matrix::from_vec(5, 6, b);
        let fused = ma.matmul_transpose_b(&mb);
        let materialized = ma.matmul(&mb.transpose());
        prop_assert_eq!(fused, materialized);
    }

    #[test]
    fn matmul_into_matches_matmul_with_dirty_buffer(
        a in prop::collection::vec(-3.0f64..3.0, 18),
        b in prop::collection::vec(-3.0f64..3.0, 24),
    ) {
        let ma = Matrix::from_vec(3, 6, a);
        let mb = Matrix::from_vec(6, 4, b);
        // Start from a wrongly-shaped, garbage-filled buffer: matmul_into
        // must reshape and fully overwrite it.
        let mut out = Matrix::from_vec(2, 2, vec![7.0; 4]);
        ma.matmul_into(&mb, &mut out);
        prop_assert_eq!(out, ma.matmul(&mb));
    }

    #[test]
    fn parallel_gemm_matches_serial_for_any_thread_count(
        a in prop::collection::vec(-3.0f64..3.0, 35),
        b in prop::collection::vec(-3.0f64..3.0, 21),
        threads in 1usize..9,
    ) {
        let ma = Matrix::from_vec(5, 7, a);
        let mb = Matrix::from_vec(7, 3, b);
        let mut serial = Matrix::zeros(0, 0);
        warper_linalg::gemm::matmul_into_threaded(&mut serial, &ma, &mb, 1);
        let mut parallel = Matrix::zeros(0, 0);
        warper_linalg::gemm::matmul_into_threaded(&mut parallel, &ma, &mb, threads);
        prop_assert_eq!(&serial, &parallel);

        // Fused-transpose variants are deterministic across thread counts too.
        let mut ta1 = Matrix::zeros(0, 0);
        let mut tan = Matrix::zeros(0, 0);
        warper_linalg::gemm::matmul_transpose_a_into_threaded(&mut ta1, &mb, &mb, 1);
        warper_linalg::gemm::matmul_transpose_a_into_threaded(&mut tan, &mb, &mb, threads);
        prop_assert_eq!(&ta1, &tan);
        let mut tb1 = Matrix::zeros(0, 0);
        let mut tbn = Matrix::zeros(0, 0);
        warper_linalg::gemm::matmul_transpose_b_into_threaded(&mut tb1, &ma, &ma, 1);
        warper_linalg::gemm::matmul_transpose_b_into_threaded(&mut tbn, &ma, &ma, threads);
        prop_assert_eq!(&tb1, &tbn);
    }

    #[test]
    fn pca_explained_variance_descending_and_nonnegative(
        rows in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 4), 5..40),
    ) {
        let pca = Pca::fit(&Matrix::from_rows(&rows), 4).unwrap();
        let ev = pca.explained_variance();
        for w in ev.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-9);
        }
        prop_assert!(ev.iter().all(|&v| v >= 0.0));
    }
}
