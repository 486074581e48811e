//! Fixed-point matrix multiplication (GEMM) through an approximate
//! multiplier — the kernel underneath every dense neural-network layer.
//!
//! Inner loops run on the batched sign-magnitude primitive
//! ([`realm_core::FixedBatch`]): one `multiply_batch` call per dot
//! product instead of one virtual `multiply` call per scalar product, so
//! the tiered realm-simd kernels vectorize the lane work. Results are
//! bit-identical to the scalar path (pinned by
//! [`matmul_scalar_reference`] and the goldens suite).

use realm_core::{fixed_mul_signed, FixedBatch, Multiplier};

/// A row-major integer matrix (entries are fixed-point with a caller-
/// chosen scale).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<i32>,
}

impl Matrix {
    /// Wraps row-major data.
    ///
    /// # Panics
    ///
    /// Panics unless `data.len() == rows * cols` (both nonzero).
    pub fn from_data(rows: usize, cols: usize, data: Vec<i32>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "data size mismatch");
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from a generator function `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> i32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix::from_data(rows, cols, data)
    }

    /// The identity matrix scaled by `one` (the fixed-point 1.0).
    pub fn identity(n: usize, one: i32) -> Self {
        Matrix::from_fn(n, n, |r, c| if r == c { one } else { 0 })
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn get(&self, r: usize, c: usize) -> i32 {
        assert!(r < self.rows && c < self.cols, "({r}, {c}) out of bounds");
        self.data[r * self.cols + c]
    }

    /// Frobenius norm (for error reporting).
    pub fn norm(&self) -> f64 {
        self.data
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt()
    }

    /// One row as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn row(&self, r: usize) -> &[i32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The transpose (row-major copy) — lays columns out contiguously so
    /// GEMM dot products run over slices.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }
}

/// `C = (A × B) >> shift`, every scalar product through `m` (sign-
/// magnitude), accumulation exact, one descale per output element with
/// round-to-nearest.
///
/// Each output element is one batched dot product over the tiered
/// `multiply_batch` kernels — bit-identical to
/// [`matmul_scalar_reference`], which keeps the historical one-virtual-
/// call-per-product loop alive as the differential baseline.
///
/// # Panics
///
/// Panics if the inner dimensions disagree, or in debug builds if an
/// entry's magnitude exceeds the multiplier's operand width.
pub fn matmul(m: &dyn Multiplier, a: &Matrix, b: &Matrix, shift: u32) -> Matrix {
    assert_eq!(a.cols, b.rows, "inner dimensions disagree");
    let bt = b.transpose();
    let mut batch = FixedBatch::new();
    Matrix::from_fn(a.rows, b.cols, |r, c| {
        descale(batch.dot(m, a.row(r), bt.row(c)), shift)
    })
}

/// The pre-refactor GEMM loop: one virtual `multiply` call per scalar
/// product. Semantically identical to [`matmul`]; kept as the
/// differential baseline and as the "before" side of the batched-path
/// throughput comparison in the `dnn` bench.
///
/// # Panics
///
/// Panics if the inner dimensions disagree, or in debug builds if an
/// entry's magnitude exceeds the multiplier's operand width.
pub fn matmul_scalar_reference(m: &dyn Multiplier, a: &Matrix, b: &Matrix, shift: u32) -> Matrix {
    assert_eq!(a.cols, b.rows, "inner dimensions disagree");
    Matrix::from_fn(a.rows, b.cols, |r, c| {
        let mut acc = 0i64;
        for k in 0..a.cols {
            acc += fixed_mul_signed(m, a.get(r, k) as i64, b.get(k, c) as i64, 0);
        }
        descale(acc, shift)
    })
}

/// The one descale of an output element: the exact accumulator shifted
/// right by `shift`, rounded to nearest (halves up).
pub(crate) fn descale(acc: i64, shift: u32) -> i32 {
    let half = if shift == 0 { 0 } else { 1i64 << (shift - 1) };
    ((acc + half) >> shift) as i32
}

/// Relative Frobenius-norm error between an approximate and an exact
/// product: `‖C̃ − C‖ / ‖C‖` (zero norm → 0).
pub fn relative_norm_error(approx: &Matrix, exact: &Matrix) -> f64 {
    assert_eq!(
        (approx.rows, approx.cols),
        (exact.rows, exact.cols),
        "shape mismatch"
    );
    let num = approx
        .data
        .iter()
        .zip(&exact.data)
        .map(|(&x, &y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum::<f64>()
        .sqrt();
    let den = exact.norm();
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_baselines::Calm;
    use realm_core::{Accurate, Realm, RealmConfig};

    fn random_matrix(rows: usize, cols: usize, seed: u64, amp: i32) -> Matrix {
        let mut state = seed | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            ((state >> 40) as i32 % (2 * amp)) - amp
        })
    }

    #[test]
    fn exact_matmul_matches_reference() {
        let a = Matrix::from_data(2, 3, vec![1, 2, 3, 4, 5, 6]);
        let b = Matrix::from_data(3, 2, vec![7, 8, 9, 10, 11, 12]);
        let c = matmul(&Accurate::new(16), &a, &b, 0);
        assert_eq!(c.get(0, 0), 58);
        assert_eq!(c.get(0, 1), 64);
        assert_eq!(c.get(1, 0), 139);
        assert_eq!(c.get(1, 1), 154);
    }

    #[test]
    fn identity_is_neutral_with_q8_scale() {
        let a = random_matrix(5, 5, 3, 6_000);
        let id = Matrix::identity(5, 1 << 8);
        let c = matmul(&Accurate::new(16), &a, &id, 8);
        assert_eq!(c, a);
    }

    #[test]
    fn realm_gemm_error_is_small_and_below_calm() {
        let a = random_matrix(12, 16, 7, 10_000);
        let b = random_matrix(16, 10, 11, 10_000);
        let exact = matmul(&Accurate::new(16), &a, &b, 8);
        let realm = matmul(
            &Realm::new(RealmConfig::n16(16, 0)).expect("paper design point"),
            &a,
            &b,
            8,
        );
        let calm = matmul(&Calm::new(16), &a, &b, 8);
        let e_realm = relative_norm_error(&realm, &exact);
        let e_calm = relative_norm_error(&calm, &exact);
        assert!(e_realm < 0.01, "REALM GEMM error {e_realm}");
        assert!(e_realm < e_calm / 3.0, "REALM {e_realm} vs cALM {e_calm}");
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn shape_mismatch_panics() {
        let a = Matrix::from_data(2, 2, vec![1, 2, 3, 4]);
        let b = Matrix::from_data(3, 2, vec![0; 6]);
        let _ = matmul(&Accurate::new(16), &a, &b, 0);
    }

    #[test]
    fn norm_error_of_equal_matrices_is_zero() {
        let a = random_matrix(4, 4, 9, 100);
        assert_eq!(relative_norm_error(&a, &a), 0.0);
    }

    #[test]
    fn batched_matmul_is_bit_identical_to_scalar_reference() {
        let a = random_matrix(9, 13, 21, 12_000);
        let b = random_matrix(13, 7, 23, 12_000);
        for m in [
            &Accurate::new(16) as &dyn Multiplier,
            &Realm::new(RealmConfig::n16(16, 0)).expect("paper design point"),
            &Calm::new(16),
        ] {
            for shift in [0u32, 4, 8] {
                assert_eq!(
                    matmul(m, &a, &b, shift),
                    matmul_scalar_reference(m, &a, &b, shift),
                    "batched GEMM diverged from the scalar loop at shift {shift}"
                );
            }
        }
    }

    #[test]
    fn transpose_roundtrips() {
        let a = random_matrix(3, 5, 31, 1_000);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(4, 2), a.get(2, 4));
    }
}
