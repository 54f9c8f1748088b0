//! A small row-major dense matrix. Sized for the monitor's workload:
//! hundreds of heartbeat rows by a handful of resource columns.

use core::fmt;
use core::ops::{Index, IndexMut};

/// Row-major dense `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a flat row-major slice. Panics if the length is not
    /// `rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} != {rows}x{cols}",
            data.len()
        );
        Matrix {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Build from nested vectors, one inner vector per row. Panics on
    /// ragged input.
    pub fn from_nested(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the whole matrix as one flat row-major slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrow row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` out.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product. Panics on dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dims {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        // i-k-j loop order keeps the inner loop streaming over contiguous
        // rows of `other` and `out` (cache-friendly for row-major data).
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix-vector product. Panics on dimension mismatch.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec dims");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// True if `self` and `other` agree element-wise within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Maximum absolute off-diagonal element (square matrices only); the
    /// Jacobi sweep's convergence measure.
    pub fn max_off_diagonal(&self) -> f64 {
        assert_eq!(self.rows, self.cols);
        let mut m: f64 = 0.0;
        for i in 0..self.rows {
            for j in 0..self.cols {
                if i != j {
                    m = m.max(self[(i, j)].abs());
                }
            }
        }
        m
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.6} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert_eq!(z[(1, 2)], 0.0);
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    fn from_rows_and_access() {
        let m = Matrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_rows_checks_length() {
        Matrix::from_rows(2, 2, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_rows(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(2, 2, &[19.0, 22.0, 43.0, 50.0]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(2, 3, &[1.0, 0.0, 2.0, -1.0, 3.0, 1.0]);
        assert_eq!(a.matvec(&[3.0, -1.0, 2.0]), vec![7.0, -4.0]);
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Matrix::from_rows(1, 2, &[1.0, 2.0]);
        let b = Matrix::from_rows(1, 2, &[1.0 + 1e-12, 2.0]);
        assert!(a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&b, 1e-15));
    }

    #[test]
    fn max_off_diagonal_ignores_diagonal() {
        let m = Matrix::from_rows(2, 2, &[100.0, 0.5, -0.75, 100.0]);
        assert_eq!(m.max_off_diagonal(), 0.75);
    }

    #[test]
    fn from_nested_matches_from_rows() {
        let m = Matrix::from_nested(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m, Matrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]));
    }
}
