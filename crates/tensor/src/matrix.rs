/// A dense, row-major matrix of `f64` values.
///
/// # Examples
///
/// ```
/// use tensor::Matrix;
///
/// let m = Matrix::zeros(2, 3);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    ///
    /// ```
    /// let i = tensor::Matrix::identity(3);
    /// assert_eq!(i.get(1, 1), 1.0);
    /// assert_eq!(i.get(0, 1), 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            assert_eq!(row.len(), ncols, "ragged rows in Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    ///
    /// Fills the flat row-major buffer directly, so building large weight
    /// matrices pays no per-element bounds checks.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Borrows row `row` as a slice.
    #[inline]
    pub fn row(&self, row: usize) -> &[f64] {
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutably borrows row `row` as a slice.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [f64] {
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Iterates over the rows as contiguous slices.
    ///
    /// Inner loops over `rows_iter()` pay one bounds check per *row*
    /// instead of one per element, unlike repeated `get()` calls.
    #[inline]
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        // `chunks_exact(0)` panics; a matrix with zero columns has an
        // empty buffer and `rows` conceptually empty rows.
        let width = self.cols.max(1);
        self.data
            .chunks_exact(width)
            .take(if self.cols == 0 { 0 } else { self.rows })
    }

    /// Iterates over the rows as mutable contiguous slices.
    #[inline]
    pub fn rows_iter_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        let width = self.cols.max(1);
        let rows = if self.cols == 0 { 0 } else { self.rows };
        self.data.chunks_exact_mut(width).take(rows)
    }

    /// Appends a row to the bottom of the matrix.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "push_row length mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Appends a row that is zero everywhere except `value` at column
    /// `col`, without staging the row in a caller buffer.
    ///
    /// # Panics
    ///
    /// Panics if `col >= self.cols()`.
    pub fn push_axis_row(&mut self, col: usize, value: f64) {
        assert!(col < self.cols, "push_axis_row column out of range");
        let start = self.data.len();
        self.data.resize(start + self.cols, 0.0);
        self.data[start + col] = value;
        self.rows += 1;
    }

    /// Reserves capacity for at least `additional` more rows, so that
    /// many appends cost one allocation at most.
    pub fn reserve_rows(&mut self, additional: usize) {
        self.data.reserve(additional * self.cols);
    }

    /// Makes this a `rows x cols` zero matrix, reusing the buffer: no
    /// allocation once the capacity has reached `rows * cols`.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Consumes the matrix, returning its flat row-major buffer.
    ///
    /// The buffer can be recycled through a scratch arena and later
    /// rebuilt with [`Matrix::from_vec`] without reallocating.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// The flat row-major data buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the flat row-major data buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Transposed matrix-vector product `self^T * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn matvec_transpose(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.cols];
        self.matvec_transpose_into(x, &mut y);
        y
    }

    /// Transposed matrix-vector product `self^T * x` written into a
    /// caller-provided buffer (no allocation). The buffer is fully
    /// overwritten.
    ///
    /// Accumulates row by row in ascending row order and skips zero
    /// entries of `x` (gradients are sparse after ReLU masking); callers
    /// that need bit-identical gradients rely on that order.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()` or `out.len() != self.cols()`.
    pub fn matvec_transpose_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "matvec_transpose dimension mismatch");
        assert_eq!(out.len(), self.cols, "matvec_transpose_into output length mismatch");
        out.fill(0.0);
        for (&xi, row) in x.iter().zip(self.rows_iter()) {
            if xi == 0.0 {
                continue;
            }
            for (yj, a) in out.iter_mut().zip(row.iter()) {
                *yj += xi * a;
            }
        }
    }

    /// Matrix-vector product `self * x` written into a caller-provided
    /// buffer (no allocation).
    ///
    /// Dispatches to the best kernel arm for this CPU (see
    /// [`crate::kernels`]).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(out.len(), self.rows, "matvec_into output length mismatch");
        crate::kernels::active().matvec(&self.data, x, out);
    }

    /// Fused affine map `self * x + bias`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `bias.len() != self.rows()`.
    pub fn matvec_bias(&self, x: &[f64], bias: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_bias_into(x, bias, &mut y);
        y
    }

    /// Fused affine map `self * x + bias` written into a caller-provided
    /// buffer. One pass over the weights; no temporary for `W x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`, or `bias`/`out` lengths differ
    /// from `self.rows()`.
    pub fn matvec_bias_into(&self, x: &[f64], bias: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec_bias_into dimension mismatch");
        assert_eq!(bias.len(), self.rows, "matvec_bias_into bias mismatch");
        assert_eq!(out.len(), self.rows, "matvec_bias_into output mismatch");
        crate::kernels::active().matvec_bias(&self.data, x, bias, out);
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.gemm_into(other, &mut out.data);
        out
    }

    /// Matrix product `self * other` written into a caller-provided
    /// row-major buffer of length `self.rows() * other.cols()`.
    ///
    /// The buffer is fully overwritten; its prior contents are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()` or the buffer length is
    /// wrong.
    pub fn gemm_into(&self, other: &Matrix, out: &mut [f64]) {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let n = other.cols;
        assert_eq!(out.len(), self.rows * n, "gemm_into output length mismatch");
        crate::kernels::active().gemm(&self.data, &other.data, self.rows, self.cols, n, out);
    }

    /// Matrix product with a transposed right operand: `self * other^T`,
    /// without materializing the transpose.
    ///
    /// Both operands are walked along contiguous rows, so this is the
    /// cache-friendly kernel for "map every row of `self` through the
    /// linear map `other`" (e.g. pushing a zonotope's generator matrix
    /// through a layer's weights).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_transb(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_transb_into(other, &mut out.data);
        out
    }

    /// [`Matrix::matmul_transb`] writing into a caller-provided row-major
    /// buffer of length `self.rows() * other.rows()`.
    ///
    /// Dispatches to the best register-tiled kernel arm for this CPU —
    /// AVX2+FMA, NEON, or the portable 4×4-tiled scalar kernel (see
    /// [`crate::kernels`]). The buffer is fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()` or the buffer length is
    /// wrong.
    pub fn matmul_transb_into(&self, other: &Matrix, out: &mut [f64]) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transb inner dimension mismatch"
        );
        let (m, n, k) = (self.rows, other.rows, self.cols);
        assert_eq!(out.len(), m * n, "matmul_transb output length mismatch");
        crate::kernels::active().matmul_transb(&self.data, &other.data, m, n, k, out);
    }

    /// Returns the transpose of this matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.set(j, i, self.get(i, j));
            }
        }
        t
    }

    /// Adds `other` element-wise into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.rows, other.rows, "shape mismatch");
        assert_eq!(self.cols, other.cols, "shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Scales every element by `factor`.
    pub fn scale(&mut self, factor: f64) {
        for a in &mut self.data {
            *a *= factor;
        }
    }

    /// Maximum absolute row sum (the operator infinity-norm).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Frobenius norm.
    pub fn norm_frobenius(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self.get(i, j))?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matvec_is_noop() {
        let i = Matrix::identity(4);
        let x = vec![1.0, -2.0, 3.5, 0.0];
        assert_eq!(i.matvec(&x), x);
    }

    #[test]
    fn matvec_known_values() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(m.matvec(&[1.0, -1.0]), vec![-1.0, -1.0, -1.0]);
    }

    #[test]
    fn matmul_matches_manual() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[2.0, 1.0], &[4.0, 3.0]]));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matvec_transpose_agrees_with_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let x = vec![1.0, 2.0];
        assert_eq!(a.matvec_transpose(&x), a.transpose().matvec(&x));
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, -4.0], &[1.0, 1.0]]);
        assert_eq!(a.norm_inf(), 7.0);
        assert!((a.norm_frobenius() - (27.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_wrong_len_panics() {
        Matrix::zeros(2, 3).matvec(&[1.0, 2.0]);
    }

    #[test]
    fn from_fn_fills_positions() {
        let m = Matrix::from_fn(2, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.get(1, 0), 10.0);
        assert_eq!(m.get(1, 1), 11.0);
    }

    #[test]
    fn from_fn_is_row_major_order() {
        let mut calls = Vec::new();
        Matrix::from_fn(2, 3, |i, j| {
            calls.push((i, j));
            0.0
        });
        assert_eq!(
            calls,
            vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        );
    }

    #[test]
    fn rows_iter_yields_each_row() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let rows: Vec<&[f64]> = m.rows_iter().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(Matrix::zeros(3, 0).rows_iter().count(), 0);
        assert_eq!(Matrix::zeros(0, 3).rows_iter().count(), 0);
    }

    #[test]
    fn push_row_grows_matrix() {
        let mut m = Matrix::zeros(0, 2);
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m, Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
    }

    #[test]
    fn push_axis_row_appends_one_hot_rows() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        m.reserve_rows(2);
        m.push_axis_row(2, -0.5);
        m.push_axis_row(0, 4.0);
        assert_eq!(
            m,
            Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, 0.0, -0.5], &[4.0, 0.0, 0.0]])
        );
    }

    #[test]
    #[should_panic(expected = "column out of range")]
    fn push_axis_row_rejects_bad_column() {
        Matrix::zeros(0, 2).push_axis_row(2, 1.0);
    }

    #[test]
    fn matvec_bias_fuses_add() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let x = [1.0, -1.0];
        let bias = [10.0, 20.0];
        assert_eq!(m.matvec_bias(&x, &bias), vec![9.0, 19.0]);
        let mut out = vec![f64::NAN; 2];
        m.matvec_bias_into(&x, &bias, &mut out);
        assert_eq!(out, vec![9.0, 19.0]);
    }

    #[test]
    fn matmul_transb_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0, -1.0], &[2.0, 1.0, 0.5], &[0.0, 3.0, 1.0]]);
        assert_eq!(a.matmul_transb(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn matmul_transb_blocked_on_large_shapes() {
        // Shapes that exercise the IB/KB tiling remainders.
        let a = Matrix::from_fn(13, 700, |i, j| ((i * 31 + j * 7) % 11) as f64 - 5.0);
        let b = Matrix::from_fn(9, 700, |i, j| ((i * 17 + j * 3) % 13) as f64 - 6.0);
        let blocked = a.matmul_transb(&b);
        let naive = a.matmul(&b.transpose());
        for (x, y) in blocked.as_slice().iter().zip(naive.as_slice()) {
            assert!((x - y).abs() < 1e-9, "blocked {x} vs naive {y}");
        }
    }

    #[test]
    fn matmul_transb_empty_inner_dim_is_zero() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(2, 0);
        assert_eq!(a.matmul_transb(&b), Matrix::zeros(3, 2));
    }

    #[test]
    fn gemm_into_overwrites_stale_buffer() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let mut out = vec![f64::NAN; 4];
        a.gemm_into(&b, &mut out);
        assert_eq!(out, vec![2.0, 1.0, 4.0, 3.0]);
    }

    #[test]
    fn matvec_transpose_into_overwrites_stale_buffer() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let x = [0.5, 0.0];
        let mut out = vec![f64::NAN; 3];
        m.matvec_transpose_into(&x, &mut out);
        assert_eq!(out, m.matvec_transpose(&x));
        assert_eq!(out, vec![0.5, 1.0, 1.5]);
    }

    #[test]
    fn matvec_into_matches_matvec() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let x = [1.0, -1.0];
        let mut out = vec![f64::NAN; 3];
        m.matvec_into(&x, &mut out);
        assert_eq!(out, m.matvec(&x));
    }
}
