//! A minimal row-major dense matrix used by the linear models.
//!
//! The Model Manager's training problems are small (a few hundred labeled
//! clips × a few hundred feature dimensions), so a straightforward dense
//! representation with cache-friendly row-major loops is all that is needed —
//! no BLAS dependency.

/// Row-major dense matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        Self { rows, cols, data }
    }

    /// Creates a matrix whose rows are copies of the given slices.
    ///
    /// # Panics
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
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

    /// Immutable view of row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Appends one row to the matrix.
    ///
    /// # Panics
    /// Panics if `row.len() != cols`.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "row length does not match columns");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Reserves capacity for `additional` more rows.
    pub fn reserve_rows(&mut self, additional: usize) {
        self.data.reserve(additional * self.cols);
    }

    /// Appends copies of `other`'s rows in `rows`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or, for a non-empty range, if
    /// the column counts differ.
    pub fn extend_from_rows(&mut self, other: &Matrix, rows: std::ops::Range<usize>) {
        assert!(rows.end <= other.rows, "row range out of bounds");
        if rows.is_empty() {
            return;
        }
        assert_eq!(other.cols, self.cols, "row length does not match columns");
        self.data
            .extend_from_slice(&other.data[rows.start * self.cols..rows.end * self.cols]);
        self.rows += rows.len();
    }

    /// Splits off rows `at..` into a new matrix, keeping rows `..at` (and
    /// the allocation) in place.
    ///
    /// # Panics
    /// Panics if `at > rows`.
    pub fn split_off_rows(&mut self, at: usize) -> Matrix {
        assert!(at <= self.rows, "split point past the last row");
        let tail = self.data.split_off(at * self.cols);
        let tail_rows = self.rows - at;
        self.rows = at;
        Matrix::from_vec(tail_rows, self.cols, tail)
    }

    /// Flat row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Matrix–vector product `self · x`.
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        let mut out = vec![0.0f32; self.rows];
        for (r, o) in out.iter_mut().enumerate() {
            *o = dot(self.row(r), x);
        }
        out
    }

    /// Scales every element in place.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Adds `other * s` element-wise in place.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, s: f32, other: &Matrix) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// Squared Frobenius norm.
    pub fn frobenius_sq(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics (in debug builds) if the slices differ in length.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance between two vectors.
pub fn squared_distance(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Euclidean distance between two vectors.
pub fn distance(a: &[f32], b: &[f32]) -> f32 {
    squared_distance(a, b).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_rows_round_trip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn matvec_identity_like() {
        let m = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        assert_eq!(m.matvec(&[2.0, 3.0]), vec![2.0, 3.0, 5.0]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0]]);
        a.axpy(0.5, &b);
        assert_eq!(a.row(0), &[6.0, 12.0]);
        a.scale(2.0);
        assert_eq!(a.row(0), &[12.0, 24.0]);
    }

    #[test]
    fn frobenius_norm() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(m.frobenius_sq(), 25.0);
    }

    #[test]
    fn distances() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    #[should_panic(expected = "buffer does not match shape")]
    fn from_vec_rejects_bad_shape() {
        Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_rejects_bad_dims() {
        Matrix::zeros(2, 3).matvec(&[1.0, 2.0]);
    }
}
