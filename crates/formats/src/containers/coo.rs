//! Coordinate (COO) containers for matrices and order-3 tensors.
//!
//! COO stores each nonzero's coordinates in parallel index arrays plus a
//! value array (Figure 1 of the paper). The matrix variant corresponds to
//! the `COO` descriptor (UFs `row1`, `col1`), the sorted variant to the
//! paper's evaluation assumption ("COO is assumed to be sorted
//! lexicographically row first"), and the tensor variant to `COO3D`.

use std::cmp::Ordering;

use super::dense::DenseMatrix;
use crate::validate::{validate_coo, Order, ValidationError, Values};

/// Coordinate storage over `R` dimensions: one index column per
/// dimension and a value column. [`CooMatrix`] is the rank-2 form and
/// [`Coo3Tensor`] the order-3 one; the Morton containers wrap them.
/// Validation, binding and extraction are written once over this view.
pub trait Coords<const R: usize>: Sized {
    /// The arrays' names, `/`-separated, for error messages.
    const ARRAYS: &'static str;
    /// The dense extent of each dimension.
    fn extents(&self) -> [usize; R];
    /// The index column of each dimension.
    fn coords(&self) -> [&[i64]; R];
    /// The value column.
    fn values(&self) -> &[f64];
    /// Storage from its parts, unchecked.
    fn from_parts(extents: [usize; R], coords: [Vec<i64>; R], val: Vec<f64>) -> Self;
}

impl Coords<2> for CooMatrix {
    const ARRAYS: &'static str = "COO row/col/val";
    fn extents(&self) -> [usize; 2] {
        [self.nr, self.nc]
    }
    fn coords(&self) -> [&[i64]; 2] {
        [&self.row, &self.col]
    }
    fn values(&self) -> &[f64] {
        &self.val
    }
    fn from_parts([nr, nc]: [usize; 2], [row, col]: [Vec<i64>; 2], val: Vec<f64>) -> Self {
        CooMatrix { nr, nc, row, col, val }
    }
}

impl Coords<3> for Coo3Tensor {
    const ARRAYS: &'static str = "COO3 i0/i1/i2/val";
    fn extents(&self) -> [usize; 3] {
        [self.nr, self.nc, self.nz]
    }
    fn coords(&self) -> [&[i64]; 3] {
        [&self.i0, &self.i1, &self.i2]
    }
    fn values(&self) -> &[f64] {
        &self.val
    }
    fn from_parts(
        [nr, nc, nz]: [usize; 3],
        [i0, i1, i2]: [Vec<i64>; 3],
        val: Vec<f64>,
    ) -> Self {
        Coo3Tensor { nr, nc, nz, i0, i1, i2, val }
    }
}

/// A COO matrix: parallel `row`/`col`/`val` arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    /// Number of rows (`NR`).
    pub nr: usize,
    /// Number of columns (`NC`).
    pub nc: usize,
    /// Row index per nonzero (`row1`).
    pub row: Vec<i64>,
    /// Column index per nonzero (`col1`).
    pub col: Vec<i64>,
    /// Value per nonzero.
    pub val: Vec<f64>,
}

impl CooMatrix {
    /// Builds from triplets after validating coordinate bounds and array
    /// lengths.
    ///
    /// # Errors
    /// Returns a [`ValidationError`] for mismatched lengths
    /// (`array-lengths`) or out-of-range coordinates (`index-bounds`).
    pub fn from_triplets(
        nr: usize,
        nc: usize,
        row: Vec<i64>,
        col: Vec<i64>,
        val: Vec<f64>,
    ) -> Result<Self, ValidationError> {
        let m = CooMatrix { nr, nc, row, col, val };
        validate_coo(&m, Order::Unordered, Values::Any)?;
        Ok(m)
    }

    /// Number of stored nonzeros (`NNZ`).
    pub fn nnz(&self) -> usize {
        self.val.len()
    }

    /// Returns `true` when nonzeros are sorted lexicographically row
    /// first — the paper's source-format assumption.
    pub fn is_sorted_row_major(&self) -> bool {
        self.row
            .iter()
            .zip(&self.col)
            .zip(self.row.iter().skip(1).zip(self.col.iter().skip(1)))
            .all(|((i1, j1), (i2, j2))| (i1, j1) <= (i2, j2))
    }

    /// Sorts nonzeros lexicographically row first (equivalent to a
    /// stable sort: ties are broken by original position).
    pub fn sort_row_major(&mut self) {
        // Precompute the keys once so the sort's comparisons are
        // contiguous tuple compares rather than gathers through `idx`.
        let mut keyed: Vec<(i64, i64, usize)> = (0..self.nnz())
            .map(|p| (self.row[p], self.col[p], p))
            .collect();
        keyed.sort_unstable();
        let idx: Vec<usize> = keyed.into_iter().map(|(_, _, p)| p).collect();
        self.permute(&idx);
    }

    /// Reorders nonzeros so that position `p` holds old position
    /// `perm[p]`.
    pub fn permute(&mut self, perm: &[usize]) {
        debug_assert_eq!(perm.len(), self.nnz());
        self.row = perm.iter().map(|&p| self.row[p]).collect();
        self.col = perm.iter().map(|&p| self.col[p]).collect();
        self.val = perm.iter().map(|&p| self.val[p]).collect();
    }

    /// Iterates `(i, j, v)` triplets.
    pub fn iter(&self) -> impl Iterator<Item = (i64, i64, f64)> + '_ {
        self.row
            .iter()
            .zip(&self.col)
            .zip(&self.val)
            .map(|((&i, &j), &v)| (i, j, v))
    }

    /// Materializes as a dense matrix (duplicates accumulate).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.nr, self.nc);
        for (i, j, v) in self.iter() {
            let cur = d.get(i as usize, j as usize);
            d.set(i as usize, j as usize, cur + v);
        }
        d
    }

    /// Sparse matrix–vector product `y = A x`.
    ///
    /// # Panics
    /// Panics when `x.len() != nc`.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.nc);
        let mut y = vec![0.0; self.nr];
        for (i, j, v) in self.iter() {
            y[i as usize] += v * x[j as usize];
        }
        y
    }

    /// The set of distinct diagonals `j - i` present, sorted ascending —
    /// DIA's `ND` is this set's size.
    pub fn diagonals(&self) -> Vec<i64> {
        let mut ds: Vec<i64> = self.row.iter().zip(&self.col).map(|(&i, &j)| j - i).collect();
        ds.sort_unstable();
        ds.dedup();
        ds
    }
}

/// An order-3 COO tensor (`COO3D` in Table 1 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct Coo3Tensor {
    /// Mode-0 extent (`NR`).
    pub nr: usize,
    /// Mode-1 extent (`NC`).
    pub nc: usize,
    /// Mode-2 extent (`NZ`).
    pub nz: usize,
    /// Mode-0 coordinate per nonzero (`row1`).
    pub i0: Vec<i64>,
    /// Mode-1 coordinate per nonzero (`col1`).
    pub i1: Vec<i64>,
    /// Mode-2 coordinate per nonzero (`z1`).
    pub i2: Vec<i64>,
    /// Value per nonzero.
    pub val: Vec<f64>,
}

impl Coo3Tensor {
    /// Builds from coordinate lists after validation.
    ///
    /// # Errors
    /// Returns a [`ValidationError`] for mismatched lengths
    /// (`array-lengths`) or out-of-range coordinates (`index-bounds`).
    pub fn from_coords(
        dims: (usize, usize, usize),
        i0: Vec<i64>,
        i1: Vec<i64>,
        i2: Vec<i64>,
        val: Vec<f64>,
    ) -> Result<Self, ValidationError> {
        let (nr, nc, nz) = dims;
        let t = Coo3Tensor { nr, nc, nz, i0, i1, i2, val };
        validate_coo(&t, Order::Unordered, Values::Any)?;
        Ok(t)
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.val.len()
    }

    /// Iterates `([i, j, k], v)`.
    pub fn iter(&self) -> impl Iterator<Item = ([i64; 3], f64)> + '_ {
        (0..self.nnz()).map(move |n| ([self.i0[n], self.i1[n], self.i2[n]], self.val[n]))
    }

    /// Tensor-times-vector along mode 2: `Y[i, j] = Σ_k A[i,j,k] x[k]`,
    /// returned as a dense matrix.
    ///
    /// # Panics
    /// Panics when `x.len() != nz`.
    pub fn ttv_mode2(&self, x: &[f64]) -> DenseMatrix {
        assert_eq!(x.len(), self.nz);
        let mut out = DenseMatrix::zeros(self.nr, self.nc);
        for (c, v) in self.iter() {
            let cur = out.get(c[0] as usize, c[1] as usize);
            out.set(c[0] as usize, c[1] as usize, cur + v * x[c[2] as usize]);
        }
        out
    }

    /// Sorts nonzeros with `cmp` over coordinate triples (equivalent to
    /// a stable sort: ties are broken by original position).
    pub fn sort_by(&mut self, mut cmp: impl FnMut(&[i64], &[i64]) -> Ordering) {
        let mut idx: Vec<usize> = (0..self.nnz()).collect();
        idx.sort_unstable_by(|&a, &b| {
            cmp(
                &[self.i0[a], self.i1[a], self.i2[a]],
                &[self.i0[b], self.i1[b], self.i2[b]],
            )
            .then(a.cmp(&b))
        });
        self.permute(&idx);
    }

    /// Reorders nonzeros so that position `p` holds old position
    /// `perm[p]`.
    pub fn permute(&mut self, perm: &[usize]) {
        debug_assert_eq!(perm.len(), self.nnz());
        self.i0 = perm.iter().map(|&p| self.i0[p]).collect();
        self.i1 = perm.iter().map(|&p| self.i1[p]).collect();
        self.i2 = perm.iter().map(|&p| self.i2[p]).collect();
        self.val = perm.iter().map(|&p| self.val[p]).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::InputCheck;

    fn sample() -> CooMatrix {
        // 3x4:
        // [1 0 2 0]
        // [0 0 0 3]
        // [4 0 0 0]
        CooMatrix::from_triplets(
            3,
            4,
            vec![0, 0, 1, 2],
            vec![0, 2, 3, 0],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_bad_input() {
        let check = |r: Result<CooMatrix, ValidationError>| r.unwrap_err().check;
        assert_eq!(
            check(CooMatrix::from_triplets(2, 2, vec![0], vec![0, 1], vec![1.0])),
            InputCheck::ArrayLengths
        );
        assert_eq!(
            check(CooMatrix::from_triplets(2, 2, vec![5], vec![0], vec![1.0])),
            InputCheck::IndexBounds
        );
    }

    #[test]
    fn dense_round_trip() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d.get(0, 2), 2.0);
        assert_eq!(d.get(2, 0), 4.0);
        assert_eq!(d.vals.iter().filter(|v| **v != 0.0).count(), 4);
    }

    #[test]
    fn sortedness_detection_and_sorting() {
        let mut m = CooMatrix::from_triplets(
            2,
            2,
            vec![1, 0],
            vec![0, 1],
            vec![1.0, 2.0],
        )
        .unwrap();
        assert!(!m.is_sorted_row_major());
        m.sort_row_major();
        assert!(m.is_sorted_row_major());
        assert_eq!(m.row, vec![0, 1]);
        assert_eq!(m.val, vec![2.0, 1.0]);
    }

    #[test]
    fn spmv_agrees_with_dense() {
        let m = sample();
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(m.spmv(&x), m.to_dense().spmv(&x));
    }

    #[test]
    fn diagonals_are_sorted_unique() {
        let m = sample();
        // j - i: 0, 2, 2, -2
        assert_eq!(m.diagonals(), vec![-2, 0, 2]);
    }

    #[test]
    fn coo3_ttv_matches_manual() {
        let t = Coo3Tensor::from_coords(
            (2, 2, 3),
            vec![0, 1, 1],
            vec![1, 0, 0],
            vec![0, 2, 1],
            vec![1.0, 2.0, 3.0],
        )
        .unwrap();
        let y = t.ttv_mode2(&[1.0, 10.0, 100.0]);
        assert_eq!(y.get(0, 1), 1.0);
        assert_eq!(y.get(1, 0), 2.0 * 100.0 + 3.0 * 10.0);
    }

    #[test]
    fn coo3_sort_by_reorders() {
        let mut t = Coo3Tensor::from_coords(
            (2, 2, 2),
            vec![1, 0],
            vec![0, 1],
            vec![0, 1],
            vec![9.0, 8.0],
        )
        .unwrap();
        t.sort_by(|a, b| a.cmp(b));
        assert_eq!(t.i0, vec![0, 1]);
        assert_eq!(t.val, vec![8.0, 9.0]);
    }
}
