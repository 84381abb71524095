//! Diagonal (DIA) container.
//!
//! DIA compresses each populated diagonal of a matrix (Figure 1 of the
//! paper): a sorted `off` array of diagonal offsets `j - i` and a dense
//! `ND × NR` data block addressed as `kd = ND * ii + d` (the paper's data
//! access relation). Zero padding fills positions whose diagonal leaves
//! the matrix. DIA is the destination of the paper's hardest experiment
//! (Figure 2d and the binary-search variant of Figure 3).

use super::coo::CooMatrix;
use super::dense::DenseMatrix;
use crate::validate::{validate_dia, ValidationError, Values};

/// A DIA matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DiaMatrix {
    /// Number of rows (`NR`).
    pub nr: usize,
    /// Number of columns (`NC`).
    pub nc: usize,
    /// Sorted diagonal offsets `j - i` (`off`), strictly increasing.
    pub off: Vec<i64>,
    /// Data, length `nd * nr`, addressed `data[i * nd + d]` per the
    /// paper's `kd = ND * ii + d`.
    pub data: Vec<f64>,
}

impl DiaMatrix {
    /// Builds and validates a DIA matrix.
    ///
    /// # Errors
    /// Returns a [`ValidationError`] when any invariant fails.
    pub fn new(
        nr: usize,
        nc: usize,
        off: Vec<i64>,
        data: Vec<f64>,
    ) -> Result<Self, ValidationError> {
        let m = DiaMatrix { nr, nc, off, data };
        m.validate()?;
        Ok(m)
    }

    /// Checks the descriptor invariants: `off` strictly increasing (its
    /// universal quantifier), offsets within matrix bounds, data length
    /// `nd * nr`, and zero padding outside the matrix.
    ///
    /// # Errors
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), ValidationError> {
        validate_dia(self, Values::Any)
    }

    /// Number of stored diagonals (`ND`).
    pub fn nd(&self) -> usize {
        self.off.len()
    }

    /// Structural nonzero count: in-matrix slots holding a nonzero value.
    /// Total (never panics), even on containers whose public fields
    /// violate the invariants — out-of-range slots simply don't count.
    pub fn stored_nnz(&self) -> usize {
        let nd = self.nd();
        let mut nnz = 0;
        for i in 0..self.nr {
            for (d, &o) in self.off.iter().enumerate() {
                let j = i as i64 + o;
                if j < 0 || j >= self.nc as i64 {
                    continue;
                }
                if let Some(slot) = i.checked_mul(nd).and_then(|k| k.checked_add(d)) {
                    if self.data.get(slot).is_some_and(|&v| v != 0.0) {
                        nnz += 1;
                    }
                }
            }
        }
        nnz
    }

    /// Value at `(i, j)`; zero when the diagonal is absent.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        match self.off.binary_search(&(j as i64 - i as i64)) {
            Ok(d) => self.data[i * self.nd() + d],
            Err(_) => 0.0,
        }
    }

    /// Reference conversion from COO (the test oracle).
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let off = coo.diagonals();
        let nd = off.len();
        let mut data = vec![0.0; nd * coo.nr];
        for (i, j, v) in coo.iter() {
            // `off` is exactly coo.diagonals(), so the search always hits.
            if let Ok(d) = off.binary_search(&(j - i)) {
                data[i as usize * nd + d] += v;
            }
        }
        DiaMatrix { nr: coo.nr, nc: coo.nc, off, data }
    }

    /// Converts to row-major-sorted COO, dropping explicit zeros
    /// introduced by padding.
    pub fn to_coo(&self) -> CooMatrix {
        let mut row = Vec::new();
        let mut col = Vec::new();
        let mut val = Vec::new();
        for i in 0..self.nr {
            for (d, &o) in self.off.iter().enumerate() {
                let j = i as i64 + o;
                if j < 0 || j >= self.nc as i64 {
                    continue;
                }
                let v = self.data[i * self.nd() + d];
                if v != 0.0 {
                    row.push(i as i64);
                    col.push(j);
                    val.push(v);
                }
            }
        }
        CooMatrix { nr: self.nr, nc: self.nc, row, col, val }
    }

    /// Materializes as dense.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.nr, self.nc);
        for i in 0..self.nr {
            for (d, &o) in self.off.iter().enumerate() {
                let j = i as i64 + o;
                if j >= 0 && j < self.nc as i64 {
                    out.set(i, j as usize, self.data[i * self.nd() + d]);
                }
            }
        }
        out
    }

    /// Sparse matrix–vector product `y = A x` over the diagonal layout.
    ///
    /// # Panics
    /// Panics when `x.len() != nc`.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.nc);
        let nd = self.nd();
        let mut y = vec![0.0; self.nr];
        for (d, &o) in self.off.iter().enumerate() {
            let lo = 0.max(-o) as usize;
            let hi = self.nr.min((self.nc as i64 - o).max(0) as usize);
            for i in lo..hi {
                y[i] += self.data[i * nd + d] * x[(i as i64 + o) as usize];
            }
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::InputCheck;

    fn tri_coo() -> CooMatrix {
        // Tridiagonal 4x4 with distinct values.
        let mut row = Vec::new();
        let mut col = Vec::new();
        let mut val = Vec::new();
        let mut v = 1.0;
        for i in 0..4i64 {
            for j in (i - 1).max(0)..=(i + 1).min(3) {
                row.push(i);
                col.push(j);
                val.push(v);
                v += 1.0;
            }
        }
        CooMatrix::from_triplets(4, 4, row, col, val).unwrap()
    }

    #[test]
    fn from_coo_reference() {
        let coo = tri_coo();
        let dia = DiaMatrix::from_coo(&coo);
        assert_eq!(dia.off, vec![-1, 0, 1]);
        assert_eq!(dia.nd(), 3);
        dia.validate().unwrap();
        assert_eq!(dia.to_dense(), coo.to_dense());
    }

    #[test]
    fn get_absent_diagonal_is_zero() {
        let dia = DiaMatrix::from_coo(&tri_coo());
        assert_eq!(dia.get(0, 3), 0.0);
        assert_eq!(dia.get(0, 0), 1.0);
    }

    #[test]
    fn round_trip_through_coo() {
        let coo = tri_coo();
        let dia = DiaMatrix::from_coo(&coo);
        let mut back = dia.to_coo();
        back.sort_row_major();
        let mut orig = coo;
        orig.sort_row_major();
        assert_eq!(back, orig);
    }

    #[test]
    fn spmv_agrees_with_dense() {
        let coo = tri_coo();
        let dia = DiaMatrix::from_coo(&coo);
        let x = [1.0, 2.0, 3.0, 4.0];
        let expect = coo.to_dense().spmv(&x);
        let got = dia.spmv(&x);
        for (a, b) in got.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn validate_catches_violations() {
        let check = |r: Result<DiaMatrix, ValidationError>| r.unwrap_err().check;
        // Unsorted offsets.
        assert_eq!(check(DiaMatrix::new(2, 2, vec![1, 0], vec![0.0; 4])), InputCheck::Ordering);
        // Wrong data length.
        assert_eq!(check(DiaMatrix::new(2, 2, vec![0], vec![0.0; 3])), InputCheck::ArrayLengths);
        // Nonzero padding in an out-of-matrix slot: offset 1 at row 1 of a
        // 2x2 lands at column 2 (outside).
        assert_eq!(check(DiaMatrix::new(2, 2, vec![1], vec![5.0, 7.0])), InputCheck::PaddingZero);
        // Offset outside the matrix entirely.
        assert_eq!(check(DiaMatrix::new(2, 2, vec![5], vec![0.0, 0.0])), InputCheck::IndexBounds);
    }
}
