//! Compressed Sparse Row (CSR) container.
//!
//! CSR compresses rows into a `rowptr` array (the paper's monotonic UF)
//! with per-nonzero column indices (`col2`) ordered row-major — the
//! destination of the paper's headline COO→CSR experiment (Figure 2c).

use super::coo::CooMatrix;
use super::dense::DenseMatrix;
use crate::validate::{validate_csr, ValidationError, Values};

/// A CSR matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    /// Number of rows (`NR`).
    pub nr: usize,
    /// Number of columns (`NC`).
    pub nc: usize,
    /// Row pointers (`rowptr`), length `nr + 1`, non-decreasing.
    pub rowptr: Vec<i64>,
    /// Column index per nonzero (`col2`), sorted within each row.
    pub col: Vec<i64>,
    /// Value per nonzero.
    pub val: Vec<f64>,
}

impl CsrMatrix {
    /// Builds and validates a CSR matrix.
    ///
    /// # Errors
    /// Returns a [`ValidationError`] when any invariant fails (see
    /// [`CsrMatrix::validate`]).
    pub fn new(
        nr: usize,
        nc: usize,
        rowptr: Vec<i64>,
        col: Vec<i64>,
        val: Vec<f64>,
    ) -> Result<Self, ValidationError> {
        let m = CsrMatrix { nr, nc, rowptr, col, val };
        m.validate()?;
        Ok(m)
    }

    /// Checks every invariant of the format descriptor: pointer length
    /// and range (its domain/range in Table 1), monotonicity (its
    /// universal quantifier), column bounds, and intra-row ordering (the
    /// second universal quantifier).
    ///
    /// # Errors
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), ValidationError> {
        validate_csr(self, Values::Any)
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.val.len()
    }

    /// Reference conversion from COO (the test oracle): counting sort by
    /// row, then per-row column sort.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let nnz = coo.nnz();
        let mut rowptr = vec![0i64; coo.nr + 1];
        for &i in &coo.row {
            rowptr[i as usize + 1] += 1;
        }
        for i in 0..coo.nr {
            rowptr[i + 1] += rowptr[i];
        }
        let mut next = rowptr.clone();
        let mut col = vec![0i64; nnz];
        let mut val = vec![0.0; nnz];
        for (i, j, v) in coo.iter() {
            let p = next[i as usize] as usize;
            col[p] = j;
            val[p] = v;
            next[i as usize] += 1;
        }
        // Sort within rows by column; the position tiebreak makes the
        // unstable sort equivalent to the stable one it replaced.
        for i in 0..coo.nr {
            let (s, e) = (rowptr[i] as usize, rowptr[i + 1] as usize);
            let mut keyed: Vec<(i64, usize)> = (s..e).map(|p| (col[p], p)).collect();
            keyed.sort_unstable();
            let (c_new, v_new): (Vec<i64>, Vec<f64>) =
                keyed.iter().map(|&(c, p)| (c, val[p])).unzip();
            col[s..e].copy_from_slice(&c_new);
            val[s..e].copy_from_slice(&v_new);
        }
        CsrMatrix { nr: coo.nr, nc: coo.nc, rowptr, col, val }
    }

    /// Converts back to row-major-sorted COO.
    pub fn to_coo(&self) -> CooMatrix {
        let mut row = Vec::with_capacity(self.nnz());
        for i in 0..self.nr {
            for _ in self.rowptr[i]..self.rowptr[i + 1] {
                row.push(i as i64);
            }
        }
        CooMatrix {
            nr: self.nr,
            nc: self.nc,
            row,
            col: self.col.clone(),
            val: self.val.clone(),
        }
    }

    /// Materializes as dense.
    pub fn to_dense(&self) -> DenseMatrix {
        self.to_coo().to_dense()
    }

    /// Sparse matrix–vector product `y = A x`.
    ///
    /// # Panics
    /// Panics when `x.len() != nc`.
    #[allow(clippy::needless_range_loop)] // index math mirrors the kernels
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.nc);
        let mut y = vec![0.0; self.nr];
        for i in 0..self.nr {
            let mut acc = 0.0;
            for k in self.rowptr[i] as usize..self.rowptr[i + 1] as usize {
                acc += self.val[k] * x[self.col[k] as usize];
            }
            y[i] = acc;
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::InputCheck;

    fn sample_coo() -> CooMatrix {
        CooMatrix::from_triplets(
            3,
            4,
            vec![0, 0, 1, 2],
            vec![2, 0, 3, 0],
            vec![2.0, 1.0, 3.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn from_coo_reference() {
        let csr = CsrMatrix::from_coo(&sample_coo());
        assert_eq!(csr.rowptr, vec![0, 2, 3, 4]);
        assert_eq!(csr.col, vec![0, 2, 3, 0]);
        assert_eq!(csr.val, vec![1.0, 2.0, 3.0, 4.0]);
        csr.validate().unwrap();
    }

    #[test]
    fn handles_empty_rows() {
        let coo =
            CooMatrix::from_triplets(4, 2, vec![3], vec![1], vec![7.0]).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.rowptr, vec![0, 0, 0, 0, 1]);
        csr.validate().unwrap();
    }

    #[test]
    fn round_trip_through_coo() {
        let coo = sample_coo();
        let csr = CsrMatrix::from_coo(&coo);
        let mut back = csr.to_coo();
        back.sort_row_major();
        let mut orig = coo;
        orig.sort_row_major();
        assert_eq!(back, orig);
    }

    #[test]
    fn validate_catches_violations() {
        let check = |r: Result<CsrMatrix, ValidationError>| r.unwrap_err().check;
        // Bad pointer end.
        assert_eq!(
            check(CsrMatrix::new(1, 2, vec![0, 2], vec![0], vec![1.0])),
            InputCheck::PointerEnds
        );
        // Non-monotonic pointer.
        assert_eq!(
            check(CsrMatrix::new(2, 2, vec![0, 2, 1], vec![0], vec![1.0])),
            InputCheck::PointerMonotone
        );
        // Unsorted columns in a row.
        assert_eq!(
            check(CsrMatrix::new(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 2.0])),
            InputCheck::Ordering
        );
    }

    #[test]
    fn spmv_agrees_with_dense() {
        let coo = sample_coo();
        let csr = CsrMatrix::from_coo(&coo);
        let x = [1.0, -1.0, 0.5, 2.0];
        assert_eq!(csr.spmv(&x), coo.to_dense().spmv(&x));
    }
}
