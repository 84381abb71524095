//! Compressed Sparse Column (CSC) container — the transpose-ordered twin
//! of CSR and the destination of the paper's COO→CSC and CSR→CSC
//! experiments (Figures 2a and 2b).

use super::coo::CooMatrix;
use super::csr::CsrMatrix;
use super::dense::DenseMatrix;
use crate::validate::{validate_csc, ValidationError, Values};

/// A CSC matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    /// Number of rows (`NR`).
    pub nr: usize,
    /// Number of columns (`NC`).
    pub nc: usize,
    /// Column pointers (`colptr`), length `nc + 1`, non-decreasing.
    pub colptr: Vec<i64>,
    /// Row index per nonzero (`row`), sorted within each column.
    pub row: Vec<i64>,
    /// Value per nonzero.
    pub val: Vec<f64>,
}

impl CscMatrix {
    /// Builds and validates a CSC matrix.
    ///
    /// # Errors
    /// Returns a [`ValidationError`] when any invariant fails.
    pub fn new(
        nr: usize,
        nc: usize,
        colptr: Vec<i64>,
        row: Vec<i64>,
        val: Vec<f64>,
    ) -> Result<Self, ValidationError> {
        let m = CscMatrix { nr, nc, colptr, row, val };
        m.validate()?;
        Ok(m)
    }

    /// Checks pointer shape, monotonicity, row bounds, and intra-column
    /// ordering — the CSC descriptor's domain/range and universal
    /// quantifiers.
    ///
    /// # Errors
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), ValidationError> {
        validate_csc(self, Values::Any)
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.val.len()
    }

    /// Reference conversion from COO: counting sort by column, then
    /// per-column row sort.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let nnz = coo.nnz();
        let mut colptr = vec![0i64; coo.nc + 1];
        for &j in &coo.col {
            colptr[j as usize + 1] += 1;
        }
        for j in 0..coo.nc {
            colptr[j + 1] += colptr[j];
        }
        let mut next = colptr.clone();
        let mut row = vec![0i64; nnz];
        let mut val = vec![0.0; nnz];
        for (i, j, v) in coo.iter() {
            let p = next[j as usize] as usize;
            row[p] = i;
            val[p] = v;
            next[j as usize] += 1;
        }
        // Position tiebreak makes the unstable sort equivalent to the
        // stable one it replaced.
        for j in 0..coo.nc {
            let (s, e) = (colptr[j] as usize, colptr[j + 1] as usize);
            let mut keyed: Vec<(i64, usize)> = (s..e).map(|p| (row[p], p)).collect();
            keyed.sort_unstable();
            let (r_new, v_new): (Vec<i64>, Vec<f64>) =
                keyed.iter().map(|&(r, p)| (r, val[p])).unzip();
            row[s..e].copy_from_slice(&r_new);
            val[s..e].copy_from_slice(&v_new);
        }
        CscMatrix { nr: coo.nr, nc: coo.nc, colptr, row, val }
    }

    /// Reference conversion from CSR (the CSR→CSC oracle).
    pub fn from_csr(csr: &CsrMatrix) -> Self {
        Self::from_coo(&csr.to_coo())
    }

    /// Converts to column-major-sorted COO.
    pub fn to_coo(&self) -> CooMatrix {
        let mut col = Vec::with_capacity(self.nnz());
        for j in 0..self.nc {
            for _ in self.colptr[j]..self.colptr[j + 1] {
                col.push(j as i64);
            }
        }
        CooMatrix {
            nr: self.nr,
            nc: self.nc,
            row: self.row.clone(),
            col,
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
        for j in 0..self.nc {
            let xj = x[j];
            for k in self.colptr[j] as usize..self.colptr[j + 1] as usize {
                y[self.row[k] as usize] += self.val[k] * xj;
            }
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
        let csc = CscMatrix::from_coo(&sample_coo());
        assert_eq!(csc.colptr, vec![0, 2, 2, 3, 4]);
        assert_eq!(csc.row, vec![0, 2, 0, 1]);
        assert_eq!(csc.val, vec![1.0, 4.0, 2.0, 3.0]);
        csc.validate().unwrap();
    }

    #[test]
    fn from_csr_matches_from_coo() {
        let coo = sample_coo();
        let via_csr = CscMatrix::from_csr(&CsrMatrix::from_coo(&coo));
        let direct = CscMatrix::from_coo(&coo);
        assert_eq!(via_csr, direct);
    }

    #[test]
    fn dense_round_trip() {
        let coo = sample_coo();
        let csc = CscMatrix::from_coo(&coo);
        assert_eq!(csc.to_dense(), coo.to_dense());
    }

    #[test]
    fn spmv_agrees_with_dense() {
        let coo = sample_coo();
        let csc = CscMatrix::from_coo(&coo);
        let x = [2.0, 0.0, -1.0, 1.0];
        assert_eq!(csc.spmv(&x), coo.to_dense().spmv(&x));
    }

    #[test]
    fn validate_catches_unsorted_rows() {
        let err = CscMatrix::new(3, 1, vec![0, 2], vec![2, 1], vec![1.0, 2.0]).unwrap_err();
        assert_eq!(err.check, InputCheck::Ordering);
    }
}
