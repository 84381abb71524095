//! ELLPACK (ELL) container — an extension format beyond the paper's
//! Table 1, exercising the descriptor machinery on a padded layout.
//!
//! ELL stores up to `W` nonzeros per row in a dense `NR × W` block of
//! column indices plus values, padding short rows with a sentinel column
//! of `-1` and zero values. Data is addressed `data[i * W + s]` with slot
//! `s` holding the `s`-th nonzero of row `i` in column order.

use super::coo::CooMatrix;
use super::dense::DenseMatrix;
use crate::validate::{validate_ell, ValidationError, Values};

/// An ELL matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct EllMatrix {
    /// Number of rows (`NR`).
    pub nr: usize,
    /// Number of columns (`NC`).
    pub nc: usize,
    /// Slots per row (`W`): the maximum row population.
    pub width: usize,
    /// Column index per slot, `-1` for padding; length `nr * width`.
    pub col: Vec<i64>,
    /// Value per slot (0 for padding); length `nr * width`.
    pub data: Vec<f64>,
}

impl EllMatrix {
    /// Builds and validates an ELL matrix.
    ///
    /// # Errors
    /// Returns a [`ValidationError`] when any invariant fails.
    pub fn new(
        nr: usize,
        nc: usize,
        width: usize,
        col: Vec<i64>,
        data: Vec<f64>,
    ) -> Result<Self, ValidationError> {
        let m = EllMatrix { nr, nc, width, col, data };
        m.validate()?;
        Ok(m)
    }

    /// Checks slot-array lengths, column bounds, per-row column ordering,
    /// and zero padding.
    ///
    /// # Errors
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), ValidationError> {
        validate_ell(self, Values::Any)
    }

    /// Structural nonzero count: occupied (non-sentinel) slots. Total
    /// (never panics), even on invariant-violating containers.
    pub fn stored_nnz(&self) -> usize {
        self.col.iter().filter(|&&c| c >= 0).count()
    }

    /// Reference conversion from COO.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let mut counts = vec![0usize; coo.nr];
        for &i in &coo.row {
            counts[i as usize] += 1;
        }
        let width = counts.iter().copied().max().unwrap_or(0);
        let mut col = vec![-1i64; coo.nr * width];
        let mut data = vec![0.0; coo.nr * width];
        // Insert in row-major order so slots are column-sorted.
        let mut sorted = coo.clone();
        sorted.sort_row_major();
        let mut next = vec![0usize; coo.nr];
        for (i, j, v) in sorted.iter() {
            let s = next[i as usize];
            col[i as usize * width + s] = j;
            data[i as usize * width + s] = v;
            next[i as usize] += 1;
        }
        EllMatrix { nr: coo.nr, nc: coo.nc, width, col, data }
    }

    /// Converts to row-major-sorted COO (padding dropped).
    pub fn to_coo(&self) -> CooMatrix {
        let mut row = Vec::new();
        let mut colv = Vec::new();
        let mut val = Vec::new();
        for i in 0..self.nr {
            for s in 0..self.width {
                let j = self.col[i * self.width + s];
                if j >= 0 {
                    row.push(i as i64);
                    colv.push(j);
                    val.push(self.data[i * self.width + s]);
                }
            }
        }
        CooMatrix { nr: self.nr, nc: self.nc, row, col: colv, val }
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
            for s in 0..self.width {
                let j = self.col[i * self.width + s];
                if j >= 0 {
                    acc += self.data[i * self.width + s] * x[j as usize];
                }
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

    fn sample() -> CooMatrix {
        CooMatrix::from_triplets(
            3,
            4,
            vec![0, 0, 1, 2, 2, 2],
            vec![2, 0, 3, 0, 1, 3],
            vec![2.0, 1.0, 3.0, 4.0, 5.0, 6.0],
        )
        .unwrap()
    }

    #[test]
    fn from_coo_pads_short_rows() {
        let ell = EllMatrix::from_coo(&sample());
        assert_eq!(ell.width, 3);
        ell.validate().unwrap();
        assert_eq!(&ell.col[0..3], &[0, 2, -1]);
        assert_eq!(&ell.col[3..6], &[3, -1, -1]);
        assert_eq!(&ell.col[6..9], &[0, 1, 3]);
    }

    #[test]
    fn dense_round_trip_and_spmv() {
        let coo = sample();
        let ell = EllMatrix::from_coo(&coo);
        assert_eq!(ell.to_dense(), coo.to_dense());
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(ell.spmv(&x), coo.to_dense().spmv(&x));
    }

    #[test]
    fn validate_catches_interior_padding() {
        let bad = EllMatrix {
            nr: 1,
            nc: 4,
            width: 3,
            col: vec![-1, 2, 3],
            data: vec![0.0, 1.0, 2.0],
        };
        assert_eq!(bad.validate().unwrap_err().check, InputCheck::PaddingZero);
    }

    #[test]
    fn validate_catches_nonzero_padding() {
        let bad = EllMatrix {
            nr: 1,
            nc: 4,
            width: 2,
            col: vec![1, -1],
            data: vec![1.0, 3.0],
        };
        assert_eq!(bad.validate().unwrap_err().check, InputCheck::PaddingZero);
    }
}
