//! Blocked Compressed Sparse Row (BCSR) container — the blocked format of
//! Figure 1 of the paper.
//!
//! The matrix is tiled into `bh × bw` blocks; block rows are compressed
//! CSR-style (`browptr`, `bcol`) and each referenced block stores a dense
//! `bh × bw` tile (zero-padded).

use super::coo::CooMatrix;
use super::dense::DenseMatrix;
use crate::validate::{validate_bcsr, ValidationError};

/// A BCSR matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct BcsrMatrix {
    /// Number of rows of the logical matrix.
    pub nr: usize,
    /// Number of columns of the logical matrix.
    pub nc: usize,
    /// Block height.
    pub bh: usize,
    /// Block width.
    pub bw: usize,
    /// Block-row pointers, length `ceil(nr / bh) + 1`.
    pub browptr: Vec<i64>,
    /// Block-column index per stored block, sorted within a block row.
    pub bcol: Vec<i64>,
    /// Dense tiles, `bh * bw` values per stored block, row-major within
    /// the tile.
    pub data: Vec<f64>,
}

impl BcsrMatrix {
    /// Number of block rows.
    pub fn block_rows(&self) -> usize {
        self.nr.div_ceil(self.bh)
    }

    /// Number of block columns.
    pub fn block_cols(&self) -> usize {
        self.nc.div_ceil(self.bw)
    }

    /// Number of stored blocks.
    pub fn nblocks(&self) -> usize {
        self.bcol.len()
    }

    /// Checks pointer shape and monotonicity, block-column bounds and
    /// ordering, tile data length, and zero padding outside the logical
    /// matrix.
    ///
    /// # Errors
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), ValidationError> {
        validate_bcsr(self)
    }

    /// Reference conversion from COO.
    pub fn from_coo(coo: &CooMatrix, bh: usize, bw: usize) -> Self {
        assert!(bh > 0 && bw > 0, "block dims must be positive");
        let brs = coo.nr.div_ceil(bh);
        let bcs = coo.nc.div_ceil(bw);
        // Which blocks are populated?
        let mut present = vec![false; brs * bcs];
        for (i, j, _) in coo.iter() {
            present[(i as usize / bh) * bcs + (j as usize / bw)] = true;
        }
        let mut browptr = vec![0i64; brs + 1];
        let mut bcol = Vec::new();
        let mut block_pos = vec![usize::MAX; brs * bcs];
        for bi in 0..brs {
            for bj in 0..bcs {
                if present[bi * bcs + bj] {
                    block_pos[bi * bcs + bj] = bcol.len();
                    bcol.push(bj as i64);
                }
            }
            browptr[bi + 1] = bcol.len() as i64;
        }
        let mut data = vec![0.0; bcol.len() * bh * bw];
        for (i, j, v) in coo.iter() {
            let (i, j) = (i as usize, j as usize);
            let blk = block_pos[(i / bh) * bcs + (j / bw)];
            data[(blk * bh + i % bh) * bw + j % bw] += v;
        }
        BcsrMatrix { nr: coo.nr, nc: coo.nc, bh, bw, browptr, bcol, data }
    }

    /// Converts to COO (explicit zeros inside stored blocks dropped).
    pub fn to_coo(&self) -> CooMatrix {
        let mut row = Vec::new();
        let mut col = Vec::new();
        let mut val = Vec::new();
        for bi in 0..self.block_rows() {
            for blk in self.browptr[bi] as usize..self.browptr[bi + 1] as usize {
                let bj = self.bcol[blk] as usize;
                for r in 0..self.bh {
                    for c in 0..self.bw {
                        let gi = bi * self.bh + r;
                        let gj = bj * self.bw + c;
                        if gi >= self.nr || gj >= self.nc {
                            continue;
                        }
                        let v = self.data[(blk * self.bh + r) * self.bw + c];
                        if v != 0.0 {
                            row.push(gi as i64);
                            col.push(gj as i64);
                            val.push(v);
                        }
                    }
                }
            }
        }
        CooMatrix { nr: self.nr, nc: self.nc, row, col, val }
    }

    /// Materializes as dense.
    pub fn to_dense(&self) -> DenseMatrix {
        self.to_coo().to_dense()
    }

    /// Sparse matrix–vector product `y = A x` over tiles.
    ///
    /// # Panics
    /// Panics when `x.len() != nc`.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.nc);
        let mut y = vec![0.0; self.nr];
        for bi in 0..self.block_rows() {
            for blk in self.browptr[bi] as usize..self.browptr[bi + 1] as usize {
                let bj = self.bcol[blk] as usize;
                for r in 0..self.bh {
                    let gi = bi * self.bh + r;
                    if gi >= self.nr {
                        break;
                    }
                    let mut acc = 0.0;
                    for c in 0..self.bw {
                        let gj = bj * self.bw + c;
                        if gj >= self.nc {
                            break;
                        }
                        acc += self.data[(blk * self.bh + r) * self.bw + c] * x[gj];
                    }
                    y[gi] += acc;
                }
            }
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
            5,
            5,
            vec![0, 1, 1, 3, 4, 4],
            vec![0, 0, 3, 2, 1, 4],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
        .unwrap()
    }

    #[test]
    fn from_coo_reference_and_validate() {
        let b = BcsrMatrix::from_coo(&sample(), 2, 2);
        b.validate().unwrap();
        assert_eq!(b.block_rows(), 3);
        assert_eq!(b.block_cols(), 3);
        // Blocks: (0,0) covers rows 0-1 cols 0-1; (0,1) covers (1,3);
        // (1,1) covers (3,2); (2,0) covers (4,1); (2,2) covers (4,4).
        assert_eq!(b.nblocks(), 5);
    }

    #[test]
    fn dense_round_trip_and_spmv() {
        let coo = sample();
        let b = BcsrMatrix::from_coo(&coo, 2, 3);
        assert_eq!(b.to_dense(), coo.to_dense());
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let expect = coo.to_dense().spmv(&x);
        for (a, e) in b.spmv(&x).iter().zip(&expect) {
            assert!((a - e).abs() < 1e-12);
        }
    }

    #[test]
    fn odd_sized_matrix_pads_cleanly() {
        let coo = CooMatrix::from_triplets(3, 3, vec![2], vec![2], vec![9.0]).unwrap();
        let b = BcsrMatrix::from_coo(&coo, 2, 2);
        b.validate().unwrap();
        assert_eq!(b.to_dense(), coo.to_dense());
    }

    #[test]
    fn validate_reports_degenerate_block_dims() {
        let mut b = BcsrMatrix::from_coo(&sample(), 2, 2);
        b.bh = 0;
        assert_eq!(b.validate().unwrap_err().check, InputCheck::ArrayLengths);
        // `nblocks * bh * bw` overflows: a length error, not a panic.
        let mut b = BcsrMatrix::from_coo(&sample(), 2, 2);
        b.bw = usize::MAX / 2;
        assert_eq!(b.validate().unwrap_err().check, InputCheck::ArrayLengths);
    }

    #[test]
    fn validate_rejects_unsorted_block_columns() {
        let mut b = BcsrMatrix::from_coo(&sample(), 2, 2);
        // Swap two block columns in the same block row to break ordering.
        if b.browptr[1] - b.browptr[0] >= 2 {
            b.bcol.swap(0, 1);
            assert_eq!(b.validate().unwrap_err().check, InputCheck::Ordering);
        }
    }
}
