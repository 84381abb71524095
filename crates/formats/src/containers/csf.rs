//! CSF: compressed sparse fiber storage for order-3 tensors (Smith &
//! Karypis; the layout behind TACO's sparse tensor levels).
//!
//! CSF compresses each tensor mode in turn, like CSR applied
//! hierarchically: level 0 stores the distinct `i` values, level 1 the
//! `(i, j)` fibers of each `i`, level 2 the nonzeros of each fiber. It is
//! the natural companion to the lexicographically sorted COO the paper's
//! evaluation assumes.

use super::coo::Coo3Tensor;
use super::dense::DenseMatrix;
use crate::validate::{validate_csf, ValidationError};

/// A mode-(0,1,2) CSF tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct CsfTensor {
    /// Mode extents.
    pub dims: (usize, usize, usize),
    /// Distinct mode-0 coordinates, sorted ascending.
    pub idx0: Vec<i64>,
    /// Fiber pointers per level-0 entry, length `idx0.len() + 1`.
    pub ptr1: Vec<i64>,
    /// Mode-1 coordinates per fiber, sorted within each level-0 slice.
    pub idx1: Vec<i64>,
    /// Nonzero pointers per fiber, length `idx1.len() + 1`.
    pub ptr2: Vec<i64>,
    /// Mode-2 coordinates per nonzero, sorted within each fiber.
    pub idx2: Vec<i64>,
    /// Values.
    pub val: Vec<f64>,
}

impl CsfTensor {
    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.val.len()
    }

    /// Builds CSF from a (lexicographically sorted, duplicate-free) COO
    /// tensor; unsorted input is sorted first (unstable with position
    /// tiebreak, equivalent to the stable sort it replaced).
    pub fn from_coo3(t: &Coo3Tensor) -> Self {
        let mut t = t.clone();
        t.sort_by(|a, b| a.cmp(b));
        let mut out = CsfTensor {
            dims: (t.nr, t.nc, t.nz),
            idx0: Vec::new(),
            ptr1: vec![0],
            idx1: Vec::new(),
            ptr2: vec![0],
            idx2: t.i2.clone(),
            val: t.val.clone(),
        };
        for n in 0..t.nnz() {
            let new_i = out.idx0.last() != Some(&t.i0[n]);
            let new_fiber = new_i || out.idx1.last() != Some(&t.i1[n]);
            if new_i {
                out.idx0.push(t.i0[n]);
                out.ptr1.push(out.idx1.len() as i64);
            }
            // ptr1/ptr2 are seeded with [0] and only ever grow, so a last
            // element always exists.
            if new_fiber {
                out.idx1.push(t.i1[n]);
                out.ptr2.push(out.idx2.len() as i64);
                if let Some(end) = out.ptr1.last_mut() {
                    *end = out.idx1.len() as i64;
                }
            }
            if let Some(end) = out.ptr2.last_mut() {
                *end = n as i64 + 1;
            }
        }
        out
    }

    /// Checks pointer shapes, monotonicity, coordinate ranges, and
    /// per-level ordering.
    ///
    /// # Errors
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), ValidationError> {
        validate_csf(self)
    }

    /// Expands back to lexicographically sorted COO.
    pub fn to_coo3(&self) -> Coo3Tensor {
        let mut t = Coo3Tensor {
            nr: self.dims.0,
            nc: self.dims.1,
            nz: self.dims.2,
            i0: Vec::with_capacity(self.nnz()),
            i1: Vec::with_capacity(self.nnz()),
            i2: self.idx2.clone(),
            val: self.val.clone(),
        };
        for a in 0..self.idx0.len() {
            for f in self.ptr1[a] as usize..self.ptr1[a + 1] as usize {
                for _ in self.ptr2[f] as usize..self.ptr2[f + 1] as usize {
                    t.i0.push(self.idx0[a]);
                    t.i1.push(self.idx1[f]);
                }
            }
        }
        t
    }

    /// Mode-2 tensor-times-vector over the fiber hierarchy.
    ///
    /// # Panics
    /// Panics when `x.len()` differs from the mode-2 extent.
    pub fn ttv_mode2(&self, x: &[f64]) -> DenseMatrix {
        assert_eq!(x.len(), self.dims.2);
        let mut out = DenseMatrix::zeros(self.dims.0, self.dims.1);
        for a in 0..self.idx0.len() {
            let i = self.idx0[a] as usize;
            for f in self.ptr1[a] as usize..self.ptr1[a + 1] as usize {
                let j = self.idx1[f] as usize;
                let mut acc = 0.0;
                for n in self.ptr2[f] as usize..self.ptr2[f + 1] as usize {
                    acc += self.val[n] * x[self.idx2[n] as usize];
                }
                let cur = out.get(i, j);
                out.set(i, j, cur + acc);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::InputCheck;

    fn tensor() -> Coo3Tensor {
        Coo3Tensor::from_coords(
            (4, 5, 6),
            vec![2, 0, 0, 2, 3, 0],
            vec![1, 3, 3, 1, 0, 0],
            vec![5, 2, 4, 0, 1, 1],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
        .unwrap()
    }

    #[test]
    fn round_trip() {
        let t = tensor();
        let csf = CsfTensor::from_coo3(&t);
        csf.validate().unwrap();
        let back = csf.to_coo3();
        let mut want = t;
        want.sort_by(|a, b| a.cmp(b));
        assert_eq!(back, want);
    }

    #[test]
    fn compression_shares_prefixes() {
        let csf = CsfTensor::from_coo3(&tensor());
        // i values {0, 2, 3}; fibers: (0,0),(0,3),(2,1),(3,0) = 4.
        assert_eq!(csf.idx0, vec![0, 2, 3]);
        assert_eq!(csf.idx1.len(), 4);
        assert_eq!(csf.nnz(), 6);
    }

    #[test]
    fn ttv_matches_reference() {
        let t = tensor();
        let csf = CsfTensor::from_coo3(&t);
        let x: Vec<f64> = (0..6).map(|k| 1.0 + k as f64).collect();
        assert_eq!(csf.ttv_mode2(&x), t.ttv_mode2(&x));
    }

    #[test]
    fn validate_catches_unsorted_fibers() {
        let mut csf = CsfTensor::from_coo3(&tensor());
        csf.idx0.swap(0, 1);
        assert_eq!(csf.validate().unwrap_err().check, InputCheck::Ordering);
    }

    #[test]
    fn empty_tensor() {
        let t = Coo3Tensor::from_coords((2, 2, 2), vec![], vec![], vec![], vec![]).unwrap();
        let csf = CsfTensor::from_coo3(&t);
        csf.validate().unwrap();
        assert_eq!(csf.nnz(), 0);
        assert_eq!(csf.to_coo3().nnz(), 0);
    }
}
