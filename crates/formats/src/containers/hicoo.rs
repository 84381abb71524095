//! HiCOO: hierarchical blocked Morton-ordered COO storage (Li, Sun,
//! Vuduc, SC'18) — the format whose hand-written z-Morton reordering step
//! the paper compares against in Table 4.
//!
//! Nonzeros are sorted in Z-order and grouped into `2^b × 2^b × 2^b`
//! blocks: a block pointer array (`bptr`), per-block block coordinates,
//! and compact per-nonzero in-block offsets. The whole-tensor Morton sort
//! that builds this layout is exactly what the synthesized COO3D→MCOO3
//! conversion produces, which is why the paper's comparison is apt.

use super::coo::Coo3Tensor;
use super::dense::DenseMatrix;
use super::mcoo::MortonCoo3Tensor;
use crate::validate::{validate_hicoo, ValidationError};

/// A HiCOO-compressed order-3 tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct HicooTensor {
    /// Mode extents.
    pub dims: (usize, usize, usize),
    /// Log2 of the block edge length.
    pub block_bits: u32,
    /// Block pointers into the nonzero arrays, length `nblocks + 1`.
    pub bptr: Vec<i64>,
    /// Block coordinates per block (mode 0).
    pub bi: Vec<i64>,
    /// Block coordinates per block (mode 1).
    pub bj: Vec<i64>,
    /// Block coordinates per block (mode 2).
    pub bk: Vec<i64>,
    /// In-block offsets per nonzero (mode 0), `< 2^block_bits`.
    pub ei: Vec<u16>,
    /// In-block offsets per nonzero (mode 1).
    pub ej: Vec<u16>,
    /// In-block offsets per nonzero (mode 2).
    pub ek: Vec<u16>,
    /// Values.
    pub val: Vec<f64>,
}

impl HicooTensor {
    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.val.len()
    }

    /// Number of blocks.
    pub fn nblocks(&self) -> usize {
        self.bi.len()
    }

    /// Builds HiCOO from a Morton-ordered tensor (blocks are contiguous
    /// under Z-order because the curve is hierarchical).
    ///
    /// # Panics
    /// Panics when `block_bits > 16` (in-block offsets are `u16`).
    pub fn from_mcoo3(m: &MortonCoo3Tensor, block_bits: u32) -> Self {
        assert!(block_bits <= 16, "block offsets are u16");
        let t = &m.coo;
        let mask = (1i64 << block_bits) - 1;
        let mut out = HicooTensor {
            dims: (t.nr, t.nc, t.nz),
            block_bits,
            bptr: vec![0],
            bi: Vec::new(),
            bj: Vec::new(),
            bk: Vec::new(),
            ei: Vec::with_capacity(t.nnz()),
            ej: Vec::with_capacity(t.nnz()),
            ek: Vec::with_capacity(t.nnz()),
            val: t.val.clone(),
        };
        for n in 0..t.nnz() {
            let (bi, bj, bk) = (
                t.i0[n] >> block_bits,
                t.i1[n] >> block_bits,
                t.i2[n] >> block_bits,
            );
            // bi/bj/bk are pushed in lockstep, so their last elements
            // exist (or not) together.
            let new_block = match (out.bi.last(), out.bj.last(), out.bk.last()) {
                (Some(&pbi), Some(&pbj), Some(&pbk)) => (pbi, pbj, pbk) != (bi, bj, bk),
                _ => true,
            };
            if new_block {
                out.bi.push(bi);
                out.bj.push(bj);
                out.bk.push(bk);
                out.bptr.push(n as i64);
            }
            // bptr is seeded with [0] and only ever grows.
            if let Some(end) = out.bptr.last_mut() {
                *end = n as i64 + 1;
            }
            out.ei.push((t.i0[n] & mask) as u16);
            out.ej.push((t.i1[n] & mask) as u16);
            out.ek.push((t.i2[n] & mask) as u16);
        }
        // bptr holds ends; rebuild as starts + final end.
        let mut bptr = Vec::with_capacity(out.nblocks() + 1);
        bptr.push(0i64);
        bptr.extend(out.bptr.iter().skip(1).copied());
        out.bptr = bptr;
        out
    }

    /// Builds HiCOO from an arbitrary COO tensor (Morton sort first).
    pub fn from_coo3(t: &Coo3Tensor, block_bits: u32) -> Self {
        Self::from_mcoo3(&MortonCoo3Tensor::from_coo3(t), block_bits)
    }

    /// Checks structural invariants: pointer shape/monotonicity, in-block
    /// offsets within the block edge, coordinates in range, and the
    /// Z-order of blocks.
    ///
    /// # Errors
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), ValidationError> {
        validate_hicoo(self)
    }

    /// Expands back to a Morton-ordered COO tensor.
    pub fn to_coo3(&self) -> Coo3Tensor {
        let mut t = Coo3Tensor {
            nr: self.dims.0,
            nc: self.dims.1,
            nz: self.dims.2,
            i0: Vec::with_capacity(self.nnz()),
            i1: Vec::with_capacity(self.nnz()),
            i2: Vec::with_capacity(self.nnz()),
            val: self.val.clone(),
        };
        for b in 0..self.nblocks() {
            for n in self.bptr[b] as usize..self.bptr[b + 1] as usize {
                t.i0.push((self.bi[b] << self.block_bits) + self.ei[n] as i64);
                t.i1.push((self.bj[b] << self.block_bits) + self.ej[n] as i64);
                t.i2.push((self.bk[b] << self.block_bits) + self.ek[n] as i64);
            }
        }
        t
    }

    /// Mode-2 tensor-times-vector, block by block (the locality HiCOO is
    /// built for).
    ///
    /// # Panics
    /// Panics when `x.len()` differs from the mode-2 extent.
    pub fn ttv_mode2(&self, x: &[f64]) -> DenseMatrix {
        assert_eq!(x.len(), self.dims.2);
        let mut out = DenseMatrix::zeros(self.dims.0, self.dims.1);
        for b in 0..self.nblocks() {
            let (i0, j0, k0) = (
                self.bi[b] << self.block_bits,
                self.bj[b] << self.block_bits,
                self.bk[b] << self.block_bits,
            );
            for n in self.bptr[b] as usize..self.bptr[b + 1] as usize {
                let i = (i0 + self.ei[n] as i64) as usize;
                let j = (j0 + self.ej[n] as i64) as usize;
                let k = (k0 + self.ek[n] as i64) as usize;
                let cur = out.get(i, j);
                out.set(i, j, cur + self.val[n] * x[k]);
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
            (16, 16, 16),
            vec![0, 1, 8, 8, 15, 3],
            vec![0, 2, 9, 8, 15, 12],
            vec![1, 0, 3, 8, 15, 7],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
        .unwrap()
    }

    #[test]
    fn round_trip_through_mcoo3() {
        let t = tensor();
        let h = HicooTensor::from_coo3(&t, 2);
        h.validate().unwrap();
        let back = h.to_coo3();
        let want = MortonCoo3Tensor::from_coo3(&t).coo;
        assert_eq!(back, want);
    }

    #[test]
    fn blocks_partition_the_nonzeros() {
        let h = HicooTensor::from_coo3(&tensor(), 3);
        h.validate().unwrap();
        assert_eq!(*h.bptr.last().unwrap() as usize, h.nnz());
        // 16/8 = 2 blocks per mode; the six points land in >= 2 blocks.
        assert!(h.nblocks() >= 2);
    }

    #[test]
    fn ttv_matches_reference() {
        let t = tensor();
        let h = HicooTensor::from_coo3(&t, 2);
        let x: Vec<f64> = (0..16).map(|k| (k % 5) as f64).collect();
        assert_eq!(h.ttv_mode2(&x), t.ttv_mode2(&x));
    }

    #[test]
    fn validate_catches_bad_offsets() {
        let mut h = HicooTensor::from_coo3(&tensor(), 2);
        h.ei[0] = 99;
        assert_eq!(h.validate().unwrap_err().check, InputCheck::IndexBounds);
    }

    #[test]
    fn validate_catches_block_order() {
        let mut h = HicooTensor::from_coo3(&tensor(), 2);
        if h.nblocks() >= 2 {
            h.bi.swap(0, 1);
            h.bj.swap(0, 1);
            h.bk.swap(0, 1);
            assert_eq!(h.validate().unwrap_err().check, InputCheck::Ordering);
        }
    }

    #[test]
    fn validate_accepts_16_bit_blocks() {
        // u16 offsets fill a 2^16 block edge exactly; the edge itself
        // must not overflow.
        HicooTensor::from_coo3(&tensor(), 16).validate().unwrap();
    }

    #[test]
    fn validate_reports_short_block_and_offset_arrays() {
        let mut h = HicooTensor::from_coo3(&tensor(), 2);
        assert!(h.nblocks() >= 2);
        h.bj.pop();
        assert_eq!(h.validate().unwrap_err().check, InputCheck::ArrayLengths);
        let mut h = HicooTensor::from_coo3(&tensor(), 2);
        h.ek.pop();
        assert_eq!(h.validate().unwrap_err().check, InputCheck::ArrayLengths);
    }

    #[test]
    fn validate_rejects_negative_block_coordinates() {
        let mut h = HicooTensor::from_coo3(&tensor(), 2);
        h.bi[0] = -1;
        assert_eq!(h.validate().unwrap_err().check, InputCheck::IndexBounds);
    }

    #[test]
    fn empty_tensor() {
        let t = Coo3Tensor::from_coords((4, 4, 4), vec![], vec![], vec![], vec![]).unwrap();
        let h = HicooTensor::from_coo3(&t, 1);
        h.validate().unwrap();
        assert_eq!(h.nblocks(), 0);
        assert_eq!(h.to_coo3().nnz(), 0);
    }
}
