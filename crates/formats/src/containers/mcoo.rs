//! Morton-ordered COO containers (`MCOO` / `MCOO3` in Table 1).
//!
//! These are COO layouts whose nonzeros are sorted by the Morton (Z-order)
//! code of their dense coordinates — the reordering universal quantifier
//! that distinguishes this paper's descriptor language from prior format
//! abstractions. HiCOO and ALTO use this family of orderings for locality
//! in mode-agnostic tensor kernels.

use spf_codegen::kernels::morton_sort_perm;

use super::coo::{Coo3Tensor, CooMatrix};
use crate::validate::{validate_coo, validate_coo3, Order, ValidationError, Values};

/// A Morton-ordered COO matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MortonCooMatrix {
    /// The underlying coordinate storage (`row_m`, `col_m`).
    pub coo: CooMatrix,
}

impl MortonCooMatrix {
    /// Wraps a COO matrix after checking the Morton-order universal
    /// quantifier
    /// `∀n1, n2 : n1 < n2 ⟺ MORTON(row(n1), col(n1)) < MORTON(row(n2), col(n2))`.
    ///
    /// # Errors
    /// Returns a [`ValidationError`] when the storage or the order is
    /// invalid (see [`MortonCooMatrix::validate`]).
    pub fn new(coo: CooMatrix) -> Result<Self, ValidationError> {
        let m = MortonCooMatrix { coo };
        m.validate()?;
        Ok(m)
    }

    /// Reference conversion: sorts a COO matrix into Morton order.
    ///
    /// Uses the packed-key Morton sort of the interpreter's ordered lists
    /// (a radix sort of `u64` codes where they fit, position tie-break),
    /// so the result is identical to a stable comparison sort by
    /// `spf_codegen::morton::morton_cmp`.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let mut sorted = coo.clone();
        let idx = morton_sort_perm(&[&coo.row, &coo.col]);
        sorted.permute(&idx);
        MortonCooMatrix { coo: sorted }
    }

    /// Checks the COO storage (lengths, bounds) and the Morton ordering
    /// invariant. Repeated coordinates are allowed: only consecutive
    /// nonzeros out of Z-order violate it.
    ///
    /// # Errors
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), ValidationError> {
        validate_coo(&self.coo, Order::MortonRepeats, Values::Any)
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.coo.nnz()
    }
}

/// A Morton-ordered order-3 COO tensor (`MCOO3`).
#[derive(Debug, Clone, PartialEq)]
pub struct MortonCoo3Tensor {
    /// The underlying coordinate storage.
    pub coo: Coo3Tensor,
}

impl MortonCoo3Tensor {
    /// Wraps a tensor after checking the 3-D Morton order.
    ///
    /// # Errors
    /// Returns a [`ValidationError`] when the storage or the order is
    /// invalid.
    pub fn new(coo: Coo3Tensor) -> Result<Self, ValidationError> {
        let t = MortonCoo3Tensor { coo };
        t.validate()?;
        Ok(t)
    }

    /// Reference conversion: sorts a COO3 tensor into Morton order (the
    /// oracle for the Table 4 experiment), via the precomputed-key
    /// Morton sort.
    pub fn from_coo3(coo: &Coo3Tensor) -> Self {
        let mut sorted = coo.clone();
        let idx = morton_sort_perm(&[&coo.i0, &coo.i1, &coo.i2]);
        sorted.permute(&idx);
        MortonCoo3Tensor { coo: sorted }
    }

    /// Checks the COO storage and the 3-D Morton ordering invariant
    /// (repeated coordinates allowed).
    ///
    /// # Errors
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), ValidationError> {
        validate_coo3(&self.coo, Order::MortonRepeats, Values::Any)
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.coo.nnz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::InputCheck;

    #[test]
    fn from_coo_sorts_and_validates() {
        let coo = CooMatrix::from_triplets(
            4,
            4,
            vec![3, 0, 1, 2],
            vec![3, 0, 1, 2],
            vec![4.0, 1.0, 2.0, 3.0],
        )
        .unwrap();
        let m = MortonCooMatrix::from_coo(&coo);
        m.validate().unwrap();
        // Z-order on the diagonal is just the diagonal order.
        assert_eq!(m.coo.row, vec![0, 1, 2, 3]);
        assert_eq!(m.coo.val, vec![1.0, 2.0, 3.0, 4.0]);
        // Values preserved as a multiset and dense equality holds.
        assert_eq!(m.coo.to_dense(), coo.to_dense());
    }

    #[test]
    fn new_rejects_out_of_order() {
        let coo = CooMatrix::from_triplets(
            2,
            2,
            vec![1, 0],
            vec![1, 0],
            vec![1.0, 2.0],
        )
        .unwrap();
        assert_eq!(MortonCooMatrix::new(coo).unwrap_err().check, InputCheck::Ordering);
    }

    #[test]
    fn mcoo3_round_trip_values() {
        let t = Coo3Tensor::from_coords(
            (4, 4, 4),
            vec![3, 0, 2],
            vec![1, 1, 0],
            vec![0, 2, 3],
            vec![1.0, 2.0, 3.0],
        )
        .unwrap();
        let m = MortonCoo3Tensor::from_coo3(&t);
        m.validate().unwrap();
        assert_eq!(m.nnz(), 3);
        // TTV results agree (order-insensitive check).
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(m.coo.ttv_mode2(&x), t.ttv_mode2(&x));
    }
}
