//! Type-erased containers for generic any-to-any dispatch.
//!
//! The conversion engine (and `sparse-synthesis`'s generic `run_matrix`
//! path) needs to accept "some sparse matrix" and return "some sparse
//! matrix" where the concrete container is chosen by the *destination
//! descriptor* at runtime. [`AnyMatrix`] / [`AnyTensor`] are the owned
//! sums over the shipped containers, and [`MatrixRef`] / [`TensorRef`]
//! the borrowed views used on the input side so callers never clone just
//! to dispatch.

use crate::containers::{
    Coo3Tensor, CooMatrix, CscMatrix, CsrMatrix, DiaMatrix, EllMatrix, MortonCoo3Tensor,
    MortonCooMatrix,
};

/// An owned rank-2 sparse matrix in any of the shipped containers.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyMatrix {
    /// Coordinate storage (unordered or sorted — the container is the
    /// same; ordering is a descriptor-level invariant).
    Coo(CooMatrix),
    /// Compressed rows.
    Csr(CsrMatrix),
    /// Compressed columns.
    Csc(CscMatrix),
    /// Diagonal storage.
    Dia(DiaMatrix),
    /// Padded slot-per-row storage.
    Ell(EllMatrix),
    /// Morton-ordered coordinates.
    MortonCoo(MortonCooMatrix),
}

impl AnyMatrix {
    /// `(rows, cols)`.
    pub fn dims(&self) -> (usize, usize) {
        self.as_ref().dims()
    }

    /// Stored-entry count. For DIA and ELL this counts occupied slots
    /// (structural nonzeros), not padding.
    pub fn nnz(&self) -> usize {
        self.as_ref().nnz()
    }

    /// A borrowed view for dispatch without cloning.
    pub fn as_ref(&self) -> MatrixRef<'_> {
        match self {
            AnyMatrix::Coo(m) => MatrixRef::Coo(m),
            AnyMatrix::Csr(m) => MatrixRef::Csr(m),
            AnyMatrix::Csc(m) => MatrixRef::Csc(m),
            AnyMatrix::Dia(m) => MatrixRef::Dia(m),
            AnyMatrix::Ell(m) => MatrixRef::Ell(m),
            AnyMatrix::MortonCoo(m) => MatrixRef::MortonCoo(m),
        }
    }

    /// Short container label (`"coo"`, `"csr"`, …) for error messages.
    pub fn label(&self) -> &'static str {
        self.as_ref().label()
    }
}

/// A borrowed rank-2 sparse matrix in any of the shipped containers.
#[derive(Debug, Clone, Copy)]
pub enum MatrixRef<'a> {
    /// Coordinate storage.
    Coo(&'a CooMatrix),
    /// Compressed rows.
    Csr(&'a CsrMatrix),
    /// Compressed columns.
    Csc(&'a CscMatrix),
    /// Diagonal storage.
    Dia(&'a DiaMatrix),
    /// Padded slot-per-row storage.
    Ell(&'a EllMatrix),
    /// Morton-ordered coordinates.
    MortonCoo(&'a MortonCooMatrix),
}

impl<'a> MatrixRef<'a> {
    /// The coordinate storage of a COO or Morton COO container (the two
    /// share it; ordering is the descriptor's claim), or `(rows, cols)`
    /// and the stored-entry count of any other container. The one place
    /// that knows the Morton container is COO storage.
    fn coo_or_shape(self) -> Result<&'a CooMatrix, ((usize, usize), usize)> {
        match self {
            MatrixRef::Coo(m) => Ok(m),
            MatrixRef::MortonCoo(m) => Ok(&m.coo),
            MatrixRef::Csr(m) => Err(((m.nr, m.nc), m.val.len())),
            MatrixRef::Csc(m) => Err(((m.nr, m.nc), m.val.len())),
            MatrixRef::Dia(m) => Err(((m.nr, m.nc), m.stored_nnz())),
            MatrixRef::Ell(m) => Err(((m.nr, m.nc), m.stored_nnz())),
        }
    }

    /// The coordinate storage of a COO or Morton COO container, `None`
    /// for the other containers.
    pub fn coo(self) -> Option<&'a CooMatrix> {
        self.coo_or_shape().ok()
    }

    /// `(rows, cols)`.
    pub fn dims(&self) -> (usize, usize) {
        self.coo_or_shape().map_or_else(|(dims, _)| dims, |m| (m.nr, m.nc))
    }

    /// Stored-entry count. For DIA and ELL this counts occupied slots
    /// (structural nonzeros), not padding.
    pub fn nnz(&self) -> usize {
        self.coo_or_shape().map_or_else(|(_, nnz)| nnz, |m| m.val.len())
    }

    /// Short container label (`"coo"`, `"csr"`, …) for error messages.
    pub fn label(&self) -> &'static str {
        match self {
            MatrixRef::Coo(_) => "coo",
            MatrixRef::Csr(_) => "csr",
            MatrixRef::Csc(_) => "csc",
            MatrixRef::Dia(_) => "dia",
            MatrixRef::Ell(_) => "ell",
            MatrixRef::MortonCoo(_) => "mcoo",
        }
    }
}

/// An owned order-3 sparse tensor in any of the shipped containers.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyTensor {
    /// Coordinate storage (unordered or sorted).
    Coo3(Coo3Tensor),
    /// Morton-ordered coordinates.
    MortonCoo3(MortonCoo3Tensor),
}

impl AnyTensor {
    /// `(mode0, mode1, mode2)` extents.
    pub fn dims(&self) -> (usize, usize, usize) {
        self.as_ref().dims()
    }

    /// Stored-entry count.
    pub fn nnz(&self) -> usize {
        self.as_ref().nnz()
    }

    /// A borrowed view for dispatch without cloning.
    pub fn as_ref(&self) -> TensorRef<'_> {
        match self {
            AnyTensor::Coo3(t) => TensorRef::Coo3(t),
            AnyTensor::MortonCoo3(t) => TensorRef::MortonCoo3(t),
        }
    }

    /// Short container label for error messages.
    pub fn label(&self) -> &'static str {
        self.as_ref().label()
    }
}

/// A borrowed order-3 sparse tensor in any of the shipped containers.
#[derive(Debug, Clone, Copy)]
pub enum TensorRef<'a> {
    /// Coordinate storage.
    Coo3(&'a Coo3Tensor),
    /// Morton-ordered coordinates.
    MortonCoo3(&'a MortonCoo3Tensor),
}

impl<'a> TensorRef<'a> {
    /// The coordinate storage, which both containers share.
    pub fn coo3(self) -> &'a Coo3Tensor {
        match self {
            TensorRef::Coo3(t) | TensorRef::MortonCoo3(MortonCoo3Tensor { coo: t }) => t,
        }
    }

    /// `(mode0, mode1, mode2)` extents.
    pub fn dims(&self) -> (usize, usize, usize) {
        let t = self.coo3();
        (t.nr, t.nc, t.nz)
    }

    /// Stored-entry count.
    pub fn nnz(&self) -> usize {
        self.coo3().val.len()
    }

    /// Short container label for error messages.
    pub fn label(&self) -> &'static str {
        match self {
            TensorRef::Coo3(_) => "coo3",
            TensorRef::MortonCoo3(_) => "mcoo3",
        }
    }
}

macro_rules! impl_any_from {
    ($($enm:ident :: $var:ident ( $container:ty ), $refenm:ident;)+) => {$(
        impl From<$container> for $enm {
            fn from(m: $container) -> Self {
                $enm::$var(m)
            }
        }
        impl<'a> From<&'a $container> for $refenm<'a> {
            fn from(m: &'a $container) -> Self {
                $refenm::$var(m)
            }
        }
    )+};
}

impl_any_from! {
    AnyMatrix::Coo(CooMatrix), MatrixRef;
    AnyMatrix::Csr(CsrMatrix), MatrixRef;
    AnyMatrix::Csc(CscMatrix), MatrixRef;
    AnyMatrix::Dia(DiaMatrix), MatrixRef;
    AnyMatrix::Ell(EllMatrix), MatrixRef;
    AnyMatrix::MortonCoo(MortonCooMatrix), MatrixRef;
    AnyTensor::Coo3(Coo3Tensor), TensorRef;
    AnyTensor::MortonCoo3(MortonCoo3Tensor), TensorRef;
}

impl<'a> From<&'a AnyMatrix> for MatrixRef<'a> {
    fn from(m: &'a AnyMatrix) -> Self {
        m.as_ref()
    }
}

impl<'a> From<&'a AnyTensor> for TensorRef<'a> {
    fn from(t: &'a AnyTensor) -> Self {
        t.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ValidationError;

    fn sample_coo() -> CooMatrix {
        CooMatrix::from_triplets(3, 4, vec![0, 1, 2], vec![1, 0, 3], vec![1.0, 2.0, 3.0])
            .unwrap()
    }

    #[test]
    fn dims_and_nnz_agree_across_variants() -> Result<(), ValidationError> {
        let coo = sample_coo();
        let any = AnyMatrix::from(coo.clone());
        assert_eq!(any.dims(), (3, 4));
        assert_eq!(any.nnz(), 3);
        assert_eq!(any.label(), "coo");
        assert_eq!(MatrixRef::from(&coo).dims(), (3, 4));
        Ok(())
    }

    #[test]
    fn ell_nnz_ignores_padding() {
        let ell = EllMatrix::new(
            2,
            3,
            2,
            vec![0, 2, 1, -1],
            vec![1.0, 2.0, 3.0, 0.0],
        )
        .unwrap();
        let any = AnyMatrix::from(ell);
        assert_eq!(any.nnz(), 3);
    }

    #[test]
    fn tensor_roundtrip() {
        let t = Coo3Tensor::from_coords(
            (2, 2, 2),
            vec![0, 1],
            vec![1, 0],
            vec![0, 1],
            vec![1.0, 2.0],
        )
        .unwrap();
        let any = AnyTensor::from(t);
        assert_eq!(any.dims(), (2, 2, 2));
        assert_eq!(any.nnz(), 2);
        assert_eq!(any.label(), "coo3");
    }
}
