//! Runtime sparse containers: the concrete data structures the format
//! descriptors describe, with validation against the descriptor
//! invariants, reference conversions (the test oracles for synthesized
//! code), and per-format SpMV/TTV kernels.

pub mod any;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod dia;
pub mod ell;
pub mod mcoo;

pub use any::{AnyMatrix, AnyTensor, MatrixRef, TensorRef};
pub use coo::{Coo3Tensor, CooMatrix, Coords};
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use dia::DiaMatrix;
pub use ell::EllMatrix;
pub use mcoo::{MortonCoo3Tensor, MortonCooMatrix};
