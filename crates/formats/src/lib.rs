//! # sparse-formats
//!
//! Sparse tensor formats for the CGO 2023 reproduction: the **format
//! descriptors** of Table 1 (sparse-to-dense maps, data access relations,
//! UF domains/ranges, and universal quantifiers — both monotonic and
//! reordering), plus the **runtime containers** those descriptors
//! describe, reference conversions (the oracles for synthesized code),
//! and per-format SpMV/TTV kernels. One checker, [`validate`], holds
//! every format invariant: container constructors, conversion outputs,
//! and untrusted engine inputs all go through it.
//!
//! ```
//! use sparse_formats::containers::{CooMatrix, CsrMatrix};
//! use sparse_formats::{descriptors, validate_matrix, InputCheck, MatrixRef};
//!
//! // The Table-1 descriptor for CSR:
//! let csr = descriptors::csr();
//! assert_eq!(csr.uf_names(), vec!["col2", "rowptr"]);
//! println!("{}", csr.table1_row());
//!
//! // And the runtime container it describes:
//! let coo = CooMatrix::from_triplets(
//!     2, 2, vec![0, 1], vec![1, 0], vec![1.0, 2.0]).unwrap();
//! let m = CsrMatrix::from_coo(&coo);
//! m.validate().unwrap();
//!
//! // The container's own check and the engine's input check are one
//! // checker: a decreasing `rowptr` is `pointer-monotone` either way.
//! let bad = CsrMatrix { rowptr: vec![0, 3, 2], ..m };
//! assert_eq!(bad.validate().unwrap_err().check, InputCheck::PointerMonotone);
//! let err = validate_matrix(&csr, MatrixRef::Csr(&bad)).unwrap_err();
//! assert_eq!(err.check, InputCheck::PointerMonotone);
//! ```

#![warn(missing_docs)]
// No panicking escape hatches in production code: every failure must
// surface as a typed error (tests may assert freely; see clippy.toml).
#![deny(clippy::unwrap_used)]
#![deny(clippy::expect_used)]
#![warn(rust_2018_idioms)]

pub mod containers;
pub mod descriptors;
pub mod validate;

pub use containers::{
    AnyMatrix, AnyTensor, Coo3Tensor, CooMatrix, Coords, CscMatrix, CsrMatrix, DenseMatrix,
    DiaMatrix, EllMatrix, MatrixRef, MortonCoo3Tensor, MortonCooMatrix, TensorRef,
};
pub use descriptors::{
    domain_alloc_size, range_max, FormatDescriptor, FormatKind, FormatSpec, ScanInfo,
    StructuralHasher,
};
pub use validate::{validate_coords, validate_matrix, validate_tensor, InputCheck, ValidationError};
