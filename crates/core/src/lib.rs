//! # sparse-synthesis
//!
//! The primary contribution of *"Code Synthesis for Sparse Tensor Format
//! Conversion and Optimization"* (CGO 2023): automatic synthesis of
//! *inspector* code that converts a sparse tensor from one format to
//! another, driven entirely by format descriptors in the sparse
//! polyhedral framework.
//!
//! The pipeline:
//!
//! 1. [`analysis`] classifies the destination descriptor's constraints
//!    into the paper's Cases 1–5 (reproducing Table 2),
//! 2. [`synthesize()`](synthesize::synthesize) builds the naive SPF loop
//!    chain — permutation
//!    insertion, unknown-UF population, universal-quantifier enforcement,
//!    copy — then optimizes it (redundancy removal, identity-permutation
//!    elimination + dead-code elimination or a compaction counter, loop
//!    fusion; Case-5 memberships through a direct map, or the linear and
//!    Figure 3 binary searches),
//! 3. [`run`] executes the compiled inspector on real containers.
//!
//! ```
//! use sparse_formats::{descriptors, AnyMatrix, CooMatrix, CsrMatrix};
//! use sparse_synthesis::{Conversion, SynthesisOptions};
//!
//! // The paper's headline experiment: sorted COO -> CSR.
//! let conv = Conversion::new(
//!     &descriptors::scoo(),
//!     &descriptors::csr(),
//!     SynthesisOptions::default(),
//! ).unwrap();
//!
//! // The permutation was proved identity and eliminated (the 2.85x story).
//! assert!(conv.synth.identity_eliminated);
//!
//! let coo = CooMatrix::from_triplets(
//!     3, 3, vec![0, 0, 2], vec![0, 2, 1], vec![1.0, 2.0, 3.0]).unwrap();
//! let (csr, _stats) = conv.run_matrix(&coo).unwrap();
//! assert_eq!(csr, AnyMatrix::from(CsrMatrix::from_coo(&coo)));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod executor;
pub mod kernels;
pub mod run;
pub mod synthesize;

pub use analysis::{analyze_destination, AnalysisError, DstAnalysis, DstVarKind};
pub use executor::{spmv, ttv_mode2};
pub use kernels::{KernelRegistry, MatrixKernelFn, TensorKernelFn};
pub use run::{
    bind_matrix, bind_tensor, extract_matrix, extract_tensor, Conversion, Operand, RunError,
};
pub use synthesize::{
    synthesize, Membership, PermutationKind, SynthesisError, SynthesisOptions,
    SynthesizedConversion, LIST_PREFIX, PERM_NAME,
};
