//! # sparse-synth
//!
//! A Rust reproduction of *"Code Synthesis for Sparse Tensor Format
//! Conversion and Optimization"* (CGO 2023): formal sparse tensor format
//! descriptors in the Sparse Polyhedral Framework, and automatic
//! synthesis of optimized conversion (inspector) code between them —
//! including formats with *reordering constraints* such as Morton-ordered
//! COO, which prior format abstractions cannot express.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`ir`] — sets/relations with uninterpreted functions (IEGenLib/Omega
//!   substrate)
//! * [`codegen`] — polyhedra scanning, C emission, and the interpreter
//! * [`spf`] — the SPF-IR: computations and composable transformations
//! * [`formats`] — Table-1 format descriptors and runtime containers
//! * [`synthesis`] — the paper's contribution: the synthesis algorithm
//! * [`baselines`] — TACO/SPARSKIT/MKL/HiCOO comparator models
//! * [`matgen`] — synthetic evaluation data (Tables 3 and 4 twins)
//! * [`obs`] — observability: stage spans, event ring, histograms,
//!   metrics exposition
//!
//! ## Quickstart
//!
//! ```
//! use sparse_synth::formats::{descriptors, AnyMatrix, CooMatrix};
//! use sparse_synth::synthesis::{Conversion, SynthesisOptions};
//!
//! // Synthesize sorted-COO -> CSR (the paper's headline conversion).
//! let conv = Conversion::new(
//!     &descriptors::scoo(),
//!     &descriptors::csr(),
//!     SynthesisOptions::default(),
//! ).unwrap();
//!
//! // The optimizer proved the permutation is the identity and removed it.
//! assert!(conv.synth.identity_eliminated);
//!
//! // Run it on a real matrix.
//! let coo = CooMatrix::from_triplets(
//!     2, 2, vec![0, 1], vec![1, 0], vec![1.0, 2.0]).unwrap();
//! let (out, _) = conv.run_matrix(&coo).unwrap();
//! let AnyMatrix::Csr(csr) = out else { panic!("expected CSR") };
//! assert_eq!(csr.rowptr, vec![0, 1, 2]);
//!
//! // Or inspect the synthesized C code.
//! println!("{}", conv.emit_c());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use sparse_baselines as baselines;
pub use sparse_engine as engine;
pub use sparse_formats as formats;
pub use sparse_matgen as matgen;
pub use sparse_obs as obs;
pub use sparse_synthesis as synthesis;
pub use spf_codegen as codegen;
pub use spf_computation as spf;
pub use spf_ir as ir;
