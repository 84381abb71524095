//! # spf-computation
//!
//! The SPF intermediate representation (SPF-IR) from *"An Object-Oriented
//! Interface to The Sparse Polyhedral Library"* (COMPSAC'21), as used by
//! *"Code Synthesis for Sparse Tensor Format Conversion and Optimization"*
//! (CGO 2023): computations made of statements with iteration spaces and
//! schedules, composable transformations (redundancy removal, dead-code
//! elimination, loop fusion), C code generation, and direct
//! in-process execution.
//!
//! ```
//! use spf_computation::{Computation, Kernel, Stmt};
//! use spf_computation::computation::ComparatorRegistry;
//! use spf_codegen::runtime::RtEnv;
//! use spf_ir::{parse_set, LinExpr, VarId};
//!
//! // for (n = 0; n < NNZ; n++) out[n] = 2 * n;
//! let mut space = parse_set("{ [n] : 0 <= n < NNZ }").unwrap();
//! space.simplify();
//! let mut comp = Computation::new();
//! comp.add_stmt(Stmt::new(
//!     "double",
//!     Kernel::UfWrite {
//!         uf: "out".into(),
//!         idx: LinExpr::var(VarId(0)),
//!         value: LinExpr::var(VarId(0)).scaled(2),
//!     },
//!     space,
//! ));
//! let compiled = comp.lower().unwrap();
//! let mut env = RtEnv::new().with_sym("NNZ", 4).with_uf("out", vec![0; 4]);
//! compiled.execute(&mut env, &ComparatorRegistry::new()).unwrap();
//! assert_eq!(env.ufs["out"], vec![0, 2, 4, 6]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod computation;
pub mod graph;
pub mod stmt;
pub mod transform;

pub use computation::{Compiled, ComparatorRegistry, Computation, LowerError};
pub use stmt::{FindSpec, Kernel, ListOrderSpec, Stmt};
pub use graph::to_dot;
pub use transform::{dead_code_elimination, fuse_loops, optimize, remove_redundant};
