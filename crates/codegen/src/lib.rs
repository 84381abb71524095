//! # spf-codegen
//!
//! Code generation and execution for the Sparse Polyhedral Framework: the
//! CodeGen+ role in the toolchain of *"Code Synthesis for Sparse Tensor
//! Format Conversion and Optimization"* (CGO 2023).
//!
//! * [`scan`] lowers iteration [`Set`](spf_ir::Set)s — including
//!   UF-bounded loops like `rowptr(i) <= k < rowptr(i+1)` and unsolvable
//!   membership guards like DIA's `off(d) + i = j` — to a loop [`ast`].
//! * [`cemit`] prints the AST as C (the paper's output language).
//! * [`interp`] compiles the AST to a register-resolved program and
//!   executes it in-process against a [`runtime::RtEnv`], making
//!   synthesized inspectors directly benchmarkable.
//! * [`runtime`] provides the environment plus the paper's `OrderedList`
//!   permutation abstraction and [`morton`] ordering.
//!
//! ## Example: scan a CSR iteration space
//!
//! ```
//! use spf_codegen::ast::{Expr, SlotAlloc, Stmt};
//! use spf_codegen::interp::{compile, execute};
//! use spf_codegen::runtime::RtEnv;
//! use spf_codegen::scan::lower_set;
//! use spf_ir::parse_set;
//!
//! let mut space = parse_set(
//!     "{ [i, k, j] : 0 <= i < NR && rowptr(i) <= k < rowptr(i + 1) && j = col(k) }",
//! ).unwrap();
//! space.simplify();
//!
//! let mut slots = SlotAlloc::new();
//! let stmts = lower_set(&space, &mut slots, |vars| {
//!     vec![Stmt::UfMax {
//!         uf: "maxcol".into(),
//!         idx: Expr::Const(0),
//!         value: vars.expr(2), // j
//!     }]
//! }).unwrap();
//!
//! let prog = compile(&stmts, &slots);
//! let mut env = RtEnv::new()
//!     .with_sym("NR", 2)
//!     .with_uf("rowptr", vec![0, 2, 3])
//!     .with_uf("col", vec![4, 7, 1])
//!     .with_uf("maxcol", vec![-1]);
//! execute(&prog, &mut env).unwrap();
//! assert_eq!(env.ufs["maxcol"], vec![7]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod cemit;
pub mod cruntime;
pub mod interp;
pub mod kernels;
pub mod morton;
pub mod runtime;
pub mod scan;

pub use ast::{CmpOp, Cond, Expr, Slot, SlotAlloc, Stmt};
pub use cemit::{emit_c99_block, emit_c_function, Dialect, C_PRELUDE};
pub use cruntime::C_ORDERED_LIST_RUNTIME;
pub use interp::{
    compile, execute, execute_quiet, reserve, ExecError, ExecStats, LoopCounts, Program,
};
pub use morton::{morton_cmp, morton_encode};
pub use runtime::{ListError, ListOrder, OrderedList, RtEnv};
pub use scan::{lower_set, LoweredVars, ScanError};
