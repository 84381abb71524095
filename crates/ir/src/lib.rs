//! # spf-ir-sets
//!
//! Presburger sets and relations with **uninterpreted functions** — the
//! mathematical substrate of the Sparse Polyhedral Framework (SPF) used by
//! *"Code Synthesis for Sparse Tensor Format Conversion and Optimization"*
//! (CGO 2023). This crate plays the role of IEGenLib and the Omega library
//! in the paper's toolchain.
//!
//! The pieces:
//!
//! * [`expr`] — integer-linear expressions over tuple variables, symbolic
//!   constants, and UF calls such as `rowptr(i + 1)`.
//! * [`constraint`] — (in)equality constraints in homogeneous form with
//!   integer-exact normalization.
//! * [`formula`] — [`Set`] and [`Relation`] as unions of conjunctions, with
//!   [`Relation::inverse`], [`Relation::compose`] and simplification
//!   (existential elimination through equalities).
//! * [`parser`] — the IEGenLib-style surface syntax,
//!   e.g. `{[n,ii,jj] -> [i,j] : row1(n) = i && col1(n) = j}`.
//! * [`uf`] — UF signatures: domain, range, monotonicity.
//! * [`order`] — order keys: the semantics of reordering universal
//!   quantifiers (lexicographic / Morton / user-defined comparators).
//!
//! ## Example
//!
//! ```
//! use spf_ir::{parse_relation, parse_set};
//!
//! // The sparse-to-dense map of COO (Table 1 of the paper):
//! let coo = parse_relation(
//!     "{ [n, ii, jj] -> [i, j] : row1(n) = i && col1(n) = j && ii = i && jj = j \
//!        && 0 <= i < NR && 0 <= j < NC && 0 <= n < NNZ }",
//! ).unwrap();
//!
//! // Invert it and compose with itself: the identity conversion.
//! let mut id = coo.inverse().compose(&coo);
//! id.simplify();
//! assert_eq!(id.in_arity(), 3);
//! assert_eq!(id.out_arity(), 3);
//!
//! let dense = parse_set("{ [i, j] : 0 <= i < NR && 0 <= j < NC }").unwrap();
//! assert_eq!(dense.arity(), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod constraint;
pub mod expr;
pub mod formula;
pub mod order;
pub mod parser;
pub mod uf;

pub use constraint::Constraint;
pub use expr::{Atom, LinExpr, UfCall, VarId};
pub use formula::{Conjunction, Relation, Set};
pub use order::{Comparator, KeyDim, OrderKey};
pub use parser::{parse_relation, parse_set, ParseError};
pub use uf::{Monotonicity, UfEnvironment, UfSignature};
