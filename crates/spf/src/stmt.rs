//! Statements of the SPF intermediate representation.
//!
//! Mirroring the SPF-IR of the paper (COMPSAC'21), a statement couples an
//! executable *kernel* with an *iteration space* (a [`Set`]) and
//! read/write access information used by the dataflow transformations.
//! Setup kernels (allocations, list finalization, symbol assignment) have
//! an empty iteration space and run once.
//!
//! Kernels reference the tuple variables of their iteration space through
//! [`LinExpr`] variable ids (position `p` = tuple position `p`). A
//! multi-argument UF call inside a kernel expression denotes a rank lookup
//! in an `OrderedList` (the permutation `P(i, j)`); single-argument calls
//! are index-array reads.

use std::collections::BTreeSet;
use std::fmt;

use spf_ir::expr::{Atom, LinExpr};
use spf_ir::formula::Set;

/// Comparator specification for a list declaration, mirroring
/// [`spf_codegen::runtime::ListOrder`] but serializable/structural (the
/// actual closure for `Custom` is resolved from a registry at execution
/// time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListOrderSpec {
    /// Keep insertion order.
    Insertion,
    /// Lexicographic tuple order.
    Lexicographic,
    /// Morton / Z-order.
    Morton,
    /// Named user-defined comparator.
    Custom(String),
}

impl fmt::Display for ListOrderSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ListOrderSpec::Insertion => write!(f, "INSERTION"),
            ListOrderSpec::Lexicographic => write!(f, "LEX"),
            ListOrderSpec::Morton => write!(f, "MORTON"),
            ListOrderSpec::Custom(n) => write!(f, "{n}"),
        }
    }
}

/// The executable payload of a statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Kernel {
    /// `uf[idx] = value` per iteration.
    UfWrite {
        /// Destination index array.
        uf: String,
        /// Index expression over the iteration tuple.
        idx: LinExpr,
        /// Stored value expression.
        value: LinExpr,
    },
    /// `uf[idx] = min(uf[idx], value)` — synthesis Case 2.
    UfMin {
        /// Destination index array.
        uf: String,
        /// Index expression.
        idx: LinExpr,
        /// Candidate value.
        value: LinExpr,
    },
    /// `uf[idx] = max(uf[idx], value)` — synthesis Case 3.
    UfMax {
        /// Destination index array.
        uf: String,
        /// Index expression.
        idx: LinExpr,
        /// Candidate value.
        value: LinExpr,
    },
    /// `list.insert(args...)` per iteration — synthesis Cases 4/5.
    ListInsert {
        /// Destination ordered list.
        list: String,
        /// Key expressions.
        args: Vec<LinExpr>,
    },
    /// `y[y_idx] += a[a_idx] * x[x_idx]` per iteration — the
    /// multiply-accumulate of generated executors (SpMV and friends).
    DataAxpy {
        /// Accumulator data space.
        y: String,
        /// Accumulator index expression.
        y_idx: LinExpr,
        /// Matrix data space.
        a: String,
        /// Matrix data index expression.
        a_idx: LinExpr,
        /// Vector data space.
        x: String,
        /// Vector index expression.
        x_idx: LinExpr,
    },
    /// `dst[dst_idx] = src[src_idx]` per iteration — the copy operation.
    Copy {
        /// Destination data space.
        dst: String,
        /// Destination index expression.
        dst_idx: LinExpr,
        /// Source data space.
        src: String,
        /// Source index expression.
        src_idx: LinExpr,
    },
    /// Setup: allocate index array `uf` of `size` filled with `init`.
    UfAlloc {
        /// Array name.
        uf: String,
        /// Size expression (symbols only).
        size: LinExpr,
        /// Initial value expression.
        init: LinExpr,
    },
    /// Setup: allocate f64 data array of `size` zeros, where the size is
    /// a product of factor expressions (DIA allocates `ND * NR`).
    DataAlloc {
        /// Array name.
        arr: String,
        /// Product factors of the size (symbols only).
        size_factors: Vec<LinExpr>,
    },
    /// Setup: declare an ordered list before execution.
    ListDecl {
        /// List name.
        list: String,
        /// Key width.
        width: usize,
        /// Comparator.
        order: ListOrderSpec,
        /// Deduplicate equal keys at finalize.
        unique: bool,
    },
    /// Setup: declare a compaction counter. A loop nest whose iteration
    /// space binds `x = counter(...)` takes, at each binding, the number
    /// of earlier bindings in the same nest (`x = counter++`), whatever
    /// the arguments; every such nest starts the counter at zero, so
    /// nests over one space number its points alike.
    ///
    /// With a `bucket` count `n`, the counter is instead an array of
    /// `n + 1` zeroed slots, one cursor per bucket: the plan fills it
    /// (a histogram, then a prefix sum) before the binding nest, a
    /// binding `x = counter(b)` takes `counter[b]` and advances it
    /// (`counter[b] = x + 1`), and the nest does not reset it.
    CounterDecl {
        /// Counter name.
        counter: String,
        /// Number of buckets, when the counter has one cursor per bucket.
        bucket: Option<LinExpr>,
    },
    /// Setup: finalize (sort + index) a list.
    ListFinalize {
        /// List name.
        list: String,
    },
    /// Setup: materialize key column `dim` of a finalized list into `uf`.
    ListToUf {
        /// List name.
        list: String,
        /// Key column.
        dim: usize,
        /// Destination array.
        uf: String,
    },
    /// Setup: `sym = value` (symbols only).
    SymSet {
        /// Symbol name.
        sym: String,
        /// Value expression.
        value: LinExpr,
    },
    /// Setup: `sym = list.len()`.
    SymSetListLen {
        /// Symbol name.
        sym: String,
        /// Source list.
        list: String,
    },
}

impl Kernel {
    /// Returns `true` for setup kernels, which have no iteration space.
    pub fn is_setup(&self) -> bool {
        matches!(
            self,
            Kernel::UfAlloc { .. }
                | Kernel::DataAlloc { .. }
                | Kernel::ListDecl { .. }
                | Kernel::CounterDecl { .. }
                | Kernel::ListFinalize { .. }
                | Kernel::ListToUf { .. }
                | Kernel::SymSet { .. }
                | Kernel::SymSetListLen { .. }
        )
    }
}

fn collect_expr_names(e: &LinExpr, out: &mut BTreeSet<String>) {
    fn collect_atom(a: &Atom, out: &mut BTreeSet<String>) {
        match a {
            Atom::Var(_) => {}
            Atom::Sym(s) => {
                out.insert(s.clone());
            }
            Atom::Uf(u) => {
                out.insert(u.name.clone());
                for arg in &u.args {
                    collect_expr_names(arg, out);
                }
            }
            Atom::Prod(fs) => {
                for x in fs {
                    collect_atom(x, out);
                }
            }
        }
    }
    for (_, a) in &e.terms {
        collect_atom(a, out);
    }
}

/// A search binding: inside the loop nest, bind `var` to the position in
/// `uf[lo..hi)` whose value equals `target`, then run the kernel. This is
/// how DIA's diagonal lookup `off(d) = j - i` executes: linearly by
/// default (the paper's generated code "tries every iteration to find the
/// d"), or by binary search when the UF's monotonic universal quantifier
/// licenses it (the paper's Figure 3 optimization).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FindSpec {
    /// Name of the bound variable; it becomes an extra tuple position
    /// (after the iteration-space tuple) for kernel expressions.
    pub var: String,
    /// The searched index array.
    pub uf: String,
    /// Inclusive lower search bound (over symbols).
    pub lo: LinExpr,
    /// Exclusive upper search bound (over symbols).
    pub hi: LinExpr,
    /// Target value, over the iteration-space tuple.
    pub target: LinExpr,
    /// Use binary search (requires `uf` monotone increasing).
    pub binary: bool,
}

/// One SPF statement: kernel + iteration space + schedule position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    /// Human-readable label, e.g. `"populate col2"`.
    pub label: String,
    /// Executable payload.
    pub kernel: Kernel,
    /// Iteration space; `[]`-arity for setup kernels.
    pub iter_space: Set,
    /// Optional search binding appended to the iteration space.
    pub find: Option<FindSpec>,
    /// Fusion group: consecutive statements sharing a group id and an
    /// identical iteration space lower into one loop nest. Assigned by
    /// the fusion transformations; defaults to a unique id per statement.
    pub fuse_group: usize,
}

impl Stmt {
    /// Creates a statement in its own fusion group.
    pub fn new(label: impl Into<String>, kernel: Kernel, iter_space: Set) -> Self {
        Stmt {
            label: label.into(),
            kernel,
            iter_space,
            find: None,
            fuse_group: usize::MAX,
        }
    }

    /// Attaches a search binding (builder style).
    pub fn with_find(mut self, find: FindSpec) -> Self {
        self.find = Some(find);
        self
    }

    /// `true` when the iteration space binds a variable to `counter`, so
    /// the statement's nest numbers its points with it.
    pub fn binds_counter(&self, counter: &str) -> bool {
        self.iter_space
            .conjunctions()
            .iter()
            .any(|conj| conj.constraints.iter().any(|k| k.mentions_uf(counter)))
    }

    /// Names (UFs, data spaces, lists, symbols) this statement *reads*,
    /// including index arrays appearing in its iteration-space
    /// constraints.
    pub fn reads(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        match &self.kernel {
            Kernel::UfWrite { idx, value, .. }
            | Kernel::UfMin { uf: _, idx, value }
            | Kernel::UfMax { uf: _, idx, value } => {
                collect_expr_names(idx, &mut out);
                collect_expr_names(value, &mut out);
            }
            Kernel::ListInsert { args, .. } => {
                for a in args {
                    collect_expr_names(a, &mut out);
                }
            }
            Kernel::Copy { dst_idx, src, src_idx, .. } => {
                collect_expr_names(dst_idx, &mut out);
                collect_expr_names(src_idx, &mut out);
                out.insert(src.clone());
            }
            Kernel::DataAxpy { y, y_idx, a, a_idx, x, x_idx } => {
                collect_expr_names(y_idx, &mut out);
                collect_expr_names(a_idx, &mut out);
                collect_expr_names(x_idx, &mut out);
                out.insert(y.clone()); // accumulator is read-modify-write
                out.insert(a.clone());
                out.insert(x.clone());
            }
            Kernel::UfAlloc { size, init, .. } => {
                collect_expr_names(size, &mut out);
                collect_expr_names(init, &mut out);
            }
            Kernel::DataAlloc { size_factors, .. } => {
                for e in size_factors {
                    collect_expr_names(e, &mut out);
                }
            }
            Kernel::CounterDecl { bucket: Some(n), .. } => collect_expr_names(n, &mut out),
            Kernel::ListDecl { .. } | Kernel::CounterDecl { bucket: None, .. } => {}
            Kernel::ListFinalize { list } | Kernel::SymSetListLen { list, .. } => {
                out.insert(list.clone());
            }
            Kernel::ListToUf { list, .. } => {
                out.insert(list.clone());
            }
            Kernel::SymSet { value, .. } => collect_expr_names(value, &mut out),
        }
        // Index arrays and symbols in the iteration space are read when
        // scanning it.
        for conj in self.iter_space.conjunctions() {
            for c in &conj.constraints {
                collect_expr_names(c.expr(), &mut out);
            }
        }
        if let Some(f) = &self.find {
            out.insert(f.uf.clone());
            collect_expr_names(&f.lo, &mut out);
            collect_expr_names(&f.hi, &mut out);
            collect_expr_names(&f.target, &mut out);
        }
        out
    }

    /// Names this statement *writes*.
    pub fn writes(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        match &self.kernel {
            Kernel::UfWrite { uf, .. }
            | Kernel::UfMin { uf, .. }
            | Kernel::UfMax { uf, .. }
            | Kernel::UfAlloc { uf, .. }
            | Kernel::ListToUf { uf, .. } => {
                out.insert(uf.clone());
            }
            Kernel::ListInsert { list, .. }
            | Kernel::ListDecl { list, .. }
            | Kernel::ListFinalize { list } => {
                out.insert(list.clone());
            }
            Kernel::Copy { dst, .. } => {
                out.insert(dst.clone());
            }
            Kernel::DataAxpy { y, .. } => {
                out.insert(y.clone());
            }
            Kernel::DataAlloc { arr, .. } => {
                out.insert(arr.clone());
            }
            Kernel::SymSet { sym, .. }
            | Kernel::SymSetListLen { sym, .. }
            | Kernel::CounterDecl { counter: sym, .. } => {
                out.insert(sym.clone());
            }
        }
        out
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {:?} over {}", self.label, self.kernel, self.iter_space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_ir::expr::{UfCall, VarId};
    use spf_ir::parse_set;

    fn coo_space() -> Set {
        let mut s = parse_set(
            "{ [n, ii, jj] : ii = row1(n) && jj = col1(n) && 0 <= n < NNZ }",
        )
        .unwrap();
        s.simplify();
        s
    }

    #[test]
    fn reads_include_iteration_space_ufs() {
        let s = Stmt::new(
            "copy",
            Kernel::Copy {
                dst: "Acsr".into(),
                dst_idx: LinExpr::var(VarId(0)),
                src: "Acoo".into(),
                src_idx: LinExpr::var(VarId(0)),
            },
            coo_space(),
        );
        let reads = s.reads();
        assert!(reads.contains("Acoo"));
        assert!(reads.contains("row1"));
        assert!(reads.contains("col1"));
        assert!(reads.contains("NNZ"));
        assert_eq!(s.writes().into_iter().collect::<Vec<_>>(), vec!["Acsr"]);
    }

    #[test]
    fn nested_uf_reads_collected() {
        let s = Stmt::new(
            "perm write",
            Kernel::UfWrite {
                uf: "col2".into(),
                idx: LinExpr::uf(UfCall::new(
                    "P",
                    vec![
                        LinExpr::uf(UfCall::new("row1", vec![LinExpr::var(VarId(0))])),
                        LinExpr::uf(UfCall::new("col1", vec![LinExpr::var(VarId(0))])),
                    ],
                )),
                value: LinExpr::var(VarId(2)),
            },
            coo_space(),
        );
        let reads = s.reads();
        assert!(reads.contains("P"));
        assert!(reads.contains("row1"));
        assert!(reads.contains("col1"));
        assert!(s.writes().contains("col2"));
    }

    #[test]
    fn setup_kernels_have_no_iteration() {
        assert!(Kernel::ListFinalize { list: "P".into() }.is_setup());
        assert!(Kernel::SymSet { sym: "ND".into(), value: LinExpr::constant(1) }.is_setup());
        assert!(!Kernel::Copy {
            dst: "A".into(),
            dst_idx: LinExpr::zero(),
            src: "B".into(),
            src_idx: LinExpr::zero(),
        }
        .is_setup());
    }

    #[test]
    fn list_kernels_read_write_correctly() {
        let fin = Stmt::new(
            "fin",
            Kernel::ListFinalize { list: "P".into() },
            Set::universe(vec![]),
        );
        assert!(fin.reads().contains("P"));
        assert!(fin.writes().contains("P"));
        let to_uf = Stmt::new(
            "mat",
            Kernel::ListToUf { list: "L".into(), dim: 0, uf: "off".into() },
            Set::universe(vec![]),
        );
        assert!(to_uf.reads().contains("L"));
        assert!(to_uf.writes().contains("off"));
    }
}
