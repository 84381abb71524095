//! The loop AST produced by polyhedra scanning and executed by the
//! interpreter.
//!
//! Nodes carry both a human-readable variable name (used by the C emitter)
//! and a register *slot* (used by the interpreter), assigned by a
//! [`SlotAlloc`]. Statements are the operations the synthesis algorithm
//! needs to emit: index-array reads/writes, min/max updates used for
//! Case 2/3 constraints, `OrderedList` operations for reordering
//! quantifiers, data copies, and allocations.

use std::fmt;

/// Register slot in the interpreter's variable file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slot(pub u32);

/// Allocates register slots for loop variables, symbols, and temporaries.
#[derive(Debug, Default, Clone)]
pub struct SlotAlloc {
    names: Vec<String>,
}

impl SlotAlloc {
    /// Creates an empty allocator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a new slot for `name` (names may repeat; slots are
    /// unique).
    pub fn alloc(&mut self, name: impl Into<String>) -> Slot {
        let s = Slot(self.names.len() as u32);
        self.names.push(name.into());
        s
    }

    /// Returns the slot previously allocated for `name`, if any (latest
    /// allocation wins).
    pub fn lookup(&self, name: &str) -> Option<Slot> {
        self.names
            .iter()
            .rposition(|n| n == name)
            .map(|i| Slot(i as u32))
    }

    /// Name of a slot.
    pub fn name(&self, s: Slot) -> &str {
        &self.names[s.0 as usize]
    }

    /// Number of allocated slots.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` when no slots are allocated.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Scalar integer expressions evaluated by the interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Const(i64),
    /// Loop variable / temporary, by name and slot.
    Var(String, Slot),
    /// Symbolic constant (e.g. `NNZ`), resolved against the runtime
    /// environment; may be updated during execution via [`Stmt::SymSet`].
    Sym(String),
    /// Read of an index array: `uf[idx]`.
    UfRead {
        /// Array name.
        uf: String,
        /// Index expression.
        idx: Box<Expr>,
    },
    /// Rank lookup in an [`OrderedList`](crate::runtime::OrderedList):
    /// `P.rank(args...)` — the paper's permutation retrieval.
    ListRank {
        /// List name.
        list: String,
        /// Key expressions.
        args: Vec<Expr>,
    },
    /// Number of (unique) entries in an ordered list.
    ListLen(String),
    /// `a + b`.
    Add(Box<Expr>, Box<Expr>),
    /// `a - b`.
    Sub(Box<Expr>, Box<Expr>),
    /// `a * b`.
    Mul(Box<Expr>, Box<Expr>),
    /// `a / b` (Euclidean floor division).
    Div(Box<Expr>, Box<Expr>),
    /// `min(a, b)`.
    Min(Box<Expr>, Box<Expr>),
    /// `max(a, b)`.
    Max(Box<Expr>, Box<Expr>),
}

// The `add`/`sub`/`mul` constructors build AST nodes rather than perform
// arithmetic; operator traits would be misleading here.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Convenience constructor for binary nodes.
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Add(Box::new(a), Box::new(b))
    }

    /// `a - b`.
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Sub(Box::new(a), Box::new(b))
    }

    /// `a * b`.
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Mul(Box::new(a), Box::new(b))
    }

    /// `a / b` (floor division).
    pub fn div(a: Expr, b: Expr) -> Expr {
        Expr::Div(Box::new(a), Box::new(b))
    }

    /// `min(a, b)`.
    pub fn min(a: Expr, b: Expr) -> Expr {
        Expr::Min(Box::new(a), Box::new(b))
    }

    /// `max(a, b)`.
    pub fn max(a: Expr, b: Expr) -> Expr {
        Expr::Max(Box::new(a), Box::new(b))
    }

    /// Read `uf[idx]`.
    pub fn uf_read(uf: impl Into<String>, idx: Expr) -> Expr {
        Expr::UfRead { uf: uf.into(), idx: Box::new(idx) }
    }
}

/// Comparison operators for guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates the comparison on two integers.
    #[inline]
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// The C spelling.
    pub fn c_str(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A guard condition: conjunction of comparisons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cond {
    /// The conjuncts; the guard holds when all comparisons do.
    pub clauses: Vec<(Expr, CmpOp, Expr)>,
}

impl Cond {
    /// Single-comparison guard.
    pub fn cmp(lhs: Expr, op: CmpOp, rhs: Expr) -> Self {
        Cond { clauses: vec![(lhs, op, rhs)] }
    }
}

/// Statements of the generated inspector programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `for (var = lo; var < hi; var++) body`.
    For {
        /// Loop variable name (for display).
        var: String,
        /// Loop variable slot.
        slot: Slot,
        /// Inclusive lower bound.
        lo: Expr,
        /// Exclusive upper bound.
        hi: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `var = value;` — a scalar binding such as `j = col[k]`.
    Let {
        /// Variable name.
        var: String,
        /// Variable slot.
        slot: Slot,
        /// Bound value.
        value: Expr,
    },
    /// `if (cond) body`.
    If {
        /// Guard condition.
        cond: Cond,
        /// Guarded statements.
        body: Vec<Stmt>,
    },
    /// Binary search for `var` in `[lo, hi)` such that
    /// `key(var) == target`, executing `body` with `var` bound on success.
    /// Requires `key` to be non-decreasing in `var` — guaranteed by a
    /// monotonic universal quantifier (the paper's Figure 3 optimization).
    FindBinary {
        /// Search variable name.
        var: String,
        /// Search variable slot.
        slot: Slot,
        /// Inclusive lower bound of the search range.
        lo: Expr,
        /// Exclusive upper bound of the search range.
        hi: Expr,
        /// Monotone key; must mention `var`.
        key: Box<Expr>,
        /// Value to find.
        target: Box<Expr>,
        /// Statements executed when the key is found.
        body: Vec<Stmt>,
    },
    /// `uf[idx] = value;`
    UfWrite {
        /// Array name.
        uf: String,
        /// Index expression.
        idx: Expr,
        /// Stored value.
        value: Expr,
    },
    /// `uf[idx] = min(uf[idx], value);` — Case 2 of the synthesis
    /// algorithm.
    UfMin {
        /// Array name.
        uf: String,
        /// Index expression.
        idx: Expr,
        /// Candidate value.
        value: Expr,
    },
    /// `uf[idx] = max(uf[idx], value);` — Case 3 of the synthesis
    /// algorithm.
    UfMax {
        /// Array name.
        uf: String,
        /// Index expression.
        idx: Expr,
        /// Candidate value.
        value: Expr,
    },
    /// Allocate (or reallocate) integer array `uf` with `size` elements
    /// initialized to `init`.
    UfAlloc {
        /// Array name.
        uf: String,
        /// Element count.
        size: Expr,
        /// Fill value.
        init: Expr,
    },
    /// Allocate (or reallocate) data array `arr` with `size` zeros.
    DataAlloc {
        /// Array name.
        arr: String,
        /// Element count.
        size: Expr,
    },
    /// `list.insert(args...)` — the paper's `OrderedList` insertion.
    ListInsert {
        /// List name.
        list: String,
        /// Key expressions.
        args: Vec<Expr>,
    },
    /// Finalize an ordered list: sort by its comparator (deduplicating
    /// when the list was declared unique) and build the rank index.
    ListFinalize {
        /// List name.
        list: String,
    },
    /// Materialize column `dim` of the finalized list into array `uf`
    /// (e.g. DIA's sorted `off` array).
    ListToUf {
        /// List name.
        list: String,
        /// Key column to copy.
        dim: usize,
        /// Destination array.
        uf: String,
    },
    /// `sym = value;` — set a symbolic constant at run time
    /// (e.g. `ND = off_list.len()`).
    SymSet {
        /// Symbol name.
        sym: String,
        /// New value.
        value: Expr,
    },
    /// `y[y_idx] += a[a_idx] * x[x_idx];` on the f64 data arrays — the
    /// multiply-accumulate used by generated *executors* such as SpMV.
    DataAxpy {
        /// Accumulator array.
        y: String,
        /// Accumulator index.
        y_idx: Expr,
        /// Matrix data array.
        a: String,
        /// Matrix data index.
        a_idx: Expr,
        /// Input vector array.
        x: String,
        /// Input vector index.
        x_idx: Expr,
    },
    /// `dst[dst_idx] = src[src_idx];` on the f64 data arrays — the
    /// synthesis copy operation.
    Copy {
        /// Destination data space.
        dst: String,
        /// Destination index.
        dst_idx: Expr,
        /// Source data space.
        src: String,
        /// Source index.
        src_idx: Expr,
    },
    /// A comment carried through to the C emitter.
    Comment(String),
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Var(name, _) => write!(f, "{name}"),
            Expr::Sym(s) => write!(f, "{s}"),
            Expr::UfRead { uf, idx } => write!(f, "{uf}[{idx}]"),
            Expr::ListRank { list, args } => {
                write!(f, "{list}.rank(")?;
                for (k, a) in args.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::ListLen(l) => write!(f, "{l}.size()"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Div(a, b) => write!(f, "({a} / {b})"),
            Expr::Min(a, b) => write!(f, "MIN({a}, {b})"),
            Expr::Max(a, b) => write!(f, "MAX({a}, {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_alloc_latest_wins() {
        let mut a = SlotAlloc::new();
        let s0 = a.alloc("i");
        let s1 = a.alloc("j");
        let s2 = a.alloc("i"); // shadowing
        assert_eq!(a.lookup("i"), Some(s2));
        assert_eq!(a.lookup("j"), Some(s1));
        assert_eq!(a.name(s0), "i");
        assert_eq!(a.len(), 3);
        assert!(a.lookup("zz").is_none());
    }

    #[test]
    fn expr_display() {
        let mut a = SlotAlloc::new();
        let i = a.alloc("i");
        let e = Expr::add(
            Expr::uf_read("rowptr", Expr::Var("i".into(), i)),
            Expr::Const(1),
        );
        assert_eq!(e.to_string(), "(rowptr[i] + 1)");
        let m = Expr::min(Expr::Sym("NNZ".into()), Expr::Const(0));
        assert_eq!(m.to_string(), "MIN(NNZ, 0)");
    }

    #[test]
    fn cmp_op_eval() {
        assert!(CmpOp::Eq.eval(3, 3));
        assert!(CmpOp::Ne.eval(3, 4));
        assert!(CmpOp::Lt.eval(3, 4));
        assert!(CmpOp::Le.eval(3, 3));
        assert!(CmpOp::Gt.eval(4, 3));
        assert!(CmpOp::Ge.eval(4, 4));
        assert!(!CmpOp::Lt.eval(4, 3));
    }
}
