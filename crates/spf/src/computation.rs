//! The SPF-IR `Computation`: an ordered list of statements with lowering
//! to the loop AST, C emission, and in-process execution.
//!
//! Statements in the same *fusion group* with identical iteration spaces
//! lower into a single loop nest (their kernels concatenated in statement
//! order); everything else lowers to its own nest, in statement order.
//! This realizes the execution schedules of the paper's SPF-IR for the
//! schedule shapes format conversion produces (sequences of possibly-fused
//! loop chains).

use std::cmp::Ordering as CmpOrdering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use spf_codegen::ast::{CmpOp, Cond, Expr, SlotAlloc, Stmt as AStmt};
use spf_codegen::cemit::emit_c_function;
use spf_codegen::interp::{compile, execute, execute_quiet, ExecError, ExecStats, Program};
use spf_codegen::runtime::{ListOrder, OrderedList, RtEnv};
use spf_codegen::scan::{lin_to_expr, lower_set, LoweredVars, ScanError};
use spf_ir::expr::{LinExpr, VarId};

use crate::stmt::{Kernel, ListOrderSpec, Stmt};

/// Errors raised while lowering a computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// A loop kernel was attached to an empty iteration space or vice
    /// versa.
    ArityMismatch {
        /// The statement's label.
        label: String,
    },
    /// Statements in one fusion group have different iteration spaces.
    GroupSpaceMismatch {
        /// The offending statement's label.
        label: String,
    },
    /// Scanning the iteration space failed.
    Scan(ScanError),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::ArityMismatch { label } => {
                write!(f, "statement `{label}`: kernel/iteration-space arity mismatch")
            }
            LowerError::GroupSpaceMismatch { label } => {
                write!(f, "statement `{label}`: fusion group mixes iteration spaces")
            }
            LowerError::Scan(e) => write!(f, "scan error: {e}"),
        }
    }
}

impl std::error::Error for LowerError {}

impl From<ScanError> for LowerError {
    fn from(e: ScanError) -> Self {
        LowerError::Scan(e)
    }
}

/// Registry of user-defined comparison functions, resolved when a
/// computation declares `ListOrderSpec::Custom(name)`. The paper requires
/// full definitions for functions appearing only in universal quantifiers;
/// this registry is where those definitions live at run time.
pub type ComparatorRegistry =
    BTreeMap<String, Arc<dyn Fn(&[i64], &[i64]) -> CmpOrdering + Send + Sync>>;

/// An SPF computation: ordered statements plus the set of live-out data
/// spaces used by dead-code elimination.
#[derive(Debug, Clone, Default)]
pub struct Computation {
    /// Statements in execution order.
    pub stmts: Vec<Stmt>,
    /// Names that must survive dead-code elimination (the destination
    /// format's UFs, data arrays, and symbols).
    pub live_out: BTreeSet<String>,
}

/// A lowered computation ready to run: compiled program plus the list
/// declarations the runtime environment needs.
pub struct Compiled {
    program: Program,
    ast: Vec<AStmt>,
    list_decls: Vec<(String, usize, ListOrderSpec, bool)>,
}

impl Compiled {
    /// The compiled interpreter program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The lowered loop AST (for inspection or C emission).
    pub fn ast(&self) -> &[AStmt] {
        &self.ast
    }

    /// Emits the computation as a C function (the paper's listing style).
    pub fn emit_c(&self, name: &str) -> String {
        emit_c_function(name, &self.ast)
    }

    /// Emits a complete, compilable C99 translation unit: the prelude,
    /// the `OrderedList` runtime, global declarations for every symbol,
    /// index array, data array, and list the program references, and the
    /// inspector function (list initializations first, then the lowered
    /// body). Custom comparators become `extern` functions named after
    /// the universal quantifier's user-defined function.
    pub fn emit_c_program(&self, name: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str(spf_codegen::cemit::C_PRELUDE);
        out.push_str(spf_codegen::cruntime::C_ORDERED_LIST_RUNTIME);
        out.push('\n');
        for sym in self.program.sym_names() {
            let _ = writeln!(out, "int {sym};");
        }
        for uf in self.program.uf_names() {
            let _ = writeln!(out, "int *{uf};");
        }
        for data in self.program.data_names() {
            let _ = writeln!(out, "double *{data};");
        }
        for list in self.program.list_names() {
            let _ = writeln!(out, "OrderedList {list};");
        }
        for (_, _, order, _) in &self.list_decls {
            if let ListOrderSpec::Custom(f) = order {
                let _ = writeln!(
                    out,
                    "extern int {f}(const int *a, const int *b, int width);"
                );
            }
        }
        let _ = writeln!(out, "\nvoid {name}(void) {{");
        for (list, width, order, unique) in &self.list_decls {
            let cmp = match order {
                ListOrderSpec::Insertion => "0".to_string(),
                ListOrderSpec::Lexicographic => "ol_cmp_lex".to_string(),
                ListOrderSpec::Morton => "ol_cmp_morton".to_string(),
                ListOrderSpec::Custom(f) => f.clone(),
            };
            let _ = writeln!(
                out,
                "  ol_init(&{list}, {width}, {cmp}, {});",
                i32::from(*unique)
            );
        }
        out.push_str(&spf_codegen::cemit::emit_c99_block(&self.ast, 1));
        out.push_str("}\n");
        out
    }

    fn declare_lists(
        &self,
        env: &mut RtEnv<'_>,
        comparators: &ComparatorRegistry,
    ) -> Result<(), ExecError> {
        for (name, width, order, unique) in &self.list_decls {
            let order = match order {
                ListOrderSpec::Insertion => ListOrder::Insertion,
                ListOrderSpec::Lexicographic => ListOrder::Lexicographic,
                ListOrderSpec::Morton => ListOrder::Morton,
                ListOrderSpec::Custom(f) => ListOrder::Custom(
                    comparators
                        .get(f)
                        .cloned()
                        .ok_or_else(|| ExecError::UnboundList(format!("comparator {f}")))?,
                ),
            };
            env.lists
                .insert(name.clone(), OrderedList::new(*width, order, *unique));
        }
        Ok(())
    }

    /// Executes against `env`, declaring any ordered lists first.
    ///
    /// # Errors
    /// Fails when a custom comparator is missing from `comparators` or
    /// execution itself errors.
    pub fn execute(
        &self,
        env: &mut RtEnv<'_>,
        comparators: &ComparatorRegistry,
    ) -> Result<ExecStats, ExecError> {
        self.declare_lists(env, comparators)?;
        execute(&self.program, env)
    }

    /// Executes like [`Compiled::execute`] but with [`ExecStats`] counting
    /// compiled out — the hot-path variant for callers that never read the
    /// counters (release benchmarks, the conversion engine).
    ///
    /// # Errors
    /// Fails when a custom comparator is missing from `comparators` or
    /// execution itself errors.
    pub fn execute_quiet(
        &self,
        env: &mut RtEnv<'_>,
        comparators: &ComparatorRegistry,
    ) -> Result<(), ExecError> {
        self.declare_lists(env, comparators)?;
        execute_quiet(&self.program, env)
    }
}

impl Computation {
    /// Creates an empty computation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a statement (kept in its own fusion group until a fusion
    /// pass runs).
    pub fn add_stmt(&mut self, stmt: Stmt) {
        self.stmts.push(stmt);
    }

    /// Marks a name as live-out.
    pub fn mark_live(&mut self, name: impl Into<String>) {
        self.live_out.insert(name.into());
    }

    /// Names of the compaction counters the computation declares.
    pub fn counters(&self) -> impl Iterator<Item = &str> {
        self.stmts.iter().filter_map(|s| match &s.kernel {
            Kernel::CounterDecl { counter, .. } => Some(counter.as_str()),
            _ => None,
        })
    }

    /// The bucket count of `counter`, when it is a bucketed counter.
    pub fn counter_bucket(&self, counter: &str) -> Option<&LinExpr> {
        self.stmts.iter().find_map(|s| match &s.kernel {
            Kernel::CounterDecl { counter: c, bucket: Some(n) } if c == counter => Some(n),
            _ => None,
        })
    }

    /// Assigns unique fusion groups to statements that have none.
    pub fn normalize_groups(&mut self) {
        // usize::MAX means "unassigned"; give each its own group id above
        // any assigned one.
        let mut next = self
            .stmts
            .iter()
            .map(|s| s.fuse_group)
            .filter(|&g| g != usize::MAX)
            .max()
            .map_or(0, |g| g + 1);
        for s in &mut self.stmts {
            if s.fuse_group == usize::MAX {
                s.fuse_group = next;
                next += 1;
            }
        }
    }

    /// Lowers to the loop AST and compiles for execution.
    ///
    /// # Errors
    /// Returns a [`LowerError`] for malformed statements or unscannable
    /// iteration spaces.
    pub fn lower(&self) -> Result<Compiled, LowerError> {
        let mut me = self.clone();
        me.normalize_groups();
        let mut slots = SlotAlloc::new();
        let mut ast: Vec<AStmt> = Vec::new();
        let mut list_decls = Vec::new();
        let counters: Vec<&str> = self.counters().collect();

        let mut i = 0;
        while i < me.stmts.len() {
            let s = &me.stmts[i];
            if s.kernel.is_setup() {
                if s.iter_space.arity() != 0 {
                    return Err(LowerError::ArityMismatch { label: s.label.clone() });
                }
                if let Kernel::ListDecl { list, width, order, unique } = &s.kernel {
                    list_decls.push((list.clone(), *width, order.clone(), *unique));
                    ast.push(AStmt::Comment(format!(
                        "{list} = new OrderedList({width}, {order}, unique={unique})"
                    )));
                } else if let Kernel::CounterDecl { counter, bucket } = &s.kernel {
                    ast.push(AStmt::Comment(format!("{counter} = compaction counter")));
                    if let Some(n) = bucket {
                        // One cursor per bucket, plus the end of the last.
                        let (uf, init) = (counter.clone(), Expr::Const(0));
                        let size = Expr::add(sexpr(n)?, Expr::Const(1));
                        ast.push(AStmt::UfAlloc { uf, size, init });
                    }
                } else {
                    ast.push(setup_to_ast(&s.kernel)?);
                }
                i += 1;
                continue;
            }
            // Collect the fusion group: consecutive same-group loop stmts.
            // Statements with a search binding lower alone.
            let group = s.fuse_group;
            let space = s.iter_space.clone();
            let has_find = s.find.is_some();
            let mut members = vec![i];
            let mut j = i + 1;
            while !has_find
                && j < me.stmts.len()
                && me.stmts[j].fuse_group == group
                && !me.stmts[j].kernel.is_setup()
                && me.stmts[j].find.is_none()
            {
                if me.stmts[j].iter_space != space {
                    return Err(LowerError::GroupSpaceMismatch {
                        label: me.stmts[j].label.clone(),
                    });
                }
                members.push(j);
                j += 1;
            }
            let kernels: Vec<&Kernel> = members.iter().map(|&m| &me.stmts[m].kernel).collect();
            let labels: Vec<&str> =
                members.iter().map(|&m| me.stmts[m].label.as_str()).collect();
            let find = me.stmts[i].find.clone();
            let find_slot = find.as_ref().map(|f| slots.alloc(f.var.clone()));
            let mut err: Option<LowerError> = None;
            let mut lowered = lower_set(&space, &mut slots, |vars| {
                // With a search binding, kernel expressions see the find
                // variable as one extra tuple position.
                let mut kvars = vars.clone();
                if let (Some(f), Some(slot)) = (&find, find_slot) {
                    kvars.vars.push((f.var.clone(), slot));
                }
                let mut body = Vec::new();
                for (k, kernel) in kernels.iter().enumerate() {
                    body.push(AStmt::Comment(labels[k].to_string()));
                    match loop_kernel_to_ast(kernel, &kvars) {
                        Ok(s) => body.push(s),
                        Err(e) => err = Some(e),
                    }
                }
                let Some(f) = &find else { return body };
                let slot = find_slot.expect("find slot allocated");
                let (lo, hi, target) =
                    match (kexpr(&f.lo, vars), kexpr(&f.hi, vars), kexpr(&f.target, vars)) {
                        (Ok(a), Ok(b), Ok(c)) => (a, b, c),
                        (Err(e), ..) | (_, Err(e), _) | (.., Err(e)) => {
                            err = Some(LowerError::Scan(e));
                            return body;
                        }
                    };
                let key = Expr::uf_read(f.uf.clone(), Expr::Var(f.var.clone(), slot));
                if f.binary {
                    vec![AStmt::FindBinary {
                        var: f.var.clone(),
                        slot,
                        lo,
                        hi,
                        key: Box::new(key),
                        target: Box::new(target),
                        body,
                    }]
                } else {
                    // The paper's linear search: scan every candidate and
                    // guard on the membership equation (no early exit).
                    vec![AStmt::For {
                        var: f.var.clone(),
                        slot,
                        lo,
                        hi,
                        body: vec![AStmt::If {
                            cond: Cond::cmp(key, CmpOp::Eq, target),
                            body,
                        }],
                    }]
                }
            })?;
            if let Some(e) = err {
                return Err(e);
            }
            // Counters are bound by the nest's iteration space; a bucketed
            // counter keeps the cursors the plan filled in.
            for &c in &counters {
                if me.stmts[i].binds_counter(c) {
                    let bucketed = self.counter_bucket(c).is_some();
                    if !bucketed {
                        ast.push(AStmt::SymSet { sym: c.into(), value: Expr::Const(0) });
                    }
                    count_bindings(&mut lowered, c, bucketed);
                }
            }
            ast.extend(lowered);
            i = j;
        }
        let program = compile(&ast, &slots);
        Ok(Compiled { program, ast, list_decls })
    }

    /// Convenience: lower and emit C.
    ///
    /// # Errors
    /// Propagates [`LowerError`].
    pub fn codegen(&self, fn_name: &str) -> Result<String, LowerError> {
        Ok(self.lower()?.emit_c(fn_name))
    }
}

/// Rewrites every binding `x = counter(...)` in `stmts` into
/// `x = counter; counter = x + 1`, or, for a bucketed counter's
/// `x = counter[b]`, into `x = counter[b]; counter[b] = x + 1`.
fn count_bindings(stmts: &mut Vec<AStmt>, counter: &str, bucketed: bool) {
    let mut k = 0;
    while k < stmts.len() {
        match &mut stmts[k] {
            AStmt::Let { var, slot, value } => {
                let next = Expr::add(Expr::Var(var.clone(), *slot), Expr::Const(1));
                let advance = match value {
                    Expr::UfRead { uf, idx } if uf == counter && bucketed => {
                        Some(AStmt::UfWrite { uf: uf.clone(), idx: (**idx).clone(), value: next })
                    }
                    Expr::UfRead { uf: name, .. } | Expr::ListRank { list: name, .. }
                        if name == counter && !bucketed =>
                    {
                        *value = Expr::Sym(counter.into());
                        Some(AStmt::SymSet { sym: counter.into(), value: next })
                    }
                    _ => None,
                };
                if let Some(advance) = advance {
                    stmts.insert(k + 1, advance);
                    k += 1;
                }
            }
            AStmt::For { body, .. } | AStmt::If { body, .. } | AStmt::FindBinary { body, .. } => {
                count_bindings(body, counter, bucketed);
            }
            _ => {}
        }
        k += 1;
    }
}

/// Converts a kernel expression (variables = tuple positions) to an AST
/// expression.
fn kexpr(e: &LinExpr, vars: &LoweredVars) -> Result<Expr, ScanError> {
    lin_to_expr(e, &|v: VarId| vars.expr(v.index()))
}

/// Converts a setup-kernel expression, which must not mention tuple
/// variables.
fn sexpr(e: &LinExpr) -> Result<Expr, LowerError> {
    lin_to_expr(e, &|_v: VarId| {
        // Setup expressions are over symbols only; a variable here is a
        // synthesis bug surfaced as an unbound placeholder name.
        Expr::Sym("__setup_var__".into())
    })
    .map_err(LowerError::Scan)
}

fn setup_to_ast(k: &Kernel) -> Result<AStmt, LowerError> {
    Ok(match k {
        Kernel::UfAlloc { uf, size, init } => AStmt::UfAlloc {
            uf: uf.clone(),
            size: sexpr(size)?,
            init: sexpr(init)?,
        },
        Kernel::DataAlloc { arr, size_factors } => {
            let mut size = match size_factors.first() {
                Some(f) => sexpr(f)?,
                None => Expr::Const(0),
            };
            for f in size_factors.iter().skip(1) {
                size = Expr::mul(size, sexpr(f)?);
            }
            AStmt::DataAlloc { arr: arr.clone(), size }
        }
        Kernel::ListFinalize { list } => AStmt::ListFinalize { list: list.clone() },
        Kernel::ListToUf { list, dim, uf } => {
            AStmt::ListToUf { list: list.clone(), dim: *dim, uf: uf.clone() }
        }
        Kernel::SymSet { sym, value } => {
            AStmt::SymSet { sym: sym.clone(), value: sexpr(value)? }
        }
        Kernel::SymSetListLen { sym, list } => AStmt::SymSet {
            sym: sym.clone(),
            value: Expr::ListLen(list.clone()),
        },
        other => unreachable!("not a setup kernel: {other:?}"),
    })
}

fn loop_kernel_to_ast(k: &Kernel, vars: &LoweredVars) -> Result<AStmt, LowerError> {
    let out = match k {
        Kernel::UfWrite { uf, idx, value } => AStmt::UfWrite {
            uf: uf.clone(),
            idx: kexpr(idx, vars).map_err(LowerError::Scan)?,
            value: kexpr(value, vars).map_err(LowerError::Scan)?,
        },
        Kernel::UfMin { uf, idx, value } => AStmt::UfMin {
            uf: uf.clone(),
            idx: kexpr(idx, vars).map_err(LowerError::Scan)?,
            value: kexpr(value, vars).map_err(LowerError::Scan)?,
        },
        Kernel::UfMax { uf, idx, value } => AStmt::UfMax {
            uf: uf.clone(),
            idx: kexpr(idx, vars).map_err(LowerError::Scan)?,
            value: kexpr(value, vars).map_err(LowerError::Scan)?,
        },
        Kernel::ListInsert { list, args } => AStmt::ListInsert {
            list: list.clone(),
            args: args
                .iter()
                .map(|a| kexpr(a, vars))
                .collect::<Result<Vec<_>, _>>()
                .map_err(LowerError::Scan)?,
        },
        Kernel::DataAxpy { y, y_idx, a, a_idx, x, x_idx } => AStmt::DataAxpy {
            y: y.clone(),
            y_idx: kexpr(y_idx, vars).map_err(LowerError::Scan)?,
            a: a.clone(),
            a_idx: kexpr(a_idx, vars).map_err(LowerError::Scan)?,
            x: x.clone(),
            x_idx: kexpr(x_idx, vars).map_err(LowerError::Scan)?,
        },
        Kernel::Copy { dst, dst_idx, src, src_idx } => AStmt::Copy {
            dst: dst.clone(),
            dst_idx: kexpr(dst_idx, vars).map_err(LowerError::Scan)?,
            src: src.clone(),
            src_idx: kexpr(src_idx, vars).map_err(LowerError::Scan)?,
        },
        other => {
            return Err(LowerError::ArityMismatch {
                label: format!("setup kernel {other:?} inside a loop"),
            })
        }
    };
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_ir::parse_set;

    fn space(src: &str) -> spf_ir::Set {
        let mut s = parse_set(src).unwrap();
        s.simplify();
        s
    }

    /// COO histogram: rowcount[row1(n)] via UfMax of n+1 — end-to-end
    /// lower + execute.
    #[test]
    fn lower_and_execute_simple_inspector() {
        let mut comp = Computation::new();
        comp.add_stmt(Stmt::new(
            "alloc",
            Kernel::UfAlloc {
                uf: "count".into(),
                size: LinExpr::sym("NR"),
                init: LinExpr::constant(0),
            },
            spf_ir::Set::universe(vec![]),
        ));
        comp.add_stmt(Stmt::new(
            "count rows",
            Kernel::UfMax {
                uf: "count".into(),
                idx: LinExpr::uf(spf_ir::UfCall::new("row1", vec![LinExpr::var(VarId(0))])),
                value: LinExpr::var(VarId(0)).add(&LinExpr::constant(1)),
            },
            space("{ [n] : 0 <= n < NNZ }"),
        ));
        let compiled = comp.lower().unwrap();
        let mut env = RtEnv::new()
            .with_sym("NR", 3)
            .with_sym("NNZ", 5)
            .with_uf("row1", vec![0, 0, 1, 2, 2]);
        compiled.execute(&mut env, &ComparatorRegistry::new()).unwrap();
        assert_eq!(env.ufs["count"], vec![2, 3, 5]);
    }

    #[test]
    fn fused_group_lowers_to_one_nest() {
        let sp = space("{ [n] : 0 <= n < NNZ }");
        let mut comp = Computation::new();
        let mut s1 = Stmt::new(
            "a",
            Kernel::UfWrite {
                uf: "a".into(),
                idx: LinExpr::var(VarId(0)),
                value: LinExpr::var(VarId(0)),
            },
            sp.clone(),
        );
        s1.fuse_group = 7;
        let mut s2 = Stmt::new(
            "b",
            Kernel::UfWrite {
                uf: "b".into(),
                idx: LinExpr::var(VarId(0)),
                value: LinExpr::var(VarId(0)).scaled(2),
            },
            sp,
        );
        s2.fuse_group = 7;
        comp.add_stmt(s1);
        comp.add_stmt(s2);
        let compiled = comp.lower().unwrap();
        let c = compiled.emit_c("fused");
        // Exactly one for-loop header.
        assert_eq!(c.matches("for (").count(), 1, "{c}");
        let mut env = RtEnv::new()
            .with_sym("NNZ", 3)
            .with_uf("a", vec![0; 3])
            .with_uf("b", vec![0; 3]);
        compiled.execute(&mut env, &ComparatorRegistry::new()).unwrap();
        assert_eq!(env.ufs["a"], vec![0, 1, 2]);
        assert_eq!(env.ufs["b"], vec![0, 2, 4]);
    }

    #[test]
    fn unfused_stmts_lower_to_separate_nests() {
        let sp = space("{ [n] : 0 <= n < NNZ }");
        let mut comp = Computation::new();
        comp.add_stmt(Stmt::new(
            "a",
            Kernel::UfWrite {
                uf: "a".into(),
                idx: LinExpr::var(VarId(0)),
                value: LinExpr::var(VarId(0)),
            },
            sp.clone(),
        ));
        comp.add_stmt(Stmt::new(
            "b",
            Kernel::UfWrite {
                uf: "b".into(),
                idx: LinExpr::var(VarId(0)),
                value: LinExpr::var(VarId(0)),
            },
            sp,
        ));
        let c = comp.codegen("twice").unwrap();
        assert_eq!(c.matches("for (").count(), 2);
    }

    #[test]
    fn list_declaration_reaches_environment() {
        let mut comp = Computation::new();
        comp.add_stmt(Stmt::new(
            "decl P",
            Kernel::ListDecl {
                list: "P".into(),
                width: 2,
                order: ListOrderSpec::Lexicographic,
                unique: false,
            },
            spf_ir::Set::universe(vec![]),
        ));
        comp.add_stmt(Stmt::new(
            "insert",
            Kernel::ListInsert {
                list: "P".into(),
                args: vec![
                    LinExpr::uf(spf_ir::UfCall::new("row", vec![LinExpr::var(VarId(0))])),
                    LinExpr::uf(spf_ir::UfCall::new("col", vec![LinExpr::var(VarId(0))])),
                ],
            },
            space("{ [n] : 0 <= n < NNZ }"),
        ));
        comp.add_stmt(Stmt::new(
            "finalize",
            Kernel::ListFinalize { list: "P".into() },
            spf_ir::Set::universe(vec![]),
        ));
        comp.add_stmt(Stmt::new(
            "nd",
            Kernel::SymSetListLen { sym: "NP".into(), list: "P".into() },
            spf_ir::Set::universe(vec![]),
        ));
        let compiled = comp.lower().unwrap();
        let mut env = RtEnv::new()
            .with_sym("NNZ", 2)
            .with_uf("row", vec![1, 0])
            .with_uf("col", vec![0, 5]);
        compiled.execute(&mut env, &ComparatorRegistry::new()).unwrap();
        assert_eq!(env.syms["NP"], 2);
        assert!(env.lists["P"].is_finalized());
        assert_eq!(env.lists["P"].rank(&[0, 5]).unwrap(), 0);
        let c = compiled.emit_c("mcoo_inspector");
        assert!(c.contains("new OrderedList(2, LEX, unique=false)"));
        assert!(c.contains("P.insert(row[n], col[n]);"));
    }

    #[test]
    fn custom_comparator_is_required() {
        let mut comp = Computation::new();
        comp.add_stmt(Stmt::new(
            "decl",
            Kernel::ListDecl {
                list: "L".into(),
                width: 1,
                order: ListOrderSpec::Custom("REVLEX".into()),
                unique: false,
            },
            spf_ir::Set::universe(vec![]),
        ));
        let compiled = comp.lower().unwrap();
        let mut env = RtEnv::new();
        let err = compiled
            .execute(&mut env, &ComparatorRegistry::new())
            .unwrap_err();
        assert!(matches!(err, ExecError::UnboundList(_)));

        let mut reg = ComparatorRegistry::new();
        reg.insert("REVLEX".into(), Arc::new(|a: &[i64], b: &[i64]| b.cmp(a)));
        let mut env = RtEnv::new();
        compiled.execute(&mut env, &reg).unwrap();
        assert!(env.lists.contains_key("L"));
    }

    #[test]
    fn group_space_mismatch_is_error() {
        let mut comp = Computation::new();
        let mut s1 = Stmt::new(
            "a",
            Kernel::UfWrite {
                uf: "a".into(),
                idx: LinExpr::var(VarId(0)),
                value: LinExpr::zero(),
            },
            space("{ [n] : 0 <= n < NNZ }"),
        );
        s1.fuse_group = 1;
        let mut s2 = s1.clone();
        s2.label = "b".into();
        s2.iter_space = space("{ [n] : 0 <= n < NR }");
        comp.add_stmt(s1);
        comp.add_stmt(s2);
        assert!(matches!(
            comp.lower(),
            Err(LowerError::GroupSpaceMismatch { .. })
        ));
    }
}
