//! C code emission for generated inspectors.
//!
//! The paper's artifact emits C from the SPF-IR; this module provides the
//! same capability so synthesized conversions can be inspected, golden-
//! tested, and compiled externally. `OrderedList` operations are emitted
//! against the small runtime class shown in §3.2 of the paper
//! (`P = new OrderedList(...)`, `P.insert(...)`, `P.rank(...)`).

use std::fmt::Write as _;

use crate::ast::{CmpOp, Expr, Stmt};

/// Output dialect of the emitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dialect {
    /// The paper's listing style: `P.insert(i, j)`, `P.rank(i, j)` —
    /// readable pseudo-C matching the figures in §3.2.
    PaperListing,
    /// Compilable C99 against the embedded `OrderedList` runtime
    /// ([`crate::cruntime::C_ORDERED_LIST_RUNTIME`]): `ol_insert(&P, 2,
    /// (int[]){i, j})` and friends.
    C99,
}

fn expr_str(e: &Expr, d: Dialect) -> String {
    match (e, d) {
        (Expr::ListRank { list, args }, Dialect::C99) => {
            let rendered: Vec<String> = args.iter().map(|a| expr_str(a, d)).collect();
            format!(
                "ol_rank(&{list}, {}, (int[]){{{}}})",
                args.len(),
                rendered.join(", ")
            )
        }
        (Expr::ListLen(l), Dialect::C99) => format!("ol_size(&{l})"),
        (Expr::UfRead { uf, idx }, _) => format!("{uf}[{}]", expr_str(idx, d)),
        (Expr::Add(a, b), _) => format!("({} + {})", expr_str(a, d), expr_str(b, d)),
        (Expr::Sub(a, b), _) => format!("({} - {})", expr_str(a, d), expr_str(b, d)),
        (Expr::Mul(a, b), _) => format!("({} * {})", expr_str(a, d), expr_str(b, d)),
        (Expr::Div(a, b), _) => format!("({} / {})", expr_str(a, d), expr_str(b, d)),
        (Expr::Min(a, b), _) => format!("MIN({}, {})", expr_str(a, d), expr_str(b, d)),
        (Expr::Max(a, b), _) => format!("MAX({}, {})", expr_str(a, d), expr_str(b, d)),
        (other, _) => other.to_string(),
    }
}

/// Standard prelude: bounds macros used by min/max folds.
pub const C_PRELUDE: &str = "\
#include <stdlib.h>
#include <string.h>
#define MIN(a, b) ((a) < (b) ? (a) : (b))
#define MAX(a, b) ((a) > (b) ? (a) : (b))
";

/// Emits a statement list as the body of a C function named `name`.
///
/// The emitted code is self-contained modulo the [`C_PRELUDE`] and an
/// `OrderedList` class providing `insert`, `finalize`, `rank`, `size` and
/// `key` — the runtime abstraction the paper introduces for reordering
/// constraints.
pub fn emit_c_function(name: &str, stmts: &[Stmt]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "void {name}(void) {{");
    for s in stmts {
        emit_stmt(&mut out, s, 1, Dialect::PaperListing);
    }
    out.push_str("}\n");
    out
}

/// Emits a statement list as a compilable C99 function body (no wrapper);
/// pair with [`crate::cruntime::C_ORDERED_LIST_RUNTIME`] and the
/// [`C_PRELUDE`].
pub fn emit_c99_block(stmts: &[Stmt], depth: usize) -> String {
    let mut out = String::new();
    for s in stmts {
        emit_stmt(&mut out, s, depth, Dialect::C99);
    }
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn cmp_str(op: CmpOp) -> &'static str {
    op.c_str()
}

fn emit_stmt(out: &mut String, s: &Stmt, depth: usize, d: Dialect) {
    match s {
        Stmt::For { var, lo, hi, body, .. } => {
            indent(out, depth);
            let (lo, hi) = (expr_str(lo, d), expr_str(hi, d));
            let _ = writeln!(out, "for (int {var} = {lo}; {var} < {hi}; {var}++) {{");
            for b in body {
                emit_stmt(out, b, depth + 1, d);
            }
            indent(out, depth);
            out.push_str("}\n");
        }
        Stmt::Let { var, value, .. } => {
            indent(out, depth);
            let _ = writeln!(out, "int {var} = {};", expr_str(value, d));
        }
        Stmt::If { cond, body } => {
            indent(out, depth);
            let clauses: Vec<String> = cond
                .clauses
                .iter()
                .map(|(a, op, b)| {
                    format!("{} {} {}", expr_str(a, d), cmp_str(*op), expr_str(b, d))
                })
                .collect();
            let _ = writeln!(out, "if ({}) {{", clauses.join(" && "));
            for b in body {
                emit_stmt(out, b, depth + 1, d);
            }
            indent(out, depth);
            out.push_str("}\n");
        }
        Stmt::FindBinary { var, lo, hi, key, target, body, .. } => {
            // Lower-bound binary search over the monotone key.
            let key_s = expr_str(key, d);
            let target_s = expr_str(target, d);
            let lo_s = expr_str(lo, d);
            let hi_s = expr_str(hi, d);
            indent(out, depth);
            let _ = writeln!(out, "{{ // binary search for {var} with {key_s} == {target_s}");
            indent(out, depth + 1);
            let _ = writeln!(out, "int lo_ = {lo_s}, hi_ = {hi_s};");
            indent(out, depth + 1);
            out.push_str("while (lo_ < hi_) {\n");
            indent(out, depth + 2);
            let _ = writeln!(out, "int {var} = lo_ + (hi_ - lo_) / 2;");
            indent(out, depth + 2);
            let _ = writeln!(out, "if ({key_s} < {target_s}) lo_ = {var} + 1; else hi_ = {var};");
            indent(out, depth + 1);
            out.push_str("}\n");
            indent(out, depth + 1);
            let _ = writeln!(out, "int {var} = lo_;");
            indent(out, depth + 1);
            let _ = writeln!(out, "if ({var} < {hi_s} && {key_s} == {target_s}) {{");
            for b in body {
                emit_stmt(out, b, depth + 2, d);
            }
            indent(out, depth + 1);
            out.push_str("}\n");
            indent(out, depth);
            out.push_str("}\n");
        }
        Stmt::UfWrite { uf, idx, value } => {
            indent(out, depth);
            let _ = writeln!(out, "{uf}[{}] = {};", expr_str(idx, d), expr_str(value, d));
        }
        Stmt::UfMin { uf, idx, value } => {
            indent(out, depth);
            let (i, v) = (expr_str(idx, d), expr_str(value, d));
            let _ = writeln!(out, "{uf}[{i}] = MIN({uf}[{i}], {v});");
        }
        Stmt::UfMax { uf, idx, value } => {
            indent(out, depth);
            let (i, v) = (expr_str(idx, d), expr_str(value, d));
            let _ = writeln!(out, "{uf}[{i}] = MAX({uf}[{i}], {v});");
        }
        Stmt::UfAlloc { uf, size, init } => {
            indent(out, depth);
            let (size, init) = (expr_str(size, d), expr_str(init, d));
            let _ = writeln!(out, "{uf} = (int*)malloc(sizeof(int) * ({size}));");
            indent(out, depth);
            let _ = writeln!(
                out,
                "for (int a_ = 0; a_ < {size}; a_++) {uf}[a_] = {init};"
            );
        }
        Stmt::DataAlloc { arr, size } => {
            indent(out, depth);
            let _ = writeln!(
                out,
                "{arr} = (double*)calloc({}, sizeof(double));",
                expr_str(size, d)
            );
        }
        Stmt::ListInsert { list, args } => {
            indent(out, depth);
            let rendered: Vec<String> = args.iter().map(|a| expr_str(a, d)).collect();
            match d {
                Dialect::PaperListing => {
                    let _ = writeln!(out, "{list}.insert({});", rendered.join(", "));
                }
                Dialect::C99 => {
                    let _ = writeln!(
                        out,
                        "ol_insert(&{list}, {}, (int[]){{{}}});",
                        args.len(),
                        rendered.join(", ")
                    );
                }
            }
        }
        Stmt::ListFinalize { list } => {
            indent(out, depth);
            match d {
                Dialect::PaperListing => {
                    let _ = writeln!(out, "{list}.finalize();");
                }
                Dialect::C99 => {
                    let _ = writeln!(out, "ol_finalize(&{list});");
                }
            }
        }
        Stmt::ListToUf { list, dim, uf } => {
            indent(out, depth);
            match d {
                Dialect::PaperListing => {
                    let _ = writeln!(out, "{uf} = (int*)malloc(sizeof(int) * {list}.size());");
                    indent(out, depth);
                    let _ = writeln!(
                        out,
                        "for (int p_ = 0; p_ < {list}.size(); p_++) {uf}[p_] = {list}.key(p_, {dim});"
                    );
                }
                Dialect::C99 => {
                    let _ = writeln!(
                        out,
                        "{uf} = (int*)malloc(sizeof(int) * ol_size(&{list}));"
                    );
                    indent(out, depth);
                    let _ = writeln!(
                        out,
                        "for (int p_ = 0; p_ < ol_size(&{list}); p_++) {uf}[p_] = ol_key(&{list}, p_, {dim});"
                    );
                }
            }
        }
        Stmt::SymSet { sym, value } => {
            indent(out, depth);
            let _ = writeln!(out, "{sym} = {};", expr_str(value, d));
        }
        Stmt::DataAxpy { y, y_idx, a, a_idx, x, x_idx } => {
            indent(out, depth);
            let _ = writeln!(
                out,
                "{y}[{}] += {a}[{}] * {x}[{}];",
                expr_str(y_idx, d),
                expr_str(a_idx, d),
                expr_str(x_idx, d)
            );
        }
        Stmt::Copy { dst, dst_idx, src, src_idx } => {
            indent(out, depth);
            let _ = writeln!(
                out,
                "{dst}[{}] = {src}[{}];",
                expr_str(dst_idx, d),
                expr_str(src_idx, d)
            );
        }
        Stmt::Comment(text) => {
            indent(out, depth);
            let _ = writeln!(out, "// {text}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Cond, Expr, SlotAlloc};

    #[test]
    fn emits_csr_style_nest() {
        let mut slots = SlotAlloc::new();
        let i = slots.alloc("i");
        let k = slots.alloc("k");
        let stmts = vec![Stmt::For {
            var: "i".into(),
            slot: i,
            lo: Expr::Const(0),
            hi: Expr::Sym("NR".into()),
            body: vec![Stmt::For {
                var: "k".into(),
                slot: k,
                lo: Expr::uf_read("rowptr", Expr::Var("i".into(), i)),
                hi: Expr::uf_read(
                    "rowptr",
                    Expr::add(Expr::Var("i".into(), i), Expr::Const(1)),
                ),
                body: vec![Stmt::Let {
                    var: "j".into(),
                    slot: slots.alloc("j"),
                    value: Expr::uf_read("col", Expr::Var("k".into(), k)),
                }],
            }],
        }];
        let c = emit_c_function("walk_csr", &stmts);
        assert!(c.contains("for (int i = 0; i < NR; i++) {"));
        assert!(c.contains("for (int k = rowptr[i]; k < rowptr[(i + 1)]; k++) {"));
        assert!(c.contains("int j = col[k];"));
    }

    #[test]
    fn emits_guard_and_copy() {
        let mut slots = SlotAlloc::new();
        let d = slots.alloc("d");
        let stmts = vec![Stmt::If {
            cond: Cond::cmp(
                Expr::uf_read("off", Expr::Var("d".into(), d)),
                crate::ast::CmpOp::Eq,
                Expr::Const(2),
            ),
            body: vec![Stmt::Copy {
                dst: "A_dia".into(),
                dst_idx: Expr::Var("d".into(), d),
                src: "A_coo".into(),
                src_idx: Expr::Const(0),
            }],
        }];
        let c = emit_c_function("f", &stmts);
        assert!(c.contains("if (off[d] == 2) {"));
        assert!(c.contains("A_dia[d] = A_coo[0];"));
    }

    #[test]
    fn emits_ordered_list_protocol() {
        let stmts = vec![
            Stmt::ListInsert {
                list: "P".into(),
                args: vec![Expr::Const(1), Expr::Const(2)],
            },
            Stmt::ListFinalize { list: "P".into() },
            Stmt::ListToUf { list: "P".into(), dim: 0, uf: "off".into() },
        ];
        let c = emit_c_function("f", &stmts);
        assert!(c.contains("P.insert(1, 2);"));
        assert!(c.contains("P.finalize();"));
        assert!(c.contains("off[p_] = P.key(p_, 0);"));
    }

    #[test]
    fn emits_binary_search() {
        let mut slots = SlotAlloc::new();
        let d = slots.alloc("d");
        let stmts = vec![Stmt::FindBinary {
            var: "d".into(),
            slot: d,
            lo: Expr::Const(0),
            hi: Expr::Sym("ND".into()),
            key: Box::new(Expr::uf_read("off", Expr::Var("d".into(), d))),
            target: Box::new(Expr::Const(5)),
            body: vec![Stmt::Comment("hit".into())],
        }];
        let c = emit_c_function("f", &stmts);
        assert!(c.contains("while (lo_ < hi_)"));
        assert!(c.contains("if (off[d] < 5) lo_ = d + 1; else hi_ = d;"));
    }
}
