//! Pass 3: ordering and monotonicity checks.
//!
//! * **SA006** — a destination UF with a declared monotonic quantifier
//!   must have that quantifier *established* by the plan: pointer-style
//!   UFs populated by `UfMin`/`UfMax` need an enforcement sweep after
//!   population (and conversely, min/max-populated UFs without any
//!   declared monotonicity are rejected — nothing constrains the result);
//!   UFs materialized from a value list need the list sorted (and
//!   deduplicated, for strictly increasing quantifiers); UFs written
//!   directly need each write to be a *counted ascending sweep* (a loop
//!   over one variable `e`, `d` bound to a compaction counter, and
//!   `uf[d] = value` with `value` strictly increasing in `e`), which is
//!   how a direct membership map materializes DIA's `off`.
//! * **SA007** — a destination order key must be established: either the
//!   plan builds the permutation `P` with a matching comparator, width,
//!   and finalize, or the source traversal order already implies the key
//!   — with contiguous data (identity-eliminated plans) or with `P` a
//!   compaction counter over padded data.

use sparse_synthesis::PERM_NAME;
use spf_computation::{Computation, Kernel, ListOrderSpec, Stmt};
use spf_ir::{Atom, Comparator, Constraint, Monotonicity, VarId};

use crate::diag::{Code, Diagnostic};
use crate::Ctx;

pub(crate) fn check(comp: &Computation, cx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    check_monotonicity(comp, cx, out);
    check_order_key(comp, cx, out);
}

fn check_monotonicity(comp: &Computation, cx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    let counters: Vec<&str> = comp.counters().collect();
    for sig in cx.dst.ufs.iter() {
        let name = &sig.name;
        // Direct writes: each must be a counted ascending sweep.
        if let Some(m) = sig.monotonicity {
            for stmt in &comp.stmts {
                let Kernel::UfWrite { uf, .. } = &stmt.kernel else { continue };
                if uf == name && !counted_sweep(stmt, &counters) {
                    out.push(
                        Diagnostic::new(
                            Code::Sa006,
                            format!(
                                "`{name}` declares a monotonic quantifier but is written \
                                 outside an ascending sweep numbered by a compaction \
                                 counter, so nothing orders its values"
                            ),
                        )
                        .with_stmt(&stmt.label)
                        .with_relation(m.quantifier_text(name)),
                    );
                }
            }
        }
        // Population by min/max bounds vs. the enforcement sweep (which is
        // itself a `UfMin` whose value reads the UF it writes).
        let mut populated_at: Vec<usize> = Vec::new();
        let mut sweeps_at: Vec<usize> = Vec::new();
        for (i, stmt) in comp.stmts.iter().enumerate() {
            if let Kernel::UfMin { uf, value, .. } | Kernel::UfMax { uf, value, .. } =
                &stmt.kernel
            {
                if uf != name {
                    continue;
                }
                if value.mentions_uf(name) {
                    sweeps_at.push(i);
                } else {
                    populated_at.push(i);
                }
            }
        }
        if !populated_at.is_empty() {
            match sig.monotonicity {
                None => out.push(
                    Diagnostic::new(
                        Code::Sa006,
                        format!(
                            "`{name}` is populated by min/max bounds but its \
                             descriptor declares no monotonic quantifier; nothing \
                             constrains rows the scan never visits"
                        ),
                    )
                    .with_relation(Monotonicity::NonDecreasing.quantifier_text(name)),
                ),
                Some(m) => {
                    let last = *populated_at.iter().max().unwrap();
                    if !sweeps_at.iter().any(|&s| s > last) {
                        out.push(
                            Diagnostic::new(
                                Code::Sa006,
                                format!(
                                    "monotonic quantifier on `{name}` is declared but \
                                     the plan has no enforcement sweep after \
                                     population; empty rows would keep init values"
                                ),
                            )
                            .with_relation(m.quantifier_text(name)),
                        );
                    }
                }
            }
        }

        // Population by list materialization: the list's declared order
        // must establish the quantifier.
        for stmt in &comp.stmts {
            let Kernel::ListToUf { list, uf, .. } = &stmt.kernel else { continue };
            if uf != name {
                continue;
            }
            let decl = comp.stmts.iter().find_map(|s| match &s.kernel {
                Kernel::ListDecl { list: l, order, unique, .. } if l == list => {
                    Some((order.clone(), *unique))
                }
                _ => None,
            });
            let Some((order, unique)) = decl else {
                out.push(
                    Diagnostic::new(
                        Code::Sa006,
                        format!("list `{list}` is materialized into `{name}` but never declared"),
                    )
                    .with_stmt(&stmt.label),
                );
                continue;
            };
            let established = match sig.monotonicity {
                None => true,
                Some(Monotonicity::NonDecreasing) => {
                    matches!(order, ListOrderSpec::Lexicographic)
                }
                Some(Monotonicity::Increasing) => {
                    matches!(order, ListOrderSpec::Lexicographic) && unique
                }
            };
            if !established {
                let m = sig.monotonicity.expect("checked above");
                out.push(
                    Diagnostic::new(
                        Code::Sa006,
                        format!(
                            "`{name}` declares a monotonic quantifier but is \
                             materialized from list `{list}` which is not sorted{}",
                            if m == Monotonicity::Increasing { " and deduplicated" } else { "" }
                        ),
                    )
                    .with_stmt(&stmt.label)
                    .with_relation(m.quantifier_text(name)),
                );
            }
        }
    }
}

/// `true` when `stmt` is `uf[d] = value` over `{ [e, d] : ... && d =
/// C(...) }` with `C` a compaction counter and `value` strictly
/// increasing in the loop variable `e` alone. The counter numbers the
/// visited points in ascending `e`, so the stored values increase with
/// `d`.
fn counted_sweep(stmt: &Stmt, counters: &[&str]) -> bool {
    let Kernel::UfWrite { idx, value, .. } = &stmt.kernel else { return false };
    let (e, d) = (VarId(0), VarId(1));
    let [conj] = stmt.iter_space.conjunctions() else { return false };
    let counted = conj.constraints.iter().any(|c| {
        let Constraint::Eq(x) = c else { return false };
        let counter_call = x.terms.iter().any(|(k, a)| {
            matches!(a, Atom::Uf(u) if counters.contains(&u.name.as_str()))
                && *k == -x.coeff_of_var(d)
        });
        x.constant == 0 && x.terms.len() == 2 && x.coeff_of_var(d).abs() == 1 && counter_call
    });
    let mut vars = Vec::new();
    value.collect_vars(&mut vars);
    stmt.iter_space.arity() == 2
        && idx.as_single_var() == Some(d)
        && counted
        && !value.has_uf()
        && value.coeff_of_var(e) > 0
        && vars.iter().all(|&v| v == e)
}

/// The list ordering a comparator demands.
fn comparator_spec(c: &Comparator) -> ListOrderSpec {
    match c {
        Comparator::Lexicographic => ListOrderSpec::Lexicographic,
        Comparator::Morton => ListOrderSpec::Morton,
        Comparator::UserFn(name) => ListOrderSpec::Custom(name.clone()),
    }
}

fn check_order_key(comp: &Computation, cx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    let Some(key) = &cx.dst.order else { return };
    let decl = comp.stmts.iter().enumerate().find_map(|(i, s)| match &s.kernel {
        Kernel::ListDecl { list, width, order, .. } if list == PERM_NAME => {
            Some((i, *width, order.clone()))
        }
        _ => None,
    });
    let Some((_, width, order)) = decl else {
        // No sorted permutation: the source traversal order must already
        // emit nonzeros in destination order, from contiguous storage or
        // through a compaction counter.
        let counted = comp.counters().any(|c| c == PERM_NAME);
        let implied = (cx.src.contiguous_data || counted)
            && cx.src.order.as_ref().is_some_and(|o| o.implies(key));
        if !implied {
            let how = if counted {
                format!("numbers them with compaction counter `{PERM_NAME}`")
            } else {
                "builds no permutation".to_string()
            };
            out.push(
                Diagnostic::new(
                    Code::Sa007,
                    format!(
                        "destination `{}` orders nonzeros by {key} but the plan \
                         {how} and the source order does not imply it",
                        cx.dst.name
                    ),
                )
                .with_relation(key.quantifier_text(&coord_names(cx))),
            );
        }
        return;
    };
    let expected = comparator_spec(&key.comparator);
    if order != expected {
        out.push(
            Diagnostic::new(
                Code::Sa007,
                format!(
                    "permutation `{PERM_NAME}` is sorted {} but the destination \
                     order key requires {}",
                    spec_name(&order),
                    spec_name(&expected)
                ),
            )
            .with_relation(key.quantifier_text(&coord_names(cx))),
        );
    }
    if width != key.dims.len() {
        out.push(Diagnostic::new(
            Code::Sa007,
            format!(
                "permutation `{PERM_NAME}` has width {width} but the order key \
                 compares {} dimension(s)",
                key.dims.len()
            ),
        ));
    }
    let mut last_insert = None;
    for (i, s) in comp.stmts.iter().enumerate() {
        if let Kernel::ListInsert { list, args } = &s.kernel {
            if list == PERM_NAME {
                last_insert = Some(i);
                if args.len() != width {
                    out.push(
                        Diagnostic::new(
                            Code::Sa007,
                            format!(
                                "insert into `{PERM_NAME}` provides {} key value(s) \
                                 for width {width}",
                                args.len()
                            ),
                        )
                        .with_stmt(&s.label),
                    );
                }
            }
        }
    }
    let Some(last_insert) = last_insert else {
        out.push(Diagnostic::new(
            Code::Sa007,
            format!("permutation `{PERM_NAME}` is declared but never populated"),
        ));
        return;
    };
    let finalized = comp.stmts.iter().enumerate().any(|(i, s)| {
        i > last_insert
            && matches!(&s.kernel, Kernel::ListFinalize { list } if list == PERM_NAME)
    });
    if !finalized {
        out.push(Diagnostic::new(
            Code::Sa007,
            format!(
                "permutation `{PERM_NAME}` is never finalized after its last insert; \
                 the sort that establishes the destination order never runs"
            ),
        ));
    }
}

/// Coordinate names for rendering the order-key quantifier.
fn coord_names(cx: &Ctx<'_>) -> Vec<String> {
    cx.dst
        .coord_ufs
        .iter()
        .enumerate()
        .map(|(d, uf)| uf.clone().unwrap_or_else(|| format!("x{d}")))
        .collect()
}

fn spec_name(s: &ListOrderSpec) -> String {
    match s {
        ListOrderSpec::Insertion => "by insertion order".into(),
        ListOrderSpec::Lexicographic => "lexicographically".into(),
        ListOrderSpec::Morton => "by Morton order".into(),
        ListOrderSpec::Custom(f) => format!("by custom comparator `{f}`"),
    }
}
