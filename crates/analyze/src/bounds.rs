//! Pass 2: domain, range, and allocation bounds proofs.
//!
//! For every non-setup statement and every conjunction of its iteration
//! space (with the find binding folded in), the pass discharges:
//!
//! * **SA003** — every UF call's arguments lie in the declared domain;
//! * **SA004** — every value written through `UfWrite`/`UfMin`/`UfMax`
//!   lies in the declared range of the written UF;
//! * **SA005** — every store index lies inside the written UF's
//!   allocation, and every `Copy` data access lies inside the data
//!   array's allocation.
//!
//! Proofs are entailments against the iteration system via the refutation
//! engine. When an allocation is a *product* of two size symbols (ELL's
//! `ELLW * NR`, DIA's `ND * NR`), a direct linear proof of
//! `0 <= e < F0*F1` is impossible, so the pass falls back to a
//! **mixed-radix window decomposition**: split `e = q*stride + r`
//! syntactically and prove `0 <= r < stride` and `0 <= q < other`
//! instead, which implies the product bound.
//!
//! A bucketed compaction counter `C` (see `ordering::Placement`) holds
//! counts, then bucket starts, then cursors, all in `[0, NNZ]`. Its
//! histogram and prefix sum store counts of the scan's `NNZ` points and
//! partial sums of them, which an entailment over one iteration cannot
//! bound, so their SA004 obligation is the placement's shape, which
//! SA007 checks. A nest that binds `v = C(key)` numbers exactly the
//! counted points onto `[0, NNZ)`, so its system gains `C(key) < NNZ`.
//!
//! * **SA009** — any UF call whose name has no signature anywhere
//!   (destination, source, synthesis) is reported once as a note.

use std::collections::BTreeSet;

use sparse_formats::descriptors::domain_alloc_size;
use spf_computation::{Computation, Kernel};
use spf_ir::{Atom, Constraint, LinExpr, UfCall, UfSignature};

use crate::diag::{Code, Diagnostic};
use crate::ordering::placements;
use crate::refute::{collect_calls, collect_calls_in_expr, Prover};
use crate::{kernel_exprs, stmt_systems, Ctx, StmtSystem};

pub(crate) fn check(comp: &Computation, cx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    let prover = cx.prover();
    let placements = placements(comp, cx);
    let nnz = LinExpr::sym(cx.src.nnz_sym.clone());
    let mut missing: BTreeSet<String> = BTreeSet::new();
    // Identical obligations recur across fused statements sharing a
    // space; deduplicate on the rendered diagnostic.
    let mut emitted: BTreeSet<String> = BTreeSet::new();
    let mut push = |out: &mut Vec<Diagnostic>, d: Diagnostic| {
        if emitted.insert(d.render()) {
            out.push(d);
        }
    };

    for (i, stmt) in comp.stmts.iter().enumerate() {
        if stmt.kernel.is_setup() {
            continue;
        }
        let counts = placements.iter().any(|p| p.counts(i));
        let cursors: Vec<Constraint> = placements
            .iter()
            .filter(|p| stmt.binds_counter(&p.counter))
            .map(|p| {
                let cursor = LinExpr::uf(UfCall::new(p.counter.clone(), vec![p.key.clone()]));
                Constraint::lt(cursor, nnz.clone())
            })
            .collect();
        for mut sys in stmt_systems(stmt, &cx.axioms) {
            sys.constraints.extend(cursors.iter().cloned());
            // SA003: every call argument in the declared domain.
            let mut calls = collect_calls(&sys.constraints);
            for e in kernel_exprs(&stmt.kernel) {
                collect_calls_in_expr(e, &mut calls);
            }
            for call in &calls {
                let Some(sig) = cx.lookup(&call.name) else {
                    missing.insert(call.name.clone());
                    continue;
                };
                if sig.arity != call.args.len() {
                    push(
                        out,
                        Diagnostic::new(
                            Code::Sa009,
                            format!(
                                "`{}` called with {} argument(s); signature declares \
                                 arity {}",
                                call.name,
                                call.args.len(),
                                sig.arity
                            ),
                        )
                        .with_stmt(&stmt.label),
                    );
                    continue;
                }
                for d in prove_within_domain(
                    &prover,
                    &sys,
                    call,
                    sig,
                    Code::Sa003,
                    &format!("argument of `{}` not provably in its domain", call.name),
                ) {
                    push(out, d.with_stmt(&stmt.label));
                }
            }

            // SA004 + SA005 for stores.
            if let Kernel::UfWrite { uf, idx, value }
            | Kernel::UfMin { uf, idx, value }
            | Kernel::UfMax { uf, idx, value } = &stmt.kernel
            {
                if let Some(sig) = cx.lookup(uf) {
                    let range = match counts {
                        true => Vec::new(),
                        false => prove_within_range(&prover, &sys, value, sig),
                    };
                    for d in range {
                        push(out, d.with_stmt(&stmt.label));
                    }
                    let store = UfCall::new(uf.clone(), vec![idx.clone()]);
                    for d in prove_within_domain(
                        &prover,
                        &sys,
                        &store,
                        sig,
                        Code::Sa005,
                        &format!("store to `{uf}` not provably within its allocation"),
                    ) {
                        push(out, d.with_stmt(&stmt.label));
                    }
                }
            }

            // SA005 for data accesses.
            if let Kernel::Copy { dst, dst_idx, src, src_idx } = &stmt.kernel {
                for (arr, idx) in [(dst, dst_idx), (src, src_idx)] {
                    let factors = if *arr == cx.dst.data_name {
                        &cx.dst.data_size
                    } else if *arr == cx.src.data_name {
                        &cx.src.data_size
                    } else {
                        continue;
                    };
                    for d in prove_data_access(&prover, &sys, arr, idx, factors) {
                        push(out, d.with_stmt(&stmt.label));
                    }
                }
            }
        }
    }

    for name in missing {
        out.push(Diagnostic::new(
            Code::Sa009,
            format!("UF `{name}` is used without a registered signature"),
        ));
    }
}

/// Proves that `call`'s arguments satisfy the declared domain of `sig`,
/// returning a diagnostic per unproven constraint. Unary interval domains
/// whose extent is a two-symbol product get the window fallback.
fn prove_within_domain(
    prover: &Prover<'_>,
    sys: &StmtSystem,
    call: &UfCall,
    sig: &UfSignature,
    code: Code,
    msg: &str,
) -> Vec<Diagnostic> {
    let conjs = sig.domain.conjunctions();
    let [conj] = conjs else { return Vec::new() };
    if !conj.exists().is_empty() {
        return Vec::new();
    }
    let goals: Vec<Constraint> = conj
        .constraints
        .iter()
        .map(|c| {
            c.map_vars(&mut |v| {
                call.args.get(v.index()).cloned().unwrap_or_else(|| LinExpr::var(v))
            })
        })
        .collect();
    let unproved: Vec<&Constraint> =
        goals.iter().filter(|g| !prover.entails(&sys.constraints, g)).collect();
    if unproved.is_empty() {
        return Vec::new();
    }
    // Window fallback: the whole `[0, F0*F1)` interval at once.
    if call.args.len() == 1 && goals.len() == 2 {
        if let Some((f0, f1)) = domain_alloc_size(sig).as_ref().and_then(two_sym_factors) {
            if window_within(prover, &sys.constraints, &call.args[0], &f0, &f1) {
                return Vec::new();
            }
        }
    }
    unproved
        .into_iter()
        .map(|g| {
            Diagnostic::new(code, msg.to_string())
                .with_relation(format!("requires {}", g.display_with(&sys.names)))
        })
        .collect()
}

/// Proves that a written `value` satisfies the declared range of `sig`.
fn prove_within_range(
    prover: &Prover<'_>,
    sys: &StmtSystem,
    value: &LinExpr,
    sig: &UfSignature,
) -> Vec<Diagnostic> {
    let conjs = sig.range.conjunctions();
    let [conj] = conjs else { return Vec::new() };
    if !conj.exists().is_empty() || sig.range.arity() != 1 {
        return Vec::new();
    }
    let mut out = Vec::new();
    for c in &conj.constraints {
        let goal = c.map_vars(&mut |v| {
            if v.0 == 0 {
                value.clone()
            } else {
                LinExpr::var(v)
            }
        });
        if !prover.entails(&sys.constraints, &goal) {
            out.push(
                Diagnostic::new(
                    Code::Sa004,
                    format!(
                        "value written to `{}` not provably in its declared range",
                        sig.name
                    ),
                )
                .with_relation(format!("requires {}", goal.display_with(&sys.names))),
            );
        }
    }
    out
}

/// Proves that a data access index lies in `[0, Π factors)`.
fn prove_data_access(
    prover: &Prover<'_>,
    sys: &StmtSystem,
    arr: &str,
    idx: &LinExpr,
    factors: &[LinExpr],
) -> Vec<Diagnostic> {
    let lower = Constraint::ge(idx.clone(), LinExpr::zero());
    let ok = match factors {
        [single] => {
            prover.entails(&sys.constraints, &lower)
                && prover.entails(&sys.constraints, &Constraint::lt(idx.clone(), single.clone()))
        }
        [a, b] => {
            let direct = prover.entails(&sys.constraints, &lower)
                && prover
                    .entails(&sys.constraints, &Constraint::lt(idx.clone(), a.mul_expr(b)));
            direct
                || match (single_sym(a), single_sym(b)) {
                    (Some(fa), Some(fb)) => {
                        window_within(prover, &sys.constraints, idx, &fa, &fb)
                    }
                    _ => false,
                }
        }
        // Higher-rank data allocations are out of scope for this prover;
        // leave them unchecked rather than warn on every access.
        _ => true,
    };
    if ok {
        Vec::new()
    } else {
        vec![Diagnostic::new(
            Code::Sa005,
            format!("access to data array `{arr}` not provably within its allocation"),
        )
        .with_relation(format!("index {}", idx.display_with(&sys.names)))]
    }
}

/// `Some((a, b))` when `e` is exactly the product `a * b` of two symbols.
fn two_sym_factors(e: &LinExpr) -> Option<(String, String)> {
    if e.constant != 0 || e.terms.len() != 1 {
        return None;
    }
    let (coeff, atom) = &e.terms[0];
    if *coeff != 1 {
        return None;
    }
    let Atom::Prod(fs) = atom else { return None };
    match fs.as_slice() {
        [Atom::Sym(a), Atom::Sym(b)] => Some((a.clone(), b.clone())),
        _ => None,
    }
}

/// `Some(name)` when `e` is exactly one symbol.
fn single_sym(e: &LinExpr) -> Option<String> {
    if e.constant != 0 || e.terms.len() != 1 {
        return None;
    }
    match &e.terms[0] {
        (1, Atom::Sym(s)) => Some(s.clone()),
        _ => None,
    }
}

/// Mixed-radix window proof of `0 <= e < f0 * f1`.
///
/// Picks one factor as the stride and splits `e = q*stride + r` by moving
/// every term whose product atom contains the stride symbol into `q`
/// (with the symbol stripped). If `0 <= r <= stride-1` and
/// `0 <= q <= other-1` are all entailed, then
/// `e <= (other-1)*stride + stride-1 < other*stride` and `e >= 0`.
fn window_within(
    prover: &Prover<'_>,
    sys: &[Constraint],
    e: &LinExpr,
    f0: &str,
    f1: &str,
) -> bool {
    for (stride, other) in [(f0, f1), (f1, f0)] {
        let Some((q, r)) = split_by_stride(e, stride) else { continue };
        let s = LinExpr::sym(stride.to_string());
        let o = LinExpr::sym(other.to_string());
        if prover.entails(sys, &Constraint::ge(r.clone(), LinExpr::zero()))
            && prover.entails(sys, &Constraint::lt(r.clone(), s))
            && prover.entails(sys, &Constraint::ge(q.clone(), LinExpr::zero()))
            && prover.entails(sys, &Constraint::lt(q.clone(), o))
        {
            return true;
        }
    }
    false
}

/// Splits `e` into `(q, r)` with `e = q*stride + r` exactly, where `q`
/// collects the terms containing the stride symbol (stripped once).
/// Returns `None` when no term mentions the stride.
fn split_by_stride(e: &LinExpr, stride: &str) -> Option<(LinExpr, LinExpr)> {
    let mut q = LinExpr::zero();
    let mut r = LinExpr::constant(e.constant);
    let mut found = false;
    for (coeff, atom) in &e.terms {
        let stripped = match atom {
            Atom::Prod(fs) => fs
                .iter()
                .position(|f| matches!(f, Atom::Sym(s) if s == stride))
                .map(|pos| {
                    let mut rest = fs.clone();
                    rest.remove(pos);
                    match rest.len() {
                        0 => LinExpr::constant(*coeff),
                        1 => LinExpr::term(*coeff, rest.into_iter().next().unwrap()),
                        _ => LinExpr::term(*coeff, Atom::Prod(rest)),
                    }
                }),
            _ => None,
        };
        match stripped {
            Some(t) => {
                q.add_assign(&t);
                found = true;
            }
            None => r.add_assign(&LinExpr::term(*coeff, atom.clone())),
        }
    }
    found.then_some((q, r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_ir::VarId;

    #[test]
    fn window_discharges_two_factor_bound() {
        // 0 <= i < NR && 0 <= s < ELLW  ⊢  0 <= ELLW*i + s < ELLW*NR
        let i = LinExpr::var(VarId(0));
        let s = LinExpr::var(VarId(1));
        let sys = vec![
            Constraint::ge(i.clone(), LinExpr::zero()),
            Constraint::lt(i.clone(), LinExpr::sym("NR")),
            Constraint::ge(s.clone(), LinExpr::zero()),
            Constraint::lt(s.clone(), LinExpr::sym("ELLW")),
        ];
        let e = LinExpr::sym("ELLW").mul_expr(&i).add(&s);
        let prover = Prover::new();
        assert!(window_within(&prover, &sys, &e, "ELLW", "NR"));
        // Dropping the inner bound breaks the proof.
        assert!(!window_within(&prover, &sys[..3], &e, "ELLW", "NR"));
    }

    #[test]
    fn split_is_exact() {
        let i = LinExpr::var(VarId(0));
        let s = LinExpr::var(VarId(1));
        let e = LinExpr::sym("W").mul_expr(&i).add(&s).add(&LinExpr::constant(3));
        let (q, r) = split_by_stride(&e, "W").unwrap();
        assert_eq!(q, i);
        assert_eq!(r, s.add(&LinExpr::constant(3)));
        assert!(split_by_stride(&e, "Z").is_none());
    }
}
