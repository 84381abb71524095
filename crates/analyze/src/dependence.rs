//! Pass 4: dependence analysis and parallelism classification.
//!
//! Statements are grouped into loop nests exactly the way `lower()`
//! fuses them (consecutive non-setup statements sharing a fuse group and
//! iteration space; find-bearing statements nest alone with the find
//! variable as an extra innermost position). For each nest, every pair of
//! accesses to the same name — where at least one is a write — is tested
//! for a loop-carried conflict on a **doubled system**: two copies of the
//! iteration constraints (the primed copy with variables shifted), the
//! access indices equated, and a lexicographic case split over strictly
//! earlier iterations. If the refutation engine kills every case, the
//! pair cannot conflict across iterations.
//!
//! Same-iteration conflicts between fused statements are *excluded*: the
//! statements execute in program order within one iteration, which is
//! preserved by any schedule that keeps the loop body intact.
//!
//! Verdicts form a lattice `Parallel < Reduction < Sequential`; a nest
//! takes the worst verdict among its surviving conflicts. Min/min,
//! max/max, and accumulate self-conflicts commute (Reduction), as do
//! inserts into a sorted list; stores of the same constant (a presence
//! mark) are idempotent and never conflict with each other; everything else is
//! Sequential. A nest that binds a compaction counter is Sequential
//! outright: the count is the iteration order. Non-parallel nests
//! additionally emit an **SA008** note.

use spf_computation::{Computation, Kernel, ListOrderSpec, Stmt};
use spf_ir::{Constraint, LinExpr, VarId};

use crate::diag::{Code, Diagnostic};
use crate::refute::Prover;
use crate::{stmt_systems, Ctx, NestReport, Parallelism, StmtSystem};

pub(crate) fn classify(
    comp: &Computation,
    cx: &Ctx<'_>,
    out: &mut Vec<Diagnostic>,
) -> Vec<NestReport> {
    let mut normalized = comp.clone();
    normalized.normalize_groups();
    let stmts = &normalized.stmts;
    let counters: Vec<&str> = comp.counters().collect();

    let mut nests = Vec::new();
    let mut i = 0;
    while i < stmts.len() {
        if stmts[i].kernel.is_setup() {
            i += 1;
            continue;
        }
        let head = &stmts[i];
        let mut members = vec![i];
        let mut j = i + 1;
        while head.find.is_none()
            && j < stmts.len()
            && stmts[j].fuse_group == head.fuse_group
            && !stmts[j].kernel.is_setup()
            && stmts[j].find.is_none()
            && stmts[j].iter_space == head.iter_space
        {
            members.push(j);
            j += 1;
        }
        nests.push(analyze_nest(stmts, &members, &counters, cx, out));
        i = j;
    }
    nests
}

/// One indexed access inside a nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessKind {
    /// Plain store (`uf[idx] = v`, `Copy`).
    Assign,
    /// Store of a constant (`mark[idx] = 1`) — idempotent, and
    /// commutes with stores of the same constant.
    Mark(i64),
    /// `uf[idx] = min(uf[idx], v)` — commutative and idempotent.
    Min,
    /// `uf[idx] = max(uf[idx], v)`.
    Max,
    /// `y[idx] += a*x` — commutative accumulation.
    Acc,
    /// Read.
    Read,
}

struct Access {
    name: String,
    idx: LinExpr,
    kind: AccessKind,
}

fn analyze_nest(
    stmts: &[Stmt],
    members: &[usize],
    counters: &[&str],
    cx: &Ctx<'_>,
    out: &mut Vec<Diagnostic>,
) -> NestReport {
    let label = members
        .iter()
        .map(|&m| stmts[m].label.as_str())
        .collect::<Vec<_>>()
        .join(" + ");
    let systems = stmt_systems(&stmts[members[0]], &cx.axioms);
    let prover = cx.prover();

    // Names written through an index in this nest: only accesses to these
    // can participate in a loop-carried conflict.
    let mut written: Vec<String> = Vec::new();
    for &m in members {
        match &stmts[m].kernel {
            Kernel::UfWrite { uf, .. }
            | Kernel::UfMin { uf, .. }
            | Kernel::UfMax { uf, .. } => written.push(uf.clone()),
            Kernel::Copy { dst, .. } => written.push(dst.clone()),
            Kernel::DataAxpy { y, .. } => written.push(y.clone()),
            _ => {}
        }
    }

    let mut verdict = Parallelism::Parallel;
    let mut reasons: Vec<String> = Vec::new();
    let mut bump = |verdict: &mut Parallelism, v: Parallelism, reason: String| {
        if v > *verdict {
            *verdict = v;
        }
        reasons.push(reason);
    };

    let counter = counters.iter().find(|c| stmts[members[0]].binds_counter(c));
    if let Some(c) = counter {
        bump(
            &mut verdict,
            Parallelism::Sequential,
            format!("binds compaction counter `{c}`, which counts in iteration order"),
        );
    }
    let scanned = if counter.is_some() { &[][..] } else { members };

    let mut accesses: Vec<Access> = Vec::new();
    for &m in scanned {
        let stmt = &stmts[m];
        match &stmt.kernel {
            Kernel::UfWrite { uf, idx, value } => accesses.push(Access {
                name: uf.clone(),
                idx: idx.clone(),
                kind: value.as_constant().map_or(AccessKind::Assign, AccessKind::Mark),
            }),
            Kernel::UfMin { uf, idx, .. } => accesses.push(Access {
                name: uf.clone(),
                idx: idx.clone(),
                kind: AccessKind::Min,
            }),
            Kernel::UfMax { uf, idx, .. } => accesses.push(Access {
                name: uf.clone(),
                idx: idx.clone(),
                kind: AccessKind::Max,
            }),
            Kernel::Copy { dst, dst_idx, src, src_idx } => {
                accesses.push(Access {
                    name: dst.clone(),
                    idx: dst_idx.clone(),
                    kind: AccessKind::Assign,
                });
                if written.contains(src) {
                    accesses.push(Access {
                        name: src.clone(),
                        idx: src_idx.clone(),
                        kind: AccessKind::Read,
                    });
                }
            }
            Kernel::DataAxpy { y, y_idx, a, a_idx, x, x_idx } => {
                accesses.push(Access {
                    name: y.clone(),
                    idx: y_idx.clone(),
                    kind: AccessKind::Acc,
                });
                for (n, ix) in [(a, a_idx), (x, x_idx)] {
                    if written.contains(n) {
                        accesses.push(Access {
                            name: n.clone(),
                            idx: ix.clone(),
                            kind: AccessKind::Read,
                        });
                    }
                }
            }
            Kernel::ListInsert { list, .. } => {
                let order = stmts.iter().find_map(|s| match &s.kernel {
                    Kernel::ListDecl { list: l, order, .. } if l == list => {
                        Some(order.clone())
                    }
                    _ => None,
                });
                match order {
                    Some(ListOrderSpec::Insertion) | None => bump(
                        &mut verdict,
                        Parallelism::Sequential,
                        format!(
                            "inserts into `{list}` whose insertion order is semantic"
                        ),
                    ),
                    Some(_) => bump(
                        &mut verdict,
                        Parallelism::Reduction,
                        format!(
                            "inserts into `{list}` commute up to its finalize sort"
                        ),
                    ),
                }
            }
            _ => {}
        }
        // Value/index expressions reading a UF that this nest writes
        // (e.g. the monotonicity sweep reading its own pointer array).
        let mut calls = Vec::new();
        for e in crate::kernel_exprs(&stmt.kernel) {
            crate::refute::collect_calls_in_expr(e, &mut calls);
        }
        for call in calls {
            if call.args.len() == 1 && written.contains(&call.name) {
                accesses.push(Access {
                    name: call.name.clone(),
                    idx: call.args[0].clone(),
                    kind: AccessKind::Read,
                });
            }
        }
    }

    'pairs: for ai in 0..accesses.len() {
        for bi in ai..accesses.len() {
            let (a, b) = (&accesses[ai], &accesses[bi]);
            if a.name != b.name {
                continue;
            }
            if a.kind == AccessKind::Read && b.kind == AccessKind::Read {
                continue;
            }
            let candidate = match (a.kind, b.kind) {
                (AccessKind::Mark(x), AccessKind::Mark(y)) if x == y => Parallelism::Parallel,
                (AccessKind::Min, AccessKind::Min)
                | (AccessKind::Max, AccessKind::Max)
                | (AccessKind::Acc, AccessKind::Acc) => Parallelism::Reduction,
                _ => Parallelism::Sequential,
            };
            if candidate <= verdict {
                continue;
            }
            if conflicts(&prover, &systems, a, b, ai == bi) {
                let what = match candidate {
                    Parallelism::Reduction => "commutative loop-carried conflict",
                    _ => "loop-carried conflict",
                };
                bump(&mut verdict, candidate, format!("{what} on `{}`", a.name));
                if verdict == Parallelism::Sequential {
                    break 'pairs;
                }
            }
        }
    }

    let reason = if reasons.is_empty() {
        "no loop-carried dependences".to_string()
    } else {
        reasons.join("; ")
    };
    if verdict != Parallelism::Parallel {
        out.push(
            Diagnostic::new(
                Code::Sa008,
                format!("loop nest is {verdict}: {reason}"),
            )
            .with_stmt(&label),
        );
    }
    NestReport {
        label,
        stmt_indices: members.to_vec(),
        parallelism: verdict,
        reason,
    }
}

/// Tests whether accesses `a` (at iteration `x`) and `b` (at a strictly
/// different iteration `x'`) can touch the same location. Returns `false`
/// only when every lexicographic order case is refuted.
fn conflicts(
    prover: &Prover<'_>,
    systems: &[StmtSystem],
    a: &Access,
    b: &Access,
    same_access: bool,
) -> bool {
    for sys in systems {
        let off = sys.n_vars as u32;
        let mut base = sys.constraints.clone();
        base.extend(
            sys.constraints
                .iter()
                .map(|c| c.map_vars(&mut |v| LinExpr::var(VarId(v.0 + off)))),
        );
        let b_primed = b.idx.map_vars(&mut |v| LinExpr::var(VarId(v.0 + off)));
        base.push(Constraint::eq(a.idx.clone(), b_primed));
        if !all_orders_refuted(prover, &base, sys.tuple_len, off, false) {
            return true;
        }
        // For a self-pair the swapped direction is symmetric; for
        // distinct accesses both relative orders must be refuted.
        if !same_access && !all_orders_refuted(prover, &base, sys.tuple_len, off, true) {
            return true;
        }
    }
    false
}

/// Case-splits `x ≺ x'` (or `x' ≺ x` when `swapped`) lexicographically
/// over the iteration-order positions and refutes every case.
fn all_orders_refuted(
    prover: &Prover<'_>,
    base: &[Constraint],
    tuple_len: usize,
    off: u32,
    swapped: bool,
) -> bool {
    for d in 0..tuple_len {
        let mut sys = base.to_vec();
        for t in 0..d {
            sys.push(Constraint::eq(
                LinExpr::var(VarId(t as u32)),
                LinExpr::var(VarId(t as u32 + off)),
            ));
        }
        let (lo, hi) = if swapped {
            (d as u32 + off, d as u32)
        } else {
            (d as u32, d as u32 + off)
        };
        sys.push(Constraint::lt(LinExpr::var(VarId(lo)), LinExpr::var(VarId(hi))));
        if !prover.refutes(&sys) {
            return false;
        }
    }
    true
}
