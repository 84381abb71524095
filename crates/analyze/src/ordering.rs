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
//!   A pointer array may also be written as the prefix sum of counts:
//!   `ptr[e] = C(e)` over `0 <= e <= n`, read from a bucketed counter `C`
//!   after its prefix sum and before any nest advances its cursors.
//! * **SA007** — a destination order key must be established: either the
//!   plan builds the permutation `P` with a matching comparator, width,
//!   and finalize, or the source traversal order already implies the key
//!   — with contiguous data (identity-eliminated plans) or with `P` a
//!   compaction counter over padded data — or `P` is a counting
//!   placement: a counter with one bucket per value of the key's leading
//!   dimension `k0`, which must be a plain coordinate with its size symbol
//!   as the bucket count, filled by a histogram over the source scan and
//!   a prefix sum, where the source order among nonzeros that share `k0`
//!   implies the rest of the key.

use sparse_synthesis::PERM_NAME;
use spf_computation::{Computation, Kernel, ListOrderSpec, Stmt};
use spf_ir::{Atom, Comparator, Constraint, LinExpr, Monotonicity, UfCall, VarId};

use crate::diag::{Code, Diagnostic};
use crate::Ctx;

pub(crate) fn check(comp: &Computation, cx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    check_monotonicity(comp, cx, out);
    check_order_key(comp, cx, out);
}

fn check_monotonicity(comp: &Computation, cx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    let counters: Vec<&str> = comp.counters().collect();
    let placements = placements(comp, cx);
    for sig in cx.dst.ufs.iter() {
        let name = &sig.name;
        // Direct writes: each must be a counted ascending sweep, or a copy
        // of a counting placement's bucket starts.
        if let Some(m) = sig.monotonicity {
            for (i, stmt) in comp.stmts.iter().enumerate() {
                let Kernel::UfWrite { uf, .. } = &stmt.kernel else { continue };
                let starts = placements.iter().any(|p| p.copies_starts(i, stmt));
                if uf == name && !counted_sweep(stmt, &counters) && !starts {
                    out.push(
                        Diagnostic::new(
                            Code::Sa006,
                            format!(
                                "`{name}` declares a monotonic quantifier but is written \
                                 outside an ascending sweep numbered by a compaction \
                                 counter and is not the prefix sum of a counting \
                                 placement, so nothing orders its values"
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

/// A bucketed compaction counter's counting placement, as the plan builds
/// it: after the counter's declaration with `n` buckets,
///
/// 1. a histogram over the source scan, `C[key + 1] = C(key + 1) + 1`;
/// 2. a prefix sum, `C[e + 1] = C(e + 1) + C(e)` over `0 <= e < n`, which
///    leaves the start of bucket `b` in `C[b]` and the scan's point count
///    in `C[n]`;
/// 3. binding nests over the same scan points, each binding `v = C(key)`
///    (take bucket `key`'s cursor, then advance it).
///
/// No other statement writes the counter. The binding nests therefore
/// number the scan's points in scan order within each bucket and bucket
/// by bucket overall, onto `[0, C[n])`.
pub(crate) struct Placement {
    pub counter: String,
    /// Number of buckets.
    pub extent: LinExpr,
    /// A nonzero's bucket, over the scan tuple.
    pub key: LinExpr,
    /// Statement indices of the histogram and the prefix sum.
    pub count: usize,
    pub prefix: usize,
    /// The first statement whose nest binds the counter.
    pub first_binding: usize,
}

impl Placement {
    /// `true` when `stmt` (at index `i`) is `uf[e] = C(e)` over
    /// `0 <= e <= n`, run between the prefix sum and the first binding
    /// nest: it stores the bucket starts, which a prefix sum of counts
    /// makes nondecreasing.
    pub fn copies_starts(&self, i: usize, stmt: &Stmt) -> bool {
        let Kernel::UfWrite { idx, value, .. } = &stmt.kernel else { return false };
        let e = LinExpr::var(VarId(0));
        let slots = self.extent.add(&LinExpr::constant(1));
        self.prefix < i
            && i < self.first_binding
            && *idx == e
            && *value == read(&self.counter, e)
            && is_interval(&stmt.iter_space, &slots)
    }

    /// `true` for the histogram and prefix-sum statements, whose stored
    /// values are counts of the scan's points and their partial sums.
    pub fn counts(&self, i: usize) -> bool {
        i == self.count || i == self.prefix
    }
}

/// `C(arg)`.
fn read(counter: &str, arg: LinExpr) -> LinExpr {
    LinExpr::uf(UfCall::new(counter, vec![arg]))
}

/// `true` when `space` is exactly `{ [e] : 0 <= e < hi }`.
fn is_interval(space: &spf_ir::Set, hi: &LinExpr) -> bool {
    let e = LinExpr::var(VarId(0));
    let want = [Constraint::ge(e.clone(), LinExpr::zero()), Constraint::lt(e, hi.clone())];
    let [conj] = space.conjunctions() else { return false };
    space.arity() == 1
        && conj.exists().is_empty()
        && conj.constraints.len() == want.len()
        && want.iter().all(|c| conj.constraints.contains(c))
}

/// The well-formed counting placements of `comp`'s bucketed counters.
pub(crate) fn placements(comp: &Computation, cx: &Ctx<'_>) -> Vec<Placement> {
    let Some(scan) = &cx.src.scan else { return Vec::new() };
    let [points] = scan.set.conjunctions() else { return Vec::new() };
    let mut found = Vec::new();
    for (d, decl) in comp.stmts.iter().enumerate() {
        let Kernel::CounterDecl { counter, bucket: Some(n) } = &decl.kernel else { continue };
        let writers: Vec<usize> = (0..comp.stmts.len())
            .filter(|&i| match &comp.stmts[i].kernel {
                Kernel::UfWrite { uf, .. }
                | Kernel::UfMin { uf, .. }
                | Kernel::UfMax { uf, .. } => uf == counter,
                _ => false,
            })
            .collect();
        let &[count, prefix] = writers.as_slice() else { continue };
        let (Kernel::UfWrite { idx: at, value: bump, .. }, Kernel::UfWrite { idx, value, .. }) =
            (&comp.stmts[count].kernel, &comp.stmts[prefix].kernel)
        else {
            continue;
        };
        let key = at.sub(&LinExpr::constant(1));
        let e1 = LinExpr::var(VarId(0)).add(&LinExpr::constant(1));
        let histogram = d < count
            && comp.stmts[count].iter_space == scan.set
            && *bump == read(counter, at.clone()).add(&LinExpr::constant(1));
        let prefix_sum = count < prefix
            && *idx == e1
            && *value == read(counter, e1.clone()).add(&read(counter, LinExpr::var(VarId(0))))
            && is_interval(&comp.stmts[prefix].iter_space, n);
        let bindings: Vec<usize> =
            (0..comp.stmts.len()).filter(|&i| comp.stmts[i].binds_counter(counter)).collect();
        let arity = scan.set.arity();
        let bound = !bindings.is_empty()
            && bindings.iter().all(|&i| {
                prefix < i && binds_scan_points(&comp.stmts[i], counter, &key, arity, points)
            });
        if histogram && prefix_sum && bound {
            found.push(Placement {
                counter: counter.clone(),
                extent: n.clone(),
                key,
                count,
                prefix,
                first_binding: bindings[0],
            });
        }
    }
    found
}

/// `true` when `stmt`'s space is the scan's `points` extended by one
/// variable bound as `v = counter(key)`: the nest visits exactly the
/// points the histogram counted, once each.
fn binds_scan_points(
    stmt: &Stmt,
    counter: &str,
    key: &LinExpr,
    scan_arity: u32,
    points: &spf_ir::Conjunction,
) -> bool {
    let [conj] = stmt.iter_space.conjunctions() else { return false };
    let v = LinExpr::var(VarId(scan_arity));
    let binding = Constraint::eq(v, read(counter, key.clone()));
    let rest: Vec<&Constraint> = conj.constraints.iter().filter(|c| **c != binding).collect();
    stmt.find.is_none()
        && stmt.iter_space.arity() == scan_arity + 1
        && conj.exists() == points.exists()
        && rest.len() + 1 == conj.constraints.len()
        && rest.len() == points.constraints.len()
        && points.constraints.iter().all(|c| rest.contains(&c))
}

/// `true` when `placement` establishes the destination order `key`: its
/// buckets are the values of `key`'s leading dimension `k0`, a plain
/// coordinate whose size symbol is the bucket count, and the source
/// order among nonzeros that share `k0` implies the rest of `key`.
fn places_in_order(placement: &Placement, cx: &Ctx<'_>, key: &spf_ir::OrderKey) -> bool {
    let (Some(scan), Some(src_order)) = (&cx.src.scan, &cx.src.order) else { return false };
    let Some(dim) = key.bucket_dim(src_order) else { return false };
    let extent = cx.dst.dim_syms.get(dim).map(|s| LinExpr::sym(s.clone()));
    let bucket = scan.dense_pos.get(dim).map(|&p| LinExpr::var(VarId(p as u32)));
    extent.as_ref() == Some(&placement.extent) && bucket.as_ref() == Some(&placement.key)
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
        // through a compaction counter, or `P` places them by counting.
        let bucketed = comp.counter_bucket(PERM_NAME).is_some();
        let counted = comp.counters().any(|c| c == PERM_NAME);
        let implied = if bucketed {
            placements(comp, cx)
                .iter()
                .any(|p| p.counter == PERM_NAME && places_in_order(p, cx, key))
        } else {
            (cx.src.contiguous_data || counted)
                && cx.src.order.as_ref().is_some_and(|o| o.implies(key))
        };
        if !implied {
            let why = if bucketed {
                format!(
                    "places them with bucketed counter `{PERM_NAME}`, but either \
                     the counter is not filled by a histogram over the source scan \
                     and a prefix sum with one bucket per value of the key's leading \
                     coordinate, or the source order among nonzeros that share that \
                     coordinate does not imply the rest of the key"
                )
            } else if counted {
                format!(
                    "numbers them with compaction counter `{PERM_NAME}` and the \
                     source order does not imply it"
                )
            } else {
                "builds no permutation and the source order does not imply it".to_string()
            };
            out.push(
                Diagnostic::new(
                    Code::Sa007,
                    format!(
                        "destination `{}` orders nonzeros by {key} but the plan {why}",
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
