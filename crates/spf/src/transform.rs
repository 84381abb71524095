//! Composable SPF transformations (§3.3 of the paper).
//!
//! The initial synthesized loop chain is correct but slow; these passes
//! implement the optimizations the paper applies:
//!
//! * [`remove_redundant`] — "if multiple statements cover the same data
//!   space we remove all but one of them" (e.g. the min *and* max updates
//!   both populating CSR's `rowptr`).
//! * [`dead_code_elimination`] — backward traversal of the dataflow graph
//!   from the live-out data spaces; this is what removes the permutation
//!   `P` when the source ordering already implies the destination
//!   ordering (the COO→CSR fast path).
//! * [`fuse_loops`] — read-reduction and producer–consumer fusion of
//!   adjacent statements with identical iteration spaces, subject to a
//!   conservative dependence test. DIA's copy loop correctly does *not*
//!   fuse with the loop building `off`, reproducing the limitation the
//!   paper reports.

use std::collections::BTreeSet;

use spf_ir::formula::Set;

use crate::computation::Computation;
use crate::stmt::Kernel;

/// Removes duplicate statements (identical kernel and iteration space),
/// and collapses min/max statement pairs that populate the same index
/// array over the same iteration space down to the min statement — the
/// paper's "same data space" redundancy rule. The remaining monotonic
/// enforcement (a sweep) reconstructs what the removed update provided.
///
/// Returns the number of statements removed.
pub fn remove_redundant(comp: &mut Computation) -> usize {
    let before = comp.stmts.len();
    // Exact duplicates.
    let mut seen: Vec<(Kernel, Set)> = Vec::new();
    comp.stmts.retain(|s| {
        let key = (s.kernel.clone(), s.iter_space.clone());
        if seen.contains(&key) {
            false
        } else {
            seen.push(key);
            true
        }
    });
    // Min/max pairs over one data space: keep the min.
    let mut kept_min: BTreeSet<(String, String)> = BTreeSet::new();
    for s in &comp.stmts {
        if let Kernel::UfMin { uf, .. } = &s.kernel {
            kept_min.insert((uf.clone(), s.iter_space.to_string()));
        }
    }
    comp.stmts.retain(|s| {
        if let Kernel::UfMax { uf, .. } = &s.kernel {
            !kept_min.contains(&(uf.clone(), s.iter_space.to_string()))
        } else {
            true
        }
    });
    before - comp.stmts.len()
}

/// Backward dead-code elimination from `comp.live_out`.
///
/// A statement is live when it writes a name in the live set; its reads
/// then join the live set. Everything else — including `OrderedList`
/// declarations, insert loops and finalizes for a permutation nobody
/// reads — is removed. Returns the number of statements removed.
pub fn dead_code_elimination(comp: &mut Computation) -> usize {
    let before = comp.stmts.len();
    let mut live = comp.live_out.clone();
    let mut keep = vec![false; comp.stmts.len()];
    for (k, s) in comp.stmts.iter().enumerate().rev() {
        let writes = s.writes();
        if writes.iter().any(|w| live.contains(w)) {
            keep[k] = true;
            live.extend(s.reads());
        }
    }
    let mut it = keep.iter();
    comp.stmts.retain(|_| *it.next().expect("keep mask length"));
    before - comp.stmts.len()
}

/// Returns `true` when statement `b` may join a fusion group ending in
/// statement `a` (same iteration space assumed):
///
/// * no flow dependence: `b` must not read anything `a` writes — a read
///   of `a`'s output would observe partially-populated state inside the
///   fused loop (this is what keeps DIA's copy loop apart from the `off`
///   loop);
/// * no anti dependence: `b` must not write anything `a` reads;
/// * no output dependence: they must not write a common name.
fn fusable(a: &crate::stmt::Stmt, b: &crate::stmt::Stmt) -> bool {
    if a.find.is_some() || b.find.is_some() {
        return false;
    }
    let aw = a.writes();
    let ar = a.reads();
    let bw = b.writes();
    let br = b.reads();
    aw.intersection(&br).next().is_none()
        && bw.intersection(&ar).next().is_none()
        && aw.intersection(&bw).next().is_none()
}

/// Greedy fusion of adjacent loop statements with identical iteration
/// spaces: both read-reduction fusion (the statements re-read the same
/// index arrays while scanning the same space) and producer–consumer
/// fusion fall out of the adjacency + dependence test. Returns the number
/// of fused groups formed.
pub fn fuse_loops(comp: &mut Computation) -> usize {
    comp.normalize_groups();
    let mut groups = 0;
    let mut i = 0;
    while i < comp.stmts.len() {
        if comp.stmts[i].kernel.is_setup() {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        while j < comp.stmts.len() {
            let candidate = &comp.stmts[j];
            if candidate.kernel.is_setup()
                || candidate.iter_space != comp.stmts[i].iter_space
            {
                break;
            }
            // The candidate must be fusable with every member so far.
            if !(i..j).all(|m| fusable(&comp.stmts[m], &comp.stmts[j])) {
                break;
            }
            j += 1;
        }
        if j > i + 1 {
            let g = comp.stmts[i].fuse_group;
            for s in &mut comp.stmts[i..j] {
                s.fuse_group = g;
            }
            groups += 1;
        }
        i = j;
    }
    groups
}

/// Applies the full §3.3 optimization pipeline in the paper's order:
/// redundancy removal, dead-code elimination, then fusion. Returns
/// `(removed_redundant, removed_dead, fused_groups)`.
pub fn optimize(comp: &mut Computation) -> (usize, usize, usize) {
    let r = remove_redundant(comp);
    let d = dead_code_elimination(comp);
    let f = fuse_loops(comp);
    (r, d, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stmt::Stmt;
    use spf_ir::expr::{LinExpr, VarId};
    use spf_ir::parse_set;
    use spf_ir::UfCall;

    fn space(src: &str) -> Set {
        let mut s = parse_set(src).unwrap();
        s.simplify();
        s
    }

    fn uf_write(uf: &str, space_src: &str) -> Stmt {
        Stmt::new(
            format!("write {uf}"),
            Kernel::UfWrite {
                uf: uf.into(),
                idx: LinExpr::var(VarId(0)),
                value: LinExpr::var(VarId(0)),
            },
            space(space_src),
        )
    }

    #[test]
    fn dce_keeps_transitive_producers() {
        let mut comp = Computation::new();
        // temp <- source; out <- temp; dead <- source.
        comp.add_stmt(Stmt::new(
            "make temp",
            Kernel::UfWrite {
                uf: "temp".into(),
                idx: LinExpr::var(VarId(0)),
                value: LinExpr::uf(UfCall::new("source", vec![LinExpr::var(VarId(0))])),
            },
            space("{ [n] : 0 <= n < NNZ }"),
        ));
        comp.add_stmt(Stmt::new(
            "make out",
            Kernel::UfWrite {
                uf: "out".into(),
                idx: LinExpr::var(VarId(0)),
                value: LinExpr::uf(UfCall::new("temp", vec![LinExpr::var(VarId(0))])),
            },
            space("{ [n] : 0 <= n < NNZ }"),
        ));
        comp.add_stmt(Stmt::new(
            "make dead",
            Kernel::UfWrite {
                uf: "dead".into(),
                idx: LinExpr::var(VarId(0)),
                value: LinExpr::uf(UfCall::new("source", vec![LinExpr::var(VarId(0))])),
            },
            space("{ [n] : 0 <= n < NNZ }"),
        ));
        comp.mark_live("out");
        let removed = dead_code_elimination(&mut comp);
        assert_eq!(removed, 1);
        assert_eq!(comp.stmts.len(), 2);
        assert!(comp.stmts.iter().all(|s| !s.writes().contains("dead")));
    }

    #[test]
    fn dce_removes_unused_permutation_chain() {
        let mut comp = Computation::new();
        comp.add_stmt(Stmt::new(
            "decl P",
            Kernel::ListDecl {
                list: "P".into(),
                width: 2,
                order: crate::stmt::ListOrderSpec::Lexicographic,
                unique: false,
            },
            Set::universe(vec![]),
        ));
        comp.add_stmt(Stmt::new(
            "insert P",
            Kernel::ListInsert {
                list: "P".into(),
                args: vec![LinExpr::var(VarId(0))],
            },
            space("{ [n] : 0 <= n < NNZ }"),
        ));
        comp.add_stmt(Stmt::new(
            "finalize P",
            Kernel::ListFinalize { list: "P".into() },
            Set::universe(vec![]),
        ));
        comp.add_stmt(uf_write("col2", "{ [n] : 0 <= n < NNZ }"));
        comp.mark_live("col2");
        dead_code_elimination(&mut comp);
        assert_eq!(comp.stmts.len(), 1);
        assert_eq!(comp.stmts[0].label, "write col2");
    }

    #[test]
    fn redundant_min_max_pair_collapses_to_min() {
        let sp = "{ [n] : 0 <= n < NNZ }";
        let mut comp = Computation::new();
        comp.add_stmt(Stmt::new(
            "min rowptr",
            Kernel::UfMin {
                uf: "rowptr".into(),
                idx: LinExpr::var(VarId(0)),
                value: LinExpr::var(VarId(0)),
            },
            space(sp),
        ));
        comp.add_stmt(Stmt::new(
            "max rowptr",
            Kernel::UfMax {
                uf: "rowptr".into(),
                idx: LinExpr::var(VarId(0)).add(&LinExpr::constant(1)),
                value: LinExpr::var(VarId(0)).add(&LinExpr::constant(1)),
            },
            space(sp),
        ));
        let removed = remove_redundant(&mut comp);
        assert_eq!(removed, 1);
        assert!(matches!(comp.stmts[0].kernel, Kernel::UfMin { .. }));
    }

    #[test]
    fn exact_duplicates_removed() {
        let mut comp = Computation::new();
        comp.add_stmt(uf_write("a", "{ [n] : 0 <= n < NNZ }"));
        comp.add_stmt(uf_write("a", "{ [n] : 0 <= n < NNZ }"));
        assert_eq!(remove_redundant(&mut comp), 1);
    }

    #[test]
    fn fusion_joins_independent_writers() {
        let sp = "{ [n] : 0 <= n < NNZ }";
        let mut comp = Computation::new();
        comp.add_stmt(uf_write("a", sp));
        comp.add_stmt(uf_write("b", sp));
        comp.add_stmt(uf_write("c", sp));
        assert_eq!(fuse_loops(&mut comp), 1);
        let g = comp.stmts[0].fuse_group;
        assert!(comp.stmts.iter().all(|s| s.fuse_group == g));
        let c = comp.codegen("fused").unwrap();
        assert_eq!(c.matches("for (").count(), 1);
    }

    #[test]
    fn fusion_blocked_by_flow_dependence() {
        let sp = "{ [n] : 0 <= n < NNZ }";
        let mut comp = Computation::new();
        comp.add_stmt(uf_write("off", sp));
        // Reads `off` — like DIA's copy loop; must not fuse.
        comp.add_stmt(Stmt::new(
            "copy",
            Kernel::UfWrite {
                uf: "out".into(),
                idx: LinExpr::var(VarId(0)),
                value: LinExpr::uf(UfCall::new("off", vec![LinExpr::var(VarId(0))])),
            },
            space(sp),
        ));
        assert_eq!(fuse_loops(&mut comp), 0);
        let c = comp.codegen("unfused").unwrap();
        assert_eq!(c.matches("for (").count(), 2);
    }

    #[test]
    fn optimize_runs_full_pipeline() {
        let sp = "{ [n] : 0 <= n < NNZ }";
        let mut comp = Computation::new();
        comp.add_stmt(uf_write("keep", sp));
        comp.add_stmt(uf_write("keep", sp)); // duplicate
        comp.add_stmt(uf_write("dead", sp)); // dead
        comp.add_stmt(uf_write("also", sp)); // fusable with keep
        comp.mark_live("keep");
        comp.mark_live("also");
        let (r, d, f) = optimize(&mut comp);
        assert_eq!((r, d, f), (1, 1, 1));
        assert_eq!(comp.stmts.len(), 2);
    }
}
