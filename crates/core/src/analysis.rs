//! Destination-format analysis: classifying the constraints of the
//! composed relation per §3.2 of the paper.
//!
//! Given the destination descriptor's sparse-to-dense map, every
//! constraint mentioning an unknown (destination) UF is grouped under
//! that UF — reproducing Table 2 of the paper — and classified into the
//! paper's five cases:
//!
//! * **Case 1** — `uf(dense...) = f(dense...)`: a direct assignment over
//!   known coordinates.
//! * **Cases 2/3** — `uf(e) <= pos` / `pos < uf(e + 1)`: pointer bounds
//!   (CSR's `rowptr`), lowered to min/max updates.
//! * **Case 4** — `uf(pos) = f(dense...)`: a write at the nonzero's
//!   destination position (CSR's `col2`, MCOO's `row_m`/`col_m`), where
//!   the position comes from the permutation `P`.
//! * **Case 5** — `uf(v) = f(dense...)` with `v` otherwise unconstrained
//!   (DIA's `off(d) = j - i`): the values are collected into a unique
//!   ordered list, and `v` is later *recovered by search* in the copy
//!   loop.
//!
//! Destination tuple variables are classified alongside: aliases of dense
//! coordinates (`ii = i`), the storage *position* variable (the one the
//! data access relation exposes), and *find* variables bound through
//! Case 5 membership.

use std::collections::BTreeMap;
use std::fmt;

use sparse_formats::FormatDescriptor;
use spf_ir::constraint::Constraint;
use spf_ir::expr::{Atom, LinExpr, VarId};

/// Classification of one destination sparse-tuple variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DstVarKind {
    /// Equal to dense dimension `d` (e.g. CSR's `ii = i`).
    DenseAlias(usize),
    /// The storage-position variable: the data access relation's index
    /// (CSR's `k`, COO's `n2`). Its value is the nonzero's rank in the
    /// destination order.
    Position,
    /// Bound only through a Case-5 membership equation on the named UF
    /// (DIA's `d` via `off(d) = j - i`); recovered by search.
    Find {
        /// The searched UF.
        uf: String,
    },
}

/// A Case 1/4 equality: write `value` at `uf[arg]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteRule {
    /// Destination index array.
    pub uf: String,
    /// Index expression over destination tuple variables.
    pub arg: LinExpr,
    /// Stored value over destination tuple variables (aliases of dense
    /// coordinates).
    pub value: LinExpr,
    /// `true` when `arg` mentions the position variable (Case 4);
    /// `false` for pure dense-coordinate writes (Case 1).
    pub uses_position: bool,
}

/// A Case 2/3 inequality on a pointer-style UF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundRule {
    /// Destination index array (e.g. `rowptr`).
    pub uf: String,
    /// Index expression over destination tuple variables.
    pub arg: LinExpr,
    /// Bound value over destination tuple variables (mentions the
    /// position variable).
    pub value: LinExpr,
    /// `true` for Case 2 (`uf(arg) <= value`, lowered to a min update);
    /// `false` for Case 3 (`uf(arg) >= value`, lowered to a max update).
    pub is_min: bool,
}

/// A Case 5 membership equation `uf(var) = value`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipRule {
    /// The UF whose value set is collected (e.g. `off`).
    pub uf: String,
    /// The find variable (destination tuple index).
    pub var: usize,
    /// Inserted value over destination tuple variables (aliases).
    pub value: LinExpr,
}

/// The full analysis of a destination format.
#[derive(Debug, Clone)]
pub struct DstAnalysis {
    /// Per destination sparse-tuple variable.
    pub var_kinds: Vec<DstVarKind>,
    /// The data index as an expression over destination tuple variables.
    pub data_index: LinExpr,
    /// Case 1/4 writes.
    pub writes: Vec<WriteRule>,
    /// Case 2/3 bounds.
    pub bounds: Vec<BoundRule>,
    /// Case 5 memberships.
    pub memberships: Vec<MembershipRule>,
    /// Table 2: for each unknown UF, the constraints that mention it
    /// (rendered in the descriptor's variable names).
    pub constraint_table: BTreeMap<String, Vec<String>>,
}

/// Errors raised during destination analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// The data access relation does not define its output index.
    NoDataIndex,
    /// A constraint shape falls outside Cases 1–5.
    UnsupportedConstraint(String),
    /// A destination tuple variable could not be classified.
    UnclassifiedVar(String),
    /// The descriptor has more than one conjunction (unions are not
    /// supported as destinations).
    UnionDestination,
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::NoDataIndex => {
                write!(f, "data access relation does not define its output index")
            }
            AnalysisError::UnsupportedConstraint(c) => {
                write!(f, "constraint outside Cases 1-5: {c}")
            }
            AnalysisError::UnclassifiedVar(v) => {
                write!(f, "destination tuple variable `{v}` could not be classified")
            }
            AnalysisError::UnionDestination => {
                write!(f, "destination formats with unions are not supported")
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Splits `expr = 0` into `(uf_call, sign, rest)` when the expression has
/// exactly one top-level term that is a call to a UF declared by `desc`:
/// `sign * uf(args) + rest = expr`.
fn single_uf_term(
    e: &LinExpr,
    desc: &FormatDescriptor,
) -> Option<(spf_ir::UfCall, i64, LinExpr)> {
    let mut found: Option<(spf_ir::UfCall, i64)> = None;
    let mut rest = LinExpr::constant(e.constant);
    for (c, a) in &e.terms {
        match a {
            Atom::Uf(u) if desc.ufs.contains(&u.name) => {
                if found.is_some() || c.abs() != 1 {
                    return None; // two UF terms or non-unit coefficient
                }
                found = Some((u.clone(), *c));
            }
            other => {
                rest.terms.push((*c, other.clone()));
            }
        }
    }
    rest.canonicalize();
    found.map(|(u, s)| (u, s, rest))
}

/// Returns `true` when `e` only mentions variables for which
/// `allowed(var)` holds.
fn vars_all(e: &LinExpr, allowed: impl Fn(usize) -> bool) -> bool {
    let mut vars = Vec::new();
    e.collect_vars(&mut vars);
    vars.iter().all(|v| allowed(v.index()))
}

/// Analyzes a destination descriptor.
///
/// # Errors
/// Returns an [`AnalysisError`] when the descriptor's constraints fall
/// outside the supported fragment.
pub fn analyze_destination(desc: &FormatDescriptor) -> Result<DstAnalysis, AnalysisError> {
    let rel = &desc.sparse_to_dense;
    if rel.conjunctions().len() != 1 {
        return Err(AnalysisError::UnionDestination);
    }
    let s = rel.in_arity() as usize; // destination sparse tuple arity
    let rank = rel.out_arity() as usize;
    let conj = &rel.conjunctions()[0];
    let names = rel.names_for(0);

    // The data index over destination tuple variables.
    let da = &desc.data_access;
    let da_conj = da
        .conjunctions()
        .first()
        .ok_or(AnalysisError::NoDataIndex)?;
    let data_index = da_conj
        .defining_equality(VarId(da.in_arity()))
        .ok_or(AnalysisError::NoDataIndex)?;

    // Pass 1: dense aliases (`ii = i`).
    let mut var_kinds: Vec<Option<DstVarKind>> = vec![None; s];
    for c in &conj.constraints {
        let Constraint::Eq(e) = c else { continue };
        // Exactly two unit terms, one dst var, one dense var.
        if e.constant != 0 || e.terms.len() != 2 {
            continue;
        }
        let (c0, a0) = &e.terms[0];
        let (c1, a1) = &e.terms[1];
        if c0.abs() != 1 || c1.abs() != 1 || c0 + c1 != 0 {
            continue;
        }
        if let (Atom::Var(x), Atom::Var(y)) = (a0, a1) {
            let (dst, dense) = if (x.index()) < s && y.index() >= s {
                (x.index(), y.index() - s)
            } else if y.index() < s && x.index() >= s {
                (y.index(), x.index() - s)
            } else {
                continue;
            };
            if dense < rank {
                var_kinds[dst] = Some(DstVarKind::DenseAlias(dense));
            }
        }
    }

    // The position variable: the data index when it is a single variable,
    // otherwise every non-alias variable of the data index is either a
    // find variable (classified below) or an alias.
    if let Some(v) = data_index.as_single_var() {
        if v.index() < s && var_kinds[v.index()].is_none() {
            var_kinds[v.index()] = Some(DstVarKind::Position);
        }
    }

    // "Known" variables are dense coordinates and their aliases; the
    // position variable is known only to bound values (Cases 2/3).
    fn known(idx: usize, s: usize, rank: usize, kinds: &[Option<DstVarKind>]) -> bool {
        (idx >= s && idx < s + rank)
            || matches!(kinds.get(idx), Some(Some(DstVarKind::DenseAlias(_))))
    }
    fn pos(idx: usize, kinds: &[Option<DstVarKind>]) -> bool {
        matches!(kinds.get(idx), Some(Some(DstVarKind::Position)))
    }

    // Pass 2: classify UF constraints.
    let mut writes = Vec::new();
    let mut bounds = Vec::new();
    let mut memberships = Vec::new();
    let mut constraint_table: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for c in &conj.constraints {
        // Record Table-2 rows for every constraint mentioning a dst UF.
        for uf in desc.ufs.iter() {
            if c.mentions_uf(&uf.name) {
                constraint_table
                    .entry(uf.name.clone())
                    .or_default()
                    .push(c.display_with(&names).to_string());
            }
        }
        let Some((uf_call, sign, rest)) = single_uf_term(c.expr(), desc) else {
            // No destination UF at top level: bounds over dense/alias
            // variables (0 <= i < NR, ...) need no code; anything else
            // involving a dst UF nested deeper is unsupported.
            let mentions = desc.ufs.iter().any(|u| c.mentions_uf(&u.name));
            if mentions {
                return Err(AnalysisError::UnsupportedConstraint(
                    c.display_with(&names).to_string(),
                ));
            }
            continue;
        };
        // Normalize: sign * uf(args) + rest (=|>=) 0.
        match c {
            Constraint::Eq(_) => {
                // uf(args) = -sign * rest
                let value = rest.scaled(-sign);
                if !vars_all(&value, |idx| known(idx, s, rank, &var_kinds)) {
                    return Err(AnalysisError::UnsupportedConstraint(
                        c.display_with(&names).to_string(),
                    ));
                }
                // Classify the argument.
                let mut arg_vars = Vec::new();
                for a in &uf_call.args {
                    a.collect_vars(&mut arg_vars);
                }
                let unknown_arg_vars: Vec<usize> = arg_vars
                    .iter()
                    .map(|v| v.index())
                    .filter(|&idx| !known(idx, s, rank, &var_kinds))
                    .collect();
                if unknown_arg_vars.is_empty() {
                    // Case 1: pure dense-coordinate write.
                    writes.push(WriteRule {
                        uf: uf_call.name.clone(),
                        arg: uf_call.args[0].clone(),
                        value,
                        uses_position: false,
                    });
                } else if unknown_arg_vars.iter().all(|&idx| pos(idx, &var_kinds)) {
                    // Case 4: write at the storage position.
                    writes.push(WriteRule {
                        uf: uf_call.name.clone(),
                        arg: uf_call.args[0].clone(),
                        value,
                        uses_position: true,
                    });
                } else if unknown_arg_vars.len() == 1
                    && uf_call.args.len() == 1
                    && uf_call.args[0].as_single_var().is_some()
                {
                    // Case 5: membership equation; the variable is bound
                    // by search.
                    let var = unknown_arg_vars[0];
                    var_kinds[var] =
                        Some(DstVarKind::Find { uf: uf_call.name.clone() });
                    memberships.push(MembershipRule {
                        uf: uf_call.name.clone(),
                        var,
                        value,
                    });
                } else {
                    return Err(AnalysisError::UnsupportedConstraint(
                        c.display_with(&names).to_string(),
                    ));
                }
            }
            Constraint::Geq(_) => {
                // sign * uf(args) + rest >= 0.
                // sign = -1:  uf(args) <= rest       => min update (Case 2)
                // sign = +1:  uf(args) >= -rest      => max update (Case 3)
                let (is_min, value) = if sign < 0 {
                    (true, rest.clone())
                } else {
                    (false, rest.scaled(-1))
                };
                if !vars_all(&value, |idx| {
                    known(idx, s, rank, &var_kinds) || pos(idx, &var_kinds)
                }) || !uf_call
                    .args
                    .iter()
                    .all(|a| vars_all(a, |idx| known(idx, s, rank, &var_kinds)))
                {
                    return Err(AnalysisError::UnsupportedConstraint(
                        c.display_with(&names).to_string(),
                    ));
                }
                bounds.push(BoundRule {
                    uf: uf_call.name.clone(),
                    arg: uf_call.args[0].clone(),
                    value,
                    is_min,
                });
            }
        }
    }

    // Every destination variable must be classified by now.
    let var_kinds: Vec<DstVarKind> = var_kinds
        .into_iter()
        .enumerate()
        .map(|(idx, k)| {
            k.ok_or_else(|| AnalysisError::UnclassifiedVar(names[idx].clone()))
        })
        .collect::<Result<_, _>>()?;

    Ok(DstAnalysis {
        var_kinds,
        data_index,
        writes,
        bounds,
        memberships,
        constraint_table,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_formats::descriptors;

    #[test]
    fn csr_analysis_matches_paper_cases() {
        let a = analyze_destination(&descriptors::csr()).unwrap();
        // [ii, k, jj]: ii aliases i, k is the position, jj aliases j.
        assert_eq!(a.var_kinds[0], DstVarKind::DenseAlias(0));
        assert_eq!(a.var_kinds[1], DstVarKind::Position);
        assert_eq!(a.var_kinds[2], DstVarKind::DenseAlias(1));
        // col2(k) = j  — one Case-4 write.
        assert_eq!(a.writes.len(), 1);
        assert!(a.writes[0].uses_position);
        assert_eq!(a.writes[0].uf, "col2");
        // rowptr(ii) <= k and k < rowptr(ii + 1) — one min, one max.
        assert_eq!(a.bounds.len(), 2);
        assert_eq!(a.bounds.iter().filter(|b| b.is_min).count(), 1);
        assert_eq!(a.bounds.iter().filter(|b| !b.is_min).count(), 1);
        assert!(a.memberships.is_empty());
    }

    #[test]
    fn coo_analysis_is_all_case4() {
        let a = analyze_destination(&descriptors::coo()).unwrap();
        assert_eq!(a.var_kinds[0], DstVarKind::Position);
        assert_eq!(a.writes.len(), 2);
        assert!(a.writes.iter().all(|w| w.uses_position));
        assert!(a.bounds.is_empty());
    }

    #[test]
    fn mcoo_constraint_table_matches_table2() {
        let a = analyze_destination(&descriptors::mcoo()).unwrap();
        // Table 2 of the paper: row_m and col_m each have constraints.
        assert!(a.constraint_table.contains_key("rowm"));
        assert!(a.constraint_table.contains_key("colm"));
        let rowm = &a.constraint_table["rowm"];
        assert!(rowm.iter().any(|c| c.contains("rowm(n)")));
    }

    #[test]
    fn dia_analysis_finds_membership() {
        let a = analyze_destination(&descriptors::dia()).unwrap();
        // [ii, d, jj]: ii aliases i, d is a find var, jj aliases j.
        assert_eq!(a.var_kinds[0], DstVarKind::DenseAlias(0));
        assert_eq!(a.var_kinds[1], DstVarKind::Find { uf: "off".into() });
        assert_eq!(a.var_kinds[2], DstVarKind::DenseAlias(1));
        assert_eq!(a.memberships.len(), 1);
        let m = &a.memberships[0];
        assert_eq!(m.uf, "off");
        // off(d) = j - i.
        let mut vars = Vec::new();
        m.value.collect_vars(&mut vars);
        assert_eq!(vars.len(), 2);
        // Data index is ND * ii + d.
        assert!(!a.data_index.terms.is_empty());
    }

    #[test]
    fn csc_analysis_mirrors_csr() {
        let a = analyze_destination(&descriptors::csc()).unwrap();
        // [jj, k, ii]: jj aliases j (dense dim 1), k position, ii aliases i.
        assert_eq!(a.var_kinds[0], DstVarKind::DenseAlias(1));
        assert_eq!(a.var_kinds[1], DstVarKind::Position);
        assert_eq!(a.var_kinds[2], DstVarKind::DenseAlias(0));
        assert_eq!(a.writes.len(), 1);
        assert_eq!(a.writes[0].uf, "row");
    }

    #[test]
    fn unsupported_constraint_shapes_are_reported() {
        use sparse_formats::descriptors::coo;
        use spf_ir::parse_relation;
        // Two destination UFs in one constraint: row1(n) = col1(n).
        let d = coo().edit(|s| {
            s.sparse_to_dense = parse_relation(
                "{ [n, ii, jj] -> [i, j] : row1(n) = col1(n) && ii = i && jj = j              && 0 <= n < NNZ }",
            )
            .unwrap();
        });
        assert!(matches!(
            analyze_destination(&d),
            Err(AnalysisError::UnsupportedConstraint(_))
        ));
        // A destination UF nested inside another constraint's UF argument.
        let d2 = coo().edit(|s| {
            s.sparse_to_dense = parse_relation(
                "{ [n, ii, jj] -> [i, j] : P(row1(n)) = 3 && ii = i && jj = j }",
            )
            .unwrap();
        });
        assert!(matches!(
            analyze_destination(&d2),
            Err(AnalysisError::UnsupportedConstraint(_))
        ));
    }

    #[test]
    fn unclassifiable_variable_is_reported() {
        use sparse_formats::descriptors::coo;
        use spf_ir::parse_relation;
        // `ii` never tied to a dense coordinate or position.
        let d = coo().edit(|s| {
            s.sparse_to_dense = parse_relation(
                "{ [n, ii, jj] -> [i, j] : row1(n) = i && col1(n) = j && jj = j              && 0 <= n < NNZ }",
            )
            .unwrap();
        });
        assert!(matches!(
            analyze_destination(&d),
            Err(AnalysisError::UnclassifiedVar(v)) if v == "ii"
        ));
    }

    #[test]
    fn coo3_and_mcoo3_analyze() {
        for d in [descriptors::coo3(), descriptors::mcoo3(), descriptors::scoo3()] {
            let a = analyze_destination(&d).unwrap();
            assert_eq!(a.writes.len(), 3, "{}", d.name);
            assert_eq!(a.var_kinds[0], DstVarKind::Position);
        }
    }
}
