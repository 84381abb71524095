//! Sets and relations of the sparse polyhedral framework.
//!
//! A [`Set`] is a union of [`Conjunction`]s over a named integer tuple; a
//! [`Relation`] is the same over a pair of tuples. Constraints may mention
//! uninterpreted functions, which is what distinguishes the *sparse*
//! polyhedral framework from the classic affine one.
//!
//! The operations implemented here mirror the IEGenLib surface the paper
//! relies on: [`Relation::inverse`], [`Relation::compose`],
//! [`Relation::apply`], plus simplification (constraint normalization and
//! existential-variable elimination through equalities).

use std::fmt;

use crate::constraint::{normalize_all, Constraint};
use crate::expr::{LinExpr, VarId, VarNames};

/// One conjunction of constraints over `arity` tuple variables plus a list
/// of existential variables.
///
/// Variable ids `0..arity` are tuple variables; ids `arity..arity+exists`
/// are existential variables local to this conjunction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conjunction {
    arity: u32,
    exists: Vec<String>,
    /// The constraints; kept normalized and deterministically ordered by
    /// [`Conjunction::simplify`].
    pub constraints: Vec<Constraint>,
}

impl Conjunction {
    /// Creates an unconstrained conjunction over `arity` tuple variables.
    pub fn new(arity: u32) -> Self {
        Conjunction { arity, exists: Vec::new(), constraints: Vec::new() }
    }

    /// Number of tuple variables.
    pub fn arity(&self) -> u32 {
        self.arity
    }

    /// Names of the existential variables.
    pub fn exists(&self) -> &[String] {
        &self.exists
    }

    /// Total number of variables (tuple + existential).
    pub fn n_vars(&self) -> u32 {
        self.arity + self.exists.len() as u32
    }

    /// Adds a constraint.
    pub fn add(&mut self, c: Constraint) {
        self.constraints.push(c);
    }

    /// Introduces a fresh existential variable and returns its id.
    pub fn fresh_exist(&mut self, name: impl Into<String>) -> VarId {
        let id = self.n_vars();
        self.exists.push(name.into());
        VarId(id)
    }

    /// Rewrites every variable id through `f`. The caller is responsible
    /// for updating `arity`/`exists` consistently; this is the low-level
    /// building block for the relation operations.
    fn map_var_ids(&mut self, f: &impl Fn(VarId) -> VarId) {
        for c in &mut self.constraints {
            *c = c.map_vars(&mut |v| LinExpr::var(f(v)));
        }
    }

    /// If some equality defines existential `v` as `v = expr` with a unit
    /// top-level coefficient (and `v` not inside a UF argument of that same
    /// equality), returns `(constraint index, expr)`.
    fn solvable_equality(&self, v: VarId) -> Option<(usize, LinExpr)> {
        for (idx, c) in self.constraints.iter().enumerate() {
            let Constraint::Eq(e) = c else { continue };
            let coeff = e.coeff_of_var(v);
            if coeff.abs() != 1 || e.var_inside_uf(v) {
                continue;
            }
            // v = -(e - coeff*v)/coeff
            let mut rest = e.clone();
            rest.terms.retain(|(_, a)| !matches!(a, crate::expr::Atom::Var(w) if *w == v));
            let expr = rest.scaled(-coeff); // coeff is ±1 so this solves exactly
            return Some((idx, expr));
        }
        None
    }

    /// Simplifies in place. Returns `false` when the conjunction is
    /// detectably unsatisfiable (the caller should drop it).
    ///
    /// Simplification (1) canonicalizes and GCD-normalizes every
    /// constraint, (2) eliminates existential variables that are defined by
    /// an equality, and (3) compacts away unused existential variables.
    pub fn simplify(&mut self) -> bool {
        loop {
            if normalize_all(&mut self.constraints).is_none() {
                return false;
            }
            // Try to eliminate one existential variable per round.
            let mut changed = false;
            for raw in self.arity..self.n_vars() {
                let v = VarId(raw);
                if let Some((idx, expr)) = self.solvable_equality(v) {
                    // Don't self-substitute (expr must not mention v; it
                    // can't, since we removed v's top-level term and v was
                    // not inside a UF arg of this constraint — but it may
                    // appear in *other* UF args of the same expr).
                    if expr.uses_var(v) {
                        continue;
                    }
                    self.constraints.remove(idx);
                    for c in &mut self.constraints {
                        *c = c.substitute_var(v, &expr);
                    }
                    changed = true;
                    break;
                }
            }
            if !changed {
                break;
            }
        }
        self.compact_exists();
        normalize_all(&mut self.constraints).is_some()
    }

    /// Removes existential variables that no longer occur and renumbers
    /// the remaining ones densely.
    fn compact_exists(&mut self) {
        let n = self.n_vars();
        let mut used = vec![false; n as usize];
        let mut buf = Vec::new();
        for c in &self.constraints {
            buf.clear();
            c.expr().collect_vars(&mut buf);
            for v in &buf {
                if v.0 < n {
                    used[v.index()] = true;
                }
            }
        }
        let mut remap: Vec<Option<u32>> = vec![None; n as usize];
        for i in 0..self.arity {
            remap[i as usize] = Some(i);
        }
        let mut next = self.arity;
        let mut new_exists = Vec::new();
        for (k, name) in self.exists.iter().enumerate() {
            let old = self.arity as usize + k;
            if used[old] {
                remap[old] = Some(next);
                new_exists.push(name.clone());
                next += 1;
            }
        }
        if new_exists.len() == self.exists.len() {
            return;
        }
        self.exists = new_exists;
        self.map_var_ids(&|v| VarId(remap[v.index()].expect("used var must be mapped")));
    }

    /// Embeds this conjunction into a larger variable space via `f`,
    /// producing constraints only (arity bookkeeping is the caller's).
    fn remapped_constraints(&self, f: &impl Fn(VarId) -> VarId) -> Vec<Constraint> {
        self.constraints
            .iter()
            .map(|c| c.map_vars(&mut |v| LinExpr::var(f(v))))
            .collect()
    }

    /// Returns equality-defined expression for tuple variable `v` in terms
    /// of the remaining variables, if one exists (used by code generation to
    /// emit `let` bindings such as `j = col(k)`).
    pub fn defining_equality(&self, v: VarId) -> Option<LinExpr> {
        self.solvable_equality(v).map(|(_, e)| e)
    }
}

/// A union of conjunctions over one named tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Set {
    tuple: Vec<String>,
    conjs: Vec<Conjunction>,
}

impl Set {
    /// Creates a set with the given tuple variable names and a single
    /// unconstrained conjunction.
    pub fn universe(tuple: Vec<String>) -> Self {
        let arity = tuple.len() as u32;
        Set { tuple, conjs: vec![Conjunction::new(arity)] }
    }

    /// Creates a set from explicit conjunctions.
    pub fn from_conjunctions(tuple: Vec<String>, conjs: Vec<Conjunction>) -> Self {
        debug_assert!(conjs.iter().all(|c| c.arity() == tuple.len() as u32));
        Set { tuple, conjs }
    }

    /// An empty set (no conjunctions) over the given tuple.
    pub fn empty(tuple: Vec<String>) -> Self {
        Set { tuple, conjs: Vec::new() }
    }

    /// Tuple variable names.
    pub fn tuple(&self) -> &[String] {
        &self.tuple
    }

    /// Tuple arity.
    pub fn arity(&self) -> u32 {
        self.tuple.len() as u32
    }

    /// The conjunctions of the union.
    pub fn conjunctions(&self) -> &[Conjunction] {
        &self.conjs
    }

    /// Mutable access to the conjunctions.
    pub fn conjunctions_mut(&mut self) -> &mut Vec<Conjunction> {
        &mut self.conjs
    }

    /// Returns `true` if the set has no conjunctions (syntactically empty).
    pub fn is_empty(&self) -> bool {
        self.conjs.is_empty()
    }

    /// Union with another set over an identically named tuple (tuple names
    /// of `other` are ignored; arities must match).
    pub fn union(mut self, other: Set) -> Set {
        assert_eq!(self.arity(), other.arity(), "union arity mismatch");
        self.conjs.extend(other.conjs);
        self
    }

    /// Simplifies every conjunction, dropping unsatisfiable ones.
    pub fn simplify(&mut self) {
        self.conjs.retain_mut(|c| c.simplify());
    }

    /// Intersection with another set of the same arity: the cross product
    /// of conjunction pairs, each simplified (unsatisfiable pairs drop).
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn intersect(&self, other: &Set) -> Set {
        assert_eq!(self.arity(), other.arity(), "intersect arity mismatch");
        let arity = self.arity();
        let mut conjs = Vec::new();
        for a in &self.conjs {
            for b in &other.conjs {
                let mut nc = Conjunction::new(arity);
                let a_ex = a.exists.len() as u32;
                nc.exists.extend(a.exists.iter().cloned());
                nc.exists.extend(b.exists.iter().cloned());
                nc.constraints.extend(a.remapped_constraints(&|v: VarId| v));
                nc.constraints.extend(b.remapped_constraints(&|v: VarId| {
                    if v.0 < arity {
                        v
                    } else {
                        VarId(v.0 + a_ex)
                    }
                }));
                if nc.simplify() {
                    conjs.push(nc);
                }
            }
        }
        Set { tuple: self.tuple.clone(), conjs }
    }

    /// Variable names (tuple followed by a conjunction's existentials) for
    /// display of conjunction `k`.
    pub fn names_for(&self, k: usize) -> Vec<String> {
        let mut names = self.tuple.clone();
        names.extend(self.conjs[k].exists().iter().cloned());
        names
    }
}

/// Shared display logic for `Set` and `Relation` bodies.
macro_rules! fmt_union_body {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            if self.conjs.is_empty() {
                write!(f, "{{ ")?;
                fmt_tuple_decl(self, f)?;
                return write!(f, " : FALSE }}");
            }
            for (k, c) in self.conjs.iter().enumerate() {
                if k > 0 {
                    write!(f, " union ")?;
                }
                write!(f, "{{ ")?;
                fmt_tuple_decl(self, f)?;
                let names = self.names_for(k);
                if !c.exists().is_empty() || !c.constraints.is_empty() {
                    write!(f, " : ")?;
                }
                if !c.exists().is_empty() {
                    write!(f, "exists({}) : ", c.exists().join(", "))?;
                }
                for (i, con) in c.constraints.iter().enumerate() {
                    if i > 0 {
                        write!(f, " && ")?;
                    }
                    write!(f, "{}", con.display_with(&names))?;
                }
                write!(f, " }}")?;
            }
            Ok(())
        }
    };
}

trait TupleDeclFmt {
    fn fmt_decl(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result;
}

impl TupleDeclFmt for Set {
    fn fmt_decl(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.tuple.join(", "))
    }
}

fn fmt_tuple_decl<T: TupleDeclFmt>(t: &T, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    t.fmt_decl(f)
}

impl fmt::Display for Set {
    fmt_union_body!();
}

/// A union of conjunctions over an input and an output tuple.
///
/// Variable ids `0..in_arity` are input tuple variables and
/// `in_arity..in_arity+out_arity` are output tuple variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    in_tuple: Vec<String>,
    out_tuple: Vec<String>,
    conjs: Vec<Conjunction>,
}

impl Relation {
    /// Creates a relation with a single unconstrained conjunction.
    pub fn universe(in_tuple: Vec<String>, out_tuple: Vec<String>) -> Self {
        let arity = (in_tuple.len() + out_tuple.len()) as u32;
        Relation { in_tuple, out_tuple, conjs: vec![Conjunction::new(arity)] }
    }

    /// Creates a relation from explicit conjunctions.
    pub fn from_conjunctions(
        in_tuple: Vec<String>,
        out_tuple: Vec<String>,
        conjs: Vec<Conjunction>,
    ) -> Self {
        debug_assert!(conjs
            .iter()
            .all(|c| c.arity() == (in_tuple.len() + out_tuple.len()) as u32));
        Relation { in_tuple, out_tuple, conjs }
    }

    /// Input tuple names.
    pub fn in_tuple(&self) -> &[String] {
        &self.in_tuple
    }

    /// Output tuple names.
    pub fn out_tuple(&self) -> &[String] {
        &self.out_tuple
    }

    /// Input arity.
    pub fn in_arity(&self) -> u32 {
        self.in_tuple.len() as u32
    }

    /// Output arity.
    pub fn out_arity(&self) -> u32 {
        self.out_tuple.len() as u32
    }

    /// The conjunctions of the union.
    pub fn conjunctions(&self) -> &[Conjunction] {
        &self.conjs
    }

    /// Mutable access to the conjunctions.
    pub fn conjunctions_mut(&mut self) -> &mut Vec<Conjunction> {
        &mut self.conjs
    }

    /// Simplifies every conjunction, dropping unsatisfiable ones.
    pub fn simplify(&mut self) {
        self.conjs.retain_mut(|c| c.simplify());
    }

    /// Swaps input and output tuples: `{x -> y : C}⁻¹ = {y -> x : C}`.
    pub fn inverse(&self) -> Relation {
        let a = self.in_arity();
        let b = self.out_arity();
        let conjs = self
            .conjs
            .iter()
            .map(|c| {
                let mut nc = Conjunction::new(a + b);
                nc.exists = c.exists.clone();
                nc.constraints = c.remapped_constraints(&|v: VarId| {
                    if v.0 < a {
                        VarId(v.0 + b) // input becomes output
                    } else if v.0 < a + b {
                        VarId(v.0 - a) // output becomes input
                    } else {
                        v // existentials keep their slots
                    }
                });
                nc
            })
            .collect();
        Relation {
            in_tuple: self.out_tuple.clone(),
            out_tuple: self.in_tuple.clone(),
            conjs,
        }
    }

    /// Functional composition `self ∘ other`: with `other : A → B` and
    /// `self : B → C`, produces `A → C`. The shared `B` tuple becomes
    /// existential and is eliminated by simplification where equalities
    /// allow (the usual case for the paper's format maps, which are
    /// functions).
    ///
    /// # Panics
    /// Panics when `other`'s output arity differs from `self`'s input
    /// arity.
    pub fn compose(&self, other: &Relation) -> Relation {
        let a = other.in_arity();
        let b = other.out_arity();
        assert_eq!(
            b,
            self.in_arity(),
            "compose arity mismatch: {} -> {} vs {} -> {}",
            other.in_arity(),
            other.out_arity(),
            self.in_arity(),
            self.out_arity()
        );
        let c = self.out_arity();
        let mut out_conjs = Vec::new();
        for oc in &other.conjs {
            for sc in &self.conjs {
                let o_ex = oc.exists.len() as u32;
                let mut nc = Conjunction::new(a + c);
                // Existential layout: [B tuple][other exists][self exists].
                for name in &other.out_tuple {
                    nc.exists.push(format!("{name}_mid"));
                }
                nc.exists.extend(oc.exists.iter().cloned());
                nc.exists.extend(sc.exists.iter().cloned());
                let b_base = a + c;
                // other: A -> B
                nc.constraints.extend(oc.remapped_constraints(&|v: VarId| {
                    if v.0 < a {
                        v
                    } else if v.0 < a + b {
                        VarId(b_base + (v.0 - a))
                    } else {
                        VarId(b_base + b + (v.0 - a - b))
                    }
                }));
                // self: B -> C
                nc.constraints.extend(sc.remapped_constraints(&|v: VarId| {
                    if v.0 < b {
                        VarId(b_base + v.0)
                    } else if v.0 < b + c {
                        VarId(a + (v.0 - b))
                    } else {
                        VarId(b_base + b + o_ex + (v.0 - b - c))
                    }
                }));
                if nc.simplify() {
                    out_conjs.push(nc);
                }
            }
        }
        Relation {
            in_tuple: other.in_tuple.clone(),
            out_tuple: self.out_tuple.clone(),
            conjs: out_conjs,
        }
    }

    /// Applies the relation to a set: with `self : A → B` and `s ⊆ A`,
    /// returns `{y ∈ B : ∃x ∈ s, x → y}`.
    pub fn apply(&self, s: &Set) -> Set {
        let a = self.in_arity();
        assert_eq!(a, s.arity(), "apply arity mismatch");
        let b = self.out_arity();
        let mut out_conjs = Vec::new();
        for rc in &self.conjs {
            for sc in s.conjunctions() {
                let r_ex = rc.exists.len() as u32;
                let mut nc = Conjunction::new(b);
                for name in &self.in_tuple {
                    nc.exists.push(format!("{name}_in"));
                }
                nc.exists.extend(rc.exists.iter().cloned());
                nc.exists.extend(sc.exists().iter().cloned());
                // relation: A -> B
                nc.constraints.extend(rc.remapped_constraints(&|v: VarId| {
                    if v.0 < a {
                        VarId(b + v.0)
                    } else if v.0 < a + b {
                        VarId(v.0 - a)
                    } else {
                        VarId(b + a + (v.0 - a - b))
                    }
                }));
                // set over A
                nc.constraints.extend(sc.remapped_constraints(&|v: VarId| {
                    if v.0 < a {
                        VarId(b + v.0)
                    } else {
                        VarId(b + a + r_ex + (v.0 - a))
                    }
                }));
                if nc.simplify() {
                    out_conjs.push(nc);
                }
            }
        }
        Set { tuple: self.out_tuple.clone(), conjs: out_conjs }
    }

    /// The domain of the relation: input tuples for which some output
    /// exists (output variables become existentials, eliminated where
    /// equalities allow).
    pub fn domain(&self) -> Set {
        let a = self.in_arity();
        let _b = self.out_arity();
        let conjs = self
            .conjs
            .iter()
            .filter_map(|c| {
                let mut nc = Conjunction::new(a);
                for name in &self.out_tuple {
                    nc.exists.push(format!("{name}_out"));
                }
                nc.exists.extend(c.exists.iter().cloned());
                nc.constraints = c.remapped_constraints(&|v: VarId| v);
                nc.simplify().then_some(nc)
            })
            .collect();
        Set { tuple: self.in_tuple.clone(), conjs }
    }

    /// The range of the relation: output tuples reachable from some
    /// input.
    pub fn range(&self) -> Set {
        self.inverse().domain()
    }

    /// Heuristic functionality test used to order synthesis: every output
    /// tuple variable must be defined by an equality over input variables,
    /// symbolic constants, and UFs of those (per conjunction).
    pub fn is_function(&self) -> bool {
        let a = self.in_arity();
        let b = self.out_arity();
        self.conjs.iter().all(|c| {
            (0..b).all(|k| {
                let v = VarId(a + k);
                match c.defining_equality(v) {
                    Some(e) => {
                        let mut vars = Vec::new();
                        e.collect_vars(&mut vars);
                        vars.iter().all(|w| w.0 < a)
                    }
                    None => false,
                }
            })
        })
    }

    /// Variable names (input ++ output ++ conjunction `k`'s existentials)
    /// for display purposes.
    pub fn names_for(&self, k: usize) -> Vec<String> {
        let mut names = self.in_tuple.clone();
        names.extend(self.out_tuple.iter().cloned());
        names.extend(self.conjs[k].exists().iter().cloned());
        names
    }
}

impl TupleDeclFmt for Relation {
    fn fmt_decl(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] -> [{}]",
            self.in_tuple.join(", "),
            self.out_tuple.join(", ")
        )
    }
}

impl fmt::Display for Relation {
    fmt_union_body!();
}

/// Variable-name resolution inside a specific conjunction of a set or
/// relation.
pub struct ConjNames {
    names: Vec<String>,
}

impl ConjNames {
    /// Builds a resolver from a full name list (tuple ++ existentials).
    pub fn new(names: Vec<String>) -> Self {
        ConjNames { names }
    }
}

impl VarNames for ConjNames {
    fn var_name(&self, v: VarId) -> String {
        self.names
            .get(v.index())
            .cloned()
            .unwrap_or_else(|| format!("v{}", v.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{LinExpr as E, UfCall, VarId};

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    /// `{[i, j] : 0 <= i < N && 0 <= j < M}`
    fn rect_set() -> Set {
        let mut c = Conjunction::new(2);
        c.add(Constraint::ge(E::var(v(0)), E::zero()));
        c.add(Constraint::lt(E::var(v(0)), E::sym("N")));
        c.add(Constraint::ge(E::var(v(1)), E::zero()));
        c.add(Constraint::lt(E::var(v(1)), E::sym("M")));
        Set::from_conjunctions(vec!["i".into(), "j".into()], vec![c])
    }

    /// `{[i, j] -> [j, i]}` (interchange)
    fn swap_ij() -> Relation {
        let mut c = Conjunction::new(4);
        c.add(Constraint::eq(E::var(v(2)), E::var(v(1))));
        c.add(Constraint::eq(E::var(v(3)), E::var(v(0))));
        Relation::from_conjunctions(
            vec!["i".into(), "j".into()],
            vec!["jo".into(), "io".into()],
            vec![c],
        )
    }

    #[test]
    fn inverse_swaps_tuples() {
        let r = swap_ij();
        let inv = r.inverse();
        assert_eq!(inv.in_tuple(), &["jo", "io"]);
        assert_eq!(inv.out_tuple(), &["i", "j"]);
        // inverse of interchange is interchange: out0 = in1, out1 = in0.
        let c = &inv.conjunctions()[0];
        let mut con = c.constraints.clone();
        assert!(normalize_all(&mut con).is_some());
        // {[jo,io] -> [i,j] : i = io && j = jo}
        let expect1 = Constraint::eq(E::var(v(2)), E::var(v(1)));
        let expect2 = Constraint::eq(E::var(v(3)), E::var(v(0)));
        let mut expects = vec![expect1, expect2];
        assert!(normalize_all(&mut expects).is_some());
        assert_eq!(con, expects);
    }

    #[test]
    fn double_inverse_is_identity() {
        let r = swap_ij();
        let mut rr = r.inverse().inverse();
        let mut orig = r.clone();
        rr.simplify();
        orig.simplify();
        assert_eq!(rr, orig);
    }

    #[test]
    fn apply_interchange_to_rectangle() {
        let s = rect_set();
        let r = swap_ij();
        let mut out = r.apply(&s);
        out.simplify();
        assert_eq!(out.tuple(), &["jo", "io"]);
        assert_eq!(out.conjunctions().len(), 1);
        let c = &out.conjunctions()[0];
        // All existentials should have been eliminated by equalities.
        assert!(c.exists().is_empty(), "exists left: {:?}", c.exists());
        // Constraints: 0 <= jo < M, 0 <= io < N.
        assert_eq!(c.constraints.len(), 4);
        let names = out.names_for(0);
        let strs: Vec<String> = c
            .constraints
            .iter()
            .map(|x| x.display_with(&names).to_string())
            .collect();
        assert!(strs.iter().any(|s| s.contains("jo")));
        assert!(strs.iter().any(|s| s.contains("io")));
    }

    #[test]
    fn compose_interchange_twice_is_identity_map() {
        let r = swap_ij();
        let mut id = r.compose(&r);
        id.simplify();
        assert_eq!(id.conjunctions().len(), 1);
        let c = &id.conjunctions()[0];
        assert!(c.exists().is_empty());
        // Expect out0 = in0 && out1 = in1.
        let mut expect = vec![
            Constraint::eq(E::var(v(2)), E::var(v(0))),
            Constraint::eq(E::var(v(3)), E::var(v(1))),
        ];
        assert!(normalize_all(&mut expect).is_some());
        assert_eq!(c.constraints, expect);
    }

    #[test]
    fn compose_keeps_uf_constraints() {
        // other = {[n] -> [i] : i = row(n) && 0 <= n < NNZ}
        let mut oc = Conjunction::new(2);
        oc.add(Constraint::eq(
            E::var(v(1)),
            E::uf(UfCall::new("row", vec![E::var(v(0))])),
        ));
        oc.add(Constraint::ge(E::var(v(0)), E::zero()));
        oc.add(Constraint::lt(E::var(v(0)), E::sym("NNZ")));
        let other =
            Relation::from_conjunctions(vec!["n".into()], vec!["i".into()], vec![oc]);
        // self = {[i] -> [p] : p = i + 1}
        let mut sc = Conjunction::new(2);
        sc.add(Constraint::eq(
            E::var(v(1)),
            E::var(v(0)).add(&E::constant(1)),
        ));
        let selfr =
            Relation::from_conjunctions(vec!["i".into()], vec!["p".into()], vec![sc]);
        let mut comp = selfr.compose(&other);
        comp.simplify();
        assert_eq!(comp.in_tuple(), &["n"]);
        assert_eq!(comp.out_tuple(), &["p"]);
        let c = &comp.conjunctions()[0];
        assert!(c.exists().is_empty(), "mid tuple should be eliminated");
        // p = row(n) + 1 must survive.
        let has_uf_eq = c.constraints.iter().any(|x| {
            x.is_eq() && x.mentions_uf("row") && x.uses_var(v(1))
        });
        assert!(has_uf_eq, "constraints: {:?}", c.constraints);
    }

    #[test]
    fn simplify_drops_unsat_conjunction() {
        let mut c = Conjunction::new(1);
        c.add(Constraint::eq(E::var(v(0)), E::constant(1)));
        c.add(Constraint::eq(E::var(v(0)), E::constant(2)));
        let mut s = Set::from_conjunctions(vec!["i".into()], vec![c]);
        s.simplify();
        // i is a tuple var so it is not eliminated, but 1 = 2 arises only
        // through substitution of existentials; here both constraints stay
        // and the set remains (conservative). Build a directly
        // contradictory one instead:
        let mut c2 = Conjunction::new(1);
        c2.add(Constraint::Geq(E::constant(-1)));
        let mut s2 = Set::from_conjunctions(vec!["i".into()], vec![c2]);
        s2.simplify();
        assert!(s2.is_empty());
        let _ = s;
    }

    #[test]
    fn existential_elimination_through_equalities() {
        // {[i] : exists(e) : e = i + 1 && e < N}  =>  {[i] : i + 1 < N}
        let mut c = Conjunction::new(1);
        let e = c.fresh_exist("e");
        c.add(Constraint::eq(E::var(e), E::var(v(0)).add(&E::constant(1))));
        c.add(Constraint::lt(E::var(e), E::sym("N")));
        assert!(c.simplify());
        assert!(c.exists().is_empty());
        assert_eq!(c.constraints.len(), 1);
        let expect = {
            let mut x = Constraint::lt(E::var(v(0)).add(&E::constant(1)), E::sym("N"));
            x.normalize();
            x
        };
        assert_eq!(c.constraints[0], expect);
    }

    #[test]
    fn is_function_detects_affine_maps() {
        assert!(swap_ij().is_function());
        // {[i] -> [p] : p >= i} is not a function.
        let mut c = Conjunction::new(2);
        c.add(Constraint::ge(E::var(v(1)), E::var(v(0))));
        let r = Relation::from_conjunctions(vec!["i".into()], vec!["p".into()], vec![c]);
        assert!(!r.is_function());
    }

    #[test]
    fn compose_distributes_over_unions() {
        use crate::parser::parse_relation;
        // other: A -> B with two branches; self: B -> C single.
        let other = parse_relation(
            "{ [a] -> [b] : b = a && 0 <= a < 5 } union { [a] -> [b] : b = a + 100 && 5 <= a < 10 }",
        )
        .unwrap();
        let selfr = parse_relation("{ [b] -> [c] : c = 2 * b }").unwrap();
        let mut comp = selfr.compose(&other);
        comp.simplify();
        // Cross product of 2 x 1 conjunctions.
        assert_eq!(comp.conjunctions().len(), 2);
        // Each branch keeps its own definition of c.
        let texts: Vec<String> = (0..2)
            .map(|k| {
                let names = comp.names_for(k);
                comp.conjunctions()[k]
                    .constraints
                    .iter()
                    .map(|c| c.display_with(&names).to_string())
                    .collect::<Vec<_>>()
                    .join(" && ")
            })
            .collect();
        assert!(texts.iter().any(|t| t.contains("2 * a = c")), "{texts:?}");
        assert!(
            texts.iter().any(|t| t.contains("200")),
            "shifted branch doubled: {texts:?}"
        );
    }

    #[test]
    fn apply_distributes_over_unions() {
        use crate::parser::{parse_relation, parse_set};
        let r = parse_relation("{ [i] -> [o] : o = i + 1 }").unwrap();
        let s = parse_set("{ [i] : i = 0 } union { [i] : i = 10 }").unwrap();
        let mut out = r.apply(&s);
        out.simplify();
        assert_eq!(out.conjunctions().len(), 2);
    }

    #[test]
    fn intersect_conjoins_constraints() {
        use crate::parser::parse_set;
        let a = parse_set("{ [i] : 0 <= i < 10 }").unwrap();
        let b = parse_set("{ [i] : 5 <= i < 20 }").unwrap();
        let mut both = a.intersect(&b);
        both.simplify();
        let names = both.names_for(0);
        let strs: Vec<String> = both.conjunctions()[0]
            .constraints
            .iter()
            .map(|c| c.display_with(&names).to_string())
            .collect();
        assert!(strs.contains(&"i >= 5".to_string()), "{strs:?}");
        assert!(strs.contains(&"9 >= i".to_string()) || strs.iter().any(|s| s.contains("9")), "{strs:?}");
        // Disjoint intersection: the conjunction survives syntactically
        // (simplification is conservative about tuple-variable
        // infeasibility), but projecting the variable out exposes the
        // contradiction via Fourier-Motzkin.
        let c = parse_set("{ [i] : i >= 30 }").unwrap();
        let d = parse_set("{ [i] : i < 5 }").unwrap();
        let disjoint = c.intersect(&d);
        let mut proj = crate::project::project_out(&disjoint, 0);
        proj.simplify();
        assert!(proj.is_empty());
    }

    #[test]
    fn domain_and_range_of_function_relation() {
        // {[n] -> [i] : i = row(n) && 0 <= n < NNZ}
        let mut c = Conjunction::new(2);
        c.add(Constraint::eq(
            E::var(v(1)),
            E::uf(UfCall::new("row", vec![E::var(v(0))])),
        ));
        c.add(Constraint::ge(E::var(v(0)), E::zero()));
        c.add(Constraint::lt(E::var(v(0)), E::sym("NNZ")));
        let r = Relation::from_conjunctions(vec!["n".into()], vec!["i".into()], vec![c]);
        let dom = r.domain();
        assert_eq!(dom.tuple(), &["n"]);
        // The output var is defined by an equality, so it vanishes; the
        // bounds on n remain.
        let dc = &dom.conjunctions()[0];
        assert!(dc.exists().is_empty(), "{dc:?}");
        assert_eq!(dc.constraints.len(), 2);
        let rng = r.range();
        assert_eq!(rng.tuple(), &["i"]);
        // The range keeps `n` existential (i = row(n) can't eliminate n).
        assert_eq!(rng.conjunctions()[0].exists().len(), 1);
    }

    #[test]
    fn display_round_readable() {
        let s = rect_set();
        let txt = s.to_string();
        assert!(txt.starts_with("{ [i, j] :"));
        assert!(txt.contains("&&"));
        let r = swap_ij();
        assert!(r.to_string().contains("[i, j] -> [jo, io]"));
    }
}
