//! A sound (incomplete) refutation engine for conjunctions of integer
//! linear constraints over opaque atoms.
//!
//! The verifier's proof obligations all reduce to "this constraint system
//! is unsatisfiable": subset checks (`S ⊨ g` iff `S ∧ ¬g` is UNSAT).
//! We prove UNSAT by *saturation*: starting from the system, we repeatedly
//! derive consequences — equality rewrites, Fourier–Motzkin resolvents on
//! unit-coefficient atoms — until a constraint normalizes to a
//! contradiction (e.g. `-1 >= 0`) or a budget is exhausted.
//!
//! Soundness comes from only ever *adding* valid consequences: every atom
//! (tuple variable, symbolic constant, UF call, product) is treated as a
//! free integer unknown, which over-approximates the true models, so any
//! contradiction we find holds for the real semantics too. Completeness is
//! explicitly not a goal; unproven obligations surface as warnings.
//!
//! Uninterpreted functions are handled by *enrichment* before saturation:
//!
//! * **range facts** — for each UF call `f(e)` whose signature declares a
//!   range set, the range constraints are instantiated at the call
//!   (e.g. `0 <= rowptr(i) <= NNZ`);
//! * **congruence** — `a = b` provable implies `f(a) = f(b)`;
//! * **monotonicity** — for declared non-decreasing/increasing UFs, a
//!   provable argument order `a <= b` yields `f(a) <= f(b)` (and
//!   `f(b) - f(a) >= b - a` for strictly increasing UFs), which is what
//!   lets CSR-style `rowptr(i) <= k < rowptr(i+1)` windows chain across
//!   iterations.

use std::collections::HashSet;

use spf_ir::constraint::Normalized;
use spf_ir::{Atom, Constraint, LinExpr, Monotonicity, UfCall, UfEnvironment};

/// Saturation budget: maximum derivation rounds for a top-level proof.
const MAX_ROUNDS: usize = 8;
/// Saturation budget: maximum retained constraints for a top-level proof.
const MAX_CONSTRAINTS: usize = 900;
/// Reduced budgets for the auxiliary argument-order proofs that feed
/// monotonicity/congruence enrichment (pure affine goals; keep them cheap).
const AUX_ROUNDS: usize = 4;
const AUX_CONSTRAINTS: usize = 250;

/// The prover: a set of UF environments consulted for enrichment.
#[derive(Default)]
pub struct Prover<'a> {
    envs: Vec<&'a UfEnvironment>,
}

impl<'a> Prover<'a> {
    /// A prover with no UF knowledge (pure linear reasoning).
    pub fn new() -> Self {
        Prover { envs: Vec::new() }
    }

    /// Registers a UF environment; earlier environments win on collision.
    pub fn add_env(&mut self, env: &'a UfEnvironment) -> &mut Self {
        self.envs.push(env);
        self
    }

    fn lookup(&self, name: &str) -> Option<&'a spf_ir::UfSignature> {
        self.envs.iter().find_map(|e| e.get(name))
    }

    /// Returns `true` iff the conjunction is *proved* unsatisfiable over
    /// the integers (treating atoms as free unknowns, plus UF enrichment).
    pub fn refutes(&self, system: &[Constraint]) -> bool {
        let mut sys = system.to_vec();
        self.enrich(&mut sys);
        drop_free_constraints(&mut sys);
        saturate(sys, MAX_ROUNDS, MAX_CONSTRAINTS)
    }

    /// Returns `true` iff `system ⊨ goal` is proved, by refuting the
    /// system conjoined with each disjunct of the goal's negation.
    pub fn entails(&self, system: &[Constraint], goal: &Constraint) -> bool {
        negation_branches(goal).into_iter().all(|neg| {
            let mut sys = system.to_vec();
            sys.push(neg);
            self.refutes(&sys)
        })
    }

    /// Adds UF-derived facts (range instantiation, congruence,
    /// monotonicity) to the system.
    fn enrich(&self, sys: &mut Vec<Constraint>) {
        let calls = collect_calls(sys);
        // Range facts.
        for call in &calls {
            let Some(sig) = self.lookup(&call.name) else { continue };
            if call.args.len() != sig.arity {
                continue;
            }
            let range = &sig.range;
            if range.arity() != 1 || range.conjunctions().len() != 1 {
                continue;
            }
            let conj = &range.conjunctions()[0];
            if !conj.exists().is_empty() {
                continue;
            }
            let value = LinExpr::uf(call.clone());
            for c in &conj.constraints {
                sys.push(c.map_vars(&mut |v| {
                    if v.0 == 0 {
                        value.clone()
                    } else {
                        LinExpr::var(v)
                    }
                }));
            }
        }
        // Congruence and monotonicity facts for same-name call pairs. The
        // argument-order side conditions are proved with the *unenriched*
        // base system (cheap pure-affine proofs, no recursion).
        let base: Vec<Constraint> = sys.clone();
        let list: Vec<&UfCall> = calls.iter().collect();
        for i in 0..list.len() {
            for j in (i + 1)..list.len() {
                let (a, b) = (list[i], list[j]);
                if a.name != b.name || a.args.len() != b.args.len() {
                    continue;
                }
                // Congruence: all argument pairs provably equal.
                let args_equal = a
                    .args
                    .iter()
                    .zip(&b.args)
                    .all(|(x, y)| prove_aux(&base, &Constraint::eq(x.clone(), y.clone())));
                if args_equal {
                    sys.push(Constraint::eq(
                        LinExpr::uf(a.clone()),
                        LinExpr::uf(b.clone()),
                    ));
                    continue;
                }
                // Monotonicity (unary UFs with a declared property only).
                let Some(mono) = self.lookup(&a.name).and_then(|s| s.monotonicity) else {
                    continue;
                };
                if a.args.len() != 1 {
                    continue;
                }
                let (xa, xb) = (&a.args[0], &b.args[0]);
                // Orient the pair: find a provable `lo.arg <= hi.arg`.
                let oriented = if prove_aux(&base, &Constraint::ge(xb.clone(), xa.clone())) {
                    Some((a, b))
                } else if prove_aux(&base, &Constraint::ge(xa.clone(), xb.clone())) {
                    Some((b, a))
                } else {
                    None
                };
                let Some((lo, hi)) = oriented else { continue };
                let flo = LinExpr::uf(lo.clone());
                let fhi = LinExpr::uf(hi.clone());
                match mono {
                    Monotonicity::NonDecreasing => {
                        sys.push(Constraint::ge(fhi, flo));
                    }
                    Monotonicity::Increasing => {
                        // hi.arg - lo.arg >= 0 implies
                        // f(hi) - f(lo) >= hi.arg - lo.arg for strictly
                        // increasing integer functions.
                        let darg = hi.args[0].sub(&lo.args[0]);
                        sys.push(Constraint::ge(fhi.sub(&flo), darg));
                    }
                }
            }
        }
    }
}

/// Proves a pure-affine side condition against the unenriched system.
fn prove_aux(base: &[Constraint], goal: &Constraint) -> bool {
    negation_branches(goal).into_iter().all(|neg| {
        let mut sys = base.to_vec();
        sys.push(neg);
        saturate(sys, AUX_ROUNDS, AUX_CONSTRAINTS)
    })
}

/// The disjuncts of `¬goal`, each to be refuted separately.
/// `¬(e >= 0)` is `-e - 1 >= 0`; `¬(e == 0)` is `e >= 1  ∨  -e >= 1`.
fn negation_branches(goal: &Constraint) -> Vec<Constraint> {
    match goal {
        Constraint::Geq(e) => {
            vec![Constraint::Geq(e.scaled(-1).add(&LinExpr::constant(-1)))]
        }
        Constraint::Eq(e) => vec![
            Constraint::Geq(e.add(&LinExpr::constant(-1))),
            Constraint::Geq(e.scaled(-1).add(&LinExpr::constant(-1))),
        ],
    }
}

/// Collects every UF call (at any nesting depth) mentioned by the system.
pub(crate) fn collect_calls(sys: &[Constraint]) -> Vec<UfCall> {
    let mut out = Vec::new();
    for c in sys {
        collect_calls_in_expr(c.expr(), &mut out);
    }
    out
}

/// Collects every UF call (at any nesting depth, innermost first)
/// mentioned by one expression, deduplicating against `out`.
pub(crate) fn collect_calls_in_expr(e: &LinExpr, out: &mut Vec<UfCall>) {
    fn walk_atom(a: &Atom, out: &mut Vec<UfCall>) {
        match a {
            Atom::Uf(u) => {
                for arg in &u.args {
                    collect_calls_in_expr(arg, out);
                }
                if !out.contains(u) {
                    out.push(u.clone());
                }
            }
            Atom::Prod(fs) => {
                for f in fs {
                    walk_atom(f, out);
                }
            }
            _ => {}
        }
    }
    for (_, a) in &e.terms {
        walk_atom(a, out);
    }
}

/// Replaces top-level occurrences of `atom` in `e` by `repl`.
fn subst_atom(e: &LinExpr, atom: &Atom, repl: &LinExpr) -> LinExpr {
    let mut out = LinExpr { constant: e.constant, terms: Vec::new() };
    let mut acc = LinExpr::zero();
    for (c, a) in &e.terms {
        if a == atom {
            acc.add_assign(&repl.scaled(*c));
        } else {
            out.terms.push((*c, a.clone()));
        }
    }
    out.add_assign(&acc);
    out
}

/// Drops every constraint that holds for some value of one of its atoms
/// whatever the others are: an atom with a unit coefficient that occurs
/// in no other constraint can take the value the constraint needs, so the
/// constraint cannot take part in a contradiction. (Atoms are free
/// unknowns here: a product such as DIA's `i*ND` is unrelated to `i`, so
/// a slot equation `d + i*ND = d' + i'*ND` is such a constraint.) Without
/// them, saturation runs out of derivations instead of out of budget.
fn drop_free_constraints(sys: &mut Vec<Constraint>) {
    loop {
        let free = (0..sys.len()).find(|&k| {
            sys[k].expr().terms.iter().any(|(c, atom)| {
                let sole = sys
                    .iter()
                    .enumerate()
                    .all(|(o, other)| o == k || other.expr().coeff_of(atom) == 0);
                c.abs() == 1 && sole
            })
        });
        match free {
            Some(k) => {
                sys.swap_remove(k);
            }
            None => return,
        }
    }
}

/// Derives consequences until contradiction or budget exhaustion.
/// Returns `true` iff a contradiction was derived (system is UNSAT).
fn saturate(mut sys: Vec<Constraint>, max_rounds: usize, max_constraints: usize) -> bool {
    if spf_ir::constraint::normalize_all(&mut sys).is_none() {
        return true;
    }
    let mut seen: HashSet<Constraint> = sys.iter().cloned().collect();
    for _ in 0..max_rounds {
        let mut fresh: Vec<Constraint> = Vec::new();

        // Equality rewriting: for `±a + rest == 0`, substitute
        // `a := ∓rest` into every other constraint mentioning `a`
        // top-level.
        for c in &sys {
            let Constraint::Eq(e) = c else { continue };
            for (coeff, atom) in &e.terms {
                if coeff.abs() != 1 {
                    continue;
                }
                let mut rest = e.clone();
                rest.terms.retain(|(_, a)| a != atom);
                let repl = rest.scaled(-coeff);
                for other in &sys {
                    if std::ptr::eq(other, c) || other.expr().coeff_of(atom) == 0 {
                        continue;
                    }
                    let rewritten = match other {
                        Constraint::Eq(oe) => Constraint::Eq(subst_atom(oe, atom, &repl)),
                        Constraint::Geq(oe) => Constraint::Geq(subst_atom(oe, atom, &repl)),
                    };
                    fresh.push(rewritten);
                }
            }
        }

        // Fourier–Motzkin resolvents on unit-coefficient atoms: a lower
        // bound (`+a` term) plus an upper bound (`-a` term) eliminates
        // `a` exactly.
        let geqs: Vec<&LinExpr> = sys
            .iter()
            .filter_map(|c| match c {
                Constraint::Geq(e) => Some(e),
                _ => None,
            })
            .collect();
        let mut atoms: Vec<&Atom> = Vec::new();
        for e in &geqs {
            for (_, a) in &e.terms {
                if !atoms.contains(&a) {
                    atoms.push(a);
                }
            }
        }
        for atom in atoms {
            let lowers: Vec<&&LinExpr> =
                geqs.iter().filter(|e| e.coeff_of(atom) == 1).collect();
            let uppers: Vec<&&LinExpr> =
                geqs.iter().filter(|e| e.coeff_of(atom) == -1).collect();
            for lo in &lowers {
                for up in &uppers {
                    fresh.push(Constraint::Geq(lo.add(up)));
                }
            }
        }

        // Normalize, contradiction-check, dedup, and extend.
        let mut added = false;
        for mut c in fresh {
            c.expr_mut().canonicalize();
            match c.normalize() {
                Normalized::Contradiction => return true,
                Normalized::Tautology => {}
                Normalized::Keep => {
                    if sys.len() < max_constraints && seen.insert(c.clone()) {
                        sys.push(c);
                        added = true;
                    }
                }
            }
        }
        if !added {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_ir::{UfSignature, VarId};

    fn v(i: u32) -> LinExpr {
        LinExpr::var(VarId(i))
    }

    #[test]
    fn refutes_direct_contradiction() {
        // x >= 1 && x <= 0
        let sys = vec![
            Constraint::ge(v(0), LinExpr::constant(1)),
            Constraint::le(v(0), LinExpr::constant(0)),
        ];
        assert!(Prover::new().refutes(&sys));
    }

    #[test]
    fn does_not_refute_satisfiable() {
        let sys = vec![
            Constraint::ge(v(0), LinExpr::constant(0)),
            Constraint::lt(v(0), LinExpr::sym("N")),
        ];
        assert!(!Prover::new().refutes(&sys));
    }

    #[test]
    fn entails_transitive_bound() {
        // 0 <= x < y && y <= N  ⊨  x < N
        let sys = vec![
            Constraint::ge(v(0), LinExpr::zero()),
            Constraint::lt(v(0), v(1)),
            Constraint::le(v(1), LinExpr::sym("N")),
        ];
        let goal = Constraint::lt(v(0), LinExpr::sym("N"));
        assert!(Prover::new().entails(&sys, &goal));
        // but not x < N - 1
        let too_strong =
            Constraint::lt(v(0), LinExpr::sym("N").add(&LinExpr::constant(-1)));
        assert!(!Prover::new().entails(&sys, &too_strong));
    }

    #[test]
    fn equality_chains_resolve() {
        // p = n && p' = n' && n < n'  is consistent; adding p = p'
        // chains the equalities into n = n', refuting the strict order.
        let sys = vec![
            Constraint::eq(v(0), v(1)),
            Constraint::eq(v(2), v(3)),
            Constraint::lt(v(1), v(3)),
        ];
        assert!(!Prover::new().refutes(&sys));
        let mut contradictory = sys.clone();
        contradictory.push(Constraint::eq(v(0), v(2)));
        assert!(Prover::new().refutes(&contradictory));
    }

    #[test]
    fn range_enrichment_bounds_uf_values() {
        // i = row(n)  ⊨  0 <= i < NR, given range(row) = [0, NR).
        let mut env = UfEnvironment::new();
        env.insert(
            UfSignature::parse(
                "row",
                "{ [x] : 0 <= x < NNZ }",
                "{ [y] : 0 <= y < NR }",
                None,
            )
            .unwrap(),
        );
        let call = UfCall::new("row", vec![v(1)]);
        let sys = vec![Constraint::eq(v(0), LinExpr::uf(call))];
        let mut p = Prover::new();
        p.add_env(&env);
        assert!(p.entails(&sys, &Constraint::ge(v(0), LinExpr::zero())));
        assert!(p.entails(&sys, &Constraint::lt(v(0), LinExpr::sym("NR"))));
        assert!(!p.entails(&sys, &Constraint::lt(v(0), LinExpr::sym("NC"))));
    }

    #[test]
    fn monotonicity_chains_windows() {
        // CSR windows don't overlap across rows:
        // rowptr(i) <= k < rowptr(i+1), rowptr(i') <= k' < rowptr(i'+1),
        // i < i', k = k'  is UNSAT for non-decreasing rowptr.
        let mut env = UfEnvironment::new();
        env.insert(
            UfSignature::parse(
                "rowptr",
                "{ [x] : 0 <= x <= NR }",
                "{ [y] : 0 <= y <= NNZ }",
                Some(Monotonicity::NonDecreasing),
            )
            .unwrap(),
        );
        let rp = |arg: LinExpr| LinExpr::uf(UfCall::new("rowptr", vec![arg]));
        let one = LinExpr::constant(1);
        let sys = vec![
            Constraint::ge(v(1), rp(v(0))),
            Constraint::lt(v(1), rp(v(0).add(&one))),
            Constraint::ge(v(3), rp(v(2))),
            Constraint::lt(v(3), rp(v(2).add(&one))),
            Constraint::lt(v(0), v(2)),
            Constraint::eq(v(1), v(3)),
        ];
        let mut p = Prover::new();
        p.add_env(&env);
        assert!(p.refutes(&sys));
        // Without the row order the system is satisfiable.
        let consistent: Vec<Constraint> =
            sys.iter().take(4).cloned().chain([Constraint::eq(v(0), v(2))]).collect();
        assert!(!p.refutes(&consistent));
    }

    #[test]
    fn congruence_equates_calls() {
        // k = k'  ⊨  col(k) = col(k')
        let col = |arg: LinExpr| LinExpr::uf(UfCall::new("col", vec![arg]));
        let sys = vec![
            Constraint::eq(v(0), v(1)),
            Constraint::eq(v(2), col(v(0))),
            Constraint::eq(v(3), col(v(1))),
        ];
        assert!(Prover::new().entails(&sys, &Constraint::eq(v(2), v(3))));
    }

    #[test]
    fn increasing_is_strict() {
        // off strictly increasing, d < d'  ⊨  off(d) < off(d').
        let mut env = UfEnvironment::new();
        env.insert(
            UfSignature::parse(
                "off",
                "{ [x] : 0 <= x < ND }",
                "{ [o] : 0 - NR < o && o < NC }",
                Some(Monotonicity::Increasing),
            )
            .unwrap(),
        );
        let off = |arg: LinExpr| LinExpr::uf(UfCall::new("off", vec![arg]));
        let sys = vec![Constraint::lt(v(0), v(1))];
        let mut p = Prover::new();
        p.add_env(&env);
        assert!(p.entails(&sys, &Constraint::lt(off(v(0)), off(v(1)))));
    }
}
