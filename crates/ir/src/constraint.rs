//! Affine (in)equality constraints over [`LinExpr`]s.
//!
//! Every constraint is stored in homogeneous form:
//! * `Eq(e)` means `e == 0`
//! * `Geq(e)` means `e >= 0`
//!
//! Strict inequalities from the surface syntax (`a < b`) are normalized at
//! parse time to `b - a - 1 >= 0`, which is exact over the integers.

use std::fmt;

use crate::expr::{LinExpr, VarId, VarNames};

/// A single constraint in homogeneous form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Constraint {
    /// `expr == 0`.
    Eq(LinExpr),
    /// `expr >= 0`.
    Geq(LinExpr),
}

/// What normalization concluded about a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Normalized {
    /// The constraint is still informative.
    Keep,
    /// The constraint is trivially true and can be dropped.
    Tautology,
    /// The constraint is trivially false; the conjunction is empty.
    Contradiction,
}

impl Constraint {
    /// Builds `lhs == rhs`.
    pub fn eq(lhs: LinExpr, rhs: LinExpr) -> Self {
        Constraint::Eq(lhs.sub(&rhs))
    }

    /// Builds `lhs <= rhs`, i.e. `rhs - lhs >= 0`.
    pub fn le(lhs: LinExpr, rhs: LinExpr) -> Self {
        Constraint::Geq(rhs.sub(&lhs))
    }

    /// Builds `lhs < rhs`, i.e. `rhs - lhs - 1 >= 0`.
    pub fn lt(lhs: LinExpr, rhs: LinExpr) -> Self {
        Constraint::Geq(rhs.sub(&lhs).add(&LinExpr::constant(-1)))
    }

    /// Builds `lhs >= rhs`.
    pub fn ge(lhs: LinExpr, rhs: LinExpr) -> Self {
        Constraint::le(rhs, lhs)
    }

    /// Builds `lhs > rhs`.
    pub fn gt(lhs: LinExpr, rhs: LinExpr) -> Self {
        Constraint::lt(rhs, lhs)
    }

    /// The underlying expression (`e` of `e == 0` / `e >= 0`).
    pub fn expr(&self) -> &LinExpr {
        match self {
            Constraint::Eq(e) | Constraint::Geq(e) => e,
        }
    }

    /// Mutable access to the underlying expression.
    pub fn expr_mut(&mut self) -> &mut LinExpr {
        match self {
            Constraint::Eq(e) | Constraint::Geq(e) => e,
        }
    }

    /// Returns `true` if variable `v` occurs anywhere in the constraint.
    pub fn uses_var(&self, v: VarId) -> bool {
        self.expr().uses_var(v)
    }

    /// Returns `true` if the constraint mentions the named UF anywhere.
    pub fn mentions_uf(&self, name: &str) -> bool {
        self.expr().mentions_uf(name)
    }

    /// Substitutes `v := repl` everywhere.
    pub fn substitute_var(&self, v: VarId, repl: &LinExpr) -> Constraint {
        match self {
            Constraint::Eq(e) => Constraint::Eq(e.substitute_var(v, repl)),
            Constraint::Geq(e) => Constraint::Geq(e.substitute_var(v, repl)),
        }
    }

    /// Rewrites all variable occurrences via `f`.
    pub fn map_vars(&self, f: &mut impl FnMut(VarId) -> LinExpr) -> Constraint {
        match self {
            Constraint::Eq(e) => Constraint::Eq(e.map_vars(f)),
            Constraint::Geq(e) => Constraint::Geq(e.map_vars(f)),
        }
    }

    /// Normalizes the constraint in place: divides through by the GCD of
    /// the coefficients (with integer tightening for inequalities) and
    /// classifies trivial constraints.
    ///
    /// For an equality `g | coeffs` but `g ∤ constant` there is no integer
    /// solution, so the result is [`Normalized::Contradiction`].
    pub fn normalize(&mut self) -> Normalized {
        // Canonical sign for equalities: leading coefficient positive.
        if let Constraint::Eq(e) = self {
            if let Some((c, _)) = e.terms.first() {
                if *c < 0 {
                    *e = e.scaled(-1);
                }
            }
        }
        let g = self.expr().terms_gcd();
        match self {
            Constraint::Eq(e) => {
                if g == 0 {
                    return if e.constant == 0 {
                        Normalized::Tautology
                    } else {
                        Normalized::Contradiction
                    };
                }
                if e.constant % g != 0 {
                    return Normalized::Contradiction;
                }
                if g > 1 {
                    e.constant /= g;
                    for (c, _) in &mut e.terms {
                        *c /= g;
                    }
                }
                Normalized::Keep
            }
            Constraint::Geq(e) => {
                if g == 0 {
                    return if e.constant >= 0 {
                        Normalized::Tautology
                    } else {
                        Normalized::Contradiction
                    };
                }
                if g > 1 {
                    // e >= 0  <=>  (e/g) >= 0 with the constant floored,
                    // which is the standard integer tightening.
                    for (c, _) in &mut e.terms {
                        *c /= g;
                    }
                    e.constant = e.constant.div_euclid(g);
                }
                Normalized::Keep
            }
        }
    }

    /// Renders the constraint with readable variable names, splitting
    /// positive and negative terms across the comparison operator.
    pub fn display_with<'a>(&'a self, names: &'a dyn VarNames) -> ConstraintDisplay<'a> {
        ConstraintDisplay { c: self, names }
    }
}

/// Display adapter returned by [`Constraint::display_with`].
pub struct ConstraintDisplay<'a> {
    c: &'a Constraint,
    names: &'a dyn VarNames,
}

impl fmt::Display for ConstraintDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (e, op) = match self.c {
            Constraint::Eq(e) => (e, "="),
            Constraint::Geq(e) => (e, ">="),
        };
        // Split into lhs (positive terms) and rhs (negated negative terms).
        let mut lhs = LinExpr::zero();
        let mut rhs = LinExpr::zero();
        for (c, a) in &e.terms {
            if *c > 0 {
                lhs.terms.push((*c, a.clone()));
            } else {
                rhs.terms.push((-*c, a.clone()));
            }
        }
        if e.constant > 0 {
            lhs.constant = e.constant;
        } else {
            rhs.constant = -e.constant;
        }
        // `0 >= rhs` reads better as `rhs <= 0`.
        if lhs.is_zero() && !rhs.is_zero() {
            let flipped = match self.c {
                Constraint::Eq(_) => "=",
                Constraint::Geq(_) => "<=",
            };
            return write!(f, "{} {} 0", rhs.display_with(self.names), flipped);
        }
        write!(
            f,
            "{} {} {}",
            lhs.display_with(self.names),
            op,
            rhs.display_with(self.names)
        )
    }
}

/// Tightened GCD-based normalization result for a whole constraint list:
/// `None` if a contradiction was found.
pub fn normalize_all(constraints: &mut Vec<Constraint>) -> Option<()> {
    let mut out = Vec::with_capacity(constraints.len());
    for mut c in constraints.drain(..) {
        c.expr_mut().canonicalize();
        match c.normalize() {
            Normalized::Keep => out.push(c),
            Normalized::Tautology => {}
            Normalized::Contradiction => return None,
        }
    }
    // Deterministic order + dedup.
    out.sort_by(constraint_order);
    out.dedup();
    *constraints = out;
    Some(())
}

/// Total order used to keep constraint lists deterministic: equalities
/// first, then by expression structure.
pub fn constraint_order(a: &Constraint, b: &Constraint) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (Constraint::Eq(_), Constraint::Geq(_)) => Ordering::Less,
        (Constraint::Geq(_), Constraint::Eq(_)) => Ordering::Greater,
        _ => cmp_expr(a.expr(), b.expr()),
    }
}

fn cmp_expr(a: &LinExpr, b: &LinExpr) -> std::cmp::Ordering {
    let ka: Vec<_> = a.terms.iter().map(|(c, at)| (at.clone(), *c)).collect();
    let kb: Vec<_> = b.terms.iter().map(|(c, at)| (at.clone(), *c)).collect();
    ka.cmp(&kb).then(a.constant.cmp(&b.constant))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Atom, DefaultNames};

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn builders_normalize_to_homogeneous_form() {
        let c = Constraint::lt(LinExpr::var(v(0)), LinExpr::sym("N"));
        // N - v0 - 1 >= 0
        match &c {
            Constraint::Geq(e) => {
                assert_eq!(e.constant, -1);
                assert_eq!(e.coeff_of_var(v(0)), -1);
                assert_eq!(e.coeff_of(&Atom::Sym("N".into())), 1);
            }
            _ => panic!("expected Geq"),
        }
    }

    #[test]
    fn normalize_divides_by_gcd() {
        let mut c = Constraint::Eq(LinExpr {
            constant: 6,
            terms: vec![(2, Atom::Var(v(0))), (4, Atom::Var(v(1)))],
        });
        assert_eq!(c.normalize(), Normalized::Keep);
        assert_eq!(c.expr().constant, 3);
        assert_eq!(c.expr().coeff_of_var(v(0)), 1);
        assert_eq!(c.expr().coeff_of_var(v(1)), 2);
    }

    #[test]
    fn normalize_detects_integer_infeasibility() {
        // 2x + 1 == 0 has no integer solution.
        let mut c = Constraint::Eq(LinExpr {
            constant: 1,
            terms: vec![(2, Atom::Var(v(0)))],
        });
        assert_eq!(c.normalize(), Normalized::Contradiction);
    }

    #[test]
    fn normalize_tightens_inequalities() {
        // 2x - 1 >= 0  =>  x - 1 >= 0 over integers (x >= 1/2 => x >= 1).
        let mut c = Constraint::Geq(LinExpr {
            constant: -1,
            terms: vec![(2, Atom::Var(v(0)))],
        });
        assert_eq!(c.normalize(), Normalized::Keep);
        assert_eq!(c.expr().constant, -1);
        assert_eq!(c.expr().coeff_of_var(v(0)), 1);
    }

    #[test]
    fn trivial_constraints_classified() {
        let mut t = Constraint::Geq(LinExpr::constant(3));
        assert_eq!(t.normalize(), Normalized::Tautology);
        let mut bad = Constraint::Geq(LinExpr::constant(-3));
        assert_eq!(bad.normalize(), Normalized::Contradiction);
        let mut z = Constraint::Eq(LinExpr::zero());
        assert_eq!(z.normalize(), Normalized::Tautology);
    }

    #[test]
    fn display_splits_sides() {
        let c = Constraint::lt(LinExpr::var(v(0)), LinExpr::sym("N"));
        let s = c.display_with(&DefaultNames).to_string();
        assert_eq!(s, "N >= v0 + 1");
    }

    #[test]
    fn normalize_all_dedups_and_sorts() {
        let c1 = Constraint::ge(LinExpr::var(v(0)), LinExpr::zero());
        let mut cs = vec![c1.clone(), c1.clone(), Constraint::Geq(LinExpr::constant(1))];
        assert!(normalize_all(&mut cs).is_some());
        assert_eq!(cs.len(), 1);
        let mut bad = vec![Constraint::Geq(LinExpr::constant(-1))];
        assert!(normalize_all(&mut bad).is_none());
    }
}
