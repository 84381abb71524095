//! # sparse-analyze
//!
//! A static plan verifier and SPF-IR lint pass for the synthesized format
//! conversions produced by `sparse-synthesis`. Where the paper's pipeline
//! *trusts* the inspector it generates, this crate re-derives the safety
//! and ordering arguments from the plan itself, using only declared facts
//! (UF signatures: domain, range, monotonicity) and a sound refutation
//! engine over Presburger constraints with uninterpreted functions.
//!
//! Three passes run over a lowered [`Computation`]:
//!
//! 1. **Dataflow** ([`Code::Sa001`], [`Code::Sa002`], `dataflow`) — every
//!    name read by a statement must be defined earlier (by synthesis setup
//!    or a previous statement), and every destination UF must actually be
//!    populated by an allocation that covers its declared domain.
//! 2. **Bounds** ([`Code::Sa003`]–[`Code::Sa005`], `bounds`) — every UF
//!    call argument, written value, and data access must be provably
//!    inside the declared domain/range/allocation. Proofs go through
//!    [`refute::Prover`]; two-factor allocations (ELL's `ELLW*NR`, DIA's
//!    `ND*NR`) are discharged with a mixed-radix window decomposition.
//! 3. **Ordering** ([`Code::Sa006`], [`Code::Sa007`], `ordering`) — UFs
//!    that play a loop-bound ("window") role must declare monotonic
//!    quantifiers and the plan must enforce them (bound + sweep, or a
//!    sorted unique list); a destination order key must be established by
//!    the permutation chain or implied by the source order.
//!
//! [`lint_descriptor`] runs the descriptor-level subset of these checks on
//! a [`FormatDescriptor`] alone, with no plan required.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod diag;
pub mod refute;

mod bounds;
mod dataflow;
mod ordering;

use std::collections::BTreeSet;
use std::fmt;

use sparse_formats::FormatDescriptor;
use sparse_synthesis::SynthesizedConversion;
use spf_computation::{Computation, Kernel, Stmt};
use spf_ir::{Constraint, LinExpr, UfCall, UfEnvironment, UfSignature, VarId};

pub use diag::{Code, Diagnostic, Severity};
pub use refute::Prover;

/// The result of verifying one synthesized conversion plan.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// `"SRC -> DST"` for display.
    pub pair: String,
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// `true` when no error-severity finding was emitted (warnings and
    /// notes are allowed: the prover is incomplete by design).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Renders the report: a header and every diagnostic in rustc style.
    pub fn render(&self) -> String {
        let mut out = format!(
            "verification of {}: {} error(s), {} warning(s)\n",
            self.pair,
            self.error_count(),
            self.warning_count()
        );
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        out
    }

    /// Renders only the error-severity findings (used in engine failure
    /// messages, where warnings would drown the cause).
    pub fn render_errors(&self) -> String {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(Diagnostic::render)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Verifies a synthesized conversion: descriptor lints on both endpoints
/// plus the three plan passes over the (optimized) computation.
pub fn verify(conv: &SynthesizedConversion) -> AnalysisReport {
    verify_computation(&conv.computation, &conv.src, &conv.dst, &conv.synth_ufs)
}

/// Verifies an arbitrary computation against a source/destination
/// descriptor pair, with `synth_ufs` holding signatures of UFs introduced
/// by synthesis itself (the permutation `P`). Exposed separately so tests
/// can verify the *naive* computation of a conversion too.
pub fn verify_computation(
    comp: &Computation,
    src: &FormatDescriptor,
    dst: &FormatDescriptor,
    synth_ufs: &UfEnvironment,
) -> AnalysisReport {
    let cx = Ctx::new(src, dst, synth_ufs);
    let mut diagnostics = Vec::new();
    diagnostics.extend(lint_descriptor(src));
    diagnostics.extend(lint_descriptor(dst));
    dataflow::check(comp, &cx, &mut diagnostics);
    bounds::check(comp, &cx, &mut diagnostics);
    ordering::check(comp, &cx, &mut diagnostics);
    AnalysisReport { pair: format!("{} -> {}", src.name, dst.name), diagnostics }
}

/// Lints a format descriptor in isolation: shape consistency, signature
/// presence/arity ([`Code::Sa009`]), and the window-role monotonicity
/// requirement ([`Code::Sa006`]). The full catalog must lint clean; this
/// is the `scripts/check.sh` gate.
pub fn lint_descriptor(desc: &FormatDescriptor) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let shape = |msg: String| Diagnostic::new(Code::Sa009, msg).with_stmt(&desc.name);

    if desc.dim_syms.len() != desc.rank {
        out.push(shape(format!(
            "`{}` declares rank {} but {} dimension symbols",
            desc.name,
            desc.rank,
            desc.dim_syms.len()
        )));
    }
    if desc.coord_ufs.len() != desc.rank {
        out.push(shape(format!(
            "`{}` declares rank {} but {} coordinate-UF slots",
            desc.name,
            desc.rank,
            desc.coord_ufs.len()
        )));
    }
    if let Some(scan) = &desc.scan {
        if scan.dense_pos.len() != desc.rank {
            out.push(shape(format!(
                "`{}` scan maps {} dense positions for rank {}",
                desc.name,
                scan.dense_pos.len(),
                desc.rank
            )));
        }
    }
    for uf in desc.coord_ufs.iter().flatten() {
        if !desc.ufs.contains(uf) {
            out.push(shape(format!(
                "`{}` names coordinate UF `{uf}` without a registered signature",
                desc.name
            )));
        }
    }

    // Collect every UF call mentioned by the descriptor's relations.
    let mut constraints: Vec<Constraint> = Vec::new();
    for conj in desc.sparse_to_dense.conjunctions() {
        constraints.extend(conj.constraints.iter().cloned());
    }
    for conj in desc.data_access.conjunctions() {
        constraints.extend(conj.constraints.iter().cloned());
    }
    let mut scan_constraints: Vec<Constraint> = Vec::new();
    if let Some(scan) = &desc.scan {
        for conj in scan.set.conjunctions() {
            scan_constraints.extend(conj.constraints.iter().cloned());
        }
    }
    let mut all = constraints.clone();
    all.extend(scan_constraints.iter().cloned());
    let mut calls = refute::collect_calls(&all);
    if let Some(scan) = &desc.scan {
        refute::collect_calls_in_expr(&scan.data_index, &mut calls);
    }

    let mut reported: BTreeSet<String> = BTreeSet::new();
    for call in &calls {
        match desc.ufs.get(&call.name) {
            None => {
                if reported.insert(call.name.clone()) {
                    out.push(
                        Diagnostic::new(
                            Code::Sa009,
                            format!(
                                "`{}` uses UF `{}` without a registered signature",
                                desc.name, call.name
                            ),
                        )
                        .with_stmt(&desc.name),
                    );
                }
            }
            Some(sig) => {
                if sig.arity != call.args.len() && reported.insert(call.name.clone()) {
                    out.push(shape(format!(
                        "`{}` calls `{}` with {} argument(s); signature declares arity {}",
                        desc.name,
                        call.name,
                        call.args.len(),
                        sig.arity
                    )));
                }
            }
        }
    }
    for sig in desc.ufs.iter() {
        if sig.domain.arity() as usize != sig.arity {
            out.push(shape(format!(
                "`{}`: UF `{}` has arity {} but a domain of arity {}",
                desc.name,
                sig.name,
                sig.arity,
                sig.domain.arity()
            )));
        }
        if sig.range.arity() != 1 {
            out.push(shape(format!(
                "`{}`: UF `{}` has a range of arity {} (expected 1)",
                desc.name,
                sig.name,
                sig.range.arity()
            )));
        }
    }

    // Window role: a UF appearing with both signs across the descriptor's
    // inequality constraints bounds an iteration window from both sides
    // (`rowptr(i) <= k < rowptr(i+1)`); without a declared monotonic
    // quantifier those windows can overlap and no plan over them is safe.
    let mut signs: std::collections::BTreeMap<String, (bool, bool)> =
        std::collections::BTreeMap::new();
    for c in constraints.iter().chain(scan_constraints.iter()) {
        let Constraint::Geq(e) = c else { continue };
        for (coeff, atom) in &e.terms {
            if let spf_ir::Atom::Uf(u) = atom {
                let entry = signs.entry(u.name.clone()).or_insert((false, false));
                if *coeff > 0 {
                    entry.0 = true;
                } else {
                    entry.1 = true;
                }
            }
        }
    }
    for (name, (pos, neg)) in signs {
        if !(pos && neg) {
            continue;
        }
        if let Some(sig) = desc.ufs.get(&name) {
            if sig.monotonicity.is_none() {
                out.push(
                    Diagnostic::new(
                        Code::Sa006,
                        format!(
                            "`{}`: UF `{name}` bounds an iteration window from both \
                             sides but declares no monotonic quantifier; windows may \
                             overlap and no conversion plan over them is safe",
                            desc.name
                        ),
                    )
                    .with_stmt(&desc.name)
                    .with_relation(
                        spf_ir::Monotonicity::NonDecreasing.quantifier_text(&name),
                    ),
                );
            }
        }
    }
    out
}

/// Shared context for the plan passes.
pub(crate) struct Ctx<'a> {
    pub src: &'a FormatDescriptor,
    pub dst: &'a FormatDescriptor,
    pub synth: &'a UfEnvironment,
    /// Facts that hold for every statement: the size symbols of both
    /// formats are non-negative by construction.
    pub axioms: Vec<Constraint>,
}

impl<'a> Ctx<'a> {
    pub fn new(
        src: &'a FormatDescriptor,
        dst: &'a FormatDescriptor,
        synth: &'a UfEnvironment,
    ) -> Self {
        let mut axioms = Vec::new();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let syms = src
            .dim_syms
            .iter()
            .chain(dst.dim_syms.iter())
            .chain([&src.nnz_sym, &dst.nnz_sym])
            .chain(src.extra_syms.iter())
            .chain(dst.extra_syms.iter());
        for sym in syms {
            if seen.insert(sym.as_str()) {
                axioms.push(Constraint::ge(LinExpr::sym(sym.clone()), LinExpr::zero()));
            }
        }
        Ctx { src, dst, synth, axioms }
    }

    /// A prover over all three UF environments (destination wins on
    /// collision, but synthesis renames collisions away anyway).
    pub fn prover(&self) -> Prover<'a> {
        let mut p = Prover::new();
        p.add_env(&self.dst.ufs);
        p.add_env(&self.src.ufs);
        p.add_env(self.synth);
        p
    }

    /// Looks up a UF signature across destination, source, and synthesis
    /// environments.
    pub fn lookup(&self, name: &str) -> Option<&'a UfSignature> {
        self.dst
            .ufs
            .get(name)
            .or_else(|| self.src.ufs.get(name))
            .or_else(|| self.synth.get(name))
    }
}

/// One conjunction of a statement's iteration space, flattened into a
/// plain constraint system with the find binding folded in.
///
/// Variable layout: tuple variables `0..arity`, then (if the statement has
/// a find) the find variable at position `arity`, then the existentials
/// shifted up by one.
pub(crate) struct StmtSystem {
    pub constraints: Vec<Constraint>,
    pub names: Vec<String>,
}

/// Flattens each conjunction of `stmt`'s iteration space (plus the find
/// binding and the global axioms) into a [`StmtSystem`].
pub(crate) fn stmt_systems(stmt: &Stmt, axioms: &[Constraint]) -> Vec<StmtSystem> {
    let arity = stmt.iter_space.arity();
    stmt.iter_space
        .conjunctions()
        .iter()
        .map(|conj| {
            let mut names: Vec<String> = stmt.iter_space.tuple().to_vec();
            let mut constraints = match &stmt.find {
                None => conj.constraints.clone(),
                Some(f) => {
                    // Make room for the find variable at position `arity`.
                    let mut sh = |v: VarId| {
                        if v.0 >= arity {
                            LinExpr::var(VarId(v.0 + 1))
                        } else {
                            LinExpr::var(v)
                        }
                    };
                    let mut cs: Vec<Constraint> =
                        conj.constraints.iter().map(|c| c.map_vars(&mut sh)).collect();
                    let d = LinExpr::var(VarId(arity));
                    cs.push(Constraint::ge(d.clone(), f.lo.map_vars(&mut sh)));
                    cs.push(Constraint::lt(d.clone(), f.hi.map_vars(&mut sh)));
                    cs.push(Constraint::eq(
                        LinExpr::uf(UfCall::new(f.uf.clone(), vec![d])),
                        f.target.map_vars(&mut sh),
                    ));
                    names.push(f.var.clone());
                    cs
                }
            };
            names.extend(conj.exists().iter().cloned());
            constraints.extend_from_slice(axioms);
            StmtSystem { constraints, names }
        })
        .collect()
}

/// The index/value expressions a kernel evaluates per iteration (setup
/// kernels evaluate none).
pub(crate) fn kernel_exprs(kernel: &Kernel) -> Vec<&LinExpr> {
    match kernel {
        Kernel::UfWrite { idx, value, .. }
        | Kernel::UfMin { idx, value, .. }
        | Kernel::UfMax { idx, value, .. } => vec![idx, value],
        Kernel::ListInsert { args, .. } => args.iter().collect(),
        Kernel::DataAxpy { y_idx, a_idx, x_idx, .. } => vec![y_idx, a_idx, x_idx],
        Kernel::Copy { dst_idx, src_idx, .. } => vec![dst_idx, src_idx],
        _ => Vec::new(),
    }
}
