//! End-to-end verifier behavior over the format catalog:
//!
//! * every synthesizable catalog pair verifies with **zero errors** (and,
//!   as it happens, zero warnings — the prover discharges every bounds
//!   obligation the catalog generates);
//! * descriptor lints are clean for the whole catalog;
//! * a deliberately broken CSR (rowptr monotonicity dropped) is rejected
//!   at synthesis time with a specific SA006 diagnostic;
//! * optimization preserves the verifier verdict: every pair whose naive
//!   plan verifies clean keeps verifying clean after optimization;
//! * the sort- and search-free plan shapes are checked, not trusted: a
//!   compaction counter where the source order does not imply the
//!   destination key fails SA007, so does counting placement where the
//!   source order among entries of one bucket does not imply the rest of
//!   the key (an unordered source, 3-D Morton ties), and a DIA `off`
//!   written without the counted ascending sweep fails SA006.

use sparse_analyze::{lint_descriptor, verify, verify_computation, Code};
use sparse_formats::{descriptors, FormatDescriptor};
use sparse_synthesis::{
    synthesize, Membership, SynthesisOptions, SynthesizedConversion, PERM_NAME,
};
use spf_computation::{Kernel, Stmt};
use spf_ir::{parse_set, Constraint, LinExpr, UfCall, UfSignature, VarId};

/// Every `(src, dst)` pair the conversion test-suite exercises. Sources
/// need an executable scan; `coo -> scoo` needs the suffix rename because
/// both endpoints use the same UF names.
fn catalog_pairs() -> Vec<(FormatDescriptor, FormatDescriptor)> {
    vec![
        (descriptors::scoo(), descriptors::csr()),
        (descriptors::coo(), descriptors::csr()),
        (descriptors::scoo(), descriptors::csc()),
        (descriptors::csr(), descriptors::csc()),
        (descriptors::csr(), descriptors::coo()),
        (descriptors::scoo(), descriptors::dia()),
        (descriptors::scoo(), descriptors::mcoo()),
        (descriptors::mcoo(), descriptors::csr()),
        (descriptors::ell(), descriptors::csr()),
        (descriptors::ell(), descriptors::coo()),
        (descriptors::ell(), descriptors::scoo()),
        (descriptors::ell(), descriptors::dia()),
        (descriptors::coo(), descriptors::scoo().with_suffix("_d")),
        (descriptors::scoo3(), descriptors::mcoo3()),
        (descriptors::coo3(), descriptors::mcoo3()),
    ]
}

#[test]
fn catalog_descriptors_lint_clean() {
    for desc in [
        descriptors::coo(),
        descriptors::scoo(),
        descriptors::csr(),
        descriptors::csc(),
        descriptors::dia(),
        descriptors::mcoo(),
        descriptors::ell(),
        descriptors::bcsr(2, 2),
        descriptors::coo3(),
        descriptors::scoo3(),
        descriptors::mcoo3(),
    ] {
        let diags = lint_descriptor(&desc);
        assert!(
            diags.is_empty(),
            "descriptor `{}` should lint clean:\n{}",
            desc.name,
            diags.iter().map(|d| d.render()).collect::<Vec<_>>().join("\n")
        );
    }
}

#[test]
fn catalog_pairs_verify_with_zero_errors() {
    for (src, dst) in catalog_pairs() {
        let conv = synthesize(&src, &dst, SynthesisOptions::default())
            .unwrap_or_else(|e| panic!("{} -> {}: {e}", src.name, dst.name));
        let report = verify(&conv);
        assert!(
            report.is_clean(),
            "expected zero errors for {}:\n{}",
            report.pair,
            report.render()
        );
        assert_eq!(
            report.warning_count(),
            0,
            "expected zero warnings for {}:\n{}",
            report.pair,
            report.render()
        );
    }
}

#[test]
fn binary_search_plans_verify_too() {
    for membership in [Membership::Binary, Membership::Linear] {
        let opts = SynthesisOptions { membership, ..Default::default() };
        let conv = synthesize(&descriptors::scoo(), &descriptors::dia(), opts).unwrap();
        let report = verify(&conv);
        assert!(report.is_clean(), "{membership:?}: {}", report.render());
        assert_eq!(report.warning_count(), 0, "{membership:?}: {}", report.render());
    }
}

/// ELL's scan visits entries row by row, which implies CSR's key but not
/// CSC's. Swapping the sorted permutation of ELL -> CSC (the paper's plan,
/// unoptimized) for a one-bucket compaction counter (what optimization
/// does for ELL -> CSR) must fail SA007.
#[test]
fn counter_permutation_without_implied_order_is_rejected_with_sa007() {
    let unoptimized = SynthesisOptions { optimize: false, ..SynthesisOptions::default() };
    let mut conv = synthesize(&descriptors::ell(), &descriptors::csc(), unoptimized).unwrap();
    assert!(verify(&conv).is_clean());
    let stmts = &mut conv.computation.stmts;
    stmts.retain(|s| {
        !matches!(&s.kernel,
            Kernel::ListInsert { list, .. } | Kernel::ListFinalize { list } if list == PERM_NAME)
    });
    for s in stmts.iter_mut() {
        if matches!(&s.kernel, Kernel::ListDecl { list, .. } if list == PERM_NAME) {
            s.kernel = Kernel::CounterDecl { counter: PERM_NAME.into(), bucket: None };
        }
    }
    let report = verify(&conv);
    assert!(
        report.diagnostics.iter().any(|d| d.code == Code::Sa007 && d.message.contains("counter")),
        "expected SA007 for the counter:\n{}",
        report.render()
    );

    // The same rewrite is what ELL -> CSR ships, and there it verifies.
    let csr =
        synthesize(&descriptors::ell(), &descriptors::csr(), SynthesisOptions::default()).unwrap();
    assert!(csr.computation.counters().any(|c| c == PERM_NAME));
    assert!(verify(&csr).is_clean(), "{}", verify(&csr).render());
}

/// Replaces the sorted permutation of `conv`'s plan by counting placement
/// on dense dimension `dim` (a histogram, a prefix sum, and bindings
/// `p = P(key)`), as optimization does for pairs that qualify, whether or
/// not this one does.
fn force_buckets(conv: &mut SynthesizedConversion, dim: usize) {
    let scan = conv.src.scan.clone().unwrap();
    let key = LinExpr::var(VarId(scan.dense_pos[dim] as u32));
    let p = LinExpr::var(VarId(scan.set.arity()));
    let extent = conv.dst.dim_syms[dim].clone();
    let read = |e: LinExpr| LinExpr::uf(UfCall::new(PERM_NAME, vec![e]));
    let (e, one) = (LinExpr::var(VarId(0)), LinExpr::constant(1));
    for s in &mut conv.computation.stmts {
        match &s.kernel {
            Kernel::ListDecl { list, .. } if list == PERM_NAME => {
                let bucket = Some(LinExpr::sym(extent.clone()));
                s.kernel = Kernel::CounterDecl { counter: PERM_NAME.into(), bucket };
            }
            Kernel::ListInsert { list, .. } if list == PERM_NAME => {
                let at = key.add(&one);
                let value = read(at.clone()).add(&one);
                s.kernel = Kernel::UfWrite { uf: PERM_NAME.into(), idx: at, value };
            }
            Kernel::ListFinalize { list } if list == PERM_NAME => {
                let (at, prev) = (e.add(&one), read(e.clone()));
                let value = read(at.clone()).add(&prev);
                s.kernel = Kernel::UfWrite { uf: PERM_NAME.into(), idx: at, value };
                s.iter_space = parse_set(&format!("{{ [e] : 0 <= e < {extent} }}")).unwrap();
            }
            _ => {
                for conj in s.iter_space.conjunctions_mut() {
                    for c in &mut conj.constraints {
                        if c.mentions_uf(PERM_NAME) {
                            *c = Constraint::eq(p.clone(), read(key.clone()));
                        }
                    }
                }
            }
        }
    }
    conv.synth_ufs.insert(UfSignature {
        name: PERM_NAME.into(),
        arity: 1,
        domain: parse_set(&format!("{{ [x] : 0 <= x <= {extent} }}")).unwrap(),
        range: parse_set(&format!("{{ [r] : 0 <= r <= {} }}", conv.src.nnz_sym)).unwrap(),
        monotonicity: None,
    });
}

/// The unoptimized plan of `src -> dst`, which sorts `P`.
fn sorting_plan(src: &FormatDescriptor, dst: &FormatDescriptor) -> SynthesizedConversion {
    let unoptimized = SynthesisOptions { optimize: false, ..SynthesisOptions::default() };
    synthesize(src, dst, unoptimized).unwrap()
}

fn assert_bucketed_sa007(conv: &SynthesizedConversion) {
    let report = verify(conv);
    assert!(
        report.diagnostics.iter().any(|d| d.code == Code::Sa007 && d.message.contains("bucketed")),
        "expected SA007 for the bucketed counter of {}:\n{}",
        report.pair,
        report.render()
    );
}

/// Counting placement is checked, not assumed. Forced onto CSC -> CSR,
/// whose column-major source orders each row's entries by column, it
/// verifies clean, as the optimized plan does; the optimized ELL -> CSC
/// plan places by counting too.
#[test]
fn counting_placement_verifies_where_ties_are_ordered() {
    let mut conv = sorting_plan(&descriptors::csc(), &descriptors::csr());
    force_buckets(&mut conv, 0);
    assert!(verify(&conv).is_clean(), "{}", verify(&conv).render());
    let ell = synthesize(&descriptors::ell(), &descriptors::csc(), SynthesisOptions::default())
        .unwrap();
    assert!(ell.computation.counter_bucket(PERM_NAME).is_some());
    let report = verify(&ell);
    assert!(report.is_clean() && report.warning_count() == 0, "{}", report.render());
}

/// Forced onto COO -> CSR, counting placement keeps each row's entries in
/// input order, which an unordered source does not make column order.
#[test]
fn bucketed_counter_on_an_unordered_source_is_rejected_with_sa007() {
    let mut conv = sorting_plan(&descriptors::coo(), &descriptors::csr());
    force_buckets(&mut conv, 0);
    assert_bucketed_sa007(&conv);
}

/// MCOO3's Morton order, among entries that share a row, is a 2-D Morton
/// order of the other two coordinates, not SCOO3's lexicographic one.
#[test]
fn bucketed_counter_on_3d_morton_ties_is_rejected_with_sa007() {
    let mut conv = sorting_plan(&descriptors::mcoo3(), &descriptors::scoo3());
    force_buckets(&mut conv, 0);
    assert_bucketed_sa007(&conv);
}

/// The direct COO -> DIA plan writes `off` in an ascending sweep over the
/// presence map, numbered by a counter. Writing `off` straight from the
/// copy loop instead (`off[d] = j - i`, with `d` read from the inverse
/// map) stores the right values but nothing orders them: SA006.
#[test]
fn off_without_the_ascending_sweep_is_rejected_with_sa006() {
    let mut conv =
        synthesize(&descriptors::coo(), &descriptors::dia(), SynthesisOptions::default()).unwrap();
    assert!(verify(&conv).is_clean(), "{}", verify(&conv).render());
    let stmts = &mut conv.computation.stmts;
    let sweep = stmts
        .iter()
        .position(|s| matches!(&s.kernel, Kernel::UfWrite { uf, .. } if uf == "off"))
        .expect("direct plan materializes off");
    stmts.remove(sweep);
    let copy = stmts
        .iter()
        .position(|s| matches!(s.kernel, Kernel::Copy { .. }))
        .expect("copy statement");
    // Copy space `[n, i, j, d]`: write off[d] = j - i per nonzero.
    let (i, j, d) = (LinExpr::var(VarId(1)), LinExpr::var(VarId(2)), LinExpr::var(VarId(3)));
    let space = stmts[copy].iter_space.clone();
    let write = Kernel::UfWrite { uf: "off".into(), idx: d, value: j.sub(&i) };
    stmts.insert(copy, Stmt::new("off from the presence map", write, space));
    let report = verify(&conv);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::Sa006
                && d.stmt.as_deref() == Some("off from the presence map")),
        "expected SA006 on the unsorted off write:\n{}",
        report.render()
    );
}

/// Dropping rowptr's monotonic quantifier must be caught statically: the
/// windows `rowptr(i) <= k < rowptr(i+1)` could then overlap, and no plan
/// that populates rowptr by min/max bounds can establish anything.
#[test]
fn broken_csr_is_rejected_with_sa006() {
    let broken = descriptors::csr().edit(|s| {
        let mut rowptr = s.ufs.get("rowptr").expect("csr has rowptr").clone();
        rowptr.monotonicity = None;
        s.ufs.insert(rowptr);
    });

    // The descriptor lint alone already flags the window role.
    let lint = lint_descriptor(&broken);
    assert!(
        lint.iter().any(|d| d.code == Code::Sa006),
        "expected SA006 from descriptor lint:\n{}",
        lint.iter().map(|d| d.render()).collect::<Vec<_>>().join("\n")
    );

    // And a full plan against the broken descriptor fails verification.
    let conv =
        synthesize(&descriptors::scoo(), &broken, SynthesisOptions::default()).unwrap();
    let report = verify(&conv);
    assert!(!report.is_clean(), "broken CSR must not verify:\n{}", report.render());
    assert!(
        report.diagnostics.iter().any(|d| d.code == Code::Sa006),
        "expected SA006 in:\n{}",
        report.render()
    );
}

/// Satellite: `optimize` must preserve the verifier verdict — every
/// catalog pair whose naive plan verifies clean still verifies clean
/// after the optimization pipeline (redundancy elimination, identity
/// permutation elimination, DCE, fusion).
#[test]
fn optimization_preserves_clean_verdict() {
    for (src, dst) in catalog_pairs() {
        let conv = synthesize(&src, &dst, SynthesisOptions::default())
            .unwrap_or_else(|e| panic!("{} -> {}: {e}", src.name, dst.name));
        let naive = verify_computation(&conv.naive, &conv.src, &conv.dst, &conv.synth_ufs);
        let optimized = verify(&conv);
        assert!(
            naive.is_clean(),
            "naive plan should verify clean for {}:\n{}",
            naive.pair,
            naive.render()
        );
        assert!(
            optimized.is_clean(),
            "optimization changed the verdict for {}:\nnaive:\n{}\noptimized:\n{}",
            optimized.pair,
            naive.render(),
            optimized.render()
        );
    }
}
