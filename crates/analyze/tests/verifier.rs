//! End-to-end verifier behavior over the format catalog:
//!
//! * every synthesizable catalog pair verifies with **zero errors** (and,
//!   as it happens, zero warnings — the prover discharges every bounds
//!   obligation the catalog generates);
//! * descriptor lints are clean for the whole catalog;
//! * a deliberately broken CSR (rowptr monotonicity dropped) is rejected
//!   at synthesis time with a specific SA006 diagnostic;
//! * the optimized `csr -> coo` populate nest is statically proved
//!   parallelizable;
//! * optimization preserves the verifier verdict: every pair whose naive
//!   plan verifies clean keeps verifying clean after optimization;
//! * the two sort- and search-free plan shapes are checked, not trusted: a
//!   compaction counter where the source order does not imply the
//!   destination key fails SA007, and a DIA `off` written without the
//!   counted ascending sweep fails SA006;
//! * stores of one constant commute, stores of different constants to
//!   the same entries in one nest do not.

use sparse_analyze::{lint_descriptor, verify, verify_computation, Code, Parallelism};
use sparse_formats::{descriptors, FormatDescriptor};
use sparse_synthesis::{
    synthesize, Membership, PermutationKind, SynthesisOptions, SynthesizedConversion, PERM_NAME,
};
use spf_computation::{Kernel, Stmt};
use spf_ir::{LinExpr, VarId};

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
/// CSC's. Swapping the sorted permutation of ELL -> CSC for a compaction
/// counter (what optimization does for ELL -> CSR) must fail SA007.
#[test]
fn counter_permutation_without_implied_order_is_rejected_with_sa007() {
    let mut conv =
        synthesize(&descriptors::ell(), &descriptors::csc(), SynthesisOptions::default()).unwrap();
    assert!(conv.computation.counters().next().is_none(), "ELL -> CSC must sort");
    assert!(verify(&conv).is_clean());
    let stmts = &mut conv.computation.stmts;
    stmts.retain(|s| {
        !matches!(&s.kernel,
            Kernel::ListInsert { list, .. } | Kernel::ListFinalize { list } if list == PERM_NAME)
    });
    for s in stmts.iter_mut() {
        if matches!(&s.kernel, Kernel::ListDecl { list, .. } if list == PERM_NAME) {
            s.kernel = Kernel::CounterDecl { counter: PERM_NAME.into() };
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

/// Stores of one constant commute, so the presence-mark nest of the
/// direct COO -> DIA plan is parallel. A second store of a different
/// constant to the same entries in the same nest conflicts with it (the
/// last writer wins), so that nest must not be proved parallel.
#[test]
fn stores_of_different_constants_in_one_nest_are_not_parallel() {
    let mut conv =
        synthesize(&descriptors::coo(), &descriptors::dia(), SynthesisOptions::default()).unwrap();
    let verdict = |conv: &SynthesizedConversion, label: &str| {
        let report = verify(conv);
        let nest = report.nests.iter().find(|n| n.label.contains(label));
        nest.unwrap_or_else(|| panic!("no nest `{label}`:\n{}", report.render())).parallelism
    };
    assert_eq!(verdict(&conv, "mark values of off"), Parallelism::Parallel);

    let stmts = &mut conv.computation.stmts;
    let mark = stmts
        .iter()
        .position(|s| s.label == "mark values of off")
        .expect("direct plan marks the present offsets");
    let group = stmts.iter().map(|s| s.fuse_group).filter(|&g| g != usize::MAX).max();
    stmts[mark].fuse_group = group.map_or(0, |g| g + 1);
    let mut clear = stmts[mark].clone();
    let Kernel::UfWrite { value, .. } = &mut clear.kernel else { panic!("mark is a UF write") };
    *value = LinExpr::constant(0);
    clear.label = "clear values of off".into();
    stmts.insert(mark + 1, clear);
    assert_eq!(verdict(&conv, "clear values of off"), Parallelism::Sequential);
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

/// The optimized `csr -> coo` plan copies through the identity
/// permutation (`p = k`); proving its populate nest parallel takes the
/// full prover: rowptr window chaining across rows (monotonicity),
/// `col2` congruence, and the identity equalities.
#[test]
fn csr_to_coo_populate_nest_is_parallel() {
    let conv = synthesize(&descriptors::csr(), &descriptors::coo(), SynthesisOptions::default())
        .unwrap();
    assert!(
        matches!(conv.permutation, PermutationKind::Identity),
        "csr -> coo needs no permutation (unordered destination, contiguous source)"
    );
    let report = verify(&conv);
    assert!(report.is_clean(), "{}", report.render());
    let parallel: Vec<_> = report
        .nests
        .iter()
        .filter(|n| n.parallelism == Parallelism::Parallel)
        .collect();
    assert!(
        !parallel.is_empty(),
        "expected a statically parallel nest:\n{}",
        report.render()
    );
    assert!(
        parallel.iter().any(|n| n.label.contains("populate")),
        "the populate nest should be the parallel one:\n{}",
        report.render()
    );
    assert!(report.has_parallel_loop());
}

/// The rowptr enforcement sweep reads the entry its previous iteration
/// wrote: a genuine loop-carried flow dependence the verifier must keep
/// sequential.
#[test]
fn monotonicity_sweep_is_sequential() {
    let conv = synthesize(&descriptors::scoo(), &descriptors::csr(), SynthesisOptions::default())
        .unwrap();
    let report = verify(&conv);
    let sweep = report
        .nests
        .iter()
        .find(|n| n.label.contains("monotonic quantifier"))
        .expect("scoo -> csr has a rowptr sweep nest");
    assert_eq!(sweep.parallelism, Parallelism::Sequential, "{}", report.render());
    // ... and the verdict is surfaced as an SA008 note.
    assert!(report.diagnostics.iter().any(|d| d.code == Code::Sa008));
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
