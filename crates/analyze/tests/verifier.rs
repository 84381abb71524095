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
//!   plan verifies clean keeps verifying clean after optimization.

use sparse_analyze::{lint_descriptor, verify, verify_computation, Code, Parallelism};
use sparse_formats::{descriptors, FormatDescriptor};
use sparse_synthesis::{synthesize, PermutationKind, SynthesisOptions};

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
    let opts = SynthesisOptions { binary_search: true, ..Default::default() };
    let conv = synthesize(&descriptors::scoo(), &descriptors::dia(), opts).unwrap();
    let report = verify(&conv);
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.warning_count(), 0, "{}", report.render());
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
