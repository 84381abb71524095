//! Fault injection: every corruption class × every catalog source format
//! must surface as a typed error naming the failed check — never a panic
//! — while untouched inputs keep converting bit-exactly through the same
//! engine. Also pins the admission-control (memory budget), batch
//! deadline, and concurrent stats-exactness contracts.

use std::time::Duration;

use sparse_engine::{Engine, EngineConfig, EngineError};
use sparse_formats::descriptors;
use sparse_formats::{
    validate_matrix, AnyMatrix, CooMatrix, CscMatrix, CsrMatrix, EllMatrix, FormatDescriptor,
    MortonCooMatrix,
};
use sparse_matgen::corrupt::{corrupt_matrix, Corruption};
use sparse_synthesis::RunError;

/// Sorted row-major, two entries in row 0 (so ELL has width 2 and the
/// duplicate-coordinate class applies everywhere it can).
fn sample_coo() -> CooMatrix {
    CooMatrix::from_triplets(
        4,
        5,
        vec![0, 0, 1, 2, 3],
        vec![1, 3, 0, 2, 4],
        vec![1.0, 2.0, 3.0, 4.0, 5.0],
    )
    .unwrap()
}

/// Every catalog source container with its descriptor and a
/// known-synthesizable destination.
fn sources() -> Vec<(&'static str, AnyMatrix, FormatDescriptor, FormatDescriptor)> {
    let coo = sample_coo();
    vec![
        ("scoo", AnyMatrix::Coo(coo.clone()), descriptors::scoo(), descriptors::csr()),
        ("csr", AnyMatrix::Csr(CsrMatrix::from_coo(&coo)), descriptors::csr(), descriptors::coo()),
        ("csc", AnyMatrix::Csc(CscMatrix::from_coo(&coo)), descriptors::csc(), descriptors::csr()),
        ("ell", AnyMatrix::Ell(EllMatrix::from_coo(&coo)), descriptors::ell(), descriptors::csr()),
        (
            "mcoo",
            AnyMatrix::MortonCoo(MortonCooMatrix::from_coo(&coo)),
            descriptors::mcoo(),
            descriptors::csr(),
        ),
    ]
}

/// The validator's complete check vocabulary; every rejection must cite
/// one of these.
const CHECK_NAMES: [&str; 8] = [
    "array-lengths",
    "pointer-ends",
    "pointer-monotone",
    "index-bounds",
    "ordering",
    "duplicate-coordinate",
    "value-finite",
    "padding-zero",
];

#[test]
fn every_corruption_class_yields_typed_error_or_exact_result() {
    for (label, input, src, dst) in sources() {
        let engine = Engine::new();
        let oracle = engine.convert(&src, &dst, &input).unwrap();
        let mut rejected = 0u64;
        for class in Corruption::ALL {
            let Some(mutant) = corrupt_matrix(&input, class) else {
                continue; // class has no realization for this container
            };
            match engine.convert(&src, &dst, &mutant) {
                Ok(out) if class.is_benign() => {
                    assert_eq!(out.nnz(), 0, "{label}/{class}: empty input converts empty");
                }
                Ok(_) => panic!("{label}/{class}: corrupted input was accepted"),
                Err(EngineError::Run(RunError::InvalidInput { check, detail })) => {
                    assert!(
                        !class.is_benign(),
                        "{label}/{class}: benign input rejected: [{check}] {detail}"
                    );
                    assert!(
                        CHECK_NAMES.contains(&check),
                        "{label}/{class}: unknown check `{check}`"
                    );
                    assert!(!detail.is_empty(), "{label}/{class}: empty detail");
                    rejected += 1;
                }
                Err(other) => panic!("{label}/{class}: expected InvalidInput, got: {other}"),
            }
        }
        assert!(rejected >= 6, "{label}: expected at least 6 malicious classes, got {rejected}");
        // After the full corruption sweep the untouched input still
        // round-trips bit-exactly through the same engine instance.
        assert_eq!(engine.convert(&src, &dst, &input).unwrap(), oracle, "{label}");
        let stats = engine.stats();
        assert_eq!(stats.panics_caught, 0, "{label}: zero panics allowed");
        assert_eq!(stats.inputs_rejected, rejected, "{label}: rejection count must be exact");
    }
}

/// Every corruption class on every source kind that
/// `sparse_matgen::corrupt`'s container/input agreement test covers,
/// through `Engine::convert`: a class the source descriptor's input check
/// rejects comes back as `InvalidInput` naming that same check, and a
/// class it accepts converts. The unordered COO source converts to SCOO
/// (the sort): its accepted repeated coordinates would fail the output
/// check into CSR, CSC or MCOO, where the plan collapses duplicates.
#[test]
fn corruptions_through_convert_name_the_input_check() {
    let coo = sample_coo();
    let cases = [
        ("coo", AnyMatrix::Coo(coo.clone()), descriptors::coo(), descriptors::scoo()),
        ("scoo", AnyMatrix::Coo(coo.clone()), descriptors::scoo(), descriptors::csr()),
        (
            "mcoo",
            AnyMatrix::MortonCoo(MortonCooMatrix::from_coo(&coo)),
            descriptors::mcoo(),
            descriptors::csr(),
        ),
        ("csr", AnyMatrix::Csr(CsrMatrix::from_coo(&coo)), descriptors::csr(), descriptors::coo()),
        ("csc", AnyMatrix::Csc(CscMatrix::from_coo(&coo)), descriptors::csc(), descriptors::csr()),
        ("ell", AnyMatrix::Ell(EllMatrix::from_coo(&coo)), descriptors::ell(), descriptors::csr()),
    ];
    let engine = Engine::new();
    let (mut rejected, mut accepted) = (0, 0);
    for (label, input, src, dst) in cases {
        for class in Corruption::ALL {
            let Some(mutant) = corrupt_matrix(&input, class) else { continue };
            let expect = validate_matrix(&src, mutant.as_ref()).err().map(|e| e.check.as_str());
            match (expect, engine.convert(&src, &dst, &mutant)) {
                (None, Ok(out)) => {
                    assert_eq!(out.nnz(), mutant.nnz(), "{label}/{class}: entries kept");
                    accepted += 1;
                }
                (Some(want), Err(EngineError::Run(RunError::InvalidInput { check, .. }))) => {
                    assert_eq!(check, want, "{label}/{class}");
                    rejected += 1;
                }
                (expect, got) => {
                    panic!("{label}/{class}: input check {expect:?}, engine returned {got:?}")
                }
            }
        }
    }
    // Six sources: 36 realized corruptions, and `Empty` on each plus the
    // repeat an unordered COO admits.
    assert_eq!((rejected, accepted), (36, 7));
    assert_eq!(engine.stats().panics_caught, 0);
    assert_eq!(engine.stats().inputs_rejected, rejected);
}

#[test]
fn batch_quarantines_corrupted_item_with_exact_stats() {
    let engine = Engine::with_config(EngineConfig { threads: 4, ..Default::default() });
    let (src, dst) = (descriptors::scoo(), descriptors::csr());
    let good = AnyMatrix::Coo(sample_coo());
    let bad = corrupt_matrix(&good, Corruption::NegativeIndex).unwrap();

    let mut inputs = vec![good.clone(); 8];
    inputs[5] = bad;
    let results = engine.convert_batch(&src, &dst, &inputs).unwrap();
    assert_eq!(results.len(), 8);
    let oracle = AnyMatrix::Csr(CsrMatrix::from_coo(&sample_coo()));
    for (i, item) in results.iter().enumerate() {
        if i == 5 {
            match item {
                Err(EngineError::Run(RunError::InvalidInput { check, .. })) => {
                    assert_eq!(*check, "index-bounds");
                }
                other => panic!("item 5: expected InvalidInput, got {other:?}"),
            }
        } else {
            assert_eq!(*item.as_ref().unwrap(), oracle, "item {i}");
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.items_failed, 1);
    assert_eq!(stats.inputs_rejected, 1);
    assert_eq!(stats.panics_caught, 0);
    assert_eq!(stats.degraded_conversions, 0, "deterministic rejections are not retried");
    assert_eq!(stats.conversions, 7, "the rejected item never reaches execution");
    assert_eq!(stats.nnz_moved, 7 * good.nnz() as u64);
}

#[test]
fn expired_deadline_fails_unstarted_items_with_typed_error() {
    let engine = Engine::with_config(EngineConfig {
        threads: 2,
        batch_deadline: Some(Duration::ZERO),
        ..Default::default()
    });
    let inputs = vec![AnyMatrix::Coo(sample_coo()); 4];
    let results = engine
        .convert_batch(&descriptors::scoo(), &descriptors::csr(), &inputs)
        .unwrap();
    assert_eq!(results.len(), 4, "expired items keep their slots");
    for (i, item) in results.iter().enumerate() {
        match item {
            Err(EngineError::Run(RunError::DeadlineExceeded { deadline })) => {
                assert_eq!(*deadline, Duration::ZERO, "item {i}");
            }
            other => panic!("item {i}: expected DeadlineExceeded, got {other:?}"),
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.deadline_expired, 4);
    assert_eq!(stats.items_failed, 4);
    assert_eq!(stats.conversions, 0, "no expired item reaches execution");
    assert_eq!(stats.degraded_conversions, 0, "expired items are not retried");
}

#[test]
fn memory_budget_refuses_dia_blowup_before_allocation() {
    // An antidiagonal matrix puts every nonzero on its own diagonal: DIA
    // materializes nd × nr slots — 64 × 64 × 8 bytes here, plus offsets.
    let n = 64usize;
    let anti = CooMatrix::from_triplets(
        n,
        n,
        (0..n as i64).collect(),
        (0..n as i64).rev().collect(),
        vec![1.0; n],
    )
    .unwrap();
    let engine = Engine::with_config(EngineConfig {
        memory_budget: Some(10_000),
        ..Default::default()
    });
    let err = engine
        .convert(&descriptors::scoo(), &descriptors::dia(), &AnyMatrix::Coo(anti))
        .unwrap_err();
    match err {
        EngineError::Run(RunError::ResourceExhausted { what, needed, budget }) => {
            assert_eq!(what, "dia output");
            assert_eq!(budget, 10_000);
            assert!(needed > budget, "estimate {needed} must exceed the budget");
        }
        other => panic!("expected ResourceExhausted, got: {other}"),
    }
    assert_eq!(engine.stats().inputs_rejected, 1);
    assert_eq!(engine.stats().conversions, 0, "refused before execution");

    // A banded matrix of the same nnz fits the same budget comfortably.
    let diag = CooMatrix::from_triplets(
        n,
        n,
        (0..n as i64).collect(),
        (0..n as i64).collect(),
        vec![1.0; n],
    )
    .unwrap();
    engine
        .convert(&descriptors::scoo(), &descriptors::dia(), &AnyMatrix::Coo(diag))
        .unwrap();
}

/// Regression: the CSR/CSC estimates sized the pointer array as
/// `(extent + 1) * 8` unchecked, so a valid input with a huge extent
/// overflowed — a panic escaping `convert` in debug builds, and in
/// release a wrapped, tiny estimate that admitted the conversion. The
/// estimate must saturate and refuse.
#[test]
fn memory_budget_saturates_huge_compressed_extents() {
    let huge = 1usize << 61;
    for (what, dst, nr, nc) in [
        ("csr output", descriptors::csr(), huge, 1),
        ("csc output", descriptors::csc(), 1, huge),
    ] {
        let engine = Engine::with_config(EngineConfig {
            memory_budget: Some(1 << 30),
            ..Default::default()
        });
        let one = CooMatrix::from_triplets(nr, nc, vec![0], vec![0], vec![1.0]).unwrap();
        let err = engine.convert(&descriptors::scoo(), &dst, &AnyMatrix::Coo(one)).unwrap_err();
        match err {
            EngineError::Run(RunError::ResourceExhausted { what: got, needed, budget }) => {
                assert_eq!(got, what);
                assert_eq!(budget, 1 << 30);
                assert_eq!(needed, u64::MAX, "{what}: the estimate saturates");
            }
            other => panic!("{what}: expected ResourceExhausted, got: {other}"),
        }
        let stats = engine.stats();
        assert_eq!(stats.inputs_rejected, 1, "{what}");
        assert_eq!(stats.panics_caught, 0, "{what}");
        assert_eq!(stats.conversions_failed, 0, "{what}: refused before execution");
    }
}

#[test]
fn stats_stay_exact_under_concurrent_corrupted_batches() {
    const OS_THREADS: usize = 4;
    const BATCHES_PER_THREAD: usize = 5;
    const VALID_PER_BATCH: usize = 5;

    let engine = Engine::with_config(EngineConfig { threads: 2, ..Default::default() });
    let (src, dst) = (descriptors::scoo(), descriptors::csr());
    let good = AnyMatrix::Coo(sample_coo());
    let bad = corrupt_matrix(&good, Corruption::OversizedIndex).unwrap();

    std::thread::scope(|s| {
        for _ in 0..OS_THREADS {
            s.spawn(|| {
                for _ in 0..BATCHES_PER_THREAD {
                    let mut inputs = vec![good.clone(); VALID_PER_BATCH + 1];
                    inputs[2] = bad.clone();
                    let results = engine.convert_batch(&src, &dst, &inputs).unwrap();
                    assert_eq!(results.iter().filter(|r| r.is_ok()).count(), VALID_PER_BATCH);
                }
            });
        }
    });

    let total_batches = (OS_THREADS * BATCHES_PER_THREAD) as u64;
    let stats = engine.stats();
    assert_eq!(stats.items_failed, total_batches);
    assert_eq!(stats.inputs_rejected, total_batches);
    assert_eq!(stats.panics_caught, 0);
    assert_eq!(stats.deadline_expired, 0);
    assert_eq!(stats.conversions, total_batches * VALID_PER_BATCH as u64);
    assert_eq!(stats.nnz_moved, stats.conversions * good.nnz() as u64);
    assert_eq!(stats.plans_synthesized, 1, "every batch shares one cached plan");
}

/// Regression: `conversions` (and `interp_fallbacks`) used to increment
/// before the execution outcome was known, so failed and panicked runs
/// inflated the conversion count and the "conversions succeeded" story
/// the counter tells was a lie. Failed executions now count under
/// `conversions_failed` only.
#[test]
fn failed_runs_are_not_counted_as_conversions() {
    // Validation off: the mismatched container reaches the run path and
    // fails inside it (bind-time dispatch error) instead of being
    // rejected up front.
    let engine = Engine::with_config(EngineConfig {
        validate_inputs: false,
        ..Default::default()
    });
    let (src, dst) = (descriptors::scoo(), descriptors::csr());
    let good = AnyMatrix::Coo(sample_coo());
    let wrong = AnyMatrix::Csr(CsrMatrix::from_coo(&sample_coo()));

    engine.convert(&src, &dst, &good).unwrap();
    assert!(engine.convert(&src, &dst, &wrong).is_err());
    assert!(engine.convert(&src, &dst, &wrong).is_err());
    engine.convert(&src, &dst, &good).unwrap();

    let stats = engine.stats();
    assert_eq!(stats.conversions, 2, "only completed conversions count");
    assert_eq!(stats.conversions_failed, 2, "failed runs get their own counter");
    assert_eq!(stats.interp_fallbacks, 2, "fallbacks count successes only");
    assert_eq!(
        stats.kernels_hit + stats.interp_fallbacks,
        stats.conversions,
        "the backend-accounting invariant holds under failures"
    );
    assert_eq!(stats.inputs_rejected, 0, "nothing was rejected before execution");
    assert_eq!(stats.nnz_moved, 2 * good.nnz() as u64, "failed runs move no nnz");
    assert!(engine.events_dump().contains("run-failed"), "{}", engine.events_dump());
}

#[test]
fn corruption_sweep_stays_typed_with_kernel_backend_enabled() {
    // The native kernel backend only ever runs behind validated inputs
    // and verified plans, so enabling it must change nothing about the
    // fault-injection contract: every corruption class still surfaces as
    // a typed validation error (kernels never see corrupt data), clean
    // inputs still convert bit-exactly, and the backend accounting
    // balances.
    for (label, input, src, dst) in sources() {
        let engine = Engine::with_config(EngineConfig {
            verify_plans: true,
            ..Default::default()
        });
        let oracle = match engine.convert(&src, &dst, &input) {
            Ok(out) => out,
            // Pairs the static verifier refuses never reach execution;
            // the kernel-backend contract is vacuous for them.
            Err(EngineError::Plan(_)) => continue,
            Err(other) => panic!("{label}: clean input failed: {other}"),
        };
        let mut rejected = 0u64;
        for class in Corruption::ALL {
            let Some(mutant) = corrupt_matrix(&input, class) else { continue };
            match engine.convert(&src, &dst, &mutant) {
                Ok(out) if class.is_benign() => {
                    assert_eq!(out.nnz(), 0, "{label}/{class}: empty input converts empty");
                }
                Ok(_) => panic!("{label}/{class}: corrupted input was accepted"),
                Err(EngineError::Run(RunError::InvalidInput { .. })) => rejected += 1,
                Err(other) => panic!("{label}/{class}: expected InvalidInput, got: {other}"),
            }
        }
        assert!(rejected >= 6, "{label}: expected at least 6 malicious classes");
        assert_eq!(engine.convert(&src, &dst, &input).unwrap(), oracle, "{label}");
        let stats = engine.stats();
        assert_eq!(stats.panics_caught, 0, "{label}: zero panics allowed");
        assert_eq!(
            stats.kernels_hit + stats.interp_fallbacks,
            stats.conversions,
            "{label}: backend accounting must balance"
        );
        let kernel_backed =
            engine.plan(&src, &dst).map(|p| p.has_kernel()).unwrap_or(false);
        if kernel_backed {
            assert!(
                stats.kernels_hit > 0,
                "{label}: the kernel backend must actually engage on this pair"
            );
        } else {
            assert_eq!(stats.kernels_hit, 0, "{label}: no kernel registered");
        }
    }
}
