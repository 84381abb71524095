//! Fault injection: every corruption class × every catalog source format
//! must surface as a typed error naming the failed check — never a panic
//! — while untouched inputs keep converting bit-exactly through the same
//! engine. Also pins the memory-budget, allocation-overflow, batch
//! deadline, and concurrent stats-exactness contracts.

use std::time::Duration;

use sparse_engine::{Engine, EngineConfig, EngineError};
use sparse_formats::descriptors;
use sparse_formats::{
    validate_matrix, AnyMatrix, CooMatrix, CscMatrix, CsrMatrix, EllMatrix, FormatDescriptor,
    MortonCooMatrix,
};
use sparse_matgen::corrupt::{corrupt_matrix, Corruption};
use sparse_synthesis::{Membership, RunError, SynthesisOptions};
use spf_codegen::interp::ExecError;

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
/// class it accepts converts. The one exception is the repeated
/// coordinate an unordered COO source admits: the plan gives both copies
/// one rank and leaves the next slot unwritten, and the SCOO output check
/// rejects the result as out of order, as it does for CSR, CSC and MCOO
/// destinations.
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
    let (mut rejected, mut accepted, mut output_rejected) = (0, 0, 0);
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
                (None, Err(EngineError::Run(RunError::Format(e))))
                    if (label, class) == ("coo", Corruption::DuplicateCoordinate) =>
                {
                    assert_eq!(e.check.as_str(), "ordering", "{label}/{class}");
                    output_rejected += 1;
                }
                (expect, got) => {
                    panic!("{label}/{class}: input check {expect:?}, engine returned {got:?}")
                }
            }
        }
    }
    // Six sources: 36 realized corruptions, `Empty` on each, and the
    // repeat an unordered COO admits.
    assert_eq!((rejected, accepted, output_rejected), (36, 6, 1));
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
    // materializes nd × nr slots — 64 × 64 × 8 bytes here. The plan
    // first allocates its diagonal map (two arrays of NR + NC = 128
    // words) and the offsets (64 words), then refuses at `Adia`.
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
            assert_eq!(what, "Adia");
            assert_eq!(budget, 10_000);
            assert_eq!(needed, (2 * 128 + 64) * 8 + 64 * 64 * 8);
        }
        other => panic!("expected ResourceExhausted, got: {other}"),
    }
    assert_eq!(engine.stats().inputs_rejected, 1);
    assert_eq!(engine.stats().conversions, 0, "refused at an allocation");

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

/// A wide `1 × N` input with two nonzeros converts to a 32-byte DIA, but
/// the default plan's direct diagonal map spans all `N + 1` slots of its
/// presence array `M_off`, and the budget must weigh that. A search plan
/// allocates no map, so the same budget admits it.
#[test]
fn memory_budget_counts_the_direct_diagonal_map() {
    let n = 1usize << 16;
    let wide = AnyMatrix::Coo(
        CooMatrix::from_triplets(1, n, vec![0, 0], vec![3, n as i64 - 1], vec![1.0; 2]).unwrap(),
    );
    let budget = 1 << 16;
    for membership in [Membership::Direct, Membership::Linear] {
        let engine = Engine::with_config(EngineConfig {
            memory_budget: Some(budget),
            options: SynthesisOptions { membership, ..Default::default() },
            ..Default::default()
        });
        let got = engine.convert(&descriptors::scoo(), &descriptors::dia(), &wide);
        match got {
            Err(EngineError::Run(RunError::ResourceExhausted { what, needed, .. })) => {
                assert_eq!(membership, Membership::Direct, "only the map is over budget");
                assert_eq!((what.as_str(), needed), ("M_off", (n as u64 + 1) * 8));
            }
            Ok(_) => assert_eq!(membership, Membership::Linear, "the map must be counted"),
            Err(other) => panic!("{membership:?}: unexpected {other}"),
        }
    }
}

/// Asserts that SCOO→DIA of `input` under `membership` allocates exactly
/// `exact` bytes: that budget admits it, and one byte less refuses it at
/// the last allocation, `Adia`.
fn assert_exact_dia_budget(input: &AnyMatrix, membership: Membership, exact: u64) {
    let (src, dst) = (descriptors::scoo(), descriptors::dia());
    let budgeted = |budget| {
        Engine::with_config(EngineConfig {
            memory_budget: Some(budget),
            options: SynthesisOptions { membership, ..Default::default() },
            ..Default::default()
        })
    };
    budgeted(exact).convert(&src, &dst, input).unwrap();
    match budgeted(exact - 1).convert(&src, &dst, input) {
        Err(EngineError::Run(RunError::ResourceExhausted { what, needed, .. })) => {
            assert_eq!((what.as_str(), needed), ("Adia", exact), "{membership:?}");
        }
        other => panic!("{membership:?}: expected ResourceExhausted, got: {other:?}"),
    }
}

/// DIA's footprint follows its distinct diagonals, not its nnz. An
/// antidiagonal `64 × 64` matrix takes 64 diagonals × 64 rows of data plus
/// 64 offsets; a same-nnz main diagonal takes one diagonal of 64 rows
/// plus one offset. The direct plan adds its map, two arrays of
/// `NR + NC = 128` words, to both.
#[test]
fn memory_budget_scales_dia_with_distinct_diagonals() {
    let n = 64i64;
    let coo = |cols: Vec<i64>| {
        let m = CooMatrix::from_triplets(64, 64, (0..n).collect(), cols, vec![1.0; 64]);
        AnyMatrix::Coo(m.unwrap())
    };
    let (anti, banded) = (coo((0..n).rev().collect()), coo((0..n).collect()));
    let map = 2 * 128 * 8;
    assert_exact_dia_budget(&anti, Membership::Direct, 64 * 64 * 8 + 64 * 8 + map);
    assert_exact_dia_budget(&banded, Membership::Direct, 64 * 8 + 8 + map);
    assert_exact_dia_budget(&anti, Membership::Linear, 64 * 64 * 8 + 64 * 8);
    assert_exact_dia_budget(&banded, Membership::Linear, 64 * 8 + 8);
}

/// A wide `1 × N` input with two nonzeros has a 32-byte two-diagonal DIA.
/// The direct plan's map adds two arrays of `NR + NC = N + 1` words, over
/// a thousand times the output; a search plan allocates no map, so its
/// figure is the output alone.
#[test]
fn memory_budget_is_exact_for_the_diagonal_map_on_wide_inputs() {
    let n = 1u64 << 16;
    let cols = vec![3, n as i64 - 1];
    let wide = CooMatrix::from_triplets(1, n as usize, vec![0, 0], cols, vec![1.0; 2]).unwrap();
    let (wide, output) = (AnyMatrix::Coo(wide), 2 * 8 + 2 * 8);
    for membership in [Membership::Direct, Membership::Linear, Membership::Binary] {
        let map = if membership == Membership::Direct { 2 * (n + 1) * 8 } else { 0 };
        assert_exact_dia_budget(&wide, membership, output + map);
    }
    assert!(2 * (n + 1) * 8 > 1000 * output);
}

/// Regression: the pointer array of a valid input with a huge extent
/// needs `(extent + 1) * 8` bytes, which overflows. Sizing it unchecked
/// panicked in debug builds and, in release, wrapped to a tiny figure
/// that admitted the conversion. The size must saturate and refuse.
#[test]
fn memory_budget_saturates_huge_compressed_extents() {
    let huge = 1usize << 61;
    for (what, dst, nr, nc) in [
        ("rowptr", descriptors::csr(), huge, 1),
        ("colptr", descriptors::csc(), 1, huge),
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
                assert_eq!(needed, u64::MAX, "{what}: the size saturates");
            }
            other => panic!("{what}: expected ResourceExhausted, got: {other}"),
        }
        let stats = engine.stats();
        assert_eq!(stats.inputs_rejected, 1, "{what}");
        assert_eq!(stats.panics_caught, 0, "{what}");
        assert_eq!(stats.conversions_failed, 0, "{what}: a refusal is not a failure");
    }
}

/// The budget holds the plan's own allocations exactly: SCOO→CSR on
/// `sample_coo` allocates `col2` (5 words), `rowptr` (NR + 1 = 5 words)
/// and `Acsr` (5 values), 120 bytes in all. A budget of 120 admits it and
/// 119 refuses it at the last allocation.
#[test]
fn memory_budget_is_exact_for_the_plan_allocations() {
    let input = AnyMatrix::Coo(sample_coo());
    let (src, dst) = (descriptors::scoo(), descriptors::csr());
    let exact = 5 * 8 + 5 * 8 + 5 * 8;
    let budgeted = |budget| {
        Engine::with_config(EngineConfig { memory_budget: Some(budget), ..Default::default() })
    };
    let engine = budgeted(exact);
    let out = engine.convert(&src, &dst, &input).unwrap();
    assert_eq!(out, Engine::new().convert(&src, &dst, &input).unwrap());
    let engine = budgeted(exact - 1);
    match engine.convert(&src, &dst, &input) {
        Err(EngineError::Run(RunError::ResourceExhausted { what, needed, budget })) => {
            assert_eq!((what.as_str(), needed, budget), ("Acsr", exact, exact - 1));
        }
        other => panic!("expected ResourceExhausted, got: {other:?}"),
    }
    let stats = engine.stats();
    assert_eq!((stats.inputs_rejected, stats.conversions_failed), (1, 0));
    assert!(engine.events_dump().contains("admission-rejected"), "{}", engine.events_dump());
}

/// A tall `N × 1` input with two nonzeros has a 48-byte sorted-COO
/// output, but an MCOO source places by counting, with one cursor per
/// row: `P` takes `N + 1` words and the budget refuses it there. An
/// unordered COO source sorts instead and allocates no cursors, so the
/// same budget admits it. Its destination is renamed, as the oracle's
/// is: under the shared names `row1`/`col1`/`Acoo` the plan allocates
/// its outputs over its own inputs, and the SCOO output check refuses
/// the result.
#[test]
fn memory_budget_counts_the_counting_cursors_on_tall_inputs() {
    let n = 1usize << 16;
    let tall = CooMatrix::from_triplets(n, 1, vec![3, n as i64 - 1], vec![0, 0], vec![1.0; 2])
        .unwrap();
    let engine =
        Engine::with_config(EngineConfig { memory_budget: Some(64 << 10), ..Default::default() });
    let mcoo = AnyMatrix::MortonCoo(MortonCooMatrix::from_coo(&tall));
    match engine.convert(&descriptors::mcoo(), &descriptors::scoo(), &mcoo) {
        Err(EngineError::Run(RunError::ResourceExhausted { what, needed, .. })) => {
            assert_eq!((what.as_str(), needed), ("P", 2 * 2 * 8 + (n as u64 + 1) * 8));
        }
        other => panic!("expected ResourceExhausted, got: {other:?}"),
    }
    let scoo = descriptors::scoo().with_suffix("_v");
    engine.convert(&descriptors::coo(), &scoo, &AnyMatrix::Coo(tall)).unwrap();
}

/// Regression: SCOO→CSR on a valid 2^61-row input sized `rowptr` with an
/// unchecked `vec!`, whose capacity overflow came back as
/// `EngineError::Panicked`. Without a budget it is a typed overflow.
#[test]
fn pointer_array_size_overflow_is_a_typed_error() {
    let engine = Engine::new();
    let one = CooMatrix::from_triplets(1 << 61, 1, vec![0], vec![0], vec![1.0]).unwrap();
    let got = engine.convert(&descriptors::scoo(), &descriptors::csr(), &AnyMatrix::Coo(one));
    match got {
        Err(EngineError::Run(RunError::Exec(ExecError::AllocOverflow { name }))) => {
            assert_eq!(name, "rowptr");
        }
        other => panic!("expected a typed allocation overflow, got: {other:?}"),
    }
    assert_eq!(engine.stats().panics_caught, 0);
}

/// The native kernels allocate through the interpreter's checked helper:
/// on a kernel-backed engine, the oversized pointer array of a valid
/// one-entry input is a typed error naming it, not a capacity-overflow
/// panic inside the kernel. The kernel declines with that error and the
/// interpreter, which refuses the same array, answers.
#[test]
fn kernel_pointer_array_overflow_is_a_typed_error() {
    let huge = 1usize << 61;
    let tall = CooMatrix::from_triplets(huge, 1, vec![0], vec![0], vec![1.0]).unwrap();
    let wide = CooMatrix::from_triplets(1, huge, vec![0], vec![0], vec![1.0]).unwrap();
    let wide_csr = AnyMatrix::Csr(CsrMatrix::from_coo(&wide));
    let cases = [
        (descriptors::scoo(), descriptors::csr(), AnyMatrix::Coo(tall.clone()), "rowptr"),
        (descriptors::coo(), descriptors::csr(), AnyMatrix::Coo(tall), "rowptr"),
        (descriptors::coo(), descriptors::csc(), AnyMatrix::Coo(wide), "colptr"),
        (descriptors::csr(), descriptors::csc(), wide_csr, "colptr"),
    ];
    let engine = Engine::with_config(EngineConfig { verify_plans: true, ..Default::default() });
    for (src, dst, input, want) in cases {
        let pair = format!("{} -> {}", src.name, dst.name);
        assert!(engine.plan(&src, &dst).unwrap().has_kernel(), "{pair}");
        match engine.convert(&src, &dst, &input) {
            Err(EngineError::Run(RunError::Exec(ExecError::AllocOverflow { name }))) => {
                assert_eq!(name, want, "{pair}");
            }
            other => panic!("{pair}: expected a typed overflow, got {other:?}"),
        }
    }
    let stats = engine.stats();
    assert_eq!((stats.panics_caught, stats.kernel_panics), (0, 0));
    assert_eq!(stats.kernel_declines, 4);
}

/// Regression: `Adia`'s size `ND × NR` was multiplied with wrapping
/// arithmetic. On a Linear-membership SCOO→DIA plan, `NR = 2^60 + 1`
/// with 16 diagonals allocated 16 slots (caught only by the output
/// check), `NR = 2^61` with 4 diagonals a "negative allocation", and with
/// 8 diagonals an out-of-bounds fault. Each is now an overflow naming
/// `Adia`.
#[test]
fn dia_data_size_overflow_names_the_array() {
    let engine = Engine::with_config(EngineConfig {
        options: SynthesisOptions { membership: Membership::Linear, ..Default::default() },
        ..Default::default()
    });
    for (nr, nd) in [((1usize << 60) + 1, 16), (1 << 61, 4), (1 << 61, 8)] {
        // One entry per diagonal, all in row 0.
        let row = vec![0; nd];
        let col: Vec<i64> = (0..nd as i64).collect();
        let m = CooMatrix::from_triplets(nr, nd, row, col, vec![1.0; nd]).unwrap();
        let got = engine.convert(&descriptors::scoo(), &descriptors::dia(), &AnyMatrix::Coo(m));
        match got {
            Err(EngineError::Run(RunError::Exec(ExecError::AllocOverflow { name }))) => {
                assert_eq!(name, "Adia", "NR = {nr}, {nd} diagonals");
            }
            other => panic!("NR = {nr}, {nd} diagonals: expected an overflow, got: {other:?}"),
        }
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
    // A CSR container under the SCOO descriptor: validation checks the
    // descriptor's obligations on whatever it is handed and passes the
    // mismatch through, so it reaches the run path and fails inside it
    // (bind-time dispatch error) instead of being rejected up front.
    let engine = Engine::new();
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
