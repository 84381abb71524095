//! Execution-backend contract tests: the native kernel path engages
//! exactly when validation, verification, and registration all line up; every other conversion interprets; and the accounting
//! invariant `kernels_hit + interp_fallbacks == conversions` holds
//! unconditionally.

use sparse_engine::{Engine, EngineConfig, EngineError, EngineStats};
use sparse_formats::descriptors;
use sparse_formats::{AnyMatrix, AnyTensor, Coo3Tensor, CooMatrix, CsrMatrix, MortonCoo3Tensor};
use sparse_synthesis::RunError;

fn sample_scoo(nr: usize, nc: usize, per_row: usize) -> CooMatrix {
    let mut row = Vec::new();
    let mut col = Vec::new();
    let mut val = Vec::new();
    for i in 0..nr as i64 {
        for k in 0..per_row.min(nc) as i64 {
            row.push(i);
            col.push((i * 3 + k * 5) % nc as i64);
            val.push((i * 10 + k) as f64 + 0.25);
        }
    }
    let mut m = CooMatrix::from_triplets(nr, nc, row, col, val).unwrap();
    m.sort_row_major();
    m
}

fn verified() -> Engine {
    Engine::with_config(EngineConfig { verify_plans: true, ..Default::default() })
}

fn assert_invariant(stats: &EngineStats) {
    assert_eq!(
        stats.kernels_hit + stats.interp_fallbacks,
        stats.conversions,
        "every conversion is either a kernel hit or an interpreter execution"
    );
}

#[test]
fn verified_engine_serves_hot_pair_from_kernel() {
    let engine = verified();
    let coo = sample_scoo(20, 16, 3);
    let out = engine
        .convert(&descriptors::scoo(), &descriptors::csr(), &AnyMatrix::Coo(coo.clone()))
        .unwrap();
    assert_eq!(out, AnyMatrix::Csr(CsrMatrix::from_coo(&coo)));
    let stats = engine.stats();
    assert_eq!(stats.kernels_hit, 1, "verified hot pair must hit the kernel");
    assert_eq!(stats.interp_fallbacks, 0);
    assert!(stats.kernel_time > std::time::Duration::ZERO);
    assert_invariant(&stats);
}

#[test]
fn backend_choice_does_not_change_results() {
    let auto = verified();
    // Kernels only run behind verified plans, so an unverified engine is
    // the interpreter-only reference.
    let interp_only = Engine::new();
    let coo = sample_scoo(15, 12, 2);
    for (src, dst, input) in [
        (descriptors::scoo(), descriptors::csr(), AnyMatrix::Coo(coo.clone())),
        (descriptors::scoo(), descriptors::csc(), AnyMatrix::Coo(coo.clone())),
        (descriptors::csr(), descriptors::coo(), AnyMatrix::Csr(CsrMatrix::from_coo(&coo))),
    ] {
        let a = auto.convert(&src, &dst, &input).unwrap();
        let b = interp_only.convert(&src, &dst, &input).unwrap();
        assert_eq!(a, b, "{} -> {}", src.name, dst.name);
    }
    assert!(auto.stats().kernels_hit >= 1);
    assert_eq!(interp_only.stats().kernels_hit, 0, "unverified engines must never use kernels");
    assert_eq!(interp_only.stats().interp_fallbacks, interp_only.stats().conversions);
    assert_invariant(&auto.stats());
    assert_invariant(&interp_only.stats());
}

#[test]
fn unverified_engine_never_uses_kernels() {
    // The default engine does not verify plans, and kernels only run
    // behind verified plans — so defaults keep the historical behavior.
    let engine = Engine::new();
    let coo = sample_scoo(10, 10, 2);
    engine
        .convert(&descriptors::scoo(), &descriptors::csr(), &AnyMatrix::Coo(coo))
        .unwrap();
    let stats = engine.stats();
    assert_eq!(stats.kernels_hit, 0);
    assert_eq!(stats.interp_fallbacks, 1);
    assert_invariant(&stats);
}

#[test]
fn budgeted_engines_take_no_kernel() {
    // Kernels allocate outside the interpreter, where the memory budget
    // is enforced, so a budgeted engine interprets even a verified pair
    // with a registered kernel.
    let engine = Engine::with_config(EngineConfig {
        verify_plans: true,
        memory_budget: Some(1 << 20),
        ..Default::default()
    });
    let coo = AnyMatrix::Coo(sample_scoo(10, 10, 2));
    let out = engine.convert(&descriptors::scoo(), &descriptors::csr(), &coo).unwrap();
    assert_eq!(out, verified().convert(&descriptors::scoo(), &descriptors::csr(), &coo).unwrap());
    let stats = engine.stats();
    assert_eq!((stats.kernels_hit, stats.interp_fallbacks), (0, 1));
    assert_invariant(&stats);
}

#[test]
fn long_tail_pairs_fall_back_and_invariant_holds() {
    // scoo -> dia has no registered kernel; it must interpret, and the
    // accounting must balance across a mix of hot and long-tail pairs.
    let engine = verified();
    let coo = sample_scoo(12, 12, 2);
    let input = AnyMatrix::Coo(coo);
    engine.convert(&descriptors::scoo(), &descriptors::csr(), &input).unwrap();
    engine.convert(&descriptors::scoo(), &descriptors::dia(), &input).unwrap();
    engine.convert(&descriptors::scoo(), &descriptors::mcoo(), &input).unwrap();
    let stats = engine.stats();
    assert_eq!(stats.conversions, 3);
    assert_eq!(stats.kernels_hit, 2, "csr and mcoo destinations are kernel-backed");
    assert_eq!(stats.interp_fallbacks, 1, "dia has no kernel and must interpret");
    assert_invariant(&stats);
}

#[test]
fn kernel_decline_falls_back_transparently() {
    // Unordered COO tolerates duplicate coordinates, which the sort-based
    // permutation kernels cannot reproduce (the plan collapses them
    // through first-occurrence ranks) — so the kernel declines and the
    // interpreter answers. The decline itself must never surface.
    let engine = verified();
    let dup = CooMatrix::from_triplets(
        3,
        3,
        vec![1, 0, 1, 2],
        vec![2, 1, 2, 0],
        vec![1.0, 2.0, 3.0, 4.0],
    )
    .unwrap();
    let dst = descriptors::scoo().with_suffix("_d");
    let res = engine.convert(&descriptors::coo(), &dst, &AnyMatrix::Coo(dup));
    // The interpreter collapses the duplicates into one slot, leaving an
    // unfilled `(0, 0)` after it, and the sorted output's check refuses
    // the result: the error is the output check's, never the decline, and
    // the accounting shows a fallback, not a kernel hit.
    match res {
        Err(EngineError::Run(RunError::Format(e))) => assert_eq!(e.check.as_str(), "ordering"),
        other => panic!("expected the output check's error, got {other:?}"),
    }
    let stats = engine.stats();
    assert_eq!(stats.kernels_hit, 0, "declined kernels are not hits");
    assert_eq!((stats.kernel_declines, stats.conversions_failed), (1, 1));
    assert_invariant(&stats);

    // A duplicate-free input through the same (cached) plan hits the
    // kernel again.
    let clean = sample_scoo(6, 6, 2);
    let out = engine
        .convert(&descriptors::coo(), &dst, &AnyMatrix::Coo(clean.clone()))
        .unwrap();
    let mut want = clean;
    want.sort_row_major();
    assert_eq!(out, AnyMatrix::Coo(want));
    assert_eq!(engine.stats().kernels_hit, 1);
    assert_invariant(&engine.stats());
}

#[test]
fn batches_use_kernels_per_item() {
    let engine = verified();
    let coo = sample_scoo(14, 10, 2);
    let inputs: Vec<AnyMatrix> = (0..6).map(|_| AnyMatrix::Coo(coo.clone())).collect();
    let outs = engine
        .convert_batch(&descriptors::scoo(), &descriptors::csr(), &inputs)
        .unwrap();
    let want = AnyMatrix::Csr(CsrMatrix::from_coo(&coo));
    for out in outs {
        assert_eq!(out.unwrap(), want);
    }
    let stats = engine.stats();
    assert_eq!(stats.conversions, 6);
    assert_eq!(stats.kernels_hit, 6, "every batch item is kernel-eligible");
    assert_invariant(&stats);
}

#[test]
fn tensor_conversions_use_kernels_too() {
    let engine = verified();
    let t = Coo3Tensor::from_coords(
        (6, 5, 7),
        vec![0, 1, 1, 3, 5],
        vec![2, 0, 4, 1, 3],
        vec![1, 6, 0, 2, 5],
        vec![1.0, 2.0, 3.0, 4.0, 5.0],
    )
    .unwrap();
    let out = engine
        .convert_tensor(&descriptors::scoo3(), &descriptors::mcoo3(), &AnyTensor::Coo3(t.clone()))
        .unwrap();
    // scoo3 requires sorted input; this one is lexicographically sorted.
    assert_eq!(out, AnyTensor::MortonCoo3(MortonCoo3Tensor::from_coo3(&t)));
    let stats = engine.stats();
    assert_eq!(stats.kernels_hit, 1);
    assert_invariant(&stats);
}
