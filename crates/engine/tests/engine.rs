//! Engine behavior: generic any-to-any dispatch matches the reference
//! conversions, the plan cache is keyed structurally, warm-cache converts
//! perform zero synthesis, and the LRU evicts.

use std::sync::Arc;

use sparse_engine::{Engine, EngineConfig, EngineError};
use sparse_formats::descriptors;
use sparse_formats::{
    AnyMatrix, AnyTensor, Coo3Tensor, CooMatrix, CscMatrix, CsrMatrix, DiaMatrix, EllMatrix,
    MortonCoo3Tensor, MortonCooMatrix,
};
use sparse_synthesis::RunError;

/// A deterministic scattered matrix, sorted row-major (the `scoo` source
/// descriptor claims sortedness).
fn sample_scoo(nr: usize, nc: usize, stride: usize) -> CooMatrix {
    let mut row = Vec::new();
    let mut col = Vec::new();
    let mut val = Vec::new();
    for k in (0..nr * nc).step_by(stride) {
        row.push((k / nc) as i64);
        col.push((k % nc) as i64);
        val.push(k as f64 + 1.0);
    }
    CooMatrix::from_triplets(nr, nc, row, col, val).unwrap()
}

/// A banded matrix (DIA-friendly), sorted row-major.
fn sample_banded(n: usize) -> CooMatrix {
    let mut row = Vec::new();
    let mut col = Vec::new();
    let mut val = Vec::new();
    for i in 0..n as i64 {
        for o in [-2i64, 0, 1] {
            let j = i + o;
            if j >= 0 && (j as usize) < n {
                row.push(i);
                col.push(j);
                val.push((i * 10 + o) as f64);
            }
        }
    }
    CooMatrix::from_triplets(n, n, row, col, val).unwrap()
}

#[test]
fn dispatch_scoo_to_csr_matches_oracle() {
    let engine = Engine::new();
    let coo = sample_scoo(17, 23, 3);
    let out = engine
        .convert(&descriptors::scoo(), &descriptors::csr(), &AnyMatrix::Coo(coo.clone()))
        .unwrap();
    assert_eq!(out, AnyMatrix::Csr(CsrMatrix::from_coo(&coo)));
}

#[test]
fn dispatch_csr_to_csc_matches_oracle() {
    let engine = Engine::new();
    let coo = sample_scoo(11, 13, 2);
    let csr = CsrMatrix::from_coo(&coo);
    let out = engine
        .convert(&descriptors::csr(), &descriptors::csc(), &AnyMatrix::Csr(csr))
        .unwrap();
    assert_eq!(out, AnyMatrix::Csc(CscMatrix::from_coo(&coo)));
}

#[test]
fn dispatch_ell_to_csr_matches_oracle() {
    let engine = Engine::new();
    let coo = sample_scoo(9, 14, 4);
    let ell = EllMatrix::from_coo(&coo);
    let out = engine
        .convert(&descriptors::ell(), &descriptors::csr(), &AnyMatrix::Ell(ell))
        .unwrap();
    assert_eq!(out, AnyMatrix::Csr(CsrMatrix::from_coo(&coo)));
}

#[test]
fn dispatch_scoo_to_dia_matches_oracle() {
    let engine = Engine::new();
    let coo = sample_banded(12);
    let out = engine
        .convert(&descriptors::scoo(), &descriptors::dia(), &AnyMatrix::Coo(coo.clone()))
        .unwrap();
    assert_eq!(out, AnyMatrix::Dia(DiaMatrix::from_coo(&coo)));
}

#[test]
fn dispatch_scoo_to_mcoo_matches_oracle() {
    let engine = Engine::new();
    let coo = sample_scoo(16, 16, 5);
    let out = engine
        .convert(&descriptors::scoo(), &descriptors::mcoo(), &AnyMatrix::Coo(coo.clone()))
        .unwrap();
    assert_eq!(out, AnyMatrix::MortonCoo(MortonCooMatrix::from_coo(&coo)));
}

#[test]
fn dispatch_tensor_scoo3_to_mcoo3_matches_oracle() {
    let engine = Engine::new();
    let t = Coo3Tensor::from_coords(
        (4, 4, 4),
        vec![0, 0, 1, 2, 3],
        vec![0, 3, 1, 2, 3],
        vec![1, 2, 0, 3, 3],
        vec![1.0, 2.0, 3.0, 4.0, 5.0],
    )
    .unwrap();
    let out = engine
        .convert_tensor(&descriptors::scoo3(), &descriptors::mcoo3(), &AnyTensor::Coo3(t.clone()))
        .unwrap();
    assert_eq!(out, AnyTensor::MortonCoo3(MortonCoo3Tensor::from_coo3(&t)));
}

#[test]
fn warm_cache_performs_zero_synthesis() {
    let engine = Engine::new();
    let src = descriptors::scoo();
    let dst = descriptors::csr();
    let input = AnyMatrix::Coo(sample_scoo(10, 10, 3));

    engine.convert(&src, &dst, &input).unwrap();
    let cold = engine.stats();
    assert_eq!(cold.plans_synthesized, 1);
    assert_eq!(cold.cache_misses, 1);
    assert!(cold.synth_time > std::time::Duration::ZERO);

    for _ in 0..5 {
        engine.convert(&src, &dst, &input).unwrap();
    }
    let warm = engine.stats();
    assert_eq!(warm.plans_synthesized, 1, "warm converts must not synthesize");
    assert_eq!(warm.cache_misses, 1);
    assert_eq!(warm.cache_hits, 5);
    assert_eq!(warm.conversions, 6);
    assert_eq!(warm.synth_time, cold.synth_time, "no further synthesis time accrued");
    assert_eq!(warm.nnz_moved, 6 * input.nnz() as u64);
}

#[test]
fn cache_key_is_structural_not_name_identity() {
    let engine = Engine::new();
    let src = descriptors::scoo();
    let dst = descriptors::csr();
    let input = AnyMatrix::Coo(sample_scoo(8, 8, 3));
    engine.convert(&src, &dst, &input).unwrap();

    // Fresh descriptor instances with different display names but the
    // same structure must hit the cached plan.
    let src2 = descriptors::scoo().edit(|s| s.name = "renamed_source".into());
    let dst2 = descriptors::csr().edit(|s| s.name = "renamed_destination".into());
    engine.convert(&src2, &dst2, &input).unwrap();

    assert_eq!(engine.stats().plans_synthesized, 1);
    assert_eq!(engine.stats().cache_hits, 1);
}

#[test]
fn structural_edits_miss_the_cache_and_renames_hit_it() {
    // Descriptors are frozen with their fingerprint, so the only way to
    // change one is to build a new one: an edit re-fingerprints and must
    // not be served the plan of the descriptor it was edited from.
    let engine = Engine::new();
    let src = descriptors::scoo();
    let csr = descriptors::csr();
    let first = engine.plan(&src, &csr).unwrap();

    let unordered = csr.edit(|s| s.order = None);
    assert_ne!(unordered.fingerprint(), csr.fingerprint());
    let second = engine.plan(&src, &unordered).unwrap();
    assert!(!Arc::ptr_eq(&first, &second));
    assert_eq!(
        engine.stats().plans_synthesized,
        2,
        "an edited descriptor must re-synthesize"
    );

    let renamed = csr.edit(|s| s.name = "CSR_renamed".into());
    let third = engine.plan(&src, &renamed).unwrap();
    assert!(
        Arc::ptr_eq(&first, &third),
        "a renamed clone shares the first plan"
    );
    assert_eq!(engine.stats().plans_synthesized, 2);
    assert_eq!(engine.stats().cache_hits, 1);
}

#[test]
fn lru_evicts_when_over_capacity() {
    let engine = Engine::with_config(EngineConfig { capacity: 1, ..Default::default() });
    let input = AnyMatrix::Coo(sample_scoo(8, 8, 3));
    let scoo = descriptors::scoo();

    engine.convert(&scoo, &descriptors::csr(), &input).unwrap();
    engine.convert(&scoo, &descriptors::csc(), &input).unwrap(); // evicts csr plan
    engine.convert(&scoo, &descriptors::csr(), &input).unwrap(); // must re-synthesize

    let stats = engine.stats();
    assert_eq!(stats.plans_synthesized, 3);
    assert_eq!(stats.cache_evictions, 2);
    assert_eq!(stats.cached_plans, 1);
}

#[test]
fn container_descriptor_mismatch_is_reported() {
    let engine = Engine::new();
    let input = AnyMatrix::Coo(sample_scoo(6, 6, 2));
    // Source descriptor says CSR; handing it a COO container must fail
    // with a dispatch error, not garbage output.
    let err = engine
        .convert(&descriptors::csr(), &descriptors::csc(), &input)
        .unwrap_err();
    match err {
        EngineError::Run(RunError::Unsupported(msg)) => {
            assert!(msg.contains("coo"), "{msg}");
        }
        other => panic!("expected dispatch error, got: {other}"),
    }
}

#[test]
fn planning_failures_are_not_cached() {
    let engine = Engine::new();
    // DIA has no executable scan, so DIA-as-source fails synthesis.
    let Err(err) = engine.plan(&descriptors::dia(), &descriptors::csr()) else {
        panic!("DIA-as-source must fail synthesis");
    };
    assert!(matches!(err, EngineError::Plan(_)));
    let stats = engine.stats();
    assert_eq!(stats.plans_synthesized, 0);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cached_plans, 0, "failures must not occupy the cache");
    // Retrying reports the failure again (counted as a fresh miss).
    assert!(engine.plan(&descriptors::dia(), &descriptors::csr()).is_err());
    assert_eq!(engine.stats().cache_misses, 2);
}

#[test]
fn verifying_engine_rejects_broken_descriptor_and_does_not_cache() {
    // CSR with rowptr's monotonic quantifier dropped: synthesis still
    // succeeds (it simply emits no enforcement sweep), but the static
    // verifier refuses the plan at synthesis time.
    let broken = descriptors::csr().edit(|s| {
        let mut rowptr = s.ufs.get("rowptr").unwrap().clone();
        rowptr.monotonicity = None;
        s.ufs.insert(rowptr);
    });

    let engine =
        Engine::with_config(EngineConfig { verify_plans: true, ..Default::default() });
    match engine.plan(&descriptors::scoo(), &broken) {
        Err(EngineError::Plan(msg)) => {
            assert!(msg.contains("SA006"), "rejection must cite the diagnostic: {msg}");
        }
        Err(other) => panic!("expected a plan rejection, got: {other}"),
        Ok(_) => panic!("expected a plan rejection, got a plan"),
    }
    let stats = engine.stats();
    assert_eq!(stats.plans_verified, 1);
    assert_eq!(stats.plans_rejected, 1);
    assert_eq!(stats.cached_plans, 0, "rejected plans must not occupy the cache");

    // The same pair is accepted by a trusting (unverified) engine.
    let trusting = Engine::new();
    assert!(trusting.plan(&descriptors::scoo(), &broken).is_ok());
}

#[test]
fn verified_batch_fans_out_on_proved_parallel_plan() {
    // csr -> coo is the catalog pair whose populate nest the verifier
    // proves parallel (identity permutation + rowptr window chaining).
    let engine =
        Engine::with_config(EngineConfig { verify_plans: true, ..Default::default() });
    let coo = sample_scoo(12, 15, 3);
    let csr = CsrMatrix::from_coo(&coo);
    let inputs: Vec<AnyMatrix> = (0..4).map(|_| AnyMatrix::Csr(csr.clone())).collect();
    let outs = engine
        .convert_batch(&descriptors::csr(), &descriptors::coo(), &inputs)
        .unwrap();
    assert_eq!(outs.len(), 4);
    for out in outs {
        assert_eq!(out.unwrap(), AnyMatrix::Coo(coo.clone()));
    }
    let stats = engine.stats();
    assert_eq!(stats.plans_verified, 1);
    assert_eq!(stats.plans_rejected, 0);
    assert_eq!(stats.parallel_plans, 1, "csr -> coo must be proved parallel");
    let plan = engine.plan(&descriptors::csr(), &descriptors::coo()).unwrap();
    let report = plan.verification.as_ref().expect("verified engines attach reports");
    assert!(report.has_parallel_loop());
    assert!(report.is_clean());
}

#[test]
fn verified_batch_stays_correct_without_a_parallelism_proof() {
    // scoo -> csr interleaves min and max bounds on rowptr, which the
    // verifier conservatively keeps sequential; the batch must fall back
    // to one worker and still produce correct outputs.
    let engine =
        Engine::with_config(EngineConfig { verify_plans: true, ..Default::default() });
    let coo = sample_scoo(9, 11, 2);
    let inputs: Vec<AnyMatrix> = (0..3).map(|_| AnyMatrix::Coo(coo.clone())).collect();
    let outs = engine
        .convert_batch(&descriptors::scoo(), &descriptors::csr(), &inputs)
        .unwrap();
    for out in outs {
        assert_eq!(out.unwrap(), AnyMatrix::Csr(CsrMatrix::from_coo(&coo)));
    }
    let plan = engine.plan(&descriptors::scoo(), &descriptors::csr()).unwrap();
    let report = plan.verification.as_ref().unwrap();
    assert!(report.is_clean());
    assert!(!report.has_parallel_loop(), "min/max interleaving is not proved parallel");
}

/// COO and SCOO (COO3D and SCOO3) share every array name. The engine
/// renames such a destination apart from its source, so the plan does
/// not allocate its outputs over its inputs: the entries come back,
/// sorted.
#[test]
fn destinations_sharing_the_sources_names_are_renamed_apart() {
    let engine = Engine::new();
    let cases: [(Vec<i64>, Vec<i64>); 2] = [(vec![1], vec![2]), (vec![2, 0, 1], vec![0, 3, 2])];
    for (row, col) in cases {
        let val: Vec<f64> = (0..row.len()).map(|k| 3.5 + k as f64).collect();
        let coo = CooMatrix::from_triplets(3, 4, row, col, val).unwrap();
        let mut want = coo.clone();
        want.sort_row_major();
        let out = engine
            .convert(&descriptors::coo(), &descriptors::scoo(), &AnyMatrix::Coo(coo))
            .unwrap();
        assert_eq!(out, AnyMatrix::Coo(want));
    }
    let cases: [[Vec<i64>; 3]; 2] =
        [[vec![1], vec![2], vec![0]], [vec![1, 0, 1], vec![0, 2, 0], vec![1, 1, 0]]];
    for [i0, i1, i2] in cases {
        let val: Vec<f64> = (0..i0.len()).map(|k| 3.5 + k as f64).collect();
        let t = Coo3Tensor::from_coords((2, 3, 2), i0, i1, i2, val).unwrap();
        let mut want = t.clone();
        want.sort_by(|a, b| a.cmp(b));
        let out = engine
            .convert_tensor(&descriptors::coo3(), &descriptors::scoo3(), &AnyTensor::Coo3(t))
            .unwrap();
        assert_eq!(out, AnyTensor::Coo3(want));
    }
}
