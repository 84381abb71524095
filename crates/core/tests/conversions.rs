//! End-to-end tests: every synthesized conversion agrees with the
//! reference (oracle) conversion on randomized sparse inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparse_formats::descriptors;
use sparse_formats::{
    AnyMatrix, AnyTensor, Coo3Tensor, CooMatrix, CscMatrix, CsrMatrix, DiaMatrix,
    MortonCoo3Tensor, MortonCooMatrix,
};
use sparse_synthesis::{Conversion, Membership, PermutationKind, SynthesisOptions, PERM_NAME};

/// Deterministic random sparse matrix with unique coordinates.
fn random_coo(nr: usize, nc: usize, nnz: usize, seed: u64, sorted: bool) -> CooMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coords = std::collections::BTreeSet::new();
    while coords.len() < nnz.min(nr * nc) {
        coords.insert((rng.gen_range(0..nr) as i64, rng.gen_range(0..nc) as i64));
    }
    let mut coords: Vec<(i64, i64)> = coords.into_iter().collect();
    if !sorted {
        // Shuffle to exercise permutation paths.
        for i in (1..coords.len()).rev() {
            let j = rng.gen_range(0..=i);
            coords.swap(i, j);
        }
    }
    let (row, col): (Vec<i64>, Vec<i64>) = coords.into_iter().unzip();
    let val: Vec<f64> = (0..row.len()).map(|k| k as f64 + 1.0).collect();
    CooMatrix::from_triplets(nr, nc, row, col, val).unwrap()
}

/// A banded matrix (DIA-friendly).
fn banded_coo(n: usize, offsets: &[i64], seed: u64) -> CooMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut row = Vec::new();
    let mut col = Vec::new();
    let mut val = Vec::new();
    for i in 0..n as i64 {
        for &o in offsets {
            let j = i + o;
            if j >= 0 && (j as usize) < n && rng.gen_bool(0.8) {
                row.push(i);
                col.push(j);
                val.push(rng.gen_range(-5.0..5.0));
            }
        }
    }
    CooMatrix::from_triplets(n, n, row, col, val).unwrap()
}

fn random_coo3(dims: (usize, usize, usize), nnz: usize, seed: u64) -> Coo3Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coords = std::collections::BTreeSet::new();
    while coords.len() < nnz {
        coords.insert((
            rng.gen_range(0..dims.0) as i64,
            rng.gen_range(0..dims.1) as i64,
            rng.gen_range(0..dims.2) as i64,
        ));
    }
    let mut i0 = Vec::new();
    let mut i1 = Vec::new();
    let mut i2 = Vec::new();
    let mut val = Vec::new();
    for (k, (a, b, c)) in coords.into_iter().enumerate() {
        i0.push(a);
        i1.push(b);
        i2.push(c);
        val.push(k as f64 + 0.5);
    }
    Coo3Tensor::from_coords(dims, i0, i1, i2, val).unwrap()
}

#[test]
fn scoo_to_csr_matches_oracle_and_elides_permutation() {
    let conv = Conversion::new(
        &descriptors::scoo(),
        &descriptors::csr(),
        SynthesisOptions::default(),
    )
    .unwrap();
    assert!(conv.synth.identity_eliminated);
    for seed in 0..5 {
        let mut coo = random_coo(40, 30, 200, seed, true);
        coo.sort_row_major();
        let (got, _) = conv.run_matrix(&coo).unwrap();
        assert_eq!(got, AnyMatrix::from(CsrMatrix::from_coo(&coo)), "seed {seed}");
    }
}

#[test]
fn unsorted_coo_to_csr_uses_permutation() {
    let conv = Conversion::new(
        &descriptors::coo(),
        &descriptors::csr(),
        SynthesisOptions::default(),
    )
    .unwrap();
    assert!(!conv.synth.identity_eliminated);
    assert!(matches!(conv.synth.permutation, PermutationKind::Ordered { .. }));
    for seed in 0..5 {
        let coo = random_coo(25, 35, 150, seed, false);
        let (got, _) = conv.run_matrix(&coo).unwrap();
        assert_eq!(got, AnyMatrix::from(CsrMatrix::from_coo(&coo)), "seed {seed}");
    }
}

#[test]
fn scoo_to_csc_matches_oracle() {
    let conv = Conversion::new(
        &descriptors::scoo(),
        &descriptors::csc(),
        SynthesisOptions::default(),
    )
    .unwrap();
    // Row-major source does NOT imply column-major destination.
    assert!(!conv.synth.identity_eliminated);
    for seed in 0..5 {
        let mut coo = random_coo(30, 20, 180, seed, true);
        coo.sort_row_major();
        let (got, _) = conv.run_matrix(&coo).unwrap();
        assert_eq!(got, AnyMatrix::from(CscMatrix::from_coo(&coo)), "seed {seed}");
    }
}

#[test]
fn csr_to_csc_matches_oracle() {
    let conv = Conversion::new(
        &descriptors::csr(),
        &descriptors::csc(),
        SynthesisOptions::default(),
    )
    .unwrap();
    for seed in 0..5 {
        let csr = CsrMatrix::from_coo(&random_coo(35, 25, 160, seed, true));
        let (got, _) = conv.run_matrix(&csr).unwrap();
        assert_eq!(got, AnyMatrix::from(CscMatrix::from_csr(&csr)), "seed {seed}");
    }
}

#[test]
fn csr_to_coo_matches_oracle() {
    let conv = Conversion::new(
        &descriptors::csr(),
        &descriptors::coo(),
        SynthesisOptions::default(),
    )
    .unwrap();
    let csr = CsrMatrix::from_coo(&random_coo(20, 20, 80, 7, true));
    let (got, _) = conv.run_matrix(&csr).unwrap();
    assert_eq!(got, AnyMatrix::from(csr.to_coo()));
}

#[test]
fn scoo_to_dia_matches_oracle_linear_search() {
    let conv = Conversion::new(
        &descriptors::scoo(),
        &descriptors::dia(),
        SynthesisOptions { optimize: true, membership: Membership::Linear },
    )
    .unwrap();
    for seed in 0..4 {
        let mut coo = banded_coo(30, &[-3, -1, 0, 2, 5], seed);
        coo.sort_row_major();
        let (got, _) = conv.run_matrix(&coo).unwrap();
        let AnyMatrix::Dia(got) = got else { panic!("expected DIA, got {}", got.label()) };
        let want = DiaMatrix::from_coo(&coo);
        assert_eq!(got, want, "seed {seed}");
        got.validate().unwrap();
    }
}

#[test]
fn scoo_to_dia_binary_search_agrees_with_linear() {
    let linear = Conversion::new(
        &descriptors::scoo(),
        &descriptors::dia(),
        SynthesisOptions { optimize: true, membership: Membership::Linear },
    )
    .unwrap();
    let binary = Conversion::new(
        &descriptors::scoo(),
        &descriptors::dia(),
        SynthesisOptions { optimize: true, membership: Membership::Binary },
    )
    .unwrap();
    let mut coo = banded_coo(50, &[-7, -2, 0, 1, 4, 9], 42);
    coo.sort_row_major();
    let (a, stats_lin) = linear.run_matrix(&coo).unwrap();
    let (b, stats_bin) = binary.run_matrix(&coo).unwrap();
    assert!(matches!(a, AnyMatrix::Dia(_)), "expected DIA, got {}", a.label());
    assert_eq!(a, b);
    // The binary search does asymptotically less work in the copy loop.
    assert!(
        stats_bin.loop_iterations < stats_lin.loop_iterations,
        "binary {} vs linear {}",
        stats_bin.loop_iterations,
        stats_lin.loop_iterations
    );
}

/// The three membership strategies build the same DIA bit for bit: the
/// direct map, the binary search and the paper's linear search agree on
/// `off`, `ND` and every stored value (padding included), while only the
/// direct plan runs without a search loop.
#[test]
fn dia_memberships_give_bit_identical_output() {
    let plans = [Membership::Linear, Membership::Binary, Membership::Direct].map(|membership| {
        let opts = SynthesisOptions { optimize: true, membership };
        Conversion::new(&descriptors::coo(), &descriptors::dia(), opts).unwrap()
    });
    let direct_c = plans[2].emit_c();
    assert!(!direct_c.contains("L_off") && !direct_c.contains("for (int d"), "{direct_c}");
    for seed in 0..6 {
        let n = 20 + 7 * seed as usize;
        let coo = banded_coo(n, &[-9, -4, -1, 0, 2, 3, 11], seed);
        let outs: Vec<DiaMatrix> = plans
            .iter()
            .map(|p| match p.run_matrix(&coo).unwrap().0 {
                AnyMatrix::Dia(d) => d,
                other => panic!("expected DIA, got {}", other.label()),
            })
            .collect();
        let bits = |d: &DiaMatrix| -> Vec<u64> { d.data.iter().map(|v| v.to_bits()).collect() };
        for d in &outs[1..] {
            assert_eq!(d.off, outs[0].off, "seed {seed}");
            assert_eq!((d.nr, d.nc), (outs[0].nr, outs[0].nc), "seed {seed}");
            assert_eq!(bits(d), bits(&outs[0]), "seed {seed}");
        }
        assert_eq!(outs[2], DiaMatrix::from_coo(&coo), "seed {seed}");
    }
}

#[test]
fn coo_to_mcoo_matches_oracle() {
    let conv = Conversion::new(
        &descriptors::scoo(),
        &descriptors::mcoo(),
        SynthesisOptions::default(),
    )
    .unwrap();
    assert!(!conv.synth.identity_eliminated);
    for seed in 0..4 {
        let mut coo = random_coo(32, 32, 120, seed, true);
        coo.sort_row_major();
        let (got, _) = conv.run_matrix(&coo).unwrap();
        let want = AnyMatrix::from(MortonCooMatrix::from_coo(&coo));
        assert_eq!(got, want, "seed {seed}");
    }
}

#[test]
fn mcoo_to_csr_round_trips() {
    // Morton-ordered source back to CSR: the reverse direction, requiring
    // a row-major permutation.
    let conv = Conversion::new(
        &descriptors::mcoo(),
        &descriptors::csr(),
        SynthesisOptions::default(),
    )
    .unwrap();
    let coo = random_coo(24, 24, 100, 3, true);
    let m = MortonCooMatrix::from_coo(&coo);
    let mut env = spf_codegen::runtime::RtEnv::new();
    sparse_synthesis::run::bind_matrix(&mut env, &conv.synth.src, (&m.coo).into()).unwrap();
    conv.execute_env(&mut env).unwrap();
    let got =
        sparse_synthesis::run::extract_matrix(&mut env, &conv.synth.dst, coo.nr, coo.nc).unwrap();
    assert_eq!(got, AnyMatrix::Csr(CsrMatrix::from_coo(&coo)));
}

#[test]
fn coo3_to_mcoo3_matches_oracle() {
    let conv = Conversion::new(
        &descriptors::scoo3(),
        &descriptors::mcoo3(),
        SynthesisOptions::default(),
    )
    .unwrap();
    for seed in 0..3 {
        let t = random_coo3((16, 16, 16), 200, seed);
        let (got, _) = conv.run_tensor(&t).unwrap();
        let want = AnyTensor::from(MortonCoo3Tensor::from_coo3(&t));
        assert_eq!(got, want, "seed {seed}");
    }
}

#[test]
fn coo_to_scoo_sorts() {
    let conv = Conversion::new(
        &descriptors::coo(),
        &descriptors::scoo().with_suffix("_d"),
        SynthesisOptions::default(),
    )
    .unwrap();
    let coo = random_coo(20, 20, 90, 11, false);
    assert!(!coo.is_sorted_row_major());
    let (got, _) = conv.run_matrix(&coo).unwrap();
    let AnyMatrix::Coo(got) = got else { panic!("expected COO, got {}", got.label()) };
    assert!(got.is_sorted_row_major());
    let mut want = coo.clone();
    want.sort_row_major();
    assert_eq!(got, want);
}

/// `Conversion::new` renames a destination that shares names with its
/// source, so COO -> SCOO and COO3 -> SCOO3 work under the catalog's own
/// descriptors: one and three entries come back sorted, not overwritten.
#[test]
fn shared_name_destinations_are_renamed_by_conversion_new() {
    let coo = |row: Vec<i64>, col: Vec<i64>, val: Vec<f64>| {
        CooMatrix::from_triplets(3, 4, row, col, val).unwrap()
    };
    let conv =
        Conversion::new(&descriptors::coo(), &descriptors::scoo(), SynthesisOptions::default())
            .unwrap();
    for input in [
        coo(vec![1], vec![2], vec![3.5]),
        coo(vec![2, 0, 1], vec![1, 3, 2], vec![1.0, 2.0, 3.0]),
    ] {
        let (got, _) = conv.run_matrix(&input).unwrap();
        let mut want = input.clone();
        want.sort_row_major();
        assert_eq!(got, AnyMatrix::Coo(want));
    }

    let coo3 = |i0: Vec<i64>, i1: Vec<i64>, i2: Vec<i64>, val: Vec<f64>| {
        Coo3Tensor::from_coords((3, 3, 3), i0, i1, i2, val).unwrap()
    };
    let conv =
        Conversion::new(&descriptors::coo3(), &descriptors::scoo3(), SynthesisOptions::default())
            .unwrap();
    for (input, sorted) in [
        (coo3(vec![1], vec![2], vec![0], vec![3.5]), coo3(vec![1], vec![2], vec![0], vec![3.5])),
        (
            coo3(vec![2, 0, 2], vec![0, 1, 0], vec![1, 2, 0], vec![1.0, 2.0, 3.0]),
            coo3(vec![0, 2, 2], vec![1, 0, 0], vec![2, 0, 1], vec![2.0, 3.0, 1.0]),
        ),
    ] {
        let (got, _) = conv.run_tensor(&input).unwrap();
        assert_eq!(got, AnyTensor::Coo3(sorted));
    }
}

#[test]
fn empty_matrix_converts() {
    let conv = Conversion::new(
        &descriptors::scoo(),
        &descriptors::csr(),
        SynthesisOptions::default(),
    )
    .unwrap();
    let coo = CooMatrix::from_triplets(5, 5, vec![], vec![], vec![]).unwrap();
    let (got, _) = conv.run_matrix(&coo).unwrap();
    let AnyMatrix::Csr(got) = got else { panic!("expected CSR, got {}", got.label()) };
    assert_eq!(got.rowptr, vec![0; 6]);
    assert!(got.col.is_empty());
}

#[test]
fn empty_rows_leading_and_trailing() {
    let conv = Conversion::new(
        &descriptors::scoo(),
        &descriptors::csr(),
        SynthesisOptions::default(),
    )
    .unwrap();
    // Only row 2 of 6 is populated.
    let coo = CooMatrix::from_triplets(
        6,
        4,
        vec![2, 2],
        vec![1, 3],
        vec![1.0, 2.0],
    )
    .unwrap();
    let (got, _) = conv.run_matrix(&coo).unwrap();
    let AnyMatrix::Csr(got) = got else { panic!("expected CSR, got {}", got.label()) };
    assert_eq!(got, CsrMatrix::from_coo(&coo));
    assert_eq!(got.rowptr, vec![0, 0, 0, 2, 2, 2, 2]);
}

#[test]
fn single_element_matrix() {
    let conv = Conversion::new(
        &descriptors::scoo(),
        &descriptors::dia(),
        SynthesisOptions::default(),
    )
    .unwrap();
    let coo = CooMatrix::from_triplets(3, 3, vec![1], vec![2], vec![9.0]).unwrap();
    let (got, _) = conv.run_matrix(&coo).unwrap();
    let AnyMatrix::Dia(got) = got else { panic!("expected DIA, got {}", got.label()) };
    assert_eq!(got.off, vec![1]);
    assert_eq!(got.get(1, 2), 9.0);
}

#[test]
fn naive_and_optimized_agree() {
    // The unoptimized loop chain computes the same CSR as the optimized
    // one (redundancy removal / DCE / fusion preserve semantics).
    let opt = Conversion::new(
        &descriptors::scoo(),
        &descriptors::csr(),
        SynthesisOptions { optimize: true, membership: Membership::Linear },
    )
    .unwrap();
    let naive = Conversion::new(
        &descriptors::scoo(),
        &descriptors::csr(),
        SynthesisOptions { optimize: false, membership: Membership::Linear },
    )
    .unwrap();
    let mut coo = random_coo(30, 30, 140, 5, true);
    coo.sort_row_major();
    let (a, stats_opt) = opt.run_matrix(&coo).unwrap();
    let (b, stats_naive) = naive.run_matrix(&coo).unwrap();
    assert_eq!(a, b);
    assert_eq!(a, AnyMatrix::from(CsrMatrix::from_coo(&coo)));
    // Optimization strictly reduces executed statements.
    assert!(stats_opt.statements < stats_naive.statements);
}

#[test]
fn synthesized_c_code_mentions_expected_structure() {
    let conv = Conversion::new(
        &descriptors::scoo(),
        &descriptors::mcoo(),
        SynthesisOptions::default(),
    )
    .unwrap();
    let c = conv.emit_c();
    // The paper's running example: an OrderedList populated per nonzero
    // with the Morton comparator, then rank retrieval in the copy loop.
    assert!(c.contains("new OrderedList(2, MORTON"), "{c}");
    assert!(c.contains("P.insert(i, j);"), "{c}");
    assert!(c.contains("int p = P.rank(i, j);"), "{c}");
    assert!(c.contains("int i = row1[n];"), "{c}");
}

#[test]
fn csr_fast_path_c_code_has_no_permutation() {
    let conv = Conversion::new(
        &descriptors::scoo(),
        &descriptors::csr(),
        SynthesisOptions::default(),
    )
    .unwrap();
    let c = conv.emit_c();
    assert!(!c.contains("OrderedList"), "{c}");
    assert!(!c.contains("P.rank"), "{c}");
    // One fused pass over the nonzeros plus the monotonic sweep
    // (remaining `for` loops are allocation fills).
    assert_eq!(c.matches("for (int n = 0; n < NNZ; n++)").count(), 1, "{c}");
    assert_eq!(c.matches("for (int e").count(), 1, "{c}");
    // The fused loop contains the col2 write, the rowptr min update, and
    // the copy.
    assert!(c.contains("col2[p]"), "{c}");
    assert!(c.contains("rowptr[i] = MIN(rowptr[i], p);"), "{c}");
}

#[test]
fn ell_to_csr_compacts_padding() {
    use sparse_formats::EllMatrix;
    let conv = Conversion::new(
        &descriptors::ell(),
        &descriptors::csr(),
        SynthesisOptions::default(),
    )
    .unwrap();
    // ELL's data index has padding gaps, so the identity fast path must
    // NOT fire even though the orders match; a counter compacts instead of
    // a sorted permutation.
    assert!(!conv.synth.identity_eliminated);
    // The same holds wherever ELL's row-major scan implies the
    // destination order, or the destination has none.
    for dst in [descriptors::coo(), descriptors::scoo(), descriptors::csr()] {
        let conv = Conversion::new(&descriptors::ell(), &dst, SynthesisOptions::default()).unwrap();
        assert!(conv.synth.computation.counters().any(|c| c == PERM_NAME), "ELL -> {}", dst.name);
        let c = conv.emit_c();
        assert!(!c.contains("P.insert") && !c.contains("P.finalize"), "{c}");
        assert!(c.contains("int p = P;"), "{c}");
    }
    for seed in 0..3 {
        let coo = random_coo(18, 22, 90, seed, true);
        let ell = EllMatrix::from_coo(&coo);
        let (got, _) = conv.run_matrix(&ell).unwrap();
        assert_eq!(got, AnyMatrix::from(CsrMatrix::from_coo(&coo)), "seed {seed}");
    }
}

#[test]
fn ell_to_coo_preserves_order_via_insertion_permutation() {
    use sparse_formats::EllMatrix;
    use sparse_synthesis::PermutationKind;
    let conv = Conversion::new(
        &descriptors::ell(),
        &descriptors::coo(),
        SynthesisOptions::default(),
    )
    .unwrap();
    // Unordered destination + gappy source: the naive plan builds an
    // insertion-ordered permutation, which optimization turns into a
    // compaction counter that keeps source order.
    assert!(matches!(
        conv.synth.permutation,
        PermutationKind::Ordered { .. }
    ));
    assert!(conv.synth.computation.counters().any(|c| c == PERM_NAME));
    let coo = {
        let mut m = random_coo(12, 15, 50, 9, true);
        m.sort_row_major();
        m
    };
    let ell = EllMatrix::from_coo(&coo);
    let (got, _) = conv.run_matrix(&ell).unwrap();
    assert_eq!(got, AnyMatrix::from(coo));
}

#[test]
fn csc_to_csr_matches_oracle() {
    let conv = Conversion::new(
        &descriptors::csc(),
        &descriptors::csr(),
        SynthesisOptions::default(),
    )
    .unwrap();
    // Column-major source, row-major destination: permutation required.
    assert!(!conv.synth.identity_eliminated);
    for seed in 0..4 {
        let coo = random_coo(22, 18, 120, seed, true);
        let csc = CscMatrix::from_coo(&coo);
        let (got, _) = conv.run_matrix(&csc).unwrap();
        assert_eq!(got, AnyMatrix::from(CsrMatrix::from_coo(&coo)), "seed {seed}");
    }
}

#[test]
fn csc_to_coo_keeps_column_major_order() {
    let conv = Conversion::new(
        &descriptors::csc(),
        &descriptors::coo(),
        SynthesisOptions::default(),
    )
    .unwrap();
    let coo = random_coo(15, 15, 60, 2, true);
    let csc = CscMatrix::from_coo(&coo);
    let (got, _) = conv.run_matrix(&csc).unwrap();
    // Unordered destination keeps the source (column-major) order.
    assert_eq!(got, AnyMatrix::from(csc.to_coo()));
}

#[test]
fn missing_custom_comparator_surfaces_as_error() {
    use sparse_formats::descriptors::ScanInfo;
    use sparse_formats::{FormatDescriptor, FormatSpec};
    use spf_ir::order::{Comparator, KeyDim, OrderKey};
    use spf_ir::{parse_relation, parse_set, LinExpr, UfSignature, VarId};

    // A destination ordered by an unregistered user-defined comparator.
    let mut ufs = spf_ir::UfEnvironment::new();
    ufs.insert(
        UfSignature::parse("rowx", "{ [x] : 0 <= x < NNZ }", "{ [i] : 0 <= i < NR }", None)
            .unwrap(),
    );
    ufs.insert(
        UfSignature::parse("colx", "{ [x] : 0 <= x < NNZ }", "{ [j] : 0 <= j < NC }", None)
            .unwrap(),
    );
    let mut scan_set =
        parse_set("{ [n, i, j] : i = rowx(n) && j = colx(n) && 0 <= n < NNZ }").unwrap();
    scan_set.simplify();
    let dst: FormatDescriptor = FormatSpec {
        name: "XCOO".into(),
        rank: 2,
        sparse_to_dense: parse_relation(
            "{ [n, ii, jj] -> [i, j] : rowx(n) = i && colx(n) = j && ii = i && jj = j \
             && 0 <= n < NNZ }",
        )
        .unwrap(),
        data_access: parse_relation("{ [n, ii, jj] -> [d0] : d0 = n }").unwrap(),
        scan: Some(ScanInfo {
            set: scan_set,
            dense_pos: vec![1, 2],
            data_index: LinExpr::var(VarId(0)),
        }),
        ufs,
        order: Some(OrderKey {
            comparator: Comparator::UserFn("NOT_REGISTERED".into()),
            dims: vec![KeyDim::coord(2, 0), KeyDim::coord(2, 1)],
        }),
        data_name: "Ax".into(),
        data_size: vec![LinExpr::sym("NNZ")],
        dim_syms: vec!["NR".into(), "NC".into()],
        nnz_sym: "NNZ".into(),
        extra_syms: vec![],
        coord_ufs: vec![Some("rowx".into()), Some("colx".into())],
        contiguous_data: true,
    }
    .into();
    let conv =
        Conversion::new(&descriptors::scoo(), &dst, SynthesisOptions::default()).unwrap();
    let coo = random_coo(5, 5, 10, 1, true);
    let mut env = spf_codegen::runtime::RtEnv::new();
    sparse_synthesis::run::bind_matrix(&mut env, &conv.synth.src, (&coo).into()).unwrap();
    let err = conv.execute_env(&mut env).unwrap_err();
    assert!(err.to_string().contains("comparator NOT_REGISTERED"), "{err}");
}

/// A corrupt *output* fails as `RunError::Format` naming the shared
/// check, never as `InvalidInput` (which a bare `?` through
/// `From<ValidationError>` would produce).
#[test]
fn corrupt_outputs_fail_as_format_errors() {
    use sparse_formats::{InputCheck, MatrixRef, TensorRef};
    use sparse_synthesis::run::{bind_matrix, bind_tensor, extract_matrix, extract_tensor};
    use sparse_synthesis::RunError;
    use spf_codegen::runtime::RtEnv;

    // Bound under the CSR descriptor's names, a non-monotone `rowptr` is
    // exactly what a faulty inspector would leave for the extractor.
    let csr = CsrMatrix::from_coo(&random_coo(4, 4, 6, 1, true));
    let mut bad = csr.clone();
    bad.rowptr = vec![0, 3, 1, 5, 6];
    let desc = descriptors::csr();
    let mut env = RtEnv::new();
    bind_matrix(&mut env, &desc, MatrixRef::Csr(&bad)).unwrap();
    match extract_matrix(&mut env, &desc, bad.nr, bad.nc) {
        Err(RunError::Format(e)) => assert_eq!(e.check, InputCheck::PointerMonotone, "{e}"),
        other => panic!("expected RunError::Format, got {other:?}"),
    }

    // Two nonzeros out of Z-order under the MCOO3 descriptor's names.
    let t = Coo3Tensor::from_coords((4, 4, 4), vec![3, 0], vec![3, 0], vec![3, 0], vec![1.0, 2.0])
        .unwrap();
    let bad = MortonCoo3Tensor { coo: t };
    let desc = descriptors::mcoo3();
    let mut env = RtEnv::new();
    bind_tensor(&mut env, &desc, TensorRef::MortonCoo3(&bad)).unwrap();
    match extract_tensor(&mut env, &desc, (4, 4, 4)) {
        Err(RunError::Format(e)) => assert_eq!(e.check, InputCheck::Ordering, "{e}"),
        other => panic!("expected RunError::Format, got {other:?}"),
    }
}

/// Golden [`ExecStats`](spf_codegen::interp::ExecStats): the exact
/// statement and loop-iteration counts the interpreter reports for fixed
/// `matgen` inputs. One `statements` count per executed source statement
/// (comments included) and one `loop_iterations` count per `For`
/// iteration and per bisection step; any change to how the interpreter
/// walks a plan shows here.
#[test]
fn exec_stats_golden() {
    use sparse_formats::EllMatrix;
    use sparse_matgen::generators::{banded, random_uniform, skewed_tensor};

    let matrix = |src, dst, membership, m: AnyMatrix| {
        let opts = SynthesisOptions { optimize: true, membership };
        let conv = Conversion::new(&src, &dst, opts).unwrap();
        let (_, stats) = conv.run_matrix(&m).unwrap();
        (stats.statements, stats.loop_iterations)
    };
    let coo = random_uniform(40, 30, 220, 7);
    let ell = EllMatrix::from_coo(&coo);
    let band = banded(40, &[-7, -1, 0, 2, 9], 0.8, 7);
    let (linear, binary, direct) = (Membership::Linear, Membership::Binary, Membership::Direct);
    let got = [
        matrix(descriptors::coo(), descriptors::csr(), direct, coo.clone().into()),
        matrix(descriptors::scoo(), descriptors::csr(), direct, coo.into()),
        matrix(descriptors::ell(), descriptors::coo(), direct, ell.into()),
        matrix(descriptors::coo(), descriptors::dia(), linear, band.clone().into()),
        matrix(descriptors::coo(), descriptors::dia(), binary, band.clone().into()),
        matrix(descriptors::coo(), descriptors::dia(), direct, band.into()),
    ];
    assert_eq!(
        got,
        [(2571, 422), (1804, 231), (2454, 480), (1981, 987), (1276, 674), (1479, 440)]
    );

    let conv =
        Conversion::new(&descriptors::coo3(), &descriptors::mcoo3(), SynthesisOptions::default())
            .unwrap();
    let (_, stats) = conv.run_tensor(&skewed_tensor((16, 12, 10), 200, 7)).unwrap();
    assert_eq!((stats.statements, stats.loop_iterations), (2915, 342));
}
