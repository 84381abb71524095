//! Defining a *new* sparse format and synthesizing a conversion to it —
//! the extensibility claim of the paper: `n` descriptors give `n²`
//! conversions, and user-defined comparison functions let descriptors
//! express orderings no fixed format vocabulary covers.
//!
//! Here we invent **ACOO** ("anti-diagonal COO"): coordinate storage
//! whose nonzeros are sorted by anti-diagonal (`i + j`), then by row — a
//! layout a wavefront solver might want. No code in this repository
//! special-cases it; the descriptor alone drives synthesis.
//!
//! ```text
//! cargo run --example custom_format
//! ```

use std::sync::Arc;

use sparse_synth::formats::descriptors::ScanInfo;
use sparse_synth::formats::{descriptors, AnyMatrix, CooMatrix, FormatDescriptor, FormatSpec};
use sparse_synth::ir::order::{Comparator, KeyDim, OrderKey};
use sparse_synth::ir::{parse_relation, parse_set, LinExpr, UfSignature, VarId};
use sparse_synth::synthesis::{run as synth_run, Conversion, SynthesisOptions};
use sparse_synth::codegen::runtime::RtEnv;

/// Builds the ACOO descriptor from scratch: a plain [`FormatSpec`],
/// frozen into a descriptor (and fingerprinted once) by `.into()`.
fn acoo() -> FormatDescriptor {
    let mut ufs = sparse_synth::ir::UfEnvironment::new();
    ufs.insert(
        UfSignature::parse(
            "rowa",
            "{ [x] : 0 <= x < NNZ }",
            "{ [i] : 0 <= i < NR }",
            None,
        )
        .unwrap(),
    );
    ufs.insert(
        UfSignature::parse(
            "cola",
            "{ [x] : 0 <= x < NNZ }",
            "{ [j] : 0 <= j < NC }",
            None,
        )
        .unwrap(),
    );
    let mut scan_set = parse_set(
        "{ [n, i, j] : i = rowa(n) && j = cola(n) && 0 <= n < NNZ }",
    )
    .unwrap();
    scan_set.simplify();
    FormatSpec {
        name: "ACOO".into(),
        rank: 2,
        sparse_to_dense: parse_relation(
            "{ [n, ii, jj] -> [i, j] : rowa(n) = i && cola(n) = j && ii = i && jj = j \
             && 0 <= i < NR && 0 <= j < NC && 0 <= n < NNZ }",
        )
        .unwrap(),
        data_access: parse_relation("{ [n, ii, jj] -> [d0] : d0 = n }").unwrap(),
        scan: Some(ScanInfo {
            set: scan_set,
            dense_pos: vec![1, 2],
            data_index: LinExpr::var(VarId(0)),
        }),
        ufs,
        // The reordering universal quantifier, with a user-defined
        // comparison function named WAVEFRONT. The paper: "functions that
        // appear only within universal quantifiers are user-defined and
        // full definitions must be provided" — we provide it at run time
        // through the comparator registry.
        order: Some(OrderKey {
            comparator: Comparator::UserFn("WAVEFRONT".into()),
            dims: vec![KeyDim::coord(2, 0), KeyDim::coord(2, 1)],
        }),
        data_name: "Aacoo".into(),
        data_size: vec![LinExpr::sym("NNZ")],
        dim_syms: vec!["NR".into(), "NC".into()],
        nnz_sym: "NNZ".into(),
        extra_syms: vec![],
        coord_ufs: vec![Some("rowa".into()), Some("cola".into())],
        contiguous_data: true,
    }
    .into()
}

fn main() {
    let src = descriptors::scoo();
    let dst = acoo();
    println!("=== The new descriptor ===\n{}", dst.table1_row());

    let mut conv =
        Conversion::new(&src, &dst, SynthesisOptions::default()).expect("synthesizes");

    // Provide the WAVEFRONT comparator definition: anti-diagonal (i+j)
    // first, then row.
    conv.register_comparator(
        "WAVEFRONT",
        Arc::new(|a: &[i64], b: &[i64]| {
            let (ai, aj) = (a[0], a[1]);
            let (bi, bj) = (b[0], b[1]);
            (ai + aj, ai).cmp(&(bi + bj, bi))
        }),
    );

    println!("=== Synthesized inspector ===\n{}", conv.emit_c());

    // Run it.
    let coo = {
        let mut m = CooMatrix::from_triplets(
            4,
            4,
            vec![0, 0, 1, 2, 3, 3],
            vec![0, 3, 1, 0, 2, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
        .unwrap();
        m.sort_row_major();
        m
    };
    let mut env = RtEnv::new();
    synth_run::bind_matrix(&mut env, &conv.synth.src, (&coo).into()).unwrap();
    conv.execute_env(&mut env).expect("conversion runs");
    let out = synth_run::extract_matrix(&mut env, &conv.synth.dst, coo.nr, coo.nc)
        .expect("valid output");
    let AnyMatrix::Coo(out) = out else { panic!("a wavefront COO destination gives a COO") };

    println!("wavefront order (i, j, i+j):");
    let mut prev_key = (i64::MIN, i64::MIN);
    for (i, j, v) in out.iter() {
        println!("  ({i}, {j})  diag {}  = {v}", i + j);
        let key = (i + j, i);
        assert!(prev_key <= key, "wavefront order violated");
        prev_key = key;
    }
    assert_eq!(out.to_dense(), coo.to_dense());
    println!("\nWavefront ordering verified; values preserved. ✓");
}
