//! Counting placement against the paper's sorted permutation: for every
//! pair whose optimized plan places nonzeros by counting (a compaction
//! counter with one bucket per row or column), the output must be
//! bit-identical to the unoptimized plan, which sorts `P`, on seeded
//! random matrices and on structural edge cases.

use sparse_formats::{
    descriptors as d, AnyMatrix, CooMatrix, CscMatrix, CsrMatrix, EllMatrix, FormatDescriptor,
    MortonCooMatrix,
};
use sparse_matgen::generators::random_uniform;
use sparse_synthesis::{Conversion, RunError, SynthesisOptions, PERM_NAME};

/// The pairs that place by counting, as `(source, destination)`.
fn counting_pairs() -> Vec<(FormatDescriptor, FormatDescriptor)> {
    vec![
        (d::scoo(), d::csc()),
        (d::csr(), d::csc()),
        (d::csc(), d::scoo()),
        (d::csc(), d::csr()),
        (d::ell(), d::csc()),
        (d::mcoo(), d::scoo()),
        (d::mcoo(), d::csr()),
        (d::mcoo(), d::csc()),
    ]
}

/// `m` in the container `src` reads.
fn input(src: &FormatDescriptor, m: &CooMatrix) -> AnyMatrix {
    let mut sorted = m.clone();
    sorted.sort_row_major();
    match src.name.as_str() {
        "SCOO" => AnyMatrix::Coo(sorted),
        "CSR" => AnyMatrix::Csr(CsrMatrix::from_coo(m)),
        "CSC" => AnyMatrix::Csc(CscMatrix::from_coo(m)),
        "ELL" => AnyMatrix::Ell(EllMatrix::from_coo(m)),
        "MCOO" => AnyMatrix::MortonCoo(MortonCooMatrix::from_coo(m)),
        other => panic!("no input for {other}"),
    }
}

fn coo(nr: usize, nc: usize, coords: &[(i64, i64)]) -> CooMatrix {
    let (row, col) = coords.iter().copied().unzip();
    let val = (0..coords.len()).map(|k| k as f64 * 0.5 - 3.0).collect();
    CooMatrix::from_triplets(nr, nc, row, col, val).unwrap()
}

fn edge_cases() -> Vec<(&'static str, CooMatrix)> {
    let n = 9;
    let full_row: Vec<(i64, i64)> = (0..n as i64).map(|j| (4, j)).collect();
    let wide: Vec<(i64, i64)> = [0, 3, 4, 11].iter().map(|&j| (0, j)).collect();
    let tall: Vec<(i64, i64)> = [1, 2, 7, 12].iter().map(|&i| (i, 0)).collect();
    vec![
        ("empty", coo(n, n, &[])),
        ("0 x 0", coo(0, 0, &[])),
        // Rows 0-1 and 7-8, columns 0-2 and 7-8 empty.
        (
            "empty leading and trailing",
            coo(n, n, &[(2, 5), (3, 3), (5, 6), (6, 4), (6, 6)]),
        ),
        ("one full row", coo(n, n, &full_row)),
        ("1 x N", coo(1, 13, &wide)),
        ("N x 1", coo(13, 1, &tall)),
        ("one entry in the last row and column", coo(n, n, &[(8, 8)])),
    ]
}

fn conversions(src: &FormatDescriptor, dst: &FormatDescriptor) -> (Conversion, Conversion) {
    let sorted = SynthesisOptions {
        optimize: false,
        ..SynthesisOptions::default()
    };
    let counted = Conversion::new(src, dst, SynthesisOptions::default()).unwrap();
    let bucketed = counted
        .synth
        .computation
        .counter_bucket(PERM_NAME)
        .is_some();
    assert!(
        bucketed,
        "{} -> {} should place by counting",
        src.name, dst.name
    );
    let c = counted.emit_c();
    for sorting in ["P.insert", "P.finalize", "OrderedList"] {
        assert!(!c.contains(sorting), "{} -> {}:\n{c}", src.name, dst.name);
    }
    (counted, Conversion::new(src, dst, sorted).unwrap())
}

#[test]
fn counting_placement_matches_the_sorted_permutation() {
    let mut inputs = edge_cases();
    for seed in 0..4 {
        inputs.push(("random", random_uniform(37, 23, 150, seed)));
    }
    inputs.push(("random, wide", random_uniform(5, 300, 400, 9)));
    for (src, dst) in counting_pairs() {
        let (counted, sorted) = conversions(&src, &dst);
        for (what, m) in &inputs {
            let m = input(&src, m);
            let (got, _) = counted.run_matrix(&m).unwrap();
            let (want, _) = sorted.run_matrix(&m).unwrap();
            assert_eq!(got, want, "{} -> {} on {what}", src.name, dst.name);
        }
    }
}

/// Ordered sources reject repeated coordinates before any plan runs, so
/// counting placement cannot change what a duplicate does.
#[test]
fn an_mcoo_duplicate_is_rejected_by_both_plans() {
    let dup = coo(4, 4, &[(0, 0), (1, 2), (1, 2), (3, 1)]);
    let m = AnyMatrix::MortonCoo(MortonCooMatrix { coo: dup });
    for dst in [d::scoo(), d::csr(), d::csc()] {
        let (counted, sorted) = conversions(&d::mcoo(), &dst);
        for conv in [&counted, &sorted] {
            match conv.run_matrix(&m) {
                Err(RunError::InvalidInput {
                    check: "duplicate-coordinate",
                    ..
                }) => {}
                other => panic!(
                    "MCOO -> {}: expected a rejected input, got {other:?}",
                    dst.name
                ),
            }
        }
    }
}
