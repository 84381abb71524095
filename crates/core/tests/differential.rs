//! Differential tests: every registered native kernel must be
//! **bit-identical** to the SPF-IR interpreter on every valid input.
//!
//! This is the equivalence proof the engine's kernel backend rests on —
//! a kernel only ever substitutes for the interpreter, so any observable
//! difference is a bug in the kernel (or a case the kernel must decline,
//! like duplicate coordinates in an unordered COO source).
//!
//! Inputs come from `sparse_matgen`'s generator families plus a fixed
//! battery of structural edge cases: empty matrices, `0×N` / `N×0`
//! shapes, all-empty rows, and fully dense rows.

use proptest::prelude::*;
use sparse_formats::descriptors;
use sparse_formats::{AnyMatrix, AnyTensor, Coo3Tensor, CooMatrix, CscMatrix, CsrMatrix,
    FormatDescriptor, MortonCooMatrix};
use sparse_matgen::generators::{power_law, random_uniform};
use sparse_obs::NoopSubscriber;
use sparse_synthesis::{Conversion, SynthesisOptions};

/// How to present a generated COO matrix to a conversion's *source*
/// descriptor.
#[derive(Clone, Copy, Debug)]
enum Src {
    /// Unordered triplets (shuffled deterministically).
    Unsorted,
    /// Row-major sorted triplets (`SCOO`).
    Sorted,
    /// Morton-ordered triplets (`MCOO`).
    Morton,
    /// Compressed rows.
    Csr,
    /// Compressed columns.
    Csc,
}

/// Every kernel-backed matrix pair in the conversion catalog, with the
/// source container each needs. Covers all eight distinct rank-2 kernel
/// implementations.
fn kernel_pairs() -> Vec<(Src, FormatDescriptor, FormatDescriptor)> {
    use descriptors as d;
    vec![
        (Src::Sorted, d::scoo(), d::csr()),
        (Src::Unsorted, d::coo(), d::csr()),
        (Src::Sorted, d::scoo(), d::csc()),
        (Src::Csr, d::csr(), d::csc()),
        (Src::Csc, d::csc(), d::csr()),
        (Src::Csr, d::csr(), d::coo()),
        (Src::Csc, d::csc(), d::coo()),
        (Src::Sorted, d::scoo(), d::mcoo()),
        (Src::Morton, d::mcoo(), d::csr()),
        (Src::Morton, d::mcoo(), d::mcoo()),
        (Src::Unsorted, d::coo(), d::scoo().with_suffix("_d")),
    ]
}

/// Deterministic Fisher–Yates driven by a seed, so "unsorted" inputs are
/// reproducibly scrambled without duplicating coordinates.
fn shuffled(mut m: CooMatrix, seed: u64) -> CooMatrix {
    let n = m.nnz();
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    for i in (1..n).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        m.row.swap(i, j);
        m.col.swap(i, j);
        m.val.swap(i, j);
    }
    m
}

fn make_input(kind: Src, base: &CooMatrix, seed: u64) -> AnyMatrix {
    match kind {
        Src::Unsorted => AnyMatrix::Coo(shuffled(base.clone(), seed)),
        Src::Sorted => {
            let mut m = base.clone();
            m.sort_row_major();
            AnyMatrix::Coo(m)
        }
        Src::Morton => AnyMatrix::MortonCoo(MortonCooMatrix::from_coo(base)),
        Src::Csr => AnyMatrix::Csr(CsrMatrix::from_coo(base)),
        Src::Csc => AnyMatrix::Csc(CscMatrix::from_coo(base)),
    }
}

/// The assertion at the heart of the suite: for one pair and one input,
/// the kernel's answer must equal the interpreter's, field for field.
fn assert_kernel_matches_interpreter(
    conv: &Conversion,
    pair: &str,
    input: &AnyMatrix,
) {
    let kernel = conv
        .run_matrix_kernel(input.as_ref())
        .unwrap_or_else(|| panic!("{pair}: no kernel registered"))
        .unwrap_or_else(|e| panic!("{pair}: kernel declined a valid input: {e}"));
    let interp = conv
        .run_observed(input.as_ref(), None, 0, &NoopSubscriber)
        .unwrap_or_else(|e| panic!("{pair}: interpreter failed: {e}"));
    assert_eq!(kernel, interp, "{pair}: kernel and interpreter disagree");
}

fn conversions() -> Vec<(Src, String, Conversion)> {
    kernel_pairs()
        .into_iter()
        .map(|(kind, src, dst)| {
            let pair = format!("{} -> {}", src.name, dst.name);
            let conv = Conversion::new(&src, &dst, SynthesisOptions::default())
                .unwrap_or_else(|e| panic!("{pair}: synthesis failed: {e}"));
            assert!(conv.has_kernel(), "{pair}: expected a registered kernel");
            (kind, pair, conv)
        })
        .collect()
}

/// Edge-case battery: shapes and row profiles that historically break
/// pointer-array kernels.
fn edge_cases() -> Vec<CooMatrix> {
    let m = |nr, nc, row: Vec<i64>, col: Vec<i64>| {
        let val = (0..row.len()).map(|k| k as f64 + 1.0).collect();
        CooMatrix::from_triplets(nr, nc, row, col, val).unwrap()
    };
    vec![
        // Entirely empty, square.
        m(4, 4, vec![], vec![]),
        // 0×N and N×0 (no rows / no columns at all).
        m(0, 7, vec![], vec![]),
        m(7, 0, vec![], vec![]),
        // 0×0.
        m(0, 0, vec![], vec![]),
        // Single entry in the last slot.
        m(3, 3, vec![2], vec![2]),
        // Empty rows between occupied ones.
        m(6, 4, vec![0, 0, 3, 5], vec![1, 3, 0, 2]),
        // One fully dense row amid empty ones.
        m(5, 6, vec![2, 2, 2, 2, 2, 2], vec![0, 1, 2, 3, 4, 5]),
        // Dense single column (every row occupied once).
        m(6, 3, vec![0, 1, 2, 3, 4, 5], vec![1, 1, 1, 1, 1, 1]),
        // 1×N dense row.
        m(1, 8, vec![0; 8], (0..8).collect()),
        // N×1 dense column.
        m(8, 1, (0..8).collect(), vec![0; 8]),
    ]
}

#[test]
fn kernels_match_interpreter_on_edge_cases() {
    for (kind, pair, conv) in &conversions() {
        for (i, base) in edge_cases().iter().enumerate() {
            let input = make_input(*kind, base, i as u64 + 1);
            assert_kernel_matches_interpreter(conv, &format!("{pair} [edge {i}]"), &input);
        }
    }
}

#[test]
fn kernels_match_interpreter_on_generator_suite() {
    for (kind, pair, conv) in &conversions() {
        for seed in 0..4u64 {
            for base in [
                random_uniform(40, 30, 220, seed),
                power_law(50, 20, 260, seed),
            ] {
                let input = make_input(*kind, &base, seed + 7);
                assert_kernel_matches_interpreter(conv, pair, &input);
            }
        }
    }
}

#[test]
fn tensor_kernels_match_interpreter() {
    use sparse_matgen::generators::skewed_tensor;
    for (sorted, src, dst) in [
        (false, descriptors::coo3(), descriptors::mcoo3()),
        (true, descriptors::scoo3(), descriptors::mcoo3()),
    ] {
        let pair = format!("{} -> {}", src.name, dst.name);
        let conv = Conversion::new(&src, &dst, SynthesisOptions::default())
            .unwrap_or_else(|e| panic!("{pair}: synthesis failed: {e}"));
        assert!(conv.has_kernel(), "{pair}: expected a registered kernel");
        for seed in 0..4u64 {
            let mut t = skewed_tensor((12, 10, 14), 160, seed);
            if sorted {
                t.sort_by(|a, b| a.cmp(b));
            }
            let input = AnyTensor::Coo3(t);
            let kernel = conv
                .run_tensor_kernel(input.as_ref())
                .unwrap_or_else(|| panic!("{pair}: no kernel"))
                .unwrap_or_else(|e| panic!("{pair}: kernel declined: {e}"));
            let interp = conv
                .run_observed(input.as_ref(), None, 0, &NoopSubscriber)
                .unwrap_or_else(|e| panic!("{pair}: interpreter failed: {e}"));
            assert_eq!(kernel, interp, "{pair} seed {seed}");
        }
        // Empty tensor.
        let empty = AnyTensor::Coo3(
            Coo3Tensor::from_coords((3, 3, 3), vec![], vec![], vec![], vec![]).unwrap(),
        );
        let kernel = conv.run_tensor_kernel(empty.as_ref()).unwrap().unwrap();
        let interp = conv.run_observed(empty.as_ref(), None, 0, &NoopSubscriber).unwrap();
        assert_eq!(kernel, interp, "{pair} empty");
    }
}

#[test]
fn duplicate_coordinates_are_declined_not_mismatched() {
    // Unordered COO tolerates duplicate coordinates, but the permutation
    // plans collapse them through first-occurrence ranks — an order the
    // sort-based kernels cannot reproduce. The kernel must decline (and
    // the engine then falls back); answering differently would be a bug.
    let coo = CooMatrix::from_triplets(
        3,
        3,
        vec![1, 0, 1, 2],
        vec![2, 1, 2, 0],
        vec![1.0, 2.0, 3.0, 4.0],
    )
    .unwrap();
    let conv = Conversion::new(
        &descriptors::coo(),
        &descriptors::scoo().with_suffix("_d"),
        SynthesisOptions::default(),
    )
    .unwrap();
    let res = conv.run_matrix_kernel(&coo).expect("kernel registered");
    assert!(res.is_err(), "duplicate coordinates must be declined");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized differential check across every kernel-backed matrix
    /// pair: dims (including degenerate 0/1 extents), density, and seed
    /// are all driven by proptest.
    #[test]
    fn prop_kernels_match_interpreter(
        nr in 0usize..24,
        nc in 0usize..24,
        fill in 0usize..300,
        seed in 0u64..u64::MAX,
    ) {
        let nnz = fill.min(nr * nc);
        let base = random_uniform(nr.max(1), nc.max(1), nnz, seed);
        // random_uniform needs nonzero dims to sample; rebuild the truly
        // degenerate shapes as empty matrices with the real dims.
        let base = if nr == 0 || nc == 0 {
            CooMatrix::from_triplets(nr, nc, vec![], vec![], vec![]).unwrap()
        } else {
            base
        };
        for (kind, pair, conv) in &conversions() {
            let input = make_input(*kind, &base, seed ^ 0xabcd);
            assert_kernel_matches_interpreter(conv, pair, &input);
        }
    }
}
