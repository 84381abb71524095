//! Property-based tests: for *arbitrary* sparse matrices, every
//! synthesized conversion agrees with the reference implementation —
//! the repository's central correctness invariant.

use proptest::prelude::*;
use sparse_synth::formats::{
    descriptors, AnyMatrix, CooMatrix, CscMatrix, CsrMatrix, DiaMatrix, MortonCooMatrix,
};
use sparse_synth::synthesis::{Conversion, Membership, SynthesisOptions};

/// Arbitrary sparse matrix: dimensions up to 24x24, unique coordinates,
/// arbitrary (finite, nonzero) values.
fn arb_coo(sorted: bool) -> impl Strategy<Value = CooMatrix> {
    (2usize..24, 2usize..24)
        .prop_flat_map(move |(nr, nc)| {
            let coords = proptest::collection::btree_set((0..nr, 0..nc), 0..64);
            (Just(nr), Just(nc), coords, any::<u64>())
        })
        .prop_map(move |(nr, nc, coords, seed)| {
            let mut coords: Vec<(usize, usize)> = coords.into_iter().collect();
            if !sorted {
                // Deterministic shuffle from the seed.
                let mut s = seed | 1;
                for i in (1..coords.len()).rev() {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let j = (s >> 33) as usize % (i + 1);
                    coords.swap(i, j);
                }
            }
            let row: Vec<i64> = coords.iter().map(|&(i, _)| i as i64).collect();
            let col: Vec<i64> = coords.iter().map(|&(_, j)| j as i64).collect();
            let val: Vec<f64> = (0..coords.len()).map(|k| (k as f64) * 0.5 + 1.0).collect();
            CooMatrix::from_triplets(nr, nc, row, col, val).expect("valid by construction")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sorted COO -> CSR with the identity-eliminated fast path.
    #[test]
    fn prop_scoo_to_csr(coo in arb_coo(true)) {
        let conv = Conversion::new(
            &descriptors::scoo(), &descriptors::csr(), SynthesisOptions::default(),
        ).unwrap();
        let (got, _) = conv.run_matrix(&coo).unwrap();
        prop_assert_eq!(got, AnyMatrix::from(CsrMatrix::from_coo(&coo)));
    }

    /// Unsorted COO -> CSR through the full permutation machinery.
    #[test]
    fn prop_coo_to_csr_with_permutation(coo in arb_coo(false)) {
        let conv = Conversion::new(
            &descriptors::coo(), &descriptors::csr(), SynthesisOptions::default(),
        ).unwrap();
        let (got, _) = conv.run_matrix(&coo).unwrap();
        prop_assert_eq!(got, AnyMatrix::from(CsrMatrix::from_coo(&coo)));
    }

    /// Sorted COO -> CSC (permutation required even for sorted input).
    #[test]
    fn prop_scoo_to_csc(coo in arb_coo(true)) {
        let conv = Conversion::new(
            &descriptors::scoo(), &descriptors::csc(), SynthesisOptions::default(),
        ).unwrap();
        let (got, _) = conv.run_matrix(&coo).unwrap();
        prop_assert_eq!(got, AnyMatrix::from(CscMatrix::from_coo(&coo)));
    }

    /// CSR -> CSC transposition.
    #[test]
    fn prop_csr_to_csc(coo in arb_coo(true)) {
        let csr = CsrMatrix::from_coo(&coo);
        let conv = Conversion::new(
            &descriptors::csr(), &descriptors::csc(), SynthesisOptions::default(),
        ).unwrap();
        let (got, _) = conv.run_matrix(&csr).unwrap();
        prop_assert_eq!(got, AnyMatrix::from(CscMatrix::from_csr(&csr)));
    }

    /// COO -> DIA, every membership strategy.
    #[test]
    fn prop_scoo_to_dia(coo in arb_coo(true), which in 0usize..3) {
        let membership = [Membership::Linear, Membership::Binary, Membership::Direct][which];
        let conv = Conversion::new(
            &descriptors::scoo(),
            &descriptors::dia(),
            SynthesisOptions { optimize: true, membership },
        ).unwrap();
        let (got, _) = conv.run_matrix(&coo).unwrap();
        prop_assert_eq!(got, AnyMatrix::from(DiaMatrix::from_coo(&coo)));
    }

    /// COO -> Morton COO: the ordering quantifier holds and values are
    /// preserved.
    #[test]
    fn prop_scoo_to_mcoo(coo in arb_coo(true)) {
        let conv = Conversion::new(
            &descriptors::scoo(), &descriptors::mcoo(), SynthesisOptions::default(),
        ).unwrap();
        let (got, _) = conv.run_matrix(&coo).unwrap();
        prop_assert_eq!(got, AnyMatrix::from(MortonCooMatrix::from_coo(&coo)));
    }

    /// Naive (unoptimized) and optimized computations agree — the §3.3
    /// transformations are semantics-preserving.
    #[test]
    fn prop_optimization_preserves_semantics(coo in arb_coo(true)) {
        let naive = Conversion::new(
            &descriptors::scoo(), &descriptors::csr(),
            SynthesisOptions { optimize: false, membership: Membership::Linear },
        ).unwrap();
        let opt = Conversion::new(
            &descriptors::scoo(), &descriptors::csr(), SynthesisOptions::default(),
        ).unwrap();
        let (a, _) = naive.run_matrix(&coo).unwrap();
        let (b, _) = opt.run_matrix(&coo).unwrap();
        prop_assert!(matches!(a, AnyMatrix::Csr(_)), "expected CSR, got {}", a.label());
        prop_assert_eq!(a, b);
    }

    /// Dense-matrix semantics survive arbitrary conversion chains.
    #[test]
    fn prop_dense_preserved_through_chain(coo in arb_coo(true)) {
        let to_csr = Conversion::new(
            &descriptors::scoo(), &descriptors::csr(), SynthesisOptions::default(),
        ).unwrap();
        let to_csc = Conversion::new(
            &descriptors::csr(), &descriptors::csc(), SynthesisOptions::default(),
        ).unwrap();
        let (csr, _) = to_csr.run_matrix(&coo).unwrap();
        let (csc, _) = to_csc.run_matrix(&csr).unwrap();
        let AnyMatrix::Csc(csc) = csc else { panic!("expected CSC, got {}", csc.label()) };
        prop_assert_eq!(csc.to_dense(), coo.to_dense());
    }
}
