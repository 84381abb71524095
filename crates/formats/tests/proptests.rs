//! Property-based tests on the runtime containers: every format's
//! reference conversion round-trips through COO/dense, validates its own
//! invariants, and computes the same SpMV.

use proptest::prelude::*;
use sparse_formats::{CooMatrix, CscMatrix, CsrMatrix, DiaMatrix, EllMatrix, MortonCooMatrix};

fn arb_coo() -> impl Strategy<Value = CooMatrix> {
    (1usize..20, 1usize..20)
        .prop_flat_map(|(nr, nc)| {
            let coords = proptest::collection::btree_set((0..nr, 0..nc), 0..48);
            (Just(nr), Just(nc), coords)
        })
        .prop_map(|(nr, nc, coords)| {
            let row: Vec<i64> = coords.iter().map(|&(i, _)| i as i64).collect();
            let col: Vec<i64> = coords.iter().map(|&(_, j)| j as i64).collect();
            // Values strictly nonzero so padding drops are detectable.
            let val: Vec<f64> = (0..coords.len()).map(|k| k as f64 + 1.0).collect();
            CooMatrix::from_triplets(nr, nc, row, col, val).expect("valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn csr_round_trip_and_validate(coo in arb_coo()) {
        let csr = CsrMatrix::from_coo(&coo);
        csr.validate().unwrap();
        prop_assert_eq!(csr.to_dense(), coo.to_dense());
        let mut back = csr.to_coo();
        back.sort_row_major();
        let mut orig = coo;
        orig.sort_row_major();
        prop_assert_eq!(back, orig);
    }

    #[test]
    fn csc_round_trip_and_validate(coo in arb_coo()) {
        let csc = CscMatrix::from_coo(&coo);
        csc.validate().unwrap();
        prop_assert_eq!(csc.to_dense(), coo.to_dense());
    }

    #[test]
    fn dia_round_trip_and_validate(coo in arb_coo()) {
        let dia = DiaMatrix::from_coo(&coo);
        dia.validate().unwrap();
        prop_assert_eq!(dia.to_dense(), coo.to_dense());
        prop_assert_eq!(dia.nd(), coo.diagonals().len());
    }

    #[test]
    fn ell_round_trip_and_validate(coo in arb_coo()) {
        let ell = EllMatrix::from_coo(&coo);
        ell.validate().unwrap();
        prop_assert_eq!(ell.to_dense(), coo.to_dense());
    }

    #[test]
    fn mcoo_is_a_permutation(coo in arb_coo()) {
        let m = MortonCooMatrix::from_coo(&coo);
        m.validate().unwrap();
        prop_assert_eq!(m.coo.to_dense(), coo.to_dense());
        prop_assert_eq!(m.nnz(), coo.nnz());
    }

    #[test]
    fn all_spmv_agree(coo in arb_coo()) {
        let x: Vec<f64> = (0..coo.nc).map(|k| ((k * 7 % 5) as f64) - 2.0).collect();
        let want = coo.to_dense().spmv(&x);
        let close = |got: Vec<f64>| {
            got.iter().zip(&want).all(|(a, b)| (a - b).abs() < 1e-9)
        };
        prop_assert!(close(coo.spmv(&x)));
        prop_assert!(close(CsrMatrix::from_coo(&coo).spmv(&x)));
        prop_assert!(close(CscMatrix::from_coo(&coo).spmv(&x)));
        prop_assert!(close(DiaMatrix::from_coo(&coo).spmv(&x)));
        prop_assert!(close(EllMatrix::from_coo(&coo).spmv(&x)));
    }

    /// Morton comparison is a strict weak ordering consistent with the
    /// encoded codes (checked exhaustively elsewhere; sampled here at
    /// larger coordinates).
    #[test]
    fn morton_cmp_consistent_with_codes(
        a in (0i64..1 << 20, 0i64..1 << 20),
        b in (0i64..1 << 20, 0i64..1 << 20),
    ) {
        use spf_codegen::morton::{morton_cmp, morton_encode};
        let ca = morton_encode(&[a.0, a.1], 21);
        let cb = morton_encode(&[b.0, b.1], 21);
        prop_assert_eq!(morton_cmp(&[a.0, a.1], &[b.0, b.1]), ca.cmp(&cb));
    }
}

/// One Morton coordinate: `kind` picks a shape the Z-order comparison
/// must get right — an arbitrary value, bit 62 set, zero, a repeat of the
/// previous coordinate, or the previous one with only low bits changed
/// (equal top bits).
fn z_coord(kind: u8, x: u64, prev: i64) -> i64 {
    let low = (x % 8) as i64;
    match kind % 5 {
        0 => (x >> 1) as i64,
        1 => (1 << 62) | (x >> 2) as i64,
        2 => 0,
        3 => prev,
        _ => (prev & !7) | low,
    }
}

/// Entries whose coordinates follow [`z_coord`], each dimension against
/// the previous entry's.
fn z_entries<const R: usize>(draws: &[(u8, [u64; R])]) -> Vec<[i64; R]> {
    let mut out: Vec<[i64; R]> = Vec::with_capacity(draws.len());
    for (k, &(kind, xs)) in draws.iter().enumerate() {
        let prev = out.last().copied().unwrap_or([0; R]);
        // A whole-entry repeat now and then, so strict orders see duplicates.
        let entry = if kind >= 240 && k > 0 {
            prev
        } else {
            std::array::from_fn(|d| z_coord(kind.rotate_right(d as u32), xs[d], prev[d]))
        };
        out.push(entry);
    }
    out
}

/// What the adjacent-pair `morton_cmp` sweep decides for `entries`: the
/// failing check and the later entry of the first failing pair.
fn morton_cmp_sweep<const R: usize>(
    entries: &[[i64; R]],
    strict: bool,
) -> Result<(), (sparse_formats::InputCheck, usize)> {
    use sparse_formats::InputCheck;
    use spf_codegen::morton::morton_cmp;
    use std::cmp::Ordering;
    for n in 1..entries.len() {
        match morton_cmp(&entries[n - 1], &entries[n]) {
            Ordering::Greater => return Err((InputCheck::Ordering, n)),
            Ordering::Equal if strict => return Err((InputCheck::DuplicateCoordinate, n)),
            _ => {}
        }
    }
    Ok(())
}

/// The failing check, and the later entry of the pair the error names.
fn located(e: sparse_formats::ValidationError) -> (sparse_formats::InputCheck, usize) {
    let at = e.detail.split(" and ").nth(1).and_then(|s| s.split(' ').next());
    (e.check, at.and_then(|s| s.parse().ok()).unwrap_or(usize::MAX))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The fused validation sweep's Z-order compare agrees with a
    /// `morton_cmp` sweep, strict (the MCOO descriptor) and non-strict
    /// (the Morton container's own check), and the error names the pair.
    #[test]
    fn fused_morton_sweep_agrees_with_morton_cmp(
        draws in proptest::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u64>()).prop_map(|(k, a, b)| (k, [a, b])),
            0..24,
        ),
    ) {
        use sparse_formats::{descriptors, validate_matrix, MatrixRef};
        let entries = z_entries(&draws);
        let coo = CooMatrix {
            nr: 1 << 63,
            nc: 1 << 63,
            row: entries.iter().map(|e| e[0]).collect(),
            col: entries.iter().map(|e| e[1]).collect(),
            val: vec![1.0; entries.len()],
        };
        let strict = validate_matrix(&descriptors::mcoo(), MatrixRef::Coo(&coo));
        prop_assert_eq!(strict.map_err(located), morton_cmp_sweep(&entries, true));
        let repeats = MortonCooMatrix::new(coo).map(|_| ());
        prop_assert_eq!(repeats.map_err(located), morton_cmp_sweep(&entries, false));
    }

    #[test]
    fn fused_morton3_sweep_agrees_with_morton_cmp(
        draws in proptest::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u64>(), any::<u64>())
                .prop_map(|(k, a, b, c)| (k, [a, b, c])),
            0..24,
        ),
    ) {
        use sparse_formats::{descriptors, validate_tensor, Coo3Tensor, MortonCoo3Tensor, TensorRef};
        let entries = z_entries(&draws);
        let t = Coo3Tensor {
            nr: 1 << 63,
            nc: 1 << 63,
            nz: 1 << 63,
            i0: entries.iter().map(|e| e[0]).collect(),
            i1: entries.iter().map(|e| e[1]).collect(),
            i2: entries.iter().map(|e| e[2]).collect(),
            val: vec![1.0; entries.len()],
        };
        let strict = validate_tensor(&descriptors::mcoo3(), TensorRef::Coo3(&t));
        prop_assert_eq!(strict.map_err(located), morton_cmp_sweep(&entries, true));
        let repeats = MortonCoo3Tensor::new(t).map(|_| ());
        prop_assert_eq!(repeats.map_err(located), morton_cmp_sweep(&entries, false));
    }
}

/// The order a coordinate descriptor claims, as the naive reference
/// reads it.
#[derive(Clone, Copy, Debug)]
enum RefOrder {
    /// Unordered storage.
    None,
    /// Lexicographic over these coordinates, the most significant first.
    Lex(&'static [usize]),
    /// Z-order over every coordinate.
    Morton,
}

/// The naive reference for validating coordinate storage: lengths, then
/// bounds, then finiteness, then each adjacent pair under `order`,
/// strictly (an equal key is a duplicate).
fn reference<const R: usize>(
    cols: &[Vec<i64>; R],
    extents: [usize; R],
    val: &[f64],
    order: RefOrder,
) -> Result<(), sparse_formats::InputCheck> {
    use sparse_formats::InputCheck;
    use spf_codegen::morton::morton_cmp;
    use std::cmp::Ordering;
    if cols.iter().any(|c| c.len() != val.len()) {
        return Err(InputCheck::ArrayLengths);
    }
    let at = |n: usize| -> [i64; R] { std::array::from_fn(|d| cols[d][n]) };
    for n in 0..val.len() {
        if (0..R).any(|d| at(n)[d] < 0 || at(n)[d] >= extents[d] as i64) {
            return Err(InputCheck::IndexBounds);
        }
    }
    if val.iter().any(|v| !v.is_finite()) {
        return Err(InputCheck::ValueFinite);
    }
    for n in 1..val.len() {
        let (a, b) = (at(n - 1), at(n));
        let cmp = match order {
            RefOrder::None => continue,
            RefOrder::Lex(pos) => {
                let key = |x: [i64; R]| pos.iter().map(|&p| x[p]).collect::<Vec<i64>>();
                key(a).cmp(&key(b))
            }
            RefOrder::Morton => morton_cmp(&a, &b),
        };
        match cmp {
            Ordering::Greater => return Err(InputCheck::Ordering),
            Ordering::Equal => return Err(InputCheck::DuplicateCoordinate),
            Ordering::Less => {}
        }
    }
    Ok(())
}

/// Small random coordinate storage over `extents`, arranged by `arrange`
/// (0: as drawn, 1: row-major, 2: the reverse lexicographic order, 3:
/// Z-order), optionally deduplicated, then corrupted by `corrupt` (0-1:
/// clean, 2: a column one short, 3: a coordinate out of bounds, 4: a
/// non-finite value, 5: two entries swapped).
fn ref_input<const R: usize>(
    extents: [usize; R],
    draws: &[(u8, u8, u8, u8)],
    (arrange, dedup, corrupt): (u8, bool, u8),
) -> ([Vec<i64>; R], Vec<f64>) {
    use spf_codegen::morton::morton_cmp;
    let mut entries: Vec<([i64; R], f64)> = draws
        .iter()
        .map(|&(a, b, c, v)| {
            let bytes = [a, b, c];
            (std::array::from_fn(|d| i64::from(bytes[d]) % extents[d] as i64), f64::from(v))
        })
        .collect();
    match arrange {
        1 => entries.sort_by_key(|x| x.0),
        2 => entries.sort_by(|x, y| x.0.iter().rev().cmp(y.0.iter().rev())),
        3 => entries.sort_by(|x, y| morton_cmp(&x.0, &y.0)),
        _ => {}
    }
    if dedup {
        entries.dedup_by(|x, y| x.0 == y.0);
    }
    let mut cols: [Vec<i64>; R] =
        std::array::from_fn(|d| entries.iter().map(|e| e.0[d]).collect());
    let mut val: Vec<f64> = entries.iter().map(|e| e.1).collect();
    let n = val.len();
    let pick = draws.first().map_or(0, |d| usize::from(d.3));
    match corrupt {
        2 => {
            cols[pick % R].pop();
        }
        3 if n > 0 => {
            let d = pick % R;
            cols[d][pick % n] = if pick.is_multiple_of(2) { -1 } else { extents[d] as i64 };
        }
        4 if n > 0 => val[pick % n] = if pick.is_multiple_of(2) { f64::NAN } else { f64::INFINITY },
        5 if n > 1 => {
            for col in &mut cols {
                col.swap(pick % n, (pick + 1) % n);
            }
        }
        _ => {}
    }
    (cols, val)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// `validate_matrix` over every coordinate descriptor, on both the
    /// COO and the Morton container, gives the naive reference's answer.
    #[test]
    fn matrix_coordinate_validation_matches_the_reference(
        extents in (1usize..6, 1usize..6),
        draws in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            0..12,
        ),
        shape in (0u8..4, proptest::bool::ANY, 0u8..6),
    ) {
        use sparse_formats::{descriptors, validate_matrix, MatrixRef};
        use spf_ir::order::{Comparator, KeyDim, OrderKey};
        let col_major = descriptors::scoo().edit(|s| {
            s.order = Some(OrderKey {
                comparator: Comparator::Lexicographic,
                dims: vec![KeyDim::coord(2, 1), KeyDim::coord(2, 0)],
            });
        });
        let extents = [extents.0, extents.1];
        let ([row, col], val) = ref_input(extents, &draws, shape);
        let coo = CooMatrix { nr: extents[0], nc: extents[1], row, col, val };
        let mcoo = MortonCooMatrix { coo: coo.clone() };
        for (desc, order) in [
            (descriptors::coo(), RefOrder::None),
            (descriptors::scoo(), RefOrder::Lex(&[0, 1])),
            (col_major, RefOrder::Lex(&[1, 0])),
            (descriptors::mcoo(), RefOrder::Morton),
        ] {
            let want = reference(&[coo.row.clone(), coo.col.clone()], extents, &coo.val, order);
            for m in [MatrixRef::Coo(&coo), MatrixRef::MortonCoo(&mcoo)] {
                let got = validate_matrix(&desc, m).map_err(|e| e.check);
                prop_assert_eq!(got, want, "{} on {:?}", desc.name, coo);
            }
        }
    }

    /// `validate_tensor` over every order-3 coordinate descriptor, on
    /// both containers, gives the naive reference's answer.
    #[test]
    fn tensor_coordinate_validation_matches_the_reference(
        extents in (1usize..5, 1usize..5, 1usize..5),
        draws in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            0..12,
        ),
        shape in (0u8..4, proptest::bool::ANY, 0u8..6),
    ) {
        use sparse_formats::{descriptors, validate_tensor, Coo3Tensor, MortonCoo3Tensor};
        use sparse_formats::TensorRef;
        let extents = [extents.0, extents.1, extents.2];
        let ([i0, i1, i2], val) = ref_input(extents, &draws, shape);
        let [nr, nc, nz] = extents;
        let t = Coo3Tensor { nr, nc, nz, i0, i1, i2, val };
        let mt = MortonCoo3Tensor { coo: t.clone() };
        for (desc, order) in [
            (descriptors::coo3(), RefOrder::None),
            (descriptors::scoo3(), RefOrder::Lex(&[0, 1, 2])),
            (descriptors::mcoo3(), RefOrder::Morton),
        ] {
            let cols = [t.i0.clone(), t.i1.clone(), t.i2.clone()];
            let want = reference(&cols, extents, &t.val, order);
            for x in [TensorRef::Coo3(&t), TensorRef::MortonCoo3(&mt)] {
                let got = validate_tensor(&desc, x).map_err(|e| e.check);
                prop_assert_eq!(got, want, "{} on {:?}", desc.name, t);
            }
        }
    }
}
