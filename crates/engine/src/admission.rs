//! Admission control: pre-conversion output-footprint estimation.
//!
//! Some destination layouts amplify storage dramatically — DIA
//! materializes `ND × NR` slots for `ND` *distinct diagonals* (a single
//! antidiagonal matrix of `n` nonzeros needs `n²` slots), and ELL pads
//! every row to the *maximum* row population. A serving engine must
//! refuse such blow-ups up front rather than OOM the process mid-batch,
//! so when [`crate::EngineConfig::memory_budget`] is set, every
//! conversion first runs through these estimators and is rejected with
//! `RunError::ResourceExhausted` when the estimate exceeds the budget.
//!
//! Estimates are **lower bounds on the destination container's resident
//! bytes** computed from a single `O(nnz)` pass over the input (distinct
//! diagonal count for DIA, max row population for ELL, plain nnz
//! otherwise). A DIA plan with a direct diagonal map (the default
//! membership) also counts the scratch it allocates first: the map's
//! presence and inverse arrays, one word each per possible diagonal
//! (`NR + NC - 1`), so a wide `1 × N` input with few nonzeros is weighed
//! by `N`, not by its tiny output. Search plans allocate no such map.
//! Likewise a plan that places nonzeros by counting allocates one cursor
//! per row (or column) plus one, so a tall hypersparse `N × 1` input
//! converted to sorted COO is weighed by `N` too.
//! Arithmetic saturates, so adversarial dimensions report `u64::MAX`
//! instead of wrapping past the budget.

use std::collections::HashSet;

use sparse_formats::{FormatDescriptor, FormatKind, MatrixRef, TensorRef};

const IDX: u64 = std::mem::size_of::<i64>() as u64; // one stored index
const VAL: u64 = std::mem::size_of::<f64>() as u64; // one stored value

/// Calls `f(i, j)` for every stored entry of `m`, total on *any* field
/// state: every array access is bounds-guarded, so a corrupt container
/// (validation disabled) yields a partial walk, never a panic.
fn for_each_coord(m: MatrixRef<'_>, mut f: impl FnMut(i64, i64)) {
    match m {
        MatrixRef::Coo(c) => {
            for (&i, &j) in c.row.iter().zip(&c.col) {
                f(i, j);
            }
        }
        MatrixRef::MortonCoo(mc) => {
            for (&i, &j) in mc.coo.row.iter().zip(&mc.coo.col) {
                f(i, j);
            }
        }
        MatrixRef::Csr(c) => {
            for w in 0..c.nr {
                let (Some(&s), Some(&e)) = (c.rowptr.get(w), c.rowptr.get(w + 1)) else {
                    return;
                };
                let (s, e) = (s.max(0) as usize, e.max(0) as usize);
                for &j in c.col.get(s..e.min(c.col.len())).unwrap_or(&[]) {
                    f(w as i64, j);
                }
            }
        }
        MatrixRef::Csc(c) => {
            for w in 0..c.nc {
                let (Some(&s), Some(&e)) = (c.colptr.get(w), c.colptr.get(w + 1)) else {
                    return;
                };
                let (s, e) = (s.max(0) as usize, e.max(0) as usize);
                for &i in c.row.get(s..e.min(c.row.len())).unwrap_or(&[]) {
                    f(i, w as i64);
                }
            }
        }
        MatrixRef::Dia(d) => {
            let nd = d.nd();
            for i in 0..d.nr {
                for (k, &o) in d.off.iter().enumerate() {
                    let j = i as i64 + o;
                    if j < 0 || j >= d.nc as i64 {
                        continue;
                    }
                    let occupied = i
                        .checked_mul(nd)
                        .and_then(|base| base.checked_add(k))
                        .and_then(|slot| d.data.get(slot))
                        .is_some_and(|&v| v != 0.0);
                    if occupied {
                        f(i as i64, j);
                    }
                }
            }
        }
        MatrixRef::Ell(e) => {
            for i in 0..e.nr {
                for s in 0..e.width {
                    let j = i
                        .checked_mul(e.width)
                        .and_then(|base| base.checked_add(s))
                        .and_then(|slot| e.col.get(slot))
                        .copied()
                        .unwrap_or(-1);
                    if j >= 0 {
                        f(i as i64, j);
                    }
                }
            }
        }
    }
}

/// Estimated resident bytes the container `dst`'s kind would
/// materialize for `input`, plus a direct diagonal map's scratch when the
/// plan builds one (`direct_map`) and a counting placement's cursors when
/// the plan buckets on dense dimension `bucket_dim`, with a short label
/// for error messages.
pub(crate) fn estimate_matrix_output_bytes(
    dst: &FormatDescriptor,
    direct_map: bool,
    bucket_dim: Option<usize>,
    input: MatrixRef<'_>,
) -> (&'static str, u64) {
    let (nr, nc) = input.dims();
    let nnz = {
        let mut n = 0u64;
        for_each_coord(input, |_, _| n += 1);
        n
    };
    let cursors = match bucket_dim {
        Some(d) => ([nr, nc][d] as u64).saturating_add(1).saturating_mul(IDX),
        None => 0,
    };
    let (what, bytes) = match dst.kind() {
        FormatKind::Dia => {
            // ND × NR data slots plus the offset array, and a direct
            // map's two arrays over the NR + NC - 1 possible diagonals.
            let mut diagonals = HashSet::new();
            for_each_coord(input, |i, j| {
                diagonals.insert(j - i);
            });
            let nd = diagonals.len() as u64;
            let data = nd.saturating_mul(nr as u64).saturating_mul(VAL).saturating_add(nd * IDX);
            let slots = (nr as u64).saturating_add(nc as u64).saturating_sub(1);
            let map = if direct_map { slots.saturating_mul(2 * IDX) } else { 0 };
            ("dia output", data.saturating_add(map))
        }
        FormatKind::Ell => {
            // NR × W col + data slots, W = max row population. Entries
            // with out-of-range rows are skipped outright: clamping a
            // negative index onto row 0 (as an earlier version did)
            // inflated row 0's population and with it the whole estimate,
            // causing spurious admission refusals on corrupt inputs that
            // validation would have rejected with a precise error.
            let mut counts = vec![0u64; nr];
            for_each_coord(input, |i, _| {
                if let Ok(i) = usize::try_from(i) {
                    if let Some(c) = counts.get_mut(i) {
                        *c += 1;
                    }
                }
            });
            let width = counts.iter().copied().max().unwrap_or(0);
            ("ell output", width.saturating_mul(nr as u64).saturating_mul(IDX + VAL))
        }
        FormatKind::Csr => ("csr output", compressed_bytes(nnz, nr)),
        FormatKind::Csc => ("csc output", compressed_bytes(nnz, nc)),
        // Coordinate destinations (and anything unrecognized, which the
        // dispatch layer will refuse anyway): row + col + val per entry.
        _ => ("coordinate output", nnz.saturating_mul(2 * IDX + VAL)),
    };
    (what, bytes.saturating_add(cursors))
}

/// A compressed layout's bytes: an index and a value per entry plus a
/// pointer array of `extent + 1` slots.
fn compressed_bytes(nnz: u64, extent: usize) -> u64 {
    let pointers = (extent as u64).saturating_add(1).saturating_mul(IDX);
    nnz.saturating_mul(IDX + VAL).saturating_add(pointers)
}

/// Tensor analogue of [`estimate_matrix_output_bytes`]: every shipped
/// order-3 destination is coordinate storage (three index arrays + data).
pub(crate) fn estimate_tensor_output_bytes(
    _dst: &FormatDescriptor,
    input: TensorRef<'_>,
) -> (&'static str, u64) {
    let nnz = match input {
        TensorRef::Coo3(t) => t.val.len() as u64,
        TensorRef::MortonCoo3(t) => t.coo.val.len() as u64,
    };
    ("coordinate tensor output", nnz.saturating_mul(3 * IDX + VAL))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_formats::descriptors;
    use sparse_formats::{CooMatrix, CsrMatrix};
    use sparse_synthesis::{synthesize, Membership, SynthesisOptions};

    /// An antidiagonal matrix: every nonzero on its own diagonal — the
    /// canonical DIA blow-up.
    fn antidiagonal(n: usize) -> CooMatrix {
        let row: Vec<i64> = (0..n as i64).collect();
        let col: Vec<i64> = (0..n as i64).rev().collect();
        let val = vec![1.0; n];
        CooMatrix::from_triplets(n, n, row, col, val).unwrap()
    }

    #[test]
    fn dia_estimate_scales_with_distinct_diagonals() {
        let m = antidiagonal(64);
        let (what, bytes) =
            estimate_matrix_output_bytes(&descriptors::dia(), true, None, MatrixRef::Coo(&m));
        assert_eq!(what, "dia output");
        // 64 diagonals × 64 rows × 8 bytes of data, plus offsets, plus the
        // map's two arrays over 127 possible diagonals.
        assert_eq!(bytes, 64 * 64 * 8 + 64 * 8 + 2 * 127 * 8);
        // A same-nnz tridiagonal-ish matrix is orders of magnitude smaller.
        let banded = CooMatrix::from_triplets(
            64,
            64,
            (0..64).collect(),
            (0..64).collect(),
            vec![1.0; 64],
        )
        .unwrap();
        let (_, small) =
            estimate_matrix_output_bytes(&descriptors::dia(), true, None, MatrixRef::Coo(&banded));
        assert_eq!(small, 64 * 8 + 8 + 2 * 127 * 8);
    }

    /// A wide `1 × N` input with two nonzeros has a two-diagonal output of
    /// 32 bytes, but the default plan's direct diagonal map spans all `N`
    /// possible diagonals; the estimate must carry those `2N` words, and a
    /// budget that fits the output alone must not admit it. A search plan
    /// allocates no map, and its estimate is the output alone.
    #[test]
    fn dia_estimate_counts_the_diagonal_map_on_wide_inputs() {
        let n = 1usize << 20;
        let wide = CooMatrix::from_triplets(1, n, vec![0, 0], vec![3, n as i64 - 1], vec![1.0; 2])
            .unwrap();
        let (dia, output) = (descriptors::dia(), 2 * 8 + 2 * 8);
        for membership in [Membership::Direct, Membership::Linear, Membership::Binary] {
            let options = SynthesisOptions { membership, ..SynthesisOptions::default() };
            let plan = synthesize(&descriptors::coo(), &dia, options).unwrap();
            let direct = plan.has_direct_map();
            assert_eq!(direct, membership == Membership::Direct);
            let (what, bytes) =
                estimate_matrix_output_bytes(&dia, direct, None, MatrixRef::Coo(&wide));
            assert_eq!(what, "dia output");
            if direct {
                assert_eq!(bytes, output + 2 * n as u64 * 8);
                assert!(bytes > 1000 * output);
            } else {
                assert_eq!(bytes, output, "{membership:?}");
            }
        }
    }

    /// A tall `N × 1` input with two nonzeros has a 48-byte sorted-COO
    /// output, but a CSC source's counting placement keeps one cursor per
    /// row, `N + 1` words; the estimate must carry them. Unordered COO
    /// keeps the sort and allocates no cursors.
    #[test]
    fn scoo_estimate_counts_the_cursors_on_tall_inputs() {
        let n = 1usize << 20;
        let tall = CooMatrix::from_triplets(n, 1, vec![3, n as i64 - 1], vec![0, 0], vec![1.0; 2])
            .unwrap();
        let csc = sparse_formats::CscMatrix::from_coo(&tall);
        let (scoo, output) = (descriptors::scoo(), 2 * 24);
        let (csc, tall) = (MatrixRef::Csc(&csc), MatrixRef::Coo(&tall));
        for (src, input) in [(descriptors::csc(), csc), (descriptors::coo(), tall)] {
            let plan = synthesize(&src, &scoo, SynthesisOptions::default()).unwrap();
            let bucket = plan.counter_bucket_dim();
            let (what, bytes) = estimate_matrix_output_bytes(&scoo, false, bucket, input);
            assert_eq!(what, "coordinate output");
            if src.name == "CSC" {
                assert_eq!(bucket, Some(0));
                assert_eq!(bytes, output + (n as u64 + 1) * 8);
                assert!(bytes > 1000 * output);
            } else {
                assert_eq!((bucket, bytes), (None, output), "{}", src.name);
            }
        }
    }

    #[test]
    fn ell_estimate_scales_with_max_row_population() {
        // One heavy row forces every row to its width.
        let m = CooMatrix::from_triplets(
            32,
            32,
            vec![0; 16],
            (0..16).collect(),
            vec![1.0; 16],
        )
        .unwrap();
        let (what, bytes) =
            estimate_matrix_output_bytes(&descriptors::ell(), false, None, MatrixRef::Coo(&m));
        assert_eq!(what, "ell output");
        assert_eq!(bytes, 16 * 32 * 16);
    }

    #[test]
    fn compressed_and_coordinate_estimates_follow_nnz() {
        let m = antidiagonal(10);
        let csr = CsrMatrix::from_coo(&m);
        let (_, bytes) =
            estimate_matrix_output_bytes(&descriptors::csc(), false, None, MatrixRef::Csr(&csr));
        assert_eq!(bytes, 10 * 16 + 11 * 8);
        let (_, bytes) =
            estimate_matrix_output_bytes(&descriptors::coo(), false, None, MatrixRef::Csr(&csr));
        assert_eq!(bytes, 10 * 24);
    }

    /// Regression: the ELL estimator used to clamp negative row indices
    /// onto row 0 (`i.max(0)`), inflating row 0's population and the
    /// whole width-based estimate. Out-of-range coordinates must be
    /// skipped, not relocated.
    #[test]
    fn ell_estimate_skips_out_of_range_rows() {
        // Two entries in row 1 set the true width to 2; three corrupt
        // entries with negative rows used to pile onto row 0 and push the
        // estimate to width 3.
        let mut m = CooMatrix::from_triplets(
            4,
            8,
            vec![1, 1, 2, 2, 2],
            vec![0, 1, 2, 3, 4],
            vec![1.0; 5],
        )
        .unwrap();
        m.row[2] = -1;
        m.row[3] = -7;
        m.row[4] = -2;
        let (what, bytes) =
            estimate_matrix_output_bytes(&descriptors::ell(), false, None, MatrixRef::Coo(&m));
        assert_eq!(what, "ell output");
        // width 2 × 4 rows × (8-byte col + 8-byte val) — the clamped
        // regime reported 3 × 4 × 16 = 192 instead.
        assert_eq!(bytes, 2 * 4 * 16);
        // Rows past the end are likewise skipped rather than miscounted.
        m.row[2] = 1_000;
        let (_, bytes) =
            estimate_matrix_output_bytes(&descriptors::ell(), false, None, MatrixRef::Coo(&m));
        assert_eq!(bytes, 2 * 4 * 16);
    }

    #[test]
    fn walker_is_total_on_corrupt_containers() {
        // Out-of-bounds rowptr windows must clamp the walk, not panic.
        // (The emitted coordinates are garbage — estimation quality on a
        // corrupt container is irrelevant; the engine validates first.)
        let mut csr = CsrMatrix::from_coo(&antidiagonal(8));
        csr.rowptr[3] = 1_000_000;
        let mut n = 0usize;
        for_each_coord(MatrixRef::Csr(&csr), |_, _| n += 1);
        // Every window is clamped to the col array, so the walk is
        // bounded by nr * col.len() even with absurd pointers.
        assert!(n <= 8 * 8);
    }
}
