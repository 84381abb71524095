//! Hand-optimized native conversion kernels.
//!
//! The interpreter ([`crate::interp`]) executes any synthesized plan; these
//! kernels are fused, allocation-minimal Rust implementations of the *hot*
//! conversion shapes — counting-sort COO→CSR/CSC, pointer-transpose
//! CSR↔CSC, pointer-expansion CSR/CSC→COO, and permutation sorts for
//! lexicographic / Morton reordering. They operate on raw index/value
//! slices so the container layer (`sparse-formats`) and the registry layer
//! (`sparse-synthesis`) can compose them without intermediate copies.
//!
//! Every kernel is *semantically pinned to the interpreter*: for identical
//! valid inputs it must produce bit-identical outputs to the synthesized
//! SPF-IR plan for the same conversion (the differential suite in
//! `sparse-synthesis` enforces this). In particular the permutation sorts
//! call `sort_keys`, the same packed-key sort (position tie-break
//! included) that [`crate::runtime::OrderedList`]'s `finalize` runs, so
//! their order is the interpreter's by construction.
//!
//! # Preconditions
//!
//! Kernels assume *validated* inputs (coordinates in-bounds, pointer
//! arrays monotone — what `sparse_formats::validate` establishes and the
//! engine requires before selecting a kernel). Out-of-range coordinates
//! panic via slice indexing rather than corrupt memory; callers that
//! cannot guarantee validation must not call these.
//!
//! # Allocation
//!
//! The conversion kernels allocate through [`reserve`], the interpreter's
//! checked helper, so an array too large to allocate is a typed
//! [`ExecError`] naming it (a 2^61-row CSR's `rowptr`), never a
//! capacity-overflow panic. Each takes the names of the arrays it builds.
//! The sort permutations, sized by an input array that is already
//! allocated, allocate directly.

use crate::interp::{reserve, ExecError};
use crate::runtime::{sort_keys, KeyOrder};

/// Compressed parts `(ptr, idx, val)`, or the error of the array that
/// could not be allocated.
pub type Parts = Result<(Vec<i64>, Vec<i64>, Vec<f64>), ExecError>;

/// `n` copies of `fill`, allocated through [`reserve`] as array `name`.
fn filled<T: Clone>(name: &str, n: Option<usize>, fill: T) -> Result<Vec<T>, ExecError> {
    let mut v = reserve(name, n)?;
    v.resize(n.unwrap_or_default(), fill);
    Ok(v)
}

/// Counting-sort a COO triplet stream into CSR parts
/// `(rowptr, col, val)` for an `nr`-row matrix, named `names`.
///
/// Single pass to histogram rows, prefix sum, scatter, then a per-row sort
/// by `(col, source position)` — skipped for rows whose columns already
/// arrive ascending (the common row-major-sorted input), so sorted inputs
/// convert in pure O(nnz).
///
/// # Errors
/// An [`ExecError`] naming the array that cannot be allocated.
pub fn coo_to_csr_parts(
    names: [&str; 3],
    nr: usize,
    row: &[i64],
    col: &[i64],
    val: &[f64],
) -> Parts {
    let nnz = row.len();
    let mut rowptr = filled(names[0], nr.checked_add(1), 0i64)?;
    for &r in row {
        rowptr[r as usize + 1] += 1;
    }
    for i in 0..nr {
        rowptr[i + 1] += rowptr[i];
    }
    // Scatter source positions into row segments, preserving input order
    // within each row (the counting sort is stable).
    let mut next = reserve("P", Some(nr))?;
    next.extend_from_slice(&rowptr[..nr]);
    let mut perm = filled("perm", Some(nnz), 0usize)?;
    for (p, &r) in row.iter().enumerate() {
        let slot = &mut next[r as usize];
        perm[*slot as usize] = p;
        *slot += 1;
    }
    // Per-row column sort; position tie-break keeps duplicate columns in
    // input order, matching the interpreter's stable OrderedList ranks.
    for r in 0..nr {
        let (lo, hi) = (rowptr[r] as usize, rowptr[r + 1] as usize);
        let seg = &mut perm[lo..hi];
        if !seg.windows(2).all(|w| col[w[0]] <= col[w[1]]) {
            seg.sort_unstable_by_key(|&p| (col[p], p));
        }
    }
    let (out_col, out_val) = (permute(names[1], col, &perm)?, permute(names[2], val, &perm)?);
    Ok((rowptr, out_col, out_val))
}

/// Transposes CSR parts into CSC parts `(colptr, row, val)`, named
/// `names` — or, by role symmetry, CSC parts into CSR parts.
///
/// The row-major scan scatters entries into column buckets in row order,
/// so each output column's rows arrive already ascending: no secondary
/// sort is needed, giving O(nnz + nr + nc) with perfect output order.
///
/// # Errors
/// An [`ExecError`] naming the array that cannot be allocated.
pub fn csr_to_csc_parts(
    names: [&str; 3],
    nr: usize,
    nc: usize,
    rowptr: &[i64],
    col: &[i64],
    val: &[f64],
) -> Parts {
    let nnz = col.len();
    let mut colptr = filled(names[0], nc.checked_add(1), 0i64)?;
    for &c in col {
        colptr[c as usize + 1] += 1;
    }
    for j in 0..nc {
        colptr[j + 1] += colptr[j];
    }
    let mut next = reserve("P", Some(nc))?;
    next.extend_from_slice(&colptr[..nc]);
    let mut out_row = filled(names[1], Some(nnz), 0i64)?;
    let mut out_val = filled(names[2], Some(nnz), 0f64)?;
    for r in 0..nr {
        let (lo, hi) = (rowptr[r] as usize, rowptr[r + 1] as usize);
        for p in lo..hi {
            let slot = &mut next[col[p] as usize];
            out_row[*slot as usize] = r as i64;
            out_val[*slot as usize] = val[p];
            *slot += 1;
        }
    }
    Ok((colptr, out_row, out_val))
}

/// Expands a compressed pointer array (`rowptr`/`colptr`) into the
/// per-entry major coordinate, named `name` — the only work in CSR→COO /
/// CSC→COO since the minor coordinate and values carry over verbatim.
///
/// # Errors
/// An [`ExecError`] naming `name` when it cannot be allocated.
pub fn expand_ptr(name: &str, ptr: &[i64]) -> Result<Vec<i64>, ExecError> {
    let n = ptr.len().saturating_sub(1);
    let nnz = ptr.last().copied().unwrap_or(0).max(0) as usize;
    let mut out = reserve(name, Some(nnz))?;
    for i in 0..n {
        let (lo, hi) = (ptr[i], ptr[i + 1]);
        out.resize(out.len() + (hi - lo).max(0) as usize, i as i64);
    }
    Ok(out)
}

/// `src` gathered through `perm` into a new array named `name`.
///
/// # Errors
/// An [`ExecError`] naming `name` when it cannot be allocated.
pub fn permute<T: Copy>(name: &str, src: &[T], perm: &[usize]) -> Result<Vec<T>, ExecError> {
    let mut out = reserve(name, Some(perm.len()))?;
    out.extend(perm.iter().map(|&p| src[p]));
    Ok(out)
}

/// Returns the permutation sorting entries lexicographically by
/// `(row, col)` — the COO "sorted row-major" order. This is
/// `sort_keys`, the packed-key sort `OrderedList::finalize` runs, so
/// the order is the interpreter's by construction.
pub fn lex_sort_perm(row: &[i64], col: &[i64]) -> Vec<usize> {
    let mut perm = Vec::with_capacity(row.len());
    let cols = [row, col];
    sort_keys(row.len(), 2, KeyOrder::Lexicographic, |p, d| cols[d][p], |p, _| perm.push(p));
    perm
}

/// Returns the permutation sorting entries into Morton (Z-curve) order
/// over the given coordinate columns (one slice per dimension, equal
/// lengths, at most
/// [`MAX_KEY_WIDTH`](crate::runtime::MAX_KEY_WIDTH) of them).
///
/// This is `sort_keys`, the packed-key sort `OrderedList::finalize`
/// runs for Morton lists, so the order is the interpreter's by
/// construction.
pub fn morton_sort_perm(dims: &[&[i64]]) -> Vec<usize> {
    let n = dims.first().map_or(0, |d| d.len());
    let mut perm = Vec::with_capacity(n);
    sort_keys(n, dims.len(), KeyOrder::Morton, |p, d| dims[d][p], |p, _| perm.push(p));
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morton::morton_cmp;

    const NAMES: [&str; 3] = ["ptr", "idx", "val"];

    /// A pointer array too large to allocate is a typed error naming it.
    #[test]
    fn oversized_pointer_arrays_are_typed_errors() {
        let overflow = |name: &str| Err(ExecError::AllocOverflow { name: name.into() });
        let (idx, val) = ([0i64], [1.0]);
        assert_eq!(coo_to_csr_parts(NAMES, 1 << 61, &idx, &idx, &val), overflow("ptr"));
        assert_eq!(coo_to_csr_parts(NAMES, usize::MAX, &idx, &idx, &val), overflow("ptr"));
        assert_eq!(csr_to_csc_parts(NAMES, 1, 1 << 61, &[0, 1], &idx, &val), overflow("ptr"));
    }

    #[test]
    fn coo_to_csr_sorts_within_rows() {
        // (row, col, val): shuffled, with an empty row 1.
        let row = [2i64, 0, 2, 0, 3];
        let col = [3i64, 1, 0, 0, 2];
        let val = [1.0, 2.0, 3.0, 4.0, 5.0];
        let (rowptr, c, v) = coo_to_csr_parts(NAMES, 4, &row, &col, &val).unwrap();
        assert_eq!(rowptr, vec![0, 2, 2, 4, 5]);
        assert_eq!(c, vec![0, 1, 0, 3, 2]);
        assert_eq!(v, vec![4.0, 2.0, 3.0, 1.0, 5.0]);
    }

    #[test]
    fn coo_to_csr_sorted_fast_path_is_identity() {
        let row = [0i64, 0, 1, 2];
        let col = [0i64, 2, 1, 0];
        let val = [1.0, 2.0, 3.0, 4.0];
        let (rowptr, c, v) = coo_to_csr_parts(NAMES, 3, &row, &col, &val).unwrap();
        assert_eq!(rowptr, vec![0, 2, 3, 4]);
        assert_eq!(c, col.to_vec());
        assert_eq!(v, val.to_vec());
    }

    #[test]
    fn transpose_round_trips() {
        // 3x4: entries (0,1)=1 (0,3)=2 (1,0)=3 (2,1)=4 (2,2)=5.
        let rowptr = [0i64, 2, 3, 5];
        let col = [1i64, 3, 0, 1, 2];
        let val = [1.0, 2.0, 3.0, 4.0, 5.0];
        let (colptr, r, v) = csr_to_csc_parts(NAMES, 3, 4, &rowptr, &col, &val).unwrap();
        assert_eq!(colptr, vec![0, 1, 3, 4, 5]);
        assert_eq!(r, vec![1, 0, 2, 2, 0]);
        assert_eq!(v, vec![3.0, 1.0, 4.0, 5.0, 2.0]);
        // Transposing back recovers the original.
        let (rp2, c2, v2) = csr_to_csc_parts(NAMES, 4, 3, &colptr, &r, &v).unwrap();
        assert_eq!(rp2, rowptr.to_vec());
        assert_eq!(c2, col.to_vec());
        assert_eq!(v2, val.to_vec());
    }

    #[test]
    fn expand_ptr_repeats_majors() {
        assert_eq!(expand_ptr("row", &[0, 2, 2, 5]).unwrap(), vec![0, 0, 2, 2, 2]);
        assert_eq!(expand_ptr("row", &[0]).unwrap(), Vec::<i64>::new());
        assert_eq!(expand_ptr("row", &[]).unwrap(), Vec::<i64>::new());
    }

    #[test]
    fn lex_perm_matches_stable_sort() {
        let row = [1i64, 0, 1, 0, 1];
        let col = [0i64, 1, 1, 0, 0];
        let perm = lex_sort_perm(&row, &col);
        let mut want: Vec<usize> = (0..5).collect();
        want.sort_by_key(|&p| (row[p], col[p]));
        assert_eq!(perm, want);
    }

    #[test]
    fn morton_perm_matches_comparator_sort() {
        let i0 = [3i64, 0, 2, 1, 3, 0];
        let i1 = [1i64, 2, 2, 0, 1, 0];
        let perm = morton_sort_perm(&[&i0, &i1]);
        let mut want: Vec<usize> = (0..6).collect();
        want.sort_by(|&a, &b| morton_cmp(&[i0[a], i1[a]], &[i0[b], i1[b]]));
        assert_eq!(perm, want);
    }

    #[test]
    fn morton_perm_empty_and_single() {
        assert_eq!(morton_sort_perm(&[&[], &[]]), Vec::<usize>::new());
        assert_eq!(morton_sort_perm(&[&[7], &[3]]), vec![0]);
    }
}
