//! Differential oracle over every executable catalog pair: the engine's
//! interpreter path (`Engine::new()`) must produce exactly what the
//! containers' reference conversions (`CsrMatrix::from_coo`,
//! `DiaMatrix::from_coo`, `MortonCoo3Tensor::from_coo3`, …) build from
//! the same entries.
//!
//! The pair set is the one the engine benchmark converts: 6 matrix
//! sources × 6 matrix destinations and the three order-3 tensor formats,
//! without same-name pairs (31 + 6 = 37). Inputs are `sparse_matgen`
//! matrices (uniform random and power-law rows, plus banded ones for DIA
//! destinations, and skewed tensors) and the structural edge cases the
//! kernel differential suite uses: empty, `0×N`, `N×0`, all-empty rows
//! and dense rows, non-square shapes holding both corner diagonals (the
//! ends of DIA's direct map), and an ELL input that is all padding.
//!
//! The interpreter runs loops a chunk of [`CHUNK`] iterations at a time,
//! so each family also gets inputs that span several chunks: more than
//! three chunks of entries, a row longer than a chunk, rows and ELL
//! padding whose ends straddle chunk boundaries, a banded DIA case and a
//! skewed tensor of the same size.

use sparse_engine::Engine;
use sparse_formats::descriptors as d;
use sparse_formats::{
    AnyMatrix, AnyTensor, Coo3Tensor, CooMatrix, CscMatrix, CsrMatrix, DiaMatrix, EllMatrix,
    FormatDescriptor, FormatKind, MortonCoo3Tensor, MortonCooMatrix,
};
use sparse_matgen::generators::{banded, power_law, random_uniform, skewed_tensor};

/// Every ordered pair the engine benchmark converts. Same-family
/// descriptors share UF names, so such destinations are alpha-renamed.
fn pairs() -> Vec<(FormatDescriptor, FormatDescriptor)> {
    let matrix_src = [d::coo(), d::scoo(), d::csr(), d::csc(), d::mcoo(), d::ell()];
    let matrix_dst = [d::coo(), d::scoo(), d::csr(), d::csc(), d::dia(), d::mcoo()];
    let tensor = [d::coo3(), d::scoo3(), d::mcoo3()];
    let mut out = Vec::new();
    for (sources, dests) in [(&matrix_src[..], &matrix_dst[..]), (&tensor[..], &tensor[..])] {
        for src in sources {
            for dst in dests.iter().filter(|dst| dst.name != src.name) {
                let clash = src.uf_names().iter().any(|n| dst.uf_names().contains(n));
                let dst = if clash { dst.with_suffix("_v") } else { dst.clone() };
                out.push((src.clone(), dst));
            }
        }
    }
    out
}

/// A row-major sorted matrix from `(row, col)` coordinates, valued
/// `1, 2, 3, …` in coordinate order.
fn matrix(nr: usize, nc: usize, row: Vec<i64>, col: Vec<i64>) -> CooMatrix {
    let val = (0..row.len()).map(|k| k as f64 + 1.0).collect();
    let mut m = CooMatrix::from_triplets(nr, nc, row, col, val).unwrap();
    m.sort_row_major();
    m
}

fn matrix_edge_cases() -> Vec<CooMatrix> {
    vec![
        // Entirely empty; 0×N, N×0 and 0×0.
        matrix(4, 4, vec![], vec![]),
        matrix(0, 7, vec![], vec![]),
        matrix(7, 0, vec![], vec![]),
        matrix(0, 0, vec![], vec![]),
        // Single entry in the last slot.
        matrix(3, 3, vec![2], vec![2]),
        // Empty rows between occupied ones.
        matrix(6, 4, vec![0, 0, 3, 5], vec![1, 3, 0, 2]),
        // One fully dense row amid empty ones.
        matrix(5, 6, vec![2; 6], (0..6).collect()),
        // Dense single column; 1×N dense row; N×1 dense column.
        matrix(6, 3, (0..6).collect(), vec![1; 6]),
        matrix(1, 8, vec![0; 8], (0..8).collect()),
        matrix(8, 1, (0..8).collect(), vec![0; 8]),
        // Both corner diagonals, (NR-1, 0) and (0, NC-1), wide and tall:
        // the first and last slots of DIA's diagonal map.
        matrix(5, 9, vec![0, 2, 4], vec![8, 3, 0]),
        matrix(9, 4, vec![0, 5, 8], vec![3, 0, 0]),
    ]
}

/// Iterations per chunk of the interpreter's chunked loops.
const CHUNK: usize = 256;

/// Inputs that span several chunks (see the module docs).
fn matrix_multi_chunk(dst: &FormatDescriptor) -> Vec<CooMatrix> {
    let many = random_uniform(150, 120, 900, 11);
    assert!(many.nnz() > 3 * CHUNK, "{} entries", many.nnz());
    // Row 2 holds 300 entries; the rows around it hold a few.
    let (mut row, mut col) = (vec![2; 300], (0..300).collect::<Vec<i64>>());
    for i in [0, 1, 3, 5] {
        row.extend([i, i]);
        col.extend([7 * i, 299 - i]);
    }
    let long_row = matrix(6, 320, row, col);
    // Rows of 7, 3, 0, 5 and 1 entries: 256 is no multiple of any row
    // length or of the ELL width 7, so row ends and padding straddle
    // every chunk boundary, and the columns' lengths vary as well.
    let (mut row, mut col) = (Vec::new(), Vec::new());
    for i in 0..170i64 {
        let len = [7, 3, 0, 5, 1][i as usize % 5];
        row.extend(std::iter::repeat_n(i, len));
        col.extend((0..len as i64).map(|k| (i * 3 + k * 11) % 40));
    }
    let ragged = matrix(170, 40, row, col);
    let mut out = vec![many, long_row, ragged];
    if dst.kind() == FormatKind::Dia {
        let band = banded(200, &[-7, -1, 0, 2, 9], 0.9, 11);
        assert!(band.nnz() > 3 * CHUNK, "{} entries", band.nnz());
        out.push(band);
    }
    out
}

fn matrix_inputs(dst: &FormatDescriptor) -> Vec<CooMatrix> {
    let mut out = matrix_edge_cases();
    for seed in 0..3 {
        out.push(random_uniform(40, 30, 220, seed));
        out.push(power_law(50, 20, 260, seed));
        if dst.kind() == FormatKind::Dia {
            out.push(banded(40, &[-7, -1, 0, 2, 9], 0.8, seed));
        }
    }
    out.extend(matrix_multi_chunk(dst));
    out
}

/// A row-major sorted tensor from coordinates, valued like [`matrix`].
fn tensor(dims: (usize, usize, usize), coords: &[[i64; 3]]) -> Coo3Tensor {
    let axis = |a: usize| coords.iter().map(|c| c[a]).collect();
    let val = (0..coords.len()).map(|k| k as f64 + 1.0).collect();
    let mut t = Coo3Tensor::from_coords(dims, axis(0), axis(1), axis(2), val).unwrap();
    t.sort_by(|a, b| a.cmp(b));
    t
}

fn tensor_inputs() -> Vec<Coo3Tensor> {
    let fiber: Vec<[i64; 3]> = (0..6).map(|k| [1, 2, k]).collect();
    let mut out = vec![
        tensor((3, 4, 5), &[]),
        tensor((0, 5, 5), &[]),
        tensor((5, 0, 5), &[]),
        tensor((5, 5, 0), &[]),
        tensor((4, 4, 4), &[[3, 3, 3]]),
        // Every entry in the last slice; one fully dense fiber.
        tensor((4, 3, 2), &[[3, 0, 1], [3, 2, 0], [3, 2, 1]]),
        tensor((3, 4, 6), &fiber),
    ];
    for seed in 0..3 {
        out.push(skewed_tensor((16, 12, 10), 200, seed));
    }
    let many = skewed_tensor((40, 30, 20), 900, 11);
    assert!(many.nnz() > 3 * CHUNK, "{} entries", many.nnz());
    out.push(many);
    out
}

/// A seeded Fisher–Yates permutation of `0..n`, so unordered sources
/// arrive scrambled and the permutation path does real work.
fn shuffle(n: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for i in (1..n).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        perm.swap(i, (state >> 33) as usize % (i + 1));
    }
    perm
}

/// `base` in the container `src` calls for.
fn matrix_source(src: &FormatDescriptor, base: &CooMatrix, seed: u64) -> AnyMatrix {
    match src.kind() {
        FormatKind::Coo => {
            let mut m = base.clone();
            m.permute(&shuffle(m.nnz(), seed));
            AnyMatrix::Coo(m)
        }
        FormatKind::SortedCoo => AnyMatrix::Coo(base.clone()),
        FormatKind::MortonCoo => AnyMatrix::MortonCoo(MortonCooMatrix::from_coo(base)),
        FormatKind::Csr => AnyMatrix::Csr(CsrMatrix::from_coo(base)),
        FormatKind::Csc => AnyMatrix::Csc(CscMatrix::from_coo(base)),
        FormatKind::Ell => AnyMatrix::Ell(EllMatrix::from_coo(base)),
        kind => panic!("{} is not a matrix source ({kind:?})", src.name),
    }
}

fn tensor_source(src: &FormatDescriptor, base: &Coo3Tensor, seed: u64) -> AnyTensor {
    match src.kind() {
        FormatKind::Coo3 if src.order.is_none() => {
            let mut t = base.clone();
            t.permute(&shuffle(t.nnz(), seed));
            AnyTensor::Coo3(t)
        }
        FormatKind::Coo3 => AnyTensor::Coo3(base.clone()),
        FormatKind::MortonCoo3 => AnyTensor::MortonCoo3(MortonCoo3Tensor::from_coo3(base)),
        kind => panic!("{} is not a tensor source ({kind:?})", src.name),
    }
}

/// Extents plus the sorted `(coordinates, value bits)` list: how an
/// unordered destination is compared.
type Entries = (Vec<usize>, Vec<([i64; 3], u64)>);

fn matrix_entries(m: &CooMatrix) -> Entries {
    let mut entries: Vec<_> = m.iter().map(|(i, j, v)| ([i, j, 0], v.to_bits())).collect();
    entries.sort_unstable();
    (vec![m.nr, m.nc], entries)
}

fn tensor_entries(t: &Coo3Tensor) -> Entries {
    let mut entries: Vec<_> = t.iter().map(|(c, v)| (c, v.to_bits())).collect();
    entries.sort_unstable();
    (vec![t.nr, t.nc, t.nz], entries)
}

/// Checks one matrix conversion against the reference built from `base`.
fn check_matrix(dst: &FormatDescriptor, base: &CooMatrix, out: &AnyMatrix, case: &str) {
    let expected = match dst.kind() {
        FormatKind::Coo => {
            let AnyMatrix::Coo(got) = out else { panic!("{case}: COO output expected") };
            assert_eq!(matrix_entries(got), matrix_entries(base), "{case}");
            return;
        }
        FormatKind::SortedCoo => AnyMatrix::Coo(base.clone()),
        FormatKind::MortonCoo => AnyMatrix::MortonCoo(MortonCooMatrix::from_coo(base)),
        FormatKind::Csr => AnyMatrix::Csr(CsrMatrix::from_coo(base)),
        FormatKind::Csc => AnyMatrix::Csc(CscMatrix::from_coo(base)),
        FormatKind::Dia => AnyMatrix::Dia(DiaMatrix::from_coo(base)),
        kind => panic!("{case}: no reference for {kind:?}"),
    };
    assert!(*out == expected, "{case}: got {out:?}, expected {expected:?}");
}

fn check_tensor(dst: &FormatDescriptor, base: &Coo3Tensor, out: &AnyTensor, case: &str) {
    let expected = match dst.kind() {
        FormatKind::Coo3 if dst.order.is_none() => {
            let AnyTensor::Coo3(got) = out else { panic!("{case}: COO3 output expected") };
            assert_eq!(tensor_entries(got), tensor_entries(base), "{case}");
            return;
        }
        FormatKind::Coo3 => AnyTensor::Coo3(base.clone()),
        FormatKind::MortonCoo3 => AnyTensor::MortonCoo3(MortonCoo3Tensor::from_coo3(base)),
        kind => panic!("{case}: no reference for {kind:?}"),
    };
    assert!(*out == expected, "{case}: got {out:?}, expected {expected:?}");
}

/// An ELL container whose every slot is padding converts to an empty
/// matrix of its shape on every destination: the compaction counter
/// never advances and DIA's presence map stays clear.
#[test]
fn all_padding_ell_converts_to_empty_on_every_destination() {
    let engine = Engine::new();
    let ell = EllMatrix { nr: 3, nc: 5, width: 2, col: vec![-1; 6], data: vec![0.0; 6] };
    let empty = matrix(3, 5, vec![], vec![]);
    let input = AnyMatrix::Ell(ell);
    for (src, dst) in pairs().iter().filter(|(src, _)| src.kind() == FormatKind::Ell) {
        let case = format!("{} -> {} [all padding]", src.name, dst.name);
        let out = engine
            .convert(src, dst, &input)
            .unwrap_or_else(|e| panic!("{case}: conversion failed: {e}"));
        check_matrix(dst, &empty, &out, &case);
    }
}

#[test]
fn interpreter_matches_reference_conversions_on_all_pairs() {
    let engine = Engine::new();
    let pairs = pairs();
    assert_eq!(pairs.len(), 37, "31 matrix pairs and 6 tensor pairs");
    let tensors = tensor_inputs();
    let mut checked = 0u64;
    for (src, dst) in &pairs {
        if src.rank == 2 {
            for (k, base) in matrix_inputs(dst).iter().enumerate() {
                let case = format!("{} -> {} [input {k}]", src.name, dst.name);
                let input = matrix_source(src, base, k as u64 + 1);
                let out = engine
                    .convert(src, dst, &input)
                    .unwrap_or_else(|e| panic!("{case}: conversion failed: {e}"));
                check_matrix(dst, base, &out, &case);
                checked += 1;
            }
        } else {
            for (k, base) in tensors.iter().enumerate() {
                let case = format!("{} -> {} [input {k}]", src.name, dst.name);
                let input = tensor_source(src, base, k as u64 + 1);
                let out = engine
                    .convert_tensor(src, dst, &input)
                    .unwrap_or_else(|e| panic!("{case}: conversion failed: {e}"));
                check_tensor(dst, base, &out, &case);
                checked += 1;
            }
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.conversions, checked);
    assert_eq!(stats.interp_fallbacks, checked, "Engine::new() always interprets");
}
