//! What the benchmark converts: every ordered catalog pair the engine can
//! execute, seeded inputs for each, and the reference every output is
//! checked against.

use sparse_formats::descriptors as d;
use sparse_formats::{
    AnyMatrix, AnyTensor, Coo3Tensor, CooMatrix, CscMatrix, CsrMatrix, EllMatrix, FormatDescriptor,
    FormatKind, MortonCoo3Tensor, MortonCooMatrix,
};
use sparse_matgen::generators::{banded, random_uniform, skewed_tensor, spread_offsets};

/// One `(source, destination)` descriptor pair.
pub struct Pair {
    pub src: FormatDescriptor,
    pub dst: FormatDescriptor,
}

/// Every ordered catalog pair that synthesizes and has a runtime
/// container on both ends: 31 matrix pairs and 6 order-3 tensor pairs.
/// DIA has no conversion scan (it stores padding), so it is only a
/// destination; ELL's padded width is not produced by the inspector, so
/// it is only a source.
pub fn pairs() -> Vec<Pair> {
    let matrix_src = [d::coo(), d::scoo(), d::csr(), d::csc(), d::mcoo(), d::ell()];
    let matrix_dst = [d::coo(), d::scoo(), d::csr(), d::csc(), d::dia(), d::mcoo()];
    let tensor = [d::coo3(), d::scoo3(), d::mcoo3()];
    let mut out = Vec::new();
    for (sources, dests) in [(&matrix_src[..], &matrix_dst[..]), (&tensor[..], &tensor[..])] {
        for src in sources {
            for dst in dests {
                if src.name == dst.name {
                    continue;
                }
                // Same-family descriptors share UF names; the destination
                // is alpha-renamed, as the conversion layer expects.
                let dst = if src.uf_names().iter().any(|n| dst.uf_names().contains(n)) {
                    dst.with_suffix("_v")
                } else {
                    dst.clone()
                };
                out.push(Pair { src: src.clone(), dst });
            }
        }
    }
    out
}

/// A conversion input.
pub enum Input {
    Matrix(AnyMatrix),
    Tensor(AnyTensor),
}

/// A conversion output.
#[derive(PartialEq)]
pub enum Output {
    Matrix(AnyMatrix),
    Tensor(AnyTensor),
}

/// One input of one pair, with the canonical content its output must have.
pub struct Case {
    pub pair: usize,
    pub input: Input,
    pub nnz: u64,
    pub expect: Canon,
    /// One key per stored entry (its value's bits, in coordinate order):
    /// the input of the reference sort.
    pub sort_keys: Vec<u64>,
}

/// Builds `variants` inputs per pair from `seed`, grouped by variant:
/// `cases[v * pairs.len() + p]` is variant `v` of pair `p`.
///
/// Matrices are `n × n` with about 8 stored entries per row: uniform
/// random, except banded (9 diagonals) for DIA destinations so the
/// diagonal layout stays small. Tensors are skewed `(n/4)³` with `8n`
/// requested entries.
pub fn generate(pairs: &[Pair], n: usize, variants: usize, seed: u64) -> Vec<Case> {
    let mut cases = Vec::with_capacity(pairs.len() * variants);
    for v in 0..variants {
        for (p, pair) in pairs.iter().enumerate() {
            let s = mix(seed, (v * pairs.len() + p) as u64);
            let (input, expect) = if pair.src.rank == 2 {
                let base = if pair.dst.kind() == FormatKind::Dia {
                    banded(n, &spread_offsets(9, (n / 8) as i64), 0.9, s)
                } else {
                    random_uniform(n, n, 8 * n, s)
                };
                let input = matrix_input(&pair.src, &base, s);
                (Input::Matrix(input), Canon::of_coo(&base))
            } else {
                let dim = (n / 4).max(16);
                let base = skewed_tensor((dim, dim, dim), 8 * n, s);
                let input = tensor_input(&pair.src, &base, s);
                (Input::Tensor(input), Canon::of_coo3(&base))
            };
            let nnz = expect.entries.len() as u64;
            let sort_keys = expect.entries.iter().map(|e| e.1).collect();
            cases.push(Case { pair: p, input, nnz, expect, sort_keys });
        }
    }
    cases
}

/// Presents a row-major sorted matrix in the source descriptor's container
/// (shuffled for unordered COO, so the permutation path does real work).
fn matrix_input(src: &FormatDescriptor, base: &CooMatrix, seed: u64) -> AnyMatrix {
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
        kind => unreachable!("{} is not a matrix source ({kind:?})", src.name),
    }
}

/// Order-3 analogue of [`matrix_input`].
fn tensor_input(src: &FormatDescriptor, base: &Coo3Tensor, seed: u64) -> AnyTensor {
    match src.kind() {
        FormatKind::Coo3 if src.order.is_some() => AnyTensor::Coo3(base.clone()),
        FormatKind::Coo3 => {
            let mut t = base.clone();
            t.permute(&shuffle(t.nnz(), seed));
            AnyTensor::Coo3(t)
        }
        FormatKind::MortonCoo3 => AnyTensor::MortonCoo3(MortonCoo3Tensor::from_coo3(base)),
        kind => unreachable!("{} is not a tensor source ({kind:?})", src.name),
    }
}

/// A seeded Fisher–Yates permutation of `0..n`.
fn shuffle(n: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = mix(state, i as u64);
        perm.swap(i, (state % (i as u64 + 1)) as usize);
    }
    perm
}

/// SplitMix64 of `seed` and `salt`: independent per-input seeds.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Container-independent content: extents plus the sorted list of
/// `(coordinates, value bits)`, so outputs compare bit-exactly.
#[derive(PartialEq, Eq)]
pub struct Canon {
    dims: [usize; 3],
    entries: Vec<([i64; 3], u64)>,
}

impl Canon {
    fn of_coo(m: &CooMatrix) -> Canon {
        let mut entries: Vec<_> = m.iter().map(|(i, j, v)| ([i, j, 0], v.to_bits())).collect();
        entries.sort_unstable();
        Canon { dims: [m.nr, m.nc, 1], entries }
    }

    fn of_coo3(t: &Coo3Tensor) -> Canon {
        let mut entries: Vec<_> = t.iter().map(|(c, v)| (c, v.to_bits())).collect();
        entries.sort_unstable();
        Canon { dims: [t.nr, t.nc, t.nz], entries }
    }

    fn of_output(out: &Output) -> Canon {
        match out {
            Output::Matrix(AnyMatrix::Coo(m)) => Canon::of_coo(m),
            Output::Matrix(AnyMatrix::MortonCoo(m)) => Canon::of_coo(&m.coo),
            Output::Matrix(AnyMatrix::Csr(m)) => Canon::of_coo(&m.to_coo()),
            Output::Matrix(AnyMatrix::Csc(m)) => Canon::of_coo(&m.to_coo()),
            Output::Matrix(AnyMatrix::Dia(m)) => Canon::of_coo(&m.to_coo()),
            Output::Matrix(AnyMatrix::Ell(m)) => Canon::of_coo(&m.to_coo()),
            Output::Tensor(AnyTensor::Coo3(t)) => Canon::of_coo3(t),
            Output::Tensor(AnyTensor::MortonCoo3(t)) => Canon::of_coo3(&t.coo),
        }
    }
}

/// Whether `out` holds exactly the case's entries, in the container the
/// destination calls for, in the destination's order where it has one
/// (Morton order is checked by the extractor itself).
pub fn output_ok(dst: &FormatDescriptor, case: &Case, out: &Output) -> bool {
    let shape_ok = match (dst.kind(), out) {
        (FormatKind::Coo, Output::Matrix(AnyMatrix::Coo(_))) => true,
        (FormatKind::SortedCoo, Output::Matrix(AnyMatrix::Coo(m))) => m.is_sorted_row_major(),
        (FormatKind::MortonCoo, Output::Matrix(AnyMatrix::MortonCoo(_))) => true,
        (FormatKind::Csr, Output::Matrix(AnyMatrix::Csr(_))) => true,
        (FormatKind::Csc, Output::Matrix(AnyMatrix::Csc(_))) => true,
        (FormatKind::Dia, Output::Matrix(AnyMatrix::Dia(_))) => true,
        (FormatKind::Coo3, Output::Tensor(AnyTensor::Coo3(t))) => {
            dst.order.is_none() || is_sorted_lex(t)
        }
        (FormatKind::MortonCoo3, Output::Tensor(AnyTensor::MortonCoo3(_))) => true,
        _ => false,
    };
    shape_ok && Canon::of_output(out) == case.expect
}

fn is_sorted_lex(t: &Coo3Tensor) -> bool {
    let key = |k: usize| (t.i0[k], t.i1[k], t.i2[k]);
    (1..t.nnz()).all(|k| key(k - 1) <= key(k))
}
