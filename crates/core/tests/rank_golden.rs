//! Golden outputs of the SPF-IR interpreter on inputs with duplicate
//! coordinates.
//!
//! A permutation `P` gives every copy of a duplicated key the rank of its
//! first occurrence, so duplicates collapse onto one destination slot and
//! the slots they would have filled keep their initial values. The kernel
//! backend declines such inputs and falls back to the interpreter, so this
//! collapse is observable behaviour. The expected strings below were
//! captured from the interpreter when `OrderedList` still sorted with a
//! stable comparator sort and answered `rank` from a hash index; any
//! change to how ranks are computed must reproduce them exactly.
//!
//! Two plans rank without a list. ELL→COO numbers the scanned entries
//! with a compaction counter, so each copy of a duplicate takes its own
//! slot (ELL validation rejects such inputs before any plan runs). COO→DIA
//! marks the diagonals it sees in a presence array `M_off` and numbers
//! them in an ascending sweep (`C_off`, `d_of`), so a repeated diagonal is
//! marked once.

use std::fmt::Write as _;

use sparse_formats::descriptors as d;
use sparse_formats::{
    AnyMatrix, AnyTensor, Coo3Tensor, CooMatrix, EllMatrix, FormatDescriptor, MatrixRef, TensorRef,
};
use sparse_synthesis::{bind_matrix, bind_tensor, Conversion, SynthesisOptions};
use spf_codegen::runtime::RtEnv;

fn conversion(src: &FormatDescriptor, dst: &FormatDescriptor) -> Conversion {
    Conversion::new(src, dst, SynthesisOptions::default())
        .unwrap_or_else(|e| panic!("{} -> {}: {e}", src.name, dst.name))
}

/// Every symbol, index array and data array the inspector left in the
/// environment, one per line in name order.
fn dump(env: &RtEnv<'_>) -> String {
    let mut out = String::new();
    for (k, v) in &env.syms {
        writeln!(out, "{k} = {v}").unwrap();
    }
    for (k, v) in &env.ufs {
        writeln!(out, "{k} = {:?}", &v[..]).unwrap();
    }
    for (k, v) in &env.data {
        writeln!(out, "{k} = {:?}", &v[..]).unwrap();
    }
    out
}

fn run_matrix(src: FormatDescriptor, dst: FormatDescriptor, m: &AnyMatrix) -> String {
    let conv = conversion(&src, &dst);
    let mut env = RtEnv::new();
    bind_matrix(&mut env, &src, MatrixRef::from(m)).unwrap();
    conv.execute_env_quiet(&mut env).unwrap();
    dump(&env)
}

fn run_tensor(src: FormatDescriptor, dst: FormatDescriptor, t: &AnyTensor) -> String {
    let conv = conversion(&src, &dst);
    let mut env = RtEnv::new();
    bind_tensor(&mut env, &src, TensorRef::from(t)).unwrap();
    conv.execute_env_quiet(&mut env).unwrap();
    dump(&env)
}

/// A 4×5 COO matrix, unsorted, with `(2, 3)` stored three times and
/// `(0, 1)` twice.
fn dup_coo() -> CooMatrix {
    let row = vec![2, 0, 3, 2, 0, 1, 2, 3];
    let col = vec![3, 1, 4, 3, 1, 0, 3, 0];
    let val = (1..=row.len()).map(|v| v as f64).collect();
    CooMatrix { nr: 4, nc: 5, row, col, val }
}

/// A 3×3×4 COO tensor, unsorted, with `(1, 2, 3)` stored twice and
/// `(0, 0, 1)` twice.
fn dup_coo3() -> Coo3Tensor {
    let i0 = vec![1, 0, 2, 1, 0, 2];
    let i1 = vec![2, 0, 1, 2, 0, 0];
    let i2 = vec![3, 1, 0, 3, 1, 2];
    let val = (1..=i0.len()).map(|v| v as f64).collect();
    Coo3Tensor { nr: 3, nc: 3, nz: 4, i0, i1, i2, val }
}

/// A 3×4 ELL matrix of width 3 whose row 1 stores column 2 twice.
fn dup_ell() -> EllMatrix {
    EllMatrix {
        nr: 3,
        nc: 4,
        width: 3,
        col: vec![0, 3, -1, 2, 2, 3, 1, -1, -1],
        data: vec![1.0, 2.0, 0.0, 3.0, 4.0, 5.0, 6.0, 0.0, 0.0],
    }
}

#[test]
fn coo_to_csr_collapses_duplicates_onto_first_rank() {
    let got = run_matrix(d::coo(), d::csr(), &AnyMatrix::Coo(dup_coo()));
    assert_eq!(got, COO_CSR, "\n{got}");
}

#[test]
fn coo_to_mcoo_collapses_duplicates_onto_first_rank() {
    let got = run_matrix(d::coo(), d::mcoo(), &AnyMatrix::Coo(dup_coo()));
    assert_eq!(got, COO_MCOO, "\n{got}");
}

#[test]
fn coo3_to_scoo3_collapses_duplicates_onto_first_rank() {
    // The destination shares the source's UF names, so it is renamed.
    let dst = d::scoo3().with_suffix("_v");
    let got = run_tensor(d::coo3(), dst, &AnyTensor::Coo3(dup_coo3()));
    assert_eq!(got, COO3_SCOO3, "\n{got}");
}

#[test]
fn coo_to_dia_dedups_offsets() {
    let got = run_matrix(d::coo(), d::dia(), &AnyMatrix::Coo(dup_coo()));
    assert_eq!(got, COO_DIA, "\n{got}");
}

#[test]
fn ell_to_coo_counts_duplicates_as_separate_entries() {
    let got = run_matrix(d::ell(), d::coo(), &AnyMatrix::Ell(dup_ell()));
    assert_eq!(got, ELL_COO, "\n{got}");
}

// (2,3) at positions 0, 3, 6 all take rank 3 and the last copy's value
// lands there; ranks 4 and 5 stay empty. (0,1) at 1 and 4 share rank 0,
// and rank 1 stays empty.
const COO_CSR: &str = "\
NC = 5
NNZ = 8
NR = 4
col1 = [3, 1, 4, 3, 1, 0, 3, 0]
col2 = [1, 0, 0, 3, 0, 0, 0, 4]
row1 = [2, 0, 3, 2, 0, 1, 2, 3]
rowptr = [0, 2, 3, 6, 8]
Acoo = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
Acsr = [5.0, 0.0, 6.0, 7.0, 0.0, 0.0, 8.0, 3.0]
";

const COO_MCOO: &str = "\
NC = 5
NNZ = 8
NR = 4
col1 = [3, 1, 4, 3, 1, 0, 3, 0]
colm = [0, 1, 0, 0, 3, 0, 0, 4]
row1 = [2, 0, 3, 2, 0, 1, 2, 3]
rowm = [1, 0, 0, 3, 2, 0, 0, 3]
Acoo = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
Amcoo = [6.0, 5.0, 0.0, 8.0, 7.0, 0.0, 0.0, 3.0]
";

const COO3_SCOO3: &str = "\
NC = 3
NNZ = 6
NR = 3
NZ = 4
col1 = [2, 0, 1, 2, 0, 0]
col1_v = [0, 0, 2, 0, 0, 1]
row1 = [1, 0, 2, 1, 0, 2]
row1_v = [0, 0, 1, 0, 2, 2]
z1 = [3, 1, 0, 3, 1, 2]
z1_v = [1, 0, 3, 0, 2, 0]
Acoo3 = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
Acoo3_v = [5.0, 0.0, 4.0, 0.0, 6.0, 3.0]
";

const COO_DIA: &str = "\
C_off = 3
NC = 5
ND = 3
NNZ = 8
NR = 4
M_off = [1, 0, 1, 0, 1, 0, 0, 0, 0]
col1 = [3, 1, 4, 3, 1, 0, 3, 0]
d_of = [0, 0, 1, 0, 2, 0, 0, 0, 0]
off = [-3, -1, 1]
row1 = [2, 0, 3, 2, 0, 1, 2, 3]
Acoo = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
Adia = [0.0, 0.0, 5.0, 0.0, 6.0, 0.0, 0.0, 0.0, 7.0, 8.0, 0.0, 3.0]
";

// Scan order: row 1's two (1,2) entries take counts 2 and 3.
const ELL_COO: &str = "\
ELLW = 3
NC = 4
NNZ = 6
NR = 3
P = 6
col1 = [0, 3, 2, 2, 3, 1]
ellcol = [0, 3, -1, 2, 2, 3, 1, -1, -1]
row1 = [0, 0, 1, 1, 1, 2]
Acoo = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
Aell = [1.0, 2.0, 0.0, 3.0, 4.0, 5.0, 6.0, 0.0, 0.0]
";
