//! Native-kernel registry: fused Rust implementations of hot catalog
//! conversions, keyed by the *structural fingerprints* of the source and
//! destination descriptors.
//!
//! The synthesized SPF-IR plan stays the source of truth — a kernel is an
//! optimization the engine may substitute when (and only when) the plan
//! for the same `(src, dst)` pair exists and verified clean. Lookup is by
//! `FormatDescriptor::fingerprint()`, which covers UF names as well as
//! structure — a renamed descriptor (`with_suffix`) gets its own
//! fingerprint and only matches kernels registered for that exact rename,
//! keeping the kernel's array roles aligned with the descriptor's.
//!
//! # Equivalence contract
//!
//! Every registered kernel must be **bit-identical** to the interpreter
//! path for every *valid* input (enforced by the differential suite in
//! `tests/differential.rs`). Where the two could diverge — duplicate
//! coordinates in an unordered COO source, which the permutation-based
//! plans collapse through first-occurrence ranks — the kernel *declines*
//! with an error instead of answering, and the engine transparently falls
//! back to the interpreter. A kernel error is therefore never a
//! conversion failure, just a de-optimization.

use std::collections::HashMap;
use std::sync::OnceLock;

use sparse_formats::{
    descriptors, AnyMatrix, AnyTensor, Coo3Tensor, CooMatrix, CscMatrix, CsrMatrix,
    FormatDescriptor, MatrixRef, MortonCoo3Tensor, MortonCooMatrix, TensorRef,
};
use spf_codegen::kernels::{
    coo_to_csr_parts, csr_to_csc_parts, expand_ptr, lex_sort_perm, morton_sort_perm, permute,
};

use crate::run::{apart, RunError};

/// A native rank-2 conversion kernel: validated input in, validated
/// destination container out.
pub type MatrixKernelFn = fn(MatrixRef<'_>) -> Result<AnyMatrix, RunError>;

/// A native order-3 conversion kernel.
pub type TensorKernelFn = fn(TensorRef<'_>) -> Result<AnyTensor, RunError>;

/// The registry of native kernels, keyed by
/// `(src.fingerprint(), dst.fingerprint())`.
pub struct KernelRegistry {
    matrix: HashMap<(u64, u64), MatrixKernelFn>,
    tensor: HashMap<(u64, u64), TensorKernelFn>,
}

impl KernelRegistry {
    /// The process-wide registry of built-in kernels.
    pub fn global() -> &'static KernelRegistry {
        static REG: OnceLock<KernelRegistry> = OnceLock::new();
        REG.get_or_init(KernelRegistry::builtin)
    }

    /// Looks up a rank-2 kernel for a fingerprint pair.
    pub fn matrix_kernel(&self, src_fp: u64, dst_fp: u64) -> Option<MatrixKernelFn> {
        self.matrix.get(&(src_fp, dst_fp)).copied()
    }

    /// Looks up an order-3 kernel for a fingerprint pair.
    pub fn tensor_kernel(&self, src_fp: u64, dst_fp: u64) -> Option<TensorKernelFn> {
        self.tensor.get(&(src_fp, dst_fp)).copied()
    }

    /// Number of registered `(src, dst)` pairs across both ranks.
    pub fn len(&self) -> usize {
        self.matrix.len() + self.tensor.len()
    }

    /// True when no kernels are registered.
    pub fn is_empty(&self) -> bool {
        self.matrix.is_empty() && self.tensor.is_empty()
    }

    fn builtin() -> KernelRegistry {
        let mut matrix: HashMap<(u64, u64), MatrixKernelFn> = HashMap::new();
        let mut tensor: HashMap<(u64, u64), TensorKernelFn> = HashMap::new();
        // Each row is keyed by the destination `Conversion::new` looks
        // up: renamed apart from the source where the two share names.
        let key = |s: &FormatDescriptor, d: &_| (s.fingerprint(), apart(s, d).fingerprint());

        // Coordinate sources (unordered, sorted, Morton) all bind the same
        // triplet storage; the kernels only assume what validation already
        // established for the *source* descriptor, so one implementation
        // serves all three.
        let coord_sources = [descriptors::coo(), descriptors::scoo(), descriptors::mcoo()];
        for s in &coord_sources {
            matrix.insert(key(s, &descriptors::csr()), k_coo_to_csr as MatrixKernelFn);
            matrix.insert(key(s, &descriptors::csc()), k_coo_to_csc);
            matrix.insert(key(s, &descriptors::mcoo()), k_coo_to_mcoo);
            matrix.insert(key(s, &descriptors::scoo()), k_coo_to_scoo);
        }
        matrix.insert(key(&descriptors::csr(), &descriptors::csc()), k_csr_to_csc);
        matrix.insert(key(&descriptors::csc(), &descriptors::csr()), k_csc_to_csr);
        matrix.insert(key(&descriptors::csr(), &descriptors::coo()), k_csr_to_coo);
        matrix.insert(key(&descriptors::csc(), &descriptors::coo()), k_csc_to_coo);

        for s in &[descriptors::coo3(), descriptors::scoo3()] {
            tensor.insert(key(s, &descriptors::mcoo3()), k_coo3_to_mcoo3 as TensorKernelFn);
        }

        KernelRegistry { matrix, tensor }
    }
}

fn wrong_container(kernel: &str, got: &str) -> RunError {
    RunError::Unsupported(format!(
        "kernel `{kernel}` cannot run on a `{got}` container"
    ))
}

fn decline(kernel: &str, why: &str) -> RunError {
    RunError::Unsupported(format!(
        "kernel `{kernel}` declined ({why}); interpreter fallback required"
    ))
}

/// The catalog names of the arrays a CSR and a CSC destination build,
/// which a kernel's allocation error names.
const CSR: [&str; 3] = ["rowptr", "col2", "Acsr"];
const CSC: [&str; 3] = ["colptr", "row", "Acsc"];

fn k_coo_to_csr(m: MatrixRef<'_>) -> Result<AnyMatrix, RunError> {
    let c = m.coo().ok_or_else(|| wrong_container("coo->csr", m.label()))?;
    let (rowptr, col, val) = coo_to_csr_parts(CSR, c.nr, &c.row, &c.col, &c.val)?;
    Ok(AnyMatrix::Csr(CsrMatrix::new(c.nr, c.nc, rowptr, col, val).map_err(RunError::Format)?))
}

fn k_coo_to_csc(m: MatrixRef<'_>) -> Result<AnyMatrix, RunError> {
    let c = m.coo().ok_or_else(|| wrong_container("coo->csc", m.label()))?;
    // Role-swapped counting sort: histogram columns, order rows inside.
    let (colptr, row, val) = coo_to_csr_parts(CSC, c.nc, &c.col, &c.row, &c.val)?;
    Ok(AnyMatrix::Csc(CscMatrix::new(c.nr, c.nc, colptr, row, val).map_err(RunError::Format)?))
}

fn k_coo_to_scoo(m: MatrixRef<'_>) -> Result<AnyMatrix, RunError> {
    let c = m.coo().ok_or_else(|| wrong_container("coo->scoo", m.label()))?;
    let perm = lex_sort_perm(&c.row, &c.col);
    // Duplicate coordinates collapse through the plan's first-occurrence
    // ranks; the sorted permutation can't reproduce that, so decline and
    // let the interpreter answer (valid unordered COO permits duplicates).
    if perm.windows(2).any(|w| c.row[w[0]] == c.row[w[1]] && c.col[w[0]] == c.col[w[1]]) {
        return Err(decline("coo->scoo", "duplicate coordinates"));
    }
    let out = CooMatrix::from_triplets(
        c.nr,
        c.nc,
        permute("row1", &c.row, &perm)?,
        permute("col1", &c.col, &perm)?,
        permute("Acoo", &c.val, &perm)?,
    )
    .map_err(RunError::Format)?;
    Ok(AnyMatrix::Coo(out))
}

fn k_coo_to_mcoo(m: MatrixRef<'_>) -> Result<AnyMatrix, RunError> {
    let c = m.coo().ok_or_else(|| wrong_container("coo->mcoo", m.label()))?;
    let perm = morton_sort_perm(&[&c.row, &c.col]);
    if perm.windows(2).any(|w| c.row[w[0]] == c.row[w[1]] && c.col[w[0]] == c.col[w[1]]) {
        return Err(decline("coo->mcoo", "duplicate coordinates"));
    }
    // `MortonCooMatrix::new` checks the storage and the order in one go.
    let out = CooMatrix {
        nr: c.nr,
        nc: c.nc,
        row: permute("rowm", &c.row, &perm)?,
        col: permute("colm", &c.col, &perm)?,
        val: permute("Amcoo", &c.val, &perm)?,
    };
    Ok(AnyMatrix::MortonCoo(MortonCooMatrix::new(out).map_err(RunError::Format)?))
}

fn k_csr_to_csc(m: MatrixRef<'_>) -> Result<AnyMatrix, RunError> {
    let MatrixRef::Csr(c) = m else {
        return Err(wrong_container("csr->csc", m.label()));
    };
    let (colptr, row, val) = csr_to_csc_parts(CSC, c.nr, c.nc, &c.rowptr, &c.col, &c.val)?;
    Ok(AnyMatrix::Csc(CscMatrix::new(c.nr, c.nc, colptr, row, val).map_err(RunError::Format)?))
}

fn k_csc_to_csr(m: MatrixRef<'_>) -> Result<AnyMatrix, RunError> {
    let MatrixRef::Csc(c) = m else {
        return Err(wrong_container("csc->csr", m.label()));
    };
    // A CSC is the CSR of the transpose; transposing it back is the same
    // scatter with the roles swapped.
    let (rowptr, col, val) = csr_to_csc_parts(CSR, c.nc, c.nr, &c.colptr, &c.row, &c.val)?;
    Ok(AnyMatrix::Csr(CsrMatrix::new(c.nr, c.nc, rowptr, col, val).map_err(RunError::Format)?))
}

fn k_csr_to_coo(m: MatrixRef<'_>) -> Result<AnyMatrix, RunError> {
    let MatrixRef::Csr(c) = m else {
        return Err(wrong_container("csr->coo", m.label()));
    };
    let row = expand_ptr("row1", &c.rowptr)?;
    Ok(AnyMatrix::Coo(
        CooMatrix::from_triplets(c.nr, c.nc, row, c.col.clone(), c.val.clone())
            .map_err(RunError::Format)?,
    ))
}

fn k_csc_to_coo(m: MatrixRef<'_>) -> Result<AnyMatrix, RunError> {
    let MatrixRef::Csc(c) = m else {
        return Err(wrong_container("csc->coo", m.label()));
    };
    let col = expand_ptr("col1", &c.colptr)?;
    Ok(AnyMatrix::Coo(
        CooMatrix::from_triplets(c.nr, c.nc, c.row.clone(), col, c.val.clone())
            .map_err(RunError::Format)?,
    ))
}

fn k_coo3_to_mcoo3(t: TensorRef<'_>) -> Result<AnyTensor, RunError> {
    let c = t.coo3();
    let perm = morton_sort_perm(&[&c.i0, &c.i1, &c.i2]);
    if perm.windows(2).any(|w| {
        c.i0[w[0]] == c.i0[w[1]] && c.i1[w[0]] == c.i1[w[1]] && c.i2[w[0]] == c.i2[w[1]]
    }) {
        return Err(decline("coo3->mcoo3", "duplicate coordinates"));
    }
    let out = Coo3Tensor {
        nr: c.nr,
        nc: c.nc,
        nz: c.nz,
        i0: permute("rowm", &c.i0, &perm)?,
        i1: permute("colm", &c.i1, &perm)?,
        i2: permute("zm", &c.i2, &perm)?,
        val: permute("Amcoo3", &c.val, &perm)?,
    };
    Ok(AnyTensor::MortonCoo3(MortonCoo3Tensor::new(out).map_err(RunError::Format)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_hot_pairs() {
        let reg = KernelRegistry::global();
        assert!(reg.len() >= 10, "expected a full builtin registry, got {}", reg.len());
        let fp = |d: FormatDescriptor| d.fingerprint();
        for (s, d) in [
            (fp(descriptors::scoo()), fp(descriptors::csr())),
            (fp(descriptors::coo()), fp(descriptors::csr())),
            (fp(descriptors::csr()), fp(descriptors::csc())),
            (fp(descriptors::csr()), fp(descriptors::coo())),
            (fp(descriptors::coo()), fp(descriptors::scoo().with_suffix("_d"))),
            (fp(descriptors::scoo()), fp(descriptors::mcoo())),
        ] {
            assert!(reg.matrix_kernel(s, d).is_some(), "missing kernel for ({s:#x},{d:#x})");
        }
        assert!(reg
            .tensor_kernel(fp(descriptors::coo3()), fp(descriptors::mcoo3()))
            .is_some());
    }

    #[test]
    fn every_row_is_reachable_through_conversion_new() {
        use crate::run::Conversion;
        use crate::synthesize::SynthesisOptions;
        let coord = [descriptors::coo(), descriptors::scoo(), descriptors::mcoo()];
        let mut pairs: Vec<(FormatDescriptor, FormatDescriptor)> = Vec::new();
        for s in &coord {
            for d in [descriptors::csr(), descriptors::csc(), descriptors::mcoo(), descriptors::scoo()] {
                pairs.push((s.clone(), d));
            }
        }
        for (s, d) in [
            (descriptors::csr(), descriptors::csc()),
            (descriptors::csc(), descriptors::csr()),
            (descriptors::csr(), descriptors::coo()),
            (descriptors::csc(), descriptors::coo()),
            (descriptors::coo3(), descriptors::mcoo3()),
            (descriptors::scoo3(), descriptors::mcoo3()),
        ] {
            pairs.push((s, d));
        }
        assert_eq!(pairs.len(), KernelRegistry::global().len());
        for (s, d) in &pairs {
            let conv = Conversion::new(s, d, SynthesisOptions::default()).unwrap();
            assert!(conv.has_kernel(), "{} -> {}: registered row is unreachable", s.name, d.name);
        }
    }

    #[test]
    fn unregistered_pairs_miss() {
        let reg = KernelRegistry::global();
        // DIA destinations have no native kernel — the interpreter's
        // diagonal discovery is the only implementation.
        assert!(reg
            .matrix_kernel(
                descriptors::scoo().fingerprint(),
                descriptors::dia().fingerprint()
            )
            .is_none());
    }

    #[test]
    fn duplicate_coordinates_decline() {
        let coo = CooMatrix::from_triplets(
            2,
            2,
            vec![0, 0, 1],
            vec![1, 1, 0],
            vec![1.0, 2.0, 3.0],
        )
        .unwrap();
        let err = k_coo_to_scoo(MatrixRef::Coo(&coo)).unwrap_err();
        assert!(matches!(err, RunError::Unsupported(_)), "{err}");
        let err = k_coo_to_mcoo(MatrixRef::Coo(&coo)).unwrap_err();
        assert!(matches!(err, RunError::Unsupported(_)), "{err}");
    }
}
