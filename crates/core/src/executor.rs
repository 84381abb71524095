//! Executor generation: computations *over* a sparse format, derived from
//! its descriptor.
//!
//! The paper's motivation for synthesizing conversions into the SPF-IR is
//! that "by directly synthesizing the sparse format code to SPF and
//! expressing the original computation in SPF, both can be optimized in
//! tandem". This module provides that other half: given any scannable
//! format descriptor, it generates the SpMV executor
//! `y[i] += A[data(n)] * x[j]` as an SPF computation over the format's
//! iteration space — so a conversion inspector and the executor that
//! consumes its output live in one representation.

use sparse_formats::FormatDescriptor;
use spf_computation::{Computation, Kernel, Stmt};
use spf_ir::expr::{LinExpr, VarId};
use spf_ir::formula::Set;

use crate::synthesize::SynthesisError;

/// Standard names used by generated executors.
pub mod names {
    /// Output vector data space.
    pub const Y: &str = "y";
    /// Input vector data space.
    pub const X: &str = "x";
}

/// Generates the SpMV executor `y = A x` for a (rank-2, scannable)
/// format: one pass over the format's own iteration space.
///
/// The result reads the format's index arrays and data array under their
/// descriptor names, reads `x`, and accumulates into `y` (which it
/// allocates to `NR` zeros).
///
/// # Errors
/// Fails for formats without a scan (e.g. DIA as stored here) or with a
/// rank other than 2.
pub fn spmv(desc: &FormatDescriptor) -> Result<Computation, SynthesisError> {
    if desc.rank != 2 {
        return Err(SynthesisError::RankMismatch { src: desc.rank, dst: 2 });
    }
    let scan = desc
        .scan
        .as_ref()
        .ok_or_else(|| SynthesisError::SourceNotScannable(desc.name.clone()))?;
    let mut comp = Computation::new();
    comp.add_stmt(Stmt::new(
        format!("alloc {}", names::Y),
        Kernel::DataAlloc {
            arr: names::Y.into(),
            size_factors: vec![LinExpr::sym(desc.dim_syms[0].clone())],
        },
        Set::universe(vec![]),
    ));
    let i = LinExpr::var(VarId(scan.dense_pos[0] as u32));
    let j = LinExpr::var(VarId(scan.dense_pos[1] as u32));
    comp.add_stmt(Stmt::new(
        format!("spmv over {}", desc.name),
        Kernel::DataAxpy {
            y: names::Y.into(),
            y_idx: i,
            a: desc.data_name.clone(),
            a_idx: scan.data_index.clone(),
            x: names::X.into(),
            x_idx: j,
        },
        scan.set.clone(),
    ));
    comp.mark_live(names::Y);
    Ok(comp)
}

/// Generates the mode-2 tensor-times-vector executor
/// `Y[i, j] += A[data(n)] * x[k]` for a rank-3 scannable format; the
/// output `Y` is a dense `NR × NC` row-major array.
///
/// # Errors
/// Fails for formats without a scan or with a rank other than 3.
pub fn ttv_mode2(desc: &FormatDescriptor) -> Result<Computation, SynthesisError> {
    if desc.rank != 3 {
        return Err(SynthesisError::RankMismatch { src: desc.rank, dst: 3 });
    }
    let scan = desc
        .scan
        .as_ref()
        .ok_or_else(|| SynthesisError::SourceNotScannable(desc.name.clone()))?;
    let mut comp = Computation::new();
    comp.add_stmt(Stmt::new(
        format!("alloc {}", names::Y),
        Kernel::DataAlloc {
            arr: names::Y.into(),
            size_factors: vec![
                LinExpr::sym(desc.dim_syms[0].clone()),
                LinExpr::sym(desc.dim_syms[1].clone()),
            ],
        },
        Set::universe(vec![]),
    ));
    let i = LinExpr::var(VarId(scan.dense_pos[0] as u32));
    let j = LinExpr::var(VarId(scan.dense_pos[1] as u32));
    let k = LinExpr::var(VarId(scan.dense_pos[2] as u32));
    // Y[i * NC + j]
    let y_idx = {
        let mut e = LinExpr::zero();
        e.add_assign(
            &i.mul_expr(&LinExpr::sym(desc.dim_syms[1].clone())),
        );
        e.add_assign(&j);
        e
    };
    comp.add_stmt(Stmt::new(
        format!("ttv(mode 2) over {}", desc.name),
        Kernel::DataAxpy {
            y: names::Y.into(),
            y_idx,
            a: desc.data_name.clone(),
            a_idx: scan.data_index.clone(),
            x: names::X.into(),
            x_idx: k,
        },
        scan.set.clone(),
    ));
    comp.mark_live(names::Y);
    Ok(comp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_formats::descriptors;
    use sparse_formats::{Coo3Tensor, CooMatrix, CscMatrix, CsrMatrix, MortonCooMatrix};
    use spf_codegen::runtime::RtEnv;
    use spf_computation::ComparatorRegistry;

    fn sample() -> CooMatrix {
        CooMatrix::from_triplets(
            3,
            4,
            vec![0, 0, 1, 2],
            vec![0, 2, 3, 1],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap()
    }

    fn run_spmv(comp: &Computation, env: &mut RtEnv<'_>, x: &[f64]) -> Vec<f64> {
        env.data.insert(names::X.into(), x.to_vec().into());
        let compiled = comp.lower().unwrap();
        compiled.execute(env, &ComparatorRegistry::new()).unwrap();
        env.data[names::Y].to_vec()
    }

    #[test]
    fn spmv_over_coo_matches_container() {
        let coo = sample();
        let comp = spmv(&descriptors::scoo()).unwrap();
        let mut env = RtEnv::new();
        crate::run::bind_matrix(&mut env, &descriptors::scoo(), (&coo).into()).unwrap();
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(run_spmv(&comp, &mut env, &x), coo.spmv(&x));
    }

    #[test]
    fn spmv_over_csr_matches_container() {
        let csr = CsrMatrix::from_coo(&sample());
        let comp = spmv(&descriptors::csr()).unwrap();
        let mut env = RtEnv::new();
        crate::run::bind_matrix(&mut env, &descriptors::csr(), (&csr).into()).unwrap();
        let x = [1.0, -1.0, 0.5, 2.0];
        assert_eq!(run_spmv(&comp, &mut env, &x), csr.spmv(&x));
    }

    #[test]
    fn spmv_over_csc_matches_container() {
        let csc = CscMatrix::from_coo(&sample());
        let comp = spmv(&descriptors::csc()).unwrap();
        let mut env = RtEnv::new();
        crate::run::bind_matrix(&mut env, &descriptors::csc(), (&csc).into()).unwrap();
        let x = [2.0, 0.0, 1.0, -1.0];
        assert_eq!(run_spmv(&comp, &mut env, &x), csc.spmv(&x));
    }

    #[test]
    fn spmv_over_mcoo_matches_container() {
        // Executor over the reordered format: the point of the paper's
        // mode-agnostic orderings.
        let m = MortonCooMatrix::from_coo(&sample());
        let comp = spmv(&descriptors::mcoo()).unwrap();
        let mut env = RtEnv::new();
        crate::run::bind_matrix(&mut env, &descriptors::mcoo(), (&m.coo).into()).unwrap();
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(run_spmv(&comp, &mut env, &x), m.coo.spmv(&x));
    }

    #[test]
    fn ttv_over_coo3_matches_container() {
        let t = Coo3Tensor::from_coords(
            (2, 3, 4),
            vec![0, 1, 1],
            vec![2, 0, 2],
            vec![1, 3, 0],
            vec![1.0, 2.0, 3.0],
        )
        .unwrap();
        let comp = ttv_mode2(&descriptors::scoo3()).unwrap();
        let mut env = RtEnv::new();
        crate::run::bind_tensor(&mut env, &descriptors::scoo3(), (&t).into()).unwrap();
        env.data.insert(names::X.into(), vec![1.0, 10.0, 100.0, 1000.0].into());
        let compiled = comp.lower().unwrap();
        compiled.execute(&mut env, &ComparatorRegistry::new()).unwrap();
        let want = t.ttv_mode2(&[1.0, 10.0, 100.0, 1000.0]);
        assert_eq!(env.data[names::Y], want.vals);
    }

    #[test]
    fn spmv_over_dia_matches_container() {
        use sparse_formats::DiaMatrix;
        // Tridiagonal-ish matrix; the DIA executor iterates the (row,
        // diagonal) grid with the membership guard.
        let coo = CooMatrix::from_triplets(
            4,
            4,
            vec![0, 0, 1, 2, 3, 3],
            vec![0, 1, 2, 1, 2, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
        .unwrap();
        let dia = DiaMatrix::from_coo(&coo);
        let desc = descriptors::dia_executable();
        let comp = spmv(&desc).unwrap();
        let mut env = RtEnv::new();
        crate::run::bind_matrix(&mut env, &desc, (&dia).into()).unwrap();
        let x = [1.0, -2.0, 3.0, 0.5];
        let got = run_spmv(&comp, &mut env, &x);
        let want = dia.spmv(&x);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn dia_is_rejected_as_unscannable() {
        assert!(matches!(
            spmv(&descriptors::dia()),
            Err(SynthesisError::SourceNotScannable(_))
        ));
    }

    #[test]
    fn rank_mismatch_rejected() {
        assert!(spmv(&descriptors::scoo3()).is_err());
        assert!(ttv_mode2(&descriptors::scoo()).is_err());
    }

    #[test]
    fn emitted_c_is_the_expected_kernel() {
        let comp = spmv(&descriptors::csr()).unwrap();
        let c = comp.lower().unwrap().emit_c("spmv_csr");
        assert!(c.contains("y[i] += Acsr[k] * x[j];"), "{c}");
    }
}
