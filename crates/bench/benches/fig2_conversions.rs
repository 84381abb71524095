//! Criterion benches for the Figure-2 conversion experiments: the
//! synthesized inspector vs the TACO / SPARSKIT / MKL comparator models
//! on a representative subset of the Table-3 suite.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparse_baselines::{fig2, Library};
use sparse_bench::{build_conversion, Fig2Kind};
use sparse_formats::CsrMatrix;
use sparse_matgen::suite::table3_suite;
use sparse_synthesis::run as synth_run;
use spf_codegen::runtime::RtEnv;

const SCALE: usize = 256;
const MATRICES: [&str; 4] = ["jnlbrng1", "majorbasis", "scircuit", "ecology1"];

fn coo_env(m: &sparse_formats::CooMatrix) -> RtEnv<'_> {
    RtEnv::new()
        .with_sym("NR", m.nr as i64)
        .with_sym("NC", m.nc as i64)
        .with_sym("NNZ", m.nnz() as i64)
        .with_uf("row", m.row.clone())
        .with_uf("col", m.col.clone())
        .with_data("Acoo", m.val.clone())
}

fn bench_kind(c: &mut Criterion, kind: Fig2Kind, group_name: &str) {
    let conv = build_conversion(kind);
    let mut group = c.benchmark_group(group_name);
    for spec in table3_suite() {
        if !MATRICES.contains(&spec.name) {
            continue;
        }
        if matches!(
            kind,
            Fig2Kind::CooToDiaLinear | Fig2Kind::CooToDiaBinary | Fig2Kind::CooToDiaDirect
        ) && !spec.dia_friendly()
        {
            continue;
        }
        let coo = spec.generate(SCALE);
        let csr = matches!(kind, Fig2Kind::CsrToCsc).then(|| CsrMatrix::from_coo(&coo));

        // Synthesized.
        let mut env = RtEnv::new();
        match (&csr, kind) {
            (Some(m), Fig2Kind::CsrToCsc) => {
                synth_run::bind_matrix(&mut env, &conv.synth.src, m.into()).unwrap()
            }
            _ => synth_run::bind_matrix(&mut env, &conv.synth.src, (&coo).into()).unwrap(),
        }
        group.bench_with_input(
            BenchmarkId::new("synthesized", spec.name),
            &(),
            |b, ()| b.iter(|| conv.execute_env(&mut env).unwrap()),
        );

        // Same inspector with ExecStats counting compiled out
        // (`execute_quiet`): the delta is the cost of statement/op
        // accounting on the interpreter hot path.
        group.bench_with_input(
            BenchmarkId::new("synthesized_nostats", spec.name),
            &(),
            |b, ()| b.iter(|| conv.execute_env_quiet(&mut env).unwrap()),
        );

        // Baselines.
        for lib in Library::ALL {
            let routine = match kind {
                Fig2Kind::CooToCsc => fig2::coo_to_csc(lib),
                Fig2Kind::CsrToCsc => fig2::csr_to_csc(lib),
                Fig2Kind::CooToCsr => fig2::coo_to_csr(lib),
                Fig2Kind::CooToDiaLinear
                | Fig2Kind::CooToDiaBinary
                | Fig2Kind::CooToDiaDirect => fig2::coo_to_dia(lib),
            };
            let mut env = match (&csr, kind) {
                (Some(m), Fig2Kind::CsrToCsc) => RtEnv::new()
                    .with_sym("NR", m.nr as i64)
                    .with_sym("NC", m.nc as i64)
                    .with_sym("NNZ", m.nnz() as i64)
                    .with_uf("rowptr", m.rowptr.clone())
                    .with_uf("col2", m.col.clone())
                    .with_data("Acsr", m.val.clone()),
                _ => coo_env(&coo),
            };
            group.bench_with_input(
                BenchmarkId::new(lib.name(), spec.name),
                &(),
                |b, ()| b.iter(|| routine.execute(&mut env).unwrap()),
            );
        }
    }
    group.finish();
}

fn fig2a(c: &mut Criterion) {
    bench_kind(c, Fig2Kind::CooToCsc, "fig2a_coo_to_csc");
}

fn fig2b(c: &mut Criterion) {
    bench_kind(c, Fig2Kind::CsrToCsc, "fig2b_csr_to_csc");
}

fn fig2c(c: &mut Criterion) {
    bench_kind(c, Fig2Kind::CooToCsr, "fig2c_coo_to_csr");
}

fn fig2d(c: &mut Criterion) {
    bench_kind(c, Fig2Kind::CooToDiaLinear, "fig2d_coo_to_dia_linear");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = fig2a, fig2b, fig2c, fig2d
}
criterion_main!(benches);
