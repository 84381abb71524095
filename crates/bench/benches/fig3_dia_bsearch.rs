//! Criterion bench for Figure 3: COO→DIA with the synthesized linear
//! search vs the binary-search optimization vs the direct diagonal map,
//! on the best (ecology1, 5 diagonals) and worst (majorbasis, 22
//! diagonals) DIA cases.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparse_bench::{build_conversion, Fig2Kind};
use sparse_matgen::suite::table3_suite;
use sparse_synthesis::run as synth_run;
use spf_codegen::runtime::RtEnv;

const SCALE: usize = 256;

fn fig3(c: &mut Criterion) {
    let linear = build_conversion(Fig2Kind::CooToDiaLinear);
    let binary = build_conversion(Fig2Kind::CooToDiaBinary);
    let direct = build_conversion(Fig2Kind::CooToDiaDirect);
    let mut group = c.benchmark_group("fig3_dia_search");
    for spec in table3_suite() {
        if !["ecology1", "majorbasis", "jnlbrng1"].contains(&spec.name) {
            continue;
        }
        let coo = spec.generate(SCALE);
        for (label, conv) in [("linear", &linear), ("binary", &binary), ("direct", &direct)] {
            let mut env = RtEnv::new();
            synth_run::bind_matrix(&mut env, &conv.synth.src, (&coo).into()).unwrap();
            group.bench_with_input(
                BenchmarkId::new(label, spec.name),
                &(),
                |b, ()| b.iter(|| conv.execute_env(&mut env).unwrap()),
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = fig3
}
criterion_main!(benches);
