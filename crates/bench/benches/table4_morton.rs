//! Criterion bench for Table 4: synthesized COO3D→MCOO3 reordering vs the
//! hand-written HiCOO-style blocked z-Morton sort.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparse_baselines::hicoo_morton_sort3;
use sparse_formats::descriptors;
use sparse_matgen::suite::table4_suite;
use sparse_synthesis::{run as synth_run, Conversion, SynthesisOptions};
use spf_codegen::runtime::RtEnv;

const SCALE: usize = 4096;

fn table4(c: &mut Criterion) {
    let conv = Conversion::new(
        &descriptors::scoo3(),
        &descriptors::mcoo3(),
        SynthesisOptions::default(),
    )
    .unwrap();
    let mut group = c.benchmark_group("table4_morton_reorder");
    for spec in table4_suite() {
        let t = spec.generate(SCALE);
        group.bench_with_input(BenchmarkId::new("hicoo", spec.name), &(), |b, ()| {
            b.iter(|| std::hint::black_box(hicoo_morton_sort3(&t, 7).nnz()))
        });
        let mut env = RtEnv::new();
        synth_run::bind_tensor(&mut env, &conv.synth.src, (&t).into()).unwrap();
        group.bench_with_input(BenchmarkId::new("synthesized", spec.name), &(), |b, ()| {
            b.iter(|| conv.execute_env(&mut env).unwrap())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = table4
}
criterion_main!(benches);
