//! Ablation bench for the §3.3 design choices: how much each optimization
//! contributes on the paper's headline COO→CSR conversion.
//!
//! * `naive` — the synthesized loop chain as-is (permutation built and
//!   consulted, redundant bound updates, no fusion).
//! * `optimized` — redundancy removal + identity-permutation elimination
//!   + dead-code elimination + fusion (the shipping path).
//!
//! And for COO→DIA, linear vs binary membership search (Figure 3's
//! design choice in isolation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparse_formats::descriptors;
use sparse_matgen::suite::table3_suite;
use sparse_synthesis::{run as synth_run, Conversion, Membership, SynthesisOptions};
use spf_codegen::runtime::RtEnv;

const SCALE: usize = 256;

fn ablation_csr(c: &mut Criterion) {
    let variants = [
        ("naive", SynthesisOptions { optimize: false, membership: Membership::Linear }),
        ("optimized", SynthesisOptions { optimize: true, membership: Membership::Linear }),
    ];
    let mut group = c.benchmark_group("ablation_coo_to_csr");
    for spec in table3_suite() {
        if !["jnlbrng1", "scircuit", "ecology1"].contains(&spec.name) {
            continue;
        }
        let coo = spec.generate(SCALE);
        for (label, opts) in variants {
            let conv =
                Conversion::new(&descriptors::scoo(), &descriptors::csr(), opts).unwrap();
            let mut env = RtEnv::new();
            synth_run::bind_matrix(&mut env, &conv.synth.src, (&coo).into()).unwrap();
            group.bench_with_input(BenchmarkId::new(label, spec.name), &(), |b, ()| {
                b.iter(|| conv.execute_env(&mut env).unwrap())
            });
        }
    }
    group.finish();
}

fn ablation_dia_search(c: &mut Criterion) {
    let variants = [
        ("linear", SynthesisOptions { optimize: true, membership: Membership::Linear }),
        ("binary", SynthesisOptions { optimize: true, membership: Membership::Binary }),
    ];
    let mut group = c.benchmark_group("ablation_dia_search");
    for spec in table3_suite() {
        if !["dixmaanl", "majorbasis"].contains(&spec.name) {
            continue;
        }
        let coo = spec.generate(SCALE);
        for (label, opts) in variants {
            let conv =
                Conversion::new(&descriptors::scoo(), &descriptors::dia(), opts).unwrap();
            let mut env = RtEnv::new();
            synth_run::bind_matrix(&mut env, &conv.synth.src, (&coo).into()).unwrap();
            group.bench_with_input(BenchmarkId::new(label, spec.name), &(), |b, ()| {
                b.iter(|| conv.execute_env(&mut env).unwrap())
            });
        }
    }
    group.finish();
}

/// Generated-executor overhead: the SPF-generated SpMV (interpreted)
/// against the native container kernel — quantifies the substrate tax
/// that inflates the Table-4 slowdown (see EXPERIMENTS.md note 2).
fn ablation_executor(c: &mut Criterion) {
    use sparse_formats::CsrMatrix;
    use sparse_synthesis::executor;
    use spf_computation::ComparatorRegistry;

    let coo = table3_suite()[8].generate(SCALE); // consph (FEM)
    let csr = CsrMatrix::from_coo(&coo);
    let x: Vec<f64> = (0..csr.nc).map(|k| (k % 9) as f64).collect();

    let comp = executor::spmv(&descriptors::csr()).unwrap();
    let compiled = comp.lower().unwrap();
    let mut env = RtEnv::new();
    synth_run::bind_matrix(&mut env, &descriptors::csr(), (&csr).into()).unwrap();
    env.data.insert(executor::names::X.to_string(), x.clone().into());

    let mut group = c.benchmark_group("ablation_executor_spmv");
    group.bench_function("generated_interpreted", |b| {
        b.iter(|| {
            compiled.execute(&mut env, &ComparatorRegistry::new()).unwrap();
        })
    });
    group.bench_function("native_container", |b| {
        b.iter(|| std::hint::black_box(csr.spmv(&x)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = ablation_csr, ablation_dia_search, ablation_executor
}
criterion_main!(benches);
