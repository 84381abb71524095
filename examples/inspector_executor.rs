//! Inspector/executor in tandem — the paper's framing: "By directly
//! synthesizing the sparse format code to SPF and expressing the original
//! computation in SPF, both can be optimized in tandem."
//!
//! This example keeps *everything* in the SPF-IR: a synthesized inspector
//! converts a sorted COO matrix to CSR, a generated executor runs
//! `y = A x` over the CSR iteration space, and both print as C and render
//! as one dataflow graph.
//!
//! ```text
//! cargo run --example inspector_executor
//! ```

use sparse_synth::formats::descriptors;
use sparse_synth::spf::{to_dot, ComparatorRegistry};
use sparse_synth::synthesis::{executor, run as synth_run, Conversion, SynthesisOptions};
use sparse_synth::codegen::runtime::RtEnv;

fn main() {
    let src = descriptors::scoo();
    let dst = descriptors::csr();

    // The inspector: synthesized COO -> CSR conversion.
    let conv = Conversion::new(&src, &dst, SynthesisOptions::default()).unwrap();
    println!("=== Inspector (synthesized) ===\n{}", conv.emit_c());

    // The executor: SpMV generated from the *destination* descriptor —
    // it iterates CSR's own sparse iteration space
    // {[i,k,j] : rowptr(i) <= k < rowptr(i+1) && j = col2(k)}.
    let spmv = executor::spmv(&dst).unwrap();
    let spmv_compiled = spmv.lower().unwrap();
    println!("=== Executor (generated SpMV) ===\n{}", spmv_compiled.emit_c("spmv_csr"));

    // Dataflow graph of the executor (render with `dot -Tpng`).
    println!("=== Executor dataflow (Graphviz) ===\n{}", to_dot(&spmv, "spmv_csr"));

    // Run the whole pipeline in one environment: inspector output feeds
    // the executor directly — no container round trip.
    let coo = {
        let mut m = sparse_synth::matgen::random_uniform(300, 300, 4_000, 5);
        m.sort_row_major();
        m
    };
    let x: Vec<f64> = (0..coo.nc).map(|k| ((k % 10) as f64) / 2.0).collect();

    let mut env = RtEnv::new();
    synth_run::bind_matrix(&mut env, &conv.synth.src, (&coo).into()).unwrap();
    conv.execute_env(&mut env).expect("inspector runs");
    env.data.insert(executor::names::X.to_string(), x.clone().into());
    spmv_compiled
        .execute(&mut env, &ComparatorRegistry::new())
        .expect("executor runs");
    let y = env.data[executor::names::Y].clone();

    // Cross-check against the source matrix.
    let want = coo.spmv(&x);
    let max_err = y
        .iter()
        .zip(&want)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!(
        "pipeline: COO({} nnz) --inspector--> CSR --executor--> y ({} entries)",
        coo.nnz(),
        y.len()
    );
    println!("max |y - y_ref| = {max_err:.2e}");
    assert!(max_err < 1e-9);
    println!("Inspector and executor compose inside one SPF environment. ✓");
}
