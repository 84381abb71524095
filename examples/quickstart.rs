//! Quickstart: describe two formats, synthesize the conversion, inspect
//! the generated code, and run it.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use sparse_synth::formats::{descriptors, AnyMatrix, CooMatrix, CsrMatrix};
use sparse_synth::synthesis::{Conversion, SynthesisOptions};

fn main() {
    // 1. Format descriptors (Table 1 of the paper): sorted COO and CSR.
    let src = descriptors::scoo();
    let dst = descriptors::csr();
    println!("=== Source descriptor ===\n{}", src.table1_row());
    println!("=== Destination descriptor ===\n{}", dst.table1_row());

    // 2. Synthesize the inspector. The synthesis algorithm composes the
    //    inverted destination map with the source map, classifies every
    //    constraint on the unknown UFs (Cases 1-5), and emits an SPF loop
    //    chain, which the optimizer then prunes and fuses.
    let conv = Conversion::new(&src, &dst, SynthesisOptions::default())
        .expect("COO -> CSR synthesizes");

    println!("=== Solve plan ===");
    println!("{:?}", conv.synth.plan);
    println!(
        "permutation: {:?} (identity eliminated: {})",
        conv.synth.permutation, conv.synth.identity_eliminated
    );

    // 3. The composed relation R_{A_COO -> A_CSR} (the paper's step 2).
    println!("\n=== Composed relation ===\n{}", conv.synth.composed);

    // 4. Table-2 style constraint grouping per unknown UF.
    println!("\n=== Constraints per unknown UF (Table 2) ===");
    for (uf, cs) in &conv.synth.analysis.constraint_table {
        println!("{uf}:");
        for c in cs {
            println!("    {c}");
        }
    }

    // 5. The synthesized inspector as C code. Because the source order
    //    (row-major) implies the destination order, no OrderedList
    //    appears: this is the paper's COO->CSR fast path.
    println!("\n=== Synthesized C ===\n{}", conv.emit_c());

    // 6. Execute on a small matrix and validate.
    let coo = CooMatrix::from_triplets(
        4,
        5,
        vec![0, 0, 1, 3, 3],
        vec![1, 4, 2, 0, 3],
        vec![10.0, 20.0, 30.0, 40.0, 50.0],
    )
    .expect("valid COO");
    let (csr, stats) = conv.run_matrix(&coo).expect("conversion runs");
    let AnyMatrix::Csr(csr) = csr else { panic!("expected CSR, got {}", csr.label()) };
    println!("=== Result ===");
    println!("rowptr = {:?}", csr.rowptr);
    println!("col    = {:?}", csr.col);
    println!("val    = {:?}", csr.val);
    println!("(executed {} statements)", stats.statements);

    assert_eq!(csr, CsrMatrix::from_coo(&coo));
    csr.validate().expect("CSR invariants hold");
    println!("\nMatches the reference conversion. ✓");
}
