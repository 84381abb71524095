//! The §3.3 optimization pipeline, before and after: redundancy removal,
//! identity-permutation elimination + dead-code elimination, and loop
//! fusion — shown on the paper's COO→CSR fast path and contrasted with
//! COO→DIA, where the paper reports that the copy loop *cannot* fuse with
//! the loop building `off`.
//!
//! ```text
//! cargo run --example pipeline_optimization
//! ```

use sparse_synth::formats::descriptors;
use sparse_synth::synthesis::{synthesize, Conversion, Membership, SynthesisOptions};

fn main() {
    // ---- COO -> CSR --------------------------------------------------
    let src = descriptors::scoo();
    let dst = descriptors::csr();

    let naive_opts = SynthesisOptions { optimize: false, membership: Membership::Linear };
    let naive = synthesize(&src, &dst, naive_opts).expect("synthesizes");
    println!("=== COO -> CSR, naive loop chain ({} statements) ===", naive.naive.stmts.len());
    for s in &naive.naive.stmts {
        println!("  - {}", s.label);
    }
    println!("\nNaive C:\n{}", naive.naive.lower().unwrap().emit_c("naive_coo_csr"));

    let opt = synthesize(&src, &dst, SynthesisOptions::default()).expect("synthesizes");
    println!(
        "=== After optimization ({} statements) ===",
        opt.computation.stmts.len()
    );
    for s in &opt.computation.stmts {
        println!("  - {} [group {}]", s.label, s.fuse_group);
    }
    println!(
        "\nOptimized C:\n{}",
        opt.computation.lower().unwrap().emit_c("optimized_coo_csr")
    );
    println!(
        "The permutation chain was removed (identity_eliminated = {}), the\n\
         redundant rowptr max-update was dropped, and the col2 write, the\n\
         rowptr min-update, and the copy fused into one pass.",
        opt.identity_eliminated
    );

    // Quantify on a real matrix.
    let coo = {
        let mut m = sparse_synth::matgen::random_uniform(200, 200, 3_000, 7);
        m.sort_row_major();
        m
    };
    let run = |options: SynthesisOptions| {
        let conv = Conversion::new(&src, &dst, options).unwrap();
        conv.run_matrix(&coo).unwrap()
    };
    let (a, naive_stats) = run(naive_opts);
    let (b, opt_stats) = run(SynthesisOptions::default());
    assert_eq!(a, b);
    println!(
        "\nstatements executed: naive {} vs optimized {} ({:.2}x fewer)",
        naive_stats.statements,
        opt_stats.statements,
        naive_stats.statements as f64 / opt_stats.statements as f64
    );

    // ---- COO -> DIA: the fusion limitation ---------------------------
    let dia = synthesize(&src, &descriptors::dia(), SynthesisOptions::default())
        .expect("synthesizes");
    println!("\n=== COO -> DIA, optimized ({} statements) ===", dia.computation.stmts.len());
    for s in &dia.computation.stmts {
        println!("  - {} [group {}]", s.label, s.fuse_group);
    }
    println!(
        "\nThe copy loop reads `off`, which the preceding chain produces, so\n\
         producer-consumer fusion is illegal — exactly the limitation the\n\
         paper reports for COO_DIA (\"our optimizations cannot fuse the\n\
         loops generating offset and copy code\")."
    );
}
