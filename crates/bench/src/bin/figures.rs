//! Regenerates every table and figure of the paper's evaluation and
//! prints them with geomean summaries compared against the paper's
//! reported factors.
//!
//! Usage:
//!
//! ```text
//! figures [--scale N] [--reps K] [--only fig2a|fig2b|fig2c|fig2d|fig3|table3|table4|table5|ablation|code]
//! ```
//!
//! `--scale` divides the Table-3/Table-4 problem sizes (default 64: a
//! laptop-friendly run); `--reps` is the repetition count per timing
//! (default 3; minima are reported).

use sparse_bench::{
    geomean, geomean_speedup, run_ablation, run_fig2, run_spmv_overhead, run_table4, table5,
    Fig2Kind, Fig2Row,
};
use sparse_formats::descriptors;
use sparse_matgen::suite::table3_suite;
use sparse_synthesis::{Conversion, Membership, SynthesisOptions};

struct Args {
    scale: usize,
    reps: usize,
    only: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args { scale: 64, reps: 3, only: None };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale takes a positive integer");
            }
            "--reps" => {
                args.reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps takes a positive integer");
            }
            "--only" => {
                args.only = Some(it.next().expect("--only takes an experiment id"));
            }
            "--help" | "-h" => {
                println!(
                    "figures [--scale N] [--reps K] [--only fig2a|fig2b|fig2c|fig2d|fig3|table3|table4|table5|ablation|code]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }
    args
}

fn want(args: &Args, id: &str) -> bool {
    args.only.as_deref().is_none_or(|o| o == id)
}

fn print_fig2(label: &str, rows: &[Fig2Row], paper_note: &str) {
    println!("\n=== {label} ===");
    println!(
        "{:<18}{:>10}{:>12}{:>12}{:>12}{:>12}",
        "matrix", "nnz", "ours(ms)", "TACO(ms)", "SPARSKIT", "MKL"
    );
    for r in rows {
        println!(
            "{:<18}{:>10}{:>12.3}{:>12.3}{:>12.3}{:>12.3}",
            r.matrix,
            r.nnz,
            r.ours * 1e3,
            r.baselines[0] * 1e3,
            r.baselines[1] * 1e3,
            r.baselines[2] * 1e3
        );
    }
    println!(
        "geomean speedup vs TACO: {:.2}x | vs SPARSKIT: {:.2}x | vs MKL: {:.2}x",
        geomean_speedup(rows, 0),
        geomean_speedup(rows, 1),
        geomean_speedup(rows, 2)
    );
    println!("paper: {paper_note}");
}

fn main() {
    let args = parse_args();
    println!(
        "sparse-synth evaluation harness (scale {}, reps {})",
        args.scale, args.reps
    );

    if want(&args, "table3") {
        println!("\n=== Table 3: synthetic matrix suite (at scale {}) ===", args.scale);
        println!("{:<18}{:>12}{:>12}{:>8}", "matrix", "rows", "nnz", "#diag");
        for spec in table3_suite() {
            let m = spec.generate(args.scale);
            let nd = if spec.dia_friendly() {
                m.diagonals().len().to_string()
            } else {
                "-".to_string()
            };
            println!("{:<18}{:>12}{:>12}{:>8}", spec.name, m.nr, m.nnz(), nd);
        }
    }

    if want(&args, "fig2a") {
        let rows = run_fig2(Fig2Kind::CooToCsc, args.scale, args.reps);
        print_fig2(
            Fig2Kind::CooToCsc.label(),
            &rows,
            "1.3x geomean speedup for COO->CSC",
        );
    }
    if want(&args, "fig2b") {
        let rows = run_fig2(Fig2Kind::CsrToCsc, args.scale, args.reps);
        print_fig2(
            Fig2Kind::CsrToCsc.label(),
            &rows,
            "1.5x geomean speedup for CSR->CSC",
        );
    }
    if want(&args, "fig2c") {
        let rows = run_fig2(Fig2Kind::CooToCsr, args.scale, args.reps);
        print_fig2(
            Fig2Kind::CooToCsr.label(),
            &rows,
            "2.85x geomean speedup for COO->CSR (no permutation generated)",
        );
    }
    if want(&args, "fig2d") {
        let rows = run_fig2(Fig2Kind::CooToDiaLinear, args.scale, args.reps);
        print_fig2(
            Fig2Kind::CooToDiaLinear.label(),
            &rows,
            "~5x slower than TACO; degrades with diagonal count (worst: majorbasis, best: ecology1)",
        );
        // The paper's crossover observation.
        if let (Some(best), Some(worst)) = (
            rows.iter().find(|r| r.matrix == "ecology1"),
            rows.iter().find(|r| r.matrix == "majorbasis"),
        ) {
            println!(
                "per-nonzero cost: ecology1 (5 diag) {:.1} ns vs majorbasis (22 diag) {:.1} ns",
                best.ours * 1e9 / best.nnz as f64,
                worst.ours * 1e9 / worst.nnz as f64
            );
        }
    }
    if want(&args, "fig3") {
        let rows = run_fig2(Fig2Kind::CooToDiaBinary, args.scale, args.reps);
        print_fig2(
            Fig2Kind::CooToDiaBinary.label(),
            &rows,
            "binary search: 3.1x/3.54x faster than SPARSKIT/MKL, 1.4x slower than TACO",
        );
        let rows = run_fig2(Fig2Kind::CooToDiaDirect, args.scale, args.reps);
        print_fig2(
            Fig2Kind::CooToDiaDirect.label(),
            &rows,
            "(not in the paper) TACO's direct diagonal map, synthesized from off's range",
        );
    }

    if want(&args, "table4") {
        println!("\n=== Table 4: COO3D -> MCOO3 vs hand-written HiCOO z-Morton ===");
        let rows = run_table4(args.scale * 16, args.reps);
        println!(
            "{:<10}{:>12}{:>14}{:>14}{:>10}",
            "tensor", "nnz", "HiCOO(ms)", "ours(ms)", "ratio"
        );
        for r in &rows {
            println!(
                "{:<10}{:>12}{:>14.3}{:>14.3}{:>10.2}",
                r.tensor,
                r.nnz,
                r.hicoo * 1e3,
                r.ours * 1e3,
                r.ours / r.hicoo
            );
        }
        let slowdown = geomean(rows.iter().map(|r| r.ours / r.hicoo));
        println!("geomean slowdown vs HiCOO: {slowdown:.2}x (paper: 1.64x)");
    }

    if want(&args, "ablation") {
        println!("\n=== Ablation: SCOO -> CSR, Sec. 3.3 optimizations and ExecStats cost ===");
        println!(
            "{:<18}{:>10}{:>12}{:>12}{:>12}{:>12}{:>12}",
            "matrix", "nnz", "naive(ms)", "opt(ms)", "quiet(ms)", "naive/opt", "stats cost"
        );
        for r in run_ablation(args.scale, args.reps) {
            println!(
                "{:<18}{:>10}{:>12.3}{:>12.3}{:>12.3}{:>12.2}{:>11.1}%",
                r.matrix,
                r.nnz,
                r.naive * 1e3,
                r.optimized * 1e3,
                r.quiet * 1e3,
                r.naive / r.optimized,
                (r.optimized / r.quiet - 1.0) * 100.0
            );
        }
        let s = run_spmv_overhead(args.scale, args.reps);
        println!(
            "SpMV on {} ({} nnz): generated {:.3} ms | CsrMatrix::spmv {:.3} ms | ratio {:.2}x",
            s.matrix,
            s.nnz,
            s.generated * 1e3,
            s.native * 1e3,
            s.generated / s.native
        );
    }

    if want(&args, "code") && args.only.is_some() {
        // Dump every evaluated conversion's synthesized C (paper-artifact
        // parity: the generated inspectors themselves).
        let pairs: Vec<(&str, Conversion)> = vec![
            (
                "scoo_to_csr",
                Conversion::new(
                    &descriptors::scoo(),
                    &descriptors::csr(),
                    SynthesisOptions::default(),
                )
                .unwrap(),
            ),
            (
                "scoo_to_csc",
                Conversion::new(
                    &descriptors::scoo(),
                    &descriptors::csc(),
                    SynthesisOptions::default(),
                )
                .unwrap(),
            ),
            (
                "csr_to_csc",
                Conversion::new(
                    &descriptors::csr(),
                    &descriptors::csc(),
                    SynthesisOptions::default(),
                )
                .unwrap(),
            ),
            (
                "scoo_to_dia_linear",
                Conversion::new(
                    &descriptors::scoo(),
                    &descriptors::dia(),
                    SynthesisOptions { optimize: true, membership: Membership::Linear },
                )
                .unwrap(),
            ),
            (
                "scoo_to_dia_binary",
                Conversion::new(
                    &descriptors::scoo(),
                    &descriptors::dia(),
                    SynthesisOptions { optimize: true, membership: Membership::Binary },
                )
                .unwrap(),
            ),
            (
                "scoo_to_dia_direct",
                Conversion::new(
                    &descriptors::scoo(),
                    &descriptors::dia(),
                    SynthesisOptions::default(),
                )
                .unwrap(),
            ),
            (
                "scoo_to_mcoo",
                Conversion::new(
                    &descriptors::scoo(),
                    &descriptors::mcoo(),
                    SynthesisOptions::default(),
                )
                .unwrap(),
            ),
            (
                "scoo3_to_mcoo3",
                Conversion::new(
                    &descriptors::scoo3(),
                    &descriptors::mcoo3(),
                    SynthesisOptions::default(),
                )
                .unwrap(),
            ),
        ];
        for (name, conv) in pairs {
            println!("/* ================= {name} ================= */");
            println!("{}", conv.emit_c());
        }
    }

    if want(&args, "table5") {
        println!();
        println!("{}", table5());
    }
}
